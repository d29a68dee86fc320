//! Regenerates Fig. 10 of the paper: the distribution of 8-byte
//! datawords by RowHammer bit-flip count, per module — plus the §7.4
//! ECC verdicts (pass `--ecc`): how SECDED, Chipkill, and Reed-Solomon
//! codes fare against the measured distributions.
//!
//! Usage: repro-fig10 [--rows N] [--samples N] [--windows N]
//!                    [--modules A5,...] [--ecc] [--threads N]
//!                    [--faults none|mild|hostile] [--fault-seed N]
//!                    [--metrics-out PATH] [--trace-out PATH] [--trace-rows SPEC]

use ecc::{analyze_with_registry, CodeKind};
use utrr_bench::{arg_flag, arg_or, attack_columns_par, catalog_modules, Run};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let run = Run::from_args(&args, &["--rows", "--samples", "--windows", "--ecc", "--modules"]);
    let rows: u32 = arg_or(&args, "--rows", 2_048);
    let samples: u32 = arg_or(&args, "--samples", 48);
    let windows: u32 = arg_or(&args, "--windows", 2);
    let run_ecc = arg_flag(&args, "--ecc");
    let config = run.eval_config(rows, samples, windows);

    println!("# Fig. 10 reproduction — 8-byte datawords by bit-flip count");
    println!(
        "# ({samples} sampled victim rows per bank, {rows} rows/bank, {windows} refresh windows)"
    );
    run.fault_banner();
    println!();

    let modules = catalog_modules(&args);
    // One worker-pool task per module; histograms (and the sequential
    // ECC analysis below) print in catalog order.
    let sweeps = attack_columns_par(&modules, &config, &run.pool);

    let mut global_max_flips_per_word = 0u32;
    for (spec, sweep) in modules.iter().zip(&sweeps) {
        let hist = sweep.dataword_histogram();
        let counts: Vec<String> = hist.iter().map(|&(k, n)| format!("{k}:{n}")).collect();
        println!(
            "  {:<7} {:<9} words(flips:count) {}",
            spec.id,
            spec.trr_version,
            counts.join(" ")
        );
        global_max_flips_per_word = global_max_flips_per_word.max(sweep.max_flips_per_dataword());

        if run_ecc && !hist.is_empty() {
            for code in [
                CodeKind::Secded,
                CodeKind::Chipkill,
                CodeKind::ReedSolomon { parity: 2 },
                CodeKind::ReedSolomon { parity: 7 },
            ] {
                let report = analyze_with_registry(code, &hist, 17, &run.registry);
                println!(
                    "          {:<14} corrected {:>8}  detected {:>8}  SILENT {:>6}  {}",
                    code.to_string(),
                    report.corrected,
                    report.detected,
                    report.silent,
                    if report.fully_protects() { "protects" } else { "DEFEATED" },
                );
            }
        }
    }
    println!();
    println!(
        "# max flips in a single 8-byte dataword across modules: {global_max_flips_per_word} (paper: 7)"
    );
    println!(
        "# RS parity symbols needed for guaranteed detection of the worst word: {:?} (paper: ≥7)",
        ecc::rs_parity_needed(&[(global_max_flips_per_word, 1)])
    );
    if run_ecc {
        println!(
            "# §7.4 conclusion check: SECDED/Chipkill are defeated wherever words carry ≥3 flips;"
        );
        println!("# only the 7-parity Reed-Solomon code protects every measured distribution.");
    }

    run.finish();
}
