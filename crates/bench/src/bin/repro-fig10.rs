//! Regenerates Fig. 10 of the paper: the distribution of 8-byte
//! datawords by RowHammer bit-flip count, per module — plus the §7.4
//! ECC verdicts (pass `--ecc`): how SECDED, Chipkill, and Reed-Solomon
//! codes fare against the measured distributions.
//!
//! Usage: repro-fig10 [--rows N] [--samples N] [--windows N]
//!                    [--modules A5,...] [--ecc] [--threads N]
//!                    [--faults none|mild|hostile] [--fault-seed N]
//!                    [--metrics-out PATH] [--trace-out PATH] [--trace-rows SPEC]

use attacks::eval::EvalConfig;
use ecc::{analyze_with_registry, CodeKind};
use faults::FaultProfile;
use utrr_bench::{
    arg_flag, arg_or, arg_value, attack_columns_par, emit_metrics, emit_trace, fault_args,
    install_trace, metrics_out_path, par_config, run_registry, threads_arg, trace_args,
};
use utrr_modules::{catalog, ModuleSpec};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let rows: u32 = arg_or(&args, "--rows", 2_048);
    let samples: u32 = arg_or(&args, "--samples", 48);
    let windows: u32 = arg_or(&args, "--windows", 2);
    let filter = arg_value(&args, "--modules");
    let run_ecc = arg_flag(&args, "--ecc");
    let metrics_path = metrics_out_path(&args);
    let (fault_profile, fault_seed) = fault_args(&args);
    let trace = trace_args(&args);
    let registry = run_registry();
    install_trace(&registry, &trace);
    let pool = par_config(threads_arg(&args), &registry);
    let config = EvalConfig {
        sample_count: samples,
        windows,
        scaled_rows: Some(rows),
        registry: Some(std::sync::Arc::clone(&registry)),
        fault_profile,
        fault_seed,
        ..EvalConfig::quick(samples)
    };

    println!("# Fig. 10 reproduction — 8-byte datawords by bit-flip count");
    println!(
        "# ({samples} sampled victim rows per bank, {rows} rows/bank, {windows} refresh windows)"
    );
    if fault_profile != FaultProfile::None {
        println!("# fault injection: {fault_profile} profile, seed {fault_seed}");
    }
    println!();

    let modules: Vec<ModuleSpec> = catalog()
        .into_iter()
        .filter(|spec| match &filter {
            Some(list) => list.split(',').any(|id| id == spec.id),
            None => true,
        })
        .collect();
    // One worker-pool task per module; histograms (and the sequential
    // ECC analysis below) print in catalog order.
    let sweeps = attack_columns_par(&modules, &config, &pool);

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
                let report = analyze_with_registry(code, &hist, 17, &registry);
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

    emit_trace(&registry, &trace).expect("trace artifact is writable");
    emit_metrics(&registry, metrics_path.as_deref()).expect("metrics artifact is writable");
}
