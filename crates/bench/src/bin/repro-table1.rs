//! Regenerates Table 1 of the paper: per-module TRR reverse engineering
//! (U-TRR's findings vs the planted ground truth) plus the attack
//! columns (measured HC_first, % vulnerable rows, max flips per row per
//! hammer).
//!
//! Usage:
//!   repro-table1 [--rows N] [--samples N] [--windows N] [--modules A5,B0,...]
//!                [--threads N] [--faults none|mild|hostile] [--fault-seed N]
//!                [--metrics-out PATH] [--bench-out PATH] [--trace-out PATH]
//!                [--trace-rows SPEC]
//!
//! Every module is reverse engineered on its own, so each row of the
//! table is its own measurement. A module whose reverse engineering
//! fails on every seed prints an `inconclusive` row and the run goes
//! on. Below `--faults hostile` that row names the cause
//! (`inconclusive [re-failed:<cause>]`) and the binary exits 1 after
//! all output, as `repro-fleet` does.
//!
//! `--threads N` (or `UTRR_THREADS`) fans the reverse-engineering and
//! attack phases over a worker pool; results are bit-identical to a
//! sequential run for any thread count. `--bench-out PATH` writes a
//! `BENCH_sweep.json` baseline artifact recording wall-clock per phase
//! plus a per-command device cost micro-benchmark.

use attacks::eval::BankSweep;
use utrr_bench::{
    arg_or, arg_value, attack_columns, catalog_modules, detection_label, device_ns_per_act,
    exit_on_write_error, hc_first, retry_seeds, reverse_engineer, BenchPhases, ReOutcome, Retried,
    Run, RunConfig, RE_FAILED,
};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let run =
        Run::from_args(&args, &["--rows", "--samples", "--windows", "--modules", "--bench-out"]);
    let rows: u32 = arg_or(&args, "--rows", 2_048);
    // Row Scout needs space for 18 pair groups plus the neighbour probe.
    let rows = if rows < 1_024 {
        eprintln!("note: --rows {rows} is too small for the reverse-engineering suite; using 1024");
        1_024
    } else {
        rows
    };
    let samples: u32 = arg_or(&args, "--samples", 48);
    let windows: u32 = arg_or(&args, "--windows", 2);
    let bench_path = arg_value(&args, "--bench-out").map(std::path::PathBuf::from);
    let run_config = RunConfig {
        rows,
        seed: 7,
        fault_profile: run.fault_profile,
        fault_seed: run.fault_seed,
        registry: Some(std::sync::Arc::clone(&run.registry)),
    };
    let mut bench = BenchPhases::new(run.pool.threads);
    let modules = catalog_modules(&args);

    println!("# Table 1 reproduction — {} modules, {rows} rows/bank (scaled), {samples} victim samples, {windows} refresh windows", modules.len());
    run.fault_banner();
    println!();
    println!("## Reverse-engineering columns (U-TRR findings vs planted ground truth)");
    println!();
    println!(
        "| Module | Version | Ratio (GT) | Neighbors (GT) | Detection (GT) | Per-Bank (GT) | Refresh period (GT) | Match |"
    );
    println!("|---|---|---|---|---|---|---|---|");

    let outcomes: Vec<Retried<ReOutcome>> = bench.time("reverse_engineering", || {
        par::par_map(&run.pool, &modules, |spec| {
            retry_seeds(&run_config, |k| 7 + 97 * k, |c| reverse_engineer(spec, c))
        })
    });
    let mut tiers = [0u64; 3];
    for (spec, re) in modules.iter().zip(&outcomes) {
        match &re.outcome {
            Some(outcome) => {
                // A non-confirmed tier, which only a tiered policy
                // produces, rides in the match cell.
                tiers[usize::try_from(outcome.tier.code()).expect("code fits")] += 1;
                let mut verdict = if outcome.matches.all() { "✓" } else { "partial" }.to_string();
                if !outcome.tier.is_confirmed() {
                    verdict = format!(
                        "{verdict} [{}: {}]",
                        outcome.tier.label(),
                        outcome.tier.reasons_string()
                    );
                }
                println!(
                    "| {} | {} | {} ({}) | {} ({}) | {} ({}) | {} ({}) | {} ({}) | {} |",
                    spec.id,
                    spec.trr_version,
                    outcome.profile.trr_ref_ratio,
                    spec.trr_to_ref_ratio,
                    outcome.profile.neighbors_refreshed,
                    spec.neighbors_refreshed,
                    detection_label(&outcome.profile.detection),
                    spec.detection,
                    outcome.profile.per_bank,
                    spec.per_bank_trr,
                    outcome.refresh_period,
                    spec.refresh().period_refs,
                    verdict,
                );
            }
            // Every seed failed: the module is inconclusive and the run
            // continues with the ground truth alone. Below a tiered
            // policy the cause is named and the run exits 1 at the end.
            None => {
                tiers[2] += 1;
                let verdict = match &re.failure {
                    Some(e) => format!("inconclusive [{RE_FAILED}{}]", e.cause()),
                    None => "inconclusive".to_string(),
                };
                println!(
                    "| {} | {} | – ({}) | – ({}) | – ({}) | – ({}) | – ({}) | {verdict} |",
                    spec.id,
                    spec.trr_version,
                    spec.trr_to_ref_ratio,
                    spec.neighbors_refreshed,
                    spec.detection,
                    spec.per_bank_trr,
                    spec.refresh().period_refs,
                );
            }
        }
    }
    println!();
    if run_config.policy().tiered {
        println!(
            "verdict tiers: {} confirmed, {} degraded, {} inconclusive",
            tiers[0], tiers[1], tiers[2]
        );
        println!();
    }

    println!("## Attack columns (custom §7.1 pattern per vendor)");
    println!();
    println!(
        "| Module | HC_first measured (Table 1) | % vulnerable (paper) | max flips/row/hammer (paper) | max flips/word |"
    );
    println!("|---|---|---|---|---|");
    let config = run.eval_config(rows, samples, windows);
    // One task per module: each measures HC_first and runs the attack
    // sweep on its own freshly built module, then the rows are printed
    // in catalog order.
    let results: Vec<(u64, BankSweep)> = bench.time("attack_columns", || {
        par::par_map(&run.pool, &modules, |spec| {
            let hc_config = RunConfig { rows: rows.min(2_048), seed: 11, ..run_config.clone() };
            let hc =
                hc_first(spec, &hc_config, 48).expect("characterization runs on an in-range bank");
            let sweep = attack_columns(spec, &config);
            (hc, sweep)
        })
    });
    for (spec, (hc, sweep)) in modules.iter().zip(&results) {
        println!(
            "| {} | {} ({}) | {:.1}% ({:.1}–{:.1}%) | {:.2} ({:.2}–{:.2}) | {} |",
            spec.id,
            hc,
            spec.hc_first,
            sweep.vulnerable_pct(),
            spec.paper_vulnerable_pct.0,
            spec.paper_vulnerable_pct.1,
            sweep.max_flips_per_row_per_hammer(),
            spec.paper_max_flips_per_hammer.0,
            spec.paper_max_flips_per_hammer.1,
            sweep.max_flips_per_dataword(),
        );
    }

    if let Some(path) = &bench_path {
        let ns_per_act = bench.time("device_microbench", device_ns_per_act);
        bench.scalar("device_ns_per_act", ns_per_act);
        bench.scalar("refs_per_sec", utrr_bench::refs_per_sec());
        bench.scalar("weak_scan_ns_per_row", utrr_bench::weak_scan_ns_per_row());
        exit_on_write_error(path, bench.write(path));
        eprintln!("bench artifact: {}", path.display());
    }
    run.finish();
    let re_failed = outcomes.iter().filter(|re| re.failure.is_some()).count();
    if re_failed > 0 {
        eprintln!(
            "error: reverse engineering failed on {re_failed} modules below hostile severity \
             (rows marked {RE_FAILED}<cause>)"
        );
        std::process::exit(1);
    }
}
