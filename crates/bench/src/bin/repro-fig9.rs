//! Regenerates Fig. 9 of the paper: the percentage of rows in one bank
//! that experience at least one RowHammer bit flip under the vendor's
//! custom access pattern, for all 45 modules.
//!
//! Usage: repro-fig9 [--rows N] [--samples N] [--windows N] [--modules A5,...]
//!                   [--threads N] [--faults none|mild|hostile] [--fault-seed N]
//!                   [--metrics-out PATH] [--trace-out PATH] [--trace-rows SPEC]

use utrr_bench::{arg_or, attack_columns_par, catalog_modules, Run};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let run = Run::from_args(&args, &["--rows", "--samples", "--windows", "--modules"]);
    let rows: u32 = arg_or(&args, "--rows", 2_048);
    let samples: u32 = arg_or(&args, "--samples", 48);
    let windows: u32 = arg_or(&args, "--windows", 2);
    let config = run.eval_config(rows, samples, windows);

    println!("# Fig. 9 reproduction — % vulnerable DRAM rows per module");
    println!("# ({samples} sampled victim positions per bank, {rows} rows/bank, {windows} refresh windows)");
    run.fault_banner();
    println!();
    println!("  module  version    measured   paper        0%        50%       100%");

    let modules = catalog_modules(&args);
    // One worker-pool task per module; rows print in catalog order.
    let sweeps = attack_columns_par(&modules, &config, &run.pool);

    let mut fully_vulnerable = 0u32;
    let mut total = 0u32;
    for (spec, sweep) in modules.iter().zip(&sweeps) {
        let pct = sweep.vulnerable_pct();
        let bar_len = (pct / 2.5) as usize;
        println!(
            "  {:<7} {:<9} {:>6.1}%   {:>4.1}–{:>5.1}%  |{:<40}|",
            spec.id,
            spec.trr_version,
            pct,
            spec.paper_vulnerable_pct.0,
            spec.paper_vulnerable_pct.1,
            "#".repeat(bar_len.min(40)),
        );
        total += 1;
        if pct > 99.0 {
            fully_vulnerable += 1;
        }
    }
    println!();
    println!(
        "# {fully_vulnerable}/{total} modules above 99% (paper: 21 of 45 above 99.9%); every module shows bit flips"
    );

    run.finish();
}
