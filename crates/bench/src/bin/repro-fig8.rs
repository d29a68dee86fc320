//! Regenerates Fig. 8 of the paper: the distribution of bit flips per
//! DRAM row as the per-aggressor hammer count sweeps, for the three
//! representative modules A5, B8, and C7.
//!
//! The paper's box-and-whisker panels become ASCII box lines: `-` spans
//! min..max, `=` spans the inter-quartile range, `#` marks the median.
//!
//! Usage: repro-fig8 [--rows N] [--samples N] [--windows N] [--threads N]
//!                   [--faults none|mild|hostile] [--fault-seed N]
//!                   [--metrics-out PATH] [--trace-out PATH] [--trace-rows SPEC]

use utrr_bench::{arg_or, boxplot_line, fig8_sweep_par, Run};
use utrr_modules::fig8_modules;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let run = Run::from_args(&args, &["--rows", "--samples", "--windows"]);
    let rows: u32 = arg_or(&args, "--rows", 2_048);
    let samples: u32 = arg_or(&args, "--samples", 32);
    let windows: u32 = arg_or(&args, "--windows", 2);
    let config = run.eval_config(rows, samples, windows);

    println!("# Fig. 8 reproduction — flips per row vs hammers per aggressor per REF");
    println!("# ({samples} victim rows per point, {rows} rows/bank, {windows} refresh windows)");
    run.fault_banner();

    for spec in fig8_modules() {
        // Sweep the same region the paper shows: a handful of points
        // around each vendor's optimum.
        let hammer_values: Vec<f64> = match spec.vendor {
            utrr_modules::Vendor::A => vec![12.0, 18.0, 24.0, 36.0, 50.0, 65.0, 70.0, 74.0],
            _ => vec![20.0, 35.0, 50.0, 65.0, 73.0],
        };
        println!();
        println!("## Module {} ({})", spec.id, spec.trr_version);
        let points = fig8_sweep_par(&spec, &hammer_values, &config, &run.pool);
        let max_flips = points.iter().map(|p| p.quartiles.4).max().unwrap_or(1).max(1);
        println!("  hammers/aggr/REF   min   q1  med   q3  max   0 {:>38} {max_flips}", "flips →");
        for p in &points {
            let (min, q1, med, q3, max) = p.quartiles;
            println!(
                "  {:>16.1} {:>5} {:>4} {:>4} {:>4} {:>4}   |{}|",
                p.hammers,
                min,
                q1,
                med,
                q3,
                max,
                boxplot_line(p.quartiles, max_flips, 40)
            );
        }
        let best = points.iter().max_by_key(|p| p.quartiles.4).expect("points exist");
        println!(
            "  → most flips at ≈{:.0} hammers/aggressor/REF (paper: A at 26, B at 68, C at 65)",
            best.hammers
        );
    }

    run.finish();
}
