//! Regenerates Fig. 9 of the paper: the percentage of rows in one bank
//! that experience at least one RowHammer bit flip under the vendor's
//! custom access pattern, for all 45 modules.
//!
//! Usage: repro-fig9 [--rows N] [--samples N] [--windows N] [--modules A5,...]
//!                   [--threads N] [--faults none|mild|hostile] [--fault-seed N]
//!                   [--metrics-out PATH] [--trace-out PATH] [--trace-rows SPEC]

use attacks::eval::EvalConfig;
use faults::FaultProfile;
use utrr_bench::{
    arg_or, arg_value, attack_columns_par, emit_metrics, emit_trace, fault_args, install_trace,
    metrics_out_path, par_config, run_registry, threads_arg, trace_args,
};
use utrr_modules::{catalog, ModuleSpec};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let rows: u32 = arg_or(&args, "--rows", 2_048);
    let samples: u32 = arg_or(&args, "--samples", 48);
    let windows: u32 = arg_or(&args, "--windows", 2);
    let filter = arg_value(&args, "--modules");
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

    println!("# Fig. 9 reproduction — % vulnerable DRAM rows per module");
    println!("# ({samples} sampled victim positions per bank, {rows} rows/bank, {windows} refresh windows)");
    if fault_profile != FaultProfile::None {
        println!("# fault injection: {fault_profile} profile, seed {fault_seed}");
    }
    println!();
    println!("  module  version    measured   paper        0%        50%       100%");

    let modules: Vec<ModuleSpec> = catalog()
        .into_iter()
        .filter(|spec| match &filter {
            Some(list) => list.split(',').any(|id| id == spec.id),
            None => true,
        })
        .collect();
    // One worker-pool task per module; rows print in catalog order.
    let sweeps = attack_columns_par(&modules, &config, &pool);

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

    emit_trace(&registry, &trace).expect("trace artifact is writable");
    emit_metrics(&registry, metrics_path.as_deref()).expect("metrics artifact is writable");
}
