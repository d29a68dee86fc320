//! The paper's closing question made runnable: do the U-TRR-derived
//! custom patterns — which defeat *every* in-DRAM TRR of Table 1 — also
//! defeat mitigations with sound designs?
//!
//! This binary swaps each module's planted TRR engine for PARA
//! (probabilistic, stateless) or Graphene (deterministic counter
//! guarantee) and replays both the vendor's custom pattern and
//! full-budget double-sided hammering.
//!
//! Usage: secure-mitigations [--rows N] [--samples N] [--para-prob P]
//!                           [--threads N] [--faults none|mild|hostile]
//!                           [--fault-seed N] [--metrics-out PATH]
//!                           [--trace-out PATH] [--trace-rows SPEC]

use attacks::baseline::DoubleSided;
use attacks::custom;
use attacks::eval::{sweep_bank_module, BankSweep, EvalConfig};
use dram_sim::{MitigationEngine, Module};
use trr::{Graphene, GrapheneConfig, Para};
use utrr_bench::{arg_or, Run};
use utrr_modules::{by_id, ModuleSpec};

fn build_with(spec: &ModuleSpec, rows: u32, engine: Box<dyn MitigationEngine>) -> Module {
    let config = spec.build_scaled(rows, 5).config().clone();
    Module::with_engine(config, engine, 5)
}

/// One evaluation cell: a module, a pattern, and a mitigation, by name.
/// Plain data so tasks can cross the worker pool — the engine and the
/// pattern (neither of which is `Send`) are built inside the task.
#[derive(Clone, Copy)]
struct Cell {
    id: &'static str,
    pattern: &'static str,
    mitigation: &'static str,
}

fn run_cell(cell: &Cell, rows: u32, para_prob: f64, config: &EvalConfig) -> (String, BankSweep) {
    let spec = by_id(cell.id).expect("catalog module");
    let (name, engine): (String, Box<dyn MitigationEngine>) = match cell.mitigation {
        "vendor" => (format!("vendor TRR ({})", spec.trr_version), spec.engine(5)),
        "PARA" => ("PARA".into(), Box::new(Para::new(para_prob, 11))),
        _ => (
            "Graphene".into(),
            Box::new(Graphene::new(GrapheneConfig::for_hc_first(spec.hc_first), spec.banks)),
        ),
    };
    let module = build_with(&spec, rows, engine);
    let sweep = if cell.pattern == "custom (U-TRR)" {
        let pattern = custom::pattern_for(&spec);
        sweep_bank_module(module, pattern.as_ref(), config)
    } else {
        sweep_bank_module(module, &DoubleSided::max_rate(), config)
    };
    (name, sweep)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let run = Run::from_args(&args, &["--rows", "--samples", "--para-prob"]);
    let rows: u32 = arg_or(&args, "--rows", 2_048);
    let samples: u32 = arg_or(&args, "--samples", 24);
    let para_prob: f64 = arg_or(&args, "--para-prob", 0.001);
    let config = run.eval_config(rows, samples, 2);

    println!("# Secure-mitigation evaluation — custom patterns vs PARA/Graphene");
    println!("# ({samples} victim samples, {rows} rows/bank, PARA p = {para_prob})");
    run.fault_banner();
    println!();
    println!(
        "{:<8} {:<18} {:<22} {:>11} {:>14}",
        "module", "pattern", "mitigation", "vulnerable", "max flips/row"
    );

    // The full evaluation grid, one pool task per cell; results land in
    // grid order so the table prints identically for any thread count.
    let mut cells = Vec::new();
    for id in ["A5", "B0", "C9"] {
        for pattern in ["custom (U-TRR)", "double-sided"] {
            for mitigation in ["vendor", "PARA", "Graphene"] {
                cells.push(Cell { id, pattern, mitigation });
            }
        }
    }
    let results = par::par_map(&run.pool, &cells, |cell| run_cell(cell, rows, para_prob, &config));

    let mut last_id = "";
    for (cell, (name, sweep)) in cells.iter().zip(&results) {
        if !last_id.is_empty() && cell.id != last_id {
            println!();
        }
        last_id = cell.id;
        println!(
            "{:<8} {:<18} {:<22} {:>10.1}% {:>14}",
            cell.id,
            cell.pattern,
            name,
            sweep.vulnerable_pct(),
            sweep.max_flips_per_row(),
        );
    }
    println!();
    println!("# Expected shape: the custom patterns defeat the vendor TRR but neither");
    println!("# PARA (nothing to divert) nor Graphene (deterministic counter bound).");

    run.finish();
}
