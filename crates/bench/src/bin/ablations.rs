//! Outcome ablations for the simulator design choices DESIGN.md §6
//! calls out. Each ablation switches one mechanism off (or distorts it)
//! and shows how a paper-relevant observable changes — evidence that the
//! mechanism is load-bearing rather than decorative.
//!
//! Usage: ablations [--rows N] [--samples N] [--threads N]
//!                  [--faults none|mild|hostile] [--fault-seed N]
//!                  [--metrics-out PATH] [--trace-out PATH] [--trace-rows SPEC]

use attacks::baseline::DoubleSided;
use attacks::custom::VendorAPattern;
use attacks::eval::sweep_bank_module;
use dram_sim::{Bank, DataPattern, Module, RowAddr};
use utrr_bench::{arg_or, Run};
use utrr_modules::by_id;

/// Ablation 1 — same-row discount: without it, cascaded hammering is as
/// disruptive as interleaved, erasing the §5.2 asymmetry.
fn ablate_same_row_discount(spec: &utrr_modules::ModuleSpec, rows: u32) {
    println!("## Ablation: same-row activation discount (§5.2 asymmetry)");
    for (label, discount) in
        [("with discount (default)", 0.5f64), ("ablated (discount = 1.0)", 1.0)]
    {
        let mut module_cfg_flips = Vec::new();
        for interleaved in [true, false] {
            let mut module = {
                let mut m = spec.build_scaled(rows, 5);
                // Rebuild with a modified physics config.
                let mut config = m.config().clone();
                config.physics.same_row_discount = discount;
                m = Module::with_engine(config, Box::new(dram_sim::NoMitigation), 5);
                m
            };
            let bank = Bank::new(0);
            let mut flips = 0usize;
            for v in 0..8u32 {
                let victim = RowAddr::new(200 + v * 150);
                module.write_row(bank, victim, DataPattern::Ones).expect("in range");
                let n = spec.hc_first * 3;
                if interleaved {
                    module.hammer_pair(bank, victim.minus(1), victim.plus(1), n).expect("in range");
                } else {
                    module.hammer(bank, victim.minus(1), n).expect("in range");
                    module.hammer(bank, victim.plus(1), n).expect("in range");
                }
                flips += module.read_row(bank, victim).expect("in range").flip_count();
            }
            module_cfg_flips.push(flips);
        }
        println!(
            "  {label:<28} interleaved {:>5} flips vs cascaded {:>5} flips",
            module_cfg_flips[0], module_cfg_flips[1]
        );
    }
    println!("  → the discount is what makes interleaved hammering hit harder.\n");
}

/// Ablation 2 — blast radius 2: without it A_TRR1's ±2 refreshes have
/// nothing to protect and the paper's Observation A2 becomes
/// unobservable.
fn ablate_blast_radius(spec: &utrr_modules::ModuleSpec, rows: u32) {
    println!("## Ablation: distance-2 disturbance weight (Observation A2 observability)");
    for (label, weight) in
        [("with radius-2 (default 0.25)", 0.25f64), ("ablated (weight = 0)", 0.0)]
    {
        let mut config = spec.build_scaled(rows, 5).config().clone();
        config.physics.radius2_weight = weight;
        let mut module = Module::new(config, 5);
        let bank = Bank::new(0);
        let victim = RowAddr::new(500);
        module.write_row(bank, victim, DataPattern::Ones).expect("in range");
        // Aggressors at distance 2 only; the same hammer count in both
        // configurations (sized for the default weight) so neither run
        // outlasts the victim's retention time.
        let _ = weight;
        let n = spec.hc_first * 8 * 4;
        module.hammer_pair(bank, victim.minus(2), victim.plus(2), n).expect("in range");
        let flips = module.read_row(bank, victim).expect("in range").flip_count();
        println!("  {label:<28} distance-2 victim flips: {flips}");
    }
    println!("  → with the weight ablated, ±2 rows can never flip, so a ±2-refreshing TRR is indistinguishable from a ±1 one.\n");
}

/// Ablation 3 — dummy-row pressure in the vendor-A pattern: the attack
/// collapses without enough dummy insertions to flush the 16-entry LRU.
fn ablate_dummy_pressure(spec: &utrr_modules::ModuleSpec, samples: u32, rows: u32, run: &Run) {
    println!("## Ablation: dummy-row pressure in the vendor-A custom pattern (Fig. 8 trade-off)");
    let cfg = run.eval_config(rows, samples, 2);
    let variants = [
        ("paper optimum (24 hammers + 16 dummies)", VendorAPattern::paper_optimum()),
        (
            "no dummies at all",
            VendorAPattern { aggressor_hammers: 24, dummy_rows: 0, dummy_hammers: 0 },
        ),
        (
            "half the dummies (8)",
            VendorAPattern { aggressor_hammers: 24, dummy_rows: 8, dummy_hammers: 6 },
        ),
        ("over-hammered aggressors (70)", VendorAPattern::with_aggressor_hammers(70)),
    ];
    // Each variant sweeps its own freshly built module — one pool task
    // per variant, printed in declaration order.
    let sweeps = par::par_map(&run.pool, &variants, |(_, pattern)| {
        sweep_bank_module(spec.build_scaled(rows, 5), pattern, &cfg)
    });
    for ((label, _), sweep) in variants.iter().zip(&sweeps) {
        println!(
            "  {label:<40} vulnerable {:>5.1}%  max flips/row {:>4}",
            sweep.vulnerable_pct(),
            sweep.max_flips_per_row()
        );
    }
    println!(
        "  → fewer than 16 dummy insertions leave the aggressors resident in the LRU table.\n"
    );
}

/// Ablation 4 — the baseline contrast: TRR stops double-sided hammering
/// entirely; removing TRR restores it.
fn ablate_trr_presence(spec: &utrr_modules::ModuleSpec, samples: u32, rows: u32, run: &Run) {
    println!("## Ablation: TRR presence (footnote 18 baseline contrast)");
    let cfg = run.eval_config(rows, samples, 2);
    let pattern = DoubleSided::max_rate();
    // Both arms build their own module inside the task (the engine is
    // not Send), so the two sweeps run concurrently.
    let arms = [true, false];
    let sweeps = par::par_map(&run.pool, &arms, |&trr| {
        if trr {
            sweep_bank_module(spec.build_scaled(rows, 5), &pattern, &cfg)
        } else {
            let config_no_trr = spec.build_scaled(rows, 5).config().clone();
            sweep_bank_module(Module::new(config_no_trr, 5), &pattern, &cfg)
        }
    });
    let (with_trr, without) = (&sweeps[0], &sweeps[1]);
    println!(
        "  double-sided vs {}:    {:>5.1}% vulnerable | TRR removed: {:>5.1}% vulnerable",
        spec.trr_version,
        with_trr.vulnerable_pct(),
        without.vulnerable_pct()
    );
    println!("  → the planted TRR engines are what stop conventional hammering.\n");
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let run = Run::from_args(&args, &["--rows", "--samples"]);
    let rows: u32 = arg_or(&args, "--rows", 2_048);
    let samples: u32 = arg_or(&args, "--samples", 24);
    let spec = by_id("A5").expect("catalog contains A5");
    println!("# Simulator design-choice ablations (module A5 unless noted)");
    run.fault_banner();
    println!();
    ablate_same_row_discount(&spec, rows);
    ablate_blast_radius(&spec, rows);
    ablate_dummy_pressure(&spec, samples, rows, &run);
    ablate_trr_presence(&spec, samples, rows, &run);

    run.finish();
}
