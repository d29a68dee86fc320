//! Deterministic TRR-bypass fuzzer driver: searches the frequency-domain
//! pattern space against ground-truth TRR engines and reports the best
//! bypass candidate per engine.
//!
//! Usage:
//!   repro-fuzz [--seed S] [--rounds R] [--candidates N] [--elites E]
//!              [--engines A_TRR1,B_TRR1,...] [--rows N] [--samples N]
//!              [--windows N] [--threads N] [--out FILE.jsonl]
//!              [--fleet N] [--fleet-seed S]
//!              [--faults none|mild|hostile] [--fault-seed N]
//!              [--metrics-out PATH] [--bench-out PATH]
//!              [--trace-out PATH]
//!
//! Every candidate is a pure function of `(seed, round, slot)`, so
//! stdout and the `--out` artifact (schema `utrr-fuzz/1`) are
//! byte-identical at any `--threads N` — wall-clock timing goes to
//! stderr only. The `bypass: engine <V>` leader lines are the CI
//! fuzz-smoke contract: a known-weak engine must keep producing one.
//!
//! `--fleet N` re-scores each engine's leader pattern across `N`
//! synthetic modules (the `repro-fleet` population generator), checking
//! that a bypass found against the catalog representative generalises
//! across per-die variation.

use attacks::eval::sweep_bank;
use attacks::fuzz::{render_fuzz_jsonl, run_fuzz, FuzzConfig, FuzzPattern};
use utrr_bench::{arg_or, arg_value, exit_on_write_error, BenchPhases, Run};
use utrr_fleet::synth_spec;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let run = Run::from_args(
        &args,
        &[
            "--seed",
            "--rounds",
            "--candidates",
            "--elites",
            "--engines",
            "--rows",
            "--samples",
            "--windows",
            "--out",
            "--fleet",
            "--fleet-seed",
            "--bench-out",
        ],
    );
    let seed: u64 = arg_or(&args, "--seed", 1);
    let rounds: u32 = arg_or(&args, "--rounds", 3);
    let candidates: u32 = arg_or(&args, "--candidates", 24);
    let elites: u32 = arg_or(&args, "--elites", 4);
    let engines: Vec<String> = arg_value(&args, "--engines")
        .unwrap_or_else(|| "A_TRR1,B_TRR1,C_TRR1".into())
        .split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(str::to_string)
        .collect();
    let rows: u32 = arg_or(&args, "--rows", 1_024);
    let samples: u32 = arg_or(&args, "--samples", 6);
    let windows: u32 = arg_or(&args, "--windows", 1);
    let out_path = arg_value(&args, "--out").map(std::path::PathBuf::from);
    let fleet: u64 = arg_or(&args, "--fleet", 0);
    let fleet_seed: u64 = arg_or(&args, "--fleet-seed", 1);
    let bench_path = arg_value(&args, "--bench-out").map(std::path::PathBuf::from);
    let mut bench = BenchPhases::new(run.pool.threads);

    let config = FuzzConfig {
        seed,
        rounds,
        candidates,
        elites,
        engines,
        eval: run.eval_config(rows, samples, windows),
    };

    println!(
        "# TRR-bypass fuzz — seed {seed}, {rounds} rounds x {candidates} candidates, \
         {} elites, engines [{}]",
        config.elites,
        config.engines.join(","),
    );
    println!(
        "# eval: {rows} rows/bank, {samples} positions, {windows} windows, faults {}",
        run.fault_profile
    );

    let start = std::time::Instant::now();
    let outcome = bench.time("fuzz_sweep", || {
        run_fuzz(&config, &run.pool).unwrap_or_else(|e| {
            eprintln!("error: {e}");
            std::process::exit(2);
        })
    });
    let elapsed = start.elapsed();
    let evaluated = outcome.candidates.len();
    eprintln!("fuzzed {evaluated} candidates in {:.2}s", elapsed.as_secs_f64());
    bench.scalar("fuzz_candidates_per_sec", evaluated as f64 / elapsed.as_secs_f64().max(1e-9));

    println!();
    println!("leaderboard ({} candidates evaluated):", evaluated);
    for (e, engine) in outcome.engines.iter().enumerate() {
        match outcome.leaders.get(e) {
            Some(leader) if leader.scores[e].flips > 0 => {
                let s = leader.scores[e];
                println!(
                    "bypass: engine {engine} ({}) — {} flips, {}/{} positions \
                     [round {} candidate {}] {}",
                    outcome.specs[e],
                    s.flips,
                    s.vulnerable,
                    config.eval.sample_count,
                    leader.round,
                    leader.index,
                    leader.params.describe(),
                );
            }
            _ => println!("engine {engine} ({}): no bypass found", outcome.specs[e]),
        }
    }

    if fleet > 0 {
        println!();
        println!("fleet generalisation — {fleet} synthetic modules, fleet seed {fleet_seed}:");
        bench.time("fuzz_fleet_score", || {
            for (e, engine) in outcome.engines.iter().enumerate() {
                let Some(leader) = outcome.leaders.get(e).filter(|l| l.scores[e].flips > 0) else {
                    println!("  engine {engine}: no leader to score");
                    continue;
                };
                let params = leader.params;
                let eval = config.eval.clone();
                let indices: Vec<u64> = (0..fleet).collect();
                let flips: Vec<u64> = par::par_map(&run.pool, &indices, |&i| {
                    let synth = synth_spec(fleet_seed, i, rows.max(2_048));
                    let sweep = sweep_bank(&synth.spec, &FuzzPattern { params }, &eval);
                    sweep.results.iter().map(|r| u64::from(r.flips)).sum()
                });
                let bypassed = flips.iter().filter(|&&f| f > 0).count();
                let total: u64 = flips.iter().sum();
                println!(
                    "  engine {engine}: leader bypasses {bypassed}/{fleet} modules \
                     ({total} flips total)"
                );
            }
        });
    }

    if let Some(path) = &out_path {
        let artifact = render_fuzz_jsonl(&config, &outcome);
        exit_on_write_error(path, std::fs::write(path, &artifact));
        eprintln!("fuzz artifact: {}", path.display());
    }
    if let Some(path) = &bench_path {
        exit_on_write_error(path, bench.write(path));
        eprintln!("bench artifact: {}", path.display());
    }
    run.finish();
}
