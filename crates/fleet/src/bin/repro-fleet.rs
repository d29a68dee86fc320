//! Fleet-scale sweep driver: characterises a population of synthetic
//! modules with the full U-TRR pipeline, sharded and resumable.
//!
//! Usage:
//!   repro-fleet [--modules N] [--shards K] [--seed S] [--rows N]
//!               [--hc-samples N] [--samples N] [--threads N]
//!               [--out DIR] [--resume] [--stop-after-shards N]
//!               [--faults none|mild|hostile] [--fault-seed N]
//!               [--metrics-out PATH] [--bench-out PATH]
//!   repro-fleet summarise FILE.jsonl
//!
//! The sweep writes `DIR/shards/shard-NNNNN.jsonl` incrementally, a
//! checkpoint line to `DIR/manifest.jsonl` after every shard, and the
//! merged `DIR/fleet.jsonl` (schema `utrr-fleet/1`) once all shards
//! exist. A killed run continues with `--resume` against the same
//! `--out` directory; the merged output is byte-identical to an
//! uninterrupted run for any thread count. `--stop-after-shards N` is
//! the deterministic kill switch the resume tests and CI use.
//!
//! Below `--faults hostile` every module must reverse-engineer: a module
//! that fails all its seeds is still written (as an `inconclusive` record
//! with a `re-failed:<cause>` reason), and the sweep then exits 1.
//!
//! `summarise` aggregates a merged stream into the Table-1-style fleet
//! report (population shares, `HC_first` quantiles, recovery totals).

use utrr_bench::{arg_flag, arg_or, arg_value, exit_on_write_error, BenchPhases, Run};
use utrr_fleet::record::SweepParams;
use utrr_fleet::{FleetConfig, FleetSummary, RunOptions};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("summarise") {
        summarise(&args);
        return;
    }
    let run = Run::untraced(
        &args,
        &[
            "--modules",
            "--shards",
            "--seed",
            "--rows",
            "--hc-samples",
            "--samples",
            "--out",
            "--resume",
            "--stop-after-shards",
            "--bench-out",
        ],
    );

    let modules: u64 = arg_or(&args, "--modules", 64);
    let shards: u32 = arg_or(&args, "--shards", 8);
    let seed: u64 = arg_or(&args, "--seed", 1);
    let rows: u32 = arg_or(&args, "--rows", 2_048);
    // The reverse-engineering suite needs room for its pair groups on
    // every anchor; below 2048 scaled rows the Row Scout can run dry.
    let rows = if rows < 2_048 {
        eprintln!("note: --rows {rows} is too small for the fleet pipeline; using 2048");
        2_048
    } else {
        rows
    };
    let hc_samples: u32 = arg_or(&args, "--hc-samples", 6);
    let attack_samples: u32 = arg_or(&args, "--samples", 6);
    let out_dir = arg_value(&args, "--out").unwrap_or_else(|| "fleet-out".into());
    let resume = arg_flag(&args, "--resume");
    let stop_after_shards =
        arg_value(&args, "--stop-after-shards").map(|_| arg_or(&args, "--stop-after-shards", 0));
    let bench_path = arg_value(&args, "--bench-out").map(std::path::PathBuf::from);
    let mut bench = BenchPhases::new(run.pool.threads);

    let config = FleetConfig {
        modules,
        shards,
        params: SweepParams {
            fleet_seed: seed,
            base_rows: rows,
            hc_samples,
            attack_samples,
            fault_profile: run.fault_profile,
            fault_seed: run.fault_seed,
        },
    };
    let opts = RunOptions {
        out_dir: out_dir.clone().into(),
        resume,
        stop_after_shards,
        pool: run.pool.clone(),
        registry: Some(std::sync::Arc::clone(&run.registry)),
        progress: true,
    };

    println!(
        "# fleet sweep — {modules} modules, {} shards, seed {seed}, {rows} rows/bank, \
         {} threads",
        config.effective_shards(),
        run.pool.threads
    );
    run.fault_banner();

    let start = std::time::Instant::now();
    let outcome = bench.time("fleet_sweep", || run_fleet_or_exit(&config, &opts));
    let elapsed = start.elapsed();

    let mut re_failed = 0;
    let swept: u64 = outcome.shards.iter().filter(|s| !s.skipped).map(|s| s.end - s.start).sum();
    if outcome.skipped_shards > 0 {
        println!("resume: skipped {} completed shards", outcome.skipped_shards);
    }
    println!(
        "swept {swept} modules across {} shards in {:.2}s",
        outcome.completed_shards,
        elapsed.as_secs_f64()
    );
    if swept > 0 {
        bench.scalar("fleet_modules_per_sec", swept as f64 / elapsed.as_secs_f64().max(1e-9));
    }

    if outcome.stopped_early {
        println!(
            "stopped early after {} shards; rerun with --resume to finish",
            outcome.completed_shards
        );
    } else if let (Some(path), Some(hash)) = (&outcome.merged_path, &outcome.merged_hash) {
        println!("merged: {} ({} records, hash {hash})", path.display(), outcome.records);
        match std::fs::read_to_string(path)
            .map_err(|e| e.to_string())
            .and_then(|text| FleetSummary::from_jsonl(&text).map(|(summary, _)| summary))
        {
            Ok(summary) => {
                println!();
                print!("{}", summary.render());
                re_failed = summary.re_failed;
            }
            Err(e) => eprintln!("warning: could not summarise merged stream: {e}"),
        }
    }

    if let Some(path) = &bench_path {
        exit_on_write_error(path, bench.write(path));
        eprintln!("bench artifact: {}", path.display());
    }
    run.finish();
    if re_failed > 0 {
        eprintln!(
            "error: reverse engineering failed on {re_failed} modules below hostile severity \
             (tier_reasons re-failed:<cause> in the merged stream)"
        );
        std::process::exit(1);
    }
}

fn run_fleet_or_exit(config: &FleetConfig, opts: &RunOptions) -> utrr_fleet::RunOutcome {
    utrr_fleet::executor::run_fleet(config, opts).unwrap_or_else(|e| {
        eprintln!("error: fleet sweep failed: {e}");
        std::process::exit(1);
    })
}

fn summarise(args: &[String]) {
    let Some(path) = args.get(1) else {
        eprintln!("usage: repro-fleet summarise FILE.jsonl");
        std::process::exit(2);
    };
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("error: reading {path}: {e}");
        std::process::exit(1);
    });
    match FleetSummary::from_jsonl(&text) {
        Ok((summary, skipped)) => {
            print!("{}", summary.render());
            // One meta line is expected; anything beyond that is
            // malformed records worth knowing about.
            if skipped > 1 {
                eprintln!("note: skipped {} unparsable lines", skipped - 1);
            }
        }
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }
}
