//! Perf-trajectory regression gate.
//!
//! Compares a fresh `utrr-bench/1` artifact (from `repro-table1
//! --bench-out`) against the committed `BENCH_sweep.json` baseline and
//! fails when any per-phase wall-clock or the `device_ns_per_act`
//! micro-benchmark regressed past the threshold. Optionally appends the
//! current record to `BENCH_history.jsonl` so the perf trajectory of
//! the repo stays on file.
//!
//! Usage:
//!   bench-regress --current PATH[,PATH...] [--baseline PATH]
//!                 [--threshold PCT] [--history PATH] [--update-baseline]
//!
//! `--current` accepts a comma-separated list of artifacts (e.g. the
//! `repro-table1` and `repro-fleet` runs of one CI job); their phases
//! and scalars are unioned into one record before the comparison, and
//! the baseline/history writes store the merged artifact. A phase or
//! scalar name appearing in two artifacts is a hard error — a silent
//! last-wins would hide a real measurement.
//!
//! The threshold (percent, default 15) can also come from the
//! `UTRR_BENCH_THRESHOLD` environment variable; the explicit flag wins.
//! Phases or scalars present on only one side are reported as warnings
//! in both directions — a renamed or dropped measurement never slips
//! through silently. `--update-baseline` accepts the current run as the
//! new baseline: it rewrites the baseline file with the current artifact
//! and appends the record to the history (default `BENCH_history.jsonl`)
//! in one step, and never fails on regressions (the comparison is still
//! printed for the record).
//! Exits 1 on regression, 2 on malformed input, 0 otherwise.

use obs::jsonl::{parse_json, JsonValue};
use utrr_bench::{arg_flag, arg_or, arg_value};

struct BenchRecord {
    threads: usize,
    phases: Vec<(String, f64)>,
    scalars: Vec<(String, f64)>,
}

fn load(path: &str) -> BenchRecord {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("error: cannot read {path}: {e}");
        std::process::exit(2);
    });
    let value = parse_json(text.trim()).unwrap_or_else(|e| {
        eprintln!("error: {path} is not valid JSON: {e}");
        std::process::exit(2);
    });
    if value.get("schema").and_then(JsonValue::as_str) != Some("utrr-bench/1") {
        eprintln!("error: {path} is not a utrr-bench/1 artifact");
        std::process::exit(2);
    }
    let phases = value
        .get("phases")
        .and_then(JsonValue::as_array)
        .map(|entries| {
            entries
                .iter()
                .filter_map(|p| {
                    Some((p.get("name")?.as_str()?.to_string(), p.get("wall_ms")?.as_f64()?))
                })
                .collect()
        })
        .unwrap_or_default();
    let scalars = match value.get("scalars") {
        Some(JsonValue::Obj(map)) => {
            map.iter().filter_map(|(k, v)| Some((k.clone(), v.as_f64()?))).collect()
        }
        _ => Vec::new(),
    };
    let threads = value.get("threads").and_then(JsonValue::as_u64).unwrap_or(0) as usize;
    BenchRecord { threads, phases, scalars }
}

/// Loads one or more comma-separated current artifacts, unioning their
/// phases and scalars. Returns the merged record plus the artifact text
/// the baseline/history writes should store (the raw file for a single
/// artifact, a re-rendered merged one otherwise).
fn load_current(spec: &str) -> (BenchRecord, String) {
    let paths: Vec<&str> = spec.split(',').filter(|p| !p.is_empty()).collect();
    if paths.is_empty() {
        eprintln!("error: --current lists no artifacts");
        std::process::exit(2);
    }
    if let [path] = paths[..] {
        let text = std::fs::read_to_string(path).expect("just loaded");
        return (load(path), format!("{}\n", text.trim()));
    }
    let mut merged = BenchRecord { threads: 0, phases: Vec::new(), scalars: Vec::new() };
    for path in paths {
        let part = load(path);
        if merged.threads == 0 {
            merged.threads = part.threads;
        }
        for (name, ms) in part.phases {
            if merged.phases.iter().any(|(n, _)| *n == name) {
                eprintln!("error: phase {name} appears in more than one --current artifact");
                std::process::exit(2);
            }
            merged.phases.push((name, ms));
        }
        for (name, value) in part.scalars {
            if merged.scalars.iter().any(|(n, _)| *n == name) {
                eprintln!("error: scalar {name} appears in more than one --current artifact");
                std::process::exit(2);
            }
            merged.scalars.push((name, value));
        }
    }
    // Re-render through the artifact writer so the stored merged record
    // is schema-identical to a directly produced one.
    let mut artifact = utrr_bench::BenchPhases::new(merged.threads);
    for (name, ms) in &merged.phases {
        artifact.record(name, std::time::Duration::from_secs_f64(ms / 1e3));
    }
    for (name, value) in &merged.scalars {
        artifact.scalar(name, *value);
    }
    (merged, artifact.to_json())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(current_path) = arg_value(&args, "--current") else {
        eprintln!("usage: bench-regress --current PATH[,PATH...] [--baseline PATH] [--threshold PCT] [--history PATH] [--update-baseline]");
        std::process::exit(2);
    };
    let update_baseline = arg_flag(&args, "--update-baseline");
    let baseline_path =
        arg_value(&args, "--baseline").unwrap_or_else(|| "BENCH_sweep.json".to_string());
    let env_threshold =
        std::env::var("UTRR_BENCH_THRESHOLD").ok().and_then(|v| v.parse().ok()).unwrap_or(15.0);
    let threshold: f64 = arg_or(&args, "--threshold", env_threshold);

    let baseline = load(&baseline_path);
    let (current, current_artifact) = load_current(&current_path);

    println!("# bench-regress — current {current_path} vs baseline {baseline_path} (threshold {threshold}%)");
    let mut regressions = 0u32;
    let mut compared = 0u32;
    let mut compare = |name: &str, base: f64, cur: f64, unit: &str| {
        compared += 1;
        let delta_pct = if base > 0.0 { 100.0 * (cur - base) / base } else { 0.0 };
        // Rate metrics (`*_per_sec`) regress when they *drop*; everything
        // else (wall-clock, ns-per-op) regresses when it grows.
        let worse_pct = if name.ends_with("_per_sec") { -delta_pct } else { delta_pct };
        let verdict = if worse_pct > threshold {
            regressions += 1;
            "REGRESSED"
        } else if worse_pct < -threshold {
            "improved"
        } else {
            "ok"
        };
        println!(
            "  {name:<24} {base:>12.3} -> {cur:>12.3} {unit:<5} {delta_pct:>+7.1}%  {verdict}"
        );
    };
    let mut warnings = 0u32;
    for (name, base) in &baseline.phases {
        match current.phases.iter().find(|(n, _)| n == name) {
            Some((_, cur)) => compare(name, *base, *cur, "ms"),
            None => {
                warnings += 1;
                eprintln!(
                    "warning: phase {name} is in the baseline but missing from the current run"
                );
            }
        }
    }
    for (name, _) in &current.phases {
        if !baseline.phases.iter().any(|(n, _)| n == name) {
            warnings += 1;
            eprintln!("warning: phase {name} is in the current run but missing from the baseline");
        }
    }
    for (name, base) in &baseline.scalars {
        match current.scalars.iter().find(|(n, _)| n == name) {
            Some((_, cur)) => {
                let unit = if name.ends_with("_per_sec") { "/s" } else { "ns" };
                compare(name, *base, *cur, unit);
            }
            None => {
                warnings += 1;
                eprintln!(
                    "warning: scalar {name} is in the baseline but missing from the current run"
                );
            }
        }
    }
    for (name, _) in &current.scalars {
        if !baseline.scalars.iter().any(|(n, _)| n == name) {
            warnings += 1;
            eprintln!("warning: scalar {name} is in the current run but missing from the baseline");
        }
    }
    if compared == 0 && !update_baseline {
        eprintln!("error: nothing to compare — baseline and current share no phases or scalars");
        std::process::exit(2);
    }
    if warnings > 0 {
        println!("# {warnings} coverage warning(s) — see stderr");
    }

    let history_path = arg_value(&args, "--history")
        .or_else(|| update_baseline.then(|| "BENCH_history.jsonl".to_string()));
    if let Some(history_path) = history_path {
        let mut record = String::from(current_artifact.trim());
        record.push('\n');
        use std::io::Write as _;
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&history_path)
            .unwrap_or_else(|e| {
                eprintln!("error: cannot open {history_path}: {e}");
                std::process::exit(2);
            });
        file.write_all(record.as_bytes()).expect("history record appends");
        println!("# appended record to {history_path}");
    }

    if update_baseline {
        std::fs::write(&baseline_path, &current_artifact).unwrap_or_else(|e| {
            eprintln!("error: cannot rewrite baseline {baseline_path}: {e}");
            std::process::exit(2);
        });
        println!("# baseline {baseline_path} updated from {current_path}");
        if regressions > 0 {
            println!("# {regressions} regression(s) past {threshold}% accepted into the baseline");
        }
        return;
    }

    if regressions > 0 {
        println!("# {regressions} regression(s) past {threshold}% — failing");
        std::process::exit(1);
    }
    println!("# no regressions past {threshold}%");
}
