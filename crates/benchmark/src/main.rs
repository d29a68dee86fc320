//! `utrr-benchmark` — the repository benchmark.
//!
//! ```text
//! utrr-benchmark --workload table1|fleet|fuzz|fleet_hostile
//!                [--seed S] [--seconds N] [--trace 0|1] [--out SPANS.jsonl]
//! ```
//!
//! With `--trace 0` it spawns the shipped release binaries one at a
//! time for `--seconds` and reports the end-to-end metrics (see
//! `run.rs`). With `--trace 1` it also replays the same work in-process
//! with a span around every layer call and reports the per-layer
//! metrics (see `trace.rs`). Either way the last stdout line is one
//! JSON object: `{"correct", "attempted", "failed", "metrics"}`.
//!
//! Before measuring it builds `repro-table1`, `repro-fleet` and
//! `repro-fuzz` into its own target directory, so a checkout needs
//! nothing but `cargo run --release -p utrr-benchmark -- …`.

#[cfg(not(target_os = "linux"))]
compile_error!("utrr-benchmark reads child CPU time and peak RSS through Linux wait4(2)");

mod child;
mod run;
mod stats;
mod trace;
mod workload;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use workload::Workload;

/// Checked command-line arguments.
#[derive(Debug, Clone, PartialEq)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<PathBuf>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace, mut out) = (None, 1, 30.0, false, None);
    for pair in args.chunks(2) {
        let [key, value] = pair else {
            return Err(format!("{} needs a value", pair[0]));
        };
        match key.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(value).ok_or(format!("unknown workload {value}"))?);
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad --seed {value}"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0 && s.is_finite())
                    .ok_or(format!("bad --seconds {value}"))?;
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            "--out" => out = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown argument {key}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args { workload, seed, seconds, trace, out })
}

/// Where the measured binaries live and where children work.
pub struct Context {
    bin_dir: PathBuf,
    work_root: PathBuf,
}

impl Context {
    /// Builds the three repro binaries next to this executable (same
    /// target directory, same release profile).
    fn prepare() -> std::io::Result<Context> {
        let exe = std::env::current_exe()?;
        let bin_dir = exe.parent().expect("an executable has a directory").to_path_buf();
        let target_dir = bin_dir.parent().unwrap_or(&bin_dir).to_path_buf();
        let workspace = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../Cargo.toml");
        let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
        let status = Command::new(cargo)
            .args(["build", "--release", "--quiet", "--manifest-path"])
            .arg(&workspace)
            .arg("--target-dir")
            .arg(&target_dir)
            .args(["-p", "utrr-bench", "-p", "utrr-fleet"])
            .args(["--bin", "repro-table1", "--bin", "repro-fleet", "--bin", "repro-fuzz"])
            .status()?;
        if !status.success() {
            return Err(std::io::Error::other(format!("cargo build failed: {status}")));
        }
        Ok(Context { bin_dir, work_root: target_dir.join("utrr-benchmark") })
    }

    /// Path of a built repro binary.
    pub fn binary(&self, name: &str) -> PathBuf {
        self.bin_dir.join(name)
    }

    /// A workload's working directory (created on demand).
    ///
    /// # Errors
    ///
    /// Propagates directory-creation failures.
    pub fn work_dir(&self, workload: Workload) -> std::io::Result<PathBuf> {
        let dir = self.work_root.join(workload.name());
        std::fs::create_dir_all(&dir)?;
        Ok(dir)
    }
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&raw) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: utrr-benchmark --workload table1|fleet|fuzz|fleet_hostile [--seed S] \
                 [--seconds N] [--trace 0|1] [--out SPANS.jsonl]"
            );
            return ExitCode::from(2);
        }
    };
    let ctx = match Context::prepare() {
        Ok(ctx) => ctx,
        Err(e) => {
            eprintln!("error: building the repro binaries: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "# utrr-benchmark {} — seed {}, {} s, trace {}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let result = if args.trace {
        trace::trace(&ctx, args.workload, args.seed, args.seconds, args.out.as_deref())
    } else {
        run::run(&ctx, args.workload, args.seed, args.seconds)
    };
    match result {
        Ok((tally, metrics)) => {
            stats::print_report(tally, &metrics);
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Result<Args, String> {
        parse_args(&line.split_whitespace().map(String::from).collect::<Vec<_>>())
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let parsed = args("--workload fleet_hostile --seed 7 --seconds 10 --trace 1").unwrap();
        assert_eq!(parsed.workload, Workload::FleetHostile);
        assert_eq!((parsed.seed, parsed.seconds, parsed.trace), (7, 10.0, true));
        assert_eq!(args("--workload fuzz").unwrap().seed, 1);
    }

    #[test]
    fn rejects_malformed_arguments() {
        for bad in [
            "",
            "--workload nope",
            "--workload fuzz --trace 2",
            "--workload fuzz --seed",
            "--workload fuzz --seconds 0",
            "--workload fuzz --bogus 1",
        ] {
            assert!(args(bad).is_err(), "{bad}");
        }
    }
}
