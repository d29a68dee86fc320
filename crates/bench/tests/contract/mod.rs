//! The CLI contract every repro binary shares through `utrr_bench::Run`,
//! as assertions over a built binary. Included by
//! `crates/bench/tests/cli_args.rs` (the six `utrr-bench` binaries) and
//! `crates/fleet/tests/cli_args.rs` (`repro-fleet`, `repro-fuzz`).

use std::path::PathBuf;
use std::process::{Command, Output};

fn run(exe: &str, args: &[&str]) -> Output {
    Command::new(exe).args(args).output().unwrap_or_else(|e| panic!("cannot spawn {exe}: {e}"))
}

/// `exe flag value` exits 2, names the flag and the value on stderr and
/// prints nothing to stdout: no work starts before the error. Returns
/// the stderr.
pub fn assert_rejected(exe: &str, flag: &str, value: &str) -> String {
    let out = run(exe, &[flag, value]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{exe} {flag} {value} must exit 2: {stderr}");
    assert!(
        stderr.contains(&format!("error: {flag}: ")) && stderr.contains(value),
        "{exe}: stderr must name {flag} and '{value}', got: {stderr}"
    );
    assert!(out.stdout.is_empty(), "{exe} {flag} {value}: no work may start before the error");
    stderr.into_owned()
}

/// A malformed value of each shared flag is rejected; `traced` binaries
/// also reject a malformed `--trace-rows`. A flag the binary does not
/// read, here the misspelt `--module A5`, is rejected too.
pub fn assert_shared_flags_rejected(exe: &str, traced: bool) {
    assert_rejected(exe, "--threads", "2x");
    assert_rejected(exe, "--fault-seed", "0x1");
    assert_rejected(exe, "--faults", "bogus");
    if traced {
        assert_rejected(exe, "--trace-rows", "7-x");
    }
    assert_unknown_flag_rejected(exe, "--module");
}

/// `exe flag A5` exits 2 with `error: unknown flag '<flag>'` and prints
/// nothing to stdout: an unread flag never runs the defaults.
pub fn assert_unknown_flag_rejected(exe: &str, flag: &str) {
    let out = run(exe, &[flag, "A5"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{exe} {flag} must exit 2: {stderr}");
    assert!(stderr.contains(&format!("error: unknown flag '{flag}'")), "{exe}: {stderr}");
    assert!(out.stdout.is_empty(), "{exe} {flag}: no work may start before the error");
}

/// `recipe` with `--metrics-out` under a missing directory prints the
/// stdout of the same recipe without the flag, then exits 1 with
/// `error: writing <path>` and no panic. A recipe's `--out` directory
/// (`repro-fleet`'s) is removed before each run, and the fleet's
/// wall-clock line (`swept N modules … in T s`) is left out of the
/// comparison.
pub fn assert_unwritable_metrics_exit_1(exe: &str, recipe: &[&str]) {
    let run = |args: &[&str]| {
        if let Some(i) = recipe.iter().position(|a| *a == "--out") {
            let _ = std::fs::remove_dir_all(recipe[i + 1]);
        }
        run(exe, args)
    };
    let deterministic = |stdout: &[u8]| -> String {
        String::from_utf8_lossy(stdout)
            .lines()
            .filter(|l| !l.starts_with("swept "))
            .map(|l| format!("{l}\n"))
            .collect()
    };
    let clean = run(recipe);
    assert!(clean.status.success(), "{exe} {recipe:?}: {}", String::from_utf8_lossy(&clean.stderr));
    assert!(!clean.stdout.is_empty(), "{exe} printed nothing");

    let name = exe.rsplit(['/', '\\']).next().unwrap_or(exe);
    let missing: PathBuf = std::env::temp_dir()
        .join(format!("utrr-missing-{name}-{}", std::process::id()))
        .join("m.jsonl");
    let path = missing.to_str().expect("temp path is utf-8");
    let out = run(&[recipe, &["--metrics-out", path]].concat());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{exe}: unwritable --metrics-out must exit 1: {stderr}");
    assert!(stderr.contains(&format!("error: writing {path}: ")), "{exe} stderr: {stderr}");
    assert!(!stderr.contains("panicked"), "{exe} must not panic: {stderr}");
    assert_eq!(
        deterministic(&out.stdout),
        deterministic(&clean.stdout),
        "{exe}: the full stdout precedes the error"
    );
}
