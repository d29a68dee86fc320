//! The fleet binaries keep the repro binaries' shared CLI contract
//! (`crates/bench/tests/contract/mod.rs`): malformed numeric flags are
//! errors, not silent defaults, and exit 2 naming the flag and the bad
//! value before doing any work; an unwritable `--metrics-out` exits 1
//! after all output. A flag a binary does not read, or a stray argument,
//! exits 2 as well; `repro-fleet` takes no trace flags, so `--trace-out`
//! is one.

#[path = "../../bench/tests/contract/mod.rs"]
mod contract;

use contract::{
    assert_rejected, assert_shared_flags_rejected, assert_stray_argument_rejected,
    assert_unknown_flag_rejected, assert_unwritable_metrics_exit_1,
};

#[test]
fn repro_fleet_rejects_a_malformed_module_count() {
    let stderr = assert_rejected(env!("CARGO_BIN_EXE_repro-fleet"), "--modules", "3x");
    assert!(stderr.contains("error: --modules: invalid value '3x'"), "{stderr}");
}

#[test]
fn repro_fuzz_rejects_a_malformed_seed() {
    let stderr = assert_rejected(env!("CARGO_BIN_EXE_repro-fuzz"), "--seed", "0x1");
    assert!(stderr.contains("error: --seed: invalid value '0x1'"), "{stderr}");
}

#[test]
fn repro_fleet_keeps_the_cli_contract() {
    let exe = env!("CARGO_BIN_EXE_repro-fleet");
    assert_shared_flags_rejected(exe, false);
    assert_unknown_flag_rejected(exe, "--trace-out");
    let out = std::env::temp_dir().join(format!("utrr-fleet-cli-{}", std::process::id()));
    let out_arg = out.to_str().expect("temp path is utf-8");
    let recipe = ["--modules", "1", "--shards", "1", "--samples", "1", "--out", out_arg];
    assert_unwritable_metrics_exit_1(exe, &recipe);
    // `--resume` is a switch: it takes no value.
    let resumed = std::process::Command::new(exe).args(recipe).arg("--resume").output().unwrap();
    assert!(resumed.status.success(), "{}", String::from_utf8_lossy(&resumed.stderr));
    assert!(String::from_utf8_lossy(&resumed.stdout).contains("resume: skipped 1 completed shards"));
    let _ = std::fs::remove_dir_all(&out);
}

/// `summarise` takes exactly one file: a trailing flag is not ignored.
#[test]
fn repro_fleet_summarise_rejects_a_stray_argument() {
    let exe = env!("CARGO_BIN_EXE_repro-fleet");
    let file = std::env::temp_dir().join(format!("utrr-summarise-{}.jsonl", std::process::id()));
    std::fs::write(&file, "").unwrap();
    let path = file.to_str().expect("temp path is utf-8");
    assert_stray_argument_rejected(exe, &["summarise", path, "--modules", "3"], "--modules");
    let _ = std::fs::remove_file(&file);
}

#[test]
fn repro_fuzz_keeps_the_cli_contract() {
    let exe = env!("CARGO_BIN_EXE_repro-fuzz");
    assert_shared_flags_rejected(exe, true);
    let recipe = ["--rounds", "1", "--candidates", "2", "--engines", "A_TRR1", "--samples", "2"];
    assert_unwritable_metrics_exit_1(exe, &recipe);
}
