//! Malformed numeric flags are errors, not silent defaults: the fleet
//! binaries exit with status 2 and name the flag and the bad value
//! before doing any work.

use std::process::Command;

fn assert_rejected(exe: &str, flag: &str, value: &str) {
    let out = Command::new(exe).args([flag, value]).output().expect("binary runs");
    assert_eq!(out.status.code(), Some(2), "{flag} {value} must exit 2");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains(&format!("error: {flag}: invalid value '{value}'")),
        "stderr must name the flag and value, got: {stderr}"
    );
    assert!(out.stdout.is_empty(), "no work may start before the error");
}

#[test]
fn repro_fleet_rejects_a_malformed_module_count() {
    assert_rejected(env!("CARGO_BIN_EXE_repro-fleet"), "--modules", "3x");
}

#[test]
fn repro_fuzz_rejects_a_malformed_seed() {
    assert_rejected(env!("CARGO_BIN_EXE_repro-fuzz"), "--seed", "0x1");
}
