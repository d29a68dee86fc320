//! The shared CLI contract of the six `utrr-bench` repro binaries (see
//! `contract/mod.rs`): malformed shared flags and flags the binary does
//! not read exit 2 before any output, and an unwritable `--metrics-out`
//! exits 1 after all of it.

mod contract;

use contract::{assert_shared_flags_rejected, assert_unwritable_metrics_exit_1};

const QUICK: &[&str] = &["--rows", "2048", "--samples", "2", "--windows", "1", "--modules", "A5"];
/// `repro-fig8` sweeps its three fixed modules and takes no `--modules`.
const QUICK_FIG8: &[&str] = &["--rows", "2048", "--samples", "2", "--windows", "1"];
const QUICK_NO_MODULES: &[&str] = &["--rows", "2048", "--samples", "2"];

fn assert_contract(exe: &str, recipe: &[&str]) {
    assert_shared_flags_rejected(exe, true);
    assert_unwritable_metrics_exit_1(exe, recipe);
}

#[test]
fn repro_table1_keeps_the_cli_contract() {
    assert_contract(env!("CARGO_BIN_EXE_repro-table1"), QUICK);
}

#[test]
fn repro_fig8_keeps_the_cli_contract() {
    assert_contract(env!("CARGO_BIN_EXE_repro-fig8"), QUICK_FIG8);
}

#[test]
fn repro_fig9_keeps_the_cli_contract() {
    assert_contract(env!("CARGO_BIN_EXE_repro-fig9"), QUICK);
}

#[test]
fn repro_fig10_keeps_the_cli_contract() {
    assert_contract(env!("CARGO_BIN_EXE_repro-fig10"), QUICK);
}

#[test]
fn ablations_keeps_the_cli_contract() {
    assert_contract(env!("CARGO_BIN_EXE_ablations"), QUICK_NO_MODULES);
}

#[test]
fn secure_mitigations_keeps_the_cli_contract() {
    assert_contract(env!("CARGO_BIN_EXE_secure-mitigations"), QUICK_NO_MODULES);
}
