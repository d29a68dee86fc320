//! Fingerprints of the reverse-engineering pipeline under each fault
//! profile: every registry counter (the `dram.*` command counters, the
//! `faults.*` tallies and every `utrr.*` recovery counter) hashed
//! together with the outcome's profile, refresh period, verdict tier
//! and recovery ladder.
//!
//! The digests pin the exact command stream each recovery policy
//! issues. Under `none` this is the fault-free stream; under `mild` and
//! `hostile` it is the voted, retried and escalated stream. A refactor
//! of the fault-tolerance layer that changes one command, one retry or
//! one ladder decision changes a digest.

use std::fmt::Write;
use std::sync::Arc;

use faults::FaultProfile;
use obs::MetricsRegistry;
use utrr_bench::{reverse_engineer, RunConfig};
use utrr_modules::by_id;

/// FNV-1a 64-bit hash.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &b| {
        (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Runs the suite on `id` under `profile` (fault seed 1, experiment
/// seed 7) on a fresh registry and returns its fingerprint.
fn fingerprint(id: &str, profile: FaultProfile, rows: u32) -> u64 {
    let registry = MetricsRegistry::shared();
    let config = RunConfig {
        fault_profile: profile,
        fault_seed: 1,
        registry: Some(Arc::clone(&registry)),
        ..RunConfig::new(rows, 7)
    };
    let spec = by_id(id).expect("catalog module");
    let mut text = match reverse_engineer(&spec, &config) {
        Ok(o) => format!("{:?}|{}|{:?}|{:?}\n", o.profile, o.refresh_period, o.tier, o.ladder),
        Err(e) => format!("error: {e}\n"),
    };
    // Zero counters are skipped: registering a counter without counting
    // anything is not a change of behaviour.
    for (name, value) in registry.counters_snapshot() {
        if value > 0 {
            writeln!(text, "{name}={value}").expect("writing to a String");
        }
    }
    fnv1a(text.as_bytes())
}

/// Checks the fingerprint of every `(module, digest)` pair under
/// `profile`.
fn check(profile: FaultProfile, rows: u32, expected: &[(&str, u64)]) {
    for &(id, want) in expected {
        let got = fingerprint(id, profile, rows);
        assert_eq!(got, want, "{profile} {id} at {rows} rows: got {got:#018x}");
    }
}

#[test]
fn none_profile_fingerprints() {
    check(
        FaultProfile::None,
        2_048,
        &[
            ("A5", 0x6d35_5c5c_c93d_f34b),
            ("B0", 0x488f_99ef_0848_7d4e),
            ("C9", 0xb60e_994c_e43f_aca5),
        ],
    );
}

#[test]
fn mild_profile_fingerprints() {
    check(
        FaultProfile::Mild,
        2_048,
        &[
            ("A5", 0x17c4_9383_ad1a_b904),
            ("B0", 0x3bf5_84e3_139f_1b8e),
            ("C9", 0xc20e_92b9_7a2e_81d5),
        ],
    );
}

#[test]
fn hostile_profile_fingerprints() {
    // 2048 rows runs the whole suite with retention re-profiling; 1024
    // rows starves the scout, which relocates and then fails.
    check(FaultProfile::Hostile, 2_048, &[("A5", 0x37f5_d397_b252_6229)]);
    check(FaultProfile::Hostile, 1_024, &[("A5", 0x10e6_80ce_0860_08d8)]);
}
