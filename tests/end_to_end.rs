//! End-to-end pipeline tests spanning every crate: build a Table-1
//! module, reverse engineer its TRR through the command interface,
//! verify the custom attack defeats it while baselines do not, and push
//! the resulting flip distribution through the ECC models.

use utrr::attacks::baseline::DoubleSided;
use utrr::attacks::custom;
use utrr::attacks::eval::{sweep_bank, EvalConfig};
use utrr::ecc::{analyze, CodeKind};
use utrr::utrr_core::reverse::DetectionKind;
use utrr::utrr_modules::by_id;
use utrr_bench::{reverse_engineer, RunConfig};

fn eval_config() -> EvalConfig {
    EvalConfig { sample_count: 16, ..EvalConfig::quick(16) }
}

#[test]
fn vendor_a_pipeline() {
    let spec = by_id("A5").unwrap();
    let outcome = reverse_engineer(&spec, &RunConfig::new(2_048, 7)).expect("the suite completes");
    assert!(outcome.matches.all(), "{:?}", outcome);
    assert!(matches!(
        outcome.profile.detection,
        DetectionKind::Counter { capacity: 16, counters_reset: true, persistent_entries: true }
    ));
    assert_eq!(outcome.refresh_period, 3_758, "Observation A8");

    let custom_sweep = sweep_bank(&spec, custom::pattern_for(&spec).as_ref(), &eval_config());
    assert!(custom_sweep.vulnerable_pct() > 90.0, "{}", custom_sweep.vulnerable_pct());
    let baseline = sweep_bank(&spec, &DoubleSided::max_rate(), &eval_config());
    assert_eq!(baseline.vulnerable_pct(), 0.0, "footnote 18");
}

#[test]
fn vendor_b_pipeline() {
    let spec = by_id("B0").unwrap();
    let outcome = reverse_engineer(&spec, &RunConfig::new(2_048, 7)).expect("the suite completes");
    assert!(outcome.matches.all(), "{:?}", outcome);
    assert!(matches!(
        outcome.profile.detection,
        DetectionKind::Sampler { shared_across_banks: true }
    ));
    assert_eq!(outcome.profile.trr_ref_ratio, 4, "Observation B1");

    let custom_sweep = sweep_bank(&spec, custom::pattern_for(&spec).as_ref(), &eval_config());
    assert!(custom_sweep.vulnerable_pct() > 90.0, "{}", custom_sweep.vulnerable_pct());
    let baseline = sweep_bank(&spec, &DoubleSided::max_rate(), &eval_config());
    assert_eq!(baseline.vulnerable_pct(), 0.0);
}

#[test]
fn vendor_c_pipeline() {
    let spec = by_id("C9").unwrap();
    let outcome = reverse_engineer(&spec, &RunConfig::new(2_048, 7)).expect("the suite completes");
    assert!(outcome.matches.all(), "{:?}", outcome);
    assert!(matches!(outcome.profile.detection, DetectionKind::Window { .. }));
    assert_eq!(outcome.profile.trr_ref_ratio, 9, "Observation C1 (C_TRR2)");

    let custom_sweep = sweep_bank(&spec, custom::pattern_for(&spec).as_ref(), &eval_config());
    assert!(custom_sweep.vulnerable_pct() > 85.0, "{}", custom_sweep.vulnerable_pct());
    let baseline = sweep_bank(&spec, &DoubleSided::max_rate(), &eval_config());
    assert_eq!(baseline.vulnerable_pct(), 0.0);
}

#[test]
fn flip_distribution_defeats_secded_but_not_rs7() {
    // §7.4 end to end: a flip-dense module's measured dataword histogram
    // breaks SECDED but not a 7-parity Reed-Solomon code.
    let spec = by_id("C9").unwrap();
    let sweep = sweep_bank(&spec, custom::pattern_for(&spec).as_ref(), &eval_config());
    let hist = sweep.dataword_histogram();
    assert!(
        hist.iter().any(|&(k, _)| k >= 3),
        "the custom pattern must produce ≥3-flip datawords: {hist:?}"
    );
    let secded = analyze(CodeKind::Secded, &hist, 1);
    assert!(!secded.fully_protects(), "{secded:?}");
    let rs7 = analyze(CodeKind::ReedSolomon { parity: 7 }, &hist, 2);
    assert!(rs7.fully_protects(), "{rs7:?}");
}

#[test]
fn every_module_falls_to_its_custom_pattern() {
    // The paper's headline §7.3 claim, scaled down: every one of the 45
    // modules shows bit flips under its vendor's custom pattern.
    let config = EvalConfig { sample_count: 8, windows: 2, ..EvalConfig::quick(8) };
    for spec in utrr::utrr_modules::catalog() {
        let sweep = sweep_bank(&spec, custom::pattern_for(&spec).as_ref(), &config);
        // Low-vulnerability parts (the paper's weakest is 1.0%) may
        // legitimately show nothing in an 8-position sample.
        assert!(
            sweep.vulnerable_pct() > 0.0 || spec.paper_vulnerable_pct.1 < 25.0,
            "{} must show bit flips (paper: {:?})",
            spec.id,
            spec.paper_vulnerable_pct
        );
    }
}
