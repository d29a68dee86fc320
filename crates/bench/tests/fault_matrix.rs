//! The fault matrix: the reverse-engineering pipeline must stay
//! *correct* under the `mild` fault profile (recovering every module's
//! ground-truth TRR parameters through retries, voting, and
//! quarantine), and the `none` profile must be a strict no-op — the
//! same commands, the same results, bit for bit, as a build without
//! the fault layer.

use std::sync::Arc;

use faults::FaultProfile;
use obs::MetricsRegistry;
use utrr_bench::{hc_first, reverse_engineer, RunConfig};
use utrr_modules::by_id;

/// One module per vendor: counter-based (A), sampling-based (B), and
/// the mixed window design (C).
const VENDOR_SAMPLE: [&str; 3] = ["A5", "B0", "C9"];
const ROWS: u32 = 2_048;
const SEED: u64 = 7;

/// The run under `fault_profile` with fault seed `fault_seed`.
fn faulty(
    fault_profile: FaultProfile,
    fault_seed: u64,
    registry: &Arc<MetricsRegistry>,
) -> RunConfig {
    RunConfig {
        fault_profile,
        fault_seed,
        registry: Some(Arc::clone(registry)),
        ..RunConfig::new(ROWS, SEED)
    }
}

#[test]
fn mild_faults_do_not_break_reverse_engineering() {
    let registry = MetricsRegistry::shared();
    for id in VENDOR_SAMPLE {
        let spec = by_id(id).expect("catalog module");
        let outcome = reverse_engineer(&spec, &faulty(FaultProfile::Mild, 1, &registry))
            .expect("mild faults keep the suite running");
        assert!(
            outcome.matches.all(),
            "{id}: mild faults broke the inference: {:?} (profile {:?})",
            outcome.matches,
            outcome.profile,
        );
    }
    // The run must actually have been faulty — a pass with zero injected
    // faults would only prove the plan never fired.
    let injected = registry.counter(faults::CTR_INJECTED_TOTAL).get();
    assert!(injected > 0, "mild profile injected no faults at all");
    // And the pipeline must have visibly *recovered*, not just been
    // lucky: at least one retry, disagreement, or quarantine.
    let recoveries = registry.counter(utrr_core::robust::CTR_READ_DISAGREEMENTS).get()
        + registry.counter(utrr_core::robust::CTR_WRITE_RETRIES).get()
        + registry.counter(utrr_core::rowscout::CTR_SCOUT_RETRIES).get()
        + registry.counter(utrr_core::rowscout::CTR_SCOUT_QUARANTINED).get()
        + registry.counter(utrr_core::schedule::CTR_SCHEDULE_RETRIES).get();
    assert!(
        recoveries > 0,
        "{injected} faults injected but no retry/disagreement/quarantine recorded"
    );
}

#[test]
fn none_profile_is_a_strict_noop() {
    let spec = by_id("A5").expect("catalog module");

    let clean_registry = MetricsRegistry::shared();
    let clean = reverse_engineer(&spec, &faulty(FaultProfile::None, 0, &clean_registry))
        .expect("the fault-free suite completes");

    // Any fault seed: under `None` the plan is never installed, so the
    // seed must be irrelevant and the command stream identical.
    let noop_registry = MetricsRegistry::shared();
    let noop = reverse_engineer(&spec, &faulty(FaultProfile::None, 0xDEAD_BEEF, &noop_registry))
        .expect("the fault-free suite completes");

    assert_eq!(noop.profile, clean.profile);
    assert_eq!(noop.refresh_period, clean.refresh_period);
    assert_eq!(noop.matches, clean.matches);
    // Same command traffic, not merely the same conclusion.
    for name in [dram_sim::metrics::CTR_ACT, dram_sim::metrics::CTR_ROW_READS] {
        assert_eq!(
            noop_registry.counter(name).get(),
            clean_registry.counter(name).get(),
            "command counter {name} diverged under the none profile"
        );
    }
    assert_eq!(noop_registry.counter(faults::CTR_INJECTED_TOTAL).get(), 0);
}

#[test]
fn hc_first_measurement_survives_mild_faults() {
    let spec = by_id("A5").expect("catalog module");
    let measure = |profile| {
        let config = RunConfig { seed: 11, ..faulty(profile, 1, &MetricsRegistry::shared()) };
        hc_first(&spec, &config, 16).expect("characterization runs on an in-range bank")
    };
    let (clean, faulty) = (measure(FaultProfile::None), measure(FaultProfile::Mild));
    // The binary-search characterization self-heals through voted
    // reads; the mild substrate may nudge individual probes but the
    // estimate must stay within the sampling tolerance of Table 1.
    let lo = clean as f64 * 0.5;
    let hi = clean as f64 * 2.0;
    assert!(
        (faulty as f64) >= lo && (faulty as f64) <= hi,
        "HC_first under mild faults drifted out of tolerance: clean {clean}, faulty {faulty}"
    );
}
