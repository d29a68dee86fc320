//! Ground-truth in-DRAM Target Row Refresh (TRR) engines.
//!
//! These are the proprietary mechanisms the U-TRR paper reverse engineers
//! (§6). Each engine implements [`dram_sim::MitigationEngine`] and is
//! installed *inside* a simulated [`dram_sim::Module`]; the U-TRR tooling
//! in `utrr-core` only ever sees the DDR command interface, so the
//! reproduction's headline claim is that the methodology re-discovers the
//! parameters planted here.
//!
//! Three families, matching the paper's three vendors:
//!
//! * [`CounterTrr`] — vendor A (§6.1): a per-bank 16-entry counter table
//!   with Misra-Gries eviction (unmatched activations drain all counters,
//!   zero-count entries fall out — the policy consistent with all of
//!   Observations A3–A7 *and* with the dummy-row eviction attack of
//!   §7.1), and two alternating TRR refresh types on every 9th `REF`:
//!   `TREF_a` detects the entry with the highest count, `TREF_b` walks
//!   the table with a pointer. Both reset the detected entry's counter.
//! * [`SamplerTrr`] — vendor B (§6.2): a single pseudo-random sample
//!   register, shared across banks (B_TRR1/2) or per bank (B_TRR3),
//!   overwritten by each sampled `ACT` and *not* cleared by TRR refreshes.
//! * [`WindowTrr`] — vendor C (§6.3): detects aggressors only among the
//!   first ~2K activations per bank following a TRR-induced refresh, with
//!   earlier activations more likely to be captured, and defers its TRR
//!   slot until a candidate exists.
//!
//! Beyond the three reverse-engineered families, the crate also ships
//! the *secure* ACT-synchronous mitigations the paper's conclusion
//! points towards — [`Para`] (Kim et al., ISCA 2014) and [`Graphene`]
//! (Park et al., MICRO 2020) — so the custom patterns can be shown to
//! fail against designs without evictable/stealable tracker state
//! (`secure-mitigations` binary in `utrr-bench`).
//!
//! # Example
//!
//! ```
//! use dram_sim::{MitigationEngine, Bank, PhysRow, Nanos};
//! use trr::CounterTrr;
//!
//! let mut engine = CounterTrr::a_trr1(1);
//! // Hammer one row far more than everything else…
//! engine.on_activations(Bank::new(0), PhysRow::new(100), 5_000, Nanos::ZERO);
//! // …and the 9th REF detects it.
//! let mut det = Vec::new();
//! for _ in 0..9 {
//!     engine.on_refresh(Nanos::ZERO, &mut det);
//! }
//! assert_eq!(det[0].aggressor, PhysRow::new(100));
//! ```

pub mod counter;
pub mod graphene;
pub mod para;
pub mod sampler;
pub mod window;

pub use counter::{CounterTrr, CounterTrrConfig};
pub use graphene::{Graphene, GrapheneConfig};
pub use para::Para;
pub use sampler::{SamplerTrr, SamplerTrrConfig};
pub use window::{WindowTrr, WindowTrrConfig};

/// Builds the ground-truth engine for a named TRR version from Table 1.
///
/// `banks` is the module's bank count and `seed` drives any pseudo-random
/// behaviour (vendor B sampling, vendor C capture positions).
///
/// # Panics
///
/// Panics if `version` is not one of the eight TRR identifiers used in
/// the paper (`A_TRR1`, `A_TRR2`, `B_TRR1`..`B_TRR3`, `C_TRR1`..`C_TRR3`).
pub fn engine_for_version(
    version: &str,
    banks: u8,
    seed: u64,
) -> Box<dyn dram_sim::MitigationEngine> {
    match version {
        "A_TRR1" => Box::new(CounterTrr::a_trr1(banks)),
        "A_TRR2" => Box::new(CounterTrr::a_trr2(banks)),
        "B_TRR1" => Box::new(SamplerTrr::b_trr1(banks, seed)),
        "B_TRR2" => Box::new(SamplerTrr::b_trr2(banks, seed)),
        "B_TRR3" => Box::new(SamplerTrr::b_trr3(banks, seed)),
        "C_TRR1" => Box::new(WindowTrr::c_trr1(banks, seed)),
        "C_TRR2" => Box::new(WindowTrr::c_trr2(banks, seed)),
        "C_TRR3" => Box::new(WindowTrr::c_trr3(banks, seed)),
        other => panic!("unknown TRR version {other:?}"),
    }
}

/// The detections `refs` consecutive `REF`s at time zero append, in
/// order: how the engines' unit tests read
/// [`dram_sim::MitigationEngine::on_refresh`].
#[cfg(test)]
pub(crate) fn detections_over<E: dram_sim::MitigationEngine + ?Sized>(
    engine: &mut E,
    refs: usize,
) -> Vec<dram_sim::TrrDetection> {
    let mut out = Vec::new();
    for _ in 0..refs {
        engine.on_refresh(dram_sim::Nanos::ZERO, &mut out);
    }
    out
}

/// Checker for the [`dram_sim::MitigationEngine::skip_idle_refs`]
/// contract, shared by the engines' unit tests.
#[cfg(test)]
pub(crate) mod skip_contract {
    use dram_sim::rng::SplitMix64;
    use dram_sim::{Bank, MitigationEngine, Nanos, PhysRow, TrrDetection};

    use crate::detections_over;

    /// Builds two engines with `make`, drives both through the same
    /// random activation history (REFs interleaved, seeded by `seed`),
    /// lets the first skip up to `k` REFs and the second refresh as many
    /// times as the first consumed. Asserts the skip stayed within `k`,
    /// the twin detected nothing on those REFs, and both then emit the
    /// same detection stream over the next 64 REFs. Returns the number
    /// of REFs skipped.
    pub fn check<E: MitigationEngine>(make: impl Fn() -> E, banks: u8, seed: u64, k: u64) -> u64 {
        let (mut a, mut b) = (make(), make());
        let mut rng = SplitMix64::new(seed);
        for _ in 0..rng.next_below(24) {
            let bank = Bank::new(rng.next_below(banks as u64) as u8);
            let row = PhysRow::new(100 + rng.next_below(32) as u32);
            let n = 1 + rng.next_below(3_000);
            match rng.next_below(3) {
                0 => {
                    for e in [&mut a, &mut b] {
                        e.on_activations(bank, row, n, Nanos::ZERO);
                    }
                }
                1 => {
                    let other = PhysRow::new(row.index() + 2);
                    for e in [&mut a, &mut b] {
                        e.on_interleaved_pair(bank, row, other, n / 2 + 1, Nanos::ZERO);
                    }
                }
                _ => {
                    for _ in 0..rng.next_below(20) {
                        assert_eq!(detections_over(&mut a, 1), detections_over(&mut b, 1));
                    }
                }
            }
        }
        let skipped = a.skip_idle_refs(k);
        assert!(skipped <= k, "skipped {skipped} of at most {k} REFs");
        for i in 0..skipped {
            let detected = detections_over(&mut b, 1);
            assert!(detected.is_empty(), "skipped REF {i} of {skipped} detects {detected:?}");
        }
        let stream = |e: &mut E| -> Vec<Vec<TrrDetection>> {
            (0..64).map(|_| detections_over(e, 1)).collect()
        };
        assert_eq!(stream(&mut a), stream(&mut b), "detections diverge after the skip");
        skipped
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factory_builds_every_version() {
        for v in ["A_TRR1", "A_TRR2", "B_TRR1", "B_TRR2", "B_TRR3", "C_TRR1", "C_TRR2", "C_TRR3"] {
            let engine = engine_for_version(v, 8, 7);
            assert_eq!(engine.name(), v);
        }
    }

    #[test]
    #[should_panic(expected = "unknown TRR version")]
    fn factory_rejects_unknown() {
        let _ = engine_for_version("X_TRR9", 8, 7);
    }
}
