//! PARA — Probabilistic Adjacent Row Activation (Kim et al., ISCA 2014).
//!
//! The original, stateless RowHammer mitigation the paper's related-work
//! section contrasts TRR against: on *every* activation, with a small
//! probability `p`, the row's neighbours are refreshed immediately. No
//! tables, no samples — nothing for an attacker to evict, overflow, or
//! divert. Its guarantee is probabilistic: an aggressor evades refresh
//! for `n` activations with probability `(1 - p)^n`, which for
//! `p = 0.001` and `HC_first ≥ 10K` is astronomically small.
//!
//! Implemented here as an ACT-synchronous [`MitigationEngine`] using the
//! inline-detection hook, so the paper's custom patterns can be run
//! against it (`repro` binary `secure-mitigations`): the U-TRR-derived
//! patterns that defeat every in-DRAM TRR achieve nothing against PARA
//! with an adequate `p`.

use std::fmt;

use dram_sim::metrics::TallyCounter;
use dram_sim::rng::SplitMix64;
use dram_sim::{Bank, MitigationEngine, Nanos, NeighborSpan, PhysRow, TrrDetection};

/// The PARA engine.
///
/// # Example
///
/// ```
/// use dram_sim::{MitigationEngine, Bank, PhysRow, Nanos};
/// use trr::Para;
///
/// let mut e = Para::new(0.01, 7);
/// e.on_activations(Bank::new(0), PhysRow::new(5), 10_000, Nanos::ZERO);
/// // With p = 1% over 10K activations, a refresh is all but certain.
/// let mut detections = Vec::new();
/// e.take_inline_detections(&mut detections);
/// assert!(!detections.is_empty());
/// ```
pub struct Para {
    /// Per-activation refresh probability.
    prob: f64,
    rng: SplitMix64,
    pending: Vec<TrrDetection>,
    /// `trr.PARA.detections`.
    det_ctr: TallyCounter,
}

impl Para {
    /// Creates a PARA engine with refresh probability `prob` per
    /// activation.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < prob <= 1`.
    pub fn new(prob: f64, seed: u64) -> Self {
        assert!(prob > 0.0 && prob <= 1.0, "probability must be in (0, 1]");
        Para {
            prob,
            rng: SplitMix64::new(seed),
            pending: Vec::new(),
            det_ctr: TallyCounter::default(),
        }
    }

    /// The configured probability.
    pub fn prob(&self) -> f64 {
        self.prob
    }

    /// Queues a detection for `row` if any of `count` activations is
    /// sampled.
    fn maybe_detect(&mut self, bank: Bank, row: PhysRow, count: u64) {
        let any = 1.0 - (1.0 - self.prob).powi(count.min(i32::MAX as u64) as i32);
        if self.rng.next_f64() < any {
            self.pending.push(TrrDetection { bank, aggressor: row, span: NeighborSpan::One });
            self.det_ctr.add(1);
        }
    }
}

impl fmt::Debug for Para {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Para").field("prob", &self.prob).finish_non_exhaustive()
    }
}

impl MitigationEngine for Para {
    fn on_activations(&mut self, bank: Bank, row: PhysRow, count: u64, _now: Nanos) {
        if count == 0 {
            return;
        }
        self.maybe_detect(bank, row, count);
    }

    fn on_interleaved_pair(
        &mut self,
        bank: Bank,
        first: PhysRow,
        second: PhysRow,
        pairs: u64,
        _now: Nanos,
    ) {
        if pairs == 0 {
            return;
        }
        // Each row sees `pairs` activations; sampling is independent.
        self.maybe_detect(bank, first, pairs);
        self.maybe_detect(bank, second, pairs);
    }

    fn on_refresh(&mut self, _now: Nanos, _out: &mut Vec<TrrDetection>) {}

    fn skip_idle_refs(&mut self, max: u64) -> u64 {
        // PARA keeps no REF-time state at all.
        max
    }

    fn take_inline_detections(&mut self, out: &mut Vec<TrrDetection>) {
        out.append(&mut self.pending);
    }

    fn attach_metrics(&mut self, registry: &std::sync::Arc<obs::MetricsRegistry>) {
        self.det_ctr.attach(registry, "trr.PARA.detections");
    }

    fn flush_metrics(&mut self) {
        self.det_ctr.flush();
    }

    fn name(&self) -> &str {
        "PARA"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detections_over;

    const B0: Bank = Bank::new(0);
    const T0: Nanos = Nanos::ZERO;

    #[test]
    fn sampling_rate_matches_probability() {
        let (mut e, mut hits) = (Para::new(0.002, 3), Vec::new());
        for i in 0..20_000u32 {
            e.on_activations(B0, PhysRow::new(i % 64), 1, T0);
            e.take_inline_detections(&mut hits);
        }
        let rate = hits.len() as f64 / 20_000.0;
        assert!((rate - 0.002).abs() < 0.001, "observed {rate}");
    }

    #[test]
    fn batches_detect_with_the_closed_form_probability() {
        let mut misses = 0;
        for seed in 0..200 {
            let (mut e, mut det) = (Para::new(0.001, seed), Vec::new());
            e.on_activations(B0, PhysRow::new(1), 10_000, T0);
            e.take_inline_detections(&mut det);
            if det.is_empty() {
                misses += 1;
            }
        }
        // (1 - 0.001)^10000 ≈ 4.5e-5: essentially never missed.
        assert_eq!(misses, 0);
    }

    #[test]
    fn detections_are_drained_once() {
        let (mut e, mut det) = (Para::new(1.0, 3), Vec::new());
        e.on_activations(B0, PhysRow::new(1), 1, T0);
        e.take_inline_detections(&mut det);
        e.take_inline_detections(&mut det);
        assert_eq!(det.len(), 1);
    }

    #[test]
    fn refresh_path_is_inert() {
        let mut e = Para::new(0.5, 3);
        assert!(detections_over(&mut e, 1).is_empty());
        assert_eq!(e.name(), "PARA");
    }

    #[test]
    #[should_panic(expected = "probability must be in")]
    fn rejects_zero_probability() {
        let _ = Para::new(0.0, 1);
    }
}
