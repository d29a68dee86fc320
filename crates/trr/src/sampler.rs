//! Vendor B's sampling-based TRR (§6.2 of the paper).
//!
//! Reverse-engineered behaviour reproduced here, by observation number:
//!
//! * **B1** — every 4th (B_TRR1), 9th (B_TRR2), or 2nd (B_TRR3) `REF`
//!   performs a TRR-induced refresh.
//! * **B2** — only the two immediately adjacent rows are refreshed
//!   (B_TRR3 refreshes four, per Table 1).
//! * **B3** — aggressors are detected by pseudo-randomly sampling the row
//!   addresses of incoming `ACT` commands; ~2K consecutive activations of
//!   one row are enough to be sampled with near certainty.
//! * **B4** — the sampling capacity is a single row, shared across *all*
//!   banks (B_TRR1/2); B_TRR3 samples per bank.
//! * **B5** — a TRR-induced refresh does not clear the sample register;
//!   the same row keeps being detected until another row is sampled.

use std::fmt;

use dram_sim::rng::SplitMix64;
use dram_sim::{Bank, MitigationEngine, Nanos, NeighborSpan, PhysRow, TrrDetection};

/// Configuration of a [`SamplerTrr`] engine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SamplerTrrConfig {
    /// Every `trr_ref_interval`-th `REF` is TRR-capable (Observation B1).
    pub trr_ref_interval: u64,
    /// Per-activation sampling probability. Observation B3 (2K
    /// consecutive `ACT`s are caught "consistently") only lower-bounds
    /// this; the §7.1 attack arithmetic pins it much harder: ~624 dummy
    /// activations in the final interval before a TRR-capable `REF`
    /// must leave the aggressors sampled in well under 1% of windows
    /// (for the 99.9% vulnerability of B0/B5-8), while the paper's
    /// 12-activation minimum must produce only marginal diversion.
    /// `p ≈ 1/100` satisfies all three: `(1-p)^2000 ≈ e^-20`,
    /// `(1-p)^624 ≈ 0.2%`, `(1-p)^12 ≈ 89%`.
    pub sample_prob: f64,
    /// Whether each bank has its own sample register (B_TRR3) or one
    /// register is shared chip-wide (Observation B4).
    pub per_bank: bool,
    /// Neighbours refreshed per detection (Observation B2).
    pub span: NeighborSpan,
}

impl SamplerTrrConfig {
    /// B_TRR1: shared register, every 4th REF, ±1 victims.
    pub const fn b_trr1() -> Self {
        SamplerTrrConfig {
            trr_ref_interval: 4,
            sample_prob: 1.0 / 100.0,
            per_bank: false,
            span: NeighborSpan::One,
        }
    }

    /// B_TRR2: shared register, every 9th REF, ±1 victims.
    pub const fn b_trr2() -> Self {
        SamplerTrrConfig { trr_ref_interval: 9, ..SamplerTrrConfig::b_trr1() }
    }

    /// B_TRR3: per-bank registers, every 2nd REF, ±1 and ±2 victims.
    /// Its 2-REF window leaves the attacker only one interval (~149
    /// activations) of diversion budget, so the attack's success on
    /// B13/B14 (99.9% of rows) pins this sampler's probability higher
    /// than the chip-wide ones: `(1-1/25)^149 ≈ 0.3%` aggressor
    /// survival.
    pub const fn b_trr3() -> Self {
        SamplerTrrConfig {
            trr_ref_interval: 2,
            sample_prob: 1.0 / 25.0,
            per_bank: true,
            span: NeighborSpan::Two,
        }
    }
}

/// Vendor B's sampling-based TRR engine. See the [module docs](self).
///
/// Sampling is pseudo-random from a seeded deterministic stream, matching
/// the paper's suspicion that "the sampling does not happen truly
/// randomly but is likely based on pseudo-random sampling of an incoming
/// ACT".
///
/// # Example
///
/// ```
/// use dram_sim::{MitigationEngine, MitigationEngineExt, Bank, PhysRow, Nanos};
/// use trr::SamplerTrr;
///
/// let mut e = SamplerTrr::b_trr1(16, 7);
/// e.on_activations(Bank::new(3), PhysRow::new(42), 2_000, Nanos::ZERO);
/// let det: Vec<_> = (0..4).flat_map(|_| e.refresh_detections(Nanos::ZERO)).collect();
/// assert_eq!(det[0].aggressor, PhysRow::new(42));
/// ```
pub struct SamplerTrr {
    config: SamplerTrrConfig,
    name: &'static str,
    /// Sample registers: index 0 when shared, one per bank otherwise.
    registers: Vec<Option<(Bank, PhysRow)>>,
    ref_count: u64,
    rng: SplitMix64,
    seed: u64,
    /// `trr.<name>.detections` — present once a registry is attached.
    det_ctr: Option<obs::Counter>,
    /// `trr.<name>.samples` — register overwrites by sampled `ACT`s.
    sample_ctr: Option<obs::Counter>,
    /// The attached registry, for flight-recorder sample events.
    registry: Option<std::sync::Arc<obs::MetricsRegistry>>,
    /// Last miss probability of [`MitigationEngine::on_activations`] and
    /// of [`MitigationEngine::on_interleaved_pair`]: attack intervals
    /// repeat the same batch sizes.
    act_miss: MissMemo,
    pair_miss: MissMemo,
}

/// The last `(1 − p)^n` computed, with its exponent (`powi` costs far
/// more than the compare).
#[derive(Debug, Clone, Copy)]
struct MissMemo {
    n: i32,
    value: f64,
}

impl MissMemo {
    /// `q^0`; the hooks never ask for a zero exponent.
    const INIT: MissMemo = MissMemo { n: 0, value: 1.0 };

    /// `q^n` for batch size `n`, bit-identical to computing it afresh.
    fn get(&mut self, q: f64, n: u64) -> f64 {
        let n = n.min(i32::MAX as u64) as i32;
        if n != self.n {
            *self = MissMemo { n, value: q.powi(n) };
        }
        self.value
    }
}

impl SamplerTrr {
    /// Builds an engine with an explicit configuration.
    pub fn new(config: SamplerTrrConfig, name: &'static str, banks: u8, seed: u64) -> Self {
        let registers = if config.per_bank { vec![None; banks as usize] } else { vec![None] };
        SamplerTrr {
            config,
            name,
            registers,
            ref_count: 0,
            rng: SplitMix64::new(seed),
            seed,
            det_ctr: None,
            sample_ctr: None,
            registry: None,
            act_miss: MissMemo::INIT,
            pair_miss: MissMemo::INIT,
        }
    }

    /// Flight-recorder event for one register overwrite.
    fn trace_sample(&self, bank: Bank, row: PhysRow, now: Nanos) {
        if let Some(registry) = &self.registry {
            registry.trace(
                obs::TraceKind::TrrSample,
                now.as_ns(),
                bank.index() as u32,
                Some(row.index()),
                &[],
                "",
            );
        }
    }

    /// The B_TRR1 mechanism (modules B0–B8 of Table 1).
    pub fn b_trr1(banks: u8, seed: u64) -> Self {
        SamplerTrr::new(SamplerTrrConfig::b_trr1(), "B_TRR1", banks, seed)
    }

    /// The B_TRR2 mechanism (modules B9–B12 of Table 1).
    pub fn b_trr2(banks: u8, seed: u64) -> Self {
        SamplerTrr::new(SamplerTrrConfig::b_trr2(), "B_TRR2", banks, seed)
    }

    /// The B_TRR3 mechanism (modules B13–B14 of Table 1).
    pub fn b_trr3(banks: u8, seed: u64) -> Self {
        SamplerTrr::new(SamplerTrrConfig::b_trr3(), "B_TRR3", banks, seed)
    }

    /// The engine configuration.
    pub fn config(&self) -> SamplerTrrConfig {
        self.config
    }

    /// Current content of the sample register(s) — test support only.
    pub fn sampled(&self) -> Vec<Option<(Bank, PhysRow)>> {
        self.registers.clone()
    }

    fn register_index(&self, bank: Bank) -> usize {
        if self.config.per_bank {
            bank.index() as usize
        } else {
            0
        }
    }
}

impl fmt::Debug for SamplerTrr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SamplerTrr")
            .field("name", &self.name)
            .field("config", &self.config)
            .field("ref_count", &self.ref_count)
            .finish_non_exhaustive()
    }
}

impl MitigationEngine for SamplerTrr {
    fn on_activations(&mut self, bank: Bank, row: PhysRow, count: u64, now: Nanos) {
        if count == 0 {
            return;
        }
        // Closed form for a same-row batch: the register ends up holding
        // this row iff at least one of the `count` activations is
        // sampled.
        let miss = self.act_miss.get(1.0 - self.config.sample_prob, count);
        if self.rng.next_f64() >= miss {
            let idx = self.register_index(bank);
            self.registers[idx] = Some((bank, row));
            if let Some(c) = &self.sample_ctr {
                c.inc();
            }
            self.trace_sample(bank, row, now);
        }
    }

    fn on_interleaved_pair(
        &mut self,
        bank: Bank,
        first: PhysRow,
        second: PhysRow,
        pairs: u64,
        now: Nanos,
    ) {
        if pairs == 0 {
            return;
        }
        // Closed form over the alternating sequence f,s,f,s,…,s of length
        // 2*pairs: the register changes iff any activation is sampled
        // (prob 1 - q^(2*pairs)); given that, the *last* sampled
        // activation decides, and counting from the tail the odd
        // positions are `second`: P(second | sampled) = p·Σ q^(2j) over
        // the geometric tail = 1 / (1 + q), independent of length.
        let q = 1.0 - self.config.sample_prob;
        let any = 1.0 - self.pair_miss.get(q, 2 * pairs);
        if self.rng.next_f64() < any {
            let row = if self.rng.next_f64() < 1.0 / (1.0 + q) { second } else { first };
            let idx = self.register_index(bank);
            self.registers[idx] = Some((bank, row));
            if let Some(c) = &self.sample_ctr {
                c.inc();
            }
            self.trace_sample(bank, row, now);
        }
    }

    fn on_refresh(&mut self, _now: Nanos, out: &mut Vec<TrrDetection>) {
        self.ref_count += 1;
        if !self.ref_count.is_multiple_of(self.config.trr_ref_interval) {
            return;
        }
        // Observation B5: the register is *not* cleared by the refresh.
        let before = out.len();
        out.extend(self.registers.iter().flatten().map(|&(bank, aggressor)| TrrDetection {
            bank,
            aggressor,
            span: self.config.span,
        }));
        let detected = (out.len() - before) as u64;
        if detected > 0 {
            if let Some(c) = &self.det_ctr {
                c.add(detected);
            }
        }
    }

    fn skip_idle_refs(&mut self, max: u64) -> u64 {
        // With every register empty no REF can detect (only ACTs sample);
        // otherwise the next TRR-capable REF re-detects the held sample
        // (Observation B5), so the skip stops just before it.
        let idle = if self.registers.iter().all(Option::is_none) {
            max
        } else {
            let interval = self.config.trr_ref_interval;
            (interval - 1 - self.ref_count % interval).min(max)
        };
        self.ref_count += idle;
        idle
    }

    fn attach_metrics(&mut self, registry: &std::sync::Arc<obs::MetricsRegistry>) {
        self.det_ctr = Some(registry.counter(&format!("trr.{}.detections", self.name)));
        self.sample_ctr = Some(registry.counter(&format!("trr.{}.samples", self.name)));
        self.registry = Some(std::sync::Arc::clone(registry));
    }

    fn detects_inline(&self) -> bool {
        // Sampler-based TRR only acts on the registers at `REF`.
        false
    }

    fn reset(&mut self) {
        for r in &mut self.registers {
            *r = None;
        }
        self.ref_count = 0;
        self.rng = SplitMix64::new(self.seed);
    }

    fn name(&self) -> &str {
        self.name
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dram_sim::MitigationEngineExt;

    const T0: Nanos = Nanos::ZERO;

    #[test]
    fn two_thousand_acts_are_reliably_sampled() {
        let mut misses = 0;
        for seed in 0..100 {
            let mut e = SamplerTrr::b_trr1(16, seed);
            e.on_activations(Bank::new(0), PhysRow::new(9), 2_000, T0);
            if e.sampled()[0].is_none() {
                misses += 1;
            }
        }
        assert_eq!(misses, 0, "2K consecutive ACTs must be caught (Obs B3)");
    }

    #[test]
    fn single_act_is_rarely_sampled() {
        let hits = (0..1_000)
            .filter(|&seed| {
                let mut e = SamplerTrr::b_trr1(16, seed);
                e.on_activations(Bank::new(0), PhysRow::new(9), 1, T0);
                e.sampled()[0].is_some()
            })
            .count();
        assert!(hits < 30, "p ≈ 1/100, observed {hits}/1000");
    }

    #[test]
    fn skip_idle_refs_matches_refreshing() {
        let mut skipped = 0;
        for seed in 0..300 {
            let makes = [
                || SamplerTrr::b_trr1(2, 7),
                || SamplerTrr::b_trr2(2, 7),
                || SamplerTrr::b_trr3(2, 7),
            ];
            for make in makes {
                skipped += crate::skip_contract::check(make, 2, seed, seed % 40);
            }
        }
        assert!(skipped > 0);
    }

    #[test]
    fn skip_idle_refs_stops_before_a_held_sample_is_redetected() {
        let mut e = SamplerTrr::b_trr1(16, 3);
        // Empty registers: no REF can detect, so everything is skipped.
        assert_eq!(e.skip_idle_refs(1_000), 1_000);
        e.on_activations(Bank::new(0), PhysRow::new(9), 2_000, T0);
        // REF 1_000 was the last one; 1_004 is TRR-capable.
        assert_eq!(e.skip_idle_refs(1_000), 3);
        assert_eq!(e.skip_idle_refs(1_000), 0);
        let det = e.refresh_detections(T0);
        assert_eq!(det.len(), 1, "the held sample is detected at the TRR-capable REF");
        assert_eq!(e.skip_idle_refs(2), 2);
    }

    #[test]
    fn trr_every_fourth_ref_b1() {
        let mut e = SamplerTrr::b_trr1(16, 3);
        e.on_activations(Bank::new(0), PhysRow::new(9), 2_000, T0);
        for i in 1..=12u64 {
            let det = e.refresh_detections(T0);
            assert_eq!(!det.is_empty(), i % 4 == 0, "REF {i}");
        }
    }

    #[test]
    fn register_not_cleared_by_trr_refresh() {
        let mut e = SamplerTrr::b_trr1(16, 3);
        e.on_activations(Bank::new(0), PhysRow::new(9), 2_000, T0);
        let first: Vec<_> = (0..4).flat_map(|_| e.refresh_detections(T0)).collect();
        let second: Vec<_> = (0..4).flat_map(|_| e.refresh_detections(T0)).collect();
        assert_eq!(first, second, "Obs B5: same row keeps being detected");
    }

    #[test]
    fn newly_sampled_row_overwrites_previous() {
        let mut e = SamplerTrr::b_trr1(16, 3);
        e.on_activations(Bank::new(0), PhysRow::new(9), 5_000, T0);
        e.on_activations(Bank::new(0), PhysRow::new(11), 3_000, T0);
        let det: Vec<_> = (0..4).flat_map(|_| e.refresh_detections(T0)).collect();
        assert_eq!(det.len(), 1, "sampling capacity is one row (Obs B4)");
        assert_eq!(det[0].aggressor, PhysRow::new(11), "last sampled row wins");
    }

    #[test]
    fn shared_register_crosses_banks() {
        let mut e = SamplerTrr::b_trr1(16, 3);
        e.on_activations(Bank::new(0), PhysRow::new(9), 5_000, T0);
        e.on_activations(Bank::new(7), PhysRow::new(500), 5_000, T0);
        let det: Vec<_> = (0..4).flat_map(|_| e.refresh_detections(T0)).collect();
        assert_eq!(det.len(), 1);
        assert_eq!(det[0].bank, Bank::new(7), "Obs B4: one register shared across banks");
    }

    #[test]
    fn per_bank_registers_in_b_trr3() {
        let mut e = SamplerTrr::b_trr3(16, 3);
        e.on_activations(Bank::new(0), PhysRow::new(9), 5_000, T0);
        e.on_activations(Bank::new(7), PhysRow::new(500), 5_000, T0);
        let det: Vec<_> = (0..2).flat_map(|_| e.refresh_detections(T0)).collect();
        assert_eq!(det.len(), 2, "B_TRR3 samples independently per bank");
    }

    #[test]
    fn interleaved_pair_samples_both_rows_evenly() {
        // The tail-geometry math gives the later row only a ~p/2 edge,
        // which is invisible at any reasonable trial count; what matters
        // is that both rows are sampled at nearly equal rates.
        let mut second_wins = 0;
        let mut first_wins = 0;
        for seed in 0..2_000 {
            let mut e = SamplerTrr::b_trr1(16, seed);
            e.on_interleaved_pair(Bank::new(0), PhysRow::new(1), PhysRow::new(2), 1_000, T0);
            match e.sampled()[0] {
                Some((_, r)) if r == PhysRow::new(2) => second_wins += 1,
                Some((_, r)) if r == PhysRow::new(1) => first_wins += 1,
                _ => {}
            }
        }
        assert!(first_wins > 800, "first row sampled often, got {first_wins}");
        assert!(second_wins > 800, "second row sampled often, got {second_wins}");
    }

    #[test]
    fn interleaved_pair_distribution_matches_singles() {
        // Statistical order-equivalence: run the batched and the looped
        // version over many seeds and compare sample frequencies.
        let trials = 3_000u32;
        let mut batched_second = 0;
        let mut looped_second = 0;
        for seed in 0..trials as u64 {
            let mut b = SamplerTrr::b_trr1(16, seed);
            b.on_interleaved_pair(Bank::new(0), PhysRow::new(1), PhysRow::new(2), 200, T0);
            if matches!(b.sampled()[0], Some((_, r)) if r == PhysRow::new(2)) {
                batched_second += 1;
            }
            let mut l = SamplerTrr::b_trr1(16, seed + 1_000_000);
            for _ in 0..200 {
                l.on_activations(Bank::new(0), PhysRow::new(1), 1, T0);
                l.on_activations(Bank::new(0), PhysRow::new(2), 1, T0);
            }
            if matches!(l.sampled()[0], Some((_, r)) if r == PhysRow::new(2)) {
                looped_second += 1;
            }
        }
        let diff = (batched_second as f64 - looped_second as f64).abs() / trials as f64;
        assert!(diff < 0.05, "distributions must agree, diff {diff}");
    }

    #[test]
    fn memoised_miss_probability_is_bit_identical() {
        for q in [1.0f64 - 1.0 / 100.0, 1.0 - 1.0 / 25.0] {
            // One engine, one `q`: the memo is keyed on the exponent.
            let mut memo = MissMemo::INIT;
            for n in [24, 24, 12, 624, 624, 24, 1, 2_000, 2_000, u64::MAX] {
                let fresh = q.powi(n.min(i32::MAX as u64) as i32);
                assert_eq!(memo.get(q, n).to_bits(), fresh.to_bits(), "q {q} n {n}");
            }
        }
    }

    #[test]
    fn reset_restores_power_on_state() {
        let mut e = SamplerTrr::b_trr1(16, 3);
        e.on_activations(Bank::new(0), PhysRow::new(9), 5_000, T0);
        e.refresh_detections(T0);
        e.reset();
        assert!(e.sampled()[0].is_none());
        let det: Vec<_> = (0..8).flat_map(|_| e.refresh_detections(T0)).collect();
        assert!(det.is_empty());
    }
}
