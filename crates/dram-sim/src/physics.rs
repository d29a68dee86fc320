//! Cell-level failure physics: retention, variable retention time (VRT),
//! and RowHammer flip thresholds.
//!
//! The model is sparse and lazy. A 64K-row bank has billions of cells, but
//! only two kinds matter to U-TRR experiments:
//!
//! * **weak cells** — cells whose retention time falls inside the horizon
//!   a profiler would ever wait (tens of milliseconds to a few seconds).
//!   Each row owns zero or a few of them, derived deterministically from
//!   the module seed, so the same seed always yields the same "chip".
//!   A weak cell only leaks from its *charged* value (true-cell vs
//!   anti-cell orientation), so failures are data-pattern dependent just
//!   like on real silicon.
//! * **hammerable cells** — cells that flip when the accumulated
//!   disturbance on their row exceeds a per-cell threshold. A row's
//!   thresholds form an arithmetic ladder starting at the row's base
//!   threshold, so over-hammering yields progressively more flips — the
//!   behaviour behind Fig. 8 of the paper.
//!
//! Disturbance bookkeeping itself lives in [`crate::module`]; this module
//! defines the per-row parameters and the flip rules.

use crate::data::DataPattern;
use crate::rng::{derive_seed, mix, SplitMix64};
use crate::time::Nanos;

/// Tunable physics of a simulated module.
///
/// The retention-side parameters shape what Row Scout finds; the
/// `hc_*` parameters are calibrated per module so that the minimum
/// double-sided hammer count to the first bit flip matches the module's
/// `HC_first` column in Table 1 of the paper (see DESIGN.md §5 on
/// calibration).
///
/// # Example
///
/// ```
/// use dram_sim::PhysicsConfig;
///
/// let p = PhysicsConfig::default_test();
/// assert!(p.weak_row_prob > 0.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct PhysicsConfig {
    /// Probability that a row has at least one profilable weak cell.
    pub weak_row_prob: f64,
    /// Probability of each additional weak cell beyond the first
    /// (geometric tail).
    pub extra_weak_cell_prob: f64,
    /// Shortest weak-cell retention time.
    pub retention_min: Nanos,
    /// Longest weak-cell retention time (log-uniform in between).
    pub retention_max: Nanos,
    /// Probability that a weak cell suffers from VRT.
    pub vrt_prob: f64,
    /// Per-observation probability that a VRT cell toggles between its
    /// short- and long-retention states.
    pub vrt_switch_prob: f64,
    /// Retention multiplier of a VRT cell's long state.
    pub vrt_retention_factor: f64,
    /// Module-level minimum hammer count: the fewest per-aggressor
    /// activations in a double-sided pattern that flip at least one bit in
    /// the module's weakest row (the paper's `HC_first`).
    pub hc_first: f64,
    /// Relative spread of per-row base thresholds: a row's threshold is
    /// `2 * hc_first * (1 + Exp(hc_lambda))` disturbance units (mean
    /// excess `hc_lambda`).
    pub hc_lambda: f64,
    /// Relative threshold step between successive hammerable cells of a
    /// row: cell `k` flips at `hc_base * (1 + k * hc_cell_step)`.
    pub hc_cell_step: f64,
    /// Maximum hammerable cells per row.
    pub hc_max_cells: u32,
    /// Disturbance weight of distance-2 neighbours (distance-1 = 1.0).
    pub radius2_weight: f64,
    /// Disturbance weight of an activation that re-opens the row that was
    /// just closed in the same bank. Repeated same-row hammering toggles
    /// the wordline less effectively than alternating rows, which is why
    /// the paper finds interleaved hammering up to four orders of
    /// magnitude more effective than cascaded (§5.2).
    pub same_row_discount: f64,
    /// Disturbance multiplier by aggressor data pattern: solid patterns
    /// couple fully, striped patterns slightly less.
    pub striped_aggressor_coupling: f64,
    /// Operating temperature in °C. The paper runs every experiment at
    /// 85 °C (§6), which is also this model's calibration point:
    /// retention times halve per [`PhysicsConfig::RETENTION_HALVING_C`]
    /// degrees of heating, so cooler parts hold their charge
    /// correspondingly longer and Row Scout has to wait further into its
    /// `T` sweep.
    pub temperature_c: f64,
}

impl PhysicsConfig {
    /// The temperature the retention distributions are calibrated at.
    pub const REFERENCE_TEMP_C: f64 = 85.0;

    /// Degrees of heating that halve retention times (the standard DRAM
    /// rule of thumb the retention literature uses).
    pub(crate) const RETENTION_HALVING_C: f64 = 10.0;

    /// Multiplier applied to every retention time at the configured
    /// temperature: 1.0 at the 85 °C reference, 2× per 10 °C of cooling.
    pub fn retention_scale(&self) -> f64 {
        ((Self::REFERENCE_TEMP_C - self.temperature_c) / Self::RETENTION_HALVING_C).exp2()
    }

    /// A small, aggressive configuration for unit tests: every row has a
    /// retention tail (as on real chips at 85 °C, where most rows fail
    /// within a few seconds), low hammer thresholds.
    pub fn default_test() -> Self {
        PhysicsConfig {
            weak_row_prob: 1.0,
            extra_weak_cell_prob: 0.35,
            retention_min: Nanos::from_ms(80),
            retention_max: Nanos::from_ms(480),
            vrt_prob: 0.15,
            vrt_switch_prob: 0.08,
            vrt_retention_factor: 3.0,
            hc_first: 1_000.0,
            hc_lambda: 0.4,
            hc_cell_step: 0.12,
            hc_max_cells: 64,
            radius2_weight: 0.25,
            same_row_discount: 0.5,
            striped_aggressor_coupling: 0.85,
            temperature_c: PhysicsConfig::REFERENCE_TEMP_C,
        }
    }

    /// The disturbance units at which the module's weakest possible row
    /// takes its first flip (double-sided: two units per per-aggressor
    /// hammer).
    pub(crate) fn min_base_threshold(&self) -> f64 {
        2.0 * self.hc_first
    }

    /// Disturbance coupling factor for an aggressor holding `pattern`.
    pub(crate) fn aggressor_coupling(&self, pattern: Option<&DataPattern>) -> f64 {
        match pattern {
            Some(DataPattern::Checkerboard) => self.striped_aggressor_coupling,
            // Solid, row-striped, custom, or unwritten rows couple fully.
            _ => 1.0,
        }
    }
}

/// One retention-weak cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct WeakCell {
    /// Short-state retention time.
    retention: Nanos,
    /// Long-state retention of a VRT cell; `Nanos::ZERO` = not VRT.
    vrt_long: Nanos,
    /// Bit position within the row.
    bit: u32,
    /// The data value the cell leaks *from*: a flip happens only when
    /// the stored bit equals this value.
    charged: bool,
    /// Whether a VRT cell currently holds charge for the long time.
    vrt_in_long: bool,
}

/// The retention-weak cells of one row, in one exact-size allocation.
///
/// Every touched row owns one (the calibrated modules give every row a
/// retention tail), so this is most of a row's cold memory. Restores
/// read it only when the device's hot row state says a bit can flip or
/// a VRT cell switches, so one block per row beats a layout tuned for
/// streaming.
///
/// # Invariants
///
/// * `vrt_long == Nanos::ZERO` marks a non-VRT cell, whose `vrt_in_long`
///   is `false` and stays false. (A real VRT long state is `retention ×
///   vrt_retention_factor` of a positive retention, so zero can never
///   be a legitimate long-state value.)
/// * `min_effective` caches the minimum of `effective_retention(i)` over
///   all cells ([`WeakCells::NO_CELLS`] when empty) and is recomputed
///   after every VRT state transition — it gates the per-cell scan of
///   [`window_flips`], so staleness would change simulation results.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct WeakCells {
    cells: Box<[WeakCell]>,
    /// Cached minimum currently-effective retention over all cells.
    min_effective: Nanos,
}

impl WeakCells {
    /// `min_effective` of a row with no weak cells: later than any decay
    /// window, so the restore fast path always skips the cell loop.
    pub(crate) const NO_CELLS: Nanos = Nanos::from_ns(u64::MAX);

    fn new(cells: Vec<WeakCell>) -> Self {
        let mut cells =
            WeakCells { cells: cells.into_boxed_slice(), min_effective: Self::NO_CELLS };
        cells.recompute_min();
        cells
    }

    fn recompute_min(&mut self) {
        self.min_effective =
            (0..self.len()).map(|i| self.effective_retention(i)).min().unwrap_or(Self::NO_CELLS);
    }

    /// Number of weak cells.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// Whether the row has no weak cells.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Bit position of cell `i`.
    pub fn bit(&self, i: usize) -> u32 {
        self.cells[i].bit
    }

    /// Short-state retention of cell `i`.
    pub fn retention(&self, i: usize) -> Nanos {
        self.cells[i].retention
    }

    /// The value cell `i` leaks from.
    pub(crate) fn charged(&self, i: usize) -> bool {
        self.cells[i].charged
    }

    /// Whether cell `i` suffers from VRT.
    pub(crate) fn is_vrt(&self, i: usize) -> bool {
        self.cells[i].vrt_long != Nanos::ZERO
    }

    /// The retention of cell `i` currently in effect.
    pub(crate) fn effective_retention(&self, i: usize) -> Nanos {
        let cell = &self.cells[i];
        if cell.vrt_in_long {
            cell.vrt_long
        } else {
            cell.retention
        }
    }

    /// Cached minimum currently-effective retention over all cells
    /// ([`WeakCells::NO_CELLS`] when the row has none): decay windows at
    /// or below this can not have flipped anything, which is what lets a
    /// restore skip the per-cell scan entirely.
    pub(crate) fn min_effective(&self) -> Nanos {
        self.min_effective
    }

    /// Minimum currently-effective retention over the cells that can
    /// still leak — those whose stored bit (per `stored_bit`) equals
    /// their charged value — or [`WeakCells::NO_CELLS`] if none can. A
    /// decay window no longer than this flips no weak cell.
    pub(crate) fn min_live(&self, stored_bit: impl Fn(u32) -> bool) -> Nanos {
        (0..self.len())
            .filter(|&i| stored_bit(self.bit(i)) == self.charged(i))
            .map(|i| self.effective_retention(i))
            .min()
            .unwrap_or(Self::NO_CELLS)
    }
}

/// Per-row physical parameters, derived deterministically from the module
/// seed and cached by the device on first touch.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct RowPhysics {
    /// Retention-weak cells, if any (struct-of-arrays).
    pub cells: WeakCells,
    /// Disturbance units at which this row's first RowHammer flip occurs.
    pub hc_base: f64,
    /// Seed for deriving hammerable-cell positions.
    cell_seed: u64,
}

impl RowPhysics {
    /// Derives the physics of row `stream` (a stable `(bank, phys row)`
    /// encoding chosen by the module) of a module seeded with `seed`,
    /// plus the RNG stream driving the row's VRT transitions (see
    /// [`RowPhysics::advance_vrt`]), which the caller keeps.
    pub fn derive(
        cfg: &PhysicsConfig,
        seed: u64,
        stream: u64,
        row_bits: u32,
    ) -> (Self, SplitMix64) {
        let mut rng = SplitMix64::new(derive_seed(seed, stream));
        let scale = cfg.retention_scale();
        let mut cells = Vec::new();
        if rng.next_bool(cfg.weak_row_prob) {
            loop {
                let retention = Nanos::from_ns(
                    (rng.next_log_uniform(
                        cfg.retention_min.as_ns() as f64,
                        cfg.retention_max.as_ns() as f64,
                    ) * scale) as u64,
                );
                let (vrt_long, vrt_in_long) = if rng.next_bool(cfg.vrt_prob) {
                    (
                        Nanos::from_ns(
                            (retention.as_ns() as f64 * cfg.vrt_retention_factor) as u64,
                        ),
                        rng.next_bool(0.5),
                    )
                } else {
                    (Nanos::ZERO, false)
                };
                let bit = rng.next_below(row_bits as u64) as u32;
                let charged = rng.next_bool(0.5);
                cells.push(WeakCell { retention, vrt_long, bit, charged, vrt_in_long });
                if !rng.next_bool(cfg.extra_weak_cell_prob) {
                    break;
                }
            }
        }
        let cells = WeakCells::new(cells);
        let hc_base = cfg.min_base_threshold() * (1.0 + rng.next_exp(cfg.hc_lambda));
        let cell_seed = rng.next_u64();
        let vrt_rng = SplitMix64::new(rng.next_u64());
        (RowPhysics { cells, hc_base, cell_seed }, vrt_rng)
    }

    /// Shortest currently-effective retention among the row's weak cells,
    /// or `None` if the row has no weak cells.
    #[cfg_attr(not(test), allow(dead_code))]
    pub fn min_retention(&self) -> Option<Nanos> {
        if self.cells.is_empty() {
            None
        } else {
            Some(self.cells.min_effective())
        }
    }

    /// Whether any weak cell of the row is VRT-afflicted.
    #[cfg_attr(not(test), allow(dead_code))]
    pub fn has_vrt(&self) -> bool {
        self.vrt_cells() > 0
    }

    /// Number of VRT-afflicted weak cells: the draws one
    /// [`RowPhysics::advance_vrt`] takes from the VRT stream.
    pub(crate) fn vrt_cells(&self) -> u32 {
        (0..self.cells.len()).filter(|&i| self.cells.is_vrt(i)).count() as u32
    }

    /// Advances the VRT Markov chain of every VRT cell by one observation
    /// window, drawing from the row's VRT stream `rng`. Called by the
    /// device whenever a non-trivial decay window ends (a restore after
    /// time has passed). The switch probability is passed in because the
    /// device may override the configured value during an injected VRT
    /// burst episode.
    ///
    /// Draws one `next_bool(switch_prob)` per VRT cell, in cell order —
    /// the exact draw discipline of every prior release, so seeded
    /// simulations stay bit-for-bit reproducible. Returns whether any
    /// cell switched state.
    pub(crate) fn advance_vrt(&mut self, rng: &mut SplitMix64, switch_prob: f64) -> bool {
        let mut toggled = false;
        for i in 0..self.cells.len() {
            if self.cells.is_vrt(i) && rng.next_bool(switch_prob) {
                self.cells.cells[i].vrt_in_long = !self.cells.cells[i].vrt_in_long;
                toggled = true;
            }
        }
        if toggled {
            self.cells.recompute_min();
        }
        toggled
    }

    /// Number of hammerable cells whose threshold is at or below the
    /// accumulated disturbance `d`.
    pub(crate) fn hammer_flip_count(&self, cfg: &PhysicsConfig, d: f64) -> u32 {
        if d < self.hc_base {
            return 0;
        }
        let excess = d / self.hc_base - 1.0;
        let n = 1 + (excess / cfg.hc_cell_step) as u32;
        n.min(cfg.hc_max_cells)
    }

    /// The bit position and vulnerable-from value of the row's `k`-th
    /// hammerable cell.
    pub(crate) fn hammer_cell(&self, k: u32, row_bits: u32) -> (u32, bool) {
        let h = mix(self.cell_seed ^ (k as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let bit = (h % row_bits as u64) as u32;
        let vulnerable_from = h >> 63 == 1;
        (bit, vulnerable_from)
    }
}

/// Applies weak-cell decay and RowHammer flips to a row's data for a decay
/// window of `elapsed` with accumulated disturbance `disturbance`. Returns
/// the bit flips as `(bit, new_value)`; the caller owns the data update.
pub(crate) fn window_flips(
    physics: &RowPhysics,
    cfg: &PhysicsConfig,
    elapsed: Nanos,
    disturbance: f64,
    row_bits: u32,
    stored_bit: impl Fn(u32) -> bool,
) -> Vec<u32> {
    let mut flips = Vec::new();
    // The cached minimum gates the scan: a window no longer than every
    // cell's effective retention cannot have decayed anything.
    if elapsed > physics.cells.min_effective() {
        for i in 0..physics.cells.len() {
            if elapsed > physics.cells.effective_retention(i)
                && stored_bit(physics.cells.bit(i)) == physics.cells.charged(i)
            {
                flips.push(physics.cells.bit(i));
            }
        }
    }
    let hammer_flips = physics.hammer_flip_count(cfg, disturbance);
    for k in 0..hammer_flips {
        let (bit, vulnerable_from) = physics.hammer_cell(k, row_bits);
        if stored_bit(bit) == vulnerable_from && !flips.contains(&bit) {
            flips.push(bit);
        }
    }
    flips
}

/// Introspection snapshot of a row's ground-truth physics, exposed for
/// tests and calibration tooling (real hardware offers no such window —
/// experiments must not rely on it).
#[derive(Debug, Clone, PartialEq)]
pub struct RowPhysicsView {
    /// `(bit, retention, is_vrt)` for each weak cell.
    pub weak_cells: Vec<(u32, Nanos, bool)>,
    /// First-flip disturbance threshold.
    pub hc_base: f64,
}

impl RowPhysicsView {
    pub(crate) fn of(physics: &RowPhysics) -> Self {
        let cells = &physics.cells;
        RowPhysicsView {
            weak_cells: (0..cells.len())
                .map(|i| (cells.bit(i), cells.retention(i), cells.is_vrt(i)))
                .collect(),
            hc_base: physics.hc_base,
        }
    }

    /// Shortest short-state retention among weak cells.
    pub fn min_retention(&self) -> Option<Nanos> {
        self.weak_cells.iter().map(|&(_, r, _)| r).min()
    }

    /// Whether the row has any VRT cell.
    pub fn has_vrt(&self) -> bool {
        self.weak_cells.iter().any(|&(_, _, v)| v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> PhysicsConfig {
        PhysicsConfig::default_test()
    }

    #[test]
    fn derivation_is_deterministic() {
        let a = RowPhysics::derive(&cfg(), 1, 7, 2048);
        let b = RowPhysics::derive(&cfg(), 1, 7, 2048);
        assert_eq!(a, b);
        let c = RowPhysics::derive(&cfg(), 1, 8, 2048).0;
        assert_ne!(a.0.hc_base, c.hc_base);
    }

    #[test]
    fn weak_row_fraction_close_to_config() {
        let c = cfg();
        let weak =
            (0..20_000).filter(|&s| !RowPhysics::derive(&c, 3, s, 2048).0.cells.is_empty()).count();
        let frac = weak as f64 / 20_000.0;
        assert!((frac - c.weak_row_prob).abs() < 0.01, "observed {frac}");
    }

    #[test]
    fn retention_is_within_bounds() {
        let c = cfg();
        for s in 0..5_000 {
            let p = RowPhysics::derive(&c, 5, s, 2048).0;
            for i in 0..p.cells.len() {
                assert!(p.cells.retention(i) >= c.retention_min);
                assert!(p.cells.retention(i) <= c.retention_max);
            }
        }
    }

    #[test]
    fn hc_base_floor_is_twice_hc_first() {
        let c = cfg();
        let min = (0..20_000)
            .map(|s| RowPhysics::derive(&c, 9, s, 2048).0.hc_base)
            .fold(f64::INFINITY, f64::min);
        assert!(min >= c.min_base_threshold());
        assert!(min < c.min_base_threshold() * 1.05, "weakest row near HC_first: {min}");
    }

    #[test]
    fn hammer_flip_count_ladder() {
        let c = cfg();
        let p = RowPhysics::derive(&c, 9, 0, 2048).0;
        assert_eq!(p.hammer_flip_count(&c, 0.0), 0);
        assert_eq!(p.hammer_flip_count(&c, p.hc_base * 0.999), 0);
        assert_eq!(p.hammer_flip_count(&c, p.hc_base), 1);
        let heavy = p.hammer_flip_count(&c, p.hc_base * 3.0);
        assert!(heavy > 10, "over-hammering yields many flips: {heavy}");
        assert!(p.hammer_flip_count(&c, p.hc_base * 1e6) == c.hc_max_cells);
    }

    #[test]
    fn hammer_cells_are_stable_and_in_range() {
        let c = cfg();
        let p = RowPhysics::derive(&c, 2, 0, 2048).0;
        for k in 0..c.hc_max_cells {
            let (bit, _) = p.hammer_cell(k, 2048);
            assert!(bit < 2048);
            assert_eq!(p.hammer_cell(k, 2048), p.hammer_cell(k, 2048));
        }
    }

    #[test]
    fn vrt_cells_toggle_eventually() {
        let c = cfg();
        // Find a VRT row.
        let (mut p, mut rng) = (0..10_000)
            .map(|s| RowPhysics::derive(&c, 11, s, 2048))
            .find(|(p, _)| p.has_vrt())
            .expect("some VRT row exists");
        let snapshot = |p: &RowPhysics| -> Vec<Nanos> {
            (0..p.cells.len()).map(|i| p.cells.effective_retention(i)).collect()
        };
        let initial = snapshot(&p);
        let mut changed = false;
        for _ in 0..1_000 {
            p.advance_vrt(&mut rng, c.vrt_switch_prob);
            let now = snapshot(&p);
            if now != initial {
                changed = true;
                break;
            }
        }
        assert!(changed, "VRT state must eventually switch");
    }

    #[test]
    fn non_vrt_rows_never_change() {
        let c = cfg();
        let (mut p, mut rng) = (0..10_000)
            .map(|s| RowPhysics::derive(&c, 13, s, 2048))
            .find(|(p, _)| !p.cells.is_empty() && !p.has_vrt())
            .expect("some weak non-VRT row exists");
        let initial = p.min_retention();
        let stream = rng;
        for _ in 0..1_000 {
            assert!(!p.advance_vrt(&mut rng, c.vrt_switch_prob));
        }
        assert_eq!(p.min_retention(), initial);
        assert_eq!(rng, stream, "a row without VRT cells draws nothing");
    }

    #[test]
    fn window_flips_respect_data_orientation() {
        let c = cfg();
        let p = (0..10_000)
            .map(|s| RowPhysics::derive(&c, 17, s, 2048).0)
            .find(|p| !p.cells.is_empty())
            .expect("weak row exists");
        let (bit, charged) = (p.cells.bit(0), p.cells.charged(0));
        let long = p.cells.effective_retention(0) + Nanos::from_ms(10_000);

        // Stored at the charged value: decays.
        let flips = window_flips(&p, &c, long, 0.0, 2048, |_| charged);
        assert!(flips.contains(&bit));

        // Stored at the discharged value: nothing to lose.
        let flips = window_flips(&p, &c, long, 0.0, 2048, |_| !charged);
        assert!(!flips.contains(&bit));

        // Within retention: clean.
        let flips = window_flips(&p, &c, Nanos::from_ms(1), 0.0, 2048, |_| charged);
        assert!(flips.is_empty());
    }

    #[test]
    fn window_flips_deduplicates_hammer_and_retention() {
        let c = cfg();
        let p = RowPhysics::derive(&c, 19, 0, 2048).0;
        let flips = window_flips(&p, &c, Nanos::from_ms(60_000), p.hc_base * 50.0, 2048, |_| true);
        let mut sorted = flips.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), flips.len(), "no duplicate bit reports");
    }

    #[test]
    fn temperature_scales_retention() {
        let hot = cfg();
        let mut cool = cfg();
        cool.temperature_c = 45.0; // 40 °C cooler → 16× longer retention
        assert_eq!(hot.retention_scale(), 1.0);
        assert_eq!(cool.retention_scale(), 16.0);
        for s in 0..200 {
            let p_hot = RowPhysics::derive(&hot, 7, s, 2048).0;
            let p_cool = RowPhysics::derive(&cool, 7, s, 2048).0;
            assert_eq!(p_hot.cells.len(), p_cool.cells.len());
            for i in 0..p_hot.cells.len() {
                assert_eq!(p_hot.cells.bit(i), p_cool.cells.bit(i), "same cells, different clock");
                let ratio = p_cool.cells.retention(i).as_ns() as f64
                    / p_hot.cells.retention(i).as_ns() as f64;
                assert!((ratio - 16.0).abs() < 0.01, "ratio {ratio}");
            }
        }
    }

    #[test]
    fn heating_beyond_reference_shortens_retention() {
        let mut hotter = cfg();
        hotter.temperature_c = 95.0;
        assert_eq!(hotter.retention_scale(), 0.5);
        let p = (0..500)
            .map(|s| RowPhysics::derive(&hotter, 9, s, 2048).0)
            .find(|p| !p.cells.is_empty())
            .unwrap();
        let reference = RowPhysics::derive(&cfg(), 9, 0, 2048).0;
        let _ = reference;
        assert!(p.min_retention().unwrap() < cfg().retention_max);
    }

    #[test]
    fn aggressor_coupling_distinguishes_patterns() {
        let c = cfg();
        assert_eq!(c.aggressor_coupling(Some(&DataPattern::Ones)), 1.0);
        assert_eq!(c.aggressor_coupling(None), 1.0);
        assert!(c.aggressor_coupling(Some(&DataPattern::Checkerboard)) < 1.0);
    }

    #[test]
    fn physics_view_reports_ground_truth() {
        let c = cfg();
        let p = (0..10_000)
            .map(|s| RowPhysics::derive(&c, 23, s, 2048).0)
            .find(|p| !p.cells.is_empty())
            .unwrap();
        let view = RowPhysicsView::of(&p);
        assert_eq!(view.weak_cells.len(), p.cells.len());
        assert_eq!(view.hc_base, p.hc_base);
    }

    #[test]
    fn min_effective_cache_tracks_vrt_transitions() {
        let c = cfg();
        let brute = |p: &RowPhysics| -> Nanos {
            (0..p.cells.len())
                .map(|i| p.cells.effective_retention(i))
                .min()
                .unwrap_or(Nanos::from_ns(u64::MAX))
        };
        for s in 0..200 {
            let (mut p, mut rng) = RowPhysics::derive(&c, 29, s, 2048);
            assert_eq!(p.cells.min_effective(), brute(&p), "stale cache at derive, stream {s}");
            for _ in 0..50 {
                p.advance_vrt(&mut rng, c.vrt_switch_prob);
                assert_eq!(p.cells.min_effective(), brute(&p), "stale cache after VRT step");
            }
        }
    }
}
