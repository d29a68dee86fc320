//! Graphene — counter-based RowHammer protection with a deterministic
//! guarantee (Park et al., MICRO 2020), one of the "more secure
//! alternatives" the paper's conclusion points towards.
//!
//! Graphene keeps a Misra-Gries heavy-hitter table per bank with a
//! spillover counter. Every activation of a tracked row increments its
//! counter; an untracked activation either claims an entry whose count
//! equals the spillover value or increments the spillover. Whenever a
//! row's counter crosses a multiple of the threshold `T`, its neighbours
//! are refreshed *immediately* (ACT-synchronous, via the inline-detection
//! hook). The Misra-Gries invariant guarantees no row can be activated
//! `T + W/table_size` times without a refresh (`W` = activations per
//! window), so choosing `T` well below `HC_first` gives a deterministic
//! bound — there is no table to flush with 16 dummy rows and no sampler
//! to steal: the U-TRR custom patterns gain nothing.
//!
//! Counters reset every refresh window, tracked via `REF` counts.

use std::fmt;

use dram_sim::metrics::TallyCounter;
use dram_sim::{Bank, MitigationEngine, Nanos, NeighborSpan, PhysRow, TrrDetection};

/// Configuration of a [`Graphene`] engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GrapheneConfig {
    /// Tracked rows per bank.
    pub table_size: usize,
    /// Activation count at which a tracked row's neighbours are
    /// refreshed (choose ≤ `HC_first / 2` for a safety margin).
    pub threshold: u64,
    /// Counters reset every this many `REF` commands (one refresh
    /// window).
    pub window_refs: u64,
}

impl GrapheneConfig {
    /// A configuration protecting a module with the given `HC_first`:
    /// threshold at a quarter of it, a table sized for the worst-case
    /// activation budget of one refresh window.
    pub fn for_hc_first(hc_first: u64) -> Self {
        let threshold = (hc_first / 4).max(16);
        // W / threshold entries suffice for the Misra-Gries bound; one
        // window holds ~8192 × 149 single-bank activations.
        let table_size = ((8_192u64 * 149).div_ceil(threshold) as usize).clamp(8, 4_096);
        GrapheneConfig { table_size, threshold, window_refs: 8_192 }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Entry {
    row: PhysRow,
    count: u64,
}

#[derive(Debug, Clone, Default)]
struct BankTable {
    entries: Vec<Entry>,
    spillover: u64,
}

impl BankTable {
    /// Records `count` activations of `row`, returning `true` when the
    /// row's counter crossed a threshold multiple. A batch that crosses
    /// several multiples coalesces into one detection; since batches are
    /// bounded by the per-interval activation budget (far below any sane
    /// threshold), the detection bound degrades by at most one batch.
    fn add(&mut self, row: PhysRow, count: u64, config: &GrapheneConfig) -> bool {
        if let Some(e) = self.entries.iter_mut().find(|e| e.row == row) {
            let crossed = (e.count + count) / config.threshold > e.count / config.threshold;
            e.count += count;
            return crossed;
        }
        if self.entries.len() < config.table_size {
            self.entries.push(Entry { row, count });
            return count >= config.threshold;
        }
        // Misra-Gries: replaying the batch one activation at a time, the
        // spillover rises by one per unmatched arrival until it reaches
        // some entry's count, at which point that entry is claimed and
        // the rest of the batch increments it. Batched equivalently: any
        // entry whose count lies in [spillover, spillover + count) gets
        // claimed (lowest such count = the first reached), and the
        // claimed row ends at spillover + count either way.
        let claimable = self
            .entries
            .iter_mut()
            .filter(|e| e.count >= self.spillover && e.count < self.spillover + count)
            .min_by_key(|e| e.count);
        if let Some(e) = claimable {
            let inherited = self.spillover + count;
            let crossed = inherited / config.threshold > e.count / config.threshold;
            self.spillover = e.count;
            *e = Entry { row, count: inherited };
            crossed
        } else {
            // No entry in reach: the whole batch feeds the spillover.
            self.spillover += count;
            false
        }
    }

    fn reset(&mut self) {
        self.entries.clear();
        self.spillover = 0;
    }
}

/// The Graphene engine. See the [module docs](self).
///
/// # Example
///
/// ```
/// use dram_sim::{MitigationEngine, Bank, PhysRow, Nanos};
/// use trr::{Graphene, GrapheneConfig};
///
/// let mut e = Graphene::new(GrapheneConfig::for_hc_first(10_000), 1);
/// e.on_activations(Bank::new(0), PhysRow::new(5), 2_500, Nanos::ZERO);
/// let mut detections = Vec::new();
/// e.take_inline_detections(&mut detections);
/// assert_eq!(detections.len(), 1); // threshold crossed
/// ```
pub struct Graphene {
    config: GrapheneConfig,
    banks: Vec<BankTable>,
    ref_count: u64,
    pending: Vec<TrrDetection>,
    /// `trr.Graphene.detections`.
    det_ctr: TallyCounter,
}

impl Graphene {
    /// Creates a Graphene engine. Bank tables are created on demand.
    pub fn new(config: GrapheneConfig, banks: u8) -> Self {
        Graphene {
            config,
            banks: (0..banks).map(|_| BankTable::default()).collect(),
            ref_count: 0,
            pending: Vec::new(),
            det_ctr: TallyCounter::default(),
        }
    }

    /// The engine configuration.
    pub fn config(&self) -> GrapheneConfig {
        self.config
    }

    fn observe(&mut self, bank: Bank, row: PhysRow, count: u64) {
        let config = self.config;
        let crossed = self.banks[bank.index() as usize].add(row, count, &config);
        if crossed {
            self.pending.push(TrrDetection { bank, aggressor: row, span: NeighborSpan::One });
            self.det_ctr.add(1);
        }
    }
}

impl fmt::Debug for Graphene {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Graphene").field("config", &self.config).finish_non_exhaustive()
    }
}

impl MitigationEngine for Graphene {
    fn on_activations(&mut self, bank: Bank, row: PhysRow, count: u64, _now: Nanos) {
        if count == 0 {
            return;
        }
        self.observe(bank, row, count);
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
        self.observe(bank, first, pairs);
        self.observe(bank, second, pairs);
    }

    fn on_refresh(&mut self, _now: Nanos, _out: &mut Vec<TrrDetection>) {
        self.ref_count += 1;
        if self.ref_count.is_multiple_of(self.config.window_refs) {
            for table in &mut self.banks {
                table.reset();
            }
        }
    }

    fn skip_idle_refs(&mut self, max: u64) -> u64 {
        // Graphene detects inline only; a REF at most clears the tables
        // at a window boundary (idempotent, so once per skip suffices).
        let to_reset = self.config.window_refs - self.ref_count % self.config.window_refs;
        if max >= to_reset {
            for table in &mut self.banks {
                table.reset();
            }
        }
        self.ref_count += max;
        max
    }

    fn take_inline_detections(&mut self, out: &mut Vec<TrrDetection>) {
        out.append(&mut self.pending);
    }

    fn attach_metrics(&mut self, registry: &std::sync::Arc<obs::MetricsRegistry>) {
        self.det_ctr.attach(registry, "trr.Graphene.detections");
    }

    fn flush_metrics(&mut self) {
        self.det_ctr.flush();
    }

    fn name(&self) -> &str {
        "Graphene"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const B0: Bank = Bank::new(0);
    const T0: Nanos = Nanos::ZERO;

    fn config() -> GrapheneConfig {
        GrapheneConfig { table_size: 8, threshold: 100, window_refs: 1_024 }
    }

    #[test]
    fn threshold_crossing_fires_immediately() {
        let (mut e, mut det) = (Graphene::new(config(), 1), Vec::new());
        e.on_activations(B0, PhysRow::new(5), 99, T0);
        e.take_inline_detections(&mut det);
        assert!(det.is_empty());
        e.on_activations(B0, PhysRow::new(5), 1, T0);
        e.take_inline_detections(&mut det);
        assert_eq!(det.len(), 1);
        assert_eq!(det[0].aggressor, PhysRow::new(5));
    }

    #[test]
    fn every_threshold_multiple_fires() {
        let (mut e, mut det) = (Graphene::new(config(), 1), Vec::new());
        for _ in 0..10 {
            e.on_activations(B0, PhysRow::new(5), 100, T0);
            e.take_inline_detections(&mut det);
        }
        assert_eq!(det.len(), 10);
    }

    #[test]
    fn no_row_exceeds_threshold_plus_spill_without_detection() {
        // The Misra-Gries guarantee: hammer many distinct rows; any row
        // that accumulates threshold activations while tracked fires.
        let (mut e, mut det) = (Graphene::new(config(), 1), Vec::new());
        // 20 rows against an 8-entry table, each hammered in small bursts.
        for _ in 0..50 {
            for r in 0..20u32 {
                e.on_activations(B0, PhysRow::new(r), 10, T0);
                e.take_inline_detections(&mut det);
            }
        }
        assert!(!det.is_empty(), "sustained pressure must trigger refreshes");
    }

    #[test]
    fn window_reset_clears_counters() {
        let (mut e, mut det) = (Graphene::new(config(), 1), Vec::new());
        e.on_activations(B0, PhysRow::new(5), 99, T0);
        for _ in 0..1_024 {
            e.on_refresh(T0, &mut det);
        }
        e.on_activations(B0, PhysRow::new(5), 99, T0);
        e.take_inline_detections(&mut det);
        assert!(det.is_empty(), "counters were reset at the window");
    }

    #[test]
    fn per_bank_tables() {
        let (mut e, mut det) = (Graphene::new(config(), 2), Vec::new());
        e.on_activations(Bank::new(0), PhysRow::new(5), 99, T0);
        e.on_activations(Bank::new(1), PhysRow::new(5), 1, T0);
        e.take_inline_detections(&mut det);
        assert!(det.is_empty(), "banks do not share counters");
    }

    #[test]
    fn sizing_helper_tracks_hc_first() {
        let weak = GrapheneConfig::for_hc_first(6_000);
        let strong = GrapheneConfig::for_hc_first(100_000);
        assert!(weak.threshold < strong.threshold);
        assert!(weak.table_size > strong.table_size);
    }
}
