//! Vendor A's counter-based TRR (§6.1 of the paper).
//!
//! Reverse-engineered behaviour reproduced here, by observation number:
//!
//! * **A1** — only every 9th `REF` performs a TRR-induced refresh.
//! * **A2** — A_TRR1 refreshes the four physically closest rows (±1, ±2);
//!   A_TRR2 refreshes two (±1).
//! * **A3** — two alternating TRR refresh types: `TREF_a` detects the
//!   table entry with the highest counter value; `TREF_b` walks the table
//!   slots with a pointer, detecting one entry per instance.
//! * **A4** — a per-bank table tracks activation counts for 16 rows.
//! * **A5** — inserting a new row evicts an existing entry. The paper
//!   infers "the entry with the smallest counter value" from an
//!   experiment in which one row is hammered 50 times *first* and 16
//!   rows 100 times each *afterwards* — an experiment that cannot
//!   distinguish smallest-count from least-recently-used eviction,
//!   because the low-count row is also the least recent. We implement
//!   **LRU eviction with per-entry activation counters**, which is the
//!   only policy also consistent with the §7.1 attack: hammering 16
//!   dummy rows after the aggressors flushes a 16-slot LRU regardless of
//!   the aggressors' counter values, and the Fig. 8 optimum of ~26
//!   hammers per aggressor falls out of the REF-interval budget
//!   arithmetic ((149 − 16·6) / 2 = 26). Under smallest-count eviction
//!   the 6-hammer dummies could never displace 24-hammer aggressors and
//!   the paper's attack could not work.
//! * **A6** — detection resets the detected entry's counter to zero.
//! * **A7** — entries persist until evicted; `TREF_b` keeps re-detecting
//!   a stale entry every 16th instance because slots are stable.

use std::fmt;

use dram_sim::metrics::TallyCounter;
use dram_sim::{Bank, MitigationEngine, Nanos, NeighborSpan, PhysRow, TrrDetection};

/// Configuration of a [`CounterTrr`] engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CounterTrrConfig {
    /// Counter-table entries per bank (Observation A4: 16).
    pub table_size: usize,
    /// Every `trr_ref_interval`-th `REF` is TRR-capable (Observation A1: 9).
    pub trr_ref_interval: u64,
    /// Neighbours refreshed per detection (Observation A2).
    pub span: NeighborSpan,
}

impl CounterTrrConfig {
    /// A_TRR1: 16 entries, every 9th REF, ±1 and ±2 victims.
    pub const fn a_trr1() -> Self {
        CounterTrrConfig { table_size: 16, trr_ref_interval: 9, span: NeighborSpan::Two }
    }

    /// A_TRR2: like A_TRR1 but only the immediate neighbours (±1).
    pub const fn a_trr2() -> Self {
        CounterTrrConfig { table_size: 16, trr_ref_interval: 9, span: NeighborSpan::One }
    }
}

/// Per-bank table state, struct-of-arrays: fixed slots so the `TREF_b`
/// pointer walk is stable under replacement.
///
/// Slots fill in index order and are never vacated (a detection only
/// zeroes a count; `reset` rebuilds the table), so slots `0..len` are
/// the occupied ones and the first empty slot is `len`. An intrusive
/// doubly linked list threads the occupied slots from least to most
/// recently activated. "First empty slot, else least recently used"
/// is therefore `len`, else the list head: O(1), and the same slot as
/// the first minimum of per-slot activation stamps (empty slots
/// stamped 0), which `tests/counter_table_equiv.rs` keeps as the
/// reference model.
#[derive(Debug, Clone)]
struct BankTable {
    rows: Vec<PhysRow>,
    counts: Vec<u64>,
    /// Occupied slots: `0..len`.
    len: usize,
    /// Recency list links: the next older / newer occupied slot, or
    /// [`NIL`] at either end.
    older: Vec<u32>,
    newer: Vec<u32>,
    /// Least and most recently activated slots ([`NIL`] when empty).
    lru: u32,
    mru: u32,
    /// `TREF_b` walk pointer (slot index).
    pointer: usize,
}

/// End-of-list marker of the [`BankTable`] recency list.
const NIL: u32 = u32::MAX;

impl BankTable {
    fn with_capacity(capacity: usize) -> Self {
        BankTable {
            rows: vec![PhysRow::new(0); capacity],
            counts: vec![0; capacity],
            len: 0,
            older: vec![NIL; capacity],
            newer: vec![NIL; capacity],
            lru: NIL,
            mru: NIL,
            pointer: 0,
        }
    }

    fn position(&self, row: PhysRow) -> Option<usize> {
        self.rows[..self.len].iter().position(|&r| r == row)
    }

    /// Records `count` back-to-back activations of `row`: exactly
    /// equivalent to `count` single activations (the first may insert by
    /// LRU eviction; the rest increment). Returns the entry the
    /// insertion displaced, if any.
    fn add(&mut self, row: PhysRow, count: u64) -> Option<PhysRow> {
        if count == 0 {
            return None;
        }
        if let Some(i) = self.position(row) {
            self.counts[i] += count;
            self.touch(i as u32);
            return None;
        }
        let (slot, evicted) = if self.len < self.rows.len() {
            let slot = self.len as u32;
            self.len += 1;
            self.push_mru(slot);
            (slot, None)
        } else {
            let slot = self.lru;
            self.touch(slot);
            (slot, Some(self.rows[slot as usize]))
        };
        self.rows[slot as usize] = row;
        self.counts[slot as usize] = count;
        evicted
    }

    /// Moves occupied `slot` to the most recent end of the list.
    fn touch(&mut self, slot: u32) {
        if slot == self.mru {
            return;
        }
        let (older, newer) = (self.older[slot as usize], self.newer[slot as usize]);
        // Not the MRU, so `newer` is a slot.
        self.older[newer as usize] = older;
        if older == NIL {
            self.lru = newer;
        } else {
            self.newer[older as usize] = newer;
        }
        self.push_mru(slot);
    }

    /// Links unlinked `slot` in as the most recent entry.
    fn push_mru(&mut self, slot: u32) {
        self.older[slot as usize] = self.mru;
        self.newer[slot as usize] = NIL;
        if self.mru == NIL {
            self.lru = slot;
        } else {
            self.newer[self.mru as usize] = slot;
        }
        self.mru = slot;
    }

    /// `TREF_a`: the highest-count entry, if any activity is recorded;
    /// the last one among equals.
    fn detect_max(&mut self) -> Option<PhysRow> {
        let counts = &self.counts[..self.len];
        let mut idx = 0;
        for i in 1..counts.len() {
            if counts[i] >= counts[idx] {
                idx = i;
            }
        }
        if counts.get(idx).is_none_or(|&c| c == 0) {
            return None;
        }
        self.counts[idx] = 0;
        Some(self.rows[idx])
    }

    /// `TREF_b`: the next occupied slot at or after the pointer (detected
    /// even with a zero counter — Observation A7), then advance the
    /// pointer. Past the occupied prefix the walk wraps to slot 0.
    fn detect_pointer(&mut self) -> Option<PhysRow> {
        if self.len == 0 {
            return None;
        }
        let idx = if self.pointer < self.len { self.pointer } else { 0 };
        self.counts[idx] = 0;
        self.pointer = (idx + 1) % self.rows.len();
        Some(self.rows[idx])
    }

    /// Occupied entries as `(row, count)`, in slot order.
    fn entries(&self) -> Vec<(PhysRow, u64)> {
        (0..self.len).map(|i| (self.rows[i], self.counts[i])).collect()
    }
}

/// Vendor A's counter-based TRR engine. See the [module docs](self).
///
/// # Example
///
/// ```
/// use dram_sim::{MitigationEngine, Bank, PhysRow, Nanos};
/// use trr::CounterTrr;
///
/// let mut e = CounterTrr::a_trr2(2);
/// e.on_activations(Bank::new(1), PhysRow::new(7), 1_000, Nanos::ZERO);
/// let mut detections = Vec::new();
/// for _ in 0..9 {
///     e.on_refresh(Nanos::ZERO, &mut detections);
/// }
/// assert_eq!(detections.len(), 1);
/// assert_eq!(detections[0].bank, Bank::new(1));
/// ```
pub struct CounterTrr {
    config: CounterTrrConfig,
    name: &'static str,
    banks: Vec<BankTable>,
    /// Indices of the banks whose table holds an entry, ascending: the
    /// only banks a `REF` can detect in.
    live: Vec<u8>,
    ref_count: u64,
    /// Alternates TREF_a / TREF_b on successive TRR-capable REFs.
    next_is_tref_a: bool,
    /// `trr.<name>.detections`.
    det_ctr: TallyCounter,
    /// `trr.<name>.evictions` — table entries displaced by LRU insertion.
    evict_ctr: TallyCounter,
    /// The attached registry, for flight-recorder eviction events.
    registry: Option<std::sync::Arc<obs::MetricsRegistry>>,
}

impl CounterTrr {
    /// Builds an engine with an explicit configuration.
    ///
    /// # Panics
    ///
    /// Panics if `table_size < 2` (the batched interleaved-pair path
    /// relies on both rows fitting in the table simultaneously).
    pub fn new(config: CounterTrrConfig, name: &'static str, banks: u8) -> Self {
        assert!(config.table_size >= 2, "counter table needs at least two entries");
        CounterTrr {
            config,
            name,
            banks: (0..banks).map(|_| BankTable::with_capacity(config.table_size)).collect(),
            live: Vec::new(),
            ref_count: 0,
            next_is_tref_a: true,
            det_ctr: TallyCounter::default(),
            evict_ctr: TallyCounter::default(),
            registry: None,
        }
    }

    /// The table of `bank`, about to take an activation: a first entry
    /// adds the bank to `live`.
    fn table_for_insert(&mut self, bank: Bank) -> &mut BankTable {
        let idx = bank.index();
        if self.banks[idx as usize].len == 0 {
            let at = self.live.partition_point(|&b| b < idx);
            self.live.insert(at, idx);
        }
        &mut self.banks[idx as usize]
    }

    /// Flight-recorder event for one LRU eviction: `evicted` lost its
    /// slot to `inserted`.
    fn trace_eviction(&self, bank: Bank, evicted: PhysRow, inserted: PhysRow, now: Nanos) {
        if let Some(registry) = &self.registry {
            registry.trace(
                obs::TraceKind::TrrEvict,
                now.as_ns(),
                bank.index() as u32,
                Some(evicted.index()),
                &[("inserted", inserted.index() as u64)],
                "",
            );
        }
    }

    /// The A_TRR1 mechanism (modules A0–A12 of Table 1).
    pub fn a_trr1(banks: u8) -> Self {
        CounterTrr::new(CounterTrrConfig::a_trr1(), "A_TRR1", banks)
    }

    /// The A_TRR2 mechanism (modules A13–A14 of Table 1).
    pub fn a_trr2(banks: u8) -> Self {
        CounterTrr::new(CounterTrrConfig::a_trr2(), "A_TRR2", banks)
    }

    /// The engine configuration.
    pub fn config(&self) -> CounterTrrConfig {
        self.config
    }

    /// Ground-truth inspection of a bank's occupied entries as
    /// `(row, count)` pairs — test support only.
    pub fn table(&self, bank: Bank) -> Vec<(PhysRow, u64)> {
        self.banks[bank.index() as usize].entries()
    }
}

impl fmt::Debug for CounterTrr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CounterTrr")
            .field("name", &self.name)
            .field("config", &self.config)
            .field("ref_count", &self.ref_count)
            .finish_non_exhaustive()
    }
}

impl MitigationEngine for CounterTrr {
    fn on_activations(&mut self, bank: Bank, row: PhysRow, count: u64, now: Nanos) {
        if count == 0 {
            return;
        }
        if let Some(evicted) = self.table_for_insert(bank).add(row, count) {
            self.evict_ctr.add(1);
            self.trace_eviction(bank, evicted, row, now);
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
        // Equivalent to the alternating loop: after the first pair both
        // rows are resident (LRU eviction cannot evict the row inserted
        // by the immediately preceding activation while older entries
        // exist — and with table size ≥ 2 one always does), so the
        // remaining activations are pure increments; only the final
        // recency order matters, with `second` activated last.
        let table = self.table_for_insert(bank);
        let mut evicted = [None, None, None, None];
        evicted[0] = table.add(first, 1);
        evicted[1] = table.add(second, 1);
        if pairs > 1 {
            evicted[2] = table.add(first, pairs - 1);
            evicted[3] = table.add(second, pairs - 1);
        }
        let evictions = evicted.iter().flatten().count() as u64;
        if evictions > 0 {
            self.evict_ctr.add(evictions);
            for (i, row) in evicted.iter().enumerate() {
                if let Some(row) = row {
                    let inserted = if i % 2 == 0 { first } else { second };
                    self.trace_eviction(bank, *row, inserted, now);
                }
            }
        }
    }

    fn on_refresh(&mut self, _now: Nanos, out: &mut Vec<TrrDetection>) {
        self.ref_count += 1;
        if !self.ref_count.is_multiple_of(self.config.trr_ref_interval) {
            return;
        }
        let tref_a = self.next_is_tref_a;
        self.next_is_tref_a = !tref_a;
        let span = self.config.span;
        let before = out.len();
        // A bank with an empty table detects nothing under either type.
        for &idx in &self.live {
            let table = &mut self.banks[idx as usize];
            let detected = if tref_a { table.detect_max() } else { table.detect_pointer() };
            if let Some(row) = detected {
                out.push(TrrDetection { bank: Bank::new(idx), aggressor: row, span });
            }
        }
        let detected = (out.len() - before) as u64;
        self.det_ctr.add(detected);
    }

    fn skip_idle_refs(&mut self, max: u64) -> u64 {
        // Every REF before the next TRR-capable one only counts itself;
        // the TRR-capable one toggles TREF_a/TREF_b even if it detects
        // nothing, so the skip stops just before it.
        let interval = self.config.trr_ref_interval;
        let idle = (interval - 1 - self.ref_count % interval).min(max);
        self.ref_count += idle;
        idle
    }

    fn attach_metrics(&mut self, registry: &std::sync::Arc<obs::MetricsRegistry>) {
        self.det_ctr.attach(registry, &format!("trr.{}.detections", self.name));
        self.evict_ctr.attach(registry, &format!("trr.{}.evictions", self.name));
        self.registry = Some(std::sync::Arc::clone(registry));
    }

    fn flush_metrics(&mut self) {
        self.det_ctr.flush();
        self.evict_ctr.flush();
    }

    fn detects_inline(&self) -> bool {
        // Counter-based TRR only acts at `REF` (tREFab/tREFsb piggyback).
        false
    }

    fn name(&self) -> &str {
        self.name
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detections_over;

    const B0: Bank = Bank::new(0);
    const T0: Nanos = Nanos::ZERO;

    fn drain_refs(e: &mut CounterTrr, refs: u64) -> Vec<(u64, TrrDetection)> {
        let mut out = Vec::new();
        for i in 0..refs {
            for d in detections_over(e, 1) {
                out.push((i + 1, d));
            }
        }
        out
    }

    #[test]
    fn attached_registry_counts_detections_and_evictions() {
        let registry = std::sync::Arc::new(obs::MetricsRegistry::new());
        let mut e = CounterTrr::a_trr1(1);
        e.attach_metrics(&registry);
        // 20 distinct rows through a 16-slot table: exactly 4 evictions.
        for i in 0..20 {
            e.on_activations(B0, PhysRow::new(i), 100, T0);
        }
        let hits = drain_refs(&mut e, 9);
        e.flush_metrics();
        assert_eq!(registry.counter("trr.A_TRR1.evictions").get(), 4);
        assert_eq!(registry.counter("trr.A_TRR1.detections").get(), hits.len() as u64);
        assert!(!hits.is_empty());
    }

    #[test]
    fn skip_idle_refs_stops_before_each_trr_capable_ref() {
        let mut skipped = 0;
        for seed in 0..300 {
            for make in [|| CounterTrr::a_trr1(2), || CounterTrr::a_trr2(2)] {
                skipped += crate::skip_contract::check(make, 2, seed, seed % 40);
            }
        }
        assert!(skipped > 0);
        // Never past the next TRR-capable REF, even with an empty table.
        let mut e = CounterTrr::a_trr1(1);
        assert_eq!(e.skip_idle_refs(100), 8);
        assert_eq!(e.skip_idle_refs(100), 0);
        assert!(detections_over(&mut e, 1).is_empty());
        assert_eq!(e.skip_idle_refs(3), 3);
    }

    #[test]
    fn only_every_ninth_ref_detects() {
        let mut e = CounterTrr::a_trr1(1);
        e.on_activations(B0, PhysRow::new(10), 5_000, T0);
        let hits = drain_refs(&mut e, 36);
        assert!(!hits.is_empty());
        for (ref_idx, _) in &hits {
            assert_eq!(ref_idx % 9, 0, "TRR only on every 9th REF, got {ref_idx}");
        }
    }

    #[test]
    fn tref_a_detects_highest_count() {
        let mut e = CounterTrr::a_trr1(1);
        e.on_activations(B0, PhysRow::new(10), 50, T0);
        e.on_activations(B0, PhysRow::new(20), 5_000, T0);
        let hits = drain_refs(&mut e, 9);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].1.aggressor, PhysRow::new(20));
    }

    #[test]
    fn detection_resets_counter_and_alternation_continues() {
        let mut e = CounterTrr::a_trr1(1);
        // Observation A6's experiment: H0 = 2K and H1 = 3K per 9 REFs.
        // The higher-count row is caught first; once reset, the other
        // row's accumulated count wins next time.
        let (r0, r1) = (PhysRow::new(10), PhysRow::new(20));
        let mut caught = Vec::new();
        for _ in 0..8 {
            for _ in 0..9 {
                e.on_activations(B0, r0, 2_000, T0);
                e.on_activations(B0, r1, 3_000, T0);
                for d in detections_over(&mut e, 1) {
                    caught.push(d.aggressor);
                }
            }
        }
        assert!(caught.contains(&r0), "reset counters let the slower row win eventually");
        assert!(caught.contains(&r1));
    }

    #[test]
    fn tref_b_walks_the_table_cyclically() {
        let mut e = CounterTrr::a_trr1(1);
        // Fill the table with 16 rows, then stop hammering entirely.
        for i in 0..16 {
            e.on_activations(B0, PhysRow::new(100 + i), 100, T0);
        }
        // TREF_b instances (every other TRR REF) keep detecting entries
        // even long after every counter has been reset (Observation A7).
        let hits = drain_refs(&mut e, 9 * 64);
        let late_hits: Vec<_> = hits.iter().filter(|(r, _)| *r > 9 * 32).collect();
        assert!(!late_hits.is_empty(), "TREF_b keeps detecting stale entries indefinitely");
        // The pointer walk revisits the same row every 16 TREF_b
        // instances: late detections cycle through all 16 rows.
        let mut late_rows: Vec<u32> = late_hits.iter().map(|(_, d)| d.aggressor.index()).collect();
        late_rows.sort_unstable();
        late_rows.dedup();
        assert_eq!(late_rows.len(), 16, "the walk covers the whole table");
    }

    #[test]
    fn eviction_drops_the_first_hammered_row() {
        // Observation A5's experiment: one row hammered 50 times, then 16
        // rows hammered 100 times each. The first row must be evicted and
        // never detected.
        let mut e = CounterTrr::a_trr1(1);
        let weak = PhysRow::new(5);
        e.on_activations(B0, weak, 50, T0);
        for i in 0..16 {
            e.on_activations(B0, PhysRow::new(100 + i), 100, T0);
        }
        let hits = drain_refs(&mut e, 9 * 40);
        assert!(
            hits.iter().all(|(_, d)| d.aggressor != weak),
            "the first-inserted row must have been evicted"
        );
    }

    #[test]
    fn table_capacity_is_sixteen() {
        let mut e = CounterTrr::a_trr1(1);
        for i in 0..16 {
            e.on_activations(B0, PhysRow::new(i), 10, T0);
        }
        assert_eq!(e.table(B0).len(), 16);
        // A 17th row enters by evicting the least recently used entry
        // (row 0 here).
        e.on_activations(B0, PhysRow::new(16), 1, T0);
        let table = e.table(B0);
        assert_eq!(table.len(), 16);
        assert!(table.iter().any(|&(row, count)| row == PhysRow::new(16) && count == 1));
        assert!(table.iter().all(|&(row, _)| row != PhysRow::new(0)));
    }

    #[test]
    fn per_bank_tables_are_independent() {
        let mut e = CounterTrr::a_trr1(2);
        e.on_activations(Bank::new(0), PhysRow::new(1), 1_000, T0);
        e.on_activations(Bank::new(1), PhysRow::new(2), 1_000, T0);
        let hits: Vec<TrrDetection> = detections_over(&mut e, 9);
        assert_eq!(hits.len(), 2, "one detection per bank on a TRR REF");
        assert_ne!(hits[0].bank, hits[1].bank);
    }

    #[test]
    fn span_matches_version() {
        assert_eq!(CounterTrr::a_trr1(1).config().span, NeighborSpan::Two);
        assert_eq!(CounterTrr::a_trr2(1).config().span, NeighborSpan::One);
    }

    #[test]
    fn batched_activations_match_singles() {
        let mut batched = CounterTrr::a_trr1(1);
        let mut singles = CounterTrr::a_trr1(1);
        // An adversarial mix of rows so evictions happen.
        let rows: Vec<PhysRow> = (0..24).map(PhysRow::new).collect();
        for (i, &row) in rows.iter().enumerate() {
            let n = (i as u64 % 7) + 1;
            batched.on_activations(B0, row, n, T0);
            for _ in 0..n {
                singles.on_activations(B0, row, 1, T0);
            }
        }
        assert_eq!(batched.table(B0), singles.table(B0));
    }

    #[test]
    fn interleaved_pair_matches_singles() {
        for fill in [0u32, 8, 16] {
            let mut batched = CounterTrr::a_trr1(1);
            let mut singles = CounterTrr::a_trr1(1);
            for e in [&mut batched, &mut singles] {
                for i in 0..fill {
                    e.on_activations(B0, PhysRow::new(1_000 + i), 6, T0);
                }
            }
            let (a, b) = (PhysRow::new(1), PhysRow::new(2));
            batched.on_interleaved_pair(B0, a, b, 24, T0);
            for _ in 0..24 {
                singles.on_activations(B0, a, 1, T0);
                singles.on_activations(B0, b, 1, T0);
            }
            assert_eq!(batched.table(B0), singles.table(B0), "fill={fill}");
        }
    }

    #[test]
    fn tref_a_detects_the_last_of_equal_maxima() {
        // `max_by_key` semantics: among equal counts the later slot wins.
        let mut e = CounterTrr::a_trr1(1);
        for row in [10, 20, 30] {
            e.on_activations(B0, PhysRow::new(row), 7, T0);
        }
        e.on_activations(B0, PhysRow::new(40), 3, T0);
        let hits = drain_refs(&mut e, 9);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].1.aggressor, PhysRow::new(30));
    }

    #[test]
    fn tref_b_walk_skips_empty_slots_and_wraps() {
        // Three entries in a 16-slot table: the pointer walks slots 0, 1,
        // 2, skips the 13 empty slots and wraps back to slot 0.
        let mut e = CounterTrr::a_trr1(1);
        for row in [10, 20, 30] {
            e.on_activations(B0, PhysRow::new(row), 5, T0);
        }
        // Ten TRR-capable REFs alternate TREF_a / TREF_b. TREF_a takes
        // the last max (30), then 20, then finds every counter reset;
        // TREF_b walks 10, 20, 30, wraps to 10, then 20.
        let walk: Vec<u32> =
            drain_refs(&mut e, 9 * 10).into_iter().map(|(_, d)| d.aggressor.index()).collect();
        assert_eq!(walk, vec![30, 10, 20, 20, 30, 10, 20]);
    }

    /// Runs the §7.1 vendor-A attack shape for `intervals` REF intervals
    /// and returns (aggressor detections, total detections).
    fn run_attack_shape(
        agg_hammers: u64,
        dummies: u32,
        dummy_hammers: u64,
        intervals: u32,
    ) -> (u32, u32) {
        let mut e = CounterTrr::a_trr1(1);
        let (a0, a1) = (PhysRow::new(500), PhysRow::new(502));
        let mut aggressor_detections = 0;
        let mut total_detections = 0;
        for _ in 0..intervals {
            e.on_activations(B0, a0, agg_hammers, T0);
            e.on_activations(B0, a1, agg_hammers, T0);
            for d in 0..dummies {
                e.on_activations(B0, PhysRow::new(1_000 + d * 4), dummy_hammers, T0);
            }
            for det in detections_over(&mut e, 1) {
                total_detections += 1;
                if det.aggressor == a0 || det.aggressor == a1 {
                    aggressor_detections += 1;
                }
            }
        }
        (aggressor_detections, total_detections)
    }

    #[test]
    fn sixteen_dummies_flush_the_aggressors() {
        // §7.1 vendor-A attack shape: 24 hammers per aggressor, then 16
        // dummy rows hammered 6 times each, every REF interval. Inserting
        // 16 rows into the 16-slot LRU always pushes both aggressors out
        // before the TRR-capable REF.
        let (agg, total) = run_attack_shape(24, 16, 6, 9 * 200);
        assert!(total > 100, "TRR keeps firing (on dummies), total {total}");
        assert_eq!(agg, 0, "aggressors must never be detected");
    }

    #[test]
    fn too_few_dummies_leave_aggressors_exposed() {
        // The Fig. 8 trade-off: spending the REF-interval budget on the
        // aggressors leaves too few dummy insertions to flush the LRU, so
        // an aggressor stays resident and its huge counter makes TREF_a
        // detect it.
        let (agg, total) = run_attack_shape(60, 4, 6, 9 * 200);
        assert!(
            agg as f64 > 0.3 * total as f64,
            "under-pressured LRU must expose aggressors: {agg}/{total}"
        );
    }
}
