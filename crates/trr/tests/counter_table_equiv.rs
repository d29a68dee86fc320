//! Equivalence property: [`CounterTrr`]'s O(1) table (a fill count
//! plus an intrusive recency list) must behave exactly like the linear
//! table it replaced — `position` by scanning every slot, insertion
//! into the first minimum of per-slot activation stamps (empty slots
//! stamped 0) — which lives on below as the reference model. Random
//! sequences of bursts, interleaved pairs, `REF`s (both `TREF_a` and
//! `TREF_b`) must give identical detections, evictions (row,
//! inserted row and order) and `table()` entries, for 1–4 banks and
//! table sizes 2..=17.
//!
//! The `device_twins` suite cannot catch an LRU slip: both sides of
//! each of its twins run through the same table.

use std::sync::Arc;

use dram_sim::{Bank, MitigationEngine, Nanos, NeighborSpan, PhysRow, TrrDetection};
use obs::{FlightRecorder, MetricsRegistry, TraceKind};
use proptest::prelude::*;
use trr::{CounterTrr, CounterTrrConfig};

/// One counter table as it was: slots stamped with the activation
/// sequence number of their latest activation, 0 while empty.
#[derive(Debug, Clone)]
struct RefTable {
    rows: Vec<PhysRow>,
    counts: Vec<u64>,
    last_used: Vec<u64>,
    pointer: usize,
    seq: u64,
}

impl RefTable {
    fn new(capacity: usize) -> Self {
        RefTable {
            rows: vec![PhysRow::new(0); capacity],
            counts: vec![0; capacity],
            last_used: vec![0; capacity],
            pointer: 0,
            seq: 0,
        }
    }

    fn occupied(&self, slot: usize) -> bool {
        self.last_used[slot] != 0
    }

    fn add(&mut self, row: PhysRow, count: u64) -> Option<PhysRow> {
        if count == 0 {
            return None;
        }
        self.seq += count;
        let seq = self.seq;
        if let Some(i) = (0..self.rows.len()).find(|&i| self.rows[i] == row && self.occupied(i)) {
            self.counts[i] += count;
            self.last_used[i] = seq;
            return None;
        }
        // First empty slot, else least recently used: the first minimum.
        let mut slot = 0;
        for i in 1..self.last_used.len() {
            if self.last_used[i] < self.last_used[slot] {
                slot = i;
            }
        }
        let evicted = self.occupied(slot).then_some(self.rows[slot]);
        self.rows[slot] = row;
        self.counts[slot] = count;
        self.last_used[slot] = seq;
        evicted
    }

    fn detect_max(&mut self) -> Option<PhysRow> {
        let mut idx = 0;
        for i in 1..self.counts.len() {
            if self.counts[i] >= self.counts[idx] {
                idx = i;
            }
        }
        if self.counts[idx] == 0 {
            return None;
        }
        self.counts[idx] = 0;
        Some(self.rows[idx])
    }

    fn detect_pointer(&mut self) -> Option<PhysRow> {
        let size = self.rows.len();
        for probe in 0..size {
            let idx = (self.pointer + probe) % size;
            if self.occupied(idx) {
                self.counts[idx] = 0;
                self.pointer = (idx + 1) % size;
                return Some(self.rows[idx]);
            }
        }
        None
    }

    fn entries(&self) -> Vec<(PhysRow, u64)> {
        (0..self.rows.len())
            .filter(|&i| self.occupied(i))
            .map(|i| (self.rows[i], self.counts[i]))
            .collect()
    }
}

/// The whole engine over [`RefTable`]s: every bank visited on a
/// TRR-capable `REF`, and the interleaved pair as its four insertions.
struct RefEngine {
    config: CounterTrrConfig,
    banks: Vec<RefTable>,
    ref_count: u64,
    next_is_tref_a: bool,
    /// `(bank, evicted, inserted)`, in eviction order.
    evictions: Vec<(u32, u32, u32)>,
}

impl RefEngine {
    fn new(config: CounterTrrConfig, banks: u8) -> Self {
        RefEngine {
            config,
            banks: (0..banks).map(|_| RefTable::new(config.table_size)).collect(),
            ref_count: 0,
            next_is_tref_a: true,
            evictions: Vec::new(),
        }
    }

    fn add(&mut self, bank: Bank, row: PhysRow, count: u64) {
        if let Some(evicted) = self.banks[bank.index() as usize].add(row, count) {
            self.evictions.push((bank.index() as u32, evicted.index(), row.index()));
        }
    }

    fn pair(&mut self, bank: Bank, first: PhysRow, second: PhysRow, pairs: u64) {
        if pairs == 0 {
            return;
        }
        self.add(bank, first, 1);
        self.add(bank, second, 1);
        if pairs > 1 {
            self.add(bank, first, pairs - 1);
            self.add(bank, second, pairs - 1);
        }
    }

    fn refresh(&mut self) -> Vec<TrrDetection> {
        self.ref_count += 1;
        if !self.ref_count.is_multiple_of(self.config.trr_ref_interval) {
            return Vec::new();
        }
        let tref_a = self.next_is_tref_a;
        self.next_is_tref_a = !tref_a;
        let span = self.config.span;
        let mut out = Vec::new();
        for (idx, table) in self.banks.iter_mut().enumerate() {
            let detected = if tref_a { table.detect_max() } else { table.detect_pointer() };
            if let Some(aggressor) = detected {
                out.push(TrrDetection { bank: Bank::new(idx as u8), aggressor, span });
            }
        }
        out
    }
}

/// One step of a random engine trace. Rows are offsets into a pool a
/// little larger than the table, so hits, fills and evictions all occur.
#[derive(Debug, Clone)]
enum Op {
    Burst(u8, u32, u64),
    Pair(u8, u32, u32, u64),
    Refs(u32),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u8..4, 0u32..40, 0u64..=40).prop_map(|(b, r, n)| Op::Burst(b, r, n)),
        (0u8..4, 0u32..40, 1u32..6, 0u64..=40).prop_map(|(b, r, d, n)| Op::Pair(b, r, d, n)),
        (1u32..=12).prop_map(Op::Refs),
        Just(Op::Refs(9)),
    ]
}

/// Runs `ops` through the engine and the reference model and checks
/// they agree after every step. Returns the evictions seen.
fn check(table_size: usize, banks: u8, interval: u64, pool: u32, ops: &[Op]) -> usize {
    let config =
        CounterTrrConfig { table_size, trr_ref_interval: interval, span: NeighborSpan::Two };
    let registry = Arc::new(MetricsRegistry::new());
    registry.install_recorder(Arc::new(FlightRecorder::unfiltered()));
    let mut engine = CounterTrr::new(config, "A_TRR1", banks);
    engine.attach_metrics(&registry);
    let mut model = RefEngine::new(config, banks);
    let row = |r: u32| PhysRow::new(r % pool);
    for (step, op) in ops.iter().enumerate() {
        let ctx =
            format!("size {table_size} banks {banks} interval {interval} step {step}: {op:?}");
        match *op {
            Op::Burst(b, r, n) => {
                let bank = Bank::new(b % banks);
                engine.on_activations(bank, row(r), n, Nanos::ZERO);
                model.add(bank, row(r), n);
            }
            Op::Pair(b, r, d, n) => {
                let bank = Bank::new(b % banks);
                engine.on_interleaved_pair(bank, row(r), row(r + d), n, Nanos::ZERO);
                model.pair(bank, row(r), row(r + d), n);
            }
            Op::Refs(n) => {
                for _ in 0..n {
                    let mut out = Vec::new();
                    engine.on_refresh(Nanos::ZERO, &mut out);
                    assert_eq!(out, model.refresh(), "detections: {ctx}");
                }
            }
        }
        for b in 0..banks {
            let bank = Bank::new(b);
            assert_eq!(engine.table(bank), model.banks[b as usize].entries(), "table: {ctx}");
        }
    }
    let (events, dropped) = registry.recorder().expect("installed").snapshot();
    assert_eq!(dropped, 0, "the recorder holds every eviction");
    let evictions: Vec<(u32, u32, u32)> = events
        .iter()
        .filter(|e| e.kind == TraceKind::TrrEvict)
        .map(|e| (e.bank, e.row.expect("evicted row"), e.fields[0].1 as u32))
        .collect();
    assert_eq!(evictions, model.evictions, "evictions");
    engine.flush_metrics();
    assert_eq!(registry.counter("trr.A_TRR1.evictions").get(), model.evictions.len() as u64);
    evictions.len()
}

/// `PROPTEST_CASES` when set (CI runs the suite in release with 4096),
/// otherwise 1280 cases of up to 400 ops: about 256,000 table operations,
/// still a few seconds in a debug build.
fn config() -> ProptestConfig {
    if std::env::var_os("PROPTEST_CASES").is_some() {
        ProptestConfig::default()
    } else {
        ProptestConfig::with_cases(1280)
    }
}

proptest! {
    #![proptest_config(config())]

    /// The O(1) table and the linear reference agree on every
    /// detection, eviction and table entry.
    #[test]
    fn counter_table_matches_the_linear_reference(
        table_size in 2usize..=17,
        banks in 1u8..=4,
        interval in 1u64..=9,
        extra in 1u32..=8,
        ops in prop::collection::vec(op_strategy(), 1..=400),
    ) {
        check(table_size, banks, interval, table_size as u32 + extra, &ops);
    }
}

/// A fixed §7.1-shaped trace: two aggressors and more dummies than
/// slots every interval, so every interval evicts.
#[test]
fn attack_shaped_trace_evicts_identically() {
    let mut ops = Vec::new();
    for interval in 0..40u32 {
        ops.push(Op::Burst(0, 500, 24));
        ops.push(Op::Burst(0, 502, 24));
        for d in 0..18 {
            ops.push(Op::Burst(0, 1_000 + 4 * d + interval % 3, 6));
        }
        ops.push(Op::Pair(1, 7, 2, 30));
        ops.push(Op::Refs(1));
    }
    let evictions = check(16, 2, 3, u32::MAX, &ops);
    assert!(evictions > 40 * 2, "the trace must evict, got {evictions}");
}
