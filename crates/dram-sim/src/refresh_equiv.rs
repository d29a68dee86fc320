//! Equivalence property: the event-driven bitmap-scan `refresh()` must be
//! observationally identical to the naive full-window reference
//! (`refresh_naive()`, compiled only for these tests) — same row data,
//! same metrics counters, same TRR detections — across randomized
//! command traces.
//!
//! The event-driven sweep only visits touched rows; the naive reference
//! walks every row of the window and relies on the touched-set check
//! inside `restore_existing`. Any divergence (a masking bug at window
//! boundaries, a missed bank, a double-restore) shows up as a readout,
//! counter, or detection mismatch here.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use proptest::prelude::*;

use crate::metrics::CTR_REGULAR_ROW_REFRESHES;
use crate::{
    Bank, DataPattern, MitigationEngine, Module, ModuleConfig, Nanos, NeighborSpan, PhysRow,
    RowAddr, TrrDetection,
};

/// A deterministic counter-based TRR: rows whose activation count crosses
/// the threshold are detected at the next `REF` (ties broken by row
/// order), counters cleared on detection. Every detection is also pushed
/// onto a shared log so the test can compare what the device was told.
#[derive(Debug)]
struct CountingTrr {
    acts: BTreeMap<(u8, u32), u64>,
    threshold: u64,
    log: Arc<Mutex<Vec<(u64, TrrDetection)>>>,
    refs_seen: u64,
}

impl CountingTrr {
    fn new(threshold: u64, log: Arc<Mutex<Vec<(u64, TrrDetection)>>>) -> Self {
        CountingTrr { acts: BTreeMap::new(), threshold, log, refs_seen: 0 }
    }
}

impl MitigationEngine for CountingTrr {
    fn on_activations(&mut self, bank: Bank, row: PhysRow, count: u64, _now: Nanos) {
        *self.acts.entry((bank.index(), row.index())).or_insert(0) += count;
    }

    fn on_refresh(&mut self, _now: Nanos, out: &mut Vec<TrrDetection>) {
        self.refs_seen += 1;
        let hot: Vec<(u8, u32)> =
            self.acts.iter().filter(|&(_, &n)| n >= self.threshold).map(|(&key, _)| key).collect();
        for (bank, row) in hot {
            self.acts.remove(&(bank, row));
            let det = TrrDetection {
                bank: Bank::new(bank),
                aggressor: PhysRow::new(row),
                span: NeighborSpan::One,
            };
            self.log.lock().unwrap().push((self.refs_seen, det));
            out.push(det);
        }
    }

    fn name(&self) -> &str {
        "counting-test"
    }
}

/// One step of a randomized command trace.
#[derive(Debug, Clone)]
enum Op {
    Write(u32, bool),
    Hammer(u32, u64),
    Advance(u64),
    Refresh(u32),
}

fn op_strategy(rows: u32) -> impl Strategy<Value = Op> {
    prop_oneof![
        (0..rows, any::<bool>()).prop_map(|(r, ones)| Op::Write(r, ones)),
        (0..rows, 1u64..300).prop_map(|(r, n)| Op::Hammer(r, n)),
        (1u64..5_000u64).prop_map(Op::Advance),
        // Bursts long enough to push the round-robin pointer through
        // multiple windows, including the wrap.
        (1u32..40).prop_map(Op::Refresh),
    ]
}

/// Final observable state of one trace run: per-row readouts of every
/// written row, the per-REF detection log, the registry's counters after
/// a flush, and the clock.
type TraceOutcome = (Vec<(u32, Vec<u32>)>, Vec<(u64, TrrDetection)>, Vec<(String, u64)>, Nanos);

/// Runs `ops` against a fresh module; `event_driven` selects which
/// refresh implementation services the Refresh steps.
fn run_trace(seed: u64, ops: &[Op], event_driven: bool) -> TraceOutcome {
    let log = Arc::new(Mutex::new(Vec::new()));
    let engine = Box::new(CountingTrr::new(600, Arc::clone(&log)));
    let mut m = Module::with_engine(ModuleConfig::small_test(), engine, seed);
    let bank = Bank::new(0);
    let mut written: Vec<u32> = Vec::new();
    for op in ops {
        match *op {
            Op::Write(r, ones) => {
                let pattern = if ones { DataPattern::Ones } else { DataPattern::Zeros };
                m.write_row(bank, RowAddr::new(r), pattern).unwrap();
                if !written.contains(&r) {
                    written.push(r);
                }
            }
            Op::Hammer(r, n) => m.hammer(bank, RowAddr::new(r), n).unwrap(),
            Op::Advance(us) => m.advance(Nanos::from_us(us)),
            Op::Refresh(n) => {
                for _ in 0..n {
                    if event_driven {
                        m.refresh();
                    } else {
                        m.refresh_naive();
                    }
                }
            }
        }
    }
    let mut readouts = Vec::with_capacity(written.len());
    written.sort_unstable();
    for &r in &written {
        readouts.push((r, m.read_row(bank, RowAddr::new(r)).unwrap().flipped_bits().to_vec()));
    }
    m.flush_metrics();
    let counters = m.registry().counters_snapshot();
    let now = m.now();
    let log = log.lock().unwrap().clone();
    (readouts, log, counters, now)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The bitmap-scan refresh and the naive full-window walk agree on
    /// every observable: row contents, device counters, simulated time,
    /// and the exact TRR detections (per REF) the engine produced.
    #[test]
    fn event_driven_refresh_matches_naive_reference(
        seed in 0u64..300,
        ops in prop::collection::vec(op_strategy(512), 1..40),
    ) {
        let (fast_rows, fast_log, fast_counters, fast_now) = run_trace(seed, &ops, true);
        let (ref_rows, ref_log, ref_counters, ref_now) = run_trace(seed, &ops, false);
        prop_assert_eq!(fast_rows, ref_rows, "row data diverged");
        prop_assert_eq!(fast_log, ref_log, "TRR detections diverged");
        prop_assert_eq!(fast_counters, ref_counters, "device counters diverged");
        prop_assert_eq!(fast_now, ref_now, "sim clocks diverged");
    }
}

/// A full refresh period restores the same number of rows (every touched
/// row — including rows touched only through neighbor disturbance —
/// exactly once) under both implementations.
#[test]
fn full_period_restore_counts_match() {
    let count = |event_driven: bool| {
        let mut m = Module::new(ModuleConfig::small_test(), 5);
        let bank = Bank::new(0);
        for r in [0u32, 17, 300, 511] {
            m.write_row(bank, RowAddr::new(r), DataPattern::Ones).unwrap();
        }
        let restored = |m: &mut Module| {
            m.flush_metrics();
            m.registry().counter(CTR_REGULAR_ROW_REFRESHES).get()
        };
        let before = restored(&mut m);
        for _ in 0..m.config().refresh.period_refs {
            if event_driven {
                m.refresh();
            } else {
                m.refresh_naive();
            }
        }
        restored(&mut m) - before
    };
    let fast = count(true);
    let naive = count(false);
    assert_eq!(fast, naive);
    assert!(fast >= 4, "at least the four written rows are covered, got {fast}");
}
