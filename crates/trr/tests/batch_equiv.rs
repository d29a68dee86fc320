//! Equivalence property: one `Module::hammer_batch(bank, ops)` must be
//! observationally identical to issuing the same ops one call at a time
//! (`hammer`, `hammer_pair`, and a one-op batch for other-bank ops) —
//! same row data, `ModuleStats`, registry counters and histograms,
//! clock, activation count, event log and the detections of the next 64
//! `REF`s — for every shipped engine. The op lists include zero doses,
//! pairs whose two rows coincide, other-bank ops and out-of-range
//! addresses: on an error the batch must have run (and counted) exactly
//! the ops before it, like the one-call loop that stops there.

use std::sync::Arc;

use dram_sim::{
    Bank, DataPattern, DramError, HammerOp, MitigationEngine, Module, ModuleConfig, ModuleStats,
    Nanos, NoMitigation, RowAddr,
};
use obs::{EventRecord, FlightRecorder, HistogramSnapshot, MetricsRegistry, TraceEvent};
use proptest::prelude::*;
use trr::{Graphene, GrapheneConfig, Para};

/// Every engine the device can carry: the unmitigated chip, the eight
/// Table-1 TRR versions and the two ACT-synchronous mitigations.
const ENGINES: [&str; 11] = [
    "none", "A_TRR1", "A_TRR2", "B_TRR1", "B_TRR2", "B_TRR3", "C_TRR1", "C_TRR2", "C_TRR3", "PARA",
    "Graphene",
];

/// Rows the batches work on: a cluster, so hammers disturb written rows
/// and TRR victims overlap.
const ROWS: std::ops::Range<u32> = 96..160;

/// A row past the end of the test geometry's 1024-row banks.
const OUT_OF_RANGE: u32 = 5_000;

fn engine(name: &str, banks: u8, seed: u64) -> Box<dyn MitigationEngine> {
    match name {
        "none" => Box::new(NoMitigation),
        "PARA" => Box::new(Para::new(0.01, seed)),
        "Graphene" => Box::new(Graphene::new(
            GrapheneConfig { window_refs: 700, ..GrapheneConfig::for_hc_first(1_000) },
            banks,
        )),
        version => trr::engine_for_version(version, banks, seed),
    }
}

/// One step between batches.
#[derive(Debug, Clone)]
enum Step {
    Write(u8, u32, u8),
    Batch(u8, Vec<HammerOp>),
    Refresh(u64),
    Advance(u64),
}

/// A cluster row, or one time in 25 a row past the end of the bank.
fn row() -> impl Strategy<Value = RowAddr> {
    (0u32..25, ROWS).prop_map(|(pick, r)| RowAddr::new(if pick == 0 { OUT_OF_RANGE } else { r }))
}

/// Mostly interval-sized doses, with zero doses and long bursts mixed in.
fn dose() -> impl Strategy<Value = u64> {
    (0u8..8, 1u64..200, 1_000u64..3_000).prop_map(|(pick, short, long)| match pick {
        0 => 0,
        1 => long,
        _ => short,
    })
}

fn op() -> impl Strategy<Value = HammerOp> {
    prop_oneof![
        (row(), dose()).prop_map(|(row, acts)| HammerOp::Burst { row, acts }),
        // Offset 0 pairs a row with itself: the degenerate case.
        (row(), 0u32..4, dose()).prop_map(|(first, offset, pairs)| HammerOp::Pair {
            first,
            second: RowAddr::new(first.index() + offset),
            pairs,
        }),
        // Bank 2 does not exist in the two-bank test geometry.
        (0u8..8, row(), dose()).prop_map(|(pick, row, acts)| {
            let bank = Bank::new(match pick {
                0 => 0,
                1 => 2,
                _ => 1,
            });
            HammerOp::OtherBank { bank, row, acts }
        }),
    ]
}

fn step() -> impl Strategy<Value = Step> {
    prop_oneof![
        (0u8..2, ROWS, 0u8..3).prop_map(|(b, r, p)| Step::Write(b, r, p)),
        (0u8..2, prop::collection::vec(op(), 0..24)).prop_map(|(b, ops)| Step::Batch(b, ops)),
        (0u8..2, prop::collection::vec(op(), 0..24)).prop_map(|(b, ops)| Step::Batch(b, ops)),
        (1u64..40).prop_map(Step::Refresh),
        (1u64..150_000).prop_map(Step::Advance),
    ]
}

/// Everything a run exposes.
#[derive(Debug, PartialEq)]
struct Outcome {
    results: Vec<Result<(), DramError>>,
    stats: ModuleStats,
    activations: u64,
    counters: Vec<(String, u64)>,
    histograms: Vec<(String, HistogramSnapshot)>,
    now: Nanos,
    events: (Vec<EventRecord>, u64),
    trace: Vec<TraceEvent>,
    readouts: Vec<Vec<u32>>,
}

/// Issues `ops` one call per op, stopping at the first error.
fn one_call_per_op(m: &mut Module, bank: Bank, ops: &[HammerOp]) -> Result<(), DramError> {
    for &op in ops {
        match op {
            HammerOp::Burst { row, acts } => m.hammer(bank, row, acts)?,
            HammerOp::Pair { first, second, pairs } => m.hammer_pair(bank, first, second, pairs)?,
            HammerOp::OtherBank { .. } => m.hammer_batch(bank, &[op])?,
        }
    }
    Ok(())
}

/// Runs `steps` on a fresh module; `batched` selects whether each batch
/// goes through one `hammer_batch` or one call per op.
fn run(engine_name: &str, seed: u64, steps: &[Step], batched: bool, traced: bool) -> Outcome {
    let config = ModuleConfig::small_test();
    let banks = config.geometry.banks;
    let registry = MetricsRegistry::shared();
    registry.set_detail(true);
    if traced {
        registry.install_recorder(Arc::new(FlightRecorder::unfiltered()));
    }
    let mut m = Module::with_engine(config, engine(engine_name, banks, seed), seed);
    m.attach_registry(Arc::clone(&registry));
    let mut results = Vec::new();
    for step in steps {
        match step {
            &Step::Write(b, r, p) => {
                let pattern = [DataPattern::Ones, DataPattern::Zeros, DataPattern::Checkerboard];
                m.write_row(Bank::new(b), RowAddr::new(r), pattern[p as usize].clone()).unwrap();
            }
            Step::Batch(b, ops) if batched => results.push(m.hammer_batch(Bank::new(*b), ops)),
            Step::Batch(b, ops) => results.push(one_call_per_op(&mut m, Bank::new(*b), ops)),
            &Step::Refresh(n) => m.refresh_burst_at_refi(n),
            &Step::Advance(us) => m.advance(Nanos::from_us(us)),
        }
    }
    let (stats, activations) = (m.stats(), m.activations());
    let (counters, histograms) = (registry.counters_snapshot(), registry.histograms_snapshot());
    let now = m.now();
    // The next 64 REFs: their detections land in the event log.
    for _ in 0..64 {
        m.refresh();
    }
    let mut readouts = Vec::new();
    for b in 0..banks {
        for r in ROWS.start - 2..ROWS.end + 6 {
            readouts
                .push(m.read_row(Bank::new(b), RowAddr::new(r)).unwrap().flipped_bits().to_vec());
        }
    }
    let trace = registry.recorder().map(|rec| rec.snapshot().0).unwrap_or_default();
    Outcome {
        results,
        stats,
        activations,
        counters,
        histograms,
        now,
        events: registry.events_snapshot(),
        trace,
        readouts,
    }
}

/// `PROPTEST_CASES` when set (CI runs the suite in release with 512),
/// otherwise few enough cases for a debug build.
fn config() -> ProptestConfig {
    if std::env::var_os("PROPTEST_CASES").is_some() {
        ProptestConfig::default()
    } else {
        ProptestConfig::with_cases(32)
    }
}

proptest! {
    #![proptest_config(config())]

    /// A batch and one call per op agree on every observable, for every
    /// engine.
    #[test]
    fn batch_matches_one_call_per_op(
        engine_idx in 0usize..ENGINES.len(),
        seed in 0u64..1_000,
        steps in prop::collection::vec(step(), 1..20),
    ) {
        let name = ENGINES[engine_idx];
        let batched = run(name, seed, &steps, true, false);
        let single = run(name, seed, &steps, false, false);
        prop_assert_eq!(batched, single, "engine {} seed {}", name, seed);
    }
}

/// A fixed trace of §7.1-shaped intervals — cascaded bursts, an
/// interleaved pair, other-bank diversions — plus the edge cases, long
/// enough for every engine to detect and flip.
fn fixed_trace() -> Vec<Step> {
    let burst = |r: u32, acts| HammerOp::Burst { row: RowAddr::new(r), acts };
    let pair = |a: u32, b: u32, pairs| HammerOp::Pair {
        first: RowAddr::new(a),
        second: RowAddr::new(b),
        pairs,
    };
    let other = |b: u8, r: u32, acts| HammerOp::OtherBank {
        bank: Bank::new(b),
        row: RowAddr::new(r),
        acts,
    };
    let mut steps = vec![Step::Write(0, 120, 0), Step::Write(0, 130, 1), Step::Write(1, 121, 2)];
    for interval in 0..400u32 {
        let mut ops = vec![burst(119, 24), burst(121, 24)];
        ops.extend((0..16).map(|d| burst(100 + 3 * d, 6)));
        ops.extend([pair(129, 131, 40), pair(140, 140, 3), burst(150, 0), other(1, 122, 12)]);
        if interval % 97 == 0 {
            // An error mid-batch: the prefix runs, the rest does not.
            ops.insert(5, burst(OUT_OF_RANGE, 1));
        }
        steps.push(Step::Batch(0, ops));
        steps.push(Step::Refresh(1));
    }
    steps.push(Step::Advance(100_000));
    steps.push(Step::Refresh(50));
    steps
}

/// Every engine on the fixed trace.
#[test]
fn every_engine_matches_on_a_fixed_trace() {
    let steps = fixed_trace();
    for name in ENGINES {
        let batched = run(name, 3, &steps, true, false);
        assert_eq!(batched.results.iter().filter(|r| r.is_err()).count(), 5, "{name}");
        assert!(batched.stats.activations > 50_000, "{name}: the trace hammers");
        assert_eq!(batched, run(name, 3, &steps, false, false), "{name}");
    }
}

/// With a flight recorder attached every op keeps its own `Act` event,
/// in order, so the batched trace equals the one-call trace.
#[test]
fn traced_batch_keeps_per_op_events() {
    let steps = fixed_trace();
    for name in ["A_TRR1", "B_TRR1", "Graphene"] {
        let batched = run(name, 3, &steps, true, true);
        let acts = batched.trace.iter().filter(|e| e.kind == obs::TraceKind::Act).count();
        assert!(acts > 1_000, "{name}: one Act event per op, got {acts}");
        assert_eq!(batched, run(name, 3, &steps, false, true), "{name}");
    }
}
