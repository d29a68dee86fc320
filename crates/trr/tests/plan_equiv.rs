//! Equivalence property: a hammer program resolved once per phase
//! (`Module::plan`) and replayed every `tREFI` interval
//! (`Module::run_plan`), as the §7 harness runs a pattern, must be
//! observationally identical to issuing the same ops one call per op in
//! every interval (`hammer`, `hammer_pair`, and a one-op batch for
//! other-bank ops) — same row data, registry counters, clock, `ACT` and
//! `REF` counts and flight-recorder trace — for every shipped engine.
//!
//! A replayed plan skips the row and disturb-target lookups its first
//! run cached, so the programs reach the cases where a cache could go
//! stale: rows first touched mid-program (their disturb targets created
//! on the fly), edge rows, the `Paired` topology, both scrambled
//! mappings, zero doses, pairs whose two rows coincide, other-bank ops,
//! out-of-range addresses (the plan keeps the error and runs the prefix)
//! and rows rewritten between intervals.

use std::sync::Arc;

use dram_sim::metrics::{CTR_ACT, CTR_REF};
use dram_sim::{
    Bank, DataPattern, DramError, HammerOp, HammerPlan, MitigationEngine, Module, ModuleConfig,
    Nanos, NoMitigation, RowAddr, RowMapping, Topology,
};
use obs::{FlightRecorder, MetricsRegistry, TraceEvent, TraceKind};
use proptest::prelude::*;
use trr::{Graphene, GrapheneConfig, Para};

/// Every engine the device can carry: the unmitigated chip, the eight
/// Table-1 TRR versions and the two ACT-synchronous mitigations.
const ENGINES: [&str; 11] = [
    "none", "A_TRR1", "A_TRR2", "B_TRR1", "B_TRR2", "B_TRR3", "C_TRR1", "C_TRR2", "C_TRR3", "PARA",
    "Graphene",
];

/// Rows of the 1024-row test banks the programs touch: both edges and a
/// cluster, so hammers disturb written rows and TRR victims overlap.
const ROWS: [std::ops::Range<u32>; 3] = [0..6, 96..160, 1018..1024];

/// A row past the end of the test geometry's 1024-row banks.
const OUT_OF_RANGE: u32 = 5_000;

/// Rows read back at the end: every row the programs can disturb.
fn readout_rows() -> impl Iterator<Item = u32> {
    (0..8).chain(94..162).chain(1016..1024)
}

/// The device layouts: identity, the two scrambled catalog mappings
/// (A0's `msb_xor`, B7's `block_mirror`), and the `Paired` topology.
fn layout(idx: usize) -> (RowMapping, Topology) {
    match idx {
        0 => (RowMapping::Identity, Topology::Linear),
        1 => (RowMapping::msb_xor(3, 0b110), Topology::Linear),
        2 => (RowMapping::block_mirror(3), Topology::Linear),
        _ => (RowMapping::msb_xor(3, 0b110), Topology::Paired),
    }
}

const LAYOUTS: usize = 4;

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

/// A hammer program: one op list per phase, each run in the bank it
/// names; interval `i` runs phase `i % phases.len()`.
#[derive(Debug, Clone)]
struct Program {
    phases: Vec<(u8, Vec<HammerOp>)>,
    /// Rows written before the program starts.
    writes: Vec<(u8, u32, u8)>,
    /// `(interval, bank, row, pattern)`: rows rewritten after an
    /// interval, so a replayed op meets a row whose coupling changed.
    rewrites: Vec<(u64, u8, u32, u8)>,
    intervals: u64,
}

/// A row of one of the touched ranges, or one time in 30 a row past the
/// end of the bank.
fn row() -> impl Strategy<Value = RowAddr> {
    (0u32..30, 0usize..4, 0u32..64).prop_map(|(pick, range, offset)| {
        if pick == 0 {
            return RowAddr::new(OUT_OF_RANGE);
        }
        // The cluster is drawn twice as often as each edge.
        let r = &ROWS[[0, 1, 1, 2][range]];
        RowAddr::new(r.start + offset % (r.end - r.start))
    })
}

/// Mostly interval-sized doses, with zero doses and long bursts mixed in.
fn dose() -> impl Strategy<Value = u64> {
    (0u8..8, 1u64..150, 1_000u64..3_000).prop_map(|(pick, short, long)| match pick {
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

/// Every touched row of both banks, in order.
fn touched_rows() -> impl Iterator<Item = (u8, u32)> {
    (0u8..2).flat_map(|b| ROWS.into_iter().flatten().map(move |r| (b, r)))
}

fn program() -> impl Strategy<Value = Program> {
    let phase = (0u8..2, prop::collection::vec(op(), 0..12));
    let rows = touched_rows().count();
    (
        prop::collection::vec(phase, 1..19),
        // Per touched row: a pattern, or (one time in four) no write, so
        // the program is the row's first touch.
        prop::collection::vec(0u8..4, rows),
        prop::collection::vec((0u64..150, 0u8..2, 0u32..1024, 0u8..3), 0..4),
        1u64..150,
    )
        .prop_map(|(phases, patterns, rewrites, intervals)| Program {
            phases,
            writes: touched_rows()
                .zip(patterns)
                .filter(|&(_, p)| p < 3)
                .map(|((b, r), p)| (b, r, p))
                .collect(),
            rewrites,
            intervals,
        })
}

/// Everything a run exposes.
#[derive(Debug, PartialEq)]
struct Outcome {
    results: Vec<Result<(), DramError>>,
    activations: u64,
    ref_count: u64,
    counters: Vec<(String, u64)>,
    now: Nanos,
    trace: (Vec<TraceEvent>, u64),
    readouts: Vec<Vec<u32>>,
}

impl Outcome {
    /// A registry counter's total as the run saw it.
    fn counter(&self, name: &str) -> u64 {
        self.counters.iter().find(|(n, _)| n == name).map_or(0, |&(_, v)| v)
    }
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

const PATTERNS: [DataPattern; 3] =
    [DataPattern::Ones, DataPattern::Zeros, DataPattern::Checkerboard];

/// Runs `program` on a fresh module of layout `layout_idx` with a flight
/// recorder attached; `planned` selects whether each interval replays
/// its phase's plan or issues the phase's ops one call at a time.
fn run(
    engine_name: &str,
    layout_idx: usize,
    seed: u64,
    program: &Program,
    planned: bool,
) -> Outcome {
    let mut config = ModuleConfig::small_test();
    (config.mapping, config.topology) = layout(layout_idx);
    let banks = config.geometry.banks;
    let registry = MetricsRegistry::shared();
    let recorder = Arc::new(FlightRecorder::unfiltered());
    registry.install_recorder(Arc::clone(&recorder));
    let mut m = Module::with_engine(config, engine(engine_name, banks, seed), seed);
    m.attach_registry(Arc::clone(&registry));
    for &(b, r, p) in &program.writes {
        m.write_row(Bank::new(b), RowAddr::new(r), PATTERNS[p as usize].clone()).unwrap();
    }
    let t_refi = m.timings().t_refi;
    let mut plans: Vec<Option<HammerPlan>> = vec![None; program.phases.len()];
    let mut results = Vec::new();
    for interval in 0..program.intervals {
        let started = m.now();
        let phase = (interval % program.phases.len() as u64) as usize;
        let (b, ops) = &program.phases[phase];
        let bank = Bank::new(*b);
        let result = if planned {
            let plan = plans[phase].get_or_insert_with(|| m.plan(bank, ops));
            m.run_plan(plan)
        } else {
            one_call_per_op(&mut m, bank, ops)
        };
        results.push(result);
        m.refresh();
        let elapsed = m.now() - started;
        m.advance(t_refi.saturating_sub(elapsed));
        for &(_, b, r, p) in program.rewrites.iter().filter(|w| w.0 == interval) {
            m.write_row(Bank::new(b), RowAddr::new(r), PATTERNS[p as usize].clone()).unwrap();
        }
    }
    let activations = m.activations();
    let ref_count = m.ref_count();
    m.flush_metrics();
    let counters = registry.counters_snapshot();
    let now = m.now();
    // The next 64 REFs: their detections land in the trace.
    for _ in 0..64 {
        m.refresh();
    }
    let mut readouts = Vec::new();
    for b in 0..banks {
        for r in readout_rows() {
            readouts
                .push(m.read_row(Bank::new(b), RowAddr::new(r)).unwrap().flipped_bits().to_vec());
        }
    }
    Outcome { results, activations, ref_count, counters, now, trace: recorder.snapshot(), readouts }
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

    /// A replayed plan and one call per op agree on every observable,
    /// for every engine and layout.
    #[test]
    fn replayed_plans_match_one_call_per_op(
        engine_idx in 0usize..ENGINES.len(),
        layout_idx in 0usize..LAYOUTS,
        seed in 0u64..1_000,
        program in program(),
    ) {
        let name = ENGINES[engine_idx];
        let planned = run(name, layout_idx, seed, &program, true);
        let single = run(name, layout_idx, seed, &program, false);
        prop_assert_eq!(planned, single, "engine {} layout {} seed {}", name, layout_idx, seed);
    }
}

/// A fixed §7-shaped program: a vendor-A-style cascade of two
/// aggressors and 16 dummies, a vendor-B-style diversion phase of
/// other-bank bursts, a pair phase on never-written rows (created by
/// its first run, at interval 2), the edge rows, and the edge cases.
fn fixed_program() -> Program {
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
    let mut cascade = vec![burst(119, 24), burst(121, 24)];
    cascade.extend((0..16).map(|d| burst(100 + 3 * d, 6)));
    cascade.extend([pair(140, 140, 3), burst(150, 0), other(1, 122, 12), burst(1, 5)]);
    let divert = vec![other(1, 512, 156), burst(1023, 20), pair(0, 2, 0)];
    let fresh = vec![pair(129, 131, 70), burst(1022, 9)];
    // An out-of-range op mid-phase: every replay runs the prefix only.
    let broken = vec![burst(119, 30), burst(OUT_OF_RANGE, 1), burst(121, 30)];
    Program {
        phases: vec![
            (0, cascade.clone()),
            (0, cascade.clone()),
            (0, fresh),
            (0, cascade),
            (0, divert),
            (0, broken),
        ],
        writes: vec![(0, 120, 0), (0, 130, 1), (1, 121, 2), (0, 3, 0), (0, 1020, 1)],
        rewrites: vec![(40, 0, 120, 2), (41, 0, 139, 0)],
        intervals: 600,
    }
}

/// Every engine on every layout runs the fixed program identically
/// both ways; the program hammers, and its replays error where the
/// one-call path does.
#[test]
fn every_engine_and_layout_matches_on_a_fixed_program() {
    let program = fixed_program();
    for name in ENGINES {
        for layout_idx in 0..LAYOUTS {
            let planned = run(name, layout_idx, 3, &program, true);
            assert_eq!(planned.results.iter().filter(|r| r.is_err()).count(), 100, "{name}");
            assert!(planned.counter(CTR_ACT) > 50_000, "{name}: the program hammers");
            assert_eq!(planned.counter(CTR_REF), 600, "{name}");
            let acts = planned.trace.0.iter().filter(|e| e.kind == TraceKind::Act).count();
            assert!(acts > 5_000, "{name}: one act event per op, got {acts}");
            assert_eq!(planned, run(name, layout_idx, 3, &program, false), "{name} {layout_idx}");
        }
    }
}
