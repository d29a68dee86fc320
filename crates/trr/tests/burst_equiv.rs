//! Equivalence property: a segmented `REF` burst
//! (`Module::refresh_burst_at_refi(n)`, which lets the mitigation engine
//! skip the `REF`s that provably detect nothing) must be observationally
//! identical to `n` × (`refresh()` + `advance(tREFI − tRFC)`) — same row
//! data, registry counters, clock, `REF` count and flight-recorder
//! trace (every `REF`, bit flip and TRR
//! detection, in order, through the detections of the next 64 `REF`s)
//! — for every shipped engine, across randomized write / hammer / pair
//! / advance / burst traces.

use std::sync::Arc;

use dram_sim::metrics::{CTR_ACT, CTR_REF};
use dram_sim::{
    Bank, DataPattern, MitigationEngine, Module, ModuleConfig, Nanos, NoMitigation, RowAddr,
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

/// Refresh periods: several rows per `REF`, exactly one, and mostly
/// empty windows (vendor A's 3758).
const PERIODS: [u32; 3] = [256, 1_024, 3_758];

/// Rows the traces work on: a cluster, so hammers disturb written rows
/// and TRR victims overlap.
const ROWS: std::ops::Range<u32> = 96..160;

fn engine(name: &str, banks: u8, seed: u64) -> Box<dyn MitigationEngine> {
    match name {
        "none" => Box::new(NoMitigation),
        "PARA" => Box::new(Para::new(0.01, seed)),
        // A short window, so bursts cross its table resets.
        "Graphene" => Box::new(Graphene::new(
            GrapheneConfig { window_refs: 700, ..GrapheneConfig::for_hc_first(1_000) },
            banks,
        )),
        version => trr::engine_for_version(version, banks, seed),
    }
}

/// One step of a randomized command trace.
#[derive(Debug, Clone)]
enum Op {
    Write(u8, u32, u8),
    Hammer(u8, u32, u64),
    Pair(u8, u32, u64),
    Advance(u64),
    Burst(u64),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u8..2, ROWS, 0u8..3).prop_map(|(b, r, p)| Op::Write(b, r, p)),
        (0u8..2, ROWS, 1u64..3_000).prop_map(|(b, r, n)| Op::Hammer(b, r, n)),
        (0u8..2, ROWS, 1u64..1_500).prop_map(|(b, r, n)| Op::Pair(b, r, n)),
        // Up to 150 ms: past the shortest retention times, so restores
        // materialize decay flips and VRT observations end.
        (1u64..150_000).prop_map(Op::Advance),
        (1u64..3_000).prop_map(Op::Burst),
    ]
}

/// Everything a run exposes.
#[derive(Debug, PartialEq)]
struct Outcome {
    counters: Vec<(String, u64)>,
    now: Nanos,
    ref_count: u64,
    trace: (Vec<TraceEvent>, u64),
    readouts: Vec<Vec<u32>>,
}

impl Outcome {
    /// A registry counter's total as the run saw it.
    fn counter(&self, name: &str) -> u64 {
        self.counters.iter().find(|(n, _)| n == name).map_or(0, |&(_, v)| v)
    }

    /// Both twins flush before the snapshot, so equal `ACT` and `REF`
    /// totals only count if there are some.
    fn assert_counted(&self, what: &str) {
        for name in [CTR_ACT, CTR_REF] {
            assert!(self.counter(name) > 0, "{what}: no {name} reached the registry");
        }
    }
}

/// Runs `ops` on a fresh module with a flight recorder attached;
/// `segmented` selects whether bursts go through `refresh_burst_at_refi`
/// or the per-`REF` twin.
fn run(engine_name: &str, period: u32, seed: u64, ops: &[Op], segmented: bool) -> Outcome {
    let mut config = ModuleConfig::small_test();
    config.refresh.period_refs = period;
    let banks = config.geometry.banks;
    let registry = MetricsRegistry::shared();
    let recorder = Arc::new(FlightRecorder::unfiltered());
    registry.install_recorder(Arc::clone(&recorder));
    let mut m = Module::with_engine(config, engine(engine_name, banks, seed), seed);
    m.attach_registry(Arc::clone(&registry));
    let idle = m.timings().t_refi - m.timings().t_rfc;
    for op in ops {
        match *op {
            Op::Write(b, r, p) => {
                let pattern = [DataPattern::Ones, DataPattern::Zeros, DataPattern::Checkerboard];
                m.write_row(Bank::new(b), RowAddr::new(r), pattern[p as usize].clone()).unwrap();
            }
            Op::Hammer(b, r, n) => m.hammer(Bank::new(b), RowAddr::new(r), n).unwrap(),
            Op::Pair(b, r, n) => {
                m.hammer_pair(Bank::new(b), RowAddr::new(r), RowAddr::new(r + 2), n).unwrap();
            }
            Op::Advance(us) => m.advance(Nanos::from_us(us)),
            Op::Burst(n) if segmented => m.refresh_burst_at_refi(n),
            Op::Burst(n) => {
                for _ in 0..n {
                    m.refresh();
                    m.advance(idle);
                }
            }
        }
    }
    m.flush_metrics();
    let counters = registry.counters_snapshot();
    let (now, ref_count) = (m.now(), m.ref_count());
    // The next 64 REFs: their detections land in the trace.
    for _ in 0..64 {
        m.refresh();
    }
    // Every touched row: the written cluster plus the blast radius and
    // TRR victims around it.
    let mut readouts = Vec::new();
    for b in 0..banks {
        for r in ROWS.start - 2..ROWS.end + 2 {
            readouts
                .push(m.read_row(Bank::new(b), RowAddr::new(r)).unwrap().flipped_bits().to_vec());
        }
    }
    Outcome { counters, now, ref_count, trace: recorder.snapshot(), readouts }
}

/// `PROPTEST_CASES` when set (CI runs the suite in release with 512),
/// otherwise few enough cases for a debug build.
fn config() -> ProptestConfig {
    if std::env::var_os("PROPTEST_CASES").is_some() {
        ProptestConfig::default()
    } else {
        ProptestConfig::with_cases(24)
    }
}

proptest! {
    #![proptest_config(config())]

    /// The segmented burst and the per-`REF` loop agree on every
    /// observable, for every engine and refresh period.
    #[test]
    fn segmented_burst_matches_per_ref_refresh(
        engine_idx in 0usize..ENGINES.len(),
        period_idx in 0usize..PERIODS.len(),
        seed in 0u64..1_000,
        ops in prop::collection::vec(op_strategy(), 1..24),
    ) {
        let (name, period) = (ENGINES[engine_idx], PERIODS[period_idx]);
        let segmented = run(name, period, seed, &ops, true);
        let per_ref = run(name, period, seed, &ops, false);
        prop_assert_eq!(segmented, per_ref, "engine {} period {} seed {}", name, period, seed);
    }
}

/// A fixed trace long enough for every engine to detect, decay and
/// skip.
fn fixed_trace() -> Vec<Op> {
    let mut ops = Vec::new();
    for round in 0..6u32 {
        let r = 100 + 7 * round;
        ops.extend([
            Op::Write(0, r, (round % 3) as u8),
            Op::Write(1, r + 1, 0),
            Op::Pair(0, r - 1, 1_200),
            Op::Hammer(1, r + 2, 2_500),
            Op::Burst(900 + 300 * round as u64),
            Op::Advance(40_000 * round as u64 + 1),
            Op::Burst(17),
        ]);
    }
    ops
}

/// Every engine at every period, on the fixed trace. The skipped
/// `REF`s keep their trace events: one `ref` event per `REF`.
#[test]
fn every_engine_matches_on_a_fixed_trace() {
    let ops = fixed_trace();
    for name in ENGINES {
        for period in PERIODS {
            let segmented = run(name, period, 3, &ops, true);
            assert!(segmented.counter(CTR_REF) > 10_000, "{name}: the trace bursts");
            segmented.assert_counted(name);
            let (events, dropped) = &segmented.trace;
            let refs = events.iter().filter(|e| e.kind == TraceKind::Ref).count() as u64;
            assert_eq!((refs, *dropped), (segmented.ref_count + 64, 0), "{name} at {period}");
            assert_eq!(segmented, run(name, period, 3, &ops, false), "{name} at {period}");
        }
    }
}
