//! Device twins: every fast path of `dram_sim::Module` must be
//! observationally identical to the command-by-command path it stands
//! for — same per-op results, flight-recorder trace (through the
//! detections of 64 trailing `REF`s), clock, `ACT` and `REF` counts,
//! flushed registry counters and row readouts — for every shipped engine
//! and device layout.
//!
//! Each twin is an op generator plus a fast [`Path`], run beside
//! [`Path::Reference`]; [`assert_twins`] names the first field on which
//! the two runs diverge. What each twin cannot catch:
//!
//! - `plan`: a plan's first run resolves and runs through the same
//!   kernel as one call per op, so it pins only what replays cache
//!   (row indices, disturb targets, mapped rows), not a fault in
//!   `resolve` or the kernel itself.
//! - `batch`: `hammer` and `hammer_pair` are one-op `hammer_batch`
//!   calls, so both sides run the same kernel; the twin pins only the
//!   loop around it (op order, stopping at the first error).
//! - `burst`: both sides sweep through `sweep_window` and drive the same
//!   engine tables, so a fault there (or an engine's LRU slip, see
//!   docs/perf.md) shows on both; the twin pins each engine's
//!   `skip_idle_refs` against its `on_refresh`. `dram-sim`'s
//!   `refresh_equiv` unit tests pin the sweep.

mod batch;
mod burst;
mod plan;

use std::collections::BTreeMap;
use std::fmt::Debug;
use std::ops::Range;
use std::sync::Arc;

use dram_sim::metrics::{CTR_ACT, CTR_REF};
use dram_sim::{
    Bank, DataPattern, DramError, HammerOp, MitigationEngine, Module, ModuleConfig, Nanos,
    NoMitigation, RowAddr, RowMapping, Topology,
};
use obs::{FlightRecorder, MetricsRegistry, TraceEvent, TraceKind};
use proptest::collection::vec;
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

/// Identity, the two scrambled catalog mappings (A0's `msb_xor`, B7's
/// `block_mirror`), and the `Paired` topology.
const LAYOUTS: [(RowMapping, Topology); 4] = [
    (RowMapping::Identity, Topology::Linear),
    (RowMapping::MsbXor { ctrl_bit: 3, mask: 0b110 }, Topology::Linear),
    (RowMapping::BlockMirror { block_bits: 3 }, Topology::Linear),
    (RowMapping::MsbXor { ctrl_bit: 3, mask: 0b110 }, Topology::Paired),
];

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

/// Rows of the 1024-row test banks the programs touch: both edges and a
/// cluster, so hammers disturb written rows and TRR victims overlap.
const ROWS: [Range<u32>; 3] = [0..6, 96..160, 1018..1024];

/// A row past the end of the test geometry's 1024-row banks.
const OUT_OF_RANGE: u32 = 5_000;

const PATTERNS: [DataPattern; 3] =
    [DataPattern::Ones, DataPattern::Zeros, DataPattern::Checkerboard];

/// Rows read back at the end: both edges, and the cluster with its blast radius.
fn readout_rows() -> impl Iterator<Item = (u8, u32)> {
    (0u8..2).flat_map(|b| (0..8).chain(94..166).chain(1016..1024).map(move |r| (b, r)))
}

/// The module a twin runs on.
#[derive(Debug, Clone, Copy)]
struct Device {
    engine: &'static str,
    layout: usize,
    period: u32,
    seed: u64,
}

/// One step of a program.
#[derive(Debug, Clone)]
enum Op {
    /// `(bank, row, pattern)`: writes `PATTERNS[pattern]`.
    Write(u8, u32, u8),
    /// Hammer bursts, pairs and other-bank ops against a bank.
    Batch(Bank, Vec<HammerOp>),
    /// The next `n` `tREFI` intervals, the run's `k`th running phase
    /// `k % phases.len()`: its ops, one `REF`, and the idle rest.
    Intervals(u64),
    /// A paced `REF` burst: `n` × (`REF` + the idle rest of `tREFI`).
    Refs(u64),
    /// Advances the clock by `n` µs.
    Advance(u64),
}

#[derive(Debug, Clone)]
struct Program {
    /// `(bank, ops)` of each phase [`Op::Intervals`] runs.
    phases: Vec<(Bank, Vec<HammerOp>)>,
    ops: Vec<Op>,
}

/// The path a run takes: one device call per hammer op and one `REF` at
/// a time (the reference), or one fast path in place of one of those.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Path {
    Reference,
    /// One `Module::hammer_batch` per [`Op::Batch`].
    Batched,
    /// Each phase resolved once (`Module::plan`) and replayed by every
    /// interval that runs it (`Module::run_plan`).
    Planned,
    /// Each [`Op::Refs`] through `Module::refresh_burst_at_refi`.
    Segmented,
}

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

/// Everything a run exposes.
struct Outcome {
    /// Each write's, batch's and interval's result.
    results: Vec<Result<(), DramError>>,
    trace: Vec<TraceEvent>,
    /// `activations`, `ref_count`, `now` (ns), `errors` (in `results`),
    /// every registry counter after a flush, and `trace.dropped`.
    counts: Vec<(String, u64)>,
    readouts: Vec<Vec<u32>>,
}

impl Outcome {
    fn count(&self, name: &str) -> u64 {
        self.counts.iter().find(|(n, _)| n == name).map_or(0, |&(_, v)| v)
    }

    fn events(&self, kind: TraceKind) -> usize {
        self.trace.iter().filter(|e| e.kind == kind).count()
    }
}

/// Runs `program` on a fresh module with a flight recorder attached.
fn run(path: Path, device: &Device, program: &Program) -> Outcome {
    let mut config = ModuleConfig::small_test();
    (config.mapping, config.topology) = LAYOUTS[device.layout].clone();
    config.refresh.period_refs = device.period;
    let registry = MetricsRegistry::shared();
    let recorder = Arc::new(FlightRecorder::unfiltered());
    registry.install_recorder(Arc::clone(&recorder));
    let engine = engine(device.engine, config.geometry.banks, device.seed);
    let mut m = Module::with_engine(config, engine, device.seed);
    m.attach_registry(Arc::clone(&registry));
    let (t_refi, t_rfc) = (m.timings().t_refi, m.timings().t_rfc);
    let pattern = |p: u8| PATTERNS[p as usize];
    let (mut results, mut plans, mut interval) = (Vec::new(), BTreeMap::new(), 0);
    for op in &program.ops {
        match *op {
            Op::Write(b, r, p) => {
                results.push(m.write_row(Bank::new(b), RowAddr::new(r), pattern(p)))
            }
            Op::Batch(bank, ref ops) if path == Path::Batched => {
                results.push(m.hammer_batch(bank, ops))
            }
            Op::Batch(bank, ref ops) => results.push(one_call_per_op(&mut m, bank, ops)),
            Op::Intervals(n) => {
                for _ in 0..n {
                    let (started, phase) = (m.now(), interval % program.phases.len());
                    interval += 1;
                    let &(bank, ref ops) = &program.phases[phase];
                    results.push(if path == Path::Planned {
                        let plan = plans.entry(phase).or_insert_with(|| m.plan(bank, ops));
                        m.run_plan(plan)
                    } else {
                        one_call_per_op(&mut m, bank, ops)
                    });
                    m.refresh();
                    let elapsed = m.now() - started;
                    m.advance(t_refi.saturating_sub(elapsed));
                }
            }
            Op::Refs(n) if path == Path::Segmented => m.refresh_burst_at_refi(n),
            Op::Refs(n) => {
                for _ in 0..n {
                    m.refresh();
                    m.advance(t_refi - t_rfc);
                }
            }
            Op::Advance(us) => m.advance(Nanos::from_us(us)),
        }
    }
    let counts = [("activations", m.activations()), ("ref_count", m.ref_count())];
    let mut counts: Vec<_> = counts.map(|(n, v)| (n.to_owned(), v)).into();
    counts.push(("now".to_owned(), m.now().as_ns()));
    counts.push(("errors".to_owned(), results.iter().filter(|r| r.is_err()).count() as u64));
    m.flush_metrics();
    counts.extend(registry.counters_snapshot());
    // The next 64 REFs: their detections land in the trace.
    for _ in 0..64 {
        m.refresh();
    }
    let readouts = readout_rows()
        .map(|(b, r)| m.read_row(Bank::new(b), RowAddr::new(r)).unwrap().flipped_bits().to_vec())
        .collect();
    let (trace, dropped) = recorder.snapshot();
    counts.push(("trace.dropped".to_owned(), dropped));
    Outcome { results, trace, counts, readouts }
}

/// Runs `program` on the `fast` path and on the reference path, and
/// fails naming the first field where they diverge (`?` hands the
/// failure to the proptest runner, which prints the input). Returns the
/// fast run's outcome.
fn assert_twins(fast: Path, device: &Device, program: &Program) -> Result<Outcome, TestCaseError> {
    let (f, r) = (run(fast, device, program), run(Path::Reference, device, program));
    let at = |name: &str, d: Option<(usize, String)>| d.map(|(i, d)| (format!("{name}[{i}]"), d));
    let first = at("results", diff(&f.results, &r.results))
        .or_else(|| at("trace", diff(&f.trace, &r.trace)))
        .or_else(|| {
            let (i, d) = diff(&f.counts, &r.counts)?;
            Some((f.counts.get(i).unwrap_or(&r.counts[i]).0.clone(), d))
        })
        .or_else(|| {
            let (i, d) = diff(&f.readouts, &r.readouts)?;
            let (bank, row) = readout_rows().nth(i)?;
            Some((format!("readouts[bank {bank}, row {row}]"), d))
        });
    if let Some((field, d)) = first {
        return Err(TestCaseError::fail(format!("{device:?}: diverged at `{field}`: {d}")));
    }
    Ok(f)
}

/// The first index at which `fast` and `reference` differ, with both
/// entries (a missing one is `None`).
fn diff<T: PartialEq + Debug>(fast: &[T], reference: &[T]) -> Option<(usize, String)> {
    let i = (0..fast.len().max(reference.len())).find(|&i| fast.get(i) != reference.get(i))?;
    Some((i, format!("fast {:?}, reference {:?}", fast.get(i), reference.get(i))))
}

/// `PROPTEST_CASES` cases (CI runs the twins in release with 512), else 32.
fn config() -> ProptestConfig {
    let cases = std::env::var("PROPTEST_CASES").ok().and_then(|v| v.parse().ok());
    ProptestConfig::with_cases(cases.unwrap_or(32))
}

fn device() -> impl Strategy<Value = Device> {
    (0..ENGINES.len(), 0..LAYOUTS.len(), 0..PERIODS.len(), 0u64..1_000).prop_map(
        |(e, layout, p, seed)| Device { engine: ENGINES[e], layout, period: PERIODS[p], seed },
    )
}

/// A row of the touched ranges (the cluster drawn twice as often as each
/// edge), or one time in 30 a row past the end of the bank.
fn row() -> impl Strategy<Value = u32> {
    (0u32..30, 0usize..4, 0u32..64).prop_map(|(pick, range, offset)| {
        let r = &ROWS[[0, 1, 1, 2][range]];
        let row = r.start + offset % (r.end - r.start);
        if pick == 0 {
            OUT_OF_RANGE
        } else {
            row
        }
    })
}

/// Mostly interval-sized doses; one in eight is zero, one a long burst.
fn dose() -> impl Strategy<Value = u64> {
    (0u8..8, 1u64..200, 1_000u64..3_000)
        .prop_map(|(pick, short, long)| [0, long, short][pick.min(2) as usize])
}

fn op() -> impl Strategy<Value = HammerOp> {
    prop_oneof![
        (row(), dose()).prop_map(|(r, acts)| burst(r, acts)),
        // Offset 0 pairs a row with itself: the degenerate case.
        (row(), 0u32..4, dose()).prop_map(|(r, offset, pairs)| pair(r, r + offset, pairs)),
        // One in eight in bank 0, one in the nonexistent bank 2, the rest
        // in bank 1 of the two-bank test geometry.
        (0usize..8, row(), dose()).prop_map(|(b, r, acts)| other([0, 2, 1][b.min(2)], r, acts)),
    ]
}

/// 1–23 random writes, batches of `batch` ops, paced `REF` bursts of
/// `refs` and advances of up to 150 ms (past the shortest retention
/// times, so restores materialize decay flips and VRT observations end).
fn steps(batch: Range<usize>, refs: Range<u64>) -> impl Strategy<Value = Program> {
    let step = prop_oneof![
        (0u8..2, row(), 0u8..3).prop_map(|(b, r, p)| Op::Write(b, r, p)),
        (0u8..2, vec(op(), batch.clone())).prop_map(|(b, ops)| Op::Batch(Bank::new(b), ops)),
        (0u8..2, vec(op(), batch)).prop_map(|(b, ops)| Op::Batch(Bank::new(b), ops)),
        refs.prop_map(Op::Refs),
        (1u64..150_000).prop_map(Op::Advance),
    ];
    vec(step, 1..24).prop_map(|ops| Program { phases: Vec::new(), ops })
}

fn burst(r: u32, acts: u64) -> HammerOp {
    HammerOp::Burst { row: RowAddr::new(r), acts }
}

fn pair(a: u32, b: u32, pairs: u64) -> HammerOp {
    HammerOp::Pair { first: RowAddr::new(a), second: RowAddr::new(b), pairs }
}

fn other(bank: u8, r: u32, acts: u64) -> HammerOp {
    HammerOp::OtherBank { bank: Bank::new(bank), row: RowAddr::new(r), acts }
}

/// The §7-shaped interval of the fixed programs: a vendor-A-style
/// cascade of two aggressors and 16 dummies, then a pair of one row, a
/// zero dose and a vendor-B-style other-bank diversion.
fn cascade() -> Vec<HammerOp> {
    let mut ops = vec![burst(119, 24), burst(121, 24)];
    ops.extend((0..16).map(|d| burst(100 + 3 * d, 6)));
    ops.extend([pair(140, 140, 3), burst(150, 0), other(1, 122, 12)]);
    ops
}
