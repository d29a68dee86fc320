//! Named counters, gauges, log₂-binned histograms, and events.
//!
//! Handles returned by the registry are cheap `Arc` clones, and the hot
//! path (a simulator command) touches only relaxed atomics, never the
//! registry lock. Parallel sweeps share one registry across worker
//! threads, so a single atomic per counter would bounce its cache line
//! between cores on every command. Instead every [`Counter`] and
//! [`Histogram`] is a fixed array of `SHARDS` cells, each alone on
//! its own cache lines, and a writer updates the cell of its thread's
//! shard (threads take shard indices round-robin on first write).
//! Readers fold the cells: counter totals, histogram bins, sums and
//! extremes are exact, so snapshots and artifacts do not depend on how
//! the writes were spread. The flags every command reads (`detail`,
//! `tracing`, the event gate's `full`) share one padded block that is
//! written only when they change; the tally of dropped events is itself
//! a sharded counter.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::ops::Deref;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use crate::span::{SpanCollector, SpanGuard, SpanRecord};
use crate::trace::{FlightRecorder, TraceKind};

/// Number of histogram bins: bin 0 holds zeros, bin `b ≥ 1` holds
/// values in `[2^(b-1), 2^b)`, up to bin 64 for the top of the u64
/// range.
pub const BIN_COUNT: usize = 65;

/// Cap on buffered [`EventRecord`]s; later events are counted as
/// dropped rather than stored.
const EVENT_CAPACITY: usize = 65_536;

/// Most fields one [`EventRecord`] carries; they are stored inline.
pub const EVENT_FIELDS: usize = 3;

/// Writer cells per counter and histogram. Threads beyond this many
/// share cells (still exact, just contended again).
const SHARDS: usize = 8;

/// A value alone on its cache lines. 128 bytes rather than 64 because
/// x86's adjacent-line prefetcher pulls 64-byte lines in pairs.
#[derive(Debug, Default)]
#[repr(align(128))]
struct Padded<T>(T);

static NEXT_SHARD: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static SHARD: Cell<usize> = const { Cell::new(usize::MAX) };
}

/// This thread's cell index, assigned round-robin on first use, so
/// the workers of one pool (spawned back to back) land on distinct
/// cells.
#[inline]
fn shard() -> usize {
    SHARD.with(|cell| {
        let shard = cell.get();
        if shard < SHARDS {
            shard
        } else {
            let shard = NEXT_SHARD.fetch_add(1, Ordering::Relaxed) % SHARDS;
            cell.set(shard);
            shard
        }
    })
}

/// The bin a value falls into (log₂ binning).
#[inline]
pub fn bin_index(value: u64) -> usize {
    if value == 0 {
        0
    } else {
        64 - value.leading_zeros() as usize
    }
}

/// Smallest value belonging to a bin.
#[inline]
pub fn bin_lower_bound(bin: usize) -> u64 {
    if bin == 0 {
        0
    } else {
        1u64 << (bin - 1)
    }
}

/// Largest value belonging to a bin.
#[inline]
pub fn bin_upper_bound(bin: usize) -> u64 {
    if bin == 0 {
        0
    } else if bin >= 64 {
        u64::MAX
    } else {
        (1u64 << bin) - 1
    }
}

/// A monotonically increasing named count.
#[derive(Debug, Clone, Default)]
pub struct Counter {
    cells: Arc<[Padded<AtomicU64>; SHARDS]>,
}

impl Counter {
    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.cells[shard()].0.fetch_add(n, Ordering::Relaxed);
    }

    /// The current count, summed over all cells.
    pub fn get(&self) -> u64 {
        self.cells.iter().fold(0, |total, cell| total.wrapping_add(cell.0.load(Ordering::Relaxed)))
    }
}

/// A named last-written value.
#[derive(Debug, Clone, Default)]
pub struct Gauge {
    cell: Arc<AtomicU64>,
}

impl Gauge {
    /// Overwrites the value.
    #[inline]
    pub fn set(&self, value: u64) {
        self.cell.store(value, Ordering::Relaxed);
    }

    /// Raises the value to `candidate` if larger.
    #[inline]
    pub fn set_max(&self, candidate: u64) {
        self.cell.fetch_max(candidate, Ordering::Relaxed);
    }

    /// The current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.cell.load(Ordering::Relaxed)
    }
}

/// One writer cell of a [`Histogram`]. The total count is derivable
/// from the bins (each record lands in exactly one), so it is not
/// stored.
#[derive(Debug)]
struct HistogramCell {
    bins: [AtomicU64; BIN_COUNT],
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl Default for HistogramCell {
    fn default() -> Self {
        HistogramCell {
            bins: std::array::from_fn(|_| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }
}

/// A named log₂-binned value distribution.
#[derive(Debug, Clone, Default)]
pub struct Histogram {
    cells: Arc<[Padded<HistogramCell>; SHARDS]>,
}

impl Histogram {
    /// Records one observation.
    #[inline]
    pub fn record(&self, value: u64) {
        self.record_n(value, 1);
    }

    /// Records `n` observations of the same value in O(1) — used by the
    /// simulator's batched command paths so a 5 000-activation hammer
    /// costs one update, not 5 000.
    #[inline]
    pub fn record_n(&self, value: u64, n: u64) {
        if n == 0 {
            return;
        }
        // The device hot paths record one histogram observation per
        // command, so every atomic here is paid millions of times per
        // run. Min/max stabilize after the first few observations — a
        // relaxed load screens out the RMW in the overwhelmingly common
        // no-change case. Net: two RMWs per record.
        let cell = &self.cells[shard()].0;
        cell.bins[bin_index(value)].fetch_add(n, Ordering::Relaxed);
        cell.sum.fetch_add(value.wrapping_mul(n), Ordering::Relaxed);
        if cell.min.load(Ordering::Relaxed) > value {
            cell.min.fetch_min(value, Ordering::Relaxed);
        }
        if cell.max.load(Ordering::Relaxed) < value {
            cell.max.fetch_max(value, Ordering::Relaxed);
        }
    }

    /// A point-in-time copy of the distribution, folded over all cells.
    pub fn snapshot(&self) -> HistogramSnapshot {
        self.cells.iter().fold(HistogramSnapshot::default(), |total, cell| {
            let cell = &cell.0;
            let bins: [u64; BIN_COUNT] =
                std::array::from_fn(|b| cell.bins[b].load(Ordering::Relaxed));
            total.merge(&HistogramSnapshot {
                count: bins.iter().sum(),
                bins,
                sum: cell.sum.load(Ordering::Relaxed),
                min: cell.min.load(Ordering::Relaxed),
                max: cell.max.load(Ordering::Relaxed),
            })
        })
    }
}

/// An owned copy of a [`Histogram`]'s state, supporting quantile
/// estimation and merging.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bin observation counts (see [`bin_index`]).
    pub bins: [u64; BIN_COUNT],
    /// Total observations.
    pub count: u64,
    /// Sum of all observed values (wrapping).
    pub sum: u64,
    /// Smallest observed value (`u64::MAX` when empty).
    pub min: u64,
    /// Largest observed value (0 when empty).
    pub max: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        HistogramSnapshot { bins: [0; BIN_COUNT], count: 0, sum: 0, min: u64::MAX, max: 0 }
    }
}

impl HistogramSnapshot {
    /// Estimates the `q`-quantile (`0.0 ..= 1.0`). The estimate is the
    /// upper bound of the bin containing the true quantile, clamped to
    /// the observed min/max — so it is off by at most one bin.
    /// Returns `None` when the histogram is empty.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        // The extremes are known exactly — q=0 must be the observed
        // min (rank clamping below would otherwise land it in the
        // first non-empty bin's *upper* bound) and q=1 the observed
        // max.
        if q <= 0.0 {
            return Some(self.min);
        }
        if q >= 1.0 {
            return Some(self.max);
        }
        // The rank of the target observation, 1-based.
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (bin, &n) in self.bins.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return Some(bin_upper_bound(bin).clamp(self.min, self.max));
            }
        }
        Some(self.max)
    }

    /// The arithmetic mean, `None` when empty.
    pub fn mean(&self) -> Option<f64> {
        if self.count == 0 {
            None
        } else {
            Some(self.sum as f64 / self.count as f64)
        }
    }

    /// Combines two snapshots, as if every observation of both had been
    /// recorded into one histogram.
    pub fn merge(&self, other: &HistogramSnapshot) -> HistogramSnapshot {
        HistogramSnapshot {
            bins: std::array::from_fn(|b| self.bins[b] + other.bins[b]),
            count: self.count + other.count,
            sum: self.sum.wrapping_add(other.sum),
            min: self.min.min(other.min),
            max: self.max.max(other.max),
        }
    }
}

/// A rare, high-value moment: a bit flip, a TRR detection. Timestamped
/// in simulated nanoseconds with integer coordinate fields. Stored
/// inline — no heap allocation per event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EventRecord {
    /// Simulated time of the event, in nanoseconds.
    pub t_sim: u64,
    /// Event kind, dotted-path style (`"dram.bit_flip"`).
    pub kind: &'static str,
    /// Coordinates and attributes (`("bank", 1), ("row", 4242)`, …).
    pub fields: EventFields,
}

/// Up to [`EVENT_FIELDS`] `(name, value)` pairs stored inline; derefs
/// to the slice of the pairs actually set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EventFields {
    len: u8,
    slots: [(&'static str, u64); EVENT_FIELDS],
}

impl EventFields {
    /// # Panics
    ///
    /// Panics if given more than [`EVENT_FIELDS`] fields.
    fn new(fields: &[(&'static str, u64)]) -> Self {
        assert!(fields.len() <= EVENT_FIELDS, "an event carries at most {EVENT_FIELDS} fields");
        let mut slots = [("", 0); EVENT_FIELDS];
        slots[..fields.len()].copy_from_slice(fields);
        EventFields { len: fields.len() as u8, slots }
    }
}

impl Deref for EventFields {
    type Target = [(&'static str, u64)];

    fn deref(&self) -> &Self::Target {
        &self.slots[..usize::from(self.len)]
    }
}

/// The flags every command reads, alone on their cache lines and
/// written only when they change.
#[derive(Debug, Default)]
struct HotFlags {
    /// Detail instrumentation (histograms, events) is on.
    detail: AtomicBool,
    /// A flight recorder is installed.
    tracing: AtomicBool,
    /// Relaxed mirror of the event buffer's fill level, maintained
    /// under the buffer lock. Lets `event()` skip the mutex entirely
    /// once the buffer is full — a long run emits far more events than
    /// the capacity holds, and the overflow path must not serialize
    /// worker threads.
    events_full: AtomicBool,
}

/// The central sink all layers report into.
///
/// Construction is cheap; the simulator gives every `Module` a private
/// registry by default so unit tests stay isolated, and callers that
/// want one artifact per run share a single `Arc<MetricsRegistry>`
/// across modules, controllers, and methodology passes.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    flags: Padded<HotFlags>,
    counters: Mutex<BTreeMap<String, Counter>>,
    gauges: Mutex<BTreeMap<String, Gauge>>,
    histograms: Mutex<BTreeMap<String, Histogram>>,
    events: Mutex<Vec<EventRecord>>,
    /// Events not stored because the buffer was full.
    events_dropped: Counter,
    spans: SpanCollector,
    recorder: OnceLock<Arc<FlightRecorder>>,
}

/// The handle registered under `name`, created on first use. Looks the
/// name up before allocating its owned key.
fn resolve<T: Clone + Default>(map: &Mutex<BTreeMap<String, T>>, name: &str) -> T {
    let mut map = map.lock().unwrap();
    if let Some(handle) = map.get(name) {
        return handle.clone();
    }
    map.entry(name.to_string()).or_default().clone()
}

impl MetricsRegistry {
    /// An empty registry with detail recording **off**.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty shared registry with detail recording **on** — the
    /// constructor run artifacts use.
    pub fn shared() -> Arc<Self> {
        let registry = Self::new();
        registry.set_detail(true);
        Arc::new(registry)
    }

    /// Whether detail instrumentation (histograms, events) should be
    /// recorded. Counters and spans are always live; hot paths consult
    /// this flag before histogram/event work so that metrics stay
    /// within the ≤5 % command-path overhead budget when detail is not
    /// wanted.
    #[inline]
    pub fn detail_enabled(&self) -> bool {
        self.flags.0.detail.load(Ordering::Relaxed)
    }

    /// Turns detail instrumentation on or off.
    pub fn set_detail(&self, enabled: bool) {
        self.flags.0.detail.store(enabled, Ordering::Relaxed);
    }

    /// The counter registered under `name`, creating it at zero on
    /// first use. The handle is lock-free; keep it around rather than
    /// re-looking it up in a loop.
    pub fn counter(&self, name: &str) -> Counter {
        resolve(&self.counters, name)
    }

    /// The gauge registered under `name` (see [`Self::counter`]).
    pub fn gauge(&self, name: &str) -> Gauge {
        resolve(&self.gauges, name)
    }

    /// The histogram registered under `name` (see [`Self::counter`]).
    pub fn histogram(&self, name: &str) -> Histogram {
        resolve(&self.histograms, name)
    }

    /// Records an event if detail is enabled and the buffer has room;
    /// overflow is tallied, not stored.
    ///
    /// # Panics
    ///
    /// Panics if a stored event has more than [`EVENT_FIELDS`] fields.
    pub fn event(&self, kind: &'static str, t_sim: u64, fields: &[(&'static str, u64)]) {
        if !self.detail_enabled() {
            return;
        }
        // Once the buffer has filled, every further event is a drop —
        // tally it on the sharded counter instead of serializing the
        // worker threads on the buffer mutex.
        if self.flags.0.events_full.load(Ordering::Relaxed) {
            self.events_dropped.inc();
            return;
        }
        let mut events = self.events.lock().unwrap();
        if events.len() >= EVENT_CAPACITY {
            self.flags.0.events_full.store(true, Ordering::Relaxed);
            self.events_dropped.inc();
            return;
        }
        events.push(EventRecord { t_sim, kind, fields: EventFields::new(fields) });
        if events.len() >= EVENT_CAPACITY {
            self.flags.0.events_full.store(true, Ordering::Relaxed);
        }
    }

    /// Installs a flight recorder and arms the tracing fast-gate.
    /// Returns `false` (leaving the existing recorder in place) if one
    /// was already installed.
    pub fn install_recorder(&self, recorder: Arc<FlightRecorder>) -> bool {
        let installed = self.recorder.set(recorder).is_ok();
        if installed {
            self.flags.0.tracing.store(true, Ordering::Relaxed);
        }
        installed
    }

    /// Whether a flight recorder is installed. The hot-path gate: one
    /// relaxed load, false for every run without `--trace-out`, so
    /// tracing-off is a no-op.
    #[inline]
    pub fn tracing_enabled(&self) -> bool {
        self.flags.0.tracing.load(Ordering::Relaxed)
    }

    /// The installed flight recorder, if any.
    pub fn recorder(&self) -> Option<&Arc<FlightRecorder>> {
        self.recorder.get()
    }

    /// Records a trace event (see [`FlightRecorder::record`]); returns
    /// the event ID, or `None` when tracing is off or the row filter
    /// rejects it.
    #[inline]
    pub fn trace(
        &self,
        kind: TraceKind,
        t_sim: u64,
        bank: u32,
        row: Option<u32>,
        fields: &[(&str, u64)],
        detail: &str,
    ) -> Option<u64> {
        if !self.tracing_enabled() {
            return None;
        }
        self.recorder.get()?.record(kind, t_sim, bank, row, fields, detail)
    }

    /// [`MetricsRegistry::trace`] plus evidence links.
    #[inline]
    #[allow(clippy::too_many_arguments)]
    pub fn trace_with_evidence(
        &self,
        kind: TraceKind,
        t_sim: u64,
        bank: u32,
        row: Option<u32>,
        fields: &[(&str, u64)],
        detail: &str,
        evidence: &[u64],
    ) -> Option<u64> {
        if !self.tracing_enabled() {
            return None;
        }
        self.recorder.get()?.record_with_evidence(kind, t_sim, bank, row, fields, detail, evidence)
    }

    /// Opens a span named `name` at simulated time `sim_now`; the
    /// parent is the innermost span still open on this thread. Prefer
    /// the [`crate::span!`] macro, which also attaches fields.
    pub fn span(self: &Arc<Self>, name: &str, sim_now: u64) -> SpanGuard {
        SpanGuard::open(Arc::clone(self), name, sim_now)
    }

    /// The span collector (used by [`SpanGuard`]).
    pub(crate) fn span_collector(&self) -> &SpanCollector {
        &self.spans
    }

    /// All counters, sorted by name.
    pub fn counters_snapshot(&self) -> Vec<(String, u64)> {
        self.counters.lock().unwrap().iter().map(|(k, v)| (k.clone(), v.get())).collect()
    }

    /// All gauges, sorted by name.
    pub fn gauges_snapshot(&self) -> Vec<(String, u64)> {
        self.gauges.lock().unwrap().iter().map(|(k, v)| (k.clone(), v.get())).collect()
    }

    /// All histograms, sorted by name.
    pub fn histograms_snapshot(&self) -> Vec<(String, HistogramSnapshot)> {
        self.histograms.lock().unwrap().iter().map(|(k, v)| (k.clone(), v.snapshot())).collect()
    }

    /// Buffered events in arrival order, plus how many overflowed.
    pub fn events_snapshot(&self) -> (Vec<EventRecord>, u64) {
        (self.events.lock().unwrap().clone(), self.events_dropped.get())
    }

    /// Closed spans in completion order, plus how many the ring
    /// evicted.
    pub fn spans_snapshot(&self) -> (Vec<SpanRecord>, u64) {
        self.spans.snapshot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_handles_share_one_cell() {
        let registry = MetricsRegistry::new();
        let a = registry.counter("x");
        let b = registry.counter("x");
        a.add(3);
        b.inc();
        assert_eq!(registry.counter("x").get(), 4);
        assert_eq!(registry.counters_snapshot(), vec![("x".to_string(), 4)]);
    }

    #[test]
    fn gauge_set_and_max() {
        let registry = MetricsRegistry::new();
        let g = registry.gauge("depth");
        g.set(7);
        g.set_max(3);
        assert_eq!(g.get(), 7);
        g.set_max(11);
        assert_eq!(g.get(), 11);
    }

    #[test]
    fn events_respect_detail_flag() {
        let registry = MetricsRegistry::new();
        registry.event("dram.bit_flip", 10, &[("bank", 1)]);
        assert_eq!(registry.events_snapshot().0.len(), 0);
        registry.set_detail(true);
        registry.event("dram.bit_flip", 10, &[("bank", 1), ("row", 42)]);
        let (events, dropped) = registry.events_snapshot();
        assert_eq!(dropped, 0);
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].kind, "dram.bit_flip");
        assert_eq!(events[0].fields[1], ("row", 42));
    }

    #[test]
    #[should_panic(expected = "at most 3 fields")]
    fn events_reject_more_inline_fields_than_they_hold() {
        let registry = MetricsRegistry::new();
        registry.set_detail(true);
        registry.event("dram.bit_flip", 0, &[("a", 1), ("b", 2), ("c", 3), ("d", 4)]);
    }

    #[test]
    fn quantile_of_empty_histogram_is_none() {
        let snapshot = HistogramSnapshot::default();
        for q in [0.0, 0.5, 1.0] {
            assert_eq!(snapshot.quantile(q), None);
        }
    }

    #[test]
    fn quantile_extremes_return_observed_min_and_max() {
        let h = Histogram::default();
        // All mass inside one log₂ bin ([64, 128)), min != max.
        h.record(70);
        h.record(100);
        h.record(120);
        let snapshot = h.snapshot();
        assert_eq!(snapshot.quantile(0.0), Some(70));
        assert_eq!(snapshot.quantile(1.0), Some(120));
        assert_eq!(snapshot.quantile(-0.5), Some(70));
        assert_eq!(snapshot.quantile(2.0), Some(120));
        // Interior quantiles stay within [min, max] for single-bin mass.
        let p50 = snapshot.quantile(0.5).unwrap();
        assert!((70..=120).contains(&p50), "p50={p50}");
    }

    #[test]
    fn quantile_single_observation_is_that_observation() {
        let h = Histogram::default();
        h.record(42);
        let snapshot = h.snapshot();
        for q in [0.0, 0.25, 0.5, 0.99, 1.0] {
            assert_eq!(snapshot.quantile(q), Some(42), "q={q}");
        }
    }

    #[test]
    fn quantile_is_monotone_in_q() {
        let h = Histogram::default();
        for v in [0u64, 1, 3, 9, 100, 5_000, 1 << 40] {
            h.record(v);
        }
        let snapshot = h.snapshot();
        let mut last = 0u64;
        for i in 0..=100 {
            let q = f64::from(i) / 100.0;
            let value = snapshot.quantile(q).unwrap();
            assert!(value >= last, "quantile not monotone at q={q}");
            last = value;
        }
        assert_eq!(snapshot.quantile(0.0), Some(0));
        assert_eq!(snapshot.quantile(1.0), Some(1 << 40));
    }

    #[test]
    fn tracing_is_off_until_a_recorder_is_installed() {
        use crate::trace::{FlightRecorder, TraceFilter, TraceKind};
        let registry = MetricsRegistry::new();
        assert!(!registry.tracing_enabled());
        assert_eq!(registry.trace(TraceKind::Act, 0, 0, Some(1), &[], ""), None);
        let recorder = Arc::new(FlightRecorder::new(16, TraceFilter::all()));
        assert!(registry.install_recorder(Arc::clone(&recorder)));
        assert!(registry.tracing_enabled());
        assert_eq!(registry.trace(TraceKind::Act, 5, 0, Some(1), &[("n", 2)], ""), Some(1));
        assert_eq!(recorder.len(), 1);
        // Second install is rejected; first recorder keeps receiving.
        assert!(!registry.install_recorder(Arc::new(FlightRecorder::unfiltered())));
        registry.trace(TraceKind::Ref, 6, 0, None, &[], "");
        assert_eq!(recorder.len(), 2);
    }

    /// The byte range `[start, end)` a value occupies.
    fn bytes<T>(value: &T) -> (usize, usize) {
        let start = value as *const T as usize;
        (start, start + std::mem::size_of::<T>())
    }

    #[test]
    fn shard_cells_and_hot_flags_sit_on_separate_cache_lines() {
        let counter = Counter::default();
        let histogram = Histogram::default();
        let counter_cells: Vec<_> = counter.cells.iter().map(|c| bytes(&c.0)).collect();
        let histogram_cells: Vec<_> = histogram.cells.iter().map(|c| bytes(&c.0)).collect();
        for cells in [counter_cells, histogram_cells] {
            for pair in cells.windows(2) {
                let ((_, end), (next, _)) = (pair[0], pair[1]);
                assert!(next >= end + 64, "cells closer than 64 bytes: {pair:?}");
            }
        }
        let registry = MetricsRegistry::new();
        let (start, end) = bytes(&registry.flags.0);
        let flag_lines = start / 64..=(end - 1) / 64;
        for cell in registry.events_dropped.cells.iter() {
            let (start, end) = bytes(&cell.0);
            assert!(
                !flag_lines.contains(&(start / 64)) && !flag_lines.contains(&((end - 1) / 64)),
                "the hot flags share a line with the `dropped` tally"
            );
        }
    }

    #[test]
    fn counters_are_safe_under_parallel_writers() {
        // More writers than cells, so some cells also take concurrent
        // writers.
        const THREADS: u64 = SHARDS as u64 + 2;
        let values = |t: u64| (0..5_000u64).map(move |i| (i * 7_919 + t * 104_729) % 200_003);
        let registry = MetricsRegistry::new();
        let barrier = std::sync::Barrier::new(THREADS as usize);
        std::thread::scope(|scope| {
            for t in 0..THREADS {
                let (registry, barrier) = (&registry, &barrier);
                scope.spawn(move || {
                    let counter = registry.counter("shared");
                    let histogram = registry.histogram("h");
                    barrier.wait();
                    for v in values(t) {
                        counter.add(v);
                        histogram.record_n(v, 1 + v % 3);
                    }
                });
            }
        });
        let reference = Histogram::default();
        let mut total = 0u64;
        for v in (0..THREADS).flat_map(values) {
            total += v;
            reference.record_n(v, 1 + v % 3);
        }
        let counter = registry.counter("shared");
        assert_eq!(counter.get(), total);
        assert!(counter.cells.iter().filter(|c| c.0.load(Ordering::Relaxed) > 0).count() > 1);
        let (shared, single) = (registry.histogram("h").snapshot(), reference.snapshot());
        assert_eq!(shared.bins, single.bins);
        assert_eq!(
            (shared.count, shared.sum, shared.min, shared.max),
            (single.count, single.sum, single.min, single.max)
        );
    }
}
