//! Named counters and log₂-binned histograms.
//!
//! Handles returned by the registry are cheap `Arc` clones, and a write
//! through one touches only relaxed atomics, never the registry lock.
//! Each [`Counter`] is one atomic and each [`Histogram`] one cell of
//! atomics. Nothing writes them per command: devices and engines tally
//! into plain integers and flush them (see `dram_sim::metrics`), so
//! worker threads sharing one run registry write it too rarely to
//! contend (docs/perf.md, "Registry traffic"). The one flag every
//! command reads (`tracing`) sits alone on its cache lines and is
//! written once, when a flight recorder is installed.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use crate::span::{SpanCollector, SpanGuard, SpanRecord, SpanTotals};
use crate::trace::{FlightRecorder, TraceKind};

/// Number of histogram bins: bin 0 holds zeros, bin `b ≥ 1` holds
/// values in `[2^(b-1), 2^b)`, up to bin 64 for the top of the u64
/// range.
pub const BIN_COUNT: usize = 65;

/// A value alone on its cache lines. 128 bytes rather than 64 because
/// x86's adjacent-line prefetcher pulls 64-byte lines in pairs.
#[derive(Debug, Default)]
#[repr(align(128))]
struct Padded<T>(T);

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
    cell: Arc<AtomicU64>,
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
        self.cell.fetch_add(n, Ordering::Relaxed);
    }

    /// The current count.
    pub fn get(&self) -> u64 {
        self.cell.load(Ordering::Relaxed)
    }
}

/// A [`Counter`] handle a hot path resolves once instead of looking
/// its name up, under the registry lock, on every event.
///
/// [`CounterSlot::get`] resolves the name on first use and keeps the
/// handle together with the registry it came from; handed another
/// registry, it resolves again, so it never counts into a registry its
/// owner has stopped reporting to. Until the first `get` the name is
/// not registered at all, so a slot that never fires adds no
/// zero-valued counter to a run's artifacts.
#[derive(Debug, Clone, Default)]
pub struct CounterSlot(Option<(Arc<MetricsRegistry>, Counter)>);

impl CounterSlot {
    /// The counter `name` of `registry`. A slot serves one name: pass
    /// the same `name` on every call.
    #[inline]
    pub fn get(&mut self, registry: &Arc<MetricsRegistry>, name: &str) -> &Counter {
        if !matches!(&self.0, Some((resolved, _)) if Arc::ptr_eq(resolved, registry)) {
            self.0 = Some((Arc::clone(registry), registry.counter(name)));
        }
        &self.0.as_ref().expect("resolved above").1
    }
}

/// The atomics behind a [`Histogram`]. The total count is derivable
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
    cell: Arc<HistogramCell>,
}

impl Histogram {
    /// Records one observation.
    #[inline]
    pub fn record(&self, value: u64) {
        // Min/max stabilize after the first few observations — a relaxed
        // load screens out the RMW in the common no-change case.
        let cell = &self.cell;
        cell.bins[bin_index(value)].fetch_add(1, Ordering::Relaxed);
        cell.sum.fetch_add(value, Ordering::Relaxed);
        if cell.min.load(Ordering::Relaxed) > value {
            cell.min.fetch_min(value, Ordering::Relaxed);
        }
        if cell.max.load(Ordering::Relaxed) < value {
            cell.max.fetch_max(value, Ordering::Relaxed);
        }
    }

    /// A point-in-time copy of the distribution.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let cell = &self.cell;
        let bins: [u64; BIN_COUNT] = std::array::from_fn(|b| cell.bins[b].load(Ordering::Relaxed));
        HistogramSnapshot {
            count: bins.iter().sum(),
            bins,
            sum: cell.sum.load(Ordering::Relaxed),
            min: cell.min.load(Ordering::Relaxed),
            max: cell.max.load(Ordering::Relaxed),
        }
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

/// The central sink all layers report into.
///
/// Construction is cheap; the simulator gives every `Module` a private
/// registry by default so unit tests stay isolated, and callers that
/// want one artifact per run share a single `Arc<MetricsRegistry>`
/// across modules, controllers, and methodology passes.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    /// A flight recorder is installed: the flag every command reads.
    tracing: Padded<AtomicBool>,
    counters: Mutex<BTreeMap<String, Counter>>,
    histograms: Mutex<BTreeMap<String, Histogram>>,
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
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty registry behind an `Arc`, ready to share across a run.
    pub fn shared() -> Arc<Self> {
        Arc::new(Self::new())
    }

    /// The counter registered under `name`, creating it at zero on
    /// first use. The handle is lock-free; keep it around rather than
    /// re-looking it up in a loop.
    pub fn counter(&self, name: &str) -> Counter {
        resolve(&self.counters, name)
    }

    /// The histogram registered under `name` (see [`Self::counter`]).
    pub fn histogram(&self, name: &str) -> Histogram {
        resolve(&self.histograms, name)
    }

    /// Installs a flight recorder and arms the tracing fast-gate.
    /// Returns `false` (leaving the existing recorder in place) if one
    /// was already installed.
    pub fn install_recorder(&self, recorder: Arc<FlightRecorder>) -> bool {
        let installed = self.recorder.set(recorder).is_ok();
        if installed {
            self.tracing.0.store(true, Ordering::Relaxed);
        }
        installed
    }

    /// Whether a flight recorder is installed. The hot-path gate: one
    /// relaxed load, false for every run without `--trace-out`, so
    /// tracing-off is a no-op.
    #[inline]
    pub fn tracing_enabled(&self) -> bool {
        self.tracing.0.load(Ordering::Relaxed)
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
        self.span_with(name, sim_now, &[])
    }

    /// [`Self::span`] with `fields` attached in order, interned under
    /// the same lock as the name (the [`crate::span!`] expansion).
    pub fn span_with(
        self: &Arc<Self>,
        name: &str,
        sim_now: u64,
        fields: &[(&str, u64)],
    ) -> SpanGuard {
        SpanGuard::open(Arc::clone(self), name, sim_now, fields)
    }

    /// The span collector (used by [`SpanGuard`]).
    pub(crate) fn span_collector(&self) -> &SpanCollector {
        &self.spans
    }

    /// All counters, sorted by name.
    pub fn counters_snapshot(&self) -> Vec<(String, u64)> {
        self.counters.lock().unwrap().iter().map(|(k, v)| (k.clone(), v.get())).collect()
    }

    /// All histograms, sorted by name.
    pub fn histograms_snapshot(&self) -> Vec<(String, HistogramSnapshot)> {
        self.histograms.lock().unwrap().iter().map(|(k, v)| (k.clone(), v.snapshot())).collect()
    }

    /// Exact totals of every span name with a closed span, sorted by
    /// name: what the summary and `--metrics-out` report.
    pub fn span_totals(&self) -> Vec<(String, SpanTotals)> {
        self.spans.totals()
    }

    /// The last 16,384 closed spans in completion order, plus how many
    /// the ring evicted.
    ///
    /// Survives beside [`Self::span_totals`] for one reader outside
    /// tests: `utrr-benchmark --trace 1` rebuilds its benchmark-owned
    /// span tree (ids, parents, fields) and the program's per-call
    /// sweep and fuzz-round timings from these records. Once that
    /// reader moves onto totals, the ring can go.
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
    fn counter_slot_registers_on_first_use_and_follows_its_registry() {
        let (a, b) = (MetricsRegistry::shared(), MetricsRegistry::shared());
        let mut slot = CounterSlot::default();
        assert!(a.counters_snapshot().is_empty(), "nothing registered before first use");
        slot.get(&a, "x").inc();
        slot.get(&a, "x").add(2);
        slot.get(&b, "x").inc();
        assert_eq!((a.counter("x").get(), b.counter("x").get()), (3, 1));
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

    #[test]
    fn counters_are_safe_under_parallel_writers() {
        const THREADS: u64 = 10;
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
                        histogram.record(v);
                    }
                });
            }
        });
        let reference = Histogram::default();
        let mut total = 0u64;
        for v in (0..THREADS).flat_map(values) {
            total += v;
            reference.record(v);
        }
        let counter = registry.counter("shared");
        assert_eq!(counter.get(), total);
        let (shared, single) = (registry.histogram("h").snapshot(), reference.snapshot());
        assert_eq!(shared.bins, single.bins);
        assert_eq!(
            (shared.count, shared.sum, shared.min, shared.max),
            (single.count, single.sum, single.min, single.max)
        );
    }
}
