//! Workspace-wide instrumentation layer.
//!
//! Every layer of the U-TRR reproduction — the device model, the SoftMC
//! controller, the methodology passes, and the bench binaries — reports
//! into one [`MetricsRegistry`]:
//!
//! - **Counters** ([`Counter`]): named atomic counts. Handles are
//!   `Arc`-backed and lock-free; the registry lock is taken only at
//!   registration time. Nothing writes them per command: the simulator
//!   tallies in plain integers and flushes.
//! - **Histograms** ([`Histogram`]): log₂-binned distributions with
//!   count/sum/min/max and quantile estimates accurate to one bin.
//! - **Spans** ([`SpanGuard`], [`span!`]): hierarchical timed regions
//!   carrying both wall-clock and simulated-time durations, summed into
//!   exact per-name totals ([`SpanTotals`]); the most recent are also
//!   kept, packed, in a bounded ring.
//! - **Flight recorder** ([`FlightRecorder`], [`trace`]): an opt-in,
//!   row-filterable ring of causal trace events (bit flips, TRR
//!   detections, commands) with verdict provenance, exported as
//!   `utrr-trace/1` JSONL or Chrome `trace_event` JSON.
//!
//! [`jsonl::write_jsonl`] serialises all of the above as one JSON
//! object per line — diffable across runs and parseable without serde
//! via [`jsonl::parse_json`]. [`report::render_summary`] renders the
//! human-readable end-of-run table the bench binaries print.
//!
//! The crate has **no external dependencies**: serialization is
//! hand-rolled and all synchronisation is `std`.

pub mod jsonl;
pub mod metrics;
pub mod report;
pub mod span;
pub mod trace;

pub use metrics::{
    bin_index, bin_lower_bound, bin_upper_bound, Counter, CounterSlot, Histogram,
    HistogramSnapshot, MetricsRegistry, BIN_COUNT,
};
pub use span::{SpanGuard, SpanRecord, SpanTotals};
pub use trace::{
    FlightRecorder, TraceEvent, TraceFilter, TraceKind, DEFAULT_TRACE_CAPACITY, TRACE_SCHEMA,
};

/// Opens a span on a registry: `span!(reg, "name", sim_now, key = val, …)`.
///
/// `sim_now` is the current simulated time in nanoseconds; extra
/// `key = value` pairs become span fields (values convert `as u64`).
/// The returned [`SpanGuard`] closes the span when dropped, or — to
/// also record the simulated-time duration — via
/// [`SpanGuard::finish`] with the simulated clock at close.
#[macro_export]
macro_rules! span {
    ($registry:expr, $name:expr, $sim_now:expr $(, $key:ident = $value:expr)* $(,)?) => {
        $crate::MetricsRegistry::span_with(
            &$registry,
            $name,
            $sim_now,
            &[$((stringify!($key), $value as u64)),*],
        )
    };
}
