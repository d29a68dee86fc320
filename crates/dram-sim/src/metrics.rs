//! The device's bridge into the workspace [`obs`] instrumentation layer.
//!
//! Every [`crate::Module`] owns a [`DeviceMetrics`]: pre-resolved counter
//! and histogram handles into a [`MetricsRegistry`], so the per-command
//! hot path touches only relaxed atomics — no name lookups, no locks.
//! Modules start with a private registry (keeping unit tests isolated);
//! callers that want one artifact per run attach a shared registry via
//! [`crate::Module::attach_registry`].

use std::sync::Arc;

use obs::{Counter, Histogram, MetricsRegistry, TraceKind};

use crate::stats::ModuleStats;

/// Counter name for row activations (`ACT`), batched hammers included.
pub const CTR_ACT: &str = "dram.cmd.act";
/// Counter name for precharges (`PRE`).
pub const CTR_PRE: &str = "dram.cmd.pre";
/// Counter name for `REF` commands.
pub const CTR_REF: &str = "dram.cmd.ref";
/// Counter name for full-row reads.
pub const CTR_ROW_READS: &str = "dram.row.reads";
/// Counter name for full-row writes.
pub const CTR_ROW_WRITES: &str = "dram.row.writes";
/// Counter name for rows restored by the regular refresh machinery.
pub const CTR_REGULAR_ROW_REFRESHES: &str = "dram.rows.regular_refresh";
/// Counter name for rows restored by TRR-induced refreshes.
pub const CTR_TRR_ROW_REFRESHES: &str = "dram.rows.trr_refresh";
/// Counter name for TRR detections.
pub const CTR_TRR_DETECTIONS: &str = "dram.trr.detections";
/// Counter name for materialized bit flips.
pub const CTR_BIT_FLIPS: &str = "dram.bit_flips";

/// Histogram name for per-`ACT` latency, in nanoseconds.
pub const HIST_ACT_NS: &str = "dram.latency.act_ns";
/// Histogram name for per-`PRE` latency, in nanoseconds.
pub const HIST_PRE_NS: &str = "dram.latency.pre_ns";
/// Histogram name for per-`REF` latency, in nanoseconds.
pub const HIST_REF_NS: &str = "dram.latency.ref_ns";
/// Histogram name for full-row read latency, in nanoseconds.
pub const HIST_READ_NS: &str = "dram.latency.read_ns";
/// Histogram name for full-row write latency, in nanoseconds.
pub const HIST_WRITE_NS: &str = "dram.latency.write_ns";

/// Event kind emitted when a restore materializes bit flips.
pub const EVT_BIT_FLIP: &str = "dram.bit_flip";
/// Event kind emitted per TRR detection acted on.
pub const EVT_TRR_DETECTION: &str = "dram.trr.detection";

/// Pre-resolved instrument handles for one device.
#[derive(Debug, Clone)]
pub struct DeviceMetrics {
    registry: Arc<MetricsRegistry>,
    /// `ACT` count (see [`CTR_ACT`]).
    pub act: Counter,
    /// `PRE` count (see [`CTR_PRE`]).
    pub pre: Counter,
    /// `REF` count (see [`CTR_REF`]).
    pub refresh: Counter,
    /// Row-read count (see [`CTR_ROW_READS`]).
    pub row_reads: Counter,
    /// Row-write count (see [`CTR_ROW_WRITES`]).
    pub row_writes: Counter,
    /// Regular-refresh restore count (see [`CTR_REGULAR_ROW_REFRESHES`]).
    pub regular_row_refreshes: Counter,
    /// TRR-induced restore count (see [`CTR_TRR_ROW_REFRESHES`]).
    pub trr_row_refreshes: Counter,
    /// TRR detection count (see [`CTR_TRR_DETECTIONS`]).
    pub trr_detections: Counter,
    /// Bit-flip count (see [`CTR_BIT_FLIPS`]).
    pub bit_flips: Counter,
    /// `ACT` latency (see [`HIST_ACT_NS`]).
    pub act_ns: Histogram,
    /// `PRE` latency (see [`HIST_PRE_NS`]).
    pub pre_ns: Histogram,
    /// `REF` latency (see [`HIST_REF_NS`]).
    pub ref_ns: Histogram,
    /// Row-read latency (see [`HIST_READ_NS`]).
    pub read_ns: Histogram,
    /// Row-write latency (see [`HIST_WRITE_NS`]).
    pub write_ns: Histogram,
}

impl DeviceMetrics {
    /// Resolves all handles against `registry`.
    pub fn new(registry: Arc<MetricsRegistry>) -> Self {
        DeviceMetrics {
            act: registry.counter(CTR_ACT),
            pre: registry.counter(CTR_PRE),
            refresh: registry.counter(CTR_REF),
            row_reads: registry.counter(CTR_ROW_READS),
            row_writes: registry.counter(CTR_ROW_WRITES),
            regular_row_refreshes: registry.counter(CTR_REGULAR_ROW_REFRESHES),
            trr_row_refreshes: registry.counter(CTR_TRR_ROW_REFRESHES),
            trr_detections: registry.counter(CTR_TRR_DETECTIONS),
            bit_flips: registry.counter(CTR_BIT_FLIPS),
            act_ns: registry.histogram(HIST_ACT_NS),
            pre_ns: registry.histogram(HIST_PRE_NS),
            ref_ns: registry.histogram(HIST_REF_NS),
            read_ns: registry.histogram(HIST_READ_NS),
            write_ns: registry.histogram(HIST_WRITE_NS),
            registry,
        }
    }

    /// A private per-device registry (detail off): the default for
    /// modules constructed without an explicit registry.
    pub fn private() -> Self {
        DeviceMetrics::new(Arc::new(MetricsRegistry::new()))
    }

    /// The backing registry.
    pub fn registry(&self) -> &Arc<MetricsRegistry> {
        &self.registry
    }

    /// Whether detail instrumentation (latency histograms, events) is
    /// being recorded.
    #[inline]
    pub fn detail(&self) -> bool {
        self.registry.detail_enabled()
    }

    /// Records an event (no-op unless detail is enabled).
    #[inline]
    pub fn event(&self, kind: &'static str, t_sim: u64, fields: &[(&'static str, u64)]) {
        self.registry.event(kind, t_sim, fields);
    }

    /// Whether a flight recorder is attached (one relaxed load).
    #[inline]
    pub fn tracing(&self) -> bool {
        self.registry.tracing_enabled()
    }

    /// Emits a flight-recorder trace event (no-op unless tracing is
    /// on; see [`MetricsRegistry::trace`]).
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
        self.registry.trace(kind, t_sim, bank, row, fields, detail)
    }

    /// The classic [`ModuleStats`] view over this device's counters.
    pub fn stats_view(&self) -> ModuleStats {
        ModuleStats {
            activations: self.act.get(),
            refreshes: self.refresh.get(),
            regular_row_refreshes: self.regular_row_refreshes.get(),
            trr_row_refreshes: self.trr_row_refreshes.get(),
            trr_detections: self.trr_detections.get(),
            row_reads: self.row_reads.get(),
            row_writes: self.row_writes.get(),
            bit_flips: self.bit_flips.get(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_view_reads_the_registry() {
        let registry = Arc::new(MetricsRegistry::new());
        let metrics = DeviceMetrics::new(Arc::clone(&registry));
        metrics.act.add(11);
        metrics.bit_flips.add(3);
        let stats = metrics.stats_view();
        assert_eq!(stats.activations, 11);
        assert_eq!(stats.bit_flips, 3);
        assert_eq!(stats.refreshes, 0);
        assert_eq!(registry.counter(CTR_ACT).get(), 11);
    }

    #[test]
    fn two_devices_can_share_one_registry() {
        let registry = Arc::new(MetricsRegistry::new());
        let a = DeviceMetrics::new(Arc::clone(&registry));
        let b = DeviceMetrics::new(Arc::clone(&registry));
        a.act.add(2);
        b.act.add(3);
        assert_eq!(a.stats_view().activations, 5);
        assert_eq!(b.stats_view().activations, 5);
    }
}
