//! The device's bridge into the workspace [`obs`] instrumentation layer.
//!
//! Every [`crate::Module`] owns a [`DeviceMetrics`]: pre-resolved counter
//! and histogram handles into a [`MetricsRegistry`] plus a plain-`u64`
//! tally of everything counted since the last flush. The per-command hot
//! path only bumps the tally — no atomics, no name lookups, no locks —
//! and [`crate::Module::flush_metrics`] pushes it into the registry with
//! one counter add and one histogram record per value. Every latency a
//! device records is a timing constant of its configuration, so a count
//! per histogram and value is exact. Modules start with a private
//! registry (keeping unit tests isolated); callers that want one
//! artifact per run attach a shared registry via
//! [`crate::Module::attach_registry`].

use std::sync::Arc;

use obs::{Counter, Histogram, MetricsRegistry, TraceKind};

use crate::stats::ModuleStats;
use crate::time::{Nanos, Timings};

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
pub(crate) const CTR_REGULAR_ROW_REFRESHES: &str = "dram.rows.regular_refresh";
/// Counter name for rows restored by TRR-induced refreshes.
pub const CTR_TRR_ROW_REFRESHES: &str = "dram.rows.trr_refresh";
/// Counter name for TRR detections.
pub const CTR_TRR_DETECTIONS: &str = "dram.trr.detections";
/// Counter name for materialized bit flips.
pub const CTR_BIT_FLIPS: &str = "dram.bit_flips";

/// Histogram name for per-`ACT` latency, in nanoseconds.
pub(crate) const HIST_ACT_NS: &str = "dram.latency.act_ns";
/// Histogram name for per-`PRE` latency, in nanoseconds.
pub(crate) const HIST_PRE_NS: &str = "dram.latency.pre_ns";
/// Histogram name for per-`REF` latency, in nanoseconds.
pub(crate) const HIST_REF_NS: &str = "dram.latency.ref_ns";
/// Histogram name for full-row read latency, in nanoseconds.
pub(crate) const HIST_READ_NS: &str = "dram.latency.read_ns";
/// Histogram name for full-row write latency, in nanoseconds.
pub(crate) const HIST_WRITE_NS: &str = "dram.latency.write_ns";

/// A device's counts since its last flush, one per `dram.*` counter.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub(crate) struct DeviceCounts {
    pub act: u64,
    /// The part of `act` issued as single `ACT` commands (latency
    /// `tRAS`); the rest are hammer activations (latency `tRC`).
    pub single_act: u64,
    pub pre: u64,
    pub refresh: u64,
    pub row_reads: u64,
    pub row_writes: u64,
    pub regular_row_refreshes: u64,
    pub trr_row_refreshes: u64,
    pub trr_detections: u64,
    pub bit_flips: u64,
}

/// Pre-resolved instrument handles for one device, and its counts not
/// yet pushed into them.
///
/// The registry sees a device's counts only when the owning
/// [`crate::Module`] flushes them: explicitly, when another registry is
/// attached, or when the module is dropped. Not `Clone`, so pending
/// counts have exactly one owner and reach the registry exactly once.
#[derive(Debug)]
pub(crate) struct DeviceMetrics {
    registry: Arc<MetricsRegistry>,
    act: Counter,
    pre: Counter,
    refresh: Counter,
    row_reads: Counter,
    row_writes: Counter,
    regular_row_refreshes: Counter,
    trr_row_refreshes: Counter,
    trr_detections: Counter,
    bit_flips: Counter,
    act_ns: Histogram,
    pre_ns: Histogram,
    ref_ns: Histogram,
    read_ns: Histogram,
    write_ns: Histogram,
    /// Counts since the last [`DeviceMetrics::flush`].
    pub(crate) pending: DeviceCounts,
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
            pending: DeviceCounts::default(),
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

    /// Whether detail instrumentation (latency histograms) is being
    /// recorded.
    #[inline]
    pub fn detail(&self) -> bool {
        self.registry.detail_enabled()
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

    /// Pushes the pending counts into the registry — one add per
    /// counter and, if detail is on, one record per latency histogram
    /// and value — and zeroes them. `timings` are the device's; a row
    /// read or write takes `row_io`.
    pub(crate) fn flush(&mut self, timings: &Timings, row_io: Nanos) {
        let n = std::mem::take(&mut self.pending);
        for (counter, count) in [
            (&self.act, n.act),
            (&self.pre, n.pre),
            (&self.refresh, n.refresh),
            (&self.row_reads, n.row_reads),
            (&self.row_writes, n.row_writes),
            (&self.regular_row_refreshes, n.regular_row_refreshes),
            (&self.trr_row_refreshes, n.trr_row_refreshes),
            (&self.trr_detections, n.trr_detections),
            (&self.bit_flips, n.bit_flips),
        ] {
            counter.add(count);
        }
        if self.detail() {
            self.act_ns.record_n(timings.t_ras.as_ns(), n.single_act);
            self.act_ns.record_n(timings.t_rc().as_ns(), n.act - n.single_act);
            self.pre_ns.record_n(timings.t_rp.as_ns(), n.pre);
            self.ref_ns.record_n(timings.t_rfc.as_ns(), n.refresh);
            self.read_ns.record_n(row_io.as_ns(), n.row_reads);
            self.write_ns.record_n(row_io.as_ns(), n.row_writes);
        }
    }

    /// The classic [`ModuleStats`] view: the registry's counters plus
    /// this device's pending counts.
    pub(crate) fn stats_view(&self) -> ModuleStats {
        let n = &self.pending;
        ModuleStats {
            activations: self.act.get() + n.act,
            refreshes: self.refresh.get() + n.refresh,
            regular_row_refreshes: self.regular_row_refreshes.get() + n.regular_row_refreshes,
            trr_row_refreshes: self.trr_row_refreshes.get() + n.trr_row_refreshes,
            trr_detections: self.trr_detections.get() + n.trr_detections,
            row_reads: self.row_reads.get() + n.row_reads,
            row_writes: self.row_writes.get() + n.row_writes,
            bit_flips: self.bit_flips.get() + n.bit_flips,
        }
    }
}

/// A registry counter for code that owns its state, such as a TRR
/// engine: increments land in a plain `u64` and reach the registry on
/// [`TallyCounter::flush`], so a per-command count costs no atomic.
/// Counts made before a counter is attached are discarded at the first
/// flush, like counts into a registry nobody reads.
#[derive(Debug, Default)]
pub struct TallyCounter {
    counter: Option<Counter>,
    pending: u64,
}

impl TallyCounter {
    /// Flushes into the current counter, then counts into `registry`'s
    /// counter `name`.
    pub fn attach(&mut self, registry: &MetricsRegistry, name: &str) {
        self.flush();
        self.counter = Some(registry.counter(name));
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&mut self, n: u64) {
        self.pending += n;
    }

    /// Pushes the pending count into the attached counter.
    pub fn flush(&mut self) {
        let n = std::mem::take(&mut self.pending);
        if let Some(counter) = &self.counter {
            counter.add(n);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const ROW_IO: Nanos = Nanos::from_ns(500);

    #[test]
    fn stats_view_adds_pending_counts_until_a_flush_moves_them() {
        let registry = Arc::new(MetricsRegistry::new());
        let mut metrics = DeviceMetrics::new(Arc::clone(&registry));
        metrics.pending.act = 11;
        metrics.pending.bit_flips = 3;
        let stats = metrics.stats_view();
        assert_eq!((stats.activations, stats.bit_flips, stats.refreshes), (11, 3, 0));
        assert_eq!(registry.counter(CTR_ACT).get(), 0);
        metrics.flush(&Timings::ddr4(), ROW_IO);
        metrics.flush(&Timings::ddr4(), ROW_IO);
        assert_eq!(metrics.stats_view(), stats);
        assert_eq!(registry.counter(CTR_ACT).get(), 11);
    }

    #[test]
    fn two_devices_can_share_one_registry() {
        let registry = Arc::new(MetricsRegistry::new());
        let mut a = DeviceMetrics::new(Arc::clone(&registry));
        let mut b = DeviceMetrics::new(Arc::clone(&registry));
        a.pending.act = 2;
        b.pending.act = 3;
        a.flush(&Timings::ddr4(), ROW_IO);
        b.flush(&Timings::ddr4(), ROW_IO);
        assert_eq!(a.stats_view().activations, 5);
        assert_eq!(b.stats_view().activations, 5);
    }

    #[test]
    fn tally_counter_reaches_its_registry_once() {
        let (old, new) = (MetricsRegistry::new(), MetricsRegistry::new());
        let mut tally = TallyCounter::default();
        tally.add(9); // no counter yet: discarded
        tally.attach(&old, "trr.X.detections");
        tally.add(4);
        assert_eq!(old.counter("trr.X.detections").get(), 0);
        tally.attach(&new, "trr.X.detections");
        tally.add(1);
        tally.flush();
        tally.flush();
        assert_eq!(old.counter("trr.X.detections").get(), 4);
        assert_eq!(new.counter("trr.X.detections").get(), 1);
    }
}
