//! The device's bridge into the workspace [`obs`] instrumentation layer.
//!
//! Every [`crate::Module`] owns a [`DeviceMetrics`]: pre-resolved counter
//! handles into a [`MetricsRegistry`] plus a plain-`u64` tally of
//! everything counted since the last flush. The per-command hot path
//! only bumps the tally — no atomics, no name lookups, no locks — and
//! [`crate::Module::flush_metrics`] pushes it into the registry with one
//! add per counter. Those counters are the one place a device's counts
//! are read. Modules start with a private registry (keeping unit tests
//! isolated); callers that want one artifact per run attach a shared
//! registry via [`crate::Module::attach_registry`].

use std::sync::Arc;

use obs::{Counter, MetricsRegistry, TraceKind};

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

/// A device's counts since its last flush, one per `dram.*` counter
/// but `dram.cmd.act` (see [`DeviceMetrics::flush`]).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub(crate) struct DeviceCounts {
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
    /// Counts since the last [`DeviceMetrics::flush`].
    pub(crate) pending: DeviceCounts,
    /// [`crate::Module::activations`] at the last flush.
    flushed_acts: u64,
}

impl DeviceMetrics {
    /// Resolves all handles against `registry`, whose `dram.cmd.act`
    /// gets the device's activations after the first `activations`.
    pub fn new(registry: Arc<MetricsRegistry>, activations: u64) -> Self {
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
            registry,
            pending: DeviceCounts::default(),
            flushed_acts: activations,
        }
    }

    /// The backing registry.
    pub fn registry(&self) -> &Arc<MetricsRegistry> {
        &self.registry
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

    /// Pushes the pending counts into the registry, one add per counter,
    /// and zeroes them; `dram.cmd.act` gets the growth of the device's
    /// lifetime tally `activations` since the last flush.
    pub(crate) fn flush(&mut self, activations: u64) {
        let n = std::mem::take(&mut self.pending);
        let acts = activations - std::mem::replace(&mut self.flushed_acts, activations);
        for (counter, count) in [
            (&self.act, acts),
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

    #[test]
    fn flush_moves_pending_counts_once() {
        let registry = Arc::new(MetricsRegistry::new());
        let mut metrics = DeviceMetrics::new(Arc::clone(&registry), 5);
        metrics.pending.bit_flips = 3;
        assert_eq!(registry.counter(CTR_ACT).get(), 0);
        metrics.flush(16);
        metrics.flush(16);
        assert_eq!(metrics.pending, DeviceCounts::default());
        assert_eq!(registry.counter(CTR_ACT).get(), 11, "activations after the first 5");
        assert_eq!(registry.counter(CTR_BIT_FLIPS).get(), 3);
    }

    #[test]
    fn two_devices_can_share_one_registry() {
        let registry = Arc::new(MetricsRegistry::new());
        let mut a = DeviceMetrics::new(Arc::clone(&registry), 0);
        let mut b = DeviceMetrics::new(Arc::clone(&registry), 0);
        a.flush(2);
        b.flush(3);
        assert_eq!(registry.counter(CTR_ACT).get(), 5);
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
