//! The interface between the DRAM device and an in-DRAM RowHammer
//! mitigation mechanism (TRR).
//!
//! Real TRR logic sits inside the chip: it observes every `ACT`, and when
//! the memory controller issues a `REF` it may piggyback extra "TRR-
//! induced" row refreshes onto it (§2.4 of the paper). The simulator
//! mirrors this split: the [`crate::Module`] calls [`MitigationEngine`]
//! hooks for activations and refreshes, and the engine answers with the
//! aggressor rows it decided to protect against. The module — which owns
//! the bank [`crate::Topology`] — expands each detection into the actual
//! victim rows and restores them.
//!
//! Concrete engines (counter-based, sampling-based, mixed) live in the
//! `trr` crate; this trait lives here to break the dependency cycle.

use std::fmt;

use crate::addr::{Bank, PhysRow};
use crate::time::Nanos;

/// How many neighbours per side a TRR detection protects.
///
/// Vendor A's A_TRR1 refreshes the four closest rows (±1 and ±2,
/// Observation A2); most other designs refresh only the immediate
/// neighbours (±1, Observation B2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NeighborSpan {
    /// Refresh rows at physical distance 1 (two victims).
    One,
    /// Refresh rows at physical distance 1 and 2 (four victims).
    Two,
}

impl NeighborSpan {
    /// Number of rows refreshed on each side of the aggressor.
    pub(crate) const fn per_side(self) -> u32 {
        match self {
            NeighborSpan::One => 1,
            NeighborSpan::Two => 2,
        }
    }

    /// Total victim rows refreshed per detection (edge effects aside).
    pub const fn victims(self) -> u32 {
        self.per_side() * 2
    }
}

/// One aggressor-row detection produced by a TRR engine during a `REF`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TrrDetection {
    /// The bank the detection applies to.
    pub bank: Bank,
    /// The detected aggressor row (physical position).
    pub aggressor: PhysRow,
    /// Which neighbours the engine refreshes around it.
    pub span: NeighborSpan,
}

/// An in-DRAM RowHammer mitigation engine.
///
/// Engines observe activations (always in physical row space — the chip
/// knows its own decoder) and, on each `REF`, return zero or more
/// [`TrrDetection`]s. The device refreshes the victims of every detection
/// together with the regular refresh work of that `REF`.
///
/// # Batched hooks
///
/// Full-bank attack sweeps issue millions of activations; engines must
/// therefore support batch semantics. The contract for every batched hook
/// is *order equivalence*: the engine state after
/// `on_activations(b, r, n, t)` must be distributed identically to `n`
/// consecutive `on_activations(b, r, 1, t)` calls, and
/// `on_interleaved_pair(b, r1, r2, n, t)` identically to the alternating
/// sequence `r1, r2, r1, r2, …` of length `2n`. The default
/// implementation of [`MitigationEngine::on_interleaved_pair`] realizes
/// exactly that loop; engines override it with closed-form updates where
/// possible. The property tests in the `trr` crate verify the equivalence
/// for every shipped engine.
pub trait MitigationEngine: fmt::Debug {
    /// Observes `count` back-to-back activations of `row` in `bank`
    /// ending at time `now`.
    fn on_activations(&mut self, bank: Bank, row: PhysRow, count: u64, now: Nanos);

    /// Observes `pairs` alternating activations of `(first, second)`
    /// — the sequence `first, second, first, second, …` (`2 * pairs`
    /// activations, ending with `second`).
    fn on_interleaved_pair(
        &mut self,
        bank: Bank,
        first: PhysRow,
        second: PhysRow,
        pairs: u64,
        now: Nanos,
    ) {
        for _ in 0..pairs {
            self.on_activations(bank, first, 1, now);
            self.on_activations(bank, second, 1, now);
        }
    }

    /// Called for every `REF` command; appends the aggressor detections
    /// whose victims this `REF` will refresh onto `out`.
    ///
    /// The device hands every engine the same reusable buffer (cleared
    /// before the call), so the refresh hot loop performs no per-`REF`
    /// heap allocation. Engines must only *append*; anything already in
    /// `out` belongs to the caller.
    fn on_refresh(&mut self, now: Nanos, out: &mut Vec<TrrDetection>);

    /// Consumes up to `max` upcoming `REF`s that provably append no
    /// detection, and returns how many (`m ≤ max`) it consumed.
    ///
    /// The contract is exact: afterwards the engine must be in the state
    /// `m` consecutive [`MitigationEngine::on_refresh`] calls would have
    /// left it in (REF counters, armed slots, RNG position, metrics), and
    /// each of those calls must have appended nothing. No activation can
    /// happen in between — the device calls this only inside a `REF`
    /// burst ([`crate::Module::refresh_burst_at_refi`]), where it then
    /// runs the regular-refresh sweeps of those `REF`s itself. The
    /// default consumes nothing, which is always correct.
    fn skip_idle_refs(&mut self, _max: u64) -> u64 {
        0
    }

    /// Appends detections to act on *immediately*, drained after every
    /// activation batch. In-DRAM TRR never uses this (it piggybacks on
    /// `REF` — §2.4 of the paper), but proposed ACT-synchronous
    /// mitigations like PARA and Graphene refresh victims the moment an
    /// aggressor is caught. The device restores the victims right after
    /// the batch whose activations produced them, so within one batch
    /// (≤ ~149 activations, far below any flip threshold) the timing
    /// approximation is harmless. Like [`MitigationEngine::on_refresh`]
    /// this fills a caller-owned reusable buffer; the default appends
    /// nothing.
    fn take_inline_detections(&mut self, _out: &mut Vec<TrrDetection>) {}

    /// Whether this engine can *ever* surface ACT-synchronous detections
    /// through [`MitigationEngine::take_inline_detections`]. Engines that
    /// only detect at `REF` time (all in-DRAM TRR implementations) return
    /// `false`, which lets the device skip the inline-drain call after
    /// every activation batch entirely. The default is `true` — always
    /// correct, merely slower — so only engines whose
    /// `take_inline_detections` is the no-op default should override.
    fn detects_inline(&self) -> bool {
        true
    }

    /// Hands the engine the metrics registry of the device it protects,
    /// called on construction and whenever a new registry is attached
    /// ([`crate::Module::attach_registry`]). Engines that want to expose
    /// internal counters (table evictions, sampler hits, …) register
    /// them here (as [`crate::metrics::TallyCounter`]s, flushing what
    /// they counted into the previous registry); the default keeps
    /// engines metrics-free.
    fn attach_metrics(&mut self, _registry: &std::sync::Arc<obs::MetricsRegistry>) {}

    /// Pushes the counts the engine made since its last flush into the
    /// attached registry. The device calls this from
    /// [`crate::Module::flush_metrics`] (and so on drop); engines count
    /// per command into plain integers and pay the registry only here.
    fn flush_metrics(&mut self) {}

    /// A short identifier for logs (e.g. `"A_TRR1"`).
    fn name(&self) -> &str;
}

/// The null mitigation: a chip without TRR. Useful as a baseline and for
/// testing the pure retention/RowHammer physics.
///
/// # Example
///
/// ```
/// use dram_sim::{MitigationEngine, NoMitigation, Bank, PhysRow, Nanos};
///
/// let mut none = NoMitigation;
/// none.on_activations(Bank::new(0), PhysRow::new(1), 1000, Nanos::ZERO);
/// let mut detections = Vec::new();
/// none.on_refresh(Nanos::ZERO, &mut detections);
/// assert!(detections.is_empty());
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NoMitigation;

impl MitigationEngine for NoMitigation {
    fn on_activations(&mut self, _: Bank, _: PhysRow, _: u64, _: Nanos) {}

    fn on_refresh(&mut self, _: Nanos, _out: &mut Vec<TrrDetection>) {}

    fn skip_idle_refs(&mut self, max: u64) -> u64 {
        max
    }

    fn detects_inline(&self) -> bool {
        false
    }

    fn name(&self) -> &str {
        "none"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_counts() {
        assert_eq!(NeighborSpan::One.per_side(), 1);
        assert_eq!(NeighborSpan::One.victims(), 2);
        assert_eq!(NeighborSpan::Two.victims(), 4);
    }

    #[test]
    fn no_mitigation_never_detects() {
        let mut e = NoMitigation;
        for i in 0..100 {
            e.on_activations(Bank::new(0), PhysRow::new(i), 10_000, Nanos::ZERO);
        }
        let mut out = Vec::new();
        e.on_refresh(Nanos::from_us(8), &mut out);
        e.take_inline_detections(&mut out);
        assert!(out.is_empty());
        assert_eq!(e.name(), "none");
    }

    #[test]
    fn default_interleaved_pair_is_a_loop() {
        // A probe engine that records the exact activation sequence.
        #[derive(Debug, Default)]
        struct Probe(Vec<(u32, u64)>);
        impl MitigationEngine for Probe {
            fn on_activations(&mut self, _: Bank, row: PhysRow, count: u64, _: Nanos) {
                self.0.push((row.index(), count));
            }
            fn on_refresh(&mut self, _: Nanos, _: &mut Vec<TrrDetection>) {}
            fn name(&self) -> &str {
                "probe"
            }
        }

        let mut p = Probe::default();
        p.on_interleaved_pair(Bank::new(0), PhysRow::new(1), PhysRow::new(2), 3, Nanos::ZERO);
        assert_eq!(p.0, vec![(1, 1), (2, 1), (1, 1), (2, 1), (1, 1), (2, 1)]);
    }
}
