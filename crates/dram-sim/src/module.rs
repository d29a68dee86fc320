//! The simulated DRAM module: command execution, refresh machinery, and
//! flip materialization.
//!
//! # Semantics
//!
//! The device keeps, per touched row, the time of its last *restore* (any
//! event that fully re-senses the row: an `ACT`, a full-row write, a
//! regular refresh, or a TRR-induced refresh) and the RowHammer
//! disturbance accumulated since then. Bit flips materialize lazily at the
//! next restore or read: a weak cell flips if the decay window exceeded
//! its retention time, and the row's hammerable cells flip if the
//! accumulated disturbance exceeded their thresholds. This matches real
//! DRAM, where a flipped cell is re-written *as flipped* by the next
//! refresh — which is precisely why retention failures work as a refresh
//! side channel (§1 of the paper: a row refreshed mid-window reads back
//! clean; an unrefreshed row reads back with its weak cells flipped).
//!
//! Regular refresh follows the DDR4 auto-refresh contract: each `REF`
//! restores the next `rows / period_refs` physical rows of every bank in
//! round-robin order, so every row is restored exactly once every
//! `period_refs` `REF` commands. The paper's Observation A8 (vendor A
//! refreshes internally every 3758 REFs instead of every ~8192) is a
//! [`RefreshConfig`] parameter.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use obs::MetricsRegistry;

use crate::addr::{Bank, ModuleGeometry, PhysRow, RowAddr};
use crate::data::{DataPattern, RowData, RowReadout};
use crate::error::DramError;
use crate::mapping::{RowMapping, Topology};
use crate::metrics::DeviceMetrics;
use crate::mitigation::{MitigationEngine, NoMitigation, TrrDetection};
use crate::physics::{window_flips, PhysicsConfig, RowPhysics, RowPhysicsView, WeakCells};
use crate::rng::SplitMix64;
use crate::time::{Nanos, Timings};
use obs::TraceKind;

/// Time cost of streaming a full row through the column interface.
const ROW_IO: Nanos = Nanos::from_ns(500);

/// Decay windows shorter than this do not advance the VRT Markov chain
/// (back-to-back hammers are one observation, not thousands).
const VRT_OBSERVATION_FLOOR: Nanos = Nanos::from_ms(1);

/// Regular-refresh configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RefreshConfig {
    /// Number of `REF` commands after which every row has been restored
    /// exactly once. DDR4 nominal is ~8192 (64 ms / 7.8 µs); the paper
    /// finds vendor A uses 3758 (Observation A8).
    pub period_refs: u32,
}

impl RefreshConfig {
    /// The DDR4-nominal schedule: every row once per ~8K `REF`s.
    pub const fn ddr4_nominal() -> Self {
        RefreshConfig { period_refs: 8192 }
    }
}

impl Default for RefreshConfig {
    fn default() -> Self {
        RefreshConfig::ddr4_nominal()
    }
}

/// Everything needed to construct a [`Module`] except the seed and the
/// mitigation engine.
#[derive(Debug, Clone, PartialEq)]
pub struct ModuleConfig {
    /// Bank/row/column geometry.
    pub geometry: ModuleGeometry,
    /// DDR timing parameters.
    pub timings: Timings,
    /// Cell failure physics.
    pub physics: PhysicsConfig,
    /// Logical→physical row mapping.
    pub mapping: RowMapping,
    /// Disturbance topology.
    pub topology: Topology,
    /// Regular-refresh schedule.
    pub refresh: RefreshConfig,
}

impl ModuleConfig {
    /// A small module for fast unit tests: 2 banks × 1024 rows, identity
    /// mapping, aggressive physics, no TRR.
    pub fn small_test() -> Self {
        ModuleConfig {
            geometry: ModuleGeometry::tiny(),
            timings: Timings::ddr4(),
            physics: PhysicsConfig::default_test(),
            mapping: RowMapping::Identity,
            topology: Topology::Linear,
            refresh: RefreshConfig { period_refs: 1024 },
        }
    }
}

/// Cold per-row state, created on first touch: the row's data and its
/// weak-cell physics. Restores read it only when a bit can flip or a
/// VRT cell switches (see [`HotRow`]).
#[derive(Debug)]
struct RowState {
    data: Option<RowData>,
    physics: RowPhysics,
}

/// The part of a touched row's state every restore reads, kept in a
/// small record parallel to [`RowState`] so regular-refresh sweeps and
/// TRR victim restores of rows that cannot flip touch one cache line.
///
/// Invariant: whenever the row holds data, `min_live` is the minimum
/// effective retention over the weak cells whose stored bit equals
/// their charged value ([`WeakCells::NO_CELLS`] if none) — recomputed
/// on write, after flips and after a VRT transition. A restore with no
/// data, or with a decay window `≤ min_live` and disturbance below
/// `hc_base`, flips nothing. If the window also reaches
/// [`VRT_OBSERVATION_FLOOR`] on a VRT row, the row's VRT stream (kept
/// here) is drawn first; only a draw that switches a cell needs the
/// cold path.
#[derive(Debug, Clone, Copy)]
struct HotRow {
    last_restore: Nanos,
    disturbance: f64,
    /// [`PhysicsConfig::aggressor_coupling`] of the row's data pattern.
    coupling: f64,
    /// Copy of [`RowPhysics::hc_base`]: the first-flip disturbance.
    hc_base: f64,
    min_live: Nanos,
    /// The row's VRT transition stream ([`RowPhysics::advance_vrt`]).
    vrt_rng: SplitMix64,
    /// [`RowPhysics::vrt_cells`]: draws per VRT observation.
    vrt_cells: u32,
    has_data: bool,
}

impl HotRow {
    fn fresh(now: Nanos, physics: &RowPhysics, vrt_rng: SplitMix64, cfg: &PhysicsConfig) -> Self {
        HotRow {
            last_restore: now,
            disturbance: 0.0,
            coupling: cfg.aggressor_coupling(None),
            hc_base: physics.hc_base,
            min_live: WeakCells::NO_CELLS,
            vrt_rng,
            vrt_cells: physics.vrt_cells(),
            has_data: false,
        }
    }
}

/// The round-robin `REF` window `[start, end)` of the upcoming `REF`,
/// maintained incrementally (Bresenham-style) so the per-`REF` hot path
/// never divides. Invariant: with `k = ref_count % period`,
/// `start = k·rows/period`, `end = (k+1)·rows/period`, and
/// `rem = ((k+1)·rows) % period`.
#[derive(Debug, Clone, Copy)]
struct RefWindow {
    /// Position within the refresh period (`ref_count % period`).
    k: u64,
    start: u64,
    end: u64,
    /// Running remainder of `(k+1)·rows / period`.
    rem: u64,
    /// `rows / period` and `rows % period`, precomputed once.
    q: u64,
    r: u64,
    period: u64,
}

impl RefWindow {
    fn new(rows: u64, period: u64) -> Self {
        let (q, r) = (rows / period, rows % period);
        RefWindow { k: 0, start: 0, end: q, rem: r, q, r, period }
    }

    /// Advances to the next `REF`'s window.
    fn step(&mut self) {
        self.k += 1;
        if self.k == self.period {
            self.k = 0;
            self.start = 0;
            self.end = self.q;
            self.rem = self.r;
            return;
        }
        self.start = self.end;
        self.end += self.q;
        self.rem += self.r;
        if self.rem >= self.period {
            self.rem -= self.period;
            self.end += 1;
        }
    }
}

/// Per-bank interface state.
#[derive(Debug, Default, Clone, Copy)]
struct BankState {
    /// The open row, as (logical, physical), if any.
    open: Option<(RowAddr, PhysRow)>,
    /// The most recently activated physical row (for the same-row
    /// hammering discount).
    last_act: Option<PhysRow>,
}

/// One op of a [`Module::hammer_batch`] or a [`HammerPlan`]. An op with
/// a zero dose is a strict no-op on the device (no state, no metrics, no
/// clock), so callers may emit them freely.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HammerOp {
    /// Back-to-back activations of one row ([`Module::hammer`]).
    Burst {
        /// Row to activate.
        row: RowAddr,
        /// Activation count.
        acts: u64,
    },
    /// Alternating activations of two rows (`first`, `second`, `first`,
    /// …) — `pairs` activations of each ([`Module::hammer_pair`]).
    Pair {
        /// First row of the pair.
        first: RowAddr,
        /// Second row of the pair.
        second: RowAddr,
        /// Activations per row.
        pairs: u64,
    },
    /// Activations in another bank, overlapped with the batch bank's
    /// time: they run at the current time and do not advance the clock
    /// (the §7.1 vendor-B pattern hammers dummy rows in four banks
    /// concurrently, bounded by `tFAW` rather than one bank's `tRC`
    /// budget).
    OtherBank {
        /// The other bank.
        bank: Bank,
        /// Row to activate there.
        row: RowAddr,
        /// Activation count.
        acts: u64,
    },
}

/// Hammer ops resolved once against one module and replayable any number
/// of times ([`Module::plan`], [`Module::run_plan`]): the §7.2 harness
/// loads a pattern as a program and loops it every `tREFI`. Each run is
/// observationally identical to a [`Module::hammer_batch`] of the ops it
/// was resolved from.
#[derive(Debug, Clone)]
pub struct HammerPlan {
    /// [`Module::id`] of the module that resolved it: cached row indices
    /// mean nothing on another module.
    module: u64,
    ops: Vec<ResolvedOp>,
    /// Why the op after the last resolved one failed to resolve, if one
    /// did: each run issues the resolved prefix, then returns it.
    error: Option<DramError>,
}

/// One [`HammerOp`] with its bank and rows checked and each logical row
/// mapped to its physical position.
#[derive(Debug, Clone, Copy)]
struct ResolvedOp {
    bank: Bank,
    shape: Shape,
    /// The op's rows; a burst uses only the first.
    rows: [ResolvedRow; 2],
}

#[derive(Debug, Clone, Copy)]
enum Shape {
    /// `acts` back-to-back activations; an other-bank burst is not
    /// `clocked` (it overlaps the batch bank's time).
    Burst { acts: u64, clocked: bool },
    /// `pairs` alternations of two distinct rows.
    Pair { pairs: u64 },
}

/// A physical row of a resolved op, with the lookups of its first
/// activation cached: its index into `row_states` / `hot_rows` and its
/// disturb targets' indices. The first activation resolves them exactly
/// where the uncached path would look them up (creating any row not yet
/// touched), so caching moves no row creation and no restore stamp.
#[derive(Debug, Clone, Copy)]
struct ResolvedRow {
    phys: PhysRow,
    /// `u32::MAX` until the first activation.
    index: u32,
    /// `(index, coupling weight)` of each disturb target, in
    /// [`Topology::for_each_disturb_target`] order.
    targets: [(u32, f64); 4],
    /// Valid entries of `targets`; `u8::MAX` until the first activation.
    n_targets: u8,
}

impl ResolvedRow {
    fn new(phys: PhysRow) -> Self {
        ResolvedRow { phys, index: u32::MAX, targets: [(0, 0.0); 4], n_targets: u8::MAX }
    }
}

/// Source of [`Module::id`].
static NEXT_MODULE_ID: AtomicU64 = AtomicU64::new(0);

/// A simulated DRAM module (one rank) driven at DDR-command granularity.
///
/// See the [crate documentation](crate) for an end-to-end example.
#[derive(Debug)]
pub struct Module {
    /// Process-unique identity, so a [`HammerPlan`] runs only on the
    /// module that resolved it.
    id: u64,
    config: ModuleConfig,
    engine: Box<dyn MitigationEngine>,
    /// Cached [`MitigationEngine::detects_inline`] capability. Engines
    /// that only detect at `REF` time never populate the inline drain,
    /// so the ACT hot paths skip the per-batch drain call outright.
    engine_inline: bool,
    seed: u64,
    now: Nanos,
    ref_count: u64,
    /// Activations this device executed (see [`Module::activations`]).
    activations: u64,
    /// Incrementally maintained round-robin window of the *next* `REF`
    /// (see [`Module::refresh_window`]). Stepping it is a few adds and
    /// compares — the closed form costs three integer divisions per
    /// `REF`, which is real money at a million REFs per experiment.
    ref_window: RefWindow,
    /// Dense per-slot map from `(bank, physical row)` to an index into
    /// `row_states` (4 bytes per row of the module), `u32::MAX` for a
    /// row never touched. The hammer/restore hot path answers both
    /// "touched?" and "where?" with this one load — no hashing.
    row_index: Vec<u32>,
    /// Backing store of every touched row's cold state, in first-touch
    /// order.
    row_states: Vec<RowState>,
    /// Hot restore state of every touched row, parallel to `row_states`
    /// (kept per touched row, not per slot, so it costs nothing for the
    /// untouched majority of the module).
    hot_rows: Vec<HotRow>,
    /// One bit per `(bank, physical row)`: set iff the row has an entry
    /// in `row_states`. Laid out row-major — row `r`'s `bank_words`
    /// words hold bank `b` at bit `b % 64` of word `r·bank_words + b/64`
    /// — so a `REF` finds every bank holding a touched row of its window
    /// in one word per row. Only the regular-refresh sweep reads it;
    /// per-row lookups go through `row_index`.
    touched: Vec<u64>,
    /// Words of `touched` per physical row (`⌈banks / 64⌉`).
    bank_words: usize,
    banks: Vec<BankState>,
    /// Reusable drain buffer for mitigation detections, so the `REF`
    /// and post-batch hot paths allocate nothing per command.
    detect_buf: Vec<TrrDetection>,
    /// Environmental retention multiplier (fault-injection support):
    /// decay windows are divided by this factor before the physics sees
    /// them, so values above 1.0 model cooling (longer retention) and
    /// below 1.0 heating. Exactly 1.0 is a strict no-op.
    retention_drift: f64,
    /// Override of [`PhysicsConfig::vrt_switch_prob`] while a VRT burst
    /// episode is active (fault-injection support). `None` uses the
    /// configured probability.
    vrt_switch_override: Option<f64>,
    metrics: DeviceMetrics,
}

impl Module {
    /// Creates a module with no TRR protection.
    pub fn new(config: ModuleConfig, seed: u64) -> Self {
        Module::with_engine(config, Box::new(NoMitigation), seed)
    }

    /// Creates a module protected by the given mitigation engine.
    pub fn with_engine(config: ModuleConfig, engine: Box<dyn MitigationEngine>, seed: u64) -> Self {
        let banks = vec![BankState::default(); config.geometry.banks as usize];
        let row_slots = config.geometry.banks as usize * config.geometry.rows_per_bank as usize;
        let bank_words = (config.geometry.banks as usize).div_ceil(64).max(1);
        let touched = vec![0u64; config.geometry.rows_per_bank as usize * bank_words];
        // A private registry until the caller attaches a shared one.
        let metrics = DeviceMetrics::new(Arc::new(MetricsRegistry::new()), 0);
        let mut engine = engine;
        engine.attach_metrics(metrics.registry());
        let engine_inline = engine.detects_inline();
        let ref_window =
            RefWindow::new(config.geometry.rows_per_bank as u64, config.refresh.period_refs as u64);
        Module {
            id: NEXT_MODULE_ID.fetch_add(1, Ordering::Relaxed),
            config,
            engine,
            engine_inline,
            seed,
            now: Nanos::ZERO,
            ref_count: 0,
            activations: 0,
            ref_window,
            row_index: vec![u32::MAX; row_slots],
            row_states: Vec::new(),
            hot_rows: Vec::new(),
            touched,
            bank_words,
            banks,
            detect_buf: Vec::new(),
            retention_drift: 1.0,
            vrt_switch_override: None,
            metrics,
        }
    }

    /// Points this device (and its mitigation engine) at `registry`, so
    /// several devices — or a whole run — share one artifact. Counts
    /// made so far are flushed into the previous registry first, never
    /// migrated, so call this right after construction.
    ///
    /// A live device does not write its counts into the registry per
    /// command: they reach it at [`Module::flush_metrics`], at the next
    /// `attach_registry`, or when the module is dropped. Read a
    /// registry after its modules are gone (or flushed).
    pub fn attach_registry(&mut self, registry: Arc<MetricsRegistry>) {
        self.flush_metrics();
        self.metrics = DeviceMetrics::new(registry, self.activations);
        self.engine.attach_metrics(self.metrics.registry());
    }

    /// Pushes this device's pending `dram.*` counts, and its engine's
    /// `trr.<name>.*` counts, into the attached registry. Runs on drop;
    /// flushing twice adds nothing.
    pub fn flush_metrics(&mut self) {
        self.metrics.flush(self.activations);
        self.engine.flush_metrics();
    }

    /// The metrics registry this device reports into.
    pub fn registry(&self) -> &Arc<MetricsRegistry> {
        self.metrics.registry()
    }

    /// The current device time.
    pub fn now(&self) -> Nanos {
        self.now
    }

    /// The module configuration.
    pub fn config(&self) -> &ModuleConfig {
        &self.config
    }

    /// The module geometry.
    pub fn geometry(&self) -> ModuleGeometry {
        self.config.geometry
    }

    /// The DDR timings in effect.
    pub fn timings(&self) -> Timings {
        self.config.timings
    }

    /// Activations this device has executed. Unlike the registry's
    /// `dram.cmd.act`, which sums every device sharing the registry and
    /// is current only after a flush, this is live and this device's own.
    pub fn activations(&self) -> u64 {
        self.activations
    }

    /// Name of the installed mitigation engine. Kept for the engine
    /// checks of the catalog tests.
    pub fn engine_name(&self) -> &str {
        self.engine.name()
    }

    /// Number of `REF` commands issued so far.
    pub fn ref_count(&self) -> u64 {
        self.ref_count
    }

    /// The physical position selected by a logical row address.
    pub fn phys_of(&self, row: RowAddr) -> PhysRow {
        self.config.mapping.to_phys(row)
    }

    /// The logical address that selects a physical position.
    pub fn logical_of(&self, row: PhysRow) -> RowAddr {
        self.config.mapping.to_logical(row)
    }

    /// Lets simulated time pass with the device idle (rows decaying, no
    /// refresh).
    pub fn advance(&mut self, duration: Nanos) {
        self.now += duration;
    }

    /// Sets the environmental retention multiplier: every subsequent
    /// decay window is divided by `drift` before the physics sees it,
    /// so `drift > 1.0` lengthens effective retention (cooling) and
    /// `drift < 1.0` shortens it (heating). Non-finite or non-positive
    /// values reset to the neutral 1.0.
    pub fn set_retention_drift(&mut self, drift: f64) {
        self.retention_drift = if drift.is_finite() && drift > 0.0 { drift } else { 1.0 };
    }

    /// The retention multiplier currently in effect.
    pub fn retention_drift(&self) -> f64 {
        self.retention_drift
    }

    /// Overrides the per-observation VRT switch probability (a burst
    /// episode temporarily destabilising VRT cells); `None` restores
    /// the configured [`PhysicsConfig::vrt_switch_prob`].
    pub fn set_vrt_switch_override(&mut self, prob: Option<f64>) {
        self.vrt_switch_override = prob.map(|p| p.clamp(0.0, 1.0));
    }

    /// The active VRT switch-probability override, if any.
    pub fn vrt_switch_override(&self) -> Option<f64> {
        self.vrt_switch_override
    }

    /// Opens `row` in `bank`. The activation restores the row itself and
    /// disturbs its physical neighbours.
    ///
    /// # Errors
    ///
    /// Fails if the bank already has an open row or an address is out of
    /// range.
    pub fn activate(&mut self, bank: Bank, row: RowAddr) -> Result<(), DramError> {
        self.check_bank(bank)?;
        self.check_row(row)?;
        let state = self.banks[bank.index() as usize];
        if let Some((open, _)) = state.open {
            return Err(DramError::BankAlreadyOpen { bank, open });
        }
        let phys = self.phys_of(row);
        // A one-activation burst: re-opening the row that was just
        // closed carries the same-row discount, as in the hammer paths.
        self.burst(bank, &mut ResolvedRow::new(phys), 1);
        self.banks[bank.index() as usize].open = Some((row, phys));
        self.activations += 1;
        self.now += self.config.timings.t_ras;
        Ok(())
    }

    /// Closes the open row of `bank` (no-op timing-wise if already
    /// closed is an error: real controllers never blind-precharge here).
    ///
    /// # Errors
    ///
    /// Fails if the bank index is out of range or no row is open.
    pub fn precharge(&mut self, bank: Bank) -> Result<(), DramError> {
        self.check_bank(bank)?;
        let b = &mut self.banks[bank.index() as usize];
        if b.open.is_none() {
            return Err(DramError::BankClosed { bank });
        }
        b.open = None;
        self.metrics.pending.pre += 1;
        self.now += self.config.timings.t_rp;
        Ok(())
    }

    /// Writes a full-row data pattern into the open row of `bank`.
    ///
    /// # Errors
    ///
    /// Fails if no row is open in the bank.
    pub fn write_open_row(&mut self, bank: Bank, pattern: DataPattern) -> Result<(), DramError> {
        self.check_bank(bank)?;
        let (logical, phys) = self.open_row(bank)?;
        let index = self.row_index_of(bank, phys);
        let data = RowData::new(pattern, logical);
        let state = &mut self.row_states[index];
        self.hot_rows[index] = HotRow {
            last_restore: self.now,
            disturbance: 0.0,
            coupling: self.config.physics.aggressor_coupling(Some(&data.pattern)),
            min_live: state.physics.cells.min_live(|bit| data.bit(bit)),
            has_data: true,
            ..self.hot_rows[index]
        };
        state.data = Some(data);
        self.metrics.pending.row_writes += 1;
        self.now += ROW_IO;
        Ok(())
    }

    /// Reads the open row of `bank` back and reports which bits differ
    /// from the pattern it was last written with. Reading a row that was
    /// never written returns a clean all-zeros readout.
    ///
    /// # Errors
    ///
    /// Fails if no row is open in the bank.
    pub fn read_open_row(&mut self, bank: Bank) -> Result<RowReadout, DramError> {
        self.check_bank(bank)?;
        let (logical, phys) = self.open_row(bank)?;
        let row_bits = self.config.geometry.row_bits();
        let state = self.row_state(bank, phys);
        let readout = match &state.data {
            Some(data) => {
                RowReadout::new(logical, data.pattern.clone(), data.flips.clone(), row_bits)
            }
            None => RowReadout::new(logical, DataPattern::Zeros, Vec::new(), row_bits),
        };
        self.metrics.pending.row_reads += 1;
        self.now += ROW_IO;
        Ok(readout)
    }

    /// Composite: activate, write, precharge.
    ///
    /// # Errors
    ///
    /// Propagates any protocol error from the three steps.
    pub fn write_row(
        &mut self,
        bank: Bank,
        row: RowAddr,
        pattern: DataPattern,
    ) -> Result<(), DramError> {
        self.activate(bank, row)?;
        self.write_open_row(bank, pattern)?;
        self.precharge(bank)
    }

    /// Composite: activate, read, precharge.
    ///
    /// # Errors
    ///
    /// Propagates any protocol error from the three steps.
    pub fn read_row(&mut self, bank: Bank, row: RowAddr) -> Result<RowReadout, DramError> {
        self.activate(bank, row)?;
        let readout = self.read_open_row(bank)?;
        self.precharge(bank)?;
        Ok(readout)
    }

    /// Hammers `row`: `count` back-to-back `ACT`/`PRE` cycles. The bank
    /// must be precharged and is left precharged. Batched but
    /// behaviourally identical to `count` single activations.
    ///
    /// # Errors
    ///
    /// Fails if the bank has an open row or an address is out of range.
    pub fn hammer(&mut self, bank: Bank, row: RowAddr, count: u64) -> Result<(), DramError> {
        self.hammer_batch(bank, &[HammerOp::Burst { row, acts: count }])
    }

    /// Interleaved double-sided hammering: the alternating sequence
    /// `first, second, first, second, …` of `2 * pairs` activations.
    /// Alternating activations carry full disturbance weight, which is
    /// what makes interleaved hammering far more effective than cascaded
    /// hammering (§5.2).
    ///
    /// # Errors
    ///
    /// Fails if the bank has an open row or an address is out of range.
    pub fn hammer_pair(
        &mut self,
        bank: Bank,
        first: RowAddr,
        second: RowAddr,
        pairs: u64,
    ) -> Result<(), DramError> {
        self.hammer_batch(bank, &[HammerOp::Pair { first, second, pairs }])
    }

    /// Runs `ops` in order against `bank` (an [`HammerOp::OtherBank`]
    /// op names its own bank), resolving and running one op at a time:
    /// each op has exactly the physics, engine hook and trace event of
    /// its single call ([`Module::hammer`], [`Module::hammer_pair`]).
    ///
    /// # Errors
    ///
    /// Stops at the first op whose bank has an open row or whose address
    /// is out of range: the ops before it have run and are counted, the
    /// rest do not run.
    pub fn hammer_batch(&mut self, bank: Bank, ops: &[HammerOp]) -> Result<(), DramError> {
        for &op in ops {
            let mut op = self.resolve(bank, op)?;
            self.run_op(&mut op)?;
        }
        Ok(())
    }

    /// Resolves `ops` (against `bank`, as [`Module::hammer_batch`] would
    /// run them) into a plan this module can replay with
    /// [`Module::run_plan`]. Resolution stops at the first op with an
    /// out-of-range bank or row; the plan keeps that error for its runs.
    pub fn plan(&self, bank: Bank, ops: &[HammerOp]) -> HammerPlan {
        let mut resolved = Vec::with_capacity(ops.len());
        let mut error = None;
        for &op in ops {
            match self.resolve(bank, op) {
                Ok(op) => resolved.push(op),
                Err(e) => {
                    error = Some(e);
                    break;
                }
            }
        }
        HammerPlan { module: self.id, ops: resolved, error }
    }

    /// Runs `plan`, observationally identical to a
    /// [`Module::hammer_batch`] of the ops it was resolved from. Its first
    /// run caches each row's state and disturb-target lookups; later runs
    /// go straight to the physics.
    ///
    /// # Errors
    ///
    /// As [`Module::hammer_batch`]: stops at the first op whose bank has
    /// an open row, or after the resolved prefix with the error of the op
    /// that failed to resolve.
    ///
    /// # Panics
    ///
    /// If `plan` was resolved by another module.
    pub fn run_plan(&mut self, plan: &mut HammerPlan) -> Result<(), DramError> {
        assert_eq!(plan.module, self.id, "a hammer plan runs only on the module that resolved it");
        for op in &mut plan.ops {
            self.run_op(op)?;
        }
        plan.error.clone().map_or(Ok(()), Err)
    }

    /// Checks `op`'s bank and rows, in the order the single calls make
    /// them, and maps its rows. A pair of one physical row is the burst
    /// of identical rows alternating into plain hammering.
    fn resolve(&self, bank: Bank, op: HammerOp) -> Result<ResolvedOp, DramError> {
        let (bank, first, second, shape) = match op {
            HammerOp::Burst { row, acts } => (bank, row, row, Shape::Burst { acts, clocked: true }),
            HammerOp::OtherBank { bank, row, acts } => {
                (bank, row, row, Shape::Burst { acts, clocked: false })
            }
            HammerOp::Pair { first, second, pairs } => (bank, first, second, Shape::Pair { pairs }),
        };
        self.check_bank(bank)?;
        self.check_row(first)?;
        self.check_row(second)?;
        let p1 = self.phys_of(first);
        let p2 = if second == first { p1 } else { self.phys_of(second) };
        let shape = match shape {
            Shape::Pair { pairs } if p1 == p2 => Shape::Burst { acts: 2 * pairs, clocked: true },
            shape => shape,
        };
        Ok(ResolvedOp { bank, shape, rows: [ResolvedRow::new(p1), ResolvedRow::new(p2)] })
    }

    /// Runs one resolved op: the bank must be precharged. An op with a
    /// zero dose touches nothing.
    fn run_op(&mut self, op: &mut ResolvedOp) -> Result<(), DramError> {
        let bank = op.bank;
        if let Some((open, _)) = self.banks[bank.index() as usize].open {
            return Err(DramError::BankAlreadyOpen { bank, open });
        }
        let t_rc = self.config.timings.t_rc();
        match op.shape {
            Shape::Burst { acts: 0, .. } | Shape::Pair { pairs: 0 } => {}
            Shape::Burst { acts, clocked } => {
                self.burst(bank, &mut op.rows[0], acts);
                self.activations += acts;
                if clocked {
                    self.now += t_rc * acts;
                }
            }
            Shape::Pair { pairs } => {
                let [first, second] = &mut op.rows;
                self.pair(bank, first, second, pairs);
                self.activations += 2 * pairs;
                self.now += t_rc * (2 * pairs);
            }
        }
        Ok(())
    }

    /// `count ≥ 1` back-to-back activations of `row` at the current
    /// time, clock and `ACT` counters aside.
    fn burst(&mut self, bank: Bank, row: &mut ResolvedRow, count: u64) {
        let index = self.restore_resolved(bank, row);
        let discount = self.config.physics.same_row_discount;
        let phys = row.phys;
        let first =
            if self.banks[bank.index() as usize].last_act == Some(phys) { discount } else { 1.0 };
        let weight = first + discount * (count - 1) as f64;
        self.disturb(bank, row, weight, self.hot_rows[index].coupling);
        self.engine.on_activations(bank, phys, count, self.now);
        self.apply_inline_detections();
        self.banks[bank.index() as usize].last_act = Some(phys);
        self.metrics.trace(
            TraceKind::Act,
            self.now.as_ns(),
            bank.index() as u32,
            Some(phys.index()),
            &[("count", count)],
            "",
        );
    }

    /// `pairs ≥ 1` alternations of two distinct rows at the current
    /// time, clock and `ACT` counters aside.
    fn pair(&mut self, bank: Bank, r1: &mut ResolvedRow, r2: &mut ResolvedRow, pairs: u64) {
        let bank_idx = bank.index() as usize;
        let (p1, p2) = (r1.phys, r2.phys);
        let (i1, i2) = (self.restore_resolved(bank, r1), self.restore_resolved(bank, r2));
        let discount = self.config.physics.same_row_discount;
        let p1_was_last = self.banks[bank_idx].last_act == Some(p1);
        let (w1, w2) = pair_weights(p1_was_last, discount, pairs);
        self.disturb(bank, r1, w1, self.hot_rows[i1].coupling);
        self.disturb(bank, r2, w2, self.hot_rows[i2].coupling);
        // Each real alternation cycle re-restores both aggressors, so the
        // radius-2 disturbance they deposit on *each other* never
        // accumulates past one cycle; the batch restores them only once
        // up front, so clear the residue it would otherwise pile up.
        for index in [i1, i2] {
            self.hot_rows[index].disturbance = 0.0;
        }
        self.engine.on_interleaved_pair(bank, p1, p2, pairs, self.now);
        self.apply_inline_detections();
        self.banks[bank_idx].last_act = Some(p2);
        if self.metrics.tracing() {
            let t = self.now.as_ns();
            let b = bank.index() as u32;
            for row in [p1, p2] {
                self.metrics.trace(
                    TraceKind::Act,
                    t,
                    b,
                    Some(row.index()),
                    &[("count", pairs), ("interleaved", 1)],
                    "",
                );
            }
        }
    }

    /// Issues one `REF` command: the round-robin regular refresh plus any
    /// TRR-induced refreshes the mitigation engine decides to piggyback.
    ///
    /// The regular sweep is event-driven: instead of probing every row of
    /// the round-robin window in every bank, it ORs the window rows'
    /// words of the row-major `touched` bitmap into the set of banks that
    /// hold any touched row there and extracts them with
    /// `trailing_zeros`, so untouched rows and banks cost nothing and a
    /// `REF` whose window holds no touched rows goes straight to the
    /// mitigation engine's `on_refresh` hook. The restore order
    /// (ascending physical row within each bank, banks in order) is
    /// identical to a probe of every row of the window, which the
    /// crate's `refresh_equiv` unit tests keep as the reference.
    pub fn refresh(&mut self) {
        let (start, end) = self.refresh_window();
        self.metrics.pending.regular_row_refreshes += self.sweep_window(start, end);
        self.complete_refresh(start, end);
    }

    /// The regular-refresh sweep of one `REF`: restores every touched
    /// row of the physical window `[start, end)`, banks in order and
    /// ascending rows within each bank, and returns how many it restored.
    fn sweep_window(&mut self, start: u64, end: u64) -> u64 {
        // Scaled-down geometries have more REFs per period than rows per
        // bank, so most windows are empty and skip the loops outright.
        let (start, end) = (start as usize, end as usize);
        let mut restored = 0u64;
        for word in 0..self.bank_words {
            let bits = |m: &Self, row: usize| m.touched[row * m.bank_words + word];
            let mut banks = (start..end).fold(0, |acc, row| acc | bits(self, row));
            while banks != 0 {
                let bit = banks.trailing_zeros();
                banks &= banks - 1;
                let bank = Bank::new((word * 64) as u8 + bit as u8);
                for row in start..end {
                    if bits(self, row) >> bit & 1 != 0 {
                        self.restore(bank, PhysRow::new(row as u32));
                        restored += 1;
                    }
                }
            }
        }
        restored
    }

    /// Reference implementation of [`Module::refresh`] that probes every
    /// row of the round-robin window whether touched or not (the
    /// behaviour before the event-driven bitmap scan), for the
    /// `refresh_equiv` unit tests.
    #[cfg(test)]
    pub(crate) fn refresh_naive(&mut self) {
        let (start, end) = self.refresh_window();
        for bank_idx in 0..self.config.geometry.banks {
            let bank = Bank::new(bank_idx);
            for r in start..end {
                let phys = PhysRow::new(r as u32);
                if self.restore_existing(bank, phys) {
                    self.metrics.pending.regular_row_refreshes += 1;
                }
            }
        }
        self.complete_refresh(start, end);
    }

    /// The physical row window `[start, end)` the next `REF` restores in
    /// every bank. `REF` number `k` of a period covers
    /// `[k·rows/period, (k+1)·rows/period)`; the window never crosses the
    /// end of the bank, and over one period the windows tile every row
    /// exactly once.
    fn refresh_window(&self) -> (u64, u64) {
        debug_assert_eq!(self.ref_window.k, self.ref_count % self.ref_window.period);
        debug_assert_eq!(self.ref_window.start, {
            let rows = self.config.geometry.rows_per_bank as u64;
            let period = self.config.refresh.period_refs as u64;
            (self.ref_count % period) * rows / period
        });
        (self.ref_window.start, self.ref_window.end)
    }

    /// Shared `REF` tail: TRR piggyback detections, counters, tracing,
    /// and timing. `start..end` is the physical window the sweep covered.
    fn complete_refresh(&mut self, start: u64, end: u64) {
        let mut detections = std::mem::take(&mut self.detect_buf);
        detections.clear();
        self.engine.on_refresh(self.now, &mut detections);
        self.apply_detections(&detections);
        self.detect_buf = detections;
        if self.metrics.tracing() {
            self.trace_ref(start, end);
        }
        self.ref_count += 1;
        self.ref_window.step();
        self.metrics.pending.refresh += 1;
        self.now += self.config.timings.t_rfc;
    }

    /// The `ref` trace event of the `REF` being issued, which swept the
    /// physical window `start..end`, stamped at the current time. Callers
    /// check `tracing()` first.
    #[cold]
    fn trace_ref(&self, start: u64, end: u64) {
        // Pre-gate on the tracked row set: a full tREFW is ~8k REFs, and
        // only the handful whose round-robin window sweeps past a tracked
        // row matter to the causal timeline.
        let swept = self.metrics.registry().recorder().is_some_and(|recorder| {
            let filter = recorder.filter();
            filter.tracks_all() || (start..end).any(|r| filter.admits(Some(r as u32)))
        });
        if swept {
            self.metrics.trace(
                TraceKind::Ref,
                self.now.as_ns(),
                0,
                None,
                &[
                    ("ref_index", self.ref_count),
                    ("sweep_start", start),
                    ("sweep_rows", end - start),
                ],
                "",
            );
        }
    }

    /// Issues `count` `REF` commands paced one per `tREFI` (the idle gap
    /// between them is dead time), observationally identical to `count`
    /// × ([`Module::refresh`] + [`Module::advance`]`(tREFI − tRFC)`).
    ///
    /// The burst runs in segments: the mitigation engine first consumes
    /// the upcoming `REF`s that provably detect nothing
    /// ([`MitigationEngine::skip_idle_refs`]), for which the device only
    /// sweeps the regular-refresh windows and emits their `ref` trace
    /// events; the next `REF` then runs in full.
    pub fn refresh_burst_at_refi(&mut self, count: u64) {
        if count == 0 {
            return;
        }
        let idle = self.config.timings.t_refi.saturating_sub(self.config.timings.t_rfc);
        let mut left = count;
        while left > 0 {
            let skipped = self.engine.skip_idle_refs(left).min(left);
            self.idle_refs(skipped, idle);
            left -= skipped;
            if left == 0 {
                break;
            }
            self.refresh();
            self.advance(idle);
            left -= 1;
        }
    }

    /// Runs `refs` `REF`s the engine has already consumed through
    /// [`MitigationEngine::skip_idle_refs`]: each sweeps its window,
    /// emits its `ref` trace event and advances the clock by
    /// `tRFC + idle`, with no detection work.
    fn idle_refs(&mut self, refs: u64, idle: Nanos) {
        let per_ref = self.config.timings.t_rfc + idle;
        let mut restored = 0u64;
        let tracing = self.metrics.tracing();
        for _ in 0..refs {
            let (start, end) = self.refresh_window();
            restored += self.sweep_window(start, end);
            if tracing {
                self.trace_ref(start, end);
            }
            self.ref_count += 1;
            self.ref_window.step();
            self.now += per_ref;
        }
        self.metrics.pending.regular_row_refreshes += restored;
        self.metrics.pending.refresh += refs;
    }

    /// Ground-truth physics of a row — **test/calibration support only**;
    /// no real-hardware analogue exists and U-TRR never calls this. Kept
    /// as the weak-row oracle of the softmc and core unit tests.
    pub fn inspect_row(&mut self, bank: Bank, row: RowAddr) -> RowPhysicsView {
        let phys = self.phys_of(row);
        RowPhysicsView::of(&self.row_state(bank, phys).physics)
    }

    /// The physics-derivation stream of a row. Part of the determinism
    /// contract: per-row RNG streams are seeded from this value, so it
    /// must stay stable across storage-layout changes.
    fn key(bank: Bank, phys: PhysRow) -> u64 {
        (bank.index() as u64) << 32 | phys.index() as u64
    }

    /// Dense storage slot of `(bank, phys)`: bank-major, row-minor.
    #[inline]
    fn slot(&self, bank: Bank, phys: PhysRow) -> usize {
        bank.index() as usize * self.config.geometry.rows_per_bank as usize + phys.index() as usize
    }

    /// Index of `(bank, phys)` into `row_states` / `hot_rows`, or `None`
    /// for a row never touched.
    #[inline]
    fn existing_index(&self, bank: Bank, phys: PhysRow) -> Option<usize> {
        let index = self.row_index[self.slot(bank, phys)];
        (index != u32::MAX).then_some(index as usize)
    }

    fn check_bank(&self, bank: Bank) -> Result<(), DramError> {
        if self.config.geometry.bank_in_range(bank) {
            Ok(())
        } else {
            Err(DramError::BankOutOfRange { bank, banks: self.config.geometry.banks })
        }
    }

    fn check_row(&self, row: RowAddr) -> Result<(), DramError> {
        if self.config.geometry.row_in_range(row) {
            Ok(())
        } else {
            Err(DramError::RowOutOfRange { row, rows: self.config.geometry.rows_per_bank })
        }
    }

    fn open_row(&self, bank: Bank) -> Result<(RowAddr, PhysRow), DramError> {
        self.banks[bank.index() as usize].open.ok_or(DramError::BankClosed { bank })
    }

    /// Get-or-create a row: its index into `row_states` / `hot_rows`.
    /// The common "row already exists" path is one array read.
    #[inline]
    fn row_index_of(&mut self, bank: Bank, phys: PhysRow) -> usize {
        match self.existing_index(bank, phys) {
            Some(index) => index,
            None => self.create_row(bank, phys),
        }
    }

    /// First touch of a row: derives its physics and appends its state.
    #[cold]
    #[inline(never)]
    fn create_row(&mut self, bank: Bank, phys: PhysRow) -> usize {
        let b = bank.index() as usize;
        self.touched[phys.index() as usize * self.bank_words + b / 64] |= 1u64 << (b % 64);
        let (physics, vrt_rng) = RowPhysics::derive(
            &self.config.physics,
            self.seed,
            Self::key(bank, phys),
            self.config.geometry.row_bits(),
        );
        let (slot, index) = (self.slot(bank, phys), self.row_states.len());
        self.row_index[slot] =
            u32::try_from(index).expect("fewer than 2^32 touched rows per module");
        self.hot_rows.push(HotRow::fresh(self.now, &physics, vrt_rng, &self.config.physics));
        self.row_states.push(RowState { data: None, physics });
        index
    }

    /// Get-or-create the cold state of a row.
    fn row_state(&mut self, bank: Bank, phys: PhysRow) -> &mut RowState {
        let index = self.row_index_of(bank, phys);
        &mut self.row_states[index]
    }

    /// Ends the decay window of a row: materializes retention and
    /// RowHammer flips into its data, then marks it fully restored.
    ///
    /// Only the row's [`HotRow`] is read unless the window can flip a
    /// bit or switches a VRT cell; otherwise the cold path would do
    /// nothing but stamp the row (and draw the VRT stream), so this does
    /// exactly that directly.
    ///
    /// Returns the row's index into `row_states` / `hot_rows`.
    fn restore(&mut self, bank: Bank, phys: PhysRow) -> usize {
        match self.existing_index(bank, phys) {
            Some(index) => {
                self.restore_row(bank, phys, index);
                index
            }
            // First touch: a freshly created state is already restored.
            None => self.create_row(bank, phys),
        }
    }

    /// [`Module::restore`] of a resolved row, caching its index on the
    /// first call.
    #[inline]
    fn restore_resolved(&mut self, bank: Bank, row: &mut ResolvedRow) -> usize {
        if row.index == u32::MAX {
            let index = self.restore(bank, row.phys);
            row.index = index as u32;
            index
        } else {
            let index = row.index as usize;
            self.restore_row(bank, row.phys, index);
            index
        }
    }

    /// [`Module::restore`] of a touched row, `index` its entry.
    fn restore_row(&mut self, bank: Bank, phys: PhysRow, index: usize) {
        #[cfg(debug_assertions)]
        self.debug_assert_hot_row(index);
        let now = self.now;
        let hot = &mut self.hot_rows[index];
        let raw_elapsed = now - hot.last_restore;
        if raw_elapsed == Nanos::ZERO && hot.disturbance == 0.0 {
            return;
        }
        // Retention drift scales the decay window, not the clock: a 2%
        // cooler part behaves as if 2% less time had passed. 1.0 takes
        // the untouched path so fault-free runs stay bit-identical.
        let elapsed = if self.retention_drift == 1.0 {
            raw_elapsed
        } else {
            drifted(raw_elapsed, self.retention_drift)
        };
        let cfg = &self.config.physics;
        let switch_prob = self.vrt_switch_override.unwrap_or(cfg.vrt_switch_prob);
        let vrt_step = raw_elapsed >= VRT_OBSERVATION_FLOOR;
        if !(hot.has_data && (elapsed > hot.min_live || hot.disturbance >= hot.hc_base)) {
            // Nothing can flip. Draw the VRT observation ahead: if no
            // cell switches, the cold path would only have made these
            // same draws and stamped the row.
            let mut rng = hot.vrt_rng;
            if !vrt_step || (0..hot.vrt_cells).all(|_| !rng.next_bool(switch_prob)) {
                hot.vrt_rng = rng;
                hot.last_restore = now;
                hot.disturbance = 0.0;
                return;
            }
        }
        let row_bits = self.config.geometry.row_bits();
        let state = &mut self.row_states[index];
        let mut new_flips = 0u64;
        if let Some(data) = &mut state.data {
            let flips =
                window_flips(&state.physics, cfg, elapsed, hot.disturbance, row_bits, |bit| {
                    data.bit(bit)
                });
            new_flips = flips.len() as u64;
            for bit in flips {
                data.set_flipped(bit);
            }
        }
        let toggled = vrt_step && state.physics.advance_vrt(&mut hot.vrt_rng, switch_prob);
        if let Some(data) = &state.data {
            if new_flips > 0 || toggled {
                hot.min_live = state.physics.cells.min_live(|bit| data.bit(bit));
            }
        }
        hot.last_restore = now;
        hot.disturbance = 0.0;
        if new_flips > 0 {
            self.metrics.pending.bit_flips += new_flips;
            self.metrics.trace(
                TraceKind::BitFlip,
                now.as_ns(),
                bank.index() as u32,
                Some(phys.index()),
                &[("flips", new_flips)],
                "",
            );
        }
    }

    /// Checks a row's [`HotRow`] caches against its cold state — the
    /// `min_live` invariant above all, since a stale value would let a
    /// restore skip real flips.
    #[cfg(debug_assertions)]
    fn debug_assert_hot_row(&self, index: usize) {
        let (hot, state) = (&self.hot_rows[index], &self.row_states[index]);
        let pattern = state.data.as_ref().map(|d| &d.pattern);
        debug_assert_eq!(hot.coupling, self.config.physics.aggressor_coupling(pattern));
        debug_assert_eq!(hot.hc_base, state.physics.hc_base);
        debug_assert_eq!(hot.vrt_cells, state.physics.vrt_cells());
        debug_assert_eq!(hot.has_data, state.data.is_some());
        if let Some(data) = &state.data {
            debug_assert_eq!(hot.min_live, state.physics.cells.min_live(|bit| data.bit(bit)));
        }
    }

    /// Drains ACT-synchronous detections (PARA/Graphene-style engines)
    /// and refreshes their victims immediately.
    fn apply_inline_detections(&mut self) {
        if !self.engine_inline {
            // REF-time-only engines never have anything to drain; skip
            // the two virtual calls and buffer swap on every ACT batch.
            return;
        }
        let mut detections = std::mem::take(&mut self.detect_buf);
        detections.clear();
        self.engine.take_inline_detections(&mut detections);
        self.apply_detections(&detections);
        self.detect_buf = detections;
    }

    /// Refreshes the victims of mitigation detections. A targeted
    /// refresh internally *activates* the victim row, so it disturbs the
    /// victim's own neighbours — the physical lever behind the
    /// Half-Double technique (Google Project Zero, 2021; cited by the
    /// paper's related work). Regular refresh activates every row
    /// uniformly and its disturbance self-balances, so only targeted
    /// refreshes are modelled as disturbing.
    fn apply_detections(&mut self, detections: &[TrrDetection]) {
        if detections.is_empty() {
            // Nearly every ACT and REF lands here: engines detect on a
            // tiny fraction of commands.
            return;
        }
        self.metrics.pending.trr_detections += detections.len() as u64;
        let tracing = self.metrics.tracing();
        let now = self.now.as_ns();
        let rows_per_bank = self.config.geometry.rows_per_bank;
        let mut refreshed = 0u64;
        for &det in detections {
            let (bank, aggressor) = (det.bank.index(), det.aggressor.index());
            let span = det.span.per_side() as u64;
            if tracing {
                self.metrics.trace(
                    TraceKind::TrrDetect,
                    now,
                    bank as u32,
                    Some(aggressor),
                    &[("span", span)],
                    "",
                );
            }
            let (victims, n) =
                self.config.topology.trr_victims_fixed(det.aggressor, rows_per_bank, det.span);
            for &victim in &victims[..n] {
                // The targeted refresh restores the victim if it has
                // state, then disturbs its neighbours as an activation.
                let coupling = match self.existing_index(det.bank, victim) {
                    Some(index) => {
                        self.restore_row(det.bank, victim, index);
                        refreshed += 1;
                        self.hot_rows[index].coupling
                    }
                    None => self.config.physics.aggressor_coupling(None),
                };
                self.disturb(det.bank, &mut ResolvedRow::new(victim), 1.0, coupling);
                if tracing {
                    self.metrics.trace(
                        TraceKind::TrrRefresh,
                        now,
                        bank as u32,
                        Some(victim.index()),
                        &[("aggressor", aggressor as u64)],
                        "",
                    );
                }
            }
        }
        self.metrics.pending.trr_row_refreshes += refreshed;
    }

    /// Restores a row only if it has ever been touched; returns whether a
    /// restore happened. Untouched rows have no observable state, so
    /// skipping them is semantically free.
    #[cfg(test)]
    fn restore_existing(&mut self, bank: Bank, phys: PhysRow) -> bool {
        match self.existing_index(bank, phys) {
            Some(index) => {
                self.restore_row(bank, phys, index);
                true
            }
            None => false,
        }
    }

    /// Adds `weight` units of disturbance (before `coupling`, the
    /// source row's aggressor coupling) from an activation of `row` to
    /// its topological neighbours. The row's first activation looks its
    /// neighbours up (creating any not yet touched) as it disturbs them,
    /// and caches them for the next.
    fn disturb(&mut self, bank: Bank, row: &mut ResolvedRow, weight: f64, coupling: f64) {
        if row.n_targets != u8::MAX {
            for &(index, w) in &row.targets[..row.n_targets as usize] {
                self.hot_rows[index as usize].disturbance += w * weight * coupling;
            }
            return;
        }
        let topology = self.config.topology;
        let (rows_per_bank, radius2_weight) =
            (self.config.geometry.rows_per_bank, self.config.physics.radius2_weight);
        let mut n = 0;
        topology.for_each_disturb_target(row.phys, rows_per_bank, radius2_weight, |victim, w| {
            let index = self.row_index_of(bank, victim);
            self.hot_rows[index].disturbance += w * weight * coupling;
            row.targets[n] = (index as u32, w);
            n += 1;
        });
        row.n_targets = n as u8;
    }
}

impl Drop for Module {
    fn drop(&mut self) {
        self.flush_metrics();
    }
}

/// The disturbance weights of `pairs ≥ 1` alternations `p1, p2, p1, …`:
/// p1's first activation carries the same-row `discount` iff p1 was the
/// last `ACT`; every later activation of either row follows the other at
/// full weight.
fn pair_weights(p1_was_last: bool, discount: f64, pairs: u64) -> (f64, f64) {
    let first_weight = if p1_was_last { discount + (pairs - 1) as f64 } else { pairs as f64 };
    (first_weight, pairs as f64)
}

/// A decay window under retention drift `drift ≠ 1.0`. Out of line and
/// cold on purpose: inlined, LLVM turns the drift test in
/// [`Module::restore`] into a select and divides on every restore.
#[cold]
#[inline(never)]
fn drifted(elapsed: Nanos, drift: f64) -> Nanos {
    Nanos::from_ns((elapsed.as_ns() as f64 / drift) as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{CTR_ACT, CTR_REF, CTR_REGULAR_ROW_REFRESHES, CTR_ROW_WRITES};

    fn module() -> Module {
        Module::new(ModuleConfig::small_test(), 7)
    }

    /// `m`'s registry counter `name`, after flushing `m` into it.
    fn flushed(m: &mut Module, name: &str) -> u64 {
        m.flush_metrics();
        m.registry().counter(name).get()
    }

    /// Finds a row whose weakest cell fails between `lo` and `hi`, with
    /// the written pattern guaranteed to expose the failure.
    fn find_weak_row(m: &mut Module, bank: Bank) -> (RowAddr, Nanos) {
        for r in 0..m.geometry().rows_per_bank {
            let row = RowAddr::new(r);
            let view = m.inspect_row(bank, row);
            if let Some(ret) = view.min_retention() {
                if !view.has_vrt() {
                    return (row, ret);
                }
            }
        }
        panic!("test physics must contain a stable weak row");
    }

    #[test]
    fn written_row_reads_clean_immediately() {
        let mut m = module();
        let b = Bank::new(0);
        m.write_row(b, RowAddr::new(3), DataPattern::Ones).unwrap();
        let r = m.read_row(b, RowAddr::new(3)).unwrap();
        assert!(r.is_clean());
    }

    #[test]
    fn weak_row_decays_after_its_retention_time() {
        let mut m = module();
        let b = Bank::new(0);
        let (row, ret) = find_weak_row(&mut m, b);
        // Write both orientations so the charged value is covered.
        for pattern in [DataPattern::Ones, DataPattern::Zeros] {
            m.write_row(b, row, pattern.clone()).unwrap();
            m.advance(ret + ret);
            let readout = m.read_row(b, row).unwrap();
            m.write_row(b, row, pattern.clone()).unwrap();
            m.advance(ret / 4);
            let clean = m.read_row(b, row).unwrap();
            assert!(clean.is_clean(), "within retention the row must hold");
            if !readout.is_clean() {
                return; // decayed under one of the orientations: pass
            }
        }
        panic!("row should decay under at least one pattern");
    }

    #[test]
    fn refresh_prevents_decay() {
        let mut m = module();
        let b = Bank::new(0);
        let (row, ret) = find_weak_row(&mut m, b);
        m.write_row(b, row, DataPattern::Ones).unwrap();
        // Pace REFs so the whole bank is covered several times during 2*ret.
        let period = m.config().refresh.period_refs as u64;
        let total = ret + ret;
        let step = total / (4 * period);
        for _ in 0..4 * period {
            m.refresh();
            m.advance(step);
        }
        let readout = m.read_row(b, row).unwrap();
        assert!(readout.is_clean(), "regularly refreshed row must not decay");
    }

    #[test]
    fn double_sided_hammer_flips_victim() {
        let mut m = module();
        let b = Bank::new(0);
        let victim = RowAddr::new(500);
        m.write_row(b, victim, DataPattern::Ones).unwrap();
        let hc = m.config().physics.hc_first as u64;
        m.hammer_pair(b, victim.minus(1), victim.plus(1), hc * 4).unwrap();
        let readout = m.read_row(b, victim).unwrap();
        assert!(!readout.is_clean(), "4x HC_first double-sided must flip");
    }

    #[test]
    fn hammer_below_threshold_is_harmless() {
        let mut m = module();
        let b = Bank::new(0);
        let victim = RowAddr::new(500);
        m.write_row(b, victim, DataPattern::Ones).unwrap();
        m.hammer_pair(b, victim.minus(1), victim.plus(1), 50).unwrap();
        let readout = m.read_row(b, victim).unwrap();
        assert!(readout.is_clean());
    }

    #[test]
    fn cascaded_hammering_is_weaker_than_interleaved() {
        let flips_with = |interleaved: bool| {
            let mut m = module();
            let b = Bank::new(0);
            let victim = RowAddr::new(300);
            m.write_row(b, victim, DataPattern::Ones).unwrap();
            let n = 3 * m.config().physics.hc_first as u64;
            if interleaved {
                m.hammer_pair(b, victim.minus(1), victim.plus(1), n).unwrap();
            } else {
                m.hammer(b, victim.minus(1), n).unwrap();
                m.hammer(b, victim.plus(1), n).unwrap();
            }
            m.read_row(b, victim).unwrap().flip_count()
        };
        assert!(
            flips_with(true) > flips_with(false),
            "interleaved must beat cascaded at equal hammer count"
        );
    }

    #[test]
    fn victim_refresh_resets_disturbance() {
        let mut m = module();
        let b = Bank::new(0);
        let victim = RowAddr::new(500);
        m.write_row(b, victim, DataPattern::Ones).unwrap();
        let hc = m.config().physics.hc_first as u64;
        // Two half-threshold rounds with an intervening victim re-activate
        // (which restores it) must not flip.
        m.hammer_pair(b, victim.minus(1), victim.plus(1), (hc * 3) / 4).unwrap();
        m.activate(b, victim).unwrap();
        m.precharge(b).unwrap();
        m.hammer_pair(b, victim.minus(1), victim.plus(1), (hc * 3) / 4).unwrap();
        let readout = m.read_row(b, victim).unwrap();
        assert!(readout.is_clean(), "restore between rounds must reset disturbance");
    }

    #[test]
    fn blast_radius_two_reaches_distance_two() {
        let mut m = module();
        let b = Bank::new(0);
        let victim = RowAddr::new(400);
        m.write_row(b, victim, DataPattern::Ones).unwrap();
        // Aggressors at distance 2 on both sides.
        let hc = m.config().physics.hc_first as u64;
        let w2 = m.config().physics.radius2_weight;
        let pairs = ((hc as f64) * 6.0 / w2) as u64;
        m.hammer_pair(b, victim.minus(2), victim.plus(2), pairs).unwrap();
        let readout = m.read_row(b, victim).unwrap();
        assert!(!readout.is_clean(), "distance-2 disturbance must accumulate");
    }

    #[test]
    fn protocol_errors() {
        let mut m = module();
        let b = Bank::new(0);
        assert_eq!(m.precharge(b), Err(DramError::BankClosed { bank: b }));
        assert!(m.read_open_row(b).is_err());
        m.activate(b, RowAddr::new(1)).unwrap();
        assert_eq!(
            m.activate(b, RowAddr::new(2)),
            Err(DramError::BankAlreadyOpen { bank: b, open: RowAddr::new(1) })
        );
        assert!(m.hammer(b, RowAddr::new(5), 3).is_err());
        m.precharge(b).unwrap();
        assert!(m.activate(Bank::new(99), RowAddr::new(0)).is_err());
        assert!(m.activate(b, RowAddr::new(1 << 30)).is_err());
    }

    #[test]
    fn regular_refresh_covers_every_row_once_per_period() {
        let mut m = module();
        let b = Bank::new(0);
        let rows = m.geometry().rows_per_bank;
        // Touch every row so restores are observable through the counter.
        for r in 0..rows {
            m.write_row(b, RowAddr::new(r), DataPattern::Ones).unwrap();
        }
        let before = flushed(&mut m, CTR_REGULAR_ROW_REFRESHES);
        let period = m.config().refresh.period_refs as u64;
        for _ in 0..period {
            m.refresh();
        }
        // Bank 0 only touched.
        let per_bank = flushed(&mut m, CTR_REGULAR_ROW_REFRESHES) - before;
        assert_eq!(per_bank, rows as u64, "each touched row restored exactly once");
    }

    #[test]
    fn refresh_period_is_exactly_periodic_per_row() {
        let mut m = module();
        let b = Bank::new(0);
        let (row, ret) = find_weak_row(&mut m, b);
        m.write_row(b, row, DataPattern::Ones).unwrap();
        // Find the REF index (mod period) that covers `row`: issue REFs
        // one at a time with decay in between, and watch when it survives.
        let period = m.config().refresh.period_refs as u64;
        let phys = m.phys_of(row).index() as u64;
        let rows = m.geometry().rows_per_bank as u64;
        // REF k covers rows [k*rows/period, (k+1)*rows/period).
        let covering_ref = phys * period / rows;
        // Sanity-check the arithmetic against device behaviour.
        for _ in 0..covering_ref {
            m.refresh();
        }
        let before = flushed(&mut m, CTR_REGULAR_ROW_REFRESHES);
        m.refresh();
        assert!(flushed(&mut m, CTR_REGULAR_ROW_REFRESHES) > before);
        let _ = ret;
    }

    #[test]
    fn hammer_batching_matches_singles() {
        let run = |batched: bool| {
            let mut m = Module::new(ModuleConfig::small_test(), 99);
            let b = Bank::new(0);
            let victim = RowAddr::new(200);
            m.write_row(b, victim, DataPattern::Ones).unwrap();
            let aggressor = victim.plus(1);
            if batched {
                m.hammer(b, aggressor, 5_000).unwrap();
            } else {
                for _ in 0..5_000 {
                    m.hammer(b, aggressor, 1).unwrap();
                }
            }
            m.read_row(b, victim).unwrap().flip_count()
        };
        assert_eq!(run(true), run(false));
    }

    #[test]
    fn mapping_changes_physical_neighbours() {
        let mut config = ModuleConfig::small_test();
        config.mapping = RowMapping::block_mirror(3);
        let mut m = Module::new(config, 7);
        let b = Bank::new(0);
        // Logical rows 0 and 7 map to physical 7 and 0 within the first
        // block; logical 1 maps to physical 6: its physical neighbours are
        // physical 5 and 7 = logical 2 and 0.
        let victim = RowAddr::new(1);
        m.write_row(b, victim, DataPattern::Ones).unwrap();
        let hc = m.config().physics.hc_first as u64;
        m.hammer_pair(b, RowAddr::new(2), RowAddr::new(0), hc * 4).unwrap();
        assert!(!m.read_row(b, victim).unwrap().is_clean());
    }

    #[test]
    fn paired_topology_isolates_pairs() {
        let mut config = ModuleConfig::small_test();
        config.topology = Topology::Paired;
        let mut m = Module::new(config, 7);
        let b = Bank::new(0);
        let hc = m.config().physics.hc_first as u64;
        // Hammering row 11 (odd) disturbs only row 10.
        m.write_row(b, RowAddr::new(10), DataPattern::Ones).unwrap();
        m.write_row(b, RowAddr::new(12), DataPattern::Ones).unwrap();
        m.hammer(b, RowAddr::new(11), hc * 8).unwrap();
        assert!(!m.read_row(b, RowAddr::new(10)).unwrap().is_clean());
        assert!(m.read_row(b, RowAddr::new(12)).unwrap().is_clean());
    }

    #[test]
    fn time_advances_with_commands() {
        let mut m = module();
        let b = Bank::new(0);
        let t0 = m.now();
        m.hammer(b, RowAddr::new(1), 100).unwrap();
        assert_eq!(m.now() - t0, m.timings().t_rc() * 100);
        let t1 = m.now();
        m.refresh();
        assert_eq!(m.now() - t1, m.timings().t_rfc);
    }

    #[test]
    fn counts_accumulate() {
        let mut m = module();
        let b = Bank::new(0);
        m.write_row(b, RowAddr::new(1), DataPattern::Ones).unwrap();
        m.hammer(b, RowAddr::new(2), 10).unwrap();
        m.refresh();
        assert_eq!(flushed(&mut m, CTR_ROW_WRITES), 1);
        assert_eq!(flushed(&mut m, CTR_ACT), 11);
        assert_eq!(flushed(&mut m, CTR_REF), 1);
        assert_eq!((m.activations(), m.ref_count()), (11, 1));
    }

    /// An engine counting its activation hooks into `trr.probe.batches`.
    #[derive(Debug, Default)]
    struct BatchCounter(crate::metrics::TallyCounter);

    impl MitigationEngine for BatchCounter {
        fn on_activations(&mut self, _: Bank, _: PhysRow, _: u64, _: Nanos) {
            self.0.add(1);
        }
        fn on_refresh(&mut self, _: Nanos, _: &mut Vec<TrrDetection>) {}
        fn attach_metrics(&mut self, registry: &Arc<MetricsRegistry>) {
            self.0.attach(registry, "trr.probe.batches");
        }
        fn flush_metrics(&mut self) {
            self.0.flush();
        }
        fn name(&self) -> &str {
            "probe"
        }
    }

    #[test]
    fn counts_reach_the_registry_once_at_flush_attach_or_drop() {
        let (old, new) = (MetricsRegistry::shared(), MetricsRegistry::shared());
        let engine = Box::new(BatchCounter::default());
        let mut m = Module::with_engine(ModuleConfig::small_test(), engine, 7);
        m.attach_registry(Arc::clone(&old));
        let b = Bank::new(0);
        m.hammer(b, RowAddr::new(2), 10).unwrap();
        m.activate(b, RowAddr::new(5)).unwrap();
        m.precharge(b).unwrap();
        m.refresh();
        // The device's own count is live; the registry sees it only
        // after a flush, and a second flush adds nothing.
        assert_eq!((m.activations(), m.ref_count()), (11, 1));
        assert_eq!(old.counter(CTR_ACT).get(), 0);
        m.flush_metrics();
        m.flush_metrics();
        assert_eq!((old.counter(CTR_ACT).get(), old.counter(CTR_REF).get()), (11, 1));
        assert_eq!(old.counter("trr.probe.batches").get(), 2);
        // Attaching flushes into the old registry.
        m.hammer(b, RowAddr::new(2), 4).unwrap();
        m.attach_registry(Arc::clone(&new));
        assert_eq!(old.counter(CTR_ACT).get(), 15);
        assert_eq!(old.counter("trr.probe.batches").get(), 3);
        assert_eq!(new.counter(CTR_ACT).get(), 0);
        // Dropping flushes into the attached registry only.
        m.hammer(b, RowAddr::new(2), 6).unwrap();
        m.refresh();
        assert_eq!(new.counter(CTR_ACT).get(), 0);
        drop(m);
        assert_eq!((new.counter(CTR_ACT).get(), new.counter(CTR_REF).get()), (6, 1));
        assert_eq!(new.counter("trr.probe.batches").get(), 1);
        assert_eq!(old.counter(CTR_ACT).get(), 15);
    }

    #[test]
    #[should_panic(expected = "a hammer plan runs only on the module that resolved it")]
    fn a_plan_runs_only_on_the_module_that_resolved_it() {
        let mut plan =
            module().plan(Bank::new(0), &[HammerOp::Burst { row: RowAddr::new(5), acts: 3 }]);
        let _ = module().run_plan(&mut plan);
    }

    /// `pair_weights`' closed form equals the per-activation loop it
    /// batches.
    #[test]
    fn pair_weights_match_the_activation_loop() {
        let close = |a: f64, b: f64| (a - b).abs() <= 1e-6 * (1.0 + b.abs());
        for p1_was_last in [false, true] {
            for discount in [0.0, 0.1, PhysicsConfig::default_test().same_row_discount, 1.0] {
                for pairs in [1, 2, 3, 1000] {
                    let mut loop_w1 = if p1_was_last { discount } else { 1.0 };
                    let mut loop_w2 = 0.0f64;
                    for pair in 0..pairs {
                        if pair > 0 {
                            loop_w1 += 1.0;
                        }
                        loop_w2 += 1.0;
                    }
                    let (w1, w2) = pair_weights(p1_was_last, discount, pairs);
                    assert!(
                        close(loop_w1, w1) && close(loop_w2, w2),
                        "{p1_was_last} {discount} {pairs}: batched ({w1}, {w2}) != loop \
                         ({loop_w1}, {loop_w2})"
                    );
                }
            }
        }
    }

    #[test]
    fn unwritten_row_reads_clean_zeros() {
        let mut m = module();
        let r = m.read_row(Bank::new(1), RowAddr::new(77)).unwrap();
        assert!(r.is_clean());
        assert_eq!(r.pattern(), &DataPattern::Zeros);
    }
}
