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

use std::sync::Arc;

use obs::MetricsRegistry;

use crate::addr::{Bank, ModuleGeometry, PhysRow, RowAddr};
use crate::data::{DataPattern, RowData, RowReadout};
use crate::error::DramError;
use crate::mapping::{RowMapping, Topology};
use crate::metrics::{DeviceMetrics, EVT_BIT_FLIP, EVT_TRR_DETECTION};
use crate::mitigation::{MitigationEngine, NoMitigation, TrrDetection};
use crate::physics::{window_flips, PhysicsConfig, RowPhysics, RowPhysicsView, WeakCells};
use crate::rng::SplitMix64;
use crate::stats::ModuleStats;
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

/// One op of a [`Module::hammer_batch`]. An op with a zero dose is a
/// strict no-op on the device (no state, no metrics, no clock), so
/// callers may emit them freely.
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

/// A simulated DRAM module (one rank) driven at DDR-command granularity.
///
/// See the [crate documentation](crate) for an end-to-end example.
#[derive(Debug)]
pub struct Module {
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
    /// `row_states` (4 bytes per row of the module). The hammer/restore
    /// hot path resolves a row in two array reads — no hashing.
    /// Entries are only meaningful where the `touched` bit is set.
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
    /// in one word per row. TRR victim restores consult the same O(1)
    /// index instead of probing every candidate row: untouched rows (the
    /// overwhelming majority of a 64K-row bank under a targeted attack)
    /// cost one bit test.
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
        let metrics = DeviceMetrics::private();
        let mut engine = engine;
        engine.attach_metrics(metrics.registry());
        let engine_inline = engine.detects_inline();
        let ref_window =
            RefWindow::new(config.geometry.rows_per_bank as u64, config.refresh.period_refs as u64);
        Module {
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
    /// several devices — or a whole run — share one artifact. Call right
    /// after construction: counts already accumulated in the previous
    /// (private) registry are not migrated.
    pub fn attach_registry(&mut self, registry: Arc<MetricsRegistry>) {
        self.metrics = DeviceMetrics::new(registry);
        self.engine.attach_metrics(self.metrics.registry());
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

    /// Cumulative statistics (a snapshot view over the metrics
    /// registry's `dram.*` counters).
    pub fn stats(&self) -> ModuleStats {
        self.metrics.stats_view()
    }

    /// Activations this device has executed. Unlike
    /// [`ModuleStats::activations`], which reads the registry's
    /// `dram.cmd.act`, this excludes every other device sharing the
    /// registry, so it is the same whatever runs alongside.
    pub fn activations(&self) -> u64 {
        self.activations
    }

    /// Name of the installed mitigation engine.
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
        self.restore(bank, phys);
        // Re-opening the row that was just closed toggles the wordline
        // less effectively, exactly as in the batched hammer paths.
        let weight = if self.banks[bank.index() as usize].last_act == Some(phys) {
            self.config.physics.same_row_discount
        } else {
            1.0
        };
        self.disturb_from(bank, phys, weight);
        self.engine.on_activations(bank, phys, 1, self.now);
        self.apply_inline_detections();
        let b = &mut self.banks[bank.index() as usize];
        b.open = Some((row, phys));
        b.last_act = Some(phys);
        self.activations += 1;
        self.metrics.act.inc();
        if self.metrics.detail() {
            self.metrics.act_ns.record(self.config.timings.t_ras.as_ns());
        }
        self.metrics.trace(
            TraceKind::Act,
            self.now.as_ns(),
            bank.index() as u32,
            Some(phys.index()),
            &[("count", 1)],
            "",
        );
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
        self.metrics.pre.inc();
        if self.metrics.detail() {
            self.metrics.pre_ns.record(self.config.timings.t_rp.as_ns());
        }
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
        self.metrics.row_writes.inc();
        if self.metrics.detail() {
            self.metrics.write_ns.record(ROW_IO.as_ns());
        }
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
        self.metrics.row_reads.inc();
        if self.metrics.detail() {
            self.metrics.read_ns.record(ROW_IO.as_ns());
        }
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
    /// op names its own bank). Each op has exactly the physics, engine
    /// hook and trace event of its single call ([`Module::hammer`],
    /// [`Module::hammer_pair`]); the batch only folds the `ACT` counter
    /// and latency histogram into one update.
    ///
    /// # Errors
    ///
    /// Stops at the first op whose bank has an open row or whose address
    /// is out of range: the ops before it have run and are counted, the
    /// rest do not run.
    pub fn hammer_batch(&mut self, bank: Bank, ops: &[HammerOp]) -> Result<(), DramError> {
        let mut acts = 0u64;
        let mut result = Ok(());
        for &op in ops {
            match self.hammer_op(bank, op) {
                Ok(n) => acts += n,
                Err(e) => {
                    result = Err(e);
                    break;
                }
            }
        }
        if acts > 0 {
            self.activations += acts;
            self.metrics.act.add(acts);
            if self.metrics.detail() {
                // One O(1) update for the whole batch.
                self.metrics.act_ns.record_n(self.config.timings.t_rc().as_ns(), acts);
            }
        }
        result
    }

    /// Runs one batch op and returns the activations it issued.
    fn hammer_op(&mut self, bank: Bank, op: HammerOp) -> Result<u64, DramError> {
        let t_rc = self.config.timings.t_rc();
        match op {
            HammerOp::Burst { row, acts } => {
                self.check_hammer(bank, row, row)?;
                if acts > 0 {
                    self.burst(bank, self.phys_of(row), acts);
                    self.now += t_rc * acts;
                }
                Ok(acts)
            }
            HammerOp::OtherBank { bank, row, acts } => {
                self.check_hammer(bank, row, row)?;
                if acts > 0 {
                    // Overlapped with the target bank's interval: no
                    // clock of its own.
                    self.burst(bank, self.phys_of(row), acts);
                }
                Ok(acts)
            }
            HammerOp::Pair { first, second, pairs } => {
                self.check_hammer(bank, first, second)?;
                if pairs == 0 {
                    return Ok(0);
                }
                let (p1, p2) = (self.phys_of(first), self.phys_of(second));
                if p1 == p2 {
                    // Degenerate: identical rows alternate into plain
                    // hammering.
                    self.burst(bank, p1, 2 * pairs);
                } else {
                    self.pair(bank, p1, p2, pairs);
                }
                self.now += t_rc * (2 * pairs);
                Ok(2 * pairs)
            }
        }
    }

    /// The checks of a hammer op, in the order the single calls make
    /// them: bank, rows, then the bank must be precharged.
    fn check_hammer(&self, bank: Bank, first: RowAddr, second: RowAddr) -> Result<(), DramError> {
        self.check_bank(bank)?;
        self.check_row(first)?;
        self.check_row(second)?;
        match self.banks[bank.index() as usize].open {
            Some((open, _)) => Err(DramError::BankAlreadyOpen { bank, open }),
            None => Ok(()),
        }
    }

    /// `count ≥ 1` back-to-back activations of `phys` at the current
    /// time, clock and `ACT` counters aside.
    fn burst(&mut self, bank: Bank, phys: PhysRow, count: u64) {
        self.restore(bank, phys);
        let discount = self.config.physics.same_row_discount;
        let first =
            if self.banks[bank.index() as usize].last_act == Some(phys) { discount } else { 1.0 };
        let weight = first + discount * (count - 1) as f64;
        self.disturb_from(bank, phys, weight);
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
    fn pair(&mut self, bank: Bank, p1: PhysRow, p2: PhysRow, pairs: u64) {
        let bank_idx = bank.index() as usize;
        self.restore(bank, p1);
        self.restore(bank, p2);
        let discount = self.config.physics.same_row_discount;
        let p1_was_last = self.banks[bank_idx].last_act == Some(p1);
        let first_weight = if p1_was_last { discount + (pairs - 1) as f64 } else { pairs as f64 };
        #[cfg(debug_assertions)]
        {
            // The batched accounting above must equal the loop
            // equivalent: p1's first activation carries the same-row
            // discount iff p1 was the last ACT; every later p1
            // activation follows one of p2 (full weight), as does every
            // p2 activation, and the batch issues exactly 2*pairs ACTs.
            let mut loop_w1 = if p1_was_last { discount } else { 1.0 };
            let mut loop_w2 = 0.0f64;
            let mut loop_acts = 0u64;
            for pair in 0..pairs {
                if pair > 0 {
                    loop_w1 += 1.0;
                }
                loop_w2 += 1.0;
                loop_acts += 2;
            }
            let close = |a: f64, b: f64| (a - b).abs() <= 1e-6 * (1.0 + b.abs());
            debug_assert_eq!(loop_acts, 2 * pairs, "batched ACT count != loop equivalent");
            debug_assert!(
                close(loop_w1, first_weight) && close(loop_w2, pairs as f64),
                "batched hammer weights ({first_weight}, {}) != loop equivalent \
                 ({loop_w1}, {loop_w2})",
                pairs as f64,
            );
        }
        self.disturb_from(bank, p1, first_weight);
        self.disturb_from(bank, p2, pairs as f64);
        // Each real alternation cycle re-restores both aggressors, so the
        // radius-2 disturbance they deposit on *each other* never
        // accumulates past one cycle; the batch restores them only once
        // up front, so clear the residue it would otherwise pile up.
        for row in [p1, p2] {
            let index = self.row_index_of(bank, row);
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
    /// identical to the full-window probe retained in
    /// [`Module::refresh_naive`].
    pub fn refresh(&mut self) {
        self.refresh_impl(true);
    }

    /// [`Module::refresh`] with per-`REF` counter/histogram recording
    /// optionally deferred — the burst path accounts a whole burst with
    /// one counter add and one histogram record instead of paying the
    /// shared-registry atomics `count` times.
    fn refresh_impl(&mut self, record_metrics: bool) {
        let (start, end) = self.refresh_window();
        let restored = self.sweep_window(start, end);
        if restored > 0 {
            self.metrics.regular_row_refreshes.add(restored);
        }
        self.complete_refresh(start, end, record_metrics);
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
    /// behaviour before the event-driven bitmap scan). Kept so the
    /// equivalence property suite can drive randomized command traces
    /// through both implementations and assert identical observable
    /// state; not part of the simulator API.
    #[doc(hidden)]
    pub fn refresh_naive(&mut self) {
        let (start, end) = self.refresh_window();
        for bank_idx in 0..self.config.geometry.banks {
            let bank = Bank::new(bank_idx);
            for r in start..end {
                let phys = PhysRow::new(r as u32);
                if self.restore_existing(bank, phys) {
                    self.metrics.regular_row_refreshes.inc();
                }
            }
        }
        self.complete_refresh(start, end, true);
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
    fn complete_refresh(&mut self, start: u64, end: u64, record_metrics: bool) {
        let mut detections = std::mem::take(&mut self.detect_buf);
        detections.clear();
        self.engine.on_refresh(self.now, &mut detections);
        self.apply_detections(&detections);
        self.detect_buf = detections;
        let k = self.ref_count;
        self.ref_count += 1;
        self.ref_window.step();
        if record_metrics {
            self.metrics.refresh.inc();
            if self.metrics.detail() {
                self.metrics.ref_ns.record(self.config.timings.t_rfc.as_ns());
            }
        }
        if self.metrics.tracing() {
            // Pre-gate on the tracked row set: a full tREFW is ~8k REFs,
            // and only the handful whose round-robin window sweeps past
            // a tracked row matter to the causal timeline.
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
                    &[("ref_index", k), ("sweep_start", start), ("sweep_rows", end - start)],
                    "",
                );
            }
        }
        self.now += self.config.timings.t_rfc;
    }

    /// Issues `count` `REF` commands paced one per `tREFI` (the idle gap
    /// between them is dead time), observationally identical to `count`
    /// × ([`Module::refresh`] + [`Module::advance`]`(tREFI − tRFC)`).
    ///
    /// The burst runs in segments: the mitigation engine first consumes
    /// the upcoming `REF`s that provably detect nothing
    /// ([`MitigationEngine::skip_idle_refs`]), for which the device only
    /// sweeps the regular-refresh windows; the next `REF` then runs in
    /// full. While a flight recorder is attached every `REF` runs in
    /// full, so the trace keeps its per-`REF` events.
    pub fn refresh_burst_at_refi(&mut self, count: u64) {
        if count == 0 {
            return;
        }
        let idle = self.config.timings.t_refi.saturating_sub(self.config.timings.t_rfc);
        let segmented = !self.metrics.tracing();
        let mut left = count;
        while left > 0 {
            if segmented {
                let skipped = self.engine.skip_idle_refs(left).min(left);
                self.idle_refs(skipped, idle);
                left -= skipped;
                if left == 0 {
                    break;
                }
            }
            self.refresh_impl(false);
            self.advance(idle);
            left -= 1;
        }
        // One counter add and one histogram record for the whole burst —
        // identical totals, none of the per-`REF` shared-atomic traffic.
        self.metrics.refresh.add(count);
        if self.metrics.detail() {
            self.metrics.ref_ns.record_n(self.config.timings.t_rfc.as_ns(), count);
        }
    }

    /// Runs `refs` `REF`s the engine has already consumed through
    /// [`MitigationEngine::skip_idle_refs`]: each sweeps its window and
    /// advances the clock by `tRFC + idle`, with one counter add for all
    /// of them and no detection, trace or `REF` counter work (the burst
    /// accounts `REF`s once).
    fn idle_refs(&mut self, refs: u64, idle: Nanos) {
        let per_ref = self.config.timings.t_rfc + idle;
        let mut restored = 0u64;
        for _ in 0..refs {
            let (start, end) = self.refresh_window();
            restored += self.sweep_window(start, end);
            self.ref_count += 1;
            self.ref_window.step();
            self.now += per_ref;
        }
        if restored > 0 {
            self.metrics.regular_row_refreshes.add(restored);
        }
    }

    /// Ground-truth physics of a row — **test/calibration support only**;
    /// no real-hardware analogue exists and U-TRR never calls this.
    pub fn inspect_row(&mut self, bank: Bank, row: RowAddr) -> RowPhysicsView {
        let phys = self.phys_of(row);
        RowPhysicsView::of(&self.row_state(bank, phys).physics)
    }

    /// Resets the mitigation engine to power-on state — test support; the
    /// methodology itself resets TRR state by hammering dummy rows
    /// (Requirement 4 of §5.1).
    pub fn reset_mitigation(&mut self) {
        self.engine.reset();
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

    /// Word and bit of `(bank, phys)` in the row-major `touched` bitmap.
    #[inline]
    fn touched_slot(&self, bank: Bank, phys: PhysRow) -> (usize, u64) {
        let b = bank.index() as usize;
        (phys.index() as usize * self.bank_words + b / 64, 1u64 << (b % 64))
    }

    /// Whether `(bank, phys)` has an entry in the row table.
    #[inline]
    fn is_touched(&self, bank: Bank, phys: PhysRow) -> bool {
        let (word, mask) = self.touched_slot(bank, phys);
        self.touched[word] & mask != 0
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
    /// The `touched` bit doubles as the existence check, so the common
    /// "row already exists" path costs one bit test plus one array read
    /// — no hashing.
    #[inline]
    fn row_index_of(&mut self, bank: Bank, phys: PhysRow) -> usize {
        if !self.is_touched(bank, phys) {
            return self.create_row(bank, phys);
        }
        self.row_index[self.slot(bank, phys)] as usize
    }

    /// First touch of a row: derives its physics and appends its state.
    #[cold]
    #[inline(never)]
    fn create_row(&mut self, bank: Bank, phys: PhysRow) -> usize {
        let (word, mask) = self.touched_slot(bank, phys);
        self.touched[word] |= mask;
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
    fn restore(&mut self, bank: Bank, phys: PhysRow) {
        if !self.is_touched(bank, phys) {
            // First touch: a freshly created state is already restored.
            self.create_row(bank, phys);
            return;
        }
        let index = self.row_index[self.slot(bank, phys)] as usize;
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
        let elapsed = if self.retention_drift != 1.0 {
            Nanos::from_ns((raw_elapsed.as_ns() as f64 / self.retention_drift) as u64)
        } else {
            raw_elapsed
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
            self.metrics.bit_flips.add(new_flips);
            self.metrics.event(
                EVT_BIT_FLIP,
                now.as_ns(),
                &[
                    ("bank", bank.index() as u64),
                    ("row", phys.index() as u64),
                    ("flips", new_flips),
                ],
            );
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
            // tiny fraction of commands, and a zero-length add is still
            // an atomic RMW per command if not skipped.
            return;
        }
        self.metrics.trr_detections.add(detections.len() as u64);
        let detail = self.metrics.detail();
        let tracing = self.metrics.tracing();
        let now = self.now.as_ns();
        let rows_per_bank = self.config.geometry.rows_per_bank;
        let mut refreshed = 0u64;
        for &det in detections {
            let (bank, aggressor) = (det.bank.index(), det.aggressor.index());
            let span = det.span.per_side() as u64;
            if detail {
                self.metrics.event(
                    EVT_TRR_DETECTION,
                    now,
                    &[("bank", bank as u64), ("aggressor", aggressor as u64), ("span", span)],
                );
            }
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
                if self.restore_existing(det.bank, victim) {
                    refreshed += 1;
                }
                self.disturb_from(det.bank, victim, 1.0);
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
        if refreshed > 0 {
            self.metrics.trr_row_refreshes.add(refreshed);
        }
    }

    /// Restores a row only if it has ever been touched; returns whether a
    /// restore happened. Untouched rows have no observable state, so
    /// skipping them is semantically free and keeps `REF` cheap — the
    /// existence test is one bit in the `touched` index, no hashing.
    fn restore_existing(&mut self, bank: Bank, phys: PhysRow) -> bool {
        if self.is_touched(bank, phys) {
            self.restore(bank, phys);
            true
        } else {
            false
        }
    }

    /// Adds `weight` units of disturbance (before coupling) from an
    /// activation of `source` to its topological neighbours.
    fn disturb_from(&mut self, bank: Bank, source: PhysRow, weight: f64) {
        let coupling = {
            if self.is_touched(bank, source) {
                self.hot_rows[self.row_index[self.slot(bank, source)] as usize].coupling
            } else {
                self.config.physics.aggressor_coupling(None)
            }
        };
        let topology = self.config.topology;
        let (rows_per_bank, radius2_weight) =
            (self.config.geometry.rows_per_bank, self.config.physics.radius2_weight);
        topology.for_each_disturb_target(source, rows_per_bank, radius2_weight, |victim, w| {
            let index = self.row_index_of(bank, victim);
            self.hot_rows[index].disturbance += w * weight * coupling;
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn module() -> Module {
        Module::new(ModuleConfig::small_test(), 7)
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
        // Touch every row so restores are observable through stats.
        for r in 0..rows {
            m.write_row(b, RowAddr::new(r), DataPattern::Ones).unwrap();
        }
        let before = m.stats().regular_row_refreshes;
        let period = m.config().refresh.period_refs as u64;
        for _ in 0..period {
            m.refresh();
        }
        let per_bank = m.stats().regular_row_refreshes - before; // bank 0 only touched
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
        let before = m.stats().regular_row_refreshes;
        m.refresh();
        assert!(m.stats().regular_row_refreshes > before);
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
    fn stats_accumulate() {
        let mut m = module();
        let b = Bank::new(0);
        m.write_row(b, RowAddr::new(1), DataPattern::Ones).unwrap();
        m.hammer(b, RowAddr::new(2), 10).unwrap();
        m.refresh();
        let s = m.stats();
        assert_eq!(s.row_writes, 1);
        assert_eq!(s.activations, 11);
        assert_eq!(s.refreshes, 1);
        assert_eq!(m.ref_count(), 1);
    }

    #[test]
    fn unwritten_row_reads_clean_zeros() {
        let mut m = module();
        let r = m.read_row(Bank::new(1), RowAddr::new(77)).unwrap();
        assert!(r.is_clean());
        assert_eq!(r.pattern(), &DataPattern::Zeros);
    }
}
