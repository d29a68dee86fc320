//! Deterministic, seeded fault injection for the simulated
//! device/controller boundary.
//!
//! On real DDR4 hardware, U-TRR's methodology only works because Row
//! Scout actively survives an unreliable substrate (§4.1 of the paper:
//! VRT rows are discarded, retention times re-verified, rows re-profiled
//! when their behaviour drifts). This crate turns the simulator's
//! too-perfect substrate back into a hostile one — *reproducibly*:
//!
//! * a [`FaultPlan`] schedules transient read bit-flips, spurious stuck
//!   reads, dropped and garbled writes, a slow retention-time drift over
//!   simulated time (a temperature-style ramp), and VRT burst episodes
//!   that temporarily raise the device's VRT switch probability;
//! * every decision is drawn from the workspace's own SplitMix64 stream,
//!   so a `(profile, seed)` pair replays the exact same fault sequence
//!   against the exact same command sequence;
//! * [`install`] puts a plan into a [`MemoryController`] as its
//!   [`FaultInjector`], so every caller in `core`, `attacks`, and
//!   `bench` runs unmodified against the faulty substrate.
//!
//! The crate is std-only and depends only on `dram-sim`, `softmc`, and
//! `obs`. Injected-fault counts are reported as `faults.injected.*`
//! counters in the standard metrics registry.

use std::fmt;
use std::str::FromStr;
use std::sync::Arc;

use dram_sim::rng::SplitMix64;
use dram_sim::{Bank, DataPattern, Module, Nanos, RowAddr, RowReadout};
use obs::{CounterSlot, MetricsRegistry};
use softmc::{FaultInjector, MemoryController, WriteFault};

/// Counter: total faults injected, across all kinds.
pub const CTR_INJECTED_TOTAL: &str = "faults.injected.total";

/// One kind of injected fault, with its `faults.injected.*` counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Injected {
    /// A transient read bit-flip.
    ReadFlip,
    /// A stuck read (readout forced clean).
    StuckRead,
    /// A row write silently dropped.
    DroppedWrite,
    /// A row write garbled into a different pattern.
    GarbledWrite,
    /// A VRT burst episode started.
    VrtBurst,
}

impl Injected {
    /// Every kind, in [`FaultPlan`]'s counter-slot order.
    const ALL: [Injected; 5] = [
        Injected::ReadFlip,
        Injected::StuckRead,
        Injected::DroppedWrite,
        Injected::GarbledWrite,
        Injected::VrtBurst,
    ];

    /// The kind's counter.
    fn counter(self) -> &'static str {
        match self {
            Injected::ReadFlip => "faults.injected.read_flips",
            Injected::StuckRead => "faults.injected.stuck_reads",
            Injected::DroppedWrite => "faults.injected.dropped_writes",
            Injected::GarbledWrite => "faults.injected.garbled_writes",
            Injected::VrtBurst => "faults.injected.vrt_bursts",
        }
    }

    /// The kind's label in `fault_injected` trace events.
    fn label(self) -> &'static str {
        match self {
            Injected::ReadFlip => "read_flip",
            Injected::StuckRead => "stuck_read",
            Injected::DroppedWrite => "dropped_write",
            Injected::GarbledWrite => "garbled_write",
            Injected::VrtBurst => "vrt_burst",
        }
    }
}

/// A named fault intensity, selectable from the command line
/// (`--faults none|mild|hostile`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum FaultProfile {
    /// No injector at all: the controller takes the exact fault-free
    /// code paths, bit-identical to a build without the fault layer.
    #[default]
    None,
    /// Rare transients and a gentle environment: the profiling pipeline
    /// is expected to recover *correct* results with bounded retries.
    Mild,
    /// Frequent corruption and a volatile environment: the pipeline is
    /// expected to degrade gracefully (partial results, quarantines),
    /// not to stay correct.
    Hostile,
}

impl FaultProfile {
    /// Every selectable profile, in command-line order.
    pub const ALL: [FaultProfile; 3] =
        [FaultProfile::None, FaultProfile::Mild, FaultProfile::Hostile];

    /// The valid `--faults` spellings, in command-line order.
    pub fn names() -> [&'static str; 3] {
        [FaultProfile::None.name(), FaultProfile::Mild.name(), FaultProfile::Hostile.name()]
    }

    /// The stable lower-case name (the `--faults` spelling).
    pub fn name(self) -> &'static str {
        match self {
            FaultProfile::None => "none",
            FaultProfile::Mild => "mild",
            FaultProfile::Hostile => "hostile",
        }
    }
}

impl FromStr for FaultProfile {
    type Err = ParseFaultProfileError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        FaultProfile::ALL
            .into_iter()
            .find(|p| p.name() == s)
            .ok_or_else(|| ParseFaultProfileError { input: s.to_string() })
    }
}

impl fmt::Display for FaultProfile {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Error for an unrecognised `--faults` value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseFaultProfileError {
    /// The rejected input.
    pub input: String,
}

impl ParseFaultProfileError {
    /// The valid profile spellings, for callers rendering their own
    /// usage text.
    pub fn valid(&self) -> [&'static str; 3] {
        FaultProfile::names()
    }
}

impl fmt::Display for ParseFaultProfileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "unknown fault profile {:?} (valid profiles: {})",
            self.input,
            self.valid().join(", ")
        )
    }
}

impl std::error::Error for ParseFaultProfileError {}

/// Typed "no injector for this profile" error: [`FaultProfile::None`]
/// deliberately has no [`FaultConfig`], and callers must handle that
/// case explicitly instead of treating a silent `None` as "disabled".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultsDisabled;

impl fmt::Display for FaultsDisabled {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "fault injection is disabled for profile \"none\"; no injector to build")
    }
}

impl std::error::Error for FaultsDisabled {}

/// Tunable fault rates and environmental parameters of a [`FaultPlan`].
///
/// Probabilities are per affected command (read or write); the drift
/// and burst parameters evolve with *simulated* time, sampled at the
/// controller's bulk time steps (waits, paced refresh bursts).
#[derive(Debug, Clone, PartialEq)]
pub struct FaultConfig {
    /// Probability that a row read comes back with transient bit-flips.
    pub read_flip_prob: f64,
    /// Most transient flips injected into one corrupted read (at least 1).
    pub max_read_flip_bits: u32,
    /// Probability that a row read comes back stuck at the written
    /// pattern (all real flips masked).
    pub stuck_read_prob: f64,
    /// Probability that a row write is silently dropped.
    pub dropped_write_prob: f64,
    /// Probability that a row write lands with a garbled pattern.
    pub garbled_write_prob: f64,
    /// Peak relative retention drift: effective retention oscillates
    /// between `1 - a` and `1 + a` times nominal (temperature ramp).
    pub drift_amplitude: f64,
    /// Period of one full drift oscillation in simulated time.
    pub drift_period: Nanos,
    /// Per-tick probability that a VRT burst episode starts.
    pub vrt_burst_prob: f64,
    /// VRT switch probability while a burst is active (the device's
    /// configured value is ~0.08).
    pub vrt_burst_switch_prob: f64,
    /// How long one burst episode lasts in simulated time.
    pub vrt_burst_duration: Nanos,
    /// Coarse ordinal severity reported through
    /// [`softmc::FaultInjector::severity`]: `1` for substrates the
    /// baseline self-healing absorbs, `2` for hostile substrates that
    /// unlock the escalating recovery ladder (adaptive vote widths,
    /// candidate relocation, drift re-profiling, budget breakers).
    pub severity: u8,
}

impl FaultConfig {
    /// The `mild` profile: rare transients, ±2% retention drift over a
    /// 4 s period (slow enough that Row Scout's validation pass spans
    /// several periods and filters marginal rows at every drift phase),
    /// short occasional VRT bursts. Calibrated so the reverse-engineering
    /// pipeline still recovers correct ground-truth parameters with
    /// bounded retries.
    pub fn mild() -> Self {
        FaultConfig {
            read_flip_prob: 0.002,
            max_read_flip_bits: 2,
            stuck_read_prob: 0.0005,
            dropped_write_prob: 0.0005,
            garbled_write_prob: 0.0002,
            drift_amplitude: 0.02,
            drift_period: Nanos::from_ms(4_000),
            vrt_burst_prob: 0.001,
            vrt_burst_switch_prob: 0.5,
            vrt_burst_duration: Nanos::from_ms(200),
            severity: 1,
        }
    }

    /// The `hostile` profile: frequent corruption, ±8% drift, long
    /// aggressive VRT bursts. Correctness is not expected here — only
    /// graceful degradation (partial `ScoutReport`s, quarantines,
    /// bounded budgets).
    pub fn hostile() -> Self {
        FaultConfig {
            read_flip_prob: 0.02,
            max_read_flip_bits: 3,
            stuck_read_prob: 0.005,
            dropped_write_prob: 0.005,
            garbled_write_prob: 0.002,
            drift_amplitude: 0.08,
            drift_period: Nanos::from_ms(2_000),
            vrt_burst_prob: 0.01,
            vrt_burst_switch_prob: 0.8,
            vrt_burst_duration: Nanos::from_ms(500),
            severity: 2,
        }
    }

    /// The configuration for a named profile.
    ///
    /// # Errors
    ///
    /// [`FaultsDisabled`] for [`FaultProfile::None`]: there is
    /// deliberately no configuration to build, and the caller must take
    /// the explicit no-injector path rather than ignore a silent `None`.
    pub fn for_profile(profile: FaultProfile) -> Result<FaultConfig, FaultsDisabled> {
        match profile {
            FaultProfile::None => Err(FaultsDisabled),
            FaultProfile::Mild => Ok(FaultConfig::mild()),
            FaultProfile::Hostile => Ok(FaultConfig::hostile()),
        }
    }
}

/// A deterministic schedule of injectable faults, implementing
/// [`FaultInjector`] for installation into a
/// [`MemoryController`].
///
/// # Example
///
/// ```
/// use dram_sim::{Module, ModuleConfig};
/// use faults::{FaultPlan, FaultProfile};
/// use softmc::MemoryController;
///
/// let plan = FaultPlan::from_profile(FaultProfile::Mild, 42).unwrap();
/// let mut mc = MemoryController::new(Module::new(ModuleConfig::small_test(), 7));
/// mc.set_fault_injector(Some(Box::new(plan)));
/// // Every caller of `mc` now runs against the faulty substrate.
/// assert!(mc.fault_severity() > 0);
/// ```
pub struct FaultPlan {
    cfg: FaultConfig,
    rng: SplitMix64,
    /// End of the VRT burst episode currently in effect, if any.
    burst_until: Option<Nanos>,
    registry: Option<Arc<MetricsRegistry>>,
    /// Handles of the per-kind counters, in [`Injected::ALL`] order.
    injected: [CounterSlot; Injected::ALL.len()],
    /// Handle of [`CTR_INJECTED_TOTAL`].
    total: CounterSlot,
}

impl fmt::Debug for FaultPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FaultPlan")
            .field("cfg", &self.cfg)
            .field("burst_until", &self.burst_until)
            .finish_non_exhaustive()
    }
}

impl FaultPlan {
    /// A plan drawing from the SplitMix64 stream seeded with `seed`.
    pub fn new(cfg: FaultConfig, seed: u64) -> Self {
        FaultPlan {
            cfg,
            rng: SplitMix64::new(seed),
            burst_until: None,
            registry: None,
            injected: Default::default(),
            total: CounterSlot::default(),
        }
    }

    /// The plan for a named profile.
    ///
    /// # Errors
    ///
    /// [`FaultsDisabled`] for [`FaultProfile::None`] (see
    /// [`FaultConfig::for_profile`]).
    pub fn from_profile(profile: FaultProfile, seed: u64) -> Result<Self, FaultsDisabled> {
        FaultConfig::for_profile(profile).map(|cfg| FaultPlan::new(cfg, seed))
    }

    /// Reports injected-fault counts into `registry` (as
    /// `faults.injected.*` counters) from now on. Each counter is looked
    /// up once, when its first fault is injected; a kind that never
    /// fires registers no counter.
    pub fn attach_metrics(&mut self, registry: Arc<MetricsRegistry>) {
        self.registry = Some(registry);
    }

    /// Counts one injected fault of `kind` and records its
    /// flight-recorder event. The row is logical (the injector sits on
    /// the command interface, before the device's physical remap), so
    /// it rides in `fields` rather than the physical-row coordinate.
    fn injected(&mut self, kind: Injected, bank: Bank, row: Option<RowAddr>, now: Nanos) {
        let Some(registry) = &self.registry else { return };
        self.injected[kind as usize].get(registry, kind.counter()).inc();
        self.total.get(registry, CTR_INJECTED_TOTAL).inc();
        let logical_row = row.map(|row| ("logical_row", u64::from(row.index())));
        let fields = logical_row.as_slice();
        let (t, bank) = (now.as_ns(), u32::from(bank.index()));
        registry.trace(obs::TraceKind::FaultInjected, t, bank, None, fields, kind.label());
    }

    /// A pattern observably different from `requested` for garbling.
    fn garble_pattern(requested: &DataPattern) -> DataPattern {
        match requested {
            DataPattern::Zeros => DataPattern::Ones,
            _ => DataPattern::Zeros,
        }
    }
}

impl FaultInjector for FaultPlan {
    fn on_read(&mut self, bank: Bank, row: RowAddr, readout: &mut RowReadout, now: Nanos) {
        if self.rng.next_bool(self.cfg.stuck_read_prob) {
            readout.clear_flips();
            self.injected(Injected::StuckRead, bank, Some(row), now);
            return;
        }
        if self.rng.next_bool(self.cfg.read_flip_prob) {
            let bits = 1 + self.rng.next_below(u64::from(self.cfg.max_read_flip_bits.max(1)));
            for _ in 0..bits {
                let bit = self.rng.next_below(u64::from(readout.row_bits().max(1))) as u32;
                readout.inject_flip(bit);
            }
            self.injected(Injected::ReadFlip, bank, Some(row), now);
        }
    }

    fn on_write(
        &mut self,
        bank: Bank,
        row: RowAddr,
        pattern: &DataPattern,
        now: Nanos,
    ) -> WriteFault {
        if self.rng.next_bool(self.cfg.dropped_write_prob) {
            self.injected(Injected::DroppedWrite, bank, Some(row), now);
            return WriteFault::Dropped;
        }
        if self.rng.next_bool(self.cfg.garbled_write_prob) {
            self.injected(Injected::GarbledWrite, bank, Some(row), now);
            return WriteFault::Garbled(Self::garble_pattern(pattern));
        }
        WriteFault::None
    }

    fn severity(&self) -> u8 {
        self.cfg.severity
    }

    fn on_tick(&mut self, now: Nanos, module: &mut Module) {
        if self.cfg.drift_amplitude > 0.0 {
            let phase = now.as_ns() as f64 / self.cfg.drift_period.as_ns().max(1) as f64;
            let drift = 1.0 + self.cfg.drift_amplitude * (std::f64::consts::TAU * phase).sin();
            module.set_retention_drift(drift);
        }
        match self.burst_until {
            Some(until) if now < until => {}
            _ => {
                if module.vrt_switch_override().is_some() {
                    module.set_vrt_switch_override(None);
                    self.burst_until = None;
                }
                if self.rng.next_bool(self.cfg.vrt_burst_prob) {
                    self.burst_until = Some(now + self.cfg.vrt_burst_duration);
                    module.set_vrt_switch_override(Some(self.cfg.vrt_burst_switch_prob));
                    self.injected(Injected::VrtBurst, Bank::new(0), None, now);
                }
            }
        }
    }
}

/// Installs the plan for `(profile, seed)` into `mc`, reporting into
/// the controller's registry. Returns whether an injector was installed
/// (`false` for [`FaultProfile::None`], which leaves the controller
/// untouched — the strict no-op path).
pub fn install(mc: &mut MemoryController, profile: FaultProfile, seed: u64) -> bool {
    match FaultPlan::from_profile(profile, seed) {
        Ok(mut plan) => {
            plan.attach_metrics(Arc::clone(mc.registry()));
            mc.set_fault_injector(Some(Box::new(plan)));
            true
        }
        // The explicit disabled path: profile `none` must leave the
        // controller bit-identical to one without the fault layer.
        Err(FaultsDisabled) => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dram_sim::ModuleConfig;

    fn module() -> Module {
        Module::new(ModuleConfig::small_test(), 11)
    }

    /// A controller over [`module`] with the plan for `(profile, seed)`
    /// installed.
    fn faulty(profile: FaultProfile, seed: u64) -> MemoryController {
        let mut mc = MemoryController::new(module());
        assert!(install(&mut mc, profile, seed));
        mc
    }

    #[test]
    fn profile_parsing_round_trips() {
        for p in [FaultProfile::None, FaultProfile::Mild, FaultProfile::Hostile] {
            assert_eq!(p.to_string().parse::<FaultProfile>().unwrap(), p);
        }
        let err = "warm".parse::<FaultProfile>().unwrap_err();
        assert!(err.to_string().contains("warm"));
        assert!(
            err.to_string().contains("none, mild, hostile"),
            "parse error must list the valid profiles: {err}"
        );
        assert_eq!(err.valid(), FaultProfile::names());
        assert_eq!(FaultConfig::for_profile(FaultProfile::None), Err(FaultsDisabled));
        assert!(FaultPlan::from_profile(FaultProfile::None, 1).is_err());
        assert!(FaultsDisabled.to_string().contains("disabled"));
    }

    #[test]
    fn severity_escalates_with_the_profile() {
        assert_eq!(FaultConfig::mild().severity, 1);
        assert_eq!(FaultConfig::hostile().severity, 2);
        let mut mc = MemoryController::new(module());
        assert_eq!(mc.fault_severity(), 0);
        assert!(install(&mut mc, FaultProfile::Mild, 1));
        assert_eq!(mc.fault_severity(), 1);
        assert!(install(&mut mc, FaultProfile::Hostile, 1));
        assert_eq!(mc.fault_severity(), 2);
    }

    #[test]
    fn install_is_a_no_op_for_profile_none() {
        let mut mc = MemoryController::new(module());
        assert!(!install(&mut mc, FaultProfile::None, 1));
        assert_eq!(mc.fault_severity(), 0);
        assert!(install(&mut mc, FaultProfile::Mild, 1));
        assert!(mc.fault_severity() > 0);
    }

    #[test]
    fn fault_sequence_is_deterministic_in_the_seed() {
        let run = |seed: u64| {
            let mut mc = faulty(FaultProfile::Hostile, seed);
            let bank = Bank::new(0);
            let mut flips = Vec::new();
            for r in 0..64 {
                let row = RowAddr::new(r);
                mc.write_row(bank, row, DataPattern::Ones).unwrap();
                mc.wait_no_refresh(Nanos::from_ms(5));
                flips.push(mc.read_row(bank, row).unwrap().flipped_bits().to_vec());
            }
            flips
        };
        assert_eq!(run(5), run(5), "same seed, same faults");
        assert_ne!(run(5), run(6), "different seed, different faults");
    }

    #[test]
    fn hostile_profile_injects_and_counts() {
        let mut mc = faulty(FaultProfile::Hostile, 3);
        let bank = Bank::new(0);
        for round in 0..200u32 {
            let row = RowAddr::new(round % 256);
            mc.write_row(bank, row, DataPattern::Ones).unwrap();
            mc.wait_no_refresh(Nanos::from_ms(2));
            let _ = mc.read_row(bank, row).unwrap();
        }
        // `install` reports into the controller's registry.
        let registry = mc.registry();
        let injected = registry.counter(CTR_INJECTED_TOTAL).get();
        assert!(injected > 0, "hostile profile must inject something in 200 rounds");
        let per_kind = Injected::ALL.map(|kind| registry.counter(kind.counter()).get());
        assert_eq!(injected, per_kind.iter().sum::<u64>(), "total is the sum of {per_kind:?}");
    }

    #[test]
    fn kept_handles_match_the_registry_and_the_trace() {
        let registry = MetricsRegistry::shared();
        registry.install_recorder(Arc::new(obs::FlightRecorder::unfiltered()));
        let mut plan = FaultPlan::from_profile(FaultProfile::Hostile, 3).unwrap();
        plan.attach_metrics(Arc::clone(&registry));
        let mut module = module();
        let bank = Bank::new(0);
        for round in 0..2_000u32 {
            let (row, now) = (RowAddr::new(round % 256), Nanos::from_ms(u64::from(round)));
            if plan.on_write(bank, row, &DataPattern::Ones, now) == WriteFault::None {
                module.write_row(bank, row, DataPattern::Ones).unwrap();
            }
            let mut readout = module.read_row(bank, row).unwrap();
            plan.on_read(bank, row, &mut readout, now);
            plan.on_tick(now, &mut module);
        }
        let (events, _) = registry.recorder().unwrap().snapshot();
        let mut total = 0;
        for kind in Injected::ALL {
            let kept = plan.injected[kind as usize].get(&registry, kind.counter()).get();
            let traced = events.iter().filter(|e| e.detail == kind.label()).count() as u64;
            assert!(traced > 0, "{kind:?} never fired");
            assert_eq!(
                (kept, registry.counter(kind.counter()).get()),
                (traced, traced),
                "{kind:?}"
            );
            total += kept;
        }
        assert_eq!(plan.total.get(&registry, CTR_INJECTED_TOTAL).get(), total);
        assert_eq!(registry.counter(CTR_INJECTED_TOTAL).get(), total);
    }

    #[test]
    fn drift_follows_simulated_time() {
        let FaultConfig { drift_amplitude: amplitude, drift_period: period, .. } =
            FaultConfig::mild();
        let mut mc = faulty(FaultProfile::Mild, 9);
        // A quarter period lands on the sine peak.
        mc.wait_no_refresh(period / 4);
        let drift = mc.module().retention_drift();
        assert!(
            (drift - (1.0 + amplitude)).abs() < 1e-6,
            "quarter-period drift should be at +amplitude, got {drift}"
        );
        mc.wait_no_refresh(period / 4);
        let back = mc.module().retention_drift();
        assert!((back - 1.0).abs() < 1e-6, "half-period drift back to 1.0, got {back}");
    }

    #[test]
    fn vrt_bursts_eventually_start_and_stop() {
        let mut mc = faulty(FaultProfile::Hostile, 17);
        let mut saw_burst = false;
        let mut saw_clear_after_burst = false;
        for _ in 0..2_000 {
            mc.wait_no_refresh(Nanos::from_ms(1));
            match mc.module().vrt_switch_override() {
                Some(_) => saw_burst = true,
                None if saw_burst => saw_clear_after_burst = true,
                None => {}
            }
        }
        assert!(saw_burst, "hostile profile must start a burst in 2 s of ticks");
        assert!(saw_clear_after_burst, "bursts must also end");
    }

    #[test]
    fn garbled_pattern_differs_from_request() {
        for p in [DataPattern::Zeros, DataPattern::Ones, DataPattern::Checkerboard] {
            assert_ne!(FaultPlan::garble_pattern(&p), p);
        }
    }
}
