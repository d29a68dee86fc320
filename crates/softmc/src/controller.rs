//! The memory controller: high-level building blocks over raw DDR
//! commands.

use dram_sim::{Bank, DataPattern, DramError, Module, Nanos, RowAddr, RowReadout};

use crate::faults::{FaultInjector, WriteFault};

/// The order in which multiple aggressor rows are hammered (§5.2).
///
/// The paper: "interleaved hammering generally causes more bit flips (up
/// to four orders of magnitude) compared to cascaded hammering […] in
/// contrast, cascaded hammering is more effective at evading the TRR
/// mechanism. Therefore, it is critical to support both hammering modes."
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum HammerMode {
    /// Hammer each aggressor one activation at a time, round-robin, until
    /// every aggressor reaches its count.
    #[default]
    Interleaved,
    /// Hammer one aggressor to its full count before moving to the next.
    Cascaded,
}

/// A multi-aggressor hammer specification: per-aggressor counts and the
/// hammering mode (Requirement 1 of §5.1).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HammerSpec {
    /// `(row, hammer count)` per aggressor, hammered in this order.
    pub aggressors: Vec<(RowAddr, u64)>,
    /// Interleaved or cascaded (§5.2).
    pub mode: HammerMode,
}

impl HammerSpec {
    /// A single-sided hammer of one aggressor.
    pub fn single_sided(aggressor: RowAddr, count: u64) -> Self {
        HammerSpec { aggressors: vec![(aggressor, count)], mode: HammerMode::Cascaded }
    }
}

/// Per-controller adaptive-recovery ladder state.
///
/// Every decision the recovery ladder makes (vote width, relocation
/// attempts, drift re-profiling, budget trips) must be a pure function
/// of this controller's own command history — never of a shared metrics
/// registry, whose counters interleave nondeterministically across
/// worker threads. The controller therefore carries the ladder state
/// itself; the `utrr_core` recovery policy reads and updates it, and
/// mirrors the totals into (commutative) registry counters for
/// reporting only.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryLadder {
    /// Current majority-vote width (`0` = the policy's starting width).
    pub vote_width: u8,
    /// Voted reads observed since the last widening step.
    pub voted_reads: u64,
    /// Vote disagreements observed since the last widening step.
    pub disagreements: u64,
    /// Times the vote width was widened (3→5, 5→7).
    pub vote_widenings: u64,
    /// Row Scout candidate windows relocated to fresh subarray regions.
    pub relocations: u64,
    /// Mid-run retention-drift re-profiles (margin ladder escalations).
    pub reprofiles: u64,
    /// Phases closed early by an ACT-budget circuit breaker.
    pub budget_trips: u64,
}

impl RecoveryLadder {
    /// Records one voted read and its disagreement outcome.
    pub fn record_vote(&mut self, disagreed: bool) {
        self.voted_reads += 1;
        self.disagreements += u64::from(disagreed);
    }

    /// Resets the disagreement-rate window (after a widening step).
    pub fn reset_vote_window(&mut self) {
        self.voted_reads = 0;
        self.disagreements = 0;
    }
}

/// A command-level memory controller driving one simulated module.
///
/// See the [crate docs](crate) for an end-to-end example.
#[derive(Debug)]
pub struct MemoryController {
    module: Module,
    /// Optional fault-injection hook at the controller/device boundary.
    /// `None` (the default) keeps every code path bit-identical to a
    /// controller without the hook.
    faults: Option<Box<dyn FaultInjector>>,
    /// Adaptive-recovery ladder state (see [`RecoveryLadder`]).
    recovery: RecoveryLadder,
    /// Counter handles of the layers above (see
    /// [`MemoryController::counter`]).
    counters: Vec<obs::CounterSlot>,
}

impl MemoryController {
    /// Takes ownership of a module. No refresh happens unless explicitly
    /// requested.
    pub fn new(module: Module) -> Self {
        MemoryController {
            module,
            faults: None,
            recovery: RecoveryLadder::default(),
            counters: Vec::new(),
        }
    }

    /// Installs (or, with `None`, removes) the fault injector.
    pub fn set_fault_injector(&mut self, injector: Option<Box<dyn FaultInjector>>) {
        self.faults = injector;
    }

    /// The installed injector's [`FaultInjector::severity`], or `0` when
    /// no injector is installed. `utrr_core::RecoveryPolicy::of`
    /// resolves the pipeline's whole fault-tolerance policy from it:
    /// `0` is the exact, fault-free substrate.
    pub fn fault_severity(&self) -> u8 {
        self.faults.as_ref().map_or(0, |f| f.severity())
    }

    /// The adaptive-recovery ladder state (read-only).
    pub fn recovery(&self) -> &RecoveryLadder {
        &self.recovery
    }

    /// The adaptive-recovery ladder state, for the recovery policy.
    pub fn recovery_mut(&mut self) -> &mut RecoveryLadder {
        &mut self.recovery
    }

    /// Runs `f` with the injector temporarily detached, so the hook can
    /// receive `&mut self.module` without aliasing the controller.
    fn with_fault_hook(&mut self, f: impl FnOnce(&mut dyn FaultInjector, &mut Module)) {
        if let Some(mut hook) = self.faults.take() {
            f(hook.as_mut(), &mut self.module);
            self.faults = Some(hook);
        }
    }

    /// Lets the injector evolve environmental conditions after a bulk
    /// time step.
    fn tick_faults(&mut self) {
        self.with_fault_hook(|hook, module| {
            let now = module.now();
            hook.on_tick(now, module);
        });
    }

    /// The underlying device (read-only).
    pub fn module(&self) -> &Module {
        &self.module
    }

    /// The underlying device. Escape hatch for raw command sequences.
    pub fn module_mut(&mut self) -> &mut Module {
        &mut self.module
    }

    /// The metrics registry of the underlying device.
    pub fn registry(&self) -> &std::sync::Arc<obs::MetricsRegistry> {
        self.module.registry()
    }

    /// The counter `name` of the device's registry, for a layer above
    /// the controller that bumps it per command: `slot` resolves the
    /// name once and keeps the handle (see [`obs::CounterSlot`]). A
    /// caller gives each name it bumps its own fixed slot index.
    pub fn counter(&mut self, slot: usize, name: &str) -> &obs::Counter {
        if slot >= self.counters.len() {
            self.counters.resize_with(slot + 1, obs::CounterSlot::default);
        }
        self.counters[slot].get(self.module.registry(), name)
    }

    /// Current device time.
    pub fn now(&self) -> Nanos {
        self.module.now()
    }

    /// Writes `pattern` into a row (activate, write, precharge).
    ///
    /// # Errors
    ///
    /// Propagates protocol/addressing errors from the device.
    pub fn write_row(
        &mut self,
        bank: Bank,
        row: RowAddr,
        pattern: DataPattern,
    ) -> Result<(), DramError> {
        if let Some(mut hook) = self.faults.take() {
            let fate = hook.on_write(bank, row, pattern, self.module.now());
            self.faults = Some(hook);
            return match fate {
                WriteFault::None => self.module.write_row(bank, row, pattern),
                WriteFault::Dropped => Ok(()),
                WriteFault::Garbled(garbled) => self.module.write_row(bank, row, garbled),
            };
        }
        self.module.write_row(bank, row, pattern)
    }

    /// Reads a row back (activate, read, precharge).
    ///
    /// # Errors
    ///
    /// Propagates protocol/addressing errors from the device.
    pub fn read_row(&mut self, bank: Bank, row: RowAddr) -> Result<RowReadout, DramError> {
        let mut readout = self.module.read_row(bank, row)?;
        if let Some(mut hook) = self.faults.take() {
            hook.on_read(bank, row, &mut readout, self.module.now());
            self.faults = Some(hook);
        }
        Ok(readout)
    }

    /// Gives an installed fault injector a chance to evolve
    /// environmental conditions (retention drift, VRT bursts) at the
    /// current simulated time. Harnesses that drive the module directly
    /// (bypassing the controller's wait/refresh wrappers) call this once
    /// per interval; without an injector it is a no-op.
    pub fn tick_environment(&mut self) {
        self.tick_faults();
    }

    /// Lets time pass with refresh disabled (rows decay).
    pub fn wait_no_refresh(&mut self, duration: Nanos) {
        self.module.advance(duration);
        self.tick_faults();
    }

    /// Issues `count` `REF` commands paced at the default `tREFI` rate
    /// (Requirement 3 of §5.1: flexible `REF` issuing).
    pub fn refresh(&mut self, count: u64) {
        self.module.refresh_burst_at_refi(count);
        self.tick_faults();
    }

    /// Executes a hammer specification against one bank (Requirements 1
    /// and 2 of §5.1).
    ///
    /// # Errors
    ///
    /// Propagates protocol/addressing errors from the device.
    pub fn hammer(&mut self, bank: Bank, spec: &HammerSpec) -> Result<(), DramError> {
        match spec.mode {
            HammerMode::Cascaded => {
                for &(row, count) in &spec.aggressors {
                    self.module.hammer(bank, row, count)?;
                }
            }
            HammerMode::Interleaved => self.hammer_interleaved(bank, &spec.aggressors)?,
        }
        Ok(())
    }

    /// Round-robin interleaved hammering with per-aggressor counts. The
    /// two-aggressor equal-count case uses the device's batched
    /// interleaved path; everything else replays activation by
    /// activation.
    fn hammer_interleaved(
        &mut self,
        bank: Bank,
        aggressors: &[(RowAddr, u64)],
    ) -> Result<(), DramError> {
        match aggressors {
            [] => Ok(()),
            [(row, count)] => self.module.hammer(bank, *row, *count),
            [(r1, c1), (r2, c2)] if c1 == c2 => self.module.hammer_pair(bank, *r1, *r2, *c1),
            _ => {
                let mut remaining: Vec<(RowAddr, u64)> = aggressors.to_vec();
                loop {
                    let mut any = false;
                    for (row, count) in &mut remaining {
                        if *count > 0 {
                            self.module.hammer(bank, *row, 1)?;
                            *count -= 1;
                            any = true;
                        }
                    }
                    if !any {
                        return Ok(());
                    }
                }
            }
        }
    }

    /// Picks `count` dummy rows in `bank` at physical distance of at
    /// least `min_distance` from every row in `avoid` (the paper enforces
    /// a minimum distance of 100 so dummy hammering cannot disturb the
    /// profiled rows).
    pub fn pick_dummy_rows(
        &self,
        avoid: &[RowAddr],
        min_distance: u32,
        count: usize,
    ) -> Vec<RowAddr> {
        let rows = self.module.geometry().rows_per_bank;
        let avoid_phys: Vec<u32> = avoid.iter().map(|&r| self.module.phys_of(r).index()).collect();
        let mut out = Vec::with_capacity(count);
        let mut candidate = 0u32;
        while out.len() < count && candidate < rows {
            let logical = RowAddr::new(candidate);
            let phys = self.module.phys_of(logical).index();
            let clear = avoid_phys.iter().all(|&a| phys.abs_diff(a) >= min_distance);
            // Also keep dummies spread apart so they occupy distinct TRR
            // tracker entries.
            let spread =
                out.iter().all(|&r: &RowAddr| self.module.phys_of(r).index().abs_diff(phys) >= 4);
            if clear && spread {
                out.push(logical);
            }
            candidate += 1;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dram_sim::ModuleConfig;

    fn double_sided(victim: RowAddr, count: u64) -> HammerSpec {
        let aggressors = vec![(victim.minus(1), count), (victim.plus(1), count)];
        HammerSpec { aggressors, mode: HammerMode::Interleaved }
    }

    fn controller() -> MemoryController {
        MemoryController::new(Module::new(ModuleConfig::small_test(), 3))
    }

    #[test]
    fn spec_constructors() {
        let s = HammerSpec::single_sided(RowAddr::new(5), 100);
        assert_eq!(s.aggressors, vec![(RowAddr::new(5), 100)]);
        assert_eq!(s.mode, HammerMode::Cascaded);
    }

    #[test]
    fn double_sided_hammer_flips_victim() {
        let mut mc = controller();
        let bank = Bank::new(0);
        let victim = RowAddr::new(200);
        mc.write_row(bank, victim, DataPattern::Ones).unwrap();
        mc.hammer(bank, &double_sided(victim, 5_000)).unwrap();
        assert!(!mc.read_row(bank, victim).unwrap().is_clean());
    }

    #[test]
    fn interleaved_beats_cascaded() {
        let flips = |mode| {
            let mut mc = controller();
            let bank = Bank::new(0);
            let victim = RowAddr::new(200);
            mc.write_row(bank, victim, DataPattern::Ones).unwrap();
            let spec = HammerSpec { mode, ..double_sided(victim, 3_000) };
            mc.hammer(bank, &spec).unwrap();
            mc.read_row(bank, victim).unwrap().flip_count()
        };
        assert!(flips(HammerMode::Interleaved) > flips(HammerMode::Cascaded));
    }

    #[test]
    fn many_sided_interleaved_hammering() {
        let mut mc = controller();
        let bank = Bank::new(0);
        let victim = RowAddr::new(200);
        mc.write_row(bank, victim, DataPattern::Ones).unwrap();
        // Three aggressors with distinct counts exercise the round-robin
        // path.
        let spec = HammerSpec {
            aggressors: vec![
                (victim.minus(1), 3_000),
                (victim.plus(1), 2_000),
                (victim.plus(3), 1_000),
            ],
            mode: HammerMode::Interleaved,
        };
        mc.hammer(bank, &spec).unwrap();
        assert!(!mc.read_row(bank, victim).unwrap().is_clean());
        let acts = mc.module().activations();
        assert_eq!(acts, 6_000 + 2 /* write + read activate */);
    }

    #[test]
    fn paced_refresh_preserves_data() {
        let mut mc = controller();
        let bank = Bank::new(0);
        // Find a weak row through the device's introspection.
        let weak = (0..1024)
            .map(RowAddr::new)
            .find(|&r| {
                let v = mc.module_mut().inspect_row(bank, r);
                v.min_retention().is_some() && !v.has_vrt()
            })
            .expect("test module has weak rows");
        for pattern in [DataPattern::Ones, DataPattern::Zeros] {
            mc.write_row(bank, weak, pattern).unwrap();
            // 2 s of REFs at tREFI: every row is refreshed many times.
            let refs = Nanos::from_ms(2_000).as_ns() / mc.module().timings().t_refi.as_ns();
            mc.refresh(refs);
            assert!(mc.read_row(bank, weak).unwrap().is_clean(), "refreshed rows must never decay");
        }
    }

    #[test]
    fn wait_no_refresh_lets_rows_decay() {
        let mut mc = controller();
        let bank = Bank::new(0);
        let mut decayed = 0;
        for r in 0..512 {
            mc.write_row(bank, RowAddr::new(r), DataPattern::Ones).unwrap();
        }
        mc.wait_no_refresh(Nanos::from_ms(10_000));
        for r in 0..512 {
            if !mc.read_row(bank, RowAddr::new(r)).unwrap().is_clean() {
                decayed += 1;
            }
        }
        assert!(decayed > 0);
    }

    #[test]
    fn dummy_rows_keep_their_distance() {
        let mc = controller();
        let avoid = vec![RowAddr::new(500), RowAddr::new(502)];
        let dummies = mc.pick_dummy_rows(&avoid, 100, 8);
        assert_eq!(dummies.len(), 8);
        for d in &dummies {
            for a in &avoid {
                assert!(d.index().abs_diff(a.index()) >= 100);
            }
        }
    }

    #[test]
    fn refresh_counts_are_forwarded() {
        let mut mc = controller();
        mc.refresh(42);
        assert_eq!(mc.module().ref_count(), 42);
    }
}
