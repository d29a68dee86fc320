//! TRR Analyzer (TRR-A): the experiment engine of §5.
//!
//! An [`Experiment`] is the Fig. 7 template:
//!
//! 1. reset the TRR mechanism's internal state (Requirement 4): the
//!    caller runs `flush_tracker` before the experiment;
//! 2. initialize the profiled (victim) rows with their profiling pattern
//!    and the aggressor rows with [`AGGRESSOR_PATTERN`];
//! 3. wait half the victims' retention time;
//! 4. run one or more *rounds* of {hammer aggressors and dummy rows,
//!    issue `REF` commands};
//! 5. wait out the second half of the retention time (minus the time
//!    spent hammering, as the paper specifies);
//! 6. read the victims and classify each as TRR-refreshed, regularly
//!    refreshed (using a learned [`RefreshSchedule`]), or not refreshed.

use dram_sim::{Bank, DataPattern, Nanos, RowAddr};
use softmc::{HammerSpec, MemoryController};

use crate::error::UtrrError;
use crate::rowscout::ProfiledRowGroup;
use crate::schedule::RefreshSchedule;

/// Counter name for victims classified [`VictimOutcome::NotRefreshed`].
pub const CTR_NOT_REFRESHED: &str = "utrr.outcome.not_refreshed";
/// Counter name for victims classified [`VictimOutcome::RegularRefresh`].
pub const CTR_REGULAR_REFRESH: &str = "utrr.outcome.regular_refresh";
/// Counter name for victims classified [`VictimOutcome::TrrRefresh`].
pub const CTR_TRR_REFRESH: &str = "utrr.outcome.trr_refresh";

/// Pattern written into the aggressor rows before hammering ("the
/// RowHammer vulnerability greatly depends on the data values stored in
/// an aggressor row"). Dummy rows are left unwritten.
pub(crate) const AGGRESSOR_PATTERN: DataPattern = DataPattern::RowStripe;

/// A TRR Analyzer experiment (the "Experiment Config" box of Fig. 3).
///
/// The hammer-and-refresh rounds must complete well inside half the
/// victims' retention time: the second decay half-window is shortened by
/// the time the rounds consumed (as the paper specifies), and if the
/// rounds outlast `retention / 2` entirely, victims refreshed during
/// them can decay past their full retention and read as
/// [`VictimOutcome::NotRefreshed`]. Keep total round activity under a
/// few percent of the retention bucket.
#[derive(Debug, Clone, PartialEq)]
pub struct Experiment {
    /// Bank under test.
    pub bank: Bank,
    /// Victim rows (the Row Scout-provided profiled rows).
    pub victims: Vec<RowAddr>,
    /// The victims' shared retention bucket.
    pub retention: Nanos,
    /// Pattern the victims were profiled with (must be reused —
    /// retention failures are data-dependent).
    pub victim_pattern: DataPattern,
    /// Aggressor rows, counts, and hammering mode (Requirement 1).
    pub hammer: HammerSpec,
    /// Dummy rows hammered in addition to the aggressors (Requirement 2).
    pub dummies: Vec<RowAddr>,
    /// Hammers per dummy row per round (one count for all dummies, as in
    /// the paper).
    pub dummy_hammers: u64,
    /// Hammer the dummies *before* the aggressors in each round (the
    /// vendor-C custom pattern needs this order).
    pub dummies_first: bool,
    /// `REF` commands issued at the end of each round (Requirement 3).
    pub refs_per_round: u64,
    /// Number of rounds.
    pub rounds: u32,
}

impl Experiment {
    /// An experiment template over one profiled row group: victims and
    /// retention from the group, everything else defaulted (no hammers,
    /// one round, one `REF`).
    pub(crate) fn on_group(bank: Bank, group: &ProfiledRowGroup) -> Self {
        Experiment {
            bank,
            victims: group.victim_rows(),
            retention: group.retention,
            victim_pattern: group.pattern.clone(),
            hammer: HammerSpec::default(),
            dummies: Vec::new(),
            dummy_hammers: 0,
            dummies_first: false,
            refs_per_round: 1,
            rounds: 1,
        }
    }

    /// Sets the hammer spec, builder-style.
    pub(crate) fn with_hammer(mut self, hammer: HammerSpec) -> Self {
        self.hammer = hammer;
        self
    }

    /// Sets dummy-row hammering, builder-style.
    pub(crate) fn with_dummies(mut self, dummies: Vec<RowAddr>, hammers: u64) -> Self {
        self.dummies = dummies;
        self.dummy_hammers = hammers;
        self
    }

    /// Sets the per-round `REF` count, builder-style.
    pub(crate) fn with_refs(mut self, refs_per_round: u64) -> Self {
        self.refs_per_round = refs_per_round;
        self
    }
}

/// Flushes the TRR tracker state without a backdoor (Requirement 4 of
/// §5.1): activates many distinct far-away dummy rows a handful of times
/// each. This evicts every stale tracker entry near the protected rows
/// while leaving the dummies with *small* counters, so subsequent
/// experiments' aggressors immediately dominate any counter-based
/// detector.
///
/// # Errors
///
/// Propagates device protocol errors.
pub(crate) fn flush_tracker(
    mc: &mut MemoryController,
    bank: Bank,
    avoid: &[RowAddr],
    min_distance: u32,
) -> Result<(), UtrrError> {
    let dummies = mc.pick_dummy_rows(avoid, min_distance, 64);
    for dummy in dummies {
        mc.module_mut().hammer(bank, dummy, 48)?;
    }
    Ok(())
}

/// How one victim row came out of an experiment iteration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VictimOutcome {
    /// Bit flips observed: nothing refreshed the row.
    NotRefreshed,
    /// Clean, and a regular refresh was scheduled in the window: the
    /// observation is explained without TRR.
    RegularRefresh,
    /// Clean with no regular refresh scheduled: a TRR-induced refresh.
    TrrRefresh,
}

impl VictimOutcome {
    /// Stable lower-snake-case name, used as the `read_check` trace
    /// event detail and in report output.
    pub fn as_str(self) -> &'static str {
        match self {
            VictimOutcome::NotRefreshed => "not_refreshed",
            VictimOutcome::RegularRefresh => "regular_refresh",
            VictimOutcome::TrrRefresh => "trr_refresh",
        }
    }
}

/// The result of one experiment iteration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExperimentOutcome {
    /// Per-victim outcome, in `victims` order.
    pub victims: Vec<VictimOutcome>,
    /// Global `REF` count before the first round's refreshes.
    pub ref_start: u64,
    /// Global `REF` count after the last round.
    pub ref_end: u64,
    /// Trace-event IDs of the per-victim `read_check` events backing
    /// `victims` — the raw evidence a downstream verdict cites. Empty
    /// when tracing is off or the victims fall outside the trace filter.
    pub evidence: Vec<u64>,
}

impl ExperimentOutcome {
    /// Whether any victim saw a TRR-induced refresh.
    pub(crate) fn any_trr(&self) -> bool {
        self.victims.contains(&VictimOutcome::TrrRefresh)
    }

    /// Indices of victims that saw a TRR-induced refresh.
    pub fn trr_victims(&self) -> Vec<usize> {
        self.victims
            .iter()
            .enumerate()
            .filter(|(_, v)| **v == VictimOutcome::TrrRefresh)
            .map(|(i, _)| i)
            .collect()
    }
}

/// The TRR Analyzer: runs [`Experiment`]s and classifies victim-row
/// outcomes.
///
/// Holds per-row [`RefreshSchedule`]s (learned once via
/// [`crate::schedule::learn_refresh_schedule`]) keyed by logical row
/// address; a clean victim with no schedule on file is classified as
/// TRR-refreshed, so schedule-free analysis over-approximates TRR
/// activity by the regular-refresh rate.
#[derive(Debug, Clone, Default)]
pub struct TrrAnalyzer {
    schedules: std::collections::HashMap<RowAddr, RefreshSchedule>,
}

impl TrrAnalyzer {
    /// An analyzer with no schedule knowledge (every clean victim counts
    /// as TRR-refreshed — acceptable when experiments issue far fewer
    /// `REF`s than the regular refresh period).
    pub fn new() -> Self {
        TrrAnalyzer::default()
    }

    /// Registers the learned regular-refresh schedule of a row.
    pub(crate) fn add_schedule(&mut self, row: RowAddr, schedule: RefreshSchedule) {
        self.schedules.insert(row, schedule);
    }

    /// The schedule on file for a row, if any.
    pub fn schedule(&self, row: RowAddr) -> Option<&RefreshSchedule> {
        self.schedules.get(&row)
    }

    /// Runs one experiment iteration (Fig. 7).
    ///
    /// The iteration runs under a `utrr.analyzer.experiment` span with
    /// one `utrr.analyzer.round` child per hammer round, and the
    /// per-victim classification is tallied into the
    /// [`CTR_NOT_REFRESHED`], [`CTR_REGULAR_REFRESH`], and
    /// [`CTR_TRR_REFRESH`] counters.
    ///
    /// # Errors
    ///
    /// Propagates device protocol errors.
    pub fn run(
        &self,
        mc: &mut MemoryController,
        exp: &Experiment,
    ) -> Result<ExperimentOutcome, UtrrError> {
        let registry = std::sync::Arc::clone(mc.registry());
        let span = obs::span!(
            registry,
            "utrr.analyzer.experiment",
            mc.now().as_ns(),
            victims = exp.victims.len() as u64,
            rounds = exp.rounds as u64,
            refs_per_round = exp.refs_per_round
        );
        let result = self.run_inner(mc, exp);
        if let Ok(outcome) = &result {
            let mut tally = [0u64; 3];
            for v in &outcome.victims {
                let slot = match v {
                    VictimOutcome::NotRefreshed => 0,
                    VictimOutcome::RegularRefresh => 1,
                    VictimOutcome::TrrRefresh => 2,
                };
                tally[slot] += 1;
            }
            registry.counter(CTR_NOT_REFRESHED).add(tally[0]);
            registry.counter(CTR_REGULAR_REFRESH).add(tally[1]);
            registry.counter(CTR_TRR_REFRESH).add(tally[2]);
        }
        span.finish(mc.now().as_ns());
        result
    }

    fn run_inner(
        &self,
        mc: &mut MemoryController,
        exp: &Experiment,
    ) -> Result<ExperimentOutcome, UtrrError> {
        // ① Initialize victim and aggressor rows. Verified writes: a
        // dropped or garbled victim init would read as a spurious bit
        // flip at step ⑥ and be misclassified as "not refreshed".
        // Fault-free this is exactly one write per row, as before.
        for &victim in &exp.victims {
            crate::robust::write_row_checked(mc, exp.bank, victim, &exp.victim_pattern)?;
        }
        for &(aggressor, _) in &exp.hammer.aggressors {
            crate::robust::write_row_checked(mc, exp.bank, aggressor, &AGGRESSOR_PATTERN)?;
        }

        // Wait the first half of the retention window (the policy's
        // half-window). On a faulty substrate each half is stretched by
        // 5% — headroom past the injected retention-drift amplitude, so
        // an unrefreshed victim still decays past its bucket when the
        // environment runs a couple of percent "cold" (a clean read here
        // must only ever mean "refreshed"). Fault-free the window is
        // exactly the retention time.
        let (num, den) = crate::recovery::RecoveryPolicy::of(mc).half_window;
        let half_window = exp.retention * num / den;
        mc.wait_no_refresh(half_window);

        // ③④ Hammer rounds, each ending with REFs.
        let ref_start = mc.module().ref_count();
        let active_start = mc.now();
        for round in 0..exp.rounds {
            let registry = std::sync::Arc::clone(mc.registry());
            let round_span =
                obs::span!(registry, "utrr.analyzer.round", mc.now().as_ns(), round = round as u64);
            let mut step = || -> Result<(), UtrrError> {
                if exp.dummies_first {
                    self.hammer_dummies(mc, exp)?;
                    mc.hammer(exp.bank, &exp.hammer)?;
                } else {
                    mc.hammer(exp.bank, &exp.hammer)?;
                    self.hammer_dummies(mc, exp)?;
                }
                mc.refresh(exp.refs_per_round);
                Ok(())
            };
            let step_result = step();
            round_span.finish(mc.now().as_ns());
            step_result?;
        }
        let ref_end = mc.module().ref_count();
        let active = mc.now() - active_start;

        // ⑤ Second half of the retention window, minus hammering time.
        mc.wait_no_refresh(half_window.saturating_sub(active));

        // ⑥ Read back and classify (majority-voted under fault
        // injection: a single in-flight read flip must not turn a
        // refreshed victim into a "not refreshed" verdict).
        let mut victims = Vec::with_capacity(exp.victims.len());
        let mut evidence = Vec::new();
        for &victim in &exp.victims {
            let clean = crate::robust::read_row_voted(mc, exp.bank, victim)?.is_clean();
            let outcome = if !clean {
                VictimOutcome::NotRefreshed
            } else {
                match self.schedules.get(&victim) {
                    Some(s) if s.covers(ref_start, ref_end) => VictimOutcome::RegularRefresh,
                    _ => VictimOutcome::TrrRefresh,
                }
            };
            if mc.registry().tracing_enabled() {
                let registry = std::sync::Arc::clone(mc.registry());
                if let Some(id) = registry.trace(
                    obs::TraceKind::ReadCheck,
                    mc.now().as_ns(),
                    u32::from(exp.bank.index()),
                    Some(mc.module().phys_of(victim).index()),
                    &[("clean", u64::from(clean))],
                    outcome.as_str(),
                ) {
                    evidence.push(id);
                }
            }
            victims.push(outcome);
        }
        Ok(ExperimentOutcome { victims, ref_start, ref_end, evidence })
    }

    /// Verifies that `count` hammers per aggressor do **not** cause
    /// RowHammer bit flips on the victims (the paper's §6.1.1 safety
    /// check), so that a clean victim can only mean "refreshed". The
    /// pipeline does not call it yet: `reverse_engineer` still takes the
    /// planted `HC_first` as its trigger count.
    ///
    /// # Errors
    ///
    /// [`UtrrError::HammerCountUnsafe`] when flips appear; device errors
    /// are propagated.
    pub fn verify_hammer_safe(
        &self,
        mc: &mut MemoryController,
        exp: &Experiment,
    ) -> Result<(), UtrrError> {
        for &victim in &exp.victims {
            crate::robust::write_row_checked(mc, exp.bank, victim, &exp.victim_pattern)?;
        }
        mc.hammer(exp.bank, &exp.hammer)?;
        for &victim in &exp.victims {
            if !crate::robust::read_row_voted(mc, exp.bank, victim)?.is_clean() {
                let count = exp.hammer.aggressors.iter().map(|&(_, n)| n).max().unwrap_or(0);
                return Err(UtrrError::HammerCountUnsafe { count });
            }
        }
        Ok(())
    }

    /// Verifies that the experiment's aggressors are physically adjacent
    /// to the victims by hammering them a large number of times with
    /// refresh disabled (§5.3's second method: 300K activations must
    /// produce RowHammer bit flips). Not called yet: it belongs to the
    /// pipeline's future §5.3 phase, with [`crate::mapping_re`].
    ///
    /// # Errors
    ///
    /// [`UtrrError::AdjacencyBroken`] when no flips appear; device errors
    /// are propagated.
    pub fn verify_adjacency(
        &self,
        mc: &mut MemoryController,
        exp: &Experiment,
        hammers: u64,
    ) -> Result<(), UtrrError> {
        for &victim in &exp.victims {
            crate::robust::write_row_checked(mc, exp.bank, victim, &exp.victim_pattern)?;
        }
        let heavy = HammerSpec {
            aggressors: exp.hammer.aggressors.iter().map(|&(r, _)| (r, hammers)).collect(),
            mode: exp.hammer.mode,
        };
        mc.hammer(exp.bank, &heavy)?;
        let mut any_flip = false;
        for &victim in &exp.victims {
            if !crate::robust::read_row_voted(mc, exp.bank, victim)?.is_clean() {
                any_flip = true;
            }
            // Restore the victim for subsequent experiments.
            mc.write_row(exp.bank, victim, exp.victim_pattern.clone())?;
        }
        if any_flip {
            Ok(())
        } else {
            Err(UtrrError::AdjacencyBroken)
        }
    }

    fn hammer_dummies(&self, mc: &mut MemoryController, exp: &Experiment) -> Result<(), UtrrError> {
        for &dummy in &exp.dummies {
            mc.module_mut().hammer(exp.bank, dummy, exp.dummy_hammers)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::RowGroupLayout;
    use crate::rowscout::{RowScout, ScoutConfig};
    use dram_sim::{Module, ModuleConfig};
    use softmc::HammerMode;
    use trr::CounterTrr;

    const BANK: Bank = Bank::new(0);

    fn scout_one(mc: &mut MemoryController) -> ProfiledRowGroup {
        RowScout::new(ScoutConfig::new(BANK, 768, RowGroupLayout::single_aggressor_pair(), 1))
            .scan(mc)
            .unwrap()
            .remove(0)
    }

    #[test]
    fn unhammered_victims_decay() {
        let mut mc = MemoryController::new(Module::new(ModuleConfig::small_test(), 41));
        let group = scout_one(&mut mc);
        let exp = Experiment::on_group(BANK, &group);
        // No hammering, no REFs beyond the single one → no TRR, and one
        // REF almost never hits the victims' regular slot.
        let outcome = TrrAnalyzer::new().run(&mut mc, &exp).unwrap();
        assert!(outcome.victims.iter().all(|v| *v == VictimOutcome::NotRefreshed), "{outcome:?}");
    }

    #[test]
    fn counter_trr_refresh_is_detected() {
        let config = ModuleConfig::small_test();
        let module = Module::with_engine(config, Box::new(CounterTrr::a_trr1(2)), 41);
        let mut mc = MemoryController::new(module);
        let group = scout_one(&mut mc);
        let aggressor = group.aggressors[0];
        let exp = Experiment::on_group(BANK, &group)
            .with_hammer(HammerSpec::single_sided(aggressor, 400))
            .with_refs(1);
        let analyzer = TrrAnalyzer::new();
        analyzer.verify_hammer_safe(&mut mc, &exp).unwrap();
        // Run 36 iterations (one REF each): four hit TRR-capable REFs.
        // The two TREF_a instances always detect our aggressor (highest
        // count); the two TREF_b instances walk the table and may land on
        // stale entries instead.
        let mut trr_hits = 0;
        for _ in 0..36 {
            if analyzer.run(&mut mc, &exp).unwrap().any_trr() {
                trr_hits += 1;
            }
        }
        assert!((2..=4).contains(&trr_hits), "TREF_a fires every 18th REF, got {trr_hits}");
    }

    #[test]
    fn regular_refresh_is_filtered_with_schedules() {
        let mut mc = MemoryController::new(Module::new(ModuleConfig::small_test(), 43));
        let group = scout_one(&mut mc);
        let mut analyzer = TrrAnalyzer::new();
        crate::schedule::learn_group_schedules(&mut mc, BANK, &group, &mut analyzer).unwrap();
        // Issue a full refresh period of REFs per iteration: the victims
        // are guaranteed to be regularly refreshed, and must be
        // classified as such (no TRR on this module).
        let exp = Experiment::on_group(BANK, &group).with_refs(1024);
        let outcome = analyzer.run(&mut mc, &exp).unwrap();
        assert!(outcome.victims.iter().all(|v| *v == VictimOutcome::RegularRefresh), "{outcome:?}");
    }

    #[test]
    fn hammer_safety_check_rejects_excessive_counts() {
        let mut mc = MemoryController::new(Module::new(ModuleConfig::small_test(), 47));
        let group = scout_one(&mut mc);
        let aggressor = group.aggressors[0];
        let exp = Experiment::on_group(BANK, &group)
            .with_hammer(HammerSpec::single_sided(aggressor, 500_000));
        let err = TrrAnalyzer::new().verify_hammer_safe(&mut mc, &exp).unwrap_err();
        assert!(matches!(err, UtrrError::HammerCountUnsafe { count: 500_000 }));
    }

    #[test]
    fn adjacency_check_passes_for_real_neighbours() {
        let mut mc = MemoryController::new(Module::new(ModuleConfig::small_test(), 53));
        let group = scout_one(&mut mc);
        let aggressor = group.aggressors[0];
        let exp =
            Experiment::on_group(BANK, &group).with_hammer(HammerSpec::single_sided(aggressor, 1));
        TrrAnalyzer::new().verify_adjacency(&mut mc, &exp, 300_000).unwrap();
    }

    #[test]
    fn adjacency_check_fails_for_distant_rows() {
        let mut mc = MemoryController::new(Module::new(ModuleConfig::small_test(), 53));
        let group = scout_one(&mut mc);
        let far = RowAddr::new((group.base.index() + 500) % 1000);
        let exp = Experiment::on_group(BANK, &group).with_hammer(HammerSpec::single_sided(far, 1));
        let err = TrrAnalyzer::new().verify_adjacency(&mut mc, &exp, 300_000).unwrap_err();
        assert_eq!(err, UtrrError::AdjacencyBroken);
    }

    #[test]
    fn dummy_rows_divert_counter_trr() {
        // With enough dummy rows hammered after the aggressor, the
        // counter table's LRU eviction drops the aggressor and the
        // victims decay — the core of the §7.1 vendor-A pattern.
        let module =
            Module::with_engine(ModuleConfig::small_test(), Box::new(CounterTrr::a_trr1(2)), 41);
        let mut mc = MemoryController::new(module);
        let group = scout_one(&mut mc);
        let aggressor = group.aggressors[0];
        let dummies = mc.pick_dummy_rows(&group.victim_rows(), 100, 16);
        let exp = Experiment::on_group(BANK, &group)
            .with_hammer(HammerSpec::single_sided(aggressor, 24))
            .with_dummies(dummies, 6)
            .with_refs(1);
        let analyzer = TrrAnalyzer::new();
        let mut trr_hits = 0;
        for _ in 0..18 {
            if analyzer.run(&mut mc, &exp).unwrap().any_trr() {
                trr_hits += 1;
            }
        }
        assert_eq!(trr_hits, 0, "diverted TRR must never refresh the victims");
    }

    #[test]
    fn experiment_builders() {
        let mut mc = MemoryController::new(Module::new(ModuleConfig::small_test(), 59));
        let group = scout_one(&mut mc);
        let exp = Experiment::on_group(BANK, &group)
            .with_hammer(HammerSpec::single_sided(RowAddr::new(10), 5))
            .with_dummies(vec![RowAddr::new(900)], 3)
            .with_refs(7);
        assert_eq!(exp.refs_per_round, 7);
        assert_eq!(exp.dummy_hammers, 3);
        assert_eq!(exp.hammer.mode, HammerMode::Cascaded);
    }
}
