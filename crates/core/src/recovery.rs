//! The recovery policy, the escalating recovery ladder it drives, and
//! tiered verdict confidence.
//!
//! Every fault-tolerance choice the pipeline makes is a field of one
//! [`RecoveryPolicy`] (docs/recovery.md has the table), which
//! [`RecoveryPolicy::of`] resolves from the controller's fault severity
//! — the only place the pipeline reads fault state.
//! [`RecoveryPolicy::IDENTITY`] issues exactly the fault-free command
//! stream: a width-1 vote is one read, a one-attempt write is one
//! unverified write, and every budget is unlimited.
//!
//! Under `hostile` the static settings run out: vote disagreements
//! become frequent enough that triple-modular redundancy itself
//! mis-votes, whole scan windows are poisoned by VRT bursts, and the
//! injected retention drift outgrows the static 1.05×/0.5× validation
//! margins. [`RecoveryPolicy::HOSTILE`] therefore escalates:
//!
//! * **vote widening** — the majority-vote width escalates 3→5→7 when
//!   the per-controller disagreement rate crosses
//!   [`VOTE_WIDEN_NUM`]/[`VOTE_WIDEN_DEN`] over a window of at least
//!   [`VOTE_WINDOW_MIN`] voted reads;
//! * **candidate relocation** — a Row Scout whose window runs dry
//!   relocates to fresh subarray regions via a deterministic seeded
//!   search instead of giving up (see
//!   [`RowScout::scan_recover`](crate::rowscout::RowScout::scan_recover));
//! * **drift re-profiling** — a [`DriftEstimator`] escalates the
//!   retention-validation margins mid-run when repeated margin failures
//!   show the static envelope no longer holds;
//! * **ACT-budget circuit breakers** — every discovery phase carries an
//!   activation budget ([`PhaseBudget`]) and closes with partial
//!   evidence instead of spinning or erroring when it runs out.
//!
//! Ladder *decisions* read only the per-controller
//! [`softmc::RecoveryLadder`] state (deterministic at any thread
//! count); the totals are mirrored into registry counters for
//! reporting, where concurrent adds commute.
//!
//! What the pipeline still knows after degrading is expressed as a
//! [`VerdictTier`] carried alongside every profile, record, and fleet
//! summary.

use dram_sim::{Bank, RowAddr};
use softmc::MemoryController;

/// Counter: majority-vote width escalations (3→5, 5→7).
pub const CTR_VOTE_WIDENINGS: &str = "utrr.recovery.vote_widenings";
/// Counter: Row Scout windows relocated to fresh subarray regions.
pub const CTR_RELOCATIONS: &str = "utrr.recovery.relocations";
/// Counter: mid-run retention-drift re-profiles.
pub const CTR_REPROFILES: &str = "utrr.recovery.reprofiles";
/// Counter: phases closed early by an ACT-budget circuit breaker.
pub const CTR_BUDGET_TRIPS: &str = "utrr.recovery.budget_trips";

/// A counter the recovery layer bumps, one per kind of event. Each has
/// its own handle slot on the controller
/// ([`MemoryController::counter`]), so a bump is one atomic add rather
/// than a name lookup under the registry lock.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum RecoveryCounter {
    /// [`crate::robust::CTR_VOTED_READS`].
    VotedReads,
    /// [`crate::robust::CTR_READ_DISAGREEMENTS`].
    ReadDisagreements,
    /// [`crate::robust::CTR_WRITE_RETRIES`].
    WriteRetries,
    /// [`crate::robust::CTR_WRITE_GIVEUPS`].
    WriteGiveups,
    /// [`CTR_VOTE_WIDENINGS`].
    VoteWidenings,
    /// [`CTR_RELOCATIONS`].
    Relocations,
    /// [`CTR_REPROFILES`].
    Reprofiles,
    /// [`CTR_BUDGET_TRIPS`].
    BudgetTrips,
}

impl RecoveryCounter {
    /// The registry name.
    fn name(self) -> &'static str {
        use crate::robust;
        match self {
            RecoveryCounter::VotedReads => robust::CTR_VOTED_READS,
            RecoveryCounter::ReadDisagreements => robust::CTR_READ_DISAGREEMENTS,
            RecoveryCounter::WriteRetries => robust::CTR_WRITE_RETRIES,
            RecoveryCounter::WriteGiveups => robust::CTR_WRITE_GIVEUPS,
            RecoveryCounter::VoteWidenings => CTR_VOTE_WIDENINGS,
            RecoveryCounter::Relocations => CTR_RELOCATIONS,
            RecoveryCounter::Reprofiles => CTR_REPROFILES,
            RecoveryCounter::BudgetTrips => CTR_BUDGET_TRIPS,
        }
    }

    /// Adds one to the counter in `mc`'s registry.
    pub(crate) fn inc(self, mc: &mut MemoryController) {
        mc.counter(self as usize, self.name()).inc();
    }
}

/// Disagreement-rate numerator/denominator that triggers vote widening:
/// more than 1 disagreement per 8 voted reads.
pub(crate) const VOTE_WIDEN_NUM: u64 = 1;
/// See [`VOTE_WIDEN_NUM`].
pub(crate) const VOTE_WIDEN_DEN: u64 = 8;
/// Voted reads required in the rate window before widening can trigger.
pub(crate) const VOTE_WINDOW_MIN: u64 = 24;

/// Per-phase ACT budget of [`RecoveryPolicy::HOSTILE`] on every
/// `discover_*` phase: far above what any honest phase consumes, so it
/// only trips on pathological spin — and the phase then closes with
/// partial evidence instead of hanging.
pub const HOSTILE_PHASE_ACT_BUDGET: u64 = 48_000_000;

/// Whole-scan ACT budget of [`RecoveryPolicy::HOSTILE`] on each Row
/// Scout scan.
pub const HOSTILE_SCOUT_ACT_BUDGET: u64 = 24_000_000;

/// Row Scout validation margins at one drift level: `(wait, hold)`,
/// each a `(num, den)` multiplier on the retention bucket. A row must
/// decay within `retention * wait` and stay clean at
/// `retention * hold`.
pub(crate) type MarginLevel = ((u64, u64), (u64, u64));

/// Every fault-tolerance setting of one controller's pipeline. Resolved
/// from the controller by [`RecoveryPolicy::of`]; there is no way to
/// choose one by hand.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryPolicy {
    /// Samples a voted read starts with (1 = one plain read).
    pub vote_width: u8,
    /// Widest vote the ladder escalates to; votes only widen (and are
    /// only tallied on the [`softmc::RecoveryLadder`]) when this exceeds
    /// `vote_width`.
    pub vote_width_max: u8,
    /// Attempts of a checked write (1 = one unverified write).
    pub write_attempts: u32,
    /// Retries of a failed Row Scout validation check before the row is
    /// quarantined.
    pub scout_retries: u32,
    /// Whether Row Scout skips quarantined candidates and requires each
    /// row's failure signature to repeat across checks.
    pub scout_filter: bool,
    /// Row Scout validation margins, one entry per [`DriftEstimator`]
    /// level; the estimator escalates only when there is more than one.
    pub scout_margins: &'static [MarginLevel],
    /// Relocations of a Row Scout window that comes up short.
    pub relocations: u32,
    /// Measurements of a row's refresh schedule before giving up.
    pub schedule_attempts: u32,
    /// Whether a learned schedule must pass predictive verification.
    pub verify_schedule: bool,
    /// Whether every schedule attempt first re-profiles the row's
    /// current retention and times its trials from that estimate.
    pub reprofile_schedule: bool,
    /// TRR Analyzer half-window as a `(num, den)` multiplier on the
    /// retention time.
    pub half_window: (u64, u64),
    /// ACT-window discovery tolerates `iterations / n` stray detections
    /// (at least one) per filler count; `None` concludes on the first.
    pub act_window_stray_den: Option<u32>,
    /// Whether results carry a verdict tier: a short scout or a group
    /// whose schedule fails becomes degraded evidence instead of an
    /// error, the final verdict event records the tier, and a module
    /// whose seed retries all fail is inconclusive instead of an error.
    pub tiered: bool,
    /// ACT budget of each Row Scout scan that sets no
    /// [`ScoutConfig::max_acts`](crate::ScoutConfig::max_acts).
    pub scout_act_budget: Option<u64>,
    /// ACT budget of each `discover_*` phase whose options set no
    /// [`ReverseOptions::phase_act_budget`](crate::ReverseOptions::phase_act_budget).
    pub phase_act_budget: Option<u64>,
    /// Cap of the `HC_first` doubling search, so a substrate whose
    /// faults keep victims reading clean cannot double forever.
    pub hc_search_cap: Option<u64>,
}

impl RecoveryPolicy {
    /// The fault-free pipeline: no voting, no verification, no retries,
    /// no budgets.
    pub(crate) const IDENTITY: RecoveryPolicy = RecoveryPolicy {
        vote_width: 1,
        vote_width_max: 1,
        write_attempts: 1,
        scout_retries: 0,
        scout_filter: false,
        scout_margins: &[((1, 1), (11, 20))],
        relocations: 0,
        schedule_attempts: 1,
        verify_schedule: false,
        reprofile_schedule: false,
        half_window: (1, 2),
        act_window_stray_den: None,
        tiered: false,
        scout_act_budget: None,
        phase_act_budget: None,
        hc_search_cap: None,
    };

    /// Static self-healing for substrates it absorbs: triple-voted
    /// reads, verified writes, bounded retries and drift-tolerant
    /// margins.
    pub(crate) const MILD: RecoveryPolicy = RecoveryPolicy {
        vote_width: 3,
        vote_width_max: 3,
        write_attempts: 4,
        scout_retries: 2,
        scout_filter: true,
        scout_margins: &[((21, 20), (1, 2))],
        schedule_attempts: 3,
        verify_schedule: true,
        half_window: (21, 40),
        act_window_stray_den: Some(50),
        ..RecoveryPolicy::IDENTITY
    };

    /// [`RecoveryPolicy::MILD`] plus the escalating ladder, ACT budgets
    /// and tiered verdicts.
    pub(crate) const HOSTILE: RecoveryPolicy = RecoveryPolicy {
        vote_width_max: 7,
        scout_retries: 3,
        scout_margins: &[((21, 20), (1, 2)), ((11, 10), (2, 5)), ((23, 20), (1, 3))],
        relocations: 3,
        schedule_attempts: 10,
        reprofile_schedule: true,
        tiered: true,
        scout_act_budget: Some(HOSTILE_SCOUT_ACT_BUDGET),
        phase_act_budget: Some(HOSTILE_PHASE_ACT_BUDGET),
        // Two orders of magnitude above any shipped `HC_first`, so it
        // never binds on honest measurements.
        hc_search_cap: Some(1 << 21),
        ..RecoveryPolicy::MILD
    };

    /// The policy of `mc`'s pipeline, from its
    /// [`MemoryController::fault_severity`].
    pub fn of(mc: &MemoryController) -> RecoveryPolicy {
        RecoveryPolicy::for_severity(mc.fault_severity())
    }

    /// The policy for a fault severity: 0 gives
    /// [`RecoveryPolicy::IDENTITY`], 1 [`RecoveryPolicy::MILD`], and 2
    /// or more [`RecoveryPolicy::HOSTILE`].
    pub fn for_severity(severity: u8) -> RecoveryPolicy {
        match severity {
            0 => RecoveryPolicy::IDENTITY,
            1 => RecoveryPolicy::MILD,
            _ => RecoveryPolicy::HOSTILE,
        }
    }
}

/// Whether the escalating ladder is unlocked on this controller.
pub fn ladder_active(mc: &MemoryController) -> bool {
    RecoveryPolicy::of(mc).tiered
}

/// How confident the pipeline is in a result it produced.
///
/// The tier is about *process*, not about matching any ground truth: a
/// profile whose phases all completed within budget — retries, votes,
/// and quarantines included — is `Confirmed` even if its conclusions
/// are wrong. A phase that closed early or was skipped degrades the
/// tier and records why; a pipeline with no usable profile at all is
/// `Inconclusive`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VerdictTier {
    /// Every phase completed within its budget with verified evidence.
    Confirmed,
    /// The pipeline completed, but at least one phase closed early or
    /// ran on partial evidence; `reasons` lists the degradations in the
    /// order they occurred (deduplicated).
    Degraded {
        /// Stable lower-kebab-case degradation labels (e.g.
        /// `scout-shortfall`, `schedule`, `act-budget`, `hc-cap`).
        reasons: Vec<String>,
    },
    /// No usable profile: the recovery ladder was exhausted.
    Inconclusive,
}

impl VerdictTier {
    /// The stable lower-case label (`confirmed`, `degraded`,
    /// `inconclusive`) used in fleet records and trace events.
    pub fn label(&self) -> &'static str {
        match self {
            VerdictTier::Confirmed => "confirmed",
            VerdictTier::Degraded { .. } => "degraded",
            VerdictTier::Inconclusive => "inconclusive",
        }
    }

    /// Numeric code for trace-event fields (0/1/2 in tier order).
    pub fn code(&self) -> u64 {
        match self {
            VerdictTier::Confirmed => 0,
            VerdictTier::Degraded { .. } => 1,
            VerdictTier::Inconclusive => 2,
        }
    }

    /// The degradation reasons, `+`-joined (empty unless `Degraded`).
    pub fn reasons_string(&self) -> String {
        match self {
            VerdictTier::Degraded { reasons } => reasons.join("+"),
            _ => String::new(),
        }
    }

    /// Whether the tier is [`VerdictTier::Confirmed`].
    pub fn is_confirmed(&self) -> bool {
        matches!(self, VerdictTier::Confirmed)
    }

    /// Degrades the tier with `reason` (idempotent per reason; an
    /// `Inconclusive` tier stays inconclusive).
    pub(crate) fn degrade(&mut self, reason: &str) {
        match self {
            VerdictTier::Confirmed => {
                *self = VerdictTier::Degraded { reasons: vec![reason.to_string()] };
            }
            VerdictTier::Degraded { reasons } => {
                if !reasons.iter().any(|r| r == reason) {
                    reasons.push(reason.to_string());
                }
            }
            VerdictTier::Inconclusive => {}
        }
    }

    /// Folds another tier in, keeping the worse of the two and the
    /// union of degradation reasons.
    pub fn merge(&mut self, other: &VerdictTier) {
        match other {
            VerdictTier::Confirmed => {}
            VerdictTier::Degraded { reasons } => {
                for reason in reasons {
                    self.degrade(reason);
                }
            }
            VerdictTier::Inconclusive => *self = VerdictTier::Inconclusive,
        }
    }

    /// Parses a `(label, reasons_string)` pair back (the fleet-record
    /// wire form). Unknown labels read as `Confirmed`, matching the
    /// pre-tier streams where the field is absent.
    pub fn from_wire(label: &str, reasons: &str) -> VerdictTier {
        match label {
            "inconclusive" => VerdictTier::Inconclusive,
            "degraded" => VerdictTier::Degraded {
                reasons: reasons.split('+').filter(|r| !r.is_empty()).map(str::to_string).collect(),
            },
            _ => VerdictTier::Confirmed,
        }
    }
}

/// Records one recovery event: bumps `counter` and emits a `recovery`
/// trace event on `row` with `detail` and `fields`, so the flight
/// recorder carries the provenance. Ladder steps also add themselves to
/// the controller's [`softmc::RecoveryLadder`] (their callers do that).
pub(crate) fn record(
    mc: &mut MemoryController,
    counter: RecoveryCounter,
    detail: &str,
    bank: Bank,
    row: Option<RowAddr>,
    fields: &[(&str, u64)],
) {
    counter.inc(mc);
    let phys = row.map(|r| mc.module().phys_of(r).index());
    let (t, bank) = (mc.now().as_ns(), u32::from(bank.index()));
    mc.registry().trace(obs::TraceKind::Recovery, t, bank, phys, fields, detail);
}

/// The majority-vote width currently in effect on this controller
/// under `policy` (always odd; the policy's starting width until the
/// ladder widens it).
pub fn vote_width(mc: &MemoryController, policy: &RecoveryPolicy) -> u8 {
    match mc.recovery().vote_width {
        0 => policy.vote_width,
        w => w,
    }
}

/// Records one voted read's outcome and escalates the vote width when
/// the disagreement rate over the current window crosses the widening
/// threshold. A no-op under a policy whose votes never widen.
pub(crate) fn note_vote(
    mc: &mut MemoryController,
    policy: &RecoveryPolicy,
    bank: Bank,
    row: RowAddr,
    disagreed: bool,
) {
    if policy.vote_width_max == policy.vote_width {
        return;
    }
    mc.recovery_mut().record_vote(disagreed);
    let ladder = *mc.recovery();
    let width = vote_width(mc, policy);
    if width >= policy.vote_width_max
        || ladder.voted_reads < VOTE_WINDOW_MIN
        || ladder.disagreements * VOTE_WIDEN_DEN <= ladder.voted_reads * VOTE_WIDEN_NUM
    {
        return;
    }
    let ladder = mc.recovery_mut();
    ladder.vote_width = width + 2;
    ladder.vote_widenings += 1;
    ladder.reset_vote_window();
    record(mc, RecoveryCounter::VoteWidenings, "vote_widen", bank, Some(row), &[]);
}

/// An ACT-budget circuit breaker for one pipeline phase.
///
/// The budget is charged against the device's activation counter, so it
/// bounds real command traffic, not wall-clock. A tripped budget
/// latches (like the Row Scout's scan budget): once exhausted, the
/// phase must close with whatever partial evidence it has.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PhaseBudget {
    acts_start: u64,
    max_acts: Option<u64>,
    tripped: bool,
}

impl PhaseBudget {
    /// A breaker allowing `max_acts` activations from now (`None` =
    /// unlimited, the fault-free shape).
    pub(crate) fn begin(mc: &MemoryController, max_acts: Option<u64>) -> PhaseBudget {
        PhaseBudget { acts_start: mc.module().activations(), max_acts, tripped: false }
    }

    /// Whether the budget is exhausted, latching and recording the trip
    /// (counter + trace event) the first time it is.
    pub fn exhausted(&mut self, mc: &mut MemoryController, bank: Bank) -> bool {
        if self.tripped {
            return true;
        }
        let Some(max) = self.max_acts else { return false };
        if mc.module().activations() - self.acts_start >= max {
            self.tripped = true;
            mc.recovery_mut().budget_trips += 1;
            record(mc, RecoveryCounter::BudgetTrips, "budget_trip", bank, None, &[]);
        }
        self.tripped
    }

    /// Whether the breaker has tripped.
    pub(crate) fn tripped(&self) -> bool {
        self.tripped
    }
}

/// Margin-failure count at one estimator level before escalating.
const REPROFILE_AFTER: u32 = 3;

/// Mid-run retention-drift re-profiler.
///
/// The Row Scout validates candidate groups against the margins of its
/// policy's first [`MarginLevel`]. Under hostile drift (±8%) the static
/// 1.05×/0.5× margins reject rows that are in fact usable — the decay
/// point wanders past the margins between measurements. The estimator
/// watches margin-type failures (`vrt-flap` and `retention-drift`
/// checks) and, after `REPROFILE_AFTER` (3) of them at the current level,
/// re-profiles to the next level, re-anchoring the validation envelope
/// to the drift actually observed mid-run. [`RecoveryPolicy::HOSTILE`]
/// has three levels:
///
/// | level | fail-by margin | hold-at margin |
/// |-------|----------------|----------------|
/// | 0     | 1.05× (21/20)  | 0.50× (1/2)    |
/// | 1     | 1.10× (11/10)  | 0.40× (2/5)    |
/// | 2     | 1.15× (23/20)  | 0.33× (1/3)    |
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct DriftEstimator {
    levels: &'static [MarginLevel],
    level: u8,
    failures_at_level: u32,
}

impl DriftEstimator {
    /// An estimator at level 0 of `levels` (a policy's
    /// [`RecoveryPolicy::scout_margins`]; at least one level).
    pub fn new(levels: &'static [MarginLevel]) -> DriftEstimator {
        DriftEstimator { levels, level: 0, failures_at_level: 0 }
    }

    /// The validation margins at the current level.
    pub(crate) fn margins(&self) -> MarginLevel {
        self.levels[usize::from(self.level)]
    }

    /// Records a margin-type validation failure; escalates (and
    /// records the re-profile) when the level's failure budget is
    /// spent and a further level exists. Returns whether an escalation
    /// happened.
    pub(crate) fn note_margin_failure(
        &mut self,
        mc: &mut MemoryController,
        bank: Bank,
        row: RowAddr,
    ) -> bool {
        if usize::from(self.level) + 1 >= self.levels.len() {
            return false;
        }
        self.failures_at_level += 1;
        if self.failures_at_level < REPROFILE_AFTER {
            return false;
        }
        self.level += 1;
        self.failures_at_level = 0;
        mc.recovery_mut().reprofiles += 1;
        record(mc, RecoveryCounter::Reprofiles, "reprofile", bank, Some(row), &[]);
        true
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use dram_sim::{DataPattern, Module, ModuleConfig, Nanos, RowReadout};

    const BANK: Bank = Bank::new(0);

    /// Deterministic injector: corrupts a different bit of each of the
    /// first `flip_reads` reads (so no two samples agree), drops the
    /// first `drop_writes` writes, and reports `severity`, which selects
    /// the controller's [`RecoveryPolicy`].
    #[derive(Debug, Default)]
    pub(crate) struct Scripted {
        pub(crate) flip_reads: u32,
        pub(crate) drop_writes: u32,
        pub(crate) severity: u8,
        pub(crate) reads: u32,
    }

    impl softmc::FaultInjector for Scripted {
        fn on_read(&mut self, _: Bank, _: RowAddr, readout: &mut RowReadout, _: Nanos) {
            self.reads += 1;
            if self.flip_reads > 0 {
                self.flip_reads -= 1;
                readout.inject_flip(self.reads % readout.row_bits());
            }
        }

        fn on_write(
            &mut self,
            _: Bank,
            _: RowAddr,
            _: &DataPattern,
            _: Nanos,
        ) -> softmc::WriteFault {
            if self.drop_writes == 0 {
                return softmc::WriteFault::None;
            }
            self.drop_writes -= 1;
            softmc::WriteFault::Dropped
        }

        fn on_tick(&mut self, _: Nanos, _: &mut Module) {}

        fn severity(&self) -> u8 {
            self.severity
        }
    }

    /// A small-test controller built from `seed` whose policy is that
    /// of `severity`, with a command-transparent injector (none at all
    /// for 0).
    pub(crate) fn controller_at(severity: u8, seed: u64) -> MemoryController {
        let mut mc = MemoryController::new(Module::new(ModuleConfig::small_test(), seed));
        if severity > 0 {
            mc.set_fault_injector(Some(Box::new(Scripted { severity, ..Scripted::default() })));
        }
        mc
    }

    #[test]
    fn policy_follows_the_fault_severity() {
        for (severity, policy) in [
            (0, RecoveryPolicy::IDENTITY),
            (1, RecoveryPolicy::MILD),
            (2, RecoveryPolicy::HOSTILE),
            (3, RecoveryPolicy::HOSTILE),
        ] {
            assert_eq!(RecoveryPolicy::of(&controller_at(severity, 7)), policy, "{severity}");
        }
    }

    #[test]
    fn tier_degrades_and_merges_in_order() {
        let mut tier = VerdictTier::Confirmed;
        assert!(tier.is_confirmed());
        assert_eq!(tier.label(), "confirmed");
        tier.degrade("schedule");
        tier.degrade("act-budget");
        tier.degrade("schedule");
        assert_eq!(tier.reasons_string(), "schedule+act-budget");
        assert_eq!(tier.code(), 1);

        let mut other = VerdictTier::Confirmed;
        other.merge(&tier);
        assert_eq!(other, tier);
        other.merge(&VerdictTier::Inconclusive);
        assert_eq!(other, VerdictTier::Inconclusive);
        other.degrade("late");
        assert_eq!(other, VerdictTier::Inconclusive, "inconclusive is terminal");
    }

    #[test]
    fn tier_wire_form_round_trips() {
        for tier in [
            VerdictTier::Confirmed,
            VerdictTier::Degraded { reasons: vec!["scout-shortfall".into(), "hc-cap".into()] },
            VerdictTier::Inconclusive,
        ] {
            let back = VerdictTier::from_wire(tier.label(), &tier.reasons_string());
            assert_eq!(back, tier);
        }
        // Pre-tier streams (absent field) read as confirmed.
        assert_eq!(VerdictTier::from_wire("", ""), VerdictTier::Confirmed);
    }

    #[test]
    fn vote_width_widens_on_sustained_disagreement() {
        let mut mc = controller_at(0, 7);
        let policy = RecoveryPolicy::HOSTILE;
        assert_eq!(vote_width(&mc, &policy), 3);
        // Below the window minimum nothing happens, whatever the rate.
        for _ in 0..VOTE_WINDOW_MIN - 1 {
            note_vote(&mut mc, &policy, BANK, RowAddr::new(1), true);
        }
        assert_eq!(vote_width(&mc, &policy), 3);
        note_vote(&mut mc, &policy, BANK, RowAddr::new(1), true);
        assert_eq!(vote_width(&mc, &policy), 5, "sustained disagreement widens the vote");
        assert_eq!(mc.recovery().vote_widenings, 1);
        assert_eq!(mc.recovery().voted_reads, 0, "window resets after widening");
        // Escalate once more, then saturate at 7.
        for _ in 0..VOTE_WINDOW_MIN + 1 {
            note_vote(&mut mc, &policy, BANK, RowAddr::new(1), true);
        }
        assert_eq!(vote_width(&mc, &policy), 7);
        for _ in 0..VOTE_WINDOW_MIN + 1 {
            note_vote(&mut mc, &policy, BANK, RowAddr::new(1), true);
        }
        assert_eq!(vote_width(&mc, &policy), 7, "the ladder saturates at 7");
        assert_eq!(mc.registry().counter(CTR_VOTE_WIDENINGS).get(), 2);
    }

    #[test]
    fn low_disagreement_rates_never_widen() {
        let mut mc = controller_at(0, 7);
        let policy = RecoveryPolicy::HOSTILE;
        for i in 0..400u32 {
            // 1 disagreement per 10 voted reads (at the end of each run
            // of 10, so no prefix of the window ever exceeds the 1/8
            // threshold either).
            note_vote(&mut mc, &policy, BANK, RowAddr::new(1), i % 10 == 9);
        }
        assert_eq!(vote_width(&mc, &policy), 3);
        assert_eq!(mc.recovery().vote_widenings, 0);
        // A policy whose votes never widen does not tally them either.
        let tallied = *mc.recovery();
        for _ in 0..400u32 {
            note_vote(&mut mc, &RecoveryPolicy::MILD, BANK, RowAddr::new(1), true);
        }
        assert_eq!(*mc.recovery(), tallied);
    }

    #[test]
    fn phase_budget_trips_once_and_latches() {
        let mut mc = controller_at(0, 7);
        let mut unlimited = PhaseBudget::begin(&mc, None);
        assert!(!unlimited.exhausted(&mut mc, BANK));

        let mut budget = PhaseBudget::begin(&mc, Some(10));
        assert!(!budget.exhausted(&mut mc, BANK));
        mc.module_mut().hammer(BANK, RowAddr::new(3), 12).unwrap();
        assert!(budget.exhausted(&mut mc, BANK));
        assert!(budget.exhausted(&mut mc, BANK), "latched");
        assert_eq!(mc.recovery().budget_trips, 1, "recorded once, not per poll");
        assert_eq!(mc.registry().counter(CTR_BUDGET_TRIPS).get(), 1);
    }

    #[test]
    fn drift_estimator_escalates_after_repeated_margin_failures() {
        let mut mc = controller_at(0, 7);
        let mut est = DriftEstimator::new(RecoveryPolicy::HOSTILE.scout_margins);
        assert_eq!(est.margins(), ((21, 20), (1, 2)));
        let mut escalations = 0;
        for _ in 0..20 {
            if est.note_margin_failure(&mut mc, BANK, RowAddr::new(9)) {
                escalations += 1;
            }
        }
        assert_eq!(escalations, 2, "two levels, then saturation");
        assert_eq!(est.level, 2);
        assert_eq!(est.margins(), ((23, 20), (1, 3)));
        assert_eq!(mc.recovery().reprofiles, 2);
        assert_eq!(mc.registry().counter(CTR_REPROFILES).get(), 2);

        // A single-level policy never escalates.
        let mut est = DriftEstimator::new(RecoveryPolicy::MILD.scout_margins);
        for _ in 0..20 {
            assert!(!est.note_margin_failure(&mut mc, BANK, RowAddr::new(9)));
        }
        assert_eq!(est.level, 0);
    }
}
