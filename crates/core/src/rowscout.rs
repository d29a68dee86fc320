//! Row Scout (RS): the retention-time profiler (§4 of the paper).
//!
//! RS finds *row groups* — sets of rows in a prescribed physical layout
//! whose retention times fall in the same bucket — and validates that
//! each row's retention time is consistent (filtering out rows afflicted
//! by Variable Retention Time, which would corrupt the TRR Analyzer's
//! refresh inference).
//!
//! The implementation follows Fig. 6 of the paper:
//!
//! 1. scan the configured row range for rows that fail within `T` but
//!    hold comfortably at `T/2` (the half-margin is what lets TRR-A split
//!    the decay window around the hammer phase);
//! 2. assemble candidate groups matching the requested
//!    [`RowGroupLayout`];
//! 3. if too few candidates, increase `T` and start over;
//! 4. validate every row of every candidate group `consistency_checks`
//!    times (the paper uses 1000) — VRT rows flunk;
//! 5. return the validated groups.
//!
//! On top of the paper's loop, the scout is hardened against transient
//! device faults (see the `faults` crate): reads are majority-voted and
//! writes verified, failed validation checks get a bounded retry, rows
//! that keep misbehaving land on a quarantine list with a recorded
//! [`QuarantineReason`], and the scan assembles a partial
//! [`ScoutReport`] instead of an opaque error when it cannot complete.
//! How much of that runs is the controller's [`RecoveryPolicy`]; under
//! [`RecoveryPolicy::IDENTITY`] a scan issues exactly the command
//! sequence of the paper's loop.

use std::collections::BTreeMap;

use dram_sim::{Bank, DataPattern, Nanos, PhysRow, RowAddr};
use softmc::MemoryController;

use crate::arena;
use crate::error::UtrrError;
use crate::layout::RowGroupLayout;
use crate::recovery::{self, DriftEstimator, RecoveryCounter, RecoveryPolicy, VerdictTier};
use crate::robust;

/// Counter: validation checks retried by the scout (fault-aware mode).
pub const CTR_SCOUT_RETRIES: &str = "utrr.rowscout.retries";
/// Counter: rows quarantined by the scout.
pub const CTR_SCOUT_QUARANTINED: &str = "utrr.rowscout.quarantined";

/// SplitMix64 mixing step — the deterministic seeded search behind
/// window relocation (self-contained so the core crate stays free of a
/// faults-crate dependency).
fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Deterministic relocation seed derived purely from the profiling
/// configuration, so relocated windows are identical at any thread
/// count and across resumed runs.
fn relocation_seed(cfg: &ScoutConfig) -> u64 {
    let geometry = (u64::from(cfg.row_start) << 32)
        | u64::from(cfg.row_end) ^ (u64::from(cfg.bank.index()) << 56);
    mix64(geometry ^ (cfg.group_count as u64).rotate_left(17))
}

/// Whether `candidate` shares any physical row with an already-accepted
/// group (including the one-row guard band the scan keeps between
/// groups).
fn overlaps_any(groups: &[ProfiledRowGroup], candidate: &ProfiledRowGroup, span: u32) -> bool {
    let base = candidate.base.index();
    groups.iter().any(|g| {
        let other = g.base.index();
        base <= other + span + 1 && other <= base + span + 1
    })
}

/// Profiling configuration (the "Profiling Config" box of Fig. 3).
#[derive(Debug, Clone, PartialEq)]
pub struct ScoutConfig {
    /// Bank to profile.
    pub bank: Bank,
    /// Physical row range `[start, end)` to search.
    pub row_start: u32,
    /// End of the physical row range (exclusive).
    pub row_end: u32,
    /// Requested group layout.
    pub layout: RowGroupLayout,
    /// Number of validated groups to find.
    pub group_count: usize,
    /// Initial retention interval `T` (paper: e.g. 100 ms).
    pub initial_retention: Nanos,
    /// `T` increment per outer iteration (paper: e.g. 50 ms).
    pub retention_step: Nanos,
    /// Give up once `T` exceeds this.
    pub max_retention: Nanos,
    /// Validation repetitions per row (paper: 1000).
    pub consistency_checks: u32,
    /// Data pattern used for profiling; TRR-A must reuse it.
    pub pattern: DataPattern,
    /// Optional row-activation budget for the whole scan: once the
    /// module's cumulative ACT count has grown by this much, the scan
    /// stops early and the scan reports whatever was
    /// found so far (graceful degradation instead of unbounded retries).
    /// `None` leaves the budget to the controller's
    /// [`RecoveryPolicy::scout_act_budget`].
    pub max_acts: Option<u64>,
}

impl ScoutConfig {
    /// A reasonable default configuration over the first `row_end`
    /// physical rows of a bank.
    pub fn new(bank: Bank, row_end: u32, layout: RowGroupLayout, group_count: usize) -> Self {
        ScoutConfig {
            bank,
            row_start: 0,
            row_end,
            layout,
            group_count,
            initial_retention: Nanos::from_ms(100),
            retention_step: Nanos::from_ms(50),
            max_retention: Nanos::from_ms(6_000),
            consistency_checks: 100,
            pattern: DataPattern::Ones,
            max_acts: None,
        }
    }
}

/// One retention-profiled row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProfiledRow {
    /// Logical address (what the controller issues).
    pub row: RowAddr,
    /// Physical position (what adjacency is computed in).
    pub phys: PhysRow,
}

/// A validated row group: profiled rows plus the aggressor positions of
/// the layout, all sharing the retention bucket `retention`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProfiledRowGroup {
    /// The retention-profiled rows, in layout order.
    pub rows: Vec<ProfiledRow>,
    /// Logical addresses of the layout's aggressor positions.
    pub aggressors: Vec<RowAddr>,
    /// The retention bucket: every row holds at `retention / 2` and
    /// fails at `retention` when unrefreshed.
    pub retention: Nanos,
    /// Physical position of the group base (layout offset 0).
    pub base: PhysRow,
    /// The pattern the rows were profiled with.
    pub pattern: DataPattern,
}

impl ProfiledRowGroup {
    /// Logical addresses of the profiled rows.
    pub(crate) fn victim_rows(&self) -> Vec<RowAddr> {
        self.rows.iter().map(|r| r.row).collect()
    }
}

/// Why Row Scout gave up on a candidate row (mirroring the paper's VRT
/// filtering, plus the failure modes transient device faults add).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum QuarantineReason {
    /// The row read clean after the full retention interval during
    /// validation — its failure vanished, the signature VRT flap.
    VrtFlap,
    /// The row failed before the 0.55 T early margin — its effective
    /// retention drifted below the bucket.
    RetentionDrift,
    /// The row's contents could not be written reliably even with
    /// verified-write retries.
    WriteUnstable,
    /// The row failed with a different bit set across repeated checks at
    /// the same horizon — a VRT cell toggling inside (or probed above)
    /// the bucket.
    UnstableFlips,
}

impl std::fmt::Display for QuarantineReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            QuarantineReason::VrtFlap => "vrt-flap",
            QuarantineReason::RetentionDrift => "retention-drift",
            QuarantineReason::WriteUnstable => "write-unstable",
            QuarantineReason::UnstableFlips => "unstable-flips",
        })
    }
}

/// Diagnostics for one quarantined row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct RowDiagnostics {
    /// Logical address of the quarantined row.
    pub row: RowAddr,
    /// Physical position of the quarantined row.
    pub phys: PhysRow,
    /// Why the row was given up on.
    pub reason: QuarantineReason,
    /// Validation retries spent on the row's group before giving up.
    pub retries: u32,
}

/// The full outcome of a scan: validated groups plus everything the
/// scout had to give up on — a partial result with diagnostics instead
/// of an opaque error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct ScoutReport {
    /// Validated groups from the best retention pass (at most
    /// `requested`).
    pub groups: Vec<ProfiledRowGroup>,
    /// Groups the configuration asked for.
    pub requested: usize,
    /// Rows that failed validation, with the reason, in physical-row
    /// order (first recorded reason wins when a row fails repeatedly).
    pub quarantined: Vec<RowDiagnostics>,
    /// Validation checks that were retried (fault-aware mode only).
    pub retries: u64,
    /// Whether the [`ScoutConfig::max_acts`] budget stopped the scan.
    pub budget_exhausted: bool,
    /// Row activations the scan consumed.
    pub acts_used: u64,
}

/// Mutable bookkeeping threaded through one scan.
struct ScanState {
    acts_start: u64,
    max_acts: Option<u64>,
    budget_exhausted: bool,
    retries: u64,
    quarantined: BTreeMap<u32, RowDiagnostics>,
    /// Drift-adaptive validation margins.
    drift: DriftEstimator,
    /// Retries allowed per failed validation check.
    max_retries: u32,
    /// Whether quarantined rows are skipped and failure signatures
    /// tracked (the policy's scout filter).
    filter: bool,
}

impl ScanState {
    fn new(mc: &MemoryController, cfg: &ScoutConfig, drift: DriftEstimator) -> Self {
        let policy = RecoveryPolicy::of(mc);
        ScanState {
            acts_start: mc.module().activations(),
            max_acts: cfg.max_acts.or(policy.scout_act_budget),
            budget_exhausted: false,
            retries: 0,
            quarantined: BTreeMap::new(),
            drift,
            max_retries: policy.scout_retries,
            filter: policy.scout_filter,
        }
    }

    /// Checks (and latches) the ACT budget. Issues no device commands,
    /// so with no budget configured the scan's traffic is untouched.
    fn budget_spent(&mut self, mc: &MemoryController) -> bool {
        if self.budget_exhausted {
            return true;
        }
        if let Some(max) = self.max_acts {
            if mc.module().activations() - self.acts_start >= max {
                self.budget_exhausted = true;
            }
        }
        self.budget_exhausted
    }

    fn note_quarantine(&mut self, diag: RowDiagnostics) {
        self.quarantined.entry(diag.phys.index()).or_insert(diag);
    }

    fn is_quarantined(&self, phys: u32) -> bool {
        self.quarantined.contains_key(&phys)
    }
}

/// Row Scout: see the [module docs](self).
///
/// # Example
///
/// ```no_run
/// use dram_sim::{Bank, Module, ModuleConfig};
/// use softmc::MemoryController;
/// use utrr_core::{RowScout, ScoutConfig, RowGroupLayout};
///
/// # fn main() -> Result<(), utrr_core::UtrrError> {
/// let mut mc = MemoryController::new(Module::new(ModuleConfig::small_test(), 1));
/// let config = ScoutConfig::new(
///     Bank::new(0), 1024, RowGroupLayout::single_aggressor_pair(), 2);
/// let groups = RowScout::new(config).scan(&mut mc)?;
/// assert_eq!(groups.len(), 2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct RowScout {
    config: ScoutConfig,
}

impl RowScout {
    /// Creates a scout for the given profiling configuration.
    pub fn new(config: ScoutConfig) -> Self {
        RowScout { config }
    }

    /// The profiling configuration.
    pub fn config(&self) -> &ScoutConfig {
        &self.config
    }

    /// Runs the Fig. 6 loop and returns `group_count` validated groups.
    ///
    /// The whole scan runs under a `utrr.rowscout.scan` span, with one
    /// `utrr.rowscout.pass` child span per retention interval tried; the
    /// `utrr.rowscout.groups_found` counter records validated groups.
    /// This is [`RowScout::scan_recover`] without the verdict tier.
    ///
    /// # Errors
    ///
    /// [`UtrrError::NotEnoughRowGroups`] if the retention ceiling (or
    /// the configured ACT budget) is reached first; device errors are
    /// propagated.
    pub fn scan(&self, mc: &mut MemoryController) -> Result<Vec<ProfiledRowGroup>, UtrrError> {
        self.scan_recover(mc).map(|(groups, _)| groups)
    }

    /// Runs the Fig. 6 loop under the controller's [`RecoveryPolicy`]
    /// and returns whatever profile evidence could be assembled, tiered:
    ///
    /// * a complete scan is `Confirmed` (relocations and re-profiles
    ///   along the way don't degrade the tier — the evidence is whole);
    /// * an incomplete scan relocates the window to fresh subarray
    ///   regions via a deterministic seeded search (up to
    ///   [`RecoveryPolicy::relocations`] shifts, each recorded on the
    ///   ladder);
    /// * a scan still short is an error, unless the policy is
    ///   [`RecoveryPolicy::tiered`] and found at least one group: then
    ///   the partial groups come back `Degraded { scout-shortfall }`
    ///   (plus `act-budget` when the ACT budget stopped a pass).
    ///
    /// The [`DriftEstimator`] persists across relocation attempts, so
    /// margin escalations learned in one window carry into the next.
    /// Below hostile severity no window relocates and no tier degrades.
    ///
    /// # Errors
    ///
    /// [`UtrrError::NotEnoughRowGroups`] when the scan comes up short
    /// (under a tiered policy: only when no group at all validated);
    /// device errors are propagated.
    pub fn scan_recover(
        &self,
        mc: &mut MemoryController,
    ) -> Result<(Vec<ProfiledRowGroup>, VerdictTier), UtrrError> {
        let cfg = &self.config;
        let policy = RecoveryPolicy::of(mc);
        let mut drift = DriftEstimator::new(policy.scout_margins);
        let report = self.scan_report(mc, &mut drift)?;
        let mut budget_hit = report.budget_exhausted;
        let mut groups = report.groups;
        let span = cfg.layout.span();
        let range = cfg.row_end.saturating_sub(cfg.row_start);
        let mut seed = relocation_seed(cfg);
        for _ in 0..policy.relocations {
            if groups.len() >= cfg.group_count {
                break;
            }
            seed = mix64(seed);
            let slack = range.saturating_sub(span + 1).max(1);
            let mut sub_cfg = cfg.clone();
            sub_cfg.row_start = cfg.row_start + (seed % u64::from(slack)) as u32;
            sub_cfg.group_count = cfg.group_count - groups.len();
            mc.recovery_mut().relocations += 1;
            recovery::record(mc, RecoveryCounter::Relocations, "relocate", cfg.bank, None, &[]);
            let sub = RowScout::new(sub_cfg).scan_report(mc, &mut drift)?;
            budget_hit |= sub.budget_exhausted;
            for group in sub.groups {
                if !overlaps_any(&groups, &group, span) {
                    groups.push(group);
                }
            }
        }
        groups.truncate(cfg.group_count);
        if groups.len() >= cfg.group_count {
            return Ok((groups, VerdictTier::Confirmed));
        }
        if groups.is_empty() || !policy.tiered {
            return Err(UtrrError::NotEnoughRowGroups {
                found: groups.len(),
                needed: cfg.group_count,
                max_retention: cfg.max_retention,
            });
        }
        let mut tier = VerdictTier::Confirmed;
        tier.degrade("scout-shortfall");
        if budget_hit {
            tier.degrade("act-budget");
        }
        Ok((groups, tier))
    }

    /// Runs the Fig. 6 loop and returns a [`ScoutReport`]: the groups
    /// that validated plus quarantine diagnostics, retry counts, and
    /// budget state — a partial result where [`RowScout::scan`] would
    /// return an opaque error. The drift-margin state is the caller's,
    /// so [`RowScout::scan_recover`] keeps escalated margins across
    /// relocated windows.
    ///
    /// # Errors
    ///
    /// Device errors are propagated; an incomplete scan is *not* an
    /// error here.
    fn scan_report(
        &self,
        mc: &mut MemoryController,
        drift: &mut DriftEstimator,
    ) -> Result<ScoutReport, UtrrError> {
        let registry = std::sync::Arc::clone(mc.registry());
        let span = obs::span!(
            registry,
            "utrr.rowscout.scan",
            mc.now().as_ns(),
            rows = (self.config.row_end - self.config.row_start) as u64,
            groups_wanted = self.config.group_count as u64
        );
        let result = self.scan_report_inner(mc, drift);
        if let Ok(report) = &result {
            registry.counter("utrr.rowscout.groups_found").add(report.groups.len() as u64);
            registry.counter(CTR_SCOUT_QUARANTINED).add(report.quarantined.len() as u64);
            registry.counter(CTR_SCOUT_RETRIES).add(report.retries);
        }
        span.finish(mc.now().as_ns());
        result
    }

    fn scan_report_inner(
        &self,
        mc: &mut MemoryController,
        drift: &mut DriftEstimator,
    ) -> Result<ScoutReport, UtrrError> {
        let cfg = &self.config;
        let mut state = ScanState::new(mc, cfg, *drift);
        let mut best: Vec<ProfiledRowGroup> = Vec::new();
        let mut retention = cfg.initial_retention;
        while retention <= cfg.max_retention && !state.budget_spent(mc) {
            let registry = std::sync::Arc::clone(mc.registry());
            let pass = obs::span!(
                registry,
                "utrr.rowscout.pass",
                mc.now().as_ns(),
                retention_ms = retention.as_ns() / 1_000_000
            );
            let groups = self.scan_at(mc, retention, &mut state);
            pass.finish(mc.now().as_ns());
            let groups = groups?;
            if groups.len() > best.len() {
                best = groups;
            }
            if best.len() >= cfg.group_count {
                break;
            }
            retention += cfg.retention_step;
        }
        *drift = state.drift;
        Ok(ScoutReport {
            groups: best,
            requested: cfg.group_count,
            quarantined: state.quarantined.into_values().collect(),
            retries: state.retries,
            budget_exhausted: state.budget_exhausted,
            acts_used: mc.module().activations() - state.acts_start,
        })
    }

    /// One outer iteration at a fixed `T`: bucket scan, candidate
    /// assembly, validation.
    fn scan_at(
        &self,
        mc: &mut MemoryController,
        retention: Nanos,
        state: &mut ScanState,
    ) -> Result<Vec<ProfiledRowGroup>, UtrrError> {
        let cfg = &self.config;
        // Rows failing within T…
        let mut bucket = arena::take_bools();
        self.failing_rows(mc, retention, &mut bucket)?;
        // …minus rows that fail too early (before they could survive the
        // first half-window of a TRR-A experiment; footnote 4): folded
        // into the same buffer, so a scan pass allocates nothing once the
        // thread's scratch pool is warm.
        let mut fail_early = arena::take_bools();
        self.failing_rows(mc, retention * 55 / 100, &mut fail_early)?;
        for (late, &early) in bucket.iter_mut().zip(&fail_early) {
            *late = *late && !early;
        }
        arena::recycle_bools(fail_early);

        let mut groups = Vec::new();
        let mut base = cfg.row_start;
        let span = cfg.layout.span();
        while base + span <= cfg.row_end && groups.len() < cfg.group_count {
            if state.budget_spent(mc) {
                break;
            }
            let in_bucket = cfg
                .layout
                .profiled()
                .iter()
                .all(|&off| bucket[(base + off - cfg.row_start) as usize]);
            // Skipping known-bad rows changes which candidates get
            // probed, so it only kicks in under the scout filter — a
            // plain scan's command stream stays untouched.
            let quarantined = state.filter
                && cfg.layout.profiled().iter().any(|&off| state.is_quarantined(base + off));
            if in_bucket && !quarantined {
                let group = self.assemble_group(mc, base, retention);
                match self.validate_group(mc, &group, state)? {
                    None => {
                        // Skip past this group (plus a guard row) so groups
                        // never overlap.
                        base += span + 1;
                        groups.push(group);
                        continue;
                    }
                    Some(diag) => state.note_quarantine(diag),
                }
            }
            base += 1;
        }
        arena::recycle_bools(bucket);
        Ok(groups)
    }

    /// Writes the pattern to the whole range, decays it for `wait`, and
    /// fills `failed` with per-row failure flags (cleared first, so a
    /// recycled scratch buffer can be passed directly).
    fn failing_rows(
        &self,
        mc: &mut MemoryController,
        wait: Nanos,
        failed: &mut Vec<bool>,
    ) -> Result<(), UtrrError> {
        let cfg = &self.config;
        for phys in cfg.row_start..cfg.row_end {
            let row = mc.module().logical_of(PhysRow::new(phys));
            mc.write_row(cfg.bank, row, cfg.pattern.clone())?;
        }
        mc.wait_no_refresh(wait);
        failed.clear();
        failed.reserve((cfg.row_end - cfg.row_start) as usize);
        for phys in cfg.row_start..cfg.row_end {
            let row = mc.module().logical_of(PhysRow::new(phys));
            failed.push(!mc.read_row(cfg.bank, row)?.is_clean());
        }
        Ok(())
    }

    fn assemble_group(
        &self,
        mc: &MemoryController,
        base: u32,
        retention: Nanos,
    ) -> ProfiledRowGroup {
        let cfg = &self.config;
        let rows = cfg
            .layout
            .profiled()
            .iter()
            .map(|&off| {
                let phys = PhysRow::new(base + off);
                ProfiledRow { row: mc.module().logical_of(phys), phys }
            })
            .collect();
        let aggressors = cfg
            .layout
            .aggressors()
            .iter()
            .map(|&off| mc.module().logical_of(PhysRow::new(base + off)))
            .collect();
        ProfiledRowGroup {
            rows,
            aggressors,
            retention,
            base: PhysRow::new(base),
            pattern: cfg.pattern.clone(),
        }
    }

    /// Paper: "RS validates the retention time of a row one thousand
    /// times to ensure its consistency over time." Each check verifies
    /// both sides of the bucket: the row must fail after `T` and hold
    /// after `0.55 T`. Returns `None` when the group is valid, or the
    /// diagnostics of the first offending row.
    ///
    /// A failed check is retried up to the policy's
    /// [`RecoveryPolicy::scout_retries`] before the row is quarantined,
    /// because a single injected fault can mimic every quarantine
    /// signature; fault-free, the first failure is final.
    fn validate_group(
        &self,
        mc: &mut MemoryController,
        group: &ProfiledRowGroup,
        state: &mut ScanState,
    ) -> Result<Option<RowDiagnostics>, UtrrError> {
        let mut signatures: Vec<Option<Vec<u32>>> = vec![None; group.rows.len()];
        let result = self.validate_group_inner(mc, group, state, &mut signatures);
        for sig in signatures.into_iter().flatten() {
            arena::recycle_u32(sig);
        }
        result
    }

    fn validate_group_inner(
        &self,
        mc: &mut MemoryController,
        group: &ProfiledRowGroup,
        state: &mut ScanState,
        signatures: &mut [Option<Vec<u32>>],
    ) -> Result<Option<RowDiagnostics>, UtrrError> {
        let cfg = &self.config;
        let mut retries_spent = 0u32;
        for _ in 0..cfg.consistency_checks {
            for must_fail in [true, false] {
                let mut attempt = 0u32;
                loop {
                    let failure =
                        self.check(mc, group, must_fail, state.filter, signatures, state.drift)?;
                    let Some((profiled, reason)) = failure else { break };
                    if matches!(
                        reason,
                        QuarantineReason::VrtFlap | QuarantineReason::RetentionDrift
                    ) {
                        state.drift.note_margin_failure(mc, cfg.bank, profiled.row);
                    }
                    if attempt < state.max_retries && reason != QuarantineReason::WriteUnstable {
                        attempt += 1;
                        retries_spent += 1;
                        state.retries += 1;
                        self.trace_retry(mc, &profiled, reason, attempt);
                        continue;
                    }
                    return Ok(Some(RowDiagnostics {
                        row: profiled.row,
                        phys: profiled.phys,
                        reason,
                        retries: retries_spent,
                    }));
                }
            }
        }
        Ok(None)
    }

    /// Flight-recorder event for one retried validation check.
    fn trace_retry(
        &self,
        mc: &MemoryController,
        profiled: &ProfiledRow,
        reason: QuarantineReason,
        attempt: u32,
    ) {
        mc.registry().trace(
            obs::TraceKind::ScoutRetry,
            mc.now().as_ns(),
            u32::from(self.config.bank.index()),
            Some(profiled.phys.index()),
            &[("attempt", u64::from(attempt))],
            &reason.to_string(),
        );
    }

    /// One validation check: after the drift estimator's fail-by margin
    /// every row must have failed (`must_fail`), or after its hold-at
    /// margin every row must still read clean. With `track_flips`, a
    /// failing row's *signature* (the exact flipped-bit set) must also
    /// repeat across checks: a VRT cell toggling inside the bucket
    /// changes the signature even while the row keeps failing.
    ///
    /// Fault-free the margins are exactly `T` and `0.55 T`. On a faulty
    /// substrate they are 1.05 `T` and 0.5 `T` at drift level 0 —
    /// headroom past the injected retention-drift amplitude, so a row
    /// profiled right at `T` still fails when the environment runs a
    /// couple of percent "cold", and a row just above `0.55 T` is not
    /// condemned as drifting when it runs "hot" — and widen as the
    /// [`DriftEstimator`] escalates under hostile drift. VRT swings are
    /// ~3×, far outside any margin level, so the flap detection keeps
    /// its teeth.
    fn check(
        &self,
        mc: &mut MemoryController,
        group: &ProfiledRowGroup,
        must_fail: bool,
        track_flips: bool,
        signatures: &mut [Option<Vec<u32>>],
        drift: DriftEstimator,
    ) -> Result<Option<(ProfiledRow, QuarantineReason)>, UtrrError> {
        let cfg = &self.config;
        for profiled in &group.rows {
            if !robust::write_row_checked(mc, cfg.bank, profiled.row, &cfg.pattern)? {
                return Ok(Some((*profiled, QuarantineReason::WriteUnstable)));
            }
        }
        let (wait, hold) = drift.margins();
        let (num, den) = if must_fail { wait } else { hold };
        mc.wait_no_refresh(group.retention * num / den);
        for (i, profiled) in group.rows.iter().enumerate() {
            let readout = robust::read_row_voted(mc, cfg.bank, profiled.row)?;
            if readout.is_clean() == must_fail {
                let reason = if must_fail {
                    QuarantineReason::VrtFlap
                } else {
                    QuarantineReason::RetentionDrift
                };
                return Ok(Some((*profiled, reason)));
            }
            if must_fail && track_flips {
                // Compare against the recorded signature in place; a
                // buffer is taken from the scratch pool only the first
                // time a row's signature is seen.
                match &signatures[i] {
                    Some(prev) if prev.as_slice() != readout.flipped_bits() => {
                        return Ok(Some((*profiled, QuarantineReason::UnstableFlips)));
                    }
                    Some(_) => {}
                    None => {
                        let mut sig = arena::take_u32();
                        sig.extend_from_slice(readout.flipped_bits());
                        signatures[i] = Some(sig);
                    }
                }
            }
        }
        Ok(None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dram_sim::{Module, ModuleConfig, RowMapping};

    fn controller(seed: u64) -> MemoryController {
        MemoryController::new(Module::new(ModuleConfig::small_test(), seed))
    }

    fn report(scout: &RowScout, mc: &mut MemoryController) -> ScoutReport {
        let mut drift = DriftEstimator::new(RecoveryPolicy::of(mc).scout_margins);
        scout.scan_report(mc, &mut drift).unwrap()
    }

    fn scout(layout: &str, count: usize) -> RowScout {
        let layout: RowGroupLayout = layout.parse().unwrap();
        RowScout::new(ScoutConfig::new(Bank::new(0), 1024, layout, count))
    }

    #[test]
    fn finds_single_aggressor_pairs() {
        let mut mc = controller(11);
        let groups = scout("RAR", 3).scan(&mut mc).unwrap();
        assert_eq!(groups.len(), 3);
        for g in &groups {
            assert_eq!(g.rows.len(), 2);
            assert_eq!(g.aggressors.len(), 1);
            // Layout geometry: profiled rows two apart, aggressor between.
            assert_eq!(g.rows[1].phys.index() - g.rows[0].phys.index(), 2);
        }
    }

    #[test]
    fn groups_do_not_overlap() {
        let mut mc = controller(11);
        let groups = scout("RAR", 4).scan(&mut mc).unwrap();
        for w in groups.windows(2) {
            assert!(w[1].base.index() >= w[0].base.index() + 4);
        }
    }

    #[test]
    fn profiled_rows_fail_at_t_and_hold_at_half_t() {
        let mut mc = controller(13);
        let groups = scout("RAR", 2).scan(&mut mc).unwrap();
        for g in &groups {
            for p in &g.rows {
                mc.write_row(g.pattern_bank(), p.row, g.pattern.clone()).unwrap();
                mc.wait_no_refresh(g.retention);
                assert!(!mc.read_row(g.pattern_bank(), p.row).unwrap().is_clean());
                mc.write_row(g.pattern_bank(), p.row, g.pattern.clone()).unwrap();
                mc.wait_no_refresh(g.retention / 2);
                assert!(mc.read_row(g.pattern_bank(), p.row).unwrap().is_clean());
            }
        }
    }

    #[test]
    fn validated_rows_have_stable_binding_retention() {
        // What validation must guarantee is not "no VRT cell anywhere"
        // but that the row's observable behaviour is state-independent:
        // a *stable* cell fails inside the bucket, and no cell (in any
        // VRT state) can fail before the early-check margin.
        let mut mc = controller(17);
        let groups = scout("RAR", 3).scan(&mut mc).unwrap();
        for g in &groups {
            let t = g.retention;
            for p in &g.rows {
                let view = mc.module_mut().inspect_row(Bank::new(0), p.row);
                let stable_binds = view.weak_cells.iter().any(|&(_, r, vrt)| !vrt && r < t);
                assert!(stable_binds, "a non-VRT cell must guarantee failure at T");
                let early_margin = t * 55 / 100;
                let none_early = view.weak_cells.iter().all(|&(_, r, _)| r > early_margin);
                assert!(none_early, "no cell may fail before the early margin");
            }
        }
    }

    #[test]
    fn respects_scrambled_mappings() {
        let mut config = ModuleConfig::small_test();
        config.mapping = RowMapping::block_mirror(3);
        let mut mc = MemoryController::new(Module::new(config, 19));
        let groups = scout("RAR", 2).scan(&mut mc).unwrap();
        for g in &groups {
            // Physical geometry must hold even though logical addresses
            // are scrambled.
            assert_eq!(g.rows[1].phys.index() - g.rows[0].phys.index(), 2);
            let phys_of = |r| mc.module().phys_of(r).index();
            assert_eq!(phys_of(g.rows[0].row), g.rows[0].phys.index());
            assert_eq!(phys_of(g.aggressors[0]), g.base.index() + 1);
        }
    }

    #[test]
    fn errors_when_range_cannot_satisfy_request() {
        let mut mc = controller(11);
        let layout: RowGroupLayout = "RARRRRAR".parse().unwrap();
        let mut cfg = ScoutConfig::new(Bank::new(0), 64, layout, 50);
        cfg.max_retention = Nanos::from_ms(400);
        let err = RowScout::new(cfg).scan(&mut mc).unwrap_err();
        assert!(matches!(err, UtrrError::NotEnoughRowGroups { needed: 50, .. }));
    }

    #[test]
    fn larger_probe_layouts_are_findable() {
        let mut mc = controller(23);
        let groups = scout("RRARR", 1).scan(&mut mc).unwrap();
        assert_eq!(groups.len(), 1);
        assert_eq!(groups[0].rows.len(), 4);
    }

    #[test]
    fn scan_report_matches_scan_on_success() {
        let mut mc = controller(11);
        let groups = scout("RAR", 3).scan(&mut mc).unwrap();
        let mut mc = controller(11);
        let report = report(&scout("RAR", 3), &mut mc);
        assert_eq!(report.requested, 3);
        assert_eq!(report.groups, groups);
        assert!(!report.budget_exhausted);
        assert!(report.acts_used > 0);
        // Fault-free there are no verified writes, so no retries, and
        // the only possible quarantine reasons are the paper's two
        // validation failure modes.
        assert_eq!(report.retries, 0);
        for diag in &report.quarantined {
            assert!(
                matches!(diag.reason, QuarantineReason::VrtFlap | QuarantineReason::RetentionDrift),
                "{diag:?}"
            );
            assert_eq!(diag.retries, 0);
        }
    }

    #[test]
    fn act_budget_degrades_gracefully() {
        let mut mc = controller(11);
        let mut cfg =
            ScoutConfig::new(Bank::new(0), 1024, RowGroupLayout::single_aggressor_pair(), 64);
        cfg.max_acts = Some(10_000);
        let report = report(&RowScout::new(cfg.clone()), &mut mc);
        assert!(report.budget_exhausted);
        assert!(report.groups.len() < report.requested);
        // scan() over the same exhausted budget surfaces the classic error.
        let mut mc = controller(11);
        let err = RowScout::new(cfg).scan(&mut mc).unwrap_err();
        assert!(matches!(err, UtrrError::NotEnoughRowGroups { .. }));
    }

    #[test]
    fn scan_recover_is_confirmed_when_the_scan_completes() {
        let mut mc = controller(11);
        let groups = scout("RAR", 3).scan(&mut mc).unwrap();
        let mut mc = controller(11);
        let (recovered, tier) = scout("RAR", 3).scan_recover(&mut mc).unwrap();
        assert_eq!(recovered, groups);
        assert_eq!(tier, VerdictTier::Confirmed);
        assert_eq!(mc.recovery().relocations, 0);
    }

    #[test]
    fn scan_recover_degrades_with_partial_groups_under_hostile_severity() {
        // A request the window cannot satisfy: scan() errors, but under
        // ladder severity scan_recover relocates and then closes with
        // whatever it found, tiered Degraded.
        let layout: RowGroupLayout = "RAR".parse().unwrap();
        let mut cfg = ScoutConfig::new(Bank::new(0), 128, layout, 40);
        cfg.max_retention = Nanos::from_ms(400);

        let mut mc = crate::recovery::tests::controller_at(2, 11);
        let (groups, tier) = RowScout::new(cfg.clone()).scan_recover(&mut mc).unwrap();
        assert!(!groups.is_empty());
        assert!(groups.len() < 40);
        match &tier {
            VerdictTier::Degraded { reasons } => {
                assert!(reasons.iter().any(|r| r == "scout-shortfall"), "{reasons:?}");
            }
            other => panic!("expected a degraded tier, got {other:?}"),
        }
        assert_eq!(mc.recovery().relocations, u64::from(RecoveryPolicy::HOSTILE.relocations));
        assert!(mc.registry().counter(recovery::CTR_RELOCATIONS).get() > 0);
        // Relocated windows never produce overlapping groups.
        let span = cfg.layout.span();
        for (i, a) in groups.iter().enumerate() {
            for b in &groups[i + 1..] {
                let (lo, hi) = if a.base.index() <= b.base.index() { (a, b) } else { (b, a) };
                assert!(hi.base.index() > lo.base.index() + span + 1, "{lo:?} overlaps {hi:?}");
            }
        }

        // Without ladder severity the same request stays a hard error.
        let mut mc = controller(11);
        let err = RowScout::new(cfg).scan_recover(&mut mc).unwrap_err();
        assert!(matches!(err, UtrrError::NotEnoughRowGroups { .. }));
    }

    #[test]
    fn quarantine_reasons_have_stable_labels() {
        assert_eq!(QuarantineReason::VrtFlap.to_string(), "vrt-flap");
        assert_eq!(QuarantineReason::RetentionDrift.to_string(), "retention-drift");
        assert_eq!(QuarantineReason::WriteUnstable.to_string(), "write-unstable");
        assert_eq!(QuarantineReason::UnstableFlips.to_string(), "unstable-flips");
    }

    impl ProfiledRowGroup {
        fn pattern_bank(&self) -> Bank {
            Bank::new(0)
        }
    }
}
