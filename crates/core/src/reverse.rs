//! The §6 reverse-engineering experiment suite.
//!
//! Each function reproduces one of the paper's experiments against a
//! module seen only through its DDR command interface, and returns a
//! typed finding. [`classify`] orchestrates them into a [`TrrProfile`]
//! that can be compared against a module's ground truth (the Table 1
//! columns).

use dram_sim::{Bank, RowAddr};
use softmc::{HammerMode, HammerSpec, MemoryController};

use crate::analyzer::{Experiment, TrrAnalyzer, VictimOutcome};
use crate::error::UtrrError;
use crate::recovery::{PhaseBudget, RecoveryPolicy, VerdictTier};
use crate::rowscout::ProfiledRowGroup;

/// How a TRR mechanism detects aggressor rows, as uncovered by the
/// experiments.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DetectionKind {
    /// Vendor-A style: a counter table (§6.1).
    Counter {
        /// Maximum rows tracked per bank (Observation A4).
        capacity: usize,
        /// Whether detection resets the detected counter (Observation A6).
        counters_reset: bool,
        /// Whether entries persist until evicted (Observation A7).
        persistent_entries: bool,
    },
    /// Vendor-B style: probabilistic ACT sampling (§6.2).
    Sampler {
        /// Whether one sample register is shared across banks
        /// (Observation B4).
        shared_across_banks: bool,
    },
    /// Vendor-C style: a bounded activation window after each
    /// TRR-induced refresh (§6.3).
    Window {
        /// Upper bound on the tracked activation window (Observation C2).
        max_window: u64,
    },
}

/// The complete reverse-engineered profile of a TRR mechanism — the
/// U-TRR output that Table 1 summarizes per module.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TrrProfile {
    /// One TRR-capable `REF` every this many `REF` commands.
    pub trr_ref_ratio: u64,
    /// Victim rows refreshed per detection.
    pub neighbors_refreshed: u32,
    /// The detection mechanism.
    pub detection: DetectionKind,
    /// Whether TRR acts on each bank independently at a TRR-capable REF.
    pub per_bank: bool,
}

/// Shared experiment parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReverseOptions {
    /// Hammers per aggressor in detection-triggering experiments (the
    /// paper uses up to 5K; it must stay below the RowHammer threshold).
    pub trigger_hammers: u64,
    /// Iterations for the TRR-capable-REF search.
    pub ratio_iterations: u32,
    /// Iterations for capacity / persistence style experiments.
    pub long_iterations: u32,
    /// Per-phase ACT-budget circuit breaker: each `discover_*` phase
    /// closes with the partial evidence it has once it consumes this
    /// many row activations (see [`PhaseBudget`]). `None` — the default
    /// — leaves the budget to the controller's
    /// [`RecoveryPolicy::phase_act_budget`] (unbounded below hostile).
    pub phase_act_budget: Option<u64>,
}

/// The ACT-budget breaker of one `discover_*` phase, starting now.
fn phase_budget(mc: &MemoryController, opts: &ReverseOptions) -> PhaseBudget {
    PhaseBudget::begin(mc, opts.phase_act_budget.or(RecoveryPolicy::of(mc).phase_act_budget))
}

impl Default for ReverseOptions {
    fn default() -> Self {
        ReverseOptions {
            trigger_hammers: 600,
            ratio_iterations: 72,
            long_iterations: 400,
            phase_act_budget: None,
        }
    }
}

/// Most `read_check` / sub-verdict IDs a single verdict event cites:
/// enough to walk a causal timeline, bounded so long discovery runs
/// don't grow unbounded evidence lists.
const EVIDENCE_CAP: usize = 64;

/// Appends `ids` to `evidence` up to [`EVIDENCE_CAP`].
fn push_evidence(evidence: &mut Vec<u64>, ids: &[u64]) {
    let room = EVIDENCE_CAP.saturating_sub(evidence.len());
    evidence.extend(ids.iter().take(room));
}

/// Emits a `verdict` trace event citing `evidence` (the `read_check`
/// events, or sub-verdicts, it was concluded from). A no-op returning
/// `None` when tracing is off.
fn emit_verdict(
    mc: &MemoryController,
    bank: Bank,
    detail: &str,
    fields: &[(&str, u64)],
    evidence: &[u64],
) -> Option<u64> {
    mc.registry().trace_with_evidence(
        obs::TraceKind::Verdict,
        mc.now().as_ns(),
        u32::from(bank.index()),
        None,
        fields,
        detail,
        evidence,
    )
}

/// Runs one iteration of the canonical detection experiment: hammer each
/// group's aggressor, issue one `REF`, infer refreshes. Returns the
/// per-group "TRR-refreshed" flags, the `REF` index consumed, and the
/// iteration's `read_check` trace-event IDs (empty when tracing is off).
fn detection_iteration(
    mc: &mut MemoryController,
    analyzer: &TrrAnalyzer,
    bank: Bank,
    groups: &[ProfiledRowGroup],
    hammers: &[u64],
    refs: u64,
) -> Result<(Vec<bool>, u64, Vec<u64>), UtrrError> {
    let Some(retention) = groups.iter().map(|g| g.retention).min() else {
        return Err(UtrrError::EmptyInput);
    };
    let victims: Vec<RowAddr> = groups.iter().flat_map(|g| g.victim_rows()).collect();
    let aggressors: Vec<(RowAddr, u64)> =
        groups.iter().zip(hammers).map(|(g, &h)| (g.aggressors[0], h)).collect();
    let mut exp = Experiment::on_group(bank, &groups[0]);
    exp.victims = victims;
    exp.retention = retention;
    exp.hammer = HammerSpec { aggressors, mode: HammerMode::Cascaded };
    exp.refs_per_round = refs;
    let outcome = analyzer.run(mc, &exp)?;
    // Fold per-victim outcomes back into per-group flags.
    let mut flags = Vec::with_capacity(groups.len());
    let mut idx = 0;
    for g in groups {
        let n = g.rows.len();
        let hit = outcome.victims[idx..idx + n].contains(&VictimOutcome::TrrRefresh);
        flags.push(hit);
        idx += n;
    }
    Ok((flags, outcome.ref_start, outcome.evidence))
}

/// §6.1.1 / §6.2.1 / §6.3: which `REF` commands are TRR-capable.
/// Hammers every group's aggressor each iteration and issues exactly one
/// `REF`; the interval between iterations that refresh a victim is the
/// TRR-to-REF ratio (Observations A1, B1, C1).
///
/// # Errors
///
/// Propagates experiment errors.
pub fn discover_trr_ref_ratio(
    mc: &mut MemoryController,
    analyzer: &TrrAnalyzer,
    bank: Bank,
    groups: &[ProfiledRowGroup],
    opts: &ReverseOptions,
) -> Result<Option<u64>, UtrrError> {
    let avoid: Vec<RowAddr> = groups.iter().flat_map(|g| g.victim_rows()).collect();
    crate::analyzer::flush_tracker(mc, bank, &avoid, 32)?;
    let hammers = vec![opts.trigger_hammers; groups.len()];
    let mut hit_refs = Vec::new();
    let mut evidence = Vec::new();
    // The slowest shipped ratio is 17 and pointer-walk observability can
    // be sparse, so give the search enough REFs for several TRR slots
    // regardless of the caller's budget.
    let mut budget = phase_budget(mc, opts);
    for _ in 0..opts.ratio_iterations.max(170) {
        if budget.exhausted(mc, bank) {
            break;
        }
        let (flags, ref_start, ids) = detection_iteration(mc, analyzer, bank, groups, &hammers, 1)?;
        if flags.iter().any(|&f| f) {
            hit_refs.push(ref_start + 1);
            push_evidence(&mut evidence, &ids);
        }
    }
    if hit_refs.len() < 3 {
        emit_verdict(mc, bank, "trr_ref_ratio", &[("hits", hit_refs.len() as u64)], &evidence);
        return Ok(None);
    }
    // The very first hit may be a *deferred* TRR refresh left pending by
    // low-activation phases before the experiment (vendor C defers its
    // slot until a candidate exists — Observation C1), so it can sit off
    // the TRR-capable grid: treat it as warm-up and drop it.
    let hit_refs = &hit_refs[1..];
    // With regular refreshes filtered by the learned schedules, every
    // remaining TRR detection lands on a TRR-capable REF, so all gaps
    // between hits are exact multiples of the ratio: their gcd recovers
    // it even when some TRR slots go unobserved.
    let gcd = hit_refs.windows(2).map(|w| w[1] - w[0]).fold(0u64, |acc, d| {
        let (mut a, mut b) = (acc, d);
        while b != 0 {
            let t = a % b;
            a = b;
            b = t;
        }
        a
    });
    emit_verdict(
        mc,
        bank,
        "trr_ref_ratio",
        &[("ratio", gcd), ("hits", (hit_refs.len() + 1) as u64)],
        &evidence,
    );
    Ok((gcd > 0).then_some(gcd))
}

/// §6.1.1 Observation A2 / §6.2.1 Observation B2: how many neighbours a
/// TRR detection refreshes. Uses a neighbour-probe group (`RRARR`:
/// profiled rows at ±1 and ±2 of the aggressor) and reports the maximum
/// number of profiled rows ever refreshed by a single TRR-capable `REF`.
///
/// # Errors
///
/// Propagates experiment errors.
pub fn discover_neighbors_refreshed(
    mc: &mut MemoryController,
    analyzer: &TrrAnalyzer,
    bank: Bank,
    probe_group: &ProfiledRowGroup,
    opts: &ReverseOptions,
) -> Result<u32, UtrrError> {
    let aggressor = probe_group.aggressors[0];
    let exp = Experiment::on_group(bank, probe_group)
        .with_hammer(HammerSpec::single_sided(aggressor, opts.trigger_hammers))
        .with_refs(1);
    let mut max_refreshed = 0u32;
    let mut evidence = Vec::new();
    let mut budget = phase_budget(mc, opts);
    for _ in 0..opts.ratio_iterations {
        if budget.exhausted(mc, bank) {
            break;
        }
        let outcome = analyzer.run(mc, &exp)?;
        let refreshed = outcome.trr_victims().len() as u32;
        if refreshed > max_refreshed {
            evidence.clear();
            push_evidence(&mut evidence, &outcome.evidence);
        }
        max_refreshed = max_refreshed.max(refreshed);
    }
    emit_verdict(
        mc,
        bank,
        "neighbors_refreshed",
        &[("count", u64::from(max_refreshed))],
        &evidence,
    );
    Ok(max_refreshed)
}

/// §6.1.2 Observation A4: counter-table capacity. For `n` in
/// `2..=groups.len()`, hammers the first `n` groups' aggressors every
/// iteration and checks whether *every* group is eventually refreshed;
/// the largest fully-covered `n` is the capacity.
///
/// # Errors
///
/// Propagates experiment errors.
pub fn discover_counter_capacity(
    mc: &mut MemoryController,
    analyzer: &TrrAnalyzer,
    bank: Bank,
    groups: &[ProfiledRowGroup],
    trr_ref_ratio: u64,
    opts: &ReverseOptions,
) -> Result<usize, UtrrError> {
    let avoid: Vec<RowAddr> = groups.iter().flat_map(|g| g.victim_rows()).collect();
    // The max-count detector fires once per 2×ratio REFs (TREF_a
    // alternates with the pointer walk), so boosting one aggressor per
    // such block steers exactly one detection to it — a full rotation
    // covers every group in n blocks, with no aliasing against the REF
    // cadence. (The ratio is known at this point: the paper also runs
    // the TRR-capable-REF experiment first.)
    let block = (2 * trr_ref_ratio.max(1)) as u32;
    let mut capacity = 0;
    let mut evidence = Vec::new();
    let mut budget = phase_budget(mc, opts);
    for n in 2..=groups.len() {
        if budget.tripped() {
            break;
        }
        // Stale counters from the previous sweep step would keep TREF_a
        // busy and stall coverage: reset the tracker (Requirement 4).
        crate::analyzer::flush_tracker(mc, bank, &avoid, 32)?;
        let subset = &groups[..n];
        let mut covered = vec![false; n];
        for iter in 0..opts.long_iterations.max(block * (groups.len() as u32 + 4)) {
            if budget.exhausted(mc, bank) {
                break;
            }
            // Boost one aggressor per TRR-REF block: with equal counts a
            // deterministic max-count tie-break would keep detecting the
            // same entry forever, stalling coverage.
            let boosted = (iter / block) as usize % n;
            let hammers: Vec<u64> =
                (0..n).map(|i| opts.trigger_hammers + if i == boosted { 512 } else { 0 }).collect();
            let (flags, _, ids) = detection_iteration(mc, analyzer, bank, subset, &hammers, 1)?;
            if flags.iter().any(|&f| f) {
                push_evidence(&mut evidence, &ids);
            }
            for (c, f) in covered.iter_mut().zip(&flags) {
                *c |= *f;
            }
            if covered.iter().all(|&c| c) {
                break;
            }
        }
        if covered.iter().all(|&c| c) {
            capacity = n;
        } else {
            break;
        }
    }
    emit_verdict(mc, bank, "counter_capacity", &[("capacity", capacity as u64)], &evidence);
    Ok(capacity)
}

/// §6.1.2 Observation A5: eviction policy probe. Hammers the first
/// group's aggressor a *few* times, then the remaining groups' aggressors
/// many times, every iteration; returns `true` when the low-count,
/// first-hammered aggressor is never detected (it is always evicted).
/// `reverse_suite.rs` pins it; [`classify_recover`] does not run it,
/// since adding it to the profile would change the RE command stream.
///
/// # Errors
///
/// Propagates experiment errors.
pub fn discover_eviction_of_low_count_row(
    mc: &mut MemoryController,
    analyzer: &TrrAnalyzer,
    bank: Bank,
    groups: &[ProfiledRowGroup],
    opts: &ReverseOptions,
) -> Result<bool, UtrrError> {
    let avoid: Vec<RowAddr> = groups.iter().flat_map(|g| g.victim_rows()).collect();
    crate::analyzer::flush_tracker(mc, bank, &avoid, 32)?;
    let mut hammers = vec![100u64; groups.len()];
    hammers[0] = 50;
    let mut weak_detected = false;
    let mut evidence = Vec::new();
    let mut budget = phase_budget(mc, opts);
    for _ in 0..opts.long_iterations {
        if budget.exhausted(mc, bank) {
            break;
        }
        let (flags, _, ids) = detection_iteration(mc, analyzer, bank, groups, &hammers, 1)?;
        push_evidence(&mut evidence, &ids);
        if flags[0] {
            weak_detected = true;
            break;
        }
    }
    emit_verdict(
        mc,
        bank,
        "eviction_of_low_count_row",
        &[("always_evicted", u64::from(!weak_detected))],
        &evidence,
    );
    Ok(!weak_detected)
}

/// §6.1.2 Observation A6: counter reset on detection. Hammers two
/// aggressors with unequal counts every iteration; with per-detection
/// counter resets, *both* aggressors are detected over time (the
/// higher-count one more often). Returns `(low detections, high
/// detections)`.
///
/// # Errors
///
/// Propagates experiment errors.
pub fn discover_counter_reset(
    mc: &mut MemoryController,
    analyzer: &TrrAnalyzer,
    bank: Bank,
    groups: &[ProfiledRowGroup; 2],
    opts: &ReverseOptions,
) -> Result<(u32, u32), UtrrError> {
    let avoid: Vec<RowAddr> = groups.iter().flat_map(|g| g.victim_rows()).collect();
    crate::analyzer::flush_tracker(mc, bank, &avoid, 32)?;
    let hammers = vec![opts.trigger_hammers * 2 / 3, opts.trigger_hammers];
    let mut low = 0;
    let mut high = 0;
    let mut evidence = Vec::new();
    let mut budget = phase_budget(mc, opts);
    for _ in 0..opts.long_iterations {
        if budget.exhausted(mc, bank) {
            break;
        }
        let (flags, _, ids) = detection_iteration(mc, analyzer, bank, &groups[..], &hammers, 1)?;
        if flags[0] || flags[1] {
            push_evidence(&mut evidence, &ids);
        }
        if flags[0] {
            low += 1;
        }
        if flags[1] {
            high += 1;
        }
    }
    emit_verdict(
        mc,
        bank,
        "counter_reset",
        &[("low", u64::from(low)), ("high", u64::from(high))],
        &evidence,
    );
    Ok((low, high))
}

/// §6.1.2 Observation A7: table persistence. Hammers the group's
/// aggressor once, then runs hammer-free iterations; returns the number
/// of TRR refreshes observed in the tail half of the run (a persistent
/// table keeps re-detecting the stale entry via the pointer walk).
///
/// # Errors
///
/// Propagates experiment errors.
pub fn discover_table_persistence(
    mc: &mut MemoryController,
    analyzer: &TrrAnalyzer,
    bank: Bank,
    group: &ProfiledRowGroup,
    opts: &ReverseOptions,
) -> Result<u32, UtrrError> {
    crate::analyzer::flush_tracker(mc, bank, &group.victim_rows(), 32)?;
    // Insert the aggressor into the tracker once.
    let seed_exp = Experiment::on_group(bank, group)
        .with_hammer(HammerSpec::single_sided(group.aggressors[0], opts.trigger_hammers))
        .with_refs(1);
    analyzer.run(mc, &seed_exp)?;
    // Then never touch it again. A pointer-walk re-detection recurs only
    // once every table-size × 2 × ratio REFs (~288 for vendor A), so the
    // idle run must be long enough to see the tail half of at least two
    // walks.
    let iterations = opts.long_iterations.max(640);
    let idle_exp = Experiment::on_group(bank, group).with_refs(1);
    let mut tail_hits = 0;
    let mut evidence = Vec::new();
    let mut budget = phase_budget(mc, opts);
    for i in 0..iterations {
        if budget.exhausted(mc, bank) {
            break;
        }
        let outcome = analyzer.run(mc, &idle_exp)?;
        if outcome.any_trr() && i >= iterations / 2 {
            tail_hits += 1;
            push_evidence(&mut evidence, &outcome.evidence);
        }
    }
    emit_verdict(mc, bank, "table_persistence", &[("tail_hits", u64::from(tail_hits))], &evidence);
    Ok(tail_hits)
}

/// §6.2.2 Observation B3: sampling probe. Each iteration hammers the
/// first group's aggressor `trigger_hammers` times, then the second
/// group's aggressor `second_hammers` times (cascaded, so the second is
/// the most recent), and issues `refs` `REF`s. Returns the fraction of
/// TRR refreshes that hit the *second* group — a sampler overwhelmingly
/// detects the most recently hammered row, while a counter table detects
/// the higher-count one.
///
/// # Errors
///
/// Propagates experiment errors.
pub fn discover_last_hammered_bias(
    mc: &mut MemoryController,
    analyzer: &TrrAnalyzer,
    bank: Bank,
    groups: &[ProfiledRowGroup; 2],
    second_hammers: u64,
    refs: u64,
    opts: &ReverseOptions,
) -> Result<f64, UtrrError> {
    let hammers = vec![opts.trigger_hammers.max(second_hammers + 1), second_hammers];
    let mut second = 0u32;
    let mut total = 0u32;
    let mut evidence = Vec::new();
    let mut budget = phase_budget(mc, opts);
    for _ in 0..opts.ratio_iterations {
        if budget.exhausted(mc, bank) {
            break;
        }
        let (flags, _, ids) = detection_iteration(mc, analyzer, bank, &groups[..], &hammers, refs)?;
        if flags[0] || flags[1] {
            total += 1;
            push_evidence(&mut evidence, &ids);
            if flags[1] && !flags[0] {
                second += 1;
            }
        }
    }
    emit_verdict(
        mc,
        bank,
        "last_hammered_bias",
        &[("second", u64::from(second)), ("total", u64::from(total))],
        &evidence,
    );
    Ok(if total == 0 { 0.0 } else { second as f64 / total as f64 })
}

/// §6.2.2 Observation B4: is the sampler shared across banks? Hammers an
/// aggressor in `groups[0]`'s bank, then one in `groups[1]`'s (different)
/// bank, and issues `REF`s. With a shared register the first bank's
/// victims are never refreshed; per-bank trackers refresh both. Returns
/// `(first-bank hits, second-bank hits)`.
///
/// # Errors
///
/// Propagates experiment errors.
pub fn discover_cross_bank_sharing(
    mc: &mut MemoryController,
    analyzer: &TrrAnalyzer,
    banks: [Bank; 2],
    groups: &[ProfiledRowGroup; 2],
    opts: &ReverseOptions,
) -> Result<(u32, u32), UtrrError> {
    // The two groups come from independent Row Scout runs and may sit in
    // different retention buckets; a single shared decay window would
    // leave the longer-retention group's victims permanently clean
    // (false TRR hits). Stagger instead: initialize the longer group
    // first and read it last, so each group decays exactly its own
    // retention when unrefreshed.
    let (short, long) =
        if groups[0].retention <= groups[1].retention { (0usize, 1usize) } else { (1, 0) };
    let t_short = groups[short].retention;
    let t_long = groups[long].retention;
    let mut hits = [0u32; 2];
    let mut evidence = Vec::new();
    let mut budget = phase_budget(mc, opts);
    for _ in 0..opts.ratio_iterations {
        if budget.exhausted(mc, banks[0]) {
            break;
        }
        for &v in &groups[long].victim_rows() {
            crate::robust::write_row_checked(mc, banks[long], v, &groups[long].pattern)?;
        }
        mc.wait_no_refresh((t_long - t_short) / 2);
        for &v in &groups[short].victim_rows() {
            crate::robust::write_row_checked(mc, banks[short], v, &groups[short].pattern)?;
        }
        mc.wait_no_refresh(t_short / 2);
        let ref_start = mc.module().ref_count();
        let active_start = mc.now();
        // Hammer bank 0's aggressor first, bank 1's second — the order
        // is the experiment: a shared register keeps only the later one.
        for (bank, group) in banks.iter().zip(groups.iter()) {
            mc.module_mut().hammer(*bank, group.aggressors[0], opts.trigger_hammers)?;
        }
        mc.refresh(1);
        let ref_end = mc.module().ref_count();
        let active = mc.now() - active_start;
        mc.wait_no_refresh((t_short / 2).saturating_sub(active));
        let mut record = |mc: &mut MemoryController, i: usize| -> Result<(), UtrrError> {
            let mut trr_hit = false;
            for &v in &groups[i].victim_rows() {
                let clean = crate::robust::read_row_voted(mc, banks[i], v)?.is_clean();
                // Filter regular refreshes via the learned schedules,
                // like every other experiment.
                let regular = analyzer
                    .schedule(v)
                    .is_some_and(|schedule| schedule.covers(ref_start, ref_end));
                let trr = clean && !regular;
                let id = mc.registry().trace(
                    obs::TraceKind::ReadCheck,
                    mc.now().as_ns(),
                    u32::from(banks[i].index()),
                    Some(mc.module().phys_of(v).index()),
                    &[("clean", u64::from(clean))],
                    if trr { "trr_refresh" } else { "no_trr" },
                );
                if trr {
                    trr_hit = true;
                    if let Some(id) = id {
                        push_evidence(&mut evidence, &[id]);
                    }
                }
            }
            if trr_hit {
                hits[i] += 1;
            }
            Ok(())
        };
        record(mc, short)?;
        mc.wait_no_refresh((t_long - t_short) / 2);
        record(mc, long)?;
    }
    emit_verdict(
        mc,
        banks[0],
        "cross_bank_sharing",
        &[("first", u64::from(hits[0])), ("second", u64::from(hits[1]))],
        &evidence,
    );
    Ok((hits[0], hits[1]))
}

/// §6.3 Observation C2: the activation window. Each iteration fills the
/// window with `filler` dummy-row activations *before* hammering the
/// aggressor; once `filler` reaches the window size, the aggressor is
/// never detected. Returns the smallest probed filler count at which
/// detections stop, or `None` if detections never stop.
///
/// # Errors
///
/// Propagates experiment errors.
pub fn discover_act_window(
    mc: &mut MemoryController,
    analyzer: &TrrAnalyzer,
    bank: Bank,
    group: &ProfiledRowGroup,
    probes: &[u64],
    opts: &ReverseOptions,
) -> Result<Option<u64>, UtrrError> {
    let dummies = mc.pick_dummy_rows(&group.victim_rows(), 100, 1);
    // Window trackers bias detection towards *early* activations, so an
    // aggressor sitting late in the window is captured rarely; cover the
    // whole tail of plausible windows and give each probe plenty of
    // capture cycles before concluding "never detected".
    let aggressor_hammers = 2_048u64;
    let iterations = opts.long_iterations.max(360);
    // Fault-free, one detection is conclusive. Injected faults leave
    // stray TRR verdicts at a rate of well under 1% of iterations
    // (drift shifts the slot phase, VRT bursts fake a refresh), so a
    // single detection cannot condemn a filler count there. Genuine
    // capture — a counter or sampler that still sees the aggressor
    // through the filler — lands at ~5% of iterations; the faulty
    // policies split the two regimes at 2%.
    let stray_den = RecoveryPolicy::of(mc).act_window_stray_den;
    let strays = stray_den.map_or(0, |den| (iterations / den).max(1));
    let mut evidence = Vec::new();
    let mut budget = phase_budget(mc, opts);
    for &filler in probes {
        if budget.tripped() {
            break;
        }
        let mut exp = Experiment::on_group(bank, group)
            .with_hammer(HammerSpec::single_sided(group.aggressors[0], aggressor_hammers))
            .with_dummies(dummies.clone(), filler)
            .with_refs(1);
        exp.dummies_first = true;
        let mut detected = false;
        let mut hits = 0u32;
        for _ in 0..iterations {
            if budget.exhausted(mc, bank) {
                break;
            }
            let outcome = analyzer.run(mc, &exp)?;
            if outcome.any_trr() {
                hits += 1;
                if hits > strays {
                    push_evidence(&mut evidence, &outcome.evidence);
                    detected = true;
                    break;
                }
            }
        }
        if budget.tripped() {
            // A truncated probe can't distinguish "never detected" from
            // "ran out of budget before a detection": don't conclude a
            // window from it.
            break;
        }
        if !detected {
            emit_verdict(mc, bank, "act_window", &[("window", filler)], &evidence);
            return Ok(Some(filler));
        }
    }
    emit_verdict(mc, bank, "act_window", &[], &evidence);
    Ok(None)
}

/// Runs the discrimination pipeline and assembles a [`TrrProfile`].
///
/// `pair_groups` are `RAR` groups (at least two; 17+ for an exact
/// counter-capacity answer), `probe_group` is an `RRARR` group, and
/// `cross_bank` optionally provides a second-bank `RAR` group for the
/// shared-sampler test. Kept as the entry point of `reverse_suite.rs`;
/// the pipeline calls [`classify_recover`].
///
/// # Errors
///
/// Propagates experiment errors.
pub fn classify(
    mc: &mut MemoryController,
    bank: Bank,
    pair_groups: &[ProfiledRowGroup],
    probe_group: &ProfiledRowGroup,
    cross_bank: Option<(Bank, &ProfiledRowGroup)>,
    opts: &ReverseOptions,
) -> Result<TrrProfile, UtrrError> {
    classify_recover(mc, bank, pair_groups, probe_group, cross_bank, opts, VerdictTier::Confirmed)
        .map(|(profile, _)| profile)
}

/// [`classify`] under the controller's [`RecoveryPolicy`], returning
/// the profile together with its [`VerdictTier`]. `initial_tier`
/// carries what the earlier pipeline phases (the scout scans) already
/// know — the returned tier and the final verdict trace event both
/// reflect the merged pipeline confidence, not just classification's
/// own.
///
/// Below hostile severity this *is* `classify` (same commands, same
/// errors) with a `Confirmed` tier bolted on. Under a
/// [`RecoveryPolicy::tiered`] policy:
///
/// * a group whose regular-refresh schedule cannot be learned is
///   dropped from the experiment set instead of aborting the whole
///   classification (tier reason `schedule`) — as long as at least two
///   pair groups survive;
/// * any `discover_*` phase whose ACT-budget breaker trips closes with
///   partial evidence (tier reason `act-budget`);
/// * the final verdict trace event carries the tier.
///
/// # Errors
///
/// [`UtrrError::ScheduleNotFound`] when fewer than two pair groups
/// survive schedule learning; experiment errors are propagated.
pub fn classify_recover(
    mc: &mut MemoryController,
    bank: Bank,
    pair_groups: &[ProfiledRowGroup],
    probe_group: &ProfiledRowGroup,
    cross_bank: Option<(Bank, &ProfiledRowGroup)>,
    opts: &ReverseOptions,
    initial_tier: VerdictTier,
) -> Result<(TrrProfile, VerdictTier), UtrrError> {
    let tiered = RecoveryPolicy::of(mc).tiered;
    let mut tier = initial_tier;
    let trips_before = mc.recovery().budget_trips;
    // Learn the regular-refresh schedule of every profiled row first, so
    // that periodic regular refreshes are never misattributed to TRR.
    // `learn` reports whether the group's schedules were learned.
    let mut analyzer = TrrAnalyzer::new();
    let mut learn = |mc: &mut MemoryController, bank: Bank, group: &ProfiledRowGroup| {
        match crate::schedule::learn_group_schedules(mc, bank, group, &mut analyzer) {
            Ok(()) => Ok(true),
            Err(UtrrError::ScheduleNotFound) if tiered => {
                tier.degrade("schedule");
                Ok(false)
            }
            Err(e) => Err(e),
        }
    };
    let mut surviving: Vec<ProfiledRowGroup> = Vec::with_capacity(pair_groups.len());
    for group in pair_groups {
        if learn(mc, bank, group)? {
            surviving.push(group.clone());
        }
    }
    if surviving.len() < 2 {
        return Err(UtrrError::ScheduleNotFound);
    }
    let pair_groups: &[ProfiledRowGroup] = &surviving;
    // A probe group without learned schedules still runs its
    // experiments; regular refreshes just can't be subtracted for it,
    // which the degraded tier records.
    learn(mc, bank, probe_group)?;
    let cross_bank = match cross_bank {
        Some((other_bank, other_group)) if learn(mc, other_bank, other_group)? => {
            Some((other_bank, other_group))
        }
        _ => None,
    };
    let analyzer = analyzer;

    // Watermark the trace-id space so the final verdict can cite the
    // per-discovery verdicts emitted below (and only those).
    let verdict_mark = mc.registry().recorder().map_or(0, |r| r.next_id_hint());

    // Ratio discovery uses a small subset of groups: every profiled row
    // is activated at least twice per iteration (init write + readback),
    // and on window-based trackers those early activations would crowd
    // the aggressors out of the capture window.
    // Two ratio passes: a small group set keeps window-tracker capture
    // on the aggressors (victim-init activations would crowd an
    // early-biased window), while a large set fills counter tables so
    // both TREF flavours land on experiment rows (the paper's N ≥ 16).
    // Every observed gap is a multiple of the true ratio, so the finer
    // of the two answers wins.
    let small = &pair_groups[..pair_groups.len().min(4)];
    let large = &pair_groups[..pair_groups.len().min(16)];
    let ratio_small = discover_trr_ref_ratio(mc, &analyzer, bank, small, opts)?;
    let ratio_large = discover_trr_ref_ratio(mc, &analyzer, bank, large, opts)?;
    let ratio = match (ratio_small, ratio_large) {
        (Some(a), Some(b)) => a.min(b),
        (a, b) => a.or(b).unwrap_or(0),
    };
    let neighbors = discover_neighbors_refreshed(mc, &analyzer, bank, probe_group, opts)?;

    // Sampler discriminator: does the last-hammered row dominate even
    // with fewer hammers?
    let two: &[ProfiledRowGroup; 2] = &[pair_groups[0].clone(), pair_groups[1].clone()];
    let last_bias = discover_last_hammered_bias(
        mc,
        &analyzer,
        bank,
        two,
        opts.trigger_hammers / 2,
        ratio.max(1),
        opts,
    )?;

    // Window discriminator: does pre-filling activations hide the
    // aggressor?
    let window = discover_act_window(
        mc,
        &analyzer,
        bank,
        &pair_groups[0],
        &[512, 1_024, 2_048, 4_096, 8_192],
        opts,
    )?;

    let detection = if let Some(w) = window {
        DetectionKind::Window { max_window: w }
    } else if last_bias > 0.8 {
        let shared = match cross_bank {
            Some((other_bank, other_group)) => {
                let (first, _second) = discover_cross_bank_sharing(
                    mc,
                    &analyzer,
                    [bank, other_bank],
                    &[pair_groups[0].clone(), other_group.clone()],
                    opts,
                )?;
                first == 0
            }
            None => false,
        };
        DetectionKind::Sampler { shared_across_banks: shared }
    } else {
        let capacity =
            discover_counter_capacity(mc, &analyzer, bank, pair_groups, ratio.max(1), opts)?;
        let (low, high) = discover_counter_reset(
            mc,
            &analyzer,
            bank,
            &[pair_groups[0].clone(), pair_groups[1].clone()],
            opts,
        )?;
        let persistence = discover_table_persistence(mc, &analyzer, bank, &pair_groups[0], opts)?;
        DetectionKind::Counter {
            capacity,
            counters_reset: low > 0 && high > 0,
            persistent_entries: persistence > 0,
        }
    };

    let per_bank = match (&detection, cross_bank) {
        (DetectionKind::Sampler { shared_across_banks }, _) => !shared_across_banks,
        _ => true,
    };

    if mc.recovery().budget_trips > trips_before {
        tier.degrade("act-budget");
    }

    // The final verdict cites the per-discovery verdicts as evidence:
    // the explain tool walks detection → sub-verdicts → read_checks.
    if let Some(recorder) = mc.registry().recorder() {
        let sub_verdicts: Vec<u64> = recorder
            .snapshot()
            .0
            .iter()
            .filter(|e| e.kind == obs::TraceKind::Verdict && e.id >= verdict_mark)
            .map(|e| e.id)
            .take(EVIDENCE_CAP)
            .collect();
        let kind = match &detection {
            DetectionKind::Counter { .. } => "detection:counter",
            DetectionKind::Sampler { .. } => "detection:sampler",
            DetectionKind::Window { .. } => "detection:window",
        };
        // The tier rides on the verdict event only under a tiered
        // policy, so mild/fault-free trace streams stay byte-identical.
        // A non-confirmed tier also spells out its reasons in the
        // detail, which is what `utrr-trace explain` renders.
        let mut fields = vec![
            ("ratio", ratio),
            ("neighbors", u64::from(neighbors)),
            ("per_bank", u64::from(per_bank)),
        ];
        let mut detail = kind.to_string();
        if tiered {
            fields.push(("tier", tier.code()));
            if !tier.is_confirmed() {
                detail = format!("{kind} [{}: {}]", tier.label(), tier.reasons_string());
            }
        }
        emit_verdict(mc, bank, &detail, &fields, &sub_verdicts);
    }

    Ok((
        TrrProfile { trr_ref_ratio: ratio, neighbors_refreshed: neighbors, detection, per_bank },
        tier,
    ))
}
