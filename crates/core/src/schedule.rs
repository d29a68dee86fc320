//! Learning the regular-refresh schedule of a row (§6.1.3 of the paper).
//!
//! TRR Analyzer must distinguish TRR-induced refreshes from regular
//! refreshes. The paper's lever: "regular refreshes happen periodically
//! (a row is refreshed by a regular refresh at a fixed REF command
//! interval)". This module *measures* that schedule for a profiled row —
//! with which it also reproduces Observation A8 (vendor A refreshes each
//! row once every 3758 REFs instead of the expected ~8K).
//!
//! The learner uses the retention side channel itself: write the row,
//! issue a burst of `REF` commands, decay past the retention time, read.
//! A clean read means one of the burst's `REF`s restored the row. A
//! coarse pass (bursts of 64) brackets two consecutive restore events;
//! a fine pass (single `REF` per trial) pins their exact indices, whose
//! difference is the per-row refresh period.

use softmc::MemoryController;

use crate::error::UtrrError;
use crate::recovery::{self, RecoveryCounter, RecoveryPolicy};
use crate::robust;
use crate::rowscout::ProfiledRowGroup;

/// Counter: schedule-learning attempts that were retried (fault-aware
/// mode only).
pub const CTR_SCHEDULE_RETRIES: &str = "utrr.schedule.retries";

/// The learned schedule: the probe row is restored by the regular
/// refresh machinery at every global `REF` index `k` with
/// `k ≡ anchor (mod period)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RefreshSchedule {
    /// `REF` commands between two regular refreshes of the row.
    pub period: u64,
    /// Residue of the refreshing `REF` indices.
    pub anchor: u64,
}

impl RefreshSchedule {
    /// Whether any scheduled regular refresh falls in the half-open
    /// `REF`-index interval `(from, to]`.
    pub fn covers(&self, from: u64, to: u64) -> bool {
        if to <= from {
            return false;
        }
        let rem = (from + 1) % self.period;
        let delta = (self.anchor + self.period - rem) % self.period;
        from + 1 + delta <= to
    }
}

/// Learns the regular-refresh schedule of every profiled row of `group`
/// and registers the schedules with `analyzer`.
///
/// # Errors
///
/// Propagates [`learn_row_schedule`] errors.
pub fn learn_group_schedules(
    mc: &mut MemoryController,
    bank: dram_sim::Bank,
    group: &ProfiledRowGroup,
    analyzer: &mut crate::analyzer::TrrAnalyzer,
) -> Result<(), UtrrError> {
    for profiled in &group.rows {
        if analyzer.schedule(profiled.row).is_none() {
            let schedule =
                learn_row_schedule(mc, bank, profiled.row, group.retention, &group.pattern)?;
            analyzer.add_schedule(profiled.row, schedule);
        }
    }
    Ok(())
}

/// Learns the regular-refresh schedule of the first profiled row of
/// `group`.
///
/// # Errors
///
/// [`UtrrError::ScheduleNotFound`] if no periodic restore is observed
/// within a generous search budget; device errors are propagated.
pub fn learn_refresh_schedule(
    mc: &mut MemoryController,
    group: &ProfiledRowGroup,
    bank: dram_sim::Bank,
) -> Result<RefreshSchedule, UtrrError> {
    learn_row_schedule(mc, bank, group.rows[0].row, group.retention, &group.pattern)
}

/// Learns the regular-refresh schedule of one retention-profiled row.
///
/// The controller's [`RecoveryPolicy`] sets how hard this tries. Under
/// fault injection the whole measurement is retried up to
/// [`RecoveryPolicy::schedule_attempts`] times, and every learned
/// schedule must pass a predictive verification (its
/// covers/doesn't-cover prediction has to match a handful of fresh
/// trials) before it is accepted — a schedule learned from a
/// fault-corrupted trial would silently misclassify TRR refreshes for
/// the rest of the run. Hostile fault rates make three attempts per row
/// a near-certain loss over the ~40 schedule learns of a
/// classification, so that policy allows ten. Fault-free, the
/// measurement runs exactly once with no verification.
///
/// # Errors
///
/// [`UtrrError::ScheduleNotFound`] if no periodic restore is observed
/// (or verification keeps failing) within the retry budget; device
/// errors are propagated.
pub(crate) fn learn_row_schedule(
    mc: &mut MemoryController,
    bank: dram_sim::Bank,
    probe: dram_sim::RowAddr,
    retention: dram_sim::Nanos,
    pattern: &dram_sim::DataPattern,
) -> Result<RefreshSchedule, UtrrError> {
    let registry = std::sync::Arc::clone(mc.registry());
    let span = obs::span!(registry, "utrr.schedule.learn_row", mc.now().as_ns());
    let result = learn_row_schedule_attempts(mc, bank, probe, retention, pattern);
    span.finish(mc.now().as_ns());
    result
}

/// The retried, verified measurements of [`learn_row_schedule`].
fn learn_row_schedule_attempts(
    mc: &mut MemoryController,
    bank: dram_sim::Bank,
    probe: dram_sim::RowAddr,
    retention: dram_sim::Nanos,
    pattern: &dram_sim::DataPattern,
) -> Result<RefreshSchedule, UtrrError> {
    let policy = RecoveryPolicy::of(mc);
    let registry = std::sync::Arc::clone(mc.registry());
    let mut last = UtrrError::ScheduleNotFound;
    for attempt in 0..policy.schedule_attempts {
        if attempt > 0 {
            registry.counter(CTR_SCHEDULE_RETRIES).inc();
            registry.trace(
                obs::TraceKind::Recovery,
                mc.now().as_ns(),
                u32::from(bank.index()),
                Some(mc.module().phys_of(probe).index()),
                &[("attempt", attempt as u64)],
                "schedule_retry",
            );
        }
        // Trial timing. The scout's retention bins only bracket the
        // row's true retention R in (0.55 T, T], and hostile drift
        // swings R by another ±8% — no timing derived from the bin
        // alone can separate restored from unrestored decay across
        // that whole band. The hostile policy therefore re-profiles the
        // row's *current* retention on every attempt, so the window
        // tracks the live drift phase: restored rows decay 0.58 R̂
        // (< 0.92 R̂ even when the estimate was taken at peak drift),
        // unrestored rows decay 1.2 R̂ (> 1.08 R̂ even at trough).
        // Otherwise the window is the symmetric ±4% one around T/2.
        let timing = if policy.reprofile_schedule {
            let estimate = reprofile_retention(mc, bank, probe, pattern, retention)?;
            mc.recovery_mut().reprofiles += 1;
            let reprofiles = RecoveryCounter::Reprofiles;
            recovery::record(mc, reprofiles, "schedule_reprofile", bank, Some(probe), &[]);
            (estimate * 62 / 100, estimate * 58 / 100)
        } else {
            (retention / 2, retention / 2 + retention / 25)
        };
        match learn_row_schedule_once(mc, bank, probe, pattern, timing) {
            Ok(schedule) => {
                if !policy.verify_schedule
                    || verify_schedule(mc, bank, probe, pattern, timing, &schedule)?
                {
                    return Ok(schedule);
                }
                last = UtrrError::ScheduleNotFound;
            }
            Err(e @ UtrrError::ScheduleNotFound) => last = e,
            Err(e) => return Err(e),
        }
    }
    Err(last)
}

/// Bisects the probe row's retention as it stands right now (recovery
/// ladder only): five voted write-decay-read trials between 0.4 and
/// 1.3 of the scout's binned estimate. A row the faults have rendered
/// permanently dirty collapses the bracket to its floor, which the
/// subsequent coarse pass then fails — the group is dropped rather
/// than learned from garbage.
fn reprofile_retention(
    mc: &mut MemoryController,
    bank: dram_sim::Bank,
    probe: dram_sim::RowAddr,
    pattern: &dram_sim::DataPattern,
    hint: dram_sim::Nanos,
) -> Result<dram_sim::Nanos, UtrrError> {
    let mut lo = hint * 2 / 5;
    let mut hi = hint * 13 / 10;
    for _ in 0..5 {
        let mid = (lo + hi) / 2;
        robust::write_row_checked(mc, bank, probe, pattern)?;
        mc.wait_no_refresh(mid);
        if robust::read_row_voted(mc, bank, probe)?.is_clean() {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    Ok((lo + hi) / 2)
}

/// Predictive verification of a learned schedule (fault-aware mode
/// only): four fresh burst trials must match the schedule's
/// covers/doesn't-cover prediction in at least three cases.
fn verify_schedule(
    mc: &mut MemoryController,
    bank: dram_sim::Bank,
    probe: dram_sim::RowAddr,
    pattern: &dram_sim::DataPattern,
    (pre_burst, post_burst): (dram_sim::Nanos, dram_sim::Nanos),
    schedule: &RefreshSchedule,
) -> Result<bool, UtrrError> {
    const TRIALS: u32 = 4;
    let mut correct = 0u32;
    for i in 0..TRIALS {
        let burst = if i % 2 == 0 { 32 } else { 64 };
        let before = mc.module().ref_count();
        robust::write_row_checked(mc, bank, probe, pattern)?;
        mc.wait_no_refresh(pre_burst);
        mc.refresh(burst);
        mc.wait_no_refresh(post_burst);
        let clean = robust::read_row_voted(mc, bank, probe)?.is_clean();
        if clean == schedule.covers(before, before + burst) {
            correct += 1;
        }
    }
    Ok(correct >= TRIALS - 1)
}

/// One unretried schedule measurement (see [`learn_row_schedule`]).
fn learn_row_schedule_once(
    mc: &mut MemoryController,
    bank: dram_sim::Bank,
    probe: dram_sim::RowAddr,
    pattern: &dram_sim::DataPattern,
    (pre_burst, post_burst): (dram_sim::Nanos, dram_sim::Nanos),
) -> Result<RefreshSchedule, UtrrError> {
    const COARSE_BURST: u64 = 64;
    let pattern = pattern.clone();

    // Flush the TRR tracker first: activating plenty of far-away dummy
    // rows evicts any stale entry *adjacent* to the probe (left over
    // from scouting or earlier experiments). TRR never refreshes the
    // detected row itself, only its neighbours — so once no tracker
    // entry sits near the probe, nothing can TRR-refresh it and corrupt
    // the periodicity measurement (a lightweight instance of the
    // paper's Requirement 4).
    // 64 rows × 48 activations: enough insertions to flush any counter
    // table, and enough total activations (3072) that a probabilistic
    // sampler's register holds a dummy with overwhelming probability.
    crate::analyzer::flush_tracker(mc, bank, &[probe], 100)?;
    // The burst sits in the middle of the decay window (see
    // `learn_row_schedule` for the timing: symmetric around 0.5 T
    // below the ladder, re-profiled and drift-proof under it): a
    // restored row decays only `post_burst` (inside its retention), an
    // unrestored row decays `pre_burst + post_burst` (past it).
    // One coarse trial: does a burst of `burst` REFs restore the row?
    // Voted reads and verified writes are no-ops fault-free; under
    // fault injection they keep single in-flight faults from forging a
    // restore observation.
    let trial = |mc: &mut MemoryController, burst: u64| -> Result<bool, UtrrError> {
        robust::write_row_checked(mc, bank, probe, &pattern)?;
        mc.wait_no_refresh(pre_burst);
        mc.refresh(burst);
        mc.wait_no_refresh(post_burst);
        Ok(robust::read_row_voted(mc, bank, probe)?.is_clean())
    };

    // Coarse pass: find two consecutive restore windows.
    let mut windows = Vec::new();
    let budget = 3 * 16_384 / COARSE_BURST;
    for _ in 0..budget {
        let before = mc.module().ref_count();
        if trial(mc, COARSE_BURST)? {
            windows.push(before);
            if windows.len() == 2 {
                break;
            }
        }
    }
    let [w1, w2] = windows[..] else {
        return Err(UtrrError::ScheduleNotFound);
    };
    let period_coarse = w2 - w1;

    // Fine pass: single-REF trials to pin the exact restore index. We
    // start a little before the predicted next restore.
    let pin_exact = |mc: &mut MemoryController| -> Result<Option<u64>, UtrrError> {
        for _ in 0..3 * COARSE_BURST {
            let before = mc.module().ref_count();
            if trial(mc, 1)? {
                return Ok(Some(before + 1));
            }
        }
        Ok(None)
    };

    // Skip to just before the next predicted window.
    let skip_to = w2 + period_coarse;
    let current = mc.module().ref_count();
    if skip_to > current + COARSE_BURST {
        mc.refresh(skip_to - current - COARSE_BURST);
    }
    let Some(e1) = pin_exact(mc)? else {
        return Err(UtrrError::ScheduleNotFound);
    };
    // Skip one more period and pin again for the exact period.
    mc.refresh(period_coarse.saturating_sub(2 * COARSE_BURST).max(1));
    let Some(e2) = pin_exact(mc)? else {
        return Err(UtrrError::ScheduleNotFound);
    };
    let period = e2 - e1;
    if period == 0 {
        return Err(UtrrError::ScheduleNotFound);
    }
    Ok(RefreshSchedule { period, anchor: e1 % period })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::RowGroupLayout;
    use crate::rowscout::{RowScout, ScoutConfig};
    use dram_sim::{Bank, Module, ModuleConfig};

    #[test]
    fn covers_math() {
        let s = RefreshSchedule { period: 10, anchor: 3 };
        assert!(s.covers(2, 3));
        assert!(!s.covers(3, 12));
        assert!(s.covers(3, 13));
        assert!(s.covers(0, 100));
        assert!(!s.covers(4, 4));
        assert!(!s.covers(13, 22));
        assert!(s.covers(13, 23));
    }

    #[test]
    fn learns_the_device_period() {
        let mut mc = MemoryController::new(Module::new(ModuleConfig::small_test(), 31));
        let bank = Bank::new(0);
        let groups =
            RowScout::new(ScoutConfig::new(bank, 512, RowGroupLayout::single_aggressor_pair(), 1))
                .scan(&mut mc)
                .unwrap();
        let schedule = learn_refresh_schedule(&mut mc, &groups[0], bank).unwrap();
        // small_test refreshes each of the 1024 rows once per 1024 REFs.
        assert_eq!(schedule.period, 1024);
        // The anchor must predict the device's actual behaviour: REF k
        // restores physical row k % 1024 (one row per REF).
        let phys = groups[0].rows[0].phys.index() as u64;
        assert_eq!(schedule.anchor, (phys + 1) % 1024);
    }

    #[test]
    fn learned_schedule_predicts_cleanliness() {
        let mut mc = MemoryController::new(Module::new(ModuleConfig::small_test(), 37));
        let bank = Bank::new(0);
        let groups =
            RowScout::new(ScoutConfig::new(bank, 512, RowGroupLayout::single_aggressor_pair(), 1))
                .scan(&mut mc)
                .unwrap();
        let g = &groups[0];
        let schedule = learn_refresh_schedule(&mut mc, g, bank).unwrap();
        // Run a few more trials and check the prediction each time.
        for burst in [32u64, 64, 128] {
            for _ in 0..8 {
                let before = mc.module().ref_count();
                mc.write_row(bank, g.rows[0].row, g.pattern.clone()).unwrap();
                mc.wait_no_refresh(g.retention / 2);
                mc.refresh(burst);
                mc.wait_no_refresh(g.retention / 2 + g.retention / 25);
                let clean = mc.read_row(bank, g.rows[0].row).unwrap().is_clean();
                assert_eq!(
                    clean,
                    schedule.covers(before, before + burst),
                    "prediction failed at ref {before} burst {burst}"
                );
            }
        }
    }
}
