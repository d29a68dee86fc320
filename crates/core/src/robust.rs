//! Fault-tolerant device-access primitives (the self-healing layer).
//!
//! Transient faults at the device/controller boundary — in-flight read
//! bit flips, stuck reads, dropped or garbled writes (see the `faults`
//! crate) — would corrupt the retention side channel the whole
//! methodology rests on. The helpers here reconcile repeated reads into
//! a consensus readout and verify writes by reading them back, as far
//! as the controller's [`RecoveryPolicy`] asks. Under
//! [`RecoveryPolicy::IDENTITY`] they are exactly one read or one write,
//! keeping fault-free command traces (and therefore experiment output)
//! bit-identical to a build without this layer.

use dram_sim::{majority_flips, Bank, DataPattern, RowAddr, RowReadout};
use softmc::MemoryController;

use crate::error::UtrrError;
use crate::recovery::{self, RecoveryCounter, RecoveryPolicy};

/// Counter: majority-voted reads performed (fault-aware mode only).
pub const CTR_VOTED_READS: &str = "utrr.robust.voted_reads";
/// Counter: voted reads whose samples did not all agree.
pub const CTR_READ_DISAGREEMENTS: &str = "utrr.robust.read_disagreements";
/// Counter: verified writes that needed at least one retry.
pub const CTR_WRITE_RETRIES: &str = "utrr.robust.write_retries";
/// Counter: verified writes that never read back clean within the retry
/// budget (the row is left for quarantine logic to handle).
pub(crate) const CTR_WRITE_GIVEUPS: &str = "utrr.robust.write_giveups";

/// Reads `row` with majority-vote redundancy: a bit counts as flipped
/// only when a strict majority of the samples report it. Reading a row
/// activates (and therefore restores) it, so the samples observe the
/// same cell state and differ only through in-flight faults — the
/// majority recovers the true readout unless independent faults
/// collide on the same bit across half the samples.
///
/// The vote width is the policy's [`RecoveryPolicy::vote_width`]: one
/// plain [`MemoryController::read_row`] fault-free, three samples
/// otherwise. Under [`RecoveryPolicy::HOSTILE`] the recovery ladder
/// widens it adaptively to 5 and 7 when the running disagreement rate
/// shows triple redundancy is no longer enough (see
/// [`recovery::note_vote`]).
///
/// Each sample is compared with the first as it arrives
/// ([`RowReadout::same_flips`]), so a unanimous vote keeps no sample
/// but the first; the samples after the first dissent are kept for the
/// majority.
///
/// # Errors
///
/// Propagates device protocol errors.
pub(crate) fn read_row_voted(
    mc: &mut MemoryController,
    bank: Bank,
    row: RowAddr,
) -> Result<RowReadout, UtrrError> {
    let policy = RecoveryPolicy::of(mc);
    let width = recovery::vote_width(mc, &policy);
    let first = mc.read_row(bank, row)?;
    if width == 1 {
        return Ok(first);
    }
    // Samples 1..`agreed` equal the first; `rest` holds every sample
    // from the first dissent on, in read order.
    let mut agreed = 1;
    let mut rest = Vec::new();
    for _ in 1..width {
        let sample = mc.read_row(bank, row)?;
        if rest.is_empty() && sample.same_flips(&first) {
            agreed += 1;
        } else {
            rest.push(sample);
        }
    }
    RecoveryCounter::VotedReads.inc(mc);
    let unanimous = rest.is_empty();
    recovery::note_vote(mc, &policy, bank, row, !unanimous);
    if unanimous {
        return Ok(first);
    }
    let field = ("width", u64::from(width));
    let disagreements = RecoveryCounter::ReadDisagreements;
    recovery::record(mc, disagreements, "read_disagreement", bank, Some(row), &[field]);
    let mut flips = vec![first.flipped_bits(); agreed];
    flips.extend(rest.iter().map(RowReadout::flipped_bits));
    let majority = majority_flips(&flips);
    Ok(first.with_flips(majority))
}

/// Writes `pattern` into `row` and, when the policy allows more than
/// one [`RecoveryPolicy::write_attempts`], reads it back
/// (majority-voted) to confirm the write landed; dropped or garbled
/// writes are retried up to that many attempts.
///
/// Returns `Ok(true)` when the row verifiably holds the pattern (always
/// the case fault-free, where this is exactly one
/// [`MemoryController::write_row`]) and `Ok(false)` when the retry
/// budget ran out — callers decide whether that quarantines the row.
///
/// # Errors
///
/// Propagates device protocol errors.
pub(crate) fn write_row_checked(
    mc: &mut MemoryController,
    bank: Bank,
    row: RowAddr,
    pattern: &DataPattern,
) -> Result<bool, UtrrError> {
    let attempts = RecoveryPolicy::of(mc).write_attempts;
    if attempts == 1 {
        // A single attempt could not be retried, so it is not verified.
        mc.write_row(bank, row, pattern.clone())?;
        return Ok(true);
    }
    for attempt in 1..=attempts {
        mc.write_row(bank, row, pattern.clone())?;
        let back = read_row_voted(mc, bank, row)?;
        if back.pattern() == pattern && back.is_clean() {
            return Ok(true);
        }
        if attempt < attempts {
            let field = ("attempt", u64::from(attempt));
            let retries = RecoveryCounter::WriteRetries;
            recovery::record(mc, retries, "write_retry", bank, Some(row), &[field]);
        }
    }
    let field = ("attempts", u64::from(attempts));
    let giveups = RecoveryCounter::WriteGiveups;
    recovery::record(mc, giveups, "write_giveup", bank, Some(row), &[field]);
    Ok(false)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recovery::tests::{controller_at, Scripted};
    use crate::recovery::VOTE_WINDOW_MIN;
    use dram_sim::metrics::{CTR_ROW_READS, CTR_ROW_WRITES};
    use dram_sim::Nanos;

    const BANK: Bank = Bank::new(0);

    fn controller() -> MemoryController {
        controller_at(0, 7)
    }

    #[test]
    fn policy_sets_the_commands_each_primitive_issues() {
        // (severity, device writes + reads of a clean checked write,
        // device reads of a clean voted read, voted reads counted)
        for (severity, write_cmds, read_cmds, voted) in
            [(0, (1, 0), 1, 0), (1, (1, 3), 3, 2), (2, (1, 3), 3, 2)]
        {
            let mut mc = controller_at(severity, 7);
            let row = RowAddr::new(5);
            let stats = |mc: &mut MemoryController| {
                mc.module_mut().flush_metrics();
                let registry = mc.registry();
                (registry.counter(CTR_ROW_WRITES).get(), registry.counter(CTR_ROW_READS).get())
            };
            let before = stats(&mut mc);
            assert!(write_row_checked(&mut mc, BANK, row, &DataPattern::Ones).unwrap());
            let after = stats(&mut mc);
            assert_eq!((after.0 - before.0, after.1 - before.1), write_cmds, "{severity}");
            let readout = read_row_voted(&mut mc, BANK, row).unwrap();
            assert!(readout.is_clean());
            assert_eq!(stats(&mut mc).1 - after.1, read_cmds, "{severity}");
            assert_eq!(mc.registry().counter(CTR_VOTED_READS).get(), voted, "{severity}");
        }
    }

    #[test]
    fn voted_read_filters_uncorrelated_flips() {
        let mut mc = controller();
        let row = RowAddr::new(5);
        mc.write_row(BANK, row, DataPattern::Ones).unwrap();
        let flip_every_read = Scripted { flip_reads: u32::MAX, severity: 1, ..Scripted::default() };
        mc.set_fault_injector(Some(Box::new(flip_every_read)));
        let readout = read_row_voted(&mut mc, BANK, row).unwrap();
        assert!(readout.is_clean(), "one corrupt bit per sample never reaches majority");
        assert_eq!(mc.registry().counter(CTR_READ_DISAGREEMENTS).get(), 1);
    }

    /// The voted read before samples were compared on arrival: every
    /// sample kept, unanimity decided by `windows(2)` and `==`, and each
    /// counter looked up by name. The reference model of
    /// [`voted_read_matches_its_reference_model`].
    fn read_row_voted_reference(
        mc: &mut MemoryController,
        bank: Bank,
        row: RowAddr,
    ) -> Result<RowReadout, UtrrError> {
        let policy = RecoveryPolicy::of(mc);
        let width = recovery::vote_width(mc, &policy);
        if width == 1 {
            return Ok(mc.read_row(bank, row)?);
        }
        let mut samples = Vec::with_capacity(usize::from(width));
        for _ in 0..width {
            samples.push(mc.read_row(bank, row)?);
        }
        mc.registry().counter(CTR_VOTED_READS).inc();
        let unanimous =
            samples.windows(2).all(|pair| pair[0].flipped_bits() == pair[1].flipped_bits());
        recovery::note_vote(mc, &policy, bank, row, !unanimous);
        if unanimous {
            return Ok(samples.swap_remove(0));
        }
        mc.registry().counter(CTR_READ_DISAGREEMENTS).inc();
        let phys = mc.module().phys_of(row).index();
        let (t, bank) = (mc.now().as_ns(), u32::from(bank.index()));
        let (kind, fields) = (obs::TraceKind::Recovery, [("width", u64::from(width))]);
        mc.registry().trace(kind, t, bank, Some(phys), &fields, "read_disagreement");
        let flips: Vec<&[u32]> = samples.iter().map(RowReadout::flipped_bits).collect();
        let majority = majority_flips(&flips);
        Ok(samples.swap_remove(0).with_flips(majority))
    }

    /// Flips `bit` in each read whose index (0-based) is set in `reads`,
    /// and reports `severity`.
    #[derive(Debug)]
    struct Dissent {
        reads: u32,
        bit: u32,
        severity: u8,
        seen: u32,
    }

    impl softmc::FaultInjector for Dissent {
        fn on_read(&mut self, _: Bank, _: RowAddr, readout: &mut RowReadout, _: Nanos) {
            if self.reads >> self.seen & 1 == 1 {
                readout.inject_flip(self.bit);
            }
            self.seen += 1;
        }

        fn on_write(
            &mut self,
            _: Bank,
            _: RowAddr,
            _: &DataPattern,
            _: Nanos,
        ) -> softmc::WriteFault {
            softmc::WriteFault::None
        }

        fn on_tick(&mut self, _: Nanos, _: &mut dram_sim::Module) {}

        fn severity(&self) -> u8 {
            self.severity
        }
    }

    /// One voted-read scenario.
    #[derive(Debug, Clone, Copy)]
    struct Vote {
        severity: u8,
        /// The vote width (all mild votes are 3 wide).
        width: u8,
        /// Whether the row has decayed, so every sample reads flips.
        decayed: bool,
        /// The samples (bit `i` = sample `i`) that read one extra flip.
        dissent: u32,
        /// Whether the ladder's window stands one disagreeing vote short
        /// of widening.
        on_the_brink: bool,
    }

    type Observed = (RowReadout, Vec<(String, u64)>, Vec<obs::TraceEvent>, softmc::RecoveryLadder);

    /// Runs `vote` on a fresh traced controller through `read` and
    /// returns the readout, the counters, the trace and the ladder.
    fn observe(
        vote: Vote,
        read: fn(&mut MemoryController, Bank, RowAddr) -> Result<RowReadout, UtrrError>,
    ) -> Observed {
        let mut mc = controller();
        mc.registry().install_recorder(std::sync::Arc::new(obs::FlightRecorder::unfiltered()));
        let row = decaying_row(&mut mc);
        mc.write_row(BANK, row, DataPattern::Zeros).unwrap();
        if vote.decayed {
            mc.wait_no_refresh(Nanos::from_ms(2_000));
        }
        let dissent = Dissent { reads: vote.dissent, bit: 3, severity: vote.severity, seen: 0 };
        mc.set_fault_injector(Some(Box::new(dissent)));
        let ladder = mc.recovery_mut();
        if vote.severity > 1 {
            ladder.vote_width = vote.width;
        }
        if vote.on_the_brink {
            ladder.voted_reads = VOTE_WINDOW_MIN - 1;
            ladder.disagreements = VOTE_WINDOW_MIN - 1;
        }
        let readout = read(&mut mc, BANK, row).unwrap();
        mc.module_mut().flush_metrics();
        let counters = mc.registry().counters_snapshot();
        let (events, _) = mc.registry().recorder().unwrap().snapshot();
        (readout, counters, events, *mc.recovery())
    }

    #[test]
    fn voted_read_matches_its_reference_model() {
        let mut votes = vec![];
        for (severity, width) in [(1, 3), (2, 3), (2, 5), (2, 7)] {
            let minority = u32::from(width / 2);
            let last = |n: u32| ((1 << n) - 1) << (u32::from(width) - n);
            // Only a hostile ladder can stand on the brink of widening.
            let brinks: &[bool] = if severity > 1 { &[false, true] } else { &[false] };
            for decayed in [false, true] {
                // No dissent; one sample (first, second or last); the
                // largest minority and the smallest majority of the last
                // samples.
                for dissent in [0, 1, 2, last(1), last(minority), last(minority + 1)] {
                    for &on_the_brink in brinks {
                        votes.push(Vote { severity, width, decayed, dissent, on_the_brink });
                    }
                }
            }
        }
        for vote in votes {
            let got = observe(vote, read_row_voted);
            assert_eq!(got, observe(vote, read_row_voted_reference), "{vote:?}");
            // The scenario holds: a majority decides the flips, a dissent
            // disagrees, and a vote on the brink below width 7 widens.
            let (readout, counters, ..) = got;
            let count = |name| counters.iter().find(|(n, _)| n == name).map_or(0, |(_, v)| *v);
            let outvoted = vote.dissent.count_ones() <= u32::from(vote.width / 2);
            assert_eq!(readout.is_clean(), !vote.decayed && outvoted, "{vote:?}");
            let disagreed = u64::from(vote.dissent != 0);
            assert_eq!(count(CTR_READ_DISAGREEMENTS), disagreed, "{vote:?}");
            let widens = u64::from(vote.on_the_brink && vote.width < 7);
            assert_eq!(count(recovery::CTR_VOTE_WIDENINGS), widens, "{vote:?}");
        }
    }

    /// A row of [`controller`]'s module with a non-VRT weak cell that
    /// decays within 1.5 s.
    fn decaying_row(mc: &mut MemoryController) -> RowAddr {
        (0..256u32)
            .map(RowAddr::new)
            .find(|&r| {
                let view = mc.module_mut().inspect_row(BANK, r);
                view.weak_cells.iter().any(|&(_, ret, vrt)| !vrt && ret < Nanos::from_ms(1_500))
            })
            .expect("small_test banks have fast-decaying rows")
    }

    #[test]
    fn checked_write_retries_through_dropped_writes() {
        let mut mc = controller();
        // A dropped re-write is only observable when the stale contents
        // are dirty, so pick a row guaranteed to decay within the wait.
        let row = decaying_row(&mut mc);
        mc.write_row(BANK, row, DataPattern::Zeros).unwrap();
        // Decay the row so a dropped re-write is observable as dirt.
        mc.wait_no_refresh(Nanos::from_ms(2_000));
        let drop_two = Scripted { drop_writes: 2, severity: 1, ..Scripted::default() };
        mc.set_fault_injector(Some(Box::new(drop_two)));
        assert!(write_row_checked(&mut mc, BANK, row, &DataPattern::Zeros).unwrap());
        assert!(mc.registry().counter(CTR_WRITE_RETRIES).get() >= 1);
        mc.set_fault_injector(None);
        assert!(mc.read_row(BANK, row).unwrap().is_clean());
    }
}
