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
use crate::recovery::{self, RecoveryPolicy};

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
    if width == 1 {
        return Ok(mc.read_row(bank, row)?);
    }
    let mut samples = Vec::with_capacity(usize::from(width));
    for _ in 0..width {
        samples.push(mc.read_row(bank, row)?);
    }
    mc.registry().counter(CTR_VOTED_READS).inc();
    let unanimous = samples.windows(2).all(|pair| pair[0].flipped_bits() == pair[1].flipped_bits());
    recovery::note_vote(mc, &policy, bank, row, !unanimous);
    if unanimous {
        return Ok(samples.swap_remove(0));
    }
    let width = ("width", u64::from(width));
    record(mc, CTR_READ_DISAGREEMENTS, bank, row, width, "read_disagreement");
    let flips: Vec<&[u32]> = samples.iter().map(RowReadout::flipped_bits).collect();
    let majority = majority_flips(&flips);
    Ok(samples.swap_remove(0).with_flips(majority))
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
            record(mc, CTR_WRITE_RETRIES, bank, row, field, "write_retry");
        }
    }
    record(mc, CTR_WRITE_GIVEUPS, bank, row, ("attempts", u64::from(attempts)), "write_giveup");
    Ok(false)
}

/// Bumps `counter` and emits a `recovery` trace event on `row` carrying
/// `field`.
fn record(
    mc: &MemoryController,
    counter: &str,
    bank: Bank,
    row: RowAddr,
    field: (&str, u64),
    detail: &str,
) {
    mc.registry().counter(counter).inc();
    let phys = mc.module().phys_of(row).index();
    let (t, bank) = (mc.now().as_ns(), u32::from(bank.index()));
    mc.registry().trace(obs::TraceKind::Recovery, t, bank, Some(phys), &[field], detail);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recovery::tests::{controller_at, Scripted};
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

    #[test]
    fn checked_write_retries_through_dropped_writes() {
        let mut mc = controller();
        // A dropped re-write is only observable when the stale contents
        // are dirty, so pick a row guaranteed to decay within the wait.
        let row = (0..256u32)
            .map(RowAddr::new)
            .find(|&r| {
                let view = mc.module_mut().inspect_row(BANK, r);
                view.weak_cells.iter().any(|&(_, ret, vrt)| !vrt && ret < Nanos::from_ms(1_500))
            })
            .expect("small_test banks have fast-decaying rows");
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
