//! The controller-side fault-injection interface.
//!
//! Real SoftMC experiments run against hardware that misbehaves:
//! transient bus errors corrupt readouts, commands get dropped, and the
//! environment (temperature, VRT weather) shifts under the experiment.
//! A [`FaultInjector`] models exactly that boundary: it sits between
//! the [`MemoryController`](crate::MemoryController) and the device and
//! may corrupt completed reads, drop or garble writes, and evolve
//! environmental conditions as simulated time passes.
//!
//! The trait lives here (not in the `faults` crate that implements the
//! deterministic fault plans) so that `softmc` does not depend on its
//! own fault vocabulary's consumer — the controller only needs the
//! interface. When no injector is installed the controller takes the
//! exact same code paths as before the interface existed, so fault-free
//! runs are bit-for-bit identical.

use dram_sim::{Bank, DataPattern, Module, Nanos, RowAddr, RowReadout};

/// What a fault injector decides to do with an in-flight row write.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WriteFault {
    /// The write proceeds untouched.
    None,
    /// The write is silently dropped: the command never reaches the
    /// array, leaving the row's previous contents (and its running
    /// decay window) in place.
    Dropped,
    /// The write lands, but with a different pattern than requested —
    /// a garbled transfer.
    Garbled(DataPattern),
}

/// Injects deterministic faults at the controller/device boundary.
///
/// Installed via
/// [`MemoryController::set_fault_injector`](crate::MemoryController::set_fault_injector).
/// Implementations must be deterministic functions of the command
/// sequence (seeded RNG, simulated time) so that runs remain
/// reproducible — the point is a *repeatable* hostile substrate.
pub trait FaultInjector: std::fmt::Debug {
    /// Possibly corrupts the readout of a completed row read. The
    /// device's stored state is untouched — only the data in flight.
    fn on_read(&mut self, bank: Bank, row: RowAddr, readout: &mut RowReadout, now: Nanos);

    /// Decides the fate of an impending row write.
    fn on_write(
        &mut self,
        bank: Bank,
        row: RowAddr,
        pattern: DataPattern,
        now: Nanos,
    ) -> WriteFault;

    /// Called after simulated time passes in bulk (waits, paced refresh
    /// bursts) so the injector can evolve environmental
    /// conditions — retention drift, VRT burst episodes — by mutating
    /// the device directly.
    fn on_tick(&mut self, now: Nanos, module: &mut Module);

    /// How aggressive the injected substrate is, on a coarse ordinal
    /// scale: `1` (the default) for substrates the baseline self-healing
    /// (voting, bounded retries) absorbs, `2` and up for hostile
    /// substrates that warrant escalating recovery — adaptive vote
    /// widths, candidate relocation, mid-run drift re-profiling. The
    /// pipeline keys its recovery ladder off this value so that milder
    /// profiles keep their exact command streams.
    fn severity(&self) -> u8 {
        1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MemoryController;
    use dram_sim::ModuleConfig;

    /// A scripted injector: flips one fixed bit on every read, drops
    /// every `drop_nth` write, and counts ticks.
    #[derive(Debug, Default)]
    struct Scripted {
        reads: u64,
        writes: u64,
        ticks: u64,
        drop_every: u64,
    }

    impl FaultInjector for Scripted {
        fn on_read(&mut self, _: Bank, _: RowAddr, readout: &mut RowReadout, _: Nanos) {
            self.reads += 1;
            readout.inject_flip(7);
        }

        fn on_write(&mut self, _: Bank, _: RowAddr, _: DataPattern, _: Nanos) -> WriteFault {
            self.writes += 1;
            if self.drop_every > 0 && self.writes.is_multiple_of(self.drop_every) {
                WriteFault::Dropped
            } else {
                WriteFault::None
            }
        }

        fn on_tick(&mut self, _: Nanos, _: &mut Module) {
            self.ticks += 1;
        }
    }

    #[test]
    fn read_hook_corrupts_the_readout_not_the_cell() {
        let mut mc = MemoryController::new(Module::new(ModuleConfig::small_test(), 3));
        mc.set_fault_injector(Some(Box::new(Scripted::default())));
        let bank = Bank::new(0);
        let row = RowAddr::new(10);
        mc.write_row(bank, row, DataPattern::Ones).unwrap();
        let corrupted = mc.read_row(bank, row).unwrap();
        assert_eq!(corrupted.flipped_bits(), &[7], "injected transient flip");
        // The cell itself is clean: remove the injector and re-read.
        mc.set_fault_injector(None);
        assert_eq!(mc.fault_severity(), 0);
        assert!(mc.read_row(bank, row).unwrap().is_clean());
    }

    #[test]
    fn dropped_write_leaves_previous_contents() {
        let module = Module::new(ModuleConfig::small_test(), 3);
        let mut mc = MemoryController::new(module);
        let bank = Bank::new(0);
        let row = RowAddr::new(20);
        mc.write_row(bank, row, DataPattern::Ones).unwrap();
        mc.set_fault_injector(Some(Box::new(Scripted { drop_every: 1, ..Scripted::default() })));
        mc.write_row(bank, row, DataPattern::Zeros).unwrap();
        mc.set_fault_injector(None);
        let readout = mc.read_row(bank, row).unwrap();
        assert_eq!(readout.pattern(), DataPattern::Ones, "write must have been dropped");
    }

    #[test]
    fn ticks_fire_on_waits_and_refresh() {
        let mut mc = MemoryController::new(Module::new(ModuleConfig::small_test(), 3));
        mc.set_fault_injector(Some(Box::new(Scripted::default())));
        mc.wait_no_refresh(Nanos::from_ms(1));
        mc.refresh(4);
        mc.refresh(128);
        let stats = format!("{mc:?}");
        assert!(stats.contains("ticks: 3"), "one tick per bulk time step: {stats}");
    }
}
