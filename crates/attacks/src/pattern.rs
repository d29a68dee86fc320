//! The access-pattern abstraction shared by baselines and custom
//! patterns.
//!
//! A pattern describes what the attacker does *between two `REF`
//! commands* (one `tREFI` interval); the evaluation harness issues the
//! `REF`s at the vendor-mandated rate and paces simulated time, exactly
//! like the paper's SoftMC programs, which "execute each custom access
//! pattern for a fixed interval of time, while also issuing REF commands
//! once every 7.8 µs to comply with the vendor-specified default refresh
//! rate" (§7.2).

use dram_sim::{Bank, HammerOp, PhysRow, RowAddr, Topology};
use softmc::MemoryController;

/// Single-bank activation budget between two `REF`s (footnote 10).
pub(crate) const INTERVAL_BUDGET: u64 = 149;

/// One row of the attack layout together with its per-interval
/// activation dose.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RowDose {
    /// Logical row address.
    pub row: RowAddr,
    /// Activations this row receives per scheduled interval.
    pub acts: u64,
}

impl RowDose {
    /// Convenience constructor.
    pub fn new(row: RowAddr, acts: u64) -> Self {
        RowDose { row, acts }
    }
}

/// A pattern's answer for one victim position: which rows to drive and
/// how hard. [`AccessPattern::schedule`] turns it into per-interval
/// [`HammerOp`]s.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AggressorLayout {
    /// True aggressors, in hammering order.
    pub aggressors: Vec<RowDose>,
    /// Same-bank dummy rows (tracker eviction, sampler stealing, window
    /// exhaustion), in hammering order.
    pub dummies: Vec<RowDose>,
    /// Dummy rows in other banks, for sampler-stealing diversions that
    /// overlap the target bank's timing.
    pub other_bank: Vec<(Bank, RowDose)>,
}

/// Everything a pattern needs to know about one victim position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PatternTarget {
    /// Bank under attack.
    pub bank: Bank,
    /// The victim row whose bit flips the evaluation counts.
    pub victim: RowAddr,
    /// Aggressor rows (logical addresses physically adjacent to the
    /// victim; a single row on paired-topology parts).
    pub aggressors: Vec<RowAddr>,
    /// Same-bank dummy rows, far from the victim.
    pub dummies: Vec<RowAddr>,
    /// Dummy rows in other banks (for sampler-stealing patterns).
    pub other_bank_dummies: Vec<(Bank, RowAddr)>,
}

impl PatternTarget {
    /// Builds the target for a victim position: aggressors are the
    /// victim's physical neighbours under the module's mapping and
    /// topology, same-bank dummies keep a safety distance of 100 rows,
    /// and one dummy row is picked in each of up to four other banks.
    pub(crate) fn for_victim(mc: &MemoryController, bank: Bank, victim_phys: PhysRow) -> Self {
        let module = mc.module();
        let geometry = module.geometry();
        let victim = module.logical_of(victim_phys);
        let aggressors = match module.config().topology {
            Topology::Paired => {
                let pair = victim_phys.index() ^ 1;
                if pair < geometry.rows_per_bank {
                    vec![module.logical_of(PhysRow::new(pair))]
                } else {
                    vec![]
                }
            }
            Topology::Linear => {
                let v = victim_phys.index();
                [v.checked_sub(1), (v + 1 < geometry.rows_per_bank).then_some(v + 1)]
                    .into_iter()
                    .flatten()
                    .map(|p| module.logical_of(PhysRow::new(p)))
                    .collect()
            }
        };
        let mut avoid = vec![victim];
        avoid.extend(aggressors.iter().copied());
        let dummies = mc.pick_dummy_rows(&avoid, 100, 16);
        let other_bank_dummies = (0..geometry.banks)
            .filter(|&b| b != bank.index())
            .take(4)
            .map(|b| (Bank::new(b), RowAddr::new(geometry.rows_per_bank / 2)))
            .collect();
        PatternTarget { bank, victim, aggressors, dummies, other_bank_dummies }
    }
}

/// One RowHammer access pattern: which rows it hammers, how many times,
/// and when relative to the TRR-capable `REF`.
///
/// Every attack — the baselines, the §7.1 customs and the fuzzer's
/// candidates — implements this trait directly; the shared
/// timing shapes live in [`crate::schedulers`].
///
/// Implementations must stay within one bank's activation budget per
/// interval (~149 activations for standard DDR4 timings) on the target
/// bank; concurrent other-bank activity goes through
/// [`HammerOp::OtherBank`], which does not advance the device clock.
pub trait AccessPattern {
    /// A short identifier used in reports.
    fn name(&self) -> &str;

    /// Average hammers issued to a single aggressor row between two
    /// `REF`s — the x-axis of the paper's Fig. 8.
    fn hammers_per_aggressor_per_ref(&self) -> f64;

    /// The rows this pattern drives for `target` and their
    /// per-interval doses — resolved once per victim position.
    fn layout(&self, mc: &MemoryController, target: &PatternTarget) -> AggressorLayout;

    /// Appends one `tREFI` interval's accesses to `slots` (cleared by
    /// the caller), which the harness issues as one
    /// [`dram_sim::Module::hammer_batch`]. `interval` counts intervals
    /// since power-on (equal to the device's `REF` count), so patterns
    /// can synchronize with the TRR-capable-`REF` cadence the way the
    /// paper's attacker does via SMASH-style timing channels.
    fn schedule(&self, layout: &AggressorLayout, interval: u64, slots: &mut Vec<HammerOp>);
}

#[cfg(test)]
mod tests {
    use super::*;
    use dram_sim::{Module, ModuleConfig};

    #[test]
    fn zero_dose_ops_are_device_noops() {
        let mut mc = MemoryController::new(Module::new(ModuleConfig::small_test(), 3));
        let (now, refs) = (mc.now(), mc.module().ref_count());
        let acts_before = mc.module().activations();
        let ops = [
            HammerOp::Burst { row: RowAddr::new(10), acts: 0 },
            HammerOp::Pair { first: RowAddr::new(10), second: RowAddr::new(12), pairs: 0 },
            HammerOp::OtherBank { bank: Bank::new(1), row: RowAddr::new(10), acts: 0 },
        ];
        mc.module_mut().hammer_batch(Bank::new(0), &ops).unwrap();
        assert_eq!((mc.now(), mc.module().ref_count()), (now, refs));
        assert_eq!(mc.module().activations(), acts_before);
    }

    #[test]
    fn target_builder_linear() {
        let mc = MemoryController::new(Module::new(ModuleConfig::small_test(), 5));
        let t = PatternTarget::for_victim(&mc, Bank::new(0), PhysRow::new(500));
        assert_eq!(t.victim, RowAddr::new(500));
        assert_eq!(t.aggressors, vec![RowAddr::new(499), RowAddr::new(501)]);
        assert_eq!(t.dummies.len(), 16);
        for d in &t.dummies {
            assert!(d.index().abs_diff(500) >= 100);
        }
        assert_eq!(t.other_bank_dummies.len(), 1); // tiny module: 2 banks
        assert_eq!(t.other_bank_dummies[0].0, Bank::new(1));
    }

    #[test]
    fn target_builder_paired() {
        let mut config = ModuleConfig::small_test();
        config.topology = Topology::Paired;
        let mc = MemoryController::new(Module::new(config, 5));
        let t = PatternTarget::for_victim(&mc, Bank::new(0), PhysRow::new(500));
        assert_eq!(t.aggressors, vec![RowAddr::new(501)]);
        let t = PatternTarget::for_victim(&mc, Bank::new(0), PhysRow::new(501));
        assert_eq!(t.aggressors, vec![RowAddr::new(500)]);
    }

    #[test]
    fn target_builder_edge_rows() {
        let mc = MemoryController::new(Module::new(ModuleConfig::small_test(), 5));
        let t = PatternTarget::for_victim(&mc, Bank::new(0), PhysRow::new(0));
        assert_eq!(t.aggressors, vec![RowAddr::new(1)]);
        let last = mc.module().geometry().rows_per_bank - 1;
        let t = PatternTarget::for_victim(&mc, Bank::new(0), PhysRow::new(last));
        assert_eq!(t.aggressors, vec![RowAddr::new(last - 1)]);
    }

    #[test]
    fn target_respects_scrambled_mapping() {
        let mut config = ModuleConfig::small_test();
        config.mapping = dram_sim::RowMapping::block_mirror(3);
        let mc = MemoryController::new(Module::new(config, 5));
        // Physical 100's neighbours are physical 99 and 101; their
        // logical images under the mirror.
        let t = PatternTarget::for_victim(&mc, Bank::new(0), PhysRow::new(100));
        let m = mc.module();
        assert_eq!(
            t.aggressors,
            vec![m.logical_of(PhysRow::new(99)), m.logical_of(PhysRow::new(101))]
        );
    }
}
