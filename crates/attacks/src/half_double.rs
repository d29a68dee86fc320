//! The Half-Double access pattern (Google Project Zero, 2021 — cited in
//! the paper’s related work as reference 97).
//!
//! Half-Double hammers rows at physical distance *two* from the victim,
//! heavily, plus a light "assist" dose on the distance-one rows. A TRR
//! that refreshes only the immediate (±1) neighbours of whatever it
//! detects then works *for* the attacker: detecting the far aggressors
//! refreshes the near rows, and each of those refreshes internally
//! activates a near row — disturbing the victim. The victim itself is
//! never adjacent to a detected aggressor, so it is never refreshed.
//!
//! This makes Half-Double a sharp differentiator for the paper's
//! Observation A2: vendor A's A_TRR1 refreshes ±1 *and* ±2 around a
//! detected aggressor — which reaches the Half-Double victim and blocks
//! the attack — while its newer A_TRR2 (±1 only) and the vendor-B
//! samplers fall to it with **no dummy-row diversion at all**. The test
//! suite pins exactly that contrast.

use dram_sim::HammerOp;
use softmc::MemoryController;

use crate::pattern::{AccessPattern, AggressorLayout, PatternTarget, RowDose};
use crate::schedulers;

/// The Half-Double pattern: heavy far (distance-2) hammering with a
/// light near (distance-1) assist. No repro binary runs it; it stays as
/// the Obs. A2 contrast its unit tests check, and `builder_equiv` pins
/// its digests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HalfDouble {
    /// Interleaved pairs on the distance-2 rows per interval.
    pub far_pairs: u64,
    /// Interleaved pairs on the distance-1 rows per interval.
    pub near_pairs: u64,
}

impl AccessPattern for HalfDouble {
    fn name(&self) -> &str {
        "half-double"
    }

    fn hammers_per_aggressor_per_ref(&self) -> f64 {
        self.far_pairs as f64
    }

    fn init_rows(&self, target: &PatternTarget) -> Vec<dram_sim::RowAddr> {
        // The far rows are the real aggressors; touching the near rows
        // even once would plant them in persistent trackers whose
        // pointer walk then refreshes the victim as their neighbour.
        target
            .aggressors
            .iter()
            .flat_map(|&a| [a.index().checked_sub(1).map(dram_sim::RowAddr::new), Some(a.plus(1))])
            .flatten()
            .filter(|r| r.index().abs_diff(target.victim.index()) == 2)
            .collect()
    }

    fn layout(&self, mc: &MemoryController, target: &PatternTarget) -> AggressorLayout {
        // Far rows: the victim's ±2 neighbours, derived from the near
        // aggressors the target builder found (±1 of the victim). Both
        // pairs go to the interleave schedule: the far pair first, the
        // near assist pair after. A victim too close to the bank edge
        // for a far pair yields an empty layout (no hammering at all).
        let module = mc.module();
        let victim_phys = module.phys_of(target.victim).index();
        let rows = module.geometry().rows_per_bank;
        let (Some(far_up), far_down) = (victim_phys.checked_sub(2), victim_phys + 2) else {
            return AggressorLayout::default();
        };
        if far_down >= rows {
            return AggressorLayout::default();
        }
        let far_up = module.logical_of(dram_sim::PhysRow::new(far_up));
        let far_down = module.logical_of(dram_sim::PhysRow::new(far_down));
        let mut aggressors =
            vec![RowDose::new(far_up, self.far_pairs), RowDose::new(far_down, self.far_pairs)];
        if let [near_up, near_down] = target.aggressors[..] {
            aggressors.push(RowDose::new(near_up, self.near_pairs));
            aggressors.push(RowDose::new(near_down, self.near_pairs));
        }
        AggressorLayout { aggressors, ..AggressorLayout::default() }
    }

    fn schedule(&self, layout: &AggressorLayout, _interval: u64, slots: &mut Vec<HammerOp>) {
        schedulers::interleave(layout, slots);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::{sweep_bank_module, EvalConfig};
    use dram_sim::Module;
    use trr::{CounterTrr, SamplerTrr};
    use utrr_modules::by_id;

    /// The standard configuration: the whole interval on the far rows.
    /// Direct near-row hammering is left at zero — against trackers with
    /// a pointer walk (vendor A's TREF_b), hammered near rows enter the
    /// table and their eventual detection refreshes ±1 of *them*, i.e.
    /// the victim. The near rows still get activated, by the TRR
    /// mechanism itself: every detection of a far aggressor refreshes
    /// (internally activates) the near rows, which is the Half-Double
    /// amplification loop.
    const STANDARD: HalfDouble = HalfDouble { far_pairs: 70, near_pairs: 0 };

    fn vulnerable_pct(module: Module) -> f64 {
        let config = EvalConfig { sample_count: 16, windows: 2, ..EvalConfig::quick(16) };
        sweep_bank_module(module, &STANDARD, &config).vulnerable_pct()
    }

    #[test]
    fn half_double_defeats_plus_minus_one_trr() {
        // A_TRR2 refreshes only ±1: the far aggressors' detections
        // refresh the near rows, never the victim.
        let spec = by_id("A13").unwrap();
        let config = spec.build_scaled(2_048, 5).config().clone();
        let module = Module::with_engine(config, Box::new(CounterTrr::a_trr2(spec.banks)), 5);
        let pct = vulnerable_pct(module);
        assert!(pct > 60.0, "±1 TRR must fall to Half-Double, got {pct}%");
    }

    #[test]
    fn half_double_is_blocked_by_plus_minus_two_trr() {
        // A_TRR1 refreshes ±2 as well — reaching the Half-Double victim.
        // The paper conjectures this protects "against the probability
        // that RowHammer bit flips can occur in victim rows that are two
        // rows apart from the aggressor rows" (Obs. A2).
        let spec = by_id("A13").unwrap();
        let config = spec.build_scaled(2_048, 5).config().clone();
        let module = Module::with_engine(config, Box::new(CounterTrr::a_trr1(spec.banks)), 5);
        let pct = vulnerable_pct(module);
        assert_eq!(pct, 0.0, "±2 TRR must block Half-Double, got {pct}%");
    }

    #[test]
    fn half_double_defeats_the_sampler() {
        // B_TRR1 refreshes ±1 of the sampled row: the heavily hammered
        // far rows dominate the register; the victim is never refreshed.
        let spec = by_id("B13").unwrap(); // low HC_first keeps the test fast
        let config = spec.build_scaled(2_048, 5).config().clone();
        let module = Module::with_engine(config, Box::new(SamplerTrr::b_trr1(spec.banks, 9)), 5);
        let pct = vulnerable_pct(module);
        assert!(pct > 60.0, "±1 sampler TRR must fall to Half-Double, got {pct}%");
    }

    #[test]
    fn standard_budget_fits_the_interval() {
        let p = STANDARD;
        assert!(2 * p.far_pairs + 2 * p.near_pairs <= 149);
        assert_eq!(p.name(), "half-double");
        assert_eq!(p.hammers_per_aggressor_per_ref(), 70.0);
    }
}
