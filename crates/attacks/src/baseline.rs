//! Baseline RowHammer patterns: single-sided, double-sided, and
//! TRRespass-style many-sided.
//!
//! Footnote 18 of the paper: "When using the conventional single- and
//! double-sided RowHammer, we do not observe RowHammer bit flips in any
//! of the 45 DDR4 modules" — the baselines exist to demonstrate exactly
//! that against the planted TRR engines, and to flip bits on
//! TRR-less modules.
//!
//! Each baseline is an [`AccessPattern`] over one of the shared
//! [`schedulers`]: single-sided cascades, double-sided interleaves,
//! many-sided runs round robin.

use dram_sim::HammerOp;
use softmc::MemoryController;

use crate::pattern::{AccessPattern, AggressorLayout, PatternTarget, RowDose};
use crate::schedulers;

/// Repeatedly activate one aggressor row (Fig. 2a).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SingleSided {
    /// Hammers per interval.
    pub hammers: u64,
}

impl SingleSided {
    /// A full-budget single-sided hammer (~149 activations/interval).
    pub fn max_rate() -> Self {
        SingleSided { hammers: 149 }
    }
}

impl AccessPattern for SingleSided {
    fn name(&self) -> &str {
        "single-sided"
    }

    fn hammers_per_aggressor_per_ref(&self) -> f64 {
        self.hammers as f64
    }

    fn layout(&self, _mc: &MemoryController, target: &PatternTarget) -> AggressorLayout {
        AggressorLayout {
            aggressors: target
                .aggressors
                .first()
                .map(|&a| RowDose::new(a, self.hammers))
                .into_iter()
                .collect(),
            ..AggressorLayout::default()
        }
    }

    fn schedule(&self, layout: &AggressorLayout, _interval: u64, slots: &mut Vec<HammerOp>) {
        schedulers::cascade(layout, slots);
    }

    fn period(&self) -> u64 {
        1
    }
}

/// Alternately activate the two aggressors around the victim (Fig. 2b).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DoubleSided {
    /// Hammers per aggressor per interval.
    pub hammers_per_aggressor: u64,
}

impl DoubleSided {
    /// A full-budget double-sided hammer (74 + 74 activations/interval).
    pub fn max_rate() -> Self {
        DoubleSided { hammers_per_aggressor: 74 }
    }
}

impl AccessPattern for DoubleSided {
    fn name(&self) -> &str {
        "double-sided"
    }

    fn hammers_per_aggressor_per_ref(&self) -> f64 {
        self.hammers_per_aggressor as f64
    }

    fn layout(&self, _mc: &MemoryController, target: &PatternTarget) -> AggressorLayout {
        AggressorLayout {
            aggressors: target
                .aggressors
                .iter()
                .map(|&a| RowDose::new(a, self.hammers_per_aggressor))
                .collect(),
            ..AggressorLayout::default()
        }
    }

    fn schedule(&self, layout: &AggressorLayout, _interval: u64, slots: &mut Vec<HammerOp>) {
        schedulers::interleave(layout, slots);
    }

    fn period(&self) -> u64 {
        1
    }
}

/// TRRespass-style N-sided hammering: the two victim-adjacent aggressors
/// plus additional decoy aggressors further away, all hammered in an
/// interleaved round-robin — the "many sides" aim to overflow the TRR
/// tracker (§2.4).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ManySided {
    /// Total aggressor rows (≥ 2).
    pub sides: u32,
    /// Hammers per aggressor per interval.
    pub hammers_per_aggressor: u64,
}

impl ManySided {
    /// The 9-sided variant TRRespass found most effective on several
    /// parts, scaled to the per-interval budget. The `craft_attack`
    /// example runs it as the many-sided baseline.
    pub fn nine_sided() -> Self {
        ManySided { sides: 9, hammers_per_aggressor: 16 }
    }
}

impl AccessPattern for ManySided {
    fn name(&self) -> &str {
        "many-sided"
    }

    fn hammers_per_aggressor_per_ref(&self) -> f64 {
        self.hammers_per_aggressor as f64
    }

    fn layout(&self, _mc: &MemoryController, target: &PatternTarget) -> AggressorLayout {
        // Victim-adjacent aggressors first, decoys (from the dummy pool)
        // after; the round-robin schedule interleaves them one
        // activation at a time.
        let aggressors: Vec<RowDose> = target
            .aggressors
            .iter()
            .map(|&a| RowDose::new(a, self.hammers_per_aggressor))
            .collect();
        let decoys = target
            .dummies
            .iter()
            .copied()
            .take((self.sides as usize).saturating_sub(aggressors.len()))
            .map(|d| RowDose::new(d, self.hammers_per_aggressor))
            .collect();
        AggressorLayout { aggressors, dummies: decoys, other_bank: Vec::new() }
    }

    fn schedule(&self, layout: &AggressorLayout, _interval: u64, slots: &mut Vec<HammerOp>) {
        schedulers::round_robin(layout, slots);
    }

    fn period(&self) -> u64 {
        1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::{sweep_bank_module, EvalConfig};
    use dram_sim::{Bank, Module, ModuleConfig, PhysRow};
    use trr::CounterTrr;

    /// The tiny test physics has HC_first = 1000, which even a
    /// TRR-capped disturbance (≤ 18 REFs of full-rate double-sided
    /// hammering between detections) would exceed; raise it so the
    /// protected/unprotected contrast is meaningful, as on real parts.
    fn test_config() -> ModuleConfig {
        let mut config = ModuleConfig::small_test();
        config.physics.hc_first = 4_000.0;
        config
    }

    fn no_trr_module() -> Module {
        Module::new(test_config(), 21)
    }

    fn trr_module() -> Module {
        Module::with_engine(test_config(), Box::new(CounterTrr::a_trr1(2)), 21)
    }

    fn quick_eval(module: Module, pattern: &dyn AccessPattern) -> f64 {
        let positions: Vec<PhysRow> = (0..8).map(|i| PhysRow::new(200 + i * 60)).collect();
        let config =
            EvalConfig { positions, windows: 2, bank: Bank::new(0), ..EvalConfig::quick(8) };
        sweep_bank_module(module, pattern, &config).vulnerable_pct()
    }

    #[test]
    fn double_sided_defeats_unprotected_module() {
        let pct = quick_eval(no_trr_module(), &DoubleSided::max_rate());
        assert!(pct > 99.0, "no TRR → every row flips, got {pct}%");
    }

    #[test]
    fn double_sided_fails_against_counter_trr() {
        let pct = quick_eval(trr_module(), &DoubleSided::max_rate());
        assert_eq!(pct, 0.0, "footnote 18: conventional hammering yields nothing");
    }

    #[test]
    fn single_sided_fails_against_counter_trr() {
        let pct = quick_eval(trr_module(), &SingleSided::max_rate());
        assert_eq!(pct, 0.0);
    }

    #[test]
    fn many_sided_also_fails_against_16_entry_counter_table() {
        // TRRespass cannot circumvent A_TRRx ("simply increasing the
        // number of aggressor rows is not sufficient", §1): nine sides
        // do not reliably push both aggressors out of a 16-entry LRU.
        let pct = quick_eval(trr_module(), &ManySided::nine_sided());
        assert!(pct < 50.0, "many-sided must underperform the custom pattern, got {pct}%");
    }

    #[test]
    fn pattern_names_and_rates() {
        assert_eq!(SingleSided::max_rate().name(), "single-sided");
        assert_eq!(DoubleSided::max_rate().name(), "double-sided");
        assert_eq!(DoubleSided::max_rate().hammers_per_aggressor_per_ref(), 74.0);
        assert_eq!(ManySided::nine_sided().sides, 9);
    }
}
