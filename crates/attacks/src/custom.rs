//! The §7.1 custom RowHammer access patterns, crafted from the U-TRR
//! findings to keep TRR from refreshing the aggressors' victims.
//!
//! Each vendor pattern is an [`AccessPattern`] over its shared schedule
//! (vendor A cascades, B and C are REF-synchronised); the
//! [`pattern_for`] / [`pattern_with_hammers`] factories pick one per
//! module for Table 1 and the Fig. 8 sweep.

use dram_sim::HammerOp;
use softmc::MemoryController;
use utrr_modules::{ModuleSpec, Vendor};

use crate::pattern::{AccessPattern, AggressorLayout, PatternTarget, RowDose, INTERVAL_BUDGET};
use crate::schedulers;

/// Vendor A: hammer the two aggressors right after a `REF`, then insert
/// 16 dummy rows to push the aggressors out of the per-bank 16-entry
/// counter table before the TRR-capable `REF` arrives. "The particular
/// access pattern that leads to the largest number of bit flips is
/// hammering A0 and A1 24 times each, followed by hammering 16 dummy
/// rows 6 times each."
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VendorAPattern {
    /// Back-to-back hammers per aggressor per interval (paper optimum:
    /// 24–26).
    pub aggressor_hammers: u64,
    /// Dummy rows inserted after the aggressors (16 = the table size).
    pub dummy_rows: usize,
    /// Hammers per dummy row (enough to fit the remaining budget).
    pub dummy_hammers: u64,
}

impl VendorAPattern {
    /// The paper's best configuration: 24 + 24 aggressor hammers, 16
    /// dummies × 6.
    pub fn paper_optimum() -> Self {
        VendorAPattern { aggressor_hammers: 24, dummy_rows: 16, dummy_hammers: 6 }
    }

    /// A configuration with a different aggressor hammer count, dummy
    /// rows and hammers adjusted to the remaining interval budget (the
    /// Fig. 8 sweep). Beyond ~66 hammers per aggressor the budget no
    /// longer fits 16 dummy insertions and the attack collapses — the
    /// over-hammering decline of Fig. 8.
    pub fn with_aggressor_hammers(hammers: u64) -> Self {
        let remaining = INTERVAL_BUDGET.saturating_sub(2 * hammers);
        let dummy_rows = remaining.min(16) as usize;
        VendorAPattern {
            aggressor_hammers: hammers,
            dummy_rows,
            dummy_hammers: if dummy_rows == 0 { 0 } else { (remaining / dummy_rows as u64).max(1) },
        }
    }
}

impl AccessPattern for VendorAPattern {
    fn name(&self) -> &str {
        "custom-vendor-A"
    }

    fn hammers_per_aggressor_per_ref(&self) -> f64 {
        self.aggressor_hammers as f64
    }

    fn layout(&self, _mc: &MemoryController, target: &PatternTarget) -> AggressorLayout {
        // Cascaded aggressor hammering: interleaving two non-resident
        // rows would let each insertion evict the other from the LRU
        // table (§5.2: "cascaded hammering is more effective at evading
        // the TRR mechanism") — hence the cascade schedule.
        AggressorLayout {
            aggressors: target
                .aggressors
                .iter()
                .map(|&a| RowDose::new(a, self.aggressor_hammers))
                .collect(),
            dummies: target
                .dummies
                .iter()
                .take(self.dummy_rows)
                .map(|&d| RowDose::new(d, self.dummy_hammers))
                .collect(),
            other_bank: Vec::new(),
        }
    }

    fn schedule(&self, layout: &AggressorLayout, _interval: u64, slots: &mut Vec<HammerOp>) {
        schedulers::cascade(layout, slots);
    }

    fn period(&self) -> u64 {
        1
    }
}

/// Vendor B: hammer the aggressors at full rate in the intervals after a
/// TRR-capable `REF`, then spend the final interval before the next
/// TRR-capable `REF` hammering dummy rows (in four other banks for the
/// chip-wide sampler of B_TRR1/2; in the aggressor bank for the per-bank
/// sampler of B_TRR3 — footnote 13) so the sampler's register holds a
/// dummy when TRR fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VendorBPattern {
    /// TRR-to-REF ratio of the target module (4, 9, or 2).
    pub ratio: u64,
    /// Whether the module samples per bank (B_TRR3).
    pub per_bank_sampler: bool,
    /// Aggressor hammers per aggressor per *hammering* interval.
    pub hammers_per_interval: u64,
    /// Dummy activations per dummy row in the diversion interval.
    pub dummy_hammers: u64,
}

impl VendorBPattern {
    /// The paper's configuration for a module: full-budget aggressor
    /// intervals (≈ 220 hammers per aggressor per 4-REF window on
    /// B_TRR1) and 156 hammers per dummy row in the diversion interval.
    pub(crate) fn for_module(spec: &ModuleSpec) -> Self {
        VendorBPattern {
            ratio: spec.trr_to_ref_ratio,
            per_bank_sampler: spec.per_bank_trr,
            hammers_per_interval: INTERVAL_BUDGET / 2,
            dummy_hammers: 156,
        }
    }

    /// Scales the aggressor rate for the Fig. 8 sweep. `hammers` is the
    /// average per-aggressor hammer count per REF; the diversion
    /// interval keeps its dummy budget.
    pub(crate) fn with_hammers_per_ref(spec: &ModuleSpec, hammers: f64) -> Self {
        let ratio = spec.trr_to_ref_ratio;
        let per_interval = (hammers * ratio as f64 / (ratio - 1).max(1) as f64) as u64;
        VendorBPattern {
            ratio,
            per_bank_sampler: spec.per_bank_trr,
            hammers_per_interval: per_interval.min(INTERVAL_BUDGET / 2),
            dummy_hammers: 156,
        }
    }
}

impl AccessPattern for VendorBPattern {
    fn name(&self) -> &str {
        "custom-vendor-B"
    }

    fn hammers_per_aggressor_per_ref(&self) -> f64 {
        self.hammers_per_interval as f64 * (self.ratio - 1).max(1) as f64 / self.ratio as f64
    }

    fn layout(&self, _mc: &MemoryController, target: &PatternTarget) -> AggressorLayout {
        let (dummies, other_bank) = if self.per_bank_sampler {
            // The per-bank sampler only sees its own bank: divert with a
            // full-budget burst on one same-bank dummy (when the bank is
            // big enough to offer one).
            let dummies = target
                .dummies
                .first()
                .map(|&d| RowDose::new(d, INTERVAL_BUDGET))
                .into_iter()
                .collect();
            (dummies, Vec::new())
        } else {
            let other_bank = target
                .other_bank_dummies
                .iter()
                .take(4)
                .map(|&(bank, d)| (bank, RowDose::new(d, self.dummy_hammers)))
                .collect();
            (Vec::new(), other_bank)
        };
        AggressorLayout {
            aggressors: target
                .aggressors
                .iter()
                .map(|&a| RowDose::new(a, self.hammers_per_interval))
                .collect(),
            dummies,
            other_bank,
        }
    }

    fn schedule(&self, layout: &AggressorLayout, interval: u64, slots: &mut Vec<HammerOp>) {
        schedulers::ref_sync(self.ratio, layout, interval, slots);
    }

    fn period(&self) -> u64 {
        self.ratio.max(1)
    }
}

/// Vendor C: right after a TRR-induced refresh, fill the detector's
/// capture horizon with dummy activations, then hammer the aggressors
/// for the rest of the window ("it is critical to synchronize the dummy
/// and aggressor row hammers with TRR-enabled REF commands").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VendorCPattern {
    /// TRR-to-REF ratio of the target module (17, 9, or 8).
    pub ratio: u64,
    /// Dummy activations at the start of each TRR window (paper: ≥ 252).
    pub dummy_acts: u64,
    /// Hammers per aggressor per hammering interval.
    pub hammers_per_interval: u64,
}

impl VendorCPattern {
    /// A robust configuration: 320 window-opening dummy activations,
    /// full-budget aggressor hammering afterwards.
    pub(crate) fn for_module(spec: &ModuleSpec) -> Self {
        VendorCPattern {
            ratio: spec.trr_to_ref_ratio,
            dummy_acts: 320,
            hammers_per_interval: INTERVAL_BUDGET / 2,
        }
    }

    /// Scales the aggressor rate for the Fig. 8 sweep (dummy budget
    /// fixed).
    pub(crate) fn with_hammers_per_ref(spec: &ModuleSpec, hammers: f64) -> Self {
        let ratio = spec.trr_to_ref_ratio;
        let dummy_intervals = (320.0 / INTERVAL_BUDGET as f64).ceil();
        let hammer_intervals = (ratio as f64 - dummy_intervals).max(1.0);
        VendorCPattern {
            ratio,
            dummy_acts: 320,
            hammers_per_interval: ((hammers * ratio as f64 / hammer_intervals) as u64)
                .min(INTERVAL_BUDGET / 2),
        }
    }
}

impl AccessPattern for VendorCPattern {
    fn name(&self) -> &str {
        "custom-vendor-C"
    }

    fn hammers_per_aggressor_per_ref(&self) -> f64 {
        let dummy_intervals = (self.dummy_acts as f64 / INTERVAL_BUDGET as f64).ceil();
        self.hammers_per_interval as f64 * (self.ratio as f64 - dummy_intervals).max(0.0)
            / self.ratio as f64
    }

    fn layout(&self, _mc: &MemoryController, target: &PatternTarget) -> AggressorLayout {
        AggressorLayout {
            aggressors: target
                .aggressors
                .iter()
                .map(|&a| RowDose::new(a, self.hammers_per_interval))
                .collect(),
            // The window-opening dummy burst; the schedule portions the
            // total `dummy_acts` dose across the window's intervals.
            dummies: target
                .dummies
                .first()
                .map(|&d| RowDose::new(d, self.dummy_acts))
                .into_iter()
                .collect(),
            other_bank: Vec::new(),
        }
    }

    fn schedule(&self, layout: &AggressorLayout, interval: u64, slots: &mut Vec<HammerOp>) {
        schedulers::window_sync(self.ratio, self.dummy_acts, layout, interval, slots);
    }

    fn period(&self) -> u64 {
        self.ratio.max(1)
    }
}

/// Builds the paper's custom pattern for a Table-1 module.
pub fn pattern_for(spec: &ModuleSpec) -> Box<dyn AccessPattern> {
    match spec.vendor {
        Vendor::A => Box::new(VendorAPattern::paper_optimum()),
        Vendor::B => Box::new(VendorBPattern::for_module(spec)),
        Vendor::C => Box::new(VendorCPattern::for_module(spec)),
    }
}

/// Builds a pattern with a swept per-aggressor hammer rate (Fig. 8).
pub fn pattern_with_hammers(spec: &ModuleSpec, hammers_per_ref: f64) -> Box<dyn AccessPattern> {
    match spec.vendor {
        Vendor::A => Box::new(VendorAPattern::with_aggressor_hammers(hammers_per_ref as u64)),
        Vendor::B => Box::new(VendorBPattern::with_hammers_per_ref(spec, hammers_per_ref)),
        Vendor::C => Box::new(VendorCPattern::with_hammers_per_ref(spec, hammers_per_ref)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use utrr_modules::by_id;

    #[test]
    fn paper_optimum_fits_the_interval_budget() {
        let p = VendorAPattern::paper_optimum();
        assert!(2 * p.aggressor_hammers + p.dummy_rows as u64 * p.dummy_hammers <= INTERVAL_BUDGET);
        assert_eq!(p.hammers_per_aggressor_per_ref(), 24.0);
    }

    #[test]
    fn vendor_a_sweep_scales_dummies() {
        let p = VendorAPattern::with_aggressor_hammers(60);
        assert_eq!(p.aggressor_hammers, 60);
        assert_eq!(p.dummy_hammers, (149 - 120) / 16);
    }

    #[test]
    fn vendor_b_matches_paper_arithmetic() {
        // B_TRR1: three 74-pair intervals per 4-REF window ≈ 220 hammers
        // per aggressor per window ≈ 55 per REF.
        let p = VendorBPattern::for_module(&by_id("B0").unwrap());
        assert_eq!(p.ratio, 4);
        assert!(!p.per_bank_sampler);
        let per_ref = p.hammers_per_aggressor_per_ref();
        assert!((54.0..57.0).contains(&per_ref), "got {per_ref}");
    }

    #[test]
    fn vendor_b_trr3_uses_own_bank_dummy() {
        let p = VendorBPattern::for_module(&by_id("B13").unwrap());
        assert!(p.per_bank_sampler);
        assert_eq!(p.ratio, 2);
    }

    #[test]
    fn vendor_c_window_arithmetic() {
        let p = VendorCPattern::for_module(&by_id("C7").unwrap());
        assert_eq!(p.ratio, 17);
        // ~3 dummy intervals out of 17, the rest hammering at 74/aggr.
        let per_ref = p.hammers_per_aggressor_per_ref();
        assert!((60.0..70.0).contains(&per_ref), "got {per_ref}");
    }

    #[test]
    fn factory_dispatches_by_vendor() {
        assert_eq!(pattern_for(&by_id("A3").unwrap()).name(), "custom-vendor-A");
        assert_eq!(pattern_for(&by_id("B9").unwrap()).name(), "custom-vendor-B");
        assert_eq!(pattern_for(&by_id("C13").unwrap()).name(), "custom-vendor-C");
        assert_eq!(pattern_for(&by_id("A3").unwrap()).hammers_per_aggressor_per_ref(), 24.0);
    }
}
