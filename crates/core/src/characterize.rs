//! RowHammer characterization utilities that accompany the TRR
//! methodology: measuring `HC_first` (footnote 1 of the paper), the
//! interleaved-vs-cascaded asymmetry (§5.2), and data-pattern
//! sensitivity — all with refresh disabled, as the paper's
//! pre-experiments do.

use dram_sim::{Bank, DataPattern, PhysRow, Topology};
use softmc::MemoryController;

use crate::error::UtrrError;
use crate::recovery::{self, RecoveryPolicy};

/// How aggressors are arranged for an `HC_first` measurement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum HammerShape {
    /// Classic double-sided around the victim.
    DoubleSided,
    /// Single pair aggressor (paired-row organizations), alternated with
    /// a far row so every activation toggles at full weight.
    PairSided,
}

/// Measures `HC_first`: the minimum per-aggressor activation count in a
/// double-sided pattern that causes at least one bit flip in any of
/// `samples` victim rows spread across the bank (bisection, refresh
/// disabled). On paired-row organizations the single pair aggressor is
/// alternated with a distant row, preserving the per-aggressor count
/// semantics.
///
/// # Errors
///
/// Propagates device protocol errors.
pub fn measure_hc_first(
    mc: &mut MemoryController,
    bank: Bank,
    samples: u32,
    start_guess: u64,
) -> Result<u64, UtrrError> {
    let rows = mc.module().geometry().rows_per_bank;
    let shape = match mc.module().config().topology {
        Topology::Paired => HammerShape::PairSided,
        Topology::Linear => HammerShape::DoubleSided,
    };
    let samples = samples.clamp(1, rows / 8);
    let stride = (rows - 16) / samples;
    let victims: Vec<PhysRow> = (0..samples).map(|i| PhysRow::new(8 + i * stride)).collect();

    let flips_at = |mc: &mut MemoryController, count: u64| -> Result<bool, UtrrError> {
        for &v in &victims {
            let victim = mc.module().logical_of(v);
            mc.write_row(bank, victim, DataPattern::RowStripe)?;
            match shape {
                HammerShape::PairSided => {
                    let pair = mc.module().logical_of(PhysRow::new(v.index() ^ 1));
                    let far = mc.module().logical_of(PhysRow::new((v.index() + rows / 2) % rows));
                    mc.module_mut().hammer_pair(bank, pair, far, count)?;
                }
                HammerShape::DoubleSided => {
                    let up = mc.module().logical_of(PhysRow::new(v.index() - 1));
                    let down = mc.module().logical_of(PhysRow::new(v.index() + 1));
                    mc.module_mut().hammer_pair(bank, up, down, count)?;
                }
            }
            if !mc.read_row(bank, victim)?.is_clean() {
                return Ok(true);
            }
        }
        Ok(false)
    };

    // Hitting the policy's search cap closes the measurement at the cap
    // (recorded on the ladder); without a cap the search is unbounded.
    let cap = RecoveryPolicy::of(mc).hc_search_cap;
    let mut hi = start_guess.max(64);
    while !flips_at(mc, hi)? {
        if let Some(cap) = cap.filter(|&cap| hi >= cap) {
            mc.recovery_mut().budget_trips += 1;
            recovery::ladder_event(mc, recovery::CTR_BUDGET_TRIPS, "hc_cap", bank, None);
            return Ok(cap);
        }
        hi *= 2;
    }
    let mut lo = 1u64;
    while lo + lo / 64 + 1 < hi {
        let mid = lo + (hi - lo) / 2;
        if flips_at(mc, mid)? {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    Ok(hi)
}

/// The §5.2 hammering-mode comparison: flips on the same victims at the
/// same per-aggressor count, interleaved vs cascaded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HammerModeComparison {
    /// Total victim flips under interleaved (alternating) hammering.
    pub interleaved_flips: u64,
    /// Total victim flips under cascaded (back-to-back) hammering.
    pub cascaded_flips: u64,
}

impl HammerModeComparison {
    /// The interleaved/cascaded flip ratio (∞-safe: cascaded zero maps
    /// to the interleaved count).
    pub fn advantage(&self) -> f64 {
        if self.cascaded_flips == 0 {
            self.interleaved_flips as f64
        } else {
            self.interleaved_flips as f64 / self.cascaded_flips as f64
        }
    }
}

/// Measures the interleaved-vs-cascaded disturbance asymmetry over
/// `samples` victims at `count` hammers per aggressor (refresh
/// disabled). The paper: "interleaved hammering generally causes more
/// bit flips (up to four orders of magnitude)".
///
/// # Errors
///
/// Propagates device protocol errors.
pub fn compare_hammer_modes(
    mc: &mut MemoryController,
    bank: Bank,
    samples: u32,
    count: u64,
) -> Result<HammerModeComparison, UtrrError> {
    let rows = mc.module().geometry().rows_per_bank;
    let samples = samples.clamp(1, rows / 8);
    let stride = (rows - 16) / samples;
    let mut totals = [0u64; 2];
    for (mode, total) in totals.iter_mut().enumerate() {
        for i in 0..samples {
            let v = PhysRow::new(8 + i * stride);
            let victim = mc.module().logical_of(v);
            let up = mc.module().logical_of(PhysRow::new(v.index() - 1));
            let down = mc.module().logical_of(PhysRow::new(v.index() + 1));
            mc.write_row(bank, victim, DataPattern::RowStripe)?;
            if mode == 0 {
                mc.module_mut().hammer_pair(bank, up, down, count)?;
            } else {
                mc.module_mut().hammer(bank, up, count)?;
                mc.module_mut().hammer(bank, down, count)?;
            }
            *total += mc.read_row(bank, victim)?.flip_count() as u64;
        }
    }
    Ok(HammerModeComparison { interleaved_flips: totals[0], cascaded_flips: totals[1] })
}

/// Victim flips per initialization pattern, at a fixed double-sided
/// hammer count — "the RowHammer vulnerability greatly depends on the
/// data values stored" (§5.2).
///
/// # Errors
///
/// Propagates device protocol errors.
pub fn data_pattern_sensitivity(
    mc: &mut MemoryController,
    bank: Bank,
    samples: u32,
    count: u64,
) -> Result<Vec<(DataPattern, u64)>, UtrrError> {
    let rows = mc.module().geometry().rows_per_bank;
    let samples = samples.clamp(1, rows / 8);
    let stride = (rows - 16) / samples;
    let mut out = Vec::new();
    for pattern in
        [DataPattern::Zeros, DataPattern::Ones, DataPattern::Checkerboard, DataPattern::RowStripe]
    {
        let mut total = 0u64;
        for i in 0..samples {
            let v = PhysRow::new(8 + i * stride);
            let victim = mc.module().logical_of(v);
            let up = mc.module().logical_of(PhysRow::new(v.index() - 1));
            let down = mc.module().logical_of(PhysRow::new(v.index() + 1));
            mc.write_row(bank, victim, pattern.clone())?;
            mc.write_row(bank, up, DataPattern::RowStripe)?;
            mc.write_row(bank, down, DataPattern::RowStripe)?;
            mc.module_mut().hammer_pair(bank, up, down, count)?;
            total += mc.read_row(bank, victim)?.flip_count() as u64;
        }
        out.push((pattern, total));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dram_sim::{Module, ModuleConfig};

    const BANK: Bank = Bank::new(0);

    fn controller(seed: u64) -> MemoryController {
        MemoryController::new(Module::new(ModuleConfig::small_test(), seed))
    }

    #[test]
    fn hc_first_tracks_ground_truth() {
        let mut mc = controller(71);
        // Test physics: hc_first = 1000, threshold floor = 2000 units;
        // double-sided count n gives ~2n units.
        let measured = measure_hc_first(&mut mc, BANK, 24, 256).unwrap();
        assert!((900..2_600).contains(&measured), "measured {measured}, physics HC_first 1000");
    }

    #[test]
    fn hc_first_on_paired_organization() {
        let mut config = ModuleConfig::small_test();
        config.topology = Topology::Paired;
        // Paired calibration convention: per-aggressor count at first
        // flip equals hc_first when the config carries hc_first / 2.
        config.physics.hc_first = 500.0;
        let mut mc = MemoryController::new(Module::new(config, 71));
        let measured = measure_hc_first(&mut mc, BANK, 24, 256).unwrap();
        assert!((900..2_600).contains(&measured), "measured {measured}");
    }

    #[test]
    fn interleaved_advantage_is_large() {
        let mut mc = controller(73);
        let cmp = compare_hammer_modes(&mut mc, BANK, 16, 2_500).unwrap();
        assert!(cmp.interleaved_flips > 0);
        assert!(
            cmp.advantage() > 3.0,
            "interleaved must dominate: {cmp:?} (advantage {})",
            cmp.advantage()
        );
    }

    #[test]
    fn pattern_sensitivity_reports_all_patterns() {
        let mut mc = controller(79);
        let table = data_pattern_sensitivity(&mut mc, BANK, 16, 4_000).unwrap();
        assert_eq!(table.len(), 4);
        let total: u64 = table.iter().map(|&(_, n)| n).sum();
        assert!(total > 0, "some pattern must flip: {table:?}");
        // Solid patterns expose roughly half the hammerable cells each;
        // both orientations together cover them all.
        let zeros = table[0].1;
        let ones = table[1].1;
        assert!(zeros > 0 && ones > 0);
    }
}
