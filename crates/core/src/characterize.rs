//! RowHammer characterization that accompanies the TRR methodology:
//! measuring `HC_first` (footnote 1 of the paper) with refresh disabled,
//! as the paper's pre-experiments do.

use dram_sim::{Bank, DataPattern, PhysRow, Topology};
use softmc::MemoryController;

use crate::error::UtrrError;
use crate::recovery::{self, RecoveryCounter, RecoveryPolicy};

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
    let registry = std::sync::Arc::clone(mc.registry());
    let span = obs::span!(registry, "utrr.hc_first", mc.now().as_ns());
    let result = bisect_hc_first(mc, bank, samples, start_guess);
    span.finish(mc.now().as_ns());
    result
}

/// The search of [`measure_hc_first`].
fn bisect_hc_first(
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
            recovery::record(mc, RecoveryCounter::BudgetTrips, "hc_cap", bank, None, &[]);
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
}
