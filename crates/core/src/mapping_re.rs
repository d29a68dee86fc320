//! Reverse engineering the logical→physical row mapping (§5.3).
//!
//! "Before we run RS, we reverse engineer the logical-to-physical row
//! address mapping of a DRAM chip by disabling refresh and performing
//! double-sided RowHammer. We analyze the rows at which RowHammer bit
//! flips appear, so as to determine the physical adjacency of rows."
//!
//! The probe hammers one logical row with refresh disabled and reads a
//! window of logical rows back: the rows that flipped are the physical
//! neighbours. Distance-1 neighbours flip far more cells than distance-2
//! neighbours, so ranking by flip count separates them. A candidate
//! [`RowMapping`] is accepted when it predicts the observed neighbours
//! for every probe.
//!
//! `reverse_engineer` does not run these probes yet (it builds Row Scout
//! on the device's own mapping); the `reverse_engineer` example does,
//! and the pipeline's §5.3 phase will.

use dram_sim::{Bank, DataPattern, PhysRow, RowAddr, RowMapping};
use softmc::MemoryController;

use crate::error::UtrrError;

/// Observed adjacency for one probe row.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct AdjacencyObservation {
    /// The hammered logical row.
    pub probe: RowAddr,
    /// Flipped logical rows with their flip counts, sorted by flip count
    /// descending.
    pub flipped: Vec<(RowAddr, usize)>,
}

/// Hammers `probe` with refresh disabled and reports which logical rows
/// in `±window` flipped (§5.3's first method).
///
/// # Errors
///
/// Propagates device protocol errors.
pub(crate) fn probe_adjacency(
    mc: &mut MemoryController,
    bank: Bank,
    probe: RowAddr,
    window: u32,
    hammers: u64,
) -> Result<AdjacencyObservation, UtrrError> {
    let rows = mc.module().geometry().rows_per_bank;
    let lo = probe.index().saturating_sub(window);
    let hi = (probe.index() + window + 1).min(rows);
    for r in lo..hi {
        if r != probe.index() {
            mc.write_row(bank, RowAddr::new(r), DataPattern::Ones)?;
        }
    }
    mc.module_mut().hammer(bank, probe, hammers)?;
    let mut flipped = Vec::new();
    for r in lo..hi {
        if r == probe.index() {
            continue;
        }
        let readout = mc.read_row(bank, RowAddr::new(r))?;
        if !readout.is_clean() {
            flipped.push((RowAddr::new(r), readout.flip_count()));
        }
    }
    flipped.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    Ok(AdjacencyObservation { probe, flipped })
}

/// Whether a candidate mapping explains an observation: every expected
/// physical ±1 neighbour must have flipped, and every flipped row must
/// map to a physical distance of 1 or 2 from the probe (the blast
/// radius). Requiring containment rather than top-2 equality keeps the
/// check robust against per-row flip-count variation between distance-1
/// and distance-2 neighbours.
pub(crate) fn mapping_explains(
    mapping: &RowMapping,
    rows_per_bank: u32,
    observation: &AdjacencyObservation,
) -> bool {
    if observation.flipped.is_empty() {
        return false;
    }
    let phys = mapping.to_phys(observation.probe).index();
    let expected: Vec<RowAddr> = [phys.checked_sub(1), phys.checked_add(1)]
        .into_iter()
        .flatten()
        .filter(|&p| p < rows_per_bank)
        .map(|p| mapping.to_logical(PhysRow::new(p)))
        .collect();
    let flipped_rows: Vec<RowAddr> = observation.flipped.iter().map(|&(r, _)| r).collect();
    expected.iter().all(|e| flipped_rows.contains(e))
        && flipped_rows.iter().all(|&r| {
            let d = mapping.to_phys(r).index().abs_diff(phys);
            (1..=2).contains(&d)
        })
}

/// Tries each candidate mapping against adjacency observations from
/// several probe rows and returns the best-supported one.
///
/// Real rows vary enormously in RowHammer strength, so any probe can
/// come back one-sided or empty; the decision is therefore a vote:
/// the winning candidate must explain strictly more observations than
/// every other candidate and at least two of them. Probes with no flips
/// at all are inconclusive and simply don't vote. Only the
/// `reverse_engineer` example calls it until the pipeline gains its
/// §5.3 phase.
///
/// # Errors
///
/// Propagates device protocol errors.
pub fn discover_mapping(
    mc: &mut MemoryController,
    bank: Bank,
    probes: &[RowAddr],
    candidates: &[RowMapping],
    hammers: u64,
) -> Result<Option<RowMapping>, UtrrError> {
    let rows = mc.module().geometry().rows_per_bank;
    let mut observations = Vec::with_capacity(probes.len());
    for &probe in probes {
        let obs = probe_adjacency(mc, bank, probe, 16, hammers)?;
        if !obs.flipped.is_empty() {
            observations.push(obs);
        }
    }
    let scores: Vec<usize> = candidates
        .iter()
        .map(|c| observations.iter().filter(|o| mapping_explains(c, rows, o)).count())
        .collect();
    let best = scores.iter().copied().max().unwrap_or(0);
    if best < 2 || scores.iter().filter(|&&s| s == best).count() != 1 {
        return Ok(None);
    }
    let Some(winner) = scores.iter().position(|&s| s == best) else {
        return Ok(None);
    };
    Ok(Some(candidates[winner].clone()))
}

/// The default candidate library: the decoder schemes the simulator (and
/// real chips studied by prior work) use. Feeds [`discover_mapping`].
pub fn candidate_mappings() -> Vec<RowMapping> {
    vec![
        RowMapping::Identity,
        RowMapping::block_mirror(1),
        RowMapping::block_mirror(2),
        RowMapping::block_mirror(3),
        RowMapping::msb_xor(3, 0b110),
        RowMapping::msb_xor(3, 0b010),
        RowMapping::msb_xor(4, 0b0110),
    ]
}

/// Detects the paired-row organization of vendor C's C_TRR1 modules
/// (§6.3 Observation 3): hammering a row disturbs exactly one other row,
/// its pair `R ^ 1`. Probes whose neighbourhood shows no flips at all
/// (too strong a row) are inconclusive and skipped; returns `None` when
/// every probe was inconclusive. Only the `reverse_engineer` example
/// calls it until the pipeline gains its §5.3 phase.
///
/// # Errors
///
/// Propagates device protocol errors.
pub fn detect_paired_rows(
    mc: &mut MemoryController,
    bank: Bank,
    probes: &[RowAddr],
    hammers: u64,
) -> Result<Option<bool>, UtrrError> {
    let mut conclusive = 0u32;
    for &probe in probes {
        let obs = probe_adjacency(mc, bank, probe, 8, hammers)?;
        if obs.flipped.is_empty() {
            continue;
        }
        conclusive += 1;
        let pair = RowAddr::new(probe.index() ^ 1);
        let is_paired = obs.flipped.len() == 1 && obs.flipped[0].0 == pair;
        if !is_paired {
            return Ok(Some(false));
        }
    }
    Ok((conclusive > 0).then_some(true))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dram_sim::{Module, ModuleConfig, Topology};

    fn controller_with(mapping: RowMapping, topology: Topology) -> MemoryController {
        let mut config = ModuleConfig::small_test();
        config.mapping = mapping;
        config.topology = topology;
        MemoryController::new(Module::new(config, 61))
    }

    fn probes() -> Vec<RowAddr> {
        // Mirror/XOR mappings preserve adjacency for block-interior rows,
        // so discrimination requires probes at block boundaries too.
        vec![
            RowAddr::new(100),
            RowAddr::new(333),
            RowAddr::new(512), // block-edge under mirrors and MsbXor
            RowAddr::new(615), // ≡ 7 (mod 8): the opposite block edge
            RowAddr::new(740),
        ]
    }

    #[test]
    fn probe_finds_identity_neighbours() {
        let mut mc = controller_with(RowMapping::Identity, Topology::Linear);
        let obs = probe_adjacency(&mut mc, Bank::new(0), RowAddr::new(100), 8, 80_000).unwrap();
        // The two most disturbed rows are the distance-1 neighbours.
        let mut nearest: Vec<RowAddr> = obs.flipped.iter().take(2).map(|&(r, _)| r).collect();
        nearest.sort();
        assert_eq!(nearest, vec![RowAddr::new(99), RowAddr::new(101)]);
        // Distance-2 rows flip too, but with fewer flips.
        assert!(obs.flipped.len() >= 2);
    }

    #[test]
    fn discovers_identity() {
        let mut mc = controller_with(RowMapping::Identity, Topology::Linear);
        let found =
            discover_mapping(&mut mc, Bank::new(0), &probes(), &candidate_mappings(), 80_000)
                .unwrap();
        assert_eq!(found, Some(RowMapping::Identity));
    }

    #[test]
    fn discovers_block_mirror() {
        let mut mc = controller_with(RowMapping::block_mirror(3), Topology::Linear);
        let found =
            discover_mapping(&mut mc, Bank::new(0), &probes(), &candidate_mappings(), 80_000)
                .unwrap();
        assert_eq!(found, Some(RowMapping::block_mirror(3)));
    }

    #[test]
    fn discovers_msb_xor() {
        let mut mc = controller_with(RowMapping::msb_xor(3, 0b110), Topology::Linear);
        let found =
            discover_mapping(&mut mc, Bank::new(0), &probes(), &candidate_mappings(), 80_000)
                .unwrap();
        assert_eq!(found, Some(RowMapping::msb_xor(3, 0b110)));
    }

    #[test]
    fn rejects_all_when_mapping_unknown() {
        // A remapped (repaired) module matches no clean candidate when a
        // probe's neighbourhood crosses the swap.
        let mapping = RowMapping::Identity.with_swaps(vec![(100, 900), (101, 901)]);
        let mut mc = controller_with(mapping, Topology::Linear);
        let found = discover_mapping(
            &mut mc,
            Bank::new(0),
            &[RowAddr::new(100), RowAddr::new(333)],
            &candidate_mappings(),
            200_000,
        )
        .unwrap();
        assert_eq!(found, None);
    }

    #[test]
    fn detects_paired_topology() {
        let mut mc = controller_with(RowMapping::Identity, Topology::Paired);
        assert_eq!(
            detect_paired_rows(&mut mc, Bank::new(0), &probes(), 300_000).unwrap(),
            Some(true)
        );
        let mut mc = controller_with(RowMapping::Identity, Topology::Linear);
        assert_eq!(
            detect_paired_rows(&mut mc, Bank::new(0), &probes(), 300_000).unwrap(),
            Some(false)
        );
    }

    #[test]
    fn paired_detection_is_inconclusive_without_flips() {
        let mut mc = controller_with(RowMapping::Identity, Topology::Paired);
        // Far too few hammers to flip anything.
        assert_eq!(detect_paired_rows(&mut mc, Bank::new(0), &probes(), 10).unwrap(), None);
    }

    #[test]
    fn mapping_explains_is_exact() {
        let obs = AdjacencyObservation {
            probe: RowAddr::new(10),
            flipped: vec![(RowAddr::new(9), 50), (RowAddr::new(11), 48), (RowAddr::new(8), 3)],
        };
        assert!(mapping_explains(&RowMapping::Identity, 1024, &obs));
        // Interior rows cannot discriminate a block mirror (adjacency is
        // preserved inside a block)…
        assert!(mapping_explains(&RowMapping::block_mirror(3), 1024, &obs));
        // …but a block-edge probe can: under the mirror, logical 8 sits
        // at physical 15, adjacent to physical 14 and 16 = logical 9 and
        // 23 — not logical 7 and 9.
        let edge = AdjacencyObservation {
            probe: RowAddr::new(8),
            flipped: vec![(RowAddr::new(7), 50), (RowAddr::new(9), 48)],
        };
        assert!(mapping_explains(&RowMapping::Identity, 1024, &edge));
        assert!(!mapping_explains(&RowMapping::block_mirror(3), 1024, &edge));
    }
}
