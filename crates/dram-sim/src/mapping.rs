//! Logical→physical row address mapping and disturbance topology.
//!
//! §5.3 of the paper: "DRAM rows that have consecutive logical row
//! addresses may not be physically adjacent inside a DRAM chip" — because
//! of (i) row-decoder scrambling and (ii) post-manufacturing repair
//! remapping. U-TRR reverse engineers the mapping before any experiment by
//! hammering with refresh disabled and locating the flipped rows.
//!
//! The simulator separates two orthogonal concepts:
//!
//! * [`RowMapping`] — the address *bijection* between [`RowAddr`] and
//!   [`PhysRow`];
//! * [`Topology`] — which physical rows an activation *disturbs* (and
//!   which rows a TRR detection causes to be refreshed). Vendor C's
//!   C_TRR1 modules use the paper's "pair row" organization (§6.3
//!   Observation 3), where hammering row `R` only disturbs its pair
//!   `R ^ 1`.

use crate::addr::{PhysRow, RowAddr};

/// A bijection between logical row addresses and physical row positions
/// within a bank.
///
/// # Example
///
/// ```
/// use dram_sim::{RowMapping, RowAddr};
///
/// let m = RowMapping::block_mirror(3); // mirror within blocks of 8
/// let phys = m.to_phys(RowAddr::new(0));
/// assert_eq!(m.to_logical(phys), RowAddr::new(0)); // bijection
/// assert_eq!(phys.index(), 7);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum RowMapping {
    /// Logical address equals physical position.
    #[default]
    Identity,
    /// Reverse the order of rows inside each aligned block of
    /// `1 << block_bits` rows — models decoder schemes that mirror
    /// sub-blocks.
    BlockMirror {
        /// log2 of the mirrored block size.
        block_bits: u8,
    },
    /// XOR a low-bit mask into the address whenever a control bit is set:
    /// `phys = logical ^ ((logical >> ctrl_bit & 1) * mask)`. Models the
    /// MSB-controlled low-bit scrambling observed in real DDR4 decoders.
    /// An involution (applying it twice is the identity), so it is its own
    /// inverse. `mask` must only contain bits strictly below `ctrl_bit`.
    MsbXor {
        /// The controlling address bit.
        ctrl_bit: u8,
        /// Low bits toggled when the control bit is set.
        mask: u32,
    },
    /// A base mapping composed with a set of physical-space row swaps,
    /// modeling post-manufacturing repair (faulty rows remapped to
    /// spares). Each `(a, b)` pair exchanges physical positions `a` and
    /// `b` after the base mapping is applied.
    Remapped {
        /// The underlying decoder mapping.
        base: Box<RowMapping>,
        /// Physical position swaps applied on top, in order.
        swaps: Vec<(u32, u32)>,
    },
}

impl RowMapping {
    /// Convenience constructor for [`RowMapping::BlockMirror`].
    pub fn block_mirror(block_bits: u8) -> Self {
        RowMapping::BlockMirror { block_bits }
    }

    /// Convenience constructor for [`RowMapping::MsbXor`].
    ///
    /// # Panics
    ///
    /// Panics if `mask` has bits at or above `ctrl_bit` (the scheme would
    /// not be a bijection).
    pub fn msb_xor(ctrl_bit: u8, mask: u32) -> Self {
        assert!(
            mask & !((1u32 << ctrl_bit) - 1) == 0,
            "mask must only contain bits below the control bit"
        );
        RowMapping::MsbXor { ctrl_bit, mask }
    }

    /// Wraps a mapping with repair swaps.
    pub fn with_swaps(self, swaps: Vec<(u32, u32)>) -> Self {
        RowMapping::Remapped { base: Box::new(self), swaps }
    }

    /// Whether the mapping is a bijection over a bank of `rows` rows
    /// (every decoder scheme has an alignment requirement; repair swaps
    /// must stay in range).
    pub fn valid_for(&self, rows: u32) -> bool {
        match self {
            RowMapping::Identity => true,
            RowMapping::BlockMirror { block_bits } => rows.is_multiple_of(1 << block_bits),
            RowMapping::MsbXor { ctrl_bit, .. } => rows.is_multiple_of(1u32 << (ctrl_bit + 1)),
            RowMapping::Remapped { base, swaps } => {
                base.valid_for(rows) && swaps.iter().all(|&(a, b)| a < rows && b < rows)
            }
        }
    }

    /// Maps a logical row address to its physical position.
    pub fn to_phys(&self, row: RowAddr) -> PhysRow {
        match self {
            RowMapping::Identity => PhysRow::new(row.index()),
            RowMapping::BlockMirror { block_bits } => {
                let mask = (1u32 << block_bits) - 1;
                let l = row.index();
                PhysRow::new((l & !mask) | (mask - (l & mask)))
            }
            RowMapping::MsbXor { ctrl_bit, mask } => {
                let l = row.index();
                PhysRow::new(l ^ ((l >> ctrl_bit & 1) * mask))
            }
            RowMapping::Remapped { base, swaps } => {
                let mut p = base.to_phys(row).index();
                for &(a, b) in swaps {
                    if p == a {
                        p = b;
                    } else if p == b {
                        p = a;
                    }
                }
                PhysRow::new(p)
            }
        }
    }

    /// Maps a physical position back to the logical address that selects
    /// it.
    pub fn to_logical(&self, row: PhysRow) -> RowAddr {
        match self {
            RowMapping::Identity => RowAddr::new(row.index()),
            // BlockMirror and MsbXor are involutions.
            RowMapping::BlockMirror { .. } | RowMapping::MsbXor { .. } => {
                RowAddr::new(self.to_phys(RowAddr::new(row.index())).index())
            }
            RowMapping::Remapped { base, swaps } => {
                let mut p = row.index();
                // Swaps are involutions; undo them in reverse order.
                for &(a, b) in swaps.iter().rev() {
                    if p == a {
                        p = b;
                    } else if p == b {
                        p = a;
                    }
                }
                base.to_logical(PhysRow::new(p))
            }
        }
    }
}

/// How activations disturb physically nearby rows, and which rows TRR
/// refreshes around a detected aggressor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Topology {
    /// Conventional wordline stack: distance-1 neighbours receive full
    /// disturbance, distance-2 neighbours a configurable fraction.
    #[default]
    Linear,
    /// Vendor C's C_TRR1 organization (§6.3 Obs. 3): rows are isolated in
    /// pairs `(R, R ^ 1)`; hammering one row disturbs only its pair row.
    Paired,
}

impl Topology {
    /// Physical rows disturbed by one activation of `row`, with their
    /// relative coupling weight (distance-1 weight is 1.0).
    /// `radius2_weight` only applies to [`Topology::Linear`].
    pub fn disturb_targets(
        self,
        row: PhysRow,
        rows_per_bank: u32,
        radius2_weight: f64,
    ) -> Vec<(PhysRow, f64)> {
        let mut targets = Vec::with_capacity(4);
        self.for_each_disturb_target(row, rows_per_bank, radius2_weight, |victim, w| {
            targets.push((victim, w));
        });
        targets
    }

    /// Calls `visit` for every row [`Topology::disturb_targets`] lists,
    /// in the same order. This is the per-`ACT` hot path: the caller
    /// consumes each target in registers, with no array in between.
    #[inline]
    pub fn for_each_disturb_target(
        self,
        row: PhysRow,
        rows_per_bank: u32,
        radius2_weight: f64,
        mut visit: impl FnMut(PhysRow, f64),
    ) {
        let r = row.index();
        match self {
            Topology::Linear => {
                let candidates = [
                    (r.wrapping_sub(1), 1.0),
                    (r + 1, 1.0),
                    (r.wrapping_sub(2), radius2_weight),
                    (r + 2, radius2_weight),
                ];
                for (c, w) in candidates {
                    if c < rows_per_bank && w > 0.0 {
                        visit(PhysRow::new(c), w);
                    }
                }
            }
            Topology::Paired => {
                let pair = r ^ 1;
                if pair < rows_per_bank {
                    visit(PhysRow::new(pair), 1.0);
                }
            }
        }
    }

    /// Physical rows a TRR mechanism refreshes when it detects `row` as an
    /// aggressor and is configured to protect `span` neighbours per side.
    pub fn trr_victims(
        self,
        row: PhysRow,
        rows_per_bank: u32,
        span: crate::mitigation::NeighborSpan,
    ) -> Vec<PhysRow> {
        let (victims, n) = self.trr_victims_fixed(row, rows_per_bank, span);
        victims[..n].to_vec()
    }

    /// Allocation-free form of [`Topology::trr_victims`]: fills a fixed
    /// array (a detection refreshes at most 4 rows) and returns how many
    /// entries are valid, in the same order — every TRR detection a
    /// `REF` acts on resolves its victims through here.
    pub fn trr_victims_fixed(
        self,
        row: PhysRow,
        rows_per_bank: u32,
        span: crate::mitigation::NeighborSpan,
    ) -> ([PhysRow; 4], usize) {
        let r = row.index();
        let mut out = [PhysRow::new(0); 4];
        let mut n = 0;
        match self {
            Topology::Linear => {
                for d in 1..=span.per_side() {
                    if let Some(above) = r.checked_sub(d) {
                        out[n] = PhysRow::new(above);
                        n += 1;
                    }
                    if r + d < rows_per_bank {
                        out[n] = PhysRow::new(r + d);
                        n += 1;
                    }
                }
            }
            Topology::Paired => {
                let pair = r ^ 1;
                if pair < rows_per_bank {
                    out[0] = PhysRow::new(pair);
                    n = 1;
                }
            }
        }
        (out, n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mitigation::NeighborSpan;

    fn assert_bijection(m: &RowMapping, rows: u32) {
        let mut seen = vec![false; rows as usize];
        for l in 0..rows {
            let p = m.to_phys(RowAddr::new(l));
            assert!(p.index() < rows, "{m:?} maps {l} out of range");
            assert!(!seen[p.index() as usize], "{m:?} collides at {p}");
            seen[p.index() as usize] = true;
            assert_eq!(m.to_logical(p), RowAddr::new(l), "{m:?} inverse broken at {l}");
        }
    }

    #[test]
    fn identity_is_bijective() {
        assert_bijection(&RowMapping::Identity, 64);
    }

    #[test]
    fn block_mirror_is_bijective_and_mirrors() {
        let m = RowMapping::block_mirror(2);
        assert_bijection(&m, 64);
        assert_eq!(m.to_phys(RowAddr::new(0)).index(), 3);
        assert_eq!(m.to_phys(RowAddr::new(4)).index(), 7);
    }

    #[test]
    fn msb_xor_is_bijective() {
        let m = RowMapping::msb_xor(3, 0b110);
        assert_bijection(&m, 64);
        // Below the control bit nothing changes.
        assert_eq!(m.to_phys(RowAddr::new(2)).index(), 2);
        // With bit 3 set, bits 1..2 toggle.
        assert_eq!(m.to_phys(RowAddr::new(8)).index(), 8 ^ 0b110);
    }

    #[test]
    #[should_panic(expected = "below the control bit")]
    fn msb_xor_rejects_overlapping_mask() {
        let _ = RowMapping::msb_xor(2, 0b100);
    }

    #[test]
    fn validity_checks_alignment_and_range() {
        assert!(RowMapping::Identity.valid_for(1));
        assert!(RowMapping::block_mirror(3).valid_for(1024));
        assert!(!RowMapping::block_mirror(3).valid_for(1020));
        assert!(RowMapping::msb_xor(3, 0b110).valid_for(1024));
        assert!(!RowMapping::msb_xor(3, 0b110).valid_for(1032));
        assert!(RowMapping::Identity.with_swaps(vec![(1, 5)]).valid_for(8));
        assert!(!RowMapping::Identity.with_swaps(vec![(1, 9)]).valid_for(8));
    }

    #[test]
    fn remapped_swaps_apply_and_invert() {
        let m = RowMapping::Identity.with_swaps(vec![(5, 60), (7, 61)]);
        assert_bijection(&m, 64);
        assert_eq!(m.to_phys(RowAddr::new(5)).index(), 60);
        assert_eq!(m.to_phys(RowAddr::new(60)).index(), 5);
        assert_eq!(m.to_phys(RowAddr::new(7)).index(), 61);
    }

    #[test]
    fn remapped_over_scrambler_is_bijective() {
        let m = RowMapping::block_mirror(3).with_swaps(vec![(0, 50), (3, 9)]);
        assert_bijection(&m, 64);
    }

    #[test]
    fn linear_disturbance_has_blast_radius_two() {
        let t = Topology::Linear;
        let targets = t.disturb_targets(PhysRow::new(10), 100, 0.25);
        assert_eq!(
            targets,
            vec![
                (PhysRow::new(9), 1.0),
                (PhysRow::new(11), 1.0),
                (PhysRow::new(8), 0.25),
                (PhysRow::new(12), 0.25),
            ]
        );
    }

    #[test]
    fn linear_disturbance_clips_at_edges() {
        let t = Topology::Linear;
        let targets = t.disturb_targets(PhysRow::new(0), 100, 0.25);
        assert_eq!(targets, vec![(PhysRow::new(1), 1.0), (PhysRow::new(2), 0.25)]);
        let targets = t.disturb_targets(PhysRow::new(99), 100, 0.25);
        assert_eq!(targets, vec![(PhysRow::new(98), 1.0), (PhysRow::new(97), 0.25)]);
    }

    #[test]
    fn zero_radius2_weight_disables_distance_two() {
        let targets = Topology::Linear.disturb_targets(PhysRow::new(10), 100, 0.0);
        assert_eq!(targets.len(), 2);
    }

    #[test]
    fn paired_topology_only_disturbs_pair() {
        let t = Topology::Paired;
        assert_eq!(t.disturb_targets(PhysRow::new(10), 100, 0.25), vec![(PhysRow::new(11), 1.0)]);
        assert_eq!(t.disturb_targets(PhysRow::new(11), 100, 0.25), vec![(PhysRow::new(10), 1.0)]);
    }

    #[test]
    fn trr_victims_span_one_and_two() {
        let t = Topology::Linear;
        let one = t.trr_victims(PhysRow::new(10), 100, NeighborSpan::One);
        assert_eq!(one, vec![PhysRow::new(9), PhysRow::new(11)]);
        let two = t.trr_victims(PhysRow::new(10), 100, NeighborSpan::Two);
        assert_eq!(two, vec![PhysRow::new(9), PhysRow::new(11), PhysRow::new(8), PhysRow::new(12)]);
    }

    #[test]
    fn trr_victims_paired_ignores_span() {
        let t = Topology::Paired;
        assert_eq!(t.trr_victims(PhysRow::new(4), 100, NeighborSpan::Two), vec![PhysRow::new(5)]);
    }

    #[test]
    fn trr_victims_edge_rows() {
        let t = Topology::Linear;
        assert_eq!(
            t.trr_victims(PhysRow::new(0), 100, NeighborSpan::Two),
            vec![PhysRow::new(1), PhysRow::new(2)]
        );
    }
}
