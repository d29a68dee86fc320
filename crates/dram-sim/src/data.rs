//! Row data representation and bit-flip reporting.
//!
//! Storing full 8 KiB images for every row of a 64K-row bank would cost
//! ~512 MiB per bank, so a row's contents are represented as a *base
//! pattern* plus a sparse set of flipped bit positions. This is lossless
//! for everything the experiments need: retention and RowHammer failures
//! are exactly "bits that differ from what was written".

use std::fmt;
use std::sync::Arc;

use crate::addr::RowAddr;

/// The data written into a DRAM row.
///
/// Patterns are functions of `(row, bit index)` so that row-stripe
/// patterns (used by RowHammer studies to maximize aggressor/victim
/// coupling) can be expressed without materializing data.
///
/// # Example
///
/// ```
/// use dram_sim::{DataPattern, RowAddr};
///
/// let p = DataPattern::Checkerboard;
/// assert_eq!(p.bit_at(RowAddr::new(0), 0), false);
/// assert_eq!(p.bit_at(RowAddr::new(0), 1), true);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum DataPattern {
    /// Every bit zero.
    Zeros,
    /// Every bit one. The paper's Row Scout default (§3.1: "e.g., all ones").
    Ones,
    /// Alternating `0101…` within each byte, same for every row.
    Checkerboard,
    /// All ones on even rows, all zeros on odd rows — maximizes
    /// aggressor-to-victim coupling for double-sided hammering.
    RowStripe,
    /// A caller-supplied byte sequence, repeated cyclically across the row.
    Custom(Arc<[u8]>),
}

impl DataPattern {
    /// The value of `bit` (0-based, LSB-first within each byte) for a row
    /// at logical address `row`.
    pub fn bit_at(&self, row: RowAddr, bit: u32) -> bool {
        match self {
            DataPattern::Zeros => false,
            DataPattern::Ones => true,
            DataPattern::Checkerboard => bit % 2 == 1,
            DataPattern::RowStripe => row.index().is_multiple_of(2),
            DataPattern::Custom(bytes) => {
                let byte = bytes[(bit / 8) as usize % bytes.len()];
                byte >> (bit % 8) & 1 == 1
            }
        }
    }

    /// A short identifier used in experiment logs.
    pub fn label(&self) -> &'static str {
        match self {
            DataPattern::Zeros => "zeros",
            DataPattern::Ones => "ones",
            DataPattern::Checkerboard => "checkerboard",
            DataPattern::RowStripe => "rowstripe",
            DataPattern::Custom(_) => "custom",
        }
    }
}

impl fmt::Display for DataPattern {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Contents of one row: the pattern that was written plus every bit that
/// has since flipped away from it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct RowData {
    pub pattern: DataPattern,
    /// Written-with address; patterns may be row-parity dependent.
    pub written_as: RowAddr,
    /// Bit positions currently differing from the pattern, sorted
    /// ascending with no duplicates. A row holds at most a handful of
    /// flips, so a flat sorted vector beats a tree: membership is one
    /// binary search over a cache line and a readout clone is a memcpy.
    pub flips: Vec<u32>,
}

impl RowData {
    pub fn new(pattern: DataPattern, written_as: RowAddr) -> Self {
        RowData { pattern, written_as, flips: Vec::new() }
    }

    /// Current value of a bit.
    pub fn bit(&self, bit: u32) -> bool {
        self.pattern.bit_at(self.written_as, bit) ^ self.flips.binary_search(&bit).is_ok()
    }

    /// Records that `bit` now reads back inverted relative to the
    /// pattern. Idempotent: the physics never un-flips a bit within one
    /// decay window.
    pub(crate) fn set_flipped(&mut self, bit: u32) {
        if let Err(pos) = self.flips.binary_search(&bit) {
            self.flips.insert(pos, bit);
        }
    }
}

/// The result of reading an entire row back: which bits differ from the
/// pattern the row was last written with.
///
/// # Example
///
/// ```
/// use dram_sim::{Module, ModuleConfig, DataPattern, Bank, RowAddr, Nanos};
/// # fn main() -> Result<(), dram_sim::DramError> {
/// let mut m = Module::new(ModuleConfig::small_test(), 1);
/// let (bank, row) = (Bank::new(0), RowAddr::new(5));
/// m.activate(bank, row)?;
/// m.write_open_row(bank, DataPattern::Ones)?;
/// let readout = m.read_open_row(bank)?;
/// assert!(readout.is_clean()); // no time has passed
/// # Ok(()) }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RowReadout {
    row: RowAddr,
    pattern: DataPattern,
    flipped: Vec<u32>,
    row_bits: u32,
}

impl RowReadout {
    pub(crate) fn new(
        row: RowAddr,
        pattern: DataPattern,
        flipped: Vec<u32>,
        row_bits: u32,
    ) -> Self {
        RowReadout { row, pattern, flipped, row_bits }
    }

    /// The logical row address that was read.
    pub fn row(&self) -> RowAddr {
        self.row
    }

    /// The pattern the row was last written with.
    pub fn pattern(&self) -> &DataPattern {
        &self.pattern
    }

    /// Bit positions (LSB-first within the row) that read back inverted,
    /// in ascending order.
    pub fn flipped_bits(&self) -> &[u32] {
        &self.flipped
    }

    /// Whether `other` read back the same flipped bits. Lengths are
    /// compared first and an empty list never reaches `==`: slice `==`
    /// hands even two empty lists to libc's `bcmp`, and glibc's vector
    /// `bcmp` takes a CPU fault-suppression assist (about 165 ns rather
    /// than 3) on the dangling pointer of an empty `Vec`.
    pub fn same_flips(&self, other: &RowReadout) -> bool {
        let (a, b) = (&self.flipped, &other.flipped);
        a.len() == b.len() && (a.is_empty() || a == b)
    }

    /// Number of flipped bits.
    pub fn flip_count(&self) -> usize {
        self.flipped.len()
    }

    /// `true` when the row read back exactly as written.
    pub fn is_clean(&self) -> bool {
        self.flipped.is_empty()
    }

    /// Histogram of flips per aligned 8-byte dataword, the granularity the
    /// paper uses for its ECC analysis (§7.4, Fig. 10). Returns
    /// `(chunk index, flips in chunk)` for every chunk with at least one
    /// flip.
    pub fn flips_per_dataword(&self) -> Vec<(u32, u32)> {
        // `flipped` is sorted ascending, so all flips of one chunk are
        // contiguous: gather each chunk's run into a u64 mask and pop the
        // count in one instruction. The output can never hold more entries
        // than flips or than datawords in the row — pre-size to that bound
        // so the scan never reallocates.
        let bound = self.flipped.len().min(self.dataword_count().max(1) as usize);
        let mut out: Vec<(u32, u32)> = Vec::with_capacity(bound);
        let mut i = 0;
        while i < self.flipped.len() {
            let chunk = self.flipped[i] / 64;
            let mask = gather_chunk(&self.flipped, &mut i, chunk);
            out.push((chunk, mask.count_ones()));
        }
        out
    }

    /// Number of 8-byte datawords in the row.
    pub(crate) fn dataword_count(&self) -> u32 {
        self.row_bits / 64
    }

    /// Number of bits in the row.
    pub fn row_bits(&self) -> u32 {
        self.row_bits
    }

    /// Toggles `bit` in the readout — fault-injection support: a
    /// transient read error corrupts the data *in flight*, not the cell,
    /// so the device's stored state is untouched. Toggling an
    /// already-flipped bit makes it read back clean, exactly as a bus
    /// error XORs the sensed value.
    pub fn inject_flip(&mut self, bit: u32) {
        let bit = bit % self.row_bits.max(1);
        match self.flipped.binary_search(&bit) {
            Ok(pos) => {
                self.flipped.remove(pos);
            }
            Err(pos) => self.flipped.insert(pos, bit),
        }
    }

    /// Clears every flip from the readout — a stuck read that returns
    /// the written pattern regardless of what the cells hold.
    pub fn clear_flips(&mut self) {
        self.flipped.clear();
    }

    /// A copy of this readout carrying a different flip set — support
    /// for controller-side consensus logic that reconciles several reads
    /// of the same row into one result.
    pub fn with_flips(&self, mut flips: Vec<u32>) -> RowReadout {
        flips.sort_unstable();
        flips.dedup();
        RowReadout {
            row: self.row,
            pattern: self.pattern.clone(),
            flipped: flips,
            row_bits: self.row_bits,
        }
    }
}

/// Collects the run of `list` entries belonging to 64-bit `chunk` into a
/// bit mask, advancing `i` past the run. `list` must be sorted ascending
/// and deduplicated, with `i` at or before the chunk's first entry.
fn gather_chunk(list: &[u32], i: &mut usize, chunk: u32) -> u64 {
    let mut mask = 0u64;
    while *i < list.len() && list[*i] / 64 == chunk {
        mask |= 1u64 << (list[*i] % 64);
        *i += 1;
    }
    mask
}

/// Bitwise strict majority over sorted, deduplicated flip lists: a bit
/// is in the result iff it appears in more than half of the inputs
/// (two of three, three of five, …). Output is sorted ascending.
///
/// This is the consensus kernel behind fault-tolerant voted row reads:
/// instead of tallying each bit position in a map, the lists are merged
/// one aligned 64-bit dataword at a time, and per word a running
/// "seen in at least `k` lists" mask is kept for every `k` up to the
/// majority, each updated with one AND and one OR per list.
///
/// # Example
///
/// ```
/// use dram_sim::majority_flips;
///
/// let maj = majority_flips(&[&[3, 70], &[3, 200], &[70, 200]]);
/// assert_eq!(maj, vec![3, 70, 200]);
/// ```
pub fn majority_flips(lists: &[&[u32]]) -> Vec<u32> {
    let need = lists.len() / 2 + 1;
    // Every majority bit is in `need` lists, hence in at least one of
    // the `len - need + 1` smallest — their combined size bounds the
    // output.
    let mut sizes: Vec<usize> = lists.iter().map(|l| l.len()).collect();
    sizes.sort_unstable();
    let mut out = Vec::with_capacity(sizes.iter().take(lists.len() + 1 - need).sum());
    let mut cursors = vec![0usize; lists.len()];
    // `at_least[k]`: bits of the current word seen in at least `k` lists.
    let mut at_least = vec![0u64; need + 1];
    loop {
        let next = lists.iter().zip(&cursors).filter_map(|(list, &i)| list.get(i)).min();
        let Some(&next) = next else {
            return out;
        };
        let chunk = next / 64;
        at_least.fill(0);
        at_least[0] = u64::MAX;
        for (list, i) in lists.iter().zip(&mut cursors) {
            let mask = gather_chunk(list, i, chunk);
            for k in (1..=need).rev() {
                at_least[k] |= at_least[k - 1] & mask;
            }
        }
        let mut maj = at_least[need];
        while maj != 0 {
            out.push(chunk * 64 + maj.trailing_zeros());
            maj &= maj - 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pattern_bits() {
        let even = RowAddr::new(2);
        let odd = RowAddr::new(3);
        assert!(!DataPattern::Zeros.bit_at(even, 17));
        assert!(DataPattern::Ones.bit_at(even, 17));
        assert!(DataPattern::Checkerboard.bit_at(even, 1));
        assert!(!DataPattern::Checkerboard.bit_at(even, 2));
        assert!(DataPattern::RowStripe.bit_at(even, 9));
        assert!(!DataPattern::RowStripe.bit_at(odd, 9));
    }

    #[test]
    fn custom_pattern_cycles() {
        let p = DataPattern::Custom(Arc::from(&[0x01u8, 0x80][..]));
        let r = RowAddr::new(0);
        assert!(p.bit_at(r, 0)); // byte 0 bit 0
        assert!(!p.bit_at(r, 1));
        assert!(p.bit_at(r, 15)); // byte 1 bit 7
        assert!(p.bit_at(r, 16)); // cycles back to byte 0
    }

    #[test]
    fn row_data_flip_tracking() {
        let mut d = RowData::new(DataPattern::Ones, RowAddr::new(0));
        assert!(d.bit(5));
        d.set_flipped(5);
        assert!(!d.bit(5));
    }

    #[test]
    fn dataword_histogram_groups_by_chunk() {
        let r = RowReadout::new(RowAddr::new(0), DataPattern::Ones, vec![0, 3, 63, 64, 200], 1024);
        assert_eq!(r.flips_per_dataword(), vec![(0, 3), (1, 1), (3, 1)]);
        assert_eq!(r.dataword_count(), 16);
        assert_eq!(r.flip_count(), 5);
        assert!(!r.is_clean());
    }

    #[test]
    fn pattern_labels_are_stable() {
        assert_eq!(DataPattern::Ones.to_string(), "ones");
        assert_eq!(DataPattern::RowStripe.label(), "rowstripe");
    }

    #[test]
    fn dataword_histogram_matches_bruteforce_reference() {
        // Pin the single-pass aggregation against the obvious O(chunks ×
        // flips) reference over randomized sorted flip sets.
        let row_bits: u32 = 2048;
        for seed in 0..64u64 {
            let mut rng = crate::rng::SplitMix64::new(seed);
            let mut bits: Vec<u32> = (0..rng.next_u64() % 96)
                .map(|_| (rng.next_u64() % row_bits as u64) as u32)
                .collect();
            bits.sort_unstable();
            bits.dedup();
            let r = RowReadout::new(RowAddr::new(0), DataPattern::Ones, bits.clone(), row_bits);
            let mut expected: Vec<(u32, u32)> = Vec::new();
            for chunk in 0..row_bits / 64 {
                let n = bits.iter().filter(|&&b| b / 64 == chunk).count() as u32;
                if n > 0 {
                    expected.push((chunk, n));
                }
            }
            assert_eq!(r.flips_per_dataword(), expected, "seed {seed}");
        }
    }

    #[test]
    fn majority_matches_tally_reference() {
        // Pin the chunked merge against the obvious per-bit tally over
        // randomized sorted flip sets, including cross-chunk spreads, at
        // every vote width the recovery ladder uses.
        let row_bits: u64 = 2048;
        for width in [3usize, 5, 7] {
            for seed in 0..64u64 {
                let mut rng = crate::rng::SplitMix64::new(seed.wrapping_mul(0x1234_5678_9ABC_DEF1));
                let mut draw = |n: u64| -> Vec<u32> {
                    let mut v: Vec<u32> =
                        (0..n).map(|_| (rng.next_u64() % row_bits) as u32).collect();
                    v.sort_unstable();
                    v.dedup();
                    v
                };
                let lists: Vec<Vec<u32>> = (0..width).map(|_| draw(40)).collect();
                let mut tally = std::collections::BTreeMap::new();
                for &bit in lists.iter().flatten() {
                    *tally.entry(bit).or_insert(0usize) += 1;
                }
                let expected: Vec<u32> =
                    tally.into_iter().filter(|&(_, n)| 2 * n > width).map(|(bit, _)| bit).collect();
                let views: Vec<&[u32]> = lists.iter().map(Vec::as_slice).collect();
                assert_eq!(majority_flips(&views), expected, "width {width}, seed {seed}");
            }
        }
    }

    #[test]
    fn majority_edge_cases() {
        assert!(majority_flips(&[&[], &[], &[]]).is_empty());
        assert!(majority_flips(&[&[5], &[], &[]]).is_empty());
        assert_eq!(majority_flips(&[&[5], &[5], &[]]), vec![5]);
        assert_eq!(majority_flips(&[&[5], &[5], &[5]]), vec![5]);
        // Disjoint pairwise overlaps across distant chunks.
        assert_eq!(majority_flips(&[&[0, 640], &[0, 1300], &[640, 1300]]), vec![0, 640, 1300]);
    }

    #[test]
    fn dataword_histogram_edge_cases() {
        let empty = RowReadout::new(RowAddr::new(0), DataPattern::Ones, vec![], 1024);
        assert!(empty.flips_per_dataword().is_empty());
        // Every flip in the same chunk, and a flip in the last chunk.
        let dense =
            RowReadout::new(RowAddr::new(0), DataPattern::Ones, vec![64, 65, 127, 1023], 1024);
        assert_eq!(dense.flips_per_dataword(), vec![(1, 3), (15, 1)]);
    }
}
