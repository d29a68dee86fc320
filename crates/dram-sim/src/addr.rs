//! DRAM address types and module geometry.
//!
//! The simulator distinguishes *logical* row addresses ([`RowAddr`], what
//! the memory controller puts on the bus) from *physical* row positions
//! ([`PhysRow`], where the wordline actually sits in silicon). The two are
//! related by a [`crate::RowMapping`], which U-TRR must reverse engineer
//! before it can reason about adjacency (§5.3 of the paper).

use std::fmt;

/// A bank index within a DRAM chip/rank.
///
/// # Example
///
/// ```
/// use dram_sim::Bank;
/// let b = Bank::new(3);
/// assert_eq!(b.index(), 3);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Bank(u8);

impl Bank {
    /// Creates a bank index.
    pub const fn new(index: u8) -> Self {
        Bank(index)
    }

    /// Returns the raw index.
    pub const fn index(self) -> u8 {
        self.0
    }
}

impl fmt::Display for Bank {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "B{}", self.0)
    }
}

/// A *logical* row address: the address the memory controller issues with
/// an `ACT` command. Logical adjacency does **not** imply physical
/// adjacency.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RowAddr(u32);

impl RowAddr {
    /// Creates a logical row address.
    pub const fn new(row: u32) -> Self {
        RowAddr(row)
    }

    /// Returns the raw address.
    pub const fn index(self) -> u32 {
        self.0
    }

    /// The logical address `distance` rows above, saturating at zero.
    pub const fn minus(self, distance: u32) -> RowAddr {
        RowAddr(self.0.saturating_sub(distance))
    }

    /// The logical address `distance` rows below.
    pub const fn plus(self, distance: u32) -> RowAddr {
        RowAddr(self.0 + distance)
    }
}

impl fmt::Display for RowAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}

/// A *physical* row position inside a bank: index along the wordline
/// stack. RowHammer disturbance and TRR victim selection operate in this
/// space.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PhysRow(u32);

impl PhysRow {
    /// Creates a physical row position.
    pub const fn new(row: u32) -> Self {
        PhysRow(row)
    }

    /// Returns the raw position.
    pub const fn index(self) -> u32 {
        self.0
    }
}

impl fmt::Display for PhysRow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

/// Static geometry of a simulated module (one rank's worth of banks).
///
/// # Example
///
/// ```
/// use dram_sim::ModuleGeometry;
///
/// let g = ModuleGeometry { banks: 16, rows_per_bank: 32 * 1024, row_bytes: 8192 };
/// assert_eq!(g.row_bits(), 8192 * 8);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ModuleGeometry {
    /// Number of banks.
    pub banks: u8,
    /// Number of rows per bank.
    pub rows_per_bank: u32,
    /// Row size in bytes (typical DDR4: 8 KiB).
    pub row_bytes: u32,
}

impl ModuleGeometry {
    /// A deliberately small geometry for fast unit tests.
    pub const fn tiny() -> Self {
        ModuleGeometry { banks: 2, rows_per_bank: 1024, row_bytes: 256 }
    }

    /// Number of data bits in one row.
    pub const fn row_bits(&self) -> u32 {
        self.row_bytes * 8
    }

    /// Whether a bank index is in range.
    pub(crate) const fn bank_in_range(&self, bank: Bank) -> bool {
        bank.index() < self.banks
    }

    /// Whether a logical row address is in range.
    pub(crate) const fn row_in_range(&self, row: RowAddr) -> bool {
        row.index() < self.rows_per_bank
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn row_addr_arithmetic() {
        let r = RowAddr::new(10);
        assert_eq!(r.plus(2), RowAddr::new(12));
        assert_eq!(r.minus(2), RowAddr::new(8));
        assert_eq!(RowAddr::new(1).minus(5), RowAddr::new(0));
    }

    #[test]
    fn geometry_range_checks() {
        let g = ModuleGeometry::tiny();
        assert!(g.bank_in_range(Bank::new(1)));
        assert!(!g.bank_in_range(Bank::new(2)));
        assert!(g.row_in_range(RowAddr::new(1023)));
        assert!(!g.row_in_range(RowAddr::new(1024)));
    }

    #[test]
    fn display_formats() {
        assert_eq!(Bank::new(2).to_string(), "B2");
        assert_eq!(RowAddr::new(7).to_string(), "r7");
        assert_eq!(PhysRow::new(7).to_string(), "p7");
    }
}
