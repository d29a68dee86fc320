//! Error type for DRAM command execution.

use std::error::Error;
use std::fmt;

use crate::addr::{Bank, RowAddr};

/// Errors raised when a DDR command addresses a bank or row outside the
/// device.
///
/// These model controller programming mistakes (the FPGA would hang or
/// corrupt data on real hardware); the physics layer itself is infallible.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DramError {
    /// A bank index outside the module geometry.
    BankOutOfRange { bank: Bank, banks: u8 },
    /// A logical row address outside the bank.
    RowOutOfRange { row: RowAddr, rows: u32 },
}

impl fmt::Display for DramError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DramError::BankOutOfRange { bank, banks } => {
                write!(f, "bank {bank} out of range (module has {banks} banks)")
            }
            DramError::RowOutOfRange { row, rows } => {
                write!(f, "row {row} out of range (bank has {rows} rows)")
            }
        }
    }
}

impl Error for DramError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_are_lowercase_and_informative() {
        let e = DramError::BankOutOfRange { bank: Bank::new(1), banks: 1 };
        let msg = e.to_string();
        assert!(msg.starts_with(char::is_lowercase));
        assert!(msg.contains("B1"));
    }

    #[test]
    fn every_variant_displays_its_key_fact() {
        let cases: Vec<(DramError, &str)> = vec![
            (DramError::BankOutOfRange { bank: Bank::new(9), banks: 8 }, "8 banks"),
            (DramError::RowOutOfRange { row: RowAddr::new(4096), rows: 2048 }, "2048 rows"),
        ];
        for (error, needle) in cases {
            let msg = error.to_string();
            assert!(msg.contains(needle), "{error:?} renders {msg:?} without {needle:?}");
            assert!(msg.starts_with(char::is_lowercase), "{msg:?} must start lowercase");
        }
    }

    #[test]
    fn protocol_errors_have_no_source() {
        // The physics layer is infallible, so no variant wraps another
        // error — `source()` must be `None` across the board.
        let e = DramError::BankOutOfRange { bank: Bank::new(9), banks: 8 };
        assert!(e.source().is_none());
    }

    #[test]
    fn error_trait_is_implemented() {
        fn takes_error<E: Error + Send + Sync + 'static>(_: E) {}
        takes_error(DramError::BankOutOfRange { bank: Bank::new(0), banks: 0 });
    }
}
