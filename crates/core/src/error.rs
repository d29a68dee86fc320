//! Error type for U-TRR experiments.

use std::error::Error;
use std::fmt;

use dram_sim::{DramError, Nanos};

/// Errors raised by Row Scout and TRR Analyzer runs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum UtrrError {
    /// A DDR protocol/addressing error from the device.
    Dram(DramError),
    /// Row Scout exhausted its retention-time budget before finding the
    /// requested number of row groups.
    NotEnoughRowGroups {
        /// Groups found and validated before giving up.
        found: usize,
        /// Groups the profiling configuration asked for.
        needed: usize,
        /// The retention-time ceiling that was reached.
        max_retention: Nanos,
    },
    /// The refresh-schedule learner could not observe a periodic regular
    /// refresh of the probe row.
    ScheduleNotFound,
    /// An experiment precondition failed: the requested hammer count
    /// already causes RowHammer bit flips on the profiled rows, so
    /// retention-side-channel inference would be corrupted.
    HammerCountUnsafe {
        /// The offending per-aggressor hammer count.
        count: u64,
    },
    /// Physical-adjacency verification failed: hammering the supposed
    /// aggressor did not flip the profiled rows (§5.3 second method).
    AdjacencyBroken,
    /// An experiment was invoked with an empty input set (e.g. no row
    /// groups), so there is nothing to measure.
    EmptyInput,
}

impl UtrrError {
    /// A stable lower-kebab-case label of the error's kind (e.g.
    /// `schedule-not-found`), for machine-readable failure causes such
    /// as a fleet record's `re-failed:<cause>` reason.
    pub fn cause(&self) -> &'static str {
        match self {
            UtrrError::Dram(_) => "device-error",
            UtrrError::NotEnoughRowGroups { .. } => "not-enough-row-groups",
            UtrrError::ScheduleNotFound => "schedule-not-found",
            UtrrError::HammerCountUnsafe { .. } => "hammer-count-unsafe",
            UtrrError::AdjacencyBroken => "adjacency-broken",
            UtrrError::EmptyInput => "empty-input",
        }
    }
}

impl fmt::Display for UtrrError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            UtrrError::Dram(e) => write!(f, "device error: {e}"),
            UtrrError::NotEnoughRowGroups { found, needed, max_retention } => write!(
                f,
                "row scout found {found} of {needed} row groups before reaching \
                 the {max_retention} retention ceiling"
            ),
            UtrrError::ScheduleNotFound => {
                write!(f, "no periodic regular refresh observed for the probe row")
            }
            UtrrError::HammerCountUnsafe { count } => write!(
                f,
                "{count} hammers already flip the profiled rows via RowHammer; \
                 pick a smaller count"
            ),
            UtrrError::AdjacencyBroken => write!(
                f,
                "aggressor row does not disturb the profiled rows; the rows are \
                 not physically adjacent (remapped?)"
            ),
            UtrrError::EmptyInput => {
                write!(f, "experiment invoked with an empty input set (no row groups)")
            }
        }
    }
}

impl Error for UtrrError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            UtrrError::Dram(e) => Some(e),
            _ => None,
        }
    }
}

impl From<DramError> for UtrrError {
    fn from(e: DramError) -> Self {
        UtrrError::Dram(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dram_sim::Bank;

    #[test]
    fn displays_are_informative() {
        let e = UtrrError::NotEnoughRowGroups {
            found: 1,
            needed: 3,
            max_retention: Nanos::from_ms(4_000),
        };
        assert!(e.to_string().contains("1 of 3"));
        let e: UtrrError = DramError::BankClosed { bank: Bank::new(0) }.into();
        assert!(e.to_string().contains("device error"));
        assert!(e.source().is_some());
    }

    #[test]
    fn every_variant_displays_its_key_fact() {
        let cases: Vec<(UtrrError, &str)> = vec![
            (
                UtrrError::NotEnoughRowGroups {
                    found: 2,
                    needed: 5,
                    max_retention: Nanos::from_ms(6_000),
                },
                "2 of 5",
            ),
            (UtrrError::ScheduleNotFound, "no periodic regular refresh"),
            (UtrrError::HammerCountUnsafe { count: 9_000 }, "9000 hammers"),
            (UtrrError::AdjacencyBroken, "not physically adjacent"),
            (UtrrError::EmptyInput, "empty input set"),
        ];
        for (err, needle) in cases {
            let msg = err.to_string();
            assert!(msg.contains(needle), "{err:?} display {msg:?} lacks {needle:?}");
        }
    }

    #[test]
    fn causes_are_distinct_kebab_labels() {
        let errors = [
            UtrrError::Dram(DramError::BankClosed { bank: Bank::new(0) }),
            UtrrError::NotEnoughRowGroups { found: 0, needed: 1, max_retention: Nanos::ZERO },
            UtrrError::ScheduleNotFound,
            UtrrError::HammerCountUnsafe { count: 1 },
            UtrrError::AdjacencyBroken,
            UtrrError::EmptyInput,
        ];
        let mut causes: Vec<&str> = errors.iter().map(UtrrError::cause).collect();
        assert!(causes.iter().all(|c| c.chars().all(|ch| ch.is_ascii_lowercase() || ch == '-')));
        assert_eq!(UtrrError::ScheduleNotFound.cause(), "schedule-not-found");
        causes.sort_unstable();
        causes.dedup();
        assert_eq!(causes.len(), errors.len());
    }

    #[test]
    fn only_device_errors_carry_a_source() {
        let wrapped: UtrrError = DramError::BankClosed { bank: Bank::new(3) }.into();
        assert!(
            matches!(&wrapped, UtrrError::Dram(DramError::BankClosed { bank }) if bank.index() == 3)
        );
        assert!(wrapped.source().is_some());
        for err in [
            UtrrError::ScheduleNotFound,
            UtrrError::AdjacencyBroken,
            UtrrError::EmptyInput,
            UtrrError::HammerCountUnsafe { count: 1 },
        ] {
            assert!(err.source().is_none(), "{err:?} must not claim a source");
        }
    }
}
