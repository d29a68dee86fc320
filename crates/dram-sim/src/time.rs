//! Simulated time and DDR4 timing parameters.
//!
//! The whole simulation runs on a single monotonically increasing clock in
//! nanoseconds. Waiting is free — advancing the clock by a retention time
//! costs nothing — which is what makes software reproduction of
//! retention-side-channel experiments practical: the paper's experiments
//! are dominated by real wall-clock waits of hundreds of milliseconds
//! (§4.1), while ours complete instantly.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// A point in simulated time, or a duration, in nanoseconds.
///
/// # Example
///
/// ```
/// use dram_sim::Nanos;
///
/// let t = Nanos::from_ms(64) + Nanos::from_us(7_800) / 1_000;
/// assert_eq!(t.as_ns(), 64_000_000 + 7_800);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Nanos(u64);

impl Nanos {
    /// Time zero / the zero duration.
    pub const ZERO: Nanos = Nanos(0);

    /// Creates a value from raw nanoseconds.
    pub const fn from_ns(ns: u64) -> Self {
        Nanos(ns)
    }

    /// Creates a value from microseconds. Kept for the property suites
    /// (`refresh_equiv`, `device_twins`), which state their times in µs.
    pub const fn from_us(us: u64) -> Self {
        Nanos(us * 1_000)
    }

    /// Creates a value from milliseconds.
    pub const fn from_ms(ms: u64) -> Self {
        Nanos(ms * 1_000_000)
    }

    /// Returns the raw nanosecond count.
    pub const fn as_ns(self) -> u64 {
        self.0
    }

    /// Returns the value in fractional milliseconds.
    pub(crate) fn as_ms_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Saturating subtraction: returns the zero duration instead of
    /// underflowing.
    pub const fn saturating_sub(self, rhs: Nanos) -> Nanos {
        Nanos(self.0.saturating_sub(rhs.0))
    }

    /// Checked subtraction.
    pub const fn checked_sub(self, rhs: Nanos) -> Option<Nanos> {
        match self.0.checked_sub(rhs.0) {
            Some(v) => Some(Nanos(v)),
            None => None,
        }
    }
}

impl fmt::Display for Nanos {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000 {
            write!(f, "{:.3} ms", self.as_ms_f64())
        } else if self.0 >= 1_000 {
            write!(f, "{:.3} us", self.0 as f64 / 1e3)
        } else {
            write!(f, "{} ns", self.0)
        }
    }
}

impl Add for Nanos {
    type Output = Nanos;
    fn add(self, rhs: Nanos) -> Nanos {
        Nanos(self.0 + rhs.0)
    }
}

impl AddAssign for Nanos {
    fn add_assign(&mut self, rhs: Nanos) {
        self.0 += rhs.0;
    }
}

impl Sub for Nanos {
    type Output = Nanos;
    fn sub(self, rhs: Nanos) -> Nanos {
        Nanos(self.0 - rhs.0)
    }
}

impl SubAssign for Nanos {
    fn sub_assign(&mut self, rhs: Nanos) {
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for Nanos {
    type Output = Nanos;
    fn mul(self, rhs: u64) -> Nanos {
        Nanos(self.0 * rhs)
    }
}

impl Div<u64> for Nanos {
    type Output = Nanos;
    fn div(self, rhs: u64) -> Nanos {
        Nanos(self.0 / rhs)
    }
}

impl Sum for Nanos {
    fn sum<I: Iterator<Item = Nanos>>(iter: I) -> Nanos {
        iter.fold(Nanos::ZERO, Add::add)
    }
}

/// DDR4 timing parameters relevant to RowHammer experiments.
///
/// Defaults follow the typical values the paper uses in its footnote 10:
/// 35 ns activation (`tRAS`), 15 ns precharge (`tRP`), 350 ns refresh
/// (`tRFC`), one `REF` every 7.8 µs (`tREFI`), which "allows at most 149
/// hammers to a single DRAM bank" between two `REF`s.
///
/// # Example
///
/// ```
/// use dram_sim::Timings;
///
/// let t = Timings::ddr4();
/// // The paper's footnote-10 arithmetic: hammers that fit between REFs.
/// let hammers = (t.t_refi - t.t_rfc).as_ns() / t.t_rc().as_ns();
/// assert_eq!(hammers, 149);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Timings {
    /// Row active time: minimum time a row stays open after `ACT`.
    pub t_ras: Nanos,
    /// Row precharge time: `PRE` to next `ACT` in the same bank.
    pub t_rp: Nanos,
    /// `ACT` to column command delay.
    pub t_rcd: Nanos,
    /// Refresh cycle time: `REF` to next command.
    pub t_rfc: Nanos,
    /// Average refresh interval: one `REF` every `tREFI`.
    pub t_refi: Nanos,
    /// Four-activation window: at most four `ACT`s per rank per `tFAW`.
    pub t_faw: Nanos,
}

impl Timings {
    /// Standard DDR4 timings as used throughout the paper.
    pub const fn ddr4() -> Self {
        Timings {
            t_ras: Nanos::from_ns(35),
            t_rp: Nanos::from_ns(15),
            t_rcd: Nanos::from_ns(15),
            t_rfc: Nanos::from_ns(350),
            t_refi: Nanos::from_ns(7_800),
            t_faw: Nanos::from_ns(20),
        }
    }

    /// The cost of one hammer: a full `ACT`/`PRE` cycle (`tRC`).
    pub const fn t_rc(&self) -> Nanos {
        Nanos::from_ns(self.t_ras.as_ns() + self.t_rp.as_ns())
    }
}

impl Default for Timings {
    fn default() -> Self {
        Timings::ddr4()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_conversions() {
        assert_eq!(Nanos::from_ms(1), Nanos::from_us(1_000));
        assert_eq!(Nanos::from_us(1), Nanos::from_ns(1_000));
    }

    #[test]
    fn arithmetic() {
        let a = Nanos::from_ns(100);
        let b = Nanos::from_ns(30);
        assert_eq!((a + b).as_ns(), 130);
        assert_eq!((a - b).as_ns(), 70);
        assert_eq!((a * 3).as_ns(), 300);
        assert_eq!((a / 4).as_ns(), 25);
        assert_eq!(b.saturating_sub(a), Nanos::ZERO);
        assert_eq!(a.checked_sub(b), Some(Nanos::from_ns(70)));
        assert_eq!(b.checked_sub(a), None);
    }

    #[test]
    fn display_picks_sensible_units() {
        assert_eq!(Nanos::from_ns(5).to_string(), "5 ns");
        assert_eq!(Nanos::from_us(2).to_string(), "2.000 us");
        assert_eq!(Nanos::from_ms(3).to_string(), "3.000 ms");
    }

    #[test]
    fn ddr4_row_cycle() {
        assert_eq!(Timings::ddr4().t_rc().as_ns(), 50);
    }

    #[test]
    fn sum_of_durations() {
        let total: Nanos =
            [Nanos::from_ns(1), Nanos::from_ns(2), Nanos::from_ns(3)].into_iter().sum();
        assert_eq!(total.as_ns(), 6);
    }
}
