//! Deterministic pseudo-random number generation for the simulator.
//!
//! The simulator must be bit-for-bit reproducible across runs and
//! platforms: a module seeded with the same value replays the same weak
//! cells, the same VRT transitions, and the same sampler decisions. We use
//! a self-contained SplitMix64 generator instead of an external RNG crate
//! so that the stream is stable regardless of dependency versions.
//!
//! # Example
//!
//! ```
//! use dram_sim::rng::SplitMix64;
//!
//! let mut a = SplitMix64::new(7);
//! let mut b = SplitMix64::new(7);
//! assert_eq!(a.next_u64(), b.next_u64());
//! ```

/// SplitMix64 generator (Steele, Lea, Flood 2014). Passes BigCrush; one
/// 64-bit state word, constant-time stepping, and trivially seedable,
/// which makes it ideal for deriving independent per-row streams.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator from a seed. Equal seeds yield equal streams.
    pub fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    /// Returns the next value in the stream.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix(self.state)
    }

    /// Returns a float uniformly distributed in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        // 53 significant bits, the standard conversion.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Returns `true` with probability `p` (clamped to `[0, 1]`).
    pub fn next_bool(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }

    /// Returns a value uniformly distributed in `[0, bound)`.
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    pub fn next_below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "next_below bound must be positive");
        // Multiply-shift rejection-free mapping (Lemire); the modulo bias
        // is negligible for the bounds used in the simulator but we use
        // the widening multiply anyway for uniformity.
        let x = self.next_u64();
        ((x as u128 * bound as u128) >> 64) as u64
    }

    /// Returns a float uniformly distributed in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi` or either bound is not finite.
    pub(crate) fn next_range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        assert!(lo.is_finite() && hi.is_finite() && lo <= hi);
        lo + self.next_f64() * (hi - lo)
    }

    /// Samples an exponential distribution with the given mean.
    ///
    /// # Panics
    ///
    /// Panics if `mean` is not positive.
    pub(crate) fn next_exp(&mut self, mean: f64) -> f64 {
        assert!(mean > 0.0, "exponential mean must be positive");
        // Inverse CDF; 1 - u avoids ln(0).
        -mean * (1.0 - self.next_f64()).ln()
    }

    /// Samples a log-uniform distribution over `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if either bound is not positive or `lo > hi`.
    pub(crate) fn next_log_uniform(&mut self, lo: f64, hi: f64) -> f64 {
        assert!(lo > 0.0 && hi >= lo, "log-uniform bounds must be positive and ordered");
        (self.next_range_f64(lo.ln(), hi.ln())).exp()
    }
}

/// The SplitMix64 output mixer, usable standalone as a strong 64-bit hash.
///
/// Used to derive independent per-row seeds from `(module_seed, bank, row)`
/// tuples without keeping any per-row RNG state resident.
pub(crate) fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Derives a stable sub-seed from a parent seed and a stream index.
///
/// Sub-seeds for distinct `(seed, stream)` pairs are statistically
/// independent, which lets the module hand every row its own generator.
pub fn derive_seed(seed: u64, stream: u64) -> u64 {
    mix(seed ^ mix(stream.wrapping_add(0xA076_1D64_78BD_642F)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_are_deterministic() {
        let mut a = SplitMix64::new(123);
        let mut b = SplitMix64::new(123);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SplitMix64::new(1);
        let mut b = SplitMix64::new(2);
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut rng = SplitMix64::new(99);
        for _ in 0..10_000 {
            let x = rng.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn next_below_respects_bound() {
        let mut rng = SplitMix64::new(7);
        for bound in [1u64, 2, 3, 10, 1000] {
            for _ in 0..1000 {
                assert!(rng.next_below(bound) < bound);
            }
        }
    }

    #[test]
    fn next_below_covers_small_range() {
        let mut rng = SplitMix64::new(11);
        let mut seen = [false; 8];
        for _ in 0..1000 {
            seen[rng.next_below(8) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "all 8 buckets should be hit");
    }

    #[test]
    fn exponential_mean_is_close() {
        let mut rng = SplitMix64::new(5);
        let n = 100_000;
        let sum: f64 = (0..n).map(|_| rng.next_exp(3.0)).sum();
        let mean = sum / n as f64;
        assert!((mean - 3.0).abs() < 0.1, "observed mean {mean}");
    }

    #[test]
    fn log_uniform_within_bounds() {
        let mut rng = SplitMix64::new(17);
        for _ in 0..10_000 {
            let x = rng.next_log_uniform(10.0, 1000.0);
            assert!((10.0..1000.0).contains(&x));
        }
    }

    #[test]
    fn derive_seed_distinct_streams() {
        let s0 = derive_seed(42, 0);
        let s1 = derive_seed(42, 1);
        let s2 = derive_seed(43, 0);
        assert_ne!(s0, s1);
        assert_ne!(s0, s2);
    }

    #[test]
    fn bool_probability_is_roughly_respected() {
        let mut rng = SplitMix64::new(8);
        let hits = (0..100_000).filter(|_| rng.next_bool(0.25)).count();
        let frac = hits as f64 / 100_000.0;
        assert!((frac - 0.25).abs() < 0.01, "observed {frac}");
    }
}
