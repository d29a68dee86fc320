//! Table-based arithmetic over the finite fields GF(2^4) and GF(2^8).
//!
//! Both fields are generated by a primitive polynomial and represented
//! through log/antilog tables, which keeps multiplication, division, and
//! inversion O(1) — the standard construction for Reed-Solomon codecs.

/// A binary extension field GF(2^m), m ≤ 8, with precomputed tables.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GaloisField {
    m: u32,
    /// Field size minus one (the multiplicative group order).
    q1: usize,
    /// exp[i] = α^i, doubled so products index without a modulo.
    exp: Vec<u8>,
    /// log[x] = i with α^i = x (log[0] unused).
    log: Vec<usize>,
}

impl GaloisField {
    /// Builds GF(2^m) from a primitive polynomial given as its bit mask
    /// including the leading term (e.g. `0x11D` for GF(256)).
    ///
    /// # Panics
    ///
    /// Panics if the polynomial does not generate the full
    /// multiplicative group (i.e. is not primitive for 2^m).
    pub fn new(m: u32, poly: u32) -> Self {
        assert!((2..=8).contains(&m), "supported field sizes: GF(4)..GF(256)");
        let size = 1usize << m;
        let q1 = size - 1;
        let mut exp = vec![0u8; 2 * q1];
        let mut log = vec![0usize; size];
        let mut x: u32 = 1;
        #[allow(clippy::needless_range_loop)] // `i` also indexes `log` below
        for i in 0..q1 {
            exp[i] = x as u8;
            assert!(
                log[x as usize] == 0 || i == 0,
                "polynomial {poly:#x} is not primitive for GF(2^{m})"
            );
            log[x as usize] = i;
            x <<= 1;
            if x & (1 << m) != 0 {
                x ^= poly;
            }
        }
        for i in 0..q1 {
            exp[q1 + i] = exp[i];
        }
        GaloisField { m, q1, exp, log }
    }

    /// GF(2^8) with the conventional polynomial x^8+x^4+x^3+x^2+1.
    pub fn gf256() -> Self {
        GaloisField::new(8, 0x11D)
    }

    /// GF(2^4) with x^4+x+1 (the Chipkill nibble field).
    pub(crate) fn gf16() -> Self {
        GaloisField::new(4, 0x13)
    }

    /// Field width in bits.
    pub fn bits(&self) -> u32 {
        self.m
    }

    /// Number of nonzero elements.
    pub fn order(&self) -> usize {
        self.q1
    }

    /// α^i.
    pub(crate) fn alpha_pow(&self, i: usize) -> u8 {
        self.exp[i % self.q1]
    }

    /// Multiplication.
    pub fn mul(&self, a: u8, b: u8) -> u8 {
        if a == 0 || b == 0 {
            0
        } else {
            self.exp[self.log[a as usize] + self.log[b as usize]]
        }
    }

    /// Division.
    ///
    /// # Panics
    ///
    /// Panics on division by zero.
    pub fn div(&self, a: u8, b: u8) -> u8 {
        assert!(b != 0, "division by zero in GF(2^{})", self.m);
        if a == 0 {
            0
        } else {
            self.exp[self.log[a as usize] + self.q1 - self.log[b as usize]]
        }
    }

    /// Discrete logarithm of a nonzero element.
    ///
    /// # Panics
    ///
    /// Panics on zero.
    pub fn log(&self, a: u8) -> usize {
        assert!(a != 0, "log of zero");
        self.log[a as usize]
    }

    /// Evaluates a polynomial (coefficients lowest-degree first) at `x`.
    pub(crate) fn poly_eval(&self, poly: &[u8], x: u8) -> u8 {
        let mut acc = 0u8;
        for &c in poly.iter().rev() {
            acc = self.mul(acc, x) ^ c;
        }
        acc
    }

    /// Multiplies two polynomials (coefficients lowest-degree first).
    pub(crate) fn poly_mul(&self, a: &[u8], b: &[u8]) -> Vec<u8> {
        let mut out = vec![0u8; a.len() + b.len() - 1];
        for (i, &ai) in a.iter().enumerate() {
            if ai == 0 {
                continue;
            }
            for (j, &bj) in b.iter().enumerate() {
                out[i + j] ^= self.mul(ai, bj);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gf256_basics() {
        let f = GaloisField::gf256();
        assert_eq!(f.order(), 255);
        assert_eq!(f.mul(0, 7), 0);
        assert_eq!(f.mul(1, 7), 7);
        // α^255 = 1.
        assert_eq!(f.alpha_pow(255), 1);
    }

    #[test]
    fn gf16_basics() {
        let f = GaloisField::gf16();
        assert_eq!(f.order(), 15);
        assert_eq!(f.alpha_pow(15), 1);
    }

    #[test]
    fn multiplication_is_commutative_and_associative() {
        let f = GaloisField::gf256();
        for a in [1u8, 2, 5, 130, 255] {
            for b in [1u8, 3, 77, 200] {
                assert_eq!(f.mul(a, b), f.mul(b, a));
                for c in [9u8, 41] {
                    assert_eq!(f.mul(f.mul(a, b), c), f.mul(a, f.mul(b, c)));
                }
            }
        }
    }

    #[test]
    fn division_inverts_multiplication() {
        let f = GaloisField::gf256();
        for a in 1..=255u8 {
            assert_eq!(f.mul(a, f.div(1, a)), 1);
            assert_eq!(f.div(f.mul(a, 57), 57), a);
        }
    }

    #[test]
    fn distributivity() {
        let f = GaloisField::gf16();
        for a in 1..16u8 {
            for b in 0..16u8 {
                for c in 0..16u8 {
                    assert_eq!(f.mul(a, b ^ c), f.mul(a, b) ^ f.mul(a, c));
                }
            }
        }
    }

    #[test]
    fn poly_eval_and_mul_agree() {
        let f = GaloisField::gf256();
        let a = [3u8, 0, 7];
        let b = [1u8, 5];
        let prod = f.poly_mul(&a, &b);
        for x in [0u8, 1, 2, 100, 255] {
            assert_eq!(f.poly_eval(&prod, x), f.mul(f.poly_eval(&a, x), f.poly_eval(&b, x)));
        }
    }

    #[test]
    #[should_panic(expected = "division by zero")]
    fn div_by_zero_panics() {
        let f = GaloisField::gf16();
        let _ = f.div(3, 0);
    }

    #[test]
    #[should_panic(expected = "not primitive")]
    fn non_primitive_polynomial_rejected() {
        // x^4 + x^3 + x^2 + x + 1 divides x^5 - 1: order 5, not 15.
        let _ = GaloisField::new(4, 0x1F);
    }
}
