//! A systematic Reed-Solomon codec over GF(2^m) with a full
//! bounded-distance decoder: syndrome computation, Berlekamp–Massey,
//! Chien search, and Forney's algorithm.
//!
//! With `p` parity symbols the code corrects `⌊p/2⌋` symbol errors; when
//! more errors occur, the decoder either reports an uncorrectable word
//! or — as on real hardware — *miscorrects* to a different codeword,
//! which is exactly the §7.4 failure mode the analysis quantifies.

use crate::gf::GaloisField;

/// Decoder outcome for one word.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RsDecode {
    /// Syndromes were clean: the word is accepted as-is.
    Clean(Vec<u8>),
    /// Errors found and corrected; the payload is the corrected data.
    Corrected(Vec<u8>),
    /// The decoder could not produce a consistent correction.
    Uncorrectable,
}

impl RsDecode {
    /// The accepted data, if any.
    pub fn data(&self) -> Option<&[u8]> {
        match self {
            RsDecode::Clean(d) | RsDecode::Corrected(d) => Some(d),
            RsDecode::Uncorrectable => None,
        }
    }
}

/// A systematic RS(n, k) code: `k` data symbols, `parity` check symbols,
/// `n = k + parity ≤ 2^m - 1`.
///
/// # Example
///
/// ```
/// use ecc::rs::ReedSolomon;
///
/// let code = ReedSolomon::gf256(8, 4); // corrects 2 symbol errors
/// let mut word = code.encode(&[1, 2, 3, 4, 5, 6, 7, 8]);
/// word[0] ^= 0xFF;
/// word[5] ^= 0x0F;
/// assert_eq!(code.decode(&word).data().unwrap(), &[1, 2, 3, 4, 5, 6, 7, 8]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReedSolomon {
    field: GaloisField,
    k: usize,
    parity: usize,
    /// Generator polynomial ∏ (x − α^i), lowest degree first.
    generator: Vec<u8>,
}

impl ReedSolomon {
    /// Builds an RS code over a field.
    ///
    /// # Panics
    ///
    /// Panics if `k + parity` exceeds the field's codeword limit or
    /// `parity == 0`.
    pub fn new(field: GaloisField, k: usize, parity: usize) -> Self {
        assert!(parity > 0, "a Reed-Solomon code needs parity symbols");
        assert!(
            k + parity <= field.order(),
            "codeword length {} exceeds field limit {}",
            k + parity,
            field.order()
        );
        let mut generator = vec![1u8];
        for i in 0..parity {
            generator = field.poly_mul(&generator, &[field.alpha_pow(i), 1]);
        }
        ReedSolomon { field, k, parity, generator }
    }

    /// An RS code over GF(256).
    pub fn gf256(k: usize, parity: usize) -> Self {
        ReedSolomon::new(GaloisField::gf256(), k, parity)
    }

    /// An RS code over GF(16) (4-bit symbols).
    pub(crate) fn gf16(k: usize, parity: usize) -> Self {
        ReedSolomon::new(GaloisField::gf16(), k, parity)
    }

    /// Symbol errors the code corrects.
    pub fn correctable(&self) -> usize {
        self.parity / 2
    }

    /// Encodes `data` (exactly `k` symbols) into a systematic codeword
    /// `data ‖ parity`.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != k` or a symbol exceeds the field width.
    pub fn encode(&self, data: &[u8]) -> Vec<u8> {
        assert_eq!(data.len(), self.k, "expected {} data symbols", self.k);
        let width_mask = ((1u16 << self.field.bits()) - 1) as u8;
        assert!(data.iter().all(|&d| d & !width_mask == 0), "symbol out of field range");
        // Systematic encoding: parity = (data · x^parity) mod generator.
        // Symbol 0 sits at the highest degree, so the division consumes
        // the data in index order.
        let mut remainder = vec![0u8; self.parity];
        for &d in data.iter() {
            let feedback = d ^ remainder[self.parity - 1];
            for j in (1..self.parity).rev() {
                remainder[j] = remainder[j - 1] ^ self.field.mul(feedback, self.generator[j]);
            }
            remainder[0] = self.field.mul(feedback, self.generator[0]);
        }
        let mut word = data.to_vec();
        word.extend(remainder.iter().rev());
        word
    }

    /// Decodes a received word of `k + parity` symbols.
    ///
    /// # Panics
    ///
    /// Panics if the word length is wrong.
    pub fn decode(&self, received: &[u8]) -> RsDecode {
        let n = self.k + self.parity;
        assert_eq!(received.len(), n, "expected {n} symbols");
        // Codeword symbol i sits at polynomial degree n-1-i (systematic
        // data-first layout).
        let poly: Vec<u8> = received.iter().rev().copied().collect();

        // Syndromes S_j = r(α^j).
        let syndromes: Vec<u8> = (0..self.parity)
            .map(|j| self.field.poly_eval(&poly, self.field.alpha_pow(j)))
            .collect();
        if syndromes.iter().all(|&s| s == 0) {
            return RsDecode::Clean(received[..self.k].to_vec());
        }

        // Berlekamp–Massey: error locator σ(x).
        let sigma = self.berlekamp_massey(&syndromes);
        let errors = sigma.len() - 1;
        if errors == 0 || errors > self.correctable() {
            return RsDecode::Uncorrectable;
        }

        // Chien search: roots of σ give error positions.
        let mut positions = Vec::with_capacity(errors);
        for i in 0..n {
            // Position i (degree n-1-i) errored iff σ(α^{-(n-1-i)}) = 0.
            let x = self.field.alpha_pow(self.field.order() - (n - 1 - i) % self.field.order());
            if self.field.poly_eval(&sigma, x) == 0 {
                positions.push(i);
            }
        }
        if positions.len() != errors {
            return RsDecode::Uncorrectable;
        }

        // Forney: error magnitudes from Ω(x) = S(x)·σ(x) mod x^parity.
        let omega = {
            let mut o = self.field.poly_mul(&syndromes, &sigma);
            o.truncate(self.parity);
            o
        };
        let sigma_deriv: Vec<u8> = sigma
            .iter()
            .enumerate()
            .skip(1)
            .map(|(i, &c)| if i % 2 == 1 { c } else { 0 })
            .collect();
        let mut corrected = received.to_vec();
        for &pos in &positions {
            let degree = n - 1 - pos;
            let x = self.field.alpha_pow(degree);
            let x_inv = self.field.alpha_pow(self.field.order() - degree % self.field.order());
            let num = self.field.poly_eval(&omega, x_inv);
            let den = self.field.poly_eval(&sigma_deriv, x_inv);
            if den == 0 {
                return RsDecode::Uncorrectable;
            }
            // Forney with the generator anchored at b = 0: the magnitude
            // carries an X_l^(1-b) = X_l factor.
            let magnitude = self.field.mul(x, self.field.div(num, den));
            corrected[pos] ^= magnitude;
        }

        // Re-check: the corrected word must be a codeword.
        let check: Vec<u8> = corrected.iter().rev().copied().collect();
        let consistent =
            (0..self.parity).all(|j| self.field.poly_eval(&check, self.field.alpha_pow(j)) == 0);
        if consistent {
            RsDecode::Corrected(corrected[..self.k].to_vec())
        } else {
            RsDecode::Uncorrectable
        }
    }

    /// Berlekamp–Massey over the syndrome sequence; returns σ(x),
    /// lowest-degree coefficient first (σ(0) = 1).
    fn berlekamp_massey(&self, syndromes: &[u8]) -> Vec<u8> {
        let mut sigma = vec![1u8];
        let mut b = vec![1u8];
        let mut l = 0usize;
        let mut m = 1usize;
        let mut bb = 1u8;
        for n in 0..syndromes.len() {
            let mut d = syndromes[n];
            for i in 1..=l {
                if i < sigma.len() {
                    d ^= self.field.mul(sigma[i], syndromes[n - i]);
                }
            }
            if d == 0 {
                m += 1;
            } else if 2 * l <= n {
                let t = sigma.clone();
                let coef = self.field.div(d, bb);
                let mut shifted = vec![0u8; m];
                shifted.extend_from_slice(&b);
                if shifted.len() > sigma.len() {
                    sigma.resize(shifted.len(), 0);
                }
                for (i, &s) in shifted.iter().enumerate() {
                    sigma[i] ^= self.field.mul(coef, s);
                }
                l = n + 1 - l;
                b = t;
                bb = d;
                m = 1;
            } else {
                let coef = self.field.div(d, bb);
                let mut shifted = vec![0u8; m];
                shifted.extend_from_slice(&b);
                if shifted.len() > sigma.len() {
                    sigma.resize(shifted.len(), 0);
                }
                for (i, &s) in shifted.iter().enumerate() {
                    sigma[i] ^= self.field.mul(coef, s);
                }
                m += 1;
            }
        }
        while sigma.last() == Some(&0) {
            sigma.pop();
        }
        sigma
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dram_sim::rng::SplitMix64;

    fn random_data(rng: &mut SplitMix64, k: usize, width: u32) -> Vec<u8> {
        (0..k).map(|_| (rng.next_u64() & ((1 << width) - 1)) as u8).collect()
    }

    #[test]
    fn clean_words_pass_through() {
        let code = ReedSolomon::gf256(16, 6);
        let data: Vec<u8> = (0..16).collect();
        let word = code.encode(&data);
        assert_eq!(word.len(), 22);
        assert_eq!(code.decode(&word), RsDecode::Clean(data));
    }

    #[test]
    fn corrects_up_to_t_errors() {
        let mut rng = SplitMix64::new(1);
        for parity in [2usize, 4, 6, 8] {
            let code = ReedSolomon::gf256(16, parity);
            let t = code.correctable();
            for trial in 0..50 {
                let data = random_data(&mut rng, 16, 8);
                let mut word = code.encode(&data);
                // Inject exactly t errors at distinct positions.
                let mut positions = Vec::new();
                while positions.len() < t {
                    let p = rng.next_below(word.len() as u64) as usize;
                    if !positions.contains(&p) {
                        positions.push(p);
                    }
                }
                for &p in &positions {
                    let e = (rng.next_below(255) + 1) as u8;
                    word[p] ^= e;
                }
                let decoded = code.decode(&word);
                assert_eq!(
                    decoded.data(),
                    Some(&data[..]),
                    "parity {parity} trial {trial} positions {positions:?}"
                );
            }
        }
    }

    #[test]
    fn detects_or_miscorrects_beyond_t() {
        let mut rng = SplitMix64::new(2);
        let code = ReedSolomon::gf256(16, 4); // t = 2
        let mut uncorrectable = 0;
        let mut silent = 0;
        for _ in 0..300 {
            let data = random_data(&mut rng, 16, 8);
            let mut word = code.encode(&data);
            for _ in 0..3 {
                let p = rng.next_below(word.len() as u64) as usize;
                word[p] ^= (rng.next_below(255) + 1) as u8;
            }
            match code.decode(&word) {
                RsDecode::Uncorrectable => uncorrectable += 1,
                RsDecode::Corrected(d) | RsDecode::Clean(d) => {
                    if d != data {
                        silent += 1;
                    }
                }
            }
        }
        assert!(uncorrectable > 200, "3 errors usually exceed the decoder: {uncorrectable}");
        // Miscorrections exist but are the minority.
        assert!(silent < 100, "mis/undetected corruption should be rare-ish: {silent}");
    }

    #[test]
    fn parity_errors_are_corrected_too() {
        let code = ReedSolomon::gf256(8, 4);
        let data: Vec<u8> = (10..18).collect();
        let mut word = code.encode(&data);
        word[9] ^= 0x55; // a parity symbol
        assert_eq!(code.decode(&word).data(), Some(&data[..]));
    }

    #[test]
    fn gf16_code_works() {
        let mut rng = SplitMix64::new(3);
        let code = ReedSolomon::gf16(11, 4); // n = 15 = field limit
        for _ in 0..50 {
            let data = random_data(&mut rng, 11, 4);
            let mut word = code.encode(&data);
            word[3] ^= 0x9 & 0xF;
            word[12] ^= 0x5;
            assert_eq!(code.decode(&word).data(), Some(&data[..]));
        }
    }

    #[test]
    #[should_panic(expected = "exceeds field limit")]
    fn oversized_code_rejected() {
        let _ = ReedSolomon::gf16(14, 4);
    }

    #[test]
    #[should_panic(expected = "expected 8 data symbols")]
    fn wrong_data_length_rejected() {
        let code = ReedSolomon::gf256(8, 2);
        let _ = code.encode(&[1, 2, 3]);
    }
}
