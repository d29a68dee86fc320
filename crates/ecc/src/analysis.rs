//! §7.4: feeding measured RowHammer flip distributions through ECC.
//!
//! The input is the Fig. 10 ingredient — how many 8-byte datawords
//! contain `k` bit flips — as produced by the attack evaluation harness.
//! For each dataword the flips are placed at uniformly random bit
//! positions ("our access patterns can cause bit flips at *arbitrary*
//! locations") and the word is pushed through a codec; the outcome
//! tallies say whether the code corrected, detected, or was silently
//! defeated.

use dram_sim::rng::SplitMix64;

use crate::chipkill::{Chipkill, ChipkillDecode};
use crate::rs::{ReedSolomon, RsDecode};
use crate::secded::{Secded7264, SecdedDecode};

/// The codes the paper's §7.4 discusses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CodeKind {
    /// (72, 64) SECDED Hamming.
    Secded,
    /// x4 Chipkill (SSC-DSD over nibbles).
    Chipkill,
    /// Reed-Solomon over GF(256) with this many parity symbols per
    /// 8-byte dataword.
    ReedSolomon {
        /// Parity symbols.
        parity: usize,
    },
}

impl std::fmt::Display for CodeKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodeKind::Secded => write!(f, "SECDED(72,64)"),
            CodeKind::Chipkill => write!(f, "Chipkill x4"),
            CodeKind::ReedSolomon { parity } => write!(f, "RS(8+{parity})"),
        }
    }
}

/// How one dataword fared.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum EccOutcome {
    /// Decoded to the original data.
    Corrected,
    /// Flagged uncorrectable (a machine-check on real hardware).
    Detected,
    /// Decoded *successfully* to the wrong data — silent corruption.
    SilentCorruption,
}

/// Aggregate tallies for one code over a flip distribution.
#[derive(Debug, Clone, PartialEq)]
pub struct EccReport {
    /// The code evaluated.
    pub code: CodeKind,
    /// Datawords decoded back to the written data.
    pub corrected: u64,
    /// Datawords flagged uncorrectable.
    pub detected: u64,
    /// Datawords silently corrupted (miscorrection or aliasing).
    pub silent: u64,
}

impl EccReport {
    /// Total datawords evaluated.
    pub fn total(&self) -> u64 {
        self.corrected + self.detected + self.silent
    }

    /// Whether the code fully protected the system (every word either
    /// corrected or at least detected).
    pub fn fully_protects(&self) -> bool {
        self.silent == 0
    }
}

/// Draws `k` distinct bit positions in `0..64`.
fn draw_flips(rng: &mut SplitMix64, k: u32) -> Vec<u32> {
    let mut bits: Vec<u32> = Vec::with_capacity(k as usize);
    while bits.len() < k as usize {
        let b = rng.next_below(64) as u32;
        if !bits.contains(&b) {
            bits.push(b);
        }
    }
    bits
}

fn classify_data(original: u64, decoded: Option<u64>) -> EccOutcome {
    match decoded {
        None => EccOutcome::Detected,
        Some(d) if d == original => EccOutcome::Corrected,
        Some(_) => EccOutcome::SilentCorruption,
    }
}

/// A constructed codec, built once per [`analyze`] call rather than per
/// dataword (the Reed-Solomon tables and generator polynomial are not
/// free).
enum Codec {
    Secded(Secded7264),
    Chipkill(Chipkill),
    Rs(ReedSolomon),
}

impl Codec {
    fn new(code: CodeKind) -> Self {
        match code {
            CodeKind::Secded => Codec::Secded(Secded7264::new()),
            CodeKind::Chipkill => Codec::Chipkill(Chipkill::new()),
            CodeKind::ReedSolomon { parity } => Codec::Rs(ReedSolomon::gf256(8, parity)),
        }
    }
}

/// Evaluates one dataword with `k` random flips under a code.
fn evaluate_word(codec: &Codec, rng: &mut SplitMix64, k: u32) -> EccOutcome {
    let data = rng.next_u64();
    let flips = draw_flips(rng, k);
    match codec {
        Codec::Secded(codec) => {
            let mut word = codec.encode(data);
            for &b in &flips {
                word.data ^= 1u64 << b;
            }
            let decoded = codec.decode(word);
            classify_data(
                data,
                match decoded {
                    SecdedDecode::Detected => None,
                    other => other.corrected(),
                },
            )
        }
        Codec::Chipkill(codec) => {
            let decoded = codec.roundtrip_with_flips(data, &flips);
            classify_data(
                data,
                match decoded {
                    ChipkillDecode::Detected => None,
                    other => other.corrected(),
                },
            )
        }
        Codec::Rs(codec) => {
            let bytes: Vec<u8> = data.to_le_bytes().to_vec();
            let mut word = codec.encode(&bytes);
            for &b in &flips {
                word[(b / 8) as usize] ^= 1 << (b % 8);
            }
            match codec.decode(&word) {
                RsDecode::Uncorrectable => EccOutcome::Detected,
                decoded => {
                    let d = decoded.data().expect("not uncorrectable");
                    classify_data(data, Some(u64::from_le_bytes(d.try_into().expect("8 bytes"))))
                }
            }
        }
    }
}

/// Pushes a measured flip distribution (`(flips per dataword, word
/// count)` pairs, as produced by the attack evaluation) through a code.
/// Words with more than `cap` occurrences of a flip count are sampled
/// and scaled, keeping the run fast on full-bank histograms.
pub fn analyze(code: CodeKind, histogram: &[(u32, u64)], seed: u64) -> EccReport {
    const CAP: u64 = 2_000;
    let mut rng = SplitMix64::new(seed);
    let codec = Codec::new(code);
    let mut report = EccReport { code, corrected: 0, detected: 0, silent: 0 };
    for &(k, count) in histogram {
        if k == 0 || count == 0 {
            continue;
        }
        let samples = count.min(CAP);
        let scale = count as f64 / samples as f64;
        let mut tallies = [0u64; 3];
        for _ in 0..samples {
            match evaluate_word(&codec, &mut rng, k) {
                EccOutcome::Corrected => tallies[0] += 1,
                EccOutcome::Detected => tallies[1] += 1,
                EccOutcome::SilentCorruption => tallies[2] += 1,
            }
        }
        report.corrected += (tallies[0] as f64 * scale).round() as u64;
        report.detected += (tallies[1] as f64 * scale).round() as u64;
        report.silent += (tallies[2] as f64 * scale).round() as u64;
    }
    report
}

/// Like [`analyze`], but records the run into a metrics registry: the
/// outcome tallies land in the `ecc.words.corrected`,
/// `ecc.words.detected`, and `ecc.words.silent` counters, and the whole
/// evaluation runs under an `ecc.analyze` span. ECC analysis has no
/// simulated clock, so the span's simulated duration is zero and only
/// its wall-clock duration is meaningful.
pub fn analyze_with_registry(
    code: CodeKind,
    histogram: &[(u32, u64)],
    seed: u64,
    registry: &std::sync::Arc<obs::MetricsRegistry>,
) -> EccReport {
    let words: u64 = histogram.iter().map(|&(_, n)| n).sum();
    let span = obs::span!(std::sync::Arc::clone(registry), "ecc.analyze", 0, words = words);
    let report = analyze(code, histogram, seed);
    registry.counter("ecc.words.corrected").add(report.corrected);
    registry.counter("ecc.words.detected").add(report.detected);
    registry.counter("ecc.words.silent").add(report.silent);
    span.finish(0);
    report
}

/// The minimum number of Reed-Solomon parity symbols (over GF(2^8),
/// 8-byte datawords) that *guarantees* detection of every word in a
/// measured flip distribution — the §7.4 cost question: "to detect (and
/// correct half of) the maximum number of bit flips (i.e., 7) […] a
/// Reed-Solomon code would incur a large overhead by requiring at least
/// 7 parity-check symbols."
///
/// This is the minimum-distance bound (each of `k` bit flips may land in
/// a distinct byte symbol, so detecting them all needs distance
/// `k + 1`, i.e. `k` parity symbols), not a statistical estimate —
/// random flip placements usually evade aliasing at far lower parity,
/// but a guarantee must cover the adversarial placement.
pub fn rs_parity_needed(histogram: &[(u32, u64)]) -> Option<usize> {
    let max_k = histogram.iter().filter(|&&(_, count)| count > 0).map(|&(k, _)| k).max()?;
    // At most 8 data symbols can be hit; beyond 8 parity symbols the
    // byte-level construction cannot help further.
    let symbols_hit = max_k.min(8) as usize;
    (symbols_hit >= 1).then_some(symbols_hit)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_flips_are_always_corrected() {
        for code in [CodeKind::Secded, CodeKind::Chipkill, CodeKind::ReedSolomon { parity: 2 }] {
            let report = analyze(code, &[(1, 500)], 1);
            assert_eq!(report.corrected, 500, "{code}");
            assert!(report.fully_protects());
        }
    }

    #[test]
    fn double_flips_never_silently_corrupt_secded() {
        let report = analyze(CodeKind::Secded, &[(2, 1_000)], 2);
        assert_eq!(report.silent, 0);
        assert_eq!(report.corrected, 0);
        assert_eq!(report.detected, 1_000);
    }

    #[test]
    fn triple_flips_defeat_secded() {
        // The paper's key §7.4 claim: ≥3 flips per dataword break
        // SECDED, mostly via silent miscorrection.
        let report = analyze(CodeKind::Secded, &[(3, 1_000)], 3);
        assert!(!report.fully_protects());
        assert!(report.silent > 500, "{report:?}");
    }

    #[test]
    fn scattered_flips_defeat_chipkill() {
        let report = analyze(CodeKind::Chipkill, &[(3, 2_000), (4, 1_000)], 4);
        assert!(!report.fully_protects(), "{report:?}");
    }

    #[test]
    fn seven_parity_symbols_detect_the_worst_case() {
        // "To detect (and correct half of) the maximum number of bit
        // flips (i.e., 7) […] a Reed-Solomon code would require at least
        // 7 parity-check symbols." 7 flips hit at most 7 of the 8 data
        // bytes; with 7 parity symbols (t = 3) the bounded-distance
        // decoder cannot be fooled within distance 8.
        let report = analyze(CodeKind::ReedSolomon { parity: 7 }, &[(7, 1_000)], 5);
        assert!(report.fully_protects(), "{report:?}");
        // A weaker RS code (2 parity) is defeated by the same load.
        let weak = analyze(CodeKind::ReedSolomon { parity: 2 }, &[(7, 1_000)], 6);
        assert!(!weak.fully_protects(), "{weak:?}");
    }

    #[test]
    fn histogram_scaling_preserves_totals() {
        let report = analyze(CodeKind::Secded, &[(1, 10_000)], 7);
        assert_eq!(report.total(), 10_000);
        assert_eq!(report.corrected, 10_000);
    }

    #[test]
    fn parity_search_matches_the_papers_bound() {
        // The paper's worst case: 7 flips per word → 7 parity symbols.
        assert_eq!(rs_parity_needed(&[(1, 10_000), (7, 800)]), Some(7));
        // A mild distribution is satisfied much earlier…
        assert_eq!(rs_parity_needed(&[(1, 800)]), Some(1));
        // …and empty or zero-count histograms have no answer.
        assert_eq!(rs_parity_needed(&[]), None);
        assert_eq!(rs_parity_needed(&[(3, 0)]), None);
        // More flips than symbols saturate at the 8-symbol word size.
        assert_eq!(rs_parity_needed(&[(12, 5)]), Some(8));
    }

    #[test]
    fn registry_variant_tallies_outcomes() {
        let registry = std::sync::Arc::new(obs::MetricsRegistry::new());
        let report = analyze_with_registry(CodeKind::Secded, &[(1, 200), (2, 100)], 11, &registry);
        assert_eq!(registry.counter("ecc.words.corrected").get(), report.corrected);
        assert_eq!(registry.counter("ecc.words.detected").get(), report.detected);
        assert_eq!(registry.counter("ecc.words.silent").get(), report.silent);
        assert_eq!(report.total(), 300);
    }

    #[test]
    fn report_accessors() {
        let r = EccReport { code: CodeKind::Secded, corrected: 1, detected: 2, silent: 1 };
        assert_eq!(r.total(), 4);
        assert!(!r.fully_protects());
        assert_eq!(CodeKind::ReedSolomon { parity: 7 }.to_string(), "RS(8+7)");
    }
}
