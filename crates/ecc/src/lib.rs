//! ECC models for the paper's §7.4 analysis: can error-correcting codes
//! save a system whose TRR has been circumvented?
//!
//! The paper's finding: the custom patterns cause up to 7 bit flips in a
//! single 8-byte dataword, so typical SECDED codes (correct 1, detect 2)
//! and Chipkill-style symbol codes (correct 1 symbol, detect 2) cannot
//! provide protection, and a Reed-Solomon code strong enough to merely
//! *detect* 7 errors needs at least 7 parity-check symbols.
//!
//! * [`secded`] — an extended Hamming (72, 64) SECDED code, bit-exact;
//! * [`rs`] — Reed-Solomon over GF(2^m) with configurable parity
//!   (syndromes, Berlekamp–Massey, Chien search, Forney);
//! * [`chipkill`] — a single-symbol-correct / double-symbol-detect code
//!   over 4-bit symbols (the x4-device Chipkill model), built on the
//!   Reed-Solomon machinery;
//! * [`analysis`] — feeds measured flip distributions through each code
//!   and tallies corrected / detected / miscorrected / silently corrupt
//!   datawords.
//!
//! # Example
//!
//! ```
//! use ecc::secded::Secded7264;
//!
//! let code = Secded7264::new();
//! let word = 0xDEAD_BEEF_0123_4567u64;
//! let mut stored = code.encode(word);
//! stored.data ^= 1 << 17; // one bit flip
//! assert_eq!(code.decode(stored).corrected(), Some(word));
//! ```

pub mod analysis;
pub mod chipkill;
pub mod gf;
pub mod rs;
pub mod secded;

pub use analysis::{analyze, analyze_with_registry, rs_parity_needed, CodeKind, EccReport};
pub use chipkill::Chipkill;
pub use rs::ReedSolomon;
pub use secded::Secded7264;
