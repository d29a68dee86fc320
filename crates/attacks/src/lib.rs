//! Baseline and U-TRR-derived custom RowHammer access patterns, plus the
//! §7 evaluation harness.
//!
//! * [`baseline`] — single-sided, double-sided (Fig. 2) and
//!   TRRespass-style many-sided patterns, which all fail against TRR
//!   (footnote 18 of the paper);
//! * [`custom`] — the §7.1 patterns crafted from the U-TRR findings:
//!   counter-table eviction (vendor A), sampler stealing (vendor B), and
//!   window exhaustion (vendor C);
//! * [`half_double`] — the distance-2 technique from the paper's related
//!   work, which turns a ±1-refreshing TRR into the attacker's
//!   accomplice and which vendor A's ±2 span (Observation A2) blocks;
//! * [`eval`] — runs a pattern over sampled victim positions of a bank
//!   for a number of refresh windows and reports the §7.2–§7.4 metrics
//!   (bit flips per row, % vulnerable rows, flips per 8-byte dataword).
//!
//! Every attack decomposes into composable components ([`components`]):
//! a [`PatternGenerator`] (which rows, what dose), a [`Scheduler`]
//! (when, relative to the REF cadence — [`schedulers`]), and a
//! [`verdict::Verdict`] stage (what counts as success), assembled by
//! [`AttackBuilder`]. The [`fuzz`] module searches that component space
//! with a seeded frequency-domain fuzzer and re-derives §7.1-class
//! bypasses against the ground-truth TRR engines.
//!
//! # Example
//!
//! ```no_run
//! use attacks::{custom, eval};
//! use utrr_modules::by_id;
//!
//! let spec = by_id("A5").unwrap();
//! let pattern = custom::pattern_for(&spec);
//! let sweep = eval::sweep_bank(&spec, pattern.as_ref(), &eval::EvalConfig::quick(64));
//! println!("{}: {:.1}% rows vulnerable", spec.id, sweep.vulnerable_pct());
//! ```

pub mod baseline;
pub mod components;
pub mod custom;
pub mod eval;
pub mod fuzz;
pub mod half_double;
pub mod pattern;
pub mod schedulers;
pub mod verdict;

pub use components::{
    AggressorLayout, AttackBuilder, BuiltinAttack, ComposedAttack, PatternGenerator, RowDose,
    Scheduler, INTERVAL_BUDGET,
};
pub use eval::{BankSweep, EvalConfig, PositionResult};
pub use pattern::{AccessPattern, PatternTarget};
pub use verdict::{FlipCountVerdict, Verdict};
