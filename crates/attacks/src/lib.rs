//! Baseline and U-TRR-derived custom RowHammer access patterns, plus the
//! §7 evaluation harness.
//!
//! * [`baseline`] — single-sided, double-sided (Fig. 2) and
//!   TRRespass-style many-sided patterns, which all fail against TRR
//!   (footnote 18 of the paper);
//! * [`custom`] — the §7.1 patterns crafted from the U-TRR findings:
//!   counter-table eviction (vendor A), sampler stealing (vendor B), and
//!   window exhaustion (vendor C);
//! * [`eval`] — runs a pattern over sampled victim positions of a bank
//!   for a number of refresh windows and reports the §7.2–§7.4 metrics
//!   (bit flips per row, % vulnerable rows, flips per 8-byte dataword).
//!
//! Every attack implements one trait, [`AccessPattern`]: its
//! [`layout`](AccessPattern::layout) says which rows carry the attack and
//! at what per-interval dose (resolved once per victim position), and
//! its [`schedule`](AccessPattern::schedule) says when those activations
//! are issued relative to the TRR-capable-`REF` cadence, usually through
//! one of the shared [`schedulers`], and its
//! [`period`](AccessPattern::period) how many intervals the schedule
//! takes to repeat (so [`eval`] resolves each phase once per position). The [`fuzz`] module searches the
//! same shape with a seeded frequency-domain fuzzer and re-derives
//! §7.1-class bypasses against the ground-truth TRR engines.
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
pub mod custom;
pub mod eval;
pub mod fuzz;
pub mod pattern;
pub mod schedulers;

pub use eval::{BankSweep, EvalConfig, PositionResult};
pub use pattern::{AccessPattern, AggressorLayout, PatternTarget, RowDose};
