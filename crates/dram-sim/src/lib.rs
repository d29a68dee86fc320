//! Command-level DDR4 DRAM device simulator with retention, VRT, and
//! RowHammer physics.
//!
//! This crate is the hardware substrate of the U-TRR reproduction
//! ([Hassan et al., MICRO 2021]). The paper's methodology observes a DRAM
//! module purely through DDR commands (`ACT`, `PRE`, `RD`, `WR`, `REF`) and
//! the data it reads back; everything it learns about the proprietary
//! Target Row Refresh (TRR) logic comes from *data-retention failures used
//! as a side channel*. A [`Module`] reproduces exactly that observable
//! surface:
//!
//! * per-row **weak cells** with consistent retention times, so a row that
//!   is not refreshed for longer than its retention time deterministically
//!   flips bits ([`physics`]);
//! * **variable retention time (VRT)** rows whose weak cells alternate
//!   between two retention times, which Row Scout must filter out;
//! * a **RowHammer disturbance model** with a blast radius of two rows,
//!   per-row flip thresholds anchored at a module's `HC_first`, and the
//!   interleaved-vs-cascaded hammering asymmetry the paper reports in §5.2;
//! * **logical→physical row address scrambling and remapping**
//!   ([`mapping`]), which U-TRR reverse engineers before running
//!   experiments (§5.3);
//! * a pluggable, hidden **mitigation engine** ([`MitigationEngine`]) that
//!   piggybacks TRR-induced refreshes onto `REF` commands, plus the regular
//!   round-robin refresh machinery (§6.1.3).
//!
//! The ground-truth TRR engines themselves live in the `trr` crate; this
//! crate only defines the trait so that the device and the engines do not
//! form a dependency cycle.
//!
//! # Example
//!
//! ```
//! use dram_sim::{Module, ModuleConfig, DataPattern, Bank, RowAddr, Nanos};
//!
//! # fn main() -> Result<(), dram_sim::DramError> {
//! // A small module with no TRR engine and deterministic physics.
//! let mut module = Module::new(ModuleConfig::small_test(), 42);
//! let bank = Bank::new(0);
//!
//! // Write a range of rows, let them decay with refresh disabled, and
//! // read them back: the weak rows show retention bit flips.
//! for r in 0..256 {
//!     module.write_row(bank, RowAddr::new(r), DataPattern::Ones)?;
//! }
//! module.advance(Nanos::from_ms(60_000));
//! let decayed = (0..256)
//!     .filter(|&r| !module.read_row(bank, RowAddr::new(r)).unwrap().is_clean())
//!     .count();
//! assert!(decayed > 0, "some weak cells must have decayed");
//! # Ok(())
//! # }
//! ```
//!
//! [Hassan et al., MICRO 2021]: https://doi.org/10.1145/3466752.3480110

pub mod addr;
pub mod data;
pub mod error;
pub mod mapping;
pub mod metrics;
pub mod mitigation;
pub mod module;
pub mod physics;
#[cfg(test)]
mod refresh_equiv;
pub mod rng;
pub mod time;

pub use addr::{Bank, ModuleGeometry, PhysRow, RowAddr};
pub use data::{majority_flips, DataPattern, RowReadout};
pub use error::DramError;
pub use mapping::{RowMapping, Topology};
pub use mitigation::{MitigationEngine, NeighborSpan, NoMitigation, TrrDetection};
pub use module::{HammerOp, HammerPlan, Module, ModuleConfig, RefreshConfig};
pub use physics::PhysicsConfig;
pub use time::{Nanos, Timings};
