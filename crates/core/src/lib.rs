//! U-TRR: the paper's contribution — a methodology for reverse
//! engineering in-DRAM RowHammer protection (Target Row Refresh)
//! through the data-retention side channel.
//!
//! The crate mirrors the paper's architecture (Fig. 3):
//!
//! * [`RowScout`] (§4) profiles retention times and finds row groups in
//!   prescribed physical layouts, filtering out VRT-afflicted rows;
//! * [`TrrAnalyzer`] (§5) runs hammer-and-refresh experiments over the
//!   profiled rows and classifies every victim as TRR-refreshed,
//!   regularly refreshed, or not refreshed — using a learned
//!   [`RefreshSchedule`] to subtract the periodic regular refresh;
//! * [`mapping_re`] (§5.3) reverse engineers the logical→physical row
//!   mapping and verifies aggressor/victim adjacency;
//! * [`reverse`] (§6) packages the paper's experiments — TRR-to-REF
//!   ratio, neighbour span, counter capacity, eviction, counter reset,
//!   persistence, sampling bias, cross-bank sharing, activation window —
//!   and assembles them into a [`TrrProfile`].
//!
//! Everything here observes the module exclusively through the DDR
//! command interface provided by [`softmc::MemoryController`]; the
//! ground-truth TRR engines planted by the `trr` crate stay invisible,
//! which is what makes the reproduction meaningful.
//!
//! # Example
//!
//! ```no_run
//! use dram_sim::{Bank, Module, ModuleConfig};
//! use softmc::MemoryController;
//! use utrr_core::{RowScout, ScoutConfig, RowGroupLayout, reverse};
//!
//! # fn main() -> Result<(), utrr_core::UtrrError> {
//! let mut mc = MemoryController::new(Module::new(ModuleConfig::small_test(), 1));
//! let bank = Bank::new(0);
//! let groups = RowScout::new(ScoutConfig::new(
//!     bank, 1024, RowGroupLayout::single_aggressor_pair(), 4,
//! ))
//! .scan(&mut mc)?;
//! let opts = reverse::ReverseOptions::default();
//! let analyzer = utrr_core::TrrAnalyzer::new();
//! let ratio = reverse::discover_trr_ref_ratio(&mut mc, &analyzer, bank, &groups, &opts)?;
//! println!("TRR-capable REF every {ratio:?} REFs");
//! # Ok(())
//! # }
//! ```

pub mod analyzer;
pub mod arena;
pub mod characterize;
pub mod error;
pub mod layout;
pub mod mapping_re;
pub mod recovery;
pub mod reverse;
pub mod robust;
pub mod rowscout;
pub mod schedule;

pub use analyzer::{
    Experiment, ExperimentOutcome, TrrAnalyzer, VictimOutcome, CTR_NOT_REFRESHED,
    CTR_REGULAR_REFRESH, CTR_TRR_REFRESH,
};
pub use characterize::measure_hc_first;
pub use error::UtrrError;
pub use layout::RowGroupLayout;
pub use recovery::{RecoveryPolicy, VerdictTier};
pub use reverse::{DetectionKind, ReverseOptions, TrrProfile};
pub use rowscout::{ProfiledRow, ProfiledRowGroup, RowScout, ScoutConfig};
pub use schedule::{learn_group_schedules, learn_refresh_schedule, RefreshSchedule};
