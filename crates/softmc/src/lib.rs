//! A SoftMC-style command-level DDR4 memory controller for the simulated
//! device.
//!
//! The paper implements Row Scout and TRR Analyzer on SoftMC (Hassan et
//! al., HPCA 2017), an FPGA platform that can issue individual DDR
//! commands at precisely controlled times — the capability §3.3 calls out
//! as the reason commodity CPUs cannot run these experiments. This crate
//! provides the same contract against a [`dram_sim::Module`]:
//!
//! * a [`CommandTrace`]: one flat list of timed DDR commands that
//!   serializes to text, parses back and replays onto a module, the
//!   moral equivalent of a SoftMC program;
//! * a [`MemoryController`] with higher-level building blocks — paced
//!   refresh, hammer specifications with interleaved/cascaded modes
//!   (§5.2), dummy-row selection and a fault-injection hook.
//!
//! There is no auto-refresh: a `REF` is issued only when the caller asks
//! for one, since the whole methodology depends on deciding exactly when
//! `REF` commands are issued.
//!
//! # Example
//!
//! ```
//! use dram_sim::{Module, ModuleConfig, DataPattern, Bank, RowAddr, Nanos};
//! use softmc::{MemoryController, HammerSpec, HammerMode};
//!
//! # fn main() -> Result<(), dram_sim::DramError> {
//! let mut mc = MemoryController::new(Module::new(ModuleConfig::small_test(), 3));
//! let bank = Bank::new(0);
//! let victim = RowAddr::new(300);
//! mc.write_row(bank, victim, DataPattern::Ones)?;
//!
//! // The classic double-sided pattern (Fig. 2b): the victim's two
//! // neighbours, activated alternately.
//! let aggressors = vec![(victim.minus(1), 5_000), (victim.plus(1), 5_000)];
//! let spec = HammerSpec { aggressors, mode: HammerMode::Interleaved };
//! mc.hammer(bank, &spec)?;
//!
//! let readout = mc.read_row(bank, victim)?;
//! assert!(!readout.is_clean(), "double-sided hammering flips the victim");
//! # Ok(())
//! # }
//! ```

pub mod controller;
pub mod faults;
pub mod trace;

pub use controller::{HammerMode, HammerSpec, MemoryController, RecoveryLadder};
pub use faults::{FaultInjector, WriteFault};
pub use trace::{CommandTrace, TraceCommand, TraceEntry};
