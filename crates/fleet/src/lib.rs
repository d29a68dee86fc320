//! Fleet-scale sweep service: sharded, checkpoint/resume
//! characterisation of thousands of synthetic DRAM modules.
//!
//! The paper demonstrates the U-TRR methodology on the 45 Table-1
//! modules, swept in one process. This crate turns that loop into a
//! *service* over an unbounded module population:
//!
//! - [`gen`] synthesises modules around the Table-1 anchors: per-module
//!   geometry, retention spread, HC calibration, and TRR engine seeds
//!   are all derived from `(fleet_seed, module_index)` via SplitMix64,
//!   so module *i* is identical no matter how the population is
//!   sharded or how many worker threads run the sweep.
//! - [`executor`] partitions the population into shards, runs the full
//!   Row Scout → TRR Analyzer → verdict pipeline per module on a
//!   `par` worker pool, streams each shard's records to disk as JSONL
//!   in one buffered write, and checkpoints completed shards in a
//!   content-hashed manifest. A killed run resumes by skipping every
//!   shard whose file still matches its manifest hash, and the merged
//!   `fleet.jsonl` (schema `utrr-fleet/1`) is byte-identical to an
//!   uninterrupted run.
//! - [`record`] defines the per-module JSONL record: the generated
//!   parameters, the reverse-engineering verdict against the planted
//!   ground truth, the measured `HC_first`, the §7.1 attack columns,
//!   and the per-module recovery counters (scout retries/quarantines,
//!   injected faults) that make `--faults mild` runs auditable.
//! - [`summary`] aggregates a fleet stream into a Table-1-style report:
//!   TRR-variant population shares, `HC_first` distribution quantiles
//!   via `obs` histogram merges, and fleet-wide recovery behaviour.
//!
//! The `repro-fleet` binary drives all of it from the command line.

pub mod executor;
pub mod gen;
pub mod record;
pub mod summary;

pub use executor::{FleetConfig, RunOptions, RunOutcome};
pub use gen::{synth_spec, SynthModule};
pub use record::FleetRecord;
pub use summary::FleetSummary;

/// Schema tag of the merged fleet artifact's meta line.
pub(crate) const FLEET_SCHEMA: &str = "utrr-fleet/1";
/// Schema tag of the checkpoint manifest's meta line.
pub(crate) const MANIFEST_SCHEMA: &str = "utrr-fleet-manifest/1";

/// FNV-1a 64-bit content hash, rendered as 16 lowercase hex digits.
/// Stable across platforms and releases — manifest hashes written by one
/// build must verify under another.
pub fn content_hash(bytes: &[u8]) -> String {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{hash:016x}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn content_hash_is_stable_and_sensitive() {
        // Pinned value: a changed constant would silently invalidate
        // every committed manifest.
        assert_eq!(content_hash(b""), "cbf29ce484222325");
        assert_eq!(content_hash(b"utrr"), content_hash(b"utrr"));
        assert_ne!(content_hash(b"utrr"), content_hash(b"utrs"));
        assert_eq!(content_hash(b"x").len(), 16);
    }
}
