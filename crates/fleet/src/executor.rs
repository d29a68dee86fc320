//! The sharded sweep executor: work batches, incremental JSONL
//! streaming, and checkpoint/resume.
//!
//! A fleet run partitions the module population `0..modules` into
//! contiguous shards. Each shard is fanned over the `par` worker pool
//! (one task per module), its records are rendered in index order, and
//! the whole shard is flushed to `shards/shard-NNNNN.jsonl` in a single
//! buffered write (temp file + rename, so a kill never leaves a torn
//! shard visible). After every flushed shard one manifest line is
//! appended to `manifest.jsonl` recording the shard's range and content
//! hash — the checkpoint.
//!
//! On `resume`, the manifest is replayed: shards whose file still
//! matches the recorded hash are skipped outright, everything else is
//! recomputed. Because every record is a pure function of the sweep
//! parameters and the module index (see [`crate::record`]), the merged
//! `fleet.jsonl` produced after a kill + resume is **byte-identical**
//! to an uninterrupted run at any thread count — the property the
//! determinism suite and the CI mini-fleet job pin.

use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use obs::jsonl::{parse_jsonl, JsonValue};
use obs::MetricsRegistry;

use crate::record::{characterize, FleetRecord, SweepParams};
use crate::{content_hash, FLEET_SCHEMA, MANIFEST_SCHEMA};

/// One fleet sweep: the population size, the shard layout, and the
/// per-module sweep parameters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FleetConfig {
    /// Population size.
    pub modules: u64,
    /// Requested shard count (clamped to the population size).
    pub shards: u32,
    /// Per-module pipeline parameters.
    pub params: SweepParams,
}

impl FleetConfig {
    /// Effective shard count: at least one, at most one per module.
    pub fn effective_shards(&self) -> u32 {
        (self.shards.max(1) as u64).min(self.modules.max(1)) as u32
    }

    /// Modules per shard (the last shard may be short).
    pub(crate) fn shard_size(&self) -> u64 {
        self.modules.max(1).div_ceil(u64::from(self.effective_shards()))
    }

    /// The module range `[start, end)` of shard `shard`.
    pub fn shard_range(&self, shard: u32) -> (u64, u64) {
        let size = self.shard_size();
        let start = u64::from(shard) * size;
        (start.min(self.modules), (start + size).min(self.modules))
    }

    /// The manifest/merged-artifact meta fields shared by both schemas.
    fn meta_fields(&self) -> String {
        format!(
            "\"modules\":{},\"shards\":{},\"seed\":{},\"rows\":{},\"hc_samples\":{},\
             \"attack_samples\":{},\"faults\":\"{}\",\"fault_seed\":{}",
            self.modules,
            self.effective_shards(),
            self.params.fleet_seed,
            self.params.base_rows,
            self.params.hc_samples,
            self.params.attack_samples,
            self.params.fault_profile,
            self.params.fault_seed,
        )
    }

    /// The manifest meta line (first line of `manifest.jsonl`).
    pub(crate) fn manifest_meta_line(&self) -> String {
        format!("{{\"schema\":\"{}\",{}}}", MANIFEST_SCHEMA, self.meta_fields())
    }

    /// The merged-artifact meta line (first line of `fleet.jsonl`).
    pub(crate) fn fleet_meta_line(&self) -> String {
        format!("{{\"schema\":\"{}\",{}}}", FLEET_SCHEMA, self.meta_fields())
    }
}

/// How one run executes (everything that must *not* affect the merged
/// bytes: directories, threading, resume, simulated kills).
#[derive(Debug, Clone)]
pub struct RunOptions {
    /// Output directory (created if missing).
    pub out_dir: PathBuf,
    /// Replay the manifest and skip shards that already checkpointed.
    pub resume: bool,
    /// Stop (without merging) after completing this many *new* shards —
    /// a deterministic stand-in for `kill -9` mid-run, used by the
    /// resume suite and the CI mini-fleet job.
    pub stop_after_shards: Option<u32>,
    /// Worker pool the per-module pipeline fans out on.
    pub pool: par::ParConfig,
    /// Run-level registry receiving fleet counters (optional).
    pub registry: Option<Arc<MetricsRegistry>>,
    /// Per-shard progress lines on stderr.
    pub progress: bool,
}

impl RunOptions {
    /// Quiet sequential run into `out_dir` — the test harness shape.
    pub fn new(out_dir: impl Into<PathBuf>) -> Self {
        RunOptions {
            out_dir: out_dir.into(),
            resume: false,
            stop_after_shards: None,
            pool: par::ParConfig::sequential(),
            registry: None,
            progress: false,
        }
    }
}

/// Status of one shard after a run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardStatus {
    /// Shard index.
    pub shard: u32,
    /// Module range `[start, end)`.
    pub start: u64,
    /// End of the module range (exclusive).
    pub end: u64,
    /// Content hash of the shard file.
    pub hash: String,
    /// Whether the shard was skipped via the checkpoint manifest.
    pub skipped: bool,
}

/// Outcome of one [`run_fleet`] call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunOutcome {
    /// Per-shard statuses in shard order (only the shards this run saw:
    /// all of them unless the run stopped early).
    pub shards: Vec<ShardStatus>,
    /// Shards recomputed by this run.
    pub completed_shards: u32,
    /// Shards skipped thanks to the checkpoint manifest.
    pub skipped_shards: u32,
    /// Whether `stop_after_shards` ended the run before the merge.
    pub stopped_early: bool,
    /// Merged artifact path, once all shards are done.
    pub merged_path: Option<PathBuf>,
    /// Content hash of the merged artifact.
    pub merged_hash: Option<String>,
    /// Records in the merged artifact.
    pub records: u64,
}

/// A manifest entry parsed back from `manifest.jsonl`.
#[derive(Debug, Clone, PartialEq, Eq)]
struct ManifestEntry {
    shard: u32,
    start: u64,
    end: u64,
    hash: String,
}

fn shard_file_name(shard: u32) -> String {
    format!("shard-{shard:05}.jsonl")
}

fn io_err(message: String) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, message)
}

/// Parses `manifest.jsonl`, validating its meta line against `config`.
/// Returns the recorded entries (later duplicates of a shard win).
fn read_manifest(path: &Path, config: &FleetConfig) -> std::io::Result<Vec<ManifestEntry>> {
    let text = std::fs::read_to_string(path)?;
    let values = parse_jsonl(&text).map_err(|e| io_err(format!("manifest unparsable: {e}")))?;
    let Some(meta) = values.first() else {
        return Err(io_err("manifest is empty".into()));
    };
    if meta.get("schema").and_then(JsonValue::as_str) != Some(MANIFEST_SCHEMA) {
        return Err(io_err(format!("manifest is not a {MANIFEST_SCHEMA} artifact")));
    }
    // Any sweep-parameter mismatch makes old checkpoints poison: the
    // merged stream would mix records from two different fleets.
    let expected =
        parse_jsonl(&config.manifest_meta_line()).expect("meta line is valid JSON").remove(0);
    if *meta != expected {
        return Err(io_err(
            "manifest was written with different sweep parameters; \
             use a fresh --out directory"
                .into(),
        ));
    }
    let mut entries: Vec<ManifestEntry> = Vec::new();
    for value in &values[1..] {
        let entry = (|| {
            Some(ManifestEntry {
                shard: value.get("shard")?.as_u64()? as u32,
                start: value.get("start")?.as_u64()?,
                end: value.get("end")?.as_u64()?,
                hash: value.get("hash")?.as_str()?.to_string(),
            })
        })()
        .ok_or_else(|| io_err("malformed manifest entry".into()))?;
        entries.retain(|e| e.shard != entry.shard);
        entries.push(entry);
    }
    Ok(entries)
}

/// Writes `content` to `path` atomically (temp file + rename), so a
/// kill can never leave a torn file where a complete one is expected.
fn write_atomic(path: &Path, content: &[u8]) -> std::io::Result<()> {
    let tmp = path.with_extension("tmp");
    std::fs::write(&tmp, content)?;
    std::fs::rename(&tmp, path)
}

/// Runs (or resumes) a fleet sweep. See the [module docs](self) for the
/// checkpoint/resume contract.
///
/// # Errors
///
/// I/O errors from the output directory; `InvalidData` when the
/// manifest exists but `resume` is off, or its sweep parameters differ.
pub fn run_fleet(config: &FleetConfig, opts: &RunOptions) -> std::io::Result<RunOutcome> {
    let shards_dir = opts.out_dir.join("shards");
    std::fs::create_dir_all(&shards_dir)?;
    let manifest_path = opts.out_dir.join("manifest.jsonl");

    let mut done: Vec<ManifestEntry> = Vec::new();
    if manifest_path.exists() {
        if !opts.resume {
            return Err(io_err(format!(
                "{} already holds a checkpoint manifest; pass --resume to continue it \
                 or use a fresh --out directory",
                opts.out_dir.display()
            )));
        }
        done = read_manifest(&manifest_path, config)?;
    } else {
        write_atomic(&manifest_path, format!("{}\n", config.manifest_meta_line()).as_bytes())?;
    }

    let shard_count = config.effective_shards();
    let mut outcome = RunOutcome {
        shards: Vec::new(),
        completed_shards: 0,
        skipped_shards: 0,
        stopped_early: false,
        merged_path: None,
        merged_hash: None,
        records: 0,
    };

    let fleet_counters = opts.registry.as_ref().map(|r| {
        (
            r.counter("fleet.shards_completed"),
            r.counter("fleet.shards_skipped"),
            r.counter("fleet.modules_swept"),
            r.counter("fleet.scout_retries"),
            r.counter("fleet.scout_quarantined"),
            r.counter("fleet.faults_injected"),
        )
    });

    for shard in 0..shard_count {
        let (start, end) = config.shard_range(shard);
        let path = shards_dir.join(shard_file_name(shard));

        // Checkpoint replay: trust the manifest only if the file on disk
        // still hashes to what the manifest recorded.
        if let Some(entry) = done.iter().find(|e| e.shard == shard) {
            if entry.start == start && entry.end == end {
                if let Ok(bytes) = std::fs::read(&path) {
                    if content_hash(&bytes) == entry.hash {
                        outcome.skipped_shards += 1;
                        outcome.shards.push(ShardStatus {
                            shard,
                            start,
                            end,
                            hash: entry.hash.clone(),
                            skipped: true,
                        });
                        if let Some((_, skipped, ..)) = &fleet_counters {
                            skipped.inc();
                        }
                        if opts.progress {
                            eprintln!(
                                "shard {:>3}/{shard_count} [{start}..{end}) skipped (checkpoint)",
                                shard + 1
                            );
                        }
                        continue;
                    }
                }
            }
        }

        // One task per module; records land in index order, so the
        // shard bytes are independent of scheduling.
        let indices: Vec<u64> = (start..end).collect();
        let records: Vec<FleetRecord> =
            par::par_map(&opts.pool, &indices, |&i| characterize(&config.params, i));
        let mut content = String::new();
        for record in &records {
            content.push_str(&record.to_json_line());
            content.push('\n');
        }
        write_atomic(&path, content.as_bytes())?;
        let hash = content_hash(content.as_bytes());

        // Checkpoint: one appended line, flushed before the next shard
        // starts, so a kill at any point loses at most the in-flight
        // shard.
        let mut manifest = std::fs::OpenOptions::new().append(true).open(&manifest_path)?;
        manifest.write_all(
            format!(
                "{{\"shard\":{shard},\"start\":{start},\"end\":{end},\
                 \"file\":\"shards/{}\",\"hash\":\"{hash}\",\"records\":{}}}\n",
                shard_file_name(shard),
                records.len()
            )
            .as_bytes(),
        )?;
        manifest.sync_all()?;

        if let Some((completed, _, modules, retries, quarantined, injected)) = &fleet_counters {
            completed.inc();
            modules.add(records.len() as u64);
            retries.add(records.iter().map(|r| r.scout_retries).sum());
            quarantined.add(records.iter().map(|r| r.scout_quarantined).sum());
            injected.add(records.iter().map(|r| r.faults_injected).sum());
        }
        outcome.completed_shards += 1;
        outcome.shards.push(ShardStatus { shard, start, end, hash, skipped: false });
        if opts.progress {
            eprintln!(
                "shard {:>3}/{shard_count} [{start}..{end}) done ({} modules)",
                shard + 1,
                records.len()
            );
        }

        if opts.stop_after_shards.is_some_and(|limit| outcome.completed_shards >= limit) {
            outcome.stopped_early = true;
            return Ok(outcome);
        }
    }

    // All shards on disk: merge. Reading the files back (rather than
    // keeping shard bytes in memory) means a resumed run merges exactly
    // what an uninterrupted run would.
    let mut merged = format!("{}\n", config.fleet_meta_line()).into_bytes();
    for shard in 0..shard_count {
        let bytes = std::fs::read(shards_dir.join(shard_file_name(shard)))?;
        outcome.records += bytes.iter().filter(|&&b| b == b'\n').count() as u64;
        merged.extend_from_slice(&bytes);
    }
    let merged_path = opts.out_dir.join("fleet.jsonl");
    write_atomic(&merged_path, &merged)?;
    outcome.merged_hash = Some(content_hash(&merged));
    outcome.merged_path = Some(merged_path);
    Ok(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;
    use faults::FaultProfile;

    fn config(modules: u64, shards: u32) -> FleetConfig {
        FleetConfig {
            modules,
            shards,
            params: SweepParams {
                fleet_seed: 9,
                base_rows: 2048,
                hc_samples: 4,
                attack_samples: 4,
                fault_profile: FaultProfile::None,
                fault_seed: 1,
            },
        }
    }

    #[test]
    fn shard_ranges_cover_the_population_exactly_once() {
        for (modules, shards) in [(10, 3), (1, 8), (64, 64), (7, 1), (100, 7)] {
            let cfg = config(modules, shards);
            let mut covered = 0;
            for s in 0..cfg.effective_shards() {
                let (a, b) = cfg.shard_range(s);
                assert_eq!(a, covered, "modules={modules} shards={shards}");
                assert!(b >= a);
                covered = b;
            }
            assert_eq!(covered, modules);
        }
    }

    #[test]
    fn effective_shards_clamps_to_population() {
        assert_eq!(config(3, 8).effective_shards(), 3);
        assert_eq!(config(0, 8).effective_shards(), 1);
        assert_eq!(config(8, 0).effective_shards(), 1);
    }

    #[test]
    fn meta_lines_parse_and_carry_the_parameters() {
        let cfg = config(100, 7);
        for line in [cfg.manifest_meta_line(), cfg.fleet_meta_line()] {
            let value = obs::jsonl::parse_json(&line).expect("meta line parses");
            assert_eq!(value.get("modules").and_then(JsonValue::as_u64), Some(100));
            assert_eq!(value.get("faults").and_then(JsonValue::as_str), Some("none"));
        }
    }

    #[test]
    fn manifest_round_trip_and_mismatch_detection() {
        let dir = std::env::temp_dir().join(format!("utrr-fleet-man-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("manifest.jsonl");
        let cfg = config(8, 2);
        std::fs::write(
            &path,
            format!(
                "{}\n{{\"shard\":1,\"start\":4,\"end\":8,\"file\":\"shards/shard-00001.jsonl\",\
                 \"hash\":\"abc\",\"records\":4}}\n",
                cfg.manifest_meta_line()
            ),
        )
        .unwrap();
        let entries = read_manifest(&path, &cfg).expect("manifest parses");
        assert_eq!(entries, vec![ManifestEntry { shard: 1, start: 4, end: 8, hash: "abc".into() }]);
        // A different population size must be rejected.
        let err = read_manifest(&path, &config(9, 2)).unwrap_err();
        assert!(err.to_string().contains("different sweep parameters"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
