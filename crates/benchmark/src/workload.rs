//! The four benchmark workloads: which repro binary each spawns, with
//! which arguments, and how its outputs are checked. One *child* is one
//! invocation of a shipped binary with one program seed.

use std::path::Path;

use utrr_fleet::content_hash;

/// Table-1 modules one `table1` child reproduces: one per TRR version,
/// so every reverse-engineering run of the full table happens, in
/// catalog order.
pub const TABLE1_MODULES: [&str; 8] = ["A5", "A13", "B8", "B9", "B13", "C7", "C9", "C12"];

/// Engines the `fuzz` workload attacks.
pub const FUZZ_ENGINES: &str = "A_TRR1,B_TRR1,C_TRR1";
/// Fuzz rounds per child (round 1 mutates round 0's elites).
pub const FUZZ_ROUNDS: u32 = 2;
/// Fuzz candidates per round.
pub const FUZZ_CANDIDATES: u32 = 16;

/// Modules per `fleet` child.
pub const FLEET_MODULES: u64 = 32;
/// Modules per `fleet_hostile` child.
pub const HOSTILE_MODULES: u64 = 16;
/// Shards per fleet child: 16 (fleet) or 8 (hostile) modules between
/// `par` barriers.
pub const FLEET_SHARDS: u32 = 2;

/// Worker threads every child and every in-process replay uses.
pub const THREADS: usize = 2;

/// The committed Table-1 artifact the `table1` workload is checked
/// against.
const TABLE1_TXT: &str = include_str!("../../../results/table1.txt");

/// Seed-1 output digests, one `workload digest` pair per line.
const SEED1_DIGESTS: &str = include_str!("../expected/seed1.txt");

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `repro-table1` on [`TABLE1_MODULES`].
    Table1,
    /// `repro-fleet` over a fault-free synthetic population.
    Fleet,
    /// `repro-fuzz` against three ground-truth engines.
    Fuzz,
    /// `repro-fleet` under the hostile fault profile.
    FleetHostile,
}

/// What a child produced, reduced to what the checks compare.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Output {
    /// Stdout with wall-clock figures masked.
    pub stdout: String,
    /// The JSONL artifact (`fleet.jsonl` or the fuzz `--out` file);
    /// empty for `table1`.
    pub artifact: String,
}

impl Output {
    /// FNV-1a digest over masked stdout and the artifact.
    pub fn digest(&self) -> String {
        content_hash(format!("{}\u{0}{}", self.stdout, self.artifact).as_bytes())
    }
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 4] =
        [Workload::Table1, Workload::Fleet, Workload::Fuzz, Workload::FleetHostile];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Table1 => "table1",
            Workload::Fleet => "fleet",
            Workload::Fuzz => "fuzz",
            Workload::FleetHostile => "fleet_hostile",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The repro binary a child runs.
    pub fn binary(self) -> &'static str {
        match self {
            Workload::Table1 => "repro-table1",
            Workload::Fleet | Workload::FleetHostile => "repro-fleet",
            Workload::Fuzz => "repro-fuzz",
        }
    }

    /// Work items one child completes: modules, or fuzz candidates.
    pub fn items(self) -> u64 {
        match self {
            Workload::Table1 => TABLE1_MODULES.len() as u64,
            Workload::Fleet => FLEET_MODULES,
            Workload::Fuzz => u64::from(FUZZ_ROUNDS * FUZZ_CANDIDATES),
            Workload::FleetHostile => HOSTILE_MODULES,
        }
    }

    /// Command-line arguments of a child with program seed `seed`
    /// (`repro-table1` fixes its own seeds), writing its artifact
    /// relative to the child's working directory.
    pub fn args(self, seed: u64) -> Vec<String> {
        let line = match self {
            Workload::Table1 => format!("--modules {}", TABLE1_MODULES.join(",")),
            Workload::Fleet => {
                format!("--modules {FLEET_MODULES} --shards {FLEET_SHARDS} --seed {seed} --out out")
            }
            Workload::FleetHostile => format!(
                "--modules {HOSTILE_MODULES} --shards {FLEET_SHARDS} --seed {seed} \
                 --faults hostile --fault-seed {seed} --out out"
            ),
            Workload::Fuzz => format!(
                "--seed {seed} --rounds {FUZZ_ROUNDS} --candidates {FUZZ_CANDIDATES} \
                 --engines {FUZZ_ENGINES} --out fuzz.jsonl"
            ),
        };
        format!("{line} --threads {THREADS}").split_whitespace().map(String::from).collect()
    }

    /// Path of the child's JSONL artifact inside its working directory.
    fn artifact_path(self, dir: &Path) -> Option<std::path::PathBuf> {
        match self {
            Workload::Table1 => None,
            Workload::Fleet | Workload::FleetHostile => Some(dir.join("out").join("fleet.jsonl")),
            Workload::Fuzz => Some(dir.join("fuzz.jsonl")),
        }
    }

    /// Removes a previous child's artifacts so the next one starts
    /// clean (`repro-fleet` refuses an out dir that holds a manifest).
    pub fn clean(self, dir: &Path) -> std::io::Result<()> {
        let stale = match self {
            Workload::Table1 => return Ok(()),
            Workload::Fleet | Workload::FleetHostile => std::fs::remove_dir_all(dir.join("out")),
            Workload::Fuzz => std::fs::remove_file(dir.join("fuzz.jsonl")),
        };
        match stale {
            Err(e) if e.kind() != std::io::ErrorKind::NotFound => Err(e),
            _ => Ok(()),
        }
    }

    /// Reads a finished child's outputs.
    ///
    /// # Errors
    ///
    /// Propagates a missing or unreadable artifact.
    pub fn collect(self, stdout: &str, dir: &Path) -> std::io::Result<Output> {
        let artifact = match self.artifact_path(dir) {
            Some(path) => std::fs::read_to_string(path)?,
            None => String::new(),
        };
        Ok(Output { stdout: mask_wall_clock(stdout), artifact })
    }

    /// Checks a child's outputs: `table1` against the committed
    /// artifact; the others against the pinned seed-1 digest when the
    /// program seed is 1, against `reference` (an earlier child with the
    /// same seed) when given, and always for internal consistency.
    ///
    /// # Errors
    ///
    /// Describes the first check that failed.
    pub fn check(self, seed: u64, out: &Output, reference: Option<&Output>) -> Result<(), String> {
        if self == Workload::Table1 {
            return if out.stdout == expected_table1() {
                Ok(())
            } else {
                Err("stdout differs from results/table1.txt".into())
            };
        }
        if seed == 1 {
            let pinned = pinned_digest(self).ok_or("no pinned seed-1 digest")?;
            if out.digest() != pinned {
                return Err(format!("digest {} differs from pinned {pinned}", out.digest()));
            }
        }
        if let Some(reference) = reference {
            if out != reference {
                return Err("outputs differ between repeats of the same seed".into());
            }
        }
        self.check_consistency(out)
    }

    /// A one-line accuracy summary of a child's outputs, for the human
    /// part of the report.
    pub fn accuracy(self, out: &Output) -> String {
        match self {
            Workload::Table1 => {
                let matched = out.stdout.lines().filter(|l| l.ends_with("| ✓ |")).count();
                format!("RE match {matched}/{}", TABLE1_MODULES.len())
            }
            Workload::Fleet | Workload::FleetHostile => {
                match utrr_fleet::FleetSummary::from_jsonl(&out.artifact) {
                    Ok((s, _)) => format!(
                        "RE match {}/{}, confirmed {}/{}, RE retries {}",
                        s.re_matches, s.modules, s.tier_confirmed, s.modules, s.re_retries
                    ),
                    Err(e) => e,
                }
            }
            Workload::Fuzz => match attacks::fuzz::parse_fuzz_jsonl(&out.artifact) {
                Ok(a) => {
                    let bypassed: Vec<&str> =
                        a.leaders.iter().filter(|l| l.bypass).map(|l| l.engine.as_str()).collect();
                    format!(
                        "bypassed {}/{} engines [{}]",
                        bypassed.len(),
                        a.engines.len(),
                        bypassed.join(",")
                    )
                }
                Err(e) => e,
            },
        }
    }

    /// Artifact-level checks that hold for any seed.
    fn check_consistency(self, out: &Output) -> Result<(), String> {
        match self {
            Workload::Table1 => Ok(()),
            Workload::Fleet | Workload::FleetHostile => {
                let hash = content_hash(out.artifact.as_bytes());
                if !out.stdout.contains(&format!("hash {hash})")) {
                    return Err(format!("fleet.jsonl hash {hash} is not the one stdout reports"));
                }
                let (summary, _) = utrr_fleet::FleetSummary::from_jsonl(&out.artifact)?;
                if summary.modules != self.items() {
                    return Err(format!(
                        "{} fleet records, expected {}",
                        summary.modules,
                        self.items()
                    ));
                }
                Ok(())
            }
            Workload::Fuzz => {
                let artifact = attacks::fuzz::parse_fuzz_jsonl(&out.artifact)?;
                if artifact.candidates.len() as u64 != self.items() {
                    return Err(format!(
                        "{} fuzz candidates, expected {}",
                        artifact.candidates.len(),
                        self.items()
                    ));
                }
                Ok(())
            }
        }
    }
}

/// The pinned seed-1 digest of a workload's outputs.
fn pinned_digest(workload: Workload) -> Option<&'static str> {
    SEED1_DIGESTS.lines().find_map(|line| {
        let (name, digest) = line.split_once(' ')?;
        (name == workload.name()).then_some(digest.trim())
    })
}

/// Masks the wall-clock figure `repro-fleet` prints (`swept … in 3.62s`)
/// so repeats of one input compare equal.
fn mask_wall_clock(stdout: &str) -> String {
    stdout
        .split_inclusive('\n')
        .map(|line| match line.rfind(" in ") {
            Some(at) if line.starts_with("swept ") => {
                format!("{} in <wall>{}", &line[..at], if line.ends_with('\n') { "\n" } else { "" })
            }
            _ => line.to_string(),
        })
        .collect()
}

/// The Table-1 module row id of a stdout line (`| A5 | …` → `A5`), if
/// it is one.
pub fn table1_row_id(line: &str) -> Option<&str> {
    let id = line.strip_prefix("| ")?.split(" |").next()?;
    utrr_modules::by_id(id).is_some().then_some(id)
}

/// What `repro-table1 --modules <TABLE1_MODULES>` prints: the committed
/// table restricted to those modules' rows, with the module count in
/// the header adjusted.
fn expected_table1() -> String {
    let full = utrr_modules::catalog().len();
    TABLE1_TXT
        .split_inclusive('\n')
        .filter(|line| table1_row_id(line).is_none_or(|id| TABLE1_MODULES.contains(&id)))
        .enumerate()
        .map(|(i, line)| {
            if i == 0 {
                line.replacen(
                    &format!("— {full} modules"),
                    &format!("— {} modules", TABLE1_MODULES.len()),
                    1,
                )
            } else {
                line.to_string()
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("all"), None);
    }

    #[test]
    fn stdout_masking_hides_only_the_wall_clock() {
        let stdout = "# fleet sweep — 32 modules\nswept 32 modules across 2 shards in 3.62s\nmerged: out/fleet.jsonl (32 records, hash 0123)\n";
        let masked = mask_wall_clock(stdout);
        assert_eq!(
            masked,
            "# fleet sweep — 32 modules\nswept 32 modules across 2 shards in <wall>\nmerged: out/fleet.jsonl (32 records, hash 0123)\n"
        );
        assert_eq!(masked, mask_wall_clock(&stdout.replace("3.62s", "17.01s")));
        // Lines that merely contain " in " are untouched.
        assert_eq!(mask_wall_clock("leader in round 1\n"), "leader in round 1\n");
    }

    #[test]
    fn every_workload_but_table1_has_a_pinned_digest() {
        for w in Workload::ALL {
            assert_eq!(pinned_digest(w).is_some(), w != Workload::Table1, "{}", w.name());
        }
    }

    #[test]
    fn a_digest_mismatch_fails_the_check() {
        let out = Output { stdout: "x\n".into(), artifact: String::new() };
        let err = Workload::Fleet.check(1, &out, None).unwrap_err();
        assert!(err.contains("differs from pinned"), "{err}");
        // Same outputs on a seed without a pinned digest: the repeat
        // check passes and the consistency check is what fails.
        let err = Workload::Fleet.check(2, &out, Some(&out)).unwrap_err();
        assert!(err.contains("hash"), "{err}");
        let other = Output { stdout: "y\n".into(), artifact: String::new() };
        let err = Workload::Fuzz.check(2, &out, Some(&other)).unwrap_err();
        assert!(err.contains("differ between repeats"), "{err}");
    }

    #[test]
    fn expected_table1_keeps_one_row_per_module_per_table() {
        let expected = expected_table1();
        assert!(expected.starts_with("# Table 1 reproduction — 8 modules,"));
        let rows: Vec<&str> = expected.lines().filter_map(table1_row_id).collect();
        let twice: Vec<&str> =
            TABLE1_MODULES.iter().chain(TABLE1_MODULES.iter()).copied().collect();
        assert_eq!(rows, twice);
    }
}
