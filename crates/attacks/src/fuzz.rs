//! A seeded, deterministic frequency-domain TRR-bypass fuzzer.
//!
//! TRRespass showed that *searching* the pattern space finds bypasses
//! no human wrote down, and Blacksmith refined the search axes to the
//! frequency domain: how often a row is hammered, at what phase
//! relative to the `REF` cadence, and with what intensity
//! distribution. This module samples exactly those axes — a
//! [`FuzzParams`] point is one [`FuzzPattern`], whose layout and phased
//! schedule are the same [`crate::AccessPattern`] shape as the §7.1
//! customs — scores each candidate by bit flips induced against
//! ground-truth TRR engines, and refines promising candidates with
//! per-engine elitist mutation rounds, re-deriving §7.1-class bypass
//! patterns from search rather than from the paper.
//!
//! Determinism contract: candidate generation and mutation draw from
//! SplitMix64 streams keyed by `(seed, round, slot)` via
//! [`par::task_seed`], so [`run_fuzz`] is byte-identical at any
//! `--threads N` — the same contract as every repro binary.

use dram_sim::rng::{derive_seed, SplitMix64};
use dram_sim::HammerOp;
use obs::jsonl::JsonValue;
use softmc::MemoryController;
use utrr_modules::{by_version, ModuleSpec};

use crate::eval::{sweep_bank, EvalConfig};
use crate::pattern::{AccessPattern, AggressorLayout, PatternTarget, RowDose, INTERVAL_BUDGET};

/// Schema identifier of the fuzz run artifact.
pub(crate) const FUZZ_SCHEMA: &str = "utrr-fuzz/1";

/// Candidates evaluated (one per sampled or mutated parameter point).
pub(crate) const CTR_FUZZ_CANDIDATES: &str = "attacks.fuzz.candidates";
/// Candidate × engine sweep evaluations.
pub const CTR_FUZZ_EVALS: &str = "attacks.fuzz.evals";
/// Candidate × engine evaluations that induced at least one bit flip.
pub(crate) const CTR_FUZZ_BYPASSES: &str = "attacks.fuzz.bypasses";
/// Candidates produced by mutating an elite (vs fresh samples).
pub(crate) const CTR_FUZZ_MUTATIONS: &str = "attacks.fuzz.mutations";

/// Longest pattern repetition period, in `tREFI` intervals (covers the
/// largest TRR-to-REF ratio in the catalog, 17, with headroom).
pub(crate) const MAX_PERIOD: u64 = 18;
/// Heaviest per-aggressor dose per hammering interval (the pair budget).
pub(crate) const MAX_AGGRESSOR_ACTS: u64 = 74;
/// Largest window-opening dummy dose (three full intervals).
pub(crate) const MAX_LEAD_DUMMY_ACTS: u64 = 3 * INTERVAL_BUDGET;
/// Dummy-row pool size (the vendor-A counter table size).
pub(crate) const MAX_TAIL_DUMMY_ROWS: u64 = 16;
/// Heaviest per-row tail dummy dose.
pub(crate) const MAX_TAIL_DUMMY_ACTS: u64 = 8;
/// Other-bank diversion dose per dummy row (the §7.1 vendor-B figure).
const OTHER_BANK_DIVERT_ACTS: u64 = 156;

/// One point of the frequency-domain search space.
///
/// The axes map onto the §7.1 bypass classes: `tail_dummy_rows` ×
/// `tail_dummy_acts` is vendor A's counter-table eviction,
/// `divert_intervals` + `divert_other_banks` is vendor B's sampler
/// stealing, `lead_dummy_acts` is vendor C's window exhaustion, and
/// `period`/`phase` place all of it against the TRR-capable-`REF`
/// cadence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FuzzParams {
    /// Pattern repetition period in `tREFI` intervals (≥ 1).
    pub period: u64,
    /// Phase offset of the pattern against the device `REF` counter
    /// (`0..period`).
    pub phase: u64,
    /// Trailing intervals of each period spent entirely on dummy rows
    /// (`0..period`).
    pub divert_intervals: u64,
    /// Whether diversion intervals hammer dummies in other banks
    /// (chip-wide sampler stealing) instead of the target bank.
    pub divert_other_banks: bool,
    /// Dummy activations opening each period, spilling across intervals
    /// (window exhaustion); 0 disables.
    pub lead_dummy_acts: u64,
    /// Activations per aggressor per hammering interval (amplitude).
    pub aggressor_acts: u64,
    /// Pair-interleave the two aggressors instead of cascading them.
    pub interleave: bool,
    /// Dummy rows hammered after the aggressors in each hammering
    /// interval (tracker eviction); 0 disables.
    pub tail_dummy_rows: u64,
    /// Activations per tail dummy row.
    pub tail_dummy_acts: u64,
}

impl FuzzParams {
    /// Draws a fresh parameter point from `rng`.
    pub fn sample(rng: &mut SplitMix64) -> Self {
        let period = 1 + rng.next_below(MAX_PERIOD);
        let phase = rng.next_below(period);
        let divert_intervals =
            if period > 1 && rng.next_bool(0.5) { 1 + rng.next_below(period - 1) } else { 0 };
        FuzzParams {
            period,
            phase,
            divert_intervals,
            divert_other_banks: rng.next_bool(0.5),
            lead_dummy_acts: if rng.next_bool(0.35) {
                1 + rng.next_below(MAX_LEAD_DUMMY_ACTS)
            } else {
                0
            },
            aggressor_acts: 1 + rng.next_below(MAX_AGGRESSOR_ACTS),
            interleave: rng.next_bool(0.5),
            tail_dummy_rows: rng.next_below(MAX_TAIL_DUMMY_ROWS + 1),
            tail_dummy_acts: 1 + rng.next_below(MAX_TAIL_DUMMY_ACTS),
        }
    }

    /// Returns a mutated copy: one or two axes re-drawn, invariants
    /// restored. Deterministic in `rng`.
    pub(crate) fn mutated(&self, rng: &mut SplitMix64) -> Self {
        let mut p = *self;
        let tweaks = 1 + rng.next_below(2);
        for _ in 0..tweaks {
            match rng.next_below(9) {
                0 => p.period = 1 + rng.next_below(MAX_PERIOD),
                1 => p.phase = rng.next_below(p.period.max(1)),
                2 => {
                    p.divert_intervals = if p.period > 1 { rng.next_below(p.period) } else { 0 };
                }
                3 => p.divert_other_banks = !p.divert_other_banks,
                4 => {
                    p.lead_dummy_acts = if rng.next_bool(0.5) {
                        1 + rng.next_below(MAX_LEAD_DUMMY_ACTS)
                    } else {
                        0
                    };
                }
                5 => p.aggressor_acts = 1 + rng.next_below(MAX_AGGRESSOR_ACTS),
                6 => p.interleave = !p.interleave,
                7 => p.tail_dummy_rows = rng.next_below(MAX_TAIL_DUMMY_ROWS + 1),
                _ => p.tail_dummy_acts = 1 + rng.next_below(MAX_TAIL_DUMMY_ACTS),
            }
        }
        p.normalised()
    }

    /// Restores cross-field invariants (`phase < period`,
    /// `divert_intervals < period`).
    pub(crate) fn normalised(mut self) -> Self {
        self.period = self.period.max(1);
        self.phase %= self.period;
        self.divert_intervals = self.divert_intervals.min(self.period - 1);
        self
    }

    /// Fixed-key-order JSON object for the `utrr-fuzz/1` artifact.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"period\":{},\"phase\":{},\"divert_intervals\":{},\"divert_other_banks\":{},\
             \"lead_dummy_acts\":{},\"aggressor_acts\":{},\"interleave\":{},\
             \"tail_dummy_rows\":{},\"tail_dummy_acts\":{}}}",
            self.period,
            self.phase,
            self.divert_intervals,
            self.divert_other_banks,
            self.lead_dummy_acts,
            self.aggressor_acts,
            self.interleave,
            self.tail_dummy_rows,
            self.tail_dummy_acts,
        )
    }

    /// Parses the object written by [`FuzzParams::to_json`].
    pub fn from_json(value: &JsonValue) -> Result<Self, String> {
        let num = |key: &str| {
            value.get(key).and_then(JsonValue::as_u64).ok_or_else(|| format!("params.{key}"))
        };
        let flag = |key: &str| match value.get(key) {
            Some(JsonValue::Bool(b)) => Ok(*b),
            _ => Err(format!("params.{key}")),
        };
        Ok(FuzzParams {
            period: num("period")?,
            phase: num("phase")?,
            divert_intervals: num("divert_intervals")?,
            divert_other_banks: flag("divert_other_banks")?,
            lead_dummy_acts: num("lead_dummy_acts")?,
            aggressor_acts: num("aggressor_acts")?,
            interleave: flag("interleave")?,
            tail_dummy_rows: num("tail_dummy_rows")?,
            tail_dummy_acts: num("tail_dummy_acts")?,
        }
        .normalised())
    }

    /// Compact human-readable rendering for reports.
    pub fn describe(&self) -> String {
        format!(
            "period={} phase={} divert={}{} lead={} amp={} {} tail={}x{}",
            self.period,
            self.phase,
            self.divert_intervals,
            if self.divert_other_banks { "(other-bank)" } else { "(same-bank)" },
            self.lead_dummy_acts,
            self.aggressor_acts,
            if self.interleave { "interleave" } else { "cascade" },
            self.tail_dummy_rows,
            self.tail_dummy_acts,
        )
    }
}

/// One fuzz candidate: aggressors at the sampled amplitude, the full
/// 16-row dummy pool at the tail dose, and up to four other-bank dummies
/// for diversions, scheduled with REF-synchronised phasing, diversion
/// tails, window-opening dummy spills, interleaved or cascaded
/// aggressors, and tail dummy eviction — all capped at the per-interval
/// activation budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FuzzPattern {
    /// The sampled parameter point.
    pub params: FuzzParams,
}

impl AccessPattern for FuzzPattern {
    fn name(&self) -> &str {
        "fuzz"
    }

    fn hammers_per_aggressor_per_ref(&self) -> f64 {
        let p = &self.params;
        let hammering = p.period.saturating_sub(p.divert_intervals) as f64;
        p.aggressor_acts as f64 * hammering / p.period.max(1) as f64
    }

    fn layout(&self, _mc: &MemoryController, target: &PatternTarget) -> AggressorLayout {
        AggressorLayout {
            aggressors: target
                .aggressors
                .iter()
                .map(|&a| RowDose::new(a, self.params.aggressor_acts))
                .collect(),
            dummies: target
                .dummies
                .iter()
                .map(|&d| RowDose::new(d, self.params.tail_dummy_acts))
                .collect(),
            other_bank: target
                .other_bank_dummies
                .iter()
                .take(4)
                .map(|&(bank, d)| (bank, RowDose::new(d, OTHER_BANK_DIVERT_ACTS)))
                .collect(),
        }
    }

    fn schedule(&self, layout: &AggressorLayout, interval: u64, slots: &mut Vec<HammerOp>) {
        let p = &self.params;
        let period = p.period.max(1);
        let pos = (interval + p.phase) % period;
        let hammering = period - p.divert_intervals.min(period - 1);
        if pos >= hammering {
            // Diversion interval: dummies only, stealing whatever the
            // engine samples next.
            if p.divert_other_banks {
                for &(bank, d) in layout.other_bank.iter().take(4) {
                    slots.push(HammerOp::OtherBank { bank, row: d.row, acts: d.acts });
                }
            } else if let Some(d) = layout.dummies.first() {
                slots.push(HammerOp::Burst { row: d.row, acts: INTERVAL_BUDGET });
            }
            return;
        }
        let mut budget = INTERVAL_BUDGET;
        // Window-opening dummies, spilling across the period's first
        // intervals (vendor-C-class exhaustion).
        let consumed = pos * INTERVAL_BUDGET;
        let lead = p.lead_dummy_acts.saturating_sub(consumed).min(budget);
        if lead > 0 {
            if let Some(d) = layout.dummies.first() {
                slots.push(HammerOp::Burst { row: d.row, acts: lead });
            }
            budget -= lead; // interval time passes with or without a dummy row
        }
        // Aggressors at the sampled amplitude.
        if p.interleave && layout.aggressors.len() == 2 {
            let pairs = (budget / 2).min(layout.aggressors[0].acts);
            slots.push(HammerOp::Pair {
                first: layout.aggressors[0].row,
                second: layout.aggressors[1].row,
                pairs,
            });
            budget -= 2 * pairs;
        } else {
            for a in &layout.aggressors {
                let acts = a.acts.min(budget);
                if acts > 0 {
                    slots.push(HammerOp::Burst { row: a.row, acts });
                    budget -= acts;
                }
            }
        }
        // Tail dummies (vendor-A-class tracker eviction).
        for d in layout.dummies.iter().take(p.tail_dummy_rows as usize) {
            if budget == 0 {
                break;
            }
            let acts = d.acts.min(budget);
            slots.push(HammerOp::Burst { row: d.row, acts });
            budget -= acts;
        }
    }

    fn period(&self) -> u64 {
        self.params.period.max(1)
    }
}

/// One scored candidate × engine outcome.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineScore {
    /// Total bit flips across the sweep's victim positions.
    pub flips: u64,
    /// Victim positions with at least one flip.
    pub vulnerable: u32,
}

/// One evaluated candidate: where it came from, its parameters, and
/// its per-engine scores (parallel to [`FuzzConfig::engines`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Candidate {
    /// Mutation round that produced it.
    pub round: u32,
    /// Slot within the round.
    pub index: u32,
    /// The parameter point.
    pub params: FuzzParams,
    /// Per-engine scores, in engine order.
    pub scores: Vec<EngineScore>,
}

/// Fuzzer configuration.
#[derive(Debug, Clone)]
pub struct FuzzConfig {
    /// Master seed of the candidate streams.
    pub seed: u64,
    /// Mutation rounds (round 0 is all fresh samples).
    pub rounds: u32,
    /// Candidates per round.
    pub candidates: u32,
    /// Elites kept per engine for the next round's mutations.
    pub elites: u32,
    /// Ground-truth TRR engine versions to attack (`"A_TRR1"`…).
    pub engines: Vec<String>,
    /// Shared sweep parameters (rows, samples, windows, seed, faults,
    /// registry) — identical for every candidate so scores compare.
    pub eval: EvalConfig,
}

/// A finished fuzz run: every candidate plus the best-per-engine
/// leaderboard.
#[derive(Debug, Clone, PartialEq)]
pub struct FuzzOutcome {
    /// Engine versions attacked, in score order.
    pub engines: Vec<String>,
    /// The representative module spec id evaluated per engine.
    pub specs: Vec<String>,
    /// All evaluated candidates, in (round, index) order.
    pub candidates: Vec<Candidate>,
    /// Best candidate per engine (highest flips; ties to the earliest
    /// round/index). Empty only when no candidates ran.
    pub leaders: Vec<Candidate>,
}

impl FuzzOutcome {
    /// Whether the fuzzer found a bypass (≥ 1 flip) for engine `e`.
    pub fn bypassed(&self, e: usize) -> bool {
        self.leaders.get(e).is_some_and(|c| c.scores[e].flips > 0)
    }
}

/// The representative module spec for a TRR engine version: the
/// catalog module of that version with the lowest `HC_first` (most
/// flip-prone, so search signal appears at small sweep sizes).
pub(crate) fn engine_spec(version: &str) -> Option<ModuleSpec> {
    by_version(version).into_iter().min_by_key(|s| s.hc_first)
}

/// The best candidate for an engine: maximum flips, ties broken toward
/// the earliest (round, index) — so a re-run at another thread count
/// or a parsed artifact reproduces the same leaderboard.
pub(crate) fn best_for_engine(candidates: &[Candidate], engine: usize) -> Option<&Candidate> {
    candidates.iter().min_by_key(|c| (std::cmp::Reverse(c.scores[engine].flips), c.round, c.index))
}

/// Parent assignment for a round: `None` → fresh sample, `Some(p)` →
/// mutate `p`. Round 0 is all fresh; later rounds cycle each engine's
/// elite board across the slots, keeping every fourth slot fresh so
/// the search never collapses onto early winners.
fn assign_parents(round: u32, all: &[Candidate], config: &FuzzConfig) -> Vec<Option<FuzzParams>> {
    let n = config.candidates as usize;
    if round == 0 || all.is_empty() {
        return vec![None; n];
    }
    let engines = config.engines.len().max(1);
    let boards: Vec<Vec<&Candidate>> = (0..engines)
        .map(|e| {
            let mut hits: Vec<&Candidate> = all.iter().filter(|c| c.scores[e].flips > 0).collect();
            hits.sort_by_key(|c| (std::cmp::Reverse(c.scores[e].flips), c.round, c.index));
            hits.truncate(config.elites.max(1) as usize);
            hits
        })
        .collect();
    (0..n)
        .map(|i| {
            if i % 4 == 3 {
                return None; // exploration slot
            }
            let board = &boards[i % engines];
            if board.is_empty() {
                None
            } else {
                Some(board[(i / engines) % board.len()].params)
            }
        })
        .collect()
}

/// Runs the fuzzer: `rounds × candidates` parameter points, each
/// swept against every engine's representative module, with elitist
/// mutation between rounds. Byte-identical at any worker count.
///
/// # Errors
///
/// Returns an error for unknown engine versions or empty engine lists.
pub fn run_fuzz(config: &FuzzConfig, pool: &par::ParConfig) -> Result<FuzzOutcome, String> {
    if config.engines.is_empty() {
        return Err("no TRR engines selected".to_string());
    }
    let specs: Vec<ModuleSpec> = config
        .engines
        .iter()
        .map(|v| engine_spec(v).ok_or_else(|| format!("unknown TRR engine version: {v}")))
        .collect::<Result<_, _>>()?;
    let registry = config.eval.registry.clone();
    let mut all: Vec<Candidate> = Vec::new();
    for round in 0..config.rounds {
        let parents = assign_parents(round, &all, config);
        let span = registry.as_ref().map(|r| {
            obs::span!(
                std::sync::Arc::clone(r),
                "attacks.fuzz.round",
                0,
                round = round,
                slots = parents.len() as u64
            )
        });
        let produced: Vec<Candidate> = par::par_map_seeded(
            pool,
            derive_seed(config.seed, round as u64),
            &parents,
            |i, seed, parent| {
                let mut rng = SplitMix64::new(seed);
                let params = match parent {
                    None => FuzzParams::sample(&mut rng),
                    Some(p) => p.mutated(&mut rng),
                };
                let scores = specs
                    .iter()
                    .map(|spec| {
                        let sweep = sweep_bank(spec, &FuzzPattern { params }, &config.eval);
                        EngineScore {
                            flips: sweep.results.iter().map(|r| u64::from(r.flips)).sum(),
                            vulnerable: sweep.results.iter().filter(|r| r.flips > 0).count() as u32,
                        }
                    })
                    .collect();
                Candidate { round, index: i as u32, params, scores }
            },
        );
        if let Some(r) = &registry {
            r.counter(CTR_FUZZ_CANDIDATES).add(produced.len() as u64);
            r.counter(CTR_FUZZ_EVALS).add((produced.len() * specs.len()) as u64);
            let bypasses =
                produced.iter().flat_map(|c| &c.scores).filter(|s| s.flips > 0).count() as u64;
            r.counter(CTR_FUZZ_BYPASSES).add(bypasses);
            let mutations = parents.iter().filter(|p| p.is_some()).count() as u64;
            r.counter(CTR_FUZZ_MUTATIONS).add(mutations);
        }
        if let Some(s) = span {
            s.finish(0);
        }
        all.extend(produced);
    }
    let leaders =
        (0..config.engines.len()).filter_map(|e| best_for_engine(&all, e).cloned()).collect();
    Ok(FuzzOutcome {
        engines: config.engines.clone(),
        specs: specs.into_iter().map(|s| s.id).collect(),
        candidates: all,
        leaders,
    })
}

fn scores_json(engines: &[String], scores: &[EngineScore]) -> String {
    let entries: Vec<String> = engines
        .iter()
        .zip(scores)
        .map(|(engine, s)| {
            format!(
                "{{\"engine\":\"{engine}\",\"flips\":{},\"vulnerable\":{}}}",
                s.flips, s.vulnerable
            )
        })
        .collect();
    format!("[{}]", entries.join(","))
}

/// Renders a run as the `utrr-fuzz/1` JSONL artifact: a meta line,
/// one `candidate` record per evaluated point, and one `leader` record
/// per engine.
pub fn render_fuzz_jsonl(config: &FuzzConfig, outcome: &FuzzOutcome) -> String {
    let mut out = String::new();
    let engines: Vec<String> = outcome.engines.iter().map(|e| format!("\"{e}\"")).collect();
    let specs: Vec<String> = outcome.specs.iter().map(|s| format!("\"{s}\"")).collect();
    out.push_str(&format!(
        "{{\"schema\":\"{FUZZ_SCHEMA}\",\"seed\":{},\"rounds\":{},\"candidates_per_round\":{},\
         \"elites\":{},\"engines\":[{}],\"specs\":[{}],\"rows\":{},\"samples\":{},\
         \"windows\":{},\"eval_seed\":{}}}\n",
        config.seed,
        config.rounds,
        config.candidates,
        config.elites,
        engines.join(","),
        specs.join(","),
        config.eval.scaled_rows.unwrap_or(0),
        config.eval.sample_count,
        config.eval.windows,
        config.eval.seed,
    ));
    for c in &outcome.candidates {
        out.push_str(&format!(
            "{{\"record\":\"candidate\",\"round\":{},\"index\":{},\"params\":{},\"scores\":{}}}\n",
            c.round,
            c.index,
            c.params.to_json(),
            scores_json(&outcome.engines, &c.scores),
        ));
    }
    for (e, leader) in outcome.leaders.iter().enumerate() {
        let s = leader.scores[e];
        out.push_str(&format!(
            "{{\"record\":\"leader\",\"engine\":\"{}\",\"bypass\":{},\"round\":{},\"index\":{},\
             \"flips\":{},\"vulnerable\":{},\"params\":{}}}\n",
            outcome.engines[e],
            s.flips > 0,
            leader.round,
            leader.index,
            s.flips,
            s.vulnerable,
            leader.params.to_json(),
        ));
    }
    out
}

/// A leader record parsed back from a `utrr-fuzz/1` artifact.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LeaderRecord {
    /// Engine version.
    pub engine: String,
    /// Whether the leader induces flips.
    pub bypass: bool,
    /// Round of the leading candidate.
    pub round: u32,
    /// Index of the leading candidate.
    pub index: u32,
    /// Its flips against this engine.
    pub flips: u64,
    /// Its vulnerable position count against this engine.
    pub vulnerable: u32,
    /// Its parameters.
    pub params: FuzzParams,
}

/// A parsed `utrr-fuzz/1` artifact.
#[derive(Debug, Clone, PartialEq)]
pub struct FuzzArtifact {
    /// Master seed recorded in the meta line.
    pub seed: u64,
    /// Rounds recorded in the meta line.
    pub rounds: u32,
    /// Candidates per round recorded in the meta line.
    pub candidates_per_round: u32,
    /// Engine versions, in score order.
    pub engines: Vec<String>,
    /// Every candidate record.
    pub candidates: Vec<Candidate>,
    /// Every leader record.
    pub leaders: Vec<LeaderRecord>,
}

/// Parses a `utrr-fuzz/1` artifact (round-trip of
/// [`render_fuzz_jsonl`]).
///
/// # Errors
///
/// Returns a description of the first malformed line or field.
pub fn parse_fuzz_jsonl(input: &str) -> Result<FuzzArtifact, String> {
    let values = obs::jsonl::parse_jsonl(input).map_err(|e| e.to_string())?;
    let meta = values.first().ok_or("empty artifact")?;
    if meta.get("schema").and_then(JsonValue::as_str) != Some(FUZZ_SCHEMA) {
        return Err(format!("missing schema {FUZZ_SCHEMA}"));
    }
    let meta_num =
        |key: &str| meta.get(key).and_then(JsonValue::as_u64).ok_or_else(|| format!("meta.{key}"));
    let engines: Vec<String> = meta
        .get("engines")
        .and_then(JsonValue::as_array)
        .ok_or("meta.engines")?
        .iter()
        .filter_map(|v| v.as_str().map(str::to_string))
        .collect();
    let mut artifact = FuzzArtifact {
        seed: meta_num("seed")?,
        rounds: meta_num("rounds")? as u32,
        candidates_per_round: meta_num("candidates_per_round")? as u32,
        engines,
        candidates: Vec::new(),
        leaders: Vec::new(),
    };
    for value in &values[1..] {
        let num = |key: &str| {
            value.get(key).and_then(JsonValue::as_u64).ok_or_else(|| format!("record.{key}"))
        };
        match value.get("record").and_then(JsonValue::as_str) {
            Some("candidate") => {
                let scores = value
                    .get("scores")
                    .and_then(JsonValue::as_array)
                    .ok_or("candidate.scores")?
                    .iter()
                    .map(|s| {
                        Ok(EngineScore {
                            flips: s.get("flips").and_then(JsonValue::as_u64).ok_or("flips")?,
                            vulnerable: s
                                .get("vulnerable")
                                .and_then(JsonValue::as_u64)
                                .ok_or("vulnerable")?
                                as u32,
                        })
                    })
                    .collect::<Result<Vec<_>, &str>>()
                    .map_err(|e| format!("candidate.scores.{e}"))?;
                artifact.candidates.push(Candidate {
                    round: num("round")? as u32,
                    index: num("index")? as u32,
                    params: FuzzParams::from_json(value.get("params").ok_or("candidate.params")?)?,
                    scores,
                });
            }
            Some("leader") => {
                let bypass = match value.get("bypass") {
                    Some(JsonValue::Bool(b)) => *b,
                    _ => return Err("leader.bypass".to_string()),
                };
                artifact.leaders.push(LeaderRecord {
                    engine: value
                        .get("engine")
                        .and_then(JsonValue::as_str)
                        .ok_or("leader.engine")?
                        .to_string(),
                    bypass,
                    round: num("round")? as u32,
                    index: num("index")? as u32,
                    flips: num("flips")?,
                    vulnerable: num("vulnerable")? as u32,
                    params: FuzzParams::from_json(value.get("params").ok_or("leader.params")?)?,
                });
            }
            _ => return Err("record without a known type".to_string()),
        }
    }
    Ok(artifact)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params_fixture(k: u64) -> FuzzParams {
        FuzzParams::sample(&mut SplitMix64::new(1000 + k))
    }

    /// A small smoke configuration against one engine.
    fn smoke(seed: u64, engine: &str) -> FuzzConfig {
        FuzzConfig {
            seed,
            rounds: 2,
            candidates: 8,
            elites: 2,
            engines: vec![engine.to_string()],
            eval: EvalConfig { sample_count: 4, windows: 1, ..EvalConfig::quick(4) },
        }
    }

    #[test]
    fn sampling_is_deterministic_and_in_range() {
        for seed in 0..64 {
            let a = FuzzParams::sample(&mut SplitMix64::new(seed));
            let b = FuzzParams::sample(&mut SplitMix64::new(seed));
            assert_eq!(a, b);
            assert!((1..=MAX_PERIOD).contains(&a.period));
            assert!(a.phase < a.period);
            assert!(a.divert_intervals < a.period);
            assert!((1..=MAX_AGGRESSOR_ACTS).contains(&a.aggressor_acts));
            assert!(a.tail_dummy_rows <= MAX_TAIL_DUMMY_ROWS);
        }
        let a = FuzzParams::sample(&mut SplitMix64::new(1));
        let b = FuzzParams::sample(&mut SplitMix64::new(2));
        assert_ne!(a, b, "distinct streams draw distinct points");
    }

    #[test]
    fn mutation_is_deterministic_and_preserves_invariants() {
        for seed in 0..64 {
            let parent = params_fixture(seed);
            let a = parent.mutated(&mut SplitMix64::new(seed * 31));
            let b = parent.mutated(&mut SplitMix64::new(seed * 31));
            assert_eq!(a, b);
            assert!(a.phase < a.period);
            assert!(a.divert_intervals < a.period);
            assert!(a.period >= 1 && a.aggressor_acts >= 1);
        }
    }

    #[test]
    fn scheduler_respects_the_interval_budget() {
        for seed in 0..128 {
            let params = params_fixture(seed);
            let pattern = FuzzPattern { params };
            let layout = AggressorLayout {
                aggressors: vec![
                    RowDose::new(dram_sim::RowAddr::new(10), params.aggressor_acts),
                    RowDose::new(dram_sim::RowAddr::new(12), params.aggressor_acts),
                ],
                dummies: (0..16)
                    .map(|i| {
                        RowDose::new(dram_sim::RowAddr::new(500 + i * 10), params.tail_dummy_acts)
                    })
                    .collect(),
                other_bank: vec![(
                    dram_sim::Bank::new(1),
                    RowDose::new(dram_sim::RowAddr::new(300), OTHER_BANK_DIVERT_ACTS),
                )],
            };
            for interval in 0..(2 * MAX_PERIOD) {
                let mut slots = Vec::new();
                pattern.schedule(&layout, interval, &mut slots);
                let same_bank: u64 = slots
                    .iter()
                    .map(|s| match *s {
                        HammerOp::Burst { acts, .. } => acts,
                        HammerOp::Pair { pairs, .. } => 2 * pairs,
                        HammerOp::OtherBank { .. } => 0,
                    })
                    .sum();
                assert!(
                    same_bank <= INTERVAL_BUDGET,
                    "seed {seed} interval {interval}: {same_bank} ACTs"
                );
            }
        }
    }

    #[test]
    fn leaderboard_prefers_flips_then_earliest() {
        let mk = |round, index, flips| Candidate {
            round,
            index,
            params: params_fixture(0),
            scores: vec![EngineScore { flips, vulnerable: (flips > 0) as u32 }],
        };
        let candidates = vec![mk(0, 0, 4), mk(0, 1, 9), mk(1, 0, 9), mk(1, 1, 2)];
        let best = best_for_engine(&candidates, 0).unwrap();
        assert_eq!((best.round, best.index, best.scores[0].flips), (0, 1, 9));
        // All-zero scores: the earliest candidate leads (bypass=false).
        let zeroes = vec![mk(0, 1, 0), mk(0, 0, 0)];
        let best = best_for_engine(&zeroes, 0).unwrap();
        assert_eq!((best.round, best.index), (0, 0));
        assert!(best_for_engine(&[], 0).is_none());
    }

    #[test]
    fn jsonl_round_trips() {
        let engines = vec!["A_TRR1".to_string(), "B_TRR1".to_string()];
        let candidates: Vec<Candidate> = (0..6)
            .map(|i| Candidate {
                round: i / 3,
                index: i % 3,
                params: params_fixture(i as u64),
                scores: vec![
                    EngineScore { flips: (i * 7) as u64 % 13, vulnerable: i % 3 },
                    EngineScore { flips: (i * 5) as u64 % 11, vulnerable: i % 2 },
                ],
            })
            .collect();
        let leaders: Vec<Candidate> =
            (0..2).map(|e| best_for_engine(&candidates, e).unwrap().clone()).collect();
        let outcome = FuzzOutcome {
            engines: engines.clone(),
            specs: vec!["A13".to_string(), "B13".to_string()],
            candidates,
            leaders,
        };
        let config = FuzzConfig {
            seed: 9,
            rounds: 2,
            candidates: 3,
            elites: 2,
            engines,
            eval: EvalConfig::quick(4),
        };
        let rendered = render_fuzz_jsonl(&config, &outcome);
        let parsed = parse_fuzz_jsonl(&rendered).unwrap();
        assert_eq!(parsed.seed, 9);
        assert_eq!(parsed.rounds, 2);
        assert_eq!(parsed.candidates_per_round, 3);
        assert_eq!(parsed.engines, outcome.engines);
        assert_eq!(parsed.candidates, outcome.candidates);
        assert_eq!(parsed.leaders.len(), 2);
        assert_eq!(parsed.leaders[0].params, outcome.leaders[0].params);
        assert_eq!(parsed.leaders[0].flips, outcome.leaders[0].scores[0].flips);
    }

    #[test]
    fn run_fuzz_is_byte_identical_across_worker_counts() {
        let config = FuzzConfig {
            rounds: 2,
            candidates: 3,
            eval: EvalConfig {
                sample_count: 2,
                windows: 1,
                scaled_rows: Some(512),
                ..EvalConfig::quick(2)
            },
            ..smoke(5, "A_TRR1")
        };
        let seq = run_fuzz(&config, &par::ParConfig::sequential()).unwrap();
        let par2 = run_fuzz(&config, &par::ParConfig { threads: 2, registry: None }).unwrap();
        assert_eq!(seq, par2);
        assert_eq!(render_fuzz_jsonl(&config, &seq), render_fuzz_jsonl(&config, &par2));
        assert_eq!(seq.candidates.len(), 6);
        // Round 1 contains at least one mutation of a round-0 parent
        // whenever round 0 produced a bypass; either way every record
        // scored exactly one engine.
        assert!(seq.candidates.iter().all(|c| c.scores.len() == 1));
    }

    #[test]
    fn run_fuzz_rejects_bad_engine_lists() {
        let pool = par::ParConfig::sequential();
        let mut config = smoke(1, "Z_TRR9");
        assert!(run_fuzz(&config, &pool).is_err());
        config.engines.clear();
        assert!(run_fuzz(&config, &pool).is_err());
    }

    #[test]
    fn engine_spec_picks_the_most_flip_prone_module() {
        let spec = engine_spec("A_TRR1").unwrap();
        assert_eq!(spec.trr_version, "A_TRR1");
        for other in by_version("A_TRR1") {
            assert!(spec.hc_first <= other.hc_first);
        }
        assert!(engine_spec("Z_TRR9").is_none());
    }
}
