//! Shared machinery for the table/figure reproduction binaries: the
//! library entry points of the §6 pipeline ([`reverse_engineer`],
//! [`hc_first`] and the seed-retry loop [`retry_seeds`]), the attack
//! columns, and the binaries' run harness [`Run`] and CLI helpers.
//!
//! The binaries regenerate every evaluation artifact of the paper:
//!
//! | binary        | paper artifact |
//! |---------------|----------------|
//! | `repro-table1`| Table 1 — per-module TRR reverse engineering + attack columns |
//! | `repro-fig8`  | Fig. 8 — flips/row vs hammers-per-aggressor sweep on A5, B8, C7 |
//! | `repro-fig9`  | Fig. 9 — % vulnerable rows for all 45 modules |
//! | `repro-fig10` | Fig. 10 — flips-per-8-byte-dataword histograms (+ §7.4 ECC verdicts) |
//! | `ablations`   | DESIGN.md §6 — outcome sensitivity to simulator design choices |

use std::path::{Path, PathBuf};
use std::sync::Arc;

use attacks::custom;
use attacks::eval::{sweep_bank, BankSweep, EvalConfig};
use dram_sim::{Bank, Module, ModuleConfig, Nanos, RowAddr};
use faults::FaultProfile;
use softmc::{MemoryController, RecoveryLadder};
use utrr_core::reverse::{self, DetectionKind, ReverseOptions, TrrProfile};
use utrr_core::schedule::learn_refresh_schedule;
use utrr_core::{RecoveryPolicy, RowGroupLayout, RowScout, ScoutConfig, UtrrError, VerdictTier};
use utrr_modules::ModuleSpec;

pub use utrr_core::recovery::{HOSTILE_PHASE_ACT_BUDGET, HOSTILE_SCOUT_ACT_BUDGET};

/// Everything U-TRR re-discovers about one module, next to the planted
/// ground truth.
#[derive(Debug, Clone)]
pub struct ReOutcome {
    /// The module's Table-1 identifier.
    pub id: String,
    /// The inferred profile.
    pub profile: TrrProfile,
    /// The measured per-row regular-refresh period in `REF`s (Obs. A8).
    pub refresh_period: u64,
    /// Whether each inferred column matches the ground truth.
    pub matches: ReMatches,
    /// How much of the pipeline completed within budget (always
    /// `Confirmed` below hostile severity).
    pub tier: VerdictTier,
    /// The controller's recovery-ladder history for this module: vote
    /// widenings, relocations, re-profiles, budget trips.
    pub ladder: RecoveryLadder,
}

/// Per-column ground-truth agreement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReMatches {
    /// TRR-to-REF ratio column.
    pub ratio: bool,
    /// Neighbours-refreshed column.
    pub neighbors: bool,
    /// Aggressor-detection mechanism column.
    pub detection: bool,
    /// Aggressor-capacity column (`true` when the paper marks it
    /// unknown).
    pub capacity: bool,
    /// Per-bank TRR column.
    pub per_bank: bool,
    /// Regular-refresh period (3758 for vendor A, ~8K otherwise).
    pub refresh_period: bool,
}

impl ReMatches {
    /// All columns agree.
    pub fn all(&self) -> bool {
        self.ratio
            && self.neighbors
            && self.detection
            && self.capacity
            && self.per_bank
            && self.refresh_period
    }
}

/// The inputs of one pipeline run ([`reverse_engineer`], [`hc_first`])
/// on a module built from its spec. Under [`FaultProfile::None`] no
/// fault plan is installed and `fault_seed` is irrelevant.
///
/// [`retry_seeds`] replaces `seed` on every attempt with one from the
/// caller's schedule. The two schedules differ because their seeds
/// come from different places. `repro-table1` runs every module from
/// the fixed seed 7 and steps it by 97 (`7 + 97·k`). A fleet module
/// draws all its phase seeds from one module seed: `HC_first` and the
/// attack sweep take streams 3 and 4, so its attempts use disjoint
/// stream blocks (`derive_seed(s, 2 + 16·k)`). Both schedules are
/// pinned by committed outputs (`results/table1.txt` and the fleet
/// digests), so neither can move to the other's.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Scaled rows per bank; below 1024 Row Scout cannot find its row
    /// groups ([`UtrrError::NotEnoughRowGroups`]).
    pub rows: u32,
    /// Experiment seed of the module build.
    pub seed: u64,
    /// Fault profile installed into the controller.
    pub fault_profile: FaultProfile,
    /// Seed of the fault plan.
    pub fault_seed: u64,
    /// Shared registry the module reports its spans and counters into.
    pub registry: Option<Arc<obs::MetricsRegistry>>,
}

impl RunConfig {
    /// A fault-free run with no registry attached.
    pub fn new(rows: u32, seed: u64) -> RunConfig {
        RunConfig { rows, seed, fault_profile: FaultProfile::None, fault_seed: 0, registry: None }
    }

    /// The controller for a module built from `spec` for this run.
    fn controller(&self, spec: &ModuleSpec) -> MemoryController {
        let mut module = spec.build_scaled(self.rows, self.seed);
        if let Some(registry) = &self.registry {
            module.attach_registry(Arc::clone(registry));
        }
        let mut mc = MemoryController::new(module);
        faults::install(&mut mc, self.fault_profile, self.fault_seed);
        mc
    }

    /// The [`RecoveryPolicy`] this run's controllers resolve to: that
    /// of the fault profile's severity.
    pub fn policy(&self) -> RecoveryPolicy {
        let config = faults::FaultConfig::for_profile(self.fault_profile);
        RecoveryPolicy::for_severity(config.map_or(0, |c| c.severity))
    }
}

/// Runs the full §6 reverse-engineering suite (Row Scout, TRR Analyzer
/// classification, refresh-schedule inference) against a module built
/// from its spec and compares the findings with the planted ground
/// truth.
///
/// # Errors
///
/// Propagates the first [`UtrrError`] of the suite: not enough row
/// groups, failed classification experiments, or a non-converging
/// refresh-schedule learner.
pub fn reverse_engineer(spec: &ModuleSpec, config: &RunConfig) -> Result<ReOutcome, UtrrError> {
    let mut mc = config.controller(spec);
    let scan = |mc: &mut MemoryController, bank, layout, groups| {
        RowScout::new(ScoutConfig::new(bank, config.rows, layout, groups)).scan_recover(mc)
    };
    let (bank, other_bank) = (Bank::new(0), Bank::new(1));
    let pair = RowGroupLayout::single_aggressor_pair;
    let mut tier = VerdictTier::Confirmed;
    // 18 pair groups give the counter-capacity sweep room up to 17.
    let (groups, scout_tier) = scan(&mut mc, bank, pair(), 18)?;
    tier.merge(&scout_tier);
    let (mut probe, probe_tier) = scan(&mut mc, bank, RowGroupLayout::neighbor_probe(), 1)?;
    tier.merge(&probe_tier);
    // A second-bank group for the shared-sampler test.
    let (mut cross, cross_tier) = scan(&mut mc, other_bank, pair(), 1)?;
    tier.merge(&cross_tier);
    let (probe, cross) = (probe.remove(0), cross.remove(0));

    let opts = ReverseOptions {
        trigger_hammers: (spec.hc_first / 4).clamp(400, 4_000),
        ratio_iterations: 80,
        long_iterations: 400,
        phase_act_budget: None,
    };
    // Hand the scout-phase tier in so the final verdict trace event
    // carries the whole pipeline's confidence, not just classification's.
    let (profile, classify_tier) = reverse::classify_recover(
        &mut mc,
        bank,
        &groups,
        &probe,
        Some((other_bank, &cross)),
        &opts,
        tier.clone(),
    )?;
    tier.merge(&classify_tier);
    let refresh_period = learn_refresh_schedule(&mut mc, &groups[0], bank)?.period;

    let detection_matches = matches!(
        (&profile.detection, spec.detection),
        (DetectionKind::Counter { .. }, "Counter-based")
            | (DetectionKind::Sampler { .. }, "Sampling-based")
            | (DetectionKind::Window { .. }, "Mix")
    );
    let capacity_matches = match (spec.aggressor_capacity, &profile.detection) {
        (Some(gt), DetectionKind::Counter { capacity, .. }) => *capacity == gt as usize,
        (Some(1), DetectionKind::Sampler { .. }) | (None, _) => true,
        _ => false,
    };
    // On the paired-row organization a detection refreshes exactly one
    // row (the pair — Observation C3), which is what U-TRR observes even
    // though Table 1 lists "2" for those parts.
    let expected_neighbors =
        if spec.topology() == dram_sim::Topology::Paired { 1 } else { spec.neighbors_refreshed };
    let matches = ReMatches {
        ratio: profile.trr_ref_ratio == spec.trr_to_ref_ratio,
        neighbors: profile.neighbors_refreshed == expected_neighbors,
        detection: detection_matches,
        capacity: capacity_matches,
        per_bank: profile.per_bank == spec.per_bank_trr,
        refresh_period: refresh_period == spec.refresh().period_refs as u64,
    };
    Ok(ReOutcome {
        id: spec.id.clone(),
        profile,
        refresh_period,
        matches,
        tier,
        ladder: *mc.recovery(),
    })
}

/// Experiment seeds [`retry_seeds`] tries: a few percent of seeds draw
/// weak cells the scout or schedule learner cannot converge on.
pub const RE_BIN_ATTEMPTS: u64 = 4;

/// Counter: failed attempts [`retry_seeds`] followed with another seed.
pub const CTR_RE_RETRIES: &str = "utrr.fleet.re_retries";

/// Marks a [`Retried::failure`] as `re-failed:<cause>` ([`UtrrError::cause`])
/// in `repro-table1`'s Match cell and a fleet record's `tier_reasons`.
pub const RE_FAILED: &str = "re-failed:";

/// What [`retry_seeds`] got.
#[derive(Debug, Clone, PartialEq)]
pub struct Retried<T> {
    /// The first successful result; `None` when every attempt failed
    /// (the module is inconclusive).
    pub outcome: Option<T>,
    /// Attempts made, 1 to [`RE_BIN_ATTEMPTS`].
    pub attempts: u32,
    /// The last error when every attempt failed and the run's policy is
    /// not [`RecoveryPolicy::tiered`]: below hostile faults every module
    /// must succeed, so the caller reports it and fails the run.
    pub failure: Option<UtrrError>,
}

/// The seed-retry loop: runs `run` on `config` with the experiment seed
/// `attempt_seed(k)` for `k = 0, 1, …` until an attempt succeeds or
/// [`RE_BIN_ATTEMPTS`] have failed. Each failure records a
/// [`obs::TraceKind::ReRetry`] event (`attempt`, `seed`, the error) in
/// the registry's flight recorder; each one retried adds one to
/// [`CTR_RE_RETRIES`].
pub fn retry_seeds<T>(
    config: &RunConfig,
    attempt_seed: impl Fn(u64) -> u64,
    mut run: impl FnMut(&RunConfig) -> Result<T, UtrrError>,
) -> Retried<T> {
    let mut attempt_config = config.clone();
    let mut attempt = 0;
    loop {
        attempt_config.seed = attempt_seed(attempt);
        attempt += 1;
        let error = match run(&attempt_config) {
            Ok(outcome) => {
                return Retried { outcome: Some(outcome), attempts: attempt as u32, failure: None }
            }
            Err(error) => error,
        };
        let exhausted = attempt == RE_BIN_ATTEMPTS;
        if let Some(registry) = &config.registry {
            registry.trace(
                obs::TraceKind::ReRetry,
                0,
                0,
                None,
                &[("attempt", attempt), ("seed", attempt_config.seed)],
                &error.to_string(),
            );
            if !exhausted {
                registry.counter(CTR_RE_RETRIES).inc();
            }
        }
        if exhausted {
            let failure = (!config.policy().tiered).then_some(error);
            return Retried { outcome: None, attempts: attempt as u32, failure };
        }
    }
}

/// Measures `HC_first` (footnote 1) over `samples` victim rows of bank
/// 0 with [`utrr_core::measure_hc_first`].
///
/// # Errors
///
/// Propagates the characterization's [`UtrrError`].
pub fn hc_first(spec: &ModuleSpec, config: &RunConfig, samples: u32) -> Result<u64, UtrrError> {
    let mut mc = config.controller(spec);
    utrr_core::measure_hc_first(&mut mc, Bank::new(0), samples, spec.hc_first * 2)
}

/// The Table-1 attack columns for one module: % vulnerable rows and max
/// flips per row per hammer, via the vendor's custom pattern.
pub fn attack_columns(spec: &ModuleSpec, config: &EvalConfig) -> BankSweep {
    let pattern = custom::pattern_for(spec);
    sweep_bank(spec, pattern.as_ref(), config)
}

/// One point of the Fig. 8 sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig8Point {
    /// Average hammers per aggressor per `REF`.
    pub hammers: f64,
    /// Five-number summary of flips per row.
    pub quartiles: (u32, u32, u32, u32, u32),
}

/// One point of the Fig. 8 sweep: a fresh module evaluated at hammer
/// rate `h`. Both the sequential and the parallel sweep call exactly
/// this function per point, which is what makes them bit-identical.
fn fig8_point(spec: &ModuleSpec, h: f64, config: &EvalConfig) -> Fig8Point {
    let pattern = custom::pattern_with_hammers(spec, h);
    let sweep = sweep_bank(spec, pattern.as_ref(), config);
    Fig8Point { hammers: sweep.hammers_per_aggressor_per_ref, quartiles: sweep.flip_quartiles() }
}

/// Sweeps hammers-per-aggressor for one module (Fig. 8's per-module
/// panel), sequentially: the oracle `determinism.rs` holds
/// [`fig8_sweep_par`] to.
pub fn fig8_sweep(spec: &ModuleSpec, hammer_values: &[f64], config: &EvalConfig) -> Vec<Fig8Point> {
    hammer_values.iter().map(|&h| fig8_point(spec, h, config)).collect()
}

/// [`fig8_sweep`] fanned over a worker pool. Every grid point builds its
/// own module from `(spec, config.seed)`, so points are independent and
/// the result is bit-identical to the sequential sweep for any thread
/// count.
pub fn fig8_sweep_par(
    spec: &ModuleSpec,
    hammer_values: &[f64],
    config: &EvalConfig,
    pool: &par::ParConfig,
) -> Vec<Fig8Point> {
    par::par_map(pool, hammer_values, |&h| fig8_point(spec, h, config))
}

/// [`attack_columns`] for many modules on a worker pool, one task per
/// module; results are in `specs` order.
pub fn attack_columns_par(
    specs: &[ModuleSpec],
    config: &EvalConfig,
    pool: &par::ParConfig,
) -> Vec<BankSweep> {
    par::par_map(pool, specs, |spec| attack_columns(spec, config))
}

/// Compact human-readable label for an inferred detection mechanism —
/// the form both Table 1 and the fleet records print.
pub fn detection_label(d: &DetectionKind) -> String {
    match d {
        DetectionKind::Counter { capacity, .. } => format!("Counter({capacity})"),
        DetectionKind::Sampler { shared_across_banks: true } => "Sampler(shared)".into(),
        DetectionKind::Sampler { shared_across_banks: false } => "Sampler(per-bank)".into(),
        DetectionKind::Window { max_window } => format!("Window(≤{max_window})"),
    }
}

/// A tiny ASCII sparkline box for a five-number summary, for terminal
/// figures.
pub fn boxplot_line(q: (u32, u32, u32, u32, u32), max_scale: u32, width: usize) -> String {
    let scale = |v: u32| -> usize {
        if max_scale == 0 {
            0
        } else {
            ((v as usize * (width - 1)) / max_scale as usize).min(width - 1)
        }
    };
    let mut line = vec![' '; width];
    let (min, q1, med, q3, max) = q;
    for cell in &mut line[scale(min)..=scale(max)] {
        *cell = '-';
    }
    for cell in &mut line[scale(q1)..=scale(q3)] {
        *cell = '=';
    }
    line[scale(med)] = '#';
    line.into_iter().collect()
}

/// Parses `--key value` style arguments, returning the value for `key`.
pub fn arg_value(args: &[String], key: &str) -> Option<String> {
    args.iter().position(|a| a == key).and_then(|i| args.get(i + 1).cloned())
}

/// The value of `--key` parsed as a `T`, or `default` when the flag is
/// absent. Exits with status 2 (`error: --key: invalid value '<v>'`)
/// when the value does not parse.
pub fn arg_or<T: std::str::FromStr>(args: &[String], key: &str, default: T) -> T {
    parse_arg(args, key, default).unwrap_or_else(|e| usage_error(&e))
}

/// [`arg_or`] with the parse failure returned as its message.
fn parse_arg<T: std::str::FromStr>(args: &[String], key: &str, default: T) -> Result<T, String> {
    match arg_value(args, key) {
        Some(v) => v.parse().map_err(|_| format!("{key}: invalid value '{v}'")),
        None => Ok(default),
    }
}

/// Exits with status 2 and `error: <message>` on stderr.
fn usage_error(message: &str) -> ! {
    eprintln!("error: {message}");
    std::process::exit(2);
}

/// Whether a bare `--flag` is present.
pub fn arg_flag(args: &[String], key: &str) -> bool {
    args.iter().any(|a| a == key)
}

/// The catalog modules a `--modules A5,B8,...` list names, in catalog
/// order; the whole catalog when the flag is absent.
pub fn catalog_modules(args: &[String]) -> Vec<ModuleSpec> {
    let filter = arg_value(args, "--modules");
    utrr_modules::catalog()
        .into_iter()
        .filter(|spec| match &filter {
            Some(list) => list.split(',').any(|id| id == spec.id),
            None => true,
        })
        .collect()
}

/// A shared run registry: attach it to every module a binary builds so
/// the whole run lands in one artifact.
pub fn run_registry() -> Arc<obs::MetricsRegistry> {
    obs::MetricsRegistry::shared()
}

/// The worker-pool configuration for a run: `threads` workers with
/// per-worker metrics (task counts, queue-wait and task-latency
/// histograms, worker spans) landing in the run `registry`.
pub fn par_config(threads: usize, registry: &Arc<obs::MetricsRegistry>) -> par::ParConfig {
    par::ParConfig::metered(threads, Arc::clone(registry))
}

/// The flags [`Run`] reads on every binary.
const SHARED_FLAGS: [&str; 4] = ["--faults", "--fault-seed", "--threads", "--metrics-out"];

/// The flags [`Run`] reads on a binary built with [`Run::from_args`].
const TRACE_FLAGS: [&str; 2] = ["--trace-out", "--trace-rows"];

/// The binaries' own flags that take no value (`repro-fig10`,
/// `repro-fleet`); every other flag is followed by its value.
const SWITCHES: [&str; 2] = ["--ecc", "--resume"];

/// The run harness of every repro binary, built once from its argv.
/// It owns the flags all of them share:
///
/// - `--faults none|mild|hostile` (default `none`, the strict no-op
///   path) and `--fault-seed N` (default 1);
/// - `--threads N`, with `UTRR_THREADS` as fallback and the machine's
///   available parallelism as default (`--threads 0` also falls back);
/// - `--metrics-out PATH`, the JSONL run artifact (schema `utrr-obs/2`);
/// - `--trace-out PATH` (JSONL, schema `utrr-trace/1`; `utrr-trace
///   chrome` converts it to Chrome `trace_event` JSON) and
///   `--trace-rows SPEC` (`all`, or a comma list of physical rows and
///   inclusive `A-B` ranges restricting capture to those rows ±2), on
///   every binary built with [`Run::from_args`].
///
/// Each binary hands over the flags it reads itself. Any other `--flag`
/// exits with status 2 (`error: unknown flag '<flag>'`), so a misspelt
/// flag cannot silently run the defaults, and so does a token that is
/// neither a flag nor a flag's value (`error: unexpected argument
/// '<token>'`); a malformed value exits 2 too and names its flag. The
/// run registry, its flight recorder (installed only under
/// `--trace-out`) and the metered worker pool are built here;
/// [`Run::finish`] writes the artifacts.
#[derive(Debug)]
pub struct Run {
    /// Fault profile of every module the run builds.
    pub fault_profile: FaultProfile,
    /// Seed of the fault plans.
    pub fault_seed: u64,
    /// The registry every module and the pool report into.
    pub registry: Arc<obs::MetricsRegistry>,
    /// The metered worker pool; its `threads` is the run's worker count.
    pub pool: par::ParConfig,
    metrics_out: Option<PathBuf>,
    trace_out: Option<PathBuf>,
}

impl Run {
    /// The harness of a binary that takes every shared flag and reads
    /// `own_flags` itself.
    pub fn from_args(args: &[String], own_flags: &[&str]) -> Run {
        Run::parse(args, own_flags, true)
    }

    /// The harness of `repro-fleet`, which takes no trace flags: its
    /// modules run on private registries, so a trace would be empty.
    pub fn untraced(args: &[String], own_flags: &[&str]) -> Run {
        Run::parse(args, own_flags, false)
    }

    fn parse(args: &[String], own_flags: &[&str], traced: bool) -> Run {
        let known = |flag: &str| {
            own_flags.contains(&flag)
                || SHARED_FLAGS.contains(&flag)
                || (traced && TRACE_FLAGS.contains(&flag))
        };
        if let Some(flag) = args.iter().find(|a| a.starts_with("--") && !known(a)) {
            usage_error(&format!("unknown flag '{flag}'"));
        }
        let mut tokens = args.iter();
        while let Some(token) = tokens.next() {
            if !token.starts_with("--") {
                usage_error(&format!("unexpected argument '{token}'"));
            }
            if !SWITCHES.contains(&token.as_str()) {
                tokens.next();
            }
        }
        let fault_profile = match arg_value(args, "--faults") {
            Some(name) => name.parse().unwrap_or_else(|e| usage_error(&format!("--faults: {e}"))),
            None => FaultProfile::None,
        };
        let fault_seed = arg_or(args, "--fault-seed", 1);
        let trace_flag = |key| if traced { arg_value(args, key) } else { None };
        let trace_out = trace_flag("--trace-out").map(PathBuf::from);
        let filter = match trace_flag("--trace-rows") {
            Some(spec) => obs::TraceFilter::parse(&spec)
                .unwrap_or_else(|e| usage_error(&format!("--trace-rows: {e}"))),
            None => obs::TraceFilter::all(),
        };
        let threads = par::resolve_threads(Some(arg_or(args, "--threads", 0)));
        let registry = run_registry();
        // Untraced, the recorder stays uninstalled and every `trace()`
        // call is a single relaxed atomic load.
        if trace_out.is_some() {
            registry.install_recorder(Arc::new(obs::FlightRecorder::new(
                obs::DEFAULT_TRACE_CAPACITY,
                filter,
            )));
        }
        Run {
            fault_profile,
            fault_seed,
            pool: par_config(threads, &registry),
            registry,
            metrics_out: arg_value(args, "--metrics-out").map(PathBuf::from),
            trace_out,
        }
    }

    /// The attack-evaluation config of this run: `samples` victim
    /// positions over `windows` refresh windows on `rows` scaled rows,
    /// reporting into the run registry under the run's faults.
    pub fn eval_config(&self, rows: u32, samples: u32, windows: u32) -> EvalConfig {
        EvalConfig {
            windows,
            scaled_rows: Some(rows),
            registry: Some(Arc::clone(&self.registry)),
            fault_profile: self.fault_profile,
            fault_seed: self.fault_seed,
            ..EvalConfig::quick(samples)
        }
    }

    /// Prints the `# fault injection:` header line, unless the run is
    /// fault-free.
    pub fn fault_banner(&self) {
        if self.fault_profile != FaultProfile::None {
            println!("# fault injection: {} profile, seed {}", self.fault_profile, self.fault_seed);
        }
    }

    /// The end of a run: writes the trace artifact, then the metrics
    /// artifact, logging each path to stderr, and prints the metrics
    /// summary table to stderr. A failed write exits 1 (see
    /// [`exit_on_write_error`]).
    pub fn finish(self) {
        if let (Some(recorder), Some(path)) = (self.registry.recorder(), &self.trace_out) {
            let (events, dropped) = recorder.snapshot();
            let written = obs::trace::write_trace_jsonl_to_path(&events, dropped, path);
            exit_on_write_error(path, written);
            eprintln!(
                "trace artifact: {} ({} events, {} dropped)",
                path.display(),
                events.len(),
                dropped
            );
        }
        if let Some(path) = &self.metrics_out {
            exit_on_write_error(path, obs::jsonl::write_jsonl_to_path(&self.registry, path));
            eprintln!("metrics artifact: {}", path.display());
        }
        eprint!("{}", obs::report::render_summary(&self.registry));
    }
}

/// The one policy for a repro binary's artifact writes: on a failed
/// write, exit 1 with `error: writing <path>: <e>` on stderr.
pub fn exit_on_write_error(path: &Path, result: std::io::Result<()>) {
    if let Err(e) = result {
        eprintln!("error: writing {}: {e}", path.display());
        std::process::exit(1);
    }
}

/// Wall-clock per phase of a benchmark run, serialised to the
/// `BENCH_sweep.json` baseline artifact by [`BenchPhases::write`].
///
/// Hand-rolled JSON (schema `utrr-bench/1`): one object with the thread
/// count, a `phases` array of `{name, wall_ms}` pairs in execution
/// order, and a flat `scalars` object for extra measurements (e.g. the
/// device micro-benchmark's ns-per-ACT).
#[derive(Debug, Default)]
pub struct BenchPhases {
    threads: usize,
    phases: Vec<(String, f64)>,
    scalars: Vec<(String, f64)>,
}

impl BenchPhases {
    /// A new recorder for a run using `threads` workers.
    pub fn new(threads: usize) -> Self {
        BenchPhases { threads, phases: Vec::new(), scalars: Vec::new() }
    }

    /// Records `phase` as having taken `elapsed` of wall-clock time.
    pub fn record(&mut self, phase: &str, elapsed: std::time::Duration) {
        self.phases.push((phase.to_string(), elapsed.as_secs_f64() * 1e3));
    }

    /// Runs `f`, recording its wall-clock under `phase`, and returns its
    /// result.
    pub fn time<R>(&mut self, phase: &str, f: impl FnOnce() -> R) -> R {
        let start = std::time::Instant::now();
        let result = f();
        self.record(phase, start.elapsed());
        result
    }

    /// Records a named scalar measurement (e.g. `device_ns_per_act`).
    pub fn scalar(&mut self, name: &str, value: f64) {
        self.scalars.push((name.to_string(), value));
    }

    /// Renders the artifact as JSON.
    pub fn to_json(&self) -> String {
        fn esc(s: &str) -> String {
            s.chars()
                .flat_map(|c| match c {
                    '"' => vec!['\\', '"'],
                    '\\' => vec!['\\', '\\'],
                    c if (c as u32) < 0x20 => format!("\\u{:04x}", c as u32).chars().collect(),
                    c => vec![c],
                })
                .collect()
        }
        let mut out = String::from("{\"schema\":\"utrr-bench/1\",");
        out.push_str(&format!("\"threads\":{},\"phases\":[", self.threads));
        for (i, (name, ms)) in self.phases.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("{{\"name\":\"{}\",\"wall_ms\":{:.3}}}", esc(name), ms));
        }
        out.push_str("],\"scalars\":{");
        for (i, (name, value)) in self.scalars.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{}\":{:.3}", esc(name), value));
        }
        out.push_str("}}\n");
        out
    }

    /// Writes the artifact to `path`.
    ///
    /// # Errors
    ///
    /// Propagates the I/O error if the file cannot be written.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        std::fs::write(path, self.to_json())
    }
}

/// A small device micro-benchmark: the average wall-clock cost in
/// nanoseconds of one `hammer(1)` command against an unmitigated test
/// module. Recorded into `BENCH_sweep.json` so per-command device cost
/// is tracked as a baseline across changes.
pub fn device_ns_per_act() -> f64 {
    let mut module = Module::new(ModuleConfig::small_test(), 11);
    let bank = Bank::new(0);
    let rows = module.config().geometry.rows_per_bank.min(64);
    // Warm the row map so the measurement is steady-state.
    for r in 0..rows {
        module.hammer(bank, RowAddr::new(r), 1).expect("warm-up hammer");
    }
    const ITERS: u32 = 50_000;
    let start = std::time::Instant::now();
    for i in 0..ITERS {
        module.hammer(bank, RowAddr::new(i % rows), 1).expect("bench hammer");
    }
    start.elapsed().as_nanos() as f64 / f64::from(ITERS)
}

/// Micro-benchmark of the auto-refresh sweep: REF commands retired per
/// wall-clock second against a module with a sparse touched-row
/// population (the realistic steady state — most of a bank's rows never
/// enter an experiment, and the event-driven sweep must skip them for
/// free).
pub fn refs_per_sec() -> f64 {
    let mut module = Module::new(ModuleConfig::small_test(), 13);
    let bank = Bank::new(0);
    // Touch a scattering of rows so REF windows hold real work
    // occasionally, as during an experiment.
    let rows = module.config().geometry.rows_per_bank;
    for r in (0..rows).step_by(97) {
        module.hammer(bank, RowAddr::new(r), 1).expect("warm-up hammer");
    }
    const ITERS: u32 = 200_000;
    let start = std::time::Instant::now();
    for _ in 0..ITERS {
        module.refresh();
    }
    f64::from(ITERS) / start.elapsed().as_secs_f64()
}

/// Micro-benchmark of the weak-cell retention scan: average wall-clock
/// nanoseconds to restore one decayed row (the Row Scout hot path — every
/// profiling pass writes, waits, and reads back a whole row range, and
/// each read re-runs the per-row weak-cell window scan).
pub fn weak_scan_ns_per_row() -> f64 {
    let mut module = Module::new(ModuleConfig::small_test(), 17);
    let bank = Bank::new(0);
    let rows = module.config().geometry.rows_per_bank.min(256);
    for r in 0..rows {
        module.write_row(bank, RowAddr::new(r), dram_sim::DataPattern::Ones).expect("bench write");
    }
    const PASSES: u32 = 400;
    let mut scanned = 0u32;
    let start = std::time::Instant::now();
    for _ in 0..PASSES {
        // Long enough that weak cells beat their retention and the scan
        // has decay work to do, short enough to keep sim-time bounded.
        module.advance(Nanos::from_ms(300));
        for r in 0..rows {
            let readout = module.read_row(bank, RowAddr::new(r)).expect("bench read");
            std::hint::black_box(readout.flip_count());
            scanned += 1;
        }
    }
    start.elapsed().as_nanos() as f64 / f64::from(scanned)
}

#[cfg(test)]
mod tests {
    use super::*;
    use utrr_modules::by_id;

    #[test]
    fn arg_parsing() {
        let args: Vec<String> = ["--rows", "512", "--ecc"].iter().map(|s| s.to_string()).collect();
        assert_eq!(arg_value(&args, "--rows").as_deref(), Some("512"));
        assert_eq!(arg_value(&args, "--samples"), None);
        assert!(arg_flag(&args, "--ecc"));
        assert!(!arg_flag(&args, "--quick"));
    }

    #[test]
    fn numeric_flags_parse_strictly() {
        let args: Vec<String> = ["--rows", "512", "--seed", "0x1", "--modules", "3x"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert_eq!(parse_arg(&args, "--rows", 2_048u32), Ok(512));
        assert_eq!(parse_arg(&args, "--samples", 48u32), Ok(48), "absent flag: default");
        assert_eq!(parse_arg::<u64>(&args, "--seed", 1), Err("--seed: invalid value '0x1'".into()));
        assert_eq!(
            parse_arg::<u64>(&args, "--modules", 64),
            Err("--modules: invalid value '3x'".into())
        );
        assert_eq!(arg_or(&args, "--rows", 2_048u32), 512);
    }

    #[test]
    fn boxplot_is_width_stable() {
        let line = boxplot_line((0, 10, 20, 30, 40), 40, 20);
        assert_eq!(line.len(), 20);
        assert!(line.contains('#'));
        let empty = boxplot_line((0, 0, 0, 0, 0), 0, 10);
        assert_eq!(empty.len(), 10);
    }

    #[test]
    fn hc_first_measurement_tracks_ground_truth() {
        let spec = by_id("A5").unwrap();
        let measured = hc_first(&spec, &RunConfig::new(1_024, 11), 24).unwrap();
        let gt = spec.hc_first;
        assert!(
            measured as f64 > gt as f64 * 0.8 && (measured as f64) < gt as f64 * 2.5,
            "measured {measured} vs HC_first {gt}"
        );
    }

    #[test]
    fn reverse_engineering_below_1024_rows_is_an_error() {
        let spec = by_id("A5").unwrap();
        let result = reverse_engineer(&spec, &RunConfig::new(512, 7));
        assert!(matches!(result, Err(UtrrError::NotEnoughRowGroups { .. })), "{result:?}");
    }

    /// `(attempt, seed, cause)` of a `re_retry` event.
    type RetryEvent = (u64, u64, String);

    /// Runs the retry loop under `profile` over the seeds 10, 20, 30, 40
    /// with a fake runner that fails every seed but `ok_seed`, and a
    /// flight recorder installed. Returns the result, the seeds tried,
    /// the retry counter and the `re_retry` events.
    fn fake_run(
        profile: FaultProfile,
        ok_seed: Option<u64>,
    ) -> (Retried<u64>, Vec<u64>, u64, Vec<RetryEvent>) {
        let registry = run_registry();
        registry.install_recorder(Arc::new(obs::FlightRecorder::unfiltered()));
        let config = RunConfig {
            fault_profile: profile,
            registry: Some(Arc::clone(&registry)),
            ..RunConfig::new(99, 0)
        };
        let mut tried = Vec::new();
        let runner = |c: &RunConfig| {
            assert_eq!(c.rows, 99, "the loop only replaces the seed");
            tried.push(c.seed);
            let ok = Some(c.seed) == ok_seed;
            ok.then_some(c.seed).ok_or(UtrrError::HammerCountUnsafe { count: c.seed })
        };
        let result = retry_seeds(&config, |k| 10 * (k + 1), runner);
        let field = |e: &obs::TraceEvent, key| e.fields.iter().find(|(k, _)| k == key).unwrap().1;
        let (events, _) = registry.recorder().unwrap().snapshot();
        let events = events
            .iter()
            .filter(|e| e.kind == obs::TraceKind::ReRetry)
            .map(|e| (field(e, "attempt"), field(e, "seed"), e.detail.clone()))
            .collect();
        (result, tried, registry.counter(CTR_RE_RETRIES).get(), events)
    }

    fn event(attempt: u64, seed: u64) -> RetryEvent {
        (attempt, seed, UtrrError::HammerCountUnsafe { count: seed }.to_string())
    }

    #[test]
    fn retry_loop_stops_at_the_first_success() {
        let (result, tried, retries, events) = fake_run(FaultProfile::None, Some(30));
        assert_eq!(result, Retried { outcome: Some(30), attempts: 3, failure: None });
        assert_eq!(tried, [10, 20, 30], "seeds in the given order, none after the success");
        assert_eq!(retries, 2, "one per retried failure");
        assert_eq!(events, [event(1, 10), event(2, 20)]);

        let (result, _, retries, events) = fake_run(FaultProfile::None, Some(10));
        assert_eq!(result, Retried { outcome: Some(10), attempts: 1, failure: None });
        assert_eq!((retries, events.len()), (0, 0));
    }

    #[test]
    fn retry_loop_exhaustion_depends_on_the_fault_profile() {
        let all_failed = [event(1, 10), event(2, 20), event(3, 30), event(4, 40)];
        let (result, tried, retries, events) = fake_run(FaultProfile::Hostile, None);
        let inconclusive = Retried { outcome: None, attempts: 4, failure: None };
        assert_eq!(result, inconclusive, "inconclusive, with no failure to report");
        assert_eq!(tried, [10, 20, 30, 40]);
        assert_eq!(retries, 3, "the last failure is not retried");
        assert_eq!(events, all_failed, "one event per failed attempt");
        for profile in [FaultProfile::None, FaultProfile::Mild] {
            let (result, _, retries, events) = fake_run(profile, None);
            let failure = Some(UtrrError::HammerCountUnsafe { count: 40 });
            assert_eq!(result, Retried { outcome: None, attempts: 4, failure }, "the last cause");
            assert_eq!((retries, events), (3, all_failed.to_vec()));
        }
    }

    #[test]
    fn attack_columns_quick_run() {
        let spec = by_id("C9").unwrap();
        let sweep = attack_columns(&spec, &EvalConfig::quick(12));
        assert!(sweep.vulnerable_pct() > 80.0);
    }

    #[test]
    fn metrics_artifact_round_trips() {
        let path = std::env::temp_dir().join(format!("utrr-artifact-{}.jsonl", std::process::id()));
        let args: Vec<String> = ["--threads", "1", "--metrics-out", path.to_str().unwrap()]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let run = Run::from_args(&args, &[]);
        let spec = by_id("A5").unwrap();
        // Through the metered pool, as the binaries run it: the pool's
        // `par.*` histograms are the artifact's histogram lines.
        let sweeps = attack_columns_par(&[spec], &run.eval_config(2_048, 4, 2), &run.pool);
        assert!(sweeps[0].vulnerable_pct() > 0.0);

        run.finish();
        let text = std::fs::read_to_string(&path).expect("artifact readable");
        let _ = std::fs::remove_file(&path);
        let records = obs::jsonl::parse_jsonl(&text).expect("every line parses");

        let meta = &records[0];
        assert_eq!(meta.get("type").and_then(|v| v.as_str()), Some("meta"));
        assert_eq!(meta.get("schema").and_then(|v| v.as_str()), Some("utrr-obs/2"));

        let counter_of = |name: &str| {
            records
                .iter()
                .find(|r| {
                    r.get("type").and_then(|v| v.as_str()) == Some("counter")
                        && r.get("name").and_then(|v| v.as_str()) == Some(name)
                })
                .and_then(|r| r.get("value").and_then(|v| v.as_u64()))
        };
        assert!(counter_of("dram.cmd.act").unwrap() > 0, "activations were counted");
        assert!(counter_of("dram.cmd.ref").unwrap() > 0, "refreshes were counted");

        let histogram = records
            .iter()
            .find(|r| {
                r.get("type").and_then(|v| v.as_str()) == Some("histogram")
                    && r.get("count").and_then(|v| v.as_u64()).unwrap_or(0) > 0
            })
            .expect("a populated histogram exists");
        for quantile in ["p50", "p90", "p99"] {
            assert!(histogram.get(quantile).and_then(|v| v.as_u64()).is_some());
        }
        assert!(!histogram.get("bins").and_then(|v| v.as_array()).unwrap().is_empty());

        let sweep_span = records
            .iter()
            .find(|r| {
                r.get("type").and_then(|v| v.as_str()) == Some("span")
                    && r.get("name").and_then(|v| v.as_str()) == Some("attacks.eval.sweep")
            })
            .expect("the sweep span was recorded");
        let end = sweep_span.get("sim_end_ns").and_then(|v| v.as_u64()).unwrap();
        let start = sweep_span.get("sim_start_ns").and_then(|v| v.as_u64()).unwrap();
        assert!(end > start, "sweep span covers simulated time");
    }
}
