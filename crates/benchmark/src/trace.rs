//! The traced run: the work of a child with the run's `--seed`, replayed
//! in-process with a benchmark-owned span around every layer call,
//! plus per-layer kernels. Every call into a layer's functions lives in
//! this file.
//!
//! The replays mirror `repro-table1`, `utrr_fleet::record::characterize`
//! and `repro-fuzz` call for call. Each replay's outputs (Table-1 rows,
//! `fleet.jsonl` records, the fuzz artifact) must equal those of the
//! untraced child it is paired with, or the replay counts as failed —
//! so the per-layer numbers always describe the same work as the
//! end-to-end ones.

use std::collections::{BTreeMap, HashMap};
use std::hint::black_box;
use std::io::Write as _;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use attacks::eval::{BankSweep, EvalConfig};
use attacks::fuzz::{render_fuzz_jsonl, run_fuzz, FuzzConfig};
use dram_sim::rng::derive_seed;
use dram_sim::{Bank, DataPattern, Module, ModuleConfig, RowAddr, Timings, Topology};
use faults::FaultProfile;
use obs::{HistogramSnapshot, MetricsRegistry, SpanGuard, SpanRecord};
use softmc::{HammerSpec, MemoryController};
use utrr_bench::{attack_columns, detection_label, ReMatches, ReOutcome};
use utrr_core::reverse::{self, DetectionKind, ReverseOptions};
use utrr_core::{
    RowGroupLayout, RowScout, ScoutConfig, UtrrError, VerdictTier, CTR_NOT_REFRESHED,
    CTR_REGULAR_REFRESH, CTR_TRR_REFRESH,
};
use utrr_fleet::record::{FleetRecord, SweepParams, CTR_RE_RETRIES, RE_ATTEMPTS};
use utrr_fleet::{content_hash, synth_spec, FleetConfig, RunOptions};
use utrr_modules::{by_id, ModuleSpec};

use crate::run::checked_child;
use crate::stats::{median, self_time, tail, tail_level, Metric, Tally};
use crate::workload::{
    table1_row_id, Output, Workload, FLEET_SHARDS, FUZZ_CANDIDATES, FUZZ_ENGINES, FUZZ_ROUNDS,
    TABLE1_MODULES, THREADS,
};
use crate::Context;

/// Fault profile and seed of a pipeline stage.
type Faults = (FaultProfile, u64);

/// Benchmark-owned spans: a registry no module is ever attached to.
/// Each span carries its start (ns since the trace run began) and the
/// replay number as fields.
#[derive(Clone)]
struct Tracer {
    registry: Arc<MetricsRegistry>,
    epoch: Instant,
    run: u64,
}

impl Tracer {
    fn span(&self, name: &str) -> SpanGuard {
        let start = self.epoch.elapsed().as_nanos() as u64;
        let mut span = self.registry.span(name, 0);
        span.set_field("start_ns", start);
        span.set_field("run", self.run);
        span
    }

    fn time<R>(&self, name: &str, f: impl FnOnce() -> R) -> R {
        let _span = self.span(name);
        f()
    }
}

/// Ground-truth agreement of one replay.
#[derive(Debug, Clone, Copy, Default)]
struct Accuracy {
    modules: u64,
    matched: u64,
    re_runs: u64,
    first_try: u64,
    confirmed: u64,
    bypassed_engines: u64,
}

/// What a replay produced: the output lines compared against the
/// paired child's, every registry the program reported into (the run
/// registry and, in fleets, each module's own), and accuracy.
type Replayed = (Vec<String>, Vec<Arc<MetricsRegistry>>, Accuracy);

/// One finished replay.
struct Replay {
    wall_s: f64,
    lines: Vec<String>,
    accuracy: Accuracy,
    program: ProgramStats,
}

/// Program-side totals of one replay, summed over its registries.
struct ProgramStats {
    counters: BTreeMap<String, u64>,
    spans: Vec<SpanRecord>,
    par_task_ns: HistogramSnapshot,
    par_queue_wait_ns: HistogramSnapshot,
}

impl ProgramStats {
    fn collect(programs: &[Arc<MetricsRegistry>]) -> ProgramStats {
        let mut stats = ProgramStats {
            counters: BTreeMap::new(),
            spans: Vec::new(),
            par_task_ns: HistogramSnapshot::default(),
            par_queue_wait_ns: HistogramSnapshot::default(),
        };
        for registry in programs {
            for (name, value) in registry.counters_snapshot() {
                *stats.counters.entry(name).or_default() += value;
            }
            stats.spans.extend(registry.spans_snapshot().0);
            for (name, snapshot) in registry.histograms_snapshot() {
                match name.as_str() {
                    "par.task_ns" => stats.par_task_ns = stats.par_task_ns.merge(&snapshot),
                    "par.queue_wait_ns" => {
                        stats.par_queue_wait_ns = stats.par_queue_wait_ns.merge(&snapshot)
                    }
                    _ => {}
                }
            }
        }
        stats
    }
}

const NO_FAULTS: Faults = (FaultProfile::None, 1);

/// [`utrr_bench::try_reverse_engineer_module_faulty`] with a span
/// around each layer call: the three Row Scout scans, TRR Analyzer
/// classification and the refresh-schedule learner. A successful run's
/// `core.re` span records the simulated time the suite took.
fn reverse_engineer(
    t: &Tracer,
    spec: &ModuleSpec,
    rows: u32,
    seed: u64,
    registry: &Arc<MetricsRegistry>,
    faults: Faults,
) -> Result<ReOutcome, UtrrError> {
    let mut span = t.span("core.re");
    let mut module = spec.build_scaled(rows, seed);
    module.attach_registry(Arc::clone(registry));
    let mut mc = MemoryController::new(module);
    faults::install(&mut mc, faults.0, faults.1);
    let ladder_on = utrr_core::recovery::ladder_active(&mc);
    let scout_budget = ladder_on.then_some(utrr_bench::HOSTILE_SCOUT_ACT_BUDGET);
    let scan = |mc: &mut MemoryController, bank, layout, groups| {
        let mut config = ScoutConfig::new(bank, rows, layout, groups);
        config.max_acts = scout_budget;
        t.time("core.rowscout", || RowScout::new(config).scan_recover(mc))
    };
    let (bank, other_bank) = (Bank::new(0), Bank::new(1));
    let mut tier = VerdictTier::Confirmed;
    let (groups, scout_tier) = scan(&mut mc, bank, RowGroupLayout::single_aggressor_pair(), 18)?;
    tier.merge(&scout_tier);
    let (mut probe, probe_tier) = scan(&mut mc, bank, RowGroupLayout::neighbor_probe(), 1)?;
    tier.merge(&probe_tier);
    let (mut cross, cross_tier) =
        scan(&mut mc, other_bank, RowGroupLayout::single_aggressor_pair(), 1)?;
    tier.merge(&cross_tier);
    let (probe, cross) = (probe.remove(0), cross.remove(0));
    let opts = ReverseOptions {
        trigger_hammers: (spec.hc_first / 4).clamp(400, 4_000),
        ratio_iterations: 80,
        long_iterations: 400,
        phase_act_budget: ladder_on.then_some(utrr_bench::HOSTILE_PHASE_ACT_BUDGET),
    };
    let (profile, classify_tier) = t.time("core.analyzer", || {
        reverse::classify_recover(
            &mut mc,
            bank,
            &groups,
            &probe,
            Some((other_bank, &cross)),
            &opts,
            tier.clone(),
        )
    })?;
    tier.merge(&classify_tier);
    let refresh_period = t
        .time("core.schedule", || utrr_core::learn_refresh_schedule(&mut mc, &groups[0], bank))?
        .period;
    span.set_field("sim_ns", mc.now().as_ns());

    let detection = matches!(
        (&profile.detection, spec.detection),
        (DetectionKind::Counter { .. }, "Counter-based")
            | (DetectionKind::Sampler { .. }, "Sampling-based")
            | (DetectionKind::Window { .. }, "Mix")
    );
    let capacity = match (spec.aggressor_capacity, &profile.detection) {
        (Some(gt), DetectionKind::Counter { capacity, .. }) => *capacity == gt as usize,
        (Some(1), DetectionKind::Sampler { .. }) | (None, _) => true,
        _ => false,
    };
    let neighbors = if spec.topology() == Topology::Paired { 1 } else { spec.neighbors_refreshed };
    let matches = ReMatches {
        ratio: profile.trr_ref_ratio == spec.trr_to_ref_ratio,
        neighbors: profile.neighbors_refreshed == neighbors,
        detection,
        capacity,
        per_bank: profile.per_bank == spec.per_bank_trr,
        refresh_period: refresh_period == u64::from(spec.refresh().period_refs),
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

/// [`utrr_bench::measure_hc_first_faulty`] with a span around the
/// `utrr_core::measure_hc_first` call.
fn hc_first(
    t: &Tracer,
    spec: &ModuleSpec,
    rows: u32,
    samples: u32,
    seed: u64,
    registry: &Arc<MetricsRegistry>,
    faults: Faults,
) -> u64 {
    let mut module = spec.build_scaled(rows, seed);
    module.attach_registry(Arc::clone(registry));
    let mut mc = MemoryController::new(module);
    faults::install(&mut mc, faults.0, faults.1);
    t.time("core.hc_first", || {
        utrr_core::measure_hc_first(&mut mc, Bank::new(0), samples, spec.hc_first * 2)
    })
    .expect("characterization runs on an in-range bank")
}

/// `repro-table1 --modules <TABLE1_MODULES>`: one reverse-engineering
/// run per TRR version (retrying like the binary), then `HC_first` and
/// the attack sweep per module. Returns the Table-1 module rows.
fn replay_table1(t: &Tracer) -> Replayed {
    let modules: Vec<ModuleSpec> =
        TABLE1_MODULES.iter().map(|id| by_id(id).expect("a catalog module")).collect();
    let run_registry = utrr_bench::run_registry();
    let pool = utrr_bench::par_config(THREADS, &run_registry);
    let mut versions: Vec<ModuleSpec> = Vec::new();
    for spec in &modules {
        if !versions.iter().any(|v| v.trr_version == spec.trr_version) {
            versions.push(spec.clone());
        }
    }
    let re: Vec<Option<(ReOutcome, u64)>> = par::par_map(&pool, &versions, |spec| {
        (0..utrr_bench::RE_BIN_ATTEMPTS).find_map(|attempt| {
            reverse_engineer(t, spec, 2_048, 7 + 97 * attempt, &run_registry, NO_FAULTS)
                .ok()
                .map(|re| (re, attempt + 1))
        })
    });
    let mut accuracy = Accuracy {
        modules: modules.len() as u64,
        re_runs: versions.len() as u64,
        ..Accuracy::default()
    };
    for (re, attempts) in re.iter().flatten() {
        accuracy.first_try += u64::from(*attempts == 1);
        accuracy.confirmed += u64::from(re.tier.is_confirmed());
    }
    let mut lines = Vec::new();
    for spec in &modules {
        let at = versions.iter().position(|v| v.trr_version == spec.trr_version);
        let Some((o, _)) = at.and_then(|i| re[i].as_ref()) else {
            lines.push(format!("| {} | reverse engineering failed |", spec.id));
            continue;
        };
        accuracy.matched += u64::from(o.matches.all());
        lines.push(format!(
            "| {} | {} | {} ({}) | {} ({}) | {} ({}) | {} ({}) | {} ({}) | {} |",
            spec.id,
            spec.trr_version,
            o.profile.trr_ref_ratio,
            spec.trr_to_ref_ratio,
            o.profile.neighbors_refreshed,
            spec.neighbors_refreshed,
            detection_label(&o.profile.detection),
            spec.detection,
            o.profile.per_bank,
            spec.per_bank_trr,
            o.refresh_period,
            spec.refresh().period_refs,
            if o.matches.all() { "✓" } else { "partial" },
        ));
    }
    let config = EvalConfig {
        sample_count: 48,
        windows: 2,
        scaled_rows: Some(2_048),
        registry: Some(Arc::clone(&run_registry)),
        fault_profile: NO_FAULTS.0,
        fault_seed: NO_FAULTS.1,
        ..EvalConfig::quick(48)
    };
    let columns: Vec<(u64, BankSweep)> = par::par_map(&pool, &modules, |spec| {
        let hc = hc_first(t, spec, 2_048, 48, 11, &run_registry, NO_FAULTS);
        (hc, t.time("attacks.sweep", || attack_columns(spec, &config)))
    });
    for (spec, (hc, sweep)) in modules.iter().zip(&columns) {
        lines.push(format!(
            "| {} | {} ({}) | {:.1}% ({:.1}–{:.1}%) | {:.2} ({:.2}–{:.2}) | {} |",
            spec.id,
            hc,
            spec.hc_first,
            sweep.vulnerable_pct(),
            spec.paper_vulnerable_pct.0,
            spec.paper_vulnerable_pct.1,
            sweep.max_flips_per_row_per_hammer(),
            spec.paper_max_flips_per_hammer.0,
            spec.paper_max_flips_per_hammer.1,
            sweep.max_flips_per_dataword(),
        ));
    }
    (lines, vec![run_registry], accuracy)
}

/// The sweep a fleet child with program seed `seed` runs.
fn fleet_config(workload: Workload, seed: u64) -> FleetConfig {
    let hostile = workload == Workload::FleetHostile;
    FleetConfig {
        modules: workload.items(),
        shards: FLEET_SHARDS,
        params: SweepParams {
            fleet_seed: seed,
            base_rows: 2_048,
            hc_samples: 6,
            attack_samples: 6,
            fault_profile: if hostile { FaultProfile::Hostile } else { FaultProfile::None },
            // repro-fleet's --fault-seed defaults to 1.
            fault_seed: if hostile { seed } else { 1 },
        },
    }
}

/// [`utrr_fleet::record::characterize`] with spans around its layer
/// calls; returns the record and the module's private registry.
fn characterize(
    t: &Tracer,
    params: &SweepParams,
    index: u64,
) -> (FleetRecord, Arc<MetricsRegistry>) {
    let synth = synth_spec(params.fleet_seed, index, params.base_rows);
    let spec = &synth.spec;
    let registry = MetricsRegistry::shared();
    let faults = (params.fault_profile, derive_seed(synth.seed ^ params.fault_seed, 5));
    let mut re_attempts = 0;
    let re = loop {
        let re_seed = derive_seed(synth.seed, 2 + 16 * u64::from(re_attempts));
        re_attempts += 1;
        match reverse_engineer(t, spec, synth.rows, re_seed, &registry, faults) {
            Ok(re) => break Some(re),
            Err(_) if re_attempts < RE_ATTEMPTS => registry.counter(CTR_RE_RETRIES).inc(),
            // The binary records this inconclusive under hostile and
            // aborts below it; either way the record comparison decides.
            Err(_) => break None,
        }
    };
    let hc = hc_first(
        t,
        spec,
        synth.rows,
        params.hc_samples,
        derive_seed(synth.seed, 3),
        &registry,
        faults,
    );
    let eval = EvalConfig {
        sample_count: params.attack_samples,
        windows: 1,
        scaled_rows: Some(synth.rows),
        seed: derive_seed(synth.seed, 4),
        registry: Some(Arc::clone(&registry)),
        fault_profile: faults.0,
        fault_seed: faults.1,
        ..EvalConfig::quick(params.attack_samples)
    };
    let sweep = t.time("attacks.sweep", || attack_columns(spec, &eval));
    let counter = |name: &str| registry.counter(name).get();
    let (re_match, ratio, neighbors, detection, per_bank, refresh_period, tier) = match &re {
        Some(re) => (
            re.matches.all(),
            re.profile.trr_ref_ratio,
            re.profile.neighbors_refreshed,
            detection_label(&re.profile.detection),
            re.profile.per_bank,
            re.refresh_period,
            re.tier.clone(),
        ),
        None => (false, 0, 0, "inconclusive".to_string(), false, 0, VerdictTier::Inconclusive),
    };
    let record = FleetRecord {
        index,
        id: spec.id.clone(),
        anchor: synth.anchor_id.clone(),
        vendor: spec.vendor.to_string(),
        trr_version: spec.trr_version.to_string(),
        banks: spec.banks,
        rows: synth.rows,
        seed: synth.seed,
        retention_scale: spec.retention_scale,
        hc_first_gt: spec.hc_first,
        re_match,
        re_attempts,
        ratio,
        neighbors,
        detection,
        per_bank,
        refresh_period,
        hc_first_measured: hc,
        vulnerable_pct: sweep.vulnerable_pct(),
        max_flips_per_hammer: sweep.max_flips_per_row_per_hammer(),
        max_flips_per_word: sweep.max_flips_per_dataword(),
        scout_retries: counter(utrr_core::rowscout::CTR_SCOUT_RETRIES),
        scout_quarantined: counter(utrr_core::rowscout::CTR_SCOUT_QUARANTINED),
        faults_injected: counter(faults::CTR_INJECTED_TOTAL),
        reads_voted: counter(utrr_core::robust::CTR_VOTED_READS),
        read_disagreements: counter(utrr_core::robust::CTR_READ_DISAGREEMENTS),
        write_retries: counter(utrr_core::robust::CTR_WRITE_RETRIES),
        tier: tier.label().to_string(),
        tier_reasons: tier.reasons_string(),
        vote_widenings: counter(utrr_core::recovery::CTR_VOTE_WIDENINGS),
        relocations: counter(utrr_core::recovery::CTR_RELOCATIONS),
        reprofiles: counter(utrr_core::recovery::CTR_REPROFILES),
        budget_trips: counter(utrr_core::recovery::CTR_BUDGET_TRIPS),
    };
    (record, registry)
}

/// `repro-fleet`'s sweep, shard by shard (a `par` barrier per shard),
/// without its file I/O. Returns the `fleet.jsonl` record lines.
fn replay_fleet(t: &Tracer, config: &FleetConfig) -> Replayed {
    let run_registry = utrr_bench::run_registry();
    let pool = utrr_bench::par_config(THREADS, &run_registry);
    let (mut lines, mut programs, mut a) =
        (Vec::new(), vec![Arc::clone(&run_registry)], Accuracy::default());
    for shard in 0..config.effective_shards() {
        let (start, end) = config.shard_range(shard);
        let indices: Vec<u64> = (start..end).collect();
        let done = par::par_map(&pool, &indices, |&i| {
            t.time("fleet.module", || characterize(t, &config.params, i))
        });
        for (record, registry) in done {
            a.modules += 1;
            a.re_runs += 1;
            a.matched += u64::from(record.re_match);
            a.first_try += u64::from(record.re_attempts == 1);
            a.confirmed += u64::from(record.verdict_tier().is_confirmed());
            lines.push(record.to_json_line());
            programs.push(registry);
        }
    }
    (lines, programs, a)
}

/// The configuration `repro-fuzz` builds from the workload's flags.
fn fuzz_config(seed: u64, registry: &Arc<MetricsRegistry>) -> FuzzConfig {
    FuzzConfig {
        seed,
        rounds: FUZZ_ROUNDS,
        candidates: FUZZ_CANDIDATES,
        elites: 4,
        engines: FUZZ_ENGINES.split(',').map(String::from).collect(),
        eval: EvalConfig {
            sample_count: 6,
            windows: 1,
            scaled_rows: Some(1_024),
            registry: Some(Arc::clone(registry)),
            fault_profile: NO_FAULTS.0,
            fault_seed: NO_FAULTS.1,
            ..EvalConfig::quick(6)
        },
    }
}

/// `repro-fuzz`: the whole search under one span (its rounds and
/// sweeps are the program's own `attacks.fuzz.round` and
/// `attacks.eval.sweep` spans). Returns the artifact lines.
fn replay_fuzz(t: &Tracer, seed: u64) -> Result<Replayed, String> {
    let registry = utrr_bench::run_registry();
    let pool = utrr_bench::par_config(THREADS, &registry);
    let config = fuzz_config(seed, &registry);
    let outcome = t.time("attacks.fuzz", || run_fuzz(&config, &pool))?;
    let bypassed = (0..outcome.engines.len()).filter(|&e| outcome.bypassed(e)).count() as u64;
    Ok((
        render_fuzz_jsonl(&config, &outcome).lines().map(String::from).collect(),
        vec![registry],
        Accuracy { bypassed_engines: bypassed, ..Accuracy::default() },
    ))
}

/// One replay of the work of a child with program seed `seed`.
fn replay(t: &Tracer, workload: Workload, seed: u64) -> Result<Replay, String> {
    let start = Instant::now();
    let (lines, programs, accuracy) = match workload {
        Workload::Table1 => replay_table1(t),
        Workload::Fleet | Workload::FleetHostile => replay_fleet(t, &fleet_config(workload, seed)),
        Workload::Fuzz => replay_fuzz(t, seed)?,
    };
    let wall_s = start.elapsed().as_secs_f64();
    Ok(Replay { wall_s, lines, accuracy, program: ProgramStats::collect(&programs) })
}

/// A replay must reproduce its child's outputs and match the first
/// replay's counters exactly.
fn check_replay(
    workload: Workload,
    r: &Replay,
    child: &Output,
    first: Option<&Replay>,
) -> Result<(), String> {
    if r.lines != comparable(workload, child) {
        return Err("replay outputs differ from the untraced child's".into());
    }
    if first.is_some_and(|f| f.program.counters != r.program.counters) {
        return Err("program counters differ between replays".into());
    }
    Ok(())
}

/// The lines of a child's outputs a replay must reproduce.
fn comparable(workload: Workload, out: &Output) -> Vec<String> {
    match workload {
        Workload::Table1 => {
            out.stdout.lines().filter(|l| table1_row_id(l).is_some()).map(String::from).collect()
        }
        // Skip the meta line: it carries sweep parameters, not results.
        Workload::Fleet | Workload::FleetHostile => {
            out.artifact.lines().skip(1).map(String::from).collect()
        }
        Workload::Fuzz => out.artifact.lines().map(String::from).collect(),
    }
}

/// Re-verifies and merges a finished fleet out dir through
/// `executor::run_fleet` with resume — shard I/O and nothing else.
fn fleet_io(t: &Tracer, config: &FleetConfig, dir: &Path, child: &Output) -> Result<(), String> {
    let opts = RunOptions { resume: true, ..RunOptions::new(dir.join("out")) };
    let outcome = t
        .time("fleet.io", || utrr_fleet::executor::run_fleet(config, &opts))
        .map_err(|e| e.to_string())?;
    if outcome.skipped_shards != config.effective_shards() {
        return Err(format!("resume recomputed {} shards", outcome.completed_shards));
    }
    if outcome.merged_hash != Some(content_hash(child.artifact.as_bytes())) {
        return Err("resumed merge differs from the child's fleet.jsonl".into());
    }
    Ok(())
}

/// One traced run of `workload`: kernels, then (child, replay) pairs
/// for about `seconds`. Spans go to `out` (default: the workload's
/// working directory).
///
/// # Errors
///
/// Spawn and I/O failures of the benchmark itself.
pub fn trace(
    ctx: &Context,
    workload: Workload,
    seed: u64,
    seconds: f64,
    out: Option<&Path>,
) -> std::io::Result<(Tally, Vec<Metric>)> {
    let start = Instant::now();
    let mut tally = Tally::default();
    let mut metrics = kernels();
    let tracer = Tracer { registry: Arc::new(MetricsRegistry::new()), epoch: start, run: 0 };
    let dir = ctx.work_dir(workload)?;
    let mut reference: Option<Output> = None;
    let (mut child_walls, mut child_cpus, mut replays) =
        (Vec::new(), Vec::new(), Vec::<Replay>::new());
    let mut longest = 0.0f64;
    for run in 0u64.. {
        if run > 0 && start.elapsed().as_secs_f64() + longest > seconds {
            break;
        }
        let pair_start = Instant::now();
        let t = Tracer { run, ..tracer.clone() };
        let label = format!("child {run}");
        let (child, output) =
            checked_child(ctx, workload, seed, &label, reference.as_ref(), &mut tally)?;
        child_walls.push(child.wall_s);
        child_cpus.push(child.cpu_s);
        let Some(output) = output else { break };
        if matches!(workload, Workload::Fleet | Workload::FleetHostile) {
            let io = fleet_io(&t, &fleet_config(workload, seed), &dir, &output);
            tally.record("fleet resume over the child's out dir", io);
        }
        match replay(&t, workload, seed) {
            Ok(r) => {
                println!("replay {run}: wall {:.3} s (child {:.3} s)", r.wall_s, child.wall_s);
                tally.record(
                    &format!("replay {run}"),
                    check_replay(workload, &r, &output, replays.first()),
                );
                replays.push(r);
            }
            Err(e) => tally.record(&format!("replay {run}"), Err(e)),
        }
        reference.get_or_insert(output);
        longest = longest.max(pair_start.elapsed().as_secs_f64());
    }

    let (spans, evicted) = tracer.registry.spans_snapshot();
    let ring = if evicted == 0 { Ok(()) } else { Err(format!("evicted {evicted} spans")) };
    tally.record("benchmark span ring", ring);
    let spans_path = out.map(Path::to_path_buf).unwrap_or_else(|| dir.join("spans.jsonl"));
    write_spans(&spans_path, workload, &spans)?;
    println!("spans: {} ({} spans)", spans_path.display(), spans.len());
    print_self_times(&spans);
    metrics.extend(layer_metrics(&spans, &replays, &child_walls, &child_cpus));
    Ok((tally, metrics))
}

/// Prints calls, total and self time per benchmark span name.
fn print_self_times(spans: &[SpanRecord]) {
    let self_ns = self_times(spans);
    let mut by_name: BTreeMap<&str, (usize, u64, u64)> = BTreeMap::new();
    for span in spans {
        let entry = by_name.entry(&span.name).or_default();
        *entry = (entry.0 + 1, entry.1 + span.wall_ns, entry.2 + self_ns[&span.id]);
    }
    println!("{:<16} {:>7} {:>12} {:>12}", "span", "calls", "total ms", "self ms");
    for (name, (calls, total, own)) in by_name {
        println!("{name:<16} {calls:>7} {:>12.1} {:>12.1}", total as f64 / 1e6, own as f64 / 1e6);
    }
}

/// Span start and end (ns since the trace run began).
fn interval(span: &SpanRecord) -> (u64, u64) {
    let start = field(span, "start_ns").unwrap_or(0);
    (start, start + span.wall_ns)
}

fn field(span: &SpanRecord, key: &str) -> Option<u64> {
    span.fields.iter().find(|(k, _)| k == key).map(|&(_, v)| v)
}

/// Self time of every span: its duration minus its children's union.
fn self_times(spans: &[SpanRecord]) -> HashMap<u64, u64> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for span in spans {
        if let Some(parent) = span.parent {
            children.entry(parent).or_default().push(interval(span));
        }
    }
    spans
        .iter()
        .map(|s| {
            let (start, end) = interval(s);
            (s.id, self_time(start, end, children.get(&s.id).map_or(&[], Vec::as_slice)))
        })
        .collect()
}

/// Writes the benchmark spans as JSONL: name, workload, replay number,
/// id, parent, start/end and self time in ns since the run began.
fn write_spans(path: &Path, workload: Workload, spans: &[SpanRecord]) -> std::io::Result<()> {
    let self_ns = self_times(spans);
    let mut file = std::io::BufWriter::new(std::fs::File::create(path)?);
    for span in spans {
        let (start, end) = interval(span);
        writeln!(
            file,
            "{{\"name\":{},\"workload\":\"{}\",\"run\":{},\"id\":{},\"parent\":{},\"start_ns\":{start},\"end_ns\":{end},\"self_ns\":{}}}",
            obs::jsonl::quote(&span.name),
            workload.name(),
            field(span, "run").unwrap_or(0),
            span.id,
            span.parent.map_or("null".to_string(), |p| p.to_string()),
            self_ns[&span.id],
        )?;
    }
    file.flush()
}

fn metric(
    name: &'static str,
    value: f64,
    unit: &'static str,
    samples: usize,
    note: impl Into<String>,
) -> Metric {
    Metric { name, value, unit, samples, note: note.into() }
}

/// Median and tail of per-call durations (ms) of spans named `name`.
fn timing(
    spans: &[SpanRecord],
    name: &str,
    median_name: &'static str,
    tail_name: &'static str,
) -> [Metric; 2] {
    let ms: Vec<f64> =
        spans.iter().filter(|s| s.name == name).map(|s| s.wall_ns as f64 / 1e6).collect();
    let (tail_value, level) = tail(&ms);
    [
        metric(median_name, median(&ms), "ms", ms.len(), "median per call"),
        metric(tail_name, tail_value, "ms", ms.len(), format!("{level} per call")),
    ]
}

fn ratio(numerator: u64, denominator: u64) -> f64 {
    if denominator == 0 {
        0.0
    } else {
        numerator as f64 / denominator as f64
    }
}

/// The per-layer metrics of a traced run: timings pooled over every
/// replay, counts from the first (they repeat exactly). Without a
/// replay every metric still appears, as 0.
fn layer_metrics(
    spans: &[SpanRecord],
    replays: &[Replay],
    child_walls: &[f64],
    child_cpus: &[f64],
) -> Vec<Metric> {
    let none = ProgramStats::collect(&[]);
    let (program, accuracy) =
        replays.first().map_or((&none, Accuracy::default()), |r| (&r.program, r.accuracy));
    let count = |name: &str| program.counters.get(name).copied().unwrap_or(0);
    let counter = |metric_name: &'static str, counter_name: &str| {
        metric(metric_name, count(counter_name) as f64, "count", 1, counter_name.to_string())
    };
    let replay_walls: Vec<f64> = replays.iter().map(|r| r.wall_s).collect();
    let first_run: Vec<&SpanRecord> = spans.iter().filter(|s| field(s, "run") == Some(0)).collect();
    let re_runs = first_run.iter().filter(|s| s.name == "core.re").count() as u64;
    let re_sim_s: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == "core.re")
        .filter_map(|s| field(s, "sim_ns"))
        .map(|ns| ns as f64 / 1e9)
        .collect();
    let re_ok =
        first_run.iter().filter(|s| s.name == "core.re" && field(s, "sim_ns").is_some()).count()
            as u64;

    let program_spans = |name: &'static str| {
        replays.iter().flat_map(|r| &r.program.spans).filter(move |s| s.name == name)
    };
    let sweep_ms: Vec<f64> =
        program_spans("attacks.eval.sweep").map(|s| s.wall_ns as f64 / 1e6).collect();
    let round_ms: Vec<f64> =
        program_spans("attacks.fuzz.round").map(|s| s.wall_ns as f64 / 1e6).collect();
    // Every REF interval of a sweep advances simulated time by tREFI.
    let t_refi = Timings::ddr4().t_refi.as_ns() as f64;
    let (sweep_wall, sweep_sim) = program_spans("attacks.eval.sweep")
        .fold((0.0, 0.0), |(w, sim), s| {
            (w + s.wall_ns as f64, sim + (s.sim_end - s.sim_start) as f64)
        });
    let (sweep_tail, sweep_level) = tail(&sweep_ms);

    let task_ns = program.par_task_ns.sum as f64;
    let replay_ns = replay_walls.first().copied().unwrap_or(0.0) * 1e9;
    let waits = &program.par_queue_wait_ns;
    let wait_level = tail_level(waits.count as usize);
    let io_ms: Vec<f64> =
        spans.iter().filter(|s| s.name == "fleet.io").map(|s| s.wall_ns as f64 / 1e6).collect();
    let acts = count(dram_sim::metrics::CTR_ACT);

    let mut out = vec![
        counter("dram-sim.acts", dram_sim::metrics::CTR_ACT),
        counter("dram-sim.refs", dram_sim::metrics::CTR_REF),
        counter("dram-sim.row_reads", dram_sim::metrics::CTR_ROW_READS),
        counter("dram-sim.row_writes", dram_sim::metrics::CTR_ROW_WRITES),
        counter("dram-sim.bit_flips", dram_sim::metrics::CTR_BIT_FLIPS),
        metric(
            "dram-sim.cpu_ns_per_act",
            if acts == 0 { 0.0 } else { median(child_cpus) * 1e9 / acts as f64 },
            "ns",
            child_cpus.len(),
            "untraced child CPU time ÷ simulated ACTs",
        ),
        counter("trr.detections", dram_sim::metrics::CTR_TRR_DETECTIONS),
        counter("trr.row_refreshes", dram_sim::metrics::CTR_TRR_ROW_REFRESHES),
        counter("faults.injected", faults::CTR_INJECTED_TOTAL),
    ];
    out.extend(timing(spans, "core.rowscout", "core.rowscout.ms", "core.rowscout.tail_ms"));
    out.extend(timing(spans, "core.analyzer", "core.analyzer.ms", "core.analyzer.tail_ms"));
    out.extend(timing(spans, "core.schedule", "core.schedule.ms", "core.schedule.tail_ms"));
    out.extend(timing(spans, "core.hc_first", "core.hc_first.ms", "core.hc_first.tail_ms"));
    out.extend([
        counter("core.rowscout.groups_found", "utrr.rowscout.groups_found"),
        counter("core.rowscout.quarantined", utrr_core::rowscout::CTR_SCOUT_QUARANTINED),
        counter("core.rowscout.retries", utrr_core::rowscout::CTR_SCOUT_RETRIES),
        metric(
            "core.analyzer.row_outcomes",
            (count(CTR_NOT_REFRESHED) + count(CTR_REGULAR_REFRESH) + count(CTR_TRR_REFRESH)) as f64,
            "count",
            1,
            "utrr.outcome.* (rows judged across all experiments)",
        ),
        metric("core.re.attempts", re_runs as f64, "count", 1, "core.re spans"),
        metric(
            "core.re.useful_share",
            ratio(re_ok, re_runs),
            "fraction",
            re_runs as usize,
            "successful ÷ attempted",
        ),
        metric(
            "core.re.sim_s",
            median(&re_sim_s),
            "s",
            re_sim_s.len(),
            "median simulated time per successful suite",
        ),
        metric(
            "core.re.match_rate",
            ratio(accuracy.matched, accuracy.modules),
            "fraction",
            accuracy.modules as usize,
            "modules matching ground truth",
        ),
        metric(
            "core.re.first_try_rate",
            ratio(accuracy.first_try, accuracy.re_runs),
            "fraction",
            accuracy.re_runs as usize,
            "suites that succeeded on the first seed",
        ),
        metric(
            "core.verdict.confirmed_share",
            ratio(accuracy.confirmed, accuracy.re_runs),
            "fraction",
            accuracy.re_runs as usize,
            "confirmed verdict tier",
        ),
        counter("core.robust.voted_reads", utrr_core::robust::CTR_VOTED_READS),
        counter("core.robust.read_disagreements", utrr_core::robust::CTR_READ_DISAGREEMENTS),
        counter("core.recovery.vote_widenings", utrr_core::recovery::CTR_VOTE_WIDENINGS),
        counter("core.recovery.relocations", utrr_core::recovery::CTR_RELOCATIONS),
        counter("core.recovery.reprofiles", utrr_core::recovery::CTR_REPROFILES),
        counter("core.recovery.budget_trips", utrr_core::recovery::CTR_BUDGET_TRIPS),
        metric(
            "attacks.sweep.ms",
            median(&sweep_ms),
            "ms",
            sweep_ms.len(),
            "median per sweep_bank",
        ),
        metric(
            "attacks.sweep.tail_ms",
            sweep_tail,
            "ms",
            sweep_ms.len(),
            format!("{sweep_level} per sweep_bank"),
        ),
        metric(
            "attacks.sweep.ns_per_interval",
            if sweep_sim == 0.0 { 0.0 } else { sweep_wall * t_refi / sweep_sim },
            "ns",
            sweep_ms.len(),
            "sweep wall ÷ REF intervals swept",
        ),
        counter("attacks.fuzz.evals", attacks::fuzz::CTR_FUZZ_EVALS),
        metric(
            "attacks.fuzz.round_ms",
            median(&round_ms),
            "ms",
            round_ms.len(),
            "median per round",
        ),
        metric(
            "attacks.fuzz.bypassed_engines",
            accuracy.bypassed_engines as f64,
            "count",
            1,
            "leaders with flips",
        ),
    ]);
    out.extend(timing(spans, "fleet.module", "fleet.module_ms", "fleet.module_tail_ms"));
    out.extend([
        metric(
            "fleet.io_ms",
            median(&io_ms),
            "ms",
            io_ms.len(),
            "median resume-and-merge of a finished out dir",
        ),
        metric(
            "par.busy_share",
            if replay_ns == 0.0 { 0.0 } else { task_ns / (THREADS as f64 * replay_ns) },
            "fraction",
            program.par_task_ns.count as usize,
            "Σ par.task_ns ÷ (threads × replay wall)",
        ),
        metric(
            "par.queue_wait_ms",
            waits.quantile(0.5).unwrap_or(0) as f64 / 1e6,
            "ms",
            waits.count as usize,
            "p50 of par.queue_wait_ns (log₂ bins)",
        ),
        metric(
            "par.queue_wait_tail_ms",
            waits.quantile(wait_level.unwrap_or(1.0)).unwrap_or(0) as f64 / 1e6,
            "ms",
            waits.count as usize,
            wait_level.map_or("max".to_string(), |p| format!("p{}", p * 100.0)),
        ),
        metric(
            "par.tail_ms",
            ((replay_ns - task_ns / THREADS as f64) / 1e6).max(0.0),
            "ms",
            1,
            "replay wall − Σ par.task_ns ÷ threads",
        ),
        metric(
            "obs.trace_overhead_pct",
            if replay_walls.is_empty() {
                0.0
            } else {
                (median(&replay_walls) / median(child_walls) - 1.0) * 100.0
            },
            "%",
            replay_walls.len(),
            "traced in-process replay wall ÷ untraced child wall − 1 (medians)",
        ),
    ]);
    out
}

/// Rows the hammer and read kernels cycle through (as in
/// `utrr_bench::device_ns_per_act`).
const KERNEL_ROWS: u32 = 64;

/// ns per call of `iters` calls.
fn ns_per_call(iters: u32, call: &mut impl FnMut(u32)) -> f64 {
    let start = Instant::now();
    for i in 0..iters {
        call(i);
    }
    start.elapsed().as_nanos() as f64 / f64::from(iters)
}

/// Paired repetitions per layer kernel.
const KERNEL_REPS: usize = 7;

/// What a layer adds per call: the median over [`KERNEL_REPS`] paired
/// repetitions of `with` minus `without`, alternated so drift in the
/// host affects both alike.
fn layer_ns(iters: u32, mut with: impl FnMut(u32), mut without: impl FnMut(u32)) -> f64 {
    let diffs: Vec<f64> = (0..KERNEL_REPS)
        .map(|_| ns_per_call(iters, &mut with) - ns_per_call(iters, &mut without))
        .collect();
    median(&diffs)
}

fn hammer(module: &mut Module) -> impl FnMut(u32) + '_ {
    |i| module.hammer(Bank::new(0), RowAddr::new(i % KERNEL_ROWS), 1).expect("kernel hammer")
}

fn refresh(module: &mut Module) -> impl FnMut(u32) + '_ {
    // A scattering of touched rows, as in `utrr_bench::refs_per_sec`.
    for r in (0..module.geometry().rows_per_bank).step_by(97) {
        module.hammer(Bank::new(0), RowAddr::new(r), 1).expect("kernel hammer");
    }
    |_| module.refresh()
}

fn read(mc: &mut MemoryController) -> impl FnMut(u32) + '_ {
    for r in 0..KERNEL_ROWS {
        mc.write_row(Bank::new(0), RowAddr::new(r), DataPattern::Ones).expect("kernel write");
    }
    |i| {
        black_box(mc.read_row(Bank::new(0), RowAddr::new(i % KERNEL_ROWS)).expect("kernel read"));
    }
}

/// Per-layer kernels. `dram-sim` reports the `utrr_bench`
/// micro-benchmarks; every other layer reports its kernel minus the
/// same kernel without that layer.
fn kernels() -> Vec<Metric> {
    let small = || Module::new(ModuleConfig::small_test(), 11);
    let layer = |name, value, note: &str| metric(name, value, "ns", KERNEL_REPS, note);
    let mut out = vec![
        metric(
            "dram-sim.hammer_ns",
            utrr_bench::device_ns_per_act(),
            "ns",
            1,
            "utrr_bench::device_ns_per_act",
        ),
        metric(
            "dram-sim.refresh_ns",
            1e9 / utrr_bench::refs_per_sec(),
            "ns",
            1,
            "1 ÷ utrr_bench::refs_per_sec",
        ),
        metric(
            "dram-sim.read_row_ns",
            utrr_bench::weak_scan_ns_per_row(),
            "ns",
            1,
            "utrr_bench::weak_scan_ns_per_row",
        ),
    ];
    let engines = [
        ("A5", "trr.counter.hammer_ns", "trr.counter.refresh_ns"),
        ("B8", "trr.sampler.hammer_ns", "trr.sampler.refresh_ns"),
        ("C7", "trr.window.hammer_ns", "trr.window.refresh_ns"),
    ];
    for (id, hammer_name, refresh_name) in engines {
        let mut with = by_id(id).expect("a catalog module").build_scaled(2_048, 11);
        let mut without = Module::new(with.config().clone(), 11);
        let note = format!("{id}'s engine minus the same module unmitigated");
        out.push(layer(
            hammer_name,
            layer_ns(100_000, hammer(&mut with), hammer(&mut without)),
            &note,
        ));
        out.push(layer(
            refresh_name,
            layer_ns(100_000, refresh(&mut with), refresh(&mut without)),
            &note,
        ));
    }
    let (mut plain, mut mc) = (small(), MemoryController::new(small()));
    let controller_hammer = |i| {
        mc.hammer(Bank::new(0), &HammerSpec::single_sided(RowAddr::new(i % KERNEL_ROWS), 1))
            .expect("kernel hammer");
    };
    out.push(layer(
        "softmc.hammer_ns",
        layer_ns(100_000, controller_hammer, hammer(&mut plain)),
        "controller minus module",
    ));
    for r in 0..KERNEL_ROWS {
        plain.write_row(Bank::new(0), RowAddr::new(r), DataPattern::Ones).expect("kernel write");
    }
    let module_read = |i| {
        black_box(
            plain.read_row(Bank::new(0), RowAddr::new(i % KERNEL_ROWS)).expect("kernel read"),
        );
    };
    out.push(layer(
        "softmc.read_row_ns",
        layer_ns(20_000, read(&mut mc), module_read),
        "controller minus module",
    ));
    let mut hostile = MemoryController::new(small());
    faults::install(&mut hostile, FaultProfile::Hostile, 1);
    let injected = layer_ns(20_000, read(&mut hostile), read(&mut mc));
    out.push(layer("faults.read_row_ns", injected, "hostile injector minus fault-free controller"));
    let (mut observed, mut private) = (small(), small());
    observed.attach_registry(MetricsRegistry::shared());
    let registry = layer_ns(100_000, hammer(&mut observed), hammer(&mut private));
    out.push(layer(
        "obs.registry_hammer_ns",
        registry,
        "shared detail registry minus the private one",
    ));
    out
}
