//! The §7 evaluation harness: run a pattern over sampled victim
//! positions of one bank and report the paper's metrics.
//!
//! Scale note (DESIGN.md §3): the paper sweeps whole 32K–64K-row banks;
//! this harness samples victim positions evenly across the bank, which
//! is unbiased for the percentage metrics, and supports scaled-down bank
//! builds for quick runs. Full-bank sweeps are a matter of passing every
//! position.

use std::sync::Arc;

use dram_sim::{Bank, DataPattern, Module, PhysRow};
use obs::MetricsRegistry;
use softmc::MemoryController;
use utrr_modules::ModuleSpec;

use crate::pattern::{AccessPattern, PatternTarget};

/// Evaluation parameters.
#[derive(Debug, Clone)]
pub struct EvalConfig {
    /// Bank under attack.
    pub bank: Bank,
    /// Victim regular-refresh windows to run per position (the paper
    /// runs each pattern "for a fixed interval of time").
    pub windows: u32,
    /// Pattern written into the victim rows.
    pub victim_pattern: DataPattern,
    /// Explicit victim positions; when empty, `sample_count` positions
    /// are spread evenly across the bank.
    pub positions: Vec<PhysRow>,
    /// Number of sampled positions when `positions` is empty.
    pub sample_count: u32,
    /// Rows per bank for module builds from a spec (`None` = the full
    /// Table-1 geometry).
    pub scaled_rows: Option<u32>,
    /// Seed for module builds from a spec.
    pub seed: u64,
    /// Metrics registry attached to the swept module, so sweeps running
    /// on internally built modules still land in one run artifact.
    /// `None` leaves the module's private registry in place.
    pub registry: Option<Arc<MetricsRegistry>>,
    /// Fault profile installed into the sweep's controller.
    /// [`faults::FaultProfile::None`] installs nothing at all, keeping
    /// the sweep bit-identical to a build without the fault layer.
    pub fault_profile: faults::FaultProfile,
    /// Seed for the deterministic fault plan (ignored under
    /// [`faults::FaultProfile::None`]).
    pub fault_seed: u64,
}

// The registry is plumbing, not an evaluation parameter: two configs
// that differ only in instrumentation describe the same sweep.
impl PartialEq for EvalConfig {
    fn eq(&self, other: &Self) -> bool {
        self.bank == other.bank
            && self.windows == other.windows
            && self.victim_pattern == other.victim_pattern
            && self.positions == other.positions
            && self.sample_count == other.sample_count
            && self.scaled_rows == other.scaled_rows
            && self.seed == other.seed
            && self.fault_profile == other.fault_profile
            && self.fault_seed == other.fault_seed
    }
}

impl EvalConfig {
    /// A fast, statistically sampled configuration.
    pub fn quick(sample_count: u32) -> Self {
        EvalConfig {
            bank: Bank::new(0),
            windows: 2,
            victim_pattern: DataPattern::RowStripe,
            positions: Vec::new(),
            sample_count,
            scaled_rows: Some(2_048),
            seed: 77,
            registry: None,
            fault_profile: faults::FaultProfile::None,
            fault_seed: 0,
        }
    }
}

/// Outcome for one victim position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PositionResult {
    /// The victim's physical position.
    pub victim: PhysRow,
    /// Total bit flips observed in the victim row.
    pub flips: u32,
    /// `(flips in dataword, number of such 8-byte datawords)` for the
    /// victim row — the Fig. 10 ingredient.
    pub dataword_hist: Vec<(u32, u32)>,
}

/// A pattern's results over a set of victim positions in one bank.
#[derive(Debug, Clone, PartialEq)]
pub struct BankSweep {
    /// Pattern identifier.
    pub pattern: String,
    /// Average hammers per aggressor per `REF` (Fig. 8 x-axis).
    pub hammers_per_aggressor_per_ref: f64,
    /// Per-position outcomes.
    pub results: Vec<PositionResult>,
}

impl BankSweep {
    /// Percentage of tested rows with at least one bit flip (Fig. 9).
    pub fn vulnerable_pct(&self) -> f64 {
        if self.results.is_empty() {
            return 0.0;
        }
        let vulnerable = self.results.iter().filter(|r| r.flips > 0).count();
        100.0 * vulnerable as f64 / self.results.len() as f64
    }

    /// The highest flip count observed in any row.
    pub fn max_flips_per_row(&self) -> u32 {
        self.results.iter().map(|r| r.flips).max().unwrap_or(0)
    }

    /// Table 1's "Max. Bit Flips per Row per Hammer": the per-row flip
    /// maximum normalized by the per-aggressor hammer rate.
    pub fn max_flips_per_row_per_hammer(&self) -> f64 {
        if self.hammers_per_aggressor_per_ref == 0.0 {
            return 0.0;
        }
        self.max_flips_per_row() as f64 / self.hammers_per_aggressor_per_ref
    }

    /// Five-number summary of flips per row — the Fig. 8 box plot
    /// ingredients `(min, q1, median, q3, max)`.
    pub fn flip_quartiles(&self) -> (u32, u32, u32, u32, u32) {
        let mut flips: Vec<u32> = self.results.iter().map(|r| r.flips).collect();
        if flips.is_empty() {
            return (0, 0, 0, 0, 0);
        }
        flips.sort_unstable();
        let q = |f: f64| flips[((flips.len() - 1) as f64 * f) as usize];
        (flips[0], q(0.25), q(0.5), q(0.75), flips[flips.len() - 1])
    }

    /// Aggregated Fig. 10 histogram: how many 8-byte datawords (across
    /// all tested rows) contain exactly `k` bit flips, for `k ≥ 1`.
    pub fn dataword_histogram(&self) -> Vec<(u32, u64)> {
        let mut hist: std::collections::BTreeMap<u32, u64> = std::collections::BTreeMap::new();
        for r in &self.results {
            for &(k, n) in &r.dataword_hist {
                *hist.entry(k).or_default() += n as u64;
            }
        }
        hist.into_iter().collect()
    }

    /// The largest number of flips observed in a single 8-byte dataword
    /// (the paper finds up to 7 — §7.4).
    pub fn max_flips_per_dataword(&self) -> u32 {
        self.dataword_histogram().last().map(|&(k, _)| k).unwrap_or(0)
    }
}

/// Runs `pattern` against one victim position for
/// `windows × period_refs` `REF` intervals and reads the victim back.
pub(crate) fn evaluate_position(
    mc: &mut MemoryController,
    pattern: &dyn AccessPattern,
    config: &EvalConfig,
    victim_phys: PhysRow,
) -> PositionResult {
    let target = PatternTarget::for_victim(mc, config.bank, victim_phys);
    if target.aggressors.is_empty() {
        return PositionResult { victim: victim_phys, flips: 0, dataword_hist: Vec::new() };
    }
    // Initialize the victim with the evaluation pattern and its
    // adjacent aggressors with the coupling-maximizing row stripe.
    mc.write_row(config.bank, target.victim, config.victim_pattern.clone())
        .expect("victim address is in range");
    for &aggressor in &target.aggressors {
        mc.write_row(config.bank, aggressor, DataPattern::RowStripe)
            .expect("aggressor address is in range");
    }

    let timings = mc.module().timings();
    let period = mc.module().config().refresh.period_refs as u64;
    let intervals = period * config.windows as u64;
    let layout = pattern.layout(mc, &target);
    let mut slots = Vec::new();
    for _ in 0..intervals {
        let started = mc.now();
        let interval = mc.module().ref_count();
        slots.clear();
        pattern.schedule(&layout, interval, &mut slots);
        mc.module_mut()
            .hammer_batch(config.bank, &slots)
            .expect("patterns stay within protocol rules");
        mc.module_mut().refresh();
        let elapsed = mc.now() - started;
        mc.module_mut().advance(timings.t_refi.saturating_sub(elapsed));
        // The interval loop drives the module directly for timing
        // control, so the environment (drift, VRT bursts) must be
        // ticked explicitly; a no-op without a fault injector.
        mc.tick_environment();
    }

    read_back(mc, &target, victim_phys)
}

/// Reads the victim back and scores it: bit flips against the module's
/// weak-cell ground truth plus the per-8-byte-dataword flip histogram
/// (§7.2–§7.4 metrics). Emits the `read_check` trace event so flight
/// recordings keep their provenance chain.
fn read_back(
    mc: &mut MemoryController,
    target: &PatternTarget,
    victim_phys: PhysRow,
) -> PositionResult {
    let readout = mc.read_row(target.bank, target.victim).expect("victim address is in range");
    mc.registry().trace(
        obs::TraceKind::ReadCheck,
        mc.now().as_ns(),
        u32::from(target.bank.index()),
        Some(victim_phys.index()),
        &[("flips", readout.flip_count() as u64)],
        if readout.is_clean() { "clean" } else { "flipped" },
    );
    let mut hist: std::collections::BTreeMap<u32, u32> = std::collections::BTreeMap::new();
    for (_, k) in readout.flips_per_dataword() {
        *hist.entry(k).or_default() += 1;
    }
    PositionResult {
        victim: victim_phys,
        flips: readout.flip_count() as u32,
        dataword_hist: hist.into_iter().collect(),
    }
}

/// Runs a sweep over a module built from its Table-1 spec.
pub fn sweep_bank(
    spec: &ModuleSpec,
    pattern: &dyn AccessPattern,
    config: &EvalConfig,
) -> BankSweep {
    let rows = config.scaled_rows.unwrap_or_else(|| spec.rows_per_bank());
    let module = spec.build_scaled(rows, config.seed);
    sweep_bank_module(module, pattern, config)
}

/// Runs a sweep over an already-built module.
///
/// When [`EvalConfig::registry`] is set it is attached to the module
/// first, and the sweep runs under an `attacks.eval.sweep` span.
pub fn sweep_bank_module(
    mut module: Module,
    pattern: &dyn AccessPattern,
    config: &EvalConfig,
) -> BankSweep {
    if let Some(registry) = &config.registry {
        module.attach_registry(Arc::clone(registry));
    }
    let mut mc = MemoryController::new(module);
    faults::install(&mut mc, config.fault_profile, config.fault_seed);
    let positions: Vec<PhysRow> = if config.positions.is_empty() {
        sample_positions(mc.module().geometry().rows_per_bank, config.sample_count)
    } else {
        config.positions.clone()
    };
    let registry = Arc::clone(mc.registry());
    let span = obs::span!(
        registry,
        "attacks.eval.sweep",
        mc.now().as_ns(),
        positions = positions.len() as u64,
        windows = config.windows as u64
    );
    let results: Vec<PositionResult> = positions
        .into_iter()
        .map(|victim| {
            let result = evaluate_position(&mut mc, pattern, config, victim);
            // Per-position verdict citing the victim-adjacent events
            // (ACTs, TRR detections, the final read_check) as evidence.
            if registry.tracing_enabled() {
                let evidence = registry
                    .recorder()
                    .map(|r| r.evidence_for_row(victim.index(), 32))
                    .unwrap_or_default();
                registry.trace_with_evidence(
                    obs::TraceKind::Verdict,
                    mc.now().as_ns(),
                    u32::from(config.bank.index()),
                    Some(victim.index()),
                    &[("flips", u64::from(result.flips))],
                    if result.flips > 0 { "vulnerable" } else { "clean" },
                    &evidence,
                );
            }
            result
        })
        .collect();
    span.finish(mc.now().as_ns());
    BankSweep {
        pattern: pattern.name().to_string(),
        hammers_per_aggressor_per_ref: pattern.hammers_per_aggressor_per_ref(),
        results,
    }
}

/// Evenly spread `count` victim positions across the bank, away from the
/// edge rows (and alternating even/odd so paired organizations are
/// covered on both sides).
fn sample_positions(rows_per_bank: u32, count: u32) -> Vec<PhysRow> {
    let count = count.clamp(1, (rows_per_bank / 8).max(1));
    // An even stride keeps the `i % 2` term controlling the parity.
    let stride = ((rows_per_bank.saturating_sub(16) / count) & !1).max(2);
    let margin = if rows_per_bank > 16 { 8 } else { 1 };
    (0..count)
        .map(|i| PhysRow::new((margin + i * stride + (i % 2)).min(rows_per_bank - 1)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baseline::DoubleSided;
    use dram_sim::ModuleConfig;

    #[test]
    fn sample_positions_spread_and_alternate_parity() {
        let p = sample_positions(2048, 16);
        assert_eq!(p.len(), 16);
        assert!(p[0].index() >= 8);
        assert!(p.last().unwrap().index() < 2048);
        assert!(p.iter().any(|r| r.index() % 2 == 0));
        assert!(p.iter().any(|r| r.index() % 2 == 1));
        for w in p.windows(2) {
            assert!(w[1].index() > w[0].index() + 8);
        }
    }

    #[test]
    fn evaluate_position_counts_flips_and_datawords() {
        let module = Module::new(ModuleConfig::small_test(), 9);
        let mut mc = MemoryController::new(module);
        let config = EvalConfig::quick(1);
        let result =
            evaluate_position(&mut mc, &DoubleSided::max_rate(), &config, PhysRow::new(400));
        assert!(result.flips > 0, "unprotected module must flip");
        let hist_total: u32 = result.dataword_hist.iter().map(|&(_, n)| n).sum();
        assert!(hist_total > 0);
        let flips_from_hist: u32 = result.dataword_hist.iter().map(|&(k, n)| k * n).sum();
        assert_eq!(flips_from_hist, result.flips, "histogram accounts for every flip");
    }

    #[test]
    fn sweep_metrics_are_consistent() {
        let module = Module::new(ModuleConfig::small_test(), 9);
        let config = EvalConfig { sample_count: 6, ..EvalConfig::quick(6) };
        let sweep = sweep_bank_module(module, &DoubleSided::max_rate(), &config);
        assert_eq!(sweep.results.len(), 6);
        assert!(sweep.vulnerable_pct() > 99.0);
        let (min, q1, median, q3, max) = sweep.flip_quartiles();
        assert!(min <= q1 && q1 <= median && median <= q3 && q3 <= max);
        assert_eq!(sweep.max_flips_per_row(), max);
        assert!(sweep.max_flips_per_dataword() >= 1);
        assert!(sweep.max_flips_per_row_per_hammer() > 0.0);
    }

    #[test]
    fn fault_profile_flows_into_the_sweep() {
        let registry = obs::MetricsRegistry::shared();
        let config = EvalConfig {
            sample_count: 4,
            registry: Some(Arc::clone(&registry)),
            fault_profile: faults::FaultProfile::Hostile,
            fault_seed: 3,
            ..EvalConfig::quick(4)
        };
        let module = Module::new(ModuleConfig::small_test(), 9);
        let sweep = sweep_bank_module(module, &DoubleSided::max_rate(), &config);
        assert_eq!(sweep.results.len(), 4);
        assert!(
            registry.counter(faults::CTR_INJECTED_TOTAL).get() > 0,
            "a hostile sweep must inject faults"
        );
    }

    #[test]
    fn empty_sweep_is_well_behaved() {
        let sweep = BankSweep {
            pattern: "none".into(),
            hammers_per_aggressor_per_ref: 0.0,
            results: Vec::new(),
        };
        assert_eq!(sweep.vulnerable_pct(), 0.0);
        assert_eq!(sweep.flip_quartiles(), (0, 0, 0, 0, 0));
        assert_eq!(sweep.max_flips_per_row_per_hammer(), 0.0);
        assert!(sweep.dataword_histogram().is_empty());
    }
}
