//! Human-readable end-of-run summary, printed by the bench binaries
//! alongside the JSONL artifact.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::metrics::MetricsRegistry;

/// Renders counters, histograms, and per-span-name aggregates as an
/// aligned plain-text table. Empty sections are omitted; an empty
/// registry renders an explicit placeholder.
pub fn render_summary(registry: &MetricsRegistry) -> String {
    let mut out = String::new();
    let counters = registry.counters_snapshot();
    let gauges = registry.gauges_snapshot();
    let histograms: Vec<_> = registry
        .histograms_snapshot()
        .into_iter()
        .filter(|(_, snapshot)| snapshot.count > 0)
        .collect();
    let (spans, evicted) = registry.spans_snapshot();
    let (events, dropped) = registry.events_snapshot();

    if counters.is_empty() && gauges.is_empty() && histograms.is_empty() && spans.is_empty() {
        return "metrics: (none recorded)\n".to_string();
    }

    let name_width = counters
        .iter()
        .map(|(name, _)| name.len())
        .chain(gauges.iter().map(|(name, _)| name.len()))
        .chain(histograms.iter().map(|(name, _)| name.len()))
        .max()
        .unwrap_or(0)
        .max(12);

    if !counters.is_empty() {
        let _ = writeln!(out, "counters");
        for (name, value) in &counters {
            let _ = writeln!(out, "  {name:<name_width$} {value:>14}");
        }
    }
    if !gauges.is_empty() {
        let _ = writeln!(out, "gauges");
        for (name, value) in &gauges {
            let _ = writeln!(out, "  {name:<name_width$} {value:>14}");
        }
    }
    if !histograms.is_empty() {
        let _ = writeln!(
            out,
            "histograms ({:<width$}  {:>10} {:>12} {:>12} {:>12})",
            "name",
            "count",
            "p50",
            "p99",
            "max",
            width = name_width.saturating_sub(1),
        );
        for (name, snapshot) in &histograms {
            let _ = writeln!(
                out,
                "  {name:<name_width$} {:>10} {:>12} {:>12} {:>12}",
                snapshot.count,
                snapshot.quantile(0.50).unwrap_or(0),
                snapshot.quantile(0.99).unwrap_or(0),
                snapshot.max,
            );
        }
    }

    if !spans.is_empty() {
        // Aggregate by span name: count, total wall time, total sim time.
        let mut by_name: BTreeMap<&str, (u64, u64, u64)> = BTreeMap::new();
        for span in &spans {
            let entry = by_name.entry(span.name.as_str()).or_default();
            entry.0 += 1;
            entry.1 += span.wall_ns;
            entry.2 += span.sim_end.saturating_sub(span.sim_start);
        }
        let span_width = by_name.keys().map(|name| name.len()).max().unwrap_or(0).max(12);
        let _ = writeln!(
            out,
            "spans      ({:<width$}  {:>10} {:>12} {:>14})",
            "name",
            "count",
            "wall_ms",
            "sim_ms",
            width = span_width.saturating_sub(1),
        );
        for (name, (count, wall_ns, sim_ns)) in &by_name {
            let _ = writeln!(
                out,
                "  {name:<span_width$} {count:>10} {:>12.3} {:>14.3}",
                *wall_ns as f64 / 1e6,
                *sim_ns as f64 / 1e6,
            );
        }
        if evicted > 0 {
            let _ = writeln!(out, "  (ring evicted {evicted} older spans)");
        }
    }

    // Fault-injection vs recovery, paired in one place: the injected.*
    // counters say what the fault layer did to the run, the recovery
    // counters say what the robustness layers absorbed. Both already
    // appear in the raw counter list, but only side by side does the
    // balance read at a glance.
    let injected: Vec<_> =
        counters.iter().filter(|(name, _)| name.starts_with("faults.injected.")).collect();
    let recovery: Vec<_> = counters
        .iter()
        .filter(|(name, _)| {
            name.starts_with("utrr.robust.")
                || name == "utrr.rowscout.retries"
                || name == "utrr.rowscout.quarantined"
                || name == "utrr.schedule.retries"
        })
        .collect();
    if injected.iter().any(|(_, v)| *v > 0) || recovery.iter().any(|(_, v)| *v > 0) {
        let _ = writeln!(out, "faults (injected vs recovered)");
        for (name, value) in &injected {
            let _ = writeln!(out, "  inject   {name:<name_width$} {value:>14}");
        }
        for (name, value) in &recovery {
            let _ = writeln!(out, "  recover  {name:<name_width$} {value:>14}");
        }
    }

    // The adaptive recovery ladder gets its own section: these counters
    // (vote widenings, relocations, re-profiles, budget trips) say how
    // hard the pipeline had to fight to produce its verdict. Quiet
    // ladders render nothing, so sub-hostile summaries are unchanged.
    let ladder: Vec<_> =
        counters.iter().filter(|(name, _)| name.starts_with("utrr.recovery.")).collect();
    if ladder.iter().any(|(_, v)| *v > 0) {
        let _ = writeln!(out, "recovery ladder");
        for (name, value) in &ladder {
            let _ = writeln!(out, "  {name:<name_width$} {value:>14}");
        }
    }

    // The bypass fuzzer's search balance: candidates drawn, candidate ×
    // engine evaluations, bypasses found, and how many candidates were
    // elite mutations rather than fresh samples. The hit rate is the
    // line that matters when tuning the sampling envelopes. Runs
    // without a fuzz phase render nothing.
    let fuzz: Vec<_> =
        counters.iter().filter(|(name, _)| name.starts_with("attacks.fuzz.")).collect();
    if fuzz.iter().any(|(_, v)| *v > 0) {
        let _ = writeln!(out, "fuzz search");
        for (name, value) in &fuzz {
            let _ = writeln!(out, "  {name:<name_width$} {value:>14}");
        }
        let get = |suffix: &str| {
            fuzz.iter().find(|(name, _)| name == &format!("attacks.fuzz.{suffix}")).map(|(_, v)| *v)
        };
        if let (Some(evals), Some(bypasses)) = (get("evals"), get("bypasses")) {
            if evals > 0 {
                let _ = writeln!(
                    out,
                    "  {:<name_width$} {:>13.1}%",
                    "bypass hit rate",
                    100.0 * bypasses as f64 / evals as f64,
                );
            }
        }
    }

    if !events.is_empty() || dropped > 0 {
        let mut by_kind: BTreeMap<&str, u64> = BTreeMap::new();
        for event in &events {
            *by_kind.entry(event.kind).or_default() += 1;
        }
        let _ = writeln!(out, "events");
        for (kind, count) in &by_kind {
            let _ = writeln!(out, "  {kind:<name_width$} {count:>14}");
        }
        if dropped > 0 {
            let _ = writeln!(out, "  (buffer dropped {dropped} events)");
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn empty_registry_renders_placeholder() {
        assert_eq!(render_summary(&MetricsRegistry::new()), "metrics: (none recorded)\n");
    }

    #[test]
    fn fault_and_recovery_counters_get_a_paired_section() {
        let registry = MetricsRegistry::new();
        registry.counter("faults.injected.total").add(7);
        registry.counter("faults.injected.read_flips").add(4);
        registry.counter("utrr.robust.read_disagreements").add(3);
        registry.counter("utrr.schedule.retries").add(1);
        let summary = render_summary(&registry);
        assert!(summary.contains("faults (injected vs recovered)"), "missing section:\n{summary}");
        assert!(summary.contains("inject   faults.injected.read_flips"), "{summary}");
        assert!(summary.contains("recover  utrr.robust.read_disagreements"), "{summary}");
        assert!(summary.contains("recover  utrr.schedule.retries"), "{summary}");
    }

    #[test]
    fn recovery_ladder_counters_get_their_own_section() {
        let registry = MetricsRegistry::new();
        registry.counter("utrr.recovery.vote_widenings").add(2);
        registry.counter("utrr.recovery.budget_trips").add(1);
        let summary = render_summary(&registry);
        assert!(summary.contains("recovery ladder"), "missing section:\n{summary}");
        assert!(summary.contains("utrr.recovery.vote_widenings"), "{summary}");
    }

    #[test]
    fn quiet_ladder_renders_no_section() {
        let registry = MetricsRegistry::new();
        registry.counter("utrr.recovery.vote_widenings");
        registry.counter("dram.cmd.act").add(1);
        assert!(!render_summary(&registry).contains("recovery ladder"));
    }

    #[test]
    fn fuzz_counters_get_a_section_with_hit_rate() {
        let registry = MetricsRegistry::new();
        registry.counter("attacks.fuzz.candidates").add(64);
        registry.counter("attacks.fuzz.evals").add(192);
        registry.counter("attacks.fuzz.bypasses").add(6);
        registry.counter("attacks.fuzz.mutations").add(8);
        let summary = render_summary(&registry);
        assert!(summary.contains("fuzz search"), "missing section:\n{summary}");
        assert!(summary.contains("attacks.fuzz.bypasses"), "{summary}");
        assert!(summary.contains("bypass hit rate"), "{summary}");
        assert!(summary.contains("3.1%"), "6/192 should render as 3.1%:\n{summary}");
    }

    #[test]
    fn quiet_fuzzer_renders_no_section() {
        let registry = MetricsRegistry::new();
        registry.counter("attacks.fuzz.candidates");
        registry.counter("dram.cmd.act").add(1);
        assert!(!render_summary(&registry).contains("fuzz search"));
    }

    #[test]
    fn fault_section_absent_when_all_zero() {
        let registry = MetricsRegistry::new();
        registry.counter("faults.injected.total");
        registry.counter("dram.cmd.act").add(1);
        let summary = render_summary(&registry);
        assert!(!summary.contains("faults (injected vs recovered)"), "{summary}");
    }

    #[test]
    fn summary_lists_every_section() {
        let registry = Arc::new(MetricsRegistry::new());
        registry.set_detail(true);
        registry.counter("dram.cmd.act").add(9);
        registry.gauge("live").set(2);
        registry.histogram("lat").record(100);
        registry.span("pass", 0).finish(1_000_000);
        registry.event("dram.bit_flip", 5, &[("row", 1)]);
        let summary = render_summary(&registry);
        for needle in [
            "counters",
            "dram.cmd.act",
            "gauges",
            "histograms",
            "lat",
            "spans",
            "pass",
            "events",
            "dram.bit_flip",
        ] {
            assert!(summary.contains(needle), "missing {needle} in:\n{summary}");
        }
    }
}
