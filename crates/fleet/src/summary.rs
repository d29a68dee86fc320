//! Fleet-report aggregation: turns a `utrr-fleet/1` stream back into a
//! Table-1-style population view.
//!
//! Per TRR variant the summary tracks the population share, the
//! reverse-engineering match rate, and a log₂-binned histogram of the
//! *measured* `HC_first`; variant histograms are merged via
//! [`HistogramSnapshot::merge`] into the fleet-wide distribution, so
//! quantiles come from one pass over the stream regardless of how many
//! shards produced it. Recovery counters (scout retries, quarantined
//! rows, injected faults) are totalled fleet-wide and the noisiest
//! modules are called out, making `--faults mild` sweeps auditable from
//! the report alone.

use obs::jsonl::parse_jsonl;
use obs::metrics::{Histogram, HistogramSnapshot};
use utrr_bench::RE_FAILED;

use crate::record::FleetRecord;

/// Aggregate over one TRR variant's sub-population.
#[derive(Debug, Clone)]
pub struct VariantStats {
    /// Ground-truth TRR version (e.g. `B_TRR1`).
    pub trr_version: String,
    /// Modules carrying this variant.
    pub count: u64,
    /// Modules whose full reverse-engineered profile matched the
    /// planted ground truth.
    pub re_matches: u64,
    /// Distribution of measured `HC_first` across the sub-population.
    pub hc_measured: HistogramSnapshot,
    /// Sum of the vulnerable-row percentages (for the mean).
    pub vulnerable_pct_sum: f64,
}

/// Aggregate over one whole fleet stream.
#[derive(Debug, Clone)]
pub struct FleetSummary {
    /// Modules summarised.
    pub modules: u64,
    /// Modules with a fully matching reverse-engineered profile.
    pub re_matches: u64,
    /// Per-variant stats, sorted by TRR version.
    pub variants: Vec<VariantStats>,
    /// Fleet-wide measured `HC_first` distribution (variant merge).
    pub hc_measured: HistogramSnapshot,
    /// Total Row Scout validation retries across the fleet.
    pub scout_retries: u64,
    /// Total rows quarantined by the Row Scout.
    pub scout_quarantined: u64,
    /// Total faults injected across every module pipeline.
    pub faults_injected: u64,
    /// Total reverse-engineering retries (extra experiment seeds).
    pub re_retries: u64,
    /// Total majority-voted read disagreements.
    pub read_disagreements: u64,
    /// The modules with the most recovery activity
    /// (retries + quarantines), up to five, noisiest first.
    pub noisiest: Vec<(String, u64)>,
    /// Modules whose verdict is `confirmed`.
    pub tier_confirmed: u64,
    /// Modules whose verdict is `degraded`.
    pub tier_degraded: u64,
    /// Modules whose verdict is `inconclusive`.
    pub tier_inconclusive: u64,
    /// Inconclusive modules whose reverse engineering failed below
    /// hostile severity (a [`RE_FAILED`] reason), where every module
    /// must succeed.
    pub re_failed: u64,
    /// Degradation reasons tallied fleet-wide, sorted by reason.
    pub degraded_reasons: Vec<(String, u64)>,
    /// Recovery-ladder totals: vote widenings, relocations,
    /// re-profiles, budget trips.
    pub ladder: [u64; 4],
}

impl FleetSummary {
    /// Aggregates in-memory records.
    pub(crate) fn from_records(records: &[FleetRecord]) -> FleetSummary {
        let mut variants: Vec<(String, u64, u64, Histogram, f64)> = Vec::new();
        let mut recovery: Vec<(String, u64)> = Vec::new();
        let mut summary = FleetSummary {
            modules: records.len() as u64,
            re_matches: 0,
            variants: Vec::new(),
            hc_measured: HistogramSnapshot::default(),
            scout_retries: 0,
            scout_quarantined: 0,
            faults_injected: 0,
            re_retries: 0,
            read_disagreements: 0,
            noisiest: Vec::new(),
            tier_confirmed: 0,
            tier_degraded: 0,
            tier_inconclusive: 0,
            re_failed: 0,
            degraded_reasons: Vec::new(),
            ladder: [0; 4],
        };
        let mut reasons: Vec<(String, u64)> = Vec::new();
        for r in records {
            summary.re_matches += u64::from(r.re_match);
            summary.re_retries += u64::from(r.re_attempts.saturating_sub(1));
            summary.scout_retries += r.scout_retries;
            summary.scout_quarantined += r.scout_quarantined;
            summary.faults_injected += r.faults_injected;
            summary.read_disagreements += r.read_disagreements;
            let slot = match variants.iter().position(|(v, ..)| *v == r.trr_version) {
                Some(i) => &mut variants[i],
                None => {
                    variants.push((r.trr_version.clone(), 0, 0, Histogram::default(), 0.0));
                    variants.last_mut().expect("just pushed")
                }
            };
            slot.1 += 1;
            slot.2 += u64::from(r.re_match);
            slot.3.record(r.hc_first_measured);
            slot.4 += r.vulnerable_pct;
            let noise = r.scout_retries + r.scout_quarantined;
            if noise > 0 {
                recovery.push((r.id.clone(), noise));
            }
            match r.tier.as_str() {
                "degraded" => {
                    summary.tier_degraded += 1;
                    for reason in r.tier_reasons.split('+').filter(|s| !s.is_empty()) {
                        match reasons.iter_mut().find(|(name, _)| name == reason) {
                            Some((_, n)) => *n += 1,
                            None => reasons.push((reason.to_string(), 1)),
                        }
                    }
                }
                "inconclusive" => {
                    summary.tier_inconclusive += 1;
                    summary.re_failed += u64::from(r.tier_reasons.starts_with(RE_FAILED));
                }
                // Pre-tier records read as confirmed.
                _ => summary.tier_confirmed += 1,
            }
            summary.ladder[0] += r.vote_widenings;
            summary.ladder[1] += r.relocations;
            summary.ladder[2] += r.reprofiles;
            summary.ladder[3] += r.budget_trips;
        }
        reasons.sort_by(|a, b| a.0.cmp(&b.0));
        summary.degraded_reasons = reasons;
        variants.sort_by(|a, b| a.0.cmp(&b.0));
        for (trr_version, count, re_matches, hist, vulnerable_pct_sum) in variants {
            let hc_measured = hist.snapshot();
            summary.hc_measured = summary.hc_measured.merge(&hc_measured);
            summary.variants.push(VariantStats {
                trr_version,
                count,
                re_matches,
                hc_measured,
                vulnerable_pct_sum,
            });
        }
        recovery.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        recovery.truncate(5);
        summary.noisiest = recovery;
        summary
    }

    /// Aggregates a `utrr-fleet/1` JSONL stream (the meta line and any
    /// unparsable records are skipped; their count is reported).
    ///
    /// # Errors
    ///
    /// Returns an error when the text is not parsable JSONL at all.
    pub fn from_jsonl(text: &str) -> Result<(FleetSummary, u64), String> {
        let values = parse_jsonl(text).map_err(|e| format!("fleet stream unparsable: {e}"))?;
        let mut records = Vec::new();
        let mut skipped = 0u64;
        for value in &values {
            match FleetRecord::from_json(value) {
                Some(record) => records.push(record),
                // The meta line lands here by design.
                None => skipped += 1,
            }
        }
        Ok((FleetSummary::from_records(&records), skipped))
    }

    /// Renders the Table-1-style fleet report (deterministic text).
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "fleet summary: {} modules, RE match {}/{} ({:.1}%)\n\n",
            self.modules,
            self.re_matches,
            self.modules,
            pct(self.re_matches, self.modules)
        ));
        out.push_str(
            "TRR variant    modules   share    RE match   HC_first p10/p50/p90      vuln%\n",
        );
        for v in &self.variants {
            let q = |p: f64| v.hc_measured.quantile(p).unwrap_or(0);
            out.push_str(&format!(
                "{:<14} {:>7}  {:>5.1}%   {:>7.1}%   {:>6}/{:>6}/{:>6}   {:>7.2}\n",
                v.trr_version,
                v.count,
                pct(v.count, self.modules),
                pct(v.re_matches, v.count),
                q(0.10),
                q(0.50),
                q(0.90),
                if v.count == 0 { 0.0 } else { v.vulnerable_pct_sum / v.count as f64 },
            ));
        }
        let q = |p: f64| self.hc_measured.quantile(p).unwrap_or(0);
        out.push_str(&format!(
            "\nfleet HC_first: min {} / p50 {} / p90 {} / max {}\n",
            self.hc_measured.quantile(0.0).unwrap_or(0),
            q(0.50),
            q(0.90),
            self.hc_measured.quantile(1.0).unwrap_or(0),
        ));
        out.push_str(&format!(
            "recovery: {} scout retries, {} quarantined rows, {} injected faults, \
             {} read disagreements, {} RE retries\n",
            self.scout_retries,
            self.scout_quarantined,
            self.faults_injected,
            self.read_disagreements,
            self.re_retries
        ));
        // Tier shares and ladder totals only appear once a run produced
        // something non-default, so `none`/`mild` reports are unchanged.
        if self.tier_degraded > 0 || self.tier_inconclusive > 0 {
            out.push_str(&format!(
                "verdict tiers: {} confirmed ({:.1}%), {} degraded ({:.1}%), \
                 {} inconclusive ({:.1}%)\n",
                self.tier_confirmed,
                pct(self.tier_confirmed, self.modules),
                self.tier_degraded,
                pct(self.tier_degraded, self.modules),
                self.tier_inconclusive,
                pct(self.tier_inconclusive, self.modules),
            ));
            if !self.degraded_reasons.is_empty() {
                out.push_str("degraded reasons:");
                for (reason, n) in &self.degraded_reasons {
                    out.push_str(&format!(" {reason}={n}"));
                }
                out.push('\n');
            }
            if self.re_failed > 0 {
                out.push_str(&format!(
                    "reverse engineering failed below hostile: {} modules\n",
                    self.re_failed
                ));
            }
        }
        if self.ladder.iter().any(|&n| n > 0) {
            out.push_str(&format!(
                "recovery ladder: {} vote widenings, {} relocations, {} re-profiles, \
                 {} budget trips\n",
                self.ladder[0], self.ladder[1], self.ladder[2], self.ladder[3],
            ));
        }
        if !self.noisiest.is_empty() {
            out.push_str("noisiest modules (retries+quarantines):");
            for (id, noise) in &self.noisiest {
                out.push_str(&format!(" {id}={noise}"));
            }
            out.push('\n');
        }
        out
    }
}

fn pct(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        100.0 * part as f64 / whole as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(i: u64, trr: &str, hc: u64, re_match: bool, retries: u64) -> FleetRecord {
        FleetRecord {
            index: i,
            id: format!("S{i:06}"),
            anchor: "A1".into(),
            vendor: "A".into(),
            trr_version: trr.into(),
            banks: 16,
            rows: 2048,
            seed: i,
            retention_scale: 1.0,
            hc_first_gt: hc,
            re_match,
            re_attempts: 1,
            ratio: 2,
            neighbors: 2,
            detection: "Counter(16)".into(),
            per_bank: true,
            refresh_period: 8192,
            hc_first_measured: hc,
            vulnerable_pct: 50.0,
            max_flips_per_hammer: 1.0,
            max_flips_per_word: 1,
            scout_retries: retries,
            scout_quarantined: 0,
            faults_injected: retries * 3,
            reads_voted: 100,
            read_disagreements: retries,
            write_retries: 0,
            tier: "confirmed".into(),
            tier_reasons: String::new(),
            vote_widenings: 0,
            relocations: 0,
            reprofiles: 0,
            budget_trips: 0,
        }
    }

    #[test]
    fn aggregates_variants_and_merges_histograms() {
        let records = vec![
            record(0, "A_TRR1", 10_000, true, 0),
            record(1, "A_TRR1", 30_000, true, 2),
            record(2, "B_TRR2", 20_000, false, 5),
        ];
        let summary = FleetSummary::from_records(&records);
        assert_eq!(summary.modules, 3);
        assert_eq!(summary.re_matches, 2);
        assert_eq!(summary.variants.len(), 2);
        assert_eq!(summary.variants[0].trr_version, "A_TRR1");
        assert_eq!(summary.variants[0].count, 2);
        // The fleet-wide histogram is the merge of the variant ones.
        assert_eq!(summary.hc_measured.count, 3);
        assert_eq!(summary.hc_measured.quantile(0.0), Some(10_000));
        assert_eq!(summary.hc_measured.quantile(1.0), Some(30_000));
        assert_eq!(summary.scout_retries, 7);
        assert_eq!(summary.faults_injected, 21);
        // Noisiest first, ids for ties.
        assert_eq!(summary.noisiest, vec![("S000002".into(), 5), ("S000001".into(), 2)]);
        let report = summary.render();
        assert!(report.contains("3 modules"), "{report}");
        assert!(report.contains("A_TRR1"), "{report}");
        assert!(report.contains("recovery: 7 scout retries"), "{report}");
    }

    #[test]
    fn all_confirmed_reports_omit_tier_and_ladder_lines() {
        // The mild/none byte-identity contract: a fleet with only
        // confirmed verdicts and a quiet ladder renders exactly the
        // pre-tier report.
        let summary = FleetSummary::from_records(&[record(0, "A_TRR1", 10_000, true, 0)]);
        assert_eq!(summary.tier_confirmed, 1);
        let report = summary.render();
        assert!(!report.contains("verdict tiers"), "{report}");
        assert!(!report.contains("recovery ladder"), "{report}");
    }

    #[test]
    fn hostile_tiers_and_ladder_totals_are_reported() {
        let mut degraded = record(1, "A_TRR1", 12_000, true, 1);
        degraded.tier = "degraded".into();
        degraded.tier_reasons = "scout-shortfall+act-budget".into();
        degraded.vote_widenings = 2;
        degraded.budget_trips = 1;
        let mut inconclusive = record(2, "B_TRR2", 14_000, false, 3);
        inconclusive.tier = "inconclusive".into();
        inconclusive.relocations = 3;
        inconclusive.reprofiles = 1;
        let mut failed = record(3, "C_TRR1", 9_000, false, 3);
        failed.tier = "inconclusive".into();
        failed.tier_reasons = format!("{RE_FAILED}not-enough-row-groups");
        let summary = FleetSummary::from_records(&[
            record(0, "A_TRR1", 10_000, true, 0),
            degraded,
            inconclusive,
            failed,
        ]);
        assert_eq!(
            (summary.tier_confirmed, summary.tier_degraded, summary.tier_inconclusive),
            (1, 1, 2)
        );
        assert_eq!(summary.re_failed, 1, "only the re-failed record counts");
        assert_eq!(
            summary.degraded_reasons,
            vec![("act-budget".to_string(), 1), ("scout-shortfall".to_string(), 1)]
        );
        assert_eq!(summary.ladder, [2, 3, 1, 1]);
        let report = summary.render();
        assert!(report.contains("verdict tiers: 1 confirmed (25.0%), 1 degraded"), "{report}");
        assert!(report.contains("degraded reasons: act-budget=1 scout-shortfall=1"), "{report}");
        assert!(report.contains("recovery ladder: 2 vote widenings, 3 relocations"), "{report}");
        assert!(report.contains("reverse engineering failed below hostile: 1 modules"), "{report}");
    }

    #[test]
    fn jsonl_round_trip_skips_the_meta_line() {
        let records = [record(0, "A_TRR1", 10_000, true, 0)];
        let text = format!(
            "{{\"schema\":\"utrr-fleet/1\",\"modules\":1}}\n{}\n",
            records[0].to_json_line()
        );
        let (summary, skipped) = FleetSummary::from_jsonl(&text).expect("parses");
        assert_eq!(summary.modules, 1);
        assert_eq!(skipped, 1);
    }
}
