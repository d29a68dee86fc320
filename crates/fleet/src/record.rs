//! The per-module fleet record: one JSONL line per characterised
//! module, schema `utrr-fleet/1`.
//!
//! [`characterize`] runs the full per-module pipeline — synthesise the
//! spec, reverse engineer the TRR mechanism (Row Scout → TRR Analyzer →
//! verdict), measure `HC_first`, run the vendor's §7.1 custom-pattern
//! sweep — against a private metrics registry, then folds the
//! registry's recovery counters (scout retries/quarantines, injected
//! faults, voted reads) into the record so fleet runs under `--faults
//! mild` expose per-module recovery behaviour.
//!
//! Records are rendered with a fixed key order and fixed float
//! precision, so a record is a pure function of the sweep parameters
//! and the module index — the property the executor's byte-identical
//! resume contract is built on.

use std::sync::Arc;

use attacks::eval::EvalConfig;
use dram_sim::rng::derive_seed;
use faults::FaultProfile;
use obs::jsonl::JsonValue;
use obs::MetricsRegistry;
pub use utrr_bench::CTR_RE_RETRIES;
use utrr_bench::{
    attack_columns, detection_label, hc_first, retry_seeds, reverse_engineer, RunConfig,
    RE_BIN_ATTEMPTS, RE_FAILED,
};
use utrr_core::recovery::VerdictTier;

use crate::gen::synth_spec;

/// Everything the per-module pipeline depends on. Two runs with equal
/// parameters produce byte-identical records for every index.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepParams {
    /// Fleet seed every module stream derives from.
    pub fleet_seed: u64,
    /// Base scaled rows per bank (the generator adds its geometry step).
    pub base_rows: u32,
    /// Victim samples for the `HC_first` measurement.
    pub hc_samples: u32,
    /// Victim samples for the attack-column sweep.
    pub attack_samples: u32,
    /// Fault profile installed into every controller of the pipeline.
    pub fault_profile: FaultProfile,
    /// Base fault seed (per-module plans derive from it).
    pub fault_seed: u64,
}

/// One characterised module, as serialised into the fleet stream.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetRecord {
    /// Position in the fleet population.
    pub index: u64,
    /// Synthetic module id (`S000042`).
    pub id: String,
    /// Table-1 anchor the module was perturbed from.
    pub anchor: String,
    /// Vendor letter.
    pub vendor: String,
    /// Ground-truth TRR version.
    pub trr_version: String,
    /// Banks per rank.
    pub banks: u8,
    /// Scaled rows per bank the module was built at.
    pub rows: u32,
    /// Per-module seed (hex, for reproduction).
    pub seed: u64,
    /// Retention-window multiplier the generator drew.
    pub retention_scale: f64,
    /// Planted `HC_first`.
    pub hc_first_gt: u64,
    /// Whether every reverse-engineered column matched the ground truth.
    pub re_match: bool,
    /// Reverse-engineering attempts used (1 = first experiment seed
    /// worked; a retry means the scout or a learner failed to converge
    /// on the previous seed and the suite re-ran on the next one).
    pub re_attempts: u32,
    /// Inferred TRR-to-REF ratio.
    pub ratio: u64,
    /// Inferred neighbours refreshed per detection.
    pub neighbors: u32,
    /// Inferred detection mechanism label.
    pub detection: String,
    /// Inferred per-bank TRR flag.
    pub per_bank: bool,
    /// Measured regular-refresh period in `REF`s.
    pub refresh_period: u64,
    /// Measured `HC_first`.
    pub hc_first_measured: u64,
    /// Attack column: % vulnerable rows.
    pub vulnerable_pct: f64,
    /// Attack column: max flips per row per hammer.
    pub max_flips_per_hammer: f64,
    /// Attack column: max flips per 8-byte dataword.
    pub max_flips_per_word: u32,
    /// Row Scout validation retries (fault recovery).
    pub scout_retries: u64,
    /// Rows the Row Scout quarantined.
    pub scout_quarantined: u64,
    /// Faults the plan injected into this module's pipeline.
    pub faults_injected: u64,
    /// Majority-voted reads issued.
    pub reads_voted: u64,
    /// Voted reads whose replicas disagreed (a recovery).
    pub read_disagreements: u64,
    /// Verified-write retries.
    pub write_retries: u64,
    /// Verdict-confidence tier label (`confirmed` / `degraded` /
    /// `inconclusive`; see [`VerdictTier`]). Additive `utrr-fleet/1`
    /// field: absent in pre-tier streams, which read as `confirmed`.
    pub tier: String,
    /// `+`-joined degradation reasons (empty unless degraded).
    pub tier_reasons: String,
    /// Recovery ladder: majority-vote width escalations.
    pub vote_widenings: u64,
    /// Recovery ladder: Row Scout window relocations.
    pub relocations: u64,
    /// Recovery ladder: retention-margin re-profiles.
    pub reprofiles: u64,
    /// Recovery ladder: ACT-budget circuit-breaker trips.
    pub budget_trips: u64,
}

/// Retry budget for the reverse-engineering suite: the shared loop's
/// [`RE_BIN_ATTEMPTS`]. Each attempt's experiment seed is a pure
/// function of the module seed and the attempt number, so retries are
/// deterministic.
pub const RE_ATTEMPTS: u32 = RE_BIN_ATTEMPTS as u32;

/// Runs the full pipeline for module `index` and returns its record.
///
/// A module whose reverse engineering exhausts all [`RE_ATTEMPTS`]
/// experiment seeds is recorded as `inconclusive` — with its
/// recovery-ladder history and the RE-independent measurements
/// (`HC_first`, attack columns) — and the sweep continues: one stubborn
/// module never aborts a shard. Below hostile severity, where every
/// module must succeed, such a record also names the last attempt's
/// error in `tier_reasons` as [`RE_FAILED`]`<cause>` (see
/// [`utrr_core::UtrrError::cause`]), and `repro-fleet` exits non-zero
/// once it has written the records.
///
/// # Panics
///
/// Panics if `HC_first` cannot be measured on bank 0.
pub fn characterize(params: &SweepParams, index: u64) -> FleetRecord {
    let synth = synth_spec(params.fleet_seed, index, params.base_rows);
    let spec = &synth.spec;
    // A private registry per module: its counters are exactly this
    // module's pipeline traffic, nothing else's.
    let registry = Arc::new(MetricsRegistry::new());
    let fault_seed = derive_seed(synth.seed ^ params.fault_seed, 5);

    let config = RunConfig {
        rows: synth.rows,
        seed: synth.seed,
        fault_profile: params.fault_profile,
        fault_seed,
        registry: Some(Arc::clone(&registry)),
    };
    // Streams 2..5 feed the first attempt's phases; retries move to a
    // disjoint stream block (16, 32, …) per attempt.
    let re = retry_seeds(
        &config,
        |k| derive_seed(synth.seed, 2 + 16 * k),
        |c| reverse_engineer(spec, c),
    );
    let hc_config = RunConfig { seed: derive_seed(synth.seed, 3), ..config };
    let hc = hc_first(spec, &hc_config, params.hc_samples)
        .expect("characterization runs on an in-range bank");
    let eval = EvalConfig {
        sample_count: params.attack_samples,
        windows: 1,
        scaled_rows: Some(synth.rows),
        seed: derive_seed(synth.seed, 4),
        registry: Some(Arc::clone(&registry)),
        fault_profile: params.fault_profile,
        fault_seed,
        ..EvalConfig::quick(params.attack_samples)
    };
    let sweep = attack_columns(spec, &eval);

    let counter = |name: &str| registry.counter(name).get();
    // An inconclusive module keeps placeholder profile columns; its
    // RE-independent measurements (HC_first, attack sweep) are real.
    let (re_match, ratio, neighbors, detection, per_bank, refresh_period, tier) = match &re.outcome
    {
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
    FleetRecord {
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
        re_attempts: re.attempts,
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
        tier_reasons: match &re.failure {
            Some(e) => format!("{RE_FAILED}{}", e.cause()),
            None => tier.reasons_string(),
        },
        vote_widenings: counter(utrr_core::recovery::CTR_VOTE_WIDENINGS),
        relocations: counter(utrr_core::recovery::CTR_RELOCATIONS),
        reprofiles: counter(utrr_core::recovery::CTR_REPROFILES),
        budget_trips: counter(utrr_core::recovery::CTR_BUDGET_TRIPS),
    }
}

impl FleetRecord {
    /// Renders the record as one JSON line (no trailing newline), with
    /// fixed key order and fixed float precision.
    pub fn to_json_line(&self) -> String {
        format!(
            concat!(
                "{{\"i\":{},\"id\":\"{}\",\"anchor\":\"{}\",\"vendor\":\"{}\",\"trr\":\"{}\",",
                "\"banks\":{},\"rows\":{},\"seed\":\"{:016x}\",\"ret_scale\":{:.4},",
                "\"hc_gt\":{},\"re_match\":{},\"re_attempts\":{},\"ratio\":{},\"neighbors\":{},",
                "\"detection\":\"{}\",\"per_bank\":{},\"refresh_period\":{},\"hc_meas\":{},",
                "\"vuln_pct\":{:.2},\"max_flips_hammer\":{:.3},\"max_flips_word\":{},",
                "\"scout_retries\":{},\"scout_quarantined\":{},\"faults_injected\":{},",
                "\"reads_voted\":{},\"read_disagreements\":{},\"write_retries\":{},",
                "\"tier\":\"{}\",\"tier_reasons\":\"{}\",\"vote_widenings\":{},",
                "\"relocations\":{},\"reprofiles\":{},\"budget_trips\":{}}}"
            ),
            self.index,
            self.id,
            self.anchor,
            self.vendor,
            self.trr_version,
            self.banks,
            self.rows,
            self.seed,
            self.retention_scale,
            self.hc_first_gt,
            self.re_match,
            self.re_attempts,
            self.ratio,
            self.neighbors,
            self.detection,
            self.per_bank,
            self.refresh_period,
            self.hc_first_measured,
            self.vulnerable_pct,
            self.max_flips_per_hammer,
            self.max_flips_per_word,
            self.scout_retries,
            self.scout_quarantined,
            self.faults_injected,
            self.reads_voted,
            self.read_disagreements,
            self.write_retries,
            self.tier,
            self.tier_reasons,
            self.vote_widenings,
            self.relocations,
            self.reprofiles,
            self.budget_trips,
        )
    }

    /// Parses a record back from a parsed JSON object. Returns `None`
    /// for meta lines or malformed records.
    pub fn from_json(value: &JsonValue) -> Option<FleetRecord> {
        let s = |k: &str| value.get(k)?.as_str().map(str::to_string);
        let u = |k: &str| value.get(k)?.as_u64();
        let f = |k: &str| value.get(k)?.as_f64();
        let b = |k: &str| match value.get(k)? {
            JsonValue::Bool(v) => Some(*v),
            _ => None,
        };
        Some(FleetRecord {
            index: u("i")?,
            id: s("id")?,
            anchor: s("anchor")?,
            vendor: s("vendor")?,
            trr_version: s("trr")?,
            banks: u("banks")? as u8,
            rows: u("rows")? as u32,
            seed: u64::from_str_radix(&s("seed")?, 16).ok()?,
            retention_scale: f("ret_scale")?,
            hc_first_gt: u("hc_gt")?,
            re_match: b("re_match")?,
            re_attempts: u("re_attempts")? as u32,
            ratio: u("ratio")?,
            neighbors: u("neighbors")? as u32,
            detection: s("detection")?,
            per_bank: b("per_bank")?,
            refresh_period: u("refresh_period")?,
            hc_first_measured: u("hc_meas")?,
            vulnerable_pct: f("vuln_pct")?,
            max_flips_per_hammer: f("max_flips_hammer")?,
            max_flips_per_word: u("max_flips_word")? as u32,
            scout_retries: u("scout_retries")?,
            scout_quarantined: u("scout_quarantined")?,
            faults_injected: u("faults_injected")?,
            reads_voted: u("reads_voted")?,
            read_disagreements: u("read_disagreements")?,
            write_retries: u("write_retries")?,
            // Additive tier/ladder fields: pre-tier streams lack them
            // and read as confirmed with a quiet ladder.
            tier: s("tier").unwrap_or_else(|| "confirmed".to_string()),
            tier_reasons: s("tier_reasons").unwrap_or_default(),
            vote_widenings: u("vote_widenings").unwrap_or(0),
            relocations: u("relocations").unwrap_or(0),
            reprofiles: u("reprofiles").unwrap_or(0),
            budget_trips: u("budget_trips").unwrap_or(0),
        })
    }

    /// The record's verdict tier, decoded from its wire fields.
    pub fn verdict_tier(&self) -> VerdictTier {
        VerdictTier::from_wire(&self.tier, &self.tier_reasons)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use obs::jsonl::parse_json;

    fn sample() -> FleetRecord {
        FleetRecord {
            index: 3,
            id: "S000003".into(),
            anchor: "B7".into(),
            vendor: "B".into(),
            trr_version: "B_TRR1".into(),
            banks: 16,
            rows: 2176,
            seed: 0xDEAD_BEEF_0BAD_F00D,
            retention_scale: 1.0625,
            hc_first_gt: 20_000,
            re_match: true,
            re_attempts: 1,
            ratio: 4,
            neighbors: 2,
            detection: "Sampler(shared)".into(),
            per_bank: false,
            refresh_period: 8192,
            hc_first_measured: 21_500,
            vulnerable_pct: 99.9,
            max_flips_per_hammer: 31.14,
            max_flips_per_word: 7,
            scout_retries: 2,
            scout_quarantined: 1,
            faults_injected: 40,
            reads_voted: 1000,
            read_disagreements: 3,
            write_retries: 1,
            tier: "degraded".into(),
            tier_reasons: "scout-shortfall+act-budget".into(),
            vote_widenings: 2,
            relocations: 3,
            reprofiles: 1,
            budget_trips: 1,
        }
    }

    #[test]
    fn record_json_round_trips() {
        let record = sample();
        let line = record.to_json_line();
        let value = parse_json(&line).expect("record line parses");
        let parsed = FleetRecord::from_json(&value).expect("record fields present");
        assert_eq!(parsed, record);
    }

    #[test]
    fn meta_lines_are_rejected() {
        let meta = parse_json(r#"{"schema":"utrr-fleet/1","modules":4}"#).unwrap();
        assert!(FleetRecord::from_json(&meta).is_none());
    }

    #[test]
    fn pre_tier_records_parse_with_confirmed_defaults() {
        // A line written before the tier fields existed must still
        // parse — tier fields default to a confirmed, quiet ladder.
        let mut legacy = sample();
        legacy.tier = "confirmed".into();
        legacy.tier_reasons.clear();
        legacy.vote_widenings = 0;
        legacy.relocations = 0;
        legacy.reprofiles = 0;
        legacy.budget_trips = 0;
        let line = legacy.to_json_line();
        let cut = line.find(",\"tier\"").expect("tier fields rendered");
        let pre_tier = format!("{}}}", &line[..cut]);
        let value = parse_json(&pre_tier).expect("legacy line parses");
        let parsed = FleetRecord::from_json(&value).expect("legacy record accepted");
        assert_eq!(parsed, legacy);
        assert!(parsed.verdict_tier().is_confirmed());
    }

    #[test]
    fn verdict_tier_decodes_wire_fields() {
        let tier = sample().verdict_tier();
        assert_eq!(tier.label(), "degraded");
        assert_eq!(tier.reasons_string(), "scout-shortfall+act-budget");
    }

    #[test]
    fn failed_reverse_engineering_below_hostile_is_an_inconclusive_record() {
        // 256 rows cannot host Row Scout's row groups, so every seed
        // fails; `none` and `mild` still get a record, not a panic.
        for fault_profile in [FaultProfile::None, FaultProfile::Mild] {
            let params = SweepParams {
                fleet_seed: 1,
                base_rows: 256,
                hc_samples: 2,
                attack_samples: 2,
                fault_profile,
                fault_seed: 1,
            };
            let record = characterize(&params, 0);
            assert_eq!(record.tier, "inconclusive", "{fault_profile:?}");
            assert_eq!(record.tier_reasons, "re-failed:not-enough-row-groups", "{fault_profile:?}");
            assert_eq!((record.re_attempts, record.re_match), (RE_ATTEMPTS, false));
            assert_eq!(record.detection, "inconclusive");
            assert!(record.hc_first_measured > 0, "HC_first is measured regardless");
            // The cause survives the wire form.
            let line = record.to_json_line();
            let parsed = FleetRecord::from_json(&parse_json(&line).unwrap()).unwrap();
            assert_eq!(parsed.to_json_line(), line);
        }
    }

    #[test]
    fn rendering_is_stable() {
        // Byte-stable rendering is what the resume contract hashes.
        assert_eq!(sample().to_json_line(), sample().to_json_line());
        assert!(sample().to_json_line().contains("\"seed\":\"deadbeef0badf00d\""));
    }
}
