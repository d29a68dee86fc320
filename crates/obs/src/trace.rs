//! Event-level flight recorder: a fixed-capacity ring of structured,
//! sim-time-stamped trace events with causal evidence links.
//!
//! Where [`crate::metrics`] answers *how often* (counters, histograms),
//! the flight recorder answers *why*: every layer of the stack — the
//! device model, the TRR engines, the controller, the fault injector,
//! and the methodology passes — appends [`TraceEvent`]s to one shared
//! [`FlightRecorder`], and verdict-level events carry the IDs of the
//! observations that justify them. The `utrr-trace` binary renders the
//! resulting chain (ACT → detection → targeted REF → flip/no-flip →
//! verdict) as a per-row causal timeline.
//!
//! Recording is strictly read-only with respect to the simulation:
//! emitting (or not emitting) an event never changes device state,
//! command streams, or stdout. When no recorder is installed the hot
//! path costs one relaxed atomic load (see
//! [`crate::MetricsRegistry::tracing_enabled`]).
//!
//! A [`TraceFilter`] keeps full-bank sweeps cheap: row-addressed events
//! are only stored when the row lies within [`TraceFilter::RADIUS`] of
//! a tracked row, while row-less events (`REF`s, injected faults,
//! verdicts) always pass. On overflow the ring drops its **oldest**
//! events; [`FlightRecorder::snapshot`] returns how many beside the
//! events it kept.
//!
//! Two exporters are provided: [`write_trace_jsonl`] (schema
//! [`TRACE_SCHEMA`], parse-back via [`read_trace_jsonl`]) and
//! [`write_chrome_trace_to_path`], whose output loads directly into
//! `chrome://tracing` or Perfetto.

use std::collections::{BTreeSet, VecDeque};
use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use crate::jsonl::{parse_jsonl, quote, JsonValue};

/// Trace artifact schema tag, bumped on incompatible changes.
pub const TRACE_SCHEMA: &str = "utrr-trace/1";

/// Default ring capacity; enough for a full fig9-style single-column
/// run with a handful of tracked rows.
pub const DEFAULT_TRACE_CAPACITY: usize = 262_144;

/// What happened, at the granularity the causal timeline needs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum TraceKind {
    /// Row activation(s); batched hammers carry a `count` field.
    Act,
    /// A regular `REF` command covering a tracked row.
    Ref,
    /// The device materialised disturbance bit flips in a row.
    BitFlip,
    /// A methodology pass read a row back and classified it.
    ReadCheck,
    /// The TRR engine flagged an aggressor.
    TrrDetect,
    /// The TRR engine issued a targeted refresh to a victim.
    TrrRefresh,
    /// A counter-table entry was evicted.
    TrrEvict,
    /// A sampler-style engine sampled an activation.
    TrrSample,
    /// The fault injector perturbed a command.
    FaultInjected,
    /// A robustness layer recovered from (or gave up on) a fault.
    Recovery,
    /// The Row Scout retried a validation check.
    ScoutRetry,
    /// A reverse-engineering attempt failed on one experiment seed; the
    /// detail carries the cause.
    ReRetry,
    /// A conclusion, carrying the event IDs that constitute its
    /// evidence.
    Verdict,
}

impl TraceKind {
    /// Stable wire name (used by both exporters).
    pub fn as_str(self) -> &'static str {
        match self {
            TraceKind::Act => "act",
            TraceKind::Ref => "ref",
            TraceKind::BitFlip => "bit_flip",
            TraceKind::ReadCheck => "read_check",
            TraceKind::TrrDetect => "trr_detect",
            TraceKind::TrrRefresh => "trr_refresh",
            TraceKind::TrrEvict => "trr_evict",
            TraceKind::TrrSample => "trr_sample",
            TraceKind::FaultInjected => "fault_injected",
            TraceKind::Recovery => "recovery",
            TraceKind::ScoutRetry => "scout_retry",
            TraceKind::ReRetry => "re_retry",
            TraceKind::Verdict => "verdict",
        }
    }

    /// Inverse of [`TraceKind::as_str`].
    pub fn parse(name: &str) -> Option<TraceKind> {
        Some(match name {
            "act" => TraceKind::Act,
            "ref" => TraceKind::Ref,
            "bit_flip" => TraceKind::BitFlip,
            "read_check" => TraceKind::ReadCheck,
            "trr_detect" => TraceKind::TrrDetect,
            "trr_refresh" => TraceKind::TrrRefresh,
            "trr_evict" => TraceKind::TrrEvict,
            "trr_sample" => TraceKind::TrrSample,
            "fault_injected" => TraceKind::FaultInjected,
            "recovery" => TraceKind::Recovery,
            "scout_retry" => TraceKind::ScoutRetry,
            "re_retry" => TraceKind::ReRetry,
            "verdict" => TraceKind::Verdict,
            _ => return None,
        })
    }
}

impl std::fmt::Display for TraceKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One recorded moment. IDs are unique and monotonically increasing in
/// emission order, which is what lets [`TraceEvent::evidence`] reference
/// earlier events.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// Unique, monotonically increasing per recorder.
    pub id: u64,
    /// Simulated time of the event, nanoseconds.
    pub t_sim: u64,
    /// Event kind.
    pub kind: TraceKind,
    /// Bank the event belongs to (0 for bank-less events).
    pub bank: u32,
    /// Physical row index, when the event is row-addressed.
    pub row: Option<u32>,
    /// Extra integer attributes, in emission order.
    pub fields: Vec<(String, u64)>,
    /// Free-text annotation (outcome names, fault kinds, …).
    pub detail: String,
    /// IDs of earlier events constituting this event's evidence
    /// (populated for [`TraceKind::Verdict`] and `ReadCheck` chains).
    pub evidence: Vec<u64>,
}

/// Which rows a recorder should keep events for.
///
/// `RowHammer` effects are spatially local, so admitting every row
/// within [`TraceFilter::RADIUS`] of a tracked row captures the
/// aggressors and blast-radius neighbours of a tracked victim without
/// recording the whole bank. Row-less events always pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceFilter {
    /// Tracked physical rows; `None` tracks every row.
    rows: Option<BTreeSet<u32>>,
}

impl TraceFilter {
    /// Rows this close to a tracked row are also admitted.
    pub const RADIUS: u32 = 2;

    /// A filter that admits every event.
    pub fn all() -> TraceFilter {
        TraceFilter { rows: None }
    }

    /// Parses a `--trace-rows` spec: `all`, or a comma-separated list
    /// of physical rows and inclusive `A-B` ranges (`"41,100-104"`).
    pub fn parse(spec: &str) -> Result<TraceFilter, String> {
        let spec = spec.trim();
        if spec.is_empty() || spec.eq_ignore_ascii_case("all") {
            return Ok(TraceFilter::all());
        }
        let mut rows = BTreeSet::new();
        for part in spec.split(',') {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            if let Some((lo, hi)) = part.split_once('-') {
                let lo: u32 =
                    lo.trim().parse().map_err(|_| format!("bad row range start: {part:?}"))?;
                let hi: u32 =
                    hi.trim().parse().map_err(|_| format!("bad row range end: {part:?}"))?;
                if lo > hi {
                    return Err(format!("descending row range: {part:?}"));
                }
                if u64::from(hi) - u64::from(lo) > 1 << 20 {
                    return Err(format!("row range too large: {part:?}"));
                }
                rows.extend(lo..=hi);
            } else {
                rows.insert(part.parse().map_err(|_| format!("bad row: {part:?}"))?);
            }
        }
        if rows.is_empty() {
            return Err("trace row spec selected no rows".to_string());
        }
        Ok(TraceFilter { rows: Some(rows) })
    }

    /// Whether the filter tracks every row.
    pub fn tracks_all(&self) -> bool {
        self.rows.is_none()
    }

    /// Whether an event at `row` should be stored (`None` = row-less,
    /// always admitted).
    #[inline]
    pub fn admits(&self, row: Option<u32>) -> bool {
        match (&self.rows, row) {
            (None, _) | (_, None) => true,
            (Some(rows), Some(row)) => rows
                .range(row.saturating_sub(Self::RADIUS)..=row.saturating_add(Self::RADIUS))
                .next()
                .is_some(),
        }
    }
}

#[derive(Debug, Default)]
struct RecorderInner {
    events: VecDeque<TraceEvent>,
    dropped: u64,
}

/// The ring buffer all layers trace into. See the [module docs](self).
#[derive(Debug)]
pub struct FlightRecorder {
    inner: Mutex<RecorderInner>,
    filter: TraceFilter,
    capacity: usize,
    next_id: AtomicU64,
}

impl FlightRecorder {
    /// A recorder holding at most `capacity` events (older events are
    /// dropped first), storing only what `filter` admits.
    pub fn new(capacity: usize, filter: TraceFilter) -> FlightRecorder {
        FlightRecorder {
            inner: Mutex::new(RecorderInner::default()),
            filter,
            capacity: capacity.max(1),
            next_id: AtomicU64::new(1),
        }
    }

    /// A recorder with the default capacity, tracking every row. Kept as
    /// the recorder of the `trr` property suites and `trace_props.rs`.
    pub fn unfiltered() -> FlightRecorder {
        FlightRecorder::new(DEFAULT_TRACE_CAPACITY, TraceFilter::all())
    }

    /// The row filter this recorder applies.
    pub fn filter(&self) -> &TraceFilter {
        &self.filter
    }

    /// Records an event; returns its ID, or `None` when the filter
    /// rejects it. IDs are allocated only for stored events, so they
    /// stay monotonic in the ring.
    pub fn record(
        &self,
        kind: TraceKind,
        t_sim: u64,
        bank: u32,
        row: Option<u32>,
        fields: &[(&str, u64)],
        detail: &str,
    ) -> Option<u64> {
        self.record_with_evidence(kind, t_sim, bank, row, fields, detail, &[])
    }

    /// [`FlightRecorder::record`] plus evidence links to earlier event
    /// IDs.
    #[allow(clippy::too_many_arguments)]
    pub fn record_with_evidence(
        &self,
        kind: TraceKind,
        t_sim: u64,
        bank: u32,
        row: Option<u32>,
        fields: &[(&str, u64)],
        detail: &str,
        evidence: &[u64],
    ) -> Option<u64> {
        if !self.filter.admits(row) {
            return None;
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let event = TraceEvent {
            id,
            t_sim,
            kind,
            bank,
            row,
            fields: fields.iter().map(|(k, v)| (k.to_string(), *v)).collect(),
            detail: detail.to_string(),
            evidence: evidence.to_vec(),
        };
        let mut inner = self.inner.lock().unwrap();
        if inner.events.len() >= self.capacity {
            inner.events.pop_front();
            inner.dropped += 1;
        }
        inner.events.push_back(event);
        Some(id)
    }

    /// Stored events in ring order (oldest first) plus how many were
    /// dropped to make room.
    pub fn snapshot(&self) -> (Vec<TraceEvent>, u64) {
        let inner = self.inner.lock().unwrap();
        (inner.events.iter().cloned().collect(), inner.dropped)
    }

    /// Number of events currently stored.
    pub fn len(&self) -> usize {
        self.inner.lock().unwrap().events.len()
    }

    /// Whether nothing has been stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The ID the next stored event will receive. Capture it as a
    /// watermark before a work phase, then select `id >= watermark`
    /// from [`FlightRecorder::snapshot`] to recover that phase's
    /// events.
    pub fn next_id_hint(&self) -> u64 {
        self.next_id.load(Ordering::Relaxed)
    }

    /// IDs of the most recent events still in the ring that touch
    /// `row` (within the filter radius), oldest first, capped at
    /// `limit` — the evidence set for a per-row verdict.
    pub fn evidence_for_row(&self, row: u32, limit: usize) -> Vec<u64> {
        let inner = self.inner.lock().unwrap();
        let mut ids: Vec<u64> = inner
            .events
            .iter()
            .rev()
            .filter(|event| event.row.is_some_and(|r| r.abs_diff(row) <= TraceFilter::RADIUS))
            .take(limit)
            .map(|event| event.id)
            .collect();
        ids.reverse();
        ids
    }
}

fn u64_list(values: &[u64]) -> String {
    let mut out = String::from("[");
    for (i, v) in values.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&v.to_string());
    }
    out.push(']');
    out
}

fn pairs_list(fields: &[(String, u64)]) -> String {
    let mut out = String::from("[");
    for (i, (k, v)) in fields.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('[');
        out.push_str(&quote(k));
        out.push(',');
        out.push_str(&v.to_string());
        out.push(']');
    }
    out.push(']');
    out
}

/// Serialises events as `utrr-trace/1` JSONL: one meta line, then one
/// `{"type":"trace",…}` line per event, oldest first. `fields` is an
/// array of `[key,value]` pairs so emission order survives round-trip.
pub fn write_trace_jsonl(
    events: &[TraceEvent],
    dropped: u64,
    out: &mut impl io::Write,
) -> io::Result<()> {
    writeln!(
        out,
        "{{\"type\":\"meta\",\"schema\":\"{TRACE_SCHEMA}\",\
         \"events\":{},\"dropped\":{dropped}}}",
        events.len()
    )?;
    for event in events {
        let row = match event.row {
            Some(row) => row.to_string(),
            None => "null".to_string(),
        };
        writeln!(
            out,
            "{{\"type\":\"trace\",\"id\":{},\"t_sim_ns\":{},\"kind\":{},\
             \"bank\":{},\"row\":{row},\"fields\":{},\"detail\":{},\"evidence\":{}}}",
            event.id,
            event.t_sim,
            quote(event.kind.as_str()),
            event.bank,
            pairs_list(&event.fields),
            quote(&event.detail),
            u64_list(&event.evidence),
        )?;
    }
    Ok(())
}

/// [`write_trace_jsonl`] to a file.
pub fn write_trace_jsonl_to_path(
    events: &[TraceEvent],
    dropped: u64,
    path: &std::path::Path,
) -> io::Result<()> {
    let mut file = io::BufWriter::new(std::fs::File::create(path)?);
    write_trace_jsonl(events, dropped, &mut file)?;
    io::Write::flush(&mut file)
}

/// Parses a `utrr-trace/1` JSONL artifact back into events plus the
/// dropped tally — the exact inverse of [`write_trace_jsonl`].
pub fn read_trace_jsonl(text: &str) -> Result<(Vec<TraceEvent>, u64), String> {
    let lines = parse_jsonl(text).map_err(|e| e.to_string())?;
    let mut events = Vec::new();
    let mut dropped = 0u64;
    for (index, line) in lines.iter().enumerate() {
        let line_type = line
            .get("type")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| format!("line {index}: missing type"))?;
        match line_type {
            "meta" => {
                let schema = line.get("schema").and_then(JsonValue::as_str).unwrap_or("");
                if schema != TRACE_SCHEMA {
                    return Err(format!("unsupported trace schema: {schema:?}"));
                }
                dropped = line.get("dropped").and_then(JsonValue::as_u64).unwrap_or(0);
            }
            "trace" => {
                let field = |key: &str| line.get(key).and_then(JsonValue::as_u64);
                let kind_name = line
                    .get("kind")
                    .and_then(JsonValue::as_str)
                    .ok_or_else(|| format!("line {index}: missing kind"))?;
                let kind = TraceKind::parse(kind_name)
                    .ok_or_else(|| format!("line {index}: unknown kind {kind_name:?}"))?;
                let row = match line.get("row") {
                    Some(JsonValue::Null) | None => None,
                    Some(value) => {
                        Some(value.as_u64().ok_or_else(|| format!("line {index}: bad row"))? as u32)
                    }
                };
                let fields = line
                    .get("fields")
                    .and_then(JsonValue::as_array)
                    .unwrap_or(&[])
                    .iter()
                    .map(|pair| {
                        let pair = pair.as_array().filter(|p| p.len() == 2);
                        let key = pair.and_then(|p| p[0].as_str());
                        let value = pair.and_then(|p| p[1].as_u64());
                        match (key, value) {
                            (Some(k), Some(v)) => Ok((k.to_string(), v)),
                            _ => Err(format!("line {index}: bad field pair")),
                        }
                    })
                    .collect::<Result<Vec<_>, _>>()?;
                let evidence = line
                    .get("evidence")
                    .and_then(JsonValue::as_array)
                    .unwrap_or(&[])
                    .iter()
                    .map(|v| v.as_u64().ok_or_else(|| format!("line {index}: bad evidence")))
                    .collect::<Result<Vec<_>, _>>()?;
                events.push(TraceEvent {
                    id: field("id").ok_or_else(|| format!("line {index}: missing id"))?,
                    t_sim: field("t_sim_ns")
                        .ok_or_else(|| format!("line {index}: missing t_sim_ns"))?,
                    kind,
                    bank: field("bank").unwrap_or(0) as u32,
                    row,
                    fields,
                    detail: line
                        .get("detail")
                        .and_then(JsonValue::as_str)
                        .unwrap_or("")
                        .to_string(),
                    evidence,
                });
            }
            other => return Err(format!("line {index}: unknown line type {other:?}")),
        }
    }
    Ok((events, dropped))
}

/// Serialises events in Chrome `trace_event` JSON (instant events,
/// `ts` in microseconds, one `tid` per bank) — loadable directly in
/// `chrome://tracing` or Perfetto.
pub(crate) fn write_chrome_trace(
    events: &[TraceEvent],
    out: &mut impl io::Write,
) -> io::Result<()> {
    write!(out, "{{\"displayTimeUnit\":\"ns\",\"traceEvents\":[")?;
    for (i, event) in events.iter().enumerate() {
        if i > 0 {
            write!(out, ",")?;
        }
        // ts is microseconds with sub-µs precision kept as decimals.
        let ts = format!("{}.{:03}", event.t_sim / 1_000, event.t_sim % 1_000);
        write!(
            out,
            "\n{{\"name\":{},\"cat\":\"utrr\",\"ph\":\"i\",\"ts\":{ts},\
             \"pid\":1,\"tid\":{},\"s\":\"t\",\"args\":{{\"id\":{}",
            quote(event.kind.as_str()),
            event.bank,
            event.id,
        )?;
        if let Some(row) = event.row {
            write!(out, ",\"row\":{row}")?;
        }
        for (key, value) in &event.fields {
            write!(out, ",{}:{value}", quote(key))?;
        }
        if !event.detail.is_empty() {
            write!(out, ",\"detail\":{}", quote(&event.detail))?;
        }
        if !event.evidence.is_empty() {
            write!(out, ",\"evidence\":{}", u64_list(&event.evidence))?;
        }
        write!(out, "}}}}")?;
    }
    writeln!(out, "\n]}}")
}

/// Writes `events` to `path` as Chrome `trace_event` JSON (instant
/// events, `ts` in microseconds, one `tid` per bank).
pub fn write_chrome_trace_to_path(events: &[TraceEvent], path: &std::path::Path) -> io::Result<()> {
    let mut file = io::BufWriter::new(std::fs::File::create(path)?);
    write_chrome_trace(events, &mut file)?;
    io::Write::flush(&mut file)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn event(recorder: &FlightRecorder, kind: TraceKind, row: Option<u32>) -> Option<u64> {
        recorder.record(kind, 100, 0, row, &[("n", 1)], "")
    }

    #[test]
    fn filter_parses_lists_and_ranges() {
        let filter = TraceFilter::parse("41, 100-103").unwrap();
        assert!(filter.admits(Some(41)));
        assert!(filter.admits(Some(43))); // within radius 2
        assert!(!filter.admits(Some(44)));
        assert!(filter.admits(Some(101)));
        assert!(filter.admits(Some(105)));
        assert!(!filter.admits(Some(106)));
        assert!(filter.admits(None));
        assert!(TraceFilter::parse("all").unwrap().tracks_all());
        assert!(TraceFilter::parse("").unwrap().tracks_all());
        for bad in ["x", "5-1", "1-9999999999", "1-x"] {
            assert!(TraceFilter::parse(bad).is_err(), "should reject {bad:?}");
        }
    }

    #[test]
    fn ring_drops_oldest_first_and_counts() {
        let recorder = FlightRecorder::new(4, TraceFilter::all());
        for i in 0..10u32 {
            event(&recorder, TraceKind::Act, Some(i)).unwrap();
        }
        let (events, dropped) = recorder.snapshot();
        assert_eq!(dropped, 6);
        let rows: Vec<u32> = events.iter().map(|e| e.row.unwrap()).collect();
        assert_eq!(rows, vec![6, 7, 8, 9]);
        let ids: Vec<u64> = events.iter().map(|e| e.id).collect();
        assert_eq!(ids, vec![7, 8, 9, 10]);
    }

    #[test]
    fn filtered_events_allocate_no_ids() {
        let recorder = FlightRecorder::new(16, TraceFilter::parse("5").unwrap());
        assert_eq!(event(&recorder, TraceKind::Act, Some(50)), None);
        assert_eq!(event(&recorder, TraceKind::Act, Some(5)), Some(1));
        assert_eq!(event(&recorder, TraceKind::Verdict, None), Some(2));
        assert_eq!(recorder.len(), 2);
    }

    #[test]
    fn evidence_for_row_is_recent_and_ordered() {
        let recorder = FlightRecorder::new(64, TraceFilter::all());
        for _ in 0..5 {
            event(&recorder, TraceKind::Act, Some(10)).unwrap();
        }
        event(&recorder, TraceKind::Act, Some(99)).unwrap();
        let ids = recorder.evidence_for_row(10, 3);
        assert_eq!(ids, vec![3, 4, 5]);
        assert_eq!(recorder.evidence_for_row(11, 10).len(), 5); // radius 2
        assert!(recorder.evidence_for_row(500, 10).is_empty());
    }

    #[test]
    fn jsonl_round_trip_is_identity() {
        let recorder = FlightRecorder::new(64, TraceFilter::all());
        recorder.record(TraceKind::Act, 1_000, 0, Some(41), &[("count", 5000)], "");
        recorder.record(TraceKind::TrrDetect, 2_000, 1, Some(41), &[("weight", 3)], "counter");
        recorder.record_with_evidence(
            TraceKind::Verdict,
            3_000,
            0,
            None,
            &[("hits", 2)],
            "ratio \"2\"",
            &[1, 2],
        );
        let (events, dropped) = recorder.snapshot();
        let mut buffer = Vec::new();
        write_trace_jsonl(&events, dropped, &mut buffer).unwrap();
        let text = String::from_utf8(buffer).unwrap();
        let (parsed, parsed_dropped) = read_trace_jsonl(&text).unwrap();
        assert_eq!(parsed, events);
        assert_eq!(parsed_dropped, dropped);
    }

    #[test]
    fn read_rejects_bad_artifacts() {
        for bad in [
            "{\"type\":\"meta\",\"schema\":\"other/9\",\"events\":0,\"dropped\":0}",
            "{\"type\":\"trace\",\"id\":1}",
            "{\"type\":\"mystery\"}",
            "not json",
        ] {
            assert!(read_trace_jsonl(bad).is_err(), "should reject {bad:?}");
        }
    }

    #[test]
    fn chrome_trace_is_valid_json_with_one_entry_per_event() {
        let recorder = FlightRecorder::new(64, TraceFilter::all());
        recorder.record(TraceKind::Act, 1_500, 2, Some(7), &[("count", 3)], "x\"y");
        recorder.record(TraceKind::Verdict, 2_500, 0, None, &[], "");
        let (events, _) = recorder.snapshot();
        let mut buffer = Vec::new();
        write_chrome_trace(&events, &mut buffer).unwrap();
        let text = String::from_utf8(buffer).unwrap();
        let value = crate::jsonl::parse_json(text.trim()).unwrap();
        let entries = value.get("traceEvents").unwrap().as_array().unwrap();
        assert_eq!(entries.len(), 2);
        assert_eq!(entries[0].get("name").unwrap().as_str(), Some("act"));
        assert_eq!(entries[0].get("tid").unwrap().as_u64(), Some(2));
        assert_eq!(entries[0].get("args").unwrap().get("row").unwrap().as_u64(), Some(7));
        assert_eq!(entries[0].get("ts").unwrap().as_f64(), Some(1.5));
    }
}
