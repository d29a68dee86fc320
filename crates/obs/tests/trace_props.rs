//! Property tests on the flight recorder: JSONL round-trip identity
//! and oldest-first ring overflow with a monotonic drop counter.

use proptest::prelude::*;

use obs::trace::{read_trace_jsonl, write_trace_jsonl, FlightRecorder, TraceFilter, TraceKind};

const KINDS: [TraceKind; 13] = [
    TraceKind::Act,
    TraceKind::Ref,
    TraceKind::BitFlip,
    TraceKind::ReadCheck,
    TraceKind::TrrDetect,
    TraceKind::TrrRefresh,
    TraceKind::TrrEvict,
    TraceKind::TrrSample,
    TraceKind::FaultInjected,
    TraceKind::Recovery,
    TraceKind::ScoutRetry,
    TraceKind::ReRetry,
    TraceKind::Verdict,
];

#[derive(Debug, Clone)]
struct RawEvent {
    kind_index: usize,
    t_sim: u64,
    bank: u32,
    row: Option<u32>,
    fields: Vec<(String, u64)>,
    detail: String,
    evidence: Vec<u64>,
}

const FIELD_KEYS: [&str; 4] = ["count", "weight", "attempt", "bit"];
const DETAILS: [&str; 5] = ["", "counter", "no_flip", "esc\"aped\\text", "line\nbreak"];

fn raw_event() -> impl Strategy<Value = RawEvent> {
    (
        (
            0usize..KINDS.len(),
            0u64..1 << 48,
            0u32..16,
            // 0 encodes a row-less event; n > 0 encodes row n - 1.
            0u32..1 << 20,
        ),
        prop::collection::vec((0usize..FIELD_KEYS.len(), 0u64..1 << 50), 0..4),
        0usize..DETAILS.len(),
        prop::collection::vec(1u64..1 << 32, 0..5),
    )
        .prop_map(|((kind_index, t_sim, bank, row_code), fields, detail_index, evidence)| {
            RawEvent {
                kind_index,
                t_sim,
                bank,
                row: row_code.checked_sub(1),
                fields: fields
                    .into_iter()
                    .map(|(key_index, value)| (FIELD_KEYS[key_index].to_string(), value))
                    .collect(),
                detail: DETAILS[detail_index].to_string(),
                evidence,
            }
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Emit → JSONL → parse-back reproduces the exact event sequence.
    #[test]
    fn jsonl_round_trip_identity(raws in prop::collection::vec(raw_event(), 0..40)) {
        let recorder = FlightRecorder::new(1024, TraceFilter::all());
        for raw in &raws {
            let fields: Vec<(&str, u64)> =
                raw.fields.iter().map(|(k, v)| (k.as_str(), *v)).collect();
            recorder
                .record_with_evidence(
                    KINDS[raw.kind_index],
                    raw.t_sim,
                    raw.bank,
                    raw.row,
                    &fields,
                    &raw.detail,
                    &raw.evidence,
                )
                .expect("unfiltered recorder stores everything");
        }
        let (events, dropped) = recorder.snapshot();
        prop_assert_eq!(events.len(), raws.len());
        prop_assert_eq!(dropped, 0);

        let mut buffer = Vec::new();
        write_trace_jsonl(&events, dropped, &mut buffer).unwrap();
        let text = String::from_utf8(buffer).unwrap();
        let (parsed, parsed_dropped) = read_trace_jsonl(&text).unwrap();
        prop_assert_eq!(parsed, events);
        prop_assert_eq!(parsed_dropped, dropped);
    }

    /// Overflow always evicts the oldest events, the survivors are the
    /// most recent `capacity` in order, and the drop count counts
    /// exactly the evictions, monotonically.
    #[test]
    fn ring_overflow_drops_oldest_first(
        capacity in 1usize..32,
        total in 0usize..128,
    ) {
        let recorder = FlightRecorder::new(capacity, TraceFilter::all());
        let mut last_dropped = 0u64;
        for i in 0..total {
            recorder.record(TraceKind::Act, i as u64, 0, Some(i as u32), &[], "");
            let dropped = recorder.snapshot().1;
            prop_assert!(dropped >= last_dropped, "drop counter went backwards");
            last_dropped = dropped;
        }
        let (events, dropped) = recorder.snapshot();
        let expected_kept = total.min(capacity);
        prop_assert_eq!(events.len(), expected_kept);
        prop_assert_eq!(dropped, (total - expected_kept) as u64);
        // Survivors are exactly the newest `expected_kept`, oldest
        // first, with contiguous monotonic ids.
        for (offset, event) in events.iter().enumerate() {
            let expected_index = total - expected_kept + offset;
            prop_assert_eq!(event.id, expected_index as u64 + 1);
            prop_assert_eq!(event.row, Some(expected_index as u32));
        }
    }
}
