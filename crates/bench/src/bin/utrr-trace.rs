//! Flight-recorder trace explorer.
//!
//! `explain` renders the causal chain behind each verdict in a JSONL
//! trace (schema `utrr-trace/1`) as a per-row timeline — ACT → TRR
//! detection → targeted REF → flip/no-flip read-back → verdict — by
//! walking the verdict's evidence links transitively. `chrome` converts
//! a JSONL trace into Chrome `trace_event` JSON for chrome://tracing or
//! Perfetto.
//!
//! Usage:
//!   utrr-trace explain TRACE.jsonl [--row N] [--limit N]
//!   utrr-trace chrome TRACE.jsonl OUT.json

use std::collections::{BTreeSet, HashMap};
use std::fmt::Write as _;

use obs::{TraceEvent, TraceFilter, TraceKind};
use utrr_bench::{arg_or, arg_value};

/// Prints an accumulated report, ignoring broken pipes (`… | head`).
fn flush_report(report: &str) {
    use std::io::Write as _;
    let _ = std::io::stdout().write_all(report.as_bytes());
}

fn usage() -> ! {
    eprintln!("usage: utrr-trace explain TRACE.jsonl [--row N] [--limit N]");
    eprintln!("       utrr-trace chrome TRACE.jsonl OUT.json");
    std::process::exit(2);
}

fn load(path: &str) -> (Vec<TraceEvent>, u64) {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("error: cannot read {path}: {e}");
        std::process::exit(1);
    });
    obs::trace::read_trace_jsonl(&text).unwrap_or_else(|e| {
        eprintln!("error: {path} is not a {} trace: {e}", obs::TRACE_SCHEMA);
        std::process::exit(1);
    })
}

/// Transitive evidence closure of one verdict: the cited events, the
/// events *they* cite (sub-verdicts cite read-checks), and so on.
fn evidence_closure(root: &TraceEvent, by_id: &HashMap<u64, &TraceEvent>) -> Vec<u64> {
    let mut seen = BTreeSet::new();
    let mut frontier: Vec<u64> = root.evidence.clone();
    while let Some(id) = frontier.pop() {
        if seen.insert(id) {
            if let Some(event) = by_id.get(&id) {
                frontier.extend(event.evidence.iter().copied());
            }
        }
    }
    seen.into_iter().collect()
}

fn render_event(report: &mut String, event: &TraceEvent, marker: &str) {
    let row = event.row.map_or("    -".to_string(), |r| format!("{r:>5}"));
    let fields: Vec<String> = event.fields.iter().map(|(k, v)| format!("{k}={v}")).collect();
    let mut line = format!(
        "  {marker} {:>14} ns  #{:<8} {:<14} bank {:<2} row {row}  {}",
        event.t_sim,
        event.id,
        event.kind.as_str(),
        event.bank,
        fields.join(" "),
    );
    if !event.detail.is_empty() {
        line.push_str(&format!("  \"{}\"", event.detail));
    }
    let _ = writeln!(report, "{}", line.trim_end());
}

fn explain(path: &str, args: &[String]) {
    let row_filter: Option<u32> = arg_value(args, "--row").map(|v| {
        v.parse().unwrap_or_else(|_| {
            eprintln!("error: --row expects a physical row index");
            std::process::exit(2);
        })
    });
    let limit: usize = arg_or(args, "--limit", 20);

    let (events, dropped) = load(path);
    let mut report = String::new();
    let _ = writeln!(report, "# {} — {} events, {} dropped", path, events.len(), dropped);
    let by_id: HashMap<u64, &TraceEvent> = events.iter().map(|e| (e.id, e)).collect();

    // A verdict is "about" a row when it carries that row directly or
    // when any event in its evidence closure does (within the filter
    // radius, so aggressors of a tracked victim count).
    let near = |event: &TraceEvent, row: u32| {
        event.row.is_some_and(|r| r.abs_diff(row) <= TraceFilter::RADIUS)
    };
    let verdicts: Vec<&TraceEvent> = events
        .iter()
        .filter(|e| e.kind == TraceKind::Verdict)
        .filter(|e| match row_filter {
            None => true,
            Some(row) => {
                near(e, row)
                    || evidence_closure(e, &by_id)
                        .iter()
                        .any(|id| by_id.get(id).is_some_and(|ev| near(ev, row)))
            }
        })
        .collect();

    if verdicts.is_empty() {
        match row_filter {
            Some(row) => {
                let _ = writeln!(report, "no verdicts touch row {row}");
            }
            None => {
                let _ = writeln!(report, "no verdicts in trace");
            }
        }
        flush_report(&report);
        return;
    }
    let _ = writeln!(
        report,
        "# {} verdict(s){}{}",
        verdicts.len(),
        row_filter.map_or(String::new(), |r| format!(" touching row {r}")),
        if verdicts.len() > limit { format!(", showing first {limit}") } else { String::new() },
    );

    for verdict in verdicts.iter().take(limit) {
        let _ = writeln!(report);
        render_event(&mut report, verdict, "==");
        let closure = evidence_closure(verdict, &by_id);
        let mut chain: Vec<&TraceEvent> =
            closure.iter().filter_map(|id| by_id.get(id).copied()).collect();
        let missing = closure.len() - chain.len();
        chain.sort_by_key(|e| (e.t_sim, e.id));
        for event in chain {
            let marker = if event.kind == TraceKind::Verdict { "--" } else { "  " };
            render_event(&mut report, event, marker);
        }
        if missing > 0 {
            let _ = writeln!(report, "     ({missing} cited event(s) no longer in the ring)");
        }
    }
    flush_report(&report);
}

fn chrome(trace_path: &str, out_path: &str) {
    let (events, dropped) = load(trace_path);
    obs::trace::write_chrome_trace_to_path(&events, std::path::Path::new(out_path)).unwrap_or_else(
        |e| {
            eprintln!("error: cannot write {out_path}: {e}");
            std::process::exit(1);
        },
    );
    println!("{out_path}: {} events ({dropped} dropped before export)", events.len());
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("explain") => match args.get(1) {
            Some(path) => explain(path, &args[2..]),
            None => usage(),
        },
        Some("chrome") => match (args.get(1), args.get(2)) {
            (Some(trace_path), Some(out_path)) => chrome(trace_path, out_path),
            _ => usage(),
        },
        _ => usage(),
    }
}
