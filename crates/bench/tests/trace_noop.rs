//! The flight-recorder contract, end to end: tracing must never change
//! what a repro binary computes or prints. These tests drive the real
//! binaries (via `CARGO_BIN_EXE_*`) at 1, 2, and 8 worker threads and
//! under `--faults none|mild`, and assert stdout is byte-identical
//! across thread counts and with tracing switched on — the recorder is
//! observation only, never a participant.

use std::path::PathBuf;
use std::process::Command;

/// Runs one binary with the given extra flags and returns its stdout
/// bytes, failing the test if the binary exits non-zero.
fn stdout_of(exe: &str, base: &[&str], extra: &[&str]) -> Vec<u8> {
    let out = Command::new(exe)
        .args(base)
        .args(extra)
        .output()
        .unwrap_or_else(|e| panic!("cannot spawn {exe}: {e}"));
    assert!(
        out.status.success(),
        "{exe} {base:?} {extra:?} exited {:?}:\n{}",
        out.status.code(),
        String::from_utf8_lossy(&out.stderr),
    );
    out.stdout
}

fn trace_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("utrr_trace_noop_{tag}.jsonl"))
}

/// The shared matrix: byte-identical stdout at 1/2/8 threads (faults
/// off and on), and byte-identical stdout when a trace artifact is
/// being recorded alongside.
fn assert_trace_is_stdout_noop(tag: &str, exe: &str, base: &[&str]) {
    let clean = stdout_of(exe, base, &["--threads", "1", "--faults", "none"]);
    assert!(!clean.is_empty(), "{exe} printed nothing");
    for threads in ["2", "8"] {
        assert_eq!(
            stdout_of(exe, base, &["--threads", threads, "--faults", "none"]),
            clean,
            "{exe} stdout diverged at {threads} threads (faults none)",
        );
    }

    let mild = stdout_of(exe, base, &["--threads", "2", "--faults", "mild"]);
    assert_eq!(
        stdout_of(exe, base, &["--threads", "8", "--faults", "mild"]),
        mild,
        "{exe} stdout diverged at 8 threads (faults mild)",
    );

    // Tracing on: stdout must stay identical; only stderr gains the
    // artifact pointer. A narrow row filter keeps artifacts small.
    let jsonl = trace_path(tag);
    let jsonl_arg = jsonl.to_str().expect("temp path is utf-8");
    let traced = stdout_of(
        exe,
        base,
        &["--threads", "2", "--faults", "none", "--trace-out", jsonl_arg, "--trace-rows", "0-64"],
    );
    assert_eq!(traced, clean, "{exe} stdout changed when tracing was enabled");
    let text = std::fs::read_to_string(&jsonl).expect("trace artifact written");
    assert!(
        text.lines().next().is_some_and(|l| l.contains(obs::TRACE_SCHEMA)),
        "{exe} trace artifact lacks the {} schema header",
        obs::TRACE_SCHEMA,
    );
    let _ = std::fs::remove_file(&jsonl);

    let jsonl = trace_path(&format!("{tag}_mild"));
    let jsonl_arg = jsonl.to_str().expect("temp path is utf-8");
    let traced_mild = stdout_of(
        exe,
        base,
        &["--threads", "2", "--faults", "mild", "--trace-out", jsonl_arg, "--trace-rows", "0-64"],
    );
    assert_eq!(traced_mild, mild, "{exe} stdout changed when tracing was enabled (faults mild)");
    let _ = std::fs::remove_file(&jsonl);
}

const QUICK: &[&str] = &["--rows", "2048", "--samples", "2", "--windows", "1", "--modules", "A5"];
/// `repro-fig8` sweeps its three fixed modules and takes no `--modules`.
const QUICK_FIG8: &[&str] = &["--rows", "2048", "--samples", "2", "--windows", "1"];
const QUICK_NO_MODULES: &[&str] = &["--rows", "2048", "--samples", "2"];

#[test]
fn repro_fig9_trace_is_stdout_noop() {
    assert_trace_is_stdout_noop("fig9", env!("CARGO_BIN_EXE_repro-fig9"), QUICK);
}

#[test]
fn repro_fig8_trace_is_stdout_noop() {
    assert_trace_is_stdout_noop("fig8", env!("CARGO_BIN_EXE_repro-fig8"), QUICK_FIG8);
}

#[test]
fn repro_fig10_trace_is_stdout_noop() {
    assert_trace_is_stdout_noop("fig10", env!("CARGO_BIN_EXE_repro-fig10"), QUICK);
}

#[test]
fn repro_table1_trace_is_stdout_noop() {
    assert_trace_is_stdout_noop("table1", env!("CARGO_BIN_EXE_repro-table1"), QUICK);
}

#[test]
fn ablations_trace_is_stdout_noop() {
    assert_trace_is_stdout_noop("ablations", env!("CARGO_BIN_EXE_ablations"), QUICK_NO_MODULES);
}

#[test]
fn secure_mitigations_trace_is_stdout_noop() {
    assert_trace_is_stdout_noop(
        "secure",
        env!("CARGO_BIN_EXE_secure-mitigations"),
        QUICK_NO_MODULES,
    );
}

/// The `utrr-trace explain` view of an artifact is itself reproducible:
/// two identical traced runs yield byte-identical timelines.
#[test]
fn explain_timeline_is_reproducible() {
    let exe = env!("CARGO_BIN_EXE_repro-fig9");
    let reports: Vec<Vec<u8>> = (0..2)
        .map(|i| {
            let jsonl = trace_path(&format!("explain_{i}"));
            let jsonl_arg = jsonl.to_str().expect("temp path is utf-8");
            stdout_of(
                exe,
                QUICK,
                &["--threads", "2", "--trace-out", jsonl_arg, "--trace-rows", "all"],
            );
            let report = stdout_of(
                env!("CARGO_BIN_EXE_utrr-trace"),
                &["explain", jsonl_arg],
                &["--limit", "3"],
            );
            let _ = std::fs::remove_file(&jsonl);
            // The header line embeds the artifact path, which differs
            // per run; the timeline below it must not.
            let header_end = report.iter().position(|&b| b == b'\n').map_or(0, |p| p + 1);
            report[header_end..].to_vec()
        })
        .collect();
    assert!(!reports[0].is_empty());
    assert_eq!(reports[0], reports[1], "explain output differs between identical runs");
}
