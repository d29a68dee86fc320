//! Summary statistics, span self time, and the result line.

/// The `p`-quantile of `values` by the "exclusive" rule Python's
/// `statistics.quantiles` uses (position `(n+1)·p`, linear
/// interpolation, clamped to the sample range). 0 for no values.
pub fn quantile(values: &[f64], p: f64) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n == 0 {
        return 0.0;
    }
    let position = ((n + 1) as f64 * p).clamp(1.0, n as f64);
    let below = position.floor() as usize;
    let fraction = position - below as f64;
    let low = sorted[below - 1];
    let high = sorted[below.min(n - 1)];
    low + (high - low) * fraction
}

/// The median of `values`.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The highest of p50, p90, p99 and p99.9 that has at least ten of `n`
/// samples above it, as a fraction; `None` below 20 samples.
pub fn tail_level(n: usize) -> Option<f64> {
    [0.999, 0.99, 0.9, 0.5]
        .into_iter()
        .find(|&p| n.saturating_sub((p * n as f64).ceil() as usize) >= 10)
}

/// A timing's tail: the value at [`tail_level`], or the maximum when
/// there are too few samples for any level. Returns the value and its
/// label (`p90`, `max`).
pub fn tail(values: &[f64]) -> (f64, String) {
    match tail_level(values.len()) {
        Some(p) => (quantile(values, p), format!("p{}", p * 100.0)),
        None => (values.iter().copied().fold(0.0, f64::max), "max".into()),
    }
}

/// Self time of a span `[start, end)`: its length minus the part the
/// union of its children's intervals covers. Children may nest or
/// overlap each other.
pub fn self_time(start: u64, end: u64, children: &[(u64, u64)]) -> u64 {
    let mut clipped: Vec<(u64, u64)> =
        children.iter().map(|&(s, e)| (s.max(start), e.min(end))).filter(|(s, e)| s < e).collect();
    clipped.sort_unstable();
    let mut covered = 0;
    let mut reach = start;
    for (s, e) in clipped {
        let s = s.max(reach);
        if e > s {
            covered += e - s;
            reach = e;
        }
    }
    end.saturating_sub(start) - covered
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
    /// Samples behind the value (calls, child runs, kernel reps).
    pub samples: usize,
    /// How the value was taken (`median`, `p90`, `pooled`, `count`…).
    pub note: String,
}

/// Children or replays attempted, and how many failed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Attempted.
    pub attempted: u64,
    /// Failed: nonzero exit, failed output check, or outputs that
    /// differ between repeats.
    pub failed: u64,
}

impl Tally {
    /// Counts one attempt, reporting a failure on stderr.
    pub fn record(&mut self, what: &str, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(reason) = outcome {
            self.failed += 1;
            eprintln!("FAILED {what}: {reason}");
        }
    }
}

/// Prints the human-readable metric table, then the result line: one
/// JSON object with `correct`, `attempted`, `failed` and `metrics`.
pub fn print_report(tally: Tally, metrics: &[Metric]) {
    for m in metrics {
        println!(
            "{:<34} {:>16} {:<9} n={:<6} {}",
            m.name,
            format!("{:.6}", m.value),
            m.unit,
            m.samples,
            m.note
        );
    }
    println!("{}", result_line(tally, metrics));
}

/// The result line.
pub fn result_line(tally: Tally, metrics: &[Metric]) -> String {
    let fields: Vec<String> = metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "{}:{{\"value\":{value},\"unit\":{}}}",
                obs::jsonl::quote(m.name),
                obs::jsonl::quote(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        tally.failed == 0 && tally.attempted > 0,
        tally.attempted,
        tally.failed,
        fields.join(",")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_match_pythons_exclusive_rule() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.25), 2.75);
        assert_eq!(median(&v), 5.5);
        assert_eq!(quantile(&v, 0.75), 8.25);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let v = [3.0, 1.0, 2.0];
        assert_eq!((quantile(&v, 0.25), median(&v), quantile(&v, 0.75)), (1.0, 2.0, 3.0));
        assert_eq!(median(&[4.0]), 4.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_level_keeps_ten_samples_beyond() {
        assert_eq!(tail_level(19), None);
        assert_eq!(tail_level(20), Some(0.5));
        assert_eq!(tail_level(99), Some(0.5));
        assert_eq!(tail_level(100), Some(0.9));
        assert_eq!(tail_level(1_000), Some(0.99));
        assert_eq!(tail_level(10_000), Some(0.999));
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&v).1, "p90");
        assert_eq!(tail(&[1.0, 7.0, 3.0]), (7.0, "max".to_string()));
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        assert_eq!(self_time(0, 100, &[]), 100);
        // Nested: a grandchild inside a child covers nothing extra.
        assert_eq!(self_time(0, 100, &[(10, 40), (20, 30)]), 70);
        // Overlapping children count their union once.
        assert_eq!(self_time(0, 100, &[(10, 40), (30, 60), (80, 90)]), 40);
        // Children poking outside the parent are clipped to it.
        assert_eq!(self_time(50, 100, &[(0, 60), (90, 200)]), 30);
        assert_eq!(self_time(0, 10, &[(0, 10)]), 0);
    }

    #[test]
    fn result_line_counts_failures() {
        let m =
            Metric { name: "setup_s", value: 0.25, unit: "s", samples: 3, note: "median".into() };
        let mut tally = Tally::default();
        tally.record("child 0", Ok(()));
        assert_eq!(
            result_line(tally, std::slice::from_ref(&m)),
            r#"{"correct":true,"attempted":1,"failed":0,"metrics":{"setup_s":{"value":0.25,"unit":"s"}}}"#
        );
        tally.record("child 1", Err("digest mismatch".into()));
        assert_eq!(tally, Tally { attempted: 2, failed: 1 });
        assert!(
            result_line(tally, &[m]).starts_with(r#"{"correct":false,"attempted":2,"failed":1,"#)
        );
        let parsed = obs::jsonl::parse_json(&result_line(tally, &[])).unwrap();
        assert_eq!(parsed.get("failed").and_then(|v| v.as_u64()), Some(1));
    }
}
