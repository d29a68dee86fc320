//! The untraced run: spawn one workload's binary repeatedly for the
//! run's time budget and report the end-to-end metrics.
//!
//! Load model: a closed loop with one client — one child at a time,
//! each with `--threads 2`. The first child runs the population of the
//! run's `--seed` and is checked but not timed (it also warms the page
//! cache). Every timed child then runs the same input, program seed
//! [`TIMED_SEED`], and must reproduce its pinned outputs: module and
//! candidate costs vary several-fold between populations, so timing a
//! different population per run would bury a 10% regression in input
//! noise, while identical timed children leave only host noise.

use crate::child::{self, ChildRun};
use crate::stats::{median, quantile, Metric, Tally};
use crate::workload::{Output, Workload};
use crate::Context;

/// Program seed of every timed child.
pub const TIMED_SEED: u64 = 1;

/// Runs one child with program seed `seed`, checks its outputs (against
/// `reference` when given) and tallies the outcome.
///
/// # Errors
///
/// Spawn and I/O failures of the benchmark itself; a failing child is
/// tallied, not an error.
pub fn checked_child(
    ctx: &Context,
    workload: Workload,
    seed: u64,
    label: &str,
    reference: Option<&Output>,
    tally: &mut Tally,
) -> std::io::Result<(ChildRun, Option<Output>)> {
    let dir = ctx.work_dir(workload)?;
    workload.clean(&dir)?;
    let args = workload.args(seed);
    let run = child::run(&ctx.binary(workload.binary()), &args, &dir)?;
    let output = if run.success { workload.collect(&run.stdout, &dir).ok() } else { None };
    let outcome = match &output {
        Some(out) => workload.check(seed, out, reference),
        None if run.success => Err("artifact missing".into()),
        None => Err(format!("nonzero exit, see {}", dir.join("child.stderr").display())),
    };
    let summary = output.as_ref().map(|out| workload.accuracy(out)).unwrap_or_default();
    println!(
        "{label}: {} {}\n  wall {:.3} s, cpu {:.3} s, rss {:.1} MB, first line {:.1} ms; {summary}",
        workload.binary(),
        args.join(" "),
        run.wall_s,
        run.cpu_s,
        run.peak_rss_mb,
        run.setup_s * 1e3
    );
    tally.record(&format!("{} {label}", workload.name()), outcome);
    Ok((run, output))
}

/// One untraced run of `workload` for about `seconds`.
///
/// # Errors
///
/// See [`checked_child`].
pub fn run(
    ctx: &Context,
    workload: Workload,
    seed: u64,
    seconds: f64,
) -> std::io::Result<(Tally, Vec<Metric>)> {
    let start = std::time::Instant::now();
    let mut tally = Tally::default();
    let (warm_up, _) = checked_child(ctx, workload, seed, "warm-up", None, &mut tally)?;
    let mut longest = warm_up.wall_s;
    let mut timed: Vec<ChildRun> = Vec::new();
    // Start another child only if it should finish within budget.
    while timed.is_empty() || start.elapsed().as_secs_f64() + longest <= seconds {
        let label = format!("timed {}", timed.len());
        let (run, _) = checked_child(ctx, workload, TIMED_SEED, &label, None, &mut tally)?;
        longest = longest.max(run.wall_s);
        timed.push(run);
    }
    Ok((tally, end_to_end(workload, &timed)))
}

/// The end-to-end metrics: medians over the timed children.
pub fn end_to_end(workload: Workload, timed: &[ChildRun]) -> Vec<Metric> {
    let items = workload.items() as f64;
    let summary = |name, unit, f: &dyn Fn(&ChildRun) -> f64| {
        let values: Vec<f64> = timed.iter().map(f).collect();
        Metric {
            name,
            value: median(&values),
            unit,
            samples: values.len(),
            note: format!(
                "median [q1 {:.6}, q3 {:.6}]",
                quantile(&values, 0.25),
                quantile(&values, 0.75)
            ),
        }
    };
    vec![
        summary("items_per_s", "1/s", &|r| items / r.wall_s),
        summary("cpu_s", "s", &|r| r.cpu_s),
        summary("peak_rss_mb", "MB", &|r| r.peak_rss_mb),
        summary("setup_s", "s", &|r| r.setup_s),
    ]
}
