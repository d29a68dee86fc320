//! Deterministic scoped worker pool for embarrassingly parallel sweeps.
//!
//! The bench binaries evaluate the same U-TRR methodology independently
//! across 45 modules (Table 1) or across hammer-count grid points
//! (Fig. 8) — work that parallelises trivially *if* the parallel run
//! stays bit-identical to the sequential one. This crate provides that
//! guarantee with `std` only (the build environment has no registry
//! access, so rayon is not an option):
//!
//! - [`par_map`] / [`par_map_indexed`] fan a slice out over a scoped
//!   worker pool. Workers pull task indices from one atomic cursor, so
//!   scheduling is dynamic, but every result lands in an output slot
//!   keyed by its **input index** — the returned `Vec` is always in
//!   input order regardless of completion order.
//! - Tasks that need randomness derive their stream with
//!   [`task_seed`], which delegates to `dram_sim::rng::derive_seed`.
//!   The seed depends only on `(base_seed, task_index)`, never on the
//!   executing worker, so `--threads 8` and `--threads 1` hammer the
//!   same rows in the same order within each task.
//! - A panicking task does not poison its siblings: panics are caught
//!   per task and the first one (by input index, for determinism) is
//!   re-raised on the caller's thread after the pool drains.
//! - With a [`MetricsRegistry`] attached, the pool reports
//!   `par.tasks`, `par.queue_wait_ns` / `par.task_ns` histograms, and
//!   one `par.worker` span per worker into the standard `utrr-obs/3`
//!   artifact.
//!
//! Thread count resolution (CLI `--threads` → `UTRR_THREADS` env →
//! available parallelism) lives in [`resolve_threads`] so all six
//! bench binaries agree on the precedence.

use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use obs::MetricsRegistry;

/// Environment variable consulted when no `--threads` flag is given.
pub(crate) const THREADS_ENV: &str = "UTRR_THREADS";

/// Number of hardware threads, with a safe floor of 1.
pub(crate) fn available_threads() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// Resolves the worker count: explicit request (e.g. `--threads N`),
/// else the `UTRR_THREADS` environment variable, else available
/// parallelism. Zero and unparsable values fall through to the next
/// source.
pub fn resolve_threads(requested: Option<usize>) -> usize {
    requested
        .filter(|&n| n > 0)
        .or_else(|| {
            std::env::var(THREADS_ENV).ok().and_then(|v| v.trim().parse().ok()).filter(|&n| n > 0)
        })
        .unwrap_or_else(available_threads)
}

/// Derives the RNG seed for one task of a sweep.
///
/// Pure function of `(base_seed, task_index)` via the splitmix-based
/// `dram_sim::rng::derive_seed`, so results cannot depend on which
/// worker picked the task up.
pub fn task_seed(base_seed: u64, task_index: u64) -> u64 {
    dram_sim::rng::derive_seed(base_seed, task_index)
}

/// How a [`par_map`] call should run.
#[derive(Debug, Clone, Default)]
pub struct ParConfig {
    /// Worker count; `0` means "use [`available_threads`]". Always
    /// clamped to the task count so short sweeps don't spawn idle
    /// threads.
    pub threads: usize,
    /// Registry receiving pool metrics and per-worker spans.
    pub registry: Option<Arc<MetricsRegistry>>,
}

impl ParConfig {
    /// Single-threaded, unmetered — runs tasks inline on the caller.
    pub fn sequential() -> Self {
        ParConfig { threads: 1, registry: None }
    }

    /// Unmetered pool with an explicit worker count. Kept for the
    /// thread-count sweeps of `determinism.rs`, `hostile_resilience.rs`
    /// and `resume_determinism.rs`.
    pub fn with_threads(threads: usize) -> Self {
        ParConfig { threads, registry: None }
    }

    /// Pool with metrics reporting into `registry`.
    pub fn metered(threads: usize, registry: Arc<MetricsRegistry>) -> Self {
        ParConfig { threads, registry: Some(registry) }
    }

    fn effective_threads(&self, tasks: usize) -> usize {
        let requested = if self.threads == 0 { available_threads() } else { self.threads };
        requested.clamp(1, tasks.max(1))
    }
}

struct PoolMetrics {
    tasks: obs::Counter,
    queue_wait_ns: obs::Histogram,
    task_ns: obs::Histogram,
}

impl PoolMetrics {
    fn attach(registry: &MetricsRegistry) -> Self {
        PoolMetrics {
            tasks: registry.counter("par.tasks"),
            queue_wait_ns: registry.histogram("par.queue_wait_ns"),
            task_ns: registry.histogram("par.task_ns"),
        }
    }

    fn record(&self, picked_at: Instant, pool_start: Instant, done_at: Instant) {
        self.tasks.inc();
        self.queue_wait_ns.record(picked_at.duration_since(pool_start).as_nanos() as u64);
        self.task_ns.record(done_at.duration_since(picked_at).as_nanos() as u64);
    }
}

/// Maps `f` over `items` on a worker pool; results are returned in
/// input order. See [`par_map_indexed`] for the full contract.
pub fn par_map<T, R, F>(config: &ParConfig, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    par_map_indexed(config, items, |_, item| f(item))
}

/// Maps `f(index, item)` over `items` on a scoped worker pool.
///
/// Guarantees:
/// - `out[i] == f(i, &items[i])` — output order is input order, no
///   matter which worker ran which task or in what order they
///   finished.
/// - With `threads == 1` tasks run inline on the calling thread in
///   index order, making the pool a zero-cost shim for sequential
///   baselines.
/// - If any task panics, the panic payload with the **lowest task
///   index** is re-raised after all workers drain (so the surfaced
///   failure is deterministic too).
pub(crate) fn par_map_indexed<T, R, F>(config: &ParConfig, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let n = items.len();
    if n == 0 {
        return Vec::new();
    }
    let threads = config.effective_threads(n);
    let metrics = config.registry.as_deref().map(PoolMetrics::attach);
    let pool_start = Instant::now();

    if threads == 1 {
        let mut span = config.registry.as_ref().map(|r| opened_worker_span(r, 0));
        let out = items
            .iter()
            .enumerate()
            .map(|(i, item)| {
                let picked = Instant::now();
                let result = f(i, item);
                if let Some(m) = &metrics {
                    m.record(picked, pool_start, Instant::now());
                }
                result
            })
            .collect();
        if let Some(span) = &mut span {
            span.set_field("tasks", n as u64);
        }
        return out;
    }

    let cursor = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<std::thread::Result<R>>>> =
        (0..n).map(|_| Mutex::new(None)).collect();

    std::thread::scope(|scope| {
        for worker in 0..threads {
            let f = &f;
            let cursor = &cursor;
            let slots = &slots;
            let metrics = metrics.as_ref();
            let registry = config.registry.clone();
            scope.spawn(move || {
                let mut span = registry.as_ref().map(|r| opened_worker_span(r, worker as u64));
                let mut executed = 0u64;
                loop {
                    let index = cursor.fetch_add(1, Ordering::Relaxed);
                    if index >= n {
                        break;
                    }
                    let picked = Instant::now();
                    let result = catch_unwind(AssertUnwindSafe(|| f(index, &items[index])));
                    if let Some(m) = metrics {
                        m.record(picked, pool_start, Instant::now());
                    }
                    *slots[index].lock().expect("result slot poisoned") = Some(result);
                    executed += 1;
                }
                if let Some(span) = &mut span {
                    span.set_field("tasks", executed);
                }
            });
        }
    });

    let mut out = Vec::with_capacity(n);
    let mut first_panic: Option<Box<dyn Any + Send>> = None;
    for slot in slots {
        let result = slot
            .into_inner()
            .expect("result slot poisoned")
            .expect("scoped worker exited without filling its slot");
        match result {
            Ok(value) => out.push(value),
            Err(payload) => {
                first_panic.get_or_insert(payload);
            }
        }
    }
    if let Some(payload) = first_panic {
        resume_unwind(payload);
    }
    out
}

/// Maps `f(index, seed, item)` with a per-task seed derived from
/// `base_seed` — the common shape for randomised sweeps.
pub fn par_map_seeded<T, R, F>(config: &ParConfig, base_seed: u64, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, u64, &T) -> R + Sync,
{
    par_map_indexed(config, items, |i, item| f(i, task_seed(base_seed, i as u64), item))
}

/// The `par.worker` span of `worker`, open from the worker's start until
/// the guard drops after its last task; its caller adds the `tasks`
/// field once the count is known.
fn opened_worker_span(registry: &Arc<MetricsRegistry>, worker: u64) -> obs::SpanGuard {
    let mut guard = MetricsRegistry::span(registry, "par.worker", 0);
    guard.set_field("worker", worker);
    guard
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn results_are_in_input_order_for_every_thread_count() {
        let items: Vec<u64> = (0..257).collect();
        let expected: Vec<u64> = items.iter().map(|&x| x.wrapping_mul(3) ^ 17).collect();
        for threads in [1, 2, 3, 8, 64] {
            let cfg = ParConfig::with_threads(threads);
            let got = par_map(&cfg, &items, |&x| x.wrapping_mul(3) ^ 17);
            assert_eq!(got, expected, "threads={threads}");
        }
    }

    #[test]
    fn indexed_variant_sees_the_input_index() {
        let items = ["a", "b", "c", "d"];
        let cfg = ParConfig::with_threads(2);
        let got = par_map_indexed(&cfg, &items, |i, s| format!("{i}:{s}"));
        assert_eq!(got, vec!["0:a", "1:b", "2:c", "3:d"]);
    }

    #[test]
    fn zero_threads_means_available_parallelism() {
        let cfg = ParConfig::with_threads(0);
        let got = par_map(&cfg, &[1u64, 2, 3], |&x| x + 1);
        assert_eq!(got, vec![2, 3, 4]);
    }

    #[test]
    fn empty_input_yields_empty_output() {
        let cfg = ParConfig::with_threads(4);
        let got: Vec<u64> = par_map(&cfg, &[] as &[u64], |&x| x);
        assert!(got.is_empty());
    }

    #[test]
    fn every_task_runs_exactly_once() {
        let counter = AtomicU64::new(0);
        let items: Vec<usize> = (0..100).collect();
        let cfg = ParConfig::with_threads(7);
        let _ = par_map(&cfg, &items, |_| counter.fetch_add(1, Ordering::Relaxed));
        assert_eq!(counter.load(Ordering::Relaxed), 100);
    }

    #[test]
    fn panic_with_lowest_index_is_propagated() {
        let items: Vec<usize> = (0..64).collect();
        let cfg = ParConfig::with_threads(8);
        let caught = std::panic::catch_unwind(AssertUnwindSafe(|| {
            par_map_indexed(&cfg, &items, |i, _| {
                if i == 9 || i == 40 {
                    panic!("task {i} failed");
                }
                i
            })
        }));
        let payload = caught.expect_err("pool must re-raise the task panic");
        let message = payload.downcast_ref::<String>().expect("panic payload is the format string");
        assert_eq!(message, "task 9 failed");
    }

    #[test]
    fn seeded_map_is_independent_of_thread_count() {
        let items: Vec<u32> = (0..40).collect();
        let run = |threads| {
            par_map_seeded(&ParConfig::with_threads(threads), 0xDEAD_BEEF, &items, |i, seed, &x| {
                (i, seed, x)
            })
        };
        assert_eq!(run(1), run(8));
    }

    #[test]
    fn task_seeds_do_not_collide_over_a_large_index_range() {
        let mut seen = HashSet::new();
        for index in 0..10_000u64 {
            assert!(seen.insert(task_seed(42, index)), "seed collision at index {index}");
        }
    }

    #[test]
    fn metrics_report_tasks_and_latencies() {
        let registry = MetricsRegistry::shared();
        let cfg = ParConfig::metered(4, Arc::clone(&registry));
        let items: Vec<u64> = (0..32).collect();
        let _ = par_map(&cfg, &items, |&x| x * 2);
        let counters = registry.counters_snapshot();
        let tasks = counters.iter().find(|(name, _)| name == "par.tasks").map(|(_, v)| *v);
        assert_eq!(tasks, Some(32));
        let histograms = registry.histograms_snapshot();
        let task_ns =
            histograms.iter().find(|(name, _)| name == "par.task_ns").map(|(_, snap)| snap.count);
        assert_eq!(task_ns, Some(32));
        let (spans, _) = registry.spans_snapshot();
        assert!(spans.iter().any(|s| s.name == "par.worker"), "worker spans must be recorded");
    }

    #[test]
    fn worker_spans_cover_their_tasks() {
        let registry = MetricsRegistry::shared();
        let cfg = ParConfig::metered(2, Arc::clone(&registry));
        let sleep = std::time::Duration::from_millis(20);
        let _ = par_map(&cfg, &[0u8, 1], |_| std::thread::sleep(sleep));
        let (spans, _) = registry.spans_snapshot();
        let workers: Vec<_> = spans.iter().filter(|s| s.name == "par.worker").collect();
        assert_eq!(workers.len(), 2);
        let mut tasks_seen = 0;
        for span in workers {
            // A worker that started late may find both tasks taken.
            let tasks = span.fields.iter().find(|(k, _)| k == "tasks").unwrap().1;
            assert!(span.wall_ns >= tasks * sleep.as_nanos() as u64, "{span:?}");
            tasks_seen += tasks;
        }
        assert_eq!(tasks_seen, 2);
    }

    #[test]
    fn resolve_threads_prefers_explicit_request() {
        assert_eq!(resolve_threads(Some(6)), 6);
        assert!(resolve_threads(None) >= 1);
        assert!(resolve_threads(Some(0)) >= 1);
    }
}
