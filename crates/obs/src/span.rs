//! Hierarchical timed regions with wall-clock and simulated-time
//! durations, collected into a bounded ring buffer.

use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Mutex};
use std::thread::ThreadId;
use std::time::Instant;

use crate::metrics::MetricsRegistry;

/// Cap on retained closed spans; older spans are evicted (and counted)
/// once the ring is full.
const SPAN_CAPACITY: usize = 16_384;

/// One closed span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// Unique id within the registry, in open order starting at 1.
    pub id: u64,
    /// Id of the enclosing span open on the same thread, if any.
    pub parent: Option<u64>,
    /// Nesting depth (root spans are 0).
    pub depth: u32,
    /// Span name, dotted-path style (`"trr_analyzer.round"`).
    pub name: String,
    /// Attached `key = value` fields in attach order.
    pub fields: Vec<(String, u64)>,
    /// Wall-clock duration, in nanoseconds.
    pub wall_ns: u64,
    /// Simulated time when the span opened, in nanoseconds.
    pub sim_start: u64,
    /// Simulated time when the span closed; equals `sim_start` when the
    /// guard was dropped without [`SpanGuard::finish`].
    pub sim_end: u64,
}

#[derive(Debug, Default)]
struct SpanState {
    ring: VecDeque<SpanRecord>,
    /// Innermost-open span ids, tracked per thread so parallel sweeps
    /// sharing one registry get correct parents.
    stacks: HashMap<ThreadId, Vec<u64>>,
    next_id: u64,
    evicted: u64,
}

/// The bounded ring of closed spans plus per-thread open-span stacks.
#[derive(Debug, Default)]
pub(crate) struct SpanCollector {
    inner: Mutex<SpanState>,
}

impl SpanCollector {
    fn open(&self) -> (u64, Option<u64>, u32) {
        let mut state = self.inner.lock().unwrap();
        state.next_id += 1;
        let id = state.next_id;
        let stack = state.stacks.entry(std::thread::current().id()).or_default();
        let parent = stack.last().copied();
        let depth = stack.len() as u32;
        stack.push(id);
        (id, parent, depth)
    }

    fn close(&self, record: SpanRecord) {
        let mut state = self.inner.lock().unwrap();
        let thread = std::thread::current().id();
        if let Some(stack) = state.stacks.get_mut(&thread) {
            // Usually the innermost; scan handles out-of-order drops.
            if let Some(pos) = stack.iter().rposition(|&id| id == record.id) {
                stack.remove(pos);
            }
            if stack.is_empty() {
                state.stacks.remove(&thread);
            }
        }
        if state.ring.len() >= SPAN_CAPACITY {
            state.ring.pop_front();
            state.evicted += 1;
        }
        state.ring.push_back(record);
    }

    /// Closed spans in completion order, plus the eviction count.
    pub fn snapshot(&self) -> (Vec<SpanRecord>, u64) {
        let state = self.inner.lock().unwrap();
        (state.ring.iter().cloned().collect(), state.evicted)
    }
}

/// An open span; closes on drop. Created via
/// [`MetricsRegistry::span`] or the [`crate::span!`] macro.
#[derive(Debug)]
pub struct SpanGuard {
    registry: Arc<MetricsRegistry>,
    id: u64,
    parent: Option<u64>,
    depth: u32,
    name: String,
    fields: Vec<(String, u64)>,
    wall_start: Instant,
    sim_start: u64,
    closed: bool,
}

impl SpanGuard {
    pub(crate) fn open(registry: Arc<MetricsRegistry>, name: &str, sim_now: u64) -> Self {
        let (id, parent, depth) = registry.span_collector().open();
        SpanGuard {
            registry,
            id,
            parent,
            depth,
            name: name.to_string(),
            fields: Vec::new(),
            wall_start: Instant::now(),
            sim_start: sim_now,
            closed: false,
        }
    }

    /// Attaches (or overwrites) a `key = value` field.
    pub fn set_field(&mut self, key: &str, value: u64) {
        if let Some(slot) = self.fields.iter_mut().find(|(k, _)| k == key) {
            slot.1 = value;
        } else {
            self.fields.push((key.to_string(), value));
        }
    }

    /// The span's registry-unique id.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Closes the span, recording `sim_now` as its simulated end time.
    pub fn finish(mut self, sim_now: u64) {
        self.close(sim_now);
    }

    fn close(&mut self, sim_end: u64) {
        if self.closed {
            return;
        }
        self.closed = true;
        let record = SpanRecord {
            id: self.id,
            parent: self.parent,
            depth: self.depth,
            name: std::mem::take(&mut self.name),
            fields: std::mem::take(&mut self.fields),
            wall_ns: self.wall_start.elapsed().as_nanos().min(u64::MAX as u128) as u64,
            sim_start: self.sim_start,
            sim_end,
        };
        self.registry.span_collector().close(record);
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let sim_start = self.sim_start;
        self.close(sim_start);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn registry() -> Arc<MetricsRegistry> {
        Arc::new(MetricsRegistry::new())
    }

    #[test]
    fn nesting_produces_parent_links_and_depths() {
        let registry = registry();
        {
            let outer = registry.span("outer", 100);
            let outer_id = outer.id();
            {
                let mut inner = registry.span("inner", 150);
                inner.set_field("round", 3);
                assert_eq!(inner.id(), outer_id + 1);
                inner.finish(180);
            }
            outer.finish(200);
        }
        let (spans, evicted) = registry.spans_snapshot();
        assert_eq!(evicted, 0);
        assert_eq!(spans.len(), 2);
        let inner = &spans[0];
        let outer = &spans[1];
        assert_eq!(inner.name, "inner");
        assert_eq!(inner.parent, Some(outer.id));
        assert_eq!((inner.depth, outer.depth), (1, 0));
        assert_eq!((inner.sim_start, inner.sim_end), (150, 180));
        assert_eq!(inner.fields, vec![("round".to_string(), 3)]);
        assert_eq!(outer.parent, None);
        assert_eq!((outer.sim_start, outer.sim_end), (100, 200));
    }

    #[test]
    fn sibling_spans_share_a_parent() {
        let registry = registry();
        let root = registry.span("root", 0);
        let root_id = root.id();
        for _ in 0..3 {
            registry.span("child", 1).finish(2);
        }
        root.finish(10);
        let (spans, _) = registry.spans_snapshot();
        let children: Vec<_> = spans.iter().filter(|s| s.name == "child").collect();
        assert_eq!(children.len(), 3);
        assert!(children.iter().all(|s| s.parent == Some(root_id)));
    }

    #[test]
    fn threads_get_independent_parent_stacks() {
        let registry = registry();
        let root = registry.span("root", 0);
        let handle = {
            let registry = Arc::clone(&registry);
            std::thread::spawn(move || registry.span("worker", 5).finish(6))
        };
        handle.join().unwrap();
        root.finish(10);
        let (spans, _) = registry.spans_snapshot();
        let worker = spans.iter().find(|s| s.name == "worker").unwrap();
        // The worker thread never opened "root", so its span is a root.
        assert_eq!(worker.parent, None);
        assert_eq!(worker.depth, 0);
    }

    #[test]
    fn ring_is_bounded() {
        let registry = registry();
        for i in 0..(SPAN_CAPACITY as u64 + 10) {
            registry.span("s", i).finish(i);
        }
        let (spans, evicted) = registry.spans_snapshot();
        assert_eq!(spans.len(), SPAN_CAPACITY);
        assert_eq!(evicted, 10);
        assert_eq!(spans.last().unwrap().sim_start, SPAN_CAPACITY as u64 + 9);
    }

    #[test]
    fn span_macro_attaches_fields() {
        let registry = registry();
        crate::span!(registry, "macro_span", 42, round = 7u32, bank = 2u8).finish(50);
        let (spans, _) = registry.spans_snapshot();
        assert_eq!(spans[0].name, "macro_span");
        assert_eq!(spans[0].fields, vec![("round".to_string(), 7), ("bank".to_string(), 2)]);
    }
}
