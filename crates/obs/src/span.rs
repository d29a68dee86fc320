//! Hierarchical timed regions with wall-clock and simulated-time
//! durations. Each collector keeps exact per-name totals of every
//! closed span, plus a bounded ring of the most recent ones.
//!
//! A span costs memory per *name*, not per span: names and field keys
//! are interned once per collector, an open span carries up to
//! [`INLINE_FIELDS`] fields inline, and the ring stores closed spans in
//! that packed form. [`SpanRecord`]s are built only when the ring is
//! read. After a name's first use, opening and closing a span with at
//! most [`INLINE_FIELDS`] fields allocates nothing.

use std::collections::{HashMap, VecDeque};
use std::num::NonZeroU64;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::ThreadId;
use std::time::Instant;

use crate::metrics::MetricsRegistry;

/// Cap on retained closed spans; older spans are evicted (and counted)
/// once the ring is full. Totals never evict.
const SPAN_CAPACITY: usize = 16_384;

/// Fields a span holds without a heap allocation; the widest span site
/// attaches 3. Fields past these go to a boxed overflow.
const INLINE_FIELDS: usize = 4;

/// A span name or field key, interned per collector.
type Sym = u32;

/// One closed span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// Unique id within the registry, in open order starting at 1.
    pub id: u64,
    /// Id of the enclosing span open on the same thread, if any.
    pub parent: Option<u64>,
    /// Nesting depth (root spans are 0).
    pub depth: u32,
    /// Span name, dotted-path style (`"utrr.analyzer.round"`).
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

/// Exact totals over every closed span of one name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanTotals {
    /// Spans closed.
    pub count: u64,
    /// Summed wall-clock durations, in nanoseconds.
    pub wall_ns: u64,
    /// Summed simulated durations (`sim_end - sim_start`), in
    /// nanoseconds.
    pub sim_ns: u64,
}

/// A span's fields in attach order: the first [`INLINE_FIELDS`] inline,
/// the rest boxed.
#[derive(Debug, Default)]
struct Fields {
    len: u8,
    keys: [Sym; INLINE_FIELDS],
    values: [u64; INLINE_FIELDS],
    /// Boxed so the ring pays one word per span for it, not three.
    #[allow(clippy::box_collection)]
    overflow: Option<Box<Vec<(Sym, u64)>>>,
}

impl Fields {
    /// Attaches `key = value`, overwriting an earlier value of `key`.
    fn set(&mut self, key: Sym, value: u64) {
        let len = usize::from(self.len);
        if let Some(i) = self.keys[..len].iter().position(|&k| k == key) {
            self.values[i] = value;
        } else if let Some(slot) =
            self.overflow.iter_mut().flat_map(|o| o.iter_mut()).find(|(k, _)| *k == key)
        {
            slot.1 = value;
        } else if len < INLINE_FIELDS {
            self.keys[len] = key;
            self.values[len] = value;
            self.len += 1;
        } else {
            self.overflow.get_or_insert_with(Box::default).push((key, value));
        }
    }

    fn iter(&self) -> impl Iterator<Item = (Sym, u64)> + '_ {
        let len = usize::from(self.len);
        let inline = self.keys[..len].iter().copied().zip(self.values[..len].iter().copied());
        inline.chain(self.overflow.iter().flat_map(|o| o.iter().copied()))
    }
}

/// A span in packed form: what an open guard carries and what the ring
/// stores once it closes.
#[derive(Debug, Default)]
struct PackedSpan {
    id: u64,
    /// Ids start at 1, so `None` costs no extra word.
    parent: Option<NonZeroU64>,
    depth: u32,
    name: Sym,
    fields: Fields,
    wall_ns: u64,
    sim_start: u64,
    sim_end: u64,
}

#[derive(Debug, Default)]
struct SpanState {
    /// Interned names and field keys, with the close totals of each
    /// (field keys keep zero totals).
    symbols: Vec<(Box<str>, SpanTotals)>,
    lookup: HashMap<Box<str>, Sym>,
    ring: VecDeque<PackedSpan>,
    evicted: u64,
    /// Every open span as `(thread, id)` in open order, so parallel
    /// sweeps sharing one registry get correct parents: a new span's
    /// parent is the last entry of its own thread.
    open: Vec<(ThreadId, u64)>,
    next_id: u64,
}

impl SpanState {
    fn intern(&mut self, text: &str) -> Sym {
        if let Some(&sym) = self.lookup.get(text) {
            return sym;
        }
        let sym = Sym::try_from(self.symbols.len()).expect("fewer than 2^32 span names");
        self.symbols.push((text.into(), SpanTotals::default()));
        self.lookup.insert(text.into(), sym);
        sym
    }

    fn text(&self, sym: Sym) -> &str {
        &self.symbols[sym as usize].0
    }
}

/// Per-name span totals, the bounded ring of closed spans and the open
/// spans of every thread.
#[derive(Debug, Default)]
pub(crate) struct SpanCollector {
    inner: Mutex<SpanState>,
}

impl SpanCollector {
    /// The collector's state. Every update under the lock leaves it
    /// valid, so a lock poisoned by a panicking thread is taken as is:
    /// guards close in `Drop`, which must not panic.
    fn state(&self) -> MutexGuard<'_, SpanState> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn open(&self, name: &str, fields: &[(&str, u64)], sim_start: u64) -> PackedSpan {
        let thread = std::thread::current().id();
        let mut state = self.state();
        let mut span = PackedSpan { name: state.intern(name), sim_start, ..PackedSpan::default() };
        for &(key, value) in fields {
            let key = state.intern(key);
            span.fields.set(key, value);
        }
        state.next_id += 1;
        span.id = state.next_id;
        let own = || state.open.iter().filter(|(t, _)| *t == thread);
        span.parent = own().next_back().and_then(|&(_, id)| NonZeroU64::new(id));
        span.depth = own().count() as u32;
        state.open.push((thread, span.id));
        span
    }

    fn intern(&self, text: &str) -> Sym {
        self.state().intern(text)
    }

    fn close(&self, span: PackedSpan) {
        let mut state = self.state();
        // Usually the innermost; scan handles out-of-order drops.
        if let Some(pos) = state.open.iter().rposition(|&(_, id)| id == span.id) {
            state.open.remove(pos);
        }
        let totals = &mut state.symbols[span.name as usize].1;
        totals.count += 1;
        totals.wall_ns += span.wall_ns;
        totals.sim_ns += span.sim_end.saturating_sub(span.sim_start);
        if state.ring.len() >= SPAN_CAPACITY {
            state.ring.pop_front();
            state.evicted += 1;
        }
        state.ring.push_back(span);
    }

    /// The ring's closed spans in completion order, plus the eviction
    /// count.
    pub fn snapshot(&self) -> (Vec<SpanRecord>, u64) {
        let state = self.state();
        let records = state
            .ring
            .iter()
            .map(|span| SpanRecord {
                id: span.id,
                parent: span.parent.map(NonZeroU64::get),
                depth: span.depth,
                name: state.text(span.name).to_string(),
                fields: span.fields.iter().map(|(k, v)| (state.text(k).to_string(), v)).collect(),
                wall_ns: span.wall_ns,
                sim_start: span.sim_start,
                sim_end: span.sim_end,
            })
            .collect();
        (records, state.evicted)
    }

    /// Totals of every name with a closed span, sorted by name.
    pub fn totals(&self) -> Vec<(String, SpanTotals)> {
        let state = self.state();
        let mut totals: Vec<_> = state
            .symbols
            .iter()
            .filter(|(_, totals)| totals.count > 0)
            .map(|(name, totals)| (name.to_string(), *totals))
            .collect();
        totals.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        totals
    }
}

/// An open span; closes on drop. Created via
/// [`MetricsRegistry::span`] or the [`crate::span!`] macro.
#[derive(Debug)]
pub struct SpanGuard {
    registry: Arc<MetricsRegistry>,
    span: PackedSpan,
    wall_start: Instant,
    closed: bool,
}

impl SpanGuard {
    pub(crate) fn open(
        registry: Arc<MetricsRegistry>,
        name: &str,
        sim_now: u64,
        fields: &[(&str, u64)],
    ) -> Self {
        let span = registry.span_collector().open(name, fields, sim_now);
        SpanGuard { registry, span, wall_start: Instant::now(), closed: false }
    }

    /// Attaches (or overwrites) a `key = value` field. Interns `key`
    /// under the collector's lock; fields known at open time are
    /// cheaper passed to [`crate::span!`].
    pub fn set_field(&mut self, key: &str, value: u64) {
        let key = self.registry.span_collector().intern(key);
        self.span.fields.set(key, value);
    }

    /// The span's registry-unique id.
    pub fn id(&self) -> u64 {
        self.span.id
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
        let mut span = std::mem::take(&mut self.span);
        span.wall_ns = self.wall_start.elapsed().as_nanos().min(u64::MAX as u128) as u64;
        span.sim_end = sim_end;
        self.registry.span_collector().close(span);
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let sim_start = self.span.sim_start;
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
    fn totals_count_every_span_at_any_thread_count() {
        const SPANS: u64 = SPAN_CAPACITY as u64 + 3_616;
        let run = |threads: u64| {
            let registry = registry();
            std::thread::scope(|scope| {
                for t in 0..threads {
                    let registry = &registry;
                    scope.spawn(move || {
                        for i in (t..SPANS).step_by(threads as usize) {
                            let outer = crate::span!(registry, "outer", i, i = i);
                            registry.span("inner", 2 * i).finish(3 * i);
                            outer.finish(i + 7);
                        }
                    });
                }
            });
            let sim = |(name, totals): (String, SpanTotals)| (name, totals.count, totals.sim_ns);
            let totals: Vec<_> = registry.span_totals().into_iter().map(sim).collect();
            let (ring, evicted) = registry.spans_snapshot();
            (totals, ring.len(), evicted)
        };
        let inner_sim: u64 = (0..SPANS).sum();
        let expected =
            vec![("inner".to_string(), SPANS, inner_sim), ("outer".to_string(), SPANS, 7 * SPANS)];
        let evicted = 2 * SPANS - SPAN_CAPACITY as u64;
        assert_eq!(run(1), (expected, SPAN_CAPACITY, evicted));
        assert_eq!(run(4), run(1), "totals and ring occupancy must not depend on threads");
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
