//! Opening and closing a span allocates nothing once its name and field
//! keys are interned and the ring is full: the span path costs bytes per
//! name, not a heap record per span.
//!
//! The test binary counts allocations through its own global allocator,
//! on the test's thread only, so it holds this one test.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use obs::MetricsRegistry;

struct Counting;

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn note_allocation() {
    let _ = COUNTING.try_with(|counting| {
        if counting.get() {
            let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        }
    });
}

// SAFETY: every call forwards to `System` unchanged; the bookkeeping
// touches only const-initialised thread-locals, which never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_allocation();
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Allocations `f` makes on this thread.
fn allocations_of(f: impl FnOnce()) -> u64 {
    ALLOCATIONS.with(|n| n.set(0));
    COUNTING.with(|c| c.set(true));
    f();
    COUNTING.with(|c| c.set(false));
    ALLOCATIONS.with(Cell::get)
}

#[test]
fn spans_allocate_nothing_once_names_are_interned_and_the_ring_is_full() {
    let registry = Arc::new(MetricsRegistry::new());
    let cycle = |i: u64| {
        let experiment =
            obs::span!(registry, "utrr.analyzer.experiment", i, victims = 4, rounds = i, refs = 2);
        let round = obs::span!(registry, "utrr.analyzer.round", i, round = i, bank = 1, row = 7);
        round.finish(i + 1);
        experiment.finish(i + 2);
    };
    // 32,768 spans: twice the ring's 16,384 entries, so it is full and
    // evicting.
    for i in 0..16_384 {
        cycle(i);
    }
    let (ring, evicted) = registry.spans_snapshot();
    assert_eq!((ring.len(), evicted), (16_384, 16_384), "the ring is full and evicting");

    let allocations = allocations_of(|| {
        for i in 0..10_000 {
            cycle(i);
        }
    });
    assert_eq!(allocations, 0, "10,000 cycles of two nested spans with 3 fields each");

    let totals = registry.span_totals();
    assert!(totals.iter().all(|(_, t)| t.count == 26_384), "{totals:?}");
}
