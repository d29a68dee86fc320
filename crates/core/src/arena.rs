//! Reusable scratch buffers for the experiment inner loops.
//!
//! Row Scout and the TRR Analyzer run the same small passes millions of
//! times per module sweep — bucket scans, candidate filters, failure
//! signatures — and each pass needs a few short-lived vectors. Allocating
//! them fresh every pass puts the allocator on the hot path; this module
//! keeps a thread-local pool of retired buffers so steady-state passes
//! reuse capacity instead of allocating.
//!
//! The pool is deliberately minimal: callers `take_*` a cleared vector
//! (capacity retained from earlier use), fill it, and `recycle_*` it when
//! done. A buffer that escapes (error path, early return) is simply
//! dropped — correctness never depends on recycling, only steady-state
//! allocation behaviour does. Pools are per-thread, so the parallel sweep
//! executor's workers never contend.

use std::cell::RefCell;

/// Upper bound on pooled buffers of each type, so a burst can't pin
/// unbounded memory: excess recycles are dropped.
const POOL_CAP: usize = 32;

/// A pool of cleared, capacity-retaining scratch vectors.
#[derive(Debug, Default)]
pub(crate) struct ScratchArena {
    u32s: RefCell<Vec<Vec<u32>>>,
    bools: RefCell<Vec<Vec<bool>>>,
}

impl ScratchArena {
    /// An empty arena.
    pub fn new() -> Self {
        ScratchArena::default()
    }

    /// An empty `Vec<u32>`, reusing pooled capacity when available.
    pub(crate) fn take_u32(&self) -> Vec<u32> {
        self.u32s.borrow_mut().pop().unwrap_or_default()
    }

    /// Returns a `Vec<u32>` to the pool for later reuse.
    pub(crate) fn recycle_u32(&self, mut v: Vec<u32>) {
        let mut pool = self.u32s.borrow_mut();
        if pool.len() < POOL_CAP {
            v.clear();
            pool.push(v);
        }
    }

    /// An empty `Vec<bool>`, reusing pooled capacity when available.
    pub(crate) fn take_bools(&self) -> Vec<bool> {
        self.bools.borrow_mut().pop().unwrap_or_default()
    }

    /// Returns a `Vec<bool>` to the pool for later reuse.
    pub(crate) fn recycle_bools(&self, mut v: Vec<bool>) {
        let mut pool = self.bools.borrow_mut();
        if pool.len() < POOL_CAP {
            v.clear();
            pool.push(v);
        }
    }
}

thread_local! {
    static SCRATCH: ScratchArena = ScratchArena::new();
}

/// Runs `f` with the calling thread's scratch arena.
pub(crate) fn with_scratch<R>(f: impl FnOnce(&ScratchArena) -> R) -> R {
    SCRATCH.with(f)
}

/// [`ScratchArena::take_u32`] on the thread-local arena.
pub(crate) fn take_u32() -> Vec<u32> {
    with_scratch(ScratchArena::take_u32)
}

/// [`ScratchArena::recycle_u32`] on the thread-local arena.
pub(crate) fn recycle_u32(v: Vec<u32>) {
    with_scratch(|a| a.recycle_u32(v));
}

/// [`ScratchArena::take_bools`] on the thread-local arena.
pub(crate) fn take_bools() -> Vec<bool> {
    with_scratch(ScratchArena::take_bools)
}

/// [`ScratchArena::recycle_bools`] on the thread-local arena.
pub(crate) fn recycle_bools(v: Vec<bool>) {
    with_scratch(|a| a.recycle_bools(v));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_recycle_reuses_capacity() {
        let arena = ScratchArena::new();
        let mut v = arena.take_u32();
        v.extend(0..100);
        let cap = v.capacity();
        arena.recycle_u32(v);
        let v = arena.take_u32();
        assert!(v.is_empty(), "recycled buffers come back cleared");
        assert_eq!(v.capacity(), cap, "capacity survives the round trip");
        assert!(arena.u32s.borrow().is_empty(), "the one pooled buffer was reused");
    }

    #[test]
    fn pool_is_bounded() {
        let arena = ScratchArena::new();
        for _ in 0..2 * POOL_CAP {
            arena.recycle_bools(Vec::with_capacity(8));
        }
        assert_eq!(arena.bools.borrow().len(), POOL_CAP);
    }

    #[test]
    fn fresh_takes_allocate_nothing_pooled() {
        let arena = ScratchArena::new();
        let a = arena.take_bools();
        let b = arena.take_bools();
        assert_eq!(a.capacity(), 0);
        assert_eq!(b.capacity(), 0);
    }

    #[test]
    fn thread_local_arena_is_shared_within_a_thread() {
        let mut v = take_bools();
        v.reserve(64);
        let cap = v.capacity();
        recycle_bools(v);
        assert_eq!(take_bools().capacity(), cap, "the recycled buffer comes back");
    }
}
