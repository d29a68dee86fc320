//! The packed span ring reads back exactly as the plain one it
//! replaced. `Reference` keeps the old representation (a ring of owned
//! `SpanRecord`s, each with its own name and field strings, and a parent
//! stack per thread) as the model; a scripted sequence runs through both
//! and `spans_snapshot()` must match record for record. This is what
//! `utrr-benchmark --trace 1` reads.

use std::collections::{HashMap, VecDeque};
use std::sync::mpsc;
use std::sync::Arc;

use obs::{MetricsRegistry, SpanGuard, SpanRecord};

/// The ring's capacity in `obs`.
const CAPACITY: usize = 16_384;

#[derive(Debug, Clone)]
enum Op {
    /// Thread `thread` opens span number `span` (numbered in open order).
    Open {
        thread: usize,
        span: usize,
        name: &'static str,
        sim: u64,
        fields: Vec<(String, u64)>,
    },
    Set {
        span: usize,
        key: String,
        value: u64,
    },
    Finish {
        span: usize,
        sim: u64,
    },
    /// Closes without `finish`: the span ends at its start time.
    Drop {
        span: usize,
    },
}

/// The old representation: owned records, one parent stack per thread.
#[derive(Default)]
struct Reference {
    ring: VecDeque<SpanRecord>,
    evicted: u64,
    stacks: HashMap<usize, Vec<u64>>,
    next_id: u64,
    open: HashMap<usize, (usize, SpanRecord)>,
}

impl Reference {
    fn apply(&mut self, op: &Op) {
        match op {
            Op::Open { thread, span, name, sim, fields } => {
                self.next_id += 1;
                let stack = self.stacks.entry(*thread).or_default();
                let mut record = SpanRecord {
                    id: self.next_id,
                    parent: stack.last().copied(),
                    depth: stack.len() as u32,
                    name: name.to_string(),
                    fields: Vec::new(),
                    wall_ns: 0,
                    sim_start: *sim,
                    sim_end: 0,
                };
                stack.push(record.id);
                for (key, value) in fields {
                    set(&mut record, key, *value);
                }
                self.open.insert(*span, (*thread, record));
            }
            Op::Set { span, key, value } => {
                set(&mut self.open.get_mut(span).unwrap().1, key, *value)
            }
            Op::Finish { span, sim } => self.close(*span, Some(*sim)),
            Op::Drop { span } => self.close(*span, None),
        }
    }

    fn close(&mut self, span: usize, sim_end: Option<u64>) {
        let (thread, mut record) = self.open.remove(&span).unwrap();
        record.sim_end = sim_end.unwrap_or(record.sim_start);
        let stack = self.stacks.get_mut(&thread).unwrap();
        let pos = stack.iter().rposition(|&id| id == record.id).unwrap();
        stack.remove(pos);
        if self.ring.len() >= CAPACITY {
            self.ring.pop_front();
            self.evicted += 1;
        }
        self.ring.push_back(record);
    }
}

fn set(record: &mut SpanRecord, key: &str, value: u64) {
    match record.fields.iter_mut().find(|(k, _)| k == key) {
        Some(slot) => slot.1 = value,
        None => record.fields.push((key.to_string(), value)),
    }
}

/// Runs `ops` on a real registry: each thread's spans are opened and
/// closed on a thread of its own, one op at a time in script order.
fn run_packed(ops: &[Op], threads: usize) -> (Vec<SpanRecord>, u64) {
    let registry = Arc::new(MetricsRegistry::new());
    let owner: HashMap<usize, usize> = ops
        .iter()
        .filter_map(|op| match op {
            Op::Open { thread, span, .. } => Some((*span, *thread)),
            _ => None,
        })
        .collect();
    std::thread::scope(|scope| {
        let (done_tx, done_rx) = mpsc::channel::<()>();
        let senders: Vec<mpsc::Sender<Op>> = (0..threads)
            .map(|_| {
                let (tx, rx) = mpsc::channel::<Op>();
                let (registry, done) = (Arc::clone(&registry), done_tx.clone());
                scope.spawn(move || {
                    let mut guards: HashMap<usize, SpanGuard> = HashMap::new();
                    for op in rx {
                        match op {
                            Op::Open { span, name, sim, fields, .. } => {
                                let fields: Vec<(&str, u64)> =
                                    fields.iter().map(|(k, v)| (k.as_str(), *v)).collect();
                                guards.insert(span, registry.span_with(name, sim, &fields));
                            }
                            Op::Set { span, key, value } => {
                                guards.get_mut(&span).unwrap().set_field(&key, value);
                            }
                            Op::Finish { span, sim } => guards.remove(&span).unwrap().finish(sim),
                            Op::Drop { span } => drop(guards.remove(&span).unwrap()),
                        }
                        done.send(()).unwrap();
                    }
                });
                tx
            })
            .collect();
        for op in ops {
            let span = match op {
                Op::Open { span, .. }
                | Op::Set { span, .. }
                | Op::Finish { span, .. }
                | Op::Drop { span } => *span,
            };
            senders[owner[&span]].send(op.clone()).unwrap();
            done_rx.recv().unwrap();
        }
    });
    let (mut spans, evicted) = registry.spans_snapshot();
    // Wall time is the one thing no model predicts.
    spans.iter_mut().for_each(|s| s.wall_ns = 0);
    (spans, evicted)
}

/// A scripted run over two threads: interleaved nesting, 0-6 fields
/// given at open and by `set_field`, overwrites of inline and
/// overflowed fields, drops without
/// `finish` and out-of-order closes, then `rounds` spans under the two
/// roots.
fn script(rounds: u64) -> Vec<Op> {
    let mut ops = Vec::new();
    let mut next = 0usize;
    let mut open = |ops: &mut Vec<Op>, thread: usize, name: &'static str, sim: u64, n: usize| {
        let fields = (0..n).map(|k| (format!("k{k}"), sim + k as u64)).collect();
        ops.push(Op::Open { thread, span: next, name, sim, fields });
        next += 1;
        next - 1
    };
    // Two threads, each three deep, interleaved op by op.
    let a0 = open(&mut ops, 0, "a.root", 10, 0);
    let b0 = open(&mut ops, 1, "b.root", 11, 1);
    let a1 = open(&mut ops, 0, "a.mid", 12, 2);
    let b1 = open(&mut ops, 1, "b.mid", 13, 3);
    let a2 = open(&mut ops, 0, "a.leaf", 14, 4);
    let b2 = open(&mut ops, 1, "b.leaf", 15, 5);
    ops.push(Op::Set { span: a2, key: "k1".into(), value: 99 });
    ops.push(Op::Set { span: a2, key: "late".into(), value: 5 });
    ops.push(Op::Set { span: b2, key: "k0".into(), value: 7 });
    ops.push(Op::Set { span: b2, key: "k4".into(), value: 6 });
    ops.push(Op::Set { span: b2, key: "k5".into(), value: 8 });
    ops.push(Op::Set { span: b2, key: "late".into(), value: 9 });
    ops.push(Op::Finish { span: b2, sim: 40 });
    ops.push(Op::Drop { span: a2 });
    // Out of order: the middle span closes before its child.
    let a3 = open(&mut ops, 0, "a.leaf", 16, 6);
    ops.push(Op::Finish { span: a1, sim: 41 });
    let a4 = open(&mut ops, 0, "a.after_mid", 17, 1);
    ops.push(Op::Drop { span: a4 });
    ops.push(Op::Finish { span: a3, sim: 42 });
    ops.push(Op::Set { span: b1, key: "k2".into(), value: 1 });
    ops.push(Op::Drop { span: b1 });
    for i in 0..rounds {
        let thread = (i % 2) as usize;
        let round = open(&mut ops, thread, "round", 100 + i, (i % 7) as usize);
        if i % 3 == 0 {
            ops.push(Op::Set { span: round, key: "k0".into(), value: i });
        }
        if i % 5 == 0 {
            ops.push(Op::Drop { span: round });
        } else {
            ops.push(Op::Finish { span: round, sim: 200 + 2 * i });
        }
    }
    ops.push(Op::Finish { span: b0, sim: 90_000 });
    ops.push(Op::Finish { span: a0, sim: 90_001 });
    ops
}

/// The reference model's ring and eviction count after `ops`.
fn reference(ops: &[Op]) -> (Vec<SpanRecord>, u64) {
    let mut reference = Reference::default();
    ops.iter().for_each(|op| reference.apply(op));
    (Vec::from(reference.ring), reference.evicted)
}

#[test]
fn packed_ring_reads_back_as_the_plain_ring() {
    let ops = script(0);
    let expected = reference(&ops);
    assert_eq!((expected.0.len(), expected.1), (8, 0));
    assert!(expected.0.iter().any(|s| s.fields.len() == 7), "a span past the inline slots");
    assert_eq!(run_packed(&ops, 2), expected);
}

#[test]
fn packed_ring_evicts_as_the_plain_ring() {
    // Enough round spans to evict the head's six closed spans and 102
    // rounds; the roots close last and stay.
    let ops = script(CAPACITY as u64 + 100);
    let expected = reference(&ops);
    assert_eq!((expected.0.len(), expected.1), (CAPACITY, 108));
    assert_eq!(run_packed(&ops, 2), expected);
}
