//! Property tests for the TRR engines' batched activation hooks: the
//! batched paths must be *exactly* equivalent to replaying single
//! activations (the `MitigationEngine` contract), for the deterministic
//! engines, under arbitrary interleavings of rows, counts, and
//! refreshes.

use dram_sim::{Bank, MitigationEngine, Nanos, PhysRow};
use proptest::prelude::*;
use trr::{CounterTrr, CounterTrrConfig, WindowTrr, WindowTrrConfig};

const T0: Nanos = Nanos::ZERO;

/// A step of a random engine workload.
#[derive(Debug, Clone)]
enum Step {
    Act { bank: u8, row: u32, count: u64 },
    Pair { bank: u8, first: u32, second: u32, pairs: u64 },
    Refresh,
}

fn step_strategy() -> impl Strategy<Value = Step> {
    prop_oneof![
        (0u8..2, 0u32..64, 1u64..48).prop_map(|(bank, row, count)| Step::Act { bank, row, count }),
        (0u8..2, 0u32..64, 0u32..64, 1u64..24)
            .prop_map(|(bank, first, second, pairs)| { Step::Pair { bank, first, second, pairs } }),
        Just(Step::Refresh),
    ]
}

fn drive(engine: &mut dyn MitigationEngine, steps: &[Step], batched: bool) -> Vec<(u8, u32)> {
    let mut detections = Vec::new();
    let mut refreshed = Vec::new();
    for step in steps {
        match *step {
            Step::Act { bank, row, count } => {
                if batched {
                    engine.on_activations(Bank::new(bank), PhysRow::new(row), count, T0);
                } else {
                    for _ in 0..count {
                        engine.on_activations(Bank::new(bank), PhysRow::new(row), 1, T0);
                    }
                }
            }
            Step::Pair { bank, first, second, pairs } => {
                if batched {
                    engine.on_interleaved_pair(
                        Bank::new(bank),
                        PhysRow::new(first),
                        PhysRow::new(second),
                        pairs,
                        T0,
                    );
                } else {
                    for _ in 0..pairs {
                        engine.on_activations(Bank::new(bank), PhysRow::new(first), 1, T0);
                        engine.on_activations(Bank::new(bank), PhysRow::new(second), 1, T0);
                    }
                }
            }
            Step::Refresh => {
                engine.on_refresh(T0, &mut refreshed);
                detections
                    .extend(refreshed.drain(..).map(|d| (d.bank.index(), d.aggressor.index())));
            }
        }
    }
    detections
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Counter engine: batched and looped activations yield identical
    /// tables and identical detection streams.
    #[test]
    fn counter_batched_equals_looped(
        steps in prop::collection::vec(step_strategy(), 1..60),
        table_size in 2usize..8,
    ) {
        let config = CounterTrrConfig { table_size, ..CounterTrrConfig::a_trr1() };
        let mut batched = CounterTrr::new(config, "p", 2);
        let mut looped = CounterTrr::new(config, "p", 2);
        let d1 = drive(&mut batched, &steps, true);
        let d2 = drive(&mut looped, &steps, false);
        prop_assert_eq!(d1, d2);
        prop_assert_eq!(batched.table(Bank::new(0)), looped.table(Bank::new(0)));
        prop_assert_eq!(batched.table(Bank::new(1)), looped.table(Bank::new(1)));
    }

    /// Window engine: the predrawn capture target makes batch/loop
    /// equivalence exact, not just statistical.
    #[test]
    fn window_batched_equals_looped(
        steps in prop::collection::vec(step_strategy(), 1..60),
        seed in 0u64..1_000,
    ) {
        let config = WindowTrrConfig { window: 256, ..WindowTrrConfig::c_trr2() };
        let mut batched = WindowTrr::new(config, "p", 2, seed);
        let mut looped = WindowTrr::new(config, "p", 2, seed);
        let d1 = drive(&mut batched, &steps, true);
        let d2 = drive(&mut looped, &steps, false);
        prop_assert_eq!(d1, d2);
        prop_assert_eq!(batched.candidates(), looped.candidates());
    }

    /// Counter engine invariant: the table never exceeds its capacity.
    #[test]
    fn counter_capacity_invariant(
        steps in prop::collection::vec(step_strategy(), 1..80),
    ) {
        let mut engine = CounterTrr::a_trr1(2);
        let _ = drive(&mut engine, &steps, true);
        prop_assert!(engine.table(Bank::new(0)).len() <= 16);
        prop_assert!(engine.table(Bank::new(1)).len() <= 16);
    }
}
