//! Property tests on the device's core invariants: mapping bijectivity,
//! batched-hammer equivalence, refresh coverage, and flip monotonicity.

use dram_sim::metrics::CTR_REGULAR_ROW_REFRESHES;
use dram_sim::{Bank, DataPattern, Module, ModuleConfig, PhysRow, RowAddr, RowMapping, Topology};
use proptest::prelude::*;

fn mapping_strategy() -> impl Strategy<Value = RowMapping> {
    prop_oneof![
        Just(RowMapping::Identity),
        (1u8..5).prop_map(RowMapping::block_mirror),
        (2u8..6).prop_map(|ctrl| {
            // A mask strictly below the control bit.
            RowMapping::msb_xor(ctrl, (1 << (ctrl - 1)) | 1)
        }),
        (1u8..4, prop::collection::vec((0u32..512, 512u32..1024), 0..4))
            .prop_map(|(bits, swaps)| RowMapping::block_mirror(bits).with_swaps(swaps)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every supported mapping is a bijection over the bank, and
    /// `to_logical` inverts `to_phys`.
    #[test]
    fn mappings_are_bijective(mapping in mapping_strategy()) {
        let rows = 1024u32;
        let mut seen = vec![false; rows as usize];
        for l in 0..rows {
            let p = mapping.to_phys(RowAddr::new(l));
            prop_assert!(p.index() < rows);
            prop_assert!(!seen[p.index() as usize], "collision at {}", p);
            seen[p.index() as usize] = true;
            prop_assert_eq!(mapping.to_logical(p), RowAddr::new(l));
        }
    }

    /// A batched hammer produces exactly the same victim flips as the
    /// equivalent sequence of single hammers.
    #[test]
    fn batched_hammer_equals_singles(
        seed in 0u64..500,
        count in 1u64..4_000,
        victim in 100u32..900,
    ) {
        let run = |batched: bool| {
            let mut m = Module::new(ModuleConfig::small_test(), seed);
            let bank = Bank::new(0);
            let v = RowAddr::new(victim);
            m.write_row(bank, v, DataPattern::Ones).unwrap();
            let aggressor = v.plus(1);
            if batched {
                m.hammer(bank, aggressor, count).unwrap();
            } else {
                for _ in 0..count {
                    m.hammer(bank, aggressor, 1).unwrap();
                }
            }
            m.read_row(bank, v).unwrap().flipped_bits().to_vec()
        };
        prop_assert_eq!(run(true), run(false));
    }

    /// More hammers never yield fewer flips (monotonicity of the flip
    /// ladder), all else equal.
    #[test]
    fn flips_are_monotonic_in_hammers(
        seed in 0u64..200,
        base in 500u64..3_000,
        extra in 0u64..8_000,
        victim in 100u32..900,
    ) {
        let flips = |pairs: u64| {
            let mut m = Module::new(ModuleConfig::small_test(), seed);
            let bank = Bank::new(0);
            let v = RowAddr::new(victim);
            m.write_row(bank, v, DataPattern::Ones).unwrap();
            m.hammer_pair(bank, v.minus(1), v.plus(1), pairs).unwrap();
            m.read_row(bank, v).unwrap().flip_count()
        };
        prop_assert!(flips(base + extra) >= flips(base));
    }

    /// Regular refresh restores every touched row exactly once per
    /// period, for any refresh-period configuration.
    #[test]
    fn refresh_covers_each_row_once_per_period(period in 16u32..2_000) {
        let mut config = ModuleConfig::small_test();
        config.refresh.period_refs = period;
        let mut m = Module::new(config, 3);
        let bank = Bank::new(0);
        for r in 0..64 {
            m.write_row(bank, RowAddr::new(r), DataPattern::Ones).unwrap();
        }
        let restored = |m: &mut Module| {
            m.flush_metrics();
            m.registry().counter(CTR_REGULAR_ROW_REFRESHES).get()
        };
        let before = restored(&mut m);
        for _ in 0..period {
            m.refresh();
        }
        // 64 written rows plus the two disturbance-tracked neighbours of
        // the last written row (rows 64 and 65) carry state.
        prop_assert_eq!(restored(&mut m) - before, 66);
    }

    /// Paired topology never lets disturbance cross a pair boundary.
    #[test]
    fn paired_topology_isolation(seed in 0u64..100, aggressor in 100u32..900) {
        let mut config = ModuleConfig::small_test();
        config.topology = Topology::Paired;
        let mut m = Module::new(config, seed);
        let bank = Bank::new(0);
        let pair = RowAddr::new(aggressor ^ 1);
        let outside_a = RowAddr::new(aggressor.wrapping_sub(2).max(2));
        let outside_b = RowAddr::new(aggressor + 2);
        for &row in &[pair, outside_a, outside_b] {
            m.write_row(bank, row, DataPattern::Ones).unwrap();
        }
        m.hammer(bank, RowAddr::new(aggressor), 50_000).unwrap();
        // Only the pair row may flip; rows outside the pair stay clean
        // (their decay horizon is far beyond the hammering time).
        prop_assert!(m.read_row(bank, outside_a).unwrap().is_clean());
        prop_assert!(m.read_row(bank, outside_b).unwrap().is_clean());
    }

    /// Readout dataword histograms always account for every flip.
    #[test]
    fn dataword_histogram_is_complete(seed in 0u64..200, pairs in 2_000u64..20_000) {
        let mut m = Module::new(ModuleConfig::small_test(), seed);
        let bank = Bank::new(0);
        let v = RowAddr::new(500);
        m.write_row(bank, v, DataPattern::Ones).unwrap();
        m.hammer_pair(bank, v.minus(1), v.plus(1), pairs).unwrap();
        let readout = m.read_row(bank, v).unwrap();
        let from_hist: usize =
            readout.flips_per_dataword().iter().map(|&(_, n)| n as usize).sum();
        prop_assert_eq!(from_hist, readout.flip_count());
    }

    /// Physical mapping changes never alter *how many* cells flip for a
    /// fixed physical victim and hammer count — only addressing changes.
    #[test]
    fn scrambling_is_transparent_to_physics(
        mapping in mapping_strategy(),
        pairs in 3_000u64..10_000,
    ) {
        let flips_with = |mapping: RowMapping| {
            let mut config = ModuleConfig::small_test();
            config.mapping = mapping;
            let mut m = Module::new(config, 77);
            let bank = Bank::new(0);
            let victim_phys = PhysRow::new(500);
            let victim = m.logical_of(victim_phys);
            let up = m.logical_of(PhysRow::new(499));
            let down = m.logical_of(PhysRow::new(501));
            m.write_row(bank, victim, DataPattern::Ones).unwrap();
            m.hammer_pair(bank, up, down, pairs).unwrap();
            m.read_row(bank, victim).unwrap().flip_count()
        };
        prop_assert_eq!(flips_with(mapping), flips_with(RowMapping::Identity));
    }
}
