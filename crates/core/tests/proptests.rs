//! Property tests on the U-TRR support types: layout parsing and
//! refresh-schedule arithmetic.

use proptest::prelude::*;
use utrr_core::{RefreshSchedule, RowGroupLayout};

fn layout_string() -> impl Strategy<Value = String> {
    prop::collection::vec(prop_oneof![Just('R'), Just('A'), Just('-')], 1..24)
        .prop_filter("needs a profiled row", |chars| chars.contains(&'R'))
        .prop_map(|chars| chars.into_iter().collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Layout parsing and display round-trip for every valid string.
    #[test]
    fn layout_roundtrip(s in layout_string()) {
        let layout: RowGroupLayout = s.parse().expect("valid layout");
        prop_assert_eq!(layout.to_string(), s);
        prop_assert_eq!(layout.span() as usize, layout.to_string().len());
        // Offsets are sorted, unique, disjoint, and in range.
        let all: Vec<u32> =
            layout.profiled().iter().chain(layout.aggressors()).copied().collect();
        for &o in &all {
            prop_assert!(o < layout.span());
        }
        let mut dedup = all.clone();
        dedup.sort_unstable();
        dedup.dedup();
        prop_assert_eq!(dedup.len(), all.len());
    }

    /// `covers` agrees with a brute-force scan of the schedule.
    #[test]
    fn schedule_covers_matches_bruteforce(
        period in 1u64..500,
        anchor_raw in 0u64..500,
        from in 0u64..2_000,
        len in 0u64..600,
    ) {
        let anchor = anchor_raw % period;
        let s = RefreshSchedule { period, anchor };
        let to = from + len;
        let brute = (from + 1..=to).any(|k| k % period == anchor);
        prop_assert_eq!(s.covers(from, to), brute);
    }

    /// The first scheduled index strictly after the argument is covered,
    /// and nothing earlier is.
    #[test]
    fn schedule_next_after_is_exact(
        period in 1u64..500,
        anchor_raw in 0u64..500,
        after in 0u64..5_000,
    ) {
        let anchor = anchor_raw % period;
        let s = RefreshSchedule { period, anchor };
        let next = (after + 1..).find(|k| k % period == anchor).unwrap();
        prop_assert!(next - after <= period);
        prop_assert!(s.covers(after, next));
        prop_assert!(!s.covers(after, next - 1));
    }
}
