//! Histogram behaviour: log-bin boundaries, merging, and the one-bin
//! quantile error bound.

use obs::{bin_index, bin_lower_bound, bin_upper_bound, Histogram, BIN_COUNT};

#[test]
fn bin_boundaries_are_powers_of_two() {
    assert_eq!(bin_index(0), 0);
    assert_eq!(bin_index(1), 1);
    assert_eq!(bin_index(2), 2);
    assert_eq!(bin_index(3), 2);
    assert_eq!(bin_index(4), 3);
    assert_eq!(bin_index(u64::MAX), 64);
    for bin in 0..BIN_COUNT {
        let (lo, hi) = (bin_lower_bound(bin), bin_upper_bound(bin));
        assert!(lo <= hi, "bin {bin}: {lo} > {hi}");
        assert_eq!(bin_index(lo), bin, "lower bound of bin {bin} maps elsewhere");
        assert_eq!(bin_index(hi), bin, "upper bound of bin {bin} maps elsewhere");
        if bin + 1 < BIN_COUNT {
            assert_eq!(hi + 1, bin_lower_bound(bin + 1), "bins {bin},{} not adjacent", bin + 1);
        }
    }
}

#[test]
fn every_value_lands_in_its_bin() {
    let h = Histogram::default();
    for exp in 0..64u32 {
        h.record(1u64 << exp);
    }
    h.record(0);
    let snapshot = h.snapshot();
    assert_eq!(snapshot.count, 65);
    assert!(snapshot.bins.iter().all(|&n| n == 1));
    assert_eq!(snapshot.min, 0);
    assert_eq!(snapshot.max, 1 << 63);
}

#[test]
fn merge_equals_recording_into_one() {
    let a = Histogram::default();
    let b = Histogram::default();
    let combined = Histogram::default();
    for v in [1u64, 5, 9, 1000, 40_000] {
        a.record(v);
        combined.record(v);
    }
    for v in [0u64, 2, 1_000_000, u64::MAX] {
        b.record(v);
        combined.record(v);
    }
    let merged = a.snapshot().merge(&b.snapshot());
    assert_eq!(merged, combined.snapshot());
    // Merge is symmetric.
    assert_eq!(merged, b.snapshot().merge(&a.snapshot()));
}

#[test]
fn merge_with_empty_is_identity() {
    let a = Histogram::default();
    a.record(42);
    a.record(100);
    let empty = Histogram::default().snapshot();
    assert_eq!(a.snapshot().merge(&empty), a.snapshot());
    assert_eq!(empty.merge(&a.snapshot()), a.snapshot());
}

#[test]
fn quantiles_are_within_one_bin_of_truth() {
    // A skewed workload with a known sorted order.
    let mut values: Vec<u64> = Vec::new();
    for i in 0..1000u64 {
        values.push(i * i % 7919 + 1);
    }
    for i in 0..50u64 {
        values.push(100_000 + i * 1000);
    }
    let h = Histogram::default();
    for &v in &values {
        h.record(v);
    }
    values.sort_unstable();
    let snapshot = h.snapshot();
    for q in [0.50, 0.90, 0.99] {
        let rank = ((q * values.len() as f64).ceil() as usize).clamp(1, values.len());
        let truth = values[rank - 1];
        let estimate = snapshot.quantile(q).unwrap();
        let (truth_bin, estimate_bin) = (bin_index(truth), bin_index(estimate));
        assert!(
            truth_bin.abs_diff(estimate_bin) <= 1,
            "q={q}: estimate {estimate} (bin {estimate_bin}) vs truth {truth} (bin {truth_bin})"
        );
    }
}

#[test]
fn quantile_edge_cases() {
    let empty = Histogram::default().snapshot();
    assert_eq!(empty.quantile(0.5), None);
    assert_eq!(empty.mean(), None);

    let single = Histogram::default();
    single.record(77);
    let snapshot = single.snapshot();
    // All quantiles of a single observation are clamped to that value.
    for q in [0.0, 0.5, 0.99, 1.0] {
        assert_eq!(snapshot.quantile(q), Some(77));
    }
    assert_eq!(snapshot.mean(), Some(77.0));
}
