//! Every attack, pinned by digest: for each attack and each
//! parameterisation, a sweep must reproduce exactly what the
//! pre-refactor hand-written implementations did — same flips at same
//! positions, same dataword histograms, same command counters.
//!
//! Each attack is pinned on a grid: both ends and the midpoint of every
//! parameter range (sixteen sampled points for the fuzzer's
//! `FuzzPattern`), × every engine of [`engine_module`], × two module
//! seeds. A grid point's digest (FNV-1a over the whole `BankSweep` and
//! the `ACT` / row-read / bit-flip counters) must match the one in
//! `golden/builder_equiv.txt`. The digests were captured while the
//! frozen pre-refactor implementations still agreed with the attacks
//! on every point; the fuzz points were captured before its schedule
//! moved into `FuzzPattern` itself.

use std::collections::BTreeMap;
use std::fmt::Debug;

use attacks::baseline::{DoubleSided, ManySided, SingleSided};
use attacks::custom::{VendorAPattern, VendorBPattern, VendorCPattern};
use attacks::eval::{sweep_bank_module, EvalConfig};
use attacks::fuzz::{FuzzParams, FuzzPattern};
use attacks::AccessPattern;
use dram_sim::rng::SplitMix64;
use dram_sim::{Bank, Module, ModuleConfig};
use obs::MetricsRegistry;
use trr::{CounterTrr, SamplerTrr, WindowTrr};

/// `digest label` lines, one per grid point.
const GOLDEN: &str = include_str!("golden/builder_equiv.txt");

/// The engine roster a grid point guards the module with (index into
/// [`engine_module`]); `0` is the unmitigated module.
const ENGINE_COUNT: u8 = 6;

/// Module seeds of every grid point.
const SEEDS: [u64; 2] = [1, 499];

fn engine_module(engine: u8, seed: u64) -> Module {
    // Raise HC_first as the in-crate tests do, so TRR-suppressed and
    // TRR-bypassing parameterisations actually differ in outcome.
    let mut config = ModuleConfig::small_test();
    config.physics.hc_first = 4_000.0;
    let banks = config.geometry.banks;
    match engine {
        0 => Module::new(config, seed),
        1 => Module::with_engine(config, Box::new(CounterTrr::a_trr1(banks)), seed),
        2 => Module::with_engine(config, Box::new(CounterTrr::a_trr2(banks)), seed),
        3 => Module::with_engine(config, Box::new(SamplerTrr::b_trr1(banks, 9)), seed),
        4 => Module::with_engine(config, Box::new(SamplerTrr::b_trr3(banks, 9)), seed),
        _ => Module::with_engine(config, Box::new(WindowTrr::c_trr1(banks, 9)), seed),
    }
}

/// The two ends and the midpoint of the half-open range `lo..hi`.
fn span(lo: u64, hi: u64) -> Vec<u64> {
    let mut points = vec![lo, (lo + hi - 1) / 2, hi - 1];
    points.dedup();
    points
}

/// FNV-1a digest of one sweep of `pattern` plus its command counters.
fn digest(pattern: &dyn AccessPattern, engine: u8, seed: u64) -> String {
    let registry = MetricsRegistry::shared();
    let positions = (0..4).map(|i| dram_sim::PhysRow::new(150 + i * 90)).collect();
    let config = EvalConfig {
        positions,
        windows: 1,
        bank: Bank::new(0),
        registry: Some(registry.clone()),
        ..EvalConfig::quick(4)
    };
    let sweep = sweep_bank_module(engine_module(engine, seed), pattern, &config);
    let counters = [
        dram_sim::metrics::CTR_ACT,
        dram_sim::metrics::CTR_ROW_READS,
        dram_sim::metrics::CTR_BIT_FLIPS,
    ]
    .map(|name| registry.counter(name).get());
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in format!("{sweep:?}{counters:?}").as_bytes() {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{hash:016x}")
}

/// Checks every grid point of `attacks` against the golden digests,
/// reporting all mismatches (as ready-to-commit golden lines) at once.
fn assert_grid<T>(attacks: impl IntoIterator<Item = T>)
where
    T: AccessPattern + Debug,
{
    let golden: BTreeMap<&str, &str> =
        GOLDEN.lines().filter_map(|line| line.split_once(' ').map(|(d, l)| (l, d))).collect();
    let mut mismatches = Vec::new();
    for attack in attacks {
        for engine in 0..ENGINE_COUNT {
            for seed in SEEDS {
                let label = format!("{attack:?} engine={engine} seed={seed}");
                let got = digest(&attack, engine, seed);
                if golden.get(label.as_str()) != Some(&got.as_str()) {
                    mismatches.push(format!("{got} {label}"));
                }
            }
        }
    }
    assert!(mismatches.is_empty(), "digests differ from golden:\n{}", mismatches.join("\n"));
}

#[test]
fn single_sided_matches_golden() {
    assert_grid(span(1, 220).into_iter().map(|hammers| SingleSided { hammers }));
}

#[test]
fn double_sided_matches_golden() {
    assert_grid(
        span(1, 75).into_iter().map(|hammers_per_aggressor| DoubleSided { hammers_per_aggressor }),
    );
}

#[test]
fn many_sided_matches_golden() {
    assert_grid(span(2, 13).into_iter().flat_map(|sides| {
        span(1, 16).into_iter().map(move |hammers_per_aggressor| ManySided {
            sides: sides as u32,
            hammers_per_aggressor,
        })
    }));
}

#[test]
fn vendor_a_matches_golden() {
    let mut grid = Vec::new();
    for aggressor_hammers in span(1, 30) {
        for dummy_rows in span(0, 17) {
            for dummy_hammers in span(1, 9) {
                grid.push(VendorAPattern {
                    aggressor_hammers,
                    dummy_rows: dummy_rows as usize,
                    dummy_hammers,
                });
            }
        }
    }
    assert_grid(grid);
}

#[test]
fn vendor_b_matches_golden() {
    let mut grid = Vec::new();
    for ratio in span(1, 10) {
        for per_bank in span(0, 2) {
            for hammers_per_interval in span(1, 75) {
                for dummy_hammers in span(1, 160) {
                    grid.push(VendorBPattern {
                        ratio,
                        per_bank_sampler: per_bank == 1,
                        hammers_per_interval,
                        dummy_hammers,
                    });
                }
            }
        }
    }
    assert_grid(grid);
}

#[test]
fn vendor_c_matches_golden() {
    let mut grid = Vec::new();
    for ratio in span(1, 10) {
        for dummy_acts in span(0, 450) {
            for hammers_per_interval in span(1, 75) {
                grid.push(VendorCPattern { ratio, dummy_acts, hammers_per_interval });
            }
        }
    }
    assert_grid(grid);
}

#[test]
fn fuzz_matches_golden() {
    assert_grid(
        (0..16).map(|k| FuzzPattern { params: FuzzParams::sample(&mut SplitMix64::new(k)) }),
    );
}
