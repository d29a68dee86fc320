//! A hammer program resolved once per phase (`Module::plan`) and
//! replayed every `tREFI` (`Module::run_plan`), as the §7 harness runs a
//! pattern, against one call per op in every interval. The programs
//! reach rows first touched mid-program, rows rewritten between
//! intervals and out-of-range ops mid-phase (the plan keeps the error
//! and runs the prefix).

use super::*;

fn programs() -> impl Strategy<Value = Program> {
    let touched: Vec<(u8, u32)> =
        (0u8..2).flat_map(|b| ROWS.into_iter().flatten().map(move |r| (b, r))).collect();
    (
        vec((0u8..2, vec(op(), 0..12)).prop_map(|(b, ops)| (Bank::new(b), ops)), 1..19),
        // Per touched row: a pattern, or (one time in four) no write, so
        // the program is the row's first touch.
        vec(0u8..4, touched.len()),
        // Runs of intervals, each followed by a row rewrite.
        vec((1u64..60, 0u8..2, 0u32..1024, 0u8..3), 1..5),
    )
        .prop_map(move |(phases, patterns, runs)| {
            let writes = touched.iter().zip(patterns).filter(|&(_, p)| p < 3);
            let mut ops: Vec<_> = writes.map(|(&(b, r), p)| Op::Write(b, r, p)).collect();
            ops.extend(
                runs.into_iter().flat_map(|(n, b, r, p)| [Op::Intervals(n), Op::Write(b, r, p)]),
            );
            Program { phases, ops }
        })
}

proptest! {
    #![proptest_config(config())]
    #[test]
    fn replayed_plans_match_one_call_per_op(device in device(), program in programs()) {
        assert_twins(Path::Planned, &device, &program)?;
    }
}

/// Phases: the cascade twice, pairs on never-written rows (created at
/// interval 2), the cascade, other-bank bursts and edge rows, and an
/// out-of-range op mid-way (every replay runs the prefix only).
#[test]
fn every_engine_and_layout_matches_on_a_fixed_program() -> Result<(), TestCaseError> {
    let mut cascade = cascade();
    cascade.push(burst(1, 5));
    let fresh = vec![pair(129, 131, 70), burst(1022, 9)];
    let divert = vec![other(1, 512, 156), burst(1023, 20), pair(0, 2, 0)];
    let broken = vec![burst(119, 30), burst(OUT_OF_RANGE, 1), burst(121, 30)];
    let phases = [cascade.clone(), cascade.clone(), fresh, cascade, divert, broken];
    let writes = [(0, 120, 0), (0, 130, 1), (1, 121, 2), (0, 3, 0), (0, 1020, 1)];
    let mut ops: Vec<_> = writes.map(|(b, r, p)| Op::Write(b, r, p)).into();
    // Two rows rewritten after intervals 40 and 41.
    ops.extend([Op::Intervals(41), Op::Write(0, 120, 2), Op::Intervals(1), Op::Write(0, 139, 0)]);
    ops.push(Op::Intervals(558));
    let program = Program { phases: phases.map(|ops| (Bank::new(0), ops)).into(), ops };
    for engine in ENGINES {
        for layout in 0..LAYOUTS.len() {
            let device = Device { engine, layout, period: 1_024, seed: 3 };
            let planned = assert_twins(Path::Planned, &device, &program)?;
            assert_eq!(planned.count("errors"), 100, "{engine}");
            assert!(planned.count(CTR_ACT) > 50_000, "{engine}: the program hammers");
            assert_eq!(planned.count(CTR_REF), 600, "{engine}");
            let acts = planned.events(TraceKind::Act);
            assert!(acts > 5_000, "{engine}: one act event per op, got {acts}");
        }
    }
    Ok(())
}
