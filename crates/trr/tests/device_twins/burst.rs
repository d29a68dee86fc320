//! A segmented `REF` burst (`Module::refresh_burst_at_refi(n)`, which
//! lets the engine skip the `REF`s that provably detect nothing)
//! against `n` × (`refresh()` + `advance(tREFI − tRFC)`).

use super::*;

proptest! {
    #![proptest_config(config())]
    #[test]
    fn segmented_burst_matches_per_ref_refresh(
        device in device(),
        program in steps(1..2, 1..3_000),
    ) {
        assert_twins(Path::Segmented, &device, &program)?;
    }
}

/// Six rounds of writes, hammers and long bursts, long enough for every
/// engine to detect, decay and skip. The skipped `REF`s keep their trace
/// events: one `ref` event per `REF`.
#[test]
fn every_engine_matches_on_a_fixed_program() -> Result<(), TestCaseError> {
    let mut ops = Vec::new();
    for round in 0..6u32 {
        let r = 100 + 7 * round;
        ops.extend([
            Op::Write(0, r, (round % 3) as u8),
            Op::Write(1, r + 1, 0),
            Op::Batch(Bank::new(0), vec![pair(r - 1, r + 1, 1_200)]),
            Op::Batch(Bank::new(1), vec![burst(r + 2, 2_500)]),
            Op::Refs(900 + 300 * round as u64),
            Op::Advance(40_000 * round as u64 + 1),
            Op::Refs(17),
        ]);
    }
    let program = Program { phases: Vec::new(), ops };
    for engine in ENGINES {
        for period in PERIODS {
            let device = Device { engine, layout: 0, period, seed: 3 };
            let segmented = assert_twins(Path::Segmented, &device, &program)?;
            assert!(segmented.count(CTR_REF) > 10_000, "{engine}: the program bursts");
            assert!(segmented.count(CTR_ACT) > 0, "{engine}: no ACT reached the registry");
            let refs = segmented.events(TraceKind::Ref) as u64;
            assert_eq!(refs, segmented.count("ref_count") + 64, "{engine} at {period}");
            assert_eq!(segmented.count("trace.dropped"), 0, "{engine} at {period}");
        }
    }
    Ok(())
}
