//! One `Module::hammer_batch` call per op list against one call per op:
//! on an error mid-batch the batch must have run (and counted) exactly
//! the ops before it, like the one-call loop that stops there.

use super::*;

proptest! {
    #![proptest_config(config())]
    #[test]
    fn batch_matches_one_call_per_op(device in device(), program in steps(0..24, 1..40)) {
        assert_twins(Path::Batched, &device, &program)?;
    }
}

/// 400 batches of the cascade plus an interleaved pair, each followed
/// by a `REF`, every 97th with an out-of-range op mid-batch. Every op
/// keeps its own `act` event, in order, so the batched trace equals the
/// one-call trace.
#[test]
fn every_engine_matches_on_a_fixed_program() -> Result<(), TestCaseError> {
    let mut ops = vec![Op::Write(0, 120, 0), Op::Write(0, 130, 1), Op::Write(1, 121, 2)];
    for interval in 0..400 {
        let mut batch = cascade();
        batch.insert(18, pair(129, 131, 40));
        if interval % 97 == 0 {
            batch.insert(5, burst(OUT_OF_RANGE, 1));
        }
        ops.extend([Op::Batch(Bank::new(0), batch), Op::Refs(1)]);
    }
    ops.extend([Op::Advance(100_000), Op::Refs(50)]);
    let program = Program { phases: Vec::new(), ops };
    for engine in ENGINES {
        let device = Device { engine, layout: 0, period: 1_024, seed: 3 };
        let batched = assert_twins(Path::Batched, &device, &program)?;
        assert_eq!(batched.count("errors"), 5, "{engine}");
        assert!(batched.count(CTR_ACT) > 50_000, "{engine}: the program hammers");
        assert_eq!(batched.count(CTR_REF), 450, "{engine}");
        let acts = batched.events(TraceKind::Act);
        assert!(acts > 1_000, "{engine}: one act event per op, got {acts}");
    }
    Ok(())
}
