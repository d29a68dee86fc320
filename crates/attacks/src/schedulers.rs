//! The shared schedules: how the §7 attacks order their activations
//! within and across `tREFI` intervals. Each pattern's
//! [`AccessPattern::schedule`](crate::AccessPattern::schedule) calls one
//! of these (the fuzzer's phased schedule is its own).
//!
//! Free-running schedules ([`cascade`], [`interleave`], [`round_robin`])
//! issue the same ops every interval; REF-synchronised ones
//! ([`ref_sync`], [`window_sync`]) phase their work against the
//! TRR-capable-`REF` cadence the way the paper's attacker does via
//! SMASH-style timing channels (§7.1).

use dram_sim::HammerOp;

use crate::pattern::{AggressorLayout, RowDose, INTERVAL_BUDGET};

/// Emits the standard aggressor interleave: consecutive aggressors are
/// paired into alternating [`HammerOp::Pair`]s (the dose of the pair's
/// first row sets the pair count); a trailing unpaired aggressor gets a
/// back-to-back [`HammerOp::Burst`]. With the usual one- or two-aggressor
/// targets this reproduces `hammer` / `hammer_pair` exactly.
fn interleave_aggressors(aggressors: &[RowDose], slots: &mut Vec<HammerOp>) {
    for chunk in aggressors.chunks(2) {
        match *chunk {
            [a] => slots.push(HammerOp::Burst { row: a.row, acts: a.acts }),
            [a, b] => slots.push(HammerOp::Pair { first: a.row, second: b.row, pairs: a.acts }),
            _ => unreachable!("chunks(2) yields 1- or 2-element chunks"),
        }
    }
}

/// Each same-bank dummy as a burst, then each other-bank dummy.
fn push_dummies(layout: &AggressorLayout, slots: &mut Vec<HammerOp>) {
    for d in &layout.dummies {
        slots.push(HammerOp::Burst { row: d.row, acts: d.acts });
    }
    for &(bank, d) in &layout.other_bank {
        slots.push(HammerOp::OtherBank { bank, row: d.row, acts: d.acts });
    }
}

/// Cascaded hammering, every interval alike: each aggressor back-to-back
/// in layout order, then each same-bank dummy, then the other-bank
/// dummies. The vendor-A eviction pattern depends on exactly this order
/// (§5.2: "cascaded hammering is more effective at evading the TRR
/// mechanism" — interleaving two non-resident rows would let each
/// insertion evict the other from the counter table).
pub(crate) fn cascade(layout: &AggressorLayout, slots: &mut Vec<HammerOp>) {
    for a in &layout.aggressors {
        slots.push(HammerOp::Burst { row: a.row, acts: a.acts });
    }
    push_dummies(layout, slots);
}

/// Pair-interleaved hammering, every interval alike: the aggressors go
/// through `interleave_aggressors`; dummies and other-bank rows follow
/// as bursts. The double-sided shape.
pub(crate) fn interleave(layout: &AggressorLayout, slots: &mut Vec<HammerOp>) {
    interleave_aggressors(&layout.aggressors, slots);
    push_dummies(layout, slots);
}

/// TRRespass-style round robin: one activation per row per turn, rows in
/// layout order (aggressors then dummies), until every row has received
/// its dose — "the many sides aim to overflow the TRR tracker" (§2.4).
pub(crate) fn round_robin(layout: &AggressorLayout, slots: &mut Vec<HammerOp>) {
    let rows = layout.aggressors.iter().chain(&layout.dummies);
    let turns = rows.clone().map(|r| r.acts).max().unwrap_or(0);
    for turn in 0..turns {
        for r in rows.clone() {
            if r.acts > turn {
                slots.push(HammerOp::Burst { row: r.row, acts: 1 });
            }
        }
    }
}

/// The vendor-B sampler-stealing cadence for a TRR-to-REF `ratio` (4, 9,
/// or 2): hammer the aggressors at full rate in the intervals after a
/// TRR-capable `REF`, then spend the final interval before the next one
/// on dummy rows, so the sampler's register holds a dummy when TRR
/// fires. Same-bank dummies burst in the target bank (the per-bank
/// sampler of B_TRR3 — footnote 13); other-bank dummies run overlapped
/// (the chip-wide sampler of B_TRR1/2).
pub(crate) fn ref_sync(
    ratio: u64,
    layout: &AggressorLayout,
    interval: u64,
    slots: &mut Vec<HammerOp>,
) {
    // The REF ending this interval is TRR-capable iff the engine's
    // post-increment count is a ratio multiple.
    let trr_ref_next = (interval + 1).is_multiple_of(ratio);
    if trr_ref_next && ratio > 1 {
        // Diversion interval: steal the sampler with dummy rows.
        push_dummies(layout, slots);
    } else {
        interleave_aggressors(&layout.aggressors, slots);
    }
}

/// The vendor-C window-exhaustion cadence for a TRR-to-REF `ratio` (17,
/// 9, or 8): right after a TRR-induced refresh, fill the detector's
/// capture horizon with `dummy_acts` dummy activations (paper: ≥ 252,
/// spilling across intervals as needed), then hammer the aggressors
/// with whatever budget remains ("it is critical to synchronize the
/// dummy and aggressor row hammers with TRR-enabled REF commands").
pub(crate) fn window_sync(
    ratio: u64,
    dummy_acts: u64,
    layout: &AggressorLayout,
    interval: u64,
    slots: &mut Vec<HammerOp>,
) {
    // Position inside the TRR window: TRR-capable REFs end the
    // intervals where (interval + 1) is a ratio multiple, so
    // `interval % ratio` counts intervals since the last one.
    let pos = interval % ratio;
    let consumed = pos * INTERVAL_BUDGET;
    let dummy_now = dummy_acts.saturating_sub(consumed).min(INTERVAL_BUDGET);
    if dummy_now > 0 {
        let Some(d) = layout.dummies.first() else {
            return; // bank too small for a safe dummy
        };
        slots.push(HammerOp::Burst { row: d.row, acts: dummy_now });
    }
    let budget = INTERVAL_BUDGET - dummy_now;
    if budget == 0 {
        return;
    }
    match layout.aggressors[..] {
        [a] => slots.push(HammerOp::Burst { row: a.row, acts: budget.min(a.acts * 2) }),
        [a, b] => slots.push(HammerOp::Pair {
            first: a.row,
            second: b.row,
            pairs: (budget / 2).min(a.acts),
        }),
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dram_sim::{Bank, RowAddr};

    fn dose(row: u32, acts: u64) -> RowDose {
        RowDose::new(RowAddr::new(row), acts)
    }

    fn two_sided_layout() -> AggressorLayout {
        AggressorLayout {
            aggressors: vec![dose(10, 24), dose(12, 24)],
            dummies: (0..16).map(|i| dose(500 + i * 10, 6)).collect(),
            other_bank: vec![(Bank::new(1), dose(300, 156))],
        }
    }

    #[test]
    fn cascade_orders_aggressors_then_dummies() {
        let mut slots = Vec::new();
        cascade(&two_sided_layout(), &mut slots);
        assert_eq!(slots.len(), 2 + 16 + 1);
        assert_eq!(slots[0], HammerOp::Burst { row: RowAddr::new(10), acts: 24 });
        assert_eq!(slots[1], HammerOp::Burst { row: RowAddr::new(12), acts: 24 });
        assert_eq!(slots[2], HammerOp::Burst { row: RowAddr::new(500), acts: 6 });
        assert!(matches!(slots[18], HammerOp::OtherBank { .. }));
    }

    #[test]
    fn interleave_pairs_consecutive_aggressors() {
        let mut slots = Vec::new();
        let layout = AggressorLayout {
            aggressors: vec![dose(10, 70), dose(14, 70), dose(11, 3)],
            ..AggressorLayout::default()
        };
        interleave(&layout, &mut slots);
        assert_eq!(
            slots,
            vec![
                HammerOp::Pair { first: RowAddr::new(10), second: RowAddr::new(14), pairs: 70 },
                HammerOp::Burst { row: RowAddr::new(11), acts: 3 },
            ]
        );
    }

    #[test]
    fn round_robin_one_act_per_turn() {
        let mut slots = Vec::new();
        let layout = AggressorLayout {
            aggressors: vec![dose(10, 2), dose(12, 2)],
            dummies: vec![dose(700, 2)],
            ..AggressorLayout::default()
        };
        round_robin(&layout, &mut slots);
        assert_eq!(slots.len(), 6);
        assert!(slots.iter().all(|s| matches!(s, HammerOp::Burst { acts: 1, .. })));
        assert_eq!(slots[0], HammerOp::Burst { row: RowAddr::new(10), acts: 1 });
        assert_eq!(slots[2], HammerOp::Burst { row: RowAddr::new(700), acts: 1 });
    }

    #[test]
    fn ref_sync_diverts_only_before_trr_capable_refs() {
        let layout = two_sided_layout();
        // Intervals 0..2 hammer (REF counts 1..3 are not multiples of 4).
        for interval in 0..3 {
            let mut slots = Vec::new();
            ref_sync(4, &layout, interval, &mut slots);
            assert_eq!(slots.len(), 1, "interval {interval} must hammer");
            assert!(matches!(slots[0], HammerOp::Pair { .. }));
        }
        // Interval 3 ends with the TRR-capable 4th REF: diversion.
        let mut slots = Vec::new();
        ref_sync(4, &layout, 3, &mut slots);
        assert_eq!(slots.len(), 17);
        assert!(slots.iter().take(16).all(|s| matches!(s, HammerOp::Burst { .. })));
        assert!(matches!(slots[16], HammerOp::OtherBank { .. }));
    }

    #[test]
    fn window_sync_spills_dummies_then_hammers() {
        let layout = two_sided_layout();
        // Interval 0: all budget on dummies (320 > 149).
        let mut slots = Vec::new();
        window_sync(17, 320, &layout, 0, &mut slots);
        assert_eq!(slots, vec![HammerOp::Burst { row: RowAddr::new(500), acts: 149 }]);
        // Interval 2: 320 - 2*149 = 22 dummies, the rest on aggressors.
        let mut slots = Vec::new();
        window_sync(17, 320, &layout, 2, &mut slots);
        assert_eq!(slots[0], HammerOp::Burst { row: RowAddr::new(500), acts: 22 });
        assert_eq!(
            slots[1],
            HammerOp::Pair { first: RowAddr::new(10), second: RowAddr::new(12), pairs: 24 }
        );
        // Interval 3 onward: full hammering budget.
        let mut slots = Vec::new();
        window_sync(17, 320, &layout, 3, &mut slots);
        assert_eq!(slots.len(), 1);
        assert!(matches!(slots[0], HammerOp::Pair { pairs: 24, .. }));
    }

    #[test]
    fn window_sync_without_dummy_rows_skips_the_interval() {
        let layout =
            AggressorLayout { aggressors: vec![dose(10, 74)], ..AggressorLayout::default() };
        let mut slots = Vec::new();
        window_sync(17, 320, &layout, 0, &mut slots);
        assert!(slots.is_empty(), "a pending dummy dose with no dummy row skips everything");
    }
}
