//! Full §6 reverse engineering of one module per vendor: the mapping
//! probe (§5.3), Row Scout, schedule learning, and the complete
//! experiment suite — everything U-TRR infers purely through the DDR
//! command interface, compared against the planted ground truth.
//!
//! ```sh
//! cargo run --release --example reverse_engineer
//! ```

use dram_sim::{Bank, RowAddr};
use softmc::MemoryController;
use utrr::utrr_core::mapping_re::{candidate_mappings, detect_paired_rows, discover_mapping};
use utrr::utrr_modules::by_id;
use utrr_bench::{reverse_engineer, RunConfig};

fn main() {
    for id in ["A0", "B7", "C7"] {
        let spec = by_id(id).expect("catalog module");
        println!(
            "== module {} ({} {}, manufactured {}) ==",
            spec.id, spec.vendor, spec.trr_version, spec.date
        );

        // §5.3: reverse engineer the logical→physical row mapping first.
        // A0 and B7 carry decoder scrambling; C7 uses paired rows.
        let mut mc = MemoryController::new(spec.build(3));
        let bank = Bank::new(0);
        // Plenty of probes (row strength varies hugely; many probes
        // come back inconclusive on strong parts), spread over the bank
        // and including block-boundary rows that discriminate mirror and
        // XOR decoders.
        let rows = mc.module().geometry().rows_per_bank;
        let probes: Vec<RowAddr> =
            (0..24u32).map(|i| RowAddr::new(640 + i * (rows - 1_280) / 24 + i % 8)).collect();
        // Probe hammer counts scale with the module's RowHammer
        // threshold: distance-1 neighbours must flip decisively.
        let paired_hammers = spec.hc_first * 16;
        let mapping_hammers = spec.hc_first * 16;
        let paired = detect_paired_rows(&mut mc, bank, &probes, paired_hammers)
            .expect("probe runs")
            .unwrap_or(false);
        println!(
            "  paired-row organization: {paired} (ground truth: {})",
            spec.topology() == dram_sim::Topology::Paired
        );
        if !paired {
            let mapping =
                discover_mapping(&mut mc, bank, &probes, &candidate_mappings(), mapping_hammers)
                    .expect("probe runs");
            println!("  discovered mapping: {mapping:?} (ground truth: {:?})", spec.mapping());
        }

        // §6: the full experiment suite on a scaled build.
        let outcome =
            reverse_engineer(&spec, &RunConfig::new(2_048, 7)).expect("the suite completes");
        println!(
            "  inferred: ratio 1/{}, {} neighbours refreshed, {:?}, per-bank {}",
            outcome.profile.trr_ref_ratio,
            outcome.profile.neighbors_refreshed,
            outcome.profile.detection,
            outcome.profile.per_bank,
        );
        println!(
            "  regular refresh period: {} REFs (ground truth {})",
            outcome.refresh_period,
            spec.refresh().period_refs,
        );
        println!(
            "  ground truth fully re-discovered: {}",
            if outcome.matches.all() { "yes" } else { "partially" }
        );
        println!();
    }
}
