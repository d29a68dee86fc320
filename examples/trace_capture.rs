//! Capture and replay DDR command traces: build the vendor-A custom
//! pattern as an explicit command trace, serialize it to the
//! line-oriented SoftMC-style text format, parse it back, and replay it
//! on a fresh module — demonstrating that the whole attack is a
//! deterministic, auditable artifact.
//!
//! ```sh
//! cargo run --release --example trace_capture
//! ```

use dram_sim::{Bank, DataPattern, Nanos, RowAddr};
use softmc::trace::{CommandTrace, TraceCommand::*};
use utrr::utrr_modules::by_id;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let spec = by_id("A5").expect("catalog module");
    let bank = Bank::new(0);
    let victim = RowAddr::new(512);
    let (a0, a1) = (victim.minus(1), victim.plus(1));

    // Author the §7.1 vendor-A pattern as an explicit trace: victim
    // init, then per REF interval 24 cascaded hammers per aggressor
    // followed by 16 dummy-row insertions, closed by the REF.
    let mut trace = CommandTrace::new();
    let mut t = Nanos::ZERO;
    trace.push(t, Act { bank, row: victim });
    trace.push(t, WriteRow { bank, pattern: DataPattern::RowStripe });
    trace.push(t, Pre { bank });
    t += Nanos::from_us(1);
    let t_refi = Nanos::from_ns(7_800);
    for interval in 0..4_000u64 {
        trace.push(t, Hammer { bank, row: a0, count: 24 });
        trace.push(t + Nanos::from_ns(1_200), Hammer { bank, row: a1, count: 24 });
        for d in 0..16u32 {
            let dummy = Hammer { bank, row: RowAddr::new(700 + d * 4), count: 6 };
            trace.push(t + Nanos::from_ns(2_400 + d as u64 * 300), dummy);
        }
        trace.push(t + Nanos::from_ns(7_400), Ref);
        t += t_refi;
        let _ = interval;
    }
    trace.push(t, Act { bank, row: victim });
    trace.push(t, ReadRow { bank });
    trace.push(t, Pre { bank });

    // Serialize → parse → replay on a fresh module.
    let text = trace.to_text();
    println!("trace: {} commands, {} KiB of text", trace.len(), text.len() / 1024);
    println!("first lines:");
    for line in text.lines().take(6) {
        println!("  {line}");
    }
    let parsed = CommandTrace::parse(&text)?;
    assert_eq!(parsed, trace);

    let mut module = spec.build_scaled(2_048, 5);
    parsed.replay(&mut module)?;
    let readout = module.read_row(bank, victim)?;
    println!(
        "\nreplayed {} REFs against {} ({}): victim row {} shows {} bit flips",
        module.ref_count(),
        spec.id,
        spec.trr_version,
        victim.index(),
        readout.flip_count()
    );
    assert!(!readout.is_clean(), "the traced attack must flip the victim");
    Ok(())
}
