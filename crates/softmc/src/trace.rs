//! DDR command traces: record, serialize, parse, replay.
//!
//! SoftMC programs are ultimately flat lists of timed DDR commands; this
//! module gives the simulated controller the same artifact. A recorded
//! [`CommandTrace`] serializes to a line-oriented text format
//! (`@<ns> <CMD> <args…>`), parses back, and replays onto any
//! [`Module`] — which makes experiments auditable, diffable, and
//! portable toward real SoftMC hardware.
//!
//! # Example
//!
//! ```
//! use dram_sim::{Module, ModuleConfig, Bank, RowAddr};
//! use softmc::trace::{CommandTrace, TraceCommand};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut trace = CommandTrace::new();
//! let hammer = TraceCommand::Hammer { bank: Bank::new(0), row: RowAddr::new(5), count: 100 };
//! trace.push(dram_sim::Nanos::ZERO, hammer);
//! trace.push(dram_sim::Nanos::from_us(7), TraceCommand::Ref);
//!
//! let text = trace.to_text();
//! let parsed = CommandTrace::parse(&text)?;
//! assert_eq!(parsed, trace);
//!
//! let mut module = Module::new(ModuleConfig::small_test(), 1);
//! parsed.replay(&mut module)?;
//! assert_eq!(module.ref_count(), 1);
//! # Ok(())
//! # }
//! ```

use std::fmt;
use std::str::FromStr;
use std::sync::Arc;

use dram_sim::{Bank, DataPattern, DramError, Module, Nanos, RowAddr};

/// One recorded command.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceCommand {
    /// Open a row.
    Act {
        /// Target bank.
        bank: Bank,
        /// Logical row.
        row: RowAddr,
    },
    /// Close the open row.
    Pre {
        /// Target bank.
        bank: Bank,
    },
    /// Full-row write of a pattern into the open row.
    WriteRow {
        /// Target bank.
        bank: Bank,
        /// Pattern written.
        pattern: DataPattern,
    },
    /// Full-row read of the open row.
    ReadRow {
        /// Target bank.
        bank: Bank,
    },
    /// One refresh command.
    Ref,
    /// `count` back-to-back ACT/PRE cycles of a row.
    Hammer {
        /// Target bank.
        bank: Bank,
        /// Hammered row.
        row: RowAddr,
        /// Cycles.
        count: u64,
    },
    /// `pairs` alternating ACT/PRE cycles of two rows.
    HammerPair {
        /// Target bank.
        bank: Bank,
        /// First row of each pair.
        first: RowAddr,
        /// Second row of each pair.
        second: RowAddr,
        /// Pair count.
        pairs: u64,
    },
    /// Idle time.
    Wait {
        /// Duration.
        duration: Nanos,
    },
}

/// A timestamped command.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEntry {
    /// Device time when the command was issued.
    pub at: Nanos,
    /// The command.
    pub command: TraceCommand,
}

/// An ordered list of timestamped DDR commands. No repro binary records
/// one; the `trace_capture` example builds, serializes and replays one.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CommandTrace {
    entries: Vec<TraceEntry>,
}

fn pattern_token(pattern: &DataPattern) -> String {
    match pattern {
        DataPattern::Custom(bytes) => {
            let hex: String = bytes.iter().map(|b| format!("{b:02x}")).collect();
            format!("custom:{hex}")
        }
        named => named.label().to_string(),
    }
}

fn parse_pattern(token: &str) -> Result<DataPattern, TraceParseError> {
    match token {
        "zeros" => Ok(DataPattern::Zeros),
        "ones" => Ok(DataPattern::Ones),
        "checkerboard" => Ok(DataPattern::Checkerboard),
        "rowstripe" => Ok(DataPattern::RowStripe),
        custom if custom.starts_with("custom:") => {
            let hex = &custom["custom:".len()..];
            if hex.is_empty() || hex.len() % 2 != 0 {
                return Err(TraceParseError::bad_field(token));
            }
            let bytes: Result<Vec<u8>, _> =
                (0..hex.len()).step_by(2).map(|i| u8::from_str_radix(&hex[i..i + 2], 16)).collect();
            Ok(DataPattern::Custom(Arc::from(
                bytes.map_err(|_| TraceParseError::bad_field(token))?,
            )))
        }
        other => Err(TraceParseError::bad_field(other)),
    }
}

impl CommandTrace {
    /// An empty trace.
    pub fn new() -> Self {
        CommandTrace::default()
    }

    /// The recorded entries, in order.
    pub fn entries(&self) -> &[TraceEntry] {
        &self.entries
    }

    /// Number of recorded commands.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Appends a raw entry.
    pub fn push(&mut self, at: Nanos, command: TraceCommand) {
        self.entries.push(TraceEntry { at, command });
    }

    /// Serializes the trace to its line-oriented text form.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        for entry in &self.entries {
            out.push_str(&format!("{entry}\n"));
        }
        out
    }

    /// Parses a trace from its text form. Blank lines and `#` comments
    /// are ignored.
    ///
    /// # Errors
    ///
    /// Returns the first malformed line.
    pub fn parse(text: &str) -> Result<Self, TraceParseError> {
        let mut trace = CommandTrace::new();
        for (number, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let entry: TraceEntry =
                line.parse().map_err(|e: TraceParseError| e.at_line(number + 1))?;
            trace.entries.push(entry);
        }
        Ok(trace)
    }

    /// Replays the trace onto a module, advancing the module's clock to
    /// each entry's timestamp before issuing it.
    ///
    /// The replay is wrapped in a `softmc.trace.replay` span on the
    /// module's metrics registry, tagged with the command count; the span
    /// closes at the module's clock after the last replayed entry, even
    /// when the replay fails partway.
    ///
    /// # Errors
    ///
    /// Propagates device protocol errors (a trace recorded on one
    /// geometry may not fit another).
    pub fn replay(&self, module: &mut Module) -> Result<(), DramError> {
        let registry = std::sync::Arc::clone(module.registry());
        let span = obs::span!(
            registry,
            "softmc.trace.replay",
            module.now().as_ns(),
            commands = self.entries.len() as u64
        );
        let result = self.replay_inner(module);
        span.finish(module.now().as_ns());
        result
    }

    fn replay_inner(&self, module: &mut Module) -> Result<(), DramError> {
        for entry in &self.entries {
            if entry.at > module.now() {
                module.advance(entry.at - module.now());
            }
            match &entry.command {
                TraceCommand::Act { bank, row } => module.activate(*bank, *row)?,
                TraceCommand::Pre { bank } => module.precharge(*bank)?,
                TraceCommand::WriteRow { bank, pattern } => {
                    module.write_open_row(*bank, pattern.clone())?;
                }
                TraceCommand::ReadRow { bank } => {
                    module.read_open_row(*bank)?;
                }
                TraceCommand::Ref => module.refresh(),
                TraceCommand::Hammer { bank, row, count } => {
                    module.hammer(*bank, *row, *count)?;
                }
                TraceCommand::HammerPair { bank, first, second, pairs } => {
                    module.hammer_pair(*bank, *first, *second, *pairs)?;
                }
                TraceCommand::Wait { duration } => module.advance(*duration),
            }
        }
        Ok(())
    }
}

impl fmt::Display for TraceEntry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "@{} ", self.at.as_ns())?;
        match &self.command {
            TraceCommand::Act { bank, row } => {
                write!(f, "ACT {} {}", bank.index(), row.index())
            }
            TraceCommand::Pre { bank } => write!(f, "PRE {}", bank.index()),
            TraceCommand::WriteRow { bank, pattern } => {
                write!(f, "WR {} {}", bank.index(), pattern_token(pattern))
            }
            TraceCommand::ReadRow { bank } => write!(f, "RD {}", bank.index()),
            TraceCommand::Ref => write!(f, "REF"),
            TraceCommand::Hammer { bank, row, count } => {
                write!(f, "HAMMER {} {} {}", bank.index(), row.index(), count)
            }
            TraceCommand::HammerPair { bank, first, second, pairs } => write!(
                f,
                "HAMMERPAIR {} {} {} {}",
                bank.index(),
                first.index(),
                second.index(),
                pairs
            ),
            TraceCommand::Wait { duration } => write!(f, "WAIT {}", duration.as_ns()),
        }
    }
}

/// Error from [`CommandTrace::parse`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceParseError {
    line: Option<usize>,
    field: String,
}

impl TraceParseError {
    fn bad_field(field: &str) -> Self {
        TraceParseError { line: None, field: field.to_string() }
    }

    fn at_line(mut self, line: usize) -> Self {
        self.line = Some(line);
        self
    }
}

impl fmt::Display for TraceParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.line {
            Some(n) => write!(f, "trace line {n}: unparseable field {:?}", self.field),
            None => write!(f, "unparseable trace field {:?}", self.field),
        }
    }
}

impl std::error::Error for TraceParseError {}

impl FromStr for TraceEntry {
    type Err = TraceParseError;

    fn from_str(line: &str) -> Result<Self, Self::Err> {
        let mut parts = line.split_whitespace();
        let stamp = parts.next().ok_or_else(|| TraceParseError::bad_field(line))?;
        let at = stamp
            .strip_prefix('@')
            .and_then(|n| n.parse::<u64>().ok())
            .map(Nanos::from_ns)
            .ok_or_else(|| TraceParseError::bad_field(stamp))?;
        let op = parts.next().ok_or_else(|| TraceParseError::bad_field(line))?;
        let mut field = |name: &str| -> Result<String, TraceParseError> {
            parts.next().map(str::to_string).ok_or_else(|| TraceParseError::bad_field(name))
        };
        let parse_u = |s: &str| s.parse::<u64>().map_err(|_| TraceParseError::bad_field(s));
        let command = match op {
            "ACT" => TraceCommand::Act {
                bank: Bank::new(parse_u(&field("bank")?)? as u8),
                row: RowAddr::new(parse_u(&field("row")?)? as u32),
            },
            "PRE" => TraceCommand::Pre { bank: Bank::new(parse_u(&field("bank")?)? as u8) },
            "WR" => TraceCommand::WriteRow {
                bank: Bank::new(parse_u(&field("bank")?)? as u8),
                pattern: parse_pattern(&field("pattern")?)?,
            },
            "RD" => TraceCommand::ReadRow { bank: Bank::new(parse_u(&field("bank")?)? as u8) },
            "REF" => TraceCommand::Ref,
            "HAMMER" => TraceCommand::Hammer {
                bank: Bank::new(parse_u(&field("bank")?)? as u8),
                row: RowAddr::new(parse_u(&field("row")?)? as u32),
                count: parse_u(&field("count")?)?,
            },
            "HAMMERPAIR" => TraceCommand::HammerPair {
                bank: Bank::new(parse_u(&field("bank")?)? as u8),
                first: RowAddr::new(parse_u(&field("first")?)? as u32),
                second: RowAddr::new(parse_u(&field("second")?)? as u32),
                pairs: parse_u(&field("pairs")?)?,
            },
            "WAIT" => TraceCommand::Wait { duration: Nanos::from_ns(parse_u(&field("ns")?)?) },
            other => return Err(TraceParseError::bad_field(other)),
        };
        Ok(TraceEntry { at, command })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dram_sim::ModuleConfig;

    fn sample_trace() -> CommandTrace {
        use TraceCommand::*;
        let mut t = CommandTrace::new();
        let bank = Bank::new(0);
        let (r4, r5, r6) = (RowAddr::new(4), RowAddr::new(5), RowAddr::new(6));
        t.push(Nanos::ZERO, Act { bank, row: r5 });
        t.push(Nanos::from_ns(35), WriteRow { bank, pattern: DataPattern::Ones });
        t.push(Nanos::from_ns(535), Pre { bank });
        t.push(Nanos::from_ns(600), Hammer { bank, row: r6, count: 1_000 });
        t.push(Nanos::from_us(51), HammerPair { bank, first: r4, second: r6, pairs: 500 });
        t.push(Nanos::from_us(101), Ref);
        t.push(Nanos::from_us(102), Wait { duration: Nanos::from_ms(150) });
        t.push(Nanos::from_ms(151), Act { bank, row: r5 });
        t.push(Nanos::from_ms(151) + Nanos::from_ns(35), ReadRow { bank });
        t.push(Nanos::from_ms(152), Pre { bank });
        t
    }

    #[test]
    fn text_roundtrip() {
        let trace = sample_trace();
        let text = trace.to_text();
        assert!(text.contains("HAMMER 0 6 1000"));
        assert!(text.contains("WR 0 ones"));
        let parsed = CommandTrace::parse(&text).unwrap();
        assert_eq!(parsed, trace);
    }

    #[test]
    fn custom_pattern_roundtrip() {
        let mut t = CommandTrace::new();
        let pattern = DataPattern::Custom(std::sync::Arc::from(&[0xDE, 0xAD][..]));
        t.push(Nanos::ZERO, TraceCommand::WriteRow { bank: Bank::new(1), pattern });
        let parsed = CommandTrace::parse(&t.to_text()).unwrap();
        assert_eq!(parsed, t);
        assert!(t.to_text().contains("custom:dead"));
    }

    #[test]
    fn comments_and_blanks_are_skipped() {
        let text = "# a comment\n\n@0 REF\n  \n@7800 REF\n";
        let trace = CommandTrace::parse(text).unwrap();
        assert_eq!(trace.len(), 2);
    }

    #[test]
    fn malformed_lines_report_their_number() {
        let err = CommandTrace::parse("@0 REF\n@5 BOGUS 1\n").unwrap_err();
        assert!(err.to_string().contains("line 2"));
        assert!(err.to_string().contains("BOGUS"));
        assert!(CommandTrace::parse("REF").is_err(), "timestamp required");
        assert!(CommandTrace::parse("@x REF").is_err());
        assert!(CommandTrace::parse("@0 WR 0 custom:xyz").is_err());
        assert!(CommandTrace::parse("@0 HAMMER 0 5").is_err(), "missing count");
    }

    #[test]
    fn replay_reproduces_device_state() {
        let trace = sample_trace();
        let mut a = Module::new(ModuleConfig::small_test(), 9);
        let mut b = Module::new(ModuleConfig::small_test(), 9);
        trace.replay(&mut a).unwrap();
        CommandTrace::parse(&trace.to_text()).unwrap().replay(&mut b).unwrap();
        assert_eq!(a.ref_count(), b.ref_count());
        a.flush_metrics();
        b.flush_metrics();
        assert_eq!(a.registry().counters_snapshot(), b.registry().counters_snapshot());
        // Same final readout of the written row.
        let ra = a.read_row(Bank::new(0), RowAddr::new(5)).unwrap();
        let rb = b.read_row(Bank::new(0), RowAddr::new(5)).unwrap();
        assert_eq!(ra, rb);
    }

    /// The registry view of a replayed trace is an exact backfill of the
    /// trace's command totals: every ACT (batched hammers expanded), PRE,
    /// REF, and row read/write lands in the matching counter.
    #[test]
    fn replay_backfills_registry_counters_exactly() {
        let trace = sample_trace();
        let (mut acts, mut pres, mut refs, mut reads, mut writes) = (0u64, 0u64, 0u64, 0u64, 0u64);
        for entry in trace.entries() {
            match &entry.command {
                TraceCommand::Act { .. } => acts += 1,
                TraceCommand::Pre { .. } => pres += 1,
                TraceCommand::WriteRow { .. } => writes += 1,
                TraceCommand::ReadRow { .. } => reads += 1,
                TraceCommand::Ref => refs += 1,
                TraceCommand::Hammer { count, .. } => acts += count,
                TraceCommand::HammerPair { pairs, .. } => acts += 2 * pairs,
                TraceCommand::Wait { .. } => {}
            }
        }

        let registry = obs::MetricsRegistry::shared();
        let mut module = Module::new(ModuleConfig::small_test(), 9);
        module.attach_registry(Arc::clone(&registry));
        trace.replay(&mut module).unwrap();
        module.flush_metrics();

        use dram_sim::metrics::{CTR_ACT, CTR_PRE, CTR_REF, CTR_ROW_READS, CTR_ROW_WRITES};
        assert_eq!(registry.counter(CTR_ACT).get(), acts);
        assert_eq!(registry.counter(CTR_PRE).get(), pres);
        assert_eq!(registry.counter(CTR_REF).get(), refs);
        assert_eq!(registry.counter(CTR_ROW_READS).get(), reads);
        assert_eq!(registry.counter(CTR_ROW_WRITES).get(), writes);

        // The replay span covers the whole trace.
        let (spans, _) = registry.spans_snapshot();
        let span = spans.iter().find(|s| s.name == "softmc.trace.replay").unwrap();
        assert_eq!(span.fields, vec![("commands".to_string(), trace.len() as u64)]);
        assert_eq!(span.sim_end, module.now().as_ns());
    }

    /// A replay stops at the first device error and returns it; the
    /// executed prefix stays applied, as on real hardware.
    #[test]
    fn replay_rejects_oversized_addresses() {
        let mut t = CommandTrace::new();
        t.push(Nanos::ZERO, TraceCommand::Act { bank: Bank::new(50), row: RowAddr::new(5) });
        let mut m = Module::new(ModuleConfig::small_test(), 9);
        assert!(t.replay(&mut m).is_err());

        let bank = Bank::new(0);
        let mut t = CommandTrace::new();
        t.push(Nanos::ZERO, TraceCommand::Act { bank, row: RowAddr::new(1) });
        t.push(Nanos::ZERO, TraceCommand::Act { bank, row: RowAddr::new(2) });
        t.push(Nanos::ZERO, TraceCommand::Ref);
        let mut m = Module::new(ModuleConfig::small_test(), 9);
        let err = t.replay(&mut m).unwrap_err();
        assert!(matches!(err, DramError::BankAlreadyOpen { .. }));
        assert_eq!(m.ref_count(), 0, "nothing after the failing command runs");
        assert!(m.precharge(bank).is_ok(), "the prefix ran: the bank is still open");
    }

    #[test]
    fn empty_trace_is_empty() {
        let t = CommandTrace::new();
        assert!(t.is_empty());
        assert_eq!(t.len(), 0);
        assert_eq!(t.to_text(), "");
    }
}
