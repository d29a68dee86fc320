//! JSONL run artifacts: one JSON object per line, hand-rolled (no
//! serde), plus a minimal JSON parser so tests can read artifacts back.
//!
//! Line shapes (`type` field first so artifacts grep and diff well):
//!
//! ```text
//! {"type":"meta","schema":"utrr-obs/3"}
//! {"type":"counter","name":"dram.cmd.act","value":5000}
//! {"type":"histogram","name":"par.task_ns","count":…,"sum":…,
//!  "min":…,"max":…,"mean":…,"p50":…,"p90":…,"p99":…,"bins":[[lower,count],…]}
//! {"type":"span","name":"utrr.analyzer.round","count":12868,"wall_ns":…,"sim_ns":…}
//! ```
//!
//! A span line holds the exact totals of every closed span of its name:
//! how many closed, and their summed wall-clock and simulated
//! durations. Counters, histograms and spans are each emitted in name
//! order, so two runs of the same workload produce line-diffable
//! artifacts.

use std::fmt::Write as _;
use std::io::{self, Write};

use crate::metrics::{HistogramSnapshot, MetricsRegistry};

/// Artifact schema tag, bumped on incompatible line-shape changes.
pub(crate) const SCHEMA: &str = "utrr-obs/3";

/// Serialises the registry's full state as JSONL into `out`.
pub(crate) fn write_jsonl(registry: &MetricsRegistry, out: &mut impl Write) -> io::Result<()> {
    writeln!(out, "{{\"type\":\"meta\",\"schema\":\"{SCHEMA}\"}}")?;

    for (name, value) in registry.counters_snapshot() {
        writeln!(out, "{{\"type\":\"counter\",\"name\":{},\"value\":{value}}}", quote(&name))?;
    }
    for (name, snapshot) in registry.histograms_snapshot() {
        writeln!(out, "{}", histogram_line(&name, &snapshot))?;
    }
    for (name, totals) in registry.span_totals() {
        writeln!(
            out,
            "{{\"type\":\"span\",\"name\":{},\"count\":{},\"wall_ns\":{},\"sim_ns\":{}}}",
            quote(&name),
            totals.count,
            totals.wall_ns,
            totals.sim_ns,
        )?;
    }
    Ok(())
}

/// Serialises the registry to a file at `path` (parent directories must
/// exist).
pub fn write_jsonl_to_path(registry: &MetricsRegistry, path: &std::path::Path) -> io::Result<()> {
    let mut file = io::BufWriter::new(std::fs::File::create(path)?);
    write_jsonl(registry, &mut file)?;
    file.flush()
}

fn histogram_line(name: &str, snapshot: &HistogramSnapshot) -> String {
    let mut line = String::new();
    let _ = write!(
        line,
        "{{\"type\":\"histogram\",\"name\":{},\"count\":{},\"sum\":{}",
        quote(name),
        snapshot.count,
        snapshot.sum,
    );
    if snapshot.count == 0 {
        let _ = write!(line, ",\"min\":null,\"max\":null,\"mean\":null");
        let _ = write!(line, ",\"p50\":null,\"p90\":null,\"p99\":null");
    } else {
        let _ = write!(line, ",\"min\":{},\"max\":{}", snapshot.min, snapshot.max);
        let _ = write!(line, ",\"mean\":{}", fmt_f64(snapshot.mean().unwrap_or(0.0)));
        for (label, q) in [("p50", 0.50), ("p90", 0.90), ("p99", 0.99)] {
            let _ = write!(line, ",\"{label}\":{}", snapshot.quantile(q).unwrap_or(0));
        }
    }
    line.push_str(",\"bins\":[");
    let mut first = true;
    for (bin, &count) in snapshot.bins.iter().enumerate() {
        if count == 0 {
            continue;
        }
        if !first {
            line.push(',');
        }
        first = false;
        let _ = write!(line, "[{},{count}]", crate::metrics::bin_lower_bound(bin));
    }
    line.push_str("]}");
    line
}

fn fmt_f64(value: f64) -> String {
    if value.is_finite() {
        // `{:?}` round-trips f64 through parse exactly.
        format!("{value:?}")
    } else {
        "null".to_string()
    }
}

/// Quotes and escapes a string per JSON.
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A parsed JSON value (minimal model: all numbers are `f64`, exact for
/// integers up to 2⁵³ — far beyond any count this workspace produces).
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<JsonValue>),
    /// An object, keys sorted.
    Obj(std::collections::BTreeMap<String, JsonValue>),
}

impl JsonValue {
    /// Member lookup on objects; `None` otherwise.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(map) => map.get(key),
            _ => None,
        }
    }

    /// The value as a non-negative integer, if it is one.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::Num(n) if *n >= 0.0 && n.fract() == 0.0 => Some(*n as u64),
            _ => None,
        }
    }

    /// The value as a float, if numeric.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a string slice, if a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice, if an array.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Arr(items) => Some(items),
            _ => None,
        }
    }
}

/// Why parsing failed: a message and the byte offset it refers to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonParseError {
    /// What was expected or found.
    pub message: String,
    /// Byte offset into the input.
    pub offset: usize,
}

impl std::fmt::Display for JsonParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "JSON parse error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonParseError {}

/// Parses one JSON document (as [`write_jsonl_to_path`] emits; strings use
/// the escapes [`quote`] produces plus `\u` escapes, and `\/`).
pub fn parse_json(input: &str) -> Result<JsonValue, JsonParseError> {
    let mut parser = Parser { bytes: input.as_bytes(), pos: 0 };
    parser.skip_ws();
    let value = parser.value()?;
    parser.skip_ws();
    if parser.pos != parser.bytes.len() {
        return Err(parser.error("trailing input after document"));
    }
    Ok(value)
}

/// Parses a whole JSONL artifact, one [`JsonValue`] per non-empty line.
pub fn parse_jsonl(input: &str) -> Result<Vec<JsonValue>, JsonParseError> {
    input.lines().filter(|line| !line.trim().is_empty()).map(parse_json).collect()
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn error(&self, message: &str) -> JsonParseError {
        JsonParseError { message: message.to_string(), offset: self.pos }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), JsonParseError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(&format!("expected '{}'", byte as char)))
        }
    }

    fn literal(&mut self, word: &str, value: JsonValue) -> Result<JsonValue, JsonParseError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.error(&format!("expected '{word}'")))
        }
    }

    fn value(&mut self) -> Result<JsonValue, JsonParseError> {
        match self.peek() {
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'"') => self.string().map(JsonValue::Str),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.error("expected a JSON value")),
        }
    }

    fn array(&mut self) -> Result<JsonValue, JsonParseError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Arr(items));
                }
                _ => return Err(self.error("expected ',' or ']' in array")),
            }
        }
    }

    fn object(&mut self) -> Result<JsonValue, JsonParseError> {
        self.expect(b'{')?;
        let mut map = std::collections::BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Obj(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            map.insert(key, self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Obj(map));
                }
                _ => return Err(self.error("expected ',' or '}' in object")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonParseError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            // Consume a run of plain (non-escape, non-quote) bytes.
            while let Some(byte) = self.peek() {
                if byte == b'"' || byte == b'\\' {
                    break;
                }
                self.pos += 1;
            }
            out.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| self.error("invalid UTF-8 in string"))?,
            );
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| self.error("bad \\u escape"))?;
                            out.push(
                                char::from_u32(hex)
                                    .ok_or_else(|| self.error("bad \\u code point"))?,
                            );
                            self.pos += 4;
                        }
                        _ => return Err(self.error("bad escape sequence")),
                    }
                    self.pos += 1;
                }
                _ => return Err(self.error("unterminated string")),
            }
        }
    }

    fn number(&mut self) -> Result<JsonValue, JsonParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')) {
            self.pos += 1;
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .ok()
            .and_then(|s| s.parse::<f64>().ok())
            .map(JsonValue::Num)
            .ok_or_else(|| self.error("invalid number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::MetricsRegistry;
    use std::sync::Arc;

    #[test]
    fn quote_escapes_specials() {
        assert_eq!(quote("a\"b\\c\nd"), r#""a\"b\\c\nd""#);
        assert_eq!(quote("\u{1}"), "\"\\u0001\"");
    }

    #[test]
    fn parser_round_trips_writer_output() {
        let registry = Arc::new(MetricsRegistry::new());
        registry.counter("dram.cmd.act").add(5000);
        let h = registry.histogram("lat");
        for v in [1u64, 2, 3, 100, 1000] {
            h.record(v);
        }
        {
            let outer = registry.span("outer", 10);
            registry.span("inner", 12).finish(20);
            registry.span("inner", 20).finish(25);
            outer.finish(30);
        }

        let mut buffer = Vec::new();
        write_jsonl(&registry, &mut buffer).unwrap();
        let text = String::from_utf8(buffer).unwrap();
        let lines = parse_jsonl(&text).unwrap();

        let kind = |v: &JsonValue| v.get("type").unwrap().as_str().unwrap().to_string();
        assert_eq!(kind(&lines[0]), "meta");
        assert_eq!(lines[0].get("schema").unwrap().as_str(), Some(SCHEMA));

        let counter = lines.iter().find(|l| kind(l) == "counter").unwrap();
        assert_eq!(counter.get("name").unwrap().as_str(), Some("dram.cmd.act"));
        assert_eq!(counter.get("value").unwrap().as_u64(), Some(5000));

        let histogram = lines.iter().find(|l| kind(l) == "histogram").unwrap();
        assert_eq!(histogram.get("count").unwrap().as_u64(), Some(5));
        assert!(histogram.get("p50").unwrap().as_u64().is_some());
        assert!(!histogram.get("bins").unwrap().as_array().unwrap().is_empty());

        let spans: Vec<_> = lines.iter().filter(|l| kind(l) == "span").collect();
        let names: Vec<_> =
            spans.iter().map(|s| s.get("name").unwrap().as_str().unwrap()).collect();
        assert_eq!(names, ["inner", "outer"], "one line per name, in name order");
        let number = |line: &JsonValue, key: &str| line.get(key).unwrap().as_u64().unwrap();
        assert_eq!((number(spans[0], "count"), number(spans[0], "sim_ns")), (2, 8 + 5));
        assert_eq!((number(spans[1], "count"), number(spans[1], "sim_ns")), (1, 20));
        assert!(spans.iter().all(|s| s.get("wall_ns").unwrap().as_u64().is_some()));
    }

    #[test]
    fn parser_rejects_malformed_documents() {
        for bad in ["", "{", "{\"a\":}", "[1,]", "\"unterminated", "nul", "1 2"] {
            assert!(parse_json(bad).is_err(), "should reject: {bad}");
        }
    }

    #[test]
    fn parser_handles_nested_values_and_escapes() {
        let value = parse_json(r#"{"a":[1,2.5,-3],"b":{"c":"x\ny","d":null,"e":true}}"#).unwrap();
        assert_eq!(value.get("a").unwrap().as_array().unwrap()[2].as_f64(), Some(-3.0));
        assert_eq!(value.get("b").unwrap().get("c").unwrap().as_str(), Some("x\ny"));
        assert_eq!(value.get("b").unwrap().get("d"), Some(&JsonValue::Null));
        assert_eq!(value.get("b").unwrap().get("e"), Some(&JsonValue::Bool(true)));
    }

    #[test]
    fn empty_histogram_serialises_with_null_stats() {
        let registry = MetricsRegistry::new();
        registry.histogram("empty");
        let mut buffer = Vec::new();
        write_jsonl(&registry, &mut buffer).unwrap();
        let lines = parse_jsonl(&String::from_utf8(buffer).unwrap()).unwrap();
        let histogram =
            lines.iter().find(|l| l.get("type").unwrap().as_str() == Some("histogram")).unwrap();
        assert_eq!(histogram.get("p50"), Some(&JsonValue::Null));
        assert_eq!(histogram.get("count").unwrap().as_u64(), Some(0));
    }
}
