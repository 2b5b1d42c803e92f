//! Minimal JSON document model used for the machine-readable result dumps.
//!
//! The workspace builds offline, so `serde`/`serde_json` are unavailable;
//! result types instead convert into a [`Json`] tree via [`ToJson`] and are
//! pretty-printed by [`Json::pretty`]. Conversions for the table row types
//! of the model crates live here so the table binaries stay declarative.
//!
//! A report type has one conversion. Whatever in it depends on the host
//! the run had goes under one [`HOST`] key; [`Json::without_host`] is the
//! rest, which is simulated and therefore comparable for equality.

use std::fmt::Write as _;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer (kept exact rather than routed through `f64`).
    Int(i64),
    /// A floating-point number; non-finite values print as `null`.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object with insertion-ordered keys.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Builds an object node from `(key, value)` pairs.
    pub fn obj<const N: usize>(fields: [(&str, Json); N]) -> Json {
        Json::Obj(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    /// Pretty-prints with two-space indentation (stable field order).
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out
    }

    fn write(&self, out: &mut String, indent: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => {
                let _ = write!(out, "{b}");
            }
            Json::Int(i) => {
                let _ = write!(out, "{i}");
            }
            Json::Num(x) if x.is_finite() => {
                // Guarantee a number token that round-trips as f64.
                if x.fract() == 0.0 && x.abs() < 1e15 {
                    let _ = write!(out, "{x:.1}");
                } else {
                    let _ = write!(out, "{x}");
                }
            }
            Json::Num(_) => out.push_str("null"),
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => write_seq(out, indent, '[', ']', items.iter(), |out, item, ind| {
                item.write(out, ind);
            }),
            Json::Obj(fields) => {
                write_seq(out, indent, '{', '}', fields.iter(), |out, (k, v), ind| {
                    write_escaped(out, k);
                    out.push_str(": ");
                    v.write(out, ind);
                })
            }
        }
    }
}

fn write_seq<T>(
    out: &mut String,
    indent: usize,
    open: char,
    close: char,
    items: impl ExactSizeIterator<Item = T>,
    mut write_item: impl FnMut(&mut String, T, usize),
) {
    if items.len() == 0 {
        out.push(open);
        out.push(close);
        return;
    }
    out.push(open);
    let inner = indent + 1;
    let mut first = true;
    for item in items {
        if !first {
            out.push(',');
        }
        first = false;
        out.push('\n');
        out.push_str(&"  ".repeat(inner));
        write_item(out, item, inner);
    }
    out.push('\n');
    out.push_str(&"  ".repeat(indent));
    out.push(close);
}

fn write_escaped(out: &mut String, s: &str) {
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
}

impl Json {
    /// Parses a JSON document — the exact inverse of [`Json::pretty`]
    /// (plus arbitrary whitespace), used by the `bench_gate` binary to
    /// read committed benchmark artifacts back. Strict: trailing
    /// garbage, trailing commas, bare NaN/Infinity, a number outside
    /// JSON's grammar (`01`, `-.5`, `1.`) or beyond `f64` (`1e999`) and
    /// arrays or objects nested deeper than 128 levels are errors —
    /// never a panic or a stack overflow, whatever the bytes.
    ///
    /// Number tokens without a fraction or exponent part parse as
    /// [`Json::Int`] when they fit `i64` (so counters round-trip
    /// exactly); everything else parses as [`Json::Num`].
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            b: text.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.b.len() {
            return Err(p.err("trailing characters after the document"));
        }
        Ok(v)
    }

    /// Looks a field up in an object; `None` on other variants.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Numeric value as `f64` ([`Json::Int`] widens losslessly up to
    /// 2^53); `None` on non-numbers.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Int(i) => Some(*i as f64),
            Json::Num(x) => Some(*x),
            _ => None,
        }
    }

    /// Integer value; `None` on non-[`Json::Int`] variants.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Json::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// Boolean value; `None` on non-[`Json::Bool`] variants.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// String value; `None` on non-[`Json::Str`] variants.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Array items; `None` on non-[`Json::Arr`] variants.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Object fields in insertion order; `None` on non-[`Json::Obj`]
    /// variants.
    pub fn entries(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(fields) => Some(fields),
            _ => None,
        }
    }

    /// This document without every [`HOST`] key, at any depth: what is
    /// left is a pure function of the binary and the seed. `--report`
    /// writes it, `bench_gate` compares it for equality.
    pub fn without_host(&self) -> Json {
        match self {
            Json::Arr(items) => Json::Arr(items.iter().map(Json::without_host).collect()),
            Json::Obj(fields) => Json::Obj(
                fields
                    .iter()
                    .filter(|(k, _)| k != HOST)
                    .map(|(k, v)| (k.clone(), v.without_host()))
                    .collect(),
            ),
            leaf => leaf.clone(),
        }
    }
}

/// The one key that holds what two runs of the same binary and seed may
/// disagree on: wall clock and busy times, the rates derived from them,
/// steal counts, and the threads and cores the run had. Everything
/// outside it is simulated, and compared exactly.
pub const HOST: &str = "host";

/// The [`HOST`] entry of a report object.
pub fn host<const N: usize>(fields: [(&str, Json); N]) -> (&'static str, Json) {
    (HOST, Json::obj(fields))
}

/// How deep [`Json::parse`] follows nested arrays and objects: the parser
/// recurses once per level, and 15 times the depth of any artifact is
/// still far from the end of a thread's stack.
const MAX_DEPTH: usize = 128;

/// Recursive-descent state for [`Json::parse`].
struct Parser<'a> {
    b: &'a [u8],
    pos: usize,
    depth: usize,
}

impl Parser<'_> {
    fn err(&self, msg: &str) -> String {
        format!("{msg} at byte {}", self.pos)
    }

    fn skip_ws(&mut self) {
        while let Some(&c) = self.b.get(self.pos) {
            if matches!(c, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.b.get(self.pos).copied()
    }

    fn eat(&mut self, c: u8) -> Result<(), String> {
        if self.peek() == Some(c) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", c as char)))
        }
    }

    fn eat_word(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.b[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected '{word}'")))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'n') => self.eat_word("null", Json::Null),
            Some(b't') => self.eat_word("true", Json::Bool(true)),
            Some(b'f') => self.eat_word("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(open @ (b'[' | b'{')) => {
                if self.depth == MAX_DEPTH {
                    return Err(self.err("nested deeper than 128 levels"));
                }
                self.depth += 1;
                let nested = if open == b'[' {
                    self.array()
                } else {
                    self.object()
                };
                self.depth -= 1;
                nested
            }
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.eat(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            self.skip_ws();
            fields.push((key, self.value()?));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
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
                        Some(b'b') => out.push('\u{0008}'),
                        Some(b'f') => out.push('\u{000c}'),
                        Some(b'u') => {
                            self.pos += 1;
                            let hi = self.hex4()?;
                            let c = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair: a second \uXXXX must
                                // follow with the low half.
                                self.eat(b'\\')?;
                                self.eat(b'u')?;
                                let lo = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err(self.err("invalid low surrogate"));
                                }
                                0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                            } else {
                                hi
                            };
                            out.push(
                                char::from_u32(c)
                                    .ok_or_else(|| self.err("invalid unicode escape"))?,
                            );
                            continue; // hex4 advanced past the digits
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(c) if c < 0x20 => return Err(self.err("raw control character in string")),
                Some(_) => {
                    // Multi-byte UTF-8 is passed through verbatim.
                    let start = self.pos;
                    let s = std::str::from_utf8(&self.b[start..])
                        .map_err(|_| self.err("invalid UTF-8"))?;
                    let ch = s.chars().next().expect("peeked a byte");
                    out.push(ch);
                    self.pos += ch.len_utf8();
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let end = self.pos + 4;
        let digits = self
            .b
            .get(self.pos..end)
            .ok_or_else(|| self.err("truncated \\u escape"))?;
        // Digit by digit: `from_str_radix` would take a sign.
        let mut v = 0;
        for &d in digits {
            let d = (d as char).to_digit(16);
            v = v * 16 + d.ok_or_else(|| self.err("invalid \\u escape"))?;
        }
        self.pos = end;
        Ok(v)
    }

    /// One or more decimal digits.
    fn digits(&mut self) -> Result<(), String> {
        let start = self.pos;
        while self.peek().is_some_and(|c| c.is_ascii_digit()) {
            self.pos += 1;
        }
        if self.pos == start {
            return Err(self.err("expected a digit"));
        }
        Ok(())
    }

    /// JSON's number grammar, which is narrower than `str::parse`'s: no
    /// leading zero, digits on both sides of the point and in the exponent.
    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        if self.peek() == Some(b'0') {
            self.pos += 1;
        } else {
            self.digits()?;
        }
        let mut fractional = false;
        if self.peek() == Some(b'.') {
            fractional = true;
            self.pos += 1;
            self.digits()?;
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            fractional = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            self.digits()?;
        }
        let tok = std::str::from_utf8(&self.b[start..self.pos]).expect("ASCII number token");
        if !fractional {
            if let Ok(i) = tok.parse::<i64>() {
                return Ok(Json::Int(i));
            }
        }
        match tok.parse::<f64>() {
            Ok(x) if x.is_finite() => Ok(Json::Num(x)),
            _ => Err(format!("invalid number '{tok}' at byte {start}")),
        }
    }
}

/// Conversion into the [`Json`] document model.
pub trait ToJson {
    /// Renders `self` as a JSON value.
    fn to_json(&self) -> Json;
}

impl ToJson for Json {
    fn to_json(&self) -> Json {
        self.clone()
    }
}

impl ToJson for bool {
    fn to_json(&self) -> Json {
        Json::Bool(*self)
    }
}

impl ToJson for f64 {
    fn to_json(&self) -> Json {
        Json::Num(*self)
    }
}

impl ToJson for String {
    fn to_json(&self) -> Json {
        Json::Str(self.clone())
    }
}

impl ToJson for &str {
    fn to_json(&self) -> Json {
        Json::Str((*self).to_string())
    }
}

macro_rules! impl_tojson_int {
    ($($t:ty),+) => {$(
        impl ToJson for $t {
            fn to_json(&self) -> Json {
                // Values beyond i64 fall back to a float rather than
                // silently wrapping negative.
                match i64::try_from(*self) {
                    Ok(i) => Json::Int(i),
                    Err(_) => Json::Num(*self as f64),
                }
            }
        }
    )+};
}

impl_tojson_int!(i32, i64, u32, u64, usize);

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(ToJson::to_json).collect())
    }
}

impl<A: ToJson, B: ToJson> ToJson for (A, B) {
    fn to_json(&self) -> Json {
        Json::Arr(vec![self.0.to_json(), self.1.to_json()])
    }
}

impl ToJson for npqm_mem::experiments::Table1Row {
    fn to_json(&self) -> Json {
        Json::obj([
            ("banks", self.banks.to_json()),
            ("naive_conflicts", self.naive_conflicts.to_json()),
            ("naive_both", self.naive_both.to_json()),
            ("opt_conflicts", self.opt_conflicts.to_json()),
            ("opt_both", self.opt_both.to_json()),
        ])
    }
}

impl ToJson for npqm_npu::swqm::Table3 {
    fn to_json(&self) -> Json {
        Json::obj([
            ("free_list_enqueue", self.free_list_enqueue.to_json()),
            ("free_list_dequeue", self.free_list_dequeue.to_json()),
            (
                "enqueue_segment_first",
                self.enqueue_segment_first.to_json(),
            ),
            ("enqueue_segment_rest", self.enqueue_segment_rest.to_json()),
            ("dequeue_segment", self.dequeue_segment.to_json()),
            ("copy_segment", self.copy_segment.to_json()),
            ("total_enqueue_first", self.total_enqueue_first.to_json()),
            ("total_enqueue_rest", self.total_enqueue_rest.to_json()),
            ("total_dequeue", self.total_dequeue.to_json()),
        ])
    }
}

impl ToJson for npqm_mms::perf::Table5Row {
    fn to_json(&self) -> Json {
        Json::obj([
            ("load_gbps", self.load_gbps.to_json()),
            ("fifo_delay", self.fifo_delay.to_json()),
            ("execution_delay", self.execution_delay.to_json()),
            ("data_delay", self.data_delay.to_json()),
            ("total", self.total.to_json()),
        ])
    }
}

impl ToJson for npqm_traffic::scale::ShardScaleRow {
    fn to_json(&self) -> Json {
        Json::obj([
            ("shards", self.shards.to_json()),
            ("offered_pkts", self.offered_pkts.to_json()),
            ("offered_bytes", self.offered_bytes.to_json()),
            ("admitted_pkts", self.admitted_pkts.to_json()),
            ("dropped_pkts", self.dropped_pkts.to_json()),
            ("admitted_bytes", self.admitted_bytes.to_json()),
            ("delivered_pkts", self.delivered_pkts.to_json()),
            ("drained_bytes", self.drained_bytes.to_json()),
            ("residual_bytes", self.residual_bytes.to_json()),
            ("segments_processed", self.segments_processed.to_json()),
            ("ptr_accesses", self.ptr_accesses.to_json()),
            ("torn_frames", self.torn_frames.to_json()),
            ("conserved", self.conserved.to_json()),
            ("fingerprint", digest_json(self.fingerprint)),
            host([
                ("threads", self.threads.to_json()),
                ("segments_per_sec", self.segments_per_sec().to_json()),
                ("critical_path_us", duration_us(self.critical_path)),
                ("serial_time_us", duration_us(self.serial_time)),
                ("wall_clock_us", duration_us(self.wall_clock)),
                ("steals", self.steals.to_json()),
            ]),
        ])
    }
}

fn duration_us(d: std::time::Duration) -> Json {
    Json::Num(d.as_secs_f64() * 1e6)
}

impl ToJson for npqm_traffic::scale::MemoryScaleRow {
    fn to_json(&self) -> Json {
        Json::obj([
            ("banks", self.banks.to_json()),
            ("reordering", self.reordering.to_json()),
            ("shards", self.shards.to_json()),
            ("offered_pkts", self.offered_pkts.to_json()),
            ("admitted_pkts", self.admitted_pkts.to_json()),
            ("dropped_pkts", self.dropped_pkts.to_json()),
            ("admitted_bytes", self.admitted_bytes.to_json()),
            ("drained_bytes", self.drained_bytes.to_json()),
            ("residual_bytes", self.residual_bytes.to_json()),
            ("segments_processed", self.segments_processed.to_json()),
            ("queue_ops", self.queue_ops.to_json()),
            ("ptr_accesses", self.ptr_accesses.to_json()),
            ("data_reads", self.data_reads.to_json()),
            ("data_writes", self.data_writes.to_json()),
            ("conflict_slots", self.conflict_slots.to_json()),
            ("turnaround_slots", self.turnaround_slots.to_json()),
            (
                "per_shard_time_ps",
                Json::Arr(
                    self.per_shard_time
                        .iter()
                        .map(|t| t.as_u64().to_json())
                        .collect(),
                ),
            ),
            ("modeled_time_ps", self.modeled_time.as_u64().to_json()),
            ("ops_per_sec", self.ops_per_sec().to_json()),
            ("ddr_loss", self.ddr_loss().to_json()),
            ("conserved", self.conserved.to_json()),
            ("fingerprint", digest_json(self.fingerprint)),
            host([("threads", self.threads.to_json())]),
        ])
    }
}

impl ToJson for npqm_traffic::pipeline::PipelineReport {
    /// Aggregate counters only (the per-flow breakdown would dominate
    /// the artifact without adding trajectory signal).
    fn to_json(&self) -> Json {
        Json::obj([
            ("offered_pkts", self.offered_pkts.to_json()),
            ("offered_bytes", self.offered_bytes.to_json()),
            ("dropped_pkts", self.dropped_pkts.to_json()),
            ("evicted_pkts", self.evicted_pkts.to_json()),
            ("delivered_pkts", self.delivered_pkts.to_json()),
            ("delivered_bytes", self.delivered_bytes.to_json()),
            ("goodput_gbps", self.goodput_gbps().to_json()),
            ("latency_mean_ns", self.latency_ns.mean().to_json()),
            ("latency_max_ns", self.latency_ns.max().to_json()),
            ("makespan_ps", self.makespan.as_u64().to_json()),
            ("integrity_violations", self.integrity_violations.to_json()),
        ])
    }
}

impl ToJson for npqm_traffic::pipeline::ShardedPipelineReport {
    fn to_json(&self) -> Json {
        Json::obj([
            ("shards", self.shards.to_json()),
            ("aggregate", self.aggregate.to_json()),
            ("shard_of_flow", self.shard_of_flow.to_json()),
            ("telemetry", telemetry_field(&self.telemetry)),
        ])
    }
}

impl ToJson for npqm_traffic::pipeline::PolicyOutcome {
    fn to_json(&self) -> Json {
        Json::obj([
            ("policy", self.policy.as_str().to_json()),
            ("report", self.report.to_json()),
        ])
    }
}

impl<T: ToJson> ToJson for Option<T> {
    fn to_json(&self) -> Json {
        match self {
            Some(v) => v.to_json(),
            None => Json::Null,
        }
    }
}

/// `u64` digests rendered as zero-padded hex strings: [`Json::Int`] is
/// `i64` and the float fallback would silently round 64-bit FNV values.
fn digest_json(d: u64) -> Json {
    Json::Str(format!("{d:#018x}"))
}

impl ToJson for npqm_traffic::service::EpochWindow {
    fn to_json(&self) -> Json {
        Json::obj([
            ("epoch", self.epoch.to_json()),
            ("offered_pkts", self.offered_pkts.to_json()),
            ("offered_bytes", self.offered_bytes.to_json()),
            ("admitted_pkts", self.admitted_pkts.to_json()),
            ("dropped_pkts", self.dropped_pkts.to_json()),
            ("evicted_pkts", self.evicted_pkts.to_json()),
            ("delivered_pkts", self.delivered_pkts.to_json()),
            ("delivered_bytes", self.delivered_bytes.to_json()),
            ("latency_count", self.latency_ns.count().to_json()),
            ("latency_overflow", self.latency_ns.overflow().to_json()),
            ("p50_ns", self.p50_ns().to_json()),
            ("p99_ns", self.p99_ns().to_json()),
            ("p999_ns", self.p999_ns().to_json()),
            ("ring_full_events", self.ring_full_events.to_json()),
        ])
    }
}

impl ToJson for npqm_traffic::service::EpochSnapshot {
    /// Every snapshot field is deterministic — online snapshots are the
    /// digest-stability surface itself.
    fn to_json(&self) -> Json {
        Json::obj([
            ("epoch", self.epoch.to_json()),
            ("at_ps", self.at.as_u64().to_json()),
            ("digest", digest_json(self.digest)),
            ("verify_ok", self.verify_ok.to_json()),
            ("segments_used", self.segments_used.to_json()),
            ("payload_bytes", self.payload_bytes.to_json()),
            ("buffered_pkts", self.buffered_pkts.to_json()),
            ("integrity_violations", self.integrity_violations.to_json()),
        ])
    }
}

impl ToJson for npqm_traffic::service::ShardServiceReport {
    fn to_json(&self) -> Json {
        Json::obj([
            ("report", self.report.to_json()),
            ("windows", self.windows.to_json()),
            ("snapshots", self.snapshots.to_json()),
            ("final_digest", digest_json(self.final_digest)),
            ("residual_pkts", self.residual_pkts.to_json()),
            ("ring_full_events", self.ring_full_events.to_json()),
            ("reorder_peak", self.reorder_peak.to_json()),
            ("segments_processed", self.segments_processed.to_json()),
            host([("busy_us", duration_us(self.busy))]),
        ])
    }
}

impl ToJson for npqm_traffic::service::ServiceReport {
    /// The lane-transport counters (`ring_full_events`, `reorder_peak`)
    /// sit outside `host`: the round driver makes them the same at every
    /// thread count.
    fn to_json(&self) -> Json {
        Json::obj([
            ("epoch_len_ps", self.epoch_len.as_u64().to_json()),
            ("aggregate", self.aggregate.to_json()),
            ("shards", self.shards.to_json()),
            ("windows", self.windows.to_json()),
            (
                "epoch_digests",
                Json::Arr(self.epoch_digests.iter().map(|&d| digest_json(d)).collect()),
            ),
            ("final_digest", digest_json(self.final_digest)),
            ("shard_of_flow", self.shard_of_flow.to_json()),
            ("ring_full_events", self.ring_full_events.to_json()),
            ("reorder_peak", self.reorder_peak.to_json()),
            ("segments_processed", self.segments_processed.to_json()),
            ("telemetry", telemetry_field(&self.telemetry)),
            host([
                ("threads", self.threads.to_json()),
                ("segments_per_sec", self.segments_per_sec().to_json()),
                ("critical_path_us", duration_us(self.critical_path)),
                ("wall_clock_us", duration_us(self.wall_clock)),
            ]),
        ])
    }
}

/// `Option<TelemetryReport>` as a report field: the deterministic
/// [`telemetry_summary_json`] when telemetry was enabled, `null`
/// otherwise.
fn telemetry_field(t: &Option<npqm_core::telemetry::TelemetryReport>) -> Json {
    match t {
        Some(rep) => telemetry_summary_json(rep),
        None => Json::Null,
    }
}

impl ToJson for npqm_core::telemetry::EventCounts {
    fn to_json(&self) -> Json {
        Json::obj([
            ("admits", self.admits.to_json()),
            ("admit_bytes", self.admit_bytes.to_json()),
            ("drops", self.drops.to_json()),
            ("drop_bytes", self.drop_bytes.to_json()),
            ("evictions", self.evictions.to_json()),
            ("evicted_bytes", self.evicted_bytes.to_json()),
            ("deliveries", self.deliveries.to_json()),
            ("delivered_bytes", self.delivered_bytes.to_json()),
            ("sched_selects", self.sched_selects.to_json()),
            ("epochs", self.epochs.to_json()),
        ])
    }
}

impl ToJson for npqm_core::telemetry::DropTaxonomyRow {
    fn to_json(&self) -> Json {
        Json::obj([
            ("policy", self.policy.as_str().to_json()),
            ("cause", self.cause.label().to_json()),
            ("count", self.bucket.count.to_json()),
            ("bytes", self.bucket.bytes.to_json()),
            ("mean_victim_depth", self.mean_victim_depth().to_json()),
            ("mean_occupancy", self.mean_occupancy().to_json()),
            ("max_occupancy", self.bucket.max_occupancy.to_json()),
        ])
    }
}

/// A [`npqm_core::telemetry::MetricsRegistry`] as a flat JSON object in
/// sorted name order. `include_volatile` selects whether
/// scheduling-dependent metrics (steal counts, wall clock) appear;
/// deterministic exports pass `false`.
pub fn metrics_registry_json(
    reg: &npqm_core::telemetry::MetricsRegistry,
    include_volatile: bool,
) -> Json {
    use npqm_core::telemetry::MetricValue;
    Json::Obj(
        reg.iter()
            .filter(|(_, m)| include_volatile || !m.volatile)
            .map(|(name, m)| {
                let v = match m.value {
                    MetricValue::Counter(c) => c.to_json(),
                    MetricValue::Gauge(g) => Json::Num(g),
                };
                (name.to_string(), v)
            })
            .collect(),
    )
}

/// The deterministic summary of a merged
/// [`npqm_core::telemetry::TelemetryReport`]: exact event counts, the
/// drop taxonomy, ledger totals and the folded metric snapshots
/// (volatile metrics excluded). The retained event stream is *not*
/// included — that is what [`telemetry_trace_json`] exports — so this
/// projection is small enough to ride inside the table reports and is
/// byte-identical at any thread count.
pub fn telemetry_summary_json(t: &npqm_core::telemetry::TelemetryReport) -> Json {
    Json::obj([
        ("ring_capacity", t.ring_capacity.to_json()),
        ("retained_events", t.events.len().to_json()),
        ("overflow_events", t.overflow_events.to_json()),
        ("counts", t.counts.to_json()),
        ("refused_pkts", t.refused_pkts.to_json()),
        ("evicted_pkts", t.evicted_pkts.to_json()),
        ("taxonomy", t.taxonomy.to_json()),
        (
            "epoch_metrics",
            Json::Arr(
                t.epoch_metrics
                    .iter()
                    .map(|(epoch, reg)| {
                        Json::obj([
                            ("epoch", epoch.to_json()),
                            ("metrics", metrics_registry_json(reg, false)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "final_metrics",
            metrics_registry_json(&t.final_metrics, false),
        ),
    ])
}

/// Virtual picoseconds as `trace_event` microseconds (the unit Chrome's
/// JSON schema mandates for `ts`/`dur`).
fn ps_to_us(ps: u64) -> Json {
    Json::Num(ps as f64 / 1e6)
}

/// Exports a merged telemetry report as a Chrome `trace_event` JSON
/// document (the "JSON Array Format" with an object wrapper), loadable
/// directly in `ui.perfetto.dev` or `chrome://tracing`.
///
/// Mapping: each shard becomes a process (`pid` = shard index, named via
/// a `process_name` metadata record); admissions, drops, evictions,
/// scheduler selections and epoch boundaries are thread-scoped instant
/// events (`ph: "i"`, `s: "t"`); deliveries are complete events
/// (`ph: "X"`) spanning from enqueue to egress completion; drops and
/// evictions also emit an `occupancy` counter track (`ph: "C"`) so buffer pressure is
/// visible as a graph. All timestamps are **virtual time** (simulation
/// picoseconds rendered as microseconds), so the trace is byte-identical
/// at any worker-thread count.
pub fn telemetry_trace_json(t: &npqm_core::telemetry::TelemetryReport, label: &str) -> Json {
    use npqm_core::telemetry::EventKind;
    let mut events = Vec::new();
    let mut shards: Vec<u32> = t.events.iter().map(|e| e.shard).collect();
    shards.sort_unstable();
    shards.dedup();
    for &shard in &shards {
        events.push(Json::obj([
            ("name", "process_name".to_json()),
            ("ph", "M".to_json()),
            ("pid", shard.to_json()),
            ("tid", 0.to_json()),
            (
                "args",
                Json::obj([("name", format!("shard {shard}").to_json())]),
            ),
        ]));
    }
    for ev in &t.events {
        let mut fields: Vec<(String, Json)> = vec![
            ("name".to_string(), ev.kind.name().to_json()),
            ("pid".to_string(), ev.shard.to_json()),
            ("tid".to_string(), 0.to_json()),
        ];
        let mut counter: Option<u32> = None;
        match &ev.kind {
            EventKind::Admit { flow, bytes } => {
                fields.push(("ph".to_string(), "i".to_json()));
                fields.push(("s".to_string(), "t".to_json()));
                fields.push(("ts".to_string(), ps_to_us(ev.at.as_u64())));
                fields.push((
                    "args".to_string(),
                    Json::obj([
                        ("flow", flow.index().to_json()),
                        ("bytes", (*bytes).to_json()),
                    ]),
                ));
            }
            EventKind::Drop {
                flow,
                bytes,
                cause,
                queue_depth,
                occupancy,
            } => {
                fields.push(("ph".to_string(), "i".to_json()));
                fields.push(("s".to_string(), "t".to_json()));
                fields.push(("ts".to_string(), ps_to_us(ev.at.as_u64())));
                fields.push((
                    "args".to_string(),
                    Json::obj([
                        ("flow", flow.index().to_json()),
                        ("bytes", (*bytes).to_json()),
                        ("cause", cause.label().to_json()),
                        ("queue_depth", (*queue_depth).to_json()),
                        ("occupancy", (*occupancy).to_json()),
                    ]),
                ));
                counter = Some(*occupancy);
            }
            EventKind::Evict {
                victim,
                bytes,
                victim_depth,
                occupancy,
            } => {
                fields.push(("ph".to_string(), "i".to_json()));
                fields.push(("s".to_string(), "t".to_json()));
                fields.push(("ts".to_string(), ps_to_us(ev.at.as_u64())));
                fields.push((
                    "args".to_string(),
                    Json::obj([
                        ("victim", victim.index().to_json()),
                        ("bytes", (*bytes).to_json()),
                        ("victim_depth", (*victim_depth).to_json()),
                        ("occupancy", (*occupancy).to_json()),
                    ]),
                ));
                counter = Some(*occupancy);
            }
            EventKind::Deliver {
                flow,
                bytes,
                latency_ns,
            } => {
                // The event is stamped at egress completion; the span
                // covers the packet's whole queueing + transmission life.
                let dur_ps = latency_ns.saturating_mul(1000);
                let start_ps = ev.at.as_u64().saturating_sub(dur_ps);
                fields.push(("ph".to_string(), "X".to_json()));
                fields.push(("ts".to_string(), ps_to_us(start_ps)));
                fields.push(("dur".to_string(), ps_to_us(dur_ps)));
                fields.push((
                    "args".to_string(),
                    Json::obj([
                        ("flow", flow.index().to_json()),
                        ("bytes", (*bytes).to_json()),
                        ("latency_ns", (*latency_ns).to_json()),
                    ]),
                ));
            }
            EventKind::SchedSelect { flow } => {
                fields.push(("ph".to_string(), "i".to_json()));
                fields.push(("s".to_string(), "t".to_json()));
                fields.push(("ts".to_string(), ps_to_us(ev.at.as_u64())));
                fields.push((
                    "args".to_string(),
                    Json::obj([("flow", flow.index().to_json())]),
                ));
            }
            EventKind::Epoch { epoch } => {
                fields.push(("ph".to_string(), "i".to_json()));
                fields.push(("s".to_string(), "t".to_json()));
                fields.push(("ts".to_string(), ps_to_us(ev.at.as_u64())));
                fields.push((
                    "args".to_string(),
                    Json::obj([("epoch", (*epoch).to_json())]),
                ));
            }
        }
        events.push(Json::Obj(fields));
        if let Some(occ) = counter {
            events.push(Json::obj([
                ("name", "occupancy".to_json()),
                ("ph", "C".to_json()),
                ("ts", ps_to_us(ev.at.as_u64())),
                ("pid", ev.shard.to_json()),
                ("args", Json::obj([("segments", occ.to_json())])),
            ]));
        }
    }
    Json::obj([
        ("displayTimeUnit", "ns".to_json()),
        (
            "otherData",
            Json::obj([
                ("label", label.to_json()),
                ("summary", telemetry_summary_json(t)),
            ]),
        ),
        ("traceEvents", Json::Arr(events)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_render() {
        assert_eq!(Json::Int(7).pretty(), "7");
        assert_eq!(Json::Num(1.5).pretty(), "1.5");
        assert_eq!(Json::Num(2.0).pretty(), "2.0");
        assert_eq!(Json::Num(f64::NAN).pretty(), "null");
        assert_eq!(Json::Bool(true).pretty(), "true");
        assert_eq!(Json::Null.pretty(), "null");
    }

    #[test]
    fn huge_u64_does_not_wrap_negative() {
        assert_eq!(u64::MAX.to_json().pretty(), format!("{}", u64::MAX as f64));
        assert_eq!((i64::MAX as u64).to_json(), Json::Int(i64::MAX));
    }

    #[test]
    fn strings_escape() {
        assert_eq!(Json::Str("a\"b\\c\n".into()).pretty(), "\"a\\\"b\\\\c\\n\"");
    }

    #[test]
    fn empty_containers_are_compact() {
        assert_eq!(Json::Arr(vec![]).pretty(), "[]");
        assert_eq!(Json::Obj(vec![]).pretty(), "{}");
    }

    #[test]
    fn nested_pretty_layout() {
        let doc = Json::obj([("xs", vec![1i32, 2].to_json()), ("name", "q".to_json())]);
        assert_eq!(
            doc.pretty(),
            "{\n  \"xs\": [\n    1,\n    2\n  ],\n  \"name\": \"q\"\n}"
        );
    }

    #[test]
    fn table_rows_convert() {
        let row = npqm_mms::perf::PAPER_TABLE5[0];
        let json = row.to_json();
        assert!(json.pretty().contains("load_gbps"));
    }

    #[test]
    fn parse_round_trips_pretty_output() {
        let doc = Json::obj([
            ("xs", vec![1i32, 2].to_json()),
            ("name", "q\"\\\n\u{0007}é".to_json()),
            ("rate", Json::Num(1.25)),
            ("whole", Json::Num(3.0)),
            ("big", u64::MAX.to_json()),
            ("nan", Json::Num(f64::NAN)), // prints as null
            ("flag", Json::Bool(false)),
            ("nothing", Json::Null),
            ("empty_arr", Json::Arr(vec![])),
            ("empty_obj", Json::Obj(vec![])),
        ]);
        let parsed = Json::parse(&doc.pretty()).expect("pretty output parses");
        // NaN prints as null, so compare against the expected tree.
        let mut expect = doc;
        if let Json::Obj(fields) = &mut expect {
            fields[5].1 = Json::Null;
        }
        assert_eq!(parsed, expect);
        // And the round trip is a fixed point from then on.
        assert_eq!(Json::parse(&parsed.pretty()).unwrap(), parsed);
    }

    #[test]
    fn parse_classifies_numbers() {
        assert_eq!(Json::parse("42").unwrap(), Json::Int(42));
        assert_eq!(Json::parse("-7").unwrap(), Json::Int(-7));
        assert_eq!(Json::parse("42.0").unwrap(), Json::Num(42.0));
        assert_eq!(Json::parse("1e3").unwrap(), Json::Num(1000.0));
        assert_eq!(Json::parse("-1.5e-2").unwrap(), Json::Num(-0.015));
        // Magnitudes beyond i64 survive via the float fallback.
        assert_eq!(
            Json::parse("18446744073709551615").unwrap(),
            Json::Num(u64::MAX as f64)
        );
    }

    #[test]
    fn parse_rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\" 1}",
            "tru",
            "[1] x",
            "\"\\q\"",
            "\"unterminated",
            "{\"a\":}",
            "nan",
            "\"\\u+12f\"",
            "01",
            "-.5",
            "1.",
            "1e999",
            &"[".repeat(200_000),
            &format!(
                "{}1{}",
                "[".repeat(MAX_DEPTH + 1),
                "]".repeat(MAX_DEPTH + 1)
            ),
        ] {
            assert!(Json::parse(bad).is_err(), "{bad:.40?} must not parse");
        }
        let deepest = format!("{}1{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(Json::parse(&deepest).is_ok(), "MAX_DEPTH levels parse");
    }

    #[test]
    fn parse_unicode_escapes() {
        assert_eq!(
            Json::parse("\"\\u0041\\u00e9\\ud83d\\ude00\"").unwrap(),
            Json::Str("Aé😀".into())
        );
        assert!(Json::parse("\"\\ud83d\"").is_err(), "lone high surrogate");
    }

    #[test]
    fn accessors_navigate() {
        let doc = Json::parse("{\"a\": {\"b\": [1, 2.5, \"s\", true]}}").unwrap();
        let arr = doc.get("a").and_then(|a| a.get("b")).unwrap();
        let items = arr.as_arr().unwrap();
        assert_eq!(items[0].as_i64(), Some(1));
        assert_eq!(items[1].as_f64(), Some(2.5));
        assert_eq!(items[2].as_str(), Some("s"));
        assert_eq!(items[3].as_bool(), Some(true));
        assert_eq!(doc.get("missing"), None);
        assert_eq!(doc.entries().unwrap().len(), 1);
    }

    #[test]
    fn telemetry_trace_exports_perfetto_loadable_json() {
        use npqm_core::limits::DropReason;
        use npqm_core::telemetry::{Telemetry, TelemetryConfig, TelemetryReport};
        use npqm_core::FlowId;
        use npqm_sim::time::Picos;

        let mut a = Telemetry::new(TelemetryConfig::default());
        let mut b = Telemetry::new(TelemetryConfig::default());
        a.record_admit(Picos::from_nanos(10), FlowId::new(0), 64);
        a.record_deliver(Picos::from_nanos(200), FlowId::new(0), 64, 190);
        b.record_drop(
            Picos::from_nanos(20),
            "lqd",
            DropReason::GlobalReserve,
            FlowId::new(1),
            128,
            4,
            40,
        );
        b.record_evict(Picos::from_nanos(30), "lqd", FlowId::new(2), 64, 1, 39);
        b.record_epoch(Picos::from_nanos(50), 0);
        b.record_sched_select(Picos::from_nanos(60), FlowId::new(2));
        let rep = TelemetryReport::merge([(0u32, &a), (1u32, &b)]);

        let doc = telemetry_trace_json(&rep, "unit");
        // Loadable shape: traceEvents array + displayTimeUnit.
        assert_eq!(doc.get("displayTimeUnit").unwrap().as_str(), Some("ns"));
        let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
        // 2 process_name metadata + 6 events + 2 occupancy counters.
        assert_eq!(events.len(), 10);
        let phases: Vec<&str> = events
            .iter()
            .map(|e| e.get("ph").unwrap().as_str().unwrap())
            .collect();
        assert_eq!(phases.iter().filter(|p| **p == "M").count(), 2);
        assert_eq!(phases.iter().filter(|p| **p == "X").count(), 1);
        assert_eq!(phases.iter().filter(|p| **p == "C").count(), 2);
        // The delivery span starts at enqueue time: 200ns end - 190ns dur.
        let deliver = events
            .iter()
            .find(|e| e.get("name").unwrap().as_str() == Some("deliver"))
            .unwrap();
        assert_eq!(deliver.get("ts").unwrap().as_f64(), Some(0.01));
        assert_eq!(deliver.get("dur").unwrap().as_f64(), Some(0.19));
        // The whole document survives a strict parse round trip.
        let parsed = Json::parse(&doc.pretty()).expect("trace parses");
        assert_eq!(parsed, doc);
        // The embedded summary reconciles with the recorders.
        let summary = doc.get("otherData").unwrap().get("summary").unwrap();
        let counts = summary.get("counts").unwrap();
        assert_eq!(counts.get("admits").unwrap().as_i64(), Some(1));
        assert_eq!(counts.get("drops").unwrap().as_i64(), Some(1));
        assert_eq!(counts.get("evictions").unwrap().as_i64(), Some(1));
        assert_eq!(summary.get("refused_pkts").unwrap().as_i64(), Some(1));
        assert_eq!(summary.get("evicted_pkts").unwrap().as_i64(), Some(1));
        let tax = summary.get("taxonomy").unwrap().as_arr().unwrap();
        assert_eq!(tax.len(), 2);
        assert_eq!(tax[0].get("policy").unwrap().as_str(), Some("lqd"));
    }

    #[test]
    fn metrics_registry_json_excludes_volatile_metrics() {
        use npqm_core::telemetry::MetricsRegistry;
        let mut reg = MetricsRegistry::new();
        reg.counter("qm.enqueues", 42);
        reg.gauge("service.goodput_gbps", 1.5);
        reg.volatile_counter("parallel.steals", 7);
        let det = metrics_registry_json(&reg, false);
        assert_eq!(det.get("qm.enqueues").unwrap().as_i64(), Some(42));
        assert!(det.get("parallel.steals").is_none());
        let full = metrics_registry_json(&reg, true);
        assert_eq!(full.get("parallel.steals").unwrap().as_i64(), Some(7));
    }

    #[test]
    fn without_host_drops_the_key_at_any_depth() {
        let doc = Json::parse(
            r#"{"a": 1, "host": {"t": 2}, "rows": [{"b": 3, "host": {"us": 4.5}}, 5]}"#,
        )
        .unwrap();
        let want = Json::parse(r#"{"a": 1, "rows": [{"b": 3}, 5]}"#).unwrap();
        assert_eq!(doc.without_host(), want);
    }

    /// The `host` split is tested by running, not by listing: the same
    /// seed at two thread counts must serialize to the same document
    /// outside `host`, and each document must still carry the host part.
    #[test]
    fn host_holds_everything_a_second_run_changes() {
        use npqm_core::policy::DynamicThreshold;
        use npqm_core::sched::from_spec;
        use npqm_core::timing::TimingConfig;
        use npqm_traffic::scale::{run_memory_scale, run_shard_scale, ShardScaleConfig};

        let cfg = ShardScaleConfig::smoke();
        let service = |threads| {
            npqm_traffic::run_service(
                &npqm_traffic::service::ServiceConfig::steady_demo(5),
                threads,
                |_| DynamicThreshold::new(2.0),
                |_| from_spec("drr:1518", 8).expect("static spec"),
            )
            .to_json()
        };
        let timing = TimingConfig::paper(8);
        let pairs = [
            (
                "shard scale",
                run_shard_scale(&cfg, 4, 1).to_json(),
                run_shard_scale(&cfg, 4, 2).to_json(),
                "wall_clock_us",
            ),
            (
                "memory scale",
                run_memory_scale(&cfg, 2, 1, &timing).to_json(),
                run_memory_scale(&cfg, 2, 2, &timing).to_json(),
                "threads",
            ),
            ("service", service(1), service(2), "wall_clock_us"),
        ];
        for (name, one, two, measured) in pairs {
            assert_eq!(one.without_host(), two.without_host(), "{name}");
            for (doc, threads) in [(&one, 1), (&two, 2)] {
                let host = doc.get(HOST).expect("report carries a host object");
                assert_eq!(host.get("threads").unwrap().as_i64(), Some(threads));
                assert!(host.get(measured).is_some(), "{name}: host.{measured}");
            }
            assert_ne!(one, two, "{name}: host.threads differs");
            // The whole document round-trips through the parser.
            assert_eq!(Json::parse(&one.pretty()).as_ref(), Ok(&one), "{name}");
        }
    }
}
