//! Spans recorded by the benchmark around its calls into each layer.
//!
//! Spans are held in memory and written once, at the end of the traced
//! pass, as Chrome `trace_event` JSON (open it in ui.perfetto.dev). The
//! timed pass runs with a disabled tracer: `begin`/`end` are then one
//! branch each, so both passes execute the same driver code.

use npqm_bench::Json;
use std::time::Instant;

/// One closed span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    /// Index of the span that caused this one; `None` for the root.
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Calls (packets, segments, commands) made inside the span.
    pub items: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Handle of an open span; pass it back to [`Tracer::end`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(Option<usize>);

impl SpanId {
    /// The handle a disabled tracer gives out.
    pub const NONE: SpanId = SpanId(None);
}

/// An in-memory span recorder.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    enabled: bool,
}

impl Tracer {
    /// A recording tracer.
    pub fn on() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            enabled: true,
        }
    }

    /// A tracer that records nothing.
    pub fn off() -> Self {
        Tracer {
            enabled: false,
            ..Tracer::on()
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under `parent`.
    pub fn begin(&mut self, name: &'static str, parent: SpanId) -> SpanId {
        if !self.enabled {
            return SpanId::NONE;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            parent: parent.0,
            start_ns,
            end_ns: start_ns,
            items: 0,
        });
        SpanId(Some(self.spans.len() - 1))
    }

    /// Closes a span, recording how many calls it covered.
    pub fn end(&mut self, id: SpanId, items: u64) {
        if let Some(i) = id.0 {
            let end_ns = self.now_ns();
            let span = &mut self.spans[i];
            span.end_ns = end_ns;
            span.items = items;
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total duration and item count of the direct children of `parent`
    /// named `name`.
    pub fn children(&self, parent: SpanId, name: &str) -> (u64, u64) {
        self.spans
            .iter()
            .filter(|s| s.parent == parent.0 && s.name == name)
            .fold((0, 0), |(ns, items), s| {
                (ns + s.duration_ns(), items + s.items)
            })
    }

    /// The spans as Chrome `trace_event` complete events. Each event's
    /// `args` carry its own id and its parent's, so nesting survives
    /// viewers that only look at timestamps.
    pub fn to_chrome_json(&self, process_name: &str) -> Json {
        let mut events = vec![Json::obj([
            ("name", Json::Str("process_name".into())),
            ("ph", Json::Str("M".into())),
            ("pid", Json::Int(1)),
            ("tid", Json::Int(1)),
            (
                "args",
                Json::obj([("name", Json::Str(process_name.into()))]),
            ),
        ])];
        events.extend(self.spans.iter().enumerate().map(|(id, s)| {
            Json::obj([
                ("name", Json::Str(s.name.into())),
                ("ph", Json::Str("X".into())),
                ("pid", Json::Int(1)),
                ("tid", Json::Int(1)),
                ("ts", Json::Num(s.start_ns as f64 / 1000.0)),
                ("dur", Json::Num(s.duration_ns() as f64 / 1000.0)),
                (
                    "args",
                    Json::obj([
                        ("id", Json::Int(id as i64)),
                        (
                            "parent",
                            s.parent.map_or(Json::Null, |p| Json::Int(p as i64)),
                        ),
                        ("items", Json::Int(s.items as i64)),
                    ]),
                ),
            ])
        }));
        Json::obj([
            ("displayTimeUnit", Json::Str("ns".into())),
            ("traceEvents", Json::Arr(events)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            parent,
            start_ns,
            end_ns,
            items: 1,
        }
    }

    #[test]
    fn children_sums_direct_children_of_one_name_only() {
        let t = Tracer {
            origin: Instant::now(),
            enabled: true,
            spans: vec![
                span("root", None, 0, 1000),
                span("rung", Some(0), 100, 900),
                span("chunk", Some(1), 150, 350),
                span("chunk", Some(1), 400, 800),
                span("inner", Some(3), 450, 500),
            ],
        };
        // A rung's time is its chunks', not the harness time between them
        // and not its grandchildren's a second time.
        assert_eq!(t.children(SpanId(Some(1)), "chunk"), (200 + 400, 2));
        assert_eq!(t.children(SpanId(Some(1)), "inner"), (0, 0));
        assert_eq!(t.children(SpanId(Some(0)), "rung"), (800, 1));
        assert_eq!(t.children(SpanId(Some(3)), "inner"), (50, 1));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::off();
        let id = t.begin("x", SpanId::NONE);
        t.end(id, 9);
        assert!(t.spans().is_empty());
        assert_eq!(t.children(id, "x"), (0, 0));
    }

    #[test]
    fn spans_nest_under_one_root_in_the_export() {
        let mut t = Tracer::on();
        let root = t.begin("root", SpanId::NONE);
        let rung = t.begin("rung", root);
        let chunk = t.begin("chunk", rung);
        t.end(chunk, 256);
        t.end(rung, 256);
        t.end(root, 256);
        let json = Json::parse(&t.to_chrome_json("w").pretty()).expect("export parses");
        let events = json.get("traceEvents").and_then(Json::as_arr).unwrap();
        let parents: Vec<Option<i64>> = events[1..]
            .iter()
            .map(|e| e.get("args").unwrap().get("parent").unwrap().as_i64())
            .collect();
        assert_eq!(parents, vec![None, Some(0), Some(1)]);
        assert!(events[1..]
            .iter()
            .all(|e| e.get("dur").unwrap().as_f64().unwrap() >= 0.0));
    }
}
