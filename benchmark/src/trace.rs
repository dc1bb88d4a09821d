//! Spans of the traced run.
//!
//! Spans are recorded by the benchmark's own code, around its calls into the
//! layers; nothing inside the program under test is instrumented. They are
//! kept in memory and written out once, when the run ends. A span's self time
//! is its duration minus the part its children cover.

use crate::clock;
use crate::json;

/// Identifier of a recorded span (its index).
pub type SpanId = usize;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Parent span, `None` at top level.
    pub parent: Option<SpanId>,
    /// What ran.
    pub name: String,
    /// Start, microseconds since the trace epoch.
    pub start_us: u64,
    /// End, microseconds since the trace epoch.
    pub end_us: u64,
    /// Units of work done inside (documents, calls, rounds …).
    pub count: u64,
}

/// The span recorder. A disabled tracer records nothing and costs a branch.
#[derive(Debug, Default)]
pub struct Tracer {
    enabled: bool,
    spans: Vec<Span>,
}

impl Tracer {
    /// A recording tracer.
    pub fn on() -> Self {
        Self {
            enabled: true,
            spans: Vec::new(),
        }
    }

    /// A tracer that drops everything (the end-to-end runs).
    pub fn off() -> Self {
        Self::default()
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// The spans recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Records a finished span with explicit bounds.
    pub fn record(
        &mut self,
        parent: Option<SpanId>,
        name: &str,
        start_us: u64,
        end_us: u64,
        count: u64,
    ) -> Option<SpanId> {
        if !self.enabled {
            return None;
        }
        self.spans.push(Span {
            parent,
            name: name.to_string(),
            start_us,
            end_us,
            count,
        });
        Some(self.spans.len() - 1)
    }

    /// Opens a span now; close it with [`Self::close`].
    pub fn open(&mut self, parent: Option<SpanId>, name: &str) -> Option<SpanId> {
        let now = clock::now_us();
        self.record(parent, name, now, now, 0)
    }

    /// Closes a span opened with [`Self::open`], setting its end and count.
    pub fn close(&mut self, id: Option<SpanId>, count: u64) {
        if let Some(span) = id.and_then(|i| self.spans.get_mut(i)) {
            span.end_us = clock::now_us();
            span.count = count;
        }
    }

    /// Runs `f` inside a span.
    pub fn scope<T>(
        &mut self,
        parent: Option<SpanId>,
        name: &str,
        count: u64,
        f: impl FnOnce(&mut Tracer, Option<SpanId>) -> T,
    ) -> T {
        let id = self.open(parent, name);
        let out = f(self, id);
        self.close(id, count);
        out
    }

    /// A span's duration minus the part of it its direct children cover.
    pub fn self_time_us(&self, id: SpanId) -> u64 {
        let span = &self.spans[id];
        let mut children: Vec<(u64, u64)> = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(|s| (s.start_us.max(span.start_us), s.end_us.min(span.end_us)))
            .filter(|(start, end)| end > start)
            .collect();
        children.sort_unstable();
        let mut covered = 0u64;
        let mut cursor = span.start_us;
        for (start, end) in children {
            let start = start.max(cursor);
            if end > start {
                covered += end - start;
                cursor = end;
            }
        }
        (span.end_us - span.start_us).saturating_sub(covered)
    }

    /// Renders the trace file: the spans, plus `extra` top-level members
    /// (already-rendered JSON values keyed by name).
    pub fn to_json(&self, workload: &str, extra: &[(&str, String)]) -> String {
        let mut out = format!("{{\n  \"workload\": {},\n", json::quote(workload));
        for (key, value) in extra {
            out.push_str(&format!("  {}: {value},\n", json::quote(key)));
        }
        out.push_str("  \"spans\": [\n");
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "    {{\"id\": {id}, \"parent\": {parent}, \"name\": {}, \"workload\": {}, \
                 \"start_us\": {}, \"end_us\": {}, \"count\": {}, \"self_us\": {}}}{}\n",
                json::quote(&s.name),
                json::quote(workload),
                s.start_us,
                s.end_us,
                s.count,
                self.self_time_us(id),
                if id + 1 == self.spans.len() { "" } else { "," }
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_overlapping_children_once() {
        let mut t = Tracer::on();
        let run = t.record(None, "run", 0, 100, 1);
        t.record(run, "a", 10, 40, 1);
        t.record(run, "b", 30, 60, 1); // overlaps `a` by 10
        t.record(run, "c", 90, 130, 1); // sticks out past the parent
        let leaf = t.record(run, "d", 70, 80, 1).unwrap();
        // covered: [10,60) + [70,80) + [90,100) = 70
        assert_eq!(t.self_time_us(run.unwrap()), 30);
        assert_eq!(t.self_time_us(leaf), 10);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::off();
        let id = t.open(None, "x");
        t.close(id, 3);
        assert!(id.is_none() && t.spans().is_empty());
        assert_eq!(t.scope(None, "y", 1, |_, _| 7), 7);
    }

    #[test]
    fn trace_file_is_valid_json() {
        let mut t = Tracer::on();
        let run = t.record(None, "run", 0, 10, 2);
        t.record(run, "learn \"q\"", 1, 4, 5);
        let doc = crate::json::parse(&t.to_json("w", &[("extra", "[1, 2]".to_string())])).unwrap();
        let spans = doc.get("spans").unwrap().as_array().unwrap();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].get("parent").unwrap().as_f64(), Some(0.0));
        assert_eq!(spans[0].get("self_us").unwrap().as_f64(), Some(7.0));
        assert!(doc.get("extra").is_some());
    }
}
