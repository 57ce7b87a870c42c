//! In-memory span recorder for the traced pass.
//!
//! Spans are opened and closed only from the benchmark's own files,
//! around the public calls into each layer. They nest LIFO on the one
//! driver thread; a span's *self time* is its duration minus the
//! durations of its direct children. The buffer is allocated up front so
//! tracing never allocates inside the measured window.

use crate::json;
use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// One recorded span. `parent` indexes the span list.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u32>,
    /// Spans of one record share this id; round-wide spans carry the id
    /// of the round's first record.
    pub record_id: u64,
}

/// Handle returned by [`Tracer::open`]; `None` while tracing is off.
#[derive(Debug, Clone, Copy)]
#[must_use = "close the span"]
pub struct Open(Option<u32>);

#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    enabled: bool,
    spans: Vec<Span>,
    stack: Vec<u32>,
}

impl Tracer {
    /// A disabled tracer with room for `capacity` spans.
    pub fn new(capacity: usize) -> Tracer {
        Tracer {
            epoch: Instant::now(),
            enabled: false,
            spans: Vec::with_capacity(capacity),
            stack: Vec::with_capacity(8),
        }
    }

    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    /// Nanoseconds since this tracer was created — the clock every span
    /// and every latency sample of a run is read from.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// True once fewer than `headroom` span slots remain: the traced pass
    /// stops at the next round boundary instead of reallocating.
    pub fn nearly_full(&self, headroom: usize) -> bool {
        self.spans.len() + headroom >= self.spans.capacity()
    }

    pub fn open(&mut self, name: &'static str, record_id: u64) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let idx = self.spans.len() as u32;
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: self.stack.last().copied(),
            record_id,
        });
        self.stack.push(idx);
        Open(Some(idx))
    }

    pub fn close(&mut self, open: Open) {
        let Some(idx) = open.0 else { return };
        let top = self.stack.pop();
        assert_eq!(top, Some(idx), "spans close in LIFO order");
        self.spans[idx as usize].end_ns = self.now_ns();
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Per-name totals over a span list.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Totals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// Sums count, duration and self time per span name.
pub fn totals_by_name(spans: &[Span]) -> BTreeMap<&'static str, Totals> {
    let mut child_ns = vec![0u64; spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            child_ns[parent as usize] += span.end_ns - span.start_ns;
        }
    }
    let mut out: BTreeMap<&'static str, Totals> = BTreeMap::new();
    for (span, children) in spans.iter().zip(child_ns) {
        let duration = span.end_ns - span.start_ns;
        let t = out.entry(span.name).or_default();
        t.count += 1;
        t.total_ns += duration;
        t.self_ns += duration.saturating_sub(children);
    }
    out
}

/// Writes `spans` as `{"workload": .., "spans": [{name, start_ns, end_ns,
/// parent, record_id}, ..]}`.
pub fn write_trace(path: &std::path::Path, workload: &str, spans: &[Span]) -> std::io::Result<()> {
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(
        w,
        "{{\"workload\": {}, \"spans\": [",
        json::escape(workload)
    )?;
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            w,
            "{{\"name\": {}, \"start_ns\": {}, \"end_ns\": {}, \"parent\": {}, \"record_id\": {}}}{}",
            json::escape(s.name),
            s.start_ns,
            s.end_ns,
            parent,
            s.record_id,
            if i + 1 == spans.len() { "" } else { "," }
        )?;
    }
    writeln!(w, "]}}")?;
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<u32>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            record_id: 0,
        }
    }

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        let spans = [
            span("round", 0, 100, None),
            span("send", 10, 40, Some(0)),
            span("seal", 15, 35, Some(1)),
            span("recv", 50, 90, Some(0)),
            span("round", 100, 150, None),
            span("send", 100, 150, Some(4)),
        ];
        let t = totals_by_name(&spans);
        assert_eq!(
            t["round"],
            Totals {
                count: 2,
                total_ns: 150,
                self_ns: 30
            }
        );
        // `seal` is a grandchild of the first round: it shortens `send`'s
        // self time, not the round's.
        assert_eq!(
            t["send"],
            Totals {
                count: 2,
                total_ns: 80,
                self_ns: 60
            }
        );
        assert_eq!(t["seal"].self_ns, 20);
        assert_eq!(t["recv"].self_ns, 40);
    }

    #[test]
    fn tracer_records_nesting_only_while_enabled() {
        let mut tr = Tracer::new(16);
        let off = tr.open("ignored", 1);
        tr.close(off);

        tr.set_enabled(true);
        let round = tr.open("round", 7);
        let child = tr.open("send", 8);
        tr.close(child);
        tr.close(round);
        assert!(!tr.nearly_full(4) && tr.nearly_full(14));
        let spans = tr.into_spans();
        assert_eq!(
            spans.len(),
            2,
            "the span opened while disabled left no trace"
        );
        assert_eq!((spans[0].parent, spans[1].parent), (None, Some(0)));
        assert_eq!((spans[0].record_id, spans[1].record_id), (7, 8));
        assert!(spans[0].start_ns <= spans[1].start_ns);
        assert!(spans[1].end_ns <= spans[0].end_ns);
    }

    #[test]
    fn trace_file_parses_back_with_every_field() {
        let dir = std::env::temp_dir().join(format!("exp_wallclock_trace_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trace.json");
        let spans = [span("round", 1, 9, None), span("a\"b", 2, 3, Some(0))];
        write_trace(&path, "w", &spans).unwrap();
        let doc = json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        let json::Value::Arr(items) = doc.get("spans").unwrap() else {
            panic!("spans is an array");
        };
        assert_eq!(items.len(), 2);
        assert_eq!(items[0].get("parent"), Some(&json::Value::Null));
        assert_eq!(
            items[1].get("parent").and_then(json::Value::as_f64),
            Some(0.0)
        );
        assert_eq!(items[1].get("name"), Some(&json::Value::Str("a\"b".into())));
        for key in ["start_ns", "end_ns", "record_id"] {
            assert!(items[1].get(key).and_then(json::Value::as_f64).is_some());
        }
    }
}
