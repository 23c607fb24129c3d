//! In-memory span recorder. The benchmark wraps each call it makes into a
//! crate's public functions in a span; spans are kept in a `Vec` and only
//! summarised (or written out) after the measured phase ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

const NO_PARENT: u32 = u32::MAX;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, or `NO_PARENT`.
    pub parent: u32,
    /// The request (or interval) this span belongs to.
    pub op: u64,
}

/// Per-name totals over a set of spans.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Layer {
    pub spans: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

#[derive(Debug)]
pub struct Recorder {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    op: u64,
}

impl Recorder {
    pub fn new() -> Self {
        Recorder { on: false, origin: Instant::now(), spans: Vec::new(), open: Vec::new(), op: 0 }
    }

    /// Switch recording; only between operations, so no span is left open.
    pub fn set_on(&mut self, on: bool) {
        assert!(self.open.is_empty(), "tracing toggled inside a span");
        self.on = on;
    }

    /// Spans recorded from now on belong to operation `op`.
    pub fn begin_op(&mut self, op: u64) {
        self.op = op;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span named `name`, a child of whichever span is open.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Recorder) -> T) -> T {
        if !self.on {
            return f(self);
        }
        let parent = self.open.last().copied().unwrap_or(NO_PARENT);
        let index = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span { name, start_ns, end_ns: start_ns, parent, op: self.op });
        self.open.push(index);
        let out = f(self);
        self.open.pop();
        self.spans[index as usize].end_ns = self.now_ns();
        out
    }

    /// Self time of every span: its duration minus its direct children's.
    fn self_times(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(|s| s.end_ns - s.start_ns).collect();
        for s in &self.spans {
            if s.parent != NO_PARENT {
                let p = s.parent as usize;
                own[p] = own[p].saturating_sub(s.end_ns - s.start_ns);
            }
        }
        own
    }

    /// Totals per span name.
    pub fn layers(&self) -> BTreeMap<&'static str, Layer> {
        let own = self.self_times();
        let mut out: BTreeMap<&'static str, Layer> = BTreeMap::new();
        for (s, own_ns) in self.spans.iter().zip(own) {
            let l = out.entry(s.name).or_default();
            l.spans += 1;
            l.total_ns += s.end_ns - s.start_ns;
            l.self_ns += own_ns;
        }
        out
    }

    /// Self time of `name` summed per operation, in nanoseconds.
    pub fn self_ns_per_op(&self, name: &str) -> Vec<f64> {
        let own = self.self_times();
        let mut per_op: BTreeMap<u64, u64> = BTreeMap::new();
        for (s, own_ns) in self.spans.iter().zip(own) {
            if s.name == name {
                *per_op.entry(s.op).or_default() += own_ns;
            }
        }
        per_op.into_values().map(|ns| ns as f64).collect()
    }

    /// The trace as a JSON array, one object per span.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent =
                if s.parent == NO_PARENT { "null".to_string() } else { s.parent.to_string() };
            let comma = if i + 1 == self.spans.len() { "" } else { "," };
            // Span names are identifiers chosen in this directory: no escaping needed.
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op\":{}}}{comma}",
                s.name, s.start_ns, s.end_ns, s.op
            );
        }
        out.push(']');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A recorder with hand-placed spans, so self time is checked exactly.
    fn fixed(spans: &[(&'static str, u64, u64, u32, u64)]) -> Recorder {
        let mut r = Recorder::new();
        for &(name, start_ns, end_ns, parent, op) in spans {
            r.spans.push(Span { name, start_ns, end_ns, parent, op });
        }
        r
    }

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        let r = fixed(&[
            ("op", 0, 100, NO_PARENT, 1),
            ("a", 10, 60, 0, 1),
            ("b", 20, 30, 1, 1), // grandchild: charged to `a`, not to `op`
            ("a", 70, 90, 0, 1),
            ("op", 100, 150, NO_PARENT, 2),
            ("a", 100, 140, 4, 2),
        ]);
        let layers = r.layers();
        assert_eq!(layers["op"], Layer { spans: 2, total_ns: 150, self_ns: 30 + 10 });
        assert_eq!(layers["a"], Layer { spans: 3, total_ns: 110, self_ns: 40 + 20 + 40 });
        assert_eq!(layers["b"], Layer { spans: 1, total_ns: 10, self_ns: 10 });
        assert_eq!(r.self_ns_per_op("a"), vec![60.0, 40.0]);
        let total_self: u64 = layers.values().map(|l| l.self_ns).sum();
        assert_eq!(total_self, 150, "self times partition the root spans");
    }

    #[test]
    fn spans_nest_by_call_structure_and_off_records_nothing() {
        let mut r = Recorder::new();
        r.span("ignored", |_| ());
        assert!(r.spans.is_empty());
        r.set_on(true);
        r.begin_op(9);
        r.span("op", |r| {
            r.span("inner", |_| ());
            r.span("inner", |_| ());
        });
        let s = &r.spans;
        assert_eq!(s.len(), 3);
        assert_eq!((s[0].name, s[0].parent, s[0].op), ("op", NO_PARENT, 9));
        assert_eq!((s[1].parent, s[2].parent), (0, 0));
        assert!(s[0].start_ns <= s[1].start_ns && s[2].end_ns <= s[0].end_ns);
        assert!(r.to_json().contains("\"name\":\"inner\""));
    }
}
