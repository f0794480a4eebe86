//! In-memory spans for the traced pass.
//!
//! The harness wraps each call into a layer in one span — name, start,
//! end, the span that caused it, and the work it covered as a count —
//! keeps them in a `Vec`, and writes them out once at exit. Nothing is
//! recorded inside the program under test (that is a later change), and
//! nothing is recorded at all in the end-to-end pass.
//!
//! A layer's **self time** is its span's duration minus the part its
//! direct children cover; a per-layer metric is self time ÷ count.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

use crate::json;

/// One recorded span. `id` is the span's index in its [`Tracer`].
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Workload the traced pass belongs to.
    pub workload: String,
    /// Layer name (module path plus what was called).
    pub name: String,
    /// Index of the enclosing span, `None` for a root.
    pub parent: Option<usize>,
    /// Start, nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Units of work the span covered (records, refs, frames, …).
    pub count: u64,
}

impl Span {
    /// Wall duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Handle of an open span; closing it needs the work count.
#[derive(Debug)]
#[must_use = "an open span must be closed with Tracer::end"]
pub struct Open(usize);

/// Records spans in memory; see the module docs.
#[derive(Debug)]
pub struct Tracer {
    workload: String,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    /// A tracer for one workload's traced pass.
    pub fn new(workload: &str) -> Self {
        Tracer {
            workload: workload.to_string(),
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under whichever span is currently open.
    pub fn begin(&mut self, name: &str) -> Open {
        let id = self.spans.len();
        let now = self.now_ns();
        self.spans.push(Span {
            workload: self.workload.clone(),
            name: name.to_string(),
            parent: self.stack.last().copied(),
            start_ns: now,
            end_ns: now,
            count: 0,
        });
        self.stack.push(id);
        Open(id)
    }

    /// Closes `open`, which must be the innermost open span.
    ///
    /// # Panics
    ///
    /// Panics if spans are closed out of order — a harness bug.
    pub fn end(&mut self, open: Open, count: u64) {
        let top = self.stack.pop();
        assert_eq!(top, Some(open.0), "spans must close innermost first");
        let now = self.now_ns();
        let span = &mut self.spans[open.0];
        span.end_ns = now;
        span.count = count;
    }

    /// Runs `f` inside a span; `f` returns its result and the count.
    pub fn span<T>(&mut self, name: &str, f: impl FnOnce(&mut Tracer) -> (T, u64)) -> T {
        let open = self.begin(name);
        let (value, count) = f(self);
        self.end(open, count);
        value
    }

    /// Every span recorded so far, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes one JSON object per span to `path`.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let file = std::fs::File::create(path)?;
        let mut w = std::io::BufWriter::new(file);
        for (id, s) in self.spans.iter().enumerate() {
            let mut line = String::from("{\"workload\":");
            json::push_str(&mut line, &s.workload);
            line.push_str(",\"id\":");
            line.push_str(&id.to_string());
            line.push_str(",\"name\":");
            json::push_str(&mut line, &s.name);
            line.push_str(",\"parent\":");
            match s.parent {
                Some(p) => line.push_str(&p.to_string()),
                None => line.push_str("null"),
            }
            line.push_str(&format!(
                ",\"start_ns\":{},\"end_ns\":{},\"count\":{}}}\n",
                s.start_ns, s.end_ns, s.count
            ));
            w.write_all(line.as_bytes())?;
        }
        w.flush()
    }
}

/// Self time of every span: duration minus the time its direct
/// children cover. Children of one parent never overlap here (the
/// tracer is single-threaded and strictly nested), so the cover is the
/// plain sum of their durations.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] = own[p].saturating_sub(s.duration_ns());
        }
    }
    own
}

/// Summed self time (ns) and summed count of every span called `name`
/// among `spans[from..]` (one pass of a traced run starts at `from`).
pub fn layer_totals(spans: &[Span], from: usize, name: &str) -> (u64, u64) {
    let own = self_times_ns(spans);
    spans
        .iter()
        .zip(&own)
        .skip(from)
        .filter(|(s, _)| s.name == name)
        .fold((0, 0), |(t, c), (s, &o)| (t + o, c + s.count))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, parent: Option<usize>, start: u64, end: u64, count: u64) -> Span {
        Span {
            workload: "w".into(),
            name: name.into(),
            parent,
            start_ns: start,
            end_ns: end,
            count,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // root [0,100) ⊃ a [10,60) ⊃ b [20,30); root ⊃ c [70,90)
        let spans = vec![
            span("root", None, 0, 100, 1),
            span("a", Some(0), 10, 60, 5),
            span("b", Some(1), 20, 30, 2),
            span("c", Some(0), 70, 90, 4),
        ];
        assert_eq!(self_times_ns(&spans), vec![30, 40, 10, 20]);
    }

    #[test]
    fn layer_totals_sum_repeated_spans() {
        let spans = vec![
            span("pass", None, 0, 100, 1),
            span("layer", Some(0), 0, 40, 10),
            span("inner", Some(1), 10, 20, 1),
            span("layer", Some(0), 50, 80, 20),
        ];
        assert_eq!(layer_totals(&spans, 0, "layer"), (30 + 30, 30));
        assert_eq!(layer_totals(&spans, 2, "layer"), (30, 20));
        assert_eq!(layer_totals(&spans, 0, "absent"), (0, 0));
    }

    #[test]
    fn tracer_links_parents_and_keeps_counts() {
        let mut t = Tracer::new("w");
        let got = t.span("outer", |t| {
            let inner = t.span("inner", |_| (7u32, 3));
            (inner + 1, 9)
        });
        assert_eq!(got, 8);
        let s = t.spans();
        assert_eq!(s.len(), 2);
        assert_eq!(
            (s[0].name.as_str(), s[0].parent, s[0].count),
            ("outer", None, 9)
        );
        assert_eq!(
            (s[1].name.as_str(), s[1].parent, s[1].count),
            ("inner", Some(0), 3)
        );
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);
    }

    #[test]
    #[should_panic(expected = "innermost first")]
    fn closing_out_of_order_is_a_bug() {
        let mut t = Tracer::new("w");
        let a = t.begin("a");
        let _b = t.begin("b");
        t.end(a, 0);
    }
}
