//! In-memory spans around the calls into each layer.
//!
//! The recorder lives in the benchmark, not in the program: a span opens
//! just before `layers.rs` calls a public function of a layer and closes
//! when it returns. Spans are kept in a vector and written out as
//! Chrome-trace JSON once, when the workload ends.

use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// `layer.step`, which is also the per-layer metric's stem.
    pub name: &'static str,
    /// The operation (request) the span belongs to.
    pub op: u32,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Start, in nanoseconds since the recorder was made.
    pub start_ns: u64,
    /// End, in nanoseconds since the recorder was made.
    pub end_ns: u64,
}

impl Span {
    fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Records nested spans on one thread.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder::new()
    }
}

impl Recorder {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Self {
        Recorder {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `f` inside a span named `name`; spans opened by `f` through
    /// the recorder it is handed become children.
    pub fn scope<T>(
        &mut self,
        name: &'static str,
        op: u32,
        f: impl FnOnce(&mut Recorder) -> T,
    ) -> T {
        let index = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            op,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(index);
        let out = f(self);
        self.open.pop();
        self.spans[index].end_ns = self.now_ns();
        out
    }

    /// Appends an already-measured span (lets tests state exact times).
    #[cfg(test)]
    pub fn push(&mut self, span: Span) {
        self.spans.push(span);
    }

    /// Self time of every span: its duration minus the part of it its
    /// direct children cover.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::dur_ns).collect();
        for span in &self.spans {
            if let Some(parent) = span.parent {
                own[parent] = own[parent].saturating_sub(span.dur_ns());
            }
        }
        own
    }

    /// Durations, in milliseconds, of the spans named `name`, grouped by
    /// operation, each group in recording order.
    pub fn durations_by_op(&self, name: &str) -> BTreeMap<u32, Vec<f64>> {
        let mut by_op: BTreeMap<u32, Vec<f64>> = BTreeMap::new();
        for span in self.spans.iter().filter(|s| s.name == name) {
            by_op
                .entry(span.op)
                .or_default()
                .push(span.dur_ns() as f64 / 1e6);
        }
        by_op
    }

    /// The spans as Chrome-trace complete (`"X"`) events on thread `tid`;
    /// `args` carries the span's index, its operation, its parent's index
    /// and its self time.
    pub fn chrome_events(&self, tid: u32) -> Vec<String> {
        self.spans
            .iter()
            .zip(self.self_ns())
            .enumerate()
            .map(|(i, (span, own_ns))| {
                let parent = span
                    .parent
                    .map_or_else(|| "null".to_owned(), |p| p.to_string());
                format!(
                    "{{\"name\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":1,\"tid\":{tid},\
                     \"args\":{{\"id\":{i},\"op\":{},\"parent\":{parent},\"self_us\":{:.3}}}}}",
                    span.name,
                    span.start_ns as f64 / 1e3,
                    span.dur_ns() as f64 / 1e3,
                    span.op,
                    own_ns as f64 / 1e3,
                )
            })
            .collect()
    }
}

/// Chrome-trace JSON: one array holding `events`.
pub fn chrome_trace(events: &[String]) -> String {
    format!("[\n{}\n]\n", events.join(",\n"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            op: 0,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        let mut rec = Recorder::new();
        rec.push(span("op", None, 0, 1_000));
        rec.push(span("step", Some(0), 100, 400));
        rec.push(span("inner", Some(1), 150, 250));
        rec.push(span("step", Some(0), 500, 900));
        // op: 1000 - (300 + 400); first step: 300 - 100; grandchildren are
        // charged to their own parent only.
        assert_eq!(rec.self_ns(), vec![300, 200, 100, 400]);
        assert_eq!(
            rec.durations_by_op("step")[&0],
            vec![300.0 / 1e6, 400.0 / 1e6]
        );
    }

    #[test]
    fn scope_nests_and_links_parents() {
        let mut rec = Recorder::new();
        let value = rec.scope("outer", 7, |r| {
            r.scope("a", 7, |_| ());
            r.scope("b", 7, |r| r.scope("c", 7, |_| 5))
        });
        assert_eq!(value, 5);
        let parents: Vec<Option<usize>> = rec.spans.iter().map(|s| s.parent).collect();
        assert_eq!(parents, vec![None, Some(0), Some(0), Some(2)]);
        assert!(rec
            .spans
            .iter()
            .all(|s| s.end_ns >= s.start_ns && s.op == 7));
        let outer = &rec.spans[0];
        assert!(rec.spans[1..]
            .iter()
            .all(|s| s.start_ns >= outer.start_ns && s.end_ns <= outer.end_ns));
    }

    #[test]
    fn chrome_trace_is_one_event_per_span() {
        let mut rec = Recorder::new();
        rec.push(span("op", None, 0, 2_000));
        rec.push(span("step", Some(0), 500, 1_500));
        let text = chrome_trace(&rec.chrome_events(3));
        let doc = crate::layers::parse_json(&text).expect("trace is JSON");
        let events = doc.as_array().expect("array");
        assert_eq!(events.len(), 2);
        assert_eq!(events[1].get("name").and_then(|v| v.as_str()), Some("step"));
        assert_eq!(events[1].get("dur").and_then(|v| v.as_f64()), Some(1.0));
        let args = events[0].get("args").expect("args");
        assert_eq!(args.get("self_us").and_then(|v| v.as_f64()), Some(1.0));
        assert_eq!(events[0].get("tid").and_then(|v| v.as_u64()), Some(3));
    }
}
