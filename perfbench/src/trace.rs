//! Outside-in span recorder: the benchmark wraps each public call it
//! makes in a span, keeps the spans in memory, and derives per-layer
//! self time from them after the run.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded call: a name, its interval in nanoseconds since the
/// tracer started, and the index + 1 of the enclosing span (0 for a
/// root).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: usize,
}

impl Span {
    fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// Records nested spans on one thread.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new() -> Self {
        Self { origin: Instant::now(), spans: Vec::new(), open: Vec::new() }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).expect("run shorter than 584 years")
    }

    /// Opens a span nested in the innermost open one.
    pub fn begin(&mut self, name: &'static str) -> usize {
        let parent = self.open.last().map_or(0, |&i| i + 1);
        let start_ns = self.now_ns();
        self.spans.push(Span { name, start_ns, end_ns: start_ns, parent });
        self.open.push(self.spans.len() - 1);
        self.spans.len() - 1
    }

    /// Closes span `id`, which must be the innermost open one.
    pub fn end(&mut self, id: usize) {
        assert_eq!(self.open.pop(), Some(id), "spans must close innermost first");
        self.spans[id].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.begin(name);
        let out = f();
        self.end(id);
        out
    }

    /// Durations (seconds) of every span named `name`, in record order.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans.iter().filter(|s| s.name == name).map(Span::secs).collect()
    }

    /// Total self time (seconds) per span name.
    pub fn self_times(&self) -> BTreeMap<&'static str, f64> {
        self_times(&self.spans)
    }

    /// Writes every span as one JSON line.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let _ = writeln!(
                out,
                r#"{{"id":{},"parent":{},"name":"{}","start_ns":{},"end_ns":{}}}"#,
                i + 1,
                s.parent,
                s.name,
                s.start_ns,
                s.end_ns
            );
        }
        out
    }
}

/// Self time per span name: each span's duration minus the part of it
/// that the union of its direct children covers.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if s.parent > 0 {
            children[s.parent - 1].push((s.start_ns, s.end_ns));
        }
    }
    let mut out = BTreeMap::new();
    for (s, kids) in spans.iter().zip(&mut children) {
        kids.sort_unstable();
        let mut covered = 0;
        let mut reach = s.start_ns;
        for &(lo, hi) in kids.iter() {
            let (lo, hi) = (lo.max(reach), hi.min(s.end_ns));
            if hi > lo {
                covered += hi - lo;
                reach = hi;
            }
        }
        *out.entry(s.name).or_insert(0.0) += (s.end_ns - s.start_ns - covered) as f64 * 1e-9;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: usize) -> Span {
        Span { name, start_ns, end_ns, parent }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = [
            span("root", 0, 100, 0),
            span("a", 10, 30, 1),
            // Overlaps `a`: the union of the two children is 10..50.
            span("b", 20, 50, 1),
            span("leaf", 12, 14, 2),
            span("leaf", 60, 70, 1),
        ];
        let st = self_times(&spans);
        let ns = |name| (st[name] * 1e9).round() as u64;
        assert_eq!(ns("root"), 100 - 40 - 10);
        assert_eq!(ns("a"), 20 - 2);
        assert_eq!(ns("b"), 30);
        assert_eq!(ns("leaf"), 2 + 10);
    }

    #[test]
    fn recorded_spans_nest_and_self_times_sum_to_the_root() {
        let mut tr = Tracer::new();
        let root = tr.begin("root");
        tr.span("child", || {
            std::thread::sleep(std::time::Duration::from_millis(2));
        });
        tr.end(root);
        assert_eq!(tr.spans[1].parent, 1);
        let st = tr.self_times();
        let total = tr.durations("root")[0];
        assert!(st["child"] >= 2e-3);
        assert!((st["root"] + st["child"] - total).abs() < 1e-9);
        assert_eq!(tr.to_jsonl().lines().count(), 2);
    }
}
