//! Named metrics registry: counters, gauges, and histograms.
//!
//! Registration returns `Copy` integer handles so hot loops touch a
//! `Vec` slot directly instead of hashing a name. Names are only used
//! at registration time and when rendering summaries.

use crate::histogram::Histogram;

/// Handle to a registered counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CounterId(usize);

/// Handle to a registered gauge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GaugeId(usize);

/// Handle to a registered histogram.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistogramId(usize);

/// Last/min/max/sample-count summary of a gauge.
#[derive(Debug, Clone, PartialEq)]
pub struct Gauge {
    /// Most recently set value (NaN before the first set).
    pub last: f64,
    /// Smallest value ever set.
    pub min: f64,
    /// Largest value ever set.
    pub max: f64,
    /// Number of `set` calls.
    pub samples: u64,
}

impl Gauge {
    fn new() -> Self {
        Self { last: f64::NAN, min: f64::INFINITY, max: f64::NEG_INFINITY, samples: 0 }
    }
}

/// A registry of named counters, gauges, and histograms.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Registry {
    counter_names: Vec<String>,
    counters: Vec<u64>,
    gauge_names: Vec<String>,
    gauges: Vec<Gauge>,
    histogram_names: Vec<String>,
    histograms: Vec<Histogram>,
}

impl Registry {
    /// Creates an empty registry.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers (or looks up) a counter by name.
    pub fn counter(&mut self, name: &str) -> CounterId {
        if let Some(i) = self.counter_names.iter().position(|n| n == name) {
            return CounterId(i);
        }
        self.counter_names.push(name.to_string());
        self.counters.push(0);
        CounterId(self.counters.len() - 1)
    }

    /// Registers (or looks up) a gauge by name.
    pub fn gauge(&mut self, name: &str) -> GaugeId {
        if let Some(i) = self.gauge_names.iter().position(|n| n == name) {
            return GaugeId(i);
        }
        self.gauge_names.push(name.to_string());
        self.gauges.push(Gauge::new());
        GaugeId(self.gauges.len() - 1)
    }

    /// Registers (or looks up) a histogram by name.
    pub fn histogram(&mut self, name: &str) -> HistogramId {
        if let Some(i) = self.histogram_names.iter().position(|n| n == name) {
            return HistogramId(i);
        }
        self.histogram_names.push(name.to_string());
        self.histograms.push(Histogram::new());
        HistogramId(self.histograms.len() - 1)
    }

    /// Increments a counter by `n`.
    #[inline]
    pub fn inc(&mut self, id: CounterId, n: u64) {
        self.counters[id.0] += n;
    }

    /// Sets a gauge to `v`, updating its min/max envelope.
    #[inline]
    pub fn set_gauge(&mut self, id: GaugeId, v: f64) {
        let g = &mut self.gauges[id.0];
        g.last = v;
        if v.is_finite() {
            g.min = g.min.min(v);
            g.max = g.max.max(v);
        }
        g.samples += 1;
    }

    /// Records a sample into a histogram.
    #[inline]
    pub fn record(&mut self, id: HistogramId, v: f64) {
        self.histograms[id.0].record(v);
    }

    /// Looks up a counter's value by name (for tests and summaries).
    #[must_use]
    pub fn counter_by_name(&self, name: &str) -> Option<u64> {
        let i = self.counter_names.iter().position(|n| n == name)?;
        Some(self.counters[i])
    }

    /// Looks up a gauge by name.
    #[must_use]
    pub fn gauge_by_name(&self, name: &str) -> Option<&Gauge> {
        let i = self.gauge_names.iter().position(|n| n == name)?;
        Some(&self.gauges[i])
    }

    /// Looks up a histogram by name.
    #[must_use]
    pub fn histogram_by_name(&self, name: &str) -> Option<&Histogram> {
        let i = self.histogram_names.iter().position(|n| n == name)?;
        Some(&self.histograms[i])
    }

    /// Merges another registry into this one, matching metrics by name.
    ///
    /// Counters add; histograms merge bucket-wise (see
    /// [`Histogram::merge`]); gauge envelopes widen (`min`/`max`/
    /// `samples`), with `last` taken from `other` when it recorded
    /// anything — "last write wins" in merge order, the convention for
    /// shards merged oldest-first. Metrics present only in `other` are
    /// registered here first, so no data is dropped.
    pub fn merge(&mut self, other: &Registry) {
        for (name, v) in other.counters() {
            let id = self.counter(name);
            self.inc(id, v);
        }
        for (name, g) in other.gauges() {
            let id = self.gauge(name);
            let mine = &mut self.gauges[id.0];
            if g.samples > 0 {
                mine.last = g.last;
                mine.min = mine.min.min(g.min);
                mine.max = mine.max.max(g.max);
                mine.samples += g.samples;
            }
        }
        for (name, h) in other.histograms() {
            let id = self.histogram(name);
            self.histograms[id.0].merge(h);
        }
    }

    /// Overwrites a counter with an absolute value (snapshot restore).
    pub(crate) fn set_counter(&mut self, id: CounterId, v: u64) {
        self.counters[id.0] = v;
    }

    /// Overwrites a gauge's full state — including an unset `last` of
    /// NaN and the empty-envelope `±inf` sentinels that no sequence of
    /// public `set_gauge` calls can reproduce (snapshot restore).
    pub(crate) fn restore_gauge(&mut self, id: GaugeId, g: Gauge) {
        self.gauges[id.0] = g;
    }

    /// Overwrites a histogram's full state (snapshot restore).
    pub(crate) fn restore_histogram(&mut self, id: HistogramId, h: Histogram) {
        self.histograms[id.0] = h;
    }

    /// Iterates `(name, value)` over all counters in registration order.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counter_names.iter().map(String::as_str).zip(self.counters.iter().copied())
    }

    /// Iterates `(name, gauge)` over all gauges in registration order.
    pub fn gauges(&self) -> impl Iterator<Item = (&str, &Gauge)> {
        self.gauge_names.iter().map(String::as_str).zip(self.gauges.iter())
    }

    /// Iterates `(name, histogram)` over all histograms in registration order.
    pub fn histograms(&self) -> impl Iterator<Item = (&str, &Histogram)> {
        self.histogram_names.iter().map(String::as_str).zip(self.histograms.iter())
    }

    /// Renders the registry in the Prometheus text exposition format.
    ///
    /// Dots in metric names become underscores (`solver.steps_accepted`
    /// → `solver_steps_accepted`); histograms export as summaries with
    /// `quantile` labels plus `_sum`/`_count`, and gauges that never
    /// recorded a sample are omitted. Intended for scraping by the
    /// future serving workload, so the output is stable line-oriented
    /// text, deterministic in registration order.
    #[must_use]
    pub fn to_prometheus(&self) -> String {
        use std::fmt::Write as _;
        fn sanitize(name: &str) -> String {
            name.chars().map(|c| if c.is_ascii_alphanumeric() { c } else { '_' }).collect()
        }
        let mut out = String::new();
        for (name, v) in self.counters() {
            let name = sanitize(name);
            let _ = writeln!(out, "# TYPE {name} counter");
            let _ = writeln!(out, "{name} {v}");
        }
        for (name, g) in self.gauges() {
            if g.samples == 0 {
                continue;
            }
            let name = sanitize(name);
            let _ = writeln!(out, "# TYPE {name} gauge");
            let _ = writeln!(out, "{name} {}", g.last);
            let _ = writeln!(out, "{name}_min {}", g.min);
            let _ = writeln!(out, "{name}_max {}", g.max);
        }
        for (name, h) in self.histograms() {
            if h.count() == 0 {
                continue;
            }
            let name = sanitize(name);
            let _ = writeln!(out, "# TYPE {name} summary");
            for q in [0.5, 0.9, 0.99] {
                let _ = writeln!(out, "{name}{{quantile=\"{q}\"}} {}", h.quantile(q));
            }
            let _ = writeln!(out, "{name}_sum {}", h.sum());
            let _ = writeln!(out, "{name}_count {}", h.count());
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registration_dedups_by_name() {
        let mut r = Registry::new();
        let a = r.counter("x");
        let b = r.counter("x");
        assert_eq!(a, b);
        r.inc(a, 2);
        r.inc(b, 3);
        assert_eq!(r.counter_by_name("x"), Some(5));
    }

    #[test]
    fn gauge_tracks_envelope() {
        let mut r = Registry::new();
        let g = r.gauge("q");
        r.set_gauge(g, 4.0);
        r.set_gauge(g, -1.0);
        r.set_gauge(g, 2.5);
        let v = r.gauge_by_name("q").unwrap();
        assert_eq!(v.last, 2.5);
        assert_eq!(v.min, -1.0);
        assert_eq!(v.max, 4.0);
        assert_eq!(v.samples, 3);
    }

    #[test]
    fn histogram_roundtrip_through_registry() {
        let mut r = Registry::new();
        let h = r.histogram("h");
        for v in [1.0, 2.0, 3.0] {
            r.record(h, v);
        }
        assert_eq!(r.histogram_by_name("h").unwrap().count(), 3);
        assert!(r.histogram_by_name("missing").is_none());
    }

    #[test]
    fn merge_adds_counters_and_registers_missing_names() {
        let mut a = Registry::new();
        let ca = a.counter("shared");
        a.inc(ca, 5);
        let mut b = Registry::new();
        let cb = b.counter("shared");
        b.inc(cb, 7);
        let only_b = b.counter("only_in_b");
        b.inc(only_b, 3);
        a.merge(&b);
        assert_eq!(a.counter_by_name("shared"), Some(12));
        assert_eq!(a.counter_by_name("only_in_b"), Some(3));
    }

    #[test]
    fn merge_widens_gauge_envelope_with_last_write_wins() {
        let mut a = Registry::new();
        let ga = a.gauge("q");
        a.set_gauge(ga, 10.0);
        let mut b = Registry::new();
        let gb = b.gauge("q");
        b.set_gauge(gb, -2.0);
        b.set_gauge(gb, 4.0);
        a.merge(&b);
        let g = a.gauge_by_name("q").unwrap();
        assert_eq!(g.last, 4.0, "merge order is oldest-first; the shard wrote last");
        assert_eq!(g.min, -2.0);
        assert_eq!(g.max, 10.0);
        assert_eq!(g.samples, 3);
        // An unset shard gauge must not clobber `last` with NaN.
        let mut c = Registry::new();
        c.gauge("q");
        a.merge(&c);
        assert_eq!(a.gauge_by_name("q").unwrap().last, 4.0);
    }

    #[test]
    fn merge_combines_histograms_by_name() {
        let mut a = Registry::new();
        let ha = a.histogram("h");
        a.record(ha, 1.0);
        let mut b = Registry::new();
        let hb = b.histogram("h");
        b.record(hb, 2.0);
        b.record(hb, 3.0);
        a.merge(&b);
        let h = a.histogram_by_name("h").unwrap();
        assert_eq!(h.count(), 3);
        assert_eq!(h.max(), 3.0);
    }

    #[test]
    fn prometheus_export_covers_every_recorded_metric() {
        let mut r = Registry::new();
        let c = r.counter("solver.steps_accepted");
        r.inc(c, 42);
        let g = r.gauge("queue.occupancy_bits");
        r.set_gauge(g, 1.5e6);
        r.gauge("scheduler.max_pending");
        let h = r.histogram("solver.step_size_s");
        r.record(h, 1e-3);
        r.record(h, 2e-3);
        let text = r.to_prometheus();
        assert!(text.contains("# TYPE solver_steps_accepted counter\nsolver_steps_accepted 42\n"));
        assert!(text.contains("# TYPE queue_occupancy_bits gauge\nqueue_occupancy_bits 1500000\n"));
        assert!(!text.contains("scheduler_max_pending"), "unset gauge must be omitted");
        assert!(text.contains("solver_step_size_s{quantile=\"0.5\"}"));
        assert!(text.contains("solver_step_size_s_count 2\n"));
        // Every non-comment line is `name[labels] value`.
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            let mut parts = line.split(' ');
            assert!(parts.next().is_some_and(|n| !n.is_empty()), "bad line: {line}");
            assert!(
                parts.next().is_some_and(|v| v.parse::<f64>().is_ok()),
                "unparseable value: {line}"
            );
        }
    }

    #[test]
    fn iteration_preserves_registration_order() {
        let mut r = Registry::new();
        r.counter("first");
        r.counter("second");
        let names: Vec<&str> = r.counters().map(|(n, _)| n).collect();
        assert_eq!(names, ["first", "second"]);
    }
}
