//! The `dcebcn report` pipeline: turn a run's telemetry — live or
//! decoded from a JSONL trace file — into a JSON summary, SVG timelines
//! (queue/rate lanes with causal span bands and fault markers), and a
//! Prometheus-style text export.
//!
//! Rendering is pure (telemetry in, strings out) so the pipeline is
//! testable without touching the filesystem; the `report` command owns
//! the I/O.

use std::fmt::Write as _;

use plotkit::svg::COLOR_CYCLE;
use plotkit::{Series, SvgPlot};
use telemetry::{Event, SeriesKind, SpanKind, Telemetry};

/// The color used for PAUSE-episode span bands.
const PAUSE_BAND_COLOR: &str = "#d62728";
/// The color used for hybrid fast-forward epoch bands.
const HYBRID_BAND_COLOR: &str = "#2ca02c";
/// The color used for fault-injection markers.
const FAULT_MARK_COLOR: &str = "#7f7f7f";

/// The rendered artifacts of one report run.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct ReportArtifacts {
    /// Machine-readable run summary.
    pub summary_json: String,
    /// Queue-depth timeline with PAUSE span bands and fault markers.
    pub queue_svg: String,
    /// Per-flow rate (or feedback) timeline with the same span bands.
    pub rate_svg: String,
    /// Prometheus text-format metrics export.
    pub prometheus: String,
}

/// A closed (or horizon-truncated) span recovered from the trace.
#[derive(Debug, Clone, Copy, PartialEq)]
struct SpanInterval {
    t0: f64,
    t1: f64,
    kind: SpanKind,
    entity: u32,
}

/// Pairs `SpanBegin`/`SpanEnd` events by id. Spans still open at the
/// end of the trace extend to the last event's timestamp.
fn span_intervals(tel: &Telemetry) -> Vec<SpanInterval> {
    let mut open: Vec<(u64, SpanInterval)> = Vec::new();
    let mut out = Vec::new();
    let mut t_last = f64::NEG_INFINITY;
    for e in tel.trace.iter() {
        t_last = t_last.max(e.time());
        match *e {
            Event::SpanBegin { t, id, kind, entity, .. } => {
                open.push((id, SpanInterval { t0: t, t1: t, kind, entity }));
            }
            Event::SpanEnd { t, id } => {
                if let Some(pos) = open.iter().rposition(|(oid, _)| *oid == id) {
                    let (_, mut span) = open.swap_remove(pos);
                    span.t1 = t;
                    out.push(span);
                }
            }
            _ => {}
        }
    }
    for (_, mut span) in open {
        span.t1 = t_last.max(span.t0);
        out.push(span);
    }
    out.sort_by(|a, b| a.t0.total_cmp(&b.t0));
    out
}

/// Adds the PAUSE-episode bands and fault-injection markers every
/// timeline shares.
fn with_annotations(mut plot: SvgPlot, tel: &Telemetry, spans: &[SpanInterval]) -> SvgPlot {
    for s in spans.iter().filter(|s| s.kind == SpanKind::PauseEpisode) {
        plot = plot.with_band(s.t0, s.t1, PAUSE_BAND_COLOR, "PAUSE");
    }
    // Hybrid fast-forward epochs render as translucent bands too, so the
    // analytic stretches are visually distinct from packet-simulated ones.
    for s in spans.iter().filter(|s| s.kind == SpanKind::HybridEpoch) {
        plot = plot.with_band(s.t0, s.t1, HYBRID_BAND_COLOR, "FF");
    }
    for e in tel.trace.iter() {
        if let Event::FaultInjected { t, .. } = e {
            plot = plot.with_vline(*t, FAULT_MARK_COLOR);
        }
    }
    plot
}

/// The queue timeline: one lane per queue-depth series entity, falling
/// back to `QueueExtremum` scatter points when the telemetry carries no
/// series (a trace decoded from JSONL).
fn queue_plot(tel: &Telemetry, spans: &[SpanInterval]) -> SvgPlot {
    let mut plot = SvgPlot::new("queue depth", "t (s)", "q (bits)");
    let mut lanes = 0;
    for (kind, entity, series) in tel.series.iter() {
        if kind != SeriesKind::QueueDepth || series.is_empty() {
            continue;
        }
        let (xs, ys): (Vec<f64>, Vec<f64>) = series.points().iter().copied().unzip();
        let color = COLOR_CYCLE[lanes % COLOR_CYCLE.len()];
        plot = plot.with_series(Series::line(&format!("queue[{entity}]"), &xs, &ys, color));
        lanes += 1;
    }
    if lanes == 0 {
        let (mut xs, mut ys) = (Vec::new(), Vec::new());
        for e in tel.trace.iter() {
            if let Event::QueueExtremum { t, q, .. } = e {
                xs.push(*t);
                ys.push(*q);
            }
        }
        if !xs.is_empty() {
            plot = plot.with_series(Series::scatter("queue extrema", &xs, &ys, COLOR_CYCLE[0]));
        }
    }
    with_annotations(plot, tel, spans)
}

/// The rate timeline: one lane per flow-rate series entity, falling
/// back to BCN feedback values when no series is available.
fn rate_plot(tel: &Telemetry, spans: &[SpanInterval]) -> SvgPlot {
    let mut plot = SvgPlot::new("per-flow rate", "t (s)", "rate (bit/s)");
    let mut lanes = 0;
    for (kind, entity, series) in tel.series.iter() {
        if kind != SeriesKind::FlowRate || series.is_empty() {
            continue;
        }
        let (xs, ys): (Vec<f64>, Vec<f64>) = series.points().iter().copied().unzip();
        let color = COLOR_CYCLE[lanes % COLOR_CYCLE.len()];
        plot = plot.with_series(Series::line(&format!("flow[{entity}]"), &xs, &ys, color));
        lanes += 1;
    }
    if lanes == 0 {
        plot = SvgPlot::new("BCN feedback", "t (s)", "Fb");
        let (mut xs, mut ys) = (Vec::new(), Vec::new());
        for e in tel.trace.iter() {
            if let Event::BcnMessageEmitted { t, fb, .. } = e {
                xs.push(*t);
                ys.push(*fb);
            }
        }
        if !xs.is_empty() {
            plot = plot.with_series(Series::scatter("Fb", &xs, &ys, COLOR_CYCLE[1]));
        }
    }
    with_annotations(plot, tel, spans)
}

/// Escapes a string for embedding in a JSON document.
pub(crate) fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
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
    out
}

/// Renders a finite f64 as a JSON number, `null` otherwise.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// The machine-readable summary of one run's telemetry.
fn summary_json(tel: &Telemetry, scenario: &str, spans: &[SpanInterval]) -> String {
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"scenario\": \"{}\",", json_escape(scenario));
    let _ = writeln!(out, "  \"level\": \"{}\",", tel.level());

    let _ = writeln!(out, "  \"counters\": {{");
    let counters: Vec<_> = tel.metrics.counters().filter(|(_, v)| *v > 0).collect();
    for (i, (name, v)) in counters.iter().enumerate() {
        let comma = if i + 1 < counters.len() { "," } else { "" };
        let _ = writeln!(out, "    \"{}\": {v}{comma}", json_escape(name));
    }
    let _ = writeln!(out, "  }},");

    let _ = writeln!(out, "  \"histograms\": {{");
    let hists: Vec<_> = tel.metrics.histograms().filter(|(_, h)| h.count() > 0).collect();
    for (i, (name, h)) in hists.iter().enumerate() {
        let comma = if i + 1 < hists.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    \"{}\": {{\"count\": {}, \"p50\": {}, \"p90\": {}, \"p99\": {}, \"max\": {}}}{comma}",
            json_escape(name),
            h.count(),
            json_num(h.p50()),
            json_num(h.p90()),
            json_num(h.p99()),
            json_num(h.max())
        );
    }
    let _ = writeln!(out, "  }},");

    let _ = writeln!(out, "  \"series\": [");
    let series: Vec<_> = tel.series.iter().collect();
    for (i, (kind, entity, s)) in series.iter().enumerate() {
        let comma = if i + 1 < series.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"kind\": \"{}\", \"entity\": {entity}, \"points\": {}, \"offered\": {}}}{comma}",
            kind.name(),
            s.len(),
            s.offered()
        );
    }
    let _ = writeln!(out, "  ],");

    let _ = writeln!(out, "  \"spans\": [");
    for (i, s) in spans.iter().enumerate() {
        let comma = if i + 1 < spans.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"kind\": \"{}\", \"entity\": {}, \"t0\": {}, \"t1\": {}}}{comma}",
            s.kind.name(),
            s.entity,
            json_num(s.t0),
            json_num(s.t1)
        );
    }
    let _ = writeln!(out, "  ],");

    let mut by_type: Vec<(&str, u64)> = Vec::new();
    for e in tel.trace.iter() {
        let name = e.type_name();
        match by_type.iter_mut().find(|(n, _)| *n == name) {
            Some((_, c)) => *c += 1,
            None => by_type.push((name, 1)),
        }
    }
    let _ = writeln!(out, "  \"events\": {{");
    for (i, (name, c)) in by_type.iter().enumerate() {
        let comma = if i + 1 < by_type.len() { "," } else { "" };
        let _ = writeln!(out, "    \"{name}\": {c}{comma}");
    }
    let _ = writeln!(out, "  }},");
    let _ = writeln!(
        out,
        "  \"trace\": {{\"events\": {}, \"overwritten\": {}, \"open_spans\": {}}}",
        tel.trace.len(),
        tel.trace.overwritten(),
        tel.open_spans().len()
    );
    out.push_str("}\n");
    out
}

/// Renders every artifact from one telemetry shard.
#[must_use]
pub(crate) fn render(tel: &Telemetry, scenario: &str) -> ReportArtifacts {
    let spans = span_intervals(tel);
    ReportArtifacts {
        summary_json: summary_json(tel, scenario, &spans),
        queue_svg: queue_plot(tel, &spans).render(),
        rate_svg: rate_plot(tel, &spans).render(),
        prometheus: tel.metrics.to_prometheus(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use telemetry::TelemetryLevel;

    fn instrumented() -> Telemetry {
        let mut tel = Telemetry::new(TelemetryLevel::Full);
        for i in 0..20 {
            let t = f64::from(i) * 0.01;
            tel.queue_sample_entity(t, 0, 1e5 + f64::from(i) * 1e3);
            tel.series_sample(SeriesKind::FlowRate, 0, t, 2e8);
            tel.series_sample(SeriesKind::FlowRate, 1, t, 1e8);
        }
        tel.pause(0.05, 0.08, 3);
        tel.fault_injected(0.11, telemetry::FaultClass::DataLoss, 1);
        tel
    }

    #[test]
    fn artifacts_cover_series_spans_and_metrics() {
        let tel = instrumented();
        let art = render(&tel, "unit");
        assert!(art.summary_json.contains("\"scenario\": \"unit\""));
        assert!(art.summary_json.contains("\"pause_episode\""), "{}", art.summary_json);
        assert!(art.summary_json.contains("\"queue_depth\""));
        assert!(art.queue_svg.contains("polyline"), "queue lane missing");
        assert!(art.queue_svg.contains("fill-opacity"), "PAUSE band missing");
        assert!(art.queue_svg.contains("stroke-dasharray"), "fault marker missing");
        assert!(art.rate_svg.contains("flow[1]"), "rate lanes missing");
        assert!(art.prometheus.contains("# TYPE"), "prometheus export empty");
    }

    #[test]
    fn hybrid_epochs_render_as_ff_bands() {
        let mut tel = instrumented();
        tel.hybrid_epoch(0.12, 0.19, 0);
        let art = render(&tel, "hybrid");
        assert!(art.summary_json.contains("\"hybrid_epoch\""), "{}", art.summary_json);
        assert!(art.queue_svg.contains("FF"), "FF band legend missing: {}", art.queue_svg);
        assert!(art.queue_svg.contains("#2ca02c"), "FF band color missing");
    }

    #[test]
    fn trace_only_telemetry_falls_back_to_event_lanes() {
        // A shard rebuilt from a JSONL file has events but no series.
        let mut tel = Telemetry::new(TelemetryLevel::Full);
        tel.trace.push(Event::QueueExtremum { t: 0.1, q: 5e5, kind: telemetry::ExtremumKind::Max });
        tel.trace.push(Event::BcnMessageEmitted { t: 0.2, fb: -3.0, source: 1 });
        let art = render(&tel, "from-trace");
        assert!(art.queue_svg.contains("circle"), "extremum scatter missing");
        assert!(art.rate_svg.contains("Fb"), "feedback fallback missing");
    }

    #[test]
    fn open_spans_extend_to_the_trace_horizon() {
        let mut tel = Telemetry::new(TelemetryLevel::Full);
        let id = tel.span_begin(0.1, SpanKind::FlowLifetime, 0, 0);
        assert_ne!(id, 0);
        tel.frame_dropped(0.9, 0);
        let spans = span_intervals(&tel);
        assert_eq!(spans.len(), 1);
        assert!((spans[0].t1 - 0.9).abs() < 1e-12, "open span must reach the last event");
    }

    #[test]
    fn summary_json_is_parseable_shape() {
        // Cheap structural check: balanced braces/brackets and no bare
        // non-finite numbers.
        let art = render(&instrumented(), "shape");
        let j = &art.summary_json;
        assert_eq!(j.matches('{').count(), j.matches('}').count());
        assert_eq!(j.matches('[').count(), j.matches(']').count());
        assert!(!j.contains("inf") && !j.contains("NaN"), "{j}");
    }
}
