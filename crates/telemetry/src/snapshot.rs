//! Bit-exact JSONL snapshots of a whole [`Telemetry`] sink.
//!
//! The batch checkpoint layer persists each completed seed's telemetry
//! shard so a resumed run can merge *exactly* the bytes an
//! uninterrupted run would have produced. That demands more than the
//! public recording API can restore: unset gauges hold a NaN `last`,
//! empty histograms hold `±inf` envelopes, ring traces remember how
//! many events they discarded, and series carry a stride/offered pair
//! that only the full (discarded) sample stream could reproduce. This
//! codec therefore round-trips the raw internal state, using the same
//! float conventions as the event codec ([`fmt_num`]: shortest
//! round-trip representation plus `NaN`/`inf`/`-inf` tokens).
//!
//! The snapshot is a self-delimiting run of JSONL lines — a `telemetry`
//! header carrying section counts, then that many `counter`, `gauge`,
//! `histogram`, `series`, and `open_span` records followed by raw trace
//! event lines — so it embeds directly inside a larger JSONL document
//! (a checkpoint shard) without its own schema header or terminator.
//!
//! Contract: integers above 2^53 (counter values, span ids) do not
//! survive the flat codec's f64 funnel; the batch runner's span-id
//! bases stay far below that, and the decoder rejects anything bigger
//! rather than silently rounding.

use crate::histogram::BUCKET_COUNT;
use crate::jsonl::{fmt_num, parse_scalars, JsonlError, Scalar};
use crate::series::TimeSeries;
use crate::trace::EventTrace;
use crate::{event_from_jsonl, event_to_jsonl, Gauge, Histogram, SeriesKind, SpanInfo, SpanKind};
use crate::{Telemetry, TelemetryLevel};

/// Serializes the full state of a telemetry sink as a run of JSONL
/// lines (each newline-terminated, no schema header), suitable for
/// embedding in a checkpoint shard and decoding with
/// [`snapshot_from_jsonl`].
#[must_use]
pub fn snapshot_to_jsonl(tel: &Telemetry) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let n_counters = tel.metrics.counters().count();
    let n_gauges = tel.metrics.gauges().count();
    let n_histograms = tel.metrics.histograms().count();
    let n_series = tel.series.len();
    let n_spans = tel.open_spans.len();
    let n_events = tel.trace.len();
    let _ = writeln!(
        out,
        r#"{{"type":"telemetry","level":"{}","trace_capacity":{},"trace_overwritten":{},"next_span_id":{},"counters":{n_counters},"gauges":{n_gauges},"histograms":{n_histograms},"series":{n_series},"open_spans":{n_spans},"events":{n_events}}}"#,
        tel.level,
        tel.trace.capacity(),
        tel.trace.overwritten(),
        tel.next_span_id,
    );
    for (name, v) in tel.metrics.counters() {
        let _ = writeln!(out, r#"{{"type":"counter","name":"{name}","value":{v}}}"#);
    }
    for (name, g) in tel.metrics.gauges() {
        let _ = writeln!(
            out,
            r#"{{"type":"gauge","name":"{name}","last":{},"min":{},"max":{},"samples":{}}}"#,
            fmt_num(g.last),
            fmt_num(g.min),
            fmt_num(g.max),
            g.samples,
        );
    }
    for (name, h) in tel.metrics.histograms() {
        let (count, sum, min, max, nonpositive, buckets) = h.parts();
        let mut packed = String::new();
        for (idx, &n) in buckets.iter().enumerate().filter(|(_, &n)| n > 0) {
            if !packed.is_empty() {
                packed.push(',');
            }
            let _ = write!(packed, "{idx}:{n}");
        }
        let _ = writeln!(
            out,
            r#"{{"type":"histogram","name":"{name}","count":{count},"sum":{},"min":{},"max":{},"nonpositive":{nonpositive},"bucket_len":{},"buckets":"{packed}"}}"#,
            fmt_num(sum),
            fmt_num(min),
            fmt_num(max),
            buckets.len(),
        );
    }
    for (kind, entity, s) in tel.series.iter() {
        let mut packed = String::new();
        for &(t, v) in s.points() {
            if !packed.is_empty() {
                packed.push(',');
            }
            let _ = write!(packed, "{}:{}", fmt_num(t), fmt_num(v));
        }
        let _ = writeln!(
            out,
            r#"{{"type":"series","kind":"{}","entity":{entity},"capacity":{},"stride":{},"offered":{},"points":"{packed}"}}"#,
            kind.name(),
            s.capacity(),
            s.stride(),
            s.offered(),
        );
    }
    for span in &tel.open_spans {
        let _ = writeln!(
            out,
            r#"{{"type":"open_span","id":{},"parent":{},"kind":"{}","entity":{},"t_begin":{}}}"#,
            span.id,
            span.parent,
            span.kind.name(),
            span.entity,
            fmt_num(span.t_begin),
        );
    }
    for e in tel.trace.iter() {
        out.push_str(&event_to_jsonl(e));
        out.push('\n');
    }
    out
}

fn field<'a>(fields: &'a [(String, Scalar)], key: &str) -> Result<&'a Scalar, JsonlError> {
    fields
        .iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v)
        .ok_or_else(|| JsonlError(format!("missing field `{key}` in snapshot record")))
}

fn next_record<'a, I: Iterator<Item = &'a str>>(
    lines: &mut I,
    what: &str,
) -> Result<Vec<(String, Scalar)>, JsonlError> {
    let line = lines
        .next()
        .ok_or_else(|| JsonlError(format!("truncated snapshot: expected {what} record")))?;
    parse_scalars(line)
}

fn expect_type(fields: &[(String, Scalar)], want: &str) -> Result<(), JsonlError> {
    let ty = field(fields, "type")?.as_str("type")?;
    if ty == want {
        Ok(())
    } else {
        Err(JsonlError(format!("expected `{want}` snapshot record, found `{ty}`")))
    }
}

/// Parses a number token using the codec's conventions (`NaN`, `inf`,
/// `-inf`, else shortest-round-trip decimal).
fn parse_num(tok: &str, what: &str) -> Result<f64, JsonlError> {
    match tok {
        "NaN" => Ok(f64::NAN),
        "inf" => Ok(f64::INFINITY),
        "-inf" => Ok(f64::NEG_INFINITY),
        _ => tok
            .parse::<f64>()
            .map_err(|_| JsonlError(format!("bad number `{tok}` in snapshot {what}"))),
    }
}

/// Decodes a telemetry snapshot produced by [`snapshot_to_jsonl`],
/// consuming exactly the snapshot's lines from `lines` (so the caller
/// can continue reading the surrounding document).
///
/// The restored sink is bit-identical to the snapshotted one: metric
/// registration order, gauge/histogram envelopes (including the unset
/// sentinels), series stride/offered state, the trace ring with its
/// discard counter, the open-span stack, and the span-id allocator all
/// round-trip, so merging restored shards reproduces an uninterrupted
/// run's merged telemetry byte for byte.
///
/// # Errors
///
/// Fails on a truncated run, an unknown record type, or any field that
/// does not parse back (including integers above 2^53).
pub fn snapshot_from_jsonl<'a, I: Iterator<Item = &'a str>>(
    lines: &mut I,
) -> Result<Telemetry, JsonlError> {
    let header = next_record(lines, "telemetry header")?;
    expect_type(&header, "telemetry")?;
    let level: TelemetryLevel =
        field(&header, "level")?.as_str("level")?.parse().map_err(JsonlError)?;
    let capacity = field(&header, "trace_capacity")?.as_u64("trace_capacity")? as usize;
    if capacity == 0 {
        return Err(JsonlError("snapshot trace capacity must be positive".into()));
    }
    let overwritten = field(&header, "trace_overwritten")?.as_u64("trace_overwritten")?;
    let next_span_id = field(&header, "next_span_id")?.as_u64("next_span_id")?;
    let n_counters = field(&header, "counters")?.as_u64("counters")?;
    let n_gauges = field(&header, "gauges")?.as_u64("gauges")?;
    let n_histograms = field(&header, "histograms")?.as_u64("histograms")?;
    let n_series = field(&header, "series")?.as_u64("series")?;
    let n_spans = field(&header, "open_spans")?.as_u64("open_spans")?;
    let n_events = field(&header, "events")?.as_u64("events")?;

    // The ring is rebuilt at `capacity` below; building the sink with a
    // one-slot ring keeps a damaged capacity from reserving memory.
    let mut tel = Telemetry::with_trace_capacity(level, 1);
    // Registering in snapshot order reproduces the original registration
    // order exactly: the core ids laid down by the constructor are a
    // prefix of every snapshot taken by this build, and any custom
    // metrics follow in their first-use order.
    for _ in 0..n_counters {
        let rec = next_record(lines, "counter")?;
        expect_type(&rec, "counter")?;
        let name = field(&rec, "name")?.as_str("name")?.to_string();
        let v = field(&rec, "value")?.as_u64("value")?;
        let id = tel.metrics.counter(&name);
        tel.metrics.set_counter(id, v);
    }
    for _ in 0..n_gauges {
        let rec = next_record(lines, "gauge")?;
        expect_type(&rec, "gauge")?;
        let name = field(&rec, "name")?.as_str("name")?.to_string();
        let g = Gauge {
            last: field(&rec, "last")?.as_f64("last")?,
            min: field(&rec, "min")?.as_f64("min")?,
            max: field(&rec, "max")?.as_f64("max")?,
            samples: field(&rec, "samples")?.as_u64("samples")?,
        };
        let id = tel.metrics.gauge(&name);
        tel.metrics.restore_gauge(id, g);
    }
    for _ in 0..n_histograms {
        let rec = next_record(lines, "histogram")?;
        expect_type(&rec, "histogram")?;
        let name = field(&rec, "name")?.as_str("name")?.to_string();
        let bucket_len = field(&rec, "bucket_len")?.as_u64("bucket_len")? as usize;
        if bucket_len > BUCKET_COUNT {
            return Err(JsonlError(format!("histogram `{name}`: {bucket_len} buckets")));
        }
        let mut buckets = vec![0u64; bucket_len];
        let packed = field(&rec, "buckets")?.as_str("buckets")?;
        for pair in packed.split(',').filter(|p| !p.is_empty()) {
            let (idx, n) = pair
                .split_once(':')
                .ok_or_else(|| JsonlError(format!("bad bucket pair `{pair}`")))?;
            let idx: usize =
                idx.parse().map_err(|_| JsonlError(format!("bad bucket index `{idx}`")))?;
            let n: u64 = n.parse().map_err(|_| JsonlError(format!("bad bucket count `{n}`")))?;
            *buckets
                .get_mut(idx)
                .ok_or_else(|| JsonlError(format!("bucket index {idx} out of range")))? = n;
        }
        let h = Histogram::from_parts(
            field(&rec, "count")?.as_u64("count")?,
            field(&rec, "sum")?.as_f64("sum")?,
            field(&rec, "min")?.as_f64("min")?,
            field(&rec, "max")?.as_f64("max")?,
            field(&rec, "nonpositive")?.as_u64("nonpositive")?,
            buckets,
        );
        let id = tel.metrics.histogram(&name);
        tel.metrics.restore_histogram(id, h);
    }
    for _ in 0..n_series {
        let rec = next_record(lines, "series")?;
        expect_type(&rec, "series")?;
        let kind_name = field(&rec, "kind")?.as_str("kind")?;
        let kind = SeriesKind::from_name(kind_name)
            .ok_or_else(|| JsonlError(format!("unknown series kind `{kind_name}`")))?;
        let entity = field(&rec, "entity")?.as_u32("entity")?;
        let mut points = Vec::new();
        let packed = field(&rec, "points")?.as_str("points")?;
        for pair in packed.split(',').filter(|p| !p.is_empty()) {
            let (t, v) = pair
                .split_once(':')
                .ok_or_else(|| JsonlError(format!("bad series point `{pair}`")))?;
            points.push((parse_num(t, "series time")?, parse_num(v, "series value")?));
        }
        let series_capacity = field(&rec, "capacity")?.as_u64("capacity")? as usize;
        if series_capacity < 2 {
            return Err(JsonlError(format!("series capacity {series_capacity} is below 2")));
        }
        let series = TimeSeries::from_parts(
            series_capacity,
            field(&rec, "stride")?.as_u64("stride")?,
            field(&rec, "offered")?.as_u64("offered")?,
            points,
        );
        tel.series.insert(kind, entity, series);
    }
    for _ in 0..n_spans {
        let rec = next_record(lines, "open_span")?;
        expect_type(&rec, "open_span")?;
        let kind_name = field(&rec, "kind")?.as_str("kind")?;
        let kind = SpanKind::from_name(kind_name)
            .ok_or_else(|| JsonlError(format!("unknown span kind `{kind_name}`")))?;
        tel.open_spans.push(SpanInfo {
            id: field(&rec, "id")?.as_u64("id")?,
            parent: field(&rec, "parent")?.as_u64("parent")?,
            kind,
            entity: field(&rec, "entity")?.as_u32("entity")?,
            t_begin: field(&rec, "t_begin")?.as_f64("t_begin")?,
        });
    }
    let mut trace = EventTrace::with_capacity(capacity);
    for _ in 0..n_events {
        let line = lines
            .next()
            .ok_or_else(|| JsonlError("truncated snapshot: expected trace event".into()))?;
        trace.push(event_from_jsonl(line)?);
    }
    trace.set_overwritten(overwritten);
    tel.trace = trace;
    tel.next_span_id = next_span_id;
    Ok(tel)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ExtremumKind;

    /// A sink with every kind of state populated: counters, an unset
    /// and a set gauge, histograms, series past their first decimation,
    /// a wrapped trace ring, custom metrics, and an open span.
    fn busy_sink() -> Telemetry {
        let mut tel = Telemetry::with_trace_capacity(TelemetryLevel::Full, 32);
        tel.set_span_id_base((7 + 1) << 32);
        let seed_span = tel.span_begin(0.0, SpanKind::BatchSeed, 7, 0);
        let _ = seed_span;
        for i in 0..600u32 {
            let t = f64::from(i) * 1e-4;
            tel.step_accepted(t, 1e-4, 0.3);
            tel.queue_sample(t, f64::from(i % 97) * 1e4);
            if i % 5 == 0 {
                tel.bcn_message(t, -f64::from(i % 11), i % 3);
            }
        }
        tel.pause(0.07, 0.08, 2);
        tel.queue_extremum(0.09, 1.5e6, ExtremumKind::Max);
        tel.fault_injected(0.095, crate::FaultClass::FeedbackDrop, 1);
        let custom = tel.metrics.counter("custom.widgets");
        tel.metrics.inc(custom, 41);
        tel
    }

    #[test]
    fn snapshot_round_trips_bit_exactly() {
        let tel = busy_sink();
        let doc = snapshot_to_jsonl(&tel);
        let restored = snapshot_from_jsonl(&mut doc.lines()).expect("decode");
        // Telemetry derives PartialEq but NaN gauge fields poison direct
        // comparison; compare every rendered form instead, which is what
        // downstream consumers (merge, reports) actually see.
        assert_eq!(snapshot_to_jsonl(&restored), doc, "re-snapshot differs");
        assert_eq!(restored.trace_to_jsonl(), tel.trace_to_jsonl());
        assert_eq!(restored.metrics.to_prometheus(), tel.metrics.to_prometheus());
        assert_eq!(restored.level(), tel.level());
        assert_eq!(restored.open_spans(), tel.open_spans());
        assert_eq!(restored.trace.overwritten(), tel.trace.overwritten());
        assert_eq!(restored.trace.capacity(), tel.trace.capacity());
        // Registration order survives (merge identity depends on it).
        let a: Vec<_> = tel.metrics.counters().map(|(n, _)| n.to_string()).collect();
        let b: Vec<_> = restored.metrics.counters().map(|(n, _)| n.to_string()).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn span_id_allocation_continues_identically_after_restore() {
        let mut tel = busy_sink();
        let doc = snapshot_to_jsonl(&tel);
        let mut restored = snapshot_from_jsonl(&mut doc.lines()).expect("decode");
        let a = tel.span_begin(0.5, SpanKind::FlowLifetime, 1, tel.root_span());
        let b = restored.span_begin(0.5, SpanKind::FlowLifetime, 1, restored.root_span());
        assert_eq!(a, b, "span-id allocator state must survive the round trip");
    }

    #[test]
    fn merging_restored_shards_equals_merging_originals() {
        let shard_a = busy_sink();
        let mut shard_b = Telemetry::with_trace_capacity(TelemetryLevel::Full, 32);
        shard_b.set_span_id_base((8 + 1) << 32);
        for i in 0..50u32 {
            shard_b.step_accepted(f64::from(i) * 2e-4, 2e-4, 0.1);
        }
        let mut direct = Telemetry::new(TelemetryLevel::Full);
        direct.merge(&shard_a);
        direct.merge(&shard_b);
        let ra = snapshot_from_jsonl(&mut snapshot_to_jsonl(&shard_a).lines()).unwrap();
        let rb = snapshot_from_jsonl(&mut snapshot_to_jsonl(&shard_b).lines()).unwrap();
        let mut via_snapshot = Telemetry::new(TelemetryLevel::Full);
        via_snapshot.merge(&ra);
        via_snapshot.merge(&rb);
        assert_eq!(snapshot_to_jsonl(&via_snapshot), snapshot_to_jsonl(&direct));
        assert_eq!(via_snapshot.trace_to_jsonl(), direct.trace_to_jsonl());
    }

    #[test]
    fn fresh_sink_with_nan_gauges_round_trips() {
        // An untouched sink has NaN gauge `last` values and ±inf
        // histogram envelopes — exactly the states the public API can't
        // restore. The raw codec must carry them.
        for level in [TelemetryLevel::Off, TelemetryLevel::Summary, TelemetryLevel::Full] {
            let tel = Telemetry::new(level);
            let doc = snapshot_to_jsonl(&tel);
            let restored = snapshot_from_jsonl(&mut doc.lines()).expect("decode");
            assert_eq!(snapshot_to_jsonl(&restored), doc, "level {level}");
            assert_eq!(restored.level(), level);
        }
    }

    #[test]
    fn decoder_consumes_exactly_the_snapshot_lines() {
        let tel = busy_sink();
        let mut doc = snapshot_to_jsonl(&tel);
        doc.push_str("{\"type\":\"trailer\",\"x\":1}\n");
        let mut lines = doc.lines();
        let _ = snapshot_from_jsonl(&mut lines).expect("decode");
        assert_eq!(lines.next(), Some("{\"type\":\"trailer\",\"x\":1}"));
    }

    #[test]
    fn truncated_and_malformed_snapshots_are_rejected() {
        let tel = busy_sink();
        let doc = snapshot_to_jsonl(&tel);
        // Truncations at every record boundary must error, not panic.
        let total = doc.lines().count();
        for keep in [0, 1, total / 2, total - 1] {
            let partial: Vec<&str> = doc.lines().take(keep).collect();
            assert!(
                snapshot_from_jsonl(&mut partial.clone().into_iter()).is_err(),
                "accepted truncation at {keep}/{total}"
            );
        }
        // A non-snapshot first record is rejected.
        let mut lines = std::iter::once(r#"{"type":"schema","version":2}"#);
        assert!(snapshot_from_jsonl(&mut lines).is_err());
        // Sizes no sink can have are rejected before anything is built
        // or allocated from them.
        for (key, v) in [
            (r#""trace_capacity":"#, "0"),
            (r#""bucket_len":"#, "9007199254740992"),
            (r#""capacity":"#, "1"),
        ] {
            let at = doc.find(key).expect("field present") + key.len();
            let end = at + doc[at..].find(|c: char| !c.is_ascii_digit()).expect("digits end");
            let bad = format!("{}{v}{}", &doc[..at], &doc[end..]);
            assert!(snapshot_from_jsonl(&mut bad.lines()).is_err(), "accepted {key}{v}");
        }
    }
}
