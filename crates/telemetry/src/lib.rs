//! Zero-dependency observability layer for the DCE-BCN workspace.
//!
//! Three pieces, all allocation-light and cheap enough for solver and
//! simulator hot loops:
//!
//! * a [`Registry`] of named counters, gauges, and log-linear
//!   [`Histogram`]s (p50/p90/p99/max at ~4.4% relative resolution);
//! * a bounded ring-buffer [`EventTrace`] of typed [`Event`]s with
//!   monotonic sim-time stamps;
//! * JSONL export ([`event_to_jsonl`]/[`event_from_jsonl`]) so traces
//!   can be dumped, diffed, and parsed back losslessly.
//!
//! The [`Telemetry`] facade bundles them behind a [`TelemetryLevel`]:
//! `Off` turns every hook into a single branch, `Summary` keeps only
//! aggregates, `Full` also records the event trace. Instrumented code
//! threads an `Option<&mut Telemetry>` so the disabled path stays a
//! near-no-op:
//!
//! ```
//! use telemetry::{Telemetry, TelemetryLevel};
//!
//! let mut tel = Telemetry::new(TelemetryLevel::Full);
//! tel.step_accepted(0.1, 1e-3, 0.4);
//! tel.region_switch(0.2, 0, 1);
//! assert_eq!(tel.metrics.counter_by_name("hybrid.region_switches"), Some(1));
//! assert_eq!(tel.trace.len(), 2);
//! ```

#![forbid(unsafe_code)]
#![warn(unreachable_pub)]
#![warn(missing_docs)]

mod event;
mod histogram;
mod jsonl;
mod level;
mod logging;
mod metrics;
mod series;
mod snapshot;
mod trace;

pub use event::{Event, ExtremumKind, FaultClass, SpanKind};
pub use histogram::Histogram;
pub use jsonl::{
    check_schema_header, event_from_jsonl, event_to_jsonl, fmt_num, next_record, schema_header,
    FmtNum, JsonlError, Record, Scalar, TRACE_SCHEMA_VERSION,
};
pub use level::TelemetryLevel;
pub use logging::{quiet, set_quiet};
pub use metrics::{CounterId, Gauge, GaugeId, HistogramId, Registry};
pub use series::{SeriesBank, SeriesKind, TimeSeries, SERIES_CAPACITY};
pub use snapshot::{snapshot_from_jsonl, snapshot_to_jsonl};
pub use trace::{EventTrace, DEFAULT_TRACE_CAPACITY};

/// An open (begun but not yet ended) causal span.
///
/// The stack of open spans at a crash is the flight recorder's "span
/// stack": it names the batch seed, the flows still active, and any
/// scope that was in progress when the panic unwound.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpanInfo {
    /// Trace-unique span id (never 0).
    pub id: u64,
    /// Id of the enclosing span, or 0 for a root span.
    pub parent: u64,
    /// What activity the span covers.
    pub kind: SpanKind,
    /// The entity the span is about (flow, port, mode, or seed).
    pub entity: u32,
    /// When the span was opened (sim seconds).
    pub t_begin: f64,
}

/// Pre-registered handles for the core instrumentation points, so hot
/// loops never pay a name lookup.
#[derive(Debug, Clone, PartialEq)]
struct CoreIds {
    steps_accepted: CounterId,
    steps_rejected: CounterId,
    events_located: CounterId,
    region_switches: CounterId,
    queue_threshold_crossings: CounterId,
    queue_extrema: CounterId,
    bcn_messages: CounterId,
    qcn_messages: CounterId,
    pause_events: CounterId,
    frames_dropped: CounterId,
    faults: [CounterId; FaultClass::ALL.len()],
    spans: CounterId,
    cache_hits: CounterId,
    cache_misses: CounterId,
    cache_evictions: CounterId,
    query_batches: CounterId,
    query_queries: CounterId,
    sched_scheduled: CounterId,
    sched_popped: CounterId,
    sched_cascades: CounterId,
    sched_overflow: CounterId,
    batch_resumed: CounterId,
    batch_retried: CounterId,
    batch_timed_out: CounterId,
    hybrid_epochs: CounterId,
    hybrid_reseeds: CounterId,
    hybrid_ff_ns: CounterId,
    hybrid_packet_ns: CounterId,
    step_size: HistogramId,
    step_error: HistogramId,
    event_iters: HistogramId,
    queue_occupancy: HistogramId,
    fb_value: HistogramId,
    query_batch_qps: HistogramId,
    queue_gauge: GaugeId,
    sched_max_pending: GaugeId,
}

/// The facade instrumented code records into.
///
/// Construct with a [`TelemetryLevel`]; pass as `Option<&mut Telemetry>`
/// (use `None` or level `Off` to disable). The `metrics` registry and
/// `trace` ring are public for custom metrics and post-run inspection.
#[derive(Debug, Clone, PartialEq)]
pub struct Telemetry {
    level: TelemetryLevel,
    /// The metrics registry (public for custom metrics and summaries).
    pub metrics: Registry,
    /// The bounded event trace (populated only at level `Full`).
    pub trace: EventTrace,
    /// Per-entity downsampled time series (populated from `Summary` up).
    pub series: SeriesBank,
    ids: CoreIds,
    open_spans: Vec<SpanInfo>,
    next_span_id: u64,
}

impl Telemetry {
    /// Creates a telemetry sink at the given level with the default
    /// trace capacity.
    #[must_use]
    pub fn new(level: TelemetryLevel) -> Self {
        Self::with_trace_capacity(level, DEFAULT_TRACE_CAPACITY)
    }

    /// Creates a telemetry sink with an explicit trace capacity.
    #[must_use]
    pub fn with_trace_capacity(level: TelemetryLevel, capacity: usize) -> Self {
        let mut metrics = Registry::new();
        let ids = CoreIds {
            steps_accepted: metrics.counter("solver.steps_accepted"),
            steps_rejected: metrics.counter("solver.steps_rejected"),
            events_located: metrics.counter("solver.events_located"),
            region_switches: metrics.counter("hybrid.region_switches"),
            queue_threshold_crossings: metrics.counter("queue.threshold_crossings"),
            queue_extrema: metrics.counter("queue.extrema"),
            bcn_messages: metrics.counter("sim.bcn_messages"),
            qcn_messages: metrics.counter("sim.qcn_messages"),
            pause_events: metrics.counter("sim.pause_events"),
            frames_dropped: metrics.counter("sim.frames_dropped"),
            faults: FaultClass::ALL.map(|c| metrics.counter(&format!("faults.{}", c.name()))),
            spans: metrics.counter("trace.spans"),
            cache_hits: metrics.counter("propagator.cache.hits"),
            cache_misses: metrics.counter("propagator.cache.misses"),
            cache_evictions: metrics.counter("propagator.cache.evictions"),
            query_batches: metrics.counter("query.batches"),
            query_queries: metrics.counter("query.queries"),
            sched_scheduled: metrics.counter("scheduler.events_scheduled"),
            sched_popped: metrics.counter("scheduler.events_popped"),
            sched_cascades: metrics.counter("scheduler.cascades"),
            sched_overflow: metrics.counter("scheduler.overflow_parked"),
            batch_resumed: metrics.counter("batch.resumed"),
            batch_retried: metrics.counter("batch.retried"),
            batch_timed_out: metrics.counter("batch.timed_out"),
            hybrid_epochs: metrics.counter("hybrid.epochs"),
            hybrid_reseeds: metrics.counter("hybrid.reseeds"),
            hybrid_ff_ns: metrics.counter("hybrid.ff_ns"),
            hybrid_packet_ns: metrics.counter("hybrid.packet_ns"),
            step_size: metrics.histogram("solver.step_size_s"),
            step_error: metrics.histogram("solver.step_error"),
            event_iters: metrics.histogram("solver.event_location_iters"),
            queue_occupancy: metrics.histogram("queue.occupancy_bits"),
            fb_value: metrics.histogram("sim.fb_value"),
            query_batch_qps: metrics.histogram("query.batch_qps"),
            queue_gauge: metrics.gauge("queue.occupancy_bits"),
            sched_max_pending: metrics.gauge("scheduler.max_pending"),
        };
        let mut trace = EventTrace::with_capacity(capacity);
        if level.traces() {
            // Trace-level sinks feed solver/simulator hot loops; growth
            // reallocations mid-run are measurable there (the default
            // ring is ~2.5 MB — cheap for a sink that exists to record
            // a full trace), so pre-allocate the whole ring.
            trace.reserve(capacity);
        }
        Self {
            level,
            metrics,
            trace,
            series: SeriesBank::new(),
            ids,
            open_spans: Vec::new(),
            next_span_id: 0,
        }
    }

    /// Sets the base from which subsequent span ids are allocated (the
    /// next span gets `base + 1`).
    ///
    /// The batch runner gives each seed the base `(seed + 1) << 32` so
    /// span ids are unique and deterministic across merged shards at
    /// any thread count. Bases must stay below 2^53 so ids survive the
    /// JSONL float codec.
    pub fn set_span_id_base(&mut self, base: u64) {
        self.next_span_id = base;
    }

    #[inline]
    fn alloc_span_id(&mut self) -> u64 {
        self.next_span_id += 1;
        self.next_span_id
    }

    /// The id of the outermost open span, or 0 when none is open.
    ///
    /// Instrumented code uses this as the default `parent` so activity
    /// attributes to the enclosing scope (e.g. the batch seed).
    #[must_use]
    pub fn root_span(&self) -> u64 {
        self.open_spans.first().map_or(0, |s| s.id)
    }

    /// Opens a causal span of `kind` about `entity` at time `t`, nested
    /// under `parent` (0 for a root span). Returns the span id, or 0
    /// when collection is disabled (safe to pass to [`span_end`]).
    ///
    /// The open-span stack is maintained from `Summary` up; the
    /// [`Event::SpanBegin`] trace record is kept only at `Full`.
    ///
    /// [`span_end`]: Telemetry::span_end
    pub fn span_begin(&mut self, t: f64, kind: SpanKind, entity: u32, parent: u64) -> u64 {
        if !self.enabled() {
            return 0;
        }
        let id = self.alloc_span_id();
        self.metrics.inc(self.ids.spans, 1);
        self.open_spans.push(SpanInfo { id, parent, kind, entity, t_begin: t });
        self.push(Event::SpanBegin { t, id, parent, kind, entity });
        id
    }

    /// Closes span `id` at time `t`. A no-op for id 0 or when
    /// collection is disabled.
    pub fn span_end(&mut self, t: f64, id: u64) {
        if !self.enabled() || id == 0 {
            return;
        }
        if let Some(pos) = self.open_spans.iter().rposition(|s| s.id == id) {
            self.open_spans.remove(pos);
        }
        self.push(Event::SpanEnd { t, id });
    }

    /// The currently open spans, outermost first (the crash flight
    /// recorder's span stack).
    #[must_use]
    pub fn open_spans(&self) -> &[SpanInfo] {
        &self.open_spans
    }

    /// The configured collection level.
    #[must_use]
    pub fn level(&self) -> TelemetryLevel {
        self.level
    }

    /// Whether any collection is enabled.
    #[inline]
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.level.enabled()
    }

    #[inline]
    fn push(&mut self, e: Event) {
        if self.level.traces() {
            self.trace.push(e);
        }
    }

    /// Records an accepted solver step of size `h` ending at time `t`
    /// with scaled error-norm estimate `err` (NaN for fixed-step
    /// methods).
    #[inline]
    pub fn step_accepted(&mut self, t: f64, h: f64, err: f64) {
        if !self.enabled() {
            return;
        }
        self.metrics.inc(self.ids.steps_accepted, 1);
        self.metrics.record(self.ids.step_size, h);
        if err.is_finite() {
            self.metrics.record(self.ids.step_error, err);
        }
        self.push(Event::SolverStepAccepted { t, h, err });
    }

    /// Records `n` rejected trial steps at time `t`, the last of size `h`.
    #[inline]
    pub fn steps_rejected(&mut self, t: f64, h: f64, n: u32) {
        if !self.enabled() || n == 0 {
            return;
        }
        self.metrics.inc(self.ids.steps_rejected, u64::from(n));
        self.push(Event::SolverStepRejected { t, h });
    }

    /// Records a located switching-surface crossing at `t` after
    /// `iterations` bisection iterations.
    #[inline]
    pub fn event_located(&mut self, t: f64, iterations: u32) {
        if !self.enabled() {
            return;
        }
        self.metrics.inc(self.ids.events_located, 1);
        self.metrics.record(self.ids.event_iters, f64::from(iterations));
        self.push(Event::SwitchCrossingLocated { t, iterations });
    }

    /// Records a hybrid-system region switch at `t`.
    #[inline]
    pub fn region_switch(&mut self, t: f64, from: u32, to: u32) {
        if !self.enabled() {
            return;
        }
        self.metrics.inc(self.ids.region_switches, 1);
        self.push(Event::RegionSwitch { t, from, to });
    }

    /// Samples the queue occupancy `q` (bits) at time `t` into the
    /// gauge, histogram, and the entity-0 queue-depth series.
    #[inline]
    pub fn queue_sample(&mut self, t: f64, q: f64) {
        if !self.enabled() {
            return;
        }
        self.metrics.set_gauge(self.ids.queue_gauge, q);
        self.metrics.record(self.ids.queue_occupancy, q);
        self.series.record(SeriesKind::QueueDepth, 0, t, q);
    }

    /// Samples queue occupancy for a specific switch/queue `entity`
    /// (multi-hop engine): histogram plus the per-entity series, no
    /// single-queue gauge.
    #[inline]
    pub fn queue_sample_entity(&mut self, t: f64, entity: u32, q: f64) {
        if !self.enabled() {
            return;
        }
        self.metrics.record(self.ids.queue_occupancy, q);
        self.series.record(SeriesKind::QueueDepth, entity, t, q);
    }

    /// Records a per-entity time-series sample (e.g. a flow's send
    /// rate) without touching any counter or histogram.
    #[inline]
    pub fn series_sample(&mut self, kind: SeriesKind, entity: u32, t: f64, v: f64) {
        if !self.enabled() {
            return;
        }
        self.series.record(kind, entity, t, v);
    }

    /// Records the queue crossing `threshold` at time `t`.
    #[inline]
    pub fn queue_threshold(&mut self, t: f64, q: f64, threshold: f64, rising: bool) {
        if !self.enabled() {
            return;
        }
        self.metrics.inc(self.ids.queue_threshold_crossings, 1);
        self.push(Event::QueueThresholdCrossed { t, q, threshold, rising });
    }

    /// Records a local queue extremum at time `t`.
    #[inline]
    pub fn queue_extremum(&mut self, t: f64, q: f64, kind: ExtremumKind) {
        if !self.enabled() {
            return;
        }
        self.metrics.inc(self.ids.queue_extrema, 1);
        self.push(Event::QueueExtremum { t, q, kind });
    }

    /// Records a BCN feedback message with value `fb` sent to `source`.
    #[inline]
    pub fn bcn_message(&mut self, t: f64, fb: f64, source: u32) {
        if !self.enabled() {
            return;
        }
        self.metrics.inc(self.ids.bcn_messages, 1);
        self.metrics.record(self.ids.fb_value, fb.abs());
        self.series.record(SeriesKind::Fb, source, t, fb);
        self.push(Event::BcnMessageEmitted { t, fb, source });
    }

    /// Records a QCN feedback message with value `fb` sent to `source`.
    #[inline]
    pub fn qcn_message(&mut self, t: f64, fb: f64, source: u32) {
        if !self.enabled() {
            return;
        }
        self.metrics.inc(self.ids.qcn_messages, 1);
        self.metrics.record(self.ids.fb_value, fb.abs());
        self.series.record(SeriesKind::Fb, source, t, fb);
        self.push(Event::QcnMessageEmitted { t, fb, source });
    }

    /// Records a PAUSE taking effect at `port` from time `t` until
    /// `until` (the deassert event is emitted eagerly, stamped `until`).
    ///
    /// The episode is also wrapped in a `PauseEpisode` span (begin and
    /// end emitted eagerly, parented to the outermost open span) so a
    /// PAUSE storm renders as bands in a causal tree rather than
    /// interleaved points.
    #[inline]
    pub fn pause(&mut self, t: f64, until: f64, port: u32) {
        if !self.enabled() {
            return;
        }
        self.metrics.inc(self.ids.pause_events, 1);
        self.metrics.inc(self.ids.spans, 1);
        let parent = self.root_span();
        let id = self.alloc_span_id();
        self.push(Event::SpanBegin { t, id, parent, kind: SpanKind::PauseEpisode, entity: port });
        self.push(Event::PauseAsserted { t, port });
        self.push(Event::PauseDeasserted { t: until, port });
        self.push(Event::SpanEnd { t: until, id });
    }

    /// Records a frame dropped at `port` at time `t`.
    #[inline]
    pub fn frame_dropped(&mut self, t: f64, port: u32) {
        if !self.enabled() {
            return;
        }
        self.metrics.inc(self.ids.frames_dropped, 1);
        self.push(Event::FrameDropped { t, port });
    }

    /// Records an injected fault of `class` hitting `target` at time `t`
    /// (per-class counters `faults.<class>` plus a trace event).
    #[inline]
    pub fn fault_injected(&mut self, t: f64, class: FaultClass, target: u32) {
        if !self.enabled() {
            return;
        }
        self.metrics.inc(self.ids.faults[class.index()], 1);
        self.push(Event::FaultInjected { t, class, target });
    }

    /// Folds a delta of the process-global stability-answer memo's
    /// counters into the `propagator.cache.{hits,misses,evictions}`
    /// metrics (the names predate the memo's move from propagators to
    /// answers), so memo efficacy (and CLOCK churn past its capacity)
    /// shows up in reports.
    ///
    /// Callers snapshot `bcn::query::cache_stats()` around a query run
    /// and pass the difference; batch workers must not call this (the
    /// global counters race across worker threads and would break
    /// bit-identical merges).
    #[inline]
    pub fn propagator_cache(&mut self, hits: u64, misses: u64, evictions: u64) {
        if !self.enabled() {
            return;
        }
        self.metrics.inc(self.ids.cache_hits, hits);
        self.metrics.inc(self.ids.cache_misses, misses);
        self.metrics.inc(self.ids.cache_evictions, evictions);
    }

    /// Records one batched stability-query run: the `query.*` counters
    /// plus a sample of the batch's achieved queries-per-second in the
    /// `query.batch_qps` histogram.
    ///
    /// Flushed once per batch (never per query); pair with
    /// [`Telemetry::propagator_cache`] to attribute the cache traffic
    /// the batch generated.
    #[inline]
    pub fn query_stats(&mut self, batches: u64, queries: u64, batch_qps: f64) {
        if !self.enabled() {
            return;
        }
        self.metrics.inc(self.ids.query_batches, batches);
        self.metrics.inc(self.ids.query_queries, queries);
        self.metrics.record(self.ids.query_batch_qps, batch_qps);
    }

    /// Records one simulation run's event-scheduler activity
    /// (`scheduler.*` counters plus the pending-event high-water mark).
    ///
    /// Flushed once when a run finalizes, never on the hot path. Note
    /// that `cascades` and `overflow_parked` are implementation detail
    /// of the timing-wheel backend and legitimately differ between
    /// schedulers even for bit-identical runs; equivalence checks must
    /// compare the simulation counters, not `scheduler.*`.
    #[inline]
    pub fn scheduler_stats(
        &mut self,
        scheduled: u64,
        popped: u64,
        cascades: u64,
        overflow_parked: u64,
        max_pending: u64,
    ) {
        if !self.enabled() {
            return;
        }
        self.metrics.inc(self.ids.sched_scheduled, scheduled);
        self.metrics.inc(self.ids.sched_popped, popped);
        self.metrics.inc(self.ids.sched_cascades, cascades);
        self.metrics.inc(self.ids.sched_overflow, overflow_parked);
        self.metrics.set_gauge(self.ids.sched_max_pending, max_pending as f64);
    }

    /// Records one fluid fast-forward epoch of the hybrid co-simulation
    /// engine covering `[t0, t1)` (sim seconds): a `HybridEpoch` span
    /// (begin and end emitted eagerly, like PAUSE episodes, since the
    /// epoch's extent is known when it commits) parented to the
    /// outermost open span, plus the `hybrid.epochs` counter. `entity`
    /// is the epoch's ordinal within the run.
    #[inline]
    pub fn hybrid_epoch(&mut self, t0: f64, t1: f64, entity: u32) {
        if !self.enabled() {
            return;
        }
        self.metrics.inc(self.ids.hybrid_epochs, 1);
        self.metrics.inc(self.ids.spans, 1);
        let parent = self.root_span();
        let id = self.alloc_span_id();
        self.push(Event::SpanBegin { t: t0, id, parent, kind: SpanKind::HybridEpoch, entity });
        self.push(Event::SpanEnd { t: t1, id });
    }

    /// Records one hybrid run's epoch accounting: packet→fluid reseeds
    /// (`hybrid.reseeds`) and the split of simulated time between the
    /// fluid fast-forward path (`hybrid.ff_ns`) and the packet engine
    /// (`hybrid.packet_ns`), both in simulated nanoseconds.
    ///
    /// Flushed once when a hybrid run finishes, never on the hot path.
    #[inline]
    pub fn hybrid_stats(&mut self, reseeds: u64, ff_ns: u64, packet_ns: u64) {
        if !self.enabled() {
            return;
        }
        self.metrics.inc(self.ids.hybrid_reseeds, reseeds);
        self.metrics.inc(self.ids.hybrid_ff_ns, ff_ns);
        self.metrics.inc(self.ids.hybrid_packet_ns, packet_ns);
    }

    /// Records why a hybrid run's fast-forward attempts were refused:
    /// one `hybrid.refused.<reason>` counter per `(reason, count)`,
    /// registered on first use (zero counts too, so a run reports every
    /// reason its engine has).
    ///
    /// Flushed once when a hybrid run finishes, never on the hot path.
    pub fn hybrid_refusals(&mut self, refusals: &[(&str, u64)]) {
        if !self.enabled() {
            return;
        }
        for &(reason, n) in refusals {
            let id = self.metrics.counter(&format!("hybrid.refused.{reason}"));
            self.metrics.inc(id, n);
        }
    }

    /// Records batch-supervision activity: seeds skipped because a
    /// checkpoint already held their outcome (`batch.resumed`), retry
    /// attempts spent on failing seeds (`batch.retried`), and seeds the
    /// watchdog demoted (`batch.timed_out`).
    ///
    /// `retried`/`timed_out` are deterministic facts of the batch and
    /// are folded into the merged aggregate by the runner; `resumed` is
    /// a property of *this* process's execution and is bumped by the
    /// CLI into its rendering copy only, so a resumed run's merged
    /// artifact stays byte-identical to an uninterrupted one.
    #[inline]
    pub fn batch_supervision(&mut self, resumed: u64, retried: u64, timed_out: u64) {
        if !self.enabled() {
            return;
        }
        self.metrics.inc(self.ids.batch_resumed, resumed);
        self.metrics.inc(self.ids.batch_retried, retried);
        self.metrics.inc(self.ids.batch_timed_out, timed_out);
    }

    /// Merges a worker shard into this sink.
    ///
    /// Counters add, gauge envelopes widen (`last` taken from the shard
    /// when it recorded anything — merge shards oldest-first), and
    /// histogram buckets add exactly, so p50/p90/p99 summaries are
    /// identical to what single-sink recording would have produced. The
    /// event traces are re-interleaved by sim-time (stable, this sink
    /// first at ties). The collection level stays this sink's; merging
    /// is pure data transfer and never changes what future hooks record.
    ///
    /// This is the aggregation half of the workspace's parallel-sweep
    /// telemetry: each worker records into its own `Telemetry` with no
    /// locks on the hot path, and the coordinator folds the shards
    /// together afterwards.
    pub fn merge(&mut self, other: &Telemetry) {
        self.metrics.merge(&other.metrics);
        self.trace.merge_by_time(&other.trace);
        self.series.merge(&other.series);
    }

    /// Serializes the event trace to JSONL: a schema header line
    /// followed by one event per line (oldest first), with a trailing
    /// newline.
    #[must_use]
    pub fn trace_to_jsonl(&self) -> String {
        let mut out = schema_header();
        out.push('\n');
        for e in self.trace.iter() {
            out.push_str(&event_to_jsonl(e));
            out.push('\n');
        }
        out
    }
}

impl Default for Telemetry {
    /// An `Off` sink: every hook short-circuits.
    fn default() -> Self {
        Self::new(TelemetryLevel::Off)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_level_records_nothing() {
        let mut tel = Telemetry::new(TelemetryLevel::Off);
        tel.step_accepted(0.1, 1e-3, 0.5);
        tel.region_switch(0.2, 0, 1);
        tel.frame_dropped(0.3, 1);
        assert_eq!(tel.metrics.counter_by_name("solver.steps_accepted"), Some(0));
        assert_eq!(tel.metrics.counter_by_name("hybrid.region_switches"), Some(0));
        assert!(tel.trace.is_empty());
    }

    #[test]
    fn summary_level_records_metrics_but_no_trace() {
        let mut tel = Telemetry::new(TelemetryLevel::Summary);
        tel.step_accepted(0.1, 1e-3, 0.5);
        tel.steps_rejected(0.1, 5e-4, 2);
        assert_eq!(tel.metrics.counter_by_name("solver.steps_accepted"), Some(1));
        assert_eq!(tel.metrics.counter_by_name("solver.steps_rejected"), Some(2));
        assert_eq!(tel.metrics.histogram_by_name("solver.step_size_s").unwrap().count(), 1);
        assert!(tel.trace.is_empty());
    }

    #[test]
    fn full_level_records_trace_in_order() {
        let mut tel = Telemetry::new(TelemetryLevel::Full);
        tel.step_accepted(0.1, 1e-3, 0.5);
        tel.event_located(0.15, 12);
        tel.region_switch(0.15, 1, 0);
        tel.queue_extremum(0.2, 1e6, ExtremumKind::Max);
        tel.pause(0.3, 0.4, 2);
        let kinds: Vec<&str> = tel.trace.iter().map(Event::type_name).collect();
        assert_eq!(
            kinds,
            [
                "solver_step_accepted",
                "switch_crossing_located",
                "region_switch",
                "queue_extremum",
                "span_begin",
                "pause_asserted",
                "pause_deasserted",
                "span_end",
            ]
        );
        let jsonl = tel.trace_to_jsonl();
        assert_eq!(jsonl.lines().count(), 1 + 8);
        let mut lines = jsonl.lines();
        check_schema_header(lines.next().unwrap()).unwrap();
        for line in lines {
            event_from_jsonl(line).unwrap();
        }
    }

    #[test]
    fn spans_nest_and_track_the_open_stack() {
        let mut tel = Telemetry::new(TelemetryLevel::Full);
        let seed = tel.span_begin(0.0, SpanKind::BatchSeed, 7, 0);
        assert_ne!(seed, 0);
        assert_eq!(tel.root_span(), seed);
        let flow = tel.span_begin(0.1, SpanKind::FlowLifetime, 2, tel.root_span());
        assert_eq!(tel.open_spans().len(), 2);
        assert_eq!(tel.open_spans()[1].parent, seed);
        tel.span_end(0.5, flow);
        assert_eq!(tel.open_spans().len(), 1);
        tel.span_end(1.0, seed);
        assert!(tel.open_spans().is_empty());
        assert_eq!(tel.metrics.counter_by_name("trace.spans"), Some(2));
        let kinds: Vec<&str> = tel.trace.iter().map(Event::type_name).collect();
        assert_eq!(kinds, ["span_begin", "span_begin", "span_end", "span_end"]);
    }

    #[test]
    fn span_ids_follow_the_configured_base() {
        let mut tel = Telemetry::new(TelemetryLevel::Summary);
        tel.set_span_id_base((7 + 1) << 32);
        let id = tel.span_begin(0.0, SpanKind::BatchSeed, 7, 0);
        assert_eq!(id, ((7 + 1) << 32) + 1);
        // Summary keeps the stack but not the trace.
        assert_eq!(tel.open_spans().len(), 1);
        assert!(tel.trace.is_empty());
    }

    #[test]
    fn disabled_spans_are_free_and_id_zero_is_inert() {
        let mut tel = Telemetry::new(TelemetryLevel::Off);
        let id = tel.span_begin(0.0, SpanKind::SolverLeg, 0, 0);
        assert_eq!(id, 0);
        tel.span_end(1.0, id);
        assert!(tel.open_spans().is_empty());
        assert!(tel.trace.is_empty());
        assert_eq!(tel.metrics.counter_by_name("trace.spans"), Some(0));
    }

    #[test]
    fn queue_samples_feed_the_entity_series() {
        let mut tel = Telemetry::new(TelemetryLevel::Summary);
        tel.queue_sample(0.0, 100.0);
        tel.queue_sample(0.1, 200.0);
        tel.queue_sample_entity(0.2, 3, 50.0);
        tel.series_sample(SeriesKind::FlowRate, 1, 0.3, 1e6);
        assert_eq!(tel.series.get(SeriesKind::QueueDepth, 0).unwrap().len(), 2);
        assert_eq!(tel.series.get(SeriesKind::QueueDepth, 3).unwrap().points(), [(0.2, 50.0)]);
        assert_eq!(tel.series.get(SeriesKind::FlowRate, 1).unwrap().points(), [(0.3, 1e6)]);
        // Entity samples feed the occupancy histogram but not the gauge.
        assert_eq!(tel.metrics.histogram_by_name("queue.occupancy_bits").unwrap().count(), 3);
        assert_eq!(tel.metrics.gauge_by_name("queue.occupancy_bits").unwrap().samples, 2);
    }

    #[test]
    fn propagator_cache_counters_accumulate() {
        let mut tel = Telemetry::new(TelemetryLevel::Summary);
        tel.propagator_cache(10, 3, 1);
        tel.propagator_cache(5, 0, 0);
        assert_eq!(tel.metrics.counter_by_name("propagator.cache.hits"), Some(15));
        assert_eq!(tel.metrics.counter_by_name("propagator.cache.misses"), Some(3));
        assert_eq!(tel.metrics.counter_by_name("propagator.cache.evictions"), Some(1));
        let mut off = Telemetry::new(TelemetryLevel::Off);
        off.propagator_cache(10, 3, 0);
        assert_eq!(off.metrics.counter_by_name("propagator.cache.hits"), Some(0));
    }

    #[test]
    fn query_stats_feed_counters_and_qps_histogram() {
        let mut tel = Telemetry::new(TelemetryLevel::Summary);
        tel.query_stats(1, 1024, 2.0e6);
        tel.query_stats(1, 256, 1.5e6);
        assert_eq!(tel.metrics.counter_by_name("query.batches"), Some(2));
        assert_eq!(tel.metrics.counter_by_name("query.queries"), Some(1280));
        assert_eq!(tel.metrics.histogram_by_name("query.batch_qps").unwrap().count(), 2);
        let mut off = Telemetry::new(TelemetryLevel::Off);
        off.query_stats(1, 8, 1.0);
        assert_eq!(off.metrics.counter_by_name("query.batches"), Some(0));
    }

    #[test]
    fn queue_sample_feeds_gauge_and_histogram() {
        let mut tel = Telemetry::new(TelemetryLevel::Summary);
        for q in [100.0, 300.0, 200.0] {
            tel.queue_sample(0.0, q);
        }
        let g = tel.metrics.gauge_by_name("queue.occupancy_bits").unwrap();
        assert_eq!(g.last, 200.0);
        assert_eq!(g.min, 100.0);
        assert_eq!(g.max, 300.0);
        assert_eq!(tel.metrics.histogram_by_name("queue.occupancy_bits").unwrap().count(), 3);
    }

    #[test]
    fn merged_shards_equal_sequential_recording() {
        // Two workers each record half of an interleaved run; the merge
        // must equal one sink that saw everything, in time order.
        let mut reference = Telemetry::new(TelemetryLevel::Full);
        let mut shard_a = Telemetry::new(TelemetryLevel::Full);
        let mut shard_b = Telemetry::new(TelemetryLevel::Full);
        for i in 0..100u32 {
            let t = f64::from(i) * 0.01;
            let h = 1e-4 * f64::from(i % 7 + 1);
            reference.step_accepted(t, h, 0.3);
            if i % 2 == 0 { &mut shard_a } else { &mut shard_b }.step_accepted(t, h, 0.3);
            if i % 10 == 0 {
                reference.region_switch(t, 0, 1);
                if i % 2 == 0 { &mut shard_a } else { &mut shard_b }.region_switch(t, 0, 1);
            }
        }
        let mut merged = Telemetry::new(TelemetryLevel::Full);
        merged.merge(&shard_a);
        merged.merge(&shard_b);
        assert_eq!(
            merged.metrics.counter_by_name("solver.steps_accepted"),
            reference.metrics.counter_by_name("solver.steps_accepted")
        );
        assert_eq!(
            merged.metrics.counter_by_name("hybrid.region_switches"),
            reference.metrics.counter_by_name("hybrid.region_switches")
        );
        let mh = merged.metrics.histogram_by_name("solver.step_size_s").unwrap();
        let rh = reference.metrics.histogram_by_name("solver.step_size_s").unwrap();
        assert_eq!(mh.count(), rh.count());
        for q in [0.5, 0.9, 0.99] {
            assert_eq!(mh.quantile(q), rh.quantile(q), "q={q}");
        }
        // Trace: same length, and globally ordered by sim-time.
        assert_eq!(merged.trace.len(), reference.trace.len());
        let ts: Vec<f64> = merged.trace.iter().map(Event::time).collect();
        assert!(ts.windows(2).all(|w| w[0] <= w[1]), "merged trace out of order: {ts:?}");
    }

    #[test]
    fn fault_hook_feeds_per_class_counters_and_trace() {
        let mut tel = Telemetry::new(TelemetryLevel::Full);
        tel.fault_injected(0.1, FaultClass::FeedbackDrop, 2);
        tel.fault_injected(0.2, FaultClass::FeedbackDrop, 3);
        tel.fault_injected(0.3, FaultClass::PauseStorm, 0);
        assert_eq!(tel.metrics.counter_by_name("faults.feedback_drop"), Some(2));
        assert_eq!(tel.metrics.counter_by_name("faults.pause_storm"), Some(1));
        assert_eq!(tel.metrics.counter_by_name("faults.data_loss"), Some(0));
        assert_eq!(tel.trace.len(), 3);
        // Off level stays a no-op.
        let mut off = Telemetry::new(TelemetryLevel::Off);
        off.fault_injected(0.1, FaultClass::DataLoss, 1);
        assert_eq!(off.metrics.counter_by_name("faults.data_loss"), Some(0));
    }

    #[test]
    fn hybrid_hooks_feed_counters_and_epoch_spans() {
        let mut tel = Telemetry::new(TelemetryLevel::Full);
        tel.hybrid_epoch(0.1, 0.4, 0);
        tel.hybrid_epoch(0.6, 0.9, 1);
        tel.hybrid_stats(2, 600_000_000, 400_000_000);
        tel.hybrid_refusals(&[("not_quiescent", 7), ("horizon", 0)]);
        tel.hybrid_refusals(&[("not_quiescent", 1)]);
        assert_eq!(tel.metrics.counter_by_name("hybrid.refused.not_quiescent"), Some(8));
        assert_eq!(tel.metrics.counter_by_name("hybrid.refused.horizon"), Some(0));
        assert_eq!(tel.metrics.counter_by_name("hybrid.epochs"), Some(2));
        assert_eq!(tel.metrics.counter_by_name("hybrid.reseeds"), Some(2));
        assert_eq!(tel.metrics.counter_by_name("hybrid.ff_ns"), Some(600_000_000));
        assert_eq!(tel.metrics.counter_by_name("hybrid.packet_ns"), Some(400_000_000));
        assert_eq!(tel.metrics.counter_by_name("trace.spans"), Some(2));
        // Eager span pairs: no epoch span stays open.
        assert!(tel.open_spans().is_empty());
        let kinds: Vec<&str> = tel.trace.iter().map(Event::type_name).collect();
        assert_eq!(kinds, ["span_begin", "span_end", "span_begin", "span_end"]);
        let mut off = Telemetry::new(TelemetryLevel::Off);
        off.hybrid_epoch(0.0, 1.0, 0);
        off.hybrid_stats(1, 2, 3);
        off.hybrid_refusals(&[("not_quiescent", 1)]);
        assert_eq!(off.metrics.counter_by_name("hybrid.epochs"), Some(0));
        assert_eq!(off.metrics.counter_by_name("hybrid.refused.not_quiescent"), None);
        assert!(off.trace.is_empty());
    }

    #[test]
    fn zero_rejections_are_not_counted() {
        let mut tel = Telemetry::new(TelemetryLevel::Full);
        tel.steps_rejected(0.1, 1e-3, 0);
        assert_eq!(tel.metrics.counter_by_name("solver.steps_rejected"), Some(0));
        assert!(tel.trace.is_empty());
    }
}
