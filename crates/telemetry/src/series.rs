//! Fixed-capacity, per-entity time series with deterministic
//! downsampling.
//!
//! A [`TimeSeries`] accepts an unbounded stream of `(t, v)` samples but
//! never holds more than its capacity: it keeps every `stride`-th
//! offered sample, and when the buffer fills it halves the kept points
//! and doubles the stride. Both operations are pure functions of the
//! sample stream, so two runs that offer the same samples keep the same
//! points — the property the parallel batch runner relies on for
//! bit-identical output at any thread count.
//!
//! A [`SeriesBank`] keys series by `(kind, entity)` — queue depth per
//! switch, rate per flow, Fb per source — and merges across worker
//! shards like the histogram registry does.

use std::collections::BTreeMap;

/// Default number of points a series retains.
///
/// 512 points is enough to draw a 760-px-wide timeline lane without
/// visible decimation artifacts while bounding a batch shard's memory.
pub const SERIES_CAPACITY: usize = 512;

/// What quantity a series tracks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum SeriesKind {
    /// Queue occupancy (bits), keyed by switch/queue index.
    QueueDepth,
    /// Source send rate (bits/s), keyed by flow index.
    FlowRate,
    /// BCN/QCN feedback value Fb, keyed by destination source index.
    Fb,
}

impl SeriesKind {
    /// Every kind, in stable order.
    pub const ALL: [SeriesKind; 3] = [SeriesKind::QueueDepth, SeriesKind::FlowRate, SeriesKind::Fb];

    /// Stable snake_case tag (used in JSON summaries and metric names).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            SeriesKind::QueueDepth => "queue_depth",
            SeriesKind::FlowRate => "flow_rate",
            SeriesKind::Fb => "fb",
        }
    }

    /// Parses a tag produced by [`SeriesKind::name`].
    #[must_use]
    pub fn from_name(name: &str) -> Option<SeriesKind> {
        SeriesKind::ALL.into_iter().find(|k| k.name() == name)
    }
}

/// A bounded time series that downsamples deterministically.
#[derive(Debug, Clone, PartialEq)]
pub struct TimeSeries {
    capacity: usize,
    stride: u64,
    offered: u64,
    points: Vec<(f64, f64)>,
}

impl Default for TimeSeries {
    fn default() -> Self {
        Self::with_capacity(SERIES_CAPACITY)
    }
}

impl TimeSeries {
    /// Creates a series holding at most `capacity` points.
    ///
    /// # Panics
    ///
    /// Panics if `capacity < 2` (decimation needs room to halve).
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Self {
        assert!(capacity >= 2, "series capacity must be at least 2");
        Self { capacity, stride: 1, offered: 0, points: Vec::new() }
    }

    /// Offers a sample; it is kept iff it falls on the current stride.
    #[inline]
    pub fn record(&mut self, t: f64, v: f64) {
        if self.offered.is_multiple_of(self.stride) {
            if self.points.len() == self.capacity {
                self.decimate();
            }
            self.points.push((t, v));
        }
        self.offered += 1;
    }

    /// Drops every other kept point and doubles the stride.
    fn decimate(&mut self) {
        let mut i = 0usize;
        self.points.retain(|_| {
            let keep = i.is_multiple_of(2);
            i += 1;
            keep
        });
        self.stride *= 2;
    }

    /// The kept `(t, v)` points, oldest first.
    #[must_use]
    pub fn points(&self) -> &[(f64, f64)] {
        &self.points
    }

    /// Number of points currently kept.
    #[must_use]
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether no points are kept.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Total samples offered (kept or skipped).
    #[must_use]
    pub fn offered(&self) -> u64 {
        self.offered
    }

    /// Current downsampling stride (1 until the first decimation).
    #[must_use]
    pub fn stride(&self) -> u64 {
        self.stride
    }

    /// Maximum number of points retained.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Rebuilds a series from raw state (snapshot restore): the public
    /// `record` path cannot reproduce an arbitrary `stride`/`offered`
    /// pair without replaying the entire discarded sample stream.
    pub(crate) fn from_parts(
        capacity: usize,
        stride: u64,
        offered: u64,
        points: Vec<(f64, f64)>,
    ) -> Self {
        Self { capacity, stride, offered, points }
    }

    /// Merges a shard into this series.
    ///
    /// Points interleave by time (stable: at equal stamps this series'
    /// points precede the shard's), then decimate until the union fits
    /// the larger of the two capacities. Offered counts add and the
    /// stride widens to cover both inputs, so merging is deterministic
    /// in merge order — the batch runner folds shards in seed order
    /// regardless of worker count.
    pub fn merge(&mut self, other: &TimeSeries) {
        let mut all = Vec::with_capacity(self.points.len() + other.points.len());
        let (mut i, mut j) = (0, 0);
        while i < self.points.len() && j < other.points.len() {
            if self.points[i].0 <= other.points[j].0 {
                all.push(self.points[i]);
                i += 1;
            } else {
                all.push(other.points[j]);
                j += 1;
            }
        }
        all.extend_from_slice(&self.points[i..]);
        all.extend_from_slice(&other.points[j..]);
        self.capacity = self.capacity.max(other.capacity);
        self.stride = self.stride.max(other.stride);
        self.offered += other.offered;
        self.points = all;
        while self.points.len() > self.capacity {
            self.decimate();
        }
    }
}

/// A set of [`TimeSeries`] keyed by `(kind, entity)`.
///
/// Lookup goes through an ordered index, so recording stays cheap when a
/// fabric run keeps one series per flow for thousands of flows.
/// Iteration follows first-record order, which the seed-ordered batch
/// merge keeps deterministic across thread counts.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SeriesBank {
    entries: Vec<(SeriesKind, u32, TimeSeries)>,
    /// Position in `entries` of each key's first series.
    index: BTreeMap<(SeriesKind, u32), usize>,
}

impl SeriesBank {
    /// Creates an empty bank.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Offers a sample to the `(kind, entity)` series, creating it at
    /// [`SERIES_CAPACITY`] on first use.
    #[inline]
    pub fn record(&mut self, kind: SeriesKind, entity: u32, t: f64, v: f64) {
        let next = self.entries.len();
        let i = *self.index.entry((kind, entity)).or_insert(next);
        if i == next {
            self.entries.push((kind, entity, TimeSeries::default()));
        }
        self.entries[i].2.record(t, v);
    }

    /// The series for `(kind, entity)`, if any samples were recorded.
    #[must_use]
    pub fn get(&self, kind: SeriesKind, entity: u32) -> Option<&TimeSeries> {
        self.index.get(&(kind, entity)).map(|&i| &self.entries[i].2)
    }

    /// Iterates `(kind, entity, series)` in first-record order.
    pub fn iter(&self) -> impl Iterator<Item = (SeriesKind, u32, &TimeSeries)> {
        self.entries.iter().map(|(k, e, s)| (*k, *e, s))
    }

    /// Number of distinct series.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no series exist.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Appends a fully-built series under `(kind, entity)` (snapshot
    /// restore; insertion order must follow the snapshot to reproduce
    /// first-record iteration order).
    pub(crate) fn insert(&mut self, kind: SeriesKind, entity: u32, series: TimeSeries) {
        self.index.entry((kind, entity)).or_insert(self.entries.len());
        self.entries.push((kind, entity, series));
    }

    /// Merges a shard bank: matching `(kind, entity)` series merge
    /// point-wise, unmatched shard series are appended.
    pub fn merge(&mut self, other: &SeriesBank) {
        for (kind, entity, shard) in other.iter() {
            if let Some(&i) = self.index.get(&(kind, entity)) {
                self.entries[i].2.merge(shard);
            } else {
                self.insert(kind, entity, shard.clone());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_up_to_capacity_verbatim() {
        let mut s = TimeSeries::with_capacity(4);
        for i in 0..4 {
            s.record(i as f64, 10.0 * i as f64);
        }
        assert_eq!(s.len(), 4);
        assert_eq!(s.stride(), 1);
        assert_eq!(s.points()[3], (3.0, 30.0));
    }

    #[test]
    fn overflow_decimates_and_doubles_stride() {
        let mut s = TimeSeries::with_capacity(4);
        for i in 0..9 {
            s.record(i as f64, 0.0);
        }
        // Sample 4 overflows: decimate to {0,2}, stride 2, keep 4 and 6.
        // Sample 8 overflows again: decimate to {0,4}, stride 4, keep 8.
        assert_eq!(s.stride(), 4);
        let ts: Vec<f64> = s.points().iter().map(|p| p.0).collect();
        assert_eq!(ts, [0.0, 4.0, 8.0]);
        assert_eq!(s.offered(), 9);
    }

    #[test]
    fn long_stream_stays_bounded_and_ordered() {
        let mut s = TimeSeries::with_capacity(8);
        for i in 0..10_000 {
            s.record(f64::from(i), f64::from(i));
        }
        assert!(s.len() <= 8, "len {}", s.len());
        assert!(s.len() > 8 / 2, "decimation overshot: {}", s.len());
        let ts: Vec<f64> = s.points().iter().map(|p| p.0).collect();
        assert!(ts.windows(2).all(|w| w[0] < w[1]), "unordered: {ts:?}");
        assert_eq!(s.offered(), 10_000);
    }

    #[test]
    fn downsampling_is_deterministic() {
        let run = || {
            let mut s = TimeSeries::with_capacity(16);
            for i in 0..1000 {
                s.record(f64::from(i) * 0.01, f64::from(i % 13));
            }
            s
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn merge_interleaves_by_time() {
        let mut a = TimeSeries::with_capacity(16);
        let mut b = TimeSeries::with_capacity(16);
        for t in [0.1, 0.4, 0.5] {
            a.record(t, 1.0);
        }
        for t in [0.2, 0.3, 0.6] {
            b.record(t, 2.0);
        }
        a.merge(&b);
        let ts: Vec<f64> = a.points().iter().map(|p| p.0).collect();
        assert_eq!(ts, [0.1, 0.2, 0.3, 0.4, 0.5, 0.6]);
        assert_eq!(a.offered(), 6);
    }

    #[test]
    fn merge_is_stable_at_equal_stamps() {
        let mut a = TimeSeries::with_capacity(8);
        a.record(1.0, 10.0);
        let mut b = TimeSeries::with_capacity(8);
        b.record(1.0, 20.0);
        a.merge(&b);
        assert_eq!(a.points(), [(1.0, 10.0), (1.0, 20.0)]);
    }

    #[test]
    fn merge_overflow_decimates_to_capacity() {
        let mut a = TimeSeries::with_capacity(4);
        let mut b = TimeSeries::with_capacity(4);
        for i in 0..4 {
            a.record(f64::from(i), 0.0);
            b.record(f64::from(i) + 0.5, 1.0);
        }
        a.merge(&b);
        assert_eq!(a.len(), 4);
        assert_eq!(a.stride(), 2);
        let ts: Vec<f64> = a.points().iter().map(|p| p.0).collect();
        assert!(ts.windows(2).all(|w| w[0] < w[1]), "unordered: {ts:?}");
    }

    #[test]
    fn bank_keys_by_kind_and_entity() {
        let mut bank = SeriesBank::new();
        bank.record(SeriesKind::QueueDepth, 0, 0.0, 1.0);
        bank.record(SeriesKind::QueueDepth, 1, 0.0, 2.0);
        bank.record(SeriesKind::FlowRate, 0, 0.0, 3.0);
        bank.record(SeriesKind::QueueDepth, 0, 1.0, 4.0);
        assert_eq!(bank.len(), 3);
        assert_eq!(bank.get(SeriesKind::QueueDepth, 0).unwrap().len(), 2);
        assert_eq!(bank.get(SeriesKind::FlowRate, 0).unwrap().points(), [(0.0, 3.0)]);
        assert!(bank.get(SeriesKind::Fb, 0).is_none());
    }

    #[test]
    fn bank_merge_matches_sequential_recording() {
        let mut reference = SeriesBank::new();
        let mut shard_a = SeriesBank::new();
        let mut shard_b = SeriesBank::new();
        for i in 0..40u32 {
            let t = f64::from(i) * 0.1;
            reference.record(SeriesKind::QueueDepth, i % 2, t, f64::from(i));
            let shard = if i % 2 == 0 { &mut shard_a } else { &mut shard_b };
            shard.record(SeriesKind::QueueDepth, i % 2, t, f64::from(i));
        }
        let mut merged = SeriesBank::new();
        merged.merge(&shard_a);
        merged.merge(&shard_b);
        for entity in [0, 1] {
            let m = merged.get(SeriesKind::QueueDepth, entity).unwrap();
            let r = reference.get(SeriesKind::QueueDepth, entity).unwrap();
            assert_eq!(m.points(), r.points(), "entity {entity}");
        }
    }

    #[test]
    fn series_kind_names_round_trip() {
        for k in SeriesKind::ALL {
            assert_eq!(SeriesKind::from_name(k.name()), Some(k));
        }
        assert_eq!(SeriesKind::from_name("no_such_series"), None);
    }

    #[test]
    #[should_panic(expected = "capacity must be at least 2")]
    fn tiny_capacity_rejected() {
        let _ = TimeSeries::with_capacity(1);
    }
}
