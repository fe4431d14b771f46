//! Measurement collection: time series, counters, throughput, fairness.

use crate::faults::FaultCounts;
use crate::time::Time;

/// A recorded scalar time series (e.g. queue occupancy).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TimeSeries {
    times: Vec<f64>,
    values: Vec<f64>,
}

impl TimeSeries {
    /// Creates an empty series.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a sample.
    pub fn push(&mut self, t: Time, value: f64) {
        self.times.push(t.as_secs());
        self.values.push(value);
    }

    /// Pre-allocates room for `n` additional samples so recording stays
    /// allocation-free afterwards (the engines size this from
    /// `t_end / record_interval`).
    pub fn reserve(&mut self, n: usize) {
        self.times.reserve(n);
        self.values.reserve(n);
    }

    /// Appends a sample already expressed in seconds.
    ///
    /// The checkpoint codec restores recorded series through this path:
    /// `push` quantizes through [`Time`]'s integer nanoseconds, so a
    /// recorded `f64` second value would not round-trip bit-exactly.
    pub(crate) fn push_secs(&mut self, t_secs: f64, value: f64) {
        self.times.push(t_secs);
        self.values.push(value);
    }

    /// Sample times in seconds.
    #[must_use]
    pub fn times(&self) -> &[f64] {
        &self.times
    }

    /// Sample values.
    #[must_use]
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Number of samples.
    #[must_use]
    pub fn len(&self) -> usize {
        self.times.len()
    }

    /// Whether the series is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.times.is_empty()
    }

    /// Largest recorded value (`-inf` when empty).
    #[must_use]
    pub fn max(&self) -> f64 {
        self.values.iter().copied().fold(f64::NEG_INFINITY, f64::max)
    }

    /// Smallest recorded value (`+inf` when empty).
    #[must_use]
    pub fn min(&self) -> f64 {
        self.values.iter().copied().fold(f64::INFINITY, f64::min)
    }

    /// Smallest value recorded at or after time `t0_secs`.
    #[must_use]
    pub fn min_after(&self, t0_secs: f64) -> f64 {
        self.times
            .iter()
            .zip(&self.values)
            .filter(|(t, _)| **t >= t0_secs)
            .map(|(_, v)| *v)
            .fold(f64::INFINITY, f64::min)
    }
}

/// Jain's fairness index of a set of allocations:
/// `(sum x)^2 / (n * sum x^2)`; 1.0 is perfectly fair.
///
/// Returns 1.0 for an empty set (vacuously fair).
#[must_use]
pub fn jain_fairness(allocations: &[f64]) -> f64 {
    if allocations.is_empty() {
        return 1.0;
    }
    let sum: f64 = allocations.iter().sum();
    let sum_sq: f64 = allocations.iter().map(|x| x * x).sum();
    if sum_sq == 0.0 {
        return 1.0;
    }
    sum * sum / (allocations.len() as f64 * sum_sq)
}

/// Collected scalar samples with order statistics (used for per-frame
/// queueing delays).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SampleSet {
    values: Vec<f64>,
}

impl SampleSet {
    /// Creates an empty set.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a sample.
    pub fn push(&mut self, v: f64) {
        self.values.push(v);
    }

    /// Pre-allocates room for `n` additional samples (see
    /// [`TimeSeries::reserve`]).
    pub fn reserve(&mut self, n: usize) {
        self.values.reserve(n);
    }

    /// The raw samples, in recording order.
    #[must_use]
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Number of samples.
    #[must_use]
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the set is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Arithmetic mean (`NaN` when empty).
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.values.is_empty() {
            f64::NAN
        } else {
            self.values.iter().sum::<f64>() / self.values.len() as f64
        }
    }

    /// The `q`-quantile (`0 <= q <= 1`) by the nearest-rank method
    /// (`NaN` when empty).
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    #[must_use]
    pub fn percentile(&self, q: f64) -> f64 {
        assert!((0.0..=1.0).contains(&q), "quantile must lie in [0, 1]");
        if self.values.is_empty() {
            return f64::NAN;
        }
        let mut sorted = self.values.clone();
        sorted.sort_by(f64::total_cmp);
        let idx = ((q * (sorted.len() - 1) as f64).round() as usize).min(sorted.len() - 1);
        sorted[idx]
    }

    /// Largest sample (`NaN` when empty).
    #[must_use]
    pub fn max(&self) -> f64 {
        self.values.iter().copied().fold(f64::NAN, f64::max)
    }
}

/// Aggregated outcome of a simulation run.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SimMetrics {
    /// Queue occupancy over time (bits).
    pub queue: TimeSeries,
    /// Aggregate offered rate over time (bit/s, sum of regulator rates).
    pub aggregate_rate: TimeSeries,
    /// Data frames delivered to the sink.
    pub delivered_frames: u64,
    /// Data frames dropped at the full buffer.
    pub dropped_frames: u64,
    /// BCN/QCN messages delivered to reaction points.
    pub feedback_messages: u64,
    /// PAUSE assertions sent.
    pub pause_events: u64,
    /// Per-source delivered bits (for fairness).
    pub per_source_bits: Vec<f64>,
    /// Bits delivered to the sink in total.
    pub delivered_bits: f64,
    /// Per-frame queueing delay at the bottleneck (seconds).
    pub queueing_delay: SampleSet,
    /// Per-source regulator rate over time (bit/s; zero while inactive).
    pub per_source_rate: Vec<TimeSeries>,
    /// Injected-fault tallies (all zero for a fault-free run).
    pub faults: FaultCounts,
}

impl SimMetrics {
    /// Bottleneck utilisation over `duration_secs` against `capacity`
    /// bit/s.
    #[must_use]
    pub fn utilization(&self, capacity: f64, duration_secs: f64) -> f64 {
        if capacity <= 0.0 || duration_secs <= 0.0 {
            return 0.0;
        }
        self.delivered_bits / (capacity * duration_secs)
    }

    /// Jain fairness of per-source delivered bits.
    #[must_use]
    pub fn fairness(&self) -> f64 {
        jain_fairness(&self.per_source_bits)
    }

    /// Fraction of offered frames that were dropped.
    #[must_use]
    pub fn drop_rate(&self) -> f64 {
        let offered = self.delivered_frames + self.dropped_frames;
        if offered == 0 {
            0.0
        } else {
            self.dropped_frames as f64 / offered as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn series_extrema_and_mean() {
        let mut s = TimeSeries::new();
        s.push(Time::from_secs(0.0), 0.0);
        s.push(Time::from_secs(1.0), 10.0);
        s.push(Time::from_secs(2.0), 0.0);
        assert_eq!(s.max(), 10.0);
        assert_eq!(s.min(), 0.0);
        assert_eq!(s.min_after(0.5), 0.0);
        assert_eq!(s.min_after(0.999), 0.0);
    }

    #[test]
    fn fairness_index() {
        assert_eq!(jain_fairness(&[]), 1.0);
        assert_eq!(jain_fairness(&[5.0, 5.0, 5.0]), 1.0);
        // One hog, three starved: (x)^2/(4 x^2) = 0.25.
        assert!((jain_fairness(&[8.0, 0.0, 0.0, 0.0]) - 0.25).abs() < 1e-12);
        let mid = jain_fairness(&[3.0, 1.0]);
        assert!(mid > 0.25 && mid < 1.0);
    }

    #[test]
    fn sample_set_statistics() {
        let mut s = SampleSet::new();
        assert!(s.is_empty());
        assert!(s.mean().is_nan());
        for v in [4.0, 1.0, 3.0, 2.0, 5.0] {
            s.push(v);
        }
        assert_eq!(s.len(), 5);
        assert!((s.mean() - 3.0).abs() < 1e-12);
        assert_eq!(s.percentile(0.0), 1.0);
        assert_eq!(s.percentile(0.5), 3.0);
        assert_eq!(s.percentile(1.0), 5.0);
        assert_eq!(s.max(), 5.0);
    }

    #[test]
    #[should_panic(expected = "quantile")]
    fn sample_set_rejects_bad_quantile() {
        let _ = SampleSet::new().percentile(1.5);
    }

    #[test]
    fn metrics_derived_quantities() {
        let m = SimMetrics {
            delivered_frames: 90,
            dropped_frames: 10,
            delivered_bits: 9.0e6,
            per_source_bits: vec![4.5e6, 4.5e6],
            ..SimMetrics::default()
        };
        assert!((m.drop_rate() - 0.1).abs() < 1e-12);
        assert!((m.utilization(1.0e7, 1.0) - 0.9).abs() < 1e-12);
        assert_eq!(m.fairness(), 1.0);
    }
}
