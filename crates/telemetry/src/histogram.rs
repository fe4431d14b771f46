//! Log-linear histogram with constant-time recording.
//!
//! Values are bucketed by their binary exponent (from the IEEE-754 bit
//! pattern — no `log2` call) refined with [`SUB_PER_OCTAVE`] linear
//! sub-buckets per octave, giving ~4.4% relative resolution across the
//! full double range. Recording is a handful of integer ops, cheap
//! enough for solver and simulator hot loops.

/// Sub-bucket resolution: each power-of-two octave is split linearly
/// into `2^SUB_BITS` slices.
const SUB_BITS: u32 = 4;
/// Number of linear sub-buckets per octave (16 → ~4.4% worst-case
/// relative error at the bucket midpoint).
pub(crate) const SUB_PER_OCTAVE: usize = 1 << SUB_BITS;
/// Lowest tracked binary exponent; values below `2^MIN_EXP` land in the
/// first bucket. `2^-128 ≈ 2.9e-39` — far below any step size or queue
/// occupancy this workspace produces.
const MIN_EXP: i32 = -128;
/// Highest tracked binary exponent (`2^127 ≈ 1.7e38`).
const MAX_EXP: i32 = 127;
/// Number of buckets a histogram can ever use.
pub(crate) const BUCKET_COUNT: usize = (MAX_EXP - MIN_EXP + 1) as usize * SUB_PER_OCTAVE;

/// A log-linear histogram over non-negative finite samples.
///
/// Zero and negative samples are tallied in a dedicated side bucket
/// (they have no binary exponent); non-finite samples are ignored.
/// Quantiles are answered by a nearest-rank walk over the buckets and
/// clamped to the exact observed `[min, max]` range.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
    /// Samples `<= 0.0` (no exponent to bucket by).
    nonpositive: u64,
    buckets: Vec<u64>,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// Creates an empty histogram.
    #[must_use]
    pub fn new() -> Self {
        Self {
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            nonpositive: 0,
            buckets: Vec::new(),
        }
    }

    /// Bucket index for a strictly positive finite value.
    fn bucket_index(v: f64) -> usize {
        let bits = v.to_bits();
        let exp = (((bits >> 52) & 0x7ff) as i32 - 1023).clamp(MIN_EXP, MAX_EXP);
        // Top SUB_BITS bits of the mantissa select the linear sub-bucket.
        // Subnormals (biased exponent 0) clamp to the lowest octave.
        let sub = ((bits >> (52 - SUB_BITS)) & (SUB_PER_OCTAVE as u64 - 1)) as usize;
        (exp - MIN_EXP) as usize * SUB_PER_OCTAVE + sub
    }

    /// Midpoint value represented by a bucket index.
    fn bucket_value(idx: usize) -> f64 {
        let exp = (idx / SUB_PER_OCTAVE) as i32 + MIN_EXP;
        let sub = (idx % SUB_PER_OCTAVE) as f64;
        let mantissa = 1.0 + (sub + 0.5) / SUB_PER_OCTAVE as f64;
        mantissa * (exp as f64).exp2()
    }

    /// Records one sample. Non-finite values are ignored.
    pub fn record(&mut self, v: f64) {
        if !v.is_finite() {
            return;
        }
        self.count += 1;
        self.sum += v;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
        if v <= 0.0 {
            self.nonpositive += 1;
            return;
        }
        let idx = Self::bucket_index(v);
        if self.buckets.len() <= idx {
            self.buckets.resize(idx + 1, 0);
        }
        self.buckets[idx] += 1;
    }

    /// Number of recorded samples.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all recorded samples.
    #[must_use]
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Smallest recorded sample, or NaN when empty.
    #[must_use]
    pub fn min(&self) -> f64 {
        if self.count == 0 {
            f64::NAN
        } else {
            self.min
        }
    }

    /// Largest recorded sample, or NaN when empty.
    #[must_use]
    pub fn max(&self) -> f64 {
        if self.count == 0 {
            f64::NAN
        } else {
            self.max
        }
    }

    /// Arithmetic mean, or NaN when empty.
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            f64::NAN
        } else {
            self.sum / self.count as f64
        }
    }

    /// Merges another histogram into this one, bucket by bucket.
    ///
    /// Because both sides bucket values identically, the merged bucket
    /// counts, min/max envelope, and therefore every quantile estimate
    /// are *exactly* what single-instance recording of both sample
    /// streams would have produced, in any order. Only `sum` (and so
    /// `mean`) is subject to floating-point association, since the
    /// shards pre-reduce their own partial sums.
    pub fn merge(&mut self, other: &Histogram) {
        if other.count == 0 {
            return;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        self.nonpositive += other.nonpositive;
        if self.buckets.len() < other.buckets.len() {
            self.buckets.resize(other.buckets.len(), 0);
        }
        for (mine, theirs) in self.buckets.iter_mut().zip(&other.buckets) {
            *mine += theirs;
        }
    }

    /// The raw internal state `(count, sum, min, max, nonpositive,
    /// buckets)` for the snapshot codec. The public `min()`/`max()`
    /// accessors mask the empty-histogram `±inf` sentinels as NaN, so
    /// an exact round trip needs the raw fields.
    pub(crate) fn parts(&self) -> (u64, f64, f64, f64, u64, &[u64]) {
        (self.count, self.sum, self.min, self.max, self.nonpositive, &self.buckets)
    }

    /// Rebuilds a histogram from raw state captured by [`Self::parts`].
    pub(crate) fn from_parts(
        count: u64,
        sum: f64,
        min: f64,
        max: f64,
        nonpositive: u64,
        buckets: Vec<u64>,
    ) -> Self {
        Self { count, sum, min, max, nonpositive, buckets }
    }

    /// Nearest-rank quantile estimate for `q` in `[0, 1]`.
    ///
    /// Resolution is the bucket width (~4.4% relative); the result is
    /// clamped into the exact observed `[min, max]`. Returns NaN when
    /// the histogram is empty or `q` is not finite.
    #[must_use]
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 || !q.is_finite() {
            return f64::NAN;
        }
        let q = q.clamp(0.0, 1.0);
        // The endpoints are known exactly; skip the bucket walk.
        if q == 0.0 {
            return self.min;
        }
        if q == 1.0 {
            return self.max;
        }
        // Nearest-rank: the k-th smallest sample, 1-based.
        let rank = ((q * self.count as f64).ceil() as u64).max(1);
        if rank <= self.nonpositive {
            // All non-positive samples sit below every bucketed one; the
            // best point estimate we keep for them is `min`.
            return self.min;
        }
        let mut seen = self.nonpositive;
        for (idx, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return Self::bucket_value(idx).clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Median (`quantile(0.5)`).
    #[must_use]
    pub fn p50(&self) -> f64 {
        self.quantile(0.50)
    }

    /// 90th percentile.
    #[must_use]
    pub fn p90(&self) -> f64 {
        self.quantile(0.90)
    }

    /// 99th percentile.
    #[must_use]
    pub fn p99(&self) -> f64 {
        self.quantile(0.99)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_reports_nan() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert!(h.min().is_nan());
        assert!(h.max().is_nan());
        assert!(h.mean().is_nan());
        assert!(h.quantile(0.5).is_nan());
    }

    #[test]
    fn single_sample_is_every_quantile() {
        let mut h = Histogram::new();
        h.record(3.25);
        for q in [0.0, 0.5, 0.9, 0.99, 1.0] {
            assert_eq!(h.quantile(q), 3.25);
        }
        assert_eq!(h.mean(), 3.25);
    }

    #[test]
    fn bucket_relative_error_is_bounded() {
        // Any positive value must land in a bucket whose representative
        // is within one sub-bucket width (1/16 of an octave ≈ 4.4%).
        for &v in &[1e-30, 1e-9, 0.001, 0.5, 1.0, 1.5, 7.0, 1234.5, 1e12] {
            let idx = Histogram::bucket_index(v);
            let rep = Histogram::bucket_value(idx);
            let rel = (rep - v).abs() / v;
            assert!(rel < 1.0 / SUB_PER_OCTAVE as f64, "v={v} rep={rep} rel={rel}");
        }
    }

    #[test]
    fn quantiles_match_sorted_reference_within_bucket_width() {
        // Deterministic skewed data: v_i = 0.01 * 1.01^i.
        let mut h = Histogram::new();
        let mut vals: Vec<f64> = (0..1000).map(|i| 0.01 * 1.01f64.powi(i)).collect();
        for &v in &vals {
            h.record(v);
        }
        vals.sort_by(f64::total_cmp);
        for q in [0.10, 0.50, 0.90, 0.99] {
            let rank = ((q * vals.len() as f64).ceil() as usize).max(1);
            let exact = vals[rank - 1];
            let est = h.quantile(q);
            let rel = (est - exact).abs() / exact;
            assert!(rel < 0.07, "q={q}: est {est} vs exact {exact} (rel {rel})");
        }
        assert_eq!(h.quantile(0.0), h.min());
        assert_eq!(h.quantile(1.0), h.max());
    }

    #[test]
    fn zero_and_negative_fall_in_side_bucket() {
        let mut h = Histogram::new();
        h.record(0.0);
        h.record(-5.0);
        h.record(10.0);
        assert_eq!(h.count(), 3);
        assert_eq!(h.min(), -5.0);
        assert_eq!(h.max(), 10.0);
        // Rank-1 and rank-2 samples are non-positive → reported as min.
        assert_eq!(h.quantile(0.3), -5.0);
        assert_eq!(h.quantile(1.0), 10.0);
    }

    #[test]
    fn merge_equals_single_instance_recording() {
        // Shard a deterministic skewed stream across three histograms,
        // merge, and demand the quantile summaries match the unsharded
        // reference exactly (bucket counts are integers — no tolerance).
        let vals: Vec<f64> = (0..3000).map(|i| 0.003 * 1.004_f64.powi(i % 1500)).collect();
        let mut reference = Histogram::new();
        let mut shards = [Histogram::new(), Histogram::new(), Histogram::new()];
        for (i, &v) in vals.iter().enumerate() {
            reference.record(v);
            shards[i % 3].record(v);
        }
        let mut merged = shards[0].clone();
        merged.merge(&shards[1]);
        merged.merge(&shards[2]);
        assert_eq!(merged.count(), reference.count());
        assert_eq!(merged.min(), reference.min());
        assert_eq!(merged.max(), reference.max());
        for q in [0.01, 0.25, 0.50, 0.90, 0.99] {
            assert_eq!(merged.quantile(q), reference.quantile(q), "q={q}");
        }
        assert!((merged.sum() - reference.sum()).abs() <= 1e-9 * reference.sum());
    }

    #[test]
    fn merge_sums_buckets_and_side_counts() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        for v in [1.0, 2.0, -1.0] {
            a.record(v);
        }
        for v in [1.0, 0.0, 4.0] {
            b.record(v);
        }
        a.merge(&b);
        assert_eq!(a.count(), 6);
        assert_eq!(a.min(), -1.0);
        assert_eq!(a.max(), 4.0);
        // The shared 1.0 bucket now holds two samples: rank walk must
        // see both (ranks 3 and 4 of 6 are the two 1.0 samples), to
        // bucket-midpoint resolution.
        let est = a.quantile(4.0 / 6.0);
        assert!((est - 1.0).abs() < 1.0 / SUB_PER_OCTAVE as f64, "rank-4 estimate {est}");
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut a = Histogram::new();
        a.record(3.0);
        let before = a.clone();
        a.merge(&Histogram::new());
        assert_eq!(a, before);
        let mut empty = Histogram::new();
        empty.merge(&before);
        assert_eq!(empty, before);
    }

    #[test]
    fn non_finite_samples_are_ignored() {
        let mut h = Histogram::new();
        h.record(f64::NAN);
        h.record(f64::INFINITY);
        h.record(f64::NEG_INFINITY);
        assert_eq!(h.count(), 0);
        h.record(2.0);
        assert_eq!(h.count(), 1);
    }
}
