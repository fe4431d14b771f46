//! Order statistics over per-unit samples.

/// Nearest-rank percentile `p` (0 < p <= 100) of `samples`: the
/// smallest sample with at least `p`% of all samples at or below it.
/// `None` when `samples` is empty.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[rank(sorted.len(), p) - 1])
}

/// The 1-based nearest rank of percentile `p` among `n` samples.
fn rank(n: usize, p: f64) -> usize {
    ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n)
}

/// How many of `n` samples lie strictly beyond the nearest-rank
/// percentile `p`. A percentile is reported as trustworthy only when at
/// least [`MIN_BEYOND`] samples lie beyond it.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, p)
    }
}

/// Minimum sample count beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// The median (mean of the two middle samples for an even count), or
/// `None` when `samples` is empty.
pub fn median(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    Some(if n % 2 == 1 { sorted[n / 2] } else { 0.5 * (sorted[n / 2 - 1] + sorted[n / 2]) })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_picks_an_observed_sample() {
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), Some(5.0));
        assert_eq!(percentile(&xs, 90.0), Some(9.0));
        assert_eq!(percentile(&xs, 91.0), Some(10.0));
        assert_eq!(percentile(&xs, 100.0), Some(10.0));
        assert_eq!(percentile(&[3.0], 90.0), Some(3.0));
        assert_eq!(percentile(&[], 90.0), None);
        // Order of the input does not matter.
        assert_eq!(percentile(&[9.0, 1.0, 5.0, 3.0, 7.0], 50.0), Some(5.0));
    }

    #[test]
    fn p90_needs_a_hundred_units_for_ten_samples_beyond() {
        assert_eq!(samples_beyond(100, 90.0), MIN_BEYOND);
        assert_eq!(samples_beyond(99, 90.0), MIN_BEYOND - 1);
        assert_eq!(samples_beyond(300, 90.0), 30);
        assert_eq!(samples_beyond(0, 90.0), 0);
        let first_ok = (1..1000).find(|&n| samples_beyond(n, 90.0) >= MIN_BEYOND);
        assert_eq!(first_ok, Some(100));
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }
}
