//! Workload descriptions: which sources send what, when.
//!
//! The paper's traffic assumption is homogeneous long-lived flows (the
//! parallel read/write patterns of cluster file systems); the generators
//! here cover that plus the staggered-start and on/off variations used in
//! the fairness and transient experiments.

use crate::time::Time;

/// One flow's life cycle.
#[derive(Debug, Clone, PartialEq)]
pub struct FlowSpec {
    /// When the source starts sending.
    pub start: Time,
    /// When the source stops (`None` = runs forever).
    pub stop: Option<Time>,
    /// Initial regulator rate in bit/s.
    pub initial_rate: f64,
    /// The flow ends after transferring this many bits (`None` = no
    /// volume limit). Used by incast workloads where each server answers
    /// with a fixed-size block.
    pub volume_bits: Option<f64>,
}

impl FlowSpec {
    /// A flow that starts at time zero with the given rate and never
    /// stops.
    #[must_use]
    pub fn immediate(initial_rate: f64) -> Self {
        Self { start: Time::ZERO, stop: None, initial_rate, volume_bits: None }
    }
}

/// `n` homogeneous flows all starting at time zero at the given rate —
/// the paper's canonical workload.
#[must_use]
pub fn homogeneous(n: usize, initial_rate: f64) -> Vec<FlowSpec> {
    vec![FlowSpec::immediate(initial_rate); n]
}

/// `n` flows starting one after another, `stagger_secs` apart — the
/// fairness workload (late joiners must converge to the fair share).
#[must_use]
pub fn staggered(n: usize, initial_rate: f64, stagger_secs: f64) -> Vec<FlowSpec> {
    (0..n)
        .map(|i| FlowSpec {
            start: Time::from_secs(stagger_secs * i as f64),
            stop: None,
            initial_rate,
            volume_bits: None,
        })
        .collect()
}

/// `n` flows where the first `n_short` stop at `stop_secs` — a
/// departure-transient workload.
#[must_use]
pub fn with_departures(
    n: usize,
    n_short: usize,
    initial_rate: f64,
    stop_secs: f64,
) -> Vec<FlowSpec> {
    (0..n)
        .map(|i| FlowSpec {
            start: Time::ZERO,
            stop: (i < n_short).then(|| Time::from_secs(stop_secs)),
            initial_rate,
            volume_bits: None,
        })
        .collect()
}

/// The cluster-file-system incast pattern motivating the paper's traffic
/// assumption: `n` servers answer a parallel read simultaneously, each
/// with a `block_bits` response at `initial_rate`.
#[must_use]
pub fn incast(n: usize, initial_rate: f64, block_bits: f64) -> Vec<FlowSpec> {
    (0..n)
        .map(|_| FlowSpec {
            start: Time::ZERO,
            stop: None,
            initial_rate,
            volume_bits: Some(block_bits),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn homogeneous_flows_are_identical_and_immediate() {
        let flows = homogeneous(5, 1_000.0);
        assert_eq!(flows.len(), 5);
        for f in &flows {
            assert_eq!(f.start, Time::ZERO);
            assert!(f.stop.is_none());
        }
    }

    #[test]
    fn staggered_starts_are_spaced() {
        let flows = staggered(3, 1_000.0, 0.5);
        assert_eq!(flows[0].start, Time::ZERO);
        assert_eq!(flows[1].start, Time::from_secs(0.5));
        assert_eq!(flows[2].start, Time::from_secs(1.0));
    }

    #[test]
    fn incast_flows_carry_volume_limits() {
        let flows = incast(8, 1_000.0, 96_000.0);
        assert_eq!(flows.len(), 8);
        for f in &flows {
            assert_eq!(f.volume_bits, Some(96_000.0));
            assert_eq!(f.start, Time::ZERO);
        }
    }

    #[test]
    fn departures_deactivate_short_flows() {
        let flows = with_departures(4, 2, 1_000.0, 1.0);
        assert!(flows[0].stop.is_some() && flows[1].stop.is_some());
        assert!(flows[2].stop.is_none());
        assert_eq!(flows[0].stop, Some(Time::from_secs(1.0)));
    }
}
