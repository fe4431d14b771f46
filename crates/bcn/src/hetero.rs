//! Heterogeneous (per-flow) fluid model — testing the paper's
//! homogeneity assumption.
//!
//! The paper reduces the `N+1`-dimensional system `(q, r_1 … r_N)` to the
//! plane by assuming homogeneous sources (Section III-A: same routes,
//! same delays, same rates). This module integrates the full
//! `N+1`-dimensional fluid system so that assumption becomes testable:
//!
//! * with equal initial rates the aggregate trajectory must coincide with
//!   the planar model (exact reduction);
//! * with unequal initial rates the per-flow rates must *converge* to the
//!   fair share — the AIMD fairness property (Chiu–Jain) the paper cites
//!   for adopting the rate law — while the aggregate still follows the
//!   planar dynamics.
//!
//! Two feedback models are provided. [`FeedbackModel::Uniform`] is the
//! paper's Eq. 7 read literally: every source integrates the same
//! `sigma`. [`FeedbackModel::RateProportional`] models the *protocol*
//! reality that feedback messages are triggered by sampled packets, so a
//! source receives feedback at a rate proportional to its own sending
//! rate; interestingly this moves the fairness mechanism from the
//! additive-increase side to the multiplicative-decrease side (faster
//! flows are told to slow down more often).

use crate::model::Linearity;
use crate::params::BcnParams;
use crate::simulate::{canonical_dt, step_count, Recurrence};

/// How per-flow feedback intensity scales with the flow's rate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum FeedbackModel {
    /// Every flow integrates the same feedback (paper Eq. 7).
    #[default]
    Uniform,
    /// Feedback intensity proportional to the flow's share of the
    /// aggregate (`N r_i / R`): the sampled-packet protocol reality.
    RateProportional,
}

impl FeedbackModel {
    /// The feedback weight of a flow at rate `r` among `n` flows whose
    /// rates sum to `aggregate`.
    fn weight(self, r: f64, n: f64, aggregate: f64) -> f64 {
        match self {
            Self::RateProportional if aggregate > 0.0 => r * n / aggregate,
            _ => 1.0,
        }
    }
}

/// The heterogeneous fluid system.
#[derive(Debug, Clone, PartialEq)]
pub struct HeteroBcn {
    params: BcnParams,
    feedback: FeedbackModel,
}

/// Result of a heterogeneous run.
#[derive(Debug, Clone, PartialEq)]
pub struct HeteroRun {
    /// Sample times (s).
    pub times: Vec<f64>,
    /// Queue length (bits), clamped to `[0, B]`.
    pub queue: Vec<f64>,
    /// Per-flow rates at each sample time (`rates[sample][flow]`).
    pub rates: Vec<Vec<f64>>,
    /// Jain fairness index of the rates at each sample.
    pub fairness: Vec<f64>,
    /// Largest queue observed.
    pub max_queue: f64,
    /// Total bits dropped at the full buffer.
    pub dropped_bits: f64,
}

impl HeteroRun {
    /// Final Jain fairness index.
    #[must_use]
    pub fn final_fairness(&self) -> f64 {
        *self.fairness.last().expect("run always has samples")
    }
}

impl HeteroBcn {
    /// Builds the heterogeneous model (full nonlinear per-flow law).
    #[must_use]
    pub fn new(params: BcnParams, feedback: FeedbackModel) -> Self {
        Self { params, feedback }
    }

    /// Integrates from queue `q_init` and per-flow rates `rates_init`
    /// for `t_end` seconds with fixed step `dt`, recording every
    /// `record_every`-th step. Each step is the saturating step of
    /// [`crate::simulate::SaturatingFluid`] over the `N` rates, each with
    /// increase gain `Gi Ru` and its [`FeedbackModel`] weight; with one
    /// flow the run is the planar run bit for bit.
    ///
    /// # Panics
    ///
    /// Panics if `rates_init` length differs from `params.n_flows`, if
    /// any rate is negative, if `dt`/`t_end` are non-positive, if
    /// `t_end` is not finite, or if `record_every` is 0.
    #[must_use]
    pub fn run(
        &self,
        q_init: f64,
        rates_init: &[f64],
        t_end: f64,
        dt: f64,
        record_every: usize,
    ) -> HeteroRun {
        let p = &self.params;
        assert_eq!(rates_init.len(), p.n_flows as usize, "need one initial rate per flow");
        assert!(rates_init.iter().all(|r| *r >= 0.0), "rates must be non-negative");
        let n_steps = step_count(t_end, dt);
        assert!(record_every > 0, "record_every must be at least 1");

        let fluid = Recurrence::new(p, Linearity::FullNonlinear);
        let n = f64::from(p.n_flows);
        let gain = p.gi * p.ru;

        let mut q = q_init.clamp(0.0, p.buffer);
        let mut rates = rates_init.to_vec();
        let mut dropped = 0.0;
        let mut max_q = q;

        let mut out_t = Vec::new();
        let mut out_q = Vec::new();
        let mut out_r = Vec::new();
        let mut out_f = Vec::new();
        let mut record = |t: f64, q: f64, rates: &[f64]| {
            out_t.push(t);
            out_q.push(q);
            out_r.push(rates.to_vec());
            out_f.push(jain(rates));
        };
        record(0.0, q, &rates);

        for step in 1..=n_steps {
            let aggregate: f64 = rates.iter().sum();
            let wall = fluid.wall(q, aggregate, dt);
            dropped += wall.dropped;
            for r in &mut rates {
                let weight = self.feedback.weight(*r, n, aggregate);
                *r = fluid.rate(wall.sigma, *r, gain, weight, dt);
            }
            q = wall.q;
            max_q = max_q.max(q);
            if step % record_every == 0 || step == n_steps {
                record(step as f64 * dt, q, &rates);
            }
        }

        HeteroRun {
            times: out_t,
            queue: out_q,
            rates: out_r,
            fairness: out_f,
            max_queue: max_q,
            dropped_bits: dropped,
        }
    }

    /// Runs from the canonical start (empty queue) with the given
    /// initial rates and the canonical saturating step.
    #[must_use]
    pub fn run_canonical(&self, rates_init: &[f64], t_end: f64) -> HeteroRun {
        let dt = canonical_dt(&self.params, t_end);
        let record_every = ((t_end / dt / 2000.0).ceil() as usize).max(1);
        self.run(0.0, rates_init, t_end, dt, record_every)
    }
}

fn jain(rates: &[f64]) -> f64 {
    let sum: f64 = rates.iter().sum();
    let sum_sq: f64 = rates.iter().map(|r| r * r).sum();
    if sum_sq == 0.0 {
        1.0
    } else {
        sum * sum / (rates.len() as f64 * sum_sq)
    }
}

/// Maximum relative gap between the heterogeneous aggregate queue trace
/// (with equal initial rates) and the planar saturating model — the
/// exactness check of the paper's homogeneity reduction.
#[must_use]
pub fn reduction_error(params: &BcnParams, t_end: f64) -> f64 {
    let n = params.n_flows as usize;
    let fair = params.capacity / n as f64;
    let hetero =
        HeteroBcn::new(params.clone(), FeedbackModel::Uniform).run_canonical(&vec![fair; n], t_end);
    let planar = crate::simulate::SaturatingFluid::new(params.clone()).run_canonical(t_end);
    // Compare max queue (the strong-stability-relevant statistic).
    (hetero.max_queue - planar.max_queue).abs() / planar.max_queue.max(1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p() -> BcnParams {
        BcnParams::test_defaults().with_buffer(3.0e5)
    }

    #[test]
    fn homogeneous_reduction_is_exact() {
        let err = reduction_error(&p(), 2.0);
        assert!(err < 1e-3, "reduction error {err}");
    }

    #[test]
    fn equal_rates_stay_equal() {
        let params = p();
        let n = params.n_flows as usize;
        let fair = params.fair_share();
        let sys = HeteroBcn::new(params, FeedbackModel::Uniform);
        let run = sys.run_canonical(&vec![fair; n], 1.0);
        for rates in &run.rates {
            let (lo, hi) = rates
                .iter()
                .fold((f64::INFINITY, f64::NEG_INFINITY), |(l, h), r| (l.min(*r), h.max(*r)));
            assert!((hi - lo) <= 1e-9 * hi.max(1.0), "rates diverged: {rates:?}");
        }
        assert!((run.final_fairness() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn uniform_feedback_converges_to_fairness() {
        let params = p();
        let n = params.n_flows as usize;
        // Wildly skewed start: one hog, the rest trickling.
        let mut init = vec![0.02 * params.capacity / n as f64; n];
        init[0] = 0.8 * params.capacity;
        let sys = HeteroBcn::new(params.clone(), FeedbackModel::Uniform);
        let run = sys.run_canonical(&init, 25.0);
        let start_fairness = run.fairness[0];
        let end_fairness = run.final_fairness();
        assert!(start_fairness < 0.4, "start {start_fairness}");
        assert!(end_fairness > 0.9, "end fairness {end_fairness}");
    }

    #[test]
    fn rate_proportional_feedback_also_converges() {
        // The protocol-faithful model: fairness comes from the decrease
        // side (faster flows sampled more often).
        let params = p();
        let n = params.n_flows as usize;
        let mut init = vec![0.02 * params.capacity / n as f64; n];
        init[0] = 0.8 * params.capacity;
        let sys = HeteroBcn::new(params.clone(), FeedbackModel::RateProportional);
        let run = sys.run_canonical(&init, 25.0);
        assert!(run.final_fairness() > 0.85, "end fairness {}", run.final_fairness());
    }

    #[test]
    fn aggregate_dynamics_insensitive_to_distribution() {
        // Same aggregate initial rate, different splits: the queue peak
        // is nearly the same (the aggregate obeys the planar model as
        // long as sigma feedback is uniform).
        let params = p();
        let n = params.n_flows as usize;
        let sys = HeteroBcn::new(params.clone(), FeedbackModel::Uniform);
        let even = sys.run_canonical(&vec![params.fair_share(); n], 1.5);
        let mut skew = vec![0.5 * params.fair_share(); n];
        skew[0] = params.fair_share() * (1.0 + 0.5 * (n as f64 - 1.0));
        let skewed = sys.run_canonical(&skew, 1.5);
        let gap = (even.max_queue - skewed.max_queue).abs() / even.max_queue;
        assert!(gap < 0.02, "distribution changed aggregate peak by {gap}");
    }

    #[test]
    fn rates_never_negative_and_queue_bounded() {
        let params = p();
        let n = params.n_flows as usize;
        let sys = HeteroBcn::new(params.clone(), FeedbackModel::RateProportional);
        let run = sys.run_canonical(&vec![2.0 * params.fair_share(); n], 2.0);
        for rates in &run.rates {
            assert!(rates.iter().all(|r| *r >= 0.0));
        }
        for q in &run.queue {
            assert!((0.0..=params.buffer).contains(q));
        }
    }

    #[test]
    #[should_panic(expected = "one initial rate per flow")]
    fn rejects_wrong_rate_count() {
        let params = p();
        let sys = HeteroBcn::new(params, FeedbackModel::Uniform);
        let _ = sys.run(0.0, &[1.0, 2.0], 1.0, 1e-3, 1);
    }
}
