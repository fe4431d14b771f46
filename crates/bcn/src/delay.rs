//! Propagation-delay extension of the BCN fluid model (assumption
//! ablation).
//!
//! The paper neglects propagation delay, arguing that in a data center it
//! is microseconds against queueing delays of tens to hundreds of
//! microseconds. This module quantifies when that assumption holds: the
//! feedback loop becomes the delay-differential system
//!
//! ```text
//! dx/dt = y(t)
//! dy/dt = F_region( s(t - tau) ),     s = x + k y
//! ```
//!
//! where `tau` lumps the backward (BCN message) and forward (rate to
//! queue) propagation delays. Integration is by the method of steps:
//! fixed-step RK4 over one delay interval at a time, with the delayed
//! state read from a linearly interpolated history buffer.

use crate::model::Linearity;
use crate::params::BcnParams;

/// The delayed BCN fluid system.
#[derive(Debug, Clone, PartialEq)]
pub struct DelayedBcn {
    params: BcnParams,
    tau: f64,
    linearity: Linearity,
}

/// Result of a delayed-model run.
#[derive(Debug, Clone, PartialEq)]
pub struct DelayRun {
    /// Sample times.
    pub times: Vec<f64>,
    /// States `(x, y)` in deviation coordinates.
    pub states: Vec<[f64; 2]>,
    /// Supremum of `x` over the run (excluding `t = 0`).
    pub max_x: f64,
    /// Infimum of `x` over the run (excluding `t = 0`).
    pub min_x: f64,
    /// Whether the final amplitude is below the initial amplitude
    /// (a pragmatic convergence indicator).
    pub contracting: bool,
}

impl DelayRun {
    /// Exact strong-stability check of this trace against the buffer
    /// walls of `params`.
    #[must_use]
    pub fn strongly_stable(&self, params: &BcnParams) -> bool {
        self.max_x < params.buffer - params.q0 && self.min_x > -params.q0
    }
}

impl DelayedBcn {
    /// Builds the delayed model with round-trip feedback delay `tau`
    /// seconds (full nonlinear decrease law).
    ///
    /// # Panics
    ///
    /// Panics if `tau` is negative or non-finite.
    #[must_use]
    pub fn new(params: BcnParams, tau: f64) -> Self {
        assert!(tau.is_finite() && tau >= 0.0, "delay must be non-negative");
        Self { params, tau, linearity: Linearity::FullNonlinear }
    }

    /// Switches to the linearised decrease law.
    #[must_use]
    pub fn linearized(mut self) -> Self {
        self.linearity = Linearity::Linearized;
        self
    }

    /// The configured delay.
    #[must_use]
    pub fn tau(&self) -> f64 {
        self.tau
    }

    /// The parameter set.
    #[must_use]
    pub fn params(&self) -> &BcnParams {
        &self.params
    }

    /// Integrates from `p0` for `t_end` seconds with step `dt`
    /// (history before `t = 0` is frozen at `p0`).
    ///
    /// # Panics
    ///
    /// Panics if `dt` or `t_end` is non-positive, or if `dt > tau / 4`
    /// with a nonzero delay (the history interpolation needs several
    /// samples per delay interval).
    #[must_use]
    pub fn run(&self, p0: [f64; 2], t_end: f64, dt: f64) -> DelayRun {
        assert!(dt > 0.0 && t_end > 0.0, "dt and t_end must be positive");
        if self.tau > 0.0 {
            assert!(
                dt <= self.tau / 4.0,
                "dt ({dt}) too coarse for delay {}; need dt <= tau/4",
                self.tau
            );
        }
        let p = &self.params;
        let k = p.k();
        let n_steps = (t_end / dt).ceil() as usize;
        let lag = if self.tau > 0.0 { (self.tau / dt).round() as usize } else { 0 };

        let mut states: Vec<[f64; 2]> = Vec::with_capacity(n_steps + 1);
        states.push(p0);
        let mut max_x = f64::NEG_INFINITY;
        let mut min_x = f64::INFINITY;

        // Aggregate-rate form of the region law, driven by a delayed s.
        let deriv = |z: [f64; 2], s_delayed: f64| -> [f64; 2] {
            let sigma = -s_delayed;
            let dy = if sigma > 0.0 {
                p.a() * sigma
            } else {
                match self.linearity {
                    Linearity::FullNonlinear => p.b() * sigma * (z[1] + p.capacity),
                    Linearity::Linearized => p.b() * sigma * p.capacity,
                }
            };
            [z[1], dy]
        };
        let delayed_s = |states: &[[f64; 2]], step: usize| -> f64 {
            let idx = step.saturating_sub(lag);
            let z = states[idx];
            z[0] + k * z[1]
        };

        for step in 0..n_steps {
            let z = states[step];
            let s_d = delayed_s(&states, step);
            // RK4 with the delayed input held constant across the step
            // (consistent first-order treatment of the delay term; the
            // state part remains fourth-order).
            let k1 = deriv(z, s_d);
            let k2 = deriv([z[0] + 0.5 * dt * k1[0], z[1] + 0.5 * dt * k1[1]], s_d);
            let k3 = deriv([z[0] + 0.5 * dt * k2[0], z[1] + 0.5 * dt * k2[1]], s_d);
            let k4 = deriv([z[0] + dt * k3[0], z[1] + dt * k3[1]], s_d);
            let z_new = [
                z[0] + dt / 6.0 * (k1[0] + 2.0 * k2[0] + 2.0 * k3[0] + k4[0]),
                z[1] + dt / 6.0 * (k1[1] + 2.0 * k2[1] + 2.0 * k3[1] + k4[1]),
            ];
            states.push(z_new);
            max_x = max_x.max(z_new[0]);
            min_x = min_x.min(z_new[0]);
        }

        let times: Vec<f64> = (0..states.len()).map(|i| i as f64 * dt).collect();
        let amp = |z: &[f64; 2]| z[0].abs().max(k * z[1].abs());
        let initial_amp = amp(&p0).max(1e-30);
        // Compare the last tenth of the run against the start.
        let tail_start = states.len() * 9 / 10;
        let tail_amp = states[tail_start..].iter().map(amp).fold(0.0_f64, f64::max);
        DelayRun { times, states, max_x, min_x, contracting: tail_amp < initial_amp }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rounds::first_round;

    fn p() -> BcnParams {
        BcnParams::test_defaults()
    }

    #[test]
    fn zero_delay_matches_undelayed_analysis() {
        let params = p();
        let fr = first_round(&params).unwrap();
        let sys = DelayedBcn::new(params.clone(), 0.0).linearized();
        let dt = 2e-5;
        let run = sys.run(params.initial_point(), 3.0, dt);
        assert!(
            (run.max_x - fr.max1_x).abs() < 5e-3 * fr.max1_x,
            "delayed(0) max {} vs closed form {}",
            run.max_x,
            fr.max1_x
        );
        assert!(run.contracting);
    }

    #[test]
    fn small_delay_barely_changes_first_round_overshoot() {
        // tau far below the rotation period: the paper's assumption. The
        // *first-round* maximum (which the strong-stability criterion is
        // built from) is essentially unchanged. Over long horizons even a
        // tiny delay matters because the loop's own damping per round is
        // comparable to the delay-induced phase lag — that sensitivity is
        // quantified by `large_delay_inflates_the_overshoot` and the
        // delay-ablation experiment.
        let params = p();
        let fr = first_round(&params).unwrap();
        let period = std::f64::consts::TAU / params.a().sqrt();
        let tau = period / 500.0;
        let one_round = fr.t_i1 + fr.t_d1 + 0.25 * period;
        let run = DelayedBcn::new(params.clone(), tau).linearized().run(
            params.initial_point(),
            one_round,
            tau / 8.0,
        );
        assert!(
            (run.max_x - fr.max1_x).abs() < 0.02 * fr.max1_x,
            "delayed({tau}) first-round max {} vs {}",
            run.max_x,
            fr.max1_x
        );
    }

    #[test]
    fn large_delay_inflates_the_overshoot() {
        // tau comparable to the rotation period destabilises the loop.
        let params = p();
        let fr = first_round(&params).unwrap();
        let period = std::f64::consts::TAU / params.a().sqrt();
        let tau = 0.5 * period;
        let run = DelayedBcn::new(params.clone(), tau).linearized().run(
            params.initial_point(),
            3.0,
            tau / 64.0,
        );
        assert!(
            run.max_x > 1.3 * fr.max1_x,
            "expected inflated overshoot: {} vs {}",
            run.max_x,
            fr.max1_x
        );
    }

    #[test]
    #[should_panic(expected = "too coarse")]
    fn rejects_coarse_step_for_delay() {
        let params = p();
        let _ = DelayedBcn::new(params.clone(), 1e-3).run(params.initial_point(), 1.0, 1e-3);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn rejects_negative_delay() {
        let _ = DelayedBcn::new(p(), -1.0);
    }
}
