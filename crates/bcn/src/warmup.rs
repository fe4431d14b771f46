//! The start-up (warm-up) stage of the BCN system (paper Section IV-C).
//!
//! From the cold start `q(0) = 0`, `r_i(0) = mu` with aggregate rate
//! `N mu < C`, the queue stays empty and the switch observes
//! `sigma = q0` (no backlog, no variation), so the aggregate rate ramps
//! linearly at slope `a q0` until it reaches capacity after
//!
//! ```text
//! T0 = (C - N mu) / (a q0)
//! ```
//!
//! after which the phase-plane motion proper starts from `(-q0, 0)`.
//! This is why the paper takes `(-q0, 0)` as the canonical initial point,
//! and why shrinking `q0` (good for strong stability, Theorem 1) prolongs
//! the start-up — the trade-off quantified here.

use crate::error::BcnError;
use crate::params::BcnParams;

/// The warm-up duration `T0 = (C - N mu)/(a q0)` for per-flow initial
/// rate `mu`.
///
/// # Errors
///
/// Returns [`BcnError::InvalidParameter`] if `mu` is negative or the
/// aggregate initial rate `N mu` already meets/exceeds capacity (then
/// there is no warm-up stage).
pub fn warmup_duration(params: &BcnParams, mu: f64) -> Result<f64, BcnError> {
    if !(mu.is_finite() && mu >= 0.0) {
        return Err(BcnError::InvalidParameter {
            name: "mu",
            reason: format!("initial rate must be non-negative and finite, got {mu}"),
        });
    }
    let aggregate = mu * f64::from(params.n_flows);
    if aggregate >= params.capacity {
        return Err(BcnError::InvalidParameter {
            name: "mu",
            reason: format!(
                "aggregate initial rate {aggregate} already at/above capacity {}",
                params.capacity
            ),
        });
    }
    Ok((params.capacity - aggregate) / (params.a() * params.q0))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn duration_matches_formula() {
        let p = BcnParams::paper_defaults();
        // Cold start: mu = 0 -> T0 = C/(a q0).
        let t0 = warmup_duration(&p, 0.0).unwrap();
        let expect = p.capacity / (p.a() * p.q0);
        assert!((t0 - expect).abs() < 1e-15 * expect);
    }

    #[test]
    fn duration_shrinks_with_larger_q0() {
        // The paper's trade-off: larger q0 -> faster start-up (but larger
        // overshoot; see stability tests).
        let p = BcnParams::paper_defaults();
        let t_small = warmup_duration(&p.clone().with_q0(1.0e6), 0.0).unwrap();
        let t_large = warmup_duration(&p.clone().with_q0(4.0e6), 0.0).unwrap();
        assert!(t_large < t_small);
        assert!((t_small / t_large - 4.0).abs() < 1e-12);
    }

    #[test]
    fn rejects_saturated_start() {
        let p = BcnParams::test_defaults();
        assert!(warmup_duration(&p, p.fair_share()).is_err());
        assert!(warmup_duration(&p, -1.0).is_err());
        assert!(warmup_duration(&p, f64::NAN).is_err());
    }

    #[test]
    fn warmup_agrees_with_saturating_simulation() {
        // The physical simulator should keep the queue empty during the
        // ramp and hit capacity at ~T0.
        use crate::simulate::SaturatingFluid;
        let p = BcnParams::test_defaults();
        let mu = 0.5 * p.fair_share();
        let t0 = warmup_duration(&p, mu).unwrap();
        let sim = SaturatingFluid::new(p.clone());
        let run = sim.run(0.0, mu * f64::from(p.n_flows), t0, t0 / 20_000.0, 100);
        // Queue stays empty during the entire warm-up.
        assert!(run.max_queue < 1e-6 * p.q0, "queue built early: {}", run.max_queue);
        // Aggregate rate reaches ~C at the end.
        let end_rate = *run.rate.last().unwrap();
        assert!((end_rate - p.capacity).abs() < 5e-3 * p.capacity, "end rate {end_rate}");
    }
}
