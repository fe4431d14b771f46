//! Limit-cycle analysis of the BCN system (paper Fig. 7).
//!
//! In the *linearised* Case-1 system the round map on the switching line
//! is exactly linear, `P(s) = rho * s` (see [`crate::rounds`]): every
//! orbit is a closed cycle iff `rho = 1`, which for the BCN parameter
//! space happens only on the undamped boundary (`w -> 0`, removing the
//! queue-derivative feedback from `sigma`). The paper's Fig. 7 shows this
//! sustained, amplitude-preserving oscillation.
//!
//! The *full nonlinear* decrease law breaks homogeneity — the round map's
//! local ratio depends on amplitude — so isolated limit cycles become
//! possible; [`nonlinear_round_ratio`] measures that ratio with a Poincaré
//! return map on the switching line.

use phaseplane::poincare::{PoincareError, ReturnMap};

use crate::model::BcnFluid;
use crate::params::BcnParams;
use crate::rounds::round_ratio;

/// How close the linearised round ratio is to the limit-cycle condition
/// `rho = 1`; the paper's Fig. 7 regime is `|rho - 1| ~ 0`.
#[must_use]
pub fn distance_to_limit_cycle(params: &BcnParams) -> Option<f64> {
    round_ratio(params).map(|rho| (rho - 1.0).abs())
}

/// Searches for the sigma weight `w` at which the linearised round ratio
/// reaches the target value, by bisection over `[w_lo, w_hi]`.
///
/// `rho` decreases monotonically in `w` (more derivative feedback, more
/// damping), so this can drive the system towards the limit-cycle
/// boundary (`target = 1` is reached only as `w -> 0`, hence pass a target
/// slightly below 1 to obtain a slowly-converging, visually periodic
/// system like Fig. 7).
///
/// Returns `None` if the target is not bracketed.
#[must_use]
pub fn find_w_for_ratio(params: &BcnParams, target: f64, w_lo: f64, w_hi: f64) -> Option<f64> {
    assert!(w_lo > 0.0 && w_lo < w_hi, "need 0 < w_lo < w_hi");
    let rho_at = |w: f64| round_ratio(&params.clone().with_w(w));
    let g_lo = rho_at(w_lo)? - target;
    let g_hi = rho_at(w_hi)? - target;
    if g_lo.signum() == g_hi.signum() {
        return None;
    }
    let (mut lo, mut hi) = (w_lo, w_hi);
    let mut g_lo = g_lo;
    for _ in 0..200 {
        let mid = 0.5 * (lo + hi);
        if mid <= lo || mid >= hi {
            break;
        }
        let gm = rho_at(mid)? - target;
        if gm == 0.0 {
            return Some(mid);
        }
        if gm.signum() == g_lo.signum() {
            lo = mid;
            g_lo = gm;
        } else {
            hi = mid;
        }
    }
    Some(0.5 * (lo + hi))
}

/// Amplitude-dependent round ratio of the **full nonlinear** system: the
/// return-map ratio `P(s)/s` at switching-line coordinate `s`.
///
/// # Errors
///
/// Propagates [`PoincareError`] from the return-map integration.
pub fn nonlinear_round_ratio(sys: &BcnFluid, s: f64) -> Result<f64, PoincareError> {
    let map = ReturnMap::new(sys, sys.switching_line())
        .with_horizon(nonlinear_horizon(sys))
        .with_tol(1e-10);
    map.contraction_ratio(s)
}

fn nonlinear_horizon(sys: &BcnFluid) -> f64 {
    // A round takes ~pi/beta per region; allow 20 rounds of slack.
    let p = sys.params();
    let beta_i = (p.a()).sqrt();
    let beta_d = (p.b() * p.capacity).sqrt();
    20.0 * std::f64::consts::PI * (1.0 / beta_i + 1.0 / beta_d)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p() -> BcnParams {
        BcnParams::test_defaults()
    }

    #[test]
    fn defaults_are_not_a_limit_cycle() {
        let d = distance_to_limit_cycle(&p()).unwrap();
        assert!(d > 1e-3, "distance {d}");
    }

    #[test]
    fn ratio_increases_towards_one_as_w_shrinks() {
        let rho_small_w = round_ratio(&p().with_w(1e-3)).unwrap();
        let rho_big_w = round_ratio(&p().with_w(4.0)).unwrap();
        assert!(rho_small_w > rho_big_w, "{rho_small_w} vs {rho_big_w}");
        assert!(rho_small_w > 0.99, "w -> 0 approaches the cycle: {rho_small_w}");
    }

    #[test]
    fn find_w_hits_requested_ratio() {
        let target = 0.9;
        let w = find_w_for_ratio(&p(), target, 1e-4, 10.0).expect("bracketed");
        let rho = round_ratio(&p().with_w(w)).unwrap();
        assert!((rho - target).abs() < 1e-6, "rho({w}) = {rho}");
    }

    #[test]
    fn nonlinear_ratio_close_to_linear_for_small_amplitude() {
        let params = p();
        let sys = BcnFluid::new(params.clone());
        let rho_lin = round_ratio(&params).unwrap();
        // Small orbit: nonlinearity negligible. s < 0 selects the ray the
        // canonical trajectory actually crosses on (x > 0, y < 0 for the
        // line direction convention).
        let s = -1e-3 * params.q0 * (1.0 + params.k() * params.k()).sqrt();
        let rho_nl = nonlinear_round_ratio(&sys, s).unwrap();
        assert!(
            (rho_nl - rho_lin).abs() < 0.05 * rho_lin,
            "nonlinear {rho_nl} vs linear {rho_lin}"
        );
    }
}
