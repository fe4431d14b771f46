//! Poincaré sections and return maps.
//!
//! A planar limit cycle shows up as a fixed point of the *return map* on a
//! section: start on a ray through the origin, flow once around, and record
//! where the trajectory pierces the same ray again. The reproduced paper's
//! Fig. 7 limit cycle is exactly such a fixed point, with the BCN switching
//! line itself as the natural section.

use std::error::Error;
use std::fmt;

use odesolve::{Direction, EventSpec, SolveError};

use crate::switching::SwitchingLine;
use crate::system::PlaneSystem;
use crate::trajectory::{trajectory_with_events, TrajectoryOptions};

/// Failure modes of return-map evaluation.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum PoincareError {
    /// The flow is tangent to the section at the start point, so a
    /// crossing orientation cannot be defined.
    TangentStart {
        /// Section coordinate of the offending start point.
        s: f64,
    },
    /// The trajectory did not return to the section within the horizon.
    NoReturn {
        /// The horizon that was exhausted.
        horizon: f64,
    },
    /// The underlying integration failed.
    Solver(SolveError),
}

impl fmt::Display for PoincareError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PoincareError::TangentStart { s } => {
                write!(f, "flow tangent to section at coordinate {s}")
            }
            PoincareError::NoReturn { horizon } => {
                write!(f, "no return to section within horizon {horizon}")
            }
            PoincareError::Solver(e) => write!(f, "integration failed: {e}"),
        }
    }
}

impl Error for PoincareError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            PoincareError::Solver(e) => Some(e),
            _ => None,
        }
    }
}

impl From<SolveError> for PoincareError {
    fn from(e: SolveError) -> Self {
        PoincareError::Solver(e)
    }
}

/// One application of the return map.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReturnCrossing {
    /// Section coordinate where the trajectory pierced the section again.
    pub s: f64,
    /// Time of flight between the two crossings (the orbit period for a
    /// fixed point).
    pub period: f64,
}

/// The Poincaré return map of a planar system on a line through the origin.
///
/// The section is one *ray* of the line: a return is the next crossing with
/// the same orientation (sign of the normal velocity), which for a flow
/// winding around the origin is the next pierce of the same ray.
#[derive(Debug, Clone, PartialEq)]
pub struct ReturnMap<'a, S> {
    sys: &'a S,
    line: SwitchingLine,
    /// Maximum flow time to wait for a return.
    pub horizon: f64,
    /// Integrator tolerance.
    pub tol: f64,
}

impl<'a, S: PlaneSystem> ReturnMap<'a, S> {
    /// Creates the return map of `sys` on the ray family of `line`.
    #[must_use]
    pub fn new(sys: &'a S, line: SwitchingLine) -> Self {
        Self { sys, line, horizon: 1e3, tol: 1e-10 }
    }

    /// Sets the maximum flow time to wait for a return.
    #[must_use]
    pub fn with_horizon(mut self, horizon: f64) -> Self {
        self.horizon = horizon;
        self
    }

    /// Sets the integrator tolerance.
    #[must_use]
    pub fn with_tol(mut self, tol: f64) -> Self {
        self.tol = tol;
        self
    }

    /// Applies the map to the point at section coordinate `s`.
    ///
    /// # Errors
    ///
    /// [`PoincareError::TangentStart`] if the flow does not cross the
    /// section at `s`, [`PoincareError::NoReturn`] if the horizon elapses
    /// first, or [`PoincareError::Solver`] on integration failure.
    pub fn apply(&self, s: f64) -> Result<ReturnCrossing, PoincareError> {
        let p0 = self.line.point_at(s);
        let f0 = self.sys.deriv(p0);
        let n = self.line.normal();
        let normal_speed = n[0] * f0[0] + n[1] * f0[1];
        if normal_speed == 0.0 {
            return Err(PoincareError::TangentStart { s });
        }
        let dir = if normal_speed > 0.0 { Direction::Rising } else { Direction::Falling };
        let line = self.line;
        let guard = move |_t: f64, p: &[f64; 2]| line.signed_value(*p);
        let events = [EventSpec::terminal(&guard).with_direction(dir)];
        let opts = TrajectoryOptions::default().with_t_end(self.horizon).with_tol(self.tol);
        let sol = trajectory_with_events(self.sys, p0, &events, &opts)?;
        if sol.events().is_empty() {
            return Err(PoincareError::NoReturn { horizon: self.horizon });
        }
        let hit = &sol.events()[0];
        Ok(ReturnCrossing { s: self.line.coordinate_of(hit.y), period: hit.t })
    }

    /// The per-revolution contraction ratio `P(s)/s` at coordinate `s`.
    ///
    /// For a linear flow this is independent of `s`; a value below 1 means
    /// trajectories spiral inwards, above 1 outwards, and exactly 1 is the
    /// limit-cycle (center-like) condition.
    ///
    /// # Errors
    ///
    /// Same as [`Self::apply`], plus `TangentStart` for `s = 0`.
    pub fn contraction_ratio(&self, s: f64) -> Result<f64, PoincareError> {
        if s == 0.0 {
            return Err(PoincareError::TangentStart { s });
        }
        Ok(self.apply(s)?.s / s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Damped rotation: spiral sink, contraction < 1, no limit cycle.
    fn damped(p: [f64; 2]) -> [f64; 2] {
        [p[1], -p[0] - 0.2 * p[1]]
    }

    /// The Van der Pol oscillator (mu = 1): the canonical stable limit
    /// cycle with amplitude ~2.
    fn van_der_pol(p: [f64; 2]) -> [f64; 2] {
        [p[1], (1.0 - p[0] * p[0]) * p[1] - p[0]]
    }

    #[test]
    fn spiral_sink_contracts() {
        let map = ReturnMap::new(&damped, SwitchingLine::new(0.0, 1.0));
        let rho = map.contraction_ratio(1.0).unwrap();
        assert!(rho < 1.0 && rho > 0.0, "contraction {rho}");
        // Ratio is s-independent for a linear flow.
        let rho2 = map.contraction_ratio(0.1).unwrap();
        assert!((rho - rho2).abs() < 1e-6);
    }

    #[test]
    fn harmonic_center_has_unit_ratio_and_period_tau() {
        let center = |p: [f64; 2]| [p[1], -p[0]];
        let map = ReturnMap::new(&center, SwitchingLine::new(0.0, 1.0)).with_tol(1e-11);
        let c = map.apply(1.0).unwrap();
        assert!((c.s - 1.0).abs() < 1e-8, "returned to {}", c.s);
        assert!((c.period - std::f64::consts::TAU).abs() < 1e-8);
    }

    #[test]
    fn finds_van_der_pol_limit_cycle() {
        // Section: the positive x-axis (line y = 0, coordinate = x up to
        // orientation). The return map pushes starts inside the cycle out
        // and starts outside it in, and returns to itself on the cycle.
        let line = SwitchingLine::new(0.0, 1.0);
        let map = ReturnMap::new(&van_der_pol, line).with_horizon(100.0).with_tol(1e-10);
        assert!(map.contraction_ratio(0.5).unwrap() > 1.0);
        let inward = map.contraction_ratio(4.0).unwrap();
        assert!(inward > 0.0 && inward < 1.0, "ratio {inward}");
        // Known amplitude ~2.009 and period ~6.66 for mu = 1.
        let on_cycle = map.apply(2.0086).unwrap();
        assert!((on_cycle.s.abs() - 2.0086).abs() < 0.01, "returned to {}", on_cycle.s);
        assert!((on_cycle.period - 6.66).abs() < 0.1, "period {}", on_cycle.period);
    }

    #[test]
    fn no_cycle_in_sink() {
        // The displacement P(s) - s keeps one sign across the bracket.
        let map = ReturnMap::new(&damped, SwitchingLine::new(0.0, 1.0));
        for s in [0.5, 1.0, 2.0, 3.0] {
            let ratio = map.contraction_ratio(s).unwrap();
            assert!(ratio > 0.0 && ratio < 1.0, "ratio {ratio} at {s}");
        }
    }

    #[test]
    fn tangent_start_is_detected() {
        // Field parallel to the section everywhere on it: f = (1, 0) on
        // the x-axis section.
        let shear = |_p: [f64; 2]| [1.0, 0.0];
        let map = ReturnMap::new(&shear, SwitchingLine::new(0.0, 1.0));
        let err = map.apply(1.0).unwrap_err();
        assert!(matches!(err, PoincareError::TangentStart { .. }));
    }

    #[test]
    fn no_return_reports_horizon() {
        // Pure outflow away from the section: never comes back.
        let outflow = |p: [f64; 2]| [0.0, p[1].abs() + 1.0];
        let map = ReturnMap::new(&outflow, SwitchingLine::new(0.0, 1.0)).with_horizon(1.0);
        let err = map.apply(1.0).unwrap_err();
        assert!(matches!(err, PoincareError::NoReturn { .. }), "{err}");
    }

    #[test]
    fn error_display() {
        let e = PoincareError::NoReturn { horizon: 5.0 };
        assert!(e.to_string().contains("horizon"));
        let e = PoincareError::Solver(SolveError::NonFiniteState { t: 0.0 });
        assert!(e.to_string().contains("integration failed"));
    }
}
