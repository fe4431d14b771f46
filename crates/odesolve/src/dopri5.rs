//! Adaptive Dormand–Prince 5(4) embedded Runge–Kutta pair.

use crate::vecn::{all_finite, axpy_mut, error_norm};
use crate::{Ode, SolveError};

// Butcher tableau of the Dormand–Prince 5(4) pair (Hairer, Nørsett & Wanner,
// "Solving Ordinary Differential Equations I", Table 5.2).
const C: [f64; 7] = [0.0, 1.0 / 5.0, 3.0 / 10.0, 4.0 / 5.0, 8.0 / 9.0, 1.0, 1.0];
const A: [[f64; 6]; 7] = [
    [0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
    [1.0 / 5.0, 0.0, 0.0, 0.0, 0.0, 0.0],
    [3.0 / 40.0, 9.0 / 40.0, 0.0, 0.0, 0.0, 0.0],
    [44.0 / 45.0, -56.0 / 15.0, 32.0 / 9.0, 0.0, 0.0, 0.0],
    [19372.0 / 6561.0, -25360.0 / 2187.0, 64448.0 / 6561.0, -212.0 / 729.0, 0.0, 0.0],
    [9017.0 / 3168.0, -355.0 / 33.0, 46732.0 / 5247.0, 49.0 / 176.0, -5103.0 / 18656.0, 0.0],
    [35.0 / 384.0, 0.0, 500.0 / 1113.0, 125.0 / 192.0, -2187.0 / 6784.0, 11.0 / 84.0],
];
/// 5th-order solution weights (identical to the last row of `A`: FSAL).
const B5: [f64; 7] =
    [35.0 / 384.0, 0.0, 500.0 / 1113.0, 125.0 / 192.0, -2187.0 / 6784.0, 11.0 / 84.0, 0.0];
/// Error weights `b5 - b4`.
const E: [f64; 7] = [
    71.0 / 57600.0,
    0.0,
    -71.0 / 16695.0,
    71.0 / 1920.0,
    -17253.0 / 339200.0,
    22.0 / 525.0,
    -1.0 / 40.0,
];

/// Result of one accepted step from `(t, y)`.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct StepOutcome<const N: usize> {
    /// Time at the end of the accepted step.
    pub(crate) t_new: f64,
    /// State at the end of the accepted step.
    pub(crate) y_new: [f64; N],
    /// Derivative `f(t_new, y_new)` at the end of the step (FSAL), used
    /// for Hermite dense output.
    pub(crate) f_new: [f64; N],
    /// Step size the controller suggests for the next attempt.
    pub(crate) h_next: f64,
}

/// Adaptive Dormand–Prince 5(4) stepper with a PI step-size controller.
///
/// The workhorse integrator of this crate: 5th-order accurate with an
/// embedded 4th-order error estimate, first-same-as-last (the derivative at
/// the step end is free), and a proportional–integral controller that keeps
/// step-size oscillation in check near switching surfaces.
///
/// # Example
///
/// ```
/// use odesolve::{integrate, Dopri5, Options};
///
/// let sol = integrate(
///     &|_t: f64, y: &[f64; 2]| [y[1], -y[0]],
///     0.0,
///     [0.0, 1.0],
///     std::f64::consts::PI,
///     &mut Dopri5::with_tolerances(1e-10, 1e-10),
///     &Options::default(),
/// )
/// .unwrap();
/// // sin(pi) = 0
/// assert!(sol.last_state()[0].abs() < 1e-8);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Dopri5 {
    atol: f64,
    rtol: f64,
    /// Error norm of the previous accepted step (PI controller memory).
    prev_err: f64,
    safety: f64,
    min_factor: f64,
    max_factor: f64,
    /// Trial steps rejected since the last `take_rejections` drain.
    rejections: u32,
    /// Error norm of the most recent accepted step.
    last_en: f64,
}

impl Dopri5 {
    /// Creates a stepper with default tolerances `atol = rtol = 1e-9`.
    #[must_use]
    pub fn new() -> Self {
        Self::with_tolerances(1e-9, 1e-9)
    }

    /// Creates a stepper with the given absolute and relative tolerances.
    ///
    /// # Panics
    ///
    /// Panics if either tolerance is not strictly positive and finite.
    #[must_use]
    pub fn with_tolerances(atol: f64, rtol: f64) -> Self {
        assert!(atol.is_finite() && atol > 0.0, "atol must be positive");
        assert!(rtol.is_finite() && rtol > 0.0, "rtol must be positive");
        Self {
            atol,
            rtol,
            prev_err: 1.0,
            safety: 0.9,
            min_factor: 0.2,
            max_factor: 5.0,
            rejections: 0,
            last_en: f64::NAN,
        }
    }

    /// One trial step; returns `(y_new, f_last_stage, err_norm)`.
    fn try_step<const N: usize>(
        &self,
        ode: &dyn Ode<N>,
        t: f64,
        y: &[f64; N],
        f: &[f64; N],
        h: f64,
    ) -> ([f64; N], [f64; N], f64) {
        let mut k = [[0.0; N]; 7];
        k[0] = *f;
        for s in 1..7 {
            let mut ys = *y;
            for (j, kj) in k.iter().enumerate().take(s) {
                if A[s][j] != 0.0 {
                    axpy_mut(&mut ys, h * A[s][j], kj);
                }
            }
            k[s] = ode.rhs(t + C[s] * h, &ys);
        }
        let mut y_new = *y;
        for (s, ks) in k.iter().enumerate() {
            if B5[s] != 0.0 {
                axpy_mut(&mut y_new, h * B5[s], ks);
            }
        }
        let mut err = [0.0; N];
        for (s, ks) in k.iter().enumerate() {
            if E[s] != 0.0 {
                axpy_mut(&mut err, h * E[s], ks);
            }
        }
        let en = error_norm(&err, y, &y_new, self.atol, self.rtol);
        (y_new, k[6], en)
    }

    /// Advances by one *accepted* step of size at most `h`, starting from
    /// `(t, y)` with known derivative `f = rhs(t, y)`. Rejected trials are
    /// retried with smaller sizes until the local error estimate passes;
    /// the step taken is `outcome.t_new - t`, which is `<= h` and `> 0`.
    ///
    /// # Errors
    ///
    /// [`SolveError::StepSizeUnderflow`] if no acceptable step exists
    /// above the floating-point resolution, [`SolveError::NonFiniteState`]
    /// if the RHS produced NaN/inf.
    pub(crate) fn step<const N: usize>(
        &mut self,
        ode: &dyn Ode<N>,
        t: f64,
        y: &[f64; N],
        f: &[f64; N],
        h: f64,
    ) -> Result<StepOutcome<N>, SolveError> {
        if !(h.is_finite() && h > 0.0) {
            return Err(SolveError::BadInput(format!("non-positive step {h}")));
        }
        let mut h_try = h;
        for _ in 0..64 {
            let (y_new, f_last, en) = self.try_step(ode, t, y, f, h_try);
            if !all_finite(&y_new) || !en.is_finite() {
                self.rejections += 1;
                h_try *= 0.25;
                if t + h_try == t {
                    return Err(SolveError::NonFiniteState { t });
                }
                continue;
            }
            if en <= 1.0 {
                // PI controller (Gustafsson): factor from current and
                // previous error norms, exponents 0.7/5 and 0.4/5.
                let e = en.max(1e-10);
                let factor = self.safety * e.powf(-0.7 / 5.0) * self.prev_err.powf(0.4 / 5.0);
                let factor = factor.clamp(self.min_factor, self.max_factor);
                self.prev_err = e;
                self.last_en = en;
                // FSAL: k7 was evaluated at (t + h, y_new) and B5 row ==
                // A[6], so f_last IS rhs(t_new, y_new).
                return Ok(StepOutcome {
                    t_new: t + h_try,
                    y_new,
                    f_new: f_last,
                    h_next: h_try * factor,
                });
            }
            self.rejections += 1;
            let factor = (self.safety * en.powf(-0.2)).clamp(self.min_factor, 1.0);
            h_try *= factor;
            if t + h_try == t {
                return Err(SolveError::StepSizeUnderflow { t, h: h_try });
            }
        }
        Err(SolveError::StepSizeUnderflow { t, h: h_try })
    }

    /// Clears the controller memory (the vector field changed
    /// discontinuously, e.g. after a hybrid-mode switch).
    pub(crate) fn reset(&mut self) {
        self.prev_err = 1.0;
        self.last_en = f64::NAN;
    }

    /// Trial steps rejected since the last call; resets the counter.
    pub(crate) fn take_rejections(&mut self) -> u32 {
        std::mem::take(&mut self.rejections)
    }

    /// Scaled error norm of the most recent accepted step (`<= 1` passed
    /// the tolerance test).
    pub(crate) fn last_error_estimate(&self) -> f64 {
        self.last_en
    }

    /// An initial step-size guess for a run from `(t0, y0)` with derivative
    /// `f0` towards `t_end`: Hairer et al. II.4, balancing `|y|/|f|` scaled
    /// by the tolerances.
    pub(crate) fn initial_step<const N: usize>(
        &self,
        t0: f64,
        y0: &[f64; N],
        f0: &[f64; N],
        t_end: f64,
    ) -> f64 {
        let span = (t_end - t0).abs();
        if span == 0.0 {
            return f64::MIN_POSITIVE;
        }
        let mut d0 = 0.0_f64;
        let mut d1 = 0.0_f64;
        for i in 0..N {
            let sc = self.atol + self.rtol * y0[i].abs();
            d0 = d0.max((y0[i] / sc).abs());
            d1 = d1.max((f0[i] / sc).abs());
        }
        let h0 = if d0 < 1e-5 || d1 < 1e-5 { 1e-6 * span } else { 0.01 * d0 / d1 };
        h0.min(span)
    }
}

impl Default for Dopri5 {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drive<const N: usize>(
        ode: impl Fn(f64, &[f64; N]) -> [f64; N],
        mut t: f64,
        mut y: [f64; N],
        t_end: f64,
        st: &mut Dopri5,
    ) -> [f64; N] {
        let mut f = ode(t, &y);
        let mut h = st.initial_step(t, &y, &f, t_end);
        while t < t_end {
            h = h.min(t_end - t);
            let out = st.step(&ode, t, &y, &f, h).unwrap();
            t = out.t_new;
            y = out.y_new;
            f = out.f_new;
            h = out.h_next;
        }
        y
    }

    #[test]
    fn exponential_decay_meets_tolerance() {
        let mut st = Dopri5::with_tolerances(1e-10, 1e-10);
        let y = drive(|_t, y: &[f64; 1]| [-y[0]], 0.0, [1.0], 3.0, &mut st);
        assert!((y[0] - (-3.0f64).exp()).abs() < 1e-9);
    }

    #[test]
    fn oscillator_energy_preserved_within_tolerance() {
        let mut st = Dopri5::with_tolerances(1e-11, 1e-11);
        let y = drive(
            |_t, y: &[f64; 2]| [y[1], -y[0]],
            0.0,
            [1.0, 0.0],
            20.0 * std::f64::consts::TAU,
            &mut st,
        );
        let energy = y[0] * y[0] + y[1] * y[1];
        assert!((energy - 1.0).abs() < 1e-7, "energy drift {energy}");
    }

    #[test]
    fn fsal_derivative_matches_rhs() {
        let ode = |_t: f64, y: &[f64; 1]| [-2.0 * y[0]];
        let mut st = Dopri5::new();
        let f0 = ode(0.0, &[1.0]);
        let out = st.step(&ode, 0.0, &[1.0], &f0, 0.05).unwrap();
        let f_direct = ode(out.t_new, &out.y_new);
        assert!((out.f_new[0] - f_direct[0]).abs() < 1e-14);
    }

    #[test]
    fn tighter_tolerance_gives_smaller_error() {
        let exact = (-5.0f64).exp();
        let run = |tol: f64| {
            let mut st = Dopri5::with_tolerances(tol, tol);
            let y = drive(|_t, y: &[f64; 1]| [-y[0]], 0.0, [1.0], 5.0, &mut st);
            (y[0] - exact).abs()
        };
        let loose = run(1e-5);
        let tight = run(1e-11);
        assert!(tight < loose, "tight {tight} vs loose {loose}");
        assert!(tight < 1e-9);
    }

    #[test]
    #[should_panic(expected = "rtol must be positive")]
    fn rejects_bad_tolerance() {
        let _ = Dopri5::with_tolerances(1e-9, 0.0);
    }

    #[test]
    fn stiffish_problem_completes() {
        // Moderately stiff: y' = -50(y - cos t). Explicit RK must shrink
        // steps but should still finish correctly.
        let mut st = Dopri5::with_tolerances(1e-8, 1e-8);
        let y = drive(|t: f64, y: &[f64; 1]| [-50.0 * (y[0] - t.cos())], 0.0, [0.0], 1.5, &mut st);
        // Reference from the exact solution of the linear ODE:
        // y = (2500 cos t + 50 sin t)/2501 - (2500/2501) e^{-50 t}
        let t = 1.5_f64;
        let exact =
            (2500.0 * t.cos() + 50.0 * t.sin()) / 2501.0 - 2500.0 / 2501.0 * (-50.0 * t).exp();
        assert!((y[0] - exact).abs() < 1e-6);
    }
}
