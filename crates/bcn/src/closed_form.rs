//! Exact region-local solutions of the linearised BCN subsystems.
//!
//! Inside one control region the linearised dynamics are
//! `dz/dt = J z` with `J` the companion matrix of
//! `lambda^2 + k n lambda + n = 0` (paper Eq. 35). This module provides:
//!
//! * [`RegionFlow`] — the exact flow `z(t) = e^{Jt} z(0)` through the
//!   spectrally robust matrix exponential, valid in all three eigenvalue
//!   cases, plus first-crossing solvers for the switching line and for
//!   `y = 0` (queue extrema).
//! * [`SpiralForm`], [`NodeForm`], [`CriticalForm`] — the paper's explicit
//!   solution forms (Eqs. 12, 21, 29) with branch-corrected coefficients,
//!   kept as an executable transcription of the paper and cross-checked
//!   against [`RegionFlow`] in the test suite.

use phaseplane::{Eigen2, Mat2};

/// Spectral data of one region's companion matrix.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Spectrum {
    /// Complex pair `alpha ± i beta` (`beta > 0`): spiral region.
    Focus {
        /// Real part (negative for BCN).
        alpha: f64,
        /// Imaginary part (positive).
        beta: f64,
    },
    /// Distinct real `l1 < l2 < 0`: node region.
    Node {
        /// Smaller (more negative) eigenvalue.
        l1: f64,
        /// Larger eigenvalue.
        l2: f64,
    },
    /// Repeated real eigenvalue `l = -1/k`: critical region.
    Critical {
        /// The eigenvalue.
        l: f64,
    },
}

/// The exact linear flow of one BCN control region.
///
/// # Example
///
/// ```
/// use bcn::closed_form::RegionFlow;
///
/// // lambda^2 + 2 lambda + 10: stable focus at -1 ± 3i.
/// let flow = RegionFlow::from_mn(2.0, 10.0);
/// let z = flow.at(0.0, [1.0, 0.0]);
/// assert_eq!(z, [1.0, 0.0]);
/// // After a long time the state decays towards the origin.
/// let z = flow.at(10.0, [1.0, 0.0]);
/// assert!(z[0].abs() < 1e-3 && z[1].abs() < 1e-3);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RegionFlow {
    j: Mat2,
    spectrum: Spectrum,
}

impl RegionFlow {
    /// Builds the flow of `lambda^2 + m lambda + n = 0` in phase
    /// variables (companion form `[[0, 1], [-n, -m]]`).
    ///
    /// # Panics
    ///
    /// Panics unless `n` is positive and `m` non-negative, both finite
    /// (all BCN regions satisfy this; paper Proposition 1 — `m = 0` is
    /// the undamped `w = 0` center case).
    #[must_use]
    pub fn from_mn(m: f64, n: f64) -> Self {
        assert!(m.is_finite() && m >= 0.0, "m must be non-negative");
        assert!(n.is_finite() && n > 0.0, "n must be positive");
        let j = Mat2::companion(m, n);
        let spectrum = match j.eigen() {
            Eigen2::Complex { re, im } => Spectrum::Focus { alpha: re, beta: im },
            Eigen2::RealDistinct { l1, l2, .. } => Spectrum::Node { l1, l2 },
            Eigen2::RealRepeated { l, .. } => Spectrum::Critical { l },
        };
        Self { j, spectrum }
    }

    /// Builds the flow of a BCN region from its `k` and `n` constants
    /// (`m = k n`; paper Eq. 35).
    #[must_use]
    pub fn from_kn(k: f64, n: f64) -> Self {
        Self::from_mn(k * n, n)
    }

    /// The region's Jacobian (companion matrix).
    #[must_use]
    pub fn jacobian(&self) -> Mat2 {
        self.j
    }

    /// The spectral decomposition driving the flow.
    #[must_use]
    pub fn spectrum(&self) -> Spectrum {
        self.spectrum
    }

    /// The matrix exponential `e^{J t}`.
    #[must_use]
    pub fn exp(&self, t: f64) -> Mat2 {
        let i = Mat2::identity();
        match self.spectrum {
            Spectrum::Focus { alpha, beta } => {
                // e^{Jt} = e^{alpha t} [cos(beta t) I + sin(beta t)/beta (J - alpha I)]
                let e = (alpha * t).exp();
                let (s, c) = (beta * t).sin_cos();
                let shifted = self.j.add(&i.scale(-alpha));
                i.scale(c).add(&shifted.scale(s / beta)).scale(e)
            }
            Spectrum::Node { l1, l2 } => {
                // e^{Jt} = [e^{l2 t}(J - l1 I) - e^{l1 t}(J - l2 I)] / (l2 - l1)
                let e1 = (l1 * t).exp();
                let e2 = (l2 * t).exp();
                let m1 = self.j.add(&i.scale(-l1)).scale(e2);
                let m2 = self.j.add(&i.scale(-l2)).scale(e1);
                m1.add(&m2.scale(-1.0)).scale(1.0 / (l2 - l1))
            }
            Spectrum::Critical { l } => {
                // e^{Jt} = e^{l t} [I + t (J - l I)]
                let e = (l * t).exp();
                i.add(&self.j.add(&i.scale(-l)).scale(t)).scale(e)
            }
        }
    }

    /// The state at time `t` starting from `z0` at time zero.
    #[must_use]
    pub fn at(&self, t: f64, z0: [f64; 2]) -> [f64; 2] {
        self.exp(t).mul_vec(z0)
    }

    /// A natural time scale of the flow: one eighth of the rotation
    /// period for a focus, or the slow time constant for a node, used to
    /// pace crossing scans.
    #[must_use]
    pub fn scan_step(&self) -> f64 {
        match self.spectrum {
            Spectrum::Focus { beta, .. } => std::f64::consts::PI / (8.0 * beta),
            Spectrum::Node { l2, .. } => 0.125 / l2.abs(),
            Spectrum::Critical { l } => 0.125 / l.abs(),
        }
    }

    /// The first strictly positive time at which the scalar observable
    /// `g(z(t))` crosses zero, found by scanning at [`Self::scan_step`]
    /// resolution up to `t_max` and bisecting the first sign change.
    ///
    /// A sign-change scan alone silently skips any crossing *narrower
    /// than the scan step* (the observable dips through zero and back
    /// between two samples). A refinement pass guards against that: when
    /// three consecutive samples of the same sign form a dip towards
    /// zero, the dip's extremum is located by golden-section search and,
    /// if it pierces zero, the first crossing inside the dip is bisected.
    ///
    /// Returns `None` if no crossing occurs before `t_max` (e.g. an
    /// asymptotic node approach, the paper's Case 3 decrease leg).
    ///
    /// This is the general-observable solver; the switching-line
    /// observable of the BCN hot paths has a closed-form crossing time in
    /// [`crate::propagate::crossing_time`], which should be preferred.
    pub fn first_zero<G: Fn([f64; 2]) -> f64>(
        &self,
        z0: [f64; 2],
        g: G,
        t_max: f64,
    ) -> Option<f64> {
        let dt = self.scan_step();
        let eval = |t: f64| g(self.at(t, z0));
        let mut t_prev = 0.0;
        let mut g_prev = g(z0);
        // If we start exactly on the zero set, step off it first.
        if g_prev == 0.0 {
            t_prev = 1e-9 * dt;
            g_prev = eval(t_prev);
            if g_prev == 0.0 {
                return None; // degenerate: the observable vanishes identically
            }
        }
        // The sample before (t_prev, g_prev): the left shoulder of a
        // potential dip.
        let mut back: Option<(f64, f64)> = None;
        let mut t = dt;
        while t <= t_max {
            let g_now = eval(t);
            if g_now == 0.0 {
                return Some(t);
            }
            if g_now.signum() != g_prev.signum() {
                return Some(bisect_sign_change(&eval, t_prev, t));
            }
            // Refinement pass: |g| has a sampled local minimum at t_prev
            // with all three samples of one sign — a crossing narrower
            // than the scan step may hide between the shoulders.
            if let Some((t_back, g_back)) = back {
                let sign = g_prev.signum();
                if sign * (g_back - g_prev) > 0.0 && sign * (g_now - g_prev) > 0.0 {
                    let h = |tt: f64| sign * eval(tt);
                    let t_dip = golden_min(&h, t_back, t);
                    let h_dip = h(t_dip);
                    if h_dip == 0.0 {
                        return Some(t_dip);
                    }
                    if h_dip < 0.0 {
                        // The dip pierces zero: the first crossing lies
                        // between the left shoulder and the dip bottom.
                        return Some(bisect_sign_change(&eval, t_back, t_dip));
                    }
                }
            }
            back = Some((t_prev, g_prev));
            t_prev = t;
            g_prev = g_now;
            t += dt;
        }
        None
    }

    /// First positive time the flow from `z0` reaches the switching line
    /// `x + k y = 0`.
    #[must_use]
    pub fn time_to_switching_line(&self, z0: [f64; 2], k: f64, t_max: f64) -> Option<f64> {
        self.first_zero(z0, |z| z[0] + k * z[1], t_max)
    }
}

/// Bisects a bracketed sign change of `eval` down to floating-point
/// resolution. `eval(lo)` and `eval(hi)` must have opposite signs.
fn bisect_sign_change<F: Fn(f64) -> f64>(eval: &F, mut lo: f64, mut hi: f64) -> f64 {
    let mut g_lo = eval(lo);
    if g_lo == 0.0 {
        return lo;
    }
    for _ in 0..80 {
        let mid = 0.5 * (lo + hi);
        if mid <= lo || mid >= hi {
            break;
        }
        let gm = eval(mid);
        if gm == 0.0 {
            return mid;
        }
        if gm.signum() == g_lo.signum() {
            lo = mid;
            g_lo = gm;
        } else {
            hi = mid;
        }
    }
    0.5 * (lo + hi)
}

/// Golden-section search for the minimiser of a unimodal `h` on
/// `[lo, hi]`.
fn golden_min<F: Fn(f64) -> f64>(h: &F, mut lo: f64, mut hi: f64) -> f64 {
    const INV_PHI: f64 = 0.618_033_988_749_894_9;
    let mut c = hi - INV_PHI * (hi - lo);
    let mut d = lo + INV_PHI * (hi - lo);
    let mut hc = h(c);
    let mut hd = h(d);
    for _ in 0..80 {
        if hc <= hd {
            hi = d;
            d = c;
            hd = hc;
            c = hi - INV_PHI * (hi - lo);
            hc = h(c);
        } else {
            lo = c;
            c = d;
            hc = hd;
            d = lo + INV_PHI * (hi - lo);
            hd = h(d);
        }
        if hi - lo <= f64::EPSILON * hi.abs().max(1.0) {
            break;
        }
    }
    0.5 * (lo + hi)
}

/// The paper's explicit spiral solution (Eq. 12):
/// `x(t) = A e^{alpha t} cos(beta t + phi)`.
///
/// The amplitude `A` and phase `phi` follow the paper's definitions but
/// with the phase computed by `atan2`, which repairs the branch ambiguity
/// of the printed `-arctan(...)` formula for initial points with
/// `x(0) <= 0` (such as the canonical start `(-q0, 0)`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpiralForm {
    /// Real part of the eigenvalues.
    pub alpha: f64,
    /// Imaginary part of the eigenvalues.
    pub beta: f64,
    /// Amplitude coefficient `A >= 0`.
    pub a_coef: f64,
    /// Phase `phi`.
    pub phi: f64,
}

impl SpiralForm {
    /// Builds the spiral form for the focus with the given spectrum and
    /// initial point.
    ///
    /// # Panics
    ///
    /// Panics if `beta <= 0`.
    #[must_use]
    pub fn new(alpha: f64, beta: f64, z0: [f64; 2]) -> Self {
        assert!(beta > 0.0, "spiral form requires a complex pair (beta > 0)");
        let [x0, y0] = z0;
        // cos(phi) = x0 / A, sin(phi) = (alpha x0 - y0)/(A beta).
        let c = x0;
        let s = (alpha * x0 - y0) / beta;
        let a_coef = (c * c + s * s).sqrt();
        let phi = s.atan2(c);
        Self { alpha, beta, a_coef, phi }
    }

    /// Evaluates `(x(t), y(t))` from Eq. 12.
    #[must_use]
    pub fn at(&self, t: f64) -> [f64; 2] {
        let e = (self.alpha * t).exp();
        let th = self.beta * t + self.phi;
        let (sin, cos) = th.sin_cos();
        let x = self.a_coef * e * cos;
        let y = self.a_coef * e * (self.alpha * cos - self.beta * sin);
        [x, y]
    }
}

/// The paper's explicit node solution (Eq. 21):
/// `x(t) = A1 e^{l1 t} + A2 e^{l2 t}`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NodeForm {
    /// Smaller eigenvalue (`l1 < l2 < 0`).
    pub l1: f64,
    /// Larger eigenvalue.
    pub l2: f64,
    /// Coefficient of the fast mode `e^{l1 t}`.
    pub a1: f64,
    /// Coefficient of the slow mode `e^{l2 t}`.
    pub a2: f64,
}

impl NodeForm {
    /// Builds the node form for eigenvalues `l1 < l2` and initial point.
    ///
    /// # Panics
    ///
    /// Panics if `l1 >= l2`.
    #[must_use]
    pub fn new(l1: f64, l2: f64, z0: [f64; 2]) -> Self {
        assert!(l1 < l2, "node form requires distinct eigenvalues");
        let [x0, y0] = z0;
        let a1 = (l2 * x0 - y0) / (l2 - l1);
        let a2 = (l1 * x0 - y0) / (l1 - l2);
        Self { l1, l2, a1, a2 }
    }

    /// Evaluates `(x(t), y(t))` from Eq. 21.
    #[must_use]
    pub fn at(&self, t: f64) -> [f64; 2] {
        let e1 = (self.l1 * t).exp();
        let e2 = (self.l2 * t).exp();
        [self.a1 * e1 + self.a2 * e2, self.a1 * self.l1 * e1 + self.a2 * self.l2 * e2]
    }

    /// Whether the initial point lies on one of the straight-line
    /// eigendirection trajectories `y = l1 x` or `y = l2 x`
    /// (paper Eqs. 24–25).
    #[must_use]
    pub fn on_eigenline(&self) -> bool {
        self.a1 == 0.0 || self.a2 == 0.0
    }
}

/// The paper's explicit critical solution (Eq. 29):
/// `x(t) = (A3 + A4 t) e^{l t}`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CriticalForm {
    /// The repeated eigenvalue.
    pub l: f64,
    /// Coefficient `A3 = x(0)`.
    pub a3: f64,
    /// Coefficient `A4 = y(0) - l x(0)`.
    pub a4: f64,
}

impl CriticalForm {
    /// Builds the critical form for the repeated eigenvalue `l` and
    /// initial point.
    #[must_use]
    pub fn new(l: f64, z0: [f64; 2]) -> Self {
        let [x0, y0] = z0;
        Self { l, a3: x0, a4: y0 - l * x0 }
    }

    /// Evaluates `(x(t), y(t))` from Eq. 29.
    #[must_use]
    pub fn at(&self, t: f64) -> [f64; 2] {
        let e = (self.l * t).exp();
        [(self.a3 + self.a4 * t) * e, (self.a3 * self.l + self.a4 + self.a4 * self.l * t) * e]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TOL: f64 = 1e-9;

    fn assert_close(a: [f64; 2], b: [f64; 2], scale: f64) {
        assert!(
            (a[0] - b[0]).abs() <= TOL * scale && (a[1] - b[1]).abs() <= TOL * scale,
            "{a:?} vs {b:?}"
        );
    }

    #[test]
    fn exp_at_zero_is_identity() {
        for (m, n) in [(2.0, 10.0), (3.0, 2.0), (4.0, 4.0)] {
            let f = RegionFlow::from_mn(m, n);
            let e = f.exp(0.0);
            assert_close([e.a, e.b], [1.0, 0.0], 1.0);
            assert_close([e.c, e.d], [0.0, 1.0], 1.0);
        }
    }

    #[test]
    fn exp_semigroup_property() {
        for (m, n) in [(2.0, 10.0), (3.0, 2.0), (4.0, 4.0)] {
            let f = RegionFlow::from_mn(m, n);
            let z0 = [1.5, -0.3];
            let z_two_hops = f.at(0.7, f.at(0.4, z0));
            let z_direct = f.at(1.1, z0);
            assert_close(z_two_hops, z_direct, 1.0);
        }
    }

    #[test]
    fn flow_satisfies_the_ode() {
        // Finite-difference derivative of the flow matches J z.
        for (m, n) in [(2.0, 10.0), (3.0, 2.0), (4.0, 4.0)] {
            let f = RegionFlow::from_mn(m, n);
            let z0 = [0.8, 0.5];
            let t = 0.6;
            let h = 1e-6;
            let zp = f.at(t + h, z0);
            let zm = f.at(t - h, z0);
            let dz = [(zp[0] - zm[0]) / (2.0 * h), (zp[1] - zm[1]) / (2.0 * h)];
            let z = f.at(t, z0);
            let expect = f.jacobian().mul_vec(z);
            assert!((dz[0] - expect[0]).abs() < 1e-5 * (1.0 + expect[0].abs()));
            assert!((dz[1] - expect[1]).abs() < 1e-5 * (1.0 + expect[1].abs()));
        }
    }

    #[test]
    fn spiral_form_matches_matrix_exponential() {
        let (m, n) = (2.0, 10.0); // alpha = -1, beta = 3
        let f = RegionFlow::from_mn(m, n);
        let Spectrum::Focus { alpha, beta } = f.spectrum() else { panic!("expected focus") };
        // Include the troublesome x0 <= 0 starts the paper's printed
        // arctan form mishandles.
        for z0 in [[1.0, 0.0], [-1.0, 0.0], [-2.0, 3.0], [0.5, -4.0], [0.0, 1.0], [0.0, -2.0]] {
            let s = SpiralForm::new(alpha, beta, z0);
            for t in [0.0, 0.1, 0.5, 1.3, 2.9] {
                assert_close(s.at(t), f.at(t, z0), 10.0);
            }
        }
    }

    #[test]
    fn node_form_matches_matrix_exponential() {
        let (m, n) = (3.0, 2.0); // l = -1, -2
        let f = RegionFlow::from_mn(m, n);
        let Spectrum::Node { l1, l2 } = f.spectrum() else { panic!("expected node") };
        assert!((l1 + 2.0).abs() < 1e-12 && (l2 + 1.0).abs() < 1e-12);
        for z0 in [[1.0, 0.0], [-1.0, 2.0], [0.3, -0.9]] {
            let nf = NodeForm::new(l1, l2, z0);
            for t in [0.0, 0.2, 1.0, 4.0] {
                assert_close(nf.at(t), f.at(t, z0), 10.0);
            }
        }
    }

    #[test]
    fn node_eigenline_trajectories_are_straight() {
        let f = RegionFlow::from_mn(3.0, 2.0);
        let Spectrum::Node { l1, l2 } = f.spectrum() else { panic!() };
        for l in [l1, l2] {
            let z0 = [1.0, l]; // on the eigenline y = l x
            let nf = NodeForm::new(l1, l2, z0);
            assert!(nf.on_eigenline());
            for t in [0.5, 2.0] {
                let z = f.at(t, z0);
                assert!((z[1] - l * z[0]).abs() < 1e-12, "left eigenline: {z:?}");
            }
        }
    }

    #[test]
    fn critical_form_matches_matrix_exponential() {
        let (m, n) = (4.0, 4.0); // repeated l = -2
        let f = RegionFlow::from_mn(m, n);
        let Spectrum::Critical { l } = f.spectrum() else { panic!("expected critical") };
        assert!((l + 2.0).abs() < 1e-12);
        for z0 in [[1.0, 0.0], [-1.0, 0.5], [0.0, -1.0]] {
            let cf = CriticalForm::new(l, z0);
            for t in [0.0, 0.3, 1.7] {
                assert_close(cf.at(t), f.at(t, z0), 10.0);
            }
        }
    }

    #[test]
    fn spiral_radius_decays_per_eq17() {
        let f = RegionFlow::from_mn(2.0, 10.0);
        let Spectrum::Focus { alpha, beta } = f.spectrum() else { panic!() };
        let z0 = [-1.0, 0.0];
        // Eq. 17's polar radius: r^2 = (beta x)^2 + (alpha x - y)^2.
        let radius = |z: [f64; 2]| (beta * z[0]).hypot(alpha * z[0] - z[1]);
        // After one full revolution the radius shrinks by e^{2 pi alpha/beta}.
        let t_rev = std::f64::consts::TAU / beta;
        let r0 = radius(f.at(0.0, z0));
        let r1 = radius(f.at(t_rev, z0));
        let expect = (alpha / beta * std::f64::consts::TAU).exp();
        assert!((r1 / r0 - expect).abs() < 1e-9, "ratio {} vs {expect}", r1 / r0);
    }

    #[test]
    fn first_zero_finds_switching_crossing() {
        // Focus flow starting at (-1, 0) with line x + k y = 0, k small:
        // crossing when x ~ -k y, close to the y-axis crossing.
        let f = RegionFlow::from_mn(2.0, 10.0);
        let k = 0.01;
        let t = f.time_to_switching_line([-1.0, 0.0], k, 10.0).expect("crossing");
        let z = f.at(t, [-1.0, 0.0]);
        assert!((z[0] + k * z[1]).abs() < 1e-6, "not on line: {z:?}");
        assert!(z[1] > 0.0, "first crossing is in the upper half plane");
    }

    #[test]
    fn first_zero_reports_none_for_asymptotes() {
        // Node flow along an eigendirection with the observable the other
        // eigenline: never crossed.
        let f = RegionFlow::from_mn(3.0, 2.0);
        let Spectrum::Node { l1, l2 } = f.spectrum() else { panic!() };
        let z0 = [1.0, l2 * 1.0];
        let hit = f.first_zero(z0, |z| z[1] - l1 * z[0], 50.0);
        assert!(hit.is_none());
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn rejects_nonpositive_coefficients() {
        let _ = RegionFlow::from_mn(1.0, -1.0);
    }

    #[test]
    fn undamped_center_flow_is_periodic() {
        // m = 0 (the w = 0 BCN edge case): pure rotation with period
        // 2 pi / sqrt(n); the orbit closes on itself.
        let f = RegionFlow::from_mn(0.0, 4.0);
        let z0 = [1.0, 0.5];
        let period = std::f64::consts::TAU / 2.0;
        let z = f.at(period, z0);
        assert!((z[0] - z0[0]).abs() < 1e-9 && (z[1] - z0[1]).abs() < 1e-9, "{z:?}");
    }

    #[test]
    fn first_zero_catches_crossing_narrower_than_scan_step() {
        // Regression for the crossing-miss hazard: a weakly damped focus
        // whose observable `g = x - c` dips below zero only inside a
        // window narrower than the scan step. The threshold `c` is placed
        // strictly between the trajectory's first dip minimum and the
        // lowest value any scan-grid sample reaches, so a pure
        // sign-change scan at scan_step resolution (the old behaviour,
        // simulated below) sees a positive observable everywhere and
        // reports no crossing — yet two genuine crossings exist.
        let f = RegionFlow::from_mn(0.2, 10.0); // alpha = -0.1, beta ~ 3.16
        let z0 = [1.0, 0.3]; // y0 != 0 keeps the dip off the scan grid
        let dt = f.scan_step();
        let t_max = 4.0;

        // Locate the first dip of x(t) on a fine grid.
        let fine = dt / 2048.0;
        let mut t_star = 0.0;
        let mut x_min = f64::INFINITY;
        let mut tt = fine;
        while tt <= t_max {
            let x = f.at(tt, z0)[0];
            if x < x_min {
                x_min = x;
                t_star = tt;
            } else if x > x_min + 0.5 {
                break; // well past the first dip
            }
            tt += fine;
        }
        // Lowest scan-grid sample over the horizon.
        let mut grid_min = f.at(0.0, z0)[0];
        let mut tg = dt;
        while tg <= t_max {
            grid_min = grid_min.min(f.at(tg, z0)[0]);
            tg += dt;
        }
        assert!(
            grid_min - x_min > 1e-3,
            "construction degenerate: grid sample hit the dip bottom \
             (grid {grid_min} vs true {x_min})"
        );
        let c = 0.5 * (x_min + grid_min);
        let g = |z: [f64; 2]| z[0] - c;

        // The old sign-change-only scan misses it: every grid sample is
        // positive.
        let mut tg = dt;
        let mut old_scan_sees_crossing = g(z0) <= 0.0;
        while tg <= t_max {
            old_scan_sees_crossing |= g(f.at(tg, z0)) <= 0.0;
            tg += dt;
        }
        assert!(!old_scan_sees_crossing, "dip must be invisible at scan_step resolution");

        // The refinement pass catches it, before the dip bottom.
        let t_hit = f.first_zero(z0, g, t_max).expect("refined scan must find the hidden dip");
        let x_hit = f.at(t_hit, z0)[0];
        assert!((x_hit - c).abs() < 1e-9, "crossing value x = {x_hit} vs threshold {c}");
        assert!(t_hit < t_star, "must report the dip's *first* crossing (t = {t_hit})");
        assert!(t_hit > t_star - 2.0 * dt, "crossing should sit inside the dip window");
    }

    #[test]
    fn starting_on_observable_zero_steps_off() {
        // Start exactly on the switching line; the next crossing must be a
        // genuinely later one, not t = 0.
        let f = RegionFlow::from_mn(2.0, 10.0);
        let k = 0.05;
        let y0 = 1.0;
        let z0 = [-k * y0, y0];
        let t = f.time_to_switching_line(z0, k, 20.0).expect("returns to line");
        assert!(t > 1e-3, "t = {t} suspiciously small");
    }
}
