//! Dense output between accepted steps via cubic Hermite interpolation.

/// Cubic Hermite interpolant over one accepted step `[t0, t1]`.
///
/// Built from the state and derivative at both step endpoints, which every
/// [`crate::Dopri5`] step provides; third-order accurate, which is ample for
/// event location and plotting (the step itself already satisfies the error
/// tolerance).
#[derive(Debug, Clone, PartialEq)]
pub struct CubicHermite<const N: usize> {
    t0: f64,
    t1: f64,
    y0: [f64; N],
    y1: [f64; N],
    f0: [f64; N],
    f1: [f64; N],
}

impl<const N: usize> CubicHermite<N> {
    /// Builds the interpolant for the step from `(t0, y0, f0)` to
    /// `(t1, y1, f1)` where `f = dy/dt` at the respective endpoint.
    ///
    /// # Panics
    ///
    /// Panics if `t1 <= t0`.
    #[must_use]
    pub fn new(t0: f64, y0: [f64; N], f0: [f64; N], t1: f64, y1: [f64; N], f1: [f64; N]) -> Self {
        assert!(t1 > t0, "interpolation interval must have positive length");
        Self { t0, t1, y0, y1, f0, f1 }
    }

    /// Start of the interpolation interval.
    #[must_use]
    pub fn t_start(&self) -> f64 {
        self.t0
    }

    /// End of the interpolation interval.
    #[must_use]
    pub fn t_end(&self) -> f64 {
        self.t1
    }

    /// Evaluates the interpolated state at `t` (clamped to the interval).
    #[must_use]
    pub fn eval(&self, t: f64) -> [f64; N] {
        let h = self.t1 - self.t0;
        let s = ((t - self.t0) / h).clamp(0.0, 1.0);
        let s2 = s * s;
        let s3 = s2 * s;
        let h00 = 2.0 * s3 - 3.0 * s2 + 1.0;
        let h10 = s3 - 2.0 * s2 + s;
        let h01 = -2.0 * s3 + 3.0 * s2;
        let h11 = s3 - s2;
        let mut out = [0.0; N];
        for (i, o) in out.iter_mut().enumerate() {
            *o = h00 * self.y0[i] + h10 * h * self.f0[i] + h01 * self.y1[i] + h11 * h * self.f1[i];
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_endpoints() {
        let h = CubicHermite::new(1.0, [2.0], [0.5], 3.0, [4.0], [-0.5]);
        assert!((h.eval(1.0)[0] - 2.0).abs() < 1e-14);
        assert!((h.eval(3.0)[0] - 4.0).abs() < 1e-14);
    }

    #[test]
    fn exactly_reproduces_cubics() {
        // p(t) = t^3 - 2t + 1, p'(t) = 3t^2 - 2
        let p = |t: f64| t * t * t - 2.0 * t + 1.0;
        let dp = |t: f64| 3.0 * t * t - 2.0;
        let h = CubicHermite::new(0.0, [p(0.0)], [dp(0.0)], 2.0, [p(2.0)], [dp(2.0)]);
        for k in 0..=20 {
            let t = 0.1 * k as f64;
            assert!((h.eval(t)[0] - p(t)).abs() < 1e-12, "t = {t}");
        }
    }

    #[test]
    fn clamps_outside_interval() {
        let h = CubicHermite::new(0.0, [1.0], [0.0], 1.0, [2.0], [0.0]);
        assert_eq!(h.eval(-5.0), h.eval(0.0));
        assert_eq!(h.eval(9.0), h.eval(1.0));
    }

    #[test]
    #[should_panic(expected = "positive length")]
    fn rejects_empty_interval() {
        let _ = CubicHermite::new(1.0, [0.0], [0.0], 1.0, [0.0], [0.0]);
    }
}
