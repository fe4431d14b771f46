//! Switching lines for variable-structure (piecewise-linear) systems.

/// The two open half-planes a [`SwitchingLine`] cuts the plane into.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HalfPlane {
    /// Points with positive signed value `n . p > 0`.
    Positive,
    /// Points with negative signed value `n . p < 0`.
    Negative,
    /// Points on the line itself (within exact arithmetic).
    Boundary,
}

/// A line through the origin, `nx * x + ny * y = 0`, partitioning the phase
/// plane into the two control regions of a variable-structure system.
///
/// For the BCN model the switching function is `sigma = -(x + k y)`, so the
/// line is `x + k y = 0` with normal `(1, k)`; the *rate-increase* region
/// `sigma > 0` is this line's [`HalfPlane::Negative`] side.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SwitchingLine {
    nx: f64,
    ny: f64,
}

impl SwitchingLine {
    /// Creates the line with normal vector `(nx, ny)` (need not be unit).
    ///
    /// # Panics
    ///
    /// Panics if the normal is zero or non-finite.
    #[must_use]
    pub fn new(nx: f64, ny: f64) -> Self {
        assert!(
            nx.is_finite() && ny.is_finite() && (nx != 0.0 || ny != 0.0),
            "switching-line normal must be finite and nonzero"
        );
        Self { nx, ny }
    }

    /// The line `x + k*y = 0` used by BCN-style controllers (normal
    /// `(1, k)`).
    #[must_use]
    pub fn bcn(k: f64) -> Self {
        Self::new(1.0, k)
    }

    /// The normal vector `(nx, ny)`.
    #[must_use]
    pub fn normal(&self) -> [f64; 2] {
        [self.nx, self.ny]
    }

    /// A unit vector along the line (rotate the normal by 90 degrees).
    #[must_use]
    pub fn direction(&self) -> [f64; 2] {
        let n = (self.nx * self.nx + self.ny * self.ny).sqrt();
        [-self.ny / n, self.nx / n]
    }

    /// Signed value `nx * x + ny * y`; zero exactly on the line.
    #[must_use]
    pub fn signed_value(&self, p: [f64; 2]) -> f64 {
        self.nx * p[0] + self.ny * p[1]
    }

    /// Which side of the line `p` lies on.
    #[must_use]
    pub fn side(&self, p: [f64; 2]) -> HalfPlane {
        let v = self.signed_value(p);
        if v > 0.0 {
            HalfPlane::Positive
        } else if v < 0.0 {
            HalfPlane::Negative
        } else {
            HalfPlane::Boundary
        }
    }

    /// The point on the line at signed arc-coordinate `s` (measured along
    /// [`Self::direction`] from the origin).
    #[must_use]
    pub fn point_at(&self, s: f64) -> [f64; 2] {
        let d = self.direction();
        [s * d[0], s * d[1]]
    }

    /// The signed arc-coordinate of the projection of `p` onto the line.
    #[must_use]
    pub fn coordinate_of(&self, p: [f64; 2]) -> f64 {
        let d = self.direction();
        p[0] * d[0] + p[1] * d[1]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sides_of_bcn_line() {
        let line = SwitchingLine::bcn(2.0);
        assert_eq!(line.side([1.0, 0.0]), HalfPlane::Positive);
        assert_eq!(line.side([-1.0, 0.0]), HalfPlane::Negative);
        assert_eq!(line.side([2.0, -1.0]), HalfPlane::Boundary);
    }

    #[test]
    fn direction_is_unit_and_on_line() {
        let line = SwitchingLine::bcn(3.0);
        let d = line.direction();
        let norm = (d[0] * d[0] + d[1] * d[1]).sqrt();
        assert!((norm - 1.0).abs() < 1e-14);
        assert!(line.signed_value(d).abs() < 1e-14);
    }

    #[test]
    fn point_and_coordinate_roundtrip() {
        let line = SwitchingLine::bcn(0.5);
        for s in [-3.0, -0.1, 0.0, 2.5] {
            let p = line.point_at(s);
            assert!((line.coordinate_of(p) - s).abs() < 1e-12);
            assert!(line.signed_value(p).abs() < 1e-12);
        }
    }

    #[test]
    #[should_panic(expected = "nonzero")]
    fn rejects_zero_normal() {
        let _ = SwitchingLine::new(0.0, 0.0);
    }
}
