//! BCN system parameters: the paper's notation, validated.

use crate::error::BcnError;
use crate::units::{GBPS, MBIT, MBPS};

/// Complete parameterisation of a BCN congestion-control system on a
/// single bottleneck (paper Sections II-B and III).
///
/// | Field      | Paper symbol | Meaning |
/// |------------|--------------|---------|
/// | `n_flows`  | `N`          | number of homogeneous active flows |
/// | `capacity` | `C`          | bottleneck capacity (bit/s) |
/// | `q0`       | `q0`         | queue reference point (bits) |
/// | `buffer`   | `B`          | physical buffer size (bits) |
/// | `gi`       | `Gi`         | additive-increase gain |
/// | `gd`       | `Gd`         | multiplicative-decrease gain |
/// | `ru`       | `Ru`         | rate increase unit (bit/s) |
/// | `w`        | `w`          | weight of the queue-variation term in sigma |
/// | `pm`       | `pm`         | packet sampling probability |
/// | `qsc`      | `q_sc`       | severe-congestion (PAUSE) threshold (bits) |
///
/// Use [`BcnParams::paper_defaults`] for the worked example of Section
/// IV-C, or the builder-style `with_*` methods to vary fields.
///
/// # Example
///
/// ```
/// use bcn::BcnParams;
/// use bcn::units::{GBPS, MBIT};
///
/// let p = BcnParams::paper_defaults()
///     .with_n_flows(100)
///     .with_buffer(20.0 * MBIT);
/// assert_eq!(p.n_flows, 100);
/// assert_eq!(p.capacity, 10.0 * GBPS);
/// p.validate().unwrap();
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct BcnParams {
    /// Number of homogeneous active flows `N`.
    pub n_flows: u32,
    /// Bottleneck link capacity `C` in bit/s.
    pub capacity: f64,
    /// Queue reference point `q0` in bits.
    pub q0: f64,
    /// Physical buffer size `B` in bits.
    pub buffer: f64,
    /// Additive-increase gain `Gi`.
    pub gi: f64,
    /// Multiplicative-decrease gain `Gd`.
    pub gd: f64,
    /// Rate increase unit `Ru` in bit/s.
    pub ru: f64,
    /// Weight `w` of the queue-variation term in the congestion measure.
    pub w: f64,
    /// Deterministic packet sampling probability `pm` (0 < pm <= 1).
    pub pm: f64,
    /// Severe-congestion threshold `q_sc` in bits at which 802.3x PAUSE is
    /// asserted (must exceed `q0`).
    pub qsc: f64,
}

impl BcnParams {
    /// The parameter values of the paper's worked example (Section IV-C
    /// remarks): `N = 50`, `C = 10 Gbit/s`, `q0 = 2.5 Mbit`, `Gi = 4`,
    /// `Gd = 1/128`, `Ru = 8 Mbit/s`, and the standard-draft style
    /// `w = 2`, `pm = 0.01`. The buffer defaults to the bandwidth-delay
    /// product of the example (5 Mbit) and `q_sc` to 90% of the buffer.
    #[must_use]
    pub fn paper_defaults() -> Self {
        let buffer = 5.0 * MBIT;
        Self {
            n_flows: 50,
            capacity: 10.0 * GBPS,
            q0: 2.5 * MBIT,
            buffer,
            gi: 4.0,
            gd: 1.0 / 128.0,
            ru: 8.0 * MBPS,
            w: 2.0,
            pm: 0.01,
            qsc: 0.9 * buffer,
        }
    }

    /// A smaller, numerically fast parameter set used throughout the test
    /// suite: same structure (Case 1 by default) but with time constants
    /// ~100x shorter than the worked example so trajectories converge in
    /// few model-seconds.
    #[must_use]
    pub fn test_defaults() -> Self {
        let buffer = 8.0e4;
        Self {
            n_flows: 10,
            capacity: 1.0e6,
            q0: 2.0e4,
            buffer,
            gi: 1.0,
            gd: 1.0 / 64.0,
            ru: 1.0e4,
            w: 2.0,
            pm: 0.05,
            qsc: 0.9 * buffer,
        }
    }

    /// Returns a copy with `n_flows` replaced.
    #[must_use]
    pub fn with_n_flows(mut self, n: u32) -> Self {
        self.n_flows = n;
        self
    }

    /// Returns a copy with the capacity `C` (bit/s) replaced.
    #[must_use]
    pub fn with_capacity(mut self, capacity: f64) -> Self {
        self.capacity = capacity;
        self
    }

    /// Returns a copy with the queue reference `q0` (bits) replaced.
    #[must_use]
    pub fn with_q0(mut self, q0: f64) -> Self {
        self.q0 = q0;
        self
    }

    /// Returns a copy with the buffer size `B` (bits) replaced (also
    /// keeps `q_sc` at 90% of the new buffer if it would otherwise exceed
    /// the buffer).
    #[must_use]
    pub fn with_buffer(mut self, buffer: f64) -> Self {
        self.buffer = buffer;
        if self.qsc > buffer {
            self.qsc = 0.9 * buffer;
        }
        self
    }

    /// Returns a copy with the severe-congestion threshold `q_sc` (bits)
    /// replaced.
    #[must_use]
    pub fn with_qsc(mut self, qsc: f64) -> Self {
        self.qsc = qsc;
        self
    }

    /// Returns a copy with the additive-increase gain `Gi` replaced.
    #[must_use]
    pub fn with_gi(mut self, gi: f64) -> Self {
        self.gi = gi;
        self
    }

    /// Returns a copy with the multiplicative-decrease gain `Gd` replaced.
    #[must_use]
    pub fn with_gd(mut self, gd: f64) -> Self {
        self.gd = gd;
        self
    }

    /// Returns a copy with the rate increase unit `Ru` (bit/s) replaced.
    #[must_use]
    pub fn with_ru(mut self, ru: f64) -> Self {
        self.ru = ru;
        self
    }

    /// Returns a copy with the sigma weight `w` replaced.
    #[must_use]
    pub fn with_w(mut self, w: f64) -> Self {
        self.w = w;
        self
    }

    /// Returns a copy with the sampling probability `pm` replaced.
    #[must_use]
    pub fn with_pm(mut self, pm: f64) -> Self {
        self.pm = pm;
        self
    }

    /// Validates all constraints the analysis relies on.
    ///
    /// # Errors
    ///
    /// Returns [`BcnError::InvalidParameter`] naming the first violated
    /// constraint: all gains/capacities/thresholds must be positive and
    /// finite, `pm` in `(0, 1]`, and `0 < q0 < q_sc <= B`.
    pub fn validate(&self) -> Result<(), BcnError> {
        fn pos(name: &'static str, v: f64) -> Result<(), BcnError> {
            if v.is_finite() && v > 0.0 {
                Ok(())
            } else {
                Err(BcnError::InvalidParameter {
                    name,
                    reason: format!("must be positive and finite, got {v}"),
                })
            }
        }
        if self.n_flows == 0 {
            return Err(BcnError::InvalidParameter {
                name: "n_flows",
                reason: "must be at least 1".into(),
            });
        }
        pos("capacity", self.capacity)?;
        pos("q0", self.q0)?;
        pos("buffer", self.buffer)?;
        pos("gi", self.gi)?;
        pos("gd", self.gd)?;
        pos("ru", self.ru)?;
        pos("w", self.w)?;
        pos("qsc", self.qsc)?;
        if !(self.pm > 0.0 && self.pm <= 1.0) {
            return Err(BcnError::InvalidParameter {
                name: "pm",
                reason: format!("must lie in (0, 1], got {}", self.pm),
            });
        }
        if self.q0 >= self.buffer {
            return Err(BcnError::InvalidParameter {
                name: "q0",
                reason: format!(
                    "reference point ({}) must be below the buffer size ({})",
                    self.q0, self.buffer
                ),
            });
        }
        if self.qsc > self.buffer {
            return Err(BcnError::InvalidParameter {
                name: "qsc",
                reason: format!(
                    "severe-congestion threshold ({}) must not exceed the buffer ({})",
                    self.qsc, self.buffer
                ),
            });
        }
        Ok(())
    }

    /// The aggregate additive-increase coefficient `a = Ru * Gi * N`
    /// (paper Section IV-A).
    #[must_use]
    pub fn a(&self) -> f64 {
        self.ru * self.gi * f64::from(self.n_flows)
    }

    /// The multiplicative-decrease coefficient `b = Gd`.
    #[must_use]
    pub fn b(&self) -> f64 {
        self.gd
    }

    /// The switching-line slope constant `k = w / (pm * C)`: the
    /// switching line in deviation coordinates is `x + k y = 0`.
    #[must_use]
    pub fn k(&self) -> f64 {
        self.w / (self.pm * self.capacity)
    }

    /// The congestion measure `sigma = (q0 - q) - w dq` expressed in
    /// deviation coordinates: `sigma = -(x + k y)` (paper Eq. 6).
    #[must_use]
    pub fn sigma(&self, x: f64, y: f64) -> f64 {
        -(x + self.k() * y)
    }

    /// The per-flow fair share `C / N` in bit/s.
    #[must_use]
    pub fn fair_share(&self) -> f64 {
        self.capacity / f64::from(self.n_flows)
    }

    /// The canonical initial point of the phase-plane analysis,
    /// `(x, y) = (-q0, 0)`: queue empty, aggregate rate equal to capacity
    /// (reached at the end of the warm-up stage; paper Section IV-C).
    #[must_use]
    pub fn initial_point(&self) -> [f64; 2] {
        [-self.q0, 0.0]
    }
}

impl Default for BcnParams {
    /// Same as [`BcnParams::paper_defaults`].
    fn default() -> Self {
        Self::paper_defaults()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults_validate_and_derive() {
        let p = BcnParams::paper_defaults();
        p.validate().unwrap();
        assert_eq!(p.a(), 1.6e9);
        assert_eq!(p.b(), 1.0 / 128.0);
        assert!((p.k() - 2e-8).abs() < 1e-22);
        assert_eq!(p.fair_share(), 2.0e8);
    }

    #[test]
    fn test_defaults_validate() {
        BcnParams::test_defaults().validate().unwrap();
    }

    #[test]
    fn builders_replace_fields() {
        let p = BcnParams::paper_defaults()
            .with_n_flows(25)
            .with_capacity(1.0)
            .with_q0(0.1)
            .with_buffer(1.0)
            .with_gi(2.0)
            .with_gd(0.5)
            .with_ru(3.0)
            .with_w(1.0)
            .with_pm(0.5);
        assert_eq!(p.n_flows, 25);
        assert_eq!(p.capacity, 1.0);
        assert_eq!(p.q0, 0.1);
        assert_eq!(p.buffer, 1.0);
        assert_eq!((p.gi, p.gd, p.ru, p.w, p.pm), (2.0, 0.5, 3.0, 1.0, 0.5));
        // qsc was pulled down to fit the new buffer.
        assert!(p.qsc <= p.buffer);
    }

    #[test]
    fn validation_rejects_bad_values() {
        let base = BcnParams::paper_defaults();
        assert!(base.clone().with_n_flows(0).validate().is_err());
        assert!(base.clone().with_capacity(-1.0).validate().is_err());
        assert!(base.clone().with_pm(0.0).validate().is_err());
        assert!(base.clone().with_pm(1.5).validate().is_err());
        assert!(base.clone().with_gi(f64::NAN).validate().is_err());
        // q0 >= buffer is rejected.
        assert!(base.clone().with_q0(10.0e6).validate().is_err());
    }

    #[test]
    fn sigma_sign_matches_regions() {
        let p = BcnParams::paper_defaults();
        // Queue below reference, rate at capacity: increase (sigma > 0).
        assert!(p.sigma(-1.0e6, 0.0) > 0.0);
        // Queue above reference: decrease.
        assert!(p.sigma(1.0e6, 0.0) < 0.0);
        // On the switching line: zero.
        let k = p.k();
        assert_eq!(p.sigma(-k * 5.0, 5.0), 0.0);
    }

    #[test]
    fn initial_point_is_empty_queue_at_capacity() {
        let p = BcnParams::paper_defaults();
        // Deviation coordinates: queue x + q0, aggregate rate y + C.
        let [x, y] = p.initial_point();
        assert_eq!(x + p.q0, 0.0);
        assert_eq!(y + p.capacity, p.capacity);
    }
}
