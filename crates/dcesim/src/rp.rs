//! The BCN reaction point (source-side rate regulator, paper Eq. 2).
//!
//! Located conceptually in the edge-switch / NIC, the reaction point
//! shapes one source's sending rate with the modified AIMD law:
//!
//! ```text
//! r <- r + Gi * Ru * sigma      sigma > 0   (additive increase)
//! r <- r * (1 + Gd * sigma)     sigma < 0   (multiplicative decrease)
//! ```
//!
//! A negative BCN message also *associates* the reaction point with the
//! congestion point (CPID): subsequent frames carry a rate-regulator tag
//! so the congestion point can send positive feedback when the queue
//! drains (paper Section II-B).

use crate::error::ConfigError;
use crate::frame::{BcnMessage, CpId};

/// Configuration of a reaction point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RpConfig {
    /// Additive-increase gain `Gi`.
    pub gi: f64,
    /// Multiplicative-decrease gain `Gd`.
    pub gd: f64,
    /// Rate increase unit `Ru` (bit/s per unit of positive feedback).
    pub ru: f64,
    /// Dimensionless scale applied to both gains so that the discrete
    /// per-message updates integrate to the paper's fluid law. One
    /// message arrives per `1/pm` frames of this source, i.e. at rate
    /// `pm * r / frame_bits`, so matching `dr/dt = Gi Ru sigma` at the
    /// fair share requires `gain_scale = frame_bits * N / (pm * C)`
    /// (see `sim::SimConfig::from_fluid`). Use `1.0` for raw
    /// protocol-unit gains.
    pub gain_scale: f64,
    /// Rate floor (bit/s) — the regulator never strangles a source to
    /// zero (the real BCN has a minimum rate too).
    pub r_min: f64,
    /// Rate ceiling (bit/s) — the access line rate.
    pub r_max: f64,
}

impl RpConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] on non-finite or non-positive gains or
    /// an empty rate range.
    pub fn validate(&self) -> Result<(), ConfigError> {
        for (field, v) in [("rp.gi", self.gi), ("rp.gd", self.gd), ("rp.ru", self.ru)] {
            if !(v.is_finite() && v > 0.0) {
                return Err(ConfigError::new(field, "gains must be positive"));
            }
        }
        if !(self.gain_scale.is_finite() && self.gain_scale > 0.0) {
            return Err(ConfigError::new("rp.gain_scale", "gain scale must be positive"));
        }
        if !(self.r_min.is_finite()
            && self.r_max.is_finite()
            && self.r_min > 0.0
            && self.r_min < self.r_max)
        {
            return Err(ConfigError::new("rp.r_min", "need 0 < r_min < r_max"));
        }
        Ok(())
    }

    /// Validates the configuration.
    ///
    /// # Panics
    ///
    /// Panics on non-positive gains or an empty rate range (the
    /// panicking form of [`RpConfig::validate`]).
    pub fn assert_valid(&self) {
        if let Err(e) = self.validate() {
            panic!("{e}");
        }
    }
}

/// Runtime state of a reaction point.
#[derive(Debug, Clone, PartialEq)]
pub struct ReactionPoint {
    cfg: RpConfig,
    rate: f64,
    associated: Option<CpId>,
}

impl ReactionPoint {
    /// Creates a reaction point with the given initial rate.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid.
    #[must_use]
    pub fn new(cfg: RpConfig, initial_rate: f64) -> Self {
        cfg.assert_valid();
        let rate = initial_rate.clamp(cfg.r_min, cfg.r_max);
        Self { cfg, rate, associated: None }
    }

    /// Current sending rate in bit/s.
    #[must_use]
    pub fn rate(&self) -> f64 {
        self.rate
    }

    /// The congestion point this regulator is currently associated with
    /// (frames are tagged with this CPID).
    #[must_use]
    pub fn associated_cp(&self) -> Option<CpId> {
        self.associated
    }

    /// Sets the regulator rate directly, clamped to the configured
    /// range — the hybrid engine's fluid→packet re-seed hook.
    pub(crate) fn set_rate(&mut self, rate: f64) {
        self.rate = rate.clamp(self.cfg.r_min, self.cfg.r_max);
    }

    /// Applies a received BCN message (paper Eq. 2). A message whose FB
    /// field does not decode to a finite value (corrupted wire frames)
    /// is ignored rather than poisoning the rate.
    pub fn on_bcn(&mut self, msg: &BcnMessage) {
        if !msg.sigma.is_finite() {
            return;
        }
        let sigma = msg.sigma * self.cfg.gain_scale;
        if msg.sigma > 0.0 {
            // Positive feedback only reaches us when tagged (the CP
            // enforces that); apply the additive increase.
            self.rate += self.cfg.gi * self.cfg.ru * sigma;
        } else if msg.sigma < 0.0 {
            self.associated = Some(msg.cpid);
            let factor = 1.0 + self.cfg.gd * sigma;
            // A severely negative sigma must not turn the rate negative.
            self.rate *= factor.max(0.0);
        }
        self.rate = self.rate.clamp(self.cfg.r_min, self.cfg.r_max);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::SourceId;

    fn cfg() -> RpConfig {
        RpConfig {
            gi: 1.0,
            gd: 1.0 / 64.0,
            ru: 1_000.0,
            gain_scale: 1.0,
            r_min: 100.0,
            r_max: 1.0e6,
        }
    }

    fn msg(sigma: f64) -> BcnMessage {
        BcnMessage { dst: SourceId(0), cpid: CpId(42), sigma }
    }

    #[test]
    fn additive_increase() {
        let mut rp = ReactionPoint::new(cfg(), 10_000.0);
        rp.on_bcn(&msg(3.0));
        assert!((rp.rate() - 13_000.0).abs() < 1e-9);
    }

    #[test]
    fn multiplicative_decrease_and_association() {
        let mut rp = ReactionPoint::new(cfg(), 64_000.0);
        assert!(rp.associated_cp().is_none());
        rp.on_bcn(&msg(-16.0));
        // factor = 1 - 16/64 = 0.75.
        assert!((rp.rate() - 48_000.0).abs() < 1e-9);
        assert_eq!(rp.associated_cp(), Some(CpId(42)));
    }

    #[test]
    fn rate_clamped_to_floor_and_ceiling() {
        let mut rp = ReactionPoint::new(cfg(), 1_000.0);
        // Violent negative feedback: factor clamps at 0, rate at r_min.
        rp.on_bcn(&msg(-1.0e9));
        assert_eq!(rp.rate(), 100.0);
        // Violent positive feedback: rate caps at r_max.
        rp.on_bcn(&msg(1.0e9));
        assert_eq!(rp.rate(), 1.0e6);
    }

    #[test]
    fn gain_scale_multiplies_feedback() {
        let mut a = ReactionPoint::new(cfg(), 10_000.0);
        let mut b = ReactionPoint::new(RpConfig { gain_scale: 2.0, ..cfg() }, 10_000.0);
        a.on_bcn(&msg(3.0));
        b.on_bcn(&msg(3.0));
        assert!((b.rate() - 10_000.0) / (a.rate() - 10_000.0) - 2.0 < 1e-9);
    }

    #[test]
    fn zero_sigma_is_a_no_op() {
        let mut rp = ReactionPoint::new(cfg(), 10_000.0);
        rp.on_bcn(&msg(0.0));
        assert_eq!(rp.rate(), 10_000.0);
        assert!(rp.associated_cp().is_none());
    }

    #[test]
    fn initial_rate_is_clamped() {
        let rp = ReactionPoint::new(cfg(), 1.0e12);
        assert_eq!(rp.rate(), 1.0e6);
    }

    #[test]
    #[should_panic(expected = "r_min < r_max")]
    fn rejects_empty_rate_range() {
        let bad = RpConfig { r_min: 10.0, r_max: 5.0, ..cfg() };
        let _ = ReactionPoint::new(bad, 1.0);
    }

    #[test]
    fn validate_reports_typed_errors() {
        assert!(cfg().validate().is_ok());
        let err = RpConfig { gi: f64::NAN, ..cfg() }.validate().unwrap_err();
        assert_eq!(err.field, "rp.gi");
        let err = RpConfig { r_max: f64::INFINITY, ..cfg() }.validate().unwrap_err();
        assert_eq!(err.field, "rp.r_min");
    }

    #[test]
    fn non_finite_sigma_is_discarded() {
        let mut rp = ReactionPoint::new(cfg(), 10_000.0);
        rp.on_bcn(&msg(f64::NAN));
        rp.on_bcn(&msg(f64::INFINITY));
        rp.on_bcn(&msg(f64::NEG_INFINITY));
        assert_eq!(rp.rate(), 10_000.0, "corrupted feedback must not move the rate");
        assert!(rp.associated_cp().is_none());
    }
}
