//! QCN (Quantized Congestion Notification, IEEE 802.1Qau) congestion and
//! reaction points.
//!
//! QCN is the fourth proposal discussed in the paper's background and the
//! eventual 802.1Qau standard: it keeps BCN's backward-notification
//! paradigm but quantizes the feedback to a few bits and sends **only
//! negative** feedback — rate recovery is driven autonomously by the
//! source (byte-counter fast recovery and active increase), not by
//! positive messages from the switch. Implemented here for the
//! BCN-vs-QCN comparison experiments.
//!
//! Simplifications relative to the full standard (documented for the
//! comparison's scope): sampling is deterministic rather than
//! feedback-dependent, and the rate-recovery stages are byte-counter
//! driven only (no wall-clock timer path, which matters mainly at very
//! low rates).

use crate::error::ConfigError;
use crate::frame::SourceId;

/// Quantized congestion feedback delivered to a QCN reaction point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QcnFeedback {
    /// Destination reaction point.
    pub dst: SourceId,
    /// Quantized feedback magnitude in `(0, 1]` (the 6-bit `|Fb|` scaled
    /// by its maximum).
    pub fb: f64,
}

/// QCN congestion-point configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QcnCpConfig {
    /// Equilibrium queue point (bits).
    pub q_eq_bits: f64,
    /// Weight of the queue-derivative term.
    pub w: f64,
    /// Sample every n-th frame.
    pub sample_every: u64,
}

impl QcnCpConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] on a non-finite or non-positive `q_eq`,
    /// a non-finite or negative `w`, or a zero sampling divisor.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if !(self.q_eq_bits.is_finite() && self.q_eq_bits > 0.0) {
            return Err(ConfigError::new("qcn.cp.q_eq_bits", "q_eq must be positive"));
        }
        if !(self.w.is_finite() && self.w >= 0.0) {
            return Err(ConfigError::new("qcn.cp.w", "w must be non-negative"));
        }
        if self.sample_every < 1 {
            return Err(ConfigError::new(
                "qcn.cp.sample_every",
                "sampling divisor must be at least 1",
            ));
        }
        Ok(())
    }

    /// The panicking form of [`QcnCpConfig::validate`].
    ///
    /// # Panics
    ///
    /// Panics where [`QcnCpConfig::validate`] errors.
    pub fn assert_valid(&self) {
        if let Err(e) = self.validate() {
            panic!("{e}");
        }
    }
}

/// QCN congestion point: computes `Fb = -(q_off + w * q_delta)` at each
/// sample and emits feedback only when `Fb < 0`.
#[derive(Debug, Clone, PartialEq)]
pub struct QcnCp {
    cfg: QcnCpConfig,
    countdown: u64,
    q_old: Option<f64>,
    fb_max: f64,
}

impl QcnCp {
    /// Creates a congestion point.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid.
    #[must_use]
    pub fn new(cfg: QcnCpConfig) -> Self {
        cfg.assert_valid();
        // The standard's quantization scale: |Fb| maxes out at
        // q_eq (2 w + 1) — queue at 2 q_eq and rising at full tilt.
        let fb_max = cfg.q_eq_bits * (2.0 * cfg.w + 1.0);
        let countdown = cfg.sample_every;
        Self { cfg, countdown, q_old: None, fb_max }
    }

    /// Processes an accepted arriving frame from `src` with the queue at
    /// `q_bits` (after enqueue). Returns quantized negative feedback if
    /// this frame was sampled and the switch is congested.
    pub fn on_arrival(&mut self, src: SourceId, q_bits: f64) -> Option<QcnFeedback> {
        self.countdown -= 1;
        if self.countdown > 0 {
            return None;
        }
        self.countdown = self.cfg.sample_every;
        let q_off = q_bits - self.cfg.q_eq_bits;
        // The first sample has no previous observation: treat the queue
        // as steady rather than inventing a huge derivative.
        let q_delta = q_bits - self.q_old.unwrap_or(q_bits);
        self.q_old = Some(q_bits);
        let fb = -(q_off + self.cfg.w * q_delta);
        if fb >= 0.0 {
            return None; // QCN sends no positive feedback
        }
        // 6-bit quantization of |Fb| relative to fb_max.
        let norm = (-fb / self.fb_max).min(1.0);
        let quantized = (norm * 63.0).ceil() / 63.0;
        Some(QcnFeedback { dst: src, fb: quantized })
    }
}

/// QCN reaction-point configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QcnRpConfig {
    /// Multiplicative-decrease gain (standard: 1/2 at maximum feedback).
    pub gd: f64,
    /// Byte-counter stage length in bits (standard: 150 kB = 1.2 Mbit).
    pub bc_limit_bits: f64,
    /// Fast-recovery cycles before active increase (standard: 5).
    pub fr_cycles: u32,
    /// Active-increase step in bit/s (standard: 5 Mbit/s).
    pub r_ai: f64,
    /// Hyper-active-increase step in bit/s (standard: 50 Mbit/s), used
    /// after prolonged congestion-free operation.
    pub r_hai: f64,
    /// Rate floor in bit/s.
    pub r_min: f64,
    /// Rate ceiling (line rate) in bit/s.
    pub r_max: f64,
}

impl QcnRpConfig {
    /// Standard-flavoured defaults scaled to a given line rate.
    #[must_use]
    pub fn standard(line_rate: f64) -> Self {
        Self {
            gd: 0.5,
            bc_limit_bits: 150.0 * 8.0 * 1000.0,
            fr_cycles: 5,
            r_ai: line_rate / 2000.0,
            r_hai: line_rate / 200.0,
            r_min: line_rate * 1e-5,
            r_max: line_rate,
        }
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] on a decrease gain outside `(0, 1]`, an
    /// empty or non-finite rate range, a non-finite or non-positive
    /// byte-counter stage, or non-finite or negative increase steps.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if !(self.gd > 0.0 && self.gd <= 1.0) {
            return Err(ConfigError::new("qcn.rp.gd", "gd must lie in (0, 1]"));
        }
        if !(self.r_min.is_finite()
            && self.r_max.is_finite()
            && self.r_min > 0.0
            && self.r_min < self.r_max)
        {
            return Err(ConfigError::new("qcn.rp.r_min", "need 0 < r_min < r_max"));
        }
        if !(self.bc_limit_bits.is_finite() && self.bc_limit_bits > 0.0) {
            return Err(ConfigError::new(
                "qcn.rp.bc_limit_bits",
                "byte-counter limit must be positive",
            ));
        }
        for (field, v) in [("qcn.rp.r_ai", self.r_ai), ("qcn.rp.r_hai", self.r_hai)] {
            if !(v.is_finite() && v >= 0.0) {
                return Err(ConfigError::new(field, "increase steps must be non-negative"));
            }
        }
        Ok(())
    }

    /// The panicking form of [`QcnRpConfig::validate`].
    ///
    /// # Panics
    ///
    /// Panics where [`QcnRpConfig::validate`] errors.
    pub fn assert_valid(&self) {
        if let Err(e) = self.validate() {
            panic!("{e}");
        }
    }
}

/// Rate-recovery stage of a QCN reaction point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QcnStage {
    /// No congestion seen yet (or fully recovered): send at will.
    Unconstrained,
    /// Binary-search recovery towards the pre-congestion target rate.
    FastRecovery,
    /// Probing beyond the target in fixed steps.
    ActiveIncrease,
    /// Aggressive probing after sustained congestion-free operation.
    HyperActiveIncrease,
}

/// QCN reaction point: multiplicative decrease on feedback, autonomous
/// byte-counter-driven recovery.
#[derive(Debug, Clone, PartialEq)]
pub struct QcnRp {
    cfg: QcnRpConfig,
    rate: f64,
    target: f64,
    stage: QcnStage,
    cycles_done: u32,
    bits_since_cycle: f64,
}

impl QcnRp {
    /// Creates a reaction point at the given initial rate.
    ///
    /// # Panics
    ///
    /// Panics on an invalid configuration.
    #[must_use]
    pub fn new(cfg: QcnRpConfig, initial_rate: f64) -> Self {
        cfg.assert_valid();
        let rate = initial_rate.clamp(cfg.r_min, cfg.r_max);
        Self {
            cfg,
            rate,
            target: rate,
            stage: QcnStage::Unconstrained,
            cycles_done: 0,
            bits_since_cycle: 0.0,
        }
    }

    /// Current sending rate (bit/s).
    #[must_use]
    pub fn rate(&self) -> f64 {
        self.rate
    }

    /// Current recovery stage.
    #[must_use]
    pub fn stage(&self) -> QcnStage {
        self.stage
    }

    /// Applies received congestion feedback.
    pub fn on_feedback(&mut self, fb: &QcnFeedback) {
        self.target = self.rate;
        self.rate = (self.rate * (1.0 - self.cfg.gd * fb.fb)).max(self.cfg.r_min);
        self.stage = QcnStage::FastRecovery;
        self.cycles_done = 0;
        self.bits_since_cycle = 0.0;
    }

    /// Accounts transmitted bits; byte-counter expiry advances the
    /// recovery state machine.
    pub fn on_bits_sent(&mut self, bits: f64) {
        if self.stage == QcnStage::Unconstrained {
            return;
        }
        self.bits_since_cycle += bits;
        while self.bits_since_cycle >= self.cfg.bc_limit_bits {
            self.bits_since_cycle -= self.cfg.bc_limit_bits;
            self.cycle();
        }
    }

    fn cycle(&mut self) {
        match self.stage {
            QcnStage::Unconstrained => {}
            QcnStage::FastRecovery => {
                self.rate = 0.5 * (self.rate + self.target);
                self.cycles_done += 1;
                if self.cycles_done >= self.cfg.fr_cycles {
                    self.stage = QcnStage::ActiveIncrease;
                    self.cycles_done = 0;
                }
            }
            QcnStage::ActiveIncrease => {
                self.target += self.cfg.r_ai;
                self.rate = 0.5 * (self.rate + self.target);
                self.cycles_done += 1;
                if self.cycles_done >= 5 * self.cfg.fr_cycles {
                    self.stage = QcnStage::HyperActiveIncrease;
                }
            }
            QcnStage::HyperActiveIncrease => {
                self.target += self.cfg.r_hai;
                self.rate = 0.5 * (self.rate + self.target);
            }
        }
        self.rate = self.rate.clamp(self.cfg.r_min, self.cfg.r_max);
        self.target = self.target.clamp(self.cfg.r_min, self.cfg.r_max);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cp() -> QcnCp {
        QcnCp::new(QcnCpConfig { q_eq_bits: 10_000.0, w: 2.0, sample_every: 1 })
    }

    #[test]
    fn no_feedback_below_equilibrium() {
        let mut cp = cp();
        assert!(cp.on_arrival(SourceId(1), 5_000.0).is_none());
    }

    #[test]
    fn negative_feedback_when_congested() {
        let mut cp = cp();
        let _ = cp.on_arrival(SourceId(1), 15_000.0); // seeds q_old... and fires
        let fb = cp.on_arrival(SourceId(2), 25_000.0).expect("congested");
        assert!(fb.fb > 0.0 && fb.fb <= 1.0);
        assert_eq!(fb.dst, SourceId(2));
    }

    #[test]
    fn feedback_is_quantized_to_sixty_fourths() {
        let mut cp = cp();
        let _ = cp.on_arrival(SourceId(1), 20_000.0);
        let fb = cp.on_arrival(SourceId(1), 20_000.0).unwrap().fb;
        let steps = fb * 63.0;
        assert!((steps - steps.round()).abs() < 1e-9, "fb {fb} not on grid");
    }

    fn rp() -> QcnRp {
        QcnRp::new(QcnRpConfig::standard(1.0e9), 5.0e8)
    }

    #[test]
    fn feedback_cuts_rate_and_sets_target() {
        let mut rp = rp();
        rp.on_feedback(&QcnFeedback { dst: SourceId(0), fb: 1.0 });
        assert_eq!(rp.stage(), QcnStage::FastRecovery);
        assert!((rp.rate() - 2.5e8).abs() < 1.0, "halved at max feedback");
    }

    #[test]
    fn fast_recovery_converges_to_target() {
        let mut rp = rp();
        rp.on_feedback(&QcnFeedback { dst: SourceId(0), fb: 1.0 });
        let target = 5.0e8;
        for _ in 0..5 {
            rp.on_bits_sent(150.0 * 8.0 * 1000.0);
        }
        // After 5 halvings the rate is within ~3% of the target.
        assert!((rp.rate() - target).abs() < 0.04 * target, "rate {}", rp.rate());
        assert_eq!(rp.stage(), QcnStage::ActiveIncrease);
    }

    #[test]
    fn active_increase_probes_beyond_target() {
        let mut rp = rp();
        rp.on_feedback(&QcnFeedback { dst: SourceId(0), fb: 0.5 });
        let before = rp.rate();
        for _ in 0..10 {
            rp.on_bits_sent(150.0 * 8.0 * 1000.0);
        }
        assert!(rp.rate() > before);
    }

    #[test]
    fn unconstrained_rp_ignores_byte_counter() {
        let mut rp = rp();
        let before = rp.rate();
        rp.on_bits_sent(1.0e9);
        assert_eq!(rp.rate(), before);
        assert_eq!(rp.stage(), QcnStage::Unconstrained);
    }

    #[test]
    fn validate_names_each_field() {
        let cp = QcnCpConfig { q_eq_bits: 10_000.0, w: 2.0, sample_every: 1 };
        assert!(cp.validate().is_ok());
        for (bad, field) in [
            (QcnCpConfig { q_eq_bits: 0.0, ..cp }, "qcn.cp.q_eq_bits"),
            (QcnCpConfig { q_eq_bits: f64::INFINITY, ..cp }, "qcn.cp.q_eq_bits"),
            (QcnCpConfig { w: -1.0, ..cp }, "qcn.cp.w"),
            (QcnCpConfig { w: f64::NAN, ..cp }, "qcn.cp.w"),
            (QcnCpConfig { sample_every: 0, ..cp }, "qcn.cp.sample_every"),
        ] {
            assert_eq!(bad.validate().unwrap_err().field, field, "{bad:?}");
        }
        let rp = QcnRpConfig::standard(1.0e9);
        assert!(rp.validate().is_ok());
        for (bad, field) in [
            (QcnRpConfig { gd: 0.0, ..rp }, "qcn.rp.gd"),
            (QcnRpConfig { gd: 1.5, ..rp }, "qcn.rp.gd"),
            (QcnRpConfig { gd: f64::NAN, ..rp }, "qcn.rp.gd"),
            (QcnRpConfig { r_min: 0.0, ..rp }, "qcn.rp.r_min"),
            (QcnRpConfig { r_min: 2.0e9, ..rp }, "qcn.rp.r_min"),
            (QcnRpConfig { r_max: f64::INFINITY, ..rp }, "qcn.rp.r_min"),
            (QcnRpConfig { bc_limit_bits: 0.0, ..rp }, "qcn.rp.bc_limit_bits"),
            (QcnRpConfig { bc_limit_bits: f64::NAN, ..rp }, "qcn.rp.bc_limit_bits"),
            (QcnRpConfig { r_ai: -1.0, ..rp }, "qcn.rp.r_ai"),
            (QcnRpConfig { r_hai: f64::INFINITY, ..rp }, "qcn.rp.r_hai"),
        ] {
            assert_eq!(bad.validate().unwrap_err().field, field, "{bad:?}");
        }
    }

    #[test]
    #[should_panic(expected = "qcn.rp.gd")]
    fn the_constructor_asserts_through_validate() {
        let _ = QcnRp::new(QcnRpConfig { gd: 0.0, ..QcnRpConfig::standard(1.0e9) }, 1.0e6);
    }

    #[test]
    fn rate_never_below_floor() {
        let mut rp = rp();
        for _ in 0..100 {
            rp.on_feedback(&QcnFeedback { dst: SourceId(0), fb: 1.0 });
        }
        assert!(rp.rate() >= 1.0e9 * 1e-5);
    }
}
