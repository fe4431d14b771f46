//! The BCN congestion point (core-switch side, paper Section II-B).
//!
//! The congestion point monitors one bottleneck queue. It samples
//! arriving data frames deterministically (every `1/pm`-th frame), and at
//! each sample computes the congestion measure over the elapsed sampling
//! interval (paper Eq. 1):
//!
//! ```text
//! sigma = (q0 - q) - w * dq,     dq = arrivals - departures (bits)
//! ```
//!
//! A *negative* `sigma` always produces a negative BCN message back to
//! the sampled frame's source. A *positive* `sigma` produces a positive
//! BCN message only when the sampled frame carries a rate-regulator tag
//! matching this congestion point **and** the queue is below the
//! reference (`q < q0`) — sources that were never told to slow down are
//! never told to speed up.
//!
//! Above the severe-congestion threshold `q_sc` the switch additionally
//! asserts IEEE 802.3x PAUSE towards its uplinks.

use crate::error::ConfigError;
use crate::frame::{BcnMessage, CpId, DataFrame};
use crate::wire::quantize_sigma;

/// FB-field quantization applied to `sigma` before it is sent (the
/// paper's Fig. 2 FB field has finite width; QCN narrows it to 6 bits).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FbQuant {
    /// Signed field width in bits (2..=32).
    pub bits: u32,
    /// Saturation range in queue bits (values beyond clamp to the rails).
    pub range_bits: f64,
}

/// Configuration of a congestion point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CpConfig {
    /// This congestion point's identity (CPID field of its messages).
    pub cpid: CpId,
    /// Queue reference point `q0` in bits.
    pub q0_bits: f64,
    /// Severe-congestion (PAUSE) threshold in bits.
    pub qsc_bits: f64,
    /// Weight of the queue-variation term, applied to the raw bit count
    /// `dq` accumulated over one sampling interval. To emulate the fluid
    /// model's `w` (which is defined against a unit-packet abstraction),
    /// use `w_fluid / frame_bits`.
    pub w: f64,
    /// Sample every `sample_every`-th arriving data frame
    /// (`= round(1/pm)`).
    pub sample_every: u64,
    /// Optional FB-field quantization (see [`FbQuant`]); `None` sends
    /// `sigma` at full float precision (the fluid-model idealisation).
    pub fb_quant: Option<FbQuant>,
    /// Protocol-faithful gating of positive feedback: when `true`
    /// (the BCN draft behaviour), a positive message is sent only to a
    /// source whose sampled frame carries this congestion point's tag
    /// *and* only while `q < q0`. When `false`, positive feedback follows
    /// the sign of `sigma` unconditionally — the behaviour the paper's
    /// fluid model (Eq. 7) assumes; used by the fluid-calibrated
    /// validation runs.
    pub gate_positive: bool,
}

impl CpConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] on non-finite or non-positive
    /// thresholds, a zero sampling divisor, or a bad FB quantizer.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if !(self.q0_bits.is_finite() && self.q0_bits > 0.0) {
            return Err(ConfigError::new("cp.q0_bits", "q0 must be positive"));
        }
        if !(self.qsc_bits.is_finite() && self.qsc_bits >= self.q0_bits) {
            return Err(ConfigError::new("cp.qsc_bits", "q_sc must be at or above q0"));
        }
        if !(self.w.is_finite() && self.w >= 0.0) {
            return Err(ConfigError::new("cp.w", "w must be non-negative"));
        }
        if self.sample_every < 1 {
            return Err(ConfigError::new("cp.sample_every", "sampling divisor must be at least 1"));
        }
        if let Some(q) = self.fb_quant {
            if !(2..=32).contains(&q.bits) {
                return Err(ConfigError::new(
                    "cp.fb_quant.bits",
                    "field width must be 2..=32 bits",
                ));
            }
            if !(q.range_bits.is_finite() && q.range_bits > 0.0) {
                return Err(ConfigError::new("cp.fb_quant.range_bits", "range must be positive"));
            }
        }
        Ok(())
    }

    /// Validates the configuration.
    ///
    /// # Panics
    ///
    /// Panics on non-positive thresholds or a zero sampling divisor
    /// (the panicking form of [`CpConfig::validate`]).
    pub fn assert_valid(&self) {
        if let Err(e) = self.validate() {
            panic!("{e}");
        }
    }
}

/// Runtime state of a congestion point.
#[derive(Debug, Clone, PartialEq)]
pub struct CongestionPoint {
    cfg: CpConfig,
    countdown: u64,
    arrived_bits: f64,
    departed_bits: f64,
    samples_taken: u64,
    messages_sent: u64,
}

impl CongestionPoint {
    /// Creates a congestion point.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid.
    #[must_use]
    pub fn new(cfg: CpConfig) -> Self {
        cfg.assert_valid();
        let countdown = cfg.sample_every;
        Self {
            cfg,
            countdown,
            arrived_bits: 0.0,
            departed_bits: 0.0,
            samples_taken: 0,
            messages_sent: 0,
        }
    }

    /// The configuration.
    #[must_use]
    pub fn config(&self) -> &CpConfig {
        &self.cfg
    }

    /// Records a departure (bits dequeued onto the output link).
    pub fn on_departure(&mut self, bits: f64) {
        self.departed_bits += bits;
    }

    /// Restarts the sampling interval: countdown and arrival/departure
    /// accumulators reset as if a sample had just been taken. The hybrid
    /// engine calls this at a fluid→packet re-seed so the first
    /// post-epoch `sigma` measures only post-epoch traffic.
    pub(crate) fn restart_interval(&mut self) {
        self.countdown = self.cfg.sample_every;
        self.arrived_bits = 0.0;
        self.departed_bits = 0.0;
    }

    /// Processes an *accepted* arriving data frame against the current
    /// queue occupancy `q_bits` (after enqueue). Returns a BCN message to
    /// send back, if this frame was sampled and the rules produce one.
    #[inline]
    pub fn on_arrival(&mut self, frame: &DataFrame, q_bits: f64) -> Option<BcnMessage> {
        self.arrived_bits += frame.bits;
        self.countdown -= 1;
        if self.countdown > 0 {
            return None;
        }
        self.countdown = self.cfg.sample_every;
        self.samples_taken += 1;

        let dq = self.arrived_bits - self.departed_bits;
        self.arrived_bits = 0.0;
        self.departed_bits = 0.0;

        let mut sigma = (self.cfg.q0_bits - q_bits) - self.cfg.w * dq;
        if let Some(q) = self.cfg.fb_quant {
            sigma = quantize_sigma(sigma, q.bits, q.range_bits);
        }
        let positive_allowed = !self.cfg.gate_positive
            || (frame.rrt == Some(self.cfg.cpid) && q_bits < self.cfg.q0_bits);
        let send = sigma < 0.0 || (sigma > 0.0 && positive_allowed);
        let msg = send.then_some(BcnMessage { dst: frame.src, cpid: self.cfg.cpid, sigma });
        if msg.is_some() {
            self.messages_sent += 1;
        }
        msg
    }

    /// Whether the queue occupancy warrants an 802.3x PAUSE.
    #[must_use]
    pub fn should_pause(&self, q_bits: f64) -> bool {
        q_bits > self.cfg.qsc_bits
    }

    /// Number of frames sampled so far.
    #[must_use]
    pub fn samples_taken(&self) -> u64 {
        self.samples_taken
    }

    /// Number of BCN messages emitted so far.
    #[must_use]
    pub fn messages_sent(&self) -> u64 {
        self.messages_sent
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::SourceId;

    fn cfg() -> CpConfig {
        CpConfig {
            cpid: CpId(7),
            q0_bits: 10_000.0,
            qsc_bits: 40_000.0,
            w: 2.0,
            sample_every: 4,
            fb_quant: None,
            gate_positive: true,
        }
    }

    fn frame(src: u32, rrt: Option<CpId>) -> DataFrame {
        DataFrame { src: SourceId(src), bits: 1_000.0, rrt }
    }

    #[test]
    fn samples_every_nth_frame() {
        let mut cp = CongestionPoint::new(cfg());
        // Queue far above q0: the 4th frame must produce a negative BCN.
        for i in 1..=3 {
            assert!(cp.on_arrival(&frame(i, None), 30_000.0).is_none());
        }
        let msg = cp.on_arrival(&frame(9, None), 30_000.0).expect("sampled");
        assert!(msg.sigma < 0.0);
        assert_eq!(msg.dst, SourceId(9));
        assert_eq!(msg.cpid, CpId(7));
        assert_eq!(cp.samples_taken(), 1);
    }

    #[test]
    fn sigma_uses_queue_offset_and_variation() {
        let mut cp = CongestionPoint::new(CpConfig { sample_every: 1, ..cfg() });
        // One arrival of 1000 bits, no departures: dq = 1000.
        // q = 5000 < q0 = 10000: sigma = (10000 - 5000) - 2*1000 = 3000.
        let msg = cp.on_arrival(&frame(1, Some(CpId(7))), 5_000.0).expect("sampled");
        assert!((msg.sigma - 3_000.0).abs() < 1e-9);
        assert!(msg.sigma > 0.0);
    }

    #[test]
    fn departures_reduce_dq() {
        let mut cp = CongestionPoint::new(CpConfig { sample_every: 1, ..cfg() });
        cp.on_departure(1_000.0);
        // dq = 1000 - 1000 = 0: sigma = q0 - q.
        let msg = cp.on_arrival(&frame(1, None), 15_000.0).expect("negative");
        assert!((msg.sigma + 5_000.0).abs() < 1e-9);
    }

    #[test]
    fn positive_bcn_requires_matching_tag_and_low_queue() {
        let mk = || CongestionPoint::new(CpConfig { sample_every: 1, ..cfg() });
        // Untagged frame, sigma > 0: no message.
        let mut cp = mk();
        assert!(cp.on_arrival(&frame(1, None), 1_000.0).is_none());
        // Wrong CPID: no message.
        let mut cp = mk();
        assert!(cp.on_arrival(&frame(1, Some(CpId(99))), 1_000.0).is_none());
        // Matching tag but q >= q0: no message even if sigma > 0 via dq.
        let mut cp = mk();
        cp.on_departure(50_000.0); // dq very negative => sigma > 0
        assert!(cp.on_arrival(&frame(1, Some(CpId(7))), 12_000.0).is_none());
        // Matching tag, low queue: positive message.
        let mut cp = mk();
        let msg = cp.on_arrival(&frame(1, Some(CpId(7))), 1_000.0);
        assert!(msg.expect("positive").sigma > 0.0);
    }

    #[test]
    fn counters_reset_each_sample() {
        let mut cp = CongestionPoint::new(CpConfig { sample_every: 2, ..cfg() });
        let _ = cp.on_arrival(&frame(1, None), 20_000.0);
        let first = cp.on_arrival(&frame(2, None), 20_000.0).expect("sample 1");
        // dq over first interval = 2000 bits.
        assert!((first.sigma - ((10_000.0 - 20_000.0) - 2.0 * 2_000.0)).abs() < 1e-9);
        let _ = cp.on_arrival(&frame(3, None), 20_000.0);
        let second = cp.on_arrival(&frame(4, None), 20_000.0).expect("sample 2");
        assert_eq!(first.sigma, second.sigma, "interval counters must reset");
    }

    #[test]
    fn pause_threshold() {
        let cp = CongestionPoint::new(cfg());
        assert!(!cp.should_pause(39_000.0));
        assert!(cp.should_pause(41_000.0));
    }

    #[test]
    fn fb_quantization_grids_the_feedback() {
        let mut cp = CongestionPoint::new(CpConfig {
            sample_every: 1,
            gate_positive: false,
            fb_quant: Some(FbQuant { bits: 4, range_bits: 16_000.0 }),
            ..cfg()
        });
        let msg = cp.on_arrival(&frame(1, None), 5_000.0).expect("sampled");
        // 4-bit signed field: 7 positive levels over the range.
        let steps = msg.sigma / 16_000.0 * 7.0;
        assert!((steps - steps.round()).abs() < 1e-9, "sigma {} off grid", msg.sigma);
    }

    #[test]
    fn ungated_mode_sends_positive_feedback_to_anyone() {
        let mut cp =
            CongestionPoint::new(CpConfig { sample_every: 1, gate_positive: false, ..cfg() });
        let msg = cp.on_arrival(&frame(1, None), 1_000.0).expect("ungated positive");
        assert!(msg.sigma > 0.0);
    }

    #[test]
    #[should_panic(expected = "q_sc must be at or above q0")]
    fn rejects_qsc_below_q0() {
        let bad = CpConfig { qsc_bits: 1.0, ..cfg() };
        let _ = CongestionPoint::new(bad);
    }

    #[test]
    fn validate_reports_typed_errors() {
        assert!(cfg().validate().is_ok());
        let err = CpConfig { q0_bits: f64::NAN, ..cfg() }.validate().unwrap_err();
        assert_eq!(err.field, "cp.q0_bits");
        let err = CpConfig { sample_every: 0, ..cfg() }.validate().unwrap_err();
        assert_eq!(err.field, "cp.sample_every");
        let err = CpConfig { fb_quant: Some(FbQuant { bits: 1, range_bits: 1.0 }), ..cfg() }
            .validate()
            .unwrap_err();
        assert_eq!(err.field, "cp.fb_quant.bits");
    }
}
