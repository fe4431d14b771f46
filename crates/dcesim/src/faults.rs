//! Deterministic fault injection at the wire/net layer.
//!
//! Theorem 1 and the strong-stability analysis assume *ideal* backward
//! feedback: every BCN message arrives intact after a fixed delay. This
//! module models the ways a real DCE fabric breaks that assumption —
//! feedback drop/corruption/extra-delay/reorder, data-frame loss bursts,
//! bottleneck link flaps, and PAUSE-storm amplification — so experiments
//! can measure how much margin the fluid-model predictions retain.
//!
//! Determinism: every decision is a pure function of `(seed, class,
//! index)` through splitmix64, where `index` counts draws *per fault
//! class*. Each simulation run is single-threaded, so a [`FaultPlan`]
//! replays bit-identically at any worker-pool width (the `parkit`
//! guarantee), and enabling one fault class never perturbs another
//! class's decision stream.
//!
//! With [`FaultConfig::none`] every hook short-circuits before drawing,
//! so a fault-free run is byte-identical to one on a build without this
//! module.

use telemetry::FaultClass;

use crate::error::ConfigError;
use crate::frame::BcnMessage;
use crate::time::{Duration, Time};
use crate::wire;

/// splitmix64 — the standard 64-bit finalizer; good avalanche, no state.
#[must_use]
pub fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A deterministic uniform sample in `[0, 1)` keyed by
/// `(seed, class, index)`.
fn unit(seed: u64, class: FaultClass, index: u64) -> f64 {
    let h = splitmix64(seed ^ splitmix64(class.index() as u64 ^ splitmix64(index)));
    // 53 high bits -> the full f64 mantissa range.
    (h >> 11) as f64 / (1u64 << 53) as f64
}

/// Fault intensities for one run. All-zero ([`FaultConfig::none`], the
/// `Default`) disables injection entirely.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultConfig {
    /// Seed of every decision stream; runs with equal `(config, seed)`
    /// inject identically.
    pub seed: u64,
    /// Probability a BCN feedback message is silently dropped.
    pub feedback_loss: f64,
    /// Probability a BCN feedback message has one wire bit flipped. The
    /// corrupted frame is re-decoded: an undecodable frame is lost, a
    /// decodable one delivers the altered fields (including a possibly
    /// misaddressed destination).
    pub feedback_corrupt: f64,
    /// Fixed extra latency added to every BCN feedback message.
    pub feedback_extra_delay: Duration,
    /// Probability a BCN feedback message is additionally jittered by a
    /// uniform draw from `[0, reorder_window)`, letting later messages
    /// overtake it.
    pub feedback_reorder: f64,
    /// Jitter window for reordered feedback.
    pub reorder_window: Duration,
    /// Probability an arriving data frame starts a loss burst.
    pub data_loss: f64,
    /// Frames lost per burst (>= 1 when `data_loss > 0`).
    pub data_burst_len: u64,
    /// Link-flap cycle length; the bottleneck is down for the last
    /// `link_flap_down` of every period ([`Duration::ZERO`] disables).
    pub link_flap_period: Duration,
    /// How long the bottleneck stays down each flap period.
    pub link_flap_down: Duration,
    /// Probability a PAUSE assertion is amplified into a storm.
    pub pause_storm: f64,
    /// Hold-time multiplier applied to stormed PAUSEs (>= 1).
    pub pause_storm_factor: f64,
}

impl FaultConfig {
    /// The fault-free configuration: every hook is a no-op.
    #[must_use]
    pub fn none() -> Self {
        Self {
            seed: 0,
            feedback_loss: 0.0,
            feedback_corrupt: 0.0,
            feedback_extra_delay: Duration::ZERO,
            feedback_reorder: 0.0,
            reorder_window: Duration::ZERO,
            data_loss: 0.0,
            data_burst_len: 1,
            link_flap_period: Duration::ZERO,
            link_flap_down: Duration::ZERO,
            pause_storm: 0.0,
            pause_storm_factor: 1.0,
        }
    }

    /// Whether any fault class can fire.
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.feedback_loss > 0.0
            || self.feedback_corrupt > 0.0
            || self.feedback_extra_delay > Duration::ZERO
            || self.feedback_reorder > 0.0
            || self.data_loss > 0.0
            || (self.link_flap_period > Duration::ZERO && self.link_flap_down > Duration::ZERO)
            || self.pause_storm > 0.0
    }

    /// Validates every field.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] naming the first out-of-range field:
    /// probabilities outside `[0, 1]` or non-finite, a zero burst
    /// length, a storm factor below 1, or a down window longer than its
    /// flap period.
    pub fn validate(&self) -> Result<(), ConfigError> {
        let probs = [
            ("faults.feedback_loss", self.feedback_loss),
            ("faults.feedback_corrupt", self.feedback_corrupt),
            ("faults.feedback_reorder", self.feedback_reorder),
            ("faults.data_loss", self.data_loss),
            ("faults.pause_storm", self.pause_storm),
        ];
        for (field, p) in probs {
            if !p.is_finite() || !(0.0..=1.0).contains(&p) {
                return Err(ConfigError::new(
                    field,
                    format!("probability must lie in [0, 1], got {p}"),
                ));
            }
        }
        if self.feedback_reorder > 0.0 && self.reorder_window == Duration::ZERO {
            return Err(ConfigError::new(
                "faults.reorder_window",
                "reordering needs a positive jitter window",
            ));
        }
        if self.data_loss > 0.0 && self.data_burst_len == 0 {
            return Err(ConfigError::new(
                "faults.data_burst_len",
                "loss bursts must cover at least one frame",
            ));
        }
        if !self.pause_storm_factor.is_finite() || self.pause_storm_factor < 1.0 {
            return Err(ConfigError::new(
                "faults.pause_storm_factor",
                format!("storm factor must be finite and >= 1, got {}", self.pause_storm_factor),
            ));
        }
        if self.link_flap_down > Duration::ZERO && self.link_flap_period == Duration::ZERO {
            return Err(ConfigError::new(
                "faults.link_flap_period",
                "a flap down-time needs a flap period",
            ));
        }
        if self.link_flap_period > Duration::ZERO && self.link_flap_down >= self.link_flap_period {
            return Err(ConfigError::new(
                "faults.link_flap_down",
                "the down window must be shorter than the flap period",
            ));
        }
        Ok(())
    }
}

impl Default for FaultConfig {
    fn default() -> Self {
        Self::none()
    }
}

/// Per-class injection tallies for one run (mirrored into
/// `SimMetrics::faults`).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FaultCounts {
    /// Feedback messages dropped outright.
    pub feedback_dropped: u64,
    /// Feedback messages delivered with corrupted fields.
    pub feedback_corrupted: u64,
    /// Feedback messages whose corruption made the frame undecodable.
    pub feedback_corrupt_lost: u64,
    /// Feedback messages held for the fixed extra delay.
    pub feedback_delayed: u64,
    /// Feedback messages jittered for reordering.
    pub feedback_reordered: u64,
    /// Data frames lost on the wire.
    pub data_frames_lost: u64,
    /// Departures deferred by a link-down window.
    pub link_flap_deferrals: u64,
    /// PAUSE assertions amplified into storms.
    pub pause_storms: u64,
}

impl FaultCounts {
    /// Adds another tally into this one (used to aggregate batch seeds).
    pub fn merge(&mut self, other: &FaultCounts) {
        self.feedback_dropped += other.feedback_dropped;
        self.feedback_corrupted += other.feedback_corrupted;
        self.feedback_corrupt_lost += other.feedback_corrupt_lost;
        self.feedback_delayed += other.feedback_delayed;
        self.feedback_reordered += other.feedback_reordered;
        self.data_frames_lost += other.data_frames_lost;
        self.link_flap_deferrals += other.link_flap_deferrals;
        self.pause_storms += other.pause_storms;
    }

    /// Total injections across all classes.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.feedback_dropped
            + self.feedback_corrupted
            + self.feedback_corrupt_lost
            + self.feedback_delayed
            + self.feedback_reordered
            + self.data_frames_lost
            + self.link_flap_deferrals
            + self.pause_storms
    }
}

/// The fate of one BCN feedback message after the fault layer.
#[derive(Debug, Clone, PartialEq)]
pub enum FeedbackFate {
    /// Deliver `msg` after `extra` beyond the nominal propagation delay.
    Deliver {
        /// The (possibly corrupted) message to deliver.
        msg: BcnMessage,
        /// Extra latency beyond the configured propagation delay.
        extra: Duration,
    },
    /// The message never arrives.
    Lost,
}

/// The fault classes that fired on one feedback message, as a bit set
/// over [`FaultClass::index`]. It iterates in index order, the order
/// [`FaultPlan::feedback_fate`] decides them in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultSet(u8);

impl Iterator for FaultSet {
    type Item = FaultClass;

    fn next(&mut self) -> Option<FaultClass> {
        let i = self.0.trailing_zeros() as usize;
        self.0 &= self.0.wrapping_sub(1);
        FaultClass::ALL.get(i).copied()
    }
}

/// The per-run injector: owns the decision streams and tallies.
///
/// One plan belongs to one simulation run; its decisions depend only on
/// the configuration and the order of hook calls, both of which are
/// deterministic per run.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    cfg: FaultConfig,
    active: bool,
    draws: [u64; FaultClass::ALL.len()],
    burst_left: u64,
    counts: FaultCounts,
}

impl FaultPlan {
    /// Builds a plan from a configuration (assumed validated).
    #[must_use]
    pub fn new(cfg: FaultConfig) -> Self {
        let active = cfg.enabled();
        Self {
            cfg,
            active,
            draws: [0; FaultClass::ALL.len()],
            burst_left: 0,
            counts: FaultCounts::default(),
        }
    }

    /// A plan that never injects anything.
    #[must_use]
    pub fn none() -> Self {
        Self::new(FaultConfig::none())
    }

    /// Whether any fault class can fire (hooks short-circuit when not).
    #[must_use]
    pub fn is_active(&self) -> bool {
        self.active
    }

    /// The configuration this plan runs.
    #[must_use]
    pub fn config(&self) -> &FaultConfig {
        &self.cfg
    }

    /// Injection tallies so far.
    #[must_use]
    pub fn counts(&self) -> &FaultCounts {
        &self.counts
    }

    /// Moves the tallies out (used when a run finalizes its metrics, so
    /// the counts are not cloned twice on the way into the report).
    #[must_use]
    pub fn take_counts(&mut self) -> FaultCounts {
        std::mem::take(&mut self.counts)
    }

    /// The next uniform draw from `class`'s decision stream.
    fn draw(&mut self, class: FaultClass) -> f64 {
        let idx = self.draws[class.index()];
        self.draws[class.index()] += 1;
        unit(self.cfg.seed, class, idx)
    }

    /// Decides the fate of one outgoing BCN feedback message and returns
    /// it together with the classes that fired (for telemetry).
    pub fn feedback_fate(&mut self, msg: &BcnMessage) -> (FeedbackFate, FaultSet) {
        let mut injected = FaultSet::default();
        let mut fire = |class: FaultClass| injected.0 |= 1 << class.index();
        if !self.active {
            return (FeedbackFate::Deliver { msg: *msg, extra: Duration::ZERO }, injected);
        }
        if self.cfg.feedback_loss > 0.0
            && self.draw(FaultClass::FeedbackDrop) < self.cfg.feedback_loss
        {
            self.counts.feedback_dropped += 1;
            fire(FaultClass::FeedbackDrop);
            return (FeedbackFate::Lost, injected);
        }
        let mut msg = *msg;
        if self.cfg.feedback_corrupt > 0.0
            && self.draw(FaultClass::FeedbackCorrupt) < self.cfg.feedback_corrupt
        {
            fire(FaultClass::FeedbackCorrupt);
            let mut bytes = wire::encode(&msg);
            let pos = (self.draw(FaultClass::FeedbackCorrupt) * wire::BCN_FRAME_BYTES as f64)
                as usize
                % wire::BCN_FRAME_BYTES;
            let bit = (self.draw(FaultClass::FeedbackCorrupt) * 8.0) as u32 % 8;
            bytes[pos] ^= 1u8 << bit;
            match wire::decode(&bytes) {
                Ok(m) => {
                    self.counts.feedback_corrupted += 1;
                    msg = m;
                }
                Err(_) => {
                    // The flip hit a framing field; the switch discards
                    // the frame as non-BCN.
                    self.counts.feedback_corrupt_lost += 1;
                    return (FeedbackFate::Lost, injected);
                }
            }
        }
        let mut extra = Duration::ZERO;
        if self.cfg.feedback_extra_delay > Duration::ZERO {
            extra = extra + self.cfg.feedback_extra_delay;
            self.counts.feedback_delayed += 1;
            fire(FaultClass::FeedbackDelay);
        }
        if self.cfg.feedback_reorder > 0.0
            && self.draw(FaultClass::FeedbackReorder) < self.cfg.feedback_reorder
        {
            let jitter = self.draw(FaultClass::FeedbackReorder) * self.cfg.reorder_window.as_secs();
            extra = extra + Duration::from_secs(jitter);
            self.counts.feedback_reordered += 1;
            fire(FaultClass::FeedbackReorder);
        }
        (FeedbackFate::Deliver { msg, extra }, injected)
    }

    /// Whether an arriving data frame is lost on the wire. A fresh draw
    /// below `data_loss` starts a burst of `data_burst_len` frames;
    /// subsequent arrivals consume the burst without drawing.
    #[inline]
    pub fn data_frame_lost(&mut self) -> bool {
        if self.cfg.data_loss <= 0.0 {
            return false;
        }
        if self.burst_left > 0 {
            self.burst_left -= 1;
            self.counts.data_frames_lost += 1;
            return true;
        }
        if self.draw(FaultClass::DataLoss) < self.cfg.data_loss {
            self.burst_left = self.cfg.data_burst_len.saturating_sub(1);
            self.counts.data_frames_lost += 1;
            return true;
        }
        false
    }

    /// If the bottleneck link is inside a down window at `t`, returns
    /// the instant it comes back up (service must defer until then).
    /// The link is down for the last `link_flap_down` of every
    /// `link_flap_period`, so `t = 0` always starts up.
    pub fn link_up_at(&mut self, t: Time) -> Option<Time> {
        let period = self.cfg.link_flap_period.as_nanos();
        let down = self.cfg.link_flap_down.as_nanos();
        if period == 0 || down == 0 {
            return None;
        }
        let phase = t.as_nanos() % period;
        if phase >= period - down {
            self.counts.link_flap_deferrals += 1;
            Some(Time::from_nanos(t.as_nanos() - phase + period))
        } else {
            None
        }
    }

    /// The PAUSE hold time after possible storm amplification; the flag
    /// reports whether a storm fired.
    pub fn pause_hold(&mut self, nominal: Duration) -> (Duration, bool) {
        if self.cfg.pause_storm <= 0.0 {
            return (nominal, false);
        }
        if self.draw(FaultClass::PauseStorm) < self.cfg.pause_storm {
            self.counts.pause_storms += 1;
            (Duration::from_secs(nominal.as_secs() * self.cfg.pause_storm_factor), true)
        } else {
            (nominal, false)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::{CpId, SourceId};

    fn msg(sigma: f64) -> BcnMessage {
        BcnMessage { dst: SourceId(2), cpid: CpId(7), sigma }
    }

    fn lossy(seed: u64) -> FaultConfig {
        FaultConfig {
            seed,
            feedback_loss: 0.3,
            feedback_corrupt: 0.2,
            feedback_extra_delay: Duration::from_secs(1e-5),
            feedback_reorder: 0.25,
            reorder_window: Duration::from_secs(5e-5),
            data_loss: 0.1,
            data_burst_len: 3,
            pause_storm: 0.5,
            pause_storm_factor: 8.0,
            ..FaultConfig::none()
        }
    }

    #[test]
    fn none_is_inactive_and_passes_messages_through() {
        let mut plan = FaultPlan::none();
        assert!(!plan.is_active());
        let m = msg(-1234.5);
        let (fate, injected) = plan.feedback_fate(&m);
        assert_eq!(fate, FeedbackFate::Deliver { msg: m, extra: Duration::ZERO });
        assert_eq!(injected, FaultSet::default());
        assert!(!plan.data_frame_lost());
        assert_eq!(plan.link_up_at(Time::from_secs(1.0)), None);
        assert_eq!(plan.pause_hold(Duration::from_nanos(500)), (Duration::from_nanos(500), false));
        assert_eq!(plan.counts().total(), 0);
    }

    #[test]
    fn validate_rejects_out_of_range_fields() {
        for (mutate, field) in [
            (
                Box::new(|c: &mut FaultConfig| c.feedback_loss = f64::NAN)
                    as Box<dyn Fn(&mut FaultConfig)>,
                "faults.feedback_loss",
            ),
            (Box::new(|c: &mut FaultConfig| c.data_loss = 1.5), "faults.data_loss"),
            (
                Box::new(|c: &mut FaultConfig| {
                    c.data_loss = 0.1;
                    c.data_burst_len = 0;
                }),
                "faults.data_burst_len",
            ),
            (
                Box::new(|c: &mut FaultConfig| c.pause_storm_factor = 0.5),
                "faults.pause_storm_factor",
            ),
            (
                Box::new(|c: &mut FaultConfig| {
                    c.feedback_reorder = 0.1;
                    c.reorder_window = Duration::ZERO;
                }),
                "faults.reorder_window",
            ),
            (
                Box::new(|c: &mut FaultConfig| {
                    c.link_flap_down = Duration::from_nanos(10);
                }),
                "faults.link_flap_period",
            ),
            (
                Box::new(|c: &mut FaultConfig| {
                    c.link_flap_period = Duration::from_nanos(10);
                    c.link_flap_down = Duration::from_nanos(10);
                }),
                "faults.link_flap_down",
            ),
        ] {
            let mut cfg = FaultConfig::none();
            mutate(&mut cfg);
            let err = cfg.validate().unwrap_err();
            assert_eq!(err.field, field, "{err}");
        }
        assert!(FaultConfig::none().validate().is_ok());
        assert!(lossy(1).validate().is_ok());
    }

    #[test]
    fn decisions_replay_identically_for_a_fixed_seed() {
        let run = |seed: u64| {
            let mut plan = FaultPlan::new(lossy(seed));
            let mut fates = Vec::new();
            for i in 0..200 {
                fates.push(plan.feedback_fate(&msg(-100.0 * i as f64)));
                fates.push((
                    if plan.data_frame_lost() {
                        FeedbackFate::Lost
                    } else {
                        FeedbackFate::Deliver { msg: msg(0.0), extra: Duration::ZERO }
                    },
                    FaultSet::default(),
                ));
            }
            (fates, plan.counts().clone())
        };
        let (a, ca) = run(42);
        let (b, cb) = run(42);
        assert_eq!(a, b);
        assert_eq!(ca, cb);
        let (c, _) = run(43);
        assert_ne!(a, c, "different seeds must inject differently");

        // Any seed and any loss, corruption, data-loss and storm
        // probabilities: two plans built from one config replay the
        // same 1..200-draw decision stream and tally the same counts.
        let bcn = BcnMessage { dst: SourceId(7), cpid: CpId(11), sigma: -512.0 };
        let hold = Duration::from_secs(1e-6);
        for case in 0..256u64 {
            let seed = splitmix64(0xfa17 ^ splitmix64(case));
            let draw = |k: u64| splitmix64(seed ^ splitmix64(k));
            let [loss, corrupt, data_loss, storm] =
                [1, 2, 3, 4].map(|k| (draw(k) >> 11) as f64 / (1u64 << 53) as f64);
            let cfg = FaultConfig {
                seed: draw(0),
                feedback_loss: loss,
                feedback_corrupt: corrupt,
                data_loss,
                pause_storm: storm,
                pause_storm_factor: 3.0,
                ..FaultConfig::none()
            };
            let at = format!("seed {seed:#x}: {cfg:?}");
            cfg.validate().unwrap_or_else(|e| panic!("{at}: {e}"));
            let (mut a, mut b) = (FaultPlan::new(cfg.clone()), FaultPlan::new(cfg));
            for i in 0..1 + draw(5) % 199 {
                assert_eq!(a.data_frame_lost(), b.data_frame_lost(), "{at}: draw {i}");
                assert_eq!(a.pause_hold(hold), b.pause_hold(hold), "{at}: draw {i}");
                assert_eq!(a.feedback_fate(&bcn), b.feedback_fate(&bcn), "{at}: draw {i}");
            }
            assert_eq!(a.counts(), b.counts(), "{at}");
        }
    }

    #[test]
    fn full_loss_drops_everything_and_tallies() {
        let cfg = FaultConfig { feedback_loss: 1.0, ..FaultConfig::none() };
        let mut plan = FaultPlan::new(cfg);
        for _ in 0..50 {
            let (fate, injected) = plan.feedback_fate(&msg(-1.0));
            assert_eq!(fate, FeedbackFate::Lost);
            assert_eq!(injected.collect::<Vec<_>>(), vec![FaultClass::FeedbackDrop]);
        }
        assert_eq!(plan.counts().feedback_dropped, 50);
    }

    #[test]
    fn corruption_reencodes_through_the_wire_format() {
        let cfg = FaultConfig { feedback_corrupt: 1.0, seed: 9, ..FaultConfig::none() };
        let mut plan = FaultPlan::new(cfg);
        let mut altered = 0;
        let mut lost = 0;
        for i in 0..100 {
            let original = msg(-700.0 - f64::from(i));
            match plan.feedback_fate(&original).0 {
                FeedbackFate::Deliver { msg: m, .. } => {
                    // Quantized to the FB unit at minimum; one flipped bit
                    // may change any field.
                    if m != original {
                        altered += 1;
                    }
                }
                FeedbackFate::Lost => lost += 1,
            }
        }
        assert_eq!(plan.counts().feedback_corrupted + plan.counts().feedback_corrupt_lost, 100);
        assert!(altered > 0, "bit flips should alter decoded fields");
        // Flips into the TPID/EtherType region must be discarded, not
        // crash: both outcomes occur over 100 frames.
        assert_eq!(lost, plan.counts().feedback_corrupt_lost);
    }

    #[test]
    fn data_loss_bursts_raise_the_effective_rate() {
        let cfg = FaultConfig { data_loss: 0.1, data_burst_len: 4, seed: 5, ..FaultConfig::none() };
        let mut plan = FaultPlan::new(cfg);
        let lost = (0..2000).filter(|_| plan.data_frame_lost()).count();
        let rate = lost as f64 / 2000.0;
        assert!(rate > 0.15, "bursts must amplify the base rate, got {rate}");
        assert_eq!(plan.counts().data_frames_lost, lost as u64);
    }

    #[test]
    fn link_flap_windows_sit_at_the_end_of_each_period() {
        let cfg = FaultConfig {
            link_flap_period: Duration::from_nanos(100),
            link_flap_down: Duration::from_nanos(25),
            ..FaultConfig::none()
        };
        let mut plan = FaultPlan::new(cfg);
        assert_eq!(plan.link_up_at(Time::from_nanos(0)), None, "starts up");
        assert_eq!(plan.link_up_at(Time::from_nanos(74)), None);
        assert_eq!(plan.link_up_at(Time::from_nanos(75)), Some(Time::from_nanos(100)));
        assert_eq!(plan.link_up_at(Time::from_nanos(99)), Some(Time::from_nanos(100)));
        assert_eq!(plan.link_up_at(Time::from_nanos(100)), None);
        assert_eq!(plan.link_up_at(Time::from_nanos(199)), Some(Time::from_nanos(200)));
        assert_eq!(plan.counts().link_flap_deferrals, 3);
    }

    #[test]
    fn pause_storms_amplify_the_hold() {
        let cfg = FaultConfig { pause_storm: 1.0, pause_storm_factor: 10.0, ..FaultConfig::none() };
        let mut plan = FaultPlan::new(cfg);
        let (hold, stormed) = plan.pause_hold(Duration::from_secs(1e-6));
        assert!(stormed);
        assert_eq!(hold, Duration::from_secs(1e-5));
        assert_eq!(plan.counts().pause_storms, 1);
    }

    #[test]
    fn class_streams_are_independent() {
        // Enabling corruption must not change where drops land.
        let drops = |cfg: FaultConfig| {
            let mut plan = FaultPlan::new(cfg);
            (0..100)
                .map(|_| matches!(plan.feedback_fate(&msg(-1.0)).0, FeedbackFate::Lost))
                .collect::<Vec<_>>()
        };
        let base = FaultConfig { feedback_loss: 0.3, seed: 11, ..FaultConfig::none() };
        let with_corrupt = FaultConfig { feedback_corrupt: 0.9, ..base.clone() };
        let a = drops(base);
        let b = drops(with_corrupt);
        let dropped_in_a: Vec<usize> =
            a.iter().enumerate().filter(|(_, d)| **d).map(|(i, _)| i).collect();
        for i in &dropped_in_a {
            assert!(b[*i], "message {i} dropped without corruption enabled but not with");
        }
    }
}
