//! Hybrid fluid–packet co-simulation: analytic fast-forward through
//! quiescent epochs.
//!
//! The packet engine ([`Simulation`]) prices every frame, feedback
//! message, and PAUSE at an event each; a converged BCN loop spends the
//! bulk of that budget re-confirming a fixed point the fluid model
//! ([`bcn::propagate::Propagator`]) describes in closed form. The
//! [`HybridSim`] wrapper runs the packet engine only through the
//! *interesting* stretches — transients near the switching line, fault
//! windows, PAUSE episodes, flow churn — and fast-forwards the
//! quiescent stretches analytically:
//!
//! * **Epoch controller.** At every record-grid tick the controller
//!   projects the packet state onto the fluid coordinates
//!   `z = (q - q0, w - C)` and walks the closed-form flow one grid step
//!   at a time. Far from the equilibrium it allows no region switches
//!   (a switching-line crossing inside a step vetoes it — the packet
//!   engine should price crossings); inside the small equilibrium ball
//!   (`eq_frac`) it walks up to `max_legs` analytic legs per step, so
//!   the terminal spiral — which straddles the line forever — can still
//!   be fast-forwarded.
//! * **Guards.** Structural guards (`Simulation::hybrid_quiescent`)
//!   require fluid-calibrated BCN control, no faults, no PAUSE asserted
//!   or in flight, and steady homogeneous flows. Dynamic guards keep
//!   the queue inside `(q_margin_frac * q0, (1 - q_margin_frac) * qsc)`
//!   at every grid point *and* at intra-step extrema, so a
//!   fast-forwarded stretch can never have dropped a frame or tripped a
//!   PAUSE. An epoch shorter than `min_ff_secs` is not worth a reseed
//!   and is skipped.
//! * **Re-seeding.** A committed epoch replays its samples onto the
//!   record grid, credits delivery at capacity (the guards imply
//!   `0 < q` throughout, so the server never idles), and re-seeds the
//!   packet state from the fluid endpoint
//!   (`Simulation::reseed_fluid`): regulator rates at the fair share,
//!   the FIFO rebuilt to exactly `q` bits, the event set re-populated
//!   through the stats-preserving scheduler clear. The rate-clamp
//!   residue is carried so an immediate packet→fluid extraction
//!   reproduces `(q, w)` bit-exactly.
//!
//! The divergence budget of an epoch switch is the in-flight state the
//! reseed discards (frames and feedback on the wire) plus the fluid
//! model's own averaging; [`DIVERGENCE_BOUND_FRAC`] documents the
//! resulting bound on queue-extrema disagreement, and the
//! `hybrid_engine` bench gates on it. With `always_packet` the
//! controller never runs and the wrapper is bit-identical to the pure
//! packet engine.

use bcn::extrema::region_extremum;
use bcn::propagate::Propagator;
use bcn::BcnParams;

use crate::error::ConfigError;
use crate::sim::{Control, SimConfig, SimReport, SimWorkspace, Simulation};

/// Documented bound on hybrid-vs-pure-packet queue-extrema divergence,
/// as a fraction of the fluid equilibrium `q0`: for a scenario whose
/// structural guards hold (fluid-calibrated BCN, no faults, steady
/// flows), the global queue maximum and minimum of a hybrid run agree
/// with the pure packet engine within `DIVERGENCE_BOUND_FRAC * q0`.
///
/// Scenarios where the guards never admit an epoch (faults, incast
/// churn, PAUSE pressure) degenerate to pure packet simulation and
/// diverge by exactly zero.
pub const DIVERGENCE_BOUND_FRAC: f64 = 0.1;

/// Tuning knobs of the hybrid epoch controller. The defaults are
/// conservative: fast-forward only well-margined, millisecond-or-longer
/// stretches.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HybridGuards {
    /// Disable fast-forwarding entirely: the run is driven through the
    /// hybrid wrapper but every event is packet-simulated, bit-identical
    /// to [`Simulation`] (the CI equivalence gate runs this).
    pub always_packet: bool,
    /// Minimum epoch length (seconds) worth a reseed; shorter analytic
    /// stretches stay packet-simulated. Rounded up to whole record
    /// intervals.
    pub min_ff_secs: f64,
    /// Maximum epoch length (seconds); `0` means unlimited. Bounds the
    /// staleness of the packet state for long quiescent tails.
    pub max_ff_secs: f64,
    /// Half-width of the equilibrium ball, as a fraction of `q0` (for
    /// `|x|`) and of `C` (for `|y|`). Inside the ball multi-leg
    /// advances are allowed; outside, any switching-line crossing
    /// returns control to the packet engine.
    pub eq_frac: f64,
    /// Queue safety margin: fast-forwarding requires
    /// `q_margin_frac * q0 < q < (1 - q_margin_frac) * qsc` throughout
    /// the epoch, keeping it clear of both underflow (server idling)
    /// and the PAUSE threshold.
    pub q_margin_frac: f64,
    /// Region-switch budget per grid step inside the equilibrium ball.
    pub max_legs: u32,
}

impl Default for HybridGuards {
    fn default() -> Self {
        Self {
            always_packet: false,
            min_ff_secs: 1e-3,
            max_ff_secs: 0.0,
            eq_frac: 0.05,
            q_margin_frac: 0.1,
            max_legs: 64,
        }
    }
}

impl HybridGuards {
    /// Validates the knobs.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] naming the first invalid field: a
    /// non-finite or negative duration, a fraction outside `(0, 0.5)`,
    /// or a zero leg budget.
    pub fn validate(&self) -> Result<(), ConfigError> {
        for (field, v) in [("hybrid.min_ff", self.min_ff_secs), ("hybrid.max_ff", self.max_ff_secs)]
        {
            if !(v.is_finite() && v >= 0.0) {
                return Err(ConfigError::new(field, "duration must be finite and non-negative"));
            }
        }
        for (field, v) in [("hybrid.eq", self.eq_frac), ("hybrid.margin", self.q_margin_frac)] {
            if !(v.is_finite() && v > 0.0 && v < 0.5) {
                return Err(ConfigError::new(field, "fraction must be in (0, 0.5)"));
            }
        }
        if self.max_legs == 0 {
            return Err(ConfigError::new("hybrid.max-legs", "leg budget must be at least 1"));
        }
        Ok(())
    }
}

/// Epoch accounting of one hybrid run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct HybridStats {
    /// Committed fast-forward epochs.
    pub epochs: u64,
    /// Fluid→packet reseeds performed (one per committed epoch).
    pub reseeds: u64,
    /// Simulated nanoseconds covered analytically.
    pub ff_ns: u64,
    /// Simulated nanoseconds covered by the packet engine (filled in
    /// when the run finishes).
    pub packet_ns: u64,
}

/// The fluid parameters and controller knobs that turn a packet run
/// into a hybrid one (the batch runner stores this next to its
/// [`SimConfig`]).
#[derive(Debug, Clone, PartialEq)]
pub struct HybridSpec {
    /// Fluid model the analytic legs propagate.
    pub params: BcnParams,
    /// Epoch-controller tuning.
    pub guards: HybridGuards,
}

impl HybridSpec {
    /// The default controller over `params`.
    #[must_use]
    pub fn new(params: BcnParams) -> Self {
        Self { params, guards: HybridGuards::default() }
    }

    /// Validates the guards and the fluid↔packet consistency against
    /// the packet configuration this spec will wrap — the non-panicking
    /// front door the batch runner uses before construction.
    ///
    /// # Errors
    ///
    /// Returns the first [`ConfigError`] from [`HybridGuards::validate`]
    /// or the consistency check [`HybridSim::new`] would panic on.
    pub fn validate_for(&self, cfg: &SimConfig) -> Result<(), ConfigError> {
        self.guards.validate()?;
        check_consistent(&self.params, cfg)
    }
}

/// Outcome of a hybrid run: the packet engine's report plus the epoch
/// accounting.
#[derive(Debug)]
pub struct HybridReport {
    /// The underlying simulation report (metrics, final rates,
    /// telemetry).
    pub sim: SimReport,
    /// Fast-forward accounting.
    pub stats: HybridStats,
}

/// The epoch-switching co-simulator: a [`Simulation`] plus the fluid
/// [`Propagator`] and the controller state deciding which engine owns
/// the next stretch of simulated time.
#[derive(Debug)]
pub struct HybridSim {
    sim: Simulation,
    prop: Propagator,
    params: BcnParams,
    guards: HybridGuards,
    stats: HybridStats,
    /// Rate-clamp residue of the last reseed: adding it to the packet
    /// aggregate reproduces the fluid `w` bit-exactly (Sterbenz), so
    /// consecutive epochs chain without rate drift.
    residue: f64,
    /// `min_ff_secs` / `max_ff_secs` in record-grid steps.
    min_steps: u64,
    max_steps: u64,
    /// Candidate epoch samples `(q, w)` per grid point, buffered until
    /// the epoch commits. Reserved once at construction so the warm
    /// path stays allocation-free.
    scratch: Vec<[f64; 2]>,
}

impl HybridSim {
    /// Builds the co-simulator. `cfg` must be the fluid-calibrated
    /// packet configuration of `params` (see [`SimConfig::from_fluid`]).
    ///
    /// # Panics
    ///
    /// Panics on invalid `cfg` or guards, or when `cfg` does not match
    /// `params` (wrong capacity, flow count, or BCN thresholds).
    #[must_use]
    pub fn new(params: BcnParams, cfg: SimConfig, guards: HybridGuards) -> Self {
        Self::new_in(params, cfg, guards, &mut SimWorkspace::new())
    }

    /// [`HybridSim::new`] reusing the buffers of `ws` (the batch
    /// runner's per-worker workspace).
    ///
    /// # Panics
    ///
    /// Same as [`HybridSim::new`].
    #[must_use]
    pub fn new_in(
        params: BcnParams,
        cfg: SimConfig,
        guards: HybridGuards,
        ws: &mut SimWorkspace,
    ) -> Self {
        if let Err(e) = guards.validate() {
            panic!("{e}");
        }
        if let Err(e) = check_consistent(&params, &cfg) {
            panic!("{e}");
        }
        let delta = cfg.record_interval.as_secs();
        let min_steps = ((guards.min_ff_secs / delta).ceil() as u64).max(1);
        let max_steps = if guards.max_ff_secs > 0.0 {
            ((guards.max_ff_secs / delta).floor() as u64).max(1)
        } else {
            u64::MAX
        };
        let records = (cfg.t_end.as_secs() / delta).ceil() as usize + 2;
        let prop = Propagator::for_params(&params);
        let sim = Simulation::new_in(cfg, ws);
        let scratch = Vec::with_capacity(records);
        Self {
            sim,
            prop,
            params,
            guards,
            stats: HybridStats::default(),
            residue: 0.0,
            min_steps,
            max_steps,
            scratch,
        }
    }

    /// Attaches a telemetry sink (see [`Simulation::with_telemetry`]):
    /// in addition to the packet engine's hooks, the hybrid layer
    /// records `hybrid.*` counters and one eager `HybridEpoch` span per
    /// committed epoch.
    #[must_use]
    pub fn with_telemetry_sink(mut self, tel: telemetry::Telemetry) -> Self {
        self.sim = self.sim.with_telemetry_sink(tel);
        self
    }

    /// Epoch accounting so far (`packet_ns` is filled in by
    /// [`HybridSim::finish`]).
    #[must_use]
    pub fn stats(&self) -> HybridStats {
        self.stats
    }

    /// Detaches the telemetry sink mid-run (the crash-flight-recorder
    /// escape hatch; see [`Simulation::take_telemetry`]).
    pub fn take_telemetry(&mut self) -> Option<telemetry::Telemetry> {
        self.sim.take_telemetry()
    }

    /// Dispatches the next packet event, then — exactly at record-grid
    /// ticks — lets the epoch controller try to fast-forward. Returns
    /// `false` once the horizon is reached.
    pub fn step(&mut self) -> bool {
        if !self.sim.step() {
            return false;
        }
        if !self.guards.always_packet && self.sim.take_record_mark() {
            self.try_fast_forward();
        }
        true
    }

    /// Runs to completion.
    #[must_use]
    pub fn run(mut self) -> HybridReport {
        while self.step() {}
        self.finish()
    }

    /// Runs to completion, returning the buffers to `ws` for the next
    /// run.
    #[must_use]
    pub fn run_into(mut self, ws: &mut SimWorkspace) -> HybridReport {
        while self.step() {}
        self.finish_into(ws)
    }

    /// Finalizes a stepped run into a report.
    #[must_use]
    pub fn finish(mut self) -> HybridReport {
        self.flush_stats();
        HybridReport { sim: self.sim.finish(), stats: self.stats }
    }

    /// Finalizes a stepped run and returns the buffers to `ws`.
    #[must_use]
    pub fn finish_into(mut self, ws: &mut SimWorkspace) -> HybridReport {
        self.flush_stats();
        HybridReport { sim: self.sim.finish_into(ws), stats: self.stats }
    }

    /// Computes the packet/fluid time split and flushes the `hybrid.*`
    /// telemetry counters (once, off the hot path).
    fn flush_stats(&mut self) {
        let horizon = self.sim.config().t_end.as_nanos();
        self.stats.packet_ns = horizon.saturating_sub(self.stats.ff_ns);
        let s = self.stats;
        if let Some(tel) = self.sim.telemetry_mut() {
            tel.hybrid_stats(s.reseeds, s.ff_ns, s.packet_ns);
        }
    }

    /// The epoch controller: from the current record-grid tick, walk
    /// the closed-form flow forward one grid step at a time for as long
    /// as every guard holds, and commit the stretch as a fast-forward
    /// epoch if it is long enough to be worth a reseed.
    fn try_fast_forward(&mut self) {
        if !self.sim.hybrid_quiescent() {
            return;
        }
        let (dt, t_end) = {
            let cfg = self.sim.config();
            (cfg.record_interval, cfg.t_end)
        };
        let delta = dt.as_secs();
        let t0 = self.sim.now();
        let p = &self.params;
        let q_lo = self.guards.q_margin_frac * p.q0;
        let q_hi = (1.0 - self.guards.q_margin_frac) * p.qsc;
        let [q, w_packet] = self.sim.fluid_state();
        if !(q > q_lo && q < q_hi) {
            return;
        }
        let w = w_packet + self.residue;
        let mut z = [q - p.q0, w - p.capacity];
        let mut region = self.prop.departing_region(z);
        let eq_x = self.guards.eq_frac * p.q0;
        let eq_y = self.guards.eq_frac * p.capacity;
        self.scratch.clear();
        let mut t_next = t0;
        let mut steps: u64 = 0;
        while steps < self.max_steps {
            // The packet engine only schedules a record tick that fits
            // the horizon; mirror that so the grids stay identical.
            let Some(after) = t_next.checked_add(dt) else { break };
            if after > t_end {
                break;
            }
            let in_ball = z[0].abs() <= eq_x && z[1].abs() <= eq_y;
            let legs = if in_ball { self.guards.max_legs as usize } else { 0 };
            let c = self.prop.advance(region, z, delta, legs);
            if c.t < delta {
                // Switch budget exhausted inside the step: outside the
                // ball that is the first switching-line crossing, which
                // the packet engine should price.
                break;
            }
            let q_end = p.q0 + c.z[0];
            if !(q_end > q_lo && q_end < q_hi) {
                break;
            }
            if c.switches == 0 {
                // Endpoints inside the margins do not bound the path:
                // a single-leg step can overshoot in between. The
                // closed form knows its own extremum.
                if let Some(e) = region_extremum(self.prop.flow(region), z) {
                    if e.t < delta {
                        let q_ext = p.q0 + e.x;
                        if !(q_ext > q_lo && q_ext < q_hi) {
                            break;
                        }
                    }
                }
            }
            z = c.z;
            region = c.region;
            t_next = after;
            steps += 1;
            self.scratch.push([q_end, p.capacity + c.z[1]]);
        }
        if steps < self.min_steps {
            return;
        }
        let t1 = t_next;
        let mut t = t0;
        for j in 0..steps as usize {
            t += dt;
            let [qj, wj] = self.scratch[j];
            self.sim.hybrid_record_sample(t, qj, wj);
        }
        self.sim.hybrid_credit_delivery((t1 - t0).as_secs());
        let epoch = u32::try_from(self.stats.epochs).unwrap_or(u32::MAX);
        if let Some(tel) = self.sim.telemetry_mut() {
            tel.hybrid_epoch(t0.as_secs(), t1.as_secs(), epoch);
        }
        let [q1, w1] = self.scratch[steps as usize - 1];
        self.residue = self.sim.reseed_fluid(t1, q1, w1);
        self.stats.epochs += 1;
        self.stats.reseeds += 1;
        self.stats.ff_ns += (t1 - t0).as_nanos();
    }
}

/// Checks that the packet configuration is the fluid calibration of
/// `params` — the correspondence [`SimConfig::from_fluid`] establishes
/// and the divergence bound depends on.
fn check_consistent(params: &BcnParams, cfg: &SimConfig) -> Result<(), ConfigError> {
    let Control::Bcn { cp, .. } = &cfg.control else {
        return Err(ConfigError::new("hybrid.control", "hybrid engine requires BCN control"));
    };
    if cfg.capacity != params.capacity {
        return Err(ConfigError::new("hybrid.capacity", "packet capacity != fluid capacity"));
    }
    if cfg.flows.len() != params.n_flows as usize {
        return Err(ConfigError::new("hybrid.flows", "packet flow count != fluid N"));
    }
    if cp.q0_bits != params.q0 || cp.qsc_bits != params.qsc {
        return Err(ConfigError::new("hybrid.thresholds", "packet q0/qsc != fluid q0/qsc"));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::fluid_validation_params;
    use crate::time::{Duration, Time};

    fn quiescent_setup() -> (BcnParams, SimConfig) {
        let params = fluid_validation_params();
        let cfg = SimConfig::from_fluid(&params, 8_000.0, Duration::from_secs(2e-6), 0.5);
        (params, cfg)
    }

    #[test]
    fn reseed_round_trip_is_bit_exact() {
        let (_, cfg) = quiescent_setup();
        let mut sim = Simulation::new(cfg);
        for _ in 0..20_000 {
            if !sim.step() {
                break;
            }
        }
        let t = sim.now();
        for (q, w) in [(1.234e6, 0.97e9), (0.8e6, 1.02e9), (2.5e6 + 0.125, 9.99e8 + 0.25)] {
            let residue = sim.reseed_fluid(t, q, w);
            let [q2, w2] = sim.fluid_state();
            assert_eq!(q2.to_bits(), q.to_bits(), "queue must round-trip bit-exactly");
            assert_eq!(
                (w2 + residue).to_bits(),
                w.to_bits(),
                "aggregate rate + residue must round-trip bit-exactly"
            );
        }
    }

    #[test]
    fn always_packet_is_bit_identical_to_pure_packet() {
        let (params, cfg) = quiescent_setup();
        let pure = Simulation::new(cfg.clone()).run();
        let guards = HybridGuards { always_packet: true, ..HybridGuards::default() };
        let hybrid = HybridSim::new(params, cfg, guards).run();
        assert_eq!(hybrid.stats.epochs, 0);
        assert_eq!(hybrid.stats.ff_ns, 0);
        assert_eq!(pure.metrics.queue.values(), hybrid.sim.metrics.queue.values());
        assert_eq!(
            pure.metrics.aggregate_rate.values(),
            hybrid.sim.metrics.aggregate_rate.values()
        );
        assert_eq!(pure.metrics.delivered_frames, hybrid.sim.metrics.delivered_frames);
        assert_eq!(pure.final_rates, hybrid.sim.final_rates);
    }

    #[test]
    fn fast_forward_fires_and_keeps_the_record_grid_dense() {
        let (params, cfg) = quiescent_setup();
        let pure = Simulation::new(cfg.clone()).run();
        let hybrid = HybridSim::new(params, cfg, HybridGuards::default()).run();
        assert!(hybrid.stats.epochs > 0, "quiescent tail must fast-forward");
        assert!(hybrid.stats.ff_ns > 0);
        assert_eq!(hybrid.stats.reseeds, hybrid.stats.epochs);
        assert_eq!(
            hybrid.stats.ff_ns + hybrid.stats.packet_ns,
            Time::from_secs(0.5).as_nanos(),
            "time split must cover the horizon exactly"
        );
        // The sampled series must stay grid-dense: same number of
        // samples as the pure packet run, on the same grid.
        assert_eq!(hybrid.sim.metrics.queue.len(), pure.metrics.queue.len());
        assert_eq!(hybrid.sim.metrics.queue.times(), pure.metrics.queue.times());
    }

    #[test]
    fn divergence_stays_within_the_documented_bound() {
        // Hand-rolled property test: splitmix64-driven random parameter
        // sets around the fluid-calibrated baseline, each checked for
        // hybrid-vs-pure queue-extrema agreement within the bound.
        fn splitmix64(state: &mut u64) -> u64 {
            *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = *state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }
        fn uniform(state: &mut u64, lo: f64, hi: f64) -> f64 {
            let u = (splitmix64(state) >> 11) as f64 / (1u64 << 53) as f64;
            lo + u * (hi - lo)
        }
        let mut state = 0x5eed_5eed_5eed_5eed_u64;
        for case in 0..4 {
            let gi = uniform(&mut state, 0.8, 1.6);
            let gd = uniform(&mut state, 0.7, 1.4) / 16_384.0;
            let ru = uniform(&mut state, 0.7, 1.5) * 1.0e4;
            let params = fluid_validation_params().with_gi(gi).with_gd(gd).with_ru(ru);
            let cfg = SimConfig::from_fluid(&params, 8_000.0, Duration::from_secs(2e-6), 0.3);
            let pure = Simulation::new(cfg.clone()).run();
            let hybrid = HybridSim::new(params.clone(), cfg, HybridGuards::default()).run();
            let bound = DIVERGENCE_BOUND_FRAC * params.q0;
            let dmax = (pure.metrics.queue.max() - hybrid.sim.metrics.queue.max()).abs();
            let dmin = (pure.metrics.queue.min_after(0.05)
                - hybrid.sim.metrics.queue.min_after(0.05))
            .abs();
            assert!(
                dmax <= bound && dmin <= bound,
                "case {case} (gi={gi:.3} gd={gd:.3e} ru={ru:.3e}): \
                 extrema divergence max={dmax:.1} min={dmin:.1} exceeds bound {bound:.1}"
            );
        }
    }

    #[test]
    fn guards_reject_invalid_knobs() {
        assert!(HybridGuards::default().validate().is_ok());
        let bad = HybridGuards { eq_frac: 0.0, ..HybridGuards::default() };
        assert_eq!(bad.validate().unwrap_err().field, "hybrid.eq");
        let bad = HybridGuards { q_margin_frac: 0.6, ..HybridGuards::default() };
        assert_eq!(bad.validate().unwrap_err().field, "hybrid.margin");
        let bad = HybridGuards { min_ff_secs: f64::NAN, ..HybridGuards::default() };
        assert_eq!(bad.validate().unwrap_err().field, "hybrid.min_ff");
        let bad = HybridGuards { max_legs: 0, ..HybridGuards::default() };
        assert_eq!(bad.validate().unwrap_err().field, "hybrid.max-legs");
    }

    #[test]
    #[should_panic(expected = "hybrid.capacity")]
    fn mismatched_fluid_params_are_rejected() {
        let (params, cfg) = quiescent_setup();
        let wrong = params.with_capacity(2.0e9);
        let _ = HybridSim::new(wrong, cfg, HybridGuards::default());
    }

    #[test]
    fn fault_injection_disables_fast_forward() {
        let (params, mut cfg) = quiescent_setup();
        cfg.faults.seed = 7;
        cfg.faults.feedback_loss = 0.1;
        let hybrid = HybridSim::new(params, cfg, HybridGuards::default()).run();
        assert_eq!(hybrid.stats.epochs, 0, "faulty runs must stay pure packet");
    }
}
