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
//!   (`EQ_FRAC` = 0.05 of `q0` and of `C`) it walks up to `MAX_LEGS` = 64
//!   analytic legs per step, so the terminal spiral — which straddles
//!   the line forever — can still be fast-forwarded.
//! * **Guards.** Structural guards (`Simulation::hybrid_quiescent`)
//!   require fluid-calibrated BCN control, no faults, no PAUSE asserted
//!   or in flight, and steady homogeneous flows. Dynamic guards keep
//!   the queue inside `(Q_MARGIN_FRAC * q0, (1 - Q_MARGIN_FRAC) * qsc)`,
//!   `Q_MARGIN_FRAC` = 0.1, at every grid point *and* at intra-step
//!   extrema, so a fast-forwarded stretch can never have dropped a frame
//!   or tripped a PAUSE. An epoch shorter than `MIN_FF_SECS` = 1 ms is
//!   not worth a reseed and is skipped; there is no maximum epoch.
//! * **A fixed envelope.** These four values are constants, not
//!   settings: [`DIVERGENCE_BOUND_FRAC`], the engine's only accuracy
//!   claim, is measured at exactly these values.
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

use bcn::propagate::{Propagator, RegionConsts};
use bcn::BcnParams;

use crate::error::ConfigError;
use crate::sim::{Control, SimConfig, SimReport, SimWorkspace, Simulation};
use crate::time::Duration;

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

/// Minimum epoch length (seconds) worth a reseed; shorter analytic
/// stretches stay packet-simulated. Rounded up to whole record
/// intervals.
const MIN_FF_SECS: f64 = 1e-3;

/// Half-width of the equilibrium ball, as a fraction of `q0` (for
/// `|x|`) and of `C` (for `|y|`). Inside the ball multi-leg advances
/// are allowed; outside, any switching-line crossing returns control
/// to the packet engine.
const EQ_FRAC: f64 = 0.05;

/// Queue safety margin: fast-forwarding requires
/// `Q_MARGIN_FRAC * q0 < q < (1 - Q_MARGIN_FRAC) * qsc` throughout the
/// epoch, keeping it clear of both underflow (server idling) and the
/// PAUSE threshold.
const Q_MARGIN_FRAC: f64 = 0.1;

/// Region-switch budget per grid step inside the equilibrium ball.
const MAX_LEGS: usize = 64;

/// How a hybrid run is driven; the guard envelope itself is fixed (see
/// the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct HybridGuards {
    /// Disable fast-forwarding entirely: the run is driven through the
    /// hybrid wrapper but every event is packet-simulated, bit-identical
    /// to [`Simulation`] (the CI equivalence gate runs this).
    pub always_packet: bool,
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
    /// Fast-forward attempts, one per record-grid tick the controller
    /// ran at. Each either commits an epoch or is refused for exactly
    /// one reason, so `epochs + refused.total() == attempts`.
    pub attempts: u64,
    /// Why the attempts that committed no epoch were refused.
    pub refused: Refusals,
}

/// Why fast-forward attempts were refused: every refused attempt is
/// counted in exactly one field. `switch_budget`, `endpoint_margin`,
/// `extremum_margin` and `horizon` count walks stopped on their first
/// grid step; a walk that took at least one step counts as
/// `below_min_ff` whatever stopped it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Refusals {
    /// The structural guards refused (`Simulation::hybrid_quiescent`:
    /// faults, PAUSE, flow churn or uncalibrated control).
    pub not_quiescent: u64,
    /// The queue at the tick was already outside the margins.
    pub entry_margin: u64,
    /// The first step exhausted its region-switch budget; outside the
    /// equilibrium ball that is any switching-line crossing.
    pub switch_budget: u64,
    /// The queue at the end of the first step left the margins.
    pub endpoint_margin: u64,
    /// The queue extremum inside the first step left the margins.
    pub extremum_margin: u64,
    /// The first step would pass the horizon.
    pub horizon: u64,
    /// The walk took at least one step but stopped short of `MIN_FF_SECS`.
    pub below_min_ff: u64,
}

impl Refusals {
    /// Every count with its telemetry name suffix (`hybrid.refused.*`).
    #[must_use]
    pub fn named(&self) -> [(&'static str, u64); 7] {
        [
            ("not_quiescent", self.not_quiescent),
            ("entry_margin", self.entry_margin),
            ("switch_budget", self.switch_budget),
            ("endpoint_margin", self.endpoint_margin),
            ("extremum_margin", self.extremum_margin),
            ("horizon", self.horizon),
            ("below_min_ff", self.below_min_ff),
        ]
    }

    /// Refused attempts in all.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.named().iter().map(|&(_, n)| n).sum()
    }
}

/// What ended an epoch walk: the guard that refused the next grid step,
/// or the horizon.
#[derive(Debug, Clone, Copy)]
enum WalkEnd {
    SwitchBudget,
    EndpointMargin,
    ExtremumMargin,
    Horizon,
}

/// The fluid parameters and controller switch that turn a packet run
/// into a hybrid one (the batch runner stores this next to its
/// [`SimConfig`]).
#[derive(Debug, Clone, PartialEq)]
pub struct HybridSpec {
    /// Fluid model the analytic legs propagate.
    pub params: BcnParams,
    /// Whether the epoch controller runs.
    pub guards: HybridGuards,
}

impl HybridSpec {
    /// The default controller over `params`.
    #[must_use]
    pub fn new(params: BcnParams) -> Self {
        Self { params, guards: HybridGuards::default() }
    }

    /// Validates the fluid↔packet consistency against the packet
    /// configuration this spec will wrap — the non-panicking front door
    /// the batch runner uses before construction.
    ///
    /// # Errors
    ///
    /// Returns the [`ConfigError`] [`HybridSim::new`] would panic on.
    pub fn validate_for(&self, cfg: &SimConfig) -> Result<(), ConfigError> {
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
    /// `MIN_FF_SECS` in record-grid steps.
    min_steps: u64,
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
    /// Panics on invalid `cfg`, or when `cfg` does not match `params`
    /// (wrong capacity, flow count, or BCN thresholds).
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
        if let Err(e) = check_consistent(&params, &cfg) {
            panic!("{e}");
        }
        let min_steps = min_epoch_steps(cfg.record_interval);
        let delta = cfg.record_interval.as_secs();
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
            tel.hybrid_refusals(&s.refused.named());
        }
    }

    /// The epoch controller: from the current record-grid tick, walk
    /// the closed-form flow forward one grid step at a time for as long
    /// as every guard holds, and commit the stretch as a fast-forward
    /// epoch if it is long enough to be worth a reseed.
    fn try_fast_forward(&mut self) {
        self.stats.attempts += 1;
        if !self.sim.hybrid_quiescent() {
            self.stats.refused.not_quiescent += 1;
            return;
        }
        let (dt, t_end) = {
            let cfg = self.sim.config();
            (cfg.record_interval, cfg.t_end)
        };
        let delta = dt.as_secs();
        let t0 = self.sim.now();
        let p = &self.params;
        let q_lo = Q_MARGIN_FRAC * p.q0;
        let q_hi = (1.0 - Q_MARGIN_FRAC) * p.qsc;
        let [q, w_packet] = self.sim.fluid_state();
        if !(q > q_lo && q < q_hi) {
            self.stats.refused.entry_margin += 1;
            return;
        }
        let w = w_packet + self.residue;
        let mut z = [q - p.q0, w - p.capacity];
        let mut region = self.prop.departing_region(z);
        let eq_x = EQ_FRAC * p.q0;
        let eq_y = EQ_FRAC * p.capacity;
        self.scratch.clear();
        let mut t_next = t0;
        let mut steps: u64 = 0;
        let mut end = WalkEnd::Horizon;
        // The packet engine only schedules a record tick that fits the
        // horizon; mirror that so the grids stay identical.
        while let Some(after) = t_next.checked_add(dt) {
            if after > t_end {
                break;
            }
            let in_ball = z[0].abs() <= eq_x && z[1].abs() <= eq_y;
            let legs = if in_ball { MAX_LEGS } else { 0 };
            let c = self.prop.advance(region, z, delta, legs);
            if c.t < delta {
                // Switch budget exhausted inside the step: outside the
                // ball that is the first switching-line crossing, which
                // the packet engine should price.
                end = WalkEnd::SwitchBudget;
                break;
            }
            let q_end = p.q0 + c.z[0];
            if !(q_end > q_lo && q_end < q_hi) {
                end = WalkEnd::EndpointMargin;
                break;
            }
            // Endpoints inside the margins do not bound the path: a
            // single-leg step can overshoot in between. The enclosure
            // settles most steps without bisecting for the extremum:
            // its interval `[lo, hi]` holds the `x` that
            // `region_extremum` would return, and adding `q0` rounds
            // monotonically, so `q0 + lo > q_lo` implies
            // `q0 + x > q_lo` (likewise at `q_hi`). A NaN or infinite
            // bound fails the strict comparison and node or critical
            // legs get no enclosure; both fall back to the exact
            // extremum. So every break below is the one the exact test
            // alone would take.
            if c.switches == 0
                && !step_extremum_inside(self.prop.region(region), z, delta, p.q0, q_lo, q_hi)
            {
                end = WalkEnd::ExtremumMargin;
                break;
            }
            z = c.z;
            region = c.region;
            t_next = after;
            steps += 1;
            self.scratch.push([q_end, p.capacity + c.z[1]]);
        }
        if steps < self.min_steps {
            let r = &mut self.stats.refused;
            *match (steps, end) {
                (0, WalkEnd::SwitchBudget) => &mut r.switch_budget,
                (0, WalkEnd::EndpointMargin) => &mut r.endpoint_margin,
                (0, WalkEnd::ExtremumMargin) => &mut r.extremum_margin,
                (0, WalkEnd::Horizon) => &mut r.horizon,
                _ => &mut r.below_min_ff,
            } += 1;
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

/// Whether the queue stays inside `(q_lo, q_hi)` at the extremum of
/// `x` a single-leg step of `delta` seconds from `z` in `region` passes
/// through (paper Eqs. 18–20, 28, 34; `q = q0 + x`). A step whose leg
/// has no extremum, or reaches it only at or after `delta`, is bounded
/// by its endpoints, which the caller checks. Asks the enclosure of
/// [`RegionConsts::extremum_enclosed`] first and locates the extremum
/// only where that cannot settle the answer.
fn step_extremum_inside(
    region: &RegionConsts,
    z: [f64; 2],
    delta: f64,
    q0: f64,
    q_lo: f64,
    q_hi: f64,
) -> bool {
    if region.extremum_enclosed(z, |(lo, hi)| q0 + lo > q_lo && q0 + hi < q_hi) {
        return true;
    }
    match region.extremum(z) {
        Some(e) if e.t < delta => {
            let q_ext = q0 + e.x;
            q_ext > q_lo && q_ext < q_hi
        }
        _ => true,
    }
}

/// `MIN_FF_SECS` in record-grid steps of `dt`, rounded up to at least
/// one step. The minimum converts to whole nanoseconds first, like
/// every span of the engine, so an exact multiple of `dt` is exactly
/// that many steps (`1e-3 / 1e-6` in `f64` is `1000.0000000000001`).
fn min_epoch_steps(dt: Duration) -> u64 {
    Duration::from_secs(MIN_FF_SECS).as_nanos().div_ceil(dt.as_nanos().max(1)).max(1)
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
    use crate::time::Time;
    use bcn::closed_form::{RegionFlow, Spectrum};
    use bcn::extrema::region_extremum;

    /// The constant set of a test flow; the step guard reads no
    /// switching-line constant, so the slope is arbitrary.
    fn consts(flow: &RegionFlow) -> RegionConsts {
        RegionConsts::new(*flow, 1.0)
    }

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
        let hybrid = HybridSim::new(params, cfg, HybridGuards { always_packet: true }).run();
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

    /// Asserts that every attempt of `stats` ended exactly one way and
    /// that `tel` (if any) carries the same refusal counts.
    fn assert_conserved(stats: &HybridStats, tel: Option<&telemetry::Telemetry>) {
        assert_eq!(
            stats.epochs + stats.refused.total(),
            stats.attempts,
            "attempt ends not conserved: {stats:?}"
        );
        if let Some(tel) = tel {
            for (reason, n) in stats.refused.named() {
                let name = format!("hybrid.refused.{reason}");
                assert_eq!(tel.metrics.counter_by_name(&name), Some(n), "{name}");
            }
        }
    }

    #[test]
    fn every_attempt_ends_one_way() {
        let (params, cfg) = quiescent_setup();
        let dt_ns = cfg.record_interval.as_nanos();
        let hybrid = HybridSim::new(params.clone(), cfg.clone(), HybridGuards::default())
            .with_telemetry_sink(telemetry::Telemetry::new(telemetry::TelemetryLevel::Summary))
            .run();
        let s = hybrid.stats;
        assert_conserved(&s, hybrid.sim.telemetry.as_ref());
        assert!(s.epochs > 0, "{s:?}");
        // One attempt per grid sample the packet engine records; each
        // epoch records its own samples.
        let packet_samples = hybrid.sim.metrics.queue.len() as u64 - s.ff_ns / dt_ns;
        assert_eq!(s.attempts, packet_samples, "{s:?}");
        assert!(s.refused.entry_margin > 0 && s.refused.switch_budget > 0, "{s:?}");
        // Over 1.5 s (the bench's speedup horizon) a walk that took a
        // step still stops short of the epoch floor.
        let long = SimConfig::from_fluid(&params, 8_000.0, Duration::from_secs(2e-6), 1.5);
        let s = HybridSim::new(params.clone(), long, HybridGuards::default()).run().stats;
        assert_conserved(&s, None);
        assert!(s.refused.below_min_ff > 0, "{s:?}");
        // Faults shut the structural guards at every tick.
        let mut faulted = cfg;
        faulted.faults.seed = 7;
        faulted.faults.feedback_loss = 0.1;
        let s = HybridSim::new(params, faulted, HybridGuards::default()).run().stats;
        assert_conserved(&s, None);
        assert_eq!(s.refused.not_quiescent, s.attempts, "{s:?}");
        assert!(s.attempts > 0);
    }

    /// `step_extremum_inside` without the enclosure: the exact test
    /// every step ran before, which it must match bit for bit.
    fn step_extremum_inside_exact(
        flow: &RegionFlow,
        z: [f64; 2],
        delta: f64,
        q0: f64,
        q_lo: f64,
        q_hi: f64,
    ) -> bool {
        match region_extremum(flow, z) {
            Some(e) if e.t < delta => {
                let q_ext = q0 + e.x;
                q_ext > q_lo && q_ext < q_hi
            }
            _ => true,
        }
    }

    fn splitmix64(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[lo, hi)` from the top 53 bits.
    fn uniform(state: &mut u64, lo: f64, hi: f64) -> f64 {
        let u = (splitmix64(state) >> 11) as f64 / (1u64 << 53) as f64;
        lo + u * (hi - lo)
    }

    /// `±10^e` with `e` uniform in `[lo, hi)` and a random sign.
    fn signed_decades(state: &mut u64, lo: f64, hi: f64) -> f64 {
        let sign = if splitmix64(state) & 1 == 0 { 1.0 } else { -1.0 };
        sign * 10f64.powf(uniform(state, lo, hi))
    }

    #[test]
    fn enclosed_step_guard_matches_the_exact_extremum_test() {
        let mut rng = 0x9a7d_e0f5_u64;
        let (mut cases, mut refused, mut enclosed) = (0u64, 0u64, 0u64);
        let mut kinds = [0u64; 3];
        while cases < 120_000 {
            // A focus (`n > m²/4`), a node (`n < m²/4`) or a critical
            // leg (`m = 2l`, `n = l²` exactly for a power-of-two `l`).
            let m = 10f64.powf(uniform(&mut rng, 1.0, 4.0));
            let flow = match splitmix64(&mut rng) % 3 {
                0 => {
                    RegionFlow::from_mn(m, 0.25 * m * m * 10f64.powf(uniform(&mut rng, 0.01, 4.0)))
                }
                1 => RegionFlow::from_mn(m, 0.25 * m * m * uniform(&mut rng, 0.05, 0.95)),
                _ => {
                    let l = 2f64.powi(uniform(&mut rng, 3.0, 13.0) as i32);
                    RegionFlow::from_mn(2.0 * l, l * l)
                }
            };
            kinds[match flow.spectrum() {
                Spectrum::Focus { .. } => 0,
                Spectrum::Node { .. } => 1,
                Spectrum::Critical { .. } => 2,
            }] += 1;
            let q0 = 10f64.powf(uniform(&mut rng, 4.0, 7.0));
            let z = [signed_decades(&mut rng, -3.0, 0.0) * q0, signed_decades(&mut rng, 3.0, 9.0)];
            let exact = region_extremum(&flow, z);
            let t_ref = exact.map_or(1e-3, |e| e.t);
            // `delta` shorter than, equal to, just past and well past
            // the extremum time.
            let delta = match splitmix64(&mut rng) % 4 {
                0 => 0.5 * t_ref,
                1 => t_ref,
                2 => t_ref.next_up(),
                _ => 3.0 * t_ref,
            };
            // Margins far away, or one of them just inside, on or just
            // outside the extremum (by ulps, or by a relative offset
            // around the enclosure's 1e-9 width).
            let (mut q_lo, mut q_hi) = (0.05 * q0, q0 + 2.0 * q0.max(z[0].abs() * 4.0));
            if let Some(e) = exact {
                let q_ext = q0 + e.x;
                let near = match splitmix64(&mut rng) % 8 {
                    0 => q_ext,
                    1 => q_ext.next_up(),
                    2 => q_ext.next_down(),
                    3 => q_ext.next_up().next_up(),
                    4 => q_ext.next_down().next_down(),
                    k => {
                        let rel = [1e-12, 1e-9, 1e-6][(k - 5) as usize];
                        let off = signed_decades(&mut rng, 0.0, 1.0) * rel * e.x.abs();
                        q_ext + off
                    }
                };
                match splitmix64(&mut rng) % 3 {
                    0 => q_lo = near,
                    1 => q_hi = near,
                    _ => {}
                }
            }
            let region = consts(&flow);
            enclosed +=
                u64::from(region.extremum_enclosed(z, |(lo, hi)| q0 + lo > q_lo && q0 + hi < q_hi));
            let got = step_extremum_inside(&region, z, delta, q0, q_lo, q_hi);
            let want = step_extremum_inside_exact(&flow, z, delta, q0, q_lo, q_hi);
            assert_eq!(
                got,
                want,
                "case {cases}: flow {:?}, z {z:?}, delta {delta:e}, q0 {q0:e}, \
                 margins ({q_lo:e}, {q_hi:e}), extremum {exact:?}",
                flow.spectrum()
            );
            refused += u64::from(!want);
            cases += 1;
        }
        println!("{cases} steps: kinds {kinds:?}, {enclosed} enclosed, {refused} refused");
        // Every region kind, and both answers of each path, are drawn
        // often.
        assert!(kinds.iter().all(|&k| k >= 30_000), "region kinds {kinds:?}");
        assert!(refused >= cases / 10, "only {refused} of {cases} steps refused");
        assert!(enclosed >= cases / 10, "only {enclosed} of {cases} steps enclosed");
        assert!(enclosed + refused <= cases * 9 / 10, "{enclosed} enclosed, {refused} refused");
    }

    #[test]
    fn an_overshooting_step_is_refused_by_its_extremum() {
        // A focus leg (m = 2, n = 10: -1 ± 3i) from the equilibrium's
        // queue with the rate above capacity: `x` rises to a maximum of
        // ~0.47 at t ~ 0.42 and falls back below 0.02 by t = 1, so both
        // endpoints of a 1 s step sit inside (-0.9, 0.4) while the path
        // overshoots the upper margin.
        let flow = RegionFlow::from_mn(2.0, 10.0);
        let (z, delta, q0, q_lo, q_hi) = ([0.0, 2.0], 1.0, 1.0, 0.1, 1.4);
        let e = region_extremum(&flow, z).expect("a focus leg turns");
        assert!(e.t < delta && q0 + e.x > q_hi, "{e:?}");
        let end = q0 + flow.at(delta, z)[0];
        assert!(end > q_lo && end < q_hi, "endpoint {end}");
        assert!(!step_extremum_inside(&consts(&flow), z, delta, q0, q_lo, q_hi));
        // Past the extremum's time the endpoints bound the step.
        assert!(step_extremum_inside(&consts(&flow), z, 0.5 * e.t, q0, q_lo, q_hi));
    }

    #[test]
    fn divergence_stays_within_the_documented_bound() {
        // Hand-rolled property test: splitmix64-driven random parameter
        // sets around the fluid-calibrated baseline, each checked for
        // hybrid-vs-pure queue-extrema agreement within the bound.
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
    fn epoch_steps_count_exact_multiples_of_the_record_interval() {
        let steps = |dt_secs| min_epoch_steps(Duration::from_secs(dt_secs));
        // 1e-3 / 1e-6 ceils to 1001 in f64; 1e-3 / 2e-6 to 501.
        assert_eq!(steps(1e-6), 1_000);
        assert_eq!(steps(2e-6), 500);
        assert_eq!(steps(2e-4), 5);
        assert_eq!(steps(2.5e-4), 4);
        // Between multiples the minimum rounds up, to at least one step:
        // the 375 us and 2 ms record grids.
        assert_eq!(steps(3.75e-4), 3);
        assert_eq!(steps(2e-3), 1);
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
