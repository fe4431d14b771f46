//! Fluid trajectory simulation.
//!
//! Two simulators operate at different fidelities:
//!
//! * [`fluid_trajectory`] — event-located hybrid integration of the
//!   (linearised or nonlinear) switched system on the unbounded phase
//!   plane: the object of the paper's analysis.
//! * [`SaturatingFluid`] — the *physical* fluid model with the buffer
//!   walls enforced: the queue saturates at `0` and `B`, drops accumulate
//!   while the buffer is full, and the congestion measure uses the
//!   saturated queue derivative. This is what the dashed segments of the
//!   paper's Fig. 3 (curves l3/l4 pinned at the walls) correspond to, and
//!   it provides the drop/underflow ground truth for the criterion
//!   experiments.

use odesolve::hybrid::{integrate_hybrid_telemetry, HybridSolution};
use odesolve::{Dopri5, Options, SolveError};
use telemetry::{ExtremumKind, Telemetry};

use crate::model::{BcnFluid, Linearity};
use crate::params::BcnParams;

/// Trajectory engine selector for [`fluid_trajectory`].
///
/// The linearised switched system is *solved* — every region flow has a
/// closed form (paper Eqs. 12–34) — so the default engine propagates legs
/// analytically via [`crate::propagate::analytic_trajectory`]. The DOPRI5
/// hybrid integrator remains available as the independent cross-check and
/// is used automatically whenever the analytic form does not apply (the
/// full nonlinear decrease law) or solver telemetry is requested.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Engine {
    /// Closed-form leg propagation (linearised regions only; falls back
    /// to numeric integration for nonlinear systems or telemetry runs).
    #[default]
    Analytic,
    /// Event-located DOPRI5 hybrid integration.
    Dopri5,
}

/// Options for [`fluid_trajectory`].
#[derive(Debug, Clone, PartialEq)]
pub struct FluidOptions {
    /// Model-time horizon in seconds.
    pub t_end: f64,
    /// Integrator tolerance (numeric engine only).
    pub tol: f64,
    /// Maximum number of region switches before stopping.
    pub max_switches: usize,
    /// Optional dense recording interval.
    pub record_dt: Option<f64>,
    /// Trajectory engine (see [`Engine`] for the fallback rules).
    pub engine: Engine,
}

impl Default for FluidOptions {
    fn default() -> Self {
        Self {
            t_end: 1.0,
            tol: 1e-9,
            max_switches: 10_000,
            record_dt: None,
            engine: Engine::default(),
        }
    }
}

impl FluidOptions {
    /// Sets the time horizon.
    #[must_use]
    pub fn with_t_end(mut self, t_end: f64) -> Self {
        self.t_end = t_end;
        self
    }

    /// Sets the dense recording interval.
    #[must_use]
    pub fn with_record_dt(mut self, dt: f64) -> Self {
        self.record_dt = Some(dt);
        self
    }

    /// Selects the trajectory engine.
    #[must_use]
    pub fn with_engine(mut self, engine: Engine) -> Self {
        self.engine = engine;
        self
    }
}

/// Integrates the switched BCN system from `p0` (deviation coordinates)
/// with exact event location on the switching line.
///
/// # Errors
///
/// Propagates [`SolveError`] from the integrator.
pub fn fluid_trajectory(
    sys: &BcnFluid,
    p0: [f64; 2],
    opts: &FluidOptions,
) -> Result<HybridSolution<2>, SolveError> {
    fluid_trajectory_telemetry(sys, p0, opts, None)
}

/// Like [`fluid_trajectory`], recording solver telemetry (step sizes,
/// region switches, event-location iterations) plus queue occupancy
/// samples and queue extrema into `tel` when provided.
///
/// The fluid state is in deviation coordinates `x = q - q0`; queue
/// telemetry is reported in physical bits (`q0 + x`). Extrema are found
/// by scanning the recorded trajectory for sign changes of `y = dq/dt`,
/// so their resolution follows `opts.record_dt` (or the accepted solver
/// steps when dense recording is off).
///
/// # Errors
///
/// Propagates [`SolveError`] from the integrator.
pub fn fluid_trajectory_telemetry(
    sys: &BcnFluid,
    p0: [f64; 2],
    opts: &FluidOptions,
    mut tel: Option<&mut Telemetry>,
) -> Result<HybridSolution<2>, SolveError> {
    // The analytic engine applies only where the closed forms do: the
    // linearised model. Telemetry-instrumented runs stay numeric too —
    // solver telemetry (step sizes, event iterations) only exists there.
    let tel_enabled = tel.as_deref().is_some_and(Telemetry::enabled);
    if opts.engine == Engine::Analytic && sys.linearity() == Linearity::Linearized && !tel_enabled {
        return Ok(crate::propagate::analytic_trajectory(sys, p0, opts));
    }
    let mut stepper = Dopri5::with_tolerances(opts.tol, opts.tol);
    let mut o = Options::default();
    if let Some(dt) = opts.record_dt {
        o = o.with_record_dt(dt);
    }
    let out = integrate_hybrid_telemetry(
        sys,
        0.0,
        p0,
        opts.t_end,
        opts.max_switches,
        &mut stepper,
        &o,
        tel.as_deref_mut(),
    )?;
    if let Some(tel) = tel {
        if tel.enabled() {
            record_queue_telemetry(sys, &out, tel);
        }
    }
    Ok(out)
}

/// Replays the recorded trajectory into queue-occupancy samples and
/// extremum events (sign changes of `y = dq/dt` between samples).
fn record_queue_telemetry(sys: &BcnFluid, out: &HybridSolution<2>, tel: &mut Telemetry) {
    let q0 = sys.params().q0;
    let times = out.solution.times();
    let states = out.solution.states();
    let mut prev: Option<(f64, [f64; 2])> = None;
    for (&t, &s) in times.iter().zip(states.iter()) {
        tel.queue_sample(t, q0 + s[0]);
        if let Some((tp, sp)) = prev {
            // A y sign change between samples brackets dq/dt = 0: a queue
            // extremum. Locate it by linear interpolation of y.
            if sp[1] > 0.0 && s[1] <= 0.0 || sp[1] < 0.0 && s[1] >= 0.0 {
                let frac = if s[1] == sp[1] { 0.0 } else { sp[1] / (sp[1] - s[1]) };
                let te = tp + frac * (t - tp);
                let xe = sp[0] + frac * (s[0] - sp[0]);
                let kind = if sp[1] > 0.0 { ExtremumKind::Max } else { ExtremumKind::Min };
                tel.queue_extremum(te, q0 + xe, kind);
            }
        }
        prev = Some((t, s));
    }
}

/// Result of a saturating (physical) fluid run.
#[derive(Debug, Clone, PartialEq)]
pub struct SaturatingRun {
    /// Sample times (seconds).
    pub times: Vec<f64>,
    /// Queue lengths `q(t)` in bits (clamped to `[0, B]`).
    pub queue: Vec<f64>,
    /// Aggregate source rate `N r(t)` in bit/s.
    pub rate: Vec<f64>,
    /// Total bits dropped at the full buffer.
    pub dropped_bits: f64,
    /// Total bits of service lost to an empty queue with the aggregate
    /// rate below capacity (link underutilisation).
    pub idle_bits: f64,
    /// Largest queue observed (bits).
    pub max_queue: f64,
    /// Smallest queue observed after the first buffer departure (bits).
    pub min_queue_after_start: f64,
}

impl SaturatingRun {
    /// Whether any packets (bits) were dropped.
    #[must_use]
    pub fn has_drops(&self) -> bool {
        self.dropped_bits > 0.0
    }
}

/// The physical fluid model: queue clamped to `[0, B]` with drop and
/// idle-time accounting (forward-Euler with saturation; the clamped
/// dynamics are non-smooth, so a small fixed step is the robust choice).
#[derive(Debug, Clone, PartialEq)]
pub struct SaturatingFluid {
    params: BcnParams,
    linearity: Linearity,
}

impl SaturatingFluid {
    /// Builds the physical model with the full nonlinear decrease law.
    #[must_use]
    pub fn new(params: BcnParams) -> Self {
        Self { params, linearity: Linearity::FullNonlinear }
    }

    /// Uses the linearised decrease law instead.
    #[must_use]
    pub fn linearized(params: BcnParams) -> Self {
        Self { params, linearity: Linearity::Linearized }
    }

    /// The parameter set.
    #[must_use]
    pub fn params(&self) -> &BcnParams {
        &self.params
    }

    /// Runs the model from physical state `(q0_bits, aggregate_rate)` for
    /// `t_end` seconds with fixed step `dt`, recording every
    /// `record_every`-th sample.
    ///
    /// # Panics
    ///
    /// Panics if `dt` or `t_end` are non-positive, `t_end` is not finite,
    /// or `record_every` is 0.
    #[must_use]
    pub fn run(
        &self,
        q_init: f64,
        rate_init: f64,
        t_end: f64,
        dt: f64,
        record_every: usize,
    ) -> SaturatingRun {
        let n_steps = step_count(t_end, dt);
        assert!(record_every > 0, "record_every must be at least 1");
        let r = Recurrence::new(&self.params, self.linearity);

        let mut q = q_init.clamp(0.0, r.buffer);
        let mut rate = rate_init.max(0.0);
        let mut dropped = 0.0;
        let mut idle = 0.0;
        let mut max_q = q;
        let mut min_q_after = f64::INFINITY;
        let mut started = q > 0.0;

        let mut times = Vec::with_capacity(n_steps / record_every + 2);
        let mut queue = Vec::with_capacity(times.capacity());
        let mut rates = Vec::with_capacity(times.capacity());
        times.push(0.0);
        queue.push(q);
        rates.push(rate);

        for step in 1..=n_steps {
            let s = r.step(q, rate, dt);
            // Both increments are +0.0 off the walls, which leaves the
            // non-negative sums bitwise unchanged.
            dropped += s.dropped;
            idle += s.idle;
            q = s.q;
            rate = s.rate;
            if q > 0.0 {
                started = true;
            }
            max_q = max_q.max(q);
            if started {
                min_q_after = min_q_after.min(q);
            }
            if step % record_every == 0 || step == n_steps {
                times.push(step as f64 * dt);
                queue.push(q);
                rates.push(rate);
            }
        }

        SaturatingRun {
            times,
            queue,
            rate: rates,
            dropped_bits: dropped,
            idle_bits: idle,
            max_queue: max_q,
            min_queue_after_start: if min_q_after.is_finite() { min_q_after } else { q },
        }
    }

    /// Runs from the canonical start (empty queue, aggregate rate at
    /// capacity) with a step automatically chosen well below the fastest
    /// region's rotation period.
    #[must_use]
    pub fn run_canonical(&self, t_end: f64) -> SaturatingRun {
        let dt = canonical_dt(&self.params, t_end);
        let record_every = ((t_end / dt / 4000.0).ceil() as usize).max(1);
        self.run(0.0, self.params.capacity, t_end, dt, record_every)
    }
}

/// The Euler step [`SaturatingFluid::run_canonical`] takes over a
/// `t_end` horizon.
fn canonical_dt(p: &BcnParams, t_end: f64) -> f64 {
    let beta_fast = (p.a().max(p.b() * p.capacity)).sqrt();
    (0.002 / beta_fast).min(t_end / 1000.0)
}

/// The number of Euler steps of size `dt` that cover `t_end`.
///
/// # Panics
///
/// Panics if `dt` or `t_end` are non-positive or `t_end` is not finite
/// (an infinite horizon would saturate the count and never return).
fn step_count(t_end: f64, dt: f64) -> usize {
    assert!(
        dt > 0.0 && t_end > 0.0 && t_end.is_finite(),
        "time step and horizon must be positive and finite"
    );
    (t_end / dt).ceil() as usize
}

/// The coefficients of the saturating model's forward-Euler recurrence,
/// read out of [`BcnParams`] once per run rather than once per step.
#[derive(Debug, Clone, Copy, Default)]
struct Recurrence {
    buffer: f64,
    cap: f64,
    q0: f64,
    k: f64,
    a: f64,
    b: f64,
    linearity: Linearity,
}

/// One Euler step: the next state and the step's drop and idle volumes
/// (`+0.0` unless the queue sits on the matching wall).
#[derive(Debug, Clone, Copy)]
struct Step {
    q: f64,
    rate: f64,
    dropped: f64,
    idle: f64,
}

impl Recurrence {
    fn new(p: &BcnParams, linearity: Linearity) -> Self {
        Self {
            buffer: p.buffer,
            cap: p.capacity,
            q0: p.q0,
            k: p.k(),
            a: p.a(),
            b: p.b(),
            linearity,
        }
    }

    /// The recurrence itself — the one definition both
    /// [`SaturatingFluid::run`] and [`drop_verdicts_lockstep`] step.
    #[inline]
    fn step(&self, q: f64, rate: f64, dt: f64) -> Step {
        // Unclamped queue drift and its saturated (physical) version.
        let drift = rate - self.cap;
        let full = q >= self.buffer && drift > 0.0;
        let empty = q <= 0.0 && drift < 0.0;
        let q_dot = if full || empty { 0.0 } else { drift };
        // Congestion measure from the *observed* queue dynamics.
        let sigma = (self.q0 - q) - self.k * q_dot;
        // Rate law (Eq. 7), scaled to the aggregate rate R = N r:
        // dR/dt = a sigma (increase) or b sigma R (decrease).
        let rate_dot = if sigma > 0.0 {
            self.a * sigma
        } else {
            self.b
                * sigma
                * match self.linearity {
                    Linearity::FullNonlinear => rate,
                    Linearity::Linearized => self.cap,
                }
        };
        Step {
            q: (q + q_dot * dt).clamp(0.0, self.buffer),
            rate: (rate + rate_dot * dt).max(0.0),
            dropped: if full { drift * dt } else { 0.0 },
            idle: if empty { -drift * dt } else { 0.0 },
        }
    }
}

/// Cells [`drop_verdicts_lockstep`] steps side by side. Each step is a
/// serial `rate -> sigma -> rate` dependency chain; interleaving four
/// independent chains lets the core overlap their latencies.
const LANES: usize = 4;

/// Steps the lanes take between checks for a drop or a finished horizon.
/// A lane may run up to this many steps past its first drop; the verdict
/// is already settled then, so the cost is bounded and the answer exact.
const BLOCK: usize = 256;

/// One kernel lane: a cell's state while it is being stepped. The
/// all-zero default is an idle lane; stepping it keeps every value zero.
#[derive(Debug, Clone, Copy, Default)]
struct Lane {
    r: Recurrence,
    q: f64,
    rate: f64,
    dt: f64,
    /// Steps left in the cell's horizon; 0 marks an idle lane.
    left: usize,
    dropped: bool,
    cell: usize,
}

impl Lane {
    /// Loads `cell` at the canonical start of [`SaturatingFluid::run_canonical`].
    fn start(model: &SaturatingFluid, t_end: f64, cell: usize) -> Self {
        let p = &model.params;
        let dt = canonical_dt(p, t_end);
        let r = Recurrence::new(p, model.linearity);
        Self {
            left: step_count(t_end, dt),
            q: 0.0_f64.clamp(0.0, r.buffer),
            rate: p.capacity.max(0.0),
            r,
            dt,
            dropped: false,
            cell,
        }
    }
}

/// Whether `cells[i].0.run_canonical(cells[i].1)` drops bits, for every
/// `i`, without building the trajectories.
///
/// Dropped bits only accumulate, so a cell's verdict is settled at its
/// first step with a positive drop volume; the kernel retires the cell
/// there, or at the end of its horizon, and refills the lane with the
/// next cell. Each lane runs exactly the step sequence of
/// [`SaturatingFluid::run`], so the verdicts equal `has_drops()` bit for
/// bit.
///
/// # Panics
///
/// Panics like [`SaturatingFluid::run_canonical`] on a non-positive or
/// non-finite horizon.
pub(crate) fn drop_verdicts_lockstep(cells: &[(SaturatingFluid, f64)]) -> Vec<bool> {
    let mut out = vec![false; cells.len()];
    let mut next = 0;
    let mut lanes = [Lane::default(); LANES];
    loop {
        for lane in &mut lanes {
            if lane.left == 0 && next < cells.len() {
                let (model, t_end) = &cells[next];
                *lane = Lane::start(model, *t_end, next);
                next += 1;
            }
        }
        let Some(block) = lanes.iter().filter(|l| l.left > 0).map(|l| l.left.min(BLOCK)).min()
        else {
            return out;
        };
        for _ in 0..block {
            for lane in &mut lanes {
                let s = lane.r.step(lane.q, lane.rate, lane.dt);
                lane.q = s.q;
                lane.rate = s.rate;
                lane.dropped |= s.dropped > 0.0;
            }
        }
        for lane in lanes.iter_mut().filter(|l| l.left > 0) {
            lane.left -= block;
            if lane.dropped || lane.left == 0 {
                out[lane.cell] = lane.dropped;
                *lane = Lane::default();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stability;

    fn params() -> BcnParams {
        BcnParams::test_defaults()
    }

    #[test]
    fn hybrid_trajectory_converges_towards_equilibrium() {
        let p = params();
        let sys = BcnFluid::linearized(p.clone());
        let opts = FluidOptions::default().with_t_end(60.0);
        let out = fluid_trajectory(&sys, p.initial_point(), &opts).unwrap();
        let end = out.solution.last_state();
        let start_amp = p.q0;
        assert!(
            end[0].abs() < 0.6 * start_amp,
            "no contraction: {end:?} from amplitude {start_amp}"
        );
        assert!(out.switch_count() > 4, "switches {}", out.switch_count());
    }

    #[test]
    fn hybrid_extrema_match_round_analysis() {
        // The ODE-integrated maximum queue must agree with the exact
        // closed-form first-round maximum. Engine pinned to DOPRI5: this
        // test is the numeric-vs-closed-form cross-check.
        let p = params();
        let sys = BcnFluid::linearized(p.clone());
        let fr = crate::rounds::first_round(&p).unwrap();
        let opts = FluidOptions {
            t_end: 10.0,
            tol: 1e-11,
            max_switches: 100,
            record_dt: Some(1e-3),
            engine: Engine::Dopri5,
        };
        let out = fluid_trajectory(&sys, p.initial_point(), &opts).unwrap();
        let max_x = out.solution.max_component(0);
        assert!(
            (max_x - fr.max1_x).abs() < 1e-4 * fr.max1_x.abs(),
            "integrated {max_x} vs closed form {}",
            fr.max1_x
        );
    }

    #[test]
    fn analytic_engine_matches_numeric_trajectory() {
        // Engine::Analytic (the default) must reproduce the DOPRI5 hybrid
        // path: same switch sequence, endpoints to integrator tolerance,
        // and the exact first-round maximum.
        let p = params();
        let sys = BcnFluid::linearized(p.clone());
        let base = FluidOptions {
            t_end: 0.5,
            tol: 1e-11,
            max_switches: 100,
            record_dt: Some(1e-3),
            engine: Engine::Analytic,
        };
        let ana = fluid_trajectory(&sys, p.initial_point(), &base).unwrap();
        let num =
            fluid_trajectory(&sys, p.initial_point(), &base.clone().with_engine(Engine::Dopri5))
                .unwrap();
        assert_eq!(ana.switch_count(), num.switch_count(), "switch sequences differ");
        for (a, n) in ana.intervals.iter().zip(num.intervals.iter()) {
            assert_eq!(a.mode, n.mode);
            assert!(
                (a.t_end - n.t_end).abs() < 1e-7 * base.t_end,
                "switch time {} vs {}",
                a.t_end,
                n.t_end
            );
        }
        let (za, zn) = (ana.solution.last_state(), num.solution.last_state());
        for i in 0..2 {
            let scale = if i == 0 { p.q0 } else { p.capacity };
            assert!(
                (za[i] - zn[i]).abs() < 1e-6 * scale,
                "endpoint component {i}: analytic {} vs numeric {}",
                za[i],
                zn[i]
            );
        }
        let fr = crate::rounds::first_round(&p).unwrap();
        let max_a = ana.solution.max_component(0);
        assert!(
            (max_a - fr.max1_x).abs() < 1e-9 * fr.max1_x.abs(),
            "analytic max {max_a} should be exact vs {}",
            fr.max1_x
        );
    }

    #[test]
    fn analytic_engine_falls_back_for_nonlinear_systems() {
        // The nonlinear decrease law has no closed form: the selector must
        // hand the run to DOPRI5, which still integrates successfully.
        let p = params();
        let sys = BcnFluid::new(p.clone());
        let out = fluid_trajectory(&sys, p.initial_point(), &FluidOptions::default()).unwrap();
        assert!(out.switch_count() > 0);
        assert!(out.solution.last_time() >= 1.0 - 1e-12);
    }

    #[test]
    fn saturating_run_with_roomy_buffer_has_no_drops() {
        let p = params().with_buffer(3.0e5); // far above the overshoot
        let run = SaturatingFluid::new(p).run_canonical(4.0);
        assert!(!run.has_drops(), "dropped {}", run.dropped_bits);
        assert!(run.max_queue < 3.0e5);
    }

    #[test]
    fn saturating_run_with_tight_buffer_drops() {
        // Shrink the buffer below the known overshoot: drops must appear.
        let p = params();
        let fr = crate::rounds::first_round(&p).unwrap();
        let tight = p.clone().with_buffer(p.q0 + 0.5 * fr.max1_x);
        let run = SaturatingFluid::linearized(tight).run_canonical(4.0);
        assert!(run.has_drops(), "expected drops, run max {}", run.max_queue);
    }

    #[test]
    fn saturating_queue_stays_physical() {
        let p = params();
        let run = SaturatingFluid::new(p.clone()).run_canonical(2.0);
        for &q in &run.queue {
            assert!((0.0..=p.buffer).contains(&q), "q = {q}");
        }
        for &r in &run.rate {
            assert!(r >= 0.0);
        }
    }

    #[test]
    fn saturating_max_queue_tracks_exact_analysis() {
        // With a large buffer the saturating model never clamps, so its
        // max queue approximates the unbounded analysis.
        let p = params().with_buffer(1.0e6);
        let exact = stability::exact_verdict(&p, 10);
        let run = SaturatingFluid::linearized(p.clone()).run_canonical(3.0);
        let expected = p.q0 + exact.max_x;
        assert!(
            (run.max_queue - expected).abs() < 0.03 * expected,
            "saturating {} vs exact {expected}",
            run.max_queue
        );
    }

    #[test]
    fn drop_accounting_is_consistent() {
        // Everything the sources pour in above capacity while the buffer
        // is pinned must show up as drops; a sanity lower bound.
        let p = params().with_buffer(p_tight());
        let run = SaturatingFluid::new(p).run_canonical(2.0);
        if run.has_drops() {
            assert!(run.dropped_bits > 0.0);
            assert!(run.dropped_bits < 2.0 * 1.0e6 * 2.0, "absurd drop volume");
        }
    }

    fn p_tight() -> f64 {
        let p = params();
        let fr = crate::rounds::first_round(&p).unwrap();
        p.q0 + 0.3 * fr.max1_x
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn rejects_bad_step() {
        let p = params();
        let _ = SaturatingFluid::new(p).run(0.0, 1.0, -1.0, 1e-3, 1);
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn rejects_infinite_horizon() {
        // An infinite horizon used to saturate the step count and loop
        // without end.
        let _ = SaturatingFluid::new(params()).run_canonical(f64::INFINITY);
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn kernel_rejects_infinite_horizon() {
        let model = SaturatingFluid::linearized(params());
        let _ = stability::fluid_drop_verdicts(&[(model, f64::INFINITY)]);
    }

    /// The reference verdict: the full trajectory's drop count.
    fn oracle(cells: &[(SaturatingFluid, f64)]) -> Vec<bool> {
        cells.iter().map(|(m, h)| m.run_canonical(*h).has_drops()).collect()
    }

    /// Gain pairs around the defaults at a tight and a roomy buffer, some
    /// of which drop and some of which do not, with uneven horizons so
    /// lanes finish out of step.
    fn mixed_cells(linearity: Linearity) -> Vec<(SaturatingFluid, f64)> {
        let mut cells = Vec::new();
        for (i, buffer) in [p_tight(), 3.0e5].into_iter().enumerate() {
            for (j, scale) in [0.25, 1.0, 4.0].into_iter().enumerate() {
                let p = params().with_buffer(buffer).with_gi(params().gi * scale);
                let model = SaturatingFluid { params: p, linearity };
                cells.push((model, 0.2 + 0.15 * (i + 2 * j) as f64));
            }
        }
        cells
    }

    #[test]
    fn drop_kernel_matches_full_runs_for_both_linearities() {
        for linearity in [Linearity::Linearized, Linearity::FullNonlinear] {
            let cells = mixed_cells(linearity);
            let expected = oracle(&cells);
            assert!(expected.contains(&true) && expected.contains(&false), "{expected:?}");
            assert_eq!(stability::fluid_drop_verdicts(&cells), expected, "{linearity:?}");
        }
    }

    #[test]
    fn drop_kernel_refills_lanes_at_every_batch_length() {
        // 0 and 1 leave lanes idle; 3 never fills them; 5 and 9 refill
        // lanes and end on a short tail.
        let pool = mixed_cells(Linearity::Linearized);
        let pool = [pool.clone(), pool].concat();
        let expected = oracle(&pool);
        for len in [0, 1, 3, 5, 9] {
            let cells = &pool[pool.len() - len..];
            let want = &expected[pool.len() - len..];
            assert_eq!(drop_verdicts_lockstep(cells), want, "batch of {len}");
            assert_eq!(stability::fluid_drop_verdicts(cells), want, "batch of {len}");
        }
    }

    #[test]
    fn drop_kernel_horizon_cut_at_the_first_drop_step() {
        // A slow increase law takes well over 1000 steps to reach the
        // tight buffer, so the canonical step is the same for every cut.
        let p = params().with_buffer(p_tight()).with_gi(params().gi * 0.25);
        let model = SaturatingFluid::linearized(p.clone());
        let dt = canonical_dt(&p, 4.0);
        // A horizon of `n - 0.5` steps rounds up to exactly `n` steps.
        let horizon = |n: usize| (n as f64 - 0.5) * dt;
        let drops = |n: usize| model.run_canonical(horizon(n)).has_drops();
        // Bisect for the first step with dropped bits: no drops in `lo`
        // steps, drops in `hi`.
        let (mut lo, mut hi) = (1001, step_count(4.0, dt));
        assert!(!drops(lo) && drops(hi), "cell must first drop after step {lo}");
        while hi - lo > 1 {
            let mid = lo + (hi - lo) / 2;
            if drops(mid) {
                hi = mid;
            } else {
                lo = mid;
            }
        }
        for (n, want) in [(hi, true), (hi - 1, false)] {
            assert_eq!(canonical_dt(&p, horizon(n)), dt);
            assert_eq!(step_count(horizon(n), dt), n);
            let cells = [(model.clone(), horizon(n))];
            assert_eq!(stability::fluid_drop_verdicts(&cells), [want], "horizon of {n} steps");
        }
    }
}
