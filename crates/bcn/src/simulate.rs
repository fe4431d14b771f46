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
//!   it provides the drop ground truth for the criterion experiments.
//!
//! # Settling certificate
//!
//! `drop_verdicts_lockstep` retires a lane before its horizon ends,
//! with verdict `false`, once its state provably cannot reach the buffer
//! wall, the empty wall or the rate floor for the rest of any horizon.
//! The argument runs in deviation coordinates `x = q − q0`, `y = R − C`,
//! with `σ = −x − k y`, `g = a` where `σ > 0` and `g = bC` where `σ ≤ 0`
//! (the linearised law; a lane with the nonlinear one gets no
//! certificate).
//!
//! *Invariant.* Off the walls, `Recurrence::step` is `z' = M_g z` with
//! `M_g = [[1, dt], [−g dt, 1 − g k dt]]`. Take
//! `Q_g(x, y) = g x² + g k x y + y² = g (x + k y/2)² + s_g² y²`, with
//! `s_g² = 1 − g k²/4`. It equals `ω(z, M_g z)/(−dt)` for
//! `ω(u, v) = u₁v₂ − u₂v₁`, and `ω(Mu, Mv) = det M · ω(u, v)`, so
//! `Q_g(M_g z) = δ_g Q_g(z)` exactly, with
//! `δ_g = det M_g = 1 − g dt (k − dt)`. Where `g k² < 4`, `Q_g` is
//! positive definite, with `|y| ≤ √Q_g/s_g` and `|x| ≤ √Q_g/(√g s_g)`.
//! On the line `σ = 0` both forms equal `y²`. Let `V = Q_g(z)`, with
//! `g` the region of `z`.
//!
//! *Switch step.* From `z` in region `g` to `z' = M_g z` in region `h`,
//! `Q_h(z') = δ_g Q_g(z) − (h − g) x' σ'`. Since
//! `σ' = (1 − g k dt) σ − dt y` and `σ`, `σ'` lie on opposite sides,
//! `|σ| ≤ c_g |y|` with `c_g = dt/(1 − g k dt)` and `|σ'| ≤ dt |y|`;
//! also `|x'| = |σ + (k − dt) y| ≤ (k + c_g) |y|`. So `V' ≤ J_g V`, with
//! `J_g = δ_g + |h − g| c_g (k + c_g)/s_g²`.
//!
//! *Visit length.* In the coordinates where `Q_h = u² + v²`, `M_h` is
//! `√δ_h` times a rotation by `θ_h`, with
//! `tan θ_h = dt √h s_h/(1 − h k dt/2)`. A region is a half-plane: an arc
//! of π. Pulled back one step, the entry state `z'` has
//! `σ(M_h⁻¹ z') = δ_g σ(z)/δ_h`, on the side it came from, so `z'` lies
//! within `θ_h` of the arc's entry end, and the visit holds at least
//! `N_h − 1` states, `N_h = ⌊π/θ_h⌋`. A visit to `g` with the switch out
//! of it multiplies `V` by at most `ρ_g = δ_g^(N_g − 2) J_g`. Where
//! `ρ_a, ρ_b < 1`, no later `V` exceeds `max(1, J_a, J_b)` times the
//! present one: the present visit only shrinks it, its switch multiplies
//! it by at most `J`, and each later visit with its switch shrinks it.
//!
//! *Extents.* Let `W = √V` stay below `W_max` from now on. In region `b`,
//! `x ≤ W_max/(√(bC) s_b)`; in region `a`, `σ > 0` gives
//! `x < −k y ≤ k W_max/s_a`. Mirrored, `x ≥ −W_max/(√a s_a)` in `a` and
//! `x ≥ −k W_max/s_b` in `b`, and `|y| ≤ W_max/min(s_a, s_b)`. The lane
//! retires when these lie strictly inside `(−q0, B − q0)` and `|y| < C`.
//! Then no later step reaches a wall, the queue clamp or the rate floor,
//! so every step stays the linear one above, and the run never drops.
//!
//! *Rounding.* The lane steps the floating-point recurrence, not `M_g`.
//! With `u = 2⁻⁵³`, `M = max(B, q0)` and `|y| < C`, one computed step
//! differs from `M_g z` by at most `E_x = u (B + 3 C dt)` in `x` and
//! `E_y = 2uC + g_max dt (4u (M + kC) + ε_σ)` in `y`, where
//! `ε_σ = 3u (M + 2kC)` bounds the computed σ's error. So the kernel's
//! region can differ from the sign of the exact `σ` only within `ε_σ`
//! of the line. Take `V = Q_g(z)` for the region the kernel steps `z`
//! in. In `√Q`-norm a step's error is at most `√g_max E_x + E_y`; a
//! switch from or to a state the kernel places on the wrong side adds at
//! most `|a − bC| ε_σ (4k/s + ε_σ/W)` more, which is below
//! `|a − bC| ε_σ 4k/s + √|a − bC| ε_σ` where `W ≥ W_c`. `E_W` is twice
//! the sum of these terms and of `√g_max ε_σ` and `4 g_max dt ε_σ`, which
//! the two conditions below need. Take `τ = min θ_g/(4 N_g + 16)` and
//! `W_c = E_W/τ`. While `W ≥ W_c`:
//!
//! * a step adds at most `τ W`: steps within a visit multiply `W` by at
//!   most `√δ_g + τ`, and switch steps by at most `√J_g + τ`;
//! * a step's error turns the state by at most `2τ`, a state within
//!   `ε_σ` of the line lies within `2τ` of it (`√g_max ε_σ ≤ τ W`), and
//!   no two consecutive states do (`σ` moves by about `dt W ≥ 8 ε_σ`
//!   per step there). The entry then lies within `2θ_h + 6τ` of the
//!   arc's end, and since `(2 N_h + 4) τ < θ_h` the visit holds at least
//!   `N_h − 2` states, one fewer than in exact arithmetic.
//!
//! So the certificate requires `(√δ_g + τ)^(N_g − 3) (√J_g + τ) < 1` for
//! both regions. Below `W_c` a step still multiplies `W` by at most
//! `√J_g` and adds at most `E_W`, so the trajectory re-enters `W ≥ W_c`
//! below `(√J_g + τ) W_c`. With `K = max(1, √J_a + τ, √J_b + τ)`, every
//! later `W` is then below `K max(W_now, K W_c)`. The slack does not
//! grow with the remaining steps: the contraction absorbs each step's
//! error. The check also inflates `W` by `64u/s²` (evaluating `V`, the
//! extents and the constants, each a few roundings; `V` is at least
//! `s²/4` times the sum of its terms' sizes), deducts `ε_σ` from the
//! wall distances, and demands the visit condition with a relative
//! margin of `(4 N_g + 16) u` for the power. The constants are built
//! once per cell in `Lane::start`; a lane with `dt ≥ k`, a node
//! region (`g k² ≥ 4`), `g k dt > 1/2` or a visit condition that fails
//! steps to the end of its horizon as before. On the perfbench atlas the
//! extents of the floor `K² W_c` reach at most ~0.3% of the room to
//! either wall and of `C`.

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
    /// Largest queue observed (bits).
    pub max_queue: f64,
}

impl SaturatingRun {
    /// Whether any packets (bits) were dropped.
    #[must_use]
    pub fn has_drops(&self) -> bool {
        self.dropped_bits > 0.0
    }
}

/// The physical fluid model: queue clamped to `[0, B]` with drop
/// accounting (forward-Euler with saturation; the clamped dynamics are
/// non-smooth, so a small fixed step is the robust choice).
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
        let mut max_q = q;

        let mut times = Vec::with_capacity(n_steps / record_every + 2);
        let mut queue = Vec::with_capacity(times.capacity());
        let mut rates = Vec::with_capacity(times.capacity());
        times.push(0.0);
        queue.push(q);
        rates.push(rate);

        for step in 1..=n_steps {
            let (wall, next_rate) = r.step(q, rate, dt);
            // The drop volume is +0.0 off the wall, which leaves the
            // non-negative sum bitwise unchanged.
            dropped += wall.dropped;
            q = wall.q;
            rate = next_rate;
            max_q = max_q.max(q);
            if step % record_every == 0 || step == n_steps {
                times.push(step as f64 * dt);
                queue.push(q);
                rates.push(rate);
            }
        }

        SaturatingRun { times, queue, rate: rates, dropped_bits: dropped, max_queue: max_q }
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

/// The Euler step the canonical saturating and per-flow runs take over a
/// `t_end` horizon.
pub(crate) fn canonical_dt(p: &BcnParams, t_end: f64) -> f64 {
    let beta_fast = (p.a().max(p.b() * p.capacity)).sqrt();
    (0.002 / beta_fast).min(t_end / 1000.0)
}

/// The number of fixed steps of size `dt` that cover `t_end`.
///
/// # Panics
///
/// Panics if `dt` or `t_end` are non-positive, `t_end` is not finite or
/// the count does not fit a `usize` (a cast would saturate it, and the
/// run would never return).
pub(crate) fn step_count(t_end: f64, dt: f64) -> usize {
    assert!(
        dt > 0.0 && t_end > 0.0 && t_end.is_finite(),
        "time step and horizon must be positive and finite"
    );
    let steps = (t_end / dt).ceil();
    // `usize::MAX as f64` rounds up to the first count that does not fit.
    assert!(
        steps < usize::MAX as f64,
        "time step and horizon must be positive and finite, with a step count that fits a usize \
         (t_end / dt = {steps:e})"
    );
    steps as usize
}

/// The saturating fluid step over a queue and the rates feeding it, with
/// its coefficients read out of [`BcnParams`] once per run rather than
/// once per step. The planar model steps it with one rate (the aggregate
/// `R = N r`, increase gain `a`); [`crate::hetero::HeteroBcn`] steps it
/// over the `N` per-flow rates.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Recurrence {
    buffer: f64,
    cap: f64,
    q0: f64,
    k: f64,
    a: f64,
    b: f64,
    linearity: Linearity,
}

/// The queue half of one Euler step.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Wall {
    /// The next queue, clamped to `[0, B]`.
    pub(crate) q: f64,
    /// The congestion measure from the saturated queue drift.
    pub(crate) sigma: f64,
    /// Bits dropped at the full buffer this step (`+0.0` elsewhere).
    pub(crate) dropped: f64,
}

impl Recurrence {
    pub(crate) fn new(p: &BcnParams, linearity: Linearity) -> Self {
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

    /// The queue under total arrival rate `aggregate`: the walls, the
    /// congestion measure and the drop volume.
    #[inline]
    pub(crate) fn wall(&self, q: f64, aggregate: f64, dt: f64) -> Wall {
        // Unclamped queue drift and its saturated (physical) version.
        let drift = aggregate - self.cap;
        let full = q >= self.buffer && drift > 0.0;
        let empty = q <= 0.0 && drift < 0.0;
        let q_dot = if full || empty { 0.0 } else { drift };
        Wall {
            q: (q + q_dot * dt).clamp(0.0, self.buffer),
            // Congestion measure from the *observed* queue dynamics.
            sigma: (self.q0 - q) - self.k * q_dot,
            dropped: if full { drift * dt } else { 0.0 },
        }
    }

    /// One rate `r` under the rate law (Eq. 7) with increase gain `gain`
    /// and feedback weight `weight`: `dr/dt = weight gain sigma`
    /// (increase) or `weight b sigma r` (decrease, `r` read as `C` when
    /// linearised).
    #[inline]
    pub(crate) fn rate(&self, sigma: f64, r: f64, gain: f64, weight: f64, dt: f64) -> f64 {
        let r_dot = if sigma > 0.0 {
            weight * gain * sigma
        } else {
            weight
                * self.b
                * sigma
                * match self.linearity {
                    Linearity::FullNonlinear => r,
                    Linearity::Linearized => self.cap,
                }
        };
        (r + r_dot * dt).max(0.0)
    }

    /// The planar step — the one both [`SaturatingFluid::run`] and
    /// [`drop_verdicts_lockstep`] take: the aggregate rate `R = N r`
    /// with increase gain `a` and unit weight.
    #[inline]
    fn step(&self, q: f64, rate: f64, dt: f64) -> (Wall, f64) {
        let wall = self.wall(q, rate, dt);
        (wall, self.rate(wall.sigma, rate, self.a, 1.0, dt))
    }
}

/// Cells [`drop_verdicts_lockstep`] steps side by side. Each step is a
/// serial `rate -> sigma -> rate` dependency chain; interleaving four
/// independent chains lets the core overlap their latencies.
const LANES: usize = 4;

/// Steps the lanes take between checks for a drop, a settled state or a
/// finished horizon. A lane may run up to this many steps past its first
/// drop; the verdict is already settled then, so the cost is bounded and
/// the answer exact.
const BLOCK: usize = 256;

/// The unit roundoff `u = 2⁻⁵³` of the certificate's rounding argument.
const UNIT: f64 = f64::EPSILON / 2.0;

/// The certificate's constants for one region of the linearised step
/// (module docs, "Settling certificate"): gain `g`, leaving towards the
/// region of gain `h`.
#[derive(Debug, Clone, Copy)]
struct RegionBound {
    g: f64,
    /// `s_g = √(1 − g k²/4)`.
    s: f64,
    /// `δ_g = det M_g`: the exact factor of `Q_g` per step in the region.
    delta: f64,
    /// `J_g`: the bound on `V'/V` over a step that leaves the region.
    jump: f64,
    /// `θ_g`: the turn of one step in the normal coordinates of `M_g`.
    theta: f64,
    /// `N_g = ⌊π/θ_g⌋`, rounded down through the evaluation error.
    turns: f64,
}

impl RegionBound {
    /// `None` where the argument does not apply: `dt ≥ k`, a node
    /// region (`g k² ≥ 4`), `g k dt > 1/2`, fewer than 4 steps per half
    /// turn, or a value that is not finite.
    fn new(g: f64, h: f64, k: f64, dt: f64) -> Option<Self> {
        let (gk, gkdt) = (g * k, g * k * dt);
        if !(dt > 0.0 && dt < k && g > 0.0 && gk * k < 4.0 && gkdt <= 0.5 && h.is_finite()) {
            return None;
        }
        let s = (1.0 - gk * k / 4.0).sqrt();
        let c = dt / (1.0 - gkdt);
        let theta = (dt * g.sqrt() * s).atan2(1.0 - gkdt / 2.0);
        let turns = (std::f64::consts::PI / theta * (1.0 - 16.0 * UNIT)).floor();
        let bound = Self {
            g,
            s,
            delta: 1.0 - g * dt * (k - dt),
            jump: 1.0 - g * dt * (k - dt) + (h - g).abs() * c * (k + c) / (s * s),
            theta,
            turns,
        };
        (turns >= 4.0 && bound.jump.is_finite()).then_some(bound)
    }

    /// The largest relative error per step, `τ_g = θ_g/(4 N_g + 16)`,
    /// at which visits keep `N_g − 2` states.
    fn tau(&self) -> f64 {
        self.theta / (4.0 * self.turns + 16.0)
    }

    /// Whether a visit and the switch out of it shrink `W = √V` at
    /// relative error `tau` per step, with margin for the power's own
    /// rounding.
    fn contracts(&self, tau: f64) -> bool {
        let inside = self.delta.sqrt() + tau;
        let visit = inside.powf(self.turns - 3.0) * (self.jump.sqrt() + tau);
        inside < 1.0 && visit * (1.0 + (4.0 * self.turns + 16.0) * UNIT) < 1.0
    }
}

/// One lane's settling certificate (module docs), built once per cell:
/// a bound `grow · max(√V, floor)` on every later `√V`, and what that
/// bound must stay below to keep the run off the walls.
#[derive(Debug, Clone, Copy)]
struct Certificate {
    /// `(g, g k)` of the increase (`σ > 0`) and decrease regions.
    increase: (f64, f64),
    decrease: (f64, f64),
    /// `K`, inflated by the evaluation slack.
    grow: f64,
    /// `K W_c`: the bound's floor, where rounding can steer the state.
    floor: f64,
    /// Extents per unit of the bound: above `q0`, below it, and of `|y|`.
    up: f64,
    down: f64,
    swing: f64,
    /// Room to the buffer wall, the empty wall and the rate floor.
    up_room: f64,
    down_room: f64,
    swing_room: f64,
}

impl Certificate {
    /// The certificate of a lane stepping `r` at `dt`, or `None` where the
    /// argument does not apply.
    fn new(r: &Recurrence, dt: f64) -> Option<Self> {
        if r.linearity != Linearity::Linearized {
            return None;
        }
        let (k, gb) = (r.k, r.b * r.cap);
        let inc = RegionBound::new(r.a, gb, k, dt)?;
        let dec = RegionBound::new(gb, r.a, k, dt)?;
        let tau = inc.tau().min(dec.tau());
        if !(inc.contracts(tau) && dec.contracts(tau)) {
            return None;
        }
        let g_max = inc.g.max(dec.g);
        let s_min = inc.s.min(dec.s);
        let gap = (inc.g - dec.g).abs();
        let m = r.buffer.max(r.q0);
        let e_sigma = 3.0 * UNIT * (m + 2.0 * k * r.cap);
        let e_x = UNIT * (r.buffer + 3.0 * r.cap * dt);
        let e_y = 2.0 * UNIT * r.cap + g_max * dt * (4.0 * UNIT * (m + k * r.cap) + e_sigma);
        let e_w = 2.0
            * (g_max.sqrt() * (e_x + e_sigma)
                + e_y
                + gap * e_sigma * 4.0 * k / s_min
                + gap.sqrt() * e_sigma
                + 4.0 * g_max * dt * e_sigma);
        let k_tau = (inc.jump.sqrt() + tau).max(dec.jump.sqrt() + tau).max(1.0);
        let room = 1.0 - 4.0 * UNIT;
        let cert = Self {
            increase: (inc.g, inc.g * k),
            decrease: (dec.g, dec.g * k),
            grow: k_tau * (1.0 + 64.0 * UNIT / (s_min * s_min)),
            floor: k_tau * e_w / tau,
            up: (1.0 / (dec.g.sqrt() * dec.s)).max(k / inc.s),
            down: (1.0 / (inc.g.sqrt() * inc.s)).max(k / dec.s),
            swing: 1.0 / s_min,
            up_room: (r.buffer - r.q0 - e_sigma) * room,
            down_room: (r.q0 - e_sigma) * room,
            swing_room: r.cap * room,
        };
        cert.floor.is_finite().then_some(cert)
    }

    /// `W = √V` at `(q, rate)`, in the region the next step takes from
    /// the σ it computes.
    fn root_v(&self, r: &Recurrence, q: f64, rate: f64) -> f64 {
        let (g, gk) = if r.wall(q, rate, 0.0).sigma > 0.0 { self.increase } else { self.decrease };
        let (x, y) = (q - r.q0, rate - r.cap);
        (g * x * x + gk * x * y + y * y).sqrt()
    }

    /// Whether no later step from `(q, rate)` can reach a wall, the
    /// queue clamp or the rate floor. Kept out of line: it runs once per
    /// block, and the step loop stays as compact as before.
    #[inline(never)]
    fn settled(&self, r: &Recurrence, q: f64, rate: f64) -> bool {
        let w = self.grow * self.root_v(r, q, rate).max(self.floor);
        w * self.up < self.up_room
            && w * self.down < self.down_room
            && w * self.swing < self.swing_room
    }
}

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
    cert: Option<Certificate>,
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
            cert: Certificate::new(&r, dt),
        }
    }

    /// Whether the lane's verdict is settled: it dropped, its horizon
    /// ended, or its certificate shows it never will drop.
    fn done(&self) -> bool {
        self.dropped
            || self.left == 0
            || self.cert.is_some_and(|c| c.settled(&self.r, self.q, self.rate))
    }
}

/// Whether `cells[i].0.run_canonical(cells[i].1)` drops bits, for every
/// `i`, without building the trajectories.
///
/// Dropped bits only accumulate, so a cell's verdict is settled at its
/// first step with a positive drop volume. A linearised cell's verdict
/// is also settled, as `false`, once its settling certificate (module
/// docs) shows that no later step can reach a wall. The kernel checks
/// both every [`BLOCK`] steps, retires the cell there, or at the end of
/// its horizon, and refills the lane with the next cell. Each lane runs
/// exactly the step sequence of [`SaturatingFluid::run`], and a retired
/// lane's remaining steps provably never drop, so the verdicts equal
/// `has_drops()` bit for bit.
///
/// # Panics
///
/// Panics like [`SaturatingFluid::run_canonical`] on a non-positive or
/// non-finite horizon.
pub(crate) fn drop_verdicts_lockstep(cells: &[(SaturatingFluid, f64)]) -> Vec<bool> {
    lockstep(cells).0
}

/// [`drop_verdicts_lockstep`], also returning the lane-steps it took.
fn lockstep(cells: &[(SaturatingFluid, f64)]) -> (Vec<bool>, usize) {
    let mut out = vec![false; cells.len()];
    let mut next = 0;
    let mut steps = 0;
    let mut lanes = [Lane::default(); LANES];
    loop {
        for lane in &mut lanes {
            if lane.left == 0 && next < cells.len() {
                let (model, t_end) = &cells[next];
                *lane = Lane::start(model, *t_end, next);
                next += 1;
            }
        }
        let live = lanes.iter().filter(|l| l.left > 0);
        let Some(block) = live.clone().map(|l| l.left.min(BLOCK)).min() else {
            return (out, steps);
        };
        steps += block * live.count();
        for _ in 0..block {
            for lane in &mut lanes {
                let (wall, rate) = lane.r.step(lane.q, lane.rate, lane.dt);
                lane.q = wall.q;
                lane.rate = rate;
                lane.dropped |= wall.dropped > 0.0;
            }
        }
        for lane in lanes.iter_mut().filter(|l| l.left > 0) {
            lane.left -= block;
            if lane.done() {
                out[lane.cell] = lane.dropped;
                *lane = Lane::default();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use std::f64::consts::PI;

    use super::*;
    use crate::delay::DelayedBcn;
    use crate::hetero::{FeedbackModel, HeteroBcn};
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
    #[should_panic(expected = "must be positive and finite")]
    fn rejects_a_step_count_past_usize() {
        // 1e300 steps used to saturate to usize::MAX and loop without end.
        let _ = SaturatingFluid::new(params()).run(0.0, 1.0, 1.0, 1e-300, 1);
    }

    #[test]
    #[cfg(target_pointer_width = "64")]
    fn step_counts_fit_below_two_to_the_64() {
        assert_eq!(step_count(2f64.powi(63), 1.0), 1 << 63);
        assert_eq!(step_count(1.0, 2f64.powi(-63)), 1 << 63);
        let past = std::panic::catch_unwind(|| step_count(2f64.powi(64), 1.0));
        assert!(past.is_err(), "2^64 steps do not fit");
    }

    #[test]
    #[should_panic(expected = "must be positive and finite")]
    fn hetero_rejects_infinite_horizon() {
        let p = params();
        let n = p.n_flows as usize;
        let sys = HeteroBcn::new(p.clone(), FeedbackModel::Uniform);
        let _ = sys.run_canonical(&vec![p.fair_share(); n], f64::INFINITY);
    }

    #[test]
    #[should_panic(expected = "must be positive and finite")]
    fn delayed_rejects_infinite_horizon() {
        // This used to overflow the state count.
        let p = params();
        let _ = DelayedBcn::new(p.clone(), 1e-3).run(p.initial_point(), f64::INFINITY, 1e-4);
    }

    #[test]
    #[should_panic(expected = "must be positive and finite")]
    fn hetero_rejects_a_step_count_past_usize() {
        let p = params();
        let n = p.n_flows as usize;
        let sys = HeteroBcn::new(p.clone(), FeedbackModel::Uniform);
        let _ = sys.run(0.0, &vec![p.fair_share(); n], 1.0, 1e-300, 1);
    }

    #[test]
    #[should_panic(expected = "must be positive and finite")]
    fn delayed_rejects_a_step_count_past_usize() {
        // This used to overflow the ring length `lag + 1`.
        let p = params();
        let _ = DelayedBcn::new(p.clone(), 1e-3).run(p.initial_point(), 1.0, 1e-300);
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

    fn splitmix64(mut z: u64) -> u64 {
        z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// The `k`-th uniform draw from `lo..hi` of the case seeded `seed`.
    fn uniform(seed: u64, k: u64, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * ((splitmix64(seed ^ splitmix64(k)) >> 11) as f64 / (1u64 << 53) as f64)
    }

    /// A log-uniform draw from `lo..hi`.
    fn log_uniform(seed: u64, k: u64, lo: f64, hi: f64) -> f64 {
        uniform(seed, k, lo.ln(), hi.ln()).exp()
    }

    /// `Q_g(x, y) = g x² + g k x y + y²`.
    fn q_form(g: f64, k: f64, [x, y]: [f64; 2]) -> f64 {
        g * x * x + g * k * x * y + y * y
    }

    /// One step of the exact-form switched map in deviation coordinates:
    /// `M_g z` with `g` picked by the sign of `σ = −x − k y`.
    fn switched_step(a: f64, gb: f64, k: f64, dt: f64, [x, y]: [f64; 2]) -> (f64, [f64; 2]) {
        let sigma = -x - k * y;
        let g = if sigma > 0.0 { a } else { gb };
        (g, [x + dt * y, y + g * dt * sigma])
    }

    #[test]
    fn q_form_shrinks_by_exactly_delta_per_step() {
        for s in 0..2_000 {
            let seed = splitmix64(0x0de1_7a00 ^ s);
            let g = log_uniform(seed, 1, 1e-2, 1e8);
            let k = uniform(seed, 2, 0.01, 1.73) / g.sqrt();
            let dt = uniform(seed, 3, 0.01, 0.99) * k;
            let z = [uniform(seed, 4, -1e3, 1e3), uniform(seed, 5, -1e3, 1e3) * g.sqrt()];
            let b = RegionBound::new(g, g, k, dt);
            let delta = 1.0 - g * dt * (k - dt);
            let next = [z[0] + dt * z[1], z[1] + g * dt * (-z[0] - k * z[1])];
            let ratio = q_form(g, k, next) / q_form(g, k, z);
            assert!(
                (ratio - delta).abs() <= 1e-12 * delta,
                "seed {seed:#x}: Q ratio {ratio} vs delta {delta} (g {g}, k {k}, dt {dt})"
            );
            if let Some(b) = b {
                assert_eq!(b.delta, delta, "seed {seed:#x}");
            }
        }
    }

    #[test]
    fn switched_orbits_respect_the_jump_and_visit_bounds() {
        // Along each orbit of the exact-form map whose regions pass the
        // certificate's visit condition (`δ^(N−3) J < 1` at no rounding
        // slack), no value exceeds `max(1, J_a, J_b)` times any
        // earlier one, and every visit but the first and the cut last one
        // holds at least `N_g − 1` states and ends, after its switch, below
        // the value it started at. The family must contain a
        // switch where V rises; there the jump term is what keeps the
        // first bound true.
        let (mut orbits, mut rises) = (0, 0);
        for s in 0..400 {
            let seed = splitmix64(0x5e77_1ed0 ^ s);
            let a = log_uniform(seed, 1, 1.0, 1e6);
            let gb = a * log_uniform(seed, 2, 0.01, 100.0);
            let k = log_uniform(seed, 3, 0.05, 1.5) / a.max(gb).sqrt();
            let dt = uniform(seed, 4, 0.2, 0.95) * k;
            let (Some(inc), Some(dec)) =
                (RegionBound::new(a, gb, k, dt), RegionBound::new(gb, a, k, dt))
            else {
                continue;
            };
            if !(inc.contracts(0.0) && dec.contracts(0.0)) {
                continue;
            }
            orbits += 1;
            let bound = inc.jump.max(dec.jump).max(1.0);
            let mut z = [uniform(seed, 5, -1.0, 1.0), uniform(seed, 6, -1.0, 1.0) * a.sqrt()];
            // (gain, V) of each state, and the start index of each visit.
            let mut states = Vec::new();
            let mut visits = vec![0];
            while visits.len() < 24 {
                let (g, next) = switched_step(a, gb, k, dt, z);
                if states.last().is_some_and(|&(h, _)| h != g) {
                    visits.push(states.len());
                }
                states.push((g, q_form(g, k, z)));
                z = next;
            }
            let mut later = 0.0_f64;
            for (n, &(g, v)) in states.iter().enumerate().rev() {
                assert!(later <= bound * v * (1.0 + 1e-12), "seed {seed:#x}: state {n} of {g}");
                later = later.max(v);
            }
            for w in visits.windows(3) {
                let (len, g) = (w[2] - w[1], states[w[1]].0);
                let turns = if g == a { inc.turns } else { dec.turns };
                assert!(len as f64 >= turns - 1.0, "seed {seed:#x}: visit of {len} in {g}");
                // A whole visit with the switch out of it shrinks V.
                let (v0, v1) = (states[w[1]].1, states[w[2]].1);
                assert!(v1 < v0, "seed {seed:#x}: V {v0} to {v1} over a visit of {len} in {g}");
            }
            rises += visits[1..].iter().filter(|&&n| states[n].1 > states[n - 1].1).count();
        }
        assert!(orbits >= 200 && rises >= 100, "{orbits} orbits, {rises} rising switches");
    }

    #[test]
    fn q_form_decays_at_g_k_along_exact_legs() {
        // dQ_g/dt = −g k Q_g, so along the exact trace every leg ends with
        // `Q` at `e^{−g k t}` times its start: per half turn of a spiral,
        // the squared amplitude factor `e^{2απ/β}` of the paper's
        // `e^{απ/β}`.
        let mut legs = Vec::new();
        let mut worst = 0.0_f64;
        for i in 0..2048 {
            let p = BcnParams::test_defaults()
                .with_capacity(1.0e6 + i as f64)
                .with_gi(1.0 + (i % 7) as f64 * 0.25);
            let prop = crate::propagate::Propagator::for_params(&p);
            crate::rounds::trace_legs_into(&p, &prop, p.initial_point(), 48, &mut legs, None);
            let k = p.k();
            for leg in legs.iter().skip(1) {
                let g = match leg.region {
                    crate::model::Region::Increase => p.a(),
                    crate::model::Region::Decrease => p.b() * p.capacity,
                };
                let (Some(end), Some(t)) = (leg.end, leg.duration) else { continue };
                let (q0, q1) = (q_form(g, k, leg.start), q_form(g, k, end));
                let miss = (q1 - (-g * k * t).exp() * q0).abs() / q0;
                worst = worst.max(miss);
                assert!(miss < 1e-12, "family {i}: Q {q1} vs {q0} e^(-gkt), t = {t}");
            }
        }
        assert!(worst > 0.0, "no on-line leg checked");
    }

    /// A random cell for the kernel oracle: gains, switching line and
    /// buffer drawn around both sides of every certificate condition,
    /// one in five with the nonlinear law.
    fn random_cell(seed: u64) -> (SaturatingFluid, f64) {
        let capacity = log_uniform(seed, 1, 1e5, 1e8);
        let n_flows = 1 + (splitmix64(seed) % 59) as u32;
        let (ru, pm) = (log_uniform(seed, 2, 1e2, 1e6), uniform(seed, 3, 0.005, 1.0));
        let beta_a = log_uniform(seed, 4, 10.0, 1e4);
        let beta_b = beta_a * log_uniform(seed, 5, 1.0 / 3.0, 3.0);
        // √g_max k from 1e-3 (dt ≥ k) to 3 (a node region).
        let k = log_uniform(seed, 6, 1e-3, 3.0) / beta_a.max(beta_b);
        let q0 = log_uniform(seed, 7, 1e3, 1e7);
        let buffer = q0 * (1.0 + log_uniform(seed, 8, 0.05, 20.0));
        let p = BcnParams {
            n_flows,
            capacity,
            q0,
            buffer,
            gi: beta_a * beta_a / (ru * f64::from(n_flows)),
            gd: beta_b * beta_b / capacity,
            ru,
            w: k * pm * capacity,
            pm,
            qsc: 0.9 * buffer,
        };
        let horizon = uniform(seed, 9, 0.2, 2.5) * 2.0 * PI / beta_a.min(beta_b);
        let linearity = if splitmix64(seed ^ 10).is_multiple_of(5) {
            Linearity::FullNonlinear
        } else {
            Linearity::Linearized
        };
        (SaturatingFluid { params: p, linearity }, horizon)
    }

    /// The kernel against the full runs on `count` random cells seeded
    /// from `base`, checking that every kind of cell occurs and that the
    /// certificate retires cells that do not drop before their horizons.
    fn check_random_cells(base: u64, count: u64) {
        let cells: Vec<_> = (0..count).map(|s| random_cell(splitmix64(base ^ s))).collect();
        let n = cells.len();
        let certified = cells
            .iter()
            .filter(|(m, h)| {
                let r = Recurrence::new(&m.params, m.linearity);
                Certificate::new(&r, canonical_dt(&m.params, *h)).is_some()
            })
            .count();
        let nonlinear = cells.iter().filter(|(m, _)| m.linearity == Linearity::FullNonlinear);
        assert!(certified > n / 10 && certified < n - n / 5, "{certified} of {n} certified");
        assert!(nonlinear.count() > n / 10, "too few nonlinear cells");
        // Split by the full runs' verdicts; each side through the kernel.
        let (loud, quiet): (Vec<_>, Vec<_>) =
            cells.into_iter().partition(|(m, h)| m.run_canonical(*h).has_drops());
        assert!(loud.len() > n / 10 && quiet.len() > n / 10, "{} of {n} drop", loud.len());
        assert_eq!(lockstep(&loud).0, vec![true; loud.len()]);
        let (verdicts, steps) = lockstep(&quiet);
        assert_eq!(verdicts, vec![false; quiet.len()]);
        let full: usize =
            quiet.iter().map(|(m, h)| step_count(*h, canonical_dt(&m.params, *h))).sum();
        assert!(10 * steps < 9 * full, "{steps} lane-steps of {full} on the quiet cells");
    }

    #[test]
    fn certified_kernel_matches_full_runs_on_random_cells() {
        check_random_cells(0x00ce_7f1e, 4_000);
    }

    /// The release-mode sweep `scripts/ci.sh` runs.
    #[test]
    #[ignore = "100k cells: run in release, as scripts/ci.sh does"]
    fn certified_kernel_matches_full_runs_on_100k_random_cells() {
        check_random_cells(0x0100_ce7f, 100_000);
    }

    #[test]
    fn certificate_bounds_contain_every_later_state() {
        // From every state the certificate passes, along the rest of the
        // floating-point run: `√V` stays below the bound it derives, and
        // `x` and `|y|` below the extents it takes from that bound.
        let mut checked = 0;
        for s in 0..600 {
            let (model, horizon) = random_cell(splitmix64(0xb0_0d5e ^ s));
            let dt = canonical_dt(&model.params, horizon);
            let r = Recurrence::new(&model.params, model.linearity);
            let Some(cert) = Certificate::new(&r, dt) else { continue };
            let mut states = vec![(0.0, model.params.capacity)];
            for _ in 0..step_count(horizon, dt) {
                let &(q, rate) = states.last().unwrap();
                let (wall, rate) = r.step(q, rate, dt);
                states.push((wall.q, rate));
            }
            // Suffix maxima of √V, x, −x and |y| over the later states.
            let mut later = [f64::NEG_INFINITY; 4];
            for &(q, rate) in states.iter().rev() {
                let (x, y, root_v) = (q - r.q0, rate - r.cap, cert.root_v(&r, q, rate));
                if cert.settled(&r, q, rate) {
                    checked += 1;
                    let w = cert.grow * root_v.max(cert.floor);
                    let bounds = [w, w * cert.up, w * cert.down, w * cert.swing];
                    for (i, (seen, bound)) in later.iter().zip(bounds).enumerate() {
                        assert!(*seen <= bound, "cell {s}: later {i} {seen} past {bound}");
                    }
                }
                for (seen, value) in later.iter_mut().zip([root_v, x, -x, y.abs()]) {
                    *seen = seen.max(value);
                }
            }
        }
        assert!(checked > 500_000, "{checked} certified states");
    }

    #[test]
    fn certificate_more_than_halves_the_atlas_lane_steps() {
        // The perfbench atlas (seed 1): 16x16 gains log-spaced over
        // [0.05, 20] times the defaults, gd capped at 1, buffer 1.5375e5,
        // each cell over 8π/β_slow capped at 5 s.
        let base = BcnParams::test_defaults().with_buffer(1.5375e5);
        let axis = |g: f64, i: usize| g * 0.05 * 400f64.powf(i as f64 / 15.0);
        let cells: Vec<_> = (0..256)
            .map(|idx| {
                let p = base
                    .clone()
                    .with_gi(axis(base.gi, idx / 16))
                    .with_gd(axis(base.gd, idx % 16).min(1.0));
                let horizon = (8.0 * PI / p.a().min(p.b() * p.capacity).sqrt()).min(5.0);
                (SaturatingFluid::linearized(p), horizon)
            })
            .collect();
        let (verdicts, steps) = lockstep(&cells);
        assert_eq!(verdicts, oracle(&cells));
        // The kernel took 7,023,636 lane-steps here before it retired
        // lanes on the certificate.
        assert!(2 * steps < 7_023_636, "{steps} lane-steps");
    }
}
