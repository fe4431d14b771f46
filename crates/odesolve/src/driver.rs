//! One-shot integration drivers.

use crate::event::{locate_zero_counted, EventOccurrence, EventSpec};
use crate::interp::CubicHermite;
use crate::solution::Solution;
use crate::{Dopri5, Ode, SolveError};
use telemetry::Telemetry;

/// Driver-level configuration shared by all integration runs.
#[derive(Debug, Clone, PartialEq)]
pub struct Options {
    /// Hard cap on the number of accepted steps.
    pub max_steps: usize,
    /// If set, accepted points are recorded no further apart than this
    /// (extra points come from the dense-output interpolant), giving
    /// uniform-looking traces for plotting. `None` records only accepted
    /// step endpoints.
    pub record_dt: Option<f64>,
}

impl Default for Options {
    fn default() -> Self {
        Self { max_steps: 1_000_000, record_dt: None }
    }
}

impl Options {
    /// Sets the accepted-step budget.
    #[must_use]
    pub fn with_max_steps(mut self, max_steps: usize) -> Self {
        self.max_steps = max_steps;
        self
    }

    /// Requests dense recording at roughly the given spacing.
    #[must_use]
    pub fn with_record_dt(mut self, dt: f64) -> Self {
        self.record_dt = Some(dt);
        self
    }
}

/// Integrates `dy/dt = ode(t, y)` from `(t0, y0)` to `t_end` and records the
/// trajectory.
///
/// # Errors
///
/// Propagates DOPRI5 failures ([`SolveError::StepSizeUnderflow`],
/// [`SolveError::NonFiniteState`]) and returns
/// [`SolveError::MaxStepsExceeded`] when the budget runs out, or
/// [`SolveError::BadInput`] when `t_end < t0` or the inputs are non-finite.
pub fn integrate<const N: usize>(
    ode: &dyn Ode<N>,
    t0: f64,
    y0: [f64; N],
    t_end: f64,
    stepper: &mut Dopri5,
    opts: &Options,
) -> Result<Solution<N>, SolveError> {
    integrate_with_events(ode, t0, y0, t_end, stepper, &[], opts)
}

/// Integrates like [`integrate`], additionally watching the guard functions
/// in `events`. Every directional sign change is located with the
/// dense-output interpolant and recorded; if the triggering spec is
/// `terminal` the run stops exactly at the event point (which becomes the
/// final recorded state).
///
/// # Errors
///
/// Same as [`integrate`].
pub fn integrate_with_events<const N: usize>(
    ode: &dyn Ode<N>,
    t0: f64,
    y0: [f64; N],
    t_end: f64,
    stepper: &mut Dopri5,
    events: &[EventSpec<'_, N>],
    opts: &Options,
) -> Result<Solution<N>, SolveError> {
    integrate_with_events_telemetry(ode, t0, y0, t_end, stepper, events, opts, None)
}

/// Like [`integrate_with_events`], recording per-step telemetry (accepted
/// and rejected step counts, step sizes, error estimates, event-location
/// iterations) into `tel` when provided.
///
/// With `tel = None` (or a sink at level `Off`) the instrumentation is a
/// near-no-op, so the plain entry points delegate here at no cost.
///
/// # Errors
///
/// Same as [`integrate`].
#[allow(clippy::too_many_arguments)]
pub fn integrate_with_events_telemetry<const N: usize>(
    ode: &dyn Ode<N>,
    t0: f64,
    y0: [f64; N],
    t_end: f64,
    stepper: &mut Dopri5,
    events: &[EventSpec<'_, N>],
    opts: &Options,
    mut tel: Option<&mut Telemetry>,
) -> Result<Solution<N>, SolveError> {
    if !t0.is_finite() || !t_end.is_finite() {
        return Err(SolveError::BadInput("non-finite time bounds".into()));
    }
    if t_end < t0 {
        return Err(SolveError::BadInput(format!("t_end ({t_end}) must not precede t0 ({t0})")));
    }
    if !crate::vecn::all_finite(&y0) {
        return Err(SolveError::BadInput("non-finite initial state".into()));
    }

    let mut sol = Solution::new(t0, y0);
    if t_end == t0 {
        return Ok(sol);
    }

    let mut t = t0;
    let mut y = y0;
    let mut f = ode.rhs(t, &y);
    let mut g: Vec<f64> = events.iter().map(|e| e.guard.guard(t, &y)).collect();
    let mut h = stepper.initial_step(t, &y, &f, t_end);

    for _ in 0..opts.max_steps {
        h = h.min(t_end - t);
        let out = stepper.step(ode, t, &y, &f, h)?;
        if let Some(tel) = tel.as_deref_mut() {
            let rejected = stepper.take_rejections();
            tel.steps_rejected(t, h, rejected);
            tel.step_accepted(out.t_new, out.t_new - t, stepper.last_error_estimate());
        }
        let interp = CubicHermite::new(t, y, f, out.t_new, out.y_new, out.f_new);

        // Check guards across this step; find the earliest triggering event.
        let mut hit: Option<EventOccurrence<N>> = None;
        for (idx, spec) in events.iter().enumerate() {
            let g_new = spec.guard.guard(out.t_new, &out.y_new);
            if spec.direction.matches(g[idx], g_new) {
                let (te, ye, iters) =
                    locate_zero_counted(spec.guard, &interp, g[idx], g_new, spec.direction);
                if let Some(tel) = tel.as_deref_mut() {
                    tel.event_located(te, iters);
                }
                let better = match &hit {
                    Some(prev) => te < prev.t,
                    None => true,
                };
                if better {
                    hit =
                        Some(EventOccurrence { index: idx, t: te, y: ye, terminal: spec.terminal });
                }
            }
        }

        if let Some(ev) = hit {
            record_dense(&mut sol, &interp, t, ev.t, opts);
            sol.push(ev.t, ev.y);
            let terminal = ev.terminal;
            sol.push_event(ev.clone());
            if terminal {
                return Ok(sol);
            }
            // Continue from the event point with fresh derivative/guards.
            t = ev.t;
            y = ev.y;
            f = ode.rhs(t, &y);
            for (idx, spec) in events.iter().enumerate() {
                g[idx] = spec.guard.guard(t, &y);
            }
            h = out.h_next;
            if t >= t_end {
                return Ok(sol);
            }
            continue;
        }

        record_dense(&mut sol, &interp, t, out.t_new, opts);
        sol.push(out.t_new, out.y_new);
        t = out.t_new;
        y = out.y_new;
        f = out.f_new;
        for (idx, spec) in events.iter().enumerate() {
            g[idx] = spec.guard.guard(t, &y);
        }
        h = out.h_next;
        if t >= t_end {
            return Ok(sol);
        }
    }
    Err(SolveError::MaxStepsExceeded { t, max_steps: opts.max_steps })
}

/// Records intermediate interpolated points in `(t_from, t_to)` when
/// `opts.record_dt` requests denser output than the accepted steps provide.
fn record_dense<const N: usize>(
    sol: &mut Solution<N>,
    interp: &CubicHermite<N>,
    t_from: f64,
    t_to: f64,
    opts: &Options,
) {
    let Some(dt) = opts.record_dt else { return };
    if dt <= 0.0 {
        return;
    }
    let mut t = t_from + dt;
    while t < t_to - 1e-12 * dt {
        sol.push(t, interp.eval(t));
        t += dt;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Direction;

    #[test]
    fn reaches_end_time() {
        let sol = integrate(
            &|_t: f64, y: &[f64; 1]| [-y[0]],
            0.0,
            [1.0],
            2.0,
            &mut Dopri5::new(),
            &Options::default(),
        )
        .unwrap();
        assert!((sol.last_time() - 2.0).abs() < 1e-12);
        assert!((sol.last_state()[0] - (-2.0f64).exp()).abs() < 1e-7);
    }

    #[test]
    fn zero_length_interval_is_trivial() {
        let sol = integrate(
            &|_t: f64, y: &[f64; 1]| [y[0]],
            1.0,
            [3.0],
            1.0,
            &mut Dopri5::new(),
            &Options::default(),
        )
        .unwrap();
        assert_eq!(sol.len(), 1);
        assert_eq!(sol.last_state(), [3.0]);
    }

    #[test]
    fn rejects_reversed_interval() {
        let err = integrate(
            &|_t: f64, y: &[f64; 1]| [y[0]],
            1.0,
            [3.0],
            0.0,
            &mut Dopri5::new(),
            &Options::default(),
        )
        .unwrap_err();
        assert!(matches!(err, SolveError::BadInput(_)));
    }

    #[test]
    fn terminal_event_stops_run() {
        // Falling object: stop when height crosses zero.
        // y'' = -9.81 from y(0)=10, v(0)=0 => hits 0 at t = sqrt(20/9.81).
        let ode = |_t: f64, y: &[f64; 2]| [y[1], -9.81];
        let guard = |_t: f64, y: &[f64; 2]| y[0];
        let events = [EventSpec::terminal(&guard).with_direction(Direction::Falling)];
        let sol = integrate_with_events(
            &ode,
            0.0,
            [10.0, 0.0],
            10.0,
            &mut Dopri5::new(),
            &events,
            &Options::default(),
        )
        .unwrap();
        let t_hit = (2.0 * 10.0 / 9.81_f64).sqrt();
        assert_eq!(sol.events().len(), 1);
        assert!((sol.last_time() - t_hit).abs() < 1e-8, "hit at {}", sol.last_time());
        assert!(sol.last_state()[0].abs() < 1e-7);
    }

    #[test]
    fn non_terminal_events_are_recorded_and_run_continues() {
        // sin crosses zero at pi and 2 pi within (0, 7].
        let ode = |_t: f64, y: &[f64; 2]| [y[1], -y[0]];
        let guard = |_t: f64, y: &[f64; 2]| y[0];
        let events = [EventSpec::recorded(&guard)];
        let sol = integrate_with_events(
            &ode,
            0.0,
            [0.0, 1.0], // y = sin t starting just past its t=0 zero
            7.0,
            &mut Dopri5::with_tolerances(1e-10, 1e-10),
            &events,
            &Options::default(),
        )
        .unwrap();
        assert!((sol.last_time() - 7.0).abs() < 1e-12);
        assert_eq!(sol.events().len(), 2, "events: {:?}", sol.events());
        assert!((sol.events()[0].t - std::f64::consts::PI).abs() < 1e-8);
        assert!((sol.events()[1].t - std::f64::consts::TAU).abs() < 1e-8);
    }

    #[test]
    fn directional_filter_skips_wrong_crossings() {
        let ode = |_t: f64, y: &[f64; 2]| [y[1], -y[0]];
        let guard = |_t: f64, y: &[f64; 2]| y[0];
        // Only falling crossings of sin t: first at pi.
        let events = [EventSpec::terminal(&guard).with_direction(Direction::Falling)];
        let sol = integrate_with_events(
            &ode,
            0.0,
            [0.0, 1.0],
            10.0,
            &mut Dopri5::new(),
            &events,
            &Options::default(),
        )
        .unwrap();
        assert!((sol.last_time() - std::f64::consts::PI).abs() < 1e-7);
    }

    #[test]
    fn dense_recording_bounds_spacing() {
        let opts = Options::default().with_record_dt(0.01);
        let sol = integrate(
            &|_t: f64, y: &[f64; 1]| [-y[0]],
            0.0,
            [1.0],
            1.0,
            &mut Dopri5::with_tolerances(1e-6, 1e-6),
            &opts,
        )
        .unwrap();
        let ts = sol.times();
        for w in ts.windows(2) {
            assert!(w[1] - w[0] <= 0.011, "gap {} too wide", w[1] - w[0]);
        }
        // Dense samples must lie on the true solution.
        for (t, y) in ts.iter().zip(sol.states()) {
            assert!((y[0] - (-t).exp()).abs() < 1e-4, "at t={t}");
        }
    }

    #[test]
    fn max_steps_is_enforced() {
        let err = integrate(
            &|_t: f64, y: &[f64; 1]| [-y[0]],
            0.0,
            [1.0],
            100.0,
            &mut Dopri5::with_tolerances(1e-12, 1e-12),
            &Options::default().with_max_steps(10),
        )
        .unwrap_err();
        assert!(matches!(err, SolveError::MaxStepsExceeded { .. }));
    }
}
