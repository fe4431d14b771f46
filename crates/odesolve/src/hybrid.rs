//! Mode-switching (hybrid / piecewise-smooth) system integration.
//!
//! A hybrid system is a finite set of smooth vector fields ("modes") plus a
//! guard per mode whose zero crossing hands control to another mode. The
//! BCN fluid model is exactly such a system: the additive-increase field
//! where the congestion measure `sigma > 0` and the multiplicative-decrease
//! field where `sigma < 0`, with the switching line `sigma = 0` as the
//! mutual guard.
//!
//! The driver integrates the active mode with a terminal event on its
//! guard, applies the transition, resets the stepper (the vector field is
//! discontinuous across the guard), and repeats.

use crate::driver::{integrate_with_events_telemetry, Options};
use crate::event::{Direction, EventSpec};
use crate::solution::Solution;
use crate::{Dopri5, SolveError};
use telemetry::{SpanKind, Telemetry};

/// A piecewise-smooth dynamical system with a finite set of modes.
///
/// Modes are identified by `usize` indices chosen by the implementor.
pub trait HybridSystem<const N: usize> {
    /// Vector field of the given mode.
    fn rhs(&self, mode: usize, t: f64, y: &[f64; N]) -> [f64; N];

    /// Guard for the given mode: integration of the mode stops when the
    /// guard crosses zero (in the direction given by
    /// [`Self::guard_direction`]).
    fn guard(&self, mode: usize, t: f64, y: &[f64; N]) -> f64;

    /// Which guard crossings trigger a transition. Defaults to any.
    fn guard_direction(&self, _mode: usize) -> Direction {
        Direction::Any
    }

    /// Computes the successor mode and (possibly reset) state when the
    /// guard of `mode` fires at `(t, y)`.
    fn transition(&self, mode: usize, t: f64, y: &[f64; N]) -> (usize, [f64; N]);

    /// The mode that governs the dynamics at `(t, y)` (used to pick the
    /// starting mode).
    fn mode_at(&self, t: f64, y: &[f64; N]) -> usize;
}

/// One maximal time interval spent in a single mode.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ModeInterval {
    /// Mode index.
    pub mode: usize,
    /// Interval start time.
    pub t_start: f64,
    /// Interval end time (switch or end of run).
    pub t_end: f64,
}

/// Output of a hybrid integration run.
#[derive(Debug, Clone, PartialEq)]
pub struct HybridSolution<const N: usize> {
    /// The concatenated trajectory across all modes.
    pub solution: Solution<N>,
    /// The visited mode intervals in time order.
    pub intervals: Vec<ModeInterval>,
    /// True if the run ended because `max_switches` was reached rather
    /// than because `t_end` was reached.
    pub switch_budget_exhausted: bool,
}

impl<const N: usize> HybridSolution<N> {
    /// Number of mode switches that occurred.
    #[must_use]
    pub fn switch_count(&self) -> usize {
        self.intervals.len().saturating_sub(1)
    }

    /// Times at which the system switched modes.
    #[must_use]
    pub fn switch_times(&self) -> Vec<f64> {
        self.intervals.iter().skip(1).map(|iv| iv.t_start).collect()
    }
}

/// Integrates a [`HybridSystem`] from `(t0, y0)` until `t_end`, or until
/// `max_switches` mode changes have occurred.
///
/// # Errors
///
/// Propagates any [`SolveError`] from the underlying smooth integrations.
pub fn integrate_hybrid<const N: usize, S: HybridSystem<N>>(
    sys: &S,
    t0: f64,
    y0: [f64; N],
    t_end: f64,
    max_switches: usize,
    stepper: &mut Dopri5,
    opts: &Options,
) -> Result<HybridSolution<N>, SolveError> {
    integrate_hybrid_telemetry(sys, t0, y0, t_end, max_switches, stepper, opts, None)
}

/// Like [`integrate_hybrid`], recording solver telemetry for every leg and
/// a region-switch event at every mode transition into `tel` when provided.
///
/// # Errors
///
/// Propagates any [`SolveError`] from the underlying smooth integrations.
#[allow(clippy::too_many_arguments)]
pub fn integrate_hybrid_telemetry<const N: usize, S: HybridSystem<N>>(
    sys: &S,
    t0: f64,
    y0: [f64; N],
    t_end: f64,
    max_switches: usize,
    stepper: &mut Dopri5,
    opts: &Options,
    mut tel: Option<&mut Telemetry>,
) -> Result<HybridSolution<N>, SolveError> {
    let mut mode = sys.mode_at(t0, &y0);
    let mut t = t0;
    let mut y = y0;
    let mut total = Solution::new(t0, y0);
    let mut intervals = Vec::new();
    let mut budget_exhausted = false;

    for switch in 0..=max_switches {
        let ode = |tt: f64, yy: &[f64; N]| sys.rhs(mode, tt, yy);
        let guard = |tt: f64, yy: &[f64; N]| sys.guard(mode, tt, yy);
        let events = [EventSpec::terminal(&guard).with_direction(sys.guard_direction(mode))];
        stepper.reset();
        // Each leg is one causal span: solver events recorded inside it
        // attribute to the mode that produced them.
        let leg_span = tel.as_deref_mut().map_or(0, |tel| {
            let parent = tel.root_span();
            tel.span_begin(t, SpanKind::SolverLeg, mode as u32, parent)
        });
        let leg = integrate_with_events_telemetry(
            &ode,
            t,
            y,
            t_end,
            stepper,
            &events,
            opts,
            tel.as_deref_mut(),
        )?;
        if let Some(tel) = tel.as_deref_mut() {
            tel.span_end(leg.last_time(), leg_span);
        }
        let hit_guard = !leg.events().is_empty();
        intervals.push(ModeInterval { mode, t_start: t, t_end: leg.last_time() });
        t = leg.last_time();
        y = leg.last_state();
        total.extend_with(&leg);

        if !hit_guard || t >= t_end {
            return Ok(HybridSolution {
                solution: total,
                intervals,
                switch_budget_exhausted: false,
            });
        }
        if switch == max_switches {
            budget_exhausted = true;
            break;
        }
        let (next_mode, next_y) = sys.transition(mode, t, &y);
        if let Some(tel) = tel.as_deref_mut() {
            tel.region_switch(t, mode as u32, next_mode as u32);
        }
        mode = next_mode;
        y = next_y;
        // Nudge past the guard so the next leg does not immediately
        // re-trigger on the same zero: advance by one ulp of time.
        // (The state is already on the surface; the new mode's field
        // carries it off transversally.)
    }

    Ok(HybridSolution { solution: total, intervals, switch_budget_exhausted: budget_exhausted })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A bouncing ball: mode 0 is free fall; the guard is the height; the
    /// transition reflects the velocity with restitution 0.5.
    struct Ball;

    impl HybridSystem<2> for Ball {
        fn rhs(&self, _mode: usize, _t: f64, y: &[f64; 2]) -> [f64; 2] {
            [y[1], -10.0]
        }
        fn guard(&self, _mode: usize, _t: f64, y: &[f64; 2]) -> f64 {
            y[0]
        }
        fn guard_direction(&self, _mode: usize) -> Direction {
            Direction::Falling
        }
        fn transition(&self, _mode: usize, _t: f64, y: &[f64; 2]) -> (usize, [f64; 2]) {
            (0, [1e-9, -0.5 * y[1]])
        }
        fn mode_at(&self, _t: f64, _y: &[f64; 2]) -> usize {
            0
        }
    }

    #[test]
    fn bouncing_ball_switches_at_impacts() {
        // Drop from h = 5: first impact at t = 1 (g = 10), rebound speed 5,
        // second impact 1 s later, etc.
        let out = integrate_hybrid(
            &Ball,
            0.0,
            [5.0, 0.0],
            2.5,
            10,
            &mut Dopri5::with_tolerances(1e-10, 1e-10),
            &Options::default(),
        )
        .unwrap();
        let switches = out.switch_times();
        assert!(out.switch_count() >= 2, "switches: {switches:?}");
        assert!((switches[0] - 1.0).abs() < 1e-7, "first impact {}", switches[0]);
        assert!((switches[1] - 2.0).abs() < 1e-6, "second impact {}", switches[1]);
        assert!(!out.switch_budget_exhausted);
        // Height never meaningfully negative.
        assert!(out.solution.min_component(0) > -1e-6);
    }

    #[test]
    fn switch_budget_stops_run() {
        let out = integrate_hybrid(
            &Ball,
            0.0,
            [5.0, 0.0],
            100.0,
            1,
            &mut Dopri5::new(),
            &Options::default(),
        )
        .unwrap();
        assert!(out.switch_budget_exhausted);
        assert_eq!(out.intervals.len(), 2);
    }

    /// Two-mode relay oscillator: dy/dt = +1 until y = 1, then -1 until
    /// y = -1, and so on; period 4 once in steady oscillation.
    struct Relay;

    impl HybridSystem<1> for Relay {
        fn rhs(&self, mode: usize, _t: f64, _y: &[f64; 1]) -> [f64; 1] {
            if mode == 0 {
                [1.0]
            } else {
                [-1.0]
            }
        }
        fn guard(&self, mode: usize, _t: f64, y: &[f64; 1]) -> f64 {
            if mode == 0 {
                y[0] - 1.0
            } else {
                y[0] + 1.0
            }
        }
        fn transition(&self, mode: usize, _t: f64, y: &[f64; 1]) -> (usize, [f64; 1]) {
            (1 - mode, *y)
        }
        fn mode_at(&self, _t: f64, _y: &[f64; 1]) -> usize {
            0
        }
    }

    #[test]
    fn relay_oscillator_has_period_four() {
        let out = integrate_hybrid(
            &Relay,
            0.0,
            [0.0],
            10.0,
            100,
            &mut Dopri5::new(),
            &Options::default(),
        )
        .unwrap();
        let st = out.switch_times();
        // Switches at t = 1, 3, 5, 7, 9.
        assert_eq!(st.len(), 5, "switch times {st:?}");
        for (i, t) in st.iter().enumerate() {
            assert!((t - (1.0 + 2.0 * i as f64)).abs() < 1e-7, "switch {i} at {t}");
        }
        // Trajectory bounded in [-1, 1].
        assert!(out.solution.max_component(0) <= 1.0 + 1e-9);
        assert!(out.solution.min_component(0) >= -1.0 - 1e-9);
    }

    #[test]
    fn zero_switch_budget_still_integrates_first_leg() {
        let out = integrate_hybrid(
            &Ball,
            0.0,
            [5.0, 0.0],
            100.0,
            0,
            &mut Dopri5::new(),
            &Options::default(),
        )
        .unwrap();
        // One leg, stopped exactly at the first guard hit.
        assert_eq!(out.intervals.len(), 1);
        assert!(out.switch_budget_exhausted);
        assert!((out.solution.last_time() - 1.0).abs() < 1e-7);
    }

    #[test]
    fn starting_exactly_on_the_guard_does_not_loop() {
        // Ball released at height zero moving up: the guard is zero at
        // t = 0 but the event logic requires a strict sign change, so the
        // flight proceeds and the next impact is located normally.
        let out = integrate_hybrid(
            &Ball,
            0.0,
            [0.0, 10.0],
            1.5,
            5,
            &mut Dopri5::with_tolerances(1e-10, 1e-10),
            &Options::default(),
        )
        .unwrap();
        // Up for 1 s, back at zero at t = 2 > 1.5: no switch in horizon.
        assert_eq!(out.switch_count(), 0);
        assert!((out.solution.last_time() - 1.5).abs() < 1e-9);
        assert!(out.solution.last_state()[0] > 0.0);
    }

    #[test]
    fn intervals_partition_the_time_axis() {
        let out = integrate_hybrid(
            &Relay,
            0.0,
            [0.0],
            10.0,
            100,
            &mut Dopri5::new(),
            &Options::default(),
        )
        .unwrap();
        // Consecutive intervals abut exactly and cover [0, t_end].
        assert!((out.intervals[0].t_start - 0.0).abs() < 1e-12);
        for w in out.intervals.windows(2) {
            assert!((w[0].t_end - w[1].t_start).abs() < 1e-12);
        }
        assert!((out.intervals.last().unwrap().t_end - 10.0).abs() < 1e-9);
        // Modes alternate.
        for w in out.intervals.windows(2) {
            assert_ne!(w[0].mode, w[1].mode);
        }
    }

    #[test]
    fn telemetry_records_steps_switches_and_event_locations() {
        use telemetry::{Telemetry, TelemetryLevel};
        let mut tel = Telemetry::new(TelemetryLevel::Full);
        let out = integrate_hybrid_telemetry(
            &Relay,
            0.0,
            [0.0],
            10.0,
            100,
            &mut Dopri5::new(),
            &Options::default(),
            Some(&mut tel),
        )
        .unwrap();
        assert_eq!(out.switch_count(), 5);
        assert_eq!(tel.metrics.counter_by_name("hybrid.region_switches"), Some(5));
        // Every accepted step was counted and its size recorded.
        let steps = tel.metrics.counter_by_name("solver.steps_accepted").unwrap();
        assert!(steps > 0);
        let sizes = tel.metrics.histogram_by_name("solver.step_size_s").unwrap();
        assert_eq!(sizes.count(), steps);
        // Each of the 5 guard hits went through event location.
        assert_eq!(tel.metrics.counter_by_name("solver.events_located"), Some(5));
        assert!(tel.metrics.histogram_by_name("solver.event_location_iters").unwrap().p50() >= 1.0);
        // The trace holds the region switches in time order.
        let switches: Vec<f64> = tel
            .trace
            .iter()
            .filter(|e| matches!(e, telemetry::Event::RegionSwitch { .. }))
            .map(|e| e.time())
            .collect();
        assert_eq!(switches.len(), 5);
        assert!(switches.windows(2).all(|w| w[0] < w[1]));
        // Every leg opened and closed a solver-leg span; none dangle.
        assert_eq!(tel.metrics.counter_by_name("trace.spans"), Some(6));
        assert!(tel.open_spans().is_empty());
        let begins =
            tel.trace.iter().filter(|e| matches!(e, telemetry::Event::SpanBegin { .. })).count();
        let ends =
            tel.trace.iter().filter(|e| matches!(e, telemetry::Event::SpanEnd { .. })).count();
        assert_eq!(begins, 6);
        assert_eq!(ends, 6);
    }

    #[test]
    fn telemetry_off_sink_matches_untelemetered_run() {
        use telemetry::{Telemetry, TelemetryLevel};
        let mut tel = Telemetry::new(TelemetryLevel::Off);
        let a = integrate_hybrid_telemetry(
            &Relay,
            0.0,
            [0.0],
            10.0,
            100,
            &mut Dopri5::new(),
            &Options::default(),
            Some(&mut tel),
        )
        .unwrap();
        let b = integrate_hybrid(
            &Relay,
            0.0,
            [0.0],
            10.0,
            100,
            &mut Dopri5::new(),
            &Options::default(),
        )
        .unwrap();
        assert_eq!(a.solution.last_state(), b.solution.last_state());
        assert!(tel.trace.is_empty());
        assert_eq!(tel.metrics.counter_by_name("solver.steps_accepted"), Some(0));
    }

    #[test]
    fn run_without_guard_hits_reaches_end() {
        // Start moving away from the guard: free fall upward far from 0.
        struct NoSwitch;
        impl HybridSystem<1> for NoSwitch {
            fn rhs(&self, _m: usize, _t: f64, _y: &[f64; 1]) -> [f64; 1] {
                [1.0]
            }
            fn guard(&self, _m: usize, _t: f64, y: &[f64; 1]) -> f64 {
                y[0] // starts at 1, increases: never crosses
            }
            fn transition(&self, m: usize, _t: f64, y: &[f64; 1]) -> (usize, [f64; 1]) {
                (m, *y)
            }
            fn mode_at(&self, _t: f64, _y: &[f64; 1]) -> usize {
                0
            }
        }
        let out = integrate_hybrid(
            &NoSwitch,
            0.0,
            [1.0],
            3.0,
            5,
            &mut Dopri5::new(),
            &Options::default(),
        )
        .unwrap();
        assert_eq!(out.switch_count(), 0);
        assert!((out.solution.last_time() - 3.0).abs() < 1e-12);
        assert!((out.solution.last_state()[0] - 4.0).abs() < 1e-9);
    }
}
