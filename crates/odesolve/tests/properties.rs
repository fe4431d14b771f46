//! Property-based tests of the solver substrate: randomized linear and
//! oscillator problems with known closed forms, tolerance adherence,
//! event-location accuracy and dense output.

use odesolve::{integrate, integrate_with_events, Direction, Dopri5, EventSpec, Options};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Scalar linear ODE: DOPRI5 lands on the closed form within its
    /// tolerance.
    #[test]
    fn linear_decay_meets_closed_form(
        lambda in 0.05f64..4.0,
        y0 in 0.1f64..10.0,
        t_end in 0.1f64..5.0,
    ) {
        let ode = move |_t: f64, y: &[f64; 1]| [-lambda * y[0]];
        let exact = y0 * (-lambda * t_end).exp();
        let d5 = integrate(&ode, 0.0, [y0], t_end,
            &mut Dopri5::with_tolerances(1e-10, 1e-10), &Options::default()).unwrap();
        prop_assert!((d5.last_state()[0] - exact).abs() < 1e-7 * y0,
            "dopri5: {} vs {}", d5.last_state()[0], exact);
    }

    /// Harmonic oscillator with random frequency: energy conservation
    /// within tolerance.
    #[test]
    fn oscillator_energy(omega in 0.2f64..6.0, amp in 0.1f64..5.0) {
        let ode = move |_t: f64, y: &[f64; 2]| [y[1], -omega * omega * y[0]];
        let sol = integrate(&ode, 0.0, [amp, 0.0], 10.0,
            &mut Dopri5::with_tolerances(1e-11, 1e-11), &Options::default()).unwrap();
        let e0 = omega * omega * amp * amp;
        for y in sol.states() {
            let e = omega * omega * y[0] * y[0] + y[1] * y[1];
            prop_assert!((e - e0).abs() < 1e-5 * e0, "energy drift {e} vs {e0}");
        }
    }

    /// The located event time of a linear crossing is exact to ~1e-9
    /// relative.
    #[test]
    fn event_location_accuracy(slope in 0.1f64..5.0, level in 0.1f64..3.0) {
        // y' = slope, y(0) = 0 crosses `level` at exactly level/slope.
        let ode = move |_t: f64, _y: &[f64; 1]| [slope];
        let guard = move |_t: f64, y: &[f64; 1]| y[0] - level;
        let events = [EventSpec::terminal(&guard).with_direction(Direction::Rising)];
        let horizon = 2.0 * level / slope;
        let sol = integrate_with_events(&ode, 0.0, [0.0], horizon,
            &mut Dopri5::new(), &events, &Options::default()).unwrap();
        let t_hit = level / slope;
        prop_assert!(!sol.events().is_empty());
        prop_assert!((sol.last_time() - t_hit).abs() < 1e-9 * t_hit.max(1.0),
            "hit at {} vs {}", sol.last_time(), t_hit);
    }

    /// Dense recording never loses accuracy: sampled points lie on the
    /// true solution of a linear system.
    #[test]
    fn dense_output_on_solution(lambda in 0.1f64..2.0) {
        let ode = move |_t: f64, y: &[f64; 1]| [-lambda * y[0]];
        let sol = integrate(&ode, 0.0, [1.0], 3.0,
            &mut Dopri5::with_tolerances(1e-9, 1e-9),
            &Options::default().with_record_dt(0.01)).unwrap();
        for (t, y) in sol.times().iter().zip(sol.states()) {
            let exact = (-lambda * t).exp();
            prop_assert!((y[0] - exact).abs() < 1e-5, "at t={t}: {} vs {exact}", y[0]);
        }
    }
}
