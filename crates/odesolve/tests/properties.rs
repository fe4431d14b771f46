//! Property tests of the solver substrate: randomized linear and
//! oscillator problems with known closed forms, tolerance adherence,
//! event-location accuracy and dense output.
//!
//! Every case is drawn from a splitmix64 seed, and every assertion
//! prints that seed with the drawn inputs, which reproduce the case.

use odesolve::{integrate, integrate_with_events, Direction, Dopri5, EventSpec, Options};

/// Random cases each property checks.
const CASES: u64 = 64;

/// The splitmix64 finalizer (the `dcesim::faults` stream, which this
/// crate cannot depend on).
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The seeds of the property salted `salt`, one per case.
fn seeds(salt: u64) -> impl Iterator<Item = u64> {
    (0..CASES).map(move |case| splitmix64(salt ^ splitmix64(case)))
}

/// The `k`-th uniform draw from `lo..hi` of the case seeded `seed`.
fn draw(seed: u64, k: u64, lo: f64, hi: f64) -> f64 {
    lo + (hi - lo) * ((splitmix64(seed ^ splitmix64(k)) >> 11) as f64 / (1u64 << 53) as f64)
}

/// Scalar linear ODE: DOPRI5 lands on the closed form within its
/// tolerance.
#[test]
fn linear_decay_meets_closed_form() {
    for seed in seeds(1) {
        let lambda = draw(seed, 0, 0.05, 4.0);
        let y0 = draw(seed, 1, 0.1, 10.0);
        let t_end = draw(seed, 2, 0.1, 5.0);
        let ode = move |_t: f64, y: &[f64; 1]| [-lambda * y[0]];
        let exact = y0 * (-lambda * t_end).exp();
        let at = format!("seed {seed:#x} (lambda {lambda}, y0 {y0}, t_end {t_end})");
        let d5 = integrate(
            &ode,
            0.0,
            [y0],
            t_end,
            &mut Dopri5::with_tolerances(1e-10, 1e-10),
            &Options::default(),
        )
        .unwrap_or_else(|e| panic!("{at}: {e}"));
        assert!(
            (d5.last_state()[0] - exact).abs() < 1e-7 * y0,
            "{at}: dopri5 {} vs {exact}",
            d5.last_state()[0]
        );
    }
}

/// Harmonic oscillator with random frequency: energy conservation
/// within tolerance.
#[test]
fn oscillator_energy() {
    for seed in seeds(2) {
        let omega = draw(seed, 0, 0.2, 6.0);
        let amp = draw(seed, 1, 0.1, 5.0);
        let at = format!("seed {seed:#x} (omega {omega}, amp {amp})");
        let ode = move |_t: f64, y: &[f64; 2]| [y[1], -omega * omega * y[0]];
        let sol = integrate(
            &ode,
            0.0,
            [amp, 0.0],
            10.0,
            &mut Dopri5::with_tolerances(1e-11, 1e-11),
            &Options::default(),
        )
        .unwrap_or_else(|e| panic!("{at}: {e}"));
        let e0 = omega * omega * amp * amp;
        for y in sol.states() {
            let e = omega * omega * y[0] * y[0] + y[1] * y[1];
            assert!((e - e0).abs() < 1e-5 * e0, "{at}: energy drift {e} vs {e0}");
        }
    }
}

/// The located event time of a linear crossing is exact to ~1e-9
/// relative.
#[test]
fn event_location_accuracy() {
    for seed in seeds(3) {
        let slope = draw(seed, 0, 0.1, 5.0);
        let level = draw(seed, 1, 0.1, 3.0);
        // y' = slope, y(0) = 0 crosses `level` at exactly level/slope.
        let ode = move |_t: f64, _y: &[f64; 1]| [slope];
        let guard = move |_t: f64, y: &[f64; 1]| y[0] - level;
        let events = [EventSpec::terminal(&guard).with_direction(Direction::Rising)];
        let horizon = 2.0 * level / slope;
        let at = format!("seed {seed:#x} (slope {slope}, level {level})");
        let sol = integrate_with_events(
            &ode,
            0.0,
            [0.0],
            horizon,
            &mut Dopri5::new(),
            &events,
            &Options::default(),
        )
        .unwrap_or_else(|e| panic!("{at}: {e}"));
        let t_hit = level / slope;
        assert!(!sol.events().is_empty(), "{at}: no event located");
        assert!(
            (sol.last_time() - t_hit).abs() < 1e-9 * t_hit.max(1.0),
            "{at}: hit at {} vs {t_hit}",
            sol.last_time()
        );
    }
}

/// Dense recording never loses accuracy: sampled points lie on the
/// true solution of a linear system.
#[test]
fn dense_output_on_solution() {
    for seed in seeds(4) {
        let lambda = draw(seed, 0, 0.1, 2.0);
        let at = format!("seed {seed:#x} (lambda {lambda})");
        let ode = move |_t: f64, y: &[f64; 1]| [-lambda * y[0]];
        let sol = integrate(
            &ode,
            0.0,
            [1.0],
            3.0,
            &mut Dopri5::with_tolerances(1e-9, 1e-9),
            &Options::default().with_record_dt(0.01),
        )
        .unwrap_or_else(|e| panic!("{at}: {e}"));
        for (t, y) in sol.times().iter().zip(sol.states()) {
            let exact = (-lambda * t).exp();
            assert!((y[0] - exact).abs() < 1e-5, "{at}: at t={t}: {} vs {exact}", y[0]);
        }
    }
}
