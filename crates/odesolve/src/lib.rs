//! Ordinary differential equation solvers with event location, built for
//! switched (hybrid) dynamical systems.
//!
//! This crate is the numerical substrate of the DCE-BCN reproduction. The
//! BCN congestion-control fluid model is a *piecewise-smooth* second-order
//! autonomous system: the vector field changes discontinuously across the
//! switching line `sigma(x, y) = 0`. Integrating such a system accurately
//! requires (a) a solid smooth-region integrator and (b) precise location of
//! the time at which a trajectory crosses the switching surface, so the
//! integration can be stopped exactly on the surface and restarted with the
//! other vector field.
//!
//! # Contents
//!
//! * [`Ode`] — the right-hand-side trait, generic over the (const) state
//!   dimension. Implemented for plain closures.
//! * [`Dopri5`] — adaptive Dormand–Prince 5(4) with PI step-size control,
//!   the one integrator every driver runs.
//! * [`EventFn`] and [`EventSpec`] — scalar guard functions whose
//!   sign changes are located to high precision (Brent root finding on a
//!   cubic Hermite interpolant of the accepted step).
//! * [`integrate`] / [`integrate_with_events`] — one-shot drivers returning
//!   a dense [`Solution`].
//! * [`hybrid`] — a mode-switching driver for piecewise-smooth systems.
//!
//! # Example
//!
//! Integrate exponential decay and check against the closed form:
//!
//! ```
//! use odesolve::{integrate, Dopri5, Options};
//!
//! let sol = integrate(
//!     &|_t: f64, y: &[f64; 1]| [-y[0]],
//!     0.0,
//!     [1.0],
//!     5.0,
//!     &mut Dopri5::new(),
//!     &Options::default(),
//! )
//! .unwrap();
//! let y_end = sol.last_state()[0];
//! assert!((y_end - (-5.0f64).exp()).abs() < 1e-6);
//! ```

#![forbid(unsafe_code)]
#![warn(unreachable_pub)]
#![warn(missing_docs)]

mod dopri5;
mod driver;
mod error;
mod event;
pub mod hybrid;
mod interp;
mod solution;
mod vecn;

pub use dopri5::Dopri5;
pub use driver::{integrate, integrate_with_events, integrate_with_events_telemetry, Options};
pub use error::SolveError;
pub use event::{locate_zero_counted, Direction, EventFn, EventOccurrence, EventSpec};
pub use interp::CubicHermite;
pub use solution::Solution;

/// Right-hand side of an autonomous or non-autonomous ODE
/// `dy/dt = f(t, y)` with state dimension `N`.
///
/// The trait is implemented for any `Fn(f64, &[f64; N]) -> [f64; N]`, so
/// plain closures work everywhere an `Ode` is expected.
pub trait Ode<const N: usize> {
    /// Evaluates the vector field at time `t` and state `y`.
    fn rhs(&self, t: f64, y: &[f64; N]) -> [f64; N];
}

impl<F, const N: usize> Ode<N> for F
where
    F: Fn(f64, &[f64; N]) -> [f64; N],
{
    fn rhs(&self, t: f64, y: &[f64; N]) -> [f64; N] {
        self(t, y)
    }
}
