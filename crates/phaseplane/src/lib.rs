//! Phase-plane analysis toolkit for planar (2-D) dynamical systems.
//!
//! The phase-plane method is the analytical machinery of the reproduced
//! paper: a second-order system is studied as a vector field on the
//! `(x, y)` plane, its singular points classified through the eigenvalues
//! of the linearisation, and its long-run behaviour read off the shapes of
//! trajectories (spirals, node parabolas, limit cycles).
//!
//! This crate provides the generic, paper-agnostic pieces:
//!
//! * [`Mat2`] / [`Eigen2`] / [`classify`] — 2×2 linear algebra and the
//!   trace–determinant classification of singular points (stable/unstable
//!   focus and node, saddle, center, degenerate node).
//! * [`PlaneSystem`] — autonomous planar vector fields (implemented for
//!   closures), with [`trajectory`] tracing built on `odesolve`.
//! * [`SwitchingLine`] — a line through the origin partitioning the plane,
//!   as used by variable-structure control systems.
//! * [`poincare`] — Poincaré sections, return maps, and a fixed-point
//!   finder for locating limit cycles and measuring their stability.
//!
//! The BCN-specific closed forms (logarithmic spirals, node parabolas,
//! extrema formulas) live in the `bcn` crate, which builds on this one.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod linear2d;
pub mod poincare;
mod switching;
mod system;
mod trajectory;

pub use linear2d::{classify, Eigen2, FixedPointKind, Mat2};
pub use switching::{HalfPlane, SwitchingLine};
pub use system::PlaneSystem;
pub use trajectory::{linear_trajectory, trajectory, trajectory_with_events, TrajectoryOptions};
