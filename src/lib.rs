//! Umbrella crate for the DCE-BCN reproduction.
//!
//! Re-exports the workspace crates so integration tests and examples can
//! use a single dependency:
//!
//! * [`odesolve`] — ODE solvers with event location and hybrid integration.
//! * [`phaseplane`] — 2-D phase-plane analysis toolkit.
//! * [`bcn`] — the BCN fluid model, closed forms, and stability theory
//!   (the paper's core contribution).
//! * [`dcesim`] — packet-level Data Center Ethernet simulator with BCN and
//!   QCN protocol implementations.
//! * [`plotkit`] — CSV/SVG/ASCII reporting used by the figure generators.
//! * [`telemetry`] — metrics registry, event tracing, and JSONL export
//!   shared by the solvers, the simulator, and the CLI.
//! * [`cli`] — the `dcebcn` command-line front end as a library.
//!
//! On top of the re-exports, [`Error`] unifies every typed failure the
//! workspace can report behind one conversion layer with per-family
//! process exit codes; the `dcebcn` binary is a thin wrapper over
//! [`cli::run`] plus that mapping.

#![forbid(unsafe_code)]
#![warn(unreachable_pub)]

mod error;

pub use bcn;
pub use cli;
pub use dcesim;
pub use error::Error;
pub use odesolve;
pub use phaseplane;
pub use plotkit;
pub use telemetry;
