//! The BCN (Backward Congestion Notification) congestion-control fluid
//! model and its phase-plane stability theory.
//!
//! This crate is the core of the reproduction of *Ren & Jiang, "Phase Plane
//! Analysis of Congestion Control in Data Center Ethernet Networks", ICDCS
//! 2010*. BCN is the rate-based closed-loop congestion-management mechanism
//! underlying the IEEE 802.1Qau proposal family (ECM, E2CM, QCN): core
//! switches sample packets, compute the congestion measure
//! `sigma = (q0 - q) - w * dq` and feed it back to reaction points, which
//! apply additive increase (`sigma > 0`) or multiplicative decrease
//! (`sigma < 0`) to their sending rate.
//!
//! Under the paper's fluid-flow approximation the closed loop is the planar
//! switched system (paper Eq. 8, in deviation coordinates `x = q - q0`,
//! `y = N r - C`):
//!
//! ```text
//! dx/dt = y
//! dy/dt = -a (x + k y)                 where sigma > 0   (rate increase)
//! dy/dt = -b (y + C)(x + k y)          where sigma < 0   (rate decrease)
//! ```
//!
//! with `a = Ru Gi N`, `b = Gd`, `k = w / (pm C)` and switching line
//! `x + k y = 0`.
//!
//! # Module map
//!
//! * [`params`] — [`BcnParams`]: the full parameter set with validation,
//!   the paper's defaults, and the derived `a`, `b`, `k` constants.
//! * [`model`] — the switched vector field (linearised and full nonlinear),
//!   region membership, and hybrid-system adapters for `odesolve`.
//! * [`cases`] — the paper's Case 1–5 taxonomy from the per-region
//!   discriminants (spiral / node / critical shapes).
//! * [`closed_form`] — exact region-local solutions: matrix exponential
//!   flows plus the paper's spiral (Eq. 12), node (Eq. 21) and critical
//!   (Eq. 29) forms.
//! * [`extrema`] — the queue-extrema formulas (Eqs. 18–20, 28, 34) and
//!   numerically robust equivalents.
//! * [`propagate`] — the semi-analytic engine: spectral decompositions
//!   per parameter set, closed-form switching-line
//!   crossing times (Newton-polished), and analytic leg-by-leg
//!   trajectory integration — the fast path of every sweep.
//! * [`query`] — the batched stability-query engine: structure-of-arrays
//!   batches deduplicated by full query, a process-wide memo of answers,
//!   per-worker workspaces, and the JSONL wire codec behind `dcebcn
//!   query`.
//! * [`rounds`] — round-by-round switching analysis: crossing points,
//!   durations `T_i`, `T_d`, per-round amplitudes and the contraction
//!   ratio of the round map.
//! * [`stability`] — strong stability (Definition 1): Propositions 2–4,
//!   Theorem 1, and exact trajectory-based verdicts.
//! * [`limit_cycle`] — limit-cycle analysis (paper Fig. 7) via the round
//!   map and Poincaré sections on the switching line.
//! * [`linear_baseline`] — the prior linear analysis of Lu et al. \[4\]
//!   (Routh–Hurwitz on the isolated subsystems) that the paper improves
//!   upon.
//! * [`simulate`] — fluid trajectory simulation, including the
//!   buffer-saturating variant that predicts packet drops.
//! * [`warmup`] — the start-up stage (`T0 = (C - N mu)/(a q0)`).
//! * [`delay`] — propagation-delay extension (DDE by method of steps),
//!   an ablation of the paper's zero-delay assumption.
//! * [`hetero`] — the full `N+1`-dimensional heterogeneous fluid model,
//!   an ablation of the paper's homogeneity assumption (and the AIMD
//!   fairness dynamics).
//! * [`transient`] — transient-performance metrics (settling time,
//!   overshoot, round period): the paper's declared future work.
//! * [`buffer`] — buffer-sizing helpers (Theorem 1 bound vs the
//!   bandwidth-delay product rule).
//! * [`units`] — unit conversion constants (bits, seconds).
//!
//! # Quickstart
//!
//! ```
//! use bcn::{BcnParams, stability};
//!
//! // The paper's worked example: N = 50 flows over a 10 Gbit/s link.
//! let params = BcnParams::paper_defaults();
//! let required = stability::theorem1_required_buffer(&params);
//! // Theorem 1 asks for ~13.8 Mbit, nearly 3x the 5 Mbit BDP example.
//! assert!(required > 13.0e6 && required < 14.0e6);
//! ```

#![forbid(unsafe_code)]
#![warn(unreachable_pub)]
#![warn(missing_docs)]

pub mod buffer;
pub mod cases;
pub mod closed_form;
pub mod delay;
mod error;
pub mod extrema;
pub mod hetero;
pub mod limit_cycle;
pub mod linear_baseline;
pub mod model;
pub mod params;
pub mod propagate;
pub mod query;
pub mod rounds;
pub mod simulate;
pub mod stability;
pub mod transient;
pub mod units;
pub mod warmup;

pub use cases::{CaseId, RegionShape};
pub use error::BcnError;
pub use model::{BcnFluid, Linearity, Region};
pub use params::BcnParams;
pub use simulate::Engine;
