//! Packet-level discrete-event simulator of a Data Center Ethernet
//! bottleneck under BCN / QCN congestion management.
//!
//! The reproduced paper analyses BCN through a fluid-flow model; this
//! crate provides the *physical substrate* that model abstracts: discrete
//! frames, a finite shared buffer, deterministic packet sampling at the
//! congestion point, backward notification messages with propagation
//! delay, per-source rate regulators running the AIMD law of paper Eq. 2,
//! and the IEEE 802.3x PAUSE escape hatch above the severe-congestion
//! threshold. Every analytic claim of the `bcn` crate can be
//! cross-validated against this simulator.
//!
//! # Architecture
//!
//! * [`time`] — integer nanosecond simulation time.
//! * [`frame`] — data frames, BCN messages (paper Fig. 2 fields), PAUSE.
//! * [`cp`] — the congestion point: queue monitoring, deterministic
//!   sampling, the congestion measure `sigma`, BCN message generation.
//! * [`rp`] — the reaction point: the BCN AIMD rate regulator with rate
//!   regulator tags (RRT/CPID association).
//! * [`qcn`] — the QCN (802.1Qau) congestion point and reaction point,
//!   the BCN-paradigm successor, for comparison experiments.
//! * `control` (crate-private) — the control-law seam both engines
//!   hold their congestion and reaction points through: one enum per
//!   role with a BCN and a QCN arm, and one feedback event.
//! * [`sched`] — the future-event set behind both engines: a
//!   hierarchical timing wheel with slab recycling (default) and the
//!   reference binary heap, selectable per run and bit-identical.
//! * [`sim`] — the event-driven engine wiring N sources through a single
//!   bottleneck queue to a sink (the paper's Fig. 1 dumbbell).
//! * [`metrics`] — queue/rate time series, drop counters, throughput and
//!   Jain fairness.
//! * [`workload`] — flow descriptors: start/stop times, initial rates.
//! * [`wire`] — the BCN message wire format of the paper's Fig. 2
//!   (encode/decode, FB fixed-point quantization).
//! * [`faults`] — deterministic seed-driven fault injection: feedback
//!   drop/corruption/delay/reorder, data-loss bursts, link flaps,
//!   PAUSE storms.
//! * [`error`] — the typed configuration error returned by the
//!   `validate` methods.
//! * [`batch`] — multi-seed batches: deterministic workload jitter per
//!   seed, runs fanned out across the `parkit` worker pool, telemetry
//!   shards merged in seed order, panicking seeds quarantined.
//! * [`hybrid`] — the epoch-switching fluid–packet co-simulator:
//!   packet simulation through the interesting stretches, closed-form
//!   fast-forward (with guard bands and bit-exact re-seeding) through
//!   the quiescent ones.
//!
//! # Quickstart
//!
//! ```
//! use dcesim::sim::{Simulation, SimConfig};
//!
//! let cfg = SimConfig::fluid_validation_default();
//! let report = Simulation::new(cfg).run();
//! // The bottleneck stays busy and nothing is dropped with a roomy buffer.
//! assert!(report.metrics.dropped_frames == 0);
//! assert!(report.metrics.delivered_frames > 100);
//! ```

#![forbid(unsafe_code)]
#![warn(unreachable_pub)]
#![warn(missing_docs)]

pub mod batch;
pub mod checkpoint;
mod control;
pub mod cp;
pub mod error;
pub mod faults;
pub mod frame;
pub mod hybrid;
pub mod metrics;
pub mod net;
pub mod qcn;
pub mod rp;
pub mod sched;
pub mod sim;
pub mod time;
pub mod topo;
pub mod wire;
pub mod workload;
