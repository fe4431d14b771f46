//! Hybrid fluid–packet co-simulation benchmark and agreement gate.
//!
//! Exercises [`HybridSim`] against the pure packet engine on the Fig. 7
//! limit-cycle scenario and a 16-server incast, and enforces the PR's
//! guarantees:
//!
//! 1. **Bounded divergence** — hybrid-vs-pure queue extrema agree within
//!    [`DIVERGENCE_BOUND_FRAC`]` * q0` on both scenarios. On the incast
//!    (flow churn, drops, PAUSE pressure) the guards never admit an
//!    epoch, so the hybrid run degenerates to pure packet simulation
//!    and the divergence is exactly zero — gated as bit-identity.
//! 2. **Always-packet bit-identity** — with the `always_packet` guard
//!    the wrapper matches the pure engine byte for byte: single runs on
//!    both scenarios, and batched runs across worker counts (1 vs 4).
//! 3. **Zero steady-state allocations** — with a warm [`SimWorkspace`],
//!    the hybrid engine performs no heap allocations after warm-up,
//!    *including across epoch switches* (scratch buffer, record series,
//!    and the wheel's slab arena are all pre-sized and recycled).
//! 4. **End-to-end speedup** — on a quiescence-heavy horizon (the
//!    limit-cycle scenario run long past convergence) the hybrid engine
//!    must finish at least 3x faster than the pure packet engine
//!    (full mode only; `DCE_BCN_QUICK` reports the ratio without
//!    gating it), and must commit at least one epoch there.
//! 5. **Attempt accounting** — on every scenario each fast-forward
//!    attempt ends exactly one way (`epochs + refused == attempts`);
//!    the counts are recorded per scenario.
//!
//! Results land in `BENCH_hybrid.json` under the usual results
//! directory, in the [`bench::harness`] schema. Run release builds only:
//!
//! ```console
//! $ cargo run --release -p bench --bin hybrid_engine
//! ```

use std::hint::black_box;

use bcn::BcnParams;
use bench::harness::{self, incast16, limit_cycle, sized, Bench, Bound, Row};
use dcesim::batch::BatchConfig;
use dcesim::hybrid::{HybridGuards, HybridSim, HybridSpec, HybridStats, DIVERGENCE_BOUND_FRAC};
use dcesim::metrics::SimMetrics;
use dcesim::sim::{fluid_validation_params, SimConfig, SimWorkspace, Simulation};
use telemetry::TelemetryLevel;

/// End-to-end speedup gate on the quiescence-heavy scenario.
const MIN_SPEEDUP: f64 = 3.0;

bench::counting_allocator!();

/// The fluid parameters of [`incast16`]: the limit cycle's, at 16 flows.
fn incast16_params() -> BcnParams {
    BcnParams { n_flows: 16, ..fluid_validation_params() }
}

fn run_pure(cfg: &SimConfig) -> (SimMetrics, Vec<f64>) {
    let report = Simulation::new(cfg.clone()).run();
    (report.metrics, report.final_rates)
}

fn run_hybrid(
    params: &BcnParams,
    cfg: &SimConfig,
    guards: HybridGuards,
) -> (SimMetrics, Vec<f64>, HybridStats) {
    let report = HybridSim::new(params.clone(), cfg.clone(), guards).run();
    (report.sim.metrics, report.sim.final_rates, report.stats)
}

#[allow(clippy::cast_precision_loss)]
fn ff_frac(stats: &HybridStats) -> f64 {
    let total = stats.ff_ns + stats.packet_ns;
    if total > 0 {
        stats.ff_ns as f64 / total as f64
    } else {
        0.0
    }
}

/// Queue-extrema divergence of a hybrid run vs the pure engine, as a row
/// plus `(worst divergence, stats)`; the min is compared past a warm-up
/// window so the empty-queue start does not mask a divergent floor.
fn divergence(name: &str, params: &BcnParams, cfg: &SimConfig) -> (Row, f64, HybridStats) {
    let warmup = 0.05;
    let (pure, _) = run_pure(cfg);
    let (hyb, _, stats) = run_hybrid(params, cfg, HybridGuards::default());
    let dmax = (pure.queue.max() - hyb.queue.max()).abs();
    let dmin = (pure.queue.min_after(warmup) - hyb.queue.min_after(warmup)).abs();
    let row = Row::new(format!("divergence_{name}"))
        .with("epochs", stats.epochs)
        .with("analytic_frac", ff_frac(&stats))
        .with("d_max_bits", dmax)
        .with("d_min_bits", dmin);
    (row, dmax.max(dmin), stats)
}

/// Always-packet bit-identity: single runs on both scenarios, plus
/// batched runs across worker counts; returns the number of failures.
fn always_packet_failures(t_end: f64, batch_t_end: f64) -> usize {
    let ap = HybridGuards { always_packet: true };
    let mut bad = 0;
    for (name, params, cfg) in [
        ("limit-cycle", fluid_validation_params(), limit_cycle(t_end)),
        ("incast-16", incast16_params(), incast16(t_end)),
    ] {
        let (pm, pr) = run_pure(&cfg);
        let (hm, hr, stats) = run_hybrid(&params, &cfg, ap);
        if stats.epochs != 0 || pm != hm || pr != hr {
            eprintln!(
                "always-packet {name}: {} epoch(s); reports equal: {}",
                stats.epochs,
                pm == hm && pr == hr
            );
            bad += 1;
        }
    }
    // Batched: pure batch vs always-packet hybrid batch, 1 vs 4 workers.
    let run = |hybrid: Option<HybridSpec>, threads: usize| {
        let mut cfg = BatchConfig::quick(limit_cycle(batch_t_end), 6);
        cfg.level = TelemetryLevel::Off;
        cfg.hybrid = hybrid;
        harness::batch_outcomes(&cfg, threads)
    };
    let spec = HybridSpec { params: fluid_validation_params(), guards: ap };
    let baseline = run(None, 1);
    for threads in [1, 4] {
        if run(Some(spec.clone()), threads) != baseline {
            eprintln!("always-packet batch ({threads} workers) diverged from the pure batch");
            bad += 1;
        }
    }
    bad
}

/// Steady-state allocation count of a warm hybrid run: run once to grow
/// every buffer, rebuild from the recycled workspace, step past
/// warm-up, then count allocations to completion — a stretch that
/// includes every fast-forward epoch and reseed. Returns the count and
/// the epochs the run committed.
fn steady_state_allocations(t_end: f64) -> (u64, u64) {
    let params = fluid_validation_params();
    let cfg = limit_cycle(t_end);
    let mut ws = SimWorkspace::new();
    let warm = HybridSim::new_in(params.clone(), cfg.clone(), HybridGuards::default(), &mut ws);
    black_box(warm.run_into(&mut ws));
    let mut sim = HybridSim::new_in(params, cfg, HybridGuards::default(), &mut ws);
    let allocs = harness::steady_state_allocations(allocations, 1_000, || sim.step());
    (allocs, sim.finish_into(&mut ws).stats.epochs)
}

// --- main -----------------------------------------------------------------

#[allow(clippy::cast_precision_loss)]
fn main() {
    let (agree_t_end, speed_t_end, batch_t_end) = sized((0.3, 0.5, 0.02), (0.5, 1.5, 0.05));
    let reps = sized(1, 3);
    let mut bench = Bench::new("hybrid", reps);
    println!("hybrid engine benchmark: agreement over {agree_t_end} s, {reps} rep(s)");

    let params = fluid_validation_params();
    let bound = DIVERGENCE_BOUND_FRAC * params.q0;

    // 1. Bounded divergence on the limit cycle; exact degeneration on
    // the incast.
    let (row, lc_worst, lc_stats) = divergence("limit_cycle", &params, &limit_cycle(agree_t_end));
    bench.row(row);
    bench.gate("limit_cycle_divergence_bits", lc_worst, Bound::AtMost(bound));
    bench.gate("limit_cycle_epochs", lc_stats.epochs, Bound::AtLeast(1.0));
    let (row, ic_worst, ic_stats) =
        divergence("incast_16", &incast16_params(), &incast16(agree_t_end));
    bench.row(row);
    bench.gate_zero("incast_16_divergence_bits", ic_worst);
    bench.gate_zero("incast_16_epochs", ic_stats.epochs);

    // 2. Always-packet bit-identity, single runs and batches x workers.
    bench.gate_zero("always_packet_failures", always_packet_failures(agree_t_end, batch_t_end));

    // 3. End-to-end speedup on the quiescence-heavy horizon.
    let speed_cfg = limit_cycle(speed_t_end);
    let packet = harness::time(reps, || Simulation::new(speed_cfg.clone()).run());
    let hybrid = harness::time(reps, || {
        HybridSim::new(params.clone(), speed_cfg.clone(), HybridGuards::default()).run()
    });
    let speedup = packet.min / hybrid.min;
    let (_, _, speed_stats) = run_hybrid(&params, &speed_cfg, HybridGuards::default());
    bench.row(
        Row::new("speedup")
            .with("t_end", speed_t_end)
            .with("packet_s", packet)
            .with("hybrid_s", hybrid)
            .with("analytic_frac", ff_frac(&speed_stats)),
    );
    bench.speed_gate("end_to_end_speedup", speedup, MIN_SPEEDUP);
    bench.gate("speedup_run_epochs", speed_stats.epochs, Bound::AtLeast(1.0));

    // 4. Steady-state allocations across epoch switches.
    let (allocs, epochs_covered) = steady_state_allocations(agree_t_end);
    bench.gate_zero("steady_state_allocations", allocs);
    bench.gate("allocation_epochs_covered", epochs_covered, Bound::AtLeast(1.0));

    // 5. Every attempt ends one way, on every scenario.
    let mut unconserved = 0_u64;
    for (name, stats) in
        [("limit_cycle", &lc_stats), ("incast_16", &ic_stats), ("speedup", &speed_stats)]
    {
        let mut row = Row::new(format!("attempt_ends_{name}"))
            .with("attempts", stats.attempts)
            .with("committed", stats.epochs);
        for (reason, n) in stats.refused.named() {
            row = row.with(reason, n);
        }
        bench.row(row);
        unconserved += u64::from(stats.epochs + stats.refused.total() != stats.attempts);
    }
    bench.gate_zero("unconserved_attempt_scenarios", unconserved);

    bench.finish(
        "Divergence compares hybrid vs pure queue extrema on the fluid-calibrated limit cycle \
         (guards admit epochs) and the 16-flow incast (churn keeps the guards shut, so the \
         hybrid run is the pure run and diverges by exactly zero). Speedup is end-to-end wall \
         time (min over reps) on the limit-cycle scenario run long past convergence, where \
         the quiescent tail dominates; quick mode records it without enforcing it. \
         Allocations are counted by this binary's wrapping allocator on a warm SimWorkspace \
         over a stretch that includes every fast-forward reseed. Attempt ends count, per \
         scenario, the record-grid ticks at which the controller tried to fast-forward: \
         committed epochs plus one count per refusal reason.",
    );
}
