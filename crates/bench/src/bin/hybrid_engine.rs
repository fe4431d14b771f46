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
//! directory. Run release builds only:
//!
//! ```console
//! $ cargo run --release -p bench --bin hybrid_engine
//! ```

use std::hint::black_box;
use std::time::Instant;

use bench::common::{out_dir, quick};
use dcesim::batch::{run_batch, BatchConfig};
use dcesim::hybrid::{HybridGuards, HybridSim, HybridSpec, HybridStats, DIVERGENCE_BOUND_FRAC};
use dcesim::metrics::SimMetrics;
use dcesim::sim::{fluid_validation_params, SimConfig, SimWorkspace, Simulation};
use dcesim::time::Duration;
use dcesim::workload;
use telemetry::TelemetryLevel;

/// End-to-end speedup gate on the quiescence-heavy scenario.
const MIN_SPEEDUP: f64 = 3.0;
/// Frame size used throughout (bits).
const FRAME: f64 = 8_000.0;

bench::counting_allocator!();

// --- scenarios ------------------------------------------------------------

/// The Fig. 7 limit-cycle parameterisation on the packet engine.
fn limit_cycle(t_end: f64) -> SimConfig {
    SimConfig::from_fluid(&fluid_validation_params(), FRAME, Duration::from_secs(2e-6), t_end)
}

/// 16 servers answering a parallel read into the same bottleneck at 4x
/// overload: flow churn and drop/PAUSE pressure keep the structural
/// guards shut, so the hybrid engine must degenerate to pure packet.
fn incast16(t_end: f64) -> (bcn::BcnParams, SimConfig) {
    let mut params = fluid_validation_params();
    let mut cfg = limit_cycle(t_end);
    cfg.flows = workload::incast(16, params.capacity / 4.0, 300.0 * FRAME);
    params.n_flows = 16;
    (params, cfg)
}

fn run_pure(cfg: &SimConfig) -> (SimMetrics, Vec<f64>) {
    let report = Simulation::new(cfg.clone()).run();
    (report.metrics, report.final_rates)
}

fn run_hybrid(
    params: &bcn::BcnParams,
    cfg: &SimConfig,
    guards: HybridGuards,
) -> (SimMetrics, Vec<f64>, HybridStats) {
    let report = HybridSim::new(params.clone(), cfg.clone(), guards).run();
    (report.sim.metrics, report.sim.final_rates, report.stats)
}

/// Best-of-`reps` wall time of one run through either engine.
fn time_run(params: &bcn::BcnParams, cfg: &SimConfig, hybrid: bool, reps: usize) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t0 = Instant::now();
        if hybrid {
            black_box(HybridSim::new(params.clone(), cfg.clone(), HybridGuards::default()).run());
        } else {
            black_box(Simulation::new(cfg.clone()).run());
        }
        best = best.min(t0.elapsed().as_secs_f64());
    }
    best
}

// --- gates ----------------------------------------------------------------

/// Queue-extrema divergence of a hybrid run vs the pure engine, as
/// `(d_max, d_min, stats)`; the min is compared past a warm-up window
/// so the empty-queue start does not mask a divergent floor.
fn divergence(
    name: &str,
    params: &bcn::BcnParams,
    cfg: &SimConfig,
    warmup: f64,
) -> (f64, f64, HybridStats) {
    let (pure, _) = run_pure(cfg);
    let (hyb, _, stats) = run_hybrid(params, cfg, HybridGuards::default());
    let dmax = (pure.queue.max() - hyb.queue.max()).abs();
    let dmin = (pure.queue.min_after(warmup) - hyb.queue.min_after(warmup)).abs();
    println!(
        "  {name}: {} epoch(s), {:.1}% analytic — divergence max {dmax:.0} / min {dmin:.0} bits",
        stats.epochs,
        ff_frac(&stats) * 100.0
    );
    (dmax, dmin, stats)
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

/// Fails unless every fast-forward attempt of `stats` ended exactly one
/// way.
fn check_conserved(failures: &mut Vec<String>, name: &str, stats: &HybridStats) {
    let ends = stats.epochs + stats.refused.total();
    if ends != stats.attempts {
        failures.push(format!(
            "{name}: {ends} attempt ends (epochs + refusals) for {} attempts",
            stats.attempts
        ));
    }
}

/// One scenario's attempt accounting as a JSON object.
fn attempt_ends_json(name: &str, stats: &HybridStats) -> String {
    let mut out = format!(
        "{{\"scenario\": \"{name}\", \"attempts\": {}, \"committed\": {}",
        stats.attempts, stats.epochs
    );
    for (reason, n) in stats.refused.named() {
        out.push_str(&format!(", \"{reason}\": {n}"));
    }
    out.push('}');
    out
}

/// Always-packet bit-identity: single runs on both scenarios, plus
/// batched runs across worker counts.
fn check_always_packet(failures: &mut Vec<String>, t_end: f64, batch_t_end: f64) {
    let ap = HybridGuards { always_packet: true };
    let lc = limit_cycle(t_end);
    let (ic_params, ic_cfg) = incast16(t_end);
    for (name, params, cfg) in
        [("limit-cycle", fluid_validation_params(), &lc), ("incast-16", ic_params, &ic_cfg)]
    {
        let (pm, pr) = run_pure(cfg);
        let (hm, hr, stats) = run_hybrid(&params, cfg, ap);
        if stats.epochs != 0 {
            failures.push(format!("always-packet {name}: committed {} epoch(s)", stats.epochs));
        }
        if pm != hm || pr != hr {
            failures.push(format!("always-packet {name}: hybrid wrapper diverged"));
        }
    }
    // Batched: pure batch vs always-packet hybrid batch, 1 vs 4 workers.
    let run = |hybrid: Option<HybridSpec>, threads: usize| {
        parkit::set_threads(threads);
        let mut cfg = BatchConfig::quick(limit_cycle(batch_t_end), 6);
        cfg.level = TelemetryLevel::Off;
        cfg.hybrid = hybrid;
        let report = run_batch(&cfg);
        let out: Vec<(u64, SimMetrics, Vec<f64>)> = report
            .completed()
            .map(|(seed, r)| (seed, r.metrics.clone(), r.final_rates.clone()))
            .collect();
        parkit::set_threads(0);
        out
    };
    let spec = HybridSpec { params: fluid_validation_params(), guards: ap };
    let baseline = run(None, 1);
    for threads in [1, 4] {
        if run(Some(spec.clone()), threads) != baseline {
            failures.push(format!(
                "always-packet batch ({threads} workers) diverged from the pure batch"
            ));
        }
    }
}

/// Steady-state allocation count of a warm hybrid run: run once to grow
/// every buffer, rebuild from the recycled workspace, step past
/// warm-up, then count allocations to completion — a stretch that
/// includes every fast-forward epoch and reseed.
fn steady_state_allocations(t_end: f64) -> (u64, u64) {
    let params = fluid_validation_params();
    let cfg = limit_cycle(t_end);
    let mut ws = SimWorkspace::new();
    let warm = HybridSim::new_in(params.clone(), cfg.clone(), HybridGuards::default(), &mut ws);
    black_box(warm.run_into(&mut ws));
    let mut sim = HybridSim::new_in(params, cfg, HybridGuards::default(), &mut ws);
    for _ in 0..1_000 {
        if !sim.step() {
            break;
        }
    }
    let before = allocations();
    while sim.step() {}
    let after = allocations();
    let report = sim.finish_into(&mut ws);
    (after - before, report.stats.epochs)
}

// --- main -----------------------------------------------------------------

#[allow(clippy::too_many_lines, clippy::cast_precision_loss)]
fn main() {
    let (agree_t_end, speed_t_end, batch_t_end, reps) =
        if quick() { (0.3, 0.5, 0.02, 1) } else { (0.5, 1.5, 0.05, 3) };
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    println!(
        "hybrid engine benchmark: agreement over {agree_t_end} s, best of {reps}, {cores} core(s)"
    );

    let mut failures: Vec<String> = Vec::new();
    let params = fluid_validation_params();
    let bound = DIVERGENCE_BOUND_FRAC * params.q0;

    // 1. Bounded divergence on the limit cycle; exact degeneration on
    // the incast.
    println!("divergence vs pure packet (bound {bound:.0} bits):");
    let lc = limit_cycle(agree_t_end);
    let (lc_dmax, lc_dmin, lc_stats) = divergence("limit_cycle", &params, &lc, 0.05);
    if lc_stats.epochs == 0 {
        failures.push("limit-cycle run committed no fast-forward epoch".into());
    }
    if lc_dmax > bound || lc_dmin > bound {
        failures.push(format!(
            "limit-cycle divergence (max {lc_dmax:.0}, min {lc_dmin:.0}) exceeds {bound:.0} bits"
        ));
    }
    let (ic_params, ic_cfg) = incast16(agree_t_end);
    let (ic_dmax, ic_dmin, ic_stats) = divergence("incast_16", &ic_params, &ic_cfg, 0.05);
    if ic_stats.epochs != 0 {
        failures.push(format!(
            "incast guards admitted {} epoch(s); churn must stay packet-simulated",
            ic_stats.epochs
        ));
    }
    if ic_dmax != 0.0 || ic_dmin != 0.0 {
        failures.push(format!(
            "incast divergence (max {ic_dmax:.0}, min {ic_dmin:.0}) non-zero without epochs"
        ));
    }

    // 2. Always-packet bit-identity, single runs and batches x workers.
    check_always_packet(&mut failures, agree_t_end, batch_t_end);
    println!(
        "always-packet equivalence: {}",
        if failures.iter().any(|f| f.contains("always-packet")) {
            "FAILURES (see below)"
        } else {
            "bit-identical (single runs + batches x 1/4 workers)"
        }
    );

    // 3. End-to-end speedup on the quiescence-heavy horizon.
    let speed_cfg = limit_cycle(speed_t_end);
    let packet_s = time_run(&params, &speed_cfg, false, reps);
    let hybrid_s = time_run(&params, &speed_cfg, true, reps);
    let speedup = packet_s / hybrid_s;
    let (_, _, speed_stats) = run_hybrid(&params, &speed_cfg, HybridGuards::default());
    println!(
        "speedup over {speed_t_end} s: packet {:.1} ms vs hybrid {:.1} ms — {speedup:.2}x \
         ({:.1}% analytic)",
        packet_s * 1e3,
        hybrid_s * 1e3,
        ff_frac(&speed_stats) * 100.0
    );
    if !quick() && speedup < MIN_SPEEDUP {
        failures.push(format!("end-to-end speedup {speedup:.2}x below the {MIN_SPEEDUP}x gate"));
    }
    if speed_stats.epochs == 0 {
        failures.push("speedup run committed no fast-forward epoch".into());
    }

    // 5. Every attempt ends one way, on every scenario.
    let ends = [("limit_cycle", &lc_stats), ("incast_16", &ic_stats), ("speedup", &speed_stats)];
    for (name, stats) in ends {
        check_conserved(&mut failures, name, stats);
    }
    let ends_json: Vec<String> =
        ends.iter().map(|(name, stats)| attempt_ends_json(name, stats)).collect();
    println!("attempt ends:");
    for row in &ends_json {
        println!("  {row}");
    }

    // 4. Steady-state allocations across epoch switches.
    let (allocs, epochs_covered) = steady_state_allocations(agree_t_end);
    println!("steady-state allocations: {allocs} across {epochs_covered} epoch(s)");
    if allocs != 0 {
        failures.push(format!("hybrid steady state performed {allocs} allocation(s)"));
    }
    if epochs_covered == 0 {
        failures.push("allocation gate covered no epoch switch".into());
    }

    let note = "Divergence compares hybrid vs pure queue extrema on the fluid-calibrated \
                limit cycle (guards admit epochs) and the 16-flow incast (churn keeps the \
                guards shut, so the hybrid run is the pure run and diverges by exactly \
                zero). Speedup is end-to-end wall time on the limit-cycle scenario run \
                long past convergence, where the quiescent tail dominates; quick mode \
                reports it without gating. Allocations are counted by this binary's \
                wrapping allocator on a warm SimWorkspace over a stretch that includes \
                every fast-forward reseed. Attempt ends count, per scenario, the \
                record-grid ticks at which the controller tried to fast-forward: \
                committed epochs plus one count per refusal reason.";
    let json = format!(
        "{{\n  \"quick\": {},\n  \"reps\": {reps},\n  \"cores\": {cores},\n  \"divergence_bound_bits\": {bound:.0},\n  \
         \"divergence\": [\n    {{\"scenario\": \"limit_cycle\", \"epochs\": {}, \
         \"analytic_frac\": {:.4}, \"d_max_bits\": {lc_dmax:.1}, \"d_min_bits\": {lc_dmin:.1}}},\n    \
         {{\"scenario\": \"incast_16\", \"epochs\": {}, \"analytic_frac\": {:.4}, \
         \"d_max_bits\": {ic_dmax:.1}, \"d_min_bits\": {ic_dmin:.1}}}\n  ],\n  \
         \"speedup\": {{\"t_end\": {speed_t_end}, \"packet_s\": {packet_s:.4}, \
         \"hybrid_s\": {hybrid_s:.4}, \"speedup\": {speedup:.3}, \"gate\": {MIN_SPEEDUP}, \
         \"analytic_frac\": {:.4}}},\n  \
         \"steady_state_allocations\": {{\"hybrid\": {allocs}, \"epochs_covered\": {epochs_covered}}},\n  \
         \"equivalence_failures\": {},\n  \
         \"attempt_ends\": [\n    {}\n  ],\n  \"note\": \"{note}\"\n}}\n",
        quick(),
        lc_stats.epochs,
        ff_frac(&lc_stats),
        ic_stats.epochs,
        ff_frac(&ic_stats),
        ff_frac(&speed_stats),
        failures.len(),
        ends_json.join(",\n    "),
    );
    let out = out_dir();
    let path = out.join("BENCH_hybrid.json");
    if let Err(e) = std::fs::write(&path, json) {
        eprintln!("FAIL: could not write {}: {e}", path.display());
        std::process::exit(1);
    }
    println!("wrote {}", path.display());

    if !failures.is_empty() {
        for f in &failures {
            eprintln!("FAIL: {f}");
        }
        std::process::exit(1);
    }
}
