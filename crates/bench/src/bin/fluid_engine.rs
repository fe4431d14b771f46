//! Semi-analytic vs DOPRI5 fluid-engine benchmark on the atlas work-list.
//!
//! Runs [`fluid_trajectory`] over every cell of the criterion atlas twice
//! — once per [`Engine`] — and reports per-cell wall time at 1/2/4/8
//! worker threads, the serial analytic-vs-numeric speedup, and an untimed
//! agreement pass: queue extrema to 1e-6 relative and an identical
//! trajectory-derived strong-stability verdict on every cell. Results
//! land in `BENCH_fluid.json` under the usual results directory, in the
//! [`bench::harness`] schema.
//!
//! The run *fails* (nonzero exit) on an agreement or verdict regression
//! at any grid, and additionally on a serial per-cell speedup below 5x
//! at the full 13x13 grid. Run release builds only:
//!
//! ```console
//! $ cargo run --release -p bench --bin fluid_engine
//! ```
//!
//! `DCE_BCN_QUICK` shrinks the grid to 5x5 at one rep and does not
//! enforce the speedup gate (CI smoke mode — the agreement checks still
//! run in full).

use bcn::simulate::{fluid_trajectory, Engine, FluidOptions};
use bcn::stability::exact_verdict;
use bcn::{BcnFluid, BcnParams};
use bench::experiments::criterion_sweep::{atlas_params, fluid_horizon};
use bench::harness::{self, sized, Bench, Bound, Row, Timing, THREAD_COUNTS};

/// Queue-extrema agreement bound (relative).
const MAX_REL_DELTA: f64 = 1e-6;
/// Serial per-cell speedup gate at the full grid.
const MIN_SPEEDUP: f64 = 5.0;

/// Timed-run options: accepted-step recording for both engines so the
/// comparison measures propagation, not sample interpolation.
fn timing_opts(p: &BcnParams, engine: Engine) -> FluidOptions {
    FluidOptions {
        t_end: fluid_horizon(p),
        tol: 1e-9,
        max_switches: 10_000,
        record_dt: None,
        engine,
    }
}

/// Wall time of one full-grid pass at a pinned width.
fn time_engine(params: &[BcnParams], engine: Engine, threads: usize, reps: usize) -> Timing {
    harness::at_width(threads, || {
        harness::time(reps, || {
            parkit::par_map(params, |p| {
                let sys = BcnFluid::linearized(p.clone());
                let run = fluid_trajectory(&sys, p.initial_point(), &timing_opts(p, engine))
                    .expect("engine timing run failed");
                run.solution.last_state()[0]
            })
        })
    })
}

/// Per-cell agreement report from the untimed cross-check pass.
struct CellAgreement {
    rel_delta_max: f64,
    rel_delta_min: f64,
    verdicts_match: bool,
}

/// Trajectory-derived strong-stability verdict: `0 < q < B` away from the
/// start, with the minimum taken after the first region switch (the first
/// leg is still leaving the boundary start `x = -q0`).
fn run_verdict(p: &BcnParams, max_x: f64, min_x: f64) -> bool {
    max_x < p.buffer - p.q0 && min_x > -p.q0
}

/// Runs both engines on one cell with a fine record grid and compares
/// queue extrema (analytic exact vs numeric parabola-refined) and the
/// derived stability verdicts.
fn check_cell(p: &BcnParams) -> CellAgreement {
    let sys = BcnFluid::linearized(p.clone());
    let beta_fast = p.a().max(p.b() * p.capacity).sqrt();
    let numeric_opts = FluidOptions {
        t_end: fluid_horizon(p),
        tol: 1e-12,
        max_switches: 10_000,
        record_dt: Some(0.03 / beta_fast),
        engine: Engine::Dopri5,
    };
    let analytic_opts = FluidOptions { engine: Engine::Analytic, ..numeric_opts.clone() };
    let num = fluid_trajectory(&sys, p.initial_point(), &numeric_opts)
        .expect("numeric agreement run failed");
    let ana = fluid_trajectory(&sys, p.initial_point(), &analytic_opts)
        .expect("analytic agreement run failed");

    let extremum_after = |run: &odesolve::hybrid::HybridSolution<2>, t_from: f64, sign: f64| {
        run.solution
            .times()
            .iter()
            .zip(run.solution.states())
            .filter(|(&t, _)| t >= t_from)
            .map(|(_, z)| sign * z[0])
            .fold(f64::NEG_INFINITY, f64::max)
    };
    let max_a = ana.solution.max_component(0);
    let max_n = num.solution.refined_max_component(0);
    let min_n_refined = num.solution.refined_min_component(0);
    let scale_max = max_a.abs().max(p.q0);
    // Minima for the verdict comparison: past the first switch, where the
    // boundary start x = -q0 has been left behind (matching ExactVerdict).
    let t1_a = ana.switch_times().first().copied().unwrap_or(f64::INFINITY);
    let t1_n = num.switch_times().first().copied().unwrap_or(f64::INFINITY);
    let min_a = -extremum_after(&ana, t1_a, -1.0);
    let min_n = -extremum_after(&num, t1_n, -1.0);
    let scale_min = min_a.abs().max(p.q0);

    CellAgreement {
        rel_delta_max: (max_a - max_n).abs() / scale_max,
        rel_delta_min: (ana.solution.min_component(0) - min_n_refined).abs() / scale_min,
        verdicts_match: run_verdict(p, max_a, min_a) == run_verdict(p, max_n, min_n),
    }
}

#[allow(clippy::cast_precision_loss)]
fn main() {
    let (grid, reps) = (sized(5, 13), sized(1, 3));
    let base = BcnParams::test_defaults().with_buffer(1.5e5);
    let params = atlas_params(&base, grid);
    let cells = params.len() as f64;
    let mut bench = Bench::new("fluid", reps);
    println!("fluid engine benchmark: {grid}x{grid} atlas, {reps} rep(s)");

    // Warm up allocator and code pages.
    let _ = time_engine(&params[..params.len().min(8)], Engine::Analytic, 1, 1);

    let mut serial = [f64::NAN; 2];
    for (i, (engine, name)) in
        [(Engine::Analytic, "analytic"), (Engine::Dopri5, "dopri5")].into_iter().enumerate()
    {
        for threads in THREAD_COUNTS {
            let secs = time_engine(&params, engine, threads, reps);
            if threads == 1 {
                serial[i] = secs.min;
            }
            bench.row(
                Row::new(name)
                    .with("threads", threads)
                    .with("secs", secs)
                    .with("per_cell_ns", secs.min * 1e9 / cells)
                    .with("speedup", serial[i] / secs.min),
            );
        }
    }
    let speedup = serial[1] / serial[0];

    // Untimed agreement pass (fine record grid, tight numeric tolerance).
    let agreements = parkit::par_map(&params, check_cell);
    let worst_max = agreements.iter().map(|a| a.rel_delta_max).fold(0.0, f64::max);
    let worst_min = agreements.iter().map(|a| a.rel_delta_min).fold(0.0, f64::max);
    let verdict_mismatches = agreements.iter().filter(|a| !a.verdicts_match).count();
    let exact_stable = params.iter().filter(|p| exact_verdict(p, 40).strongly_stable).count();
    bench.row(
        Row::new("agreement")
            .with("cells", params.len())
            .with("exactly_stable_cells", exact_stable),
    );
    bench.gate("max_extremum_rel_delta", worst_max, Bound::AtMost(MAX_REL_DELTA));
    bench.gate("min_extremum_rel_delta", worst_min, Bound::AtMost(MAX_REL_DELTA));
    bench.gate_zero("verdict_mismatches", verdict_mismatches);
    bench.speed_gate("serial_per_cell_speedup", speedup, MIN_SPEEDUP);
    bench.finish(
        "Engine speedup is measured serially (threads = 1); on single-core hardware (see \
         machine.cores) the per-engine thread rows are flat by hardware, not by engine. \
         Agreement deltas compare the analytic engine's exact extrema against \
         parabola-refined DOPRI5 samples at tol 1e-12.",
    );
}
