//! Semi-analytic vs DOPRI5 fluid-engine benchmark on the atlas work-list.
//!
//! Runs [`fluid_trajectory`] over every cell of the criterion atlas twice
//! — once per [`Engine`] — and reports per-cell wall time at 1/2/4/8
//! worker threads, the serial analytic-vs-numeric speedup, and an untimed
//! agreement pass: queue extrema to 1e-6 relative and an identical
//! trajectory-derived strong-stability verdict on every cell. Results
//! land in `BENCH_fluid.json` under the usual results directory.
//!
//! The run *fails* (nonzero exit) on an agreement or verdict regression
//! at any grid, and additionally on a serial per-cell speedup below 5x
//! at the full 13x13 grid. Run release builds only:
//!
//! ```console
//! $ cargo run --release -p bench --bin fluid_engine
//! ```
//!
//! `DCE_BCN_QUICK` shrinks the grid to 5x5 and skips the speedup gate
//! (CI smoke mode — the agreement checks still run in full).

use std::hint::black_box;
use std::time::Instant;

use bcn::simulate::{fluid_trajectory, Engine, FluidOptions};
use bcn::stability::exact_verdict;
use bcn::{BcnFluid, BcnParams};
use bench::common::{out_dir, quick};
use bench::experiments::criterion_sweep::{atlas_params, fluid_horizon};

const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];
/// Queue-extrema agreement bound (relative).
const MAX_REL_DELTA: f64 = 1e-6;
/// Serial per-cell speedup gate at the full grid.
const MIN_SPEEDUP: f64 = 5.0;

fn env_usize(key: &str, default: usize) -> usize {
    std::env::var(key).ok().and_then(|v| v.parse().ok()).filter(|&n| n > 0).unwrap_or(default)
}

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

/// Best-of-`reps` wall time of one full-grid pass at a pinned width.
fn time_engine(params: &[BcnParams], engine: Engine, threads: usize, reps: usize) -> f64 {
    parkit::set_threads(threads);
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t0 = Instant::now();
        let ends = parkit::par_map(params, |p| {
            let sys = BcnFluid::linearized(p.clone());
            let run = fluid_trajectory(&sys, p.initial_point(), &timing_opts(p, engine))
                .expect("engine timing run failed");
            run.solution.last_state()[0]
        });
        black_box(ends);
        best = best.min(t0.elapsed().as_secs_f64());
    }
    parkit::set_threads(0);
    best
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

#[allow(clippy::too_many_lines)]
fn main() {
    let grid = env_usize("DCE_BCN_FLUID_GRID", if quick() { 5 } else { 13 });
    let reps = env_usize("DCE_BCN_FLUID_REPS", if quick() { 1 } else { 3 });
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    let base = BcnParams::test_defaults().with_buffer(1.5e5);
    let params = atlas_params(&base, grid);
    let cells = params.len() as f64;

    println!("fluid engine benchmark: {grid}x{grid} atlas, best of {reps}, {cores} core(s)");

    // Warm up allocator and code pages.
    let _ = time_engine(&params[..params.len().min(8)], Engine::Analytic, 1, 1);

    let mut rows: Vec<(Engine, &str, Vec<f64>)> =
        vec![(Engine::Analytic, "analytic", Vec::new()), (Engine::Dopri5, "dopri5", Vec::new())];
    for (engine, name, times) in &mut rows {
        for &threads in &THREAD_COUNTS {
            let secs = time_engine(&params, *engine, threads, reps);
            println!(
                "  {name:>8} threads = {threads}: {secs:.3} s ({:.0} ns/cell)",
                secs * 1e9 / cells
            );
            times.push(secs);
        }
    }
    let analytic_serial = rows[0].2[0];
    let numeric_serial = rows[1].2[0];
    let speedup = numeric_serial / analytic_serial;
    println!(
        "serial per-cell: analytic {:.0} ns vs dopri5 {:.0} ns — {speedup:.1}x",
        analytic_serial * 1e9 / cells,
        numeric_serial * 1e9 / cells
    );

    // Untimed agreement pass (fine record grid, tight numeric tolerance).
    parkit::set_threads(0);
    let agreements = parkit::par_map(&params, check_cell);
    let worst_max = agreements.iter().map(|a| a.rel_delta_max).fold(0.0, f64::max);
    let worst_min = agreements.iter().map(|a| a.rel_delta_min).fold(0.0, f64::max);
    let verdict_mismatches = agreements.iter().filter(|a| !a.verdicts_match).count();
    let exact_stable = params.iter().filter(|p| exact_verdict(p, 40).strongly_stable).count();
    println!(
        "agreement: max-extremum delta {worst_max:.3e}, min-extremum delta {worst_min:.3e}, \
         verdict mismatches {verdict_mismatches}/{} ({exact_stable} cells exactly stable)",
        params.len()
    );

    let engines_json: Vec<String> = rows
        .iter()
        .map(|(_, name, times)| {
            let runs: Vec<String> = THREAD_COUNTS
                .iter()
                .zip(times)
                .map(|(th, t)| {
                    format!(
                        "{{\"threads\": {th}, \"secs\": {t:.6}, \"per_cell_ns\": {:.1}, \
                         \"speedup\": {:.4}}}",
                        t * 1e9 / cells,
                        times[0] / t
                    )
                })
                .collect();
            format!("\"{name}\": [{}]", runs.join(", "))
        })
        .collect();
    let note = "Engine speedup is measured serially (threads = 1); on single-core hardware \
                (see \\\"cores\\\") the per-engine thread rows are flat by hardware, not by \
                engine. Agreement deltas compare the analytic engine's exact extrema against \
                parabola-refined DOPRI5 samples at tol 1e-12.";
    let json = format!(
        "{{\n  \"grid\": {grid},\n  \"reps\": {reps},\n  \"cores\": {cores},\n  \
         \"engines\": {{{}}},\n  \"serial_per_cell_speedup\": {speedup:.2},\n  \
         \"agreement\": {{\"max_extremum_rel_delta\": {worst_max:.3e}, \
         \"min_extremum_rel_delta\": {worst_min:.3e}, \
         \"verdict_mismatches\": {verdict_mismatches}, \"cells\": {}, \
         \"exactly_stable_cells\": {exact_stable}}},\n  \
         \"note\": \"{note}\"\n}}\n",
        engines_json.join(", "),
        params.len(),
    );
    let out = out_dir();
    let path = out.join("BENCH_fluid.json");
    if let Err(e) = std::fs::write(&path, json) {
        eprintln!("FAIL: could not write {}: {e}", path.display());
        std::process::exit(1);
    }
    println!("wrote {}", path.display());

    let mut failed = false;
    if worst_max > MAX_REL_DELTA || worst_min > MAX_REL_DELTA {
        eprintln!("FAIL: extremum agreement exceeded {MAX_REL_DELTA:.0e}");
        failed = true;
    }
    if verdict_mismatches > 0 {
        eprintln!("FAIL: {verdict_mismatches} cell(s) flipped stability verdict across engines");
        failed = true;
    }
    if !quick() && grid >= 13 && speedup < MIN_SPEEDUP {
        eprintln!("FAIL: serial per-cell speedup {speedup:.2}x below the {MIN_SPEEDUP}x gate");
        failed = true;
    }
    if failed {
        std::process::exit(1);
    }
}
