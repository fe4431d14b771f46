//! Parallel-sweep scaling check for the atlas engine.
//!
//! Times [`compute_atlas`] at 1/2/4/8 worker threads and verifies the
//! rendered CSV is byte-identical at every width (the `parkit`
//! determinism contract). Results land in `BENCH_sweeps.json` under the
//! usual results directory.
//!
//! Speedup is hardware-bound: on an M-core machine the atlas cannot
//! scale past M, so the wall-clock table is informational — the run
//! only *fails* if the CSV equivalence breaks. Run release builds only:
//!
//! ```console
//! $ cargo run --release -p bench --bin sweep_scaling
//! ```
//!
//! Environment knobs: `DCE_BCN_SWEEP_GRID` (atlas side length, default
//! 64), `DCE_BCN_SWEEP_REPS` (timing repetitions, default 3).

use std::time::Instant;

use bcn::BcnParams;
use bench::common::out_dir;
use bench::experiments::criterion_sweep::{compute_atlas, Cell};
use plotkit::Csv;

const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];

fn env_usize(key: &str, default: usize) -> usize {
    std::env::var(key).ok().and_then(|v| v.parse().ok()).filter(|&n| n > 0).unwrap_or(default)
}

/// The atlas rendered exactly as the `criterion_sweep` experiment
/// writes it — the byte-equivalence check runs on this serialisation.
fn atlas_csv(cells: &[Cell]) -> String {
    let mut csv = Csv::new(&[
        "gi",
        "gd",
        "case",
        "baseline",
        "theorem1",
        "case_criterion",
        "exact",
        "fluid_drops",
    ]);
    for c in cells {
        csv.row(&[
            c.gi,
            c.gd,
            f64::from(c.case_no),
            f64::from(u8::from(c.baseline)),
            f64::from(u8::from(c.theorem1)),
            f64::from(u8::from(c.case_criterion)),
            f64::from(u8::from(c.exact)),
            f64::from(u8::from(c.fluid_drops)),
        ]);
    }
    csv.to_string()
}

/// Best-of-`reps` wall time of one atlas at a pinned thread count.
fn time_atlas(base: &BcnParams, grid: usize, threads: usize, reps: usize) -> (f64, Vec<Cell>) {
    parkit::set_threads(threads);
    let mut best = f64::INFINITY;
    let mut cells = Vec::new();
    for _ in 0..reps {
        let t0 = Instant::now();
        cells = compute_atlas(base, grid);
        best = best.min(t0.elapsed().as_secs_f64());
    }
    parkit::set_threads(0);
    (best, cells)
}

fn main() {
    let grid = env_usize("DCE_BCN_SWEEP_GRID", 64);
    let reps = env_usize("DCE_BCN_SWEEP_REPS", 3);
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    let base = BcnParams::test_defaults().with_buffer(1.5e5);

    println!("atlas sweep scaling: {grid}x{grid} grid, best of {reps}, {cores} core(s)");
    if cores < 4 {
        println!("note: fewer than 4 cores — parallel speedup is bounded by the hardware;");
        println!("      the equivalence checks below are still exact.");
    }

    // Warm up caches/allocator off the record.
    let _ = compute_atlas(&base, 4);

    let mut times = Vec::new();
    let mut csvs = Vec::new();
    for &threads in &THREAD_COUNTS {
        let (secs, cells) = time_atlas(&base, grid, threads, reps);
        println!("  threads = {threads}: {:.3} s", secs);
        times.push(secs);
        csvs.push(atlas_csv(&cells));
    }
    let serial = times[0];
    let cells = (grid * grid) as f64;
    println!("speedups vs 1 thread (per-cell serial cost {:.0} ns):", serial * 1e9 / cells);
    for (&threads, &t) in THREAD_COUNTS.iter().zip(&times) {
        println!("  threads = {threads}: {:.2}x ({:.0} ns/cell)", serial / t, t * 1e9 / cells);
    }

    let csv_identical = csvs.iter().all(|c| c == &csvs[0]);
    if csv_identical {
        println!("CSV byte-equivalence: identical at every thread count ✓");
    } else {
        eprintln!("FAIL: atlas CSV differs across thread counts — determinism contract broken");
    }

    // Hand-rolled JSON (the workspace has no serde): flat and stable.
    let times_json: Vec<String> = THREAD_COUNTS
        .iter()
        .zip(&times)
        .map(|(th, t)| {
            format!(
                "{{\"threads\": {th}, \"secs\": {t:.6}, \"per_cell_ns\": {:.1}, \
                 \"speedup\": {:.4}}}",
                t * 1e9 / cells,
                serial / t
            )
        })
        .collect();
    let note = "Earlier committed artifacts came from the CI smoke (grid 8, reps 1), where \
                per-cell serial cost dominated and the speedup column sat flat at ~1.0x \
                regardless of thread count; the smoke now writes to a scratch directory and \
                this file records the full default grid with per-cell times. On single-core \
                hardware (see \\\"cores\\\") flat speedup is expected from the hardware, not \
                the engine.";
    let json = format!(
        "{{\n  \"grid\": {grid},\n  \"reps\": {reps},\n  \"cores\": {cores},\n  \
         \"runs\": [{}],\n  \"csv_identical\": {csv_identical},\n  \
         \"note\": \"{note}\"\n}}\n",
        times_json.join(", ")
    );
    let out = out_dir();
    let path = out.join("BENCH_sweeps.json");
    if let Err(e) = std::fs::write(&path, json) {
        eprintln!("FAIL: could not write {}: {e}", path.display());
        std::process::exit(1);
    }
    println!("wrote {}", path.display());

    if !csv_identical {
        std::process::exit(1);
    }
}
