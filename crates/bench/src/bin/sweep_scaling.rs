//! Parallel-sweep scaling check for the atlas engine.
//!
//! Times [`compute_atlas`] at 1/2/4/8 worker threads and verifies the
//! rendered CSV is byte-identical at every width (the `parkit`
//! determinism contract). Results land in `BENCH_sweeps.json` under the
//! usual results directory, in the [`bench::harness`] schema.
//!
//! Speedup is hardware-bound: on an M-core machine the atlas cannot
//! scale past M, so the wall-clock table is informational — the run
//! only *fails* if the CSV equivalence breaks. Run release builds only:
//!
//! ```console
//! $ cargo run --release -p bench --bin sweep_scaling
//! ```
//!
//! `DCE_BCN_QUICK` shrinks the grid from 64x64 to 8x8 at one rep (CI
//! smoke mode — the CSV equivalence check still runs).

use bcn::BcnParams;
use bench::experiments::criterion_sweep::{compute_atlas, Cell};
use bench::harness::{self, sized, Bench, Bound, Row, THREAD_COUNTS};
use plotkit::Csv;

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

#[allow(clippy::cast_precision_loss)]
fn main() {
    let (grid, reps) = (sized(8, 64), sized(1, 3));
    let base = BcnParams::test_defaults().with_buffer(1.5e5);
    let cells = (grid * grid) as f64;
    let mut bench = Bench::new("sweeps", reps);
    println!("atlas sweep scaling: {grid}x{grid} grid, {reps} rep(s)");

    // Warm up caches/allocator off the record.
    let _ = compute_atlas(&base, 4);

    let mut csvs = Vec::new();
    let mut serial = f64::NAN;
    for threads in THREAD_COUNTS {
        let mut atlas = Vec::new();
        let secs = harness::at_width(threads, || {
            harness::time(reps, || atlas = compute_atlas(&base, grid))
        });
        if threads == 1 {
            serial = secs.min;
        }
        bench.row(
            Row::new(format!("threads_{threads}"))
                .with("cells", grid * grid)
                .with("secs", secs)
                .with("per_cell_ns", secs.min * 1e9 / cells)
                .with("speedup", serial / secs.min),
        );
        csvs.push(atlas_csv(&atlas));
    }
    bench.gate("csv_identical", csvs.iter().all(|c| c == &csvs[0]), Bound::AtLeast(1.0));
    bench.finish(
        "Speedup is best-of-reps serial time over best-of-reps time at each width; it is \
         bounded by the machine's cores (see machine.cores), so flat rows on a small machine \
         come from the hardware, not the engine. csv_identical is 1 when the rendered atlas \
         CSV is byte-identical at every width.",
    );
}
