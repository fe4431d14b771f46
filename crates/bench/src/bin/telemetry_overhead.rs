//! Offline telemetry-overhead check.
//!
//! A no-dependency timing check: it integrates the paper's worked
//! example repeatedly with (a) no telemetry argument, (b) an `Off` sink,
//! (c) a `Summary` sink, and (d) a `Full` sink, and reports min, median
//! and max wall times in `BENCH_telemetry.json` under the usual results
//! directory, in the [`bench::harness`] schema.
//!
//! All four configurations are pinned to the Dopri5 engine: the default
//! dispatch hands uninstrumented linearized runs to the closed-form
//! analytic engine, which would make (a) vs (d) an engine comparison,
//! not a telemetry one. The contracts are:
//!
//! - `Off` stays within 2% of no-argument (the hooks must be free when
//!   disabled);
//! - `Full` stays within 10% of `Summary` (the documented budget for
//!   what trace-level recording — span begin/end records and the ring
//!   of per-step events — adds on top of the counters, histograms, and
//!   series that `Summary` already collects).
//!
//! The second budget is deliberately relative to `Summary`, not to the
//! baseline: a DOPRI5 step on the 2-D fluid model is ~150 ns of work,
//! so *any* per-step accounting is a double-digit fraction of it — the
//! per-op hook costs (~20-40 ns, see the scratch numbers in DESIGN §8)
//! are what the gate protects, not the ratio against an integrator with
//! no accounting at all.
//!
//! Run release builds only — debug timings are meaningless:
//!
//! ```console
//! $ cargo run --release -p bench --bin telemetry_overhead
//! ```
//!
//! Set `DCE_BCN_QUICK` for the CI smoke variant (shorter horizon, fewer
//! rounds; the same gates, enforced).

use std::time::Instant;

use bcn::simulate::{fluid_trajectory_telemetry, Engine, FluidOptions};
use bcn::{BcnFluid, BcnParams};
use bench::harness::{sized, Bench, Bound, Row, Timing};
use telemetry::{Telemetry, TelemetryLevel};

/// One timed integration with the requested sink (constructed outside
/// the timed region, as the CLI does).
fn one_run_secs(sys: &BcnFluid, p0: [f64; 2], t_end: f64, level: Option<TelemetryLevel>) -> f64 {
    let opts = FluidOptions::default().with_t_end(t_end).with_engine(Engine::Dopri5);
    let mut tel = level.map(Telemetry::new);
    let t0 = Instant::now();
    let run = fluid_trajectory_telemetry(sys, p0, &opts, tel.as_mut()).expect("fluid integration");
    let dt = t0.elapsed().as_secs_f64();
    assert!(!run.solution.is_empty(), "integration produced no samples");
    dt
}

/// One A/B/B/A round for a gated pair: runs `a, b, b, a` back to back
/// and returns `(sum_b / sum_a, a_samples, b_samples)`.
///
/// The mirrored order cancels both linear machine-speed drift within
/// the round and position effects (whatever state the preceding run
/// leaves behind lands on each configuration once) — on shared CI
/// boxes those biases are larger than the effect being measured, which
/// makes a min-over-all-rounds comparison between two configurations
/// flaky.
fn abba_round(
    sys: &BcnFluid,
    p0: [f64; 2],
    t_end: f64,
    a: Option<TelemetryLevel>,
    b: Option<TelemetryLevel>,
) -> (f64, [f64; 2], [f64; 2]) {
    let a1 = one_run_secs(sys, p0, t_end, a);
    let b1 = one_run_secs(sys, p0, t_end, b);
    let b2 = one_run_secs(sys, p0, t_end, b);
    let a2 = one_run_secs(sys, p0, t_end, a);
    ((b1 + b2) / (a1 + a2), [a1, a2], [b1, b2])
}

fn main() {
    let (t_end, rounds) = sized((0.05, 15), (0.1, 25));
    let mut bench = Bench::new("telemetry", rounds);

    let p = BcnParams::paper_defaults();
    let sys = BcnFluid::linearized(p.clone());
    let p0 = p.initial_point();

    // Warm up caches and the allocator before timing.
    for _ in 0..3 {
        let _ = one_run_secs(&sys, p0, t_end, None);
    }

    // Each gate compares exactly two configurations, so measure them as
    // paired A/B/B/A rounds and take the median per-round ratio.
    let mut samples: [Vec<f64>; 4] = Default::default();
    let mut off_ratios = Vec::with_capacity(rounds);
    let mut trace_ratios = Vec::with_capacity(rounds);
    for _ in 0..rounds {
        let (r, base_s, off_s) = abba_round(&sys, p0, t_end, None, Some(TelemetryLevel::Off));
        off_ratios.push(r);
        samples[0].extend(base_s);
        samples[1].extend(off_s);
        let (r, summary_s, full_s) =
            abba_round(&sys, p0, t_end, Some(TelemetryLevel::Summary), Some(TelemetryLevel::Full));
        trace_ratios.push(r);
        samples[2].extend(summary_s);
        samples[3].extend(full_s);
    }
    println!(
        "telemetry overhead on fluid_trajectory ({t_end} s horizon, {rounds} A/B/B/A rounds):"
    );
    for (name, secs) in ["none", "off", "summary", "full"].iter().zip(&mut samples) {
        bench.row(Row::new(*name).with("t_end", t_end).with("secs", Timing::of(secs)));
    }
    let off = Timing::of(&mut off_ratios);
    let trace = Timing::of(&mut trace_ratios);
    bench.row(Row::new("off_over_none").with("ratio", off));
    bench.row(Row::new("full_over_summary").with("ratio", trace));
    bench.gate("off_overhead_pct", (off.median - 1.0) * 100.0, Bound::AtMost(2.0));
    bench.gate("trace_overhead_pct", (trace.median - 1.0) * 100.0, Bound::AtMost(10.0));
    bench.finish(
        "All four configurations run the Dopri5 engine on the paper's worked example. The \
         gates read the median per-round ratio of paired A/B/B/A rounds: off over no \
         telemetry argument (at most +2%) and full over summary (at most +10%, the \
         trace-level budget). The per-level secs rows summarise every run of that level.",
    );
}
