//! Offline telemetry-overhead check.
//!
//! A no-dependency timing check: it integrates the paper's worked
//! example repeatedly with (a) no telemetry argument, (b) an `Off` sink,
//! (c) a `Summary` sink, and (d) a `Full` sink, and reports median wall
//! times.
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
//! Set `DCE_BCN_QUICK=1` for the CI smoke variant (shorter horizon,
//! fewer repetitions; same gates).

use std::time::Instant;

use bcn::simulate::{fluid_trajectory_telemetry, Engine, FluidOptions};
use bcn::{BcnFluid, BcnParams};
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

fn best(samples: &[f64]) -> f64 {
    // The minimum is the robust estimator for "how fast can this code
    // go" — every slower sample is the same code plus scheduler or
    // clock noise.
    samples.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Median of a slice (destructive on order).
fn median(xs: &mut [f64]) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
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
    let quick = std::env::var("DCE_BCN_QUICK").is_ok_and(|v| v != "0" && !v.is_empty());
    let (t_end, reps) = if quick { (0.05, 15) } else { (0.1, 25) };

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
    let mut off_ratios = Vec::with_capacity(reps);
    let mut trace_ratios = Vec::with_capacity(reps);
    for _ in 0..reps {
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
    let [base, off, summary, full] = [&samples[0], &samples[1], &samples[2], &samples[3]];
    let [base_t, off_t, summary_t, full_t] = [best(base), best(off), best(summary), best(full)];

    let off_pct = (median(&mut off_ratios) - 1.0) * 100.0;
    let trace_pct = (median(&mut trace_ratios) - 1.0) * 100.0;
    let pct = |t: f64| (t / base_t - 1.0) * 100.0;
    let mode = if quick { " [quick]" } else { "" };
    println!("telemetry overhead on fluid_trajectory ({t_end} s horizon, median of {reps} A/B/B/A rounds){mode}:");
    println!("  none (baseline):  {:.3} ms", base_t * 1e3);
    println!("  level off:        {:.3} ms  ({:+.2}%)", off_t * 1e3, pct(off_t));
    println!("  level summary:    {:.3} ms  ({:+.2}%)", summary_t * 1e3, pct(summary_t));
    println!("  level full:       {:.3} ms  ({:+.2}%)", full_t * 1e3, pct(full_t));
    println!("  off vs none:       {off_pct:+.2}% (median A/B/B/A ratio)");
    println!("  full over summary: {trace_pct:+.2}% (median A/B/B/A ratio, trace-level budget)");

    let mut failed = false;
    if off_pct > 2.0 {
        telemetry::log_line!("FAIL: off-level overhead {off_pct:.2}% exceeds the 2% budget");
        failed = true;
    }
    if trace_pct > 10.0 {
        telemetry::log_line!(
            "FAIL: trace-level overhead {trace_pct:.2}% over summary exceeds the 10% budget"
        );
        failed = true;
    }
    if failed {
        std::process::exit(1);
    }
    println!("off within the 2% budget; trace level within 10% of summary");
}
