//! Propagation-delay ablation (paper Section III-A assumption).
//!
//! The paper argues the data-center propagation delay (microseconds) is
//! negligible against queueing delays. This experiment quantifies when
//! that breaks: the feedback delay `tau` is swept from zero to a loop
//! period, measuring the overshoot inflation and the point where the
//! queue stops contracting — the boundary of the zero-delay model's
//! validity. The finding worth reporting: because the default loop is
//! *lightly damped*, delays far below the oscillation period already
//! erase the contraction over long horizons, even though the first-round
//! overshoot (and hence the strong-stability criterion) moves very
//! little.

use std::path::Path;

use bcn::delay::DelayedBcn;
use bcn::rounds::first_round;
use bcn::BcnParams;
use plotkit::svg::COLOR_CYCLE;
use plotkit::{Csv, Series, SvgPlot, Table};

use crate::common::{banner, save_plot};
use crate::ExpResult;

/// Runs the experiment; artifacts land under `out`.
///
/// # Errors
///
/// Propagates I/O failures while writing artifacts.
pub fn run(out: &Path) -> ExpResult {
    banner("Propagation-delay ablation");
    let params = BcnParams::test_defaults();
    let fr = first_round(&params).expect("case 1");
    let period = std::f64::consts::TAU / params.a().sqrt();
    println!(
        "loop period (increase region): {period:.5} s; zero-delay max_1(x) = {:.1} bits",
        fr.max1_x
    );

    let fracs = [0.0, 0.002, 0.01, 0.05, 0.1, 0.2, 0.35, 0.5];
    let mut table = Table::new(&[
        "tau / period",
        "tau (s)",
        "max x (bits)",
        "inflation %",
        "still contracting",
    ]);
    let mut csv = Csv::new(&["tau", "max_x", "contracting"]);
    let mut taus = Vec::new();
    let mut maxes = Vec::new();
    for frac in fracs {
        let tau = frac * period;
        let dt_base = 0.002 / params.a().sqrt();
        let dt = if tau > 0.0 { dt_base.min(tau / 8.0) } else { dt_base };
        let run =
            DelayedBcn::new(params.clone(), tau).linearized().run(params.initial_point(), 3.0, dt);
        // Once the loop diverges the raw supremum is astronomically
        // large; cap reporting at 100x the buffer ("diverged").
        let cap = 100.0 * params.buffer;
        let diverged = run.max_x > cap;
        let shown = run.max_x.min(cap);
        table.row(&[
            format!("{frac:.3}"),
            format!("{tau:.6}"),
            if diverged { format!(">{cap:.1e} (diverged)") } else { format!("{shown:.1}") },
            if diverged { "-".into() } else { format!("{:.1}", (shown / fr.max1_x - 1.0) * 100.0) },
            run.contracting.to_string(),
        ]);
        csv.row(&[tau, shown, f64::from(u8::from(run.contracting))]);
        taus.push(tau);
        maxes.push(shown);
    }
    print!("{table}");

    csv.save(out.join("exp_delay_ablation.csv"))?;
    println!("wrote {}", out.join("exp_delay_ablation.csv").display());
    let plot = SvgPlot::new("Overshoot vs feedback delay", "tau (s)", "max x (bits)")
        .with_series(Series::line("max x", &taus, &maxes, COLOR_CYCLE[0]))
        .with_hline(fr.max1_x, "#999999")
        .with_hline(params.buffer - params.q0, "#d62728");
    save_plot(&plot, out, "exp_delay_ablation.svg")?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generator_runs_and_writes_artifacts() {
        let dir = std::env::temp_dir().join("delay_test");
        let _ = std::fs::remove_dir_all(&dir);
        run(&dir).unwrap();
        assert!(dir.join("exp_delay_ablation.csv").exists());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
