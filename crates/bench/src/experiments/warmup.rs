//! Start-up experiment: the warm-up duration `T0 = (C - N mu)/(a q0)`
//! and the paper's closing `q0` trade-off — a small reference point helps
//! strong stability (Theorem 1's requirement shrinks linearly in `q0`)
//! but prolongs the start-up (`T0 ~ 1/q0`).

use std::path::Path;

use bcn::simulate::SaturatingFluid;
use bcn::stability::theorem1_required_buffer;
use bcn::warmup::warmup_duration;
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
    banner("Warm-up duration and the q0 trade-off");
    let params = BcnParams::test_defaults();

    // 1. Formula vs simulation across initial rates. Each fraction's
    // saturating-fluid run is independent — fan them out and render the
    // table from the ordered results.
    let mut table =
        Table::new(&["mu / fair share", "T0 formula (s)", "T0 simulated (s)", "error %"]);
    let mut csv = Csv::new(&["mu_fraction", "t0_formula", "t0_simulated"]);
    let fracs = [0.0, 0.25, 0.5, 0.75, 0.9];
    let runs = parkit::par_map(&fracs, |&frac| {
        let mu = frac * params.fair_share();
        let t0 = warmup_duration(&params, mu)?;
        // Simulate: time for the aggregate rate to reach capacity.
        let sim = SaturatingFluid::new(params.clone());
        let run = sim.run(0.0, mu * f64::from(params.n_flows), 1.5 * t0, t0 / 20_000.0, 10);
        let t0_sim = run
            .times
            .iter()
            .zip(&run.rate)
            .find(|(_, r)| **r >= params.capacity)
            .map_or(f64::NAN, |(t, _)| *t);
        Ok::<_, bcn::BcnError>((frac, t0, t0_sim))
    });
    for r in runs {
        let (frac, t0, t0_sim) = r?;
        table.row_f64(&[frac, t0, t0_sim, (t0_sim / t0 - 1.0).abs() * 100.0]);
        csv.row(&[frac, t0, t0_sim]);
    }
    print!("{table}");

    // 2. The q0 trade-off: T0 and the Theorem-1 buffer requirement.
    let mut trade = Table::new(&["q0 (bits)", "T0 cold start (s)", "required buffer (bits)"]);
    let mut q0s = Vec::new();
    let mut t0s = Vec::new();
    let mut reqs = Vec::new();
    let mults = [0.25, 0.5, 1.0, 2.0, 3.0];
    let points = parkit::par_map(&mults, |&mult| {
        let q0 = mult * params.q0;
        let p = params.clone().with_q0(q0);
        Ok::<_, bcn::BcnError>((q0, warmup_duration(&p, 0.0)?, theorem1_required_buffer(&p)))
    });
    for point in points {
        let (q0, t0, req) = point?;
        trade.row_f64(&[q0, t0, req]);
        q0s.push(q0);
        t0s.push(t0);
        reqs.push(req);
    }
    print!("{trade}");
    csv.save(out.join("exp_warmup.csv"))?;
    println!("wrote {}", out.join("exp_warmup.csv").display());

    // Normalise both curves for one plot.
    let t0_max = t0s.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let req_max = reqs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let t0n: Vec<f64> = t0s.iter().map(|v| v / t0_max).collect();
    let reqn: Vec<f64> = reqs.iter().map(|v| v / req_max).collect();
    let plot = SvgPlot::new(
        "q0 trade-off: start-up time vs buffer requirement (normalised)",
        "q0 (bits)",
        "normalised",
    )
    .with_series(Series::line("T0 (start-up)", &q0s, &t0n, COLOR_CYCLE[0]))
    .with_series(Series::line("required buffer", &q0s, &reqn, COLOR_CYCLE[1]));
    save_plot(&plot, out, "exp_warmup_tradeoff.svg")?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generator_runs_and_writes_artifacts() {
        let dir = std::env::temp_dir().join("warmup_test");
        let _ = std::fs::remove_dir_all(&dir);
        run(&dir).unwrap();
        assert!(dir.join("exp_warmup.csv").exists());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
