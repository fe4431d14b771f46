//! `w` and `pm` ablation (paper Section IV-C remark): the control
//! parameters `w` and `pm` do **not** appear in Theorem 1 — they cannot
//! make or break strong stability — but they set the switching-line slope
//! `k = w/(pm C)` and with it the damping, i.e. the convergence speed and
//! the distance to the limit-cycle boundary.

use std::path::Path;

use bcn::rounds::{first_round, round_ratio, steady_leg_duration};
use bcn::stability::theorem1_required_buffer;
use bcn::{BcnParams, Region};
use plotkit::svg::COLOR_CYCLE;
use plotkit::{Csv, Series, SvgPlot, Table};

use crate::common::{banner, save_plot};
use crate::ExpResult;

/// Estimated 95%-settling time: rounds needed for the amplitude to decay
/// below 5%, times the round duration.
fn settling_time(params: &BcnParams) -> Option<f64> {
    let rho = round_ratio(params)?;
    if rho >= 1.0 {
        return None;
    }
    let rounds = (0.05_f64).ln() / rho.ln();
    let t_round = steady_leg_duration(params, Region::Increase)?
        + steady_leg_duration(params, Region::Decrease)?;
    Some(rounds * t_round)
}

/// Runs the experiment; artifacts land under `out`.
///
/// # Errors
///
/// Propagates I/O failures while writing artifacts.
pub fn run(out: &Path) -> ExpResult {
    banner("w / pm ablation: transients change, the stability bound does not");
    let base = BcnParams::test_defaults();
    let req_base = theorem1_required_buffer(&base);

    let mut table = Table::new(&[
        "sweep",
        "value",
        "rho (round ratio)",
        "settling time (s)",
        "max_1(x) (bits)",
        "Theorem-1 buffer (bits)",
    ]);
    let mut csv = Csv::new(&["sweep", "value", "rho", "settling", "max1", "thm1_buffer"]);

    // Both sweeps evaluate independent parameterisations; measure the
    // points in parallel, then render the rows in sweep order.
    let w_mults = [0.25, 0.5, 1.0, 2.0, 4.0, 8.0];
    let w_points = parkit::par_map(&w_mults, |&mult| measure(&base.clone().with_w(mult * base.w)));
    let mut w_vals = Vec::new();
    let mut w_settle = Vec::new();
    for (mult, m) in w_mults.iter().zip(&w_points) {
        record(&mut table, &mut csv, "w", mult * base.w, m);
        if let Some(s) = m.settle {
            w_vals.push(mult * base.w);
            w_settle.push(s);
        }
        // The invariant the paper states: the Theorem-1 bound is w-free.
        assert!((m.req - req_base).abs() < 1e-9 * req_base);
    }
    let pm_mults = [0.25, 0.5, 1.0, 2.0, 4.0];
    let pm_points = parkit::par_map(&pm_mults, |&mult| {
        measure(&base.clone().with_pm((mult * base.pm).min(1.0)))
    });
    let mut pm_vals = Vec::new();
    let mut pm_settle = Vec::new();
    for (mult, m) in pm_mults.iter().zip(&pm_points) {
        let pm = (mult * base.pm).min(1.0);
        record(&mut table, &mut csv, "pm", pm, m);
        if let Some(s) = m.settle {
            pm_vals.push(pm);
            pm_settle.push(s);
        }
        assert!((m.req - req_base).abs() < 1e-9 * req_base);
    }
    print!("{table}");
    println!("Theorem-1 requirement constant at {req_base:.3e} bits across both sweeps ✓");

    csv.save(out.join("exp_w_pm_transients.csv"))?;
    println!("wrote {}", out.join("exp_w_pm_transients.csv").display());

    let plot = SvgPlot::new("Settling time vs w (pm fixed)", "w", "settling time (s)")
        .with_series(Series::line("settling", &w_vals, &w_settle, COLOR_CYCLE[0]));
    save_plot(&plot, out, "exp_settling_vs_w.svg")?;
    let plot = SvgPlot::new("Settling time vs pm (w fixed)", "pm", "settling time (s)")
        .with_series(Series::line("settling", &pm_vals, &pm_settle, COLOR_CYCLE[1]));
    save_plot(&plot, out, "exp_settling_vs_pm.svg")?;
    Ok(())
}

/// One sweep point's transient metrics, computed off-thread.
struct Point {
    rho: Option<f64>,
    settle: Option<f64>,
    max1: Option<f64>,
    req: f64,
}

fn measure(p: &BcnParams) -> Point {
    Point {
        rho: round_ratio(p),
        settle: settling_time(p),
        max1: first_round(p).map(|fr| fr.max1_x),
        req: theorem1_required_buffer(p),
    }
}

fn record(table: &mut Table, csv: &mut Csv, sweep: &str, value: f64, m: &Point) {
    let rho = m.rho.unwrap_or(f64::NAN);
    let settle = m.settle.unwrap_or(f64::NAN);
    let max1 = m.max1.unwrap_or(f64::NAN);
    table.row(&[
        sweep.to_string(),
        format!("{value:.4}"),
        format!("{rho:.6}"),
        format!("{settle:.4}"),
        format!("{max1:.1}"),
        format!("{:.4e}", m.req),
    ]);
    let sweep_id = if sweep == "w" { 0.0 } else { 1.0 };
    csv.row(&[sweep_id, value, rho, settle, max1, m.req]);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn settling_time_shrinks_with_more_damping() {
        let base = BcnParams::test_defaults();
        let slow = settling_time(&base.clone().with_w(0.5)).unwrap();
        let fast = settling_time(&base.clone().with_w(8.0)).unwrap();
        assert!(fast < slow, "fast {fast} vs slow {slow}");
    }

    #[test]
    fn generator_runs_and_writes_artifacts() {
        let dir = std::env::temp_dir().join("wpm_test");
        let _ = std::fs::remove_dir_all(&dir);
        run(&dir).unwrap();
        assert!(dir.join("exp_w_pm_transients.csv").exists());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
