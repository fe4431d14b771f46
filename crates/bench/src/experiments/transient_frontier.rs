//! Transient-performance frontier — the paper's Section V future work,
//! executed: the overshoot/settling trade surface over the tuning knobs,
//! and the inverse design questions an operator actually asks.

use std::path::Path;

use bcn::transient::{analyze, max_gi_for_overshoot, w_frontier};
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
    banner("Transient-performance frontier (the paper's future work)");
    let params = BcnParams::test_defaults();

    // Baseline metrics.
    let m = analyze(&params);
    println!(
        "defaults: case = {}, overshoot = {:.1}% of q0, undershoot = {:.1}%, round = {:.4} s, rho = {:.4}, settle = {:.2} s",
        m.case,
        m.overshoot_ratio * 100.0,
        m.undershoot_ratio * 100.0,
        m.round_period.unwrap_or(f64::NAN),
        m.rho.unwrap_or(f64::NAN),
        m.settling_time.unwrap_or(f64::NAN),
    );

    // The w frontier: overshoot barely moves, settling moves 30x.
    let ws: Vec<f64> = (0..=14).map(|i| 0.25 * 1.5_f64.powi(i)).collect();
    let frontier = w_frontier(&params, &ws);
    let mut csv = Csv::new(&["w", "overshoot_ratio", "settling_time"]);
    let mut over = Vec::new();
    let mut settle = Vec::new();
    for (w, o, s) in &frontier {
        csv.row(&[*w, *o, s.unwrap_or(f64::NAN)]);
        if let Some(s) = s {
            over.push(*o);
            settle.push(*s);
        }
    }
    csv.save(out.join("exp_transient_frontier.csv"))?;
    println!("wrote {}", out.join("exp_transient_frontier.csv").display());

    let plot = SvgPlot::new(
        "Overshoot vs settling time as w sweeps (Case 1)",
        "settling time (s)",
        "overshoot / q0",
    )
    .with_series(Series::scatter("w sweep", &settle, &over, COLOR_CYCLE[0]));
    save_plot(&plot, out, "exp_transient_frontier.svg")?;

    // Inverse design: maximum Gi for a set of overshoot budgets. Each
    // budget runs its own bisection — independent, so fan them out.
    let budgets = [0.5, 1.0, 2.0, 4.0];
    let designs = parkit::par_map(&budgets, |&budget| {
        max_gi_for_overshoot(&params, budget, 1e-3, 100.0)
            .map(|gi| (gi, analyze(&params.clone().with_gi(gi)).settling_time))
    });
    let mut table = Table::new(&["overshoot budget (x q0)", "max Gi", "settling at that Gi (s)"]);
    for (budget, design) in budgets.iter().zip(&designs) {
        match design {
            Some((gi, settle)) => table.row(&[
                format!("{budget}"),
                format!("{gi:.4}"),
                format!("{:.3}", settle.unwrap_or(f64::NAN)),
            ]),
            None => table.row(&[format!("{budget}"), "unreachable".into(), "-".into()]),
        }
    }
    print!("{table}");
    println!("larger overshoot budgets buy faster ramping (larger Gi) — the dual of Theorem 1's buffer cost.");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generator_runs_and_writes_artifacts() {
        let dir = std::env::temp_dir().join("frontier_test");
        let _ = std::fs::remove_dir_all(&dir);
        run(&dir).unwrap();
        assert!(dir.join("exp_transient_frontier.csv").exists());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
