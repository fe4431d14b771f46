//! Fig. 7 — the limit cycle: sustained, amplitude-preserving queue/rate
//! oscillation that linear analysis cannot explain.
//!
//! In the linearised model the round map is `P(s) = rho s`; the
//! limit-cycle condition `rho = 1` is reached exactly on the undamped
//! boundary `w -> 0` (no queue-derivative feedback). The generator:
//!
//! 1. shows `rho(w)` approaching 1 as `w` shrinks,
//! 2. integrates the (near-)undamped system to exhibit the closed orbit
//!    and the periodic `q(t)` of the paper's Fig. 7, and
//! 3. probes the full **nonlinear** decrease law with a Poincaré return
//!    map, reporting the amplitude-dependent ratio (the mechanism that
//!    can pin isolated cycles once physical nonlinearities enter).

use std::path::Path;

use bcn::limit_cycle::{distance_to_limit_cycle, nonlinear_round_ratio};
use bcn::rounds::round_ratio;
use bcn::{BcnFluid, BcnParams};
use plotkit::svg::COLOR_CYCLE;
use plotkit::{Csv, Series, SvgPlot, Table};

use crate::common::{banner, phase_plot, save_plot, trace};
use crate::ExpResult;

/// Runs the generator; artifacts land under `out`.
///
/// # Errors
///
/// Propagates I/O failures while writing artifacts.
pub fn run(out: &Path) -> ExpResult {
    banner("Fig. 7: limit-cycle motion");
    let base = BcnParams::test_defaults();

    // 1. rho(w): the route to the limit cycle.
    let mut table = Table::new(&["w", "round ratio rho", "|rho - 1|"]);
    let mut ws = Vec::new();
    let mut rhos = Vec::new();
    for exp in 0..=8 {
        let w = 4.0 / f64::powi(4.0, exp);
        let p = base.clone().with_w(w);
        let rho = round_ratio(&p).expect("case 1");
        table.row_f64(&[w, rho, distance_to_limit_cycle(&p).unwrap()]);
        ws.push(w);
        rhos.push(rho);
    }
    print!("{table}");
    let rho_plot = SvgPlot::new("Fig. 7 aux: rho(w) -> 1 as w -> 0", "w", "round ratio rho")
        .with_series(Series::scatter("rho", &ws, &rhos, COLOR_CYCLE[0]))
        .with_hline(1.0, "#d62728");
    save_plot(&rho_plot, out, "fig07_rho_vs_w.svg")?;

    // 2. The (near-)undamped orbit: closed trajectory + periodic q(t).
    let cyc = base.clone().with_w(1e-9);
    let sys = BcnFluid::linearized(cyc.clone());
    let beta_i = cyc.a().sqrt();
    let beta_d = (cyc.b() * cyc.capacity).sqrt();
    let round_time = std::f64::consts::PI * (1.0 / beta_i + 1.0 / beta_d);
    let tr = trace(&sys, cyc.initial_point(), 5.0 * round_time, 4000);
    println!(
        "undamped orbit: {} switches over {:.3} s; |x| range [{:.1}, {:.1}]",
        tr.switches,
        5.0 * round_time,
        tr.xs.iter().copied().fold(f64::INFINITY, f64::min),
        tr.xs.iter().copied().fold(f64::NEG_INFINITY, f64::max),
    );
    let mut csv = Csv::new(&["t", "x", "y"]);
    for i in 0..tr.ts.len() {
        csv.row(&[tr.ts[i], tr.xs[i], tr.ys[i]]);
    }
    csv.save(out.join("fig07_limit_cycle.csv"))?;
    println!("wrote {}", out.join("fig07_limit_cycle.csv").display());

    let plot_a = phase_plot(
        "Fig. 7a: limit-cycle orbit (w -> 0)",
        &cyc,
        vec![Series::line("closed orbit", &tr.xs, &tr.ys, COLOR_CYCLE[0])],
    );
    save_plot(&plot_a, out, "fig07a_orbit.svg")?;
    let plot_b = SvgPlot::new("Fig. 7b: periodic queue oscillation", "t (s)", "x (bits)")
        .with_series(Series::line("x(t)", &tr.ts, &tr.xs, COLOR_CYCLE[1]))
        .with_hline(0.0, "#999999");
    save_plot(&plot_b, out, "fig07b_queue.svg")?;

    // 3. Nonlinear decrease law: amplitude-dependent ratio.
    let nl = BcnFluid::new(base.clone());
    let mut amp_table = Table::new(&["amplitude s / q0", "nonlinear P(s)/s", "linearized rho"]);
    let rho_lin = round_ratio(&base).unwrap();
    for frac in [0.05, 0.2, 0.5, 1.0] {
        let s = -frac * base.q0;
        match nonlinear_round_ratio(&nl, s) {
            Ok(rho_nl) => amp_table.row_f64(&[frac, rho_nl, rho_lin]),
            Err(e) => println!("nonlinear ratio at {frac} q0 failed: {e}"),
        }
    }
    print!("{amp_table}");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generator_runs_and_writes_artifacts() {
        let dir = std::env::temp_dir().join("fig07_test");
        let _ = std::fs::remove_dir_all(&dir);
        run(&dir).unwrap();
        for f in ["fig07_rho_vs_w.svg", "fig07a_orbit.svg", "fig07b_queue.svg"] {
            assert!(dir.join(f).exists(), "{f}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
