//! Fig. 4 — logarithmic-spiral phase trajectories (`m^2 - 4n < 0`) with
//! the local extrema `max_x^s` / `min_x^s` marked.
//!
//! Reproduces the paper's two representative branches: one starting with
//! `y(0) > 0` (whose first extremum is a maximum, Eq. 19) and one with
//! `y(0) < 0` (first extremum a minimum, Eq. 20). The generator also
//! cross-checks the printed extremum formulas against the matrix
//! exponential flow and reports the agreement.

use std::path::Path;

use bcn::closed_form::{RegionFlow, Spectrum};
use bcn::extrema::{spiral_extremum, spiral_extremum_paper};
use bcn::model::Region;
use bcn::{BcnFluid, BcnParams};
use plotkit::svg::COLOR_CYCLE;
use plotkit::{Csv, Series, SvgPlot, Table};

use crate::common::{banner, save_plot};
use crate::ExpResult;

/// Runs the generator; artifacts land under `out`.
///
/// # Errors
///
/// Propagates I/O failures while writing artifacts.
pub fn run(out: &Path) -> ExpResult {
    banner("Fig. 4: logarithmic-spiral trajectories and their extrema");
    let params = BcnParams::test_defaults();
    let sys = BcnFluid::linearized(params.clone());
    let flow = RegionFlow::from_kn(params.k(), sys.region_n(Region::Increase));
    let Spectrum::Focus { alpha, beta } = flow.spectrum() else {
        return Err("increase region is not spiral-shaped".into());
    };
    println!("increase-region spectrum: alpha = {alpha:.4}, beta = {beta:.4}");

    // The paper's two branches: y(0) < 0 (min first) and y(0) > 0 (max
    // first), mirroring Fig. 4's (x1, y1) and (x2, y2).
    let starts = [
        ("start y(0) < 0", [0.6 * params.q0, -0.15 * params.capacity]),
        ("start y(0) > 0", [-0.8 * params.q0, 0.12 * params.capacity]),
    ];

    let mut plot =
        SvgPlot::new("Fig. 4: spiral trajectories (m^2 - 4n < 0)", "x (bits)", "y (bit/s)");
    let mut csv = Csv::new(&["trajectory", "t", "x", "y"]);
    let mut table =
        Table::new(&["start", "t* (robust)", "t* (Eq.18)", "x* (robust)", "x* (Eq.19/20)"]);

    for (idx, (label, z0)) in starts.iter().enumerate() {
        let span = 3.0 * std::f64::consts::TAU / beta;
        let n = 1200;
        let mut xs = Vec::with_capacity(n);
        let mut ys = Vec::with_capacity(n);
        for i in 0..n {
            let t = span * i as f64 / (n - 1) as f64;
            let z = flow.at(t, *z0);
            xs.push(z[0]);
            ys.push(z[1]);
            csv.row(&[idx as f64, t, z[0], z[1]]);
        }
        plot = plot.with_series(Series::line(label, &xs, &ys, COLOR_CYCLE[idx]));

        let robust = spiral_extremum(alpha, beta, *z0).expect("spiral extremum");
        let paper = spiral_extremum_paper(alpha, beta, *z0).expect("paper formula");
        plot = plot.with_series(Series::scatter(
            &format!("extremum of {label}"),
            &[robust.x],
            &[0.0],
            COLOR_CYCLE[idx + 4],
        ));
        table.row_f64(&[z0[0], robust.t, paper.t, robust.x, paper.x]);
    }
    print!("{table}");

    csv.save(out.join("fig04_spiral.csv"))?;
    println!("wrote {}", out.join("fig04_spiral.csv").display());
    save_plot(&plot, out, "fig04_spiral.svg")?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generator_runs_and_writes_artifacts() {
        let dir = std::env::temp_dir().join("fig04_test");
        let _ = std::fs::remove_dir_all(&dir);
        run(&dir).unwrap();
        assert!(dir.join("fig04_spiral.svg").exists());
        assert!(dir.join("fig04_spiral.csv").exists());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
