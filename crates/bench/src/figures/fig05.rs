//! Fig. 5 — stable-node phase trajectories (`m^2 - 4n > 0`) with the
//! eigenline asymptotes `y = lambda_1 x` and `y = lambda_2 x`.
//!
//! Node-shaped regions arise when a gain exceeds its threshold
//! (`a > 4 pm^2 C^2 / w^2` for the increase region). Trajectories are
//! parabola-like (Eq. 21/26), approach the origin tangent to the *slow*
//! eigenline `y = lambda_2 x`, and the global extremum obeys Eq. 28.

use std::path::Path;

use bcn::cases::{exemplar, CaseId};
use bcn::closed_form::{NodeForm, RegionFlow, Spectrum};
use bcn::extrema::{node_extremum, node_extremum_paper};
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
    banner("Fig. 5: stable-node trajectories and eigenline asymptotes");
    // Case 2 places the node in the increase region.
    let params = exemplar(&BcnParams::test_defaults(), CaseId::Case2);
    let sys = BcnFluid::linearized(params.clone());
    let flow = RegionFlow::from_kn(params.k(), sys.region_n(Region::Increase));
    let Spectrum::Node { l1, l2 } = flow.spectrum() else {
        return Err("increase region is not node-shaped".into());
    };
    println!(
        "node eigenvalues: lambda1 = {l1:.4}, lambda2 = {l2:.4} (both < -1/k = {:.4})",
        -1.0 / params.k()
    );

    let q0 = params.q0;
    let starts = [
        ("start y(0) > 0", [-0.8 * q0, -l1 * 1.2 * q0]),
        ("start y(0) < 0", [0.7 * q0, l1 * 1.1 * q0]),
        ("between eigenlines", [0.9 * q0, 0.5 * (l1 + l2) * 0.9 * q0]),
    ];

    let mut plot =
        SvgPlot::new("Fig. 5: node trajectories (m^2 - 4n > 0)", "x (bits)", "y (bit/s)");
    let mut csv = Csv::new(&["trajectory", "t", "x", "y"]);
    let mut table = Table::new(&["x(0)", "y(0)", "x* robust", "x* Eq.28", "on eigenline"]);

    let span = 8.0 / l2.abs();
    for (idx, (label, z0)) in starts.iter().enumerate() {
        let n = 800;
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

        let nf = NodeForm::new(l1, l2, *z0);
        let (robust, paper) = match (node_extremum(l1, l2, *z0), node_extremum_paper(l1, l2, *z0)) {
            (Some(r), Some(p)) => (r.x, p.x),
            _ => (f64::NAN, f64::NAN),
        };
        table.row(&[
            format!("{:.1}", z0[0]),
            format!("{:.1}", z0[1]),
            format!("{robust:.2}"),
            format!("{paper:.2}"),
            nf.on_eigenline().to_string(),
        ]);
    }
    // Draw the eigenlines as asymptote references.
    let x_ref = [-q0, q0];
    for (l, name, color) in
        [(l1, "y = lambda1 x (fast)", "#aaaaaa"), (l2, "y = lambda2 x (slow)", "#666666")]
    {
        let ys: Vec<f64> = x_ref.iter().map(|x| l * x).collect();
        plot = plot.with_series(Series::line(name, &x_ref, &ys, color));
    }
    print!("{table}");

    csv.save(out.join("fig05_node.csv"))?;
    println!("wrote {}", out.join("fig05_node.csv").display());
    save_plot(&plot, out, "fig05_node.svg")?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generator_runs_and_writes_artifacts() {
        let dir = std::env::temp_dir().join("fig05_test");
        let _ = std::fs::remove_dir_all(&dir);
        run(&dir).unwrap();
        assert!(dir.join("fig05_node.svg").exists());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
