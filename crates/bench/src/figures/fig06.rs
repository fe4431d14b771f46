//! Fig. 6 — Case 1 dynamics: (a) the switched phase trajectory, (b) the
//! queue-deviation time series `x(t)`, (c) the rate-deviation series
//! `y(t)`; plus the per-round table (`T_i^k`, `T_d^k`, extrema) and the
//! contraction ratio.

use std::path::Path;

use bcn::cases::classify_params;
use bcn::model::Region;
use bcn::rounds::{
    first_round, round_ratio, round_ratio_analytic, steady_leg_duration, trace_legs,
};
use bcn::{BcnFluid, BcnParams, CaseId};
use plotkit::svg::COLOR_CYCLE;
use plotkit::{Csv, Series, SvgPlot, Table};

use crate::common::{banner, phase_plot, save_plot, trace};
use crate::ExpResult;

/// Runs the generator; artifacts land under `out`.
///
/// # Errors
///
/// Propagates I/O failures while writing artifacts, or reports a
/// misclassified parameter set.
pub fn run(out: &Path) -> ExpResult {
    banner("Fig. 6: Case 1 (spiral/spiral) round dynamics");
    let params = BcnParams::test_defaults().with_buffer(2.0e5);
    if classify_params(&params).case != CaseId::Case1 {
        return Err("expected a Case 1 parameter set".into());
    }

    // Round table from the exact leg analysis.
    let legs = trace_legs(&params, params.initial_point(), 8);
    let mut table =
        Table::new(&["leg", "region", "duration (s)", "extremum x (bits)", "exit y (bit/s)"]);
    for (i, leg) in legs.iter().enumerate() {
        table.row(&[
            format!("{}", i + 1),
            format!("{:?}", leg.region),
            leg.duration.map_or("-".into(), |d| format!("{d:.5}")),
            leg.extremum.map_or("-".into(), |e| format!("{:.1}", e.x)),
            leg.end.map_or("-".into(), |e| format!("{:.1}", e[1])),
        ]);
    }
    print!("{table}");

    let fr = first_round(&params).expect("case 1 first round");
    println!(
        "T_i^1 = {:.5} s, T_d^1 = {:.5} s (steady legs: Ti = {:.5}, Td = {:.5})",
        fr.t_i1,
        fr.t_d1,
        steady_leg_duration(&params, Region::Increase).unwrap(),
        steady_leg_duration(&params, Region::Decrease).unwrap(),
    );
    println!(
        "max_1(x) = {:.1} bits, min_1(x) = {:.1} bits (walls at {:.1} / {:.1})",
        fr.max1_x,
        fr.min1_x,
        params.buffer - params.q0,
        -params.q0
    );
    let rho = round_ratio(&params).expect("case-1 round ratio");
    println!(
        "round ratio rho = {rho:.6} (analytic {:.6}): amplitude shrinks {:.1}% per round",
        round_ratio_analytic(&params).unwrap(),
        (1.0 - rho) * 100.0
    );

    // Traced switched trajectory for the three panels.
    let sys = BcnFluid::linearized(params.clone());
    let horizon = 4.0 * (fr.t_i1 + fr.t_d1);
    let tr = trace(&sys, params.initial_point(), horizon, 3000);

    let mut csv = Csv::new(&["t", "x", "y"]);
    for i in 0..tr.ts.len() {
        csv.row(&[tr.ts[i], tr.xs[i], tr.ys[i]]);
    }
    csv.save(out.join("fig06_case1.csv"))?;
    println!("wrote {}", out.join("fig06_case1.csv").display());

    let plot_a = phase_plot(
        "Fig. 6a: Case 1 phase trajectory",
        &params,
        vec![Series::line("trajectory", &tr.xs, &tr.ys, COLOR_CYCLE[0])],
    );
    save_plot(&plot_a, out, "fig06a_phase.svg")?;

    let plot_b = SvgPlot::new("Fig. 6b: queue deviation x(t)", "t (s)", "x (bits)")
        .with_series(Series::line("x(t)", &tr.ts, &tr.xs, COLOR_CYCLE[0]))
        .with_hline(0.0, "#999999")
        .with_hline(fr.max1_x, "#d62728")
        .with_hline(fr.min1_x, "#d62728");
    save_plot(&plot_b, out, "fig06b_queue.svg")?;

    let plot_c = SvgPlot::new("Fig. 6c: rate deviation y(t)", "t (s)", "y (bit/s)")
        .with_series(Series::line("y(t)", &tr.ts, &tr.ys, COLOR_CYCLE[1]))
        .with_hline(0.0, "#999999");
    save_plot(&plot_c, out, "fig06c_rate.svg")?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generator_runs_and_writes_artifacts() {
        let dir = std::env::temp_dir().join("fig06_test");
        let _ = std::fs::remove_dir_all(&dir);
        run(&dir).unwrap();
        for f in ["fig06a_phase.svg", "fig06b_queue.svg", "fig06c_rate.svg", "fig06_case1.csv"] {
            assert!(dir.join(f).exists(), "{f}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
