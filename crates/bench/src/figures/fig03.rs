//! Fig. 3 — taxonomy of phase trajectories against strong stability.
//!
//! The paper's Fig. 3 sketches nine qualitative trajectory classes
//! (l1–l9) and argues which are *strongly* stable (queue stays strictly
//! inside `(0, B)`). This generator produces concrete representatives of
//! the realizable classes from actual parameterisations:
//!
//! * a contracting Case-1 spiral that stays inside the walls (the
//!   strongly stable l6);
//! * a contracting spiral whose transient *escapes* the walls — stable in
//!   the classical sense, not strongly stable (l3/l4: the buffer pins the
//!   physical queue, dropping packets);
//! * the limit-cycle pair (l5/l7) at the undamped `w -> 0` boundary;
//! * node-shaped monotone approaches (l8/l9, Cases 3/4).

use std::path::Path;

use bcn::cases::{classify_params, exemplar};
use bcn::simulate::SaturatingFluid;
use bcn::stability::{criterion, exact_verdict};
use bcn::{BcnFluid, BcnParams, CaseId};
use plotkit::svg::COLOR_CYCLE;
use plotkit::{Series, Table};

use crate::common::{banner, phase_plot, save_plot, trace};
use crate::ExpResult;

/// Runs the generator; artifacts land under `out`.
///
/// # Errors
///
/// Propagates I/O failures while writing artifacts.
pub fn run(out: &Path) -> ExpResult {
    banner("Fig. 3: trajectory taxonomy vs strong stability");
    let base = BcnParams::test_defaults();

    // Class representatives: (label, params, horizon seconds).
    let tight_buffer = {
        let fr = bcn::rounds::first_round(&base).expect("case 1");
        base.q0 + 0.45 * fr.max1_x
    };
    let reps: Vec<(&str, BcnParams, f64)> = vec![
        ("l6: strongly stable spiral", base.clone(), 1.2),
        ("l3/l4: overshoot hits the walls", base.clone().with_buffer(tight_buffer), 1.2),
        ("l5/l7: limit cycle (w -> 0)", base.clone().with_w(1e-9), 1.2),
        ("l8/l9: node approach (case 4)", exemplar(&base, CaseId::Case4), 4.0),
    ];

    let mut table = Table::new(&[
        "class",
        "case",
        "criterion verdict",
        "exact strongly stable",
        "fluid drops (bits)",
    ]);
    let mut series = Vec::new();
    for (i, (label, params, horizon)) in reps.iter().enumerate() {
        let sys = BcnFluid::linearized(params.clone());
        let tr = trace(&sys, params.initial_point(), *horizon, 1500);
        series.push(Series::line(label, &tr.xs, &tr.ys, COLOR_CYCLE[i]));

        let verdict = criterion(params);
        let exact = exact_verdict(params, 40);
        let drops =
            SaturatingFluid::linearized(params.clone()).run_canonical(*horizon).dropped_bits;
        table.row(&[
            (*label).to_string(),
            classify_params(params).case.to_string(),
            if verdict.is_guaranteed() {
                "strongly stable".into()
            } else {
                "not guaranteed".into()
            },
            exact.strongly_stable.to_string(),
            format!("{drops:.0}"),
        ]);
    }
    print!("{table}");

    let plot = phase_plot("Fig. 3: phase-trajectory taxonomy", &base, series);
    save_plot(&plot, out, "fig03_taxonomy.svg")?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generator_runs_and_writes_artifacts() {
        let dir = std::env::temp_dir().join("fig03_test");
        let _ = std::fs::remove_dir_all(&dir);
        run(&dir).unwrap();
        assert!(dir.join("fig03_taxonomy.svg").exists());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
