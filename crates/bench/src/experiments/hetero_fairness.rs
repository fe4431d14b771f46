//! Homogeneity-assumption ablation: the full `N+1`-dimensional fluid
//! model vs the paper's planar reduction, and AIMD fairness dynamics
//! under both feedback models.

use std::path::Path;

use bcn::hetero::{reduction_error, FeedbackModel, HeteroBcn};
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
    banner("Heterogeneous fluid model: homogeneity reduction and fairness");
    let params = BcnParams::test_defaults().with_buffer(3.0e5);
    let n = params.n_flows as usize;

    // 1. Exactness of the planar reduction with equal rates.
    let err = reduction_error(&params, 2.0);
    println!("planar-reduction max-queue error (equal initial rates): {:.4}%", err * 100.0);

    // 2. Fairness convergence from a skewed start under both models.
    let mut init = vec![0.02 * params.capacity / n as f64; n];
    init[0] = 0.8 * params.capacity;
    let mut plot = SvgPlot::new("Jain fairness over time from a skewed start", "t (s)", "fairness");
    let mut csv = Csv::new(&["model", "t", "fairness", "queue"]);
    let mut table =
        Table::new(&["feedback model", "fairness t=0", "fairness end", "max queue (bits)"]);
    for (i, (name, model)) in [
        ("uniform (paper Eq. 7)", FeedbackModel::Uniform),
        ("rate-proportional (protocol)", FeedbackModel::RateProportional),
    ]
    .into_iter()
    .enumerate()
    {
        let run = HeteroBcn::new(params.clone(), model).run_canonical(&init, 25.0);
        table.row(&[
            name.to_string(),
            format!("{:.3}", run.fairness[0]),
            format!("{:.3}", run.final_fairness()),
            format!("{:.3e}", run.max_queue),
        ]);
        for (j, t) in run.times.iter().enumerate() {
            csv.row(&[i as f64, *t, run.fairness[j], run.queue[j]]);
        }
        plot = plot.with_series(Series::line(name, &run.times, &run.fairness, COLOR_CYCLE[i]));
    }
    print!("{table}");
    println!(
        "both models converge to fairness; uniform feedback equalises through\n\
         the additive increase (Chiu-Jain), rate-proportional through the\n\
         decrease side (faster flows are sampled and throttled more often)."
    );

    csv.save(out.join("exp_hetero_fairness.csv"))?;
    println!("wrote {}", out.join("exp_hetero_fairness.csv").display());
    save_plot(&plot, out, "exp_hetero_fairness.svg")?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generator_runs_and_writes_artifacts() {
        let dir = std::env::temp_dir().join("hetero_test");
        let _ = std::fs::remove_dir_all(&dir);
        run(&dir).unwrap();
        assert!(dir.join("exp_hetero_fairness.svg").exists());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
