//! Theorem 1 — the worked buffer-sizing example (the paper's only
//! "table") and the parameter sweeps behind its remarks.
//!
//! Reproduces Section IV-C's numbers: with `N = 50`, `C = 10 Gbit/s`,
//! `q0 = 2.5 Mbit`, `Gi = 4`, `Gd = 1/128`, `Ru = 8 Mbit/s` the strongly
//! stable buffer requirement is `(1 + sqrt(Ru Gi N/(Gd C))) q0 ~ 13.8
//! Mbit`, nearly three times the 5 Mbit bandwidth-delay product — the
//! classical buffer rule is unsustainable for lossless operation. The
//! sweeps verify the remarks: the overshoot term grows as `sqrt(N/C)`
//! and linearly in `q0`, and the exact trajectory maximum stays below
//! the bound (the criterion is sufficient, with measurable slack).

use std::path::Path;

use bcn::buffer::{paper_example, required_vs_capacity, required_vs_n, required_vs_q0};
use bcn::stability::{exact_verdict, overshoot_bound, theorem1_holds, theorem1_required_buffer};
use bcn::units::{GBPS, MBIT};
use bcn::BcnParams;
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
    banner("Theorem 1: worked example and buffer-sizing sweeps");
    let params = BcnParams::paper_defaults();

    // The worked example.
    let ex = paper_example();
    let mut table = Table::new(&["quantity", "value"]);
    table.row(&["bandwidth-delay product (bits)".into(), format!("{:.3e}", ex.bdp)]);
    table.row(&["Theorem 1 required buffer (bits)".into(), format!("{:.3e}", ex.required)]);
    table.row(&["ratio required / BDP".into(), format!("{:.3}", ex.ratio)]);
    table.row(&["paper quotes".into(), "13.75 Mbit, 'nearly three times' the 5 Mbit BDP".into()]);
    table.row(&["BDP buffer passes Theorem 1?".into(), theorem1_holds(&params).to_string()]);
    print!("{table}");

    // Criterion vs exact trajectory (tightness of the bound).
    let exact = exact_verdict(&params, 30);
    let exact_needed = params.q0 + exact.max_x;
    println!(
        "exact trajectory needs {:.3e} bits; Theorem 1 asks {:.3e} (slack {:.1}%), proof bound sqrt(a/bC) q0 = {:.3e}",
        exact_needed,
        theorem1_required_buffer(&params),
        (theorem1_required_buffer(&params) / exact_needed - 1.0) * 100.0,
        overshoot_bound(&params),
    );

    // Sweeps.
    let ns: Vec<u32> = (1..=16).map(|i| 25 * i).collect();
    let sweep_n = required_vs_n(&params, &ns);
    let caps: Vec<f64> = (1..=16).map(|i| 2.5 * GBPS * f64::from(i)).collect();
    let sweep_c = required_vs_capacity(&params, &caps);
    let q0s: Vec<f64> = (1..=16).map(|i| 0.5 * MBIT * f64::from(i)).collect();
    let sweep_q = required_vs_q0(&params, &q0s);

    let mut csv = Csv::new(&["sweep", "parameter", "required_buffer_bits"]);
    for (n, b) in &sweep_n {
        csv.row(&[0.0, f64::from(*n), *b]);
    }
    for (c, b) in &sweep_c {
        csv.row(&[1.0, *c, *b]);
    }
    for (q, b) in &sweep_q {
        csv.row(&[2.0, *q, *b]);
    }
    csv.save(out.join("thm1_buffer_sizing.csv"))?;
    println!("wrote {}", out.join("thm1_buffer_sizing.csv").display());

    let xs: Vec<f64> = sweep_n.iter().map(|(n, _)| f64::from(*n)).collect();
    let ys: Vec<f64> = sweep_n.iter().map(|(_, b)| *b).collect();
    let plot_n =
        SvgPlot::new("Theorem 1: required buffer vs N", "flows N", "required buffer (bits)")
            .with_series(Series::line("required", &xs, &ys, COLOR_CYCLE[0]))
            .with_hline(ex.bdp, "#d62728");
    save_plot(&plot_n, out, "thm1_required_vs_n.svg")?;

    let xs: Vec<f64> = sweep_c.iter().map(|(c, _)| *c).collect();
    let ys: Vec<f64> = sweep_c.iter().map(|(_, b)| *b).collect();
    let plot_c = SvgPlot::new(
        "Theorem 1: required buffer vs C",
        "capacity (bit/s)",
        "required buffer (bits)",
    )
    .with_series(Series::line("required", &xs, &ys, COLOR_CYCLE[1]));
    save_plot(&plot_c, out, "thm1_required_vs_c.svg")?;

    let xs: Vec<f64> = sweep_q.iter().map(|(q, _)| *q).collect();
    let ys: Vec<f64> = sweep_q.iter().map(|(_, b)| *b).collect();
    let plot_q =
        SvgPlot::new("Theorem 1: required buffer vs q0", "q0 (bits)", "required buffer (bits)")
            .with_series(Series::line("required", &xs, &ys, COLOR_CYCLE[2]));
    save_plot(&plot_q, out, "thm1_required_vs_q0.svg")?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generator_runs_and_writes_artifacts() {
        let dir = std::env::temp_dir().join("thm1_test");
        let _ = std::fs::remove_dir_all(&dir);
        run(&dir).unwrap();
        assert!(dir.join("thm1_buffer_sizing.csv").exists());
        assert!(dir.join("thm1_required_vs_n.svg").exists());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
