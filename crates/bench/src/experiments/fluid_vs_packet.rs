//! Fluid model vs packet-level simulation (model-validity experiment).
//!
//! Runs the same BCN configuration three ways — the paper's linearised
//! fluid model, the full nonlinear fluid model, and the packet-level
//! discrete-event simulator with real frames and BCN messages — and
//! overlays the queue traces. The fluid-flow approximation (paper
//! Section III-A) predicts they agree when packets are small against the
//! queue scale and feedback is frequent against the loop's natural
//! frequency; the run quantifies the residual gap.

use std::path::Path;

use bcn::simulate::SaturatingFluid;
use dcesim::sim::{fluid_validation_params, SimConfig, Simulation};
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
    banner("Fluid model vs packet-level simulation");
    let params = fluid_validation_params();
    let t_end = 0.5;
    let frame_bits = 8_000.0;

    // Packet-level run.
    let cfg =
        SimConfig::from_fluid(&params, frame_bits, dcesim::time::Duration::from_secs(2e-6), t_end);
    let report = Simulation::new(cfg).run();
    let des_t = report.metrics.queue.times().to_vec();
    let des_q = report.metrics.queue.values().to_vec();

    // Fluid runs (physical/saturating form so all three see the walls).
    // The linearised and nonlinear integrations are independent; run
    // them concurrently (index 0 = linearised, 1 = nonlinear).
    let mut fluid = parkit::par_map_indexed(2, |i| {
        if i == 0 {
            SaturatingFluid::linearized(params.clone()).run_canonical(t_end)
        } else {
            SaturatingFluid::new(params.clone()).run_canonical(t_end)
        }
    });
    let non = fluid.pop().expect("two fluid runs");
    let lin = fluid.pop().expect("two fluid runs");

    // Compare on the DES sampling grid.
    let sample = |ts: &[f64], qs: &[f64], t: f64| -> f64 {
        match ts.binary_search_by(|v| v.partial_cmp(&t).unwrap()) {
            Ok(i) => qs[i],
            Err(0) => qs[0],
            Err(i) if i >= ts.len() => *qs.last().unwrap(),
            Err(i) => {
                let w = (t - ts[i - 1]) / (ts[i] - ts[i - 1]);
                qs[i - 1] + w * (qs[i] - qs[i - 1])
            }
        }
    };
    let mut csv = Csv::new(&["t", "q_des", "q_fluid_linear", "q_fluid_nonlinear"]);
    let mut err_lin = 0.0;
    let mut err_non = 0.0;
    for (i, &t) in des_t.iter().enumerate() {
        let ql = sample(&lin.times, &lin.queue, t);
        let qn = sample(&non.times, &non.queue, t);
        csv.row(&[t, des_q[i], ql, qn]);
        err_lin += (des_q[i] - ql).powi(2);
        err_non += (des_q[i] - qn).powi(2);
    }
    let rms_lin = (err_lin / des_t.len() as f64).sqrt();
    let rms_non = (err_non / des_t.len() as f64).sqrt();
    csv.save(out.join("exp_fluid_vs_packet.csv"))?;
    println!("wrote {}", out.join("exp_fluid_vs_packet.csv").display());

    let mut table =
        Table::new(&["model", "max queue (bits)", "min queue tail", "drops", "RMS vs DES (bits)"]);
    table.row(&[
        "packet-level DES".into(),
        format!("{:.3e}", report.metrics.queue.max()),
        format!("{:.3e}", report.metrics.queue.min_after(0.3 * t_end)),
        report.metrics.dropped_frames.to_string(),
        "-".into(),
    ]);
    let tail_min = |ts: &[f64], qs: &[f64]| {
        ts.iter()
            .zip(qs)
            .filter(|(t, _)| **t >= 0.3 * t_end)
            .map(|(_, q)| *q)
            .fold(f64::INFINITY, f64::min)
    };
    table.row(&[
        "fluid (linearised)".into(),
        format!("{:.3e}", lin.max_queue),
        format!("{:.3e}", tail_min(&lin.times, &lin.queue)),
        format!("{:.0}", lin.dropped_bits / 8_000.0),
        format!("{rms_lin:.3e}"),
    ]);
    table.row(&[
        "fluid (nonlinear)".into(),
        format!("{:.3e}", non.max_queue),
        format!("{:.3e}", tail_min(&non.times, &non.queue)),
        format!("{:.0}", non.dropped_bits / 8_000.0),
        format!("{rms_non:.3e}"),
    ]);
    print!("{table}");
    println!(
        "relative max-queue error: linearised {:.2}%, nonlinear {:.2}%",
        (lin.max_queue / report.metrics.queue.max() - 1.0).abs() * 100.0,
        (non.max_queue / report.metrics.queue.max() - 1.0).abs() * 100.0,
    );

    let plot = SvgPlot::new("Queue: fluid models vs packet-level DES", "t (s)", "q (bits)")
        .with_series(Series::line("packet DES", &des_t, &des_q, COLOR_CYCLE[0]))
        .with_series(Series::line("fluid linearised", &lin.times, &lin.queue, COLOR_CYCLE[1]))
        .with_series(Series::line("fluid nonlinear", &non.times, &non.queue, COLOR_CYCLE[2]))
        .with_hline(params.q0, "#999999");
    save_plot(&plot, out, "exp_fluid_vs_packet.svg")?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generator_runs_and_writes_artifacts() {
        let dir = std::env::temp_dir().join("fvp_test");
        let _ = std::fs::remove_dir_all(&dir);
        run(&dir).unwrap();
        assert!(dir.join("exp_fluid_vs_packet.svg").exists());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
