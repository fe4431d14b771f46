//! BCN vs QCN at packet level (the paper's Section II positions QCN as
//! the quantized successor of the BCN paradigm).
//!
//! Same dumbbell, same overload workload, two reaction-point designs:
//! BCN's symmetric AIMD driven by positive *and* negative feedback, vs
//! QCN's negative-only feedback with autonomous byte-counter recovery.
//! Reported: queue traces, drops, utilisation, Jain fairness of delivered
//! bytes.

use std::path::Path;

use dcesim::qcn::{QcnCpConfig, QcnRpConfig};
use dcesim::sim::{fluid_validation_params, Control, SimConfig, Simulation};
use dcesim::time::Time;
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
    banner("BCN vs QCN at packet level");
    let params = fluid_validation_params();
    let t_end = 1.0;
    let frame_bits = 8_000.0;
    let overload_rate = params.capacity / 2.0; // 2.5x overload with N = 5

    let mk_base = || {
        let mut cfg = SimConfig::from_fluid(
            &params,
            frame_bits,
            dcesim::time::Duration::from_secs(2e-6),
            t_end,
        );
        cfg.t_end = Time::from_secs(t_end);
        for f in &mut cfg.flows {
            f.initial_rate = overload_rate;
        }
        cfg
    };

    let bcn_cfg = mk_base();
    let mut qcn_cfg = mk_base();
    qcn_cfg.control = Control::Qcn {
        cp: QcnCpConfig {
            q_eq_bits: params.q0,
            w: 2.0,
            sample_every: (1.0 / params.pm).round() as u64,
        },
        rp: QcnRpConfig::standard(params.capacity),
    };

    let bcn = Simulation::new(bcn_cfg).run();
    let qcn = Simulation::new(qcn_cfg).run();

    let mut table = Table::new(&[
        "scheme",
        "drops",
        "utilisation",
        "fairness (bytes)",
        "max queue (bits)",
        "tail mean queue",
        "feedback msgs",
    ]);
    let mut csv = Csv::new(&["scheme", "t", "q"]);
    for (id, (name, report)) in [("BCN", &bcn), ("QCN", &qcn)].iter().enumerate() {
        let m = &report.metrics;
        let tail = tail_mean(m.queue.times(), m.queue.values(), 0.5 * t_end);
        table.row(&[
            (*name).to_string(),
            m.dropped_frames.to_string(),
            format!("{:.3}", m.utilization(params.capacity, t_end)),
            format!("{:.3}", m.fairness()),
            format!("{:.3e}", m.queue.max()),
            format!("{tail:.3e}"),
            m.feedback_messages.to_string(),
        ]);
        for (t, q) in m.queue.times().iter().zip(m.queue.values()) {
            csv.row(&[id as f64, *t, *q]);
        }
    }
    print!("{table}");

    csv.save(out.join("exp_bcn_vs_qcn.csv"))?;
    println!("wrote {}", out.join("exp_bcn_vs_qcn.csv").display());
    let plot = SvgPlot::new("Queue under BCN vs QCN (2.5x overload start)", "t (s)", "q (bits)")
        .with_series(Series::line(
            "BCN",
            bcn.metrics.queue.times(),
            bcn.metrics.queue.values(),
            COLOR_CYCLE[0],
        ))
        .with_series(Series::line(
            "QCN",
            qcn.metrics.queue.times(),
            qcn.metrics.queue.values(),
            COLOR_CYCLE[1],
        ))
        .with_hline(params.q0, "#999999");
    save_plot(&plot, out, "exp_bcn_vs_qcn.svg")?;
    Ok(())
}

fn tail_mean(ts: &[f64], qs: &[f64], t0: f64) -> f64 {
    let vals: Vec<f64> = ts.iter().zip(qs).filter(|(t, _)| **t >= t0).map(|(_, q)| *q).collect();
    if vals.is_empty() {
        f64::NAN
    } else {
        vals.iter().sum::<f64>() / vals.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generator_runs_and_writes_artifacts() {
        let dir = std::env::temp_dir().join("bvq_test");
        let _ = std::fs::remove_dir_all(&dir);
        run(&dir).unwrap();
        assert!(dir.join("exp_bcn_vs_qcn.svg").exists());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
