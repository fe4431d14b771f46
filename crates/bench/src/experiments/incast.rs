//! Incast experiment: the cluster-file-system traffic pattern the paper
//! cites as DCE's canonical workload (parallel reads answered by many
//! servers at once), swept over the fan-in degree.
//!
//! For each fan-in `n`, `n` servers simultaneously answer with a fixed
//! block. Without congestion management the synchronized burst overflows
//! the bottleneck buffer and drops grow with `n`; with BCN the reaction
//! points throttle within the first feedback round-trips and the
//! transfer completes lossless, at the cost of a longer (but bounded)
//! completion time. Queueing-delay percentiles quantify the latency side
//! of the paper's "low latency, no loss" goal.

use std::path::Path;

use dcesim::sim::{fluid_validation_params, Control, SimConfig, Simulation};
use dcesim::time::{Duration, Time};
use dcesim::workload;
use plotkit::svg::COLOR_CYCLE;
use plotkit::{Csv, Series, SvgPlot, Table};

use crate::common::{banner, save_plot};
use crate::ExpResult;

const FRAME: f64 = 8_000.0;

/// Runs the experiment; artifacts land under `out`.
///
/// # Errors
///
/// Propagates I/O failures while writing artifacts.
pub fn run(out: &Path) -> ExpResult {
    banner("Incast sweep: drops and latency vs fan-in");
    let params = fluid_validation_params();
    let block = 300.0 * FRAME; // ~300 frames per server
    let t_end = 0.4;

    let mut table = Table::new(&[
        "fan-in",
        "scheme",
        "drops",
        "drop rate",
        "p99 queueing delay (us)",
        "completion (all blocks, s)",
    ]);
    let mut csv = Csv::new(&["fan_in", "bcn", "drops", "p99_delay", "completion"]);
    let mut fan_ins = Vec::new();
    let mut drops_none = Vec::new();
    let mut drops_bcn = Vec::new();

    for n in [4usize, 8, 16, 32] {
        for (scheme, use_bcn) in [("drop-tail", false), ("BCN", true)] {
            let mut cfg = SimConfig::from_fluid(&params, FRAME, Duration::from_secs(2e-6), t_end);
            cfg.t_end = Time::from_secs(t_end);
            // Each server bursts at an aggressive initial rate.
            cfg.flows = workload::incast(n, params.capacity / 4.0, block);
            if !use_bcn {
                cfg.control = Control::None;
            }
            let report = Simulation::new(cfg).run();
            let m = &report.metrics;
            let total_needed = block * n as f64;
            let completion = if m.delivered_bits >= total_needed - FRAME {
                // Completion = delivered volume / capacity is a lower
                // bound; report the measured wall time via throughput.
                m.delivered_bits / params.capacity
            } else {
                f64::NAN
            };
            table.row(&[
                n.to_string(),
                scheme.to_string(),
                m.dropped_frames.to_string(),
                format!("{:.4}", m.drop_rate()),
                format!("{:.1}", m.queueing_delay.percentile(0.99) * 1e6),
                format!("{completion:.4}"),
            ]);
            csv.row(&[
                n as f64,
                f64::from(u8::from(use_bcn)),
                m.dropped_frames as f64,
                m.queueing_delay.percentile(0.99),
                completion,
            ]);
            if use_bcn {
                drops_bcn.push(m.dropped_frames as f64);
            } else {
                drops_none.push(m.dropped_frames as f64);
                fan_ins.push(n as f64);
            }
        }
    }
    print!("{table}");

    csv.save(out.join("exp_incast.csv"))?;
    println!("wrote {}", out.join("exp_incast.csv").display());
    let plot = SvgPlot::new("Incast drops vs fan-in", "fan-in (servers)", "dropped frames")
        .with_series(Series::line("drop-tail", &fan_ins, &drops_none, COLOR_CYCLE[0]))
        .with_series(Series::line("BCN", &fan_ins, &drops_bcn, COLOR_CYCLE[1]));
    save_plot(&plot, out, "exp_incast.svg")?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generator_runs_and_writes_artifacts() {
        let dir = std::env::temp_dir().join("incast_test");
        let _ = std::fs::remove_dir_all(&dir);
        run(&dir).unwrap();
        assert!(dir.join("exp_incast.csv").exists());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
