//! PAUSE head-of-line blocking vs end-to-end BCN (the paper's
//! Introduction motivation).
//!
//! Topology: culprit flows congest a quarter-capacity leaf port behind a
//! shared trunk; an innocent victim flow shares only the trunk. Three
//! policies on identical traffic:
//!
//! * **drop-tail** — culprit frames drop at the leaf port; the victim is
//!   untouched (lossy Ethernet, unacceptable for storage traffic);
//! * **PAUSE only** — lossless, but the backlog trips per-link PAUSE,
//!   the trunk stalls, and the victim's throughput collapses — the
//!   congestion-spreading problem the paper quotes;
//! * **BCN (+ PAUSE backstop)** — reaction points throttle the culprits
//!   at the edge; no sustained backlog, no trunk PAUSE, victim unharmed,
//!   and still lossless.
//!
//! Two PFC (802.1Qbb per-priority PAUSE) rows complete the DCE picture:
//! with the victim on its own priority class PFC isolates it without any
//! end-to-end loop; with the victim *inside* the congested class PFC
//! degenerates to plain PAUSE — the within-class gap BCN exists to fill.

use std::path::Path;

use dcesim::cp::CpConfig;
use dcesim::frame::CpId;
use dcesim::net::{victim_topology, NetSim, PauseConfig};
use dcesim::rp::RpConfig;
use dcesim::time::Duration;
use plotkit::svg::COLOR_CYCLE;
use plotkit::{Csv, Series, SvgPlot, Table};

use crate::common::{banner, save_plot};
use crate::ExpResult;

const TRUNK: f64 = 1.0e9;
const FRAME: f64 = 8_000.0;
const T_END: f64 = 0.25;
const N_CULPRITS: usize = 4;

fn bcn_pair() -> (CpConfig, RpConfig) {
    let q0 = 10.0 * FRAME;
    let cp = CpConfig {
        cpid: CpId(2),
        q0_bits: q0,
        qsc_bits: 50.0 * FRAME,
        w: 200.0 / FRAME,
        sample_every: 5,
        fb_quant: None,
        gate_positive: false,
    };
    let rp = RpConfig {
        gi: 0.5,
        gd: 1.0 / 512.0,
        ru: 1.0e4,
        gain_scale: FRAME * 4.0 / (0.2 * TRUNK),
        r_min: TRUNK * 1e-6,
        r_max: TRUNK,
    };
    (cp, rp)
}

/// Runs the experiment; artifacts land under `out`.
///
/// # Errors
///
/// Propagates I/O failures while writing artifacts.
pub fn run(out: &Path) -> ExpResult {
    banner("PAUSE head-of-line blocking vs BCN (victim-flow scenario)");
    println!(
        "topology: {N_CULPRITS} culprits -> S1 -> trunk -> S2 -> 0.25C bottleneck; victim shares the trunk only"
    );

    // (name, pause config, BCN pair, victim priority class)
    type Scenario = (&'static str, PauseConfig, Option<(CpConfig, RpConfig)>, u8);
    let hold = Duration::from_secs(40.0 * FRAME / TRUNK);
    let scenarios: Vec<Scenario> = vec![
        (
            "drop-tail",
            PauseConfig { enabled: false, hold: Duration::ZERO, per_priority: false },
            None,
            0,
        ),
        ("PAUSE only", PauseConfig { enabled: true, hold, per_priority: false }, None, 0),
        (
            "PFC, victim on its own class",
            PauseConfig { enabled: true, hold, per_priority: true },
            None,
            1,
        ),
        (
            "PFC, victim inside the class",
            PauseConfig { enabled: true, hold, per_priority: true },
            None,
            0,
        ),
        (
            "BCN + PAUSE backstop",
            PauseConfig { enabled: true, hold, per_priority: false },
            Some(bcn_pair()),
            0,
        ),
    ];

    let mut table = Table::new(&[
        "policy",
        "victim throughput (vs 0.25C demand)",
        "culprit drops",
        "victim drops",
        "trunk PAUSEs",
        "lossless",
    ]);
    let mut plot =
        SvgPlot::new("S2 backlog under the three policies", "t (s)", "S2 total backlog (bits)");
    let mut csv = Csv::new(&["scenario", "victim_throughput", "culprit_drops", "trunk_pauses"]);

    for (i, (name, pause, bcn, victim_class)) in scenarios.into_iter().enumerate() {
        let (mut cfg, victim) =
            victim_topology(N_CULPRITS, TRUNK, FRAME, Duration::from_secs(1e-6), T_END, pause, bcn);
        cfg.flows[victim].priority = victim_class;
        let trunk_link = N_CULPRITS + 1;
        let report = NetSim::new(cfg).run();
        let vt = report.throughput(victim, T_END);
        let culprit_drops: u64 = report.flows[..victim].iter().map(|f| f.dropped_frames).sum();
        let victim_drops = report.flows[victim].dropped_frames;
        let trunk_pauses = report.pause_counts[trunk_link];
        table.row(&[
            name.to_string(),
            format!("{:.1}% ({:.3e} bit/s)", vt / (0.25 * TRUNK) * 100.0, vt),
            culprit_drops.to_string(),
            victim_drops.to_string(),
            trunk_pauses.to_string(),
            (culprit_drops + victim_drops == 0).to_string(),
        ]);
        csv.row(&[i as f64, vt, culprit_drops as f64, trunk_pauses as f64]);
        plot = plot.with_series(Series::line(
            name,
            report.switch_queues[1].times(),
            report.switch_queues[1].values(),
            COLOR_CYCLE[i],
        ));
    }
    print!("{table}");
    println!(
        "the PAUSE row is the paper's Introduction: lossless but the innocent\n\
         victim starves. PFC fixes the cross-class case only; BCN restores the\n\
         victim inside the congested class while staying lossless."
    );

    csv.save(out.join("exp_pause_hol.csv"))?;
    println!("wrote {}", out.join("exp_pause_hol.csv").display());
    save_plot(&plot, out, "exp_pause_hol.svg")?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generator_runs_and_writes_artifacts() {
        let dir = std::env::temp_dir().join("pause_hol_test");
        let _ = std::fs::remove_dir_all(&dir);
        run(&dir).unwrap();
        assert!(dir.join("exp_pause_hol.svg").exists());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
