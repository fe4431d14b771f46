//! One record grid per report.
//!
//! Every series a run records is sampled on the same record grid, so a
//! report must hold that grid once: after an engine finishes, and after
//! a checkpoint shard is decoded, every series' `times()` points at the
//! same allocation as the queue's (or the first switch queue's). A
//! regression back to per-series grids keeps every value equal, so only
//! this identity check sees it.

use dcesim::batch::{NetBatchConfig, SeedOutcome};
use dcesim::checkpoint::{
    decode_outcome, decode_seed_outcome, encode_outcome, encode_seed_outcome,
};
use dcesim::hybrid::{HybridGuards, HybridSim};
use dcesim::metrics::{SimMetrics, TimeSeries};
use dcesim::net::{NetReport, NetSim};
use dcesim::sim::{fluid_validation_params, SimConfig, SimReport, Simulation};
use dcesim::time::{Duration, Time};
use dcesim::topo::{compile, TopoSpec, Traffic};

/// Asserts that every series in `series` shares the first one's grid
/// allocation, and that the grid is not empty.
fn assert_one_grid<'a>(what: &str, series: impl IntoIterator<Item = &'a TimeSeries>) {
    let mut series = series.into_iter();
    let first = series.next().expect("at least one series");
    assert!(!first.is_empty(), "{what}: empty record grid");
    for (n, s) in (1..).zip(series) {
        assert_eq!(
            s.times().as_ptr(),
            first.times().as_ptr(),
            "{what}: series {n} has its own grid"
        );
        assert_eq!(s.len(), first.len(), "{what}: series {n} length");
    }
}

fn sim_series(m: &SimMetrics) -> impl Iterator<Item = &TimeSeries> {
    [&m.queue, &m.aggregate_rate].into_iter().chain(&m.per_source_rate)
}

/// A short faulted run of the five-flow fluid calibration.
fn dumbbell() -> SimConfig {
    let mut cfg = SimConfig::fluid_validation_default();
    cfg.t_end = Time::from_secs(0.01);
    cfg.faults.seed = 7;
    cfg.faults.feedback_loss = 0.1;
    cfg
}

/// A 12-sender incast on a k=4 fat tree: one queue series per switch.
fn fabric() -> NetReport {
    let traffic = Traffic::Incast { senders: 12, dst: usize::MAX, load: 4.0 };
    let cfg = compile(&TopoSpec::fat_tree(4), &traffic, 0.005).expect("fabric compiles");
    NetSim::new(cfg).run()
}

#[test]
fn a_packet_run_records_one_grid() {
    let report = Simulation::new(dumbbell()).run();
    assert!(report.metrics.per_source_rate.len() > 1);
    assert_one_grid("Simulation::run", sim_series(&report.metrics));
}

#[test]
fn a_hybrid_run_with_epochs_records_one_grid() {
    let params = fluid_validation_params();
    let cfg = SimConfig::from_fluid(&params, 8_000.0, Duration::from_secs(2e-6), 0.3);
    let report = HybridSim::new(params, cfg, HybridGuards::default()).run();
    assert!(report.stats.epochs > 0, "the quiescent tail must fast-forward");
    assert_one_grid("HybridSim::run", sim_series(&report.sim.metrics));
}

#[test]
fn a_fabric_run_records_one_grid() {
    let report = fabric();
    assert!(report.switch_queues.len() > 1);
    assert_one_grid("NetSim::run", &report.switch_queues);
}

#[test]
fn a_decoded_dumbbell_shard_restores_one_grid() {
    let outcome = SeedOutcome::Completed(Box::new(Simulation::new(dumbbell()).run()));
    let mut text = String::new();
    encode_seed_outcome(5, &outcome, &mut text);
    let (_, decoded) = decode_seed_outcome(&mut text.lines()).expect("decode");
    let SeedOutcome::Completed(report) = decoded else { panic!("expected a completed outcome") };
    let report: SimReport = *report;
    assert_one_grid("decode_seed_outcome", sim_series(&report.metrics));
}

#[test]
fn a_decoded_fabric_shard_restores_one_grid() {
    let outcome = SeedOutcome::Completed(Box::new(fabric()));
    let mut text = String::new();
    encode_outcome::<NetBatchConfig>(5, &outcome, &mut text);
    let (_, decoded) = decode_outcome::<NetBatchConfig, _>(&mut text.lines()).expect("decode");
    let SeedOutcome::Completed(report) = decoded else { panic!("expected a completed outcome") };
    assert_one_grid("net shard decoder", &report.switch_queues);
}

#[test]
fn pushing_onto_a_clone_leaves_the_report_unchanged() {
    let report = Simulation::new(dumbbell()).run();
    let m = &report.metrics;
    // Deep copies: a clone would share the grid a faulty push mutates.
    let grid = m.queue.times().to_vec();
    let values: Vec<Vec<f64>> = sim_series(m).map(|s| s.values().to_vec()).collect();
    let mut copy = m.per_source_rate[0].clone();
    assert_eq!(copy.times().as_ptr(), m.queue.times().as_ptr(), "a clone shares the grid");
    let last = *copy.times().last().expect("samples");
    copy.push(Time::from_secs(last + 1.0), 42.0);
    assert_eq!(copy.len(), grid.len() + 1);
    assert_ne!(copy.times().as_ptr(), m.queue.times().as_ptr());
    for (s, v) in sim_series(m).zip(&values) {
        assert_eq!(s.times(), grid.as_slice(), "the original and its siblings keep their grid");
        assert_eq!(s.values(), v.as_slice());
    }
    assert_one_grid("after a clone's push", sim_series(m));
}
