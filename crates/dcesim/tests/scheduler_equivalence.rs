//! Heap-vs-wheel scheduler equivalence on randomized configurations.
//!
//! The timing wheel must be an invisible substitution for the binary
//! heap: same event order, same metrics, same telemetry (modulo the
//! `scheduler.*` self-counters, which describe backend internals), same
//! final rates — at any worker count. These tests drive both backends
//! through two splitmix64-seeded families of configurations and demand
//! bit-identical results; a diverging seed is printed and reproduces
//! the run.

use dcesim::batch::{run_batch, BatchConfig};
use dcesim::faults::{splitmix64, FaultConfig};
use dcesim::metrics::SimMetrics;
use dcesim::sched::Scheduler;
use dcesim::sim::{fluid_validation_params, SimConfig, Simulation};
use dcesim::time::Duration;
use dcesim::workload;
use telemetry::{Telemetry, TelemetryLevel};

/// A unit-interval sample from the splitmix64 stream.
fn unit(z: u64) -> f64 {
    (splitmix64(z) >> 11) as f64 / (1u64 << 53) as f64
}

/// A deterministic random configuration drawn from `seed`: frame size,
/// propagation delay, workload shape, horizon, and (for odd seeds) a
/// random wire-fault plan all vary.
fn random_config(seed: u64) -> SimConfig {
    let params = fluid_validation_params();
    let frame_bits = (4_000.0 + 8_000.0 * unit(seed)).round();
    let prop_delay = Duration::from_secs(5e-7 + 3.5e-6 * unit(seed ^ 1));
    let t_end = 0.01 + 0.02 * unit(seed ^ 2);
    let mut cfg = SimConfig::from_fluid(&params, frame_bits, prop_delay, t_end);

    let n = 2 + (splitmix64(seed ^ 3) % 19) as usize;
    let share = params.capacity / n as f64;
    cfg.flows = match splitmix64(seed ^ 4) % 3 {
        0 => workload::homogeneous(n, share),
        1 => workload::staggered(n, share, t_end / (2.0 * n as f64)),
        _ => workload::incast(n, 2.0 * share, 200.0 * frame_bits),
    };

    if seed % 2 == 1 {
        let mut f = FaultConfig::none();
        f.seed = splitmix64(seed ^ 5);
        f.feedback_loss = 0.1 * unit(seed ^ 6);
        f.feedback_corrupt = 0.05 * unit(seed ^ 7);
        f.data_loss = 0.01 * unit(seed ^ 8);
        cfg.faults = f;
    }
    cfg
}

/// A configuration drawn from `seed` over the wider property domain:
/// 2–16 kbit frames, 0.5–4 µs delay, 5–25 ms horizons, 2–23 flows as
/// one burst or an incast, and for odd draws a fault plan with up to
/// 15% feedback loss and 2% data loss.
fn wide_config(seed: u64) -> SimConfig {
    let params = fluid_validation_params();
    let frame_bits = (2_000.0 + 14_000.0 * unit(seed)).round();
    let prop_delay = Duration::from_secs((0.5 + 3.5 * unit(seed ^ 1)) * 1e-6);
    let t_end = (5.0 + 20.0 * unit(seed ^ 2)) * 1e-3;
    let mut cfg = SimConfig::from_fluid(&params, frame_bits, prop_delay, t_end);

    let n = 2 + (splitmix64(seed ^ 3) % 22) as usize;
    let share = params.capacity / n as f64;
    cfg.flows = if splitmix64(seed ^ 4) % 2 == 1 {
        workload::incast(n, 2.0 * share, 200.0 * frame_bits)
    } else {
        workload::homogeneous(n, share)
    };
    if splitmix64(seed ^ 5) % 2 == 1 {
        let mut f = FaultConfig::none();
        f.seed = splitmix64(seed ^ 6);
        f.feedback_loss = 0.15 * unit(seed ^ 7);
        f.data_loss = 0.02 * unit(seed ^ 8);
        cfg.faults = f;
    }
    cfg
}

/// Everything a run observably produces, with the scheduler's
/// self-describing `scheduler.*` series filtered out (cascade and
/// overflow counts legitimately differ between backends). Floats are
/// compared by bit pattern so byte-identity is literal — an untouched
/// gauge is `NaN` on both sides and must still match.
#[derive(Debug, PartialEq)]
struct Fingerprint {
    metrics: SimMetrics,
    final_rates: Vec<u64>,
    counters: Vec<(String, u64)>,
    gauges: Vec<(String, u64, u64, u64, u64)>,
    quantiles: Vec<(String, u64, u64, u64)>,
}

fn fingerprint(mut cfg: SimConfig, scheduler: Scheduler) -> Fingerprint {
    cfg.scheduler = scheduler;
    let report = Simulation::with_telemetry(cfg, Telemetry::new(TelemetryLevel::Summary)).run();
    let tel = report.telemetry.expect("telemetry requested");
    let keep = |name: &str| !name.starts_with("scheduler.");
    Fingerprint {
        metrics: report.metrics,
        final_rates: report.final_rates.iter().map(|r| r.to_bits()).collect(),
        counters: tel
            .metrics
            .counters()
            .filter(|(name, _)| keep(name))
            .map(|(name, v)| (name.to_string(), v))
            .collect(),
        gauges: tel
            .metrics
            .gauges()
            .filter(|(name, _)| keep(name))
            .map(|(name, g)| {
                (name.to_string(), g.last.to_bits(), g.min.to_bits(), g.max.to_bits(), g.samples)
            })
            .collect(),
        quantiles: tel
            .metrics
            .histograms()
            .filter(|(name, _)| keep(name))
            .map(|(name, h)| {
                (name.to_string(), h.p50().to_bits(), h.p90().to_bits(), h.p99().to_bits())
            })
            .collect(),
    }
}

/// Both backends agree — metrics, rates, and telemetry — on two
/// families of random configurations, faulted and clean alike: eight
/// `random_config` seeds and 32 `wide_config` draws.
#[test]
fn schedulers_agree_on_random_configs() {
    let wide = (0..32u64).map(|case| splitmix64(0x5c4e_d000 ^ splitmix64(case)));
    let configs = (0..8u64)
        .map(|seed| ("random_config", seed, random_config(seed)))
        .chain(wide.map(|seed| ("wide_config", seed, wide_config(seed))));
    for (family, seed, cfg) in configs {
        let at = format!("{family}({seed:#x})");
        let wheel = fingerprint(cfg.clone(), Scheduler::Wheel);
        let heap = fingerprint(cfg, Scheduler::Heap);
        assert_eq!(wheel, heap, "{at}: wheel and heap runs diverged");
        assert!(!wheel.counters.is_empty(), "{at}: telemetry captured nothing");
    }
}

/// Batched multi-seed runs agree across schedulers *and* worker counts:
/// (wheel, 4 workers), (heap, 1), and (heap, 4) must all reproduce the
/// (wheel, 1 worker) report seed for seed.
#[test]
fn schedulers_agree_across_worker_counts() {
    let run = |scheduler: Scheduler, threads: usize| {
        parkit::set_threads(threads);
        let mut base = random_config(2);
        base.scheduler = scheduler;
        let mut cfg = BatchConfig::quick(base, 5);
        cfg.level = TelemetryLevel::Off;
        let report = run_batch(&cfg);
        let out: Vec<(u64, SimMetrics, Vec<f64>)> = report
            .completed()
            .map(|(seed, r)| (seed, r.metrics.clone(), r.final_rates.clone()))
            .collect();
        parkit::set_threads(0);
        assert_eq!(out.len(), 5, "every seed must complete");
        out
    };
    let baseline = run(Scheduler::Wheel, 1);
    for (scheduler, threads) in [(Scheduler::Wheel, 4), (Scheduler::Heap, 1), (Scheduler::Heap, 4)]
    {
        assert_eq!(
            run(scheduler, threads),
            baseline,
            "batch ({}, {threads} workers) diverged from (wheel, 1 worker)",
            scheduler.name()
        );
    }
}
