//! Packet-level integration tests: protocol behaviour of the DCE
//! simulator under BCN, QCN, PAUSE, and failure/perturbation scenarios.

use dcesim::qcn::{QcnCpConfig, QcnRpConfig};
use dcesim::sim::{fluid_validation_params, Control, SimConfig, Simulation};
use dcesim::time::{Duration, Time};
use dcesim::workload;

fn bcn_cfg(t_end: f64) -> SimConfig {
    let params = fluid_validation_params();
    SimConfig::from_fluid(&params, 8_000.0, Duration::from_secs(2e-6), t_end)
}

/// Two identical runs produce byte-identical metrics (integer-time event
/// engine determinism).
#[test]
fn determinism_across_runs() {
    let a = Simulation::new(bcn_cfg(0.3)).run();
    let b = Simulation::new(bcn_cfg(0.3)).run();
    assert_eq!(a.metrics.queue.values(), b.metrics.queue.values());
    assert_eq!(a.metrics.feedback_messages, b.metrics.feedback_messages);
    assert_eq!(a.final_rates, b.final_rates);
}

/// Staggered joiners converge to the fair share: the AIMD fairness claim
/// (Chiu-Jain) the paper cites for adopting the law.
#[test]
fn staggered_flows_converge_to_fairness() {
    let mut cfg = bcn_cfg(2.0);
    cfg.t_end = Time::from_secs(2.0);
    let n = cfg.flows.len();
    cfg.flows = workload::staggered(n, cfg.capacity / (2.0 * n as f64), 0.1);
    let report = Simulation::new(cfg).run();
    let fairness = dcesim::metrics::jain_fairness(&report.final_rates);
    assert!(fairness > 0.85, "fairness {fairness}: {:?}", report.final_rates);
    assert_eq!(report.metrics.dropped_frames, 0);
}

/// A flow departing mid-run frees capacity that the survivors reclaim
/// through positive feedback.
#[test]
fn departures_redistribute_capacity() {
    let mut cfg = bcn_cfg(1.5);
    cfg.t_end = Time::from_secs(1.5);
    let n = cfg.flows.len();
    let fair = cfg.capacity / n as f64;
    cfg.flows = workload::with_departures(n, n / 2, fair, 0.6);
    let report = Simulation::new(cfg).run();
    let survivors = &report.final_rates[n / 2..];
    let mean: f64 = survivors.iter().sum::<f64>() / survivors.len() as f64;
    assert!(mean > 1.3 * fair, "survivors did not grow: mean {mean} vs fair {fair}");
}

/// PAUSE is a last-resort guard: with BCN active and a sane q_sc it
/// never fires; with a crippled reaction (huge sampling divisor) and a
/// burst start it does, and still prevents drops.
#[test]
fn pause_backstop_prevents_drops() {
    // Healthy: no PAUSE.
    let report = Simulation::new(bcn_cfg(0.3)).run();
    assert_eq!(report.metrics.pause_events, 0, "healthy run paused");

    // Crippled feedback + overload: PAUSE fires.
    let mut cfg = bcn_cfg(0.3);
    if let Control::Bcn { cp, .. } = &mut cfg.control {
        cp.sample_every = 100_000; // feedback effectively disabled
        cp.qsc_bits = 3.0e6;
    }
    for f in &mut cfg.flows {
        f.initial_rate = cfg.capacity / 2.0;
    }
    let paused = Simulation::new(cfg).run();
    assert!(paused.metrics.pause_events > 0, "expected PAUSE");
}

/// The drop-tail baseline drops under overload; BCN and QCN both avoid
/// drops on the identical workload.
#[test]
fn three_schemes_same_overload() {
    let params = fluid_validation_params();
    let overload = params.capacity / 2.0;
    let run = |control: Control| {
        let mut cfg = bcn_cfg(0.8);
        cfg.t_end = Time::from_secs(0.8);
        cfg.control = control;
        for f in &mut cfg.flows {
            f.initial_rate = overload;
        }
        Simulation::new(cfg).run()
    };

    let none = run(Control::None);
    assert!(none.metrics.dropped_frames > 0, "drop-tail must drop");

    let bcn_control = match bcn_cfg(0.8).control {
        c @ Control::Bcn { .. } => c,
        _ => unreachable!(),
    };
    let bcn = run(bcn_control);
    assert_eq!(bcn.metrics.dropped_frames, 0, "BCN must not drop");

    let qcn = run(Control::Qcn {
        cp: QcnCpConfig {
            q_eq_bits: params.q0,
            w: 2.0,
            sample_every: (1.0 / params.pm).round() as u64,
        },
        rp: QcnRpConfig::standard(params.capacity),
    });
    assert_eq!(qcn.metrics.dropped_frames, 0, "QCN must not drop");

    // All three keep the link busy.
    for (name, r) in [("none", &none), ("bcn", &bcn), ("qcn", &qcn)] {
        let util = r.metrics.utilization(params.capacity, 0.8);
        assert!(util > 0.7, "{name} utilisation {util}");
    }
}

/// Frame accounting: delivered bits equal the per-source totals, and
/// offered = delivered + dropped + still-queued/in-flight (bounded).
#[test]
fn conservation_of_frames() {
    let report = Simulation::new(bcn_cfg(0.4)).run();
    let m = &report.metrics;
    let per_source: f64 = m.per_source_bits.iter().sum();
    assert!((per_source - m.delivered_bits).abs() < 1e-6);
    // Deliveries cannot exceed capacity * time (plus one frame of slack).
    assert!(m.delivered_bits <= 1.0e9 * 0.4 + 8_000.0);
}

/// The queue settles near q0 under calibrated BCN: time-weighted tail
/// mean within a factor of 2.
#[test]
fn queue_settles_near_reference() {
    let params = fluid_validation_params();
    let report = Simulation::new(bcn_cfg(0.6)).run();
    let q = &report.metrics.queue;
    let tail: Vec<f64> =
        q.times().iter().zip(q.values()).filter(|(t, _)| **t > 0.3).map(|(_, v)| *v).collect();
    let mean = tail.iter().sum::<f64>() / tail.len() as f64;
    assert!(
        (0.5 * params.q0..2.0 * params.q0).contains(&mean),
        "tail mean {mean} vs q0 {}",
        params.q0
    );
}

/// Shrinking the buffer below the fluid model's predicted overshoot
/// makes the packet simulation drop — strong stability is the right
/// no-drop criterion at packet level too.
#[test]
fn packet_drops_track_strong_stability() {
    let params = fluid_validation_params();
    let exact = bcn::stability::exact_verdict(&params, 40);
    let peak = params.q0 + exact.max_x;
    assert!(exact.strongly_stable, "validation params should be stable");

    // Roomy buffer: no drops (checked elsewhere). Tight buffer: drops.
    // Keep q0 < buffer valid and put q_sc at the buffer so the PAUSE
    // backstop cannot mask the drops this test is about.
    let tight_buffer = params.q0 + 0.3 * exact.max_x;
    let tight = params.clone().with_buffer(tight_buffer).with_qsc(tight_buffer);
    let mut cfg = SimConfig::from_fluid(&tight, 8_000.0, Duration::from_secs(2e-6), 0.4);
    cfg.t_end = Time::from_secs(0.4);
    let report = Simulation::new(cfg).run();
    assert!(
        report.metrics.dropped_frames > 0,
        "expected drops with buffer {} below peak {peak}",
        tight.buffer
    );
}

/// Crash-recovery contract end to end through the public API: a batch
/// killed after any prefix of its seeds and resumed from its checkpoint
/// merges a report byte-identical to an uninterrupted run — including
/// across different worker widths for the killed and resumed halves,
/// and with a quarantined seed and watchdog demotions in the mix. Three
/// fixed kill points run on one fault plan, then 24 random kill points
/// and widths each on a plan with a random seed and up to 40% feedback
/// loss.
#[test]
fn checkpointed_batches_resume_bit_identically_across_widths() {
    use dcesim::batch::{run_batch, run_batch_checkpointed, BatchConfig, BatchReport};
    use dcesim::checkpoint::{encode_seed_outcome, BatchCheckpoint};
    use dcesim::faults::{splitmix64, FaultConfig};

    let fingerprint = |r: &BatchReport| {
        let mut s = String::new();
        for (&seed, out) in r.seeds.iter().zip(&r.outcomes) {
            encode_seed_outcome(seed, out, &mut s);
        }
        if let Some(tel) = &r.telemetry {
            s.push_str(&telemetry::snapshot_to_jsonl(tel));
        }
        s
    };
    // Runs the batch under `faults` uninterrupted at widths 1 and 4,
    // then killed and resumed at each `(kill_after, first_width,
    // resume_width)`, and demands one fingerprint throughout.
    let check = |faults: FaultConfig, kills: &[(usize, usize, usize)], case: &str| {
        let mut base = bcn_cfg(0.02);
        base.faults = faults;
        let mut cfg = BatchConfig::quick(base, 5);
        cfg.level = telemetry::TelemetryLevel::Full;
        cfg.panic_seeds = vec![3];
        cfg.max_seed_retries = 1;

        parkit::set_threads(1);
        let clean = fingerprint(&run_batch(&cfg));
        parkit::set_threads(4);
        assert_eq!(fingerprint(&run_batch(&cfg)), clean, "{case}: batch is width-sensitive");

        for &(kill_after, first_width, resume_width) in kills {
            let dir = std::env::temp_dir().join(format!(
                "dcesim_it_resume-{}-{kill_after}-{first_width}x{resume_width}",
                std::process::id()
            ));
            let _ = std::fs::remove_dir_all(&dir);

            // The "killed" half: only the first `kill_after` seeds ran
            // and were acknowledged before the crash.
            parkit::set_threads(first_width);
            let partial = BatchConfig { seeds: cfg.seeds[..kill_after].to_vec(), ..cfg.clone() };
            let ck = BatchCheckpoint::create(&dir, &cfg).unwrap();
            run_batch_checkpointed(&partial, &ck).unwrap();
            drop(ck);

            parkit::set_threads(resume_width);
            let ck = BatchCheckpoint::resume(&dir, &cfg).unwrap();
            assert_eq!(ck.restored_seeds().len(), kill_after, "{case}");
            let resumed = run_batch_checkpointed(&cfg, &ck).unwrap();
            assert_eq!(resumed.supervisor.timed_out, 0, "{case}");
            assert_eq!(
                fingerprint(&resumed),
                clean,
                "{case}: resume after {kill_after} seeds at widths {first_width}->{resume_width} \
                 diverged"
            );
            let _ = std::fs::remove_dir_all(&dir);
        }
        parkit::set_threads(0);
    };

    let fixed = FaultConfig { seed: 9, feedback_loss: 0.15, ..FaultConfig::none() };
    check(fixed, &[(0, 1, 4), (2, 4, 1), (5, 1, 1)], "fixed plan");
    for case in 0..24u64 {
        let seed = splitmix64(0xc4ec ^ splitmix64(case));
        let draw = |k: u64| splitmix64(seed ^ splitmix64(k));
        let feedback_loss = 0.4 * ((draw(1) >> 11) as f64 / (1u64 << 53) as f64);
        let faults = FaultConfig { seed: draw(0), feedback_loss, ..FaultConfig::none() };
        let kill = ((draw(2) % 6) as usize, 1 + (draw(3) % 4) as usize, 1 + (draw(4) % 4) as usize);
        check(
            faults,
            &[kill],
            &format!("seed {seed:#x} (feedback loss {feedback_loss}, {kill:?})"),
        );
    }
}

/// The watchdog's event budget is part of the checkpointed contract
/// too: demoted seeds persist as `timed_out`, restore as `timed_out`,
/// and the resumed aggregate carries the same `batch.timed_out` count.
#[test]
fn watchdog_demotions_survive_checkpoint_resume() {
    use dcesim::batch::{run_batch, run_batch_checkpointed, BatchConfig, SeedOutcome};
    use dcesim::checkpoint::BatchCheckpoint;

    let mut cfg = BatchConfig::quick(bcn_cfg(0.02), 3);
    cfg.level = telemetry::TelemetryLevel::Summary;
    cfg.max_events_per_seed = Some(150);

    let clean = run_batch(&cfg);
    assert_eq!(clean.supervisor.timed_out, 3);

    let dir =
        std::env::temp_dir().join(format!("dcesim_it_watchdog_resume-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let ck = BatchCheckpoint::create(&dir, &cfg).unwrap();
    run_batch_checkpointed(&cfg, &ck).unwrap();
    drop(ck);

    let ck = BatchCheckpoint::resume(&dir, &cfg).unwrap();
    assert_eq!(ck.restored_seeds().len(), 3);
    let resumed = run_batch_checkpointed(&cfg, &ck).unwrap();
    assert_eq!(resumed.supervisor.timed_out, 3);
    for out in &resumed.outcomes {
        assert!(matches!(out, SeedOutcome::TimedOut { events: 150, .. }), "{out:?}");
    }
    let (clean_tel, resumed_tel) = (clean.telemetry.unwrap(), resumed.telemetry.unwrap());
    assert_eq!(
        telemetry::snapshot_to_jsonl(&clean_tel),
        telemetry::snapshot_to_jsonl(&resumed_tel)
    );
    let _ = std::fs::remove_dir_all(&dir);
}
