//! Pins the exact bytes of `SimReport`s on five dumbbell scenarios.
//!
//! The `Simulation` twin of `net_report_pins.rs`: each scenario runs
//! under both schedulers, and once more with a `Full` telemetry sink
//! attached, hashes every report field except telemetry (FNV-1a over the
//! `f64::to_bits` / integer words) and compares the hash with a
//! committed constant. The telemetered run must hash the same: observing
//! a run never changes it. Any change to the dumbbell engine
//! that moves a single output bit — event order, pacing gaps, service
//! times, sampled series, queueing delays — fails here, so engine
//! refactors that claim bit-identity can prove it.
//!
//! To re-pin after an intentional behaviour change, run
//! `cargo test -p dcesim --test sim_report_pins -- --nocapture` and copy
//! the printed hashes.

use dcesim::faults::FaultConfig;
use dcesim::hybrid::{HybridGuards, HybridSim};
use dcesim::metrics::TimeSeries;
use dcesim::qcn::{QcnCpConfig, QcnRpConfig};
use dcesim::sched::Scheduler;
use dcesim::sim::{fluid_validation_params, Control, SimConfig, SimReport, Simulation};
use dcesim::time::Duration;
use dcesim::workload;
use telemetry::{Telemetry, TelemetryLevel};

/// Frame size of every scenario (bits).
const FRAME: f64 = 8_000.0;

/// FNV-1a over 64-bit words, byte by byte (little-endian).
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn f64(&mut self, x: f64) {
        self.word(x.to_bits());
    }

    fn f64s(&mut self, xs: &[f64]) {
        self.word(xs.len() as u64);
        for &x in xs {
            self.f64(x);
        }
    }

    fn series(&mut self, s: &TimeSeries) {
        self.f64s(s.times());
        self.f64s(s.values());
    }
}

/// Hash of every `SimReport` field except the telemetry sink.
fn report_hash(r: &SimReport) -> u64 {
    let m = &r.metrics;
    let mut h = Fnv::new();
    for c in [m.delivered_frames, m.dropped_frames, m.feedback_messages, m.pause_events] {
        h.word(c);
    }
    h.f64(m.delivered_bits);
    h.series(&m.queue);
    h.series(&m.aggregate_rate);
    h.f64s(&m.per_source_bits);
    h.word(m.per_source_rate.len() as u64);
    for s in &m.per_source_rate {
        h.series(s);
    }
    h.f64s(m.queueing_delay.values());
    let fc = &m.faults;
    for c in [
        fc.feedback_dropped,
        fc.feedback_corrupted,
        fc.feedback_corrupt_lost,
        fc.feedback_delayed,
        fc.feedback_reordered,
        fc.data_frames_lost,
        fc.link_flap_deferrals,
        fc.pause_storms,
    ] {
        h.word(c);
    }
    h.f64s(&r.final_rates);
    h.0
}

/// Runs `cfg` under both schedulers and once more on the wheel with a
/// `Full` telemetry sink, checks all three agree bit for bit, and
/// returns the report with its hash.
fn run_both(mut cfg: SimConfig) -> (SimReport, u64) {
    cfg.scheduler = Scheduler::Heap;
    let heap = Simulation::new(cfg.clone()).run();
    cfg.scheduler = Scheduler::Wheel;
    let wheel = Simulation::new(cfg.clone()).run();
    let full = Simulation::with_telemetry(cfg, Telemetry::new(TelemetryLevel::Full)).run();
    let (hh, hw, hf) = (report_hash(&heap), report_hash(&wheel), report_hash(&full));
    assert_eq!(hh, hw, "wheel and heap reports differ");
    assert_eq!(hf, hw, "a Full telemetry sink changed the report");
    (wheel, hw)
}

fn check(name: &str, report: &SimReport, got: u64, pinned: u64) {
    println!("{name}: {got:#018x}");
    assert!(report.metrics.delivered_frames > 0, "{name}: nothing was delivered");
    assert_eq!(got, pinned, "{name}: SimReport bytes moved (got {got:#018x})");
}

/// The Fig. 7 limit-cycle parameterisation on the packet engine.
fn limit_cycle(t_end: f64) -> SimConfig {
    SimConfig::from_fluid(&fluid_validation_params(), FRAME, Duration::from_secs(2e-6), t_end)
}

#[test]
fn fig7_limit_cycle() {
    let (report, h) = run_both(limit_cycle(0.05));
    assert!(report.metrics.feedback_messages > 0, "BCN never fed back");
    check("fig7_limit_cycle", &report, h, 0x54c5_4ac6_f38a_8062);
}

/// 16 servers answering a parallel read at 4× overload, with lossy and
/// corrupting feedback, data-loss bursts and a flapping bottleneck.
#[test]
fn incast_16_with_faults() {
    let mut cfg = limit_cycle(0.05);
    cfg.flows = workload::incast(16, cfg.capacity / 4.0, 300.0 * FRAME);
    let mut f = FaultConfig::none();
    f.seed = 7;
    f.feedback_loss = 0.05;
    f.feedback_corrupt = 0.02;
    f.data_loss = 0.005;
    f.data_burst_len = 2;
    f.link_flap_period = Duration::from_secs(0.01);
    f.link_flap_down = Duration::from_secs(0.001);
    cfg.faults = f;
    let (report, h) = run_both(cfg);
    let fc = &report.metrics.faults;
    assert!(fc.feedback_dropped > 0, "no feedback was dropped");
    assert!(fc.feedback_corrupted > 0, "no feedback was corrupted");
    assert!(fc.data_frames_lost > 0, "no data frame was lost");
    assert!(fc.link_flap_deferrals > 0, "the link never flapped");
    check("incast_16_with_faults", &report, h, 0xcfc5_420d_5b15_e48a);
}

#[test]
fn qcn_dumbbell() {
    let mut cfg = limit_cycle(0.05);
    cfg.control = Control::Qcn {
        cp: QcnCpConfig { q_eq_bits: 1.0e6, w: 2.0, sample_every: 20 },
        rp: QcnRpConfig::standard(cfg.capacity),
    };
    for f in &mut cfg.flows {
        f.initial_rate = cfg.capacity / 2.0;
    }
    let (report, h) = run_both(cfg);
    assert!(report.metrics.feedback_messages > 0, "QCN never fed back");
    check("qcn_dumbbell", &report, h, 0x27e3_1845_3c25_f08e);
}

/// No congestion management at 2.5× overload: drop-tail only.
#[test]
fn uncontrolled_overload() {
    let mut cfg = limit_cycle(0.05);
    cfg.control = Control::None;
    for f in &mut cfg.flows {
        f.initial_rate = cfg.capacity / 2.0;
    }
    let (report, h) = run_both(cfg);
    assert!(report.metrics.dropped_frames > 0, "the overload never dropped");
    check("uncontrolled_overload", &report, h, 0x3ddf_2dd8_afb5_1f84);
}

/// A hybrid run whose committed epochs re-seed the FIFO with a partial
/// remainder frame: the fluid queue is not a whole number of frames, so
/// the packet engine serves a frame shorter than `frame_bits`. The
/// 2 ms record grid spaces the controller's ticks wider than the ~1 ms
/// it takes to serve a reseeded FIFO, so each remainder frame departs
/// before the next epoch can re-seed it away.
#[test]
fn hybrid_reseed_with_remainder_frame() {
    let params = fluid_validation_params();
    let mut hashes = Vec::new();
    let mut last = None;
    for (scheduler, observed) in
        [(Scheduler::Heap, false), (Scheduler::Wheel, false), (Scheduler::Wheel, true)]
    {
        let mut cfg = limit_cycle(0.5);
        cfg.record_interval = Duration::from_secs(2e-3);
        cfg.scheduler = scheduler;
        let mut sim = HybridSim::new(params.clone(), cfg, HybridGuards::default());
        if observed {
            sim = sim.with_telemetry_sink(Telemetry::new(TelemetryLevel::Full));
        }
        let report = sim.run();
        let mut h = Fnv::new();
        h.word(report_hash(&report.sim));
        let s = report.stats;
        for c in [s.epochs, s.reseeds, s.ff_ns, s.packet_ns] {
            h.word(c);
        }
        hashes.push(h.0);
        last = Some(report);
    }
    assert_eq!(hashes[0], hashes[1], "wheel and heap hybrid reports differ");
    assert_eq!(hashes[2], hashes[1], "a Full telemetry sink changed the hybrid report");
    let report = last.expect("ran");
    assert!(report.stats.epochs > 0, "no epoch was committed");
    // Packet-simulated queue samples are whole frames; an epoch's fluid
    // samples, the last of which seeds the FIFO, are not.
    let q = report.sim.metrics.queue.values();
    assert!(q.iter().any(|&q| q % FRAME != 0.0), "no reseed left a remainder frame");
    check("hybrid_reseed_with_remainder_frame", &report.sim, hashes[1], 0x872c_f0ae_8ebe_631f);
}
