//! Pins the exact bytes of `NetReport`s on five small fabrics.
//!
//! Each scenario runs under both schedulers, and once more with a `Full`
//! telemetry sink attached, hashes every report field except telemetry
//! (FNV-1a over the `f64::to_bits` / integer words), and compares the
//! hash with a committed constant. The telemetered run must hash the
//! same: observing a run never changes it. Any change to the network
//! engine that moves a single output bit — event order, PAUSE timing,
//! backlog sums, sampled series — fails here, so engine refactors that
//! claim bit-identity can prove it.
//!
//! To re-pin after an intentional behaviour change, run
//! `cargo test -p dcesim --test net_report_pins -- --nocapture` and copy
//! the printed hashes.

use dcesim::cp::CpConfig;
use dcesim::frame::CpId;
use dcesim::net::{victim_topology, Endpoint, NetConfig, NetReport, NetSim, PauseConfig};
use dcesim::rp::RpConfig;
use dcesim::sched::Scheduler;
use dcesim::time::Duration;
use dcesim::topo::{compile, TopoSpec, Traffic};
use telemetry::{Event, FaultClass, Telemetry, TelemetryLevel};

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
}

/// Hash of every `NetReport` field except the telemetry shard.
fn report_hash(r: &NetReport) -> u64 {
    let mut h = Fnv::new();
    h.word(r.flows.len() as u64);
    for f in &r.flows {
        h.f64(f.delivered_bits);
        h.word(f.dropped_frames);
        h.f64(f.final_rate);
    }
    h.word(r.switch_queues.len() as u64);
    for s in &r.switch_queues {
        h.word(s.len() as u64);
        for (&t, &v) in s.times().iter().zip(s.values()) {
            h.f64(t);
            h.f64(v);
        }
    }
    h.word(r.pause_counts.len() as u64);
    for &c in &r.pause_counts {
        h.word(c);
    }
    h.word(r.feedback_messages);
    let fc = &r.faults;
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
    h.0
}

/// Runs `cfg` under both schedulers and once more on the wheel with a
/// `Full` telemetry sink (a trace ring large enough to keep every
/// event), checks all three agree bit for bit, and returns the
/// telemetered report with its hash.
fn run_both(mut cfg: NetConfig) -> (NetReport, u64) {
    cfg.scheduler = Scheduler::Heap;
    let heap = NetSim::new(cfg.clone()).run();
    cfg.scheduler = Scheduler::Wheel;
    let wheel = NetSim::new(cfg.clone()).run();
    let tel = Telemetry::with_trace_capacity(TelemetryLevel::Full, 1 << 22);
    let full = NetSim::new(cfg).with_telemetry_sink(tel).run();
    let (hh, hw, hf) = (report_hash(&heap), report_hash(&wheel), report_hash(&full));
    assert_eq!(hh, hw, "wheel and heap reports differ");
    assert_eq!(hf, hw, "a Full telemetry sink changed the report");
    (full, hw)
}

fn check(name: &str, report: &NetReport, got: u64, pinned: u64) {
    println!("{name}: {got:#018x}");
    assert!(report.pause_counts.iter().sum::<u64>() > 0, "{name}: PAUSE never fired");
    assert_eq!(got, pinned, "{name}: NetReport bytes moved (got {got:#018x})");
}

/// A 4-leaf, 2-spine, 8-hosts-per-leaf fabric with a 16-sender incast
/// at 4× load over 4 ms (plain PAUSE, as compiled).
fn small_incast() -> NetConfig {
    let spec = TopoSpec::leaf_spine(4, 2, 8);
    let traffic = Traffic::Incast { senders: 16, dst: usize::MAX, load: 4.0 };
    compile(&spec, &traffic, 0.004).expect("the small incast compiles")
}

#[test]
fn leaf_spine_incast_plain_pause() {
    let (report, h) = run_both(small_incast());
    assert!(report.flows.iter().any(|f| f.dropped_frames > 0), "the incast never dropped");
    check("leaf_spine_incast_plain_pause", &report, h, 0xafdf_ef8f_9464_618e);
}

#[test]
fn leaf_spine_incast_pfc_per_priority() {
    let mut cfg = small_incast();
    cfg.pause.per_priority = true;
    // Split the senders over two classes so per-class backlogs and
    // per-class pause slots both matter.
    for (i, f) in cfg.flows.iter_mut().enumerate() {
        f.priority = (i % 2) as u8;
    }
    let (report, h) = run_both(cfg);
    check("leaf_spine_incast_pfc_per_priority", &report, h, 0x02dc_ab0f_429d_6670);
}

#[test]
fn leaf_spine_incast_with_faults() {
    let mut cfg = small_incast();
    cfg.faults.seed = 11;
    cfg.faults.pause_storm = 0.3;
    cfg.faults.pause_storm_factor = 3.0;
    cfg.faults.data_loss = 0.002;
    cfg.faults.data_burst_len = 2;
    let (report, h) = run_both(cfg);
    assert!(report.faults.pause_storms > 0, "no PAUSE storm fired");
    assert!(report.faults.data_frames_lost > 0, "no data frame was lost");
    check("leaf_spine_incast_with_faults", &report, h, 0xa3a3_bb5c_bef3_8f1a);
}

const TRUNK: f64 = 1.0e9;
const FRAME: f64 = 8_000.0;

/// The two-switch victim topology with BCN on the bottleneck port and
/// every source, under plain PAUSE, over 20 ms.
fn victim_with_bcn() -> NetConfig {
    let cp = CpConfig {
        cpid: CpId(2),
        q0_bits: 10.0 * FRAME,
        qsc_bits: 50.0 * FRAME,
        w: 2.0 / FRAME * 100.0,
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
    let pause = PauseConfig {
        enabled: true,
        hold: Duration::from_secs(40.0 * FRAME / TRUNK),
        per_priority: false,
    };
    victim_topology(6, TRUNK, FRAME, Duration::from_secs(1e-6), 0.02, pause, Some((cp, rp))).0
}

/// The BCN victim fabric with the access links into the first switch
/// alternating between two propagation delays, so that switch's
/// incoming links interleave two delays in link order.
#[test]
fn mixed_delay_ingress_with_bcn() {
    let mut cfg = victim_with_bcn();
    let mut delays = Vec::new();
    for (li, l) in cfg.links.iter_mut().enumerate() {
        if l.to == Endpoint::Switch(0) {
            if li % 2 == 1 {
                l.delay = Duration::from_secs(3e-6);
            }
            delays.push(l.delay);
        }
    }
    assert!(delays.windows(3).any(|w| w[0] != w[1] && w[0] == w[2]), "delays not interleaved");
    let (report, h) = run_both(cfg);
    assert!(report.feedback_messages > 0, "BCN never fed back");
    let access_pauses: u64 = report.pause_counts[..7].iter().sum();
    assert!(access_pauses > 0, "the mixed-delay switch never paused: {:?}", report.pause_counts);
    check("mixed_delay_ingress_with_bcn", &report, h, 0xc81c_541c_4813_60c9);
}

/// The BCN victim fabric with every feedback fault class on: drop,
/// corruption, a fixed extra delay and reordering. Besides the report,
/// the pin covers the `FaultInjected` trace (class, target and time of
/// every injection, in emission order), so the order in which one
/// message's fault classes reach telemetry is pinned too.
#[test]
fn victim_bcn_with_feedback_faults() {
    let mut cfg = victim_with_bcn();
    cfg.faults.seed = 5;
    cfg.faults.feedback_loss = 0.1;
    cfg.faults.feedback_corrupt = 0.05;
    cfg.faults.feedback_extra_delay = Duration::from_secs(2e-6);
    cfg.faults.feedback_reorder = 0.3;
    cfg.faults.reorder_window = Duration::from_secs(5e-6);
    let (report, h) = run_both(cfg);
    let fc = &report.faults;
    assert!(fc.feedback_dropped > 0, "no feedback was dropped");
    assert!(fc.feedback_corrupted > 0, "no feedback was corrupted");
    assert!(fc.feedback_delayed > 0, "no feedback was delayed");
    assert!(fc.feedback_reordered > 0, "no feedback was reordered");
    assert!(report.feedback_messages > 0, "BCN never fed back");
    let tel = report.telemetry.as_ref().expect("the Full run carries its telemetry");
    assert_eq!(tel.trace.overwritten(), 0, "the trace ring dropped events");
    let mut fh = Fnv(h);
    let mut seen = [0u64; FaultClass::ALL.len()];
    for e in tel.trace.iter() {
        if let Event::FaultInjected { t, class, target } = *e {
            seen[class.index()] += 1;
            fh.word(class.index() as u64);
            fh.word(u64::from(target));
            fh.f64(t);
        }
    }
    for class in [
        FaultClass::FeedbackDrop,
        FaultClass::FeedbackCorrupt,
        FaultClass::FeedbackDelay,
        FaultClass::FeedbackReorder,
    ] {
        assert!(seen[class.index()] > 0, "no {} event in the trace", class.name());
    }
    check("victim_bcn_with_feedback_faults", &report, fh.0, 0x6b92_d7c0_4982_81e8);
}
