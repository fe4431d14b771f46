//! Timing-wheel vs binary-heap packet-engine benchmark and equivalence
//! gate.
//!
//! Exercises the two [`Scheduler`] backends of `dcesim` on the Fig. 7
//! limit-cycle scenario and a 16-server incast, and enforces the PR's
//! three hot-path guarantees:
//!
//! 1. **Bit-identity** — `SimMetrics` + final rates match byte for byte
//!    across schedulers on both scenarios (faults off *and* on), the
//!    multi-switch [`dcesim::net::NetReport`] matches across schedulers, and a batch
//!    run matches across schedulers *and* worker counts (1 vs 4).
//! 2. **Zero steady-state allocations** — with a warm
//!    [`SimWorkspace`], the wheel engine performs no heap allocations
//!    after warm-up (counted by this binary's own wrapping allocator;
//!    the library itself forbids unsafe code, but a bin target is its
//!    own crate root).
//! 3. **Throughput** — queue-op replay (the same recorded
//!    schedule/pop sequence driven through both backends) must run at
//!    least 2x faster on the wheel at a deep backlog; end-to-end
//!    events/sec on both scenarios is measured and reported alongside,
//!    informational, not gated: at the dumbbells' ~11–34 pending events
//!    the wheel's cascades cost about what the heap's ~3-level sifts do,
//!    so the end-to-end ratio sits near 1 either way. The deep fabric
//!    incast, where the ratio flips, is timed and gated by `topo_engine`.
//!
//! Results land in `BENCH_packet.json` under the usual results
//! directory, in the [`bench::harness`] schema. Run release builds only:
//!
//! ```console
//! $ cargo run --release -p bench --bin packet_engine
//! ```
//!
//! `DCE_BCN_QUICK` shortens the horizons and does not enforce the replay
//! speedup gate (CI smoke mode — every equivalence and allocation check
//! still runs in full).

use std::hint::black_box;
use std::time::Instant;

use bench::common::splitmix_next;
use bench::harness::{self, fault_plan, incast16, limit_cycle, sized, Bench, Bound, Row, FRAME};
use dcesim::batch::BatchConfig;
use dcesim::faults::FaultConfig;
use dcesim::metrics::{SimMetrics, TimeSeries};
use dcesim::net::{victim_topology, NetSim, PauseConfig};
use dcesim::sched::{EventQueue, Scheduler};
use dcesim::sim::{SimConfig, SimWorkspace, Simulation};
use dcesim::time::{Duration, Time};
use telemetry::{Telemetry, TelemetryLevel};

/// Replay throughput gate: wheel ops/sec over heap ops/sec at the deep
/// backlog profile.
const MIN_REPLAY_SPEEDUP: f64 = 2.0;
/// Fixed slack of the report-bytes gate over the report's one-grid
/// size: the grid's shared header and a few record ticks of
/// reservation headroom.
const REPORT_SLACK_BYTES: u64 = 4096;

bench::counting_allocator!();

fn run_with(cfg: &SimConfig, scheduler: Scheduler) -> (SimMetrics, Vec<f64>) {
    let report = Simulation::new(SimConfig { scheduler, ..cfg.clone() }).run();
    (report.metrics, report.final_rates)
}

/// Events dispatched by one run (the scheduler's popped counter).
fn count_events(cfg: &SimConfig) -> u64 {
    let report =
        Simulation::with_telemetry(cfg.clone(), Telemetry::new(TelemetryLevel::Summary)).run();
    let tel = report.telemetry.expect("telemetry requested");
    let popped = tel
        .metrics
        .counters()
        .find(|(name, _)| *name == "scheduler.events_popped")
        .map(|(_, v)| v)
        .expect("scheduler.events_popped counter");
    popped
}

// --- equivalence gates ----------------------------------------------------

/// Scheduler bit-identity on the single-bottleneck engine; returns the
/// number of differing pairs.
fn sim_mismatches(t_end: f64) -> usize {
    let mut bad = 0;
    for (name, cfg) in [("limit-cycle", limit_cycle(t_end)), ("incast-16", incast16(t_end))] {
        for faults in [FaultConfig::none(), fault_plan()] {
            let faulty = faults.enabled();
            let c = SimConfig { faults, ..cfg.clone() };
            if run_with(&c, Scheduler::Wheel) != run_with(&c, Scheduler::Heap) {
                eprintln!("sim scenario {name} (faults: {faulty}): wheel and heap reports differ");
                bad += 1;
            }
        }
    }
    bad
}

/// Scheduler bit-identity on the multi-switch engine; returns the
/// number of differing pairs.
fn net_mismatches(t_end: f64) -> usize {
    let trunk = 1e9;
    let mut bad = 0;
    for faults in [FaultConfig::none(), fault_plan()] {
        let faulty = faults.enabled();
        let report_for = |scheduler: Scheduler| {
            let pause = PauseConfig {
                enabled: true,
                hold: Duration::from_secs(40.0 * FRAME / trunk),
                per_priority: false,
            };
            let (mut cfg, _) =
                victim_topology(4, trunk, FRAME, Duration::from_secs(1e-6), t_end, pause, None);
            cfg.scheduler = scheduler;
            cfg.faults = faults.clone();
            NetSim::new(cfg).run()
        };
        if report_for(Scheduler::Wheel) != report_for(Scheduler::Heap) {
            eprintln!("net victim topology (faults: {faulty}): scheduler reports differ");
            bad += 1;
        }
    }
    bad
}

/// Scheduler and worker-count bit-identity on batched runs; returns the
/// number of batches that diverged from (wheel, 1 worker).
fn batch_mismatches(t_end: f64) -> usize {
    let run = |scheduler: Scheduler, threads: usize, faults: FaultConfig| {
        let base = SimConfig { scheduler, faults, ..limit_cycle(t_end) };
        let mut cfg = BatchConfig::quick(base, 6);
        cfg.level = TelemetryLevel::Off;
        harness::batch_outcomes(&cfg, threads)
    };
    let mut bad = 0;
    for faults in [FaultConfig::none(), fault_plan()] {
        let faulty = faults.enabled();
        let baseline = run(Scheduler::Wheel, 1, faults.clone());
        for (scheduler, threads) in
            [(Scheduler::Wheel, 4), (Scheduler::Heap, 1), (Scheduler::Heap, 4)]
        {
            if run(scheduler, threads, faults.clone()) != baseline {
                eprintln!(
                    "batch ({}, {threads} workers, faults: {faulty}) diverged from \
                     (wheel, 1 worker)",
                    scheduler.name()
                );
                bad += 1;
            }
        }
    }
    bad
}

/// Steady-state allocation count of a warm run: run once to grow every
/// buffer, rebuild from the recycled workspace, step past warm-up, then
/// count allocations to completion.
fn steady_state_allocations(scheduler: Scheduler, t_end: f64) -> u64 {
    let cfg = SimConfig { scheduler, ..limit_cycle(t_end) };
    let mut ws = SimWorkspace::new();
    let warm = Simulation::new_in(cfg.clone(), &mut ws);
    black_box(warm.run_into(&mut ws));
    let mut sim = Simulation::new_in(cfg, &mut ws);
    let allocs = harness::steady_state_allocations(allocations, 1_000, || sim.step());
    black_box(sim.finish());
    allocs
}

/// Bytes a finished limit-cycle report keeps allocated, and the
/// one-grid size it is gated against: one record grid, one value vector
/// per series, the delay samples, the per-source vectors and
/// [`REPORT_SLACK_BYTES`]. A report holding a grid per series exceeds
/// it by one grid per extra series.
fn report_bytes(t_end: f64) -> (u64, u64) {
    let cfg = limit_cycle(t_end);
    // The run frees the config it consumes: clone it inside the window.
    let (report, retained) =
        harness::retained_bytes(live_bytes, || Simulation::new(cfg.clone()).run());
    let m = &report.metrics;
    let n = m.per_source_rate.len();
    let f64s = m.queue.len() * (1 + 2 + n)
        + m.queueing_delay.len()
        + m.per_source_bits.len()
        + report.final_rates.len();
    let one_grid = f64s * size_of::<f64>() + n * size_of::<TimeSeries>();
    (retained, one_grid as u64 + REPORT_SLACK_BYTES)
}

// --- queue-op replay ------------------------------------------------------

enum Op {
    Push(Time),
    Pop,
}

/// A deterministic schedule/pop sequence with delays drawn from the
/// engine's regimes (frame serialization, propagation, pacing gaps,
/// PAUSE holds, occasional far-future timers), holding the backlog near
/// `depth` pending events.
fn synth_ops(n: usize, depth: usize, seed: u64) -> Vec<Op> {
    let mut rng = seed;
    let mut ops = Vec::with_capacity(2 * n);
    // Track pop order locally so pushes stay at/after the virtual now.
    let mut pending = std::collections::BinaryHeap::new();
    let mut now = 0u64;
    for _ in 0..n {
        let r = splitmix_next(&mut rng);
        let push = pending.len() < depth / 2 || (pending.len() < 2 * depth && r & 1 == 0);
        if push {
            let kind = splitmix_next(&mut rng) % 100;
            let delta = match kind {
                0..=69 => 1 + splitmix_next(&mut rng) % 64_000, // send/arrive: ns..64 us
                70..=89 => 64_000 + splitmix_next(&mut rng) % 1_000_000, // pacing: ..1 ms
                90..=98 => 1_000_000 + splitmix_next(&mut rng) % 9_000_000, // PAUSE/record
                _ => 100_000_000 + splitmix_next(&mut rng) % 900_000_000, // far timer
            };
            let t = now.saturating_add(delta);
            pending.push(std::cmp::Reverse(t));
            ops.push(Op::Push(Time::from_nanos(t)));
        } else if let Some(std::cmp::Reverse(t)) = pending.pop() {
            now = t;
            ops.push(Op::Pop);
        }
    }
    ops
}

/// Wall time of one replay of `ops` (including the final drain).
fn replay(ops: &[Op], scheduler: Scheduler) -> f64 {
    let mut q: EventQueue<u64> = EventQueue::new(scheduler);
    let mut payload = 0u64;
    let t0 = Instant::now();
    for op in ops {
        match op {
            Op::Push(t) => {
                q.schedule(*t, payload);
                payload += 1;
            }
            Op::Pop => {
                black_box(q.pop());
            }
        }
    }
    while let Some(popped) = q.pop() {
        black_box(popped);
    }
    t0.elapsed().as_secs_f64()
}

// --- main -----------------------------------------------------------------

#[allow(clippy::cast_precision_loss)]
fn main() {
    let (t_end, net_t_end, batch_t_end) = sized((0.05, 0.05, 0.01), (0.4, 0.25, 0.02));
    let (reps, replay_ops) = (sized(1, 3), sized(200_000, 2_000_000));
    let mut bench = Bench::new("packet", reps);
    println!("packet engine benchmark: t_end {t_end} s, {reps} rep(s)");

    // 1. Bit-identity across schedulers, engines, workers, fault plans.
    bench.gate_zero("sim_equivalence_failures", sim_mismatches(t_end));
    bench.gate_zero("net_equivalence_failures", net_mismatches(net_t_end));
    bench.gate_zero("batch_equivalence_failures", batch_mismatches(batch_t_end));

    // 2. End-to-end throughput per scenario (informational).
    for (name, cfg) in [("limit_cycle", limit_cycle(t_end)), ("incast_16", incast16(t_end))] {
        let events = count_events(&cfg);
        let [wheel, heap] = [Scheduler::Wheel, Scheduler::Heap].map(|s| {
            let c = SimConfig { scheduler: s, ..cfg.clone() };
            harness::time(reps, || Simulation::new(c.clone()).run())
        });
        let (wheel_eps, heap_eps) = (events as f64 / wheel.min, events as f64 / heap.min);
        bench.row(
            Row::new(name)
                .with("events", events)
                .with("wheel_s", wheel)
                .with("heap_s", heap)
                .with("wheel_events_per_sec", wheel_eps)
                .with("heap_events_per_sec", heap_eps)
                .with("end_to_end_speedup", wheel_eps / heap_eps),
        );
    }

    // 3. Queue-op replay throughput (the gated microbench): shallow =
    // the engine's own backlog depth, deep = a fan-in switch backlog
    // where the heap's O(log n) bites.
    let _ = replay(&synth_ops(50_000, 48, 41), Scheduler::Wheel); // warm-up
    let mut deep_speedup = f64::NAN;
    for (name, depth, seed) in [("replay_shallow", 48, 41), ("replay_deep", 4_096, 42)] {
        let ops = synth_ops(replay_ops, depth, seed);
        let wheel = harness::sample(reps, || replay(&ops, Scheduler::Wheel));
        let heap = harness::sample(reps, || replay(&ops, Scheduler::Heap));
        let speedup = heap.min / wheel.min;
        bench.row(
            Row::new(name)
                .with("ops", ops.len())
                .with("pending", depth)
                .with("wheel_s", wheel)
                .with("heap_s", heap)
                .with("speedup", speedup),
        );
        deep_speedup = speedup;
    }
    bench.speed_gate("deep_replay_speedup", deep_speedup, MIN_REPLAY_SPEEDUP);

    // 4. Steady-state allocations on a warm workspace (the heap's are
    // recorded, not gated).
    let heap_allocs = steady_state_allocations(Scheduler::Heap, t_end);
    bench.row(Row::new("heap_steady_state").with("allocations", heap_allocs));
    bench.gate_zero(
        "wheel_steady_state_allocations",
        steady_state_allocations(Scheduler::Wheel, t_end),
    );

    // 5. Bytes a finished report retains against its one-grid size.
    let (retained, budget) = report_bytes(t_end);
    bench.gate("limit_cycle_report_bytes", retained, Bound::AtMost(budget as f64));

    bench.finish(
        "Speedup is gated on the queue-op replay at a deep (~4096-event) backlog, where the \
         heap pays its O(log n); the dumbbell end-to-end rows run the full engine at a \
         shallow backlog (~11-34 pending), where the wheel's cascades cost about what the \
         heap's ~3-level sifts do (limit_cycle ~0.90-0.96x, incast_16 ~1.04-1.09x), so their \
         ratio is reported but not gated. The deep-backlog fabric incasts, where the ratio \
         flips, are timed and gated at 1.2x in BENCH_topo.json. Steady-state allocations \
         are counted by this binary's wrapping allocator after a warm-up run recycles every \
         buffer through SimWorkspace. Ratios and rates use each timing's min.",
    );
}
