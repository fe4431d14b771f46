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
//!    so the end-to-end ratio sits near 1 either way.
//!
//! Results land in `BENCH_packet.json` under the usual results
//! directory. Run release builds only:
//!
//! ```console
//! $ cargo run --release -p bench --bin packet_engine
//! ```
//!
//! `DCE_BCN_QUICK` shortens the horizons and skips the replay speedup
//! gate (CI smoke mode — every equivalence and allocation check still
//! runs in full).

use std::fmt::Write as _;
use std::hint::black_box;
use std::time::Instant;

use bench::common::{out_dir, quick, splitmix_next};
use dcesim::batch::{run_batch, BatchConfig};
use dcesim::faults::FaultConfig;
use dcesim::metrics::{SimMetrics, TimeSeries};
use dcesim::net::{victim_topology, NetSim, PauseConfig};
use dcesim::sched::{EventQueue, Scheduler};
use dcesim::sim::{fluid_validation_params, SimConfig, SimWorkspace, Simulation};
use dcesim::time::{Duration, Time};
use dcesim::topo::{compile, TopoSpec, Traffic};
use dcesim::workload;
use telemetry::{Telemetry, TelemetryLevel};

/// Replay throughput gate: wheel ops/sec over heap ops/sec at the deep
/// backlog profile.
const MIN_REPLAY_SPEEDUP: f64 = 2.0;
/// Frame size used throughout (bits).
const FRAME: f64 = 8_000.0;
/// Fixed slack of the report-bytes gate over the report's one-grid
/// size: the grid's shared header and a few record ticks of
/// reservation headroom.
const REPORT_SLACK_BYTES: u64 = 4096;

bench::counting_allocator!();

// --- scenarios ------------------------------------------------------------

/// The Fig. 7 limit-cycle parameterisation on the packet engine.
fn limit_cycle(t_end: f64) -> SimConfig {
    SimConfig::from_fluid(&fluid_validation_params(), FRAME, Duration::from_secs(2e-6), t_end)
}

/// 16 servers answering a parallel read into the same bottleneck at 4x
/// overload — the drop/PAUSE-heavy counterpoint to the limit cycle.
fn incast16(t_end: f64) -> SimConfig {
    let params = fluid_validation_params();
    let mut cfg = limit_cycle(t_end);
    cfg.flows = workload::incast(16, params.capacity / 4.0, 300.0 * FRAME);
    cfg
}

/// A deterministic mixed fault plan for the faulted equivalence runs.
fn fault_plan() -> FaultConfig {
    let mut f = FaultConfig::none();
    f.seed = 7;
    f.feedback_loss = 0.05;
    f.feedback_corrupt = 0.02;
    f.data_loss = 0.005;
    f
}

fn run_with(cfg: &SimConfig, scheduler: Scheduler) -> (SimMetrics, Vec<f64>) {
    let mut c = cfg.clone();
    c.scheduler = scheduler;
    let report = Simulation::new(c).run();
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

/// Best-of-`reps` wall time of one untelemetered run.
fn time_run(cfg: &SimConfig, scheduler: Scheduler, reps: usize) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let mut c = cfg.clone();
        c.scheduler = scheduler;
        let t0 = Instant::now();
        black_box(Simulation::new(c).run());
        best = best.min(t0.elapsed().as_secs_f64());
    }
    best
}

// --- equivalence gates ----------------------------------------------------

/// Scheduler bit-identity on the single-bottleneck engine.
fn check_sim_equivalence(failures: &mut Vec<String>, t_end: f64) {
    for (name, cfg) in [("limit-cycle", limit_cycle(t_end)), ("incast-16", incast16(t_end))] {
        for faults in [FaultConfig::none(), fault_plan()] {
            let mut c = cfg.clone();
            let faulty = faults.enabled();
            c.faults = faults;
            let wheel = run_with(&c, Scheduler::Wheel);
            let heap = run_with(&c, Scheduler::Heap);
            if wheel != heap {
                failures.push(format!(
                    "sim scenario {name} (faults: {faulty}): wheel and heap reports differ"
                ));
            }
        }
    }
}

/// Scheduler bit-identity on the multi-switch engine.
fn check_net_equivalence(failures: &mut Vec<String>, t_end: f64) {
    let trunk = 1e9;
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
            failures
                .push(format!("net victim topology (faults: {faulty}): scheduler reports differ"));
        }
    }
}

/// Scheduler and worker-count bit-identity on batched runs.
fn check_batch_equivalence(failures: &mut Vec<String>, t_end: f64) {
    let run = |scheduler: Scheduler, threads: usize, faults: FaultConfig| {
        parkit::set_threads(threads);
        let mut base = limit_cycle(t_end);
        base.scheduler = scheduler;
        base.faults = faults;
        let mut cfg = BatchConfig::quick(base, 6);
        cfg.level = TelemetryLevel::Off;
        let report = run_batch(&cfg);
        let out: Vec<(u64, SimMetrics, Vec<f64>)> = report
            .completed()
            .map(|(seed, r)| (seed, r.metrics.clone(), r.final_rates.clone()))
            .collect();
        parkit::set_threads(0);
        out
    };
    for faults in [FaultConfig::none(), fault_plan()] {
        let faulty = faults.enabled();
        let baseline = run(Scheduler::Wheel, 1, faults.clone());
        for (scheduler, threads) in
            [(Scheduler::Wheel, 4), (Scheduler::Heap, 1), (Scheduler::Heap, 4)]
        {
            if run(scheduler, threads, faults.clone()) != baseline {
                failures.push(format!(
                    "batch ({}, {threads} workers, faults: {faulty}) diverged from \
                     (wheel, 1 worker)",
                    scheduler.name()
                ));
            }
        }
    }
}

/// Steady-state allocation count of a warm wheel run: run once to grow
/// every buffer, rebuild from the recycled workspace, step past warm-up,
/// then count allocations to completion.
fn steady_state_allocations(scheduler: Scheduler, t_end: f64) -> u64 {
    let cfg = {
        let mut c = limit_cycle(t_end);
        c.scheduler = scheduler;
        c
    };
    let mut ws = SimWorkspace::new();
    let warm = Simulation::new_in(cfg.clone(), &mut ws);
    black_box(warm.run_into(&mut ws));
    let mut sim = Simulation::new_in(cfg, &mut ws);
    for _ in 0..1_000 {
        if !sim.step() {
            break;
        }
    }
    let before = allocations();
    while sim.step() {}
    let after = allocations();
    black_box(sim.finish());
    after - before
}

/// Bytes a finished limit-cycle report keeps allocated, read from this
/// binary's live-byte counter around one run after a warm-up run, and
/// the one-grid size it is gated against: one record grid, one value
/// vector per series, the delay samples, the per-source vectors and
/// [`REPORT_SLACK_BYTES`]. A report holding a grid per series exceeds
/// it by one grid per extra series.
fn report_bytes(t_end: f64) -> (u64, u64) {
    let cfg = limit_cycle(t_end);
    black_box(Simulation::new(cfg.clone()).run());
    // The run frees the config it consumes: clone it inside the window.
    let before = live_bytes();
    let report = Simulation::new(cfg.clone()).run();
    let retained = live_bytes().wrapping_sub(before);
    let m = &report.metrics;
    let n = m.per_source_rate.len();
    let f64s = m.queue.len() * (1 + 2 + n)
        + m.queueing_delay.len()
        + m.per_source_bits.len()
        + report.final_rates.len();
    let one_grid = f64s * size_of::<f64>() + n * size_of::<TimeSeries>();
    black_box(report);
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

fn best_replay(ops: &[Op], scheduler: Scheduler, reps: usize) -> f64 {
    (0..reps).map(|_| replay(ops, scheduler)).fold(f64::INFINITY, f64::min)
}

// --- main -----------------------------------------------------------------

#[allow(clippy::too_many_lines, clippy::cast_precision_loss)]
fn main() {
    let (t_end, net_t_end, batch_t_end, reps, replay_ops) =
        if quick() { (0.05, 0.05, 0.01, 1, 200_000) } else { (0.4, 0.25, 0.02, 3, 2_000_000) };
    println!("packet engine benchmark: t_end {t_end} s, best of {reps}");

    let mut failures: Vec<String> = Vec::new();

    // 1. Bit-identity across schedulers, engines, workers, fault plans.
    check_sim_equivalence(&mut failures, t_end);
    check_net_equivalence(&mut failures, net_t_end);
    check_batch_equivalence(&mut failures, batch_t_end);
    println!(
        "equivalence: {}",
        if failures.is_empty() { "all reports bit-identical" } else { "FAILURES (see below)" }
    );

    // 2. End-to-end throughput per scenario (informational).
    let mut scenario_json = Vec::new();
    for (name, cfg) in [("limit_cycle", limit_cycle(t_end)), ("incast_16", incast16(t_end))] {
        let events = count_events(&cfg);
        let wheel_s = time_run(&cfg, Scheduler::Wheel, reps);
        let heap_s = time_run(&cfg, Scheduler::Heap, reps);
        let (wheel_eps, heap_eps) = (events as f64 / wheel_s, events as f64 / heap_s);
        println!(
            "  {name}: {events} events — wheel {:.2} M ev/s, heap {:.2} M ev/s ({:.2}x)",
            wheel_eps / 1e6,
            heap_eps / 1e6,
            wheel_eps / heap_eps
        );
        let mut row = String::new();
        let _ = write!(
            row,
            "{{\"scenario\": \"{name}\", \"events\": {events}, \
             \"wheel_events_per_sec\": {wheel_eps:.0}, \"heap_events_per_sec\": {heap_eps:.0}, \
             \"end_to_end_speedup\": {:.3}}}",
            wheel_eps / heap_eps
        );
        scenario_json.push(row);
    }

    // 2b. The deep fabric scenario: a generator-compiled 512-sender
    // incast, the workload that flips the end-to-end ratio. Reported
    // here alongside the shallow dumbbell rows; the 1.2x gate on it
    // lives in BENCH_topo.json (topo_engine).
    let fabric_row = {
        let (spec, senders, horizon) = if quick() {
            (TopoSpec::fat_tree(4), 12, 0.02)
        } else {
            (TopoSpec::fat_tree(16), 512, 0.06)
        };
        let traffic = Traffic::Incast { senders, dst: usize::MAX, load: 4.0 };
        let cfg = compile(&spec, &traffic, horizon).expect("fabric compiles");
        let time_net = |scheduler: Scheduler| {
            let mut events = 0;
            let mut best = f64::INFINITY;
            for _ in 0..reps {
                let mut c = cfg.clone();
                c.scheduler = scheduler;
                let mut sim = NetSim::new(c);
                let t0 = Instant::now();
                while sim.step() {}
                best = best.min(t0.elapsed().as_secs_f64());
                events = sim.events_popped();
                black_box(sim.finish());
            }
            (events, best)
        };
        let (events, wheel_s) = time_net(Scheduler::Wheel);
        let (_, heap_s) = time_net(Scheduler::Heap);
        let (wheel_eps, heap_eps) = (events as f64 / wheel_s, events as f64 / heap_s);
        println!(
            "  fabric_incast_{senders}: {events} events — wheel {:.2} M ev/s, heap {:.2} M ev/s \
             ({:.2}x; gated in BENCH_topo.json)",
            wheel_eps / 1e6,
            heap_eps / 1e6,
            wheel_eps / heap_eps
        );
        format!(
            "{{\"scenario\": \"fabric_incast_{senders}\", \"events\": {events}, \
             \"wheel_events_per_sec\": {wheel_eps:.0}, \"heap_events_per_sec\": {heap_eps:.0}, \
             \"end_to_end_speedup\": {:.3}}}",
            wheel_eps / heap_eps
        )
    };
    scenario_json.push(fabric_row);

    // 3. Queue-op replay throughput (the gated microbench): shallow =
    // the engine's own backlog depth, deep = a fan-in switch backlog
    // where the heap's O(log n) bites.
    let shallow = synth_ops(replay_ops, 48, 41);
    let deep = synth_ops(replay_ops, 4_096, 42);
    let _ = best_replay(&shallow[..shallow.len().min(50_000)], Scheduler::Wheel, 1); // warm-up
    let shallow_wheel = best_replay(&shallow, Scheduler::Wheel, reps);
    let shallow_heap = best_replay(&shallow, Scheduler::Heap, reps);
    let deep_wheel = best_replay(&deep, Scheduler::Wheel, reps);
    let deep_heap = best_replay(&deep, Scheduler::Heap, reps);
    let shallow_speedup = shallow_heap / shallow_wheel;
    let deep_speedup = deep_heap / deep_wheel;
    println!(
        "replay (~48 pending):    wheel {:.1} M op/s vs heap {:.1} M op/s — {shallow_speedup:.2}x",
        shallow.len() as f64 / shallow_wheel / 1e6,
        shallow.len() as f64 / shallow_heap / 1e6,
    );
    println!(
        "replay (~4096 pending):  wheel {:.1} M op/s vs heap {:.1} M op/s — {deep_speedup:.2}x",
        deep.len() as f64 / deep_wheel / 1e6,
        deep.len() as f64 / deep_heap / 1e6,
    );

    // 4. Steady-state allocations on a warm workspace.
    let wheel_allocs = steady_state_allocations(Scheduler::Wheel, t_end);
    let heap_allocs = steady_state_allocations(Scheduler::Heap, t_end);
    println!("steady-state allocations: wheel {wheel_allocs}, heap {heap_allocs}");
    if wheel_allocs != 0 {
        failures.push(format!("wheel steady state performed {wheel_allocs} allocation(s)"));
    }

    // 5. Bytes a finished report retains against its one-grid size.
    let (report_retained, report_budget) = report_bytes(t_end);
    println!(
        "limit_cycle report retains {report_retained} bytes (one-grid budget {report_budget})"
    );
    if report_retained > report_budget {
        failures.push(format!(
            "limit_cycle report retains {report_retained} bytes, over its one-grid budget \
             {report_budget}"
        ));
    }
    if !quick() && deep_speedup < MIN_REPLAY_SPEEDUP {
        failures.push(format!(
            "deep-backlog replay speedup {deep_speedup:.2}x below the {MIN_REPLAY_SPEEDUP}x gate"
        ));
    }

    let note = "Speedup is gated on the queue-op replay at a deep (~4096-event) backlog, \
                where the heap pays its O(log n); the dumbbell end-to-end rows run the full \
                engine at a shallow backlog (~11-34 pending), where the wheel's cascades cost \
                about what the heap's ~3-level sifts do (limit_cycle ~0.90-0.96x, incast_16 \
                ~1.04-1.09x), so their ratio is reported but not gated. The \
                fabric_incast row runs the generator-compiled 512-sender incast where the \
                fan-in keeps the backlog deep end-to-end — that ratio is gated at 1.2x in \
                BENCH_topo.json. Steady-state allocations are counted by this binary's \
                wrapping allocator after a warm-up run recycles every buffer through \
                SimWorkspace.";
    let json = format!(
        "{{\n  \"quick\": {},\n  \"reps\": {reps},\n  \"scenarios\": [{}],\n  \
         \"replay\": {{\"ops\": {}, \"shallow_speedup\": {shallow_speedup:.3}, \
         \"deep_speedup\": {deep_speedup:.3}, \"gate\": {MIN_REPLAY_SPEEDUP}}},\n  \
         \"steady_state_allocations\": {{\"wheel\": {wheel_allocs}, \"heap\": {heap_allocs}}},\n  \
         \"report_bytes\": {{\"retained\": {report_retained}, \"budget\": {report_budget}}},\n  \
         \"equivalence_failures\": {},\n  \"note\": \"{note}\"\n}}\n",
        quick(),
        scenario_json.join(", "),
        shallow.len(),
        failures.len(),
    );
    let out = out_dir();
    let path = out.join("BENCH_packet.json");
    if let Err(e) = std::fs::write(&path, json) {
        eprintln!("FAIL: could not write {}: {e}", path.display());
        std::process::exit(1);
    }
    println!("wrote {}", path.display());

    if !failures.is_empty() {
        for f in &failures {
            eprintln!("FAIL: {f}");
        }
        std::process::exit(1);
    }
}
