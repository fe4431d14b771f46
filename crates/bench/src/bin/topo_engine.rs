//! Scale-out fabric benchmark and equivalence gate for the multi-hop
//! engine.
//!
//! Runs generator-compiled fabrics (`dcesim::topo`) through [`NetSim`]
//! at data-center fan-ins and enforces the PR's four guarantees:
//!
//! 1. **Bit-identity** — [`NetReport`] matches byte for byte across
//!    schedulers on a mid-size incast (faults off *and* on), and a
//!    fabric batch matches across schedulers *and* worker counts
//!    (1 vs 4).
//! 2. **Route-lookup speedup** — the flat next-hop table must answer
//!    lookups at least 5x faster than the per-frame linear scan it
//!    replaced, measured on a 1024-host fabric.
//! 3. **Zero steady-state allocations** — a warmed-up run performs no
//!    heap allocations on the frame-forwarding path (counted by this
//!    binary's wrapping allocator).
//! 4. **End-to-end throughput** — the timing wheel must beat the binary
//!    heap by at least 1.2x in events/sec on the 512-sender and
//!    2048-sender incasts (the deep-backlog workload the ROADMAP named
//!    as the ratio flip).
//!
//! Results land in `BENCH_topo.json` under the usual results directory.
//! Run release builds only:
//!
//! ```console
//! $ cargo run --release -p bench --bin topo_engine
//! ```
//!
//! `DCE_BCN_QUICK` shrinks the fabrics (fat-tree k=4 scale) and skips
//! the two speedup gates (CI smoke mode — every equivalence and
//! allocation check still runs in full).

use std::fmt::Write as _;
use std::hint::black_box;
use std::time::Instant;

use bench::common::{out_dir, quick, splitmix_next};
use dcesim::batch::{run_net_batch, NetBatchConfig};
use dcesim::faults::FaultConfig;
use dcesim::metrics::TimeSeries;
use dcesim::net::{FlowStats, NetConfig, NetReport, NetSim};
use dcesim::sched::Scheduler;
use dcesim::topo::{compile, TopoSpec, Traffic};

/// End-to-end throughput gate: wheel events/sec over heap events/sec on
/// the large incasts.
const MIN_END_TO_END_SPEEDUP: f64 = 1.2;
/// Route-lookup gate: flat next-hop table over linear scan at 1024
/// hosts.
const MIN_LOOKUP_SPEEDUP: f64 = 5.0;
/// Fixed slack of the report-bytes gate over the report's one-grid
/// size: the grid's shared header and a few record ticks of
/// reservation headroom.
const REPORT_SLACK_BYTES: u64 = 4096;

bench::counting_allocator!();

// --- scenarios ------------------------------------------------------------

/// An incast compiled onto a fabric at 4x overload of the destination
/// access link.
fn incast_on(spec: &TopoSpec, senders: usize, t_end: f64) -> NetConfig {
    let traffic = Traffic::Incast { senders, dst: usize::MAX, load: 4.0 };
    compile(spec, &traffic, t_end).expect("bench fabric compiles")
}

/// A deterministic mixed fault plan for the faulted equivalence runs.
fn fault_plan() -> FaultConfig {
    let mut f = FaultConfig::none();
    f.seed = 7;
    f.feedback_loss = 0.05;
    f.data_loss = 0.005;
    f
}

fn run_with(cfg: &NetConfig, scheduler: Scheduler) -> NetReport {
    let mut c = cfg.clone();
    c.scheduler = scheduler;
    NetSim::new(c).run()
}

/// Events dispatched by one run plus best-of-`reps` wall time.
fn time_run(cfg: &NetConfig, scheduler: Scheduler, reps: usize) -> (u64, f64) {
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
}

// --- equivalence gates ----------------------------------------------------

/// Scheduler bit-identity on a generator-compiled incast, with and
/// without wire faults.
fn check_scheduler_equivalence(failures: &mut Vec<String>, spec: &TopoSpec, senders: usize) {
    for faults in [FaultConfig::none(), fault_plan()] {
        let faulty = faults.enabled();
        let mut cfg = incast_on(spec, senders, 0.01);
        cfg.faults = faults;
        if run_with(&cfg, Scheduler::Wheel) != run_with(&cfg, Scheduler::Heap) {
            failures.push(format!(
                "incast-{senders} (faults: {faulty}): wheel and heap reports differ"
            ));
        }
    }
}

/// Scheduler and worker-count bit-identity on fabric batches.
fn check_batch_equivalence(failures: &mut Vec<String>, spec: &TopoSpec, senders: usize) {
    let run = |scheduler: Scheduler, threads: usize| {
        parkit::set_threads(threads);
        let mut base = incast_on(spec, senders, 0.005);
        base.scheduler = scheduler;
        base.faults = fault_plan();
        let cfg = NetBatchConfig::quick(base, 4);
        let report = run_net_batch(&cfg);
        let out: Vec<(u64, NetReport)> =
            report.completed().map(|(seed, r)| (seed, r.clone())).collect();
        parkit::set_threads(0);
        out
    };
    let baseline = run(Scheduler::Wheel, 1);
    for (scheduler, threads) in [(Scheduler::Wheel, 4), (Scheduler::Heap, 1), (Scheduler::Heap, 4)]
    {
        if run(scheduler, threads) != baseline {
            failures.push(format!(
                "fabric batch ({}, {threads} workers) diverged from (wheel, 1 worker)",
                scheduler.name()
            ));
        }
    }
}

/// Steady-state allocation count of a warm run: step past warm-up (the
/// event-queue slab, PAUSE maps, and reserved time series have all
/// reached capacity), then count allocations over the remaining frames.
fn steady_state_allocations(cfg: &NetConfig, warmup_steps: u64) -> u64 {
    let mut sim = NetSim::new(cfg.clone());
    for _ in 0..warmup_steps {
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

/// Bytes a finished fabric report keeps allocated, read from this
/// binary's live-byte counter around one run after a warm-up run, and
/// the one-grid size it is gated against: one record grid, one value
/// vector per switch queue, the per-flow, per-switch and per-link
/// vectors and [`REPORT_SLACK_BYTES`]. A report holding a grid per
/// switch exceeds it by one grid per extra switch.
fn report_bytes(cfg: &NetConfig) -> (u64, u64) {
    black_box(NetSim::new(cfg.clone()).run());
    // The run frees the config it consumes: clone it inside the window.
    let before = live_bytes();
    let report = NetSim::new(cfg.clone()).run();
    let retained = live_bytes().wrapping_sub(before);
    let queues = &report.switch_queues;
    let grid = queues.first().map_or(0, TimeSeries::len);
    let one_grid = grid * (1 + queues.len()) * size_of::<f64>()
        + queues.len() * size_of::<TimeSeries>()
        + report.flows.len() * size_of::<FlowStats>()
        + report.pause_counts.len() * size_of::<u64>();
    black_box(report);
    (retained, one_grid as u64 + REPORT_SLACK_BYTES)
}

// --- route-lookup microbench ----------------------------------------------

/// Route-lookup throughput: the flat `u32` next-hop table (what the
/// engine builds at `NetSim::try_new`) against the per-frame
/// `routes.iter().find(...)` linear scan it replaced, on the same
/// deterministic lookup stream over a 1024-host fabric. Returns
/// (speedup, lookups).
fn route_lookup_speedup(reps: usize, lookups: usize) -> (f64, usize) {
    let spec = TopoSpec::leaf_spine(32, 8, 32); // 1024 hosts, 40 switches
    let fabric = spec.build().expect("microbench fabric");
    let hosts = fabric.hosts;
    let routes: Vec<&[(usize, usize)]> =
        fabric.switches.iter().map(|s| s.routes.as_slice()).collect();
    // The dense table, built once — exactly the engine's layout.
    let mut table = vec![u32::MAX; routes.len() * hosts];
    for (si, rs) in routes.iter().enumerate() {
        for &(dst, link) in *rs {
            table[si * hosts + dst] = u32::try_from(link).expect("link index fits u32");
        }
    }
    let mut rng = 0x5eed;
    let queries: Vec<(usize, usize)> = (0..lookups)
        .map(|_| {
            (
                splitmix_next(&mut rng) as usize % routes.len(),
                splitmix_next(&mut rng) as usize % hosts,
            )
        })
        .collect();
    let mut best_linear = f64::INFINITY;
    let mut best_flat = f64::INFINITY;
    let mut sums = (0u64, 0u64);
    for _ in 0..reps {
        let t0 = Instant::now();
        let mut sum = 0u64;
        for &(si, dst) in &queries {
            let link = routes[si].iter().find(|&&(d, _)| d == dst).map_or(usize::MAX, |r| r.1);
            sum = sum.wrapping_add(link as u64);
        }
        best_linear = best_linear.min(t0.elapsed().as_secs_f64());
        sums.0 = black_box(sum);

        let t0 = Instant::now();
        let mut sum = 0u64;
        for &(si, dst) in &queries {
            sum = sum.wrapping_add(u64::from(table[si * hosts + dst]));
        }
        best_flat = best_flat.min(t0.elapsed().as_secs_f64());
        sums.1 = black_box(sum);
    }
    // u32::MAX sentinel vs usize::MAX truncation differ only on missing
    // routes, which this fabric has none of.
    assert_eq!(sums.0 & 0xFFFF_FFFF, sums.1 & 0xFFFF_FFFF, "lookup answers diverged");
    (best_linear / best_flat, lookups)
}

// --- main -----------------------------------------------------------------

#[allow(clippy::too_many_lines, clippy::cast_precision_loss)]
fn main() {
    let q = quick();
    // Quick mode shrinks every fabric to fat-tree-k=4 scale and skips
    // the two speedup gates; equivalence and allocation gates still run.
    let (reps, lookups) = if q { (1, 200_000) } else { (3, 2_000_000) };
    let mut failures: Vec<String> = Vec::new();

    // Equivalence fabric: small enough to run four batch configurations.
    let eq_spec = if q {
        TopoSpec::fat_tree(4)
    } else {
        TopoSpec::leaf_spine(16, 4, 8) /* 128 hosts */
    };
    let eq_senders = if q { 12 } else { 96 };
    println!("topo engine benchmark: equivalence on {} hosts, best of {reps}", eq_spec.hosts());
    check_scheduler_equivalence(&mut failures, &eq_spec, eq_senders);
    check_batch_equivalence(&mut failures, &eq_spec, eq_senders);
    println!(
        "equivalence: {}",
        if failures.is_empty() { "all reports bit-identical" } else { "FAILURES (see below)" }
    );

    // Route-lookup microbench (gated at 1024 hosts unless quick).
    let (lookup_speedup, n_lookups) = route_lookup_speedup(reps, lookups);
    println!("route lookup at 1024 hosts: flat table {lookup_speedup:.1}x vs linear scan");
    if !q && lookup_speedup < MIN_LOOKUP_SPEEDUP {
        failures.push(format!(
            "route-lookup speedup {lookup_speedup:.2}x below the {MIN_LOOKUP_SPEEDUP}x gate"
        ));
    }

    // End-to-end incasts: the deep-backlog workload. Quick mode runs a
    // k=4 fat-tree smoke (16 hosts); full mode runs the gated 512- and
    // 2048-sender fan-ins.
    let scenarios: Vec<(String, NetConfig)> = if q {
        vec![("fat_tree_k4_incast_12".into(), incast_on(&TopoSpec::fat_tree(4), 12, 0.02))]
    } else {
        vec![
            (
                "fat_tree_k16_incast_512".into(),
                incast_on(&TopoSpec::fat_tree(16), 512, 0.06), // 1024 hosts
            ),
            (
                "leaf_spine_2112_incast_2048".into(),
                incast_on(&TopoSpec::leaf_spine(64, 8, 33), 2048, 0.06), // 2112 hosts
            ),
        ]
    };
    let mut scenario_json = Vec::new();
    for (name, cfg) in &scenarios {
        let (events, wheel_s) = time_run(cfg, Scheduler::Wheel, reps);
        let (heap_events, heap_s) = time_run(cfg, Scheduler::Heap, reps);
        assert_eq!(events, heap_events, "schedulers must dispatch identical event counts");
        let (wheel_eps, heap_eps) = (events as f64 / wheel_s, events as f64 / heap_s);
        let speedup = wheel_eps / heap_eps;
        println!(
            "  {name}: {events} events — wheel {:.2} M ev/s, heap {:.2} M ev/s ({speedup:.2}x)",
            wheel_eps / 1e6,
            heap_eps / 1e6,
        );
        if !q && speedup < MIN_END_TO_END_SPEEDUP {
            failures.push(format!(
                "{name}: end-to-end speedup {speedup:.2}x below the {MIN_END_TO_END_SPEEDUP}x gate"
            ));
        }
        let mut row = String::new();
        let _ = write!(
            row,
            "{{\"scenario\": \"{name}\", \"hosts\": {}, \"flows\": {}, \"events\": {events}, \
             \"wheel_events_per_sec\": {wheel_eps:.0}, \"heap_events_per_sec\": {heap_eps:.0}, \
             \"end_to_end_speedup\": {speedup:.3}}}",
            cfg.hosts,
            cfg.flows.len(),
        );
        scenario_json.push(row);
    }

    // Zero steady-state allocations on the largest scenario.
    let (alloc_name, alloc_cfg) = scenarios.last().expect("at least one scenario");
    let steady_allocs = steady_state_allocations(alloc_cfg, 20_000);
    println!("steady-state allocations ({alloc_name}): {steady_allocs}");
    if steady_allocs != 0 {
        failures.push(format!("warm forwarding path performed {steady_allocs} allocation(s)"));
    }

    // Bytes a finished report retains against its one-grid size, on
    // the same scenario.
    let (report_retained, report_budget) = report_bytes(alloc_cfg);
    println!(
        "report bytes ({alloc_name}): {report_retained} retained (one-grid budget {report_budget})"
    );
    if report_retained > report_budget {
        failures.push(format!(
            "{alloc_name} report retains {report_retained} bytes, over its one-grid budget \
             {report_budget}"
        ));
    }

    let note = "End-to-end speedup is gated on generator-compiled incasts whose fan-in \
                keeps thousands of events pending — the deep-backlog regime where the heap \
                pays its O(log n) (BENCH_packet.json gates the same engines on shallow \
                dumbbell scenarios, where the ratio is informational only). The route-lookup \
                row replays one deterministic query stream through the flat next-hop table \
                and the linear scan it replaced. Steady-state allocations are counted by \
                this binary's wrapping allocator after 20k warm-up events.";
    let json = format!(
        "{{\n  \"quick\": {q},\n  \"reps\": {reps},\n  \"scenarios\": [{}],\n  \
         \"route_lookup\": {{\"hosts\": 1024, \"lookups\": {n_lookups}, \
         \"speedup\": {lookup_speedup:.3}, \"gate\": {MIN_LOOKUP_SPEEDUP}}},\n  \
         \"end_to_end_gate\": {MIN_END_TO_END_SPEEDUP},\n  \
         \"steady_state_allocations\": {steady_allocs},\n  \
         \"report_bytes\": {{\"retained\": {report_retained}, \"budget\": {report_budget}}},\n  \
         \"equivalence_failures\": {},\n  \"note\": \"{note}\"\n}}\n",
        scenario_json.join(", "),
        failures.len(),
    );
    let out = out_dir();
    let path = out.join("BENCH_topo.json");
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
