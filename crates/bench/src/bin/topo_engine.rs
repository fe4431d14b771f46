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
//! Results land in `BENCH_topo.json` under the usual results directory,
//! in the [`bench::harness`] schema. Run release builds only:
//!
//! ```console
//! $ cargo run --release -p bench --bin topo_engine
//! ```
//!
//! `DCE_BCN_QUICK` shrinks the fabrics (fat-tree k=4 scale) and does not
//! enforce the two speedup gates (CI smoke mode — every equivalence and
//! allocation check still runs in full).

use std::hint::black_box;

use bench::common::splitmix_next;
use bench::harness::{self, fault_plan, quick, sized, Bench, Bound, Row, Timing};
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

/// An incast compiled onto a fabric at 4x overload of the destination
/// access link.
fn incast_on(spec: &TopoSpec, senders: usize, t_end: f64) -> NetConfig {
    let traffic = Traffic::Incast { senders, dst: usize::MAX, load: 4.0 };
    compile(spec, &traffic, t_end).expect("bench fabric compiles")
}

fn run_with(cfg: &NetConfig, scheduler: Scheduler) -> NetReport {
    NetSim::new(NetConfig { scheduler, ..cfg.clone() }).run()
}

// --- equivalence gates ----------------------------------------------------

/// Scheduler bit-identity on a generator-compiled incast, with and
/// without wire faults; returns the number of differing pairs.
fn scheduler_mismatches(spec: &TopoSpec, senders: usize) -> usize {
    let mut bad = 0;
    for faults in [FaultConfig::none(), fault_plan()] {
        let faulty = faults.enabled();
        let cfg = NetConfig { faults, ..incast_on(spec, senders, 0.01) };
        if run_with(&cfg, Scheduler::Wheel) != run_with(&cfg, Scheduler::Heap) {
            eprintln!("incast-{senders} (faults: {faulty}): wheel and heap reports differ");
            bad += 1;
        }
    }
    bad
}

/// Scheduler and worker-count bit-identity on fabric batches; returns
/// the number of batches that diverged from (wheel, 1 worker).
fn batch_mismatches(spec: &TopoSpec, senders: usize) -> usize {
    let run = |scheduler: Scheduler, threads: usize| {
        let base = NetConfig { scheduler, faults: fault_plan(), ..incast_on(spec, senders, 0.005) };
        let report = harness::at_width(threads, || run_net_batch(&NetBatchConfig::quick(base, 4)));
        report.completed().map(|(seed, r)| (seed, r.clone())).collect::<Vec<_>>()
    };
    let baseline = run(Scheduler::Wheel, 1);
    let mut bad = 0;
    for (scheduler, threads) in [(Scheduler::Wheel, 4), (Scheduler::Heap, 1), (Scheduler::Heap, 4)]
    {
        if run(scheduler, threads) != baseline {
            eprintln!(
                "fabric batch ({}, {threads} workers) diverged from (wheel, 1 worker)",
                scheduler.name()
            );
            bad += 1;
        }
    }
    bad
}

/// Steady-state allocation count of a warm run: step past warm-up (the
/// event-queue slab, PAUSE maps, and reserved time series have all
/// reached capacity), then count allocations over the remaining frames.
fn steady_state_allocations(cfg: &NetConfig, warmup_steps: usize) -> u64 {
    let mut sim = NetSim::new(cfg.clone());
    let allocs = harness::steady_state_allocations(allocations, warmup_steps, || sim.step());
    black_box(sim.finish());
    allocs
}

/// Bytes a finished fabric report keeps allocated, and the one-grid
/// size it is gated against: one record grid, one value vector per
/// switch queue, the per-flow, per-switch and per-link vectors and
/// [`REPORT_SLACK_BYTES`]. A report holding a grid per switch exceeds it
/// by one grid per extra switch.
fn report_bytes(cfg: &NetConfig) -> (u64, u64) {
    // The run frees the config it consumes: clone it inside the window.
    let (report, retained) = harness::retained_bytes(live_bytes, || NetSim::new(cfg.clone()).run());
    let queues = &report.switch_queues;
    let grid = queues.first().map_or(0, TimeSeries::len);
    let one_grid = grid * (1 + queues.len()) * size_of::<f64>()
        + queues.len() * size_of::<TimeSeries>()
        + report.flows.len() * size_of::<FlowStats>()
        + report.pause_counts.len() * size_of::<u64>();
    (retained, one_grid as u64 + REPORT_SLACK_BYTES)
}

// --- route-lookup microbench ----------------------------------------------

/// Route-lookup timings: the flat `u32` next-hop table (what the engine
/// builds at `NetSim::try_new`) against the per-frame
/// `routes.iter().find(...)` linear scan it replaced, on the same
/// deterministic stream of `lookups` queries over a 1024-host fabric.
/// Returns (linear, flat).
fn route_lookups(reps: usize, lookups: usize) -> (Timing, Timing) {
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
    let mut sums = (0u64, 0u64);
    let linear = harness::time(reps, || {
        sums.0 = black_box(&queries).iter().fold(0u64, |sum, &(si, dst)| {
            let link = routes[si].iter().find(|&&(d, _)| d == dst).map_or(usize::MAX, |r| r.1);
            sum.wrapping_add(link as u64)
        });
    });
    let flat = harness::time(reps, || {
        sums.1 = black_box(&queries)
            .iter()
            .fold(0u64, |sum, &(si, dst)| sum.wrapping_add(u64::from(table[si * hosts + dst])));
    });
    // u32::MAX sentinel vs usize::MAX truncation differ only on missing
    // routes, which this fabric has none of.
    assert_eq!(sums.0 & 0xFFFF_FFFF, sums.1 & 0xFFFF_FFFF, "lookup answers diverged");
    (linear, flat)
}

// --- main -----------------------------------------------------------------

#[allow(clippy::cast_precision_loss)]
fn main() {
    let (reps, lookups) = (sized(1, 3), sized(200_000, 2_000_000));
    let mut bench = Bench::new("topo", reps);

    // Equivalence fabric: small enough to run four batch configurations.
    let (eq_spec, eq_senders) =
        sized((TopoSpec::fat_tree(4), 12), (TopoSpec::leaf_spine(16, 4, 8) /* 128 hosts */, 96));
    println!("topo engine benchmark: equivalence on {} hosts, {reps} rep(s)", eq_spec.hosts());
    bench.gate_zero("scheduler_equivalence_failures", scheduler_mismatches(&eq_spec, eq_senders));
    bench.gate_zero("batch_equivalence_failures", batch_mismatches(&eq_spec, eq_senders));

    // Route-lookup microbench (gated at 1024 hosts unless quick).
    let (linear, flat) = route_lookups(reps, lookups);
    bench.row(
        Row::new("route_lookup")
            .with("hosts", 1024_usize)
            .with("lookups", lookups)
            .with("linear_s", linear)
            .with("flat_s", flat),
    );
    bench.speed_gate("route_lookup_speedup", linear.min / flat.min, MIN_LOOKUP_SPEEDUP);

    // End-to-end incasts: the deep-backlog workload. Quick mode runs a
    // k=4 fat-tree smoke (16 hosts); full mode runs the gated 512- and
    // 2048-sender fan-ins.
    let scenarios: Vec<(&str, NetConfig)> = if quick() {
        vec![("fat_tree_k4_incast_12", incast_on(&TopoSpec::fat_tree(4), 12, 0.02))]
    } else {
        vec![
            ("fat_tree_k16_incast_512", incast_on(&TopoSpec::fat_tree(16), 512, 0.06)), // 1024 hosts
            (
                "leaf_spine_2112_incast_2048",
                incast_on(&TopoSpec::leaf_spine(64, 8, 33), 2048, 0.06), // 2112 hosts
            ),
        ]
    };
    for (name, cfg) in &scenarios {
        let (events, wheel) = harness::time_net(cfg, Scheduler::Wheel, reps);
        let (heap_events, heap) = harness::time_net(cfg, Scheduler::Heap, reps);
        assert_eq!(events, heap_events, "schedulers must dispatch identical event counts");
        let (wheel_eps, heap_eps) = (events as f64 / wheel.min, events as f64 / heap.min);
        bench.row(
            Row::new(*name)
                .with("hosts", cfg.hosts)
                .with("flows", cfg.flows.len())
                .with("events", events)
                .with("wheel_s", wheel)
                .with("heap_s", heap)
                .with("wheel_events_per_sec", wheel_eps)
                .with("heap_events_per_sec", heap_eps),
        );
        let speedup = wheel_eps / heap_eps;
        bench.speed_gate(format!("{name}_end_to_end_speedup"), speedup, MIN_END_TO_END_SPEEDUP);
    }

    // Zero steady-state allocations and the report's retained bytes,
    // on the largest scenario.
    let (alloc_name, alloc_cfg) = scenarios.last().expect("at least one scenario");
    bench.gate_zero(
        format!("{alloc_name}_steady_state_allocations"),
        steady_state_allocations(alloc_cfg, 20_000),
    );
    let (retained, budget) = report_bytes(alloc_cfg);
    bench.gate(format!("{alloc_name}_report_bytes"), retained, Bound::AtMost(budget as f64));

    bench.finish(
        "End-to-end speedup is gated on generator-compiled incasts whose fan-in keeps \
         thousands of events pending — the deep-backlog regime where the heap pays its \
         O(log n) (BENCH_packet.json times the same engines on shallow dumbbell scenarios, \
         where the ratio is informational only). The route-lookup row replays one \
         deterministic query stream through the flat next-hop table and the linear scan it \
         replaced. Steady-state allocations are counted by this binary's wrapping allocator \
         after 20k warm-up events. Ratios and rates use each timing's min.",
    );
}
