//! The six workloads and what they share. Each driver feeds the seed
//! only into input generation and calls the repository's public API.

use std::hint::black_box;
use std::path::PathBuf;
use std::time::Instant;

use dcesim::batch::{seeded_config, BatchConfig};
use dcesim::cp::{CongestionPoint, CpConfig};
use dcesim::faults::splitmix64;
use dcesim::frame::{BcnMessage, DataFrame, SourceId};
use dcesim::rp::{ReactionPoint, RpConfig};
use dcesim::sched::{EventQueue, Scheduler};
use dcesim::sim::{fluid_validation_params, Control, SimConfig};
use dcesim::time::{Duration, Time};
use telemetry::Telemetry;

use crate::metrics::Layers;
use crate::stats::median;
use crate::trace::Tracer;

mod fabric_incast;
mod incast_campaign;
mod limit_cycle;
mod limit_cycle_hybrid;
mod thm1_atlas;
mod zipf_query;

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: &[&str] = &[
    "limit_cycle",
    "limit_cycle_hybrid",
    "incast_16_campaign",
    "fabric_incast_2048",
    "zipf_query",
    "thm1_atlas",
];

/// Builds the driver for `name` with inputs generated from `seed`.
pub fn build(name: &str, seed: u64) -> Option<Box<dyn Workload>> {
    Some(match name {
        "limit_cycle" => Box::new(limit_cycle::LimitCycle::new(seed)),
        "limit_cycle_hybrid" => Box::new(limit_cycle_hybrid::LimitCycleHybrid::new(seed)),
        "incast_16_campaign" => Box::new(incast_campaign::IncastCampaign::new(seed)),
        "fabric_incast_2048" => Box::new(fabric_incast::FabricIncast::new(seed)),
        "zipf_query" => Box::new(zipf_query::ZipfQuery::new(seed)),
        "thm1_atlas" => Box::new(thm1_atlas::Thm1Atlas::new(seed)),
        _ => return None,
    })
}

/// Timing of one untraced unit.
#[derive(Debug, Clone, Copy)]
pub struct Unit {
    /// Wall time of the whole unit, construction included.
    pub run_s: f64,
    /// Operations of the unit that did not complete.
    pub failed: u64,
}

/// One benchmark workload.
pub trait Workload {
    /// Operations one unit attempts: runs, seeds, query lines or atlas
    /// cells.
    fn ops_per_unit(&self) -> u64;

    /// Worker threads a unit uses.
    fn width(&self) -> usize {
        1
    }

    /// Runs the unit's construction call once and returns its wall time
    /// in seconds; input preparation and clean-up stay outside it.
    fn setup(&mut self) -> f64;

    /// Runs one untraced unit. Clean-up the measurement must not see
    /// happens after `run_s` is taken.
    fn unit(&mut self) -> Unit;

    /// Runs one unit with a span around each public call, under a root
    /// span named `unit`. Workloads whose unit hides several layers
    /// inside one call then re-execute the unit's inputs through finer
    /// public calls under a root named `split`.
    fn traced_unit(&mut self, tr: &mut Tracer);

    /// Fills the per-layer metrics after `units` traced units. Counts
    /// come from a separate run at `TelemetryLevel::Summary`, so traced
    /// units carry no telemetry cost.
    fn layers(&mut self, tr: &Tracer, units: usize, out: &mut Layers);

    /// Correctness checks, run outside any timed region; one message
    /// per failed check.
    fn check(&mut self) -> Vec<String>;
}

// --- shared inputs ----------------------------------------------------------

/// Frame size of every dumbbell workload (bits).
pub const FRAME: f64 = 8_000.0;

/// The Fig. 7 limit-cycle parameterisation on the packet engine.
pub fn fluid_config(t_end: f64) -> SimConfig {
    SimConfig::from_fluid(&fluid_validation_params(), FRAME, Duration::from_secs(2e-6), t_end)
}

/// `base` with every flow's initial rate jittered for `seed` the way a
/// one-seed batch jitters it. Start times stay simultaneous: with
/// staggered starts the hybrid engine's queue extrema leave the
/// documented `DIVERGENCE_BOUND_FRAC` envelope on some seeds.
pub fn seeded(base: SimConfig, seed: u64) -> SimConfig {
    let mut batch = BatchConfig::quick(base, 1);
    batch.start_jitter_secs = 0.0;
    seeded_config(&batch, seed)
}

/// Seconds elapsed since `t0`.
pub fn secs(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64()
}

/// A directory for journals inside the build's target directory, which
/// lies inside the checkout that built the benchmark.
pub fn scratch_dir() -> PathBuf {
    let exe = std::env::current_exe().expect("benchmark executable path");
    let target =
        exe.parent().and_then(|p| p.parent()).expect("executable lies in <target>/<profile>");
    target.join("perfbench-scratch").join(std::process::id().to_string())
}

// --- counters read back from telemetry ---------------------------------------

/// Engine and scheduler counters of one counting pass: a separate run
/// at `TelemetryLevel::Summary`, so the timed and traced units carry no
/// telemetry cost.
#[derive(Debug, Default)]
pub struct SimCounters {
    runs: u64,
    events: u64,
    scheduled: u64,
    cascades: u64,
    overflow_parked: u64,
    max_pending: u64,
    bcn_messages: u64,
    pauses: u64,
    drops: u64,
    faults: u64,
}

impl SimCounters {
    /// The counters of a pass that made `runs` engine runs (one
    /// telemetry shard, or one batch's merged shards).
    pub fn from_telemetry(tel: &Telemetry, runs: u64) -> Self {
        let c = |name| tel.metrics.counter_by_name(name).unwrap_or(0);
        let max_pending = tel
            .metrics
            .gauge_by_name("scheduler.max_pending")
            .filter(|g| g.samples > 0)
            .map_or(0, |g| g.max as u64);
        Self {
            runs,
            events: c("scheduler.events_popped"),
            scheduled: c("scheduler.events_scheduled"),
            cascades: c("scheduler.cascades"),
            overflow_parked: c("scheduler.overflow_parked"),
            max_pending,
            bcn_messages: c("sim.bcn_messages"),
            pauses: c("sim.pause_events"),
            drops: c("sim.frames_dropped"),
            faults: tel
                .metrics
                .counters()
                .filter(|(n, _)| n.starts_with("faults."))
                .map(|(_, v)| v)
                .sum(),
        }
    }

    /// Events dispatched by the pass.
    pub fn events(&self) -> f64 {
        self.events as f64
    }

    /// The scheduler metrics, per engine run (`max_pending` is the
    /// largest over the runs), and the queue-op replay at that depth.
    pub fn fill_sched(&self, out: &mut Layers) {
        let per_run = |v: u64| v as f64 / self.runs.max(1) as f64;
        out.set("sched.scheduled", per_run(self.scheduled));
        out.set("sched.cascades", per_run(self.cascades));
        out.set("sched.overflow_parked", per_run(self.overflow_parked));
        out.set("sched.max_pending", self.max_pending as f64);
        out.set("sched.replay_ns_per_op", replay_ns_per_op(self.max_pending as usize));
    }

    /// The scheduler metrics plus, for a pass that covered exactly one
    /// unit, `events` (`sim.events`), CP messages, PAUSE assertions,
    /// drops and injected faults per unit.
    pub fn fill(&self, events: &'static str, out: &mut Layers) {
        self.fill_sched(out);
        out.set(events, self.events as f64);
        out.set("cp.bcn_messages", self.bcn_messages as f64);
        out.set("pause.assertions", self.pauses as f64);
        out.set("pause.frames_dropped", self.drops as f64);
        out.set("faults.injected", self.faults as f64);
    }
}

/// Share of the `unit` root spans' time that no layer span covers.
pub fn unattributed_unit(tr: &Tracer) -> f64 {
    let total: f64 = tr.durations("unit").iter().sum();
    if total > 0.0 {
        tr.self_times().get("unit").copied().unwrap_or(0.0) / total
    } else {
        0.0
    }
}

/// Share of the composite calls' worker time (`width` x the spans named
/// `composite`) that the `split` re-execution's layer spans do not
/// cover.
pub fn unattributed_split(tr: &Tracer, composite: &str, width: usize) -> f64 {
    let capacity: f64 = tr.durations(composite).iter().sum::<f64>() * width as f64;
    let split: f64 = tr.durations("split").iter().sum();
    let covered = split - tr.self_times().get("split").copied().unwrap_or(0.0);
    if capacity > 0.0 {
        (1.0 - covered / capacity).max(0.0)
    } else {
        0.0
    }
}

// --- computed per-operation costs -------------------------------------------

/// Median of `n` (> 0) calls of `f`.
pub fn median_of(n: usize, mut f: impl FnMut() -> f64) -> f64 {
    let xs: Vec<f64> = (0..n).map(|_| f()).collect();
    median(&xs).expect("at least one call")
}

/// Nanoseconds per `EventQueue::schedule`/`pop` on the default
/// scheduler, replaying a synthetic schedule that holds about `depth`
/// events pending (0 when `depth` is 0).
pub fn replay_ns_per_op(depth: usize) -> f64 {
    if depth == 0 {
        return 0.0;
    }
    const OPS: usize = 200_000;
    let mut rng = 0x5eed_0000 ^ depth as u64;
    let mut next = || {
        rng = splitmix64(rng);
        rng
    };
    // Push/pop sequence with delays from the engines' regimes (frame
    // serialization, pacing, PAUSE holds, far timers).
    let mut pending = std::collections::BinaryHeap::new();
    let mut ops: Vec<Option<u64>> = Vec::with_capacity(OPS);
    let mut now = 0u64;
    while ops.len() < OPS {
        let r = next();
        if pending.len() < depth.div_ceil(2) || (pending.len() < 2 * depth && r & 1 == 0) {
            let delta = match next() % 100 {
                0..=69 => 1 + next() % 64_000,
                70..=89 => 64_000 + next() % 1_000_000,
                90..=98 => 1_000_000 + next() % 9_000_000,
                _ => 100_000_000 + next() % 900_000_000,
            };
            pending.push(std::cmp::Reverse(now + delta));
            ops.push(Some(now + delta));
        } else if let Some(std::cmp::Reverse(t)) = pending.pop() {
            now = t;
            ops.push(None);
        }
    }
    median_of(3, || {
        let mut q: EventQueue<u64> = EventQueue::new(Scheduler::default());
        let t0 = Instant::now();
        for (i, op) in ops.iter().enumerate() {
            match op {
                Some(t) => q.schedule(Time::from_nanos(*t), i as u64),
                None => {
                    black_box(q.pop());
                }
            }
        }
        t0.elapsed().as_nanos() as f64 / OPS as f64
    })
}

/// Nanoseconds per `CongestionPoint::on_arrival` and per
/// `ReactionPoint::on_bcn` with the workload's BCN configuration (both 0
/// for a configuration without BCN).
pub fn cp_rp_ns(control: &Control, initial_rate: f64) -> (f64, f64) {
    let Control::Bcn { cp, rp } = control else { return (0.0, 0.0) };
    (cp_ns_per_arrival(*cp), rp_ns_per_bcn(*rp, initial_rate))
}

fn cp_ns_per_arrival(cfg: CpConfig) -> f64 {
    const N: usize = 1_000_000;
    let frame = DataFrame { src: SourceId(0), bits: FRAME, rrt: None };
    // Queue depths swinging around the set point, as in the limit cycle.
    let depths: Vec<f64> = (0..64).map(|i| cfg.q0_bits * (0.5 + f64::from(i) / 64.0)).collect();
    median_of(3, || {
        let mut cp = CongestionPoint::new(cfg);
        let t0 = Instant::now();
        for i in 0..N {
            black_box(cp.on_arrival(black_box(&frame), depths[i % 64]));
        }
        t0.elapsed().as_nanos() as f64 / N as f64
    })
}

fn rp_ns_per_bcn(cfg: RpConfig, initial_rate: f64) -> f64 {
    const N: usize = 1_000_000;
    let msgs: Vec<BcnMessage> = (0..64)
        .map(|i| BcnMessage {
            dst: SourceId(0),
            cpid: dcesim::frame::CpId(1),
            sigma: if i % 2 == 0 { 1e3 } else { -1e3 } * f64::from(1 + i % 5),
        })
        .collect();
    median_of(3, || {
        let mut rp = ReactionPoint::new(cfg, initial_rate);
        let t0 = Instant::now();
        for i in 0..N {
            rp.on_bcn(black_box(&msgs[i % 64]));
        }
        black_box(rp.rate());
        t0.elapsed().as_nanos() as f64 / N as f64
    })
}

/// Nanoseconds per fresh `Propagator::new` over `keys` (`(k, a, bC)`
/// triples), bypassing the memo cache; 0 for no keys.
pub fn propagator_build_ns(keys: &[[f64; 3]]) -> f64 {
    if keys.is_empty() {
        return 0.0;
    }
    let reps = (10_000 / keys.len()).max(1);
    median_of(3, || {
        let t0 = Instant::now();
        for _ in 0..reps {
            for &[k, a, b_c] in keys {
                black_box(bcn::propagate::Propagator::new(k, a, b_c));
            }
        }
        t0.elapsed().as_nanos() as f64 / (reps * keys.len()) as f64
    })
}

/// The propagator key of a parameter set.
pub fn propagator_key(p: &bcn::BcnParams) -> [f64; 3] {
    [p.k(), p.a(), p.b() * p.capacity]
}

/// Sets the propagator memo-cache metrics from a counter delta summed
/// over traced units.
pub fn fill_cache(delta: bcn::propagate::CacheStats, units: usize, out: &mut Layers) {
    let per_unit = |v: u64| v as f64 / units.max(1) as f64;
    out.set("propagate.hits", per_unit(delta.hits));
    out.set("propagate.misses", per_unit(delta.misses));
    out.set("propagate.evictions", per_unit(delta.evictions));
    let lookups = delta.hits + delta.misses;
    out.set(
        "propagate.hit_ratio",
        if lookups > 0 { delta.hits as f64 / lookups as f64 } else { 0.0 },
    );
}

/// Adds two cache-counter deltas.
pub fn add_cache(
    a: bcn::propagate::CacheStats,
    b: bcn::propagate::CacheStats,
) -> bcn::propagate::CacheStats {
    bcn::propagate::CacheStats {
        hits: a.hits + b.hits,
        misses: a.misses + b.misses,
        evictions: a.evictions + b.evictions,
    }
}

/// The batch metrics from the spans named `batch.seed`, `seeds` of
/// them per unit: seeds per unit, the p50 seed time, the median over
/// units of the slowest seed and of slowest over mean, and the seeds'
/// total time over the composite spans' worker time.
pub fn fill_batch(tr: &Tracer, seeds: usize, composite: &str, width: usize, out: &mut Layers) {
    let times = tr.durations("batch.seed");
    let units: Vec<&[f64]> = times.chunks_exact(seeds).collect();
    if units.is_empty() {
        return;
    }
    let max = |u: &[f64]| u.iter().copied().fold(0.0, f64::max);
    let per_unit_max: Vec<f64> = units.iter().map(|u| max(u)).collect();
    let imbalance: Vec<f64> =
        units.iter().map(|u| max(u) * u.len() as f64 / u.iter().sum::<f64>()).collect();
    out.set("batch.seeds", seeds as f64);
    out.set("batch.seed_s.p50", crate::stats::percentile(&times, 50.0).unwrap_or(0.0));
    out.set("batch.seed_s.max", median(&per_unit_max).unwrap_or(0.0));
    out.set("batch.imbalance", median(&imbalance).unwrap_or(0.0));
    let capacity = tr.durations(composite).iter().sum::<f64>() * width as f64;
    out.set(
        "batch.parallel_eff",
        if capacity > 0.0 { times.iter().sum::<f64>() / capacity } else { 0.0 },
    );
}

/// `t(width 1) / (width x t(width))` from the two wall times.
pub fn efficiency(serial_s: f64, parallel_s: f64, width: usize) -> f64 {
    if parallel_s > 0.0 {
        serial_s / (width as f64 * parallel_s)
    } else {
        0.0
    }
}

/// Runs `f` with the `parkit` pool width set to `threads`, then
/// restores `restore`.
pub fn at_width<T>(threads: usize, restore: usize, f: impl FnOnce() -> T) -> T {
    parkit::set_threads(threads);
    let out = f();
    parkit::set_threads(restore);
    out
}
