//! `fabric_incast_2048`: 2048 senders into one host of a 2112-host
//! leaf–spine fabric with PFC and no BCN. It stresses what the dumbbells
//! never touch: a deep event queue, multi-hop forwarding, PAUSE, and a
//! per-seed `NetSim::try_new` over thousands of hosts.

use std::hint::black_box;
use std::time::Instant;

use dcesim::batch::{
    run_net_batch, seeded_net_config, NetBatchConfig, NetBatchReport, NetSeedOutcome,
};
use dcesim::net::{NetConfig, NetSim};
use dcesim::topo::{compile, TopoSpec, Traffic};
use telemetry::{Telemetry, TelemetryLevel};

use super::{
    at_width, efficiency, fill_batch, secs, unattributed_split, SimCounters, Unit, Workload,
};
use crate::metrics::Layers;
use crate::trace::Tracer;

/// Simulated horizon of each seed (seconds).
const HORIZON: f64 = 0.06;
/// Seeds per batch.
const SEEDS: u64 = 8;
/// Worker threads of the batch runner.
const WIDTH: usize = 2;

pub struct FabricIncast {
    seed: u64,
    spec: TopoSpec,
    traffic: Traffic,
    /// Events, PAUSE assertions and drops summed over the split seeds.
    events: u64,
    pauses: u64,
    drops: u64,
}

impl FabricIncast {
    pub fn new(seed: u64) -> Self {
        parkit::set_threads(WIDTH);
        Self {
            seed,
            spec: TopoSpec::leaf_spine(64, 8, 33),
            traffic: Traffic::Incast { senders: 2048, dst: usize::MAX, load: 4.0 },
            events: 0,
            pauses: 0,
            drops: 0,
        }
    }

    fn compile(&self) -> NetConfig {
        compile(&self.spec, &self.traffic, HORIZON).expect("the benchmark fabric compiles")
    }

    fn batch(&self, base: NetConfig) -> NetBatchConfig {
        let mut cfg = NetBatchConfig::quick(base, SEEDS);
        cfg.seeds = (0..SEEDS).map(|i| self.seed * 1000 + i).collect();
        cfg
    }
}

fn failed(report: &NetBatchReport) -> u64 {
    report.outcomes.iter().filter(|o| !matches!(o, NetSeedOutcome::Completed(_))).count() as u64
}

impl Workload for FabricIncast {
    fn ops_per_unit(&self) -> u64 {
        SEEDS
    }

    fn width(&self) -> usize {
        WIDTH
    }

    fn setup(&mut self) -> f64 {
        let t0 = Instant::now();
        let base = self.compile();
        let setup_s = secs(t0);
        black_box(base);
        setup_s
    }

    fn unit(&mut self) -> Unit {
        let t0 = Instant::now();
        let report = run_net_batch(&self.batch(self.compile()));
        Unit { run_s: secs(t0), failed: failed(&report) }
    }

    fn traced_unit(&mut self, tr: &mut Tracer) {
        let root = tr.begin("unit");
        let base = tr.span("topo.compile", || self.compile());
        let cfg = self.batch(base);
        tr.span("batch.net", || black_box(run_net_batch(&cfg)));
        tr.end(root);

        // The batch re-executed seed by seed through the engine's own
        // construction, step loop and finalisation.
        let split = tr.begin("split");
        for &seed in &cfg.seeds {
            let span = tr.begin("batch.seed");
            let net = seeded_net_config(&cfg, seed);
            let mut sim =
                tr.span("net.build", || NetSim::try_new(net)).expect("seeded fabric builds");
            tr.span("net.step", || while sim.step() {});
            self.events += sim.events_popped();
            let report = tr.span("net.finish", || sim.finish());
            tr.end(span);
            self.pauses += report.pause_counts.iter().sum::<u64>();
            self.drops += report.flows.iter().map(|f| f.dropped_frames).sum::<u64>();
        }
        tr.end(split);
    }

    fn layers(&mut self, tr: &Tracer, units: usize, out: &mut Layers) {
        let per_unit = |v: u64| v as f64 / units.max(1) as f64;
        out.spans(tr, units, &["topo.compile", "net.build", "net.step", "net.finish"]);
        out.set("net.events", per_unit(self.events));
        out.set("net.ns_per_event", out.get("net.step_s") * 1e9 / per_unit(self.events));
        out.set("pause.assertions", per_unit(self.pauses));
        out.set("pause.frames_dropped", per_unit(self.drops));
        let cfg = self.batch(self.compile());
        out.set("topo.hosts", cfg.base.hosts as f64);
        out.set("topo.switches", cfg.base.switches.len() as f64);
        out.set("topo.flows", cfg.base.flows.len() as f64);
        // Scheduler counts from one seed at `Summary`: the telemetry's
        // per-flow series make a whole batch of them too slow to trace.
        let first = seeded_net_config(&cfg, cfg.seeds[0]);
        let report =
            NetSim::new(first).with_telemetry_sink(Telemetry::new(TelemetryLevel::Summary)).run();
        SimCounters::from_telemetry(report.telemetry.as_ref().expect("telemetry requested"), 1)
            .fill_sched(out);
        fill_batch(tr, SEEDS as usize, "batch.net", WIDTH, out);
        let time_batch = |threads| {
            at_width(threads, WIDTH, || {
                let t0 = Instant::now();
                black_box(run_net_batch(&cfg));
                secs(t0)
            })
        };
        out.set("parkit.width", WIDTH as f64);
        out.set("parkit.efficiency", efficiency(time_batch(1), time_batch(WIDTH), WIDTH));
        out.set("trace.unattributed_frac", unattributed_split(tr, "batch.net", WIDTH));
    }

    fn check(&mut self) -> Vec<String> {
        let cfg = self.batch(self.compile());
        let serial = at_width(1, WIDTH, || run_net_batch(&cfg));
        let parallel = run_net_batch(&cfg);
        let mut failures = Vec::new();
        if !serial.completed().eq(parallel.completed()) || failed(&serial) != failed(&parallel) {
            failures.push("NetReports differ between widths 1 and 2".into());
        }
        if failed(&parallel) > 0 {
            failures.push(format!("{} of {SEEDS} seeds did not complete", failed(&parallel)));
        }
        failures
    }
}
