//! `limit_cycle_hybrid`: the `limit_cycle` inputs through the hybrid
//! fluid–packet engine. Most of the wall time is fast-forward epochs
//! (propagator legs and guard checks); the packet engine runs only the
//! transients.

use std::hint::black_box;
use std::time::Instant;

use bcn::propagate::cache_stats;
use bcn::BcnParams;
use dcesim::hybrid::{HybridGuards, HybridSim, DIVERGENCE_BOUND_FRAC};
use dcesim::sim::{fluid_validation_params, SimConfig, Simulation};
use telemetry::{Telemetry, TelemetryLevel};

use super::{
    add_cache, cp_rp_ns, fill_cache, fluid_config, propagator_build_ns, propagator_key, secs,
    seeded, unattributed_unit, SimCounters, Unit, Workload,
};
use crate::metrics::Layers;
use crate::trace::Tracer;

/// Simulated horizon of one run (seconds).
const HORIZON: f64 = 1.5;
/// Queue minima are compared after this start-up window (seconds).
const WARMUP: f64 = 0.1;

pub struct LimitCycleHybrid {
    params: BcnParams,
    cfg: SimConfig,
    cache: bcn::propagate::CacheStats,
    ff_wall: f64,
    packet_wall: f64,
}

impl LimitCycleHybrid {
    pub fn new(seed: u64) -> Self {
        Self {
            params: fluid_validation_params(),
            cfg: seeded(fluid_config(HORIZON), seed),
            cache: bcn::propagate::CacheStats::default(),
            ff_wall: 0.0,
            packet_wall: 0.0,
        }
    }
}

impl Workload for LimitCycleHybrid {
    fn ops_per_unit(&self) -> u64 {
        1
    }

    fn setup(&mut self) -> f64 {
        let (params, cfg) = (self.params.clone(), self.cfg.clone());
        let t0 = Instant::now();
        let sim = HybridSim::new(params, cfg, HybridGuards::default());
        let setup_s = secs(t0);
        black_box(sim);
        setup_s
    }

    fn unit(&mut self) -> Unit {
        let (params, cfg) = (self.params.clone(), self.cfg.clone());
        let t0 = Instant::now();
        let mut sim = HybridSim::new(params, cfg, HybridGuards::default());
        while sim.step() {}
        black_box(sim.finish());
        Unit { run_s: secs(t0), failed: 0 }
    }

    fn traced_unit(&mut self, tr: &mut Tracer) {
        let (params, cfg) = (self.params.clone(), self.cfg.clone());
        let root = tr.begin("unit");
        let before = cache_stats();
        let mut sim = tr.span("sim.build", || HybridSim::new(params, cfg, HybridGuards::default()));
        self.cache = add_cache(self.cache, cache_stats().delta_since(before));
        // One clock read per step: a step that commits an epoch is
        // fast-forward time, every other step is packet time.
        let (mut ff, mut packet) = (0.0, 0.0);
        tr.span("hybrid.step", || loop {
            let epochs = sim.stats().epochs;
            let t = Instant::now();
            let more = sim.step();
            let dt = secs(t);
            if sim.stats().epochs == epochs {
                packet += dt;
            } else {
                ff += dt;
            }
            if !more {
                break;
            }
        });
        tr.span("sim.finish", || black_box(sim.finish()));
        tr.end(root);
        self.ff_wall += ff;
        self.packet_wall += packet;
    }

    fn layers(&mut self, tr: &Tracer, units: usize, out: &mut Layers) {
        let per_unit = units.max(1) as f64;
        out.spans(tr, units, &["sim.build", "sim.finish"]);
        let report = HybridSim::new(self.params.clone(), self.cfg.clone(), HybridGuards::default())
            .with_telemetry_sink(Telemetry::new(TelemetryLevel::Summary))
            .run();
        let tel = report.sim.telemetry.as_ref().expect("telemetry requested");
        SimCounters::from_telemetry(tel, 1).fill("sim.events", out);
        let stats = report.stats;
        out.set("hybrid.epochs", stats.epochs as f64);
        out.set(
            "hybrid.analytic_frac",
            stats.ff_ns as f64 / (stats.ff_ns + stats.packet_ns) as f64,
        );
        out.set("hybrid.ff_wall_s", self.ff_wall / per_unit);
        out.set("hybrid.packet_wall_s", self.packet_wall / per_unit);
        fill_cache(self.cache, units, out);
        out.set("propagate.build_ns", propagator_build_ns(&[propagator_key(&self.params)]));
        let (cp_ns, rp_ns) = cp_rp_ns(&self.cfg.control, self.cfg.flows[0].initial_rate);
        out.set("cp.ns_per_arrival", cp_ns);
        out.set("rp.ns_per_bcn", rp_ns);
        let packet_ns = self.packet_wall * 1e9 / per_unit;
        let feedback = report.sim.metrics.feedback_messages as f64;
        out.set("rp.busy_frac", if packet_ns > 0.0 { feedback * rp_ns / packet_ns } else { 0.0 });
        out.set("parkit.width", 1.0);
        out.set("trace.unattributed_frac", unattributed_unit(tr));
    }

    fn check(&mut self) -> Vec<String> {
        let pure = Simulation::new(self.cfg.clone()).run().metrics;
        let hybrid =
            HybridSim::new(self.params.clone(), self.cfg.clone(), HybridGuards::default()).run();
        let q = &hybrid.sim.metrics.queue;
        let d_max = (pure.queue.max() - q.max()).abs();
        let d_min = (pure.queue.min_after(WARMUP) - q.min_after(WARMUP)).abs();
        let bound = DIVERGENCE_BOUND_FRAC * self.params.q0;
        let mut failures = Vec::new();
        if hybrid.stats.epochs == 0 {
            failures.push("hybrid run committed no fast-forward epoch".into());
        }
        if d_max > bound || d_min > bound {
            failures.push(format!(
                "queue extrema diverge from the pure run (max {d_max:.0}, min {d_min:.0} bits; \
                 bound {bound:.0})"
            ));
        }
        failures
    }
}
