//! `limit_cycle`: Fig. 7's limit cycle on the packet engine. The event
//! loop, the shallow scheduler and BCN sampling/rate updates do all the
//! work; routing, PAUSE, the hybrid controller and the codecs do none.

use std::hint::black_box;
use std::time::Instant;

use dcesim::sched::Scheduler;
use dcesim::sim::{SimConfig, Simulation};
use telemetry::{Telemetry, TelemetryLevel};

use super::{cp_rp_ns, fluid_config, secs, seeded, unattributed_unit, SimCounters, Unit, Workload};
use crate::metrics::Layers;
use crate::trace::Tracer;

/// Simulated horizon of one run (seconds).
const HORIZON: f64 = 2.0;

pub struct LimitCycle {
    cfg: SimConfig,
}

impl LimitCycle {
    pub fn new(seed: u64) -> Self {
        Self { cfg: seeded(fluid_config(HORIZON), seed) }
    }
}

impl Workload for LimitCycle {
    fn ops_per_unit(&self) -> u64 {
        1
    }

    fn setup(&mut self) -> f64 {
        let cfg = self.cfg.clone();
        let t0 = Instant::now();
        let sim = Simulation::new(cfg);
        let setup_s = secs(t0);
        black_box(sim);
        setup_s
    }

    fn unit(&mut self) -> Unit {
        let cfg = self.cfg.clone();
        let t0 = Instant::now();
        let mut sim = Simulation::new(cfg);
        while sim.step() {}
        black_box(sim.finish());
        Unit { run_s: secs(t0), failed: 0 }
    }

    fn traced_unit(&mut self, tr: &mut Tracer) {
        let cfg = self.cfg.clone();
        let root = tr.begin("unit");
        let mut sim = tr.span("sim.build", || Simulation::new(cfg));
        tr.span("sim.step", || while sim.step() {});
        tr.span("sim.finish", || black_box(sim.finish()));
        tr.end(root);
    }

    fn layers(&mut self, tr: &Tracer, units: usize, out: &mut Layers) {
        out.spans(tr, units, &["sim.build", "sim.step", "sim.finish"]);
        let report =
            Simulation::with_telemetry(self.cfg.clone(), Telemetry::new(TelemetryLevel::Summary))
                .run();
        let counters =
            SimCounters::from_telemetry(report.telemetry.as_ref().expect("telemetry"), 1);
        counters.fill("sim.events", out);
        let step_ns = out.get("sim.step_s") * 1e9;
        out.set("sim.ns_per_event", step_ns / counters.events());
        let (cp_ns, rp_ns) = cp_rp_ns(&self.cfg.control, self.cfg.flows[0].initial_rate);
        out.set("cp.ns_per_arrival", cp_ns);
        out.set("rp.ns_per_bcn", rp_ns);
        out.set("rp.busy_frac", report.metrics.feedback_messages as f64 * rp_ns / step_ns);
        out.set("parkit.width", 1.0);
        out.set("trace.unattributed_frac", unattributed_unit(tr));
    }

    fn check(&mut self) -> Vec<String> {
        let run = |scheduler| {
            let mut cfg = self.cfg.clone();
            cfg.scheduler = scheduler;
            let report = Simulation::new(cfg).run();
            (report.metrics, report.final_rates)
        };
        if run(Scheduler::Wheel) == run(Scheduler::Heap) {
            Vec::new()
        } else {
            vec!["wheel and heap runs differ in SimMetrics or final rates".into()]
        }
    }
}
