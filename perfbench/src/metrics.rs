//! The metric catalogue. `BENCHMARK.json` lists exactly these names
//! (a unit test keeps the two in step).

use std::collections::BTreeMap;

use crate::trace::Tracer;

/// End-to-end metrics: `(name, unit)`, reported by every untraced run.
/// The unit-time tail (`run_s.p90`) is printed beside them but is not
/// one of them: on a shared two-core host its run-to-run spread exceeds
/// any bound a regression check could use.
pub const END_TO_END: &[(&str, &str)] =
    &[("setup_s", "s"), ("run_s.p50", "s"), ("ops_per_s", "1/s"), ("peak_rss_mb", "MiB")];

/// Per-layer metrics: `(name, unit)`, reported by every traced run. A
/// layer the workload never calls reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("sim.build_s", "s"),
    ("sim.step_s", "s"),
    ("sim.finish_s", "s"),
    ("sim.events", "count"),
    ("sim.ns_per_event", "ns"),
    ("net.build_s", "s"),
    ("net.step_s", "s"),
    ("net.finish_s", "s"),
    ("net.events", "count"),
    ("net.ns_per_event", "ns"),
    ("sched.scheduled", "count"),
    ("sched.cascades", "count"),
    ("sched.overflow_parked", "count"),
    ("sched.max_pending", "count"),
    ("sched.replay_ns_per_op", "ns"),
    ("cp.bcn_messages", "count"),
    ("cp.ns_per_arrival", "ns"),
    ("rp.ns_per_bcn", "ns"),
    ("rp.busy_frac", "ratio"),
    ("pause.assertions", "count"),
    ("pause.frames_dropped", "count"),
    ("faults.injected", "count"),
    ("hybrid.epochs", "count"),
    ("hybrid.analytic_frac", "ratio"),
    ("hybrid.ff_wall_s", "s"),
    ("hybrid.packet_wall_s", "s"),
    ("propagate.hits", "count"),
    ("propagate.misses", "count"),
    ("propagate.evictions", "count"),
    ("propagate.hit_ratio", "ratio"),
    ("propagate.build_ns", "ns"),
    ("query.decode_s", "s"),
    ("query.dedup_s", "s"),
    ("query.evaluate_s", "s"),
    ("query.encode_s", "s"),
    ("query.distinct_frac", "ratio"),
    ("stability.trace_s", "s"),
    ("stability.legs", "count"),
    ("stability.exact_s", "s"),
    ("stability.criteria_s", "s"),
    ("simulate.fluid_s", "s"),
    ("cases.classify_s", "s"),
    ("linear_baseline.analyze_s", "s"),
    ("batch.seeds", "count"),
    ("batch.seed_s.p50", "s"),
    ("batch.seed_s.max", "s"),
    ("batch.imbalance", "ratio"),
    ("batch.parallel_eff", "ratio"),
    ("parkit.width", "count"),
    ("parkit.efficiency", "ratio"),
    ("checkpoint.create_s", "s"),
    ("checkpoint.encode_s", "s"),
    ("checkpoint.decode_s", "s"),
    ("checkpoint.bytes_per_seed", "bytes"),
    ("checkpoint.resume_s", "s"),
    ("checkpoint.write_overhead_s", "s"),
    ("topo.compile_s", "s"),
    ("topo.hosts", "count"),
    ("topo.switches", "count"),
    ("topo.flows", "count"),
    ("trace.overhead_frac", "ratio"),
    ("trace.unattributed_frac", "ratio"),
];

/// The unit of a catalogued metric.
pub fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|(n, _)| *n == name)
        .map(|&(_, u)| u)
        .unwrap_or_else(|| panic!("metric `{name}` is not in the catalogue"))
}

/// Per-layer values of one traced run, keyed by catalogue name.
#[derive(Debug, Default)]
pub struct Layers {
    values: BTreeMap<&'static str, f64>,
}

impl Layers {
    /// Sets a catalogued metric.
    ///
    /// # Panics
    ///
    /// Panics on a name missing from [`PER_LAYER`]: a driver may only
    /// report what `BENCHMARK.json` declares.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(PER_LAYER.iter().any(|(n, _)| *n == name), "`{name}` is not a per-layer metric");
        self.values.insert(name, value);
    }

    /// Sets each `<stem>_s` metric to the per-unit self time of the spans
    /// named `<stem>`.
    pub fn spans(&mut self, tr: &Tracer, units: usize, stems: &[&'static str]) {
        let self_times = tr.self_times();
        for stem in stems {
            let (name, _) = PER_LAYER
                .iter()
                .find(|(n, _)| n.strip_suffix("_s") == Some(stem))
                .unwrap_or_else(|| panic!("no `{stem}_s` metric"));
            self.set(name, self_times.get(stem).copied().unwrap_or(0.0) / units.max(1) as f64);
        }
    }

    /// The value of `name`, 0 when the workload never set it.
    pub fn get(&self, name: &str) -> f64 {
        self.values.get(name).copied().unwrap_or(0.0)
    }

    /// Names the workload set (for the catalogue test).
    #[cfg(test)]
    pub fn names(&self) -> impl Iterator<Item = &'static str> + '_ {
        self.values.keys().copied()
    }
}
