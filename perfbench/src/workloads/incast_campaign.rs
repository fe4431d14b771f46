//! `incast_16_campaign`: a checkpointed hybrid batch of the drop- and
//! PAUSE-heavy 16-flow incast with live faults — what
//! `dcebcn batch --engine hybrid --faults ... --checkpoint-dir` does.
//! The guards refuse every epoch, so the packet engine runs every seed,
//! and it is the only workload that writes and reads the checkpoint
//! journal.

use std::fs;
use std::path::PathBuf;
use std::time::Instant;

use bcn::propagate::cache_stats;
use dcesim::batch::{
    run_batch, run_batch_checkpointed, seeded_config, BatchConfig, BatchReport, SeedOutcome,
};
use dcesim::checkpoint::{
    decode_seed_outcome, encode_seed_outcome, BatchCheckpoint, CheckpointError,
};
use dcesim::faults::FaultConfig;
use dcesim::hybrid::{HybridSim, HybridSpec};
use dcesim::sim::fluid_validation_params;
use dcesim::workload;
use telemetry::TelemetryLevel;

use super::{
    add_cache, at_width, cp_rp_ns, efficiency, fill_batch, fill_cache, fluid_config, median_of,
    propagator_build_ns, propagator_key, scratch_dir, secs, unattributed_split, SimCounters, Unit,
    Workload, FRAME,
};
use crate::metrics::Layers;
use crate::trace::Tracer;

/// Simulated horizon of each seed (seconds).
const HORIZON: f64 = 0.05;
/// Seeds per batch.
const SEEDS: u64 = 8;
/// Worker threads of the batch runner.
const WIDTH: usize = 2;

pub struct IncastCampaign {
    cfg: BatchConfig,
    journals: PathBuf,
    next_journal: u64,
    cache: bcn::propagate::CacheStats,
    bytes: usize,
    encoded: usize,
}

/// The fault mix of the campaign: lossy and corrupting feedback plus
/// light data loss.
fn faults() -> FaultConfig {
    let mut f = FaultConfig::none();
    f.seed = 7;
    f.feedback_loss = 0.05;
    f.feedback_corrupt = 0.02;
    f.data_loss = 0.005;
    f
}

/// Seeds of `report` (by index) whose outcome did not complete.
fn incomplete(report: &BatchReport) -> Vec<bool> {
    report.outcomes.iter().map(|o| !matches!(o, SeedOutcome::Completed(_))).collect()
}

impl IncastCampaign {
    pub fn new(seed: u64) -> Self {
        let mut params = fluid_validation_params();
        let mut base = fluid_config(HORIZON);
        base.flows = workload::incast(16, params.capacity / 4.0, 300.0 * FRAME);
        base.faults = faults();
        params.n_flows = 16;
        let mut cfg = BatchConfig::quick(base, SEEDS);
        cfg.seeds = (0..SEEDS).map(|i| seed * 1000 + i).collect();
        cfg.hybrid = Some(HybridSpec::new(params));
        parkit::set_threads(WIDTH);
        Self {
            cfg,
            journals: scratch_dir(),
            next_journal: 0,
            cache: bcn::propagate::CacheStats::default(),
            bytes: 0,
            encoded: 0,
        }
    }

    /// A journal directory no earlier unit used.
    fn journal(&mut self) -> PathBuf {
        self.next_journal += 1;
        let dir = self.journals.join(format!("journal-{}", self.next_journal));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    /// One plain batch at `TelemetryLevel::Summary`: the counts.
    fn counting_pass(&self) -> BatchReport {
        let mut cfg = self.cfg.clone();
        cfg.level = TelemetryLevel::Summary;
        run_batch(&cfg)
    }

    fn spec(&self) -> &HybridSpec {
        self.cfg.hybrid.as_ref().expect("campaign runs the hybrid engine")
    }

    /// A journalled run into `dir`, then a resume of the finished
    /// journal: the first and the resumed report.
    fn write_and_resume(
        &self,
        dir: &std::path::Path,
    ) -> Result<(BatchReport, BatchReport), CheckpointError> {
        let ck = BatchCheckpoint::create(dir, &self.cfg)?;
        let first = run_batch_checkpointed(&self.cfg, &ck)?;
        drop(ck);
        let ck = BatchCheckpoint::resume(dir, &self.cfg)?;
        let resumed = run_batch_checkpointed(&self.cfg, &ck)?;
        Ok((first, resumed))
    }
}

impl Drop for IncastCampaign {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.journals);
    }
}

impl Workload for IncastCampaign {
    fn ops_per_unit(&self) -> u64 {
        SEEDS
    }

    fn width(&self) -> usize {
        WIDTH
    }

    fn setup(&mut self) -> f64 {
        let dir = self.journal();
        let t0 = Instant::now();
        let ck = BatchCheckpoint::create(&dir, &self.cfg);
        let setup_s = secs(t0);
        drop(ck);
        let _ = fs::remove_dir_all(&dir);
        setup_s
    }

    fn unit(&mut self) -> Unit {
        let dir = self.journal();
        let t0 = Instant::now();
        let result = self.write_and_resume(&dir);
        let run_s = secs(t0);
        let _ = fs::remove_dir_all(&dir);
        match result {
            Ok((first, resumed)) => {
                let failed = incomplete(&first)
                    .iter()
                    .zip(incomplete(&resumed))
                    .filter(|&(a, b)| *a || b)
                    .count() as u64;
                Unit { run_s, failed }
            }
            Err(e) => {
                eprintln!("incast_16_campaign: checkpoint I/O failed: {e}");
                Unit { run_s, failed: SEEDS }
            }
        }
    }

    fn traced_unit(&mut self, tr: &mut Tracer) {
        let dir = self.journal();
        let cfg = &self.cfg;
        let root = tr.begin("unit");
        let ck = tr.span("checkpoint.create", || BatchCheckpoint::create(&dir, cfg));
        let ck = ck.expect("checkpoint directory");
        tr.span("batch.journalled", || run_batch_checkpointed(cfg, &ck)).expect("journal write");
        drop(ck);
        tr.span("checkpoint.resume", || {
            let ck = BatchCheckpoint::resume(&dir, cfg)?;
            run_batch_checkpointed(cfg, &ck)
        })
        .expect("journal resume");
        tr.end(root);
        let _ = fs::remove_dir_all(&dir);

        tr.span("batch.plain", || run_batch(cfg));

        // The journalled run re-executed seed by seed: engine, then the
        // shard encoding `BatchCheckpoint::record` performs.
        let spec = self.spec().clone();
        let mut shards = Vec::new();
        let split = tr.begin("split");
        for &seed in &cfg.seeds {
            let span = tr.begin("batch.seed");
            let sc = seeded_config(cfg, seed);
            let before = cache_stats();
            let mut sim =
                tr.span("sim.build", || HybridSim::new(spec.params.clone(), sc, spec.guards));
            self.cache = add_cache(self.cache, cache_stats().delta_since(before));
            tr.span("sim.step", || while sim.step() {});
            let report = tr.span("sim.finish", || sim.finish());
            tr.end(span);
            let outcome = SeedOutcome::Completed(Box::new(report.sim));
            let mut text = String::new();
            tr.span("checkpoint.encode", || encode_seed_outcome(seed, &outcome, &mut text));
            shards.push(text);
        }
        tr.end(split);
        for text in &shards {
            let decoded = tr.span("checkpoint.decode", || decode_seed_outcome(&mut text.lines()));
            decoded.expect("shard decodes");
            self.bytes += text.len();
            self.encoded += 1;
        }
    }

    fn layers(&mut self, tr: &Tracer, units: usize, out: &mut Layers) {
        out.spans(
            tr,
            units,
            &[
                "sim.build",
                "sim.step",
                "sim.finish",
                "checkpoint.create",
                "checkpoint.encode",
                "checkpoint.decode",
                "checkpoint.resume",
            ],
        );
        let counted = self.counting_pass();
        let tel = counted.telemetry.as_ref().expect("summary telemetry");
        let counters = SimCounters::from_telemetry(tel, SEEDS);
        counters.fill("sim.events", out);
        let step_ns = out.get("sim.step_s") * 1e9;
        out.set("sim.ns_per_event", step_ns / counters.events());
        out.set("hybrid.epochs", tel.metrics.counter_by_name("hybrid.epochs").unwrap_or(0) as f64);
        out.set("checkpoint.bytes_per_seed", self.bytes as f64 / self.encoded.max(1) as f64);
        let total = |name| tr.durations(name).iter().sum::<f64>();
        out.set(
            "checkpoint.write_overhead_s",
            (total("batch.journalled") - total("batch.plain")) / units.max(1) as f64,
        );
        fill_batch(tr, SEEDS as usize, "batch.plain", WIDTH, out);
        let time_plain = |threads| {
            median_of(3, || {
                at_width(threads, WIDTH, || {
                    let t0 = Instant::now();
                    std::hint::black_box(run_batch(&self.cfg));
                    secs(t0)
                })
            })
        };
        out.set("parkit.width", WIDTH as f64);
        out.set("parkit.efficiency", efficiency(time_plain(1), time_plain(WIDTH), WIDTH));
        fill_cache(self.cache, units, out);
        out.set("propagate.build_ns", propagator_build_ns(&[propagator_key(&self.spec().params)]));
        let base = &self.cfg.base;
        let (cp_ns, rp_ns) = cp_rp_ns(&base.control, base.flows[0].initial_rate);
        out.set("cp.ns_per_arrival", cp_ns);
        out.set("rp.ns_per_bcn", rp_ns);
        let feedback: u64 = counted.completed().map(|(_, r)| r.metrics.feedback_messages).sum();
        out.set("rp.busy_frac", feedback as f64 * rp_ns / step_ns);
        out.set("trace.unattributed_frac", unattributed_split(tr, "batch.journalled", WIDTH));
    }

    fn check(&mut self) -> Vec<String> {
        let mut failures = Vec::new();
        let dir = self.journal();
        let plain = run_batch(&self.cfg);
        match self.write_and_resume(&dir) {
            Ok((_, resumed)) => {
                let same = plain.completed().eq(resumed.completed())
                    && plain.failures().eq(resumed.failures())
                    && plain.timed_out().eq(resumed.timed_out());
                if !same {
                    failures.push("resumed outcomes differ from a plain run_batch".into());
                }
                if resumed.supervisor.resumed != SEEDS {
                    failures.push(format!(
                        "resume restored {} of {SEEDS} seeds",
                        resumed.supervisor.resumed
                    ));
                }
            }
            Err(e) => failures.push(format!("checkpoint I/O failed: {e}")),
        }
        let _ = fs::remove_dir_all(&dir);
        let tel = self.counting_pass().telemetry.expect("summary telemetry");
        let epochs = tel.metrics.counter_by_name("hybrid.epochs").unwrap_or(0);
        if epochs != 0 {
            failures.push(format!("the guards admitted {epochs} epoch(s) on the incast"));
        }
        failures
    }
}
