//! The subcommand implementations; each renders a human-readable report
//! string (and may write CSV artifacts when `--out` is given).

use std::fmt::Write as _;

use bcn::cases::classify_params;
use bcn::simulate::{fluid_trajectory_telemetry, FluidOptions};
use bcn::stability::{
    criterion, exact_verdict, exact_verdicts, theorem1_holds, theorem1_required_buffer,
    StabilityVerdict,
};
use bcn::transient;
use bcn::{linear_baseline, BcnFluid};
use dcesim::batch::{
    run_batch, run_batch_checkpointed, seeded_config, BatchConfig, BatchReport, NetBatchConfig,
    SeedBatch, PANIC_AFTER_STEPS,
};
use dcesim::checkpoint::{
    encode_replay_context, replay_spec_from_postmortem, sim_config_digest, BatchCheckpoint,
};
use dcesim::faults::FaultCounts;
use dcesim::hybrid::{HybridSim, HybridSpec, HybridStats};
use dcesim::net::{NetReport, NetSim};
use dcesim::sim::{SimConfig, SimReport, Simulation};
use dcesim::time::{Duration, Time};
use dcesim::topo::{compile, TopoSpec, Traffic};
use plotkit::csv::CsvWriter;
use plotkit::{Csv, Table};
use telemetry::{Telemetry, TelemetryLevel};

use crate::flags::{
    engine_choice, faults_from, hybrid_guards_from, params_from, reject_feedback_faults,
    scheduler_choice, sim_engine_choice, telemetry_level, topo_request, Flags, SimEngine,
};
use crate::{report as report_pipeline, CliError};

/// Renders the counters and histograms a run collected as aligned
/// tables (empty metrics are omitted).
fn render_summary(tel: &Telemetry) -> String {
    let mut out = String::new();
    if !tel.enabled() {
        let _ = writeln!(out, "telemetry: off (nothing recorded)");
        return out;
    }
    let _ = writeln!(out, "telemetry summary (level = {}):", tel.level());
    let mut counters = Table::new(&["counter", "value"]);
    for (name, v) in tel.metrics.counters() {
        if v > 0 {
            counters.row(&[name.to_string(), v.to_string()]);
        }
    }
    if !counters.is_empty() {
        let _ = write!(out, "{counters}");
    }
    let mut hists = Table::new(&["histogram", "count", "p50", "p90", "p99", "max"]);
    for (name, h) in tel.metrics.histograms() {
        if h.count() > 0 {
            hists.row(&[
                name.to_string(),
                h.count().to_string(),
                format!("{:.4e}", h.p50()),
                format!("{:.4e}", h.p90()),
                format!("{:.4e}", h.p99()),
                format!("{:.4e}", h.max()),
            ]);
        }
    }
    if !hists.is_empty() {
        let _ = write!(out, "{hists}");
    }
    if tel.level().traces() {
        let _ = writeln!(
            out,
            "trace: {} events{}",
            tel.trace.len(),
            if tel.trace.overwritten() > 0 {
                format!(" ({} oldest overwritten)", tel.trace.overwritten())
            } else {
                String::new()
            }
        );
    }
    out
}

/// [`render_summary`] of a run that recorded telemetry; empty when it
/// recorded none.
fn recorded_summary(tel: Option<&Telemetry>) -> String {
    tel.filter(|t| t.enabled()).map(render_summary).unwrap_or_default()
}

/// Renders the non-zero per-class injection tallies (empty string for a
/// fault-free run).
fn render_fault_counts(c: &FaultCounts) -> String {
    let mut out = String::new();
    if c.total() == 0 {
        return out;
    }
    let _ = writeln!(out, "injected faults ({} total):", c.total());
    for (name, v) in [
        ("feedback dropped", c.feedback_dropped),
        ("feedback corrupted", c.feedback_corrupted),
        ("corrupt + undecodable", c.feedback_corrupt_lost),
        ("feedback delayed", c.feedback_delayed),
        ("feedback reordered", c.feedback_reordered),
        ("data frames lost", c.data_frames_lost),
        ("link-flap deferrals", c.link_flap_deferrals),
        ("PAUSE storms", c.pause_storms),
    ] {
        if v > 0 {
            let _ = writeln!(out, "  {name}: {v}");
        }
    }
    out
}

/// Resolves `--engine` / `--hybrid-guard` for a packet-level command
/// into an optional [`HybridSpec`] (`None` = the pure packet engine).
/// `--hybrid-guard` without `--engine hybrid` is a usage error.
fn hybrid_spec_from(flags: &Flags, p: &bcn::BcnParams) -> Result<Option<HybridSpec>, CliError> {
    match sim_engine_choice(flags)? {
        SimEngine::Hybrid => {
            Ok(Some(HybridSpec { params: p.clone(), guards: hybrid_guards_from(flags)? }))
        }
        SimEngine::Packet => {
            if flags.get("hybrid-guard").is_some() {
                return Err(CliError::Usage(
                    "--hybrid-guard only applies with --engine hybrid".into(),
                ));
            }
            Ok(None)
        }
    }
}

/// Renders the hybrid epoch accounting. Empty when no epoch committed,
/// so an `always-packet` (or never-quiescent) run prints byte-identically
/// to the pure packet engine.
fn render_hybrid_stats(stats: &HybridStats) -> String {
    if stats.epochs == 0 {
        return String::new();
    }
    let total = stats.ff_ns + stats.packet_ns;
    #[allow(clippy::cast_precision_loss)]
    let frac = if total > 0 { stats.ff_ns as f64 / total as f64 } else { 0.0 };
    format!(
        "hybrid engine: {} epoch(s) fast-forwarded ({} reseeds), {:.1}% of simulated time \
         analytic\n",
        stats.epochs,
        stats.reseeds,
        frac * 100.0
    )
}

/// Parses `--faults` for a single-run command, where `panic-seed` has no
/// meaning.
fn single_run_faults(flags: &Flags) -> Result<dcesim::faults::FaultConfig, CliError> {
    let (faults, panic_seeds) = faults_from(flags)?;
    if !panic_seeds.is_empty() {
        return Err(CliError::Usage("--faults panic-seed only applies to `batch`".into()));
    }
    Ok(faults)
}

/// `dcebcn analyze`: classification + criteria + transient metrics.
///
/// # Errors
///
/// Propagates flag and validation failures.
pub(crate) fn analyze(args: &[String]) -> Result<String, CliError> {
    let flags = Flags::parse(args)?;
    let p = params_from(&flags)?;
    flags.finish("analyze")?;

    let mut out = String::new();
    let analysis = classify_params(&p);
    let _ = writeln!(out, "case:           {}", analysis.case);
    let _ = writeln!(
        out,
        "region shapes:  increase = {}, decrease = {}",
        analysis.increase, analysis.decrease
    );
    let _ = writeln!(
        out,
        "thresholds:     a = {:.4e} vs a* = {:.4e}; b = {:.4e} vs b* = {:.4e}",
        p.a(),
        analysis.a_threshold,
        p.b(),
        analysis.b_threshold
    );
    let _ = writeln!(
        out,
        "linear baseline [Lu et al. 2006]: {}",
        if linear_baseline::analyze(&p).overall_stable {
            "stable (always; blind to B)"
        } else {
            "unstable"
        }
    );
    match criterion(&p) {
        StabilityVerdict::StronglyStable(j) => {
            let _ = writeln!(out, "strong stability: GUARANTEED ({j:?})");
        }
        StabilityVerdict::NotGuaranteed(reason) => {
            let _ = writeln!(out, "strong stability: NOT guaranteed — {reason}");
        }
    }
    let exact = exact_verdict(&p, 40);
    let _ = writeln!(
        out,
        "exact trace:    strongly stable = {}, q in [{:.4e}, {:.4e}] bits",
        exact.strongly_stable,
        p.q0 + exact.min_x,
        p.q0 + exact.max_x
    );
    let m = transient::analyze(&p);
    let _ = writeln!(
        out,
        "transients:     overshoot = {:.1}% of q0, round = {} s, rho = {}, settle(5%) = {} s",
        m.overshoot_ratio * 100.0,
        m.round_period.map_or("-".into(), |v| format!("{v:.5}")),
        m.rho.map_or("-".into(), |v| format!("{v:.5}")),
        m.settling_time.map_or("-".into(), |v| format!("{v:.3}")),
    );
    Ok(out)
}

/// `dcebcn buffer`: Theorem 1 vs the exact requirement.
///
/// # Errors
///
/// Propagates flag and validation failures.
pub(crate) fn buffer(args: &[String]) -> Result<String, CliError> {
    let flags = Flags::parse(args)?;
    let p = params_from(&flags)?;
    flags.finish("buffer")?;
    let exact = exact_verdict(&p, 40);
    let exact_need = p.q0 + exact.max_x;
    let thm = theorem1_required_buffer(&p);
    let mut out = String::new();
    let _ = writeln!(out, "configured buffer:        {:.4e} bits", p.buffer);
    let _ = writeln!(out, "Theorem 1 requires:       {thm:.4e} bits");
    let _ = writeln!(out, "exact trajectory needs:   {exact_need:.4e} bits");
    let _ = writeln!(
        out,
        "Theorem 1 verdict:        {}",
        if theorem1_holds(&p) { "buffer sufficient" } else { "buffer INSUFFICIENT" }
    );
    let _ = writeln!(
        out,
        "conservatism:             Theorem 1 asks {:.2}% above the exact need",
        (thm / exact_need - 1.0) * 100.0
    );
    Ok(out)
}

/// `dcebcn simulate`: integrate the switched fluid model; optional CSV.
///
/// # Errors
///
/// Propagates flag, validation, integration, and I/O failures.
pub(crate) fn simulate(args: &[String]) -> Result<String, CliError> {
    let flags = Flags::parse(args)?;
    let p = params_from(&flags)?;
    let t_end = flags.t_end(0.01)?;
    let level = telemetry_level(&flags, TelemetryLevel::Off)?;
    let out_path = flags.get("out").map(str::to_string);
    if matches!(flags.get("engine"), Some("hybrid")) {
        if flags.get_bool("nonlinear") {
            return Err(CliError::Usage(
                "--nonlinear only applies to the fluid integrators (the hybrid engine's packet \
                 stretches are the nonlinear reality)"
                    .into(),
            ));
        }
        let spec = HybridSpec { params: p, guards: hybrid_guards_from(&flags)? };
        flags.finish("simulate --engine hybrid")?;
        return simulate_hybrid(spec, t_end, level, out_path.as_deref());
    }
    let engine = engine_choice(&flags)?;
    let nonlinear = flags.get_bool("nonlinear");
    let command = format!("simulate --engine {}", flags.get("engine").unwrap_or("analytic"));
    flags.finish(&command)?;
    let sys = if nonlinear { BcnFluid::new(p.clone()) } else { BcnFluid::linearized(p.clone()) };
    // The engine choice is honoured for linearised runs; nonlinear and
    // telemetry-instrumented runs fall back to DOPRI5 inside the library.
    let opts = FluidOptions::default()
        .with_t_end(t_end)
        .with_record_dt(t_end / 2000.0)
        .with_engine(engine);
    let mut tel = Telemetry::new(level);
    let run = fluid_trajectory_telemetry(&sys, p.initial_point(), &opts, Some(&mut tel))
        .map_err(CliError::Solver)?;

    let mut out = String::new();
    let _ = writeln!(
        out,
        "integrated {t_end} s: {} region switches, q in [{:.4e}, {:.4e}] bits",
        run.switch_count(),
        p.q0 + run.solution.min_component(0),
        p.q0 + run.solution.max_component(0),
    );
    if let Some(path) = &out_path {
        let mut csv = Csv::new(&["t", "q_bits", "aggregate_rate"]);
        for (t, z) in run.solution.times().iter().zip(run.solution.states()) {
            csv.row(&[*t, z[0] + p.q0, z[1] + p.capacity]);
        }
        csv.save(path)?;
        let _ = writeln!(out, "wrote {path} ({} samples)", run.solution.len());
    }
    out.push_str(&recorded_summary(Some(&tel)));
    Ok(out)
}

/// `dcebcn simulate --engine hybrid`: the epoch-switching co-simulator
/// on the fluid calibration of the flags, writing the same
/// `t,q_bits,aggregate_rate` CSV schema as the fluid engines.
fn simulate_hybrid(
    spec: HybridSpec,
    t_end: f64,
    level: TelemetryLevel,
    out_path: Option<&str>,
) -> Result<String, CliError> {
    let cfg = SimConfig::from_fluid(&spec.params, 8_000.0, Duration::from_secs(2e-6), t_end);
    let (report, stats) = run_dumbbell(cfg, Some(spec), Telemetry::new(level))?;
    let m = &report.metrics;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "co-simulated {t_end} s: q in [{:.4e}, {:.4e}] bits, {} frames delivered",
        m.queue.min_after(0.0),
        m.queue.max(),
        m.delivered_frames,
    );
    out.push_str(&render_hybrid_stats(&stats.unwrap_or_default()));
    if let Some(path) = out_path {
        let mut csv = Csv::new(&["t", "q_bits", "aggregate_rate"]);
        for ((t, q), w) in
            m.queue.times().iter().zip(m.queue.values()).zip(m.aggregate_rate.values())
        {
            csv.row(&[*t, *q, *w]);
        }
        csv.save(path)?;
        let _ = writeln!(out, "wrote {path} ({} samples)", m.queue.len());
    }
    out.push_str(&recorded_summary(report.telemetry.as_ref()));
    Ok(out)
}

/// The most grid cells [`atlas`] builds and verdicts at once (a block is
/// still at least one whole row).
const ATLAS_BLOCK_CELLS: usize = 4096;

/// `dcebcn atlas`: the (Gi, Gd) criterion atlas as CSV + summary.
///
/// # Errors
///
/// Propagates flag, validation, and I/O failures.
pub(crate) fn atlas(args: &[String]) -> Result<String, CliError> {
    let flags = Flags::parse(args)?;
    let base = params_from(&flags)?;
    let grid = flags.get_usize("grid")?.unwrap_or(9);
    if grid < 2 {
        return Err(CliError::Usage("--grid must be at least 2".into()));
    }
    let Some(total) = grid.checked_mul(grid) else {
        return Err(CliError::Usage(format!(
            "--grid {grid} is too large: {grid}x{grid} overflows"
        )));
    };
    let out_path = flags.get("out").map(str::to_string);
    flags.finish("atlas")?;
    let columns = ["gi", "gd", "criterion", "theorem1", "exact"];
    let mut csv = out_path.as_ref().map(|path| CsvWriter::create(path, &columns)).transpose()?;
    let mut granted = 0usize;
    let mut exact_ok = 0usize;
    // The grid runs in row-major output order, whole rows at a time, and
    // each block's CSV rows are written as it finishes, so memory follows
    // the block, not the grid. Within a block the exact
    // switched-trajectory verdict (the expensive cell) fans out across
    // the configured worker count; the cheap closed-form criteria stay
    // inline.
    let rows_per_block = (ATLAS_BLOCK_CELLS / grid).max(1);
    let mut points = Vec::with_capacity(rows_per_block.min(grid) * grid);
    for first_row in (0..grid).step_by(rows_per_block) {
        points.clear();
        for i in first_row..grid.min(first_row + rows_per_block) {
            let gi = base.gi * 0.05 * 400.0_f64.powf(i as f64 / (grid - 1) as f64);
            points.extend((0..grid).map(|j| {
                let gd = (base.gd * 0.05 * 400.0_f64.powf(j as f64 / (grid - 1) as f64)).min(1.0);
                base.clone().with_gi(gi).with_gd(gd)
            }));
        }
        for (p, v) in points.iter().zip(exact_verdicts(&points, 40)) {
            let c = criterion(p).is_guaranteed();
            let e = v.strongly_stable;
            granted += usize::from(c);
            exact_ok += usize::from(e);
            if let Some(csv) = &mut csv {
                let t = theorem1_holds(p);
                csv.row(&[
                    p.gi,
                    p.gd,
                    f64::from(u8::from(c)),
                    f64::from(u8::from(t)),
                    f64::from(u8::from(e)),
                ])?;
            }
        }
    }
    let mut out = String::new();
    let _ = writeln!(
        out,
        "atlas {grid}x{grid}: {exact_ok}/{total} strongly stable, criterion certifies {granted}"
    );
    if let (Some(path), Some(csv)) = (&out_path, csv) {
        csv.finish()?;
        let _ = writeln!(out, "wrote {path}");
    }
    Ok(out)
}

/// `dcebcn packet`: packet-level run summary.
///
/// # Errors
///
/// Propagates flag and validation failures.
pub(crate) fn packet(args: &[String]) -> Result<String, CliError> {
    let flags = Flags::parse(args)?;
    if let Some((topo, traffic)) = topo_request(&flags)? {
        return packet_net(flags, &topo, &traffic);
    }
    let p = params_from(&flags)?;
    let t_end = flags.t_end(0.2)?;
    let frame_bits = flags.frame_bits()?;
    let level = telemetry_level(&flags, TelemetryLevel::Off)?;
    let hybrid = hybrid_spec_from(&flags, &p)?;
    let mut cfg = SimConfig::from_fluid(&p, frame_bits, Duration::from_secs(2e-6), t_end);
    cfg.scheduler = scheduler_choice(&flags)?;
    cfg.faults = single_run_faults(&flags)?;
    flags.finish("packet")?;
    let (report, hybrid_stats) = run_dumbbell(cfg, hybrid, Telemetry::new(level))?;
    let m = &report.metrics;
    let mut out = String::new();
    let _ = writeln!(out, "packet-level run over {t_end} s ({} flows):", p.n_flows);
    let _ = writeln!(out, "  delivered frames:   {}", m.delivered_frames);
    let _ = writeln!(out, "  dropped frames:     {}", m.dropped_frames);
    let _ = writeln!(out, "  utilisation:        {:.4}", m.utilization(p.capacity, t_end));
    let _ = writeln!(out, "  fairness (bytes):   {:.4}", m.fairness());
    let _ = writeln!(out, "  max queue:          {:.4e} bits", m.queue.max());
    let _ = writeln!(
        out,
        "  queueing delay:     p50 {:.1} us, p99 {:.1} us",
        m.queueing_delay.percentile(0.5) * 1e6,
        m.queueing_delay.percentile(0.99) * 1e6
    );
    let _ = writeln!(out, "  feedback messages:  {}", m.feedback_messages);
    let _ = writeln!(out, "  PAUSE events:       {}", m.pause_events);
    if let Some(stats) = &hybrid_stats {
        out.push_str(&render_hybrid_stats(stats));
    }
    out.push_str(&render_fault_counts(&m.faults));
    out.push_str(&recorded_summary(report.telemetry.as_ref()));
    Ok(out)
}

/// Validates `cfg` and runs it with `tel` attached: on the hybrid engine
/// when `hybrid` is set, otherwise on the packet engine.
fn run_dumbbell(
    cfg: SimConfig,
    hybrid: Option<HybridSpec>,
    tel: Telemetry,
) -> Result<(SimReport, Option<HybridStats>), CliError> {
    cfg.validate()?;
    Ok(match hybrid {
        Some(spec) => {
            spec.validate_for(&cfg)?;
            let run = HybridSim::new(spec.params, cfg, spec.guards).with_telemetry_sink(tel).run();
            (run.sim, Some(run.stats))
        }
        None => (Simulation::with_telemetry(cfg, tel).run(), None),
    })
}

/// Deterministic multi-hop run summary — byte-identical across
/// schedulers and worker counts (the CI smoke byte-diffs it).
fn net_summary(report: &NetReport, t_end: f64) -> String {
    let delivered: f64 = report.flows.iter().map(|f| f.delivered_bits).sum();
    let dropped: u64 = report.flows.iter().map(|f| f.dropped_frames).sum();
    let pauses: u64 = report.pause_counts.iter().sum();
    let max_q =
        report.switch_queues.iter().map(dcesim::metrics::TimeSeries::max).fold(0.0_f64, f64::max);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "  delivered:          {delivered:.6e} bits ({:.4e} bit/s aggregate)",
        delivered / t_end
    );
    let _ = writeln!(out, "  dropped frames:     {dropped}");
    let _ = writeln!(out, "  feedback messages:  {}", report.feedback_messages);
    let _ = writeln!(out, "  PAUSE events:       {pauses}");
    let _ = writeln!(out, "  max switch queue:   {max_q:.4e} bits");
    out.push_str(&render_fault_counts(&report.faults));
    out
}

/// One deterministic run of a compiled fabric under the multi-hop
/// engine, for `packet --topo` and `trace --topo` (`command`). Returns
/// the report, the horizon, and the fabric's size as `<hosts> hosts,
/// <switches> switches, <flows> flows`.
fn run_fabric(
    flags: Flags,
    command: &str,
    topo: &TopoSpec,
    traffic: &Traffic,
    level: TelemetryLevel,
) -> Result<(NetReport, f64, String), CliError> {
    reject_feedback_faults(&flags)?;
    let t_end = flags.t_end(0.005)?;
    let level = telemetry_level(&flags, level)?;
    let scheduler = scheduler_choice(&flags)?;
    let faults = single_run_faults(&flags)?;
    flags.finish(command)?;
    let mut cfg = compile(topo, traffic, t_end)?;
    cfg.scheduler = scheduler;
    cfg.faults = faults;
    let size =
        format!("{} hosts, {} switches, {} flows", cfg.hosts, cfg.switches.len(), cfg.flows.len());
    Ok((NetSim::try_new(cfg)?.with_telemetry_sink(Telemetry::new(level)).run(), t_end, size))
}

/// `dcebcn packet --topo ...`: one deterministic fabric run, summarised.
fn packet_net(flags: Flags, topo: &TopoSpec, traffic: &Traffic) -> Result<String, CliError> {
    let (report, t_end, size) =
        run_fabric(flags, "packet --topo", topo, traffic, TelemetryLevel::Off)?;
    let mut out = format!("fabric run over {t_end} s: {size}\n");
    out.push_str(&net_summary(&report, t_end));
    out.push_str(&recorded_summary(report.telemetry.as_ref()));
    Ok(out)
}

/// `dcebcn batch`: multi-seed packet-level batch — the base scenario
/// with per-seed deterministic workload jitter, run in parallel across
/// the configured worker count, with the per-seed telemetry shards
/// merged into one aggregate.
///
/// `--checkpoint-dir` persists every finished seed; `--resume` skips
/// seeds the checkpoint already holds and merges a report bit-identical
/// to an uninterrupted run. `--max-seed-events` / `--seed-deadline-ms`
/// arm the watchdog, `--seed-retries` re-runs failed (never timed-out)
/// seeds with exponential backoff.
///
/// # Errors
///
/// Propagates flag, validation, and I/O failures. Under `--fail-fast`,
/// failed seeds raise [`CliError::Batch`] (exit 9) and — when none
/// failed — watchdog-demoted seeds raise [`CliError::Timeout`]
/// (exit 10).
pub(crate) fn batch(args: &[String]) -> Result<String, CliError> {
    let flags = Flags::parse(args)?;
    if let Some((topo, traffic)) = topo_request(&flags)? {
        return batch_net(flags, &topo, &traffic);
    }
    let p = params_from(&flags)?;
    let t_end = flags.t_end(0.05)?;
    let frame_bits = flags.frame_bits()?;
    let n_seeds = seed_count(&flags)?;
    let level = telemetry_level(&flags, TelemetryLevel::Off)?;
    let (faults, panic_seeds) = faults_from(&flags)?;
    let hybrid = hybrid_spec_from(&flags, &p)?;
    let mut base = SimConfig::from_fluid(&p, frame_bits, Duration::from_secs(2e-6), t_end);
    base.scheduler = scheduler_choice(&flags)?;
    base.faults = faults;
    base.validate()?;
    if let Some(spec) = &hybrid {
        // Fail the whole command up front on a fluid/packet mismatch
        // rather than quarantining every seed with the same cause.
        spec.validate_for(&base)?;
    }
    let mut cfg = BatchConfig::quick(base, n_seeds as u64);
    cfg.hybrid = hybrid;
    cfg.level = level;
    cfg.panic_seeds = panic_seeds;
    if let Some(v) = flags.jitter("start-jitter", Time::MAX.as_secs())? {
        cfg.start_jitter_secs = v;
    }
    if let Some(v) = flags.jitter("rate-jitter", 1.0)? {
        cfg.rate_jitter_frac = v;
    }
    (cfg.max_events_per_seed, cfg.max_seed_wall_ms) = watchdog_flags(&flags)?;
    if let Some(v) = flags.get_usize("seed-retries")? {
        cfg.max_seed_retries = u32::try_from(v)
            .map_err(|_| CliError::Usage("--seed-retries is out of range".into()))?;
    }
    if let Some(v) = flags.get_usize("retry-backoff-ms")? {
        cfg.retry_backoff_ms = v as u64;
    }
    let io = BatchIo::from_flags(&flags)?;
    let postmortem_dir = flags.get("postmortem-dir").unwrap_or("results").to_string();
    flags.finish("batch")?;
    let report = run_journalled(&io, &cfg)?;

    let mut out = String::new();
    let _ = writeln!(
        out,
        "batch: {n_seeds} seeds x {t_end} s, start jitter {:.4e} s, rate jitter {:.1}%",
        cfg.start_jitter_secs,
        cfg.rate_jitter_frac * 100.0
    );
    let mut table = Table::new(&[
        "seed",
        "delivered",
        "dropped",
        "utilisation",
        "fairness",
        "max queue (bits)",
    ]);
    let mut csv =
        Csv::new(&["seed", "delivered", "dropped", "utilisation", "fairness", "max_queue_bits"]);
    let mut utils = Vec::new();
    let mut fault_totals = FaultCounts::default();
    for (seed, r) in report.completed() {
        let m = &r.metrics;
        let util = m.utilization(p.capacity, t_end);
        utils.push(util);
        fault_totals.merge(&m.faults);
        table.row(&[
            seed.to_string(),
            m.delivered_frames.to_string(),
            m.dropped_frames.to_string(),
            format!("{util:.4}"),
            format!("{:.4}", m.fairness()),
            format!("{:.4e}", m.queue.max()),
        ]);
        #[allow(clippy::cast_precision_loss)]
        csv.row(&[
            seed as f64,
            m.delivered_frames as f64,
            m.dropped_frames as f64,
            util,
            m.fairness(),
            m.queue.max(),
        ]);
    }
    let _ = write!(out, "{table}");
    // Crash flight recorder: each quarantined or watchdog-demoted seed
    // that salvaged a telemetry shard gets a postmortem dump — the trace
    // ring's last events, the open-span stack ("what was running"), the
    // failure cause, and the seeded configuration + fault plan needed by
    // `dcebcn replay`, as JSONL behind the same schema header the
    // `report` command checks.
    let mut dumps = String::new();
    for (seed, cause, tel) in report.postmortems() {
        let Some(tel) = tel else { continue };
        let scfg = seeded_config(&cfg, seed);
        let panic_after = cfg.panic_seeds.contains(&seed).then_some(PANIC_AFTER_STEPS);
        let body =
            render_postmortem(seed, &cause, tel, &scfg, panic_after, cfg.max_events_per_seed);
        let path = format!("{postmortem_dir}/postmortem-{seed}.jsonl");
        std::fs::write(&path, &body).or_else(|_| {
            std::fs::create_dir_all(&postmortem_dir).and_then(|()| std::fs::write(&path, &body))
        })?;
        let _ = writeln!(dumps, "  wrote {path}");
    }
    let mut footer = String::new();
    if !utils.is_empty() {
        let (lo, hi) = utils
            .iter()
            .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &u| (lo.min(u), hi.max(u)));
        let _ = writeln!(footer, "utilisation spread across seeds: [{lo:.4}, {hi:.4}]");
    }
    footer.push_str(&render_fault_counts(&fault_totals));
    finish_batch(&io, out, &report, &dumps, &footer, &csv)
}

/// `dcebcn batch --topo ...`: a multi-seed fabric batch under the
/// multi-hop engine — per-seed rate jitter, checkpoint/resume, fault
/// injection, and the watchdog, but no retry ladder (the engine is
/// deterministic, so a failed seed fails identically on every retry)
/// and no postmortem dumps yet.
fn batch_net(flags: Flags, topo: &TopoSpec, traffic: &Traffic) -> Result<String, CliError> {
    reject_feedback_faults(&flags)?;
    let t_end = flags.t_end(0.005)?;
    let n_seeds = seed_count(&flags)?;
    let level = telemetry_level(&flags, TelemetryLevel::Off)?;
    let (faults, panic_seeds) = faults_from(&flags)?;
    let scheduler = scheduler_choice(&flags)?;
    let rate_jitter = flags.jitter("rate-jitter", 1.0)?;
    let watchdog = watchdog_flags(&flags)?;
    let io = BatchIo::from_flags(&flags)?;
    flags.finish("batch --topo")?;
    let mut base = compile(topo, traffic, t_end)?;
    base.scheduler = scheduler;
    base.faults = faults;
    let mut cfg = NetBatchConfig::quick(base, n_seeds as u64);
    cfg.level = level;
    cfg.panic_seeds = panic_seeds;
    if let Some(v) = rate_jitter {
        cfg.rate_jitter_frac = v;
    }
    (cfg.max_events_per_seed, cfg.max_seed_wall_ms) = watchdog;
    let report = run_journalled(&io, &cfg)?;
    let (hosts, switches, n_flows) =
        (cfg.base.hosts, cfg.base.switches.len(), cfg.base.flows.len());
    let mut out = String::new();
    let _ = writeln!(
        out,
        "fabric batch: {n_seeds} seeds x {t_end} s, rate jitter {:.1}%, {hosts} hosts / \
         {switches} switches / {n_flows} flows",
        cfg.rate_jitter_frac * 100.0
    );
    let mut table = Table::new(&[
        "seed",
        "delivered (bits)",
        "dropped",
        "aggregate (bit/s)",
        "PAUSEs",
        "max queue (bits)",
    ]);
    let mut csv = Csv::new(&[
        "seed",
        "delivered_bits",
        "dropped",
        "aggregate_bps",
        "pauses",
        "max_queue_bits",
    ]);
    let mut fault_totals = FaultCounts::default();
    for (seed, r) in report.completed() {
        fault_totals.merge(&r.faults);
        let delivered: f64 = r.flows.iter().map(|f| f.delivered_bits).sum();
        let dropped: u64 = r.flows.iter().map(|f| f.dropped_frames).sum();
        let pauses: u64 = r.pause_counts.iter().sum();
        let max_q =
            r.switch_queues.iter().map(dcesim::metrics::TimeSeries::max).fold(0.0_f64, f64::max);
        table.row(&[
            seed.to_string(),
            format!("{delivered:.6e}"),
            dropped.to_string(),
            format!("{:.4e}", delivered / t_end),
            pauses.to_string(),
            format!("{max_q:.4e}"),
        ]);
        #[allow(clippy::cast_precision_loss)]
        csv.row(&[seed as f64, delivered, dropped as f64, delivered / t_end, pauses as f64, max_q]);
    }
    let _ = write!(out, "{table}");
    finish_batch(&io, out, &report, "", &render_fault_counts(&fault_totals), &csv)
}

/// `--seeds`: how many seeds a batch runs (default 8, at least 1).
fn seed_count(flags: &Flags) -> Result<usize, CliError> {
    let n_seeds = flags.get_usize("seeds")?.unwrap_or(8);
    if n_seeds == 0 {
        return Err(CliError::Usage("--seeds must be at least 1".into()));
    }
    Ok(n_seeds)
}

/// `--max-seed-events` and `--seed-deadline-ms`: the watchdog's event
/// budget and wall-clock deadline per seed, each positive when given.
fn watchdog_flags(flags: &Flags) -> Result<(Option<u64>, Option<u64>), CliError> {
    let positive = |name: &str| -> Result<Option<u64>, CliError> {
        match flags.get_usize(name)? {
            Some(0) => Err(CliError::Usage(format!("--{name} must be positive"))),
            v => Ok(v.map(|v| v as u64)),
        }
    };
    Ok((positive("max-seed-events")?, positive("seed-deadline-ms")?))
}

/// Where a batch of either kind journals (`--checkpoint-dir`, picked up
/// under `--resume`) and writes its per-seed CSV (`--out`), and whether
/// failed or demoted seeds fail the command (`--fail-fast`).
struct BatchIo {
    checkpoint_dir: Option<String>,
    resume: bool,
    out: Option<String>,
    fail_fast: bool,
}

impl BatchIo {
    fn from_flags(flags: &Flags) -> Result<Self, CliError> {
        let io = Self {
            checkpoint_dir: flags.get("checkpoint-dir").map(str::to_string),
            resume: flags.get_bool("resume"),
            out: flags.get("out").map(str::to_string),
            fail_fast: flags.get_bool("fail-fast"),
        };
        if io.resume && io.checkpoint_dir.is_none() {
            return Err(CliError::Usage("--resume requires --checkpoint-dir".into()));
        }
        Ok(io)
    }
}

/// Runs a batch of either kind, journalled under `--checkpoint-dir`
/// (`--resume` picks an existing journal up), and counts the restored
/// seeds into the rendering copy of the telemetry.
fn run_journalled<C: SeedBatch>(io: &BatchIo, cfg: &C) -> Result<BatchReport<C::Report>, CliError> {
    let mut report = match &io.checkpoint_dir {
        Some(dir) => {
            let dir = std::path::Path::new(dir);
            let ck = if io.resume {
                BatchCheckpoint::resume(dir, cfg)
            } else {
                BatchCheckpoint::create(dir, cfg)
            }
            .map_err(|e| CliError::Batch(e.to_string()))?;
            let restored = ck.restored_seeds().len() as u64;
            let mut report =
                run_batch_checkpointed(cfg, &ck).map_err(|e| CliError::Batch(e.to_string()))?;
            // The runner never folds `resumed` into the merged report —
            // that would make a resumed run's artifacts differ from an
            // uninterrupted one. Only this process's rendering copy
            // learns how many seeds it skipped.
            report.supervisor.resumed = restored;
            report
        }
        None => run_batch(cfg),
    };
    if let Some(tel) = report.telemetry.as_mut() {
        tel.batch_supervision(report.supervisor.resumed, 0, 0);
    }
    Ok(report)
}

/// The shared end of `dcebcn batch` for either kind. After `out` (the
/// header and per-seed table) come the quarantined and watchdog-demoted
/// seeds, `dumps` (the postmortem files written), the supervision line
/// and `footer`; then `--out` is written and the telemetry summary
/// appended. Under `--fail-fast`, failed seeds raise [`CliError::Batch`]
/// and, when none failed, demoted seeds raise [`CliError::Timeout`].
fn finish_batch<R>(
    io: &BatchIo,
    mut out: String,
    report: &BatchReport<R>,
    dumps: &str,
    footer: &str,
    csv: &Csv,
) -> Result<String, CliError> {
    let n_seeds = report.seeds.len();
    let failures: Vec<(u64, &str)> = report.failures().collect();
    if !failures.is_empty() {
        let _ = writeln!(out, "quarantined {} of {n_seeds} seeds:", failures.len());
        for (seed, cause) in &failures {
            let _ = writeln!(out, "  seed {seed}: {cause}");
        }
    }
    let timed_out: Vec<(u64, u64)> = report.timed_out().collect();
    if !timed_out.is_empty() {
        let _ = writeln!(out, "watchdog demoted {} of {n_seeds} seeds:", timed_out.len());
        for (seed, events) in &timed_out {
            let _ = writeln!(out, "  seed {seed}: timed out after {events} events");
        }
    }
    out.push_str(dumps);
    let sup = report.supervisor;
    if sup.resumed + sup.retried + sup.timed_out > 0 {
        let _ = writeln!(
            out,
            "supervision: {} seed(s) restored from checkpoint, {} retrie(s), {} timed out",
            sup.resumed, sup.retried, sup.timed_out
        );
    }
    out.push_str(footer);
    if let Some(path) = &io.out {
        csv.save(path)?;
        let _ = writeln!(out, "wrote {path}");
    }
    if let Some(tel) = &report.telemetry {
        out.push_str(&render_summary(tel));
    }
    if io.fail_fast {
        if let Some((seed, cause)) = failures.first() {
            return Err(CliError::Batch(format!(
                "{} of {n_seeds} seeds failed (first: seed {seed}: {cause})",
                failures.len()
            )));
        }
        if let Some((seed, events)) = timed_out.first() {
            return Err(CliError::Timeout(format!(
                "{} of {n_seeds} seeds hit the watchdog (first: seed {seed} after {events} events)",
                timed_out.len()
            )));
        }
    }
    Ok(out)
}

/// Renders one quarantined seed's flight recorder as JSONL: the schema
/// header, a `postmortem` record (seed + cause + seeded-config digest),
/// one `open_span` record per still-open span (innermost last), the
/// trace ring's events, and finally the replay context — the seeded
/// simulator configuration, its fault plan, and the failure triggers —
/// so `dcebcn replay` can re-run the seed from the dump alone.
fn render_postmortem(
    seed: u64,
    cause: &str,
    tel: &Telemetry,
    sim_cfg: &SimConfig,
    panic_after: Option<u64>,
    max_events: Option<u64>,
) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{}", telemetry::schema_header());
    let _ = writeln!(
        out,
        r#"{{"type":"postmortem","seed":{seed},"cause":"{}","events":{},"open_spans":{},"config_digest":{}}}"#,
        report_pipeline::json_escape(cause),
        tel.trace.len(),
        tel.open_spans().len(),
        sim_config_digest(sim_cfg)
    );
    for s in tel.open_spans() {
        let _ = writeln!(
            out,
            r#"{{"type":"open_span","id":{},"parent":{},"kind":"{}","entity":{},"t_begin":{}}}"#,
            s.id,
            s.parent,
            s.kind.name(),
            s.entity,
            s.t_begin
        );
    }
    for e in tel.trace.iter() {
        let _ = writeln!(out, "{}", telemetry::event_to_jsonl(e));
    }
    encode_replay_context(seed, panic_after, max_events, sim_cfg, &mut out);
    out
}

/// `dcebcn replay <postmortem-<seed>.jsonl>`: reconstruct the seeded
/// configuration and fault plan embedded in a postmortem dump, re-run
/// that seed deterministically, and check the recorded failure
/// reproduces byte-for-byte.
///
/// # Errors
///
/// [`CliError::Analysis`] when the dump cannot be decoded,
/// [`CliError::Replay`] when the re-run diverges from the recorded
/// cause (exit code 11), plus the usual flag and I/O failures.
pub(crate) fn replay(args: &[String]) -> Result<String, CliError> {
    let Some((path, rest)) = args.split_first() else {
        return Err(CliError::Usage(
            "replay expects a postmortem file: dcebcn replay <postmortem-<seed>.jsonl>".into(),
        ));
    };
    if path.starts_with('-') {
        return Err(CliError::Usage(format!(
            "replay expects a postmortem file path before flags, got `{path}`"
        )));
    }
    Flags::parse(rest)?.finish("replay")?;
    let text = std::fs::read_to_string(path)?;
    let spec = replay_spec_from_postmortem(&text)
        .map_err(|e| CliError::Analysis(format!("{path}: {e}")))?;
    match dcesim::batch::replay(&spec) {
        Ok(cause) => Ok(format!(
            "replayed seed {}: recorded failure reproduced\n  cause: {cause}\n",
            spec.seed
        )),
        Err(e) => Err(CliError::Replay(format!("seed {}: {e}", spec.seed))),
    }
}

/// `dcebcn report <scenario>`: run an instrumented scenario (or decode a
/// JSONL trace with `--from`) and write the full report pipeline — a
/// JSON summary, queue/rate SVG timelines with causal span bands, and a
/// Prometheus-style metrics export.
///
/// Scenarios: `thm1`, `limit-cycle`, `packet` (as in `trace`), plus
/// `victim` — the paper-Introduction 4-culprit multi-hop scenario whose
/// PAUSE episodes render as span bands on the switch-queue lanes.
///
/// # Errors
///
/// Propagates flag, validation, integration, and I/O failures.
pub(crate) fn report(args: &[String]) -> Result<String, CliError> {
    let (explicit, scenario, rest) = match args.split_first() {
        Some((s, rest)) if !s.starts_with("--") => (true, s.as_str(), rest),
        _ => (false, "thm1", args),
    };
    let flags = Flags::parse(rest)?;
    let out_dir = flags.get("out-dir").unwrap_or("results/report").to_string();

    let mut tel = Telemetry::new(TelemetryLevel::Full);
    let label;
    // `--from` replaces the scenario, so a named scenario leaves it unread.
    let from = if explicit { None } else { flags.get("from").map(str::to_string) };
    if let Some(path) = from {
        flags.finish("report --from")?;
        // Decode a previously written trace; the schema header guards
        // against stale (pre-span) files.
        let body = std::fs::read_to_string(&path)?;
        let mut lines = body.lines();
        let first =
            lines.next().ok_or_else(|| CliError::Analysis(format!("{path}: empty trace file")))?;
        telemetry::check_schema_header(first)
            .map_err(|e| CliError::Analysis(format!("{path}: {e}")))?;
        for (i, line) in lines.enumerate() {
            let ev = telemetry::event_from_jsonl(line)
                .map_err(|e| CliError::Analysis(format!("{path}:{}: {e}", i + 2)))?;
            tel.trace.push(ev);
        }
        label = format!("from:{path}");
    } else {
        label = scenario.to_string();
        match scenario {
            "thm1" | "limit-cycle" => {
                let mut p = params_from(&flags)?;
                let t_end = flags.t_end(0.01)?;
                if scenario == "thm1" && flags.get_f64("buffer")?.is_none() {
                    let required = theorem1_required_buffer(&p);
                    p = p.with_buffer(required);
                }
                flags.finish(&format!("report {scenario}"))?;
                let sys = BcnFluid::linearized(p.clone());
                let opts = FluidOptions::default().with_t_end(t_end).with_record_dt(t_end / 2000.0);
                fluid_trajectory_telemetry(&sys, p.initial_point(), &opts, Some(&mut tel))
                    .map_err(CliError::Solver)?;
            }
            "packet" => {
                let p = params_from(&flags)?;
                let t_end = flags.t_end(0.01)?;
                let frame_bits = flags.frame_bits()?;
                let cfg = SimConfig::from_fluid(&p, frame_bits, Duration::from_secs(2e-6), t_end);
                cfg.validate()?;
                flags.finish("report packet")?;
                let run = Simulation::with_telemetry(cfg, tel).run();
                tel = run.telemetry.unwrap_or_default();
            }
            "victim" => {
                let t_end = flags.t_end(0.01)?;
                flags.finish("report victim")?;
                let run = dcesim::net::NetSim::new(victim_scenario(t_end).0)
                    .with_telemetry_sink(tel)
                    .run();
                tel = run.telemetry.unwrap_or_default();
            }
            other => {
                return Err(CliError::Usage(format!(
                    "unknown report scenario `{other}`; expected thm1, limit-cycle, packet, or \
                     victim"
                )));
            }
        }
    }

    let art = report_pipeline::render(&tel, &label);
    std::fs::create_dir_all(&out_dir)?;
    let mut out = String::new();
    let _ = writeln!(out, "report for {label} ({} trace events):", tel.trace.len());
    for (name, body) in [
        ("report.json", &art.summary_json),
        ("timeline_queue.svg", &art.queue_svg),
        ("timeline_rate.svg", &art.rate_svg),
        ("metrics.prom", &art.prometheus),
    ] {
        let path = format!("{out_dir}/{name}");
        std::fs::write(&path, body)?;
        let _ = writeln!(out, "  wrote {path} ({} bytes)", body.len());
    }
    Ok(out)
}

/// `dcebcn query` — the batched stability-query engine as a stream
/// filter: JSONL questions in (`--in` or stdin), JSONL answers out
/// (`--out` or stdout), both streams opened by a schema-v2 header.
///
/// Queries are evaluated `--chunk` at a time through
/// [`bcn::query::QueryBatch`], so memory stays bounded on unbounded
/// input while each chunk still answers its duplicate configurations
/// once. A configuration answered in an earlier chunk comes from the
/// process-wide answer memo instead of a fresh trace. Answers stream out
/// in input order; with `--telemetry summary` the run's `query.*`
/// counters and the memo's traffic (`propagator.cache.*`) are reported
/// (to the summary string, never onto the answer stream).
///
/// # Errors
///
/// Returns [`CliError`] for malformed flags, a missing/stale schema
/// header, or I/O failures. An undecodable query line is skipped with
/// an inline `{"type":"error",...}` record in the answer stream; under
/// `--strict` it instead fails fast with its line number (the
/// pre-streaming behaviour, exit code 3).
pub(crate) fn query(args: &[String]) -> Result<String, CliError> {
    use std::io::{BufRead, Write as IoWrite};

    let flags = Flags::parse(args)?;
    let strict = flags.get_bool("strict");
    let level = telemetry_level(&flags, TelemetryLevel::Off)?;
    let chunk = flags.get_usize("chunk")?.unwrap_or(4096);
    if chunk == 0 {
        return Err(CliError::Usage("--chunk must be positive".into()));
    }
    let in_path = flags.get("in").map(str::to_string);
    let out_path = flags.get("out").map(str::to_string);
    flags.finish("query")?;
    let mut tel = Telemetry::new(level);

    let src_name = in_path.as_deref().unwrap_or("<stdin>");
    let reader: Box<dyn BufRead> = match &in_path {
        Some(path) => Box::new(std::io::BufReader::new(std::fs::File::open(path)?)),
        None => Box::new(std::io::BufReader::new(std::io::stdin())),
    };
    let mut sink: Box<dyn IoWrite> = match &out_path {
        Some(path) => Box::new(std::io::BufWriter::new(std::fs::File::create(path)?)),
        None => Box::new(std::io::stdout().lock()),
    };

    let mut lines = reader.lines();
    let first = lines
        .next()
        .transpose()?
        .ok_or_else(|| CliError::Analysis(format!("{src_name}: empty query stream")))?;
    telemetry::check_schema_header(&first)
        .map_err(|e| CliError::Analysis(format!("{src_name}: {e}")))?;
    sink.write_all(telemetry::schema_header().as_bytes())?;
    sink.write_all(b"\n")?;

    let cache0 = bcn::query::cache_stats();
    let started = std::time::Instant::now();
    let mut total: u64 = 0;
    let mut batches: u64 = 0;
    let mut lineno = 1usize; // the schema header was line 1
    let mut skipped: u64 = 0;
    // Both grow to the largest chunk read and are reused across chunks:
    // `--chunk` bounds them but never sizes an allocation.
    let mut queries: Vec<bcn::query::StabilityQuery> = Vec::new();
    // One entry per non-empty input line of the chunk, in input order:
    // `None` is a slot for the next answer, `Some(record)` is an error
    // record standing in for a line that failed to decode.
    let mut slots: Vec<Option<String>> = Vec::new();
    let mut done = false;
    while !done {
        queries.clear();
        slots.clear();
        while queries.len() < chunk {
            let Some(line) = lines.next() else {
                done = true;
                break;
            };
            let line = line?;
            lineno += 1;
            if line.trim().is_empty() {
                continue;
            }
            match bcn::query::query_from_jsonl(&line) {
                Ok(q) => {
                    queries.push(q);
                    slots.push(None);
                }
                Err(e) if strict => {
                    return Err(CliError::Analysis(format!("{src_name}:{lineno}: {e}")));
                }
                Err(e) => {
                    // Streaming contract: one bad line costs one error
                    // record in the output, never the whole run.
                    skipped += 1;
                    slots.push(Some(format!(
                        r#"{{"type":"error","line":{lineno},"cause":"{}"}}"#,
                        report_pipeline::json_escape(&e.to_string())
                    )));
                }
            }
        }
        if slots.is_empty() {
            break;
        }
        let answers = if queries.is_empty() {
            Vec::new()
        } else {
            let batch = bcn::query::QueryBatch::new(&queries);
            let t0 = std::time::Instant::now();
            let answers = batch.evaluate();
            let secs = t0.elapsed().as_secs_f64();
            batches += 1;
            total += answers.len() as u64;
            let qps = if secs > 0.0 { answers.len() as f64 / secs } else { 0.0 };
            tel.query_stats(1, answers.len() as u64, qps);
            answers
        };
        let mut next_answer = answers.iter();
        for slot in &slots {
            match slot {
                Some(record) => {
                    sink.write_all(record.as_bytes())?;
                }
                None => {
                    let a = next_answer.next().expect("one answer per query slot");
                    sink.write_all(bcn::query::answer_to_jsonl(a).as_bytes())?;
                }
            }
            sink.write_all(b"\n")?;
        }
    }
    sink.flush()?;
    let delta = bcn::query::cache_stats().delta_since(cache0);
    tel.propagator_cache(delta.hits, delta.misses, delta.evictions);

    if out_path.is_none() {
        // Stdout carried the answer stream; keep it pure JSONL.
        return Ok(String::new());
    }
    let wall = started.elapsed().as_secs_f64();
    let mut out = String::new();
    let _ =
        writeln!(out, "answered {total} queries in {batches} batch(es), {:.3} ms wall", wall * 1e3);
    if skipped > 0 {
        let _ = writeln!(
            out,
            "skipped {skipped} malformed line(s) (error records inline; --strict to fail fast)"
        );
    }
    out.push_str(&render_summary(&tel));
    Ok(out)
}

/// The 4-culprit victim scenario the report renders: PAUSE enabled so
/// the episodes show up as span bands, BCN installed so the victim is
/// shielded — calibrated like the packet-engine tests (1 Gbit/s trunk,
/// 8 kbit frames).
fn victim_scenario(t_end: f64) -> (dcesim::net::NetConfig, usize) {
    use dcesim::cp::CpConfig;
    use dcesim::frame::CpId;
    use dcesim::net::{victim_topology, PauseConfig};
    use dcesim::rp::RpConfig;
    let trunk = 1.0e9;
    let frame = 8_000.0;
    let q0 = 10.0 * frame;
    let cp = CpConfig {
        cpid: CpId(2),
        q0_bits: q0,
        qsc_bits: 50.0 * frame,
        w: 2.0 / frame * 100.0,
        sample_every: 5,
        fb_quant: None,
        gate_positive: false,
    };
    let rp = RpConfig {
        gi: 0.5,
        gd: 1.0 / 512.0,
        ru: 1.0e4,
        gain_scale: frame * 4.0 / (0.2 * trunk),
        r_min: trunk * 1e-6,
        r_max: trunk,
    };
    let pause = PauseConfig {
        enabled: true,
        hold: Duration::from_secs(40.0 * frame / trunk),
        per_priority: false,
    };
    victim_topology(4, trunk, frame, Duration::from_secs(1e-6), t_end, pause, Some((cp, rp)))
}

/// `dcebcn trace <scenario>`: run an instrumented scenario, print the
/// telemetry summary, and optionally dump the event trace as JSONL.
///
/// Scenarios:
///
/// * `thm1` (default) — the paper's worked example with the buffer set
///   to exactly what Theorem 1 requires, integrated as the switched
///   fluid model;
/// * `limit-cycle` — the worked example with its original (too small)
///   buffer, which sustains the PAUSE-driven oscillation;
/// * `packet` — the packet-level simulator on the same parameters.
///
/// # Errors
///
/// Propagates flag, validation, integration, and I/O failures.
pub(crate) fn trace(args: &[String]) -> Result<String, CliError> {
    let (explicit, scenario, rest) = match args.split_first() {
        Some((s, rest)) if !s.starts_with("--") => (true, s.as_str(), rest),
        _ => (false, "thm1", args),
    };
    let flags = Flags::parse(rest)?;
    if let Some((topo, traffic)) = topo_request(&flags)? {
        if explicit && scenario != "packet" {
            return Err(CliError::Usage(format!(
                "--topo replaces the packet scenario; it does not apply to `{scenario}`"
            )));
        }
        return trace_net(flags, &topo, &traffic);
    }
    let mut p = params_from(&flags)?;
    let level = telemetry_level(&flags, TelemetryLevel::Full)?;
    let t_end = flags.t_end(0.01)?;
    let out_path = flags.get("out").map(str::to_string);

    let mut tel = Telemetry::new(level);
    let mut out = String::new();
    match scenario {
        "thm1" | "limit-cycle" => {
            if scenario == "thm1" && flags.get_f64("buffer")?.is_none() {
                // Size the buffer to exactly the Theorem-1 requirement so
                // the trace shows the certified-stable regime.
                let required = theorem1_required_buffer(&p);
                p = p.with_buffer(required);
            }
            let engine = engine_choice(&flags)?;
            flags.finish(&format!("trace {scenario}"))?;
            let sys = BcnFluid::linearized(p.clone());
            // When telemetry is on (the default here) the library falls
            // back to the instrumented DOPRI5 path regardless of engine.
            let opts = FluidOptions::default()
                .with_t_end(t_end)
                .with_record_dt(t_end / 2000.0)
                .with_engine(engine);
            let run = fluid_trajectory_telemetry(&sys, p.initial_point(), &opts, Some(&mut tel))
                .map_err(CliError::Solver)?;
            let _ = writeln!(
                out,
                "scenario {scenario}: buffer = {:.4e} bits, {} region switches over {t_end} s, \
                 q in [{:.4e}, {:.4e}] bits",
                p.buffer,
                run.switch_count(),
                p.q0 + run.solution.min_component(0),
                p.q0 + run.solution.max_component(0),
            );
        }
        "packet" => {
            // A fluid-integrator (or unknown) engine on the packet
            // scenario is a typed usage error naming the valid engines,
            // never silently ignored.
            let hybrid = hybrid_spec_from(&flags, &p)?;
            let frame_bits = flags.frame_bits()?;
            let mut cfg = SimConfig::from_fluid(&p, frame_bits, Duration::from_secs(2e-6), t_end);
            cfg.scheduler = scheduler_choice(&flags)?;
            cfg.faults = single_run_faults(&flags)?;
            flags.finish("trace packet")?;
            let (report, hybrid_stats) = run_dumbbell(cfg, hybrid, tel)?;
            let m = &report.metrics;
            let _ = writeln!(
                out,
                "scenario packet: {} flows over {t_end} s, {} frames delivered, {} dropped",
                p.n_flows, m.delivered_frames, m.dropped_frames,
            );
            if let Some(stats) = &hybrid_stats {
                out.push_str(&render_hybrid_stats(stats));
            }
            out.push_str(&render_fault_counts(&m.faults));
            tel = report.telemetry.unwrap_or_default();
        }
        other => {
            return Err(CliError::Usage(format!(
                "unknown trace scenario `{other}`; expected thm1, limit-cycle, or packet"
            )));
        }
    }
    out.push_str(&render_summary(&tel));
    if let Some(path) = &out_path {
        std::fs::write(path, tel.trace_to_jsonl())?;
        let _ = writeln!(out, "wrote {path} ({} events)", tel.trace.len());
    }
    Ok(out)
}

/// `dcebcn trace --topo ...`: an instrumented fabric run — the
/// multi-hop engine with full telemetry, the summary tables, and the
/// optional JSONL trace dump.
fn trace_net(flags: Flags, topo: &TopoSpec, traffic: &Traffic) -> Result<String, CliError> {
    let out_path = flags.get("out").map(str::to_string);
    let (mut report, t_end, size) =
        run_fabric(flags, "trace --topo", topo, traffic, TelemetryLevel::Full)?;
    let tel = report.telemetry.take().unwrap_or_default();
    let mut out = format!("scenario fabric: {size} over {t_end} s\n");
    out.push_str(&net_summary(&report, t_end));
    out.push_str(&render_summary(&tel));
    if let Some(path) = &out_path {
        std::fs::write(path, tel.trace_to_jsonl())?;
        let _ = writeln!(out, "wrote {path} ({} events)", tel.trace.len());
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(ToString::to_string).collect()
    }

    #[test]
    fn analyze_reports_the_worked_example() {
        let out = analyze(&argv("")).unwrap();
        assert!(out.contains("case 1"), "{out}");
        assert!(out.contains("NOT guaranteed"), "{out}");
        // And with the Theorem-1 buffer it passes.
        let out = analyze(&argv("--buffer 14e6")).unwrap();
        assert!(out.contains("GUARANTEED"), "{out}");
    }

    #[test]
    fn buffer_quantifies_conservatism() {
        let out = buffer(&argv("")).unwrap();
        assert!(out.contains("Theorem 1 requires"), "{out}");
        assert!(out.contains("INSUFFICIENT"), "{out}");
    }

    #[test]
    fn simulate_writes_csv() {
        let path = std::env::temp_dir().join("dcebcn_sim_test.csv");
        let _ = std::fs::remove_file(&path);
        let out = simulate(&argv(&format!("--t-end 0.002 --out {}", path.display()))).unwrap();
        assert!(out.contains("region switches"), "{out}");
        let body = std::fs::read_to_string(&path).unwrap();
        assert!(body.starts_with("t,q_bits,aggregate_rate"));
        assert!(body.lines().count() > 1000);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn simulate_rejects_bad_horizon() {
        assert!(simulate(&argv("--t-end -1")).is_err());
    }

    #[test]
    fn simulate_engines_agree_on_the_reported_range() {
        // Same run through both engines: the reported queue extrema match
        // to well under the printed 4-digit precision, so the rendered
        // lines are identical.
        let ana = simulate(&argv("--t-end 0.002 --engine analytic")).unwrap();
        let num = simulate(&argv("--t-end 0.002 --engine dopri5")).unwrap();
        assert_eq!(ana.lines().next(), num.lines().next(), "{ana} vs {num}");
        assert!(simulate(&argv("--t-end 0.002 --engine rk4")).is_err());
    }

    #[test]
    fn trace_packet_rejects_fluid_engines_with_the_valid_list() {
        // The satellite bugfix: a fluid-integrator engine on the packet
        // scenario used to be silently ignored; it is now a typed usage
        // error (exit 2) that names the engines valid here.
        for fluid in ["analytic", "dopri5", "rk4"] {
            let err = trace(&argv(&format!("packet --engine {fluid} --t-end 0.01"))).unwrap_err();
            assert!(matches!(err, CliError::Usage(_)), "{fluid}: {err}");
            let msg = err.to_string();
            assert!(msg.contains("--engine"), "{fluid}: {msg}");
            assert!(msg.contains("packet or hybrid"), "{fluid}: {msg}");
        }
        // The engines that do apply are accepted.
        let out = trace(&argv(&format!("packet --engine packet {FAST_SIM}"))).unwrap();
        assert!(out.contains("scenario packet"), "{out}");
        let out = trace(&argv(&format!("packet --engine hybrid {FAST_SIM}"))).unwrap();
        assert!(out.contains("scenario packet"), "{out}");
        // And the fluid scenarios still reject the packet-side engines.
        let err = trace(&argv("thm1 --engine hybrid --t-end 0.002")).unwrap_err();
        assert!(err.to_string().contains("analytic or dopri5"), "{err}");
    }

    #[test]
    fn packet_hybrid_engine_fast_forwards_and_reports_epochs() {
        let out = packet(&argv(&format!("{FAST_LONG} --engine hybrid"))).unwrap();
        assert!(out.contains("hybrid engine:"), "{out}");
        assert!(out.contains("epoch(s) fast-forwarded"), "{out}");
        assert!(out.contains("delivered frames"), "{out}");
    }

    #[test]
    fn packet_hybrid_always_packet_renders_identically() {
        // With the guard forced to always-packet the wrapper is
        // bit-identical to the pure engine, down to the rendered bytes
        // (no hybrid line: zero epochs print nothing).
        let pure = packet(&argv(FAST_SIM)).unwrap();
        let wrapped =
            packet(&argv(&format!("{FAST_SIM} --engine hybrid --hybrid-guard always-packet")))
                .unwrap();
        assert_eq!(pure, wrapped);
    }

    #[test]
    fn hybrid_guard_requires_the_hybrid_engine() {
        let err = packet(&argv(&format!("{FAST_SIM} --hybrid-guard always-packet"))).unwrap_err();
        assert!(err.to_string().contains("--engine hybrid"), "{err}");
        let err = trace(&argv("thm1 --hybrid-guard always-packet --t-end 0.002")).unwrap_err();
        assert!(err.to_string().contains("--hybrid-guard"), "{err}");
        // Unknown keys are rejected before the run starts.
        let err = packet(&argv(&format!("{FAST_SIM} --engine hybrid --hybrid-guard eq=0.1")))
            .unwrap_err();
        assert!(matches!(err, CliError::Usage(_)), "{err}");
    }

    #[test]
    fn simulate_hybrid_writes_the_same_csv_schema() {
        let path = std::env::temp_dir().join("dcebcn_sim_hybrid_test.csv");
        let _ = std::fs::remove_file(&path);
        let out = simulate(&argv(&format!("{FAST_LONG} --engine hybrid --out {}", path.display())))
            .unwrap();
        assert!(out.contains("co-simulated"), "{out}");
        assert!(out.contains("hybrid engine:"), "{out}");
        let body = std::fs::read_to_string(&path).unwrap();
        assert!(body.starts_with("t,q_bits,aggregate_rate"), "{}", &body[..40.min(body.len())]);
        assert!(body.lines().count() > 100, "CSV too sparse");
        // --nonlinear belongs to the fluid integrators.
        assert!(simulate(&argv("--t-end 0.002 --engine hybrid --nonlinear")).is_err());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn batch_hybrid_engine_carries_epoch_counters() {
        let out =
            batch(&argv(&format!("{FAST_LONG} --engine hybrid --seeds 2 --telemetry summary")))
                .unwrap();
        assert!(out.contains("batch: 2 seeds"), "{out}");
        assert!(out.contains("hybrid.epochs"), "{out}");
        assert!(out.contains("hybrid.ff_ns"), "{out}");
    }

    #[test]
    fn trace_fluid_rejects_scheduler_flag() {
        let err = trace(&argv("thm1 --scheduler heap --t-end 0.01")).unwrap_err();
        assert!(err.to_string().contains("--scheduler"), "{err}");
    }

    #[test]
    fn packet_schedulers_render_identically() {
        // The wheel is the default; an explicit heap run must print the
        // same report byte for byte (the engines are bit-identical).
        let wheel = packet(&argv(&format!("{FAST_SIM} --scheduler wheel"))).unwrap();
        let heap = packet(&argv(&format!("{FAST_SIM} --scheduler heap"))).unwrap();
        let default = packet(&argv(FAST_SIM)).unwrap();
        assert_eq!(wheel, heap);
        assert_eq!(wheel, default);
        assert!(packet(&argv(&format!("{FAST_SIM} --scheduler calendar"))).is_err());
    }

    #[test]
    fn atlas_counts_are_consistent() {
        // Small grid on the fast test scale.
        let out = atlas(&argv("--grid 4 --capacity 1e6 --q0 2e4 --buffer 1.5e5 --ru 1e4 --gi 1 --gd 0.015625 --pm 0.05"))
            .unwrap();
        assert!(out.contains("atlas 4x4"), "{out}");
    }

    #[test]
    fn atlas_output_and_csv_are_pinned_at_any_width() {
        let path = std::env::temp_dir().join(format!("dcebcn_atlas_{}.csv", std::process::id()));
        for threads in [1, 2] {
            let _ = std::fs::remove_file(&path);
            let out = crate::run(&argv(&format!(
                "atlas --grid 9 --threads {threads} --out {}",
                path.display()
            )))
            .unwrap();
            parkit::set_threads(0);
            assert!(
                out.starts_with("atlas 9x9: 10/81 strongly stable, criterion certifies 10\n"),
                "{out}"
            );
            let body = std::fs::read(&path).unwrap();
            // FNV-1a of the CSV bytes (a header and 81 rows) as the
            // whole grid evaluated in one batch wrote them.
            let hash = body.iter().fold(0xcbf2_9ce4_8422_2325_u64, |h, &b| {
                (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
            });
            assert_eq!((body.len(), hash), (3019, 0x143c_7d1e_b741_783a), "--threads {threads}");
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn atlas_grid_whose_cell_count_overflows_is_a_usage_error() {
        let err = atlas(&argv("--grid 4294967296")).unwrap_err();
        assert!(matches!(err, CliError::Usage(_)), "{err}");
        assert!(err.to_string().contains("--grid 4294967296"), "{err}");
    }

    #[test]
    fn packet_summary_has_all_sections() {
        let out = packet(&argv(
            "--n 5 --capacity 1e9 --q0 1e6 --buffer 8e6 --qsc 7.2e6 --ru 1e4 --gi 1.2 --gd 0.00006103515625 --pm 0.2 --w 3e5 --t-end 0.05",
        ))
        .unwrap();
        assert!(out.contains("delivered frames"), "{out}");
        assert!(out.contains("queueing delay"), "{out}");
    }

    #[test]
    fn batch_reports_every_seed_and_writes_csv() {
        let path = std::env::temp_dir().join("dcebcn_batch_test.csv");
        let _ = std::fs::remove_file(&path);
        let out = batch(&argv(&format!(
            "--n 5 --capacity 1e9 --q0 1e6 --buffer 8e6 --qsc 7.2e6 --ru 1e4 --gi 1.2 \
             --gd 0.00006103515625 --pm 0.2 --w 3e5 --t-end 0.02 --seeds 3 \
             --telemetry summary --out {}",
            path.display()
        )))
        .unwrap();
        assert!(out.contains("batch: 3 seeds"), "{out}");
        assert!(out.contains("utilisation spread"), "{out}");
        assert!(out.contains("telemetry summary"), "{out}");
        let body = std::fs::read_to_string(&path).unwrap();
        assert!(body.starts_with("seed,delivered,dropped"));
        assert_eq!(body.lines().count(), 4, "{body}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn batch_rejects_zero_seeds() {
        assert!(batch(&argv("--seeds 0")).is_err());
    }

    const FAST_SIM: &str = "--n 5 --capacity 1e9 --q0 1e6 --buffer 8e6 --qsc 7.2e6 --ru 1e4 \
                            --gi 1.2 --gd 0.00006103515625 --pm 0.2 --w 3e5 --t-end 0.02";

    /// The same scenario over a horizon long enough for its quiescent
    /// tail to admit hybrid fast-forward epochs.
    const FAST_LONG: &str = "--n 5 --capacity 1e9 --q0 1e6 --buffer 8e6 --qsc 7.2e6 --ru 1e4 \
                             --gi 1.2 --gd 0.00006103515625 --pm 0.2 --w 3e5 --t-end 0.2";

    #[test]
    fn batch_quarantines_a_panicking_seed() {
        let dir = std::env::temp_dir().join("dcebcn_postmortem_test");
        let _ = std::fs::remove_dir_all(&dir);
        let out = batch(&argv(&format!(
            "{FAST_SIM} --seeds 4 --faults panic-seed=2 --postmortem-dir {}",
            dir.display()
        )))
        .unwrap();
        assert!(out.contains("quarantined 1 of 4 seeds"), "{out}");
        assert!(out.contains("seed 2: seed 2: intentional panic"), "{out}");
        assert!(out.contains("utilisation spread"), "other seeds still reported: {out}");
        // The flight recorder dumped the failing seed's last moments.
        let body = std::fs::read_to_string(dir.join("postmortem-2.jsonl")).unwrap();
        let mut lines = body.lines();
        telemetry::check_schema_header(lines.next().unwrap()).unwrap();
        let record = lines.next().unwrap();
        assert!(record.contains(r#""type":"postmortem""#), "{record}");
        assert!(record.contains(r#""seed":2"#), "{record}");
        assert!(record.contains("intentional panic"), "{record}");
        assert!(record.contains(r#""config_digest":"#), "{record}");
        // One open_span record per span still open at the panic; the
        // outermost is the batch-seed span. Then the trace ring,
        // decodable as events, and finally the replay context (seeded
        // config + fault plan).
        let rest: Vec<&str> = lines.collect();
        let ctx = rest
            .iter()
            .position(|l| l.contains(r#""type":"replay""#))
            .expect("postmortem carries a replay context");
        let (open_spans, events): (Vec<&str>, Vec<&str>) =
            rest[..ctx].iter().partition(|l| l.contains(r#""type":"open_span""#));
        assert!(open_spans[0].contains(r#""kind":"batch_seed""#), "{}", open_spans[0]);
        let events: Vec<_> =
            events.iter().map(|l| telemetry::event_from_jsonl(l).unwrap()).collect();
        assert!(!events.is_empty(), "flight recorder carried no events:\n{body}");
        assert!(rest[ctx..].iter().any(|l| l.contains(r#""type":"fault_plan""#)), "{body}");
        // The dump replays end-to-end: same seed, same panic.
        let msg = replay(&argv(&dir.join("postmortem-2.jsonl").display().to_string())).unwrap();
        assert!(msg.contains("replayed seed 2"), "{msg}");
        assert!(msg.contains("reproduced"), "{msg}");
        assert!(msg.contains("intentional panic"), "{msg}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn replay_rejects_missing_and_undecodable_dumps() {
        let err = replay(&[]).unwrap_err();
        assert!(matches!(err, CliError::Usage(_)), "{err}");
        let err = replay(&argv("--telemetry off")).unwrap_err();
        assert!(matches!(err, CliError::Usage(_)), "{err}");
        let path = std::env::temp_dir().join("dcebcn_replay_not_a_dump.jsonl");
        std::fs::write(&path, format!("{}\n", telemetry::schema_header())).unwrap();
        let err = replay(&argv(&path.display().to_string())).unwrap_err();
        assert!(matches!(err, CliError::Analysis(_)), "{err}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn batch_fail_fast_turns_failures_into_an_error() {
        let dir = std::env::temp_dir().join("dcebcn_fail_fast_test");
        let err = batch(&argv(&format!(
            "{FAST_SIM} --seeds 4 --faults panic-seed=2 --fail-fast --postmortem-dir {}",
            dir.display()
        )))
        .unwrap_err();
        assert!(matches!(err, CliError::Batch(_)), "{err}");
        assert!(err.to_string().contains("1 of 4 seeds failed"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn batch_renders_fault_tallies() {
        let out = batch(&argv(&format!("{FAST_SIM} --seeds 2 --faults feedback-loss=0.3,seed=11")))
            .unwrap();
        assert!(out.contains("injected faults"), "{out}");
        assert!(out.contains("feedback dropped"), "{out}");
    }

    #[test]
    fn packet_accepts_faults_and_reports_them() {
        let out = packet(&argv(&format!("{FAST_SIM} --faults feedback-loss=1.0"))).unwrap();
        assert!(out.contains("injected faults"), "{out}");
        assert!(out.contains("feedback messages:  0"), "{out}");
        // panic-seed is a batch-only key.
        assert!(packet(&argv(&format!("{FAST_SIM} --faults panic-seed=1"))).is_err());
    }

    #[test]
    fn unknown_flags_are_rejected_per_command() {
        assert!(analyze(&argv("--bogus 1")).is_err());
        assert!(buffer(&argv("--t-end 1")).is_err(), "buffer takes no t-end");
    }

    #[test]
    fn trace_thm1_emits_summary_and_jsonl() {
        let path = std::env::temp_dir().join("dcebcn_trace_test.jsonl");
        let _ = std::fs::remove_file(&path);
        let out = trace(&argv(&format!("thm1 --t-end 0.01 --out {}", path.display()))).unwrap();
        assert!(out.contains("telemetry summary"), "{out}");
        assert!(out.contains("solver.steps_accepted"), "{out}");
        assert!(out.contains("solver.step_size_s"), "{out}");
        assert!(out.contains("queue.occupancy_bits"), "{out}");
        let body = std::fs::read_to_string(&path).unwrap();
        let mut lines = body.lines();
        telemetry::check_schema_header(lines.next().unwrap()).unwrap();
        let mut kinds = std::collections::BTreeSet::new();
        for line in lines {
            kinds.insert(telemetry::event_from_jsonl(line).unwrap().type_name());
        }
        for required in ["solver_step_accepted", "region_switch", "queue_extremum", "span_begin"] {
            assert!(kinds.contains(required), "missing {required} in {kinds:?}");
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn trace_defaults_to_thm1_and_respects_off() {
        let out = trace(&argv("--telemetry off --t-end 0.002")).unwrap();
        assert!(out.contains("scenario thm1"), "{out}");
        assert!(out.contains("telemetry: off"), "{out}");
        assert!(!out.contains("telemetry summary"), "{out}");
    }

    #[test]
    fn trace_packet_scenario_counts_messages() {
        let out = trace(&argv(
            "packet --telemetry summary --n 5 --capacity 1e9 --q0 1e6 --buffer 8e6 \
             --qsc 7.2e6 --ru 1e4 --gi 1.2 --gd 0.00006103515625 --pm 0.2 --w 3e5 --t-end 0.02",
        ))
        .unwrap();
        assert!(out.contains("scenario packet"), "{out}");
        assert!(out.contains("sim.bcn_messages"), "{out}");
        assert!(out.contains("queue.occupancy_bits"), "{out}");
    }

    #[test]
    fn trace_rejects_unknown_scenario_and_level() {
        assert!(trace(&argv("bogus")).is_err());
        assert!(trace(&argv("thm1 --telemetry verbose")).is_err());
    }

    #[test]
    fn report_thm1_writes_all_artifacts() {
        let dir = std::env::temp_dir().join("dcebcn_report_thm1");
        let _ = std::fs::remove_dir_all(&dir);
        let out = report(&argv(&format!("thm1 --t-end 0.01 --out-dir {}", dir.display()))).unwrap();
        assert!(out.contains("report for thm1"), "{out}");
        let json = std::fs::read_to_string(dir.join("report.json")).unwrap();
        assert!(json.contains(r#""scenario": "thm1""#), "{json}");
        assert!(json.contains("solver.steps_accepted"), "{json}");
        assert!(json.contains(r#""kind": "solver_leg""#), "spans missing: {json}");
        let queue_svg = std::fs::read_to_string(dir.join("timeline_queue.svg")).unwrap();
        assert!(queue_svg.starts_with("<svg"), "{queue_svg}");
        assert!(queue_svg.contains("polyline"), "queue timeline has no series lane");
        // The fluid model has no per-flow rate series (or discrete BCN
        // messages); the rate timeline degrades to the feedback axes.
        let rate_svg = std::fs::read_to_string(dir.join("timeline_rate.svg")).unwrap();
        assert!(rate_svg.starts_with("<svg"), "{rate_svg}");
        assert!(rate_svg.contains("BCN feedback"), "rate timeline fallback missing");
        let prom = std::fs::read_to_string(dir.join("metrics.prom")).unwrap();
        assert!(prom.contains("# TYPE solver_steps_accepted counter"), "{prom}");
        // Every telemetry run registers the answer-memo counters. A fluid
        // run asks no queries, so they read 0, which the metrics export
        // lists and `report.json` (non-zero counters only) leaves out.
        assert!(prom.contains("propagator_cache_hits 0"), "{prom}");
        assert!(!json.contains("propagator.cache."), "{json}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn report_victim_renders_pause_span_bands() {
        let dir = std::env::temp_dir().join("dcebcn_report_victim");
        let _ = std::fs::remove_dir_all(&dir);
        let out =
            report(&argv(&format!("victim --t-end 0.004 --out-dir {}", dir.display()))).unwrap();
        assert!(out.contains("report for victim"), "{out}");
        let json = std::fs::read_to_string(dir.join("report.json")).unwrap();
        assert!(json.contains(r#""kind": "pause_episode""#), "no PAUSE spans: {json}");
        assert!(json.contains(r#""kind": "queue_depth""#), "no queue series: {json}");
        let queue_svg = std::fs::read_to_string(dir.join("timeline_queue.svg")).unwrap();
        assert!(queue_svg.contains(r#"fill-opacity="0.18""#), "no span bands: {queue_svg}");
        assert!(queue_svg.contains("PAUSE"), "band legend missing: {queue_svg}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn report_from_round_trips_a_trace_and_rejects_stale_files() {
        let dir = std::env::temp_dir().join("dcebcn_report_from");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let trace_path = dir.join("trace.jsonl");
        trace(&argv(&format!("thm1 --t-end 0.01 --out {}", trace_path.display()))).unwrap();
        let out =
            report(&argv(&format!("--from {} --out-dir {}", trace_path.display(), dir.display())))
                .unwrap();
        assert!(out.contains("trace events"), "{out}");
        let json = std::fs::read_to_string(dir.join("report.json")).unwrap();
        assert!(json.contains(r#""kind": "solver_leg""#), "{json}");

        // A pre-span schema version (or a headerless file) is rejected.
        let stale = dir.join("stale.jsonl");
        std::fs::write(&stale, "{\"type\":\"schema\",\"version\":1}\n").unwrap();
        let err = report(&argv(&format!("--from {}", stale.display()))).unwrap_err();
        assert!(matches!(err, CliError::Analysis(_)), "{err}");
        assert!(err.to_string().contains("schema"), "{err}");
        let headerless = dir.join("headerless.jsonl");
        std::fs::write(&headerless, "{\"type\":\"region_switch\",\"t\":0,\"from\":0,\"to\":1}\n")
            .unwrap();
        assert!(report(&argv(&format!("--from {}", headerless.display()))).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn report_rejects_unknown_scenarios_and_bad_flags() {
        assert!(report(&argv("bogus")).is_err());
        assert!(report(&argv("thm1 --t-end 0")).is_err());
        assert!(report(&argv("thm1 --bogus 1")).is_err());
    }

    #[test]
    fn report_from_takes_no_scenario() {
        // Refused before the file is opened, so the path need not exist.
        let err = report(&argv("victim --from missing.jsonl")).unwrap_err();
        assert_eq!(err.to_string(), "usage error: --from does not apply to `report victim`");
    }

    /// A small query stream: headers plus a mix of duplicate, sparse and
    /// explicit parameterisations (so batching has groups to merge).
    fn query_stream() -> (String, Vec<bcn::query::StabilityQuery>) {
        use bcn::query::{query_to_jsonl, StabilityQuery};
        let base = bcn::BcnParams::paper_defaults();
        let queries = vec![
            StabilityQuery::new(base.clone()),
            StabilityQuery::new(base.clone().with_gi(2.0)),
            StabilityQuery::new(base.clone()),
            StabilityQuery::new(base.clone().with_gd(0.05)),
        ];
        let mut text = telemetry::schema_header();
        text.push('\n');
        for q in &queries {
            text.push_str(&query_to_jsonl(q));
            text.push('\n');
        }
        // Sparse lines (paper defaults inherited) must decode too.
        text.push_str("{\"type\":\"query\",\"gi\":3.0}\n");
        let mut sparse = base;
        sparse.gi = 3.0;
        let mut queries = queries;
        queries.push(StabilityQuery::new(sparse));
        (text, queries)
    }

    #[test]
    fn query_round_trips_files_and_matches_library() {
        use bcn::query::{answer_from_jsonl, answer_to_jsonl, evaluate_batch};
        let dir = std::env::temp_dir().join("dcebcn_query_cli");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let in_path = dir.join("queries.jsonl");
        let out_path = dir.join("answers.jsonl");
        let (text, queries) = query_stream();
        std::fs::write(&in_path, &text).unwrap();

        let summary = query(&argv(&format!(
            "--in {} --out {} --telemetry summary",
            in_path.display(),
            out_path.display()
        )))
        .unwrap();
        assert!(summary.contains("answered 5 queries in 1 batch(es)"), "{summary}");
        assert!(summary.contains("query.queries"), "{summary}");

        let written = std::fs::read_to_string(&out_path).unwrap();
        let mut lines = written.lines();
        telemetry::check_schema_header(lines.next().unwrap()).unwrap();
        let expected = evaluate_batch(&queries);
        let decoded: Vec<_> = lines.clone().map(|l| answer_from_jsonl(l).unwrap()).collect();
        assert_eq!(decoded.len(), expected.len());
        for (got, want) in decoded.iter().zip(&expected) {
            assert_eq!(got.strongly_stable, want.strongly_stable);
            assert_eq!(got.max_x.to_bits(), want.max_x.to_bits());
            assert_eq!(got.min_x.to_bits(), want.min_x.to_bits());
            assert_eq!(got.required_buffer.to_bits(), want.required_buffer.to_bits());
        }
        // Decode -> re-encode is byte-identical (CI smokes rely on this).
        for line in lines {
            assert_eq!(answer_to_jsonl(&answer_from_jsonl(line).unwrap()), line);
        }

        // Chunked evaluation produces the identical answer stream.
        let out2 = dir.join("answers_chunk2.jsonl");
        query(&argv(&format!("--in {} --out {} --chunk 2", in_path.display(), out2.display())))
            .unwrap();
        assert_eq!(std::fs::read_to_string(&out2).unwrap(), written);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn query_chunk_never_sizes_an_allocation() {
        let dir = std::env::temp_dir().join(format!("dcebcn_query_chunk-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let in_path = dir.join("one.jsonl");
        std::fs::write(
            &in_path,
            format!("{}\n{{\"type\":\"query\",\"gi\":2.5}}\n", telemetry::schema_header()),
        )
        .unwrap();
        let answers = |chunk: &str| {
            let out_path = dir.join(format!("answers-{chunk}.jsonl"));
            query(&argv(&format!(
                "--in {} --out {} --chunk {chunk}",
                in_path.display(),
                out_path.display()
            )))
            .unwrap();
            std::fs::read_to_string(&out_path).unwrap()
        };
        let one = answers("1");
        assert_eq!(one.lines().count(), 2, "{one}");
        // A chunk far beyond memory used to size two vectors up front.
        assert_eq!(answers("18446744073709551615"), one);
        assert_eq!(answers("100000000000"), one);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn query_answers_a_repeated_chunk_from_the_memo() {
        let dir = std::env::temp_dir().join("dcebcn_query_cli_memo");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let in_path = dir.join("repeat.jsonl");
        let mut text = telemetry::schema_header();
        text.push('\n');
        // The second two-line chunk repeats the first.
        for _ in 0..2 {
            text.push_str("{\"type\":\"query\",\"gi\":2.75,\"max_legs\":9}\n");
            text.push_str("{\"type\":\"query\",\"gd\":0.0275,\"max_legs\":9}\n");
        }
        std::fs::write(&in_path, &text).unwrap();
        let out_path = dir.join("answers.jsonl");
        let summary = query(&argv(&format!(
            "--in {} --out {} --chunk 2 --telemetry summary",
            in_path.display(),
            out_path.display()
        )))
        .unwrap();
        assert!(summary.contains("answered 4 queries in 2 batch(es)"), "{summary}");
        let hits: u64 = summary
            .lines()
            .find_map(|l| l.strip_prefix("| propagator.cache.hits"))
            .and_then(|rest| {
                rest.trim_matches(|c: char| c == '|' || c.is_whitespace()).parse().ok()
            })
            .unwrap_or_else(|| panic!("no hit counter: {summary}"));
        assert!(hits > 0, "{summary}");
        let answers: Vec<String> = std::fs::read_to_string(&out_path)
            .unwrap()
            .lines()
            .skip(1)
            .map(str::to_string)
            .collect();
        assert_eq!(answers[..2], answers[2..], "a memo hit must re-answer byte for byte");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn query_rejects_bad_streams_and_flags() {
        let dir = std::env::temp_dir().join("dcebcn_query_cli_bad");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();

        // Headerless input is rejected up front.
        let headerless = dir.join("headerless.jsonl");
        std::fs::write(&headerless, "{\"type\":\"query\",\"gi\":1.0}\n").unwrap();
        let err =
            query(&argv(&format!("--in {} --out /dev/null", headerless.display()))).unwrap_err();
        assert!(matches!(err, CliError::Analysis(_)), "{err}");
        assert!(err.to_string().contains("schema"), "{err}");

        // Under --strict a bad line fails fast, reported with its
        // source name and line number.
        let bad = dir.join("bad.jsonl");
        let mut text = telemetry::schema_header();
        text.push('\n');
        text.push_str("{\"type\":\"query\",\"gi\":1.0}\n");
        text.push_str("{\"type\":\"query\",\"bogus\":1.0}\n");
        std::fs::write(&bad, &text).unwrap();
        let err =
            query(&argv(&format!("--in {} --out /dev/null --strict", bad.display()))).unwrap_err();
        assert!(matches!(err, CliError::Analysis(_)), "{err}");
        assert!(err.to_string().contains("bad.jsonl:3"), "{err}");

        // Empty stream, bad chunk, unknown flag.
        let empty = dir.join("empty.jsonl");
        std::fs::write(&empty, "").unwrap();
        assert!(query(&argv(&format!("--in {}", empty.display()))).is_err());
        assert!(query(&argv("--chunk 0")).is_err());
        assert!(query(&argv("--bogus 1")).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn query_streams_past_malformed_lines_by_default() {
        let dir = std::env::temp_dir().join("dcebcn_query_cli_skip");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let in_path = dir.join("mixed.jsonl");
        let out_path = dir.join("answers.jsonl");
        let mut text = telemetry::schema_header();
        text.push('\n');
        text.push_str("{\"type\":\"query\",\"gi\":1.0}\n");
        text.push_str("{\"type\":\"query\",\"bogus\":1.0}\n");
        text.push_str("not json at all\n");
        text.push_str("{\"type\":\"query\",\"gi\":2.0}\n");
        std::fs::write(&in_path, &text).unwrap();

        // --chunk 1 forces the error records to straddle chunk
        // boundaries; the output order must still match the input.
        let summary = query(&argv(&format!(
            "--in {} --out {} --chunk 1",
            in_path.display(),
            out_path.display()
        )))
        .unwrap();
        assert!(summary.contains("answered 2 queries"), "{summary}");
        assert!(summary.contains("skipped 2 malformed line(s)"), "{summary}");

        let written = std::fs::read_to_string(&out_path).unwrap();
        let mut lines = written.lines();
        telemetry::check_schema_header(lines.next().unwrap()).unwrap();
        let rest: Vec<&str> = lines.collect();
        assert_eq!(rest.len(), 4, "{written}");
        assert!(rest[0].contains(r#""type":"answer""#), "{}", rest[0]);
        assert!(rest[1].contains(r#""type":"error""#), "{}", rest[1]);
        assert!(rest[1].contains(r#""line":3"#), "{}", rest[1]);
        assert!(rest[2].contains(r#""type":"error""#), "{}", rest[2]);
        assert!(rest[2].contains(r#""line":4"#), "{}", rest[2]);
        assert!(rest[3].contains(r#""type":"answer""#), "{}", rest[3]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn batch_checkpoint_resume_reproduces_the_artifact_byte_for_byte() {
        let dir = std::env::temp_dir().join(format!("dcebcn_cli_ckpt-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let clean_csv = dir.join("clean.csv");
        let resumed_csv = dir.join("resumed.csv");
        let ckpt = dir.join("ckpt");

        let clean =
            batch(&argv(&format!("{FAST_SIM} --seeds 4 --out {}", clean_csv.display()))).unwrap();
        assert!(clean.contains("batch: 4 seeds"), "{clean}");

        // First pass populates the checkpoint; a --resume pass restores
        // every seed without re-running and writes the identical CSV.
        batch(&argv(&format!("{FAST_SIM} --seeds 4 --checkpoint-dir {}", ckpt.display()))).unwrap();
        let resumed = batch(&argv(&format!(
            "{FAST_SIM} --seeds 4 --checkpoint-dir {} --resume --out {}",
            ckpt.display(),
            resumed_csv.display()
        )))
        .unwrap();
        assert!(resumed.contains("supervision: 4 seed(s) restored from checkpoint"), "{resumed}");
        assert_eq!(
            std::fs::read_to_string(&clean_csv).unwrap(),
            std::fs::read_to_string(&resumed_csv).unwrap()
        );

        // Re-creating over an existing manifest is refused; --resume
        // without a directory is a usage error.
        let err =
            batch(&argv(&format!("{FAST_SIM} --seeds 4 --checkpoint-dir {}", ckpt.display())))
                .unwrap_err();
        assert!(matches!(err, CliError::Batch(_)), "{err}");
        assert!(batch(&argv(&format!("{FAST_SIM} --seeds 4 --resume"))).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn batch_watchdog_demotes_seeds_and_fail_fast_maps_to_timeout() {
        let dir = std::env::temp_dir().join(format!("dcebcn_cli_watchdog-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let out = batch(&argv(&format!(
            "{FAST_SIM} --seeds 2 --max-seed-events 200 --telemetry summary \
             --postmortem-dir {}",
            dir.display()
        )))
        .unwrap();
        assert!(out.contains("watchdog demoted 2 of 2 seeds"), "{out}");
        assert!(out.contains("timed out after 200 events"), "{out}");
        assert!(out.contains("batch.timed_out"), "{out}");
        // The demoted seeds replay deterministically from their dumps.
        let msg = replay(&argv(&dir.join("postmortem-0.jsonl").display().to_string())).unwrap();
        assert!(msg.contains("watchdog: event budget exhausted after 200 events"), "{msg}");
        let err = batch(&argv(&format!(
            "{FAST_SIM} --seeds 2 --max-seed-events 200 --fail-fast --postmortem-dir {}",
            dir.display()
        )))
        .unwrap_err();
        assert!(matches!(err, CliError::Timeout(_)), "{err}");
        assert!(err.to_string().contains("2 of 2 seeds hit the watchdog"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    const FAST_TOPO: &str =
        "--topo leaf-spine:leaves=2,spines=2,hosts-per-leaf=4 --traffic incast:senders=4 \
         --t-end 0.002";

    #[test]
    fn packet_topo_output_is_scheduler_invariant() {
        let wheel = packet(&argv(&format!("{FAST_TOPO} --scheduler wheel"))).unwrap();
        let heap = packet(&argv(&format!("{FAST_TOPO} --scheduler heap"))).unwrap();
        assert_eq!(wheel, heap);
        assert!(wheel.contains("fabric run over 0.002 s: 8 hosts, 4 switches, 4 flows"), "{wheel}");
        assert!(wheel.contains("delivered:"), "{wheel}");
    }

    #[test]
    fn topo_rejects_dumbbell_only_flags_and_orphan_traffic() {
        for bad in [
            format!("{FAST_TOPO} --engine hybrid"),
            format!("{FAST_TOPO} --frame-bits 4000"),
            format!("{FAST_TOPO} --n 4"),
            "--traffic incast".to_string(),
        ] {
            let err = packet(&argv(&bad)).unwrap_err();
            assert!(matches!(err, CliError::Usage(_)), "{bad}: {err}");
        }
        for bad in
            [format!("{FAST_TOPO} --start-jitter 1e-5"), format!("{FAST_TOPO} --seed-retries 2")]
        {
            let err = batch(&argv(&bad)).unwrap_err();
            assert!(matches!(err, CliError::Usage(_)), "{bad}: {err}");
        }
        // A bad spec is a typed config error, not a panic.
        for bad in ["--topo fat-tree:k=3", "--topo fat-tree:k=4 --traffic incast:senders=0"] {
            assert!(matches!(packet(&argv(bad)).unwrap_err(), CliError::Sim(_)), "{bad}");
        }
        // --topo replaces trace's packet scenario only.
        assert!(matches!(
            trace(&argv(&format!("thm1 {FAST_TOPO}"))).unwrap_err(),
            CliError::Usage(_)
        ));
    }

    #[test]
    fn batch_topo_checkpoint_resume_reproduces_the_artifact_byte_for_byte() {
        let dir = std::env::temp_dir().join(format!("dcebcn_cli_netckpt-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let clean_csv = dir.join("clean.csv");
        let resumed_csv = dir.join("resumed.csv");
        let ckpt = dir.join("ckpt");

        let clean =
            batch(&argv(&format!("{FAST_TOPO} --seeds 3 --out {}", clean_csv.display()))).unwrap();
        assert!(clean.contains("fabric batch: 3 seeds"), "{clean}");

        batch(&argv(&format!("{FAST_TOPO} --seeds 3 --checkpoint-dir {}", ckpt.display())))
            .unwrap();
        let resumed = batch(&argv(&format!(
            "{FAST_TOPO} --seeds 3 --checkpoint-dir {} --resume --out {}",
            ckpt.display(),
            resumed_csv.display()
        )))
        .unwrap();
        assert!(resumed.contains("supervision: 3 seed(s) restored from checkpoint"), "{resumed}");
        assert_eq!(
            std::fs::read_to_string(&clean_csv).unwrap(),
            std::fs::read_to_string(&resumed_csv).unwrap()
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn batch_topo_renders_fault_tallies() {
        let out =
            batch(&argv(&format!("{FAST_TOPO} --seeds 2 --faults data-loss=0.01,seed=7"))).unwrap();
        assert!(out.contains("injected faults"), "{out}");
        assert!(out.contains("data frames lost"), "{out}");
    }

    #[test]
    fn topo_runs_refuse_feedback_faults_by_key() {
        for key in [
            "feedback-loss",
            "feedback-corrupt",
            "feedback-delay",
            "feedback-reorder",
            "reorder-window",
        ] {
            for command in ["packet", "batch --seeds 2", "trace packet"] {
                let args = argv(&format!("{command} {FAST_TOPO} --faults seed=3,{key}=1e-4"));
                let err = crate::run(&args).unwrap_err();
                assert!(matches!(err, CliError::Usage(_)), "{command} {key}: {err}");
                assert!(err.to_string().contains(&format!("--faults {key} ")), "{err}");
            }
        }
        // The dumbbell still takes them, and the fabric keeps the faults
        // that fire there.
        packet(&argv(&format!("{FAST_SIM} --faults feedback-loss=0.5"))).unwrap();
        let out = packet(&argv(&format!("{FAST_TOPO} --faults data-loss=0.05,seed=3"))).unwrap();
        assert!(out.contains("injected faults"), "{out}");
    }

    #[test]
    fn batch_topo_quarantines_panic_seeds_and_demotes_runaways() {
        let out = batch(&argv(&format!(
            "{FAST_TOPO} --seeds 2 --faults panic-seed=1 --telemetry summary"
        )))
        .unwrap();
        assert!(out.contains("quarantined 1 of 2 seeds"), "{out}");
        assert!(out.contains("intentional panic"), "{out}");
        let out = batch(&argv(&format!("{FAST_TOPO} --seeds 2 --max-seed-events 500"))).unwrap();
        assert!(out.contains("watchdog demoted 2 of 2 seeds"), "{out}");
        let err = batch(&argv(&format!("{FAST_TOPO} --seeds 2 --max-seed-events 500 --fail-fast")))
            .unwrap_err();
        assert!(matches!(err, CliError::Timeout(_)), "{err}");
    }

    #[test]
    fn horizons_outside_the_clock_are_usage_errors() {
        let topo = "--topo leaf-spine:leaves=4,spines=2,hosts-per-leaf=8";
        for command in [
            "simulate".to_string(),
            "simulate --engine hybrid".to_string(),
            "packet".to_string(),
            "packet --engine hybrid".to_string(),
            format!("packet {topo}"),
            "batch --seeds 2".to_string(),
            format!("batch --seeds 2 {topo}"),
            "trace packet".to_string(),
            format!("trace packet {topo}"),
            "trace limit-cycle".to_string(),
            "report limit-cycle".to_string(),
        ] {
            for t_end in ["1e300", "nan", "inf", "-inf", "2e10", "0", "-1"] {
                let args = argv(&format!("{command} --t-end {t_end}"));
                let err = crate::run(&args).unwrap_err();
                assert!(matches!(err, CliError::Usage(_)), "{command} --t-end {t_end}: {err}");
                assert!(err.to_string().contains("--t-end"), "{command} --t-end {t_end}: {err}");
            }
        }
    }

    #[test]
    fn topo_incast_defaults_to_every_other_host() {
        let topo = "--topo leaf-spine:leaves=4,spines=2,hosts-per-leaf=8 --t-end 1e-5";
        for traffic in ["", "--traffic incast"] {
            let out = packet(&argv(&format!("{topo} {traffic}"))).unwrap();
            assert!(out.contains("32 hosts, 6 switches, 31 flows"), "{traffic}: {out}");
        }
    }

    #[test]
    fn trace_topo_emits_summary_and_jsonl() {
        let path =
            std::env::temp_dir().join(format!("dcebcn_trace_topo-{}.jsonl", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let out = trace(&argv(&format!("{FAST_TOPO} --out {}", path.display()))).unwrap();
        assert!(out.contains("scenario fabric: 8 hosts, 4 switches, 4 flows"), "{out}");
        assert!(out.contains("wrote "), "{out}");
        let body = std::fs::read_to_string(&path).unwrap();
        assert!(body.lines().count() > 10, "trace should hold events");
        let _ = std::fs::remove_file(&path);
    }
}
