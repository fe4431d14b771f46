//! Batched multi-seed simulation runs.
//!
//! The simulators themselves are fully deterministic — same config,
//! same trajectory. Sensitivity studies instead perturb the *workload*:
//! each seed deterministically jitters every flow's initial rate (and,
//! on the dumbbell, its start time) with a splitmix64 hash of `(seed,
//! flow, field)`, so a batch explores a reproducible neighbourhood of
//! the base scenario. Seeds run in parallel across the configured worker
//! count (see the `parkit` crate); each run carries its own [`Telemetry`]
//! shard and the shards are merged in seed order afterwards, so the
//! aggregate telemetry is identical at any thread count.
//!
//! One runner serves both batch kinds, the dumbbell ([`BatchConfig`],
//! packet or hybrid engine) and the multi-hop fabric
//! ([`NetBatchConfig`]): each implements [`SeedBatch`], and everything
//! else exists once, generic over the kind.
//!
//! Seeds are *panic-isolated*: a seed whose run panics (or whose jittered
//! configuration fails validation) is captured as
//! [`SeedOutcome::Failed`] and quarantined while every other seed
//! completes normally. A panicking seed additionally surrenders its
//! flight recorder — the telemetry shard it had accumulated up to the
//! panic, including the open-span stack — so the crash can be debriefed
//! (see `dcebcn batch`'s `results/postmortem-<seed>.jsonl`).
//!
//! Three supervision layers harden long campaigns:
//!
//! * **Watchdog** — a per-seed event budget (deterministic) and an
//!   optional wall-clock deadline demote runaway seeds to
//!   [`SeedOutcome::TimedOut`], flight recorder attached, instead of
//!   hanging the batch.
//! * **Retry** — failing seeds can be re-attempted with exponential
//!   backoff ([`BatchConfig::max_seed_retries`]); the retry count rides
//!   on [`SeedOutcome::Failed`] so it survives checkpoints. Fabric
//!   batches have no retry setting and report zero retries.
//! * **Checkpoint/resume** — [`run_batch_checkpointed`] persists every
//!   finished seed through [`crate::checkpoint::BatchCheckpoint`] and
//!   restores acknowledged seeds bit-exactly on resume, so the merged
//!   report after a crash equals an uninterrupted run byte for byte.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

use bcn::BcnParams;
use telemetry::{fmt_num, next_record, SpanKind, Telemetry, TelemetryLevel};

use crate::checkpoint::{
    mix, mix_f, mix_opt, mix_u64s, net_config_digest, push_u64s, put_fault_counts, put_samples,
    put_series, sim_config_digest, take_fault_counts, take_samples, take_series, unpack_u64s,
    BatchCheckpoint, CheckpointError, ReplaySpec, MASK_53,
};
use crate::error::ConfigError;
use crate::faults::splitmix64;
use crate::hybrid::{HybridGuards, HybridSim, HybridSpec};
use crate::metrics::{SampleSet, SimMetrics};
use crate::net::{FlowStats, NetConfig, NetReport, NetSim};
use crate::sim::{SimConfig, SimReport, SimWorkspace, Simulation};
use crate::time::Time;

/// A multi-seed batch around a base dumbbell scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchConfig {
    /// The unperturbed scenario.
    pub base: SimConfig,
    /// One simulation per seed. Seed values are free-form; equal seeds
    /// produce equal runs.
    pub seeds: Vec<u64>,
    /// Telemetry level for every run (`Off` skips the sinks entirely).
    pub level: TelemetryLevel,
    /// Maximum start-time jitter in seconds: each flow's start moves
    /// forward by `u * start_jitter_secs` with `u` uniform in `[0, 1)`.
    pub start_jitter_secs: f64,
    /// Relative initial-rate jitter: each flow's rate is scaled by
    /// `1 + (2u - 1) * rate_jitter_frac`.
    pub rate_jitter_frac: f64,
    /// Seeds that deliberately panic partway through their run (test
    /// hook for the quarantine and flight-recorder machinery; see
    /// `dcebcn batch --faults panic-seed=N`).
    pub panic_seeds: Vec<u64>,
    /// Watchdog event budget: a seed still stepping after this many
    /// dispatched events is demoted to [`SeedOutcome::TimedOut`].
    /// Counted in sim events, so the verdict is deterministic and
    /// identical at any thread count. `None` disables the budget.
    pub max_events_per_seed: Option<u64>,
    /// Watchdog wall-clock deadline per seed, in milliseconds, checked
    /// every few thousand events. Unlike the event budget this depends
    /// on host speed — use it as a backstop against pathological seeds,
    /// not in runs whose artifacts must be machine-independent. `None`
    /// disables the deadline.
    pub max_seed_wall_ms: Option<u64>,
    /// How many times a failing seed is re-attempted before its
    /// [`SeedOutcome::Failed`] is accepted. Timeouts are not retried
    /// (an event-budget verdict is deterministic).
    pub max_seed_retries: u32,
    /// Base backoff before the first retry, in milliseconds; doubles on
    /// each subsequent attempt. Zero sleeps not at all.
    pub retry_backoff_ms: u64,
    /// Run every seed through the hybrid fluid–packet co-simulator
    /// instead of the pure packet engine (see [`crate::hybrid`]).
    /// `None` keeps the batch byte-identical to the pre-hybrid runner.
    pub hybrid: Option<HybridSpec>,
}

impl BatchConfig {
    /// A batch over `n_seeds` consecutive seeds with mild jitter (5% of
    /// the simulated horizon in start time, 10% in initial rate).
    #[must_use]
    pub fn quick(base: SimConfig, n_seeds: u64) -> Self {
        let horizon = base.t_end.as_secs();
        Self {
            base,
            seeds: (0..n_seeds).collect(),
            level: TelemetryLevel::Off,
            start_jitter_secs: 0.05 * horizon,
            rate_jitter_frac: 0.1,
            panic_seeds: Vec::new(),
            max_events_per_seed: None,
            max_seed_wall_ms: None,
            max_seed_retries: 0,
            retry_backoff_ms: 0,
            hybrid: None,
        }
    }
}

/// A multi-seed batch over a multi-hop network scenario
/// ([`crate::net`]), sized for generator-built fabrics
/// ([`crate::topo`]) with thousands of hosts.
///
/// Network flows carry no start time, so only initial rates are
/// jittered, and the deterministic engine has no retry or hybrid
/// settings; everything else runs through the same [`run_batch`] as
/// [`BatchConfig`].
#[derive(Debug, Clone, PartialEq)]
pub struct NetBatchConfig {
    /// The unperturbed network scenario.
    pub base: NetConfig,
    /// One run per seed; equal seeds produce equal runs.
    pub seeds: Vec<u64>,
    /// Telemetry level for every run (`Off` skips the sinks entirely).
    pub level: TelemetryLevel,
    /// Relative initial-rate jitter: each flow's rate is scaled by
    /// `1 + (2u - 1) * rate_jitter_frac` with `u` uniform in `[0, 1)`.
    pub rate_jitter_frac: f64,
    /// Seeds that deliberately panic mid-run (quarantine test hook, as
    /// in [`BatchConfig::panic_seeds`]).
    pub panic_seeds: Vec<u64>,
    /// Watchdog event budget per seed, counted in dispatched events so
    /// the verdict is deterministic. `None` disables it.
    ///
    /// A PAUSE assertion counts as one dispatched event per distinct
    /// propagation delay among the asserting switch's incoming links
    /// (one per assertion on a generated fabric), not one per paused
    /// link; [`NetSim::events_popped`] and the `scheduler.*` telemetry
    /// counters count the same way.
    pub max_events_per_seed: Option<u64>,
    /// Watchdog wall-clock deadline per seed in milliseconds (host
    /// dependent; backstop only). `None` disables it.
    pub max_seed_wall_ms: Option<u64>,
}

impl NetBatchConfig {
    /// A batch over `n_seeds` consecutive seeds with 10% rate jitter.
    #[must_use]
    pub fn quick(base: NetConfig, n_seeds: u64) -> Self {
        Self {
            base,
            seeds: (0..n_seeds).collect(),
            level: TelemetryLevel::Off,
            rate_jitter_frac: 0.1,
            panic_seeds: Vec::new(),
            max_events_per_seed: None,
            max_seed_wall_ms: None,
        }
    }
}

/// The supervision settings of a batch, borrowed from its config.
#[derive(Debug, Clone, Copy, Default)]
pub struct Supervision<'a> {
    /// The seeds, in output order.
    pub seeds: &'a [u64],
    /// Simulated horizon of every seed, in seconds.
    pub t_end: f64,
    /// Telemetry level for every run.
    pub level: TelemetryLevel,
    /// Seeds that deliberately panic ([`PANIC_AFTER_STEPS`] in).
    pub panic_seeds: &'a [u64],
    /// Watchdog event budget per seed.
    pub max_events_per_seed: Option<u64>,
    /// Watchdog wall-clock deadline per seed, in milliseconds.
    pub max_seed_wall_ms: Option<u64>,
    /// Retry attempts for a failing seed.
    pub max_seed_retries: u32,
    /// Base retry backoff in milliseconds, doubled per attempt.
    pub retry_backoff_ms: u64,
}

/// What the supervised step loop needs from an engine.
pub trait SeedEngine: Sized {
    /// The report a finished run produces.
    type Report;
    /// Scratch allocations a worker recycles across its seeds.
    type Workspace: Default;

    /// Dispatches one event; `false` once the run is over.
    fn step(&mut self) -> bool;
    /// Attaches a telemetry sink.
    fn with_telemetry_sink(self, tel: Telemetry) -> Self;
    /// Removes the telemetry sink as it stands (the flight recorder of
    /// a run that cannot finish).
    fn take_telemetry(&mut self) -> Option<Telemetry>;
    /// Finalises the run into its report, returning buffers to `ws`.
    fn finish_into(self, ws: &mut Self::Workspace) -> Self::Report;
    /// The telemetry shard a report carries.
    fn telemetry(report: &Self::Report) -> Option<&Telemetry>;
    /// The telemetry slot of a report.
    fn telemetry_mut(report: &mut Self::Report) -> &mut Option<Telemetry>;
}

/// One kind of batch: what [`run_batch`] and the checkpoint journal
/// need that differs between engines. Everything else — outcomes,
/// reports, supervision, the parallel runner, the journal — is shared.
pub trait SeedBatch: std::fmt::Debug + Sync {
    /// One seed's fully seeded scenario.
    type Scenario;
    /// The report of a completed seed.
    type Report: std::fmt::Debug + Send;
    /// The engine a seed runs on.
    type Engine: SeedEngine<Report = Self::Report>;
    /// `type` of the record that opens each checkpoint shard.
    const SEED_RECORD: &'static str;
    /// Whether that record carries the retry count.
    const SHARD_RETRIES: bool;

    /// The seeds and supervision settings.
    fn supervision(&self) -> Supervision<'_>;
    /// The base scenario perturbed for `seed`; equal seeds give equal
    /// scenarios.
    fn scenario(&self, seed: u64) -> Self::Scenario;
    /// Validates `scenario` and builds its engine in `ws`; an error
    /// quarantines the seed as [`SeedOutcome::Failed`].
    fn engine(
        &self,
        scenario: Self::Scenario,
        ws: &mut <Self::Engine as SeedEngine>::Workspace,
    ) -> Result<Self::Engine, ConfigError>;
    /// Digest of everything that shapes the outcomes; a checkpoint
    /// journal refuses to resume under a different one.
    fn digest(&self) -> u64;
    /// Appends the records of a completed report, telemetry excluded.
    fn encode_report(report: &Self::Report, out: &mut String);
    /// Decodes the records [`encode_report`](SeedBatch::encode_report)
    /// wrote, leaving the telemetry slot empty.
    fn decode_report<'a, I: Iterator<Item = &'a str>>(
        lines: &mut I,
    ) -> Result<Self::Report, CheckpointError>;
}

/// What happened to one seed of a batch.
///
/// The completed report is boxed: a report carries full time series, so
/// parking it on the heap keeps the outcome vector compact next to the
/// small `Failed` variant.
#[derive(Debug)]
pub enum SeedOutcome<R = SimReport> {
    /// The run finished; its report is attached.
    Completed(Box<R>),
    /// The run panicked or its configuration was invalid; the seed is
    /// quarantined and the rest of the batch is unaffected.
    Failed {
        /// Human-readable failure cause (panic message or config
        /// error), sanitised to survive the flat JSONL codec (no `"`
        /// or control characters).
        cause: String,
        /// How many retry attempts were burned before this failure was
        /// accepted (0 when retries are disabled).
        retries: u32,
        /// The flight recorder salvaged from the panicked run: the
        /// telemetry shard as it stood at the moment of the panic —
        /// trace ring, open-span stack, metrics. `None` when collection
        /// was off or the configuration never validated.
        telemetry: Option<Box<Telemetry>>,
    },
    /// The watchdog demoted the run: it exhausted its event budget (or
    /// wall-clock deadline) and was stopped mid-flight.
    TimedOut {
        /// Events dispatched before the watchdog fired.
        events: u64,
        /// The flight recorder as it stood at demotion (`None` when
        /// collection was off).
        telemetry: Option<Box<Telemetry>>,
    },
}

/// What happened to one seed of a fabric batch.
pub type NetSeedOutcome = SeedOutcome<NetReport>;

/// Supervision tallies for one batch run: how many seeds were restored
/// from a checkpoint, how many retry attempts were burned on failing
/// seeds, and how many seeds the watchdog demoted.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SupervisorStats {
    /// Seeds restored bit-exactly from the checkpoint (skipped).
    pub resumed: u64,
    /// Retry attempts recorded on [`SeedOutcome::Failed`] outcomes.
    /// Deterministic and checkpointed, so it survives resume.
    pub retried: u64,
    /// Seeds demoted to [`SeedOutcome::TimedOut`] by the watchdog.
    pub timed_out: u64,
}

/// The result of one batch: per-seed outcomes in seed order plus the
/// merged telemetry aggregate.
#[derive(Debug)]
pub struct BatchReport<R = SimReport> {
    /// The seeds, in the order the outcomes are stored.
    pub seeds: Vec<u64>,
    /// One outcome per seed, input order preserved.
    pub outcomes: Vec<SeedOutcome<R>>,
    /// Telemetry shards of the *completed* seeds merged in seed order
    /// (counters added, histograms combined bucket-wise, traces
    /// interleaved by sim time); `None` when the level disables
    /// collection. Carries the resume-stable supervision counters
    /// `batch.retried` / `batch.timed_out` (but *not* `batch.resumed`,
    /// which would make a resumed artifact differ from a clean one).
    pub telemetry: Option<Telemetry>,
    /// Supervision tallies (resume/retry/watchdog) for this run.
    pub supervisor: SupervisorStats,
}

/// The result of one fabric batch.
pub type NetBatchReport = BatchReport<NetReport>;

impl<R> BatchReport<R> {
    /// The seeds that finished, with their reports, in seed order.
    pub fn completed(&self) -> impl Iterator<Item = (u64, &R)> {
        self.seeds.iter().zip(&self.outcomes).filter_map(|(&seed, out)| match out {
            SeedOutcome::Completed(report) => Some((seed, report.as_ref())),
            _ => None,
        })
    }

    /// The quarantined seeds with their failure causes, in seed order
    /// (watchdog timeouts are listed separately by
    /// [`timed_out`](BatchReport::timed_out)).
    pub fn failures(&self) -> impl Iterator<Item = (u64, &str)> {
        self.seeds.iter().zip(&self.outcomes).filter_map(|(&seed, out)| match out {
            SeedOutcome::Failed { cause, .. } => Some((seed, cause.as_str())),
            _ => None,
        })
    }

    /// The watchdog-demoted seeds with their event counts, in seed
    /// order.
    pub fn timed_out(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.seeds.iter().zip(&self.outcomes).filter_map(|(&seed, out)| match out {
            SeedOutcome::TimedOut { events, .. } => Some((seed, *events)),
            _ => None,
        })
    }

    /// Every quarantined seed (failed *or* timed out) with a
    /// replay-comparable cause string and the salvaged flight-recorder
    /// telemetry (when any was captured), in seed order.
    pub fn postmortems(&self) -> impl Iterator<Item = (u64, String, Option<&Telemetry>)> {
        self.seeds.iter().zip(&self.outcomes).filter_map(|(&seed, out)| match out {
            SeedOutcome::Completed(_) => None,
            SeedOutcome::Failed { cause, telemetry, .. } => {
                Some((seed, cause.clone(), telemetry.as_deref()))
            }
            SeedOutcome::TimedOut { events, telemetry } => {
                Some((seed, timeout_cause(*events), telemetry.as_deref()))
            }
        })
    }
}

/// How many events a `panic_seeds` run dispatches before it blows up —
/// enough that the flight recorder has a trace worth dumping. Public so
/// the CLI can embed the same trigger in postmortem replay contexts.
pub const PANIC_AFTER_STEPS: u64 = 256;

/// Steps between wall-clock deadline checks: `Instant::now()` is too
/// expensive for every event, and a few thousand events of slack on a
/// best-effort deadline is immaterial.
const WALL_CHECK_EVERY: u64 = 4096;

/// The replay-comparable cause string for a watchdog demotion; shared
/// by postmortem dumps and [`replay`] so the comparison is verbatim.
fn timeout_cause(events: u64) -> String {
    format!("watchdog: event budget exhausted after {events} events")
}

/// Strips characters the flat JSONL codec cannot carry (`"` becomes
/// `'`, control characters become spaces). Applied to every failure
/// cause at the point of capture, so the in-memory outcome, the
/// checkpoint shard, and the postmortem dump all agree byte for byte.
fn sanitize_cause(s: &str) -> String {
    s.chars()
        .map(|c| match c {
            '"' => '\'',
            c if c.is_control() => ' ',
            c => c,
        })
        .collect()
}

/// A deterministic uniform sample in `[0, 1)` keyed by `(seed, flow,
/// field)`.
fn unit(seed: u64, flow: u64, field: u64) -> f64 {
    let h = splitmix64(seed ^ splitmix64(flow ^ splitmix64(field)));
    // 53 high bits -> the full f64 mantissa range.
    (h >> 11) as f64 / (1u64 << 53) as f64
}

/// Whether `secs` is a span [`Time::from_secs`] accepts: finite, not
/// negative, and at most [`Time::MAX`].
fn in_clock_range(secs: f64) -> bool {
    secs >= 0.0 && secs * 1e9 <= Time::MAX.as_nanos() as f64
}

/// The base scenario of `cfg` perturbed for one seed
/// ([`SeedBatch::scenario`]). Seed-stable: the same `(cfg, seed)` pair
/// always yields the same configuration.
#[must_use]
pub fn seeded_config<C: SeedBatch>(cfg: &C, seed: u64) -> C::Scenario {
    cfg.scenario(seed)
}

pub use self::seeded_config as seeded_net_config;

/// The engine a dumbbell seed runs on: the pure packet simulator or the
/// hybrid co-simulator (boxed — it carries the packet engine plus the
/// propagator and controller state).
#[allow(clippy::large_enum_variant)] // one short-lived engine per seed; no point boxing the common case
pub enum DumbbellEngine {
    /// [`Simulation`].
    Packet(Simulation),
    /// [`HybridSim`].
    Hybrid(Box<HybridSim>),
}

impl SeedEngine for DumbbellEngine {
    type Report = SimReport;
    type Workspace = SimWorkspace;

    fn step(&mut self) -> bool {
        match self {
            DumbbellEngine::Packet(sim) => sim.step(),
            DumbbellEngine::Hybrid(h) => h.step(),
        }
    }

    fn with_telemetry_sink(self, tel: Telemetry) -> Self {
        match self {
            DumbbellEngine::Packet(sim) => DumbbellEngine::Packet(sim.with_telemetry_sink(tel)),
            DumbbellEngine::Hybrid(h) => {
                DumbbellEngine::Hybrid(Box::new(h.with_telemetry_sink(tel)))
            }
        }
    }

    fn take_telemetry(&mut self) -> Option<Telemetry> {
        match self {
            DumbbellEngine::Packet(sim) => sim.take_telemetry(),
            DumbbellEngine::Hybrid(h) => h.take_telemetry(),
        }
    }

    /// Finalizes into the packet report (the hybrid epoch accounting
    /// reaches the batch aggregate through the `hybrid.*` telemetry
    /// counters the engine flushes on finish).
    fn finish_into(self, ws: &mut SimWorkspace) -> SimReport {
        match self {
            DumbbellEngine::Packet(sim) => sim.finish_into(ws),
            DumbbellEngine::Hybrid(h) => h.finish_into(ws).sim,
        }
    }

    fn telemetry(report: &SimReport) -> Option<&Telemetry> {
        report.telemetry.as_ref()
    }

    fn telemetry_mut(report: &mut SimReport) -> &mut Option<Telemetry> {
        &mut report.telemetry
    }
}

impl SeedEngine for NetSim {
    type Report = NetReport;
    type Workspace = ();

    fn step(&mut self) -> bool {
        NetSim::step(self)
    }

    fn with_telemetry_sink(self, tel: Telemetry) -> Self {
        NetSim::with_telemetry_sink(self, tel)
    }

    fn take_telemetry(&mut self) -> Option<Telemetry> {
        NetSim::take_telemetry(self)
    }

    fn finish_into(self, (): &mut ()) -> NetReport {
        self.finish()
    }

    fn telemetry(report: &NetReport) -> Option<&Telemetry> {
        report.telemetry.as_ref()
    }

    fn telemetry_mut(report: &mut NetReport) -> &mut Option<Telemetry> {
        &mut report.telemetry
    }
}

impl SeedBatch for BatchConfig {
    type Scenario = SimConfig;
    type Report = SimReport;
    type Engine = DumbbellEngine;
    const SEED_RECORD: &'static str = "seed";
    const SHARD_RETRIES: bool = true;

    fn supervision(&self) -> Supervision<'_> {
        Supervision {
            seeds: &self.seeds,
            t_end: self.base.t_end.as_secs(),
            level: self.level,
            panic_seeds: &self.panic_seeds,
            max_events_per_seed: self.max_events_per_seed,
            max_seed_wall_ms: self.max_seed_wall_ms,
            max_seed_retries: self.max_seed_retries,
            retry_backoff_ms: self.retry_backoff_ms,
        }
    }

    /// Every flow's start time and initial rate jittered. A start the
    /// jitter would make negative, non-finite or later than [`Time::MAX`]
    /// stays unjittered, and [`engine`](SeedBatch::engine) refuses the
    /// seed.
    fn scenario(&self, seed: u64) -> SimConfig {
        let mut out = self.base.clone();
        for (i, flow) in out.flows.iter_mut().enumerate() {
            let i = i as u64;
            let ds = unit(seed, i, 0) * self.start_jitter_secs;
            let dr = 1.0 + (2.0 * unit(seed, i, 1) - 1.0) * self.rate_jitter_frac;
            let start = flow.start.as_secs() + ds;
            if in_clock_range(start) {
                flow.start = Time::from_secs(start);
            }
            flow.initial_rate *= dr;
        }
        // With fault injection on, each seed gets its own decision
        // streams; a fault-free base is left untouched so the run stays
        // byte-identical to the pre-fault-layer batch.
        if out.faults.enabled() {
            out.faults.seed = splitmix64(seed ^ out.faults.seed);
        }
        out
    }

    fn engine(
        &self,
        scenario: SimConfig,
        ws: &mut SimWorkspace,
    ) -> Result<DumbbellEngine, ConfigError> {
        let jitter = self.start_jitter_secs;
        if !in_clock_range(jitter) {
            return Err(ConfigError::new(
                "batch.start_jitter",
                format!(
                    "start jitter must be finite, non-negative and within the clock's range, \
                     got {jitter}"
                ),
            ));
        }
        scenario.validate()?;
        Ok(match &self.hybrid {
            Some(spec) => {
                spec.validate_for(&scenario)?;
                DumbbellEngine::Hybrid(Box::new(HybridSim::new_in(
                    spec.params.clone(),
                    scenario,
                    spec.guards,
                    ws,
                )))
            }
            None => DumbbellEngine::Packet(Simulation::new_in(scenario, ws)),
        })
    }

    /// The base scenario plus everything that shapes per-seed outcomes:
    /// seed list, jitters, telemetry level, panic hooks, watchdog, retry
    /// policy and hybrid settings.
    fn digest(&self) -> u64 {
        let BatchConfig {
            base,
            seeds,
            level,
            start_jitter_secs,
            rate_jitter_frac,
            panic_seeds,
            max_events_per_seed,
            max_seed_wall_ms,
            max_seed_retries,
            retry_backoff_ms,
            hybrid,
        } = self;
        let mut h = mix(0xa076_1d64_78bd_642f, sim_config_digest(base));
        h = mix_u64s(h, seeds);
        h = mix(h, *level as u64);
        h = mix_f(h, *start_jitter_secs);
        h = mix_f(h, *rate_jitter_frac);
        h = mix_u64s(h, panic_seeds);
        h = mix_opt(h, *max_events_per_seed);
        h = mix_opt(h, *max_seed_wall_ms);
        h = mix(h, u64::from(*max_seed_retries));
        h = mix(h, *retry_backoff_ms);
        h = match hybrid {
            Some(HybridSpec { params, guards }) => {
                let BcnParams { n_flows, capacity, q0, buffer, gi, gd, ru, w, pm, qsc } = params;
                let HybridGuards { always_packet } = guards;
                let mut h = mix(h, 1);
                h = mix(h, u64::from(*n_flows));
                for v in [capacity, q0, buffer, gi, gd, ru, w, pm, qsc] {
                    h = mix_f(h, *v);
                }
                mix(h, u64::from(*always_packet))
            }
            None => mix(h, 0),
        };
        h & MASK_53
    }

    /// Every [`SimMetrics`] field and the final rates.
    fn encode_report(report: &SimReport, out: &mut String) {
        let m = &report.metrics;
        let _ = writeln!(
            out,
            r#"{{"type":"sim_counters","delivered_frames":{},"dropped_frames":{},"feedback_messages":{},"pause_events":{},"delivered_bits":{},"sources":{}}}"#,
            m.delivered_frames,
            m.dropped_frames,
            m.feedback_messages,
            m.pause_events,
            fmt_num(m.delivered_bits),
            m.per_source_rate.len(),
        );
        put_fault_counts(out, &m.faults);
        put_samples(out, "final_rates", &report.final_rates);
        put_samples(out, "per_source_bits", &m.per_source_bits);
        put_samples(out, "queueing_delay", m.queueing_delay.values());
        let mut grid = None;
        put_series(out, &mut grid, "queue", None, &m.queue);
        put_series(out, &mut grid, "aggregate_rate", None, &m.aggregate_rate);
        for (i, s) in m.per_source_rate.iter().enumerate() {
            put_series(out, &mut grid, "rate", Some(i), s);
        }
    }

    fn decode_report<'a, I: Iterator<Item = &'a str>>(
        lines: &mut I,
    ) -> Result<SimReport, CheckpointError> {
        let c = next_record(lines, "sim_counters")?;
        let sources = c.u64("sources")? as usize;
        let faults = take_fault_counts(lines)?;
        let final_rates = take_samples(lines, "final_rates")?;
        let per_source_bits = take_samples(lines, "per_source_bits")?;
        let queueing_delay = SampleSet::from_values(take_samples(lines, "queueing_delay")?);
        let mut grid = None;
        let queue = take_series(lines, &mut grid, "queue", None)?;
        let aggregate_rate = take_series(lines, &mut grid, "aggregate_rate", None)?;
        let mut per_source_rate = Vec::new();
        for i in 0..sources {
            per_source_rate.push(take_series(lines, &mut grid, "rate", Some(i))?);
        }
        let metrics = SimMetrics {
            queue,
            aggregate_rate,
            delivered_frames: c.u64("delivered_frames")?,
            dropped_frames: c.u64("dropped_frames")?,
            feedback_messages: c.u64("feedback_messages")?,
            pause_events: c.u64("pause_events")?,
            per_source_bits,
            delivered_bits: c.f64("delivered_bits")?,
            queueing_delay,
            per_source_rate,
            faults,
        };
        Ok(SimReport { metrics, final_rates, telemetry: None })
    }
}

impl SeedBatch for NetBatchConfig {
    type Scenario = NetConfig;
    type Report = NetReport;
    type Engine = NetSim;
    const SEED_RECORD: &'static str = "net_seed";
    const SHARD_RETRIES: bool = false;

    fn supervision(&self) -> Supervision<'_> {
        Supervision {
            seeds: &self.seeds,
            t_end: self.base.t_end.as_secs(),
            level: self.level,
            panic_seeds: &self.panic_seeds,
            max_events_per_seed: self.max_events_per_seed,
            max_seed_wall_ms: self.max_seed_wall_ms,
            ..Supervision::default()
        }
    }

    /// Every flow's initial rate jittered with the same `(seed, flow,
    /// field)` hash as the dumbbell (field 1, the rate field, so a flow
    /// draws the same perturbation in both kinds), and the fault seed
    /// remixed per seed when injection is enabled.
    fn scenario(&self, seed: u64) -> NetConfig {
        let mut out = self.base.clone();
        for (i, flow) in out.flows.iter_mut().enumerate() {
            let dr = 1.0 + (2.0 * unit(seed, i as u64, 1) - 1.0) * self.rate_jitter_frac;
            flow.initial_rate *= dr;
        }
        if out.faults.enabled() {
            out.faults.seed = splitmix64(seed ^ out.faults.seed);
        }
        out
    }

    fn engine(&self, scenario: NetConfig, (): &mut ()) -> Result<NetSim, ConfigError> {
        NetSim::try_new(scenario)
    }

    /// The base scenario, seed list, rate jitter, telemetry level, panic
    /// hooks and watchdog.
    fn digest(&self) -> u64 {
        let NetBatchConfig {
            base,
            seeds,
            level,
            rate_jitter_frac,
            panic_seeds,
            max_events_per_seed,
            max_seed_wall_ms,
        } = self;
        let mut h = mix(0x2545_f491_4f6c_dd1d, net_config_digest(base));
        h = mix_u64s(h, seeds);
        h = mix(h, *level as u64);
        h = mix_f(h, *rate_jitter_frac);
        h = mix_u64s(h, panic_seeds);
        h = mix_opt(h, *max_events_per_seed);
        h = mix_opt(h, *max_seed_wall_ms);
        h & MASK_53
    }

    /// Every per-flow statistic, the per-switch queue series, the
    /// per-link PAUSE counts and the fault tallies.
    fn encode_report(report: &NetReport, out: &mut String) {
        let _ = write!(
            out,
            r#"{{"type":"net_counters","feedback_messages":{},"flows":{},"switches":{},"pause_counts":""#,
            report.feedback_messages,
            report.flows.len(),
            report.switch_queues.len(),
        );
        push_u64s(out, report.pause_counts.iter().copied());
        out.push_str(r#"","dropped_frames":""#);
        push_u64s(out, report.flows.iter().map(|f| f.dropped_frames));
        out.push_str("\"}\n");
        put_fault_counts(out, &report.faults);
        let delivered: Vec<f64> = report.flows.iter().map(|f| f.delivered_bits).collect();
        let rates: Vec<f64> = report.flows.iter().map(|f| f.final_rate).collect();
        put_samples(out, "delivered_bits", &delivered);
        put_samples(out, "final_rate", &rates);
        let mut grid = None;
        for (i, s) in report.switch_queues.iter().enumerate() {
            put_series(out, &mut grid, "switch_queue", Some(i), s);
        }
    }

    fn decode_report<'a, I: Iterator<Item = &'a str>>(
        lines: &mut I,
    ) -> Result<NetReport, CheckpointError> {
        let c = next_record(lines, "net_counters")?;
        let n_flows = c.u64("flows")? as usize;
        let n_switches = c.u64("switches")? as usize;
        let pause_counts = unpack_u64s(c.str("pause_counts")?, "pause_counts")?;
        let dropped = unpack_u64s(c.str("dropped_frames")?, "dropped_frames")?;
        let faults = take_fault_counts(lines)?;
        let delivered = take_samples(lines, "delivered_bits")?;
        let rates = take_samples(lines, "final_rate")?;
        if delivered.len() != n_flows || rates.len() != n_flows || dropped.len() != n_flows {
            return Err(CheckpointError::Format(format!(
                "net shard: {n_flows} flows vs {} delivered / {} rates / {} drop counts",
                delivered.len(),
                rates.len(),
                dropped.len()
            )));
        }
        let flows = delivered
            .into_iter()
            .zip(rates)
            .zip(dropped)
            .map(|((delivered_bits, final_rate), dropped_frames)| FlowStats {
                delivered_bits,
                dropped_frames,
                final_rate,
            })
            .collect();
        let mut grid = None;
        let mut switch_queues = Vec::new();
        for i in 0..n_switches {
            switch_queues.push(take_series(lines, &mut grid, "switch_queue", Some(i))?);
        }
        Ok(NetReport {
            flows,
            switch_queues,
            pause_counts,
            feedback_messages: c.u64("feedback_messages")?,
            faults,
            telemetry: None,
        })
    }
}

/// How one supervised step loop ended (when it did not panic).
enum StepEnd {
    /// The run drained its event queue normally.
    Done,
    /// The watchdog fired after this many events.
    Budget(u64),
}

/// Runs one already-built engine under full supervision: telemetry sink
/// at `level` with per-seed span-id base, intentional panic hook, and
/// `sup`'s event budget and wall-clock deadline. `ws` must be a
/// workspace the caller owns; on non-completion it is left torn and must
/// be discarded.
fn supervise<E: SeedEngine>(
    mut engine: E,
    seed: u64,
    level: TelemetryLevel,
    panic_after: Option<u64>,
    sup: &Supervision<'_>,
    ws: &mut E::Workspace,
) -> SeedOutcome<E::Report> {
    let mut seed_span = 0;
    if level.enabled() {
        let mut tel = Telemetry::new(level);
        // Disjoint per-seed id ranges keep span ids unique after the
        // shards merge.
        tel.set_span_id_base((seed + 1) << 32);
        seed_span = tel.span_begin(0.0, SpanKind::BatchSeed, seed as u32, 0);
        engine = engine.with_telemetry_sink(tel);
    }
    let deadline = sup.max_seed_wall_ms.map(|ms| Instant::now() + Duration::from_millis(ms));
    // Only the step loop is unwind-wrapped: construction was validated
    // by the caller, and the engine stays owned out here so a panicking
    // run can still surrender its flight recorder. The closure mutates
    // nothing but the engine, which is inspected (not re-run) after a
    // panic, so the unwind-safety assertion is sound.
    let stepped = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let mut steps: u64 = 0;
        while engine.step() {
            steps += 1;
            if panic_after.is_some_and(|n| steps >= n) {
                panic!("seed {seed}: intentional panic (panic_seeds)");
            }
            if sup.max_events_per_seed.is_some_and(|n| steps >= n) {
                return StepEnd::Budget(steps);
            }
            if steps.is_multiple_of(WALL_CHECK_EVERY)
                && deadline.is_some_and(|d| Instant::now() >= d)
            {
                return StepEnd::Budget(steps);
            }
        }
        // A run shorter than the trigger still has to fail.
        if panic_after.is_some() {
            panic!("seed {seed}: intentional panic (panic_seeds)");
        }
        StepEnd::Done
    }));
    match stepped {
        Ok(StepEnd::Done) => {
            let mut report = engine.finish_into(ws);
            if let Some(tel) = E::telemetry_mut(&mut report) {
                tel.span_end(sup.t_end, seed_span);
            }
            SeedOutcome::Completed(Box::new(report))
        }
        Ok(StepEnd::Budget(events)) => {
            SeedOutcome::TimedOut { events, telemetry: engine.take_telemetry().map(Box::new) }
        }
        Err(payload) => SeedOutcome::Failed {
            cause: sanitize_cause(&panic_message(payload.as_ref())),
            retries: 0,
            telemetry: engine.take_telemetry().map(Box::new),
        },
    }
}

/// One seed under the batch's retry policy. The workspace is taken out
/// for the duration of each attempt so a panicking seed cannot leave
/// half-torn buffers behind; it is restored only after a completed run
/// or a configuration that never built an engine.
fn run_seed<C: SeedBatch>(
    cfg: &C,
    seed: u64,
    ws: &mut <C::Engine as SeedEngine>::Workspace,
) -> SeedOutcome<C::Report> {
    let sup = cfg.supervision();
    // Known-hazardous seeds get a full flight recorder regardless of
    // the batch level: they always fail, so their shards never reach
    // the merge and the upgrade cannot perturb aggregate telemetry.
    let panic_after = sup.panic_seeds.contains(&seed).then_some(PANIC_AFTER_STEPS);
    let level = if panic_after.is_some() { TelemetryLevel::Full } else { sup.level };
    let mut attempt: u32 = 0;
    loop {
        let mut local = std::mem::take(ws);
        let engine = match cfg.engine(cfg.scenario(seed), &mut local) {
            Ok(engine) => engine,
            Err(e) => {
                *ws = local;
                return SeedOutcome::Failed {
                    cause: sanitize_cause(&e.to_string()),
                    retries: attempt,
                    telemetry: None,
                };
            }
        };
        match supervise(engine, seed, level, panic_after, &sup, &mut local) {
            outcome @ SeedOutcome::Completed(_) => {
                *ws = local;
                return outcome;
            }
            // An event-budget verdict is deterministic — retrying would
            // reproduce it exactly, so don't burn the attempts.
            outcome @ SeedOutcome::TimedOut { .. } => return outcome,
            SeedOutcome::Failed { cause, telemetry, .. } => {
                if attempt >= sup.max_seed_retries {
                    return SeedOutcome::Failed { cause, retries: attempt, telemetry };
                }
                attempt += 1;
                if sup.retry_backoff_ms > 0 {
                    let backoff = sup.retry_backoff_ms.saturating_mul(1 << (attempt - 1).min(16));
                    std::thread::sleep(Duration::from_millis(backoff));
                }
            }
        }
    }
}

/// Runs every seed of the batch, in parallel across the configured
/// worker count, and merges the telemetry shards in seed order.
///
/// Determinism: each seed's trajectory depends only on its
/// [`seeded_config`], and results land at their seed's index, so the
/// batch output — including the merged telemetry — is identical at any
/// thread count (`DCE_BCN_THREADS=1` included).
#[must_use]
pub fn run_batch<C: SeedBatch>(cfg: &C) -> BatchReport<C::Report> {
    run_batch_inner(cfg, None).expect("in-memory batch performs no checkpoint I/O")
}

pub use self::run_batch as run_net_batch;

/// [`run_batch`] with crash recovery: every finished seed is persisted
/// through `ckpt` before its result is counted, and seeds already
/// acknowledged by the checkpoint are restored bit-exactly instead of
/// re-run. Because restored outcomes equal fresh ones byte for byte,
/// the merged report of a resumed batch is identical to an
/// uninterrupted run at any thread count.
///
/// # Errors
///
/// Fails on the first checkpoint I/O error — the batch aborts rather
/// than silently running uncheckpointed.
pub fn run_batch_checkpointed<C: SeedBatch>(
    cfg: &C,
    ckpt: &BatchCheckpoint<C>,
) -> Result<BatchReport<C::Report>, CheckpointError> {
    run_batch_inner(cfg, Some(ckpt))
}

fn run_batch_inner<C: SeedBatch>(
    cfg: &C,
    ckpt: Option<&BatchCheckpoint<C>>,
) -> Result<BatchReport<C::Report>, CheckpointError> {
    let sup = cfg.supervision();
    let restored: Vec<Option<SeedOutcome<C::Report>>> =
        sup.seeds.iter().map(|&s| ckpt.and_then(|c| c.take_restored(s))).collect();
    let todo: Vec<usize> =
        restored.iter().enumerate().filter_map(|(i, r)| r.is_none().then_some(i)).collect();
    let resumed = (sup.seeds.len() - todo.len()) as u64;
    let first_io_err: std::sync::Mutex<Option<CheckpointError>> = std::sync::Mutex::new(None);
    // Each worker keeps one workspace, so the dumbbell's event-queue
    // slab and bottleneck FIFO are allocated once per worker and
    // recycled across its seeds (reuse changes no trajectory — see
    // `workspace_reuse_is_bit_identical` in `crate::sim`).
    let fresh = parkit::par_map_init(todo.len(), Default::default, |ws, k| {
        let seed = sup.seeds[todo[k]];
        let outcome = run_seed(cfg, seed, ws);
        if let Some(ck) = ckpt {
            if let Err(e) = ck.record(seed, &outcome) {
                let mut slot = first_io_err.lock().expect("checkpoint error slot");
                if slot.is_none() {
                    *slot = Some(e);
                }
            }
        }
        outcome
    });
    if let Some(e) = first_io_err.into_inner().expect("checkpoint error slot") {
        return Err(e);
    }
    // Zip restored and fresh outcomes back into seed order (`todo` is
    // ascending and `par_map_init` lands results at their index, so the
    // fresh outcomes stream in the same order the gaps appear).
    let mut fresh = fresh.into_iter();
    let outcomes: Vec<SeedOutcome<C::Report>> = restored
        .into_iter()
        .map(|slot| slot.unwrap_or_else(|| fresh.next().expect("one fresh outcome per gap")))
        .collect();
    let (mut retried, mut timed_out) = (0u64, 0u64);
    for outcome in &outcomes {
        match outcome {
            SeedOutcome::Failed { retries, .. } => retried += u64::from(*retries),
            SeedOutcome::TimedOut { .. } => timed_out += 1,
            SeedOutcome::Completed(_) => {}
        }
    }
    let telemetry = sup.level.enabled().then(|| {
        let mut agg = Telemetry::new(sup.level);
        for outcome in &outcomes {
            if let SeedOutcome::Completed(report) = outcome {
                if let Some(shard) = C::Engine::telemetry(report) {
                    agg.merge(shard);
                }
            }
        }
        // Derived from checkpointed outcomes, so resume-stable; the
        // resumed count deliberately stays out (see `BatchReport`).
        agg.batch_supervision(0, retried, timed_out);
        agg
    });
    Ok(BatchReport {
        seeds: sup.seeds.to_vec(),
        outcomes,
        telemetry,
        supervisor: SupervisorStats { resumed, retried, timed_out },
    })
}

/// The typed outcome of a [`replay`] divergence: the re-run did not
/// reproduce the recorded failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplayMismatch {
    /// The cause recorded in the postmortem dump.
    pub expected: String,
    /// What the re-run produced instead (`None`: it completed cleanly).
    pub got: Option<String>,
}

impl std::fmt::Display for ReplayMismatch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.got {
            Some(got) => {
                write!(f, "replay diverged: expected failure `{}`, got `{got}`", self.expected)
            }
            None => write!(
                f,
                "replay diverged: expected failure `{}`, but the run completed cleanly",
                self.expected
            ),
        }
    }
}

impl std::error::Error for ReplayMismatch {}

/// Re-runs a quarantined seed from its postmortem [`ReplaySpec`] and
/// checks that the failure reproduces verbatim. Returns the reproduced
/// cause on success.
///
/// The re-run uses the exact seeded configuration and supervision
/// triggers from the dump, with a full flight recorder, through the
/// same supervised step loop as a batch; determinism makes the
/// comparison exact, so any divergence is a real behavioural difference
/// (version skew, tampered dump, or a heisenbug worth escalating).
///
/// # Errors
///
/// [`ReplayMismatch`] when the re-run completes or fails differently.
pub fn replay(spec: &ReplaySpec) -> Result<String, ReplayMismatch> {
    let mismatch = |got: Option<String>| ReplayMismatch { expected: spec.cause.clone(), got };
    if let Err(e) = spec.config.validate() {
        let got = sanitize_cause(&e.to_string());
        return if got == spec.cause { Ok(got) } else { Err(mismatch(Some(got))) };
    }
    let mut ws = SimWorkspace::new();
    let engine = DumbbellEngine::Packet(Simulation::new_in(spec.config.clone(), &mut ws));
    let sup = Supervision {
        t_end: spec.config.t_end.as_secs(),
        level: TelemetryLevel::Full,
        max_events_per_seed: spec.max_events,
        ..Supervision::default()
    };
    let got = match supervise(engine, spec.seed, sup.level, spec.panic_after, &sup, &mut ws) {
        SeedOutcome::Completed(_) => None,
        SeedOutcome::Failed { cause, .. } => Some(cause),
        SeedOutcome::TimedOut { events, .. } => Some(timeout_cause(events)),
    };
    match got {
        Some(g) if g == spec.cause => Ok(g),
        got => Err(mismatch(got)),
    }
}

/// Extracts the human-readable message from a caught panic payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic with non-string payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::qcn::{QcnCpConfig, QcnRpConfig};
    use crate::sim::Control;

    fn batch(n: u64) -> BatchConfig {
        let mut base = SimConfig::fluid_validation_default();
        base.t_end = Time::from_secs(0.02);
        BatchConfig { level: TelemetryLevel::Full, ..BatchConfig::quick(base, n) }
    }

    #[test]
    fn seeded_configs_are_deterministic_and_distinct() {
        let cfg = batch(2);
        let a = seeded_config(&cfg, 7);
        let b = seeded_config(&cfg, 7);
        assert_eq!(a, b, "same seed must reproduce the same scenario");
        let c = seeded_config(&cfg, 8);
        assert_ne!(a.flows, c.flows, "different seeds must differ");
        for (orig, jit) in cfg.base.flows.iter().zip(&a.flows) {
            assert!(jit.start >= orig.start);
            assert!(jit.start.as_secs() <= orig.start.as_secs() + cfg.start_jitter_secs);
            let ratio = jit.initial_rate / orig.initial_rate;
            assert!((ratio - 1.0).abs() <= cfg.rate_jitter_frac + 1e-12);
        }
    }

    #[test]
    fn zero_jitter_reproduces_the_base_scenario() {
        let mut cfg = batch(1);
        cfg.start_jitter_secs = 0.0;
        cfg.rate_jitter_frac = 0.0;
        assert_eq!(seeded_config(&cfg, 123), cfg.base);
    }

    #[test]
    fn an_invalid_start_jitter_quarantines_every_seed() {
        for jitter in [-1.0, f64::NAN, f64::INFINITY, 1e308] {
            let mut cfg = batch(2);
            cfg.start_jitter_secs = jitter;
            let report = run_batch(&cfg);
            assert_eq!(report.completed().count(), 0, "jitter {jitter}");
            assert_eq!(report.failures().count(), 2, "jitter {jitter}");
            for (_, cause) in report.failures() {
                assert!(cause.contains("batch.start_jitter"), "cause: {cause}");
            }
        }
    }

    #[test]
    fn batch_results_are_identical_at_any_thread_count() {
        let cfg = batch(4);
        parkit::set_threads(1);
        let serial = run_batch(&cfg);
        parkit::set_threads(4);
        let parallel = run_batch(&cfg);
        parkit::set_threads(0);
        assert_eq!(serial.completed().count(), 4);
        for ((_, s), (_, p)) in serial.completed().zip(parallel.completed()) {
            assert_eq!(s.metrics.delivered_frames, p.metrics.delivered_frames);
            assert_eq!(s.final_rates, p.final_rates);
            assert_eq!(s.metrics.queue.values(), p.metrics.queue.values());
        }
        let (st, pt) = (serial.telemetry.unwrap(), parallel.telemetry.unwrap());
        assert_eq!(st.metrics.counters().count(), pt.metrics.counters().count());
        for ((an, av), (bn, bv)) in st.metrics.counters().zip(pt.metrics.counters()) {
            assert_eq!((an, av), (bn, bv));
        }
        assert_eq!(st.trace.len(), pt.trace.len());
    }

    #[test]
    fn hybrid_batches_are_deterministic_and_carry_epoch_counters() {
        let params = crate::sim::fluid_validation_params();
        let base =
            SimConfig::from_fluid(&params, 8_000.0, crate::time::Duration::from_secs(2e-6), 0.3);
        let mut cfg = BatchConfig { level: TelemetryLevel::Summary, ..BatchConfig::quick(base, 3) };
        cfg.hybrid = Some(HybridSpec::new(params));
        parkit::set_threads(1);
        let serial = run_batch(&cfg);
        parkit::set_threads(4);
        let parallel = run_batch(&cfg);
        parkit::set_threads(0);
        assert_eq!(serial.completed().count(), 3);
        for ((_, s), (_, p)) in serial.completed().zip(parallel.completed()) {
            assert_eq!(s.metrics.queue.values(), p.metrics.queue.values());
            assert_eq!(s.final_rates, p.final_rates);
        }
        let (st, pt) = (serial.telemetry.unwrap(), parallel.telemetry.unwrap());
        let epochs = st.metrics.counter_by_name("hybrid.epochs");
        assert!(epochs.is_some_and(|v| v > 0), "quiescent tails should fast-forward: {epochs:?}");
        assert_eq!(epochs, pt.metrics.counter_by_name("hybrid.epochs"));
        assert_eq!(
            st.metrics.counter_by_name("hybrid.ff_ns"),
            pt.metrics.counter_by_name("hybrid.ff_ns")
        );
    }

    #[test]
    fn merged_trace_is_ordered_by_sim_time() {
        let report = run_batch(&batch(3));
        let tel = report.telemetry.expect("telemetry requested");
        let times: Vec<f64> = tel.trace.iter().map(telemetry::Event::time).collect();
        assert!(!times.is_empty(), "batch runs should emit events");
        assert!(times.windows(2).all(|w| w[0] <= w[1]), "trace not time-sorted");
    }

    #[test]
    fn telemetry_off_skips_the_aggregate() {
        let mut cfg = batch(2);
        cfg.level = TelemetryLevel::Off;
        let report = run_batch(&cfg);
        assert!(report.telemetry.is_none());
        assert!(report.completed().all(|(_, r)| r.telemetry.is_none()));
    }

    #[test]
    fn a_panicking_seed_is_quarantined() {
        let mut cfg = batch(8);
        cfg.panic_seeds = vec![3];
        let report = run_batch(&cfg);
        assert_eq!(report.completed().count(), 7, "the other seeds must finish");
        let failures: Vec<_> = report.failures().collect();
        assert_eq!(failures.len(), 1);
        assert_eq!(failures[0].0, 3);
        assert!(failures[0].1.contains("intentional panic"), "cause: {}", failures[0].1);
        // Merged telemetry covers exactly the completed seeds.
        let tel = report.telemetry.as_ref().expect("telemetry requested");
        let fb: u64 = report.completed().map(|(_, r)| r.metrics.feedback_messages).sum();
        assert_eq!(tel.metrics.counter_by_name("sim.bcn_messages"), Some(fb));
    }

    #[test]
    fn a_panicking_seed_leaves_the_merged_shard_untouched() {
        // Quarantine must be surgical: the merged telemetry with seed 3
        // panicking is byte-identical to a batch that never had seed 3.
        let mut with_panic = batch(8);
        with_panic.panic_seeds = vec![3];
        let mut without = batch(8);
        without.seeds.retain(|&s| s != 3);
        let a = run_batch(&with_panic).telemetry.expect("telemetry requested");
        let b = run_batch(&without).telemetry.expect("telemetry requested");
        assert_eq!(a.trace_to_jsonl(), b.trace_to_jsonl(), "merged traces differ");
        let ca: Vec<_> = a.metrics.counters().collect();
        let cb: Vec<_> = b.metrics.counters().collect();
        assert_eq!(ca, cb, "merged counters differ");
    }

    #[test]
    fn a_panicking_seed_surrenders_its_flight_recorder() {
        // Even with batch telemetry off, a known-hazardous seed records a
        // full flight recorder and hands it over on failure.
        let mut cfg = batch(4);
        cfg.level = TelemetryLevel::Off;
        cfg.panic_seeds = vec![2];
        let report = run_batch(&cfg);
        let (seed, cause, tel) = report.postmortems().next().expect("one failure");
        assert_eq!(seed, 2);
        assert!(cause.contains("intentional panic"), "cause: {cause}");
        let tel = tel.expect("flight recorder captured");
        assert!(!tel.trace.is_empty(), "flight recorder trace is empty");
        let spans = tel.open_spans();
        assert!(!spans.is_empty(), "open-span stack is empty");
        assert_eq!(spans[0].kind, SpanKind::BatchSeed, "seed span must anchor the stack");
        assert_eq!(spans[0].entity, 2);
        assert_eq!(spans[0].id, (3 << 32) + 1, "span ids must use the per-seed base");
        // Completed seeds are unaffected by the neighbour's upgrade.
        assert_eq!(report.completed().count(), 3);
        assert!(report.completed().all(|(_, r)| r.telemetry.is_none()));
    }

    #[test]
    fn merged_batch_telemetry_carries_scheduler_stats() {
        let report = run_batch(&batch(3));
        let tel = report.telemetry.expect("telemetry requested");
        let scheduled = tel.metrics.counter_by_name("scheduler.events_scheduled");
        let executed = tel.metrics.counter_by_name("scheduler.events_popped");
        assert!(scheduled.is_some_and(|v| v > 0), "scheduler.events_scheduled missing from merge");
        assert!(executed.is_some_and(|v| v > 0), "scheduler.events_popped missing from merge");
        // Summed across shards: each of the three seeds contributes.
        assert!(scheduled.unwrap() >= 3, "expected per-seed flushes to accumulate");
    }

    #[test]
    fn batch_seed_spans_bracket_each_completed_run() {
        let report = run_batch(&batch(2));
        let tel = report.telemetry.expect("telemetry requested");
        let begins: Vec<_> = tel
            .trace
            .iter()
            .filter_map(|e| match e {
                telemetry::Event::SpanBegin { id, kind: SpanKind::BatchSeed, entity, .. } => {
                    Some((*id, *entity))
                }
                _ => None,
            })
            .collect();
        assert_eq!(begins, vec![((1 << 32) + 1, 0), ((2 << 32) + 1, 1)]);
        for (id, _) in begins {
            let ended = tel
                .trace
                .iter()
                .any(|e| matches!(e, telemetry::Event::SpanEnd { id: eid, .. } if *eid == id));
            assert!(ended, "seed span {id:#x} never closed");
        }
        assert!(tel.open_spans().is_empty(), "merged shard must not report open spans");
    }

    #[test]
    fn an_invalid_seeded_config_fails_without_panicking() {
        let mut cfg = batch(3);
        cfg.base.capacity = 0.0;
        let mut qcn_cp = batch(3);
        qcn_cp.base.control = Control::Qcn {
            cp: QcnCpConfig { q_eq_bits: 1.0e6, w: 2.0, sample_every: 0 },
            rp: QcnRpConfig::standard(qcn_cp.base.capacity),
        };
        let mut qcn_rp = batch(3);
        qcn_rp.base.control = Control::Qcn {
            cp: QcnCpConfig { q_eq_bits: 1.0e6, w: 2.0, sample_every: 20 },
            rp: QcnRpConfig { gd: 0.0, ..QcnRpConfig::standard(qcn_rp.base.capacity) },
        };
        for (cfg, field) in
            [(cfg, "capacity"), (qcn_cp, "qcn.cp.sample_every"), (qcn_rp, "qcn.rp.gd")]
        {
            let report = run_batch(&cfg);
            assert_eq!(report.completed().count(), 0);
            assert_eq!(report.failures().count(), 3);
            for (_, cause) in report.failures() {
                assert!(cause.contains(field), "cause: {cause}");
            }
        }
    }

    #[test]
    fn fault_plans_replay_identically_at_any_thread_count() {
        let mut cfg = batch(4);
        cfg.base.faults.seed = 99;
        cfg.base.faults.feedback_loss = 0.25;
        cfg.base.faults.data_loss = 0.02;
        parkit::set_threads(1);
        let serial = run_batch(&cfg);
        parkit::set_threads(4);
        let parallel = run_batch(&cfg);
        parkit::set_threads(0);
        let a: Vec<_> = serial.completed().map(|(s, r)| (s, r.metrics.faults.clone())).collect();
        let b: Vec<_> = parallel.completed().map(|(s, r)| (s, r.metrics.faults.clone())).collect();
        assert_eq!(a, b, "fault decisions must not depend on the thread count");
        assert!(a.iter().any(|(_, f)| f.total() > 0), "faults were actually injected");
        // Distinct seeds draw distinct fault streams.
        assert!(a.windows(2).any(|w| w[0].1 != w[1].1), "per-seed fault streams identical");
    }

    #[test]
    fn fault_free_base_keeps_seeded_configs_untouched_by_the_fault_layer() {
        let cfg = batch(1);
        assert!(!cfg.base.faults.enabled());
        let seeded = seeded_config(&cfg, 42);
        assert_eq!(seeded.faults, cfg.base.faults, "fault seed must not be mixed when disabled");
    }

    /// Byte-level fingerprint of a whole batch report of kind `C`: every
    /// outcome through the checkpoint codec plus the merged aggregate
    /// through the snapshot codec. Equal fingerprints mean equal
    /// artifacts.
    fn fingerprint<C: SeedBatch>(report: &BatchReport<C::Report>) -> String {
        let mut s = String::new();
        for (&seed, out) in report.seeds.iter().zip(&report.outcomes) {
            crate::checkpoint::encode_outcome::<C>(seed, out, &mut s);
        }
        if let Some(tel) = &report.telemetry {
            s.push_str(&telemetry::snapshot_to_jsonl(tel));
        }
        s
    }

    fn scratch(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("dcesim-batch-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create scratch dir");
        dir
    }

    #[test]
    fn watchdog_demotes_runaway_seeds_deterministically() {
        let mut cfg = batch(3);
        cfg.max_events_per_seed = Some(150);
        let report = run_batch(&cfg);
        assert_eq!(report.completed().count(), 0, "the budget is far below a full run");
        let demoted: Vec<_> = report.timed_out().collect();
        assert_eq!(demoted.len(), 3);
        assert!(demoted.iter().all(|&(_, events)| events == 150), "demoted: {demoted:?}");
        assert_eq!(report.supervisor.timed_out, 3);
        let tel = report.telemetry.as_ref().expect("telemetry requested");
        assert_eq!(tel.metrics.counter_by_name("batch.timed_out"), Some(3));
        // The flight recorder is attached, seed span still open.
        let (_, _, flight) = report.postmortems().next().expect("postmortems cover timeouts");
        let flight = flight.expect("flight recorder captured");
        assert!(!flight.open_spans().is_empty(), "seed span should still be open");
        // Demotion is an event-count verdict: identical at any width.
        parkit::set_threads(1);
        let serial = run_batch(&cfg);
        parkit::set_threads(4);
        let parallel = run_batch(&cfg);
        parkit::set_threads(0);
        assert_eq!(fingerprint::<BatchConfig>(&serial), fingerprint::<BatchConfig>(&parallel));
    }

    #[test]
    fn failing_seeds_are_retried_up_to_the_budget() {
        let mut cfg = batch(4);
        cfg.panic_seeds = vec![2];
        cfg.max_seed_retries = 2;
        let report = run_batch(&cfg);
        assert_eq!(report.completed().count(), 3);
        let retries: Vec<_> = report
            .outcomes
            .iter()
            .filter_map(|o| match o {
                SeedOutcome::Failed { retries, .. } => Some(*retries),
                _ => None,
            })
            .collect();
        assert_eq!(retries, vec![2], "a deterministic panic burns the whole retry budget");
        assert_eq!(report.supervisor.retried, 2);
        let tel = report.telemetry.as_ref().expect("telemetry requested");
        assert_eq!(tel.metrics.counter_by_name("batch.retried"), Some(2));
    }

    /// Kills a checkpointed 6-seed batch of kind `C` after 0, 2, 5 and 6
    /// recorded seeds and resumes it at widths 1 and 4: every resumed
    /// report must equal an uninterrupted run byte for byte. `with_seeds`
    /// narrows `cfg` to a seed prefix.
    fn resumes_are_bit_identical_at_any_kill_point_and_width<C: SeedBatch>(
        cfg: &C,
        with_seeds: impl Fn(&[u64]) -> C,
        tag: &str,
    ) {
        let want = fingerprint::<C>(&run_batch(cfg));
        let seeds = cfg.supervision().seeds;
        for (kill_after, width) in [(0usize, 1usize), (2, 4), (5, 1), (6, 4)] {
            let dir = scratch(&format!("{tag}-kill{kill_after}w{width}"));
            // First run: "crashes" after recording `kill_after` seeds.
            let ck = BatchCheckpoint::create(&dir, cfg).expect("create");
            run_batch_checkpointed(&with_seeds(&seeds[..kill_after]), &ck).expect("partial run");
            drop(ck);
            // Resume with the full seed list at the requested width.
            parkit::set_threads(width);
            let ck = BatchCheckpoint::resume(&dir, cfg).expect("resume");
            assert_eq!(ck.restored_seeds().len(), kill_after);
            let resumed = run_batch_checkpointed(cfg, &ck).expect("resumed run");
            parkit::set_threads(0);
            assert_eq!(resumed.supervisor.resumed, kill_after as u64);
            assert_eq!(
                fingerprint::<C>(&resumed),
                want,
                "{tag}: kill point {kill_after} width {width} diverged"
            );
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn resumed_batches_are_bit_identical_at_any_kill_point_and_width() {
        let mut cfg = batch(6);
        cfg.panic_seeds = vec![4];
        cfg.base.faults.seed = 11;
        cfg.base.faults.feedback_loss = 0.15;
        let with_seeds = |seeds: &[u64]| BatchConfig { seeds: seeds.to_vec(), ..cfg.clone() };
        resumes_are_bit_identical_at_any_kill_point_and_width(&cfg, with_seeds, "sim");
    }

    #[test]
    fn resumed_fabric_batches_are_bit_identical_at_any_kill_point_and_width() {
        let mut cfg = net_batch(6);
        cfg.panic_seeds = vec![4];
        cfg.base.faults.seed = 11;
        cfg.base.faults.feedback_loss = 0.15;
        let with_seeds = |seeds: &[u64]| NetBatchConfig { seeds: seeds.to_vec(), ..cfg.clone() };
        resumes_are_bit_identical_at_any_kill_point_and_width(&cfg, with_seeds, "net");
    }

    #[test]
    fn replay_reproduces_a_recorded_panic_and_flags_divergence() {
        let mut cfg = batch(4);
        cfg.panic_seeds = vec![1];
        let report = run_batch(&cfg);
        let (seed, cause, _) = report.postmortems().next().expect("one quarantined seed");
        let spec = crate::checkpoint::ReplaySpec {
            seed,
            cause: cause.clone(),
            config: seeded_config(&cfg, seed),
            panic_after: Some(256),
            max_events: None,
        };
        assert_eq!(replay(&spec).expect("panic must reproduce"), cause);
        // Drop the panic trigger: the run completes, which is a typed
        // divergence, not a success.
        let clean = crate::checkpoint::ReplaySpec { panic_after: None, ..spec.clone() };
        let err = replay(&clean).unwrap_err();
        assert_eq!(err.expected, cause);
        assert_eq!(err.got, None);
        // A wrong expected cause diverges with the reproduced one.
        let wrong = crate::checkpoint::ReplaySpec { cause: "other".into(), ..spec };
        let err = replay(&wrong).unwrap_err();
        assert_eq!(err.got.as_deref(), Some(cause.as_str()));
    }

    #[test]
    fn replay_reproduces_watchdog_timeouts() {
        let mut cfg = batch(2);
        cfg.max_events_per_seed = Some(120);
        let report = run_batch(&cfg);
        let (seed, cause, _) = report.postmortems().next().expect("a demoted seed");
        assert!(cause.contains("watchdog"), "cause: {cause}");
        let spec = crate::checkpoint::ReplaySpec {
            seed,
            cause: cause.clone(),
            config: seeded_config(&cfg, seed),
            panic_after: None,
            max_events: Some(120),
        };
        assert_eq!(replay(&spec).expect("timeout must reproduce"), cause);
    }

    /// A small generator-built incast fabric for the net-batch tests.
    fn net_batch(n: u64) -> NetBatchConfig {
        let spec = crate::topo::TopoSpec::leaf_spine(2, 2, 4);
        let traffic = crate::topo::Traffic::Incast { senders: 4, dst: usize::MAX, load: 2.0 };
        let base = crate::topo::compile(&spec, &traffic, 0.005).expect("compile");
        NetBatchConfig { level: TelemetryLevel::Summary, ..NetBatchConfig::quick(base, n) }
    }

    #[test]
    fn seeded_net_configs_are_deterministic_and_jitter_only_rates() {
        let cfg = net_batch(2);
        let a = seeded_net_config(&cfg, 7);
        assert_eq!(a, seeded_net_config(&cfg, 7), "same seed must reproduce");
        assert_ne!(a.flows, seeded_net_config(&cfg, 8).flows, "different seeds must differ");
        for (orig, jit) in cfg.base.flows.iter().zip(&a.flows) {
            let ratio = jit.initial_rate / orig.initial_rate;
            assert!((ratio - 1.0).abs() <= cfg.rate_jitter_frac + 1e-12);
            assert_eq!((orig.src_host, orig.dst_host), (jit.src_host, jit.dst_host));
        }
        let mut zero = cfg.clone();
        zero.rate_jitter_frac = 0.0;
        assert_eq!(seeded_net_config(&zero, 123), zero.base);
    }

    #[test]
    fn net_batch_results_are_identical_at_any_thread_count_and_scheduler() {
        let cfg = net_batch(3);
        let mut heap_cfg = cfg.clone();
        heap_cfg.base.scheduler = crate::sched::Scheduler::Heap;
        parkit::set_threads(1);
        let serial = run_net_batch(&cfg);
        parkit::set_threads(4);
        let parallel = run_net_batch(&cfg);
        let heap = run_net_batch(&heap_cfg);
        parkit::set_threads(0);
        assert_eq!(serial.completed().count(), 3);
        for ((_, s), (_, p)) in serial.completed().zip(parallel.completed()) {
            assert_eq!(s.flows, p.flows);
            assert_eq!(s.pause_counts, p.pause_counts);
        }
        // Scheduler bit-identity extends from single runs to batches.
        for ((_, s), (_, h)) in serial.completed().zip(heap.completed()) {
            assert_eq!(s.flows, h.flows);
            for (a, b) in s.switch_queues.iter().zip(&h.switch_queues) {
                assert_eq!(a.values(), b.values());
            }
        }
        let (st, pt) = (serial.telemetry.unwrap(), parallel.telemetry.unwrap());
        for ((an, av), (bn, bv)) in st.metrics.counters().zip(pt.metrics.counters()) {
            assert_eq!((an, av), (bn, bv));
        }
    }

    #[test]
    fn net_batch_quarantines_panics_and_demotes_runaways() {
        let mut cfg = net_batch(4);
        cfg.panic_seeds = vec![1];
        cfg.max_events_per_seed = Some(2_000);
        let report = run_net_batch(&cfg);
        let failures: Vec<_> = report.failures().collect();
        assert_eq!(failures.len(), 1);
        assert_eq!(failures[0].0, 1);
        assert!(failures[0].1.contains("intentional panic"), "cause: {}", failures[0].1);
        // The hazardous-seed flight-recorder upgrade applies here too.
        let salvaged = report
            .outcomes
            .iter()
            .any(|o| matches!(o, NetSeedOutcome::Failed { telemetry: Some(_), .. }));
        assert!(salvaged, "panicking seed must surrender its flight recorder");
        assert_eq!(report.timed_out().count(), 3, "remaining seeds hit the event budget");
        assert_eq!(report.supervisor.timed_out, 3);
    }

    #[test]
    fn net_batch_quarantines_seeds_with_an_invalid_congestion_point() {
        let (cp, rp) = (
            crate::cp::CpConfig {
                cpid: crate::frame::CpId(2),
                q0_bits: 0.0,
                qsc_bits: 4.0e5,
                w: 2.0,
                sample_every: 5,
                fb_quant: None,
                gate_positive: false,
            },
            crate::rp::RpConfig {
                gi: 0.5,
                gd: 1.0 / 512.0,
                ru: 1.0e4,
                gain_scale: 1.6e-4,
                r_min: 1e3,
                r_max: 1e9,
            },
        );
        let pause = crate::net::PauseConfig {
            enabled: true,
            hold: crate::time::Duration::from_secs(3.2e-4),
            per_priority: false,
        };
        let prop = crate::time::Duration::from_secs(1e-6);
        let (base, _) =
            crate::net::victim_topology(4, 1e9, 8_000.0, prop, 0.002, pause, Some((cp, rp)));
        let report = run_net_batch(&NetBatchConfig::quick(base, 2));
        assert_eq!(report.completed().count(), 0);
        assert_eq!(report.failures().count(), 2);
        for (_, cause) in report.failures() {
            assert!(cause.contains("cp.q0_bits"), "cause: {cause}");
        }
    }

    #[test]
    fn net_batch_quarantines_seeds_jittered_to_negative_rates() {
        let mut cfg = net_batch(4);
        cfg.rate_jitter_frac = 3.0;
        let report = run_net_batch(&cfg);
        // A seed fails exactly when it jitters some flow below zero,
        // and at least one does.
        let failed: Vec<u64> = report.failures().map(|(seed, _)| seed).collect();
        let negative: Vec<u64> = cfg
            .seeds
            .iter()
            .copied()
            .filter(|&s| seeded_net_config(&cfg, s).flows.iter().any(|f| f.initial_rate < 0.0))
            .collect();
        assert!(!failed.is_empty());
        assert_eq!(failed, negative);
        for (_, cause) in report.failures() {
            assert!(cause.contains("rate must be finite and non-negative"), "cause: {cause}");
        }
    }

    #[test]
    fn net_batch_rejects_invalid_seeded_configs_as_failures() {
        let mut cfg = net_batch(2);
        cfg.base.switches[0].routes.clear();
        let report = run_net_batch(&cfg);
        assert_eq!(report.completed().count(), 0);
        assert_eq!(report.failures().count(), 2);
        for (_, cause) in report.failures() {
            assert!(cause.contains("unroutable"), "cause: {cause}");
        }
    }
}
