//! The `dcebcn` command-line tool: the DCE-BCN analysis library from the
//! shell.
//!
//! ```console
//! $ dcebcn analyze --n 50 --capacity 10e9 --q0 2.5e6 --buffer 5e6
//! $ dcebcn buffer  --n 100 --capacity 10e9
//! $ dcebcn simulate --t-end 0.1 --out trace.csv
//! $ dcebcn atlas --grid 9 --out atlas.csv
//! $ dcebcn packet --t-end 0.5
//! $ dcebcn trace thm1 --out trace.jsonl
//! ```
//!
//! Every subcommand starts from the paper's default parameterisation and
//! overrides fields from flags (listed in [`usage`]). The library half
//! of the crate carries all logic behind [`run`], so it is testable
//! without spawning processes; the `dcebcn` binary is a thin wrapper.

#![forbid(unsafe_code)]
#![warn(unreachable_pub)]
#![warn(missing_docs)]

mod commands;
mod flags;
mod report;

use std::fmt;

/// CLI-level errors (bad flags, unknown commands, invalid
/// configurations, failed runs, I/O).
#[derive(Debug)]
#[non_exhaustive]
pub enum CliError {
    /// The user asked for something the tool does not understand.
    Usage(String),
    /// Parameter validation or analysis failure.
    Analysis(String),
    /// The ODE integrator failed.
    Solver(odesolve::SolveError),
    /// A simulator configuration was rejected.
    Sim(dcesim::error::ConfigError),
    /// A batch run failed under `--fail-fast`.
    Batch(String),
    /// The watchdog demoted seeds and `--fail-fast` was given.
    Timeout(String),
    /// A postmortem replay did not reproduce the recorded failure.
    Replay(String),
    /// Filesystem output failure.
    Io(std::io::Error),
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::Usage(msg) => write!(f, "usage error: {msg}"),
            CliError::Analysis(msg) => write!(f, "analysis error: {msg}"),
            CliError::Solver(e) => write!(f, "solver error: {e}"),
            CliError::Sim(e) => write!(f, "simulation config error: {e}"),
            CliError::Batch(msg) => write!(f, "batch error: {msg}"),
            CliError::Timeout(msg) => write!(f, "watchdog timeout: {msg}"),
            CliError::Replay(msg) => write!(f, "replay mismatch: {msg}"),
            CliError::Io(e) => write!(f, "i/o error: {e}"),
        }
    }
}

impl std::error::Error for CliError {}

impl From<std::io::Error> for CliError {
    fn from(e: std::io::Error) -> Self {
        CliError::Io(e)
    }
}

impl From<odesolve::SolveError> for CliError {
    fn from(e: odesolve::SolveError) -> Self {
        CliError::Solver(e)
    }
}

impl From<dcesim::error::ConfigError> for CliError {
    fn from(e: dcesim::error::ConfigError) -> Self {
        CliError::Sim(e)
    }
}

/// Entry point shared by the binary and the tests: runs the tool on
/// `args` (without the program name) and returns the rendered output.
///
/// # Errors
///
/// Returns [`CliError`] for unknown commands, malformed flags, invalid
/// parameters, or output failures.
pub fn run(args: &[String]) -> Result<String, CliError> {
    // The global `--telemetry` flag also gates `log_line!` diagnostics,
    // so it is validated here for every command, including those that
    // record no telemetry.
    if let Some(i) = args.iter().position(|a| a == "--telemetry") {
        let value = args.get(i + 1).map_or("", String::as_str);
        let level: telemetry::TelemetryLevel = value.parse().map_err(CliError::Usage)?;
        telemetry::set_quiet(!level.enabled());
    }
    // The global `--threads` flag sets the parallel worker count for
    // every sweep the command runs (atlas cells, batch seeds, frontier
    // scans). Applied process-wide up front, mirroring `--telemetry`,
    // and validated here so a bad value fails before any work starts.
    if let Some(i) = args.iter().position(|a| a == "--threads") {
        match args.get(i + 1).and_then(|v| parkit::parse_threads(v)) {
            Some(n) => parkit::set_threads(n),
            None => {
                return Err(CliError::Usage(format!(
                    "--threads expects an integer in 1..={}, got `{}`",
                    parkit::MAX_THREADS,
                    args.get(i + 1).map_or("", |v| v.as_str())
                )));
            }
        }
    }
    let Some((command, rest)) = args.split_first() else {
        return Ok(usage());
    };
    match command.as_str() {
        "analyze" => commands::analyze(rest),
        "buffer" => commands::buffer(rest),
        "simulate" => commands::simulate(rest),
        "atlas" => commands::atlas(rest),
        "packet" => commands::packet(rest),
        "batch" => commands::batch(rest),
        "trace" => commands::trace(rest),
        "report" => commands::report(rest),
        "query" => commands::query(rest),
        "replay" => commands::replay(rest),
        "help" | "--help" | "-h" => Ok(usage()),
        other => Err(CliError::Usage(format!("unknown command `{other}`; run `dcebcn help`"))),
    }
}

/// The top-level usage text.
#[must_use]
pub fn usage() -> String {
    "dcebcn — BCN congestion-control analysis (Ren & Jiang, ICDCS 2010)\n\
     \n\
     commands:\n\
     \x20 analyze   classify the system and apply the strong-stability criteria\n\
     \x20 buffer    buffer sizing: Theorem 1 vs the exact trajectory need\n\
     \x20 simulate  integrate the switched fluid model, write a CSV trace\n\
     \x20 atlas     criterion atlas over the (Gi, Gd) gain plane, as CSV\n\
     \x20 packet    run the packet-level simulator and summarise\n\
     \x20 batch     multi-seed packet-level batch with jittered workloads\n\
     \x20 trace     instrumented run: telemetry summary + JSONL event trace\n\
     \x20 report    render telemetry (live run or JSONL trace) as JSON + SVG + prom\n\
     \x20 query     batched stability queries: JSONL questions in, JSONL answers out\n\
     \x20 replay    re-run the seed recorded in a postmortem dump deterministically\n\
     \n\
     common flags (defaults = the paper's worked example):\n\
     \x20 --n <flows> --capacity <bit/s> --q0 <bits> --buffer <bits>\n\
     \x20 --gi <gain> --gd <gain> --ru <bit/s> --w <weight> --pm <prob> --qsc <bits>\n\
     \x20 --telemetry <off|summary|full>   (accepted by every command)\n\
     \x20 --threads <1..256>               (accepted by every command: sweep\n\
     \x20                                   workers; default DCE_BCN_THREADS or all cores)\n\
     \x20 any other flag the command does not read for the given scenario or\n\
     \x20 engine is a usage error (exit 2), never silently ignored\n\
     \n\
     command flags:\n\
     \x20 simulate: --t-end <s> --out <path.csv> [--nonlinear]\n\
     \x20           --engine <analytic|dopri5|hybrid>  (default analytic: closed-form\n\
     \x20                                        leg propagation; nonlinear or\n\
     \x20                                        instrumented runs use dopri5;\n\
     \x20                                        hybrid co-simulates packets with\n\
     \x20                                        analytic fast-forward)\n\
     \x20 atlas:    --grid <n> --out <path.csv>\n\
     \x20 packet:   --t-end <s> --frame-bits <bits> --faults <spec>\n\
     \x20           --scheduler <wheel|heap>  (default wheel: hierarchical timing\n\
     \x20                                      wheel; heap is the reference engine,\n\
     \x20                                      bit-identical results)\n\
     \x20           --engine <packet|hybrid>  (default packet; hybrid fast-forwards\n\
     \x20                                      quiescent stretches analytically)\n\
     \x20           --hybrid-guard always-packet  (see below)\n\
     \x20           --topo <spec> --traffic <spec>  (multi-hop fabric run, see\n\
     \x20                                      below; dumbbell-only flags rejected)\n\
     \x20 batch:    --seeds <n> --t-end <s> --start-jitter <s> --rate-jitter <frac>\n\
     \x20           --frame-bits <bits> --out <path.csv> --faults <spec> [--fail-fast]\n\
     \x20           --scheduler <wheel|heap> --postmortem-dir <dir>  (default results;\n\
     \x20                                      quarantined seeds dump their flight\n\
     \x20                                      recorder as postmortem-<seed>.jsonl)\n\
     \x20           --checkpoint-dir <dir> [--resume]  (persist per-seed outcomes;\n\
     \x20                                      --resume skips seeds already done and\n\
     \x20                                      merges a bit-identical final report)\n\
     \x20           --max-seed-events <n>   (watchdog: demote a seed to timed-out\n\
     \x20                                    after n simulator events; deterministic)\n\
     \x20           --seed-deadline-ms <ms> (watchdog: wall-clock deadline per seed;\n\
     \x20                                    non-deterministic, off by default)\n\
     \x20           --seed-retries <n> --retry-backoff-ms <ms>  (re-run failed seeds\n\
     \x20                                    up to n times with exponential backoff)\n\
     \x20           --engine <packet|hybrid> --hybrid-guard <spec>  (as in packet)\n\
     \x20           --topo <spec> --traffic <spec>  (fabric batch; multi-hop engine,\n\
     \x20                                      rate jitter / checkpoint / watchdog /\n\
     \x20                                      faults as above; sim-only flags such\n\
     \x20                                      as --engine or --seed-retries are\n\
     \x20                                      rejected)\n\
     \x20 trace:    <thm1|limit-cycle|packet> --t-end <s> --out <path.jsonl>\n\
     \x20           --engine <analytic|dopri5>  (fluid scenarios)\n\
     \x20           --engine <packet|hybrid>    (packet scenario; other engines are\n\
     \x20                                        rejected with the valid list)\n\
     \x20           --scheduler <wheel|heap> --hybrid-guard <spec>  (packet scenario\n\
     \x20                                        only)\n\
     \x20           --topo <spec> --traffic <spec>  (instrumented fabric run)\n\
     \x20 report:   <thm1|limit-cycle|packet|victim> --t-end <s>\n\
     \x20           --out-dir <dir>   (default results/report: report.json,\n\
     \x20                              timeline_queue.svg, timeline_rate.svg,\n\
     \x20                              metrics.prom)\n\
     \x20           --from <path.jsonl>  (render a saved trace instead of running;\n\
     \x20                                 stale schema versions are rejected)\n\
     \x20 query:    --in <path.jsonl> --out <path.jsonl>  (default stdin/stdout)\n\
     \x20           --chunk <n>  (queries evaluated per batch; default 4096,\n\
     \x20                         bounds memory on unbounded streams)\n\
     \x20           each input line: {\"type\":\"query\",\"gi\":2.0,...} — any of the\n\
     \x20           common parameter flags as fields (missing fields = paper\n\
     \x20           defaults) plus optional max_legs (default 64, at most\n\
     \x20           1048576 = 2^20); answers stream out in input order as\n\
     \x20           {\"type\":\"answer\",...} lines\n\
     \x20           [--strict]  (fail fast on the first malformed line; the\n\
     \x20                        default skips it, emits an {\"type\":\"error\",...}\n\
     \x20                        record in place of the answer, and continues)\n\
     \x20 replay:   <postmortem-<seed>.jsonl>  (reconstruct the seeded config and\n\
     \x20           fault plan from the dump, re-run the seed, and verify the\n\
     \x20           recorded failure reproduces; divergence exits with code 11)\n\
     \n\
     hybrid epoch controller (--hybrid-guard; the guard envelope is fixed):\n\
     \x20 always-packet       (bare key = true: drive the run through the hybrid\n\
     \x20                      wrapper but never fast-forward — bit-identical to\n\
     \x20                      the pure packet engine)\n\
     \x20 e.g. dcebcn packet --engine hybrid --hybrid-guard always-packet\n\
     \n\
     scale-out fabrics (--topo / --traffic on packet, batch, and trace):\n\
     \x20 --topo fat-tree:k=8[,link=1e9][,delay=1e-6][,frame=8000]\n\
     \x20 --topo leaf-spine:leaves=16,spines=4,hosts-per-leaf=32[,oversub=2]\n\
     \x20        [,link=...][,delay=...][,frame=...]\n\
     \x20 --traffic incast[:senders=512][,dst=0][,load=2]  (default: every host\n\
     \x20                      fans into the last one at 2x its access capacity)\n\
     \x20 --traffic permutation[:load=0.9]\n\
     \x20 --traffic all-to-all[:hosts=16][,load=2]\n\
     \x20 e.g. dcebcn packet --topo fat-tree:k=8 --traffic incast:senders=128\n\
     \x20      dcebcn batch --topo leaf-spine:leaves=8,spines=2,hosts-per-leaf=16 \\\n\
     \x20                   --seeds 8 --checkpoint-dir results/ck --faults seed=3\n\
     \n\
     fault injection (--faults, comma-separated key=value items):\n\
     \x20 seed=<u64> feedback-loss=<p> feedback-corrupt=<p> feedback-delay=<s>\n\
     \x20 feedback-reorder=<p> reorder-window=<s> data-loss=<p> data-burst=<n>\n\
     \x20 flap-period=<s> flap-down=<s> pause-storm=<p> pause-factor=<x>\n\
     \x20 panic-seed=<seed>   (batch only: that seed panics; it is\n\
     \x20                      quarantined unless --fail-fast is given)\n\
     \x20 e.g. dcebcn batch --seeds 8 --faults feedback-loss=0.05,seed=7\n"
        .to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(ToString::to_string).collect()
    }

    #[test]
    fn no_args_prints_usage() {
        let out = run(&[]).unwrap();
        assert!(out.contains("commands:"));
    }

    #[test]
    fn unknown_command_is_a_usage_error() {
        let err = run(&argv("frobnicate")).unwrap_err();
        assert!(matches!(err, CliError::Usage(_)));
        assert!(err.to_string().contains("frobnicate"));
    }

    #[test]
    fn bad_threads_value_is_a_usage_error() {
        for bad in [
            "analyze --threads 0",
            "analyze --threads many",
            "analyze --threads",
            "analyze --threads 257",
            // Rejected before dispatch, so no sweep starts a thread.
            "atlas --grid 64 --threads 100000",
        ] {
            let err = run(&argv(bad)).unwrap_err();
            assert!(matches!(err, CliError::Usage(_)), "{bad}");
            assert!(err.to_string().contains("--threads"), "{bad}: {err}");
        }
    }

    #[test]
    fn bad_telemetry_level_is_a_usage_error_for_every_command() {
        for command in ["analyze", "buffer", "atlas --grid 2", "report victim"] {
            let err = run(&argv(&format!("{command} --telemetry verbose"))).unwrap_err();
            assert!(matches!(err, CliError::Usage(_)), "{command}: {err}");
        }
    }

    #[test]
    fn help_variants() {
        for h in ["help", "--help", "-h"] {
            assert!(run(&argv(h)).unwrap().contains("dcebcn"));
        }
    }
}
