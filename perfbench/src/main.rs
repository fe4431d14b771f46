//! End-to-end and per-layer benchmark of the DCE-BCN workspace.
//!
//! ```console
//! $ cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!       [--workload NAME]... [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! One workload runs in this process: an untimed warm-up unit, timed
//! units until the budget is spent (each followed by a run of the
//! reference kernel, whose time scales the end-to-end times to a quiet
//! host), then (with `--trace 1`, or without
//! `--trace`) traced units for the per-layer metrics, then the
//! workload's correctness checks. Several workloads (or none named, for
//! all six) run one child process each, so every workload starts with
//! cold caches and has its own peak RSS. Every metric is printed as
//! `workload metric value unit`; the last line is a JSON summary. The
//! exit code is 0 only when every check passed. See README.md.

mod machine;
mod metrics;
mod reference;
mod runner;
mod stats;
mod trace;
mod workloads;

use std::fmt::Write as _;
use std::process::Command;

use metrics::{unit_of, PER_LAYER};
use runner::Budget;
use workloads::WORKLOADS;

const USAGE: &str = "usage: perfbench [--workload NAME]... [--seed N] [--seconds S] [--trace 0|1]";

/// Default measurement budget per run; `BENCHMARK.json`'s `run_seconds`.
const DEFAULT_SECONDS: f64 = 15.0;

/// Which phases run.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Mode {
    /// Untraced phase only: end-to-end metrics.
    EndToEnd,
    /// Untraced then traced phase, half the budget each: per-layer
    /// metrics.
    PerLayer,
    /// Both metric sets: the full budget untraced, then half traced.
    Both,
}

#[derive(Debug)]
struct Args {
    workloads: Vec<String>,
    seed: u64,
    seconds: f64,
    mode: Mode,
}

fn value<'a>(it: &mut impl Iterator<Item = &'a String>, flag: &str) -> Result<&'a str, String> {
    it.next().map(String::as_str).ok_or_else(|| format!("{flag} needs a value"))
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut out =
        Args { workloads: Vec::new(), seed: 1, seconds: DEFAULT_SECONDS, mode: Mode::Both };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--workload" => {
                let name = value(&mut it, flag)?;
                if !WORKLOADS.contains(&name) {
                    return Err(format!(
                        "unknown workload `{name}` (one of {})",
                        WORKLOADS.join(", ")
                    ));
                }
                out.workloads.push(name.to_string());
            }
            "--seed" => {
                let v = value(&mut it, flag)?;
                out.seed =
                    v.parse().map_err(|_| format!("--seed expects an integer, got `{v}`"))?;
            }
            "--seconds" => {
                let v = value(&mut it, flag)?;
                out.seconds = v
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("--seconds expects a positive number, got `{v}`"))?;
            }
            "--trace" => {
                out.mode = match value(&mut it, flag)? {
                    "0" => Mode::EndToEnd,
                    "1" => Mode::PerLayer,
                    v => return Err(format!("--trace expects 0 or 1, got `{v}`")),
                };
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(out)
}

/// Everything one workload run produced.
struct Outcome {
    metrics: Vec<(&'static str, f64)>,
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
    /// Timed untraced units, the nearest-rank p90 of their quiet-host
    /// times, and the medians of their wall times and of the reference
    /// kernel's.
    units: usize,
    p90: f64,
    wall_p50: f64,
    reference_p50: f64,
    width: usize,
    spans: Option<String>,
    #[cfg(test)]
    layer_names: Vec<&'static str>,
}

fn measure(name: &str, seed: u64, untraced: Budget, traced: Budget, mode: Mode) -> Outcome {
    let mut w = workloads::build(name, seed).expect("workload names are validated");
    let u = runner::untraced(&mut *w, untraced);
    let mut metrics = Vec::new();
    if mode != Mode::PerLayer {
        metrics.extend(runner::end_to_end(&*w, &u));
    }
    let mut spans = None;
    #[cfg(test)]
    let mut layer_names = Vec::new();
    let wall_p50 = stats::percentile(&u.run_s, 50.0).unwrap_or(0.0);
    if mode != Mode::EndToEnd {
        let (layers, tr) = runner::traced(&mut *w, traced, wall_p50);
        metrics.extend(PER_LAYER.iter().map(|&(n, _)| (n, layers.get(n))));
        spans = Some(tr.to_jsonl());
        #[cfg(test)]
        layer_names.extend(layers.names());
    }
    let mut failures = w.check();
    for (n, v) in &metrics {
        if !v.is_finite() {
            failures.push(format!("metric {n} is not finite ({v})"));
        }
    }
    Outcome {
        metrics,
        attempted: u.attempted,
        failed: u.failed + failures.len() as u64,
        failures,
        units: u.run_s.len(),
        p90: stats::percentile(&u.quiet_run_s(), 90.0).unwrap_or(0.0),
        wall_p50,
        reference_p50: stats::median(&u.reference_s).unwrap_or(0.0),
        width: w.width(),
        spans,
        #[cfg(test)]
        layer_names,
    }
}

/// The last output line: `correct`, `attempted`, `failed`, `metrics`.
fn summary_json(o: &Outcome) -> String {
    let mut metrics = String::new();
    for (i, (name, v)) in o.metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let v = if v.is_finite() { *v } else { 0.0 };
        let _ = write!(metrics, r#"{sep}"{name}": {{"value": {v}, "unit": "{}"}}"#, unit_of(name));
    }
    format!(
        r#"{{"correct": {}, "attempted": {}, "failed": {}, "metrics": {{{metrics}}}}}"#,
        o.failed == 0,
        o.attempted,
        o.failed
    )
}

fn run_one(name: &str, args: &Args) -> i32 {
    let (untraced, traced) = match args.mode {
        Mode::PerLayer => (args.seconds / 2.0, args.seconds / 2.0),
        Mode::EndToEnd | Mode::Both => (args.seconds, args.seconds / 2.0),
    };
    let o = measure(name, args.seed, Budget::Seconds(untraced), Budget::Seconds(traced), args.mode);
    for (metric, v) in &o.metrics {
        println!("{name} {metric} {v} {}", unit_of(metric));
    }
    let beyond = stats::samples_beyond(o.units, 90.0);
    println!("{name} run_s.p90 {} s", o.p90);
    println!("{name} run_wall_s.p50 {} s", o.wall_p50);
    println!("{name} reference_s.p50 {} s", o.reference_p50);
    println!("{name} units {} count", o.units);
    println!("{name} run_s.p90.beyond {beyond} count");
    if beyond < stats::MIN_BEYOND {
        eprintln!("perfbench: {name}: only {beyond} units beyond p90; lengthen --seconds");
    }
    for f in &o.failures {
        eprintln!("FAIL {name}: {f}");
    }
    let scratch = workloads::scratch_dir();
    if let (Some(spans), Some(dir)) = (&o.spans, scratch.parent()) {
        let path = dir.join(format!("spans-{name}-seed{}.jsonl", args.seed));
        if let Err(e) = std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, spans)) {
            eprintln!("perfbench: could not write {}: {e}", path.display());
        }
    }
    println!("{}", machine::record(o.width, &scratch));
    println!("{}", summary_json(&o));
    i32::from(o.failed > 0)
}

/// Runs each workload in a child process of its own.
fn run_children(names: &[&str], args: &Args) -> i32 {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("perfbench: cannot locate own executable: {e}");
            return 1;
        }
    };
    let mut code = 0;
    for name in names {
        let mut cmd = Command::new(&exe);
        cmd.args(["--workload", name, "--seed", &args.seed.to_string()]);
        cmd.args(["--seconds", &args.seconds.to_string()]);
        match args.mode {
            Mode::EndToEnd => cmd.args(["--trace", "0"]),
            Mode::PerLayer => cmd.args(["--trace", "1"]),
            Mode::Both => &mut cmd,
        };
        match cmd.status() {
            Ok(status) if status.success() => {}
            Ok(status) => {
                eprintln!("perfbench: {name} exited with {status}");
                code = 1;
            }
            Err(e) => {
                eprintln!("perfbench: could not run {name}: {e}");
                code = 1;
            }
        }
    }
    code
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let code = match parse(&argv) {
        Ok(args) if args.workloads.len() == 1 => run_one(&args.workloads[0], &args),
        Ok(args) => {
            let names: Vec<&str> = if args.workloads.is_empty() {
                WORKLOADS.to_vec()
            } else {
                args.workloads.iter().map(String::as_str).collect()
            };
            run_children(&names, &args)
        }
        Err(msg) => {
            eprintln!("perfbench: {msg}\n{USAGE}");
            2
        }
    };
    std::process::exit(code);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::END_TO_END;

    const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

    /// The `{...}` objects of the array under `key` in `BENCHMARK.json`.
    fn objects(key: &str) -> Vec<&'static str> {
        let start = BENCHMARK_JSON.find(&format!("\"{key}\"")).expect("key present");
        let body = &BENCHMARK_JSON[start..];
        let body = &body[body.find('[').expect("array")..body.find(']').expect("array end")];
        body.split('{').skip(1).map(|o| o.split('}').next().unwrap_or_default()).collect()
    }

    /// The string value of `field` in a flat JSON object.
    fn field<'a>(object: &'a str, field: &str) -> &'a str {
        let rest =
            &object[object.find(&format!("\"{field}\"")).expect("field") + field.len() + 2..];
        let rest = &rest[rest.find('"').expect("string value") + 1..];
        &rest[..rest.find('"').expect("closing quote")]
    }

    fn valid_name(name: &str) -> bool {
        !name.is_empty() && name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn benchmark_json_lists_exactly_the_catalogue() {
        let listed = |key| -> Vec<(&str, &str)> {
            objects(key).iter().map(|o| (field(o, "name"), field(o, "unit"))).collect()
        };
        assert_eq!(listed("end_to_end"), END_TO_END);
        assert_eq!(listed("per_layer"), PER_LAYER);
        let workloads: Vec<&str> = objects("workloads").iter().map(|o| field(o, "name")).collect();
        assert_eq!(workloads, WORKLOADS);
        for name in END_TO_END.iter().chain(PER_LAYER).map(|(n, _)| *n).chain(workloads) {
            assert!(valid_name(name), "`{name}` breaks the naming rule");
        }
        let run_seconds = BENCHMARK_JSON.split("\"run_seconds\":").nth(1).expect("run_seconds");
        let run_seconds: f64 = run_seconds
            .split([',', '\n'])
            .next()
            .unwrap_or_default()
            .trim()
            .parse()
            .expect("number");
        assert_eq!(run_seconds, DEFAULT_SECONDS);
    }

    #[test]
    fn arguments_are_validated() {
        let args = |s: &str| parse(&s.split_whitespace().map(String::from).collect::<Vec<_>>());
        let a = args("--workload zipf_query --seed 7 --seconds 2 --trace 1").expect("valid");
        assert_eq!(
            (a.workloads, a.seed, a.seconds, a.mode),
            (vec!["zipf_query".into()], 7, 2.0, Mode::PerLayer)
        );
        assert_eq!(args("").expect("defaults").mode, Mode::Both);
        for bad in ["--workload nope", "--seed x", "--seconds 0", "--trace 2", "--seed", "--extra"]
        {
            assert!(args(bad).is_err(), "{bad} accepted");
        }
    }

    #[test]
    fn every_driver_passes_its_checks_at_two_units() {
        let mut set_by_some_driver = std::collections::BTreeSet::new();
        for name in WORKLOADS {
            let o = measure(name, 1, Budget::Units(2), Budget::Units(2), Mode::Both);
            assert!(o.failures.is_empty(), "{name}: {:?}", o.failures);
            assert_eq!(o.failed, 0, "{name}");
            assert_eq!(o.metrics.len(), END_TO_END.len() + PER_LAYER.len(), "{name}");
            for (metric, v) in &o.metrics {
                let never_zero = END_TO_END.iter().any(|(n, _)| n == metric);
                assert!(!never_zero || *v > 0.0, "{name}: {metric} = {v}");
            }
            let json = summary_json(&o);
            assert!(json.starts_with(r#"{"correct": true, "attempted": "#), "{json}");
            set_by_some_driver.extend(o.layer_names);
        }
        let catalogue: std::collections::BTreeSet<&str> =
            PER_LAYER.iter().map(|(n, _)| *n).collect();
        assert_eq!(set_by_some_driver, catalogue, "a catalogued metric no driver reports");
    }
}
