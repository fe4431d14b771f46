//! Damage tests for the decoders that face user input: the
//! stability-query JSONL codec (`bcn::query`), the trace reader behind
//! `dcebcn report --from` (`telemetry::event_from_jsonl`), and the spec
//! grammars of `--topo`, `--traffic`, `--faults` and `--hybrid-guard`,
//! and the whole `dcebcn` command line (a seeded argv sweep).
//!
//! Every intact input is damaged a fixed set of ways drawn from
//! splitmix64: kept line prefixes, byte truncations, single-byte bit
//! flips and line swaps, and for the query streams multi-byte UTF-8
//! inserted at delimiters. Each damaged input must decode to a value or a
//! typed error; a panic fails the test.

use bcn::params::BcnParams;
use bcn::query::{
    answer_from_jsonl, answer_to_jsonl, evaluate_batch, query_from_jsonl, query_to_jsonl,
    StabilityQuery,
};
use dcesim::faults::splitmix64;
use std::path::PathBuf;

/// The damaged variants of `text`: every prefix of whole lines, 64
/// truncations, 64 bit flips and 32 line swaps.
fn damages(text: &str, salt: u64) -> Vec<Vec<u8>> {
    let draw = |k: u64| splitmix64(salt ^ splitmix64(k));
    let bytes = text.as_bytes();
    let lines: Vec<&str> = text.split_inclusive('\n').collect();
    let mut out: Vec<Vec<u8>> =
        (0..=lines.len()).map(|n| lines[..n].concat().into_bytes()).collect();
    out.extend((0..64).map(|k| bytes[..(draw(k) % bytes.len() as u64) as usize].to_vec()));
    out.extend((64..128).map(|k| {
        let h = draw(k);
        let mut flipped = bytes.to_vec();
        flipped[(h % bytes.len() as u64) as usize] ^= (h >> 56) as u8 | 1;
        flipped
    }));
    out.extend((128..160).map(|k| {
        let h = draw(k);
        let n = lines.len();
        let (i, j) = ((h % n as u64) as usize, ((h >> 32) % n as u64) as usize);
        let mut swapped = lines.clone();
        swapped.swap(i, if i == j { (i + 1) % n } else { j });
        swapped.concat().into_bytes()
    }));
    out
}

/// 64 variants of `text` with a multi-byte UTF-8 character (Unicode
/// whitespace or not, two to four bytes) inserted just before or after
/// a delimiter byte, so the decoders' byte scanners meet non-ASCII
/// bytes wherever they cut a slice.
fn utf8_insertions(text: &str, salt: u64) -> Vec<Vec<u8>> {
    const INSERTS: [&str; 6] =
        ["\u{A0}", "\u{E9}", "\u{2003}", "\u{3000}", "\u{20AC}", "\u{1F600}"];
    let draw = |k: u64| splitmix64(salt ^ splitmix64(k));
    let at: Vec<usize> = (0..text.len())
        .filter(|&i| b"{}\":,".contains(&text.as_bytes()[i]))
        .flat_map(|i| [i, i + 1])
        .collect();
    (160..224)
        .map(|k| {
            let h = draw(k);
            let mut damaged = text.to_string();
            damaged.insert_str(
                at[(h % at.len() as u64) as usize],
                INSERTS[((h >> 32) % INSERTS.len() as u64) as usize],
            );
            damaged.into_bytes()
        })
        .collect()
}

/// Decodes every line of every damaged variant of `text` (after its
/// schema header) with `decode`, and checks that the damage both broke
/// some variants and left some decodable.
fn decode_damaged<T, E>(text: &str, salt: u64, decode: impl Fn(&str) -> Result<T, E>) {
    let mut variants = damages(text, salt);
    variants.extend(utf8_insertions(text, salt));
    let clean = variants
        .iter()
        .filter(|bytes| {
            let text = String::from_utf8_lossy(bytes);
            text.lines().skip(1).all(|line| decode(line).is_ok())
        })
        .count();
    assert!(clean >= 1 && clean < variants.len(), "{clean} of {} variants decoded", variants.len());
}

#[test]
fn query_decoders_never_panic_on_damaged_streams() {
    let base = BcnParams::paper_defaults();
    let queries = [
        StabilityQuery::new(base.clone()),
        StabilityQuery::new(base.clone().with_gi(2.0)),
        StabilityQuery::new(base.with_gd(0.05)),
    ];
    let mut questions = telemetry::schema_header();
    questions.push('\n');
    for q in &queries {
        questions.push_str(&query_to_jsonl(q));
        questions.push('\n');
    }
    // A sparse line inherits the paper defaults.
    questions.push_str("{\"type\":\"query\",\"gi\":3.0}\n");
    decode_damaged(&questions, 1, query_from_jsonl);

    let mut answers = telemetry::schema_header();
    answers.push('\n');
    for a in &evaluate_batch(&queries) {
        answers.push_str(&answer_to_jsonl(a));
        answers.push('\n');
    }
    decode_damaged(&answers, 2, answer_from_jsonl);
}

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dce_bcn_{name}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

fn dcebcn(args: &[&str]) -> Result<String, cli::CliError> {
    cli::run(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
}

#[test]
fn trace_reader_never_panics_on_damaged_traces() {
    let dir = scratch("trace_damage");
    let path = |name: &str| dir.join(name).to_string_lossy().into_owned();
    // A faulted packet trace (spans, feedback, fault events) followed by
    // a solver trace (steps, region switches, extrema) under one header.
    dcebcn(&[
        "trace",
        "packet",
        "--t-end",
        "0.002",
        "--faults",
        "feedback-loss=0.2,data-loss=0.01,seed=3",
        "--out",
        &path("packet.jsonl"),
    ])
    .expect("packet trace");
    dcebcn(&["trace", "limit-cycle", "--t-end", "0.0002", "--out", &path("fluid.jsonl")])
        .expect("fluid trace");
    let packet = std::fs::read_to_string(path("packet.jsonl")).expect("read packet trace");
    let fluid = std::fs::read_to_string(path("fluid.jsonl")).expect("read fluid trace");
    let trace = format!("{packet}{}", fluid.split_once('\n').expect("header").1);

    let report = |file: &str| {
        dcebcn(&["report", "--from", &path(file), "--out-dir", &path("report")])
            .map_err(|e| e.to_string())
    };
    std::fs::write(path("intact.jsonl"), &trace).expect("write trace");
    report("intact.jsonl").expect("the intact trace renders");

    let variants = damages(&trace, 3);
    let mut rendered = 0;
    for bytes in &variants {
        std::fs::write(path("damaged.jsonl"), bytes).expect("write damaged trace");
        rendered += usize::from(report("damaged.jsonl").is_ok());
    }
    assert!(
        rendered >= 1 && rendered < variants.len(),
        "{rendered} of {} damaged traces rendered",
        variants.len()
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// The command-line spec grammars — `TopoSpec::parse`, `Traffic::parse`,
/// the `--faults` spec and the `--hybrid-guard` spec — damaged from the
/// CI smoke specs: each damaged spec either runs or is rejected with a
/// typed error. Damaged fabrics stay near the 32-host leaf-spine, and
/// every run stops at 1e-5 s.
#[test]
fn spec_grammars_never_panic_on_damaged_specs() {
    let topo = "leaf-spine:leaves=4,spines=2,hosts-per-leaf=8";
    let grammars: [(&str, &str, &[&str]); 4] = [
        ("--topo", topo, &["packet", "--traffic", "incast:senders=16"]),
        ("--traffic", "incast:senders=16", &["packet", "--topo", topo]),
        ("--faults", "feedback-loss=0.05,seed=7", &["packet"]),
        ("--hybrid-guard", "always-packet", &["packet", "--engine", "hybrid"]),
    ];
    for (salt, (flag, spec, command)) in (4..).zip(grammars) {
        let variants = damages(spec, salt);
        let mut accepted = 0;
        for bytes in &variants {
            let damaged = String::from_utf8_lossy(bytes);
            let mut args = command.to_vec();
            args.extend([flag, &damaged, "--t-end", "1e-5"]);
            accepted += usize::from(dcebcn(&args).is_ok());
        }
        assert!(
            accepted >= 1 && accepted < variants.len(),
            "{flag} {spec}: {accepted} of {} damaged specs accepted",
            variants.len()
        );
    }
}

/// The value a flag takes when the sweep does not damage it: the
/// paper's worked example for the parameters, and small sizes and short
/// horizons for the rest, so every undamaged run stays cheap.
fn sound_value(flag: &str) -> &'static str {
    match flag {
        "--n" => "2",
        "--capacity" => "1e10",
        "--q0" => "2.5e6",
        "--buffer" => "5e6",
        "--gi" => "4",
        "--gd" => "0.0078125",
        "--ru" => "8e6",
        "--w" => "2",
        "--pm" => "0.01",
        "--qsc" => "4.5e6",
        "--t-end" => "1e-5",
        "--seeds" | "--threads" | "--grid" | "--chunk" => "2",
        "--retry-backoff-ms" | "--seed-retries" => "1",
        "--max-seed-events" => "300",
        "--seed-deadline-ms" => "60000",
        "--start-jitter" => "1e-5",
        "--rate-jitter" => "0.1",
        "--frame-bits" => "8000",
        "--faults" => "data-loss=0.01,seed=3",
        "--topo" => "leaf-spine:leaves=2,spines=2,hosts-per-leaf=4",
        "--traffic" => "incast:senders=4",
        "--engine" => "hybrid",
        "--hybrid-guard" => "always-packet",
        "--scheduler" => "heap",
        "--telemetry" => "summary",
        _ => "true",
    }
}

/// The damaged values every flag is tried with.
const DAMAGED_VALUES: [&str; 11] = [
    "nan",
    "inf",
    "-inf",
    "-1",
    "0",
    "1e-300",
    "1e308",
    "18446744073709551616",
    "",
    "garbage",
    "\u{E9}\u{1F600}",
];

/// The flags that name a file or directory: whatever the draw, their
/// value stays under the sweep's scratch directory.
const PATH_FLAGS: [&str; 6] =
    ["--out", "--out-dir", "--postmortem-dir", "--checkpoint-dir", "--in", "--from"];

/// `base` with `flag` set to `value` (replaced in place when `base`
/// already holds the flag, appended otherwise). Path flags keep their
/// value under `dir`.
fn with_flag(base: &[String], flag: &str, value: &str, dir: &std::path::Path) -> Vec<String> {
    let value = if PATH_FLAGS.contains(&flag) {
        dir.join(format!("drawn-{value}")).to_string_lossy().into_owned()
    } else {
        value.to_string()
    };
    let mut args = base.to_vec();
    match args.iter().position(|a| a == flag) {
        Some(i) => args[i + 1] = value,
        None => args.extend([flag.to_string(), value]),
    }
    args
}

/// Runs `dcebcn <args>` in-process; a panic is reported as its argv.
fn run_caught(args: &[String]) -> Result<bool, String> {
    std::panic::catch_unwind(|| cli::run(args).is_ok()).map_err(|_| format!("{args:?}"))
}

/// Every subcommand and scenario, each from a cheap base argv, under
/// one-flag mutations (every flag the usage text lists, with its sound
/// value and each damaged value) and seeded multi-flag draws. Every run
/// must end `Ok` or with a typed `CliError`; a panic fails the test.
///
/// Horizons stay at or below 1 ms, and `--seeds`, `--grid`, `--chunk`,
/// `--threads` and `--n` at 2: every damaged value of those flags is one
/// the command rejects (`--retry-backoff-ms` also takes 0, and damaged
/// horizons are rejected or shorter). Every path points under a scratch
/// directory, so no draw writes `results/` or reads stdin.
#[test]
fn every_command_survives_damaged_argvs() {
    let dir = scratch("argv_sweep");
    let path = |name: &str| dir.join(name).to_string_lossy().into_owned();
    let topo = "--topo leaf-spine:leaves=2,spines=2,hosts-per-leaf=4 --traffic incast:senders=4";
    // A trace for `report --from`, a one-query stream for `query`, and a
    // watchdog postmortem for `replay`.
    dcebcn(&["trace", "thm1", "--t-end", "0.0002", "--out", &path("trace.jsonl")])
        .expect("trace for report --from");
    std::fs::write(
        path("queries.jsonl"),
        format!("{}\n{{\"type\":\"query\",\"gi\":2.5}}\n", telemetry::schema_header()),
    )
    .expect("write query stream");
    let pm = path("pm");
    dcebcn(&[
        "batch",
        "--seeds",
        "1",
        "--t-end",
        "0.001",
        "--max-seed-events",
        "100",
        "--telemetry",
        "summary",
        "--postmortem-dir",
        &pm,
    ])
    .expect("watchdog batch");
    let fluid = "--t-end 1e-3";
    let packet = "--n 2 --t-end 5e-5";
    let bases: Vec<String> = vec![
        "analyze".into(),
        "buffer".into(),
        format!("simulate {fluid}"),
        "atlas --grid 2".into(),
        format!("packet {packet}"),
        format!("batch --seeds 2 {packet} --postmortem-dir {}", path("batch-pm")),
        format!("trace thm1 {fluid}"),
        format!("trace limit-cycle {fluid}"),
        format!("trace packet {packet}"),
        format!("report thm1 {fluid} --out-dir {}", path("report")),
        format!("report limit-cycle {fluid} --out-dir {}", path("report")),
        format!("report packet {packet} --out-dir {}", path("report")),
        format!("report victim --t-end 1e-5 --out-dir {}", path("report")),
        format!("report --from {} --out-dir {}", path("trace.jsonl"), path("report")),
        format!("packet {topo} --t-end 1e-5"),
        format!("batch {topo} --seeds 2 --t-end 1e-5"),
        format!("trace {topo} --t-end 1e-5"),
        format!("query --in {} --out {}", path("queries.jsonl"), path("answers.jsonl")),
        format!("replay {pm}/postmortem-0.jsonl"),
    ];
    let bases: Vec<Vec<String>> =
        bases.iter().map(|b| b.split_whitespace().map(str::to_string).collect()).collect();
    let usage = cli::usage();
    let mut flags: Vec<&str> = usage
        .split(|c: char| !(c.is_ascii_alphanumeric() || c == '-'))
        .filter(|w| w.len() > 2 && w.starts_with("--"))
        .collect();
    flags.sort_unstable();
    flags.dedup();
    assert!(flags.len() > 30 && flags.contains(&"--qsc"), "{flags:?}");

    let mut outcomes = Vec::new();
    // Per base, the flags it runs with at their sound value: the flags
    // that command reads, which the multi-flag draws favour.
    let mut reads: Vec<Vec<&str>> = Vec::new();
    for base in &bases {
        assert_eq!(run_caught(base), Ok(true), "base argv {base:?} must run");
        let mut read = Vec::new();
        for flag in &flags {
            for (i, value) in std::iter::once(sound_value(flag)).chain(DAMAGED_VALUES).enumerate() {
                let outcome = run_caught(&with_flag(base, flag, value, &dir));
                if i == 0 && outcome == Ok(true) {
                    read.push(*flag);
                }
                outcomes.push(outcome);
            }
        }
        reads.push(read);
    }
    // Multi-flag draws: two to four flags, each sound or damaged, three
    // in four from the flags the base reads.
    for k in 0..MULTI_FLAG_DRAWS {
        let mut h = splitmix64(0xA26 ^ k);
        let mut draw = |n: usize| {
            h = splitmix64(h);
            (h % n as u64) as usize
        };
        let b = draw(bases.len());
        let mut args = bases[b].clone();
        for _ in 0..2 + draw(3) {
            let flag = match (draw(4), reads[b].len()) {
                (0, _) | (_, 0) => flags[draw(flags.len())],
                (_, n) => reads[b][draw(n)],
            };
            let value = match draw(DAMAGED_VALUES.len() + 2) {
                i if i < DAMAGED_VALUES.len() => DAMAGED_VALUES[i],
                _ => sound_value(flag),
            };
            args = with_flag(&args, flag, value, &dir);
        }
        outcomes.push(run_caught(&args));
    }
    let panicked: Vec<&str> =
        outcomes.iter().filter_map(|o| o.as_ref().err()).map(String::as_str).collect();
    assert!(
        panicked.is_empty(),
        "{} of {} argvs panicked:\n{}",
        panicked.len(),
        outcomes.len(),
        panicked.join("\n")
    );
    let accepted = outcomes.iter().filter(|o| **o == Ok(true)).count();
    assert!(
        accepted > bases.len() && accepted < outcomes.len(),
        "{accepted} of {} argvs ran",
        outcomes.len()
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Seeded multi-flag draws the sweep makes after its one-flag mutations.
const MULTI_FLAG_DRAWS: u64 = 12_000;
