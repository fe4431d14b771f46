//! Damage tests for the line decoders that face user files: the
//! stability-query JSONL codec (`bcn::query`) and the trace reader behind
//! `dcebcn report --from` (`telemetry::event_from_jsonl`).
//!
//! Every intact stream is damaged a fixed set of ways drawn from
//! splitmix64: kept line prefixes, byte truncations, single-byte bit
//! flips and line swaps. Each damaged input must decode to a value or a
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

/// Decodes every line of every damaged variant of `text` (after its
/// schema header) with `decode`, and checks that the damage both broke
/// some variants and left some decodable.
fn decode_damaged<T, E>(text: &str, salt: u64, decode: impl Fn(&str) -> Result<T, E>) {
    let variants = damages(text, salt);
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
