//! Pins the checkpoint journal format with two committed journals.
//!
//! `tests/fixtures/journal-dumbbell` holds a 3-seed faulted dumbbell
//! batch at `Summary` telemetry whose seed 1 panics (its shard carries
//! the flight recorder); `tests/fixtures/journal-fabric` holds a 3-seed
//! incast on `leaf-spine:leaves=4,spines=2,hosts-per-leaf=8`. Both were
//! written by the checkpoint code before the batch layer became generic
//! over the engine, so they prove that the generic codec reads the same
//! bytes and, once its run fields are expanded, writes them. Each test
//! resumes a scratch copy with the configuration that wrote it, restores
//! every seed without running one, and checks the config digest against
//! its committed value.
//!
//! The committed shards predate run fields: every `series_bits` value is
//! written out in full. Today's encoder writes each run of three or more
//! equal values once plus a run field, so each restored outcome is
//! re-encoded, its run fields expanded back into values, and the result
//! compared with the committed bytes; that pins every committed value
//! bit and record. An FNV-1a hash of the re-encoded shards pins the run
//! fields themselves.

use std::fs;
use std::path::{Path, PathBuf};

use dcesim::batch::{run_batch_checkpointed, BatchConfig, BatchReport, NetBatchConfig, SeedBatch};
use dcesim::checkpoint::{encode_outcome, BatchCheckpoint, MANIFEST_FILE};
use dcesim::sim::SimConfig;
use dcesim::time::{Duration, Time};
use dcesim::topo::{compile, TopoSpec, Traffic};
use telemetry::{schema_header, TelemetryLevel};

/// The dumbbell batch of `journal-dumbbell`.
fn dumbbell() -> BatchConfig {
    let mut base = SimConfig::fluid_validation_default();
    base.t_end = Time::from_secs(0.002);
    base.faults.seed = 7;
    base.faults.feedback_loss = 0.2;
    base.faults.data_loss = 0.01;
    let mut cfg = BatchConfig::quick(base, 3);
    cfg.level = TelemetryLevel::Summary;
    cfg.panic_seeds = vec![1];
    cfg
}

/// The fabric batch of `journal-fabric`.
fn fabric() -> NetBatchConfig {
    let spec = TopoSpec::parse("leaf-spine:leaves=4,spines=2,hosts-per-leaf=8").expect("spec");
    let traffic = Traffic::parse("incast:senders=16").expect("traffic");
    let mut base = compile(&spec, &traffic, 0.002).expect("compile");
    base.record_interval = Duration::from_secs(1e-4);
    let mut cfg = NetBatchConfig::quick(base, 3);
    cfg.level = TelemetryLevel::Summary;
    cfg
}

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures").join(name)
}

/// A scratch copy of a fixture journal: resuming opens the manifest for
/// appending, so the committed files are never handed out directly.
fn scratch_copy(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dcesim-fixture-{}-{name}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("create scratch dir");
    for entry in fs::read_dir(fixture(name)).expect("fixture dir") {
        let path = entry.expect("fixture entry").path();
        fs::copy(&path, dir.join(path.file_name().expect("file name"))).expect("copy fixture");
    }
    dir
}

/// The committed bytes of one shard of journal `name`.
fn shard(name: &str, seed: u64) -> String {
    fs::read_to_string(fixture(name).join(format!("seed-{seed}.jsonl"))).expect("read shard")
}

/// A shard file's text: the schema header, then `encode`'s block.
fn shard_text(encode: impl FnOnce(&mut String)) -> String {
    let mut text = schema_header();
    text.push('\n');
    encode(&mut text);
    text
}

/// `text` with every run field of its `series_bits` values written out:
/// `,*` and 15 hex digits of `n` become `n` copies of `,` and the value
/// field before it.
fn expand_runs(text: &str) -> String {
    const VALUES: &str = r#""values":""#;
    let mut out = String::with_capacity(text.len());
    for line in text.split_inclusive('\n') {
        let at = match line.find(VALUES) {
            Some(at) if line.starts_with(r#"{"type":"series_bits""#) => at + VALUES.len(),
            _ => {
                out.push_str(line);
                continue;
            }
        };
        let end = at + line[at..].find('"').expect("closing quote");
        let mut fields: Vec<&str> = Vec::new();
        for field in line[at..end].split(',') {
            match field.strip_prefix('*') {
                Some(n) => {
                    let value = *fields.last().expect("a value before a run field");
                    let repeats = usize::from_str_radix(n, 16).expect("hex count");
                    fields.extend(std::iter::repeat_n(value, repeats));
                }
                None => fields.push(field),
            }
        }
        out.push_str(&line[..at]);
        out.push_str(&fields.join(","));
        out.push_str(&line[end..]);
    }
    out
}

/// FNV-1a over `bytes`.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
}

/// Resumes a scratch copy of journal `name` with `cfg`, checks that
/// every seed restores without running, that each re-encoded shard with
/// its runs expanded is exactly the committed shard, and that the
/// manifest is left untouched, and returns the restored report and the
/// FNV-1a hash of the re-encoded shards in seed order.
fn restore<C: SeedBatch>(name: &str, cfg: &C) -> (BatchReport<C::Report>, u64) {
    let dir = scratch_copy(name);
    let ck = BatchCheckpoint::resume(&dir, cfg).expect("resume");
    assert_eq!(ck.restored_seeds(), cfg.supervision().seeds);
    let report = run_batch_checkpointed(cfg, &ck).expect("restore");
    assert_eq!(report.supervisor.resumed, 3, "every seed restores, none re-runs");
    let mut encoded = String::new();
    for (&seed, outcome) in report.seeds.iter().zip(&report.outcomes) {
        let text = shard_text(|t| encode_outcome::<C>(seed, outcome, t));
        assert!(
            expand_runs(&text) == shard(name, seed),
            "{name}: seed {seed} re-encodes differently"
        );
        encoded.push_str(&text);
    }
    assert!(encoded.contains(",*"), "{name}: no run field to expand");
    let manifest = |dir: &Path| fs::read_to_string(dir.join(MANIFEST_FILE)).expect("manifest");
    assert_eq!(manifest(&dir), manifest(&fixture(name)));
    let _ = fs::remove_dir_all(&dir);
    (report, fnv1a(encoded.as_bytes()))
}

#[test]
fn dumbbell_journal_restores_and_re_encodes_byte_exactly() {
    let cfg = dumbbell();
    assert_eq!(cfg.digest(), 0x0009_7a9e_a56f_82de);
    let (report, hash) = restore("journal-dumbbell", &cfg);
    assert_eq!(hash, 0x112a_825e_bf4c_5194, "{hash:#018x}");
    assert_eq!(report.completed().map(|(s, _)| s).collect::<Vec<_>>(), [0, 2]);
    assert_eq!(report.failures().map(|(s, _)| s).collect::<Vec<_>>(), [1]);
}

#[test]
fn fabric_journal_restores_and_re_encodes_byte_exactly() {
    let cfg = fabric();
    assert_eq!(cfg.digest(), 0x001a_5185_1966_98d9);
    let (report, hash) = restore("journal-fabric", &cfg);
    assert_eq!(hash, 0xc9c7_eecf_735c_61cd, "{hash:#018x}");
    assert_eq!(report.completed().count(), 3);
}
