//! Pins the checkpoint journal format with two committed journals.
//!
//! `tests/fixtures/journal-dumbbell` holds a 3-seed faulted dumbbell
//! batch at `Summary` telemetry whose seed 1 panics (its shard carries
//! the flight recorder); `tests/fixtures/journal-fabric` holds a 3-seed
//! incast on `leaf-spine:leaves=4,spines=2,hosts-per-leaf=8`. Both were
//! written by the checkpoint code before the batch layer became generic
//! over the engine, so they prove that the generic codec reads and
//! writes the same bytes. Each test resumes a scratch copy with the
//! configuration that wrote it, restores every seed without running one,
//! re-encodes every restored outcome to exactly the committed shard
//! bytes, and checks the config digest against its committed value.

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

/// Resumes a scratch copy of journal `name` with `cfg`, checks that
/// every seed restores without running and re-encodes to exactly its
/// committed shard and that the manifest is left untouched, and returns
/// the restored report.
fn restore<C: SeedBatch>(name: &str, cfg: &C) -> BatchReport<C::Report> {
    let dir = scratch_copy(name);
    let ck = BatchCheckpoint::resume(&dir, cfg).expect("resume");
    assert_eq!(ck.restored_seeds(), cfg.supervision().seeds);
    let report = run_batch_checkpointed(cfg, &ck).expect("restore");
    assert_eq!(report.supervisor.resumed, 3, "every seed restores, none re-runs");
    for (&seed, outcome) in report.seeds.iter().zip(&report.outcomes) {
        let text = shard_text(|t| encode_outcome::<C>(seed, outcome, t));
        assert!(text == shard(name, seed), "{name}: seed {seed} re-encodes differently");
    }
    let manifest = |dir: &Path| fs::read_to_string(dir.join(MANIFEST_FILE)).expect("manifest");
    assert_eq!(manifest(&dir), manifest(&fixture(name)));
    let _ = fs::remove_dir_all(&dir);
    report
}

#[test]
fn dumbbell_journal_restores_and_re_encodes_byte_exactly() {
    let cfg = dumbbell();
    assert_eq!(cfg.digest(), 0x0009_7a9e_a56f_82de);
    let report = restore("journal-dumbbell", &cfg);
    assert_eq!(report.completed().map(|(s, _)| s).collect::<Vec<_>>(), [0, 2]);
    assert_eq!(report.failures().map(|(s, _)| s).collect::<Vec<_>>(), [1]);
}

#[test]
fn fabric_journal_restores_and_re_encodes_byte_exactly() {
    let cfg = fabric();
    assert_eq!(cfg.digest(), 0x001a_5185_1966_98d9);
    let report = restore("journal-fabric", &cfg);
    assert_eq!(report.completed().count(), 3);
}
