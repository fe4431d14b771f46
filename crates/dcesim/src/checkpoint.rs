//! Crash-recoverable batch checkpoints and postmortem replay specs.
//!
//! A batch run can be pointed at a checkpoint directory
//! ([`BatchCheckpoint`]): every finished seed is persisted as a
//! self-contained JSONL *shard* (`seed-<seed>.jsonl`) holding the full
//! [`SeedOutcome`] — metrics, recorded series, fault tallies, and the
//! seed's telemetry shard via the bit-exact snapshot codec — and then
//! acknowledged in an append-only `manifest.jsonl`. Shards are written
//! atomically (tmp + fsync + rename + directory fsync) and the manifest
//! is fsynced after every acknowledgement, so a run killed at *any*
//! instant — `SIGKILL` mid-seed included — leaves the directory in a
//! state a `--resume` run can pick up: acknowledged seeds are restored
//! bit-exactly, everything else (including a torn trailing manifest
//! line or an orphaned `seed-N.tmp`) is simply re-run. Because the
//! simulator is deterministic, the merged report of a resumed batch is
//! byte-identical to an uninterrupted run.
//!
//! The same codec makes postmortem dumps self-describing: a quarantined
//! seed's dump embeds its fully seeded [`SimConfig`] (fault plan
//! included), its panic/watchdog triggers, and a config digest, so
//! `dcebcn replay <dump>` can reconstruct a [`ReplaySpec`] and re-run
//! the exact crashing scenario with no access to the original command
//! line.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use telemetry::{
    check_schema_header, fmt_num, parse_scalars, schema_header, snapshot_from_jsonl,
    snapshot_to_jsonl, JsonlError, Scalar, Telemetry,
};

use crate::batch::{BatchConfig, SeedBatch, SeedEngine, SeedOutcome};
use crate::cp::{CpConfig, FbQuant};
use crate::faults::{splitmix64, FaultConfig, FaultCounts};
use crate::frame::CpId;
use crate::metrics::TimeSeries;
use crate::net::{Endpoint, NetConfig};
use crate::qcn::{QcnCpConfig, QcnRpConfig};
use crate::rp::RpConfig;
use crate::sched::Scheduler;
use crate::sim::{Control, SimConfig};
use crate::time::{Duration, Time};
use crate::workload::FlowSpec;

/// The manifest file name inside a checkpoint directory.
pub const MANIFEST_FILE: &str = "manifest.jsonl";

/// Largest integer the flat JSONL codec round-trips exactly (2^53);
/// wider values are split into 32-bit halves.
pub(crate) const MASK_53: u64 = (1 << 53) - 1;

/// Errors from checkpoint persistence, decoding, or replay parsing.
#[derive(Debug)]
pub enum CheckpointError {
    /// The underlying filesystem operation failed.
    Io(std::io::Error),
    /// A checkpoint or postmortem file is malformed or truncated.
    Format(String),
    /// The checkpoint directory belongs to a different batch
    /// configuration; resuming would silently mix incompatible runs.
    ConfigMismatch {
        /// Digest of the configuration being resumed.
        expected: u64,
        /// Digest recorded in the on-disk manifest.
        found: u64,
    },
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "checkpoint I/O: {e}"),
            CheckpointError::Format(msg) => write!(f, "checkpoint format: {msg}"),
            CheckpointError::ConfigMismatch { expected, found } => write!(
                f,
                "checkpoint belongs to a different batch configuration \
                 (manifest digest {found:#x}, this run {expected:#x}); \
                 use a fresh --checkpoint-dir"
            ),
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<std::io::Error> for CheckpointError {
    fn from(e: std::io::Error) -> Self {
        CheckpointError::Io(e)
    }
}

impl From<JsonlError> for CheckpointError {
    fn from(e: JsonlError) -> Self {
        CheckpointError::Format(e.0)
    }
}

// ---------------------------------------------------------------------
// Config digests
// ---------------------------------------------------------------------

pub(crate) fn mix(h: u64, v: u64) -> u64 {
    splitmix64(h ^ v)
}

pub(crate) fn mix_f(h: u64, v: f64) -> u64 {
    mix(h, v.to_bits())
}

/// Mixes a length-prefixed list of `u64`s.
pub(crate) fn mix_u64s(h: u64, vals: &[u64]) -> u64 {
    vals.iter().fold(mix(h, vals.len() as u64), |h, &v| mix(h, v))
}

pub(crate) fn mix_opt(h: u64, v: Option<u64>) -> u64 {
    match v {
        Some(n) => mix(mix(h, 1), n),
        None => mix(h, 0),
    }
}

fn mix_opt_f(h: u64, v: Option<f64>) -> u64 {
    match v {
        Some(x) => mix_f(mix(h, 1), x),
        None => mix(h, 0),
    }
}

/// Order-sensitive digest of a fully seeded [`SimConfig`], folded with
/// splitmix64 over every field and masked below 2^53 so it survives the
/// JSONL number path. Postmortem dumps embed it so `replay` can detect
/// a truncated or hand-edited config block.
#[must_use]
pub fn sim_config_digest(cfg: &SimConfig) -> u64 {
    let mut h = 0x9e37_79b9_7f4a_7c15;
    h = mix_f(h, cfg.capacity);
    h = mix_f(h, cfg.buffer_bits);
    h = mix_f(h, cfg.frame_bits);
    h = mix(h, cfg.prop_delay.as_nanos());
    h = mix(h, cfg.t_end.as_nanos());
    h = mix(h, cfg.record_interval.as_nanos());
    h = mix(h, cfg.pause_hold.as_nanos());
    h = mix(h, cfg.flows.len() as u64);
    for flow in &cfg.flows {
        h = mix(h, flow.start.as_nanos());
        h = match flow.stop {
            Some(t) => mix(mix(h, 1), t.as_nanos()),
            None => mix(h, 0),
        };
        h = mix_f(h, flow.initial_rate);
        h = mix_opt_f(h, flow.volume_bits);
    }
    h = match &cfg.control {
        Control::Bcn { cp, rp } => {
            let mut h = mix(h, 1);
            h = mix(h, cp.cpid.0);
            h = mix_f(h, cp.q0_bits);
            h = mix_f(h, cp.qsc_bits);
            h = mix_f(h, cp.w);
            h = mix(h, cp.sample_every);
            h = match cp.fb_quant {
                Some(q) => mix_f(mix(mix(h, 1), u64::from(q.bits)), q.range_bits),
                None => mix(h, 0),
            };
            h = mix(h, u64::from(cp.gate_positive));
            h = mix_f(h, rp.gi);
            h = mix_f(h, rp.gd);
            h = mix_f(h, rp.ru);
            h = mix_f(h, rp.gain_scale);
            h = mix_f(h, rp.r_min);
            mix_f(h, rp.r_max)
        }
        Control::Qcn { cp, rp } => {
            let mut h = mix(h, 2);
            h = mix_f(h, cp.q_eq_bits);
            h = mix_f(h, cp.w);
            h = mix(h, cp.sample_every);
            h = mix_f(h, rp.gd);
            h = mix_f(h, rp.bc_limit_bits);
            h = mix(h, u64::from(rp.fr_cycles));
            h = mix_f(h, rp.r_ai);
            h = mix_f(h, rp.r_hai);
            h = mix_f(h, rp.r_min);
            mix_f(h, rp.r_max)
        }
        Control::None => mix(h, 3),
    };
    h = mix_fault_plan(h, &cfg.faults);
    h = mix(h, scheduler_tag(cfg.scheduler));
    h & MASK_53
}

fn mix_fault_plan(mut h: u64, fl: &FaultConfig) -> u64 {
    h = mix(h, fl.seed);
    h = mix_f(h, fl.feedback_loss);
    h = mix_f(h, fl.feedback_corrupt);
    h = mix(h, fl.feedback_extra_delay.as_nanos());
    h = mix_f(h, fl.feedback_reorder);
    h = mix(h, fl.reorder_window.as_nanos());
    h = mix_f(h, fl.data_loss);
    h = mix(h, fl.data_burst_len);
    h = mix(h, fl.link_flap_period.as_nanos());
    h = mix(h, fl.link_flap_down.as_nanos());
    h = mix_f(h, fl.pause_storm);
    mix_f(h, fl.pause_storm_factor)
}

fn mix_endpoint(h: u64, e: Endpoint) -> u64 {
    match e {
        Endpoint::Host(i) => mix(mix(h, 0), i as u64),
        Endpoint::Switch(i) => mix(mix(h, 1), i as u64),
    }
}

fn mix_cp_config(mut h: u64, cp: &CpConfig) -> u64 {
    h = mix(h, cp.cpid.0);
    h = mix_f(h, cp.q0_bits);
    h = mix_f(h, cp.qsc_bits);
    h = mix_f(h, cp.w);
    h = mix(h, cp.sample_every);
    h = match cp.fb_quant {
        Some(q) => mix_f(mix(mix(h, 1), u64::from(q.bits)), q.range_bits),
        None => mix(h, 0),
    };
    mix(h, u64::from(cp.gate_positive))
}

/// Order-sensitive digest of a fully seeded [`NetConfig`] — the
/// multi-hop counterpart of [`sim_config_digest`], folding topology
/// (switches, routes, congestion points, links), flows, PAUSE policy,
/// fault plan, and scheduler.
#[must_use]
pub fn net_config_digest(cfg: &NetConfig) -> u64 {
    let mut h = 0x85eb_ca6b_c2b2_ae35;
    h = mix(h, cfg.hosts as u64);
    h = mix(h, cfg.switches.len() as u64);
    for sw in &cfg.switches {
        h = mix_f(h, sw.buffer_bits);
        h = mix_f(h, sw.qsc_bits);
        h = mix(h, sw.routes.len() as u64);
        for &(dst, link) in &sw.routes {
            h = mix(mix(h, dst as u64), link as u64);
        }
        h = mix(h, sw.cps.len() as u64);
        for (link, cp) in &sw.cps {
            h = mix_cp_config(mix(h, *link as u64), cp);
        }
    }
    h = mix(h, cfg.links.len() as u64);
    for l in &cfg.links {
        h = mix_endpoint(h, l.from);
        h = mix_endpoint(h, l.to);
        h = mix_f(h, l.capacity);
        h = mix(h, l.delay.as_nanos());
    }
    h = mix(h, cfg.flows.len() as u64);
    for f in &cfg.flows {
        h = mix(h, f.src_host as u64);
        h = mix(h, f.dst_host as u64);
        h = mix_f(h, f.initial_rate);
        h = match &f.rp {
            Some(rp) => {
                let mut h = mix(h, 1);
                h = mix_f(h, rp.gi);
                h = mix_f(h, rp.gd);
                h = mix_f(h, rp.ru);
                h = mix_f(h, rp.gain_scale);
                h = mix_f(h, rp.r_min);
                mix_f(h, rp.r_max)
            }
            None => mix(h, 0),
        };
        h = mix(h, u64::from(f.priority));
    }
    h = mix_f(h, cfg.frame_bits);
    h = mix(h, cfg.t_end.as_nanos());
    h = mix(h, cfg.record_interval.as_nanos());
    h = mix(h, u64::from(cfg.pause.enabled));
    h = mix(h, cfg.pause.hold.as_nanos());
    h = mix(h, u64::from(cfg.pause.per_priority));
    h = mix_fault_plan(h, &cfg.faults);
    h = mix(h, scheduler_tag(cfg.scheduler));
    h & MASK_53
}

fn scheduler_tag(s: Scheduler) -> u64 {
    match s {
        Scheduler::Wheel => 0,
        Scheduler::Heap => 1,
    }
}

// ---------------------------------------------------------------------
// Record helpers
// ---------------------------------------------------------------------

type Fields = Vec<(String, Scalar)>;

fn field<'a>(fields: &'a Fields, key: &str) -> Result<&'a Scalar, CheckpointError> {
    fields
        .iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v)
        .ok_or_else(|| CheckpointError::Format(format!("missing field `{key}`")))
}

pub(crate) fn next_record<'a, I: Iterator<Item = &'a str>>(
    lines: &mut I,
    what: &str,
) -> Result<Fields, CheckpointError> {
    let line = lines
        .next()
        .ok_or_else(|| CheckpointError::Format(format!("truncated checkpoint: expected {what}")))?;
    Ok(parse_scalars(line)?)
}

pub(crate) fn expect_type(fields: &Fields, want: &str) -> Result<(), CheckpointError> {
    let ty = field(fields, "type")?.as_str("type")?;
    if ty != want {
        return Err(CheckpointError::Format(format!("expected `{want}` record, found `{ty}`")));
    }
    Ok(())
}

pub(crate) fn get_f64(fields: &Fields, key: &str) -> Result<f64, CheckpointError> {
    Ok(field(fields, key)?.as_f64(key)?)
}

pub(crate) fn get_u64(fields: &Fields, key: &str) -> Result<u64, CheckpointError> {
    Ok(field(fields, key)?.as_u64(key)?)
}

fn get_u32(fields: &Fields, key: &str) -> Result<u32, CheckpointError> {
    Ok(field(fields, key)?.as_u32(key)?)
}

fn get_bool(fields: &Fields, key: &str) -> Result<bool, CheckpointError> {
    Ok(field(fields, key)?.as_bool(key)?)
}

pub(crate) fn get_str<'a>(fields: &'a Fields, key: &str) -> Result<&'a str, CheckpointError> {
    Ok(field(fields, key)?.as_str(key)?)
}

/// Writes a full-range `u64` as two 32-bit halves (`<key>_hi`,
/// `<key>_lo`): post-splitmix seeds and CPIDs use the whole 64-bit
/// range, which the f64-funnelled number path cannot carry in one
/// piece.
fn put_split_u64(out: &mut String, key: &str, v: u64) {
    let _ = write!(out, r#","{key}_hi":{},"{key}_lo":{}"#, v >> 32, v & 0xffff_ffff);
}

fn get_split_u64(fields: &Fields, key: &str) -> Result<u64, CheckpointError> {
    let hi = get_u64(fields, &format!("{key}_hi"))?;
    let lo = get_u64(fields, &format!("{key}_lo"))?;
    if hi > u64::from(u32::MAX) || lo > u64::from(u32::MAX) {
        return Err(CheckpointError::Format(format!("field `{key}` halves exceed 32 bits")));
    }
    Ok((hi << 32) | lo)
}

/// Width of one packed `f64`: 16 lowercase hex digits of its bit
/// pattern.
const HEX_DIGITS: usize = 16;

/// Appends `vals` as comma-separated fixed-width hex of each value's
/// bit pattern (`f64::to_bits`). Every `f64` — NaN payloads, ±0.0 and
/// ±inf included — round-trips exactly with no special tokens, and
/// neither direction formats or parses a decimal float.
fn push_f64_bits(out: &mut String, vals: &[f64]) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    out.reserve(vals.len() * (HEX_DIGITS + 1));
    for (i, v) in vals.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let bits = v.to_bits();
        let mut digits = [0u8; HEX_DIGITS];
        for (k, d) in digits.iter_mut().enumerate() {
            *d = HEX[((bits >> (60 - 4 * k)) & 0xf) as usize];
        }
        out.push_str(std::str::from_utf8(&digits).expect("hex digits are ASCII"));
    }
}

/// Decodes an array written by [`push_f64_bits`]. A field of the wrong
/// width, a missing separator, or a byte outside `0-9a-f` is a
/// [`CheckpointError::Format`].
fn parse_f64_bits(packed: &str, what: &str) -> Result<Vec<f64>, CheckpointError> {
    let bytes = packed.as_bytes();
    if bytes.is_empty() {
        return Ok(Vec::new());
    }
    if !(bytes.len() + 1).is_multiple_of(HEX_DIGITS + 1) {
        return Err(CheckpointError::Format(format!(
            "{what}: {} bytes is not a whole number of {HEX_DIGITS}-digit hex fields",
            bytes.len()
        )));
    }
    let mut vals = Vec::with_capacity((bytes.len() + 1) / (HEX_DIGITS + 1));
    for chunk in bytes.chunks(HEX_DIGITS + 1) {
        let (digits, sep) = chunk.split_at(HEX_DIGITS);
        if !matches!(sep, [] | [b',']) {
            return Err(CheckpointError::Format(format!(
                "{what}: expected `,` after a {HEX_DIGITS}-digit hex field"
            )));
        }
        let mut bits = 0u64;
        for &b in digits {
            let d = match b {
                b'0'..=b'9' => b - b'0',
                b'a'..=b'f' => b - b'a' + 10,
                _ => {
                    return Err(CheckpointError::Format(format!(
                        "{what}: byte {b:#04x} is not a lowercase hex digit"
                    )));
                }
            };
            bits = (bits << 4) | u64::from(d);
        }
        vals.push(f64::from_bits(bits));
    }
    Ok(vals)
}

pub(crate) fn pack_u64s(vals: &[u64]) -> String {
    let mut out = String::new();
    for (i, v) in vals.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{v}");
    }
    out
}

pub(crate) fn unpack_u64s(packed: &str, what: &str) -> Result<Vec<u64>, CheckpointError> {
    if packed.is_empty() {
        return Ok(Vec::new());
    }
    packed
        .split(',')
        .map(|tok| {
            tok.parse::<u64>()
                .map_err(|_| CheckpointError::Format(format!("bad count `{tok}` in {what}")))
        })
        .collect()
}

// ---------------------------------------------------------------------
// Seeded-config codec (shared by postmortem dumps and replay)
// ---------------------------------------------------------------------

/// Appends the self-describing record block for a fully seeded
/// [`SimConfig`]: a `sim_config` header (with digest), the control
/// parameters, every flow, and the seeded fault plan. The inverse is
/// [`decode_sim_config`].
pub fn encode_sim_config(cfg: &SimConfig, out: &mut String) {
    let control = match cfg.control {
        Control::Bcn { .. } => "bcn",
        Control::Qcn { .. } => "qcn",
        Control::None => "none",
    };
    let _ = writeln!(
        out,
        r#"{{"type":"sim_config","digest":{},"capacity":{},"buffer_bits":{},"frame_bits":{},"prop_delay_ns":{},"t_end_ns":{},"record_interval_ns":{},"pause_hold_ns":{},"scheduler":"{}","control":"{}","flows":{}}}"#,
        sim_config_digest(cfg),
        fmt_num(cfg.capacity),
        fmt_num(cfg.buffer_bits),
        fmt_num(cfg.frame_bits),
        cfg.prop_delay.as_nanos(),
        cfg.t_end.as_nanos(),
        cfg.record_interval.as_nanos(),
        cfg.pause_hold.as_nanos(),
        cfg.scheduler.name(),
        control,
        cfg.flows.len(),
    );
    match &cfg.control {
        Control::Bcn { cp, rp } => {
            let mut line = String::from(r#"{"type":"bcn_cp""#);
            put_split_u64(&mut line, "cpid", cp.cpid.0);
            let _ = write!(
                line,
                r#","q0_bits":{},"qsc_bits":{},"w":{},"sample_every":{},"gate_positive":{},"has_fb_quant":{}"#,
                fmt_num(cp.q0_bits),
                fmt_num(cp.qsc_bits),
                fmt_num(cp.w),
                cp.sample_every,
                cp.gate_positive,
                cp.fb_quant.is_some(),
            );
            if let Some(q) = cp.fb_quant {
                let _ = write!(
                    line,
                    r#","fb_bits":{},"fb_range_bits":{}"#,
                    q.bits,
                    fmt_num(q.range_bits)
                );
            }
            line.push('}');
            out.push_str(&line);
            out.push('\n');
            let _ = writeln!(
                out,
                r#"{{"type":"bcn_rp","gi":{},"gd":{},"ru":{},"gain_scale":{},"r_min":{},"r_max":{}}}"#,
                fmt_num(rp.gi),
                fmt_num(rp.gd),
                fmt_num(rp.ru),
                fmt_num(rp.gain_scale),
                fmt_num(rp.r_min),
                fmt_num(rp.r_max),
            );
        }
        Control::Qcn { cp, rp } => {
            let _ = writeln!(
                out,
                r#"{{"type":"qcn_cp","q_eq_bits":{},"w":{},"sample_every":{}}}"#,
                fmt_num(cp.q_eq_bits),
                fmt_num(cp.w),
                cp.sample_every,
            );
            let _ = writeln!(
                out,
                r#"{{"type":"qcn_rp","gd":{},"bc_limit_bits":{},"fr_cycles":{},"r_ai":{},"r_hai":{},"r_min":{},"r_max":{}}}"#,
                fmt_num(rp.gd),
                fmt_num(rp.bc_limit_bits),
                rp.fr_cycles,
                fmt_num(rp.r_ai),
                fmt_num(rp.r_hai),
                fmt_num(rp.r_min),
                fmt_num(rp.r_max),
            );
        }
        Control::None => {}
    }
    for flow in &cfg.flows {
        let _ = write!(
            out,
            r#"{{"type":"flow","start_ns":{},"initial_rate":{},"has_stop":{},"has_volume":{}"#,
            flow.start.as_nanos(),
            fmt_num(flow.initial_rate),
            flow.stop.is_some(),
            flow.volume_bits.is_some(),
        );
        if let Some(t) = flow.stop {
            let _ = write!(out, r#","stop_ns":{}"#, t.as_nanos());
        }
        if let Some(v) = flow.volume_bits {
            let _ = write!(out, r#","volume_bits":{}"#, fmt_num(v));
        }
        out.push_str("}\n");
    }
    let fl = &cfg.faults;
    let mut line = String::from(r#"{"type":"fault_plan""#);
    put_split_u64(&mut line, "seed", fl.seed);
    let _ = write!(
        line,
        r#","feedback_loss":{},"feedback_corrupt":{},"feedback_extra_delay_ns":{},"feedback_reorder":{},"reorder_window_ns":{},"data_loss":{},"data_burst_len":{},"link_flap_period_ns":{},"link_flap_down_ns":{},"pause_storm":{},"pause_storm_factor":{}"#,
        fmt_num(fl.feedback_loss),
        fmt_num(fl.feedback_corrupt),
        fl.feedback_extra_delay.as_nanos(),
        fmt_num(fl.feedback_reorder),
        fl.reorder_window.as_nanos(),
        fmt_num(fl.data_loss),
        fl.data_burst_len,
        fl.link_flap_period.as_nanos(),
        fl.link_flap_down.as_nanos(),
        fmt_num(fl.pause_storm),
        fmt_num(fl.pause_storm_factor),
    );
    line.push('}');
    out.push_str(&line);
    out.push('\n');
}

/// Decodes a [`SimConfig`] block written by [`encode_sim_config`],
/// consuming exactly its lines, and verifies the embedded digest
/// against the decoded config.
///
/// # Errors
///
/// Fails on truncation, malformed records, or a digest mismatch
/// (edited or version-skewed config block).
pub fn decode_sim_config<'a, I: Iterator<Item = &'a str>>(
    lines: &mut I,
) -> Result<SimConfig, CheckpointError> {
    let head = next_record(lines, "`sim_config` record")?;
    expect_type(&head, "sim_config")?;
    let digest = get_u64(&head, "digest")?;
    let scheduler = match get_str(&head, "scheduler")? {
        "wheel" => Scheduler::Wheel,
        "heap" => Scheduler::Heap,
        other => {
            return Err(CheckpointError::Format(format!("unknown scheduler `{other}`")));
        }
    };
    let control = match get_str(&head, "control")? {
        "bcn" => {
            let cp = next_record(lines, "`bcn_cp` record")?;
            expect_type(&cp, "bcn_cp")?;
            let fb_quant = if get_bool(&cp, "has_fb_quant")? {
                Some(FbQuant {
                    bits: get_u32(&cp, "fb_bits")?,
                    range_bits: get_f64(&cp, "fb_range_bits")?,
                })
            } else {
                None
            };
            let cp = CpConfig {
                cpid: CpId(get_split_u64(&cp, "cpid")?),
                q0_bits: get_f64(&cp, "q0_bits")?,
                qsc_bits: get_f64(&cp, "qsc_bits")?,
                w: get_f64(&cp, "w")?,
                sample_every: get_u64(&cp, "sample_every")?,
                fb_quant,
                gate_positive: get_bool(&cp, "gate_positive")?,
            };
            let rp = next_record(lines, "`bcn_rp` record")?;
            expect_type(&rp, "bcn_rp")?;
            let rp = RpConfig {
                gi: get_f64(&rp, "gi")?,
                gd: get_f64(&rp, "gd")?,
                ru: get_f64(&rp, "ru")?,
                gain_scale: get_f64(&rp, "gain_scale")?,
                r_min: get_f64(&rp, "r_min")?,
                r_max: get_f64(&rp, "r_max")?,
            };
            Control::Bcn { cp, rp }
        }
        "qcn" => {
            let cp = next_record(lines, "`qcn_cp` record")?;
            expect_type(&cp, "qcn_cp")?;
            let cp = QcnCpConfig {
                q_eq_bits: get_f64(&cp, "q_eq_bits")?,
                w: get_f64(&cp, "w")?,
                sample_every: get_u64(&cp, "sample_every")?,
            };
            let rp = next_record(lines, "`qcn_rp` record")?;
            expect_type(&rp, "qcn_rp")?;
            let rp = QcnRpConfig {
                gd: get_f64(&rp, "gd")?,
                bc_limit_bits: get_f64(&rp, "bc_limit_bits")?,
                fr_cycles: get_u32(&rp, "fr_cycles")?,
                r_ai: get_f64(&rp, "r_ai")?,
                r_hai: get_f64(&rp, "r_hai")?,
                r_min: get_f64(&rp, "r_min")?,
                r_max: get_f64(&rp, "r_max")?,
            };
            Control::Qcn { cp, rp }
        }
        "none" => Control::None,
        other => {
            return Err(CheckpointError::Format(format!("unknown control `{other}`")));
        }
    };
    // Counts read from the file size no allocation up front: a damaged
    // count runs out of lines (a typed error) instead of aborting.
    let mut flows = Vec::new();
    for _ in 0..get_u64(&head, "flows")? {
        let f = next_record(lines, "`flow` record")?;
        expect_type(&f, "flow")?;
        flows.push(FlowSpec {
            start: Time::from_nanos(get_u64(&f, "start_ns")?),
            stop: if get_bool(&f, "has_stop")? {
                Some(Time::from_nanos(get_u64(&f, "stop_ns")?))
            } else {
                None
            },
            initial_rate: get_f64(&f, "initial_rate")?,
            volume_bits: if get_bool(&f, "has_volume")? {
                Some(get_f64(&f, "volume_bits")?)
            } else {
                None
            },
        });
    }
    let fp = next_record(lines, "`fault_plan` record")?;
    expect_type(&fp, "fault_plan")?;
    let faults = FaultConfig {
        seed: get_split_u64(&fp, "seed")?,
        feedback_loss: get_f64(&fp, "feedback_loss")?,
        feedback_corrupt: get_f64(&fp, "feedback_corrupt")?,
        feedback_extra_delay: Duration::from_nanos(get_u64(&fp, "feedback_extra_delay_ns")?),
        feedback_reorder: get_f64(&fp, "feedback_reorder")?,
        reorder_window: Duration::from_nanos(get_u64(&fp, "reorder_window_ns")?),
        data_loss: get_f64(&fp, "data_loss")?,
        data_burst_len: get_u64(&fp, "data_burst_len")?,
        link_flap_period: Duration::from_nanos(get_u64(&fp, "link_flap_period_ns")?),
        link_flap_down: Duration::from_nanos(get_u64(&fp, "link_flap_down_ns")?),
        pause_storm: get_f64(&fp, "pause_storm")?,
        pause_storm_factor: get_f64(&fp, "pause_storm_factor")?,
    };
    let cfg = SimConfig {
        capacity: get_f64(&head, "capacity")?,
        buffer_bits: get_f64(&head, "buffer_bits")?,
        frame_bits: get_f64(&head, "frame_bits")?,
        prop_delay: Duration::from_nanos(get_u64(&head, "prop_delay_ns")?),
        flows,
        control,
        t_end: Time::from_nanos(get_u64(&head, "t_end_ns")?),
        record_interval: Duration::from_nanos(get_u64(&head, "record_interval_ns")?),
        pause_hold: Duration::from_nanos(get_u64(&head, "pause_hold_ns")?),
        faults,
        scheduler,
    };
    let actual = sim_config_digest(&cfg);
    if actual != digest {
        return Err(CheckpointError::Format(format!(
            "sim_config digest mismatch (recorded {digest:#x}, decoded {actual:#x}): \
             the config block was edited or written by an incompatible version"
        )));
    }
    Ok(cfg)
}

// ---------------------------------------------------------------------
// Seed-outcome codec
// ---------------------------------------------------------------------

/// Appends the record block for one seed's outcome — the shard payload
/// of a checkpoint. A header record (`C::SEED_RECORD`: seed, outcome
/// kind, retries where the kind records them, watchdog event count,
/// cause), then a completed report's records
/// ([`SeedBatch::encode_report`]), then the telemetry shard through the
/// bit-exact snapshot codec, so a decoded outcome merges into an
/// aggregate byte-identically to the original.
pub fn encode_outcome<C: SeedBatch>(seed: u64, outcome: &SeedOutcome<C::Report>, out: &mut String) {
    let (kind, retries, cause, events, tel) = match outcome {
        SeedOutcome::Completed(report) => ("completed", 0, "", 0, C::Engine::telemetry(report)),
        SeedOutcome::Failed { cause, retries, telemetry } => {
            ("failed", *retries, cause.as_str(), 0, telemetry.as_deref())
        }
        SeedOutcome::TimedOut { events, telemetry } => {
            ("timed_out", 0, "", *events, telemetry.as_deref())
        }
    };
    let _ = write!(out, r#"{{"type":"{}""#, C::SEED_RECORD);
    put_split_u64(out, "seed", seed);
    let _ = write!(out, r#","outcome":"{kind}""#);
    if C::SHARD_RETRIES {
        let _ = write!(out, r#","retries":{retries}"#);
    }
    let _ = writeln!(
        out,
        r#","events":{events},"has_telemetry":{},"cause":"{cause}"}}"#,
        tel.is_some()
    );
    if let SeedOutcome::Completed(report) = outcome {
        C::encode_report(report, out);
    }
    if let Some(t) = tel {
        out.push_str(&snapshot_to_jsonl(t));
    }
}

/// Decodes one seed's outcome block written by [`encode_outcome`],
/// consuming exactly its lines.
///
/// # Errors
///
/// Fails on truncation or malformed records; a resuming batch treats
/// that as "seed not done" and re-runs it.
pub fn decode_outcome<'a, C: SeedBatch, I: Iterator<Item = &'a str>>(
    lines: &mut I,
) -> Result<(u64, SeedOutcome<C::Report>), CheckpointError> {
    let head = next_record(lines, &format!("`{}` record", C::SEED_RECORD))?;
    expect_type(&head, C::SEED_RECORD)?;
    let seed = get_split_u64(&head, "seed")?;
    let kind = get_str(&head, "outcome")?.to_string();
    let retries = if C::SHARD_RETRIES { get_u32(&head, "retries")? } else { 0 };
    let events = get_u64(&head, "events")?;
    let has_tel = get_bool(&head, "has_telemetry")?;
    let cause = get_str(&head, "cause")?.to_string();
    let snapshot = |lines: &mut I| -> Result<Option<Telemetry>, CheckpointError> {
        Ok(if has_tel { Some(snapshot_from_jsonl(lines)?) } else { None })
    };
    let outcome = match kind.as_str() {
        "completed" => {
            let mut report = C::decode_report(lines)?;
            *C::Engine::telemetry_mut(&mut report) = snapshot(lines)?;
            SeedOutcome::Completed(Box::new(report))
        }
        "failed" => {
            SeedOutcome::Failed { cause, retries, telemetry: snapshot(lines)?.map(Box::new) }
        }
        "timed_out" => SeedOutcome::TimedOut { events, telemetry: snapshot(lines)?.map(Box::new) },
        other => {
            return Err(CheckpointError::Format(format!(
                "unknown {} outcome `{other}`",
                C::SEED_RECORD
            )));
        }
    };
    Ok((seed, outcome))
}

/// [`encode_outcome`] for a dumbbell batch.
pub fn encode_seed_outcome(seed: u64, outcome: &SeedOutcome, out: &mut String) {
    encode_outcome::<BatchConfig>(seed, outcome, out);
}

/// [`decode_outcome`] for a dumbbell batch, with the same errors.
pub fn decode_seed_outcome<'a, I: Iterator<Item = &'a str>>(
    lines: &mut I,
) -> Result<(u64, SeedOutcome), CheckpointError> {
    decode_outcome::<BatchConfig, I>(lines)
}

pub(crate) fn put_samples(out: &mut String, name: &str, vals: &[f64]) {
    let _ = write!(out, r#"{{"type":"sample_bits","name":"{name}","values":""#);
    push_f64_bits(out, vals);
    out.push_str("\"}\n");
}

pub(crate) fn put_fault_counts(out: &mut String, f: &FaultCounts) {
    let _ = writeln!(
        out,
        r#"{{"type":"fault_counts","feedback_dropped":{},"feedback_corrupted":{},"feedback_corrupt_lost":{},"feedback_delayed":{},"feedback_reordered":{},"data_frames_lost":{},"link_flap_deferrals":{},"pause_storms":{}}}"#,
        f.feedback_dropped,
        f.feedback_corrupted,
        f.feedback_corrupt_lost,
        f.feedback_delayed,
        f.feedback_reordered,
        f.data_frames_lost,
        f.link_flap_deferrals,
        f.pause_storms,
    );
}

pub(crate) fn take_fault_counts<'a, I: Iterator<Item = &'a str>>(
    lines: &mut I,
) -> Result<FaultCounts, CheckpointError> {
    let fc = next_record(lines, "`fault_counts` record")?;
    expect_type(&fc, "fault_counts")?;
    Ok(FaultCounts {
        feedback_dropped: get_u64(&fc, "feedback_dropped")?,
        feedback_corrupted: get_u64(&fc, "feedback_corrupted")?,
        feedback_corrupt_lost: get_u64(&fc, "feedback_corrupt_lost")?,
        feedback_delayed: get_u64(&fc, "feedback_delayed")?,
        feedback_reordered: get_u64(&fc, "feedback_reordered")?,
        data_frames_lost: get_u64(&fc, "data_frames_lost")?,
        link_flap_deferrals: get_u64(&fc, "link_flap_deferrals")?,
        pause_storms: get_u64(&fc, "pause_storms")?,
    })
}

/// Appends one `series_bits` record. The first series of a shard
/// always carries its `times` and becomes the shard's `grid`; a later
/// series whose times are bitwise-equal to the grid omits them (every
/// recorded series shares the record grid, so the grid is written once
/// rather than once per series), and any other series writes its own.
pub(crate) fn put_series<'a>(
    out: &mut String,
    grid: &mut Option<&'a [f64]>,
    name: &str,
    entity: Option<usize>,
    s: &'a TimeSeries,
) {
    let _ = write!(out, r#"{{"type":"series_bits","name":"{name}""#);
    if let Some(e) = entity {
        let _ = write!(out, r#","entity":{e}"#);
    }
    let on_grid = grid.is_some_and(|g| {
        g.len() == s.len() && g.iter().zip(s.times()).all(|(a, b)| a.to_bits() == b.to_bits())
    });
    if !on_grid {
        out.push_str(r#","times":""#);
        push_f64_bits(out, s.times());
        out.push('"');
        grid.get_or_insert(s.times());
    }
    out.push_str(r#","values":""#);
    push_f64_bits(out, s.values());
    out.push_str("\"}\n");
}

pub(crate) fn take_samples<'a, I: Iterator<Item = &'a str>>(
    lines: &mut I,
    name: &str,
) -> Result<Vec<f64>, CheckpointError> {
    let r = next_record(lines, "`sample_bits` record")?;
    expect_type(&r, "sample_bits")?;
    let found = get_str(&r, "name")?;
    if found != name {
        return Err(CheckpointError::Format(format!("expected samples `{name}`, found `{found}`")));
    }
    parse_f64_bits(get_str(&r, "values")?, name)
}

/// Decodes one record written by [`put_series`] with the same `name`
/// and `entity`, so series swapped within a shard fail to decode.
/// `grid` is the shard's first series' times; a record without `times`
/// is restored on it.
pub(crate) fn take_series<'a, I: Iterator<Item = &'a str>>(
    lines: &mut I,
    grid: &mut Option<Vec<f64>>,
    name: &str,
    entity: Option<usize>,
) -> Result<TimeSeries, CheckpointError> {
    let r = next_record(lines, "`series_bits` record")?;
    expect_type(&r, "series_bits")?;
    let found = get_str(&r, "name")?;
    if found != name {
        return Err(CheckpointError::Format(format!("expected series `{name}`, found `{found}`")));
    }
    let found_entity = match field(&r, "entity") {
        Ok(e) => Some(e.as_u64("entity")?),
        Err(_) => None,
    };
    if found_entity != entity.map(|e| e as u64) {
        return Err(CheckpointError::Format(format!(
            "series `{name}`: expected entity {entity:?}, found {found_entity:?}"
        )));
    }
    let own = match field(&r, "times") {
        Ok(t) => Some(parse_f64_bits(t.as_str("times")?, name)?),
        Err(_) => None,
    };
    let values = parse_f64_bits(get_str(&r, "values")?, name)?;
    let times = own.as_deref().or(grid.as_deref()).ok_or_else(|| {
        CheckpointError::Format(format!("series `{name}` omits its times before any grid"))
    })?;
    if times.len() != values.len() {
        return Err(CheckpointError::Format(format!(
            "series `{name}`: {} times vs {} values",
            times.len(),
            values.len()
        )));
    }
    let mut s = TimeSeries::new();
    s.reserve(times.len());
    for (&t, v) in times.iter().zip(values) {
        s.push_secs(t, v);
    }
    if grid.is_none() {
        *grid = own;
    }
    Ok(s)
}

// ---------------------------------------------------------------------
// The checkpoint store
// ---------------------------------------------------------------------

/// A batch checkpoint directory for batches of kind `C`: per-seed
/// outcome shards plus an append-only, fsynced manifest acknowledging
/// each finished seed, keyed by the kind's config digest so a journal
/// of any other configuration (or kind) is rejected on resume. See the
/// module docs for the crash-consistency argument.
#[derive(Debug)]
pub struct BatchCheckpoint<C: SeedBatch = BatchConfig> {
    dir: PathBuf,
    manifest: Mutex<fs::File>,
    restored: Mutex<BTreeMap<u64, SeedOutcome<C::Report>>>,
}

impl<C: SeedBatch> BatchCheckpoint<C> {
    /// Starts a fresh checkpoint in `dir` (created if needed).
    ///
    /// # Errors
    ///
    /// Fails if `dir` already holds a manifest (refuse to silently
    /// clobber a previous run — resume it or pick a fresh directory) or
    /// on I/O errors.
    pub fn create(dir: &Path, cfg: &C) -> Result<Self, CheckpointError> {
        if dir.join(MANIFEST_FILE).exists() {
            return Err(CheckpointError::Format(format!(
                "{} already contains a manifest; resume it or use a fresh directory",
                dir.display()
            )));
        }
        Self::resume(dir, cfg)
    }

    /// Opens `dir` for a (possibly resumed) run. With a manifest present
    /// it checks the config digest, then decodes every acknowledged
    /// shard of a configured seed, spread over the configured `parkit`
    /// width (the map is keyed by seed, so what is restored does not
    /// depend on the width); unreadable or truncated shards are skipped
    /// and their seeds simply re-run. Without one it writes a fresh
    /// manifest.
    ///
    /// # Errors
    ///
    /// Fails on I/O errors, a malformed manifest header, or
    /// [`CheckpointError::ConfigMismatch`] when the directory belongs
    /// to a different batch configuration.
    pub fn resume(dir: &Path, cfg: &C) -> Result<Self, CheckpointError> {
        let digest = cfg.digest();
        let seeds = cfg.supervision().seeds;
        fs::create_dir_all(dir)?;
        let path = dir.join(MANIFEST_FILE);
        let restored = if path.exists() {
            let text = fs::read_to_string(&path)?;
            let wanted: BTreeSet<u64> = seeds.iter().copied().collect();
            let acked: BTreeSet<u64> =
                parse_manifest(&text, digest)?.into_iter().filter(|s| wanted.contains(s)).collect();
            let acked: Vec<u64> = acked.into_iter().collect();
            let loaded = parkit::par_map(&acked, |&seed| {
                let text = fs::read_to_string(dir.join(shard_name(seed))).ok()?;
                decode_shard::<C>(&text, seed)
            });
            acked.into_iter().zip(loaded).filter_map(|(s, o)| Some((s, o?))).collect()
        } else {
            let mut text = schema_header();
            text.push('\n');
            let _ = writeln!(
                text,
                r#"{{"type":"batch_manifest","digest":{digest},"seeds":{}}}"#,
                seeds.len()
            );
            write_atomic(&path, &text)?;
            BTreeMap::new()
        };
        Ok(Self {
            dir: dir.to_path_buf(),
            manifest: Mutex::new(fs::OpenOptions::new().append(true).open(&path)?),
            restored: Mutex::new(restored),
        })
    }

    /// Seeds whose outcomes were restored from disk, ascending.
    #[must_use]
    pub fn restored_seeds(&self) -> Vec<u64> {
        self.restored.lock().expect("restored lock").keys().copied().collect()
    }

    /// Hands the restored outcome for `seed` to the runner (once).
    pub(crate) fn take_restored(&self, seed: u64) -> Option<SeedOutcome<C::Report>> {
        self.restored.lock().expect("restored lock").remove(&seed)
    }

    /// Persists one finished seed: writes its shard atomically, then
    /// appends and fsyncs a manifest acknowledgement. Only after both
    /// steps will a resume skip the seed, so a crash at any point in
    /// between re-runs it rather than trusting a torn shard.
    ///
    /// # Errors
    ///
    /// Fails on I/O errors; the batch runner surfaces the first one and
    /// aborts rather than silently running uncheckpointed.
    pub fn record(
        &self,
        seed: u64,
        outcome: &SeedOutcome<C::Report>,
    ) -> Result<(), CheckpointError> {
        commit_shard(&self.dir, &self.manifest, seed, |text| {
            encode_outcome::<C>(seed, outcome, text);
        })
    }
}

fn shard_name(seed: u64) -> String {
    format!("seed-{seed}.jsonl")
}

/// Decodes a shard file's text: the schema header, then one outcome
/// block, which must belong to `seed`. Any failure (torn or
/// version-skewed content, seed mismatch) yields `None` so the seed
/// re-runs.
fn decode_shard<C: SeedBatch>(text: &str, seed: u64) -> Option<SeedOutcome<C::Report>> {
    let mut lines = text.lines();
    check_schema_header(lines.next()?).ok()?;
    let (found, outcome) = decode_outcome::<C, _>(&mut lines).ok()?;
    (found == seed).then_some(outcome)
}

/// Persists one finished seed: writes the shard `encode` fills
/// atomically, then appends and fsyncs the manifest acknowledgement.
fn commit_shard(
    dir: &Path,
    manifest: &Mutex<fs::File>,
    seed: u64,
    encode: impl FnOnce(&mut String),
) -> Result<(), CheckpointError> {
    let mut text = schema_header();
    text.push('\n');
    encode(&mut text);
    write_atomic(&dir.join(shard_name(seed)), &text)?;
    let mut line = String::from(r#"{"type":"done""#);
    put_split_u64(&mut line, "seed", seed);
    line.push_str("}\n");
    let mut f = manifest.lock().expect("manifest lock");
    f.write_all(line.as_bytes())?;
    f.sync_data()?;
    Ok(())
}

/// Parses the manifest: schema header, `batch_manifest` record (digest
/// checked), then `done` acknowledgements. Unparseable `done` lines —
/// a torn trailing write from a killed run — are skipped, which only
/// ever errs toward re-running a seed.
fn parse_manifest(text: &str, expected: u64) -> Result<Vec<u64>, CheckpointError> {
    let mut lines = text.lines();
    let header =
        lines.next().ok_or_else(|| CheckpointError::Format("empty manifest".to_string()))?;
    check_schema_header(header)?;
    let head = next_record(&mut lines, "`batch_manifest` record")?;
    expect_type(&head, "batch_manifest")?;
    let found = get_u64(&head, "digest")?;
    if found != expected {
        return Err(CheckpointError::ConfigMismatch { expected, found });
    }
    let mut done = Vec::new();
    for line in lines {
        let Ok(fields) = parse_scalars(line) else { continue };
        if expect_type(&fields, "done").is_err() {
            continue;
        }
        if let Ok(seed) = get_split_u64(&fields, "seed") {
            done.push(seed);
        }
    }
    Ok(done)
}

/// Writes `contents` to `path` atomically: temp file, fsync, rename,
/// directory fsync. Readers never observe a partial file.
fn write_atomic(path: &Path, contents: &str) -> std::io::Result<()> {
    let tmp = path.with_extension("tmp");
    {
        let mut f = fs::File::create(&tmp)?;
        f.write_all(contents.as_bytes())?;
        f.sync_all()?;
    }
    fs::rename(&tmp, path)?;
    if let Some(parent) = path.parent() {
        if let Ok(d) = fs::File::open(parent) {
            let _ = d.sync_all();
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------
// Postmortem replay specs
// ---------------------------------------------------------------------

/// Everything needed to re-run a quarantined seed exactly: parsed from
/// a self-describing postmortem dump by [`replay_spec_from_postmortem`]
/// and executed by [`crate::batch::replay`].
#[derive(Debug, Clone, PartialEq)]
pub struct ReplaySpec {
    /// The quarantined seed.
    pub seed: u64,
    /// The recorded failure cause the re-run must reproduce.
    pub cause: String,
    /// The fully seeded configuration (jitters and fault plan applied).
    pub config: SimConfig,
    /// The intentional-panic trigger active during the original run.
    pub panic_after: Option<u64>,
    /// The watchdog event budget active during the original run.
    pub max_events: Option<u64>,
}

/// Appends the replay-context records a postmortem dump embeds: a
/// `replay` record (seed + panic/watchdog triggers) followed by the
/// seeded config block.
pub fn encode_replay_context(
    seed: u64,
    panic_after: Option<u64>,
    max_events: Option<u64>,
    config: &SimConfig,
    out: &mut String,
) {
    let mut line = String::from(r#"{"type":"replay""#);
    put_split_u64(&mut line, "seed", seed);
    let _ = write!(
        line,
        r#","has_panic_after":{},"panic_after":{},"has_max_events":{},"max_events":{}"#,
        panic_after.is_some(),
        panic_after.unwrap_or(0),
        max_events.is_some(),
        max_events.unwrap_or(0),
    );
    line.push_str("}\n");
    out.push_str(&line);
    encode_sim_config(config, out);
}

/// Reconstructs a [`ReplaySpec`] from a postmortem dump written by
/// `dcebcn batch` (schema v2 with embedded replay context).
///
/// # Errors
///
/// Fails when `text` is not a postmortem dump, lacks the embedded
/// config (pre-recovery dumps), or its config block fails to decode.
pub fn replay_spec_from_postmortem(text: &str) -> Result<ReplaySpec, CheckpointError> {
    let mut lines = text.lines();
    let header =
        lines.next().ok_or_else(|| CheckpointError::Format("empty postmortem file".to_string()))?;
    check_schema_header(header)?;
    let all: Vec<&str> = lines.collect();
    let mut cause = None;
    let mut replay = None;
    let mut config = None;
    let mut idx = 0;
    while idx < all.len() {
        let line = all[idx];
        let Ok(fields) = parse_scalars(line) else {
            idx += 1;
            continue;
        };
        match field(&fields, "type").and_then(|t| Ok(t.as_str("type")?.to_string())) {
            Ok(t) if t == "postmortem" => {
                cause = Some(get_str(&fields, "cause")?.to_string());
                idx += 1;
            }
            Ok(t) if t == "replay" => {
                let seed = get_split_u64(&fields, "seed")?;
                let panic_after =
                    get_bool(&fields, "has_panic_after")?.then(|| get_u64(&fields, "panic_after"));
                let max_events =
                    get_bool(&fields, "has_max_events")?.then(|| get_u64(&fields, "max_events"));
                replay = Some((seed, panic_after.transpose()?, max_events.transpose()?));
                idx += 1;
            }
            Ok(t) if t == "sim_config" => {
                let mut rest = all[idx..].iter().copied();
                config = Some(decode_sim_config(&mut rest)?);
                idx = all.len() - rest.count();
            }
            _ => idx += 1,
        }
    }
    let cause = cause.ok_or_else(|| {
        CheckpointError::Format("no `postmortem` record: not a postmortem dump".to_string())
    })?;
    let (seed, panic_after, max_events) = replay.ok_or_else(|| {
        CheckpointError::Format(
            "no `replay` record: dump predates the self-describing postmortem format".to_string(),
        )
    })?;
    let config = config.ok_or_else(|| {
        CheckpointError::Format(
            "no `sim_config` block: dump predates the self-describing postmortem format"
                .to_string(),
        )
    })?;
    Ok(ReplaySpec { seed, cause, config, panic_after, max_events })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::{run_batch, run_batch_checkpointed, BatchReport, NetBatchConfig};
    use crate::sim::SimReport;
    use telemetry::TelemetryLevel;

    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("dcesim-ckpt-{}-{tag}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).expect("create scratch dir");
        dir
    }

    fn faulty_batch(n: u64) -> BatchConfig {
        let mut base = SimConfig::fluid_validation_default();
        base.t_end = Time::from_secs(0.02);
        base.faults.seed = 7;
        base.faults.feedback_loss = 0.2;
        BatchConfig { level: TelemetryLevel::Full, ..BatchConfig::quick(base, n) }
    }

    /// A seeded config with stop, volume and feedback quantisation set,
    /// under BCN, QCN (on the heap scheduler) and no control.
    fn controls() -> [SimConfig; 3] {
        let mut bcn = crate::batch::seeded_config(&faulty_batch(2), 1);
        bcn.flows[0].stop = Some(Time::from_secs(0.015));
        bcn.flows[1].volume_bits = Some(1.5e6);
        if let Control::Bcn { cp, .. } = &mut bcn.control {
            cp.fb_quant = Some(FbQuant { bits: 6, range_bits: 2.0e6 });
        }
        let mut qcn = bcn.clone();
        qcn.control = Control::Qcn {
            cp: QcnCpConfig { q_eq_bits: 1.0e6, w: 2.0, sample_every: 50 },
            rp: QcnRpConfig {
                gd: 1.0 / 128.0,
                bc_limit_bits: 1.2e6,
                fr_cycles: 5,
                r_ai: 5.0e6,
                r_hai: 5.0e7,
                r_min: 1.0e4,
                r_max: 1.0e9,
            },
        };
        qcn.scheduler = Scheduler::Heap;
        let mut none = bcn.clone();
        none.control = Control::None;
        [bcn, qcn, none]
    }

    #[test]
    fn sim_config_codec_round_trips_bcn_and_qcn() {
        for cfg in controls() {
            let mut text = String::new();
            encode_sim_config(&cfg, &mut text);
            let decoded = decode_sim_config(&mut text.lines()).expect("decode");
            assert_eq!(decoded, cfg);
        }
    }

    #[test]
    fn config_digests_keep_their_values() {
        let sim: Vec<u64> = controls().iter().map(sim_config_digest).collect();
        assert_eq!(sim, [0x0004_1592_3498_ce4c, 0x000d_1942_e79b_d6b0, 0x000c_c22c_3b18_977c]);
        let frame = 8_000.0;
        let cp = CpConfig {
            cpid: CpId(2),
            q0_bits: 10.0 * frame,
            qsc_bits: 50.0 * frame,
            w: 0.025,
            sample_every: 5,
            fb_quant: Some(FbQuant { bits: 6, range_bits: 4.0e5 }),
            gate_positive: true,
        };
        let rp = RpConfig {
            gi: 0.5,
            gd: 1.0 / 512.0,
            ru: 1.0e4,
            gain_scale: 1.6e-4,
            r_min: 1e3,
            r_max: 1e9,
        };
        let pause = crate::net::PauseConfig {
            enabled: true,
            hold: Duration::from_secs(3.2e-4),
            per_priority: false,
        };
        let prop = Duration::from_secs(1e-6);
        let (net, _) =
            crate::net::victim_topology(4, 1e9, frame, prop, 0.01, pause, Some((cp, rp)));
        assert_eq!(net_config_digest(&net), 0x000e_f097_8e15_d50a);
        let batch = NetBatchConfig {
            seeds: vec![3, 1, 4],
            panic_seeds: vec![1],
            max_events_per_seed: Some(9),
            max_seed_wall_ms: Some(7),
            ..NetBatchConfig::quick(net, 0)
        };
        assert_eq!(batch.digest(), 0x0010_457e_ed07_974e);
    }

    #[test]
    fn sim_config_decode_rejects_tampering() {
        let cfg = crate::batch::seeded_config(&faulty_batch(1), 0);
        let mut text = String::new();
        encode_sim_config(&cfg, &mut text);
        let tampered = text.replacen("\"capacity\":1", "\"capacity\":2", 1);
        assert_ne!(tampered, text, "expected the capacity field to be editable");
        let err = decode_sim_config(&mut tampered.lines()).unwrap_err();
        assert!(matches!(err, CheckpointError::Format(m) if m.contains("digest mismatch")));
    }

    /// Every outcome of `report` through the shard codec of kind `C`,
    /// in seed order: equal texts mean byte-identical artifacts.
    fn encoded<C: SeedBatch>(report: &BatchReport<C::Report>) -> Vec<String> {
        let seeds = report.seeds.iter().zip(&report.outcomes);
        seeds.map(|(&seed, o)| shard_text(|t| encode_outcome::<C>(seed, o, t))).collect()
    }

    /// Round-trips all three outcome arms of kind `C` byte-exactly:
    /// `faulted` (three seeds, seed 1 panicking, a 400-event budget)
    /// must give timed-out, failed, timed-out — 400 > PANIC_AFTER_STEPS,
    /// so seed 1 still panics while the others run into the budget —
    /// and `clean` one completed seed.
    fn outcomes_round_trip_byte_exactly<C: SeedBatch>(faulted: &C, clean: &C) {
        let report = run_batch(faulted);
        let kinds: Vec<&str> = report
            .outcomes
            .iter()
            .map(|o| match o {
                SeedOutcome::Completed(_) => "completed",
                SeedOutcome::Failed { .. } => "failed",
                SeedOutcome::TimedOut { .. } => "timed_out",
            })
            .collect();
        assert_eq!(kinds, ["timed_out", "failed", "timed_out"], "outcomes: {kinds:?}");
        let completed = run_batch(clean);
        assert_eq!(completed.completed().count(), 1);
        let all = report.seeds.iter().zip(&report.outcomes);
        for (&seed, outcome) in all.chain(completed.seeds.iter().zip(&completed.outcomes)) {
            let mut text = String::new();
            encode_outcome::<C>(seed, outcome, &mut text);
            let mut lines = text.lines();
            let (dseed, decoded) = decode_outcome::<C, _>(&mut lines).expect("decode");
            assert_eq!(dseed, seed);
            assert_eq!(lines.next(), None, "decoder must consume the whole block");
            let mut re = String::new();
            encode_outcome::<C>(dseed, &decoded, &mut re);
            assert_eq!(re, text, "seed {seed} round trip not byte-exact");
        }
    }

    #[test]
    fn seed_outcomes_round_trip_byte_exactly() {
        let faulted =
            BatchConfig { panic_seeds: vec![1], max_events_per_seed: Some(400), ..faulty_batch(3) };
        let clean = BatchConfig { max_seed_retries: 3, ..faulty_batch(1) };
        outcomes_round_trip_byte_exactly(&faulted, &clean);
    }

    #[test]
    fn net_seed_outcomes_round_trip_byte_exactly() {
        let faulted = NetBatchConfig {
            panic_seeds: vec![1],
            max_events_per_seed: Some(400),
            ..net_faulty_batch(3)
        };
        outcomes_round_trip_byte_exactly(&faulted, &net_faulty_batch(1));
    }

    /// The checkpoint store of kind `C`: a journalled run in which every
    /// seed completes, a refused second `create`, a resume restoring
    /// every seed, a crash that lost every acknowledgement but seed 0's
    /// (ack order is thread-dependent, so they are filtered by content
    /// rather than position) whose resumed run merges byte-identically,
    /// and a refused resume under `perturbed`. Returns the journal
    /// directory.
    fn store_round_trips_and_rejects_mismatches<C: SeedBatch>(
        cfg: &C,
        perturbed: &C,
        tag: &str,
    ) -> PathBuf {
        let dir = scratch(tag);
        let ck = BatchCheckpoint::create(&dir, cfg).expect("create");
        let full = run_batch_checkpointed(cfg, &ck).expect("run");
        let n_seeds = cfg.supervision().seeds.len();
        assert_eq!(full.completed().count(), n_seeds, "every seed of `cfg` must complete");
        drop(ck);
        assert!(
            matches!(BatchCheckpoint::create(&dir, cfg), Err(CheckpointError::Format(_))),
            "create must refuse an existing manifest"
        );
        let ck = BatchCheckpoint::resume(&dir, cfg).expect("resume");
        assert_eq!(ck.restored_seeds(), cfg.supervision().seeds);
        drop(ck);
        let manifest = dir.join(MANIFEST_FILE);
        let text = fs::read_to_string(&manifest).expect("read manifest");
        let keep: Vec<&str> = text
            .lines()
            .filter(|l| !l.contains(r#""type":"done""#) || l.contains(r#""seed_lo":0}"#))
            .collect();
        fs::write(&manifest, keep.join("\n") + "\n").expect("truncate manifest");
        let ck = BatchCheckpoint::resume(&dir, cfg).expect("resume");
        assert_eq!(ck.restored_seeds(), vec![0], "only seed 0 stays acknowledged");
        let resumed = run_batch_checkpointed(cfg, &ck).expect("resume run");
        assert_eq!(resumed.supervisor.resumed, 1);
        assert_eq!(encoded::<C>(&resumed), encoded::<C>(&full));
        drop(ck);
        match BatchCheckpoint::resume(&dir, perturbed) {
            Err(CheckpointError::ConfigMismatch { expected, found }) => {
                assert_ne!(expected, found);
            }
            other => panic!("expected ConfigMismatch, got {other:?}"),
        }
        dir
    }

    #[test]
    fn checkpoint_store_round_trips_and_rejects_mismatched_config() {
        let cfg = faulty_batch(2);
        let perturbed =
            BatchConfig { rate_jitter_frac: cfg.rate_jitter_frac + 0.01, ..cfg.clone() };
        let dir = store_round_trips_and_rejects_mismatches(&cfg, &perturbed, "store");
        assert!(
            matches!(
                BatchCheckpoint::resume(&dir, &net_faulty_batch(2)),
                Err(CheckpointError::ConfigMismatch { .. })
            ),
            "net batches must not resume a sim-batch directory"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_manifest_line_and_corrupt_shard_only_rerun_seeds() {
        let dir = scratch("torn");
        let cfg = faulty_batch(3);
        let ck = BatchCheckpoint::create(&dir, &cfg).expect("create");
        let report = run_batch(&cfg);
        for (&seed, outcome) in report.seeds.iter().zip(&report.outcomes) {
            ck.record(seed, outcome).expect("record");
        }
        drop(ck);
        // Corrupt seed 1's shard and tear the final manifest line the
        // way a SIGKILL mid-append would.
        fs::write(dir.join(shard_name(1)), "garbage\n").expect("corrupt shard");
        let path = dir.join(MANIFEST_FILE);
        let text = fs::read_to_string(&path).expect("read manifest");
        fs::write(&path, &text[..text.len() - 3]).expect("tear manifest");
        let ck = BatchCheckpoint::resume(&dir, &cfg).expect("resume");
        assert_eq!(ck.restored_seeds(), vec![0], "seeds 1 (corrupt) and 2 (torn) must re-run");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn replay_spec_round_trips_through_a_postmortem_dump() {
        let cfg = faulty_batch(2);
        let seeded = crate::batch::seeded_config(&cfg, 1);
        let mut text = schema_header();
        text.push('\n');
        text.push_str(r#"{"type":"postmortem","seed":1,"cause":"seed 1: intentional panic (panic_seeds)","open_spans":1,"events":4}"#);
        text.push('\n');
        encode_replay_context(1, Some(256), None, &seeded, &mut text);
        let spec = replay_spec_from_postmortem(&text).expect("parse");
        assert_eq!(spec.seed, 1);
        assert_eq!(spec.cause, "seed 1: intentional panic (panic_seeds)");
        assert_eq!(spec.config, seeded);
        assert_eq!(spec.panic_after, Some(256));
        assert_eq!(spec.max_events, None);
    }

    fn net_faulty_batch(n: u64) -> NetBatchConfig {
        let spec = crate::topo::TopoSpec::leaf_spine(2, 1, 3);
        let traffic = crate::topo::Traffic::Incast { senders: 3, dst: usize::MAX, load: 2.0 };
        let mut base = crate::topo::compile(&spec, &traffic, 0.004).expect("compile");
        base.faults.seed = 11;
        base.faults.feedback_loss = 0.2;
        NetBatchConfig { level: TelemetryLevel::Summary, ..NetBatchConfig::quick(base, n) }
    }

    #[test]
    fn net_checkpoint_resumes_bit_exactly_and_rejects_mismatches() {
        let cfg = net_faulty_batch(3);
        let perturbed =
            NetBatchConfig { rate_jitter_frac: cfg.rate_jitter_frac + 0.01, ..cfg.clone() };
        let dir = store_round_trips_and_rejects_mismatches(&cfg, &perturbed, "net-store");
        assert!(
            matches!(
                BatchCheckpoint::resume(&dir, &faulty_batch(3)),
                Err(CheckpointError::ConfigMismatch { .. })
            ),
            "sim batches must not resume a net-batch directory"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn replay_spec_rejects_dumps_without_embedded_config() {
        let mut text = schema_header();
        text.push('\n');
        text.push_str(r#"{"type":"postmortem","seed":1,"cause":"boom","open_spans":0,"events":0}"#);
        text.push('\n');
        let err = replay_spec_from_postmortem(&text).unwrap_err();
        assert!(matches!(err, CheckpointError::Format(m) if m.contains("replay")));
    }

    #[test]
    fn packed_arrays_preserve_every_bit_pattern() {
        let vals = [
            f64::from_bits(0x7ff8_0000_dead_beef), // quiet NaN with a payload
            f64::from_bits(0xfff0_0000_0000_0001), // negative signalling NaN
            0.0,
            -0.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::from_bits(1), // smallest subnormal
            f64::MAX,
            f64::MIN_POSITIVE,
            -1.5e-300,
        ];
        let mut packed = String::new();
        push_f64_bits(&mut packed, &vals);
        assert_eq!(packed.len(), vals.len() * 17 - 1);
        assert!(packed.starts_with("7ff80000deadbeef,fff0000000000001,0000000000000000,"));
        let back = parse_f64_bits(&packed, "test").expect("decode");
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&back), bits(&vals));
        assert!(parse_f64_bits("", "test").expect("empty").is_empty());
        for bad in [
            "1.5",                                // a decimal float, not bits
            "7ff80000deadbee",                    // one digit short
            "7ff80000deadbeef0",                  // one digit long
            "7FF80000DEADBEEF",                   // uppercase
            "7ff80000deadbeeg",                   // non-hex byte
            "7ff80000deadbeef;0000000000000000",  // wrong separator
            "7ff80000deadbeef,",                  // dangling separator
            "7ff80000deadbeef,,000000000000000",  // empty field
            "0000000000000000,0000000000000000,", // dangling separator
        ] {
            assert!(
                matches!(parse_f64_bits(bad, "test"), Err(CheckpointError::Format(_))),
                "`{bad}` must be rejected"
            );
        }
    }

    /// One completed seed of a 16-flow incast on the full 4000-mark
    /// record grid.
    fn incast_outcome() -> (u64, SeedOutcome) {
        let mut params = crate::sim::fluid_validation_params();
        params.n_flows = 16;
        let mut base = SimConfig::from_fluid(&params, 8_000.0, Duration::from_secs(2e-6), 0.01);
        base.flows = crate::workload::incast(16, base.capacity / 4.0, 300.0 * base.frame_bits);
        let cfg = BatchConfig { level: TelemetryLevel::Off, ..BatchConfig::quick(base, 1) };
        let report = run_batch(&cfg);
        let outcome = report.outcomes.into_iter().next().expect("one seed");
        assert!(matches!(outcome, SeedOutcome::Completed(_)));
        (report.seeds[0], outcome)
    }

    fn completed(outcome: &SeedOutcome) -> &SimReport {
        match outcome {
            SeedOutcome::Completed(r) => r,
            other => panic!("expected a completed outcome, got {other:?}"),
        }
    }

    #[test]
    fn incast_shard_round_trips_byte_exactly_with_one_time_grid() {
        let (seed, outcome) = incast_outcome();
        let report = completed(&outcome);
        assert_eq!(report.metrics.per_source_rate.len(), 16);
        assert!(report.metrics.queue.len() >= 4000, "{} marks", report.metrics.queue.len());
        let mut text = String::new();
        encode_seed_outcome(seed, &outcome, &mut text);
        assert_eq!(text.lines().filter(|l| l.contains(r#""type":"series_bits""#)).count(), 18);
        assert_eq!(text.matches(r#""times":"#).count(), 1, "the grid is written once");
        let mut lines = text.lines();
        let (dseed, decoded) = decode_seed_outcome(&mut lines).expect("decode");
        assert_eq!(lines.next(), None);
        assert_eq!((dseed, completed(&decoded)), (seed, report));
        let mut re = String::new();
        encode_seed_outcome(dseed, &decoded, &mut re);
        assert_eq!(re, text, "round trip not byte-exact");
    }

    #[test]
    fn series_off_the_shared_grid_keep_their_own_times() {
        let (seed, mut outcome) = incast_outcome();
        let SeedOutcome::Completed(report) = &mut outcome else { unreachable!() };
        let rate = &mut report.metrics.per_source_rate[3];
        let mut shifted = TimeSeries::new();
        for (&t, &v) in rate.times().iter().zip(rate.values()) {
            shifted.push_secs(t + 1e-9, v);
        }
        *rate = shifted;
        let mut text = String::new();
        encode_seed_outcome(seed, &outcome, &mut text);
        assert_eq!(text.matches(r#""times":"#).count(), 2);
        let (_, decoded) = decode_seed_outcome(&mut text.lines()).expect("decode");
        assert_eq!(completed(&decoded), completed(&outcome));
        let mut re = String::new();
        encode_seed_outcome(seed, &decoded, &mut re);
        assert_eq!(re, text);
    }

    /// A completed seed-1 shard as the decimal-float codec wrote it: the
    /// grid repeated per series, `{:?}` floats, old record names.
    const DECIMAL_SHARD: &str = concat!(
        r#"{"type":"seed","seed_hi":0,"seed_lo":1,"outcome":"completed","retries":0,"events":0,"has_telemetry":false,"cause":""}"#,
        "\n",
        r#"{"type":"sim_counters","delivered_frames":2,"dropped_frames":0,"feedback_messages":0,"pause_events":0,"delivered_bits":16000.0,"sources":1}"#,
        "\n",
        r#"{"type":"fault_counts","feedback_dropped":0,"feedback_corrupted":0,"feedback_corrupt_lost":0,"feedback_delayed":0,"feedback_reordered":0,"data_frames_lost":0,"link_flap_deferrals":0,"pause_storms":0}"#,
        "\n",
        r#"{"type":"samples","name":"final_rates","values":"1000000000.0"}"#,
        "\n",
        r#"{"type":"samples","name":"per_source_bits","values":"16000.0"}"#,
        "\n",
        r#"{"type":"samples","name":"queueing_delay","values":""}"#,
        "\n",
        r#"{"type":"sim_series","name":"queue","times":"0.0,0.000125","values":"0.0,8000.0"}"#,
        "\n",
        r#"{"type":"sim_series","name":"aggregate_rate","times":"0.0,0.000125","values":"1000000000.0,1000000000.0"}"#,
        "\n",
        r#"{"type":"sim_series","name":"rate","entity":0,"times":"0.0,0.000125","values":"1000000000.0,1000000000.0"}"#,
        "\n",
    );

    #[test]
    fn decimal_float_shards_are_rejected_and_their_seeds_rerun() {
        let err = decode_seed_outcome(&mut DECIMAL_SHARD.lines()).unwrap_err();
        assert!(matches!(&err, CheckpointError::Format(m) if m.contains("samples")), "{err}");

        let dir = scratch("decimal");
        let cfg = faulty_batch(2);
        let ck = BatchCheckpoint::create(&dir, &cfg).expect("create");
        let report = run_batch(&cfg);
        ck.record(0, &report.outcomes[0]).expect("record seed 0");
        commit_shard(&dir, &ck.manifest, 1, |t| t.push_str(DECIMAL_SHARD)).expect("ack seed 1");
        drop(ck);
        let ck = BatchCheckpoint::resume(&dir, &cfg).expect("resume");
        assert_eq!(ck.restored_seeds(), vec![0], "the decimal-float shard must not restore");
        let resumed = run_batch_checkpointed(&cfg, &ck).expect("resumed run");
        assert_eq!(resumed.supervisor.resumed, 1);
        let fresh: Vec<_> = report.completed().collect();
        assert_eq!(resumed.completed().collect::<Vec<_>>(), fresh, "seed 1 re-ran identically");
        let _ = fs::remove_dir_all(&dir);
    }

    /// One way of damaging a journal file.
    #[derive(Debug, Clone, Copy)]
    enum Damage {
        /// Keep only the first `n` lines (a cut at a line boundary).
        KeepLines(usize),
        /// Cut at byte offset `h % len`.
        Cut(u64),
        /// XOR the byte at `h % len` with a non-zero mask.
        Flip(u64, u8),
        /// Swap two lines picked from `h`.
        Swap(u64),
    }

    /// Truncation at every line boundary of an `n_lines`-line file, at
    /// 64 splitmix64-chosen byte offsets, 64 single-byte flips, and 32
    /// line swaps.
    fn damages(n_lines: usize, salt: u64) -> Vec<Damage> {
        let draw = |k: u64| splitmix64(salt ^ splitmix64(k));
        let mut all: Vec<Damage> = (0..=n_lines).map(Damage::KeepLines).collect();
        all.extend((0..64).map(|k| Damage::Cut(draw(k))));
        all.extend((64..128).map(|k| {
            let h = draw(k);
            Damage::Flip(h, (h >> 56) as u8 | 1)
        }));
        all.extend((128..160).map(|k| Damage::Swap(draw(k))));
        all
    }

    fn damage(text: &str, d: Damage) -> Vec<u8> {
        let bytes = text.as_bytes();
        match d {
            Damage::KeepLines(n) => {
                text.split_inclusive('\n').take(n).flat_map(str::bytes).collect()
            }
            Damage::Cut(h) => bytes[..(h % bytes.len() as u64) as usize].to_vec(),
            Damage::Flip(h, mask) => {
                let mut out = bytes.to_vec();
                out[(h % bytes.len() as u64) as usize] ^= mask;
                out
            }
            Damage::Swap(h) => {
                let mut lines: Vec<&str> = text.split_inclusive('\n').collect();
                let n = lines.len();
                let i = (h % n as u64) as usize;
                let j = ((h >> 32) % n as u64) as usize;
                lines.swap(i, if i == j { (i + 1) % n } else { j });
                lines.concat().into_bytes()
            }
        }
    }

    /// Decodes every damaged variant of `shard` as a kind-`C` outcome
    /// (which must return rather than panic) and returns how many
    /// decoded.
    fn decode_damaged<C: SeedBatch>(shard: &str, salt: u64) -> usize {
        let variants = damages(shard.lines().count(), salt);
        let ok = variants
            .iter()
            .filter(|&&d| {
                let text = String::from_utf8_lossy(&damage(shard, d)).into_owned();
                let mut lines = text.lines();
                lines.next().is_some() && decode_outcome::<C, _>(&mut lines).is_ok()
            })
            .count();
        assert!(ok >= 1 && ok < variants.len(), "{ok} of {} variants decoded", variants.len());
        ok
    }

    /// A completed, telemetry-carrying seed small enough to damage a
    /// few hundred ways.
    fn small_batch() -> BatchConfig {
        BatchConfig { level: TelemetryLevel::Summary, ..faulty_batch(1) }
    }

    fn shard_text(encode: impl FnOnce(&mut String)) -> String {
        let mut text = schema_header();
        text.push('\n');
        encode(&mut text);
        text
    }

    /// Resumes a 4-seed journal under every damage to its manifest: the
    /// resume fails with a typed error or restores only seeds whose
    /// `done` line survived intact.
    fn resume_under_manifest_damage() {
        let cfg = BatchConfig { seeds: (0..4).collect(), ..small_batch() };
        let dir = scratch("manifest-damage");
        let ck = BatchCheckpoint::create(&dir, &cfg).expect("create");
        run_batch_checkpointed(&cfg, &ck).expect("run");
        drop(ck);
        let path = dir.join(MANIFEST_FILE);
        let intact = fs::read_to_string(&path).expect("read manifest");
        let (mut refused, mut resumed) = (0, 0);
        for d in damages(intact.lines().count(), 4) {
            let bytes = damage(&intact, d);
            fs::write(&path, &bytes).expect("damage manifest");
            let text = String::from_utf8_lossy(&bytes);
            let acked = |seed: u64| {
                let ack = format!(r#"{{"type":"done","seed_hi":0,"seed_lo":{seed}}}"#);
                text.lines().any(|l| l == ack)
            };
            match BatchCheckpoint::resume(&dir, &cfg) {
                Ok(ck) => {
                    let restored = ck.restored_seeds();
                    assert!(restored.iter().all(|&s| acked(s)), "{d:?} restored {restored:?}");
                    resumed += 1;
                }
                Err(_) => refused += 1,
            }
        }
        assert!(refused > 0 && resumed > 0, "{refused} refused, {resumed} resumed");
        let _ = fs::remove_dir_all(&dir);
    }

    /// `shard` with its last two `series_bits` lines named `name`
    /// exchanged.
    fn swap_last_series(shard: &str, name: &str) -> String {
        let tag = format!(r#"{{"type":"series_bits","name":"{name}","#);
        let mut lines: Vec<&str> = shard.lines().collect();
        let at: Vec<usize> = (0..lines.len()).filter(|&i| lines[i].starts_with(&tag)).collect();
        assert!(at.len() >= 2, "{} `{name}` series", at.len());
        lines.swap(at[at.len() - 2], at[at.len() - 1]);
        lines.join("\n") + "\n"
    }

    #[test]
    fn decoders_never_panic_on_damaged_shards() {
        let report = run_batch(&small_batch());
        assert!(matches!(report.outcomes[0], SeedOutcome::Completed(_)));
        let sim = shard_text(|t| encode_seed_outcome(0, &report.outcomes[0], t));
        assert!(sim.contains(r#""type":"telemetry""#), "the shard carries a snapshot");
        decode_damaged::<BatchConfig>(&sim, 1);

        let net = run_batch(&net_faulty_batch(1));
        let net_shard = shard_text(|t| encode_outcome::<NetBatchConfig>(0, &net.outcomes[0], t));
        decode_damaged::<NetBatchConfig>(&net_shard, 2);

        // Two same-named series exchanged: each line is well formed, so
        // only the entity check stops the swap from decoding.
        let swapped = swap_last_series(&sim, "rate");
        let net_swapped = swap_last_series(&net_shard, "switch_queue");
        for err in [
            decode_seed_outcome(&mut swapped.lines().skip(1)).err(),
            decode_outcome::<NetBatchConfig, _>(&mut net_swapped.lines().skip(1)).err(),
        ] {
            assert!(
                matches!(&err, Some(CheckpointError::Format(m)) if m.contains("entity")),
                "{err:?}"
            );
        }

        // A count at the 2^53 limit must run out of lines, not size an
        // allocation.
        let huge = |text: &str, key: &str| {
            let at = text.find(key).expect("count field") + key.len();
            let end = at + text[at..].find(|c: char| !c.is_ascii_digit()).expect("digits end");
            format!("{}9007199254740992{}", &text[..at], &text[end..])
        };
        let sim = huge(&sim, r#""sources":"#);
        assert!(decode_seed_outcome(&mut sim.lines().skip(1)).is_err());
        let net_shard = huge(&net_shard, r#""switches":"#);
        assert!(decode_outcome::<NetBatchConfig, _>(&mut net_shard.lines().skip(1)).is_err());

        resume_under_manifest_damage();

        // A postmortem dump as `dcebcn batch` writes it.
        let dump = include_str!("../tests/fixtures/postmortem-3.jsonl");
        assert!(replay_spec_from_postmortem(dump).is_ok());
        let variants = damages(dump.lines().count(), 5);
        let parsed = variants
            .iter()
            .filter(|&&d| {
                replay_spec_from_postmortem(&String::from_utf8_lossy(&damage(dump, d))).is_ok()
            })
            .count();
        assert!(
            parsed >= 1 && parsed < variants.len(),
            "{parsed} of {} dumps parsed",
            variants.len()
        );
    }

    #[test]
    fn resume_restores_exactly_the_damaged_shards_that_decode() {
        let base = small_batch();
        let outcome = run_batch(&base).outcomes.remove(0);
        let intact = shard_text(|t| encode_seed_outcome(0, &outcome, t));
        let variants = damages(intact.lines().count(), 3);
        let cfg = BatchConfig { seeds: (0..variants.len() as u64).collect(), ..base };
        let dir = scratch("damaged");
        drop(BatchCheckpoint::create(&dir, &cfg).expect("create"));
        let mut acks = String::new();
        let mut want = Vec::new();
        for (seed, &d) in (0u64..).zip(&variants) {
            let bytes = damage(&shard_text(|t| encode_seed_outcome(seed, &outcome, t)), d);
            let decodes = std::str::from_utf8(&bytes)
                .ok()
                .and_then(|t| decode_shard::<BatchConfig>(t, seed))
                .is_some();
            if decodes {
                want.push(seed);
            }
            fs::write(dir.join(shard_name(seed)), &bytes).expect("write shard");
            let mut line = String::from(r#"{"type":"done""#);
            put_split_u64(&mut line, "seed", seed);
            acks.push_str(&line);
            acks.push_str("}\n");
        }
        let mut manifest =
            fs::OpenOptions::new().append(true).open(dir.join(MANIFEST_FILE)).expect("manifest");
        manifest.write_all(acks.as_bytes()).expect("append acks");
        drop(manifest);
        let ck = BatchCheckpoint::resume(&dir, &cfg).expect("resume");
        assert_eq!(ck.restored_seeds(), want);
        assert!(want.len() > 1 && want.len() < variants.len(), "{} restored", want.len());
        let _ = fs::remove_dir_all(&dir);
    }
}
