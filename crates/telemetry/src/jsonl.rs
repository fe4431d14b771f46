//! The flat-JSONL codec: trace events plus the one record reader.
//!
//! Each event becomes one flat JSON object per line, e.g.
//! `{"type":"region_switch","t":0.125,"from":0,"to":1}`. Floats are
//! written with Rust's `{:?}` formatting (shortest representation that
//! round-trips exactly); the extension tokens `NaN`, `inf`, and `-inf`
//! are accepted and produced for non-finite values so every event
//! round-trips bit-for-bit.
//!
//! [`Record`] reads every flat-JSONL line in the workspace: trace
//! events, telemetry snapshots, checkpoint shards and manifests,
//! postmortem replay blocks, stability queries and answers, and grid
//! journals. It walks a line once, testing delimiters and ASCII
//! whitespace byte by byte and skipping each key and string value to
//! its closing quote with `str::find` (so a checkpoint shard's ~100 KB
//! hex series goes by at `memchr` speed), and hands the fields back in
//! line order through [`Record::fields`] for decoders that resolve
//! their keys in one `match`. Encoders write numbers with [`fmt_num`]
//! or [`FmtNum`].

use crate::event::{Event, ExtremumKind, FaultClass, SpanKind};

/// Version of the trace file format.
///
/// Bumped whenever the set of event records or their fields changes
/// incompatibly. Version history: 1 = headerless traces (PR 1);
/// 2 = schema header record + causal span events (this version).
pub const TRACE_SCHEMA_VERSION: u32 = 2;

/// The header record written as the first line of every trace file,
/// e.g. `{"type":"schema","version":2}`.
#[must_use]
pub fn schema_header() -> String {
    format!(r#"{{"type":"schema","version":{TRACE_SCHEMA_VERSION}}}"#)
}

/// Validates a trace file's header line.
///
/// # Errors
///
/// Fails when `line` is not a schema record (headerless v1 files and
/// arbitrary JSONL both land here) or declares a version other than
/// [`TRACE_SCHEMA_VERSION`], so consumers reject stale trace files
/// instead of misparsing them.
pub fn check_schema_header(line: &str) -> Result<(), JsonlError> {
    let r = Record::parse(line)?;
    let ty = r.str("type")?;
    if ty != "schema" {
        return Err(JsonlError(format!(
            "first record is `{ty}`, not a schema header (stale or truncated trace file?)"
        )));
    }
    let version = r.u32("version")?;
    if version != TRACE_SCHEMA_VERSION {
        return Err(JsonlError(format!(
            "unsupported trace schema version {version} (this build reads {TRACE_SCHEMA_VERSION})"
        )));
    }
    Ok(())
}

/// Error produced when a JSONL line cannot be parsed back to an event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonlError(pub String);

impl std::fmt::Display for JsonlError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "jsonl parse error: {}", self.0)
    }
}

impl std::error::Error for JsonlError {}

/// Formats a number using this module's float conventions: Rust's `{:?}`
/// (shortest representation that round-trips exactly) plus the `NaN`,
/// `inf`, and `-inf` extension tokens for non-finite values.
///
/// Every flat-JSONL encoder in the workspace (trace events, snapshots,
/// checkpoint shards, stability queries) writes numbers with it or with
/// [`FmtNum`], so they all decode back bit-exactly through [`Record`].
#[must_use]
pub fn fmt_num(v: f64) -> String {
    FmtNum(v).to_string()
}

/// [`fmt_num`] as a `Display` adapter: `write!`/`format!` put the number
/// straight into the line being built, with no `String` of its own.
#[derive(Debug, Clone, Copy)]
pub struct FmtNum(pub f64);

impl std::fmt::Display for FmtNum {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let v = self.0;
        if v.is_nan() {
            f.write_str("NaN")
        } else if v == f64::INFINITY {
            f.write_str("inf")
        } else if v == f64::NEG_INFINITY {
            f.write_str("-inf")
        } else {
            write!(f, "{v:?}")
        }
    }
}

/// Parses one number token written by [`fmt_num`]: the `NaN`, `inf` and
/// `-inf` extension tokens, else a decimal float. `None` when `token`
/// is not a number.
pub(crate) fn parse_num(token: &str) -> Option<f64> {
    match token {
        "NaN" => Some(f64::NAN),
        "inf" => Some(f64::INFINITY),
        "-inf" => Some(f64::NEG_INFINITY),
        _ => parse_plain(token).or_else(|| token.parse().ok()),
    }
}

/// The powers of ten a double holds exactly: `10^0` to `10^22`.
const EXACT_POW10: [f64; 23] = [
    1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11, 1e12, 1e13, 1e14, 1e15, 1e16,
    1e17, 1e18, 1e19, 1e20, 1e21, 1e22,
];

/// A plain `-?d+(.d+)?` token of at most 15 significant digits, 22
/// fraction digits and 19 digits in all, by one IEEE division: its
/// digits form an integer below `10^15 < 2^53` and the power of ten is
/// exact, so the correctly rounded quotient is the correctly rounded
/// value core's parse returns. `None` for every other token.
fn parse_plain(token: &str) -> Option<f64> {
    let (negative, digits) = match token.as_bytes() {
        [b'-', rest @ ..] => (true, rest),
        all => (false, all),
    };
    // With at most 19 digits the integer cannot overflow a u64.
    if digits.len() > 19 {
        return None;
    }
    let mut mantissa = 0u64;
    let int = fold_digits(digits, &mut mantissa);
    let frac = match &digits[int..] {
        [] => 0,
        [b'.', rest @ ..] if !rest.is_empty() && fold_digits(rest, &mut mantissa) == rest.len() => {
            rest.len()
        }
        _ => return None,
    };
    if int == 0 || mantissa >= 1_000_000_000_000_000 || frac >= EXACT_POW10.len() {
        return None;
    }
    let v = mantissa as f64 / EXACT_POW10[frac];
    Some(if negative { -v } else { v })
}

/// Folds the leading ASCII digits of `bytes` into `mantissa` and returns
/// how many there were.
fn fold_digits(bytes: &[u8], mantissa: &mut u64) -> usize {
    let mut n = 0;
    for &b in bytes {
        let digit = b.wrapping_sub(b'0');
        if digit > 9 {
            break;
        }
        *mantissa = *mantissa * 10 + u64::from(digit);
        n += 1;
    }
    n
}

/// Serializes one event to a single JSONL line (no trailing newline).
#[must_use]
pub fn event_to_jsonl(e: &Event) -> String {
    let ty = e.type_name();
    match *e {
        Event::SolverStepAccepted { t, h, err } => format!(
            r#"{{"type":"{ty}","t":{},"h":{},"err":{}}}"#,
            fmt_num(t),
            fmt_num(h),
            fmt_num(err)
        ),
        Event::SolverStepRejected { t, h } => {
            format!(r#"{{"type":"{ty}","t":{},"h":{}}}"#, fmt_num(t), fmt_num(h))
        }
        Event::SwitchCrossingLocated { t, iterations } => {
            format!(r#"{{"type":"{ty}","t":{},"iterations":{iterations}}}"#, fmt_num(t))
        }
        Event::RegionSwitch { t, from, to } => {
            format!(r#"{{"type":"{ty}","t":{},"from":{from},"to":{to}}}"#, fmt_num(t))
        }
        Event::QueueThresholdCrossed { t, q, threshold, rising } => format!(
            r#"{{"type":"{ty}","t":{},"q":{},"threshold":{},"rising":{rising}}}"#,
            fmt_num(t),
            fmt_num(q),
            fmt_num(threshold)
        ),
        Event::QueueExtremum { t, q, kind } => format!(
            r#"{{"type":"{ty}","t":{},"q":{},"kind":"{}"}}"#,
            fmt_num(t),
            fmt_num(q),
            match kind {
                ExtremumKind::Max => "max",
                ExtremumKind::Min => "min",
            }
        ),
        Event::BcnMessageEmitted { t, fb, source } | Event::QcnMessageEmitted { t, fb, source } => {
            format!(
                r#"{{"type":"{ty}","t":{},"fb":{},"source":{source}}}"#,
                fmt_num(t),
                fmt_num(fb)
            )
        }
        Event::PauseAsserted { t, port }
        | Event::PauseDeasserted { t, port }
        | Event::FrameDropped { t, port } => {
            format!(r#"{{"type":"{ty}","t":{},"port":{port}}}"#, fmt_num(t))
        }
        Event::FaultInjected { t, class, target } => format!(
            r#"{{"type":"{ty}","t":{},"class":"{}","target":{target}}}"#,
            fmt_num(t),
            class.name()
        ),
        Event::SpanBegin { t, id, parent, kind, entity } => format!(
            r#"{{"type":"{ty}","t":{},"id":{id},"parent":{parent},"kind":"{}","entity":{entity}}}"#,
            fmt_num(t),
            kind.name()
        ),
        Event::SpanEnd { t, id } => {
            format!(r#"{{"type":"{ty}","t":{},"id":{id}}}"#, fmt_num(t))
        }
    }
}

/// One JSON scalar of a flat object line, borrowed from the line.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Scalar<'a> {
    /// A number (including the `NaN`/`inf`/`-inf` extension tokens).
    Num(f64),
    /// A string without escapes.
    Str(&'a str),
    /// A `true`/`false` literal.
    Bool(bool),
}

impl<'a> Scalar<'a> {
    /// The scalar as a float; `key` names the field in errors.
    ///
    /// # Errors
    ///
    /// Fails when the scalar is not a number.
    #[inline]
    pub fn as_f64(self, key: &str) -> Result<f64, JsonlError> {
        match self {
            Scalar::Num(v) => Ok(v),
            _ => Err(JsonlError(format!("field `{key}` is not a number"))),
        }
    }

    /// The scalar as a `u32`; `key` names the field in errors.
    ///
    /// # Errors
    ///
    /// Fails when the scalar is not an integer in `u32` range.
    #[inline]
    pub fn as_u32(self, key: &str) -> Result<u32, JsonlError> {
        let v = self.as_f64(key)?;
        if v.fract() == 0.0 && (0.0..=f64::from(u32::MAX)).contains(&v) {
            Ok(v as u32)
        } else {
            Err(JsonlError(format!("field `{key}` is not a u32: {v}")))
        }
    }

    /// The scalar as a `u64`; `key` names the field in errors.
    ///
    /// # Errors
    ///
    /// Fails when the scalar is not an integer, is negative, or exceeds
    /// 2^53 (the largest range in which every integer survives the f64
    /// funnel numbers are parsed through).
    #[inline]
    pub fn as_u64(self, key: &str) -> Result<u64, JsonlError> {
        let v = self.as_f64(key)?;
        if v.fract() == 0.0 && (0.0..=9_007_199_254_740_992.0).contains(&v) {
            Ok(v as u64)
        } else {
            Err(JsonlError(format!("field `{key}` is not a u64 below 2^53: {v}")))
        }
    }

    /// The scalar as a bool; `key` names the field in errors.
    ///
    /// # Errors
    ///
    /// Fails when the scalar is not a boolean.
    #[inline]
    pub fn as_bool(self, key: &str) -> Result<bool, JsonlError> {
        match self {
            Scalar::Bool(b) => Ok(b),
            _ => Err(JsonlError(format!("field `{key}` is not a bool"))),
        }
    }

    /// The scalar as a string slice of the line; `key` names the field
    /// in errors.
    ///
    /// # Errors
    ///
    /// Fails when the scalar is not a string.
    #[inline]
    pub fn as_str(self, key: &str) -> Result<&'a str, JsonlError> {
        match self {
            Scalar::Str(s) => Ok(s),
            _ => Err(JsonlError(format!("field `{key}` is not a string"))),
        }
    }
}

/// One parsed flat-JSONL record: the workspace's only reader for the
/// flat objects its encoders write (one level of `"key": scalar` pairs,
/// scalars being numbers with the `NaN`/`inf`/`-inf` extensions,
/// escape-free strings, or booleans).
///
/// Keys and string values borrow from the line, so a record costs one
/// small vector however long its string values are. [`Record::parse`]
/// walks the line once, and [`Record::fields`] hands the fields back in
/// line order, duplicates included, so a decoder that knows its keys
/// can resolve each one with a single `match`. The typed getters name
/// the key once and carry the codec's rules: the first occurrence of a
/// key wins, integers must be exact, `u64`s stop at 2^53, and a missing
/// key is an error naming it.
#[derive(Debug, Clone, PartialEq)]
pub struct Record<'a> {
    fields: Vec<(&'a str, Scalar<'a>)>,
}

/// Whether `c` is an ASCII byte `char::is_whitespace` accepts: space
/// and `\t` through `\r`, vertical tab included (unlike
/// `u8::is_ascii_whitespace`).
#[inline]
fn is_ascii_ws(c: u8) -> bool {
    c == b' ' || (b'\t'..=b'\r').contains(&c)
}

/// The index of the first non-whitespace character of `s` at or after
/// `i` (a char boundary), by `str::trim_start`'s rules. ASCII bytes are
/// tested one by one; a non-ASCII byte hands the rest of the run to
/// `trim_start`, which knows U+00A0, U+2003 and the other Unicode
/// spaces.
#[inline]
fn skip_ws(s: &str, mut i: usize) -> usize {
    let b = s.as_bytes();
    while let Some(&c) = b.get(i) {
        if is_ascii_ws(c) {
            i += 1;
        } else if c.is_ascii() {
            break;
        } else {
            return s.len() - s[i..].trim_start().len();
        }
    }
    i
}

/// The length of `s.trim_end()`, by the same byte test as [`skip_ws`].
#[inline]
fn trimmed_len(s: &str) -> usize {
    let b = s.as_bytes();
    let mut j = b.len();
    while j > 0 {
        let c = b[j - 1];
        if is_ascii_ws(c) {
            j -= 1;
        } else if c.is_ascii() {
            break;
        } else {
            return s[..j].trim_end().len();
        }
    }
    j
}

impl<'a> Record<'a> {
    /// Parses one line in a single walk.
    ///
    /// Delimiters and ASCII whitespace are tested byte by byte; keys and
    /// string values end at the next `"`, found with `str::find`, so a
    /// long value (a checkpoint shard's hex series) is skipped by
    /// `memchr` rather than stepped through. Whitespace is exactly
    /// `str::trim`'s, and slices are cut only at ASCII delimiters, so any
    /// line, however damaged, parses or fails without panicking.
    ///
    /// # Errors
    ///
    /// Fails when the line is not a flat JSON object of scalar fields.
    pub fn parse(line: &'a str) -> Result<Self, JsonlError> {
        let open = skip_ws(line, 0);
        let close = trimmed_len(line);
        let b = line.as_bytes();
        if close < open + 2 || b[open] != b'{' || b[close - 1] != b'}' {
            return Err(JsonlError("line is not a JSON object".into()));
        }
        let inner = &line[open + 1..close - 1];
        let s = &inner[..trimmed_len(inner)];
        let b = s.as_bytes();
        // Sized for the widest record the workspace writes (a query), so
        // a line costs one allocation.
        let mut fields = Vec::with_capacity(16);
        let mut i = skip_ws(s, 0);
        while i < b.len() {
            if b[i] != b'"' {
                return Err(JsonlError(format!("expected quoted key at `{}`", &s[i..])));
            }
            let k0 = i + 1;
            let k1 = k0 + s[k0..].find('"').ok_or_else(|| JsonlError("unterminated key".into()))?;
            let key = &s[k0..k1];
            i = skip_ws(s, k1 + 1);
            if b.get(i) != Some(&b':') {
                return Err(JsonlError(format!("expected `:` after key `{key}`")));
            }
            i = skip_ws(s, i + 1);
            let value = if b.get(i) == Some(&b'"') {
                let v0 = i + 1;
                let v1 = v0
                    + s[v0..]
                        .find('"')
                        .ok_or_else(|| JsonlError("unterminated string value".into()))?;
                i = v1 + 1;
                Scalar::Str(&s[v0..v1])
            } else {
                let end = b[i..].iter().position(|&c| c == b',').map_or(b.len(), |n| i + n);
                let raw = &s[i..end];
                let token = &raw[..trimmed_len(raw)];
                i = end;
                match token {
                    "true" => Scalar::Bool(true),
                    "false" => Scalar::Bool(false),
                    _ => Scalar::Num(parse_num(token).ok_or_else(|| {
                        JsonlError(format!("bad scalar `{token}` for key `{key}`"))
                    })?),
                }
            };
            fields.push((key, value));
            i = skip_ws(s, i);
            if b.get(i) == Some(&b',') {
                i = skip_ws(s, i + 1);
            } else if i < b.len() {
                return Err(JsonlError(format!("unexpected trailing content `{}`", &s[i..])));
            }
        }
        Ok(Self { fields })
    }

    /// The record's fields in line order, duplicates included.
    #[must_use]
    #[inline]
    pub fn fields(&self) -> &[(&'a str, Scalar<'a>)] {
        &self.fields
    }

    /// The value of `key`, or `None` when the record lacks it.
    #[must_use]
    #[inline]
    pub fn get(&self, key: &str) -> Option<Scalar<'a>> {
        self.fields.iter().find(|(k, _)| *k == key).map(|&(_, v)| v)
    }

    /// The record's keys, in line order.
    pub fn keys(&self) -> impl Iterator<Item = &'a str> + '_ {
        self.fields.iter().map(|&(k, _)| k)
    }

    #[inline]
    fn field(&self, key: &str) -> Result<Scalar<'a>, JsonlError> {
        self.get(key).ok_or_else(|| JsonlError(format!("missing field `{key}`")))
    }

    /// The number at `key`.
    ///
    /// # Errors
    ///
    /// Fails when `key` is missing or not a number.
    #[inline]
    pub fn f64(&self, key: &str) -> Result<f64, JsonlError> {
        self.field(key)?.as_f64(key)
    }

    /// The exact non-negative integer at `key`, at most 2^53.
    ///
    /// # Errors
    ///
    /// Fails when `key` is missing or not such an integer.
    #[inline]
    pub fn u64(&self, key: &str) -> Result<u64, JsonlError> {
        self.field(key)?.as_u64(key)
    }

    /// The exact integer in `u32` range at `key`.
    ///
    /// # Errors
    ///
    /// Fails when `key` is missing or not such an integer.
    #[inline]
    pub fn u32(&self, key: &str) -> Result<u32, JsonlError> {
        self.field(key)?.as_u32(key)
    }

    /// The boolean at `key`.
    ///
    /// # Errors
    ///
    /// Fails when `key` is missing or not a boolean.
    #[inline]
    pub fn bool(&self, key: &str) -> Result<bool, JsonlError> {
        self.field(key)?.as_bool(key)
    }

    /// The string at `key`, borrowed from the line.
    ///
    /// # Errors
    ///
    /// Fails when `key` is missing or not a string.
    #[inline]
    pub fn str(&self, key: &str) -> Result<&'a str, JsonlError> {
        self.field(key)?.as_str(key)
    }

    /// Checks that the record's `type` is `want`.
    ///
    /// # Errors
    ///
    /// Fails when `type` is missing, not a string, or another type.
    pub fn expect_type(&self, want: &str) -> Result<(), JsonlError> {
        let ty = self.str("type")?;
        if ty == want {
            Ok(())
        } else {
            Err(JsonlError(format!("expected `{want}` record, found `{ty}`")))
        }
    }
}

/// Reads the next line of a multi-record document (a checkpoint shard,
/// a telemetry snapshot) as a record of type `ty`.
///
/// # Errors
///
/// Fails when `lines` is exhausted, the line does not parse, or the
/// record is of another type.
pub fn next_record<'a, I: Iterator<Item = &'a str>>(
    lines: &mut I,
    ty: &str,
) -> Result<Record<'a>, JsonlError> {
    let line =
        lines.next().ok_or_else(|| JsonlError(format!("truncated: expected `{ty}` record")))?;
    let r = Record::parse(line)?;
    r.expect_type(ty)?;
    Ok(r)
}

/// Parses one JSONL line back into an [`Event`].
///
/// # Errors
///
/// Fails on a malformed line, an unknown event type or kind, or a
/// missing or mistyped field.
pub fn event_from_jsonl(line: &str) -> Result<Event, JsonlError> {
    let r = Record::parse(line)?;
    let ty = r.str("type")?;
    let t = r.f64("t")?;
    match ty {
        "solver_step_accepted" => {
            Ok(Event::SolverStepAccepted { t, h: r.f64("h")?, err: r.f64("err")? })
        }
        "solver_step_rejected" => Ok(Event::SolverStepRejected { t, h: r.f64("h")? }),
        "switch_crossing_located" => {
            Ok(Event::SwitchCrossingLocated { t, iterations: r.u32("iterations")? })
        }
        "region_switch" => Ok(Event::RegionSwitch { t, from: r.u32("from")?, to: r.u32("to")? }),
        "queue_threshold_crossed" => Ok(Event::QueueThresholdCrossed {
            t,
            q: r.f64("q")?,
            threshold: r.f64("threshold")?,
            rising: r.bool("rising")?,
        }),
        "queue_extremum" => Ok(Event::QueueExtremum {
            t,
            q: r.f64("q")?,
            kind: match r.str("kind")? {
                "max" => ExtremumKind::Max,
                "min" => ExtremumKind::Min,
                other => return Err(JsonlError(format!("unknown extremum kind `{other}`"))),
            },
        }),
        "bcn_message_emitted" => {
            Ok(Event::BcnMessageEmitted { t, fb: r.f64("fb")?, source: r.u32("source")? })
        }
        "qcn_message_emitted" => {
            Ok(Event::QcnMessageEmitted { t, fb: r.f64("fb")?, source: r.u32("source")? })
        }
        "pause_asserted" => Ok(Event::PauseAsserted { t, port: r.u32("port")? }),
        "pause_deasserted" => Ok(Event::PauseDeasserted { t, port: r.u32("port")? }),
        "frame_dropped" => Ok(Event::FrameDropped { t, port: r.u32("port")? }),
        "fault_injected" => {
            let name = r.str("class")?;
            let class = FaultClass::from_name(name)
                .ok_or_else(|| JsonlError(format!("unknown fault class `{name}`")))?;
            Ok(Event::FaultInjected { t, class, target: r.u32("target")? })
        }
        "span_begin" => {
            let name = r.str("kind")?;
            let kind = SpanKind::from_name(name)
                .ok_or_else(|| JsonlError(format!("unknown span kind `{name}`")))?;
            Ok(Event::SpanBegin {
                t,
                id: r.u64("id")?,
                parent: r.u64("parent")?,
                kind,
                entity: r.u32("entity")?,
            })
        }
        "span_end" => Ok(Event::SpanEnd { t, id: r.u64("id")? }),
        other => Err(JsonlError(format!("unknown event type `{other}`"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fmt_num_adapter_writes_the_same_bytes() {
        // The tokens `fmt_num` wrote before it wrapped `FmtNum`.
        let oracle = |v: f64| {
            if v.is_nan() {
                "NaN".to_string()
            } else if v == f64::INFINITY {
                "inf".to_string()
            } else if v == f64::NEG_INFINITY {
                "-inf".to_string()
            } else {
                format!("{v:?}")
            }
        };
        let mut special = vec![
            0.0,
            -0.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            -f64::NAN,
            f64::from_bits(0x7ff0_0000_0000_0001), // signalling NaN payload
            f64::from_bits(0xfff8_dead_beef_0001),
            f64::from_bits(1),
            -f64::from_bits(1),
            f64::MIN_POSITIVE,
            f64::MIN_POSITIVE.next_down(),
            f64::MAX,
            f64::MIN,
            1e16,
            1e-7,
        ];
        let mut state = 0x0f4e_17a5_u64;
        special.extend((0..100_000).map(|_| {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            f64::from_bits(z ^ (z >> 31))
        }));
        for v in special {
            let want = oracle(v);
            assert_eq!(FmtNum(v).to_string(), want, "bits {:#x}", v.to_bits());
            assert_eq!(format!("[{}]", FmtNum(v)), format!("[{want}]"), "bits {:#x}", v.to_bits());
            assert_eq!(fmt_num(v), want, "bits {:#x}", v.to_bits());
        }
    }

    #[test]
    fn every_variant_round_trips() {
        let events = [
            Event::SolverStepAccepted { t: 0.125, h: 1e-3, err: 0.42 },
            Event::SolverStepRejected { t: 0.25, h: 0.5 },
            Event::SwitchCrossingLocated { t: 1.0 / 3.0, iterations: 17 },
            Event::RegionSwitch { t: 2.0, from: 0, to: 1 },
            Event::QueueThresholdCrossed { t: 3.5, q: 1.2e6, threshold: 1e6, rising: true },
            Event::QueueExtremum { t: 4.0, q: 0.0, kind: ExtremumKind::Min },
            Event::QueueExtremum { t: 4.5, q: 2.5e6, kind: ExtremumKind::Max },
            Event::BcnMessageEmitted { t: 5.0, fb: -123.75, source: 7 },
            Event::QcnMessageEmitted { t: 6.0, fb: 64.0, source: 0 },
            Event::PauseAsserted { t: 7.0, port: 2 },
            Event::PauseDeasserted { t: 7.5, port: 2 },
            Event::FrameDropped { t: 8.0, port: u32::MAX },
            Event::FaultInjected { t: 9.0, class: FaultClass::FeedbackCorrupt, target: 3 },
            Event::FaultInjected { t: 9.5, class: FaultClass::PauseStorm, target: 0 },
            Event::SpanBegin {
                t: 10.0,
                id: (17u64 + 1) << 32,
                parent: 0,
                kind: SpanKind::BatchSeed,
                entity: 17,
            },
            Event::SpanBegin {
                t: 10.5,
                id: ((17u64 + 1) << 32) + 2,
                parent: (17u64 + 1) << 32,
                kind: SpanKind::PauseEpisode,
                entity: 5,
            },
            Event::SpanEnd { t: 11.0, id: ((17u64 + 1) << 32) + 2 },
        ];
        for e in events {
            let line = event_to_jsonl(&e);
            let back = event_from_jsonl(&line).unwrap_or_else(|err| panic!("{line}: {err}"));
            assert_eq!(back, e, "line: {line}");
        }
    }

    #[test]
    fn non_finite_floats_round_trip() {
        let e = Event::SolverStepAccepted { t: 1.0, h: 0.1, err: f64::NAN };
        let line = event_to_jsonl(&e);
        match event_from_jsonl(&line).unwrap() {
            Event::SolverStepAccepted { err, .. } => assert!(err.is_nan()),
            other => panic!("wrong variant {other:?}"),
        }
        let e = Event::SolverStepAccepted { t: 1.0, h: f64::INFINITY, err: f64::NEG_INFINITY };
        let line = event_to_jsonl(&e);
        match event_from_jsonl(&line).unwrap() {
            Event::SolverStepAccepted { h, err, .. } => {
                assert_eq!(h, f64::INFINITY);
                assert_eq!(err, f64::NEG_INFINITY);
            }
            other => panic!("wrong variant {other:?}"),
        }
    }

    #[test]
    fn malformed_lines_are_rejected() {
        for bad in [
            "",
            "not json",
            "{}",
            r#"{"type":"region_switch"}"#,
            r#"{"type":"no_such_event","t":1.0}"#,
            r#"{"type":"frame_dropped","t":1.0,"port":-1}"#,
            r#"{"type":"frame_dropped","t":1.0,"port":1.5}"#,
            r#"{"type":"fault_injected","t":1.0,"class":"no_such_fault","target":0}"#,
            r#"{"type":"span_begin","t":1.0,"id":1,"parent":0,"kind":"no_such_span","entity":0}"#,
            r#"{"type":"span_end","t":1.0,"id":-1}"#,
            r#"{"type":"span_end","t":1.0,"id":1e16}"#,
        ] {
            assert!(event_from_jsonl(bad).is_err(), "accepted: {bad}");
        }
    }

    #[test]
    fn record_reader_handles_every_edge_case() {
        type Check = fn(&Record<'_>) -> Result<(), JsonlError>;
        // Lines the reader itself must refuse.
        for bad in [
            "",
            "[1]",
            r#"{"a" 1}"#,            // missing `:`
            r#"{"a:1}"#,             // unterminated key
            r#"{"a":"xyz}"#,         // unterminated string
            r#"{"a":"x"y}"#,         // trailing content after a string
            r#"{"a":nope}"#,         // neither number, string nor bool
            r#"{a:1}"#,              // unquoted key
            r#"{"a":1,"b":2} tail"#, // content after the object
        ] {
            assert!(Record::parse(bad).is_err(), "accepted: {bad}");
        }
        // Lines that parse, and what each getter makes of them.
        let cases: [(&str, Check, bool); 14] = [
            (r#"{"x":NaN}"#, |r| r.f64("x").map(|v| assert!(v.is_nan())), true),
            (r#"{"x":inf}"#, |r| r.f64("x").map(|v| assert_eq!(v, f64::INFINITY)), true),
            (r#"{"x":-inf}"#, |r| r.f64("x").map(|v| assert_eq!(v, f64::NEG_INFINITY)), true),
            (r#"{"n":9007199254740992}"#, |r| r.u64("n").map(|v| assert_eq!(v, 1 << 53)), true),
            // The next integer the f64 funnel can hold above 2^53.
            (r#"{"n":9007199254740994}"#, |r| r.u64("n").map(drop), false),
            (r#"{"n":-1}"#, |r| r.u64("n").map(drop), false),
            (r#"{"n":1.5}"#, |r| r.u64("n").map(drop), false),
            (r#"{"n":NaN}"#, |r| r.u64("n").map(drop), false),
            (r#"{"p":4294967295}"#, |r| r.u32("p").map(|v| assert_eq!(v, u32::MAX)), true),
            (r#"{"p":4294967296}"#, |r| r.u32("p").map(drop), false),
            (r#"{"b":true,"s":"t"}"#, |r| r.bool("b").and(r.str("s")).map(drop), true),
            (r#"{"b":1}"#, |r| r.bool("b").map(drop), false),
            (r#"{"s":1}"#, |r| r.str("s").map(drop), false),
            (r#" { "s" : "a b" , "x" : 2 } "#, |r| r.str("s").map(|v| assert_eq!(v, "a b")), true),
        ];
        for (line, check, ok) in cases {
            let r = Record::parse(line).unwrap_or_else(|e| panic!("{line}: {e}"));
            assert_eq!(check(&r).is_ok(), ok, "{line}");
        }
        // A getter on a missing key names the key.
        let r = Record::parse(r#"{"type":"done","seed_hi":0}"#).unwrap();
        assert_eq!(r.get("seed_lo"), None);
        let err = r.u64("seed_lo").unwrap_err();
        assert!(err.0.contains("`seed_lo`"), "{err}");
        assert_eq!(r.keys().collect::<Vec<_>>(), ["type", "seed_hi"]);
        // `next_record` checks the type and reports truncation.
        let doc = [r#"{"type":"counter","value":1}"#];
        assert_eq!(next_record(&mut doc.into_iter(), "counter").unwrap().u64("value"), Ok(1));
        let err = next_record(&mut doc.into_iter(), "gauge").unwrap_err();
        assert!(err.0.contains("`gauge`") && err.0.contains("`counter`"), "{err}");
        assert!(next_record(&mut std::iter::empty(), "gauge").is_err());
    }

    #[test]
    fn record_reader_pins_duplicates_trailing_commas_whitespace_and_tokens() {
        // The first occurrence of a key wins; a later duplicate of
        // another type is kept in the field list but never read.
        let r = Record::parse(r#"{"a":1,"a":2,"b":true,"a":"x"}"#).unwrap();
        assert_eq!(r.f64("a"), Ok(1.0));
        assert_eq!(r.keys().collect::<Vec<_>>(), ["a", "a", "b", "a"]);
        // One trailing comma is accepted, an empty field is not.
        assert_eq!(Record::parse(r#"{"a":1,}"#).unwrap().f64("a"), Ok(1.0));
        assert_eq!(Record::parse("{\"a\":1,\u{A0}}").unwrap().f64("a"), Ok(1.0));
        for bad in [r#"{,}"#, r#"{"a":1,,}"#, r#"{"a":1,,"b":2}"#, r#"{"a":}"#, r#"{"a":,"b":1}"#] {
            assert!(Record::parse(bad).is_err(), "accepted: {bad}");
        }
        // Whitespace is `str::trim`'s: vertical tab (which
        // `u8::is_ascii_whitespace` misses), NBSP and EM SPACE included,
        // around every token; ZERO WIDTH SPACE is not whitespace.
        for ws in ["\x0B", "\u{A0}", "\u{2003}"] {
            let line = format!(
                "{ws}{{{ws}\"a\"{ws}:{ws}1.5{ws},{ws}\"s\"{ws}:{ws}\"x y\"{ws},{ws}\"b\":{ws}false{ws}}}{ws}"
            );
            let r = Record::parse(&line).unwrap_or_else(|e| panic!("{line:?}: {e}"));
            assert_eq!((r.f64("a"), r.str("s"), r.bool("b")), (Ok(1.5), Ok("x y"), Ok(false)));
        }
        assert!(Record::parse("{\"a\":1\u{200B}}").is_err());
        // Number tokens are core's float grammar plus the codec's tokens.
        for (token, want) in [
            ("+1", 1.0),
            (".5", 0.5),
            ("1.", 1.0),
            ("1e3", 1000.0),
            ("-0", -0.0),
            ("infinity", f64::INFINITY),
            ("+inf", f64::INFINITY),
            ("inf", f64::INFINITY),
            ("-inf", f64::NEG_INFINITY),
            ("NaN", f64::NAN),
            ("nan", f64::NAN),
        ] {
            let line = format!(r#"{{"x":{token}}}"#);
            let got = Record::parse(&line).and_then(|r| r.f64("x")).unwrap();
            assert_eq!(got.to_bits(), want.to_bits(), "{token}");
        }
        for bad in ["1e", ".", "0x10", "1_000", "True", "null", "1 2"] {
            let line = format!(r#"{{"x":{bad}}}"#);
            assert!(Record::parse(&line).is_err(), "accepted: {line}");
        }
    }

    /// The record reader as it stood before it scanned bytes (`str::trim`,
    /// `strip_prefix` and `find` over the whole line), kept as the oracle
    /// the differential test holds [`Record::parse`] to.
    fn oracle_parse(line: &str) -> Result<Vec<(&str, Scalar<'_>)>, JsonlError> {
        let inner = line
            .trim()
            .strip_prefix('{')
            .and_then(|s| s.strip_suffix('}'))
            .ok_or_else(|| JsonlError("line is not a JSON object".into()))?;
        let mut fields = Vec::new();
        let mut rest = inner.trim();
        while !rest.is_empty() {
            rest = rest
                .strip_prefix('"')
                .ok_or_else(|| JsonlError(format!("expected quoted key at `{rest}`")))?;
            let kq = rest.find('"').ok_or_else(|| JsonlError("unterminated key".into()))?;
            let key = &rest[..kq];
            rest = rest[kq + 1..]
                .trim_start()
                .strip_prefix(':')
                .ok_or_else(|| JsonlError(format!("expected `:` after key `{key}`")))?
                .trim_start();
            let (value, tail) = if let Some(r) = rest.strip_prefix('"') {
                let vq =
                    r.find('"').ok_or_else(|| JsonlError("unterminated string value".into()))?;
                (Scalar::Str(&r[..vq]), &r[vq + 1..])
            } else {
                let end = rest.find(',').unwrap_or(rest.len());
                let token = rest[..end].trim();
                let v = match token {
                    "true" => Scalar::Bool(true),
                    "false" => Scalar::Bool(false),
                    _ => Scalar::Num(parse_num(token).ok_or_else(|| {
                        JsonlError(format!("bad scalar `{token}` for key `{key}`"))
                    })?),
                };
                (v, &rest[end..])
            };
            fields.push((key, value));
            rest = tail.trim_start();
            if let Some(r) = rest.strip_prefix(',') {
                rest = r.trim_start();
            } else if !rest.is_empty() {
                return Err(JsonlError(format!("unexpected trailing content `{rest}`")));
            }
        }
        Ok(fields)
    }

    /// A seeded splitmix64 stream.
    struct Draw(u64);

    impl Draw {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = (self.0 ^ (self.0 >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }
    }

    /// What the mutator inserts: `char::is_whitespace` characters of
    /// every UTF-8 width, look-alikes that are not whitespace, and the
    /// delimiters themselves.
    const INSERTS: [&str; 20] = [
        " ",
        "\t",
        "\n",
        "\x0B",
        "\x0C",
        "\r",
        "\u{85}",
        "\u{A0}",
        "\u{1680}",
        "\u{2003}",
        "\u{2028}",
        "\u{3000}",
        "\u{200B}",
        "\u{FEFF}",
        "é",
        "\u{1F600}",
        ",",
        "\"",
        ":",
        "}",
    ];

    /// One random mutation of a flat-JSONL line: a byte flip (lossily
    /// re-decoded), an insertion at a char boundary (half of them next to
    /// a delimiter), or two fields swapped, or one duplicated (half the
    /// copies carrying another field's value).
    fn mutate(line: &str, d: &mut Draw) -> String {
        match d.below(4) {
            0 if !line.is_empty() => {
                let mut bytes = line.as_bytes().to_vec();
                let i = d.below(bytes.len());
                bytes[i] ^= d.next() as u8 | 1;
                String::from_utf8_lossy(&bytes).into_owned()
            }
            0 | 1 => {
                let delims: Vec<usize> = (0..line.len())
                    .filter(|&i| b"{}\":,".contains(&line.as_bytes()[i]))
                    .flat_map(|i| [i, i + 1])
                    .collect();
                let at = if !delims.is_empty() && d.next() & 1 == 0 {
                    delims[d.below(delims.len())]
                } else {
                    let bounds: Vec<usize> =
                        (0..=line.len()).filter(|&i| line.is_char_boundary(i)).collect();
                    bounds[d.below(bounds.len())]
                };
                let mut out = line.to_string();
                out.insert_str(at, INSERTS[d.below(INSERTS.len())]);
                out
            }
            op => {
                let Some(inner) = line.strip_prefix('{').and_then(|s| s.strip_suffix('}')) else {
                    return line.to_string();
                };
                let mut fields: Vec<String> = inner
                    .split(",\"")
                    .enumerate()
                    .map(|(i, f)| if i == 0 { f.to_string() } else { format!("\"{f}") })
                    .collect();
                let (i, j) = (d.below(fields.len()), d.below(fields.len()));
                if op == 2 {
                    fields.swap(i, j);
                } else {
                    let mut copy = fields[i].clone();
                    if d.next() & 1 == 0 {
                        if let (Some((k, _)), Some((_, v))) =
                            (fields[i].split_once(':'), fields[j].split_once(':'))
                        {
                            copy = format!("{k}:{v}");
                        }
                    }
                    fields.insert(d.below(fields.len() + 1), copy);
                }
                format!("{{{}}}", fields.join(","))
            }
        }
    }

    /// A parse result with numbers as bit patterns, so NaN payloads and
    /// signed zeros compare exactly.
    fn canonical(parsed: Result<Vec<(&str, Scalar<'_>)>, JsonlError>) -> Result<String, String> {
        let fields = parsed.map_err(|e| e.0)?;
        Ok(fields
            .iter()
            .map(|(k, v)| match v {
                Scalar::Num(x) => format!("{k}=n{:x};", x.to_bits()),
                Scalar::Str(s) => format!("{k}=s{s};"),
                Scalar::Bool(b) => format!("{k}=b{b};"),
            })
            .collect())
    }

    #[test]
    fn record_reader_matches_the_oracle_on_mutated_lines() {
        let hex: Vec<String> = (0..64u64)
            .map(|i| format!("{:016x}", i.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> (i % 4)))
            .collect();
        let bases = [
            r#"{"type":"query","n":50,"capacity":10000000000.0,"q0":2500000.0,"buffer":5000000.0,"gi":4.0,"gd":0.0078125,"ru":8000000.0,"w":2.0,"pm":0.01,"qsc":500000.0,"max_legs":64}"#.to_string(),
            r#"{"type":"query","gi":2.0}"#.to_string(),
            r#"{"type":"answer","stable":true,"required_buffer":4330127.018922194,"max_x":1234567.25,"min_x":-2500000.0,"legs":17}"#.to_string(),
            r#"{"type":"answer","stable":false,"required_buffer":inf,"max_x":NaN,"min_x":-inf,"legs":0}"#.to_string(),
            schema_header(),
            r#"{"type":"seed","seed_hi":0,"seed_lo":2,"outcome":"completed","retries":0,"events":0,"has_telemetry":true,"cause":""}"#.to_string(),
            format!(
                r#"{{"type":"series_bits","name":"rate","entity":3,"values":"{},*000000000000000a,{}"}}"#,
                hex[..32].join(","),
                hex[32..].join(",")
            ),
            event_to_jsonl(&Event::SpanBegin { t: 0.5, id: 7, parent: 0, kind: SpanKind::BatchSeed, entity: 3 }),
        ];
        let mut d = Draw(0x00de_c0de);
        let (mut ok, mut err) = (0, 0);
        for case in 0..40_000 {
            let mut line = bases[case % bases.len()].clone();
            for _ in 0..1 + d.below(3) {
                line = mutate(&line, &mut d);
            }
            let want = canonical(oracle_parse(&line));
            let got = canonical(Record::parse(&line).map(|r| r.fields));
            assert_eq!(got, want, "case {case}: {line:?}");
            if want.is_ok() {
                ok += 1;
            } else {
                err += 1;
            }
        }
        // Both outcomes are well represented.
        assert!(ok > 5_000 && err > 5_000, "{ok} parsed, {err} refused");
    }

    #[test]
    fn schema_header_round_trips() {
        let header = schema_header();
        check_schema_header(&header).unwrap();
        // The header is not an event.
        assert!(event_from_jsonl(&header).is_err());
    }

    #[test]
    fn schema_header_rejects_stale_and_foreign_lines() {
        for bad in [
            "",
            "not json",
            r#"{"type":"region_switch","t":0.5,"from":0,"to":1}"#,
            r#"{"type":"schema","version":1}"#,
            r#"{"type":"schema","version":99}"#,
            r#"{"type":"schema"}"#,
        ] {
            assert!(check_schema_header(bad).is_err(), "accepted: {bad}");
        }
    }

    #[test]
    fn plain_number_fast_path_matches_core_parse_bitwise() {
        let mut fast = 0;
        let mut check = |token: &str| {
            let core = token.parse::<f64>().ok().map(f64::to_bits);
            assert_eq!(parse_num(token).map(f64::to_bits), core, "{token:?}");
            if let Some(v) = parse_plain(token) {
                assert_eq!(Some(v.to_bits()), core, "fast path on {token:?}");
                fast += 1;
            }
        };
        // Boundaries: 15 and 16 significant digits, 19 and 20 digits in
        // all, signed zeros, leading and trailing zeros, 22 and 23
        // fraction digits, 10^22 and 10^23, and tokens only core's parse
        // takes or nothing takes.
        for token in [
            "999999999999999",
            "9999999999999999",
            "123456789012345",
            "1234567890123456",
            "0.123456789012345",
            "0.1234567890123456",
            "12345678.9012345",
            "12345678.90123456",
            "9007199254740993",
            "9999999999999999999",
            "99999999999999999999",
            "999999999999999.9999",
            "0.000000000000000001",
            "0",
            "-0",
            "0.0",
            "-0.0",
            "-0.000",
            "007",
            "-0007.2500",
            "0.0000000000000000000001",
            "0.00000000000000000000001",
            "0.1234567890000000000000",
            "10000000000000000000000",
            "100000000000000000000000",
            "1e22",
            "1e23",
            "1.",
            ".5",
            "-.5",
            "+1",
            "-",
            "",
            "--1",
            "1.2.3",
            "1_0",
            "١",
        ] {
            check(token);
        }
        let mut draw = Draw(0x9a55_e5ca_1e0f_u64);
        let mut token = String::new();
        for _ in 0..1_000_000 {
            token.clear();
            if draw.below(2) == 0 {
                token.push('-');
            }
            // Mostly within the fast path's reach, sometimes past it.
            let (int_max, frac_max) = if draw.below(4) == 0 { (24, 26) } else { (9, 14) };
            let zeros = draw.below(3);
            for i in 0..1 + draw.below(int_max) {
                let digit = if i < zeros { 0 } else { draw.below(10) };
                token.push(char::from(b'0' + digit as u8));
            }
            if draw.below(3) != 0 {
                token.push('.');
                for _ in 0..1 + draw.below(frac_max) {
                    // Runs of zeros as well as uniform digits.
                    let digit = if draw.below(4) == 0 { 0 } else { draw.below(10) };
                    token.push(char::from(b'0' + digit as u8));
                }
            }
            check(&token);
        }
        assert!(fast >= 500_000, "only {fast} tokens took the fast path");
    }

    #[test]
    fn floats_round_trip_exactly() {
        // {:?} emits the shortest representation that parses back to the
        // same bits; verify on awkward values.
        for v in [0.1, 1.0 / 3.0, f64::MIN_POSITIVE, 1e308, 123_456_789.123_456_79] {
            let e = Event::SolverStepRejected { t: v, h: v };
            let back = event_from_jsonl(&event_to_jsonl(&e)).unwrap();
            assert_eq!(back, e);
        }
    }
}
