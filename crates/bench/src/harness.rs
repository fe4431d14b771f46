//! The one harness every engine benchmark binary runs on: a best-of-reps
//! timer that also keeps the median and max, quick-mode sizing, named
//! gates, shared scenarios, and the writer of `BENCH_<name>.json`.
//!
//! Every BENCH file has one schema:
//!
//! ```text
//! { "bench": name,
//!   "machine": {"cores", "arch", "os", "cpu"},
//!   "quick": bool, "reps": n,
//!   "rows":  [{"row": name, field: value | {"min", "median", "max"}, ...}],
//!   "gates": [{"gate": name, "value", "at_most" | "at_least", "enforced", "pass"}],
//!   "note": text }
//! ```
//!
//! A gate fails the run only when it is enforced; speed gates are
//! recorded but not enforced in quick mode ([`quick`]).

use std::fmt::Write as _;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::time::Instant;

use dcesim::batch::{run_batch, BatchConfig};
use dcesim::faults::FaultConfig;
use dcesim::metrics::SimMetrics;
use dcesim::net::{NetConfig, NetSim};
use dcesim::sched::Scheduler;
use dcesim::sim::{fluid_validation_params, SimConfig};
use dcesim::time::Duration;
use dcesim::workload;

pub use crate::common::quick;

/// Worker counts of the per-width rows.
pub const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// Frame size of the dumbbell scenarios (bits).
pub const FRAME: f64 = 8_000.0;

/// `quick` in quick mode, else `full`: the one sizing knob.
pub fn sized<T>(quick: T, full: T) -> T {
    if self::quick() {
        quick
    } else {
        full
    }
}

/// Runs `f` with the worker pool pinned to `threads` workers.
pub fn at_width<T>(threads: usize, f: impl FnOnce() -> T) -> T {
    parkit::set_threads(threads);
    let out = f();
    parkit::set_threads(0);
    out
}

/// Min, median and max of a set of timed reps (seconds, or any sample).
/// Gates read the min, the best-of-reps figure.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Timing {
    /// Fastest rep.
    pub min: f64,
    /// Median rep (the mean of the middle two on an even count).
    pub median: f64,
    /// Slowest rep.
    pub max: f64,
}

impl Timing {
    /// Summarises `samples` (reordered in place).
    ///
    /// # Panics
    ///
    /// Panics on an empty slice.
    #[must_use]
    pub fn of(samples: &mut [f64]) -> Self {
        assert!(!samples.is_empty(), "no samples to summarise");
        samples.sort_by(f64::total_cmp);
        let n = samples.len();
        let median =
            if n % 2 == 1 { samples[n / 2] } else { 0.5 * (samples[n / 2 - 1] + samples[n / 2]) };
        Self { min: samples[0], median, max: samples[n - 1] }
    }
}

/// Runs `rep` `reps` times; each call returns the seconds it measured
/// itself (for loops that time only part of their work).
pub fn sample(reps: usize, mut rep: impl FnMut() -> f64) -> Timing {
    let mut secs: Vec<f64> = (0..reps.max(1)).map(|_| rep()).collect();
    Timing::of(&mut secs)
}

/// Wall time of `f` over `reps` runs.
pub fn time<T>(reps: usize, mut f: impl FnMut() -> T) -> Timing {
    sample(reps, || {
        let t0 = Instant::now();
        black_box(f());
        t0.elapsed().as_secs_f64()
    })
}

// --- shared scenarios -------------------------------------------------------

/// The Fig. 7 limit-cycle parameterisation on the packet engine.
#[must_use]
pub fn limit_cycle(t_end: f64) -> SimConfig {
    SimConfig::from_fluid(&fluid_validation_params(), FRAME, Duration::from_secs(2e-6), t_end)
}

/// 16 servers answering a parallel read into the limit cycle's
/// bottleneck at 4x overload: flow churn, drops and PAUSE pressure.
#[must_use]
pub fn incast16(t_end: f64) -> SimConfig {
    let mut cfg = limit_cycle(t_end);
    cfg.flows = workload::incast(16, fluid_validation_params().capacity / 4.0, 300.0 * FRAME);
    cfg
}

/// A deterministic mixed fault plan for the faulted equivalence runs.
#[must_use]
pub fn fault_plan() -> FaultConfig {
    let mut f = FaultConfig::none();
    f.seed = 7;
    f.feedback_loss = 0.05;
    f.feedback_corrupt = 0.02;
    f.data_loss = 0.005;
    f
}

/// Each completed seed of a dumbbell batch run at `threads` workers,
/// with its metrics and final rates: what the equivalence gates compare.
pub fn batch_outcomes(cfg: &BatchConfig, threads: usize) -> Vec<(u64, SimMetrics, Vec<f64>)> {
    let report = at_width(threads, || run_batch(cfg));
    report.completed().map(|(seed, r)| (seed, r.metrics.clone(), r.final_rates.clone())).collect()
}

/// Events one fabric run dispatches under `scheduler`, and the wall
/// time of its step loop over `reps` runs (build and finish untimed).
pub fn time_net(cfg: &NetConfig, scheduler: Scheduler, reps: usize) -> (u64, Timing) {
    let mut events = 0;
    let secs = sample(reps, || {
        let mut sim = NetSim::new(NetConfig { scheduler, ..cfg.clone() });
        let t0 = Instant::now();
        while sim.step() {}
        let secs = t0.elapsed().as_secs_f64();
        events = sim.events_popped();
        black_box(sim.finish());
        secs
    });
    (events, secs)
}

/// Allocations made by the rest of a run after `warmup` steps: `step`
/// dispatches one unit of work and returns `false` once there is none.
/// `allocations` is the binary's [`counting_allocator!`](crate::counting_allocator)
/// counter.
pub fn steady_state_allocations(
    allocations: fn() -> u64,
    warmup: usize,
    mut step: impl FnMut() -> bool,
) -> u64 {
    for _ in 0..warmup {
        if !step() {
            break;
        }
    }
    let before = allocations();
    while step() {}
    allocations() - before
}

/// Bytes the result of `run` keeps allocated, read from the binary's
/// `live_bytes` counter around a second run (the first warms every
/// lazily grown buffer), with that result.
pub fn retained_bytes<R>(live_bytes: fn() -> u64, mut run: impl FnMut() -> R) -> (R, u64) {
    black_box(run());
    let before = live_bytes();
    let kept = run();
    (kept, live_bytes().wrapping_sub(before))
}

// --- the BENCH file ---------------------------------------------------------

/// A value a row field or a gate holds.
pub trait Value {
    /// The value as a number (a timing's min).
    fn num(&self) -> f64;
    /// The value as JSON text.
    fn json(&self) -> String {
        json_num(self.num())
    }
}

macro_rules! numeric_values {
    ($($t:ty),*) => {$(
        impl Value for $t {
            #[allow(clippy::cast_precision_loss, clippy::unnecessary_cast)]
            fn num(&self) -> f64 {
                *self as f64
            }
        }
    )*};
}
numeric_values!(f64, u64, usize);

impl Value for bool {
    fn num(&self) -> f64 {
        f64::from(u8::from(*self))
    }
    fn json(&self) -> String {
        self.to_string()
    }
}

impl Value for Timing {
    fn num(&self) -> f64 {
        self.min
    }
    fn json(&self) -> String {
        let [min, median, max] = [self.min, self.median, self.max].map(json_num);
        format!("{{\"min\": {min}, \"median\": {median}, \"max\": {max}}}")
    }
}

/// One named row of measurements, held as its JSON text.
#[derive(Debug, Clone, PartialEq)]
pub struct Row(String);

impl Row {
    /// An empty row called `name`.
    #[must_use]
    pub fn new(name: impl AsRef<str>) -> Self {
        Self(format!("{{\"row\": {}", json_str(name.as_ref())))
    }

    /// Adds the field `key`.
    #[must_use]
    pub fn with(mut self, key: &str, value: impl Value) -> Self {
        let _ = write!(self.0, ", {}: {}", json_str(key), value.json());
        self
    }
}

/// The side of its bound a gate's value must stay on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Bound {
    /// `value <= bound`.
    AtMost(f64),
    /// `value >= bound`.
    AtLeast(f64),
}

impl Bound {
    fn side(self) -> (&'static str, f64) {
        match self {
            Bound::AtMost(b) => ("at_most", b),
            Bound::AtLeast(b) => ("at_least", b),
        }
    }
}

/// A named check on one measured value.
#[derive(Debug, Clone, PartialEq)]
struct Gate {
    name: String,
    value: f64,
    bound: Bound,
    enforced: bool,
}

impl Gate {
    /// Whether the value is within its bound (NaN never is).
    fn passes(&self) -> bool {
        match self.bound {
            Bound::AtMost(b) => self.value <= b,
            Bound::AtLeast(b) => self.value >= b,
        }
    }

    fn describe(&self) -> String {
        let (side, b) = self.bound.side();
        format!("{} = {} ({side} {})", self.name, json_num(self.value), json_num(b))
    }
}

/// One benchmark run: its rows and gates, written as `BENCH_<name>.json`
/// by [`Bench::finish`].
#[derive(Debug, Clone)]
pub struct Bench {
    name: &'static str,
    quick: bool,
    reps: usize,
    rows: Vec<Row>,
    gates: Vec<Gate>,
}

impl Bench {
    /// A run of benchmark `name` at `reps` reps per timing.
    #[must_use]
    pub fn new(name: &'static str, reps: usize) -> Self {
        Self { name, quick: quick(), reps, rows: Vec::new(), gates: Vec::new() }
    }

    /// Records a row and prints it.
    pub fn row(&mut self, row: Row) {
        println!("  {}}}", row.0);
        self.rows.push(row);
    }

    /// Records a gate that is enforced in every mode.
    pub fn gate(&mut self, name: impl Into<String>, value: impl Value, bound: Bound) {
        self.gates.push(Gate { name: name.into(), value: value.num(), bound, enforced: true });
    }

    /// Records a gate on a failure count: at most 0, in every mode.
    pub fn gate_zero(&mut self, name: impl Into<String>, failures: impl Value) {
        self.gate(name, failures, Bound::AtMost(0.0));
    }

    /// Records a speed gate: at least `at_least`, enforced in full mode
    /// only.
    pub fn speed_gate(&mut self, name: impl Into<String>, value: f64, at_least: f64) {
        let (name, bound, enforced) = (name.into(), Bound::AtLeast(at_least), !self.quick);
        self.gates.push(Gate { name, value, bound, enforced });
    }

    /// The file's JSON text, with `note`.
    #[must_use]
    pub fn to_json(&self, note: &str) -> String {
        let mut s = format!("{{\n  \"bench\": {},\n  \"machine\": ", json_str(self.name));
        machine_json(&mut s);
        let _ =
            write!(s, ",\n  \"quick\": {},\n  \"reps\": {},\n  \"rows\": [", self.quick, self.reps);
        for (i, row) in self.rows.iter().enumerate() {
            let _ = write!(s, "{}{}}}", if i == 0 { "\n    " } else { ",\n    " }, row.0);
        }
        s.push_str("\n  ],\n  \"gates\": [");
        for (i, g) in self.gates.iter().enumerate() {
            let (side, b) = g.bound.side();
            let _ = write!(
                s,
                "{}{{\"gate\": {}, \"value\": {}, \"{side}\": {}, \"enforced\": {}, \"pass\": {}}}",
                if i == 0 { "\n    " } else { ",\n    " },
                json_str(&g.name),
                json_num(g.value),
                json_num(b),
                g.enforced,
                g.passes()
            );
        }
        let _ = writeln!(s, "\n  ],\n  \"note\": {}\n}}", json_str(note));
        s
    }

    /// Writes `BENCH_<name>.json` into `dir` and prints every gate.
    ///
    /// # Errors
    ///
    /// A write failure, else the enforced gates that failed (the file
    /// is written either way).
    pub fn finish_in(&self, dir: &Path, note: &str) -> Result<PathBuf, String> {
        let path = dir.join(format!("BENCH_{}.json", self.name));
        std::fs::create_dir_all(dir)
            .and_then(|()| std::fs::write(&path, self.to_json(note)))
            .map_err(|e| format!("could not write {}: {e}", path.display()))?;
        println!("wrote {}", path.display());
        let mut failed = Vec::new();
        for g in &self.gates {
            let verdict = match (g.passes(), g.enforced) {
                (true, _) => "ok",
                (false, true) => "FAIL",
                (false, false) => "fails, not enforced in quick mode",
            };
            println!("  gate {}: {verdict}", g.describe());
            if !g.passes() && g.enforced {
                failed.push(g.describe());
            }
        }
        if failed.is_empty() {
            Ok(path)
        } else {
            Err(format!("failed gate(s): {}", failed.join("; ")))
        }
    }

    /// [`Bench::finish_in`] on the results directory; exits 1 on any
    /// error.
    pub fn finish(self, note: &str) {
        if let Err(e) = self.finish_in(&crate::common::out_dir(), note) {
            eprintln!("FAIL: {e}");
            std::process::exit(1);
        }
    }
}

/// A JSON number rounded to six significant digits; `null` when not
/// finite.
fn json_num(x: f64) -> String {
    if !x.is_finite() {
        return "null".into();
    }
    let r: f64 = format!("{x:.5e}").parse().unwrap_or(x);
    if r == 0.0 || r.abs() >= 1e-4 {
        format!("{r}")
    } else {
        format!("{r:e}")
    }
}

/// A JSON string literal: the one place quotes, backslashes and control
/// characters are escaped.
fn json_str(text: &str) -> String {
    let mut out = String::with_capacity(text.len() + 2);
    out.push('"');
    for c in text.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if c.is_control() => {
                let _ = write!(out, "\\u{:04x}", u32::from(c));
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The machine the numbers came from: cores, arch, OS, and the CPU model
/// from `/proc/cpuinfo` where there is one.
fn machine_json(s: &mut String) {
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    let cpu = std::fs::read_to_string("/proc/cpuinfo").ok().and_then(|info| {
        info.lines().find_map(|l| {
            l.strip_prefix("model name")?.split_once(':').map(|(_, m)| m.trim().to_string())
        })
    });
    let _ = write!(
        s,
        "{{\"cores\": {cores}, \"arch\": {}, \"os\": {}, \"cpu\": {}}}",
        json_str(std::env::consts::ARCH),
        json_str(std::env::consts::OS),
        cpu.as_deref().map_or_else(|| "null".into(), json_str)
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A minimal JSON reader: enough to prove a BENCH file parses and to
    /// read back its strings.
    #[derive(Debug, PartialEq)]
    enum Json {
        Null,
        Bool(bool),
        Num(f64),
        Str(String),
        Arr(Vec<Json>),
        Obj(Vec<(String, Json)>),
    }

    fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser { b: text.as_bytes(), i: 0 };
        let v = p.value()?;
        p.ws();
        if p.i == p.b.len() {
            Ok(v)
        } else {
            Err(format!("trailing bytes at {}", p.i))
        }
    }

    struct Parser<'a> {
        b: &'a [u8],
        i: usize,
    }

    impl Parser<'_> {
        fn ws(&mut self) {
            while self.b.get(self.i).is_some_and(u8::is_ascii_whitespace) {
                self.i += 1;
            }
        }

        fn eat(&mut self, c: u8) -> Result<(), String> {
            self.ws();
            if self.b.get(self.i) == Some(&c) {
                self.i += 1;
                Ok(())
            } else {
                Err(format!("expected {:?} at {}", c as char, self.i))
            }
        }

        fn value(&mut self) -> Result<Json, String> {
            self.ws();
            match self.b.get(self.i) {
                Some(b'{') => {
                    self.i += 1;
                    let mut fields = Vec::new();
                    self.ws();
                    if self.b.get(self.i) == Some(&b'}') {
                        self.i += 1;
                        return Ok(Json::Obj(fields));
                    }
                    loop {
                        self.ws();
                        let Json::Str(k) = self.value()? else { return Err("key".into()) };
                        self.eat(b':')?;
                        fields.push((k, self.value()?));
                        self.ws();
                        if self.b.get(self.i) == Some(&b',') {
                            self.i += 1;
                        } else {
                            self.eat(b'}')?;
                            return Ok(Json::Obj(fields));
                        }
                    }
                }
                Some(b'[') => {
                    self.i += 1;
                    let mut items = Vec::new();
                    self.ws();
                    if self.b.get(self.i) == Some(&b']') {
                        self.i += 1;
                        return Ok(Json::Arr(items));
                    }
                    loop {
                        items.push(self.value()?);
                        self.ws();
                        if self.b.get(self.i) == Some(&b',') {
                            self.i += 1;
                        } else {
                            self.eat(b']')?;
                            return Ok(Json::Arr(items));
                        }
                    }
                }
                Some(b'"') => {
                    self.i += 1;
                    let mut out = String::new();
                    loop {
                        let c = *self.b.get(self.i).ok_or("unterminated string")?;
                        self.i += 1;
                        match c {
                            b'"' => return Ok(Json::Str(out)),
                            b'\\' => {
                                let e = *self.b.get(self.i).ok_or("dangling escape")?;
                                self.i += 1;
                                match e {
                                    b'"' | b'\\' | b'/' => out.push(e as char),
                                    b'n' => out.push('\n'),
                                    b'u' => {
                                        let hex = std::str::from_utf8(&self.b[self.i..self.i + 4])
                                            .map_err(|e| e.to_string())?;
                                        let code = u32::from_str_radix(hex, 16)
                                            .map_err(|e| e.to_string())?;
                                        out.push(char::from_u32(code).ok_or("bad code")?);
                                        self.i += 4;
                                    }
                                    _ => return Err(format!("bad escape at {}", self.i)),
                                }
                            }
                            c if c < 0x20 => return Err("raw control character".into()),
                            _ => {
                                // Copy one whole UTF-8 character.
                                let start = self.i - 1;
                                let len = std::str::from_utf8(&self.b[start..])
                                    .map_err(|e| e.to_string())?
                                    .chars()
                                    .next()
                                    .map_or(1, char::len_utf8);
                                out.push_str(
                                    std::str::from_utf8(&self.b[start..start + len]).unwrap(),
                                );
                                self.i = start + len;
                            }
                        }
                    }
                }
                Some(b't') if self.b[self.i..].starts_with(b"true") => {
                    self.i += 4;
                    Ok(Json::Bool(true))
                }
                Some(b'f') if self.b[self.i..].starts_with(b"false") => {
                    self.i += 5;
                    Ok(Json::Bool(false))
                }
                Some(b'n') if self.b[self.i..].starts_with(b"null") => {
                    self.i += 4;
                    Ok(Json::Null)
                }
                _ => {
                    let start = self.i;
                    while self.b.get(self.i).is_some_and(|c| b"-+.eE0123456789".contains(c)) {
                        self.i += 1;
                    }
                    let tok = std::str::from_utf8(&self.b[start..self.i]).unwrap();
                    tok.parse().map(Json::Num).map_err(|_| format!("bad token at {start}"))
                }
            }
        }
    }

    fn field<'a>(v: &'a Json, key: &str) -> &'a Json {
        let Json::Obj(fields) = v else { panic!("not an object: {v:?}") };
        &fields.iter().find(|(k, _)| k == key).unwrap_or_else(|| panic!("no {key}")).1
    }

    fn bench(quick: bool) -> Bench {
        Bench { name: "demo", quick, reps: 3, rows: Vec::new(), gates: Vec::new() }
    }

    fn scratch_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("bench_harness-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn a_failed_enforced_gate_names_itself_and_the_file_is_still_written() {
        let dir = scratch_dir("enforced");
        let mut b = bench(false);
        b.gate_zero("equivalence_failures", 0_u64);
        b.gate_zero("steady_state_allocations", 3_u64);
        b.speed_gate("speedup", 1.5, 2.0);
        let err = b.finish_in(&dir, "n").unwrap_err();
        assert!(err.contains("steady_state_allocations") && err.contains("speedup"), "{err}");
        assert!(!err.contains("equivalence_failures"), "{err}");
        let text = std::fs::read_to_string(dir.join("BENCH_demo.json")).unwrap();
        let json = parse(&text).unwrap();
        let Json::Arr(gates) = field(&json, "gates") else { panic!("gates") };
        assert_eq!(gates.len(), 3);
        assert_eq!(field(&gates[1], "pass"), &Json::Bool(false));
        assert_eq!(field(&gates[1], "at_most"), &Json::Num(0.0));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn an_unenforced_quick_gate_does_not_fail() {
        let dir = scratch_dir("quick");
        let mut b = bench(true);
        b.speed_gate("speedup", 1.5, 2.0);
        b.gate("csv_identical", true, Bound::AtLeast(1.0));
        assert!(b.finish_in(&dir, "n").is_ok());
        let text = std::fs::read_to_string(dir.join("BENCH_demo.json")).unwrap();
        let gate = &parse(&text).unwrap();
        let Json::Arr(gates) = field(gate, "gates") else { panic!("gates") };
        assert_eq!(field(&gates[0], "enforced"), &Json::Bool(false));
        assert_eq!(field(&gates[0], "pass"), &Json::Bool(false));
        assert_eq!(field(&gates[1], "value"), &Json::Num(1.0));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn notes_and_rows_with_quotes_and_backslashes_round_trip_as_json() {
        let note = "see \"cores\"; a\\b path, a tab\t and a newline\n µs";
        let mut b = bench(false);
        b.row(
            Row::new("r\"1")
                .with("secs", Timing { min: 1.0, median: 2.0, max: 3.0 })
                .with("nan", f64::NAN)
                .with("ok", true)
                .with("events", 757_263_u64),
        );
        let json = parse(&b.to_json(note)).unwrap();
        assert_eq!(field(&json, "note"), &Json::Str(note.into()));
        assert_eq!(field(&json, "bench"), &Json::Str("demo".into()));
        let machine = field(&json, "machine");
        assert!(matches!(field(machine, "cores"), Json::Num(c) if *c >= 1.0));
        assert_eq!(field(machine, "arch"), &Json::Str(std::env::consts::ARCH.into()));
        let Json::Arr(rows) = field(&json, "rows") else { panic!("rows") };
        assert_eq!(field(&rows[0], "row"), &Json::Str("r\"1".into()));
        assert_eq!(field(&rows[0], "nan"), &Json::Null);
        assert_eq!(field(&rows[0], "events"), &Json::Num(757_263.0));
        assert_eq!(field(field(&rows[0], "secs"), "median"), &Json::Num(2.0));
    }

    #[test]
    fn timing_summarises_odd_and_even_rep_counts() {
        let odd = Timing::of(&mut [3.0, 1.0, 2.0]);
        assert_eq!(odd, Timing { min: 1.0, median: 2.0, max: 3.0 });
        let even = Timing::of(&mut [4.0, 1.0, 3.0, 2.0]);
        assert_eq!(even, Timing { min: 1.0, median: 2.5, max: 4.0 });
        let one = Timing::of(&mut [0.5]);
        assert_eq!(one, Timing { min: 0.5, median: 0.5, max: 0.5 });
        let mut calls = 0.0;
        let timed = sample(4, || {
            calls += 1.0;
            calls
        });
        assert_eq!(timed, Timing { min: 1.0, median: 2.5, max: 4.0 });
    }

    #[test]
    fn gates_compare_on_their_side_and_reject_nan() {
        let g = |value, bound| Gate { name: "g".into(), value, bound, enforced: true };
        assert!(g(2.0, Bound::AtMost(2.0)).passes());
        assert!(!g(2.1, Bound::AtMost(2.0)).passes());
        assert!(g(5.0, Bound::AtLeast(5.0)).passes());
        assert!(!g(f64::NAN, Bound::AtLeast(5.0)).passes());
        assert_eq!(json_num(0.123_456_789), "0.123457");
        assert_eq!(json_num(757_263.0), "757263");
        assert_eq!(json_num(2.180_424e-10), "2.18042e-10");
    }
}
