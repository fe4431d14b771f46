//! Batched stability-query engine benchmark and equivalence gate.
//!
//! Exercises [`bcn::query::QueryBatch`] against the naive per-call
//! `exact_verdict` + `theorem1_required_buffer` loop on two workloads:
//!
//! * **uniform-cold** — every query a distinct configuration, more of
//!   them than the process-wide answer memo holds;
//! * **zipf-hot** — a Zipf-skewed mix over a few hundred distinct
//!   configurations, the serving-path shape where batching collapses
//!   the work to the number of *distinct* questions.
//!
//! Every timed batched run draws its configurations from a range no
//! other run uses, so each one finds the answer memo cold for its
//! workload and times dedup and tracing, not memo lookups. One extra,
//! informational row per workload re-runs the first range with its
//! answers resident (`warm_memo`).
//!
//! A codec row times the JSONL serving codec over the zipf-hot stream:
//! decoding each query line and encoding each answer line, in ns per
//! line (informational).
//!
//! Three gates:
//!
//! 1. **Answer equality** — batched answers must match the naive loop
//!    bit for bit across the full benchmark workload, and every codec
//!    line must round-trip to the same bits (always gated).
//! 2. **Zero steady-state allocations** — with a warm workspace, the
//!    per-query verdict path performs no heap
//!    allocations (counted by this binary's own wrapping allocator;
//!    the library forbids unsafe code, but a bin target is its own
//!    crate root; always gated).
//! 3. **Throughput** — serial batched evaluation must be at least 3x
//!    the naive serial loop on the zipf-hot workload (skipped under
//!    `DCE_BCN_QUICK`, which also shrinks the workloads to smoke size).
//!
//! Per-thread QPS rows at 1/2/4/8 workers land in `BENCH_query.json`
//! under the usual results directory. Run release builds only:
//!
//! ```console
//! $ cargo run --release -p bench --bin query_engine
//! ```

use std::hint::black_box;
use std::time::Instant;

use bcn::propagate::Propagator;
use bcn::query::{
    answer_from_jsonl, answer_to_jsonl, query_from_jsonl, query_to_jsonl, QueryBatch,
    StabilityAnswer, StabilityQuery,
};
use bcn::stability::{exact_verdict, exact_verdict_scratch, theorem1_required_buffer};
use bcn::BcnParams;
use bench::common::{out_dir, quick, splitmix_next};

/// Serial batched-vs-naive throughput gate on the zipf-hot workload.
const MIN_HOT_SPEEDUP: f64 = 3.0;
/// Leg budget for every benchmark query.
const MAX_LEGS: usize = 48;
/// Worker counts for the QPS rows.
const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];

bench::counting_allocator!();

// --- deterministic workloads ----------------------------------------------

/// A unit-interval draw from the top 53 bits.
fn uniform01(state: &mut u64) -> f64 {
    (splitmix_next(state) >> 11) as f64 / (1u64 << 53) as f64
}

/// The `i`-th distinct benchmark configuration: a capacity and gain
/// perturbation of the test defaults, so every index derives a distinct
/// propagator key with comparable trace cost.
fn distinct_config(i: usize) -> BcnParams {
    BcnParams::test_defaults().with_capacity(1.0e6 + i as f64).with_gi(1.0 + (i % 7) as f64 * 0.25)
}

/// Every query distinct: configurations `offset..offset + n` visited
/// once each.
fn uniform_workload(n: usize, offset: usize) -> Vec<StabilityQuery> {
    (0..n)
        .map(|i| StabilityQuery { params: distinct_config(offset + i), max_legs: MAX_LEGS })
        .collect()
}

/// `n` queries Zipf(s)-sampled over configurations
/// `offset..offset + distinct`; the draw does not depend on `offset`.
fn zipf_workload(n: usize, distinct: usize, s: f64, offset: usize) -> Vec<StabilityQuery> {
    let mut cdf = Vec::with_capacity(distinct);
    let mut acc = 0.0;
    for r in 0..distinct {
        acc += 1.0 / ((r + 1) as f64).powf(s);
        cdf.push(acc);
    }
    let total = acc;
    let mut state = 0x0dce_bc70_0000_0007u64;
    (0..n)
        .map(|_| {
            let u = uniform01(&mut state) * total;
            let rank = cdf.partition_point(|&c| c < u).min(distinct - 1);
            StabilityQuery { params: distinct_config(offset + rank), max_legs: MAX_LEGS }
        })
        .collect()
}

// --- the two serving paths -------------------------------------------------

/// The pre-batching path: one `exact_verdict` call per query, with
/// fresh allocations and a fresh trace every time.
fn naive_answers(queries: &[StabilityQuery]) -> Vec<StabilityAnswer> {
    queries
        .iter()
        .map(|q| {
            let v = exact_verdict(&q.params, q.max_legs);
            StabilityAnswer {
                strongly_stable: v.strongly_stable,
                required_buffer: theorem1_required_buffer(&q.params),
                max_x: v.max_x,
                min_x: v.min_x,
                legs: v.legs,
            }
        })
        .collect()
}

/// Best-of-`reps` wall time of `f`.
fn best_of<T>(reps: usize, mut f: impl FnMut() -> T) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t0 = Instant::now();
        black_box(f());
        best = best.min(t0.elapsed().as_secs_f64());
    }
    best
}

/// Bitwise answer comparison; returns the mismatch count.
fn mismatches(a: &[StabilityAnswer], b: &[StabilityAnswer]) -> usize {
    a.iter()
        .zip(b)
        .filter(|(x, y)| {
            x.strongly_stable != y.strongly_stable
                || x.required_buffer.to_bits() != y.required_buffer.to_bits()
                || x.max_x.to_bits() != y.max_x.to_bits()
                || x.min_x.to_bits() != y.min_x.to_bits()
                || x.legs != y.legs
        })
        .count()
}

/// Steady-state allocation count of the warm per-query verdict path:
/// workspace warmed first, then `rounds` queries traced.
fn steady_state_allocations(queries: &[StabilityQuery], rounds: usize) -> u64 {
    let mut legs = Vec::new();
    let props: Vec<Propagator> =
        queries.iter().map(|q| Propagator::for_params(&q.params)).collect();
    let warm = |legs: &mut Vec<bcn::rounds::Leg>| {
        for (q, prop) in queries.iter().zip(&props).cycle().take(rounds) {
            black_box(exact_verdict_scratch(&q.params, prop, q.max_legs, legs));
        }
    };
    warm(&mut legs);
    let before = allocations();
    warm(&mut legs);
    allocations() - before
}

/// The codec row: best-of-`reps` decode and encode time per line over
/// one stream, and the lines that fail to round-trip.
struct CodecReport {
    lines: usize,
    decode_ns: f64,
    encode_ns: f64,
    mismatches: usize,
}

/// Times `query_from_jsonl` over the encoded `queries` and
/// `answer_to_jsonl` over `answers` into one output buffer, as
/// `dcebcn query` streams them.
fn run_codec(queries: &[StabilityQuery], answers: &[StabilityAnswer], reps: usize) -> CodecReport {
    let lines: Vec<String> = queries.iter().map(query_to_jsonl).collect();
    let decode = || lines.iter().map(|l| query_from_jsonl(l)).collect::<Vec<_>>();
    let encode = || {
        let mut out = String::with_capacity(answers.len() * 128);
        for a in answers {
            out.push_str(&answer_to_jsonl(a));
            out.push('\n');
        }
        out
    };
    let bad_queries = decode()
        .iter()
        .zip(&lines)
        .filter(|(q, line)| !q.as_ref().is_ok_and(|q| query_to_jsonl(q) == **line))
        .count();
    let decoded: Vec<StabilityAnswer> =
        encode().lines().filter_map(|l| answer_from_jsonl(l).ok()).collect();
    let bad_answers = mismatches(&decoded, answers) + answers.len().abs_diff(decoded.len());
    let per_line = |secs: f64, n: usize| secs * 1e9 / n.max(1) as f64;
    CodecReport {
        lines: lines.len(),
        decode_ns: per_line(best_of(reps, decode), lines.len()),
        encode_ns: per_line(best_of(reps, encode), answers.len()),
        mismatches: bad_queries + bad_answers,
    }
}

impl CodecReport {
    fn json(&self) -> String {
        format!(
            "\"codec\": {{\"stream\": \"zipf_hot\", \"lines\": {}, \"decode_ns_per_line\": {:.1}, \
             \"encode_ns_per_line\": {:.1}, \"mismatches\": {}}}",
            self.lines, self.decode_ns, self.encode_ns, self.mismatches
        )
    }

    fn print(&self) {
        println!(
            "  codec over zipf_hot: {} lines, decode {:.0} ns/line, encode {:.0} ns/line \
             (informational)",
            self.lines, self.decode_ns, self.encode_ns
        );
    }
}

/// One workload's benchmark block: naive serial time, batched times at
/// each width on a cold memo, the warm-memo time, and the bitwise
/// equivalence check.
struct WorkloadReport {
    name: &'static str,
    queries: usize,
    distinct: usize,
    naive_secs: f64,
    batch_secs: Vec<f64>,
    warm_secs: f64,
    mismatches: usize,
}

/// Runs the workload `range(r)` gives on configuration range `r`: range
/// 0 for the equivalence check (memo cold, then warm), the naive loop
/// and the warm-memo row, then a fresh range for every timed batched
/// rep, so no timed batch finds its answers in the memo.
fn run_workload(
    name: &'static str,
    reps: usize,
    range: impl Fn(usize) -> Vec<StabilityQuery>,
) -> WorkloadReport {
    let queries = range(0);
    let batch = QueryBatch::new(&queries);
    let naive = naive_answers(&queries);
    let bad = mismatches(&batch.evaluate_in(1), &naive) + mismatches(&batch.evaluate_in(1), &naive);

    let naive_secs = best_of(reps, || naive_answers(&queries));
    let warm_secs = best_of(reps, || batch.evaluate_in(1));
    let batch_secs: Vec<f64> = THREAD_COUNTS
        .iter()
        .enumerate()
        .map(|(ti, &t)| {
            (0..reps)
                .map(|r| {
                    let cold = range(1 + ti * reps + r);
                    let cold_batch = QueryBatch::new(&cold);
                    best_of(1, || cold_batch.evaluate_in(t))
                })
                .fold(f64::INFINITY, f64::min)
        })
        .collect();
    WorkloadReport {
        name,
        queries: queries.len(),
        distinct: batch.distinct(),
        naive_secs,
        batch_secs,
        warm_secs,
        mismatches: bad,
    }
}

impl WorkloadReport {
    fn qps(&self, secs: f64) -> f64 {
        self.queries as f64 / secs
    }

    fn json(&self) -> String {
        let rows: Vec<String> = THREAD_COUNTS
            .iter()
            .zip(&self.batch_secs)
            .map(|(t, s)| {
                format!(
                    "{{\"threads\": {t}, \"secs\": {s:.6}, \"qps\": {:.0}, \
                     \"speedup_vs_naive\": {:.2}}}",
                    self.qps(*s),
                    self.naive_secs / s
                )
            })
            .collect();
        format!(
            "\"{}\": {{\"queries\": {}, \"distinct\": {}, \
             \"naive_serial\": {{\"secs\": {:.6}, \"qps\": {:.0}}}, \
             \"batched\": [{}], \"warm_memo\": {{\"threads\": 1, \"secs\": {:.6}, \
             \"qps\": {:.0}, \"speedup_vs_naive\": {:.2}}}, \"mismatches\": {}}}",
            self.name,
            self.queries,
            self.distinct,
            self.naive_secs,
            self.qps(self.naive_secs),
            rows.join(", "),
            self.warm_secs,
            self.qps(self.warm_secs),
            self.naive_secs / self.warm_secs,
            self.mismatches,
        )
    }

    fn print(&self) {
        println!("  {}: {} queries, {} distinct", self.name, self.queries, self.distinct);
        println!(
            "    naive serial: {:.3} s ({:.0} queries/s)",
            self.naive_secs,
            self.qps(self.naive_secs)
        );
        for (t, s) in THREAD_COUNTS.iter().zip(&self.batch_secs) {
            println!(
                "    batched threads = {t}: {s:.3} s ({:.0} queries/s, {:.2}x naive)",
                self.qps(*s),
                self.naive_secs / s
            );
        }
        println!(
            "    warm memo threads = 1: {:.3} s ({:.0} queries/s, {:.2}x naive; informational)",
            self.warm_secs,
            self.qps(self.warm_secs),
            self.naive_secs / self.warm_secs
        );
    }
}

fn main() {
    let (uniform_n, zipf_n, zipf_distinct, reps) =
        if quick() { (1_024, 2_000, 64, 1) } else { (8_192, 50_000, 512, 3) };
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    println!(
        "query engine benchmark: uniform {uniform_n}, zipf {zipf_n}/{zipf_distinct}, \
         best of {reps}, {cores} core(s)"
    );

    // Disjoint configuration ranges: the zipf ranges first, then the
    // uniform ones, one per run that touches the answer memo.
    let ranges = 1 + THREAD_COUNTS.len() * reps;
    let zipf = |r: usize| zipf_workload(zipf_n, zipf_distinct, 1.1, r * zipf_distinct);
    let uniform = |r: usize| uniform_workload(uniform_n, ranges * zipf_distinct + r * uniform_n);

    let cache0 = bcn::query::cache_stats();
    let hot = run_workload("zipf_hot", reps, zipf);
    hot.print();
    let cold = run_workload("uniform_cold", reps, uniform);
    cold.print();
    let zipf0 = zipf(0);
    let codec = run_codec(&zipf0, &QueryBatch::new(&zipf0).evaluate_in(1), reps);
    codec.print();
    let cache_delta = bcn::query::cache_stats().delta_since(cache0);
    println!(
        "answer memo: {} hits, {} misses, {} evictions",
        cache_delta.hits, cache_delta.misses, cache_delta.evictions
    );

    let steady_allocs = steady_state_allocations(&zipf0[..zipf0.len().min(1_000)], 1_000);
    println!("steady-state allocations over 1000 warm queries: {steady_allocs}");

    let hot_speedup = hot.naive_secs / hot.batch_secs[0];
    let total_mismatches = hot.mismatches + cold.mismatches + codec.mismatches;
    let note = "Batched serial speedup on zipf_hot comes from evaluating each distinct \
                configuration once (dedup + reused per-worker leg workspaces); on \
                single-core hardware (see \\\"cores\\\") the multi-thread rows measure \
                scheduling overhead, not scaling. Every batched row runs on configurations \
                no earlier run asked, so the process-wide answer memo is cold for it; \
                warm_memo re-asks the equivalence range with its answers resident \
                (uniform_cold holds more distinct keys than the memo's 4096 slots, so only \
                part of it stays resident). Steady-state allocations count alloc+realloc \
                events over 1000 warm-path queries. The codec row decodes every zipf_hot \
                query line and encodes every answer line (best of reps, ns per line; \
                informational).";
    let json = format!(
        "{{\n  \"reps\": {reps},\n  \"cores\": {cores},\n  \"max_legs\": {MAX_LEGS},\n  \
         \"workloads\": {{\n    {},\n    {}\n  }},\n  {},\n  \
         \"hot_serial_speedup_vs_naive\": {hot_speedup:.2},\n  \
         \"steady_state_allocations\": {steady_allocs},\n  \
         \"answer_memo\": {{\"hits\": {}, \"misses\": {}, \"evictions\": {}}},\n  \
         \"note\": \"{note}\"\n}}\n",
        hot.json(),
        cold.json(),
        codec.json(),
        cache_delta.hits,
        cache_delta.misses,
        cache_delta.evictions,
    );
    let out = out_dir();
    let path = out.join("BENCH_query.json");
    if let Err(e) = std::fs::write(&path, json) {
        eprintln!("FAIL: could not write {}: {e}", path.display());
        std::process::exit(1);
    }
    println!("wrote {}", path.display());

    let mut failed = false;
    if total_mismatches > 0 {
        eprintln!(
            "FAIL: {total_mismatches} batched answer(s) or codec line(s) differ from the naive \
             loop or the encoded bits"
        );
        failed = true;
    }
    if steady_allocs > 0 {
        eprintln!("FAIL: warm verdict path allocated {steady_allocs} time(s)");
        failed = true;
    }
    if !quick() && hot_speedup < MIN_HOT_SPEEDUP {
        eprintln!(
            "FAIL: serial batched speedup {hot_speedup:.2}x below the {MIN_HOT_SPEEDUP}x gate \
             on the zipf-hot workload"
        );
        failed = true;
    }
    if failed {
        std::process::exit(1);
    }
}
