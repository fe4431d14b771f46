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
//!    the naive serial loop on the zipf-hot workload (not enforced under
//!    `DCE_BCN_QUICK`, which also shrinks the workloads to smoke size).
//!
//! Per-thread QPS rows at 1/2/4/8 workers land in `BENCH_query.json`
//! under the usual results directory, in the [`bench::harness`] schema.
//! Run release builds only:
//!
//! ```console
//! $ cargo run --release -p bench --bin query_engine
//! ```

use std::hint::black_box;

use bcn::propagate::Propagator;
use bcn::query::{
    answer_from_jsonl, answer_to_jsonl, query_from_jsonl, query_to_jsonl, QueryBatch,
    StabilityAnswer, StabilityQuery,
};
use bcn::stability::{exact_verdict, exact_verdict_scratch, theorem1_required_buffer};
use bcn::BcnParams;
use bench::common::splitmix_next;
use bench::harness::{self, sized, Bench, Row, Timing, THREAD_COUNTS};

/// Serial batched-vs-naive throughput gate on the zipf-hot workload.
const MIN_HOT_SPEEDUP: f64 = 3.0;
/// Leg budget for every benchmark query.
const MAX_LEGS: usize = 48;

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
/// `rounds` queries traced to warm the workspace, then `rounds` more
/// counted.
fn steady_state_allocations(queries: &[StabilityQuery], rounds: usize) -> u64 {
    let mut legs = Vec::new();
    let props: Vec<Propagator> =
        queries.iter().map(|q| Propagator::for_params(&q.params)).collect();
    let mut stream = queries.iter().zip(&props).cycle().take(2 * rounds);
    harness::steady_state_allocations(allocations, rounds, || {
        stream
            .next()
            .map(|(q, prop)| {
                black_box(exact_verdict_scratch(&q.params, prop, q.max_legs, &mut legs))
            })
            .is_some()
    })
}

/// The codec row over one stream: `query_from_jsonl` over the encoded
/// `queries` and `answer_to_jsonl` over `answers` into one output
/// buffer, as `dcebcn query` streams them; returns the row and the lines
/// that fail to round-trip.
#[allow(clippy::cast_precision_loss)]
fn run_codec(queries: &[StabilityQuery], answers: &[StabilityAnswer], reps: usize) -> (Row, usize) {
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
    let (decode_s, encode_s) = (harness::time(reps, decode), harness::time(reps, encode));
    let row = Row::new("codec_zipf_hot")
        .with("lines", lines.len())
        .with("decode_s", decode_s)
        .with("encode_s", encode_s)
        .with("decode_ns_per_line", decode_s.min * 1e9 / lines.len() as f64)
        .with("encode_ns_per_line", encode_s.min * 1e9 / answers.len() as f64);
    (row, bad_queries + bad_answers)
}

/// Runs the workload `range(r)` gives on configuration range `r` and
/// records its rows: range 0 for the equivalence check (memo cold, then
/// warm), the naive loop and the warm-memo row, then a fresh range for
/// every timed batched rep, so no timed batch finds its answers in the
/// memo. Returns the serial batched speedup over the naive loop and the
/// answer mismatches.
#[allow(clippy::cast_precision_loss)]
fn run_workload(
    bench: &mut Bench,
    name: &str,
    reps: usize,
    range: impl Fn(usize) -> Vec<StabilityQuery>,
) -> (f64, usize) {
    let queries = range(0);
    let batch = QueryBatch::new(&queries);
    let naive = naive_answers(&queries);
    let bad = mismatches(&batch.evaluate_in(1), &naive) + mismatches(&batch.evaluate_in(1), &naive);
    let n = queries.len() as f64;

    let naive_s = harness::time(reps, || naive_answers(&queries));
    let mut timed = |label: &str, threads: usize, secs: Timing| {
        bench.row(
            Row::new(format!("{name}_{label}"))
                .with("threads", threads)
                .with("queries", queries.len())
                .with("distinct", batch.distinct())
                .with("secs", secs)
                .with("qps", n / secs.min)
                .with("speedup_vs_naive", naive_s.min / secs.min),
        );
    };
    timed("naive", 1, naive_s);
    let mut serial = f64::NAN;
    for (ti, threads) in THREAD_COUNTS.into_iter().enumerate() {
        let mut r = 0;
        let secs = harness::sample(reps, || {
            r += 1;
            let cold = range(ti * reps + r);
            let cold = QueryBatch::new(&cold);
            harness::time(1, || cold.evaluate_in(threads)).min
        });
        if threads == 1 {
            serial = secs.min;
        }
        timed("batched", threads, secs);
    }
    timed("warm_memo", 1, harness::time(reps, || batch.evaluate_in(1)));
    (naive_s.min / serial, bad)
}

fn main() {
    let (uniform_n, zipf_n, zipf_distinct) = sized((1_024, 2_000, 64), (8_192, 50_000, 512));
    let reps = sized(1, 3);
    let mut bench = Bench::new("query", reps);
    println!(
        "query engine benchmark: uniform {uniform_n}, zipf {zipf_n}/{zipf_distinct}, {reps} rep(s)"
    );

    // Disjoint configuration ranges: the zipf ranges first, then the
    // uniform ones, one per run that touches the answer memo.
    let ranges = 1 + THREAD_COUNTS.len() * reps;
    let zipf = |r: usize| zipf_workload(zipf_n, zipf_distinct, 1.1, r * zipf_distinct);
    let uniform = |r: usize| uniform_workload(uniform_n, ranges * zipf_distinct + r * uniform_n);

    let cache0 = bcn::query::cache_stats();
    let (hot_speedup, hot_bad) = run_workload(&mut bench, "zipf_hot", reps, zipf);
    let (_, cold_bad) = run_workload(&mut bench, "uniform_cold", reps, uniform);
    let zipf0 = zipf(0);
    let (codec_row, codec_bad) = run_codec(&zipf0, &QueryBatch::new(&zipf0).evaluate_in(1), reps);
    bench.row(codec_row);
    let memo = bcn::query::cache_stats().delta_since(cache0);
    bench.row(
        Row::new("answer_memo")
            .with("hits", memo.hits)
            .with("misses", memo.misses)
            .with("evictions", memo.evictions),
    );

    bench.gate_zero("answer_mismatches", hot_bad + cold_bad);
    bench.gate_zero("codec_mismatches", codec_bad);
    bench.gate_zero(
        "steady_state_allocations",
        steady_state_allocations(&zipf0[..zipf0.len().min(1_000)], 1_000),
    );
    bench.speed_gate("zipf_hot_serial_speedup", hot_speedup, MIN_HOT_SPEEDUP);
    bench.finish(
        "Batched serial speedup on zipf_hot comes from evaluating each distinct configuration \
         once (dedup + reused per-worker leg workspaces); on single-core hardware (see \
         machine.cores) the multi-thread rows measure scheduling overhead, not scaling. Every \
         batched row runs on configurations no earlier run asked, so the process-wide answer \
         memo is cold for it; warm_memo re-asks the equivalence range with its answers \
         resident (uniform_cold holds more distinct keys than the memo's 4096 slots, so only \
         part of it stays resident). Steady-state allocations count alloc+realloc events over \
         1000 warm-path queries. The codec row decodes every zipf_hot query line and encodes \
         every answer line (informational). Rates, ratios and per-line costs use each \
         timing's min; the secs fields keep the spread.",
    );
}
