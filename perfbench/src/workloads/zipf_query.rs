//! `zipf_query`: the `dcebcn query` serving path on a JSONL stream.
//! Nine lines in ten repeat a Zipf-skewed set of hot configurations and
//! hit the propagator cache; one in ten is a configuration never seen
//! before, which overflows the cache and forces builds and evictions.
//! No packet-engine code runs.

use std::collections::HashSet;
use std::hint::black_box;
use std::time::Instant;

use bcn::propagate::{cache_stats, CacheStats, Propagator};
use bcn::query::{
    answer_from_jsonl, answer_to_jsonl, query_from_jsonl, query_to_jsonl, QueryBatch,
    StabilityAnswer, StabilityQuery,
};
use bcn::stability::{exact_verdict, exact_verdict_scratch, theorem1_required_buffer};
use bcn::BcnParams;
use dcesim::faults::splitmix64;

use super::{
    add_cache, fill_cache, propagator_build_ns, propagator_key, secs, unattributed_unit, Unit,
    Workload,
};
use crate::metrics::Layers;
use crate::trace::Tracer;

/// Lines per chunk (the `dcebcn query --chunk` default).
const CHUNK: usize = 4096;
/// Hot configurations the Zipf draw ranges over.
const HOT: usize = 512;
/// Zipf exponent of the hot draw.
const ZIPF_S: f64 = 1.1;
/// Share of lines that carry a never-repeated configuration.
const COLD_FRAC: f64 = 0.1;
/// Leg budget of every query.
const MAX_LEGS: usize = 48;

/// The `i`-th configuration of the query family: a capacity and gain
/// perturbation of the test defaults, so every index has its own
/// propagator key at a comparable trace cost.
fn distinct_config(i: usize) -> BcnParams {
    BcnParams::test_defaults().with_capacity(1.0e6 + i as f64).with_gi(1.0 + (i % 7) as f64 * 0.25)
}

pub struct ZipfQuery {
    seed: u64,
    /// Cumulative Zipf weights over the hot ranks.
    cdf: Vec<f64>,
    next_chunk: u64,
    /// The decoded first chunk, which `setup` and `check` use.
    first: Vec<StabilityQuery>,
    cache: CacheStats,
    distinct_frac: f64,
    legs: u64,
    cold_keys: Vec<[f64; 3]>,
}

impl ZipfQuery {
    pub fn new(seed: u64) -> Self {
        let mut acc = 0.0;
        let cdf = (0..HOT)
            .map(|r| {
                acc += 1.0 / ((r + 1) as f64).powf(ZIPF_S);
                acc
            })
            .collect();
        let mut out = Self {
            seed,
            cdf,
            next_chunk: 0,
            first: Vec::new(),
            cache: CacheStats::default(),
            distinct_frac: 0.0,
            legs: 0,
            cold_keys: Vec::new(),
        };
        out.first = decode(&out.chunk(0).0).0;
        out
    }

    /// Chunk `c` of the stream, a pure function of `(seed, c)`, and the
    /// propagator keys of its cold lines. Hot lines reuse configurations
    /// `hot..hot + HOT`; cold line `l` of chunk `c` uses configuration
    /// `cold + c * CHUNK + l`, which no other line of the stream uses.
    fn chunk(&self, c: u64) -> (Vec<String>, Vec<[f64; 3]>) {
        let hot = HOT * (self.seed % 64) as usize;
        let cold = HOT * 64 + (self.seed % 64) as usize * (1 << 16);
        let mut state = splitmix64(self.seed ^ splitmix64(c + 1));
        let mut uniform = || {
            state = splitmix64(state);
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        let total = self.cdf[HOT - 1];
        let mut cold_keys = Vec::new();
        let lines = (0..CHUNK)
            .map(|l| {
                let i = if uniform() < COLD_FRAC {
                    let i = cold + c as usize * CHUNK + l;
                    cold_keys.push(propagator_key(&distinct_config(i)));
                    i
                } else {
                    let u = uniform() * total;
                    hot + self.cdf.partition_point(|&w| w < u).min(HOT - 1)
                };
                query_to_jsonl(&StabilityQuery { params: distinct_config(i), max_legs: MAX_LEGS })
            })
            .collect();
        (lines, cold_keys)
    }

    fn take_chunk(&mut self) -> (Vec<String>, Vec<[f64; 3]>) {
        self.next_chunk += 1;
        self.chunk(self.next_chunk - 1)
    }
}

/// Decodes every line, counting the ones that fail.
fn decode(lines: &[String]) -> (Vec<StabilityQuery>, u64) {
    let mut failed = 0;
    let queries =
        lines.iter().filter_map(|l| query_from_jsonl(l).map_err(|_| failed += 1).ok()).collect();
    (queries, failed)
}

fn encode(answers: &[StabilityAnswer]) -> String {
    let mut out = String::with_capacity(answers.len() * 128);
    for a in answers {
        out.push_str(&answer_to_jsonl(a));
        out.push('\n');
    }
    out
}

fn same_bits(a: &StabilityAnswer, b: &StabilityAnswer) -> bool {
    a.strongly_stable == b.strongly_stable
        && a.required_buffer.to_bits() == b.required_buffer.to_bits()
        && a.max_x.to_bits() == b.max_x.to_bits()
        && a.min_x.to_bits() == b.min_x.to_bits()
        && a.legs == b.legs
}

impl Workload for ZipfQuery {
    fn ops_per_unit(&self) -> u64 {
        CHUNK as u64
    }

    fn setup(&mut self) -> f64 {
        let t0 = Instant::now();
        let batch = QueryBatch::new(&self.first);
        let setup_s = secs(t0);
        black_box(batch);
        setup_s
    }

    fn unit(&mut self) -> Unit {
        let (lines, _) = self.take_chunk();
        let t0 = Instant::now();
        let (queries, failed) = decode(&lines);
        let batch = QueryBatch::new(&queries);
        black_box(encode(&batch.evaluate_in(1)));
        Unit { run_s: secs(t0), failed }
    }

    fn traced_unit(&mut self, tr: &mut Tracer) {
        let (lines, cold_keys) = self.take_chunk();
        let root = tr.begin("unit");
        let (queries, _) = tr.span("query.decode", || decode(&lines));
        let batch = tr.span("query.dedup", || QueryBatch::new(&queries));
        let before = cache_stats();
        let answers = tr.span("query.evaluate", || batch.evaluate_in(1));
        self.cache = add_cache(self.cache, cache_stats().delta_since(before));
        tr.span("query.encode", || black_box(encode(&answers)));
        tr.end(root);
        self.distinct_frac += batch.distinct() as f64 / batch.len() as f64;

        // The distinct queries traced again with freshly built (so the
        // cache stays untouched) propagators, then the Theorem-1 sizing.
        let mut seen = HashSet::new();
        let distinct: Vec<&StabilityQuery> = queries
            .iter()
            .zip(&lines)
            .filter(|(_, l)| seen.insert(l.as_str()))
            .map(|(q, _)| q)
            .collect();
        let props: Vec<Propagator> = distinct
            .iter()
            .map(|q| {
                let [k, a, b_c] = propagator_key(&q.params);
                Propagator::new(k, a, b_c)
            })
            .collect();
        let mut scratch = Vec::new();
        let split = tr.begin("split");
        self.legs += tr.span("stability.trace", || {
            let mut legs = 0;
            for (q, p) in distinct.iter().zip(&props) {
                legs += exact_verdict_scratch(&q.params, p, q.max_legs, &mut scratch).legs as u64;
            }
            legs
        });
        tr.span("stability.criteria", || {
            for q in &distinct {
                black_box(theorem1_required_buffer(&q.params));
            }
        });
        tr.end(split);
        self.cold_keys = cold_keys;
    }

    fn layers(&mut self, tr: &Tracer, units: usize, out: &mut Layers) {
        let per_unit = units.max(1) as f64;
        out.spans(
            tr,
            units,
            &[
                "query.decode",
                "query.dedup",
                "query.evaluate",
                "query.encode",
                "stability.trace",
                "stability.criteria",
            ],
        );
        out.set("query.distinct_frac", self.distinct_frac / per_unit);
        out.set("stability.legs", self.legs as f64 / per_unit);
        fill_cache(self.cache, units, out);
        out.set("propagate.build_ns", propagator_build_ns(&self.cold_keys));
        out.set("parkit.width", 1.0);
        out.set("trace.unattributed_frac", unattributed_unit(tr));
    }

    fn check(&mut self) -> Vec<String> {
        let queries = &self.first;
        let mut failures = Vec::new();
        if queries.len() != CHUNK {
            let failed = CHUNK - queries.len();
            failures.push(format!("{failed} query line(s) of the first chunk failed to decode"));
        }
        let answers = QueryBatch::new(queries).evaluate_in(1);
        let naive = queries.iter().map(|q| {
            let v = exact_verdict(&q.params, q.max_legs);
            StabilityAnswer {
                strongly_stable: v.strongly_stable,
                required_buffer: theorem1_required_buffer(&q.params),
                max_x: v.max_x,
                min_x: v.min_x,
                legs: v.legs,
            }
        });
        let mismatches = answers.iter().zip(naive).filter(|(a, b)| !same_bits(a, b)).count();
        if mismatches > 0 || answers.len() != queries.len() {
            failures.push(format!("{mismatches} batched answer(s) differ from the naive loop"));
        }
        let bad_lines = answers
            .iter()
            .filter(|a| !answer_from_jsonl(&answer_to_jsonl(a)).is_ok_and(|b| same_bits(a, &b)))
            .count();
        if bad_lines > 0 {
            failures.push(format!("{bad_lines} answer line(s) do not re-decode to the answer"));
        }
        failures
    }
}
