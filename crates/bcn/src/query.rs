//! Batched stability queries — the criterion atlas as a serving surface.
//!
//! The ROADMAP's production framing of Theorem 1 asks, for a stream of
//! parameter sets `(Ru, Gi, N, Gd, C, q0, B)`: *is this configuration
//! strongly stable, how much buffer does Theorem 1 demand, and how far
//! does the queue excursion actually swing?* One such answer is cheap
//! (~µs with the closed-form propagator), so the engineering problem is
//! throughput: answering millions of queries per second without
//! per-query allocation or lock traffic.
//!
//! * [`StabilityQuery`] / [`StabilityAnswer`] — the wire-level unit: a
//!   full parameter set plus a leg budget in; verdict, Theorem-1 required
//!   buffer, exact excursion envelope, and legs traced out.
//! * [`QueryBatch`] — the structure-of-arrays batch kernel:
//!   bit-identical duplicate queries are answered once and scattered
//!   back to input order, and the traces run on `parkit` with a
//!   per-worker [`QueryWorkspace`] so the steady state allocates
//!   nothing. Every answer is a pure function of its own query, so the
//!   output vector is bit-identical at any thread count and invariant
//!   under deduplication and memoisation.
//! * The answer memo — process-wide and keyed by a query's full bit
//!   pattern (leg budget included), so a configuration is traced once per
//!   process, not once per batch. Fixed-size and set-associative: 16
//!   shards (one lock each) × 64 sets × 4 ways = 4096 answers, a
//!   second-chance bit per slot, a CLOCK hand per set, and each key stored
//!   once, in its slot. It holds answers, not propagators, because a
//!   trace costs ~3 µs at 48 legs, ~10× a propagator build (~270 ns,
//!   a few memo hits). [`cache_stats`] sums its traffic.
//! * [`query_to_jsonl`]/[`answer_from_jsonl`] and friends — a flat JSONL
//!   codec on `telemetry`'s record reader and number formatter
//!   (schema-v2 header, `{v:?}` floats with `NaN`/`inf`/`-inf` tokens) whose
//!   decode → re-encode cycle is byte-identical, so streamed answer
//!   files can be diffed and round-tripped losslessly. A decoder walks
//!   the parsed fields once, resolving each key with one `match` into
//!   its slot: the first occurrence of a key fills the slot, a later
//!   duplicate is skipped unread, and any key without a slot is an
//!   unknown-field error. An encoder writes into one `String`, literals
//!   with `push_str` and numbers with `write!` through `FmtNum`.
//!
//! The `dcebcn query` subcommand wraps this module as a streaming CLI
//! (JSONL in, JSONL out, bounded memory via chunked reads); `bench --bin
//! query_engine` gates its throughput against the naive per-call loop.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::{Mutex, MutexGuard, OnceLock};

use telemetry::{FmtNum, JsonlError, Record, Scalar};

use crate::params::BcnParams;
use crate::propagate::Propagator;
use crate::rounds::Leg;
use crate::stability::{exact_verdict_scratch, theorem1_required_buffer};

/// Default leg budget per query: enough for every atlas case to settle
/// or visibly diverge (spiral cases contract geometrically; node cases
/// finish in two legs).
pub const DEFAULT_MAX_LEGS: usize = 64;

/// The largest `max_legs` a query line may ask: far past the 39,020 legs
/// the paper's worked example traces to the `1e-12` stop.
pub const MAX_LEGS_LIMIT: usize = 1 << 20;

/// One stability question: a full parameter set plus the leg budget for
/// the exact trace.
#[derive(Debug, Clone, PartialEq)]
pub struct StabilityQuery {
    /// The configuration being asked about.
    pub params: BcnParams,
    /// Maximum switched-trajectory legs to trace for the exact verdict.
    pub max_legs: usize,
}

impl StabilityQuery {
    /// A query with the default leg budget.
    #[must_use]
    pub fn new(params: BcnParams) -> Self {
        Self { params, max_legs: DEFAULT_MAX_LEGS }
    }
}

/// The answer to one [`StabilityQuery`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StabilityAnswer {
    /// Whether the exact switched trajectory keeps `0 < q < B` for all
    /// `t > 0` (ground truth, not the one-sided criterion).
    pub strongly_stable: bool,
    /// The buffer Theorem 1 requires: `(1 + sqrt(a/bC)) q0`.
    pub required_buffer: f64,
    /// Largest queue excursion `x = q - q0` observed.
    pub max_x: f64,
    /// Smallest excursion observed (after the start instant).
    pub min_x: f64,
    /// Number of legs actually traced.
    pub legs: usize,
}

/// Per-worker scratch reused across queries: the leg buffer grows to the
/// workload's deepest trace once, then every further query traces into
/// it without touching the allocator.
#[derive(Debug, Default)]
pub struct QueryWorkspace {
    legs: Vec<Leg>,
}

/// A batch of deduplicated queries, ready to evaluate.
///
/// Construction walks the queries once, deduplicating bit-identical
/// full queries (distinct slots numbered in first-seen input order, so
/// the layout is input-deterministic). Evaluation answers each
/// *distinct* query once — from the process-wide answer memo, else by
/// tracing it — and scatters the answers back to input order, so under
/// a Zipf-skewed query mix the leg tracing collapses to the
/// configurations the process has not answered yet. Every answer is a pure function of its query
/// alone, so neither deduplication nor the memo can change a result.
#[derive(Debug)]
pub struct QueryBatch<'a> {
    queries: &'a [StabilityQuery],
    /// Distinct-query slot of each query, parallel to `queries`.
    unique_of: Vec<u32>,
    /// Representative query index per distinct slot, first-seen order.
    unique_idx: Vec<u32>,
}

/// The full bit pattern of a query: every parameter field plus the leg
/// budget. Two queries with equal keys are the same question.
fn query_key(q: &StabilityQuery) -> [u64; 11] {
    let p = &q.params;
    [
        u64::from(p.n_flows),
        p.capacity.to_bits(),
        p.q0.to_bits(),
        p.buffer.to_bits(),
        p.gi.to_bits(),
        p.gd.to_bits(),
        p.ru.to_bits(),
        p.w.to_bits(),
        p.pm.to_bits(),
        p.qsc.to_bits(),
        q.max_legs as u64,
    ]
}

/// Answer-memo geometry: 16 shards (one lock each, so contention stays
/// negligible at `parkit`'s widths) × 64 sets × 4 ways = 4096 answers,
/// allocated once per shard on first use.
const MEMO_SHARDS: usize = 16;
const MEMO_SETS: usize = 64;
const MEMO_WAYS: usize = 4;

/// A resident answer, the full key it answers and its CLOCK reference
/// bit, which grants it a second chance on eviction.
#[derive(Clone, Copy)]
struct Way {
    key: [u64; 11],
    answer: StabilityAnswer,
    referenced: bool,
}

/// One lock's worth of the memo: its sets' ways, one CLOCK hand per set,
/// and its share of the counters.
struct Shard {
    ways: Vec<Option<Way>>,
    hands: [u8; MEMO_SETS],
    stats: CacheStats,
}

fn memo() -> &'static [Mutex<Shard>; MEMO_SHARDS] {
    static MEMO: OnceLock<[Mutex<Shard>; MEMO_SHARDS]> = OnceLock::new();
    MEMO.get_or_init(|| {
        std::array::from_fn(|_| {
            let ways = vec![None; MEMO_SETS * MEMO_WAYS];
            Mutex::new(Shard { ways, hands: [0; MEMO_SETS], stats: CacheStats::default() })
        })
    })
}

fn lock(shard: &Mutex<Shard>) -> MutexGuard<'_, Shard> {
    shard.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// The hash of query keys, in the answer memo and in
/// [`QueryBatch::new`]'s dedup map: each word folded in, then the
/// splitmix64 finaliser, since keys inside one sweep differ in a few
/// mantissa bits of one or two fields. It is unkeyed, so a stream
/// crafted to collide degrades a batch's map to quadratic compares;
/// a batch is one `dcebcn query` chunk, which bounds that cost.
#[derive(Default)]
struct KeyHasher(u64);

impl Hasher for KeyHasher {
    #[inline]
    fn write_u64(&mut self, w: u64) {
        self.0 = (self.0.rotate_left(5) ^ w).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    }

    /// A `[u64; 11]` map key arrives as its length, then its words'
    /// bytes in one slice: one fold per word.
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut w = [0; 8];
            w[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_ne_bytes(w));
        }
    }

    #[inline]
    fn finish(&self) -> u64 {
        let mut h = self.0;
        h = (h ^ (h >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        h = (h ^ (h >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        h ^ (h >> 31)
    }
}

/// The shard and set of `key`.
fn memo_slot(key: &[u64; 11]) -> (usize, usize) {
    let mut hasher = KeyHasher::default();
    key.iter().for_each(|&w| hasher.write_u64(w));
    let h = hasher.finish();
    (h as usize & (MEMO_SHARDS - 1), (h >> 32) as usize & (MEMO_SETS - 1))
}

/// The resident answer to `key`, if any, marking it referenced.
fn memo_get(key: &[u64; 11]) -> Option<StabilityAnswer> {
    let (shard, set) = memo_slot(key);
    let mut s = lock(&memo()[shard]);
    let ways = &mut s.ways[set * MEMO_WAYS..][..MEMO_WAYS];
    let found = ways.iter_mut().flatten().find(|w| w.key == *key).map(|w| {
        w.referenced = true;
        w.answer
    });
    let counter = if found.is_some() { &mut s.stats.hits } else { &mut s.stats.misses };
    *counter += 1;
    found
}

/// Admits `answer` into a free way of its set, else over the first way
/// the set's CLOCK hand finds unreferenced since its last sweep. A new
/// answer enters unreferenced, so one never asked again goes first.
fn memo_insert(key: &[u64; 11], answer: StabilityAnswer) {
    let (shard, set) = memo_slot(key);
    let mut guard = lock(&memo()[shard]);
    let s = &mut *guard;
    let ways = &mut s.ways[set * MEMO_WAYS..][..MEMO_WAYS];
    if ways.iter().flatten().any(|w| w.key == *key) {
        return; // a racing batch answered it first, with the same bits
    }
    let fresh = Way { key: *key, answer, referenced: false };
    if let Some(free) = ways.iter_mut().find(|w| w.is_none()) {
        *free = Some(fresh);
        return;
    }
    // Strip reference bits until the hand finds a way already clear.
    let hand = &mut s.hands[set];
    while let Some(way) = &mut ways[usize::from(*hand)] {
        *hand = (*hand + 1) % MEMO_WAYS as u8;
        if !std::mem::take(&mut way.referenced) {
            *way = fresh;
            s.stats.evictions += 1;
            return;
        }
    }
}

/// Cumulative answer-memo counters since process start, summed across
/// shards. The counters are global, so deltas (see
/// [`CacheStats::delta_since`]) — not absolutes — are the meaningful
/// quantity in tests and benchmarks.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Distinct queries answered by a resident answer.
    pub hits: u64,
    /// Distinct queries that had to be traced.
    pub misses: u64,
    /// Resident answers recycled by a CLOCK hand to admit a new one.
    pub evictions: u64,
}

impl CacheStats {
    /// The counter increments accumulated since `earlier` was sampled.
    #[must_use]
    pub fn delta_since(self, earlier: CacheStats) -> CacheStats {
        CacheStats {
            hits: self.hits.saturating_sub(earlier.hits),
            misses: self.misses.saturating_sub(earlier.misses),
            evictions: self.evictions.saturating_sub(earlier.evictions),
        }
    }
}

/// Samples the answer-memo counters across all shards.
#[must_use]
pub fn cache_stats() -> CacheStats {
    memo().iter().fold(CacheStats::default(), |acc, shard| {
        let s = lock(shard).stats;
        CacheStats {
            hits: acc.hits + s.hits,
            misses: acc.misses + s.misses,
            evictions: acc.evictions + s.evictions,
        }
    })
}

impl<'a> QueryBatch<'a> {
    /// Deduplicates bit-identical repeats in `queries`, computing and
    /// hashing each query's key once.
    #[must_use]
    pub fn new(queries: &'a [StabilityQuery]) -> Self {
        let mut uniques: HashMap<[u64; 11], u32, BuildHasherDefault<KeyHasher>> =
            HashMap::default();
        let mut unique_of = Vec::with_capacity(queries.len());
        let mut unique_idx: Vec<u32> = Vec::new();
        for (i, q) in queries.iter().enumerate() {
            let next_u = unique_idx.len() as u32;
            let u = *uniques.entry(query_key(q)).or_insert_with(|| {
                unique_idx.push(i as u32);
                next_u
            });
            unique_of.push(u);
        }
        Self { queries, unique_of, unique_idx }
    }

    /// Number of queries in the batch.
    #[must_use]
    pub fn len(&self) -> usize {
        self.queries.len()
    }

    /// Whether the batch is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.queries.is_empty()
    }

    /// Number of distinct full queries — the most traces evaluation will
    /// perform (duplicates are answered by scatter, and answers the memo
    /// holds are not traced again).
    #[must_use]
    pub fn distinct(&self) -> usize {
        self.unique_idx.len()
    }

    /// Evaluates the batch at the configured `parkit` width
    /// (`--threads` > `DCE_BCN_THREADS` > all cores).
    #[must_use]
    pub fn evaluate(&self) -> Vec<StabilityAnswer> {
        self.evaluate_in(parkit::configured_threads())
    }

    /// Evaluates the batch on an explicit worker count (0 or 1 runs inline),
    /// bypassing the global configuration — the thread-equivalence tests
    /// use this to compare widths without mutating process state.
    ///
    /// Each distinct query is first looked up in the process-wide answer
    /// memo; only the misses are traced (fanned out across the workers)
    /// and their answers inserted. An answer is a pure function of its
    /// key, so hits, misses and racing inserts all yield the same bits.
    #[must_use]
    pub fn evaluate_in(&self, threads: usize) -> Vec<StabilityAnswer> {
        let key = |u: usize| query_key(&self.queries[self.unique_idx[u] as usize]);
        let mut uniq: Vec<Option<StabilityAnswer>> =
            (0..self.unique_idx.len()).map(|u| memo_get(&key(u))).collect();
        let misses: Vec<usize> = (0..uniq.len()).filter(|&u| uniq[u].is_none()).collect();
        let traced =
            parkit::par_map_init_in(threads, misses.len(), QueryWorkspace::default, |ws, j| {
                self.answer_one(ws, self.unique_idx[misses[j]] as usize)
            });
        for (&u, answer) in misses.iter().zip(traced) {
            memo_insert(&key(u), answer);
            uniq[u] = Some(answer);
        }
        self.unique_of
            .iter()
            .map(|&u| uniq[u as usize].expect("every distinct query answered"))
            .collect()
    }

    /// Traces query `i` with a freshly built propagator: a build costs
    /// ~270 ns against the ~3 µs trace it serves.
    fn answer_one(&self, ws: &mut QueryWorkspace, i: usize) -> StabilityAnswer {
        let q = &self.queries[i];
        let v = exact_verdict_scratch(
            &q.params,
            &Propagator::for_params(&q.params),
            q.max_legs,
            &mut ws.legs,
        );
        StabilityAnswer {
            strongly_stable: v.strongly_stable,
            required_buffer: theorem1_required_buffer(&q.params),
            max_x: v.max_x,
            min_x: v.min_x,
            legs: v.legs,
        }
    }
}

/// Answers a batch of queries; `answers[i]` corresponds to
/// `queries[i]`, bit-identical at any thread count. See [`QueryBatch`]
/// for the batching mechanics.
#[must_use]
pub fn evaluate_batch(queries: &[StabilityQuery]) -> Vec<StabilityAnswer> {
    QueryBatch::new(queries).evaluate()
}

/// Serializes one query to a JSONL line (no trailing newline). Floats
/// use the shortest exact round-trip form, so
/// `query_to_jsonl(query_from_jsonl(line))` reproduces `line` byte for
/// byte whenever `line` came from this encoder.
#[must_use]
pub fn query_to_jsonl(q: &StabilityQuery) -> String {
    let p = &q.params;
    // Twice the 97 literal bytes, as `format!` reserved: room for the
    // query families' numbers, and a line of longer ones regrows once.
    let mut line = String::with_capacity(194);
    line.push_str(r#"{"type":"query","n":"#);
    let _ = write!(line, "{}", p.n_flows);
    for (key, v) in [
        (r#","capacity":"#, p.capacity),
        (r#","q0":"#, p.q0),
        (r#","buffer":"#, p.buffer),
        (r#","gi":"#, p.gi),
        (r#","gd":"#, p.gd),
        (r#","ru":"#, p.ru),
        (r#","w":"#, p.w),
        (r#","pm":"#, p.pm),
        (r#","qsc":"#, p.qsc),
    ] {
        line.push_str(key);
        let _ = write!(line, "{}", FmtNum(v));
    }
    line.push_str(r#","max_legs":"#);
    let _ = write!(line, "{}", q.max_legs);
    line.push('}');
    line
}

/// Serializes one answer to a JSONL line (no trailing newline), with
/// the same byte-identical re-encode guarantee as [`query_to_jsonl`].
#[must_use]
pub fn answer_to_jsonl(a: &StabilityAnswer) -> String {
    // Twice the 72 literal bytes, as `format!` reserved.
    let mut line = String::with_capacity(144);
    line.push_str(r#"{"type":"answer","stable":"#);
    line.push_str(if a.strongly_stable { "true" } else { "false" });
    for (key, v) in [
        (r#","required_buffer":"#, a.required_buffer),
        (r#","max_x":"#, a.max_x),
        (r#","min_x":"#, a.min_x),
    ] {
        line.push_str(key);
        let _ = write!(line, "{}", FmtNum(v));
    }
    line.push_str(r#","legs":"#);
    let _ = write!(line, "{}", a.legs);
    line.push('}');
    line
}

/// Walks the fields of a record already checked to be of type `ty`
/// once, putting the first occurrence of each key into the slot
/// `slot_of` gives it; a later duplicate is skipped unread.
///
/// # Errors
///
/// Fails on the first key (duplicates included) with no slot.
fn fill_slots<'a, const N: usize>(
    r: &Record<'a>,
    ty: &str,
    slot_of: impl Fn(&str) -> Option<usize>,
) -> Result<[Option<Scalar<'a>>; N], JsonlError> {
    let mut slots = [None; N];
    for &(key, value) in r.fields() {
        let i = slot_of(key).ok_or_else(|| JsonlError(format!("unknown {ty} field `{key}`")))?;
        slots[i].get_or_insert(value);
    }
    Ok(slots)
}

/// The value in a required field's slot.
fn required<'a>(slot: Option<Scalar<'a>>, key: &str) -> Result<Scalar<'a>, JsonlError> {
    slot.ok_or_else(|| JsonlError(format!("missing field `{key}`")))
}

/// Parses one query line. Omitted parameter fields fall back to
/// [`BcnParams::paper_defaults`] (so a minimal line like
/// `{"type":"query","gi":2.0,"gd":0.03}` asks about a gain override of
/// the paper's worked example); an omitted `max_legs` falls back to
/// [`DEFAULT_MAX_LEGS`]. The assembled parameters are validated. The
/// first occurrence of a key wins.
///
/// # Errors
///
/// Fails on malformed JSON, a wrong `type`, an unknown field, non-scalar
/// values, parameters that fail [`BcnParams::validate`], or a `max_legs`
/// above [`MAX_LEGS_LIMIT`].
pub fn query_from_jsonl(line: &str) -> Result<StabilityQuery, JsonlError> {
    let r = Record::parse(line)?;
    r.expect_type("query")?;
    let [_, n, capacity, q0, buffer, gi, gd, ru, w, pm, qsc, max_legs] =
        fill_slots(&r, "query", |key| {
            Some(match key {
                "type" => 0,
                "n" => 1,
                "capacity" => 2,
                "q0" => 3,
                "buffer" => 4,
                "gi" => 5,
                "gd" => 6,
                "ru" => 7,
                "w" => 8,
                "pm" => 9,
                "qsc" => 10,
                "max_legs" => 11,
                _ => return None,
            })
        })?;
    let mut p = BcnParams::paper_defaults();
    if let Some(n) = n {
        p.n_flows = n.as_u32("n")?;
    }
    for (key, value, slot) in [
        ("capacity", capacity, &mut p.capacity),
        ("q0", q0, &mut p.q0),
        ("buffer", buffer, &mut p.buffer),
        ("gi", gi, &mut p.gi),
        ("gd", gd, &mut p.gd),
        ("ru", ru, &mut p.ru),
        ("w", w, &mut p.w),
        ("pm", pm, &mut p.pm),
        ("qsc", qsc, &mut p.qsc),
    ] {
        if let Some(v) = value {
            *slot = v.as_f64(key)?;
        }
    }
    p.validate().map_err(|e| JsonlError(format!("invalid query parameters: {e}")))?;
    let max_legs = match max_legs.map(|v| v.as_u64("max_legs")).transpose()? {
        Some(n) if n <= MAX_LEGS_LIMIT as u64 => n as usize,
        Some(n) => {
            return Err(JsonlError(format!(
                "field `max_legs` out of range: {n} > {MAX_LEGS_LIMIT}"
            )))
        }
        None => DEFAULT_MAX_LEGS,
    };
    Ok(StabilityQuery { params: p, max_legs })
}

/// Parses one answer line (the inverse of [`answer_to_jsonl`]). The
/// first occurrence of a key wins.
///
/// # Errors
///
/// Fails on malformed JSON, a wrong `type`, an unknown field, or a
/// missing/mistyped value.
pub fn answer_from_jsonl(line: &str) -> Result<StabilityAnswer, JsonlError> {
    let r = Record::parse(line)?;
    r.expect_type("answer")?;
    let [_, stable, required_buffer, max_x, min_x, legs] = fill_slots(&r, "answer", |key| {
        Some(match key {
            "type" => 0,
            "stable" => 1,
            "required_buffer" => 2,
            "max_x" => 3,
            "min_x" => 4,
            "legs" => 5,
            _ => return None,
        })
    })?;
    Ok(StabilityAnswer {
        strongly_stable: required(stable, "stable")?.as_bool("stable")?,
        required_buffer: required(required_buffer, "required_buffer")?.as_f64("required_buffer")?,
        max_x: required(max_x, "max_x")?.as_f64("max_x")?,
        min_x: required(min_x, "min_x")?.as_f64("min_x")?,
        legs: usize::try_from(required(legs, "legs")?.as_u64("legs")?)
            .map_err(|_| JsonlError("field `legs` out of range".into()))?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stability::exact_verdict;

    fn mixed_queries() -> Vec<StabilityQuery> {
        let base = BcnParams::test_defaults();
        let mut qs = Vec::new();
        for i in 0..40u32 {
            // A Zipf-flavoured mix: most queries revisit a handful of
            // configurations, a few are unique.
            let p = match i % 5 {
                0 | 1 => base.clone(),
                2 => base.clone().with_gi(2.0),
                3 => base.clone().with_gd(0.05),
                _ => base.clone().with_capacity(1.0e9 + f64::from(i)),
            };
            qs.push(StabilityQuery { params: p, max_legs: 48 });
        }
        qs
    }

    #[test]
    fn batch_matches_serial_loop_bitwise() {
        let qs = mixed_queries();
        // 3 repeated configurations + 8 unique capacities (i % 5 == 4).
        let dedup = QueryBatch::new(&qs);
        assert_eq!((dedup.len(), dedup.distinct()), (40, 11));
        let batch = evaluate_batch(&qs);
        for (q, got) in qs.iter().zip(&batch) {
            let v = exact_verdict(&q.params, q.max_legs);
            assert_eq!(got.strongly_stable, v.strongly_stable);
            assert_eq!(got.max_x.to_bits(), v.max_x.to_bits());
            assert_eq!(got.min_x.to_bits(), v.min_x.to_bits());
            assert_eq!(got.legs, v.legs);
            assert_eq!(
                got.required_buffer.to_bits(),
                theorem1_required_buffer(&q.params).to_bits()
            );
        }
    }

    #[test]
    fn dedup_distinguishes_queries_sharing_a_propagator_group() {
        // Same parameters, different leg budgets: the derived (k, a, bC)
        // is shared — one propagator — but these are different questions, so
        // dedup must keep them apart and the traced leg counts differ.
        let base = BcnParams::test_defaults();
        let qs = vec![
            StabilityQuery::new(base.clone()),
            StabilityQuery { params: base.clone(), max_legs: 1 },
            StabilityQuery::new(base.clone()),
        ];
        let batch = QueryBatch::new(&qs);
        assert_eq!(batch.distinct(), 2);
        let answers = batch.evaluate();
        assert_eq!(answers[0], answers[2]);
        assert_eq!(answers[0].max_x.to_bits(), answers[2].max_x.to_bits());
        assert_eq!(answers[1].legs, 1);
        assert!(answers[0].legs > 1, "default budget should trace past the first switch");
        // Dedup is invisible in the results: the per-call path agrees.
        for (q, a) in qs.iter().zip(&answers) {
            let v = exact_verdict(&q.params, q.max_legs);
            assert_eq!(a.legs, v.legs);
            assert_eq!(a.max_x.to_bits(), v.max_x.to_bits());
        }
    }

    #[test]
    fn explicit_widths_are_bit_identical() {
        let qs = mixed_queries();
        let batch = QueryBatch::new(&qs);
        let serial = batch.evaluate_in(1);
        let wide = batch.evaluate_in(4);
        assert_eq!(serial, wide);
        for (a, b) in serial.iter().zip(&wide) {
            assert_eq!(a.max_x.to_bits(), b.max_x.to_bits());
            assert_eq!(a.min_x.to_bits(), b.min_x.to_bits());
            assert_eq!(a.required_buffer.to_bits(), b.required_buffer.to_bits());
        }
    }

    /// The naive per-call answer the memo must reproduce bit for bit.
    fn naive(q: &StabilityQuery) -> StabilityAnswer {
        let v = exact_verdict(&q.params, q.max_legs);
        StabilityAnswer {
            strongly_stable: v.strongly_stable,
            required_buffer: theorem1_required_buffer(&q.params),
            max_x: v.max_x,
            min_x: v.min_x,
            legs: v.legs,
        }
    }

    fn answer_bits(a: &StabilityAnswer) -> (bool, u64, u64, u64, usize) {
        (
            a.strongly_stable,
            a.required_buffer.to_bits(),
            a.max_x.to_bits(),
            a.min_x.to_bits(),
            a.legs,
        )
    }

    fn assert_naive(qs: &[StabilityQuery], threads: usize, what: &str) {
        let got = QueryBatch::new(qs).evaluate_in(threads);
        assert_eq!(got.len(), qs.len(), "{what}");
        for (i, (q, a)) in qs.iter().zip(&got).enumerate() {
            assert_eq!(
                answer_bits(a),
                answer_bits(&naive(q)),
                "{what}, width {threads}, query {i}"
            );
        }
    }

    #[test]
    fn memo_answers_match_the_naive_loop_cold_warm_and_churned() {
        let capacity = MEMO_SHARDS * MEMO_SETS * MEMO_WAYS;
        for (w, threads) in [1usize, 4].into_iter().enumerate() {
            // Capacities no other test uses, so the first pass is cold.
            let config = |i: usize, max_legs: usize| StabilityQuery {
                params: BcnParams::test_defaults()
                    .with_capacity(3.0e6 + (w * 4 * capacity + i) as f64)
                    .with_gi(1.0 + (i % 7) as f64 * 0.25),
                max_legs,
            };
            let hot: Vec<StabilityQuery> = (0..96).map(|i| config(i % 64, 48)).collect();
            let c0 = cache_stats();
            assert_naive(&hot, threads, "cold");
            let c1 = cache_stats();
            assert!(c1.misses - c0.misses >= 64, "a cold pass traces every distinct query");
            assert_naive(&hot, threads, "warm");
            assert!(cache_stats().hits - c1.hits >= 64, "a warm pass is answered from the memo");
            // Three times the memo's capacity of short traces: every set
            // overflows, so the CLOCK hands must recycle slots.
            let churn: Vec<StabilityQuery> =
                (64..64 + 3 * capacity).map(|i| config(i, 4)).collect();
            let c2 = cache_stats();
            assert_naive(&churn, threads, "churn");
            assert!(cache_stats().evictions > c2.evictions, "overflowing the memo must evict");
            assert_naive(&hot, threads, "after churn");
        }
    }

    #[test]
    fn memo_keeps_queries_sharing_a_propagator_apart() {
        // An unusual capacity so no other test shares these keys. q0,
        // the buffer and the leg budget stay out of the propagator key
        // but each changes the answer, so each variant needs its own slot.
        let params = BcnParams::test_defaults().with_capacity(2.345_678e6).with_buffer(1.0e9);
        let base = StabilityQuery { params: params.clone(), max_legs: 48 };
        let first = naive(&base);
        assert!(first.strongly_stable && first.legs > 2, "{first:?}");
        let variants = [
            StabilityQuery { params: params.clone().with_q0(1.5e4), max_legs: 48 },
            StabilityQuery {
                params: params.clone().with_buffer(params.q0 + 0.5 * first.max_x),
                max_legs: 48,
            },
            StabilityQuery { params: params.clone(), max_legs: 2 },
        ];
        for v in &variants {
            assert_eq!(Propagator::for_params(&v.params), Propagator::for_params(&params), "{v:?}");
            assert_ne!(answer_bits(&naive(v)), answer_bits(&first), "{v:?}");
        }
        // The base answer is resident before each variant is asked alone.
        for v in &variants {
            assert_naive(std::slice::from_ref(&base), 1, "base");
            assert_naive(std::slice::from_ref(v), 1, &format!("{v:?}"));
        }
    }

    #[test]
    fn memo_lookups_compare_the_whole_key() {
        // Twins of a resident query that differ only in the key's last
        // word (the leg budget) and share its set: only the stored key's
        // tail tells them apart.
        let params = BcnParams::test_defaults().with_capacity(3.456_789e6);
        let base = StabilityQuery { params: params.clone(), max_legs: 2 };
        let slot = memo_slot(&query_key(&base));
        let twins: Vec<StabilityQuery> = (3..20_000)
            .map(|max_legs| StabilityQuery { params: params.clone(), max_legs })
            .filter(|q| memo_slot(&query_key(q)) == slot)
            .take(4)
            .collect();
        assert!(!twins.is_empty(), "no twin shares the set");
        for twin in &twins {
            assert_ne!(answer_bits(&naive(twin)), answer_bits(&naive(&base)), "{twin:?}");
            assert_naive(std::slice::from_ref(&base), 1, "base");
            assert_naive(std::slice::from_ref(twin), 1, &format!("{twin:?}"));
        }
    }

    #[test]
    fn query_jsonl_round_trips_byte_identically() {
        let q = StabilityQuery::new(BcnParams::paper_defaults());
        let line = query_to_jsonl(&q);
        let decoded = query_from_jsonl(&line).expect("decode");
        assert_eq!(decoded, q);
        assert_eq!(query_to_jsonl(&decoded), line, "re-encode must be byte-identical");
    }

    #[test]
    fn answer_jsonl_round_trips_byte_identically() {
        let qs = mixed_queries();
        for a in evaluate_batch(&qs) {
            let line = answer_to_jsonl(&a);
            let decoded = answer_from_jsonl(&line).expect("decode");
            assert_eq!(decoded, a);
            assert_eq!(answer_to_jsonl(&decoded), line, "re-encode must be byte-identical");
        }
        // Non-finite excursions survive the trip too.
        let weird = StabilityAnswer {
            strongly_stable: false,
            required_buffer: f64::INFINITY,
            max_x: f64::NAN,
            min_x: f64::NEG_INFINITY,
            legs: 0,
        };
        let line = answer_to_jsonl(&weird);
        let decoded = answer_from_jsonl(&line).expect("decode");
        assert_eq!(answer_to_jsonl(&decoded), line);
    }

    #[test]
    fn codec_lines_match_per_number_formatting() {
        // The lines as written with one `fmt_num` String per number.
        let answer_line = |a: &StabilityAnswer| {
            format!(
                r#"{{"type":"answer","stable":{},"required_buffer":{},"max_x":{},"min_x":{},"legs":{}}}"#,
                a.strongly_stable,
                telemetry::fmt_num(a.required_buffer),
                telemetry::fmt_num(a.max_x),
                telemetry::fmt_num(a.min_x),
                a.legs,
            )
        };
        let query_line = |q: &StabilityQuery| {
            let p = &q.params;
            let nums = [p.capacity, p.q0, p.buffer, p.gi, p.gd, p.ru, p.w, p.pm, p.qsc];
            let keys = ["capacity", "q0", "buffer", "gi", "gd", "ru", "w", "pm", "qsc"];
            let mut line = format!(r#"{{"type":"query","n":{}"#, p.n_flows);
            for (k, v) in keys.iter().zip(nums) {
                line.push_str(&format!(r#","{k}":{}"#, telemetry::fmt_num(v)));
            }
            line + &format!(r#","max_legs":{}}}"#, q.max_legs)
        };
        let special = [
            0.0,
            -0.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            f64::from_bits(0xfff8_dead_beef_0001),
            f64::from_bits(1),
            -f64::MIN_POSITIVE.next_down(),
        ];
        // Seeded splitmix64 draws: every third one a special value.
        let mut state = 0x51ee_d0c5_u64;
        let mut draw = |i: usize| {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = (state ^ (state >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^= z >> 31;
            if i.is_multiple_of(3) {
                special[(z % special.len() as u64) as usize]
            } else {
                f64::from_bits(z)
            }
        };
        for case in 0..20_000 {
            let a = StabilityAnswer {
                strongly_stable: case % 2 == 0,
                required_buffer: draw(case),
                max_x: draw(case + 1),
                min_x: draw(case + 2),
                legs: case,
            };
            assert_eq!(answer_to_jsonl(&a), answer_line(&a), "case {case}");
            let mut p = BcnParams::paper_defaults();
            for slot in [
                &mut p.capacity,
                &mut p.q0,
                &mut p.buffer,
                &mut p.gi,
                &mut p.gd,
                &mut p.ru,
                &mut p.w,
                &mut p.pm,
                &mut p.qsc,
            ] {
                *slot = draw(case);
            }
            let q = StabilityQuery { params: p, max_legs: case };
            assert_eq!(query_to_jsonl(&q), query_line(&q), "case {case}");
        }
    }

    #[test]
    fn max_legs_past_the_limit_is_refused_at_once() {
        let line = |n: u64| format!(r#"{{"type":"query","w":1e-9,"max_legs":{n}}}"#);
        let start = std::time::Instant::now();
        let err = query_from_jsonl(&line(100_000_000)).expect_err("1e8 legs");
        assert_eq!(err.0, "field `max_legs` out of range: 100000000 > 1048576");
        assert!(start.elapsed().as_secs_f64() < 1.0, "decoding took {:?}", start.elapsed());
        assert!(query_from_jsonl(&line(1 << 53)).is_err());
        let q = query_from_jsonl(&line(1 << 20)).expect("the limit itself");
        assert_eq!(q.max_legs, MAX_LEGS_LIMIT);
        assert!(query_from_jsonl(&line((1 << 20) + 1)).is_err());
    }

    #[test]
    fn sparse_query_lines_inherit_paper_defaults() {
        let q = query_from_jsonl(r#"{"type":"query","gi":2.0}"#).expect("decode");
        let mut expect = BcnParams::paper_defaults();
        expect.gi = 2.0;
        assert_eq!(q.params, expect);
        assert_eq!(q.max_legs, DEFAULT_MAX_LEGS);
    }

    #[test]
    fn decoders_pin_duplicates_trailing_commas_whitespace_and_tokens() {
        let gi = |line: &str| query_from_jsonl(line).map(|q| q.params.gi);
        // The first occurrence of a key wins, and a later duplicate is
        // never read, whatever its value.
        assert_eq!(gi(r#"{"type":"query","gi":2.0,"gi":3.0}"#), Ok(2.0));
        assert_eq!(gi(r#"{"type":"query","gi":2.0,"gi":"x"}"#), Ok(2.0));
        assert_eq!(gi(r#"{"type":"query","gi":2.0,"n":4,"n":2.5}"#), Ok(2.0));
        assert_eq!(gi(r#"{"type":"query","gi":2.0,"type":"answer"}"#), Ok(2.0));
        assert!(gi(r#"{"type":"query","gi":"x","gi":2.0}"#).is_err());
        let legs = |line: &str| answer_from_jsonl(line).map(|a| a.legs);
        let answer = r#"{"type":"answer","stable":true,"required_buffer":1.0,"max_x":0.5,"min_x":-0.5,"legs":3"#;
        assert_eq!(legs(&format!(r#"{answer},"legs":-1,"stable":7}}"#)), Ok(3));
        // Every key, duplicates included, must be known, including one
        // after a duplicate.
        assert!(gi(r#"{"type":"query","gi":2.0,"gi":3.0,"bogus":1}"#).is_err());
        assert!(legs(&format!(r#"{answer},"legs":3,"bogus":1}}"#)).is_err());
        // A trailing comma is accepted.
        assert_eq!(gi(r#"{"type":"query","gi":2.0,}"#), Ok(2.0));
        assert_eq!(legs(&format!("{answer},}}")), Ok(3));
        // `str::trim` whitespace around every token.
        for ws in ["\x0B", "\u{A0}", "\u{2003}"] {
            let line = format!(
                "{ws}{{{ws}\"type\"{ws}:{ws}\"query\"{ws},{ws}\"gi\"{ws}:{ws}2.0{ws},\"n\":{ws}7{ws}}}{ws}"
            );
            let q = query_from_jsonl(&line).unwrap_or_else(|e| panic!("{line:?}: {e}"));
            assert_eq!((q.params.gi, q.params.n_flows), (2.0, 7), "{line:?}");
        }
        // Number tokens: core's float grammar plus `NaN`/`inf`/`-inf`.
        for (token, want) in [("+1", 1.0), (".5", 0.5), ("1e3", 1000.0)] {
            assert_eq!(gi(&format!(r#"{{"type":"query","gi":{token}}}"#)), Ok(want), "{token}");
        }
        assert_eq!(
            query_from_jsonl(r#"{"type":"query","n":+1e1}"#).map(|q| q.params.n_flows),
            Ok(10)
        );
        // Validation refuses the non-finite tokens a gain may not take.
        for bad in ["NaN", "inf", "-inf", "infinity", "-1"] {
            assert!(gi(&format!(r#"{{"type":"query","gi":{bad}}}"#)).is_err(), "{bad}");
        }
        for (tokens, want) in [
            (["inf", "NaN", "-inf"], [f64::INFINITY, f64::NAN, f64::NEG_INFINITY]),
            (["infinity", ".5", "+1"], [f64::INFINITY, 0.5, 1.0]),
        ] {
            let line = format!(
                r#"{{"type":"answer","stable":false,"required_buffer":{},"max_x":{},"min_x":{},"legs":1e3}}"#,
                tokens[0], tokens[1], tokens[2]
            );
            let a = answer_from_jsonl(&line).unwrap_or_else(|e| panic!("{line}: {e}"));
            assert_eq!(
                [a.required_buffer.to_bits(), a.max_x.to_bits(), a.min_x.to_bits()],
                want.map(f64::to_bits),
                "{line}"
            );
            assert_eq!(a.legs, 1000);
        }
    }

    /// The query decoder as it stood before its single field walk: a
    /// `known.contains` scan over every key, then one `Record::get` scan
    /// per slot. The differential test holds the decoders to it.
    mod oracle {
        use super::super::{BcnParams, StabilityAnswer, StabilityQuery, DEFAULT_MAX_LEGS};
        use telemetry::{JsonlError, Record};

        fn typed_record<'a>(
            line: &'a str,
            ty: &str,
            known: &[&str],
        ) -> Result<Record<'a>, JsonlError> {
            let r = Record::parse(line)?;
            r.expect_type(ty)?;
            if let Some(k) = r.keys().find(|k| !known.contains(k)) {
                return Err(JsonlError(format!("unknown {ty} field `{k}`")));
            }
            Ok(r)
        }

        pub(super) fn query_from_jsonl(line: &str) -> Result<StabilityQuery, JsonlError> {
            const KNOWN: [&str; 12] = [
                "type", "n", "capacity", "q0", "buffer", "gi", "gd", "ru", "w", "pm", "qsc",
                "max_legs",
            ];
            let r = typed_record(line, "query", &KNOWN)?;
            let mut p = BcnParams::paper_defaults();
            if let Some(n) = r.get("n") {
                p.n_flows = n.as_u32("n")?;
            }
            for (key, slot) in [
                ("capacity", &mut p.capacity),
                ("q0", &mut p.q0),
                ("buffer", &mut p.buffer),
                ("gi", &mut p.gi),
                ("gd", &mut p.gd),
                ("ru", &mut p.ru),
                ("w", &mut p.w),
                ("pm", &mut p.pm),
                ("qsc", &mut p.qsc),
            ] {
                if let Some(v) = r.get(key) {
                    *slot = v.as_f64(key)?;
                }
            }
            p.validate().map_err(|e| JsonlError(format!("invalid query parameters: {e}")))?;
            let max_legs = match r.get("max_legs") {
                Some(v) => match v.as_u64("max_legs")? {
                    n if n <= 1 << 20 => n as usize,
                    n => {
                        return Err(JsonlError(format!(
                            "field `max_legs` out of range: {n} > {}",
                            1 << 20
                        )))
                    }
                },
                None => DEFAULT_MAX_LEGS,
            };
            Ok(StabilityQuery { params: p, max_legs })
        }

        pub(super) fn answer_from_jsonl(line: &str) -> Result<StabilityAnswer, JsonlError> {
            const KNOWN: [&str; 6] =
                ["type", "stable", "required_buffer", "max_x", "min_x", "legs"];
            let r = typed_record(line, "answer", &KNOWN)?;
            Ok(StabilityAnswer {
                strongly_stable: r.bool("stable")?,
                required_buffer: r.f64("required_buffer")?,
                max_x: r.f64("max_x")?,
                min_x: r.f64("min_x")?,
                legs: usize::try_from(r.u64("legs")?)
                    .map_err(|_| JsonlError("field `legs` out of range".into()))?,
            })
        }
    }

    /// One random mutation of a line: a byte flip (lossily re-decoded),
    /// a Unicode whitespace character inserted next to a delimiter, or
    /// two fields swapped, or one duplicated (half the copies carrying
    /// another field's value).
    fn mutate(line: &str, draw: &mut impl FnMut() -> u64) -> String {
        const INSERTS: [&str; 8] =
            [" ", "\x0B", "\u{85}", "\u{A0}", "\u{2003}", "\u{3000}", "\u{200B}", "é"];
        let mut below = |n: usize| (draw() % n as u64) as usize;
        match below(3) {
            0 if !line.is_empty() => {
                let mut bytes = line.as_bytes().to_vec();
                let i = below(bytes.len());
                bytes[i] ^= below(255) as u8 + 1;
                String::from_utf8_lossy(&bytes).into_owned()
            }
            0 | 1 => {
                let mut at: Vec<usize> = (0..line.len())
                    .filter(|&i| b"{}\":,".contains(&line.as_bytes()[i]))
                    .flat_map(|i| [i, i + 1])
                    .collect();
                at.push(0);
                let mut out = line.to_string();
                out.insert_str(at[below(at.len())], INSERTS[below(INSERTS.len())]);
                out
            }
            _ => {
                let Some(inner) = line.strip_prefix('{').and_then(|s| s.strip_suffix('}')) else {
                    return line.to_string();
                };
                let mut fields: Vec<String> = inner.split(',').map(str::to_string).collect();
                let (i, j) = (below(fields.len()), below(fields.len()));
                match below(3) {
                    0 => fields.swap(i, j),
                    1 => fields.insert(j, fields[i].clone()),
                    _ => {
                        let key = fields[i].split(':').next().unwrap_or("").to_string();
                        let value = fields[j].split(':').nth(1).unwrap_or("").to_string();
                        fields.insert(below(fields.len() + 1), format!("{key}:{value}"));
                    }
                }
                format!("{{{}}}", fields.join(","))
            }
        }
    }

    #[test]
    fn decoders_match_the_oracle_on_mutated_lines() {
        let mut state = 0x00c0_dec5_u64;
        let mut draw = || {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = (state ^ (state >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        let mut queries: Vec<String> = mixed_queries().iter().take(5).map(query_to_jsonl).collect();
        queries.push(query_to_jsonl(&StabilityQuery::new(BcnParams::paper_defaults())));
        queries.push(r#"{"type":"query","gi":2.0,"gd":0.03}"#.into());
        queries.push(r#"{"type":"query"}"#.into());
        let mut answers: Vec<String> =
            evaluate_batch(&mixed_queries()[..5]).iter().map(answer_to_jsonl).collect();
        answers.push(answer_to_jsonl(&StabilityAnswer {
            strongly_stable: false,
            required_buffer: f64::INFINITY,
            max_x: f64::NAN,
            min_x: -0.0,
            legs: 0,
        }));
        let (mut ok, mut err) = (0, 0);
        for case in 0..30_000 {
            let base = if case % 2 == 0 { &queries } else { &answers };
            let mut line = base[(draw() % base.len() as u64) as usize].clone();
            for _ in 0..1 + draw() % 3 {
                line = mutate(&line, &mut draw);
            }
            let (got, want) = if case % 2 == 0 {
                (
                    query_from_jsonl(&line).map(|q| query_key(&q).to_vec()),
                    oracle::query_from_jsonl(&line).map(|q| query_key(&q).to_vec()),
                )
            } else {
                let bits = |a: StabilityAnswer| {
                    let (s, r, x, n, l) = answer_bits(&a);
                    vec![u64::from(s), r, x, n, l as u64]
                };
                (answer_from_jsonl(&line).map(bits), oracle::answer_from_jsonl(&line).map(bits))
            };
            assert_eq!(got, want, "case {case}: {line:?}");
            if want.is_ok() {
                ok += 1;
            } else {
                err += 1;
            }
        }
        assert!(ok > 3_000 && err > 3_000, "{ok} decoded, {err} refused");
    }

    #[test]
    fn bad_query_lines_are_rejected() {
        for line in [
            "not json",
            r#"{"type":"answer","stable":true}"#,
            r#"{"type":"query","bogus":1}"#,
            r#"{"type":"query","n":2.5}"#,
            r#"{"type":"query","capacity":-1.0}"#,
        ] {
            assert!(query_from_jsonl(line).is_err(), "{line}");
        }
    }
}
