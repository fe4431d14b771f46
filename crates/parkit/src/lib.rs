//! Zero-dependency parallel execution for the DCE-BCN workspace.
//!
//! Every heavy evaluation in this reproduction is an embarrassingly
//! parallel grid: criterion atlases over `(Gi, Gd)`, buffer-sizing
//! frontier scans, vector-field sampling, multi-seed packet runs. This
//! crate fans that work out over `std::thread::scope` workers with:
//!
//! * **work stealing** — the index range is split into chunks dealt to
//!   per-worker queues; a worker that drains its own queue steals from
//!   the back of the busiest peer, so skewed per-cell cost (cheap
//!   formula cells vs long switched-ODE integrations) cannot idle cores;
//! * **deterministic placement** — result `i` of [`par_map_indexed`]
//!   always lands at output index `i`, whatever thread computed it, so
//!   parallel output is byte-identical to the serial run;
//! * **a graceful serial fallback** — at one worker no threads are
//!   spawned at all; the closure runs inline in input order;
//! * **configurable width** — [`set_threads`] (wired to the CLI's
//!   `--threads`), the `DCE_BCN_THREADS` environment variable, and
//!   [`std::thread::available_parallelism`] in that order of precedence.
//!
//! The closure contract for determinism: `f(i)` must be a pure function
//! of the index (and immutable captures). With [`par_map_init`], the
//! per-worker scratch state is a *buffer*, not a carrier of information
//! between indices — the closure must overwrite every field it reads.
//!
//! ```
//! let squares = parkit::par_map_indexed(8, |i| i * i);
//! assert_eq!(squares, [0, 1, 4, 9, 16, 25, 36, 49]);
//! ```

#![forbid(unsafe_code)]
#![warn(unreachable_pub)]
#![warn(missing_docs)]

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Chunks dealt per worker when splitting an index range. More chunks
/// mean finer stealing granularity; fewer mean less queue traffic. Four
/// per worker keeps the steal path cold while bounding tail latency to
/// a quarter of a worker's share.
const CHUNKS_PER_WORKER: usize = 4;

/// The largest worker count [`parse_threads`] accepts. A fixed bound,
/// not one derived from the host, so a command line valid on one
/// machine is valid on every machine.
pub const MAX_THREADS: usize = 256;

/// Process-wide worker-count override set by [`set_threads`]
/// (0 = no override).
static THREAD_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Overrides the worker count for every subsequent `par_*` call in this
/// process (the CLI wires `--threads` here). Passing 0 clears the
/// override, restoring the `DCE_BCN_THREADS` / auto-detect resolution.
pub fn set_threads(n: usize) {
    THREAD_OVERRIDE.store(n, Ordering::Relaxed);
}

/// Parses a `DCE_BCN_THREADS`-style value: an integer in
/// `1..=`[`MAX_THREADS`], or `None` for anything else (empty, zero,
/// too large, garbage).
#[must_use]
pub fn parse_threads(s: &str) -> Option<usize> {
    s.trim().parse::<usize>().ok().filter(|n| (1..=MAX_THREADS).contains(n))
}

/// The worker count `par_*` calls will use right now: the
/// [`set_threads`] override if set, else `DCE_BCN_THREADS` if
/// [`parse_threads`] accepts it, else
/// [`std::thread::available_parallelism`] (1 when even that is
/// unavailable). An out-of-range `DCE_BCN_THREADS` falls back to
/// auto-detection like any other unparsable value.
#[must_use]
pub fn configured_threads() -> usize {
    match THREAD_OVERRIDE.load(Ordering::Relaxed) {
        0 => {}
        n => return n,
    }
    if let Ok(v) = std::env::var("DCE_BCN_THREADS") {
        if let Some(n) = parse_threads(&v) {
            return n;
        }
    }
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// A worker's dealt range of chunk indices `[lo, hi)`. The owner pops
/// from the front (preserving cache-friendly forward traversal); a
/// thief pops from the back. The mutex is held only for the two-word
/// range update — per *chunk*, not per index — so it is far off the
/// hot path.
struct ChunkQueue {
    range: Mutex<(usize, usize)>,
}

impl ChunkQueue {
    fn new(lo: usize, hi: usize) -> Self {
        Self { range: Mutex::new((lo, hi)) }
    }

    fn pop_front(&self) -> Option<usize> {
        let mut r = self.range.lock().expect("chunk queue poisoned");
        if r.0 < r.1 {
            let c = r.0;
            r.0 += 1;
            Some(c)
        } else {
            None
        }
    }

    fn steal_back(&self) -> Option<usize> {
        let mut r = self.range.lock().expect("chunk queue poisoned");
        if r.0 < r.1 {
            r.1 -= 1;
            Some(r.1)
        } else {
            None
        }
    }

    fn remaining(&self) -> usize {
        let r = self.range.lock().expect("chunk queue poisoned");
        r.1 - r.0
    }
}

/// Steals one chunk from the peer with the most work left (skipping the
/// thief's own queue, which is already empty).
fn steal(queues: &[ChunkQueue], me: usize) -> Option<usize> {
    let victim = queues
        .iter()
        .enumerate()
        .filter(|&(w, q)| w != me && q.remaining() > 0)
        .max_by_key(|&(_, q)| q.remaining())?
        .0;
    queues[victim].steal_back()
}

/// Maps `f` over `0..len` on `threads` workers, returning results in
/// index order. The core primitive every other `par_*` entry point
/// funnels into; `init` builds one per-worker scratch value, passed
/// mutably to every `f` call that worker makes.
///
/// At `threads <= 1` (or `len <= 1`) no threads are spawned: the
/// closure runs inline, in order, with a single scratch — the serial
/// path is the parallel path at width one, so output is identical by
/// construction.
///
/// # Panics
///
/// Propagates a panic from any worker (after the remaining workers
/// drain their queues).
pub fn par_map_init_in<S, T, I, F>(threads: usize, len: usize, init: I, f: F) -> Vec<T>
where
    T: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize) -> T + Sync,
{
    let workers = threads.clamp(1, len.max(1));
    if workers == 1 {
        let mut scratch = init();
        return (0..len).map(|i| f(&mut scratch, i)).collect();
    }

    // Deal contiguous chunk ranges to the workers.
    let chunk_len = (len / (workers * CHUNKS_PER_WORKER)).max(1);
    let n_chunks = len.div_ceil(chunk_len);
    let queues: Vec<ChunkQueue> = (0..workers)
        .map(|w| {
            let lo = n_chunks * w / workers;
            let hi = n_chunks * (w + 1) / workers;
            ChunkQueue::new(lo, hi)
        })
        .collect();

    // Finished chunks parked by index; assembled in order afterwards.
    let done: Mutex<Vec<Option<Vec<T>>>> =
        Mutex::new(std::iter::repeat_with(|| None).take(n_chunks).collect());

    std::thread::scope(|s| {
        for me in 0..workers {
            let queues = &queues;
            let done = &done;
            let init = &init;
            let f = &f;
            s.spawn(move || {
                let mut scratch = init();
                while let Some(c) = queues[me].pop_front().or_else(|| steal(queues, me)) {
                    let lo = c * chunk_len;
                    let hi = (lo + chunk_len).min(len);
                    let mut out = Vec::with_capacity(hi - lo);
                    for i in lo..hi {
                        out.push(f(&mut scratch, i));
                    }
                    done.lock().expect("result store poisoned")[c] = Some(out);
                }
            });
        }
    });

    let chunks = done.into_inner().expect("result store poisoned");
    let mut out = Vec::with_capacity(len);
    for c in chunks {
        out.extend(c.expect("all chunks were claimed and completed"));
    }
    out
}

/// [`par_map_init_in`] at the configured worker count
/// (see [`configured_threads`]).
pub fn par_map_init<S, T, I, F>(len: usize, init: I, f: F) -> Vec<T>
where
    T: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize) -> T + Sync,
{
    par_map_init_in(configured_threads(), len, init, f)
}

/// Maps `f` over `0..len` on an explicit worker count, results in index
/// order.
pub fn par_map_indexed_in<T, F>(threads: usize, len: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    par_map_init_in(threads, len, || (), |(), i| f(i))
}

/// Maps `f` over `0..len` at the configured worker count, results in
/// index order.
pub fn par_map_indexed<T, F>(len: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    par_map_indexed_in(configured_threads(), len, f)
}

/// Maps `f` over a slice at the configured worker count, results in
/// input order.
pub fn par_map<I, T, F>(items: &[I], f: F) -> Vec<T>
where
    I: Sync,
    T: Send,
    F: Fn(&I) -> T + Sync,
{
    par_map_indexed(items.len(), |i| f(&items[i]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_land_in_input_order() {
        for threads in [1, 2, 3, 8] {
            let out = par_map_indexed_in(threads, 100, |i| i * 3);
            assert_eq!(out, (0..100).map(|i| i * 3).collect::<Vec<_>>(), "threads={threads}");
        }
    }

    #[test]
    fn empty_and_singleton_ranges() {
        assert_eq!(par_map_indexed_in(4, 0, |i| i), Vec::<usize>::new());
        assert_eq!(par_map_indexed_in(4, 1, |i| i + 7), vec![7]);
    }

    #[test]
    fn more_workers_than_items() {
        let out = par_map_indexed_in(64, 5, |i| i);
        assert_eq!(out, [0, 1, 2, 3, 4]);
    }

    #[test]
    fn par_map_over_slice_preserves_order() {
        let items = ["a", "bb", "ccc"];
        let out = par_map(&items, |s| s.len());
        assert_eq!(out, [1, 2, 3]);
    }

    #[test]
    fn scratch_state_is_per_worker_and_reused() {
        // Count how many inits happen: at most one per worker.
        let inits = AtomicUsize::new(0);
        let out = par_map_init_in(
            3,
            50,
            || {
                inits.fetch_add(1, Ordering::Relaxed);
                0u64
            },
            |calls, i| {
                *calls += 1;
                i
            },
        );
        assert_eq!(out, (0..50).collect::<Vec<_>>());
        assert!(inits.load(Ordering::Relaxed) <= 3);
    }

    #[test]
    fn float_results_identical_across_widths() {
        let reference = par_map_indexed_in(1, 257, |i| (i as f64 * 0.731).sin().exp());
        for threads in [2, 3, 5, 8] {
            let out = par_map_indexed_in(threads, 257, |i| (i as f64 * 0.731).sin().exp());
            let same = reference.iter().zip(&out).all(|(a, b)| a.to_bits() == b.to_bits());
            assert!(same, "bitwise drift at threads={threads}");
        }
    }

    #[test]
    fn parse_threads_accepts_positive_integers_only() {
        assert_eq!(parse_threads("4"), Some(4));
        assert_eq!(parse_threads(" 12 "), Some(12));
        assert_eq!(parse_threads("0"), None);
        assert_eq!(parse_threads("-3"), None);
        assert_eq!(parse_threads("four"), None);
        assert_eq!(parse_threads(&MAX_THREADS.to_string()), Some(MAX_THREADS));
        assert_eq!(parse_threads(&(MAX_THREADS + 1).to_string()), None);
        assert_eq!(parse_threads("100000"), None);
        assert_eq!(parse_threads(""), None);
    }

    #[test]
    fn set_threads_overrides_and_clears() {
        set_threads(3);
        assert_eq!(configured_threads(), 3);
        set_threads(0);
        assert!(configured_threads() >= 1);
    }
}
