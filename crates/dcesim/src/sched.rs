//! Event schedulers for the discrete-event engines.
//!
//! Both engines ([`crate::sim`] and [`crate::net`]) drive a single
//! future-event set ordered by `(time, seq)` — the timestamp plus a
//! stable tie-break sequence so simultaneous events dispatch in
//! scheduling order. This module provides two interchangeable
//! implementations behind [`EventQueue`]:
//!
//! * [`Scheduler::Heap`] — the original `BinaryHeap<Reverse<Entry>>`,
//!   kept as the reference implementation and perf baseline.
//! * [`Scheduler::Wheel`] (default) — a hierarchical timing wheel with
//!   an intrusive slab arena. Insert and pop are O(1) amortized instead
//!   of O(log n), nodes are recycled through a free list (zero
//!   steady-state allocations once the slab is warm), and the arena
//!   doubles as the frame/message pool: event payloads live inline in
//!   the recycled nodes.
//!
//! # Ordering invariant
//!
//! The wheel reproduces the heap's `(time, seq)` order *exactly*, so a
//! run is bit-identical under either scheduler (`cargo test` enforces
//! this here and in `tests/scheduler_equivalence.rs`). The argument:
//!
//! * Levels have `LEVEL_BITS`-bit slots; an event lands at the level
//!   of the highest bit of `t ^ cur` (the cursor), so everything at
//!   level `l` is strictly later than everything at level `l - 1`.
//! * Level-0 slots are 1 ns wide. Since time is integer nanoseconds,
//!   every event in one level-0 slot has *exactly* the same timestamp,
//!   and the slot's FIFO list orders them by insertion.
//! * Insertion order equals `seq` order for equal timestamps: a later
//!   `seq` is pushed later in wall-clock order, and cascades splice
//!   slot lists stably (an event can only move to the level/slot where
//!   an equal-time event already waits, appending behind it).
//! * The cursor only ever advances to the base of the slot being
//!   cascaded, so a cascade re-inserts strictly below its source level
//!   and pops make progress.
//! * A slot holding exactly one node needs no cascade at all: the sole
//!   occupant of the lowest live slot in the lowest live level *is*
//!   the global minimum (equal-time events always share a slot, so no
//!   tie-break is pending), and popping it directly leaves the cursor
//!   at its timestamp exactly as the cascade-to-level-0 path would.
//!   This is the hot path at the engines' shallow backlogs, where most
//!   slots are singletons.
//!
//! Far-future events (beyond the wheel's `2^42` ns ≈ 73 min horizon)
//! park in an overflow list that is sorted by `(time, seq)` — stable by
//! construction since `seq` is unique — when the wheel drains into it.
//!
//! # Inlining
//!
//! `TimingWheel::{insert, pop}` carry `#[inline]`. They are generic, so
//! each engine instantiates its own copy, but without the attribute
//! rustc emits that copy once, in one of the crate's codegen units, and
//! the engines' step loops — compiled in other units — call it out of
//! line, moving every event payload through memory. With it, each step
//! loop inlines the wheel and pops straight into its dispatch. A
//! single-codegen-unit `[profile]` would do the same for builds from
//! this workspace only; packages that build these crates under their
//! own profile (such as `perfbench/`) would not see it.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::time::Time;

/// Bits per wheel level: 64 slots each.
const LEVEL_BITS: u32 = 6;
/// Slots per level.
const SLOTS: usize = 1 << LEVEL_BITS;
/// Number of hierarchical levels; spans `2^(6*7)` = 2^42 ns.
const LEVELS: usize = 7;
/// One past the highest delta the wheel can hold directly.
const SPAN: u64 = 1 << (LEVEL_BITS * LEVELS as u32);
/// Null link in the intrusive slab.
const NIL: u32 = u32::MAX;

/// Which event-queue implementation a simulation runs on.
///
/// Both produce bit-identical runs; [`Scheduler::Wheel`] is the fast
/// default, [`Scheduler::Heap`] the `BinaryHeap` reference kept for
/// benchmarking (`bench --bin packet_engine`) and differential testing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Scheduler {
    /// Hierarchical timing wheel with slab recycling (default).
    #[default]
    Wheel,
    /// Binary-heap priority queue (the original engine).
    Heap,
}

impl Scheduler {
    /// The CLI spelling (`wheel` / `heap`).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Scheduler::Wheel => "wheel",
            Scheduler::Heap => "heap",
        }
    }
}

/// Counters describing one run's scheduler activity, flushed to
/// telemetry once at the end of a run (never on the hot path).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SchedStats {
    /// Events pushed.
    pub scheduled: u64,
    /// Events popped.
    pub popped: u64,
    /// Node re-links performed by wheel cascades (0 on the heap).
    pub cascades: u64,
    /// Events parked in the far-future overflow list (0 on the heap).
    pub overflow_parked: u64,
    /// High-water mark of pending events.
    pub max_pending: u64,
    /// Events discarded by [`EventQueue::clear_pending`] (the hybrid
    /// engine's re-seed path) without being dispatched.
    pub cleared: u64,
}

/// A heap entry ordered by `(time, seq)` only — the payload does not
/// participate in comparisons, so `E` needs no bounds.
#[derive(Debug)]
struct HeapEntry<E> {
    time: Time,
    seq: u64,
    ev: E,
}

impl<E> PartialEq for HeapEntry<E> {
    fn eq(&self, other: &Self) -> bool {
        (self.time, self.seq) == (other.time, other.seq)
    }
}
impl<E> Eq for HeapEntry<E> {}
impl<E> Ord for HeapEntry<E> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.time, self.seq).cmp(&(other.time, other.seq))
    }
}
impl<E> PartialOrd for HeapEntry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// One slab node: an event payload plus its intrusive FIFO link. The
/// payload is `Option` so pops can move it out of the arena without
/// `unsafe`; a `None` payload marks a free-list node.
#[derive(Debug)]
struct Node<E> {
    time: Time,
    seq: u64,
    next: u32,
    ev: Option<E>,
}

/// An intrusive singly-linked FIFO of slab nodes.
#[derive(Debug, Clone, Copy)]
struct Slot {
    head: u32,
    tail: u32,
}

impl Slot {
    const EMPTY: Slot = Slot { head: NIL, tail: NIL };
}

/// The hierarchical timing wheel. See the module docs for the layout
/// and the ordering argument.
#[derive(Debug)]
pub struct TimingWheel<E> {
    /// The cursor: the wheel's notion of "now", in nanoseconds. Only
    /// advances, and only to slot bases / popped timestamps.
    cur: u64,
    /// `LEVELS x SLOTS` FIFO slots.
    slots: Vec<Slot>,
    /// Per-level occupancy bitmaps (bit `i` = slot `i` non-empty).
    occupied: [u64; LEVELS],
    /// Level occupancy summary (bit `l` = level `l` has a set slot bit),
    /// so a pop finds the lowest live level in one `trailing_zeros`.
    level_mask: u8,
    /// The node arena; freed nodes are recycled via `free`.
    slab: Vec<Node<E>>,
    /// Free-list head into `slab`.
    free: u32,
    /// Far-future events (delta >= [`SPAN`]), sorted lazily on drain.
    overflow: Vec<u32>,
    len: usize,
}

impl<E> TimingWheel<E> {
    fn new() -> Self {
        Self {
            cur: 0,
            slots: vec![Slot::EMPTY; LEVELS * SLOTS],
            occupied: [0; LEVELS],
            level_mask: 0,
            slab: Vec::new(),
            free: NIL,
            overflow: Vec::new(),
            len: 0,
        }
    }

    /// Clears all events but keeps the slab / slot allocations.
    fn clear(&mut self) {
        self.cur = 0;
        self.slots.iter_mut().for_each(|s| *s = Slot::EMPTY);
        self.occupied = [0; LEVELS];
        self.level_mask = 0;
        self.slab.clear();
        self.free = NIL;
        self.overflow.clear();
        self.len = 0;
    }

    /// Takes a node from the free list or grows the slab.
    fn alloc(&mut self, time: Time, seq: u64, ev: E) -> u32 {
        if self.free != NIL {
            let idx = self.free;
            let node = &mut self.slab[idx as usize];
            self.free = node.next;
            node.time = time;
            node.seq = seq;
            node.next = NIL;
            node.ev = Some(ev);
            idx
        } else {
            let idx = u32::try_from(self.slab.len()).expect("event arena exceeds u32 indices");
            self.slab.push(Node { time, seq, next: NIL, ev: Some(ev) });
            idx
        }
    }

    /// The level an event `t` nanoseconds belongs to, given the cursor.
    #[inline]
    fn level_of(&self, t: u64) -> usize {
        let x = t ^ self.cur;
        debug_assert!(x < SPAN);
        if x == 0 {
            0
        } else {
            ((63 - x.leading_zeros()) / LEVEL_BITS) as usize
        }
    }

    /// Appends node `idx` with timestamp `t` (already stored in the
    /// node) to its level/slot FIFO.
    #[inline]
    fn link_at(&mut self, idx: u32, t: u64) {
        debug_assert_eq!(t, self.slab[idx as usize].time.as_nanos());
        debug_assert!(t >= self.cur, "event scheduled in the past");
        let level = self.level_of(t);
        let slot_i = ((t >> (level as u32 * LEVEL_BITS)) & (SLOTS as u64 - 1)) as usize;
        let si = level * SLOTS + slot_i;
        let slot = self.slots[si];
        if slot.tail == NIL {
            self.slots[si] = Slot { head: idx, tail: idx };
            self.occupied[level] |= 1 << slot_i;
            self.level_mask |= 1 << level;
        } else {
            self.slab[slot.tail as usize].next = idx;
            self.slots[si].tail = idx;
        }
    }

    /// Inserts an event; far-future events park in the overflow list.
    #[inline]
    fn insert(&mut self, time: Time, seq: u64, ev: E, stats: &mut SchedStats) {
        let t = time.as_nanos();
        let idx = self.alloc(time, seq, ev);
        if t ^ self.cur >= SPAN {
            self.overflow.push(idx);
            stats.overflow_parked += 1;
        } else {
            self.link_at(idx, t);
        }
        self.len += 1;
    }

    /// Unlinks and returns the sole/front node of slot `si` at `level`
    /// (caller guarantees the slot is non-empty and, for `level > 0`,
    /// that the node is the slot's only occupant).
    #[inline]
    fn take_front(&mut self, level: usize, slot_i: usize, si: usize) -> (Time, E) {
        let idx = self.slots[si].head;
        // Unlink, read, and free-list the node in one slab access.
        let free = self.free;
        let node = &mut self.slab[idx as usize];
        let time = node.time;
        let ev = node.ev.take().expect("live node");
        let next = node.next;
        node.next = free;
        self.free = idx;
        if next == NIL {
            self.slots[si] = Slot::EMPTY;
            self.occupied[level] &= !(1 << slot_i);
            if self.occupied[level] == 0 {
                self.level_mask &= !(1 << level);
            }
        } else {
            self.slots[si].head = next;
        }
        self.len -= 1;
        (time, ev)
    }

    /// Pops the earliest `(time, seq)` event.
    #[inline]
    fn pop(&mut self, stats: &mut SchedStats) -> Option<(Time, E)> {
        loop {
            if self.level_mask == 0 {
                if !self.drain_overflow() {
                    return None;
                }
                continue;
            }
            let level = self.level_mask.trailing_zeros() as usize;
            let slot_i = self.occupied[level].trailing_zeros() as usize;
            if level == 0 {
                // Every event in a level-0 slot carries this exact time.
                self.cur = (self.cur & !(SLOTS as u64 - 1)) | slot_i as u64;
                let (time, ev) = self.take_front(0, slot_i, slot_i);
                debug_assert_eq!(time.as_nanos(), self.cur);
                return Some((time, ev));
            }
            let si = level * SLOTS + slot_i;
            if self.slots[si].head == self.slots[si].tail {
                // Singleton fast path: the sole node of the lowest live
                // slot in the lowest live level is the global minimum
                // (equal-time events always share one slot, so there is
                // no tie to order). Pop it directly instead of
                // cascading it down level by level; the cursor jumps to
                // its exact timestamp, just as the level-0 path would
                // have left it.
                let (time, ev) = self.take_front(level, slot_i, si);
                self.cur = time.as_nanos();
                return Some((time, ev));
            }
            // Cascade: advance the cursor to the slot's base time and
            // re-distribute its FIFO (stably) across the lower levels.
            let shift = level as u32 * LEVEL_BITS;
            let block = !((1u64 << (shift + LEVEL_BITS)) - 1);
            self.cur = (self.cur & block) | ((slot_i as u64) << shift);
            let slot = &mut self.slots[si];
            let mut idx = slot.head;
            *slot = Slot::EMPTY;
            self.occupied[level] &= !(1 << slot_i);
            if self.occupied[level] == 0 {
                self.level_mask &= !(1 << level);
            }
            while idx != NIL {
                let node = &mut self.slab[idx as usize];
                let next = node.next;
                let t = node.time.as_nanos();
                node.next = NIL;
                self.link_at(idx, t);
                stats.cascades += 1;
                idx = next;
            }
        }
    }

    /// Jumps the cursor to the earliest overflow event and re-inserts
    /// every overflow event now within the wheel's span. Returns false
    /// when there was nothing to drain.
    fn drain_overflow(&mut self) -> bool {
        if self.overflow.is_empty() {
            return false;
        }
        // Unique `seq` makes this a strict (time, seq) order, so equal
        // timestamps re-insert in seq order, preserving the invariant.
        let mut parked = std::mem::take(&mut self.overflow);
        parked.sort_unstable_by_key(|&i| (self.slab[i as usize].time, self.slab[i as usize].seq));
        self.cur = self.slab[parked[0] as usize].time.as_nanos();
        // The wheel can now hold events up to cur + SPAN (saturating:
        // near the end of representable time everything fits).
        let horizon = Time::from_nanos(self.cur)
            .checked_add(crate::time::Duration::from_nanos(SPAN - 1))
            .unwrap_or(Time::MAX);
        for idx in parked {
            let t = self.slab[idx as usize].time;
            if t <= horizon && t.as_nanos() ^ self.cur < SPAN {
                self.link_at(idx, t.as_nanos());
            } else {
                self.overflow.push(idx);
            }
        }
        true
    }
}

enum Imp<E> {
    Heap(BinaryHeap<Reverse<HeapEntry<E>>>),
    Wheel(TimingWheel<E>),
}

/// The engines' future-event set: a `(time, seq)`-ordered queue with a
/// run-time choice of implementation (see [`Scheduler`]).
///
/// The queue assigns the tie-break `seq` internally: every
/// [`EventQueue::schedule`] call gets the next sequence number, so
/// simultaneous events pop in scheduling order under either backend.
pub struct EventQueue<E> {
    imp: Imp<E>,
    seq: u64,
    stats: SchedStats,
}

impl<E> Default for EventQueue<E> {
    /// An empty queue on the default scheduler.
    fn default() -> Self {
        Self::new(Scheduler::default())
    }
}

impl<E> std::fmt::Debug for EventQueue<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventQueue")
            .field("scheduler", &self.scheduler())
            .field("len", &self.len())
            .field("stats", &self.stats)
            .finish()
    }
}

impl<E> EventQueue<E> {
    /// An empty queue on the given backend.
    #[must_use]
    pub fn new(scheduler: Scheduler) -> Self {
        let imp = match scheduler {
            Scheduler::Heap => Imp::Heap(BinaryHeap::new()),
            Scheduler::Wheel => Imp::Wheel(TimingWheel::new()),
        };
        Self { imp, seq: 0, stats: SchedStats::default() }
    }

    /// Which backend this queue runs on.
    #[must_use]
    pub fn scheduler(&self) -> Scheduler {
        match &self.imp {
            Imp::Heap(_) => Scheduler::Heap,
            Imp::Wheel(_) => Scheduler::Wheel,
        }
    }

    /// Pending event count.
    #[must_use]
    pub fn len(&self) -> usize {
        match &self.imp {
            Imp::Heap(h) => h.len(),
            Imp::Wheel(w) => w.len,
        }
    }

    /// Whether no events are pending.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Run-lifetime scheduler counters.
    #[must_use]
    pub fn stats(&self) -> SchedStats {
        self.stats
    }

    /// Drops all pending events and resets counters/cursor but keeps
    /// the backing allocations (heap buffer or wheel slab), switching
    /// backend if `scheduler` differs — the workspace-reuse hook for
    /// batched runs.
    pub fn reset(&mut self, scheduler: Scheduler) {
        match (&mut self.imp, scheduler) {
            (Imp::Heap(h), Scheduler::Heap) => h.clear(),
            (Imp::Wheel(w), Scheduler::Wheel) => w.clear(),
            (imp, s) => *imp = EventQueue::new(s).imp,
        }
        self.seq = 0;
        self.stats = SchedStats::default();
    }

    /// Drops every pending event but — unlike [`EventQueue::reset`] —
    /// keeps the tie-break sequence counter and the run's stats (the
    /// discarded events are tallied in [`SchedStats::cleared`]). This is
    /// the hybrid engine's re-seed hook: a mid-run wheel re-population
    /// must neither restart `(time, seq)` ordering nor zero the
    /// end-of-run scheduler counters. Backing allocations (heap buffer
    /// or wheel slab) are retained, so re-seeding allocates nothing once
    /// the arena is warm.
    pub fn clear_pending(&mut self) {
        self.stats.cleared += u64::try_from(self.len()).expect("pending count fits u64");
        match &mut self.imp {
            Imp::Heap(h) => h.clear(),
            Imp::Wheel(w) => w.clear(),
        }
    }

    /// Schedules `ev` at `time`, assigning the next tie-break sequence
    /// number. Events at equal times pop in scheduling order.
    #[inline]
    pub fn schedule(&mut self, time: Time, ev: E) {
        self.seq += 1;
        self.stats.scheduled += 1;
        match &mut self.imp {
            Imp::Heap(h) => h.push(Reverse(HeapEntry { time, seq: self.seq, ev })),
            Imp::Wheel(w) => w.insert(time, self.seq, ev, &mut self.stats),
        }
        // Pending count without touching the backend: every scheduled
        // event is popped or cleared exactly once, so the difference is
        // the depth.
        let pending = self.stats.scheduled - self.stats.popped - self.stats.cleared;
        if pending > self.stats.max_pending {
            self.stats.max_pending = pending;
        }
    }

    /// Pops the earliest `(time, seq)` event.
    #[inline]
    pub fn pop(&mut self) -> Option<(Time, E)> {
        let popped = match &mut self.imp {
            Imp::Heap(h) => h.pop().map(|Reverse(e)| (e.time, e.ev)),
            Imp::Wheel(w) => w.pop(&mut self.stats),
        };
        if popped.is_some() {
            self.stats.popped += 1;
        }
        popped
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::splitmix64;
    use crate::time::Duration;

    /// Drives both backends through the same schedule and asserts the
    /// pop streams are identical.
    fn assert_equivalent(ops: &[(u64, u32)]) {
        // ops: (delta_ns from current pop frontier, payload); a delta of
        // u64::MAX means "pop one" instead.
        let run = |s: Scheduler| -> Vec<(u64, u32)> {
            let mut q = EventQueue::new(s);
            let mut now = 0u64;
            let mut out = Vec::new();
            for &(delta, payload) in ops {
                if delta == u64::MAX {
                    if let Some((t, p)) = q.pop() {
                        assert!(t.as_nanos() >= now, "time went backwards");
                        now = t.as_nanos();
                        out.push((now, p));
                    }
                } else {
                    q.schedule(Time::from_nanos(now.saturating_add(delta)), payload);
                }
            }
            while let Some((t, p)) = q.pop() {
                out.push((t.as_nanos(), p));
            }
            assert!(q.is_empty());
            out
        };
        let heap = run(Scheduler::Heap);
        let wheel = run(Scheduler::Wheel);
        assert_eq!(heap, wheel);
    }

    #[test]
    fn fifo_within_equal_times() {
        let mut q = EventQueue::new(Scheduler::Wheel);
        for (t, p) in [(5u64, 1u32), (5, 2), (3, 0), (5, 3)] {
            q.schedule(Time::from_nanos(t), p);
        }
        let order: Vec<u32> = std::iter::from_fn(|| q.pop()).map(|(_, p)| p).collect();
        assert_eq!(order, vec![0, 1, 2, 3]);
    }

    #[test]
    fn same_time_schedule_during_pop_appends_behind() {
        // net.rs schedules PortTx at `now`; it must pop after already
        // pending equal-time events but before anything later.
        for s in [Scheduler::Heap, Scheduler::Wheel] {
            let mut q = EventQueue::new(s);
            q.schedule(Time::from_nanos(100), 1u32);
            q.schedule(Time::from_nanos(100), 2);
            q.schedule(Time::from_nanos(101), 4);
            let (t, p) = q.pop().unwrap();
            assert_eq!((t.as_nanos(), p), (100, 1));
            q.schedule(t, 3); // "at now"
            let rest: Vec<u32> = std::iter::from_fn(|| q.pop()).map(|(_, p)| p).collect();
            assert_eq!(rest, vec![2, 3, 4], "{s:?}");
        }
    }

    #[test]
    fn random_streams_agree_across_backends() {
        for seed in 0..20u64 {
            let mut ops = Vec::new();
            let mut z = seed;
            for i in 0..600u64 {
                z = splitmix64(z ^ i);
                if z % 3 == 0 {
                    ops.push((u64::MAX, 0)); // pop
                } else {
                    // Deltas spanning every wheel level plus exact ties.
                    let magnitude = z % 15; // up to ~2^56 ns: overflow too
                    let delta = (splitmix64(z) % 1000) << (magnitude * 4);
                    ops.push((delta, (z >> 32) as u32));
                }
            }
            assert_equivalent(&ops);
        }
    }

    #[test]
    fn far_future_events_take_the_overflow_path() {
        let mut q = EventQueue::new(Scheduler::Wheel);
        let far = Time::from_nanos(SPAN * 3 + 17);
        q.schedule(far, 7u32);
        q.schedule(Time::from_nanos(5), 1u32);
        assert_eq!(q.stats().overflow_parked, 1);
        assert_eq!(q.pop().unwrap(), (Time::from_nanos(5), 1));
        assert_eq!(q.pop().unwrap(), (far, 7));
        assert!(q.pop().is_none());
    }

    #[test]
    fn overflow_preserves_seq_order_for_equal_times() {
        let mut q = EventQueue::new(Scheduler::Wheel);
        let far = Time::from_nanos(SPAN + 123);
        for p in 0..5u32 {
            q.schedule(far, p);
        }
        let order: Vec<u32> = std::iter::from_fn(|| q.pop()).map(|(_, p)| p).collect();
        assert_eq!(order, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn saturated_timestamps_are_representable() {
        let mut q = EventQueue::new(Scheduler::Wheel);
        q.schedule(Time::ZERO.checked_add(Duration::from_nanos(3)).unwrap(), 0u32);
        q.schedule(Time::MAX, 1); // e.g. a saturated far-future schedule
        q.schedule(Time::MAX, 2);
        assert_eq!(q.pop().unwrap().1, 0);
        assert_eq!(q.pop().unwrap(), (Time::MAX, 1));
        assert_eq!(q.pop().unwrap(), (Time::MAX, 2));
    }

    #[test]
    fn reset_keeps_capacity_and_restarts_seq() {
        let mut q = EventQueue::new(Scheduler::Wheel);
        for i in 0..100u32 {
            q.schedule(Time::from_nanos(u64::from(i) * 1000), i);
        }
        let _ = q.pop();
        q.reset(Scheduler::Wheel);
        assert!(q.is_empty());
        assert_eq!(q.stats(), SchedStats::default());
        q.schedule(Time::from_nanos(1), 9);
        assert_eq!(q.pop().unwrap(), (Time::from_nanos(1), 9));
        // Switching backends through reset works too.
        q.reset(Scheduler::Heap);
        assert_eq!(q.scheduler(), Scheduler::Heap);
        assert!(q.is_empty());
    }

    #[test]
    fn clear_pending_keeps_seq_and_stats() {
        for s in [Scheduler::Heap, Scheduler::Wheel] {
            let mut q = EventQueue::new(s);
            q.schedule(Time::from_nanos(10), 0u32);
            q.schedule(Time::from_nanos(10), 1);
            q.schedule(Time::from_nanos(20), 2);
            assert_eq!(q.pop().unwrap().1, 0);
            q.clear_pending();
            assert!(q.is_empty());
            let st = q.stats();
            assert_eq!((st.scheduled, st.popped, st.cleared), (3, 1, 2), "{s:?}");
            // The sequence counter survives: an event re-scheduled at the
            // popped frontier still orders behind any equal-time event a
            // later schedule would add, exactly as mid-run scheduling does.
            q.schedule(Time::from_nanos(10), 7);
            q.schedule(Time::from_nanos(10), 8);
            let order: Vec<u32> = std::iter::from_fn(|| q.pop()).map(|(_, p)| p).collect();
            assert_eq!(order, vec![7, 8], "{s:?}");
            assert_eq!(q.stats().max_pending, 3, "{s:?}");
        }
    }

    #[test]
    fn stats_count_scheduler_activity() {
        let mut q = EventQueue::new(Scheduler::Wheel);
        // Two nodes sharing a high-level slot force a cascade (a lone
        // node would take the singleton fast path instead).
        q.schedule(Time::from_nanos(1 << 20), 0u32);
        q.schedule(Time::from_nanos((1 << 20) + 1), 1u32);
        q.schedule(Time::from_nanos(2), 2u32);
        while q.pop().is_some() {}
        let st = q.stats();
        assert_eq!(st.scheduled, 3);
        assert_eq!(st.popped, 3);
        assert_eq!(st.max_pending, 3);
        assert!(st.cascades > 0, "co-resident high-level nodes must cascade");
    }

    #[test]
    fn default_scheduler_is_the_wheel() {
        assert_eq!(Scheduler::default(), Scheduler::Wheel);
        assert_eq!(Scheduler::Wheel.name(), "wheel");
        assert_eq!(Scheduler::Heap.name(), "heap");
    }
}
