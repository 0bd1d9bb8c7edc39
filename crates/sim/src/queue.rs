//! The central event queue.
//!
//! [`EventQueue`] is a time-ordered priority queue with deterministic FIFO
//! tie-breaking: two events scheduled for the same instant pop in the order
//! they were pushed. Determinism is essential for the reproducibility of the
//! fault-injection experiments — a given (configuration, seed) pair must
//! always produce bit-identical results.
//!
//! # Two-level structure
//!
//! Nearly all events in a running machine are scheduled a handful of
//! nanoseconds ahead (link hops, directory occupancies, zero-delay
//! follow-ups), so the queue is split into two levels:
//!
//! * a **near-horizon ring** of [`RING_BUCKETS`] per-tick FIFO buckets
//!   covering the window `[base_tick, base_tick + RING_BUCKETS)`. Ring
//!   events live in one slab; each slot carries the event, its sequence
//!   number and a `next` link, and each bucket is a `head`/`tail` pair of
//!   slab indices, so a push is an O(1) append and a pop an O(1) unlink. A
//!   free list recycles slots, which keeps the working set to the slots
//!   actually pending. A two-level occupancy bitmap (per-bucket bits plus a
//!   summary bit per bitmap word) makes finding the next non-empty bucket a
//!   handful of word operations even when the pending set is sparse. Bucket
//!   order is push order, so same-instant FIFO tie-breaking is free;
//! * a **far-horizon overflow** `BinaryHeap` holding everything outside the
//!   window (memory-op timeouts, watchdogs, fault arming, and the rare
//!   past-relative push). These are a small fraction of total traffic, so
//!   heap churn is off the hot path.
//!
//! # The window follows the clock
//!
//! The ring window starts at the tick of the last popped event, not at the
//! next occupied bucket: a follow-up scheduled a few nanoseconds after the
//! event being handled then still lands in the ring instead of falling
//! behind the window into the heap. The invariant is that no ring entry
//! precedes `base_tick` and every ring entry lies below
//! `base_tick + RING_BUCKETS`; `overflow_pushed` counts the pushes that
//! missed the window.
//!
//! `pop` compares the ring head and the heap top by `(time, seq)`, so the
//! pop sequence is bit-for-bit identical to the seed repository's single
//! `BinaryHeap` implementation — which is kept below as a `#[cfg(test)]`
//! differential-testing oracle.

use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Width of the near-horizon window in ticks (power of two): 2^13 ns ≈ 8.2µs.
/// Wide enough for hop, occupancy and NAK-retry traffic; the 50–100µs
/// memory-op timeouts (about 2% of pushes in the 128-node recovery cycle)
/// go to the overflow heap. A 2^17 ring, which also holds the timeouts,
/// was measured with the slab buckets on that cycle (10 interleaved pairs,
/// 2-thread host): it won 5 of 10 pairs, with medians 3.44 s against
/// 3.58 s inside a 2.9–4.1 s spread, so it is no measurable gain for 16
/// times the bucket array and bitmaps.
const RING_BUCKETS: usize = 1 << 13;
const RING_MASK: u64 = RING_BUCKETS as u64 - 1;
const OCC_WORDS: usize = RING_BUCKETS / 64;
const SUM_WORDS: usize = OCC_WORDS.div_ceil(64);
/// Null slab link: an empty bucket's `head`, the last slot's `next`.
const NIL: u32 = u32::MAX;

/// Low `n` bits set (`n` ≤ 64).
#[inline]
fn low_mask(n: usize) -> u64 {
    if n == 64 {
        u64::MAX
    } else {
        (1u64 << n) - 1
    }
}

/// An entry in the overflow heap: ordered by time, then insertion sequence.
#[derive(Clone)]
struct Entry<E> {
    time: SimTime,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<E> Eq for Entry<E> {}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest (time, seq) pops
        // first.
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A slab slot: a pending ring event, or a link in the free list.
#[derive(Clone)]
struct Slot<E> {
    seq: u64,
    /// Next slot in the same bucket (or in the free list), or [`NIL`].
    next: u32,
    /// `None` while the slot is on the free list.
    event: Option<E>,
}

/// One ring bucket: a FIFO list of slab slots, `head == NIL` when empty.
#[derive(Clone, Copy)]
struct Bucket {
    head: u32,
    tail: u32,
}

const EMPTY_BUCKET: Bucket = Bucket {
    head: NIL,
    tail: NIL,
};

/// A deterministic, time-ordered event queue.
///
/// # Examples
///
/// ```
/// use flash_sim::{EventQueue, SimTime};
///
/// let mut q = EventQueue::new();
/// q.push(SimTime::from_nanos(20), "late");
/// q.push(SimTime::from_nanos(10), "early");
/// let (t, ev) = q.pop().unwrap();
/// assert_eq!((t.as_nanos(), ev), (10, "early"));
/// assert_eq!(q.pop_due(SimTime::from_nanos(15)), None);
/// assert_eq!(q.pop_due(SimTime::from_nanos(20)).unwrap().1, "late");
/// ```
///
/// Cloning an `EventQueue` (for checkpoint/fork) preserves the pending
/// set, insertion sequence numbers and window position exactly, so a
/// clone pops the same `(time, event)` sequence as the original.
#[derive(Clone)]
pub struct EventQueue<E> {
    /// Near-horizon buckets, indexed by `tick & RING_MASK`. Within the
    /// active window each tick maps to a distinct bucket.
    buckets: Vec<Bucket>,
    /// Storage for every ring event; buckets link into it.
    slab: Vec<Slot<E>>,
    /// Head of the free-slot list threaded through `Slot::next`.
    free: u32,
    /// Occupancy bitmap over `buckets` (bit set ⇔ bucket non-empty).
    occ: Vec<u64>,
    /// Summary bitmap over `occ` (bit set ⇔ bitmap word non-zero).
    summary: Vec<u64>,
    /// Events currently stored in the ring.
    ring_len: usize,
    /// First tick of the ring window: the last popped tick (zero before the
    /// first pop). No ring entry precedes it, and every ring entry lies
    /// below `base_tick + RING_BUCKETS`.
    base_tick: u64,
    /// Tick of the earliest non-empty bucket; valid while `ring_len > 0`.
    scan_tick: u64,
    /// Events outside the ring window.
    overflow: BinaryHeap<Entry<E>>,
    next_seq: u64,
    overflow_pushed: u64,
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            buckets: vec![EMPTY_BUCKET; RING_BUCKETS],
            slab: Vec::new(),
            free: NIL,
            occ: vec![0; OCC_WORDS],
            summary: vec![0; SUM_WORDS],
            ring_len: 0,
            base_tick: 0,
            scan_tick: 0,
            overflow: BinaryHeap::new(),
            next_seq: 0,
            overflow_pushed: 0,
        }
    }

    #[inline]
    fn in_window(&self, tick: u64) -> bool {
        tick >= self.base_tick && tick - self.base_tick < RING_BUCKETS as u64
    }

    /// Schedules `event` at absolute time `time`.
    pub fn push(&mut self, time: SimTime, event: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        let tick = time.as_nanos();
        if self.in_window(tick) {
            self.insert_ring(tick, seq, event);
            return;
        }
        self.overflow_pushed += 1;
        self.overflow.push(Entry { time, seq, event });
    }

    /// Takes a slot off the free list (or grows the slab) for a new event.
    #[inline]
    fn alloc(&mut self, seq: u64, event: E) -> u32 {
        if self.free != NIL {
            let i = self.free;
            let slot = &mut self.slab[i as usize];
            self.free = slot.next;
            slot.seq = seq;
            slot.next = NIL;
            slot.event = Some(event);
            i
        } else {
            let i = u32::try_from(self.slab.len())
                .ok()
                .filter(|&i| i != NIL)
                .expect("event ring slab exceeds u32 indices");
            self.slab.push(Slot {
                seq,
                next: NIL,
                event: Some(event),
            });
            i
        }
    }

    /// Appends to its tick's bucket; `tick` must lie within the window.
    #[inline]
    fn insert_ring(&mut self, tick: u64, seq: u64, event: E) {
        debug_assert!(self.in_window(tick));
        let slot = self.alloc(seq, event);
        let idx = (tick & RING_MASK) as usize;
        let bucket = &mut self.buckets[idx];
        if bucket.head == NIL {
            bucket.head = slot;
            self.occ[idx >> 6] |= 1 << (idx & 63);
            self.summary[idx >> 12] |= 1 << ((idx >> 6) & 63);
        } else {
            self.slab[bucket.tail as usize].next = slot;
        }
        bucket.tail = slot;
        self.ring_len += 1;
        if self.ring_len == 1 || tick < self.scan_tick {
            self.scan_tick = tick;
        }
    }

    /// Pops the head of the `scan_tick` bucket (the ring must be
    /// non-empty), moving the window to the popped tick and `scan_tick` to
    /// the next occupied bucket when this one empties.
    fn pop_ring(&mut self) -> (SimTime, E) {
        let tick = self.scan_tick;
        let idx = (tick & RING_MASK) as usize;
        let head = self.buckets[idx].head;
        let slot = &mut self.slab[head as usize];
        let event = slot.event.take().expect("ring slot without an event");
        let next = slot.next;
        slot.next = self.free;
        self.free = head;
        self.buckets[idx].head = next;
        self.ring_len -= 1;
        // No ring entry precedes the popped tick, so the window may follow
        // the clock up to it, and no further: a follow-up scheduled shortly
        // after this event must still fall inside the window.
        self.base_tick = tick;
        if next == NIL {
            self.occ[idx >> 6] &= !(1 << (idx & 63));
            if self.occ[idx >> 6] == 0 {
                self.summary[idx >> 12] &= !(1 << ((idx >> 6) & 63));
            }
            if self.ring_len > 0 {
                self.scan_tick = self.next_occupied(tick + 1);
            }
        }
        (SimTime::from_nanos(tick), event)
    }

    /// Pops the overflow heap top, moving the window up to its time while
    /// it still precedes every ring entry.
    fn pop_overflow(&mut self) -> (SimTime, E) {
        let e = self.overflow.pop().expect("peeked entry vanished");
        let t = e.time.as_nanos();
        // The heap top popped before the ring head, so no ring entry
        // precedes `t`.
        debug_assert!(self.ring_len == 0 || t <= self.scan_tick);
        if self.ring_len == 0 || t > self.base_tick {
            self.base_tick = t;
        }
        (e.time, e.event)
    }

    /// Finds the first occupied bucket at tick `from` or later (two-level
    /// bitmap scan: the summary word skips 4096 empty buckets at a time).
    /// Requires `ring_len > 0`.
    fn next_occupied(&self, from: u64) -> u64 {
        debug_assert!(self.ring_len > 0);
        let start = (from & RING_MASK) as usize;
        let len = RING_BUCKETS - (from - self.base_tick) as usize;
        // The physical scan wraps at most once; split it into two linear
        // segments.
        let seg1 = (RING_BUCKETS - start).min(len);
        if let Some(off) = self.scan_segment(start, seg1) {
            return from + off as u64;
        }
        if len > seg1 {
            if let Some(off) = self.scan_segment(0, len - seg1) {
                return from + (seg1 + off) as u64;
            }
        }
        unreachable!("ring_len > 0 but no occupied bucket in the window")
    }

    /// Scans `count` buckets from physical index `start` (no wrap) and
    /// returns the offset of the first occupied one.
    fn scan_segment(&self, start: usize, count: usize) -> Option<usize> {
        let end = start + count;
        let mut idx = start;
        // Partial head word.
        let bit = idx & 63;
        if bit != 0 {
            let take = (64 - bit).min(end - idx);
            let bits = (self.occ[idx >> 6] >> bit) & low_mask(take);
            if bits != 0 {
                return Some(idx + bits.trailing_zeros() as usize - start);
            }
            idx += take;
        }
        // Word-aligned body: consult the summary to skip runs of empty
        // bitmap words.
        while idx < end {
            let wi = idx >> 6;
            let sbits = self.summary[wi >> 6] >> (wi & 63);
            if sbits == 0 {
                // No occupied word in the rest of this summary word: jump to
                // the next summary boundary.
                idx = ((wi >> 6) + 1) << 12;
                continue;
            }
            let wj = wi + sbits.trailing_zeros() as usize;
            let widx = wj << 6;
            if widx >= end {
                return None;
            }
            idx = widx;
            let take = (end - idx).min(64);
            let bits = self.occ[wj] & low_mask(take);
            if bits != 0 {
                return Some(idx + bits.trailing_zeros() as usize - start);
            }
            // The only set bits in this word lie beyond `end` (final,
            // partial word): done with this segment.
            idx += take;
        }
        None
    }

    /// Removes and returns the earliest event, or `None` if the queue is
    /// empty. Ties pop in insertion order.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.pop_due(SimTime::MAX)
    }

    /// Removes and returns the earliest event if it is due, i.e. scheduled
    /// at or before `horizon`; otherwise leaves the queue untouched. One
    /// lookup decides both which level holds the head and whether it is due.
    #[inline]
    pub fn pop_due(&mut self, horizon: SimTime) -> Option<(SimTime, E)> {
        let horizon = horizon.as_nanos();
        if self.ring_len > 0 {
            let head = self.buckets[(self.scan_tick & RING_MASK) as usize].head;
            let key = (self.scan_tick, self.slab[head as usize].seq);
            let heap_first = self
                .overflow
                .peek()
                .is_some_and(|top| (top.time.as_nanos(), top.seq) < key);
            if !heap_first {
                return (key.0 <= horizon).then(|| self.pop_ring());
            }
        }
        let top = self.overflow.peek()?;
        (top.time.as_nanos() <= horizon).then(|| self.pop_overflow())
    }

    /// The timestamp of the earliest pending event, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        let ring = (self.ring_len > 0).then_some(self.scan_tick);
        let heap = self.overflow.peek().map(|e| e.time.as_nanos());
        let tick = match (ring, heap) {
            (None, None) => return None,
            (Some(t), None) | (None, Some(t)) => t,
            (Some(a), Some(b)) => a.min(b),
        };
        Some(SimTime::from_nanos(tick))
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.ring_len + self.overflow.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total pushes that missed the ring window and went to the overflow
    /// heap. The rest of the pushes took the O(1) ring path.
    pub fn overflow_pushed(&self) -> u64 {
        self.overflow_pushed
    }

    /// Drops all pending events.
    pub fn clear(&mut self) {
        self.buckets.fill(EMPTY_BUCKET);
        self.slab.clear();
        self.free = NIL;
        self.occ.fill(0);
        self.summary.fill(0);
        self.ring_len = 0;
        self.overflow.clear();
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> std::fmt::Debug for EventQueue<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventQueue")
            .field("pending", &self.len())
            .field("ring", &self.ring_len)
            .field("overflow", &self.overflow.len())
            .field("overflow_pushed", &self.overflow_pushed)
            .finish()
    }
}

/// The seed repository's single-`BinaryHeap` queue, kept verbatim as a
/// differential-testing oracle for the two-level queue above.
#[cfg(test)]
pub(crate) mod oracle {
    use super::{Entry, SimTime};
    use std::collections::BinaryHeap;

    /// Reference implementation: one max-heap over inverted `(time, seq)`.
    pub(crate) struct HeapQueue<E> {
        heap: BinaryHeap<Entry<E>>,
        next_seq: u64,
    }

    impl<E> HeapQueue<E> {
        pub(crate) fn new() -> Self {
            HeapQueue {
                heap: BinaryHeap::new(),
                next_seq: 0,
            }
        }

        pub(crate) fn push(&mut self, time: SimTime, event: E) {
            let seq = self.next_seq;
            self.next_seq += 1;
            self.heap.push(Entry { time, seq, event });
        }

        pub(crate) fn pop(&mut self) -> Option<(SimTime, E)> {
            self.heap.pop().map(|e| (e.time, e.event))
        }

        /// Pops the head only if it is scheduled at or before `horizon`.
        pub(crate) fn pop_due(&mut self, horizon: SimTime) -> Option<(SimTime, E)> {
            if self.peek_time()? > horizon {
                return None;
            }
            self.pop()
        }

        pub(crate) fn peek_time(&self) -> Option<SimTime> {
            self.heap.peek().map(|e| e.time)
        }

        pub(crate) fn len(&self) -> usize {
            self.heap.len()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::oracle::HeapQueue;
    use super::*;
    use crate::rng::DetRng;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_nanos(30), 3);
        q.push(SimTime::from_nanos(10), 1);
        q.push(SimTime::from_nanos(20), 2);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn ties_pop_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_nanos(5);
        for i in 0..100 {
            q.push(t, i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn peek_does_not_consume() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_nanos(7), ());
        assert_eq!(q.peek_time(), Some(SimTime::from_nanos(7)));
        assert_eq!(q.len(), 1);
        assert!(q.pop().is_some());
        assert!(q.peek_time().is_none());
        assert!(q.is_empty());
    }

    #[test]
    fn clear_drops_everything_pending() {
        let mut q = EventQueue::new();
        q.push(SimTime::ZERO, 1);
        q.push(SimTime::from_nanos(3), 2);
        q.push(SimTime::from_nanos(1_000_000), 3);
        q.clear();
        assert!(q.is_empty());
        assert!(q.pop().is_none());
        q.push(SimTime::from_nanos(9), 4);
        assert_eq!(q.pop(), Some((SimTime::from_nanos(9), 4)));
        assert!(q.pop().is_none());
    }

    #[test]
    fn interleaved_push_pop_stays_ordered() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_nanos(10), "a");
        q.push(SimTime::from_nanos(5), "b");
        assert_eq!(q.pop().unwrap().1, "b");
        q.push(SimTime::from_nanos(7), "c");
        q.push(SimTime::from_nanos(12), "d");
        assert_eq!(q.pop().unwrap().1, "c");
        assert_eq!(q.pop().unwrap().1, "a");
        assert_eq!(q.pop().unwrap().1, "d");
    }

    #[test]
    fn far_pushes_take_the_overflow_path() {
        let mut q = EventQueue::new();
        q.push(SimTime::ZERO, 0u32);
        // Far beyond the ring window.
        q.push(SimTime::from_nanos(1_000_000), 2);
        q.push(SimTime::from_nanos(3), 1);
        assert_eq!(q.len(), 3);
        assert_eq!(q.overflow_pushed(), 1);
        assert_eq!(q.pop().unwrap().1, 0);
        assert_eq!(q.pop().unwrap().1, 1);
        assert_eq!(q.peek_time(), Some(SimTime::from_nanos(1_000_000)));
        assert_eq!(q.pop().unwrap().1, 2);
        assert_eq!(q.overflow_pushed(), 1);
    }

    #[test]
    fn same_instant_fifo_spans_ring_and_overflow() {
        let t = SimTime::from_nanos;
        let mut q = EventQueue::new();
        q.push(t(200_000), 1u32); // outside the window [0, 8192) → overflow
        q.push(t(196_000), 2); // overflow
        assert_eq!(q.pop().unwrap(), (t(196_000), 2)); // the window moves here
        q.push(t(200_000), 3); // now in the window → ring
        assert_eq!(q.overflow_pushed(), 2);
        // Seq order at t=200000 must hold across the two levels: 1 before 3.
        assert_eq!(q.pop().unwrap(), (t(200_000), 1));
        assert_eq!(q.pop().unwrap(), (t(200_000), 3));
        assert!(q.pop().is_none());
    }

    /// The window starts at the last popped tick, not at the next occupied
    /// bucket: a follow-up shortly after the popped event stays in the ring
    /// even when the next pending event is thousands of ticks away.
    #[test]
    fn window_follows_the_clock() {
        let mut q = EventQueue::new();
        q.push(SimTime::ZERO, 'a');
        q.push(SimTime::from_nanos(5_000), 'b');
        assert_eq!(q.pop(), Some((SimTime::ZERO, 'a')));
        q.push(SimTime::from_nanos(40), 'c');
        assert!(q.overflow.is_empty(), "a near follow-up fell into the heap");
        assert_eq!(q.overflow_pushed(), 0);
        assert_eq!(q.pop(), Some((SimTime::from_nanos(40), 'c')));
        assert_eq!(q.pop(), Some((SimTime::from_nanos(5_000), 'b')));
    }

    /// A heap pop moves the window up to the popped time, so pushes just
    /// after it land in the ring.
    #[test]
    fn heap_pops_move_the_window() {
        let mut q = EventQueue::new();
        q.push(SimTime::ZERO, 0u32);
        q.push(SimTime::from_nanos(100_000), 1); // overflow
        q.push(SimTime::from_nanos(100_000 + 4_000), 2); // overflow
        assert_eq!(q.pop().unwrap().1, 0);
        assert_eq!(q.pop().unwrap().1, 1); // ring empty: heap-only pop
        q.push(SimTime::from_nanos(100_010), 3);
        assert_eq!(q.overflow_pushed(), 2);
        assert_eq!(q.pop().unwrap(), (SimTime::from_nanos(100_010), 3));
        assert_eq!(q.pop().unwrap(), (SimTime::from_nanos(104_000), 2));
    }

    #[test]
    fn pop_due_only_takes_due_events() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_nanos(5), 'a');
        q.push(SimTime::from_nanos(5), 'b');
        q.push(SimTime::from_nanos(6), 'c');
        q.push(SimTime::from_nanos(1_000_000), 'd');
        let t = SimTime::from_nanos;
        assert_eq!(q.pop_due(t(4)), None);
        assert_eq!(q.pop_due(t(5)), Some((t(5), 'a')));
        assert_eq!(q.pop_due(t(5)), Some((t(5), 'b')));
        assert_eq!(q.pop_due(t(5)), None);
        assert_eq!(q.pop_due(t(6)), Some((t(6), 'c')));
        assert_eq!(q.pop_due(t(999_999)), None);
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop_due(SimTime::MAX), Some((t(1_000_000), 'd')));
        assert_eq!(q.pop_due(SimTime::MAX), None);
    }

    /// Drives the two-level queue and the heap oracle through the same
    /// random interleaving of pushes (near, far, past, window-edge, bursts),
    /// pops and `pop_due` at random horizons, and asserts identical results.
    /// Halfway through, the queue is cloned; from then on the clone gets the
    /// same operations and must return the same results as both.
    fn differential_run(seed: u64, ops: usize) {
        let mut q = EventQueue::new();
        let mut o = HeapQueue::new();
        let mut twin: Option<EventQueue<u64>> = None;
        let mut rng = DetRng::new(seed);
        let mut now = 0u64;
        let mut tag = 0u64;
        for op in 0..ops {
            if op == ops / 2 {
                twin = Some(q.clone());
            }
            match rng.below(12) {
                0..=5 => {
                    let t = match rng.below(9) {
                        0 => now + rng.below(4), // same instant or just ahead
                        1..=4 => now + rng.below(64),
                        5 => now + rng.below(1_000_000), // far horizon
                        6 => now.saturating_sub(rng.below(32)), // in the past
                        7 => now + 100_000 + rng.below(8), // timeout-like, clustered
                        _ => now + (RING_BUCKETS as u64 - 32) + rng.below(64), // window edge
                    };
                    let burst = if rng.below(5) == 0 { 4 } else { 1 };
                    for _ in 0..burst {
                        q.push(SimTime::from_nanos(t), tag);
                        o.push(SimTime::from_nanos(t), tag);
                        if let Some(tw) = twin.as_mut() {
                            tw.push(SimTime::from_nanos(t), tag);
                        }
                        tag += 1;
                    }
                }
                6..=8 => {
                    assert_eq!(q.peek_time(), o.peek_time(), "peek diverged");
                    let got = q.pop();
                    assert_eq!(got, o.pop(), "pop diverged (seed {seed})");
                    if let Some(tw) = twin.as_mut() {
                        assert_eq!(tw.pop(), got, "clone diverged (seed {seed})");
                    }
                    if let Some((t, _)) = got {
                        now = t.as_nanos();
                    }
                }
                _ => {
                    let h = match rng.below(4) {
                        0 => now.saturating_sub(rng.below(16)),
                        1 => now + rng.below(64),
                        2 => now + rng.below(20_000),
                        _ => now + rng.below(2_000_000),
                    };
                    let h = SimTime::from_nanos(h);
                    let got = q.pop_due(h);
                    assert_eq!(got, o.pop_due(h), "pop_due diverged (seed {seed})");
                    if let Some(tw) = twin.as_mut() {
                        assert_eq!(tw.pop_due(h), got, "clone diverged (seed {seed})");
                    }
                    if let Some((t, _)) = got {
                        now = t.as_nanos();
                    }
                }
            }
            assert_eq!(q.len(), o.len());
        }
        let mut twin = twin.expect("cloned halfway");
        // Drain all three completely.
        loop {
            let got = q.pop();
            assert_eq!(got, o.pop(), "drain diverged (seed {seed})");
            assert_eq!(twin.pop(), got, "clone drain diverged (seed {seed})");
            if got.is_none() {
                break;
            }
        }
    }

    #[test]
    fn differential_vs_heap_oracle() {
        for seed in 0..32 {
            differential_run(0xA11CE ^ seed, 4_000);
        }
    }
}
