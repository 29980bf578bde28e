//! The discrete-event queue every simulation drains, on a hierarchical
//! timing wheel.
//!
//! The boot-sequence and queueing models advance a virtual clock through a
//! priority queue of timestamped events. That queue was once a binary
//! heap, whose `O(log n)` push/pop dominated wall-clock once millions of
//! requests were in flight; [`EventQueue`] is now a **hierarchical timing
//! wheel**: eight (`LEVELS`) coarse-to-fine wheels of 64 (`SLOTS`) slots
//! each over raw nanosecond ticks, with an overflow level beyond the
//! wheel horizon falling back to a sorted spill heap. Push is
//! `O(1)`, and popping drains a **whole wheel slot per clock advance** —
//! every event sharing the next tick comes out in one batch — instead of
//! one heap pop per event.
//!
//! A simulation drives it with a typed event enum: push the initial
//! events, then pop `(timestamp, event)` pairs and `match` on each, pushing
//! follow-up events as the handlers run. The timestamp of the latest pop
//! is the simulation's clock ([`EventQueue::frontier`]).
//!
//! Ordering is exactly the reference heap's: timestamp first, insertion
//! sequence second (FIFO among equal timestamps). The pre-wheel
//! implementation is retained as [`ReferenceHeap`] — the ordering oracle
//! for the property tests and the baseline the `event_loop` microbench
//! measures the wheel against.
//!
//! **Past-timestamp semantics** (shared by the wheel and the reference
//! heap): pushing an event before the queue's pop frontier clamps the
//! timestamp to that frontier. The event fires "now"; the clock never
//! rewinds.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::time::Nanos;

/// Bits of the tick resolved per wheel level (64 slots per level).
const SLOT_BITS: u32 = 6;
/// Slots per wheel level.
const SLOTS: usize = 1 << SLOT_BITS;
/// Wheel levels; level `l` slots are `2^(6l)` ns wide, so the wheels cover
/// `2^48` ns (~3.3 virtual days) past the cursor before spilling over.
const LEVELS: usize = 8;
/// Bits of tick delta the wheels can hold; anything further out spills.
const SPAN_BITS: u32 = SLOT_BITS * LEVELS as u32;

/// One timestamped entry of the event core.
#[derive(Debug)]
struct Entry<T> {
    at: Nanos,
    seq: u64,
    value: T,
}

/// Lifetime operation counters of one event core — the timing wheel's
/// own telemetry, surfaced by [`EventQueue::counters`].
///
/// `pushes` and `pops` count the logical event traffic, while
/// `slot_drains`, `cascades` and `spill_promotions` describe the wheel
/// work that traffic cost.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct CoreCounters {
    /// Entries scheduled into the core.
    pub pushes: u64,
    /// Entries drained out of the core.
    pub pops: u64,
    /// Whole-slot batch drains (one per level-0 clock advance).
    pub slot_drains: u64,
    /// Coarse-slot cascades into finer levels.
    pub cascades: u64,
    /// Entries promoted out of the overflow spill heap into the wheels.
    pub spill_promotions: u64,
}

impl CoreCounters {
    /// Component-wise sum of two counter snapshots (used to fold a
    /// simulation's event queue with its completion timers' queues).
    pub fn merged(self, other: CoreCounters) -> CoreCounters {
        CoreCounters {
            pushes: self.pushes + other.pushes,
            pops: self.pops + other.pops,
            slot_drains: self.slot_drains + other.slot_drains,
            cascades: self.cascades + other.cascades,
            spill_promotions: self.spill_promotions + other.spill_promotions,
        }
    }
}

/// An overflow entry; the spill heap is a min-heap on `(at, seq)`.
struct Spill<T>(Entry<T>);

impl<T> PartialEq for Spill<T> {
    fn eq(&self, other: &Self) -> bool {
        self.0.at == other.0.at && self.0.seq == other.0.seq
    }
}
impl<T> Eq for Spill<T> {}
impl<T> PartialOrd for Spill<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for Spill<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest entry pops first.
        other
            .0
            .at
            .cmp(&self.0.at)
            .then_with(|| other.0.seq.cmp(&self.0.seq))
    }
}

/// A timestamp-ordered event queue of values on the timing wheel.
///
/// Pops are monotone: pushing a timestamp behind the pop frontier (the
/// timestamp of the latest pop) clamps it to the frontier, so the entry
/// comes out "now" and popped timestamps never go backwards. Equal
/// timestamps pop in insertion (FIFO) order.
///
/// # Example
///
/// ```
/// use simcore::{EventQueue, Nanos};
///
/// let mut q = EventQueue::new();
/// q.push(Nanos::from_millis(5), "late");
/// q.push(Nanos::from_millis(1), "early");
/// assert_eq!(q.pop(), Some((Nanos::from_millis(1), "early")));
/// assert_eq!(q.pop(), Some((Nanos::from_millis(5), "late")));
/// assert!(q.pop().is_none());
/// ```
///
/// Invariants:
/// * `cursor` is the pop frontier (the tick of the latest drained slot);
///   every stored entry satisfies `at >= cursor` — pushes clamp.
/// * Wheel entries lie within `2^SPAN_BITS` ticks of `cursor`; everything
///   further out waits in the `overflow` spill heap and is promoted into
///   the wheels once the cursor comes within range.
/// * `batch` holds the drained earliest tick's entries in `seq` order;
///   pops come from it first, so a whole slot costs one wheel advance.
pub struct EventQueue<T> {
    /// `LEVELS * SLOTS` slot buffers (drained buffers keep their capacity).
    slots: Box<[Vec<Entry<T>>]>,
    /// One occupancy bitmap per level; bit `i` set iff slot `i` is non-empty.
    occupied: [u64; LEVELS],
    /// The pop frontier in raw nanosecond ticks.
    cursor: u64,
    /// The sorted spill heap holding entries beyond the wheel horizon.
    overflow: BinaryHeap<Spill<T>>,
    /// Cached tick of the earliest spilled entry (`u64::MAX` when none),
    /// so the per-advance promotion check never touches the heap.
    overflow_min: u64,
    /// The drained current tick, sorted by **descending** sequence number
    /// so popping from the back yields insertion order with zero copies
    /// (the level-0 slot is swapped in whole, not copied out).
    batch: Vec<Entry<T>>,
    /// Reusable buffer for cascading coarse slots into finer levels.
    scratch: Vec<Entry<T>>,
    seq: u64,
    len: usize,
    counters: CoreCounters,
}

impl<T> EventQueue<T> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            slots: (0..LEVELS * SLOTS).map(|_| Vec::new()).collect(),
            occupied: [0; LEVELS],
            cursor: 0,
            overflow: BinaryHeap::new(),
            overflow_min: u64::MAX,
            batch: Vec::new(),
            scratch: Vec::new(),
            seq: 0,
            len: 0,
            counters: CoreCounters::default(),
        }
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the queue has no pending events.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Snapshot of the queue's lifetime operation counters.
    pub fn counters(&self) -> CoreCounters {
        self.counters
    }

    /// The pop frontier: pushes behind it clamp to it.
    pub fn frontier(&self) -> Nanos {
        Nanos::from_nanos(self.cursor)
    }

    /// Schedules `value` at virtual time `at`.
    ///
    /// A timestamp behind the pop frontier is clamped to the frontier: the
    /// value fires "now" rather than rewinding the queue's clock.
    pub fn push(&mut self, at: Nanos, value: T) {
        let seq = self.seq;
        self.seq += 1;
        let at = Nanos::from_nanos(at.as_nanos().max(self.cursor));
        self.insert(Entry { at, seq, value });
        self.len += 1;
        self.counters.pushes += 1;
    }

    /// Routes an entry to its wheel slot or the overflow spill heap.
    fn insert(&mut self, entry: Entry<T>) {
        let tick = entry.at.as_nanos();
        debug_assert!(tick >= self.cursor, "entries never precede the cursor");
        let delta = tick ^ self.cursor;
        if delta >> SPAN_BITS != 0 {
            self.overflow_min = self.overflow_min.min(tick);
            self.overflow.push(Spill(entry));
            return;
        }
        // The highest differing bit picks the coarsest level whose slot
        // index separates the entry from the cursor.
        let level = if delta == 0 {
            0
        } else {
            ((63 - delta.leading_zeros()) / SLOT_BITS) as usize
        };
        let idx = ((tick >> (SLOT_BITS * level as u32)) & (SLOTS as u64 - 1)) as usize;
        self.slots[level * SLOTS + idx].push(entry);
        self.occupied[level] |= 1 << idx;
    }

    /// The first occupied slot at or after the cursor, as `(level, slot
    /// index)` — the slot holding the earliest pending wheel entries
    /// (levels partition the future into disjoint, ordered ranges). The
    /// level-0 scan includes the cursor's own slot, which may still hold
    /// events at the current tick (scheduled "now"); higher levels hold
    /// strictly later slots only.
    fn first_pending_slot(&self) -> Option<(usize, usize)> {
        for (level, &bits) in self.occupied.iter().enumerate() {
            let cur = ((self.cursor >> (SLOT_BITS * level as u32)) & 63) as u32;
            let mask = if level == 0 {
                u64::MAX << cur
            } else {
                (u64::MAX << cur) << 1
            };
            let bits = bits & mask;
            if bits != 0 {
                return Some((level, bits.trailing_zeros() as usize));
            }
        }
        None
    }

    /// Drains the earliest pending tick into `batch` (seq-sorted), moving
    /// the cursor there; returns `false` when nothing is pending.
    ///
    /// Higher-level slots reached on the way are cascaded into finer
    /// levels, and overflow entries are promoted once within the horizon —
    /// each entry cascades at most [`LEVELS`] times over its lifetime.
    fn advance(&mut self) -> bool {
        debug_assert!(self.batch.is_empty());
        loop {
            // Promote spilled entries that have come within the horizon.
            while (self.overflow_min ^ self.cursor) >> SPAN_BITS == 0
                && self.overflow_min != u64::MAX
            {
                let entry = self.overflow.pop().expect("cached min implies an entry").0;
                self.overflow_min = self.overflow.peek().map_or(u64::MAX, |s| s.0.at.as_nanos());
                self.insert(entry);
                self.counters.spill_promotions += 1;
            }
            let (level, idx) = match self.first_pending_slot() {
                Some(found) => found,
                None if self.overflow_min != u64::MAX => {
                    // Everything pending is past the horizon: jump there.
                    self.cursor = self.overflow_min;
                    continue;
                }
                None => return false,
            };
            let shift = SLOT_BITS * level as u32;
            self.occupied[level] &= !(1u64 << idx);
            if level == 0 {
                // A level-0 slot is one tick wide: the whole slot shares a
                // timestamp, so draining it is the batched clock advance —
                // the slot buffer is swapped in whole, nothing is copied.
                self.cursor = (self.cursor & !(SLOTS as u64 - 1)) | idx as u64;
                std::mem::swap(&mut self.batch, &mut self.slots[idx]);
                if self.batch.len() > 1 {
                    // Back-to-front pops must see ascending seq.
                    self.batch
                        .sort_unstable_by_key(|e| std::cmp::Reverse(e.seq));
                }
                debug_assert!(self.batch.iter().all(|e| e.at.as_nanos() == self.cursor));
                self.counters.slot_drains += 1;
                return true;
            }
            // Cascade: move to the slot's base tick and respread its
            // entries into the finer levels.
            let window = !((1u64 << (shift + SLOT_BITS)) - 1);
            self.cursor = (self.cursor & window) | ((idx as u64) << shift);
            let mut scratch = std::mem::take(&mut self.scratch);
            scratch.append(&mut self.slots[level * SLOTS + idx]);
            for entry in scratch.drain(..) {
                self.insert(entry);
            }
            self.scratch = scratch;
            self.counters.cascades += 1;
        }
    }

    /// Removes and returns the earliest event.
    pub fn pop(&mut self) -> Option<(Nanos, T)> {
        if self.batch.is_empty() && !self.advance() {
            return None;
        }
        self.len -= 1;
        self.counters.pops += 1;
        self.batch.pop().map(|e| (e.at, e.value))
    }

    /// Returns the timestamp of the earliest event without removing it.
    pub fn peek_time(&self) -> Option<Nanos> {
        if let Some(entry) = self.batch.last() {
            return Some(entry.at);
        }
        // Overflow entries may have come within the horizon since the last
        // advance (promotion is lazy), so the true minimum is the smaller
        // of the spill peek and the first occupied slot's earliest entry.
        // The spill heap is ordered by (at, seq), so its peek is its min.
        let mut best = self.overflow.peek().map(|s| s.0.at);
        if let Some((level, idx)) = self.first_pending_slot() {
            let slot_min = self.slots[level * SLOTS + idx]
                .iter()
                .map(|e| e.at)
                .min()
                .expect("occupied slots are non-empty");
            best = Some(best.map_or(slot_min, |b| b.min(slot_min)));
        }
        best
    }
}

impl<T> Default for EventQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> std::fmt::Debug for EventQueue<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventQueue")
            .field("pending", &self.len)
            .field("frontier", &self.frontier())
            .finish()
    }
}

/// The retained binary-heap event queue the timing wheel replaced.
///
/// It implements the same contract as [`EventQueue`] — `(timestamp, seq)`
/// ordering, FIFO among equal timestamps, past pushes clamped to the pop
/// frontier — with `O(log n)` push/pop. It stays in the tree as the
/// ordering oracle for the wheel's property tests and as the baseline the
/// `event_loop` microbench measures the wheel's speedup against.
#[derive(Debug)]
pub struct ReferenceHeap<T> {
    heap: BinaryHeap<QueueEntry<T>>,
    seq: u64,
    frontier: Nanos,
}

#[derive(Debug)]
struct QueueEntry<T> {
    at: Nanos,
    seq: u64,
    value: T,
}

impl<T> PartialEq for QueueEntry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<T> Eq for QueueEntry<T> {}
impl<T> PartialOrd for QueueEntry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for QueueEntry<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

impl<T> ReferenceHeap<T> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        ReferenceHeap {
            heap: BinaryHeap::new(),
            seq: 0,
            frontier: Nanos::ZERO,
        }
    }

    /// Schedules `value` at virtual time `at`, clamped to the pop frontier
    /// (the same fire-at-now semantics as [`EventQueue::push`]).
    pub fn push(&mut self, at: Nanos, value: T) {
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(QueueEntry {
            at: at.max(self.frontier),
            seq,
            value,
        });
    }

    /// Removes and returns the earliest event, advancing the pop frontier.
    pub fn pop(&mut self) -> Option<(Nanos, T)> {
        self.heap.pop().map(|e| {
            self.frontier = e.at;
            (e.at, e.value)
        })
    }

    /// Returns the timestamp of the earliest event without removing it.
    pub fn peek_time(&self) -> Option<Nanos> {
        self.heap.peek().map(|e| e.at)
    }

    /// The pop frontier: pushes behind it clamp to it.
    pub fn frontier(&self) -> Nanos {
        self.frontier
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether the queue has no pending events.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

impl<T> Default for ReferenceHeap<T> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn queue_orders_by_time_then_fifo() {
        let mut q = EventQueue::new();
        q.push(Nanos::from_nanos(10), "a");
        q.push(Nanos::from_nanos(10), "b");
        q.push(Nanos::from_nanos(5), "c");
        assert_eq!(q.len(), 3);
        assert_eq!(q.pop().unwrap().1, "c");
        assert_eq!(q.pop().unwrap().1, "a");
        assert_eq!(q.pop().unwrap().1, "b");
        assert!(q.is_empty());
    }

    #[test]
    fn peek_time_reports_earliest() {
        let mut q = EventQueue::new();
        assert_eq!(q.peek_time(), None);
        q.push(Nanos::from_micros(7), 1u32);
        q.push(Nanos::from_micros(3), 2u32);
        assert_eq!(q.peek_time(), Some(Nanos::from_micros(3)));
    }

    #[test]
    fn pushes_behind_the_frontier_fire_at_the_frontier() {
        // The clamp semantics, defined once for both implementations: a
        // timestamp behind the pop frontier comes out AT the frontier
        // (after anything already pending there), never before it.
        let mut wheel = EventQueue::new();
        let mut heap = ReferenceHeap::new();
        for q in [0, 1] {
            let push = |w: &mut EventQueue<u32>, h: &mut ReferenceHeap<u32>, at, v| {
                if q == 0 {
                    w.push(at, v)
                } else {
                    h.push(at, v)
                }
            };
            let pop = |w: &mut EventQueue<u32>, h: &mut ReferenceHeap<u32>| {
                if q == 0 {
                    w.pop()
                } else {
                    h.pop()
                }
            };
            push(&mut wheel, &mut heap, Nanos::from_millis(5), 1);
            assert_eq!(pop(&mut wheel, &mut heap), Some((Nanos::from_millis(5), 1)));
            // 1 ms is behind the 5 ms frontier: it fires at 5 ms.
            push(&mut wheel, &mut heap, Nanos::from_millis(1), 2);
            push(&mut wheel, &mut heap, Nanos::from_millis(5), 3);
            assert_eq!(pop(&mut wheel, &mut heap), Some((Nanos::from_millis(5), 2)));
            assert_eq!(pop(&mut wheel, &mut heap), Some((Nanos::from_millis(5), 3)));
        }
        assert_eq!(wheel.frontier(), Nanos::from_millis(5));
        assert_eq!(heap.frontier(), Nanos::from_millis(5));
    }

    #[test]
    fn far_future_events_spill_and_promote_in_order() {
        // Beyond 2^48 ns from the cursor the wheels hand over to the
        // sorted spill heap; promotion back into the wheels must keep the
        // exact (timestamp, seq) order, including FIFO among equal stamps.
        let far = Nanos::from_nanos(1 << 52);
        let mut q = EventQueue::new();
        q.push(far, "spill-a");
        q.push(Nanos::from_nanos(7), "near");
        q.push(far, "spill-b");
        q.push(far + Nanos::from_nanos(1), "spill-c");
        assert_eq!(q.len(), 4);
        assert_eq!(q.peek_time(), Some(Nanos::from_nanos(7)));
        assert_eq!(q.pop(), Some((Nanos::from_nanos(7), "near")));
        assert_eq!(q.peek_time(), Some(far));
        assert_eq!(q.pop(), Some((far, "spill-a")));
        assert_eq!(q.pop(), Some((far, "spill-b")));
        assert_eq!(q.pop(), Some((far + Nanos::from_nanos(1), "spill-c")));
        assert!(q.pop().is_none());
    }

    #[test]
    fn cascaded_slots_preserve_fifo_among_equal_timestamps() {
        // Entries landing in a coarse slot are respread as the cursor
        // approaches; the drain must still observe insertion order.
        let mut q = EventQueue::new();
        let at = Nanos::from_micros(700); // level >= 1 from cursor 0
        for i in 0..100u32 {
            q.push(at, i);
        }
        q.push(Nanos::from_micros(1), u32::MAX);
        assert_eq!(q.pop().unwrap().1, u32::MAX);
        for i in 0..100u32 {
            assert_eq!(q.pop(), Some((at, i)));
        }
        assert!(q.is_empty());
    }

    #[test]
    fn wheel_matches_reference_heap_on_a_mixed_schedule() {
        // A deterministic mixed drive: interleaved pushes (spanning slot,
        // cascade and overflow distances, with repeated timestamps) and
        // pops must produce identical sequences on both implementations.
        let mut wheel = EventQueue::new();
        let mut heap = ReferenceHeap::new();
        let mut lcg: u64 = 0x2545_f491_4f6c_dd1d;
        let mut step = || {
            lcg = lcg
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            lcg >> 33
        };
        for i in 0..5_000u64 {
            let r = step();
            if r % 4 == 0 {
                assert_eq!(wheel.pop(), heap.pop(), "pop #{i}");
            } else {
                let shift = [0u32, 6, 14, 26, 50][(r % 5) as usize];
                let at = Nanos::from_nanos((step() % 64) << shift);
                wheel.push(at, i);
                heap.push(at, i);
                assert_eq!(wheel.peek_time(), heap.peek_time(), "peek after push #{i}");
            }
            assert_eq!(wheel.len(), heap.len());
        }
        loop {
            let (a, b) = (wheel.pop(), heap.pop());
            assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
    }

    #[test]
    fn core_counters_track_the_wheel_operations() {
        let mut q = EventQueue::new();
        assert_eq!(q.counters(), CoreCounters::default());
        q.push(Nanos::from_nanos(1 << 52), "spill");
        q.push(Nanos::from_micros(700), "cascade"); // level >= 1 from cursor 0
        q.push(Nanos::from_nanos(3), "near");
        let c = q.counters();
        assert_eq!((c.pushes, c.pops), (3, 0));
        while q.pop().is_some() {}
        let c = q.counters();
        assert_eq!((c.pushes, c.pops), (3, 3));
        assert_eq!(c.slot_drains, 3, "one whole-slot drain per distinct tick");
        assert!(c.cascades >= 1, "the 700us entry lands in a coarse slot");
        assert_eq!(c.spill_promotions, 1, "the far entry promotes once");
    }

    #[test]
    fn same_tick_pushes_made_mid_drain_pop_after_the_drained_batch() {
        // Popping drains a whole wheel slot at a time; a handler that
        // pushes more work at the same timestamp must see it pop after
        // the already-drained events of that tick, in push order.
        let mut q = EventQueue::new();
        let at = Nanos::from_micros(3);
        q.push(at, 1u32);
        q.push(at, 2);
        assert_eq!(q.pop(), Some((at, 1)));
        q.push(Nanos::ZERO, 3);
        q.push(at, 4);
        assert_eq!(q.pop(), Some((at, 2)));
        assert_eq!(q.pop(), Some((at, 3)));
        assert_eq!(q.pop(), Some((at, 4)));
        assert!(q.pop().is_none());
        assert_eq!(
            q.frontier(),
            at,
            "same-tick work must not advance the clock"
        );
    }
}
