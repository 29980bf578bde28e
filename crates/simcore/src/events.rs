//! The discrete-event queue every simulation drains: a binary min-heap on
//! `(timestamp, seq)`.
//!
//! The boot-sequence and queueing models advance a virtual clock through a
//! priority queue of timestamped events. A simulation drives it with a
//! typed event enum: push the initial events, then pop `(timestamp,
//! event)` pairs and `match` on each, pushing follow-up events as the
//! handlers run. The timestamp of the latest pop is the simulation's clock
//! ([`EventQueue::frontier`]). The same queue holds a
//! [`CompletionTimer`](crate::resource::CompletionTimer)'s pending
//! completions.
//!
//! Ordering is timestamp first, insertion sequence second (FIFO among
//! equal timestamps). Push and pop are `O(log n)` in the pending count,
//! which stays small: no simulation in the workspace holds more than a
//! few thousand pending events, paper mode included.
//!
//! **Past-timestamp semantics**: pushing an event before the queue's pop
//! frontier clamps the timestamp to that frontier. The event fires "now";
//! the clock never rewinds.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::time::Nanos;

/// Lifetime operation counters of one event queue, surfaced by
/// [`EventQueue::counters`] and, for the queue behind a completion timer,
/// by [`CompletionTimer::counters`](crate::resource::CompletionTimer::counters).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct CoreCounters {
    /// Events pushed onto the queue.
    pub pushes: u64,
    /// Events popped off the queue.
    pub pops: u64,
}

impl CoreCounters {
    /// Component-wise sum of two counter snapshots (used to fold a
    /// simulation's event queue with its completion timers' counters).
    pub fn merged(self, other: CoreCounters) -> CoreCounters {
        CoreCounters {
            pushes: self.pushes + other.pushes,
            pops: self.pops + other.pops,
        }
    }
}

/// One timestamped entry; the heap is a min-heap on `(at, seq)`.
struct Entry<T> {
    at: Nanos,
    seq: u64,
    value: T,
}

impl<T> PartialEq for Entry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<T> Eq for Entry<T> {}
impl<T> PartialOrd for Entry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for Entry<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest entry pops first.
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A timestamp-ordered event queue of values.
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
pub struct EventQueue<T> {
    heap: BinaryHeap<Entry<T>>,
    /// Sequence number of the next push, and so the number of pushes.
    seq: u64,
    frontier: Nanos,
}

impl<T> EventQueue<T> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            seq: 0,
            frontier: Nanos::ZERO,
        }
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether the queue has no pending events.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Snapshot of the queue's lifetime operation counters.
    pub fn counters(&self) -> CoreCounters {
        CoreCounters {
            pushes: self.seq,
            pops: self.seq - self.heap.len() as u64,
        }
    }

    /// The pop frontier: pushes behind it clamp to it.
    pub fn frontier(&self) -> Nanos {
        self.frontier
    }

    /// Schedules `value` at virtual time `at`.
    ///
    /// A timestamp behind the pop frontier is clamped to the frontier: the
    /// value fires "now" rather than rewinding the queue's clock.
    pub fn push(&mut self, at: Nanos, value: T) {
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Entry {
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
}

impl<T> Default for EventQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> std::fmt::Debug for EventQueue<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventQueue")
            .field("pending", &self.len())
            .field("frontier", &self.frontier)
            .finish()
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
        // A timestamp behind the pop frontier comes out AT the frontier
        // (after anything already pending there), never before it.
        let mut q = EventQueue::new();
        q.push(Nanos::from_millis(5), 1u32);
        assert_eq!(q.pop(), Some((Nanos::from_millis(5), 1)));
        // 1 ms is behind the 5 ms frontier: it fires at 5 ms.
        q.push(Nanos::from_millis(1), 2);
        q.push(Nanos::from_millis(5), 3);
        assert_eq!(q.peek_time(), Some(Nanos::from_millis(5)));
        assert_eq!(q.pop(), Some((Nanos::from_millis(5), 2)));
        assert_eq!(q.pop(), Some((Nanos::from_millis(5), 3)));
        assert_eq!(q.frontier(), Nanos::from_millis(5));
    }

    #[test]
    fn many_events_at_one_tick_pop_fifo_one_at_a_time() {
        // Equal timestamps pop in push order, after an earlier event
        // pushed last, and the pending count falls one by one.
        let mut q = EventQueue::new();
        let at = Nanos::from_micros(42);
        for i in 0..64u32 {
            q.push(at, i);
        }
        q.push(Nanos::from_micros(1), u32::MAX);
        assert_eq!(q.pop(), Some((Nanos::from_micros(1), u32::MAX)));
        for i in 0..64u32 {
            assert_eq!(q.pop(), Some((at, i)));
            assert_eq!(q.len(), 63 - i as usize);
        }
        assert!(q.pop().is_none());
        let counters = q.counters();
        assert_eq!((counters.pushes, counters.pops), (65, 65));
    }

    #[test]
    fn simulation_clock_never_rewinds_for_past_schedules() {
        // The drain loop's view of the clamp: the queue's frontier is a
        // simulation's clock, and a handler pushing at or before it gets
        // its events at that clock, in push order, after the other events
        // already pending there.
        let mut queue = EventQueue::new();
        queue.push(Nanos::from_millis(7), 0u32);
        queue.push(Nanos::from_millis(7), 1);
        let mut log = Vec::new();
        while let Some((now, ev)) = queue.pop() {
            log.push((now.as_nanos(), ev));
            if ev == 0 {
                queue.push(Nanos::from_millis(2), 2);
                queue.push(Nanos::ZERO, 3);
                queue.push(now, 4);
            }
            assert_eq!(queue.frontier(), now, "the clock is the latest pop");
        }
        assert_eq!(
            log,
            [
                (7_000_000, 0),
                (7_000_000, 1),
                (7_000_000, 2),
                (7_000_000, 3),
                (7_000_000, 4)
            ],
            "past pushes fire at the frontier, FIFO among equal timestamps"
        );
        assert_eq!(queue.frontier(), Nanos::from_millis(7));
    }
}
