//! Shared-resource models used by the device simulations.
//!
//! Two small building blocks appear over and over in the platform models:
//!
//! * [`Bandwidth`] — a byte-per-second capacity that turns a transfer size
//!   into a transfer duration (used for NICs, NVMe devices and virtio
//!   queues).
//! * [`CompletionTimer`] — a batched completion timer for service-slot
//!   pools: completions share coalesced scheduler wake-ups and each wake
//!   drains everything due at once instead of costing one scheduled
//!   event each.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use serde::{Deserialize, Serialize};

use crate::events::{CoreCounters, EventQueue};
use crate::time::Nanos;

/// A bandwidth expressed in bytes per second.
///
/// # Example
///
/// ```
/// use simcore::{Bandwidth, Nanos};
///
/// let gbe = Bandwidth::from_gbit_per_sec(10.0);
/// let t = gbe.transfer_time(1_250_000_000); // 1.25 GB over 10 Gbit/s
/// assert_eq!(t, Nanos::from_secs(1));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Serialize, Deserialize)]
pub struct Bandwidth {
    bytes_per_sec: f64,
}

impl Bandwidth {
    /// Creates a bandwidth from bytes per second.
    pub fn from_bytes_per_sec(bytes_per_sec: f64) -> Self {
        Bandwidth {
            bytes_per_sec: bytes_per_sec.max(0.0),
        }
    }

    /// Creates a bandwidth from mebibytes per second.
    pub fn from_mib_per_sec(mib: f64) -> Self {
        Self::from_bytes_per_sec(mib * 1024.0 * 1024.0)
    }

    /// Creates a bandwidth from gigabits per second.
    pub fn from_gbit_per_sec(gbit: f64) -> Self {
        Self::from_bytes_per_sec(gbit * 1e9 / 8.0)
    }

    /// Bandwidth in bytes per second.
    pub fn bytes_per_sec(self) -> f64 {
        self.bytes_per_sec
    }

    /// Bandwidth in mebibytes per second.
    pub fn mib_per_sec(self) -> f64 {
        self.bytes_per_sec / (1024.0 * 1024.0)
    }

    /// Bandwidth in gigabits per second.
    pub fn gbit_per_sec(self) -> f64 {
        self.bytes_per_sec * 8.0 / 1e9
    }

    /// Time to transfer `bytes` at this bandwidth.
    ///
    /// A zero bandwidth yields an effectively infinite (saturated `u64`)
    /// duration rather than panicking.
    pub fn transfer_time(self, bytes: u64) -> Nanos {
        if self.bytes_per_sec <= 0.0 {
            return Nanos::from_nanos(u64::MAX);
        }
        Nanos::from_secs_f64(bytes as f64 / self.bytes_per_sec)
    }

    /// Scales the bandwidth by `factor` (e.g. virtualization efficiency).
    pub fn scale(self, factor: f64) -> Bandwidth {
        Bandwidth::from_bytes_per_sec(self.bytes_per_sec * factor.max(0.0))
    }
}

/// A batched completion timer for service-slot pools.
///
/// A slot-pool simulation could push one event per in-service request to
/// fire its completion. The timer replaces that with its own
/// [`EventQueue`] of pending completions plus **coalesced wake-ups**: the
/// caller keeps at most one scheduler event armed per distinct completion
/// time, and each wake drains *every* completion due by then at once.
/// The pending set is bounded by the pool's slots (one completion per
/// request in service).
///
/// Protocol:
/// * [`CompletionTimer::schedule`] registers a completion. When it returns
///   `Some(at)`, the caller must push one wake-up event on its event
///   queue at `at` (the completion became the earliest pending one); `None`
///   means an already-armed wake covers it.
/// * From the wake-up's handler, call [`CompletionTimer::wake`] with the
///   current virtual time: it drains every due completion in
///   deterministic `(timestamp, seq)` order and returns the next time to
///   arm, if a new wake is needed. Wake-ups made redundant by an earlier
///   re-arm are recognised and become no-ops (the event queue has no
///   cancellation), so stale firings never double-complete work.
///
/// Determinism: everything is a pure function of the call sequence, so
/// simulations built on the timer stay bit-identical across executor
/// worker counts.
#[derive(Debug)]
pub struct CompletionTimer<T> {
    queue: EventQueue<T>,
    /// The earliest outstanding wake-up, `<=` every pending completion
    /// whenever the queue is non-empty.
    armed: Option<Nanos>,
    /// Every wake-up time handed to the caller and not yet fired; lets a
    /// re-arm reuse a still-outstanding wake instead of scheduling a
    /// duplicate.
    outstanding: BinaryHeap<Reverse<Nanos>>,
}

impl<T> CompletionTimer<T> {
    /// Creates an empty timer.
    pub fn new() -> Self {
        CompletionTimer {
            queue: EventQueue::new(),
            armed: None,
            outstanding: BinaryHeap::new(),
        }
    }

    /// Number of pending completions.
    pub fn len(&self) -> usize {
        self.queue.len()
    }

    /// Snapshot of the lifetime operation counters of the timer's queue:
    /// `pushes` counts scheduled completions and `pops` drained ones.
    pub fn counters(&self) -> CoreCounters {
        self.queue.counters()
    }

    /// Whether no completions are pending.
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// Registers a completion at `at`. Returns `Some(at)` when the caller
    /// must arm a scheduler wake-up at that time — the completion is
    /// earlier than every outstanding wake — and `None` when an armed
    /// wake already covers it.
    pub fn schedule(&mut self, at: Nanos, item: T) -> Option<Nanos> {
        // The queue clamps timestamps behind its pop frontier; mirror the
        // clamp so the armed wake matches the time the item will drain at.
        let at = at.max(self.queue.frontier());
        self.queue.push(at, item);
        if !self.armed.is_some_and(|armed| at >= armed) {
            self.armed = Some(at);
            self.outstanding.push(Reverse(at));
            return Some(at);
        }
        None
    }

    /// Consumes the timer and returns **every** pending completion in
    /// `(timestamp, seq)` order, regardless of due time — the node-death
    /// path: a failed service pool abandons its in-flight work at once
    /// and the caller resolves each item as failed.
    ///
    /// The caller typically replaces the timer with a fresh one
    /// (`std::mem::take`). Wake-ups armed by the consumed timer that are
    /// still scheduled with the simulation fire against the replacement,
    /// where they drain nothing and arm nothing (the fresh timer starts
    /// unarmed and a stale firing at `now` earlier than the new armed
    /// time is recognised by [`CompletionTimer::wake`]'s stale check), so
    /// abandoning the old wake-ups is safe.
    pub fn into_pending(mut self) -> Vec<(Nanos, T)> {
        let mut pending = Vec::with_capacity(self.queue.len());
        while let Some(entry) = self.queue.pop() {
            pending.push(entry);
        }
        pending
    }

    /// Handles one wake-up firing at virtual time `now`: drains every
    /// completion due at or before `now` into `due` (in `(timestamp,
    /// seq)` order) and returns the next wake-up the caller must arm, if
    /// any.
    ///
    /// A stale firing (its work already drained by an earlier re-arm)
    /// drains nothing and arms nothing.
    pub fn wake(&mut self, now: Nanos, due: &mut Vec<(Nanos, T)>) -> Option<Nanos> {
        // Retire the outstanding wake that just fired.
        if self.outstanding.peek().is_some_and(|Reverse(w)| *w <= now) {
            self.outstanding.pop();
        }
        if self.armed.is_some_and(|armed| armed > now) {
            // The earliest pending completion is past `now` and an armed
            // wake covers it: this firing is stale.
            return None;
        }
        while self.queue.peek_time().is_some_and(|t| t <= now) {
            due.push(self.queue.pop().expect("peeked completion pops"));
        }
        match self.queue.peek_time() {
            None => {
                self.armed = None;
                None
            }
            Some(next) => {
                // Reuse a still-outstanding wake when it fires in time.
                if let Some(&Reverse(w)) = self.outstanding.peek() {
                    if w <= next {
                        self.armed = Some(w);
                        return None;
                    }
                }
                self.armed = Some(next);
                self.outstanding.push(Reverse(next));
                Some(next)
            }
        }
    }
}

impl<T> Default for CompletionTimer<T> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bandwidth_conversions() {
        let b = Bandwidth::from_gbit_per_sec(8.0);
        assert!((b.bytes_per_sec() - 1e9).abs() < 1.0);
        assert!((b.gbit_per_sec() - 8.0).abs() < 1e-9);
        let m = Bandwidth::from_mib_per_sec(1.0);
        assert_eq!(m.bytes_per_sec(), 1_048_576.0);
    }

    #[test]
    fn transfer_time_scales_linearly() {
        let b = Bandwidth::from_bytes_per_sec(1_000_000.0);
        assert_eq!(b.transfer_time(1_000_000), Nanos::from_secs(1));
        assert_eq!(b.transfer_time(500_000), Nanos::from_millis(500));
    }

    #[test]
    fn zero_bandwidth_does_not_panic() {
        let b = Bandwidth::from_bytes_per_sec(0.0);
        assert_eq!(b.transfer_time(10).as_nanos(), u64::MAX);
    }

    #[test]
    fn completion_timer_coalesces_same_tick_completions_into_one_wake() {
        let mut timer: CompletionTimer<u32> = CompletionTimer::new();
        let at = Nanos::from_micros(10);
        assert_eq!(timer.schedule(at, 1), Some(at), "first completion arms");
        assert_eq!(timer.schedule(at, 2), None, "same tick reuses the wake");
        assert_eq!(timer.schedule(at + Nanos::from_micros(5), 3), None);
        assert_eq!(timer.len(), 3);
        let mut due = Vec::new();
        // The wake at 10us drains both completions due then and re-arms
        // for 15us.
        let next = timer.wake(at, &mut due);
        assert_eq!(due, vec![(at, 1), (at, 2)]);
        assert_eq!(next, Some(at + Nanos::from_micros(5)));
        due.clear();
        assert_eq!(timer.wake(at + Nanos::from_micros(5), &mut due), None);
        assert_eq!(due, vec![(at + Nanos::from_micros(5), 3)]);
        assert!(timer.is_empty());
    }

    #[test]
    fn an_earlier_completion_rearms_and_the_old_wake_is_reused_or_staled() {
        let mut timer: CompletionTimer<&str> = CompletionTimer::new();
        let (early, late) = (Nanos::from_micros(5), Nanos::from_micros(10));
        assert_eq!(timer.schedule(late, "late"), Some(late));
        assert_eq!(
            timer.schedule(early, "early"),
            Some(early),
            "re-arm earlier"
        );
        let mut due = Vec::new();
        // The early wake drains "early"; the still-outstanding wake at
        // 10us covers "late", so no new wake is needed.
        assert_eq!(timer.wake(early, &mut due), None);
        assert_eq!(due, vec![(early, "early")]);
        due.clear();
        assert_eq!(timer.wake(late, &mut due), None);
        assert_eq!(due, vec![(late, "late")]);
        // A leftover stale firing drains nothing and arms nothing.
        due.clear();
        assert_eq!(timer.wake(late, &mut due), None);
        assert!(due.is_empty());
    }

    #[test]
    fn into_pending_surrenders_everything_and_a_fresh_timer_ignores_stale_wakes() {
        let mut timer: CompletionTimer<u8> = CompletionTimer::new();
        let (a, b) = (Nanos::from_micros(5), Nanos::from_micros(9));
        assert_eq!(timer.schedule(b, 2), Some(b));
        assert_eq!(timer.schedule(a, 1), Some(a));
        // The node dies: every pending completion is surrendered in
        // (timestamp, seq) order, due or not.
        let old = std::mem::take(&mut timer);
        assert_eq!(old.into_pending(), vec![(a, 1), (b, 2)]);
        // The wakes armed before the death still fire against the
        // replacement; both are no-ops.
        let mut due = Vec::new();
        assert_eq!(timer.wake(a, &mut due), None);
        assert_eq!(timer.wake(b, &mut due), None);
        assert!(due.is_empty());
        // The replacement arms and drains normally afterwards.
        let c = Nanos::from_micros(12);
        assert_eq!(timer.schedule(c, 3), Some(c));
        assert_eq!(timer.wake(c, &mut due), None);
        assert_eq!(due, vec![(c, 3)]);
    }

    #[test]
    fn a_stale_firing_keeps_the_armed_wake_while_older_wakes_are_queued() {
        // Three completions scheduled latest first arm three wakes; the
        // clock is already at 10us, so all three fire at 10us.
        let mut timer: CompletionTimer<u8> = CompletionTimer::new();
        for (i, us) in [7u64, 5, 3].into_iter().enumerate() {
            let at = Nanos::from_micros(us);
            assert_eq!(timer.schedule(at, i as u8), Some(at));
        }
        let now = Nanos::from_micros(10);
        let mut due = Vec::new();
        assert_eq!(timer.wake(now, &mut due), None);
        assert_eq!(due.len(), 3, "the first firing drains all three");
        let late = Nanos::from_micros(20);
        assert_eq!(timer.schedule(late, 3), Some(late));
        // The wake armed for 5us fires stale; 7us is still queued, but
        // the armed wake stays at 20us, so an earlier completion re-arms.
        due.clear();
        assert_eq!(timer.wake(now, &mut due), None);
        assert!(due.is_empty());
        let mid = Nanos::from_micros(12);
        assert_eq!(timer.schedule(mid, 4), Some(mid));
    }

    #[test]
    fn counters_record_every_scheduled_and_drained_completion() {
        let mut timer: CompletionTimer<u8> = CompletionTimer::new();
        let (a, b) = (Nanos::from_micros(4), Nanos::from_micros(6));
        timer.schedule(a, 1);
        timer.schedule(a, 2);
        timer.schedule(b, 3);
        let mut due = Vec::new();
        timer.wake(b, &mut due);
        // A completion clamped to the frontier drains at the next wake.
        assert_eq!(timer.schedule(a, 4), Some(b));
        timer.wake(b, &mut due);
        let c = timer.counters();
        assert_eq!((c.pushes, c.pops), (4, 4));
    }

    #[test]
    fn completions_scheduled_behind_the_frontier_drain_immediately() {
        // The fire-at-now clamp, threaded through the timer: after the
        // drain frontier reached 10us, a completion "at 3us" is due at
        // the frontier, and scheduling it re-arms a wake there.
        let mut timer: CompletionTimer<u8> = CompletionTimer::new();
        let frontier = Nanos::from_micros(10);
        assert_eq!(timer.schedule(frontier, 1), Some(frontier));
        let mut due = Vec::new();
        timer.wake(frontier, &mut due);
        assert_eq!(timer.schedule(Nanos::from_micros(3), 2), Some(frontier));
        due.clear();
        assert_eq!(timer.wake(frontier, &mut due), None);
        assert_eq!(due, vec![(frontier, 2)]);
    }
}
