//! Acceptance tests of the timing-wheel event core: the full evaluation
//! grid stays byte-identical across executor worker counts on the wheel,
//! and the scheduling semantics shared with the retained reference heap
//! hold for the push/pop drain loop every simulation runs.

use isolation_bench::prelude::*;
use isolation_bench::simcore::{EventQueue, ReferenceHeap};

#[test]
fn full_grid_figures_are_byte_identical_for_1_2_and_8_workers_on_the_wheel() {
    // Every grid experiment now runs its simulations on the timing
    // wheel; the executor's determinism guarantee must be unchanged:
    // any worker count renders the same figure bytes.
    let cfg = RunConfig::quick(2021);
    let serial = Executor::new(RunPlan::new(cfg).with_trials(1).with_workers(1)).run();
    // The expected figure count is derived, never hardcoded: a literal
    // here went stale in two previous PRs (simlint rule D005 now rejects
    // the pattern outright).
    assert_eq!(
        serial.figures.len(),
        ExperimentId::all().len(),
        "the full grid must cover every experiment"
    );
    let serial_csv: Vec<String> = serial.figures.iter().map(report::to_csv).collect();
    for workers in [2, 8] {
        let run = Executor::new(RunPlan::new(cfg).with_trials(1).with_workers(workers)).run();
        assert_eq!(run.figures, serial.figures, "workers={workers}");
        let csv: Vec<String> = run.figures.iter().map(report::to_csv).collect();
        assert_eq!(
            csv, serial_csv,
            "workers={workers} must render identical bytes"
        );
    }
}

#[test]
fn past_timestamps_fire_at_the_frontier_on_both_event_queues() {
    // The shared past-timestamp contract: a push behind the pop frontier
    // fires AT the frontier (after everything already pending there),
    // identically on the wheel and on the reference heap.
    let mut wheel = EventQueue::new();
    let mut heap = ReferenceHeap::new();
    wheel.push(Nanos::from_millis(4), 0u32);
    heap.push(Nanos::from_millis(4), 0u32);
    assert_eq!(wheel.pop(), heap.pop());
    wheel.push(Nanos::from_millis(1), 1);
    heap.push(Nanos::from_millis(1), 1);
    assert_eq!(wheel.peek_time(), Some(Nanos::from_millis(4)));
    assert_eq!(wheel.pop(), Some((Nanos::from_millis(4), 1)));
    assert_eq!(heap.pop(), Some((Nanos::from_millis(4), 1)));
}

#[test]
fn simulation_clock_never_rewinds_for_past_schedules() {
    // The drain-loop surface of the same contract: the queue's frontier
    // is a simulation's clock, and a handler pushing strictly into the
    // past gets its events at that clock, in push order, after the other
    // events already pending there.
    let mut queue = EventQueue::new();
    queue.push(Nanos::from_millis(7), 0u32);
    queue.push(Nanos::from_millis(7), 1);
    let mut log = Vec::new();
    while let Some((now, ev)) = queue.pop() {
        log.push((now.as_nanos(), ev));
        if ev == 0 {
            queue.push(Nanos::from_millis(2), 2);
            queue.push(Nanos::ZERO, 3);
        }
        assert_eq!(queue.frontier(), now, "the clock is the latest pop");
    }
    assert_eq!(
        log,
        vec![
            (7_000_000, 0),
            (7_000_000, 1),
            (7_000_000, 2),
            (7_000_000, 3)
        ],
        "past pushes fire at the frontier, FIFO among equal timestamps"
    );
    assert_eq!(queue.frontier(), Nanos::from_millis(7));
}

#[test]
fn a_wheel_slots_worth_of_events_drains_at_one_clock_advance() {
    // Batched draining: many events at one tick all pop at the same
    // timestamp from one whole-slot drain, without intermediate clock
    // movement, while the pending count falls one by one.
    let mut queue = EventQueue::new();
    let at = Nanos::from_micros(42);
    for i in 0..64u32 {
        queue.push(at, i);
    }
    for i in 0..64u32 {
        assert_eq!(queue.pop(), Some((at, i)));
        assert_eq!(queue.len(), 63 - i as usize);
    }
    assert!(queue.pop().is_none());
    let counters = queue.counters();
    assert_eq!((counters.pushes, counters.pops), (64, 64));
    assert_eq!(
        counters.slot_drains, 1,
        "one clock advance for the whole tick"
    );
}
