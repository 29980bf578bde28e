//! Event-core throughput microbench: timing wheel vs reference heap.
//!
//! Drives a fixed number of events through the hierarchical-timing-wheel
//! `EventQueue` and through the retained `ReferenceHeap` (the pre-wheel
//! binary-heap implementation) under an identical steady-state schedule: a
//! large pending population where every pop reschedules a new event at a
//! pseudo-random offset, mixing slot-local, cascading and (rarely)
//! overflow-level delays. Both drives fold the popped `(timestamp, tag)`
//! sequence into an FNV-1a digest; the digests must match, proving the
//! wheel pops the identical order the heap defines.
//!
//! Writes `BENCH_event_loop.json` with per-implementation events/sec, the
//! wheel/heap speedup ratio and the order-equivalence digests. Exits
//! non-zero when the digests disagree or, with `--baseline`, when the
//! wheel's throughput or speedup falls below the checked-in floor — the
//! CI `bench-perf` job gates on that.
//!
//! Run with: `cargo run --release -p bench --bin event_loop`
//!
//! Flags:
//! * `--quick` — CI-sized drive (1M events over 64K pending) instead of
//!   the full 10M-event drive over 256K pending
//! * `--events N` / `--pending N` — override the drive size
//! * `--seed N` — schedule seed (default 2021)
//! * `--out PATH` — output path (default `BENCH_event_loop.json`)
//! * `--baseline PATH` — compare against a perf baseline (see
//!   `ci/perf_baseline.json`) and exit non-zero on regression

use std::time::Instant;

use harness::cli::{flag_value, json_number, parse_count};
use simcore::{EventQueue, Nanos, ReferenceHeap, SimRng};

/// One measured drive of an event-queue implementation.
struct Drive {
    events: u64,
    elapsed_secs: f64,
    digest: u64,
}

impl Drive {
    fn events_per_sec(&self) -> f64 {
        self.events as f64 / self.elapsed_secs.max(f64::MIN_POSITIVE)
    }
}

/// The two implementations under an identical push/pop interface.
trait EventSink {
    fn push(&mut self, at: Nanos, tag: u64);
    fn pop(&mut self) -> Option<(Nanos, u64)>;
}

impl EventSink for EventQueue<u64> {
    fn push(&mut self, at: Nanos, tag: u64) {
        EventQueue::push(self, at, tag);
    }
    fn pop(&mut self) -> Option<(Nanos, u64)> {
        EventQueue::pop(self)
    }
}

impl EventSink for ReferenceHeap<u64> {
    fn push(&mut self, at: Nanos, tag: u64) {
        ReferenceHeap::push(self, at, tag);
    }
    fn pop(&mut self) -> Option<(Nanos, u64)> {
        ReferenceHeap::pop(self)
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Word-at-a-time FNV-1a-style mix: one xor and one multiply per word, so
/// the digest costs the same negligible overhead in both measured drives.
fn mix(digest: u64, word: u64) -> u64 {
    (digest ^ word).wrapping_mul(FNV_PRIME)
}

/// The next pseudo-random reschedule delay: mostly sub-millisecond gaps
/// exercising the fine wheel levels, a slice of multi-millisecond gaps
/// cascading through the coarse levels, and one push in 4096 far beyond
/// the 2^48 ns wheel horizon to keep the overflow spill level honest.
/// Power-of-two masks only — no integer division in the measured loop.
fn next_delay(rng: &mut SimRng) -> Nanos {
    let roll = rng.next_u64();
    let ns = match roll & 0xFFF {
        0 => (1u64 << 49) + (roll >> 12 & 0xF_FFFF),
        r if r < 512 => 1_048_576 + (roll >> 12 & 0xFF_FFFF),
        _ => 200 + (roll >> 12 & 0xF_FFFF),
    };
    Nanos::from_nanos(ns)
}

/// Steady-state drive: prefill `pending` events, then pop-and-reschedule
/// until `events` pushes have happened, then drain. Every decision comes
/// from the seeded RNG and the popped timestamps, so both implementations
/// see byte-identical schedules iff they pop in the same order.
fn drive<Q: EventSink>(queue: &mut Q, events: u64, pending: u64, seed: u64) -> Drive {
    let mut rng = SimRng::seed_from(seed);
    let mut digest = FNV_OFFSET;
    let mut pushed = 0u64;
    let mut popped = 0u64;
    let start = Instant::now();
    while pushed < pending.min(events) {
        queue.push(next_delay(&mut rng), pushed);
        pushed += 1;
    }
    while let Some((at, tag)) = queue.pop() {
        popped += 1;
        digest = mix(digest, at.as_nanos());
        digest = mix(digest, tag);
        if pushed < events {
            queue.push(at + next_delay(&mut rng), pushed);
            pushed += 1;
        }
    }
    let elapsed_secs = start.elapsed().as_secs_f64();
    assert_eq!(popped, events, "every pushed event must pop exactly once");
    Drive {
        events,
        elapsed_secs,
        digest,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let mode = if quick { "quick" } else { "full" };
    // The full drive holds a quarter-million events in flight — the
    // "millions of requests" regime the wheel exists for, where the
    // heap's O(log n) pops wander cache-hostile paths.
    let (default_events, default_pending) = if quick {
        (1_000_000, 65_536)
    } else {
        (10_000_000, 262_144)
    };
    let events = parse_count(&args, "--events").map_or(default_events, |n| n as u64);
    let pending = parse_count(&args, "--pending").map_or(default_pending, |n| n as u64);
    let seed = parse_count(&args, "--seed").map_or(2021, |n| n as u64);
    let out_path =
        flag_value(&args, "--out").unwrap_or_else(|| "BENCH_event_loop.json".to_string());

    // Warm both implementations (allocator pools, branch predictors)
    // before the measured drives.
    drive(&mut EventQueue::new(), events / 20, pending.min(1024), seed);
    drive(
        &mut ReferenceHeap::new(),
        events / 20,
        pending.min(1024),
        seed,
    );

    eprintln!("event_loop: {mode} drive, {events} events over {pending} pending, seed {seed}");
    let wheel = drive(&mut EventQueue::new(), events, pending, seed);
    let heap = drive(&mut ReferenceHeap::new(), events, pending, seed);

    let speedup = wheel.events_per_sec() / heap.events_per_sec().max(f64::MIN_POSITIVE);
    let order_equivalent = wheel.digest == heap.digest;

    let json = format!(
        "{{\n  \"name\": \"event_loop\",\n  \"mode\": \"{mode}\",\n  \"seed\": {seed},\n  \
         \"events\": {events},\n  \"pending\": {pending},\n  \"wheel\": {{\n    \
         \"events_per_sec\": {:.1},\n    \"elapsed_ms\": {:.3},\n    \"digest\": \"{:#018x}\"\n  }},\n  \
         \"heap\": {{\n    \"events_per_sec\": {:.1},\n    \"elapsed_ms\": {:.3},\n    \
         \"digest\": \"{:#018x}\"\n  }},\n  \"speedup\": {:.3},\n  \"order_equivalent\": {}\n}}\n",
        wheel.events_per_sec(),
        wheel.elapsed_secs * 1e3,
        wheel.digest,
        heap.events_per_sec(),
        heap.elapsed_secs * 1e3,
        heap.digest,
        speedup,
        order_equivalent,
    );
    std::fs::write(&out_path, &json).unwrap_or_else(|e| panic!("cannot write {out_path}: {e}"));

    println!("| impl | events/sec | elapsed (ms) | digest |");
    println!("|---|---|---|---|");
    println!(
        "| timing wheel | {:.0} | {:.1} | {:#018x} |",
        wheel.events_per_sec(),
        wheel.elapsed_secs * 1e3,
        wheel.digest
    );
    println!(
        "| reference heap | {:.0} | {:.1} | {:#018x} |",
        heap.events_per_sec(),
        heap.elapsed_secs * 1e3,
        heap.digest
    );
    println!("\nspeedup: {speedup:.2}x; order equivalent: {order_equivalent}; report: {out_path}");

    let mut failures = Vec::new();
    if !order_equivalent {
        failures.push(format!(
            "wheel digest {:#018x} != heap digest {:#018x}: pop orders diverge",
            wheel.digest, heap.digest
        ));
    }
    if let Some(path) = flag_value(&args, "--baseline") {
        let baseline = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("cannot read baseline {path}: {e}"));
        let min_eps = json_number(&baseline, &format!("{mode}_min_events_per_sec"))
            .unwrap_or_else(|| panic!("baseline {path} lacks {mode}_min_events_per_sec"));
        let min_speedup = json_number(&baseline, &format!("{mode}_min_speedup"))
            .unwrap_or_else(|| panic!("baseline {path} lacks {mode}_min_speedup"));
        println!(
            "baseline ({mode}): min {min_eps:.0} events/sec (wheel {:.0}), \
             min speedup {min_speedup:.2}x (measured {speedup:.2}x)",
            wheel.events_per_sec()
        );
        if wheel.events_per_sec() < min_eps {
            failures.push(format!(
                "wheel throughput {:.0} events/sec regressed below the baseline floor {min_eps:.0}",
                wheel.events_per_sec()
            ));
        }
        if speedup < min_speedup {
            failures.push(format!(
                "wheel speedup {speedup:.2}x fell below the baseline floor {min_speedup:.2}x"
            ));
        }
    }
    if !failures.is_empty() {
        eprintln!("event_loop: FAILED: {}", failures.join("; "));
        std::process::exit(1);
    }
}
