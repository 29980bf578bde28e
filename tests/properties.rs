//! Property-based tests over the core data structures and invariants.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use proptest::prelude::*;

use isolation_bench::harness::{grid, ExperimentId};
use isolation_bench::kvstore::{Store, StoreConfig};
use isolation_bench::platforms::PlatformId;
use isolation_bench::relstore::{Database, Row};
use isolation_bench::simcore::resource::CompletionTimer;
use isolation_bench::simcore::stats::{Cdf, RunningStats};
use isolation_bench::simcore::{rng, Bandwidth, CoreCounters, EventQueue, Nanos, Replay, SimRng};
use isolation_bench::workloads::cluster::{FaultPlan, RoutePolicy, BASELINE_THETA};
use isolation_bench::workloads::pipeline::BASELINE_HIT_RATE;
use isolation_bench::workloads::slots::{ClassConfig, SlotPolicy, SlotPool};
use isolation_bench::workloads::{
    ArrivalProcess, ClusterBenchmark, ClusterSetting, LoadBackend, LoadgenBenchmark,
    PipelineBenchmark, PipelineSetting, TenancyBenchmark, TenantSpec,
};

/// The completion-timer protocol written out over a plain `EventQueue`:
/// the oracle [`CompletionTimer`] must match call for call, down to its
/// push and pop counts.
struct QueueTimer<T> {
    queue: EventQueue<T>,
    armed: Option<Nanos>,
    outstanding: BinaryHeap<Reverse<Nanos>>,
}

impl<T> QueueTimer<T> {
    fn new() -> Self {
        QueueTimer {
            queue: EventQueue::new(),
            armed: None,
            outstanding: BinaryHeap::new(),
        }
    }

    fn schedule(&mut self, at: Nanos, item: T) -> Option<Nanos> {
        let at = at.max(self.queue.frontier());
        self.queue.push(at, item);
        if !self.armed.is_some_and(|armed| at >= armed) {
            self.armed = Some(at);
            self.outstanding.push(Reverse(at));
            return Some(at);
        }
        None
    }

    fn into_pending(mut self) -> Vec<(Nanos, T)> {
        let mut pending = Vec::new();
        while let Some(entry) = self.queue.pop() {
            pending.push(entry);
        }
        pending
    }

    fn wake(&mut self, now: Nanos, due: &mut Vec<(Nanos, T)>) -> Option<Nanos> {
        if self.outstanding.peek().is_some_and(|Reverse(w)| *w <= now) {
            self.outstanding.pop();
        }
        if self.armed.is_some_and(|armed| armed > now) {
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

proptest! {
    #[test]
    fn derived_seeds_never_collide_across_the_full_grid(root in 0u64..u64::MAX) {
        // Every (experiment, platform entry, trial) cell of the real
        // evaluation grid must get its own random stream: a collision
        // would make two cells sample identical values.
        let mut seen = std::collections::HashMap::new();
        for experiment in ExperimentId::all() {
            for entry in grid::entries(*experiment) {
                for trial in 0..6u64 {
                    let cell = (experiment.slug(), entry.label, trial);
                    let seed = rng::derive_seed(root, experiment.slug(), entry.label, trial);
                    if let Some(previous) = seen.insert(seed, cell) {
                        panic!("seed collision between {previous:?} and {cell:?} (root {root})");
                    }
                }
            }
        }
    }

    #[test]
    fn running_stats_mean_is_bounded_by_min_and_max(xs in prop::collection::vec(-1e9f64..1e9, 1..200)) {
        let stats: RunningStats = xs.iter().copied().collect();
        let mean = stats.mean();
        prop_assert!(mean >= stats.min().unwrap() - 1e-6);
        prop_assert!(mean <= stats.max().unwrap() + 1e-6);
        prop_assert!(stats.std_dev() >= 0.0);
    }

    #[test]
    fn running_stats_merge_matches_sequential(xs in prop::collection::vec(-1e6f64..1e6, 1..100),
                                              ys in prop::collection::vec(-1e6f64..1e6, 1..100)) {
        let mut merged: RunningStats = xs.iter().copied().collect();
        let other: RunningStats = ys.iter().copied().collect();
        merged.merge(&other);
        let all: RunningStats = xs.iter().chain(ys.iter()).copied().collect();
        prop_assert_eq!(merged.count(), all.count());
        prop_assert!((merged.mean() - all.mean()).abs() < 1e-6);
        prop_assert!((merged.variance() - all.variance()).abs() < 1e-3);
    }

    #[test]
    fn running_stats_merge_is_order_insensitive_and_matches_record(
        xs in prop::collection::vec(-1e6f64..1e6, 0..120),
        chunk in 1usize..16,
        rotate in 0usize..16,
    ) {
        // The parallel executor merges per-shard accumulators in whatever
        // grouping the run plan produced; the result must not depend on
        // the order the shards are folded in, and must match a single
        // sequential pass over all observations.
        let shards: Vec<RunningStats> = xs
            .chunks(chunk)
            .map(|c| c.iter().copied().collect())
            .collect();
        let mut forward = RunningStats::new();
        for s in &shards {
            forward.merge(s);
        }
        let mut rotated = RunningStats::new();
        if !shards.is_empty() {
            let pivot = rotate % shards.len();
            for s in shards[pivot..].iter().chain(&shards[..pivot]) {
                rotated.merge(s);
            }
        }
        let sequential: RunningStats = xs.iter().copied().collect();
        for merged in [&forward, &rotated] {
            prop_assert_eq!(merged.count(), sequential.count());
            prop_assert!((merged.mean() - sequential.mean()).abs() < 1e-6);
            prop_assert!((merged.variance() - sequential.variance()).abs() < 1e-2);
            prop_assert_eq!(merged.min(), sequential.min());
            prop_assert_eq!(merged.max(), sequential.max());
        }
        // Empty input stays the pristine empty accumulator (finite summary).
        if xs.is_empty() {
            prop_assert_eq!(forward, RunningStats::new());
        }
    }

    #[test]
    fn slot_pool_conserves_work_under_arbitrary_weights(
        servers in 1usize..6,
        specs in prop::collection::vec((1u64..16, 0usize..24, 1u64..2_000), 1..5),
        ops in prop::collection::vec((any::<bool>(), 0usize..64, 0usize..64), 1..400),
        fifo in any::<bool>(),
    ) {
        // The weighted slot scheduler must conserve work under arbitrary
        // weights, queue depths and per-class costs: per class,
        // offered == dispatched + queued + dropped (so every request is
        // accounted for: completed + dropped + in-flight), granted slots
        // never exceed the pool, and no slot idles while work queues.
        let classes: Vec<ClassConfig> = specs
            .iter()
            .map(|&(weight, queue_capacity, cost)| ClassConfig {
                weight,
                queue_capacity,
                mean_cost: Nanos::from_nanos(cost),
            })
            .collect();
        let policy = if fifo { SlotPolicy::FifoArrival } else { SlotPolicy::WeightedDrr };
        let mut pool: SlotPool<u32> = SlotPool::new(servers, policy, classes.clone()).unwrap();
        let mut now = 0u64;
        for &(is_offer, a, b) in &ops {
            if is_offer {
                now += 1;
                let _ = pool.offer(a % classes.len(), Nanos::from_nanos(now), a as u32);
            } else {
                let busy: Vec<usize> = (0..classes.len())
                    .filter(|&i| pool.counters(i).in_service() > 0)
                    .collect();
                if let Some(&class) = busy.get(b % busy.len().max(1)) {
                    let _ = pool.finish(class);
                }
            }
            prop_assert!(pool.busy() <= servers, "granted slots exceed the pool");
            let mut in_service_total = 0u64;
            for (i, class) in classes.iter().enumerate() {
                let c = pool.counters(i);
                prop_assert_eq!(
                    c.offered,
                    c.dispatched + pool.queued(i) as u64 + c.dropped,
                    "class {} leaks requests", i
                );
                prop_assert!(pool.queued(i) <= class.queue_capacity);
                in_service_total += c.in_service();
            }
            prop_assert_eq!(in_service_total, pool.busy() as u64);
            if pool.busy() < servers {
                prop_assert_eq!(
                    pool.queued_total(), 0,
                    "work conservation: requests queue while a slot idles"
                );
            }
        }
    }

    #[test]
    fn event_queue_pops_exactly_the_linear_scan_model_order(
        ops in prop::collection::vec((0u32..10, 0u32..4, 0u64..1024), 1..300),
    ) {
        // The queue against a linear-scan model of its contract on an
        // arbitrary interleaved schedule: heap pushes at absolute times
        // from nanoseconds to 2^58 ns; ordered pushes that mostly step
        // forward from the previous one but sometimes land behind the
        // run's tail or behind the pop frontier; repeated timestamps
        // exercising the equal-timestamp FIFO order across heap and run;
        // pushes behind the pop frontier exercising the fire-at-now
        // clamp; and interleaved pops moving the frontier mid-schedule.
        // The model does not know which kind of push made an entry.
        let mut queue = EventQueue::new();
        let mut model: Vec<(Nanos, u64, u64)> = Vec::new();
        let mut frontier = Nanos::ZERO;
        let (mut seq, mut pops) = (0u64, 0u64);
        // Where the latest ordered push landed, after the clamp.
        let mut tail = Nanos::ZERO;
        let model_pop = |model: &mut Vec<(Nanos, u64, u64)>, frontier: &mut Nanos| {
            let i = (0..model.len()).min_by_key(|&i| (model[i].0, model[i].1))?;
            let (at, _, tag) = model.remove(i);
            *frontier = at;
            Some((at, tag))
        };
        for &(kind, magnitude, raw) in &ops {
            let at = match kind {
                0..=2 => {
                    let popped = queue.pop();
                    prop_assert_eq!(popped, model_pop(&mut model, &mut frontier));
                    pops += u64::from(popped.is_some());
                    None
                }
                3 | 4 => {
                    let at = Nanos::from_nanos(raw << (16 * magnitude));
                    queue.push(at, seq);
                    Some(at)
                }
                _ => {
                    let at = match kind {
                        5 => tail.saturating_sub(Nanos::from_nanos(1 + raw)),
                        6 => frontier.saturating_sub(Nanos::from_nanos(raw)),
                        _ => tail + Nanos::from_nanos(raw % 8),
                    };
                    queue.push_ordered(at, seq);
                    tail = at.max(frontier);
                    Some(at)
                }
            };
            if let Some(at) = at {
                model.push((at.max(frontier), seq, seq));
                seq += 1;
            }
            prop_assert_eq!(queue.peek_time(), model.iter().map(|e| e.0).min());
            prop_assert_eq!(queue.len(), model.len());
            prop_assert_eq!(queue.frontier(), frontier);
            prop_assert_eq!(queue.counters(), CoreCounters { pushes: seq, pops });
        }
        loop {
            let (q, m) = (queue.pop(), model_pop(&mut model, &mut frontier));
            prop_assert_eq!(q, m);
            if q.is_none() {
                break;
            }
        }
        let counters = queue.counters();
        prop_assert_eq!((counters.pushes, counters.pops), (seq, seq));
    }

    #[test]
    fn completion_timer_matches_the_queue_timer_oracle(
        ops in prop::collection::vec((0u32..8, 0u64..48), 1..300),
    ) {
        // The caller's side of the protocol: every wake either timer asks
        // for goes on one event queue and fires earliest first, at no
        // earlier than the clock. Completions land a few ticks past the
        // clock, so equal stamps recur, or behind it, exercising the
        // frontier clamp. Redundant wakes fire stale, a duplicate firing
        // at the clock is stale too, and a pool death surrenders every
        // pending completion and carries on with fresh timers while the
        // dead timers' wakes still fire.
        let mut timer = CompletionTimer::new();
        let mut oracle = QueueTimer::new();
        let mut wakes = BinaryHeap::new();
        let mut now = Nanos::ZERO;
        let (mut due_timer, mut due_oracle) = (Vec::new(), Vec::new());
        let mut fire = |at: Nanos,
                        timer: &mut CompletionTimer<usize>,
                        oracle: &mut QueueTimer<usize>,
                        wakes: &mut BinaryHeap<Reverse<Nanos>>| {
            due_timer.clear();
            due_oracle.clear();
            let next = timer.wake(at, &mut due_timer);
            assert_eq!(next, oracle.wake(at, &mut due_oracle), "wake at {at:?}");
            assert_eq!(due_timer, due_oracle, "due batch at {at:?}");
            wakes.extend(next.map(Reverse));
        };
        for (tag, &(op, raw)) in ops.iter().enumerate() {
            match op {
                0..=4 => {
                    let at = if op == 4 {
                        now.saturating_sub(Nanos::from_nanos(raw))
                    } else {
                        now + Nanos::from_nanos(raw % 16)
                    };
                    let armed = timer.schedule(at, tag);
                    prop_assert_eq!(armed, oracle.schedule(at, tag));
                    wakes.extend(armed.map(Reverse));
                }
                5 | 6 => {
                    if let Some(Reverse(at)) = wakes.pop() {
                        now = now.max(at);
                        fire(now, &mut timer, &mut oracle, &mut wakes);
                    }
                }
                _ if raw % 4 != 0 => fire(now, &mut timer, &mut oracle, &mut wakes),
                _ => {
                    let surrendered = std::mem::take(&mut timer).into_pending();
                    let expected = std::mem::replace(&mut oracle, QueueTimer::new()).into_pending();
                    prop_assert_eq!(surrendered, expected);
                }
            }
            prop_assert_eq!(timer.len(), oracle.queue.len());
            let (t, o) = (timer.counters(), oracle.queue.counters());
            prop_assert_eq!((t.pushes, t.pops), (o.pushes, o.pops));
        }
        while let Some(Reverse(at)) = wakes.pop() {
            now = now.max(at);
            fire(now, &mut timer, &mut oracle, &mut wakes);
        }
        prop_assert!(timer.is_empty() && oracle.queue.is_empty());
        let (t, o) = (timer.counters(), oracle.queue.counters());
        prop_assert_eq!((t.pushes, t.pops), (o.pushes, o.pops));
    }

    #[test]
    fn cdf_percentiles_are_monotone(xs in prop::collection::vec(0.0f64..1e6, 1..300)) {
        let cdf = Cdf::from_samples(xs).unwrap();
        let mut last = f64::NEG_INFINITY;
        for p in [0.0, 10.0, 25.0, 50.0, 75.0, 90.0, 99.0, 100.0] {
            let v = cdf.percentile(p);
            prop_assert!(v >= last);
            last = v;
        }
    }

    #[test]
    fn nanos_arithmetic_never_underflows(a in 0u64..u64::MAX / 4, b in 0u64..u64::MAX / 4) {
        let x = Nanos::from_nanos(a);
        let y = Nanos::from_nanos(b);
        prop_assert_eq!((x + y).as_nanos(), a + b);
        prop_assert_eq!(x.saturating_sub(y).as_nanos(), a.saturating_sub(b));
    }

    #[test]
    fn bandwidth_transfer_time_is_monotone_in_size(bytes_small in 1u64..1_000_000, extra in 1u64..1_000_000) {
        let bw = Bandwidth::from_mib_per_sec(100.0);
        let small = bw.transfer_time(bytes_small);
        let large = bw.transfer_time(bytes_small + extra);
        prop_assert!(large >= small);
    }

    #[test]
    fn replay_reads_the_ith_draw_of_its_stream_in_any_order(
        seed in 0u64..u64::MAX,
        reads in prop::collection::vec(0usize..256, 1..64),
    ) {
        // Value `i` of a replay table is the `i`-th draw of a clone of
        // its stream, whatever order the indices are read in. Each value
        // takes three uniforms here (a log-normal pair and an
        // exponential), so a table that drew a value twice or skipped
        // one would shift every later value.
        let draw = |rng: &mut SimRng| (rng.log_normal(-0.02, 0.2), rng.exponential(1.0));
        let mut clone = SimRng::seed_from(seed);
        let expected: Vec<(f64, f64)> = (0..256).map(|_| draw(&mut clone)).collect();
        let mut table = Replay::new(SimRng::seed_from(seed));
        for &i in &reads {
            let (a, b) = table.get(i, draw);
            prop_assert_eq!((a.to_bits(), b.to_bits()), (expected[i].0.to_bits(), expected[i].1.to_bits()));
        }
        prop_assert_eq!(table.len(), reads.iter().max().unwrap() + 1);
    }

    #[test]
    fn rng_with_same_seed_is_identical(seed in 0u64..u64::MAX, n in 1usize..64) {
        let mut a = SimRng::seed_from(seed);
        let mut b = SimRng::seed_from(seed);
        for _ in 0..n {
            prop_assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn kvstore_reads_what_it_writes(entries in prop::collection::btree_map(".{1,16}", prop::collection::vec(any::<u8>(), 0..64), 1..50)) {
        let store = Store::new(StoreConfig::default());
        for (k, v) in &entries {
            store.set(k.as_bytes(), v.clone());
        }
        for (k, v) in &entries {
            prop_assert_eq!(store.get(k.as_bytes()), Some(v.clone()));
        }
        prop_assert_eq!(store.stats().entries as usize, entries.len());
    }

    #[test]
    fn relstore_secondary_index_stays_consistent(ops in prop::collection::vec((1u64..200, 0u64..50), 1..100)) {
        let db = Database::new();
        let table = db.create_table("t");
        for (i, (id, k)) in ops.iter().enumerate() {
            match i % 3 {
                0 => { let _ = table.insert(Row::new(*id, *k, String::new())); }
                1 => { let _ = table.update_k(*id, *k); }
                _ => { let _ = table.delete(*id); }
            }
        }
        // Every row reachable by primary key must be indexed under its k,
        // and every index entry must point to a live row with that k.
        for id in 1..200u64 {
            if let Some(row) = table.get(id) {
                prop_assert!(table.find_by_k(row.k).contains(&id));
            }
        }
        for k in 0..50u64 {
            for id in table.find_by_k(k) {
                let row = table.get(id);
                prop_assert!(row.is_some());
                prop_assert_eq!(row.unwrap().k, k);
            }
        }
    }
}

proptest! {
    #[test]
    fn pipeline_conserves_requests_and_never_beats_its_stage_costs(
        depth in 0usize..6,
        offered in 0.2f64..2.2,
        reject in 0.0f64..0.4,
        hit_rate in 0.0f64..1.0,
        stage_in_frac in 0.0f64..0.4,
        stage_out_frac in 0.0f64..0.2,
        cache_miss_frac in 0.0f64..2.0,
        stage_sigma in 0.0f64..0.5,
        queue_capacity in 1usize..64,
    ) {
        // End-to-end conservation under arbitrary chains and loads: every
        // offered request is exactly one of completed, short-circuited or
        // dropped; no response returns faster than the middleware cost it
        // was charged; and the reported fractions are probabilities.
        let bench = PipelineBenchmark {
            clients: 32,
            requests_per_point: 240,
            runs: 1,
            offered_fraction: offered,
            queue_capacity,
            auth_reject_rate: reject,
            stage_in_frac,
            stage_out_frac,
            cache_miss_frac,
            stage_sigma,
            sweep: vec![PipelineSetting::new(depth, hit_rate)],
            ..PipelineBenchmark::quick(LoadBackend::Memcached)
        };
        let platform = PlatformId::Native.build();
        let point = &bench.run_trial(&platform, &mut SimRng::seed_from(12)).unwrap()[0];
        prop_assert_eq!(
            point.completed + point.short_circuited + point.dropped,
            bench.requests_per_point as u64,
            "requests leaked: {:?}", point
        );
        prop_assert!(point.min_slack_us >= 0.0, "a response beat its stage costs: {:?}", point);
        for fraction in [
            point.short_circuit_fraction,
            point.cache_hit_fraction,
            point.drop_fraction,
        ] {
            prop_assert!((0.0..=1.0).contains(&fraction), "{:?}", point);
        }
        if depth == 0 {
            prop_assert_eq!(point.short_circuited, 0);
            prop_assert_eq!(point.stage_tax_us, 0.0);
        }
        prop_assert!(point.p50_us.is_finite() && point.p99_us.is_finite());
    }

    #[test]
    fn tenancy_conserves_requests_for_any_tenant_set(
        specs in prop::collection::vec(
            ((any::<bool>(), any::<bool>(), 0u32..4), (0.0f64..3.0, 0u64..8, 0usize..64)),
            1..5,
        ),
        shape in (0.05f64..0.95, 1.0f64..128.0),
        servers in 1usize..8,
        fifo in any::<bool>(),
        seed in 0u64..u64::MAX,
    ) {
        // Arbitrary co-located tenant sets, idle tenants and invalid
        // weights included: a run either refuses the configuration or
        // accounts for every request of every tenant with ordered,
        // finite percentiles and rates that are probabilities.
        let (duty_cycle, burst_arrivals) = shape;
        let tenants: Vec<TenantSpec> = specs
            .iter()
            .enumerate()
            .map(|(i, &((on_off, mysql, idle), (fraction, weight, queue_capacity)))| TenantSpec {
                name: format!("t{i}"),
                backend: if mysql { LoadBackend::Mysql } else { LoadBackend::Memcached },
                arrivals: if on_off {
                    ArrivalProcess::OnOff { duty_cycle, burst_arrivals }
                } else {
                    ArrivalProcess::Poisson
                },
                clients: 16,
                offered_fraction: if idle == 0 { 0.0 } else { fraction },
                weight,
                queue_capacity,
                slo_service_multiple: 4.0,
            })
            .collect();
        let bench = TenancyBenchmark {
            servers,
            victim_requests: 120,
            ..TenancyBenchmark::quick(LoadBackend::Memcached)
        };
        let policy = if fifo { SlotPolicy::FifoArrival } else { SlotPolicy::WeightedDrr };
        let platform = PlatformId::Docker.build();
        if let Ok(points) =
            bench.run_colocated(&platform, &tenants, policy, &mut SimRng::seed_from(seed))
        {
            prop_assert_eq!(points.len(), tenants.len());
            for p in &points {
                prop_assert_eq!(p.issued, p.completed + p.dropped, "{:?}", p);
                prop_assert!(p.p50_us <= p.p95_us && p.p95_us <= p.p99_us, "{:?}", p);
                prop_assert!((0.0..=1.0).contains(&p.drop_rate), "{:?}", p);
                prop_assert!((0.0..=1.0).contains(&p.slo_violation), "{:?}", p);
                for v in [p.offered_per_sec, p.achieved_per_sec, p.p99_us, p.mean_us, p.slo_us] {
                    prop_assert!(v.is_finite(), "{:?}", p);
                }
            }
        }
    }

    #[test]
    fn cluster_conserves_requests_or_refuses_the_config(
        quorum in any::<bool>(),
        shards in 1usize..17,
        shape in (0usize..5, 0usize..5, 0usize..5),
        fault in 0u32..3,
        pinned in any::<bool>(),
        requests_per_point in 1usize..17,
        queue_capacity in 1usize..65,
        offered in 0.0f64..5.0,
        seed in 0u64..u64::MAX,
    ) {
        // Arbitrary shard counts, quorum shapes (out-of-range ones
        // included), fault plans, queue capacities and loads up to 5x
        // capacity: a run either refuses the configuration or resolves
        // every request exactly once, with ordered, finite percentiles
        // and a drop fraction that is a probability.
        let (replicas, write_quorum, fanout) = shape;
        let route = if pinned { RoutePolicy::Pinned } else { RoutePolicy::Hashed };
        let setting = if quorum {
            ClusterSetting {
                route,
                replicas,
                write_quorum,
                fanout,
                fault: [FaultPlan::None, FaultPlan::Fail, FaultPlan::FailRecover][fault as usize],
                ..ClusterSetting::replicated(shards, 1, 1)
            }
        } else if pinned {
            ClusterSetting::pinned(shards)
        } else {
            ClusterSetting::hashed(shards, BASELINE_THETA)
        };
        let bench = ClusterBenchmark {
            requests_per_point,
            queue_capacity,
            offered_fraction: offered,
            runs: 1,
            sweep: vec![setting],
            ..ClusterBenchmark::quick(LoadBackend::Memcached)
        };
        let platform = PlatformId::Native.build();
        if let Ok(points) = bench.run_trial(&platform, &mut SimRng::seed_from(seed)) {
            prop_assert_eq!(points.len(), 1);
            let p = &points[0];
            prop_assert_eq!(p.completed + p.dropped, requests_per_point as u64, "{:?}", p);
            prop_assert!(p.p50_us <= p.p95_us && p.p95_us <= p.p99_us, "{:?}", p);
            prop_assert!((0.0..=1.0).contains(&p.drop_fraction), "{:?}", p);
            for v in [
                p.offered_per_sec,
                p.achieved_per_sec,
                p.p50_us,
                p.p95_us,
                p.p99_us,
                p.mean_us,
                p.hot_p99_us,
                p.scatter_p99_us,
                p.hot_share,
                p.imbalance,
                p.drop_fraction,
                p.pre_fail_drop_rate,
                p.fail_window_drop_rate,
                p.post_recover_drop_rate,
            ] {
                prop_assert!(v.is_finite(), "{:?}", p);
            }
        }
    }

    #[test]
    fn pipeline_trials_are_deterministic_per_seed(seed in 0u64..u64::MAX) {
        let bench = PipelineBenchmark {
            clients: 32,
            requests_per_point: 160,
            runs: 1,
            sweep: vec![PipelineSetting::new(3, BASELINE_HIT_RATE)],
            ..PipelineBenchmark::quick(LoadBackend::Memcached)
        };
        let platform = PlatformId::Docker.build();
        let a = bench.run_trial(&platform, &mut SimRng::seed_from(seed)).unwrap();
        let b = bench.run_trial(&platform, &mut SimRng::seed_from(seed)).unwrap();
        prop_assert_eq!(a, b);
    }
}

/// Checks that a sweep run in reverse order returns its points reversed,
/// bit for bit (`Debug` prints every `f64` in its shortest round-trip
/// form, so equal strings mean equal bits).
fn assert_order_free<P: std::fmt::Debug>(what: &str, forward: Vec<P>, mut backward: Vec<P>) {
    backward.reverse();
    assert_eq!(
        format!("{forward:#?}"),
        format!("{backward:#?}"),
        "{what}: a point depends on the sweep order"
    );
}

#[test]
fn a_sweep_point_does_not_depend_on_the_sweep_order() {
    // Every sweep reads its trial's draws by index from tables the points
    // fill as they go. A point must never depend on which points filled
    // them before it: the depth-1 pipeline point fills only stage 0, so
    // the depth-8 point must read stages 1-7 from the start of their own
    // streams, whichever of the two runs first.
    let platform = PlatformId::Docker.build();
    let trial = || SimRng::seed_from(2021);
    for backend in [LoadBackend::Memcached, LoadBackend::Mysql] {
        let load = LoadgenBenchmark::quick(backend);
        let mut reversed = load.clone();
        reversed.load_points.reverse();
        assert_order_free(
            "load",
            load.run_trial(&platform, &mut trial()).unwrap(),
            reversed.run_trial(&platform, &mut trial()).unwrap(),
        );

        let pipeline = PipelineBenchmark::quick(backend);
        let mut reversed = pipeline.clone();
        reversed.sweep.reverse();
        assert_order_free(
            "pipeline",
            pipeline.run_trial(&platform, &mut trial()).unwrap(),
            reversed.run_trial(&platform, &mut trial()).unwrap(),
        );

        let tenancy = TenancyBenchmark::quick(backend);
        let mut reversed = tenancy.clone();
        reversed.aggressor_fractions.reverse();
        assert_order_free(
            "tenancy",
            tenancy.run_trial(&platform, &mut trial()).unwrap(),
            reversed.run_trial(&platform, &mut trial()).unwrap(),
        );

        for cluster in [
            ClusterBenchmark::quick(backend),
            ClusterBenchmark::failover_quick(backend),
        ] {
            let mut reversed = cluster.clone();
            reversed.sweep.reverse();
            assert_order_free(
                "cluster",
                cluster.run_trial(&platform, &mut trial()).unwrap(),
                reversed.run_trial(&platform, &mut trial()).unwrap(),
            );
        }
    }
}
