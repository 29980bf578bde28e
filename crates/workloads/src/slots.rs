//! The shared service-slot core of the open-loop subsystems.
//!
//! The open-loop request engine in [`crate::pipeline`] and the
//! [`crate::cluster`] shards drive a platform's **derated service-slot
//! pool** through bounded admission queues. The engine gives each of its
//! client classes one class of the pool: the single class of a
//! [`crate::loadgen`] or pipeline sweep point, or one per tenant in a
//! [`crate::tenancy`] window. This module is the one implementation they
//! share:
//!
//! * [`ServiceProfile`] — the derated per-slot service-time model of one
//!   backend on one platform, with a log-normal per-request service-time
//!   distribution around the closed-loop mean (so open-loop tails reflect
//!   service-time variance, not just queueing). Construction is guarded:
//!   a degenerate platform profile (zero or non-finite derated service
//!   time) returns a [`SimError`] instead of an infinite capacity.
//! * [`SlotPool`] — a fixed pool of service slots fed by one bounded FIFO
//!   admission queue per class, scheduled either in global arrival order
//!   ([`SlotPolicy::FifoArrival`]) or by weighted deficit-round-robin
//!   over the classes ([`SlotPolicy::WeightedDrr`]).
//! * `BackendState` — the sampled real-backend execution (kvstore /
//!   relstore) that keeps the simulated load honest against the actual
//!   data structures. Like the paper's YCSB load phase and sysbench
//!   prepare, each trial populates it once and every sweep point or
//!   tenancy window of the trial runs against it; the sampled
//!   operations never change what a point reports of it.
//! * `ConnState` — the per-connection issued/completed/dropped
//!   accounting of a client population.
//! * `UnitGaps` and `ServiceTimes` — a trial's common random numbers for
//!   arrivals and service, drawn once per trial on [`simcore::Replay`]
//!   and read by index at every sweep point, tenancy window and cluster
//!   point.

use std::collections::VecDeque;

use kvstore::{Store, StoreConfig};
use platforms::Platform;
use relstore::{Database, Table};
use simcore::dist::Distribution;
use simcore::error::SimError;
use simcore::{Nanos, Replay, SimRng};

use crate::format_key;
use crate::sysbench_oltp::OltpBenchmark;
use crate::ycsb::YcsbBenchmark;

/// Which simulated backend the generated load drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoadBackend {
    /// The Memcached-like key-value store behind Fig. 16.
    Memcached,
    /// The MySQL-like relational engine behind Fig. 17.
    Mysql,
}

/// Default log-normal sigma of the per-request service-time distribution:
/// a modest right tail (p99/median around 1.8x) consistent with the
/// service-time variance the closed-loop models fold into their means.
pub const DEFAULT_SERVICE_SIGMA: f64 = 0.25;

/// The effective service model of one backend on one platform: the
/// derated mean per-slot service time, the pool width, and the shape of
/// the per-request service-time distribution around that mean.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServiceProfile {
    /// Mean effective service time of one request on one slot.
    pub service_time: Nanos,
    /// Number of parallel service slots.
    pub servers: usize,
    /// Log-normal sigma of per-request service times (0 = deterministic).
    pub sigma: f64,
}

impl ServiceProfile {
    /// Builds a profile, rejecting degenerate inputs: a zero (or, because
    /// [`Nanos::from_secs_f64`] saturates, negative or non-finite) derated
    /// service time would imply an **infinite** saturation capacity, and an
    /// empty slot pool can serve nothing.
    pub fn try_new(service_time: Nanos, servers: usize) -> Result<Self, SimError> {
        if servers == 0 {
            return Err(SimError::InvalidConfig(
                "service-slot pool must have at least one slot".into(),
            ));
        }
        if service_time == Nanos::ZERO {
            return Err(SimError::InvalidConfig(
                "derated service time must be positive and finite \
                 (a zero/negative/non-finite time implies infinite capacity)"
                    .into(),
            ));
        }
        Ok(ServiceProfile {
            service_time,
            servers,
            sigma: DEFAULT_SERVICE_SIGMA,
        })
    }

    /// Returns the profile with a different per-request sigma (clamped at
    /// zero; zero means deterministic service times).
    pub fn with_sigma(mut self, sigma: f64) -> Self {
        self.sigma = sigma.max(0.0);
        self
    }

    /// The saturation capacity of the slot pool in requests per second.
    /// Finite by construction (see [`ServiceProfile::try_new`]).
    pub fn capacity_per_sec(&self) -> f64 {
        self.servers as f64 / self.service_time.as_secs_f64()
    }

    /// The per-request service-time distribution in seconds: log-normal
    /// with mean equal to the profile's mean service time, so sampling
    /// changes the tails but never the offered/achieved balance.
    pub fn service_distribution(&self) -> Distribution {
        let mean = self.service_time.as_secs_f64();
        if self.sigma <= 0.0 {
            Distribution::constant(mean)
        } else {
            // E[lognormal(mu, sigma)] = exp(mu + sigma^2/2) = mean.
            Distribution::log_normal(mean.ln() - self.sigma * self.sigma / 2.0, self.sigma)
        }
    }

    /// Samples one per-request service time.
    pub fn sample_service_time(&self, rng: &mut SimRng) -> Nanos {
        Nanos::from_secs_f64(self.service_distribution().sample(rng)).max(Nanos::from_nanos(1))
    }
}

/// A trial's unit-rate exponential gaps, read by index: arrival `i` of
/// every sweep point reads gap `i` and scales it by the point's own rate.
#[derive(Debug)]
pub(crate) struct UnitGaps(Replay<f64>);

impl UnitGaps {
    /// Gaps drawn from `rng`, with room for `capacity` before the table
    /// reallocates.
    pub(crate) fn new(rng: SimRng, capacity: usize) -> Self {
        UnitGaps(Replay::with_capacity(rng, capacity))
    }

    /// Gap `i`: the `i`-th `exponential(1.0)` draw of the stream.
    #[inline]
    pub(crate) fn get(&mut self, i: usize) -> f64 {
        self.0.get(i, |rng| rng.exponential(1.0))
    }

    /// Gaps drawn so far.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.0.len()
    }
}

/// A trial's per-dispatch service times on one profile, read by dispatch
/// index. The table owns the profile it samples, so a point cannot read
/// times drawn for another.
#[derive(Debug)]
pub(crate) struct ServiceTimes {
    profile: ServiceProfile,
    times: Replay<Nanos>,
}

impl ServiceTimes {
    /// Service times of `profile` drawn from `rng`, with room for
    /// `capacity` before the table reallocates.
    pub(crate) fn new(profile: ServiceProfile, rng: SimRng, capacity: usize) -> Self {
        ServiceTimes {
            profile,
            times: Replay::with_capacity(rng, capacity),
        }
    }

    /// The profile the times are sampled from.
    pub(crate) fn profile(&self) -> &ServiceProfile {
        &self.profile
    }

    /// Service time `i`: the `i`-th [`ServiceProfile::sample_service_time`]
    /// of the stream.
    #[inline]
    pub(crate) fn get(&mut self, i: usize) -> Nanos {
        let profile = &self.profile;
        self.times.get(i, |rng| profile.sample_service_time(rng))
    }

    /// Service times drawn so far.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.times.len()
    }
}

/// The derated service profile of one backend on one platform with a slot
/// pool of the given width — the shared cost model of `loadgen` and
/// `tenancy`: identical per-request platform costs to the closed-loop
/// YCSB/OLTP paths, derated by the platform's parallel efficiency
/// (Memcached) or its combined USL contention (MySQL).
pub fn backend_profile(
    backend: LoadBackend,
    platform: &Platform,
    servers: usize,
) -> Result<ServiceProfile, SimError> {
    if servers == 0 {
        return Err(SimError::InvalidConfig(
            "service-slot pool must have at least one slot".into(),
        ));
    }
    match backend {
        LoadBackend::Memcached => {
            // Identical per-operation cost model to the YCSB path; the
            // slot pool derates by the platform's parallel efficiency.
            let per_op = YcsbBenchmark::default().per_op_service_time(platform);
            let eff = platform.cpu().parallel_efficiency(servers);
            if eff <= 0.0 || !eff.is_finite() {
                return Err(SimError::InvalidConfig(format!(
                    "degenerate parallel efficiency {eff} derates to an unusable slot pool"
                )));
            }
            ServiceProfile::try_new(per_op.scale(1.0 / eff), servers)
        }
        LoadBackend::Mysql => {
            // Identical per-transaction cost model to the OLTP path; the
            // pool derates by the combined workload + scheduler USL
            // contention at this concurrency.
            let bench = OltpBenchmark::default();
            let per_txn = bench.per_txn_service_time(platform);
            let usl_capacity = OltpBenchmark::contention(platform).capacity(servers);
            if usl_capacity <= 0.0 || !usl_capacity.is_finite() {
                return Err(SimError::InvalidConfig(format!(
                    "degenerate USL capacity {usl_capacity} derates to an unusable slot pool"
                )));
            }
            ServiceProfile::try_new(per_txn.scale(servers as f64 / usl_capacity), servers)
        }
    }
}

/// How a freed service slot picks the next queued request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SlotPolicy {
    /// Global FIFO: the queued request with the earliest arrival time wins,
    /// regardless of class — unweighted sharing, the baseline the weighted
    /// scheduler is compared against.
    FifoArrival,
    /// Weighted deficit-round-robin over the classes: each class banks a
    /// quantum proportional to its weight per round and spends its mean
    /// per-request cost per dispatch, so long-run service shares follow
    /// the weights while staying work-conserving.
    WeightedDrr,
}

/// Static configuration of one class (tenant) of a [`SlotPool`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClassConfig {
    /// DRR weight (service share relative to the other classes).
    pub weight: u64,
    /// Bounded admission-queue depth; arrivals that find the queue full
    /// (and no free slot) are dropped.
    pub queue_capacity: usize,
    /// Mean per-request cost charged against the class's deficit — the
    /// class's mean service time.
    pub mean_cost: Nanos,
}

/// The outcome of offering one request to the pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// A slot was free; the request enters service immediately (the caller
    /// schedules its completion).
    Dispatched,
    /// All slots busy; the request waits in its class's admission queue.
    Queued,
    /// All slots busy and the class's queue is full; the request is lost.
    Dropped,
}

/// Lifetime counters of one class, for accounting and invariant checks.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ClassCounters {
    /// Requests offered to the pool.
    pub offered: u64,
    /// Requests dropped at the full admission queue.
    pub dropped: u64,
    /// Requests that entered service (immediately or from the queue).
    pub dispatched: u64,
    /// Requests whose service completed.
    pub completed: u64,
}

impl ClassCounters {
    /// Requests currently occupying a slot.
    pub fn in_service(&self) -> u64 {
        self.dispatched - self.completed
    }
}

struct ClassState<T> {
    cfg: ClassConfig,
    queue: VecDeque<(Nanos, T)>,
    deficit: Nanos,
    /// Whether the class currently sits in the DRR rotation (prevents
    /// duplicate rotation entries when a queue drains and refills).
    in_rotation: bool,
    counters: ClassCounters,
}

/// A pool of identical service slots fed by per-class bounded admission
/// queues — the slot/queue core shared by `loadgen` (one class) and
/// `tenancy` (one class per tenant).
///
/// The pool tracks occupancy and queue contents; the caller owns the
/// clock: it schedules a completion for every dispatched request and calls
/// [`SlotPool::finish`] when it fires, receiving the next request (if any)
/// to put into the freed slot.
pub struct SlotPool<T> {
    servers: usize,
    busy: usize,
    policy: SlotPolicy,
    quantum: Nanos,
    classes: Vec<ClassState<T>>,
    /// DRR visit order over the classes with queued work (lazily cleaned).
    rotation: VecDeque<usize>,
}

impl<T> SlotPool<T> {
    /// Builds a pool. Errors on an empty pool, no classes, a zero weight
    /// (the class would starve under DRR) or a zero mean cost (the class
    /// would monopolize every round).
    pub fn new(
        servers: usize,
        policy: SlotPolicy,
        classes: Vec<ClassConfig>,
    ) -> Result<Self, SimError> {
        if servers == 0 {
            return Err(SimError::InvalidConfig(
                "slot pool must have at least one slot".into(),
            ));
        }
        if classes.is_empty() {
            return Err(SimError::InvalidConfig(
                "slot pool needs at least one class".into(),
            ));
        }
        for (i, class) in classes.iter().enumerate() {
            if class.weight == 0 {
                return Err(SimError::InvalidConfig(format!(
                    "class {i} has zero weight and would starve"
                )));
            }
            if class.mean_cost == Nanos::ZERO {
                return Err(SimError::InvalidConfig(format!(
                    "class {i} has zero mean cost and would monopolize the pool"
                )));
            }
        }
        // One quantum lets the heaviest class dispatch at least one
        // request per round, so every class makes progress each rotation.
        let quantum = classes
            .iter()
            .map(|c| c.mean_cost)
            .fold(Nanos::ZERO, Nanos::max);
        Ok(SlotPool {
            servers,
            busy: 0,
            policy,
            quantum,
            classes: classes
                .into_iter()
                .map(|cfg| ClassState {
                    cfg,
                    queue: VecDeque::new(),
                    deficit: Nanos::ZERO,
                    in_rotation: false,
                    counters: ClassCounters::default(),
                })
                .collect(),
            rotation: VecDeque::new(),
        })
    }

    /// Number of slots currently serving a request.
    pub fn busy(&self) -> usize {
        self.busy
    }

    /// Queue depth of one class.
    pub fn queued(&self, class: usize) -> usize {
        self.classes[class].queue.len()
    }

    /// Total queued requests across all classes.
    pub fn queued_total(&self) -> usize {
        self.classes.iter().map(|c| c.queue.len()).sum()
    }

    /// Requests in service plus queued, across all classes.
    pub fn in_flight(&self) -> usize {
        self.busy + self.queued_total()
    }

    /// Lifetime counters of one class.
    pub fn counters(&self, class: usize) -> ClassCounters {
        self.classes[class].counters
    }

    /// Consumes the pool and returns every queued request as `(class,
    /// arrival time, request)` — classes in index order, FIFO within a
    /// class — the node-death path: a failed node abandons its admission
    /// queues at once and the caller resolves each waiter as failed.
    ///
    /// In-service requests are *not* represented here (the pool never
    /// holds them); the caller surrenders those from its completion
    /// timer (see `simcore::resource::CompletionTimer::into_pending`).
    /// The caller typically replaces the pool with a freshly built one,
    /// whose zeroed counters mark the node's restart.
    pub fn into_queued(self) -> Vec<(usize, Nanos, T)> {
        self.classes
            .into_iter()
            .enumerate()
            .flat_map(|(class, state)| {
                state
                    .queue
                    .into_iter()
                    .map(move |(arrived, item)| (class, arrived, item))
            })
            .collect()
    }

    /// Offers one request of `class` (arrived at `arrived`) to the pool:
    /// dispatch into a free slot, else queue, else drop.
    pub fn offer(&mut self, class: usize, arrived: Nanos, item: T) -> Admission {
        self.classes[class].counters.offered += 1;
        if self.busy < self.servers {
            self.busy += 1;
            self.classes[class].counters.dispatched += 1;
            Admission::Dispatched
        } else if self.classes[class].queue.len() < self.classes[class].cfg.queue_capacity {
            if !self.classes[class].in_rotation {
                self.classes[class].in_rotation = true;
                self.rotation.push_back(class);
            }
            self.classes[class].queue.push_back((arrived, item));
            Admission::Queued
        } else {
            self.classes[class].counters.dropped += 1;
            Admission::Dropped
        }
    }

    /// Completes one in-service request of `class` and hands the freed
    /// slot to the next queued request per the pool's policy, returning
    /// `(class, arrival time, request)` of the newly dispatched one — or
    /// `None` (and a freed slot) when every queue is empty.
    ///
    /// # Panics
    ///
    /// Panics if `class` has no request in service — a caller accounting
    /// bug that must fail loudly.
    pub fn finish(&mut self, class: usize) -> Option<(usize, Nanos, T)> {
        let counters = &mut self.classes[class].counters;
        assert!(
            counters.in_service() > 0,
            "finish() for class {class} with no request in service"
        );
        counters.completed += 1;
        let next = match self.policy {
            SlotPolicy::FifoArrival => self.pick_fifo(),
            SlotPolicy::WeightedDrr => self.pick_drr(),
        };
        match next {
            Some(c) => {
                let (arrived, item) = self.classes[c]
                    .queue
                    .pop_front()
                    .expect("picked class has a queued request");
                if self.classes[c].queue.is_empty() {
                    // Standard DRR: an emptied class banks no deficit.
                    self.classes[c].deficit = Nanos::ZERO;
                }
                self.classes[c].counters.dispatched += 1;
                Some((c, arrived, item))
            }
            None => {
                self.busy -= 1;
                None
            }
        }
    }

    /// Completes a whole batch of in-service requests — one per element of
    /// `classes`, in order — and appends every newly dispatched request the
    /// freed slots pulled from the queues to `dispatched`.
    ///
    /// This is the slot-pool half of the batched completion drain: one
    /// wake's worth of completions (everything due at one clock advance,
    /// see [`simcore::resource::CompletionTimer`]) is folded into the
    /// pool in one call, producing exactly the dispatch sequence the
    /// equivalent per-completion [`SlotPool::finish`] calls would.
    ///
    /// # Panics
    ///
    /// Panics if any named class has no request in service, like
    /// [`SlotPool::finish`].
    pub fn finish_batch(
        &mut self,
        classes: impl IntoIterator<Item = usize>,
        dispatched: &mut Vec<(usize, Nanos, T)>,
    ) {
        for class in classes {
            if let Some(next) = self.finish(class) {
                dispatched.push(next);
            }
        }
    }

    /// Global FIFO: earliest queued arrival across all classes (ties go to
    /// the lowest class index, matching the enqueue order of equal
    /// timestamps within a class).
    fn pick_fifo(&self) -> Option<usize> {
        self.classes
            .iter()
            .enumerate()
            .filter_map(|(i, c)| c.queue.front().map(|(at, _)| (*at, i)))
            .min()
            .map(|(_, i)| i)
    }

    /// Weighted DRR: rotate over the active classes, banking
    /// `quantum x weight` per visit and spending `mean_cost` per dispatch.
    fn pick_drr(&mut self) -> Option<usize> {
        if self.classes.iter().all(|c| c.queue.is_empty()) {
            return None;
        }
        // Each full rotation banks at least one quantum (= the largest
        // per-request cost) per active class, so every class can pay its
        // cost within two rotations; the fuel bound is unreachable.
        let mut fuel = 4 * self.classes.len() + 4;
        loop {
            assert!(fuel > 0, "DRR rotation failed to pick a class");
            fuel -= 1;
            // offer() inserts every class whose queue becomes non-empty and
            // the only removal happens when its queue is empty again, so a
            // class with queued work is always present here.
            let c = *self
                .rotation
                .front()
                .expect("a class with queued work is always in the rotation");
            if self.classes[c].queue.is_empty() {
                self.classes[c].deficit = Nanos::ZERO;
                self.classes[c].in_rotation = false;
                self.rotation.pop_front();
                continue;
            }
            let cost = self.classes[c].cfg.mean_cost;
            if self.classes[c].deficit >= cost {
                self.classes[c].deficit -= cost;
                return Some(c);
            }
            self.rotation.pop_front();
            self.rotation.push_back(c);
            let refill = self.quantum * self.classes[c].cfg.weight;
            self.classes[c].deficit += refill;
        }
    }
}

impl<T> std::fmt::Debug for SlotPool<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SlotPool")
            .field("servers", &self.servers)
            .field("busy", &self.busy)
            .field("policy", &self.policy)
            .field("queued", &self.queued_total())
            .finish()
    }
}

/// Per-connection accounting of an open-loop client population.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct ConnState {
    pub(crate) issued: u64,
    pub(crate) completed: u64,
    pub(crate) dropped: u64,
}

/// Sampled real-backend execution so the simulated load keeps the actual
/// data structures honest (the same reasoning as the YCSB/OLTP paths).
///
/// A trial builds one per backend (per tenant in tenancy) and lends it to
/// each of its sweep points or windows, as the paper loads the YCSB data
/// set and prepares the sysbench table once before its measured runs.
/// Reuse cannot move a figure: the operations draw their keys and rows
/// from the point's own `misc` stream whatever the store holds, and the
/// only state a point reports, [`StoreSnapshot`], stays fixed — every kv
/// write overwrites one of the loaded keys far below the memory limit
/// (no new entries, no evictions), and every sql select+update hits a
/// loaded row one transaction at a time (no deletes, no lock waits).
pub(crate) enum BackendState {
    Kv {
        store: Store,
        records: usize,
        /// Reused key buffer (see [`format_key`]).
        key_buf: String,
    },
    Sql {
        db: Database,
        table: Table,
        rows: u64,
    },
}

/// Unified store-occupancy snapshot over both sampled backends — the
/// shard-level parity surface the tenancy points report: the kvstore
/// backend maps its shard `entries`/`evictions` straight through, the
/// relational backend maps live rows to `entries`, lifetime deletes to
/// `evictions`, and additionally reports row-lock contention.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct StoreSnapshot {
    /// Live store entries (kv) or table rows (sql).
    pub entries: u64,
    /// Evicted entries (kv) or deleted rows (sql) since the backend was
    /// built.
    pub evictions: u64,
    /// Row-lock contention events since the backend was built (always
    /// zero for the kv backend).
    pub lock_waits: u64,
}

impl BackendState {
    pub(crate) fn store_stats(&self) -> StoreSnapshot {
        match self {
            BackendState::Kv { store, .. } => {
                let s = store.stats();
                StoreSnapshot {
                    entries: s.entries,
                    evictions: s.evictions,
                    lock_waits: 0,
                }
            }
            BackendState::Sql { db, .. } => {
                let s = db.stats();
                StoreSnapshot {
                    entries: s.rows as u64,
                    evictions: s.deletes,
                    lock_waits: s.lock_waits,
                }
            }
        }
    }

    pub(crate) fn build(backend: LoadBackend) -> BackendState {
        match backend {
            LoadBackend::Memcached => {
                let records = 4_096;
                let store = Store::new(StoreConfig::default());
                let mut key_buf = String::new();
                for i in 0..records {
                    store.set(format_key(&mut key_buf, "load", i as u64), vec![b'x'; 100]);
                }
                BackendState::Kv {
                    store,
                    records,
                    key_buf,
                }
            }
            LoadBackend::Mysql => {
                let rows = 2_000;
                let db = Database::new();
                let table = db.populate_sysbench(1, rows).remove(0);
                BackendState::Sql { db, table, rows }
            }
        }
    }

    pub(crate) fn execute(&mut self, rng: &mut SimRng) {
        match self {
            BackendState::Kv {
                store,
                records,
                key_buf,
            } => {
                let key = format_key(key_buf, "load", rng.index(*records) as u64);
                if rng.chance(0.5) {
                    let _ = store.get(key);
                } else {
                    store.set(key, vec![b'y'; 100]);
                }
            }
            BackendState::Sql { db, table, rows } => {
                let target = 1 + rng.index(*rows as usize) as u64;
                let mut txn = db.begin();
                let ok = txn
                    .select(table, target)
                    .and_then(|_| txn.update(table, target, rng.index(1_000) as u64));
                match ok {
                    Ok(_) => txn.commit(),
                    Err(_) => txn.rollback(),
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use platforms::PlatformId;

    fn cfg(weight: u64, cap: usize, cost_ns: u64) -> ClassConfig {
        ClassConfig {
            weight,
            queue_capacity: cap,
            mean_cost: Nanos::from_nanos(cost_ns),
        }
    }

    #[test]
    fn degenerate_profiles_are_rejected_instead_of_infinite_capacity() {
        assert!(ServiceProfile::try_new(Nanos::ZERO, 16).is_err());
        assert!(ServiceProfile::try_new(Nanos::from_micros(3), 0).is_err());
        // A non-finite derate saturates to zero nanoseconds and must error,
        // not produce capacity_per_sec() == inf.
        assert!(ServiceProfile::try_new(Nanos::from_micros(3).scale(f64::NAN), 16).is_err());
        let ok = ServiceProfile::try_new(Nanos::from_micros(2), 16).unwrap();
        assert!(ok.capacity_per_sec().is_finite());
        assert!((ok.capacity_per_sec() - 8e6).abs() < 1.0);
    }

    #[test]
    fn backend_profile_rejects_an_empty_pool() {
        let platform = PlatformId::Native.build();
        assert!(backend_profile(LoadBackend::Memcached, &platform, 0).is_err());
        assert!(backend_profile(LoadBackend::Memcached, &platform, 16).is_ok());
    }

    #[test]
    fn service_sampling_preserves_the_mean_and_respects_sigma_zero() {
        let profile = ServiceProfile::try_new(Nanos::from_micros(10), 4).unwrap();
        let mut rng = SimRng::seed_from(11);
        let n = 20_000;
        let mean_us: f64 = (0..n)
            .map(|_| profile.sample_service_time(&mut rng).as_micros_f64())
            .sum::<f64>()
            / n as f64;
        assert!(
            (mean_us - 10.0).abs() < 0.3,
            "log-normal sampling must keep the closed-loop mean, got {mean_us}"
        );
        let det = profile.with_sigma(0.0);
        assert_eq!(det.sample_service_time(&mut rng), Nanos::from_micros(10));
    }

    #[test]
    fn pool_dispatches_queues_and_drops_in_order() {
        let mut pool: SlotPool<u32> =
            SlotPool::new(1, SlotPolicy::FifoArrival, vec![cfg(1, 1, 100)]).unwrap();
        assert_eq!(
            pool.offer(0, Nanos::from_nanos(1), 1),
            Admission::Dispatched
        );
        assert_eq!(pool.offer(0, Nanos::from_nanos(2), 2), Admission::Queued);
        assert_eq!(pool.offer(0, Nanos::from_nanos(3), 3), Admission::Dropped);
        assert_eq!(pool.busy(), 1);
        assert_eq!(pool.in_flight(), 2);
        let next = pool.finish(0).unwrap();
        assert_eq!(next, (0, Nanos::from_nanos(2), 2));
        assert!(pool.finish(0).is_none());
        assert_eq!(pool.busy(), 0);
        let c = pool.counters(0);
        assert_eq!(
            (c.offered, c.dispatched, c.completed, c.dropped),
            (3, 2, 2, 1)
        );
    }

    #[test]
    fn fifo_policy_serves_the_earliest_arrival_across_classes() {
        let mut pool: SlotPool<&str> = SlotPool::new(
            1,
            SlotPolicy::FifoArrival,
            vec![cfg(1, 8, 100), cfg(8, 8, 100)],
        )
        .unwrap();
        assert_eq!(
            pool.offer(1, Nanos::from_nanos(1), "busy"),
            Admission::Dispatched
        );
        pool.offer(1, Nanos::from_nanos(5), "late");
        pool.offer(0, Nanos::from_nanos(3), "early");
        let (class, at, item) = pool.finish(1).unwrap();
        assert_eq!((class, at, item), (0, Nanos::from_nanos(3), "early"));
    }

    #[test]
    fn drr_shares_follow_the_weights_under_saturation() {
        // One slot, both classes permanently backlogged: dispatches must
        // follow the 3:1 weight ratio (equal per-request costs).
        let mut pool: SlotPool<u32> = SlotPool::new(
            1,
            SlotPolicy::WeightedDrr,
            vec![cfg(3, 1_000, 100), cfg(1, 1_000, 100)],
        )
        .unwrap();
        pool.offer(0, Nanos::ZERO, 0);
        for i in 0..999u32 {
            pool.offer(0, Nanos::from_nanos(u64::from(i)), i);
            pool.offer(1, Nanos::from_nanos(u64::from(i)), i);
        }
        let mut served = [0u64; 2];
        // The first finish is for the initially dispatched class-0 request.
        let mut in_service = 0usize;
        for _ in 0..400 {
            let (class, _, _) = pool.finish(in_service).unwrap();
            served[class] += 1;
            in_service = class;
        }
        let ratio = served[0] as f64 / served[1] as f64;
        assert!(
            (2.5..3.5).contains(&ratio),
            "DRR served {served:?}, ratio {ratio} should track the 3:1 weights"
        );
    }

    #[test]
    fn drr_is_work_conserving_when_one_class_idles() {
        let mut pool: SlotPool<u32> = SlotPool::new(
            1,
            SlotPolicy::WeightedDrr,
            vec![cfg(7, 16, 100), cfg(1, 16, 100)],
        )
        .unwrap();
        pool.offer(1, Nanos::ZERO, 0);
        for i in 1..=5u32 {
            pool.offer(1, Nanos::from_nanos(u64::from(i)), i);
        }
        // Class 0 never offers anything; class 1 must still be served
        // back-to-back despite its low weight.
        for _ in 0..5 {
            let (class, _, _) = pool.finish(1).unwrap();
            assert_eq!(class, 1);
        }
        assert!(pool.finish(1).is_none());
    }

    #[test]
    fn zero_weight_and_zero_cost_classes_are_rejected() {
        assert!(SlotPool::<u32>::new(1, SlotPolicy::WeightedDrr, vec![cfg(0, 8, 100)]).is_err());
        assert!(SlotPool::<u32>::new(1, SlotPolicy::WeightedDrr, vec![cfg(1, 8, 0)]).is_err());
        assert!(SlotPool::<u32>::new(0, SlotPolicy::WeightedDrr, vec![cfg(1, 8, 100)]).is_err());
        assert!(SlotPool::<u32>::new(1, SlotPolicy::WeightedDrr, vec![]).is_err());
    }

    #[test]
    fn finish_batch_matches_sequential_finishes() {
        let classes = vec![cfg(3, 16, 100), cfg(1, 16, 300)];
        let mut batched: SlotPool<u32> =
            SlotPool::new(2, SlotPolicy::WeightedDrr, classes.clone()).unwrap();
        let mut sequential: SlotPool<u32> =
            SlotPool::new(2, SlotPolicy::WeightedDrr, classes).unwrap();
        for pool in [&mut batched, &mut sequential] {
            pool.offer(0, Nanos::from_nanos(1), 10);
            pool.offer(1, Nanos::from_nanos(2), 20);
            for i in 0..6u32 {
                pool.offer((i % 2) as usize, Nanos::from_nanos(3 + u64::from(i)), i);
            }
        }
        // Both in-service requests complete at the same clock advance.
        let mut from_batch = Vec::new();
        batched.finish_batch([0, 1], &mut from_batch);
        let from_seq: Vec<_> = [0, 1]
            .into_iter()
            .filter_map(|c| sequential.finish(c))
            .collect();
        assert_eq!(from_batch, from_seq);
        assert_eq!(from_batch.len(), 2, "both freed slots redispatch");
        for class in 0..2 {
            assert_eq!(
                batched.counters(class).dispatched,
                sequential.counters(class).dispatched
            );
        }
    }

    #[test]
    fn into_queued_surrenders_waiters_in_class_then_fifo_order() {
        let mut pool: SlotPool<&str> = SlotPool::new(
            1,
            SlotPolicy::FifoArrival,
            vec![cfg(1, 8, 100), cfg(1, 8, 100)],
        )
        .unwrap();
        assert_eq!(
            pool.offer(0, Nanos::from_nanos(1), "a"),
            Admission::Dispatched
        );
        pool.offer(1, Nanos::from_nanos(2), "b");
        pool.offer(0, Nanos::from_nanos(3), "c");
        pool.offer(1, Nanos::from_nanos(4), "d");
        // The node dies: only the queued waiters spill (the in-service
        // request "a" lives in the caller's completion timer).
        assert_eq!(
            pool.into_queued(),
            vec![
                (0, Nanos::from_nanos(3), "c"),
                (1, Nanos::from_nanos(2), "b"),
                (1, Nanos::from_nanos(4), "d"),
            ]
        );
    }

    #[test]
    #[should_panic(expected = "no request in service")]
    fn finishing_an_idle_class_panics() {
        let mut pool: SlotPool<u32> =
            SlotPool::new(1, SlotPolicy::FifoArrival, vec![cfg(1, 1, 100)]).unwrap();
        pool.finish(0);
    }
}
