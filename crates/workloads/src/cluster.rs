//! Sharded cluster scale-out: a routing tier over N backend shards
//! (beyond the paper).
//!
//! Every earlier subsystem models one node; the ROADMAP's north star is
//! the fleet. This module puts a **routing tier** in front of N backend
//! shards: arrivals draw Zipf-skewed keys (configurable skew `s` and
//! hot-key fraction, the YCSB-style hotspot mix), the router maps each
//! key to a shard, and every shard owns its **own** derated
//! [`SlotPool`] + [`CompletionTimer`] pair. One typed-event
//! [`EventQueue`] carries every shard's events; its `(timestamp, seq)`
//! pop order is a pure function of the push sequence, so the whole
//! cluster simulation is a pure function of its seed — the same
//! byte-identical guarantee the executor proves across worker counts.
//!
//! The sweep tells three stories, one per finding:
//!
//! * **Skew concentrates the tail** — at a fixed shard count, raising
//!   the Zipf skew piles the hot keys' traffic onto one shard, so the
//!   hottest shard's load share (and its p99) grows while the cluster
//!   median barely moves.
//! * **Scale-out flattens the median, not the hot tail** — growing the
//!   cluster 1→256 shards at utilization-constant load drains the
//!   average shard, but the hottest key still lands on exactly one
//!   shard whose load share does not shrink with N, so the hot shard's
//!   p99 keeps growing while p50 falls.
//! * **Rebalancing restores balance under churn** — a stale routing
//!   policy that funnels the (rotating, tenant-churned) hot set onto
//!   shard 0 builds a large steady imbalance; resharding to hashed
//!   placement mid-run restores the steady-phase imbalance to the
//!   hash-placement floor.
//!
//! **Round two — replication, failover and scatter-gather.** A second
//! family of sweep points (the *quorum* settings,
//! [`ClusterSetting::failover_sweep`]) layers redundancy on the same
//! routing tier: each key's replica set is the R successive shards
//! walking the FNV ring from its home, writes touch the first W alive
//! replicas and reads the first `R_q = R + 1 - W` (a Dynamo-style sloppy
//! quorum that transparently re-resolves past dead shards), and a
//! scatter-gather class fans one request across K shards. A multi-shard
//! request's sojourn is the **max** over its sub-requests — the
//! tail-at-scale amplifier: one slow (or re-routed) replica inflates the
//! whole request. Fault injection is seed-derived and virtual-time
//! exact: a shard dies at a mid-window instant (its in-service and
//! queued work is abandoned and resolved as failed — the redistribution
//! drop spike), its keys re-route to surviving replicas (emitted as
//! [`SpanKind::HandOff`] instants), and an optional recovery instant
//! brings it back cold. Offered load is derated by the expected
//! sub-requests per request so quorum points stay
//! utilization-comparable with the plain ones.
//!
//! Determinism contract: the arrival, service and key streams are split
//! once per trial (common random numbers, the `loadgen` discipline). The
//! trial draws the arrival gaps and the service times once and every
//! sweep point reads them by index: arrival `i` reads gap `i`, and the
//! `i`-th dispatch in the event queue's pop order, across all shards,
//! reads service time `i`. The key stream, whose draws are cheap, is
//! cloned per point, and each arrival's key costs exactly two draws
//! whatever the outcome, so sweep points stay coupled and figures are
//! bit-identical for any executor worker count. The quorum settings
//! extend the contract without disturbing it: the request-class and
//! fault streams are two *additional* named splits taken after the
//! original three and cloned per point (split derivation is label-keyed,
//! so the legacy streams are unchanged), a quorum arrival costs exactly
//! one class draw on top of the two key draws whatever its class, and a
//! setting with `R = W = K = 1` and no fault replays the plain
//! single-shard routing bit for bit.

use kvstore::{Shard, ShardStats};
use platforms::Platform;
use simcore::error::SimError;
use simcore::obs::{Recorder, SpanKind};
use simcore::resource::CompletionTimer;
use simcore::stats::{Cdf, RunningStats};
use simcore::{CoreCounters, EventQueue, Nanos, SimRng, Zipf};

use crate::format_key;
use crate::pipeline::{validated_non_negative, ARRIVAL_CHUNK, PROBES};
use crate::slots::{
    backend_profile, Admission, ClassConfig, ServiceTimes, SlotPolicy, SlotPool, UnitGaps,
};
pub use crate::slots::{LoadBackend, ServiceProfile};

/// Baseline Zipf skew of the shard-count sweep (the `s` in Zipf(s)).
pub const BASELINE_THETA: f64 = 0.9;

/// How the routing tier places keys on shards.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RoutePolicy {
    /// FNV-hash every key over the shards — the balanced placement.
    Hashed,
    /// Funnel the *currently hot* key set onto shard 0 (a stale
    /// range-partitioned placement), hash everything else — the
    /// adversarial baseline the rebalance experiment starts from.
    Pinned,
    /// Start [`RoutePolicy::Pinned`], then reshard to
    /// [`RoutePolicy::Hashed`] at the steady-phase boundary
    /// ([`ClusterBenchmark::rebalance_after`]) — resharding during
    /// tenant churn.
    Rebalance,
}

/// The seed-derived shard-failure scenario of one quorum sweep point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultPlan {
    /// No shard dies.
    None,
    /// One seed-chosen shard dies at a seed-jittered mid-window instant
    /// and never comes back.
    Fail,
    /// The shard dies mid-window and recovers (cold) a quarter-window
    /// later.
    FailRecover,
}

/// One point of the cluster sweep: a shard count, a Zipf skew, a routing
/// policy, and whether the hot key set churns (rotates) over the window
/// — plus, for the quorum family, a replication factor, a quorum shape,
/// a scatter fan-out and a fault scenario.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClusterSetting {
    /// Number of backend shards behind the router.
    pub shards: usize,
    /// Zipf skew `s` of the hot-set key draw, in `[0, 1)`.
    pub zipf_theta: f64,
    /// Key placement policy of the routing tier.
    pub route: RoutePolicy,
    /// Whether the hot set rotates over the window (tenant churn).
    pub churn: bool,
    /// Whether the point belongs to the quorum (replication/failover)
    /// family. Plain points must keep the quorum fields at their
    /// identities (`replicas == write_quorum == fanout == 1`, no fault).
    pub quorum: bool,
    /// Replication factor R: each key's replica set is the R successive
    /// shards on the FNV ring from its home.
    pub replicas: usize,
    /// Write quorum W in `1..=R`; reads touch `R_q = R + 1 - W`
    /// replicas, so `W = 1` is the read-all tail amplifier and `W = R`
    /// degrades reads to one replica.
    pub write_quorum: usize,
    /// Scatter-gather fan-out K: a scatter request touches the K alive
    /// shards from an arrival-derived uniform anchor (no key affinity),
    /// sojourn = max of the K.
    pub fanout: usize,
    /// The shard-failure scenario of the point.
    pub fault: FaultPlan,
}

impl ClusterSetting {
    /// The quorum-field identities of the plain (single-shard-routing)
    /// family.
    fn plain(shards: usize, zipf_theta: f64, route: RoutePolicy, churn: bool) -> Self {
        ClusterSetting {
            shards,
            zipf_theta,
            route,
            churn,
            quorum: false,
            replicas: 1,
            write_quorum: 1,
            fanout: 1,
            fault: FaultPlan::None,
        }
    }

    /// A hash-routed point with a static hot set.
    pub fn hashed(shards: usize, zipf_theta: f64) -> Self {
        Self::plain(shards, zipf_theta, RoutePolicy::Hashed, false)
    }

    /// The adversarial hot-set-on-shard-0 point under tenant churn, at
    /// the baseline skew.
    pub fn pinned(shards: usize) -> Self {
        Self::plain(shards, BASELINE_THETA, RoutePolicy::Pinned, true)
    }

    /// The resharding-during-churn point: pinned start, hashed after the
    /// rebalance boundary, at the baseline skew.
    pub fn rebalance(shards: usize) -> Self {
        Self::plain(shards, BASELINE_THETA, RoutePolicy::Rebalance, true)
    }

    /// A quorum point: R-way replication with write quorum W (reads
    /// touch `R + 1 - W`), hash routing at the baseline skew, no fault.
    pub fn replicated(shards: usize, replicas: usize, write_quorum: usize) -> Self {
        ClusterSetting {
            quorum: true,
            replicas,
            write_quorum,
            ..Self::plain(shards, BASELINE_THETA, RoutePolicy::Hashed, false)
        }
    }

    /// A scatter-gather point: R-way replication with `W = 1` and the
    /// scatter class fanning across `fanout` shards.
    pub fn scatter(shards: usize, replicas: usize, fanout: usize) -> Self {
        ClusterSetting {
            fanout,
            ..Self::replicated(shards, replicas, 1)
        }
    }

    /// A failover point: R-way replication with `W = 1`, one shard
    /// dying mid-window — and recovering when `recover` is set.
    pub fn failing(shards: usize, replicas: usize, recover: bool) -> Self {
        ClusterSetting {
            fault: if recover {
                FaultPlan::FailRecover
            } else {
                FaultPlan::Fail
            },
            ..Self::replicated(shards, replicas, 1)
        }
    }

    /// Whether the point takes the plain single-shard routing path
    /// (byte-for-byte the pre-replication cluster).
    pub fn is_plain(&self) -> bool {
        !self.quorum
    }

    /// The categorical label of the point in figures and reports.
    pub fn label(&self) -> String {
        if self.quorum {
            return match self.fault {
                FaultPlan::Fail => format!("r{} fail", self.replicas),
                FaultPlan::FailRecover => format!("r{} failrec", self.replicas),
                FaultPlan::None if self.fanout > 1 => {
                    format!("r{} k{}", self.replicas, self.fanout)
                }
                FaultPlan::None if self.replicas > 1 => {
                    format!("r{} w{}", self.replicas, self.write_quorum)
                }
                FaultPlan::None => "r1".to_string(),
            };
        }
        match self.route {
            RoutePolicy::Pinned => format!("s{} pinned", self.shards),
            RoutePolicy::Rebalance => format!("s{} rebal", self.shards),
            RoutePolicy::Hashed if (self.zipf_theta - BASELINE_THETA).abs() > 1e-9 => {
                format!("s{} z{:.2}", self.shards, self.zipf_theta)
            }
            RoutePolicy::Hashed => format!("s{}", self.shards),
        }
    }

    /// The default sweep: shard count 1→256 at the baseline skew, a skew
    /// sweep at 16 shards, and the pinned/rebalance churn pair.
    pub fn default_sweep() -> Vec<ClusterSetting> {
        vec![
            ClusterSetting::hashed(1, BASELINE_THETA),
            ClusterSetting::hashed(4, BASELINE_THETA),
            ClusterSetting::hashed(16, BASELINE_THETA),
            ClusterSetting::hashed(64, BASELINE_THETA),
            ClusterSetting::hashed(256, BASELINE_THETA),
            ClusterSetting::hashed(16, 0.0),
            ClusterSetting::hashed(16, 0.5),
            ClusterSetting::hashed(16, 0.99),
            ClusterSetting::pinned(16),
            ClusterSetting::rebalance(16),
        ]
    }

    /// The replication/failover sweep at 16 shards: replication factor
    /// R=1/2/3, quorum shape W=1 vs W=R, scatter fan-out K=4/16 (every
    /// quorum point's scatter class is its own K=1 baseline when
    /// `fanout == 1`), and the fail / fail-then-recover scenarios.
    pub fn failover_sweep() -> Vec<ClusterSetting> {
        vec![
            ClusterSetting::replicated(16, 1, 1),
            ClusterSetting::replicated(16, 2, 1),
            ClusterSetting::replicated(16, 2, 2),
            ClusterSetting::replicated(16, 3, 1),
            ClusterSetting::replicated(16, 3, 3),
            ClusterSetting::scatter(16, 3, 4),
            ClusterSetting::scatter(16, 3, 16),
            ClusterSetting::failing(16, 2, false),
            ClusterSetting::failing(16, 2, true),
            ClusterSetting::failing(16, 3, true),
        ]
    }
}

/// Configuration of one sharded-cluster sweep.
///
/// Offered load is **utilization-constant**: every point offers
/// `offered_fraction` of the *whole cluster's* derated capacity
/// (`shards x servers_per_shard` slots), so scaling out grows the
/// offered rate with the fleet — the capacity-planning convention under
/// which "does the hot shard keep up" is the interesting question.
#[derive(Debug, Clone)]
pub struct ClusterBenchmark {
    /// Which backend the shards run.
    pub backend: LoadBackend,
    /// Requests offered per sweep point.
    pub requests_per_point: usize,
    /// The shard-count/skew/routing sweep, one point per setting.
    pub sweep: Vec<ClusterSetting>,
    /// Offered load as a fraction of the cluster's saturation capacity.
    pub offered_fraction: f64,
    /// Bounded admission queue depth in front of each shard's slots.
    pub queue_capacity: usize,
    /// Parallel service slots per shard.
    pub servers_per_shard: usize,
    /// Measurement repetitions (trials) per sweep point.
    pub runs: usize,
    /// Execute one real per-shard store operation per this many
    /// dispatched requests (the [`kvstore::Shard`] cache model).
    pub op_sample_every: u64,
    /// Size of the key universe.
    pub keys: usize,
    /// Size of the hot key set the Zipf draw ranks over.
    pub hot_keys: usize,
    /// Fraction of requests drawn from the hot set (the hotspot mix).
    pub hot_fraction: f64,
    /// Fraction of the arrival window after which the steady phase
    /// begins (imbalance is measured there) and the
    /// [`RoutePolicy::Rebalance`] policy reshards.
    pub rebalance_after: f64,
    /// Hot-set rotations per window when a point churns.
    pub churn_epochs: u32,
    /// Byte budget of each shard's store cache.
    pub cache_bytes_per_shard: usize,
    /// Value payload bytes of the sampled store operations.
    pub value_bytes: usize,
    /// Fraction of quorum-point requests in the scatter-gather class
    /// (fanning across the setting's `fanout` shards). Plain points
    /// ignore it.
    pub scatter_fraction: f64,
    /// Fraction of the remaining (non-scatter) quorum-point requests
    /// that are writes (touching W replicas); the rest are reads
    /// (touching `R + 1 - W`). Plain points ignore it.
    pub write_fraction: f64,
}

impl ClusterBenchmark {
    /// The full-scale configuration for a backend.
    pub fn new(backend: LoadBackend) -> Self {
        ClusterBenchmark {
            backend,
            requests_per_point: 20_000,
            sweep: ClusterSetting::default_sweep(),
            offered_fraction: 0.85,
            queue_capacity: 8_192,
            servers_per_shard: 4,
            runs: 5,
            op_sample_every: 4,
            keys: 4_096,
            hot_keys: 16,
            hot_fraction: 0.3,
            rebalance_after: 0.5,
            churn_epochs: 4,
            cache_bytes_per_shard: 64 << 10,
            value_bytes: 128,
            scatter_fraction: 0.2,
            write_fraction: 0.3,
        }
    }

    /// A scaled-down configuration for unit tests and quick runs.
    pub fn quick(backend: LoadBackend) -> Self {
        ClusterBenchmark {
            requests_per_point: 2_500,
            runs: 3,
            ..ClusterBenchmark::new(backend)
        }
    }

    /// The full-scale replication/failover configuration for a backend:
    /// the quorum sweep over the same request budget and shard fabric.
    pub fn failover(backend: LoadBackend) -> Self {
        ClusterBenchmark {
            sweep: ClusterSetting::failover_sweep(),
            ..ClusterBenchmark::new(backend)
        }
    }

    /// The scaled-down replication/failover configuration.
    pub fn failover_quick(backend: LoadBackend) -> Self {
        ClusterBenchmark {
            sweep: ClusterSetting::failover_sweep(),
            ..ClusterBenchmark::quick(backend)
        }
    }

    /// The per-shard service profile on `platform`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] for a degenerate profile — an
    /// empty per-shard pool, or a platform derate that collapses the
    /// service time to zero.
    pub fn service_profile(&self, platform: &Platform) -> Result<ServiceProfile, SimError> {
        backend_profile(self.backend, platform, self.servers_per_shard)
    }

    fn validate(&self) -> Result<(), SimError> {
        let check_rate = |what: &str, v: f64| {
            if !v.is_finite() || !(0.0..=1.0).contains(&v) {
                return Err(SimError::InvalidConfig(format!(
                    "{what} must be a fraction in [0, 1], got {v}"
                )));
            }
            Ok(())
        };
        check_rate("cluster hot-key fraction", self.hot_fraction)?;
        check_rate("cluster rebalance boundary", self.rebalance_after)?;
        check_rate("cluster scatter fraction", self.scatter_fraction)?;
        check_rate("cluster write fraction", self.write_fraction)?;
        validated_non_negative("cluster offered fraction", self.offered_fraction)?;
        if self.keys == 0 || self.hot_keys == 0 || self.hot_keys > self.keys {
            return Err(SimError::InvalidConfig(format!(
                "cluster key universe ({}) must contain the hot set ({})",
                self.keys, self.hot_keys
            )));
        }
        if self.requests_per_point == 0 {
            return Err(SimError::InvalidConfig(
                "cluster sweep needs at least one request per point".into(),
            ));
        }
        for setting in &self.sweep {
            Self::validate_setting(setting)?;
        }
        Ok(())
    }

    fn validate_setting(setting: &ClusterSetting) -> Result<(), SimError> {
        if setting.shards == 0 {
            return Err(SimError::InvalidConfig(
                "cluster points need at least one shard".into(),
            ));
        }
        if !setting.zipf_theta.is_finite() || !(0.0..1.0).contains(&setting.zipf_theta) {
            return Err(SimError::InvalidConfig(format!(
                "cluster Zipf skew must lie in [0, 1), got {}",
                setting.zipf_theta
            )));
        }
        if setting.quorum {
            if setting.route != RoutePolicy::Hashed {
                return Err(SimError::InvalidConfig(
                    "quorum points require hashed routing (the ring the replica walk uses)".into(),
                ));
            }
            if setting.replicas == 0 || setting.replicas > setting.shards {
                return Err(SimError::InvalidConfig(format!(
                    "replication factor {} must lie in 1..={} shards",
                    setting.replicas, setting.shards
                )));
            }
            if setting.write_quorum == 0 || setting.write_quorum > setting.replicas {
                return Err(SimError::InvalidConfig(format!(
                    "write quorum {} must lie in 1..={} replicas",
                    setting.write_quorum, setting.replicas
                )));
            }
            if setting.fanout == 0 || setting.fanout > setting.shards {
                return Err(SimError::InvalidConfig(format!(
                    "scatter fan-out {} must lie in 1..={} shards",
                    setting.fanout, setting.shards
                )));
            }
            if setting.fault != FaultPlan::None && setting.shards < 2 {
                return Err(SimError::InvalidConfig(
                    "a fault plan needs at least two shards (one must survive)".into(),
                ));
            }
        } else if setting.replicas != 1
            || setting.write_quorum != 1
            || setting.fanout != 1
            || setting.fault != FaultPlan::None
        {
            return Err(SimError::InvalidConfig(
                "plain points must keep the quorum fields at their identities".into(),
            ));
        }
        Ok(())
    }

    /// Runs the whole cluster sweep once and returns one
    /// [`ClusterPoint`] per configured setting.
    ///
    /// This is the unit the parallel executor shards on. The arrival
    /// gaps, service times, key walk, request-class walk and fault draws
    /// are common random numbers across the sweep points.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] for a degenerate service
    /// profile, hotspot mix, offered fraction, Zipf skew or sweep point.
    pub fn run_trial(
        &self,
        platform: &Platform,
        rng: &mut SimRng,
    ) -> Result<Vec<ClusterPoint>, SimError> {
        self.sweep_trial(platform, rng).map(|(points, _)| points)
    }

    /// [`ClusterBenchmark::run_trial`], returning the trial's draw tables
    /// with its points.
    fn sweep_trial(
        &self,
        platform: &Platform,
        rng: &mut SimRng,
    ) -> Result<(Vec<ClusterPoint>, ClusterDraws), SimError> {
        self.validate()?;
        let profile = self.service_profile(platform)?;
        let mut draws = ClusterDraws::split(profile, self.requests_per_point, rng);
        let points = self
            .sweep
            .iter()
            .map(|setting| {
                self.run_setting(setting, &mut draws, None)
                    .map(|(point, _)| point)
            })
            .collect::<Result<_, _>>()?;
        Ok((points, draws))
    }

    /// Runs one sweep point with the span recorder attached and returns
    /// the measured point together with the recorder, ready for export.
    ///
    /// The stream discipline matches [`ClusterBenchmark::run_trial`]
    /// (the same five named splits taken in the same order: arrivals,
    /// service, keys, classes, faults), and the point draws its own
    /// tables. The recorder consumes no draws, so the traced point is
    /// equal to the corresponding untraced sweep point. The timeline
    /// carries the point's event-core counters: the event queue's pushes
    /// and pops merged with every shard's completion-timer counters, in
    /// shard order. A shard the fault plan kills restarts with a fresh
    /// timer, so its counts begin at the kill.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] for a degenerate service
    /// profile, hotspot mix, offered fraction, Zipf skew or sweep point.
    pub fn run_setting_traced(
        &self,
        platform: &Platform,
        setting: &ClusterSetting,
        rng: &mut SimRng,
        recorder: Recorder,
    ) -> Result<(ClusterPoint, Recorder), SimError> {
        self.validate()?;
        Self::validate_setting(setting)?;
        let profile = self.service_profile(platform)?;
        let mut draws = ClusterDraws::split(profile, self.requests_per_point, rng);
        let (point, obs) = self.run_setting(setting, &mut draws, Some(recorder))?;
        Ok((point, obs.expect("the traced run returns its recorder")))
    }

    /// The expected backend work units per request at a setting — the
    /// derate that keeps quorum points utilization-comparable with plain
    /// ones (exactly `1.0` for a plain point, so its offered rate is
    /// untouched). Replica subs each do a full operation; a scatter's K
    /// partial queries each do a `1/K` partition slice, so its work is
    /// one unit whatever the fan-out — which keeps the per-shard load
    /// *composition* identical across a fan-out sweep and leaves the
    /// max-of-K statistic unconfounded by utilization shifts.
    fn expected_work(&self, setting: &ClusterSetting) -> f64 {
        if setting.is_plain() {
            return 1.0;
        }
        let read_quorum = (setting.replicas + 1 - setting.write_quorum) as f64;
        let sf = self.scatter_fraction;
        let wf = self.write_fraction;
        sf + (1.0 - sf) * (wf * setting.write_quorum as f64 + (1.0 - wf) * read_quorum)
    }

    /// Runs one sweep point on its trial's `draws`, on one typed-event
    /// queue.
    fn run_setting(
        &self,
        setting: &ClusterSetting,
        draws: &mut ClusterDraws,
        obs: Option<Recorder>,
    ) -> Result<(ClusterPoint, Option<Recorder>), SimError> {
        let profile = *draws.service.profile();
        let mut fault_rng = draws.faults.clone();
        let mut st = ClusterState {
            gaps: &mut draws.gaps,
            service: &mut draws.service,
            dispatched: 0,
            key_rng: draws.keys.clone(),
            class_rng: draws.classes.clone(),
        };
        let shards = setting.shards;
        let capacity_per_shard = profile.servers as f64 / profile.service_time.as_secs_f64();
        let offered_per_sec = (capacity_per_shard * shards as f64 * self.offered_fraction
            / self.expected_work(setting))
        .max(1.0);
        let window_secs = self.requests_per_point as f64 / offered_per_sec;
        let probe_period = Nanos::from_secs_f64(window_secs / f64::from(PROBES));
        let mut sim = ClusterSim::new(self, &profile, setting, offered_per_sec, probe_period, obs)?;
        let mut queue: EventQueue<Ev> = EventQueue::new();
        // Kick off the batched arrival source and the in-flight probes.
        queue.push(Nanos::ZERO, Ev::Generate);
        queue.push(probe_period, Ev::Probe { remaining: PROBES });
        // Seed-derived fault injection: the victim shard and the jitter
        // of the failure instant come from the point's clone of the
        // trial's fault stream, and the instants are pure virtual times.
        if setting.fault != FaultPlan::None {
            let victim = fault_rng.index(shards);
            let jitter = fault_rng.uniform01();
            let fail_at = Nanos::from_secs_f64(window_secs * (0.35 + 0.2 * jitter));
            sim.failed_shard = Some(victim);
            sim.fail_at = fail_at;
            queue.push(
                fail_at,
                Ev::Fail {
                    shard: victim as u32,
                },
            );
            if setting.fault == FaultPlan::FailRecover {
                let recover_at = fail_at + Nanos::from_secs_f64(0.25 * window_secs);
                sim.recover_at = recover_at;
                queue.push(
                    recover_at,
                    Ev::Recover {
                        shard: victim as u32,
                    },
                );
            }
        }
        while let Some((now, ev)) = queue.pop() {
            sim.handle(now, ev, &mut queue, &mut st);
        }
        if let Some(obs) = sim.obs.as_mut() {
            // The event-core profile of one sweep point: the cluster's
            // event queue plus every shard's batched completion timer.
            let counters = sim
                .shards
                .iter()
                .map(|node| node.completions.counters())
                .fold(queue.counters(), CoreCounters::merged);
            obs.set_core_counters(counters);
        }
        let obs = sim.obs.take();
        Ok((sim.into_point(setting, offered_per_sec, &queue), obs))
    }
}

/// One measured point of the cluster sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterPoint {
    /// Categorical sweep label (e.g. `s16`, `s16 z0.99`, `s16 rebal`).
    pub label: String,
    /// Number of backend shards at the point.
    pub shards: usize,
    /// Zipf skew of the point's hot-set draw.
    pub zipf_theta: f64,
    /// Offered load in requests per second (cluster-wide).
    pub offered_per_sec: f64,
    /// Completed throughput in requests per second.
    pub achieved_per_sec: f64,
    /// Median cluster-wide sojourn time in microseconds.
    pub p50_us: f64,
    /// 95th-percentile cluster-wide sojourn time in microseconds.
    pub p95_us: f64,
    /// 99th-percentile cluster-wide sojourn time in microseconds.
    pub p99_us: f64,
    /// Mean cluster-wide sojourn time in microseconds.
    pub mean_us: f64,
    /// 99th-percentile sojourn time on the hottest shard (by arrivals).
    pub hot_p99_us: f64,
    /// The hottest shard's fraction of all arrivals.
    pub hot_share: f64,
    /// Steady-phase imbalance: the hottest shard's steady-phase arrival
    /// count over the per-shard mean (1.0 = perfectly balanced). The
    /// steady phase is the window past the rebalance boundary, so the
    /// rebalance point reports its *post-reshard* placement quality.
    pub imbalance: f64,
    /// Requests dropped at shard admission queues over all issued.
    pub drop_fraction: f64,
    /// Requests completed.
    pub completed: u64,
    /// Requests dropped by bounded shard queues.
    pub dropped: u64,
    /// Probe-sampled peak of cluster-wide in-flight requests.
    pub peak_in_flight: usize,
    /// Time-averaged cluster-wide in-flight depth from the probes.
    pub mean_in_flight: f64,
    /// Live entries across all shard caches at the end of the window.
    pub store_entries: u64,
    /// Bytes across all shard caches at the end of the window.
    pub store_bytes: u64,
    /// Evictions across all shard caches over the window.
    pub store_evictions: u64,
    /// Whether the routing tier resharded mid-window.
    pub rebalanced: bool,
    /// Events the cluster's event queue popped at this point.
    pub events: u64,
    /// Replication factor R of the point (1 for plain points).
    pub replicas: usize,
    /// Write quorum W of the point (1 for plain points).
    pub write_quorum: usize,
    /// Scatter fan-out K of the point (1 for plain points).
    pub fanout: usize,
    /// 99th-percentile sojourn of the scatter-gather class, in
    /// microseconds (0.0 when the point has no scatter requests).
    pub scatter_p99_us: f64,
    /// Sub-requests the sloppy quorum re-routed around a dead shard.
    pub failover_handoffs: u64,
    /// The shard the fault plan killed (-1 when no shard died).
    pub failed_shard: i64,
    /// Virtual time of the failure instant in microseconds (-1.0 when
    /// the point has no fault).
    pub fail_at_us: f64,
    /// Virtual time of the recovery instant in microseconds (-1.0 when
    /// the shard never recovers).
    pub recover_at_us: f64,
    /// Drop rate over requests resolved before the failure instant.
    pub pre_fail_drop_rate: f64,
    /// Drop rate over requests resolved between failure and recovery —
    /// the redistribution spike.
    pub fail_window_drop_rate: f64,
    /// Drop rate over requests resolved after the recovery instant; the
    /// subsided-spike gate asserts it returns to the pre-failure band.
    pub post_recover_drop_rate: f64,
}

/// A request waiting in a shard's admission queue or in service.
#[derive(Debug, Clone, Copy)]
struct Req {
    /// Cluster-wide arrival index — the stable trace-sampling identity,
    /// assigned by the router in generation order.
    id: u64,
    arrived: Nanos,
    key: u32,
}

/// Typed events of the cluster simulation — no boxed closures; the
/// event queue's pop order alone drives the state machine.
#[derive(Debug, Clone, Copy)]
enum Ev {
    /// Sample and push the next chunk of routed arrivals (the router).
    Generate,
    /// One arrival at `shard` for `key`, the cluster's `id`-th overall.
    Arrive { shard: u32, id: u64, key: u32 },
    /// Completion-timer wake on `shard`.
    Drain { shard: u32 },
    /// Fixed-cadence cluster in-flight probe.
    Probe { remaining: u32 },
    /// The fault plan kills `shard`: its in-service and queued work is
    /// abandoned (resolved as failed) and the routing tier re-resolves
    /// its keys to surviving replicas.
    Fail { shard: u32 },
    /// The killed shard comes back cold (empty pool, empty cache).
    Recover { shard: u32 },
}

/// The request class a quorum arrival draws (plain arrivals have none).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ReqClass {
    /// Touches `R + 1 - W` replicas.
    Read,
    /// Touches W replicas.
    Write,
    /// Fans across K shards.
    Scatter,
}

/// Parent bookkeeping of one quorum request: the request completes when
/// its last sub-request resolves (sojourn = max over the quorum, since
/// the event queue pops in non-decreasing time order), and it fails if
/// *any* sub-request failed.
#[derive(Debug, Clone, Copy)]
struct Parent {
    remaining: u32,
    failed: bool,
    arrived: Nanos,
    class: ReqClass,
}

/// The random streams of one cluster trial, split off the cell stream in
/// the order the figures were recorded with: arrivals, service, keys,
/// classes, faults. The class and fault splits came later; taking them
/// *after* the original three keeps the legacy streams bit-identical
/// (split derivation is label-keyed but advances the parent generator).
/// The arrival gaps and service times are drawn once per trial and read
/// by index at every point; the key, class and fault streams, whose draws
/// are cheap, are cloned per point.
#[derive(Debug)]
struct ClusterDraws {
    gaps: UnitGaps,
    service: ServiceTimes,
    keys: SimRng,
    classes: SimRng,
    faults: SimRng,
}

impl ClusterDraws {
    /// Splits the trial's streams off `rng`, sizing the gap table for
    /// the `requests` arrivals every point generates.
    fn split(profile: ServiceProfile, requests: usize, rng: &mut SimRng) -> Self {
        ClusterDraws {
            gaps: UnitGaps::new(rng.split("arrivals"), requests),
            service: ServiceTimes::new(profile, rng.split("service"), requests),
            keys: rng.split("keys"),
            classes: rng.split("classes"),
            faults: rng.split("faults"),
        }
    }
}

/// One point's view of its trial's streams: the shared arrival-gap and
/// service-time tables, read by arrival index and by cluster-wide
/// dispatch index (the service sequence spans all shards, in event pop
/// order), and the point's own clones of the key and class streams.
struct ClusterState<'t> {
    gaps: &'t mut UnitGaps,
    service: &'t mut ServiceTimes,
    /// Dispatches so far, all shards: the next service-time index.
    dispatched: usize,
    key_rng: SimRng,
    class_rng: SimRng,
}

/// One backend shard: its own bounded slot pool, completion timer and
/// store cache.
struct ShardNode {
    pool: SlotPool<Req>,
    completions: CompletionTimer<Req>,
    cache: Shard,
    arrivals: u64,
    steady_arrivals: u64,
    dispatched: u64,
    latencies_us: Vec<f64>,
}

/// The discrete-event state of one cluster sweep point.
struct ClusterSim<'a> {
    bench: &'a ClusterBenchmark,
    profile: ServiceProfile,
    setting: ClusterSetting,
    offered_per_sec: f64,
    /// Hot-set rank sampler over `bench.hot_keys` at the point's skew.
    zipf: Zipf,
    shards: Vec<ShardNode>,
    /// Arrival index of the next generated request.
    next_arrival: u64,
    remaining_arrivals: u64,
    /// First arrival index of the steady phase (and reshard boundary).
    boundary: u64,
    /// Arrivals per churn epoch (`u64::MAX` when the hot set is static).
    epoch_len: u64,
    latencies_us: Vec<f64>,
    completed: u64,
    dropped: u64,
    /// Virtual time between two in-flight probes.
    probe_period: Nanos,
    in_flight_probe: RunningStats,
    peak_in_flight: usize,
    drain_buf: Vec<(Nanos, Req)>,
    dispatch_buf: Vec<(usize, Nanos, Req)>,
    /// Reusable store-key buffer of the sampled shard operations.
    key_buf: String,
    /// Observation-only trace recorder; `None` is the zero-cost path.
    obs: Option<Recorder>,
    /// Recorder lane per shard (`shard{i}`), empty when untraced.
    obs_lanes: Vec<u32>,
    /// Liveness per shard; only a fault plan ever clears an entry.
    alive: Vec<bool>,
    /// Parent bookkeeping per arrival index (quorum points only; plain
    /// points never allocate it).
    parents: Vec<Parent>,
    /// Reusable sub-request target buffer of the quorum walk.
    target_buf: Vec<u32>,
    /// Sojourns of completed scatter-class requests, in microseconds.
    scatter_latencies_us: Vec<f64>,
    /// Sub-requests the sloppy quorum re-routed around a dead shard.
    failover_handoffs: u64,
    /// The fault plan's victim, once drawn.
    failed_shard: Option<usize>,
    /// Failure instant (`Nanos::MAX` when the point has no fault).
    fail_at: Nanos,
    /// Recovery instant (`Nanos::MAX` when the shard never recovers).
    recover_at: Nanos,
    /// Requests resolved per phase (pre-fail / fail window / post-recover).
    issued_by_phase: [u64; 3],
    /// Requests dropped per phase.
    dropped_by_phase: [u64; 3],
}

/// "Not scheduled" sentinel of the fault instants: later than any
/// reachable virtual time, so every request resolves in the pre-fail
/// phase when the point has no fault.
const NEVER: Nanos = Nanos::from_nanos(u64::MAX);

/// FNV-1a over a key id — the router's placement hash.
fn fnv(key: u32) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in key.to_le_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

impl<'a> ClusterSim<'a> {
    fn new(
        bench: &'a ClusterBenchmark,
        profile: &ServiceProfile,
        setting: &ClusterSetting,
        offered_per_sec: f64,
        probe_period: Nanos,
        mut obs: Option<Recorder>,
    ) -> Result<Self, SimError> {
        let obs_lanes = match obs.as_mut() {
            Some(o) => (0..setting.shards)
                .map(|i| o.lane(&format!("shard{i}")))
                .collect(),
            None => Vec::new(),
        };
        let shards = (0..setting.shards)
            .map(|_| {
                Ok(ShardNode {
                    pool: SlotPool::new(
                        profile.servers,
                        SlotPolicy::FifoArrival,
                        vec![ClassConfig {
                            weight: 1,
                            queue_capacity: bench.queue_capacity,
                            mean_cost: profile.service_time,
                        }],
                    )?,
                    completions: CompletionTimer::new(),
                    cache: Shard::new(bench.cache_bytes_per_shard.max(1024)),
                    arrivals: 0,
                    steady_arrivals: 0,
                    dispatched: 0,
                    latencies_us: Vec::new(),
                })
            })
            .collect::<Result<Vec<_>, SimError>>()?;
        let requests = bench.requests_per_point as u64;
        let epoch_len = if setting.churn {
            (requests / u64::from(bench.churn_epochs.max(1))).max(1)
        } else {
            u64::MAX
        };
        Ok(ClusterSim {
            bench,
            profile: *profile,
            setting: *setting,
            offered_per_sec,
            zipf: Zipf::new(bench.hot_keys, setting.zipf_theta),
            shards,
            next_arrival: 0,
            remaining_arrivals: requests,
            boundary: (bench.rebalance_after * requests as f64) as u64,
            epoch_len,
            latencies_us: Vec::with_capacity(bench.requests_per_point),
            completed: 0,
            dropped: 0,
            probe_period,
            in_flight_probe: RunningStats::new(),
            peak_in_flight: 0,
            drain_buf: Vec::new(),
            dispatch_buf: Vec::new(),
            key_buf: String::new(),
            obs,
            obs_lanes,
            alive: vec![true; setting.shards],
            parents: if setting.is_plain() {
                Vec::new()
            } else {
                Vec::with_capacity(bench.requests_per_point)
            },
            target_buf: Vec::new(),
            scatter_latencies_us: Vec::new(),
            failover_handoffs: 0,
            failed_shard: None,
            fail_at: NEVER,
            recover_at: NEVER,
            issued_by_phase: [0; 3],
            dropped_by_phase: [0; 3],
        })
    }

    /// Base key id of the hot set at arrival index `idx`: churn rotates
    /// the hot range one hot-set width per epoch (tenant churn).
    fn hot_base(&self, idx: u64) -> u64 {
        if self.epoch_len == u64::MAX {
            0
        } else {
            (idx / self.epoch_len) * self.bench.hot_keys as u64 % self.bench.keys as u64
        }
    }

    fn is_hot(&self, key: u32, idx: u64) -> bool {
        let base = self.hot_base(idx);
        let offset = (u64::from(key) + self.bench.keys as u64 - base) % self.bench.keys as u64;
        offset < self.bench.hot_keys as u64
    }

    /// The routing tier: maps an arrival's key to its shard under the
    /// point's placement policy and phase.
    fn route(&self, key: u32, idx: u64) -> usize {
        let n = self.setting.shards as u64;
        let hashed = (fnv(key) % n) as usize;
        let resharded = self.setting.route == RoutePolicy::Rebalance && idx >= self.boundary;
        match self.setting.route {
            RoutePolicy::Hashed => hashed,
            RoutePolicy::Pinned => {
                if self.is_hot(key, idx) {
                    0
                } else {
                    hashed
                }
            }
            RoutePolicy::Rebalance => {
                if !resharded && self.is_hot(key, idx) {
                    0
                } else {
                    hashed
                }
            }
        }
    }

    /// One key draw of the hotspot mix: two stream draws per arrival
    /// whatever the outcome (hot-set membership, then rank or uniform),
    /// keeping the key stream aligned across sweep points.
    fn draw_key(&self, idx: u64, rng: &mut SimRng) -> u32 {
        if rng.chance(self.bench.hot_fraction) {
            let rank = self.zipf.sample(rng) as u64;
            ((self.hot_base(idx) + rank) % self.bench.keys as u64) as u32
        } else {
            rng.index(self.bench.keys) as u32
        }
    }

    fn handle(
        &mut self,
        now: Nanos,
        ev: Ev,
        queue: &mut EventQueue<Ev>,
        st: &mut ClusterState<'_>,
    ) {
        match ev {
            Ev::Generate => self.generate(now, queue, st),
            Ev::Arrive { shard, id, key } => self.arrive(now, shard as usize, id, key, queue, st),
            Ev::Drain { shard } => self.drain(now, shard as usize, queue, st),
            Ev::Probe { remaining } => self.probe(now, remaining, queue),
            Ev::Fail { shard } => self.fail_shard(now, shard as usize),
            Ev::Recover { shard } => self.recover_shard(shard as usize),
        }
    }

    /// The failure-phase of a resolution instant: pre-fail, fail window,
    /// or post-recover. Points without a fault resolve everything in the
    /// pre-fail phase.
    fn phase_of(&self, resolved: Nanos) -> usize {
        if resolved < self.fail_at {
            0
        } else if resolved < self.recover_at {
            1
        } else {
            2
        }
    }

    /// Final request-level accounting, shared by both routing families:
    /// classify the resolution instant into a failure phase, then count
    /// the request as dropped (`None`) or record its sojourn.
    fn finish_request(&mut self, now: Nanos, outcome: Option<(Nanos, ReqClass)>) {
        let phase = self.phase_of(now);
        self.issued_by_phase[phase] += 1;
        match outcome {
            None => {
                self.dropped += 1;
                self.dropped_by_phase[phase] += 1;
            }
            Some((arrived, class)) => {
                let sojourn_us = (now - arrived).as_micros_f64();
                self.latencies_us.push(sojourn_us);
                if class == ReqClass::Scatter {
                    self.scatter_latencies_us.push(sojourn_us);
                }
                self.completed += 1;
            }
        }
    }

    /// Resolves one sub-request. On the plain path a "sub-request" is
    /// the request itself (and only failures arrive here — completions
    /// resolve in [`ClusterSim::drain`]); on the quorum path the parent
    /// completes when its **last** sub resolves (sojourn = max over the
    /// quorum, since the event queue pops in non-decreasing time order)
    /// and fails if *any* sub failed.
    fn resolve_sub(&mut self, now: Nanos, id: u64, ok: bool) {
        if self.setting.is_plain() {
            debug_assert!(!ok, "plain completions resolve in drain()");
            self.finish_request(now, None);
            return;
        }
        let p = &mut self.parents[id as usize];
        debug_assert!(p.remaining > 0, "a sub-request resolves exactly once");
        p.remaining -= 1;
        p.failed |= !ok;
        if p.remaining == 0 {
            let (failed, arrived, class) = (p.failed, p.arrived, p.class);
            self.finish_request(now, (!failed).then_some((arrived, class)));
        }
    }

    /// The fault plan kills a shard: liveness clears so the router walks
    /// past it, the pool and completion timer are replaced by fresh ones
    /// and every in-service and queued sub-request they held resolves as
    /// failed — the redistribution drop spike — and the cache restarts
    /// cold. Wake-ups armed by the old timer fire against the fresh one,
    /// where they are recognised as stale and drain nothing.
    fn fail_shard(&mut self, now: Nanos, shard: usize) {
        debug_assert!(self.alive[shard], "the fault plan kills a live shard");
        self.alive[shard] = false;
        let node = &mut self.shards[shard];
        let pending = std::mem::take(&mut node.completions).into_pending();
        let fresh = SlotPool::new(
            self.profile.servers,
            SlotPolicy::FifoArrival,
            vec![ClassConfig {
                weight: 1,
                queue_capacity: self.bench.queue_capacity,
                mean_cost: self.profile.service_time,
            }],
        )
        .expect("the startup pool construction validated these parameters");
        let queued = std::mem::replace(&mut node.pool, fresh).into_queued();
        node.cache = Shard::new(self.bench.cache_bytes_per_shard.max(1024));
        for (_, req) in pending {
            if let Some(o) = self.obs.as_mut() {
                o.count_drop(self.obs_lanes[shard], now);
            }
            self.resolve_sub(now, req.id, false);
        }
        for (_, _, req) in queued {
            if let Some(o) = self.obs.as_mut() {
                o.count_drop(self.obs_lanes[shard], now);
            }
            self.resolve_sub(now, req.id, false);
        }
    }

    /// The killed shard comes back cold: liveness only — its pool,
    /// timer and cache were already replaced at the kill.
    fn recover_shard(&mut self, shard: usize) {
        debug_assert!(!self.alive[shard], "recovery follows a kill");
        self.alive[shard] = true;
    }

    /// Samples the next chunk of [`ARRIVAL_CHUNK`] Poisson interarrival
    /// gaps, draws and routes each arrival's key, and pushes one `Arrive`
    /// per gap for the target shard (one per quorum target, all at the
    /// arrival's instant, on a replicated point); reschedules itself at
    /// the chunk's last arrival while arrivals remain. Every push is in
    /// time order, so it goes through [`EventQueue::push_ordered`] onto
    /// the queue's ordered run, and the heap holds only drains, probes
    /// and faults.
    fn generate(&mut self, now: Nanos, queue: &mut EventQueue<Ev>, st: &mut ClusterState<'_>) {
        let n = self.remaining_arrivals.min(ARRIVAL_CHUNK);
        if n == 0 {
            return;
        }
        self.remaining_arrivals -= n;
        let mut offset = Nanos::ZERO;
        let quorum = !self.setting.is_plain();
        for _ in 0..n {
            let idx = self.next_arrival;
            offset += Nanos::from_secs_f64(st.gaps.get(idx as usize) / self.offered_per_sec);
            self.next_arrival += 1;
            let key = self.draw_key(idx, &mut st.key_rng);
            if quorum {
                self.generate_quorum(now + offset, idx, key, queue, st);
                continue;
            }
            let shard = self.route(key, idx);
            if idx >= self.boundary {
                self.shards[shard].steady_arrivals += 1;
            }
            // A hand-off is a hot key the stale placement pinned to
            // shard 0 that the reshard redirected to its hashed home.
            let handed_off = self.setting.route == RoutePolicy::Rebalance
                && idx >= self.boundary
                && shard != 0
                && self.is_hot(key, idx);
            if let Some(o) = self.obs.as_mut() {
                let lane = self.obs_lanes[shard];
                o.instant(SpanKind::Route, idx, lane, now + offset);
                if handed_off {
                    o.instant(SpanKind::HandOff, idx, lane, now + offset);
                }
            }
            queue.push_ordered(
                now + offset,
                Ev::Arrive {
                    shard: shard as u32,
                    id: idx,
                    key,
                },
            );
        }
        if self.remaining_arrivals > 0 {
            queue.push_ordered(now + offset, Ev::Generate);
        }
    }

    /// Routes one quorum arrival: draw its request class (exactly one
    /// class-stream draw per arrival), walk the FNV ring from the key's
    /// home shard taking the first Q *alive* shards, and push one
    /// sub-arrival per target. A sub landing off its all-alive placement
    /// is a failover hand-off (sloppy quorum).
    fn generate_quorum(
        &mut self,
        at: Nanos,
        idx: u64,
        key: u32,
        queue: &mut EventQueue<Ev>,
        st: &mut ClusterState<'_>,
    ) {
        let u = st.class_rng.uniform01();
        let sf = self.bench.scatter_fraction;
        let class = if u < sf {
            ReqClass::Scatter
        } else if u < sf + (1.0 - sf) * self.bench.write_fraction {
            ReqClass::Write
        } else {
            ReqClass::Read
        };
        let want = match class {
            ReqClass::Scatter => self.setting.fanout,
            ReqClass::Write => self.setting.write_quorum,
            ReqClass::Read => self.setting.replicas + 1 - self.setting.write_quorum,
        };
        let n = self.setting.shards;
        let home = match class {
            // A scatter query has no key affinity: its K-shard slice
            // starts at an arrival-derived uniform anchor (a search
            // fan-out over rotating partitions). Key-homed slices would
            // pile the hot keys' ring neighbourhoods onto the same few
            // shards and confound the max-of-K tail with placement skew.
            ReqClass::Scatter => (fnv(idx as u32) % n as u64) as usize,
            ReqClass::Read | ReqClass::Write => (fnv(key) % n as u64) as usize,
        };
        let mut targets = std::mem::take(&mut self.target_buf);
        targets.clear();
        for j in 0..n {
            if targets.len() == want {
                break;
            }
            let s = (home + j) % n;
            if self.alive[s] {
                targets.push(s as u32);
            }
        }
        debug_assert_eq!(self.parents.len() as u64, idx);
        self.parents.push(Parent {
            remaining: targets.len() as u32,
            failed: targets.is_empty(),
            arrived: at,
            class,
        });
        if targets.is_empty() {
            // Every shard is dead: the router fails the request outright.
            self.finish_request(at, None);
        }
        for (j, &target) in targets.iter().enumerate() {
            let shard = target as usize;
            if idx >= self.boundary {
                self.shards[shard].steady_arrivals += 1;
            }
            let handed_off = shard != (home + j) % n;
            if handed_off {
                self.failover_handoffs += 1;
            }
            if let Some(o) = self.obs.as_mut() {
                let lane = self.obs_lanes[shard];
                o.instant(SpanKind::Route, idx, lane, at);
                if handed_off {
                    o.instant(SpanKind::HandOff, idx, lane, at);
                }
            }
            queue.push_ordered(
                at,
                Ev::Arrive {
                    shard: target,
                    id: idx,
                    key,
                },
            );
        }
        self.target_buf = targets;
    }

    /// One routed arrival: admit, enqueue or drop at the shard's bounded
    /// queue. A sub-arrival at a dead shard (routed before the kill)
    /// resolves as failed, like a client whose server vanished mid-call.
    fn arrive(
        &mut self,
        now: Nanos,
        shard: usize,
        id: u64,
        key: u32,
        queue: &mut EventQueue<Ev>,
        st: &mut ClusterState<'_>,
    ) {
        self.shards[shard].arrivals += 1;
        let req = Req {
            id,
            arrived: now,
            key,
        };
        if let Some(o) = self.obs.as_mut() {
            o.count_arrival(self.obs_lanes[shard], now);
        }
        if !self.alive[shard] {
            if let Some(o) = self.obs.as_mut() {
                o.count_drop(self.obs_lanes[shard], now);
            }
            self.resolve_sub(now, id, false);
            return;
        }
        match self.shards[shard].pool.offer(0, now, req) {
            Admission::Dispatched => self.dispatch(now, shard, req, queue, st),
            Admission::Queued => {}
            Admission::Dropped => {
                if let Some(o) = self.obs.as_mut() {
                    o.count_drop(self.obs_lanes[shard], now);
                }
                self.resolve_sub(now, id, false);
            }
        }
        if let Some(o) = self.obs.as_mut() {
            o.gauge(
                self.obs_lanes[shard],
                now,
                self.shards[shard].pool.queued_total(),
                self.shards[shard].pool.busy(),
            );
        }
    }

    /// Dispatch on a shard: read the backend service time (the trial's
    /// next by cluster-wide dispatch index, in event order), run the
    /// sampled store operation against the shard's cache, and register
    /// the completion with the shard's batched timer.
    fn dispatch(
        &mut self,
        now: Nanos,
        shard: usize,
        req: Req,
        queue: &mut EventQueue<Ev>,
        st: &mut ClusterState<'_>,
    ) {
        let mut service = st.service.get(st.dispatched);
        st.dispatched += 1;
        // A scatter sub is one of K partial queries over one partition:
        // it costs a 1/K slice of the sampled operation (the sample is
        // read either way, keeping dispatch i on service time i).
        if !self.setting.is_plain() && self.parents[req.id as usize].class == ReqClass::Scatter {
            let slice = service.as_nanos() / self.setting.fanout as u64;
            service = Nanos::from_nanos(slice.max(1));
        }
        let node = &mut self.shards[shard];
        node.dispatched += 1;
        if node.dispatched % self.bench.op_sample_every.max(1) == 0 {
            // Alternate set/get against the shard's bounded LRU cache;
            // the tick is the shard's own dispatch counter.
            let key = format_key(&mut self.key_buf, "k", u64::from(req.key));
            if node.dispatched % (2 * self.bench.op_sample_every.max(1)) == 0 {
                let hit = node.cache.get(key, node.dispatched).is_some();
                if let Some(o) = self.obs.as_mut() {
                    let lane = self.obs_lanes[shard];
                    o.count_cache(lane, now, hit);
                    let kind = if hit {
                        SpanKind::CacheHit
                    } else {
                        SpanKind::CacheMiss
                    };
                    o.instant(kind, req.id, lane, now);
                }
            } else {
                node.cache
                    .set(key, vec![0u8; self.bench.value_bytes], node.dispatched);
            }
        }
        if let Some(o) = self.obs.as_mut() {
            let lane = self.obs_lanes[shard];
            o.span(SpanKind::AdmissionWait, req.id, lane, req.arrived, now);
            o.span(SpanKind::SlotService, req.id, lane, now, now + service);
        }
        if let Some(wake) = node.completions.schedule(now + service, req) {
            queue.push(
                wake,
                Ev::Drain {
                    shard: shard as u32,
                },
            );
        }
    }

    /// One completion wake on a shard: drains every due completion,
    /// records sojourn times (cluster-wide and per-shard), folds the
    /// batch into the pool and dispatches the pulled queue heads.
    fn drain(
        &mut self,
        now: Nanos,
        shard: usize,
        queue: &mut EventQueue<Ev>,
        st: &mut ClusterState<'_>,
    ) {
        let mut due = std::mem::take(&mut self.drain_buf);
        if let Some(wake) = self.shards[shard].completions.wake(now, &mut due) {
            queue.push(
                wake,
                Ev::Drain {
                    shard: shard as u32,
                },
            );
        }
        for &(at, req) in &due {
            debug_assert_eq!(at, now, "completions drain exactly at their tick");
            let sojourn_us = (now - req.arrived).as_micros_f64();
            self.shards[shard].latencies_us.push(sojourn_us);
            if let Some(o) = self.obs.as_mut() {
                o.count_completion(self.obs_lanes[shard], now);
            }
            if self.setting.is_plain() {
                self.finish_request(now, Some((req.arrived, ReqClass::Read)));
            } else {
                self.resolve_sub(now, req.id, true);
            }
        }
        let mut dispatched = std::mem::take(&mut self.dispatch_buf);
        self.shards[shard]
            .pool
            .finish_batch(due.iter().map(|_| 0), &mut dispatched);
        due.clear();
        self.drain_buf = due;
        for (_, _, next) in dispatched.drain(..) {
            self.dispatch(now, shard, next, queue, st);
        }
        self.dispatch_buf = dispatched;
    }

    fn probe(&mut self, now: Nanos, remaining: u32, queue: &mut EventQueue<Ev>) {
        let in_flight: usize = self.shards.iter().map(|s| s.pool.in_flight()).sum();
        self.in_flight_probe.record(in_flight as f64);
        self.peak_in_flight = self.peak_in_flight.max(in_flight);
        if remaining > 1 {
            queue.push(
                now + self.probe_period,
                Ev::Probe {
                    remaining: remaining - 1,
                },
            );
        }
    }

    fn into_point(
        self,
        setting: &ClusterSetting,
        offered_per_sec: f64,
        queue: &EventQueue<Ev>,
    ) -> ClusterPoint {
        let label = setting.label();
        let issued = self.next_arrival;
        assert_eq!(
            issued,
            self.completed + self.dropped,
            "{label}: issued = completed + dropped"
        );
        assert_eq!(
            issued,
            self.issued_by_phase.iter().sum::<u64>(),
            "{label}: issued = sum of issued_by_phase"
        );
        let phase_rate = |phase: usize| {
            if self.issued_by_phase[phase] == 0 {
                0.0
            } else {
                self.dropped_by_phase[phase] as f64 / self.issued_by_phase[phase] as f64
            }
        };
        let pre_fail_drop_rate = phase_rate(0);
        let fail_window_drop_rate = phase_rate(1);
        let post_recover_drop_rate = phase_rate(2);
        let scatter_p99_us = Cdf::from_samples(self.scatter_latencies_us.clone())
            .map(|c| c.percentile(99.0))
            .unwrap_or(0.0);
        let cdf = Cdf::from_samples(self.latencies_us)
            .expect("a sweep point always completes at least one request");
        let duration = queue.frontier().as_secs_f64().max(f64::MIN_POSITIVE);
        // The hottest shard by total arrivals anchors the tail story;
        // the steady-phase maximum anchors the placement-quality story.
        let hot = self
            .shards
            .iter()
            .enumerate()
            .max_by_key(|(i, s)| (s.arrivals, std::cmp::Reverse(*i)))
            .map(|(i, _)| i)
            .unwrap_or(0);
        let hot_p99_us = Cdf::from_samples(self.shards[hot].latencies_us.clone())
            .map(|c| c.percentile(99.0))
            .unwrap_or(0.0);
        let steady_total: u64 = self.shards.iter().map(|s| s.steady_arrivals).sum();
        let steady_max = self
            .shards
            .iter()
            .map(|s| s.steady_arrivals)
            .max()
            .unwrap_or(0);
        let steady_mean = steady_total as f64 / self.shards.len() as f64;
        let stats =
            self.shards
                .iter()
                .map(|s| s.cache.stats())
                .fold(ShardStats::default(), |acc, s| ShardStats {
                    len: acc.len + s.len,
                    bytes: acc.bytes + s.bytes,
                    evictions: acc.evictions + s.evictions,
                });
        ClusterPoint {
            label,
            shards: setting.shards,
            zipf_theta: setting.zipf_theta,
            offered_per_sec,
            achieved_per_sec: self.completed as f64 / duration,
            p50_us: cdf.percentile(50.0),
            p95_us: cdf.percentile(95.0),
            p99_us: cdf.percentile(99.0),
            mean_us: cdf.mean(),
            hot_p99_us,
            hot_share: self.shards[hot].arrivals as f64 / issued.max(1) as f64,
            imbalance: if steady_mean > 0.0 {
                steady_max as f64 / steady_mean
            } else {
                1.0
            },
            drop_fraction: self.dropped as f64 / issued.max(1) as f64,
            completed: self.completed,
            dropped: self.dropped,
            peak_in_flight: self.peak_in_flight,
            mean_in_flight: self.in_flight_probe.mean(),
            store_entries: stats.len as u64,
            store_bytes: stats.bytes as u64,
            store_evictions: stats.evictions,
            rebalanced: setting.route == RoutePolicy::Rebalance,
            events: queue.counters().pops,
            replicas: setting.replicas,
            write_quorum: setting.write_quorum,
            fanout: setting.fanout,
            scatter_p99_us,
            failover_handoffs: self.failover_handoffs,
            failed_shard: self.failed_shard.map_or(-1, |s| s as i64),
            fail_at_us: if self.fail_at == NEVER {
                -1.0
            } else {
                self.fail_at.as_micros_f64()
            },
            recover_at_us: if self.recover_at == NEVER {
                -1.0
            } else {
                self.recover_at.as_micros_f64()
            },
            pre_fail_drop_rate,
            fail_window_drop_rate,
            post_recover_drop_rate,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use platforms::PlatformId;

    fn tiny(backend: LoadBackend) -> ClusterBenchmark {
        ClusterBenchmark {
            requests_per_point: 800,
            runs: 1,
            ..ClusterBenchmark::quick(backend)
        }
    }

    #[test]
    fn percentiles_are_ordered_and_trials_deterministic_per_seed() {
        let bench = tiny(LoadBackend::Memcached);
        let platform = PlatformId::Docker.build();
        let a = bench
            .run_trial(&platform, &mut SimRng::seed_from(71))
            .unwrap();
        assert_eq!(a.len(), bench.sweep.len());
        for p in &a {
            assert!(
                p.p50_us <= p.p95_us && p.p95_us <= p.p99_us,
                "percentiles out of order at {}: {p:?}",
                p.label
            );
            assert!(p.p50_us > 0.0);
            assert!(p.completed > 0);
            assert_eq!(
                p.completed + p.dropped,
                bench.requests_per_point as u64,
                "{}",
                p.label
            );
            assert!(p.imbalance >= 1.0 - 1e-9, "{}: {p:?}", p.label);
            assert!((0.0..=1.0).contains(&p.hot_share));
        }
        let b = bench
            .run_trial(&platform, &mut SimRng::seed_from(71))
            .unwrap();
        assert_eq!(a, b);
        let c = bench
            .run_trial(&platform, &mut SimRng::seed_from(72))
            .unwrap();
        assert_ne!(a, c);
    }

    #[test]
    fn tracing_is_observation_only_and_attaches_core_counters() {
        use simcore::obs::ObsConfig;
        // The recorder consumes no draws, so the traced point equals the
        // untraced one.
        let platform = PlatformId::Qemu.build();
        let setting = ClusterSetting::rebalance(16);
        let bench = ClusterBenchmark {
            sweep: vec![setting],
            ..tiny(LoadBackend::Memcached)
        };
        let plain = bench
            .run_trial(&platform, &mut SimRng::seed_from(73))
            .unwrap();
        let recorder = Recorder::try_new(ObsConfig::new(7, 0.25)).unwrap();
        let (point, obs) = bench
            .run_setting_traced(&platform, &setting, &mut SimRng::seed_from(73), recorder)
            .unwrap();
        assert_eq!(plain[0], point, "tracing perturbed the point");
        assert!(obs.spans_accepted() > 0);
        let trace = obs.chrome_trace_json("cluster");
        let timeline = obs.timeline_json("cluster", 73);
        assert!(trace.contains("\"route\""), "router instants missing");
        assert!(
            trace.contains("\"hand-off\""),
            "resharded hot keys must record hand-offs"
        );
        assert!(timeline.contains("\"shard0\"") && timeline.contains("\"shard15\""));
        let (_, core) = timeline
            .split_once("\"core\": {")
            .expect("cluster timelines carry the event-core counter block");
        let counter = |key: &str| -> u64 {
            let (_, rest) = core.split_once(&format!("\"{key}\": ")).unwrap();
            let digits: String = rest.chars().take_while(char::is_ascii_digit).collect();
            digits.parse().unwrap()
        };
        let (pushes, pops) = (counter("pushes"), counter("pops"));
        assert!(pops > 0 && pops <= pushes, "{pops} pops of {pushes} pushes");
    }

    #[test]
    fn hot_shard_share_grows_with_zipf_skew() {
        let platform = PlatformId::Native.build();
        let mut last = 0.0f64;
        let mut shares = Vec::new();
        for theta in [0.0, 0.5, 0.9, 0.99] {
            let bench = ClusterBenchmark {
                sweep: vec![ClusterSetting::hashed(16, theta)],
                ..tiny(LoadBackend::Memcached)
            };
            let p = &bench
                .run_trial(&platform, &mut SimRng::seed_from(74))
                .unwrap()[0];
            shares.push(p.hot_share);
            assert!(
                p.hot_share >= last - 0.02,
                "hot share must not shrink with skew: {shares:?}"
            );
            last = last.max(p.hot_share);
        }
        assert!(
            shares[3] > shares[0] * 1.5,
            "strong skew must visibly concentrate load: {shares:?}"
        );
    }

    #[test]
    fn rebalancing_restores_the_steady_phase_balance() {
        let platform = PlatformId::Native.build();
        let bench = ClusterBenchmark {
            sweep: vec![ClusterSetting::pinned(16), ClusterSetting::rebalance(16)],
            ..tiny(LoadBackend::Memcached)
        };
        let points = bench
            .run_trial(&platform, &mut SimRng::seed_from(75))
            .unwrap();
        let (pinned, rebal) = (&points[0], &points[1]);
        assert!(rebal.rebalanced && !pinned.rebalanced);
        assert!(
            rebal.imbalance < pinned.imbalance * 0.75,
            "resharding must shrink the steady imbalance: {} vs {}",
            rebal.imbalance,
            pinned.imbalance
        );
    }

    #[test]
    fn sampled_store_operations_populate_the_shard_caches() {
        let platform = PlatformId::Native.build();
        let bench = ClusterBenchmark {
            sweep: vec![ClusterSetting::hashed(4, BASELINE_THETA)],
            cache_bytes_per_shard: 2_048,
            ..tiny(LoadBackend::Memcached)
        };
        let p = &bench
            .run_trial(&platform, &mut SimRng::seed_from(76))
            .unwrap()[0];
        assert!(p.store_entries > 0, "sampled sets must land in the caches");
        assert!(p.store_bytes > 0);
        assert!(
            p.store_evictions > 0,
            "a tiny per-shard budget must evict: {p:?}"
        );
    }

    #[test]
    fn degenerate_configurations_fail_loudly() {
        let platform = PlatformId::Native.build();
        let mut rng = SimRng::seed_from(77);
        let cases = [
            ClusterBenchmark {
                hot_fraction: 1.5,
                ..tiny(LoadBackend::Memcached)
            },
            ClusterBenchmark {
                rebalance_after: f64::NAN,
                ..tiny(LoadBackend::Memcached)
            },
            ClusterBenchmark {
                hot_keys: 0,
                ..tiny(LoadBackend::Memcached)
            },
            ClusterBenchmark {
                keys: 8,
                hot_keys: 16,
                ..tiny(LoadBackend::Memcached)
            },
            ClusterBenchmark {
                requests_per_point: 0,
                ..tiny(LoadBackend::Memcached)
            },
            ClusterBenchmark {
                sweep: vec![ClusterSetting::hashed(0, 0.5)],
                ..tiny(LoadBackend::Memcached)
            },
            ClusterBenchmark {
                sweep: vec![ClusterSetting::hashed(4, 1.0)],
                ..tiny(LoadBackend::Memcached)
            },
            ClusterBenchmark {
                servers_per_shard: 0,
                ..tiny(LoadBackend::Memcached)
            },
            ClusterBenchmark {
                scatter_fraction: -0.1,
                ..tiny(LoadBackend::Memcached)
            },
            ClusterBenchmark {
                write_fraction: 1.5,
                ..tiny(LoadBackend::Memcached)
            },
            ClusterBenchmark {
                sweep: vec![ClusterSetting::replicated(4, 8, 1)],
                ..tiny(LoadBackend::Memcached)
            },
            ClusterBenchmark {
                sweep: vec![ClusterSetting::replicated(4, 2, 3)],
                ..tiny(LoadBackend::Memcached)
            },
            ClusterBenchmark {
                sweep: vec![ClusterSetting::scatter(4, 2, 8)],
                ..tiny(LoadBackend::Memcached)
            },
            ClusterBenchmark {
                sweep: vec![ClusterSetting::failing(1, 1, true)],
                ..tiny(LoadBackend::Memcached)
            },
            ClusterBenchmark {
                sweep: vec![ClusterSetting {
                    route: RoutePolicy::Pinned,
                    ..ClusterSetting::replicated(4, 2, 1)
                }],
                ..tiny(LoadBackend::Memcached)
            },
            ClusterBenchmark {
                sweep: vec![ClusterSetting {
                    replicas: 2,
                    ..ClusterSetting::hashed(4, BASELINE_THETA)
                }],
                ..tiny(LoadBackend::Memcached)
            },
        ];
        let bad_loads = [f64::NAN, f64::INFINITY, -1.0].map(|offered_fraction| ClusterBenchmark {
            offered_fraction,
            ..tiny(LoadBackend::Memcached)
        });
        for bench in cases.into_iter().chain(bad_loads) {
            assert!(
                bench.run_trial(&platform, &mut rng).is_err(),
                "must reject {bench:?}"
            );
        }
    }

    #[test]
    fn a_quick_trial_draws_each_arrival_gap_and_service_time_once() {
        // The regression guard of the draw tables: every point reads the
        // trial's gaps and service times by index, so the gap table holds
        // exactly one point's arrivals and, on the plain sweep, the
        // service table exactly the busiest point's dispatches (a plain
        // point dispatches each admitted request once, and every one
        // completes).
        let platform = PlatformId::Docker.build();
        for backend in [LoadBackend::Memcached, LoadBackend::Mysql] {
            let bench = ClusterBenchmark::quick(backend);
            let (points, draws) = bench
                .sweep_trial(&platform, &mut SimRng::seed_from(2021))
                .unwrap();
            assert_eq!(draws.gaps.len(), bench.requests_per_point);
            let busiest = points.iter().map(|p| p.completed).max().unwrap();
            assert_eq!(draws.service.len() as u64, busiest);
            let failover = ClusterBenchmark::failover_quick(backend);
            let (_, draws) = failover
                .sweep_trial(&platform, &mut SimRng::seed_from(2021))
                .unwrap();
            assert_eq!(draws.gaps.len(), failover.requests_per_point);
        }
    }

    #[test]
    fn quorum_at_r1_replays_plain_routing_bit_for_bit() {
        // R = W = K = 1 makes every class touch exactly the key's FNV
        // home — the PR 7 single-shard routing. With the scatter class
        // switched off (so no scatter percentile accrues), the quorum
        // point must equal the plain point in every field but the label,
        // across seeds and platforms.
        for (seed, platform) in [
            (101, PlatformId::Native),
            (102, PlatformId::Docker),
            (103, PlatformId::Qemu),
            (104, PlatformId::Firecracker),
            (105, PlatformId::Native),
        ] {
            let platform = platform.build();
            let plain = ClusterBenchmark {
                scatter_fraction: 0.0,
                sweep: vec![ClusterSetting::hashed(16, BASELINE_THETA)],
                ..tiny(LoadBackend::Memcached)
            }
            .run_trial(&platform, &mut SimRng::seed_from(seed))
            .unwrap();
            let quorum = ClusterBenchmark {
                scatter_fraction: 0.0,
                sweep: vec![ClusterSetting::replicated(16, 1, 1)],
                ..tiny(LoadBackend::Memcached)
            }
            .run_trial(&platform, &mut SimRng::seed_from(seed))
            .unwrap();
            let mut relabelled = quorum[0].clone();
            assert_eq!(relabelled.label, "r1");
            relabelled.label = plain[0].label.clone();
            assert_eq!(
                plain[0], relabelled,
                "seed {seed}: R=1 quorum diverged from plain routing"
            );
        }
    }

    #[test]
    fn failover_sweep_conserves_requests() {
        let platform = PlatformId::Qemu.build();
        let bench = ClusterBenchmark {
            sweep: ClusterSetting::failover_sweep(),
            ..tiny(LoadBackend::Memcached)
        };
        let points = bench
            .run_trial(&platform, &mut SimRng::seed_from(78))
            .unwrap();
        for p in &points {
            // Conservation across the failure boundary: every issued
            // request resolves exactly once, as a completion or a drop.
            assert_eq!(
                p.completed + p.dropped,
                bench.requests_per_point as u64,
                "{}",
                p.label
            );
            assert!(p.p50_us <= p.p95_us && p.p95_us <= p.p99_us, "{}", p.label);
        }
    }

    #[test]
    fn kill_then_recover_spikes_drops_then_subsides() {
        let platform = PlatformId::Native.build();
        let bench = ClusterBenchmark {
            requests_per_point: 6_000,
            runs: 1,
            sweep: vec![
                ClusterSetting::failing(16, 2, false),
                ClusterSetting::failing(16, 2, true),
            ],
            ..ClusterBenchmark::quick(LoadBackend::Memcached)
        };
        let points = bench
            .run_trial(&platform, &mut SimRng::seed_from(79))
            .unwrap();
        let (fail, failrec) = (&points[0], &points[1]);
        for p in [fail, failrec] {
            assert!((0..16).contains(&p.failed_shard), "{}: {p:?}", p.label);
            assert!(p.fail_at_us > 0.0, "{}: {p:?}", p.label);
            assert!(
                p.fail_window_drop_rate > p.pre_fail_drop_rate,
                "{}: the kill must spike the drop rate: {p:?}",
                p.label
            );
            assert!(
                p.failover_handoffs > 0,
                "{}: the ring walk must hand off around the dead shard",
                p.label
            );
        }
        assert_eq!(fail.recover_at_us, -1.0);
        assert!(failrec.recover_at_us > failrec.fail_at_us);
        assert!(
            failrec.post_recover_drop_rate <= failrec.pre_fail_drop_rate + 0.02,
            "the spike must subside after recovery: {failrec:?}"
        );
    }

    #[test]
    fn scatter_p99_grows_with_fanout_and_quorum_widens_the_tail() {
        let platform = PlatformId::Native.build();
        let bench = ClusterBenchmark {
            requests_per_point: 6_000,
            runs: 1,
            sweep: vec![
                ClusterSetting::replicated(16, 3, 1),
                ClusterSetting::scatter(16, 3, 4),
                ClusterSetting::scatter(16, 3, 16),
            ],
            ..ClusterBenchmark::quick(LoadBackend::Memcached)
        };
        let points = bench
            .run_trial(&platform, &mut SimRng::seed_from(80))
            .unwrap();
        let p99s: Vec<f64> = points.iter().map(|p| p.scatter_p99_us).collect();
        assert!(p99s[0] > 0.0, "the K=1 baseline records scatter sojourns");
        assert!(
            p99s[0] <= p99s[1] && p99s[1] <= p99s[2],
            "scatter p99 must be monotone in the fan-out: {p99s:?}"
        );
    }

    #[test]
    fn traced_failover_point_matches_untraced_and_emits_handoffs() {
        use simcore::obs::ObsConfig;
        let platform = PlatformId::Qemu.build();
        let setting = ClusterSetting::failing(16, 2, true);
        let bench = ClusterBenchmark {
            sweep: vec![setting],
            ..tiny(LoadBackend::Memcached)
        };
        let untraced = bench
            .run_trial(&platform, &mut SimRng::seed_from(81))
            .unwrap();
        let recorder = Recorder::try_new(ObsConfig::new(9, 0.25)).unwrap();
        let (point, obs) = bench
            .run_setting_traced(&platform, &setting, &mut SimRng::seed_from(81), recorder)
            .unwrap();
        assert_eq!(untraced[0], point, "tracing perturbed the failover point");
        let trace = obs.chrome_trace_json("cluster_failover");
        assert!(trace.contains("\"route\""), "router instants missing");
        assert!(
            trace.contains("\"hand-off\""),
            "failover re-routes must record hand-off instants"
        );
    }
}
