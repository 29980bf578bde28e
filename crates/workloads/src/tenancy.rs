//! Multi-tenant co-location (beyond the paper).
//!
//! The paper asks how well isolation platforms insulate a workload from
//! its environment, and [`crate::loadgen`] measures one population's
//! behaviour under offered load — but neither observes isolation *between*
//! workloads sharing a platform. This subsystem co-locates several client
//! populations on one platform model: each [`TenantSpec`] names a backend,
//! an arrival process (Poisson, or a bursty MMPP-style on–off source built
//! from [`simcore::dist`] exponentials), a connection population, an
//! offered-load fraction, a DRR weight and a p99 SLO target. Every tenant
//! gets its own **bounded admission queue** in front of the shared derated
//! service-slot pool, scheduled by the weighted deficit-round-robin core
//! in [`crate::slots`] (or by unweighted global-FIFO sharing, the baseline
//! the weighted scheduler is judged against).
//!
//! The headline experiment is [`TenancyBenchmark`]: a latency-sensitive
//! *victim* tenant at fixed load co-located with a bursty *aggressor*
//! swept from light load into overload. Per sweep point it reports each
//! tenant's p50/p95/p99 sojourn time, achieved throughput, drop rate and
//! SLO-violation fraction, the victim's p99 under unweighted FIFO sharing,
//! and the **isolation index** — the victim's p99 inflation relative to a
//! solo run of the same victim arrival/service streams on the same
//! platform.
//!
//! Within a trial the per-tenant arrival and service streams are common
//! random numbers across sweep points and scheduler policies: each
//! tenant's unit-rate exponentials and service times are drawn once per
//! trial and read by index in every window. The aggressor's arrival
//! pattern is a fixed unit-rate sample path scaled by its offered rate
//! (on/off phase durations scale with it, preserving the burst shape), so
//! victim-latency curves are monotone in aggressor load by coupling and
//! the DRR-vs-FIFO comparison is apples to apples. All streams derive
//! from the cell's random stream, keeping figures bit-identical for any
//! executor worker count. Each tenant's sampled backend is populated once
//! per trial and carried through the solo window and every co-located
//! window (see [`crate::slots`]).
//!
//! Tenants are data for the one open-loop engine in [`crate::pipeline`]:
//! a window runs one client class per tenant, in tenant order, behind the
//! empty middleware chain. Each class carries its tenant's arrival
//! process on an f64-seconds clock, service profile and stream,
//! connections, trace lane and backend, and the window's policy
//! schedules the slot pool they share. A tenant offered zero load issues
//! no requests.

use platforms::Platform;
use simcore::error::SimError;
use simcore::obs::Recorder;
use simcore::stats::Cdf;
use simcore::{Nanos, SimRng};

use crate::pipeline::{ArrivalSource, ClientClass, PipelineSim, PointChain};
use crate::slots::{
    backend_profile, BackendState, ClassConfig, LoadBackend, ServiceProfile, ServiceTimes,
    SlotPolicy, UnitGaps,
};

/// The arrival process of one tenant.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ArrivalProcess {
    /// Memoryless arrivals at the tenant's offered rate.
    Poisson,
    /// A two-state MMPP-style on–off source: exponentially distributed ON
    /// phases (arriving at `rate / duty_cycle`, so the long-run rate still
    /// matches the offered rate) alternate with silent OFF phases. Phase
    /// durations are parameterized in **arrivals per burst**, so the whole
    /// sample path scales with the offered rate and sweeping the rate
    /// compresses a fixed burst pattern instead of reshaping it.
    OnOff {
        /// Long-run fraction of time the source is ON, in `(0, 1)`.
        duty_cycle: f64,
        /// Mean arrivals per ON phase (burst length), `> 0`.
        burst_arrivals: f64,
    },
}

impl ArrivalProcess {
    /// Validates the process parameters.
    fn validate(&self, tenant: &str) -> Result<(), SimError> {
        if let ArrivalProcess::OnOff {
            duty_cycle,
            burst_arrivals,
        } = self
        {
            if !(*duty_cycle > 0.0 && *duty_cycle < 1.0) {
                return Err(SimError::InvalidConfig(format!(
                    "tenant {tenant}: on-off duty cycle {duty_cycle} must lie in (0, 1)"
                )));
            }
            if !(*burst_arrivals > 0.0 && burst_arrivals.is_finite()) {
                return Err(SimError::InvalidConfig(format!(
                    "tenant {tenant}: burst length {burst_arrivals} must be positive and finite"
                )));
            }
        }
        Ok(())
    }
}

/// Stateful interarrival-gap sampler for one tenant in one window.
///
/// Every duration it samples is a unit-rate exponential of the tenant's
/// trial table divided by a rate proportional to `rate`, and it reads the
/// table in order from the start, so two generators over the same table
/// at different rates produce the **same sample path on a scaled clock**
/// — the common-random-numbers property the sweep's monotonicity relies
/// on. The `k`-th exponential it reads is the `k`-th `exponential(1.0)`
/// draw of the tenant's arrival stream, so the path is the one a private
/// clone of the stream gives.
#[derive(Debug)]
pub(crate) struct ArrivalGen<'a> {
    process: ArrivalProcess,
    rate: f64,
    draws: &'a mut UnitGaps,
    /// Index of the next exponential to read.
    next: usize,
    /// Seconds left in the current ON phase (on–off only).
    on_remaining: f64,
}

impl<'a> ArrivalGen<'a> {
    fn new(process: ArrivalProcess, rate: f64, draws: &'a mut UnitGaps) -> Self {
        ArrivalGen {
            process,
            rate: rate.max(f64::MIN_POSITIVE),
            draws,
            next: 0,
            on_remaining: 0.0,
        }
    }

    /// The next unit-rate exponential of the tenant's table.
    fn unit(&mut self) -> f64 {
        let draw = self.draws.get(self.next);
        self.next += 1;
        draw
    }

    /// The next interarrival gap in seconds; infinite for an on–off
    /// source too slow for finite phases (zero offered load), which never
    /// arrives.
    ///
    /// A phase length of mean `m` is `unit / (1.0 / m)`: the float ops of
    /// `exponential(1.0 / m)`, whose draw is `-ln u / (1.0 / m)` where a
    /// unit draw is `-ln u / 1.0`, the same value.
    pub(crate) fn next_gap(&mut self) -> f64 {
        match self.process {
            ArrivalProcess::Poisson => self.unit() / self.rate,
            ArrivalProcess::OnOff {
                duty_cycle,
                burst_arrivals,
            } => {
                let on_rate = self.rate / duty_cycle;
                let mean_on = burst_arrivals / on_rate;
                let mean_off = mean_on * (1.0 - duty_cycle) / duty_cycle;
                // Non-finite phases make both phase draws 0, so the loop
                // below would never advance.
                let finite = |mean: f64| mean.is_finite() && mean > 0.0;
                if !(finite(mean_on) && finite(mean_off)) {
                    return f64::INFINITY;
                }
                let mut gap = 0.0;
                loop {
                    if self.on_remaining <= 0.0 {
                        // Sit out an OFF phase, then start a fresh burst.
                        gap += self.unit() / (1.0 / mean_off);
                        self.on_remaining = self.unit() / (1.0 / mean_on);
                    }
                    let step = self.unit() / on_rate;
                    if step <= self.on_remaining {
                        self.on_remaining -= step;
                        return gap + step;
                    }
                    gap += self.on_remaining;
                    self.on_remaining = 0.0;
                }
            }
        }
    }
}

/// One co-located client population.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantSpec {
    /// Tenant name — figure label and random-stream derivation component.
    pub name: String,
    /// Which simulated backend this tenant drives.
    pub backend: LoadBackend,
    /// The tenant's arrival process.
    pub arrivals: ArrivalProcess,
    /// Connection population the arrivals are spread over.
    pub clients: usize,
    /// Offered load as a fraction of the full pool's saturation capacity
    /// for this tenant's backend (1.0 = the whole pool, were it alone).
    pub offered_fraction: f64,
    /// Deficit-round-robin weight (relative service share under
    /// [`SlotPolicy::WeightedDrr`]).
    pub weight: u64,
    /// Bounded per-tenant admission queue depth.
    pub queue_capacity: usize,
    /// p99 SLO target as a multiple of the tenant's mean (uncontended)
    /// service time on the platform under test; completions slower than
    /// this count toward the SLO-violation fraction.
    pub slo_service_multiple: f64,
}

impl TenantSpec {
    fn validate(&self) -> Result<(), SimError> {
        self.arrivals.validate(&self.name)?;
        if self.offered_fraction < 0.0 || !self.offered_fraction.is_finite() {
            return Err(SimError::InvalidConfig(format!(
                "tenant {}: offered fraction {} must be finite and non-negative",
                self.name, self.offered_fraction
            )));
        }
        Ok(())
    }
}

/// One tenant's measured outcome at one sweep point.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantPoint {
    /// Offered load as a fraction of the pool's capacity for this backend.
    pub offered_fraction: f64,
    /// Offered load in requests per second.
    pub offered_per_sec: f64,
    /// Achieved (completed) throughput in requests per second.
    pub achieved_per_sec: f64,
    /// Median sojourn time (queueing + service) in microseconds.
    pub p50_us: f64,
    /// 95th-percentile sojourn time in microseconds.
    pub p95_us: f64,
    /// 99th-percentile sojourn time in microseconds.
    pub p99_us: f64,
    /// Mean sojourn time in microseconds.
    pub mean_us: f64,
    /// Requests issued (arrivals) in the window.
    pub issued: u64,
    /// Requests completed.
    pub completed: u64,
    /// Requests dropped at the tenant's bounded admission queue.
    pub dropped: u64,
    /// `dropped / issued` (0 when nothing was issued).
    pub drop_rate: f64,
    /// Fraction of completed requests slower than the tenant's p99 SLO
    /// target.
    pub slo_violation: f64,
    /// The absolute SLO threshold this platform/tenant pair resolved to.
    pub slo_us: f64,
    /// Live entries (kv) or rows (sql) in the tenant's sampled backend
    /// store at the end of the window — shard-level parity with
    /// [`crate::ClusterPoint::store_entries`]. The trial populates each
    /// tenant's backend once and reuses it in every window; the sampled
    /// operations only overwrite loaded keys or update loaded rows, so
    /// every window reads the loaded size (4,096 kv records, 2,000 sql
    /// rows).
    pub store_entries: u64,
    /// Store evictions (kv) or row deletes (sql) since the trial populated
    /// the backend: zero, as the kv store stays far below its memory
    /// limit and no sampled operation deletes a row.
    pub store_evictions: u64,
    /// Row-lock contention events in the tenant's backend since the trial
    /// populated it (sql only): zero, as its transactions run one at a
    /// time.
    pub store_lock_waits: u64,
}

/// One point of the victim-vs-aggressor sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct ColocationPoint {
    /// The aggressor's offered fraction at this point.
    pub aggressor_fraction: f64,
    /// The victim tenant under the weighted (DRR) scheduler.
    pub victim: TenantPoint,
    /// The aggressor tenant under the weighted (DRR) scheduler.
    pub aggressor: TenantPoint,
    /// The victim's p99 under unweighted global-FIFO sharing of the same
    /// arrival/service streams.
    pub victim_fifo_p99_us: f64,
    /// The victim's p99 running **alone** on the platform (same streams).
    pub victim_solo_p99_us: f64,
    /// Isolation index: victim p99 (weighted, co-located) / victim p99
    /// (solo). 1.0 = perfect isolation.
    pub isolation_index: f64,
}

/// The victim-vs-aggressor co-location experiment on one backend.
#[derive(Debug, Clone)]
pub struct TenancyBenchmark {
    /// The latency-sensitive tenant held at fixed load.
    pub victim: TenantSpec,
    /// The interfering tenant whose offered fraction is swept.
    pub aggressor: TenantSpec,
    /// The aggressor's offered fractions, from light load into overload.
    pub aggressor_fractions: Vec<f64>,
    /// Width of the shared service-slot pool.
    pub servers: usize,
    /// Victim arrivals per sweep point; sets the measurement window
    /// (`victim_requests / victim rate`), which all tenants share.
    pub victim_requests: usize,
    /// Measurement repetitions (trials) per sweep point.
    pub runs: usize,
    /// Execute one real backend operation per this many admitted requests,
    /// against the admitting tenant's backend (populated once per trial).
    pub op_sample_every: u64,
    /// Log-normal sigma of per-request service times.
    pub service_sigma: f64,
}

impl TenancyBenchmark {
    /// The full-scale victim/aggressor configuration on one backend: a
    /// Poisson victim at 35% of pool capacity with a 3x DRR weight, against
    /// a bursty on–off aggressor (30% duty cycle, ~64-request bursts).
    pub fn new(backend: LoadBackend) -> Self {
        TenancyBenchmark {
            victim: TenantSpec {
                name: "victim".to_string(),
                backend,
                arrivals: ArrivalProcess::Poisson,
                clients: 512,
                offered_fraction: 0.35,
                weight: 3,
                queue_capacity: 1_024,
                slo_service_multiple: 8.0,
            },
            aggressor: TenantSpec {
                name: "aggressor".to_string(),
                backend,
                arrivals: ArrivalProcess::OnOff {
                    duty_cycle: 0.3,
                    burst_arrivals: 64.0,
                },
                clients: 2_048,
                offered_fraction: 1.0, // swept per point
                weight: 1,
                queue_capacity: 1_024,
                slo_service_multiple: 16.0,
            },
            aggressor_fractions: vec![0.2, 0.4, 0.6, 0.8, 1.0, 1.25],
            servers: 16,
            victim_requests: 8_000,
            runs: 3,
            op_sample_every: 8,
            service_sigma: 0.25,
        }
    }

    /// A scaled-down configuration for unit tests and quick runs.
    pub fn quick(backend: LoadBackend) -> Self {
        TenancyBenchmark {
            victim_requests: 1_200,
            runs: 2,
            ..TenancyBenchmark::new(backend)
        }
    }

    /// The derated service profile of one tenant on `platform` — the same
    /// per-request cost models as the closed-loop paths, with this
    /// benchmark's per-request service-time sigma.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] for a degenerate profile (empty
    /// pool or zero/non-finite derated service time) — the tenancy
    /// equivalent of the [`crate::loadgen`] capacity guard.
    pub fn tenant_profile(
        &self,
        platform: &Platform,
        tenant: &TenantSpec,
    ) -> Result<ServiceProfile, SimError> {
        Ok(backend_profile(tenant.backend, platform, self.servers)?.with_sigma(self.service_sigma))
    }

    /// Runs one co-located window over an arbitrary tenant set under
    /// `policy` and returns one [`TenantPoint`] per tenant, in input
    /// order. The first tenant anchors the measurement window
    /// ([`TenancyBenchmark::victim_requests`] of its arrivals). Each
    /// tenant gets a freshly populated backend.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] on an empty tenant set, invalid
    /// tenant parameters, or a degenerate service profile.
    pub fn run_colocated(
        &self,
        platform: &Platform,
        tenants: &[TenantSpec],
        policy: SlotPolicy,
        rng: &mut SimRng,
    ) -> Result<Vec<TenantPoint>, SimError> {
        let mut draws = self.draws(platform, tenants, rng)?;
        self.run_once(
            tenants,
            policy,
            &mut draws,
            rng.split("misc"),
            &mut build_backends(tenants),
            None,
        )
        .map(|(points, _)| points)
    }

    /// [`TenancyBenchmark::run_colocated`] with a trace [`Recorder`]
    /// attached: each tenant becomes a lane carrying its admission-wait
    /// and slot-service spans and its windowed arrival/drop/queue-depth
    /// series, and the run's event-core counter profile is attached.
    ///
    /// Tracing is observation only — the recorder consumes no random
    /// draws, so the returned points are bit-identical to the untraced
    /// [`TenancyBenchmark::run_colocated`] of the same streams.
    ///
    /// # Errors
    ///
    /// Same conditions as [`TenancyBenchmark::run_colocated`].
    pub fn run_colocated_traced(
        &self,
        platform: &Platform,
        tenants: &[TenantSpec],
        policy: SlotPolicy,
        rng: &mut SimRng,
        recorder: Recorder,
    ) -> Result<(Vec<TenantPoint>, Recorder), SimError> {
        let mut draws = self.draws(platform, tenants, rng)?;
        let (points, obs) = self.run_once(
            tenants,
            policy,
            &mut draws,
            rng.split("misc"),
            &mut build_backends(tenants),
            Some(recorder),
        )?;
        Ok((points, obs.expect("the recorder threads through the run")))
    }

    /// Runs the whole victim-vs-aggressor sweep once: a solo victim
    /// baseline, then one weighted (DRR) and one unweighted (FIFO) run per
    /// aggressor fraction, all reading one victim and one aggressor draw
    /// table made once per trial, against one victim and one aggressor
    /// backend populated up front.
    ///
    /// This is the unit the parallel executor shards on.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] on invalid tenant parameters or
    /// a degenerate service profile.
    pub fn run_trial(
        &self,
        platform: &Platform,
        rng: &mut SimRng,
    ) -> Result<Vec<ColocationPoint>, SimError> {
        let mut draws = self.draws(platform, [&self.victim, &self.aggressor], rng)?;
        let mut misc = rng.split("misc");
        let mut backends = [
            BackendState::build(self.victim.backend),
            BackendState::build(self.aggressor.backend),
        ];

        // Solo baseline: the victim's own draws, nobody else on the pool.
        let (solo, _) = self.run_once(
            std::slice::from_ref(&self.victim),
            SlotPolicy::WeightedDrr,
            &mut draws[..1],
            misc.split("solo"),
            &mut backends[..1],
            None,
        )?;
        let solo_p99 = solo[0].p99_us;

        let mut points = Vec::with_capacity(self.aggressor_fractions.len());
        for &fraction in &self.aggressor_fractions {
            let mut aggressor = self.aggressor.clone();
            aggressor.offered_fraction = fraction;
            let tenants = [self.victim.clone(), aggressor];
            let (drr, _) = self.run_once(
                &tenants,
                SlotPolicy::WeightedDrr,
                &mut draws,
                misc.split("drr"),
                &mut backends,
                None,
            )?;
            let (fifo, _) = self.run_once(
                &tenants,
                SlotPolicy::FifoArrival,
                &mut draws,
                misc.split("fifo"),
                &mut backends,
                None,
            )?;
            let [victim, aggressor] = <[TenantPoint; 2]>::try_from(drr)
                .expect("a two-tenant run yields two tenant points");
            let isolation_index = if solo_p99 > 0.0 {
                victim.p99_us / solo_p99
            } else {
                1.0
            };
            points.push(ColocationPoint {
                aggressor_fraction: fraction,
                victim,
                aggressor,
                victim_fifo_p99_us: fifo[0].p99_us,
                victim_solo_p99_us: solo_p99,
                isolation_index,
            });
        }
        Ok(points)
    }

    /// Splits each tenant's draw tables off the cell stream, in tenant
    /// order, sampling its service times from its profile on `platform`.
    fn draws<'t>(
        &self,
        platform: &Platform,
        tenants: impl IntoIterator<Item = &'t TenantSpec>,
        rng: &mut SimRng,
    ) -> Result<Vec<TenantDraws>, SimError> {
        tenants
            .into_iter()
            .map(|t| {
                let profile = self.tenant_profile(platform, t)?;
                Ok(TenantDraws::derive(t, profile, rng))
            })
            .collect()
    }

    /// One simulated window: every tenant's arrival source drives the
    /// shared pool, reading the tenant's entry of `draws`, each tenant's
    /// sampled operations run against its own entry of `backends`, and
    /// the results are folded into per-tenant points.
    fn run_once(
        &self,
        tenants: &[TenantSpec],
        policy: SlotPolicy,
        draws: &mut [TenantDraws],
        misc_rng: SimRng,
        backends: &mut [BackendState],
        obs: Option<Recorder>,
    ) -> Result<(Vec<TenantPoint>, Option<Recorder>), SimError> {
        if tenants.is_empty() {
            return Err(SimError::InvalidConfig(
                "a co-located run needs at least one tenant".into(),
            ));
        }
        for tenant in tenants {
            tenant.validate()?;
        }
        debug_assert_eq!(draws.len(), tenants.len(), "one draw table per tenant");
        debug_assert_eq!(backends.len(), tenants.len(), "one backend per tenant");
        let profiles: Vec<ServiceProfile> = draws.iter().map(|d| *d.service.profile()).collect();

        // The first tenant anchors the window: however the aggressor rate
        // is swept, every run of a trial measures the same victim span.
        let anchor_rate = profiles[0].capacity_per_sec() * tenants[0].offered_fraction;
        if anchor_rate <= 0.0 {
            return Err(SimError::InvalidConfig(
                "the anchor tenant must offer a positive load".into(),
            ));
        }
        let window_secs = self.victim_requests.max(1) as f64 / anchor_rate;

        let classes = tenants
            .iter()
            .zip(&profiles)
            .zip(draws.iter_mut())
            .zip(backends.iter_mut())
            .map(|(((spec, profile), draws), backend)| {
                let rate = profile.capacity_per_sec() * spec.offered_fraction;
                let arrivals = ArrivalSource::Windowed {
                    gen: ArrivalGen::new(spec.arrivals, rate, &mut draws.gaps),
                    clock_secs: 0.0,
                    window_secs,
                };
                let slots = ClassConfig {
                    weight: spec.weight,
                    queue_capacity: spec.queue_capacity,
                    mean_cost: profile.service_time,
                };
                ClientClass::new(
                    &spec.name,
                    arrivals,
                    slots,
                    &mut draws.service,
                    spec.clients,
                    backend,
                )
            })
            .collect();
        let mut sim = PipelineSim::new(
            classes,
            self.servers,
            policy,
            PointChain::empty(),
            misc_rng,
            self.op_sample_every,
            (0, Nanos::ZERO),
            obs,
        )?;
        let end = sim.run();
        let obs = sim.obs.take();
        let points = sim
            .classes
            .into_iter()
            .zip(tenants)
            .zip(&profiles)
            .map(|((class, spec), profile)| TenantPoint::new(spec, profile, class, end))
            .collect();
        Ok((points, obs))
    }
}

/// One freshly populated sampled backend per tenant, in tenant order.
fn build_backends(tenants: &[TenantSpec]) -> Vec<BackendState> {
    tenants
        .iter()
        .map(|t| BackendState::build(t.backend))
        .collect()
}

/// One tenant's common random numbers in a trial, drawn once and read by
/// index in every window and under every scheduler policy: the unit-rate
/// exponentials of its arrival process and its per-dispatch service
/// times.
#[derive(Debug)]
struct TenantDraws {
    gaps: UnitGaps,
    service: ServiceTimes,
}

impl TenantDraws {
    /// Splits the tenant's arrival and service streams off the cell
    /// stream, in that order; its service times sample `profile`.
    fn derive(tenant: &TenantSpec, profile: ServiceProfile, rng: &mut SimRng) -> Self {
        TenantDraws {
            gaps: UnitGaps::new(rng.split(&format!("arrivals/{}", tenant.name)), 0),
            service: ServiceTimes::new(profile, rng.split(&format!("service/{}", tenant.name)), 0),
        }
    }
}

impl TenantPoint {
    /// Folds one tenant's class of a window that ended at `end`.
    fn new(
        spec: &TenantSpec,
        profile: &ServiceProfile,
        class: ClientClass<'_>,
        end: Nanos,
    ) -> Self {
        let duration = end.as_secs_f64().max(f64::MIN_POSITIVE);
        let slo_us = profile.service_time.as_micros_f64() * spec.slo_service_multiple;
        let issued = class.issued();
        assert_eq!(
            issued,
            class.completed + class.dropped,
            "{} at {}: issued = completed + dropped",
            spec.name,
            spec.offered_fraction
        );
        let store = class.backend.store_stats();
        let (p50, p95, p99, mean, violation) = match Cdf::from_samples(class.latencies_us) {
            Ok(cdf) => (
                cdf.percentile(50.0),
                cdf.percentile(95.0),
                cdf.percentile(99.0),
                cdf.mean(),
                1.0 - cdf.fraction_below(slo_us),
            ),
            Err(_) => (0.0, 0.0, 0.0, 0.0, 0.0),
        };
        TenantPoint {
            offered_fraction: spec.offered_fraction,
            offered_per_sec: profile.capacity_per_sec() * spec.offered_fraction,
            achieved_per_sec: class.completed as f64 / duration,
            p50_us: p50,
            p95_us: p95,
            p99_us: p99,
            mean_us: mean,
            issued,
            completed: class.completed,
            dropped: class.dropped,
            drop_rate: if issued > 0 {
                class.dropped as f64 / issued as f64
            } else {
                0.0
            },
            slo_violation: violation,
            slo_us,
            store_entries: store.entries,
            store_evictions: store.evictions,
            store_lock_waits: store.lock_waits,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use platforms::PlatformId;

    fn tiny(backend: LoadBackend) -> TenancyBenchmark {
        let mut bench = TenancyBenchmark {
            victim_requests: 400,
            runs: 1,
            aggressor_fractions: vec![0.3, 1.2],
            ..TenancyBenchmark::quick(backend)
        };
        // The short window builds less backlog than the full-scale runs;
        // a shallower aggressor queue keeps overload observable.
        bench.aggressor.queue_capacity = 256;
        bench
    }

    #[test]
    fn trials_are_deterministic_per_seed() {
        let bench = tiny(LoadBackend::Memcached);
        let platform = PlatformId::Docker.build();
        let a = bench
            .run_trial(&platform, &mut SimRng::seed_from(31))
            .unwrap();
        let b = bench
            .run_trial(&platform, &mut SimRng::seed_from(31))
            .unwrap();
        assert_eq!(a, b);
        let c = bench
            .run_trial(&platform, &mut SimRng::seed_from(32))
            .unwrap();
        assert_ne!(a, c);
    }

    #[test]
    fn per_tenant_accounting_balances_and_percentiles_are_ordered() {
        let bench = tiny(LoadBackend::Memcached);
        let platform = PlatformId::Native.build();
        let points = bench
            .run_trial(&platform, &mut SimRng::seed_from(33))
            .unwrap();
        assert_eq!(points.len(), bench.aggressor_fractions.len());
        for point in &points {
            for tenant in [&point.victim, &point.aggressor] {
                assert_eq!(tenant.issued, tenant.completed + tenant.dropped);
                assert!(tenant.completed > 0);
                assert!(tenant.p50_us <= tenant.p95_us && tenant.p95_us <= tenant.p99_us);
                assert!((0.0..=1.0).contains(&tenant.drop_rate));
                assert!((0.0..=1.0).contains(&tenant.slo_violation));
                // Every window reports the loaded store: the trial's
                // writes overwrite loaded keys far below the memory limit,
                // and kv backends take no row locks.
                assert_eq!(
                    (
                        tenant.store_entries,
                        tenant.store_evictions,
                        tenant.store_lock_waits
                    ),
                    (4_096, 0, 0),
                    "kv store snapshot at aggressor fraction {}",
                    point.aggressor_fraction
                );
            }
        }
    }

    #[test]
    fn sql_tenants_surface_row_lock_contention_stats() {
        let bench = TenancyBenchmark {
            op_sample_every: 1,
            ..tiny(LoadBackend::Mysql)
        };
        let platform = PlatformId::Native.build();
        let points = bench
            .run_trial(&platform, &mut SimRng::seed_from(35))
            .unwrap();
        assert_eq!(points.len(), bench.aggressor_fractions.len());
        for point in &points {
            for tenant in [&point.victim, &point.aggressor] {
                // Every window reports the prepared table: selects and
                // updates hit loaded rows, one transaction at a time.
                assert_eq!(
                    (
                        tenant.store_entries,
                        tenant.store_evictions,
                        tenant.store_lock_waits
                    ),
                    (2_000, 0, 0),
                    "sql store snapshot at aggressor fraction {}",
                    point.aggressor_fraction
                );
            }
        }
    }

    #[test]
    fn weighted_slots_protect_the_victim_against_an_overloading_aggressor() {
        let bench = tiny(LoadBackend::Memcached);
        let platform = PlatformId::Native.build();
        let points = bench
            .run_trial(&platform, &mut SimRng::seed_from(34))
            .unwrap();
        let overload = points.last().unwrap();
        assert!(
            overload.victim.p99_us < overload.victim_fifo_p99_us,
            "DRR victim p99 {} must undercut FIFO sharing {}",
            overload.victim.p99_us,
            overload.victim_fifo_p99_us
        );
        // The aggressor cannot push the protected victim into heavy
        // inflation: the isolation index stays far below the FIFO one.
        let fifo_inflation = overload.victim_fifo_p99_us / overload.victim_solo_p99_us;
        assert!(
            overload.isolation_index < fifo_inflation,
            "weighted inflation {} vs fifo inflation {fifo_inflation}",
            overload.isolation_index
        );
    }

    #[test]
    fn aggressor_overload_is_shed_at_its_own_bounded_queue() {
        let bench = tiny(LoadBackend::Memcached);
        let platform = PlatformId::Native.build();
        let points = bench
            .run_trial(&platform, &mut SimRng::seed_from(35))
            .unwrap();
        let light = points.first().unwrap();
        let overload = points.last().unwrap();
        assert_eq!(light.aggressor.dropped, 0, "no drops at 30% load");
        assert!(
            overload.aggressor.dropped > 0,
            "an overloading aggressor must hit its admission bound"
        );
        assert!(overload.aggressor.achieved_per_sec < overload.aggressor.offered_per_sec);
        // The victim keeps its service level: no victim drops under DRR.
        assert_eq!(overload.victim.dropped, 0);
    }

    #[test]
    fn isolation_index_is_anchored_at_the_solo_baseline() {
        let bench = tiny(LoadBackend::Mysql);
        let platform = PlatformId::Qemu.build();
        let points = bench
            .run_trial(&platform, &mut SimRng::seed_from(36))
            .unwrap();
        for point in &points {
            assert!(point.victim_solo_p99_us > 0.0);
            assert!(
                point.isolation_index >= 0.99,
                "co-located p99 cannot beat the solo baseline: {}",
                point.isolation_index
            );
        }
        let (light, overload) = (points.first().unwrap(), points.last().unwrap());
        // The mean aggregates every victim wait, so the interference
        // growth shows cleanly even where the p99 estimate is noisy.
        assert!(
            overload.victim.mean_us > light.victim.mean_us,
            "victim mean sojourn must grow with aggressor load: {} -> {}",
            light.victim.mean_us,
            overload.victim.mean_us
        );
    }

    #[test]
    fn on_off_arrivals_are_burstier_than_poisson_at_the_same_rate() {
        let rate = 1_000.0;
        let n = 20_000;
        let stats = |process: ArrivalProcess| {
            let mut draws = UnitGaps::new(SimRng::seed_from(37), 0);
            let mut gen = ArrivalGen::new(process, rate, &mut draws);
            let gaps: Vec<f64> = (0..n).map(|_| gen.next_gap()).collect();
            let mean = gaps.iter().sum::<f64>() / n as f64;
            let var = gaps.iter().map(|g| (g - mean) * (g - mean)).sum::<f64>() / n as f64;
            (mean, var.sqrt() / mean)
        };
        let (poisson_mean, poisson_cv) = stats(ArrivalProcess::Poisson);
        let (onoff_mean, onoff_cv) = stats(ArrivalProcess::OnOff {
            duty_cycle: 0.3,
            burst_arrivals: 64.0,
        });
        assert!(
            (poisson_mean - 1.0 / rate).abs() < 0.05 / rate,
            "poisson mean gap {poisson_mean}"
        );
        assert!(
            (onoff_mean - 1.0 / rate).abs() < 0.15 / rate,
            "on-off long-run rate must match the offered rate, mean gap {onoff_mean}"
        );
        assert!(
            onoff_cv > poisson_cv * 1.5,
            "on-off gaps must be burstier: cv {onoff_cv} vs poisson {poisson_cv}"
        );
    }

    #[test]
    fn on_off_sample_paths_scale_with_the_offered_rate() {
        let process = ArrivalProcess::OnOff {
            duty_cycle: 0.3,
            burst_arrivals: 16.0,
        };
        let mut draws = [
            UnitGaps::new(SimRng::seed_from(38), 0),
            UnitGaps::new(SimRng::seed_from(38), 0),
        ];
        let [slow_draws, fast_draws] = &mut draws;
        let mut slow = ArrivalGen::new(process, 100.0, slow_draws);
        let mut fast = ArrivalGen::new(process, 400.0, fast_draws);
        for _ in 0..200 {
            let (a, b) = (slow.next_gap(), fast.next_gap());
            assert!(
                (a / b - 4.0).abs() < 1e-6,
                "gap {a} must be exactly 4x gap {b}"
            );
        }
    }

    #[test]
    fn a_zero_rate_aggressor_issues_nothing() {
        // Zero offered load overflows the on-off phase means to infinity;
        // the source must then never arrive rather than spin forever.
        let process = ArrivalProcess::OnOff {
            duty_cycle: 0.3,
            burst_arrivals: 64.0,
        };
        let mut draws = UnitGaps::new(SimRng::seed_from(44), 0);
        let mut gen = ArrivalGen::new(process, 0.0, &mut draws);
        assert_eq!(gen.next_gap(), f64::INFINITY);
        let bench = TenancyBenchmark {
            aggressor_fractions: vec![0.0, 0.5],
            ..tiny(LoadBackend::Memcached)
        };
        let points = bench
            .run_trial(&PlatformId::Native.build(), &mut SimRng::seed_from(45))
            .unwrap();
        let (idle, busy) = (&points[0].aggressor, &points[1].aggressor);
        assert_eq!((idle.issued, idle.completed, idle.dropped), (0, 0, 0));
        assert_eq!(idle.drop_rate, 0.0);
        assert!(busy.issued > 0);
        assert!(points[0].victim.completed > 0);
    }

    #[test]
    fn invalid_tenant_parameters_error_loudly() {
        let platform = PlatformId::Native.build();
        let mut bench = tiny(LoadBackend::Memcached);
        bench.aggressor.arrivals = ArrivalProcess::OnOff {
            duty_cycle: 1.5,
            burst_arrivals: 64.0,
        };
        assert!(bench
            .run_trial(&platform, &mut SimRng::seed_from(39))
            .is_err());
        let mut bench = tiny(LoadBackend::Memcached);
        bench.aggressor.arrivals = ArrivalProcess::OnOff {
            duty_cycle: 0.3,
            burst_arrivals: f64::INFINITY,
        };
        assert!(matches!(
            bench.run_trial(&platform, &mut SimRng::seed_from(39)),
            Err(SimError::InvalidConfig(_))
        ));
        let mut bench = tiny(LoadBackend::Memcached);
        bench.servers = 0;
        assert!(bench
            .run_trial(&platform, &mut SimRng::seed_from(40))
            .is_err());
        let bench = tiny(LoadBackend::Memcached);
        assert!(bench
            .run_colocated(
                &platform,
                &[],
                SlotPolicy::WeightedDrr,
                &mut SimRng::seed_from(41)
            )
            .is_err());
    }

    #[test]
    fn tracing_is_observation_only_with_one_lane_per_tenant() {
        use simcore::obs::ObsConfig;
        let bench = tiny(LoadBackend::Memcached);
        let platform = PlatformId::Docker.build();
        let tenants = [bench.victim.clone(), bench.aggressor.clone()];
        let plain = bench
            .run_colocated(
                &platform,
                &tenants,
                SlotPolicy::WeightedDrr,
                &mut SimRng::seed_from(43),
            )
            .unwrap();
        let recorder = Recorder::try_new(ObsConfig::new(9, 0.5)).unwrap();
        let (traced, recorder) = bench
            .run_colocated_traced(
                &platform,
                &tenants,
                SlotPolicy::WeightedDrr,
                &mut SimRng::seed_from(43),
                recorder,
            )
            .unwrap();
        assert_eq!(plain, traced, "the recorder must not perturb the run");
        assert!(recorder.spans_accepted() > 0);
        let timeline = recorder.timeline_json("tenant", 43);
        assert!(timeline.contains("\"lane\": \"victim\""));
        assert!(timeline.contains("\"lane\": \"aggressor\""));
    }

    #[test]
    fn run_colocated_supports_more_than_two_tenants() {
        let bench = tiny(LoadBackend::Memcached);
        let platform = PlatformId::Docker.build();
        let mut third = bench.aggressor.clone();
        third.name = "batch".to_string();
        third.offered_fraction = 0.2;
        let tenants = [bench.victim.clone(), bench.aggressor.clone(), third];
        let points = bench
            .run_colocated(
                &platform,
                &tenants,
                SlotPolicy::WeightedDrr,
                &mut SimRng::seed_from(42),
            )
            .unwrap();
        assert_eq!(points.len(), 3);
        for point in &points {
            assert_eq!(point.issued, point.completed + point.dropped);
        }
    }
}
