//! Open-loop multi-client load generation (beyond the paper).
//!
//! The paper's macro benchmarks (Figs. 16–17) are closed-loop: a fixed
//! client population issues the next request only after the previous one
//! completes, so they measure peak throughput but say nothing about how a
//! platform behaves **under offered load** — the regime production
//! middleware actually faces. This module adds the missing axis: a Poisson
//! arrival process over a configurable concurrent-client population drives
//! the simulated memcached ([`kvstore`]) or MySQL ([`relstore`]) backend
//! through a bounded admission queue in front of a pool of service slots,
//! and reports the resulting throughput-vs-latency curve (p50/p95/p99
//! sojourn times) at a sweep of offered loads.
//!
//! The mean per-request service times are **the same models the
//! closed-loop paths use** — [`YcsbBenchmark::per_op_service_time`] for
//! memcached and [`OltpBenchmark::per_txn_service_time`] plus
//! [`OltpBenchmark::contention`] for MySQL — and each request samples its
//! own service time from the profile's log-normal distribution around
//! that mean ([`ServiceProfile::service_distribution`]), so the reported
//! tails reflect service-time variance as well as queueing. The slot pool
//! and bounded admission queue are the shared [`crate::slots`] core.
//!
//! Each sweep point runs as the **zero-stage [`crate::pipeline`]**: one
//! client class on the open-loop engine that the pipeline and the
//! multi-tenant [`crate::tenancy`] windows share, behind an empty
//! middleware chain that adds no stage cost, so the offered rate, the
//! pool's mean cost and the probe window are this module's own. The
//! class's counted Poisson source pre-samples arrivals in bounded chunks
//! so the pending-event count stays small even for very large request
//! counts. Within one trial the arrival and service streams are **common
//! random numbers** across the sweep points — the same unit-rate arrival
//! gaps (scaled by the offered rate) and the same service-time sequence,
//! drawn once per trial and read by index at every point — so latency
//! curves are monotone in offered load by coupling, not just in
//! expectation; every stream derives from the cell's own random stream,
//! keeping results bit-identical across any parallel execution schedule.
//! The sampled backend is likewise populated once per trial and reused by
//! every sweep point, which leaves the figures unchanged (see
//! [`crate::slots`]).
//!
//! [`YcsbBenchmark::per_op_service_time`]: crate::ycsb::YcsbBenchmark::per_op_service_time
//! [`OltpBenchmark::per_txn_service_time`]: crate::sysbench_oltp::OltpBenchmark::per_txn_service_time
//! [`OltpBenchmark::contention`]: crate::sysbench_oltp::OltpBenchmark::contention

use platforms::Platform;
use simcore::error::SimError;
use simcore::obs::Recorder;
use simcore::SimRng;

use crate::pipeline::{PipelineBenchmark, PipelineSetting, TrialDraws};
use crate::slots::{backend_profile, BackendState};
pub use crate::slots::{LoadBackend, ServiceProfile};

/// Configuration of one open-loop load sweep.
#[derive(Debug, Clone)]
pub struct LoadgenBenchmark {
    /// Which backend to drive.
    pub backend: LoadBackend,
    /// Number of client connections the arrivals are spread over. Each
    /// connection keeps its own issued/completed/dropped accounting; the
    /// population can range from hundreds to millions.
    pub clients: usize,
    /// Requests offered per sweep point (the measurement window is sized so
    /// exactly this many arrivals occur).
    pub requests_per_point: usize,
    /// Offered load at each sweep point, as a fraction of the platform's
    /// estimated saturation capacity (e.g. `0.95` = 95% utilization).
    pub load_points: Vec<f64>,
    /// Bounded admission queue depth in front of the service slots;
    /// arrivals that find the queue full are dropped (and counted).
    pub queue_capacity: usize,
    /// Number of parallel service slots (the kvstore has 16 shards; the
    /// relational engine is modeled with the same pool width, derated by
    /// its USL contention profile).
    pub servers: usize,
    /// Measurement repetitions (trials) per sweep point.
    pub runs: usize,
    /// Execute one real backend operation per this many admitted requests
    /// (1 = every request), keeping the data structures honest without
    /// making huge sweeps quadratic.
    pub op_sample_every: u64,
}

impl LoadgenBenchmark {
    /// The full-scale configuration for a backend.
    pub fn new(backend: LoadBackend) -> Self {
        LoadgenBenchmark {
            backend,
            clients: 10_000,
            requests_per_point: 20_000,
            load_points: vec![0.2, 0.4, 0.6, 0.8, 0.95],
            queue_capacity: 8_192,
            servers: 16,
            runs: 5,
            op_sample_every: 4,
        }
    }

    /// A scaled-down configuration for unit tests and quick runs.
    pub fn quick(backend: LoadBackend) -> Self {
        LoadgenBenchmark {
            clients: 256,
            requests_per_point: 2_500,
            runs: 3,
            ..LoadgenBenchmark::new(backend)
        }
    }

    /// The platform's service profile under this configuration: the
    /// effective mean per-slot service time and the resulting saturation
    /// capacity in requests per second.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] for a degenerate profile — an
    /// empty slot pool, or a platform derate that collapses the service
    /// time to zero (which would imply infinite capacity).
    pub fn service_profile(&self, platform: &Platform) -> Result<ServiceProfile, SimError> {
        backend_profile(self.backend, platform, self.servers)
    }

    /// Runs one sweep point at `fraction` of the platform's saturation
    /// capacity, against a freshly populated backend.
    ///
    /// # Errors
    ///
    /// Propagates the degenerate-profile error of
    /// [`LoadgenBenchmark::service_profile`], and returns
    /// [`SimError::InvalidConfig`] when `requests_per_point` is zero or
    /// `fraction` is negative or not finite.
    pub fn run_point(
        &self,
        platform: &Platform,
        fraction: f64,
        rng: &mut SimRng,
    ) -> Result<LoadPoint, SimError> {
        let mut draws = self.draws(platform, rng)?;
        self.run_point_with(
            fraction,
            &mut draws,
            rng,
            &mut BackendState::build(self.backend),
            None,
        )
        .map(|(point, _)| point)
    }

    /// Runs one sweep point with a trace [`Recorder`] attached and
    /// returns it alongside the measurement, loaded with admission-wait
    /// and slot-service spans for the sampled requests, the windowed
    /// pool time-series, and the run's event-core counter profile.
    ///
    /// Tracing is observation only: the recorder consumes no random
    /// draws (span sampling is the stateless [`simcore::rng::mix`] of
    /// the recorder's seed and the arrival index), so the returned
    /// [`LoadPoint`] is bit-identical to the untraced
    /// [`LoadgenBenchmark::run_point`] of the same streams.
    ///
    /// # Errors
    ///
    /// Propagates the configuration errors of
    /// [`LoadgenBenchmark::run_point`].
    pub fn run_point_traced(
        &self,
        platform: &Platform,
        fraction: f64,
        rng: &mut SimRng,
        recorder: Recorder,
    ) -> Result<(LoadPoint, Recorder), SimError> {
        let mut draws = self.draws(platform, rng)?;
        let (point, obs) = self.run_point_with(
            fraction,
            &mut draws,
            rng,
            &mut BackendState::build(self.backend),
            Some(recorder),
        )?;
        Ok((point, obs.expect("the recorder threads through the run")))
    }

    /// Splits a trial's arrival and service draw tables off the cell
    /// stream. The service profile is load-independent, so one table of
    /// service times serves every fraction of a sweep.
    fn draws(&self, platform: &Platform, rng: &mut SimRng) -> Result<TrialDraws, SimError> {
        let profile = self.service_profile(platform)?;
        Ok(TrialDraws::split(profile, self.requests_per_point, rng))
    }

    /// Runs one sweep point on its trial's `draws`.
    ///
    /// Arrival `i` reads unit-rate gap `i` (scaled by the offered rate)
    /// and dispatch `i` reads service time `i`; reading the same tables
    /// at every fraction of a sweep yields the common-random-numbers
    /// coupling the monotonicity of the curves relies on. `misc_rng`
    /// covers the timing-irrelevant draws (connection attribution,
    /// sampled operations on `backend`).
    ///
    /// The point is the zero-stage pipeline at `fraction` of the
    /// chain-inclusive capacity, which for the empty chain is
    /// [`ServiceProfile::capacity_per_sec`]. The stage-cost fields the
    /// pipeline defaults to are never read by an empty chain.
    fn run_point_with(
        &self,
        fraction: f64,
        draws: &mut TrialDraws,
        misc_rng: &mut SimRng,
        backend: &mut BackendState,
        obs: Option<Recorder>,
    ) -> Result<(LoadPoint, Option<Recorder>), SimError> {
        let zero_stage = PipelineBenchmark {
            clients: self.clients,
            requests_per_point: self.requests_per_point,
            offered_fraction: fraction,
            queue_capacity: self.queue_capacity,
            op_sample_every: self.op_sample_every,
            ..PipelineBenchmark::new(self.backend)
        };
        let (p, obs) =
            zero_stage.run_setting(&PipelineSetting::new(0, 0.0), draws, misc_rng, backend, obs)?;
        let point = LoadPoint {
            offered_fraction: fraction,
            offered_per_sec: p.offered_per_sec,
            achieved_per_sec: p.achieved_per_sec,
            p50_us: p.p50_us,
            p95_us: p.p95_us,
            p99_us: p.p99_us,
            mean_us: p.mean_us,
            completed: p.completed,
            dropped: p.dropped,
            peak_in_flight: p.peak_in_flight,
            mean_in_flight: p.mean_in_flight,
        };
        Ok((point, obs))
    }

    /// Runs the whole offered-load sweep once and returns one
    /// [`LoadPoint`] per configured fraction.
    ///
    /// This is the unit the parallel executor shards on: each trial sweeps
    /// every offered load once from its own derived random stream, against
    /// one backend it populates up front, and the harness merges the
    /// per-trial samples into the figure's mean/std.
    ///
    /// # Errors
    ///
    /// Propagates the configuration errors of
    /// [`LoadgenBenchmark::run_point`].
    pub fn run_trial(
        &self,
        platform: &Platform,
        rng: &mut SimRng,
    ) -> Result<Vec<LoadPoint>, SimError> {
        // Common random numbers: the trial draws the unit-rate arrival
        // gaps and the service-time sequence once, and every sweep point
        // reads them by index.
        let mut draws = self.draws(platform, rng)?;
        let mut backend = BackendState::build(self.backend);
        self.load_points
            .iter()
            .map(|&fraction| {
                self.run_point_with(fraction, &mut draws, rng, &mut backend, None)
                    .map(|(point, _)| point)
            })
            .collect()
    }
}

/// One measured point of a throughput-vs-latency curve.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadPoint {
    /// Offered load as a fraction of the saturation capacity.
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
    /// Requests completed within the measurement window.
    pub completed: u64,
    /// Requests dropped by the bounded admission queue.
    pub dropped: u64,
    /// Peak number of in-flight requests (in service + queued).
    pub peak_in_flight: usize,
    /// Time-averaged in-flight depth, from fixed-cadence probes across the
    /// arrival window.
    pub mean_in_flight: f64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use platforms::PlatformId;

    fn tiny(backend: LoadBackend) -> LoadgenBenchmark {
        LoadgenBenchmark {
            clients: 64,
            requests_per_point: 600,
            runs: 1,
            ..LoadgenBenchmark::quick(backend)
        }
    }

    #[test]
    fn percentiles_are_ordered_at_every_point() {
        let bench = tiny(LoadBackend::Memcached);
        let platform = PlatformId::Docker.build();
        let points = bench
            .run_trial(&platform, &mut SimRng::seed_from(81))
            .unwrap();
        assert_eq!(points.len(), bench.load_points.len());
        for p in &points {
            assert!(
                p.p50_us <= p.p95_us && p.p95_us <= p.p99_us,
                "percentiles out of order at fraction {}: {p:?}",
                p.offered_fraction
            );
            assert!(p.p50_us > 0.0);
            assert!(p.completed > 0);
        }
    }

    #[test]
    fn latency_grows_toward_saturation() {
        let bench = tiny(LoadBackend::Memcached);
        let platform = PlatformId::Native.build();
        let points = bench
            .run_trial(&platform, &mut SimRng::seed_from(82))
            .unwrap();
        let first = points.first().unwrap();
        let last = points.last().unwrap();
        assert!(
            last.mean_us > first.mean_us,
            "mean sojourn must inflate near saturation: {} -> {}",
            first.mean_us,
            last.mean_us
        );
        assert!(last.p99_us >= first.p99_us);
        assert!(
            last.mean_in_flight > first.mean_in_flight,
            "time-averaged in-flight depth must grow with load: {} -> {}",
            first.mean_in_flight,
            last.mean_in_flight
        );
        assert!(first.mean_in_flight > 0.0);
    }

    #[test]
    fn common_random_numbers_make_every_percentile_monotone() {
        // The arrival/service streams are shared across the sweep points,
        // so not just the mean but each reported percentile is monotone in
        // offered load by coupling.
        let bench = tiny(LoadBackend::Memcached);
        let platform = PlatformId::Qemu.build();
        let points = bench
            .run_trial(&platform, &mut SimRng::seed_from(99))
            .unwrap();
        for pair in points.windows(2) {
            assert!(pair[1].p50_us >= pair[0].p50_us, "{pair:?}");
            assert!(pair[1].p95_us >= pair[0].p95_us, "{pair:?}");
            assert!(pair[1].p99_us >= pair[0].p99_us, "{pair:?}");
        }
    }

    #[test]
    fn overload_drops_requests_at_the_bounded_queue() {
        let mut bench = tiny(LoadBackend::Memcached);
        bench.queue_capacity = 4;
        bench.load_points = vec![3.0]; // 3x capacity: queue must overflow
        let platform = PlatformId::Native.build();
        let point = &bench
            .run_trial(&platform, &mut SimRng::seed_from(83))
            .unwrap()[0];
        assert!(point.dropped > 0, "overload must hit the admission bound");
        assert!(
            point.achieved_per_sec < point.offered_per_sec,
            "achieved {} must fall below offered {}",
            point.achieved_per_sec,
            point.offered_per_sec
        );
        assert!(point.peak_in_flight <= bench.servers + bench.queue_capacity);
    }

    #[test]
    fn trials_are_deterministic_per_seed() {
        let bench = tiny(LoadBackend::Memcached);
        let platform = PlatformId::Firecracker.build();
        let a = bench
            .run_trial(&platform, &mut SimRng::seed_from(85))
            .unwrap();
        let b = bench
            .run_trial(&platform, &mut SimRng::seed_from(85))
            .unwrap();
        assert_eq!(a, b);
        let c = bench
            .run_trial(&platform, &mut SimRng::seed_from(86))
            .unwrap();
        assert_ne!(a, c);
    }

    #[test]
    fn slower_platforms_pay_higher_latency_under_the_same_fraction() {
        let bench = tiny(LoadBackend::Memcached);
        let native = bench
            .run_trial(&PlatformId::Native.build(), &mut SimRng::seed_from(87))
            .unwrap();
        let gvisor = bench
            .run_trial(
                &PlatformId::GvisorPtrace.build(),
                &mut SimRng::seed_from(87),
            )
            .unwrap();
        // Same utilization fraction, but gVisor's per-op service time is
        // far larger, so its absolute sojourn times must dominate.
        for (n, g) in native.iter().zip(&gvisor) {
            assert!(
                g.p50_us > n.p50_us,
                "gvisor p50 {} must exceed native {}",
                g.p50_us,
                n.p50_us
            );
        }
    }

    #[test]
    fn mysql_profile_is_slower_than_memcached() {
        let platform = PlatformId::Docker.build();
        let kv = LoadgenBenchmark::quick(LoadBackend::Memcached)
            .service_profile(&platform)
            .unwrap();
        let sql = LoadgenBenchmark::quick(LoadBackend::Mysql)
            .service_profile(&platform)
            .unwrap();
        assert!(sql.service_time > kv.service_time);
        assert!(sql.capacity_per_sec() < kv.capacity_per_sec());
    }

    #[test]
    fn tracing_is_observation_only_and_rate_zero_records_no_spans() {
        use simcore::obs::ObsConfig;
        let bench = tiny(LoadBackend::Memcached);
        let platform = PlatformId::Docker.build();
        let plain = bench
            .run_point(&platform, 0.8, &mut SimRng::seed_from(90))
            .unwrap();
        let recorder = Recorder::try_new(ObsConfig::new(7, 0.25)).unwrap();
        let (traced, recorder) = bench
            .run_point_traced(&platform, 0.8, &mut SimRng::seed_from(90), recorder)
            .unwrap();
        assert_eq!(plain, traced, "the recorder must not perturb the run");
        assert!(recorder.spans_accepted() > 0);
        assert!(recorder.timeline_json("load", 90).contains("\"core\""));
        let zero = Recorder::try_new(ObsConfig::new(7, 0.0)).unwrap();
        let (_, zero) = bench
            .run_point_traced(&platform, 0.8, &mut SimRng::seed_from(90), zero)
            .unwrap();
        assert_eq!(zero.spans_accepted(), 0, "rate 0 records nothing");
    }

    #[test]
    fn a_point_without_requests_or_with_a_bad_load_is_a_configuration_error() {
        let bench = LoadgenBenchmark {
            requests_per_point: 0,
            ..tiny(LoadBackend::Memcached)
        };
        let platform = PlatformId::Native.build();
        let mut rng = SimRng::seed_from(89);
        assert!(matches!(
            bench.run_trial(&platform, &mut rng),
            Err(SimError::InvalidConfig(_))
        ));
        assert!(bench.run_point(&platform, 0.8, &mut rng).is_err());
        for fraction in [f64::NAN, f64::INFINITY, -1.0] {
            let bench = LoadgenBenchmark {
                load_points: vec![0.5, fraction],
                ..tiny(LoadBackend::Memcached)
            };
            assert!(
                matches!(
                    bench.run_trial(&platform, &mut rng),
                    Err(SimError::InvalidConfig(_))
                ),
                "must reject load point {fraction}"
            );
            assert!(bench.run_point(&platform, fraction, &mut rng).is_err());
        }
    }

    #[test]
    fn an_empty_slot_pool_is_a_loud_configuration_error() {
        let bench = LoadgenBenchmark {
            servers: 0,
            ..tiny(LoadBackend::Memcached)
        };
        let platform = PlatformId::Native.build();
        assert!(bench.service_profile(&platform).is_err());
        assert!(bench
            .run_trial(&platform, &mut SimRng::seed_from(88))
            .is_err());
    }
}
