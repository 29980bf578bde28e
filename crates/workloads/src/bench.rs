//! The unified workload-benchmark surface.
//!
//! Every sweep-style workload in this crate — the open-loop load curves,
//! the multi-tenant co-location sweep, the middleware pipeline and the
//! sharded cluster — shares one execution shape: a configuration struct,
//! a natural trial count, and a deterministic
//! `run_trial(platform, stream) -> Vec<Point>` that replays the whole
//! sweep from one derived random stream. [`WorkloadBenchmark`] names that
//! shape, so the grid dispatches every workload through one generic call
//! instead of a per-workload match arm. A new workload plugs into the
//! harness by implementing the trait and giving its point type a metric
//! table in `harness::grid`: the x axis and, per metric, the series
//! label, the bench report key, the decimal places and the reader. The
//! grid's cells, merge and bench report all go through that table.
//!
//! The contract every implementation must honour:
//!
//! * **Determinism** — `run_trial` is a pure function of
//!   `(config, platform, stream state)`: equal seeds yield equal points,
//!   which is what keeps grid figures byte-identical across executor
//!   worker counts.
//! * **One stream in, everything derived** — all randomness inside the
//!   trial is split from the passed stream; nothing reads ambient state.
//! * **Whole sweep per call** — the returned vector holds one summary per
//!   sweep point, in sweep order, so common-random-numbers coupling
//!   across the points stays inside one call.

use platforms::Platform;
use simcore::error::SimError;
use simcore::SimRng;

use crate::cluster::ClusterBenchmark;
use crate::loadgen::LoadgenBenchmark;
use crate::pipeline::PipelineBenchmark;
use crate::tenancy::TenancyBenchmark;

/// A sweep-style workload benchmark the grid can dispatch generically:
/// configuration in, one summary per sweep point out.
pub trait WorkloadBenchmark {
    /// The per-sweep-point summary the benchmark produces.
    type Point;

    /// The configuration's natural trial count — how many independent
    /// repetitions the grid schedules per (experiment, platform) cell.
    fn runs(&self) -> usize;

    /// Replays the whole sweep once from the given random stream and
    /// returns one [`WorkloadBenchmark::Point`] per sweep point, in
    /// sweep order. This is the unit the parallel executor shards on.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] for a degenerate
    /// configuration (empty slot pools, collapsed service times,
    /// non-finite costs or rates).
    fn run_trial(
        &self,
        platform: &Platform,
        rng: &mut SimRng,
    ) -> Result<Vec<Self::Point>, SimError>;

    /// Runs one trial from a bare seed: seeds a fresh stream and
    /// delegates to [`WorkloadBenchmark::run_trial`]. The grid derives
    /// its cell streams statelessly instead, but standalone studies and
    /// tests get a one-call entry point.
    ///
    /// # Errors
    ///
    /// Propagates [`WorkloadBenchmark::run_trial`]'s configuration
    /// errors.
    fn run_point(&self, seed: u64, platform: &Platform) -> Result<Vec<Self::Point>, SimError> {
        self.run_trial(platform, &mut SimRng::seed_from(seed))
    }
}

impl WorkloadBenchmark for LoadgenBenchmark {
    type Point = crate::loadgen::LoadPoint;

    fn runs(&self) -> usize {
        self.runs
    }

    fn run_trial(
        &self,
        platform: &Platform,
        rng: &mut SimRng,
    ) -> Result<Vec<Self::Point>, SimError> {
        LoadgenBenchmark::run_trial(self, platform, rng)
    }
}

impl WorkloadBenchmark for TenancyBenchmark {
    type Point = crate::tenancy::ColocationPoint;

    fn runs(&self) -> usize {
        self.runs
    }

    fn run_trial(
        &self,
        platform: &Platform,
        rng: &mut SimRng,
    ) -> Result<Vec<Self::Point>, SimError> {
        TenancyBenchmark::run_trial(self, platform, rng)
    }
}

impl WorkloadBenchmark for PipelineBenchmark {
    type Point = crate::pipeline::PipelinePoint;

    fn runs(&self) -> usize {
        self.runs
    }

    fn run_trial(
        &self,
        platform: &Platform,
        rng: &mut SimRng,
    ) -> Result<Vec<Self::Point>, SimError> {
        PipelineBenchmark::run_trial(self, platform, rng)
    }
}

impl WorkloadBenchmark for ClusterBenchmark {
    type Point = crate::cluster::ClusterPoint;

    fn runs(&self) -> usize {
        self.runs
    }

    fn run_trial(
        &self,
        platform: &Platform,
        rng: &mut SimRng,
    ) -> Result<Vec<Self::Point>, SimError> {
        ClusterBenchmark::run_trial(self, platform, rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::slots::LoadBackend;
    use platforms::PlatformId;

    /// The generic dispatch the grid relies on: any benchmark runs
    /// through the trait object-free surface with equal-seed equality.
    fn deterministic_through_the_trait<B: WorkloadBenchmark>(bench: &B)
    where
        B::Point: PartialEq + std::fmt::Debug,
    {
        let platform = PlatformId::Docker.build();
        let a = bench.run_point(2021, &platform).expect("valid config");
        let b = bench.run_point(2021, &platform).expect("valid config");
        assert!(!a.is_empty());
        assert_eq!(a.len(), b.len());
        assert!(a == b, "equal seeds must replay equal sweeps");
        assert!(bench.runs() > 0);
    }

    #[test]
    fn every_ported_benchmark_is_deterministic_through_the_trait() {
        deterministic_through_the_trait(&LoadgenBenchmark {
            clients: 64,
            requests_per_point: 400,
            load_points: vec![0.5, 0.9],
            runs: 1,
            ..LoadgenBenchmark::quick(LoadBackend::Memcached)
        });
        deterministic_through_the_trait(&PipelineBenchmark {
            clients: 64,
            requests_per_point: 400,
            runs: 1,
            ..PipelineBenchmark::quick(LoadBackend::Memcached)
        });
        let mut tenancy = TenancyBenchmark::quick(LoadBackend::Memcached);
        tenancy.victim_requests = 400;
        tenancy.aggressor_fractions = vec![0.5];
        tenancy.runs = 1;
        deterministic_through_the_trait(&tenancy);
    }
}
