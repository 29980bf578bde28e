//! CPU / scheduling subsystem.
//!
//! Drives the ffmpeg re-encode (Fig. 5), the sysbench prime check
//! (Section 3.1) and the compute component of the macro-benchmarks.

use simcore::{Nanos, SimRng};

use oskern::sched::{SchedulerModel, ThreadScheduler, UslParams};

/// A description of a compute job.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ComputeWork {
    /// Total single-thread CPU time the job needs on the bare host.
    pub total_cpu: Nanos,
    /// Number of worker threads the job runs.
    pub threads: usize,
    /// Whether the job is dominated by wide SIMD kernels with frequent
    /// inter-thread hand-offs (the ffmpeg case); such jobs are sensitive to
    /// custom schedulers.
    pub simd_heavy: bool,
}

impl ComputeWork {
    /// The paper's ffmpeg job: re-encode a 30 MB 1080p H.264 clip to H.265
    /// with the `slower` preset using 16 threads. The single-thread CPU
    /// budget is chosen so that the 16-thread wall-clock lands around the
    /// paper's ~65 s.
    pub fn ffmpeg_reencode() -> Self {
        ComputeWork {
            total_cpu: Nanos::from_secs(980),
            threads: 16,
            simd_heavy: true,
        }
    }

    /// The sysbench CPU benchmark: single-threaded prime verification.
    pub fn sysbench_prime() -> Self {
        ComputeWork {
            total_cpu: Nanos::from_secs(10),
            threads: 1,
            simd_heavy: false,
        }
    }
}

/// The CPU subsystem of one platform.
#[derive(Debug)]
pub struct CpuSubsystem {
    scheduler: Box<dyn ThreadScheduler + Send + Sync>,
    /// Guest-visible cores.
    pub cores: usize,
    /// Straight-line instruction throughput relative to native (1.0 for
    /// everything: hardware-assisted virtualization executes guest code
    /// natively, which is why the prime benchmark shows no differences).
    pub instruction_efficiency: f64,
    /// Relative run-to-run noise.
    pub jitter: f64,
}

impl CpuSubsystem {
    /// Creates a CPU subsystem using the given scheduler model.
    pub fn new(scheduler_model: SchedulerModel, cores: usize) -> Self {
        CpuSubsystem {
            scheduler: scheduler_model.build(),
            cores,
            instruction_efficiency: 1.0,
            jitter: 0.015,
        }
    }

    /// Sets the run-to-run noise.
    pub fn with_jitter(mut self, jitter: f64) -> Self {
        self.jitter = jitter.max(0.0);
        self
    }

    /// The scheduler's contention parameters (used by the OLTP model).
    pub fn contention_params(&self) -> UslParams {
        self.scheduler.contention_params()
    }

    /// Parallel efficiency at a given thread count.
    pub fn parallel_efficiency(&self, threads: usize) -> f64 {
        self.scheduler.parallel_efficiency(threads, self.cores)
    }

    /// Mean wall-clock time of a compute job on this platform.
    pub fn mean_wall_clock(&self, work: ComputeWork) -> Nanos {
        let threads = work.threads.min(self.cores.max(1));
        let efficiency = self.scheduler.parallel_efficiency(work.threads, self.cores)
            * self.instruction_efficiency;
        let simd = if work.simd_heavy {
            self.scheduler.simd_heavy_penalty()
        } else {
            1.0
        };
        let parallel_time = work.total_cpu.as_secs_f64() / (threads as f64 * efficiency.max(0.01));
        Nanos::from_secs_f64(parallel_time * simd)
    }

    /// Samples one measured wall-clock time.
    pub fn sample_wall_clock(&self, work: ComputeWork, rng: &mut SimRng) -> Nanos {
        let mean = self.mean_wall_clock(work).as_secs_f64();
        Nanos::from_secs_f64(rng.normal_pos(mean, mean * self.jitter))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ffmpeg_lands_around_65_seconds_with_cfs() {
        let cpu = CpuSubsystem::new(SchedulerModel::Cfs, 16);
        let t = cpu
            .mean_wall_clock(ComputeWork::ffmpeg_reencode())
            .as_millis_f64();
        assert!((55_000.0..75_000.0).contains(&t), "ffmpeg took {t} ms");
    }

    #[test]
    fn osv_scheduler_is_a_clear_ffmpeg_outlier() {
        let cfs = CpuSubsystem::new(SchedulerModel::Cfs, 16);
        let osv = CpuSubsystem::new(SchedulerModel::Osv, 16);
        let work = ComputeWork::ffmpeg_reencode();
        let ratio =
            osv.mean_wall_clock(work).as_secs_f64() / cfs.mean_wall_clock(work).as_secs_f64();
        assert!(ratio > 1.4, "osv/cfs ratio {ratio}");
    }

    #[test]
    fn prime_benchmark_is_scheduler_independent() {
        let work = ComputeWork::sysbench_prime();
        let cfs = CpuSubsystem::new(SchedulerModel::Cfs, 16).mean_wall_clock(work);
        let osv = CpuSubsystem::new(SchedulerModel::Osv, 16).mean_wall_clock(work);
        let rel = (osv.as_secs_f64() - cfs.as_secs_f64()).abs() / cfs.as_secs_f64();
        assert!(rel < 0.05, "single-threaded prime differs by {rel}");
    }

    #[test]
    fn sampling_is_reproducible() {
        let cpu = CpuSubsystem::new(SchedulerModel::Cfs, 16);
        let a = cpu.sample_wall_clock(ComputeWork::ffmpeg_reencode(), &mut SimRng::seed_from(1));
        let b = cpu.sample_wall_clock(ComputeWork::ffmpeg_reencode(), &mut SimRng::seed_from(1));
        assert_eq!(a, b);
    }

    #[test]
    fn more_threads_than_cores_does_not_speed_things_up() {
        let cpu = CpuSubsystem::new(SchedulerModel::Cfs, 16);
        let narrow = ComputeWork {
            total_cpu: Nanos::from_secs(100),
            threads: 16,
            simd_heavy: false,
        };
        let wide = ComputeWork {
            total_cpu: Nanos::from_secs(100),
            threads: 64,
            simd_heavy: false,
        };
        assert!(cpu.mean_wall_clock(wide) >= cpu.mean_wall_clock(narrow));
    }
}
