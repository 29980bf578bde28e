//! The Sysbench CPU benchmark (prime verification, Section 3.1).
//!
//! The paper uses this single-threaded microbenchmark to show that basic
//! CPU instruction throughput is identical on every platform. The work
//! unit is [`ComputeWork::sysbench_prime`]; the platform's only influence
//! is its (negligible) instruction efficiency and scheduler noise.

use platforms::subsystems::cpu::ComputeWork;
use platforms::Platform;
use simcore::stats::RunningStats;
use simcore::{Nanos, SimRng};

/// The sysbench CPU benchmark.
#[derive(Debug, Clone, Copy)]
pub struct SysbenchCpuBenchmark {
    /// Number of repetitions.
    pub runs: usize,
}

impl Default for SysbenchCpuBenchmark {
    fn default() -> Self {
        SysbenchCpuBenchmark { runs: 10 }
    }
}

impl SysbenchCpuBenchmark {
    /// Creates a benchmark with the given repetition count.
    pub fn new(runs: usize) -> Self {
        SysbenchCpuBenchmark { runs: runs.max(1) }
    }

    /// Runs the benchmark; returns per-run durations.
    pub fn run(&self, platform: &Platform, rng: &mut SimRng) -> Vec<Nanos> {
        let work = ComputeWork::sysbench_prime();
        (0..self.runs)
            .map(|_| platform.cpu().sample_wall_clock(work, rng))
            .collect()
    }

    /// Runs the benchmark and summarizes the event rate (relative events
    /// per second; higher is better).
    pub fn run_events_per_sec(&self, platform: &Platform, rng: &mut SimRng) -> RunningStats {
        self.run(platform, rng)
            .into_iter()
            .map(|d| 10_000.0 / d.as_secs_f64())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use platforms::PlatformId;

    #[test]
    fn all_platforms_perform_nearly_equivalently() {
        let bench = SysbenchCpuBenchmark::new(3);
        let mut rng = SimRng::seed_from(7);
        let native = bench
            .run_events_per_sec(&PlatformId::Native.build(), &mut rng.split("native"))
            .mean();
        for id in [
            PlatformId::Docker,
            PlatformId::Firecracker,
            PlatformId::GvisorPtrace,
            PlatformId::OsvQemu,
        ] {
            let rate = bench
                .run_events_per_sec(&id.build(), &mut rng.split(id.label()))
                .mean();
            let rel = (rate - native).abs() / native;
            assert!(rel < 0.1, "{id:?} deviates by {rel}");
        }
    }
}
