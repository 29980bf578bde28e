//! The iperf3 network throughput benchmark (Fig. 11).
//!
//! The host acts as the client, the guest runs the server, and the figure
//! reports the maximum throughput achieved over 5 runs.

use platforms::Platform;
use simcore::stats::RunningStats;
use simcore::SimRng;

/// The iperf3 benchmark.
#[derive(Debug, Clone, Copy)]
pub struct IperfBenchmark {
    /// Number of runs; the reported value is the maximum.
    pub runs: usize,
}

impl Default for IperfBenchmark {
    fn default() -> Self {
        IperfBenchmark { runs: 5 }
    }
}

impl IperfBenchmark {
    /// Creates a benchmark with the given run count.
    pub fn new(runs: usize) -> Self {
        IperfBenchmark { runs: runs.max(1) }
    }

    /// Runs the benchmark; returns per-run throughput in Gbit/s.
    pub fn run(&self, platform: &Platform, rng: &mut SimRng) -> RunningStats {
        (0..self.runs)
            .map(|_| platform.network().run_stream(rng).throughput.gbit_per_sec())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use platforms::PlatformId;

    #[test]
    fn throughput_ordering_matches_figure_11() {
        let bench = IperfBenchmark::default();
        let mut rng = SimRng::seed_from(31);
        // The figure's headline value: maximum throughput over the runs.
        let gbit = |id: PlatformId, rng: &mut SimRng| bench.run(&id.build(), rng).max().unwrap();
        let native = gbit(PlatformId::Native, &mut rng);
        let osv = gbit(PlatformId::OsvQemu, &mut rng);
        let docker = gbit(PlatformId::Docker, &mut rng);
        let lxc = gbit(PlatformId::Lxc, &mut rng);
        let qemu = gbit(PlatformId::Qemu, &mut rng);
        let fc = gbit(PlatformId::Firecracker, &mut rng);
        let osv_fc = gbit(PlatformId::OsvFirecracker, &mut rng);
        let chv = gbit(PlatformId::CloudHypervisor, &mut rng);
        let kata = gbit(PlatformId::Kata, &mut rng);
        let gvisor = gbit(PlatformId::GvisorPtrace, &mut rng);

        assert!((36.0..39.0).contains(&native), "native {native}");
        assert!(osv > native * 0.93 && osv < native, "osv {osv}");
        assert!(
            docker < native * 0.95 && docker > native * 0.85,
            "docker {docker}"
        );
        assert!(lxc < native * 0.95 && lxc > native * 0.85, "lxc {lxc}");
        assert!(qemu < native * 0.82 && qemu > native * 0.68, "qemu {qemu}");
        assert!(osv > qemu * 1.18, "osv should beat qemu by ~25%");
        assert!(
            osv_fc > fc && osv_fc < fc * 1.15,
            "osv-fc {osv_fc} vs fc {fc}"
        );
        assert!(chv < fc, "cloud-hypervisor {chv} vs firecracker {fc}");
        assert!((qemu - kata).abs() < 2.5, "kata {kata} tracks qemu {qemu}");
        assert!(gvisor < 8.0, "gvisor {gvisor} is the extreme outlier");
    }

    #[test]
    fn max_is_at_least_the_mean() {
        let bench = IperfBenchmark::default();
        let p = PlatformId::Docker.build();
        let mut rng = SimRng::seed_from(32);
        let stats = bench.run(&p, &mut rng);
        assert!(stats.max().unwrap() >= stats.mean());
    }
}
