//! Tinymembench: memory access latency and copy bandwidth (Figs. 6–7).

use memsim::bandwidth::CopyMethod;
use memsim::latency::RandomAccessModel;
use memsim::tlb::PageSize;
use platforms::Platform;
use simcore::stats::RunningStats;
use simcore::SimRng;

/// One point of the latency sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct LatencyPoint {
    /// Buffer size in bytes.
    pub buffer_bytes: u64,
    /// Statistics of the measured extra access latency in nanoseconds.
    pub latency_ns: RunningStats,
}

/// The tinymembench benchmark.
#[derive(Debug, Clone, Copy)]
pub struct TinymembenchBenchmark {
    /// Repetitions per buffer size.
    pub runs: usize,
    /// Page size used for the mappings.
    pub page_size: PageSize,
}

impl Default for TinymembenchBenchmark {
    fn default() -> Self {
        TinymembenchBenchmark {
            runs: 10,
            page_size: PageSize::Small4K,
        }
    }
}

impl TinymembenchBenchmark {
    /// Creates a benchmark with the given repetition count and 4 KiB pages.
    pub fn new(runs: usize) -> Self {
        TinymembenchBenchmark {
            runs: runs.max(1),
            page_size: PageSize::Small4K,
        }
    }

    /// Runs the random-access latency sweep over the paper's buffer sizes
    /// (2^16 through 2^26 bytes).
    ///
    /// Platforms that do not support huge pages fall back to 4 KiB pages,
    /// as Kata does in the paper.
    pub fn run_latency(&self, platform: &Platform, rng: &mut SimRng) -> Vec<LatencyPoint> {
        let page =
            if self.page_size == PageSize::Huge2M && !platform.memory().huge_pages_supported() {
                PageSize::Small4K
            } else {
                self.page_size
            };
        RandomAccessModel::paper_buffer_sizes()
            .into_iter()
            .map(|buffer_bytes| {
                let latency_ns: RunningStats = (0..self.runs)
                    .map(|_| {
                        platform
                            .memory()
                            .sample_access_latency(buffer_bytes, page, rng)
                            .as_nanos() as f64
                    })
                    .collect();
                LatencyPoint {
                    buffer_bytes,
                    latency_ns,
                }
            })
            .collect()
    }

    /// Runs the sequential copy bandwidth measurement; returns MiB/s
    /// statistics for the given instruction variant.
    pub fn run_bandwidth(
        &self,
        platform: &Platform,
        method: CopyMethod,
        rng: &mut SimRng,
    ) -> RunningStats {
        (0..self.runs)
            .map(|_| {
                platform
                    .memory()
                    .sample_copy_bandwidth(method, rng)
                    .mib_per_sec()
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use platforms::PlatformId;

    #[test]
    fn latency_sweep_reproduces_figure_6_shape() {
        let bench = TinymembenchBenchmark::new(5);
        let mut rng = SimRng::seed_from(3);
        let native = bench.run_latency(&PlatformId::Native.build(), &mut rng.split("native"));
        let fc = bench.run_latency(&PlatformId::Firecracker.build(), &mut rng.split("fc"));
        assert_eq!(native.len(), 11);
        // Latency grows with buffer size.
        assert!(native.last().unwrap().latency_ns.mean() > native[0].latency_ns.mean());
        // Firecracker is the outlier at large buffers, with larger error bars.
        let last = native.len() - 1;
        assert!(fc[last].latency_ns.mean() > native[last].latency_ns.mean() * 1.2);
        assert!(fc[last].latency_ns.std_dev() > native[last].latency_ns.std_dev());
    }

    #[test]
    fn huge_pages_shrink_large_buffer_latency_except_on_kata() {
        let mut rng = SimRng::seed_from(4);
        let small = TinymembenchBenchmark::new(5);
        let huge = TinymembenchBenchmark {
            page_size: PageSize::Huge2M,
            ..small
        };
        let native = PlatformId::Native.build();
        let s = small.run_latency(&native, &mut rng.split("s"));
        let h = huge.run_latency(&native, &mut rng.split("h"));
        assert!(h.last().unwrap().latency_ns.mean() < s.last().unwrap().latency_ns.mean() * 0.85);

        // Kata does not support huge pages, so both runs look the same.
        let kata = PlatformId::Kata.build();
        let ks = small.run_latency(&kata, &mut rng.split("ks"));
        let kh = huge.run_latency(&kata, &mut rng.split("kh"));
        let rel = (ks.last().unwrap().latency_ns.mean() - kh.last().unwrap().latency_ns.mean())
            .abs()
            / ks.last().unwrap().latency_ns.mean();
        assert!(rel < 0.1, "kata huge-page run deviates by {rel}");
    }

    #[test]
    fn sse2_copies_are_faster_than_regular_everywhere() {
        let bench = TinymembenchBenchmark::new(3);
        let mut rng = SimRng::seed_from(5);
        for id in [PlatformId::Native, PlatformId::Qemu, PlatformId::Kata] {
            let p = id.build();
            let regular = bench
                .run_bandwidth(&p, CopyMethod::Regular, &mut rng)
                .mean();
            let sse2 = bench.run_bandwidth(&p, CopyMethod::Sse2, &mut rng).mean();
            assert!(sse2 > regular, "{id:?}: sse2 {sse2} vs regular {regular}");
        }
    }
}
