//! Figure generation: the serial walk over the experiment grid.
//!
//! Every figure is generated from the cell decomposition in
//! [`crate::grid`]: the experiment's canonical platform entries × trials,
//! each with an independently derived random stream, merged back in
//! canonical order. Because the cells are stateless, this serial path
//! produces exactly the same bytes as the parallel
//! [`crate::executor::Executor`] for any worker count.

use crate::config::RunConfig;
use crate::experiment::{ExperimentId, FigureData};
use crate::grid;

/// Runs a single experiment and returns its figure data.
pub fn run(experiment: ExperimentId, cfg: &RunConfig) -> FigureData {
    let outputs: Vec<Vec<grid::CellOutput>> = grid::entries(experiment)
        .iter()
        .map(|entry| {
            (0..grid::trials(experiment, cfg))
                .map(|trial| grid::run_cell(experiment, entry, trial, cfg))
                .collect()
        })
        .collect();
    grid::merge(experiment, &outputs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use platforms::PlatformId;
    use workloads::OltpBenchmark;

    fn cfg() -> RunConfig {
        RunConfig::quick(7)
    }

    #[test]
    fn bar_figures_cover_the_paper_platform_set() {
        let fig = run(ExperimentId::Fig05Ffmpeg, &cfg());
        assert_eq!(fig.series[0].points.len(), PlatformId::paper_set().len());
        let iperf = run(ExperimentId::Fig11Iperf, &cfg());
        assert_eq!(iperf.series[0].points.len(), PlatformId::paper_set().len());
    }

    #[test]
    fn fio_figures_exclude_the_right_platforms() {
        let fig = run(ExperimentId::Fig09FioThroughput, &cfg());
        let read = fig.series_named("read (MiB/s)").unwrap();
        assert!(read.mean_of("firecracker").is_none());
        assert!(read.mean_of("osv").is_none());
        assert!(read.mean_of("qemu").is_some());
        let lat = run(ExperimentId::Fig10FioLatency, &cfg());
        assert!(lat.series[0].mean_of("gvisor").is_none());
        assert!(lat.series[0].mean_of("kata-virtiofs").is_some());
    }

    #[test]
    fn boot_cdfs_have_monotone_percentiles() {
        let fig = run(ExperimentId::Fig14BootHypervisors, &cfg());
        for series in &fig.series {
            let mut last = 0.0;
            for p in &series.points {
                assert!(p.mean >= last, "{} not monotone", series.label);
                last = p.mean;
            }
        }
    }

    #[test]
    fn mysql_sweep_has_one_series_per_platform() {
        let fig = run(ExperimentId::Fig17Mysql, &cfg());
        assert_eq!(fig.series.len(), PlatformId::paper_set().len());
        for s in &fig.series {
            assert_eq!(s.points.len(), OltpBenchmark::quick().thread_counts.len());
        }
    }

    #[test]
    fn hap_figure_has_both_metrics() {
        let fig = run(ExperimentId::Fig18Hap, &cfg());
        assert_eq!(fig.series.len(), 2);
        assert_eq!(fig.series[0].points.len(), PlatformId::paper_set().len());
    }
}
