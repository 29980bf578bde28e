//! Integration tests spanning the whole workspace: the paper's figures,
//! computed through the facade crate, are bit-identical across executor
//! worker counts, match their recorded reference digests and hold the
//! paper's headline shapes.

mod common;

use isolation_bench::prelude::*;

use common::cfg;

/// The paper's fifteen experiments, Fig. 5 to Fig. 18 plus sysbench prime.
const PAPER_EXPERIMENTS: [ExperimentId; 15] = [
    ExperimentId::Fig05Ffmpeg,
    ExperimentId::SysbenchPrime,
    ExperimentId::Fig06MemLatency,
    ExperimentId::Fig07MemBandwidth,
    ExperimentId::Fig08Stream,
    ExperimentId::Fig09FioThroughput,
    ExperimentId::Fig10FioLatency,
    ExperimentId::Fig11Iperf,
    ExperimentId::Fig12Netperf,
    ExperimentId::Fig13BootContainers,
    ExperimentId::Fig14BootHypervisors,
    ExperimentId::Fig15BootOsv,
    ExperimentId::Fig16Memcached,
    ExperimentId::Fig17Mysql,
    ExperimentId::Fig18Hap,
];

/// The serial reference figures: every test in this file but the
/// reproducibility check reads them.
fn paper_figures() -> &'static [FigureData] {
    common::serial(&PAPER_EXPERIMENTS)
}

/// The serial reference figure of one paper experiment.
fn figure(experiment: ExperimentId) -> &'static FigureData {
    paper_figures()
        .iter()
        .find(|f| f.experiment == experiment)
        .unwrap_or_else(|| panic!("no {experiment:?} paper figure"))
}

#[test]
fn paper_figures_are_bit_identical_for_1_2_and_8_workers() {
    // Fig. 5 to Fig. 18 share the `fig` slug prefix; sysbench prime is the
    // one paper experiment without it.
    common::assert_executor_reproduces(&["fig", "sysbench_prime"], &PAPER_EXPERIMENTS);
}

#[test]
fn paper_figures_match_the_recorded_digests() {
    common::assert_recorded_digests(paper_figures());
}

#[test]
fn the_papers_findings_hold() {
    common::assert_findings(
        paper_figures(),
        &[
            "finding-01",
            "finding-01b",
            "finding-03",
            "finding-04",
            "finding-06",
            "finding-07",
            "network-bridge",
            "network-hypervisor",
            "finding-12",
            "finding-13",
            "finding-14",
            "finding-15",
            "finding-24",
            "finding-25",
            "finding-26",
            "finding-27",
        ],
    );
}

#[test]
fn figure_11_reproduces_the_network_ordering() {
    let fig = figure(ExperimentId::Fig11Iperf);
    let s = &fig.series[0];
    let v = |x: &str| s.mean_of(x).unwrap();
    assert!(v("native") > v("osv"));
    assert!(v("osv") > v("docker"));
    assert!(v("docker") > v("qemu"));
    assert!(v("qemu") > v("cloud-hypervisor"));
    assert!(v("gvisor") < v("cloud-hypervisor") * 0.5);
}

#[test]
fn figure_17_groups_hold_through_the_facade() {
    let fig = figure(ExperimentId::Fig17Mysql);
    let best = |label: &str| {
        fig.series_named(label)
            .unwrap()
            .points
            .iter()
            .map(|p| p.mean)
            .fold(0.0f64, f64::max)
    };
    let main_group = best("docker").min(best("qemu")).min(best("native"));
    assert!(
        best("osv") < main_group * 0.5,
        "osv group must be far below"
    );
    assert!(best("gvisor") < main_group * 0.5);
    assert!(best("firecracker") < main_group * 0.85);
    assert!(best("kata") < main_group * 0.9);
}

#[test]
fn figure_18_orders_firecracker_widest_and_osv_narrowest() {
    let fig = figure(ExperimentId::Fig18Hap);
    let s = fig.series_named("distinct host kernel functions").unwrap();
    let fc = s.mean_of("firecracker").unwrap();
    let osv = s.mean_of("osv").unwrap();
    for p in &s.points {
        if p.x != "firecracker" {
            assert!(p.mean < fc, "{} not below firecracker", p.x);
        }
        if p.x != "osv" && p.x != "osv-fc" {
            assert!(p.mean > osv, "{} not above osv", p.x);
        }
    }
}

#[test]
fn every_figure_generates_non_empty_markdown_and_csv() {
    // The sweep families' figures are checked the same way by their
    // files' worker-count tests.
    common::assert_renders(paper_figures());
}

#[test]
fn results_are_reproducible_for_a_fixed_seed() {
    let a = figures::run(ExperimentId::Fig08Stream, &cfg());
    let b = figures::run(ExperimentId::Fig08Stream, &cfg());
    assert_eq!(a, b);
    let other_seed = figures::run(ExperimentId::Fig08Stream, &RunConfig::quick(999));
    assert_ne!(a, other_seed);
}
