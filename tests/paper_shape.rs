//! Integration tests spanning the whole workspace: regenerate figures
//! through the facade crate, verify the paper's headline shapes and pin
//! every paper figure to its recorded reference digest.

mod common;

use isolation_bench::prelude::*;

fn cfg() -> RunConfig {
    RunConfig::quick(2021)
}

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

#[test]
fn paper_figures_match_the_recorded_digests() {
    let figs: Vec<FigureData> = PAPER_EXPERIMENTS
        .iter()
        .map(|e| figures::run(*e, &cfg()))
        .collect();
    common::assert_recorded_digests(&figs, cfg().seed);
}

#[test]
fn figure_11_reproduces_the_network_ordering() {
    let fig = figures::run(ExperimentId::Fig11Iperf, &cfg());
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
    let fig = figures::run(ExperimentId::Fig17Mysql, &cfg());
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
    let fig = figures::run(ExperimentId::Fig18Hap, &cfg());
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
    for figure in figures::run_all(&cfg()) {
        let md = report::to_markdown(&figure);
        let csv = report::to_csv(&figure);
        assert!(
            md.contains("###"),
            "{:?} markdown missing title",
            figure.experiment
        );
        assert!(csv.lines().count() > 1, "{:?} csv empty", figure.experiment);
        assert!(!figure.series.is_empty());
    }
}

#[test]
fn results_are_reproducible_for_a_fixed_seed() {
    let a = figures::run(ExperimentId::Fig08Stream, &cfg());
    let b = figures::run(ExperimentId::Fig08Stream, &cfg());
    assert_eq!(a, b);
    let other_seed = figures::run(ExperimentId::Fig08Stream, &RunConfig::quick(999));
    assert_ne!(a, other_seed);
}
