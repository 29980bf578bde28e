//! Acceptance tests of the sharded-cluster subsystem: the merged
//! figures' shape across the shard-count × skew × routing sweep,
//! bit-identical results across executor worker counts and against the
//! recorded reference digests, and the monotone response of the hot
//! shard's load share to Zipf skew.

mod common;
mod pins;

use isolation_bench::harness::grid;
use isolation_bench::harness::Series;
use isolation_bench::prelude::*;
use isolation_bench::workloads::{ClusterBenchmark, ClusterSetting, LoadBackend};

const EXPERIMENTS: [ExperimentId; 2] = [ExperimentId::ClusterMemcached, ExperimentId::ClusterMysql];

/// Labels of the utilization-constant scale-out sweep, in ascending
/// shard-count order, plus the two routing-policy points.
const SCALE_LABELS: [&str; 5] = ["s1", "s4", "s16", "s64", "s256"];
const POLICY_LABELS: [&str; 2] = ["s16 pinned", "s16 rebal"];

/// The serial reference figures: every test in this file reads them.
fn cluster_figures() -> &'static [FigureData] {
    common::serial(&EXPERIMENTS)
}

fn platforms_of(fig: &FigureData) -> Vec<String> {
    grid::platforms_of(fig, grid::CLUSTER_HOT_P99)
}

fn series<'f>(fig: &'f FigureData, platform: &str, metric: &str) -> &'f Series {
    fig.series_named(&format!("{platform} {metric}"))
        .unwrap_or_else(|| panic!("{:?} lacks {platform} {metric}", fig.experiment))
}

#[test]
fn cluster_figures_are_bit_identical_for_1_2_and_8_workers() {
    common::assert_executor_reproduces(&["cluster_m"], &EXPERIMENTS);
}

#[test]
fn cluster_figures_match_the_recorded_digests() {
    common::assert_recorded_digests(cluster_figures());
}

#[test]
fn cluster_report_matches_the_committed_artifact() {
    pins::assert_report_matches(
        cluster_figures(),
        &EXPERIMENTS,
        include_str!("../BENCH_cluster.json"),
    );
}

#[test]
fn cluster_findings_hold() {
    common::assert_findings(
        cluster_figures(),
        &["cluster-01", "cluster-02", "cluster-03"],
    );
}

#[test]
fn sweeps_cover_every_platform_metric_and_routing_point() {
    for fig in cluster_figures() {
        let platforms = platforms_of(fig);
        assert!(
            platforms.len() >= 3,
            "{:?} covers only {platforms:?}",
            fig.experiment
        );
        assert_eq!(
            fig.series.len(),
            platforms.len() * grid::metrics(fig.experiment).len()
        );
        for platform in &platforms {
            for metric in grid::metrics(fig.experiment) {
                let s = series(fig, platform, metric);
                assert!(
                    s.points.len() >= 8,
                    "{:?}/{platform} {metric} sweeps only {} points",
                    fig.experiment,
                    s.points.len()
                );
                for label in SCALE_LABELS.iter().chain(&POLICY_LABELS) {
                    assert!(
                        s.points.iter().any(|p| p.x == *label),
                        "{:?}/{platform} {metric} lacks the {label} point",
                        fig.experiment
                    );
                }
                for p in &s.points {
                    assert!(p.mean.is_finite());
                }
            }
        }
    }
}

#[test]
fn scale_out_trades_median_latency_for_hot_shard_tail() {
    // The utilization-constant sweep: at s256 the median improves on the
    // single shard (shorter per-shard queues), but the hot keys all land
    // on one shard, so the hottest shard's p99 grows and the steady-phase
    // imbalance is far above 1. p50 must never exceed p99 anywhere.
    for fig in cluster_figures() {
        for platform in platforms_of(fig) {
            let p50 = series(fig, &platform, grid::CLUSTER_P50);
            let hot = series(fig, &platform, grid::CLUSTER_HOT_P99);
            let imb = series(fig, &platform, grid::CLUSTER_IMBALANCE);
            let at = |s: &Series, label: &str| {
                s.mean_of(label)
                    .unwrap_or_else(|| panic!("{platform} lacks {label}"))
            };
            assert!(
                at(p50, "s256") < at(p50, "s1"),
                "{:?}/{platform}: scale-out must improve the median",
                fig.experiment
            );
            assert!(
                at(hot, "s256") > at(hot, "s1"),
                "{:?}/{platform}: the hot shard's tail must grow with shard count",
                fig.experiment
            );
            assert!(
                at(imb, "s256") > 4.0 && at(imb, "s1") < 1.0 + 1e-9,
                "{:?}/{platform}: imbalance must concentrate as shards multiply",
                fig.experiment
            );
            let p99 = series(fig, &platform, grid::CLUSTER_P99);
            for point in &p50.points {
                let ceiling = p99.mean_of(&point.x).unwrap();
                assert!(
                    point.mean <= ceiling,
                    "{:?}/{platform}: p50 {} exceeds p99 {} at {}",
                    fig.experiment,
                    point.mean,
                    ceiling,
                    point.x
                );
            }
        }
    }
}

#[test]
fn rebalancing_beats_pinned_routing_on_imbalance_and_tail() {
    for fig in cluster_figures() {
        for platform in platforms_of(fig) {
            let imb = series(fig, &platform, grid::CLUSTER_IMBALANCE);
            let hot = series(fig, &platform, grid::CLUSTER_HOT_P99);
            let pinned = imb.mean_of("s16 pinned").unwrap();
            let rebal = imb.mean_of("s16 rebal").unwrap();
            assert!(
                rebal < pinned * 0.75,
                "{:?}/{platform}: resharding must relieve the pinned imbalance \
                 (pinned {pinned:.2}, rebal {rebal:.2})",
                fig.experiment
            );
            assert!(
                hot.mean_of("s16 rebal").unwrap() < hot.mean_of("s16 pinned").unwrap(),
                "{:?}/{platform}: resharding must relieve the hot shard's tail",
                fig.experiment
            );
        }
    }
}

#[test]
fn hot_shard_load_share_is_monotone_in_zipf_skew() {
    // Direct sweep over the skew parameter at a fixed shard count: the
    // share of steady-phase arrivals the hottest shard absorbs grows
    // with the Zipf exponent (small tolerance for sampling noise), and
    // strong skew concentrates visibly more than a uniform draw.
    let platform = PlatformId::Native.build();
    let thetas = [0.0, 0.5, 0.9, 0.99];
    let bench = ClusterBenchmark {
        requests_per_point: 1_500,
        runs: 1,
        sweep: thetas
            .iter()
            .map(|&theta| ClusterSetting::hashed(16, theta))
            .collect(),
        ..ClusterBenchmark::quick(LoadBackend::Memcached)
    };
    let points = bench
        .run_trial(&platform, &mut SimRng::seed_from(2021))
        .unwrap();
    assert_eq!(points.len(), thetas.len());
    let shares: Vec<f64> = points.iter().map(|p| p.hot_share).collect();
    let mut last = 0.0f64;
    for (theta, share) in thetas.iter().zip(&shares) {
        assert!(
            (0.0..=1.0).contains(share),
            "share {share} at theta {theta} is not a fraction"
        );
        assert!(
            *share >= last - 0.02,
            "hot-shard share regresses at theta {theta}: {share} after {last} ({shares:?})"
        );
        last = last.max(*share);
    }
    assert!(
        shares[thetas.len() - 1] > shares[0] * 1.5,
        "strong skew must visibly concentrate load: {shares:?}"
    );
}
