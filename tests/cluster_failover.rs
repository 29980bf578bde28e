//! Acceptance tests of the replicated-cluster failover experiments at
//! the executor level: the merged figures must be bit-identical (and
//! render to identical CSV bytes) for any worker count and match the
//! recorded reference digests, and the sweep must cover every
//! platform × failover metric at every quorum, scatter and kill setting.

mod common;
mod pins;

use isolation_bench::harness::grid;
use isolation_bench::harness::Series;
use isolation_bench::prelude::*;

const EXPERIMENTS: [ExperimentId; 2] = [
    ExperimentId::ClusterFailoverMemcached,
    ExperimentId::ClusterFailoverMysql,
];

/// Every point of the failover sweep: the plain-routing anchor, the
/// quorum grid, the scatter fan-outs and the three kill settings.
const SETTING_LABELS: [&str; 10] = [
    "r1",
    "r2 w1",
    "r2 w2",
    "r3 w1",
    "r3 w3",
    "r3 k4",
    "r3 k16",
    "r2 fail",
    "r2 failrec",
    "r3 failrec",
];

/// The serial reference figures: every test in this file reads them.
fn failover_figures() -> &'static [FigureData] {
    common::serial(&EXPERIMENTS)
}

fn platforms_of(fig: &FigureData) -> Vec<String> {
    grid::platforms_of(fig, grid::FAILOVER_SCATTER_P99)
}

fn series<'f>(fig: &'f FigureData, platform: &str, metric: &str) -> &'f Series {
    fig.series_named(&format!("{platform} {metric}"))
        .unwrap_or_else(|| panic!("{:?} lacks {platform} {metric}", fig.experiment))
}

#[test]
fn failover_figures_are_bit_identical_for_1_2_and_8_workers() {
    common::assert_executor_reproduces(&["cluster_failover"], &EXPERIMENTS);
}

#[test]
fn failover_figures_match_the_recorded_digests() {
    common::assert_recorded_digests(failover_figures());
}

#[test]
fn failover_report_matches_the_committed_artifact() {
    pins::assert_report_matches(
        failover_figures(),
        &EXPERIMENTS,
        include_str!("../BENCH_cluster_failover.json"),
    );
}

#[test]
fn failover_findings_hold() {
    common::assert_findings(
        failover_figures(),
        &["failover-01", "failover-02", "failover-03"],
    );
}

#[test]
fn sweeps_cover_every_platform_metric_and_setting() {
    for fig in failover_figures() {
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
                for label in SETTING_LABELS {
                    assert!(
                        s.points.iter().any(|p| p.x == label),
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
fn fault_injection_marks_exactly_the_kill_settings() {
    // `fail at` is the µs offset of the deterministic shard kill; the
    // −1 sentinel marks fault-free settings. Hand-offs only happen when
    // a shard dies, and a kill must always re-route at least one key.
    for fig in failover_figures() {
        for platform in platforms_of(fig) {
            let fail_at = series(fig, &platform, grid::FAILOVER_FAIL_AT);
            let handoffs = series(fig, &platform, grid::FAILOVER_HANDOFFS);
            for point in &fail_at.points {
                let killed = matches!(point.x.as_str(), "r2 fail" | "r2 failrec" | "r3 failrec");
                let moved = handoffs.mean_of(&point.x).unwrap();
                if killed {
                    assert!(
                        point.mean > 0.0 && moved > 0.0,
                        "{:?}/{platform} {}: kill at {} with {} hand-offs",
                        fig.experiment,
                        point.x,
                        point.mean,
                        moved
                    );
                } else {
                    assert!(
                        point.mean == -1.0 && moved == 0.0,
                        "{:?}/{platform} {}: fault-free point reports kill at {} \
                         with {} hand-offs",
                        fig.experiment,
                        point.x,
                        point.mean,
                        moved
                    );
                }
            }
        }
    }
}
