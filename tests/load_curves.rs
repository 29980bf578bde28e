//! Acceptance tests of the open-loop load-curve subsystem: the sweep's
//! shape, the percentile ordering and saturation behaviour of the merged
//! figures, and bit-identical results across executor worker counts.

mod common;
mod pins;

use isolation_bench::harness::grid;
use isolation_bench::prelude::*;

const EXPERIMENTS: [ExperimentId; 2] = [ExperimentId::LoadMemcached, ExperimentId::LoadMysql];

/// The serial reference figures: every test in this file reads them.
fn load_figures() -> &'static [FigureData] {
    common::serial(&EXPERIMENTS)
}

#[test]
fn load_curves_are_bit_identical_for_1_2_and_8_workers() {
    common::assert_executor_reproduces(&["load_"], &EXPERIMENTS);
}

#[test]
fn load_figures_match_the_recorded_digests() {
    common::assert_recorded_digests(load_figures());
}

#[test]
fn load_curves_report_matches_the_committed_artifact() {
    pins::assert_report_matches(
        load_figures(),
        &EXPERIMENTS,
        include_str!("../BENCH_load_curves.json"),
    );
}

#[test]
fn load_findings_hold() {
    common::assert_findings(
        load_figures(),
        &["load-01", "load-02", "load-04", "load-03"],
    );
}

#[test]
fn load_sweeps_cover_enough_points_and_platforms() {
    for fig in load_figures() {
        let platforms = grid::platforms_of(fig, grid::LOAD_P50);
        assert!(
            platforms.len() >= 3,
            "{:?} covers only {platforms:?}",
            fig.experiment
        );
        for series in &fig.series {
            assert!(
                series.points.len() >= 5,
                "{:?}/{} sweeps only {} offered-load points",
                fig.experiment,
                series.label,
                series.points.len()
            );
        }
    }
}

#[test]
fn percentiles_are_ordered_at_every_offered_load() {
    for fig in load_figures() {
        let platforms = grid::platforms_of(fig, grid::LOAD_P50);
        for platform in &platforms {
            let series = |metric: &str| fig.series_named(&format!("{platform} {metric}")).unwrap();
            let p50 = series("p50 (us)");
            let p95 = series("p95 (us)");
            let p99 = series("p99 (us)");
            for i in 0..p50.points.len() {
                let (a, b, c) = (p50.points[i].mean, p95.points[i].mean, p99.points[i].mean);
                assert!(
                    a <= b && b <= c,
                    "{:?}/{platform} at {}: p50 {a} p95 {b} p99 {c}",
                    fig.experiment,
                    p50.points[i].x
                );
                assert!(a.is_finite() && c.is_finite());
                assert!(a > 0.0);
            }
        }
    }
}

#[test]
fn latency_is_non_decreasing_toward_saturation() {
    for fig in load_figures() {
        for series in fig
            .series
            .iter()
            .filter(|s| s.label.ends_with("p99 (us)") || s.label.ends_with("p50 (us)"))
        {
            let mut last = 0.0f64;
            for point in &series.points {
                assert!(
                    point.mean >= last,
                    "{:?}/{} not monotone at offered fraction {}: {} < {last}",
                    fig.experiment,
                    series.label,
                    point.x,
                    point.mean
                );
                last = point.mean;
            }
            // The curve must actually inflate, not just stay flat.
            let first = series.points.first().unwrap().mean;
            assert!(
                last > first,
                "{:?}/{} never inflates ({first} -> {last})",
                fig.experiment,
                series.label
            );
        }
    }
}

#[test]
fn achieved_throughput_tracks_offered_load_below_saturation() {
    for fig in load_figures() {
        for series in fig
            .series
            .iter()
            .filter(|s| s.label.ends_with("achieved (req/s)"))
        {
            let mut last = 0.0f64;
            for point in &series.points {
                assert!(
                    point.mean > last,
                    "{:?}/{} achieved throughput must grow with offered load",
                    fig.experiment,
                    series.label
                );
                last = point.mean;
            }
        }
    }
}
