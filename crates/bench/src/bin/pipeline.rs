//! Machine-readable middleware-pipeline bench runner.
//!
//! Runs the two pipeline experiments (`pipeline_memcached`,
//! `pipeline_mysql`) twice — serially (1 worker) and with N workers —
//! and writes `BENCH_pipeline.json` with per-platform depth ×
//! cache-hit-rate sweeps (sojourn percentiles, per-request stage tax,
//! short-circuit / cache-hit / drop fractions). Exits non-zero if the
//! serial and parallel runs disagree, if an experiment is missing, if
//! the emitted JSON contains any non-finite value (NaN/inf), or if the
//! sweep violates the pipeline's domain invariants: the deepest chain at
//! the baseline cache hit rate must not undercut the shallowest
//! (`d1 h0.90`) on median latency, and every fraction series must stay
//! within [0, 1].
//!
//! Run with: `cargo run --release -p bench --bin pipeline`
//!
//! Flags:
//! * `--paper` — full-scale configuration (default is quick)
//! * `--quick` — quick configuration (the default; accepted for symmetry)
//! * `--workers N` — parallel worker count (default: available parallelism)
//! * `--trials N` — override every experiment's trial count
//! * `--out PATH` — output path (default `BENCH_pipeline.json`)
//! * `--trace` — additionally run one traced depth-4 sweep point and
//!   write `TRACE_pipeline.json` (Chrome trace events) plus
//!   `BENCH_trace_pipeline.json` (the windowed-metrics timeline)

use std::process::ExitCode;

use harness::cli::{run_sweep_bench, SweepBench};
use harness::{grid, ExperimentId, FigureData, Series};
use workloads::pipeline::BASELINE_HIT_RATE;

const EXPERIMENTS: &[ExperimentId] =
    &[ExperimentId::PipelineMemcached, ExperimentId::PipelineMysql];

/// The depth gate: a deeper chain at [`BASELINE_HIT_RATE`] cannot be
/// cheaper at the median than a shallower one, so the deepest such point
/// must not undercut the shallowest. Both are found by their
/// `d<depth> h<rate>` labels; the hit-rate and miss-storm points are
/// left out.
fn depth_gate(slug: &str, platform: &str, p50: &Series, failures: &mut Vec<String>) {
    let suffix = format!(" h{BASELINE_HIT_RATE:.2}");
    let depth =
        |x: &str| -> Option<usize> { x.strip_suffix(&suffix)?.strip_prefix('d')?.parse().ok() };
    let warm = p50.points.iter().filter_map(|p| Some((depth(&p.x)?, p)));
    let (Some((_, shallow)), Some((_, deep))) = (
        warm.clone().min_by_key(|(d, _)| *d),
        warm.max_by_key(|(d, _)| *d),
    ) else {
        failures.push(format!("{slug}/{platform}: no warm-cache depth points"));
        return;
    };
    if deep.mean < shallow.mean {
        failures.push(format!(
            "{slug}/{platform}: p50 at \"{}\" ({:.1} us) undercuts \"{}\" ({:.1} us)",
            deep.x, deep.mean, shallow.x, shallow.mean,
        ));
    }
}

/// The domain invariants of one pipeline figure: the depth gate, and
/// every fraction metric is a probability.
fn domain_gates(fig: &FigureData, failures: &mut Vec<String>) {
    let slug = fig.experiment.slug();
    for platform in grid::platforms_of(fig, grid::PIPELINE_STAGE_TAX) {
        let series = |metric: &str| {
            fig.series_named(&format!("{platform} {metric}"))
                .unwrap_or_else(|| panic!("{metric} series missing for {platform}"))
        };
        depth_gate(slug, &platform, series(grid::PIPELINE_P50), failures);
        for metric in [
            grid::PIPELINE_SHORT_CIRCUIT,
            grid::PIPELINE_CACHE_HIT,
            grid::PIPELINE_DROP_RATE,
        ] {
            for point in &series(metric).points {
                if !(0.0..=1.0).contains(&point.mean) {
                    failures.push(format!(
                        "{slug}/{platform}: {metric} at \"{}\" is {} (outside [0, 1])",
                        point.x, point.mean,
                    ));
                }
            }
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let bench = SweepBench {
        name: "pipeline",
        // `pipeline` selects exactly the two middleware-pipeline experiments.
        shard: "pipeline",
        experiments: EXPERIMENTS,
        schema: "isolation-bench/pipeline/v1",
        default_out: "BENCH_pipeline.json",
        trace: Some("pipeline"),
    };
    run_sweep_bench(&bench, &args, |run, failures| {
        for experiment in EXPERIMENTS {
            if let Some(fig) = run.serial.figure(*experiment) {
                domain_gates(fig, failures);
            }
        }
        Vec::new()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use harness::DataPoint;

    fn p50(points: &[(&str, f64)]) -> Series {
        let mut series = Series::new("native p50 (us)");
        for (i, (x, mean)) in points.iter().enumerate() {
            series.points.push(DataPoint {
                x: x.to_string(),
                x_value: i as f64,
                mean: *mean,
                std_dev: 0.0,
            });
        }
        series
    }

    fn gate(points: &[(&str, f64)]) -> Vec<String> {
        let mut failures = Vec::new();
        depth_gate("pipeline_memcached", "native", &p50(points), &mut failures);
        failures
    }

    #[test]
    fn the_deepest_warm_chain_is_gated_not_the_last_sweep_point() {
        // d8 undercuts d1 while the miss-storm point, last in sweep order,
        // sits far above it.
        let failures = gate(&[
            ("d1 h0.90", 12.0),
            ("d4 h0.90", 18.0),
            ("d8 h0.90", 11.0),
            ("d4 h0.50", 30.0),
            ("d4 miss-storm", 200.0),
        ]);
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(failures[0].contains("\"d8 h0.90\" (11.0 us) undercuts \"d1 h0.90\" (12.0 us)"));
    }

    #[test]
    fn a_depth_monotone_sweep_passes_whatever_its_storm_point_does() {
        let failures = gate(&[
            ("d1 h0.90", 12.0),
            ("d8 h0.90", 24.0),
            ("d4 h1.00", 1.0),
            ("d4 miss-storm", 5.0),
        ]);
        assert!(failures.is_empty(), "{failures:?}");
        assert_eq!(gate(&[("d4 miss-storm", 5.0)]).len(), 1);
    }
}
