//! Machine-readable sharded-cluster bench runner.
//!
//! Runs the two cluster experiments (`cluster_memcached`,
//! `cluster_mysql`) twice — serially (1 worker) and with N workers —
//! then times [`REPLAYS`] replays of the Memcached sweep from one seed.
//! Writes `BENCH_cluster.json` with the per-platform shard-count × skew ×
//! routing sweeps (cluster and hot-shard percentiles, load imbalance,
//! achieved throughput, drop fractions) and the median replay's wall
//! clock and events/sec. Exits non-zero if the serial and parallel runs
//! disagree, if a replay's points differ from the first replay's, if an
//! experiment is missing, if the emitted JSON contains a non-finite
//! value (NaN/inf), or if the sweep violates the cluster's domain
//! invariants: imbalance is a max/mean ratio (>= 1), the drop metric is
//! a fraction, and p50 cannot exceed p99.
//!
//! With `--failover` it instead runs the two replication/failover
//! experiments (`cluster_failover_memcached`, `cluster_failover_mysql`)
//! — the R/W-quorum × scatter fan-out × kill/recover sweep — and writes
//! `BENCH_cluster_failover.json`. On top of the shared gates it exits
//! non-zero unless the R=1 quorum sweep replays the plain single-shard
//! routing bit-for-bit, the platform-averaged scatter p99 is monotone
//! non-decreasing in the fan-out on both backends, every fault point
//! records its failure instant and hand-offs, and every
//! kill-then-recover point's post-recovery drop rate returns to within
//! the pre-failure band.
//!
//! Run with: `cargo run --release -p bench --bin cluster`
//!
//! Flags:
//! * `--paper` — full-scale configuration (default is quick)
//! * `--quick` — quick configuration (the default; accepted for symmetry)
//! * `--failover` — run the replication/failover sweep instead
//! * `--workers N` — parallel worker count (default: available parallelism)
//! * `--trials N` — override every experiment's trial count
//! * `--out PATH` — output path (default `BENCH_cluster.json`, or
//!   `BENCH_cluster_failover.json` under `--failover`)
//! * `--baseline PATH` — compare the median timed replay's events/sec
//!   against a perf baseline (see `ci/perf_baseline.json`) and exit
//!   non-zero on regression
//! * `--trace` — additionally run one traced 16-shard rebalance point and
//!   write `TRACE_cluster.json` (Chrome trace events) plus
//!   `BENCH_trace_cluster.json` (the windowed-metrics timeline)

use std::process::ExitCode;
use std::time::Instant;

use harness::cli::{flag_value, json_number, replay_median, run_sweep_bench, BenchRun, SweepBench};
use harness::executor::RunReport;
use harness::{grid, ExperimentId, FigureData};
use platforms::PlatformId;
use simcore::SimRng;
use workloads::cluster::{ClusterBenchmark, ClusterSetting, BASELINE_THETA};
use workloads::LoadBackend;

/// Timed replays of the Memcached sweep. One replay lasts 15-50 ms in
/// quick mode, short enough that its events/sec swings by half its value
/// from run to run; the median of five is what the report holds and the
/// baseline gates.
const REPLAYS: usize = 5;

/// Post-recovery drop rate may exceed the pre-failure rate by at most
/// this much before the kill-then-recover gate fails — the "returns to
/// the pre-failure band" acceptance criterion.
const RECOVERY_BAND: f64 = 0.02;

/// The plain mode: the shard-count × skew × routing sweep. `cluster_m`
/// selects exactly its two experiments (`cluster_memcached`,
/// `cluster_mysql`); the failover slugs continue with `_failover_` and
/// stay out of this mode.
const PLAIN: SweepBench = SweepBench {
    name: "cluster",
    shard: "cluster_m",
    experiments: &[ExperimentId::ClusterMemcached, ExperimentId::ClusterMysql],
    schema: "isolation-bench/cluster/v2",
    default_out: "BENCH_cluster.json",
    trace: Some("cluster"),
};

/// The `--failover` mode: the replication/failover sweep.
const FAILOVER: SweepBench = SweepBench {
    name: "cluster --failover",
    shard: "cluster_failover",
    experiments: &[
        ExperimentId::ClusterFailoverMemcached,
        ExperimentId::ClusterFailoverMysql,
    ],
    schema: "isolation-bench/cluster-failover/v2",
    default_out: "BENCH_cluster_failover.json",
    trace: None,
};

/// The Memcached benchmark the timed replay runs: the plain
/// shard-count × skew × routing sweep, or the replication/failover
/// sweep under `--failover`.
fn sweep_bench(failover: bool, quick: bool) -> ClusterBenchmark {
    match (failover, quick) {
        (false, false) => ClusterBenchmark::new(LoadBackend::Memcached),
        (false, true) => ClusterBenchmark::quick(LoadBackend::Memcached),
        (true, false) => ClusterBenchmark::failover(LoadBackend::Memcached),
        (true, true) => ClusterBenchmark::failover_quick(LoadBackend::Memcached),
    }
}

/// [`REPLAYS`] timed replays of the Memcached sweep on the native
/// platform, each from the same seed, so each must reproduce the first
/// one's points. The median replay's events/sec must clear the
/// `--baseline` floor for the mode; returns the report's
/// `sweep_throughput` field.
fn timed_sweep(
    args: &[String],
    run: &BenchRun,
    failover: bool,
    failures: &mut Vec<String>,
) -> (&'static str, String) {
    let platform = PlatformId::Native.build();
    let bench = sweep_bench(failover, run.mode == "quick");
    let replays = replay_median(REPLAYS, "timed sweep", failures, || {
        let mut rng = SimRng::seed_from(run.config.seed);
        let start = Instant::now();
        let points = bench
            .run_trial(&platform, &mut rng)
            .expect("the native cluster sweep configuration is valid");
        (start.elapsed().as_secs_f64(), points)
    });
    let events: u64 = replays.first.iter().map(|p| p.events).sum();
    let elapsed_secs = replays.median();
    let wall_ms = elapsed_secs * 1e3;
    let measured = events as f64 / elapsed_secs.max(f64::MIN_POSITIVE);
    println!(
        "timed sweep replay (median of {REPLAYS}): {wall_ms:.1} ms, {measured:.0} events/sec \
         (replays {:.1}-{:.1} ms)",
        replays.sorted[0] * 1e3,
        replays.sorted[REPLAYS - 1] * 1e3
    );

    if let Some(path) = flag_value(args, "--baseline") {
        let baseline = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("cannot read baseline {path}: {e}"));
        let sweep = if failover {
            "cluster_failover"
        } else {
            "cluster"
        };
        let key = format!("{}_{sweep}_min_events_per_sec", run.mode);
        let min_eps =
            json_number(&baseline, &key).unwrap_or_else(|| panic!("baseline {path} lacks {key}"));
        println!(
            "baseline ({}): min {min_eps:.0} events/sec (measured {measured:.0})",
            run.mode
        );
        if measured < min_eps {
            failures.push(format!(
                "cluster throughput {measured:.0} events/sec regressed below the baseline floor {min_eps:.0}"
            ));
        }
    }
    (
        "sweep_throughput",
        format!(
            "{{\"replays\": {REPLAYS}, \"wall_ms\": {wall_ms:.3}, \"events_per_sec\": {measured:.1}}}"
        ),
    )
}

/// The invariants both modes check on every platform: the drop metric is
/// a fraction and p50 cannot exceed p99; the plain mode's imbalance is
/// also a max/mean ratio (>= 1).
fn domain_gates(fig: &FigureData, failures: &mut Vec<String>) {
    let slug = fig.experiment.slug();
    for platform in grid::platforms_of(fig, grid::CLUSTER_P50) {
        let series = |metric: &str| {
            fig.series_named(&format!("{platform} {metric}"))
                .unwrap_or_else(|| panic!("{metric} series missing for {platform}"))
        };
        for point in &series(grid::CLUSTER_DROP_RATE).points {
            if !(0.0..=1.0).contains(&point.mean) {
                failures.push(format!(
                    "{slug}/{platform}: drop fraction at \"{}\" is {} (outside [0, 1])",
                    point.x, point.mean,
                ));
            }
        }
        let p99 = series(grid::CLUSTER_P99);
        for point in &series(grid::CLUSTER_P50).points {
            let Some(p99_mean) = p99.mean_of(&point.x) else {
                continue;
            };
            if point.mean > p99_mean {
                failures.push(format!(
                    "{slug}/{platform}: p50 at \"{}\" ({:.1} us) exceeds p99 ({:.1} us)",
                    point.x, point.mean, p99_mean,
                ));
            }
        }
        if PLAIN.experiments.contains(&fig.experiment) {
            for point in &series(grid::CLUSTER_IMBALANCE).points {
                if point.mean < 1.0 {
                    failures.push(format!(
                        "{slug}/{platform}: imbalance at \"{}\" is {} (a max/mean ratio below 1)",
                        point.x, point.mean,
                    ));
                }
            }
        }
    }
}

/// The R=1-degenerates-to-PR-7 gate: the quorum sweep reduced to a
/// single `replicated(16, 1, 1)` setting (scatter off, so no scatter
/// percentile accrues) must reproduce the plain `hashed(16)` sweep
/// point field for field, label aside, on several platforms.
fn r1_matches_plain(quick: bool, seed: u64, failures: &mut Vec<String>) -> bool {
    let mut ok = true;
    for platform_id in [PlatformId::Native, PlatformId::Docker, PlatformId::Qemu] {
        let platform = platform_id.build();
        let single = |sweep: Vec<ClusterSetting>| {
            ClusterBenchmark {
                scatter_fraction: 0.0,
                sweep,
                ..sweep_bench(false, quick)
            }
            .run_trial(&platform, &mut SimRng::seed_from(seed))
            .expect("the degradation-gate configuration is valid")
        };
        let plain = single(vec![ClusterSetting::hashed(16, BASELINE_THETA)]);
        let quorum = single(vec![ClusterSetting::replicated(16, 1, 1)]);
        let mut relabelled = quorum[0].clone();
        relabelled.label = plain[0].label.clone();
        if plain[0] != relabelled {
            failures.push(format!(
                "{platform_id:?}: the R=1 quorum sweep diverged from plain single-shard routing"
            ));
            ok = false;
        }
    }
    ok
}

/// The max-of-K gate: on both backends the scatter p99 averaged over
/// the platform set must be monotone non-decreasing across the K=1/4/16
/// fan-out settings (per-platform p99s at quick scale carry too few
/// scatter samples to gate individually).
fn scatter_monotone(serial: &RunReport, failures: &mut Vec<String>) -> bool {
    let mut ok = true;
    for experiment in FAILOVER.experiments {
        let Some(fig) = serial.figure(*experiment) else {
            // The driver already reported the missing experiment.
            continue;
        };
        let platforms = grid::platforms_of(fig, grid::FAILOVER_SCATTER_P99);
        let mean_at = |label: &str| {
            let sum: f64 = platforms
                .iter()
                .map(|platform| {
                    fig.series_named(&format!("{platform} {}", grid::FAILOVER_SCATTER_P99))
                        .and_then(|s| s.mean_of(label))
                        .unwrap_or_else(|| panic!("scatter p99 at {label:?} missing"))
                })
                .sum();
            sum / platforms.len().max(1) as f64
        };
        let (k1, k4, k16) = (mean_at("r3 w1"), mean_at("r3 k4"), mean_at("r3 k16"));
        if !(k1 > 0.0 && k1 <= k4 && k4 <= k16) {
            failures.push(format!(
                "{}: platform-mean scatter p99 not monotone in fan-out ({k1:.1}/{k4:.1}/{k16:.1} us at K=1/4/16)",
                experiment.slug()
            ));
            ok = false;
        }
    }
    ok
}

/// The failure-dynamics gate: every fault point records a positive
/// failure instant and hand-offs, fault-free points the -1 sentinel,
/// the drop rate spikes inside the failure window, and on
/// kill-then-recover points the post-recovery drop rate returns to
/// within [`RECOVERY_BAND`] of the pre-failure rate.
fn spike_subsides(serial: &RunReport, failures: &mut Vec<String>) -> bool {
    let mut ok = true;
    for experiment in FAILOVER.experiments {
        let Some(fig) = serial.figure(*experiment) else {
            continue;
        };
        for platform in grid::platforms_of(fig, grid::FAILOVER_SCATTER_P99) {
            let at = |metric: &str, label: &str| {
                fig.series_named(&format!("{platform} {metric}"))
                    .and_then(|s| s.mean_of(label))
                    .unwrap_or_else(|| panic!("{metric} at {label:?} missing for {platform}"))
            };
            let fail_at = |label: &str| at(grid::FAILOVER_FAIL_AT, label);
            for label in ["r1", "r3 w1", "r3 k16"] {
                if fail_at(label) != -1.0 {
                    failures.push(format!(
                        "{}/{platform}: fault-free point \"{label}\" records a failure instant",
                        experiment.slug()
                    ));
                    ok = false;
                }
            }
            for label in ["r2 fail", "r2 failrec", "r3 failrec"] {
                if fail_at(label) <= 0.0 {
                    failures.push(format!(
                        "{}/{platform}: fault point \"{label}\" records no failure instant",
                        experiment.slug()
                    ));
                    ok = false;
                }
                if at(grid::FAILOVER_HANDOFFS, label) <= 0.0 {
                    failures.push(format!(
                        "{}/{platform}: fault point \"{label}\" recorded no quorum hand-offs",
                        experiment.slug()
                    ));
                    ok = false;
                }
                let pre = at(grid::FAILOVER_PRE_DROP, label);
                if at(grid::FAILOVER_WINDOW_DROP, label) <= pre {
                    failures.push(format!(
                        "{}/{platform}: \"{label}\" shows no drop spike inside the failure window",
                        experiment.slug()
                    ));
                    ok = false;
                }
            }
            for label in ["r2 failrec", "r3 failrec"] {
                let pre = at(grid::FAILOVER_PRE_DROP, label);
                let post = at(grid::FAILOVER_POST_DROP, label);
                if post > pre + RECOVERY_BAND {
                    failures.push(format!(
                        "{}/{platform}: \"{label}\" post-recovery drop rate {post:.4} stays above the pre-failure band ({pre:.4} + {RECOVERY_BAND})",
                        experiment.slug()
                    ));
                    ok = false;
                }
            }
        }
    }
    ok
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let failover = args.iter().any(|a| a == "--failover");
    let bench = if failover { FAILOVER } else { PLAIN };
    run_sweep_bench(&bench, &args, |run, failures| {
        let throughput = timed_sweep(&args, run, failover, failures);
        let mut extra = Vec::new();
        if failover {
            let quick = run.mode == "quick";
            let attestations = [
                (
                    "r1_matches_plain",
                    r1_matches_plain(quick, run.config.seed, failures),
                ),
                (
                    "scatter_p99_monotone",
                    scatter_monotone(&run.serial, failures),
                ),
                ("spike_subsides", spike_subsides(&run.serial, failures)),
            ];
            let line: Vec<String> = attestations
                .iter()
                .map(|(key, holds)| format!("{key} {holds}"))
                .collect();
            println!("attestations: {}", line.join(", "));
            extra.extend(attestations.map(|(key, holds)| (key, holds.to_string())));
        }
        for experiment in bench.experiments {
            if let Some(fig) = run.serial.figure(*experiment) {
                domain_gates(fig, failures);
            }
        }
        extra.push(throughput);
        extra
    })
}
