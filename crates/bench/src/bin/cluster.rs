//! Machine-readable sharded-cluster bench runner.
//!
//! Runs the two cluster experiments (`cluster_memcached`,
//! `cluster_mysql`) twice — serially (1 worker) and with N workers —
//! then times one replay of the Memcached sweep. Writes
//! `BENCH_cluster.json` with the per-platform shard-count × skew ×
//! routing sweeps (cluster and hot-shard percentiles, load imbalance,
//! achieved throughput, drop fractions) and the replay's wall clock and
//! events/sec. Exits non-zero if the serial and parallel runs disagree,
//! if an experiment is missing, if the emitted JSON contains a
//! non-finite value (NaN/inf), or if the sweep violates the cluster's
//! domain invariants: imbalance is a max/mean ratio (>= 1), the drop
//! metric is a fraction, and p50 cannot exceed p99.
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
//! * `--baseline PATH` — compare the timed replay's events/sec against a
//!   perf baseline (see `ci/perf_baseline.json`) and exit non-zero on
//!   regression
//! * `--trace` — additionally run one traced 16-shard rebalance point and
//!   write `TRACE_cluster.json` (Chrome trace events) plus
//!   `BENCH_trace_cluster.json` (the windowed-metrics timeline)

use std::time::Instant;

use harness::cli::{flag_value, run_serial_and_parallel, BenchRun};
use harness::executor::RunReport;
use harness::report::{FailoverAttestation, SweepThroughput};
use harness::{grid, report, ExperimentId};
use platforms::PlatformId;
use simcore::SimRng;
use workloads::cluster::{ClusterBenchmark, ClusterSetting, BASELINE_THETA};
use workloads::LoadBackend;

/// Post-recovery drop rate may exceed the pre-failure rate by at most
/// this much before the kill-then-recover gate fails — the "returns to
/// the pre-failure band" acceptance criterion.
const RECOVERY_BAND: f64 = 0.02;

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

/// One timed replay of the Memcached sweep on the native platform: the
/// event throughput the `--baseline` floor gates.
fn timed_sweep(failover: bool, quick: bool, seed: u64) -> SweepThroughput {
    let platform = PlatformId::Native.build();
    let mut rng = SimRng::seed_from(seed);
    let start = Instant::now();
    let points = sweep_bench(failover, quick)
        .run_trial(&platform, &mut rng)
        .expect("the native cluster sweep configuration is valid");
    let elapsed_secs = start.elapsed().as_secs_f64();
    let events: u64 = points.iter().map(|p| p.events).sum();
    SweepThroughput {
        wall_ms: elapsed_secs * 1e3,
        events_per_sec: events as f64 / elapsed_secs.max(f64::MIN_POSITIVE),
    }
}

/// The checks both modes share: every experiment present in both passes
/// with non-empty series, drop fractions inside [0, 1], p50 <= p99 per
/// setting, and serial/parallel figure equality.
fn shared_checks(
    run: &BenchRun,
    experiments: [ExperimentId; 2],
    anchor_metric: &str,
    failures: &mut Vec<String>,
) {
    for experiment in experiments {
        for (label, pass) in [("serial", &run.serial), ("parallel", &run.parallel)] {
            let ok = pass.figure(experiment).is_some_and(|fig| {
                !fig.series.is_empty() && fig.series.iter().all(|s| !s.points.is_empty())
            });
            if !ok {
                failures.push(format!(
                    "{} missing from the {label} run",
                    experiment.slug()
                ));
            }
        }
        if let Some(fig) = run.serial.figure(experiment) {
            for platform in grid::platforms_of(fig, anchor_metric) {
                let series = |metric: &str| {
                    fig.series_named(&format!("{platform} {metric}"))
                        .unwrap_or_else(|| panic!("{metric} series missing for {platform}"))
                };
                for point in &series(grid::CLUSTER_DROP_RATE).points {
                    if !(0.0..=1.0).contains(&point.mean) {
                        failures.push(format!(
                            "{}/{platform}: drop fraction at \"{}\" is {} (outside [0, 1])",
                            experiment.slug(),
                            point.x,
                            point.mean,
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
                            "{}/{platform}: p50 at \"{}\" ({:.1} us) exceeds p99 ({:.1} us)",
                            experiment.slug(),
                            point.x,
                            point.mean,
                            p99_mean,
                        ));
                    }
                }
            }
        }
    }
    if run.serial.figures != run.parallel.figures {
        failures.push(format!(
            "serial and {}-worker figure data disagree",
            run.parallel_workers
        ));
    }
}

/// The `--baseline` gate shared by both modes: the timed replay's
/// events/sec must clear the floor stored under `key` in the baseline
/// file.
fn baseline_check(
    args: &[String],
    mode: &str,
    key: &str,
    throughput: &SweepThroughput,
    failures: &mut Vec<String>,
) {
    let Some(path) = flag_value(args, "--baseline") else {
        return;
    };
    let baseline = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read baseline {path}: {e}"));
    let min_eps =
        json_number(&baseline, key).unwrap_or_else(|| panic!("baseline {path} lacks {key}"));
    let measured = throughput.events_per_sec;
    println!("baseline ({mode}): min {min_eps:.0} events/sec (measured {measured:.0})");
    if measured < min_eps {
        failures.push(format!(
            "cluster throughput {measured:.0} events/sec regressed below the baseline floor {min_eps:.0}"
        ));
    }
}

/// Extracts the number following `"key":` from a flat JSON object — the
/// same hand-rolled JSON handling the rest of the workspace uses (the
/// vendored stand-ins ship no JSON parser).
fn json_number(json: &str, key: &str) -> Option<f64> {
    let needle = format!("\"{key}\"");
    let rest = &json[json.find(&needle)? + needle.len()..];
    let rest = rest.trim_start().strip_prefix(':')?.trim_start();
    let end = rest
        .find(|c: char| !matches!(c, '0'..='9' | '.' | '-' | '+' | 'e' | 'E'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
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
    for experiment in [
        ExperimentId::ClusterFailoverMemcached,
        ExperimentId::ClusterFailoverMysql,
    ] {
        let Some(fig) = serial.figure(experiment) else {
            // shared_checks already reported the missing experiment.
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
    for experiment in [
        ExperimentId::ClusterFailoverMemcached,
        ExperimentId::ClusterFailoverMysql,
    ] {
        let Some(fig) = serial.figure(experiment) else {
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

/// The `--failover` mode: the replication/failover sweep, its timed
/// replay, and the quorum-specific acceptance gates.
fn run_failover(args: &[String]) {
    let run = run_serial_and_parallel(
        "cluster --failover",
        args,
        Some("cluster_failover"),
        "BENCH_cluster_failover.json",
    );
    let quick = run.mode == "quick";
    let mut failures = Vec::new();

    let throughput = timed_sweep(true, quick, run.config.seed);
    let attest = FailoverAttestation {
        r1_matches_plain: r1_matches_plain(quick, run.config.seed, &mut failures),
        scatter_p99_monotone: scatter_monotone(&run.serial, &mut failures),
        spike_subsides: spike_subsides(&run.serial, &mut failures),
    };

    let json = report::cluster_failover_json(
        run.mode,
        run.config.seed,
        &run.serial,
        &run.parallel,
        &throughput,
        &attest,
    );
    std::fs::write(&run.out_path, &json)
        .unwrap_or_else(|e| panic!("cannot write {}: {e}", run.out_path));

    for figure in &run.serial.figures {
        println!("{}", report::to_markdown(figure));
    }
    print_throughput(&throughput);
    println!(
        "attestations: r1_matches_plain {}, scatter_p99_monotone {}, spike_subsides {}",
        attest.r1_matches_plain, attest.scatter_p99_monotone, attest.spike_subsides
    );
    println!(
        "\nwall clock: serial {:.0} ms, {} workers {:.0} ms; report: {}",
        run.serial.wall.as_secs_f64() * 1e3,
        run.parallel_workers,
        run.parallel.wall.as_secs_f64() * 1e3,
        run.out_path,
    );

    shared_checks(
        &run,
        [
            ExperimentId::ClusterFailoverMemcached,
            ExperimentId::ClusterFailoverMysql,
        ],
        grid::FAILOVER_SCATTER_P99,
        &mut failures,
    );
    if let Some(token) = report::find_non_finite(&json) {
        failures.push(format!("emitted JSON contains non-finite value {token:?}"));
    }
    baseline_check(
        args,
        run.mode,
        &format!("{}_cluster_failover_min_events_per_sec", run.mode),
        &throughput,
        &mut failures,
    );
    if !failures.is_empty() {
        eprintln!("cluster --failover: FAILED: {}", failures.join("; "));
        std::process::exit(1);
    }
}

fn print_throughput(throughput: &SweepThroughput) {
    println!(
        "timed sweep replay: {:.1} ms, {:.0} events/sec",
        throughput.wall_ms, throughput.events_per_sec
    );
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--failover") {
        run_failover(&args);
        return;
    }
    // `cluster_m` selects exactly the two plain sharded-cluster
    // experiments (`cluster_memcached`, `cluster_mysql`) — the failover
    // slugs continue with `_failover_` and stay out of this mode.
    let run = run_serial_and_parallel("cluster", &args, Some("cluster_m"), "BENCH_cluster.json");
    let quick = run.mode == "quick";
    let mut failures = Vec::new();

    let throughput = timed_sweep(false, quick, run.config.seed);

    let json = report::cluster_json(
        run.mode,
        run.config.seed,
        &run.serial,
        &run.parallel,
        &throughput,
    );
    std::fs::write(&run.out_path, &json)
        .unwrap_or_else(|e| panic!("cannot write {}: {e}", run.out_path));

    for figure in &run.serial.figures {
        println!("{}", report::to_markdown(figure));
    }
    print_throughput(&throughput);
    println!(
        "\nwall clock: serial {:.0} ms, {} workers {:.0} ms; report: {}",
        run.serial.wall.as_secs_f64() * 1e3,
        run.parallel_workers,
        run.parallel.wall.as_secs_f64() * 1e3,
        run.out_path,
    );

    if args.iter().any(|a| a == "--trace") {
        let trace = harness::obs::emit_trace_artifacts("cluster", quick, run.config.seed);
        if let Some(token) = trace.non_finite {
            failures.push(format!(
                "trace timeline contains non-finite value {token:?}"
            ));
        }
        println!(
            "trace: {} spans accepted; artifacts: {}, {}",
            trace.spans_accepted, trace.chrome_path, trace.timeline_path
        );
    }

    shared_checks(
        &run,
        [ExperimentId::ClusterMemcached, ExperimentId::ClusterMysql],
        grid::CLUSTER_HOT_P99,
        &mut failures,
    );
    // Plain-mode domain invariant: imbalance is a max/mean ratio.
    for experiment in [ExperimentId::ClusterMemcached, ExperimentId::ClusterMysql] {
        if let Some(fig) = run.serial.figure(experiment) {
            for platform in grid::platforms_of(fig, grid::CLUSTER_HOT_P99) {
                let imbalance = fig
                    .series_named(&format!("{platform} {}", grid::CLUSTER_IMBALANCE))
                    .unwrap_or_else(|| panic!("imbalance series missing for {platform}"));
                for point in &imbalance.points {
                    if point.mean < 1.0 {
                        failures.push(format!(
                            "{}/{platform}: imbalance at \"{}\" is {} (a max/mean ratio below 1)",
                            experiment.slug(),
                            point.x,
                            point.mean,
                        ));
                    }
                }
            }
        }
    }
    if let Some(token) = report::find_non_finite(&json) {
        failures.push(format!("emitted JSON contains non-finite value {token:?}"));
    }
    baseline_check(
        &args,
        run.mode,
        &format!("{}_cluster_min_events_per_sec", run.mode),
        &throughput,
        &mut failures,
    );
    if !failures.is_empty() {
        eprintln!("cluster: FAILED: {}", failures.join("; "));
        std::process::exit(1);
    }
}
