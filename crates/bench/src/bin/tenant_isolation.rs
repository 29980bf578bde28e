//! Machine-readable multi-tenant isolation bench runner.
//!
//! Runs the two tenant-isolation experiments
//! (`tenant_isolation_memcached`, `tenant_isolation_mysql`) twice —
//! serially (1 worker) and with N workers — and writes
//! `BENCH_tenant_isolation.json` with per-platform victim/aggressor
//! sweeps (percentiles, achieved throughput, drop and SLO-violation
//! rates, isolation indices). Exits non-zero if the serial and parallel
//! runs disagree, if an experiment is missing, if the emitted JSON
//! contains any non-finite value (NaN/inf), or if any platform's victim
//! p99 inflation under the weighted scheduler exceeds its inflation under
//! unweighted FIFO sharing — the isolation guarantee the weighted slots
//! exist to provide.
//!
//! Run with: `cargo run --release -p bench --bin tenant_isolation`
//!
//! Flags:
//! * `--paper` — full-scale configuration (default is quick)
//! * `--workers N` — parallel worker count (default: available parallelism)
//! * `--trials N` — override every experiment's trial count
//! * `--out PATH` — output path (default `BENCH_tenant_isolation.json`)
//! * `--trace` — additionally run one traced victim/aggressor co-location
//!   point and write `TRACE_tenancy.json` (Chrome trace events) plus
//!   `BENCH_trace_tenancy.json` (the windowed-metrics timeline)

use std::process::ExitCode;

use harness::cli::{run_sweep_bench, SweepBench};
use harness::{grid, ExperimentId, FigureData};

const EXPERIMENTS: &[ExperimentId] = &[
    ExperimentId::TenantIsolationMemcached,
    ExperimentId::TenantIsolationMysql,
];

/// The isolation guarantee: at every sweep point of every platform, the
/// victim's p99 inflation over its solo baseline under the weighted
/// scheduler must not exceed its inflation under unweighted FIFO sharing.
fn isolation_gate(fig: &FigureData, failures: &mut Vec<String>) {
    for platform in grid::platforms_of(fig, grid::TENANT_VICTIM_P99) {
        let series = |metric: &str| {
            fig.series_named(&format!("{platform} {metric}"))
                .unwrap_or_else(|| panic!("{metric} series missing for {platform}"))
        };
        let p99 = series(grid::TENANT_VICTIM_P99);
        let fifo = series(grid::TENANT_VICTIM_FIFO_P99);
        let solo = series(grid::TENANT_VICTIM_SOLO_P99);
        for i in 0..p99.points.len() {
            let baseline = solo.points[i].mean.max(f64::MIN_POSITIVE);
            let weighted = p99.points[i].mean / baseline;
            let unweighted = fifo.points[i].mean / baseline;
            if weighted > unweighted {
                failures.push(format!(
                    "{}/{platform} at aggressor {}: weighted inflation {weighted:.3} \
                     exceeds FIFO inflation {unweighted:.3}",
                    fig.experiment.slug(),
                    p99.points[i].x,
                ));
            }
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let bench = SweepBench {
        name: "tenant_isolation",
        // `tenant_` selects exactly the two co-location experiments.
        shard: "tenant_",
        experiments: EXPERIMENTS,
        schema: "isolation-bench/tenant-isolation/v1",
        default_out: "BENCH_tenant_isolation.json",
        trace: Some("tenancy"),
    };
    run_sweep_bench(&bench, &args, |run, failures| {
        for experiment in EXPERIMENTS {
            if let Some(fig) = run.serial.figure(*experiment) {
                isolation_gate(fig, failures);
            }
        }
        Vec::new()
    })
}
