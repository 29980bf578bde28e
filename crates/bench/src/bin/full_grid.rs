//! Machine-readable full-grid bench runner.
//!
//! Runs the whole evaluation grid twice — serially (1 worker) and with N
//! workers — and writes `BENCH_full_grid.json` with per-experiment
//! wall-clock numbers, seeding the repo's performance trajectory. Exits
//! non-zero if any experiment cell is missing from the report, so CI can
//! gate on grid completeness, if the report holds a non-finite value
//! (NaN/inf), and, with `--baseline`, if
//! `fig16_memcached` takes more than its allowed share of the serial
//! pass's cell time or, in quick mode, `tenant_isolation_memcached` takes
//! more than its allowed multiple of `tenant_isolation_mysql`'s.
//!
//! Run with: `cargo run --release -p bench --bin full_grid`
//!
//! Flags:
//! * `--paper` — full-scale configuration (default is quick)
//! * `--workers N` — parallel worker count (default: available parallelism)
//! * `--trials N` — override every experiment's trial count
//! * `--out PATH` — output path (default `BENCH_full_grid.json`)
//! * `--baseline PATH` — read `{mode}_max_fig16_share` from a perf
//!   baseline (see `ci/perf_baseline.json`) and exit non-zero when
//!   `fig16_memcached`'s serial cell time exceeds that share of the
//!   serial pass's total cell time; when the baseline also has
//!   `{mode}_max_tenancy_kv_sql_ratio` (only `quick` does), exit non-zero
//!   when `tenant_isolation_memcached`'s serial cell time exceeds that
//!   multiple of `tenant_isolation_mysql`'s

use harness::cli::{flag_value, json_number, run_serial_and_parallel, write_artifact};
use harness::{report, ExperimentId};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let run = run_serial_and_parallel("full_grid", &args, None, "BENCH_full_grid.json");

    let serialize_start = std::time::Instant::now();
    let json = report::full_grid_json(run.mode, run.config.seed, &run.serial, &run.parallel);
    let serialize_ms = serialize_start.elapsed().as_secs_f64() * 1e3;
    let mut failures = Vec::new();
    write_artifact(&run.out_path, &json, &mut failures);

    println!(
        "| experiment | cells | serial (ms) | {} workers (ms) |",
        run.parallel_workers
    );
    println!("|---|---|---|---|");
    for timing in &run.serial.timings {
        let parallel_ms = run
            .parallel
            .timings
            .iter()
            .find(|t| t.experiment == timing.experiment)
            .map(|t| t.cell_time.as_secs_f64() * 1e3)
            .unwrap_or(0.0);
        println!(
            "| {} | {} | {:.1} | {:.1} |",
            timing.experiment.slug(),
            timing.cells,
            timing.cell_time.as_secs_f64() * 1e3,
            parallel_ms,
        );
    }
    println!(
        "\n| phase | serial (ms) | {} workers (ms) |",
        run.parallel_workers
    );
    println!("|---|---|---|");
    println!(
        "| cell run | {:.1} | {:.1} |",
        run.serial.total_cell_time().as_secs_f64() * 1e3,
        run.parallel.total_cell_time().as_secs_f64() * 1e3,
    );
    println!(
        "| merge | {:.2} | {:.2} |",
        run.serial.merge.as_secs_f64() * 1e3,
        run.parallel.merge.as_secs_f64() * 1e3,
    );
    println!("| serialize (shared) | {serialize_ms:.2} | {serialize_ms:.2} |");
    println!(
        "\nwall clock: serial {:.0} ms, {} workers {:.0} ms ({:.2}x); report: {}",
        run.serial.wall.as_secs_f64() * 1e3,
        run.parallel_workers,
        run.parallel.wall.as_secs_f64() * 1e3,
        run.serial.wall.as_secs_f64() / run.parallel.wall.as_secs_f64().max(1e-9),
        run.out_path,
    );

    // Completeness gate: every experiment of the evaluation must be in the
    // report with a full cell complement and non-empty figure data.
    let mut missing = Vec::new();
    for experiment in ExperimentId::all() {
        for (label, pass) in [("serial", &run.serial), ("parallel", &run.parallel)] {
            let timing = pass.timings.iter().find(|t| t.experiment == *experiment);
            let ok = timing.is_some_and(|t| t.cells > 0)
                && pass.figure(*experiment).is_some_and(|fig| {
                    !fig.series.is_empty() && fig.series.iter().any(|s| !s.points.is_empty())
                });
            if !ok {
                missing.push(format!("{} ({label})", experiment.slug()));
            }
        }
    }
    if !missing.is_empty() {
        failures.push(format!("missing experiment cells: {}", missing.join(", ")));
    }
    // Both baseline gates are ratios of cell times on the same machine,
    // so they hold on any hardware.
    if let Some(path) = flag_value(&args, "--baseline") {
        let baseline = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("cannot read baseline {path}: {e}"));
        let serial_secs = |experiment: ExperimentId| {
            run.serial
                .timings
                .iter()
                .find(|t| t.experiment == experiment)
                .map_or(0.0, |t| t.cell_time.as_secs_f64())
        };
        // Share gate: a YCSB key draw that pays the O(n) Zipf normaliser
        // per draw makes fig16 most of the grid.
        let key = format!("{}_max_fig16_share", run.mode);
        let max_share =
            json_number(&baseline, &key).unwrap_or_else(|| panic!("baseline {path} lacks {key}"));
        let fig16 = serial_secs(ExperimentId::Fig16Memcached);
        let share = fig16 / run.serial.total_cell_time().as_secs_f64().max(1e-9);
        println!(
            "baseline ({}): fig16_memcached {share:.3} of serial cell time (max {max_share:.3})",
            run.mode
        );
        if share > max_share {
            failures.push(format!(
                "fig16_memcached took {share:.3} of the serial cell time, above the baseline ceiling {max_share:.3}"
            ));
        }
        // Ratio gate: the two tenancy experiments run the same request
        // counts, so a Memcached sweep far slower than its MySQL twin
        // means per-window work outside the request path, such as
        // repopulating the 4,096-record sampled store every window.
        let key = format!("{}_max_tenancy_kv_sql_ratio", run.mode);
        if let Some(max_ratio) = json_number(&baseline, &key) {
            let kv = serial_secs(ExperimentId::TenantIsolationMemcached);
            let sql = serial_secs(ExperimentId::TenantIsolationMysql);
            let ratio = kv / sql.max(1e-9);
            println!(
                "baseline ({}): tenant_isolation_memcached {ratio:.2}x tenant_isolation_mysql's serial cell time (max {max_ratio:.2}x)",
                run.mode
            );
            if ratio > max_ratio {
                failures.push(format!(
                    "tenant_isolation_memcached took {ratio:.2}x tenant_isolation_mysql's serial cell time, above the baseline ceiling {max_ratio:.2}x"
                ));
            }
        }
    }
    if !failures.is_empty() {
        eprintln!("full_grid: FAILED: {}", failures.join("; "));
        std::process::exit(1);
    }
}
