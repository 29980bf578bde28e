//! Tiny flag- and baseline-parsing helpers, the one artifact writer
//! ([`write_artifact`]), the shared serial-vs-parallel bench scaffold
//! ([`run_serial_and_parallel`]) behind every bench runner, the one
//! driver ([`run_sweep_bench`]) the five sweep bench modes
//! (`load_curves`, `tenant_isolation`, `pipeline`, `cluster` and
//! `cluster --failover`) run through, and the replay-and-median loop
//! ([`replay_median`]) behind the timed gates.

use std::process::ExitCode;

use crate::config::RunConfig;
use crate::executor::{Executor, RunPlan, RunReport};
use crate::experiment::ExperimentId;
use crate::report;

/// Returns the value following the flag `name`.
///
/// # Panics
///
/// Panics if the flag is present but no value follows it — trailing, or
/// directly followed by another `--flag` — so a forgotten value fails
/// loudly instead of being silently ignored or misparsed.
pub fn flag_value(args: &[String], name: &str) -> Option<String> {
    args.iter().position(|a| a == name).map(|i| {
        let value = args
            .get(i + 1)
            .unwrap_or_else(|| panic!("{name} expects a value"));
        if value.starts_with("--") {
            panic!("{name} expects a value, found flag {value:?}");
        }
        value.clone()
    })
}

/// Returns the numeric value following the flag `name`.
///
/// # Panics
///
/// Panics if the flag is present without a value or with a non-numeric
/// one.
pub fn parse_count(args: &[String], name: &str) -> Option<usize> {
    flag_value(args, name).map(|v| {
        v.parse()
            .unwrap_or_else(|_| panic!("{name} expects a number, got {v:?}"))
    })
}

/// Extracts the number following `"key":` from a flat JSON object, such
/// as the perf baseline the bench runners' `--baseline` gates read (the
/// vendored stand-ins ship no JSON parser).
pub fn json_number(json: &str, key: &str) -> Option<f64> {
    let needle = format!("\"{key}\"");
    let rest = &json[json.find(&needle)? + needle.len()..];
    let rest = rest.trim_start().strip_prefix(':')?.trim_start();
    let end = rest
        .find(|c: char| !matches!(c, '0'..='9' | '.' | '-' | '+' | 'e' | 'E'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Writes one bench artifact to `path` and adds a gate failure to
/// `failures` if it holds a non-finite value ([`report::find_non_finite`]).
/// Every report and trace the bench binaries emit goes through it.
///
/// # Panics
///
/// Panics if the artifact cannot be written.
pub fn write_artifact(path: &str, json: &str, failures: &mut Vec<String>) {
    std::fs::write(path, json).unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
    if let Some(token) = report::find_non_finite(json) {
        failures.push(format!("{path} contains non-finite value {token:?}"));
    }
}

/// The outcome of [`replay_median`]: the first replay's output and every
/// replay's measurement.
#[derive(Debug)]
pub struct Replays<T> {
    /// The first replay's output, which every later replay must equal.
    pub first: T,
    /// Every replay's measurement, in ascending order.
    pub sorted: Vec<f64>,
}

impl<T> Replays<T> {
    /// The median measurement (the upper one of an even count).
    pub fn median(&self) -> f64 {
        self.sorted[self.sorted.len() / 2]
    }
}

/// Runs `replay` `count` times (at least once). Each call returns one
/// measurement, such as a wall time or a ratio of two, and its output.
/// Every replay starts from the same inputs, so a replay whose output
/// differs from the first one's adds a failure naming `what` to
/// `failures`. A gate on the median of the measurements is not moved by
/// one replay that a busy host slowed down.
pub fn replay_median<T: PartialEq>(
    count: usize,
    what: &str,
    failures: &mut Vec<String>,
    mut replay: impl FnMut() -> (f64, T),
) -> Replays<T> {
    let (measured, first) = replay();
    let mut sorted = vec![measured];
    for i in 1..count {
        let (measured, output) = replay();
        sorted.push(measured);
        if output != first {
            failures.push(format!(
                "{what} replay {i} diverged from the first replay of the same seed"
            ));
        }
    }
    sorted.sort_by(f64::total_cmp);
    Replays { first, sorted }
}

/// The outcome of one [`run_serial_and_parallel`] invocation.
pub struct BenchRun {
    /// `"paper"` or `"quick"`, from the `--paper` flag.
    pub mode: &'static str,
    /// The run configuration both passes used.
    pub config: RunConfig,
    /// The report output path, from `--out` or the caller's default.
    pub out_path: String,
    /// The 1-worker reference run.
    pub serial: RunReport,
    /// The N-worker run of the same plan.
    pub parallel: RunReport,
    /// The worker count the parallel pass resolved to.
    pub parallel_workers: usize,
}

/// The shared scaffold of the machine-readable bench runners: parses the
/// common flags (`--paper`, `--workers N`, `--trials N`, `--out PATH`),
/// then executes the selected experiments twice — serially (1 worker) and
/// with N workers — so the caller can compare the two runs' figure data
/// and emit its report.
///
/// # Panics
///
/// Panics on malformed flags, like [`flag_value`] and [`parse_count`].
pub fn run_serial_and_parallel(
    name: &str,
    args: &[String],
    shard: Option<&str>,
    default_out: &str,
) -> BenchRun {
    let paper_scale = args.iter().any(|a| a == "--paper");
    let mode = if paper_scale { "paper" } else { "quick" };
    let config = if paper_scale {
        RunConfig::paper(2021)
    } else {
        RunConfig::quick(2021)
    };
    let out_path = flag_value(args, "--out").unwrap_or_else(|| default_out.to_string());

    let mut plan = RunPlan::new(config);
    if let Some(filter) = shard {
        plan = plan.with_shard(filter);
    }
    if let Some(trials) = parse_count(args, "--trials") {
        plan = plan.with_trials(trials);
    }
    let workers = parse_count(args, "--workers").unwrap_or(0);

    let serial_plan = plan.clone().with_workers(1);
    let parallel_plan = plan.with_workers(workers);
    let parallel_workers = parallel_plan.effective_workers();

    eprintln!(
        "{name}: serial pass (1 worker, {mode} mode, seed {})",
        config.seed
    );
    let serial = Executor::new(serial_plan).run();
    eprintln!(
        "{name}: parallel pass ({parallel_workers} workers); serial took {:.0} ms",
        serial.wall.as_secs_f64() * 1e3
    );
    let parallel = Executor::new(parallel_plan).run();

    BenchRun {
        mode,
        config,
        out_path,
        serial,
        parallel,
        parallel_workers,
    }
}

/// One sweep bench mode: the experiments it runs and the report it
/// writes.
#[derive(Debug)]
pub struct SweepBench {
    /// The mode's name in progress and failure messages.
    pub name: &'static str,
    /// The shard filter that selects exactly `experiments`.
    pub shard: &'static str,
    /// The experiments the report covers, in report order.
    pub experiments: &'static [ExperimentId],
    /// The report's `schema` identifier.
    pub schema: &'static str,
    /// The report path when `--out` is absent.
    pub default_out: &'static str,
    /// The [`crate::obs`] target `--trace` runs, or `None` if the mode
    /// takes no `--trace`.
    pub trace: Option<&'static str>,
}

/// Runs one sweep bench mode end to end: both passes
/// ([`run_serial_and_parallel`]), then `domain`, which adds the mode's
/// own gate failures and returns the report's extra header fields in
/// order. It then writes the report ([`report::sweep_json`]) with
/// [`write_artifact`], prints the figures and wall clocks, runs
/// `--trace`, and gates on every experiment being present in both
/// passes, on the two passes' figures being identical and on every
/// artifact being finite. Returns failure, after naming every failed
/// gate, if any gate failed.
///
/// # Panics
///
/// Panics on malformed flags, like [`run_serial_and_parallel`], and if
/// the report cannot be written.
pub fn run_sweep_bench(
    bench: &SweepBench,
    args: &[String],
    domain: impl FnOnce(&BenchRun, &mut Vec<String>) -> Vec<(&'static str, String)>,
) -> ExitCode {
    let run = run_serial_and_parallel(bench.name, args, Some(bench.shard), bench.default_out);
    let mut failures = Vec::new();
    let extra = domain(&run, &mut failures);
    let json = report::sweep_json(
        bench.schema,
        run.mode,
        run.config.seed,
        &run.serial,
        &run.parallel,
        bench.experiments,
        &extra,
    );
    write_artifact(&run.out_path, &json, &mut failures);

    for figure in &run.serial.figures {
        println!("{}", report::to_markdown(figure));
    }
    println!(
        "wall clock: serial {:.0} ms, {} workers {:.0} ms; report: {}",
        run.serial.wall.as_secs_f64() * 1e3,
        run.parallel_workers,
        run.parallel.wall.as_secs_f64() * 1e3,
        run.out_path,
    );

    if let Some(target) = bench.trace.filter(|_| args.iter().any(|a| a == "--trace")) {
        let trace = crate::obs::emit_trace_artifacts(
            target,
            run.mode == "quick",
            run.config.seed,
            &mut failures,
        );
        println!(
            "trace: {} spans accepted; artifacts: {}, {}",
            trace.spans_accepted, trace.chrome_path, trace.timeline_path
        );
    }
    for experiment in bench.experiments {
        for (label, pass) in [("serial", &run.serial), ("parallel", &run.parallel)] {
            let ok = pass.figure(*experiment).is_some_and(|fig| {
                !fig.series.is_empty() && fig.series.iter().all(|s| !s.points.is_empty())
            });
            if !ok {
                failures.push(format!(
                    "{} missing from the {label} run",
                    experiment.slug()
                ));
            }
        }
    }
    if run.serial.figures != run.parallel.figures {
        failures.push(format!(
            "serial and {}-worker figure data disagree",
            run.parallel_workers
        ));
    }
    if failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        eprintln!("{}: FAILED: {}", bench.name, failures.join("; "));
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn absent_flags_yield_none() {
        assert_eq!(flag_value(&args(&["--paper"]), "--shard"), None);
        assert_eq!(parse_count(&args(&[]), "--workers"), None);
    }

    #[test]
    fn present_flags_yield_their_value() {
        let a = args(&["--shard", "boot", "--workers", "8"]);
        assert_eq!(flag_value(&a, "--shard").as_deref(), Some("boot"));
        assert_eq!(parse_count(&a, "--workers"), Some(8));
    }

    #[test]
    fn json_number_reads_a_flat_key() {
        let json = "{\n  \"comment\": \"x\",\n  \"quick_max\": 0.10,\n  \"big\" : 4e6\n}";
        assert_eq!(json_number(json, "quick_max"), Some(0.1));
        assert_eq!(json_number(json, "big"), Some(4e6));
        assert_eq!(json_number(json, "comment"), None);
        assert_eq!(json_number(json, "absent"), None);
    }

    #[test]
    fn written_artifacts_fail_the_run_on_a_non_finite_value() {
        let out = std::env::temp_dir().join(format!("artifact_{}.json", std::process::id()));
        let path = out.to_str().expect("the temp path is UTF-8");
        let mut failures = Vec::new();
        write_artifact(path, "{\"x\": 1.5}\n", &mut failures);
        assert!(failures.is_empty());
        write_artifact(path, "{\"x\": NaN}\n", &mut failures);
        assert_eq!(
            failures,
            [format!("{path} contains non-finite value \"NaN\"")]
        );
        assert_eq!(std::fs::read_to_string(&out).unwrap(), "{\"x\": NaN}\n");
        std::fs::remove_file(&out).expect("the artifact exists");
    }

    #[test]
    #[should_panic(expected = "--shard expects a value")]
    fn a_trailing_flag_panics_instead_of_being_ignored() {
        flag_value(&args(&["--paper", "--shard"]), "--shard");
    }

    #[test]
    #[should_panic(expected = "--workers expects a number")]
    fn a_non_numeric_count_panics() {
        parse_count(&args(&["--workers", "many"]), "--workers");
    }

    #[test]
    #[should_panic(expected = "--shard expects a value, found flag")]
    fn a_flag_is_not_swallowed_as_a_value() {
        flag_value(&args(&["--shard", "--workers", "8"]), "--shard");
    }

    #[test]
    fn the_median_ignores_one_slow_replay() {
        let mut walls = [1.0, 1.2, 9.0, 0.9, 1.1].into_iter();
        let mut failures = Vec::new();
        let replays = replay_median(5, "test", &mut failures, || (walls.next().unwrap(), 7));
        assert_eq!(replays.sorted, [0.9, 1.0, 1.1, 1.2, 9.0]);
        assert_eq!(replays.median(), 1.1);
        assert_eq!(replays.first, 7);
        assert!(failures.is_empty());
    }

    #[test]
    fn a_replay_that_differs_from_the_first_is_reported() {
        let mut outputs = [3, 3, 4, 3, 5].into_iter();
        let mut failures = Vec::new();
        let replays = replay_median(5, "sweep", &mut failures, || (1.0, outputs.next().unwrap()));
        assert_eq!(replays.first, 3);
        assert_eq!(
            failures,
            [
                "sweep replay 2 diverged from the first replay of the same seed",
                "sweep replay 4 diverged from the first replay of the same seed",
            ]
        );
    }

    #[test]
    fn bench_scaffold_runs_both_passes_identically() {
        let run = run_serial_and_parallel(
            "test",
            &args(&["--workers", "2", "--trials", "1", "--out", "custom.json"]),
            Some("fig08"),
            "default.json",
        );
        assert_eq!(run.mode, "quick");
        assert_eq!(run.out_path, "custom.json");
        assert_eq!(run.serial.workers, 1);
        assert_eq!(run.parallel.workers, 2);
        assert_eq!(run.parallel_workers, 2);
        assert_eq!(run.serial.figures, run.parallel.figures);
        let default_out =
            run_serial_and_parallel("test", &args(&["--trials", "1"]), Some("no-such"), "d.json");
        assert_eq!(default_out.out_path, "d.json");
        assert!(default_out.serial.figures.is_empty());
    }

    #[test]
    fn sweep_driver_writes_the_report_and_fails_on_a_missing_experiment() {
        let out = std::env::temp_dir().join(format!("sweep_driver_{}.json", std::process::id()));
        let flags = ["--trials", "1", "--workers", "2", "--out"];
        let mut flags = args(&flags);
        flags.push(out.to_str().expect("the temp path is UTF-8").to_string());
        let bench = SweepBench {
            name: "test",
            shard: "load_mysql",
            experiments: &[ExperimentId::LoadMysql],
            schema: "test/v1",
            default_out: "unused.json",
            trace: None,
        };
        let mode =
            |run: &BenchRun, _: &mut Vec<String>| vec![("seen", format!("\"{}\"", run.mode))];
        assert_eq!(run_sweep_bench(&bench, &flags, mode), ExitCode::SUCCESS);
        let json = std::fs::read_to_string(&out).expect("the driver wrote its report");
        assert!(json.starts_with("{\n  \"schema\": \"test/v1\",\n"));
        assert!(json.contains("  \"identical\": true,\n  \"seen\": \"quick\",\n  \"experiments\""));
        assert!(json.contains("\"slug\": \"load_mysql\""));

        let missing = SweepBench {
            experiments: &[ExperimentId::LoadMemcached, ExperimentId::LoadMysql],
            ..bench
        };
        assert_eq!(run_sweep_bench(&missing, &flags, mode), ExitCode::FAILURE);
        std::fs::remove_file(&out).expect("the report exists");
    }
}
