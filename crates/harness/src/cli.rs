//! Tiny flag- and baseline-parsing helpers and the shared
//! serial-vs-parallel bench scaffold used by the runnable surfaces (the
//! `full_evaluation` example and the `full_grid`/`load_curves` bench
//! runners).

use crate::config::RunConfig;
use crate::executor::{Executor, RunPlan, RunReport};

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
}
