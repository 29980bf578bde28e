//! The repository benchmark of the isolation-bench simulator.
//!
//! Three workloads partition the quick evaluation grid
//! ([`Workload::experiments`]). A pass runs one workload's experiments
//! serially through [`harness::Executor`] (one worker,
//! [`RunConfig::quick`], the seed from the command line) and checks the
//! merged figures against reference digests ([`Oracle`]). The
//! `perfbench` binary times passes end to end, in host-speed-calibrated
//! reference seconds ([`end_to_end`], [`calib`]); the `perfbench-traced`
//! binary times the benchmark's calls into each layer and builds the
//! per-layer ledger ([`layers::traced`]).

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use harness::{grid, Executor, ExperimentId, FigureData, RunConfig, RunPlan};

pub mod calib;
pub mod layers;
pub mod trace;

use calib::Reference;
use trace::Tracer;

/// One benchmark workload: a slice of the quick evaluation grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's fifteen experiments, Fig. 5 to Fig. 18 plus sysbench
    /// prime. The YCSB Zipf draw dominates; it never touches the event
    /// core or the slot pool.
    PaperFigs,
    /// The open-loop load, tenant-isolation and pipeline sweeps on the
    /// boxed-closure simulation, slot pool and completion timer.
    OpenLoop,
    /// The sharded-cluster and failover sweeps on the typed-event path.
    Cluster,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 3] = [Workload::PaperFigs, Workload::OpenLoop, Workload::Cluster];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperFigs => "paper_figs",
            Workload::OpenLoop => "open_loop",
            Workload::Cluster => "cluster",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The experiments the workload runs, in paper order.
    pub fn experiments(self) -> &'static [ExperimentId] {
        use ExperimentId::*;
        match self {
            Workload::PaperFigs => &[
                Fig05Ffmpeg,
                SysbenchPrime,
                Fig06MemLatency,
                Fig07MemBandwidth,
                Fig08Stream,
                Fig09FioThroughput,
                Fig10FioLatency,
                Fig11Iperf,
                Fig12Netperf,
                Fig13BootContainers,
                Fig14BootHypervisors,
                Fig15BootOsv,
                Fig16Memcached,
                Fig17Mysql,
                Fig18Hap,
            ],
            Workload::OpenLoop => &[
                LoadMemcached,
                LoadMysql,
                TenantIsolationMemcached,
                TenantIsolationMysql,
                PipelineMemcached,
                PipelineMysql,
            ],
            Workload::Cluster => &[
                ClusterMemcached,
                ClusterMysql,
                ClusterFailoverMemcached,
                ClusterFailoverMysql,
            ],
        }
    }
}

/// The command line shared by both binaries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Args {
    /// Which workload to run.
    pub workload: Workload,
    /// Root seed of every cell's random stream.
    pub seed: u64,
    /// How long the timed passes run.
    pub seconds: u64,
    /// Print one pass's figure digests instead of metrics.
    pub digests: bool,
}

impl Args {
    /// Parses `--workload <name> --seed <n> --seconds <s> [--digests]`.
    ///
    /// # Errors
    ///
    /// Names the first missing, unknown or malformed argument.
    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut digests) = (None, None, None, false);
        let mut args = args.into_iter();
        while let Some(flag) = args.next() {
            if flag == "--digests" {
                digests = true;
                continue;
            }
            let value = args.next().ok_or(format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => {
                    workload =
                        Some(Workload::parse(&value).ok_or(format!("unknown workload {value:?}"))?)
                }
                "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value:?}"))?),
                "--seconds" => {
                    seconds = Some(
                        value
                            .parse()
                            .map_err(|_| format!("bad seconds {value:?}"))?,
                    )
                }
                other => return Err(format!("unknown argument {other:?}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            digests,
        })
    }
}

/// The executor plan of one experiment: quick configuration, one worker,
/// and the experiment's slug as the shard filter.
pub fn plan(experiment: ExperimentId, seed: u64) -> RunPlan {
    RunPlan::new(RunConfig::quick(seed))
        .with_shard(experiment.slug())
        .with_workers(1)
}

/// The number of cells one experiment decomposes into under [`plan`].
pub fn cells(experiment: ExperimentId, seed: u64) -> usize {
    grid::entries(experiment).len() * plan(experiment, seed).trials_for(experiment)
}

/// Checks that each experiment's slug filter selects that experiment alone.
///
/// # Errors
///
/// Names the first slug that selects anything else.
pub fn check_plans(workload: Workload, seed: u64) -> Result<(), String> {
    for &experiment in workload.experiments() {
        let selected = plan(experiment, seed).experiments();
        if selected != [experiment] {
            return Err(format!(
                "the shard filter {:?} selects {selected:?}",
                experiment.slug()
            ));
        }
    }
    Ok(())
}

/// FNV-1a over a figure's `Debug` rendering. `f64` debug-prints its
/// shortest round-tripping form, so equal digests mean bit-identical
/// figures.
pub fn digest(figure: &FigureData) -> u64 {
    format!("{figure:?}")
        .bytes()
        .fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x1000_0000_01b3)
        })
}

fn is_finite(figure: &FigureData) -> bool {
    !figure.series.is_empty()
        && figure
            .series
            .iter()
            .flat_map(|s| &s.points)
            .all(|p| p.mean.is_finite() && p.std_dev.is_finite())
}

/// The outcome of one experiment in one pass.
#[derive(Debug, Clone)]
pub struct ExperimentRun {
    /// Which experiment ran.
    pub experiment: ExperimentId,
    /// How many cells it decomposes into.
    pub cells: usize,
    /// The figure's digest; `None` when the experiment panicked or merged
    /// to an empty or non-finite figure.
    pub digest: Option<u64>,
    /// Time inside the experiment's cells.
    pub cell_time: Duration,
    /// Time of the canonical merge.
    pub merge: Duration,
}

/// Runs one experiment through the executor, catching a panic as a failed
/// experiment.
pub fn run_experiment(experiment: ExperimentId, seed: u64) -> ExperimentRun {
    let cells = cells(experiment, seed);
    match catch_unwind(AssertUnwindSafe(|| {
        Executor::new(plan(experiment, seed)).run()
    })) {
        Ok(report) => ExperimentRun {
            experiment,
            cells,
            digest: report
                .figure(experiment)
                .filter(|figure| is_finite(figure))
                .map(digest),
            cell_time: report.total_cell_time(),
            merge: report.merge,
        },
        Err(_) => ExperimentRun {
            experiment,
            cells,
            digest: None,
            cell_time: Duration::ZERO,
            merge: Duration::ZERO,
        },
    }
}

/// One serial pass over a workload.
#[derive(Debug, Clone)]
pub struct Pass {
    /// Wall time of the pass's experiments, merges included, reference
    /// chunks excluded.
    pub wall: Duration,
    /// Each experiment's outcome, in workload order.
    pub runs: Vec<ExperimentRun>,
}

impl Pass {
    /// Cells the pass attempted.
    pub fn cells(&self) -> usize {
        self.runs.iter().map(|run| run.cells).sum()
    }
}

/// Runs every experiment of the workload serially, one span each. With a
/// `reference`, times a reference chunk before each experiment and after
/// the last, outside the pass's wall time.
pub fn run_pass(
    workload: Workload,
    seed: u64,
    tracer: &mut Tracer,
    mut reference: Option<&mut Reference>,
) -> Pass {
    let mut wall = Duration::ZERO;
    let mut runs = Vec::with_capacity(workload.experiments().len());
    for &experiment in workload.experiments() {
        if let Some(reference) = reference.as_deref_mut() {
            reference.measure();
        }
        let start = Instant::now();
        let span = tracer.open("harness.executor.run", experiment.slug());
        runs.push(run_experiment(experiment, seed));
        tracer.close(span);
        wall += start.elapsed();
    }
    if let Some(reference) = reference {
        reference.measure();
    }
    Pass { wall, runs }
}

/// The seeds `digests.txt` holds figure digests for: the default seed and
/// one held out from development.
pub const REFERENCE_SEEDS: [u64; 2] = [2021, 1729];

const REFERENCE: &str = include_str!("../digests.txt");

/// The reference digest of one experiment's figure at `seed`, if recorded.
pub fn reference(seed: u64, experiment: ExperimentId) -> Option<u64> {
    REFERENCE
        .lines()
        .filter(|line| !line.starts_with('#'))
        .find_map(|line| {
            let mut fields = line.split_whitespace();
            let (s, slug, d) = (fields.next()?, fields.next()?, fields.next()?);
            if s.parse::<u64>().ok()? == seed && slug == experiment.slug() {
                u64::from_str_radix(d, 16).ok()
            } else {
                None
            }
        })
}

/// Judges each pass's figures: against the reference digest where the seed
/// has one, otherwise against the first digest this process produced, so
/// every later pass must reproduce the first bit for bit.
#[derive(Debug, Clone)]
pub struct Oracle {
    seed: u64,
    first: Vec<(ExperimentId, u64)>,
}

impl Oracle {
    /// An oracle for the given root seed.
    pub fn new(seed: u64) -> Self {
        Oracle {
            seed,
            first: Vec::new(),
        }
    }

    /// Whether every experiment of the workload has a reference digest.
    pub fn has_reference(&self, workload: Workload) -> bool {
        workload
            .experiments()
            .iter()
            .all(|&e| reference(self.seed, e).is_some())
    }

    /// The cells of the pass whose experiment failed: panicked, merged to
    /// an empty or non-finite figure, or differs from the expected digest.
    pub fn failed_cells(&mut self, pass: &Pass) -> usize {
        let mut failed = 0;
        for run in &pass.runs {
            if !self.accepts(run) {
                failed += run.cells;
            }
        }
        failed
    }

    fn accepts(&mut self, run: &ExperimentRun) -> bool {
        let Some(digest) = run.digest else {
            return false;
        };
        let expected = reference(self.seed, run.experiment).or_else(|| {
            self.first
                .iter()
                .find(|(e, _)| *e == run.experiment)
                .map(|(_, d)| *d)
        });
        match expected {
            Some(expected) => expected == digest,
            None => {
                self.first.push((run.experiment, digest));
                true
            }
        }
    }
}

/// How many times a run sets up; `setup_s` is the median.
pub const SETUP_REPEATS: usize = 9;

/// Passes a run makes at least, however short `--seconds` is.
pub const MIN_PASSES: usize = 3;

/// One set-up: checks the plans, then runs each experiment's first cell
/// once, so lazy initialisation and cold caches are paid before timing.
/// A panicking cell is left for the passes to count as failed.
///
/// # Errors
///
/// Names a plan that selects the wrong experiments.
pub fn warm_up(workload: Workload, seed: u64, tracer: &mut Tracer) -> Result<(), String> {
    check_plans(workload, seed)?;
    let config = RunConfig::quick(seed);
    for &experiment in workload.experiments() {
        let entry = grid::entries(experiment)[0];
        let span = tracer.open("harness.grid.run_cell", experiment.slug());
        let _ = catch_unwind(AssertUnwindSafe(|| {
            std::hint::black_box(grid::run_cell(experiment, &entry, 0, &config));
        }));
        tracer.close(span);
    }
    Ok(())
}

/// Sets up [`SETUP_REPEATS`] times and returns each set-up's duration with
/// the reference chunk timed right after it; the first set-up is timed
/// from process start, so it includes start-up.
///
/// # Errors
///
/// Propagates [`warm_up`]'s errors.
pub fn setup(
    workload: Workload,
    seed: u64,
    process_start: Instant,
    tracer: &mut Tracer,
) -> Result<Vec<(Duration, Reference)>, String> {
    let mut times = Vec::with_capacity(SETUP_REPEATS);
    for i in 0..SETUP_REPEATS {
        let start = if i == 0 {
            process_start
        } else {
            Instant::now()
        };
        let span = tracer.open("setup", "");
        let done = warm_up(workload, seed, tracer);
        tracer.close(span);
        done?;
        let time = start.elapsed();
        let mut reference = Reference::default();
        reference.measure();
        times.push((time, reference));
    }
    Ok(times)
}

/// The median of a non-empty sample (mean of the middle two when even).
pub fn median(mut values: Vec<f64>) -> f64 {
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n == 0 {
        return 0.0;
    }
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// Peak resident set of this process (`VmHWM`), in MiB.
///
/// # Errors
///
/// Fails when `/proc/self/status` is unreadable or has no `VmHWM` line.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// The name `BENCHMARK.json` lists.
    pub name: String,
    /// The measured value.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
}

impl Metric {
    /// A metric.
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Self {
        Metric {
            name: name.into(),
            value,
            unit,
        }
    }
}

/// The result line: one JSON object with `correct`, `attempted`, `failed`
/// and `metrics`. A non-finite value is written as 0 so the line stays
/// valid JSON.
pub fn result_json(attempted: usize, failed: usize, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        attempted > 0 && failed == 0,
        body.join(", ")
    )
}

/// The untraced run: set up, then time serial passes for `--seconds`
/// (at least [`MIN_PASSES`]), and print `wall_s`, `setup_s`,
/// `peak_rss_mb` and `failed_frac`, then the result line. `wall_s` and
/// `setup_s` are medians in reference seconds ([`calib`]); the measured
/// medians are printed next to them.
///
/// # Errors
///
/// Fails on a set-up error or an unreadable peak RSS.
pub fn end_to_end(args: &Args, process_start: Instant) -> Result<(), String> {
    if args.digests {
        return print_digests(args);
    }
    let mut tracer = Tracer::off();
    let setups = setup(args.workload, args.seed, process_start, &mut tracer)?;
    let mut oracle = Oracle::new(args.seed);
    let (mut attempted, mut failed, mut passes) = (0, 0, Vec::new());
    let timed = Instant::now();
    // Stop before a pass that would end past `--seconds`, judged by the
    // mean pass so far, reference chunks included.
    let budget = args.seconds as f64;
    while passes.len() < MIN_PASSES || {
        let spent = timed.elapsed().as_secs_f64();
        spent + spent / passes.len() as f64 <= budget
    } {
        let mut reference = Reference::default();
        let pass = run_pass(args.workload, args.seed, &mut tracer, Some(&mut reference));
        attempted += pass.cells();
        failed += oracle.failed_cells(&pass);
        passes.push((pass.wall, reference));
    }
    let scaled = |times: &[(Duration, Reference)]| {
        median(
            times
                .iter()
                .map(|(t, r)| t.as_secs_f64() * r.scale())
                .collect(),
        )
    };
    let measured = |times: &[(Duration, Reference)]| {
        median(times.iter().map(|(t, _)| t.as_secs_f64()).collect())
    };
    let metrics = [
        Metric::new("wall_s", scaled(&passes), "s"),
        Metric::new("setup_s", scaled(&setups), "s"),
        Metric::new("peak_rss_mb", peak_rss_mb()?, "MB"),
    ];
    let checked = if oracle.has_reference(args.workload) {
        "reference digests"
    } else {
        "the first pass's digests"
    };
    println!(
        "perfbench {} seed {}: {} passes, {SETUP_REPEATS} set-ups, figures checked against {checked}",
        args.workload.name(),
        args.seed,
        passes.len()
    );
    let host = median(passes.iter().map(|(_, r)| r.scale()).collect());
    println!(
        "  host speed: {host:.4} reference s per measured s (median pass); \
         measured medians: pass {:.6} s, set-up {:.6} s",
        measured(&passes),
        measured(&setups)
    );
    for m in &metrics {
        println!("  {:<12} {:>12.6} {}", m.name, m.value, m.unit);
    }
    println!(
        "  {:<12} {:>12.6} fraction ({failed} of {attempted} cells)",
        "failed_frac",
        failed as f64 / attempted.max(1) as f64
    );
    println!("{}", result_json(attempted, failed, &metrics));
    Ok(())
}

/// Prints one pass's figure digests as `digests.txt` lines.
fn print_digests(args: &Args) -> Result<(), String> {
    let pass = run_pass(args.workload, args.seed, &mut Tracer::off(), None);
    for run in &pass.runs {
        let digest = run
            .digest
            .ok_or_else(|| format!("{} produced no valid figure", run.experiment.slug()))?;
        println!("{} {} {digest:016x}", args.seed, run.experiment.slug());
    }
    Ok(())
}

/// Allocation counters, fed by the traced binary's global allocator.
pub mod alloc_count {
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

    // Relaxed throughout: the counters are statistics that publish no
    // other data, and `stop` runs after the counted work has joined.
    static ON: AtomicBool = AtomicBool::new(false);
    static COUNT: AtomicU64 = AtomicU64::new(0);
    static BYTES: AtomicU64 = AtomicU64::new(0);

    /// Counts one allocation of `bytes` while counting is on.
    pub fn record(bytes: usize) {
        if ON.load(Ordering::Relaxed) {
            COUNT.fetch_add(1, Ordering::Relaxed);
            BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
        }
    }

    /// Zeroes the counters and starts counting.
    pub fn start() {
        COUNT.store(0, Ordering::Relaxed);
        BYTES.store(0, Ordering::Relaxed);
        ON.store(true, Ordering::Relaxed);
    }

    /// Stops counting and returns `(allocations, bytes)` since [`start`].
    pub fn stop() -> (u64, u64) {
        ON.store(false, Ordering::Relaxed);
        (COUNT.load(Ordering::Relaxed), BYTES.load(Ordering::Relaxed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workloads_partition_the_experiment_grid() {
        let mut listed: Vec<ExperimentId> = Workload::ALL
            .iter()
            .flat_map(|w| w.experiments().iter().copied())
            .collect();
        let total = listed.len();
        listed.sort();
        listed.dedup();
        assert_eq!(listed.len(), total, "an experiment sits in two workloads");
        let mut grid = ExperimentId::all().to_vec();
        grid.sort();
        assert_eq!(
            listed, grid,
            "every experiment belongs to exactly one workload"
        );
    }

    #[test]
    fn every_slug_filter_selects_its_experiment_alone() {
        for workload in Workload::ALL {
            check_plans(workload, 2021).unwrap();
        }
    }

    #[test]
    fn every_experiment_has_reference_digests_for_both_seeds() {
        for seed in REFERENCE_SEEDS {
            for &experiment in ExperimentId::all() {
                assert!(
                    reference(seed, experiment).is_some(),
                    "{seed} {experiment:?}"
                );
            }
        }
        assert_eq!(reference(4, ExperimentId::Fig05Ffmpeg), None);
    }

    #[test]
    fn arguments_parse_and_reject_unknown_input() {
        let parse = |s: &str| Args::parse(s.split_whitespace().map(String::from));
        assert_eq!(
            parse("--workload open_loop --seed 7 --seconds 3"),
            Ok(Args {
                workload: Workload::OpenLoop,
                seed: 7,
                seconds: 3,
                digests: false
            })
        );
        assert!(parse("--workload nope --seed 7 --seconds 3").is_err());
        assert!(parse("--workload cluster --seconds 3").is_err());
        assert!(parse("--workload cluster --seed 7 --seconds").is_err());
    }

    #[test]
    fn the_oracle_fails_a_changed_digest_and_a_missing_figure() {
        let run = |digest| ExperimentRun {
            experiment: ExperimentId::LoadMysql,
            cells: 18,
            digest,
            cell_time: Duration::ZERO,
            merge: Duration::ZERO,
        };
        let pass = |digest| Pass {
            wall: Duration::ZERO,
            runs: vec![run(digest)],
        };
        let mut oracle = Oracle::new(99);
        assert_eq!(oracle.failed_cells(&pass(Some(1))), 0);
        assert_eq!(oracle.failed_cells(&pass(Some(1))), 0);
        assert_eq!(oracle.failed_cells(&pass(Some(2))), 18);
        assert_eq!(oracle.failed_cells(&pass(None)), 18);
    }

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(vec![3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(vec![4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
