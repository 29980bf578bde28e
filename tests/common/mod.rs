//! Helpers shared by the integration tests that read the quick grid.
//! Each such test file checks one family of experiments: it computes
//! the family once serially, which every test in the file reads, and
//! once each through the executor at 2 and 8 workers.

use std::sync::OnceLock;

use isolation_bench::harness::check_findings_on;
use isolation_bench::prelude::{
    figures, report, Executor, ExperimentId, FigureData, RunConfig, RunPlan,
};

/// The configuration of the quick grid every family is computed at.
pub fn cfg() -> RunConfig {
    RunConfig::quick(2021)
}

/// The serial figures of `experiments`, computed once: they are a pure
/// function of the fixed seed, and a test binary checks one family.
pub fn serial(experiments: &[ExperimentId]) -> &'static [FigureData] {
    static FIGURES: OnceLock<Vec<FigureData>> = OnceLock::new();
    let computed = FIGURES.get_or_init(|| {
        experiments
            .iter()
            .map(|e| figures::run(*e, &cfg()))
            .collect()
    });
    assert!(
        computed
            .iter()
            .map(|f| f.experiment)
            .eq(experiments.iter().copied()),
        "a test binary computes the serial figures of one family"
    );
    computed
}

/// The reference figure digests the repository benchmark checks: one
/// `<seed> <experiment slug> <hex digest>` line per recorded figure.
const RECORDED: &str = include_str!("../../perfbench/digests.txt");

/// FNV-1a over a figure's `Debug` rendering. `f64` debug-prints its
/// shortest round-tripping form, so equal digests mean bit-identical
/// figures.
fn digest(fig: &FigureData) -> u64 {
    format!("{fig:?}")
        .bytes()
        .fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x1000_0000_01b3)
        })
}

/// The digest `perfbench/digests.txt` records for `slug` at `seed`.
fn recorded_digest(seed: u64, slug: &str) -> u64 {
    RECORDED
        .lines()
        .filter(|line| !line.starts_with('#'))
        .find_map(|line| {
            let mut fields = line.split_whitespace();
            let (s, name, hex) = (fields.next()?, fields.next()?, fields.next()?);
            if s.parse::<u64>().ok()? == seed && name == slug {
                u64::from_str_radix(hex, 16).ok()
            } else {
                None
            }
        })
        .unwrap_or_else(|| panic!("perfbench/digests.txt records no {seed} {slug} digest"))
}

/// Asserts that every figure, computed at [`cfg`], is bit-identical to
/// the figure its recorded digest was taken from.
pub fn assert_recorded_digests(figures: &[FigureData]) {
    let seed = cfg().seed;
    for fig in figures {
        let slug = fig.experiment.slug();
        assert_eq!(
            digest(fig),
            recorded_digest(seed, slug),
            "{slug} at seed {seed} differs from its perfbench/digests.txt figure"
        );
    }
}

/// Asserts that the finding checks over `figures` are exactly
/// `expected`, in order, and that every one of them passes.
pub fn assert_findings(figures: &[FigureData], expected: &[&str]) {
    let checks = check_findings_on(figures);
    let ids: Vec<&str> = checks.iter().map(|c| c.id).collect();
    assert_eq!(ids, expected, "the finding checks these figures run");
    let failed: Vec<_> = checks.iter().filter(|c| !c.passed).collect();
    assert!(failed.is_empty(), "failed findings: {failed:#?}");
}

/// Asserts that every figure renders a titled markdown table and a CSV
/// with at least one data row.
pub fn assert_renders(figures: &[FigureData]) {
    for figure in figures {
        let md = report::to_markdown(figure);
        let csv = report::to_csv(figure);
        assert!(
            md.contains("###"),
            "{:?} markdown missing title",
            figure.experiment
        );
        assert!(csv.lines().count() > 1, "{:?} csv empty", figure.experiment);
        assert!(!figure.series.is_empty());
    }
}

/// Asserts that the executor, at 2 and at 8 workers, runs the
/// `experiments` the `shards` filters select to their [`serial`] figures
/// bit for bit and renders the same CSV bytes, and that the serial
/// figures render non-empty markdown and CSV.
///
/// The serial figure path is the one-worker reference. `Executor::run`
/// has one code path for every worker count: workers pop cells off a
/// shared counter and write each output into its canonical slot, so one
/// worker is the in-order case of what 2 and 8 run out of order. The
/// executor runs come before the first read of the serial figures, so
/// they overlap the serial pass when another test has started it.
pub fn assert_executor_reproduces(shards: &[&str], experiments: &[ExperimentId]) {
    let paper_order = |e: ExperimentId| ExperimentId::all().iter().position(|x| *x == e);
    let runs: Vec<(usize, Vec<FigureData>)> = [2, 8]
        .into_iter()
        .map(|workers| {
            let mut figures = Vec::new();
            for shard in shards {
                let plan = RunPlan::new(cfg()).with_shard(shard).with_workers(workers);
                let run = Executor::new(plan).run();
                assert_eq!(run.workers, workers);
                figures.extend(run.figures);
            }
            figures.sort_by_key(|f| paper_order(f.experiment));
            (workers, figures)
        })
        .collect();
    let serial = serial(experiments);
    assert_renders(serial);
    let serial_csv: Vec<String> = serial.iter().map(report::to_csv).collect();
    for (workers, figures) in &runs {
        assert_eq!(figures, serial, "workers={workers}");
        let csv: Vec<String> = figures.iter().map(report::to_csv).collect();
        assert_eq!(
            csv, serial_csv,
            "workers={workers} must render identical bytes"
        );
    }
}
