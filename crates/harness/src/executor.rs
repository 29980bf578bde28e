//! The parallel, sharded experiment executor.
//!
//! The full evaluation is a grid of independent `(experiment, platform
//! entry, trial)` cells (see [`crate::grid`]). The executor flattens the
//! selected experiments into one work queue, fans the cells out across
//! `std::thread` workers, and merges the results back **in canonical
//! order**. Because each cell derives its random stream statelessly from
//! the root seed, the merged figures are bit-identical for every worker
//! count and any completion order — a 1-worker run is byte-for-byte the
//! serial [`crate::figures::run`] path, one experiment at a time.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use crate::config::RunConfig;
use crate::experiment::{ExperimentId, FigureData};
use crate::grid::{self, CellOutput};

/// What to run and how to schedule it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunPlan {
    /// The run configuration every cell receives (seed, scale, quick mode).
    pub config: RunConfig,
    /// Worker thread count; `0` uses the machine's available parallelism.
    pub workers: usize,
    /// Shard filter: only experiments whose slug contains this substring
    /// run (e.g. `"boot"` selects Figs. 13–15).
    pub shard: Option<String>,
    /// Overrides every experiment's natural trial count (the deterministic
    /// HAP experiment always runs one trial).
    pub trials: Option<usize>,
}

impl RunPlan {
    /// A plan running every experiment with automatic worker count.
    pub fn new(config: RunConfig) -> Self {
        RunPlan {
            config,
            workers: 0,
            shard: None,
            trials: None,
        }
    }

    /// Sets the worker count (`0` = available parallelism).
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Restricts the run to experiments whose slug contains `filter`.
    pub fn with_shard(mut self, filter: &str) -> Self {
        self.shard = Some(filter.to_string());
        self
    }

    /// Overrides the per-experiment trial count.
    pub fn with_trials(mut self, trials: usize) -> Self {
        self.trials = Some(trials.max(1));
        self
    }

    /// The worker count this plan resolves to.
    pub fn effective_workers(&self) -> usize {
        if self.workers > 0 {
            self.workers
        } else {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        }
    }

    /// The experiments selected by the shard filter, in paper order.
    pub fn experiments(&self) -> Vec<ExperimentId> {
        ExperimentId::all()
            .iter()
            .copied()
            .filter(|e| match &self.shard {
                Some(filter) => e.slug().contains(filter.as_str()),
                None => true,
            })
            .collect()
    }

    /// The trial count one experiment runs under this plan.
    pub fn trials_for(&self, experiment: ExperimentId) -> usize {
        match self.trials {
            // The HAP metric is deterministic; extra trials are identical.
            Some(n) if experiment != ExperimentId::Fig18Hap => n.max(1),
            _ => grid::trials(experiment, &self.config),
        }
    }
}

/// Wall-clock accounting for one experiment's cells.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExperimentTiming {
    /// Which experiment.
    pub experiment: ExperimentId,
    /// How many cells it decomposed into.
    pub cells: usize,
    /// Total time spent inside this experiment's cells, summed across
    /// workers (CPU-time-like; the whole run's elapsed time is
    /// [`RunReport::wall`]).
    pub cell_time: Duration,
}

/// The outcome of one executor run.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// The merged figures, in paper order.
    pub figures: Vec<FigureData>,
    /// Per-experiment cell counts and timings, parallel to `figures`.
    pub timings: Vec<ExperimentTiming>,
    /// The worker count the run used.
    pub workers: usize,
    /// Elapsed wall-clock time of the whole run.
    pub wall: Duration,
    /// Wall-clock time of the single-threaded canonical merge phase
    /// (folding cell outputs into figures, after the workers joined).
    pub merge: Duration,
}

impl RunReport {
    /// Finds one experiment's figure.
    pub fn figure(&self, experiment: ExperimentId) -> Option<&FigureData> {
        self.figures.iter().find(|f| f.experiment == experiment)
    }

    /// Total time spent inside cells, summed across workers.
    pub fn total_cell_time(&self) -> Duration {
        self.timings.iter().map(|t| t.cell_time).sum()
    }
}

/// One flattened work item: indexes into the experiment list, its entry
/// table and its trial range.
struct Cell {
    experiment: usize,
    entry: usize,
    trial: usize,
}

/// The work-queue executor over the experiment grid.
#[derive(Debug, Clone)]
pub struct Executor {
    plan: RunPlan,
}

impl Executor {
    /// Creates an executor for the given plan.
    pub fn new(plan: RunPlan) -> Self {
        Executor { plan }
    }

    /// The plan this executor runs.
    pub fn plan(&self) -> &RunPlan {
        &self.plan
    }

    /// Runs every selected cell across the plan's workers and merges the
    /// figures in canonical order.
    pub fn run(&self) -> RunReport {
        let start = Instant::now();
        let experiments = self.plan.experiments();
        let entry_tables: Vec<Vec<grid::Entry>> =
            experiments.iter().map(|e| grid::entries(*e)).collect();

        // Flatten the grid into one canonical work queue.
        let mut cells = Vec::new();
        for (x, experiment) in experiments.iter().enumerate() {
            let trials = self.plan.trials_for(*experiment);
            for entry in 0..entry_tables[x].len() {
                for trial in 0..trials {
                    cells.push(Cell {
                        experiment: x,
                        entry,
                        trial,
                    });
                }
            }
        }

        // Fan out: workers pop cells off a shared counter and write their
        // outputs into the cell's canonical slot, so completion order
        // cannot influence the merge below.
        let results: Mutex<Vec<Option<(CellOutput, Duration)>>> =
            Mutex::new((0..cells.len()).map(|_| None).collect());
        let next = AtomicUsize::new(0);
        let workers = self.plan.effective_workers().max(1);
        let cfg = self.plan.config;
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(cell) = cells.get(i) else { break };
                    let cell_start = Instant::now();
                    let output = grid::run_cell(
                        experiments[cell.experiment],
                        &entry_tables[cell.experiment][cell.entry],
                        cell.trial,
                        &cfg,
                    );
                    let elapsed = cell_start.elapsed();
                    results.lock().expect("no worker panics while storing")[i] =
                        Some((output, elapsed));
                });
            }
        });

        // Merge in canonical order (the queue was built in that order).
        let merge_start = Instant::now();
        let mut results = results.into_inner().expect("workers joined").into_iter();
        let mut figures = Vec::with_capacity(experiments.len());
        let mut timings = Vec::with_capacity(experiments.len());
        for (x, experiment) in experiments.iter().enumerate() {
            let trials = self.plan.trials_for(*experiment);
            let mut cell_time = Duration::ZERO;
            let mut cell_count = 0;
            let outputs: Vec<Vec<CellOutput>> = (0..entry_tables[x].len())
                .map(|_| {
                    (0..trials)
                        .map(|_| {
                            let (output, elapsed) =
                                results.next().flatten().expect("every cell ran");
                            cell_time += elapsed;
                            cell_count += 1;
                            output
                        })
                        .collect()
                })
                .collect();
            figures.push(grid::merge(*experiment, &outputs));
            timings.push(ExperimentTiming {
                experiment: *experiment,
                cells: cell_count,
                cell_time,
            });
        }
        RunReport {
            figures,
            timings,
            workers,
            merge: merge_start.elapsed(),
            wall: start.elapsed(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> RunConfig {
        RunConfig {
            seed: 7,
            runs: 2,
            startups: 12,
            quick: true,
        }
    }

    #[test]
    fn shard_filter_selects_by_slug_substring() {
        let plan = RunPlan::new(small()).with_shard("boot");
        let selected = plan.experiments();
        assert_eq!(selected.len(), 3);
        assert!(selected.iter().all(|e| e.slug().contains("boot")));
        assert!(RunPlan::new(small())
            .with_shard("no-such")
            .experiments()
            .is_empty());
    }

    #[test]
    fn trial_override_applies_except_to_hap() {
        let plan = RunPlan::new(small()).with_trials(9);
        assert_eq!(plan.trials_for(ExperimentId::Fig05Ffmpeg), 9);
        assert_eq!(plan.trials_for(ExperimentId::Fig13BootContainers), 9);
        assert_eq!(plan.trials_for(ExperimentId::Fig18Hap), 1);
    }

    #[test]
    fn a_sharded_run_reports_figures_and_timings() {
        let plan = RunPlan::new(small()).with_shard("fig05").with_workers(2);
        let report = Executor::new(plan).run();
        assert_eq!(report.figures.len(), 1);
        assert_eq!(report.timings.len(), 1);
        assert_eq!(report.workers, 2);
        // 10 platforms × 2 trials.
        assert_eq!(report.timings[0].cells, 20);
        assert!(report.figure(ExperimentId::Fig05Ffmpeg).is_some());
        assert!(report.total_cell_time() > Duration::ZERO);
        assert!(
            report.merge <= report.wall,
            "the merge phase is part of the run's wall clock"
        );
    }

    #[test]
    fn worker_count_does_not_change_the_figures() {
        let base = Executor::new(RunPlan::new(small()).with_shard("fig1").with_workers(1)).run();
        for workers in [2, 5] {
            let report = Executor::new(
                RunPlan::new(small())
                    .with_shard("fig1")
                    .with_workers(workers),
            )
            .run();
            assert_eq!(report.figures, base.figures, "workers={workers}");
        }
    }
}
