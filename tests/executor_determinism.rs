//! The executor's run-plan knobs: a shard filter runs only the matching
//! experiments with the data of the full run, and a trial override
//! scales the cell grid without changing its shape. The headline
//! guarantee, bit-identical figures for every worker count, is checked
//! on the quick grid one shard at a time by `paper_shape` and the five
//! sweep-family test files; the last test here checks that their shards
//! cover the whole grid.

use isolation_bench::prelude::*;

fn small() -> RunConfig {
    RunConfig {
        seed: 7,
        runs: 2,
        startups: 24,
        quick: true,
    }
}

#[test]
fn shard_filter_runs_only_matching_experiments() {
    let run = Executor::new(RunPlan::new(small()).with_shard("boot").with_workers(2)).run();
    let slugs: Vec<&str> = run.figures.iter().map(|f| f.experiment.slug()).collect();
    assert_eq!(
        slugs,
        [
            "fig13_boot_containers",
            "fig14_boot_hypervisors",
            "fig15_boot_osv"
        ]
    );
    // Sharding does not change the data relative to the full run.
    let full = figures::run(ExperimentId::Fig14BootHypervisors, &small());
    assert_eq!(
        *run.figure(ExperimentId::Fig14BootHypervisors).unwrap(),
        full
    );
}

#[test]
fn trial_override_scales_the_cell_grid_without_changing_its_shape() {
    let plan = RunPlan::new(small())
        .with_shard("fig05")
        .with_trials(5)
        .with_workers(4);
    let run = Executor::new(plan).run();
    assert_eq!(run.timings[0].cells, 10 * 5);
    assert_eq!(run.figures[0].series[0].points.len(), 10);
}

#[test]
fn the_grid_test_shards_select_every_experiment_once() {
    // The shard filters under which `paper_shape`, `load_curves`,
    // `tenant_isolation`, `pipeline`, `cluster` and `cluster_failover`
    // check the executor against the serial figure path.
    let shards = [
        "fig",
        "sysbench_prime",
        "load_",
        "tenant_",
        "pipeline",
        "cluster_m",
        "cluster_failover",
    ];
    for experiment in ExperimentId::all() {
        let selecting = shards
            .iter()
            .filter(|shard| {
                let plan = RunPlan::new(small()).with_shard(shard);
                plan.experiments().contains(experiment)
            })
            .count();
        assert_eq!(
            selecting,
            1,
            "{} is selected by {selecting} grid test shards",
            experiment.slug()
        );
    }
}
