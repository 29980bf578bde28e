//! Acceptance test of the event core through the whole evaluation grid:
//! every experiment's simulations drain an `EventQueue`, and the full
//! grid stays byte-identical across executor worker counts. The
//! `_on_the_wheel` suffix of the test name dates from the timing-wheel
//! event core; the check does not depend on how the queue is built.

use isolation_bench::prelude::*;

#[test]
fn full_grid_figures_are_byte_identical_for_1_2_and_8_workers_on_the_wheel() {
    // The executor's determinism guarantee must hold for the event core
    // every grid experiment runs on: any worker count renders the same
    // figure bytes.
    let cfg = RunConfig::quick(2021);
    let serial = Executor::new(RunPlan::new(cfg).with_trials(1).with_workers(1)).run();
    // The expected figure count is derived, never hardcoded: a literal
    // here went stale in two previous PRs (simlint rule D005 now rejects
    // the pattern outright).
    assert_eq!(
        serial.figures.len(),
        ExperimentId::all().len(),
        "the full grid must cover every experiment"
    );
    let serial_csv: Vec<String> = serial.figures.iter().map(report::to_csv).collect();
    for workers in [2, 8] {
        let run = Executor::new(RunPlan::new(cfg).with_trials(1).with_workers(workers)).run();
        assert_eq!(run.figures, serial.figures, "workers={workers}");
        let csv: Vec<String> = run.figures.iter().map(report::to_csv).collect();
        assert_eq!(
            csv, serial_csv,
            "workers={workers} must render identical bytes"
        );
    }
}
