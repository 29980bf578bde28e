//! The byte pin the sweep-report tests share.

use std::time::Duration;

use isolation_bench::prelude::{report, ExperimentId, FigureData, RunReport};

/// Asserts that `report::sweep_json` writes `figures` as the `committed`
/// artifact lists `experiments`, byte for byte from the
/// `"experiments": [` line on. The header lines before it record wall
/// clocks, worker counts and timed throughput, which vary between runs.
pub fn assert_report_matches(
    figures: &[FigureData],
    experiments: &[ExperimentId],
    committed: &str,
) {
    let run = RunReport {
        figures: figures.to_vec(),
        timings: Vec::new(),
        workers: 1,
        wall: Duration::ZERO,
        merge: Duration::ZERO,
    };
    let emitted = report::sweep_json("", "", 0, &run, &run, experiments, &[]);
    let block = |json: &str| -> Vec<String> {
        let start = json
            .find("  \"experiments\": [")
            .expect("an experiments block");
        json[start..].lines().map(str::to_string).collect()
    };
    let (emitted, committed) = (block(&emitted), block(committed));
    for (i, (ours, theirs)) in emitted.iter().zip(&committed).enumerate() {
        assert_eq!(ours, theirs, "experiments block differs at line {i}");
    }
    assert_eq!(emitted.len(), committed.len(), "experiments block length");
}
