//! Machine-readable open-loop load-curve bench runner.
//!
//! Runs the two load-curve experiments (`load_memcached`, `load_mysql`)
//! twice — serially (1 worker) and with N workers — and writes
//! `BENCH_load_curves.json` with per-platform throughput-vs-latency
//! sweeps. Exits non-zero if the serial and parallel runs disagree, if an
//! experiment is missing, or if the emitted JSON contains any non-finite
//! value (NaN/inf), so CI can gate on all three.
//!
//! Run with: `cargo run --release -p bench --bin load_curves`
//!
//! Flags:
//! * `--paper` — full-scale configuration (default is quick)
//! * `--workers N` — parallel worker count (default: available parallelism)
//! * `--trials N` — override every experiment's trial count
//! * `--out PATH` — output path (default `BENCH_load_curves.json`)
//! * `--trace` — additionally run one traced 0.8-fraction sweep point and
//!   write `TRACE_loadgen.json` (Chrome trace events) plus
//!   `BENCH_trace_loadgen.json` (the windowed-metrics timeline)

use std::process::ExitCode;

use harness::cli::{run_sweep_bench, SweepBench};
use harness::ExperimentId;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let bench = SweepBench {
        name: "load_curves",
        // `load_` keeps the filter to the two open-loop experiments (the
        // closed-loop fig16_memcached/fig17_mysql slugs do not contain it).
        shard: "load_",
        experiments: &[ExperimentId::LoadMemcached, ExperimentId::LoadMysql],
        schema: "isolation-bench/load-curves/v1",
        default_out: "BENCH_load_curves.json",
        trace: Some("loadgen"),
    };
    run_sweep_bench(&bench, &args, |_, _| Vec::new())
}
