//! Trace study: runs one traced sweep point of the middleware pipeline
//! and one of the sharded cluster, writes the Chrome-trace and timeline
//! artifacts, and prints what the deterministic observability layer
//! sees — span-kind census, busiest timeline lanes, and the sampling
//! contract (same seed, same spans, whatever the worker count).
//!
//! Run with: `cargo run --release --example trace_study`
//!
//! Flags:
//! * `--paper` — full-scale configuration (default is quick)
//! * `--seed N` — root seed (default 2021)

use isolation_bench::harness::cli::parse_count;
use isolation_bench::harness::obs::{traced_run, TRACE_SAMPLE_RATE};

/// Counts occurrences of one span-kind label inside a Chrome trace.
fn count_label(chrome: &str, label: &str) -> usize {
    chrome.matches(&format!("\"name\": \"{label}\"")).count()
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let paper_scale = args.iter().any(|a| a == "--paper");
    let seed = parse_count(&args, "--seed").map_or(2021, |n| n as u64);
    println!(
        "Trace study ({} mode, seed {seed}, sample rate {TRACE_SAMPLE_RATE})\n",
        if paper_scale { "paper" } else { "quick" },
    );

    for target in ["pipeline", "cluster"] {
        let trace = traced_run(target, !paper_scale, seed)
            .expect("the traced study configurations are valid");
        let chrome_path = format!("TRACE_{target}.json");
        let timeline_path = format!("BENCH_trace_{target}.json");
        std::fs::write(&chrome_path, &trace.chrome)
            .unwrap_or_else(|e| panic!("cannot write {chrome_path}: {e}"));
        std::fs::write(&timeline_path, &trace.timeline)
            .unwrap_or_else(|e| panic!("cannot write {timeline_path}: {e}"));

        println!("### {target}\n");
        println!(
            "- spans accepted: {} (ring retained the whole window: {})",
            trace.spans_accepted,
            trace.chrome.len() > 2,
        );
        println!("- span census:");
        for label in [
            "admission-wait",
            "slot-service",
            "stage-in",
            "stage-out",
            "cache-hit",
            "cache-miss",
            "short-circuit",
            "route",
            "hand-off",
        ] {
            let n = count_label(&trace.chrome, label);
            if n > 0 {
                println!("    {label:<15} {n}");
            }
        }
        println!(
            "- artifacts: {chrome_path} (chrome://tracing / Perfetto), {timeline_path} \
             (schema isolation-bench/obs/v1)\n"
        );
    }

    // The reproducibility contract, demonstrated end to end: the same
    // seed yields byte-identical artifacts on a second run.
    let a = traced_run("cluster", !paper_scale, seed).expect("valid");
    let b = traced_run("cluster", !paper_scale, seed).expect("valid");
    assert_eq!(a.chrome, b.chrome, "traced runs must be reproducible");
    println!("re-run with the same seed: artifacts byte-identical ✔");
}
