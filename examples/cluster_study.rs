//! Sharded-cluster study: a routing tier hashes Zipf-skewed keys over N
//! backend shards, each with its own derated slot pool and completion
//! timer, and the study prints what utilization-constant scale-out buys
//! and costs — the median improves as shards multiply while the hot keys
//! concentrate on one shard and inflate its tail — plus what resharding
//! during tenant churn recovers versus leaving the hot set pinned.
//!
//! Run with: `cargo run --release --example cluster_study`
//!
//! Flags:
//! * `--paper` — full-scale configuration (default is quick)
//! * `--workers N` — worker thread count (default: available parallelism)

use isolation_bench::harness::cli::parse_count;
use isolation_bench::harness::grid;
use isolation_bench::prelude::*;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let paper_scale = args.iter().any(|a| a == "--paper");
    let cfg = if paper_scale {
        RunConfig::paper(2021)
    } else {
        RunConfig::quick(2021)
    };

    // `cluster_m` keeps the failover experiments out of the plain study.
    let mut plan = RunPlan::new(cfg).with_shard("cluster_m");
    if let Some(workers) = parse_count(&args, "--workers") {
        plan = plan.with_workers(workers);
    }
    let executor = Executor::new(plan);
    println!(
        "Sharded-cluster study ({} mode, seed {}, {} workers)\n",
        if paper_scale { "paper" } else { "quick" },
        cfg.seed,
        executor.plan().effective_workers(),
    );

    let run: RunReport = executor.run();
    for figure in &run.figures {
        println!("{}", report::to_markdown(figure));
    }

    // Cluster summary: per platform, what scale-out does to the median
    // and to the hottest shard, how skew concentrates load, and what
    // resharding under churn recovers.
    for experiment in [ExperimentId::ClusterMemcached, ExperimentId::ClusterMysql] {
        let Some(fig) = run.figure(experiment) else {
            continue;
        };
        println!("### {} — scale-out and routing summary\n", fig.title);
        for platform in grid::platforms_of(fig, grid::CLUSTER_HOT_P99) {
            let at = |metric: &str, label: &str| {
                fig.series_named(&format!("{platform} {metric}"))
                    .and_then(|s| s.mean_of(label))
                    .unwrap_or(0.0)
            };
            let p50_s1 = at(grid::CLUSTER_P50, "s1").max(f64::MIN_POSITIVE);
            let hot_s1 = at(grid::CLUSTER_HOT_P99, "s1").max(f64::MIN_POSITIVE);
            let rebal = at(grid::CLUSTER_IMBALANCE, "s16 rebal").max(f64::MIN_POSITIVE);
            println!(
                "- {platform}: p50 s1 {:.0} us -> s256 {:.0} us ({:.2}x); hot-shard p99 \
                 s1 {:.0} us -> s256 {:.0} us ({:.1}x); imbalance z0.00 {:.2} -> z0.99 {:.2}; \
                 pinned/rebal imbalance {:.1}x, hot p99 {:.1}x",
                p50_s1,
                at(grid::CLUSTER_P50, "s256"),
                at(grid::CLUSTER_P50, "s256") / p50_s1,
                hot_s1,
                at(grid::CLUSTER_HOT_P99, "s256"),
                at(grid::CLUSTER_HOT_P99, "s256") / hot_s1,
                at(grid::CLUSTER_IMBALANCE, "s16 z0.00"),
                at(grid::CLUSTER_IMBALANCE, "s16 z0.99"),
                at(grid::CLUSTER_IMBALANCE, "s16 pinned") / rebal,
                at(grid::CLUSTER_HOT_P99, "s16 pinned")
                    / at(grid::CLUSTER_HOT_P99, "s16 rebal").max(f64::MIN_POSITIVE),
            );
        }
        println!();
    }

    println!("{}", report::timing_table(&run));
}
