//! The observability layer's facade-level guarantees: trace artifacts
//! are a pure function of the root seed — byte-identical across runs
//! and executor worker counts, and against recorded reference digests —
//! and a zero-rate recorder records nothing at all.

use isolation_bench::harness::obs::traced_run;
use isolation_bench::prelude::*;
use isolation_bench::simcore::obs::{ObsConfig, Recorder, Span};
use isolation_bench::simcore::rng;
use isolation_bench::workloads::loadgen::LoadgenBenchmark;
use isolation_bench::workloads::LoadBackend;

const SEED: u64 = 2021;

fn small() -> RunConfig {
    RunConfig {
        seed: SEED,
        runs: 2,
        startups: 24,
        quick: true,
    }
}

#[test]
fn trace_artifacts_are_byte_identical_across_executor_worker_counts() {
    // The recorder draws nothing from ambient state: running the figure
    // grid through the executor at any worker count leaves the traced
    // artifacts (and the figures themselves) byte-identical.
    let reference = traced_run("pipeline", true, SEED).unwrap();
    let serial = Executor::new(RunPlan::new(small()).with_shard("boot").with_workers(1)).run();
    for workers in [2, 8] {
        let run = Executor::new(
            RunPlan::new(small())
                .with_shard("boot")
                .with_workers(workers),
        )
        .run();
        assert_eq!(run.figures, serial.figures, "workers={workers}");
        let traced = traced_run("pipeline", true, SEED).unwrap();
        assert_eq!(traced.chrome, reference.chrome, "workers={workers}");
        assert_eq!(traced.timeline, reference.timeline, "workers={workers}");
    }
    assert!(reference.spans_accepted > 0);
}

/// FNV-1a over an artifact's bytes.
fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x1000_0000_01b3)
    })
}

#[test]
fn traced_artifacts_match_the_recorded_digests() {
    // Figure digests do not see the event schedule, but the timeline's
    // `core` block (pushes, pops, slot drains, cascades) does: these pin
    // the push order of the open-loop engine's three uses and of the
    // cluster's engine, not only their measurements.
    // Recorded at seed 2021 in quick mode, as (chrome, timeline).
    const RECORDED: [(&str, u64, u64); 4] = [
        ("loadgen", 0xf8df_c2a2_ee7b_f203, 0x401c_864f_091c_6bac),
        ("tenancy", 0xe774_c852_9e3b_2ede, 0xcf4d_b689_4412_8e87),
        ("pipeline", 0xd265_c343_6a43_d51e, 0x51f0_aec4_f5bb_1aa3),
        ("cluster", 0x0c02_8df1_0536_cdcb, 0x900d_bab2_5748_1cc5),
    ];
    for (target, chrome, timeline) in RECORDED {
        let run = traced_run(target, true, SEED).unwrap();
        assert_eq!(
            (fnv1a(&run.chrome), fnv1a(&run.timeline)),
            (chrome, timeline),
            "{target}: traced artifacts differ from the recorded ones"
        );
    }
}

#[test]
fn the_sampled_span_set_is_identical_across_runs() {
    let spans = |seed: u64| -> Vec<Span> {
        let platform = PlatformId::Docker.build();
        let bench = LoadgenBenchmark::quick(LoadBackend::Memcached);
        let mut run_rng = SimRng::seed_from(seed);
        let recorder = Recorder::try_new(ObsConfig::new(
            rng::derive_seed(seed, "obs", "loadgen", 0),
            0.25,
        ))
        .unwrap();
        let (_, obs) = bench
            .run_point_traced(&platform, 0.8, &mut run_rng, recorder)
            .unwrap();
        obs.spans()
    };
    let first = spans(SEED);
    assert!(!first.is_empty());
    assert_eq!(first, spans(SEED), "same seed, same sampled span set");
    assert_ne!(first, spans(SEED + 1), "the sample is seed-derived");
}

#[test]
fn a_zero_sample_rate_run_records_no_spans() {
    let platform = PlatformId::Docker.build();
    let bench = LoadgenBenchmark::quick(LoadBackend::Memcached);
    let recorder = Recorder::try_new(ObsConfig::new(SEED, 0.0)).unwrap();
    let mut traced_rng = SimRng::seed_from(SEED);
    let (traced_point, obs) = bench
        .run_point_traced(&platform, 0.8, &mut traced_rng, recorder)
        .unwrap();
    assert_eq!(obs.spans_accepted(), 0);
    assert!(obs.spans().is_empty());
    assert!(!obs.chrome_trace_json("loadgen").contains("slot-service"));
    // Tracing at rate zero is still observation only.
    let mut plain_rng = SimRng::seed_from(SEED);
    let plain_point = bench.run_point(&platform, 0.8, &mut plain_rng).unwrap();
    assert_eq!(traced_point, plain_point);
}
