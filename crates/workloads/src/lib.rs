//! # workloads
//!
//! Rust re-implementations of every benchmark workload the paper runs,
//! driving the platform models from the `platforms` crate:
//!
//! | Module | Paper benchmark | Figure |
//! |---|---|---|
//! | [`ffmpeg`] | ffmpeg H.264→H.265 re-encode | Fig. 5 |
//! | [`sysbench_cpu`] | Sysbench CPU prime verification | §3.1 |
//! | [`tinymembench`] | Tinymembench latency + bandwidth | Figs. 6–7 |
//! | [`stream`] | STREAM COPY | Fig. 8 |
//! | [`fio`] | fio 128 KiB throughput + 4 KiB randread latency | Figs. 9–10 |
//! | [`iperf`] | iperf3 streaming throughput | Fig. 11 |
//! | [`netperf`] | netperf request/response p90 latency | Fig. 12 |
//! | [`startup`] | 300-startup boot-time CDFs | Figs. 13–15 |
//! | [`ycsb`] | Memcached + YCSB workload A | Fig. 16 |
//! | [`sysbench_oltp`] | MySQL + sysbench oltp_read_write | Fig. 17 |
//!
//! Beyond the paper, [`loadgen`] adds an **open-loop** load-generation
//! subsystem: Poisson arrivals over a configurable client population drive
//! the memcached/MySQL backends through a bounded admission queue,
//! producing throughput-vs-latency (p50/p95/p99) curves per platform.
//! [`tenancy`] co-locates several such populations on one platform —
//! per-tenant bounded admission queues in front of the weighted
//! deficit-round-robin service-slot scheduler in [`slots`] — to measure
//! isolation *between* workloads (victim-vs-aggressor sweeps, SLO
//! violations, isolation indices). [`pipeline`] replaces the opaque
//! per-request service time with a staged middleware chain — per-stage
//! in/out costs, a warmable auth cache with hit/miss latencies, and
//! short-circuit probabilities — composed on the same admission/slot
//! core, sweeping chain depth and cache hit rate per platform.
//! [`cluster`] scales from the node to the fleet: a routing tier hashes
//! Zipf-skewed keys over N backend shards, each with its own admission
//! queue, slot pool and store cache, all driven by one typed-event queue
//! — sweeping shard count, skew and rebalancing policy. All four sweep
//! workloads implement the [`bench::WorkloadBenchmark`] trait, the
//! grid's one dispatch surface.

// No unsafe anywhere in the simulation layers: the bit-identical replay
// guarantee rests on defined behaviour only (simlint + workspace lints
// audit the rest).
#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod bench;
pub mod cluster;
pub mod ffmpeg;
pub mod fio;
pub mod iperf;
pub mod loadgen;
pub mod netperf;
pub mod pipeline;
pub mod slots;
pub mod startup;
pub mod stream;
pub mod sysbench_cpu;
pub mod sysbench_oltp;
pub mod tenancy;
pub mod tinymembench;
pub mod ycsb;

pub use bench::WorkloadBenchmark;
pub use cluster::{ClusterBenchmark, ClusterPoint, ClusterSetting, RoutePolicy};
pub use ffmpeg::FfmpegBenchmark;
pub use fio::FioBenchmark;
pub use iperf::IperfBenchmark;
pub use loadgen::{LoadBackend, LoadPoint, LoadgenBenchmark};
pub use netperf::NetperfBenchmark;
pub use pipeline::{PipelineBenchmark, PipelinePoint, PipelineSetting};
pub use slots::{Admission, ClassConfig, ServiceProfile, SlotPolicy, SlotPool, StoreSnapshot};
pub use startup::StartupBenchmark;
pub use stream::StreamBenchmark;
pub use sysbench_cpu::SysbenchCpuBenchmark;
pub use sysbench_oltp::OltpBenchmark;
pub use tenancy::{ArrivalProcess, ColocationPoint, TenancyBenchmark, TenantPoint, TenantSpec};
pub use tinymembench::TinymembenchBenchmark;
pub use ycsb::YcsbBenchmark;

/// Formats the store key `{prefix}{id:08}` into `buf`, reusing its
/// allocation from one operation to the next, and returns the key bytes.
pub(crate) fn format_key<'b>(buf: &'b mut String, prefix: &str, id: u64) -> &'b [u8] {
    use std::fmt::Write;
    buf.clear();
    write!(buf, "{prefix}{id:08}").expect("formatting into a String cannot fail");
    buf.as_bytes()
}
