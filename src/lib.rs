//! # isolation-bench
//!
//! A Rust reproduction of *"A Fresh Look at the Architecture and
//! Performance of Contemporary Isolation Platforms"* (Middleware '21):
//! architecturally faithful models of nine isolation platforms (native,
//! Docker, LXC, QEMU/KVM, Firecracker, Cloud Hypervisor, Kata containers,
//! gVisor and OSv), the full cross-platform benchmark suite, and the
//! extended Horizontal Attack Profile metric.
//!
//! This crate is a facade re-exporting the workspace members; see the
//! README for the architecture overview.
//!
//! ```
//! use isolation_bench::prelude::*;
//!
//! let cfg = RunConfig::quick(2021);
//! let fig = isolation_bench::harness::figures::run(ExperimentId::Fig11Iperf, &cfg);
//! let native = fig.series[0].mean_of("native").unwrap();
//! let gvisor = fig.series[0].mean_of("gvisor").unwrap();
//! assert!(native > gvisor);
//! ```

#![warn(missing_docs)]

pub use blocksim;
pub use hap;
pub use harness;
pub use kvstore;
pub use memsim;
pub use netsim;
pub use oskern;
pub use platforms;
pub use relstore;
pub use simcore;
pub use vmm;
pub use workloads;

/// Commonly used items for driving the benchmark harness.
pub mod prelude {
    pub use hap::HapSuite;
    pub use harness::{
        figures, report, Executor, ExperimentId, FigureData, RunConfig, RunPlan, RunReport,
    };
    pub use platforms::{Platform, PlatformFamily, PlatformId};
    pub use simcore::{Nanos, SimRng};
}
