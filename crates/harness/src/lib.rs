//! # harness
//!
//! The cross-platform isolation benchmark harness — the paper's primary
//! artifact. It wires the workloads to the platform models and regenerates
//! every figure of the evaluation section (Figs. 5–18), producing labelled
//! data series, markdown/CSV reports, and machine-checkable versions of
//! the paper's findings.
//!
//! ```
//! use harness::{ExperimentId, RunConfig};
//!
//! let cfg = RunConfig::quick(42);
//! let fig = harness::figures::run(ExperimentId::Fig11Iperf, &cfg);
//! assert_eq!(fig.experiment, ExperimentId::Fig11Iperf);
//! assert!(!fig.series.is_empty());
//! println!("{}", harness::report::to_markdown(&fig));
//! ```
//!
//! The same grid runs in parallel through the executor, bit-identically
//! for any worker count:
//!
//! ```
//! use harness::{Executor, ExperimentId, RunConfig, RunPlan};
//!
//! let plan = RunPlan::new(RunConfig::quick(42))
//!     .with_shard("fig11")
//!     .with_workers(2);
//! let report = Executor::new(plan).run();
//! let fig = report.figure(ExperimentId::Fig11Iperf).unwrap();
//! assert_eq!(*fig, harness::figures::run(ExperimentId::Fig11Iperf, &RunConfig::quick(42)));
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod cli;
pub mod config;
pub mod executor;
pub mod experiment;
pub mod figures;
pub mod findings;
pub mod grid;
pub mod obs;
pub mod report;

pub use config::RunConfig;
pub use executor::{Executor, RunPlan, RunReport};
pub use experiment::{DataPoint, ExperimentId, FigureData, Series};
pub use findings::{check_findings_on, FindingCheck};
