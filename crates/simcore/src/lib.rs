//! # simcore
//!
//! Deterministic simulation core shared by every other crate in the
//! `isolation-bench` workspace.
//!
//! The crate provides:
//!
//! * [`time`] — a nanosecond-precision virtual time type ([`Nanos`]) used as
//!   the unit of simulated latency and duration everywhere in the workspace.
//! * [`rng`] — a seeded, splittable random number generator ([`SimRng`]) so
//!   that every experiment is reproducible from a single seed, a Zipf
//!   rank sampler ([`Zipf`]) built once per key-space size and skew, and
//!   a stream read by index ([`Replay`]) that draws a trial's common
//!   random numbers once for all of its sweep points.
//! * [`dist`] — parametric latency/cost distributions ([`Distribution`]).
//! * [`stats`] — running statistics and empirical CDFs with percentile
//!   queries, used by the benchmark harness to summarize repeated runs.
//! * [`events`] — the discrete-event queue ([`EventQueue`]), a binary
//!   min-heap on `(timestamp, seq)` beside one FIFO run for time-ordered
//!   arrivals, that every queueing simulation drains as typed events.
//! * [`resource`] — shared-resource models used by the device and
//!   slot-pool simulations: a bandwidth that turns bytes into transfer
//!   time, and a batched completion timer.
//! * [`obs`] — deterministic observability: seed-sampled per-request
//!   trace spans, windowed virtual-time metrics and event-core counters,
//!   exported as Chrome-trace and timeline JSON artifacts.
//!
//! # Example
//!
//! ```
//! use simcore::{Nanos, SimRng, stats::RunningStats};
//!
//! let mut rng = SimRng::seed_from(42);
//! let mut stats = RunningStats::new();
//! for _ in 0..100 {
//!     let jitter = rng.normal(1_000.0, 50.0).max(0.0);
//!     stats.record(jitter);
//! }
//! assert!((stats.mean() - 1_000.0).abs() < 50.0);
//! let latency = Nanos::from_micros(3) + Nanos::from_nanos(250);
//! assert_eq!(latency.as_nanos(), 3_250);
//! ```

// No unsafe anywhere in the simulation layers: the bit-identical replay
// guarantee rests on defined behaviour only (simlint + workspace lints
// audit the rest).
#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod dist;
pub mod error;
pub mod events;
pub mod obs;
pub mod resource;
pub mod rng;
pub mod stats;
pub mod time;

pub use dist::Distribution;
pub use error::SimError;
pub use events::{CoreCounters, EventQueue};
pub use obs::{ObsConfig, Recorder, Span, SpanKind};
pub use resource::Bandwidth;
pub use rng::{Replay, SimRng, Zipf};
pub use stats::{Cdf, RunningStats};
pub use time::Nanos;

/// Result alias used across the simulation core.
pub type Result<T> = std::result::Result<T, SimError>;
