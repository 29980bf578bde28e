//! # kvstore
//!
//! A Memcached-like in-memory key-value store.
//!
//! The paper benchmarks Memcached with YCSB "workload a" (50/50 reads and
//! updates) on every isolation platform. The store here is the workload's
//! server side: a sharded hash map with per-shard LRU eviction. The YCSB
//! driver in the `workloads` crate calls [`Store::get`] and [`Store::set`]
//! directly, so it exercises a real data structure (hashing, eviction,
//! contention across shards) rather than a stub; the cluster sweeps run
//! one [`Shard`] per simulated node.
//!
//! ```
//! use kvstore::{Store, StoreConfig};
//!
//! let store = Store::new(StoreConfig::default());
//! store.set(b"user:1", b"alice".to_vec());
//! assert_eq!(store.get(b"user:1").as_deref(), Some(&b"alice"[..]));
//! assert!(store.get(b"user:2").is_none());
//! ```

// No unsafe anywhere in the simulation layers: the bit-identical replay
// guarantee rests on defined behaviour only (simlint + workspace lints
// audit the rest).
#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod shard;
pub mod store;

pub use shard::{Shard, ShardStats};
pub use store::{Store, StoreConfig, StoreStats};
