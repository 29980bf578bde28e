//! The sharded, thread-safe store.

use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};

use crate::shard::Shard;

/// Configuration of a [`Store`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoreConfig {
    /// Number of independently locked shards.
    pub shards: usize,
    /// Total memory budget in bytes, split evenly across shards.
    pub memory_limit_bytes: usize,
}

impl Default for StoreConfig {
    fn default() -> Self {
        StoreConfig {
            shards: 16,
            memory_limit_bytes: 256 << 20,
        }
    }
}

/// Aggregate statistics of a store.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct StoreStats {
    /// Number of `get` operations served.
    pub gets: u64,
    /// Number of `get` operations that found the key.
    pub hits: u64,
    /// Number of `set` operations served.
    pub sets: u64,
    /// Number of entries evicted across all shards.
    pub evictions: u64,
    /// Live entries across all shards.
    pub entries: u64,
    /// Bytes of key+value data across all shards.
    pub bytes: u64,
}

/// A Memcached-like sharded key-value store.
///
/// All operations are safe to call concurrently; each key maps to exactly
/// one shard via FNV-1a hashing and only that shard's lock is taken.
#[derive(Debug)]
pub struct Store {
    shards: Vec<Mutex<Shard>>,
    tick: AtomicU64,
    gets: AtomicU64,
    hits: AtomicU64,
    sets: AtomicU64,
}

impl Store {
    /// Creates a store with the given configuration.
    ///
    /// # Panics
    ///
    /// Panics if `config.shards` is zero.
    pub fn new(config: StoreConfig) -> Self {
        assert!(config.shards > 0, "store needs at least one shard");
        let per_shard = (config.memory_limit_bytes / config.shards).max(1024);
        Store {
            shards: (0..config.shards)
                .map(|_| Mutex::new(Shard::new(per_shard)))
                .collect(),
            tick: AtomicU64::new(0),
            gets: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            sets: AtomicU64::new(0),
        }
    }

    fn shard_for(&self, key: &[u8]) -> &Mutex<Shard> {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in key {
            h ^= u64::from(*b);
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
        &self.shards[(h % self.shards.len() as u64) as usize]
    }

    /// Reads a value.
    pub fn get(&self, key: &[u8]) -> Option<Vec<u8>> {
        let tick = self.tick.fetch_add(1, Ordering::Relaxed);
        self.gets.fetch_add(1, Ordering::Relaxed);
        let result = self.shard_for(key).lock().get(key, tick);
        if result.is_some() {
            self.hits.fetch_add(1, Ordering::Relaxed);
        }
        result
    }

    /// Writes a value; returns whether the key already existed.
    pub fn set(&self, key: &[u8], value: Vec<u8>) -> bool {
        let tick = self.tick.fetch_add(1, Ordering::Relaxed);
        self.sets.fetch_add(1, Ordering::Relaxed);
        self.shard_for(key).lock().set(key, value, tick)
    }

    /// Snapshot of the aggregate statistics.
    pub fn stats(&self) -> StoreStats {
        let mut entries = 0u64;
        let mut bytes = 0u64;
        let mut evictions = 0u64;
        for shard in &self.shards {
            let s = shard.lock().stats();
            entries += s.len as u64;
            bytes += s.bytes as u64;
            evictions += s.evictions;
        }
        StoreStats {
            gets: self.gets.load(Ordering::Relaxed),
            hits: self.hits.load(Ordering::Relaxed),
            sets: self.sets.load(Ordering::Relaxed),
            evictions,
            entries,
            bytes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn concurrent_writers_and_readers_agree() {
        let store = Arc::new(Store::new(StoreConfig::default()));
        let mut handles = Vec::new();
        for t in 0..8 {
            let store = Arc::clone(&store);
            // simlint::allow(D004, reason = "bounded smoke test that the store's sharded locking is race-free under real threads; asserts only thread-order-independent totals")
            handles.push(std::thread::spawn(move || {
                for i in 0..500u32 {
                    let key = format!("t{t}-k{i}");
                    store.set(key.as_bytes(), key.clone().into_bytes());
                }
                for i in 0..500u32 {
                    let key = format!("t{t}-k{i}");
                    assert_eq!(store.get(key.as_bytes()), Some(key.into_bytes()));
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let stats = store.stats();
        assert_eq!(stats.sets, 8 * 500);
        assert_eq!(stats.gets, 8 * 500);
        assert_eq!(stats.hits, 8 * 500);
        assert_eq!(stats.entries, 8 * 500);
    }

    #[test]
    fn stats_track_hits_and_misses() {
        let store = Store::new(StoreConfig::default());
        store.set(b"a", b"1".to_vec());
        assert!(store.get(b"a").is_some());
        assert!(store.get(b"missing").is_none());
        let stats = store.stats();
        assert_eq!(stats.gets, 2);
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.bytes, 2);
    }

    #[test]
    fn memory_limit_applies_across_shards() {
        let store = Store::new(StoreConfig {
            shards: 4,
            memory_limit_bytes: 40_000,
        });
        for i in 0..2_000u32 {
            store.set(format!("key-{i}").as_bytes(), vec![0u8; 100]);
        }
        let stats = store.stats();
        assert!(stats.bytes <= 40_000 + 4 * 1024, "bytes {}", stats.bytes);
        assert!(stats.evictions > 0);
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_is_rejected() {
        let _ = Store::new(StoreConfig {
            shards: 0,
            memory_limit_bytes: 1024,
        });
    }

    #[test]
    fn same_key_routes_to_same_shard() {
        let store = Store::new(StoreConfig::default());
        let a = store.shard_for(b"stable-key") as *const _;
        let b = store.shard_for(b"stable-key") as *const _;
        assert_eq!(a, b);
    }
}
