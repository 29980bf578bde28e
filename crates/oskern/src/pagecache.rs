//! Page-cache model.
//!
//! Section 3.3 of the paper spends considerable space on the difficulty of
//! benchmarking I/O when *two* kernels each maintain a buffer cache: fio's
//! `direct=1` only bypasses the guest cache, and unless the host cache is
//! explicitly dropped before each run, hypervisors appear to beat native
//! I/O. This module models a single page cache; `blocksim` stacks a guest
//! and a host instance to reproduce the effect.

use serde::{Deserialize, Serialize};

/// A single kernel page cache in front of a block device.
///
/// The model is intentionally coarse: it tracks how many bytes of the
/// current working set are resident and answers expected hit ratios for
/// random and sequential access, which is all the fio model needs.
///
/// # Example
///
/// ```
/// use oskern::pagecache::PageCache;
///
/// let mut cache = PageCache::new(8 << 30); // 8 GiB of page cache
/// cache.warm(4 << 30, 4 << 30);            // 4 GiB working set fully warmed
/// assert!(cache.hit_ratio(4 << 30) > 0.99);
/// cache.drop_caches();
/// assert_eq!(cache.hit_ratio(4 << 30), 0.0);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PageCache {
    capacity_bytes: u64,
    resident_bytes: u64,
}

impl PageCache {
    /// Creates an empty page cache with the given capacity.
    pub fn new(capacity_bytes: u64) -> Self {
        PageCache {
            capacity_bytes,
            resident_bytes: 0,
        }
    }

    /// Cache capacity in bytes.
    pub fn capacity(&self) -> u64 {
        self.capacity_bytes
    }

    /// Bytes of the working set currently resident.
    pub fn resident(&self) -> u64 {
        self.resident_bytes
    }

    /// Marks `bytes` of a working set of `working_set` bytes as resident
    /// (e.g. after a warm-up read pass or after buffered writes).
    pub fn warm(&mut self, bytes: u64, working_set: u64) {
        let max_resident = self.capacity_bytes.min(working_set);
        self.resident_bytes = (self.resident_bytes + bytes).min(max_resident);
    }

    /// Empties the cache (`echo 3 > /proc/sys/vm/drop_caches`).
    pub fn drop_caches(&mut self) {
        self.resident_bytes = 0;
    }

    /// Expected hit ratio for uniform random access over `working_set`
    /// bytes. Zero when nothing is resident; bounded by both the resident
    /// fraction and the capacity/working-set ratio.
    pub fn hit_ratio(&self, working_set: u64) -> f64 {
        if working_set == 0 {
            return 1.0;
        }
        let resident = self.resident_bytes.min(self.capacity_bytes) as f64;
        (resident / working_set as f64).clamp(0.0, 1.0)
    }

    /// Simulates bringing newly read data into the cache, evicting under
    /// pressure (clock-ish: resident bytes never exceed capacity).
    pub fn admit(&mut self, bytes: u64) {
        self.resident_bytes = (self.resident_bytes + bytes).min(self.capacity_bytes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_cache_misses_everything() {
        let cache = PageCache::new(1 << 30);
        assert_eq!(cache.hit_ratio(1 << 30), 0.0);
    }

    #[test]
    fn warm_cache_hits_within_capacity() {
        let mut cache = PageCache::new(1 << 30);
        cache.warm(1 << 30, 1 << 30);
        assert!(cache.hit_ratio(1 << 30) > 0.99);
        // A working set twice the cache can be at most 50 % resident.
        assert!(cache.hit_ratio(2 << 30) <= 0.5 + 1e-9);
    }

    #[test]
    fn drop_caches_resets_residency() {
        let mut cache = PageCache::new(1 << 20);
        cache.warm(1 << 20, 1 << 20);
        assert!(cache.resident() > 0);
        cache.drop_caches();
        assert_eq!(cache.resident(), 0);
        assert_eq!(cache.hit_ratio(1 << 20), 0.0);
    }

    #[test]
    fn admit_never_exceeds_capacity() {
        let mut cache = PageCache::new(4096);
        cache.admit(10_000);
        assert_eq!(cache.resident(), 4096);
    }

    #[test]
    fn zero_working_set_is_always_a_hit() {
        let cache = PageCache::new(1 << 20);
        assert_eq!(cache.hit_ratio(0), 1.0);
    }
}
