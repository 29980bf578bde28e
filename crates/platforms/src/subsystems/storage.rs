//! Storage subsystem.
//!
//! Drives the fio experiments (Figs. 9 and 10) and the persistence
//! component of the MySQL model.

use blocksim::layers::StorageLayer;
use blocksim::stack::StorageStack;

/// The storage subsystem of one platform.
#[derive(Debug, Clone)]
pub struct StorageSubsystem {
    layers: Vec<StorageLayer>,
    guest_memory_bytes: Option<u64>,
    block_efficiency: f64,
    jitter: f64,
    excluded_reason: Option<&'static str>,
}

impl StorageSubsystem {
    /// Creates a storage subsystem with the given layer stack.
    ///
    /// `guest_memory_bytes` is `Some` when a second kernel (and therefore
    /// a guest page cache) sits on the path.
    pub fn new(layers: Vec<StorageLayer>, guest_memory_bytes: Option<u64>) -> Self {
        StorageSubsystem {
            layers,
            guest_memory_bytes,
            block_efficiency: 1.0,
            jitter: 0.04,
            excluded_reason: None,
        }
    }

    /// Marks the platform as excluded from the fio figures, recording why
    /// (Firecracker cannot attach extra drives; OSv has no working libaio).
    pub fn excluded(reason: &'static str) -> Self {
        StorageSubsystem {
            layers: Vec::new(),
            guest_memory_bytes: None,
            block_efficiency: 1.0,
            jitter: 0.0,
            excluded_reason: Some(reason),
        }
    }

    /// Applies a VMM-specific virtio-blk efficiency factor (Cloud
    /// Hypervisor's immature implementation).
    pub fn with_block_efficiency(mut self, efficiency: f64) -> Self {
        self.block_efficiency = efficiency.clamp(0.05, 1.0);
        self
    }

    /// Sets the run-to-run noise.
    pub fn with_jitter(mut self, jitter: f64) -> Self {
        self.jitter = jitter.max(0.0);
        self
    }

    /// Whether the platform participates in the fio experiments.
    pub fn is_excluded(&self) -> bool {
        self.excluded_reason.is_some()
    }

    /// Why the platform is excluded, if it is.
    pub fn excluded_reason(&self) -> Option<&'static str> {
        self.excluded_reason
    }

    /// The layer stack of this platform.
    pub fn layers(&self) -> &[StorageLayer] {
        &self.layers
    }

    /// The block efficiency factor applied to the device.
    pub fn block_efficiency(&self) -> f64 {
        self.block_efficiency
    }

    /// Builds a fresh storage stack (fresh caches) for one benchmark run.
    pub fn build_stack(&self) -> StorageStack {
        let mut device = blocksim::device::BlockDevice::nvme_testbed();
        device.seq_read_bandwidth = device.seq_read_bandwidth.scale(self.block_efficiency);
        device.seq_write_bandwidth = device.seq_write_bandwidth.scale(self.block_efficiency);
        StorageStack::new(self.layers.clone(), self.guest_memory_bytes)
            .with_device(device)
            .with_jitter(self.jitter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn excluded_subsystem_reports_reason() {
        let s = StorageSubsystem::excluded("no libaio support");
        assert!(s.is_excluded());
        assert_eq!(s.excluded_reason(), Some("no libaio support"));
    }

    #[test]
    fn block_efficiency_scales_the_device() {
        let full = StorageSubsystem::new(vec![StorageLayer::VirtioBlk], Some(2 << 30));
        let slow = StorageSubsystem::new(vec![StorageLayer::VirtioBlk], Some(2 << 30))
            .with_block_efficiency(0.5);
        let mut rng = simcore::SimRng::seed_from(1);
        let profile = blocksim::request::IoProfile::paper_throughput(
            blocksim::request::IoPattern::SeqRead,
            2 << 30,
        );
        let a = full
            .build_stack()
            .run_phase(profile, blocksim::engine::IoEngine::Libaio, true, &mut rng)
            .throughput;
        let b = slow
            .build_stack()
            .run_phase(profile, blocksim::engine::IoEngine::Libaio, true, &mut rng)
            .throughput;
        assert!(a.bytes_per_sec() > b.bytes_per_sec() * 1.5);
    }

    #[test]
    fn stacks_are_fresh_per_run() {
        let s = StorageSubsystem::new(vec![StorageLayer::BindMount], None);
        let a = s.build_stack();
        let b = s.build_stack();
        assert_eq!(a.layers(), b.layers());
    }
}
