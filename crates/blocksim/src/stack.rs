//! The composed storage stack of a platform and its fio-level behaviour.

use serde::{Deserialize, Serialize};
use simcore::{Bandwidth, Nanos, SimRng};

use oskern::ftrace::FtraceSession;
use oskern::pagecache::PageCache;

use crate::device::BlockDevice;
use crate::engine::IoEngine;
use crate::layers::StorageLayer;
use crate::request::IoProfile;

/// The result of simulating one fio-style phase.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct IoOutcome {
    /// Achieved throughput.
    pub throughput: Bandwidth,
    /// Mean per-request completion latency.
    pub mean_latency: Nanos,
    /// Fraction of requests served from a page cache instead of the device.
    pub cache_hit_ratio: f64,
}

/// A platform's storage path from the workload down to the NVMe device.
#[derive(Debug, Clone)]
pub struct StorageStack {
    device: BlockDevice,
    layers: Vec<StorageLayer>,
    /// Host kernel page cache (always present).
    host_cache: PageCache,
    /// Guest kernel page cache, present when a second kernel runs.
    guest_cache: Option<PageCache>,
    /// Relative run-to-run noise of the platform's I/O path.
    jitter: f64,
}

impl StorageStack {
    /// Creates a stack over the testbed NVMe with the given layers.
    ///
    /// `guest_memory_bytes` controls the guest page-cache size; pass
    /// `None` for platforms without a second kernel (native, containers,
    /// gVisor — the Sentry deliberately does not implement a page cache
    /// for host files).
    pub fn new(layers: Vec<StorageLayer>, guest_memory_bytes: Option<u64>) -> Self {
        StorageStack {
            device: BlockDevice::nvme_testbed(),
            layers,
            host_cache: PageCache::new(64 << 30),
            guest_cache: guest_memory_bytes.map(PageCache::new),
            jitter: 0.03,
        }
    }

    /// Replaces the device model.
    pub fn with_device(mut self, device: BlockDevice) -> Self {
        self.device = device;
        self
    }

    /// Sets the run-to-run noise.
    pub fn with_jitter(mut self, jitter: f64) -> Self {
        self.jitter = jitter.max(0.0);
        self
    }

    /// The layers of this stack (top to bottom).
    pub fn layers(&self) -> &[StorageLayer] {
        &self.layers
    }

    /// Whether an `O_DIRECT` request issued by the workload still carries
    /// the direct flag when it reaches the host block layer.
    pub fn direct_flag_reaches_host(&self) -> bool {
        !self.layers.iter().any(|l| l.swallows_direct_flag())
    }

    /// Sum of per-request latencies of all layers.
    pub fn layer_latency(&self) -> Nanos {
        self.layers.iter().map(|l| l.per_request_latency()).sum()
    }

    /// Product of all layer throughput efficiencies.
    pub fn layer_efficiency(&self) -> f64 {
        self.layers
            .iter()
            .map(|l| l.throughput_efficiency())
            .product()
    }

    /// Simulates one fio phase and returns the measured outcome.
    ///
    /// `host_cache_dropped` corresponds to the paper's remedy of explicitly
    /// dropping the host buffer cache before each run; when it is `false`
    /// and the direct flag does not propagate, reads hit the host cache and
    /// the result overstates the device's capability.
    pub fn run_phase(
        &mut self,
        profile: IoProfile,
        engine: IoEngine,
        host_cache_dropped: bool,
        rng: &mut SimRng,
    ) -> IoOutcome {
        if host_cache_dropped {
            self.host_cache.drop_caches();
        }
        let write = profile.pattern.is_write();

        // Determine which caches can serve the request stream.
        let guest_cache_bypassed = profile.direct;
        let host_cache_bypassed = profile.direct && self.direct_flag_reaches_host();

        let mut cache_hit_ratio = 0.0;
        if !write {
            if !guest_cache_bypassed {
                if let Some(guest) = &self.guest_cache {
                    cache_hit_ratio = guest.hit_ratio(profile.total_bytes);
                }
            }
            if !host_cache_bypassed {
                let host_hit = self.host_cache.hit_ratio(profile.total_bytes);
                cache_hit_ratio = cache_hit_ratio.max(host_hit);
            }
        }

        // Per-request service time at the device plus the layer stack.
        let device_latency = if profile.pattern.is_sequential() {
            self.device.transfer_time(profile.block_size, write)
        } else {
            self.device.random_latency(write) + self.device.transfer_time(profile.block_size, write)
        };
        let cached_latency = Nanos::from_micros(6); // copy from page cache
        let miss_latency = device_latency + self.layer_latency() + engine.per_request_overhead();
        let hit_latency = cached_latency + self.layer_latency() + engine.per_request_overhead();
        let mean_latency_ns = cache_hit_ratio * hit_latency.as_secs_f64()
            + (1.0 - cache_hit_ratio) * miss_latency.as_secs_f64();

        // Throughput: the device ceiling scaled by layer efficiency, but a
        // queue-depth-limited path cannot exceed depth/latency.
        let depth = engine.effective_depth(profile.queue_depth) as f64;
        let latency_bound =
            depth * profile.block_size as f64 / mean_latency_ns.max(f64::MIN_POSITIVE);
        let device_bound = if cache_hit_ratio > 0.99 {
            // Fully cached: bounded by memcpy speed, not the device.
            Bandwidth::from_mib_per_sec(9_000.0).bytes_per_sec()
        } else {
            self.device.seq_bandwidth(write).bytes_per_sec() / (1.0 - cache_hit_ratio).max(0.05)
        };
        let mean_throughput = (device_bound.min(latency_bound) * self.layer_efficiency()).max(1.0);

        // Writes leave dirty pages behind; reads warm the caches.
        if write {
            self.host_cache.admit(profile.total_bytes.min(8 << 30));
        } else {
            if !host_cache_bypassed {
                self.host_cache.admit(profile.total_bytes.min(16 << 30));
            }
            if !guest_cache_bypassed {
                if let Some(guest) = &mut self.guest_cache {
                    guest.admit(profile.total_bytes.min(4 << 30));
                }
            }
        }

        let throughput = Bandwidth::from_bytes_per_sec(
            rng.normal_pos(mean_throughput, mean_throughput * self.jitter),
        );
        let latency =
            Nanos::from_secs_f64(rng.normal_pos(mean_latency_ns, mean_latency_ns * self.jitter));
        IoOutcome {
            throughput,
            mean_latency: latency,
            cache_hit_ratio,
        }
    }

    /// Records the host kernel functions one phase touches.
    pub fn trace_phase(&self, session: &mut FtraceSession, profile: IoProfile) {
        let requests = profile.request_count().max(1);
        for layer in &self.layers {
            session.invoke_all(layer.host_functions(), requests);
        }
        // The device itself is always reached through the host block layer
        // unless every byte was served from a cache; charge it
        // unconditionally, matching what ftrace sees during a direct run.
        session.invoke_all(
            &[
                "submit_bio",
                "blk_mq_submit_bio",
                "nvme_queue_rq",
                "nvme_complete_rq",
                "bio_endio",
            ],
            requests,
        );
        let class = if profile.pattern.is_write() {
            oskern::syscall::SyscallClass::FileWrite
        } else {
            oskern::syscall::SyscallClass::FileRead
        };
        session.invoke_all(class.host_functions(), requests);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::IoPattern;

    fn throughput_of(layers: Vec<StorageLayer>, guest: Option<u64>, pattern: IoPattern) -> f64 {
        let mut stack = StorageStack::new(layers, guest).with_jitter(0.0);
        let mut rng = SimRng::seed_from(1);
        let profile = IoProfile::paper_throughput(pattern, 4 << 30);
        stack
            .run_phase(profile, IoEngine::Libaio, true, &mut rng)
            .throughput
            .mib_per_sec()
    }

    #[test]
    fn bind_mount_reads_are_near_native() {
        let native = throughput_of(vec![], None, IoPattern::SeqRead);
        let docker = throughput_of(vec![StorageLayer::BindMount], None, IoPattern::SeqRead);
        assert!(docker / native > 0.95, "docker {docker} vs native {native}");
    }

    #[test]
    fn nine_p_halves_throughput() {
        let native = throughput_of(vec![], None, IoPattern::SeqRead);
        let kata_9p = throughput_of(
            vec![StorageLayer::VirtioBlk, StorageLayer::NineP],
            Some(2 << 30),
            IoPattern::SeqRead,
        );
        assert!(
            kata_9p / native < 0.6,
            "kata-9p {kata_9p} vs native {native}"
        );
    }

    #[test]
    fn virtio_fs_recovers_most_of_the_loss() {
        let kata_9p = throughput_of(
            vec![StorageLayer::VirtioBlk, StorageLayer::NineP],
            Some(2 << 30),
            IoPattern::SeqRead,
        );
        let kata_virtiofs = throughput_of(
            vec![StorageLayer::VirtioBlk, StorageLayer::VirtioFs],
            Some(2 << 30),
            IoPattern::SeqRead,
        );
        assert!(kata_virtiofs > kata_9p * 1.4);
    }

    #[test]
    fn undropped_host_cache_inflates_hypervisor_reads() {
        // Loop-device-backed guest storage does not propagate O_DIRECT, so
        // a warm host cache serves reads at memory speed — the pitfall the
        // paper warns about.
        let layers = vec![StorageLayer::LoopDevice, StorageLayer::VirtioBlk];
        let mut stack = StorageStack::new(layers, Some(2 << 30)).with_jitter(0.0);
        let mut rng = SimRng::seed_from(2);
        let profile = IoProfile::paper_throughput(IoPattern::SeqRead, 2 << 30);
        // Warm pass (writes/reads populate the host cache).
        stack.run_phase(profile, IoEngine::Libaio, false, &mut rng);
        let warm = stack.run_phase(profile, IoEngine::Libaio, false, &mut rng);
        let mut dropped_stack = StorageStack::new(
            vec![StorageLayer::LoopDevice, StorageLayer::VirtioBlk],
            Some(2 << 30),
        )
        .with_jitter(0.0);
        let cold = dropped_stack.run_phase(profile, IoEngine::Libaio, true, &mut rng);
        assert!(
            warm.throughput.mib_per_sec() > cold.throughput.mib_per_sec() * 1.3,
            "warm {} vs cold {}",
            warm.throughput.mib_per_sec(),
            cold.throughput.mib_per_sec()
        );
        assert!(warm.cache_hit_ratio > 0.0);
        assert_eq!(cold.cache_hit_ratio, 0.0);
    }

    #[test]
    fn randread_latency_orders_platforms_like_the_paper() {
        let mut rng = SimRng::seed_from(3);
        let profile = IoProfile::paper_randread_latency(2 << 30);
        let mut latency = |layers: Vec<StorageLayer>, guest: Option<u64>| {
            let mut stack = StorageStack::new(layers, guest).with_jitter(0.0);
            stack
                .run_phase(profile, IoEngine::Libaio, true, &mut rng)
                .mean_latency
                .as_micros_f64()
        };
        let native = latency(vec![], None);
        let qemu = latency(vec![StorageLayer::VirtioBlk], Some(2 << 30));
        let kata = latency(
            vec![StorageLayer::VirtioBlk, StorageLayer::NineP],
            Some(2 << 30),
        );
        assert!(native < qemu, "native {native} qemu {qemu}");
        assert!(qemu < kata, "qemu {qemu} kata {kata}");
        assert!(kata > native + 100.0, "kata must be an outlier: {kata}");
    }

    #[test]
    fn trace_phase_reports_layer_functions() {
        let stack = StorageStack::new(
            vec![StorageLayer::VirtioBlk, StorageLayer::NineP],
            Some(1 << 30),
        );
        let mut session = FtraceSession::start();
        stack.trace_phase(&mut session, IoProfile::paper_randread_latency(1 << 20));
        let trace = session.finish();
        assert!(trace.touched("p9_client_rpc"));
        assert!(trace.touched("nvme_queue_rq"));
        assert!(trace.touched("vfs_read"));
    }

    #[test]
    fn direct_flag_propagation_depends_on_layers() {
        let plain = StorageStack::new(vec![StorageLayer::VirtioBlk], Some(1 << 30));
        assert!(plain.direct_flag_reaches_host());
        let loopback = StorageStack::new(
            vec![StorageLayer::LoopDevice, StorageLayer::VirtioBlk],
            Some(1 << 30),
        );
        assert!(!loopback.direct_flag_reaches_host());
    }
}
