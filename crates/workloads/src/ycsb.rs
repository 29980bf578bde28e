//! YCSB workload A against the Memcached-like store (Fig. 16).
//!
//! Workload A is a 50/50 mix of reads and updates over a zipfian key
//! distribution. The driver executes the operations against the real
//! [`kvstore::Store`] and charges each operation the platform's network
//! round trip, syscall dispatch and memory-access costs; the reported
//! number is achieved operations per second.

use kvstore::{Store, StoreConfig};
use memsim::tlb::PageSize;
use oskern::syscall::SyscallClass;
use platforms::Platform;
use simcore::stats::RunningStats;
use simcore::{Nanos, SimRng, Zipf};

use crate::format_key;

/// The YCSB benchmark configuration.
#[derive(Debug, Clone, Copy)]
pub struct YcsbBenchmark {
    /// Number of records loaded before the measurement phase.
    pub records: usize,
    /// Operations per measurement run.
    pub operations: usize,
    /// Number of measurement runs (the paper uses 5).
    pub runs: usize,
    /// Client concurrency (YCSB threads).
    pub client_threads: usize,
    /// Zipfian skew of the key popularity distribution.
    pub zipf_theta: f64,
    /// Value size in bytes.
    pub value_size: usize,
}

impl Default for YcsbBenchmark {
    fn default() -> Self {
        YcsbBenchmark {
            records: 100_000,
            operations: 50_000,
            runs: 5,
            client_threads: 32,
            zipf_theta: 0.99,
            value_size: 1_000,
        }
    }
}

/// Outcome of one platform's YCSB measurement.
#[derive(Debug, Clone)]
pub struct YcsbOutcome {
    /// Throughput statistics in operations per second.
    pub ops_per_sec: RunningStats,
    /// Observed read hit ratio in the store.
    pub hit_ratio: f64,
}

impl YcsbBenchmark {
    /// A scaled-down configuration for unit tests and quick runs.
    pub fn quick() -> Self {
        YcsbBenchmark {
            records: 2_000,
            operations: 4_000,
            runs: 2,
            ..YcsbBenchmark::default()
        }
    }

    /// Runs workload A on the given platform.
    pub fn run(&self, platform: &Platform, rng: &mut SimRng) -> YcsbOutcome {
        let mut ops_per_sec = RunningStats::new();
        let mut hit_ratio = 0.0;
        for _ in 0..self.runs {
            let (tput, hits) = self.run_once(platform, rng);
            ops_per_sec.record(tput);
            hit_ratio = hits;
        }
        YcsbOutcome {
            ops_per_sec,
            hit_ratio,
        }
    }

    /// Runs a single measurement trial and returns its achieved throughput
    /// in operations per second.
    ///
    /// This is the unit the parallel executor shards on: one trial per
    /// `(experiment, platform, trial)` cell, each with an independently
    /// derived random stream, so the merged statistics are identical
    /// regardless of how the trials are scheduled.
    pub fn run_trial(&self, platform: &Platform, rng: &mut SimRng) -> f64 {
        self.run_once(platform, rng).0
    }

    /// The server-side service time of one memcached operation on this
    /// platform: request + response syscalls, the server's memory accesses
    /// (the store's working set far exceeds the caches) and the server CPU
    /// work.
    ///
    /// This is the service-time model shared between the closed-loop YCSB
    /// path here and the open-loop [`crate::loadgen`] subsystem, so both
    /// charge identical per-operation platform costs.
    pub fn per_op_service_time(&self, platform: &Platform) -> Nanos {
        let syscall_cost = platform.syscalls().dispatch_cost(SyscallClass::NetReceive)
            + platform.syscalls().dispatch_cost(SyscallClass::NetSend);
        let working_set = (self.records * self.value_size) as u64;
        let mem_cost = platform
            .memory()
            .mean_access_latency(working_set.max(1 << 20), PageSize::Small4K)
            * 24;
        let server_cpu = Nanos::from_micros(4);
        syscall_cost + mem_cost + server_cpu
    }

    fn run_once(&self, platform: &Platform, rng: &mut SimRng) -> (f64, f64) {
        let store = Store::new(StoreConfig::default());
        let mut key_buf = String::new();
        // Load phase.
        for i in 0..self.records {
            store.set(key(&mut key_buf, i), vec![b'x'; self.value_size]);
        }

        let rtt = platform.network().mean_rtt();

        // The client keeps `client_threads` requests outstanding, so the
        // round trip is pipelined; the server-side costs serialize per
        // shard but the 16 shards give plenty of parallelism. Throughput is
        // bounded by the slower of the two stages.
        let per_op_server = self.per_op_service_time(platform).as_secs_f64();
        let server_capacity = platform.cpu().parallel_efficiency(self.client_threads)
            * self.client_threads.min(16) as f64
            / per_op_server;
        let network_capacity = self.client_threads as f64 / rtt.as_secs_f64();
        let record_bytes = (self.value_size + 64) as f64;
        let wire_capacity = platform.network().mean_throughput().bytes_per_sec() / record_bytes;
        let mean_tput = server_capacity.min(network_capacity).min(wire_capacity);

        // Execute the operation mix against the real store to obtain the
        // hit ratio and to keep the data structure honest.
        let zipf = Zipf::new(self.records, self.zipf_theta);
        let mut reads = 0u64;
        for _ in 0..self.operations {
            let record = zipf.sample(rng);
            if rng.chance(0.5) {
                let _ = store.get(key(&mut key_buf, record));
                reads += 1;
            } else {
                store.set(key(&mut key_buf, record), vec![b'y'; self.value_size]);
            }
        }
        let stats = store.stats();
        let hit_ratio = if reads == 0 {
            1.0
        } else {
            stats.hits as f64 / stats.gets.max(1) as f64
        };
        let measured = rng.normal_pos(mean_tput, mean_tput * 0.04);
        (measured, hit_ratio)
    }
}

/// The store key of YCSB record `i`.
fn key(buf: &mut String, i: usize) -> &[u8] {
    format_key(buf, "user", i as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use platforms::PlatformId;

    #[test]
    fn throughput_ordering_matches_figure_16() {
        let bench = YcsbBenchmark::quick();
        let mut rng = SimRng::seed_from(61);
        let tput =
            |id: PlatformId, rng: &mut SimRng| bench.run(&id.build(), rng).ops_per_sec.mean();
        let lxc = tput(PlatformId::Lxc, &mut rng);
        let docker = tput(PlatformId::Docker, &mut rng);
        let qemu = tput(PlatformId::Qemu, &mut rng);
        let fc = tput(PlatformId::Firecracker, &mut rng);
        let chv = tput(PlatformId::CloudHypervisor, &mut rng);
        let kata = tput(PlatformId::Kata, &mut rng);
        let gvisor = tput(PlatformId::GvisorPtrace, &mut rng);

        // Regular containers perform very well.
        assert!(lxc > qemu && docker > qemu);
        // The newer the hypervisor, the worse (QEMU > FC > CHV).
        assert!(qemu > fc && fc > chv, "qemu {qemu} fc {fc} chv {chv}");
        // Kata lands below the regular containers and QEMU (Finding 18).
        assert!(kata < docker && kata < qemu, "kata {kata}");
        // gVisor is poor because of its network stack (Finding 19).
        assert!(gvisor < chv, "gvisor {gvisor} vs cloud-hypervisor {chv}");
    }

    #[test]
    fn a_trial_matches_a_single_run_measurement() {
        let mut bench = YcsbBenchmark::quick();
        bench.runs = 1;
        let platform = PlatformId::Docker.build();
        let trial = bench.run_trial(&platform, &mut SimRng::seed_from(63));
        let full = bench.run(&platform, &mut SimRng::seed_from(63));
        assert_eq!(trial, full.ops_per_sec.mean());
    }

    #[test]
    fn hot_keys_hit_the_store() {
        let bench = YcsbBenchmark::quick();
        let mut rng = SimRng::seed_from(62);
        let outcome = bench.run(&PlatformId::Native.build(), &mut rng);
        assert!(outcome.hit_ratio > 0.95, "hit ratio {}", outcome.hit_ratio);
        assert!(outcome.ops_per_sec.mean() > 0.0);
    }
}
