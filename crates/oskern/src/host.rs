//! Description of the host testbed machine.
//!
//! All experiments in the paper ran on a dual-socket AMD EPYC2 7542 (32
//! cores / 64 threads per socket), 256 GiB of RAM, a dedicated fast NVMe
//! SSD, and Ubuntu Server 20.04. Every cost model in the workspace reads
//! its hardware constants from a [`HostConfig`] so that the calibration is
//! explicit and a different testbed can be described without touching the
//! models.

use serde::{Deserialize, Serialize};
use simcore::{Bandwidth, Nanos};

/// The host machine the isolation platforms run on.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HostConfig {
    /// Number of CPU sockets.
    pub sockets: usize,
    /// Physical cores per socket.
    pub cores_per_socket: usize,
    /// Hardware threads per core (SMT).
    pub threads_per_core: usize,
    /// Total RAM in bytes.
    pub memory_bytes: u64,
    /// Base clock frequency in GHz (used to convert cycles to time).
    pub base_clock_ghz: f64,
    /// Peak DRAM bandwidth per socket.
    pub dram_bandwidth: Bandwidth,
    /// DRAM random-access latency (row miss, local socket).
    pub dram_latency: Nanos,
    /// NVMe sequential bandwidth.
    pub nvme_bandwidth: Bandwidth,
    /// NVMe 4 KiB random-read latency.
    pub nvme_read_latency: Nanos,
    /// NVMe sustainable 4 KiB IOPS.
    pub nvme_iops: u64,
    /// NIC line rate (the iperf3 peer is directly attached).
    pub nic_bandwidth: Bandwidth,
    /// One-way wire latency to the directly connected load generator.
    pub nic_latency: Nanos,
}

impl HostConfig {
    /// The paper's testbed: dual-socket AMD EPYC2 7542, 256 GiB RAM, fast
    /// NVMe, a NIC able to sustain ~37 Gbit/s of TCP goodput.
    pub fn epyc2_testbed() -> Self {
        HostConfig {
            sockets: 2,
            cores_per_socket: 32,
            threads_per_core: 2,
            memory_bytes: 256 * (1 << 30),
            base_clock_ghz: 2.9,
            dram_bandwidth: Bandwidth::from_mib_per_sec(85_000.0),
            dram_latency: Nanos::from_nanos(95),
            nvme_bandwidth: Bandwidth::from_mib_per_sec(3_200.0),
            nvme_read_latency: Nanos::from_micros(85),
            nvme_iops: 600_000,
            nic_bandwidth: Bandwidth::from_gbit_per_sec(40.0),
            nic_latency: Nanos::from_micros(18),
        }
    }
}

impl Default for HostConfig {
    fn default() -> Self {
        Self::epyc2_testbed()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn testbed_matches_paper_description() {
        let h = HostConfig::epyc2_testbed();
        assert_eq!(
            (h.sockets, h.cores_per_socket, h.threads_per_core),
            (2, 32, 2)
        );
        assert_eq!(h.memory_bytes, 256 * (1 << 30));
        assert!(h.nic_bandwidth.gbit_per_sec() >= 37.0);
    }

    #[test]
    fn default_is_the_testbed() {
        assert_eq!(HostConfig::default(), HostConfig::epyc2_testbed());
    }
}
