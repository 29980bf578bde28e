//! Composition of network components into a platform's data path.

use serde::{Deserialize, Serialize};
use simcore::{Bandwidth, Nanos, SimRng};

use oskern::ftrace::FtraceSession;
use oskern::host::HostConfig;
use oskern::syscall::SyscallClass;

use crate::component::NetComponent;

/// The measured outcome of one network benchmark run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NetworkOutcome {
    /// Achieved streaming throughput.
    pub throughput: Bandwidth,
    /// Mean request/response round-trip latency.
    pub mean_rtt: Nanos,
    /// 90th-percentile request/response latency (what Fig. 12 reports).
    pub p90_rtt: Nanos,
}

/// A platform's network path from guest socket to host NIC.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NetworkPath {
    components: Vec<NetComponent>,
    nic: Bandwidth,
    wire_latency: Nanos,
    /// Relative run-to-run throughput noise.
    pub jitter: f64,
    /// Ratio between the p90 and the mean round-trip latency.
    pub tail_factor: f64,
}

impl NetworkPath {
    /// Creates a path over the testbed NIC with the given components.
    ///
    /// The [`NetComponent::HostStack`] component is always implied and
    /// does not need to be listed.
    pub fn new(components: Vec<NetComponent>) -> Self {
        let host = HostConfig::epyc2_testbed();
        NetworkPath {
            components,
            nic: host.nic_bandwidth,
            wire_latency: host.nic_latency,
            jitter: 0.02,
            tail_factor: 1.18,
        }
    }

    /// Sets the run-to-run noise.
    pub fn with_jitter(mut self, jitter: f64) -> Self {
        self.jitter = jitter.max(0.0);
        self
    }

    /// Sets the p90/mean tail factor (gVisor's tail is much longer).
    pub fn with_tail_factor(mut self, factor: f64) -> Self {
        self.tail_factor = factor.max(1.0);
        self
    }

    /// The components of this path (excluding the implied host stack).
    pub fn components(&self) -> &[NetComponent] {
        &self.components
    }

    /// Mean achievable streaming throughput.
    pub fn mean_throughput(&self) -> Bandwidth {
        let mut efficiency = NetComponent::HostStack.throughput_efficiency();
        for c in &self.components {
            efficiency *= c.throughput_efficiency();
        }
        self.nic.scale(efficiency.min(1.0))
    }

    /// Mean request/response round-trip latency.
    pub fn mean_rtt(&self) -> Nanos {
        let mut rtt = NetComponent::HostStack.round_trip_latency() + self.wire_latency * 2;
        for c in &self.components {
            rtt += c.round_trip_latency();
        }
        rtt
    }

    /// Returns the path whose throughput is the bottleneck of `paths`
    /// (used for Kata, whose performance the paper pins to the weakest of
    /// its bridge and QEMU legs), with latencies added across the legs.
    pub fn bottleneck_of(paths: Vec<NetworkPath>) -> NetworkPath {
        assert!(
            !paths.is_empty(),
            "bottleneck_of requires at least one path"
        );
        let min_idx = paths
            .iter()
            .enumerate()
            .min_by(|(_, a), (_, b)| {
                a.mean_throughput()
                    .bytes_per_sec()
                    .partial_cmp(&b.mean_throughput().bytes_per_sec())
                    .unwrap_or(std::cmp::Ordering::Equal)
            })
            .map(|(i, _)| i)
            .unwrap_or(0);
        let mut combined = paths[min_idx].clone();
        // Latency accumulates across all legs even though throughput is
        // set by the slowest one.
        let mut extra_components = Vec::new();
        for (i, p) in paths.iter().enumerate() {
            if i != min_idx {
                extra_components.extend(p.components.iter().copied());
            }
        }
        // Extra legs contribute latency but must not further reduce
        // throughput; model them with zero-cost placeholders by keeping
        // only their latency contribution via `extra_rtt`.
        let extra_rtt: Nanos = extra_components
            .iter()
            .map(|c| c.round_trip_latency())
            .sum();
        combined.wire_latency += extra_rtt / 2;
        combined
    }

    /// Simulates one iperf3-style streaming run.
    pub fn run_stream(&self, rng: &mut SimRng) -> NetworkOutcome {
        let mean_tp = self.mean_throughput().bytes_per_sec();
        let throughput =
            Bandwidth::from_bytes_per_sec(rng.normal_pos(mean_tp, mean_tp * self.jitter));
        self.outcome_with_throughput(throughput, rng)
    }

    /// Simulates one netperf-style request/response run.
    pub fn run_request_response(&self, rng: &mut SimRng) -> NetworkOutcome {
        self.outcome_with_throughput(self.mean_throughput(), rng)
    }

    fn outcome_with_throughput(&self, throughput: Bandwidth, rng: &mut SimRng) -> NetworkOutcome {
        let mean_rtt = self.mean_rtt().as_secs_f64();
        let rtt = rng.normal_pos(mean_rtt, mean_rtt * self.jitter);
        NetworkOutcome {
            throughput,
            mean_rtt: Nanos::from_secs_f64(rtt),
            p90_rtt: Nanos::from_secs_f64(rtt * self.tail_factor),
        }
    }

    /// Records the host kernel functions a streaming run touches.
    pub fn trace_stream(&self, session: &mut FtraceSession, segments: u64) {
        session.invoke_all(NetComponent::HostStack.host_functions(), segments);
        session.invoke_all(SyscallClass::NetSend.host_functions(), segments);
        session.invoke_all(SyscallClass::NetReceive.host_functions(), segments);
        for c in &self.components {
            session.invoke_all(c.host_functions(), segments);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gbit(path: &NetworkPath) -> f64 {
        path.mean_throughput().gbit_per_sec()
    }

    #[test]
    fn native_throughput_matches_paper() {
        let native = NetworkPath::new(vec![]);
        let t = gbit(&native);
        assert!((t - 37.28).abs() < 0.5, "native {t} Gbit/s");
    }

    #[test]
    fn bridge_costs_about_ten_percent() {
        let native = gbit(&NetworkPath::new(vec![]));
        let docker = gbit(&NetworkPath::new(vec![NetComponent::Bridge]));
        let penalty = 1.0 - docker / native;
        assert!((0.07..0.13).contains(&penalty), "bridge penalty {penalty}");
    }

    #[test]
    fn tap_virtio_costs_about_a_quarter() {
        let native = gbit(&NetworkPath::new(vec![]));
        let qemu = gbit(&NetworkPath::new(vec![
            NetComponent::Tap,
            NetComponent::VirtioNetVhost,
            NetComponent::GuestLinuxStack,
        ]));
        let penalty = 1.0 - qemu / native;
        assert!(
            (0.18..0.32).contains(&penalty),
            "hypervisor penalty {penalty}"
        );
    }

    #[test]
    fn osv_under_qemu_is_nearly_native() {
        let native = gbit(&NetworkPath::new(vec![]));
        let osv = gbit(&NetworkPath::new(vec![
            NetComponent::Tap,
            NetComponent::VirtioNetVhost,
            NetComponent::OsvGuestStack {
                throughput_bonus: 1.26,
            },
        ]));
        assert!(osv > native * 0.94, "osv {osv} vs native {native}");
        assert!(osv < native, "osv must not exceed native");
    }

    #[test]
    fn netstack_is_an_extreme_outlier() {
        let gvisor = gbit(&NetworkPath::new(vec![
            NetComponent::Bridge,
            NetComponent::Netstack,
        ]));
        assert!(gvisor < 8.0, "gvisor {gvisor} Gbit/s");
    }

    #[test]
    fn rtt_ordering_matches_figure_12() {
        let native = NetworkPath::new(vec![]).mean_rtt();
        let docker = NetworkPath::new(vec![NetComponent::Bridge]).mean_rtt();
        let qemu = NetworkPath::new(vec![
            NetComponent::Tap,
            NetComponent::VirtioNetVhost,
            NetComponent::GuestLinuxStack,
        ])
        .mean_rtt();
        let osv = NetworkPath::new(vec![
            NetComponent::Tap,
            NetComponent::VirtioNetVhost,
            NetComponent::OsvGuestStack {
                throughput_bonus: 1.26,
            },
        ])
        .mean_rtt();
        let gvisor = NetworkPath::new(vec![NetComponent::Bridge, NetComponent::Netstack])
            .with_tail_factor(1.6)
            .mean_rtt();
        assert!(native < docker);
        assert!(docker < qemu);
        assert!(
            osv < qemu,
            "osv should have slightly lower latency than hypervisors"
        );
        assert!(
            gvisor.as_micros_f64() > qemu.as_micros_f64() * 2.0,
            "gvisor RTT {gvisor} vs qemu {qemu}"
        );
    }

    #[test]
    fn bottleneck_of_picks_slowest_leg_and_adds_latency() {
        let bridge_leg = NetworkPath::new(vec![NetComponent::Bridge]);
        let qemu_leg = NetworkPath::new(vec![
            NetComponent::Tap,
            NetComponent::VirtioNetVhost,
            NetComponent::GuestLinuxStack,
        ]);
        let qemu_tp = gbit(&qemu_leg);
        let kata = NetworkPath::bottleneck_of(vec![bridge_leg.clone(), qemu_leg]);
        assert!((gbit(&kata) - qemu_tp).abs() < 1e-9);
        assert!(kata.mean_rtt() > bridge_leg.mean_rtt());
    }

    #[test]
    fn runs_are_reproducible_with_same_seed() {
        let path = NetworkPath::new(vec![NetComponent::Bridge]);
        let a = path.run_stream(&mut SimRng::seed_from(5));
        let b = path.run_stream(&mut SimRng::seed_from(5));
        assert_eq!(a.throughput, b.throughput);
        assert!(a.p90_rtt >= a.mean_rtt);
    }

    #[test]
    fn trace_includes_component_functions() {
        let path = NetworkPath::new(vec![NetComponent::Bridge, NetComponent::Netstack]);
        let mut session = FtraceSession::start();
        path.trace_stream(&mut session, 100);
        let trace = session.finish();
        assert!(trace.touched("br_handle_frame"));
        assert!(trace.touched("tcp_sendmsg"));
        assert!(trace.touched("seccomp_run_filters"));
    }

    #[test]
    #[should_panic(expected = "at least one path")]
    fn bottleneck_of_empty_panics() {
        let _ = NetworkPath::bottleneck_of(vec![]);
    }
}
