//! The tracing workload suite used to obtain each platform's HAP.
//!
//! Following Section 4 of the paper, the suite traces host kernel function
//! invocations while running: the Sysbench CPU, memory and file-I/O
//! benchmarks, the iperf3 network benchmark, and one start/stop cycle of
//! the platform. The union of all traces is scored by [`crate::HapProfile`].

use blocksim::request::{IoPattern, IoProfile};
use oskern::cgroups::{CgroupConfig, CgroupVersion};
use oskern::ftrace::{FtraceSession, KernelTrace};
use oskern::namespaces::NamespaceSet;
use oskern::syscall::{SyscallClass, SyscallTable};
use platforms::{Platform, PlatformFamily, PlatformId};
use vmm::kvm::KvmInterface;
use vmm::vsock::TtrpcChannel;

use crate::epss::EpssModel;
use crate::score::HapProfile;

/// The HAP tracing suite.
#[derive(Debug, Clone, Copy)]
pub struct HapSuite {
    /// Number of operations each workload performs while being traced.
    pub operations: u64,
}

impl Default for HapSuite {
    fn default() -> Self {
        HapSuite { operations: 10_000 }
    }
}

impl HapSuite {
    /// A reduced-operation suite for tests; the *distinct function* count
    /// (the HAP) is insensitive to the operation count.
    pub fn quick() -> Self {
        HapSuite { operations: 200 }
    }

    /// Traces the full suite on one platform and returns the raw trace.
    pub fn trace(&self, platform: &Platform) -> KernelTrace {
        let mut session = FtraceSession::start();
        self.trace_cpu(platform, &mut session);
        self.trace_memory(platform, &mut session);
        self.trace_file_io(platform, &mut session);
        self.trace_network(platform, &mut session);
        self.trace_lifecycle(platform, &mut session);
        self.trace_vmm_housekeeping(platform, &mut session);
        session.finish()
    }

    /// Traces the suite and scores it with the extended (EPSS-weighted)
    /// HAP metric.
    pub fn profile(&self, platform: &Platform) -> HapProfile {
        let trace = self.trace(platform);
        HapProfile::from_trace(platform.name(), &trace, &EpssModel::default())
    }

    fn trace_cpu(&self, platform: &Platform, session: &mut FtraceSession) {
        for class in [
            SyscallClass::Schedule,
            SyscallClass::Futex,
            SyscallClass::Time,
        ] {
            platform
                .syscalls()
                .trace_dispatch(session, class, self.operations);
        }
    }

    fn trace_memory(&self, platform: &Platform, session: &mut FtraceSession) {
        for class in [SyscallClass::MemoryMap, SyscallClass::PageFault] {
            platform
                .syscalls()
                .trace_dispatch(session, class, self.operations);
        }
    }

    fn trace_file_io(&self, platform: &Platform, session: &mut FtraceSession) {
        if platform.storage().is_excluded() {
            // The Sysbench file I/O phase still runs on the platform's root
            // disk; it reaches the host through the syscall path.
            for class in [
                SyscallClass::FileRead,
                SyscallClass::FileWrite,
                SyscallClass::Fsync,
            ] {
                platform
                    .syscalls()
                    .trace_dispatch(session, class, self.operations);
            }
        } else {
            let stack = platform.storage().build_stack();
            let profile = IoProfile {
                pattern: IoPattern::RandRead,
                block_size: 16 * 1024,
                total_bytes: 16 * 1024 * self.operations,
                direct: false,
                queue_depth: 16,
            };
            stack.trace_phase(session, profile);
            let write_profile = IoProfile {
                pattern: IoPattern::RandWrite,
                ..profile
            };
            stack.trace_phase(session, write_profile);
        }
    }

    fn trace_network(&self, platform: &Platform, session: &mut FtraceSession) {
        platform.network().trace_stream(session, self.operations);
        platform
            .syscalls()
            .trace_dispatch(session, SyscallClass::NetSend, self.operations);
        platform
            .syscalls()
            .trace_dispatch(session, SyscallClass::NetReceive, self.operations);
    }

    fn trace_lifecycle(&self, platform: &Platform, session: &mut FtraceSession) {
        let table = SyscallTable::native();
        // Starting and stopping the platform is host-side work performed by
        // the runtime (docker/lxc/kata-runtime/VMM binary), regardless of
        // how the guest itself dispatches syscalls.
        table.trace_dispatch(session, SyscallClass::ProcessControl, 8);
        table.trace_dispatch(session, SyscallClass::FileMeta, 64);
        table.trace_dispatch(session, SyscallClass::Signal, 8);
        if platform.isolation().namespaces {
            NamespaceSet::container_default().trace_setup(session);
        }
        if platform.isolation().cgroups {
            let cfg = CgroupConfig::container_default(CgroupVersion::V1);
            cfg.trace_setup(session);
            cfg.trace_runtime_accounting(session, self.operations / 10);
        }
        if platform.isolation().seccomp {
            session.invoke_all(
                &["seccomp_filter", "__seccomp_filter", "seccomp_run_filters"],
                self.operations,
            );
        }
        if platform.isolation().hardware_virtualization {
            let kvm = KvmInterface::new(16, 8);
            kvm.trace_setup(session);
            kvm.trace_run_loop(session, self.operations);
        }
        if matches!(platform.id(), PlatformId::Kata | PlatformId::KataVirtioFs) {
            TtrpcChannel::kata_agent().trace_calls(session, 12);
        }
        if matches!(
            platform.id(),
            PlatformId::GvisorPtrace | PlatformId::GvisorKvm
        ) {
            session.invoke_all(&["ptrace_attach", "ptrace_request"], 4);
        }
    }

    /// Host syscall activity of the VMM process itself (its event loops,
    /// timers, memory management and worker threads). This is what makes
    /// Firecracker — despite its minimal device model — the widest
    /// interface in Fig. 18, while Cloud Hypervisor's work-in-progress
    /// feature set keeps its host footprint small (Findings 24 and 25).
    fn trace_vmm_housekeeping(&self, platform: &Platform, session: &mut FtraceSession) {
        if platform.family() != PlatformFamily::Hypervisor
            && platform.family() != PlatformFamily::SecureContainer
            && platform.family() != PlatformFamily::Unikernel
        {
            return;
        }
        let table = SyscallTable::native();
        let classes: &[SyscallClass] = match platform.id() {
            PlatformId::Firecracker => &[
                SyscallClass::Poll,
                SyscallClass::Time,
                SyscallClass::MemoryMap,
                SyscallClass::PageFault,
                SyscallClass::Futex,
                SyscallClass::Signal,
                SyscallClass::ProcessControl,
                SyscallClass::FileMeta,
                SyscallClass::FileRead,
                SyscallClass::FileWrite,
                SyscallClass::AioSubmit,
                SyscallClass::Fsync,
                SyscallClass::NetSetup,
                SyscallClass::Ioctl,
                SyscallClass::Schedule,
            ],
            PlatformId::Qemu | PlatformId::QemuQboot | PlatformId::QemuMicrovm => &[
                SyscallClass::Poll,
                SyscallClass::Time,
                SyscallClass::MemoryMap,
                SyscallClass::PageFault,
                SyscallClass::Futex,
                SyscallClass::Signal,
                SyscallClass::ProcessControl,
                SyscallClass::AioSubmit,
                SyscallClass::Ioctl,
            ],
            PlatformId::Kata | PlatformId::KataVirtioFs => &[
                SyscallClass::Poll,
                SyscallClass::Time,
                SyscallClass::MemoryMap,
                SyscallClass::Futex,
                SyscallClass::AioSubmit,
                SyscallClass::Ioctl,
            ],
            PlatformId::CloudHypervisor => &[SyscallClass::Poll, SyscallClass::Ioctl],
            PlatformId::OsvQemu | PlatformId::OsvFirecracker => &[SyscallClass::Poll],
            // gVisor's Sentry activity is already captured by its syscall
            // path (ptrace + seccomp + reduced host syscalls).
            _ => &[],
        };
        for class in classes {
            table.trace_dispatch(session, *class, self.operations / 4);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    fn distinct(id: PlatformId, suite: &HapSuite) -> usize {
        suite.profile(&id.build()).distinct_functions
    }

    #[test]
    fn hap_ordering_matches_figure_18() {
        let suite = HapSuite::quick();
        let mut counts = BTreeMap::new();
        for id in PlatformId::paper_set() {
            counts.insert(*id, distinct(*id, &suite));
        }
        let get = |id: PlatformId| counts[&id] as f64;

        // Finding 24: Firecracker calls into the host kernel most often.
        for id in PlatformId::paper_set() {
            if *id != PlatformId::Firecracker {
                assert!(
                    get(PlatformId::Firecracker) > get(*id),
                    "firecracker ({}) must exceed {:?} ({})",
                    get(PlatformId::Firecracker),
                    id,
                    get(*id)
                );
            }
        }
        // Conclusion 8: OSv exercises the least host kernel code.
        for id in PlatformId::paper_set() {
            if !matches!(id, PlatformId::OsvQemu | PlatformId::OsvFirecracker) {
                assert!(
                    get(PlatformId::OsvQemu) < get(*id),
                    "osv ({}) must be below {:?} ({})",
                    get(PlatformId::OsvQemu),
                    id,
                    get(*id)
                );
            }
        }
        // Finding 25: Cloud Hypervisor invokes far fewer functions than the
        // other two hypervisors.
        assert!(get(PlatformId::CloudHypervisor) < get(PlatformId::Qemu));
        assert!(get(PlatformId::CloudHypervisor) < get(PlatformId::Firecracker));
        // Finding 26: the secure containers have relatively high numbers,
        // especially compared to the regular containers.
        for secure in [PlatformId::Kata, PlatformId::GvisorPtrace] {
            for container in [PlatformId::Docker, PlatformId::Lxc] {
                assert!(
                    get(secure) > get(container),
                    "{secure:?} ({}) must exceed {container:?} ({})",
                    get(secure),
                    get(container)
                );
            }
        }
        // Conclusion 9: general-purpose OSs under hypervisors invoke more
        // host kernel functions than the containers.
        assert!(get(PlatformId::Qemu) > get(PlatformId::Docker));
    }

    #[test]
    fn weighted_score_tracks_distinct_count() {
        let suite = HapSuite::quick();
        let osv = suite.profile(&PlatformId::OsvQemu.build());
        let fc = suite.profile(&PlatformId::Firecracker.build());
        assert!(fc.weighted_score > osv.weighted_score);
        assert!(fc.by_subsystem.len() >= osv.by_subsystem.len());
    }

    #[test]
    fn operation_count_does_not_change_the_distinct_count() {
        let small = HapSuite { operations: 100 };
        let large = HapSuite { operations: 5_000 };
        let p = PlatformId::Docker.build();
        assert_eq!(
            small.profile(&p).distinct_functions,
            large.profile(&p).distinct_functions
        );
    }

    #[test]
    fn paper_set_profiles_are_complete() {
        let suite = HapSuite::quick();
        for id in PlatformId::paper_set() {
            let p = suite.profile(&id.build());
            assert!(p.distinct_functions > 20, "{} too small", p.platform);
            assert!(p.weighted_score > 0.0);
        }
    }
}
