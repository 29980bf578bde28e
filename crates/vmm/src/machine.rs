//! The concrete machine models benchmarked in the paper.
//!
//! Five hypervisor configurations appear in Figs. 14/15: plain QEMU, QEMU
//! with the minimal qboot firmware, QEMU with the Firecracker-inspired
//! `microvm` machine type, Firecracker itself, and Cloud Hypervisor. Each
//! machine model bundles a device inventory, a boot protocol, a virtio
//! servicing style and the per-guest-kind kernel boot behaviour that makes
//! the Fig. 14 and Fig. 15 orderings come out differently.

use serde::{Deserialize, Serialize};
use simcore::Nanos;

use memsim::paging::PagingMode;
use netsim::component::NetComponent;

use crate::boot::{BootProtocol, BootTimeline, GuestKind};
use crate::devices::DeviceModel;
use crate::kvm::KvmInterface;

/// A hypervisor machine model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum MachineModel {
    /// Plain QEMU/KVM with the default `pc` machine and SeaBIOS.
    QemuFull,
    /// QEMU with the minimal qboot firmware.
    QemuQboot,
    /// QEMU with the `microvm` machine type (Firecracker-inspired µVM).
    QemuMicrovm,
    /// Firecracker.
    Firecracker,
    /// Cloud Hypervisor.
    CloudHypervisor,
}

impl MachineModel {
    /// All machine models in the paper's hypervisor comparison.
    pub fn all() -> &'static [MachineModel] {
        &[
            MachineModel::QemuFull,
            MachineModel::QemuQboot,
            MachineModel::QemuMicrovm,
            MachineModel::Firecracker,
            MachineModel::CloudHypervisor,
        ]
    }

    /// The machine's device inventory.
    pub fn device_model(self) -> DeviceModel {
        match self {
            MachineModel::QemuFull | MachineModel::QemuQboot => DeviceModel::qemu_full(),
            MachineModel::QemuMicrovm => DeviceModel::qemu_microvm(),
            MachineModel::Firecracker => DeviceModel::firecracker(),
            MachineModel::CloudHypervisor => DeviceModel::cloud_hypervisor(),
        }
    }

    /// The boot protocol used.
    pub fn boot_protocol(self) -> BootProtocol {
        match self {
            MachineModel::QemuFull => BootProtocol::LegacyBios,
            MachineModel::QemuQboot => BootProtocol::Qboot,
            MachineModel::QemuMicrovm => BootProtocol::Qboot,
            MachineModel::Firecracker | MachineModel::CloudHypervisor => {
                BootProtocol::DirectKernel64
            }
        }
    }

    /// The guest-memory translation mode: all machines use hardware nested
    /// paging; the Rust VMMs add the `vm-memory` software layer the paper
    /// blames for their elevated access latencies (Finding 4).
    pub fn paging_mode(self) -> PagingMode {
        match self {
            MachineModel::QemuFull | MachineModel::QemuQboot | MachineModel::QemuMicrovm => {
                PagingMode::nested_hardware()
            }
            MachineModel::Firecracker => {
                PagingMode::nested_with_vmm_overhead(Nanos::from_nanos(95))
            }
            MachineModel::CloudHypervisor => {
                PagingMode::nested_with_vmm_overhead(Nanos::from_nanos(55))
            }
        }
    }

    /// Sequential memory-bandwidth efficiency of the guest relative to the
    /// host (Finding 4: QEMU loses throughput but not latency; Firecracker
    /// loses both; Cloud Hypervisor loses latency but little throughput).
    pub fn memory_bandwidth_efficiency(self) -> f64 {
        match self {
            MachineModel::QemuFull | MachineModel::QemuQboot | MachineModel::QemuMicrovm => 0.86,
            MachineModel::Firecracker => 0.80,
            MachineModel::CloudHypervisor => 0.90,
        }
    }

    /// The guest-side network components this machine contributes (the
    /// platform composition appends the guest stack component).
    pub fn network_components(self) -> Vec<NetComponent> {
        match self {
            MachineModel::QemuFull | MachineModel::QemuQboot | MachineModel::QemuMicrovm => {
                vec![NetComponent::Tap, NetComponent::VirtioNetVhost]
            }
            MachineModel::Firecracker => vec![
                NetComponent::Tap,
                NetComponent::VirtioNetVmm { efficiency: 0.90 },
            ],
            MachineModel::CloudHypervisor => vec![
                NetComponent::Tap,
                NetComponent::VirtioNetVmm { efficiency: 0.74 },
            ],
        }
    }

    /// I/O throughput efficiency of the machine's virtio-blk
    /// implementation relative to QEMU's (Finding 9: Cloud Hypervisor is
    /// the I/O outlier among hypervisors; Firecracker cannot attach extra
    /// drives at all and is excluded from the fio figures).
    pub fn block_efficiency(self) -> f64 {
        match self {
            MachineModel::QemuFull | MachineModel::QemuQboot | MachineModel::QemuMicrovm => 1.0,
            MachineModel::Firecracker => 0.85,
            MachineModel::CloudHypervisor => 0.55,
        }
    }

    /// The KVM usage profile of this VMM.
    pub fn kvm_interface(self, vcpus: u32) -> KvmInterface {
        let regions = match self {
            MachineModel::QemuFull | MachineModel::QemuQboot => 12,
            MachineModel::QemuMicrovm => 8,
            MachineModel::Firecracker => 4,
            MachineModel::CloudHypervisor => 6,
        };
        KvmInterface::new(vcpus, regions)
    }

    /// VMM process setup time: binary start, configuration (Firecracker's
    /// REST API round trips are part of its end-to-end cost), KVM setup and
    /// device model instantiation.
    pub fn vmm_setup_time(self) -> Nanos {
        let base = match self {
            MachineModel::QemuFull | MachineModel::QemuQboot => Nanos::from_millis(48),
            MachineModel::QemuMicrovm => Nanos::from_millis(44),
            MachineModel::Firecracker => Nanos::from_millis(82),
            MachineModel::CloudHypervisor => Nanos::from_millis(20),
        };
        base + self.device_model().instantiation_cost() + self.kvm_interface(1).setup_cost()
    }

    /// Guest kernel boot time on this machine for the given guest kind.
    ///
    /// The same Linux kernel boots fastest on machines whose device layout
    /// it probes efficiently (Cloud Hypervisor, full QEMU) and slowest on
    /// the µVM machine type (Finding 14), while OSv's tiny kernel skips the
    /// expensive probing entirely and benefits most from the direct 64-bit
    /// entry (Finding 15).
    pub fn guest_kernel_boot_time(self, guest: GuestKind) -> Nanos {
        match guest {
            GuestKind::Linux => match self {
                MachineModel::QemuFull => Nanos::from_millis(112),
                MachineModel::QemuQboot => Nanos::from_millis(118),
                MachineModel::QemuMicrovm => Nanos::from_millis(330),
                MachineModel::Firecracker => Nanos::from_millis(225),
                MachineModel::CloudHypervisor => Nanos::from_millis(68),
            },
            GuestKind::KataMiniKernel => match self {
                MachineModel::QemuFull | MachineModel::QemuQboot => Nanos::from_millis(65),
                MachineModel::QemuMicrovm => Nanos::from_millis(120),
                MachineModel::Firecracker => Nanos::from_millis(95),
                MachineModel::CloudHypervisor => Nanos::from_millis(45),
            },
            GuestKind::Osv => match self {
                MachineModel::QemuFull => Nanos::from_millis(78),
                MachineModel::QemuQboot => Nanos::from_millis(60),
                MachineModel::QemuMicrovm => Nanos::from_millis(48),
                MachineModel::Firecracker => Nanos::from_millis(22),
                MachineModel::CloudHypervisor => Nanos::from_millis(30),
            },
        }
    }

    /// Builds the boot timeline for this machine booting the given guest
    /// with the given init system.
    pub fn boot_timeline(self, guest: GuestKind, init: oskern::init::InitSystem) -> BootTimeline {
        let protocol = self.boot_protocol();
        BootTimeline {
            vmm_setup: self.vmm_setup_time(),
            firmware: protocol.firmware_time(),
            kernel_load: protocol.kernel_load_time(),
            guest_kernel_boot: self.guest_kernel_boot_time(guest),
            init,
            termination: Nanos::from_millis(4),
            jitter: 0.06,
        }
    }

    /// Display name used in reports (matches the paper's labels).
    pub fn label(self) -> &'static str {
        match self {
            MachineModel::QemuFull => "qemu",
            MachineModel::QemuQboot => "qemu-qboot",
            MachineModel::QemuMicrovm => "qemu-microvm",
            MachineModel::Firecracker => "firecracker",
            MachineModel::CloudHypervisor => "cloud-hypervisor",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oskern::init::InitSystem;

    fn linux_boot_ms(m: MachineModel) -> f64 {
        m.boot_timeline(GuestKind::Linux, InitSystem::PatchedImmediateExit)
            .mean_total()
            .as_millis_f64()
    }

    fn osv_boot_ms(m: MachineModel) -> f64 {
        m.boot_timeline(GuestKind::Osv, InitSystem::OsvRuntime)
            .mean_total()
            .as_millis_f64()
    }

    #[test]
    fn linux_boot_ordering_matches_figure_14() {
        let chv = linux_boot_ms(MachineModel::CloudHypervisor);
        let qemu = linux_boot_ms(MachineModel::QemuFull);
        let qboot = linux_boot_ms(MachineModel::QemuQboot);
        let fc = linux_boot_ms(MachineModel::Firecracker);
        let microvm = linux_boot_ms(MachineModel::QemuMicrovm);
        assert!(chv < qboot, "cloud-hypervisor {chv} vs qemu-qboot {qboot}");
        assert!(chv < qemu);
        assert!(qemu < fc, "qemu {qemu} vs firecracker {fc}");
        assert!(qboot < fc);
        assert!(fc < microvm, "firecracker {fc} vs microvm {microvm}");
        assert!(
            (300.0..420.0).contains(&fc),
            "firecracker lands around 350 ms, got {fc}"
        );
    }

    #[test]
    fn osv_boot_ordering_matches_figure_15() {
        let fc = osv_boot_ms(MachineModel::Firecracker);
        let microvm = osv_boot_ms(MachineModel::QemuMicrovm);
        let qemu = osv_boot_ms(MachineModel::QemuFull);
        assert!(fc < microvm, "firecracker {fc} vs microvm {microvm}");
        assert!(microvm < qemu, "microvm {microvm} vs qemu {qemu}");
    }

    #[test]
    fn osv_boots_faster_than_a_linux_guest_everywhere() {
        for m in MachineModel::all() {
            assert!(
                osv_boot_ms(*m) < linux_boot_ms(*m),
                "{} should boot OSv faster than Linux",
                m.label()
            );
        }
    }

    #[test]
    fn rust_vmms_pay_vm_memory_overhead() {
        assert!(matches!(
            MachineModel::Firecracker.paging_mode(),
            memsim::paging::PagingMode::Nested { .. }
        ));
        let tlb = memsim::tlb::TlbConfig::epyc2();
        let page = memsim::tlb::PageSize::Small4K;
        let qemu = MachineModel::QemuFull
            .paging_mode()
            .walk_latency(&tlb, page);
        let chv = MachineModel::CloudHypervisor
            .paging_mode()
            .walk_latency(&tlb, page);
        let fc = MachineModel::Firecracker
            .paging_mode()
            .walk_latency(&tlb, page);
        assert!(fc > chv, "firecracker {fc} vs cloud-hypervisor {chv}");
        assert!(chv > qemu, "cloud-hypervisor {chv} vs qemu {qemu}");
    }

    #[test]
    fn cloud_hypervisor_is_the_io_outlier() {
        assert!(
            MachineModel::CloudHypervisor.block_efficiency()
                < MachineModel::QemuFull.block_efficiency()
        );
    }

    #[test]
    fn labels_are_unique() {
        let labels: std::collections::BTreeSet<_> =
            MachineModel::all().iter().map(|m| m.label()).collect();
        assert_eq!(labels.len(), MachineModel::all().len());
    }
}
