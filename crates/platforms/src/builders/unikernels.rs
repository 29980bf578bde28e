//! The OSv unikernel, run under QEMU or Firecracker.

use oskern::host::HostConfig;
use oskern::init::InitSystem;
use oskern::sched::SchedulerModel;

use memsim::features::DirectMapFeatures;
use memsim::paging::PagingMode;
use netsim::component::NetComponent;
use netsim::path::NetworkPath;
use vmm::boot::GuestKind;
use vmm::machine::MachineModel;

use crate::isolation::IsolationAttributes;
use crate::platform::Platform;
use crate::registry::PlatformId;
use crate::subsystems::cpu::CpuSubsystem;
use crate::subsystems::memory::MemorySubsystem;
use crate::subsystems::network::NetworkSubsystem;
use crate::subsystems::storage::StorageSubsystem;
use crate::syscall_path::SyscallPath;

use super::{startup_from_timeline, GUEST_CORES};

/// OSv under the given hypervisor (QEMU or Firecracker in the paper).
///
/// OSv's memory behaviour is strongly affected by the hypervisor
/// (Finding 5): under QEMU it is close to native, under Firecracker it
/// inherits the vm-memory penalty. Its network throughput advantage over a
/// plain Linux guest is large under QEMU (25.7 %) and small under
/// Firecracker (6.53 %).
pub fn osv(machine: MachineModel) -> Platform {
    let under_firecracker = matches!(machine, MachineModel::Firecracker);
    let (id, paging, bandwidth_eff, osv_bonus) = if under_firecracker {
        (
            PlatformId::OsvFirecracker,
            machine.paging_mode(),
            0.82,
            1.065,
        )
    } else {
        (
            PlatformId::OsvQemu,
            // OSv under QEMU shows results close to native; its single
            // address space and large pages keep it out of the nested-walk
            // penalty in practice.
            PagingMode::Native,
            0.97,
            1.26,
        )
    };
    let mut net_components = machine.network_components();
    net_components.push(NetComponent::OsvGuestStack {
        throughput_bonus: osv_bonus,
    });
    let timeline = machine.boot_timeline(GuestKind::Osv, InitSystem::OsvRuntime);
    Platform {
        id,
        host: HostConfig::epyc2_testbed(),
        cpu: CpuSubsystem::new(SchedulerModel::Osv, GUEST_CORES),
        memory: MemorySubsystem::new(paging, DirectMapFeatures::none(), bandwidth_eff, 0.04),
        storage: StorageSubsystem::excluded("osv has no working libaio engine implementation"),
        network: NetworkSubsystem::new(NetworkPath::new(net_components)),
        startup: startup_from_timeline(&timeline),
        syscalls: SyscallPath::OsvFunctionCall {
            exit_fraction: 0.03,
        },
        isolation: IsolationAttributes {
            namespaces: false,
            cgroups: false,
            hardware_virtualization: true,
            userspace_kernel: false,
            seccomp: under_firecracker,
            shares_memory_with_host: false,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::subsystems::startup::StartupVariant;
    use memsim::tlb::PageSize;

    #[test]
    fn osv_network_advantage_depends_on_the_hypervisor() {
        let native = crate::builders::native::native()
            .network()
            .mean_throughput()
            .gbit_per_sec();
        let osv_qemu = osv(MachineModel::QemuFull)
            .network()
            .mean_throughput()
            .gbit_per_sec();
        let osv_fc = osv(MachineModel::Firecracker)
            .network()
            .mean_throughput()
            .gbit_per_sec();
        let qemu = crate::builders::hypervisors::qemu(MachineModel::QemuFull, PlatformId::Qemu)
            .network()
            .mean_throughput()
            .gbit_per_sec();
        let fc = crate::builders::hypervisors::firecracker()
            .network()
            .mean_throughput()
            .gbit_per_sec();
        // OSv under QEMU nearly reaches native and beats plain QEMU by ~25 %.
        assert!(
            osv_qemu > native * 0.94,
            "osv-qemu {osv_qemu} vs native {native}"
        );
        let qemu_gain = osv_qemu / qemu - 1.0;
        assert!(
            (0.18..0.33).contains(&qemu_gain),
            "gain over qemu {qemu_gain}"
        );
        // Under Firecracker the gain is much smaller.
        let fc_gain = osv_fc / fc - 1.0;
        assert!(
            (0.02..0.12).contains(&fc_gain),
            "gain over firecracker {fc_gain}"
        );
    }

    #[test]
    fn osv_memory_depends_on_the_hypervisor() {
        let native = crate::builders::native::native();
        let size = 1 << 26;
        let n = native.memory().mean_access_latency(size, PageSize::Small4K);
        let q = osv(MachineModel::QemuFull)
            .memory()
            .mean_access_latency(size, PageSize::Small4K);
        let f = osv(MachineModel::Firecracker)
            .memory()
            .mean_access_latency(size, PageSize::Small4K);
        assert_eq!(n, q, "osv under qemu should be close to native");
        assert!(
            f > q,
            "osv under firecracker should underperform osv under qemu"
        );
    }

    #[test]
    fn osv_is_excluded_from_fio_and_calls_syscalls_as_functions() {
        let p = osv(MachineModel::QemuFull);
        assert!(p.storage().is_excluded());
        assert!(matches!(p.syscalls(), SyscallPath::OsvFunctionCall { .. }));
    }

    #[test]
    fn osv_boots_as_fast_as_containers() {
        let t = osv(MachineModel::Firecracker)
            .startup()
            .mean_total(StartupVariant::Default)
            .as_millis_f64();
        assert!(t < 200.0, "osv-fc boot {t} ms");
        // Booting under different hypervisors has a significant effect.
        let q = osv(MachineModel::QemuFull)
            .startup()
            .mean_total(StartupVariant::Default)
            .as_millis_f64();
        assert!(q > t * 1.2, "osv-qemu {q} vs osv-fc {t}");
    }
}
