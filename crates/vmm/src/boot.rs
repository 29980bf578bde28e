//! Boot protocols and boot timelines.
//!
//! The start-up experiments measure end-to-end process time (creation to
//! termination). A hypervisor boot decomposes into: VMM process setup
//! (including KVM setup and device-model instantiation), firmware,
//! loading the guest kernel, the guest kernel's own boot (strongly
//! dependent on the machine model it probes), the init system, and
//! process termination. Firecracker additionally skips firmware entirely
//! by loading an uncompressed kernel at the 64-bit entry point.

use serde::{Deserialize, Serialize};
use simcore::{Nanos, SimRng};

use oskern::init::InitSystem;

/// The firmware / kernel-entry protocol a machine model uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum BootProtocol {
    /// Full legacy BIOS (SeaBIOS).
    LegacyBios,
    /// The minimal qboot firmware.
    Qboot,
    /// Direct load of an uncompressed kernel at the 64-bit entry point
    /// (the Linux 64-bit boot protocol, used by Firecracker and Cloud
    /// Hypervisor).
    DirectKernel64,
}

impl BootProtocol {
    /// Firmware execution time before the kernel gets control.
    pub fn firmware_time(self) -> Nanos {
        match self {
            BootProtocol::LegacyBios => Nanos::from_millis(22),
            BootProtocol::Qboot => Nanos::from_millis(6),
            BootProtocol::DirectKernel64 => Nanos::ZERO,
        }
    }

    /// Kernel image load / decompression time. Direct 64-bit boot loads an
    /// uncompressed image and skips self-decompression.
    pub fn kernel_load_time(self) -> Nanos {
        match self {
            BootProtocol::LegacyBios | BootProtocol::Qboot => Nanos::from_millis(20),
            BootProtocol::DirectKernel64 => Nanos::from_millis(11),
        }
    }
}

/// The kind of guest image being booted.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum GuestKind {
    /// A general-purpose Linux kernel plus minimal root filesystem.
    Linux,
    /// The stripped-down guest kernel Kata ships (kconfig-minimized).
    KataMiniKernel,
    /// An OSv unikernel image.
    Osv,
}

/// The boot timeline of one hypervisor + guest combination.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BootTimeline {
    /// VMM process setup time (argument parsing, API configuration, KVM
    /// setup, device model instantiation).
    pub vmm_setup: Nanos,
    /// Firmware time.
    pub firmware: Nanos,
    /// Kernel load/decompression time.
    pub kernel_load: Nanos,
    /// Guest kernel boot time (hardware probing against this machine
    /// model, driver init) — excludes the init system.
    pub guest_kernel_boot: Nanos,
    /// The init system started inside the guest.
    pub init: InitSystem,
    /// Process termination overhead (the paper measured 1–2 %).
    pub termination: Nanos,
    /// Relative run-to-run noise applied to the total.
    pub jitter: f64,
}

impl BootTimeline {
    /// Mean end-to-end boot time (process creation to termination).
    pub fn mean_total(&self) -> Nanos {
        self.vmm_setup
            + self.firmware
            + self.kernel_load
            + self.guest_kernel_boot
            + self.init.mean_total()
            + self.termination
    }

    /// Samples one end-to-end measurement.
    pub fn sample_total(&self, rng: &mut SimRng) -> Nanos {
        let mean = self.mean_total().as_secs_f64();
        Nanos::from_secs_f64(rng.normal_pos(mean, mean * self.jitter))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn timeline() -> BootTimeline {
        BootTimeline {
            vmm_setup: Nanos::from_millis(75),
            firmware: BootProtocol::LegacyBios.firmware_time(),
            kernel_load: BootProtocol::LegacyBios.kernel_load_time(),
            guest_kernel_boot: Nanos::from_millis(110),
            init: InitSystem::PatchedImmediateExit,
            termination: Nanos::from_millis(4),
            jitter: 0.05,
        }
    }

    #[test]
    fn direct_boot_skips_firmware_and_decompression() {
        assert_eq!(BootProtocol::DirectKernel64.firmware_time(), Nanos::ZERO);
        assert!(
            BootProtocol::DirectKernel64.kernel_load_time()
                < BootProtocol::LegacyBios.kernel_load_time()
        );
        assert!(BootProtocol::Qboot.firmware_time() < BootProtocol::LegacyBios.firmware_time());
    }

    #[test]
    fn total_is_the_sum_of_phases() {
        let t = timeline();
        let expected = 75.0 + 22.0 + 20.0 + 110.0 + 1.0 + 4.0;
        assert!((t.mean_total().as_millis_f64() - expected).abs() < 0.5);
    }

    #[test]
    fn sampling_is_reproducible() {
        let t = timeline();
        let a = t.sample_total(&mut SimRng::seed_from(3));
        let b = t.sample_total(&mut SimRng::seed_from(3));
        assert_eq!(a, b);
        assert!(a > Nanos::ZERO);
    }
}
