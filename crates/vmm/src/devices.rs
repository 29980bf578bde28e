//! Device model inventories.
//!
//! Section 2.1 of the paper contrasts the VMMs by the size of their device
//! models: QEMU emulates 40+ devices, Cloud Hypervisor supports 16,
//! Firecracker only 7 (virtio-net, virtio-blk, a legacy i8042
//! serial/PS-2 controller, and a pseudo clock). The device count matters
//! for attack surface and for the VMM's setup time at boot.

use serde::{Deserialize, Serialize};
use simcore::Nanos;

/// Broad classes of emulated devices.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DeviceClass {
    /// Paravirtual virtio devices (net, blk, rng, vsock, balloon, ...).
    Virtio,
    /// Legacy platform devices (i8042, PIT, RTC, serial, PS/2).
    Legacy,
    /// PCI host bridge and PCI-attached emulated hardware (VGA, USB, ...).
    Pci,
    /// ACPI tables / power management.
    Acpi,
}

/// A named emulated device.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize)]
pub struct EmulatedDevice {
    /// Device name as the VMM documentation calls it.
    pub name: &'static str,
    /// Device class.
    pub class: DeviceClass,
}

/// The device model of a VMM.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct DeviceModel {
    devices: Vec<EmulatedDevice>,
}

macro_rules! devices {
    ($($class:ident => [$($name:literal),* $(,)?]),* $(,)?) => {
        vec![
            $($(EmulatedDevice { name: $name, class: DeviceClass::$class },)*)*
        ]
    };
}

impl DeviceModel {
    /// QEMU's (abridged) default device model: 40+ devices.
    pub fn qemu_full() -> Self {
        DeviceModel {
            devices: devices![
                Virtio => [
                    "virtio-net", "virtio-blk", "virtio-scsi", "virtio-rng",
                    "virtio-balloon", "virtio-serial", "virtio-gpu", "virtio-vsock",
                    "virtio-9p", "virtio-fs", "virtio-input", "virtio-crypto",
                ],
                Legacy => [
                    "i8042", "i8254-pit", "i8259-pic", "mc146818-rtc", "16550a-uart",
                    "ps2-keyboard", "ps2-mouse", "fdc-floppy", "parallel-port",
                    "pc-speaker", "cmos", "hpet",
                ],
                Pci => [
                    "piix3-ide", "piix4-pm", "vga-std", "e1000", "rtl8139",
                    "ahci", "ehci-usb", "xhci-usb", "uhci-usb", "sb16-audio",
                    "ac97-audio", "intel-hda", "nvme", "lsi53c895a", "pcnet",
                    "sdhci",
                ],
                Acpi => ["acpi-pm", "acpi-ged", "smbios", "fw-cfg"],
            ],
        }
    }

    /// QEMU with the `microvm` machine type: virtio-mmio devices plus a
    /// minimal legacy set, no PCI.
    pub fn qemu_microvm() -> Self {
        DeviceModel {
            devices: devices![
                Virtio => ["virtio-net", "virtio-blk", "virtio-rng", "virtio-serial"],
                Legacy => ["i8042", "mc146818-rtc", "16550a-uart", "i8254-pit"],
                Acpi => ["acpi-ged", "fw-cfg"],
            ],
        }
    }

    /// Firecracker's 7-device model.
    pub fn firecracker() -> Self {
        DeviceModel {
            devices: devices![
                Virtio => ["virtio-net", "virtio-blk", "virtio-vsock"],
                Legacy => ["i8042", "serial-console", "ps2-keyboard"],
                Acpi => ["boot-timer"],
            ],
        }
    }

    /// Cloud Hypervisor's 16-device model.
    pub fn cloud_hypervisor() -> Self {
        DeviceModel {
            devices: devices![
                Virtio => [
                    "virtio-net", "virtio-blk", "virtio-rng", "virtio-vsock",
                    "virtio-fs", "virtio-pmem", "virtio-console", "virtio-iommu",
                    "virtio-balloon", "virtio-mem", "virtio-watchdog", "vhost-user-net",
                    "vhost-user-blk",
                ],
                Legacy => ["serial-console", "i8042"],
                Acpi => ["acpi-ged"],
            ],
        }
    }

    /// Number of emulated devices.
    pub fn device_count(&self) -> usize {
        self.devices.len()
    }

    /// The devices themselves.
    pub fn devices(&self) -> &[EmulatedDevice] {
        &self.devices
    }

    /// VMM initialization time attributable to instantiating the device
    /// model (per device, before the guest even starts).
    pub fn instantiation_cost(&self) -> Nanos {
        Nanos::from_micros(600) * self.device_count() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn device_counts_match_the_paper() {
        assert!(DeviceModel::qemu_full().device_count() >= 40);
        assert_eq!(DeviceModel::firecracker().device_count(), 7);
        assert_eq!(DeviceModel::cloud_hypervisor().device_count(), 16);
        assert!(
            DeviceModel::qemu_microvm().device_count() < DeviceModel::qemu_full().device_count()
        );
    }

    #[test]
    fn bigger_device_models_cost_more_to_instantiate() {
        let qemu = DeviceModel::qemu_full();
        let fc = DeviceModel::firecracker();
        assert!(qemu.instantiation_cost() > fc.instantiation_cost());
    }

    #[test]
    fn no_duplicate_device_names_within_a_model() {
        for model in [
            DeviceModel::qemu_full(),
            DeviceModel::qemu_microvm(),
            DeviceModel::firecracker(),
            DeviceModel::cloud_hypervisor(),
        ] {
            let names: std::collections::BTreeSet<_> =
                model.devices().iter().map(|d| d.name).collect();
            assert_eq!(names.len(), model.device_count());
        }
    }
}
