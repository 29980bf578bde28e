//! The assembled platform model.

use oskern::host::HostConfig;

use crate::isolation::IsolationAttributes;
use crate::registry::{PlatformFamily, PlatformId};
use crate::subsystems::cpu::CpuSubsystem;
use crate::subsystems::memory::MemorySubsystem;
use crate::subsystems::network::NetworkSubsystem;
use crate::subsystems::startup::StartupSubsystem;
use crate::subsystems::storage::StorageSubsystem;
use crate::syscall_path::SyscallPath;

/// One fully configured isolation platform.
///
/// Instances are created through [`PlatformId::build`]; the struct itself
/// only exposes read access to its subsystems so that workloads cannot
/// accidentally mix components from different platforms.
#[derive(Debug)]
pub struct Platform {
    pub(crate) id: PlatformId,
    pub(crate) host: HostConfig,
    pub(crate) cpu: CpuSubsystem,
    pub(crate) memory: MemorySubsystem,
    pub(crate) storage: StorageSubsystem,
    pub(crate) network: NetworkSubsystem,
    pub(crate) startup: StartupSubsystem,
    pub(crate) syscalls: SyscallPath,
    pub(crate) isolation: IsolationAttributes,
}

impl Platform {
    /// The platform identifier.
    pub fn id(&self) -> PlatformId {
        self.id
    }

    /// The figure label of the platform.
    pub fn name(&self) -> &'static str {
        self.id.label()
    }

    /// The platform category.
    pub fn family(&self) -> PlatformFamily {
        self.id.family()
    }

    /// The host machine description.
    pub fn host(&self) -> &HostConfig {
        &self.host
    }

    /// CPU / scheduling subsystem.
    pub fn cpu(&self) -> &CpuSubsystem {
        &self.cpu
    }

    /// Memory subsystem.
    pub fn memory(&self) -> &MemorySubsystem {
        &self.memory
    }

    /// Storage subsystem.
    pub fn storage(&self) -> &StorageSubsystem {
        &self.storage
    }

    /// Network subsystem.
    pub fn network(&self) -> &NetworkSubsystem {
        &self.network
    }

    /// Start-up subsystem.
    pub fn startup(&self) -> &StartupSubsystem {
        &self.startup
    }

    /// Syscall dispatch path.
    pub fn syscalls(&self) -> &SyscallPath {
        &self.syscalls
    }

    /// Isolation attributes (defense-in-depth description).
    pub fn isolation(&self) -> &IsolationAttributes {
        &self.isolation
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accessors_expose_the_composition() {
        let p = PlatformId::Docker.build();
        assert_eq!(p.id(), PlatformId::Docker);
        assert_eq!(p.name(), "docker");
        assert_eq!(p.family(), PlatformFamily::Container);
        assert!(p.isolation().namespaces);
        assert!(matches!(p.syscalls(), SyscallPath::Direct { .. }));
        assert_eq!(*p.host(), HostConfig::epyc2_testbed());
    }
}
