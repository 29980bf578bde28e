//! Control groups — the resource-constraint half of container isolation.

use serde::{Deserialize, Serialize};
use simcore::Nanos;

use crate::ftrace::FtraceSession;

/// The cgroup hierarchy version in use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CgroupVersion {
    /// Legacy per-controller hierarchies.
    V1,
    /// The unified hierarchy (required for unprivileged LXC containers).
    V2,
}

/// A cgroup controller a platform attaches its confined context to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum CgroupController {
    /// CPU bandwidth and shares.
    Cpu,
    /// CPU accounting.
    Cpuacct,
    /// Memory limits and accounting.
    Memory,
    /// Block I/O throttling.
    Blkio,
    /// Process number limits.
    Pids,
    /// Device access control.
    Devices,
    /// Freezer.
    Freezer,
}

impl CgroupController {
    /// All controllers.
    pub fn all() -> &'static [CgroupController] {
        &[
            CgroupController::Cpu,
            CgroupController::Cpuacct,
            CgroupController::Memory,
            CgroupController::Blkio,
            CgroupController::Pids,
            CgroupController::Devices,
            CgroupController::Freezer,
        ]
    }
}

/// The cgroup configuration of a confined context.
///
/// # Example
///
/// ```
/// use oskern::cgroups::{CgroupConfig, CgroupVersion};
///
/// let cfg = CgroupConfig::container_default(CgroupVersion::V1);
/// assert!(cfg.controllers().len() >= 5);
/// assert!(cfg.setup_cost().as_micros_f64() > 0.0);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CgroupConfig {
    version: CgroupVersion,
    controllers: Vec<CgroupController>,
    /// Per-operation accounting overhead factor applied to memory
    /// allocations (memcg charge/uncharge), as a fraction (0.01 = 1 %).
    pub memcg_overhead: f64,
    /// Optional CPU quota as a fraction of total host CPU (1.0 = no limit).
    pub cpu_quota: f64,
    /// Optional memory limit in bytes (`u64::MAX` = unlimited).
    pub memory_limit_bytes: u64,
}

impl CgroupConfig {
    /// No cgroup confinement (native execution, or a plain hypervisor
    /// process without a container runtime in front).
    pub fn none() -> Self {
        CgroupConfig {
            version: CgroupVersion::V1,
            controllers: Vec::new(),
            memcg_overhead: 0.0,
            cpu_quota: 1.0,
            memory_limit_bytes: u64::MAX,
        }
    }

    /// The default controller set a container runtime attaches.
    pub fn container_default(version: CgroupVersion) -> Self {
        CgroupConfig {
            version,
            controllers: vec![
                CgroupController::Cpu,
                CgroupController::Cpuacct,
                CgroupController::Memory,
                CgroupController::Blkio,
                CgroupController::Pids,
                CgroupController::Devices,
            ],
            memcg_overhead: 0.008,
            cpu_quota: 1.0,
            memory_limit_bytes: u64::MAX,
        }
    }

    /// Attached controllers.
    pub fn controllers(&self) -> &[CgroupController] {
        &self.controllers
    }

    /// Latency of creating the cgroup and attaching the task to every
    /// controller (writes into the cgroup filesystem).
    pub fn setup_cost(&self) -> Nanos {
        let per_controller = match self.version {
            CgroupVersion::V1 => Nanos::from_micros(180),
            CgroupVersion::V2 => Nanos::from_micros(120),
        };
        per_controller * self.controllers.len() as u64
    }

    /// Records the host kernel functions touched during setup.
    pub fn trace_setup(&self, session: &mut FtraceSession) {
        if self.controllers.is_empty() {
            return;
        }
        session.invoke_all(
            &[
                "cgroup_mkdir",
                "cgroup_procs_write",
                "cgroup_attach_task",
                "cgroup_migrate_execute",
                "css_set_move_task",
                "cgroup_file_write",
                "cgroup_kn_lock_live",
            ],
            self.controllers.len() as u64,
        );
    }

    /// Records the steady-state accounting functions charged while a
    /// memory-heavy workload runs under this cgroup.
    pub fn trace_runtime_accounting(&self, session: &mut FtraceSession, allocations: u64) {
        if self.controllers.contains(&CgroupController::Memory) && allocations > 0 {
            session.invoke_all(
                &[
                    "mem_cgroup_charge",
                    "try_charge_memcg",
                    "mem_cgroup_uncharge",
                ],
                allocations,
            );
        }
        if self.controllers.contains(&CgroupController::Cpuacct) && allocations > 0 {
            session.invoke("cpuacct_charge", allocations);
        }
    }
}

impl Default for CgroupConfig {
    fn default() -> Self {
        Self::none()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_is_unconfined_and_free() {
        let cfg = CgroupConfig::none();
        assert!(cfg.controllers().is_empty());
        assert_eq!(cfg.setup_cost(), Nanos::ZERO);
    }

    #[test]
    fn container_default_attaches_core_controllers() {
        let cfg = CgroupConfig::container_default(CgroupVersion::V1);
        assert!(cfg.controllers().contains(&CgroupController::Memory));
        assert!(cfg.controllers().contains(&CgroupController::Cpu));
    }

    #[test]
    fn v2_setup_is_cheaper_than_v1() {
        let v1 = CgroupConfig::container_default(CgroupVersion::V1);
        let v2 = CgroupConfig::container_default(CgroupVersion::V2);
        assert!(v2.setup_cost() < v1.setup_cost());
    }

    #[test]
    fn runtime_accounting_only_when_memory_controller_attached() {
        let mut session = FtraceSession::start();
        CgroupConfig::none().trace_runtime_accounting(&mut session, 100);
        assert_eq!(session.trace().distinct_functions(), 0);

        let mut session = FtraceSession::start();
        CgroupConfig::container_default(CgroupVersion::V1)
            .trace_runtime_accounting(&mut session, 100);
        assert!(session.trace().touched("mem_cgroup_charge"));
    }

    #[test]
    fn setup_trace_records_cgroup_functions() {
        let mut session = FtraceSession::start();
        CgroupConfig::container_default(CgroupVersion::V2).trace_setup(&mut session);
        assert!(session.trace().touched("cgroup_attach_task"));
    }
}
