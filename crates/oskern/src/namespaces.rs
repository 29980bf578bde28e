//! Linux namespaces — the visibility-reduction half of container isolation.

use serde::{Deserialize, Serialize};
use simcore::Nanos;

use crate::ftrace::FtraceSession;

/// A kind of Linux namespace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum NamespaceKind {
    /// Mount namespace (`CLONE_NEWNS`).
    Mount,
    /// PID namespace (`CLONE_NEWPID`).
    Pid,
    /// Network namespace (`CLONE_NEWNET`).
    Net,
    /// IPC namespace (`CLONE_NEWIPC`).
    Ipc,
    /// UTS namespace (`CLONE_NEWUTS`).
    Uts,
    /// User namespace (`CLONE_NEWUSER`).
    User,
    /// Cgroup namespace (`CLONE_NEWCGROUP`).
    Cgroup,
}

impl NamespaceKind {
    /// All namespace kinds.
    pub fn all() -> &'static [NamespaceKind] {
        &[
            NamespaceKind::Mount,
            NamespaceKind::Pid,
            NamespaceKind::Net,
            NamespaceKind::Ipc,
            NamespaceKind::Uts,
            NamespaceKind::User,
            NamespaceKind::Cgroup,
        ]
    }

    /// Typical setup latency for creating one namespace of this kind.
    ///
    /// Network namespaces are by far the most expensive because creating
    /// one instantiates a fresh loopback device and sysctl state.
    pub fn setup_cost(self) -> Nanos {
        match self {
            NamespaceKind::Mount => Nanos::from_micros(120),
            NamespaceKind::Pid => Nanos::from_micros(60),
            NamespaceKind::Net => Nanos::from_millis(2),
            NamespaceKind::Ipc => Nanos::from_micros(40),
            NamespaceKind::Uts => Nanos::from_micros(10),
            NamespaceKind::User => Nanos::from_micros(80),
            NamespaceKind::Cgroup => Nanos::from_micros(30),
        }
    }

    /// Host kernel functions touched when creating this namespace.
    pub fn host_functions(self) -> &'static [&'static str] {
        match self {
            NamespaceKind::Mount => &["copy_namespaces", "create_new_namespaces", "copy_mnt_ns"],
            NamespaceKind::Pid => &["copy_namespaces", "copy_pid_ns", "alloc_pid", "pid_nr_ns"],
            NamespaceKind::Net => &["copy_namespaces", "copy_net_ns", "netns_get"],
            NamespaceKind::Ipc => &["copy_namespaces", "copy_ipcs"],
            NamespaceKind::Uts => &["copy_namespaces", "copy_utsname"],
            NamespaceKind::User => &["copy_namespaces", "create_user_ns", "ns_capable"],
            NamespaceKind::Cgroup => &["copy_namespaces", "switch_task_namespaces"],
        }
    }
}

/// A set of namespaces a platform creates for its confined context.
///
/// # Example
///
/// ```
/// use oskern::namespaces::NamespaceSet;
///
/// let set = NamespaceSet::container_default();
/// assert_eq!(set.len(), 6);
/// assert!(set.setup_cost().as_micros_f64() > 1_000.0); // dominated by netns
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct NamespaceSet {
    kinds: Vec<NamespaceKind>,
}

impl NamespaceSet {
    /// An empty namespace set (native execution).
    pub fn none() -> Self {
        NamespaceSet { kinds: Vec::new() }
    }

    /// The default set Docker/runc creates: mount, pid, net, ipc, uts,
    /// cgroup (user namespaces are still opt-in for Docker).
    pub fn container_default() -> Self {
        NamespaceSet {
            kinds: vec![
                NamespaceKind::Mount,
                NamespaceKind::Pid,
                NamespaceKind::Net,
                NamespaceKind::Ipc,
                NamespaceKind::Uts,
                NamespaceKind::Cgroup,
            ],
        }
    }

    /// Number of namespaces in the set.
    pub fn len(&self) -> usize {
        self.kinds.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.kinds.is_empty()
    }

    /// Whether the set contains the given kind.
    pub fn contains(&self, kind: NamespaceKind) -> bool {
        self.kinds.contains(&kind)
    }

    /// Iterates over the namespace kinds in the set.
    pub fn iter(&self) -> impl Iterator<Item = &NamespaceKind> {
        self.kinds.iter()
    }

    /// Total setup latency of creating every namespace in the set.
    pub fn setup_cost(&self) -> Nanos {
        self.kinds.iter().map(|k| k.setup_cost()).sum()
    }

    /// Records the host kernel functions touched when setting up the set.
    pub fn trace_setup(&self, session: &mut FtraceSession) {
        for kind in &self.kinds {
            session.invoke_all(kind.host_functions(), 1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel_fn::KernelFunctionRegistry;

    #[test]
    fn default_container_set_has_expected_members() {
        let set = NamespaceSet::container_default();
        assert!(set.contains(NamespaceKind::Net));
        assert!(set.contains(NamespaceKind::Pid));
        assert!(!set.contains(NamespaceKind::User));
        assert_eq!(set.len(), 6);
    }

    #[test]
    fn setup_cost_dominated_by_network_namespace() {
        let net_only = NamespaceSet {
            kinds: vec![NamespaceKind::Net],
        };
        let rest = NamespaceSet {
            kinds: vec![
                NamespaceKind::Mount,
                NamespaceKind::Pid,
                NamespaceKind::Ipc,
                NamespaceKind::Uts,
            ],
        };
        assert!(net_only.setup_cost() > rest.setup_cost());
    }

    #[test]
    fn empty_set_costs_nothing() {
        assert_eq!(NamespaceSet::none().setup_cost(), Nanos::ZERO);
        assert!(NamespaceSet::none().is_empty());
    }

    #[test]
    fn all_host_functions_are_registered() {
        let reg = KernelFunctionRegistry::standard();
        for kind in NamespaceKind::all() {
            for f in kind.host_functions() {
                assert!(reg.contains(f), "{kind:?} references unknown {f}");
            }
        }
    }

    #[test]
    fn trace_setup_records_functions() {
        let mut session = FtraceSession::start();
        NamespaceSet::container_default().trace_setup(&mut session);
        let trace = session.finish();
        assert!(trace.touched("copy_net_ns"));
        assert!(trace.touched("copy_pid_ns"));
    }
}
