//! Registry of host kernel functions.
//!
//! The HAP experiment (Fig. 18) traces which host kernel functions a
//! platform invokes while running a workload suite. This module provides a
//! canonical registry of function names drawn from the subsystems that the
//! isolation platforms exercise: syscall entry, scheduling, memory
//! management, VFS, the block layer, networking, KVM, namespaces, cgroups,
//! signal delivery and timekeeping.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

/// The kernel subsystem a function belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum KernelSubsystem {
    /// Syscall entry/exit and architecture glue.
    Entry,
    /// Process and thread scheduling (CFS).
    Scheduling,
    /// Memory management: page faults, mmap, page allocation, TLB.
    MemoryManagement,
    /// Virtual file system layer.
    Vfs,
    /// Block layer and NVMe driver.
    Block,
    /// Network stack: sockets, TCP/IP, bridges, TAP.
    Network,
    /// KVM and hardware virtualization support.
    Kvm,
    /// Namespaces (the container visibility mechanism).
    Namespaces,
    /// Control groups (the container resource mechanism).
    Cgroups,
    /// Signal delivery.
    Signals,
    /// Timers and timekeeping.
    Time,
    /// Inter-process communication (pipes, unix sockets, vsock).
    Ipc,
    /// Security hooks: seccomp, LSM, capabilities.
    Security,
}

impl KernelSubsystem {
    /// All subsystems, in a stable order.
    pub fn all() -> &'static [KernelSubsystem] {
        &[
            KernelSubsystem::Entry,
            KernelSubsystem::Scheduling,
            KernelSubsystem::MemoryManagement,
            KernelSubsystem::Vfs,
            KernelSubsystem::Block,
            KernelSubsystem::Network,
            KernelSubsystem::Kvm,
            KernelSubsystem::Namespaces,
            KernelSubsystem::Cgroups,
            KernelSubsystem::Signals,
            KernelSubsystem::Time,
            KernelSubsystem::Ipc,
            KernelSubsystem::Security,
        ]
    }

    /// Short human-readable label.
    pub fn label(self) -> &'static str {
        match self {
            KernelSubsystem::Entry => "entry",
            KernelSubsystem::Scheduling => "sched",
            KernelSubsystem::MemoryManagement => "mm",
            KernelSubsystem::Vfs => "vfs",
            KernelSubsystem::Block => "block",
            KernelSubsystem::Network => "net",
            KernelSubsystem::Kvm => "kvm",
            KernelSubsystem::Namespaces => "ns",
            KernelSubsystem::Cgroups => "cgroup",
            KernelSubsystem::Signals => "signal",
            KernelSubsystem::Time => "time",
            KernelSubsystem::Ipc => "ipc",
            KernelSubsystem::Security => "security",
        }
    }
}

/// A host kernel function known to the registry.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct KernelFunction {
    /// The function symbol name (e.g. `do_sys_openat2`).
    pub name: &'static str,
    /// The subsystem the function belongs to.
    pub subsystem: KernelSubsystem,
}

macro_rules! kfuncs {
    ($($subsystem:ident => [$($name:literal),* $(,)?]),* $(,)?) => {
        &[
            $($(KernelFunction { name: $name, subsystem: KernelSubsystem::$subsystem },)*)*
        ]
    };
}

/// The canonical list of host kernel functions the simulation can report.
///
/// The set is a representative subset of the symbols a real
/// `trace-cmd record -p function` session observes while running the
/// paper's workload suite on Linux 5.x; it is large enough that the HAP
/// ordering between platforms is driven by which *subsystems* each platform
/// architecture touches.
pub static KERNEL_FUNCTIONS: &[KernelFunction] = kfuncs![
    Entry => [
        "entry_SYSCALL_64", "do_syscall_64", "syscall_exit_to_user_mode",
        "exit_to_user_mode_prepare", "syscall_trace_enter", "ret_from_fork",
        "x64_sys_call", "common_interrupt", "asm_exc_page_fault",
    ],
    Scheduling => [
        "schedule", "__schedule", "pick_next_task_fair", "enqueue_task_fair",
        "dequeue_task_fair", "update_curr", "put_prev_entity", "set_next_entity",
        "check_preempt_wakeup", "try_to_wake_up", "wake_up_process",
        "select_task_rq_fair", "load_balance", "newidle_balance",
        "update_load_avg", "task_tick_fair", "scheduler_tick", "sched_clock",
        "finish_task_switch", "context_switch", "prepare_task_switch",
        "do_futex", "futex_wait", "futex_wake", "hrtick_update",
        "sched_setaffinity", "yield_task_fair", "cpuacct_charge",
    ],
    MemoryManagement => [
        "handle_mm_fault", "__handle_mm_fault", "do_user_addr_fault",
        "do_anonymous_page", "do_fault", "filemap_map_pages",
        "alloc_pages_vma", "__alloc_pages", "get_page_from_freelist",
        "free_unref_page", "lru_cache_add", "page_add_new_anon_rmap",
        "do_mmap", "mmap_region", "vm_mmap_pgoff", "do_brk_flags",
        "do_munmap", "unmap_region", "zap_pte_range", "tlb_flush_mmu",
        "flush_tlb_mm_range", "native_flush_tlb_one_user",
        "change_protection", "mprotect_fixup", "do_madvise",
        "khugepaged_scan_mm_slot", "hugetlb_fault", "do_huge_pmd_anonymous_page",
        "ksm_scan_thread", "try_to_merge_with_ksm_page",
        "copy_page_range", "wp_page_copy", "page_fault_oops",
        "shmem_getpage_gfp", "vma_link", "find_vma",
    ],
    Vfs => [
        "do_sys_openat2", "path_openat", "link_path_walk", "lookup_fast",
        "vfs_read", "vfs_write", "ksys_read", "ksys_write", "new_sync_read",
        "new_sync_write", "generic_file_read_iter", "generic_file_write_iter",
        "filemap_read", "generic_perform_write", "vfs_fsync_range",
        "do_iter_readv_writev", "iterate_dir", "vfs_statx", "do_faccessat",
        "do_sys_ftruncate", "do_fallocate", "vfs_fallocate",
        "do_filp_open", "terminate_walk", "dput", "mntput_no_expire",
        "fput", "filp_close", "do_dentry_open", "generic_file_llseek",
        "pipe_read", "pipe_write", "eventfd_write", "eventfd_read",
        "ep_poll", "do_epoll_wait", "do_epoll_ctl", "io_submit_one",
        "aio_read", "aio_write", "io_getevents", "iomap_dio_rw",
        "ovl_open", "ovl_read_iter", "ovl_write_iter", "ovl_lookup",
        "fuse_simple_request", "fuse_file_read_iter", "fuse_file_write_iter",
        "fuse_do_getattr", "v9fs_vfs_lookup", "v9fs_file_read_iter",
        "v9fs_file_write_iter", "p9_client_rpc", "p9_client_read",
        "p9_client_write", "zpl_read", "zpl_write", "zfs_read", "zfs_write",
    ],
    Block => [
        "submit_bio", "submit_bio_noacct", "blk_mq_submit_bio",
        "blk_mq_dispatch_rq_list", "blk_mq_run_hw_queue", "blk_mq_end_request",
        "nvme_queue_rq", "nvme_irq", "nvme_complete_rq", "nvme_setup_cmd",
        "blk_account_io_start", "blk_account_io_done", "bio_alloc_bioset",
        "bio_endio", "blkdev_direct_IO", "blkdev_read_iter", "blkdev_write_iter",
        "loop_queue_rq", "lo_rw_aio", "do_blockdev_direct_IO",
        "sbitmap_get", "blk_mq_get_tag", "elv_rb_add", "dd_insert_requests",
    ],
    Network => [
        "sock_sendmsg", "sock_recvmsg", "__sys_sendto", "__sys_recvfrom",
        "__sys_sendmsg", "__sys_recvmsg", "tcp_sendmsg", "tcp_sendmsg_locked",
        "tcp_recvmsg", "tcp_write_xmit", "tcp_transmit_skb", "tcp_v4_rcv",
        "tcp_rcv_established", "tcp_ack", "tcp_clean_rtx_queue",
        "ip_queue_xmit", "ip_output", "ip_finish_output2", "ip_rcv",
        "ip_local_deliver", "__netif_receive_skb_core", "netif_receive_skb",
        "dev_queue_xmit", "__dev_queue_xmit", "dev_hard_start_xmit",
        "net_rx_action", "napi_complete_done", "napi_gro_receive",
        "br_handle_frame", "br_forward", "br_dev_xmit", "br_nf_pre_routing",
        "tun_net_xmit", "tun_get_user", "tun_put_user", "tun_chr_read_iter",
        "tun_chr_write_iter", "tap_handle_frame",
        "vhost_worker", "handle_tx_kick", "handle_rx_kick", "vhost_signal",
        "skb_copy_datagram_iter", "__skb_clone", "kfree_skb", "consume_skb",
        "alloc_skb", "__napi_alloc_skb", "sk_stream_alloc_skb",
        "inet_sendmsg", "inet_recvmsg", "sock_def_readable", "sk_wait_data",
        "nf_hook_slow", "ipt_do_table", "netlink_sendmsg", "netlink_recvmsg",
        "unix_stream_sendmsg", "unix_stream_recvmsg",
        "vsock_stream_sendmsg", "vsock_stream_recvmsg", "virtio_transport_send_pkt",
        "e1000_xmit_frame", "mlx5e_xmit",
    ],
    Kvm => [
        "kvm_arch_vcpu_ioctl_run", "vcpu_enter_guest", "vmx_vcpu_run",
        "vcpu_run", "kvm_vcpu_ioctl", "kvm_dev_ioctl", "kvm_vm_ioctl",
        "kvm_arch_vm_ioctl", "kvm_vm_ioctl_create_vcpu",
        "kvm_mmu_page_fault", "kvm_tdp_page_fault", "direct_page_fault",
        "kvm_set_memory_region", "kvm_vm_ioctl_set_memory_region",
        "__kvm_set_memory_region", "kvm_emulate_io", "kvm_fast_pio",
        "handle_ept_violation", "handle_ept_misconfig", "handle_io",
        "kvm_emulate_cpuid", "kvm_emulate_hypercall", "kvm_apic_send_ipi",
        "kvm_lapic_reg_write", "kvm_set_msr_common", "kvm_get_msr_common",
        "vmx_handle_exit", "vmx_flush_tlb_current", "kvm_mmu_load",
        "kvm_irq_delivery_to_apic", "ioapic_write_indirect",
        "kvm_vcpu_kick", "kvm_vcpu_block", "kvm_vcpu_halt",
        "kvm_page_track_write", "mmu_try_to_unsync_pages",
        "kvm_mmu_notifier_invalidate_range_start", "kvm_unmap_gfn_range",
        "eventfd_signal", "irqfd_wakeup", "ioeventfd_write",
    ],
    Namespaces => [
        "copy_namespaces", "create_new_namespaces", "unshare_nsproxy_namespaces",
        "copy_pid_ns", "copy_net_ns", "copy_utsname", "copy_ipcs",
        "copy_mnt_ns", "create_user_ns", "switch_task_namespaces",
        "setns", "pidns_get", "mntns_install", "netns_get", "proc_ns_file",
        "alloc_pid", "free_pid", "pid_nr_ns",
    ],
    Cgroups => [
        "cgroup_attach_task", "cgroup_migrate_execute", "cgroup_procs_write",
        "cgroup_mkdir", "cgroup_rmdir", "css_set_move_task",
        "mem_cgroup_charge", "mem_cgroup_try_charge_pages", "try_charge_memcg",
        "mem_cgroup_uncharge", "cpu_cgroup_attach", "tg_set_cfs_bandwidth",
        "throttle_cfs_rq", "unthrottle_cfs_rq", "blkcg_print_stat",
        "cgroup_file_write", "cgroup_kn_lock_live",
    ],
    Signals => [
        "do_signal", "get_signal", "send_signal_locked", "__send_signal_locked",
        "do_send_sig_info", "kill_pid_info", "signal_wake_up_state",
        "restore_sigcontext", "setup_rt_frame", "ptrace_stop", "ptrace_notify",
        "ptrace_request", "ptrace_attach", "ptrace_check_attach",
    ],
    Time => [
        "hrtimer_start_range_ns", "hrtimer_interrupt", "hrtimer_wakeup",
        "do_nanosleep", "hrtimer_nanosleep", "ktime_get", "ktime_get_ts64",
        "clock_gettime", "posix_ktime_get_ts", "tick_sched_timer",
        "update_wall_time", "timekeeping_update", "read_tsc",
        "do_timer_settime", "timerfd_read", "timerfd_settime",
    ],
    Ipc => [
        "pipe_wait_readable", "do_pipe2", "unix_dgram_sendmsg",
        "unix_dgram_recvmsg", "shmem_file_setup", "ksys_shmget", "do_shmat",
        "mq_timedsend", "mq_timedreceive", "do_msgsnd", "do_msgrcv",
        "semctl_main", "do_semtimedop",
    ],
    Security => [
        "security_file_open", "security_file_permission", "security_mmap_file",
        "security_socket_sendmsg", "security_socket_recvmsg",
        "security_task_kill", "security_capable", "cap_capable",
        "seccomp_filter", "__seccomp_filter", "seccomp_run_filters",
        "apparmor_file_permission", "apparmor_socket_sendmsg",
        "audit_filter_syscall", "ns_capable",
    ],
];

/// A registry indexing [`KERNEL_FUNCTIONS`] by name and by subsystem.
///
/// # Example
///
/// ```
/// use oskern::kernel_fn::{KernelFunctionRegistry, KernelSubsystem};
///
/// let reg = KernelFunctionRegistry::standard();
/// assert!(reg.contains("tcp_sendmsg"));
/// assert_eq!(reg.get("tcp_sendmsg").unwrap().subsystem, KernelSubsystem::Network);
/// ```
#[derive(Debug, Clone)]
pub struct KernelFunctionRegistry {
    by_name: BTreeMap<&'static str, KernelFunction>,
}

impl KernelFunctionRegistry {
    /// Builds the standard registry from [`KERNEL_FUNCTIONS`].
    pub fn standard() -> Self {
        let mut by_name = BTreeMap::new();
        for f in KERNEL_FUNCTIONS {
            by_name.insert(f.name, f.clone());
        }
        KernelFunctionRegistry { by_name }
    }

    /// Number of functions known to the registry.
    pub fn len(&self) -> usize {
        self.by_name.len()
    }

    /// Whether the registry is empty (never true for the standard registry).
    pub fn is_empty(&self) -> bool {
        self.by_name.is_empty()
    }

    /// Whether a function with the given symbol name exists.
    pub fn contains(&self, name: &str) -> bool {
        self.by_name.contains_key(name)
    }

    /// Looks up a function by symbol name.
    pub fn get(&self, name: &str) -> Option<&KernelFunction> {
        self.by_name.get(name)
    }

    /// Iterates over all registered functions in name order.
    pub fn iter(&self) -> impl Iterator<Item = &KernelFunction> {
        self.by_name.values()
    }
}

impl Default for KernelFunctionRegistry {
    fn default() -> Self {
        Self::standard()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_has_no_duplicate_names() {
        let reg = KernelFunctionRegistry::standard();
        assert_eq!(reg.len(), KERNEL_FUNCTIONS.len(), "duplicate symbol names");
    }

    #[test]
    fn registry_is_reasonably_large() {
        let reg = KernelFunctionRegistry::standard();
        assert!(reg.len() >= 250, "only {} functions registered", reg.len());
    }

    #[test]
    fn every_subsystem_is_populated() {
        let reg = KernelFunctionRegistry::standard();
        for sub in KernelSubsystem::all() {
            assert!(
                reg.iter().any(|f| f.subsystem == *sub),
                "subsystem {sub:?} has no functions"
            );
        }
    }

    #[test]
    fn lookup_by_name_returns_right_subsystem() {
        let reg = KernelFunctionRegistry::standard();
        assert_eq!(
            reg.get("kvm_arch_vcpu_ioctl_run").unwrap().subsystem,
            KernelSubsystem::Kvm
        );
        assert_eq!(
            reg.get("tcp_sendmsg").unwrap().subsystem,
            KernelSubsystem::Network
        );
        assert!(reg.get("not_a_kernel_function").is_none());
    }

    #[test]
    fn labels_are_unique() {
        let labels: std::collections::BTreeSet<_> =
            KernelSubsystem::all().iter().map(|s| s.label()).collect();
        assert_eq!(labels.len(), KernelSubsystem::all().len());
    }
}
