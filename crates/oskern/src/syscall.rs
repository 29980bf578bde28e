//! Syscall classes, dispatch costs, and the host kernel functions behind
//! each class.
//!
//! Guests do not issue individual Linux syscalls in the simulation;
//! instead, workloads issue [`SyscallClass`]es ("a read", "a send", "an
//! mmap") and each platform decides how the class reaches the host kernel:
//! directly (containers), through a VM exit (hypervisors), through the
//! Sentry (gVisor), or not at all (OSv resolves libc calls to function
//! calls inside the unikernel).

use serde::{Deserialize, Serialize};
use simcore::Nanos;

use crate::ftrace::FtraceSession;

/// A class of syscall as issued by a workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum SyscallClass {
    /// File read (`read`, `pread64`, `readv`).
    FileRead,
    /// File write (`write`, `pwrite64`, `writev`).
    FileWrite,
    /// File open/close/stat path operations.
    FileMeta,
    /// Async I/O submission and reaping (`io_submit`, `io_getevents`).
    AioSubmit,
    /// fsync / fdatasync.
    Fsync,
    /// Memory map / unmap / protect.
    MemoryMap,
    /// Page fault service (not strictly a syscall, but a kernel entry).
    PageFault,
    /// Socket send.
    NetSend,
    /// Socket receive.
    NetReceive,
    /// Socket setup (socket/bind/listen/accept/connect).
    NetSetup,
    /// Thread/process creation (`clone`, `fork`, `execve`).
    ProcessControl,
    /// Futex wait/wake (thread synchronization).
    Futex,
    /// Scheduling (yield, nanosleep, affinity).
    Schedule,
    /// Timers and clock reads.
    Time,
    /// Signal delivery and ptrace stops.
    Signal,
    /// Poll/epoll/select event waiting.
    Poll,
    /// `ioctl` on device files (including `/dev/kvm`).
    Ioctl,
}

impl SyscallClass {
    /// All syscall classes, in a stable order.
    pub fn all() -> &'static [SyscallClass] {
        use SyscallClass::*;
        &[
            FileRead,
            FileWrite,
            FileMeta,
            AioSubmit,
            Fsync,
            MemoryMap,
            PageFault,
            NetSend,
            NetReceive,
            NetSetup,
            ProcessControl,
            Futex,
            Schedule,
            Time,
            Signal,
            Poll,
            Ioctl,
        ]
    }

    /// Host kernel functions a *direct* (container/native) invocation of
    /// this class touches. Platforms with extra layers add their own
    /// functions on top of these.
    pub fn host_functions(self) -> &'static [&'static str] {
        use SyscallClass::*;
        match self {
            FileRead => &[
                "entry_SYSCALL_64",
                "do_syscall_64",
                "ksys_read",
                "vfs_read",
                "new_sync_read",
                "generic_file_read_iter",
                "filemap_read",
                "security_file_permission",
                "syscall_exit_to_user_mode",
            ],
            FileWrite => &[
                "entry_SYSCALL_64",
                "do_syscall_64",
                "ksys_write",
                "vfs_write",
                "new_sync_write",
                "generic_file_write_iter",
                "generic_perform_write",
                "security_file_permission",
                "syscall_exit_to_user_mode",
            ],
            FileMeta => &[
                "entry_SYSCALL_64",
                "do_syscall_64",
                "do_sys_openat2",
                "path_openat",
                "link_path_walk",
                "lookup_fast",
                "do_dentry_open",
                "security_file_open",
                "vfs_statx",
                "fput",
                "filp_close",
                "dput",
            ],
            AioSubmit => &[
                "entry_SYSCALL_64",
                "do_syscall_64",
                "io_submit_one",
                "aio_read",
                "aio_write",
                "io_getevents",
                "blkdev_direct_IO",
                "submit_bio",
                "blk_mq_submit_bio",
                "nvme_queue_rq",
                "nvme_complete_rq",
                "bio_endio",
            ],
            Fsync => &[
                "entry_SYSCALL_64",
                "do_syscall_64",
                "vfs_fsync_range",
                "submit_bio",
                "blk_mq_submit_bio",
                "nvme_queue_rq",
            ],
            MemoryMap => &[
                "entry_SYSCALL_64",
                "do_syscall_64",
                "vm_mmap_pgoff",
                "do_mmap",
                "mmap_region",
                "security_mmap_file",
                "do_munmap",
                "unmap_region",
                "find_vma",
                "vma_link",
            ],
            PageFault => &[
                "asm_exc_page_fault",
                "do_user_addr_fault",
                "handle_mm_fault",
                "__handle_mm_fault",
                "do_anonymous_page",
                "alloc_pages_vma",
                "__alloc_pages",
                "get_page_from_freelist",
                "lru_cache_add",
                "flush_tlb_mm_range",
            ],
            NetSend => &[
                "entry_SYSCALL_64",
                "do_syscall_64",
                "__sys_sendto",
                "sock_sendmsg",
                "inet_sendmsg",
                "tcp_sendmsg",
                "tcp_sendmsg_locked",
                "tcp_write_xmit",
                "tcp_transmit_skb",
                "ip_queue_xmit",
                "ip_output",
                "ip_finish_output2",
                "dev_queue_xmit",
                "dev_hard_start_xmit",
                "sk_stream_alloc_skb",
                "security_socket_sendmsg",
            ],
            NetReceive => &[
                "entry_SYSCALL_64",
                "do_syscall_64",
                "__sys_recvfrom",
                "sock_recvmsg",
                "inet_recvmsg",
                "tcp_recvmsg",
                "tcp_rcv_established",
                "tcp_ack",
                "ip_rcv",
                "ip_local_deliver",
                "__netif_receive_skb_core",
                "net_rx_action",
                "napi_gro_receive",
                "skb_copy_datagram_iter",
                "consume_skb",
                "security_socket_recvmsg",
            ],
            NetSetup => &[
                "entry_SYSCALL_64",
                "do_syscall_64",
                "sock_def_readable",
                "inet_sendmsg",
                "nf_hook_slow",
                "ipt_do_table",
            ],
            ProcessControl => &[
                "entry_SYSCALL_64",
                "do_syscall_64",
                "ret_from_fork",
                "copy_page_range",
                "wake_up_process",
                "alloc_pid",
                "cap_capable",
                "security_capable",
            ],
            Futex => &[
                "entry_SYSCALL_64",
                "do_syscall_64",
                "do_futex",
                "futex_wait",
                "futex_wake",
                "try_to_wake_up",
                "schedule",
                "__schedule",
            ],
            Schedule => &[
                "entry_SYSCALL_64",
                "do_syscall_64",
                "schedule",
                "__schedule",
                "pick_next_task_fair",
                "context_switch",
                "finish_task_switch",
                "update_curr",
                "update_load_avg",
                "do_nanosleep",
                "hrtimer_nanosleep",
            ],
            Time => &[
                "entry_SYSCALL_64",
                "do_syscall_64",
                "clock_gettime",
                "ktime_get",
                "ktime_get_ts64",
                "read_tsc",
                "hrtimer_start_range_ns",
            ],
            Signal => &[
                "entry_SYSCALL_64",
                "do_syscall_64",
                "do_signal",
                "get_signal",
                "send_signal_locked",
                "do_send_sig_info",
                "setup_rt_frame",
                "restore_sigcontext",
                "signal_wake_up_state",
            ],
            Poll => &[
                "entry_SYSCALL_64",
                "do_syscall_64",
                "ep_poll",
                "do_epoll_wait",
                "do_epoll_ctl",
                "eventfd_read",
                "eventfd_write",
                "sk_wait_data",
            ],
            Ioctl => &[
                "entry_SYSCALL_64",
                "do_syscall_64",
                "kvm_vcpu_ioctl",
                "kvm_vm_ioctl",
            ],
        }
    }

    /// A short stable identifier for reports.
    pub fn label(self) -> &'static str {
        use SyscallClass::*;
        match self {
            FileRead => "file_read",
            FileWrite => "file_write",
            FileMeta => "file_meta",
            AioSubmit => "aio_submit",
            Fsync => "fsync",
            MemoryMap => "mmap",
            PageFault => "page_fault",
            NetSend => "net_send",
            NetReceive => "net_receive",
            NetSetup => "net_setup",
            ProcessControl => "process_control",
            Futex => "futex",
            Schedule => "schedule",
            Time => "time",
            Signal => "signal",
            Poll => "poll",
            Ioctl => "ioctl",
        }
    }
}

/// Cost of dispatching one syscall of a class on a given entry path.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SyscallCost {
    /// Fixed kernel entry/exit cost (mode switch, register save/restore).
    pub entry_exit: Nanos,
    /// Work performed inside the kernel for this class, excluding any
    /// device time (device time is modeled by blocksim/netsim).
    pub kernel_work: Nanos,
}

impl SyscallCost {
    /// Total dispatch cost.
    pub fn total(&self) -> Nanos {
        self.entry_exit + self.kernel_work
    }
}

/// The host syscall table: per-class dispatch costs for a direct (native or
/// container) invocation, plus helpers to record the kernel functions each
/// dispatch touches.
#[derive(Debug, Clone)]
pub struct SyscallTable {
    base_entry_exit: Nanos,
}

impl SyscallTable {
    /// Creates a table with the default ~80 ns user→kernel→user round trip
    /// measured on modern x86 with mitigations enabled.
    pub fn native() -> Self {
        SyscallTable {
            base_entry_exit: Nanos::from_nanos(80),
        }
    }

    /// Cost of one invocation of the given class via this table.
    pub fn cost(&self, class: SyscallClass) -> SyscallCost {
        use SyscallClass::*;
        let kernel_work = match class {
            FileRead | FileWrite => Nanos::from_nanos(550),
            FileMeta => Nanos::from_nanos(1_200),
            AioSubmit => Nanos::from_nanos(900),
            Fsync => Nanos::from_micros(4),
            MemoryMap => Nanos::from_micros(2),
            PageFault => Nanos::from_nanos(1_100),
            NetSend | NetReceive => Nanos::from_nanos(850),
            NetSetup => Nanos::from_micros(8),
            ProcessControl => Nanos::from_micros(45),
            Futex => Nanos::from_nanos(400),
            Schedule => Nanos::from_nanos(1_300),
            Time => Nanos::from_nanos(25),
            Signal => Nanos::from_micros(2),
            Poll => Nanos::from_nanos(600),
            Ioctl => Nanos::from_nanos(700),
        };
        SyscallCost {
            entry_exit: self.base_entry_exit,
            kernel_work,
        }
    }

    /// Records the host kernel functions a direct dispatch of `class`
    /// touches into the tracing session, `count` times.
    pub fn trace_dispatch(&self, session: &mut FtraceSession, class: SyscallClass, count: u64) {
        session.invoke_all(class.host_functions(), count);
    }
}

impl Default for SyscallTable {
    fn default() -> Self {
        Self::native()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel_fn::KernelFunctionRegistry;

    #[test]
    fn every_class_maps_to_registered_functions() {
        let reg = KernelFunctionRegistry::standard();
        for class in SyscallClass::all() {
            let funcs = class.host_functions();
            assert!(!funcs.is_empty(), "{class:?} has no host functions");
            for f in funcs {
                assert!(reg.contains(f), "{class:?} references unknown function {f}");
            }
        }
    }

    #[test]
    fn labels_are_unique() {
        let labels: std::collections::BTreeSet<_> =
            SyscallClass::all().iter().map(|c| c.label()).collect();
        assert_eq!(labels.len(), SyscallClass::all().len());
    }

    #[test]
    fn costs_are_positive_and_class_dependent() {
        let table = SyscallTable::native();
        for class in SyscallClass::all() {
            let c = table.cost(*class);
            assert!(c.total() > Nanos::ZERO, "{class:?} has zero cost");
        }
        assert!(
            table.cost(SyscallClass::ProcessControl).total()
                > table.cost(SyscallClass::Time).total(),
            "process creation must dwarf clock reads"
        );
    }

    #[test]
    fn trace_dispatch_records_functions() {
        let table = SyscallTable::native();
        let mut session = FtraceSession::start();
        table.trace_dispatch(&mut session, SyscallClass::NetSend, 3);
        let trace = session.finish();
        assert_eq!(trace.count("tcp_sendmsg"), 3);
        assert!(trace.distinct_functions() >= 10);
    }
}
