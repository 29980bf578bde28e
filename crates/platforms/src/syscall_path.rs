//! How guest system calls reach (or avoid) the host kernel.
//!
//! This is the architectural property Section 2 of the paper spends most
//! of its time on, and the direct input to the HAP metric of Section 4:
//!
//! * containers dispatch syscalls straight into the shared host kernel;
//! * hypervisor guests run their own kernel — most syscalls never leave
//!   the guest, only I/O reaches the host via VM exits;
//! * gVisor intercepts syscalls in the Sentry (via ptrace or KVM), which
//!   itself issues a reduced, seccomp-filtered set of host syscalls and
//!   delegates file I/O to the Gofer;
//! * OSv turns syscalls into ordinary function calls inside the unikernel.

use serde::{Deserialize, Serialize};
use simcore::Nanos;

use oskern::ftrace::FtraceSession;
use oskern::syscall::{SyscallClass, SyscallTable};
use vmm::vcpu::VmExit;

/// The dispatch path of guest system calls.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum SyscallPath {
    /// Direct dispatch into the host kernel (native, Docker, LXC).
    Direct {
        /// Extra per-syscall cost from seccomp/apparmor filters attached by
        /// the container runtime (zero for native).
        filter_overhead: Nanos,
    },
    /// The syscall is handled by the guest kernel; only the fraction that
    /// requires device I/O causes a VM exit into the host.
    GuestKernel {
        /// Fraction of syscalls that end up exiting to the host
        /// (I/O-bound workloads are near the high end).
        exit_fraction: f64,
        /// Whether virtio notifications are serviced by vhost in the host
        /// kernel (QEMU) or by the VMM process (Firecracker, Cloud
        /// Hypervisor); the latter adds a userspace bounce.
        vmm_serviced: bool,
    },
    /// gVisor: every syscall is intercepted and redirected to the Sentry.
    SentryIntercept {
        /// Cost of stopping/redirecting one syscall (ptrace is expensive,
        /// KVM-assisted switching is cheaper).
        intercept_cost: Nanos,
        /// Whether file-I/O syscalls are forwarded to the Gofer process.
        gofer_for_io: bool,
    },
    /// OSv: libc calls resolve to function calls in the unikernel; only
    /// virtio I/O reaches the host through the hypervisor.
    OsvFunctionCall {
        /// Fraction of operations that still require a host-visible I/O
        /// exit.
        exit_fraction: f64,
    },
}

impl SyscallPath {
    /// Average cost of one guest "syscall" of the given class, including
    /// whatever part of it reaches the host.
    pub fn dispatch_cost(&self, class: SyscallClass) -> Nanos {
        let table = SyscallTable::native();
        let direct = table.cost(class).total();
        match *self {
            SyscallPath::Direct { filter_overhead } => direct + filter_overhead,
            SyscallPath::GuestKernel {
                exit_fraction,
                vmm_serviced,
            } => {
                // Guest kernel work costs about the same as host kernel
                // work; a fraction of calls additionally pays for an exit.
                let exit = if vmm_serviced {
                    VmExit::UserspaceIo.cost()
                } else {
                    VmExit::InKernelEmulation.cost()
                };
                direct + exit.scale(exit_fraction)
            }
            SyscallPath::SentryIntercept {
                intercept_cost,
                gofer_for_io,
            } => {
                let gofer = if gofer_for_io && is_file_io(class) {
                    Nanos::from_micros(70)
                } else {
                    Nanos::ZERO
                };
                direct + intercept_cost + gofer
            }
            SyscallPath::OsvFunctionCall { exit_fraction } => {
                // No mode switch: the "syscall" is a function call. Only
                // the I/O fraction pays a virtio exit.
                let local = Nanos::from_nanos(40);
                local + VmExit::UserspaceIo.cost().scale(exit_fraction)
            }
        }
    }

    /// Records the host kernel functions `count` dispatches of `class`
    /// cause, honouring the architecture (guest-kernel syscalls that never
    /// exit touch nothing on the host).
    pub fn trace_dispatch(&self, session: &mut FtraceSession, class: SyscallClass, count: u64) {
        let table = SyscallTable::native();
        match *self {
            SyscallPath::Direct { .. } => {
                table.trace_dispatch(session, class, count);
            }
            SyscallPath::GuestKernel {
                exit_fraction,
                vmm_serviced,
            } => {
                let exits = (count as f64 * exit_fraction).round() as u64;
                if exits > 0 {
                    // Page faults on not-yet-mapped guest memory surface as
                    // EPT violations; everything else that leaves the guest
                    // is a device notification bounced to the VMM.
                    if class == SyscallClass::PageFault {
                        VmExit::EptViolation.trace(session, exits);
                    } else {
                        VmExit::UserspaceIo.trace(session, exits);
                        if !vmm_serviced {
                            session.invoke_all(&["vhost_worker", "vhost_signal"], exits);
                        }
                    }
                    // Only I/O classes cause the VMM process to re-enter the
                    // host kernel with real syscalls on the guest's behalf;
                    // CPU/scheduling/memory work stays inside the guest.
                    if is_host_visible_io(class) {
                        table.trace_dispatch(session, class, exits);
                    }
                }
            }
            SyscallPath::SentryIntercept { gofer_for_io, .. } => {
                // The interception itself (ptrace stop or KVM exit).
                session.invoke_all(
                    &[
                        "ptrace_stop",
                        "ptrace_notify",
                        "ptrace_check_attach",
                        "signal_wake_up_state",
                    ],
                    count,
                );
                // The Sentry re-issues a reduced syscall set through its
                // seccomp filters.
                session.invoke_all(
                    &["seccomp_filter", "__seccomp_filter", "seccomp_run_filters"],
                    count,
                );
                table.trace_dispatch(session, class, count);
                if gofer_for_io && is_file_io(class) {
                    session.invoke_all(
                        &[
                            "unix_stream_sendmsg",
                            "unix_stream_recvmsg",
                            "p9_client_rpc",
                        ],
                        count,
                    );
                }
            }
            SyscallPath::OsvFunctionCall { exit_fraction } => {
                let exits = (count as f64 * exit_fraction).round() as u64;
                if exits > 0 {
                    VmExit::UserspaceIo.trace(session, exits);
                    if is_host_visible_io(class) {
                        table.trace_dispatch(session, class, exits);
                    }
                }
            }
        }
    }
}

/// Classes whose guest-side activity causes the VMM process to issue real
/// host syscalls (device I/O); pure CPU/memory/scheduling classes do not.
fn is_host_visible_io(class: SyscallClass) -> bool {
    is_file_io(class)
        || matches!(
            class,
            SyscallClass::NetSend | SyscallClass::NetReceive | SyscallClass::NetSetup
        )
}

fn is_file_io(class: SyscallClass) -> bool {
    matches!(
        class,
        SyscallClass::FileRead
            | SyscallClass::FileWrite
            | SyscallClass::FileMeta
            | SyscallClass::AioSubmit
            | SyscallClass::Fsync
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn direct() -> SyscallPath {
        SyscallPath::Direct {
            filter_overhead: Nanos::ZERO,
        }
    }

    fn gvisor_ptrace() -> SyscallPath {
        SyscallPath::SentryIntercept {
            intercept_cost: Nanos::from_micros(9),
            gofer_for_io: true,
        }
    }

    #[test]
    fn osv_syscalls_are_cheapest_for_non_io() {
        let osv = SyscallPath::OsvFunctionCall { exit_fraction: 0.0 };
        assert!(
            osv.dispatch_cost(SyscallClass::Futex) < direct().dispatch_cost(SyscallClass::Futex)
        );
    }

    #[test]
    fn sentry_interception_is_the_most_expensive_file_io() {
        let d = direct().dispatch_cost(SyscallClass::FileRead);
        let g = gvisor_ptrace().dispatch_cost(SyscallClass::FileRead);
        assert!(g > d * 5, "gvisor {g} vs direct {d}");
    }

    #[test]
    fn guest_kernel_exit_fraction_scales_cost() {
        let rarely = SyscallPath::GuestKernel {
            exit_fraction: 0.02,
            vmm_serviced: false,
        };
        let often = SyscallPath::GuestKernel {
            exit_fraction: 0.5,
            vmm_serviced: false,
        };
        assert!(
            often.dispatch_cost(SyscallClass::NetSend)
                > rarely.dispatch_cost(SyscallClass::NetSend)
        );
    }

    #[test]
    fn trace_direct_hits_many_functions_guest_kernel_hits_few() {
        let mut direct_session = FtraceSession::start();
        direct().trace_dispatch(&mut direct_session, SyscallClass::Futex, 100);
        let mut guest_session = FtraceSession::start();
        SyscallPath::GuestKernel {
            exit_fraction: 0.0,
            vmm_serviced: false,
        }
        .trace_dispatch(&mut guest_session, SyscallClass::Futex, 100);
        assert!(direct_session.trace().distinct_functions() > 5);
        assert_eq!(guest_session.trace().distinct_functions(), 0);
    }

    #[test]
    fn gvisor_traces_include_ptrace_and_seccomp() {
        let mut session = FtraceSession::start();
        gvisor_ptrace().trace_dispatch(&mut session, SyscallClass::FileRead, 10);
        let trace = session.finish();
        assert!(trace.touched("ptrace_stop"));
        assert!(trace.touched("seccomp_run_filters"));
        assert!(trace.touched("p9_client_rpc"));
    }
}
