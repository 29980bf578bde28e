//! Address-translation modes and their page-walk costs.
//!
//! The paper singles out two virtualization-induced memory effects:
//!
//! * hypervisors pay for *nested* page walks (guest-virtual → guest-physical
//!   → host-physical), which roughly squares the number of memory
//!   references per walk;
//! * Firecracker and Cloud Hypervisor additionally route guest-physical
//!   address handling through the `vm-memory` Rust crate, which the paper
//!   identifies as the likely cause of their elevated access latencies
//!   (Finding 4).

use serde::{Deserialize, Serialize};
use simcore::Nanos;

use crate::tlb::{PageSize, TlbConfig};

/// How guest addresses reach host physical memory.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum PagingMode {
    /// Native translation: one 4-level walk on a TLB miss.
    Native,
    /// Hardware nested paging (EPT/NPT): each guest walk level itself
    /// requires a nested walk, plus an optional software overhead applied
    /// per TLB-missing access by the VMM's memory layer (`vm-memory`).
    Nested {
        /// Additional per-miss software overhead in nanoseconds
        /// contributed by the VMM's guest-memory abstraction.
        vmm_software_overhead: Nanos,
    },
    /// Direct mapping between guest and host (QEMU NVDIMM / DAX-style):
    /// behaves like native translation; used by Kata to avoid the
    /// virtualization penalty (Finding 3).
    DirectMap,
}

impl PagingMode {
    /// Nested paging without extra VMM software overhead (QEMU/KVM).
    pub fn nested_hardware() -> Self {
        PagingMode::Nested {
            vmm_software_overhead: Nanos::ZERO,
        }
    }

    /// Nested paging with a `vm-memory`-style software layer (Firecracker,
    /// Cloud Hypervisor). The per-miss overhead is the calibration knob.
    pub fn nested_with_vmm_overhead(overhead: Nanos) -> Self {
        PagingMode::Nested {
            vmm_software_overhead: overhead,
        }
    }

    /// Latency of servicing one TLB miss under this mode.
    pub fn walk_latency(&self, tlb: &TlbConfig, page: PageSize) -> Nanos {
        let levels = TlbConfig::walk_levels(page);
        match *self {
            PagingMode::Native | PagingMode::DirectMap => tlb.native_walk_latency(page),
            PagingMode::Nested {
                vmm_software_overhead,
            } => {
                // A two-dimensional walk references up to
                // levels * (levels + 1) + levels entries, but the paging
                // structure caches absorb most of them; the measured
                // penalty of an EPT walk over a native walk is modest, so
                // the model charges 1.25x the native walk plus whatever
                // software overhead the VMM's guest-memory layer adds.
                let hardware = tlb.walk_step_latency * levels * 5 / 4;
                hardware + vmm_software_overhead
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_walks_cost_more_than_native() {
        let tlb = TlbConfig::epyc2();
        let native = PagingMode::Native.walk_latency(&tlb, PageSize::Small4K);
        let nested = PagingMode::nested_hardware().walk_latency(&tlb, PageSize::Small4K);
        assert!(nested > native, "nested {nested} vs native {native}");
    }

    #[test]
    fn vmm_software_overhead_adds_on_top() {
        let tlb = TlbConfig::epyc2();
        let plain = PagingMode::nested_hardware().walk_latency(&tlb, PageSize::Small4K);
        let fc = PagingMode::nested_with_vmm_overhead(Nanos::from_nanos(60))
            .walk_latency(&tlb, PageSize::Small4K);
        assert_eq!(fc, plain + Nanos::from_nanos(60));
    }

    #[test]
    fn direct_map_behaves_like_native() {
        let tlb = TlbConfig::epyc2();
        assert_eq!(
            PagingMode::DirectMap.walk_latency(&tlb, PageSize::Huge2M),
            PagingMode::Native.walk_latency(&tlb, PageSize::Huge2M)
        );
    }
}
