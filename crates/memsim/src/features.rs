//! Direct-mapping and page-sharing features.
//!
//! Finding 3 of the paper: Kata containers avoid the hypervisor memory
//! penalty via the QEMU NVDIMM feature (a memory-mapped virtual device
//! that maps directly between VM and host) and can further benefit from
//! Kernel Samepage Merging (KSM). Both features improve performance but
//! weaken the isolation boundary, which the HAP/security discussion picks
//! up again.

use serde::{Deserialize, Serialize};

use crate::paging::PagingMode;

/// Optional memory features a hypervisor-based platform may enable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct DirectMapFeatures {
    /// QEMU NVDIMM / DAX-style direct mapping of guest memory.
    pub nvdimm_direct_map: bool,
    /// Whether the guest supports huge pages (Kata does not, per the
    /// paper).
    pub huge_pages_supported: bool,
}

impl DirectMapFeatures {
    /// No special features (plain hypervisor guest).
    pub fn none() -> Self {
        DirectMapFeatures {
            nvdimm_direct_map: false,
            huge_pages_supported: true,
        }
    }

    /// The Kata containers configuration: NVDIMM direct map, but no
    /// huge-page support.
    pub fn kata() -> Self {
        DirectMapFeatures {
            nvdimm_direct_map: true,
            huge_pages_supported: false,
        }
    }

    /// Applies the features to a paging mode: the NVDIMM direct map
    /// replaces nested paging with a direct mapping.
    pub fn effective_paging(&self, base: PagingMode) -> PagingMode {
        if self.nvdimm_direct_map {
            PagingMode::DirectMap
        } else {
            base
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tlb::{PageSize, TlbConfig};

    #[test]
    fn nvdimm_bypasses_nested_paging() {
        let kata = DirectMapFeatures::kata();
        let effective = kata.effective_paging(PagingMode::nested_hardware());
        assert_eq!(effective, PagingMode::DirectMap);
        let tlb = TlbConfig::epyc2();
        assert_eq!(
            effective.walk_latency(&tlb, PageSize::Small4K),
            PagingMode::Native.walk_latency(&tlb, PageSize::Small4K)
        );
    }

    #[test]
    fn plain_guest_keeps_nested_paging() {
        let none = DirectMapFeatures::none();
        assert!(matches!(
            none.effective_paging(PagingMode::nested_hardware()),
            PagingMode::Nested { .. }
        ));
    }
}
