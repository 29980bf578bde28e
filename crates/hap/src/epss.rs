//! A deterministic EPSS-style exploitability model for kernel functions.
//!
//! The real Exploit Prediction Scoring System assigns each CVE a
//! probability of exploitation in the wild. The paper maps those scores
//! onto the kernel functions its traces hit. Without access to the CVE
//! corpus we substitute a deterministic model: each subsystem gets a base
//! rate reflecting its historic share of exploitable kernel bugs, and each
//! function gets a stable pseudo-random modifier derived from its name, so
//! scores are reproducible and differentiate functions within a subsystem.

use oskern::kernel_fn::{KernelFunctionRegistry, KernelSubsystem};

/// The exploitability scoring model.
#[derive(Debug, Clone)]
pub struct EpssModel {
    registry: KernelFunctionRegistry,
}

impl Default for EpssModel {
    fn default() -> Self {
        EpssModel {
            registry: KernelFunctionRegistry::standard(),
        }
    }
}

impl EpssModel {
    /// Base exploitability rate of a subsystem (fraction of its functions'
    /// weight), loosely following the historical distribution of Linux
    /// kernel CVEs: networking and memory management dominate, followed by
    /// the VFS and KVM; timekeeping is quiet.
    pub fn subsystem_base_rate(subsystem: KernelSubsystem) -> f64 {
        match subsystem {
            KernelSubsystem::Network => 0.090,
            KernelSubsystem::MemoryManagement => 0.075,
            KernelSubsystem::Vfs => 0.060,
            KernelSubsystem::Kvm => 0.055,
            KernelSubsystem::Block => 0.040,
            KernelSubsystem::Ipc => 0.040,
            KernelSubsystem::Namespaces => 0.035,
            KernelSubsystem::Cgroups => 0.030,
            KernelSubsystem::Signals => 0.030,
            KernelSubsystem::Security => 0.025,
            KernelSubsystem::Scheduling => 0.020,
            KernelSubsystem::Entry => 0.015,
            KernelSubsystem::Time => 0.010,
        }
    }

    /// Exploitability score of one kernel function in `[0, 0.25]`.
    /// Unknown functions score zero.
    pub fn score(&self, function: &str) -> f64 {
        let Some(f) = self.registry.get(function) else {
            return 0.0;
        };
        let base = Self::subsystem_base_rate(f.subsystem);
        // Stable per-function modifier in [0.5, 1.5) from an FNV-1a hash.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in function.as_bytes() {
            h ^= u64::from(*b);
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
        let modifier = 0.5 + (h % 1_000) as f64 / 1_000.0;
        (base * modifier).min(0.25)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scores_are_deterministic_and_bounded() {
        let m = EpssModel::default();
        let a = m.score("tcp_sendmsg");
        let b = m.score("tcp_sendmsg");
        assert_eq!(a, b);
        assert!(a > 0.0 && a <= 0.25);
    }

    #[test]
    fn unknown_functions_score_zero() {
        assert_eq!(EpssModel::default().score("not_a_symbol"), 0.0);
    }

    #[test]
    fn network_functions_outscore_timekeeping_on_average() {
        let m = EpssModel::default();
        let reg = KernelFunctionRegistry::standard();
        let avg = |sub: KernelSubsystem| {
            let scores: Vec<f64> = reg
                .iter()
                .filter(|f| f.subsystem == sub)
                .map(|f| m.score(f.name))
                .collect();
            scores.iter().sum::<f64>() / scores.len() as f64
        };
        assert!(avg(KernelSubsystem::Network) > avg(KernelSubsystem::Time) * 3.0);
    }

    #[test]
    fn every_registered_function_has_a_positive_score() {
        let m = EpssModel::default();
        for f in KernelFunctionRegistry::standard().iter() {
            assert!(m.score(f.name) > 0.0, "{} scored zero", f.name);
        }
    }
}
