//! Thread scheduling models.
//!
//! The paper attributes two macro-level effects to scheduling:
//!
//! * The ffmpeg re-encode (Fig. 5) is slower on platforms that implement a
//!   *custom* thread scheduler (OSv) instead of reusing a mature one.
//! * The MySQL OLTP curve (Fig. 17) peaks around 50 threads on the
//!   isolation platforms, around 110 threads natively, and is flat-and-low
//!   on the two platforms with custom thread implementations (OSv, gVisor).
//!
//! Scalability is modeled with the Universal Scalability Law (USL):
//! `C(n) = n / (1 + α(n−1) + βn(n−1))` where `α` captures contention
//! (serialization) and `β` captures coherency (crosstalk) costs. The peak
//! concurrency is `√((1−α)/β)`, which is how the calibration targets the
//! paper's observed 50-vs-110-thread peaks.

use serde::{Deserialize, Serialize};
use simcore::Nanos;

/// Parameters of the Universal Scalability Law.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct UslParams {
    /// Contention coefficient (fraction of work that is serialized).
    pub alpha: f64,
    /// Coherency coefficient (pairwise crosstalk cost).
    pub beta: f64,
}

impl UslParams {
    /// Relative capacity at `n` concurrent threads (1.0 at `n == 1`).
    pub fn capacity(&self, n: usize) -> f64 {
        let n = n.max(1) as f64;
        n / (1.0 + self.alpha * (n - 1.0) + self.beta * n * (n - 1.0))
    }

    /// The concurrency level at which capacity peaks.
    pub fn peak_concurrency(&self) -> f64 {
        if self.beta <= 0.0 {
            f64::INFINITY
        } else {
            ((1.0 - self.alpha) / self.beta).sqrt()
        }
    }

    /// Combines workload-intrinsic and scheduler-induced parameters by
    /// adding the contention and coherency terms.
    pub fn combine(&self, other: &UslParams) -> UslParams {
        UslParams {
            alpha: (self.alpha + other.alpha).clamp(0.0, 0.99),
            beta: self.beta + other.beta,
        }
    }
}

/// The scheduling model exposed by a platform.
pub trait ThreadScheduler: std::fmt::Debug {
    /// Human-readable name of the scheduler.
    fn name(&self) -> &'static str;

    /// Cost of one context switch (direct cost, excluding cache pollution).
    fn context_switch(&self) -> Nanos;

    /// Parallel efficiency of a CPU-bound, embarrassingly parallel job at
    /// `threads` threads on `cores` cores (1.0 = perfect scaling up to the
    /// core count).
    fn parallel_efficiency(&self, threads: usize, cores: usize) -> f64;

    /// Extra multiplicative penalty applied to workloads dominated by wide
    /// SIMD kernels and frequent thread hand-offs (the ffmpeg case).
    fn simd_heavy_penalty(&self) -> f64;

    /// Scheduler-induced USL parameters added on top of a lock-heavy
    /// workload's intrinsic contention (the OLTP case).
    fn contention_params(&self) -> UslParams;
}

/// A concrete scheduler model selected by a platform.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SchedulerModel {
    /// The host CFS scheduler used directly (native, containers) or inside
    /// a mature guest kernel (hypervisors, Kata).
    Cfs,
    /// CFS inside a guest with vCPU scheduling on top (double scheduling).
    NestedCfs,
    /// OSv's custom scheduler.
    Osv,
    /// gVisor's Sentry task scheduler on top of host threads.
    Sentry,
}

impl SchedulerModel {
    /// Instantiates the scheduler model.
    pub fn build(self) -> Box<dyn ThreadScheduler + Send + Sync> {
        match self {
            SchedulerModel::Cfs => Box::new(CfsScheduler::host()),
            SchedulerModel::NestedCfs => Box::new(CfsScheduler::nested()),
            SchedulerModel::Osv => Box::new(OsvScheduler::default()),
            SchedulerModel::Sentry => Box::new(SentryScheduler::default()),
        }
    }
}

/// The Linux Completely Fair Scheduler.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CfsScheduler {
    nested: bool,
}

impl CfsScheduler {
    /// CFS running directly on the host (native and container platforms).
    pub fn host() -> Self {
        CfsScheduler { nested: false }
    }

    /// CFS inside a guest kernel whose vCPUs are themselves scheduled by
    /// the host (all hypervisor-based platforms).
    pub fn nested() -> Self {
        CfsScheduler { nested: true }
    }
}

impl ThreadScheduler for CfsScheduler {
    fn name(&self) -> &'static str {
        if self.nested {
            "cfs-nested"
        } else {
            "cfs"
        }
    }

    fn context_switch(&self) -> Nanos {
        if self.nested {
            // vCPU preemption occasionally turns a context switch into a
            // VM exit, raising the average cost.
            Nanos::from_micros(2)
        } else {
            Nanos::from_nanos(1_300)
        }
    }

    fn parallel_efficiency(&self, threads: usize, cores: usize) -> f64 {
        let threads = threads.max(1) as f64;
        let cores = cores.max(1) as f64;
        let oversubscription = (threads / cores).max(1.0);
        let base = 1.0 / oversubscription;
        // Mild loss per extra thread from migrations and load balancing.
        let balance_loss = 1.0 - 0.0015 * (threads - 1.0).min(64.0);
        let nested_loss = if self.nested { 0.985 } else { 1.0 };
        (base * balance_loss * nested_loss).clamp(0.05, 1.0)
    }

    fn simd_heavy_penalty(&self) -> f64 {
        if self.nested {
            1.02
        } else {
            1.0
        }
    }

    fn contention_params(&self) -> UslParams {
        if self.nested {
            UslParams {
                alpha: 0.010,
                beta: 1.2e-4,
            }
        } else {
            UslParams {
                alpha: 0.004,
                beta: 2.0e-5,
            }
        }
    }
}

/// OSv's custom thread scheduler.
///
/// OSv implements its own lock-free scheduler rather than reusing a mature
/// one. The paper suspects it (plus complex SIMD execution on experimental
/// platforms) as the cause of the large ffmpeg slowdown and the flat,
/// low MySQL curve.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct OsvScheduler {
    /// Multiplicative penalty for SIMD/thread-handoff heavy jobs.
    pub simd_penalty: f64,
}

impl Default for OsvScheduler {
    fn default() -> Self {
        OsvScheduler { simd_penalty: 1.55 }
    }
}

impl ThreadScheduler for OsvScheduler {
    fn name(&self) -> &'static str {
        "osv-custom"
    }

    fn context_switch(&self) -> Nanos {
        // Cheap in isolation (no mode switch) but the scheduler makes poor
        // placement decisions under load; the direct cost stays low.
        Nanos::from_nanos(900)
    }

    fn parallel_efficiency(&self, threads: usize, cores: usize) -> f64 {
        let threads_f = threads.max(1) as f64;
        let cores_f = cores.max(1) as f64;
        let oversubscription = (threads_f / cores_f).max(1.0);
        // Placement and wake-up inefficiencies grow with thread count much
        // faster than under CFS.
        let loss = 1.0 - 0.018 * (threads_f - 1.0).min(40.0);
        (loss / oversubscription).clamp(0.05, 1.0)
    }

    fn simd_heavy_penalty(&self) -> f64 {
        self.simd_penalty
    }

    fn contention_params(&self) -> UslParams {
        UslParams {
            alpha: 0.30,
            beta: 6.0e-4,
        }
    }
}

/// gVisor's Sentry task scheduler.
///
/// The Sentry multiplexes guest tasks onto host threads itself; like OSv it
/// does not reuse a mature kernel scheduler, and the paper groups the two
/// together for the OLTP results.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SentryScheduler {
    /// Extra per-switch cost from the Sentry's user-space task switching.
    pub switch_overhead: Nanos,
}

impl Default for SentryScheduler {
    fn default() -> Self {
        SentryScheduler {
            switch_overhead: Nanos::from_micros(3),
        }
    }
}

impl ThreadScheduler for SentryScheduler {
    fn name(&self) -> &'static str {
        "sentry"
    }

    fn context_switch(&self) -> Nanos {
        Nanos::from_nanos(1_300) + self.switch_overhead
    }

    fn parallel_efficiency(&self, threads: usize, cores: usize) -> f64 {
        let threads_f = threads.max(1) as f64;
        let cores_f = cores.max(1) as f64;
        let oversubscription = (threads_f / cores_f).max(1.0);
        let loss = 1.0 - 0.010 * (threads_f - 1.0).min(48.0);
        (loss / oversubscription).clamp(0.05, 1.0)
    }

    fn simd_heavy_penalty(&self) -> f64 {
        // Guest SIMD executes natively under both ptrace and KVM modes;
        // only the thread-handoff portion of the job is penalized, which
        // keeps gVisor's ffmpeg time near the native group (Fig. 5).
        1.05
    }

    fn contention_params(&self) -> UslParams {
        UslParams {
            alpha: 0.24,
            beta: 5.0e-4,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn usl_has_a_peak_when_beta_positive() {
        let p = UslParams {
            alpha: 0.03,
            beta: 4.0e-4,
        };
        let peak = p.peak_concurrency();
        assert!(peak > 40.0 && peak < 60.0, "peak {peak}");
        assert!(p.capacity(50) > p.capacity(10));
        assert!(p.capacity(50) > p.capacity(160));
    }

    #[test]
    fn usl_without_coherency_never_declines() {
        let p = UslParams {
            alpha: 0.05,
            beta: 0.0,
        };
        assert!(p.peak_concurrency().is_infinite());
        assert!(p.capacity(200) >= p.capacity(100));
    }

    #[test]
    fn combine_adds_terms() {
        let a = UslParams {
            alpha: 0.1,
            beta: 1e-4,
        };
        let b = UslParams {
            alpha: 0.2,
            beta: 2e-4,
        };
        let c = a.combine(&b);
        assert!((c.alpha - 0.3).abs() < 1e-12);
        assert!((c.beta - 3e-4).abs() < 1e-12);
    }

    #[test]
    fn cfs_scales_better_than_osv() {
        let cfs = CfsScheduler::host();
        let osv = OsvScheduler::default();
        assert!(cfs.parallel_efficiency(16, 64) > osv.parallel_efficiency(16, 64));
        assert!(osv.simd_heavy_penalty() > 1.3);
        assert_eq!(cfs.simd_heavy_penalty(), 1.0);
    }

    #[test]
    fn nested_cfs_costs_more_than_host_cfs() {
        let host = CfsScheduler::host();
        let nested = CfsScheduler::nested();
        assert!(nested.context_switch() > host.context_switch());
        assert!(nested.contention_params().beta > host.contention_params().beta);
    }

    #[test]
    fn custom_schedulers_have_high_contention() {
        for model in [SchedulerModel::Osv, SchedulerModel::Sentry] {
            let s = model.build();
            assert!(
                s.contention_params().alpha > 0.2,
                "{} alpha too low",
                s.name()
            );
        }
    }

    #[test]
    fn efficiency_bounded_between_zero_and_one() {
        for model in [
            SchedulerModel::Cfs,
            SchedulerModel::NestedCfs,
            SchedulerModel::Osv,
            SchedulerModel::Sentry,
        ] {
            let s = model.build();
            for threads in [1, 16, 64, 160, 1024] {
                let e = s.parallel_efficiency(threads, 64);
                assert!((0.0..=1.0).contains(&e), "{} at {threads}: {e}", s.name());
            }
        }
    }

    #[test]
    fn oversubscription_reduces_efficiency() {
        let cfs = CfsScheduler::host();
        assert!(cfs.parallel_efficiency(128, 64) < cfs.parallel_efficiency(64, 64));
    }
}
