//! An `ftrace`-like host kernel function tracer.
//!
//! The paper obtains its HAP numbers by running `trace-cmd` (the ftrace
//! front-end) on the host while each platform executes a workload suite,
//! then counting which host kernel functions were invoked. In the
//! simulation every component that would cause host kernel work reports the
//! functions it touches to an [`FtraceSession`]; the resulting
//! [`KernelTrace`] is what the `hap` crate scores.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use crate::kernel_fn::{KernelFunctionRegistry, KernelSubsystem};

/// A recorded trace: per-function invocation counts.
///
/// # Example
///
/// ```
/// use oskern::ftrace::KernelTrace;
///
/// let mut t = KernelTrace::new();
/// t.hit("tcp_sendmsg", 10);
/// t.hit("tcp_sendmsg", 5);
/// t.hit("schedule", 1);
/// assert_eq!(t.distinct_functions(), 2);
/// assert_eq!(t.total_invocations(), 16);
/// ```
#[derive(Debug, Default, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct KernelTrace {
    counts: BTreeMap<String, u64>,
}

impl KernelTrace {
    /// Creates an empty trace.
    pub fn new() -> Self {
        KernelTrace::default()
    }

    /// Records `count` invocations of `function`.
    pub fn hit(&mut self, function: &str, count: u64) {
        if count == 0 {
            return;
        }
        *self.counts.entry(function.to_string()).or_insert(0) += count;
    }

    /// Merges another trace into this one.
    pub fn merge(&mut self, other: &KernelTrace) {
        for (name, count) in &other.counts {
            *self.counts.entry(name.clone()).or_insert(0) += count;
        }
    }

    /// Number of distinct functions hit — the core HAP quantity.
    pub fn distinct_functions(&self) -> usize {
        self.counts.len()
    }

    /// Total number of invocations across all functions.
    pub fn total_invocations(&self) -> u64 {
        self.counts.values().sum()
    }

    /// Invocation count for one function (0 if never hit).
    pub fn count(&self, function: &str) -> u64 {
        self.counts.get(function).copied().unwrap_or(0)
    }

    /// Whether the given function was hit at least once.
    pub fn touched(&self, function: &str) -> bool {
        self.count(function) > 0
    }

    /// Iterates over `(function, count)` pairs in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counts.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// Splits the distinct-function count per kernel subsystem using the
    /// given registry; unknown symbols are ignored.
    pub fn distinct_by_subsystem(
        &self,
        registry: &KernelFunctionRegistry,
    ) -> BTreeMap<KernelSubsystem, usize> {
        let mut out = BTreeMap::new();
        for name in self.counts.keys() {
            if let Some(f) = registry.get(name) {
                *out.entry(f.subsystem).or_insert(0) += 1;
            }
        }
        out
    }
}

/// A live tracing session components report into.
///
/// A session validates function names against the registry (in debug
/// builds) so platform models cannot silently typo a symbol and thereby
/// underreport their attack profile.
#[derive(Debug)]
pub struct FtraceSession {
    registry: KernelFunctionRegistry,
    trace: KernelTrace,
}

impl FtraceSession {
    /// Starts a new tracing session against the standard registry.
    pub fn start() -> Self {
        FtraceSession {
            registry: KernelFunctionRegistry::standard(),
            trace: KernelTrace::new(),
        }
    }

    /// Records `count` invocations of `function`.
    ///
    /// # Panics
    ///
    /// In debug builds, panics if `function` is not in the standard
    /// registry; this catches typos in platform models early.
    pub fn invoke(&mut self, function: &str, count: u64) {
        debug_assert!(
            self.registry.contains(function),
            "unknown kernel function reported to ftrace: {function}"
        );
        self.trace.hit(function, count);
    }

    /// Records one invocation of each function in the slice.
    pub fn invoke_all(&mut self, functions: &[&str], count: u64) {
        for f in functions {
            self.invoke(f, count);
        }
    }

    /// Stops the session and returns the collected trace.
    pub fn finish(self) -> KernelTrace {
        self.trace
    }

    /// Read-only view of the trace collected so far.
    pub fn trace(&self) -> &KernelTrace {
        &self.trace
    }
}

impl Default for FtraceSession {
    fn default() -> Self {
        Self::start()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hits_accumulate_and_merge() {
        let mut a = KernelTrace::new();
        a.hit("schedule", 3);
        a.hit("vfs_read", 2);
        let mut b = KernelTrace::new();
        b.hit("schedule", 1);
        b.hit("tcp_sendmsg", 7);
        a.merge(&b);
        assert_eq!(a.count("schedule"), 4);
        assert_eq!(a.count("tcp_sendmsg"), 7);
        assert_eq!(a.distinct_functions(), 3);
        assert_eq!(a.total_invocations(), 13);
    }

    #[test]
    fn zero_count_hits_are_ignored() {
        let mut t = KernelTrace::new();
        t.hit("schedule", 0);
        assert_eq!(t.distinct_functions(), 0);
        assert!(!t.touched("schedule"));
    }

    #[test]
    fn session_collects_and_finishes() {
        let mut s = FtraceSession::start();
        s.invoke("kvm_vcpu_ioctl", 100);
        s.invoke_all(&["tcp_sendmsg", "tcp_recvmsg"], 5);
        let trace = s.finish();
        assert_eq!(trace.count("kvm_vcpu_ioctl"), 100);
        assert_eq!(trace.distinct_functions(), 3);
    }

    #[test]
    #[should_panic(expected = "unknown kernel function")]
    fn unknown_function_panics_in_debug() {
        let mut s = FtraceSession::start();
        s.invoke("totally_made_up_symbol", 1);
    }

    #[test]
    fn subsystem_breakdown_uses_registry() {
        let mut s = FtraceSession::start();
        s.invoke("tcp_sendmsg", 1);
        s.invoke("tcp_recvmsg", 1);
        s.invoke("schedule", 1);
        let trace = s.finish();
        let reg = KernelFunctionRegistry::standard();
        let by_sub = trace.distinct_by_subsystem(&reg);
        assert_eq!(by_sub.get(&KernelSubsystem::Network), Some(&2));
        assert_eq!(by_sub.get(&KernelSubsystem::Scheduling), Some(&1));
    }
}
