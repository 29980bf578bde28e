//! Deterministic observability: per-request trace spans, windowed
//! time-series metrics and event-core counters, driven entirely by
//! virtual time.
//!
//! Every subsystem in the workspace reduces a run to end-of-run summary
//! statistics; transient pathologies (a resharding redistribution spike,
//! a cache-miss storm) are invisible between t=0 and the final fold.
//! This module is the in-flight view, built under the same contract as
//! everything else in `simcore`: **bit-identical output for any executor
//! worker count**. Three properties carry that:
//!
//! * **Stateless sampling** — whether request `i` is traced is a pure
//!   function of `(sample_seed, i)` via [`crate::rng::mix`], consuming
//!   no draw from any simulation stream. Tracing on or off, sampled or
//!   not, the arrival/service/key streams see exactly the same draw
//!   sequence, so enabling a trace can never perturb a result.
//! * **Virtual-time windows** — the time-series buckets are fixed-width
//!   windows of *virtual* time, folded in the deterministic handler
//!   execution order. No wall clock exists anywhere in this module.
//! * **Canonical export order** — spans are exported sorted by
//!   `(start, end, lane, kind, request)` and lanes in registration
//!   order, so the serialized artifacts are byte-stable.
//!
//! Two artifacts come out of a [`Recorder`]:
//!
//! * [`Recorder::chrome_trace_json`] — Chrome trace-event JSON
//!   (`traceEvents`), loadable in `chrome://tracing` or Perfetto:
//!   duration (`ph: "X"`) events for waits and service phases, instant
//!   (`ph: "i"`) events for point occurrences, one virtual thread per
//!   registered lane.
//! * [`Recorder::timeline_json`] — an `isolation-bench/obs/v1` timeline:
//!   per-lane bucket series (arrivals, completions, drops, cache
//!   hits/misses, peak queue depth and in-service slots, achieved
//!   throughput) plus the span census and, optionally, the event-core
//!   counter profile of the run.

use crate::error::SimError;
use crate::events::CoreCounters;
use crate::rng;
use crate::time::Nanos;

/// What one trace span describes — the span taxonomy.
///
/// The discriminant order is the canonical fold/export order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum SpanKind {
    /// Bounded-admission-queue wait: arrival to slot dispatch.
    AdmissionWait,
    /// Slot occupancy: dispatch to completion (service time).
    SlotService,
    /// One middleware stage's request-path (in-phase) cost.
    StageIn,
    /// One middleware stage's response-path (out-phase) cost.
    StageOut,
    /// A stage cache access that hit (instant).
    CacheHit,
    /// A stage cache access that missed (instant).
    CacheMiss,
    /// A stage short-circuited the request (instant).
    ShortCircuit,
    /// A cluster arrival was routed to its shard (instant).
    Route,
    /// A rebalance moved the request off its pinned-phase shard (instant).
    HandOff,
}

/// All span kinds in canonical order.
pub const SPAN_KINDS: [SpanKind; 9] = [
    SpanKind::AdmissionWait,
    SpanKind::SlotService,
    SpanKind::StageIn,
    SpanKind::StageOut,
    SpanKind::CacheHit,
    SpanKind::CacheMiss,
    SpanKind::ShortCircuit,
    SpanKind::Route,
    SpanKind::HandOff,
];

impl SpanKind {
    /// Stable kebab-case label used in both JSON artifacts.
    pub fn label(self) -> &'static str {
        match self {
            SpanKind::AdmissionWait => "admission-wait",
            SpanKind::SlotService => "slot-service",
            SpanKind::StageIn => "stage-in",
            SpanKind::StageOut => "stage-out",
            SpanKind::CacheHit => "cache-hit",
            SpanKind::CacheMiss => "cache-miss",
            SpanKind::ShortCircuit => "short-circuit",
            SpanKind::Route => "route",
            SpanKind::HandOff => "hand-off",
        }
    }

    /// Whether the kind describes a point occurrence rather than a
    /// duration (exported as a Chrome instant event).
    pub fn is_instant(self) -> bool {
        matches!(
            self,
            SpanKind::CacheHit
                | SpanKind::CacheMiss
                | SpanKind::ShortCircuit
                | SpanKind::Route
                | SpanKind::HandOff
        )
    }
}

/// One recorded trace span: a kind, the request it belongs to, the lane
/// it happened on, and its virtual-time extent (`start == end` for
/// instants).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// What the span describes.
    pub kind: SpanKind,
    /// Deterministic id of the request (its arrival index).
    pub request: u64,
    /// The lane (tenant / stage / shard) the span happened on.
    pub lane: u32,
    /// Virtual start time.
    pub start: Nanos,
    /// Virtual end time (equal to `start` for instants).
    pub end: Nanos,
}

/// One fixed-width virtual-time window of a lane's counters.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Bucket {
    /// Requests that arrived in the window.
    pub arrivals: u64,
    /// Requests whose response completed in the window.
    pub completions: u64,
    /// Requests dropped at the bounded admission queue in the window.
    pub drops: u64,
    /// Cache accesses that hit in the window.
    pub cache_hits: u64,
    /// Cache accesses that missed in the window.
    pub cache_misses: u64,
    /// Peak admission-queue depth observed in the window.
    pub max_queue_depth: u64,
    /// Peak in-service slot occupancy observed in the window.
    pub max_in_service: u64,
}

impl Bucket {
    fn is_empty(&self) -> bool {
        *self == Bucket::default()
    }
}

#[derive(Debug)]
struct LaneSeries {
    label: String,
    buckets: Vec<Bucket>,
}

/// Configuration of one [`Recorder`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ObsConfig {
    /// Seed of the stateless per-request sampling decision; derive it
    /// with [`crate::rng::derive_seed`] so traces are reproducible from
    /// the experiment's root seed.
    pub sample_seed: u64,
    /// Fraction of requests whose spans are recorded, in `[0, 1]`.
    /// 0 records no spans at all; 1 records every request.
    pub sample_rate: f64,
    /// Ring capacity of the span buffer; once full, the oldest recorded
    /// span is overwritten (the overwrite count is reported).
    pub span_capacity: usize,
    /// Width of one time-series bucket in virtual time.
    pub bucket_width: Nanos,
    /// Upper bound on buckets per lane; counts past the last window fold
    /// into it, so a longer-than-planned run saturates instead of
    /// growing without bound.
    pub max_buckets: usize,
}

impl ObsConfig {
    /// A configuration with the default buffer shape: 64k spans,
    /// 1 ms buckets, at most 4096 buckets per lane.
    pub fn new(sample_seed: u64, sample_rate: f64) -> Self {
        ObsConfig {
            sample_seed,
            sample_rate,
            span_capacity: 1 << 16,
            bucket_width: Nanos::from_millis(1),
            max_buckets: 4096,
        }
    }

    /// Returns the configuration with a different bucket width.
    pub fn with_bucket_width(mut self, width: Nanos) -> Self {
        self.bucket_width = width;
        self
    }

    /// Returns the configuration with a different span-ring capacity.
    pub fn with_span_capacity(mut self, capacity: usize) -> Self {
        self.span_capacity = capacity;
        self
    }
}

/// The deterministic span recorder and bucket folder. See the module
/// docs for the contract; construct one per traced run, thread it
/// through the simulation state as an `Option<Recorder>` (the `None`
/// arm is the zero-cost disabled path), and export afterwards.
#[derive(Debug)]
pub struct Recorder {
    sample_seed: u64,
    sample_rate: f64,
    /// `mix(seed, request) < threshold` decides sampling; `all` handles
    /// rate 1.0 exactly (the cast would lose the top of the range).
    threshold: u64,
    all: bool,
    spans: Vec<Span>,
    capacity: usize,
    /// Total spans accepted (recorded plus overwritten).
    accepted: u64,
    bucket_width: Nanos,
    max_buckets: usize,
    lanes: Vec<LaneSeries>,
    core: Option<CoreCounters>,
}

impl Recorder {
    /// Builds a recorder.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] for a sample rate outside
    /// `[0, 1]`, a zero bucket width, a zero span capacity or a zero
    /// bucket bound — degenerate observers fail loudly like degenerate
    /// models do.
    pub fn try_new(config: ObsConfig) -> Result<Self, SimError> {
        if !config.sample_rate.is_finite() || !(0.0..=1.0).contains(&config.sample_rate) {
            return Err(SimError::InvalidConfig(format!(
                "trace sample rate must be a probability in [0, 1], got {}",
                config.sample_rate
            )));
        }
        if config.bucket_width == Nanos::ZERO {
            return Err(SimError::InvalidConfig(
                "timeline bucket width must be positive".into(),
            ));
        }
        if config.span_capacity == 0 || config.max_buckets == 0 {
            return Err(SimError::InvalidConfig(
                "span capacity and bucket bound must be positive".into(),
            ));
        }
        Ok(Recorder {
            sample_seed: config.sample_seed,
            sample_rate: config.sample_rate,
            threshold: (config.sample_rate * u64::MAX as f64) as u64,
            all: config.sample_rate >= 1.0,
            spans: Vec::new(),
            capacity: config.span_capacity,
            accepted: 0,
            bucket_width: config.bucket_width,
            max_buckets: config.max_buckets,
            lanes: Vec::new(),
            core: None,
        })
    }

    /// Whether the spans of request `request` are recorded — a pure
    /// function of the sample seed and the request id, consuming no
    /// random draws (see [`crate::rng::mix`]).
    pub fn sampled(&self, request: u64) -> bool {
        self.all || rng::mix(self.sample_seed, request) < self.threshold
    }

    /// Registers a lane (a tenant, stage or shard) and returns its id;
    /// registering the same label again returns the existing id.
    /// Registration order is the canonical export order.
    pub fn lane(&mut self, label: &str) -> u32 {
        if let Some(i) = self.lanes.iter().position(|l| l.label == label) {
            return i as u32;
        }
        self.lanes.push(LaneSeries {
            label: label.to_string(),
            buckets: Vec::new(),
        });
        (self.lanes.len() - 1) as u32
    }

    /// Records one span if its request is sampled. Once the ring is
    /// full the oldest span is overwritten.
    pub fn span(&mut self, kind: SpanKind, request: u64, lane: u32, start: Nanos, end: Nanos) {
        if !self.sampled(request) {
            return;
        }
        let span = Span {
            kind,
            request,
            lane,
            start,
            end: end.max(start),
        };
        if self.spans.len() < self.capacity {
            self.spans.push(span);
        } else {
            let slot = (self.accepted % self.capacity as u64) as usize;
            self.spans[slot] = span;
        }
        self.accepted += 1;
    }

    /// Records one instant span (a point occurrence) if sampled.
    pub fn instant(&mut self, kind: SpanKind, request: u64, lane: u32, at: Nanos) {
        self.span(kind, request, lane, at, at);
    }

    /// Total spans accepted by the ring, overwritten ones included.
    pub fn spans_accepted(&self) -> u64 {
        self.accepted
    }

    /// Spans lost to ring overwrites.
    pub fn spans_overwritten(&self) -> u64 {
        self.accepted.saturating_sub(self.capacity as u64)
    }

    /// The retained spans in recording order (oldest first).
    pub fn spans(&self) -> Vec<Span> {
        if self.accepted <= self.capacity as u64 {
            return self.spans.clone();
        }
        let split = (self.accepted % self.capacity as u64) as usize;
        let mut out = Vec::with_capacity(self.capacity);
        out.extend_from_slice(&self.spans[split..]);
        out.extend_from_slice(&self.spans[..split]);
        out
    }

    fn bucket(&mut self, lane: u32, at: Nanos) -> &mut Bucket {
        let idx =
            ((at.as_nanos() / self.bucket_width.as_nanos()) as usize).min(self.max_buckets - 1);
        let buckets = &mut self.lanes[lane as usize].buckets;
        if buckets.len() <= idx {
            buckets.resize_with(idx + 1, Bucket::default);
        }
        &mut buckets[idx]
    }

    /// Counts one arrival on `lane` in the window containing `at`.
    pub fn count_arrival(&mut self, lane: u32, at: Nanos) {
        self.bucket(lane, at).arrivals += 1;
    }

    /// Counts one completed response on `lane` at `at`.
    pub fn count_completion(&mut self, lane: u32, at: Nanos) {
        self.bucket(lane, at).completions += 1;
    }

    /// Counts one admission drop on `lane` at `at`.
    pub fn count_drop(&mut self, lane: u32, at: Nanos) {
        self.bucket(lane, at).drops += 1;
    }

    /// Counts one cache access on `lane` at `at`.
    pub fn count_cache(&mut self, lane: u32, at: Nanos, hit: bool) {
        let bucket = self.bucket(lane, at);
        if hit {
            bucket.cache_hits += 1;
        } else {
            bucket.cache_misses += 1;
        }
    }

    /// Folds a queue-depth / in-service observation into the window's
    /// running maxima.
    pub fn gauge(&mut self, lane: u32, at: Nanos, queue_depth: usize, in_service: usize) {
        let bucket = self.bucket(lane, at);
        bucket.max_queue_depth = bucket.max_queue_depth.max(queue_depth as u64);
        bucket.max_in_service = bucket.max_in_service.max(in_service as u64);
    }

    /// Each lane's label and admission drops over the whole run, in
    /// registration order: the sum of the per-bucket `drops` that
    /// [`Recorder::timeline_json`] writes.
    pub fn lane_drops(&self) -> Vec<(&str, u64)> {
        self.lanes
            .iter()
            .map(|lane| {
                let drops = lane.buckets.iter().map(|b| b.drops).sum();
                (lane.label.as_str(), drops)
            })
            .collect()
    }

    /// Attaches the run's event-core counter profile to the timeline
    /// artifact.
    pub fn set_core_counters(&mut self, counters: CoreCounters) {
        self.core = Some(counters);
    }

    /// The spans in canonical export order: `(start, end, lane, kind,
    /// request)` — independent of any interleaving of recording calls
    /// within one virtual timestamp.
    fn sorted_spans(&self) -> Vec<Span> {
        let mut spans = self.spans();
        spans.sort_by_key(|s| (s.start, s.end, s.lane, s.kind, s.request));
        spans
    }

    /// Serializes the recorded spans as Chrome trace-event JSON
    /// (load in `chrome://tracing` or <https://ui.perfetto.dev>).
    ///
    /// Durations become `ph: "X"` complete events and instants become
    /// thread-scoped `ph: "i"` events; each registered lane is a virtual
    /// thread named by metadata events. Timestamps are microseconds of
    /// virtual time.
    pub fn chrome_trace_json(&self, target: &str) -> String {
        let mut out = String::with_capacity(256 + 128 * self.spans.len());
        out.push_str("{\n  \"displayTimeUnit\": \"ms\",\n  \"traceEvents\": [\n");
        out.push_str(&format!(
            "    {{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 0, \"tid\": 0, \
             \"args\": {{\"name\": \"isolation-bench/{}\"}}}}",
            escape(target)
        ));
        for (i, lane) in self.lanes.iter().enumerate() {
            out.push_str(&format!(
                ",\n    {{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 0, \"tid\": {}, \
                 \"args\": {{\"name\": \"{}\"}}}}",
                i,
                escape(&lane.label)
            ));
        }
        for span in self.sorted_spans() {
            let ts = micros(span.start);
            if span.kind.is_instant() {
                out.push_str(&format!(
                    ",\n    {{\"name\": \"{}\", \"cat\": \"mark\", \"ph\": \"i\", \"s\": \"t\", \
                     \"pid\": 0, \"tid\": {}, \"ts\": {ts}, \"args\": {{\"request\": {}}}}}",
                    span.kind.label(),
                    span.lane,
                    span.request
                ));
            } else {
                out.push_str(&format!(
                    ",\n    {{\"name\": \"{}\", \"cat\": \"span\", \"ph\": \"X\", \
                     \"pid\": 0, \"tid\": {}, \"ts\": {ts}, \"dur\": {}, \
                     \"args\": {{\"request\": {}}}}}",
                    span.kind.label(),
                    span.lane,
                    micros(span.end - span.start),
                    span.request
                ));
            }
        }
        out.push_str("\n  ]\n}\n");
        out
    }

    /// Serializes the windowed time-series (and the span census) as the
    /// `isolation-bench/obs/v1` timeline artifact.
    pub fn timeline_json(&self, target: &str, seed: u64) -> String {
        let mut out = String::with_capacity(1024);
        out.push_str("{\n");
        out.push_str("  \"schema\": \"isolation-bench/obs/v1\",\n");
        out.push_str(&format!("  \"target\": \"{}\",\n", escape(target)));
        out.push_str(&format!("  \"seed\": {seed},\n"));
        out.push_str(&format!("  \"sample_rate\": {:.6},\n", self.sample_rate));
        out.push_str(&format!(
            "  \"bucket_width_us\": {},\n",
            micros(self.bucket_width)
        ));
        let spans = self.sorted_spans();
        out.push_str("  \"spans\": {\n");
        out.push_str(&format!("    \"accepted\": {},\n", self.accepted));
        out.push_str(&format!("    \"retained\": {},\n", spans.len()));
        out.push_str(&format!(
            "    \"overwritten\": {},\n",
            self.spans_overwritten()
        ));
        out.push_str("    \"by_kind\": {");
        for (i, kind) in SPAN_KINDS.iter().enumerate() {
            let count = spans.iter().filter(|s| s.kind == *kind).count();
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!("\"{}\": {count}", kind.label()));
        }
        out.push_str("}\n  },\n");
        out.push_str("  \"lanes\": [");
        let width_secs = self.bucket_width.as_secs_f64();
        for (li, lane) in self.lanes.iter().enumerate() {
            if li > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n    {{\"lane\": \"{}\", \"buckets\": [",
                escape(&lane.label)
            ));
            let mut first = true;
            for (bi, bucket) in lane.buckets.iter().enumerate() {
                if bucket.is_empty() {
                    continue;
                }
                if !first {
                    out.push(',');
                }
                first = false;
                let start = self.bucket_width * bi as u64;
                out.push_str(&format!(
                    "\n      {{\"start_us\": {}, \"arrivals\": {}, \"completions\": {}, \
                     \"drops\": {}, \"cache_hits\": {}, \"cache_misses\": {}, \
                     \"max_queue_depth\": {}, \"max_in_service\": {}, \
                     \"achieved_per_sec\": {:.3}}}",
                    micros(start),
                    bucket.arrivals,
                    bucket.completions,
                    bucket.drops,
                    bucket.cache_hits,
                    bucket.cache_misses,
                    bucket.max_queue_depth,
                    bucket.max_in_service,
                    bucket.completions as f64 / width_secs
                ));
            }
            if first {
                out.push_str("]}");
            } else {
                out.push_str("\n    ]}");
            }
        }
        out.push_str("\n  ]");
        if let Some(core) = self.core {
            out.push_str(&format!(
                ",\n  \"core\": {{\"pushes\": {}, \"pops\": {}}}",
                core.pushes, core.pops
            ));
        }
        out.push_str("\n}\n");
        out
    }
}

/// Formats a virtual duration as microseconds with fixed precision —
/// the one float formatting both artifacts share.
fn micros(t: Nanos) -> String {
    format!("{:.3}", t.as_nanos() as f64 / 1e3)
}

/// Minimal JSON string escaping for labels (quotes, backslashes and
/// control characters; labels are ASCII identifiers in practice).
fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn recorder(rate: f64) -> Recorder {
        Recorder::try_new(ObsConfig::new(99, rate)).unwrap()
    }

    #[test]
    fn degenerate_configs_fail_loudly() {
        assert!(Recorder::try_new(ObsConfig::new(1, f64::NAN)).is_err());
        assert!(Recorder::try_new(ObsConfig::new(1, -0.1)).is_err());
        assert!(Recorder::try_new(ObsConfig::new(1, 1.1)).is_err());
        assert!(Recorder::try_new(ObsConfig::new(1, 0.5).with_bucket_width(Nanos::ZERO)).is_err());
        assert!(Recorder::try_new(ObsConfig::new(1, 0.5).with_span_capacity(0)).is_err());
    }

    #[test]
    fn rate_zero_records_nothing_and_rate_one_records_everything() {
        let mut none = recorder(0.0);
        let mut all = recorder(1.0);
        for request in 0..100 {
            for r in [&mut none, &mut all] {
                r.span(
                    SpanKind::SlotService,
                    request,
                    0,
                    Nanos::from_micros(request),
                    Nanos::from_micros(request + 1),
                );
            }
        }
        assert_eq!(none.spans_accepted(), 0);
        assert_eq!(all.spans_accepted(), 100);
    }

    #[test]
    fn sampling_is_stateless_and_hits_near_the_configured_rate() {
        let a = recorder(0.25);
        let b = recorder(0.25);
        let sampled: Vec<u64> = (0..10_000).filter(|&i| a.sampled(i)).collect();
        // Same seed and rate => same set, regardless of query order.
        assert!((0..10_000).rev().all(|i| b.sampled(i) == a.sampled(i)));
        let frac = sampled.len() as f64 / 10_000.0;
        assert!((frac - 0.25).abs() < 0.03, "sampled fraction {frac}");
        // A different seed picks a different set.
        let c = Recorder::try_new(ObsConfig::new(100, 0.25)).unwrap();
        assert!((0..10_000).any(|i| c.sampled(i) != a.sampled(i)));
    }

    #[test]
    fn the_ring_overwrites_oldest_and_exports_in_chronological_order() {
        let mut r = Recorder::try_new(ObsConfig::new(1, 1.0).with_span_capacity(4)).unwrap();
        for i in 0..6u64 {
            r.instant(SpanKind::Route, i, 0, Nanos::from_micros(i));
        }
        assert_eq!(r.spans_accepted(), 6);
        assert_eq!(r.spans_overwritten(), 2);
        let requests: Vec<u64> = r.spans().iter().map(|s| s.request).collect();
        assert_eq!(requests, vec![2, 3, 4, 5], "oldest two overwritten");
    }

    #[test]
    fn buckets_fold_counts_into_their_windows_and_gauges_take_maxima() {
        let mut r =
            Recorder::try_new(ObsConfig::new(1, 1.0).with_bucket_width(Nanos::from_micros(10)))
                .unwrap();
        let lane = r.lane("tenant-a");
        assert_eq!(lane, 0);
        assert_eq!(r.lane("tenant-a"), 0, "re-registration is idempotent");
        r.count_arrival(lane, Nanos::from_micros(3));
        r.count_arrival(lane, Nanos::from_micros(9));
        r.count_arrival(lane, Nanos::from_micros(10));
        r.count_drop(lane, Nanos::from_micros(12));
        r.count_cache(lane, Nanos::from_micros(12), true);
        r.count_cache(lane, Nanos::from_micros(13), false);
        r.gauge(lane, Nanos::from_micros(5), 7, 2);
        r.gauge(lane, Nanos::from_micros(6), 3, 9);
        r.count_drop(lane, Nanos::from_micros(25));
        assert_eq!(r.lane_drops(), [("tenant-a", 2)]);
        let json = r.timeline_json("unit", 7);
        assert!(json.contains("\"schema\": \"isolation-bench/obs/v1\""));
        assert!(json.contains(
            "{\"start_us\": 0.000, \"arrivals\": 2, \"completions\": 0, \"drops\": 0, \
             \"cache_hits\": 0, \"cache_misses\": 0, \"max_queue_depth\": 7, \
             \"max_in_service\": 9, \"achieved_per_sec\": 0.000}"
        ));
        assert!(json.contains("\"start_us\": 10.000, \"arrivals\": 1"));
        assert!(!json.contains("NaN") && !json.contains("inf"));
    }

    #[test]
    fn counts_past_the_bucket_bound_fold_into_the_last_window() {
        let mut cfg = ObsConfig::new(1, 1.0).with_bucket_width(Nanos::from_micros(1));
        cfg.max_buckets = 4;
        let mut r = Recorder::try_new(cfg).unwrap();
        let lane = r.lane("only");
        r.count_arrival(lane, Nanos::from_secs(30));
        assert_eq!(r.lanes[lane as usize].buckets.len(), 4);
        assert_eq!(r.lanes[lane as usize].buckets[3].arrivals, 1);
    }

    #[test]
    fn chrome_trace_shapes_durations_and_instants_correctly() {
        let mut r = recorder(1.0);
        let lane = r.lane("shard\"0");
        r.span(
            SpanKind::SlotService,
            5,
            lane,
            Nanos::from_micros(10),
            Nanos::from_micros(14),
        );
        r.instant(SpanKind::HandOff, 5, lane, Nanos::from_micros(10));
        let json = r.chrome_trace_json("cluster");
        assert!(json.contains("\"traceEvents\""));
        assert!(json.contains("\"name\": \"shard\\\"0\""), "label escaped");
        assert!(json.contains(
            "{\"name\": \"slot-service\", \"cat\": \"span\", \"ph\": \"X\", \"pid\": 0, \
             \"tid\": 0, \"ts\": 10.000, \"dur\": 4.000, \"args\": {\"request\": 5}}"
        ));
        assert!(json.contains(
            "{\"name\": \"hand-off\", \"cat\": \"mark\", \"ph\": \"i\", \"s\": \"t\", \
             \"pid\": 0, \"tid\": 0, \"ts\": 10.000, \"args\": {\"request\": 5}}"
        ));
    }

    #[test]
    fn export_order_is_canonical_not_recording_order() {
        let mut a = recorder(1.0);
        let mut b = recorder(1.0);
        let at = Nanos::from_micros(2);
        // Same spans, opposite recording order within one timestamp.
        a.instant(SpanKind::Route, 1, 0, at);
        a.instant(SpanKind::Route, 2, 0, at);
        b.instant(SpanKind::Route, 2, 0, at);
        b.instant(SpanKind::Route, 1, 0, at);
        assert_eq!(a.chrome_trace_json("t"), b.chrome_trace_json("t"));
        assert_eq!(a.timeline_json("t", 0), b.timeline_json("t", 0));
    }

    #[test]
    fn core_counters_appear_only_when_attached() {
        let mut r = recorder(1.0);
        assert!(!r.timeline_json("t", 0).contains("\"core\""));
        r.set_core_counters(CoreCounters { pushes: 4, pops: 3 });
        assert!(r
            .timeline_json("t", 0)
            .contains("\"core\": {\"pushes\": 4, \"pops\": 3}"));
    }
}
