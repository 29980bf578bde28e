//! Staged middleware pipeline model (beyond the paper).
//!
//! Every other experiment charges a request one opaque service time, but
//! production gateway traffic traverses an ordered middleware chain —
//! authentication, session lookup, transforms, routing — where each stage
//! taxes the request on the way **in**, may tax the response on the way
//! **out**, may consult a cache (session store hit vs miss), and may
//! short-circuit the request entirely (an auth rejection or redirect
//! never reaches the backend). This module models exactly that: a
//! [`MiddlewareChain`] of [`Stage`]s executed per request on the same
//! [`crate::slots`] admission/slot core the open-loop [`crate::loadgen`]
//! sweeps use, so stage costs compose with bounded admission, service
//! slots and platform derating unchanged.
//!
//! The request lifecycle: a Poisson arrival is admitted (or dropped) by
//! the bounded queue exactly as in `loadgen`; on dispatch the chain is
//! traversed — every stage charges its in-phase cost, a cached stage
//! charges its hit or miss latency against a warmable hit rate, and a
//! stage may short-circuit, in which case the backend service time is
//! skipped and only the out-phases of the stages already entered run on
//! the response path. The slot is occupied for the full composed time,
//! so middleware cost feeds back into queueing exactly like backend cost.
//!
//! This module also owns the one open-loop request engine, which the
//! load, pipeline and tenancy runs share. A run drains one [`EventQueue`]
//! of typed events (`Generate` a chunk of one class's arrivals, `Arrive`,
//! `Drain` the batched completion timer, `Probe` the in-flight depth)
//! over N client classes that share one [`SlotPool`] under FIFO or DRR.
//! A class is data: its own arrival source, service profile and stream,
//! connections, trace lane, accounting and borrowed sampled backend. The
//! load and pipeline sweeps run one class named `pool` on a counted
//! Poisson source; [`crate::tenancy`] runs one class per tenant on its
//! windowed arrival process. Loadgen and tenancy use the empty chain,
//! which charges no stage cost and draws no stage stream. A trial
//! populates each sampled backend once and lends it to every sweep point
//! or window (see [`crate::slots`]); a single-point entry point builds
//! its own.
//!
//! Determinism contract: each stage draws one record per dispatched
//! request from its own stream (in-phase cost, cache uniform,
//! short-circuit outcome, out-phase cost) whatever happened upstream, so
//! a point's `i`-th dispatch meets record `i` of every stage it enters.
//! The trial draws these records, the arrival gaps and the service times
//! once, and every sweep point reads them by index; the arrival/service
//! streams reuse the `loadgen` labels. Two consequences the test battery
//! pins down: sweep points are coupled by common random numbers (monotone
//! curves by coupling, not just in expectation), and a zero-depth sweep
//! consumes the cell stream exactly like the [`crate::loadgen`] sweep, so
//! the two agree **bit for bit** — the degenerate-chain regression
//! contract. No point depends on which points read the tables before it:
//! a depth-1 point fills only stage 0's table, and a deeper point reads
//! the other stages from the start of their own streams.

use platforms::Platform;
use simcore::error::SimError;
use simcore::obs::{Recorder, SpanKind};
use simcore::resource::CompletionTimer;
use simcore::stats::{Cdf, RunningStats};
use simcore::{EventQueue, Nanos, Replay, SimRng};

use crate::slots::{
    backend_profile, Admission, BackendState, ClassConfig, ConnState, ServiceTimes, SlotPolicy,
    SlotPool, UnitGaps,
};
pub use crate::slots::{LoadBackend, ServiceProfile};
use crate::tenancy::ArrivalGen;

/// Label of the middleware-stage stream, split from the cell stream only
/// when some sweep point has a non-empty chain — a zero-depth sweep must
/// consume the cell stream exactly like [`crate::loadgen`] does.
const STAGE_STREAM: &str = "stages";

/// Label of the per-point miscellaneous stream (connection attribution,
/// sampled backend operations). It keeps the name of the load sweep that
/// first split it, so the load figures stay byte-identical.
const MISC_STREAM: &str = "loadgen";

/// A counted arrival source pre-samples its arrivals in chunks of this
/// size and appends each chunk to the event queue's ordered run
/// ([`EventQueue::push_ordered`]), which bounds the run's length
/// regardless of the sweep size. Shared with [`crate::cluster`]'s router.
///
/// The chunks stay for the recorded push order, not for the queue's
/// sake: a chunk's arrivals take their sequence numbers after the drains
/// and probes pushed while the previous chunk ran, and the sequence
/// decides which event pops first at an equal nanosecond. Enqueueing
/// every arrival up front would reorder those ties and can move a
/// figure.
pub(crate) const ARRIVAL_CHUNK: u64 = 512;

/// Chunk size of a windowed arrival source; it bounds the ordered run
/// and stays for the recorded push order, as [`ARRIVAL_CHUNK`] does.
const WINDOWED_CHUNK: usize = 256;

/// In-flight probes per pipeline or cluster sweep point, spread evenly
/// over the expected arrival window.
pub(crate) const PROBES: u32 = 64;

fn validated_us(what: &str, us: f64) -> Result<Nanos, SimError> {
    validated_non_negative(what, us).map(Nanos::from_micros_f64)
}

/// `v` when it is finite and non-negative, else an
/// [`SimError::InvalidConfig`] naming `what`.
pub(crate) fn validated_non_negative(what: &str, v: f64) -> Result<f64, SimError> {
    if !v.is_finite() || v < 0.0 {
        return Err(SimError::InvalidConfig(format!(
            "{what} must be finite and non-negative, got {v}"
        )));
    }
    Ok(v)
}

fn validated_rate(what: &str, rate: f64) -> Result<f64, SimError> {
    if !rate.is_finite() || !(0.0..=1.0).contains(&rate) {
        return Err(SimError::InvalidConfig(format!(
            "{what} must be a probability in [0, 1], got {rate}"
        )));
    }
    Ok(rate)
}

/// One phase cost: a mean latency plus the log-normal sigma of the
/// per-request distribution around it (0 = deterministic, mean-preserving
/// otherwise — the same shape [`ServiceProfile`] uses for backend time).
#[derive(Debug, Clone, Copy, PartialEq)]
struct StageCost {
    mean: Nanos,
    sigma: f64,
}

impl StageCost {
    fn try_from_us(what: &str, mean_us: f64, sigma: f64) -> Result<Self, SimError> {
        Ok(StageCost {
            mean: validated_us(&format!("{what} cost"), mean_us)?,
            sigma: validated_non_negative(&format!("{what} sigma"), sigma)?,
        })
    }

    /// Samples one phase latency. The draw count depends only on the
    /// configuration (zero for a deterministic cost, one normal pair
    /// otherwise), never on outcomes — the stream-alignment contract.
    fn sample(&self, rng: &mut SimRng) -> Nanos {
        if self.sigma <= 0.0 || self.mean == Nanos::ZERO {
            return self.mean;
        }
        let mean = self.mean.as_secs_f64();
        // E[lognormal(mu, sigma)] = exp(mu + sigma^2/2) = mean.
        let sampled = rng.log_normal(mean.ln() - self.sigma * self.sigma / 2.0, self.sigma);
        Nanos::from_secs_f64(sampled)
    }
}

/// Hit and miss latencies of a stage's cache (e.g. a session store).
#[derive(Debug, Clone, Copy, PartialEq)]
struct CacheCosts {
    hit: Nanos,
    miss: Nanos,
}

/// The draw parameters of one stage: its phase costs, its cache if it
/// has one, and its short-circuit rate. They fix what the stage draws for
/// a request; a trial owns them once per stage in its [`StageTable`].
#[derive(Debug, Clone, PartialEq)]
struct StageSpec {
    in_cost: StageCost,
    out_cost: Option<StageCost>,
    short_circuit: f64,
    cache: Option<CacheCosts>,
}

/// One request's draws at one stage, in stream order: the in-phase cost,
/// the uniform a cache access compares with the hit rate (0 without a
/// cache), whether the stage short-circuits, and the out-phase cost.
#[derive(Debug, Clone, Copy)]
struct StageDraw {
    in_cost: Nanos,
    cache_u: f64,
    fires: bool,
    out_cost: Nanos,
}

impl StageSpec {
    /// Draws one request's record. The draw count depends only on the
    /// spec, never on outcomes — the stream-alignment contract.
    fn draw(&self, rng: &mut SimRng) -> StageDraw {
        let in_cost = self.in_cost.sample(rng);
        let cache_u = if self.cache.is_some() {
            rng.uniform01()
        } else {
            0.0
        };
        let fires = self.short_circuit > 0.0 && rng.chance(self.short_circuit);
        let out_cost = self
            .out_cost
            .as_ref()
            .map_or(Nanos::ZERO, |c| c.sample(rng));
        StageDraw {
            in_cost,
            cache_u,
            fires,
            out_cost,
        }
    }

    /// Mean per-request cost of the stage (in + expected cache + out)
    /// with its cache, if any, at `hit_rate`.
    fn expected_cost_secs(&self, hit_rate: f64) -> f64 {
        let mut total = self.in_cost.mean.as_secs_f64();
        if let Some(out) = &self.out_cost {
            total += out.mean.as_secs_f64();
        }
        if let Some(cache) = &self.cache {
            total +=
                hit_rate * cache.hit.as_secs_f64() + (1.0 - hit_rate) * cache.miss.as_secs_f64();
        }
        total
    }
}

/// The per-point state of a stage's cache: the target hit rate, which
/// the hit rate ramps to linearly from cold (0) over the first
/// `warm_after` accesses, and the accesses so far. A traversal reads it
/// only when the stage's spec has a cache.
#[derive(Debug, Clone, PartialEq)]
struct CacheState {
    hit_rate: f64,
    warm_after: u64,
    accesses: u64,
}

impl CacheState {
    fn new(hit_rate: f64, warm_after: u64) -> Self {
        CacheState {
            hit_rate,
            warm_after,
            accesses: 0,
        }
    }

    fn effective_hit_rate(&self) -> f64 {
        if self.warm_after == 0 {
            return self.hit_rate;
        }
        self.hit_rate * (self.accesses as f64 / self.warm_after as f64).min(1.0)
    }
}

/// One middleware stage: a mandatory in-phase cost, an optional out-phase
/// (response path) cost, an optional cache consulted during the in-phase,
/// and an optional short-circuit probability (auth rejection, redirect)
/// that skips the backend and every downstream stage.
#[derive(Debug, Clone, PartialEq)]
pub struct Stage {
    /// Stage name, for debugging and study output.
    pub name: String,
    spec: StageSpec,
    cache: CacheState,
}

impl Stage {
    /// A stage charging `in_us` microseconds (log-normal `sigma` around
    /// that mean; 0 = deterministic) on the request path.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] for a non-finite or negative
    /// cost or sigma — mirroring [`ServiceProfile::try_new`], degenerate
    /// stage models fail loudly instead of saturating silently.
    pub fn try_new(name: &str, in_us: f64, sigma: f64) -> Result<Self, SimError> {
        Ok(Stage {
            name: name.to_string(),
            spec: StageSpec {
                in_cost: StageCost::try_from_us("stage in-phase", in_us, sigma)?,
                out_cost: None,
                short_circuit: 0.0,
                cache: None,
            },
            cache: CacheState::new(0.0, 0),
        })
    }

    /// Adds a response-path (out-phase) cost to the stage.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] for a non-finite or negative
    /// cost or sigma.
    pub fn with_out_phase(mut self, out_us: f64, sigma: f64) -> Result<Self, SimError> {
        self.spec.out_cost = Some(StageCost::try_from_us("stage out-phase", out_us, sigma)?);
        Ok(self)
    }

    /// Adds a per-request short-circuit probability: with rate `rate` the
    /// stage terminates the request (the backend and all downstream
    /// stages are skipped; the response still pays the out-phases of the
    /// stages already entered, this one included).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] unless `rate` is a probability
    /// in `[0, 1]`.
    pub fn with_short_circuit(mut self, rate: f64) -> Result<Self, SimError> {
        self.spec.short_circuit = validated_rate("stage short-circuit rate", rate)?;
        Ok(self)
    }

    /// Adds a warmable cache to the stage's in-phase: an access hits with
    /// the (warmup-ramped) `hit_rate` and charges `hit_us`, otherwise it
    /// charges the `miss_us` penalty. `warm_after` is the access count
    /// over which the hit rate ramps from cold to the target (0 =
    /// pre-warmed).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] for non-finite/negative costs
    /// or a `hit_rate` outside `[0, 1]`.
    pub fn with_cache(
        mut self,
        hit_us: f64,
        miss_us: f64,
        hit_rate: f64,
        warm_after: u64,
    ) -> Result<Self, SimError> {
        self.spec.cache = Some(CacheCosts {
            hit: validated_us("cache hit cost", hit_us)?,
            miss: validated_us("cache miss cost", miss_us)?,
        });
        self.cache = CacheState::new(validated_rate("cache hit rate", hit_rate)?, warm_after);
        Ok(self)
    }
}

/// The outcome of traversing the chain for one request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Traversal {
    /// Total middleware cost actually charged: in-phases and cache
    /// accesses of every entered stage plus the out-phases of the entered
    /// stages on the response path.
    pub stage_cost: Nanos,
    /// Number of stages the request entered.
    pub stages_traversed: usize,
    /// Index of the stage that short-circuited the request, if any.
    pub short_circuit: Option<usize>,
    /// Cache hits among the entered stages.
    pub cache_hits: u32,
    /// Cache misses among the entered stages.
    pub cache_misses: u32,
}

/// Per-stage detail handed to a [`MiddlewareChain::traverse_with`]
/// observer for every stage the request entered, in chain order — the
/// seam the trace recorder reconstructs per-stage spans from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StageVisit {
    /// Index of the stage in the chain.
    pub stage: usize,
    /// In-phase cost charged to the request.
    pub in_cost: Nanos,
    /// Cache access outcome (`Some(true)` = hit), if the stage has one.
    pub cache_hit: Option<bool>,
    /// Cache latency charged (hit or miss cost).
    pub cache_cost: Nanos,
    /// Whether this stage short-circuited the request.
    pub short_circuited: bool,
    /// Out-phase (response path) cost charged.
    pub out_cost: Nanos,
}

/// An ordered chain of middleware stages, traversed in-phase first to
/// last on the request path and out-phase on the response path.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MiddlewareChain {
    stages: Vec<Stage>,
}

impl MiddlewareChain {
    /// A chain of the given stages, traversed in order.
    pub fn new(stages: Vec<Stage>) -> Self {
        MiddlewareChain { stages }
    }

    /// The zero-stage chain: requests pass straight to the backend.
    pub fn empty() -> Self {
        MiddlewareChain::default()
    }

    /// Number of stages in the chain.
    pub fn depth(&self) -> usize {
        self.stages.len()
    }

    /// Whether the chain has no stages.
    pub fn is_empty(&self) -> bool {
        self.stages.is_empty()
    }

    /// Mean per-request chain cost at the caches' warm target hit rates,
    /// ignoring warmup and short-circuits — the planning figure the sweep
    /// uses to normalize offered load to chain-inclusive capacity.
    pub fn expected_cost(&self) -> Nanos {
        Nanos::from_secs_f64(
            self.stages
                .iter()
                .map(|s| s.spec.expected_cost_secs(s.cache.hit_rate))
                .sum(),
        )
    }

    /// Traverses the chain for one request, drawing from one stream per
    /// stage (`stage_rngs[i]` belongs to stage `i`).
    ///
    /// Every stage consumes its full draw complement even downstream of a
    /// short-circuit, so the per-stage streams stay aligned request by
    /// request whatever the outcomes — the common-random-numbers coupling
    /// the monotonicity tests rely on. Only entered stages charge costs,
    /// advance their cache warmup, or count hits and misses.
    pub fn traverse(&mut self, stage_rngs: &mut [SimRng]) -> Traversal {
        self.traverse_with(stage_rngs, |_| {})
    }

    /// [`MiddlewareChain::traverse`] with an observer that receives one
    /// [`StageVisit`] per *entered* stage, in chain order.
    ///
    /// The observer is called after the stage's draws, so it cannot
    /// change the draw order: `traverse` itself delegates here with a
    /// no-op observer, which is what makes the traced and untraced
    /// paths provably identical.
    pub fn traverse_with(
        &mut self,
        stage_rngs: &mut [SimRng],
        mut visit: impl FnMut(StageVisit),
    ) -> Traversal {
        debug_assert_eq!(
            stage_rngs.len(),
            self.stages.len(),
            "one stage stream per stage"
        );
        let mut walk = Walk::default();
        for (i, (stage, rng)) in self
            .stages
            .iter_mut()
            .zip(stage_rngs.iter_mut())
            .enumerate()
        {
            let draw = stage.spec.draw(rng);
            if let Some(v) = walk.enter(i, &stage.spec, &mut stage.cache, draw) {
                visit(v);
            }
        }
        walk.finish()
    }
}

/// One request's walk down a chain: folds each stage's draw into the
/// charged cost and the counts, entering every stage up to and including
/// the first that short-circuits.
#[derive(Debug, Default)]
struct Walk {
    cost: Nanos,
    traversed: usize,
    cut: Option<usize>,
    hits: u32,
    misses: u32,
}

impl Walk {
    /// Applies stage `i`'s draw to the walk and to the point's state of
    /// the stage's cache. Returns the visit when the request enters the
    /// stage; past a short-circuit it does not, and the stage neither
    /// charges, warms its cache, nor counts a hit or miss.
    fn enter(
        &mut self,
        i: usize,
        spec: &StageSpec,
        cache: &mut CacheState,
        draw: StageDraw,
    ) -> Option<StageVisit> {
        if self.cut.is_some() {
            return None;
        }
        let mut cache_cost = Nanos::ZERO;
        let mut cache_hit = None;
        if let Some(costs) = spec.cache {
            let hit = draw.cache_u < cache.effective_hit_rate();
            cache.accesses += 1;
            cache_hit = Some(hit);
            if hit {
                self.hits += 1;
                cache_cost = costs.hit;
            } else {
                self.misses += 1;
                cache_cost = costs.miss;
            }
        }
        self.traversed += 1;
        self.cost += draw.in_cost + cache_cost + draw.out_cost;
        if draw.fires {
            self.cut = Some(i);
        }
        Some(StageVisit {
            stage: i,
            in_cost: draw.in_cost,
            cache_hit,
            cache_cost,
            short_circuited: draw.fires,
            out_cost: draw.out_cost,
        })
    }

    fn finish(self) -> Traversal {
        Traversal {
            stage_cost: self.cost,
            stages_traversed: self.traversed,
            short_circuit: self.cut,
            cache_hits: self.hits,
            cache_misses: self.misses,
        }
    }
}

/// One stage of a trial's chain: its name and draw parameters, and its
/// per-request draws read by dispatch index. Every point whose chain
/// reaches the stage reads the same records, so the stage's stream is
/// drawn once per trial.
#[derive(Debug)]
pub(crate) struct StageTable {
    name: String,
    spec: StageSpec,
    draws: Replay<StageDraw>,
}

impl StageTable {
    /// The record of dispatch `i`.
    fn draw(&mut self, i: usize) -> StageDraw {
        let spec = &self.spec;
        self.draws.get(i, |rng| spec.draw(rng))
    }
}

/// Mean per-request cost of the chain over `tables` with every cache at
/// `hit_rate` — the figure [`MiddlewareChain::expected_cost`] gives for
/// the same stages.
fn expected_cost(tables: &[StageTable], hit_rate: f64) -> Nanos {
    Nanos::from_secs_f64(
        tables
            .iter()
            .map(|t| t.spec.expected_cost_secs(hit_rate))
            .sum(),
    )
}

/// One point's chain: the first `depth` stage tables of its trial and the
/// point's own state of each stage's cache. The tables own every draw
/// parameter, so a point can only read records drawn with its stages'
/// parameters; what it brings is its hit rate and warm-up.
pub(crate) struct PointChain<'t> {
    tables: &'t mut [StageTable],
    caches: Vec<CacheState>,
}

impl<'t> PointChain<'t> {
    /// The zero-stage chain: requests pass straight to the backend.
    pub(crate) fn empty() -> Self {
        PointChain {
            tables: &mut [],
            caches: Vec::new(),
        }
    }

    /// A chain over `tables` whose caches warm to `hit_rate` over
    /// `warm_after` accesses.
    fn new(tables: &'t mut [StageTable], hit_rate: f64, warm_after: u64) -> Self {
        let caches = vec![CacheState::new(hit_rate, warm_after); tables.len()];
        PointChain { tables, caches }
    }

    /// Traverses the chain for dispatch `index`: each entered stage reads
    /// its record `index` and applies it to the point's cache state. A
    /// stage past a short-circuit is not entered, so its record is not
    /// read; the next dispatch still reads record `index + 1`.
    fn traverse(&mut self, index: usize, mut visit: impl FnMut(StageVisit)) -> Traversal {
        let mut walk = Walk::default();
        for (i, (table, cache)) in self.tables.iter_mut().zip(&mut self.caches).enumerate() {
            if walk.cut.is_some() {
                break;
            }
            let draw = table.draw(index);
            if let Some(v) = walk.enter(i, &table.spec, cache, draw) {
                visit(v);
            }
        }
        walk.finish()
    }
}

/// One point of the pipeline sweep: a chain depth, the auth cache's
/// actual hit rate, and the hit rate the operator *planned* for when
/// provisioning the offered load. The two differ only at the
/// cache-miss-storm point, where traffic planned against a warm cache
/// meets a cold one.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PipelineSetting {
    /// Number of middleware stages in front of the backend.
    pub depth: usize,
    /// Actual auth-cache hit rate the chain runs with.
    pub hit_rate: f64,
    /// Hit rate the offered load was provisioned against.
    pub planned_hit_rate: f64,
}

impl PipelineSetting {
    /// A point whose offered load is provisioned against the actual hit
    /// rate (the normal case).
    pub fn new(depth: usize, hit_rate: f64) -> Self {
        PipelineSetting {
            depth,
            hit_rate,
            planned_hit_rate: hit_rate,
        }
    }

    /// A cache-miss-storm point: the chain runs at `hit_rate` but the
    /// offered load was provisioned for `planned_hit_rate`.
    pub fn storm(depth: usize, hit_rate: f64, planned_hit_rate: f64) -> Self {
        PipelineSetting {
            depth,
            hit_rate,
            planned_hit_rate,
        }
    }

    /// The categorical label of the point in figures and reports.
    pub fn label(&self) -> String {
        if (self.planned_hit_rate - self.hit_rate).abs() > 1e-9 {
            format!("d{} miss-storm", self.depth)
        } else {
            format!("d{} h{:.2}", self.depth, self.hit_rate)
        }
    }
}

/// Auth-cache hit rate of the depth sweep and planning basis of the
/// miss-storm point.
pub const BASELINE_HIT_RATE: f64 = 0.9;

/// Names of the non-auth middleware stages, in chain order.
const STAGE_KINDS: [&str; 7] = [
    "session",
    "transform",
    "cors",
    "route",
    "rate-limit",
    "audit",
    "compress",
];

/// Configuration of one middleware-pipeline sweep over chain depth and
/// auth-cache hit rate.
///
/// Stage costs are expressed as fractions of the platform's derated mean
/// backend service time, so the middleware tax scales with the platform
/// exactly like the paper's syscall-path overheads do: a chain that costs
/// 20% of a native request costs 20% of a (much larger) gVisor request.
#[derive(Debug, Clone)]
pub struct PipelineBenchmark {
    /// Which backend terminates the chain.
    pub backend: LoadBackend,
    /// Open-loop client population (connection attribution only).
    pub clients: usize,
    /// Requests offered per sweep point.
    pub requests_per_point: usize,
    /// The depth/hit-rate sweep, one [`PipelineSetting`] per point.
    pub sweep: Vec<PipelineSetting>,
    /// Offered load as a fraction of the chain-inclusive saturation
    /// capacity at the point's *planned* hit rate.
    pub offered_fraction: f64,
    /// Bounded admission queue depth in front of the service slots.
    pub queue_capacity: usize,
    /// Number of parallel service slots.
    pub servers: usize,
    /// Measurement repetitions (trials) per sweep point.
    pub runs: usize,
    /// Execute one real backend operation per this many admitted requests.
    pub op_sample_every: u64,
    /// In-phase cost of every stage, as a fraction of the backend mean.
    pub stage_in_frac: f64,
    /// Out-phase cost of every non-auth stage, as a fraction of the
    /// backend mean (0 disables the out-phase).
    pub stage_out_frac: f64,
    /// Auth-cache hit latency as a fraction of the backend mean.
    pub cache_hit_frac: f64,
    /// Auth-cache miss penalty as a fraction of the backend mean.
    pub cache_miss_frac: f64,
    /// Short-circuit (rejection) probability of the auth stage.
    pub auth_reject_rate: f64,
    /// Accesses over which the auth cache warms from cold to its target
    /// hit rate (0 = pre-warmed).
    pub cache_warm_after: u64,
    /// Log-normal sigma of per-request stage costs (0 = deterministic).
    pub stage_sigma: f64,
}

impl PipelineBenchmark {
    /// The full-scale configuration for a backend.
    pub fn new(backend: LoadBackend) -> Self {
        PipelineBenchmark {
            backend,
            clients: 10_000,
            requests_per_point: 20_000,
            sweep: PipelineSetting::default_sweep(),
            offered_fraction: 0.7,
            queue_capacity: 8_192,
            servers: 16,
            runs: 5,
            op_sample_every: 4,
            stage_in_frac: 0.12,
            stage_out_frac: 0.05,
            cache_hit_frac: 0.05,
            cache_miss_frac: 1.2,
            auth_reject_rate: 0.03,
            cache_warm_after: 256,
            stage_sigma: 0.2,
        }
    }

    /// A scaled-down configuration for unit tests and quick runs.
    pub fn quick(backend: LoadBackend) -> Self {
        PipelineBenchmark {
            clients: 256,
            requests_per_point: 2_500,
            runs: 3,
            ..PipelineBenchmark::new(backend)
        }
    }

    /// The platform's backend service profile under this configuration.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] for a degenerate profile — an
    /// empty slot pool, or a platform derate that collapses the service
    /// time to zero.
    pub fn service_profile(&self, platform: &Platform) -> Result<ServiceProfile, SimError> {
        backend_profile(self.backend, platform, self.servers)
    }

    /// Builds the middleware chain for one sweep point: an `auth` stage
    /// with the warmable session cache and the rejection short-circuit,
    /// followed by `depth - 1` transform-style stages with in- and
    /// out-phase costs. Depth 0 yields the empty chain.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] if any configured cost
    /// fraction, sigma or rate is degenerate (non-finite, negative, or a
    /// rate outside `[0, 1]`).
    pub fn chain_for(
        &self,
        profile: &ServiceProfile,
        depth: usize,
        hit_rate: f64,
    ) -> Result<MiddlewareChain, SimError> {
        let svc_us = profile.service_time.as_micros_f64();
        let mut stages = Vec::with_capacity(depth);
        for i in 0..depth {
            let stage = if i == 0 {
                Stage::try_new("auth", self.stage_in_frac * svc_us, self.stage_sigma)?
                    .with_cache(
                        self.cache_hit_frac * svc_us,
                        self.cache_miss_frac * svc_us,
                        hit_rate,
                        self.cache_warm_after,
                    )?
                    .with_short_circuit(self.auth_reject_rate)?
            } else {
                let name = STAGE_KINDS[(i - 1) % STAGE_KINDS.len()];
                let stage = Stage::try_new(name, self.stage_in_frac * svc_us, self.stage_sigma)?;
                if self.stage_out_frac > 0.0 {
                    stage.with_out_phase(self.stage_out_frac * svc_us, self.stage_sigma)?
                } else {
                    stage
                }
            };
            stages.push(stage);
        }
        Ok(MiddlewareChain::new(stages))
    }

    /// Runs the whole depth/hit-rate sweep once and returns one
    /// [`PipelinePoint`] per configured setting.
    ///
    /// This is the unit the parallel executor shards on. The arrival
    /// gaps, service times and per-stage draws are common random numbers
    /// across the sweep points (the `loadgen` discipline): the trial
    /// draws each once and every point reads it by index, so two depths
    /// share the draws of their common stage prefix. The sampled backend
    /// is likewise populated once and reused by every point.
    ///
    /// # Errors
    ///
    /// Propagates the degenerate-profile error of
    /// [`PipelineBenchmark::service_profile`] and the degenerate-chain
    /// error of [`PipelineBenchmark::chain_for`], and returns
    /// [`SimError::InvalidConfig`] when `requests_per_point` is zero or
    /// `offered_fraction` is negative or not finite.
    pub fn run_trial(
        &self,
        platform: &Platform,
        rng: &mut SimRng,
    ) -> Result<Vec<PipelinePoint>, SimError> {
        self.sweep_trial(platform, rng).map(|(points, _)| points)
    }

    /// [`PipelineBenchmark::run_trial`], returning the trial's draw tables
    /// with its points.
    fn sweep_trial(
        &self,
        platform: &Platform,
        rng: &mut SimRng,
    ) -> Result<(Vec<PipelinePoint>, TrialDraws), SimError> {
        let profile = self.service_profile(platform)?;
        let depth = self.sweep.iter().map(|s| s.depth).max().unwrap_or(0);
        let mut draws = self.draws(profile, depth, rng)?;
        let mut backend = BackendState::build(self.backend);
        let points = self
            .sweep
            .iter()
            .map(|setting| {
                self.run_setting(setting, &mut draws, rng, &mut backend, None)
                    .map(|(point, _)| point)
            })
            .collect::<Result<_, _>>()?;
        Ok((points, draws))
    }

    /// Splits the draw tables of a trial whose deepest chain has `depth`
    /// stages off the cell stream: the arrival and service streams, then
    /// the stage stream only when `depth > 0` — splitting advances the
    /// parent stream, and a zero-depth sweep must consume the cell stream
    /// exactly like `loadgen`.
    fn draws(
        &self,
        profile: ServiceProfile,
        depth: usize,
        rng: &mut SimRng,
    ) -> Result<TrialDraws, SimError> {
        let mut draws = TrialDraws::split(profile, self.requests_per_point, rng);
        if depth > 0 {
            // The deepest chain defines every stage; a shallower point
            // runs a prefix of it. The hit rate it is built at is no draw
            // parameter: each point brings its own.
            let chain = self.chain_for(&profile, depth, BASELINE_HIT_RATE)?;
            let mut root = rng.split(STAGE_STREAM);
            // One stream per stage, derived in stage order.
            draws.stages = chain
                .stages
                .into_iter()
                .enumerate()
                .map(|(i, stage)| StageTable {
                    name: stage.name,
                    spec: stage.spec,
                    draws: Replay::with_capacity(
                        root.split(&format!("s{i}")),
                        self.requests_per_point,
                    ),
                })
                .collect();
        }
        Ok(draws)
    }

    /// Runs one sweep point on its trial's `draws` against `backend`.
    /// `misc_rng` is the cell stream the timing-irrelevant draws are
    /// split from, one split per point — the same discipline as the
    /// `loadgen` sweep.
    pub(crate) fn run_setting(
        &self,
        setting: &PipelineSetting,
        draws: &mut TrialDraws,
        misc_rng: &mut SimRng,
        backend: &mut BackendState,
        obs: Option<Recorder>,
    ) -> Result<(PipelinePoint, Option<Recorder>), SimError> {
        if self.requests_per_point == 0 {
            return Err(SimError::InvalidConfig(
                "an open-loop sweep needs at least one request per point".into(),
            ));
        }
        let fraction = validated_non_negative("offered fraction", self.offered_fraction)?;
        let TrialDraws {
            gaps,
            service,
            stages,
        } = draws;
        let profile = *service.profile();
        let tables = &mut stages[..setting.depth];
        if tables.iter().any(|t| t.spec.cache.is_some()) {
            validated_rate("cache hit rate", setting.hit_rate)?;
            validated_rate("cache hit rate", setting.planned_hit_rate)?;
        }
        // Chain-inclusive capacity at the planned hit rate: the sweep
        // holds utilization constant across depths, so the miss-storm
        // point (planned warm, actually cold) lands above saturation.
        let per_request = profile.service_time + expected_cost(tables, setting.planned_hit_rate);
        let capacity_per_sec = profile.servers as f64 / per_request.as_secs_f64();
        // Floored at 1 req/s, the rate a zero fraction runs and reports.
        let offered_per_sec = (capacity_per_sec * fraction).max(1.0);
        let slots = ClassConfig {
            weight: 1,
            queue_capacity: self.queue_capacity,
            mean_cost: profile.service_time + expected_cost(tables, setting.hit_rate),
        };
        let window = Nanos::from_secs_f64(self.requests_per_point as f64 / offered_per_sec);
        let arrivals = ArrivalSource::Counted {
            gaps,
            next: 0,
            per_sec: offered_per_sec,
            remaining: self.requests_per_point as u64,
        };
        let class = ClientClass::new("pool", arrivals, slots, service, self.clients, backend);
        let mut sim = PipelineSim::new(
            vec![class],
            profile.servers,
            SlotPolicy::FifoArrival,
            PointChain::new(tables, setting.hit_rate, self.cache_warm_after),
            misc_rng.split(MISC_STREAM),
            self.op_sample_every,
            (PROBES, window / u64::from(PROBES)),
            obs,
        )?;
        let end = sim.run();
        let obs = sim.obs.take();
        Ok((sim.into_point(setting, offered_per_sec, end), obs))
    }

    /// Runs one sweep setting with a trace [`Recorder`] attached and
    /// returns it alongside the measurement, loaded with the admission
    /// and per-stage span timeline of the sampled requests, the windowed
    /// pool/stage time-series, and the event-core counter profile.
    ///
    /// Tracing is observation only — the recorder consumes no random
    /// draws, so the returned [`PipelinePoint`] is bit-identical to the
    /// same setting inside an untraced [`PipelineBenchmark::run_trial`]
    /// of the same streams. The single setting draws its own tables and
    /// populates its own backend.
    ///
    /// # Errors
    ///
    /// Same conditions as [`PipelineBenchmark::run_trial`].
    pub fn run_setting_traced(
        &self,
        platform: &Platform,
        setting: &PipelineSetting,
        rng: &mut SimRng,
        recorder: Recorder,
    ) -> Result<(PipelinePoint, Recorder), SimError> {
        let profile = self.service_profile(platform)?;
        let mut draws = self.draws(profile, setting.depth, rng)?;
        let (point, obs) = self.run_setting(
            setting,
            &mut draws,
            rng,
            &mut BackendState::build(self.backend),
            Some(recorder),
        )?;
        Ok((point, obs.expect("the recorder threads through the run")))
    }
}

/// The common random numbers of one open-loop trial, drawn once and read
/// by index at every sweep point: arrival `i` reads gap `i`, the class's
/// `i`-th dispatch reads service time `i`, and the chain's `i`-th
/// dispatch reads record `i` of each stage it enters. Each point still
/// divides the gaps by its own rate and runs its own caches, so its
/// figures are those of a private copy of the streams.
#[derive(Debug)]
pub(crate) struct TrialDraws {
    gaps: UnitGaps,
    service: ServiceTimes,
    stages: Vec<StageTable>,
}

impl TrialDraws {
    /// Splits the arrival and service streams off the cell stream, in
    /// that order, with room for `requests` arrivals and dispatches; the
    /// chain has no stages.
    pub(crate) fn split(profile: ServiceProfile, requests: usize, rng: &mut SimRng) -> Self {
        TrialDraws {
            gaps: UnitGaps::new(rng.split("arrivals"), requests),
            service: ServiceTimes::new(profile, rng.split("service"), requests),
            stages: Vec::new(),
        }
    }
}

impl PipelineSetting {
    /// The default sweep: chain depth 1–8 at the baseline hit rate, an
    /// auth-cache hit-rate sweep at depth 4, and the cache-miss-storm
    /// point (cold cache, traffic provisioned for the warm one).
    pub fn default_sweep() -> Vec<PipelineSetting> {
        vec![
            PipelineSetting::new(1, BASELINE_HIT_RATE),
            PipelineSetting::new(2, BASELINE_HIT_RATE),
            PipelineSetting::new(4, BASELINE_HIT_RATE),
            PipelineSetting::new(6, BASELINE_HIT_RATE),
            PipelineSetting::new(8, BASELINE_HIT_RATE),
            PipelineSetting::new(4, 1.0),
            PipelineSetting::new(4, 0.75),
            PipelineSetting::new(4, 0.5),
            PipelineSetting::storm(4, 0.0, BASELINE_HIT_RATE),
        ]
    }
}

/// One measured point of the pipeline sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct PipelinePoint {
    /// Categorical sweep label (e.g. `d4 h0.90`, `d4 miss-storm`).
    pub label: String,
    /// Chain depth of the point.
    pub depth: usize,
    /// Actual auth-cache hit rate.
    pub hit_rate: f64,
    /// Hit rate the offered load was provisioned against.
    pub planned_hit_rate: f64,
    /// Offered load in requests per second, at least 1.
    pub offered_per_sec: f64,
    /// Backend-served (not short-circuited) throughput in requests/sec.
    pub achieved_per_sec: f64,
    /// Median sojourn time (queueing + chain + service) in microseconds.
    pub p50_us: f64,
    /// 95th-percentile sojourn time in microseconds.
    pub p95_us: f64,
    /// 99th-percentile sojourn time in microseconds.
    pub p99_us: f64,
    /// Mean sojourn time in microseconds.
    pub mean_us: f64,
    /// Mean middleware cost actually charged per response (the per-stage
    /// latency tax summed over the entered stages), in microseconds.
    pub stage_tax_us: f64,
    /// Mean number of stages entered per response.
    pub mean_depth: f64,
    /// Fraction of responses that were short-circuited by a stage.
    pub short_circuit_fraction: f64,
    /// Auth-cache hit fraction over the point's accesses (warmup
    /// included).
    pub cache_hit_fraction: f64,
    /// Requests served by the backend.
    pub completed: u64,
    /// Requests short-circuited by a middleware stage.
    pub short_circuited: u64,
    /// Requests dropped by the bounded admission queue.
    pub dropped: u64,
    /// Dropped fraction of all issued requests.
    pub drop_fraction: f64,
    /// Peak number of in-flight requests (in service + queued).
    pub peak_in_flight: usize,
    /// Time-averaged in-flight depth from fixed-cadence probes.
    pub mean_in_flight: f64,
    /// Minimum over all responses of sojourn minus charged middleware
    /// cost, in microseconds — non-negative by construction (a request
    /// can never respond faster than the stages it traversed), the floor
    /// the latency-bound property test pins down.
    pub min_slack_us: f64,
}

/// A request waiting in the admission queue or in service. The `u16`
/// class index keeps it at 32 bytes.
#[derive(Debug, Clone, Copy)]
struct Request {
    /// Deterministic arrival index across all classes, the identity trace
    /// sampling keys on.
    id: u64,
    arrived: Nanos,
    stage_cost: Nanos,
    conn: u32,
    class: u16,
    cut: bool,
}

const _: () = assert!(std::mem::size_of::<Request>() == 32);

/// Typed events of one open-loop run: the event queue's pop order alone
/// drives the state machine.
#[derive(Debug, Clone, Copy)]
enum Ev {
    /// Sample and push the next chunk of `class`'s arrivals.
    Generate { class: u16 },
    /// One arrival of `class`.
    Arrive { class: u16 },
    /// Completion-timer wake of the shared pool.
    Drain,
    /// Fixed-cadence in-flight probe; `remaining` counts this one.
    Probe { remaining: u32 },
}

/// Where one client class's arrivals come from: the two arrival clocks
/// the recorded figures were taken with.
pub(crate) enum ArrivalSource<'a> {
    /// A fixed number of Poisson arrivals (the load and pipeline sweeps):
    /// arrival `next` reads the trial's unit-rate gap `next`, scales it by
    /// `per_sec` and rounds it to whole nanoseconds before it is added;
    /// chunks hold [`ARRIVAL_CHUNK`] arrivals, and no generation follows
    /// the last chunk.
    Counted {
        gaps: &'a mut UnitGaps,
        next: usize,
        per_sec: f64,
        remaining: u64,
    },
    /// A tenant's [`ArrivalGen`] on an f64-seconds clock: chunks hold
    /// [`WINDOWED_CHUNK`] arrivals, every full chunk pushes the next
    /// generation, and the source stops at its first arrival past
    /// `window_secs`.
    Windowed {
        gen: ArrivalGen<'a>,
        clock_secs: f64,
        window_secs: f64,
    },
}

impl ArrivalSource<'_> {
    /// Pushes the next chunk of `class`'s arrivals, then the generation
    /// of the chunk after it (FIFO among equal timestamps, so the next
    /// chunk continues from this one's clock). Both are in time order,
    /// so they go through [`EventQueue::push_ordered`]: one class's
    /// chunk appends to the queue's ordered run, and the entries of a
    /// second class that land behind the run's tail go to its heap.
    fn generate(&mut self, class: u16, now: Nanos, queue: &mut EventQueue<Ev>) {
        match self {
            ArrivalSource::Counted {
                gaps,
                next,
                per_sec,
                remaining,
            } => {
                let n = (*remaining).min(ARRIVAL_CHUNK);
                *remaining -= n;
                let mut offset = Nanos::ZERO;
                for _ in 0..n {
                    // Unit-rate exponential gaps scaled by the offered
                    // rate: the same arrival stream compresses uniformly
                    // as load grows.
                    offset += Nanos::from_secs_f64(gaps.get(*next) / *per_sec);
                    *next += 1;
                    queue.push_ordered(now + offset, Ev::Arrive { class });
                }
                if *remaining > 0 {
                    queue.push_ordered(now + offset, Ev::Generate { class });
                }
            }
            ArrivalSource::Windowed {
                gen,
                clock_secs,
                window_secs,
            } => {
                for _ in 0..WINDOWED_CHUNK {
                    *clock_secs += gen.next_gap();
                    if *clock_secs > *window_secs {
                        return;
                    }
                    queue.push_ordered(Nanos::from_secs_f64(*clock_secs), Ev::Arrive { class });
                }
                queue.push_ordered(Nanos::from_secs_f64(*clock_secs), Ev::Generate { class });
            }
        }
    }
}

/// One client class of an open-loop run: a connection population with
/// its own arrival source, slot-pool class, service times, trace lane
/// and accounting, driving the sampled backend it borrows from its
/// trial. Its `i`-th dispatch reads service time `i` of the trial's
/// table.
pub(crate) struct ClientClass<'a> {
    name: &'a str,
    arrivals: ArrivalSource<'a>,
    slots: ClassConfig,
    service: &'a mut ServiceTimes,
    dispatched: usize,
    pub(crate) backend: &'a mut BackendState,
    conns: Vec<ConnState>,
    lane: u32,
    pub(crate) latencies_us: Vec<f64>,
    pub(crate) completed: u64,
    short_circuited: u64,
    pub(crate) dropped: u64,
}

impl<'a> ClientClass<'a> {
    /// A class named `name` (its trace lane) spreading its arrivals over
    /// `clients` connections.
    pub(crate) fn new(
        name: &'a str,
        arrivals: ArrivalSource<'a>,
        slots: ClassConfig,
        service: &'a mut ServiceTimes,
        clients: usize,
        backend: &'a mut BackendState,
    ) -> Self {
        let expected = match &arrivals {
            ArrivalSource::Counted { remaining, .. } => *remaining as usize,
            ArrivalSource::Windowed { .. } => 0,
        };
        ClientClass {
            name,
            arrivals,
            slots,
            service,
            dispatched: 0,
            backend,
            conns: vec![ConnState::default(); clients.max(1)],
            lane: 0,
            latencies_us: Vec::with_capacity(expected),
            completed: 0,
            short_circuited: 0,
            dropped: 0,
        }
    }

    /// Requests the class issued.
    pub(crate) fn issued(&self) -> u64 {
        self.conns.iter().map(|c| c.issued).sum()
    }
}

/// The open-loop request engine of the load, pipeline and tenancy runs:
/// its client classes share one slot pool, the middleware chain is
/// spliced into dispatch, and completions drain through the batched
/// timer.
pub(crate) struct PipelineSim<'a> {
    pub(crate) classes: Vec<ClientClass<'a>>,
    pool: SlotPool<Request>,
    chain: PointChain<'a>,
    /// Dispatches so far, all classes: the stage record index.
    dispatched: usize,
    misc_rng: SimRng,
    op_sample_every: u64,
    admitted: u64,
    probes: u32,
    probe_period: Nanos,
    in_flight_probe: RunningStats,
    peak_in_flight: usize,
    stage_cost_ns_sum: u128,
    depth_sum: u64,
    cache_hits: u64,
    cache_misses: u64,
    min_slack_ns: i128,
    completions: CompletionTimer<Request>,
    drain_buf: Vec<(Nanos, Request)>,
    dispatch_buf: Vec<(usize, Nanos, Request)>,
    /// Arrival indices double as trace-sampling identities.
    next_request: u64,
    /// `None` is the zero-cost untraced path.
    pub(crate) obs: Option<Recorder>,
    obs_stage_lanes: Vec<u32>,
    visit_buf: Vec<StageVisit>,
}

impl<'a> PipelineSim<'a> {
    /// An engine over `classes` sharing `servers` slots under `policy`,
    /// with `probes` in-flight probes `probe_period` apart. Tenancy
    /// reports no in-flight depth and takes none: a probe is an event,
    /// which its pinned timeline's core counters would count.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] when the slot pool is invalid
    /// (see [`SlotPool::new`]) or there are more classes than a `u16`
    /// indexes.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        mut classes: Vec<ClientClass<'a>>,
        servers: usize,
        policy: SlotPolicy,
        chain: PointChain<'a>,
        misc_rng: SimRng,
        op_sample_every: u64,
        (probes, probe_period): (u32, Nanos),
        mut obs: Option<Recorder>,
    ) -> Result<Self, SimError> {
        if u16::try_from(classes.len()).is_err() {
            return Err(SimError::InvalidConfig(format!(
                "an open-loop run takes at most {} client classes",
                u16::MAX
            )));
        }
        let pool = SlotPool::new(servers, policy, classes.iter().map(|c| c.slots).collect())?;
        // The class lanes come first, in class order; then one lane per
        // stage, indexed so repeated stage kinds stay distinguishable.
        let mut obs_stage_lanes = Vec::new();
        if let Some(o) = obs.as_mut() {
            for class in &mut classes {
                class.lane = o.lane(class.name);
            }
            obs_stage_lanes = chain
                .tables
                .iter()
                .enumerate()
                .map(|(i, t)| o.lane(&format!("s{i}:{}", t.name)))
                .collect();
        }
        Ok(PipelineSim {
            classes,
            pool,
            chain,
            dispatched: 0,
            misc_rng,
            op_sample_every: op_sample_every.max(1),
            admitted: 0,
            probes,
            probe_period,
            in_flight_probe: RunningStats::new(),
            peak_in_flight: 0,
            stage_cost_ns_sum: 0,
            depth_sum: 0,
            cache_hits: 0,
            cache_misses: 0,
            min_slack_ns: i128::MAX,
            completions: CompletionTimer::new(),
            drain_buf: Vec::new(),
            dispatch_buf: Vec::new(),
            next_request: 0,
            obs,
            obs_stage_lanes,
            visit_buf: Vec::new(),
        })
    }

    /// Drains the run's events: every class's arrival source at time
    /// zero in class order, then the first in-flight probe one period in.
    /// Returns the virtual time of the last event.
    pub(crate) fn run(&mut self) -> Nanos {
        let mut queue = EventQueue::new();
        for class in 0..self.classes.len() as u16 {
            queue.push(Nanos::ZERO, Ev::Generate { class });
        }
        if self.probes > 0 {
            let first = Ev::Probe {
                remaining: self.probes,
            };
            queue.push(self.probe_period, first);
        }
        while let Some((now, ev)) = queue.pop() {
            match ev {
                Ev::Generate { class } => {
                    self.classes[usize::from(class)]
                        .arrivals
                        .generate(class, now, &mut queue);
                }
                Ev::Arrive { class } => self.arrive(now, class, &mut queue),
                Ev::Drain => self.drain_completions(now, &mut queue),
                Ev::Probe { remaining } => {
                    self.in_flight_probe.record(self.pool.in_flight() as f64);
                    if remaining > 1 {
                        let next = Ev::Probe {
                            remaining: remaining - 1,
                        };
                        queue.push(now + self.probe_period, next);
                    }
                }
            }
        }
        if let Some(obs) = self.obs.as_mut() {
            // The event-core profile of the run: its own event queue plus
            // the batched completion timer.
            obs.set_core_counters(queue.counters().merged(self.completions.counters()));
        }
        queue.frontier()
    }

    /// One open-loop arrival of `class`: attribute it to a connection,
    /// then admit (running the sampled backend operation), enqueue or
    /// drop it at the shared pool.
    fn arrive(&mut self, now: Nanos, class: u16, queue: &mut EventQueue<Ev>) {
        let c = usize::from(class);
        let state = &mut self.classes[c];
        let conn = self.misc_rng.index(state.conns.len()) as u32;
        state.conns[conn as usize].issued += 1;
        let lane = state.lane;
        let request = Request {
            id: self.next_request,
            arrived: now,
            stage_cost: Nanos::ZERO,
            conn,
            class,
            cut: false,
        };
        self.next_request += 1;
        if let Some(obs) = self.obs.as_mut() {
            obs.count_arrival(lane, now);
        }
        match self.pool.offer(c, now, request) {
            Admission::Dispatched => {
                self.admit(c);
                self.dispatch(now, request, queue);
            }
            Admission::Queued => self.admit(c),
            Admission::Dropped => {
                let state = &mut self.classes[c];
                state.conns[conn as usize].dropped += 1;
                state.dropped += 1;
                if let Some(obs) = self.obs.as_mut() {
                    obs.count_drop(lane, now);
                }
            }
        }
        self.peak_in_flight = self.peak_in_flight.max(self.pool.in_flight());
        if let Some(obs) = self.obs.as_mut() {
            obs.gauge(lane, now, self.pool.queued(c), self.pool.busy());
        }
    }

    fn admit(&mut self, class: usize) {
        self.admitted += 1;
        if self.admitted % self.op_sample_every == 0 {
            self.classes[class].backend.execute(&mut self.misc_rng);
        }
    }

    /// Dispatch: traverse the chain, compose the slot occupancy (chain
    /// cost plus backend service unless short-circuited), and register
    /// the completion with the batched timer.
    ///
    /// The backend service time is read for every dispatch — even one a
    /// stage short-circuits — so a class's `i`-th dispatch reads service
    /// time `i` at every chain depth.
    fn dispatch(&mut self, now: Nanos, mut request: Request, queue: &mut EventQueue<Ev>) {
        let class = &mut self.classes[usize::from(request.class)];
        let backend = class.service.get(class.dispatched);
        class.dispatched += 1;
        let lane = class.lane;
        let index = self.dispatched;
        self.dispatched += 1;
        let t = match self.obs.is_some() {
            // Traced run: collect the per-stage detail. Both arms walk
            // the same records, so tracing cannot change the traversal.
            true => {
                let buf = &mut self.visit_buf;
                buf.clear();
                self.chain.traverse(index, |v| buf.push(v))
            }
            false => self.chain.traverse(index, |_| {}),
        };
        if self.obs.is_some() {
            self.record_dispatch(now, &request, lane, backend, t.short_circuit.is_some());
        }
        self.stage_cost_ns_sum += u128::from(t.stage_cost.as_nanos());
        self.depth_sum += t.stages_traversed as u64;
        self.cache_hits += u64::from(t.cache_hits);
        self.cache_misses += u64::from(t.cache_misses);
        request.stage_cost = t.stage_cost;
        request.cut = t.short_circuit.is_some();
        let service = if request.cut {
            t.stage_cost
        } else {
            t.stage_cost + backend
        };
        let service = service.max(Nanos::from_nanos(1));
        if let Some(wake) = self.completions.schedule(now + service, request) {
            queue.push(wake, Ev::Drain);
        }
    }

    /// Folds one dispatch into the recorder: per-stage cache counts for
    /// every request, and — for sampled requests — the span timeline the
    /// slot occupancy decomposes into: admission wait, the in-phases in
    /// chain order (cache access charged inside), the backend slot
    /// service unless short-circuited, then the out-phases in reverse
    /// order. The spans tile `[arrived, dispatch + service]` exactly.
    fn record_dispatch(
        &mut self,
        now: Nanos,
        request: &Request,
        lane: u32,
        backend: Nanos,
        cut: bool,
    ) {
        let visits = std::mem::take(&mut self.visit_buf);
        if let Some(obs) = self.obs.as_mut() {
            for v in &visits {
                if let Some(hit) = v.cache_hit {
                    obs.count_cache(self.obs_stage_lanes[v.stage], now, hit);
                }
            }
            if obs.sampled(request.id) {
                obs.span(
                    SpanKind::AdmissionWait,
                    request.id,
                    lane,
                    request.arrived,
                    now,
                );
                let mut cursor = now;
                for v in &visits {
                    let stage_lane = self.obs_stage_lanes[v.stage];
                    let in_end = cursor + v.in_cost + v.cache_cost;
                    obs.span(SpanKind::StageIn, request.id, stage_lane, cursor, in_end);
                    if let Some(hit) = v.cache_hit {
                        let kind = if hit {
                            SpanKind::CacheHit
                        } else {
                            SpanKind::CacheMiss
                        };
                        obs.instant(kind, request.id, stage_lane, cursor + v.in_cost);
                    }
                    if v.short_circuited {
                        obs.instant(SpanKind::ShortCircuit, request.id, stage_lane, in_end);
                    }
                    cursor = in_end;
                }
                if !cut {
                    obs.span(
                        SpanKind::SlotService,
                        request.id,
                        lane,
                        cursor,
                        cursor + backend,
                    );
                    cursor += backend;
                }
                for v in visits.iter().rev() {
                    if v.out_cost > Nanos::ZERO {
                        obs.span(
                            SpanKind::StageOut,
                            request.id,
                            self.obs_stage_lanes[v.stage],
                            cursor,
                            cursor + v.out_cost,
                        );
                        cursor += v.out_cost;
                    }
                }
            }
        }
        self.visit_buf = visits;
    }

    /// One completion wake: drains every completion due at `now`, records
    /// sojourn times and the middleware-cost slack, folds the batch into
    /// the pool, and dispatches the pulled queue heads.
    fn drain_completions(&mut self, now: Nanos, queue: &mut EventQueue<Ev>) {
        let mut due = std::mem::take(&mut self.drain_buf);
        if let Some(wake) = self.completions.wake(now, &mut due) {
            queue.push(wake, Ev::Drain);
        }
        for &(at, request) in &due {
            debug_assert_eq!(at, now, "completions drain exactly at their tick");
            let class = &mut self.classes[usize::from(request.class)];
            let sojourn = now - request.arrived;
            class.latencies_us.push(sojourn.as_micros_f64());
            let slack = i128::from(sojourn.as_nanos()) - i128::from(request.stage_cost.as_nanos());
            self.min_slack_ns = self.min_slack_ns.min(slack);
            class.conns[request.conn as usize].completed += 1;
            if request.cut {
                class.short_circuited += 1;
            } else {
                class.completed += 1;
            }
            if let Some(obs) = self.obs.as_mut() {
                obs.count_completion(class.lane, now);
            }
        }
        let mut dispatched = std::mem::take(&mut self.dispatch_buf);
        self.pool.finish_batch(
            due.iter().map(|&(_, request)| usize::from(request.class)),
            &mut dispatched,
        );
        due.clear();
        self.drain_buf = due;
        for (_, _, next) in dispatched.drain(..) {
            self.dispatch(now, next, queue);
        }
        self.dispatch_buf = dispatched;
    }

    /// The pipeline point of a single-class run.
    fn into_point(
        self,
        setting: &PipelineSetting,
        offered_per_sec: f64,
        end: Nanos,
    ) -> PipelinePoint {
        let class = self
            .classes
            .into_iter()
            .next()
            .expect("a pipeline point runs one class");
        let issued = class.issued();
        let responded = class.completed + class.short_circuited;
        let label = setting.label();
        assert_eq!(
            issued,
            responded + class.dropped,
            "{label}: issued = responded + dropped"
        );
        assert_eq!(
            self.pool.counters(0).dropped,
            class.dropped,
            "{label}: pool drops = class drops"
        );
        let cdf = Cdf::from_samples(class.latencies_us)
            .expect("a sweep point always completes at least one request");
        let duration = end.as_secs_f64().max(f64::MIN_POSITIVE);
        let denom = responded.max(1) as f64;
        let accesses = (self.cache_hits + self.cache_misses).max(1) as f64;
        PipelinePoint {
            label,
            depth: setting.depth,
            hit_rate: setting.hit_rate,
            planned_hit_rate: setting.planned_hit_rate,
            offered_per_sec,
            achieved_per_sec: class.completed as f64 / duration,
            p50_us: cdf.percentile(50.0),
            p95_us: cdf.percentile(95.0),
            p99_us: cdf.percentile(99.0),
            mean_us: cdf.mean(),
            stage_tax_us: self.stage_cost_ns_sum as f64 / denom / 1e3,
            mean_depth: self.depth_sum as f64 / denom,
            short_circuit_fraction: class.short_circuited as f64 / denom,
            cache_hit_fraction: self.cache_hits as f64 / accesses,
            completed: class.completed,
            short_circuited: class.short_circuited,
            dropped: class.dropped,
            drop_fraction: class.dropped as f64 / issued.max(1) as f64,
            peak_in_flight: self.peak_in_flight,
            mean_in_flight: self.in_flight_probe.mean(),
            min_slack_us: if self.min_slack_ns == i128::MAX {
                0.0
            } else {
                self.min_slack_ns as f64 / 1e3
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loadgen::LoadgenBenchmark;
    use platforms::PlatformId;

    fn tiny(backend: LoadBackend) -> PipelineBenchmark {
        PipelineBenchmark {
            clients: 64,
            requests_per_point: 600,
            runs: 1,
            ..PipelineBenchmark::quick(backend)
        }
    }

    #[test]
    fn percentiles_are_ordered_and_trials_deterministic_per_seed() {
        let bench = tiny(LoadBackend::Memcached);
        let platform = PlatformId::Docker.build();
        let a = bench
            .run_trial(&platform, &mut SimRng::seed_from(91))
            .unwrap();
        assert_eq!(a.len(), bench.sweep.len());
        for p in &a {
            assert!(
                p.p50_us <= p.p95_us && p.p95_us <= p.p99_us,
                "percentiles out of order at {}: {p:?}",
                p.label
            );
            assert!(p.p50_us > 0.0);
            assert!(p.completed > 0);
            assert!(p.min_slack_us >= 0.0, "{}: {p:?}", p.label);
        }
        let b = bench
            .run_trial(&platform, &mut SimRng::seed_from(91))
            .unwrap();
        assert_eq!(a, b);
        let c = bench
            .run_trial(&platform, &mut SimRng::seed_from(92))
            .unwrap();
        assert_ne!(a, c);
    }

    #[test]
    fn deeper_chains_charge_a_larger_stage_tax_and_higher_latency() {
        let mut bench = tiny(LoadBackend::Memcached);
        bench.sweep = vec![
            PipelineSetting::new(1, BASELINE_HIT_RATE),
            PipelineSetting::new(4, BASELINE_HIT_RATE),
            PipelineSetting::new(8, BASELINE_HIT_RATE),
        ];
        let points = bench
            .run_trial(&PlatformId::Native.build(), &mut SimRng::seed_from(93))
            .unwrap();
        for pair in points.windows(2) {
            assert!(
                pair[1].stage_tax_us > pair[0].stage_tax_us,
                "stage tax must grow with depth: {pair:?}"
            );
            assert!(
                pair[1].p50_us > pair[0].p50_us,
                "p50 must grow with depth: {pair:?}"
            );
            assert!(pair[1].mean_depth > pair[0].mean_depth);
        }
    }

    #[test]
    fn requests_are_conserved_under_short_circuits_and_drops() {
        let mut bench = tiny(LoadBackend::Memcached);
        bench.auth_reject_rate = 0.3;
        bench.queue_capacity = 4;
        bench.offered_fraction = 2.0; // force drops at the bounded queue
        bench.sweep = vec![PipelineSetting::new(3, 0.8)];
        let p = &bench
            .run_trial(&PlatformId::Qemu.build(), &mut SimRng::seed_from(94))
            .unwrap()[0];
        assert_eq!(
            p.completed + p.short_circuited + p.dropped,
            bench.requests_per_point as u64
        );
        assert!(p.short_circuited > 0, "30% rejection must short-circuit");
        assert!(p.dropped > 0, "2x overload must hit the admission bound");
        assert!(p.short_circuit_fraction > 0.2 && p.short_circuit_fraction < 0.4);
    }

    #[test]
    fn a_cold_cache_warms_toward_its_target_hit_rate() {
        let mut warm = tiny(LoadBackend::Memcached);
        warm.cache_warm_after = 0;
        warm.sweep = vec![PipelineSetting::new(2, 0.9)];
        let mut cold = warm.clone();
        cold.cache_warm_after = 5_000; // warms over ~8x the request count
        let platform = PlatformId::Native.build();
        let hot = warm
            .run_trial(&platform, &mut SimRng::seed_from(95))
            .unwrap()[0]
            .cache_hit_fraction;
        let ramp = cold
            .run_trial(&platform, &mut SimRng::seed_from(95))
            .unwrap()[0]
            .cache_hit_fraction;
        assert!(
            (hot - 0.9).abs() < 0.05,
            "pre-warmed cache must hit near its target, got {hot}"
        );
        assert!(
            ramp < hot * 0.5,
            "a slowly warming cache must hit far less, got {ramp} vs {hot}"
        );
    }

    #[test]
    fn a_full_hit_cache_equals_the_cacheless_constant_cost_chain() {
        // Chain-level equivalence: a stage whose cache always hits is the
        // same stage with the hit cost folded into its in-phase cost.
        let cached = Stage::try_new("auth", 10.0, 0.0)
            .unwrap()
            .with_cache(5.0, 500.0, 1.0, 0)
            .unwrap();
        let folded = Stage::try_new("auth", 15.0, 0.0).unwrap();
        let tail = Stage::try_new("transform", 12.0, 0.0)
            .unwrap()
            .with_out_phase(4.0, 0.0)
            .unwrap();
        let mut a = MiddlewareChain::new(vec![cached, tail.clone()]);
        let mut b = MiddlewareChain::new(vec![folded, tail]);
        let mut root = SimRng::seed_from(96);
        let mut rngs_a: Vec<SimRng> = (0..2).map(|i| root.split(&format!("a{i}"))).collect();
        let mut rngs_b: Vec<SimRng> = (0..2).map(|i| root.split(&format!("b{i}"))).collect();
        for _ in 0..200 {
            let ta = a.traverse(&mut rngs_a);
            let tb = b.traverse(&mut rngs_b);
            assert_eq!(ta.stage_cost, tb.stage_cost);
            assert_eq!(ta.stages_traversed, tb.stages_traversed);
        }
    }

    #[test]
    fn zero_stage_chain_matches_the_plain_loadgen_path_bit_for_bit() {
        // The degenerate-config regression contract: a depth-0 pipeline
        // must replay the plain SlotPool load sweep exactly — identical
        // streams, identical event schedule, identical measurements.
        for backend in [LoadBackend::Memcached, LoadBackend::Mysql] {
            let pipeline = PipelineBenchmark {
                sweep: vec![PipelineSetting::new(0, BASELINE_HIT_RATE)],
                offered_fraction: 0.8,
                ..tiny(backend)
            };
            let loadgen = LoadgenBenchmark {
                clients: 64,
                requests_per_point: 600,
                runs: 1,
                load_points: vec![0.8],
                ..LoadgenBenchmark::quick(backend)
            };
            for platform in [PlatformId::Native, PlatformId::GvisorPtrace] {
                let platform = platform.build();
                let p = &pipeline
                    .run_trial(&platform, &mut SimRng::seed_from(97))
                    .unwrap()[0];
                let l = &loadgen
                    .run_trial(&platform, &mut SimRng::seed_from(97))
                    .unwrap()[0];
                assert_eq!(p.offered_per_sec, l.offered_per_sec);
                assert_eq!(p.achieved_per_sec, l.achieved_per_sec);
                assert_eq!(p.p50_us, l.p50_us);
                assert_eq!(p.p95_us, l.p95_us);
                assert_eq!(p.p99_us, l.p99_us);
                assert_eq!(p.mean_us, l.mean_us);
                assert_eq!(p.completed, l.completed);
                assert_eq!(p.dropped, l.dropped);
                assert_eq!(p.peak_in_flight, l.peak_in_flight);
                assert_eq!(p.mean_in_flight, l.mean_in_flight);
                assert_eq!(p.stage_tax_us, 0.0);
                assert_eq!(p.short_circuited, 0);
            }
        }
    }

    #[test]
    fn zero_cost_single_stage_chain_matches_the_loadgen_timings_bit_for_bit() {
        // A single stage with all-zero costs, no short-circuit and a
        // free cache consumes no timing-relevant draws: every latency
        // and throughput figure must equal the plain loadgen path's.
        let pipeline = PipelineBenchmark {
            sweep: vec![PipelineSetting::new(1, BASELINE_HIT_RATE)],
            offered_fraction: 0.8,
            stage_in_frac: 0.0,
            stage_out_frac: 0.0,
            cache_hit_frac: 0.0,
            cache_miss_frac: 0.0,
            auth_reject_rate: 0.0,
            ..tiny(LoadBackend::Memcached)
        };
        let loadgen = LoadgenBenchmark {
            clients: 64,
            requests_per_point: 600,
            runs: 1,
            load_points: vec![0.8],
            ..LoadgenBenchmark::quick(LoadBackend::Memcached)
        };
        let platform = PlatformId::Docker.build();
        let p = &pipeline
            .run_trial(&platform, &mut SimRng::seed_from(98))
            .unwrap()[0];
        let l = &loadgen
            .run_trial(&platform, &mut SimRng::seed_from(98))
            .unwrap()[0];
        assert_eq!(p.offered_per_sec, l.offered_per_sec);
        assert_eq!(p.achieved_per_sec, l.achieved_per_sec);
        assert_eq!(p.p50_us, l.p50_us);
        assert_eq!(p.p95_us, l.p95_us);
        assert_eq!(p.p99_us, l.p99_us);
        assert_eq!(p.mean_us, l.mean_us);
        assert_eq!(p.completed, l.completed);
        assert_eq!(p.dropped, l.dropped);
        assert_eq!(p.peak_in_flight, l.peak_in_flight);
        assert_eq!(p.mean_in_flight, l.mean_in_flight);
        assert_eq!(p.mean_depth, 1.0, "every request enters the free stage");
    }

    #[test]
    fn tracing_is_observation_only_and_reconstructs_stage_spans() {
        use simcore::obs::ObsConfig;
        let mut bench = tiny(LoadBackend::Memcached);
        bench.auth_reject_rate = 0.1;
        let setting = PipelineSetting::new(3, 0.8);
        bench.sweep = vec![setting];
        let platform = PlatformId::Native.build();
        let plain = &bench
            .run_trial(&platform, &mut SimRng::seed_from(101))
            .unwrap()[0];
        let recorder = Recorder::try_new(ObsConfig::new(5, 1.0)).unwrap();
        let (traced, recorder) = bench
            .run_setting_traced(&platform, &setting, &mut SimRng::seed_from(101), recorder)
            .unwrap();
        assert_eq!(*plain, traced, "the recorder must not perturb the run");
        let spans = recorder.spans();
        let has = |k: SpanKind| spans.iter().any(|s| s.kind == k);
        assert!(has(SpanKind::AdmissionWait) && has(SpanKind::SlotService));
        assert!(has(SpanKind::StageIn) && has(SpanKind::StageOut));
        assert!(has(SpanKind::CacheHit) && has(SpanKind::CacheMiss));
        assert!(has(SpanKind::ShortCircuit), "10% rejection must appear");
        // The stage lanes carry the cache series; the pool lane carries
        // admission and service.
        let timeline = recorder.timeline_json("pipeline", 101);
        assert!(timeline.contains("\"lane\": \"pool\""));
        assert!(timeline.contains("\"lane\": \"s0:auth\""));
        assert!(timeline.contains("\"lane\": \"s1:session\""));
    }

    #[test]
    fn degenerate_stage_models_fail_loudly() {
        assert!(Stage::try_new("auth", f64::NAN, 0.2).is_err());
        assert!(Stage::try_new("auth", -1.0, 0.2).is_err());
        assert!(Stage::try_new("auth", f64::INFINITY, 0.2).is_err());
        assert!(Stage::try_new("auth", 10.0, -0.1).is_err());
        assert!(Stage::try_new("auth", 10.0, f64::NAN).is_err());
        let stage = || Stage::try_new("auth", 10.0, 0.2).unwrap();
        assert!(stage().with_out_phase(f64::NEG_INFINITY, 0.0).is_err());
        assert!(stage().with_out_phase(5.0, -1.0).is_err());
        assert!(stage().with_short_circuit(1.5).is_err());
        assert!(stage().with_short_circuit(-0.1).is_err());
        assert!(stage().with_short_circuit(f64::NAN).is_err());
        assert!(stage().with_cache(-5.0, 50.0, 0.9, 0).is_err());
        assert!(stage().with_cache(5.0, f64::NAN, 0.9, 0).is_err());
        assert!(stage().with_cache(5.0, 50.0, 1.1, 0).is_err());
        // A degenerate benchmark configuration surfaces through run_trial.
        let bench = PipelineBenchmark {
            stage_in_frac: f64::NAN,
            ..tiny(LoadBackend::Memcached)
        };
        assert!(bench
            .run_trial(&PlatformId::Native.build(), &mut SimRng::seed_from(99))
            .is_err());
        // A point's hit rate is checked where its chain is built.
        let bad_hit_rate = PipelineBenchmark {
            sweep: vec![PipelineSetting::new(2, 1.5)],
            ..tiny(LoadBackend::Memcached)
        };
        assert!(bad_hit_rate
            .run_trial(&PlatformId::Native.build(), &mut SimRng::seed_from(99))
            .is_err());
        let empty_pool = PipelineBenchmark {
            servers: 0,
            ..tiny(LoadBackend::Memcached)
        };
        assert!(empty_pool
            .run_trial(&PlatformId::Native.build(), &mut SimRng::seed_from(99))
            .is_err());
        for offered_fraction in [f64::NAN, f64::INFINITY, -1.0] {
            let bad_load = PipelineBenchmark {
                offered_fraction,
                ..tiny(LoadBackend::Memcached)
            };
            assert!(
                bad_load
                    .run_trial(&PlatformId::Native.build(), &mut SimRng::seed_from(99))
                    .is_err(),
                "must reject offered fraction {offered_fraction}"
            );
        }
    }

    #[test]
    fn per_connection_accounting_balances() {
        let bench = tiny(LoadBackend::Mysql);
        let platform = PlatformId::Qemu.build();
        let profile = bench.service_profile(&platform).unwrap();
        let offered = profile.capacity_per_sec() * 0.8;
        let mut rng = SimRng::seed_from(84);
        let mut draws = TrialDraws::split(profile, bench.requests_per_point, &mut rng);
        let arrivals = ArrivalSource::Counted {
            gaps: &mut draws.gaps,
            next: 0,
            per_sec: offered,
            remaining: bench.requests_per_point as u64,
        };
        let slots = ClassConfig {
            weight: 1,
            queue_capacity: bench.queue_capacity,
            mean_cost: profile.service_time,
        };
        let mut backend = BackendState::build(bench.backend);
        let class = ClientClass::new(
            "pool",
            arrivals,
            slots,
            &mut draws.service,
            bench.clients,
            &mut backend,
        );
        let mut sim = PipelineSim::new(
            vec![class],
            profile.servers,
            SlotPolicy::FifoArrival,
            PointChain::empty(),
            rng.split("m"),
            bench.op_sample_every,
            (0, Nanos::ZERO),
            None,
        )
        .unwrap();
        sim.run();
        let conns = &sim.classes[0].conns;
        let issued: u64 = conns.iter().map(|c| c.issued).sum();
        let completed: u64 = conns.iter().map(|c| c.completed).sum();
        let dropped: u64 = conns.iter().map(|c| c.dropped).sum();
        assert_eq!(issued, bench.requests_per_point as u64);
        assert_eq!(issued, completed + dropped);
        assert!(
            conns.iter().filter(|c| c.issued > 0).count() > bench.clients / 2,
            "arrivals must spread over the connection population"
        );
    }

    #[test]
    fn a_point_without_requests_is_a_configuration_error() {
        let bench = PipelineBenchmark {
            requests_per_point: 0,
            ..tiny(LoadBackend::Memcached)
        };
        let platform = PlatformId::Native.build();
        assert!(matches!(
            bench.run_trial(&platform, &mut SimRng::seed_from(102)),
            Err(SimError::InvalidConfig(_))
        ));
        let recorder = Recorder::try_new(simcore::obs::ObsConfig::new(5, 1.0)).unwrap();
        let setting = PipelineSetting::new(2, BASELINE_HIT_RATE);
        assert!(bench
            .run_setting_traced(&platform, &setting, &mut SimRng::seed_from(102), recorder)
            .is_err());
        // A zero fraction is valid: it runs, and reports, the 1 req/s floor.
        let idle = PipelineBenchmark {
            offered_fraction: 0.0,
            sweep: vec![setting],
            ..tiny(LoadBackend::Memcached)
        };
        let points = idle
            .run_trial(&platform, &mut SimRng::seed_from(102))
            .unwrap();
        assert_eq!(points[0].offered_per_sec, 1.0);
    }

    #[test]
    fn a_quick_trial_draws_each_shared_sample_once() {
        // The regression guard of the draw tables: every point reads the
        // trial's samples by index, so no table holds more entries than
        // the busiest point that reads it consumed. A point that drew its
        // own samples would leave the tables short; one that appended
        // past another point's would grow them.
        for backend in [LoadBackend::Memcached, LoadBackend::Mysql] {
            let bench = PipelineBenchmark::quick(backend);
            let (points, draws) = bench
                .sweep_trial(&PlatformId::Docker.build(), &mut SimRng::seed_from(2021))
                .unwrap();
            // Every dispatched request responds before the run ends.
            let dispatched = |min_depth: usize| {
                points
                    .iter()
                    .filter(|p| p.depth >= min_depth)
                    .map(|p| (p.completed + p.short_circuited) as usize)
                    .max()
                    .unwrap()
            };
            assert_eq!(draws.gaps.len(), bench.requests_per_point);
            assert_eq!(draws.service.len(), dispatched(0));
            let deepest = bench.sweep.iter().map(|s| s.depth).max().unwrap();
            assert_eq!(draws.stages.len(), deepest);
            // Every dispatch enters stage 0; one past a short-circuit
            // leaves the later stages' records unread.
            assert_eq!(draws.stages[0].draws.len(), dispatched(1));
            for (i, table) in draws.stages.iter().enumerate() {
                let (len, bound) = (table.draws.len(), dispatched(i + 1));
                assert!(
                    len > 0 && len <= bound,
                    "{backend:?} stage {i}: {len} records for {bound} dispatches"
                );
            }
        }
    }

    #[test]
    fn the_miss_storm_overloads_the_planned_capacity() {
        let mut bench = tiny(LoadBackend::Memcached);
        bench.sweep = vec![
            PipelineSetting::new(4, BASELINE_HIT_RATE),
            PipelineSetting::storm(4, 0.0, BASELINE_HIT_RATE),
        ];
        let points = bench
            .run_trial(&PlatformId::Native.build(), &mut SimRng::seed_from(100))
            .unwrap();
        let (warm, storm) = (&points[0], &points[1]);
        assert_eq!(
            warm.offered_per_sec, storm.offered_per_sec,
            "the storm runs at the load planned for the warm cache"
        );
        assert!(
            storm.p99_us > warm.p99_us * 1.5,
            "a cold cache under warm-planned load must blow up the tail: \
             {} vs {}",
            storm.p99_us,
            warm.p99_us
        );
        assert!(storm.cache_hit_fraction < 0.01);
    }
}
