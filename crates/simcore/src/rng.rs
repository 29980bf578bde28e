//! Seeded random number generation for reproducible experiments.
//!
//! Every experiment in the harness derives all of its stochastic behaviour
//! from a single root seed, split per platform and per run, so two
//! invocations with the same seed produce bit-identical figures.

/// One splitmix64 step: advances the state and returns the mixed output.
/// This is the same finalizer [`SimRng::seed_from`] uses for state
/// expansion and the canonical mixing function for seed derivation.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// FNV-1a over a label, used to fold experiment/platform names into a
/// derived seed.
fn fnv1a(label: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in label.as_bytes() {
        h ^= u64::from(*byte);
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

/// Mixes a seed and a salt into a uniformly distributed 64-bit value.
///
/// The mix is **stateless** — a pure function of its two arguments — so a
/// per-item decision (e.g. "is request `i` trace-sampled?") can be made
/// anywhere, in any order, without consuming a draw from any simulation
/// stream. That is what keeps trace sampling from perturbing the common
/// random numbers the sweeps are coupled by: sampling on or off, every
/// arrival/service/key stream sees exactly the same draw sequence.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut state = seed ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    let first = splitmix64(&mut state);
    first ^ splitmix64(&mut state)
}

/// Derives the 64-bit seed of one `(experiment, platform, trial)` cell of
/// the evaluation grid from the root seed.
///
/// The derivation is **stateless**: it depends only on its four arguments,
/// never on how many other cells were derived before it or in which order.
/// That is the property the parallel experiment executor relies on to make
/// results bit-identical regardless of worker count or completion order.
///
/// Each component is folded in with a full splitmix64 round, so cells that
/// differ in any single component (including label pairs with the same
/// concatenation, e.g. `("ab", "c")` vs `("a", "bc")`) get independent
/// streams.
pub fn derive_seed(root_seed: u64, experiment: &str, platform: &str, trial: u64) -> u64 {
    let mut state = root_seed;
    let mut seed = splitmix64(&mut state);
    state ^= fnv1a(experiment);
    seed ^= splitmix64(&mut state);
    state ^= fnv1a(platform);
    seed ^= splitmix64(&mut state);
    state ^= trial;
    seed ^ splitmix64(&mut state)
}

/// Derives the independent random stream of one `(experiment, platform,
/// trial)` cell from the root seed; see [`derive_seed`].
///
/// # Example
///
/// ```
/// use simcore::rng;
///
/// let mut a = rng::derive(2021, "fig11_iperf", "native", 0);
/// let mut b = rng::derive(2021, "fig11_iperf", "native", 0);
/// let mut c = rng::derive(2021, "fig11_iperf", "native", 1);
/// assert_eq!(a.next_u64(), b.next_u64());
/// assert_ne!(b.next_u64(), c.next_u64());
/// ```
pub fn derive(root_seed: u64, experiment: &str, platform: &str, trial: u64) -> SimRng {
    SimRng::seed_from(derive_seed(root_seed, experiment, platform, trial))
}

/// A seeded random number generator with the sampling helpers the cost
/// models need (normal, log-normal, exponential, Zipf).
///
/// The generator is a self-contained xoshiro256++ (seeded by splitmix64
/// expansion of the 64-bit seed) so the workspace carries no external RNG
/// dependency; the distributions are the standard textbook transforms
/// (Box–Muller, inverse CDF) which is all the cost models require.
///
/// # Example
///
/// ```
/// use simcore::SimRng;
///
/// let mut a = SimRng::seed_from(7);
/// let mut b = SimRng::seed_from(7);
/// assert_eq!(a.next_u64(), b.next_u64());
/// ```
#[derive(Debug, Clone)]
pub struct SimRng {
    state: [u64; 4],
}

impl SimRng {
    /// Creates a generator from a 64-bit seed.
    pub fn seed_from(seed: u64) -> Self {
        // splitmix64 expansion, the canonical way to seed xoshiro state.
        let mut s = seed;
        SimRng {
            state: [
                splitmix64(&mut s),
                splitmix64(&mut s),
                splitmix64(&mut s),
                splitmix64(&mut s),
            ],
        }
    }

    /// Derives an independent child generator for a named sub-domain.
    ///
    /// The label is hashed into the child's seed so that, for example, the
    /// "docker" and "gvisor" streams of the same experiment never share a
    /// sequence even though they originate from the same root seed.
    pub fn split(&mut self, label: &str) -> SimRng {
        let salt = self.next_u64();
        SimRng::seed_from(fnv1a(label) ^ salt)
    }

    /// Returns the next raw 64-bit value (xoshiro256++).
    pub fn next_u64(&mut self) -> u64 {
        let [s0, s1, s2, s3] = self.state;
        let result = s0.wrapping_add(s3).rotate_left(23).wrapping_add(s0);
        let t = s1 << 17;
        let mut s2 = s2 ^ s0;
        let mut s3 = s3 ^ s1;
        let s1 = s1 ^ s2;
        let s0 = s0 ^ s3;
        s2 ^= t;
        s3 = s3.rotate_left(45);
        self.state = [s0, s1, s2, s3];
        result
    }

    /// Uniform sample in `[0, 1)`.
    pub fn uniform01(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform integer sample in `[0, n)`. Returns 0 when `n == 0`.
    pub fn index(&mut self, n: usize) -> usize {
        if n == 0 {
            0
        } else {
            (self.next_u64() % n as u64) as usize
        }
    }

    /// Returns `true` with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        let p = p.clamp(0.0, 1.0);
        self.uniform01() < p
    }

    /// Normal (Gaussian) sample via the Box–Muller transform.
    pub fn normal(&mut self, mean: f64, std_dev: f64) -> f64 {
        if std_dev <= 0.0 {
            return mean;
        }
        let u1 = self.uniform01().max(f64::MIN_POSITIVE);
        let u2 = self.uniform01();
        let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
        mean + std_dev * z
    }

    /// Normal sample truncated below at zero, convenient for latencies.
    pub fn normal_pos(&mut self, mean: f64, std_dev: f64) -> f64 {
        self.normal(mean, std_dev).max(0.0)
    }

    /// Log-normal sample parameterized by the mean and standard deviation of
    /// the underlying normal.
    pub fn log_normal(&mut self, mu: f64, sigma: f64) -> f64 {
        self.normal(mu, sigma).exp()
    }

    /// Exponential sample with the given rate (`lambda`).
    pub fn exponential(&mut self, lambda: f64) -> f64 {
        if lambda <= 0.0 {
            return 0.0;
        }
        let u = self.uniform01().max(f64::MIN_POSITIVE);
        -u.ln() / lambda
    }

    /// Zipfian rank sample over `n` items with skew `theta` (0 = uniform).
    ///
    /// A one-shot [`Zipf::new`]`(n, theta).sample(self)`: it sums the O(n)
    /// normaliser on every call, so a caller drawing repeatedly from one
    /// `(n, theta)` should build a [`Zipf`] once and sample from it.
    pub fn zipf(&mut self, n: usize, theta: f64) -> usize {
        Zipf::new(n, theta).sample(self)
    }
}

/// A Zipfian rank sampler over `n` items with skew `theta` (0 = uniform),
/// built once per `(n, theta)`.
///
/// Uses the rejection-free approximation from Gray et al., "Quickly
/// Generating Billion-Record Synthetic Databases" (SIGMOD '94), that the
/// YCSB workload generator is also based on, so the key-popularity profile
/// of the Memcached experiment matches the original benchmark. [`Zipf::new`]
/// pays the O(n) normaliser ζ(n, θ) once; each [`Zipf::sample`] costs one
/// uniform draw and at most one `powf`. Every rank and every stream
/// position is bit-identical to evaluating the whole formula per draw.
///
/// # Example
///
/// ```
/// use simcore::{SimRng, Zipf};
///
/// let zipf = Zipf::new(2_000, 0.99);
/// let mut a = SimRng::seed_from(7);
/// let mut b = SimRng::seed_from(7);
/// for _ in 0..100 {
///     let rank = zipf.sample(&mut a);
///     assert!(rank < 2_000);
///     assert_eq!(rank, b.zipf(2_000, 0.99));
/// }
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Zipf {
    n: usize,
    theta: f64,
    /// ζ(n, θ), the normaliser.
    zetan: f64,
    alpha: f64,
    eta: f64,
    /// `u·ζ(n, θ)` below this bound (and at least 1) draws rank 1.
    rank1_bound: f64,
}

impl Zipf {
    /// Precomputes the draw-independent terms of the sampler.
    pub fn new(n: usize, theta: f64) -> Self {
        let n_f = n as f64;
        let zetan = zeta(n, theta);
        let alpha = 1.0 / (1.0 - theta);
        let eta = (1.0 - (2.0 / n_f).powf(1.0 - theta)) / (1.0 - zeta(2, theta) / zetan);
        Zipf {
            n,
            theta,
            zetan,
            alpha,
            eta,
            rank1_bound: 1.0 + 0.5_f64.powf(theta),
        }
    }

    /// Draws one rank in `[0, n)`. Returns 0 without drawing when
    /// `n <= 1`; `theta <= 0` draws a uniform [`SimRng::index`].
    pub fn sample(&self, rng: &mut SimRng) -> usize {
        if self.n <= 1 {
            return 0;
        }
        if self.theta <= 0.0 {
            return rng.index(self.n);
        }
        let u = rng.uniform01();
        let uz = u * self.zetan;
        if uz < 1.0 {
            return 0;
        }
        if uz < self.rank1_bound {
            return 1;
        }
        let rank = (self.n as f64 * (self.eta * u - self.eta + 1.0).powf(self.alpha)) as usize;
        rank.min(self.n - 1)
    }
}

fn zeta(n: usize, theta: f64) -> f64 {
    (1..=n).map(|i| 1.0 / (i as f64).powf(theta)).sum()
}

/// A random stream read by index: the values already drawn from it, and
/// the stream that yields the rest.
///
/// The sweeps couple their points by common random numbers: every point
/// consumes the same sample sequence. A trial holds one `Replay` per
/// shared stream and each point reads value `i` with [`Replay::get`]
/// where it would take the `i`-th draw of its own clone of the stream, so
/// each sample is drawn once per trial however many points read it.
/// Value `i` is the `i`-th draw whatever order the indices are read in,
/// provided every call samples with the same `draw`.
///
/// # Example
///
/// ```
/// use simcore::{Replay, SimRng};
///
/// let mut gaps = Replay::new(SimRng::seed_from(7));
/// let third = gaps.get(2, |rng| rng.exponential(1.0));
/// let first = gaps.get(0, |rng| rng.exponential(1.0));
/// let mut clone = SimRng::seed_from(7);
/// assert_eq!(first, clone.exponential(1.0));
/// clone.exponential(1.0);
/// assert_eq!(third, clone.exponential(1.0));
/// assert_eq!(gaps.len(), 3);
/// ```
#[derive(Debug, Clone)]
pub struct Replay<T> {
    rng: SimRng,
    values: Vec<T>,
}

impl<T: Copy> Replay<T> {
    /// A table over `rng` with nothing drawn yet.
    pub fn new(rng: SimRng) -> Self {
        Replay::with_capacity(rng, 0)
    }

    /// A table over `rng` with room for `capacity` values before it
    /// reallocates.
    pub fn with_capacity(rng: SimRng, capacity: usize) -> Self {
        Replay {
            rng,
            values: Vec::with_capacity(capacity),
        }
    }

    /// Value `i` of the stream. Values up to `i` not drawn yet are drawn
    /// first, in order, with `draw`.
    #[inline]
    pub fn get(&mut self, i: usize, mut draw: impl FnMut(&mut SimRng) -> T) -> T {
        while self.values.len() <= i {
            let value = draw(&mut self.rng);
            self.values.push(value);
        }
        self.values[i]
    }

    /// Number of values drawn so far.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether nothing has been drawn yet.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_sequence() {
        let mut a = SimRng::seed_from(123);
        let mut b = SimRng::seed_from(123);
        let xs: Vec<u64> = (0..16).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..16).map(|_| b.next_u64()).collect();
        assert_eq!(xs, ys);
    }

    #[test]
    fn same_seed_same_stream_across_all_samplers() {
        let mut a = SimRng::seed_from(2021);
        let mut b = SimRng::seed_from(2021);
        for _ in 0..64 {
            assert_eq!(a.uniform01(), b.uniform01());
            assert_eq!(a.index(17), b.index(17));
            assert_eq!(a.normal(5.0, 2.0), b.normal(5.0, 2.0));
            assert_eq!(a.exponential(0.5), b.exponential(0.5));
            assert_eq!(a.zipf(100, 0.99), b.zipf(100, 0.99));
        }
    }

    #[test]
    fn split_is_deterministic_for_same_label() {
        let mut root_a = SimRng::seed_from(2021);
        let mut root_b = SimRng::seed_from(2021);
        let mut docker_a = root_a.split("docker");
        let mut docker_b = root_b.split("docker");
        let xs: Vec<u64> = (0..16).map(|_| docker_a.next_u64()).collect();
        let ys: Vec<u64> = (0..16).map(|_| docker_b.next_u64()).collect();
        assert_eq!(xs, ys);
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SimRng::seed_from(1);
        let mut b = SimRng::seed_from(2);
        let xs: Vec<u64> = (0..16).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..16).map(|_| b.next_u64()).collect();
        assert_ne!(xs, ys);
    }

    #[test]
    fn split_streams_differ_by_label() {
        let mut root_a = SimRng::seed_from(9);
        let mut root_b = SimRng::seed_from(9);
        let mut docker = root_a.split("docker");
        let mut gvisor = root_b.split("gvisor");
        let xs: Vec<u64> = (0..8).map(|_| docker.next_u64()).collect();
        let ys: Vec<u64> = (0..8).map(|_| gvisor.next_u64()).collect();
        assert_ne!(xs, ys);
    }

    #[test]
    fn mix_is_stateless_and_sensitive_to_both_arguments() {
        assert_eq!(mix(7, 42), mix(7, 42));
        assert_ne!(mix(7, 42), mix(8, 42));
        assert_ne!(mix(7, 42), mix(7, 43));
        // Sequential salts must look independent, not sequential: the
        // low bit of the mix should flip roughly half the time.
        let flips = (0..1_000u64)
            .filter(|&i| (mix(11, i) ^ mix(11, i + 1)) & 1 == 1)
            .count();
        assert!((350..650).contains(&flips), "low-bit flips: {flips}");
    }

    #[test]
    fn derive_is_stateless_and_order_independent() {
        let forward: Vec<u64> = (0..8)
            .map(|t| derive_seed(2021, "fig05_ffmpeg", "docker", t))
            .collect();
        let backward: Vec<u64> = (0..8)
            .rev()
            .map(|t| derive_seed(2021, "fig05_ffmpeg", "docker", t))
            .rev()
            .collect();
        assert_eq!(forward, backward);
    }

    #[test]
    fn derive_changes_with_every_component() {
        let base = derive_seed(1, "exp", "plat", 0);
        assert_ne!(base, derive_seed(2, "exp", "plat", 0));
        assert_ne!(base, derive_seed(1, "exp2", "plat", 0));
        assert_ne!(base, derive_seed(1, "exp", "plat2", 0));
        assert_ne!(base, derive_seed(1, "exp", "plat", 1));
    }

    #[test]
    fn derive_distinguishes_label_boundaries() {
        assert_ne!(
            derive_seed(7, "ab", "c", 0),
            derive_seed(7, "a", "bc", 0),
            "concatenation-equal label pairs must not collide"
        );
        assert_ne!(derive_seed(7, "", "abc", 0), derive_seed(7, "abc", "", 0));
    }

    #[test]
    fn derived_streams_are_reproducible() {
        let mut a = derive(42, "fig08_stream", "native", 3);
        let mut b = derive(42, "fig08_stream", "native", 3);
        for _ in 0..32 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn normal_mean_is_close() {
        let mut rng = SimRng::seed_from(1);
        let n = 20_000;
        let mean: f64 = (0..n).map(|_| rng.normal(50.0, 5.0)).sum::<f64>() / n as f64;
        assert!((mean - 50.0).abs() < 0.5, "mean was {mean}");
    }

    #[test]
    fn normal_with_zero_sigma_is_deterministic() {
        let mut rng = SimRng::seed_from(1);
        assert_eq!(rng.normal(42.0, 0.0), 42.0);
    }

    #[test]
    fn exponential_mean_is_close_to_inverse_rate() {
        let mut rng = SimRng::seed_from(2);
        let n = 20_000;
        let mean: f64 = (0..n).map(|_| rng.exponential(0.1)).sum::<f64>() / n as f64;
        assert!((mean - 10.0).abs() < 0.5, "mean was {mean}");
    }

    #[test]
    fn zipf_is_skewed_toward_low_ranks() {
        let mut rng = SimRng::seed_from(3);
        let zipf = Zipf::new(1000, 0.99);
        let n = 10_000;
        let mut low = 0usize;
        for _ in 0..n {
            if zipf.sample(&mut rng) < 100 {
                low += 1;
            }
        }
        // With theta=0.99 far more than 10% of samples land in the first 10%
        // of the key space.
        assert!(low > n / 2, "only {low} of {n} samples in hot range");
    }

    #[test]
    fn zipf_zero_theta_is_roughly_uniform() {
        let mut rng = SimRng::seed_from(4);
        let zipf = Zipf::new(1000, 0.0);
        let n = 10_000;
        let mut low = 0usize;
        for _ in 0..n {
            if zipf.sample(&mut rng) < 100 {
                low += 1;
            }
        }
        assert!(low < n / 5, "{low} of {n} samples in first decile");
    }

    /// The per-draw Zipf formula the precomputed sampler replaced: every
    /// term, ζ(n, θ) included, evaluated on each call.
    fn reference_zipf(rng: &mut SimRng, n: usize, theta: f64) -> usize {
        if n <= 1 {
            return 0;
        }
        if theta <= 0.0 {
            return rng.index(n);
        }
        let n_f = n as f64;
        let zetan: f64 = (1..=n).map(|i| 1.0 / (i as f64).powf(theta)).sum();
        let alpha = 1.0 / (1.0 - theta);
        let eta = (1.0 - (2.0 / n_f).powf(1.0 - theta)) / (1.0 - zeta(2, theta) / zetan);
        let u = rng.uniform01();
        let uz = u * zetan;
        if uz < 1.0 {
            return 0;
        }
        if uz < 1.0 + 0.5_f64.powf(theta) {
            return 1;
        }
        let rank = (n_f * (eta * u - eta + 1.0).powf(alpha)) as usize;
        rank.min(n - 1)
    }

    #[test]
    fn zipf_sampler_replays_the_per_draw_formula_bit_for_bit() {
        for n in [0, 1, 2, 3, 16, 2_000] {
            for theta in [-0.5, 0.0, 0.5, 0.9, 0.99, 1.0, f64::NAN] {
                let zipf = Zipf::new(n, theta);
                for seed in [1, 2021, 1729] {
                    let mut fast = SimRng::seed_from(seed);
                    let mut slow = SimRng::seed_from(seed);
                    for draw in 0..1_000 {
                        assert_eq!(
                            zipf.sample(&mut fast),
                            reference_zipf(&mut slow, n, theta),
                            "n={n} theta={theta} seed={seed} draw={draw}"
                        );
                    }
                    assert_eq!(
                        fast.next_u64(),
                        slow.next_u64(),
                        "n={n} theta={theta} seed={seed}: stream positions diverged"
                    );
                }
            }
        }
    }

    #[test]
    fn chance_handles_extremes() {
        let mut rng = SimRng::seed_from(5);
        assert!(!rng.chance(0.0));
        assert!(rng.chance(1.0));
    }
}
