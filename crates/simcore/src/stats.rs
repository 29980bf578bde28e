//! Statistics used by the benchmark harness.
//!
//! The paper reports "average over the runs with error bars showing the
//! standard deviation", plus CDFs for the start-up experiments and a 90th
//! percentile for the netperf latency figure. This module implements the
//! corresponding estimators: [`RunningStats`] (Welford online mean /
//! variance) and percentile queries over an empirical [`Cdf`].

use serde::{Deserialize, Serialize};

use crate::error::SimError;

/// Online mean/variance/min/max accumulator (Welford's algorithm).
///
/// # Example
///
/// ```
/// use simcore::stats::RunningStats;
///
/// let mut s = RunningStats::new();
/// for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
///     s.record(x);
/// }
/// assert_eq!(s.mean(), 5.0);
/// assert_eq!(s.std_dev(), 2.0);
/// ```
/// Min/max are stored as `Option` rather than `±inf` sentinels so an empty
/// accumulator contains only finite values — serializing one can never leak
/// `inf` into JSON emitters, and the derived `Default` agrees with [`new`].
///
/// [`new`]: RunningStats::new
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunningStats {
    count: u64,
    mean: f64,
    m2: f64,
    min: Option<f64>,
    max: Option<f64>,
}

impl Default for RunningStats {
    fn default() -> Self {
        RunningStats::new()
    }
}

impl RunningStats {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        RunningStats {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: None,
            max: None,
        }
    }

    /// Records one observation.
    pub fn record(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        let delta2 = x - self.mean;
        self.m2 += delta * delta2;
        self.min = Some(self.min.map_or(x, |m| m.min(x)));
        self.max = Some(self.max.map_or(x, |m| m.max(x)));
    }

    /// Number of recorded observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Arithmetic mean (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population variance (0.0 when fewer than two observations).
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / self.count as f64
        }
    }

    /// Population standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Smallest observation (`None` when empty).
    pub fn min(&self) -> Option<f64> {
        self.min
    }

    /// Largest observation (`None` when empty).
    pub fn max(&self) -> Option<f64> {
        self.max
    }
}

impl Extend<f64> for RunningStats {
    fn extend<T: IntoIterator<Item = f64>>(&mut self, iter: T) {
        for x in iter {
            self.record(x);
        }
    }
}

impl FromIterator<f64> for RunningStats {
    fn from_iter<T: IntoIterator<Item = f64>>(iter: T) -> Self {
        let mut s = RunningStats::new();
        s.extend(iter);
        s
    }
}

/// Empirical cumulative distribution function over a sample set.
///
/// Used by the boot-time experiments, which the paper presents as CDFs of
/// 300 startups per platform.
///
/// # Example
///
/// ```
/// use simcore::stats::Cdf;
///
/// let cdf = Cdf::from_samples(vec![1.0, 2.0, 3.0, 4.0]).unwrap();
/// assert_eq!(cdf.percentile(50.0), 2.0);
/// assert_eq!(cdf.percentile(100.0), 4.0);
/// assert!((cdf.fraction_below(2.5) - 0.5).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Cdf {
    sorted: Vec<f64>,
}

impl Cdf {
    /// Builds a CDF from raw samples.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::EmptyDataset`] when `samples` is empty.
    pub fn from_samples(mut samples: Vec<f64>) -> Result<Self, SimError> {
        if samples.is_empty() {
            return Err(SimError::EmptyDataset(
                "cdf requires at least one sample".into(),
            ));
        }
        samples.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
        Ok(Cdf { sorted: samples })
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Always `false`: construction rejects empty sample sets.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// Returns the value at percentile `p` (0–100, nearest-rank).
    pub fn percentile(&self, p: f64) -> f64 {
        let p = p.clamp(0.0, 100.0);
        if p == 0.0 {
            return self.sorted[0];
        }
        let rank = ((p / 100.0) * self.sorted.len() as f64).ceil() as usize;
        self.sorted[rank.clamp(1, self.sorted.len()) - 1]
    }

    /// Median (50th percentile).
    pub fn median(&self) -> f64 {
        self.percentile(50.0)
    }

    /// Fraction of samples strictly below `x`.
    pub fn fraction_below(&self, x: f64) -> f64 {
        let below = self.sorted.partition_point(|v| *v < x);
        below as f64 / self.sorted.len() as f64
    }

    /// Mean of the samples.
    pub fn mean(&self) -> f64 {
        self.sorted.iter().sum::<f64>() / self.sorted.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn running_stats_known_values() {
        let s: RunningStats = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]
            .into_iter()
            .collect();
        assert_eq!(s.count(), 8);
        assert_eq!(s.mean(), 5.0);
        assert_eq!(s.variance(), 4.0);
        assert_eq!(s.min(), Some(2.0));
        assert_eq!(s.max(), Some(9.0));
    }

    #[test]
    fn empty_stats_are_safe() {
        let s = RunningStats::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.variance(), 0.0);
        assert_eq!(s.std_dev(), 0.0);
        assert_eq!(s.min(), None);
        assert_eq!(s.max(), None);
    }

    #[test]
    fn default_agrees_with_new() {
        // Regression: the derived Default used to start min/max at 0.0,
        // which silently clamped the observed range of all-positive or
        // all-negative samples recorded into a Default-constructed value.
        assert_eq!(RunningStats::default(), RunningStats::new());
        let mut d = RunningStats::default();
        let mut n = RunningStats::new();
        for x in [3.5, 7.0, -2.0] {
            d.record(x);
            n.record(x);
        }
        assert_eq!(d, n);
        assert_eq!(d.min(), Some(-2.0));
        assert_eq!(d.max(), Some(7.0));
    }

    #[test]
    fn cdf_percentiles() {
        let cdf = Cdf::from_samples((1..=100).map(f64::from).collect()).unwrap();
        assert_eq!(cdf.percentile(1.0), 1.0);
        assert_eq!(cdf.percentile(50.0), 50.0);
        assert_eq!(cdf.percentile(90.0), 90.0);
        assert_eq!(cdf.percentile(100.0), 100.0);
        assert_eq!(cdf.median(), 50.0);
    }

    #[test]
    fn cdf_rejects_empty_input() {
        assert!(matches!(
            Cdf::from_samples(vec![]),
            Err(SimError::EmptyDataset(_))
        ));
    }

    #[test]
    fn cdf_single_sample_is_every_percentile() {
        let cdf = Cdf::from_samples(vec![7.5]).unwrap();
        for p in [0.0, 0.1, 25.0, 50.0, 99.9, 100.0] {
            assert_eq!(cdf.percentile(p), 7.5);
        }
        assert_eq!(cdf.median(), 7.5);
        assert_eq!(cdf.len(), 1);
        assert!(!cdf.is_empty());
    }

    #[test]
    fn cdf_percentile_clamps_out_of_range_queries() {
        let cdf = Cdf::from_samples(vec![1.0, 2.0, 3.0]).unwrap();
        assert_eq!(cdf.percentile(-10.0), 1.0);
        assert_eq!(cdf.percentile(1e9), 3.0);
        assert_eq!(cdf.percentile(f64::NAN), 1.0);
    }

    #[test]
    fn cdf_fraction_below() {
        let cdf = Cdf::from_samples(vec![10.0, 20.0, 30.0, 40.0]).unwrap();
        assert_eq!(cdf.fraction_below(10.0), 0.0);
        assert_eq!(cdf.fraction_below(25.0), 0.5);
        assert_eq!(cdf.fraction_below(1000.0), 1.0);
    }
}
