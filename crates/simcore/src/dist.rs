//! Parametric distributions used by the cost models.
//!
//! A cost model expresses a per-request cost as a [`Distribution`] over
//! seconds. Keeping the distribution as data (instead of closures) makes
//! calibration tables serializable and easy to inspect.

use serde::{Deserialize, Serialize};

use crate::rng::SimRng;

/// A parametric distribution from which a cost model draws samples.
///
/// # Example
///
/// ```
/// use simcore::{Distribution, SimRng};
///
/// let d = Distribution::log_normal(0.0, 0.5);
/// let mut rng = SimRng::seed_from(1);
/// let x = d.sample(&mut rng);
/// assert!(x > 0.0);
/// assert_eq!(Distribution::constant(5.0).sample(&mut rng), 5.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Distribution {
    /// Always returns the same value.
    Constant {
        /// The value returned by every sample.
        value: f64,
    },
    /// Log-normal parameterized by the underlying normal's `mu`/`sigma`.
    LogNormal {
        /// Mean of the underlying normal.
        mu: f64,
        /// Standard deviation of the underlying normal.
        sigma: f64,
    },
}

impl Distribution {
    /// A constant distribution.
    pub fn constant(value: f64) -> Self {
        Distribution::Constant { value }
    }

    /// A log-normal distribution.
    pub fn log_normal(mu: f64, sigma: f64) -> Self {
        Distribution::LogNormal { mu, sigma }
    }

    /// Draws a sample using the provided generator.
    pub fn sample(&self, rng: &mut SimRng) -> f64 {
        match *self {
            Distribution::Constant { value } => value,
            Distribution::LogNormal { mu, sigma } => rng.log_normal(mu, sigma),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_always_returns_value() {
        let mut rng = SimRng::seed_from(1);
        let d = Distribution::constant(7.5);
        for _ in 0..10 {
            assert_eq!(d.sample(&mut rng), 7.5);
        }
    }

    #[test]
    fn serde_roundtrip() {
        let d = Distribution::log_normal(1.0, 0.5);
        let json = serde_json_like(&d);
        assert!(json.contains("LogNormal"));
    }

    fn serde_json_like(d: &Distribution) -> String {
        // serde_json is not a dependency; use Debug as a stand-in for a
        // serialization smoke test plus an actual serde serialize through
        // the bincode-free path (format::Debug of the Serialize impl is not
        // possible, so just ensure the type implements Serialize).
        fn assert_serialize<T: serde::Serialize>(_t: &T) {}
        assert_serialize(d);
        format!("{d:?}")
    }
}
