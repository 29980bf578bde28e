//! Virtual time used throughout the simulation.
//!
//! All simulated latencies and durations are expressed as [`Nanos`], a
//! nanosecond-precision unsigned quantity. Keeping a dedicated newtype (as
//! opposed to bare `u64` or `std::time::Duration`) makes unit mistakes a
//! compile error and keeps arithmetic saturating so cost models can never
//! underflow.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

use serde::{Deserialize, Serialize};

/// A simulated duration or point in virtual time, in nanoseconds.
///
/// # Example
///
/// ```
/// use simcore::Nanos;
///
/// let syscall = Nanos::from_nanos(180);
/// let exit = Nanos::from_micros(1);
/// let total = syscall + exit;
/// assert_eq!(total.as_nanos(), 1_180);
/// assert!((total.as_micros_f64() - 1.18).abs() < 1e-9);
/// ```
#[derive(
    Debug, Default, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize,
)]
pub struct Nanos(u64);

impl Nanos {
    /// The zero duration.
    pub const ZERO: Nanos = Nanos(0);

    /// Creates a duration from raw nanoseconds.
    pub const fn from_nanos(ns: u64) -> Self {
        Nanos(ns)
    }

    /// Creates a duration from microseconds.
    pub const fn from_micros(us: u64) -> Self {
        Nanos(us * 1_000)
    }

    /// Creates a duration from milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        Nanos(ms * 1_000_000)
    }

    /// Creates a duration from seconds.
    pub const fn from_secs(s: u64) -> Self {
        Nanos(s * 1_000_000_000)
    }

    /// Creates a duration from fractional seconds, saturating at zero for
    /// negative inputs.
    pub fn from_secs_f64(s: f64) -> Self {
        if s <= 0.0 || !s.is_finite() {
            Nanos(0)
        } else {
            Nanos((s * 1e9).round() as u64)
        }
    }

    /// Creates a duration from fractional microseconds, saturating at zero
    /// for negative inputs.
    pub fn from_micros_f64(us: f64) -> Self {
        Self::from_secs_f64(us / 1e6)
    }

    /// Returns the raw nanosecond count.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Returns the duration as fractional microseconds.
    pub fn as_micros_f64(self) -> f64 {
        self.0 as f64 / 1e3
    }

    /// Returns the duration as fractional milliseconds.
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Returns the duration as fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, rhs: Nanos) -> Nanos {
        Nanos(self.0.saturating_sub(rhs.0))
    }

    /// Multiplies the duration by a floating point factor, saturating at
    /// zero for negative factors.
    pub fn scale(self, factor: f64) -> Nanos {
        Nanos::from_secs_f64(self.as_secs_f64() * factor)
    }

    /// Returns the larger of two durations.
    pub fn max(self, other: Nanos) -> Nanos {
        if self.0 >= other.0 {
            self
        } else {
            other
        }
    }

    /// Returns the smaller of two durations.
    pub fn min(self, other: Nanos) -> Nanos {
        if self.0 <= other.0 {
            self
        } else {
            other
        }
    }
}

impl Add for Nanos {
    type Output = Nanos;
    fn add(self, rhs: Nanos) -> Nanos {
        Nanos(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign for Nanos {
    fn add_assign(&mut self, rhs: Nanos) {
        self.0 = self.0.saturating_add(rhs.0);
    }
}

impl Sub for Nanos {
    type Output = Nanos;
    fn sub(self, rhs: Nanos) -> Nanos {
        Nanos(self.0.saturating_sub(rhs.0))
    }
}

impl SubAssign for Nanos {
    fn sub_assign(&mut self, rhs: Nanos) {
        self.0 = self.0.saturating_sub(rhs.0);
    }
}

impl Mul<u64> for Nanos {
    type Output = Nanos;
    fn mul(self, rhs: u64) -> Nanos {
        Nanos(self.0.saturating_mul(rhs))
    }
}

impl Div<u64> for Nanos {
    type Output = Nanos;
    fn div(self, rhs: u64) -> Nanos {
        Nanos(self.0 / rhs.max(1))
    }
}

impl Sum for Nanos {
    fn sum<I: Iterator<Item = Nanos>>(iter: I) -> Nanos {
        iter.fold(Nanos::ZERO, |acc, x| acc + x)
    }
}

impl fmt::Display for Nanos {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000_000 {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if self.0 >= 1_000_000 {
            write!(f, "{:.3}ms", self.as_millis_f64())
        } else if self.0 >= 1_000 {
            write!(f, "{:.3}us", self.as_micros_f64())
        } else {
            write!(f, "{}ns", self.0)
        }
    }
}

impl From<u64> for Nanos {
    fn from(ns: u64) -> Self {
        Nanos(ns)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_conversion_roundtrip() {
        assert_eq!(Nanos::from_micros(2).as_nanos(), 2_000);
        assert_eq!(Nanos::from_millis(3).as_nanos(), 3_000_000);
        assert_eq!(Nanos::from_secs(1).as_nanos(), 1_000_000_000);
        assert!((Nanos::from_secs(2).as_secs_f64() - 2.0).abs() < 1e-12);
        assert!((Nanos::from_millis(5).as_millis_f64() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn negative_float_saturates_to_zero() {
        assert_eq!(Nanos::from_secs_f64(-1.0), Nanos::ZERO);
        assert_eq!(Nanos::from_secs_f64(f64::NAN), Nanos::ZERO);
    }

    #[test]
    fn arithmetic_saturates() {
        let a = Nanos::from_nanos(10);
        let b = Nanos::from_nanos(30);
        assert_eq!(a - b, Nanos::ZERO);
        assert_eq!((a + b).as_nanos(), 40);
        assert_eq!((a * 4).as_nanos(), 40);
        assert_eq!((b / 3).as_nanos(), 10);
        assert_eq!(b / 0, b); // divide-by-zero clamps the divisor to one
    }

    #[test]
    fn scale_by_factor() {
        let d = Nanos::from_micros(100);
        assert_eq!(d.scale(2.0).as_nanos(), 200_000);
        assert_eq!(d.scale(-1.0), Nanos::ZERO);
    }

    #[test]
    fn display_picks_sensible_unit() {
        assert_eq!(Nanos::from_nanos(12).to_string(), "12ns");
        assert_eq!(Nanos::from_micros(12).to_string(), "12.000us");
        assert_eq!(Nanos::from_millis(12).to_string(), "12.000ms");
        assert_eq!(Nanos::from_secs(12).to_string(), "12.000s");
    }

    #[test]
    fn sum_of_durations() {
        let total: Nanos = (1..=4).map(Nanos::from_micros).sum();
        assert_eq!(total.as_nanos(), 10_000);
    }

    #[test]
    fn min_max() {
        let a = Nanos::from_nanos(5);
        let b = Nanos::from_nanos(9);
        assert_eq!(a.max(b), b);
        assert_eq!(a.min(b), a);
    }
}
