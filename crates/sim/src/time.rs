//! Simulated clock types.
//!
//! [`SimTime`] is an absolute instant; [`SimDuration`] is a span. Both are
//! newtypes over a `u64` nanosecond count. 802.11 timing constants (SIFS,
//! slot, PHY header) are integral microseconds, but transmission durations at
//! 216 Mbps are fractional microseconds, so nanoseconds are the working unit.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// An absolute instant of simulated time, counted in nanoseconds from the
/// start of the run.
///
/// # Example
///
/// ```
/// use wmn_sim::{SimDuration, SimTime};
/// let t = SimTime::from_micros(10) + SimDuration::from_micros(16);
/// assert_eq!(t.as_micros_f64(), 26.0);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of simulated time, counted in nanoseconds.
///
/// # Example
///
/// ```
/// use wmn_sim::SimDuration;
/// let slot = SimDuration::from_micros(9);
/// assert_eq!((slot * 2).as_nanos(), 18_000);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimTime {
    /// The beginning of the simulation.
    pub const ZERO: SimTime = SimTime(0);
    /// The largest representable instant; used as an "infinitely far" sentinel.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Creates an instant from a nanosecond count.
    pub const fn from_nanos(ns: u64) -> Self {
        SimTime(ns)
    }

    /// Creates an instant from a microsecond count.
    pub const fn from_micros(us: u64) -> Self {
        SimTime(us * 1_000)
    }

    /// Creates an instant from whole milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimTime(ms * 1_000_000)
    }

    /// Creates an instant from seconds (fractional seconds allowed).
    ///
    /// # Panics
    ///
    /// Panics if `secs` is negative or not finite.
    pub fn from_secs_f64(secs: f64) -> Self {
        assert!(secs.is_finite() && secs >= 0.0, "invalid second count: {secs}");
        SimTime((secs * 1e9).round() as u64)
    }

    /// Returns the raw nanosecond count.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Returns the instant expressed in (possibly fractional) microseconds.
    pub fn as_micros_f64(self) -> f64 {
        self.0 as f64 / 1e3
    }

    /// Returns the instant expressed in (possibly fractional) seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Time elapsed since `earlier`, saturating to zero if `earlier` is later.
    pub fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }
}

impl SimDuration {
    /// The empty span.
    pub const ZERO: SimDuration = SimDuration(0);
    /// The largest representable span; used as an "infinite" sentinel.
    pub const MAX: SimDuration = SimDuration(u64::MAX);
    /// The longest span a valid scenario lets one quantity take: the run's
    /// length, a timing constant, a back-off, an airtime, a random draw, a
    /// propagation delay. 2⁵⁵ ns, about 417 days: an instant inside a run
    /// plus 500 such spans still fits in `u64` nanoseconds.
    pub const LIMIT: SimDuration = SimDuration(1 << 55);

    /// Creates a span from a nanosecond count.
    pub const fn from_nanos(ns: u64) -> Self {
        SimDuration(ns)
    }

    /// Creates a span from a microsecond count.
    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us * 1_000)
    }

    /// Creates a span from whole milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms * 1_000_000)
    }

    /// Creates a span from seconds (fractional seconds allowed).
    ///
    /// # Panics
    ///
    /// Panics if `secs` is negative or not finite.
    pub fn from_secs_f64(secs: f64) -> Self {
        assert!(secs.is_finite() && secs >= 0.0, "invalid second count: {secs}");
        SimDuration((secs * 1e9).round() as u64)
    }

    /// Creates a span from fractional microseconds, rounding to nanoseconds.
    ///
    /// # Panics
    ///
    /// Panics if `us` is negative or not finite.
    pub fn from_micros_f64(us: f64) -> Self {
        assert!(us.is_finite() && us >= 0.0, "invalid microsecond count: {us}");
        SimDuration((us * 1e3).round() as u64)
    }

    /// Returns the raw nanosecond count.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Returns the span expressed in (possibly fractional) microseconds.
    pub fn as_micros_f64(self) -> f64 {
        self.0 as f64 / 1e3
    }

    /// Returns the span expressed in (possibly fractional) seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Saturating subtraction: `self - other`, or zero if `other` is larger.
    pub fn saturating_sub(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(other.0))
    }

    /// How many whole copies of `unit` fit in this span.
    ///
    /// # Panics
    ///
    /// Panics if `unit` is zero.
    pub fn div_duration(self, unit: SimDuration) -> u64 {
        assert!(unit.0 > 0, "division by zero duration");
        self.0 / unit.0
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    fn sub(self, rhs: SimTime) -> SimDuration {
        SimDuration(self.0.checked_sub(rhs.0).expect("SimTime subtraction underflow"))
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.checked_sub(rhs.0).expect("SimTime subtraction underflow"))
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.checked_sub(rhs.0).expect("SimDuration subtraction underflow"))
    }
}

impl SubAssign for SimDuration {
    fn sub_assign(&mut self, rhs: SimDuration) {
        self.0 = self.0.checked_sub(rhs.0).expect("SimDuration subtraction underflow");
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 * rhs)
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl Sum for SimDuration {
    fn sum<I: Iterator<Item = SimDuration>>(iter: I) -> SimDuration {
        iter.fold(SimDuration::ZERO, Add::add)
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={:.3}us", self.as_micros_f64())
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

impl fmt::Debug for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}us", self.as_micros_f64())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}us", self.as_micros_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn micros_roundtrip() {
        let d = SimDuration::from_micros(16);
        assert_eq!(d.as_nanos(), 16_000);
        assert_eq!(d.as_micros_f64(), 16.0);
    }

    #[test]
    fn time_arithmetic() {
        let t0 = SimTime::from_micros(100);
        let t1 = t0 + SimDuration::from_micros(34);
        assert_eq!(t1 - t0, SimDuration::from_micros(34));
        assert_eq!(t1 - SimDuration::from_micros(34), t0);
    }

    #[test]
    fn saturating_since_clamps() {
        let early = SimTime::from_micros(5);
        let late = SimTime::from_micros(9);
        assert_eq!(early.saturating_since(late), SimDuration::ZERO);
        assert_eq!(late.saturating_since(early), SimDuration::from_micros(4));
    }

    #[test]
    fn div_duration_counts_whole_slots() {
        let elapsed = SimDuration::from_micros(31);
        let slot = SimDuration::from_micros(9);
        assert_eq!(elapsed.div_duration(slot), 3);
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn sub_underflow_panics() {
        let _ = SimTime::from_micros(1) - SimTime::from_micros(2);
    }

    #[test]
    fn from_secs_f64_rounds() {
        assert_eq!(SimTime::from_secs_f64(1e-9).as_nanos(), 1);
        assert_eq!(SimDuration::from_secs_f64(10.0).as_secs_f64(), 10.0);
    }

    #[test]
    fn duration_scaling() {
        let slot = SimDuration::from_micros(9);
        assert_eq!(slot * 3, SimDuration::from_micros(27));
        assert_eq!(SimDuration::from_micros(27) / 3, slot);
    }

    #[test]
    fn display_formats_are_nonempty() {
        assert!(!format!("{}", SimTime::ZERO).is_empty());
        assert!(!format!("{:?}", SimDuration::ZERO).is_empty());
    }

    #[test]
    fn sum_of_durations() {
        let total: SimDuration = [1u64, 2, 3].iter().map(|&us| SimDuration::from_micros(us)).sum();
        assert_eq!(total, SimDuration::from_micros(6));
    }
}
