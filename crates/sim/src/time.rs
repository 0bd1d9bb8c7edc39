//! Simulated time.
//!
//! All simulated time in this workspace is expressed in nanoseconds using the
//! [`SimTime`] newtype. Durations use [`SimDuration`]. Both are thin wrappers
//! around `u64` with saturating arithmetic so that pathological parameter
//! choices degrade gracefully instead of panicking in release builds.

use core::fmt;
use core::ops::{Add, AddAssign, Sub};

/// An absolute point in simulated time, in nanoseconds since simulation start.
///
/// # Examples
///
/// ```
/// use flash_sim::{SimTime, SimDuration};
///
/// let t = SimTime::ZERO + SimDuration::from_micros(3);
/// assert_eq!(t.as_nanos(), 3_000);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of simulated time, in nanoseconds.
///
/// # Examples
///
/// ```
/// use flash_sim::SimDuration;
///
/// assert_eq!(SimDuration::from_millis(2).as_nanos(), 2_000_000);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimTime {
    /// The start of the simulation.
    pub const ZERO: SimTime = SimTime(0);
    /// The largest representable instant; used as an "infinitely far" sentinel.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Creates a time from a raw nanosecond count.
    #[inline]
    pub const fn from_nanos(ns: u64) -> Self {
        SimTime(ns)
    }

    /// Returns the raw nanosecond count.
    #[inline]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Returns this instant expressed in (fractional) milliseconds.
    #[inline]
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1_000_000.0
    }

    /// The duration elapsed since `earlier`, saturating to zero if `earlier`
    /// is in the future.
    #[inline]
    pub fn since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// Saturating addition of a duration.
    #[inline]
    pub fn saturating_add(self, d: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(d.0))
    }
}

impl SimDuration {
    /// The empty duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Creates a duration from nanoseconds.
    #[inline]
    pub const fn from_nanos(ns: u64) -> Self {
        SimDuration(ns)
    }

    /// Creates a duration from microseconds.
    #[inline]
    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us * 1_000)
    }

    /// Creates a duration from milliseconds.
    #[inline]
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms * 1_000_000)
    }

    /// Creates a duration from seconds.
    #[inline]
    pub const fn from_secs(s: u64) -> Self {
        SimDuration(s * 1_000_000_000)
    }

    /// Returns the raw nanosecond count.
    #[inline]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Returns this duration expressed in (fractional) milliseconds.
    #[inline]
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1_000_000.0
    }

    /// Multiplies the duration by an integer factor, saturating on overflow.
    #[inline]
    pub fn saturating_mul(self, factor: u64) -> SimDuration {
        SimDuration(self.0.saturating_mul(factor))
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign<SimDuration> for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 = self.0.saturating_add(rhs.0);
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    #[inline]
    fn sub(self, rhs: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl Add<SimDuration> for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign<SimDuration> for SimDuration {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 = self.0.saturating_add(rhs.0);
    }
}

impl Sub<SimDuration> for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t+{}ns", self.0)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        format_ns(f, self.0)
    }
}

impl fmt::Debug for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}ns", self.0)
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        format_ns(f, self.0)
    }
}

/// Formats a nanosecond count with a human-friendly unit.
fn format_ns(f: &mut fmt::Formatter<'_>, ns: u64) -> fmt::Result {
    if ns >= 1_000_000_000 {
        write!(f, "{:.3}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        write!(f, "{:.3}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        write!(f, "{:.3}us", ns as f64 / 1e3)
    } else {
        write!(f, "{}ns", ns)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_accessors() {
        assert_eq!(SimTime::from_nanos(42).as_nanos(), 42);
        assert_eq!(SimDuration::from_micros(2).as_nanos(), 2_000);
        assert_eq!(SimDuration::from_millis(2).as_nanos(), 2_000_000);
        assert_eq!(SimDuration::from_secs(2).as_nanos(), 2_000_000_000);
    }

    #[test]
    fn arithmetic_saturates() {
        let t = SimTime::MAX + SimDuration::from_nanos(10);
        assert_eq!(t, SimTime::MAX);
        let d = SimTime::ZERO - SimTime::from_nanos(5);
        assert_eq!(d, SimDuration::ZERO);
        assert_eq!(
            SimDuration::from_nanos(u64::MAX)
                .saturating_mul(3)
                .as_nanos(),
            u64::MAX
        );
    }

    #[test]
    fn since_and_sub_agree() {
        let a = SimTime::from_nanos(100);
        let b = SimTime::from_nanos(160);
        assert_eq!(b.since(a), SimDuration::from_nanos(60));
        assert_eq!(b - a, SimDuration::from_nanos(60));
        assert_eq!(a.since(b), SimDuration::ZERO);
    }

    #[test]
    fn ordering_is_numeric() {
        assert!(SimTime::from_nanos(1) < SimTime::from_nanos(2));
        assert!(SimDuration::from_micros(1) > SimDuration::from_nanos(999));
    }

    #[test]
    fn display_units() {
        assert_eq!(SimTime::from_nanos(12).to_string(), "12ns");
        assert_eq!(SimDuration::from_nanos(1_500).to_string(), "1.500us");
        assert_eq!(SimDuration::from_nanos(2_500_000).to_string(), "2.500ms");
        assert_eq!(SimDuration::from_secs(3).to_string(), "3.000s");
    }

    #[test]
    fn float_conversions() {
        assert!((SimDuration::from_millis(5).as_millis_f64() - 5.0).abs() < 1e-12);
    }
}
