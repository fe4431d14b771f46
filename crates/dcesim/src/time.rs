//! Integer simulation time.
//!
//! Event-driven simulation needs exact time comparison; floating-point
//! accumulation would make event ordering platform-dependent. Time is a
//! `u64` count of nanoseconds (enough for ~584 years of simulated time).

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A point in simulated time (nanoseconds since simulation start).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Time(u64);

impl Time {
    /// The simulation epoch.
    pub const ZERO: Time = Time(0);

    /// The far end of representable time (~584 years of nanoseconds).
    pub const MAX: Time = Time(u64::MAX);

    /// Creates a time from raw nanoseconds.
    #[must_use]
    pub fn from_nanos(ns: u64) -> Self {
        Time(ns)
    }

    /// Creates a time from seconds (rounded to the nearest nanosecond).
    ///
    /// # Panics
    ///
    /// Panics if `secs` is negative, non-finite, or overflows the range.
    #[must_use]
    pub fn from_secs(secs: f64) -> Self {
        assert!(secs.is_finite() && secs >= 0.0, "time must be non-negative, got {secs}");
        let ns = secs * 1e9;
        assert!(ns <= u64::MAX as f64, "time {secs} s overflows");
        Time(ns.round() as u64)
    }

    /// Raw nanoseconds.
    #[must_use]
    pub fn as_nanos(self) -> u64 {
        self.0
    }

    /// The time in (floating-point) seconds.
    #[must_use]
    pub fn as_secs(self) -> f64 {
        self.0 as f64 * 1e-9
    }

    /// Saturating subtraction.
    #[must_use]
    pub fn saturating_sub(self, other: Time) -> Duration {
        Duration(self.0.saturating_sub(other.0))
    }

    /// Checked addition: `None` when the sum would overflow the
    /// nanosecond range. Event schedulers use this so far-future
    /// timestamps saturate (to [`Time::MAX`]) instead of silently
    /// wrapping on pathological horizons.
    #[must_use]
    pub fn checked_add(self, rhs: Duration) -> Option<Time> {
        self.0.checked_add(rhs.0).map(Time)
    }
}

impl fmt::Display for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.9}s", self.as_secs())
    }
}

/// A span of simulated time (nanoseconds).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Duration(u64);

impl Duration {
    /// Zero span.
    pub const ZERO: Duration = Duration(0);

    /// Creates a duration from raw nanoseconds.
    #[must_use]
    pub fn from_nanos(ns: u64) -> Self {
        Duration(ns)
    }

    /// Creates a duration from seconds (rounded to nanoseconds; at least
    /// 1 ns for any strictly positive input so events always advance).
    ///
    /// # Panics
    ///
    /// Panics if `secs` is negative or non-finite.
    #[must_use]
    #[inline]
    pub fn from_secs(secs: f64) -> Self {
        assert!(secs.is_finite() && secs >= 0.0, "duration must be non-negative, got {secs}");
        let ns = (secs * 1e9).round() as u64;
        if ns == 0 && secs > 0.0 {
            Duration(1)
        } else {
            Duration(ns)
        }
    }

    /// The serialization time of `bits` on a link of `rate_bps`.
    ///
    /// # Panics
    ///
    /// Panics if the rate is not strictly positive.
    #[must_use]
    #[inline]
    pub fn serialization(bits: f64, rate_bps: f64) -> Self {
        assert!(rate_bps > 0.0, "link rate must be positive");
        Duration::from_secs(bits / rate_bps)
    }

    /// Raw nanoseconds.
    #[must_use]
    pub fn as_nanos(self) -> u64 {
        self.0
    }

    /// The span in seconds.
    #[must_use]
    pub fn as_secs(self) -> f64 {
        self.0 as f64 * 1e-9
    }
}

impl Add<Duration> for Time {
    type Output = Time;
    fn add(self, rhs: Duration) -> Time {
        Time(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign<Duration> for Time {
    fn add_assign(&mut self, rhs: Duration) {
        *self = *self + rhs;
    }
}

impl Add for Duration {
    type Output = Duration;
    fn add(self, rhs: Duration) -> Duration {
        Duration(self.0.saturating_add(rhs.0))
    }
}

impl Sub for Time {
    type Output = Duration;
    /// # Panics
    ///
    /// Panics (in debug) on negative spans; use
    /// [`Time::saturating_sub`] when order is uncertain.
    fn sub(self, rhs: Time) -> Duration {
        debug_assert!(self.0 >= rhs.0, "negative time span");
        Duration(self.0.saturating_sub(rhs.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn second_nanosecond_roundtrip() {
        let t = Time::from_secs(1.5);
        assert_eq!(t.as_nanos(), 1_500_000_000);
        assert!((t.as_secs() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn arithmetic() {
        let t = Time::from_secs(1.0) + Duration::from_secs(0.5);
        assert_eq!(t, Time::from_secs(1.5));
        assert_eq!(t - Time::from_secs(1.0), Duration::from_secs(0.5));
        assert_eq!(Time::from_secs(1.0).saturating_sub(t), Duration::ZERO);
    }

    #[test]
    fn serialization_time() {
        // 12000 bits at 10 Gbit/s = 1.2 us.
        let d = Duration::serialization(12_000.0, 10.0e9);
        assert_eq!(d.as_nanos(), 1_200);
    }

    #[test]
    fn positive_durations_never_round_to_zero() {
        let d = Duration::from_secs(1e-12);
        assert!(d.as_nanos() >= 1);
        assert_eq!(Duration::from_secs(0.0), Duration::ZERO);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn rejects_negative_time() {
        let _ = Time::from_secs(-1.0);
    }

    #[test]
    fn checked_add_saturates_only_via_none() {
        let near_max = Time::from_nanos(u64::MAX - 5);
        assert_eq!(near_max.checked_add(Duration::from_nanos(5)), Some(Time::MAX));
        assert_eq!(near_max.checked_add(Duration::from_nanos(6)), None);
        assert_eq!(Time::ZERO.checked_add(Duration::from_nanos(7)), Some(Time::from_nanos(7)));
        // The Add impl saturates; checked_add surfaces the overflow.
        assert_eq!(near_max + Duration::from_nanos(6), Time::MAX);
    }

    #[test]
    fn ordering_is_total() {
        let a = Time::from_nanos(5);
        let b = Time::from_nanos(7);
        assert!(a < b);
        assert_eq!(a.max(b), b);
    }
}
