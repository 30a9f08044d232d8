//! Virtual time: microsecond-resolution instants and durations.
//!
//! All simulation components exchange [`SimTime`] (an instant on the virtual
//! clock) and [`SimDuration`] (a span between instants). Both wrap a `u64`
//! count of microseconds, which gives ~584,000 years of range — comfortably
//! more than the 12 months Fig. 14 needs — while staying `Copy`, `Ord`, and
//! hashable.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// Microseconds per second.
const MICROS_PER_SEC: u64 = 1_000_000;

/// An instant on the virtual simulation clock.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize)]
pub struct SimTime(u64);

/// A span of virtual time between two [`SimTime`] instants.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize)]
pub struct SimDuration(u64);

impl SimTime {
    /// The start of simulated time.
    pub const ZERO: SimTime = SimTime(0);
    /// The largest representable instant.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Builds an instant from a raw microsecond count.
    pub const fn from_micros(us: u64) -> Self {
        SimTime(us)
    }

    /// Builds an instant `secs` seconds after time zero.
    pub const fn from_secs(secs: u64) -> Self {
        SimTime(secs * MICROS_PER_SEC)
    }

    /// Builds an instant from fractional seconds (rounds to microseconds).
    pub fn from_secs_f64(secs: f64) -> Self {
        debug_assert!(secs >= 0.0, "SimTime cannot be negative: {secs}");
        SimTime((secs * MICROS_PER_SEC as f64).round() as u64)
    }

    /// Raw microsecond count since time zero.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// Seconds since time zero, as a float.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / MICROS_PER_SEC as f64
    }

    /// Duration elapsed since `earlier`, saturating to zero if `earlier`
    /// is in the future.
    pub fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }
}

impl SimDuration {
    /// The empty duration.
    pub const ZERO: SimDuration = SimDuration(0);
    /// The largest representable duration.
    pub const MAX: SimDuration = SimDuration(u64::MAX);

    /// Builds a duration from a raw microsecond count.
    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us)
    }

    /// Builds a duration from milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms * 1_000)
    }

    /// Builds a duration from whole seconds.
    pub const fn from_secs(secs: u64) -> Self {
        SimDuration(secs * MICROS_PER_SEC)
    }

    /// Builds a duration from whole minutes.
    pub const fn from_mins(mins: u64) -> Self {
        SimDuration(mins * 60 * MICROS_PER_SEC)
    }

    /// Builds a duration from whole hours.
    pub const fn from_hours(hours: u64) -> Self {
        SimDuration(hours * 3_600 * MICROS_PER_SEC)
    }

    /// Builds a duration from whole days.
    pub const fn from_days(days: u64) -> Self {
        SimDuration(days * 86_400 * MICROS_PER_SEC)
    }

    /// Builds a duration from fractional seconds (rounds to microseconds;
    /// negative inputs clamp to zero).
    pub fn from_secs_f64(secs: f64) -> Self {
        SimDuration((secs.max(0.0) * MICROS_PER_SEC as f64).round() as u64)
    }

    /// Raw microsecond count.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// Length in seconds, as a float.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / MICROS_PER_SEC as f64
    }

    /// Length in minutes, as a float.
    pub fn as_mins_f64(self) -> f64 {
        self.as_secs_f64() / 60.0
    }

    /// True if the duration is zero.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }

    /// Multiplies the duration by a non-negative float factor.
    pub fn mul_f64(self, factor: f64) -> SimDuration {
        debug_assert!(factor >= 0.0, "duration factor must be non-negative");
        SimDuration((self.0 as f64 * factor).round() as u64)
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.saturating_sub(rhs.0))
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    fn sub(self, rhs: SimTime) -> SimDuration {
        debug_assert!(self.0 >= rhs.0, "SimTime subtraction underflow");
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
        debug_assert!(self.0 >= rhs.0, "SimDuration subtraction underflow");
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl SubAssign for SimDuration {
    fn sub_assign(&mut self, rhs: SimDuration) {
        *self = *self - rhs;
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0.saturating_mul(rhs))
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={:.3}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

impl fmt::Debug for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = self.as_secs_f64();
        if s >= 3_600.0 {
            write!(f, "{:.2}h", s / 3_600.0)
        } else if s >= 60.0 {
            write!(f, "{:.2}m", s / 60.0)
        } else {
            write!(f, "{s:.3}s")
        }
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_roundtrips() {
        assert_eq!(SimTime::from_secs(3).as_micros(), 3_000_000);
        assert_eq!(SimDuration::from_millis(5).as_micros(), 5_000);
        assert_eq!(SimDuration::from_mins(2).as_secs_f64(), 120.0);
        assert_eq!(SimDuration::from_hours(1).as_mins_f64(), 60.0);
        assert_eq!(SimDuration::from_days(2).as_mins_f64(), 2_880.0);
        let t = SimTime::from_secs_f64(1.25);
        assert_eq!(t.as_micros(), 1_250_000);
        assert!((t.as_secs_f64() - 1.25).abs() < 1e-12);
    }

    #[test]
    fn arithmetic_behaves() {
        let t0 = SimTime::from_secs(10);
        let d = SimDuration::from_secs(4);
        assert_eq!(t0 + d, SimTime::from_secs(14));
        assert_eq!((t0 + d) - t0, d);
        assert_eq!(t0 - d, SimTime::from_secs(6));
        assert_eq!(d * 3, SimDuration::from_secs(12));
        assert_eq!(d / 2, SimDuration::from_secs(2));
        let mut t = t0;
        t += d;
        assert_eq!(t, SimTime::from_secs(14));
    }

    #[test]
    fn saturating_since_clamps_future() {
        let early = SimTime::from_secs(5);
        let late = SimTime::from_secs(9);
        assert_eq!(late.saturating_since(early), SimDuration::from_secs(4));
        assert_eq!(early.saturating_since(late), SimDuration::ZERO);
    }

    #[test]
    fn mul_f64_rounds() {
        let d = SimDuration::from_secs(10);
        assert_eq!(d.mul_f64(0.5), SimDuration::from_secs(5));
        assert_eq!(d.mul_f64(0.0), SimDuration::ZERO);
        assert_eq!(SimDuration::from_micros(3).mul_f64(0.5), SimDuration::from_micros(2));
    }

    #[test]
    fn negative_float_duration_clamps() {
        assert_eq!(SimDuration::from_secs_f64(-3.0), SimDuration::ZERO);
    }

    #[test]
    fn display_formats() {
        assert_eq!(format!("{}", SimDuration::from_secs(30)), "30.000s");
        assert_eq!(format!("{}", SimDuration::from_mins(2)), "2.00m");
        assert_eq!(format!("{}", SimDuration::from_hours(3)), "3.00h");
        assert_eq!(format!("{}", SimTime::from_secs(1)), "t=1.000s");
    }
}
