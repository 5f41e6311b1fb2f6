//! Simulated time.
//!
//! Simulation time is an absolute microsecond count since the start of the
//! run ([`SimTime`]); intervals are [`SimDuration`]. Microsecond integer
//! resolution keeps event ordering exact (no floating-point ties) while
//! still resolving sub-millisecond service times, and a `u64` covers
//! ~584 000 years of simulated time — far beyond any experiment here.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

const MICROS_PER_SEC: u64 = 1_000_000;

/// An instant in simulated time, measured in microseconds from t=0.
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize)]
pub struct SimTime(u64);

/// A span of simulated time, measured in microseconds.
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize)]
pub struct SimDuration(u64);

impl SimTime {
    /// The origin of simulated time.
    pub const ZERO: SimTime = SimTime(0);
    /// The largest representable instant (used as "never").
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Construct from raw microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimTime(us)
    }

    /// Construct from whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimTime(s * MICROS_PER_SEC)
    }

    /// Raw microsecond count.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// Time as fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / MICROS_PER_SEC as f64
    }

    /// Time as fractional hours.
    pub fn as_hours_f64(self) -> f64 {
        self.as_secs_f64() / 3600.0
    }

    /// Duration elapsed since `earlier`; saturates to zero if `earlier`
    /// is in the future.
    pub fn since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }
}

impl SimDuration {
    /// The zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);
    /// The longest representable duration.
    pub const MAX: SimDuration = SimDuration(u64::MAX);

    /// Construct from raw microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us)
    }

    /// Construct from whole milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms * 1_000)
    }

    /// Construct from whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimDuration(s * MICROS_PER_SEC)
    }

    /// Construct from whole minutes.
    pub const fn from_mins(m: u64) -> Self {
        SimDuration(m * 60 * MICROS_PER_SEC)
    }

    /// Construct from whole hours.
    pub const fn from_hours(h: u64) -> Self {
        SimDuration(h * 3600 * MICROS_PER_SEC)
    }

    /// [`SimDuration::from_mins`], or `None` when `m` minutes do not fit.
    pub const fn checked_from_mins(m: u64) -> Option<Self> {
        match m.checked_mul(60 * MICROS_PER_SEC) {
            Some(us) => Some(SimDuration(us)),
            None => None,
        }
    }

    /// [`SimDuration::from_hours`], or `None` when `h` hours do not fit.
    pub const fn checked_from_hours(h: u64) -> Option<Self> {
        match h.checked_mul(3600 * MICROS_PER_SEC) {
            Some(us) => Some(SimDuration(us)),
            None => None,
        }
    }

    /// Construct from fractional seconds; negative values clamp to zero.
    pub fn from_secs_f64(s: f64) -> Self {
        if !s.is_finite() || s <= 0.0 {
            return SimDuration(0);
        }
        let us = s * MICROS_PER_SEC as f64;
        if us >= u64::MAX as f64 {
            SimDuration(u64::MAX)
        } else {
            SimDuration(us.round() as u64)
        }
    }

    /// Construct from fractional minutes; negative values clamp to zero.
    pub fn from_mins_f64(m: f64) -> Self {
        Self::from_secs_f64(m * 60.0)
    }

    /// Construct from fractional hours; negative values clamp to zero.
    pub fn from_hours_f64(h: f64) -> Self {
        Self::from_secs_f64(h * 3600.0)
    }

    /// Raw microsecond count.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// Duration as fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / MICROS_PER_SEC as f64
    }

    /// Duration as fractional minutes.
    pub fn as_mins_f64(self) -> f64 {
        self.as_secs_f64() / 60.0
    }

    /// Duration as fractional hours.
    pub fn as_hours_f64(self) -> f64 {
        self.as_secs_f64() / 3600.0
    }

    /// True iff this is the zero duration.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(other.0))
    }

    /// Multiply by a non-negative float (clamps negatives/NaN to zero).
    pub fn mul_f64(self, k: f64) -> SimDuration {
        SimDuration::from_secs_f64(self.as_secs_f64() * k)
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
        self.0 = self.0.saturating_add(rhs.0);
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
        self.0 = self.0.saturating_add(rhs.0);
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl SubAssign for SimDuration {
    fn sub_assign(&mut self, rhs: SimDuration) {
        self.0 = self.0.saturating_sub(rhs.0);
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
        write!(f, "t+{:.3}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let total_secs = self.0 / MICROS_PER_SEC;
        let (h, m, s) = (total_secs / 3600, (total_secs / 60) % 60, total_secs % 60);
        write!(f, "{h:02}:{m:02}:{s:02}")
    }
}

impl fmt::Debug for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 < 1_000 {
            write!(f, "{}us", self.0)
        } else if self.0 < MICROS_PER_SEC {
            write!(f, "{:.1}ms", self.0 as f64 / 1e3)
        } else if self.0 < 60 * MICROS_PER_SEC {
            write!(f, "{:.1}s", self.as_secs_f64())
        } else if self.0 < 3600 * MICROS_PER_SEC {
            write!(f, "{:.1}min", self.as_mins_f64())
        } else {
            write!(f, "{:.2}h", self.as_hours_f64())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_roundtrips() {
        assert_eq!(SimTime::from_secs(2).as_micros(), 2_000_000);
        assert_eq!(SimDuration::from_mins(3).as_secs_f64(), 180.0);
        assert_eq!(SimDuration::from_hours(2).as_mins_f64(), 120.0);
        assert_eq!(SimDuration::from_millis(1500).as_secs_f64(), 1.5);
    }

    #[test]
    fn checked_construction_refuses_overflow() {
        let max_mins = u64::MAX / (60 * MICROS_PER_SEC);
        let max_hours = u64::MAX / (3600 * MICROS_PER_SEC);
        assert_eq!(
            SimDuration::checked_from_mins(max_mins),
            Some(SimDuration::from_mins(max_mins))
        );
        assert_eq!(
            SimDuration::checked_from_hours(max_hours),
            Some(SimDuration::from_hours(max_hours))
        );
        assert_eq!(SimDuration::checked_from_mins(max_mins + 1), None);
        assert_eq!(SimDuration::checked_from_hours(max_hours + 1), None);
    }

    #[test]
    fn arithmetic() {
        let t = SimTime::from_secs(10) + SimDuration::from_secs(5);
        assert_eq!(t, SimTime::from_secs(15));
        assert_eq!(t - SimTime::from_secs(9), SimDuration::from_secs(6));
        // saturating behaviour
        assert_eq!(
            SimTime::from_secs(1) - SimTime::from_secs(5),
            SimDuration::ZERO
        );
        assert_eq!(
            SimDuration::from_secs(1).saturating_sub(SimDuration::from_secs(2)),
            SimDuration::ZERO
        );
    }

    #[test]
    fn from_secs_f64_edge_cases() {
        assert_eq!(SimDuration::from_secs_f64(-1.0), SimDuration::ZERO);
        assert_eq!(SimDuration::from_secs_f64(f64::NAN), SimDuration::ZERO);
        assert_eq!(SimDuration::from_secs_f64(f64::INFINITY), SimDuration::ZERO);
        assert_eq!(SimDuration::from_secs_f64(1e30), SimDuration::MAX);
        assert_eq!(SimDuration::from_secs_f64(0.5).as_micros(), 500_000);
    }

    #[test]
    fn mul_f64_clamps() {
        let d = SimDuration::from_secs(10);
        assert_eq!(d.mul_f64(0.5), SimDuration::from_secs(5));
        assert_eq!(d.mul_f64(-3.0), SimDuration::ZERO);
    }

    #[test]
    fn display_formats() {
        assert_eq!(format!("{}", SimDuration::from_micros(10)), "10us");
        assert_eq!(format!("{}", SimDuration::from_millis(2)), "2.0ms");
        assert_eq!(format!("{}", SimDuration::from_secs(30)), "30.0s");
        assert_eq!(format!("{}", SimDuration::from_mins(5)), "5.0min");
        assert_eq!(format!("{}", SimDuration::from_hours(3)), "3.00h");
        assert_eq!(format!("{}", SimTime::from_secs(3661)), "01:01:01");
    }

    #[test]
    fn since_saturates() {
        let a = SimTime::from_secs(5);
        let b = SimTime::from_secs(8);
        assert_eq!(b.since(a), SimDuration::from_secs(3));
        assert_eq!(a.since(b), SimDuration::ZERO);
    }

    #[test]
    fn ordering() {
        assert!(SimTime::from_secs(1) < SimTime::from_secs(2));
        assert!(SimTime::MAX > SimTime::from_secs(u32::MAX as u64));
    }
}
