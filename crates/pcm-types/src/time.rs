//! Picosecond-resolution simulation time, and clock-cycle counts.
//!
//! The simulator orders events by timestamp, so timestamps must be exact.
//! All PCM timings in the paper are integral nanoseconds (READ 50 ns,
//! RESET 53 ns, SET 430 ns) and clocks are 2 GHz / 400 MHz, so picoseconds
//! as `u64` represent every quantity exactly while still covering ~213 days
//! of simulated time.
//!
//! The paper's second clock is the cycle: cache latencies are CPU cycles
//! and the analysis stage is 41 cycles at the 400 MHz bus (§IV-D).
//! [`Cycles`] is its own type, so a cycle count can only become a [`Ps`]
//! through [`Ps::from_cycles`], which names the clock.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Rem, Sub, SubAssign};

/// A duration or absolute timestamp in picoseconds.
///
/// `Ps` is used for both points in time and durations; the simulator's
/// origin is `Ps::ZERO`.
///
/// ```
/// use pcm_types::Ps;
/// let t_set = Ps::from_ns(430);
/// let t_reset = Ps::from_ns(53);
/// assert_eq!(t_set.div_duration(t_reset), 8); // the paper's K
/// use pcm_types::Cycles;
/// assert_eq!(Ps::from_cycles(Cycles(41), 400), Ps(102_500)); // 41 cycles @ 400 MHz
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Ps(pub u64);

impl Ps {
    /// Zero duration / simulation origin.
    pub const ZERO: Ps = Ps(0);

    /// Construct from nanoseconds.
    pub const fn from_ns(ns: u64) -> Self {
        Ps(ns * 1_000)
    }

    /// Construct from microseconds.
    pub const fn from_us(us: u64) -> Self {
        Ps(us * 1_000_000)
    }

    /// Construct from a cycle count at a clock frequency in MHz.
    ///
    /// Panics if the frequency does not divide 1 ps exactly enough to
    /// matter; in practice 2000 MHz → 500 ps and 400 MHz → 2500 ps are exact.
    ///
    /// Only a [`Cycles`] converts; a bare integer does not compile:
    ///
    /// ```compile_fail,E0308
    /// use pcm_types::Ps;
    /// let _ = Ps::from_cycles(41u64, 400);
    /// ```
    pub const fn from_cycles(cycles: Cycles, freq_mhz: u64) -> Self {
        Ps(cycles.0 * 1_000_000 / freq_mhz)
    }

    /// Value in picoseconds.
    pub const fn as_ps(self) -> u64 {
        self.0
    }

    /// Value in nanoseconds, rounding down.
    pub const fn as_ns(self) -> u64 {
        self.0 / 1_000
    }

    /// Value in (possibly fractional) nanoseconds.
    pub fn as_ns_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// Number of whole clock cycles this duration spans at `freq_mhz`.
    pub const fn cycles_at(self, freq_mhz: u64) -> Cycles {
        Cycles(self.0 * freq_mhz / 1_000_000)
    }

    /// Saturating subtraction; clamps at zero instead of wrapping.
    pub const fn saturating_sub(self, rhs: Ps) -> Ps {
        Ps(self.0.saturating_sub(rhs.0))
    }

    /// Integer division of two durations (how many times `rhs` fits).
    pub const fn div_duration(self, rhs: Ps) -> u64 {
        self.0 / rhs.0
    }

    /// `self / rhs` rounded up; used for "how many RESET slots cover a SET".
    pub const fn div_ceil_duration(self, rhs: Ps) -> u64 {
        self.0.div_ceil(rhs.0)
    }

    /// Larger of two times.
    pub fn max(self, other: Ps) -> Ps {
        Ps(self.0.max(other.0))
    }

    /// Smaller of two times.
    pub fn min(self, other: Ps) -> Ps {
        Ps(self.0.min(other.0))
    }
}

impl Add for Ps {
    type Output = Ps;
    fn add(self, rhs: Ps) -> Ps {
        Ps(self.0 + rhs.0)
    }
}

impl AddAssign for Ps {
    fn add_assign(&mut self, rhs: Ps) {
        self.0 += rhs.0;
    }
}

impl Sub for Ps {
    type Output = Ps;
    fn sub(self, rhs: Ps) -> Ps {
        Ps(self.0 - rhs.0)
    }
}

impl SubAssign for Ps {
    fn sub_assign(&mut self, rhs: Ps) {
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for Ps {
    type Output = Ps;
    fn mul(self, rhs: u64) -> Ps {
        Ps(self.0 * rhs)
    }
}

impl Div<u64> for Ps {
    type Output = Ps;
    fn div(self, rhs: u64) -> Ps {
        Ps(self.0 / rhs)
    }
}

impl Rem<Ps> for Ps {
    type Output = Ps;
    fn rem(self, rhs: Ps) -> Ps {
        Ps(self.0 % rhs.0)
    }
}

impl Sum for Ps {
    fn sum<I: Iterator<Item = Ps>>(iter: I) -> Ps {
        iter.fold(Ps::ZERO, |a, b| a + b)
    }
}

impl fmt::Debug for Ps {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}ps", self.0)
    }
}

impl fmt::Display for Ps {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 % 1_000 == 0 {
            write!(f, "{}ns", self.0 / 1_000)
        } else {
            write!(f, "{:.3}ns", self.as_ns_f64())
        }
    }
}

/// A count of clock cycles (CPU or memory-bus, whichever clock the
/// owner names).
///
/// It has no conversion to or from [`Ps`] except [`Ps::from_cycles`] and
/// [`Ps::cycles_at`], which take the clock frequency. Passing a cycle
/// count where a duration is expected does not compile:
///
/// ```compile_fail,E0308
/// use pcm_types::{Cycles, Ps};
/// fn wait(d: Ps) -> Ps { d }
/// let _ = wait(Cycles(41));
/// ```
///
/// It prints as the plain integer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Cycles(pub u64);

impl AddAssign for Cycles {
    fn add_assign(&mut self, rhs: Cycles) {
        self.0 += rhs.0;
    }
}

impl fmt::Display for Cycles {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(&self.0, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ns_roundtrip() {
        assert_eq!(Ps::from_ns(430).as_ns(), 430);
        assert_eq!(Ps::from_ns(430).as_ps(), 430_000);
    }

    #[test]
    fn cycles_exact_for_paper_clocks() {
        // 2 GHz CPU: 1 cycle = 500 ps.
        assert_eq!(Ps::from_cycles(Cycles(1), 2_000).as_ps(), 500);
        // 400 MHz memory bus: 1 cycle = 2.5 ns.
        assert_eq!(Ps::from_cycles(Cycles(1), 400).as_ps(), 2_500);
        // The paper's measured analysis overhead: 41 cycles @ 400 MHz.
        assert_eq!(Ps::from_cycles(Cycles(41), 400).as_ps(), 102_500);
    }

    #[test]
    fn cycles_at_inverts_from_cycles() {
        for c in [0u64, 1, 7, 41, 1000].map(Cycles) {
            assert_eq!(Ps::from_cycles(c, 400).cycles_at(400), c);
            assert_eq!(Ps::from_cycles(c, 2_000).cycles_at(2_000), c);
        }
    }

    #[test]
    fn arithmetic() {
        let a = Ps::from_ns(50);
        let b = Ps::from_ns(53);
        assert_eq!(a + b, Ps::from_ns(103));
        assert_eq!(b - a, Ps::from_ns(3));
        assert_eq!(a * 8, Ps::from_ns(400));
        assert_eq!(Ps::from_ns(430).div_duration(Ps::from_ns(53)), 8);
        assert_eq!(Ps::from_ns(430).div_ceil_duration(Ps::from_ns(53)), 9);
        assert_eq!(a.saturating_sub(b), Ps::ZERO);
    }

    #[test]
    fn display() {
        assert_eq!(Ps::from_ns(50).to_string(), "50ns");
        assert_eq!(Ps(2_500).to_string(), "2.500ns");
        assert_eq!(Cycles(41).to_string(), "41");
    }

    #[test]
    fn sum_of_durations() {
        let total: Ps = [Ps::from_ns(1), Ps::from_ns(2), Ps::from_ns(3)]
            .into_iter()
            .sum();
        assert_eq!(total, Ps::from_ns(6));
    }
}
