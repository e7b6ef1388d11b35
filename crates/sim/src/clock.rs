//! Simulated time: cycles.

use core::fmt;
use core::ops::{Add, AddAssign, Sub};

/// A point in simulated time, measured in clock cycles since boot.
///
/// `Cycle` is an absolute timestamp; durations are plain `u64` cycle counts.
/// All arithmetic saturates rather than wrapping so that sentinel values such
/// as [`Cycle::MAX`] stay in range.
///
/// # Examples
///
/// ```
/// use apiary_sim::Cycle;
///
/// let t = Cycle::ZERO + 10;
/// assert_eq!(t.as_u64(), 10);
/// assert_eq!(t - Cycle::ZERO, 10);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Cycle(pub u64);

impl Cycle {
    /// Time zero: the boot instant of the simulation.
    pub const ZERO: Cycle = Cycle(0);

    /// The largest representable time; used as an "infinitely far" sentinel.
    pub const MAX: Cycle = Cycle(u64::MAX);

    /// Returns the raw cycle count.
    #[inline]
    pub const fn as_u64(self) -> u64 {
        self.0
    }

    /// Returns the cycle count that is `d` cycles later, saturating at
    /// [`Cycle::MAX`].
    #[inline]
    pub const fn saturating_add(self, d: u64) -> Cycle {
        Cycle(self.0.saturating_add(d))
    }

    /// Returns the number of cycles elapsed since `earlier`, or zero if
    /// `earlier` is in the future.
    #[inline]
    pub const fn saturating_since(self, earlier: Cycle) -> u64 {
        self.0.saturating_sub(earlier.0)
    }

    /// Converts this cycle count to nanoseconds at the given clock frequency.
    ///
    /// Useful when comparing FPGA-side cycle counts (e.g. at 250 MHz) against
    /// host-side costs quoted in wall-clock time.
    #[inline]
    pub fn as_nanos(self, freq_mhz: u64) -> u64 {
        // cycles / (MHz * 1e6) seconds = cycles * 1000 / MHz nanoseconds.
        // The multiply goes through u128: above ~1.8e16 cycles a u64
        // `cycles * 1000` saturates and quietly caps the result.
        let nanos = (self.0 as u128 * 1000) / freq_mhz.max(1) as u128;
        u64::try_from(nanos).unwrap_or(u64::MAX)
    }
}

impl fmt::Debug for Cycle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cyc:{}", self.0)
    }
}

impl fmt::Display for Cycle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl Add<u64> for Cycle {
    type Output = Cycle;

    #[inline]
    fn add(self, rhs: u64) -> Cycle {
        self.saturating_add(rhs)
    }
}

impl AddAssign<u64> for Cycle {
    #[inline]
    fn add_assign(&mut self, rhs: u64) {
        *self = self.saturating_add(rhs);
    }
}

impl Sub<Cycle> for Cycle {
    type Output = u64;

    #[inline]
    fn sub(self, rhs: Cycle) -> u64 {
        self.saturating_since(rhs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cycle_arithmetic_saturates() {
        assert_eq!(Cycle::MAX + 1, Cycle::MAX);
        assert_eq!(Cycle::ZERO - Cycle::MAX, 0);
        assert_eq!(Cycle(7) - Cycle(3), 4);
    }

    #[test]
    fn cycle_ordering() {
        assert!(Cycle(1) < Cycle(2));
        assert_eq!(Cycle(5).max(Cycle(9)), Cycle(9));
    }

    #[test]
    fn nanos_conversion() {
        // 250 cycles at 250 MHz is 1000 ns.
        assert_eq!(Cycle(250).as_nanos(250), 1000);
        // Zero frequency must not divide by zero.
        assert_eq!(Cycle(250).as_nanos(0), 250_000);
    }

    #[test]
    fn nanos_conversion_does_not_saturate_early() {
        // 2^60 cycles at 1000 MHz is 2^60 ns — representable, but the old
        // u64 `cycles * 1000` multiply saturated and returned a wrong cap.
        let big = 1u64 << 60;
        assert_eq!(Cycle(big).as_nanos(1000), big);
        // At 250 MHz the true value (big * 4) overflows u64: clamp to MAX
        // instead of returning a garbage quotient.
        assert_eq!(Cycle(u64::MAX).as_nanos(250), u64::MAX);
        // Boundary just below the old saturation point still exact.
        assert_eq!(Cycle(u64::MAX / 1000).as_nanos(1000), u64::MAX / 1000);
    }
}
