//! Time and frequency newtypes.
//!
//! All models in the workspace count time either in clock [`Cycle`]s of a
//! particular clock domain or in absolute [`Picos`] (integer picoseconds).
//! Picoseconds are exact for every frequency used by the paper: 100 MHz
//! (10 000 ps), 125 MHz (8 000 ps) and 200 MHz (5 000 ps), as well as for
//! the DDR timing constants (40 ns access cycle, 160 ns bank-reuse gap,
//! 60 ns read delay).

use core::fmt;
use core::iter::Sum;
use core::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// A cycle count (or cycle index) within one clock domain.
///
/// `Cycle` is an ordinal: which clock it refers to is established by the
/// surrounding model. Use [`Freq::picos_of`] / [`Freq::cycles_in`] to move
/// between domains.
///
/// # Example
///
/// ```
/// use npqm_sim::time::Cycle;
/// let a = Cycle::new(10);
/// let b = a + Cycle::new(5);
/// assert_eq!(b.as_u64(), 15);
/// assert!(b > a);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Cycle(u64);

impl Cycle {
    /// Cycle zero — the start of every simulation.
    pub const ZERO: Cycle = Cycle(0);

    /// Creates a cycle count from a raw `u64`.
    pub const fn new(n: u64) -> Self {
        Cycle(n)
    }

    /// Returns the raw cycle count.
    pub const fn as_u64(self) -> u64 {
        self.0
    }

    /// Returns the raw cycle count as `f64` (for statistics).
    pub fn as_f64(self) -> f64 {
        self.0 as f64
    }

    /// Saturating subtraction: `self - other`, clamped at zero.
    ///
    /// Useful when computing waiting times where a completion may be
    /// recorded on the same cycle the request was issued.
    pub const fn saturating_sub(self, other: Cycle) -> Cycle {
        Cycle(self.0.saturating_sub(other.0))
    }

    /// The later of two cycle stamps.
    pub fn max(self, other: Cycle) -> Cycle {
        Cycle(self.0.max(other.0))
    }

    /// The earlier of two cycle stamps.
    pub fn min(self, other: Cycle) -> Cycle {
        Cycle(self.0.min(other.0))
    }
}

impl fmt::Display for Cycle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} cy", self.0)
    }
}

impl Add for Cycle {
    type Output = Cycle;
    fn add(self, rhs: Cycle) -> Cycle {
        Cycle(self.0 + rhs.0)
    }
}

impl Add<u64> for Cycle {
    type Output = Cycle;
    fn add(self, rhs: u64) -> Cycle {
        Cycle(self.0 + rhs)
    }
}

impl AddAssign for Cycle {
    fn add_assign(&mut self, rhs: Cycle) {
        self.0 += rhs.0;
    }
}

impl AddAssign<u64> for Cycle {
    fn add_assign(&mut self, rhs: u64) {
        self.0 += rhs;
    }
}

impl Sub for Cycle {
    type Output = Cycle;
    /// # Panics
    ///
    /// Panics in debug builds if the subtraction underflows; use
    /// [`Cycle::saturating_sub`] when the ordering is not guaranteed.
    fn sub(self, rhs: Cycle) -> Cycle {
        Cycle(self.0 - rhs.0)
    }
}

impl SubAssign for Cycle {
    fn sub_assign(&mut self, rhs: Cycle) {
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for Cycle {
    type Output = Cycle;
    fn mul(self, rhs: u64) -> Cycle {
        Cycle(self.0 * rhs)
    }
}

impl Sum for Cycle {
    fn sum<I: Iterator<Item = Cycle>>(iter: I) -> Cycle {
        Cycle(iter.map(|c| c.0).sum())
    }
}

impl From<u64> for Cycle {
    fn from(n: u64) -> Cycle {
        Cycle(n)
    }
}

/// Absolute time in integer picoseconds.
///
/// # Example
///
/// ```
/// use npqm_sim::time::Picos;
/// let access_cycle = Picos::from_nanos(40);   // DDR 64-byte access slot
/// let bank_reuse = Picos::from_nanos(160);    // same-bank precharge gap
/// assert_eq!(bank_reuse / access_cycle, 4);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Picos(u64);

impl Picos {
    /// Zero time.
    pub const ZERO: Picos = Picos(0);

    /// Creates a time from raw picoseconds.
    pub const fn new(ps: u64) -> Self {
        Picos(ps)
    }

    /// Creates a time from nanoseconds.
    pub const fn from_nanos(ns: u64) -> Self {
        Picos(ns * 1_000)
    }

    /// Creates a time from microseconds.
    pub const fn from_micros(us: u64) -> Self {
        Picos(us * 1_000_000)
    }

    /// Raw picosecond count.
    pub const fn as_u64(self) -> u64 {
        self.0
    }

    /// Time in (possibly fractional) nanoseconds.
    pub fn as_nanos_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// Time in (possibly fractional) seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e12
    }

    /// Saturating subtraction, clamped at zero.
    pub const fn saturating_sub(self, other: Picos) -> Picos {
        Picos(self.0.saturating_sub(other.0))
    }
}

impl fmt::Display for Picos {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0.is_multiple_of(1_000) {
            write!(f, "{} ns", self.0 / 1_000)
        } else {
            write!(f, "{} ps", self.0)
        }
    }
}

impl Add for Picos {
    type Output = Picos;
    fn add(self, rhs: Picos) -> Picos {
        Picos(self.0 + rhs.0)
    }
}

impl AddAssign for Picos {
    fn add_assign(&mut self, rhs: Picos) {
        self.0 += rhs.0;
    }
}

impl Sub for Picos {
    type Output = Picos;
    fn sub(self, rhs: Picos) -> Picos {
        Picos(self.0 - rhs.0)
    }
}

impl Mul<u64> for Picos {
    type Output = Picos;
    fn mul(self, rhs: u64) -> Picos {
        Picos(self.0 * rhs)
    }
}

impl Div<Picos> for Picos {
    type Output = u64;
    /// Integer division: how many whole `rhs` intervals fit in `self`.
    fn div(self, rhs: Picos) -> u64 {
        self.0 / rhs.0
    }
}

impl Sum for Picos {
    fn sum<I: Iterator<Item = Picos>>(iter: I) -> Picos {
        Picos(iter.map(|p| p.0).sum())
    }
}

/// A clock frequency.
///
/// Frequencies in the paper are whole megahertz (100, 125, 200 MHz), so the
/// representation is exact and cycle times are integer picoseconds for any
/// frequency that divides 10^6 MHz·ps evenly.
///
/// # Example
///
/// ```
/// use npqm_sim::time::{Cycle, Freq, Picos};
/// let ppc = Freq::from_mhz(100);
/// // 5.12 us to receive a 64-byte packet at 100 Mbps:
/// let slot = Picos::from_nanos(5120);
/// assert_eq!(ppc.cycles_in(slot), Cycle::new(512));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Freq {
    megahertz: u32,
}

impl Freq {
    /// Creates a frequency from whole megahertz.
    ///
    /// # Panics
    ///
    /// Panics if `megahertz` is zero.
    pub const fn from_mhz(megahertz: u32) -> Self {
        assert!(megahertz > 0, "frequency must be non-zero");
        Freq { megahertz }
    }

    /// The frequency in megahertz.
    pub const fn mhz(self) -> u32 {
        self.megahertz
    }

    /// The frequency in hertz.
    pub const fn hz(self) -> u64 {
        self.megahertz as u64 * 1_000_000
    }

    /// Duration of one clock cycle.
    ///
    /// Exact when 10^6 is divisible by the megahertz value (true for every
    /// clock in the paper); otherwise truncates toward zero.
    pub const fn cycle_time(self) -> Picos {
        Picos::new(1_000_000 / self.megahertz as u64)
    }

    /// Absolute time spanned by `cycles` of this clock.
    pub fn picos_of(self, cycles: Cycle) -> Picos {
        Picos::new(cycles.as_u64() * self.cycle_time().as_u64())
    }

    /// Whole cycles of this clock that fit in `t` (truncating).
    pub fn cycles_in(self, t: Picos) -> Cycle {
        Cycle::new(t.as_u64() / self.cycle_time().as_u64())
    }

    /// Whole cycles of this clock needed to cover `t` (rounding up).
    pub fn cycles_ceil(self, t: Picos) -> Cycle {
        let ct = self.cycle_time().as_u64();
        Cycle::new(t.as_u64().div_ceil(ct))
    }

    /// Fractional number of cycles of this clock in `t` (for reporting
    /// averages such as the paper's "10.5 cycles").
    pub fn cycles_f64(self, t: Picos) -> f64 {
        t.as_u64() as f64 / self.cycle_time().as_u64() as f64
    }
}

impl fmt::Display for Freq {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} MHz", self.megahertz)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cycle_arithmetic() {
        let a = Cycle::new(7);
        assert_eq!((a + Cycle::new(3)).as_u64(), 10);
        assert_eq!((a + 3).as_u64(), 10);
        assert_eq!((a - Cycle::new(2)).as_u64(), 5);
        assert_eq!(a.saturating_sub(Cycle::new(100)), Cycle::ZERO);
        assert_eq!((a * 3).as_u64(), 21);
        let mut b = a;
        b += 1;
        b += Cycle::new(2);
        assert_eq!(b.as_u64(), 10);
        b -= Cycle::new(4);
        assert_eq!(b.as_u64(), 6);
    }

    #[test]
    fn cycle_sum_and_minmax() {
        let total: Cycle = [Cycle::new(1), Cycle::new(2), Cycle::new(3)]
            .into_iter()
            .sum();
        assert_eq!(total, Cycle::new(6));
        assert_eq!(Cycle::new(4).max(Cycle::new(9)), Cycle::new(9));
        assert_eq!(Cycle::new(4).min(Cycle::new(9)), Cycle::new(4));
    }

    #[test]
    fn picos_conversions() {
        assert_eq!(Picos::from_nanos(40).as_u64(), 40_000);
        assert_eq!(Picos::from_micros(5).as_u64(), 5_000_000);
        assert!((Picos::from_nanos(84).as_nanos_f64() - 84.0).abs() < 1e-12);
        assert!((Picos::from_micros(1).as_secs_f64() - 1e-6).abs() < 1e-18);
    }

    #[test]
    fn picos_arithmetic() {
        let a = Picos::from_nanos(60);
        let b = Picos::from_nanos(40);
        assert_eq!(a + b, Picos::from_nanos(100));
        assert_eq!(a - b, Picos::from_nanos(20));
        assert_eq!(b.saturating_sub(a), Picos::ZERO);
        assert_eq!(b * 4, Picos::from_nanos(160));
        assert_eq!(Picos::from_nanos(160) / b, 4);
        let sum: Picos = [a, b].into_iter().sum();
        assert_eq!(sum, Picos::from_nanos(100));
    }

    #[test]
    fn paper_clock_domains_are_exact() {
        for (mhz, ps) in [(100u32, 10_000u64), (125, 8_000), (200, 5_000)] {
            assert_eq!(Freq::from_mhz(mhz).cycle_time(), Picos::new(ps));
        }
    }

    #[test]
    fn freq_cycle_round_trips() {
        let f = Freq::from_mhz(125);
        let c = Cycle::new(105);
        assert_eq!(f.cycles_in(f.picos_of(c)), c);
        // 84 ns at 125 MHz = 10.5 cycles, the paper's execution overhead.
        assert!((f.cycles_f64(Picos::from_nanos(84)) - 10.5).abs() < 1e-12);
        assert_eq!(f.cycles_ceil(Picos::from_nanos(84)), Cycle::new(11));
        assert_eq!(f.cycles_in(Picos::from_nanos(84)), Cycle::new(10));
    }

    #[test]
    fn packet_slot_math_from_section_5_3() {
        // "For a 100 Mbps network and a minimum packet length of 64 bytes the
        //  available time to serve this packet is 5.12 usec", i.e. 512 cycles
        // at 100 MHz.
        let slot = Picos::new(64 * 8 * 10_000); // 64 B at 100 Mbps = 10 ns/bit
        assert_eq!(slot, Picos::from_nanos(5120));
        assert_eq!(Freq::from_mhz(100).cycles_in(slot), Cycle::new(512));
    }

    #[test]
    fn display_formats() {
        assert_eq!(Cycle::new(12).to_string(), "12 cy");
        assert_eq!(Picos::from_nanos(40).to_string(), "40 ns");
        assert_eq!(Picos::new(1234).to_string(), "1234 ps");
        assert_eq!(Freq::from_mhz(125).to_string(), "125 MHz");
    }

    #[test]
    #[should_panic(expected = "frequency must be non-zero")]
    fn zero_frequency_panics() {
        let _ = Freq::from_mhz(0);
    }
}
