//! Throughput-rate newtypes in the paper's reporting units.
//!
//! The paper mixes packets-per-second units (Table 2 is in Kpps/Mpps) with
//! bit-rate units (Tables 1 and 5 and the 6.145 Gbps headline). These
//! newtypes make conversions explicit — packets only convert to bits once a
//! packet size is chosen (the paper always uses worst-case 64-byte packets).

use core::fmt;
use core::ops::{Add, Div, Mul};

/// Gigabits per second.
///
/// # Example
///
/// ```
/// use npqm_sim::rate::{Gbps, Mpps};
/// // 12 Mops/s on 64-byte segments is the paper's 6.145 Gbps headline
/// // (actually 12 * 512 bits = 6.144; the paper rounds from 1 op / 84 ns).
/// let ops = Mpps::new(1e3 / 84.0);
/// let bw = ops.to_gbps(64);
/// assert!((bw.get() - 6.095).abs() < 0.01);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Gbps(f64);

impl Gbps {
    /// Creates a rate in gigabits per second.
    pub const fn new(v: f64) -> Self {
        Gbps(v)
    }

    /// The raw value in Gbit/s.
    pub const fn get(self) -> f64 {
        self.0
    }

    /// Converts to bits per second.
    pub fn bits_per_sec(self) -> f64 {
        self.0 * 1e9
    }

    /// Packets (or segments) per second at a given packet size in bytes.
    pub fn to_mpps(self, packet_bytes: u32) -> Mpps {
        Mpps(self.bits_per_sec() / (packet_bytes as f64 * 8.0) / 1e6)
    }

    /// Mean inter-arrival time in picoseconds at a given packet size.
    ///
    /// # Panics
    ///
    /// Panics if the rate is not positive.
    pub fn interarrival_picos(self, packet_bytes: u32) -> u64 {
        assert!(self.0 > 0.0, "rate must be positive");
        let pps = self.bits_per_sec() / (packet_bytes as f64 * 8.0);
        (1e12 / pps).round() as u64
    }
}

impl fmt::Display for Gbps {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3} Gbps", self.0)
    }
}

impl Add for Gbps {
    type Output = Gbps;
    fn add(self, rhs: Gbps) -> Gbps {
        Gbps(self.0 + rhs.0)
    }
}

impl Mul<f64> for Gbps {
    type Output = Gbps;
    fn mul(self, rhs: f64) -> Gbps {
        Gbps(self.0 * rhs)
    }
}

impl Div<Gbps> for Gbps {
    type Output = f64;
    fn div(self, rhs: Gbps) -> f64 {
        self.0 / rhs.0
    }
}

/// Megabits per second.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Mbps(f64);

impl Mbps {
    /// Creates a rate in megabits per second.
    pub const fn new(v: f64) -> Self {
        Mbps(v)
    }

    /// The raw value in Mbit/s.
    pub const fn get(self) -> f64 {
        self.0
    }

    /// Converts to [`Gbps`].
    pub fn to_gbps(self) -> Gbps {
        Gbps(self.0 / 1e3)
    }
}

impl fmt::Display for Mbps {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.1} Mbps", self.0)
    }
}

/// Millions of packets (or operations) per second.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Mpps(f64);

impl Mpps {
    /// Creates a rate in millions of packets per second.
    pub const fn new(v: f64) -> Self {
        Mpps(v)
    }

    /// The raw value in Mpkt/s.
    pub const fn get(self) -> f64 {
        self.0
    }

    /// Converts to [`Kpps`].
    pub fn to_kpps(self) -> Kpps {
        Kpps(self.0 * 1e3)
    }

    /// Bit rate at a given packet size in bytes.
    pub fn to_gbps(self, packet_bytes: u32) -> Gbps {
        Gbps(self.0 * 1e6 * packet_bytes as f64 * 8.0 / 1e9)
    }
}

impl fmt::Display for Mpps {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.2} Mpps", self.0)
    }
}

impl Mul<f64> for Mpps {
    type Output = Mpps;
    fn mul(self, rhs: f64) -> Mpps {
        Mpps(self.0 * rhs)
    }
}

/// Thousands of packets per second (the unit of most of Table 2).
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Kpps(f64);

impl Kpps {
    /// Creates a rate in thousands of packets per second.
    pub const fn new(v: f64) -> Self {
        Kpps(v)
    }

    /// The raw value in Kpkt/s.
    pub const fn get(self) -> f64 {
        self.0
    }

    /// Converts to [`Mpps`].
    pub fn to_mpps(self) -> Mpps {
        Mpps(self.0 / 1e3)
    }

    /// Bit rate at a given packet size in bytes.
    pub fn to_mbps(self, packet_bytes: u32) -> Mbps {
        Mbps(self.0 * 1e3 * packet_bytes as f64 * 8.0 / 1e6)
    }
}

impl fmt::Display for Kpps {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.0} Kpps", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gbps_to_packets() {
        // 6.144 Gbps of 64-byte segments is exactly 12 M segments/s.
        let bw = Gbps::new(6.144);
        assert!((bw.to_mpps(64).get() - 12.0).abs() < 1e-9);
    }

    #[test]
    fn mpps_to_bits() {
        // Table 2: 0.3 Mpps at 64-byte packets is ~153.6 Mbps -- the paper's
        // "cannot support more than 150 Mbps" claim.
        let rate = Mpps::new(0.3);
        assert!((rate.to_gbps(64).get() - 0.1536).abs() < 1e-9);
    }

    #[test]
    fn kpps_round_trip() {
        let k = Kpps::new(956.0);
        assert!((k.to_mpps().get() - 0.956).abs() < 1e-12);
        assert!((k.to_mbps(64).get() - 489.472).abs() < 1e-9);
        assert!((Mpps::new(0.956).to_kpps().get() - 956.0).abs() < 1e-9);
    }

    #[test]
    fn interarrival() {
        // 64-byte packets at 512 Mbps arrive every 1 us.
        let bw = Gbps::new(0.512);
        assert_eq!(bw.interarrival_picos(64), 1_000_000);
    }

    #[test]
    fn arithmetic_and_display() {
        let a = Gbps::new(1.5) + Gbps::new(0.5);
        assert!((a.get() - 2.0).abs() < 1e-12);
        assert!(((a * 2.0).get() - 4.0).abs() < 1e-12);
        assert!((Gbps::new(3.0) / Gbps::new(1.5) - 2.0).abs() < 1e-12);
        assert_eq!(Gbps::new(6.145).to_string(), "6.145 Gbps");
        assert_eq!(Mbps::new(100.0).to_string(), "100.0 Mbps");
        assert_eq!(Mpps::new(12.0).to_string(), "12.00 Mpps");
        assert_eq!(Kpps::new(390.0).to_string(), "390 Kpps");
        assert!((Mbps::new(1536.0).to_gbps().get() - 1.536).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "rate must be positive")]
    fn zero_rate_interarrival_panics() {
        let _ = Gbps::new(0.0).interarrival_picos(64);
    }
}
