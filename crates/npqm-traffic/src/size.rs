//! Packet-size distributions.

use npqm_sim::rng::Xoshiro256pp;

/// A packet-size model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SizeDistribution {
    /// Every packet the same size. The paper's worst case is
    /// `Fixed(64)` — minimum-size Ethernet.
    Fixed(u32),
    /// The classic IMIX: 64 B (7/12), 594 B (4/12), 1518 B (1/12).
    Imix,
    /// Uniform between `min` and `max` inclusive.
    Uniform {
        /// Smallest packet.
        min: u32,
        /// Largest packet.
        max: u32,
    },
}

impl SizeDistribution {
    /// The paper's worst-case workload.
    pub const WORST_CASE: SizeDistribution = SizeDistribution::Fixed(64);

    /// Draws one packet size in bytes.
    ///
    /// # Panics
    ///
    /// Panics if a `Uniform` has `min > max` or a `Fixed` size is zero.
    pub fn sample(&self, rng: &mut Xoshiro256pp) -> u32 {
        match *self {
            SizeDistribution::Fixed(n) => {
                assert!(n > 0, "packet size must be non-zero");
                n
            }
            SizeDistribution::Imix => match rng.next_below(12) {
                0..=6 => 64,
                7..=10 => 594,
                _ => 1518,
            },
            SizeDistribution::Uniform { min, max } => {
                assert!(min <= max && min > 0, "bad uniform range");
                min + rng.next_below((max - min + 1) as u64) as u32
            }
        }
    }

    /// The mean packet size in bytes.
    pub fn mean(&self) -> f64 {
        match *self {
            SizeDistribution::Fixed(n) => n as f64,
            SizeDistribution::Imix => (7.0 * 64.0 + 4.0 * 594.0 + 1518.0) / 12.0,
            SizeDistribution::Uniform { min, max } => (min + max) as f64 / 2.0,
        }
    }

    /// The largest packet size the distribution can produce, in bytes
    /// (e.g. for sizing payload buffers).
    pub fn max_bytes(&self) -> u32 {
        match *self {
            SizeDistribution::Fixed(n) => n,
            SizeDistribution::Imix => 1518,
            SizeDistribution::Uniform { max, .. } => max,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_always_same() {
        let mut rng = Xoshiro256pp::seed_from_u64(1);
        let d = SizeDistribution::Fixed(64);
        for _ in 0..10 {
            assert_eq!(d.sample(&mut rng), 64);
        }
        assert_eq!(d.mean(), 64.0);
    }

    #[test]
    fn imix_mix_and_mean() {
        let mut rng = Xoshiro256pp::seed_from_u64(2);
        let d = SizeDistribution::Imix;
        let mut counts = std::collections::HashMap::new();
        let n = 24_000;
        let mut sum = 0u64;
        for _ in 0..n {
            let s = d.sample(&mut rng);
            *counts.entry(s).or_insert(0u32) += 1;
            sum += s as u64;
        }
        assert_eq!(counts.len(), 3);
        // 7/12 = 58.3% small packets, within 2%.
        let small = counts[&64] as f64 / n as f64;
        assert!((small - 7.0 / 12.0).abs() < 0.02, "small {small}");
        let mean = sum as f64 / n as f64;
        assert!(
            (mean - d.mean()).abs() < 10.0,
            "mean {mean} vs {}",
            d.mean()
        );
    }

    #[test]
    fn uniform_in_range() {
        let mut rng = Xoshiro256pp::seed_from_u64(3);
        let d = SizeDistribution::Uniform { min: 40, max: 1500 };
        for _ in 0..1000 {
            let s = d.sample(&mut rng);
            assert!((40..=1500).contains(&s));
        }
        assert_eq!(d.mean(), 770.0);
    }

    #[test]
    fn max_bytes_bounds_every_sample() {
        let mut rng = Xoshiro256pp::seed_from_u64(5);
        for d in [
            SizeDistribution::Fixed(9000),
            SizeDistribution::Imix,
            SizeDistribution::Uniform { min: 40, max: 1500 },
        ] {
            let cap = d.max_bytes();
            for _ in 0..500 {
                assert!(d.sample(&mut rng) <= cap);
            }
        }
        assert_eq!(SizeDistribution::Imix.max_bytes(), 1518);
    }

    #[test]
    #[should_panic(expected = "bad uniform range")]
    fn inverted_uniform_panics() {
        let mut rng = Xoshiro256pp::seed_from_u64(4);
        SizeDistribution::Uniform { min: 10, max: 5 }.sample(&mut rng);
    }
}
