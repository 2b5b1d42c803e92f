//! Packet-size distributions.

use npqm_sim::rng::Xoshiro256pp;

/// IMIX by twelfths: the size of each value of `next_below(12)`.
const IMIX: [u32; 12] = [64, 64, 64, 64, 64, 64, 64, 594, 594, 594, 594, 1518];

/// A packet-size model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SizeDistribution {
    /// Every packet the same size. The paper's worst case is
    /// `Fixed(64)` — minimum-size Ethernet.
    Fixed(u32),
    /// The classic IMIX: 64 B (7/12), 594 B (4/12), 1518 B (1/12).
    Imix,
}

impl SizeDistribution {
    /// Draws one packet size in bytes.
    ///
    /// # Panics
    ///
    /// Panics if a `Fixed` size is zero.
    pub fn sample(&self, rng: &mut Xoshiro256pp) -> u32 {
        match *self {
            SizeDistribution::Fixed(n) => {
                assert!(n > 0, "packet size must be non-zero");
                n
            }
            SizeDistribution::Imix => IMIX[rng.next_below(12) as usize],
        }
    }

    /// The mean packet size in bytes.
    pub fn mean(&self) -> f64 {
        match *self {
            SizeDistribution::Fixed(n) => n as f64,
            SizeDistribution::Imix => IMIX.iter().sum::<u32>() as f64 / 12.0,
        }
    }

    /// The largest packet size the distribution can produce, in bytes
    /// (e.g. for sizing payload buffers).
    pub fn max_bytes(&self) -> u32 {
        match *self {
            SizeDistribution::Fixed(n) => n,
            SizeDistribution::Imix => 1518,
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
    fn imix_table_is_the_three_arm_match() {
        for twelfth in 0..12u64 {
            let matched = match twelfth {
                0..=6 => 64,
                7..=10 => 594,
                _ => 1518,
            };
            assert_eq!(
                IMIX[twelfth as usize], matched,
                "next_below(12) = {twelfth}"
            );
        }
    }

    #[test]
    fn max_bytes_bounds_every_sample() {
        let mut rng = Xoshiro256pp::seed_from_u64(5);
        for d in [SizeDistribution::Fixed(9000), SizeDistribution::Imix] {
            let cap = d.max_bytes();
            for _ in 0..500 {
                assert!(d.sample(&mut rng) <= cap);
            }
        }
        assert_eq!(SizeDistribution::Imix.max_bytes(), 1518);
    }
}
