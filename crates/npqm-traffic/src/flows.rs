//! Flow-population models.
//!
//! NPUs typically have "to manage thousands of flows" (§1). `FlowMix`
//! draws which flow each packet belongs to — uniformly, or Zipf-skewed as
//! real traffic is — in the dense [`FlowId`] space of the queue engine.

use npqm_core::FlowId;
use npqm_sim::rng::Xoshiro256pp;

/// Flow-popularity model.
#[derive(Debug, Clone)]
pub enum FlowMix {
    /// All flows equally likely.
    Uniform {
        /// Number of flows.
        flows: u32,
    },
    /// Zipf-distributed popularity with exponent `s` (precomputed CDF).
    Zipf {
        /// Number of flows.
        flows: u32,
        /// Cumulative probability per rank.
        cdf: Vec<f64>,
    },
    /// Arbitrary per-flow popularity (precomputed CDF) — e.g. one tenant
    /// offering 2x its share while the others stay at theirs.
    Weighted {
        /// Cumulative probability per flow.
        cdf: Vec<f64>,
    },
}

impl FlowMix {
    /// Uniform popularity over `flows` flows.
    ///
    /// # Panics
    ///
    /// Panics if `flows` is zero.
    pub fn uniform(flows: u32) -> Self {
        assert!(flows > 0, "need at least one flow");
        FlowMix::Uniform { flows }
    }

    /// Zipf popularity with exponent `s` over `flows` flows.
    ///
    /// # Panics
    ///
    /// Panics if `flows` is zero or `s` is negative.
    pub fn zipf(flows: u32, s: f64) -> Self {
        assert!(flows > 0, "need at least one flow");
        assert!(s >= 0.0, "exponent must be non-negative");
        let mut cdf = Vec::with_capacity(flows as usize);
        let mut acc = 0.0;
        for rank in 1..=flows {
            acc += 1.0 / (rank as f64).powf(s);
            cdf.push(acc);
        }
        let total = acc;
        for p in &mut cdf {
            *p /= total;
        }
        FlowMix::Zipf { flows, cdf }
    }

    /// Popularity proportional to `weights` (flow `i` draws
    /// `weights[i] / sum`). Zero-weight flows never send.
    ///
    /// # Panics
    ///
    /// Panics if `weights` is empty, contains a negative or non-finite
    /// value, or sums to zero.
    pub fn weighted(weights: &[f64]) -> Self {
        assert!(!weights.is_empty(), "need at least one flow");
        assert!(
            weights.iter().all(|w| w.is_finite() && *w >= 0.0),
            "weights must be finite and non-negative"
        );
        let total: f64 = weights.iter().sum();
        assert!(total > 0.0, "weights must not all be zero");
        let mut acc = 0.0;
        let cdf = weights
            .iter()
            .map(|w| {
                acc += w / total;
                acc
            })
            .collect();
        FlowMix::Weighted { cdf }
    }

    /// Number of flows in the population.
    pub fn flows(&self) -> u32 {
        match self {
            FlowMix::Uniform { flows } => *flows,
            FlowMix::Zipf { flows, .. } => *flows,
            FlowMix::Weighted { cdf } => cdf.len() as u32,
        }
    }

    /// Draws the flow for the next packet.
    pub fn sample(&self, rng: &mut Xoshiro256pp) -> FlowId {
        match self {
            FlowMix::Uniform { flows } => FlowId::new(rng.next_below(*flows as u64) as u32),
            FlowMix::Zipf { cdf, .. } | FlowMix::Weighted { cdf } => {
                let u = rng.next_f64();
                let idx = cdf.partition_point(|&p| p < u);
                FlowId::new(idx.min(cdf.len() - 1) as u32)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_covers_all_flows() {
        let mix = FlowMix::uniform(8);
        let mut rng = Xoshiro256pp::seed_from_u64(1);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..1000 {
            seen.insert(mix.sample(&mut rng));
        }
        assert_eq!(seen.len(), 8);
        assert_eq!(mix.flows(), 8);
    }

    #[test]
    fn zipf_skews_toward_low_ranks() {
        let mix = FlowMix::zipf(1000, 1.0);
        let mut rng = Xoshiro256pp::seed_from_u64(2);
        let mut counts = vec![0u32; 1000];
        for _ in 0..100_000 {
            counts[mix.sample(&mut rng).index() as usize] += 1;
        }
        // Rank 1 should get ~1/H(1000) = ~13.4% of traffic.
        let top = counts[0] as f64 / 100_000.0;
        assert!((0.10..0.17).contains(&top), "top share {top}");
        // And roughly twice rank 2.
        assert!(counts[0] > counts[1]);
        assert!(counts[1] > counts[10]);
    }

    #[test]
    fn zipf_zero_exponent_is_uniform() {
        let mix = FlowMix::zipf(4, 0.0);
        let mut rng = Xoshiro256pp::seed_from_u64(3);
        let mut counts = [0u32; 4];
        for _ in 0..40_000 {
            counts[mix.sample(&mut rng).index() as usize] += 1;
        }
        for &c in &counts {
            assert!((9_000..11_000).contains(&c), "count {c}");
        }
    }

    #[test]
    fn weighted_shares_track_the_weights() {
        let mix = FlowMix::weighted(&[6.0, 2.0, 2.0, 0.0]);
        let mut rng = Xoshiro256pp::seed_from_u64(4);
        let mut counts = [0u32; 4];
        for _ in 0..50_000 {
            counts[mix.sample(&mut rng).index() as usize] += 1;
        }
        assert_eq!(counts[3], 0, "zero-weight flow never sends");
        let share0 = counts[0] as f64 / 50_000.0;
        assert!((0.57..0.63).contains(&share0), "share0 {share0}");
        assert_eq!(mix.flows(), 4);
    }
}
