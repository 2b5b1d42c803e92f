//! Flow-population models.
//!
//! NPUs typically have "to manage thousands of flows" (§1). `FlowMix`
//! draws which flow each packet belongs to — uniformly, or Zipf-skewed as
//! real traffic is — in the dense [`FlowId`] space of the queue engine.
//!
//! # Skewed draws are integer table lookups, exactly
//!
//! A Zipf or weighted mix over `n` flows is defined by its cumulative
//! probabilities `cdf_0 ≤ … ≤ cdf_{n−1}` (running sums of non-negative
//! terms, so non-decreasing in floating point too). The draw it stands
//! for takes `u = next_f64()` and picks
//! `cdf.partition_point(|&p| p < u).min(n − 1)`: the number of flows with
//! `cdf_i < u`, clamped. A [`CdfTable`] picks the same flow from the same
//! RNG word without a float or a search:
//!
//! - `next_f64` is `k·2^-53` for `k = next_u64() >> 11`, and both the
//!   conversion of `k < 2^53` and the scaling are exact, so `u = k·2^-53`.
//! - Scaling by `2^53` is exact too, so `cdf_i < u ⟺ cdf_i·2^53 < k`, and
//!   since `k` is an integer, `⟺ ⌊cdf_i·2^53⌋ + 1 ≤ k`. The table keeps
//!   `t_i = ⌊cdf_i·2^53⌋ + 1`, or `u64::MAX` where `cdf_i·2^53 ≥ 2^53`
//!   (no `k` reaches it). So `cdf_i < u ⟺ t_i ≤ k`, and the search's
//!   answer is `#{i : t_i ≤ k}`.
//! - The thresholds are non-decreasing, so the flows below `k` are a
//!   prefix. Setting `t_{n−1} = u64::MAX` stops the count at `n − 1`
//!   when every flow is below `k` and changes nothing otherwise: that is
//!   the clamp.
//! - A guide indexed by the top bits of `k` holds, per bucket, the count
//!   at the bucket's first `k`; one compare against the next threshold
//!   finishes the count whenever the bucket holds at most one threshold
//!   above its first `k`. The guide has 16 buckets per flow (rounded up
//!   to a power of two, at most 2^16), which is 4 KiB at 64 flows; at
//!   that size no Zipf mix the tables draw has a bucket with two
//!   thresholds, so its draw has no branch on the drawn value. A table
//!   where some bucket does (a long tail of tiny weights, or runs of
//!   zero weights) walks on from there to the exact count.
//!
//! Every draw thus consumes the RNG words the float search consumed and
//! returns its flow for every `k`; the tests hold the table to the search
//! on boundary and random words.

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
    /// Zipf-distributed popularity with exponent `s`.
    Zipf {
        /// The mix's inverse CDF.
        table: CdfTable,
    },
    /// Arbitrary per-flow popularity — e.g. one tenant offering 2x its
    /// share while the others stay at theirs.
    Weighted {
        /// The mix's inverse CDF.
        table: CdfTable,
    },
}

/// A skewed mix's inverse CDF as integers, with a guide: a draw is one
/// RNG word, two loads and a compare, and picks exactly the flow the
/// float search over the CDF picks (see the [module docs](self)).
#[derive(Debug, Clone)]
pub struct CdfTable {
    /// `t_i`: flow `i` lies below a draw `k` iff `t_i ≤ k`. The last is
    /// `u64::MAX`, which is the clamp to the last flow.
    thresholds: Box<[u64]>,
    /// Per bucket of `k >> shift`: the flows below the bucket's first `k`.
    guide: Box<[u32]>,
    /// `53 − log2(guide.len())`.
    shift: u32,
    /// Some bucket holds two or more thresholds above its first `k`, so
    /// one compare does not settle every draw.
    crowded: bool,
}

impl CdfTable {
    /// The table of a non-empty, non-decreasing `cdf`.
    fn new(cdf: &[f64]) -> Self {
        const SCALE: f64 = (1u64 << 53) as f64;
        let mut thresholds: Box<[u64]> = cdf
            .iter()
            .map(|&p| {
                let x = p * SCALE;
                if x < SCALE {
                    x as u64 + 1
                } else {
                    u64::MAX
                }
            })
            .collect();
        let n = thresholds.len();
        thresholds[n - 1] = u64::MAX;
        let buckets = n.next_power_of_two().saturating_mul(16).min(1 << 16);
        let shift = 53 - buckets.trailing_zeros();
        let width = 1u64 << shift;
        let (mut guide, mut below, mut crowded) = (Vec::with_capacity(buckets), 0, false);
        for lo in (0..buckets as u64).map(|b| b << shift) {
            // Terminates: the last threshold is above every `k`.
            while thresholds[below] <= lo {
                below += 1;
            }
            guide.push(below as u32);
            crowded |= thresholds.get(below + 1).is_some_and(|&t| t < lo + width);
        }
        CdfTable {
            thresholds,
            guide: guide.into_boxed_slice(),
            shift,
            crowded,
        }
    }

    /// Number of flows.
    fn flows(&self) -> u32 {
        self.thresholds.len() as u32
    }

    /// The flow of draw word `k < 2^53`: `#{i : t_i ≤ k}`.
    fn flow_of(&self, k: u64) -> u32 {
        let mut i = self.guide[(k >> self.shift) as usize] as usize;
        i += usize::from(self.thresholds[i] <= k);
        while self.crowded && self.thresholds[i] <= k {
            i += 1;
        }
        i as u32
    }
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
        FlowMix::Zipf {
            table: CdfTable::new(&zipf_cdf(flows, s)),
        }
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
        FlowMix::Weighted {
            table: CdfTable::new(&weighted_cdf(weights)),
        }
    }

    /// Number of flows in the population.
    pub fn flows(&self) -> u32 {
        match self {
            FlowMix::Uniform { flows } => *flows,
            FlowMix::Zipf { table } | FlowMix::Weighted { table } => table.flows(),
        }
    }

    /// Draws the flow for the next packet.
    pub fn sample(&self, rng: &mut Xoshiro256pp) -> FlowId {
        match self {
            FlowMix::Uniform { flows } => FlowId::new(rng.next_below(*flows as u64) as u32),
            FlowMix::Zipf { table } | FlowMix::Weighted { table } => {
                FlowId::new(table.flow_of(rng.next_u64() >> 11))
            }
        }
    }
}

/// Zipf's cumulative probabilities: rank `r` weighs `r^-s`.
fn zipf_cdf(flows: u32, s: f64) -> Vec<f64> {
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
    cdf
}

/// The running sum of `weights`' shares.
fn weighted_cdf(weights: &[f64]) -> Vec<f64> {
    let total: f64 = weights.iter().sum();
    assert!(total > 0.0, "weights must not all be zero");
    let mut acc = 0.0;
    weights
        .iter()
        .map(|w| {
            acc += w / total;
            acc
        })
        .collect()
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

    /// The float search the table replaced, on the word `k` it would
    /// have drawn.
    fn searched(cdf: &[f64], k: u64) -> u32 {
        let u = k as f64 * (1.0 / (1u64 << 53) as f64);
        cdf.partition_point(|&p| p < u).min(cdf.len() - 1) as u32
    }

    /// The table against the search on every boundary word — 0, each
    /// `t_i − 1` and `t_i`, and 2^53 − 1 — and on 10^5 seeded words.
    fn assert_exact(cdf: &[f64], what: &str) {
        let table = CdfTable::new(cdf);
        let top = (1u64 << 53) as f64;
        let mut words = vec![0, (1u64 << 53) - 1];
        for x in cdf.iter().map(|p| p * top).filter(|&x| x < top) {
            words.extend([x as u64, x as u64 + 1]);
        }
        let mut rng = Xoshiro256pp::seed_from_u64(cdf.len() as u64);
        words.extend((0..100_000).map(|_| rng.next_u64() >> 11));
        for k in words {
            assert_eq!(table.flow_of(k), searched(cdf, k), "{what}, k = {k}");
        }
    }

    #[test]
    fn zipf_table_draws_what_the_search_drew() {
        for flows in [1, 2, 7, 64, 1000, 32768] {
            for s in [0.0, 0.7, 1.2, 3.0] {
                assert_exact(&zipf_cdf(flows, s), &format!("zipf({flows}, {s})"));
            }
        }
    }

    #[test]
    fn weighted_table_draws_what_the_search_drew() {
        let mut rng = Xoshiro256pp::seed_from_u64(7);
        let many: Vec<f64> = (0..1000).map(|_| rng.next_f64() * 1e3).collect();
        let cdf = weighted_cdf(&many);
        assert!(cdf[999] < 1.0, "the seeded weights exercise the clamp");
        assert_exact(&cdf, "1000 seeded weights");
        for weights in [
            &[0.0, 0.0, 1.0][..],
            &[1e-300, 1.0, 0.0],
            &[6.0, 2.0, 2.0, 0.0],
        ] {
            assert_exact(&weighted_cdf(weights), &format!("{weights:?}"));
        }
    }

    /// The guide is fine enough that the tables' Zipf mix settles every
    /// draw with one compare.
    #[test]
    fn the_table_mixes_settle_a_draw_with_one_compare() {
        for flows in [8, 16, 64] {
            let FlowMix::Zipf { table } = FlowMix::zipf(flows, 1.2) else {
                unreachable!()
            };
            assert!(!table.crowded, "zipf({flows}, 1.2)");
            assert_eq!(table.guide.len(), 16 * flows as usize);
        }
    }
}
