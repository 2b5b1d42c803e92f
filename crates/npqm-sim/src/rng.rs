//! Deterministic pseudo-random number generation.
//!
//! The workspace ships its own xoshiro256++ implementation (seeded through
//! SplitMix64, as recommended by the algorithm's authors) instead of pulling
//! a heavyweight dependency into every model crate. Experiments are
//! reproducible bit-for-bit given the same seed, which matters because
//! the committed table artifacts and test pins hold exact values.

/// xoshiro256++ pseudo-random generator.
///
/// # Example
///
/// ```
/// use npqm_sim::rng::Xoshiro256pp;
/// let mut a = Xoshiro256pp::seed_from_u64(42);
/// let mut b = Xoshiro256pp::seed_from_u64(42);
/// assert_eq!(a.next_u64(), b.next_u64()); // deterministic
/// let bank = a.next_below(8);             // uniform in 0..8
/// assert!(bank < 8);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Xoshiro256pp {
    s: [u64; 4],
}

impl Xoshiro256pp {
    /// Creates a generator from a 64-bit seed, expanding it with SplitMix64.
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = SplitMix64::new(seed);
        let s = [sm.next_u64(), sm.next_u64(), sm.next_u64(), sm.next_u64()];
        // SplitMix64 cannot produce an all-zero expansion from any seed, but
        // guard anyway: xoshiro must not be seeded with all zeros.
        if s == [0, 0, 0, 0] {
            return Xoshiro256pp { s: [1, 2, 3, 4] };
        }
        Xoshiro256pp { s }
    }

    /// Next raw 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[0]
            .wrapping_add(self.s[3])
            .rotate_left(23)
            .wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform integer in `0..bound` using Lemire's unbiased method.
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    pub fn next_below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "bound must be non-zero");
        // Widening-multiply rejection sampling (unbiased).
        let mut x = self.next_u64();
        let mut m = (x as u128) * (bound as u128);
        let mut l = m as u64;
        if l < bound {
            let t = bound.wrapping_neg() % bound;
            while l < t {
                x = self.next_u64();
                m = (x as u128) * (bound as u128);
                l = m as u64;
            }
        }
        (m >> 64) as u64
    }

    /// Uniform `f64` in `[0, 1)` with 53 bits of precision.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Bernoulli trial with success probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }

    /// Exponentially distributed value with the given mean.
    ///
    /// Used for Poisson arrival processes.
    ///
    /// # Panics
    ///
    /// Panics if `mean` is not positive.
    pub fn next_exp(&mut self, mean: f64) -> f64 {
        assert!(mean > 0.0, "mean must be positive");
        // Inverse-CDF; (1 - u) avoids ln(0).
        -mean * (1.0 - self.next_f64()).ln()
    }

    /// Geometrically distributed count of successes before a failure, i.e.
    /// the distribution of burst lengths with continuation probability `p`.
    ///
    /// Returns at least 1. `p` is clamped to `[0, 0.999999]`.
    pub fn next_geometric(&mut self, p: f64) -> u64 {
        let p = p.clamp(0.0, 0.999_999);
        let mut n = 1;
        while self.chance(p) {
            n += 1;
        }
        n
    }

    /// Fisher–Yates shuffle of a slice.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = self.next_below(i as u64 + 1) as usize;
            xs.swap(i, j);
        }
    }
}

/// SplitMix64 — used to expand seeds for [`Xoshiro256pp`]; also a decent
/// standalone generator for non-critical mixing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator with the given state.
    pub const fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Next raw 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_streams() {
        let mut a = Xoshiro256pp::seed_from_u64(7);
        let mut b = Xoshiro256pp::seed_from_u64(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = Xoshiro256pp::seed_from_u64(1);
        let mut b = Xoshiro256pp::seed_from_u64(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn reference_vector_xoshiro() {
        // Cross-checked against the public-domain C reference seeded with
        // SplitMix64(0): first outputs of splitmix are
        // 0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, ...
        let mut sm = SplitMix64::new(0);
        assert_eq!(sm.next_u64(), 0xE220_A839_7B1D_CDAF);
        assert_eq!(sm.next_u64(), 0x6E78_9E6A_A1B9_65F4);
    }

    #[test]
    fn bounded_values_in_range() {
        let mut r = Xoshiro256pp::seed_from_u64(99);
        for bound in [1u64, 2, 3, 7, 8, 16, 1000] {
            for _ in 0..200 {
                assert!(r.next_below(bound) < bound);
            }
        }
    }

    #[test]
    fn bounded_values_roughly_uniform() {
        let mut r = Xoshiro256pp::seed_from_u64(5);
        let mut counts = [0u32; 8];
        for _ in 0..80_000 {
            counts[r.next_below(8) as usize] += 1;
        }
        for &c in &counts {
            // Expect 10_000 each; allow 5% deviation.
            assert!((9_500..=10_500).contains(&c), "count {c} out of range");
        }
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut r = Xoshiro256pp::seed_from_u64(3);
        let mut sum = 0.0;
        for _ in 0..10_000 {
            let x = r.next_f64();
            assert!((0.0..1.0).contains(&x));
            sum += x;
        }
        let mean = sum / 10_000.0;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean}");
    }

    #[test]
    fn exponential_mean() {
        let mut r = Xoshiro256pp::seed_from_u64(11);
        let n = 50_000;
        let mean = (0..n).map(|_| r.next_exp(84.0)).sum::<f64>() / n as f64;
        assert!((mean - 84.0).abs() < 2.0, "mean {mean}");
    }

    #[test]
    fn geometric_mean_burst() {
        let mut r = Xoshiro256pp::seed_from_u64(13);
        let n = 50_000;
        // Continuation probability 0.75 -> mean burst length 4.
        let mean = (0..n).map(|_| r.next_geometric(0.75) as f64).sum::<f64>() / n as f64;
        assert!((mean - 4.0).abs() < 0.1, "mean {mean}");
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut r = Xoshiro256pp::seed_from_u64(17);
        let mut v: Vec<u32> = (0..100).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(v, (0..100).collect::<Vec<_>>()); // astronomically unlikely
    }

    #[test]
    #[should_panic(expected = "bound must be non-zero")]
    fn zero_bound_panics() {
        Xoshiro256pp::seed_from_u64(0).next_below(0);
    }
}
