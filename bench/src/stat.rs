//! Quantiles of a sample.
//!
//! Host noise on a small shared VM is one-sided (a repetition is only ever
//! slowed down), so the timed metrics are built on the *lower decile* of
//! the repetitions: the median moves with every noisy minute, the lower
//! decile barely does, and unlike the minimum it does not hang on one
//! lucky repetition. The cut points follow Python's
//! `statistics.quantiles(values, n)` (the exclusive method), so a spread
//! computed here equals the one the acceptance procedure computes.

/// The `i`-th of the `n - 1` cut points that divide `sorted` into `n`
/// intervals of equal probability. A single value is every cut point.
fn cut(sorted: &[f64], i: usize, n: usize) -> f64 {
    if sorted.len() == 1 {
        return sorted[0];
    }
    let m = sorted.len() + 1;
    let j = (i * m / n).clamp(1, sorted.len() - 1);
    // May be negative or exceed `n` once `j` was clamped: the cut then
    // extrapolates, exactly as Python's does.
    let delta = (i * m) as f64 - (j * n) as f64;
    (sorted[j - 1] * (n as f64 - delta) + sorted[j] * delta) / n as f64
}

fn sorted(values: &[f64]) -> Vec<f64> {
    assert!(!values.is_empty(), "quantiles of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("samples are never NaN"));
    v
}

/// The value a tenth of the sample lies below.
///
/// # Panics
///
/// Panics on an empty sample or a NaN.
pub fn lower_decile(values: &[f64]) -> f64 {
    // Never below the fastest repetition: with few samples the cut
    // extrapolates.
    let v = sorted(values);
    cut(&v, 1, 10).max(v[0])
}

/// First quartile, median and third quartile of a sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quartiles {
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
}

impl Quartiles {
    /// Quartiles of `values` (any order). A single value is its own
    /// quartiles.
    ///
    /// # Panics
    ///
    /// Panics on an empty sample or a NaN.
    pub fn of(values: &[f64]) -> Self {
        let v = sorted(values);
        Quartiles {
            q1: cut(&v, 1, 4),
            median: cut(&v, 2, 4),
            q3: cut(&v, 3, 4),
        }
    }

    /// Interquartile range as a share of the median.
    pub fn spread(&self) -> f64 {
        (self.q3 - self.q1) / self.median
    }
}

/// Median of a sample; see [`Quartiles::of`].
pub fn median(values: &[f64]) -> f64 {
    Quartiles::of(values).median
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_pythons_exclusive_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4)
        //   == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let q = Quartiles::of(&v);
        assert_eq!((q.q1, q.median, q.q3), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let q = Quartiles::of(&[3.0, 1.0, 2.0]);
        assert_eq!((q.q1, q.median, q.q3), (1.0, 2.0, 3.0));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        let q = Quartiles::of(&[20.0, 10.0]);
        assert_eq!((q.q1, q.median, q.q3), (7.5, 15.0, 22.5));
    }

    #[test]
    fn lower_decile_matches_python_and_never_undercuts_the_minimum() {
        // statistics.quantiles(range(1, 21), n=10)[0] == 2.1
        let v: Vec<f64> = (1..=20).map(f64::from).collect();
        assert!((lower_decile(&v) - 2.1).abs() < 1e-12);
        // statistics.quantiles([5, 6, 7], n=10)[0] == 4.4: extrapolated
        // below every sample, so the minimum stands in.
        assert_eq!(lower_decile(&[7.0, 5.0, 6.0]), 5.0);
        assert_eq!(lower_decile(&[3.0]), 3.0);
    }

    #[test]
    fn one_slow_repetition_leaves_the_quartiles_alone() {
        let mut v = vec![100.0; 20];
        v.push(1000.0);
        let q = Quartiles::of(&v);
        assert_eq!((q.q1, q.median, q.q3), (100.0, 100.0, 100.0));
        assert_eq!(lower_decile(&v), 100.0);
        assert_eq!(Quartiles::of(&[7.0]).spread(), 0.0);
    }
}
