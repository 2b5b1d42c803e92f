//! Measurement primitives: counters, mean/variance, histograms, utilization.
//!
//! Every experiment in the workspace reports through these types so that the
//! table-regeneration binaries and the tests agree on the arithmetic.

use core::fmt;

/// A monotonically increasing event counter.
///
/// # Example
///
/// ```
/// use npqm_sim::stats::Counter;
/// let mut served = Counter::default();
/// served.incr();
/// served.add(3);
/// assert_eq!(served.get(), 4);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Counter(u64);

impl Counter {
    /// Creates a counter starting at zero.
    pub const fn new() -> Self {
        Counter(0)
    }

    /// Increments by one.
    pub fn incr(&mut self) {
        self.0 += 1;
    }

    /// Adds `n` events.
    pub fn add(&mut self, n: u64) {
        self.0 += n;
    }

    /// Current count.
    pub const fn get(self) -> u64 {
        self.0
    }

    /// Count as `f64`.
    pub fn as_f64(self) -> f64 {
        self.0 as f64
    }
}

impl fmt::Display for Counter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// Streaming mean and variance (Welford's algorithm).
///
/// # Example
///
/// ```
/// use npqm_sim::stats::MeanVar;
/// let mut delay = MeanVar::default();
/// for x in [10.0, 11.0, 10.0, 11.0] {
///     delay.push(x);
/// }
/// assert!((delay.mean() - 10.5).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct MeanVar {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl MeanVar {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a sample.
    pub fn push(&mut self, x: f64) {
        if self.n == 0 {
            self.min = x;
            self.max = x;
        } else {
            self.min = self.min.min(x);
            self.max = self.max.max(x);
        }
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
    }

    /// Number of samples.
    pub const fn count(&self) -> u64 {
        self.n
    }

    /// Sample mean (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population variance (0.0 with fewer than two samples).
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / self.n as f64
        }
    }

    /// Population standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Smallest sample (0.0 when empty).
    pub fn min(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.min
        }
    }

    /// Largest sample (0.0 when empty).
    pub fn max(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.max
        }
    }

    /// Merges another accumulator into this one (parallel Welford).
    pub fn merge(&mut self, other: &MeanVar) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = *other;
            return;
        }
        let n1 = self.n as f64;
        let n2 = other.n as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.n += other.n;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

impl fmt::Display for MeanVar {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "mean {:.3} (sd {:.3}, n {}, min {:.3}, max {:.3})",
            self.mean(),
            self.std_dev(),
            self.n,
            self.min(),
            self.max()
        )
    }
}

/// Fixed-bucket histogram over `u64` values (e.g. latency in cycles).
///
/// Values at or above the upper bound fall in the overflow bucket.
///
/// # Example
///
/// ```
/// use npqm_sim::stats::Histogram;
/// let mut h = Histogram::new(10, 8); // 10 buckets, 8 units wide
/// h.record(3);
/// h.record(12);
/// h.record(1000); // overflow
/// assert_eq!(h.count(), 3);
/// assert_eq!(h.overflow(), 1);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    buckets: Vec<u64>,
    width: u64,
    overflow: u64,
    total: u64,
}

impl Histogram {
    /// Creates a histogram with `n_buckets` buckets of `width` units each.
    ///
    /// # Panics
    ///
    /// Panics if `n_buckets` or `width` is zero.
    pub fn new(n_buckets: usize, width: u64) -> Self {
        assert!(n_buckets > 0, "histogram needs at least one bucket");
        assert!(width > 0, "bucket width must be non-zero");
        Histogram {
            buckets: vec![0; n_buckets],
            width,
            overflow: 0,
            total: 0,
        }
    }

    /// Records one value.
    pub fn record(&mut self, value: u64) {
        let idx = (value / self.width) as usize;
        if idx < self.buckets.len() {
            self.buckets[idx] += 1;
        } else {
            self.overflow += 1;
        }
        self.total += 1;
    }

    /// Total number of recorded values.
    pub const fn count(&self) -> u64 {
        self.total
    }

    /// Number of values that exceeded the histogram range.
    pub const fn overflow(&self) -> u64 {
        self.overflow
    }

    /// Bucket contents (ascending ranges of `width` each).
    pub fn buckets(&self) -> &[u64] {
        &self.buckets
    }

    /// Bucket width in units.
    pub const fn width(&self) -> u64 {
        self.width
    }

    /// Merges another histogram into this one, bucket by bucket — the
    /// counterpart of [`MeanVar::merge`] for quantile aggregation (e.g.
    /// folding per-shard epoch windows into an engine-wide window).
    ///
    /// # Panics
    ///
    /// Panics if the two histograms have different shapes (bucket count
    /// or width): their buckets would not describe the same ranges.
    pub fn merge(&mut self, other: &Histogram) {
        assert_eq!(self.width, other.width, "histogram widths differ");
        assert_eq!(
            self.buckets.len(),
            other.buckets.len(),
            "histogram bucket counts differ"
        );
        for (b, o) in self.buckets.iter_mut().zip(&other.buckets) {
            *b += o;
        }
        self.overflow += other.overflow;
        self.total += other.total;
    }

    /// Approximate quantile (`q` in `[0,1]`) using bucket upper bounds.
    ///
    /// Returns `None` when empty. The overflow bucket reports `u64::MAX`.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.total == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let target = (q * self.total as f64).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= target {
                return Some((i as u64 + 1) * self.width - 1);
            }
        }
        Some(u64::MAX)
    }
}

/// Busy/idle utilization tracker over a known horizon.
///
/// # Example
///
/// ```
/// use npqm_sim::stats::Utilization;
/// let mut u = Utilization::default();
/// u.busy(30);
/// u.idle(10);
/// assert!((u.fraction() - 0.75).abs() < 1e-12);
/// assert!((u.loss() - 0.25).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Utilization {
    busy: u64,
    idle: u64,
}

impl Utilization {
    /// Creates an empty tracker.
    pub const fn new() -> Self {
        Utilization { busy: 0, idle: 0 }
    }

    /// Accounts `n` busy units (cycles, slots, ...).
    pub fn busy(&mut self, n: u64) {
        self.busy += n;
    }

    /// Accounts `n` idle units.
    pub fn idle(&mut self, n: u64) {
        self.idle += n;
    }

    /// Busy units seen so far.
    pub const fn busy_units(self) -> u64 {
        self.busy
    }

    /// Idle units seen so far.
    pub const fn idle_units(self) -> u64 {
        self.idle
    }

    /// Fraction of time busy (0.0 when nothing recorded).
    pub fn fraction(self) -> f64 {
        let total = self.busy + self.idle;
        if total == 0 {
            0.0
        } else {
            self.busy as f64 / total as f64
        }
    }

    /// Throughput loss: `1 - fraction()` — the unit Table 1 reports.
    pub fn loss(self) -> f64 {
        1.0 - self.fraction()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_basics() {
        let mut c = Counter::new();
        c.incr();
        c.incr();
        c.add(8);
        assert_eq!(c.get(), 10);
        assert_eq!(c.as_f64(), 10.0);
        assert_eq!(c.to_string(), "10");
    }

    #[test]
    fn meanvar_known_values() {
        let mut mv = MeanVar::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            mv.push(x);
        }
        assert_eq!(mv.count(), 8);
        assert!((mv.mean() - 5.0).abs() < 1e-12);
        assert!((mv.variance() - 4.0).abs() < 1e-12);
        assert!((mv.std_dev() - 2.0).abs() < 1e-12);
        assert_eq!(mv.min(), 2.0);
        assert_eq!(mv.max(), 9.0);
    }

    #[test]
    fn meanvar_empty_is_zero() {
        let mv = MeanVar::new();
        assert_eq!(mv.mean(), 0.0);
        assert_eq!(mv.variance(), 0.0);
        assert_eq!(mv.min(), 0.0);
        assert_eq!(mv.max(), 0.0);
    }

    #[test]
    fn meanvar_merge_matches_sequential() {
        let xs: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 10.0).collect();
        let mut whole = MeanVar::new();
        for &x in &xs {
            whole.push(x);
        }
        let mut left = MeanVar::new();
        let mut right = MeanVar::new();
        for &x in &xs[..37] {
            left.push(x);
        }
        for &x in &xs[37..] {
            right.push(x);
        }
        left.merge(&right);
        assert_eq!(left.count(), whole.count());
        assert!((left.mean() - whole.mean()).abs() < 1e-9);
        assert!((left.variance() - whole.variance()).abs() < 1e-9);
        assert_eq!(left.min(), whole.min());
        assert_eq!(left.max(), whole.max());
    }

    #[test]
    fn meanvar_merge_with_empty() {
        let mut a = MeanVar::new();
        a.push(1.0);
        let b = MeanVar::new();
        let before = a;
        a.merge(&b);
        assert_eq!(a, before);
        let mut c = MeanVar::new();
        c.merge(&a);
        assert_eq!(c, a);
    }

    #[test]
    fn histogram_buckets_and_quantiles() {
        let mut h = Histogram::new(4, 10);
        for v in [0, 5, 9, 10, 25, 39] {
            h.record(v);
        }
        assert_eq!(h.buckets(), &[3, 1, 1, 1]);
        assert_eq!(h.count(), 6);
        assert_eq!(h.overflow(), 0);
        assert_eq!(h.quantile(0.5), Some(9));
        assert_eq!(h.quantile(1.0), Some(39));
        h.record(1_000);
        assert_eq!(h.overflow(), 1);
        assert_eq!(h.quantile(1.0), Some(u64::MAX));
    }

    #[test]
    fn histogram_merge_matches_sequential() {
        let mut whole = Histogram::new(4, 10);
        let mut left = Histogram::new(4, 10);
        let mut right = Histogram::new(4, 10);
        for (i, v) in [0u64, 5, 9, 10, 25, 39, 1_000, 52].iter().enumerate() {
            whole.record(*v);
            if i % 2 == 0 {
                left.record(*v);
            } else {
                right.record(*v);
            }
        }
        left.merge(&right);
        assert_eq!(left, whole);
    }

    #[test]
    #[should_panic(expected = "histogram widths differ")]
    fn histogram_merge_rejects_mismatched_width() {
        let mut a = Histogram::new(4, 10);
        let b = Histogram::new(4, 20);
        a.merge(&b);
    }

    #[test]
    fn histogram_empty_quantile_is_none() {
        let h = Histogram::new(2, 5);
        assert_eq!(h.quantile(0.5), None);
    }

    #[test]
    fn histogram_single_sample_reports_its_bucket_upper_bound() {
        let mut h = Histogram::new(8, 10);
        h.record(34); // bucket 3 covers [30, 40)
        for q in [0.0, 0.5, 0.99, 1.0] {
            assert_eq!(h.quantile(q), Some(39), "q={q}");
        }
        assert_eq!(h.count(), 1);
        assert_eq!(h.overflow(), 0);
    }

    #[test]
    fn histogram_top_bucket_saturation_pins_quantiles_to_max() {
        let mut h = Histogram::new(4, 100);
        // Everything lands at or beyond the range: pure overflow, so
        // even the median is only known to be "past the last bucket".
        for v in [400, 401, 1_000_000, u64::MAX] {
            h.record(v);
        }
        assert_eq!(h.overflow(), 4);
        assert_eq!(h.quantile(0.5), Some(u64::MAX));
        assert_eq!(h.quantile(1.0), Some(u64::MAX));
        // One in-range value restores a finite low quantile while the
        // tail stays pinned.
        h.record(399);
        assert_eq!(h.quantile(0.1), Some(399));
        assert_eq!(h.quantile(0.9), Some(u64::MAX));
    }

    #[test]
    fn utilization_loss() {
        let mut u = Utilization::new();
        assert_eq!(u.fraction(), 0.0);
        u.busy(250);
        u.idle(750);
        assert!((u.loss() - 0.75).abs() < 1e-12);
        assert_eq!(u.busy_units(), 250);
        assert_eq!(u.idle_units(), 750);
    }

    #[test]
    #[should_panic(expected = "bucket width must be non-zero")]
    fn zero_width_histogram_panics() {
        let _ = Histogram::new(4, 0);
    }
}
