//! A small log-scale histogram for latency distributions.
//!
//! Values are bucketed by their binary magnitude (bucket `k` holds values
//! in `[2^k, 2^(k+1))`, bucket 0 holds 0 and 1), which gives quantiles
//! with at most 2x relative error at constant memory — plenty for
//! comparing queueing-delay distributions across scheduling policies.

/// Number of buckets: covers values up to `2^63`.
const BUCKETS: usize = 64;

/// A log₂-bucketed histogram of `u64` observations.
///
/// # Example
///
/// ```
/// use pimsim_stats::Histogram;
///
/// let mut h = Histogram::new();
/// for v in [10, 20, 40, 80, 1000] {
///     h.record(v);
/// }
/// assert_eq!(h.count(), 5);
/// assert!(h.quantile(0.5).unwrap() >= 20);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    counts: Vec<u64>,
    total: u64,
    sum: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Histogram {
            counts: vec![0; BUCKETS],
            total: 0,
            sum: 0,
            max: 0,
        }
    }

    fn bucket(v: u64) -> usize {
        (64 - v.max(1).leading_zeros() - 1) as usize
    }

    /// Records one observation.
    pub fn record(&mut self, v: u64) {
        self.counts[Self::bucket(v)] += 1;
        self.total += 1;
        self.sum += v;
        self.max = self.max.max(v);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Arithmetic mean, or `None` if empty.
    pub fn mean(&self) -> Option<f64> {
        (self.total > 0).then(|| self.sum as f64 / self.total as f64)
    }

    /// Largest observation.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// The p-quantile (0.0..=1.0) as the upper bound of the bucket holding
    /// that rank (within 2x of the true value), or `None` if empty.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `0.0..=1.0`.
    pub fn quantile(&self, p: f64) -> Option<u64> {
        assert!((0.0..=1.0).contains(&p), "quantile p out of range: {p}");
        if self.total == 0 {
            return None;
        }
        let rank = ((p * self.total as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (k, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                // Upper bound of bucket k, capped at the observed max.
                let hi = if k >= 63 { u64::MAX } else { (2u64 << k) - 1 };
                return Some(hi.min(self.max));
            }
        }
        Some(self.max)
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_and_counts() {
        let mut h = Histogram::new();
        assert_eq!(h.mean(), None);
        for v in 0..100u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 100);
        assert_eq!(h.max(), 99);
        assert!((h.mean().unwrap() - 49.5).abs() < 1e-9);
    }

    #[test]
    fn quantiles_are_within_bucket_error() {
        let mut h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        let p50 = h.quantile(0.5).unwrap();
        assert!((500..=1023).contains(&p50), "p50 {p50}");
        let p99 = h.quantile(0.99).unwrap();
        assert!((990..=1023).contains(&p99), "p99 {p99}");
        assert_eq!(h.quantile(1.0), Some(1000));
    }

    #[test]
    fn zero_values_are_representable() {
        let mut h = Histogram::new();
        h.record(0);
        h.record(1);
        assert_eq!(h.count(), 2);
        assert_eq!(h.quantile(0.5), Some(1));
    }

    #[test]
    fn merge_equals_combined_stream() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        let mut c = Histogram::new();
        for v in [3u64, 17, 220] {
            a.record(v);
            c.record(v);
        }
        for v in [9u64, 4000] {
            b.record(v);
            c.record(v);
        }
        a.merge(&b);
        assert_eq!(a, c);
    }

    #[test]
    #[should_panic(expected = "quantile p out of range")]
    fn bad_quantile_panics() {
        let h = Histogram::new();
        let _ = h.quantile(2.0);
    }
}
