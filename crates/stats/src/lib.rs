//! Statistics and system-level metrics for the `pim-coscheduling` simulator.
//!
//! Provides small, dependency-light building blocks:
//!
//! * [`Samples`] — a collected sample set with quartile summaries (used for
//!   the box-plot style characterization in Figure 4 of the paper).
//! * [`Running`] — online count/mean/min/max accumulator.
//! * [`metrics`] — the paper's system-level metrics: *fairness index* and
//!   *system throughput* (Eyerman & Eeckhout, IEEE Micro 2008).
//! * [`table`] — fixed-width text tables for the figure-regeneration
//!   binaries.
//!
//! # Example
//!
//! ```
//! use pimsim_stats::metrics::{fairness_index, system_throughput};
//!
//! let fi = fairness_index(0.5, 1.0);
//! assert!((fi - 0.5).abs() < 1e-12);
//! assert!((system_throughput(0.5, 1.0) - 1.5).abs() < 1e-12);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod histogram;
pub mod metrics;
pub mod table;

pub use histogram::Histogram;

/// A stats bundle that can absorb another instance of itself.
///
/// Implemented by per-channel counter structs (`McStats`, `ChannelStats`)
/// so cross-channel aggregation is one generic fold instead of a bespoke
/// merge loop per stats type.
///
/// # Example
///
/// ```
/// use pimsim_stats::Mergeable;
///
/// #[derive(Default)]
/// struct Hits(u64);
/// impl Mergeable for Hits {
///     fn merge_from(&mut self, other: &Self) {
///         self.0 += other.0;
///     }
/// }
/// let mut agg = Hits::default();
/// for h in [Hits(1), Hits(2)] {
///     agg.merge_from(&h);
/// }
/// assert_eq!(agg.0, 3);
/// ```
pub trait Mergeable: Default {
    /// Adds `other`'s counters into `self`.
    fn merge_from(&mut self, other: &Self);
}

/// Online count/sum/min/max accumulator for a stream of observations.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Running {
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl Running {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Running {
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Records one observation.
    pub fn record(&mut self, x: f64) {
        self.count += 1;
        self.sum += x;
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of observations recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all observations.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Arithmetic mean, or `None` if empty.
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum / self.count as f64)
    }

    /// Smallest observation, or `None` if empty.
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest observation, or `None` if empty.
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }

    /// Merges another accumulator into this one.
    pub fn merge(&mut self, other: &Running) {
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// A collected set of samples with quartile summaries.
///
/// Used for the inter-kernel distributions in the characterization figures,
/// where the population is small (tens of kernels) and storing every sample
/// is appropriate.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Samples {
    values: Vec<f64>,
}

/// Five-number summary of a sample set (box-plot statistics).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FiveNumber {
    /// Minimum (lower whisker).
    pub min: f64,
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
    /// Maximum (upper whisker).
    pub max: f64,
}

impl Samples {
    /// Creates an empty sample set.
    pub fn new() -> Self {
        Samples { values: Vec::new() }
    }

    /// Records one sample.
    pub fn record(&mut self, x: f64) {
        self.values.push(x);
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// `true` if no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Borrow the raw samples in insertion order.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Arithmetic mean, or `None` if empty.
    pub fn mean(&self) -> Option<f64> {
        if self.values.is_empty() {
            None
        } else {
            Some(self.values.iter().sum::<f64>() / self.values.len() as f64)
        }
    }

    /// The p-th quantile (0.0..=1.0) by linear interpolation, or `None` if
    /// empty.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `0.0..=1.0` or any sample is NaN.
    pub fn quantile(&self, p: f64) -> Option<f64> {
        assert!((0.0..=1.0).contains(&p), "quantile p out of range: {p}");
        if self.values.is_empty() {
            return None;
        }
        let mut sorted = self.values.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN sample"));
        let rank = p * (sorted.len() - 1) as f64;
        let lo = rank.floor() as usize;
        let hi = rank.ceil() as usize;
        let frac = rank - lo as f64;
        Some(sorted[lo] + (sorted[hi] - sorted[lo]) * frac)
    }

    /// Box-plot five-number summary, or `None` if empty.
    pub fn five_number(&self) -> Option<FiveNumber> {
        Some(FiveNumber {
            min: self.quantile(0.0)?,
            q1: self.quantile(0.25)?,
            median: self.quantile(0.5)?,
            q3: self.quantile(0.75)?,
            max: self.quantile(1.0)?,
        })
    }
}

impl FromIterator<f64> for Samples {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        Samples {
            values: iter.into_iter().collect(),
        }
    }
}

impl Extend<f64> for Samples {
    fn extend<I: IntoIterator<Item = f64>>(&mut self, iter: I) {
        self.values.extend(iter);
    }
}

/// Arithmetic mean of a slice, or `None` if empty.
pub fn mean(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() {
        None
    } else {
        Some(xs.iter().sum::<f64>() / xs.len() as f64)
    }
}

/// Geometric mean of a slice of positive values, or `None` if empty.
///
/// # Panics
///
/// Panics if any value is not strictly positive (a geometric mean over
/// nonpositive values is undefined).
pub fn geomean(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let log_sum: f64 = xs
        .iter()
        .map(|&x| {
            assert!(x > 0.0, "geomean requires positive values, got {x}");
            x.ln()
        })
        .sum();
    Some((log_sum / xs.len() as f64).exp())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn running_tracks_count_mean_min_max() {
        let mut r = Running::new();
        assert_eq!(r.mean(), None);
        for x in [2.0, 4.0, 6.0] {
            r.record(x);
        }
        assert_eq!(r.count(), 3);
        assert_eq!(r.mean(), Some(4.0));
        assert_eq!(r.min(), Some(2.0));
        assert_eq!(r.max(), Some(6.0));
    }

    #[test]
    fn running_merge_equals_combined_stream() {
        let mut a = Running::new();
        let mut b = Running::new();
        let mut c = Running::new();
        for x in [1.0, 5.0] {
            a.record(x);
            c.record(x);
        }
        for x in [3.0, -2.0] {
            b.record(x);
            c.record(x);
        }
        a.merge(&b);
        assert_eq!(a, c);
    }

    #[test]
    fn samples_quartiles_on_known_set() {
        let s: Samples = (1..=5).map(|x| x as f64).collect();
        let f = s.five_number().unwrap();
        assert_eq!(f.min, 1.0);
        assert_eq!(f.q1, 2.0);
        assert_eq!(f.median, 3.0);
        assert_eq!(f.q3, 4.0);
        assert_eq!(f.max, 5.0);
    }

    #[test]
    fn samples_quantile_interpolates() {
        let s: Samples = [0.0, 10.0].iter().copied().collect();
        assert_eq!(s.quantile(0.5), Some(5.0));
        assert_eq!(s.quantile(0.25), Some(2.5));
    }

    #[test]
    fn samples_empty_yields_none() {
        let s = Samples::new();
        assert!(s.is_empty());
        assert_eq!(s.mean(), None);
        assert_eq!(s.five_number(), None);
    }

    #[test]
    #[should_panic(expected = "quantile p out of range")]
    fn samples_quantile_rejects_bad_p() {
        let s: Samples = [1.0].iter().copied().collect();
        let _ = s.quantile(1.5);
    }

    #[test]
    fn geomean_of_powers() {
        let g = geomean(&[1.0, 4.0, 16.0]).unwrap();
        assert!((g - 4.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), None);
    }

    #[test]
    #[should_panic(expected = "geomean requires positive")]
    fn geomean_rejects_nonpositive() {
        let _ = geomean(&[1.0, 0.0]);
    }

    #[test]
    fn mean_of_slice() {
        assert_eq!(mean(&[1.0, 2.0, 3.0]), Some(2.0));
        assert_eq!(mean(&[]), None);
    }
}
