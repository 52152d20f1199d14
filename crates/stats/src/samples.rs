//! Exact sample storage with percentile queries.

use std::fmt;

/// An exact collection of `f64` samples supporting mean/percentile queries.
///
/// `Samples` stores every recorded value. This is the right tool for
/// experiment-scale measurements (tens of thousands of request latencies);
/// for unbounded streams use [`crate::Histogram`] instead.
///
/// The set holds one copy of its values, in insertion order. A
/// percentile query copies them and selects its rank in O(n) rather than
/// sorting; [`crate::Summary::of`] copies once and selects both of its
/// ranks.
///
/// # Examples
///
/// ```
/// use um_stats::Samples;
///
/// let s: Samples = (1..=100).map(|v| v as f64).collect();
/// assert_eq!(s.len(), 100);
/// assert_eq!(s.percentile(0.99), 99.0); // nearest rank
/// assert_eq!(s.percentile(1.0), 100.0);
/// assert_eq!(s.min(), 1.0);
/// assert_eq!(s.max(), 100.0);
/// ```
#[derive(Clone, Debug, Default)]
pub struct Samples {
    values: Vec<f64>,
}

impl Samples {
    /// Creates an empty sample set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty sample set with room for `cap` samples.
    pub fn with_capacity(cap: usize) -> Self {
        Self {
            values: Vec::with_capacity(cap),
        }
    }

    /// Records one sample.
    ///
    /// # Panics
    ///
    /// Panics if `value` is NaN; a NaN latency always indicates a simulator
    /// bug and must not be silently absorbed into percentiles.
    pub fn record(&mut self, value: f64) {
        assert!(!value.is_nan(), "NaN sample recorded");
        self.values.push(value);
    }

    /// Number of recorded samples.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Arithmetic mean, or 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.values.is_empty() {
            return 0.0;
        }
        self.values.iter().sum::<f64>() / self.values.len() as f64
    }

    /// Smallest sample, or 0.0 when empty.
    pub fn min(&self) -> f64 {
        if self.values.is_empty() {
            return 0.0;
        }
        self.values.iter().copied().fold(f64::INFINITY, f64::min)
    }

    /// Largest sample, or 0.0 when empty.
    pub fn max(&self) -> f64 {
        if self.values.is_empty() {
            return 0.0;
        }
        self.values
            .iter()
            .copied()
            .fold(f64::NEG_INFINITY, f64::max)
    }

    /// Returns the `q`-quantile (0.0 ≤ `q` ≤ 1.0) using the nearest-rank
    /// method the paper's P99 numbers use; returns 0.0 when empty.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `\[0, 1\]`.
    pub fn percentile(&self, q: f64) -> f64 {
        assert!((0.0..=1.0).contains(&q), "quantile {q} outside [0, 1]");
        if self.values.is_empty() {
            return 0.0;
        }
        let k = rank_index(q, self.values.len());
        let mut v = self.values.clone();
        *v.select_nth_unstable_by(k, f64::total_cmp).1
    }

    /// The median and P99 together, as [`crate::Summary::of`] reports them:
    /// one copy of the values, with both ranks selected in it.
    pub(crate) fn median_and_p99(&self) -> (f64, f64) {
        let n = self.values.len();
        if n == 0 {
            return (0.0, 0.0);
        }
        let (i50, i99) = (rank_index(0.5, n), rank_index(0.99, n));
        // Everything left of `i99` is the `i99` smallest values, so the
        // median is selected within that partition.
        let mut v = self.values.clone();
        let (lower, &mut p99, _) = v.select_nth_unstable_by(i99, f64::total_cmp);
        let p50 = if i50 == i99 {
            p99
        } else {
            *lower.select_nth_unstable_by(i50, f64::total_cmp).1
        };
        (p50, p99)
    }

    /// P99 tail, the paper's headline metric.
    pub fn p99(&self) -> f64 {
        self.percentile(0.99)
    }

    /// Median (P50).
    pub fn median(&self) -> f64 {
        self.percentile(0.5)
    }

    /// Tail-to-average ratio (Figure 17); 0.0 when empty or zero mean.
    pub fn tail_to_avg(&self) -> f64 {
        let mean = self.mean();
        if mean == 0.0 {
            0.0
        } else {
            self.p99() / mean
        }
    }

    /// Immutable view of the raw samples in insertion order.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Merges another sample set into this one.
    pub fn merge(&mut self, other: &Samples) {
        self.values.extend_from_slice(&other.values);
    }

    /// Produces a [`crate::Summary`] digest of this sample set.
    pub fn summary(&self) -> crate::Summary {
        crate::Summary::of(self)
    }
}

/// Index of the `q`-quantile in `len > 0` ascending values under the
/// nearest-rank rule: rank `ceil(q * len)`, clamped to `1..=len`, with
/// `q == 0` taking the smallest value. Shared by [`Samples::percentile`]
/// and [`crate::Summary::of`], so the two cannot disagree.
///
/// Selecting the element at this index with `total_cmp` is exact, not an
/// approximation: two values `total_cmp` calls equal have identical bits,
/// so the selected element is the very value a stable `total_cmp` sort
/// puts at the index.
fn rank_index(q: f64, len: usize) -> usize {
    if q <= 0.0 {
        return 0;
    }
    let rank = (q * len as f64).ceil() as usize;
    rank.clamp(1, len) - 1
}

impl FromIterator<f64> for Samples {
    fn from_iter<T: IntoIterator<Item = f64>>(iter: T) -> Self {
        let mut s = Samples::new();
        for v in iter {
            s.record(v);
        }
        s
    }
}

impl Extend<f64> for Samples {
    fn extend<T: IntoIterator<Item = f64>>(&mut self, iter: T) {
        for v in iter {
            self.record(v);
        }
    }
}

impl fmt::Display for Samples {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "n={} mean={:.3} p50={:.3} p99={:.3} max={:.3}",
            self.len(),
            self.mean(),
            self.median(),
            self.p99(),
            self.max()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_is_zeroes() {
        let s = Samples::new();
        assert!(s.is_empty());
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.percentile(0.99), 0.0);
        assert_eq!(s.min(), 0.0);
        assert_eq!(s.max(), 0.0);
        assert_eq!(s.tail_to_avg(), 0.0);
    }

    #[test]
    fn single_sample_every_percentile() {
        let s: Samples = [42.0].into_iter().collect();
        assert_eq!(s.percentile(0.0), 42.0);
        assert_eq!(s.percentile(0.5), 42.0);
        assert_eq!(s.percentile(1.0), 42.0);
        assert_eq!(s.mean(), 42.0);
    }

    #[test]
    fn nearest_rank_matches_hand_computation() {
        let s: Samples = (1..=10).map(f64::from).collect();
        assert_eq!(s.percentile(0.10), 1.0);
        assert_eq!(s.percentile(0.11), 2.0);
        assert_eq!(s.percentile(0.50), 5.0);
        assert_eq!(s.percentile(0.99), 10.0);
        assert_eq!(s.percentile(1.0), 10.0);
    }

    #[test]
    fn unsorted_input_is_sorted_for_percentiles() {
        let s: Samples = [5.0, 1.0, 4.0, 2.0, 3.0].into_iter().collect();
        assert_eq!(s.median(), 3.0);
        assert_eq!(s.min(), 1.0);
        assert_eq!(s.max(), 5.0);
    }

    #[test]
    fn merge_combines_distributions() {
        let mut a: Samples = [1.0, 2.0].into_iter().collect();
        let b: Samples = [3.0, 4.0].into_iter().collect();
        a.merge(&b);
        assert_eq!(a.len(), 4);
        assert_eq!(a.mean(), 2.5);
    }

    #[test]
    fn tail_to_avg_is_p99_over_mean() {
        let s: Samples = (1..=100).map(f64::from).collect();
        let expected = s.p99() / s.mean();
        assert!((s.tail_to_avg() - expected).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn nan_rejected() {
        let mut s = Samples::new();
        s.record(f64::NAN);
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn quantile_out_of_range_rejected() {
        let s: Samples = [1.0].into_iter().collect();
        s.percentile(1.5);
    }

    #[test]
    fn display_is_nonempty() {
        let s: Samples = [1.0].into_iter().collect();
        assert!(!format!("{s}").is_empty());
    }
}
