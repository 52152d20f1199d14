//! Latency summaries — the digest every figure harness prints.

use crate::Samples;
use std::fmt;

/// A fixed digest of a latency distribution: count, mean, P50, P99, max, and
/// the tail-to-average ratio the paper reports in Figure 17.
///
/// # Examples
///
/// ```
/// use um_stats::{Samples, Summary};
///
/// let s: Samples = (1..=100).map(|v| v as f64).collect();
/// let d = Summary::of(&s);
/// assert_eq!(d.count, 100);
/// assert_eq!(d.p99, 99.0);
/// ```
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub count: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Median (P50).
    pub p50: f64,
    /// 99th percentile — the paper's "tail latency".
    pub p99: f64,
    /// Maximum observed value.
    pub max: f64,
    /// `p99 / mean` (0.0 for empty or zero-mean distributions).
    pub tail_to_avg: f64,
}

impl Summary {
    /// Digests a sample set, copying its values at most once (see
    /// [`Samples`]); each field is bit-identical to the matching `Samples`
    /// query.
    pub fn of(samples: &Samples) -> Self {
        let mean = samples.mean();
        let (p50, p99) = samples.median_and_p99();
        Self {
            count: samples.len(),
            mean,
            p50,
            p99,
            max: samples.max(),
            tail_to_avg: if mean == 0.0 { 0.0 } else { p99 / mean },
        }
    }

    /// Ratio of this summary's tail to `other`'s tail: "A is N× lower tail
    /// than B" is `b.tail_ratio_vs(a)`.
    ///
    /// Returns 0.0 when `other.p99` is zero.
    pub fn tail_ratio_vs(&self, other: &Summary) -> f64 {
        if other.p99 == 0.0 {
            0.0
        } else {
            self.p99 / other.p99
        }
    }
}

impl Default for Summary {
    fn default() -> Self {
        Self {
            count: 0,
            mean: 0.0,
            p50: 0.0,
            p99: 0.0,
            max: 0.0,
            tail_to_avg: 0.0,
        }
    }
}

impl fmt::Display for Summary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "n={} mean={:.2} p50={:.2} p99={:.2} max={:.2} tail/avg={:.2}",
            self.count, self.mean, self.p50, self.p99, self.max, self.tail_to_avg
        )
    }
}

/// Geometric mean of a slice of positive values; used for the paper's
/// cross-application averages.
///
/// Returns 0.0 for an empty slice.
///
/// # Panics
///
/// Panics if any value is not strictly positive (a zero or negative speedup
/// is always an upstream bug).
///
/// # Examples
///
/// ```
/// let g = um_stats::summary::geomean(&[1.0, 4.0]);
/// assert!((g - 2.0).abs() < 1e-12);
/// ```
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    assert!(
        values.iter().all(|&v| v > 0.0),
        "geomean requires strictly positive values"
    );
    let log_sum: f64 = values.iter().map(|v| v.ln()).sum();
    (log_sum / values.len() as f64).exp()
}

/// Arithmetic mean of a slice; 0.0 for an empty slice.
///
/// # Examples
///
/// ```
/// assert_eq!(um_stats::summary::mean(&[1.0, 3.0]), 2.0);
/// ```
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_of_empty_is_default() {
        let s = Samples::new();
        assert_eq!(Summary::of(&s), Summary::default());
    }

    #[test]
    fn ratios() {
        let fast: Samples = [1.0, 1.0, 2.0].into_iter().collect();
        let slow: Samples = [10.0, 10.0, 20.0].into_iter().collect();
        let f = Summary::of(&fast);
        let sl = Summary::of(&slow);
        assert!((sl.tail_ratio_vs(&f) - 10.0).abs() < 1e-12);
        assert_eq!(f.tail_ratio_vs(&Summary::default()), 0.0);
    }

    #[test]
    fn geomean_handles_identity_and_empty() {
        assert_eq!(geomean(&[]), 0.0);
        assert!((geomean(&[5.0]) - 5.0).abs() < 1e-12);
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn geomean_rejects_zero() {
        geomean(&[1.0, 0.0]);
    }

    #[test]
    fn mean_empty() {
        assert_eq!(mean(&[]), 0.0);
    }

    #[test]
    fn display_nonempty() {
        assert!(!format!("{}", Summary::default()).is_empty());
    }
}
