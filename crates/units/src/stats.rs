//! Descriptive statistics for slack distributions and workload traces.

/// Summary statistics of a sample.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Summary {
    /// Number of samples.
    pub count: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Population standard deviation.
    pub std_dev: f64,
    /// Minimum sample.
    pub min: f64,
    /// Maximum sample.
    pub max: f64,
}

impl Summary {
    /// Computes summary statistics of a sample.
    ///
    /// Returns `None` for an empty sample.
    ///
    /// # Examples
    ///
    /// ```
    /// use np_units::stats::Summary;
    /// let s = Summary::of(&[1.0, 2.0, 3.0]).expect("non-empty");
    /// assert!((s.mean - 2.0).abs() < 1e-12);
    /// ```
    pub fn of(samples: &[f64]) -> Option<Self> {
        if samples.is_empty() {
            return None;
        }
        let count = samples.len();
        let mean = samples.iter().sum::<f64>() / count as f64;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / count as f64;
        let min = samples.iter().copied().fold(f64::INFINITY, f64::min);
        let max = samples.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        Some(Self {
            count,
            mean,
            std_dev: var.sqrt(),
            min,
            max,
        })
    }
}

/// The `q`-quantile (`0 <= q <= 1`) of a sample using linear interpolation
/// between order statistics.
///
/// Returns `None` for an empty sample or `q` outside `[0, 1]`.
///
/// # Examples
///
/// ```
/// let median = np_units::stats::quantile(&[3.0, 1.0, 2.0], 0.5).expect("non-empty");
/// assert_eq!(median, 2.0);
/// ```
pub fn quantile(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() || !(0.0..=1.0).contains(&q) {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi {
        return Some(sorted[lo]);
    }
    let frac = pos - lo as f64;
    Some(sorted[lo] * (1.0 - frac) + sorted[hi] * frac)
}

/// Builds a histogram of `samples` over `bins` equal-width bins spanning
/// `[lo, hi]`; out-of-range samples are clamped into the end bins.
///
/// # Panics
///
/// Panics if `bins == 0` or `lo >= hi`.
pub fn histogram(samples: &[f64], lo: f64, hi: f64, bins: usize) -> Vec<usize> {
    assert!(bins > 0, "histogram needs at least one bin");
    assert!(lo < hi, "histogram needs lo < hi");
    let mut counts = vec![0usize; bins];
    let width = (hi - lo) / bins as f64;
    for &s in samples {
        let idx = (((s - lo) / width).floor() as isize).clamp(0, bins as isize - 1) as usize;
        counts[idx] += 1;
    }
    counts
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_basic() {
        let s = Summary::of(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]).unwrap();
        assert!((s.mean - 5.0).abs() < 1e-12);
        assert!((s.std_dev - 2.0).abs() < 1e-12);
        assert_eq!(s.min, 2.0);
        assert_eq!(s.max, 9.0);
        assert_eq!(s.count, 8);
    }

    #[test]
    fn summary_empty_is_none() {
        assert_eq!(Summary::of(&[]), None);
    }

    #[test]
    fn quantile_median_and_ends() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile(&xs, 0.0), Some(1.0));
        assert_eq!(quantile(&xs, 1.0), Some(4.0));
        assert!((quantile(&xs, 0.5).unwrap() - 2.5).abs() < 1e-12);
    }

    #[test]
    fn quantile_rejects_bad_q() {
        assert_eq!(quantile(&[1.0], -0.1), None);
        assert_eq!(quantile(&[1.0], 1.1), None);
        assert_eq!(quantile(&[], 0.5), None);
    }

    #[test]
    fn histogram_counts_and_clamps() {
        let h = histogram(&[-1.0, 0.1, 0.5, 0.9, 2.0], 0.0, 1.0, 2);
        // -1.0 clamps into bin 0; 0.5 lands on the boundary and goes up;
        // 2.0 clamps into bin 1.
        assert_eq!(h, vec![2, 3]);
    }

    #[test]
    #[should_panic(expected = "at least one bin")]
    fn histogram_rejects_zero_bins() {
        let _ = histogram(&[1.0], 0.0, 1.0, 0);
    }
}
