//! Descriptive statistics for the box plots of the evaluation section.

use serde::Serialize;

/// Box-plot summary of a sample: median, quartiles, whiskers (1.5 IQR rule)
/// and outliers, exactly what Figs. 9 and 11 of the paper display.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct BoxplotStats {
    /// Number of observations.
    pub count: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Minimum observation.
    pub min: f64,
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
    /// Maximum observation.
    pub max: f64,
    /// Lower whisker (smallest observation within 1.5 IQR below Q1).
    pub whisker_low: f64,
    /// Upper whisker (largest observation within 1.5 IQR above Q3).
    pub whisker_high: f64,
    /// Observations outside the whiskers.
    pub outliers: Vec<f64>,
}

impl BoxplotStats {
    /// Computes the statistics of a sample. Returns `None` for an empty
    /// sample and for a sample containing NaN: quartiles of an unordered
    /// value are meaningless, and rejecting NaN here keeps degenerate ratios
    /// from crashing sweep reports downstream.
    pub fn of(sample: &[f64]) -> Option<Self> {
        if sample.is_empty() || sample.iter().any(|x| x.is_nan()) {
            return None;
        }
        let mut sorted: Vec<f64> = sample.to_vec();
        sorted.sort_by(f64::total_cmp);
        let count = sorted.len();
        let mean = sorted.iter().sum::<f64>() / count as f64;
        let q1 = quantile(&sorted, 0.25);
        let median = quantile(&sorted, 0.5);
        let q3 = quantile(&sorted, 0.75);
        let iqr = q3 - q1;
        let low_fence = q1 - 1.5 * iqr;
        let high_fence = q3 + 1.5 * iqr;
        let whisker_low = sorted
            .iter()
            .copied()
            .find(|&x| x >= low_fence)
            .unwrap_or(sorted[0]);
        let whisker_high = sorted
            .iter()
            .rev()
            .copied()
            .find(|&x| x <= high_fence)
            .unwrap_or(sorted[count - 1]);
        let outliers = sorted
            .iter()
            .copied()
            .filter(|&x| x < whisker_low || x > whisker_high)
            .collect();
        Some(BoxplotStats {
            count,
            mean,
            min: sorted[0],
            q1,
            median,
            q3,
            max: sorted[count - 1],
            whisker_low,
            whisker_high,
            outliers,
        })
    }
}

/// Linear-interpolation quantile of an already-sorted sample.
fn quantile(sorted: &[f64], q: f64) -> f64 {
    debug_assert!(!sorted.is_empty());
    if sorted.len() == 1 {
        return sorted[0];
    }
    let pos = q * (sorted.len() - 1) as f64;
    let low = pos.floor() as usize;
    let high = pos.ceil() as usize;
    if low == high {
        sorted[low]
    } else {
        let frac = pos - low as f64;
        sorted[low] * (1.0 - frac) + sorted[high] * frac
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_of_a_simple_sample() {
        let sample = vec![1.0, 2.0, 3.0, 4.0, 5.0];
        let s = BoxplotStats::of(&sample).unwrap();
        assert_eq!(s.count, 5);
        assert_eq!(s.median, 3.0);
        assert_eq!(s.q1, 2.0);
        assert_eq!(s.q3, 4.0);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 5.0);
        assert_eq!(s.mean, 3.0);
        assert!(s.outliers.is_empty());
    }

    #[test]
    fn outliers_are_detected() {
        let mut sample = vec![1.0; 20];
        sample.push(100.0);
        let s = BoxplotStats::of(&sample).unwrap();
        assert_eq!(s.outliers, vec![100.0]);
        assert_eq!(s.whisker_high, 1.0);
        assert_eq!(s.max, 100.0);
    }

    #[test]
    fn single_observation_and_empty_samples() {
        let s = BoxplotStats::of(&[7.5]).unwrap();
        assert_eq!(s.median, 7.5);
        assert_eq!(s.q1, 7.5);
        assert_eq!(s.whisker_high, 7.5);
        assert!(BoxplotStats::of(&[]).is_none());
    }

    #[test]
    fn nan_samples_are_rejected_not_panicked_on() {
        assert!(BoxplotStats::of(&[f64::NAN]).is_none());
        assert!(BoxplotStats::of(&[1.0, f64::NAN, 2.0]).is_none());
        assert!(BoxplotStats::of(&[f64::NAN; 4]).is_none());
        // Infinities are ordered, so they remain acceptable observations.
        let s = BoxplotStats::of(&[1.0, f64::INFINITY]).unwrap();
        assert_eq!(s.max, f64::INFINITY);
    }

    #[test]
    fn order_does_not_matter() {
        let a = BoxplotStats::of(&[3.0, 1.0, 2.0]).unwrap();
        let b = BoxplotStats::of(&[1.0, 2.0, 3.0]).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn quantile_interpolates() {
        let sorted = vec![0.0, 10.0];
        assert_eq!(quantile(&sorted, 0.25), 2.5);
        assert_eq!(quantile(&sorted, 0.5), 5.0);
        assert_eq!(quantile(&sorted, 1.0), 10.0);
    }
}
