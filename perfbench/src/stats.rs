//! Order statistics used by every metric: nearest-rank percentiles, the
//! interquartile range and the rule that decides whether a tail percentile
//! has enough samples behind it to be reported.

/// Samples a reported tail percentile needs strictly beyond it.
pub const MIN_BEYOND_TAIL: usize = 10;

/// 1-based nearest rank of the `p`-th percentile among `n` samples: the
/// smallest rank whose share of samples at or below it reaches `p` percent.
fn nearest_rank(n: usize, p: u32) -> usize {
    let rank = (p as usize * n).div_ceil(100);
    rank.clamp(1, n)
}

/// Nearest-rank `p`-th percentile of `samples` (any order); 0 when empty.
pub fn percentile(samples: &[f64], p: u32) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[nearest_rank(sorted.len(), p) - 1]
}

/// Nearest-rank median.
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50)
}

/// Distance between the nearest-rank first and third quartiles.
pub fn iqr(samples: &[f64]) -> f64 {
    percentile(samples, 75) - percentile(samples, 25)
}

/// Samples strictly beyond the nearest-rank `p`-th percentile of `n`.
pub fn beyond(n: usize, p: u32) -> usize {
    if n == 0 {
        0
    } else {
        n - nearest_rank(n, p)
    }
}

/// Smallest sample count at which the `p`-th percentile has
/// [`MIN_BEYOND_TAIL`] samples beyond it.
pub fn min_samples_for_tail(p: u32) -> usize {
    (1..)
        .find(|&n| beyond(n, p) >= MIN_BEYOND_TAIL)
        .expect("p < 100")
}

/// Arithmetic mean; 0 when empty.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles_pick_an_observed_sample() {
        let samples: Vec<f64> = (1..=10).rev().map(f64::from).collect();
        assert_eq!(percentile(&samples, 50), 5.0);
        assert_eq!(percentile(&samples, 90), 9.0);
        assert_eq!(percentile(&samples, 91), 10.0);
        assert_eq!(percentile(&samples, 100), 10.0);
        assert_eq!(percentile(&samples, 0), 1.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(percentile(&[], 50), 0.0);
        assert_eq!(iqr(&[1.0, 2.0, 3.0, 4.0]), 2.0);
    }

    #[test]
    fn p90_needs_one_hundred_samples_for_ten_beyond() {
        assert_eq!(beyond(100, 90), 10);
        assert_eq!(beyond(99, 90), 9);
        assert_eq!(beyond(0, 90), 0);
        assert_eq!(min_samples_for_tail(90), 100);
        assert_eq!(min_samples_for_tail(99), 1000);
        assert_eq!(min_samples_for_tail(50), 20);
    }
}
