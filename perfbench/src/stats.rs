//! Summary statistics over repeated timings.

/// Median of `samples` (mean of the two middle values for an even count).
///
/// # Panics
/// Panics on an empty slice.
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let sorted = sorted(samples);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// The tail of a timing distribution: the highest percentile that still has
/// at least [`TAIL_BEYOND`] samples beyond it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The sample at that percentile.
    pub value: f64,
    /// Share of samples at or below `value`, in percent.
    pub percentile: f64,
    /// Samples strictly beyond `value` in sorted order.
    pub beyond: usize,
    /// Total samples.
    pub samples: usize,
}

/// How many samples must lie beyond a reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// Up to this many samples, [`tail`] reports the slowest: below it, the
/// percentile with [`TAIL_BEYOND`] samples beyond it is the median or lower,
/// and switching from the maximum to the low end as a run gains one sample
/// would make the tail jump with host speed.
pub const MIN_TAIL_SAMPLES: usize = 2 * TAIL_BEYOND + 1;

/// The highest percentile of `samples` with at least [`TAIL_BEYOND`]
/// samples beyond it. With [`MIN_TAIL_SAMPLES`] or fewer samples that
/// percentile would not lie above the median, so the slowest sample is
/// reported instead (`percentile` 100, `beyond` 0), and the sample count
/// tells the reader which case applies.
///
/// # Panics
/// Panics on an empty slice.
pub fn tail(samples: &[f64]) -> Tail {
    assert!(!samples.is_empty(), "tail of no samples");
    let sorted = sorted(samples);
    let n = sorted.len();
    let index = if n <= MIN_TAIL_SAMPLES {
        n - 1
    } else {
        n - 1 - TAIL_BEYOND
    };
    Tail {
        value: sorted[index],
        percentile: 100.0 * (index + 1) as f64 / n as f64,
        beyond: n - 1 - index,
        samples: n,
    }
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted
}

/// Groups consecutive `samples` into blocks whose sum reaches `min_sum` and
/// returns each block's mean. A trailing block that falls short is dropped,
/// unless it is the only one.
pub fn block_means(samples: &[f64], min_sum: f64) -> Vec<f64> {
    let mut means = Vec::new();
    let (mut sum, mut count) = (0.0, 0);
    for &sample in samples {
        sum += sample;
        count += 1;
        if sum >= min_sum {
            means.push(sum / count as f64);
            (sum, count) = (0.0, 0);
        }
    }
    if means.is_empty() && count > 0 {
        means.push(sum / count as f64);
    }
    means
}

/// Geometric mean of positive values (`0.0` for an empty slice).
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn tail_leaves_exactly_ten_samples_beyond() {
        let samples: Vec<f64> = (1..=100).map(f64::from).rev().collect();
        let t = tail(&samples);
        assert_eq!(t.value, 90.0);
        assert_eq!(t.beyond, 10);
        assert_eq!(t.samples, 100);
        assert_eq!(t.percentile, 90.0);
    }

    #[test]
    fn tail_with_one_sample_past_the_minimum_is_above_the_median() {
        let samples: Vec<f64> = (1..=22).map(f64::from).collect();
        let t = tail(&samples);
        assert_eq!(t.value, 12.0);
        assert!(t.value > median(&samples));
        assert_eq!(t.beyond, 10);
    }

    #[test]
    fn tail_of_few_samples_is_the_maximum() {
        for n in 1..=MIN_TAIL_SAMPLES {
            let samples: Vec<f64> = (1..=n).map(|i| i as f64).collect();
            let t = tail(&samples);
            assert_eq!(t.value, n as f64);
            assert_eq!(t.beyond, 0);
            assert_eq!(t.percentile, 100.0);
        }
    }

    #[test]
    fn tail_never_has_fewer_than_ten_beyond_when_possible() {
        for n in MIN_TAIL_SAMPLES + 1..200 {
            let samples: Vec<f64> = (0..n).map(|i| ((i * (n - 1)) % n) as f64).collect();
            let t = tail(&samples);
            let beyond = samples.iter().filter(|&&s| s > t.value).count();
            assert_eq!(beyond, TAIL_BEYOND, "n = {n}");
        }
    }

    #[test]
    fn block_means_average_short_samples_and_keep_long_ones() {
        assert_eq!(block_means(&[1.0, 3.0, 2.0], 0.5), [1.0, 3.0, 2.0]);
        assert_eq!(
            block_means(&[0.125, 0.375, 0.25, 0.5, 0.125], 0.5),
            [0.25, 0.375]
        );
        assert_eq!(block_means(&[0.1, 0.1], 1.0), [0.1]);
        assert!(block_means(&[], 1.0).is_empty());
    }

    #[test]
    fn geomean_of_equal_values() {
        assert!((geomean(&[2.0, 2.0, 2.0]) - 2.0).abs() < 1e-12);
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
    }
}
