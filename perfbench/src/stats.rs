//! Order statistics for the report: medians and the percentile rule.
//!
//! A tail percentile is only reported when at least [`MIN_BEYOND`]
//! samples lie beyond it; otherwise it is an extrapolation from a handful
//! of outliers and the caller must size the run up instead.

/// Samples that must lie strictly beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Sorts `samples` ascending (NaN-robust).
pub fn sort(samples: &mut [f64]) {
    samples.sort_by(f64::total_cmp);
}

/// Nearest-rank percentile `p` (in `0..=1`) of already sorted samples,
/// with the count of samples strictly beyond it. `None` when empty.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> Option<(f64, usize)> {
    if sorted.is_empty() {
        return None;
    }
    let n = sorted.len();
    let rank = ((p * n as f64).ceil() as usize).clamp(1, n);
    Some((sorted[rank - 1], n - rank))
}

/// Percentile `p` of `samples` under the percentile rule: `Err` carries
/// how many samples lay beyond it when that is fewer than
/// [`MIN_BEYOND`].
pub fn percentile(samples: &[f64], p: f64) -> Result<f64, usize> {
    let mut sorted = samples.to_vec();
    sort(&mut sorted);
    match percentile_sorted(&sorted, p) {
        Some((v, beyond)) if beyond >= MIN_BEYOND || p <= 0.5 => Ok(v),
        Some((_, beyond)) => Err(beyond),
        None => Err(0),
    }
}

/// The median (mean of the two middle samples for an even count); NaN
/// for no samples.
pub fn median(samples: &[f64]) -> f64 {
    let mut s = samples.to_vec();
    sort(&mut s);
    let n = s.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => s[n / 2],
        _ => 0.5 * (s[n / 2 - 1] + s[n / 2]),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p99_needs_ten_samples_beyond() {
        let few: Vec<f64> = (0..999).map(f64::from).collect();
        assert_eq!(percentile(&few, 0.99), Err(9));
        let enough: Vec<f64> = (0..1000).map(f64::from).collect();
        // Nearest rank 990 (1-based) is the value 989; 10 samples lie above.
        assert_eq!(percentile(&enough, 0.99), Ok(989.0));
        // The median needs no tail.
        assert_eq!(percentile(&few[..3], 0.5), Ok(1.0));
    }

    #[test]
    fn median_is_order_free() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
        assert_eq!(percentile(&[5.0, 1.0, 9.0], 0.5), Ok(5.0));
    }

    #[test]
    fn percentile_counts_beyond() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile_sorted(&s, 0.9), Some((90.0, 10)));
        assert_eq!(percentile_sorted(&s, 1.0), Some((100.0, 0)));
        assert_eq!(percentile_sorted(&[], 0.5), None);
    }
}
