//! Order statistics with the benchmark's percentile rule.

/// Samples that must lie beyond a percentile before the benchmark reports
/// it: a tail figure resting on fewer is noise, not a measurement.
pub const MIN_BEYOND: usize = 10;

/// Median of `xs`: the middle value, or the mean of the two middle values
/// for an even count. `None` for an empty slice.
pub fn median(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    Some(if n % 2 == 1 { v[n / 2] } else { (v[n / 2 - 1] + v[n / 2]) / 2.0 })
}

/// The `p`-th percentile of `xs` by nearest rank, or `None` unless at
/// least [`MIN_BEYOND`] samples lie beyond it. A p99 therefore needs 1000
/// samples and a p50 needs 20.
pub fn percentile(xs: &[f64], p: f64) -> Option<f64> {
    let n = xs.len();
    if n == 0 || !(0.0..=100.0).contains(&p) {
        return None;
    }
    let rank = ((p / 100.0) * n as f64).ceil().max(1.0) as usize;
    if n - rank < MIN_BEYOND {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    Some(v[rank - 1])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        let xs: Vec<f64> = (1..=999).map(f64::from).collect();
        assert_eq!(percentile(&xs, 99.0), None, "999 samples leave only 9 beyond p99");
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&xs, 99.0), Some(990.0));
        assert_eq!(xs.iter().filter(|&&x| x > 990.0).count(), MIN_BEYOND);
    }

    #[test]
    fn p50_needs_twenty_samples() {
        let xs: Vec<f64> = (1..=19).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), None);
        let xs: Vec<f64> = (1..=20).rev().map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), Some(10.0));
    }

    #[test]
    fn out_of_range_percentiles_are_refused() {
        let xs: Vec<f64> = (0..5000).map(f64::from).collect();
        assert_eq!(percentile(&xs, -1.0), None);
        assert_eq!(percentile(&xs, 101.0), None);
        assert_eq!(percentile(&[], 50.0), None);
    }
}
