//! Order statistics over small samples of host timings.

/// Linear-interpolated quantile `q` in `[0, 1]` of an unsorted sample
/// (the "type 7" rule: `q = 0` is the minimum, `q = 1` the maximum).
/// An empty sample reads 0 so an unexercised layer reports a plain zero.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The median.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Nearest-rank percentile: the smallest value with at least a share `q`
/// of the sample at or below it, so the result is always one of the
/// values — used where the values are latencies of distinct op kinds and
/// a blend of two kinds would be no op's latency.
pub fn nearest_rank(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (q.clamp(0.0, 1.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Arithmetic mean (0 for an empty sample).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// `num / den`, or 0 when the denominator is 0 (layer not exercised).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Interquartile range as a share of the median — the spread the
/// benchmark contract is judged on.
pub fn iqr_share(values: &[f64]) -> f64 {
    ratio(
        quantile(values, 0.75) - quantile(values, 0.25),
        median(values).abs(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_and_clamp() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.25), 1.75);
        assert!((quantile(&v, 0.9) - 3.7).abs() < 1e-12);
        assert_eq!(quantile(&v, 7.0), 4.0);
        assert_eq!(quantile(&[5.0], 0.25), 5.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn nearest_rank_returns_a_member_of_the_sample() {
        let nine = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 150.0];
        assert_eq!(nearest_rank(&nine, 0.5), 5.0);
        assert_eq!(nearest_rank(&nine, 0.9), 150.0);
        let five = [80.0, 30.0, 160.0, 40.0, 85.0];
        assert_eq!(nearest_rank(&five, 0.5), 80.0);
        assert_eq!(nearest_rank(&five, 0.9), 160.0);
        assert_eq!(nearest_rank(&five, 0.0), 30.0);
        assert_eq!(nearest_rank(&[], 0.5), 0.0);
    }

    #[test]
    fn mean_ratio_and_spread() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
        assert_eq!(ratio(1.0, 0.0), 0.0);
        assert_eq!(ratio(3.0, 2.0), 1.5);
        assert_eq!(iqr_share(&[1.0, 2.0, 3.0, 4.0, 5.0]), 2.0 / 3.0);
        assert_eq!(iqr_share(&[]), 0.0);
    }
}
