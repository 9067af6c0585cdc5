//! Order statistics shared by the run report and `compare`.

/// Candidate tail percentiles, highest first.
const TAIL_PERCENTILES: [u32; 4] = [99, 95, 90, 75];
/// Samples a reported tail percentile must have beyond it.
const TAIL_MIN_BEYOND: usize = 10;

/// The highest of p99, p95, p90 and p75 that leaves at least ten of `n`
/// samples beyond it, or `None` when even p75 does not.
#[must_use]
pub fn tail_percentile(n: usize) -> Option<u32> {
    TAIL_PERCENTILES
        .into_iter()
        .find(|&p| n * (100 - p as usize) / 100 >= TAIL_MIN_BEYOND)
}

/// Samples needed before percentile `p` may be reported as a tail.
#[cfg(test)]
pub fn samples_for(p: u32) -> usize {
    (TAIL_MIN_BEYOND * 100).div_ceil(100 - p as usize)
}

/// Percentile `p` (0–100) of `values` by linear interpolation between
/// closest ranks; `NaN` for an empty slice.
#[must_use]
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        1 => v[0],
        len => {
            let rank = p / 100.0 * (len - 1) as f64;
            let lo = rank.floor() as usize;
            let hi = (lo + 1).min(len - 1);
            v[lo] + (v[hi] - v[lo]) * (rank - lo as f64)
        }
    }
}

/// Median of `values` (`NaN` when empty).
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// Mean of the middle half of `values`: the lowest and highest quarter
/// (rounded down) are dropped. `NaN` when empty.
#[must_use]
pub fn interquartile_mean(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let cut = v.len() / 4;
    let middle = &v[cut..v.len() - cut];
    middle.iter().sum::<f64>() / middle.len() as f64
}

/// First quartile, median and third quartile exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default exclusive method)
/// computes them, so spreads agree with what a script over the report
/// files would compute. Needs at least two values.
#[must_use]
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let ld = v.len();
    if ld < 2 {
        return None;
    }
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_is_the_highest_percentile_with_ten_beyond() {
        assert_eq!(tail_percentile(0), None);
        assert_eq!(tail_percentile(39), None);
        assert_eq!(tail_percentile(40), Some(75));
        assert_eq!(tail_percentile(99), Some(75));
        // 100 × (1 − 0.90) is exactly 10: integer arithmetic, no float
        // rounding down to 9.
        assert_eq!(tail_percentile(100), Some(90));
        assert_eq!(tail_percentile(199), Some(90));
        assert_eq!(tail_percentile(200), Some(95));
        assert_eq!(tail_percentile(999), Some(95));
        assert_eq!(tail_percentile(1000), Some(99));
        for p in TAIL_PERCENTILES {
            assert_eq!(tail_percentile(samples_for(p)), Some(p));
            assert_ne!(tail_percentile(samples_for(p) - 1), Some(p));
        }
    }

    #[test]
    fn percentile_interpolates_between_ranks() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 100.0), 4.0);
        assert_eq!(median(&v), 2.5);
        assert_eq!(percentile(&[7.0], 90.0), 7.0);
        assert!(percentile(&[], 50.0).is_nan());
    }

    #[test]
    fn interquartile_mean_ignores_the_outer_quarters() {
        // One sample in eight caught a host hiccup: it does not count.
        let v = [1.0, 1.2, 0.8, 1.0, 10.0, 1.1, 0.9, 1.0];
        assert!((interquartile_mean(&v) - 1.025).abs() < 1e-12);
        assert_eq!(interquartile_mean(&[3.0]), 3.0);
        assert!(interquartile_mean(&[]).is_nan());
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]: the
        // exclusive method extrapolates past the ends of tiny samples.
        assert_eq!(quartiles(&[2.0, 1.0]), Some([0.75, 1.5, 2.25]));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some([1.0, 2.0, 3.0]));
        assert_eq!(quartiles(&[1.0]), None);
    }
}
