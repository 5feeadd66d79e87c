//! The one implementation of the order statistics every workload reports:
//! median, quartiles and the "highest percentile with at least ten samples
//! beyond it" rule.

/// Percentiles a timing may be reported at, lowest first. The highest one
/// that still leaves [`MIN_BEYOND`] samples above it is the one reported.
const LADDER: [f64; 6] = [50.0, 75.0, 90.0, 95.0, 99.0, 99.9];

/// Samples that must lie beyond a reported percentile.
const MIN_BEYOND: f64 = 10.0;

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Linear-interpolated percentile `p` (0–100) of `samples`; 0 when empty.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    let v = sorted(samples);
    if v.is_empty() {
        return 0.0;
    }
    let rank = p / 100.0 * (v.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (rank - lo as f64)
}

/// Median of `samples`; 0 when empty.
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// `(q1, q2, q3)` exactly as Python's `statistics.quantiles(values, n=4)`
/// gives them (the exclusive method), so a spread computed here equals the
/// one the driver computes. Needs at least two samples; fewer give the
/// single value (or 0) three times.
pub fn quartiles(samples: &[f64]) -> (f64, f64, f64) {
    let v = sorted(samples);
    let n = v.len();
    if n < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return (x, x, x);
    }
    let cut = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(2), cut(3))
}

/// Distance between the first and third quartile as a share of the median
/// (0 when the median is 0 or there are fewer than two samples).
pub fn spread(samples: &[f64]) -> f64 {
    let (q1, q2, q3) = quartiles(samples);
    if q2 == 0.0 {
        0.0
    } else {
        ((q3 - q1) / q2).abs()
    }
}

/// The highest ladder percentile that has at least ten samples beyond it,
/// as `(percentile, value)`. With fewer than twenty samples not even the
/// median qualifies, and the median is what is reported.
pub fn hi_percentile(samples: &[f64]) -> (f64, f64) {
    let n = samples.len() as f64;
    let p = LADDER
        .iter()
        .copied()
        // The epsilon keeps 100 − 99.9 (not exact in binary) from costing a
        // sample.
        .filter(|p| n * (100.0 - p) / 100.0 >= MIN_BEYOND - 1e-6)
        .fold(50.0, f64::max);
    (p, percentile(samples, p))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]), (1.5, 4.0, 12.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 1.5, 2.25));
        assert_eq!(spread(&v), 1.0);
    }

    #[test]
    fn hi_percentile_keeps_ten_samples_beyond() {
        let n = |k: usize| (0..k).map(|i| i as f64).collect::<Vec<_>>();
        assert_eq!(hi_percentile(&n(15)).0, 50.0); // too few: the median
        assert_eq!(hi_percentile(&n(20)).0, 50.0);
        assert_eq!(hi_percentile(&n(40)).0, 75.0);
        assert_eq!(hi_percentile(&n(100)).0, 90.0);
        assert_eq!(hi_percentile(&n(999)).0, 95.0);
        assert_eq!(hi_percentile(&n(1000)).0, 99.0);
        assert_eq!(hi_percentile(&n(10_000)).0, 99.9);
        let (p, v) = hi_percentile(&n(1001));
        assert_eq!((p, v), (99.0, 990.0));
    }
}
