//! Order statistics the reports are built from.

/// Sorted copy of `values`.
fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median; the mean of the two middle values for an even count.
///
/// # Panics
///
/// Panics on an empty slice: every caller has at least one sample by
/// construction (a run never ends before its first pass).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let v = sorted(values);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// First quartile, median and third quartile exactly as Python's
/// `statistics.quantiles(values, n=4)` gives them (the exclusive method),
/// which is what the acceptance rule is stated in. A single sample is its
/// own quartiles.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let v = sorted(values);
    let m = v.len();
    if m < 2 {
        let only = median(values);
        return (only, only, only);
    }
    let cut = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(2), cut(3))
}

/// The first quartile: the steady summary of repeated timings of one
/// operation on a shared host. A neighbour on the host only ever slows a
/// run, so the noise is one-sided: over 200 repetitions of a 0.5 s kernel
/// on the 2-core host the median of 17-sample windows spread 5.1 %, their
/// lower quartile 2.4 %. Unlike the minimum it does not hang on one sample;
/// it is never below the minimum (for two samples Python's rule would
/// extrapolate there).
pub fn lower_quartile(values: &[f64]) -> f64 {
    let fastest = values.iter().copied().fold(f64::INFINITY, f64::min);
    quartiles(values).0.max(fastest)
}

/// Distance between the quartiles as a share of the median: the spread a
/// metric's bound is compared with.
pub fn spread(values: &[f64]) -> f64 {
    let (q1, q2, q3) = quartiles(values);
    if q2 == 0.0 {
        0.0
    } else {
        (q3 - q1) / q2.abs()
    }
}

/// Percentiles a latency report may quote, lowest first, in tenths of a
/// percent so the rule below is exact integer arithmetic.
const LADDER_PERMILLE: [usize; 6] = [500, 750, 900, 950, 990, 999];

/// The highest percentile of the ladder that still has at least ten of
/// `n` samples beyond it; the median when even p75 has fewer.
pub fn supported_percentile(n: usize) -> f64 {
    let permille = LADDER_PERMILLE
        .iter()
        .copied()
        .rfind(|p| n * (1000 - p) >= 10 * 1000)
        .unwrap_or(LADDER_PERMILLE[0]);
    permille as f64 / 10.0
}

/// Nearest-rank percentile `p` (0–100) of `values`.
///
/// # Panics
///
/// Panics on an empty slice, like [`median`].
pub fn percentile(values: &[f64], p: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of no samples");
    let v = sorted(values);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), (2.75, 5.5, 8.25));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]), (1.5, 4.0, 12.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 1.5, 2.25));
        assert_eq!(quartiles(&[5.0]), (5.0, 5.0, 5.0));
        assert!((spread(&ten) - 1.0).abs() < 1e-12);
        assert_eq!(lower_quartile(&ten), 2.75);
        // Three samples: the lower quartile is the fastest one.
        assert_eq!(lower_quartile(&[3.0, 1.0, 2.0]), 1.0);
        assert_eq!(lower_quartile(&[2.0, 1.0]), 1.0);
        assert_eq!(lower_quartile(&[4.0]), 4.0);
    }

    #[test]
    fn percentile_rule_needs_ten_samples_beyond() {
        assert_eq!(supported_percentile(2400), 99.0);
        assert_eq!(supported_percentile(1000), 99.0);
        assert_eq!(supported_percentile(999), 95.0);
        assert_eq!(supported_percentile(200), 95.0);
        assert_eq!(supported_percentile(199), 90.0);
        assert_eq!(supported_percentile(44), 75.0);
        assert_eq!(supported_percentile(40), 75.0);
        assert_eq!(supported_percentile(39), 50.0);
        assert_eq!(supported_percentile(20), 50.0);
        assert_eq!(supported_percentile(5), 50.0);
        assert_eq!(supported_percentile(10_000), 99.9);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&hundred, 50.0), 50.0);
        assert_eq!(percentile(&hundred, 99.0), 99.0);
        assert_eq!(percentile(&hundred, 100.0), 100.0);
        assert_eq!(percentile(&[3.0, 9.0], 99.0), 9.0);
        assert_eq!(percentile(&[3.0], 1.0), 3.0);
    }
}
