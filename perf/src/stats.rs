//! Order statistics used by every report: medians, the nearest-rank
//! percentiles of job latencies, and the quartiles the run-to-run
//! spread is judged by.

/// Samples that must lie beyond a reported percentile for it to be
/// more than the largest few samples.
pub const MIN_BEYOND: usize = 10;

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median: the middle sample, or the mean of the middle two.
pub fn median(values: &[f64]) -> Option<f64> {
    let v = sorted(values);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// Rank (1-based) of the nearest-rank `p`-th percentile of `n` samples.
fn nearest_rank(p: f64, n: usize) -> usize {
    ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n)
}

/// The nearest-rank `p`-th percentile: the smallest sample with at
/// least `p`% of the samples at or below it.
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    let v = sorted(values);
    (!v.is_empty()).then(|| v[nearest_rank(p, v.len()) - 1])
}

/// How many of `n` samples lie beyond the nearest-rank `p`-th
/// percentile.
pub fn beyond(p: f64, n: usize) -> usize {
    if n == 0 {
        0
    } else {
        n - nearest_rank(p, n)
    }
}

/// Whether the `p`-th percentile of `n` samples has at least
/// [`MIN_BEYOND`] samples beyond it.
pub fn percentile_is_supported(p: f64, n: usize) -> bool {
    beyond(p, n) >= MIN_BEYOND
}

/// The three cut points that split the samples into quarters, computed
/// as Python's `statistics.quantiles(values, n=4)` does (its default
/// "exclusive" method), so spreads read the same here as in any script
/// that checks them. One sample is its own quartiles.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let v = sorted(values);
    let ld = v.len();
    match ld {
        0 => return None,
        1 => return Some([v[0]; 3]),
        _ => {}
    }
    // With few samples the method extrapolates past the extremes: delta
    // may be negative, hence the signed arithmetic.
    let m = ld as i64 + 1;
    let mut out = [0.0; 3];
    for (k, slot) in out.iter_mut().enumerate() {
        let i = k as i64 + 1;
        let j = (i * m / 4).clamp(1, ld as i64 - 1);
        let delta = (i * m - j * 4) as f64;
        let j = j as usize;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    Some(out)
}

/// Interquartile distance as a share of the median (0 for a zero
/// median, where no share is defined).
pub fn spread(values: &[f64]) -> Option<f64> {
    let [q1, _, q3] = quartiles(values)?;
    let med = median(values)?;
    Some(if med == 0.0 {
        0.0
    } else {
        (q3 - q1) / med.abs()
    })
}

/// Median, quartiles and count of one sample set, printed as
/// `median [q1, q3] n=N`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

impl Summary {
    pub fn of(values: &[f64]) -> Option<Self> {
        let [q1, _, q3] = quartiles(values)?;
        Some(Self {
            median: median(values)?,
            q1,
            q3,
            n: values.len(),
        })
    }
}

impl std::fmt::Display for Summary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{:.6} [{:.6}, {:.6}] n={}",
            self.median, self.q1, self.q3, self.n
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), Some(50.0));
        assert_eq!(percentile(&v, 90.0), Some(90.0));
        assert_eq!(percentile(&v, 100.0), Some(100.0));
        assert_eq!(percentile(&[7.0], 90.0), Some(7.0));
        // 5 samples: p90 is the largest.
        assert_eq!(percentile(&[5.0, 1.0, 4.0, 2.0, 3.0], 90.0), Some(5.0));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn at_least_ten_samples_beyond_a_supported_percentile() {
        assert_eq!(beyond(90.0, 100), 10);
        assert!(percentile_is_supported(90.0, 100));
        assert!(
            !percentile_is_supported(90.0, 99),
            "rank 90 of 99 leaves 9 beyond"
        );
        assert!(percentile_is_supported(90.0, 120));
        assert!(percentile_is_supported(50.0, 20));
        assert!(!percentile_is_supported(50.0, 19));
        assert!(!percentile_is_supported(90.0, 5));
        assert_eq!(beyond(90.0, 0), 0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
        assert_eq!(quartiles(&[4.0, 2.0, 1.0, 3.0]), Some([1.25, 2.5, 3.75]));
        // statistics.quantiles([1, 5], n=4) == [0.0, 3.0, 6.0]: the
        // exclusive method extrapolates with two samples.
        assert_eq!(quartiles(&[5.0, 1.0]), Some([0.0, 3.0, 6.0]));
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some([1.0, 2.0, 3.0]));
        assert_eq!(quartiles(&[2.0]), Some([2.0; 3]));
        assert_eq!(quartiles(&[]), None);
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = spread(&v).expect("non-empty");
        assert!((s - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        assert_eq!(spread(&[3.0; 10]), Some(0.0));
    }
}
