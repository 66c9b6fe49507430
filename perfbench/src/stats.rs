//! Order statistics used by every workload: medians, quartiles and the tail
//! percentile rule (report the highest percentile that still has at least
//! ten samples beyond it).

/// Percentiles the tail rule may pick, highest first.
const TAIL_CANDIDATES: [f64; 5] = [99.9, 99.0, 95.0, 90.0, 75.0];

/// Samples that must lie beyond a reported percentile.
pub const TAIL_MIN_BEYOND: usize = 10;

/// 1-based nearest rank of the `p`-th percentile of `n` samples. The
/// product is nudged down so `0.999 * 10000` ranks 9990, not 9991.
fn rank(n: usize, p: f64) -> usize {
    (((p / 100.0) * n as f64 - 1e-9).ceil() as usize).clamp(1, n.max(1))
}

/// Nearest-rank percentile of `values` (`p` in `[0, 100]`); `NaN` when
/// `values` is empty.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[rank(sorted.len(), p) - 1]
}

/// Median (mean of the two middle values for an even count).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        0.5 * (sorted[n / 2 - 1] + sorted[n / 2])
    }
}

/// Number of samples strictly above the nearest-rank `p`-th percentile
/// position of `n` samples.
pub fn beyond(n: usize, p: f64) -> usize {
    n.saturating_sub(rank(n, p))
}

/// The highest candidate percentile with at least [`TAIL_MIN_BEYOND`]
/// samples beyond it, or `None` when there are fewer than forty samples
/// (then only the median is a meaningful summary).
pub fn tail_percentile(n: usize) -> Option<f64> {
    if n < 40 {
        return None;
    }
    TAIL_CANDIDATES
        .into_iter()
        .find(|&p| beyond(n, p) >= TAIL_MIN_BEYOND)
}

/// The highest percentile (up to p99) the tail rule supports at this
/// sample count, or the median below forty samples.
pub fn supported_tail(values: &[f64]) -> f64 {
    match tail_percentile(values.len()) {
        Some(p) => percentile(values, p.min(99.0)),
        None => median(values),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_needs_ten_samples_beyond() {
        assert_eq!(tail_percentile(39), None);
        assert_eq!(tail_percentile(40), Some(75.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(200), Some(95.0));
        // p99 of 999 samples has only 9 beyond it.
        assert_eq!(tail_percentile(999), Some(95.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
        for n in [40, 77, 100, 640, 1000, 1234, 20_000] {
            let p = tail_percentile(n).unwrap();
            assert!(beyond(n, p) >= TAIL_MIN_BEYOND, "n {n} p {p}");
        }
    }

    #[test]
    fn nearest_rank_percentiles() {
        let values: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&values, 50.0), 50.0);
        assert_eq!(percentile(&values, 99.0), 99.0);
        assert_eq!(percentile(&values, 100.0), 100.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(percentile(&[], 50.0).is_nan());
    }

    #[test]
    fn supported_tail_follows_the_rule() {
        let short: Vec<f64> = (1..=12).map(f64::from).collect();
        assert_eq!(supported_tail(&short), median(&short));
        // 500 samples support p95 but not p99; 1200 support p99.
        let mid: Vec<f64> = (1..=500).map(f64::from).collect();
        assert_eq!(supported_tail(&mid), 475.0);
        let long: Vec<f64> = (1..=1200).map(f64::from).collect();
        assert_eq!(supported_tail(&long), 1188.0);
        // Never beyond p99, however many samples.
        let huge: Vec<f64> = (1..=20_000).map(f64::from).collect();
        assert_eq!(supported_tail(&huge), 19_800.0);
    }
}
