//! Order statistics for the reported metrics.

/// Median of `v` (mean of the middle two for even counts); 0 when empty.
pub fn median(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => s[n / 2],
        _ => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// Nearest-rank `pct`-th percentile of an ascending slice: the smallest
/// sample with at least `pct`% of the samples at or below it. 0 when
/// empty.
pub fn percentile_sorted(sorted: &[f64], pct: u32) -> f64 {
    let n = sorted.len();
    if n == 0 {
        return 0.0;
    }
    let rank = (u64::from(pct) * n as u64).div_ceil(100).max(1) as usize;
    sorted[rank.min(n) - 1]
}

/// Samples strictly beyond the nearest-rank `pct`-th percentile of `n`.
pub fn beyond(n: usize, pct: u32) -> usize {
    if n == 0 {
        return 0;
    }
    let rank = (u64::from(pct) * n as u64).div_ceil(100).max(1) as usize;
    n - rank.min(n)
}

/// The highest whole percentile with at least `min_beyond` samples beyond
/// it among `n` — the tail a timing is reported at. `None` when even the
/// median lacks that many.
pub fn tail_percentile(n: usize, min_beyond: usize) -> Option<u32> {
    (50..=99).rev().find(|&p| beyond(n, p) >= min_beyond)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=40).map(f64::from).collect();
        assert_eq!(percentile_sorted(&v, 50), 20.0);
        assert_eq!(percentile_sorted(&v, 75), 30.0);
        assert_eq!(percentile_sorted(&v, 100), 40.0);
        assert_eq!(percentile_sorted(&[7.0], 99), 7.0);
        assert_eq!(percentile_sorted(&[], 50), 0.0);
    }

    #[test]
    fn tail_rule_is_p75_at_forty_queries() {
        // 40 samples: p75 leaves exactly 10 beyond, p76 only 9.
        assert_eq!(beyond(40, 75), 10);
        assert_eq!(beyond(40, 76), 9);
        assert_eq!(tail_percentile(40, 10), Some(75));
        // More samples push the tail further out; p99 needs 1000.
        assert_eq!(tail_percentile(100, 10), Some(90));
        assert_eq!(tail_percentile(1000, 10), Some(99));
        assert_eq!(tail_percentile(999, 10), Some(98));
        // Too few samples for any tail at or above the median.
        assert_eq!(tail_percentile(19, 10), None);
        assert_eq!(tail_percentile(20, 10), Some(50));
    }
}
