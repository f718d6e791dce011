//! Order statistics over host-time samples.
//!
//! Percentiles are given in per-mille (`500` = p50, `990` = p99,
//! `999` = p99.9) so rank arithmetic stays in integers and a percentile
//! never lands one rank off through float rounding.

/// The percentiles a tail may be reported at, highest first.
pub const TAIL_LADDER: [u32; 4] = [999, 990, 900, 500];

/// 1-based nearest rank of per-mille percentile `pm` in `n` samples:
/// the smallest rank with at least `pm`/1000 of the samples at or
/// below it.
#[must_use]
pub fn nearest_rank_index(n: usize, pm: u32) -> usize {
    let rank = (u128::from(pm) * n as u128).div_ceil(1000);
    usize::try_from(rank).unwrap_or(n).clamp(1, n.max(1))
}

/// Nearest-rank percentile of an ascending-sorted, non-empty sample.
///
/// # Panics
///
/// Panics when `sorted` is empty.
#[must_use]
pub fn nearest_rank(sorted: &[f64], pm: u32) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    sorted[nearest_rank_index(sorted.len(), pm) - 1]
}

/// The highest percentile of [`TAIL_LADDER`] that leaves at least ten
/// samples above its rank, or `None` when `n` is too small for any.
#[must_use]
pub fn tail_percentile(n: usize) -> Option<u32> {
    TAIL_LADDER
        .into_iter()
        .find(|&pm| n.saturating_sub(nearest_rank_index(n, pm)) >= 10)
}

/// Median of a non-empty sample (mean of the middle pair for even
/// sizes). Sorts in place.
///
/// # Panics
///
/// Panics when `xs` is empty.
#[must_use]
pub fn median(xs: &mut [f64]) -> f64 {
    quartiles(xs).1
}

/// First quartile, median and third quartile of a non-empty sample, by
/// the exclusive method Python's `statistics.quantiles(xs, n=4)` uses,
/// so the spreads printed here match that tool. Sorts in place.
///
/// # Panics
///
/// Panics when `xs` is empty.
#[must_use]
pub fn quartiles(xs: &mut [f64]) -> (f64, f64, f64) {
    assert!(!xs.is_empty(), "quartiles of an empty sample");
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    if n == 1 {
        return (xs[0], xs[0], xs[0]);
    }
    let q = |i: usize| {
        // m = n + 1; j = clamp(i*m // 4, 1, n-1); delta = i*m - 4j,
        // which extrapolates (delta outside 0..=4) for tiny samples
        // exactly as Python does.
        let im = i * (n + 1);
        let j = (im / 4).clamp(1, n - 1);
        let delta = im as f64 - 4.0 * j as f64;
        (xs[j - 1] * (4.0 - delta) + xs[j] * delta) / 4.0
    };
    (q(1), q(2), q(3))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_matches_the_definition() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(nearest_rank(&xs, 500), 50.0);
        assert_eq!(nearest_rank(&xs, 990), 99.0);
        assert_eq!(nearest_rank(&xs, 999), 100.0);
        assert_eq!(nearest_rank(&xs, 1000), 100.0);
        assert_eq!(nearest_rank(&xs, 0), 1.0);
        // Ranks round up: p50 of five samples is the third.
        assert_eq!(nearest_rank(&[1.0, 2.0, 3.0, 4.0, 5.0], 500), 3.0);
        assert_eq!(nearest_rank(&[7.0], 990), 7.0);
        // 0.999 * 1000 is exactly rank 999 in integer arithmetic.
        assert_eq!(nearest_rank_index(1000, 999), 999);
        assert_eq!(nearest_rank_index(1001, 999), 1000);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        assert_eq!(tail_percentile(0), None);
        assert_eq!(tail_percentile(19), None);
        // 20 samples: p50 is rank 10 with 10 beyond.
        assert_eq!(tail_percentile(20), Some(500));
        assert_eq!(tail_percentile(99), Some(500));
        // 100 samples: p90 is rank 90 with exactly 10 beyond.
        assert_eq!(tail_percentile(100), Some(900));
        assert_eq!(tail_percentile(999), Some(900));
        // 1000 samples: p99 is rank 990.
        assert_eq!(tail_percentile(1000), Some(990));
        assert_eq!(tail_percentile(9_999), Some(990));
        assert_eq!(tail_percentile(10_000), Some(999));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let mut xs: Vec<f64> = (1..=10).rev().map(f64::from).collect();
        assert_eq!(quartiles(&mut xs), (2.75, 5.5, 8.25));
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&mut [3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&mut [2.0, 1.0]), (0.75, 1.5, 2.25));
        assert_eq!(median(&mut [4.0]), 4.0);
        assert_eq!(median(&mut [4.0, 1.0, 9.0, 2.0]), 3.0);
    }
}
