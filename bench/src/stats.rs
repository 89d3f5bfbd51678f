//! Percentile, median and round arithmetic.
//!
//! Every timing metric is computed once per round and the run reports the
//! median of the round values, so a slow neighbour on the box has to cover
//! a majority of the rounds before it moves the reported number.

/// Nearest-rank percentile of `sorted` (ascending), `p` in `[0, 1]`.
/// Index `round((n - 1) * p)`, the rule `service_bench` already uses.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// Median: the middle value, or the mean of the two middle values.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// `(max - min) / median` — how far the rounds of one run disagree.
pub fn spread(values: &[f64]) -> f64 {
    let lo = values.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    (hi - lo) / median(values)
}

/// Samples beyond the `p`-th percentile under [`percentile`]'s rule.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    n - 1 - ((n as f64 - 1.0) * p).round() as usize
}

/// Split `total` queries into `rounds` equal rounds of whole query-mix
/// cycles: the per-round count, rounded up to a multiple of `cycle` so
/// every round runs the same mix.
pub fn per_round(total: usize, rounds: usize, cycle: usize) -> usize {
    let cycle = cycle.max(1);
    total.div_ceil(rounds).div_ceil(cycle).max(1) * cycle
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 0.5), 51.0); // round(49.5) = 50 -> v[50]
        assert_eq!(percentile(&v, 0.9), 90.0); // round(89.1) = 89 -> v[89]
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&[7.0], 0.9), 7.0);
    }

    #[test]
    fn p90_of_a_hundred_leaves_ten_beyond() {
        assert_eq!(samples_beyond(100, 0.9), 10);
        assert_eq!(samples_beyond(840, 0.9), 84);
        assert_eq!(samples_beyond(1, 0.9), 0);
    }

    #[test]
    fn median_odd_even_and_unsorted() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[5.0]), 5.0);
    }

    #[test]
    fn median_of_five_ignores_two_slow_rounds() {
        // a slow neighbour covering two of five rounds does not move it
        assert_eq!(median(&[4.8, 9.9, 4.7, 9.5, 4.9]), 4.9);
    }

    #[test]
    fn failed_queries_push_percentiles_to_infinity() {
        let mut v = vec![1.0, f64::INFINITY, 2.0, f64::INFINITY, f64::INFINITY];
        v.sort_by(f64::total_cmp);
        assert!(percentile(&v, 0.5).is_infinite());
    }

    #[test]
    fn spread_is_range_over_median() {
        assert_eq!(spread(&[10.0, 12.0, 11.0]), 2.0 / 11.0);
        assert_eq!(spread(&[5.0, 5.0, 5.0]), 0.0);
    }

    #[test]
    fn rounds_hold_whole_mix_cycles() {
        assert_eq!(per_round(4000, 5, 1), 800);
        assert_eq!(per_round(500, 5, 3), 102);
        assert_eq!(per_round(1, 5, 3), 3);
        assert_eq!(per_round(0, 5, 1), 1);
    }
}
