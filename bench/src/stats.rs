//! Exact order statistics over the harness's own samples.
//!
//! `ServiceMetrics.latency` is log-bucketed (~19 % between adjacent
//! buckets), too coarse for a 10 % regression bound, so the end-to-end
//! latencies are sorted exactly here.

/// Nearest-rank percentile of an ascending slice: the smallest sample with
/// at least `p` percent of the distribution at or below it (0 when empty).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of `values` (mean of the two middle samples when the count is
/// even; 0 when empty).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Full range of `values` as a share of their median (0 when the median is
/// 0) — the spread reported beside the medians of the two-client service
/// counters, which vary run to run.
pub fn spread(values: &[f64]) -> f64 {
    let m = median(values);
    if m == 0.0 {
        return 0.0;
    }
    let lo = values.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    (hi - lo) / m
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_are_nearest_rank_on_hand_built_samples() {
        let s: Vec<f64> = (1..=300).map(f64::from).collect();
        assert_eq!(percentile(&s, 50.0), 150.0);
        // 300 samples: p95 is the 285th, leaving 15 (>= 10) beyond it.
        assert_eq!(percentile(&s, 95.0), 285.0);
        assert_eq!(percentile(&s, 100.0), 300.0);
        assert_eq!(percentile(&s, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 95.0), 7.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn median_and_spread() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(spread(&[9.0, 10.0, 12.0]), 0.3);
        assert_eq!(spread(&[0.0, 0.0, 0.0]), 0.0);
    }
}
