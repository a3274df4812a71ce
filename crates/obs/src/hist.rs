//! Mergeable log-bucketed histograms for latency percentiles.
//!
//! A bounded window of recent samples, sorted on every snapshot, gives exact
//! percentiles of only the most recent window, and merging two windows is
//! not meaningful. A [`LogHistogram`] inverts the trade:
//! geometric buckets bound the *relative* quantile error by construction
//! ([`LogHistogram::REL_ERROR`], under 5%), memory is bounded by the fixed
//! bucket range however many samples arrive, and merging is exact —
//! elementwise bucket addition gives bit-for-bit the histogram of the
//! union, so per-session histograms roll up into one global distribution
//! without ever moving raw samples.
//!
//! Buckets are geometric with `SUB` sub-buckets per octave: bucket `i >= 1`
//! covers `(V0·2^((i-1)/SUB), V0·2^(i/SUB)]` and reports its geometric
//! midpoint; bucket `0` holds everything at or below `V0` (1 ns when the
//! unit is milliseconds). The exact maximum is tracked on the side, so
//! `max` and the top quantiles never overshoot the data.

/// Sub-buckets per octave (power of two). 8 gives a bucket width of
/// `2^(1/8) ≈ 1.09×`, i.e. at most ~4.4% relative error at the geometric
/// midpoint.
const SUB: usize = 8;

/// Smallest resolvable sample; with millisecond samples this is 1 ns.
const V0: f64 = 1e-6;

/// Octaves covered above `V0`; `41` spans 1 ns .. ~36 min in milliseconds.
/// Everything beyond clamps into the last bucket.
const OCTAVES: usize = 41;

/// Total bucket count (one underflow bucket + the geometric range).
const NBUCKETS: usize = 1 + OCTAVES * SUB;

/// Summary statistics computed from a [`LogHistogram`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct HistSummary {
    /// Number of recorded samples.
    pub count: usize,
    /// Exact arithmetic mean (0 when empty).
    pub mean: f64,
    /// Median (nearest-rank over buckets; within [`LogHistogram::REL_ERROR`]).
    pub p50: f64,
    /// 95th percentile.
    pub p95: f64,
    /// 99th percentile.
    pub p99: f64,
    /// Exact largest sample.
    pub max: f64,
}

/// A fixed-size log-bucketed histogram of non-negative samples.
///
/// `record` is O(1), memory is O(1) (at most `NBUCKETS` counters,
/// allocated lazily up to the highest bucket touched), and
/// [`LogHistogram::merge`] produces exactly the histogram of the combined
/// sample sets.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LogHistogram {
    /// Bucket counts, allocated up to the highest touched bucket.
    counts: Vec<u64>,
    count: u64,
    sum: f64,
    max: f64,
}

impl LogHistogram {
    /// Worst-case relative error of a quantile that falls strictly inside
    /// a bucket: half a bucket width, `2^(1/(2·SUB)) - 1`.
    pub const REL_ERROR: f64 = 0.0443; // 2^(1/16) - 1 ≈ 0.0443

    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// The bucket a sample lands in.
    fn bucket_of(v: f64) -> usize {
        if v.is_nan() || v <= V0 {
            // NaN and negatives also land in the underflow bucket rather
            // than corrupting the structure.
            return 0;
        }
        let octaves = (v / V0).log2();
        // The tiny slack keeps exact bucket upper bounds (and values a few
        // ulps above them) in their own bucket despite log2 rounding.
        let idx = (octaves * SUB as f64 - 1e-9).ceil().max(0.0) as usize;
        idx.min(NBUCKETS - 1)
    }

    /// The representative value reported for a bucket: the geometric
    /// midpoint of its range (`V0` for the underflow bucket).
    fn representative(idx: usize) -> f64 {
        if idx == 0 {
            V0
        } else {
            V0 * ((idx as f64 - 0.5) / SUB as f64).exp2()
        }
    }

    /// Record one sample.
    pub fn record(&mut self, v: f64) {
        let idx = Self::bucket_of(v);
        if self.counts.len() <= idx {
            self.counts.resize(idx + 1, 0);
        }
        self.counts[idx] += 1;
        self.count += 1;
        if v.is_finite() {
            self.sum += v.max(0.0);
            self.max = self.max.max(v);
        }
    }

    /// Fold `other` into `self`. The result is exactly the histogram of
    /// the union of both sample sets (identical bucket counts, sum, count,
    /// and max) — the property that lets per-session histograms merge into
    /// a global one.
    pub fn merge(&mut self, other: &Self) {
        if self.counts.len() < other.counts.len() {
            self.counts.resize(other.counts.len(), 0);
        }
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> usize {
        self.count as usize
    }

    /// The exact largest recorded sample (0 when empty).
    pub fn max(&self) -> f64 {
        self.max
    }

    /// The exact sum of recorded samples.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// The nearest-rank `q`-quantile (`q` in `[0, 1]`), reported at its
    /// bucket's geometric midpoint and clamped to the exact maximum (so
    /// the top quantiles never exceed the data).
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let top = self.counts.iter().rposition(|&c| c > 0).unwrap_or(0);
        let mut seen = 0u64;
        for (idx, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                // The highest occupied bucket reports the exact maximum
                // (which lives in it), so top quantiles never overshoot
                // the data and a lone sample reports exactly.
                return if idx == top { self.max } else { Self::representative(idx) };
            }
        }
        self.max
    }

    /// Summarize: exact count/mean/max, bucketed p50/p95/p99.
    pub fn summary(&self) -> HistSummary {
        if self.count == 0 {
            return HistSummary::default();
        }
        HistSummary {
            count: self.count as usize,
            mean: self.sum / self.count as f64,
            p50: self.quantile(0.50),
            p95: self.quantile(0.95),
            p99: self.quantile(0.99),
            max: self.max,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic pseudo-random stream (no external deps in this crate).
    fn lcg(seed: u64) -> impl FnMut() -> f64 {
        let mut s = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
        move || {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            // Spread samples over ~7 orders of magnitude.
            let u = ((s >> 11) as f64) / (1u64 << 53) as f64;
            1e-3 * (u * 23.0).exp2()
        }
    }

    #[test]
    fn empty_summary_is_zero() {
        assert_eq!(LogHistogram::new().summary(), HistSummary::default());
        assert_eq!(LogHistogram::new().quantile(0.5), 0.0);
    }

    #[test]
    fn merge_equals_histogramming_the_union() {
        // The satellite's exactness contract: merging per-session
        // histograms must give *exact* bucket counts — identical to one
        // histogram fed every sample.
        let mut gen = lcg(7);
        let sessions: Vec<Vec<f64>> =
            (0..5).map(|i| (0..(200 + i * 57)).map(|_| gen()).collect()).collect();
        let mut merged = LogHistogram::new();
        for sess in &sessions {
            let mut h = LogHistogram::new();
            for &v in sess {
                h.record(v);
            }
            merged.merge(&h);
        }
        let mut union = LogHistogram::new();
        for &v in sessions.iter().flatten() {
            union.record(v);
        }
        assert_eq!(merged.counts, union.counts, "merge must match the union bucket for bucket");
        assert_eq!(merged.count(), union.count());
        assert_eq!(merged.max(), union.max());
        // The sum is exact per histogram; across a merge only f64 addition
        // order differs.
        assert!((merged.sum() - union.sum()).abs() <= union.sum().abs() * 1e-12);
        assert_eq!(merged.count(), sessions.iter().map(Vec::len).sum::<usize>());
    }

    #[test]
    fn quantiles_stay_within_the_error_bound() {
        let mut gen = lcg(42);
        let mut samples: Vec<f64> = (0..10_000).map(|_| gen()).collect();
        let mut h = LogHistogram::new();
        for &v in &samples {
            h.record(v);
        }
        samples.sort_by(f64::total_cmp);
        for q in [0.5, 0.9, 0.95, 0.99] {
            let exact = samples[((q * samples.len() as f64).ceil() as usize).max(1) - 1];
            let approx = h.quantile(q);
            let rel = (approx - exact).abs() / exact;
            assert!(
                rel <= LogHistogram::REL_ERROR + 1e-9,
                "q={q}: approx {approx} vs exact {exact} (rel {rel:.4})"
            );
        }
        assert_eq!(h.max(), *samples.last().unwrap(), "max is exact");
        let mean = samples.iter().sum::<f64>() / samples.len() as f64;
        assert!((h.summary().mean - mean).abs() < 1e-9, "mean is exact");
    }

    #[test]
    fn memory_is_bounded_regardless_of_sample_count() {
        let mut h = LogHistogram::new();
        for i in 0..1_000_000u64 {
            // Adversarial spread including huge outliers.
            h.record((i % 977) as f64 * 1e3 + 0.001);
        }
        h.record(f64::INFINITY - f64::INFINITY); // NaN → underflow bucket
        h.record(-5.0);
        h.record(1e300); // clamps into the top bucket
        assert!(h.counts.len() <= NBUCKETS, "bucket storage is capped: {}", h.counts.len());
        assert_eq!(h.count(), 1_000_003);
    }

    #[test]
    fn single_sample_is_every_percentile() {
        let mut h = LogHistogram::new();
        h.record(7.0);
        let s = h.summary();
        // Clamped to the exact max, a lone sample reports exactly.
        assert_eq!((s.p50, s.p95, s.p99, s.max), (7.0, 7.0, 7.0, 7.0));
        assert_eq!(s.count, 1);
    }

    #[test]
    fn bucket_bounds_are_half_open_and_ordered() {
        // A value exactly on a bucket's upper bound lands in that bucket.
        for i in 1..64usize {
            let hi = V0 * (i as f64 / SUB as f64).exp2();
            assert_eq!(LogHistogram::bucket_of(hi), i, "upper bound of bucket {i}");
            let eps = hi * (1.0 + 1e-6);
            assert_eq!(LogHistogram::bucket_of(eps), i + 1, "just above bucket {i}");
        }
        assert_eq!(LogHistogram::bucket_of(0.0), 0);
        assert_eq!(LogHistogram::bucket_of(V0), 0);
    }
}
