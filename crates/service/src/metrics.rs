//! Service metrics: admission counters, latency percentiles, per-session
//! accounting.

/// Summary statistics over a set of millisecond samples, read off an
/// [`obs::LogHistogram`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LatencySummary {
    /// Number of samples.
    pub count: usize,
    /// Arithmetic mean (0 when empty).
    pub mean_ms: f64,
    /// Median (within [`obs::LogHistogram::REL_ERROR`]).
    pub p50_ms: f64,
    /// 95th percentile (within the same error).
    pub p95_ms: f64,
    /// 99th percentile (within the same error).
    pub p99_ms: f64,
    /// Largest sample.
    pub max_ms: f64,
}

impl From<obs::HistSummary> for LatencySummary {
    fn from(h: obs::HistSummary) -> Self {
        Self {
            count: h.count,
            mean_ms: h.mean,
            p50_ms: h.p50,
            p95_ms: h.p95,
            p99_ms: h.p99,
            max_ms: h.max,
        }
    }
}

/// A snapshot of the service-wide state, taken by
/// [`crate::QueryService::metrics`]. A counter a [`SessionMetrics`] row
/// also holds is the sum of the rows, the one ledger for what it counts.
#[derive(Debug, Clone, Default)]
pub struct ServiceMetrics {
    /// The configured global thread budget.
    pub budget: usize,
    /// Threads currently leased to running queries.
    pub threads_in_use: usize,
    /// The most threads ever leased at once — must never exceed `budget`.
    pub high_water_threads: usize,
    /// Queries submitted, plans the planner refused included: the sum of
    /// the session rows' [`SessionMetrics::submitted`].
    pub submitted: u64,
    /// Queries that started immediately on submission.
    pub admitted_immediately: u64,
    /// Queries that had to wait in the admission queue.
    pub queued: u64,
    /// Queries shed because the queue was full.
    pub rejected: u64,
    /// Duplicate submissions collapsed into a concurrent identical query's
    /// execution (single-flight): they neither executed nor entered
    /// admission, they waited for the leader's result.
    pub collapsed: u64,
    /// Queries that finished executing (cache hits count: the service
    /// answered them).
    pub completed: u64,
    /// Cooperative scan passes executed — each streamed one column once on
    /// behalf of every merged predicate leaf.
    pub shared_scan_batches: u64,
    /// Solo column scans avoided by merging: for a pass that ultimately
    /// delivered `m` predicate leaves (claimed up front or attached
    /// mid-pass), `m - 1` scans were saved: Σ `scans_saved + runner_covered`
    /// over the session rows. Another query's leaf counts when that query
    /// picks its list up, not when the pass delivers it, so elevator
    /// attaches are included and aborted passes are not.
    pub scans_saved: u64,
    /// Predicate leaves that attached to an elevator pass already in
    /// flight (at a chunk boundary, wrapping around for the part they
    /// missed) rather than waiting for the next wave.
    pub elevator_attaches: u64,
    /// Times an elevator pass yielded its lease between chunks to a
    /// cheaper waiting query and re-queued itself.
    pub preemptions: u64,
    /// Tuples streamed through scan-select kernels service-wide — shared
    /// passes once per pass, per-query scan leaves once per leaf. The
    /// figure of merit cooperative scans push down.
    pub scan_rows_streamed: u64,
    /// Bytes those kernels actually streamed from *compressed*
    /// representations (packed/RLE/dictionary leaves, solo and
    /// cooperative): `rows × bits-per-value / 8` per compressed pass.
    pub compressed_bytes_streamed: u64,
    /// Bytes compression kept off the memory bus: the uncompressed stream
    /// (`rows × stride`) minus the compressed bytes, summed over every
    /// compressed pass. The figure of merit packed scans push down.
    pub bytes_saved: u64,
    /// Queries answered straight from the result cache.
    pub cache_hits: u64,
    /// Cache lookups that missed (and then executed).
    pub cache_misses: u64,
    /// Cache entries evicted to respect the byte budget.
    pub cache_evictions: u64,
    /// Resident bytes in the result cache.
    pub cache_bytes: usize,
    /// Resident entries in the result cache.
    pub cache_entries: usize,
    /// End-to-end latency (submission to result) over *every* completed
    /// query: per-session log-bucketed histograms ([`obs::LogHistogram`])
    /// merged into one distribution, so `count` tracks `completed` exactly
    /// while memory stays bounded. Percentiles carry the histogram's
    /// relative error (under 5%); `count`, `mean_ms`, and `max_ms` are
    /// exact.
    pub latency: LatencySummary,
    /// Time spent waiting in the admission queue (0 for immediate starts),
    /// same histogram treatment.
    pub queue_wait: LatencySummary,
    /// Wall time of individual cooperative-pass chunks, a pass whose column
    /// fits in one chunk (or with chunking off) counting as one chunk
    /// (empty when no cooperative pass ran) — the grain the scheduler can
    /// preempt at, so its tail bounds how long a cheap query waits behind
    /// a streaming one.
    pub chunk_latency: LatencySummary,
}

/// Per-session accounting, one row per [`crate::Session`].
#[derive(Debug, Clone, Default)]
pub struct SessionMetrics {
    /// The session id.
    pub session: usize,
    /// Queries this session submitted.
    pub submitted: u64,
    /// Queries that completed.
    pub completed: u64,
    /// Queries rejected at admission.
    pub rejected: u64,
    /// Queries answered straight from the result cache.
    pub cache_hits: u64,
    /// Scan leaves of this session's queries that were answered by another
    /// query's cooperative pass (no scan ran on this session's behalf).
    pub scans_saved: u64,
    /// Scan leaves of this session's own queries that their cooperative
    /// passes covered beyond the one stream each pass charges. Global
    /// `scans_saved` is the sum over sessions of `scans_saved +
    /// runner_covered`.
    pub runner_covered: u64,
    /// Bytes this session's own packed-scan leaves streamed from
    /// compressed representations.
    pub compressed_bytes_streamed: u64,
    /// Bytes this session's own packed-scan leaves kept off the memory bus
    /// versus the uncompressed columns.
    pub bytes_saved: u64,
    /// Sum of end-to-end latencies in milliseconds.
    pub total_ms: f64,
    /// Largest single end-to-end latency.
    pub max_ms: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_summary_converts_from_histogram_summaries() {
        let mut h = obs::LogHistogram::new();
        for v in [1.0, 2.0, 4.0] {
            h.record(v);
        }
        let s: LatencySummary = h.summary().into();
        assert_eq!(s.count, 3);
        assert_eq!(s.max_ms, 4.0);
        assert!((s.mean_ms - 7.0 / 3.0).abs() < 1e-12);
    }
}
