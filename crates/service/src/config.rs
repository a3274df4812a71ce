//! Service configuration.

use memsim::MachineConfig;
use obs::TraceMode;

/// How many queries may wait in the admission queue before new submissions
/// are rejected, by default.
pub const DEFAULT_QUEUE_LIMIT: usize = 64;

/// How many times a waiting query may be bypassed by cheaper, younger
/// queries before it becomes urgent (FIFO), by default.
pub const DEFAULT_STARVATION_BOUND: usize = 4;

/// Default result-cache budget in bytes (`0` disables the cache).
pub const DEFAULT_CACHE_BYTES: usize = 4 << 20;

/// Default elevator chunk size in values (`0` runs every cooperative pass
/// all-or-nothing, the pre-elevator behavior).
pub const DEFAULT_CHUNK_ROWS: usize = 64 << 10;

/// Default drift band: a shape whose EWMA actual/model ratio leaves
/// `[1/band, band]` is flagged by the drift observatory.
pub const DEFAULT_DRIFT_BAND: f64 = 2.0;

/// Configuration of a [`crate::QueryService`]. Programs set the fields
/// (or the `with_*` builders) in code; nothing is read from the
/// environment.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Machine whose memory hierarchy the admission quotes (and the
    /// executor's physical decisions) are priced against.
    pub machine: MachineConfig,
    /// Global worker-thread budget shared by all concurrently running
    /// queries. The scheduler never lets the sum of per-query thread leases
    /// exceed it.
    pub budget: usize,
    /// Maximum number of queries waiting in the admission queue; a
    /// submission arriving at a full queue is rejected
    /// ([`crate::ServiceError::Overloaded`]).
    pub queue_limit: usize,
    /// Shortest-expected-cost-first may bypass a waiting query at most this
    /// many times; after that the query is scheduled FIFO regardless of
    /// cost, bounding starvation.
    pub starvation_bound: usize,
    /// Merge same-column scan leaves of concurrently admitted queries into
    /// cooperative one-pass scans (on by default; results are bit-identical
    /// either way — sharing changes who streams a column, never what a
    /// query computes).
    pub shared_scans: bool,
    /// Result-cache budget in bytes (`0` disables caching). Completed
    /// results are cached by normalized plan fingerprint; tables are
    /// immutable, so entries never need invalidation. The fingerprint
    /// includes every column buffer's address and length, so it is valid
    /// for as long as the tables it describes are alive — the service's
    /// operating assumption is that tables outlive it (there is no drop
    /// hook); a deployment that rebuilds tables mid-flight must run with
    /// the cache off.
    pub cache_bytes: usize,
    /// Elevator chunk size in values: cooperative passes stream a column
    /// in chunks of this many tuples, letting late arrivals attach at
    /// chunk boundaries (and wrap around for the part they missed) and
    /// letting the scheduler preempt a long pass between chunks. `0`
    /// makes the chunk the whole column — every pass is one stream with no
    /// boundary to attach or preempt at. Results are bit-identical at
    /// every chunk size.
    pub chunk_rows: usize,
    /// Query lifecycle tracing ([`obs::TraceMode`]). Off by default: the
    /// submit path then carries no trace state at all and runs exactly the
    /// pre-observability code. When enabled, every query's lifecycle is
    /// recorded as logically-timestamped events in per-session rings
    /// (also appended as JSONL in file mode), kernels run under the
    /// memory simulator so per-chunk counters are deterministic, and the
    /// drift observatory compares model quotes against simulated cost.
    pub trace: TraceMode,
    /// Drift band for the observatory: a shape whose EWMA actual/model
    /// ratio leaves `[1/band, band]` is flagged in
    /// [`crate::QueryService::drift`] reports.
    pub drift_band: f64,
}

impl ServiceConfig {
    /// Defaults: quotes priced on the paper's Origin2000 (the same machine
    /// [`engine::exec::ExecOptions::default`] plans for), budget = the
    /// host's available parallelism.
    pub fn new() -> Self {
        Self {
            machine: memsim::profiles::origin2000(),
            budget: std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1),
            queue_limit: DEFAULT_QUEUE_LIMIT,
            starvation_bound: DEFAULT_STARVATION_BOUND,
            shared_scans: true,
            cache_bytes: DEFAULT_CACHE_BYTES,
            chunk_rows: DEFAULT_CHUNK_ROWS,
            trace: TraceMode::Off,
            drift_band: DEFAULT_DRIFT_BAND,
        }
    }

    /// Set the global thread budget (clamped to >= 1).
    pub fn with_budget(mut self, budget: usize) -> Self {
        self.budget = budget.max(1);
        self
    }

    /// Set the admission-queue limit.
    pub fn with_queue_limit(mut self, limit: usize) -> Self {
        self.queue_limit = limit;
        self
    }

    /// Set the starvation bound.
    pub fn with_starvation_bound(mut self, bound: usize) -> Self {
        self.starvation_bound = bound;
        self
    }

    /// Enable or disable cooperative shared scans.
    pub fn with_shared_scans(mut self, on: bool) -> Self {
        self.shared_scans = on;
        self
    }

    /// Set the result-cache budget in bytes (`0` disables the cache).
    pub fn with_cache_bytes(mut self, bytes: usize) -> Self {
        self.cache_bytes = bytes;
        self
    }

    /// Set the elevator chunk size in values (`0` = the whole column).
    pub fn with_chunk_rows(mut self, rows: usize) -> Self {
        self.chunk_rows = rows;
        self
    }

    /// Set the lifecycle trace mode.
    pub fn with_trace(mut self, mode: TraceMode) -> Self {
        self.trace = mode;
        self
    }
}

impl Default for ServiceConfig {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let cfg = ServiceConfig::new();
        assert!(cfg.budget >= 1);
        assert_eq!(cfg.queue_limit, DEFAULT_QUEUE_LIMIT);
        assert_eq!(cfg.starvation_bound, DEFAULT_STARVATION_BOUND);
        assert_eq!(cfg.machine.name, "origin2k");
        assert!(cfg.shared_scans, "cooperative scans default on");
        assert_eq!(cfg.cache_bytes, DEFAULT_CACHE_BYTES);
        assert_eq!(cfg.chunk_rows, DEFAULT_CHUNK_ROWS);
        assert_eq!(cfg.trace, TraceMode::Off, "tracing defaults off");
        assert_eq!(cfg.drift_band, DEFAULT_DRIFT_BAND);
    }

    #[test]
    fn trace_chunk_cache_and_share_builders() {
        let cfg = ServiceConfig::new()
            .with_trace(TraceMode::Ring)
            .with_chunk_rows(0)
            .with_cache_bytes(0)
            .with_shared_scans(false);
        assert!(cfg.trace.enabled());
        assert_eq!(cfg.chunk_rows, 0, "zero = one chunk per column");
        assert_eq!(cfg.cache_bytes, 0);
        assert!(!cfg.shared_scans);
    }

    #[test]
    fn builders_clamp() {
        let cfg = ServiceConfig::new().with_budget(0).with_queue_limit(2).with_starvation_bound(0);
        assert_eq!(cfg.budget, 1, "budget clamps to one thread");
        assert_eq!(cfg.queue_limit, 2);
        assert_eq!(cfg.starvation_bound, 0, "zero bound = pure FIFO");
    }
}
