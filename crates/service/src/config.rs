//! Service configuration and the `MONET_SERVICE_*` environment knobs.

use std::fmt;

use memsim::MachineConfig;
use obs::TraceMode;

/// How many queries may wait in the admission queue before new submissions
/// are rejected, by default.
pub const DEFAULT_QUEUE_LIMIT: usize = 64;

/// How many times a waiting query may be bypassed by cheaper, younger
/// queries before it becomes urgent (FIFO), by default.
pub const DEFAULT_STARVATION_BOUND: usize = 4;

/// Default result-cache budget in bytes (`MONET_SERVICE_CACHE=on` maps to
/// this; `0` disables the cache).
pub const DEFAULT_CACHE_BYTES: usize = 4 << 20;

/// Default elevator chunk size in values (`MONET_SERVICE_CHUNK`; `0` runs
/// every cooperative pass all-or-nothing, the pre-elevator behavior).
pub const DEFAULT_CHUNK_ROWS: usize = 64 << 10;

/// Default drift band: a shape whose EWMA actual/model ratio leaves
/// `[1/band, band]` is flagged by the drift observatory.
pub const DEFAULT_DRIFT_BAND: f64 = 2.0;

/// Configuration of a [`crate::QueryService`].
///
/// Every field but `machine` has an environment override, read by
/// [`ServiceConfig::from_env`], so deployments can be tuned without code
/// changes:
///
/// | field | env | default |
/// |---|---|---|
/// | `budget` | `MONET_SERVICE_THREADS` | host available parallelism |
/// | `queue_limit` | `MONET_SERVICE_QUEUE` | 64 |
/// | `starvation_bound` | `MONET_SERVICE_STARVE` | 4 |
/// | `shared_scans` | `MONET_SERVICE_SHARE` (`0`/`off` disables) | on |
/// | `cache_bytes` | `MONET_SERVICE_CACHE` (`0` off, `on`, or bytes) | 4 MiB |
/// | `chunk_rows` | `MONET_SERVICE_CHUNK` (`0` whole column, values, or `64k`/`1m`) | 64K values |
/// | `trace` | `MONET_TRACE` (`0` off, `on`/`ring`, `stderr`, or a path) | off |
/// | `drift_band` | `MONET_DRIFT_BAND` (ratio >= 1) | 2.0 |
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
    /// (exported as JSONL for `stderr`/file modes), kernels run under the
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

    /// [`Self::new`] with the environment overrides of the table above
    /// applied. A set variable whose value does not parse, or lies outside
    /// its range, is an error naming the variable and the value — never a
    /// silent default.
    pub fn from_env() -> Result<Self, ConfigError> {
        Self::from_vars(|var| std::env::var(var).ok())
    }

    /// [`Self::from_env`] over the variables `get` looks up.
    fn from_vars(get: impl Fn(&str) -> Option<String>) -> Result<Self, ConfigError> {
        let get = &get;
        let mut cfg = Self::new();
        if let Some(n) = read(get, "MONET_SERVICE_THREADS", "a thread count >= 1", |v| {
            v.parse().ok().filter(|&n: &usize| n >= 1)
        })? {
            cfg.budget = n;
        }
        if let Some(n) = read(get, "MONET_SERVICE_QUEUE", "a queue length", |v| v.parse().ok())? {
            cfg.queue_limit = n;
        }
        if let Some(n) = read(get, "MONET_SERVICE_STARVE", "a bypass count", |v| v.parse().ok())? {
            cfg.starvation_bound = n;
        }
        if let Some(on) =
            read(get, "MONET_SERVICE_SHARE", "0/off/false or 1/on/true", |v| match v {
                "0" | "off" | "false" => Some(false),
                "1" | "on" | "true" => Some(true),
                _ => None,
            })?
        {
            cfg.shared_scans = on;
        }
        if let Some(n) = read(get, "MONET_SERVICE_CACHE", "off, on or a byte count", |v| match v {
            "on" => Some(DEFAULT_CACHE_BYTES),
            "off" => Some(0),
            bytes => bytes.parse().ok(),
        })? {
            cfg.cache_bytes = n;
        }
        if let Some(n) = read(
            get,
            "MONET_SERVICE_CHUNK",
            "a value count, optionally with a k or m suffix",
            parse_chunk,
        )? {
            cfg.chunk_rows = n;
        }
        // Every value names a trace mode: one that is no keyword is a path.
        if let Some(v) = get("MONET_TRACE") {
            cfg.trace = TraceMode::parse(&v);
        }
        if let Some(band) = read(get, "MONET_DRIFT_BAND", "a finite ratio >= 1", |v| {
            v.parse().ok().filter(|b: &f64| b.is_finite() && *b >= 1.0)
        })? {
            cfg.drift_band = band;
        }
        Ok(cfg)
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

    /// Set the machine the quotes are priced on.
    pub fn with_machine(mut self, machine: MachineConfig) -> Self {
        self.machine = machine;
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

    /// Set the drift band (clamped to >= 1; `band = 1` flags any drift).
    pub fn with_drift_band(mut self, band: f64) -> Self {
        self.drift_band = if band.is_finite() { band.max(1.0) } else { DEFAULT_DRIFT_BAND };
        self
    }
}

impl Default for ServiceConfig {
    fn default() -> Self {
        Self::new()
    }
}

/// A set configuration variable whose value [`ServiceConfig::from_env`]
/// cannot use.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigError {
    /// The environment variable.
    pub var: &'static str,
    /// Its value, as set.
    pub value: String,
    /// What the variable accepts.
    pub expected: &'static str,
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}={:?}: expected {}", self.var, self.value, self.expected)
    }
}

impl std::error::Error for ConfigError {}

/// `var`'s value parsed (trimmed) by `parse`, or `None` when `get` finds it
/// unset.
fn read<T>(
    get: &dyn Fn(&str) -> Option<String>,
    var: &'static str,
    expected: &'static str,
    parse: impl Fn(&str) -> Option<T>,
) -> Result<Option<T>, ConfigError> {
    let Some(value) = get(var) else { return Ok(None) };
    match parse(value.trim()) {
        Some(v) => Ok(Some(v)),
        None => Err(ConfigError { var, value, expected }),
    }
}

/// Parse a chunk-size spec: a plain value count, or one with a `k`/`m`
/// suffix (`64k` = 65536 values, `1m` = 1048576). `0` means the whole column.
fn parse_chunk(v: &str) -> Option<usize> {
    let v = v.trim().to_ascii_lowercase();
    let (digits, mult) = match v.strip_suffix('k') {
        Some(d) => (d, 1usize << 10),
        None => match v.strip_suffix('m') {
            Some(d) => (d, 1usize << 20),
            None => (v.as_str(), 1),
        },
    };
    digits.parse::<usize>().ok()?.checked_mul(mult)
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
    fn trace_and_drift_builders() {
        let cfg = ServiceConfig::new().with_trace(TraceMode::Ring).with_drift_band(1.5);
        assert!(cfg.trace.enabled());
        assert_eq!(cfg.drift_band, 1.5);
        let cfg = cfg.with_drift_band(0.3);
        assert_eq!(cfg.drift_band, 1.0, "band clamps to >= 1");
        let cfg = cfg.with_drift_band(f64::NAN);
        assert_eq!(cfg.drift_band, DEFAULT_DRIFT_BAND, "NaN falls back to the default");
    }

    #[test]
    fn chunk_specs_parse_with_suffixes() {
        assert_eq!(parse_chunk("0"), Some(0));
        assert_eq!(parse_chunk("4096"), Some(4096));
        assert_eq!(parse_chunk("64k"), Some(64 << 10));
        assert_eq!(parse_chunk(" 64K "), Some(64 << 10));
        assert_eq!(parse_chunk("1m"), Some(1 << 20));
        assert_eq!(parse_chunk("banana"), None);
        assert_eq!(parse_chunk("99999999999999999999m"), None, "overflow is unparsable");
        let cfg = ServiceConfig::new().with_chunk_rows(0);
        assert_eq!(cfg.chunk_rows, 0, "zero = one chunk per column");
    }

    #[test]
    fn cache_and_share_builders() {
        let cfg = ServiceConfig::new().with_cache_bytes(0).with_shared_scans(false);
        assert_eq!(cfg.cache_bytes, 0);
        assert!(!cfg.shared_scans);
    }

    /// [`ServiceConfig::from_vars`] with `var` alone set to `value`.
    fn with_var(var: &str, value: &str) -> Result<ServiceConfig, ConfigError> {
        ServiceConfig::from_vars(|v| (v == var).then(|| value.to_owned()))
    }

    /// `var=value` is refused, naming both.
    fn refused(var: &str, value: &str) {
        let err = with_var(var, value).expect_err(value);
        assert_eq!((err.var, err.value.as_str()), (var, value));
        let text = err.to_string();
        assert!(text.contains(var) && text.contains(value), "{text}");
    }

    #[test]
    fn unset_variables_keep_the_defaults() {
        let cfg = ServiceConfig::from_vars(|_| None).unwrap();
        let new = ServiceConfig::new();
        assert_eq!(
            (cfg.budget, cfg.queue_limit, cfg.cache_bytes),
            (new.budget, new.queue_limit, new.cache_bytes)
        );
        assert_eq!(
            (cfg.chunk_rows, cfg.trace, cfg.drift_band),
            (new.chunk_rows, new.trace, new.drift_band)
        );
    }

    #[test]
    fn threads_variable() {
        assert_eq!(with_var("MONET_SERVICE_THREADS", " 3 ").unwrap().budget, 3);
        refused("MONET_SERVICE_THREADS", "four");
        refused("MONET_SERVICE_THREADS", "0");
    }

    #[test]
    fn queue_variable() {
        assert_eq!(with_var("MONET_SERVICE_QUEUE", "0").unwrap().queue_limit, 0);
        refused("MONET_SERVICE_QUEUE", "-1");
    }

    #[test]
    fn starve_variable() {
        assert_eq!(with_var("MONET_SERVICE_STARVE", "9").unwrap().starvation_bound, 9);
        refused("MONET_SERVICE_STARVE", "never");
    }

    #[test]
    fn share_variable() {
        assert!(!with_var("MONET_SERVICE_SHARE", "off").unwrap().shared_scans);
        assert!(with_var("MONET_SERVICE_SHARE", "1").unwrap().shared_scans);
        refused("MONET_SERVICE_SHARE", "yes");
    }

    #[test]
    fn cache_variable() {
        assert_eq!(with_var("MONET_SERVICE_CACHE", "off").unwrap().cache_bytes, 0);
        assert_eq!(with_var("MONET_SERVICE_CACHE", "on").unwrap().cache_bytes, DEFAULT_CACHE_BYTES);
        assert_eq!(with_var("MONET_SERVICE_CACHE", "4096").unwrap().cache_bytes, 4096);
        refused("MONET_SERVICE_CACHE", "4MiB");
    }

    #[test]
    fn chunk_variable() {
        assert_eq!(with_var("MONET_SERVICE_CHUNK", "64k").unwrap().chunk_rows, 64 << 10);
        assert_eq!(with_var("MONET_SERVICE_CHUNK", "0").unwrap().chunk_rows, 0);
        refused("MONET_SERVICE_CHUNK", "64kb");
    }

    #[test]
    fn trace_variable() {
        assert_eq!(with_var("MONET_TRACE", "on").unwrap().trace, TraceMode::Ring);
        assert_eq!(with_var("MONET_TRACE", "0").unwrap().trace, TraceMode::Off);
        assert_eq!(
            with_var("MONET_TRACE", "out.jsonl").unwrap().trace,
            TraceMode::File("out.jsonl".to_owned())
        );
    }

    #[test]
    fn drift_band_variable() {
        assert_eq!(with_var("MONET_DRIFT_BAND", "1.5").unwrap().drift_band, 1.5);
        // `with_drift_band(0.5)` clamps to 1; the environment refuses it.
        refused("MONET_DRIFT_BAND", "0.5");
        refused("MONET_DRIFT_BAND", "inf");
        refused("MONET_DRIFT_BAND", "wide");
    }

    #[test]
    fn builders_clamp() {
        let cfg = ServiceConfig::new().with_budget(0).with_queue_limit(2).with_starvation_bound(0);
        assert_eq!(cfg.budget, 1, "budget clamps to one thread");
        assert_eq!(cfg.queue_limit, 2);
        assert_eq!(cfg.starvation_bound, 0, "zero bound = pure FIFO");
    }
}
