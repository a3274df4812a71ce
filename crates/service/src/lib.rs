#![warn(missing_docs)]

//! # service — the multi-session concurrent query layer
//!
//! The paper optimizes one operator pipeline at a time; its thesis — model
//! the memory bottleneck, then make every physical decision against the
//! model — extends naturally to *many queries contending for the same
//! cores and caches*. Left alone, each [`engine::exec::Threads::Auto`]
//! query sizes itself as if it owned the machine, so two concurrent
//! queries oversubscribe every core. This crate closes that gap: the same
//! cost model that picks join algorithms and radix bits now also decides
//! **admission order** and **per-query thread leases** against a global
//! budget.
//!
//! ```text
//! clients ──► Session::run(plan)
//!                 │  result cache? (fingerprint hit → answer, no lease)
//!                 │  identical plan in flight? → collapse: wait for the
//!                 │    leader's Arc'd result (single-flight, no lease)
//!                 │  engine::physical::plan (outside the lock)
//!                 │  quote = the physical plan's (covered scans at
//!                 │    marginal, mid-pass elevator attaches at marginal
//!                 │    + wrap)
//!                 ▼
//!          ┌─ admission ─────────────────────────────┐
//!          │ queue full?          → rejected         │
//!          │ thread free?         → lease now        │
//!          │ else queue: shortest-cost-first,        │
//!          │   starvation-bounded; scan leaves       │
//!          │   posted to the shared-scan board       │
//!          └────────────────┬────────────────────────┘
//!                           ▼
//!          claim cooperative passes (own leaves + every queued
//!          same-column request); each runs as an *elevator* — a column
//!          longer than the chunk streams chunk by chunk, absorbing late
//!          arrivals at boundaries (riders wrap around for the prefix
//!          they missed) and yielding the lease between chunks to
//!          cheaper waiting queries; a shorter one is the one-chunk
//!          case; candidate lists publish to their tickets
//!                           ▼
//!          execute_with_scans(physical plan, ticket, thread_cap = lease)
//!                           ▼
//!          QueryHandle { output, ExecReport, SchedInfo }   (+ cache insert)
//! ```
//!
//! * [`config`] — [`ServiceConfig`]: the machine, the thread budget, the
//!   queue and starvation bounds, shared scans, the cache budget, the
//!   elevator chunk size, tracing and the drift band, set in code;
//! * [`sched`] — the pure admission/budget state machine, which dispatches
//!   on every transition (deterministic unit tests and an exhaustive
//!   interleaving explorer live there);
//! * [`service`] — [`QueryService`], [`Session`], [`QueryHandle`], the
//!   single-flight table, the elevator runner, and [`quote_plan`];
//! * `shared` (internal) — the cooperative-scan board (pending wants →
//!   claimed passes → published lists, plus per-column elevator cursors)
//!   and the bounded LRU result cache keyed by normalized plan
//!   fingerprint;
//! * [`metrics`] — global and per-session counters (admission, collapse,
//!   shared-scan batches, saved scans, elevator attaches and preemptions,
//!   cache hits/misses/evictions) with latency percentiles from mergeable
//!   per-session [`obs::LogHistogram`]s.
//!
//! **Observability** ([`obs`]): with [`ServiceConfig::trace`] on
//! ([`obs::TraceMode::Ring`], or `File` to append JSONL), every submitted
//! query records a [`obs::QueryTrace`] — logically-timestamped lifecycle
//! events (admitted, queued, lease granted, chunk done, elevator attach,
//! preempted, collapsed, cache hit, shed, per-operator completion, failed,
//! delivered) — retrievable via [`QueryService::traces`]. A plan the
//! planner refuses is traced too: `Failed`, straight from the start.
//! Tracing runs kernels under the [`memsim`] simulator (sequentially;
//! results stay bit-identical), and the simulated counters feed the
//! cost-model drift observatory ([`QueryService::drift`]): per-shape EWMA
//! ratios of simulated-actual vs model-quoted time, flagged when they
//! leave [`ServiceConfig::drift_band`]. With tracing off (the default) the
//! submit path carries no observability state at all.
//!
//! **Determinism:** scheduling changes *when* and *how wide* a query runs,
//! never *what* it computes — the executor is bit-identical at every
//! thread count, a cooperative pass produces exactly the candidate lists
//! solo scans would at every chunk size (an elevator rider's per-chunk
//! partials concatenate, in row order, to the unchunked kernel's output),
//! and cached or collapsed results share deterministic executions — so any
//! mix of concurrent queries returns exactly the rows a sequential
//! one-thread run would (asserted by `tests/service_stress.rs` at the
//! workspace root).
//!
//! **Accounting, by construction:** every submission ends through one
//! finishing step, which books it in its session's row and closes its
//! trace. The global counters a session row also holds (`submitted`,
//! `completed`, `scans_saved` = Σ `scans_saved + runner_covered`, …) are
//! the rows' sums, so the two views cannot disagree on any path.

pub mod config;
pub mod dist;
pub mod metrics;
pub mod sched;
pub mod service;
mod shared;

pub use config::ServiceConfig;
pub use dist::{CopyId, CopyStats, PlacePolicy, PlacedRun, ShardCluster};
pub use metrics::{LatencySummary, ServiceMetrics, SessionMetrics};
pub use obs::TraceMode;
pub use sched::{Admission, Grant, Scheduler};
pub use service::{quote_plan, QueryHandle, QueryService, SchedInfo, Session};

use std::fmt;

/// Errors surfaced to a submitting session.
#[derive(Debug)]
pub enum ServiceError {
    /// The admission queue was full; the query was shed without running.
    Overloaded {
        /// The queue limit in force when the query was shed.
        queue_limit: usize,
    },
    /// The plan failed inside the executor.
    Engine(engine::EngineError),
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServiceError::Overloaded { queue_limit } => {
                write!(f, "service overloaded: admission queue full ({queue_limit} waiting)")
            }
            ServiceError::Engine(e) => write!(f, "execution failed: {e}"),
        }
    }
}

impl std::error::Error for ServiceError {}

impl From<engine::EngineError> for ServiceError {
    fn from(e: engine::EngineError) -> Self {
        ServiceError::Engine(e)
    }
}
