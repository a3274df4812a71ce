#![warn(missing_docs)]

//! # obs — observability for the memory-bottleneck query service
//!
//! The paper's method is to *model* memory behavior, then hold execution
//! to the model. This crate is the holding-to part, three tools the
//! service threads through its submit path:
//!
//! * [`trace`] — per-query lifecycle traces: logically-timestamped event
//!   lists (admitted → queued → lease → elevator chunks → delivered, or
//!   the cache-hit / collapse / shed short-circuits) recorded into
//!   per-session ring buffers and exportable as JSONL to a file
//!   (`TraceMode::File`). A legal-lifecycle DFA
//!   ([`trace::validate_lifecycle`]) makes "every query has a complete
//!   story" a checkable invariant.
//! * [`drift`] — the cost-model drift observatory: per-
//!   [`costmodel::quote::ShapeKind`] EWMA ratios of simulated-actual vs
//!   model-quoted operator time, flagging kinds that leave a configured
//!   band. The feedback hook cost-driven placement/sharding will need.
//! * [`hist`] — mergeable log-bucketed histograms with bounded memory and
//!   a proven relative quantile error, replacing the service's
//!   sample-window percentiles; per-session histograms merge exactly into
//!   the global distribution.
//!
//! The crate is deliberately engine-agnostic: it depends only on
//! [`memsim`] (counters) and [`costmodel`] (shape kinds), so every layer
//! above can record into it without cycles.

pub mod drift;
pub mod hist;
pub mod trace;

pub use drift::{DriftMonitor, DriftReport, DriftRow, ShapeDrift};
pub use hist::{HistSummary, LogHistogram};
pub use trace::{
    validate_lifecycle, LifecycleError, QueryTrace, Terminal, TraceBuilder, TraceEntry, TraceEvent,
    TraceMode, TraceRing, TraceSink,
};
