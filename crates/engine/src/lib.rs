#![warn(missing_docs)]

//! # engine — query operators over BATs (§3.2)
//!
//! The operator repertoire §3.2 analyses, implemented over the vertically
//! decomposed storage of `monet-core`:
//!
//! * [`select`] — scan selections (optimal locality), including the §3.1
//!   byte-encoded fast path where a string predicate is re-mapped once to a
//!   code comparison;
//! * [`access`] — per-predicate access-path selection: the executor weighs
//!   each scan against the table's attached §3.2 indexes (CsBTree, hash,
//!   T-tree) with [`costmodel::access`], pinnable via `MONET_ACCESS`;
//! * [`aggregate`] — gather-and-fold: `SUM`/`MIN`/`MAX`/`COUNT`, ungrouped
//!   or hash-grouped (the cache-friendly choice when the group count is
//!   small, per §3.2), accumulated in one block-at-a-time pass over a
//!   stream's survivors — a whole table, a candidate list or a join index —
//!   with no survivor-length intermediate;
//! * [`candidates`] — AND/OR combinators over candidate OID lists;
//! * [`join`] — dispatch from BATs to the radix join kernels, including the
//!   void-head positional fast path that "effectively eliminat\[es\] all join
//!   cost" for tuple-reconstruction joins;
//! * [`reconstruct`] — positional tuple reconstruction from candidate OIDs;
//! * [`shared`] — the shared-scan seam: plans describe their scan leaves as
//!   [`shared::ScanRequest`]s, and [`exec::execute_with_scans`] consumes
//!   candidate lists a cooperative pass produced elsewhere
//!   ([`shared::ScanTicket`]), bit-identical to solo evaluation;
//! * [`plan`] — the **logical layer**: a fluent [`plan::Query`] builder with
//!   typed predicates/aggregates, validated into a [`plan::LogicalPlan`];
//! * [`exec`] — the **physical layer**: lowers logical plans onto the
//!   kernels, choosing join algorithm, radix bits *and degree of
//!   parallelism* from the paper's cost model
//!   ([`costmodel::plan::best_plan`], [`costmodel::parallel`]) and returning
//!   an [`exec::ExecReport`] with per-operator rows and simulated miss
//!   counts; parallel execution is bit-identical to sequential;
//! * [`dist`] — **sharded execution**: lowers one logical plan onto the hash
//!   shards of a [`monet_core::shard::ShardedTable`] (one stream plan per
//!   shard plus a coordinator merge) with results bit-identical to the
//!   unsharded run at any shard count — including `f64` sum bits.
//!
//! Scan-shaped operators are generic over [`memsim::MemTracker`] so the
//! examples can show their stride behaviour on the simulated Origin2000.

pub mod access;
pub mod aggregate;
pub mod candidates;
pub mod dist;
pub mod exec;
pub mod join;
pub mod plan;
pub mod reconstruct;
pub mod select;
pub mod shared;

pub use access::{AccessDecision, AccessMode, CompressMode, PushdownMode};
pub use dist::{execute_shard, execute_sharded, lower, merge, Lowered, ShardPartial};
pub use exec::{
    execute, execute_with_scans, AccessNote, ExecOptions, ExecReport, Executed, OpReport, Planner,
    QueryOutput, Threads,
};
pub use join::{join_bats, JoinIndex};
pub use plan::{Agg, LogicalPlan, PlanError, Pred, Query};
pub use shared::{scan_requests, ScanRequest, ScanTicket, ShareKey};

use monet_core::storage::StorageError;
use std::fmt;

/// Errors from engine operators.
#[derive(Debug, Clone, PartialEq)]
pub enum EngineError {
    /// Underlying storage error.
    Storage(StorageError),
    /// Operator applied to a column type it does not support.
    UnsupportedType {
        /// The operator.
        op: &'static str,
        /// The offending column type.
        ty: monet_core::storage::ValueType,
    },
    /// A selection constant does not occur in the dictionary (the selection
    /// result is provably empty; callers may treat this as non-fatal — the
    /// plan executor ([`exec`]) does, yielding zero rows).
    ConstantNotInDictionary(String),
    /// A plan failed validation in the logical layer.
    Plan(plan::PlanError),
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::Storage(e) => write!(f, "storage error: {e}"),
            EngineError::UnsupportedType { op, ty } => {
                write!(f, "{op} does not support {ty:?} columns")
            }
            EngineError::ConstantNotInDictionary(s) => {
                write!(f, "constant {s:?} not in dictionary")
            }
            EngineError::Plan(e) => write!(f, "invalid plan: {e}"),
        }
    }
}

impl std::error::Error for EngineError {}

impl From<StorageError> for EngineError {
    fn from(e: StorageError) -> Self {
        EngineError::Storage(e)
    }
}

impl From<plan::PlanError> for EngineError {
    fn from(e: plan::PlanError) -> Self {
        EngineError::Plan(e)
    }
}
