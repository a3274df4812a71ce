//! The shared-scan seam: describing a plan's scan leaves as data
//! ([`ScanRequest`]) and feeding externally produced candidate lists back
//! into execution ([`ScanTicket`]).
//!
//! A multi-query scheduler sees every admitted plan before it runs, which
//! makes same-column scan-selects *batchable*: one cooperative pass
//! ([`monet_core::scan::select`]) can evaluate every waiting
//! predicate leaf while streaming the column once. This module is the
//! engine half of that contract:
//!
//! * [`crate::physical::PhysicalPlan::requests`] lists one [`ScanRequest`]
//!   per shareable predicate leaf — the column's buffer identity
//!   ([`ColumnId`]), the leaf constant lowered to kernel form
//!   ([`SharedPred`], string equality already re-mapped to its dictionary
//!   code), and the leaf's global index within the plan.
//! * [`ScanTicket`] carries candidate lists produced elsewhere, keyed by
//!   that same global leaf index;
//!   [`crate::exec::execute_with_scans`] consumes them in place of
//!   evaluating the leaf, and is **bit-identical** to solo evaluation
//!   because the cooperative kernel visits tuples in the same scan order a
//!   solo scan-select does.
//!
//! Leaf indices count *every* predicate leaf of the plan (in-order within
//! each filter, filters in execution order), shareable or not. One walk,
//! [`crate::physical::plan`], numbers them for the requests and the
//! executor alike, so the two cannot drift.

use std::collections::HashMap;
use std::sync::Arc;

use monet_core::compress::CompressedColumn;
use monet_core::scan::ScanPred;
use monet_core::storage::{Bat, Codes, Column, Oid};

use crate::candidates::CandList;

/// Identity of a column's scanned buffer: address, length and byte width
/// of the underlying data. Tables are immutable, so two equal identities
/// always see the same bytes — the property that lets one query's pass
/// answer another query's predicate. (The identity is only meaningful
/// while the tables it came from are alive; a scheduler holds it no longer
/// than the queries borrowing those tables.)
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ColumnId {
    addr: usize,
    len: usize,
    width: usize,
}

/// The buffer identity of a BAT's tail (dictionary-encoded columns are
/// identified by their code buffer — the bytes a scan streams).
pub fn column_id(bat: &Bat) -> ColumnId {
    let (addr, len, width) = match bat.tail() {
        Column::U8(v) => (v.as_ptr() as usize, v.len(), 1),
        Column::U16(v) => (v.as_ptr() as usize, v.len(), 2),
        Column::I32(v) => (v.as_ptr() as usize, v.len(), 4),
        Column::I64(v) => (v.as_ptr() as usize, v.len(), 8),
        Column::F64(v) => (v.as_ptr() as usize, v.len(), 8),
        Column::Oid(v) => {
            (v.as_ptr() as usize, v.len(), std::mem::size_of::<monet_core::storage::Oid>())
        }
        Column::Str(sc) => match &sc.codes {
            Codes::U8(v) => (v.as_ptr() as usize, v.len(), 1),
            Codes::U16(v) => (v.as_ptr() as usize, v.len(), 2),
        },
    };
    ColumnId { addr, len, width }
}

/// A predicate leaf's constant in canonical, hashable form (`f64` bounds
/// by bit pattern; string equality as its dictionary code).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SharedPred {
    /// `lo <= x <= hi` over an `I32` column.
    RangeI32 {
        /// Inclusive lower bound.
        lo: i32,
        /// Inclusive upper bound.
        hi: i32,
    },
    /// `lo <= x <= hi` over an `F64` column, bounds as bit patterns.
    RangeF64 {
        /// `lo.to_bits()`.
        lo_bits: u64,
        /// `hi.to_bits()`.
        hi_bits: u64,
    },
    /// Dictionary-code equality over an encoded string column.
    EqCode {
        /// The constant's dictionary code.
        code: u32,
    },
}

impl From<ScanPred> for SharedPred {
    fn from(pred: ScanPred) -> Self {
        match pred {
            ScanPred::RangeI32 { lo, hi } => SharedPred::RangeI32 { lo, hi },
            ScanPred::RangeF64 { lo, hi } => {
                SharedPred::RangeF64 { lo_bits: lo.to_bits(), hi_bits: hi.to_bits() }
            }
            ScanPred::EqCode { code } => SharedPred::EqCode { code },
        }
    }
}

impl SharedPred {
    /// Back to the kernel's predicate form.
    pub fn kernel_pred(self) -> ScanPred {
        match self {
            SharedPred::RangeI32 { lo, hi } => ScanPred::RangeI32 { lo, hi },
            SharedPred::RangeF64 { lo_bits, hi_bits } => {
                ScanPred::RangeF64 { lo: f64::from_bits(lo_bits), hi: f64::from_bits(hi_bits) }
            }
            SharedPred::EqCode { code } => ScanPred::EqCode { code },
        }
    }
}

/// What makes two scan leaves mergeable: same column bytes, same predicate
/// constant. (Same key ⇒ identical candidate list.)
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ShareKey {
    /// The scanned buffer.
    pub col: ColumnId,
    /// The predicate constant.
    pub pred: SharedPred,
}

/// One shareable predicate leaf of a plan: everything a cooperative pass
/// needs to evaluate it, plus the leaf's global index for delivery.
#[derive(Debug, Clone, Copy)]
pub struct ScanRequest<'p> {
    /// Global leaf index within the plan (the [`ScanTicket`] key).
    pub leaf: usize,
    /// The column to stream — the *requesting* plan's own reference.
    pub bat: &'p Bat,
    /// The base table's name (reporting only).
    pub table: &'p str,
    /// The filtered column's name (reporting only).
    pub column: &'p str,
    /// Buffer identity (the merge key, with `pred`).
    pub col: ColumnId,
    /// The predicate constant in canonical form.
    pub pred: SharedPred,
    /// Tuples a pass over this column streams.
    pub rows: usize,
    /// Bytes per tuple in the scanned buffer.
    pub stride: usize,
    /// The column's compressed representation, when one exists and can
    /// evaluate this predicate directly — a cooperative pass may stream it
    /// instead of the uncompressed buffer (results are bit-identical).
    pub compressed: Option<&'p CompressedColumn>,
    /// First OID of the base table (the compressed kernels emit
    /// `seqbase + row`).
    pub seqbase: Oid,
    /// True when the column carries at least one index. An uncontended
    /// indexed leaf should stay with the executor's access planner (which
    /// may answer it without streaming at all) instead of being folded
    /// into an elevator pass.
    pub indexed: bool,
    /// True when the conjunction planner placed this leaf after the first
    /// leaf of its filter's order: it evaluates restricted to an earlier
    /// leaf's survivors, so a cooperative pass that streamed the full
    /// column for it would do work the plan avoids. Schedulers should leave
    /// restricted leaves off the board — which is also what lets a provided
    /// list stand in for its leaf without re-planning.
    pub restricted: bool,
}

impl ScanRequest<'_> {
    /// The merge key of this leaf.
    pub fn key(&self) -> ShareKey {
        ShareKey { col: self.col, pred: self.pred }
    }
}

/// Candidate lists produced outside the executor (by a cooperative pass),
/// keyed by global leaf index. [`crate::exec::execute_with_scans`] consumes
/// each entry in place of evaluating that leaf.
#[derive(Debug, Clone, Default)]
pub struct ScanTicket {
    leaves: HashMap<usize, Arc<CandList>>,
}

impl ScanTicket {
    /// An empty ticket (plain execution).
    pub fn new() -> Self {
        Self::default()
    }

    /// Provide leaf `leaf`'s candidate list. The list must be exactly what
    /// solo evaluation of that leaf produces (ascending OIDs in scan
    /// order) — the cooperative kernel guarantees this.
    pub fn provide(&mut self, leaf: usize, cands: Arc<CandList>) {
        self.leaves.insert(leaf, cands);
    }

    /// The provided list for a leaf, if any.
    pub fn get(&self, leaf: usize) -> Option<&Arc<CandList>> {
        self.leaves.get(&leaf)
    }
}
