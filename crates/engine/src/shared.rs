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
//! * [`scan_requests`] walks a validated [`LogicalPlan`] in **execution
//!   order** and emits one [`ScanRequest`] per shareable predicate leaf —
//!   the column's buffer identity ([`ColumnId`]), the leaf constant
//!   lowered to kernel form ([`SharedPred`], string equality already
//!   re-mapped to its dictionary code), and the leaf's global index within
//!   the plan.
//! * [`ScanTicket`] carries candidate lists produced elsewhere, keyed by
//!   that same global leaf index;
//!   [`crate::exec::execute_with_scans`] consumes them in place of
//!   evaluating the leaf, and is **bit-identical** to solo evaluation
//!   because the cooperative kernel visits tuples in the same scan order a
//!   solo scan-select does.
//!
//! Leaf indices count *every* predicate leaf of the plan (in-order within
//! each filter, filters in execution order), whether or not it is
//! shareable, so producers and the executor can never drift: both sides
//! derive the numbering from the same traversal.

use std::collections::HashMap;
use std::sync::Arc;

use monet_core::compress::CompressedColumn;
use monet_core::scan::ScanPred;
use monet_core::storage::{Bat, Codes, Column, DecomposedTable, Oid};

use crate::access::{is_pure_and, leaf_count, lower_leaf, PushdownMode};
use crate::plan::{LogicalPlan, PlanNode, Pred};
use crate::select::CandList;

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
    /// True when this leaf is a non-first in-order leaf of a multi-leaf
    /// pure-AND filter and candidate pushdown is on (the `pushdown` policy
    /// [`scan_requests`] was given): the executor's conjunction planner
    /// will evaluate it
    /// restricted to an earlier leaf's survivors, so a cooperative pass
    /// that streamed the full column for it would do work the solo plan
    /// avoids. Schedulers should leave restricted leaves off the board.
    pub restricted: bool,
}

impl ScanRequest<'_> {
    /// The merge key of this leaf.
    pub fn key(&self) -> ShareKey {
        ShareKey { col: self.col, pred: self.pred }
    }
}

/// The base table a filter's predicates read, when the subtree bottoms out
/// in a scan (builder-produced plans always do).
fn base_table<'p>(node: &'p PlanNode<'_>) -> Option<&'p DecomposedTable> {
    match node {
        PlanNode::Scan { table } => Some(table),
        PlanNode::Filter { input, .. } => base_table(input),
        _ => None,
    }
}

/// Emit one [`ScanRequest`] per shareable leaf of `plan`, numbering leaves
/// exactly as [`crate::exec::execute_with_scans`] does. Non-shareable
/// leaves (no base table, unscannable column type, or a dictionary-miss
/// equality — provably empty, nothing to stream) consume an index but emit
/// no request. `pushdown` is the policy the plan will execute under — it
/// decides which leaves are marked [`ScanRequest::restricted`].
pub fn scan_requests<'p>(
    plan: &'p LogicalPlan<'_>,
    pushdown: PushdownMode,
) -> Vec<ScanRequest<'p>> {
    let mut out = Vec::new();
    let mut leaf = 0usize;
    walk(&plan.root, pushdown, &mut leaf, &mut out);
    out
}

fn walk<'p>(
    node: &'p PlanNode<'_>,
    pushdown: PushdownMode,
    leaf: &mut usize,
    out: &mut Vec<ScanRequest<'p>>,
) {
    match node {
        PlanNode::Scan { .. } => {}
        PlanNode::Filter { input, pred } => {
            walk(input, pushdown, leaf, out);
            let table = base_table(input);
            // Leaves the conjunction planner will candidate-restrict: every
            // leaf but the first of a multi-leaf pure-AND filter. The first
            // in-order leaf stays shareable — when an elevator pass provides
            // it, the planner orders it first (it costs nothing) and pushes
            // its survivors through the rest.
            let mark = pushdown == PushdownMode::On && is_pure_and(pred) && leaf_count(pred) > 1;
            let first = *leaf;
            leaves_in_order(pred, &mut |p| {
                let idx = *leaf;
                *leaf += 1;
                if let Some(t) = table {
                    if let Some(mut req) = request_for(t, p, idx) {
                        req.restricted = mark && idx > first;
                        out.push(req);
                    }
                }
            });
        }
        PlanNode::Join { input, right, .. } => {
            walk(input, pushdown, leaf, out);
            walk(right, pushdown, leaf, out);
        }
        PlanNode::GroupAgg { input, .. } => walk(input, pushdown, leaf, out),
    }
}

/// In-order traversal over a predicate's leaves — the same order
/// [`crate::access`] plans and evaluates them in.
fn leaves_in_order<'p>(pred: &'p Pred, f: &mut impl FnMut(&'p Pred)) {
    match pred {
        Pred::And(a, b) | Pred::Or(a, b) => {
            leaves_in_order(a, f);
            leaves_in_order(b, f);
        }
        leaf => f(leaf),
    }
}

/// The request for one leaf against its base table, if it is shareable.
fn request_for<'p>(
    table: &'p DecomposedTable,
    leaf: &'p Pred,
    idx: usize,
) -> Option<ScanRequest<'p>> {
    // A dictionary miss is provably empty: nothing to stream, the executor
    // yields zero rows for free.
    let (col, Some(kernel)) = lower_leaf(table, leaf).ok()? else { return None };
    let bat = table.bat(col).ok()?;
    // The predicate type was validated against the column at plan build;
    // the kernel re-checks anyway.
    let compressed = table.compressed_of(col).filter(|cc| cc.supports(&kernel));
    Some(ScanRequest {
        leaf: idx,
        bat,
        table: table.name(),
        column: col,
        col: column_id(bat),
        pred: kernel.into(),
        rows: bat.len(),
        stride: bat.tail().tail_width(),
        compressed,
        seqbase: table.seqbase(),
        indexed: table.indexes_on(col).next().is_some(),
        restricted: false,
    })
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

    /// Number of provided leaves.
    pub fn len(&self) -> usize {
        self.leaves.len()
    }

    /// True when no leaf is provided.
    pub fn is_empty(&self) -> bool {
        self.leaves.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{Agg, Query};
    use monet_core::storage::{ColType, TableBuilder, Value};

    fn table(name: &str) -> monet_core::storage::DecomposedTable {
        let mut b = TableBuilder::new(name, 0)
            .column("qty", ColType::I32)
            .column("price", ColType::F64)
            .column("mode", ColType::Str);
        for i in 0..100i32 {
            b.push_row(&[
                Value::I32(i % 10),
                Value::F64(i as f64),
                Value::from(["AIR", "MAIL"][i as usize % 2]),
            ])
            .unwrap();
        }
        b.finish()
    }

    #[test]
    fn leaves_are_numbered_in_execution_order_across_filters_and_joins() {
        let t = table("fact");
        let mut b = TableBuilder::new("dim", 0).column("id", ColType::I32);
        for i in 0..10i32 {
            b.push_row(&[Value::I32(i)]).unwrap();
        }
        let dim = b.finish();
        let plan = Query::scan(&t)
            .filter(Pred::range_i32("qty", 1, 5).and(Pred::eq_str("mode", "AIR")))
            .join(&dim, ("qty", "id"))
            .agg(Agg::count())
            .build()
            .unwrap();
        let reqs = scan_requests(&plan, PushdownMode::On);
        assert_eq!(reqs.len(), 2);
        assert_eq!(reqs[0].leaf, 0);
        assert_eq!(reqs[0].column, "qty");
        assert!(matches!(reqs[0].pred, SharedPred::RangeI32 { lo: 1, hi: 5 }));
        assert_eq!(reqs[1].leaf, 1);
        assert_eq!(reqs[1].column, "mode");
        assert!(matches!(reqs[1].pred, SharedPred::EqCode { .. }));
        assert_ne!(reqs[0].key(), reqs[1].key());
        assert_eq!(reqs[0].rows, 100);
        assert_eq!(reqs[0].stride, 4);
        assert_eq!(reqs[1].stride, 1, "2-value dictionary encodes in one byte");
        // qty spans 0..10 in one frame: a FOR representation rides along.
        let cc = reqs[0].compressed.expect("small-range i32 column compresses");
        assert!(cc.bits_per_value() < 32.0);
        assert_eq!(reqs[0].seqbase, 0);
        // The f64-free request set still lowers the dict column: packed codes.
        assert!(reqs[1].compressed.is_some(), "2-entry dictionary packs to 1 bit");
        assert!(!reqs[0].indexed, "no index on qty yet");
    }

    #[test]
    fn indexed_columns_are_flagged() {
        let mut t = table("fact");
        t.create_index("qty", monet_core::IndexKind::CsBTree).unwrap();
        let plan = Query::scan(&t)
            .filter(Pred::range_i32("qty", 1, 5).and(Pred::eq_str("mode", "AIR")))
            .build()
            .unwrap();
        let reqs = scan_requests(&plan, PushdownMode::On);
        assert!(reqs[0].indexed, "qty carries a btree");
        assert!(!reqs[1].indexed, "mode does not");
    }

    #[test]
    fn same_column_same_constant_share_a_key_across_plans() {
        let t = table("fact");
        let p1 = Query::scan(&t).filter(Pred::range_i32("qty", 2, 4)).build().unwrap();
        let p2 = Query::scan(&t)
            .filter(Pred::range_i32("qty", 2, 4))
            .group_by("mode")
            .agg(Agg::sum("price"))
            .build()
            .unwrap();
        let (r1, r2) = (scan_requests(&p1, PushdownMode::On), scan_requests(&p2, PushdownMode::On));
        assert_eq!(r1[0].key(), r2[0].key(), "identical predicates on one table merge");
        // A different table with identical data does NOT merge: distinct
        // buffers, distinct identities.
        let t2 = table("fact");
        let p3 = Query::scan(&t2).filter(Pred::range_i32("qty", 2, 4)).build().unwrap();
        assert_ne!(r1[0].key(), scan_requests(&p3, PushdownMode::On)[0].key());
    }

    #[test]
    fn later_and_leaves_are_marked_restricted() {
        let t = table("fact");
        let plan = Query::scan(&t)
            .filter(Pred::range_i32("qty", 1, 5).and(Pred::eq_str("mode", "AIR")))
            .build()
            .unwrap();
        let reqs = scan_requests(&plan, PushdownMode::On);
        assert!(!reqs[0].restricted, "first in-order leaf stays shareable");
        assert!(reqs[1].restricted, "the pushdown planner will restrict this leaf");
        // The mark follows the policy the plan executes under.
        assert!(scan_requests(&plan, PushdownMode::Off).iter().all(|r| !r.restricted));
        // OR trees are never reordered: every leaf runs its full pass.
        let plan = Query::scan(&t)
            .filter(Pred::range_i32("qty", 1, 5).or(Pred::eq_str("mode", "AIR")))
            .build()
            .unwrap();
        assert!(scan_requests(&plan, PushdownMode::On).iter().all(|r| !r.restricted));
        // Single-leaf filters have nothing to push into.
        let plan = Query::scan(&t).filter(Pred::range_i32("qty", 1, 5)).build().unwrap();
        assert!(!scan_requests(&plan, PushdownMode::On)[0].restricted);
    }

    #[test]
    fn dictionary_misses_consume_an_index_but_emit_no_request() {
        let t = table("fact");
        let plan = Query::scan(&t)
            .filter(Pred::eq_str("mode", "WALRUS").or(Pred::range_i32("qty", 0, 3)))
            .build()
            .unwrap();
        let reqs = scan_requests(&plan, PushdownMode::On);
        assert_eq!(reqs.len(), 1, "the miss leaf is provably empty");
        assert_eq!(reqs[0].leaf, 1, "the surviving leaf keeps its in-order index");
    }
}
