//! The physical plan: the one walk over a [`LogicalPlan`] that makes every
//! decision known before execution, for admission to quote and the
//! executor to run.
//!
//! [`plan`] numbers the predicate leaves (in-order within each filter,
//! filters in execution order — the key of a
//! [`ScanTicket`](crate::shared::ScanTicket)), plans each filter's access
//! paths and conjunction order once ([`crate::access`]), lists the
//! shareable leaves as [`ScanRequest`]s, picks the join's algorithm and
//! radix bits from the paper's cost model at the planner's inner
//! cardinality ([`costmodel::plan::plan_join`]), resolves the fold's
//! columns, and emits each operator's [`OpShape`]s at the planner's
//! cardinalities. The result is a list of operators in execution order,
//! each carrying its decisions, which
//! [`execute_with_scans`](crate::exec::execute_with_scans) runs as they
//! stand. Only thread counts are decided at run time, on actual rows and
//! under the leased ceiling.

use costmodel::plan::plan_join;
use costmodel::quote::{quote_ops, OpShape, QueryQuote};
use costmodel::scan::Select;
use costmodel::ModelMachine;
use memsim::{EventCounters, MemTracker};
use monet_core::storage::{Bat, DecomposedTable};
use monet_core::strategy::JoinPlan;

use crate::access::{leaves_of, lower_leaf, plan_pred, CompressMode, PredPlan};
use crate::aggregate::{gathers, Input, Sink};
use crate::exec::{agg_sinks, base_tables, delta, input_of, ExecOptions};
use crate::plan::{Agg, LogicalPlan, PlanError, PlanNode, Pred};
use crate::shared::{column_id, ScanRequest};
use crate::EngineError;

/// A [`LogicalPlan`] with its physical decisions made: see the
/// [module docs](self).
#[derive(Debug, Clone)]
pub struct PhysicalPlan<'p> {
    /// The policy it was planned under, and runs under.
    pub(crate) opts: ExecOptions,
    /// The operators, in execution order — the order of the report's ops.
    pub(crate) ops: Vec<Op<'p>>,
    requests: Vec<ScanRequest<'p>>,
}

/// One planned operator. Each reads the streams the operators before it
/// left: a scan adds a table stream, a filter narrows the last one, a join
/// meets the last two, and the fold consumes the last one.
#[derive(Debug, Clone)]
pub(crate) enum Op<'p> {
    /// A base table, read in place.
    Scan(&'p DecomposedTable),
    Filter(Filter<'p>),
    Join(Join<'p>),
    Fold(Fold<'p>),
}

/// One planned filter.
#[derive(Debug, Clone)]
pub(crate) struct Filter<'p> {
    pub pred: &'p Pred,
    /// The global index of its first leaf.
    pub first_leaf: usize,
    pub plan: PredPlan,
    /// What planning charged the tracker (B+-tree count probes), booked to
    /// the filter's operator.
    pub planning: Option<EventCounters>,
}

/// The planned join of the outer (left) stream with the inner (right) one.
#[derive(Debug, Clone)]
pub(crate) struct Join<'p> {
    pub left_col: &'p str,
    pub right_col: &'p str,
    pub left: &'p Bat,
    pub right: &'p Bat,
    /// Algorithm, radix bits and pass layout.
    pub plan: JoinPlan,
    /// Whether the index is put in canonical `(left, right)` order: a
    /// returned index is, a folded one is not — every sink folds exactly,
    /// so a fold observes no row order.
    pub canonical: bool,
    /// The planner's cardinalities of the outer and inner sides.
    pub outer: usize,
    pub inner: usize,
}

/// The planned aggregation at the plan's root.
#[derive(Debug, Clone)]
pub(crate) struct Fold<'p> {
    /// The group key's name and column, when grouped.
    pub key: Option<(&'p str, Input<'p>)>,
    pub aggs: &'p [Agg],
    pub sinks: Vec<(Input<'p>, Sink)>,
    /// Columns gathered per row (0 when the stream is a whole table, which
    /// is folded where it lies).
    pub gathered: usize,
    /// The planner's cardinality of the stream.
    pub rows: usize,
}

impl Fold<'_> {
    /// The shapes of folding `rows` stream rows: the gathers, then the
    /// accumulation.
    pub fn shapes(&self, rows: usize) -> Vec<OpShape> {
        let mut shapes = vec![OpShape::Gather { rows }; self.gathered];
        let (columns, grouped) = (self.sinks.len(), self.key.is_some());
        shapes.push(OpShape::Aggregate { rows, columns, grouped });
        shapes
    }
}

impl Op<'_> {
    /// The operator's shapes at the planner's cardinalities.
    fn shapes(&self) -> Vec<OpShape> {
        match self {
            Op::Scan(_) => Vec::new(),
            Op::Filter(f) => f.plan.shapes(),
            Op::Join(j) => vec![OpShape::join(j.outer, j.inner, &j.plan)],
            Op::Fold(f) => f.shapes(f.rows),
        }
    }
}

/// Plan `plan` under `opts`. Selectivity estimates that probe a B+-tree
/// are charged to `trk`.
pub fn plan<'p, M: MemTracker>(
    trk: &mut M,
    plan: &'p LogicalPlan<'_>,
    opts: &ExecOptions,
) -> Result<PhysicalPlan<'p>, EngineError> {
    let mut physical = PhysicalPlan { opts: *opts, ops: Vec::new(), requests: Vec::new() };
    let model = ModelMachine::new(&opts.machine);
    physical.walk(trk, &model, &plan.root, &mut 0)?;
    Ok(physical)
}

impl<'p> PhysicalPlan<'p> {
    /// Plan `node`'s operators; returns the rows it is estimated to pass on.
    fn walk<M: MemTracker>(
        &mut self,
        trk: &mut M,
        model: &ModelMachine,
        node: &'p PlanNode<'p>,
        leaves: &mut usize,
    ) -> Result<f64, EngineError> {
        Ok(match node {
            PlanNode::Scan { table } => {
                self.ops.push(Op::Scan(table));
                table.len() as f64
            }
            PlanNode::Filter { input, pred } => {
                let rows = self.walk(trk, model, input, leaves)?;
                let (table, None) = base_tables(input)? else {
                    return Err(EngineError::Plan(PlanError::Unsupported(
                        "filter over a join result",
                    )));
                };
                let before = trk.counters_snapshot();
                let ExecOptions { access, compress, pushdown, .. } = self.opts;
                let plan = plan_pred(trk, table, pred, access, compress, pushdown, model)?;
                let planning = delta(trk, before);
                let (first_leaf, preds) = (*leaves, leaves_of(pred));
                *leaves += preds.len();
                for (i, leaf) in preds.into_iter().enumerate() {
                    // A dictionary miss is provably empty: nothing to stream.
                    let (col, Some(kernel)) = lower_leaf(table, leaf)? else { continue };
                    let bat = table.bat(col)?;
                    self.requests.push(ScanRequest {
                        leaf: first_leaf + i,
                        bat,
                        table: table.name(),
                        column: col,
                        col: column_id(bat),
                        pred: kernel.into(),
                        rows: bat.len(),
                        stride: bat.tail().tail_width(),
                        compressed: table.compressed_of(col).filter(|cc| cc.supports(&kernel)),
                        seqbase: table.seqbase(),
                        indexed: table.indexes_on(col).next().is_some(),
                        restricted: plan.order().is_some_and(|order| order[0] != i),
                    });
                }
                let survivors = rows * plan.selectivity(pred, table.len());
                self.ops.push(Op::Filter(Filter { pred, first_leaf, plan, planning }));
                survivors
            }
            PlanNode::Join { input, right, left_col, right_col } => {
                let outer = self.walk(trk, model, input, leaves)?;
                let inner = self.walk(trk, model, right, leaves)?;
                let (lt, Some(rt)) = base_tables(node)? else {
                    unreachable!("a join has two sides")
                };
                let (o, i) = (outer.round() as usize, inner.round() as usize);
                // The algorithm and radix bits follow the inner side: the
                // cache residency of the build side is what the paper's
                // strategies key on.
                let (plan, _) = plan_join(&self.opts.machine, i);
                self.ops.push(Op::Join(Join {
                    left_col,
                    right_col,
                    left: lt.bat(left_col)?,
                    right: rt.bat(right_col)?,
                    plan,
                    canonical: true,
                    outer: o,
                    inner: i,
                }));
                // Each outer row meets its one partner among the dimension's
                // rows, which survive the inner side's filters.
                outer * inner / rt.len().max(1) as f64
            }
            PlanNode::GroupAgg { input, key, aggs } => {
                let rows = self.walk(trk, model, input, leaves)?;
                let (lt, rt) = base_tables(input)?;
                let sinks = agg_sinks(|col| input_of(lt, rt, col), aggs)?;
                let key = match key {
                    Some(k) => Some((k.as_str(), input_of(lt, rt, k)?)),
                    None => None,
                };
                // An unrestricted scan is folded where it lies.
                let gathered = match **input {
                    PlanNode::Scan { .. } => 0,
                    _ => gathers(&sinks, key.is_some()),
                };
                // The fold observes no row order: a join it consumes passes
                // its index on in the cluster order it produced.
                if let Some(Op::Join(join)) = self.ops.last_mut() {
                    join.canonical = false;
                }
                let rows_est = rows.round() as usize;
                self.ops.push(Op::Fold(Fold { key, aggs, sinks, gathered, rows: rows_est }));
                rows
            }
        })
    }

    /// Every predicate leaf with a column to stream (a dictionary miss has
    /// none), in leaf order.
    pub fn requests(&self) -> &[ScanRequest<'p>] {
        &self.requests
    }

    /// The join's algorithm, radix bits and pass layout, if the plan joins.
    pub fn join_plan(&self) -> Option<&JoinPlan> {
        self.ops.iter().find_map(|op| match op {
            Op::Join(j) => Some(&j.plan),
            _ => None,
        })
    }

    /// Each operator's shapes at the planner's cardinalities: what the
    /// report's [`crate::exec::OpReport::shapes`] holds after the run.
    pub fn shapes(&self) -> Vec<Vec<OpShape>> {
        self.ops.iter().map(Op::shapes).collect()
    }

    /// The whole-query quote on the plan's machine: every shape, plus each
    /// index leaf at its predicted cost. Where `covered` returns
    /// `Some(missed)` for a leaf's global index, the leaf rides a
    /// cooperative pass that had streamed `missed` rows when the query
    /// could board: it is priced as that pass's marginal work, at the width
    /// the pass streams.
    pub fn quote(&self, covered: impl Fn(usize) -> Option<usize>) -> QueryQuote {
        let (mut shapes, mut probe_ns, mut probes) = (Vec::new(), 0.0, 0);
        for op in &self.ops {
            let Op::Filter(f) = op else {
                shapes.extend(op.shapes());
                continue;
            };
            for (i, (select, ms)) in f.plan.priced().enumerate() {
                let leaf = f.first_leaf + i;
                let pass = self.requests.iter().find(|r| r.leaf == leaf);
                match (pass.and_then(|r| Some((r, covered(leaf)?))), select) {
                    (Some((r, missed)), _) => {
                        let cc = r.compressed.filter(|_| self.opts.compress != CompressMode::Off);
                        let fresh = cc.map_or(Select::plain(r.rows, r.stride), |cc| {
                            Select::packed(r.rows, cc.bits_per_value())
                        });
                        shapes.push(OpShape::Select(Select { covered: Some(missed), ..fresh }));
                    }
                    (None, Some(select)) => shapes.push(OpShape::Select(select)),
                    // An index probe; a provably empty leaf runs nothing.
                    (None, None) if ms > 0.0 => {
                        probe_ns += ms * 1e6;
                        probes += 1;
                    }
                    (None, None) => {}
                }
            }
        }
        let quote = quote_ops(&self.opts.machine, &shapes);
        QueryQuote { seq_ns: quote.seq_ns + probe_ns, ops: quote.ops + probes, ..quote }
    }

    /// The same plan, run under a per-operator thread ceiling (a lease).
    pub fn with_thread_cap(mut self, cap: usize) -> Self {
        self.opts = self.opts.with_thread_cap(cap);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::access::PushdownMode;
    use crate::plan::{Agg, Query};
    use crate::shared::SharedPred;
    use memsim::NullTracker;
    use monet_core::storage::{ColType, DecomposedTable, TableBuilder, Value};

    fn table(name: &str) -> DecomposedTable {
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

    fn requests<'p>(plan: &'p LogicalPlan<'_>, pushdown: PushdownMode) -> Vec<ScanRequest<'p>> {
        let opts = ExecOptions::default().with_pushdown(pushdown);
        super::plan(&mut NullTracker, plan, &opts).unwrap().requests().to_vec()
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
        let reqs = requests(&plan, PushdownMode::On);
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
        assert!(reqs[1].compressed.is_some(), "2-entry dictionary packs to 1 bit");
        assert!(!reqs[0].indexed, "no index on qty yet");
        // One shape list per operator: scan, select, scan, join, aggregate.
        let physical = plan_of(&plan);
        let kinds: Vec<usize> = physical.shapes().iter().map(Vec::len).collect();
        assert_eq!(kinds, [0, 2, 0, 1, 1]);
    }

    fn plan_of<'p>(plan: &'p LogicalPlan<'_>) -> PhysicalPlan<'p> {
        super::plan(&mut NullTracker, plan, &ExecOptions::default()).unwrap()
    }

    #[test]
    fn indexed_columns_are_flagged() {
        let mut t = table("fact");
        t.create_index("qty", monet_core::IndexKind::CsBTree).unwrap();
        let plan = Query::scan(&t)
            .filter(Pred::range_i32("qty", 1, 5).and(Pred::eq_str("mode", "AIR")))
            .build()
            .unwrap();
        let reqs = requests(&plan, PushdownMode::On);
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
        let (r1, r2) = (requests(&p1, PushdownMode::On), requests(&p2, PushdownMode::On));
        assert_eq!(r1[0].key(), r2[0].key(), "identical predicates on one table merge");
        // A different table with identical data does NOT merge: distinct
        // buffers, distinct identities.
        let t2 = table("fact");
        let p3 = Query::scan(&t2).filter(Pred::range_i32("qty", 2, 4)).build().unwrap();
        assert_ne!(r1[0].key(), requests(&p3, PushdownMode::On)[0].key());
    }

    #[test]
    fn leaves_after_the_first_of_the_planned_order_are_restricted() {
        let t = table("fact");
        // `mode = AIR` keeps half the rows, `qty = 7` a tenth: the planner
        // leads with the later leaf, and only it stays shareable.
        let plan = Query::scan(&t)
            .filter(Pred::eq_str("mode", "AIR").and(Pred::range_i32("qty", 7, 7)))
            .build()
            .unwrap();
        let physical = plan_of(&plan);
        let order = physical.ops.iter().find_map(|op| match op {
            Op::Filter(f) => f.plan.order(),
            _ => None,
        });
        let order = order.unwrap().to_vec();
        let restricted: Vec<bool> = physical.requests().iter().map(|r| r.restricted).collect();
        assert_eq!(order, [1, 0]);
        assert_eq!(restricted, [true, false]);
        // The mark follows the policy the plan executes under.
        assert!(requests(&plan, PushdownMode::Off).iter().all(|r| !r.restricted));
        // OR trees are never reordered: every leaf runs its full pass.
        let plan = Query::scan(&t)
            .filter(Pred::range_i32("qty", 1, 5).or(Pred::eq_str("mode", "AIR")))
            .build()
            .unwrap();
        assert!(requests(&plan, PushdownMode::On).iter().all(|r| !r.restricted));
        // Single-leaf filters have nothing to push into.
        let plan = Query::scan(&t).filter(Pred::range_i32("qty", 1, 5)).build().unwrap();
        assert!(!requests(&plan, PushdownMode::On)[0].restricted);
    }

    #[test]
    fn dictionary_misses_consume_an_index_but_emit_no_request() {
        let t = table("fact");
        let plan = Query::scan(&t)
            .filter(Pred::eq_str("mode", "WALRUS").or(Pred::range_i32("qty", 0, 3)))
            .build()
            .unwrap();
        let reqs = requests(&plan, PushdownMode::On);
        assert_eq!(reqs.len(), 1, "the miss leaf is provably empty");
        assert_eq!(reqs[0].leaf, 1, "the surviving leaf keeps its in-order index");
    }

    #[test]
    fn coverage_prices_a_leaf_as_its_pass_marginal_work() {
        let t = table("fact");
        let plan = Query::scan(&t).filter(Pred::range_f64("price", 1.0, 50.0)).build().unwrap();
        let physical = plan_of(&plan);
        let (fresh, covered) = (physical.quote(|_| None), physical.quote(|_| Some(0)));
        assert!(covered.seq_ns < fresh.seq_ns, "{covered:?} vs {fresh:?}");
        assert_eq!(covered.items, 0, "the covering pass owns the divisible work");
        assert_eq!(physical.quote(|leaf| (leaf == 1).then_some(0)), fresh, "only leaf 0 exists");
    }

    #[test]
    fn hand_built_shapes_the_executor_rejects_are_rejected_at_planning() {
        let t = table("fact");
        let inner = Query::scan(&t).group_by("mode").agg(Agg::count()).build().unwrap();
        let bad = LogicalPlan {
            root: PlanNode::Filter {
                input: Box::new(inner.root),
                pred: Pred::range_i32("qty", 0, 1),
            },
        };
        let err = super::plan(&mut NullTracker, &bad, &ExecOptions::default()).unwrap_err();
        assert_eq!(
            err,
            EngineError::Plan(PlanError::Unsupported("aggregation below another operator"))
        );
    }
}
