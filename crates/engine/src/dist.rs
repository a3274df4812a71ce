//! Sharded (distributed) execution of logical plans.
//!
//! [`lower`] splits one [`LogicalPlan`] into `S` shard-local *stream* plans
//! over a [`ShardedTable`]'s shards (the root `GroupAgg`, when present, is
//! held back for the coordinator), [`execute_shard`] plans one shard plan
//! and [`run_shard`]s it through the stock executor, reducing its stream to
//! a [`ShardPartial`],
//! and [`merge`] deterministically combines the partials into exactly the
//! output the unsharded run produces — **bit-identical**, including the
//! floating-point bits of every `f64` sum, at any shard count × thread
//! count.
//!
//! The staging is deliberate: a placement layer (see `service`) can quote
//! each shard plan's physical plan per replica, lease threads per shard
//! task, and [`run_shard`] the plan it placed wherever the cost model
//! routes it; only [`merge`] must see all partials.
//!
//! # Why the merge is exact
//!
//! A shard ships only what its merge shape consumes:
//!
//! * **Aggregates** fold exactly on the shard — `COUNT`, integer `SUM`
//!   (i64) and `MIN`/`MAX` in integers, every `f64` sum in an
//!   [`ExactSum`](crate::exact::ExactSum) — so a shard ships one
//!   accumulator per aggregate (per group code when grouped) and **no rows
//!   at all**. The coordinator combines them per group code: integer
//!   arithmetic, and accumulator merges, give the same totals in any shard
//!   order, and an `f64` sum is rounded once, when the merged result is
//!   read — the bits of the unsharded fold, whose sum is rounded once too.
//!   An aggregate root merges in time independent of the stream.
//! * **Stream roots** ship their rows, and every shard run arrives
//!   **strictly ascending** in one global sort key: shard tables are
//!   rebased to seqbase 0 with monotone local→global OID maps and the
//!   executor emits streams in ascending local order, so mapping a shard's
//!   stream to global keys needs no sort on the shard. The coordinator
//!   then makes **one streaming pass with `S` cursors** (`merge_runs`):
//!   each step takes the smallest of the live run heads, an exhausted run
//!   drops out, the last live run is drained as a slice. Keys are unique
//!   (global OIDs, global pairs), so this visits rows in exactly the order
//!   a sort of the concatenated runs would — without the concatenation, the
//!   `n log n` comparisons or the second pass over the sorted copy.
//!   * **Selections** ship their global OIDs; the cursor pass pushes them
//!     into one pre-sized list — the unsharded ascending OID list.
//!   * **Joins** ship their global pairs packed as `(left << 32) | right`.
//!     The executor returns a join index in canonical `(left, right)` order
//!     (a shard plan of a join ends in the join, so its index is
//!     returned), and a join whose sides are co-partitioned on the join
//!     keys puts every matching pair inside one shard (equal keys hash to
//!     the same shard), so the union of per-shard pair sets *is* the global
//!     pair set and the cursor pass reproduces the canonical order.
//! * **Dictionaries** — shard string columns share the parent's dictionary
//!   ([`monet_core::shard`]), so group codes are globally consistent and a
//!   merge ascending by code reproduces the unsharded group order.

use costmodel::quote::OpShape;
use memsim::{EventCounters, MemTracker};
use monet_core::join::OidPair;
use monet_core::shard::{ShardedTable, TableShard};
use monet_core::storage::{DecomposedTable, Oid};

use crate::aggregate::{fold, Folded, Input, Rows, Sink};
use crate::exec::{
    agg_output, agg_sinks, base_tables, delta, execute_with_scans, input_of, ExecOptions,
    ExecReport, Executed, OpReport, QueryOutput,
};
use crate::physical::PhysicalPlan;
use crate::plan::{Agg, LogicalPlan, PlanError, PlanNode};
use crate::shared::ScanTicket;
use crate::EngineError;

/// How the coordinator turns shard partials into the final output.
#[derive(Debug, Clone)]
enum MergeShape {
    /// Stream of table rows: cursor merge of ascending global OID runs.
    Oids,
    /// Stream of join pairs: cursor merge in canonical `(left, right)` order.
    Pairs,
    /// Root aggregation, grouped by `key` when present.
    Agg { key: Option<String>, aggs: Vec<Agg> },
}

/// Per-shard table references for OID mapping and partial folds.
struct ShardCtx<'a> {
    left: &'a TableShard,
    right: Option<&'a TableShard>,
}

impl<'a> ShardCtx<'a> {
    /// The shard's column `col` and the side of a join pair that addresses
    /// it.
    fn input(&self, col: &str) -> Result<Input<'a>, EngineError> {
        input_of(&self.left.table, self.right.map(|r| &r.table), col)
    }
}

/// A plan lowered onto a set of sharded tables: one stream plan per shard
/// plus the merge recipe.
pub struct Lowered<'a> {
    /// The shard-local stream plans, in shard order. Each is an ordinary
    /// [`LogicalPlan`] over that shard's tables — quotable by
    /// `costmodel::quote` and executable by [`crate::exec::execute`] anywhere.
    pub plans: Vec<LogicalPlan<'a>>,
    ctx: Vec<ShardCtx<'a>>,
    merge: MergeShape,
}

impl Lowered<'_> {
    /// Number of shards this plan was lowered onto.
    pub fn shard_count(&self) -> usize {
        self.plans.len()
    }
}

/// Rebuild `node` with every base-table reference substituted by the shard
/// table registered under the same name.
fn subst<'a>(node: &PlanNode<'a>, map: &[(&str, &'a DecomposedTable)]) -> PlanNode<'a> {
    match node {
        PlanNode::Scan { table } => {
            let t = map
                .iter()
                .find(|(n, _)| *n == table.name())
                .map(|(_, t)| *t)
                .expect("lower registered every base table");
            PlanNode::Scan { table: t }
        }
        PlanNode::Filter { input, pred } => {
            PlanNode::Filter { input: Box::new(subst(input, map)), pred: pred.clone() }
        }
        PlanNode::Join { input, right, left_col, right_col } => PlanNode::Join {
            input: Box::new(subst(input, map)),
            right: Box::new(subst(right, map)),
            left_col: left_col.clone(),
            right_col: right_col.clone(),
        },
        PlanNode::GroupAgg { .. } => unreachable!("base_tables rejected nested aggregation"),
    }
}

/// Lower `plan` onto `tables` (the sharded versions of the plan's base
/// tables, matched by table name): one stream plan per shard plus the merge
/// recipe.
///
/// Requirements checked here:
/// * every base table of the plan has a sharded counterpart of the same
///   name and row count;
/// * all sharded tables agree on the shard count;
/// * a join's sides are **co-partitioned on the join keys** (left table
///   sharded on `left_col`, right on `right_col`) — the property that makes
///   the per-shard joins' union equal the global join.
pub fn lower<'a>(
    plan: &LogicalPlan<'a>,
    tables: &[&'a ShardedTable],
) -> Result<Lowered<'a>, EngineError> {
    let (stream_root, merge) = match &plan.root {
        PlanNode::GroupAgg { input, key, aggs } => {
            (&**input, MergeShape::Agg { key: key.clone(), aggs: aggs.clone() })
        }
        other @ PlanNode::Join { .. } => (other, MergeShape::Pairs),
        other => (other, MergeShape::Oids),
    };
    let merge = match (merge, stream_root) {
        (MergeShape::Oids, PlanNode::Join { .. }) => MergeShape::Pairs,
        (m, _) => m,
    };

    let (lt, rt) = base_tables(stream_root)?;
    let find = |t: &DecomposedTable| -> Result<&'a ShardedTable, EngineError> {
        let st = tables.iter().find(|s| s.name() == t.name()).copied().ok_or(EngineError::Plan(
            PlanError::Unsupported("no sharded table registered for a plan table"),
        ))?;
        if st.len() != t.len() {
            return Err(EngineError::Plan(PlanError::Unsupported(
                "sharded table does not match the plan table's rows",
            )));
        }
        Ok(st)
    };
    let ls = find(lt)?;
    let rs = rt.map(&find).transpose()?;

    if let Some(rs) = rs {
        if rs.shard_count() != ls.shard_count() {
            return Err(EngineError::Plan(PlanError::Unsupported(
                "joined tables are sharded to different shard counts",
            )));
        }
        if let PlanNode::Join { left_col, right_col, .. } = stream_root {
            if ls.key() != left_col || rs.key() != right_col {
                return Err(EngineError::Plan(PlanError::Unsupported(
                    "join requires shards co-partitioned on the join keys",
                )));
            }
        }
    }

    let s = ls.shard_count();
    let mut plans = Vec::with_capacity(s);
    let mut ctx = Vec::with_capacity(s);
    for i in 0..s {
        let mut map: Vec<(&str, &'a DecomposedTable)> = vec![(ls.name(), &ls.shard(i).table)];
        if let (Some(rt), Some(rs)) = (rt, rs) {
            map.push((rt.name(), &rs.shard(i).table));
        }
        plans.push(LogicalPlan { root: subst(stream_root, &map) });
        ctx.push(ShardCtx { left: ls.shard(i), right: rs.map(|r| r.shard(i)) });
    }
    Ok(Lowered { plans, ctx, merge })
}

/// A shard's run of global sort keys, one per shipped stream row. Shard OID
/// maps are monotone and the executor emits streams in ascending local
/// order, so a run is strictly ascending with no sort on the shard either.
#[derive(Debug)]
enum Keys {
    /// An aggregate root: the merge consumes no rows, so none is shipped.
    None,
    /// Table stream: global OIDs.
    Oids(Vec<Oid>),
    /// Join stream: [`pair_key`]s of the global `(left, right)` pairs.
    Pairs(Vec<u64>),
}

impl Keys {
    fn len(&self) -> usize {
        match self {
            Keys::None => 0,
            Keys::Oids(k) => k.len(),
            Keys::Pairs(k) => k.len(),
        }
    }

    fn oids(&self) -> Option<&[Oid]> {
        match self {
            Keys::Oids(k) => Some(k),
            _ => None,
        }
    }

    fn pairs(&self) -> Option<&[u64]> {
        match self {
            Keys::Pairs(k) => Some(k),
            _ => None,
        }
    }
}

/// One shard's contribution to a sharded execution.
pub struct ShardPartial {
    keys: Keys,
    /// The shard's stream folded into the root aggregation's partial: per
    /// group code, integer totals and `f64` sum accumulators. `None` for
    /// stream roots, whose keys are the result.
    folded: Option<Folded>,
    /// Stream rows this shard's plan produced (pre-aggregation).
    stream_rows: usize,
    /// The shard plan's per-operator execution report.
    pub report: ExecReport,
    /// Simulated counters the partial-building gathers consumed (attributed
    /// to the merge operator in the merged report).
    gather_counters: Option<EventCounters>,
}

/// Pack a global join pair into one sort key ordered as `(left, right)`.
#[inline]
fn pair_key(l: Oid, r: Oid) -> u64 {
    ((l as u64) << 32) | r as u64
}

/// Plan shard `idx` of a lowered plan under `opts` and [`run_shard`] it.
/// Runs anywhere: the caller chooses tracker, machine, thread cap and
/// placement per shard.
pub fn execute_shard<M: MemTracker>(
    trk: &mut M,
    lowered: &Lowered<'_>,
    idx: usize,
    opts: &ExecOptions,
) -> Result<ShardPartial, EngineError> {
    let physical = crate::physical::plan(trk, &lowered.plans[idx], opts)?;
    run_shard(trk, lowered, idx, &physical)
}

/// Run `physical`, the physical plan of shard `idx` of a lowered plan,
/// through the stock executor and reduce its stream to a [`ShardPartial`].
pub fn run_shard<M: MemTracker>(
    trk: &mut M,
    lowered: &Lowered<'_>,
    idx: usize,
    physical: &PhysicalPlan<'_>,
) -> Result<ShardPartial, EngineError> {
    let Executed { output, report } = execute_with_scans(trk, physical, &ScanTicket::new())?;
    let ctx = &lowered.ctx[idx];
    let before = trk.counters_snapshot();
    let rows = match &output {
        QueryOutput::Oids(locals) => Rows::Cands(locals),
        QueryOutput::JoinIndex(pairs) => Rows::Pairs(pairs),
        _ => unreachable!("lowered shard plans are stream-only"),
    };
    let folded = match &lowered.merge {
        MergeShape::Oids | MergeShape::Pairs => None,
        MergeShape::Agg { key, aggs } => {
            let key = key.as_deref().map(|k| ctx.input(k)).transpose()?;
            let cols = agg_sinks(|col| ctx.input(col), aggs)?;
            Some(fold(trk, rows, key, &cols, 1)?)
        }
    };

    // Only a stream root ships its rows: the keys are its result.
    let keys = match rows {
        _ if folded.is_some() => Keys::None,
        Rows::Cands(locals) => {
            Keys::Oids(locals.iter().map(|&l| ctx.left.oids[l as usize]).collect())
        }
        Rows::Pairs(pairs) => {
            let (left, right) = (ctx.left, ctx.right.expect("join stream has a right shard"));
            Keys::Pairs(
                pairs
                    .iter()
                    .map(|p| pair_key(left.oids[p.left as usize], right.oids[p.right as usize]))
                    .collect(),
            )
        }
        Rows::All(_) => unreachable!("shard streams are OID lists"),
    };
    let stream_rows = rows.len();

    Ok(ShardPartial { keys, folded, stream_rows, report, gather_counters: delta(trk, before) })
}

/// Strip shard suffixes (`[h/S]`) out of an operator label so per-shard op
/// names merge under the parent table's name.
fn strip_shard_suffix(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let bytes = s.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] == b'[' {
            // Swallow "[digits/digits]" only.
            let mut j = i + 1;
            while j < bytes.len() && bytes[j].is_ascii_digit() {
                j += 1;
            }
            if j > i + 1 && j < bytes.len() && bytes[j] == b'/' {
                let mut k = j + 1;
                while k < bytes.len() && bytes[k].is_ascii_digit() {
                    k += 1;
                }
                if k > j + 1 && k < bytes.len() && bytes[k] == b']' {
                    i = k + 1;
                    continue;
                }
            }
        }
        out.push(bytes[i] as char);
        i += 1;
    }
    out
}

/// One live run of [`merge_runs`]: the run's index and keys, and the
/// position of its head (the smallest key not yet visited).
struct Cursor<'r, K> {
    run: usize,
    keys: &'r [K],
    pos: usize,
}

/// Visit every element of `runs` as `(run, index)` in ascending key order.
///
/// Each run must be strictly ascending and no key may occur in two runs
/// (global OIDs and packed global pairs are unique), which makes the visit
/// order exactly the order a sort of the concatenation produces. One cursor
/// per live run: every step takes the argmin over the live heads — linear,
/// because a coordinator merges a handful of shards — and an exhausted run
/// leaves the live set, so no key value is reserved as a sentinel. The last
/// live run is drained without comparisons.
fn merge_runs<K: Copy + Ord>(runs: &[&[K]], mut visit: impl FnMut(usize, usize)) {
    let mut live: Vec<Cursor<'_, K>> = runs
        .iter()
        .enumerate()
        .filter(|(_, keys)| !keys.is_empty())
        .map(|(run, keys)| Cursor { run, keys, pos: 0 })
        .collect();
    // The live heads, apart from the cursors so the argmin scans a dense
    // key array.
    let mut heads: Vec<K> = live.iter().map(|c| c.keys[0]).collect();
    while heads.len() > 1 {
        // Which run comes next is a coin flip on hash-sharded rows: carry
        // the running minimum in selects, which compile to conditional
        // moves, rather than branch on it.
        let (mut m, mut least) = (0, heads[0]);
        for (i, &k) in heads.iter().enumerate().skip(1) {
            let lt = k < least;
            least = if lt { k } else { least };
            m = if lt { i } else { m };
        }
        let c = &mut live[m];
        visit(c.run, c.pos);
        c.pos += 1;
        match c.keys.get(c.pos) {
            Some(&next) => heads[m] = next,
            None => {
                live.remove(m);
                heads.remove(m);
            }
        }
    }
    if let Some(c) = live.first() {
        for r in c.pos..c.keys.len() {
            visit(c.run, r);
        }
    }
}

/// The partials' key runs when every shard shipped the `of` kind of keys.
fn key_runs<'p, K>(
    partials: &'p [ShardPartial],
    of: fn(&'p Keys) -> Option<&'p [K]>,
) -> Option<Vec<&'p [K]>> {
    partials.iter().map(|p| of(&p.keys)).collect()
}

/// Merge shard partials into the final result. The merged report carries
/// one operator per shard-plan operator (rows and simulated counters summed
/// across shards, with the per-shard counters preserved in
/// [`OpReport::counters_per_shard`]) plus one coordinator `merge` operator.
pub fn merge(
    lowered: &Lowered<'_>,
    mut partials: Vec<ShardPartial>,
) -> Result<Executed, EngineError> {
    assert_eq!(partials.len(), lowered.shard_count(), "one partial per shard");
    let n = partials.len();
    // The cursor merge trusts what the sort it replaced would have forgiven.
    debug_assert!(
        partials.iter().all(|p| match &p.keys {
            Keys::None => true,
            Keys::Oids(k) => k.windows(2).all(|w| w[0] < w[1]),
            Keys::Pairs(k) => k.windows(2).all(|w| w[0] < w[1]),
        }),
        "every shard's key run must be strictly ascending (is a shard's OID map monotone?)"
    );
    let shipped_rows: usize = partials.iter().map(|p| p.keys.len()).sum();

    let output = match &lowered.merge {
        MergeShape::Oids => {
            let runs = key_runs(&partials, Keys::oids).expect("oid merge over oid runs");
            let mut all: Vec<Oid> = Vec::with_capacity(shipped_rows);
            merge_runs(&runs, |s, r| all.push(runs[s][r]));
            QueryOutput::Oids(all)
        }
        MergeShape::Pairs => {
            let runs = key_runs(&partials, Keys::pairs).expect("pair merge over pair runs");
            let mut all: Vec<OidPair> = Vec::with_capacity(shipped_rows);
            merge_runs(&runs, |s, r| {
                let k = runs[s][r];
                all.push(OidPair { left: (k >> 32) as Oid, right: k as Oid });
            });
            QueryOutput::JoinIndex(all)
        }
        MergeShape::Agg { key, aggs } => {
            let input = |col: &str| lowered.ctx[0].input(col);
            let sinks: Vec<Sink> =
                agg_sinks(input, aggs)?.into_iter().map(|(_, sink)| sink).collect();
            let mut parts = partials
                .iter_mut()
                .map(|p| p.folded.take().expect("aggregate roots fold every shard"));
            let mut merged = parts.next().expect("one partial per shard");
            for part in parts {
                debug_assert!(
                    part.counts.len() == merged.counts.len() && part.cols.len() == sinks.len(),
                    "shards agree on the group domain and the aggregates"
                );
                merged.absorb(part, sinks.iter().copied());
            }

            // Decode via the shared dictionary (shard 0's key column — all
            // shards clone the parent dict).
            let key_bat = key.as_deref().map(|k| lowered.ctx[0].input(k)).transpose()?;
            agg_output(key_bat.map(|k| k.bat), aggs, &merged)
        }
    };

    // ----- merged report -----
    let mut report = ExecReport { ops: Vec::new(), planner: partials[0].report.planner };
    let op_count = partials[0].report.ops.len();
    debug_assert!(partials.iter().all(|p| p.report.ops.len() == op_count));
    for j in 0..op_count {
        let first = &partials[0].report.ops[j];
        let per_shard: Vec<Option<EventCounters>> =
            partials.iter().map(|p| p.report.ops[j].counters).collect();
        let merged_counters =
            per_shard.iter().try_fold(EventCounters::default(), |acc, c| c.map(|c| acc + c));
        report.ops.push(OpReport {
            op: strip_shard_suffix(&first.op),
            rows_in: partials.iter().map(|p| p.report.ops[j].rows_in).sum(),
            rows_out: partials.iter().map(|p| p.report.ops[j].rows_out).sum(),
            detail: format!("sharded x{n}: {}", strip_shard_suffix(&first.detail)),
            counters: merged_counters,
            access: partials.iter().flat_map(|p| p.report.ops[j].access.clone()).collect(),
            notes: partials.iter().flat_map(|p| p.report.ops[j].notes.clone()).collect(),
            cluster_order: partials.iter().any(|p| p.report.ops[j].cluster_order),
            shapes: partials.iter().flat_map(|p| p.report.ops[j].shapes.clone()).collect(),
            rows_per_thread: None,
            counters_per_shard: per_shard.iter().any(Option::is_some).then_some(per_shard),
        });
    }
    let stream_rows: usize = partials.iter().map(|p| p.stream_rows).sum();
    let rows_out = match &output {
        QueryOutput::Groups(g) => g.len(),
        QueryOutput::Aggregates(a) => a.len(),
        QueryOutput::Oids(o) => o.len(),
        QueryOutput::JoinIndex(p) => p.len(),
    };
    let gather_per_shard: Vec<Option<EventCounters>> =
        partials.iter().map(|p| p.gather_counters).collect();
    let gather_total =
        gather_per_shard.iter().try_fold(EventCounters::default(), |acc, c| c.map(|c| acc + c));
    let what = match &lowered.merge {
        MergeShape::Oids => "cursor merge of ascending OID runs",
        MergeShape::Pairs => "cursor merge of canonical (left, right) pair runs",
        MergeShape::Agg { key: None, .. } => "exact partial combine",
        MergeShape::Agg { key: Some(_), .. } => "per-group exact combine",
    };
    report.ops.push(OpReport {
        op: format!("merge[{n} shards]"),
        rows_in: stream_rows,
        rows_out,
        detail: format!("coordinator: {what}"),
        counters: gather_total,
        // Priced on the rows that reached the coordinator: aggregate
        // partials arrive folded, so an aggregate root merges 0 rows.
        shapes: vec![OpShape::Merge { rows: shipped_rows }],
        counters_per_shard: gather_per_shard
            .iter()
            .any(Option::is_some)
            .then_some(gather_per_shard),
        ..OpReport::default()
    });

    Ok(Executed { output, report })
}

/// Lower, execute every shard sequentially under one tracker, and merge —
/// the single-machine convenience entry point. For placed execution run
/// [`lower`] / [`execute_shard`] / [`merge`] yourself.
pub fn execute_sharded<M: MemTracker>(
    trk: &mut M,
    plan: &LogicalPlan<'_>,
    tables: &[&ShardedTable],
    opts: &ExecOptions,
) -> Result<Executed, EngineError> {
    let lowered = lower(plan, tables)?;
    let partials = (0..lowered.shard_count())
        .map(|i| execute_shard(trk, &lowered, i, opts))
        .collect::<Result<Vec<_>, _>>()?;
    merge(&lowered, partials)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::execute;
    use crate::plan::{Pred, Query};
    use memsim::{NullTracker, SimTracker};
    use monet_core::storage::{ColType, TableBuilder, Value};

    fn item(n: usize) -> DecomposedTable {
        let mut b = TableBuilder::new("item", 1000)
            .column("supp", ColType::I32)
            .column("qty", ColType::I32)
            .column("price", ColType::F64)
            .column("shipmode", ColType::Str);
        for i in 0..n {
            b.push_row(&[
                Value::I32((i * 7 % 50) as i32),
                Value::I32((i % 10) as i32),
                Value::F64(i as f64 * 0.37),
                Value::from(["AIR", "SHIP", "MAIL", "RAIL"][i % 4]),
            ])
            .unwrap();
        }
        b.finish()
    }

    fn supplier(n: usize) -> DecomposedTable {
        let mut b = TableBuilder::new("supplier", 0)
            .column("id", ColType::I32)
            .column("rating", ColType::I32);
        for i in 0..n {
            b.push_row(&[Value::I32(i as i32), Value::I32((i * 13 % 97) as i32)]).unwrap();
        }
        b.finish()
    }

    fn assert_sharded_matches(plan: &LogicalPlan<'_>, tables: &[&ShardedTable]) {
        let opts = ExecOptions::default();
        let solo = execute(&mut NullTracker, plan, &opts).unwrap();
        let sharded = execute_sharded(&mut NullTracker, plan, tables, &opts).unwrap();
        assert!(
            solo.output.bitwise_eq(&sharded.output),
            "sharded diverged:\n{:?}\nvs\n{:?}",
            solo.output,
            sharded.output
        );
    }

    #[test]
    fn select_join_and_groups_merge_bit_identically() {
        let item = item(2000);
        let supp = supplier(50);
        for s in [1, 3, 4] {
            let is = ShardedTable::partition(&item, "supp", s).unwrap();
            let ss = ShardedTable::partition(&supp, "id", s).unwrap();
            let tables: Vec<&ShardedTable> = vec![&is, &ss];

            let select = Query::scan(&item).filter(Pred::range_i32("qty", 2, 7)).build().unwrap();
            assert_sharded_matches(&select, &tables);

            let join = Query::scan(&item)
                .filter(Pred::range_i32("qty", 1, 8))
                .join(&supp, ("supp", "id"))
                .build()
                .unwrap();
            assert_sharded_matches(&join, &tables);

            let grouped = Query::scan(&item)
                .filter(Pred::range_i32("qty", 0, 8))
                .group_by("shipmode")
                .agg(Agg::sum("price"))
                .agg(Agg::min("qty"))
                .agg(Agg::max("qty"))
                .agg(Agg::count())
                .build()
                .unwrap();
            assert_sharded_matches(&grouped, &tables);

            let grouped_join = Query::scan(&item)
                .join(&supp, ("supp", "id"))
                .group_by("shipmode")
                .agg(Agg::sum("price"))
                .agg(Agg::sum("rating"))
                .agg(Agg::count())
                .build()
                .unwrap();
            assert_sharded_matches(&grouped_join, &tables);

            let scalar = Query::scan(&item)
                .filter(Pred::eq_str("shipmode", "AIR"))
                .agg(Agg::sum("price"))
                .agg(Agg::sum("qty"))
                .agg(Agg::min("qty"))
                .agg(Agg::count())
                .build()
                .unwrap();
            assert_sharded_matches(&scalar, &tables);
        }
    }

    #[test]
    fn co_partitioning_is_required_for_joins() {
        let item = item(100);
        let supp = supplier(10);
        let is = ShardedTable::partition(&item, "qty", 2).unwrap(); // wrong key
        let ss = ShardedTable::partition(&supp, "id", 2).unwrap();
        let plan = Query::scan(&item).join(&supp, ("supp", "id")).build().unwrap();
        let err = lower(&plan, &[&is, &ss]).err().expect("co-partition check must fail");
        assert!(matches!(err, EngineError::Plan(PlanError::Unsupported(_))), "{err:?}");

        // Mismatched shard counts are rejected too.
        let is = ShardedTable::partition(&item, "supp", 2).unwrap();
        let ss3 = ShardedTable::partition(&supp, "id", 3).unwrap();
        assert!(lower(&plan, &[&is, &ss3]).is_err());
    }

    #[test]
    fn merged_report_sums_per_shard_counters_to_tracker_totals() {
        let item = item(1500);
        let is = ShardedTable::partition(&item, "supp", 4).unwrap();
        let plan = Query::scan(&item)
            .filter(Pred::range_i32("qty", 1, 6))
            .group_by("shipmode")
            .agg(Agg::sum("price"))
            .agg(Agg::count())
            .build()
            .unwrap();
        let mut trk = SimTracker::new(memsim::MemorySystem::new(memsim::profiles::origin2000()));
        let before = trk.counters_snapshot().unwrap();
        let run = execute_sharded(&mut trk, &plan, &[&is], &ExecOptions::default()).unwrap();
        let total = trk.counters_snapshot().unwrap() - before;

        // Every op that consumed simulated events carries per-shard counters
        // that sum to its merged counters, and the op totals sum to the
        // tracker's grand total (ops that did no tracked work — e.g. the
        // scan placeholder — carry none on either level).
        let mut acc = EventCounters::default();
        let mut counted_ops = 0;
        for op in &run.report.ops {
            let Some(merged) = op.counters else {
                assert!(op.counters_per_shard.is_none(), "op {}", op.op);
                continue;
            };
            counted_ops += 1;
            let shards = op.counters_per_shard.as_ref().expect("sharded run");
            let shard_sum =
                shards.iter().fold(EventCounters::default(), |a, c| a + c.expect("simulated"));
            assert_eq!(shard_sum, merged, "op {}", op.op);
            acc += merged;
        }
        assert!(counted_ops >= 2, "select + merge must both carry counters");
        assert_eq!(acc, total, "per-op counters must sum to the tracker total");
    }

    /// The keys of `runs` in the order `merge_runs` visits them.
    fn visited<K: Copy + Ord>(runs: &[&[K]]) -> Vec<K> {
        let mut next = vec![0; runs.len()];
        let mut out = Vec::new();
        merge_runs(runs, |s, r| {
            assert_eq!(r, next[s], "run {s} is visited front to back, no row twice");
            next[s] += 1;
            out.push(runs[s][r]);
        });
        assert!(next.iter().zip(runs).all(|(&n, run)| n == run.len()), "every row is visited");
        out
    }

    #[test]
    fn cursor_merge_visits_every_run_in_key_order() {
        assert!(visited::<u32>(&[]).is_empty(), "no runs");
        assert!(visited::<u32>(&[&[], &[], &[]]).is_empty(), "all runs empty");
        assert_eq!(visited(&[&[3u32, 5, 9][..]]), [3, 5, 9], "one run");
        assert_eq!(visited(&[&[][..], &[3u32, 5, 9], &[]]), [3, 5, 9], "one live run");
        // The first run exhausts first; then the last one does.
        assert_eq!(visited(&[&[1u32, 2][..], &[0, 4, 7], &[3, 8, 9]]), [0, 1, 2, 3, 4, 7, 8, 9]);
        assert_eq!(visited(&[&[1u32, 6, 9][..], &[0, 4, 7], &[2, 3]]), [0, 1, 2, 3, 4, 6, 7, 9]);
        // No key is reserved: the largest packed pair is an ordinary key.
        let top = pair_key(u32::MAX, u32::MAX);
        assert_eq!(top, u64::MAX);
        assert_eq!(
            visited(&[&[5, top][..], &[0, top - 1], &[top - 2]]),
            [0, 5, top - 2, top - 1, top]
        );

        // S = 7, unequal lengths (one run empty, one holding half the keys).
        let mut runs: Vec<Vec<u32>> = vec![Vec::new(); 7];
        for k in 0..500u32 {
            let s = if k % 2 == 0 { 3 } else { [0, 1, 2, 4, 6][(k as usize / 2) % 5] };
            runs[s].push(k * 3);
        }
        let refs: Vec<&[u32]> = runs.iter().map(Vec::as_slice).collect();
        assert_eq!(visited(&refs), (0..500).map(|k| k * 3).collect::<Vec<_>>());
    }

    #[test]
    fn cursor_merge_equals_concatenate_and_sort_on_random_disjoint_runs() {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut rng = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for round in 0..50 {
            let shards = 1 + (rng() % 8) as usize;
            // Skewed assignment: squaring the draw favours the low shards.
            let mut runs: Vec<Vec<u64>> = vec![Vec::new(); shards];
            let mut key = 0u64;
            for _ in 0..(rng() % 400) {
                key += 1 + rng() % 1000;
                let u = (rng() % 1000) as f64 / 1000.0;
                runs[(u * u * shards as f64) as usize].push(key);
            }
            let refs: Vec<&[u64]> = runs.iter().map(Vec::as_slice).collect();
            let mut sorted = runs.concat();
            sorted.sort_unstable();
            assert_eq!(visited(&refs), sorted, "round {round}, {shards} runs");
        }
    }

    /// The streaming merge trusts each shard's OID map to be monotone, which
    /// the sort it replaced did not need: a map that is not must not pass
    /// silently in debug builds.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "strictly ascending")]
    fn a_descending_oid_map_trips_the_run_order_assertion() {
        let shard = TableShard { table: supplier(4), oids: vec![3, 2, 1, 0] };
        let lowered = Lowered {
            plans: vec![Query::scan(&shard.table).build().unwrap()],
            ctx: vec![ShardCtx { left: &shard, right: None }],
            merge: MergeShape::Oids,
        };
        let partial =
            execute_shard(&mut NullTracker, &lowered, 0, &ExecOptions::default()).unwrap();
        let _ = merge(&lowered, vec![partial]);
    }

    #[test]
    fn the_merge_operator_is_priced_on_the_rows_the_shards_shipped() {
        let item = item(2000);
        let is = ShardedTable::partition(&item, "supp", 4).unwrap();
        let stream = Query::scan(&item).filter(Pred::range_i32("qty", 2, 7));
        let stream_rows = 2000 * 6 / 10;
        let merge_op = |plan: &LogicalPlan<'_>| {
            let run = execute_sharded(&mut NullTracker, plan, &[&is], &ExecOptions::default());
            run.unwrap().report.ops.pop().expect("merge op")
        };

        // Aggregates arrive folded, `f64` sums included: nothing to merge,
        // whatever the stream carried.
        let exact = stream
            .clone()
            .group_by("shipmode")
            .agg(Agg::min("qty"))
            .agg(Agg::count())
            .build()
            .unwrap();
        let op = merge_op(&exact);
        assert_eq!(op.rows_in, stream_rows);
        assert_eq!(op.shapes, vec![OpShape::Merge { rows: 0 }]);
        let int_sum = stream.clone().agg(Agg::sum("qty")).agg(Agg::max("qty")).build().unwrap();
        assert_eq!(merge_op(&int_sum).shapes, vec![OpShape::Merge { rows: 0 }]);

        let f64_sum = stream.clone().agg(Agg::sum("price")).build().unwrap();
        assert_eq!(merge_op(&f64_sum).shapes, vec![OpShape::Merge { rows: 0 }]);
        let grouped = stream.clone().group_by("shipmode").agg(Agg::sum("qty")).build().unwrap();
        assert_eq!(merge_op(&grouped).shapes, vec![OpShape::Merge { rows: 0 }]);

        // A bare stream ships every stream row.
        let op = merge_op(&stream.build().unwrap());
        assert_eq!((op.rows_in, op.rows_out), (stream_rows, stream_rows));
        assert_eq!(op.shapes, vec![OpShape::Merge { rows: stream_rows }]);
    }

    #[test]
    fn shard_suffixes_are_stripped_in_merged_reports() {
        assert_eq!(strip_shard_suffix("scan(item[0/4])"), "scan(item)");
        assert_eq!(strip_shard_suffix("select(item[12/16])"), "select(item)");
        assert_eq!(strip_shard_suffix("join[supp = id]"), "join[supp = id]");
        assert_eq!(strip_shard_suffix("scan(item[x/4])"), "scan(item[x/4])");
    }
}
