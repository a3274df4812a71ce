//! Sharded (distributed) execution of logical plans.
//!
//! [`lower`] splits one [`LogicalPlan`] into `S` shard-local *stream* plans
//! over a [`ShardedTable`]'s shards (the root `GroupAgg`, when present, is
//! held back for the coordinator), [`execute_shard`] runs one shard plan
//! through the stock executor and reduces its stream to a [`ShardPartial`],
//! and [`merge`] deterministically combines the partials into exactly the
//! output the unsharded run produces — **bit-identical**, including the
//! floating-point bits of every `f64` sum, at any shard count × thread
//! count.
//!
//! The staging is deliberate: a placement layer (see `service`) can quote
//! each shard plan per replica, lease threads per shard task, and run
//! [`execute_shard`] wherever the cost model routes it; only [`merge`] must
//! see all partials.
//!
//! # Why the merge is exact
//!
//! Every shard run arrives **strictly ascending** in one global sort key:
//! shard tables are rebased to seqbase 0 with monotone local→global OID
//! maps and the executor emits streams in ascending local order, so mapping
//! a shard's stream to global keys needs no sort on the shard. The
//! coordinator then makes **one streaming pass with `S` cursors**
//! (`merge_runs`): each step takes the smallest of the live run heads, an
//! exhausted run drops out, the last live run is drained as a slice. Keys
//! are unique (global OIDs, global pairs), so this visits rows in exactly
//! the order a sort of the concatenated runs would — without the
//! concatenation, the `n log n` comparisons or the second pass over the
//! sorted copy. A shard ships only what its merge shape consumes:
//!
//! * **Selections** ship their global OIDs; the cursor pass pushes them
//!   into one pre-sized list — the unsharded ascending OID list.
//! * **Joins** ship their global pairs packed as `(left << 32) | right`.
//!   The executor emits join indexes in canonical `(left, right)` order,
//!   and a join whose sides are co-partitioned on the join keys puts every
//!   matching pair inside one shard (equal keys hash to the same shard), so
//!   the union of per-shard pair sets *is* the global pair set and the
//!   cursor pass reproduces the canonical order.
//! * **Exact aggregates** — `COUNT`, integer `SUM` (i64), `MIN`/`MAX` —
//!   combine associatively, so a shard ships one value per aggregate (per
//!   group code when grouped) and **no rows at all**: a MIN/MAX/COUNT root
//!   merges in time independent of the stream.
//! * **`f64` sums** — floating-point addition is *not* associative, so
//!   shard partials are never combined. Only a root with an `f64` sum ships
//!   rows: one key run (global OID for table streams, packed global pair
//!   for join streams) plus a parallel value vector per sum (and the group
//!   codes when grouped). The coordinator adds `vals[shard][row]` into the
//!   accumulator as the cursor visits it: exactly the addition order of the
//!   unsharded kernel.
//! * **Dictionaries** — shard string columns share the parent's dictionary
//!   ([`monet_core::shard`]), so group codes are globally consistent and a
//!   merge ascending by code reproduces the unsharded group order.

use std::cell::OnceCell;

use costmodel::quote::OpShape;
use memsim::{EventCounters, MemTracker};
use monet_core::join::OidPair;
use monet_core::shard::{ShardedTable, TableShard};
use monet_core::storage::{Column, DecomposedTable, Oid};

use crate::exec::{
    execute, AggValue, ExecOptions, ExecReport, Executed, GroupRow, OpReport, QueryOutput,
};
use crate::plan::{Agg, LogicalPlan, PlanError, PlanNode};
use crate::reconstruct::{fetch_f64, fetch_i32, fetch_str, fetch_u8};
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

/// Per-shard table references for OID mapping and partial gathers.
struct ShardCtx<'a> {
    left: &'a TableShard,
    right: Option<&'a TableShard>,
}

/// A plan lowered onto a set of sharded tables: one stream plan per shard
/// plus the merge recipe.
pub struct Lowered<'a> {
    /// The shard-local stream plans, in shard order. Each is an ordinary
    /// [`LogicalPlan`] over that shard's tables — quotable by
    /// `costmodel::quote` and executable by [`execute`] anywhere.
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

/// The leftmost base table of a stream subtree and, for joins, the right
/// base table.
fn base_tables<'a>(
    node: &PlanNode<'a>,
) -> Result<(&'a DecomposedTable, Option<&'a DecomposedTable>), EngineError> {
    match node {
        PlanNode::Scan { table } => Ok((table, None)),
        PlanNode::Filter { input, .. } => base_tables(input),
        PlanNode::Join { input, right, .. } => {
            let (lt, nested) = base_tables(input)?;
            let (rt, rnested) = base_tables(right)?;
            if nested.is_some() || rnested.is_some() {
                return Err(EngineError::Plan(PlanError::Unsupported("nested joins")));
            }
            Ok((lt, Some(rt)))
        }
        PlanNode::GroupAgg { .. } => {
            Err(EngineError::Plan(PlanError::Unsupported("aggregation below another operator")))
        }
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

/// A scalar aggregate that combines exactly (associatively) across shards.
#[derive(Debug, Clone, Copy)]
enum Exact {
    /// Row count (combine: sum).
    Count(usize),
    /// Integer sum in `i64` (combine: sum).
    SumI64(i64),
    /// Minimum (combine: min of present values).
    Min(Option<i32>),
    /// Maximum (combine: max of present values).
    Max(Option<i32>),
}

impl Exact {
    fn combine(self, other: Exact) -> Exact {
        match (self, other) {
            (Exact::Count(a), Exact::Count(b)) => Exact::Count(a + b),
            (Exact::SumI64(a), Exact::SumI64(b)) => Exact::SumI64(a + b),
            (Exact::Min(a), Exact::Min(b)) => {
                Exact::Min(a.zip(b).map(|(a, b)| a.min(b)).or(a).or(b))
            }
            (Exact::Max(a), Exact::Max(b)) => {
                Exact::Max(a.zip(b).map(|(a, b)| a.max(b)).or(a).or(b))
            }
            _ => unreachable!("shards agree on aggregate kinds"),
        }
    }

    fn finish(self) -> AggValue {
        match self {
            Exact::Count(c) => AggValue::Count(c),
            Exact::SumI64(s) => AggValue::I64(s),
            Exact::Min(m) | Exact::Max(m) => AggValue::MaybeI32(m),
        }
    }
}

/// One scalar aggregate's shard partial.
#[derive(Debug)]
enum AggPartial {
    Exact(Exact),
    /// `f64` sum: the value of every stream row, parallel to the partial's
    /// [`Keys`]. Never combined per shard — the coordinator accumulates the
    /// rows of all shards in global key order.
    SumF64(Vec<f64>),
}

/// A grouped aggregation's shard partial. Exact aggregates are combined
/// per group code; `f64` sums stay as rows parallel to the partial's
/// [`Keys`].
#[derive(Debug)]
struct GroupPartial {
    /// Direct-index domain (256 or 65536), identical across shards because
    /// shard key columns share the parent's code width.
    domain: usize,
    /// Rows per group code.
    counts: Vec<u64>,
    /// Per `Min` aggregate, per code.
    mins: Vec<Vec<Option<i32>>>,
    /// Per `Max` aggregate, per code.
    maxs: Vec<Vec<Option<i32>>>,
    /// Group code per stream row; empty when there is no `Sum` aggregate.
    codes: Vec<u32>,
    /// Per `Sum` aggregate: value per stream row.
    sum_cols: Vec<Vec<f64>>,
}

/// The aggregation state a shard's stream was consumed into.
#[derive(Debug)]
enum PartialAggs {
    /// Stream roots aggregate nothing: the keys are the result.
    None,
    Scalar(Vec<AggPartial>),
    Grouped(GroupPartial),
}

/// A shard's run of global sort keys, one per shipped stream row. Shard OID
/// maps are monotone and the executor emits streams in ascending local
/// order, so a run is strictly ascending with no sort on the shard either.
#[derive(Debug)]
enum Keys {
    /// The merge consumes no per-row order (no `f64` sum at the root), so
    /// no row is shipped.
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
    aggs: PartialAggs,
    /// Stream rows this shard's plan produced (pre-aggregation).
    stream_rows: usize,
    /// The shard plan's per-operator execution report.
    pub report: ExecReport,
    /// Simulated counters the partial-building gathers consumed (attributed
    /// to the merge operator in the merged report).
    gather_counters: Option<EventCounters>,
}

/// A shard plan's output stream, in the shard's local OID space.
enum LocalStream {
    Table(Vec<Oid>),
    Joined(Vec<OidPair>),
}

/// Pack a global join pair into one sort key ordered as `(left, right)`.
#[inline]
fn pair_key(l: Oid, r: Oid) -> u64 {
    ((l as u64) << 32) | r as u64
}

fn delta<M: MemTracker>(trk: &M, before: Option<EventCounters>) -> Option<EventCounters> {
    match (trk.counters_snapshot(), before) {
        (Some(after), Some(before)) => Some(after - before),
        _ => None,
    }
}

/// Chooses between a running extremum and a new value: `i32::min` or
/// `i32::max`.
type Pick = fn(i32, i32) -> i32;

/// Fold `(code, value)` pairs into the per-code extrema `acc`.
fn fold_extremes(acc: &mut [Option<i32>], vals: impl Iterator<Item = (usize, i32)>, pick: Pick) {
    for (c, v) in vals {
        acc[c] = Some(acc[c].map_or(v, |m| pick(m, v)));
    }
}

/// Execute shard `idx` of a lowered plan through the stock executor and
/// reduce its stream to a [`ShardPartial`]. Runs anywhere: the caller
/// chooses tracker, machine, thread cap and placement per shard.
pub fn execute_shard<M: MemTracker>(
    trk: &mut M,
    lowered: &Lowered<'_>,
    idx: usize,
    opts: &ExecOptions,
) -> Result<ShardPartial, EngineError> {
    let Executed { output, report } = execute(trk, &lowered.plans[idx], opts)?;
    let ctx = &lowered.ctx[idx];
    let before = trk.counters_snapshot();
    let stream = match output {
        QueryOutput::Oids(locals) => LocalStream::Table(locals),
        QueryOutput::JoinIndex(pairs) => LocalStream::Joined(pairs),
        _ => unreachable!("lowered shard plans are stream-only"),
    };
    let stream_rows = match &stream {
        LocalStream::Table(locals) => locals.len(),
        LocalStream::Joined(pairs) => pairs.len(),
    };

    // Resolve a column to its shard table and the local OIDs of its side
    // (left-first, mirroring the executor's resolve_col). A join index is
    // projected onto a side only when a column of that side is gathered.
    let (left_locals, right_locals) = (OnceCell::<Vec<Oid>>::new(), OnceCell::<Vec<Oid>>::new());
    let side = |col: &str| -> (&DecomposedTable, &[Oid]) {
        match &stream {
            LocalStream::Table(locals) => (&ctx.left.table, locals),
            LocalStream::Joined(pairs) if ctx.left.table.bat(col).is_ok() => {
                let locals = left_locals.get_or_init(|| pairs.iter().map(|p| p.left).collect());
                (&ctx.left.table, locals)
            }
            LocalStream::Joined(pairs) => {
                let locals = right_locals.get_or_init(|| pairs.iter().map(|p| p.right).collect());
                (&ctx.right.expect("join stream has a right shard").table, locals)
            }
        }
    };

    let aggs = match &lowered.merge {
        MergeShape::Oids | MergeShape::Pairs => PartialAggs::None,
        MergeShape::Agg { key: None, aggs } => {
            let mut partials = Vec::with_capacity(aggs.len());
            for agg in aggs {
                let p = match agg {
                    Agg::Count => AggPartial::Exact(Exact::Count(stream_rows)),
                    Agg::Sum(col) => {
                        let (table, locals) = side(col);
                        let bat = table.bat(col)?;
                        match bat.tail() {
                            Column::F64(_) => AggPartial::SumF64(fetch_f64(trk, bat, locals)?),
                            _ => {
                                let vals = fetch_i32(trk, bat, locals)?;
                                let sum = vals.into_iter().map(i64::from).sum();
                                AggPartial::Exact(Exact::SumI64(sum))
                            }
                        }
                    }
                    Agg::Min(col) => {
                        let (table, locals) = side(col);
                        let vals = fetch_i32(trk, table.bat(col)?, locals)?;
                        AggPartial::Exact(Exact::Min(vals.into_iter().min()))
                    }
                    Agg::Max(col) => {
                        let (table, locals) = side(col);
                        let vals = fetch_i32(trk, table.bat(col)?, locals)?;
                        AggPartial::Exact(Exact::Max(vals.into_iter().max()))
                    }
                };
                partials.push(p);
            }
            PartialAggs::Scalar(partials)
        }
        MergeShape::Agg { key: Some(key), aggs } => {
            let (key_table, key_locals) = side(key);
            let key_bat = key_table.bat(key)?;
            let (mut codes, domain): (Vec<u32>, usize) = match key_bat.tail() {
                Column::Str(_) => {
                    let sc = fetch_str(trk, key_bat, key_locals)?;
                    let domain = if sc.codes.width() == 1 { 256 } else { 65536 };
                    ((0..sc.len()).map(|i| sc.codes.get(i)).collect(), domain)
                }
                Column::U8(_) => {
                    (fetch_u8(trk, key_bat, key_locals)?.into_iter().map(u32::from).collect(), 256)
                }
                other => {
                    return Err(EngineError::UnsupportedType {
                        op: "group key",
                        ty: other.value_type(),
                    })
                }
            };
            let mut counts = vec![0u64; domain];
            for &c in &codes {
                counts[c as usize] += 1;
            }
            let by_code = |vals: Vec<i32>| codes.iter().map(|&c| c as usize).zip(vals);
            let mut mins = Vec::new();
            let mut maxs = Vec::new();
            let mut sum_cols = Vec::new();
            for agg in aggs {
                match agg {
                    Agg::Sum(col) => {
                        let (table, locals) = side(col);
                        let bat = table.bat(col)?;
                        let vals: Vec<f64> = match bat.tail() {
                            Column::F64(_) => fetch_f64(trk, bat, locals)?,
                            // i32 → f64 is exact, matching the unsharded
                            // kernel's gather.
                            _ => {
                                fetch_i32(trk, bat, locals)?.into_iter().map(|v| v as f64).collect()
                            }
                        };
                        sum_cols.push(vals);
                    }
                    Agg::Min(col) => {
                        let (table, locals) = side(col);
                        let vals = fetch_i32(trk, table.bat(col)?, locals)?;
                        let mut per_code = vec![None; domain];
                        fold_extremes(&mut per_code, by_code(vals), i32::min);
                        mins.push(per_code);
                    }
                    Agg::Max(col) => {
                        let (table, locals) = side(col);
                        let vals = fetch_i32(trk, table.bat(col)?, locals)?;
                        let mut per_code = vec![None; domain];
                        fold_extremes(&mut per_code, by_code(vals), i32::max);
                        maxs.push(per_code);
                    }
                    Agg::Count => {}
                }
            }
            if sum_cols.is_empty() {
                // Counts and extremes are already per code: no row ships.
                codes = Vec::new();
            }
            PartialAggs::Grouped(GroupPartial { domain, counts, mins, maxs, codes, sum_cols })
        }
    };

    // Ship per-row keys only to a merge that consumes row order: a stream
    // root (the keys are its result) or a root with an `f64` sum.
    let ships_rows = match &aggs {
        PartialAggs::None => true,
        PartialAggs::Scalar(parts) => parts.iter().any(|p| matches!(p, AggPartial::SumF64(_))),
        PartialAggs::Grouped(g) => !g.sum_cols.is_empty(),
    };
    let keys = match stream {
        _ if !ships_rows => Keys::None,
        LocalStream::Table(locals) => {
            Keys::Oids(locals.into_iter().map(|l| ctx.left.oids[l as usize]).collect())
        }
        LocalStream::Joined(pairs) => {
            let (left, right) = (ctx.left, ctx.right.expect("join stream has a right shard"));
            Keys::Pairs(
                pairs
                    .iter()
                    .map(|p| pair_key(left.oids[p.left as usize], right.oids[p.right as usize]))
                    .collect(),
            )
        }
    };

    Ok(ShardPartial { keys, aggs, stream_rows, report, gather_counters: delta(trk, before) })
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

/// Visit every shipped row of `partials` as `(shard, row)` in global key
/// order — the unsharded kernel's accumulation order. Visits nothing when
/// the shards shipped no rows.
fn visit_shipped(partials: &[ShardPartial], visit: impl FnMut(usize, usize)) {
    if let Some(runs) = key_runs(partials, Keys::oids) {
        merge_runs(&runs, visit);
    } else if let Some(runs) = key_runs(partials, Keys::pairs) {
        merge_runs(&runs, visit);
    }
}

/// Merge shard partials into the final result. The merged report carries
/// one operator per shard-plan operator (rows and simulated counters summed
/// across shards, with the per-shard counters preserved in
/// [`OpReport::counters_per_shard`]) plus one coordinator `merge` operator.
pub fn merge(lowered: &Lowered<'_>, partials: Vec<ShardPartial>) -> Result<Executed, EngineError> {
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
        MergeShape::Agg { key: None, aggs } => {
            let parts: Vec<&[AggPartial]> = partials
                .iter()
                .map(|p| match &p.aggs {
                    PartialAggs::Scalar(parts) => parts.as_slice(),
                    _ => unreachable!("scalar merge over scalar partials"),
                })
                .collect();

            // f64 sums: one pass adds every shipped row into its
            // accumulators as the cursor visits it.
            let cols: Vec<Vec<&[f64]>> = parts
                .iter()
                .map(|parts| {
                    parts
                        .iter()
                        .filter_map(|p| match p {
                            AggPartial::SumF64(vals) => Some(vals.as_slice()),
                            AggPartial::Exact(_) => None,
                        })
                        .collect()
                })
                .collect();
            let mut sums = vec![0.0f64; cols[0].len()];
            visit_shipped(&partials, |s, r| {
                for (sum, col) in sums.iter_mut().zip(&cols[s]) {
                    *sum += col[r];
                }
            });

            let mut sums = sums.into_iter();
            let values = (0..aggs.len())
                .map(|i| match &parts[0][i] {
                    AggPartial::SumF64(_) => {
                        AggValue::F64(sums.next().expect("one accumulator per f64 sum"))
                    }
                    AggPartial::Exact(_) => parts
                        .iter()
                        .map(|parts| match &parts[i] {
                            AggPartial::Exact(e) => *e,
                            AggPartial::SumF64(_) => {
                                unreachable!("shards agree on aggregate kinds")
                            }
                        })
                        .reduce(Exact::combine)
                        .expect("at least one shard")
                        .finish(),
                })
                .collect();
            QueryOutput::Aggregates(values)
        }
        MergeShape::Agg { key: Some(key), aggs } => {
            let groups: Vec<&GroupPartial> = partials
                .iter()
                .map(|p| match &p.aggs {
                    PartialAggs::Grouped(g) => g,
                    _ => unreachable!("grouped merge over grouped partials"),
                })
                .collect();
            let first = groups[0];
            debug_assert!(
                groups.iter().all(|g| g.domain == first.domain
                    && g.mins.len() == first.mins.len()
                    && g.maxs.len() == first.maxs.len()
                    && g.sum_cols.len() == first.sum_cols.len()),
                "shards agree on the group domain and the aggregates"
            );
            let domain = first.domain;

            // Exact per-group combines.
            let mut counts = vec![0u64; domain];
            let mut mins = vec![vec![None; domain]; first.mins.len()];
            let mut maxs = vec![vec![None; domain]; first.maxs.len()];
            for g in &groups {
                for (c, &v) in g.counts.iter().enumerate() {
                    counts[c] += v;
                }
                let sides: [(_, _, Pick); 2] =
                    [(&mut mins, &g.mins, i32::min), (&mut maxs, &g.maxs, i32::max)];
                for (accs, cols, pick) in sides {
                    for (acc, col) in accs.iter_mut().zip(cols) {
                        let present = col.iter().enumerate().filter_map(|(c, v)| Some((c, (*v)?)));
                        fold_extremes(acc, present, pick);
                    }
                }
            }

            // f64 sums: add every shipped row into its group's accumulators
            // as the cursor visits it.
            let mut sums = vec![vec![0.0f64; domain]; first.sum_cols.len()];
            visit_shipped(&partials, |s, r| {
                let g = groups[s];
                let code = g.codes[r] as usize;
                for (sum, col) in sums.iter_mut().zip(&g.sum_cols) {
                    sum[code] += col[r];
                }
            });

            // Decode via the shared dictionary (shard 0's key column — all
            // shards clone the parent dict).
            let (key_table, _) =
                if lowered.ctx[0].left.table.bat(key).is_ok() || lowered.ctx[0].right.is_none() {
                    (&lowered.ctx[0].left.table, true)
                } else {
                    (&lowered.ctx[0].right.expect("checked").table, false)
                };
            let key_bat = key_table.bat(key)?;
            let decode = |code: u32| -> String {
                match key_bat.tail() {
                    Column::Str(sc) => sc.dict.decode(code).to_owned(),
                    _ => code.to_string(),
                }
            };

            let mut rows = Vec::new();
            for code in 0..domain {
                if counts[code] == 0 {
                    continue;
                }
                let (mut si, mut mi, mut ma) = (0, 0, 0);
                let values = aggs
                    .iter()
                    .map(|agg| match agg {
                        Agg::Sum(_) => {
                            let v = AggValue::F64(sums[si][code]);
                            si += 1;
                            v
                        }
                        Agg::Min(_) => {
                            let v = AggValue::MaybeI32(mins[mi][code]);
                            mi += 1;
                            v
                        }
                        Agg::Max(_) => {
                            let v = AggValue::MaybeI32(maxs[ma][code]);
                            ma += 1;
                            v
                        }
                        Agg::Count => AggValue::Count(counts[code] as usize),
                    })
                    .collect();
                rows.push(GroupRow { key: decode(code as u32), values });
            }
            QueryOutput::Groups(rows)
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
        MergeShape::Agg { key: None, .. } => "exact partial combine + key-ordered f64 accumulation",
        MergeShape::Agg { key: Some(_), .. } => {
            "per-group exact combine + key-ordered f64 accumulation"
        }
    };
    report.ops.push(OpReport {
        op: format!("merge[{n} shards]"),
        rows_in: stream_rows,
        rows_out,
        detail: format!("coordinator: {what}"),
        counters: gather_total,
        // Priced on the rows that reached the coordinator: exact partials
        // arrive combined, so a root without an `f64` sum merges 0 rows.
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

        // Exact aggregates arrive combined: nothing to merge, whatever the
        // stream carried.
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

        // An f64 sum and a bare stream ship every stream row.
        let f64_sum = stream.clone().agg(Agg::sum("price")).build().unwrap();
        assert_eq!(merge_op(&f64_sum).shapes, vec![OpShape::Merge { rows: stream_rows }]);
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
