//! The physical query layer: a cost-model-driven executor for
//! [`LogicalPlan`]s.
//!
//! [`execute`] plans a logical plan ([`crate::physical::plan`]) and runs the
//! [`PhysicalPlan`]'s operators in order on the kernels of this crate —
//! scan-selects, candidate combinators, positional fetches, the radix join
//! family, hash-grouping. Every *physical* decision but the thread counts
//! is the plan's:
//!
//! * **Joins** run the kernel the paper's analytical cost model chose
//!   ([`costmodel::plan::plan_join`], the exhaustive Figure 12 search over
//!   algorithm × radix bits × pass layout) at the planner's inner
//!   cardinality. Call sites never pick bits.
//! * **Selections** choose an *access path per predicate leaf*: the §2
//!   stride-scan model prices a scan-select against every index attached to
//!   the filtered column ([`costmodel::access`]; CsBTree range/eq, hash
//!   probe, T-tree probe), with B+-tree-backed range selectivity counted
//!   exactly. Index-path candidate lists are sorted back into OID order, so
//!   every access mode is bit-identical. [`ExecOptions::access`] pins the
//!   policy; tables without indexes behave exactly as before.
//! * **Aggregation**, grouped or not, is one [`crate::aggregate::fold`] over
//!   the stream's survivors into a direct-indexed table (the group domain of
//!   an encoded key is ≤ 65536 codes, so the table fits the cache — the
//!   paper's argument for hash over sort grouping).
//!
//! Every operator records rows-in/rows-out and, when running under a
//! counting [`MemTracker`], the simulated event counters it consumed — the
//! returned [`ExecReport`] prints as a per-operator table.
//!
//! A selection constant missing from a column's dictionary makes that
//! predicate provably empty; the executor treats it as zero rows, not as an
//! error.
//!
//! # Parallel execution
//!
//! [`ExecOptions::threads`] opens the multi-core axis: with
//! [`Threads::Fixed`]`(n)` every parallel-capable operator fans out over `n`
//! threads, and with [`Threads::Auto`] the degree of parallelism becomes a
//! *physical decision of the cost model*, chosen per operator by
//! [`costmodel::parallel::ParallelModel`] (speedup = work / max per-thread
//! share, against a per-thread fork overhead) — the one decision made at
//! run time, on the operator's actual rows and under the leased
//! [`ExecOptions::thread_cap`]. Results are **bit-identical** to sequential execution at
//! every thread count: selections and gathers merge chunk results
//! thread-major, a returned join index is put in canonical `(left, right)`
//! order by [`monet_core::join::canonicalize`], and every aggregate folds
//! exactly — integers in `i64`, `f64` sums in an [`ExactSum`] rounded
//! once — so it combines the same from any split of its rows (see
//! [`crate::aggregate`]). A join folded into an aggregate is therefore
//! passed on in the cluster order the join produced
//! ([`OpReport::cluster_order`]). Simulated runs (`SimTracker`) fan out the
//! same way: each worker charges a simulated hierarchy of its own, a cold
//! fork of the caller's (see [`memsim::MemTracker`]), so an operator's
//! counters are the sum of its workers' work and match across thread counts
//! only at one thread.
//!
//! [`ExactSum`]: crate::exact::ExactSum

use std::fmt;
use std::sync::Arc;

use costmodel::parallel::{algorithm_parallelizes, ParallelModel};
use costmodel::quote::{op_costs_ns, OpShape};
use costmodel::scan::scan_cost;
use costmodel::ModelMachine;
use memsim::{EventCounters, MachineConfig, MemTracker};
use monet_core::join::{canonicalize, OidPair};
use monet_core::storage::{Bat, Column, DecomposedTable, Oid};

use crate::access::{
    eval_planned, leaves_of, AccessDecision, AccessMode, CompressMode, PushdownMode,
};
use crate::aggregate::{fold, Acc, Folded, Input, Rows, Side, Sink};
use crate::candidates::{intersect, CandList};
use crate::join::{join_operands, Operand};
use crate::physical::{Op, PhysicalPlan};
use crate::plan::{Agg, LogicalPlan, PlanError, PlanNode};
use crate::shared::ScanTicket;
use crate::EngineError;

/// How the physical plan is chosen: by the paper's cost model, the one
/// planner. A single variant, kept so that options written out field by
/// field keep naming it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Planner {
    /// The paper's analytical cost model: the physical plan's decisions,
    /// the join's by one Figure 12 search ([`costmodel::plan::plan_join`])
    /// — what a query optimizer would ship.
    CostModel,
}

/// How many threads parallel-capable operators may use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Threads {
    /// Per-operator thread counts chosen by the parallel cost model
    /// ([`costmodel::parallel`]), capped at the host's available
    /// parallelism. The model never picks a count it prices slower than
    /// sequential.
    Auto,
    /// A fixed thread count for every parallel-capable operator (1 = fully
    /// sequential, the default).
    Fixed(usize),
}

/// Executor configuration: the machine whose memory hierarchy the cost model
/// prices, the degree of parallelism, and the selection access-path policy.
#[derive(Debug, Clone, Copy)]
pub struct ExecOptions {
    /// Machine the cost model plans for (usually the machine you run on; the
    /// examples use the simulated Origin2000 so model and simulator agree).
    pub machine: MachineConfig,
    /// Physical-plan chooser (the cost model; see [`Planner`]).
    pub planner: Planner,
    /// Degree of parallelism. Results are bit-identical at every setting;
    /// simulated charges are not (see the [module docs](self)).
    pub threads: Threads,
    /// Selection access-path policy (scan / index / auto). The constructors
    /// default to [`AccessMode::Auto`]. Results are bit-identical at every
    /// setting.
    pub access: AccessMode,
    /// An externally imposed hard ceiling on per-operator thread counts,
    /// applied on top of [`Threads`] (both `Auto` and `Fixed`). This is the
    /// seam a multi-query scheduler uses to lease a slice of a global
    /// thread budget to one `execute` call: the executor is re-entrant, so
    /// concurrent queries each run under their own cap and the pool is
    /// never oversubscribed. `None` (the default) imposes no ceiling.
    pub thread_cap: Option<usize>,
    /// Compressed-column policy (off / on / force). The constructors
    /// default to [`CompressMode::On`]. Results are bit-identical at every
    /// setting; only the bytes streamed (and hence the model's path choices)
    /// change.
    pub compress: CompressMode,
    /// Candidate-list pushdown policy for multi-leaf AND filters (off / on).
    /// The constructors default to [`PushdownMode::On`]. Results are
    /// bit-identical at every setting; only the leaf order and the bytes
    /// later leaves stream change.
    pub pushdown: PushdownMode,
}

impl ExecOptions {
    /// Cost-model-driven execution on `machine`.
    pub fn cost_model(machine: MachineConfig) -> Self {
        Self {
            machine,
            planner: Planner::CostModel,
            threads: Threads::Fixed(1),
            access: AccessMode::Auto,
            thread_cap: None,
            compress: CompressMode::On,
            pushdown: PushdownMode::On,
        }
    }

    /// Set the degree of parallelism.
    pub fn with_threads(mut self, threads: Threads) -> Self {
        self.threads = threads;
        self
    }

    /// Set the selection access-path policy.
    pub fn with_access(mut self, access: AccessMode) -> Self {
        self.access = access;
        self
    }

    /// Set the compressed-column policy.
    pub fn with_compress(mut self, compress: CompressMode) -> Self {
        self.compress = compress;
        self
    }

    /// Set the candidate-pushdown policy.
    pub fn with_pushdown(mut self, pushdown: PushdownMode) -> Self {
        self.pushdown = pushdown;
        self
    }

    /// Impose a hard per-operator thread ceiling (`cap >= 1`), on top of
    /// whatever [`Threads`] setting is active. Used by the query service to
    /// confine one query to its leased slice of the global thread budget.
    pub fn with_thread_cap(mut self, cap: usize) -> Self {
        self.thread_cap = Some(cap.max(1));
        self
    }
}

impl Default for ExecOptions {
    fn default() -> Self {
        Self::cost_model(memsim::profiles::origin2000())
    }
}

/// Upper bound on what [`Threads::Auto`] will ever spawn, on top of the
/// host's reported available parallelism.
const MAX_AUTO_THREADS: usize = 32;

/// Resolve one operator's thread count (and, under [`Threads::Auto`], the
/// model-predicted speedup): `seq_ns` is the operator's sequential model
/// quote, `items` its uniform work items. Simulated runs get the same
/// count as native ones: each worker charges a hierarchy of its own.
fn op_threads(opts: &ExecOptions, seq_ns: f64, items: usize) -> (usize, Option<f64>) {
    let ceiling = opts.thread_cap.unwrap_or(usize::MAX).max(1);
    match opts.threads {
        Threads::Fixed(n) => (n.max(1).min(ceiling), None),
        // A one-thread lease leaves the model nothing to choose, and asking
        // the host for its parallelism costs file reads on every operator.
        Threads::Auto if ceiling == 1 => (1, None),
        Threads::Auto => {
            let cap = std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
                .min(MAX_AUTO_THREADS)
                .min(ceiling);
            let plan = ParallelModel::for_machine(&opts.machine, cap).best_threads(seq_ns, items);
            (plan.threads, Some(plan.speedup()))
        }
    }
}

/// Render an operator's parallelism decision for the report detail.
fn threads_detail(threads: usize, speedup: Option<f64>) -> String {
    match (threads, speedup) {
        (1, _) => String::new(),
        (n, Some(s)) => format!("; threads={n} (model {s:.1}x)"),
        (n, None) => format!("; threads={n}"),
    }
}

/// A structured annotation on an operator's execution — facts that used to
/// live only in the free-text `detail` string, now matchable without string
/// parsing. `detail` still renders them for humans.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AccessNote {
    /// `provided` of the filter's `total` predicate leaves consumed
    /// candidate lists a cooperative shared-scan pass produced, so this
    /// operator skipped that scan work.
    SharedLeaves {
        /// Leaves whose candidates arrived via the scan ticket.
        provided: usize,
        /// Total predicate leaves in the filter.
        total: usize,
    },
    /// The planner ordered this AND filter's leaves for candidate-list
    /// pushdown: each leaf after the first evaluated only the survivors of
    /// the leaves before it.
    Pushdown {
        /// Chosen evaluation order, as indices into the filter's leaves in
        /// predicate order.
        order: Vec<usize>,
        /// Per leaf (predicate order): the candidate-list size it consumed,
        /// `None` for the leaf that ran its full pass.
        cands_in: Vec<Option<usize>>,
    },
}

impl fmt::Display for AccessNote {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AccessNote::SharedLeaves { provided, total } => {
                write!(f, "{provided}/{total} leaves via shared scan")
            }
            AccessNote::Pushdown { order, cands_in } => {
                let order: Vec<String> = order.iter().map(|i| i.to_string()).collect();
                let restricted = cands_in.iter().filter(|k| k.is_some()).count();
                write!(
                    f,
                    "pushdown order [{}], {restricted}/{} leaves restricted",
                    order.join(","),
                    cands_in.len()
                )
            }
        }
    }
}

/// What one operator did.
#[derive(Debug, Clone, Default)]
pub struct OpReport {
    /// Operator name, e.g. `select(item)` or `join[qty = id]`.
    pub op: String,
    /// Rows entering the operator.
    pub rows_in: usize,
    /// Rows leaving the operator.
    pub rows_out: usize,
    /// The physical decision taken and/or its model-predicted cost.
    pub detail: String,
    /// Simulated memory-system events consumed by this operator, when the
    /// tracker counts ([`None`] under `NullTracker`).
    pub counters: Option<EventCounters>,
    /// Selection operators: the access-path decision per predicate leaf
    /// (scan vs. which index, with both model quotes).
    pub access: Vec<AccessDecision>,
    /// Structured annotations (e.g. shared-scan participation) — the
    /// machine-readable form of facts `detail` renders as text.
    pub notes: Vec<AccessNote>,
    /// Joins: the index was passed on in the cluster order the join
    /// produced it in, because its consumer is an aggregate, which folds
    /// exactly and so does not observe row order — no canonical pass ran.
    /// `detail` says so too.
    pub cluster_order: bool,
    /// The cost-model shapes for the work this operator performed *itself*
    /// (index probes and leaves fed by a shared pass are excluded): what the
    /// model would quote for exactly the kernels that ran. Drift monitors
    /// compare these quotes against observed counters.
    pub shapes: Vec<OpShape>,
    /// Parallel runs: this operator's row counters sharded per thread
    /// (select: matches produced per chunk, summed over scanning leaves;
    /// aggregate: input rows each fold worker accumulated, one row chunk
    /// each; join: result pairs produced per cluster-pair worker block).
    /// `rows_out` stays the merged total; sequential runs carry `None`.
    pub rows_per_thread: Option<Vec<usize>>,
    /// Sharded runs (`crate::dist`): this operator's simulated counters per
    /// table shard, in shard order. `counters` stays the merged total (the
    /// per-shard deltas sum to it — shards execute sequentially under one
    /// tracker), so global SimTracker accounting is unchanged; unsharded
    /// runs carry `None`.
    pub counters_per_shard: Option<Vec<Option<EventCounters>>>,
}

/// Per-operator execution trace, returned alongside every query result.
#[derive(Debug, Clone, Default)]
pub struct ExecReport {
    /// Operators in execution order.
    pub ops: Vec<OpReport>,
    /// Planner that made the physical choices.
    pub planner: &'static str,
}

impl ExecReport {
    /// Total simulated milliseconds across operators (0 under `NullTracker`).
    pub fn simulated_ms(&self) -> f64 {
        self.ops.iter().filter_map(|o| o.counters.as_ref()).map(|c| c.elapsed_ms()).sum()
    }
}

impl fmt::Display for ExecReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let simulated = self.ops.iter().any(|o| o.counters.is_some());
        writeln!(f, "physical plan (planner: {}):", self.planner)?;
        write!(f, "{:>2}  {:<24} {:>10} {:>10}", "#", "operator", "rows in", "rows out")?;
        if simulated {
            write!(f, " {:>9} {:>9} {:>9} {:>9}", "sim ms", "L1 miss", "L2 miss", "TLB miss")?;
        }
        writeln!(f, "  decision")?;
        for (i, op) in self.ops.iter().enumerate() {
            write!(f, "{:>2}  {:<24} {:>10} {:>10}", i + 1, op.op, op.rows_in, op.rows_out)?;
            if simulated {
                match &op.counters {
                    Some(c) => write!(
                        f,
                        " {:>9.2} {:>9} {:>9} {:>9}",
                        c.elapsed_ms(),
                        c.l1_misses,
                        c.l2_misses,
                        c.tlb_misses
                    )?,
                    None => write!(f, " {:>9} {:>9} {:>9} {:>9}", "-", "-", "-", "-")?,
                }
            }
            writeln!(f, "  {}", op.detail)?;
        }
        Ok(())
    }
}

/// One computed aggregate value.
#[derive(Debug, Clone, PartialEq)]
pub enum AggValue {
    /// An integer sum.
    I64(i64),
    /// A float sum (grouped sums are always `F64`).
    F64(f64),
    /// A min/max (`None` when no rows qualified).
    MaybeI32(Option<i32>),
    /// A row count.
    Count(usize),
}

impl AggValue {
    /// The value as `f64` (`NaN` for an empty min/max).
    pub fn as_f64(&self) -> f64 {
        match self {
            AggValue::I64(v) => *v as f64,
            AggValue::F64(v) => *v,
            AggValue::MaybeI32(v) => v.map_or(f64::NAN, |x| x as f64),
            AggValue::Count(v) => *v as f64,
        }
    }
}

impl fmt::Display for AggValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AggValue::I64(v) => write!(f, "{v}"),
            AggValue::F64(v) => write!(f, "{v:.2}"),
            AggValue::MaybeI32(Some(v)) => write!(f, "{v}"),
            AggValue::MaybeI32(None) => write!(f, "null"),
            AggValue::Count(v) => write!(f, "{v}"),
        }
    }
}

/// One row of a grouped aggregation: decoded key plus one value per
/// aggregate, in the order they were added to the [`crate::plan::Query`].
#[derive(Debug, Clone, PartialEq)]
pub struct GroupRow {
    /// Decoded group key.
    pub key: String,
    /// Aggregate values.
    pub values: Vec<AggValue>,
}

/// The result rows of an executed plan; the variant follows the plan shape.
#[derive(Debug, Clone, PartialEq)]
pub enum QueryOutput {
    /// `group_by` + aggregates: one row per occurring group, ascending by
    /// key code.
    Groups(Vec<GroupRow>),
    /// Aggregates without grouping: one value per aggregate.
    Aggregates(Vec<AggValue>),
    /// Bare scan/filter: qualifying OIDs, ascending.
    Oids(Vec<Oid>),
    /// Join without aggregation: the `[OID, OID]` join index.
    JoinIndex(Vec<OidPair>),
}

impl QueryOutput {
    /// Representation-level equality: like `==`, but `f64` aggregates must
    /// match *bit for bit* — `==` would conflate `0.0` with `-0.0`, which
    /// is weaker than the executor's determinism contract (every `f64` sum
    /// is correctly rounded, the same bits at every thread and shard count).
    pub fn bitwise_eq(&self, other: &QueryOutput) -> bool {
        fn agg_eq(a: &AggValue, b: &AggValue) -> bool {
            match (a, b) {
                (AggValue::F64(x), AggValue::F64(y)) => x.to_bits() == y.to_bits(),
                _ => a == b,
            }
        }
        match (self, other) {
            (QueryOutput::Groups(a), QueryOutput::Groups(b)) => {
                a.len() == b.len()
                    && a.iter().zip(b).all(|(ga, gb)| {
                        ga.key == gb.key
                            && ga.values.len() == gb.values.len()
                            && ga.values.iter().zip(&gb.values).all(|(x, y)| agg_eq(x, y))
                    })
            }
            (QueryOutput::Aggregates(a), QueryOutput::Aggregates(b)) => {
                a.len() == b.len() && a.iter().zip(b).all(|(x, y)| agg_eq(x, y))
            }
            (a, b) => a == b,
        }
    }
}

/// A query result: output rows plus the per-operator execution trace.
#[derive(Debug, Clone)]
pub struct Executed {
    /// The result rows.
    pub output: QueryOutput,
    /// What each operator did and what it chose.
    pub report: ExecReport,
}

/// Rows flowing between operators during execution.
enum Stream<'a> {
    /// Rows of one table, optionally restricted to candidate OIDs — shared,
    /// so a list a cooperative pass delivered flows to its consumer as it
    /// stands.
    Table { table: &'a DecomposedTable, cands: Option<Arc<CandList>> },
    /// Row pairs of the plan's join.
    Joined { pairs: Vec<OidPair> },
}

/// Execute a validated plan, returning results and the per-operator report:
/// [`crate::physical::plan`] under `opts`, then [`execute_with_scans`]
/// with nothing provided.
///
/// Generic over [`MemTracker`]: run with `NullTracker` for native speed or a
/// `SimTracker` to attribute simulated miss counts to each operator in the
/// report.
pub fn execute<M: MemTracker>(
    trk: &mut M,
    plan: &LogicalPlan<'_>,
    opts: &ExecOptions,
) -> Result<Executed, EngineError> {
    let physical = crate::physical::plan(trk, plan, opts)?;
    execute_with_scans(trk, &physical, &ScanTicket::new())
}

/// Run a physical plan's operators in order, with externally produced
/// candidate lists: any predicate leaf covered by `ticket` (keyed by the
/// leaf numbering of [`PhysicalPlan::requests`]) consumes the provided list
/// instead of being evaluated — the seam a multi-query scheduler uses to
/// feed one cooperative scan pass into many executions. The plan is not
/// revisited: a shared leaf is never restricted, so its full list is what
/// the plan evaluates anyway. Results are bit-identical to [`execute`]
/// provided the ticket honours [`ScanTicket::provide`]'s contract.
pub fn execute_with_scans<M: MemTracker>(
    trk: &mut M,
    physical: &PhysicalPlan<'_>,
    ticket: &ScanTicket,
) -> Result<Executed, EngineError> {
    let opts = &physical.opts;
    let mut report = ExecReport { ops: Vec::new(), planner: "cost model" };
    // The streams the operators so far left, the last on top: a join
    // meets two.
    let mut streams: Vec<Stream<'_>> = Vec::with_capacity(2);
    let mut folded = None;
    for op in &physical.ops {
        let before = trk.counters_snapshot();
        let done = match op {
            Op::Scan(table) => {
                streams.push(Stream::Table { table, cands: None });
                OpReport {
                    op: format!("scan({})", table.name()),
                    rows_in: table.len(),
                    rows_out: table.len(),
                    detail: format!(
                        "virtual: {} void BATs, {} B/tuple; no data touched until a kernel runs",
                        table.columns().len(),
                        table.bytes_per_tuple()
                    ),
                    ..OpReport::default()
                }
            }
            Op::Filter(f) => {
                let Some(Stream::Table { table, cands }) = streams.pop() else {
                    unreachable!("the physical plan filters table streams only")
                };
                let (pred, nleaves) = (f.pred, leaves_of(f.pred).len());
                let provided: Vec<Option<Arc<CandList>>> =
                    (0..nleaves).map(|i| ticket.get(f.first_leaf + i).cloned()).collect();
                let pplan = f.plan.settle(&provided);
                let model_ms = pplan.model_ms();
                // The parallel model only sees the scanning leaves (index
                // probes are a handful of node touches; never forked).
                let (threads, speedup) = op_threads(opts, pplan.scan_work_ns(), table.len());
                // A list a shared pass delivered for the filter's only leaf
                // is its result: borrowed, not copied.
                let (selected, shards) = match &provided[..] {
                    [Some(list)] => (Arc::clone(list), None),
                    _ => {
                        let (selected, shards) =
                            eval_planned(trk, table, pred, &pplan, &provided, threads)?;
                        (Arc::new(selected), shards)
                    }
                };
                let merged = match cands {
                    Some(prior) => Arc::new(intersect(&prior, &selected)),
                    None => selected,
                };
                let mut notes = Vec::new();
                if pplan.provided_leaves() > 0 {
                    let provided = pplan.provided_leaves();
                    notes.push(AccessNote::SharedLeaves { provided, total: nleaves });
                }
                if let Some(order) = pplan.order() {
                    let (order, cands_in) = (order.to_vec(), pplan.cands_in());
                    notes.push(AccessNote::Pushdown { order, cands_in });
                }
                let shared_note: String = notes.iter().map(|n| format!("; {n}")).collect();
                let threads = threads_detail(threads, speedup);
                let detail = if pplan.uses_index() || pplan.provided_leaves() > 0 {
                    let via = pplan.detail();
                    format!(
                        "select [{pred}] via {via}; model {model_ms:.2} ms{threads}{shared_note}"
                    )
                } else {
                    format!("scan-select [{pred}]; model {model_ms:.2} ms{threads}")
                };
                let done = OpReport {
                    op: format!("select({})", table.name()),
                    rows_in: table.len(),
                    rows_out: merged.len(),
                    detail,
                    access: pplan.decisions(),
                    notes,
                    shapes: pplan.shapes(),
                    rows_per_thread: shards,
                    ..OpReport::default()
                };
                streams.push(Stream::Table { table, cands: Some(merged) });
                done
            }
            Op::Join(j) => {
                let (Some(Stream::Table { cands: rc, .. }), Some(Stream::Table { cands: lc, .. })) =
                    (streams.pop(), streams.pop())
                else {
                    unreachable!("the physical plan joins two table streams")
                };
                let left = (j.left, lc.as_deref().map(Vec::as_slice));
                let right = (j.right, rc.as_deref().map(Vec::as_slice));
                let rows = |(bat, cands): Operand<'_>| cands.map_or(bat.len(), <[Oid]>::len);
                let (outer, inner) = (rows(left), rows(right));
                // The planned algorithm on the actual rows: its price (the
                // quote's, at the larger side), and how many threads are
                // worth forking for it.
                let shape = OpShape::join(outer, inner, &j.plan);
                let seq_ns = op_costs_ns(&opts.machine, &[shape])[0];
                let (threads, speedup) = if algorithm_parallelizes(j.plan.algorithm) {
                    op_threads(opts, seq_ns, outer + inner)
                } else {
                    (1, None)
                };
                let (pairs, join_shards) = join_operands(trk, left, right, &j.plan, threads)?;
                // The candidate lists are spent: free them before a
                // canonical pass takes its scratch copy of the index.
                drop((lc, rc));
                // Every join algorithm (and thread count) emits the same
                // pair set, but in its own cluster order. A returned index
                // is the result, so counting passes over the left OIDs
                // restore (left, right) order in linear time: that makes it
                // independent of the physical plan, and lets co-partitioned
                // shard joins merge bit-identically (see `crate::dist`). An
                // aggregate folds exactly and takes the pairs as they come.
                let pairs = if j.canonical { canonicalize(trk, pairs) } else { pairs };
                let done = OpReport {
                    op: format!("join[{} = {}]", j.left_col, j.right_col),
                    rows_in: outer + inner,
                    rows_out: pairs.len(),
                    detail: format!(
                        "cost model: {:?} B={} passes={:?}, predicted {:.2} ms{}{}",
                        j.plan.algorithm,
                        j.plan.bits,
                        j.plan.pass_bits,
                        seq_ns / 1e6,
                        threads_detail(threads, speedup),
                        if j.canonical { "" } else { "; index left in cluster order" }
                    ),
                    cluster_order: !j.canonical,
                    shapes: vec![shape],
                    rows_per_thread: join_shards,
                    ..OpReport::default()
                };
                streams.push(Stream::Joined { pairs });
                done
            }
            Op::Fold(f) => {
                let rows = match streams.last() {
                    Some(Stream::Table { table, cands: None }) => Rows::All(table.len()),
                    Some(Stream::Table { cands: Some(cands), .. }) => Rows::Cands(cands),
                    Some(Stream::Joined { pairs }) => Rows::Pairs(pairs),
                    None => unreachable!("the physical plan folds a stream"),
                };
                let rows_in = rows.len();
                // Parallel quote: the gathers alone (one 8-byte-stride pass
                // per column the fold gathers — each distinct one once, plus
                // the key). The fold splits every sink in row chunks (see
                // `crate::aggregate`), so the accumulation divides too, but
                // it is left out of the quote: an unrestricted scan stream
                // is folded where it lies — nothing is gathered, so Auto
                // keeps it sequential. A deliberate lower bound: gathers
                // access randomly and the accumulation is left out, so this
                // only *under*-forks.
                let model = ModelMachine::new(&opts.machine);
                let gather_ns = scan_cost(&model, rows_in.max(1), 8).total_ns() * f.gathered as f64;
                let (threads, speedup) = op_threads(opts, gather_ns, rows_in);
                let key_col = f.key.map(|(_, col)| col);
                let acc = fold(trk, rows, key_col, &f.sinks, threads)?;
                let output = agg_output(key_col.map(|k| k.bat), f.aggs, &acc);
                let threads = threads_detail(threads, speedup);
                let (op, detail, rows_out) = match (f.key, &output) {
                    (Some((key, _)), QueryOutput::Groups(groups)) => (
                        format!("group({key})"),
                        format!(
                            "hash-group: direct-indexed, {}-slot table ({} occupied) fits cache{threads}",
                            acc.counts.len(),
                            groups.len(),
                        ),
                        groups.len(),
                    ),
                    _ => {
                        let labels: Vec<String> = f.aggs.iter().map(|a| a.to_string()).collect();
                        let labels = labels.join(", ");
                        ("aggregate".to_owned(), format!("scan aggregate [{labels}]{threads}"), 1)
                    }
                };
                folded = Some(output);
                OpReport {
                    op,
                    rows_in,
                    rows_out,
                    detail,
                    // The fold's two charges: the gathers it made, then the
                    // accumulation.
                    shapes: f.shapes(rows_in),
                    // The rows each worker of a parallel fold accumulated.
                    rows_per_thread: (acc.shards.len() > 1).then_some(acc.shards),
                    ..OpReport::default()
                }
            }
        };
        // Planning's B+-tree counts are booked to the filter they planned,
        // so op counters still sum to the tracker's.
        let counters = match op {
            Op::Scan(_) => None,
            Op::Filter(f) => delta(trk, before).map(|c| f.planning.map_or(c, |p| c + p)),
            _ => delta(trk, before),
        };
        report.ops.push(OpReport { counters, ..done });
    }
    let output = match (folded, streams.pop()) {
        (Some(output), _) => output,
        (None, Some(Stream::Table { table, cands })) => QueryOutput::Oids(match cands {
            Some(cands) => Arc::try_unwrap(cands).unwrap_or_else(|shared| (*shared).clone()),
            None => (0..table.len() as Oid).map(|i| table.seqbase() + i).collect(),
        }),
        (None, Some(Stream::Joined { pairs })) => QueryOutput::JoinIndex(pairs),
        (None, None) => unreachable!("a physical plan yields a stream"),
    };
    Ok(Executed { output, report })
}

/// The counters `trk` gained since the snapshot `before`, when it counts.
pub(crate) fn delta<M: MemTracker>(
    trk: &M,
    before: Option<EventCounters>,
) -> Option<EventCounters> {
    match (trk.counters_snapshot(), before) {
        (Some(after), Some(before)) => Some(after - before),
        _ => None,
    }
}

/// The column `col` of a stream over `left` (joined to `right`, if any) and
/// the side of a join pair that addresses it. Validation guaranteed it
/// exists on one side; left wins, as in the builder.
pub(crate) fn input_of<'a>(
    left: &'a DecomposedTable,
    right: Option<&'a DecomposedTable>,
    col: &str,
) -> Result<Input<'a>, EngineError> {
    match (left.bat(col), right) {
        (Ok(bat), _) => Ok(Input { bat, side: Side::Left }),
        (Err(e), None) => Err(e.into()),
        (Err(_), Some(right)) => Ok(Input { bat: right.bat(col)?, side: Side::Right }),
    }
}

/// The base table of a stream subtree and, for a join, its right base
/// table.
pub(crate) fn base_tables<'a>(
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

/// Each column aggregate of `aggs`, resolved by `input`, paired with the
/// sink [`fold`] gives it — the one mapping from aggregates to sinks, for
/// the executor's fold, the shard partial builder and the coordinator's
/// merge. Extrema and integer sums fold in integers ([`Sink::SumI64`]: a
/// grouped one is reported as its `f64`, see [`agg_output`]), a sum of an
/// `F64` column in an exact `f64` sum ([`Sink::SumF64`]).
pub(crate) fn agg_sinks<'a>(
    input: impl Fn(&str) -> Result<Input<'a>, EngineError>,
    aggs: &[Agg],
) -> Result<Vec<(Input<'a>, Sink)>, EngineError> {
    let columns = aggs.iter().filter_map(|agg| Some((agg, agg.column()?)));
    columns
        .map(|(agg, col)| {
            let col = input(col)?;
            let sink = match agg {
                Agg::Min(_) => Sink::Min,
                Agg::Max(_) => Sink::Max,
                _ if matches!(col.bat.tail(), Column::F64(_)) => Sink::SumF64,
                _ => Sink::SumI64,
            };
            Ok((col, sink))
        })
        .collect()
}

/// The output rows of folded `aggs`: one [`GroupRow`] per occurring group
/// (ascending by key code, decoded through `key`'s dictionary), or the bare
/// aggregate values when ungrouped. A grouped sum is always an `f64`: an
/// integer one is its exact `i64` total, rounded once.
pub(crate) fn agg_output(key: Option<&Bat>, aggs: &[Agg], folded: &Folded) -> QueryOutput {
    let grouped = key.is_some();
    let values = |code: usize| -> Vec<AggValue> {
        let rows = folded.counts[code];
        let mut cols = folded.cols.iter();
        let mut next = || cols.next().expect("one folded column per non-count aggregate");
        aggs.iter()
            .map(|agg| match agg {
                Agg::Count => AggValue::Count(rows as usize),
                Agg::Sum(_) => match next() {
                    Acc::Exact(sums) if grouped => AggValue::F64(sums[code] as f64),
                    Acc::Exact(sums) => AggValue::I64(sums[code]),
                    sums => AggValue::F64(sums.f64_sum(code).expect("an f64 sink")),
                },
                Agg::Min(_) | Agg::Max(_) => match next() {
                    // A group without rows holds the sink's identity.
                    Acc::Exact(ext) => AggValue::MaybeI32((rows > 0).then_some(ext[code] as i32)),
                    Acc::F64(_) => unreachable!("extrema fold exactly"),
                },
            })
            .collect()
    };
    let Some(key) = key else { return QueryOutput::Aggregates(values(0)) };
    let decode = |code: usize| match key.tail() {
        Column::Str(sc) => sc.dict.decode(code as u32).to_owned(),
        _ => code.to_string(),
    };
    QueryOutput::Groups(
        (0..folded.counts.len())
            .filter(|&code| folded.counts[code] > 0)
            .map(|code| GroupRow { key: decode(code), values: values(code) })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{PlanNode, Pred, Query};
    use memsim::{profiles, NullTracker, SimTracker};
    use monet_core::storage::{ColType, TableBuilder, Value};

    fn item() -> DecomposedTable {
        let mut b = TableBuilder::new("item", 100)
            .column("qty", ColType::I32)
            .column("price", ColType::F64)
            .column("discnt", ColType::F64)
            .column("shipmode", ColType::Str);
        let rows = [
            (1, 10.0, 0.00, "AIR"),
            (2, 20.0, 0.10, "MAIL"),
            (3, 40.0, 0.10, "AIR"),
            (4, 80.0, 0.00, "SHIP"),
            (5, 160.0, 0.05, "MAIL"),
        ];
        for (q, p, d, s) in rows {
            b.push_row(&[Value::I32(q), Value::F64(p), Value::F64(d), Value::from(s)]).unwrap();
        }
        b.finish()
    }

    fn run(q: Query<'_>) -> Executed {
        let plan = q.build().unwrap();
        execute(&mut NullTracker, &plan, &ExecOptions::default()).unwrap()
    }

    #[test]
    fn grouped_sum_pipeline() {
        let t = item();
        let r = run(Query::scan(&t)
            .filter(Pred::range_f64("discnt", 0.05, 0.10))
            .group_by("shipmode")
            .agg(Agg::sum("price"))
            .agg(Agg::count()));
        let QueryOutput::Groups(mut rows) = r.output else { panic!("groups") };
        rows.sort_by(|a, b| a.key.cmp(&b.key));
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].key, "AIR");
        assert_eq!(rows[0].values, vec![AggValue::F64(40.0), AggValue::Count(1)]);
        assert_eq!(rows[1].key, "MAIL");
        assert_eq!(rows[1].values, vec![AggValue::F64(180.0), AggValue::Count(2)]);
        // Report covers scan, select, group.
        assert_eq!(r.report.ops.len(), 3);
        assert_eq!(r.report.ops[1].rows_out, 3);
        assert_eq!(r.report.ops[2].rows_out, 2);
    }

    #[test]
    fn missing_dictionary_constant_is_an_empty_selection() {
        let t = item();
        // "WALRUS" is not in the shipmode dictionary: provably empty, and
        // per the module doc contract NOT an error.
        let r = run(Query::scan(&t)
            .filter(Pred::eq_str("shipmode", "WALRUS"))
            .group_by("shipmode")
            .agg(Agg::sum("price")));
        assert_eq!(r.output, QueryOutput::Groups(vec![]));

        // Same under OR: the empty leaf contributes nothing.
        let r = run(Query::scan(&t)
            .filter(Pred::eq_str("shipmode", "WALRUS").or(Pred::eq_str("shipmode", "SHIP"))));
        assert_eq!(r.output, QueryOutput::Oids(vec![103]));
    }

    #[test]
    fn bare_select_and_scalar_aggregates() {
        let t = item();
        let r = run(Query::scan(&t).filter(Pred::range_i32("qty", 2, 4)));
        assert_eq!(r.output, QueryOutput::Oids(vec![101, 102, 103]));

        let r = run(Query::scan(&t)
            .filter(Pred::range_i32("qty", 2, 4))
            .agg(Agg::sum("qty"))
            .agg(Agg::sum("price"))
            .agg(Agg::min("qty"))
            .agg(Agg::max("qty"))
            .agg(Agg::count()));
        assert_eq!(
            r.output,
            QueryOutput::Aggregates(vec![
                AggValue::I64(9),
                AggValue::F64(140.0),
                AggValue::MaybeI32(Some(2)),
                AggValue::MaybeI32(Some(4)),
                AggValue::Count(3),
            ])
        );
    }

    #[test]
    fn full_table_scan_without_filter() {
        let t = item();
        let r = run(Query::scan(&t));
        assert_eq!(r.output, QueryOutput::Oids(vec![100, 101, 102, 103, 104]));
        let r = run(Query::scan(&t).group_by("shipmode").agg(Agg::count()));
        let QueryOutput::Groups(rows) = r.output else { panic!("groups") };
        assert_eq!(rows.len(), 3);
        let total: usize = rows
            .iter()
            .map(|r| match r.values[0] {
                AggValue::Count(c) => c,
                _ => 0,
            })
            .sum();
        assert_eq!(total, 5);
    }

    #[test]
    fn join_is_planned_by_the_cost_model() {
        let t = item();
        let mut b =
            TableBuilder::new("qtyinfo", 0).column("q", ColType::I32).column("bonus", ColType::F64);
        for (q, f) in [(2, 1.0), (3, 2.0), (4, 4.0), (9, 8.0)] {
            b.push_row(&[Value::I32(q), Value::F64(f)]).unwrap();
        }
        let info = b.finish();

        let plan = Query::scan(&t)
            .filter(Pred::range_i32("qty", 2, 9))
            .join(&info, ("qty", "q"))
            .agg(Agg::sum("bonus"))
            .agg(Agg::sum("price"))
            .build()
            .unwrap();
        let r = execute(&mut NullTracker, &plan, &ExecOptions::default()).unwrap();
        // qty 2, 3, 4 match; bonus 1+2+4, price 20+40+80.
        assert_eq!(
            r.output,
            QueryOutput::Aggregates(vec![AggValue::F64(7.0), AggValue::F64(140.0)])
        );
        let join_op = r.report.ops.iter().find(|o| o.op.starts_with("join")).unwrap();
        assert!(join_op.detail.starts_with("cost model:"), "{}", join_op.detail);
        assert!(join_op.detail.contains("predicted"), "{}", join_op.detail);
        assert_eq!(join_op.rows_out, 3);
    }

    #[test]
    fn join_index_output_and_grouped_join() {
        let t = item();
        let mut b = TableBuilder::new("dim", 50).column("q", ColType::I32);
        for q in [1, 2, 5] {
            b.push_row(&[Value::I32(q)]).unwrap();
        }
        let dim = b.finish();

        // The index comes back canonical as returned — strictly ascending
        // in (left, right), what `dist::merge` relies on — at every
        // thread count.
        let plan = Query::scan(&t).join(&dim, ("qty", "q")).build().unwrap();
        for threads in [1, 2, 4] {
            let opts = ExecOptions::default().with_threads(Threads::Fixed(threads));
            let r = execute(&mut NullTracker, &plan, &opts).unwrap();
            let QueryOutput::JoinIndex(pairs) = r.output else { panic!("join index") };
            assert!(pairs.windows(2).all(|w| w[0] < w[1]), "threads={threads}: {pairs:?}");
            assert_eq!(
                pairs,
                [OidPair::new(100, 50), OidPair::new(101, 51), OidPair::new(104, 52)],
                "threads={threads}"
            );
        }

        // Grouping a join result on a left-side key.
        let r = run(Query::scan(&t)
            .join(&dim, ("qty", "q"))
            .group_by("shipmode")
            .agg(Agg::sum("price")));
        let QueryOutput::Groups(mut rows) = r.output else { panic!("groups") };
        rows.sort_by(|a, b| a.key.cmp(&b.key));
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].key, "AIR");
        assert_eq!(rows[0].values, vec![AggValue::F64(10.0)]);
        assert_eq!(rows[1].key, "MAIL");
        assert_eq!(rows[1].values, vec![AggValue::F64(180.0)]);
    }

    #[test]
    fn a_join_index_stays_in_cluster_order_exactly_when_no_consumer_observes_it() {
        let t = item();
        let mut b = TableBuilder::new("dim", 50)
            .column("q", ColType::I32)
            .column("rank", ColType::I32)
            .column("bonus", ColType::F64);
        for (q, r, f) in [(1, 7, 0.5), (2, 3, 1.0), (2, 9, 2.0), (5, 4, 8.0)] {
            b.push_row(&[Value::I32(q), Value::I32(r), Value::F64(f)]).unwrap();
        }
        let dim = b.finish();
        let joined = || Query::scan(&t).join(&dim, ("qty", "q"));
        // No aggregate observes order, `f64` sums included: they fold
        // exactly.
        let shapes: [(&[Agg], Option<&str>); 10] = [
            (&[Agg::count()], None),
            (&[Agg::sum("qty"), Agg::sum("rank")], None),
            (&[Agg::min("rank"), Agg::max("qty"), Agg::count()], None),
            (&[Agg::sum("price")], None),
            (&[Agg::sum("bonus"), Agg::count()], None),
            (&[Agg::sum("rank"), Agg::sum("discnt")], None),
            (&[Agg::count()], Some("shipmode")),
            (&[Agg::min("qty"), Agg::max("rank"), Agg::count()], Some("shipmode")),
            (&[Agg::sum("rank")], Some("shipmode")),
            (&[Agg::max("qty"), Agg::sum("bonus")], Some("shipmode")),
        ];
        for (aggs, key) in shapes {
            let q = key.map_or_else(joined, |k| joined().group_by(k));
            let r = run(aggs.iter().fold(q, |q, agg| q.agg(agg.clone())));
            let join = r.report.ops.iter().find(|o| o.op.starts_with("join")).unwrap();
            assert!(join.cluster_order, "{aggs:?} by {key:?}");
            assert!(join.detail.contains("cluster order"), "{}", join.detail);
        }
        // A returned index is observed.
        let r = run(joined());
        assert!(r.report.ops.iter().all(|o| !o.cluster_order));
    }

    #[test]
    fn simulated_execution_attributes_counters_per_op() {
        let t = item();
        let plan = Query::scan(&t)
            .filter(Pred::range_f64("discnt", 0.0, 0.10))
            .group_by("shipmode")
            .agg(Agg::sum("price"))
            .build()
            .unwrap();
        let mut trk = SimTracker::for_machine(profiles::origin2000());
        let r = execute(&mut trk, &plan, &ExecOptions::default()).unwrap();
        let select = &r.report.ops[1];
        assert!(select.counters.is_some());
        assert!(select.counters.as_ref().unwrap().reads > 0);
        assert!(r.report.simulated_ms() > 0.0);
        // The rendered report carries the simulated columns.
        let text = r.report.to_string();
        assert!(text.contains("sim ms"), "{text}");
        assert!(text.contains("scan-select"), "{text}");
    }

    #[test]
    fn an_unrestricted_grouped_sum_reads_every_value_once() {
        // SUM over an I32 column is accumulated as f64; over a whole table
        // the conversion must not cost a copy of the column, a second read
        // or gather work no `OpShape` of the op prices.
        let t = item();
        let plan = Query::scan(&t).group_by("shipmode").agg(Agg::sum("qty")).build().unwrap();
        let mut trk = SimTracker::for_machine(profiles::origin2000());
        let r = execute(&mut trk, &plan, &ExecOptions::default()).unwrap();
        let op = r.report.ops.last().unwrap();
        assert_eq!(
            op.shapes,
            vec![OpShape::Aggregate { rows: t.len(), columns: 1, grouped: true }],
            "nothing is gathered"
        );
        let counters = op.counters.as_ref().unwrap();
        assert_eq!(counters.reads as usize, t.len() * 2, "one key and one value per row");
        let hash_ns = profiles::origin2000().work.hash_tuple_ns;
        assert_eq!(counters.cpu_ns, t.len() as f64 * hash_ns, "and one slot update per row");
    }

    #[test]
    fn hand_built_invalid_tree_errors_instead_of_panicking() {
        // PlanNode fields are public; an aggregate below another operator
        // (impossible via the builder) must surface as an error.
        let t = item();
        let inner = Query::scan(&t).group_by("shipmode").agg(Agg::count()).build().unwrap();
        let bad = LogicalPlan {
            root: PlanNode::Filter {
                input: Box::new(inner.root),
                pred: Pred::range_i32("qty", 0, 1),
            },
        };
        let err = execute(&mut NullTracker, &bad, &ExecOptions::default()).unwrap_err();
        assert!(matches!(err, EngineError::Plan(_)), "{err:?}");
    }

    #[test]
    fn a_join_predicts_the_price_of_the_shape_it_reports() {
        // 5 fact rows against a 2-row dimension: the *plan* follows the tiny
        // inner side, and the predicted time is the one price of the shape
        // the report carries — the plan that ran, at the actual rows.
        let t = item();
        let mut b = TableBuilder::new("dim", 0).column("q", ColType::I32);
        for q in [1, 2] {
            b.push_row(&[Value::I32(q)]).unwrap();
        }
        let dim = b.finish();
        let plan = Query::scan(&t).join(&dim, ("qty", "q")).build().unwrap();
        let r = execute(&mut NullTracker, &plan, &ExecOptions::default()).unwrap();
        let join_op = r.report.ops.iter().find(|o| o.op.starts_with("join")).unwrap();

        let machine = profiles::origin2000();
        let (jp, _) = costmodel::plan::plan_join(&machine, 2);
        assert_eq!(join_op.shapes, [OpShape::join(5, 2, &jp)]);
        let expect_ms = op_costs_ns(&machine, &join_op.shapes)[0] / 1e6;
        assert!(
            join_op.detail.contains(&format!("predicted {expect_ms:.2} ms")),
            "detail {:?} should predict its shape's price ({expect_ms:.2})",
            join_op.detail
        );
    }

    #[test]
    fn report_renders_without_simulation_too() {
        let t = item();
        let r = run(Query::scan(&t).filter(Pred::range_i32("qty", 1, 3)));
        let text = r.report.to_string();
        assert!(!text.contains("sim ms"), "{text}");
        assert!(text.contains("select(item)"), "{text}");
    }

    #[test]
    fn fixed_threads_match_sequential_and_are_reported() {
        let t = item();
        let mut b =
            TableBuilder::new("qtyinfo", 0).column("q", ColType::I32).column("bonus", ColType::F64);
        for (q, f) in [(1, 0.5), (2, 1.0), (3, 2.0), (4, 4.0), (5, 8.5)] {
            b.push_row(&[Value::I32(q), Value::F64(f)]).unwrap();
        }
        let info = b.finish();
        let plan = Query::scan(&t)
            .filter(Pred::range_i32("qty", 1, 4))
            .join(&info, ("qty", "q"))
            .group_by("shipmode")
            .agg(Agg::sum("bonus"))
            .agg(Agg::count())
            .build()
            .unwrap();
        let seq = execute(&mut NullTracker, &plan, &ExecOptions::default()).unwrap();
        for n in [2usize, 4, 7] {
            let opts = ExecOptions::default().with_threads(Threads::Fixed(n));
            let par = execute(&mut NullTracker, &plan, &opts).unwrap();
            assert_eq!(par.output, seq.output, "threads={n}");
            // The select, at least, fans out on a fixed setting and says so.
            let select = par.report.ops.iter().find(|o| o.op.starts_with("select")).unwrap();
            assert!(select.detail.contains(&format!("threads={n}")), "{}", select.detail);
        }
    }

    #[test]
    fn index_access_paths_flow_through_the_executor() {
        use monet_core::index::IndexKind;
        let mut b =
            TableBuilder::new("big", 0).column("qty", ColType::I32).column("price", ColType::F64);
        for i in 0..10_000i32 {
            b.push_row(&[Value::I32(i % 100), Value::F64(i as f64)]).unwrap();
        }
        let mut t = b.finish();
        t.create_index("qty", IndexKind::CsBTree).unwrap();
        t.create_index("qty", IndexKind::Hash).unwrap();

        let plan = Query::scan(&t)
            .filter(Pred::range_i32("qty", 7, 7))
            .agg(Agg::sum("price"))
            .agg(Agg::max("qty"))
            .agg(Agg::count())
            .build()
            .unwrap();
        let machine = profiles::origin2000();
        let scan = execute(
            &mut NullTracker,
            &plan,
            &ExecOptions::cost_model(machine).with_access(crate::access::AccessMode::Scan),
        )
        .unwrap();
        // Pin the compression policy: under `force` Auto would take the
        // packed scan by fiat; under `on` the point probe out-prices it,
        // which is the decision this test pins down.
        let auto = execute(
            &mut NullTracker,
            &plan,
            &ExecOptions::cost_model(machine)
                .with_access(crate::access::AccessMode::Auto)
                .with_compress(CompressMode::On),
        )
        .unwrap();
        assert_eq!(auto.output, scan.output, "access paths must be bit-identical");

        // On 10k rows a point predicate is index territory: the decision is
        // in the report, with both quotes.
        let sel = auto.report.ops.iter().find(|o| o.op.starts_with("select")).unwrap();
        assert_eq!(sel.access.len(), 1);
        let d = &sel.access[0];
        assert!(d.path.is_index(), "{d:?}");
        assert!(d.predicted_ms < d.scan_ms, "{d:?}");
        assert_eq!(d.matches_est, Some(100), "exact btree count");
        assert!(sel.detail.contains("via"), "{}", sel.detail);
        assert_eq!(sel.rows_out, 100);

        // The scan-mode report keeps the historical shape and records the
        // scan decision.
        let sel = scan.report.ops.iter().find(|o| o.op.starts_with("select")).unwrap();
        assert!(sel.detail.starts_with("scan-select"), "{}", sel.detail);
        assert!(sel.access.iter().all(|d| !d.path.is_index()));

        // A pure index select has no per-thread scan work to shard, even
        // under forced parallelism; the aggregate shards its rows, `f64` sum
        // and all.
        let opts = ExecOptions::cost_model(machine)
            .with_access(crate::access::AccessMode::Index)
            .with_compress(CompressMode::On)
            .with_threads(Threads::Fixed(4));
        let par = execute(&mut NullTracker, &plan, &opts).unwrap();
        assert_eq!(par.output, scan.output);
        let sel = par.report.ops.iter().find(|o| o.op.starts_with("select")).unwrap();
        assert!(sel.rows_per_thread.is_none(), "{:?}", sel.rows_per_thread);
        let agg = par.report.ops.iter().find(|o| o.op.starts_with("aggregate")).unwrap();
        let shards = agg.rows_per_thread.as_ref().expect("gather shards");
        assert_eq!(shards.iter().sum::<usize>(), agg.rows_in);
        assert_eq!(shards.len(), 4);
        let alone = Query::scan(&t).agg(Agg::sum("price")).build().unwrap();
        let par = execute(&mut NullTracker, &alone, &opts).unwrap();
        let agg = par.report.ops.iter().find(|o| o.op.starts_with("aggregate")).unwrap();
        assert_eq!(agg.rows_per_thread.as_ref().map(Vec::len), Some(4), "row chunks");
    }

    #[test]
    fn grouped_min_max_match_sequential_at_every_thread_count() {
        let t = item();
        let q = || {
            Query::scan(&t)
                .group_by("shipmode")
                .agg(Agg::min("qty"))
                .agg(Agg::max("qty"))
                .agg(Agg::sum("price"))
                .agg(Agg::count())
        };
        let seq = run(q());
        let QueryOutput::Groups(rows) = &seq.output else { panic!("groups") };
        let air = rows.iter().find(|r| r.key == "AIR").unwrap();
        // AIR rows: qty 1 and 3, price 10 + 40.
        assert_eq!(
            air.values,
            vec![
                AggValue::MaybeI32(Some(1)),
                AggValue::MaybeI32(Some(3)),
                AggValue::F64(50.0),
                AggValue::Count(2),
            ]
        );
        for n in [2usize, 4, 7] {
            let opts = ExecOptions::default().with_threads(Threads::Fixed(n));
            let par = execute(&mut NullTracker, &q().build().unwrap(), &opts).unwrap();
            assert_eq!(par.output, seq.output, "threads={n}");
        }
        // Grouped min/max over a filtered stream (gathers the i32 column).
        let filtered = run(q().filter(Pred::range_i32("qty", 2, 5)));
        let QueryOutput::Groups(rows) = &filtered.output else { panic!("groups") };
        let air = rows.iter().find(|r| r.key == "AIR").unwrap();
        assert_eq!(air.values[0], AggValue::MaybeI32(Some(3)));
        assert_eq!(air.values[1], AggValue::MaybeI32(Some(3)));
    }

    #[test]
    fn thread_cap_clamps_fixed_and_auto() {
        let mut b = TableBuilder::new("wide", 0).column("qty", ColType::I32);
        for i in 0..2_000i32 {
            b.push_row(&[Value::I32(i % 10)]).unwrap();
        }
        let t = b.finish();
        let plan = Query::scan(&t).filter(Pred::range_i32("qty", 0, 4)).build().unwrap();
        let uncapped = ExecOptions::default().with_threads(Threads::Fixed(8));
        let capped = uncapped.with_thread_cap(2);
        let a = execute(&mut NullTracker, &plan, &uncapped).unwrap();
        let c = execute(&mut NullTracker, &plan, &capped).unwrap();
        assert_eq!(a.output, c.output, "the cap never changes results");
        let sel = c.report.ops.iter().find(|o| o.op.starts_with("select")).unwrap();
        assert!(sel.detail.contains("threads=2"), "{}", sel.detail);
        assert_eq!(sel.rows_per_thread.as_ref().map(Vec::len), Some(2));
        // A cap of one forces fully sequential execution even under Auto.
        let seq = ExecOptions::default().with_threads(Threads::Auto).with_thread_cap(1);
        let s = execute(&mut NullTracker, &plan, &seq).unwrap();
        assert_eq!(s.output, a.output);
        for op in &s.report.ops {
            assert!(!op.detail.contains("threads="), "cap=1 forked: {}", op.detail);
            assert!(op.rows_per_thread.is_none());
        }
    }

    #[test]
    fn parallel_join_and_group_ops_shard_their_row_counters() {
        // Planned on the Sun LX (64 KB L2): a 20k-tuple inner (160 KB)
        // exceeds the cache, so the cost model partitions the join — the
        // parallel kernels only shard partitioned algorithms.
        let machine = profiles::sun_lx();
        let mut b = TableBuilder::new("fact", 0)
            .column("k", ColType::I32)
            .column("v", ColType::F64)
            .column("tag", ColType::Str);
        for i in 0..30_000i32 {
            b.push_row(&[
                Value::I32(i % 20_000),
                Value::F64(i as f64 / 3.0),
                Value::from(if i % 2 == 0 { "A" } else { "B" }),
            ])
            .unwrap();
        }
        let fact = b.finish();
        let mut b = TableBuilder::new("dim", 0).column("id", ColType::I32);
        for i in 0..20_000i32 {
            b.push_row(&[Value::I32(i)]).unwrap();
        }
        let dim = b.finish();

        let plan = Query::scan(&fact)
            .join(&dim, ("k", "id"))
            .group_by("tag")
            .agg(Agg::sum("v"))
            .agg(Agg::max("k"))
            .build()
            .unwrap();
        let opts = ExecOptions::cost_model(machine).with_threads(Threads::Fixed(4));
        let par = execute(&mut NullTracker, &plan, &opts).unwrap();
        let seq = execute(&mut NullTracker, &plan, &ExecOptions::cost_model(machine)).unwrap();
        assert_eq!(par.output, seq.output);

        let join = par.report.ops.iter().find(|o| o.op.starts_with("join")).unwrap();
        assert!(join.detail.contains("threads=4"), "{}", join.detail);
        let shards = join.rows_per_thread.as_ref().expect("parallel join shards");
        assert_eq!(shards.iter().sum::<usize>(), join.rows_out, "pair counts merge to the total");
        let group = par.report.ops.iter().find(|o| o.op.starts_with("group")).unwrap();
        let shards = group.rows_per_thread.as_ref().expect("grouped-aggregate shards");
        assert_eq!(shards.iter().sum::<usize>(), group.rows_in, "row chunks cover every row");
        // Sequential runs stay unsharded on both ops.
        assert!(seq.report.ops.iter().all(|o| o.rows_per_thread.is_none()));
    }

    #[test]
    fn parallel_scan_select_shards_its_row_counters() {
        // Enough rows that even the packed (frame-sharded) kernel splits
        // into 4 chunks: 8 frames of 1024.
        let mut b = TableBuilder::new("wide", 0).column("qty", ColType::I32);
        for i in 0..8_192i32 {
            b.push_row(&[Value::I32(i % 10)]).unwrap();
        }
        let t = b.finish();
        let plan = Query::scan(&t).filter(Pred::range_i32("qty", 0, 4)).build().unwrap();
        let opts = ExecOptions::default().with_threads(Threads::Fixed(4));
        let par = execute(&mut NullTracker, &plan, &opts).unwrap();
        let sel = par.report.ops.iter().find(|o| o.op.starts_with("select")).unwrap();
        let shards = sel.rows_per_thread.as_ref().expect("parallel select shards");
        assert_eq!(shards.len(), 4);
        assert_eq!(shards.iter().sum::<usize>(), sel.rows_out, "shards merge to the op total");
        // Sequential runs stay unsharded.
        let seq = execute(&mut NullTracker, &plan, &ExecOptions::default()).unwrap();
        assert!(seq.report.ops.iter().all(|o| o.rows_per_thread.is_none()));
        assert_eq!(par.output, seq.output);
    }

    #[test]
    fn provided_scan_tickets_are_bit_identical_to_solo_evaluation() {
        use crate::physical;
        use crate::shared::{ScanRequest, ScanTicket};
        let mut b = TableBuilder::new("big", 0)
            .column("qty", ColType::I32)
            .column("price", ColType::F64)
            .column("mode", ColType::Str);
        for i in 0..5_000i32 {
            b.push_row(&[
                Value::I32(i % 97),
                Value::F64(i as f64 / 3.0),
                Value::from(["AIR", "MAIL", "SHIP"][i as usize % 3]),
            ])
            .unwrap();
        }
        let t = b.finish();
        let plan = Query::scan(&t)
            .filter(Pred::range_i32("qty", 10, 60).and(Pred::eq_str("mode", "AIR")))
            .group_by("mode")
            .agg(Agg::sum("price"))
            .agg(Agg::count())
            .build()
            .unwrap();
        let solo = execute(&mut NullTracker, &plan, &ExecOptions::default()).unwrap();
        let solo_sel = solo.report.ops.iter().find(|o| o.op.starts_with("select")).unwrap();

        // Produce a leaf's list through the cooperative kernel, as the
        // service's shared pass would.
        let list = |r: &ScanRequest<'_>| {
            let lists = monet_core::scan::select(
                &mut NullTracker,
                monet_core::scan::ScanCol::Plain(r.bat),
                &[r.pred.kernel_pred()],
                monet_core::scan::RowSet::All,
            )
            .unwrap();
            Arc::new(lists.into_iter().next().unwrap())
        };
        let physical = physical::plan(&mut NullTracker, &plan, &ExecOptions::default()).unwrap();
        let reqs = physical.requests();
        assert_eq!(reqs.len(), 2);
        // Every leaf provided — even the restricted one a scheduler never
        // shares, whose list meets the running survivors.
        let mut ticket = ScanTicket::new();
        for r in reqs {
            ticket.provide(r.leaf, list(r));
        }
        for threads in [Threads::Fixed(1), Threads::Fixed(4)] {
            let opts = ExecOptions::default().with_threads(threads);
            let physical = physical::plan(&mut NullTracker, &plan, &opts).unwrap();
            let fed = execute_with_scans(&mut NullTracker, &physical, &ticket).unwrap();
            assert!(fed.output.bitwise_eq(&solo.output), "{threads:?}");
            let sel = fed.report.ops.iter().find(|o| o.op.starts_with("select")).unwrap();
            assert_eq!(sel.notes[0], AccessNote::SharedLeaves { provided: 2, total: 2 });
            assert!(sel.detail.contains("2/2 leaves via shared scan"), "{}", sel.detail);
            assert!(sel.access.iter().all(|d| d.shared), "{:?}", sel.access);
            assert!(
                sel.shapes.is_empty(),
                "shared leaves carry no self-owned work: {:?}",
                sel.shapes
            );
            assert!(sel.rows_per_thread.is_none(), "no scan work ran here");
        }

        // The shareable leaf alone, as a scheduler provides it: the plan
        // keeps its order, and the other leaf evaluates restricted to the
        // provided survivors.
        let first = reqs.iter().find(|r| !r.restricted).expect("one leaf leads the order");
        let mut partial = ScanTicket::new();
        partial.provide(first.leaf, list(first));
        let fed = execute_with_scans(&mut NullTracker, &physical, &partial).unwrap();
        assert!(fed.output.bitwise_eq(&solo.output));
        let sel = fed.report.ops.iter().find(|o| o.op.starts_with("select")).unwrap();
        assert_eq!(sel.notes[0], AccessNote::SharedLeaves { provided: 1, total: 2 });
        assert_eq!(sel.notes[1..], solo_sel.notes[..], "the solo pushdown order: {}", sel.detail);
        assert!(sel.detail.contains("1/2 leaves via shared scan"), "{}", sel.detail);
        let paths = |op: &OpReport| op.access.iter().map(|d| d.path).collect::<Vec<_>>();
        assert_eq!(paths(sel), paths(solo_sel));
        assert_eq!(sel.access.iter().filter(|d| d.shared).count(), 1);
        assert_eq!(sel.shapes.len(), 1, "the unprovided leaf scanned here: {:?}", sel.shapes);
    }

    #[test]
    fn auto_threads_stay_sequential_for_tiny_inputs_and_simulation_forks_like_native() {
        let t = item();
        let plan = Query::scan(&t)
            .filter(Pred::range_f64("discnt", 0.0, 0.10))
            .group_by("shipmode")
            .agg(Agg::sum("price"))
            .build()
            .unwrap();
        // 5 rows: the fork overhead dwarfs the work, Auto must pick 1.
        let opts = ExecOptions::default().with_threads(Threads::Auto);
        let r = execute(&mut NullTracker, &plan, &opts).unwrap();
        for op in &r.report.ops {
            assert!(!op.detail.contains("threads="), "tiny input forked: {}", op.detail);
        }
        // Under the simulator, Fixed(8) forks as it does natively, and the
        // output is the native one, bit for bit.
        let mut trk = SimTracker::for_machine(profiles::origin2000());
        let opts = ExecOptions::default().with_threads(Threads::Fixed(8));
        let sim = execute(&mut trk, &plan, &opts).unwrap();
        let native = execute(&mut NullTracker, &plan, &opts).unwrap();
        assert!(sim.output.bitwise_eq(&native.output), "{:?} vs {:?}", sim.output, native.output);
        let forked = |r: &ExecReport| r.ops.iter().any(|op| op.detail.contains("threads="));
        assert!(forked(&sim.report), "simulated run stayed on one thread: {:?}", sim.report);
        assert_eq!(forked(&sim.report), forked(&native.report));
    }
}
