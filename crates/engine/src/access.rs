//! Access-path selection for predicate evaluation — the executor-facing
//! catalog layer.
//!
//! Scans used to be the only way the executor lowered a [`Pred`]; the §3.2
//! index structures existed but were never *used*. This module closes the
//! loop: for every predicate **leaf** it consults the table's attached
//! indexes ([`monet_core::storage::DecomposedTable::indexes_on`]), prices
//! scan vs. each usable index path with [`costmodel::access`], and evaluates
//! the leaf via the chosen path. Index-path candidate lists are sorted back
//! into OID order, so results are **bit-identical** to the scan path at any
//! thread count — the determinism property the PR-2 suites rely on.
//!
//! Planning runs in two phases so the degree of parallelism can be decided
//! in between: `plan_pred` resolves one [`AccessDecision`] per leaf
//! (range selectivity estimates are *exact* — two B+-tree descents count
//! the matches) once, when [`crate::physical::plan`] lowers the query, then
//! `eval_planned` executes the decisions, fanning scan leaves out over the
//! chosen thread count and running index probes sequentially (a probe is a
//! handful of node touches; forking would cost more than the work).
//!
//! [`AccessMode`] pins the choice: `scan` reproduces the pre-index executor
//! exactly, `index` forces index paths wherever one is usable, `auto` (the
//! default of every [`crate::exec::ExecOptions`]) lets the cost model
//! decide.

use std::borrow::Cow;
use std::fmt;
use std::sync::Arc;

use costmodel::access::{
    cheapest, quotes, restrict_index_cost, restricted_matches, sort_rounds, AccessPath, IndexShape,
    Quote, SelectQuery,
};
use costmodel::machine::ModelCost;
use costmodel::quote::OpShape;
use costmodel::scan::{select_cost, Select};
use costmodel::ModelMachine;
use memsim::{MemTracker, Work};
use monet_core::compress::CompressedColumn;
use monet_core::index::{key_range_i32, ColumnIndex, IndexKind};
use monet_core::scan::{par_select, select, RowSet, ScanCol, ScanPred};
use monet_core::storage::{DecomposedTable, Oid};

use crate::candidates::CandList;
use crate::plan::Pred;
use crate::EngineError;

/// How the executor chooses selection access paths.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessMode {
    /// Never consult indexes — every predicate leaf is a scan-select (the
    /// pre-index executor, and the reference for bit-identity tests).
    Scan,
    /// Use an index wherever a usable one is attached (the cheapest one by
    /// the model when several apply); leaves without a usable index scan.
    Index,
    /// Per-leaf cost-model decision between the scan and every usable
    /// index path (the default).
    Auto,
}

impl AccessMode {
    /// Parse a display name (`scan` | `index` | `auto`), as `repro
    /// --access` takes it.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "scan" => Some(AccessMode::Scan),
            "index" => Some(AccessMode::Index),
            "auto" => Some(AccessMode::Auto),
            _ => None,
        }
    }

    /// Display name (`scan` | `index` | `auto`).
    pub fn name(self) -> &'static str {
        match self {
            AccessMode::Scan => "scan",
            AccessMode::Index => "index",
            AccessMode::Auto => "auto",
        }
    }
}

/// Whether the executor may evaluate predicate leaves directly on the
/// compressed column representations [`monet_core::compress`] attaches to
/// decomposed tables.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CompressMode {
    /// Never touch compressed representations — every scan streams the
    /// uncompressed column (the reference for bit-identity tests).
    Off,
    /// Packed scans compete in the cost model under `auto` access mode;
    /// `scan` access mode stays on the uncompressed path (the default).
    On,
    /// Every leaf with a usable compressed representation takes the packed
    /// scan, overriding both the access mode and the model.
    Force,
}

impl CompressMode {
    /// Display name (`off` | `on` | `force`).
    pub fn name(self) -> &'static str {
        match self {
            CompressMode::Off => "off",
            CompressMode::On => "on",
            CompressMode::Force => "force",
        }
    }
}

/// Whether the executor threads candidate lists through the remaining
/// leaves of a pure-AND conjunction (the selectivity-ordered pushdown the
/// paper's bandwidth argument calls for: a later leaf only touches the
/// rows earlier leaves left alive). Results are bit-identical either way —
/// intersection is order-independent — only the bytes streamed change.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PushdownMode {
    /// Every leaf evaluates against the full column (the pre-pushdown
    /// executor, and the reference for bit-identity tests).
    Off,
    /// Multi-leaf AND filters are planned as one conjunction: cheapest
    /// effective leaf first, its survivors threaded into the rest (the
    /// default).
    On,
}

impl PushdownMode {
    /// Display name (`off` | `on`).
    pub fn name(self) -> &'static str {
        match self {
            PushdownMode::Off => "off",
            PushdownMode::On => "on",
        }
    }
}

/// One predicate leaf's access-path decision, as emitted into the
/// [`crate::exec::OpReport`].
#[derive(Debug, Clone, PartialEq)]
pub struct AccessDecision {
    /// The filtered column.
    pub column: String,
    /// The chosen path.
    pub path: AccessPath,
    /// Model quote of the chosen path in ms.
    pub predicted_ms: f64,
    /// Model quote of the scan path in ms (what the decision was weighed
    /// against; equals `predicted_ms` when the scan was chosen).
    pub scan_ms: f64,
    /// Estimated qualifying rows: exact when a B+-tree counted the range,
    /// `len / distinct` for hash and T-tree equality estimates, sniffed from
    /// compressed frame or run headers on an unindexed column; `None` when
    /// no estimator applies.
    pub matches_est: Option<usize>,
    /// True when the leaf's candidate list was *provided* by a shared
    /// (cooperative) scan pass — no evaluation of any kind ran here, and
    /// `matches_est` is the exact provided count.
    pub shared: bool,
    /// Stored bits per value of the compressed stream the leaf scans
    /// (0 unless the path is [`AccessPath::PackedScan`]).
    pub packed_bits: f64,
    /// Byte stride of the uncompressed column (what a plain scan of this
    /// leaf would stream per tuple; 0 for provided leaves).
    pub stride: usize,
    /// Planned candidates threaded into this leaf from earlier conjunction
    /// leaves (`None` = full-column evaluation; the first leaf of an
    /// ordered conjunction is always `None`).
    pub cands_in: Option<usize>,
    /// Model-estimated bytes the candidate restriction avoids streaming
    /// versus full-column evaluation of the same path (0 for unrestricted
    /// leaves and index probes, which stream no column).
    pub bytes_saved: f64,
}

impl fmt::Display for AccessDecision {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.shared {
            let provided = self.matches_est.unwrap_or(0);
            write!(f, "{}=shared-scan ({provided} rows provided)", self.column)?;
        } else if self.path == AccessPath::PackedScan {
            write!(
                f,
                "{}=packed-scan {:.1} bits/val {:.3} ms (scan {:.3} ms)",
                self.column, self.packed_bits, self.predicted_ms, self.scan_ms
            )?;
        } else if self.path.is_index() {
            write!(
                f,
                "{}={} {:.3} ms (scan {:.3} ms, est {} rows)",
                self.column,
                self.path.name(),
                self.predicted_ms,
                self.scan_ms,
                self.matches_est.unwrap_or(0)
            )?;
        } else {
            write!(f, "{}=scan", self.column)?;
        }
        if let Some(k) = self.cands_in {
            write!(f, " [pushdown {k} cands, ~{:.0} B saved]", self.bytes_saved)?;
        }
        Ok(())
    }
}

/// How one leaf will be evaluated.
#[derive(Debug, Clone)]
enum LeafAction {
    /// Scan-select over the uncompressed column (parallelizable; the
    /// constant lowered to kernel form once, at plan time).
    Scan { col: String, pred: ScanPred },
    /// Provably empty: the equality constant is not in the dictionary.
    Empty,
    /// Scan-select directly on the column's compressed representation
    /// (parallelizable; constants already translated into value/code space).
    Packed { col: String, pred: ScanPred },
    /// B+-tree range probe (equality uses `lo == hi`).
    BtreeRange { col: String, lo: u32, hi: u32 },
    /// Hash or T-tree point probe.
    IndexEq { col: String, kind: IndexKind, key: u32 },
}

/// One planned leaf: the reportable decision plus the evaluation recipe.
#[derive(Debug, Clone)]
struct LeafPlan {
    decision: AccessDecision,
    action: LeafAction,
    /// What the leaf streams when it scans the column itself — the shape
    /// `decision.predicted_ms` was priced as, and the one the drift ledger
    /// gets. `None` for index probes (priced per probe), provided leaves
    /// (scanned elsewhere) and provably empty ones (nothing runs).
    select: Option<Select>,
    /// The full quote of the chosen path when it is index-backed — what
    /// the conjunction planner reprices via
    /// [`costmodel::access::restrict_index_cost`]; `None` otherwise.
    index_cost: Option<ModelCost>,
}

/// A fully planned predicate: one [`LeafPlan`] per leaf, in evaluation
/// (in-order traversal) order.
#[derive(Debug, Clone)]
pub(crate) struct PredPlan {
    leaves: Vec<LeafPlan>,
    /// Pushdown evaluation order over pure-AND conjunctions: a permutation
    /// of in-order leaf positions (first entry evaluates full, the rest
    /// restricted to the running survivor list). `None` = in-order tree
    /// evaluation with full-column leaves.
    order: Option<Vec<usize>>,
}

impl PredPlan {
    /// Total predicted cost of the chosen paths, in ms.
    pub fn model_ms(&self) -> f64 {
        self.leaves.iter().map(|l| l.decision.predicted_ms).sum()
    }

    /// Sequential model quote of the leaves that run a full pass of their
    /// own, in ns — the work the parallel model may fan out (index probes
    /// never fork, and restricted leaves run sequentially).
    pub fn scan_work_ns(&self) -> f64 {
        self.leaves
            .iter()
            .filter(|l| l.select.is_some_and(|s| s.items() > 0))
            .map(|l| l.decision.predicted_ms * 1e6)
            .sum()
    }

    /// The cost-model shapes of the scans this predicate runs itself — the
    /// only model-attributable work of a select operator: index probes
    /// touch a handful of nodes, shared leaves were scanned elsewhere and
    /// dictionary misses run nothing, so none of them belongs in the drift
    /// ledger.
    pub fn shapes(&self) -> Vec<OpShape> {
        self.leaves.iter().filter_map(|l| l.select.map(OpShape::Select)).collect()
    }

    /// Per leaf: the select it streams itself (`None` for an index probe
    /// or a provably empty leaf), and its predicted ms.
    pub fn priced(&self) -> impl Iterator<Item = (Option<Select>, f64)> + '_ {
        self.leaves.iter().map(|l| (l.select, l.decision.predicted_ms))
    }

    /// True if any leaf takes an index path.
    pub fn uses_index(&self) -> bool {
        self.leaves.iter().any(|l| l.decision.path.is_index())
    }

    /// This plan with the leaves a shared scan pass `provided` settled:
    /// each keeps its path and its place in the order, but reports the
    /// provided count, no cost and no shape — it was scanned elsewhere.
    pub fn settle(&self, provided: &[Option<Arc<CandList>>]) -> Cow<'_, PredPlan> {
        if provided.iter().all(Option::is_none) {
            return Cow::Borrowed(self);
        }
        let mut plan = self.clone();
        for (lp, list) in plan.leaves.iter_mut().zip(provided) {
            if let Some(list) = list {
                lp.decision.shared = true;
                lp.decision.matches_est = Some(list.len());
                lp.decision.predicted_ms = 0.0;
                lp.select = None;
            }
        }
        Cow::Owned(plan)
    }

    /// Estimated fraction of `rows` that survive the predicate: each leaf's
    /// [`leaf_selectivity`], combined over `pred`'s tree as independent
    /// events (a product under AND, `a + b − ab` under OR).
    pub fn selectivity(&self, pred: &Pred, rows: usize) -> f64 {
        fn tree(pred: &Pred, leaves: &mut std::slice::Iter<'_, LeafPlan>, rows: usize) -> f64 {
            match pred {
                Pred::And(a, b) => tree(a, leaves, rows) * tree(b, leaves, rows),
                Pred::Or(a, b) => {
                    let (x, y) = (tree(a, leaves, rows), tree(b, leaves, rows));
                    x + y - x * y
                }
                _ => leaves.next().map_or(1.0, |lp| leaf_selectivity(lp, rows)),
            }
        }
        tree(pred, &mut self.leaves.iter(), rows)
    }

    /// Leaves whose candidate lists were provided by a shared scan pass.
    pub fn provided_leaves(&self) -> usize {
        self.leaves.iter().filter(|l| l.decision.shared).count()
    }

    /// The per-leaf decisions, for the report.
    pub fn decisions(&self) -> Vec<AccessDecision> {
        self.leaves.iter().map(|l| l.decision.clone()).collect()
    }

    /// Render the decisions for the report detail line.
    pub fn detail(&self) -> String {
        let parts: Vec<String> = self.leaves.iter().map(|l| l.decision.to_string()).collect();
        parts.join(", ")
    }

    /// The pushdown evaluation order (in-order leaf positions), when the
    /// conjunction planner ordered this predicate.
    pub fn order(&self) -> Option<&[usize]> {
        self.order.as_deref()
    }

    /// Per-leaf planned candidate counts, in in-order leaf position (the
    /// [`AccessDecision::cands_in`] column, for reports).
    pub fn cands_in(&self) -> Vec<Option<usize>> {
        self.leaves.iter().map(|l| l.decision.cands_in).collect()
    }
}

/// The usable index shapes for a leaf: range predicates can only use
/// range-capable indexes; equality predicates use everything.
fn usable_indexes<'t>(
    table: &'t DecomposedTable,
    col: &'t str,
    eq: bool,
) -> Vec<(&'t ColumnIndex, IndexShape)> {
    table
        .indexes_on(col)
        .filter(|i| eq || i.supports_range())
        .map(|i| {
            let shape = match i.kind() {
                IndexKind::CsBTree => {
                    IndexShape::Btree { height: i.btree().map_or(0, |t| t.height()) }
                }
                IndexKind::Hash => IndexShape::Hash,
                IndexKind::TTree => {
                    IndexShape::TTree { node_capacity: i.ttree().map_or(64, |t| t.node_capacity()) }
                }
            };
            (i, shape)
        })
        .collect()
}

/// Pick a quote per the access mode: `Auto` takes the global cheapest,
/// `Index` the cheapest index path — or, on a leaf no index can answer, the
/// cheapest scan flavour — and `Scan` the plain scan.
fn pick(mode: AccessMode, all: &[Quote]) -> Quote {
    match mode {
        AccessMode::Auto => cheapest(all),
        AccessMode::Index => {
            let idx: Vec<Quote> = all.iter().copied().filter(|q| q.path.is_index()).collect();
            cheapest(if idx.is_empty() { all } else { &idx })
        }
        AccessMode::Scan => all[0],
    }
}

/// The packed-scan candidate for a leaf: the column's compressed
/// representation, when one exists, the policy allows compression at all,
/// and the representation can evaluate `pred` directly.
fn packed_candidate<'t>(
    table: &'t DecomposedTable,
    col: &str,
    pred: ScanPred,
    compress: CompressMode,
) -> Option<&'t CompressedColumn> {
    if compress == CompressMode::Off {
        return None;
    }
    table.compressed_of(col).filter(|cc| cc.supports(&pred))
}

/// The one `Pred` → [`ScanPred`] lowering: a leaf's column and its constant
/// in kernel form, string equality re-mapped to its dictionary code.
/// `None` for the predicate means the constant is not in the dictionary —
/// the leaf is provably empty and nothing may execute for it.
pub(crate) fn lower_leaf<'p>(
    table: &DecomposedTable,
    leaf: &'p Pred,
) -> Result<(&'p str, Option<ScanPred>), EngineError> {
    Ok(match leaf {
        Pred::RangeI32 { col, lo, hi } => (col, Some(ScanPred::RangeI32 { lo: *lo, hi: *hi })),
        Pred::RangeF64 { col, lo, hi } => (col, Some(ScanPred::RangeF64 { lo: *lo, hi: *hi })),
        Pred::EqStr { col, value } => {
            let tail = table.bat(col)?.tail();
            let sc = tail
                .as_str_col()
                .ok_or(EngineError::UnsupportedType { op: "access plan", ty: tail.value_type() })?;
            (col, sc.dict.code_of(value).map(|code| ScanPred::EqCode { code }))
        }
        Pred::And(..) | Pred::Or(..) => unreachable!("leaves only"),
    })
}

/// True when the predicate tree is a pure conjunction (only `And` internal
/// nodes) — the shape whose leaves may be freely reordered and candidate-
/// restricted without changing the result set.
pub fn is_pure_and(pred: &Pred) -> bool {
    match pred {
        Pred::And(a, b) => is_pure_and(a) && is_pure_and(b),
        Pred::Or(..) => false,
        _ => true,
    }
}

/// Resolve one [`AccessDecision`] + action per predicate leaf. Selectivity
/// estimates that probe a B+-tree are tracked against `trk` (planning cost
/// is execution cost).
///
/// Under [`PushdownMode::On`], a multi-leaf pure-AND predicate is then
/// planned *as one conjunction*: the leaf order minimizing the modelled
/// total (first leaf full, later leaves restricted to the running survivor
/// list) is searched exhaustively (≤ [`MAX_EXHAUSTIVE_LEAVES`] leaves;
/// rank-greedy beyond), and each restricted leaf's planned candidate count
/// and bytes saved are recorded on its [`AccessDecision`].
pub(crate) fn plan_pred<M: MemTracker>(
    trk: &mut M,
    table: &DecomposedTable,
    pred: &Pred,
    mode: AccessMode,
    compress: CompressMode,
    pushdown: PushdownMode,
    model: &ModelMachine,
) -> Result<PredPlan, EngineError> {
    let mut leaves: Vec<LeafPlan> = leaves_of(pred)
        .into_iter()
        .map(|leaf| plan_leaf(trk, table, leaf, mode, compress, model))
        .collect::<Result<_, _>>()?;
    let order = (pushdown == PushdownMode::On && leaves.len() > 1 && is_pure_and(pred))
        .then(|| plan_conjunction(model, table, &mut leaves));
    Ok(PredPlan { leaves, order })
}

/// A predicate's leaves in in-order position — the order they are planned,
/// numbered (for cursor-skipping on short-circuited subtrees, and the
/// global leaf numbering) and evaluated in.
pub(crate) fn leaves_of(pred: &Pred) -> Vec<&Pred> {
    fn walk<'p>(pred: &'p Pred, out: &mut Vec<&'p Pred>) {
        match pred {
            Pred::And(a, b) | Pred::Or(a, b) => {
                walk(a, out);
                walk(b, out);
            }
            leaf => out.push(leaf),
        }
    }
    let mut out = Vec::new();
    walk(pred, &mut out);
    out
}

/// Leaf count up to which the conjunction planner searches every
/// permutation; predicates with more leaves fall back to rank-greedy
/// ordering (`cost / (1 − selectivity)`, the classical adjacent-exchange
/// criterion).
const MAX_EXHAUSTIVE_LEAVES: usize = 6;

/// Estimated selectivity of one planned leaf (fraction of rows surviving).
fn leaf_selectivity(lp: &LeafPlan, rows: usize) -> f64 {
    match (&lp.action, lp.decision.matches_est) {
        (LeafAction::Empty, _) => 0.0,
        (_, Some(matches)) => (matches as f64 / rows.max(1) as f64).min(1.0),
        // No estimator informed this leaf: the conventional half-survive
        // guess.
        (_, None) => 0.5,
    }
}

/// Model quote (ms) of evaluating one planned leaf restricted to `k`
/// candidates, keeping the already-chosen path family.
fn restricted_ms(model: &ModelMachine, lp: &LeafPlan, rows: usize, k: usize) -> f64 {
    if let Some(stored) = lp.select {
        return select_cost(model, Select { cands: Some(k), ..stored }).total_ms();
    }
    // Provably empty leaves cost nothing either way.
    let Some(full) = lp.index_cost else { return 0.0 };
    // An index path always carries its estimate.
    let probed = lp.decision.matches_est.unwrap_or(0);
    restrict_index_cost(model, full, probed, restricted_matches(rows, probed, k)).total_ms()
}

/// Model-estimated bytes one restricted leaf avoids streaming versus its
/// full-column evaluation (0 for index probes — they stream no column).
fn bytes_saved_est(lp: &LeafPlan, rows: usize, k: usize) -> f64 {
    let Some(stored) = lp.select else { return 0.0 };
    let (_, touched, _) = Select { cands: Some(k), ..stored }.work();
    (rows as f64 - touched).max(0.0) * stored.bits / 8.0
}

/// Order the leaves of a pure-AND conjunction for candidate pushdown and
/// annotate each restricted leaf's decision with its planned candidate
/// count and bytes saved. Returns the evaluation order (in-order leaf
/// positions).
fn plan_conjunction(
    model: &ModelMachine,
    table: &DecomposedTable,
    leaves: &mut [LeafPlan],
) -> Vec<usize> {
    let rows = table.len();
    let n = leaves.len();
    // Total modelled cost of one order, plus the candidate count entering
    // each leaf (`None` for the full-evaluated first leaf).
    let cost_of = |order: &[usize]| -> (f64, Vec<Option<usize>>) {
        let mut total = 0.0;
        let mut k: Option<usize> = None;
        let mut cands_in = vec![None; n];
        for &i in order {
            let lp = &leaves[i];
            cands_in[i] = k;
            total += match k {
                None => lp.decision.predicted_ms,
                Some(k) => restricted_ms(model, lp, rows, k),
            };
            // The epsilon keeps an exact product (e.g. rows · len/rows for a
            // provided leaf) from ceiling one past its integer value.
            let survivors =
                (k.unwrap_or(rows) as f64 * leaf_selectivity(lp, rows) - 1e-6).ceil().max(0.0);
            k = Some((survivors as usize).min(rows));
        }
        (total, cands_in)
    };
    let mut best: Vec<usize> = (0..n).collect();
    let mut best_ms = cost_of(&best).0;
    if n <= MAX_EXHAUSTIVE_LEAVES {
        let mut perm: Vec<usize> = (0..n).collect();
        permute(&mut perm, 0, &mut |order| {
            let ms = cost_of(order).0;
            if ms < best_ms {
                best_ms = ms;
                best.copy_from_slice(order);
            }
        });
    } else {
        // Rank-greedy: order by cost per unit of disqualification.
        let mut ranked: Vec<usize> = (0..n).collect();
        ranked.sort_by(|&a, &b| {
            let rank = |i: usize| {
                let lp = &leaves[i];
                lp.decision.predicted_ms / (1.0 - leaf_selectivity(lp, rows) + 1e-9)
            };
            rank(a).total_cmp(&rank(b))
        });
        if cost_of(&ranked).0 < best_ms {
            best = ranked;
        }
    }
    let best_cands = cost_of(&best).1;
    for (lp, k) in leaves.iter_mut().zip(&best_cands) {
        lp.decision.cands_in = *k;
        if let Some(k) = *k {
            let ms = restricted_ms(model, lp, rows, k);
            lp.decision.bytes_saved = bytes_saved_est(lp, rows, k);
            // The leaf now runs restricted: report (and price) that work,
            // not the full-column quote it will no longer do.
            lp.decision.predicted_ms = ms;
            if let Some(stored) = &mut lp.select {
                stored.cands = Some(k);
            }
        }
    }
    best
}

/// Visit every permutation of `items[at..]` (Heap-style recursive swap).
fn permute(items: &mut Vec<usize>, at: usize, visit: &mut impl FnMut(&[usize])) {
    if at == items.len() {
        visit(items);
        return;
    }
    for i in at..items.len() {
        items.swap(at, i);
        permute(items, at + 1, visit);
        items.swap(at, i);
    }
}

/// Plan one leaf: its cheapest path under the modes, priced on `model`.
fn plan_leaf<M: MemTracker>(
    trk: &mut M,
    table: &DecomposedTable,
    pred: &Pred,
    mode: AccessMode,
    compress: CompressMode,
    model: &ModelMachine,
) -> Result<LeafPlan, EngineError> {
    let (col, kernel) = lower_leaf(table, pred)?;
    let stride = table.bat(col)?.tail().tail_width();
    // Range predicates can only use range-capable indexes. F64 columns
    // carry no indexes (no u32 key mapping) and no compressed
    // representation, so they always fall through to the plain scan.
    let eq = !matches!(kernel, Some(ScanPred::RangeI32 { lo, hi }) if lo != hi);
    let usable = if mode == AccessMode::Scan { Vec::new() } else { usable_indexes(table, col, eq) };
    let Some(kernel) = kernel else {
        // Provably empty — the dictionary already answered the query, so
        // nothing executes and nothing may be quoted or fed to the drift
        // ledger: keep the path the planner would have taken (provenance)
        // but no cost, no shape and no probe to reprice.
        let any = ScanPred::EqCode { code: 0 };
        let mut leaf =
            leaf_plan(model, table, col, any, stride, Some(0), eq, mode, &usable, None, compress);
        leaf.action = LeafAction::Empty;
        leaf.decision.predicted_ms = 0.0;
        leaf.select = None;
        leaf.index_cost = None;
        return Ok(leaf);
    };
    let matches = if usable.is_empty() {
        // No index to count with: sniff the compressed metadata (frame
        // min/max, runs) for a selectivity estimate. This reads headers
        // only, so it's free even when the compress policy keeps the
        // evaluation on the uncompressed path.
        table.compressed_of(col).and_then(|cc| cc.estimate_matches(&kernel))
    } else {
        Some(estimate_matches(trk, table, col, &usable, kernel))
    };
    let packed = packed_candidate(table, col, kernel, compress);
    Ok(leaf_plan(model, table, col, kernel, stride, matches, eq, mode, &usable, packed, compress))
}

/// The index key range of a leaf constant.
fn key_range(pred: ScanPred) -> (u32, u32) {
    match pred {
        ScanPred::RangeI32 { lo, hi } => key_range_i32(lo, hi),
        ScanPred::EqCode { code } => (code, code),
        ScanPred::RangeF64 { .. } => unreachable!("F64 columns carry no indexes"),
    }
}

/// Estimate the qualifying rows of an indexed leaf: exact via a B+-tree
/// count when one is attached (two descents, tracked), `len / distinct` for
/// equality otherwise.
fn estimate_matches<M: MemTracker>(
    trk: &mut M,
    table: &DecomposedTable,
    col: &str,
    usable: &[(&ColumnIndex, IndexShape)],
    pred: ScanPred,
) -> usize {
    if let Some(idx) = table.index_of(col, IndexKind::CsBTree) {
        let (klo, khi) = key_range(pred);
        if let Some(n) = idx.count_range(trk, klo, khi) {
            return n;
        }
    }
    let idx = usable[0].0;
    idx.len() / idx.distinct().max(1)
}

/// The one constructor of an evaluated leaf: quote the plain scan, the
/// packed scan when the column has a usable compressed representation and
/// the policy admits it, and a probe of every index in `usable` (none under
/// `scan` access mode or on an unindexed column), then pick per the modes.
/// `matches` is the selectivity estimate — index-counted, or sniffed from
/// compressed frame/run headers; `None` when no estimator applies.
#[allow(clippy::too_many_arguments)] // the planner's full policy surface
fn leaf_plan(
    model: &ModelMachine,
    table: &DecomposedTable,
    col: &str,
    pred: ScanPred,
    stride: usize,
    matches: Option<usize>,
    eq: bool,
    mode: AccessMode,
    usable: &[(&ColumnIndex, IndexShape)],
    packed: Option<&CompressedColumn>,
    compress: CompressMode,
) -> LeafPlan {
    // `on` lets the packed quote compete wherever the model decides, but
    // `scan` access mode stays the uncompressed reference path; `force`
    // admits it everywhere and then overrides the pick.
    let packed = packed.filter(|_| compress == CompressMode::Force || mode != AccessMode::Scan);
    let rows = table.len();
    let q = SelectQuery {
        rows,
        stride,
        // Only index quotes read it, and an indexed leaf always estimates.
        matches: matches.unwrap_or(0),
        eq,
        packed_bits: packed.map(CompressedColumn::bits_per_value),
        cands: None,
    };
    let shapes: Vec<IndexShape> = usable.iter().map(|(_, s)| *s).collect();
    let all = quotes(model, &q, &shapes);
    let chosen = if compress == CompressMode::Force && packed.is_some() {
        *all.iter()
            .find(|quote| quote.path == AccessPath::PackedScan)
            .expect("a packed candidate always yields a packed quote")
    } else {
        pick(mode, &all)
    };
    let (action, select) = match chosen.path {
        AccessPath::Scan => {
            (LeafAction::Scan { col: col.to_owned(), pred }, Some(Select::plain(rows, stride)))
        }
        AccessPath::PackedScan => {
            let bits = q.packed_bits.expect("a packed quote has a packed candidate");
            (LeafAction::Packed { col: col.to_owned(), pred }, Some(Select::packed(rows, bits)))
        }
        AccessPath::BtreeRange | AccessPath::BtreeEq => {
            let (lo, hi) = key_range(pred);
            (LeafAction::BtreeRange { col: col.to_owned(), lo, hi }, None)
        }
        AccessPath::HashEq | AccessPath::TTreeEq => {
            let kind =
                if chosen.path == AccessPath::HashEq { IndexKind::Hash } else { IndexKind::TTree };
            (LeafAction::IndexEq { col: col.to_owned(), kind, key: key_range(pred).0 }, None)
        }
    };
    LeafPlan {
        decision: AccessDecision {
            column: col.to_owned(),
            path: chosen.path,
            predicted_ms: chosen.cost.total_ms(),
            scan_ms: all[0].cost.total_ms(),
            matches_est: matches,
            shared: false,
            packed_bits: q
                .packed_bits
                .filter(|_| chosen.path == AccessPath::PackedScan)
                .unwrap_or(0.0),
            stride,
            cands_in: None,
            bytes_saved: 0.0,
        },
        action,
        select,
        index_cost: chosen.path.is_index().then_some(chosen.cost),
    }
}

/// Per-thread row accumulator for the sharded select counters.
struct ShardAcc {
    counts: Vec<usize>,
}

impl ShardAcc {
    fn add(&mut self, leaf_counts: &[usize]) {
        if self.counts.len() < leaf_counts.len() {
            self.counts.resize(leaf_counts.len(), 0);
        }
        for (acc, c) in self.counts.iter_mut().zip(leaf_counts) {
            *acc += c;
        }
    }
}

/// Evaluate a planned predicate. Scan leaves fan out over `threads`
/// (bit-identical chunked kernels); index leaves probe sequentially and
/// sort their candidates back into OID order. A leaf with a list in
/// `provided` (in-order position) consumes it instead of evaluating —
/// bit-identical to a solo scan by the cooperative kernel's contract.
/// Returns the candidate list plus, under parallel runs, the per-thread
/// rows produced by the scanning leaves (summed across leaves — the sharded
/// `ExecReport` counters).
pub(crate) fn eval_planned<M: MemTracker>(
    trk: &mut M,
    table: &DecomposedTable,
    pred: &Pred,
    plan: &PredPlan,
    provided: &[Option<Arc<CandList>>],
    threads: usize,
) -> Result<(CandList, Option<Vec<usize>>), EngineError> {
    let mut shards = ShardAcc { counts: Vec::new() };
    let mut run = Run { trk, table, plan, provided, threads, shards: &mut shards };
    let cands = if let Some(order) = plan.order() {
        run.ordered(order)?
    } else {
        let mut cursor = 0usize;
        let out = run.tree(pred, &mut cursor)?;
        debug_assert_eq!(cursor, plan.leaves.len(), "every leaf consumed");
        out
    };
    // No shard vector sequentially, nor when no scanning leaf ran (a pure
    // index-path select does no per-thread work to account).
    Ok((cands, (threads > 1 && !shards.counts.is_empty()).then_some(shards.counts)))
}

/// One evaluation of a planned predicate: what every leaf needs.
struct Run<'r, M> {
    trk: &'r mut M,
    table: &'r DecomposedTable,
    plan: &'r PredPlan,
    provided: &'r [Option<Arc<CandList>>],
    threads: usize,
    shards: &'r mut ShardAcc,
}

impl<M: MemTracker> Run<'_, M> {
    /// Pushdown evaluation of a pure-AND conjunction: the first leaf in
    /// `order` evaluates full (parallelizable), every later leaf evaluates
    /// restricted to the running survivor list. Each restricted leaf returns
    /// exactly (full result ∩ candidates), so the running list *is* the
    /// conjunction so far — bit-identical to intersecting full-leaf results
    /// in any order. An empty running list short-circuits the rest.
    fn ordered(&mut self, order: &[usize]) -> Result<CandList, EngineError> {
        let mut running: Option<CandList> = None;
        for &i in order {
            if running.as_ref().is_some_and(Vec::is_empty) {
                break;
            }
            running = Some(self.leaf(i, running.as_deref())?);
        }
        Ok(running.unwrap_or_default())
    }

    fn tree(&mut self, pred: &Pred, cursor: &mut usize) -> Result<CandList, EngineError> {
        match pred {
            Pred::And(a, b) => {
                let ca = self.tree(a, cursor)?;
                if ca.is_empty() {
                    *cursor += leaves_of(b).len(); // short-circuit: AND with empty
                    return Ok(ca);
                }
                let cb = self.tree(b, cursor)?;
                Ok(crate::candidates::intersect(&ca, &cb))
            }
            Pred::Or(a, b) => {
                let ca = self.tree(a, cursor)?;
                let cb = self.tree(b, cursor)?;
                Ok(crate::candidates::union(&ca, &cb))
            }
            _ => {
                *cursor += 1;
                self.leaf(*cursor - 1, None)
            }
        }
    }

    /// Evaluate leaf `i` — over the full column, or restricted to an
    /// ascending candidate list, returning exactly (full leaf result ∩
    /// `cands`) in OID order. Unrestricted scan leaves fan out over the
    /// threads and account their per-thread matches; restricted ones run
    /// sequentially.
    fn leaf(&mut self, i: usize, cands: Option<&[Oid]>) -> Result<CandList, EngineError> {
        let (trk, table) = (&mut *self.trk, self.table);
        // A shared pass already streamed the column; consuming the list is
        // free of scan work (and contributes no shard counts).
        if let Some(Some(list)) = self.provided.get(i) {
            return Ok(match cands {
                Some(c) => crate::candidates::intersect(list, c),
                None => (**list).clone(),
            });
        }
        let (scol, pred) = match &self.plan.leaves[i].action {
            LeafAction::Empty => return Ok(CandList::new()),
            LeafAction::BtreeRange { col, lo, hi } => {
                let idx = table
                    .index_of(col, IndexKind::CsBTree)
                    .expect("planned btree leaf has a btree index");
                let mut out = CandList::new();
                match cands {
                    Some(c) => idx.lookup_range_cands(trk, *lo, *hi, c, |o| out.push(o)),
                    None => idx.lookup_range(trk, *lo, *hi, |o| out.push(o)),
                };
                return finish_index_leaf(trk, out);
            }
            LeafAction::IndexEq { col, kind, key } => {
                let idx = table.index_of(col, *kind).expect("planned index leaf has its index");
                let mut out = CandList::new();
                match cands {
                    Some(c) => idx.lookup_eq_cands(trk, *key, c, |o| out.push(o)),
                    None => idx.lookup_eq(trk, *key, |o| out.push(o)),
                };
                return finish_index_leaf(trk, out);
            }
            LeafAction::Scan { col, pred } => (ScanCol::Plain(table.bat(col)?), pred),
            LeafAction::Packed { col, pred } => {
                let cc =
                    table.compressed_of(col).expect("planned packed leaf has a compressed column");
                (ScanCol::Packed(cc, table.seqbase()), pred)
            }
        };
        let preds = std::slice::from_ref(pred);
        let mut lists = match cands {
            Some(c) => select(trk, scol, preds, RowSet::Cands(c))?,
            None if self.threads > 1 => {
                let (lists, counts) = par_select(trk, scol, preds, self.threads)?;
                self.shards.add(&counts);
                lists
            }
            None => select(trk, scol, preds, RowSet::All)?,
        };
        Ok(lists.remove(0))
    }
}

/// Restore scan (ascending-OID) order over an index probe's matches —
/// charging the same emit + sort work the cost model prices — so index
/// paths stay bit-identical to scan paths.
fn finish_index_leaf<M: MemTracker>(
    trk: &mut M,
    mut out: CandList,
) -> Result<CandList, EngineError> {
    if M::ENABLED {
        trk.work(Work::ScanIter, out.len() as u64);
        trk.work(Work::SortTuple, (out.len() * sort_rounds(out.len())) as u64);
    }
    out.sort_unstable();
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use memsim::{profiles, NullTracker};
    use monet_core::storage::{ColType, TableBuilder, Value};

    fn table(indexed: bool) -> DecomposedTable {
        let mut b = TableBuilder::new("t", 100)
            .column("k", ColType::I32)
            .column("x", ColType::F64)
            .column("s", ColType::Str);
        for i in 0..500i32 {
            b.push_row(&[
                Value::I32(i % 50 - 25),
                Value::F64(i as f64 / 10.0),
                Value::from(["AIR", "MAIL", "SHIP"][i as usize % 3]),
            ])
            .unwrap();
        }
        let mut t = b.finish();
        if indexed {
            t.create_index("k", IndexKind::CsBTree).unwrap();
            t.create_index("k", IndexKind::Hash).unwrap();
            t.create_index("k", IndexKind::TTree).unwrap();
            t.create_index("s", IndexKind::Hash).unwrap();
        }
        t
    }

    fn model() -> ModelMachine {
        ModelMachine::new(&profiles::origin2000())
    }

    const PD_OFF: PushdownMode = PushdownMode::Off;

    fn run(
        t: &DecomposedTable,
        pred: &Pred,
        mode: AccessMode,
        compress: CompressMode,
        pushdown: PushdownMode,
        threads: usize,
    ) -> CandList {
        let m = model();
        let plan = plan_pred(&mut NullTracker, t, pred, mode, compress, pushdown, &m).unwrap();
        eval_planned(&mut NullTracker, t, pred, &plan, &[], threads).unwrap().0
    }

    #[test]
    fn every_mode_and_thread_count_is_bit_identical() {
        let t = table(true);
        let preds = [
            Pred::range_i32("k", -5, 5),
            Pred::range_i32("k", 7, 7),
            Pred::range_i32("k", 10, -10),
            Pred::eq_str("s", "MAIL"),
            Pred::eq_str("s", "WALRUS"),
            Pred::range_i32("k", -5, 5).and(Pred::eq_str("s", "AIR")),
            Pred::eq_str("s", "WALRUS").or(Pred::range_i32("k", 20, 24)),
            Pred::range_f64("x", 1.0, 2.0).and(Pred::range_i32("k", 0, 0)),
        ];
        for pred in &preds {
            let reference = run(&t, pred, AccessMode::Scan, CompressMode::Off, PD_OFF, 1);
            for mode in [AccessMode::Scan, AccessMode::Index, AccessMode::Auto] {
                for compress in [CompressMode::Off, CompressMode::On, CompressMode::Force] {
                    for pushdown in [PushdownMode::Off, PushdownMode::On] {
                        for threads in [1usize, 4] {
                            assert_eq!(
                                run(&t, pred, mode, compress, pushdown, threads),
                                reference,
                                "pred={pred} mode={} compress={} pushdown={} threads={threads}",
                                mode.name(),
                                compress.name(),
                                pushdown.name()
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn point_predicates_choose_an_index_under_auto() {
        let t = table(true);
        let m = model();
        let pred = Pred::range_i32("k", 7, 7);
        let plan =
            plan_pred(&mut NullTracker, &t, &pred, AccessMode::Auto, CompressMode::On, PD_OFF, &m)
                .unwrap();
        let d = &plan.decisions()[0];
        assert!(d.path.is_index(), "{d:?}");
        assert_eq!(d.matches_est, Some(10), "exact count: 500 rows / 50 keys");
        assert!(d.predicted_ms < d.scan_ms, "{d:?}");
        assert!(plan.uses_index());
        assert_eq!(plan.scan_work_ns(), 0.0, "index leaves contribute no fan-out work");
    }

    #[test]
    fn unindexed_tables_and_scan_mode_never_probe() {
        let bare = table(false);
        let m = model();
        for (t, mode) in [(&bare, AccessMode::Auto), (&table(true), AccessMode::Scan)] {
            let pred = Pred::range_i32("k", 7, 7).and(Pred::eq_str("s", "AIR"));
            // Compression on: still no index probes (packed scans are scans).
            let plan =
                plan_pred(&mut NullTracker, t, &pred, mode, CompressMode::On, PD_OFF, &m).unwrap();
            assert!(!plan.uses_index());
            assert!(plan.decisions().iter().all(|d| !d.path.is_index()));
            assert!(plan.scan_work_ns() > 0.0);
            // Compression off: the exact pre-compression plan shape.
            let plan =
                plan_pred(&mut NullTracker, t, &pred, mode, CompressMode::Off, PD_OFF, &m).unwrap();
            assert!(plan.decisions().iter().all(|d| d.path == AccessPath::Scan));
        }
    }

    #[test]
    fn forced_index_mode_falls_back_to_scan_only_without_a_usable_index() {
        let t = table(true);
        let m = model();
        // Range over k: only the btree is range-capable; forced index uses it.
        let plan = plan_pred(
            &mut NullTracker,
            &t,
            &Pred::range_i32("k", -20, 20),
            AccessMode::Index,
            CompressMode::On,
            PD_OFF,
            &m,
        )
        .unwrap();
        assert_eq!(plan.decisions()[0].path, AccessPath::BtreeRange);
        // F64 leaf: no index can exist; index mode scans it.
        let plan = plan_pred(
            &mut NullTracker,
            &t,
            &Pred::range_f64("x", 0.0, 1.0),
            AccessMode::Index,
            CompressMode::On,
            PD_OFF,
            &m,
        )
        .unwrap();
        assert_eq!(plan.decisions()[0].path, AccessPath::Scan);
    }

    #[test]
    fn parallel_scan_leaves_report_per_thread_shards() {
        let t = table(true);
        let m = model();
        let pred = Pred::range_f64("x", 0.0, 20.0).and(Pred::range_i32("k", 0, 0));
        let plan =
            plan_pred(&mut NullTracker, &t, &pred, AccessMode::Auto, CompressMode::On, PD_OFF, &m)
                .unwrap();
        let (cands, shards) = eval_planned(&mut NullTracker, &t, &pred, &plan, &[], 4).unwrap();
        let shards = shards.expect("parallel run shards");
        assert_eq!(shards.len(), 4);
        // The f64 leaf scanned 201 matching rows across the threads; the
        // index leaf contributed none.
        assert_eq!(shards.iter().sum::<usize>(), 201);
        assert!(!cands.is_empty());
        // Sequential runs carry no shard vector.
        let (_, none) = eval_planned(&mut NullTracker, &t, &pred, &plan, &[], 1).unwrap();
        assert!(none.is_none());
    }

    #[test]
    fn forced_compression_takes_the_packed_scan_everywhere_it_can() {
        let t = table(true);
        let m = model();
        let pred = Pred::range_i32("k", -5, 5).and(Pred::eq_str("s", "AIR"));
        for mode in [AccessMode::Scan, AccessMode::Index, AccessMode::Auto] {
            let plan =
                plan_pred(&mut NullTracker, &t, &pred, mode, CompressMode::Force, PD_OFF, &m)
                    .unwrap();
            for d in plan.decisions() {
                assert_eq!(d.path, AccessPath::PackedScan, "mode={} {d:?}", mode.name());
                assert!(d.packed_bits > 0.0 && d.packed_bits < 8.0 * d.stride as f64, "{d:?}");
            }
            assert!(!plan.uses_index());
            assert!(plan.scan_work_ns() > 0.0, "packed scans still fan out");
        }
        // The packed detail line names the encoding family and the bit rate.
        let plan = plan_pred(
            &mut NullTracker,
            &t,
            &Pred::range_i32("k", -5, 5),
            AccessMode::Auto,
            CompressMode::Force,
            PD_OFF,
            &m,
        )
        .unwrap();
        assert!(plan.detail().contains("packed-scan"), "{}", plan.detail());
    }

    #[test]
    fn auto_mode_prefers_the_packed_scan_on_big_unindexed_columns() {
        // An unindexed FOR-friendly column large enough that bytes dominate:
        // under `on` the model must route the leaf to the packed scan.
        let mut b = TableBuilder::new("big", 0).column("v", ColType::I32);
        for i in 0..200_000i32 {
            b.push_row(&[Value::I32(i % 1000)]).unwrap();
        }
        let t = b.finish();
        let m = model();
        let pred = Pred::range_i32("v", 100, 300);
        let plan =
            plan_pred(&mut NullTracker, &t, &pred, AccessMode::Auto, CompressMode::On, PD_OFF, &m)
                .unwrap();
        let d = &plan.decisions()[0];
        assert_eq!(d.path, AccessPath::PackedScan, "{d:?}");
        assert!(d.predicted_ms < d.scan_ms, "{d:?}");
        // Same plan under `off`: the plain scan.
        let plan =
            plan_pred(&mut NullTracker, &t, &pred, AccessMode::Auto, CompressMode::Off, PD_OFF, &m)
                .unwrap();
        assert_eq!(plan.decisions()[0].path, AccessPath::Scan);
        // Scan mode under `on` also stays on the uncompressed reference.
        let plan =
            plan_pred(&mut NullTracker, &t, &pred, AccessMode::Scan, CompressMode::On, PD_OFF, &m)
                .unwrap();
        assert_eq!(plan.decisions()[0].path, AccessPath::Scan);
    }

    #[test]
    fn mode_parsing() {
        assert_eq!(AccessMode::parse("scan"), Some(AccessMode::Scan));
        assert_eq!(AccessMode::parse("index"), Some(AccessMode::Index));
        assert_eq!(AccessMode::parse("auto"), Some(AccessMode::Auto));
        assert_eq!(AccessMode::parse("AUTO"), None);
        assert_eq!(AccessMode::parse(""), None);
        for mode in [AccessMode::Scan, AccessMode::Index, AccessMode::Auto] {
            assert_eq!(AccessMode::parse(mode.name()), Some(mode), "names round-trip");
        }
    }

    #[test]
    fn conjunction_planner_orders_the_selective_leaf_first() {
        // One needle leaf (point range, ~10 of 500 rows) conjoined with two
        // wide leaves. Under pushdown the planner must run the needle first
        // and restrict both wide leaves to its survivors.
        let t = table(false);
        let m = model();
        let pred = Pred::range_f64("x", 0.0, 40.0)
            .and(Pred::eq_str("s", "AIR"))
            .and(Pred::range_i32("k", 7, 7));
        let plan = plan_pred(
            &mut NullTracker,
            &t,
            &pred,
            AccessMode::Scan,
            CompressMode::Off,
            PushdownMode::On,
            &m,
        )
        .unwrap();
        let order = plan.order().expect("pure-AND multi-leaf filters get an order");
        assert_eq!(order[0], 2, "needle leaf (k = 7) evaluated first: {order:?}");
        let cands = plan.cands_in();
        assert_eq!(cands[2], None, "first-in-order leaf runs its full pass");
        for i in [0usize, 1] {
            let k = cands[i].expect("later leaves are restricted");
            assert!(k < t.len(), "restricted to fewer than all rows");
            let d = &plan.decisions()[i];
            assert_eq!(d.cands_in, Some(k));
            assert!(d.bytes_saved > 0.0, "{d:?}");
        }
        assert_eq!(plan.decisions()[2].cands_in, None);
        assert_eq!(plan.decisions()[2].bytes_saved, 0.0);
        // Restricted leaves run sequentially: only the first leaf fans out.
        assert!(plan.scan_work_ns() > 0.0);
        // Off: no order, no restriction annotations.
        let off =
            plan_pred(&mut NullTracker, &t, &pred, AccessMode::Scan, CompressMode::Off, PD_OFF, &m)
                .unwrap();
        assert!(off.order().is_none());
        assert!(off.decisions().iter().all(|d| d.cands_in.is_none()));
        // OR trees are never reordered even under On.
        let disj = Pred::range_i32("k", 7, 7).or(Pred::eq_str("s", "AIR"));
        let plan = plan_pred(
            &mut NullTracker,
            &t,
            &disj,
            AccessMode::Scan,
            CompressMode::Off,
            PushdownMode::On,
            &m,
        )
        .unwrap();
        assert!(plan.order().is_none());
    }
}
