//! The cooperative-scan board and the hot-result cache — the service-side
//! state behind shared scans.
//!
//! ## Scan board
//!
//! Every submission describes its scan leaves as
//! [`engine::shared::ScanRequest`]s. Queued queries *post* their requests;
//! when a query becomes runnable it *claims* a batch: its own scan leaves
//! plus every pending same-column request, merged into one cooperative
//! pass that streams the column once. The runner executes the pass with
//! **its own** column reference (equal [`engine::shared::ColumnId`]s mean
//! equal bytes — tables are immutable and every requesting query is still
//! blocked inside `run`, so the data outlives the pass), publishes each
//! predicate's candidate list to the tickets that wanted it, and only then
//! runs its own plan. Claimed keys are marked *in flight* so a
//! concurrently granted query waits for the publication instead of
//! re-streaming the column; if a pass aborts, its claims return to pending
//! and waiters fall back to scanning themselves — sharing changes *who*
//! streams a column, never *what* a query computes.
//!
//! ## Chunked elevator passes
//!
//! With a non-zero chunk size (`MONET_SERVICE_CHUNK`) a claimed pass runs
//! as an *elevator*: the runner streams the column in fixed-size chunks
//! ([`monet_core::scan::select`] over one `RowSet::Range` each) and, at every
//! chunk boundary, absorbs newly posted same-column wants as fresh
//! *riders* ([`ScanBoard::take_pending_for_col`]). A rider attaching
//! mid-pass keeps riding past the end of the column — the cursor wraps to
//! row zero and re-streams only the prefix the rider missed. Each rider's
//! per-chunk partial lists, reassembled in ascending row order, are
//! bit-identical to the one-shot kernel, so attach order can never change
//! what a query computes. The per-column cursor is published on the board
//! ([`ScanBoard::coverage`]) so admission quotes can price a mid-pass
//! attach as marginal CPU plus only the wrap-around re-stream
//! ([`costmodel::scan::Select::covered`]). A zero chunk size
//! degenerates to the pre-elevator all-or-nothing pass: one chunk, no
//! boundaries, no attaches.
//!
//! ## Result cache
//!
//! A bounded LRU over completed [`Executed`]s keyed by a canonical plan
//! fingerprint (table buffer identities + every operator's constants, so
//! equal keys mean the same computation over the same bytes). Tables are
//! immutable, so entries never need invalidation; the budget is
//! `ServiceConfig::cache_bytes` (`MONET_SERVICE_CACHE`), and `0` disables
//! caching entirely. Execution is deterministic, so serving a cached
//! result is bit-identical to re-running the plan.

use std::collections::{HashMap, HashSet};
use std::fmt::Write as _;
use std::sync::Arc;

use engine::exec::{Executed, QueryOutput};
use engine::plan::{LogicalPlan, PlanNode};
use engine::shared::{column_id, ColumnId, ScanRequest, ShareKey};
use monet_core::storage::{DecomposedTable, Oid};

/// A shared candidate list (one predicate's matches, ascending OIDs).
pub(crate) type Cands = Arc<Vec<Oid>>;

/// One query's interest in a [`ShareKey`]: deliver the list to this ticket
/// at this global leaf index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Want {
    pub ticket: u64,
    pub leaf: usize,
}

/// One distinct predicate of a claimed pass, and everyone it serves.
#[derive(Debug)]
pub(crate) struct BatchPred {
    /// The merge key (column identity + canonical predicate).
    pub key: ShareKey,
    /// The runner's own leaf indices wanting this list.
    pub own_leaves: Vec<usize>,
    /// Other tickets' wants, delivered at publish time.
    others: Vec<Want>,
}

/// One cooperative pass a runnable query claimed: a single column stream
/// evaluating every distinct predicate below.
#[derive(Debug)]
pub(crate) struct Batch {
    /// Index into the runner's request slice whose `bat` the pass streams.
    pub anchor: usize,
    /// Distinct predicates of the pass.
    pub preds: Vec<BatchPred>,
    /// Tuples the pass streams.
    pub rows: usize,
}

impl Batch {
    /// Leaves this pass covers across all queries (own + delivered) *as
    /// claimed* — an elevator may pick up more mid-pass, which is why the
    /// runner accounts saved scans at delivery time, not from this.
    #[cfg(test)]
    pub fn covered_leaves(&self) -> usize {
        self.preds.iter().map(|p| p.own_leaves.len() + p.others.len()).sum()
    }
}

/// What a runnable query must do about shared scans.
#[derive(Debug, Default)]
pub(crate) struct Runnable {
    /// Lists already published for this ticket: `(leaf, cands)`.
    pub ready: Vec<(usize, Cands)>,
    /// Passes this query must execute (and publish) before running.
    pub batches: Vec<Batch>,
    /// Keys claimed by another runner that cover this query's leaves:
    /// wait for their publication (delivery lands in `ready` under this
    /// ticket), falling back to self-evaluation if the pass aborts.
    pub waits: Vec<ShareKey>,
}

/// The board: pending wants, in-flight claims, published deliveries, and
/// the per-column elevator cursors of passes currently streaming.
#[derive(Debug, Default)]
pub(crate) struct ScanBoard {
    pending: HashMap<ShareKey, Vec<Want>>,
    in_flight: HashMap<ShareKey, Vec<Want>>,
    ready: HashMap<u64, Vec<(usize, Cands)>>,
    /// Rows already streamed in the current elevator cycle, per column —
    /// the wrap distance a rider attaching *now* would pay.
    progress: HashMap<ColumnId, usize>,
}

impl ScanBoard {
    /// Post a queued query's scan leaves as pending wants.
    pub fn post(&mut self, ticket: u64, requests: &[ScanRequest<'_>]) {
        for r in requests {
            self.pending.entry(r.key()).or_default().push(Want { ticket, leaf: r.leaf });
        }
    }

    /// How a pass would cover `key`: `None` when nothing pending or in
    /// flight matches (the query streams for itself), `Some(missed)` when
    /// a pass covers it — `missed` is the wrap-around distance in rows
    /// (zero for a pending pass that has not started, or an attach right
    /// at pass start), the memory-side price of attaching
    /// ([`costmodel::scan::Select::covered`]).
    pub fn coverage(&self, key: &ShareKey) -> Option<usize> {
        if self.in_flight.contains_key(key) {
            return Some(self.progress.get(&key.col).copied().unwrap_or(0));
        }
        self.pending.contains_key(key).then_some(0)
    }

    /// True while a claimed pass owes `key` a publication.
    pub fn in_flight(&self, key: &ShareKey) -> bool {
        self.in_flight.contains_key(key)
    }

    /// Publish an elevator's position: `streamed` rows of the current
    /// cycle are behind the cursor on `col` (what a rider attaching now
    /// would have to wrap over).
    pub fn set_progress(&mut self, col: ColumnId, streamed: usize) {
        self.progress.insert(col, streamed);
    }

    /// Remove a finished elevator's cursor.
    pub fn clear_progress(&mut self, col: &ColumnId) {
        self.progress.remove(col);
    }

    /// Transition a query to runnable: withdraw its pending wants, collect
    /// lists already published for it, claim cooperative passes over its
    /// scan columns (absorbing every pending same-column want), and note
    /// the keys it must wait on because another runner claimed them first.
    ///
    /// A claim nobody else wants is *not* batched — the executor's access
    /// planner keeps choosing scan vs. index freely for uncontended
    /// leaves; passes exist to share streams between queries, not to
    /// force one query's leaves through a full column scan. The exception
    /// is chunked mode over a long, unindexed column (`chunk_rows > 0` and
    /// `rows > chunk_rows`): there an own-only claim *does* open an
    /// elevator, because late arrivals can attach to it mid-pass — the
    /// churn scenario the elevator exists for.
    ///
    /// Batches come out ordered by the anchor leaf's position in
    /// `requests`, and columns are grouped in first-appearance order, so
    /// reports and metrics are identical run to run.
    pub fn runnable(
        &mut self,
        ticket: u64,
        requests: &[ScanRequest<'_>],
        chunk_rows: usize,
    ) -> Runnable {
        let mut out = Runnable::default();
        // Withdraw this query's own pending wants (it is about to either
        // receive, claim, or self-evaluate every leaf).
        self.pending.retain(|_, wants| {
            wants.retain(|w| w.ticket != ticket);
            !wants.is_empty()
        });
        out.ready = self.ready.remove(&ticket).unwrap_or_default();
        let have: HashSet<usize> = out.ready.iter().map(|(leaf, _)| *leaf).collect();

        // Group this query's unserved leaves by column, columns in
        // first-appearance order (a HashMap iteration here would make
        // batch order — and with it reports and metrics — vary run to
        // run).
        let mut cols: Vec<ColumnId> = Vec::new();
        let mut by_col: HashMap<ColumnId, Vec<usize>> = HashMap::new();
        for (i, r) in requests.iter().enumerate() {
            if have.contains(&r.leaf) {
                continue;
            }
            let key = r.key();
            if let Some(wants) = self.in_flight.get_mut(&key) {
                // Someone is streaming this list right now: register for
                // delivery and wait. The claim may already carry this
                // query's want (absorbed from pending) — don't register it
                // twice, or the publish would double-deliver and inflate
                // the saved-scan accounting.
                let want = Want { ticket, leaf: r.leaf };
                if !wants.contains(&want) {
                    wants.push(want);
                }
                out.waits.push(key);
                continue;
            }
            by_col
                .entry(r.col)
                .or_insert_with(|| {
                    cols.push(r.col);
                    Vec::new()
                })
                .push(i);
        }

        for col in cols {
            let req_idxs = by_col.remove(&col).expect("grouped above");
            // Distinct predicates: the runner's own leaves first (stable
            // order), then every pending same-column want.
            let mut preds: Vec<BatchPred> = Vec::new();
            for &i in &req_idxs {
                let key = requests[i].key();
                match preds.iter_mut().find(|p| p.key == key) {
                    Some(p) => p.own_leaves.push(requests[i].leaf),
                    None => preds.push(BatchPred {
                        key,
                        own_leaves: vec![requests[i].leaf],
                        others: Vec::new(),
                    }),
                }
            }
            let mut same_col: Vec<(ShareKey, Vec<Want>)> = Vec::new();
            self.pending.retain(|key, wants| {
                if key.col == col {
                    same_col.push((*key, std::mem::take(wants)));
                    false
                } else {
                    true
                }
            });
            // Deterministic absorption order: by the oldest want.
            same_col.sort_by_key(|(_, wants)| wants.first().map(|w| (w.ticket, w.leaf)));
            for (key, wants) in same_col {
                match preds.iter_mut().find(|p| p.key == key) {
                    Some(p) => p.others.extend(wants),
                    None => preds.push(BatchPred { key, own_leaves: Vec::new(), others: wants }),
                }
            }
            let anchor_req = &requests[req_idxs[0]];
            let elevator_eligible =
                chunk_rows > 0 && anchor_req.rows > chunk_rows && !anchor_req.indexed;
            if preds.iter().all(|p| p.others.is_empty()) && !elevator_eligible {
                // Nobody else wants these lists, so a pass would share
                // nothing — leave the leaves to the access planner (a
                // point predicate may be index territory; forcing a full
                // column stream here would undo the access-path win).
                continue;
            }
            // Claim: every key of the pass goes in flight so later runners
            // wait for the publication instead of re-streaming.
            for p in &preds {
                self.in_flight.insert(p.key, p.others.clone());
            }
            out.batches.push(Batch { anchor: req_idxs[0], preds, rows: anchor_req.rows });
        }
        out
    }

    /// Drain every pending want on `col` — the elevator runner calls this
    /// at chunk boundaries to attach late arrivals as new riders. Returned
    /// in deterministic (oldest-want-first) order; the caller must either
    /// register each key back in flight ([`ScanBoard::claim_key`]) or
    /// leave it unserved (in which case the wants are lost — don't).
    pub fn take_pending_for_col(&mut self, col: &ColumnId) -> Vec<(ShareKey, Vec<Want>)> {
        let mut taken: Vec<(ShareKey, Vec<Want>)> = Vec::new();
        self.pending.retain(|key, wants| {
            if key.col == *col {
                taken.push((*key, std::mem::take(wants)));
                false
            } else {
                true
            }
        });
        taken.sort_by_key(|(_, wants)| wants.first().map(|w| (w.ticket, w.leaf)));
        taken
    }

    /// Put `key` (back) in flight with `wants` registered for delivery —
    /// attaching a rider mid-pass. Extends an existing registration
    /// without duplicating wants.
    pub fn claim_key(&mut self, key: ShareKey, wants: Vec<Want>) {
        let entry = self.in_flight.entry(key).or_default();
        for w in wants {
            if !entry.contains(&w) {
                entry.push(w);
            }
        }
    }

    /// Deliver one completed rider's list: every registered want receives
    /// it and the in-flight mark clears. Returns the number of deliveries
    /// to *other* tickets.
    pub fn deliver(&mut self, key: &ShareKey, cands: &Cands) -> usize {
        let wants = self.in_flight.remove(key).unwrap_or_default();
        let delivered = wants.len();
        for w in wants {
            self.ready.entry(w.ticket).or_default().push((w.leaf, cands.clone()));
        }
        delivered
    }

    /// Publish a pass's lists: deliver to every registered want (including
    /// waiters that joined after the claim) and clear the in-flight marks.
    /// Returns the number of deliveries to *other* tickets.
    pub fn publish(&mut self, batch: &Batch, lists: &[Cands]) -> usize {
        batch.preds.iter().zip(lists).map(|(p, cands)| self.deliver(&p.key, cands)).sum()
    }

    /// Abort claimed keys: they return to pending so a future wave can
    /// cover them; current waiters fall back to evaluating themselves. By
    /// key rather than by batch because elevator riders attach after the
    /// batch was formed.
    pub fn abort_keys(&mut self, keys: &[ShareKey]) {
        for key in keys {
            if let Some(wants) = self.in_flight.remove(key) {
                if !wants.is_empty() {
                    self.pending.entry(*key).or_default().extend(wants);
                }
            }
        }
    }

    /// Deliveries published for `ticket` since it last looked.
    pub fn take_ready(&mut self, ticket: u64) -> Vec<(usize, Cands)> {
        self.ready.remove(&ticket).unwrap_or_default()
    }

    /// Drop every residue of a finished ticket (stale wants from aborted
    /// passes, undelivered lists) so the board never accumulates state for
    /// queries that already returned. Returns the number of *delivered but
    /// never consumed* lists dropped — the caller rolls those out of the
    /// saved-scan counters so global and per-session accounting stay in
    /// balance even on error paths.
    pub fn forget(&mut self, ticket: u64) -> usize {
        let dropped = self.ready.remove(&ticket).map(|lists| lists.len()).unwrap_or(0);
        self.pending.retain(|_, wants| {
            wants.retain(|w| w.ticket != ticket);
            !wants.is_empty()
        });
        for wants in self.in_flight.values_mut() {
            wants.retain(|w| w.ticket != ticket);
        }
        dropped
    }
}

/// A canonical fingerprint of a plan: equal strings mean the same
/// computation over the same bytes (table identities include the address
/// and length of each referenced column buffer; constants print
/// round-trippably). Valid while the referenced tables are alive — which
/// is as long as any session can submit plans over them.
pub(crate) fn fingerprint(plan: &LogicalPlan<'_>) -> String {
    let mut s = String::new();
    fp_node(&plan.root, &mut s);
    s
}

fn fp_table(t: &DecomposedTable, s: &mut String) {
    let _ = write!(s, "{}@{}#{}", t.name(), t.seqbase(), t.len());
    // Every column's buffer identity: a table rebuilt at a recycled
    // allocation would have to reproduce the address of *each* column to
    // collide, not just the first.
    for col in t.columns() {
        let _ = write!(s, "{:?}", column_id(&col.bat));
    }
}

fn fp_node(node: &PlanNode<'_>, s: &mut String) {
    match node {
        PlanNode::Scan { table } => {
            s.push_str("scan(");
            fp_table(table, s);
            s.push(')');
        }
        PlanNode::Filter { input, pred } => {
            fp_node(input, s);
            // Pred's Display prints f64 bounds with Rust's shortest
            // round-trip formatting, so distinct constants print
            // distinctly.
            let _ = write!(s, "|filter[{pred}]");
        }
        PlanNode::Join { input, right, left_col, right_col } => {
            fp_node(input, s);
            let _ = write!(s, "|join[{left_col}={right_col}](");
            fp_node(right, s);
            s.push(')');
        }
        PlanNode::GroupAgg { input, key, aggs } => {
            fp_node(input, s);
            let _ = write!(s, "|group[{}]aggs[", key.as_deref().unwrap_or(""));
            for a in aggs {
                let _ = write!(s, "{a},");
            }
            s.push(']');
        }
    }
}

/// Rough resident size of a cached result, in bytes (output rows + report
/// strings + fixed overheads) — the currency of the cache budget.
pub(crate) fn approx_bytes(e: &Executed) -> usize {
    let output = match &e.output {
        QueryOutput::Groups(rows) => {
            rows.iter().map(|r| 48 + r.key.len() + 24 * r.values.len()).sum()
        }
        QueryOutput::Aggregates(v) => 24 * v.len(),
        QueryOutput::Oids(v) => std::mem::size_of::<Oid>() * v.len(),
        QueryOutput::JoinIndex(v) => 2 * std::mem::size_of::<Oid>() * v.len(),
    };
    let report: usize =
        e.report.ops.iter().map(|o| 160 + o.op.len() + o.detail.len() + 96 * o.access.len()).sum();
    128 + output + report
}

struct CacheEntry {
    /// Shared, not owned: a hit hands out another reference instead of
    /// deep-cloning result rows and report strings — the difference
    /// between O(1) and O(result) on Zipf-hot hit paths.
    executed: Arc<Executed>,
    cost_ms: f64,
    bytes: usize,
    last_used: u64,
}

/// The bounded LRU result cache. `cap == 0` disables it.
pub(crate) struct ResultCache {
    cap: usize,
    bytes: usize,
    tick: u64,
    entries: HashMap<String, CacheEntry>,
    /// Entries evicted to respect the budget (metric).
    pub evictions: u64,
}

impl ResultCache {
    pub fn new(cap: usize) -> Self {
        Self { cap, bytes: 0, tick: 0, entries: HashMap::new(), evictions: 0 }
    }

    /// Resident bytes (key + entry estimates).
    pub fn bytes(&self) -> usize {
        self.bytes
    }

    /// Resident entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Look a fingerprint up, refreshing its recency. Returns a shared
    /// reference to the cached execution (no deep copy) and the cost quote
    /// recorded at insert time.
    pub fn get(&mut self, key: &str) -> Option<(Arc<Executed>, f64)> {
        self.tick += 1;
        let tick = self.tick;
        let e = self.entries.get_mut(key)?;
        e.last_used = tick;
        Some((Arc::clone(&e.executed), e.cost_ms))
    }

    /// Insert a completed execution, evicting least-recently-used entries
    /// until the budget holds. Results too large to ever fit are skipped.
    pub fn insert(&mut self, key: String, executed: &Arc<Executed>, cost_ms: f64) {
        if self.cap == 0 {
            return;
        }
        let bytes = approx_bytes(executed) + key.len();
        if bytes > self.cap {
            return;
        }
        self.tick += 1;
        if let Some(old) = self.entries.remove(&key) {
            self.bytes -= old.bytes;
        }
        self.bytes += bytes;
        self.entries.insert(
            key,
            CacheEntry { executed: Arc::clone(executed), cost_ms, bytes, last_used: self.tick },
        );
        while self.bytes > self.cap {
            let lru = self
                .entries
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k.clone())
                .expect("over budget implies non-empty");
            let e = self.entries.remove(&lru).expect("key just found");
            self.bytes -= e.bytes;
            self.evictions += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use engine::exec::{execute, ExecOptions};
    use engine::plan::{Agg, LogicalPlan, Pred, Query};
    use engine::PushdownMode;
    use memsim::NullTracker;
    use monet_core::storage::{ColType, TableBuilder, Value};

    fn scan_requests<'p>(plan: &'p LogicalPlan<'_>) -> Vec<ScanRequest<'p>> {
        engine::shared::scan_requests(plan, PushdownMode::On)
    }

    fn table() -> DecomposedTable {
        let mut b =
            TableBuilder::new("t", 0).column("qty", ColType::I32).column("price", ColType::F64);
        for i in 0..200i32 {
            b.push_row(&[Value::I32(i % 20), Value::F64(i as f64)]).unwrap();
        }
        b.finish()
    }

    #[test]
    fn board_batches_pending_same_column_wants_and_delivers() {
        let t = table();
        let p1 = Query::scan(&t).filter(Pred::range_i32("qty", 1, 5)).build().unwrap();
        let p2 = Query::scan(&t).filter(Pred::range_i32("qty", 3, 9)).build().unwrap();
        let r1 = scan_requests(&p1);
        let r2 = scan_requests(&p2);

        let mut board = ScanBoard::default();
        board.post(7, &r2); // ticket 7 queues first
        assert_eq!(board.coverage(&r2[0].key()), Some(0), "pending covers at zero wrap cost");

        // Ticket 3 becomes runnable: it claims a 2-predicate pass.
        let work = board.runnable(3, &r1, 0);
        assert!(work.ready.is_empty() && work.waits.is_empty());
        assert_eq!(work.batches.len(), 1);
        let batch = &work.batches[0];
        assert_eq!(batch.preds.len(), 2);
        assert_eq!(batch.covered_leaves(), 2);
        assert!(board.in_flight(&r2[0].key()), "claims are visible to later runners");

        // A third runnable query wanting the in-flight key waits.
        let p3 = Query::scan(&t).filter(Pred::range_i32("qty", 3, 9)).build().unwrap();
        let r3 = scan_requests(&p3);
        let work3 = board.runnable(9, &r3, 0);
        assert!(work3.batches.is_empty());
        assert_eq!(work3.waits, vec![r3[0].key()]);

        // Ticket 7 itself granted mid-flight: its want was already
        // absorbed into the claim, so becoming runnable must register it
        // for delivery exactly once, not twice.
        let work7 = board.runnable(7, &r2, 0);
        assert!(work7.batches.is_empty());
        assert_eq!(work7.waits, vec![r2[0].key()]);

        // Publish: both ticket 7 and the waiter 9 get their lists.
        let lists: Vec<Cands> = batch
            .preds
            .iter()
            .map(|p| {
                Arc::new(
                    monet_core::scan::select(
                        &mut NullTracker,
                        monet_core::scan::ScanCol::Plain(r1[0].bat),
                        &[p.key.pred.kernel_pred()],
                        monet_core::scan::RowSet::All,
                    )
                    .unwrap()
                    .remove(0),
                )
            })
            .collect();
        let delivered = board.publish(batch, &lists);
        assert_eq!(delivered, 2, "one delivery each to tickets 7 and 9, no duplicates");
        assert!(!board.in_flight(&r2[0].key()));
        let got7 = board.take_ready(7);
        assert_eq!(got7.len(), 1, "ticket 7's absorbed + re-registered want delivers once");
        assert_eq!(got7[0].0, r2[0].leaf);
        assert_eq!(board.take_ready(9).len(), 1);

        // The delivered list is exactly the solo evaluation.
        let solo = execute(&mut NullTracker, &p2, &ExecOptions::default()).unwrap();
        let engine::exec::QueryOutput::Oids(expect) = solo.output else { panic!("oids") };
        assert_eq!(*got7[0].1, expect);
    }

    #[test]
    fn lone_uncontended_leaves_are_not_batched_and_aborts_repost() {
        let t = table();
        let p = Query::scan(&t).filter(Pred::range_i32("qty", 1, 5)).build().unwrap();
        let r = scan_requests(&p);
        let mut board = ScanBoard::default();
        let work = board.runnable(1, &r, 0);
        assert!(work.batches.is_empty(), "nothing to share");
        assert!(!board.in_flight(&r[0].key()));
        // Chunked mode doesn't change this for short columns: 200 rows fit
        // in one chunk, so there is nothing for a late arrival to attach
        // to mid-pass.
        let work = board.runnable(1, &r, 64 << 10);
        assert!(work.batches.is_empty(), "short columns stay with the access planner");

        // Two same-column leaves of ONE query share nothing either: the
        // access planner must stay free to pick index probes for them.
        let multi = Query::scan(&t)
            .filter(Pred::range_i32("qty", 2, 2).or(Pred::range_i32("qty", 9, 9)))
            .build()
            .unwrap();
        let rm = scan_requests(&multi);
        assert_eq!(rm.len(), 2);
        let work = board.runnable(5, &rm, 0);
        assert!(work.batches.is_empty(), "own-only multi-leaf claims are not forced to stream");
        assert!(!board.in_flight(&rm[0].key()));

        // Now with a pending want: claim, then abort — the want returns to
        // pending so a future wave can cover it.
        board.post(2, &r);
        let work = board.runnable(1, &r, 0);
        assert_eq!(work.batches.len(), 1);
        let keys: Vec<ShareKey> = work.batches[0].preds.iter().map(|p| p.key).collect();
        board.abort_keys(&keys);
        assert!(!board.in_flight(&r[0].key()));
        assert_eq!(board.coverage(&r[0].key()), Some(0), "aborted wants are pending again");
        board.forget(2);
        assert!(board.coverage(&r[0].key()).is_none(), "forget clears a finished ticket's wants");
    }

    #[test]
    fn chunked_mode_opens_elevators_for_uncontended_long_columns() {
        let mut b =
            TableBuilder::new("big", 0).column("qty", ColType::I32).column("price", ColType::F64);
        for i in 0..2000i32 {
            b.push_row(&[Value::I32(i % 20), Value::F64(i as f64)]).unwrap();
        }
        let t = b.finish();
        let p = Query::scan(&t).filter(Pred::range_i32("qty", 1, 5)).build().unwrap();
        let r = scan_requests(&p);
        let mut board = ScanBoard::default();
        // rows (2000) > chunk (512): an own-only claim opens an elevator
        // so late arrivals have something to attach to.
        let work = board.runnable(1, &r, 512);
        assert_eq!(work.batches.len(), 1);
        assert!(board.in_flight(&r[0].key()));

        // A rider posts mid-pass; the runner drains it at a boundary.
        let p2 = Query::scan(&t).filter(Pred::range_i32("qty", 7, 9)).build().unwrap();
        let r2 = scan_requests(&p2);
        board.post(8, &r2);
        board.set_progress(r[0].col, 1024);
        assert_eq!(
            board.coverage(&r2[0].key()),
            Some(0),
            "pending (not yet attached) quotes zero wrap"
        );
        let taken = board.take_pending_for_col(&r[0].col);
        assert_eq!(taken.len(), 1);
        assert_eq!(taken[0].0, r2[0].key());
        board.claim_key(taken[0].0, taken[0].1.clone());
        assert_eq!(
            board.coverage(&r2[0].key()),
            Some(1024),
            "an in-flight attach prices the wrap distance"
        );

        // Delivery per rider: the late rider's list lands on its ticket.
        let cands: Cands = Arc::new(vec![1, 2, 3]);
        assert_eq!(board.deliver(&r2[0].key(), &cands), 1);
        assert_eq!(board.take_ready(8).len(), 1);
        board.clear_progress(&r[0].col);
        assert!(board.coverage(&r2[0].key()).is_none());

        // Indexed columns never elevator uncontended: the access planner
        // may answer them without streaming at all.
        let mut ti = {
            let mut b = TableBuilder::new("idx", 0).column("qty", ColType::I32);
            for i in 0..2000i32 {
                b.push_row(&[Value::I32(i % 20)]).unwrap();
            }
            b.finish()
        };
        ti.create_index("qty", monet_core::IndexKind::CsBTree).unwrap();
        let pi = Query::scan(&ti).filter(Pred::range_i32("qty", 1, 5)).build().unwrap();
        let ri = scan_requests(&pi);
        let work = board.runnable(2, &ri, 512);
        assert!(work.batches.is_empty(), "indexed leaves stay with the access planner");
    }

    #[test]
    fn fingerprints_distinguish_plans_and_tables() {
        let t = table();
        let t2 = table();
        fn q<'a>(t: &'a DecomposedTable, hi: i32) -> LogicalPlan<'a> {
            Query::scan(t)
                .filter(Pred::range_i32("qty", 1, hi))
                .agg(Agg::sum("price"))
                .build()
                .unwrap()
        }
        let (a, b) = (q(&t, 5), q(&t, 5));
        assert_eq!(fingerprint(&a), fingerprint(&b), "same plan, same table");
        assert_ne!(fingerprint(&a), fingerprint(&q(&t, 6)), "different constant");
        assert_ne!(fingerprint(&a), fingerprint(&q(&t2, 5)), "same data, different buffers");
    }

    #[test]
    fn cache_caps_bytes_and_evicts_lru() {
        let t = table();
        let run = |lo: i32| {
            let p = Query::scan(&t).filter(Pred::range_i32("qty", lo, lo + 3)).build().unwrap();
            (
                fingerprint(&p),
                Arc::new(execute(&mut NullTracker, &p, &ExecOptions::default()).unwrap()),
            )
        };
        let (k1, e1) = run(0);
        let one = approx_bytes(&e1) + k1.len();
        // Budget fits two entries, not three.
        let mut cache = ResultCache::new(one * 2 + one / 2);
        cache.insert(k1.clone(), &e1, 1.0);
        let (k2, e2) = run(4);
        cache.insert(k2.clone(), &e2, 1.0);
        assert_eq!(cache.len(), 2);
        assert!(cache.get(&k1).is_some(), "touch k1 so k2 is the LRU");
        let (k3, e3) = run(8);
        cache.insert(k3.clone(), &e3, 1.0);
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.evictions, 1);
        assert!(cache.get(&k2).is_none(), "k2 was least recently used");
        assert!(cache.get(&k1).is_some() && cache.get(&k3).is_some());
        assert!(cache.bytes() <= one * 2 + one / 2);

        // A zero budget disables insertion entirely.
        let mut off = ResultCache::new(0);
        off.insert(k1.clone(), &e1, 1.0);
        assert_eq!(off.len(), 0);
        assert!(off.get(&k1).is_none());
    }
}
