//! The blocking service front-end: sessions and the submit path (result
//! cache → single-flight collapse → physical plan → quote → admission →
//! shared-scan claim → execution of that same plan).
//!
//! Two multi-query mechanisms live here on top of the board in
//! `crate::shared`:
//!
//! * **Single-flight collapse** — when the cache is enabled, concurrent
//!   submissions with the same plan fingerprint collapse into one
//!   execution: the first becomes the *leader* and runs; the rest wait on
//!   its flight entry and share the leader's `Arc<Executed>` (tables are
//!   immutable and execution deterministic, so the shared result is
//!   bit-identical to running each copy).
//! * **Elevator passes** — every claimed cooperative pass streams its
//!   column in chunks of `chunk_rows` (one chunk when that is `0` or the
//!   column fits), absorbing newly posted same-column wants at every
//!   boundary (riders wrap around for the prefix they missed) and yielding
//!   its lease between chunks when a cheaper query waits. A saved scan is
//!   booked once, in one session's row: the runner's for a leaf of its own
//!   its pass covered, the beneficiary's when it picks a delivered list up
//!   — so late attaches are counted and aborted passes are not.

use std::cell::Cell;
use std::collections::HashMap;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::Instant;

use costmodel::access::AccessPath;
use costmodel::quote::{quote_ops, OpShape, QueryQuote};
use costmodel::scan::{scan_cost, Select};
use costmodel::ModelMachine;
use engine::exec::{execute_with_scans, ExecOptions, ExecReport, Executed, QueryOutput, Threads};
use engine::physical;
use engine::plan::LogicalPlan;
use engine::shared::{ColumnId, ScanRequest, ScanTicket, ShareKey};
use memsim::{EventCounters, MachineConfig, MemTracker, NullTracker, SimTracker};
use monet_core::scan::{par_select, select_into, RowSet, ScanCol, ScanPred};
use monet_core::storage::{Oid, StorageError};
use obs::{
    DriftMonitor, DriftReport, LogHistogram, QueryTrace, TraceBuilder, TraceEvent, TraceSink,
};

use crate::config::ServiceConfig;
use crate::metrics::{ServiceMetrics, SessionMetrics};
use crate::sched::{Admission, Scheduler};
use crate::shared::{fingerprint, Batch, Cands, ResultCache, Runnable, ScanBoard};
use crate::ServiceError;

/// How many completed traces each session's ring retains under tracing.
const TRACE_RING_CAP: usize = 1024;

/// A multi-session query service over a global thread budget.
///
/// Sessions submit [`LogicalPlan`]s from their own threads;
/// [`Session::run`] blocks through admission (queueing behind the
/// cost-model scheduler under load) and execution, and returns a
/// [`QueryHandle`] with the results, the per-operator [`ExecReport`], and
/// the scheduling trace. See the [crate docs](crate) for the architecture.
pub struct QueryService {
    cfg: ServiceConfig,
    /// The executor policy every pass, quote and execution of this service
    /// runs under: the cost-model defaults with `Threads::Auto`, held once
    /// here so the three can never disagree.
    exec: ExecOptions,
    /// Tracing + drift observatory; `None` when `cfg.trace` is off, and
    /// then the submit path carries no observability state at all.
    obs: Option<ServiceObs>,
    state: Mutex<Inner>,
    cv: Condvar,
}

/// The observability side-car: the trace sink (its own internal locks) and
/// the drift monitor. Lock order: never take `QueryService::state` while
/// holding the drift lock.
struct ServiceObs {
    sink: TraceSink,
    drift: Mutex<DriftMonitor>,
}

/// One session's entry: its ledger row, and its latency histograms
/// ([`obs::LogHistogram`]: bounded memory however many queries run). The
/// service-wide figures [`QueryService::metrics`] reports for what a row
/// counts are the rows' sums, and its distributions are these histograms
/// merged.
#[derive(Default)]
struct SessionEntry {
    row: SessionMetrics,
    /// End-to-end latency (submission to result), milliseconds.
    latency: LogHistogram,
    /// Admission-queue wait, milliseconds (executed queries only).
    queue_wait: LogHistogram,
    /// Wall time of individual cooperative-pass chunks, milliseconds.
    chunk: LogHistogram,
}

/// The `Delivered` terminal of a traced execution: its latency and queue
/// wait, the simulated time its operators were charged and its output rows.
fn delivered_event(executed: &Executed, total_ms: f64, queue_ms: f64) -> TraceEvent {
    let ops = &executed.report.ops;
    let actual_ns = ops.iter().filter_map(|op| op.counters).fold(0.0, |ns, c| ns + c.elapsed_ns());
    let rows = match &executed.output {
        QueryOutput::Groups(g) => g.len(),
        QueryOutput::Aggregates(a) => a.len(),
        QueryOutput::Oids(o) => o.len(),
        QueryOutput::JoinIndex(j) => j.len(),
    };
    TraceEvent::Delivered { total_ms, queue_ms, actual_ns, rows }
}

/// How a submission ended: what [`QueryService::finish`] books, traces and
/// returns.
enum Outcome {
    /// Answered from the result cache.
    CacheHit { executed: Arc<Executed>, cost_ms: f64 },
    /// Answered by the concurrent identical execution `leader` led.
    Collapsed { leader: u64, executed: Arc<Executed>, cost_ms: f64 },
    /// Executed under a lease of its own; its latency ends at the return.
    Delivered {
        executed: Arc<Executed>,
        queued: bool,
        queue_ms: f64,
        total_ms: f64,
        cost_ms: f64,
        threads: usize,
    },
    /// Shed at admission: the queue was full.
    Shed,
    /// Refused by the planner, or failed in the executor.
    Failed(engine::EngineError),
}

/// One in-progress execution other identical submissions can collapse
/// onto. Lives in `Inner::flights` keyed by plan fingerprint.
struct Flight {
    /// Distinguishes this flight from a successor under the same
    /// fingerprint: a follower that registered on a failed (removed)
    /// flight must not touch a new leader's entry.
    id: u64,
    /// Set when the leader finished (successfully or not).
    done: bool,
    /// The leader's result and solo cost quote; `None` until done (and on
    /// failure the whole entry is removed instead).
    result: Option<(Arc<Executed>, f64)>,
    /// Followers currently waiting; the last one out removes the entry.
    waiters: usize,
}

struct Inner {
    sched: Scheduler,
    /// Pending/in-flight/published cooperative-scan state.
    board: ScanBoard,
    /// The bounded LRU result cache.
    cache: ResultCache,
    /// Single-flight table: fingerprint → the execution in progress.
    flights: HashMap<String, Flight>,
    next_flight: u64,
    // Counters no session row holds; the rest are summed from `sessions`.
    admitted_immediately: u64,
    queued: u64,
    collapsed: u64,
    shared_scan_batches: u64,
    elevator_attaches: u64,
    preemptions: u64,
    scan_rows: u64,
    cache_misses: u64,
    sessions: Vec<SessionEntry>,
    /// Test-only: holds a session at a `tests::Hold` point while it says
    /// so.
    #[cfg(test)]
    hold: Option<fn(tests::Hold, &Inner) -> bool>,
}

impl QueryService {
    /// Start a service with the given configuration.
    pub fn new(cfg: ServiceConfig) -> Self {
        let obs = TraceSink::new(&cfg.trace, TRACE_RING_CAP)
            .map(|sink| ServiceObs { sink, drift: Mutex::new(DriftMonitor::new(cfg.drift_band)) });
        Self {
            obs,
            exec: ExecOptions::cost_model(cfg.machine).with_threads(Threads::Auto),
            state: Mutex::new(Inner {
                sched: Scheduler::new(cfg.budget, cfg.queue_limit, cfg.starvation_bound),
                board: ScanBoard::default(),
                cache: ResultCache::new(cfg.cache_bytes),
                flights: HashMap::new(),
                next_flight: 0,
                admitted_immediately: 0,
                queued: 0,
                collapsed: 0,
                shared_scan_batches: 0,
                elevator_attaches: 0,
                preemptions: 0,
                scan_rows: 0,
                cache_misses: 0,
                sessions: Vec::new(),
                #[cfg(test)]
                hold: None,
            }),
            cv: Condvar::new(),
            cfg,
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &ServiceConfig {
        &self.cfg
    }

    /// Open a new session. Sessions are cheap ids plus a service handle;
    /// open one per client thread.
    pub fn session(&self) -> Session<'_> {
        let mut st = self.state.lock().expect("service lock");
        let id = st.sessions.len();
        let row = SessionMetrics { session: id, ..SessionMetrics::default() };
        st.sessions.push(SessionEntry { row, ..SessionEntry::default() });
        if let Some(o) = &self.obs {
            // Under the state lock, so ring index == session id.
            o.sink.register_session();
        }
        Session { svc: self, id }
    }

    /// Gate admission: every new submission queues — even while threads
    /// are free — until [`QueryService::resume_admission`]. Running
    /// queries are unaffected. Used to drain the pool for maintenance,
    /// and to form deterministic admission waves: every member of the
    /// wave posts its scan leaves to the shared-scan board before the
    /// first one claims a cooperative pass.
    pub fn pause_admission(&self) {
        self.state.lock().expect("service lock").sched.pause();
    }

    /// Reopen admission and dispatch the accumulated wave as far as the
    /// thread budget allows.
    pub fn resume_admission(&self) {
        self.state.lock().expect("service lock").sched.resume();
        self.cv.notify_all();
    }

    /// Snapshot the service-wide metrics.
    pub fn metrics(&self) -> ServiceMetrics {
        let st = self.state.lock().expect("service lock");
        let mut m = ServiceMetrics {
            budget: st.sched.budget(),
            threads_in_use: st.sched.in_use(),
            high_water_threads: st.sched.high_water(),
            admitted_immediately: st.admitted_immediately,
            queued: st.queued,
            collapsed: st.collapsed,
            shared_scan_batches: st.shared_scan_batches,
            elevator_attaches: st.elevator_attaches,
            preemptions: st.preemptions,
            scan_rows_streamed: st.scan_rows,
            cache_misses: st.cache_misses,
            cache_evictions: st.cache.evictions,
            cache_bytes: st.cache.bytes(),
            cache_entries: st.cache.len(),
            ..ServiceMetrics::default()
        };
        // The session rows are the ledger for what they count, and the
        // per-session histograms merge exactly (elementwise bucket
        // addition) into the global distributions.
        let mut latency = LogHistogram::new();
        let mut queue_wait = LogHistogram::new();
        let mut chunk = LogHistogram::new();
        for s in &st.sessions {
            let r = &s.row;
            m.submitted += r.submitted;
            m.completed += r.completed;
            m.rejected += r.rejected;
            m.cache_hits += r.cache_hits;
            m.scans_saved += r.scans_saved + r.runner_covered;
            m.compressed_bytes_streamed += r.compressed_bytes_streamed;
            m.bytes_saved += r.bytes_saved;
            latency.merge(&s.latency);
            queue_wait.merge(&s.queue_wait);
            chunk.merge(&s.chunk);
        }
        m.latency = latency.summary().into();
        m.queue_wait = queue_wait.summary().into();
        m.chunk_latency = chunk.summary().into();
        m
    }

    /// Snapshot every session's accounting.
    pub fn session_metrics(&self) -> Vec<SessionMetrics> {
        self.state.lock().expect("service lock").sessions.iter().map(|s| s.row.clone()).collect()
    }

    /// Snapshot every retained lifecycle trace, ordered by query id.
    /// Empty unless [`ServiceConfig::trace`] enabled tracing.
    pub fn traces(&self) -> Vec<QueryTrace> {
        self.obs.as_ref().map(|o| o.sink.traces()).unwrap_or_default()
    }

    /// Snapshot the cost-model drift observatory: per-shape-kind EWMA
    /// residuals of simulated-actual vs model-quoted time, with kinds
    /// outside `[1/band, band]` flagged. Empty (no rows) unless tracing is
    /// on — residuals need the simulator's counters.
    pub fn drift(&self) -> DriftReport {
        match &self.obs {
            Some(o) => o.drift.lock().expect("drift lock").report(),
            None => DriftReport { band: self.cfg.drift_band, rows: Vec::new() },
        }
    }

    /// Record one lifecycle event, when tracing is on.
    fn tpush(&self, tb: &mut Option<TraceBuilder>, event: TraceEvent) {
        if let (Some(tb), Some(o)) = (tb.as_mut(), self.obs.as_ref()) {
            tb.push(&o.sink, event);
        }
    }

    /// Complete a trace: ring + optional JSONL line. Call with the state
    /// lock released — the sink writes to its export stream inline.
    fn tfinish(&self, tb: Option<TraceBuilder>) {
        if let (Some(tb), Some(o)) = (tb, self.obs.as_ref()) {
            o.sink.finish(tb);
        }
    }

    /// Fold a successful execution's operators into the trace (`OpDone`
    /// events) and feed the drift observatory ([`DriftMonitor::record_op`]):
    /// each operator's model price against the simulated counters the
    /// tracing run attributed to it.
    fn observe_ops(&self, tb: &mut Option<TraceBuilder>, executed: &Executed) {
        let Some(o) = &self.obs else { return };
        let mut drift = o.drift.lock().expect("drift lock");
        for op in &executed.report.ops {
            let sim = op.counters;
            // Drift wants apples to apples: skip operators whose work the
            // model cannot see (no self-owned shapes) or that ran on an
            // index path (priced per probe, not per scan shape).
            let indexed = op.access.iter().any(|d| d.path.is_index());
            if let Some(c) = (!indexed).then_some(sim).flatten() {
                drift.record_op(&self.cfg.machine, &op.shapes, c.elapsed_ns());
            }
            self.tpush(
                tb,
                TraceEvent::OpDone {
                    op: op.op.clone(),
                    rows_in: op.rows_in,
                    rows_out: op.rows_out,
                    sim,
                },
            );
        }
    }

    /// Feed one cooperative scan pass (or elevator chunk) into the drift
    /// observatory: `pass`, the fresh select that streamed the rows, plus
    /// one fully covered rider per further merged predicate, against the
    /// chunk's simulated counters.
    fn observe_pass(&self, pass: Select, preds: usize, counters: &EventCounters) {
        let Some(o) = &self.obs else { return };
        let mut shapes = vec![OpShape::Select(pass)];
        shapes.resize(preds.max(1), OpShape::Select(Select { covered: Some(0), ..pass }));
        let mut drift = o.drift.lock().expect("drift lock");
        drift.record_op(&self.cfg.machine, &shapes, counters.elapsed_ns());
    }

    /// Serve one submission. Every exit of [`QueryService::serve`] returns
    /// its outcome to [`QueryService::finish`], the one step that books and
    /// traces it.
    fn run_plan(
        &self,
        session: usize,
        plan: &LogicalPlan<'_>,
    ) -> Result<QueryHandle, ServiceError> {
        let submitted_at = Instant::now();
        let mut tb = self.obs.as_ref().map(|o| o.sink.begin(session));
        // Outlives the state guard `serve` hands to `finish`: a leader that
        // failed settles its flight once `finish` has released the lock.
        let mut flight = FlightGuard { svc: self, fp: None };
        let (st, outcome) = self.serve(session, plan, submitted_at, &mut tb, &mut flight);
        self.finish(st, session, submitted_at, tb, outcome)
    }

    /// Take one submission to its outcome, and return that outcome with the
    /// state lock held.
    fn serve<'s>(
        &'s self,
        session: usize,
        plan: &LogicalPlan<'_>,
        submitted_at: Instant,
        tb: &mut Option<TraceBuilder>,
        flight: &mut FlightGuard<'s>,
    ) -> (MutexGuard<'s, Inner>, Outcome) {
        let fp = (self.cfg.cache_bytes > 0).then(|| fingerprint(plan));
        let mut st = self.state.lock().expect("service lock");
        st.sessions[session].row.submitted += 1;

        // Result cache and single-flight collapse. Tables are immutable
        // and execution deterministic, so a fingerprint hit — cached or
        // collapsed onto a concurrent leader — is bit-identical to
        // re-running the plan, without a lease.
        if let Some(fp) = fp {
            loop {
                if let Some((executed, cost_ms)) = st.cache.get(&fp) {
                    return (st, Outcome::CacheHit { executed, cost_ms });
                }
                if let Some(f) = st.flights.get_mut(&fp) {
                    // An identical plan is executing right now: collapse
                    // onto it instead of running a duplicate.
                    let leader = f.id;
                    f.waiters += 1;
                    loop {
                        match st.flights.get(&fp) {
                            Some(f) if f.id == leader && !f.done => {}
                            _ => break,
                        }
                        st = self.cv.wait(st).expect("service lock");
                    }
                    let shared = match st.flights.get_mut(&fp) {
                        Some(f) if f.id == leader => {
                            f.waiters -= 1;
                            let r = f.result.clone();
                            if f.done && f.waiters == 0 {
                                st.flights.remove(&fp);
                            }
                            r
                        }
                        // The leader failed and removed the flight; retry
                        // (and maybe lead) ourselves.
                        _ => None,
                    };
                    if let Some((executed, cost_ms)) = shared {
                        st.collapsed += 1;
                        return (st, Outcome::Collapsed { leader, executed, cost_ms });
                    }
                    continue;
                }
                // No cached result and no flight: lead one. From here on
                // the guard settles it as failed on every early exit —
                // refusal, rejection, engine error, or a panic unwinding out
                // of execute().
                let id = st.next_flight;
                st.next_flight += 1;
                st.flights.insert(fp.clone(), Flight { id, done: false, result: None, waiters: 0 });
                st.cache_misses += 1;
                flight.fp = Some(fp);
                break;
            }
        }
        drop(st);

        // The one physical plan, made outside the lock (and only for a
        // query that will run): what admission quotes, the board shares and
        // the executor runs. Tracing plans under the run's simulated
        // tracker, so the B+-tree count probes planning makes are charged
        // to the run. A plan the planner refuses never reaches admission.
        let mut sim = self.obs.as_ref().map(|_| SimTracker::for_machine(self.cfg.machine));
        let planned = match &mut sim {
            Some(trk) => physical::plan(trk, plan, &self.exec),
            None => physical::plan(&mut NullTracker, plan, &self.exec),
        };
        let physical = match planned {
            Ok(physical) => physical,
            Err(e) => return (self.state.lock().expect("service lock"), Outcome::Failed(e)),
        };
        // Restricted leaves (the conjunction planner evaluates them against
        // an earlier leaf's survivors) stay off the shared-scan board: a
        // cooperative full-column pass for them would stream bytes the plan
        // never touches.
        let requests: Vec<ScanRequest<'_>> = if self.cfg.shared_scans {
            physical.requests().iter().copied().filter(|r| !r.restricted).collect()
        } else {
            Vec::new()
        };
        let mut st = self.state.lock().expect("service lock");

        // Quote for the scheduler, discounting leaves a pending or
        // in-flight cooperative pass already covers: a fully covered leaf
        // pays only the CPU-side marginal predicate evaluation, and a
        // mid-pass elevator attach additionally pays the memory stream of
        // the wrap-around rows it missed — both cheaper than a fresh
        // scan, which is exactly why shortest-cost-first should start
        // such queries sooner.
        let covered: HashMap<usize, usize> = requests
            .iter()
            .filter_map(|r| st.board.coverage(&r.key()).map(|missed| (r.leaf, missed)))
            .collect();
        let quote = physical.quote(|leaf| covered.get(&leaf).copied());
        let desired = quote.best_threads(&self.cfg.machine, self.cfg.budget).threads;
        self.tpush(
            tb,
            TraceEvent::Admitted {
                quote_ms: quote.seq_ms(),
                ops: quote.ops,
                covered: covered.len(),
            },
        );

        // Admission (under the lock): run now, wait for a lease, or shed.
        // Queued tickets post their scan leaves to the board so a runnable
        // query can fold them into its cooperative pass.
        let (ticket, threads, queued) = match st.sched.submit(quote.seq_ns, desired) {
            Admission::Run(grant) => {
                st.admitted_immediately += 1;
                (grant.ticket, grant.threads, false)
            }
            Admission::Rejected => return (st, Outcome::Shed),
            Admission::Queued(ticket) => {
                st.board.post(ticket, &requests);
                st.queued += 1;
                self.tpush(tb, TraceEvent::Queued { depth: st.sched.waiting() });
                let threads;
                (st, threads) = self.await_grant(st, ticket);
                (ticket, threads, true)
            }
        };
        self.tpush(tb, TraceEvent::LeaseGranted { threads });
        // Runnable: harvest lists already published for this ticket, claim
        // cooperative passes over this plan's scan columns (absorbing every
        // queued same-column request), and note keys another runner is
        // already streaming. Every list picked up is a scan this session's
        // query saved.
        let work = if self.cfg.shared_scans {
            st.board.runnable(ticket, &requests, self.cfg.chunk_rows)
        } else {
            Runnable::default()
        };
        st.sessions[session].row.scans_saved += work.ready.len() as u64;
        drop(st);
        let queue_ms = submitted_at.elapsed().as_secs_f64() * 1e3;

        // Execute on the session's thread under the leased thread cap: the
        // executor's per-operator parallel decisions stay cost-model-driven
        // but can never fan out past the lease, so the pool as a whole
        // never oversubscribes the budget. The lease is returned by the
        // guard's Drop on *every* exit — normal return, engine error, or a
        // panic unwinding out of execute() — otherwise a single panicking
        // query would strand its threads and deadlock every queued waiter.
        let lease = LeaseGuard { svc: self, threads: Cell::new(threads) };
        let mut ticket_lists = ScanTicket::new();
        for (leaf, cands) in work.ready {
            ticket_lists.provide(leaf, cands);
        }
        // Run the claimed passes (under the lease) and publish their lists
        // before waiting on anyone else's. Two invariants make every such
        // wait resolve: no session waits on a publication while holding
        // threads (a runner publishes or aborts its own passes first, and a
        // session blocked on another runner's pass hands its lease back
        // below), and the scheduler dispatches on every transition (a
        // ticket never waits beside a free thread while admission is open,
        // so a runner that yielded mid-pass is granted as threads free).
        for batch in &work.batches {
            let req = &requests[batch.anchor];
            self.run_elevator(session, batch, req, &lease, &mut ticket_lists, tb);
        }
        if !work.waits.is_empty() {
            let mut st = self.state.lock().expect("service lock");
            if work.waits.iter().any(|k| st.board.in_flight(k)) {
                // Hand the lease back while blocked on another runner's
                // publication — a preempted runner can only resume on
                // released threads — and re-acquire at cost 0 once the
                // lists arrive.
                self.tpush(tb, TraceEvent::Preempted { remaining_ms: 0.0 });
                let held = lease.threads.replace(0);
                st.sched.release(held);
                self.cv.notify_all();
                while work.waits.iter().any(|k| st.board.in_flight(k)) {
                    st = self.cv.wait(st).expect("service lock");
                }
                #[cfg(test)]
                {
                    st = self.hold(st, tests::Hold::Requeue);
                }
                st = self.requeue(st, &lease, 0.0, held.max(1), tb);
            }
            // Delivered lists land under this ticket; a leaf whose pass
            // aborted simply stays unprovided and is evaluated below.
            let ready = st.board.take_ready(ticket);
            st.sessions[session].row.scans_saved += ready.len() as u64;
            for (leaf, cands) in ready {
                ticket_lists.provide(leaf, cands);
            }
        }

        let physical = physical.with_thread_cap(lease.threads.get().max(1));
        // Tracing runs the executor under the memory simulator so every
        // operator report carries deterministic counters, at the threads
        // the lease and the planner give it (each worker charges a
        // simulated hierarchy of its own; results are bit-identical).
        let result = match &mut sim {
            Some(trk) => execute_with_scans(trk, &physical, &ticket_lists),
            None => execute_with_scans(&mut NullTracker, &physical, &ticket_lists),
        };
        let total_ms = submitted_at.elapsed().as_secs_f64() * 1e3;
        let threads = lease.threads.get();
        drop(lease);

        // Drop what the board still holds for this ticket (stale wants,
        // lists delivered after it stopped looking) on either outcome.
        let executed = match result {
            Ok(e) => Arc::new(e),
            Err(e) => {
                let mut st = self.state.lock().expect("service lock");
                st.board.forget(ticket);
                return (st, Outcome::Failed(e));
            }
        };
        self.observe_ops(tb, &executed);
        // Scan traffic this query streamed itself: scan-path leaves
        // (uncompressed or packed) the shared mechanism did not cover —
        // index probes stream nothing. Packed leaves additionally account
        // the compressed bytes they streamed and the uncompressed bytes
        // (`rows × stride`) the encoding kept off the bus.
        let (mut self_scanned, mut packed_bytes, mut packed_saved) = (0u64, 0u64, 0u64);
        for op in &executed.report.ops {
            for d in op.access.iter().filter(|d| !d.shared) {
                match d.path {
                    AccessPath::Scan => self_scanned += op.rows_in as u64,
                    AccessPath::PackedScan => {
                        self_scanned += op.rows_in as u64;
                        let cb = (op.rows_in as f64 * d.packed_bits / 8.0).ceil() as u64;
                        packed_bytes += cb;
                        packed_saved += (op.rows_in as u64 * d.stride as u64).saturating_sub(cb);
                    }
                    _ => {}
                }
            }
        }

        let mut st = self.state.lock().expect("service lock");
        st.board.forget(ticket);
        st.scan_rows += self_scanned;
        let row = &mut st.sessions[session].row;
        row.compressed_bytes_streamed += packed_bytes;
        row.bytes_saved += packed_saved;
        if let Some(fp) = flight.fp.take() {
            // Cache the *undiscounted* quote: the coverage discount was a
            // property of this admission's shared-scan state, not of the
            // plan — future hits should report the plan's standalone cost.
            let solo_ms =
                if covered.is_empty() { quote.seq_ms() } else { physical.quote(|_| None).seq_ms() };
            st.cache.insert(fp.clone(), &executed, solo_ms);
            // Settle the flight: the followers share the result, and the
            // last one out removes the entry.
            match st.flights.get_mut(&fp) {
                Some(f) if f.waiters > 0 => {
                    f.done = true;
                    f.result = Some((Arc::clone(&executed), solo_ms));
                }
                _ => {
                    st.flights.remove(&fp);
                }
            }
        }
        let cost_ms = quote.seq_ms();
        (st, Outcome::Delivered { executed, queued, queue_ms, total_ms, cost_ms, threads })
    }

    /// The one finishing step every submission ends through: book the
    /// outcome in its session's row and latency histograms, close its trace
    /// with the terminal event, and build the handle or the error.
    fn finish(
        &self,
        mut st: MutexGuard<'_, Inner>,
        session: usize,
        submitted_at: Instant,
        mut tb: Option<TraceBuilder>,
        outcome: Outcome,
    ) -> Result<QueryHandle, ServiceError> {
        // A delivering leader settled its flight: wake the followers.
        let (total_ms, wake) = match outcome {
            Outcome::Delivered { total_ms, .. } => (total_ms, true),
            _ => (submitted_at.elapsed().as_secs_f64() * 1e3, false),
        };
        let s = &mut st.sessions[session];
        let mut sched = SchedInfo {
            session,
            queued: false,
            cached: false,
            collapsed: false,
            queue_ms: 0.0,
            total_ms,
            cost_ms: 0.0,
            threads: 0,
        };
        let (terminal, answer) = match outcome {
            Outcome::CacheHit { executed, cost_ms } => {
                s.row.cache_hits += 1;
                (sched.cached, sched.cost_ms) = (true, cost_ms);
                (Some(TraceEvent::CacheHit), Ok(executed))
            }
            Outcome::Collapsed { leader, executed, cost_ms } => {
                (sched.collapsed, sched.cost_ms) = (true, cost_ms);
                (Some(TraceEvent::Collapsed { leader }), Ok(executed))
            }
            Outcome::Delivered { executed, queued, queue_ms, cost_ms, threads, .. } => {
                // Only executed queries entered admission: a 0.0 sample for
                // a hit or a collapse would dilute the queue-wait percentiles.
                s.queue_wait.record(queue_ms);
                sched = SchedInfo { queued, queue_ms, cost_ms, threads, ..sched };
                let delivered =
                    tb.is_some().then(|| delivered_event(&executed, total_ms, queue_ms));
                (delivered, Ok(executed))
            }
            Outcome::Shed => {
                s.row.rejected += 1;
                let shed = ServiceError::Overloaded { queue_limit: self.cfg.queue_limit };
                (Some(TraceEvent::Shed), Err(shed))
            }
            Outcome::Failed(e) => {
                (Some(TraceEvent::Failed { error: e.to_string() }), Err(ServiceError::Engine(e)))
            }
        };
        if answer.is_ok() {
            s.row.completed += 1;
            s.row.total_ms += total_ms;
            s.row.max_ms = s.row.max_ms.max(total_ms);
            s.latency.record(total_ms);
        }
        if let Some(terminal) = terminal {
            self.tpush(&mut tb, terminal);
        }
        drop(st);
        if wake {
            self.cv.notify_all();
        }
        self.tfinish(tb);
        answer.map(|executed| QueryHandle { executed, sched })
    }

    /// One cooperative pass, streamed as an *elevator*: chunk by chunk
    /// when `chunk_rows` is shorter than the column — absorbing newly posted
    /// same-column wants at every boundary of its first cycle (late riders
    /// wrap around for the prefix they missed) and yielding the lease
    /// between chunks when a cheaper query waits — else as its one chunk,
    /// sharded over the lease.
    /// Each rider appends every chunk's survivors to one list of its own and
    /// is delivered that list the moment it has seen every row: as it
    /// stands for a rider that attached at row 0, rotated once into row
    /// order for one that wrapped (see [`RiderList`]) — exactly the
    /// unchunked kernel's output either way. The pass streams the packed
    /// codes when they can evaluate every merged predicate. The claim is
    /// guarded: if the pass fails — or a panic unwinds out of the kernel —
    /// its keys are aborted back off the in-flight set so waiters evaluate
    /// for themselves instead of blocking forever (the board-side analogue
    /// of [`LeaseGuard`]).
    fn run_elevator(
        &self,
        session: usize,
        batch: &Batch,
        req: &ScanRequest<'_>,
        lease: &LeaseGuard<'_>,
        ticket_lists: &mut ScanTicket,
        tb: &mut Option<TraceBuilder>,
    ) {
        struct Rider {
            key: ShareKey,
            own_leaves: Vec<usize>,
            /// Rows the pass had streamed when this rider attached; the
            /// rider is complete once `streamed - attach >= rows`.
            attach: usize,
            list: RiderList,
        }
        let rows = batch.rows;
        let chunk = match self.cfg.chunk_rows {
            0 => rows.max(1),
            c => c,
        };
        let chunked = chunk < rows;
        let mut riders: Vec<Rider> = batch
            .preds
            .iter()
            .map(|p| Rider {
                key: p.key,
                own_leaves: p.own_leaves.clone(),
                attach: 0,
                list: RiderList::default(),
            })
            .collect();
        let mut claim = ClaimGuard {
            svc: self,
            keys: riders.iter().map(|r| r.key).collect(),
            col: chunked.then_some(req.col),
        };
        // Model price of one streamed row, for the preemption comparison.
        let ns_per_row = {
            let model = ModelMachine::new(&self.cfg.machine);
            scan_cost(&model, rows.max(1), req.stride.max(1)).total_ns() / rows.max(1) as f64
        };
        #[cfg(test)]
        drop(self.hold(self.state.lock().expect("service lock"), tests::Hold::Pass));
        let mut cursor = 0usize;
        let mut streamed = 0usize;
        let mut charged_stream = false;
        while !riders.is_empty() {
            let lo = cursor;
            let hi = (cursor + chunk).min(rows);
            let preds: Vec<ScanPred> = riders.iter().map(|r| r.key.pred.kernel_pred()).collect();
            let cc = req.compressed.filter(|cc| preds.iter().all(|p| cc.supports(p)));
            let col = match cc {
                Some(cc) => ScanCol::Packed(cc, req.seqbase),
                None => ScanCol::Plain(req.bat),
            };
            // Stream the chunk without the service lock — under the
            // simulator when tracing, so the ChunkDone event carries
            // deterministic counters.
            let span = if chunked { RowSet::Range(lo, hi) } else { RowSet::All };
            let threads = lease.threads.get();
            let chunk_started = Instant::now();
            let lists = riders.iter_mut().map(|r| &mut r.list);
            let (streamed_ok, sim) = match &self.obs {
                Some(_) => {
                    let mut trk = SimTracker::for_machine(self.cfg.machine);
                    (stream(&mut trk, col, &preds, span, threads, lists), Some(trk.counters()))
                }
                None => (stream(&mut NullTracker, col, &preds, span, threads, lists), None),
            };
            let chunk_ms = chunk_started.elapsed().as_secs_f64() * 1e3;
            // Unreachable for validated plans (the predicate types were
            // checked against these very columns); the guard aborts the
            // remaining claims (delivered riders stay delivered).
            if streamed_ok.is_err() {
                return;
            }
            if let Some(counters) = sim {
                let pass = cc.map_or(Select::plain(hi - lo, req.stride), |cc| {
                    Select::packed(hi - lo, cc.bits_per_value())
                });
                self.observe_pass(pass, preds.len(), &counters);
                self.tpush(
                    tb,
                    TraceEvent::ChunkDone {
                        col: format!("{}.{}", req.table, req.column),
                        lo,
                        hi,
                        preds: preds.len(),
                        sim: Some(counters),
                    },
                );
            }

            let mut st = self.state.lock().expect("service lock");
            let n = hi - lo;
            streamed += n;
            st.scan_rows += n as u64;
            let s = &mut st.sessions[session];
            s.chunk.record(chunk_ms);
            if let Some(cc) = cc {
                let cb = (n as f64 * cc.bits_per_value() / 8.0).ceil() as u64;
                s.row.compressed_bytes_streamed += cb;
                s.row.bytes_saved += (n as u64 * req.stride as u64).saturating_sub(cb);
            }
            cursor = if hi == rows { 0 } else { hi };

            // Absorb newly posted same-column wants *before* delivering:
            // a want whose predicate already rides just registers for that
            // rider's delivery — no extra streaming at all. A one-chunk
            // pass has no boundary to attach at. Riders attach during the
            // pass's first cycle only: one attaching at or past the wrap
            // rides a whole further cycle, so the pass would stream at
            // least two columns. Such a want stays pending and its owner
            // claims it.
            let mut attached = 0usize;
            if chunked {
                st.board.set_progress(req.col, cursor);
            }
            let late = if chunked && streamed < rows {
                st.board.take_pending_for_col(&req.col)
            } else {
                Vec::new()
            };
            for (key, wants) in late {
                st.elevator_attaches += wants.len() as u64;
                attached += wants.len();
                let joined = riders.iter().any(|r| r.key == key);
                st.board.claim_key(key, wants);
                if !joined {
                    claim.keys.push(key);
                    riders.push(Rider {
                        key,
                        own_leaves: Vec::new(),
                        attach: streamed,
                        list: RiderList::default(),
                    });
                }
            }
            if attached > 0 {
                self.tpush(
                    tb,
                    TraceEvent::ElevatorAttached {
                        col: format!("{}.{}", req.table, req.column),
                        chunk: cursor,
                        riders: attached,
                    },
                );
            }

            // Deliver riders that have now seen every row, each its own
            // list in row order: the unchunked list.
            let (mut still, mut done) = (Vec::with_capacity(riders.len()), Vec::new());
            for r in riders {
                if streamed - r.attach >= rows {
                    done.push(r);
                } else {
                    still.push(r);
                }
            }
            riders = still;
            let mut own_done = 0usize;
            for r in done {
                let cands: Cands = Arc::new(r.list.finish());
                for &leaf in &r.own_leaves {
                    ticket_lists.provide(leaf, cands.clone());
                }
                st.board.deliver(&r.key, &cands);
                own_done += r.own_leaves.len();
                claim.keys.retain(|k| *k != r.key);
            }
            // Saved scans of the runner's own leaves: the pass charges its
            // one real stream against the first it delivers (the anchor
            // leaf is among them), and every further one is a scan that
            // never ran (`runner_covered`). Other tickets' sessions book
            // theirs when they pick the lists up.
            if own_done > 0 && !charged_stream {
                charged_stream = true;
                st.shared_scan_batches += 1;
                own_done -= 1;
            }
            st.sessions[session].row.runner_covered += own_done as u64;
            if riders.is_empty() {
                if let Some(col) = claim.col.take() {
                    st.board.clear_progress(&col);
                }
                drop(st);
                self.cv.notify_all();
                break;
            }
            drop(st);
            self.cv.notify_all();

            // Preemption point: between chunks, yield the lease to a
            // cheaper waiting query and re-queue at the pass's remaining
            // cost. The scheduler's starvation bound caps how often this
            // pass can be bypassed, so it always resumes.
            let remaining = riders.iter().map(|r| rows - (streamed - r.attach)).max().unwrap_or(0);
            let remaining_ns = remaining as f64 * ns_per_row;
            let mut st = self.state.lock().expect("service lock");
            #[cfg(test)]
            {
                st = self.hold(st, tests::Hold::Boundary);
            }
            if !st.sched.paused()
                && st.sched.cheapest_waiting_cost().is_some_and(|c| c < remaining_ns)
            {
                st.preemptions += 1;
                self.tpush(tb, TraceEvent::Preempted { remaining_ms: remaining_ns / 1e6 });
                let desired = lease.threads.get().max(1);
                drop(self.requeue(st, lease, remaining_ns, desired, tb));
            }
        }
    }

    /// Block until the scheduler grants queued `ticket`, and pick its lease
    /// up — the one place a session waits for threads.
    fn await_grant<'s>(
        &'s self,
        mut st: MutexGuard<'s, Inner>,
        ticket: u64,
    ) -> (MutexGuard<'s, Inner>, usize) {
        loop {
            if let Some(threads) = st.sched.take_grant(ticket) {
                return (st, threads);
            }
            st = self.cv.wait(st).expect("service lock");
        }
    }

    /// Give `lease` back, get back in line at `cost_ns` for `desired`
    /// threads, and block until re-granted; the new lease lands on `lease`.
    fn requeue<'s>(
        &'s self,
        mut st: MutexGuard<'s, Inner>,
        lease: &LeaseGuard<'_>,
        cost_ns: f64,
        desired: usize,
        tb: &mut Option<TraceBuilder>,
    ) -> MutexGuard<'s, Inner> {
        let ticket = st.sched.requeue(lease.threads.replace(0), cost_ns, desired);
        self.cv.notify_all();
        let threads;
        (st, threads) = self.await_grant(st, ticket);
        lease.threads.set(threads);
        self.tpush(tb, TraceEvent::LeaseGranted { threads });
        st
    }
}

/// Settles an unfinished flight as failed on drop — removes the entry
/// outright — so a leader that errors, or panics, never strands its
/// followers (they retry, and one of them leads the next attempt).
struct FlightGuard<'s> {
    svc: &'s QueryService,
    fp: Option<String>,
}

impl Drop for FlightGuard<'_> {
    fn drop(&mut self) {
        let Some(fp) = self.fp.take() else { return };
        // Same poisoning stance as LeaseGuard: the flight table is plain
        // data that stays consistent, so recover the guard rather than
        // double-panic.
        let mut st = self.svc.state.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        st.flights.remove(&fp);
        drop(st);
        self.svc.cv.notify_all();
    }
}

/// Aborts undelivered cooperative-scan claims on drop, so a pass that
/// errors — or panics mid-kernel — never strands its keys in flight
/// (which would block every later same-key query forever). A chunked pass
/// also clears its column cursor.
struct ClaimGuard<'s> {
    svc: &'s QueryService,
    /// Keys still owed a delivery; shrinks as riders complete.
    keys: Vec<ShareKey>,
    /// The chunked pass's column cursor to clear, when one is live.
    col: Option<ColumnId>,
}

impl Drop for ClaimGuard<'_> {
    fn drop(&mut self) {
        if self.keys.is_empty() && self.col.is_none() {
            return;
        }
        // Same poisoning stance as LeaseGuard: the board is plain data that
        // stays consistent, so recover the guard rather than double-panic.
        let mut st = self.svc.state.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        st.board.abort_keys(&self.keys);
        if let Some(col) = self.col {
            st.board.clear_progress(&col);
        }
        drop(st);
        self.svc.cv.notify_all();
    }
}

/// Returns a query's thread lease to the scheduler on drop, so the budget
/// survives panics unwinding out of `execute()` as well as normal exits.
/// The lease size is a `Cell` because an elevator pass can shrink or grow
/// it mid-query (preemption returns the lease and re-acquires one).
struct LeaseGuard<'s> {
    svc: &'s QueryService,
    threads: Cell<usize>,
}

impl Drop for LeaseGuard<'_> {
    fn drop(&mut self) {
        // During a panic the mutex cannot be poisoned by *this* thread (the
        // lock is not held across execute()), but another session may have
        // poisoned it; the scheduler state is a plain counter machine that
        // stays consistent, so recover the guard rather than double-panic.
        let mut st = self.svc.state.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        st.sched.release(self.threads.get());
        self.svc.cv.notify_all();
    }
}

/// One client's connection to a [`QueryService`].
#[derive(Clone, Copy)]
pub struct Session<'s> {
    svc: &'s QueryService,
    id: usize,
}

impl Session<'_> {
    /// This session's id (the index into
    /// [`QueryService::session_metrics`]).
    pub fn id(&self) -> usize {
        self.id
    }

    /// Submit a plan and block until it is rejected, or admitted and
    /// executed. Results are bit-identical to running the same plan
    /// sequentially — admission order, thread leases, chunked elevators,
    /// and duplicate collapse never change what a query computes, only
    /// when and how it runs.
    pub fn run(&self, plan: &LogicalPlan<'_>) -> Result<QueryHandle, ServiceError> {
        self.svc.run_plan(self.id, plan)
    }
}

/// How one query moved through the scheduler.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SchedInfo {
    /// The submitting session.
    pub session: usize,
    /// Whether the query had to wait in the admission queue.
    pub queued: bool,
    /// Whether the result came straight from the result cache (no
    /// admission, no lease, `threads == 0`).
    pub cached: bool,
    /// Whether the query collapsed onto a concurrent identical execution
    /// (single-flight: no admission, no lease, `threads == 0`).
    pub collapsed: bool,
    /// Time from submission to the start of execution, in milliseconds.
    pub queue_ms: f64,
    /// End-to-end time from submission to result, in milliseconds.
    pub total_ms: f64,
    /// The whole-query cost quote the scheduler ranked this query by.
    pub cost_ms: f64,
    /// Worker threads leased to this query.
    pub threads: usize,
}

/// A completed query: results, execution report, scheduling trace. The
/// execution is behind an `Arc` — cache hits and collapsed duplicates
/// share one copy instead of deep-cloning result rows.
#[derive(Debug, Clone)]
pub struct QueryHandle {
    executed: Arc<Executed>,
    /// How the query moved through the scheduler.
    pub sched: SchedInfo,
}

impl QueryHandle {
    /// The result rows.
    pub fn output(&self) -> &QueryOutput {
        &self.executed.output
    }

    /// The per-operator execution report.
    pub fn report(&self) -> &ExecReport {
        &self.executed.report
    }

    /// Unwrap into the underlying [`Executed`] (cloning only when the
    /// execution is still shared with the cache or other handles).
    pub fn into_executed(self) -> Executed {
        Arc::try_unwrap(self.executed).unwrap_or_else(|arc| (*arc).clone())
    }
}

/// Price a logical plan into a whole-query quote: its physical plan under
/// the default policy (`ExecOptions::cost_model`: compression and pushdown
/// on), quoted with no shared-scan coverage
/// ([`engine::PhysicalPlan::quote`]) — the shapes at the planner's
/// cardinalities, and index leaves at their predicted probe cost. A plan
/// the planner refuses quotes zero: executing it fails.
pub fn quote_plan(machine: &MachineConfig, plan: &LogicalPlan<'_>) -> QueryQuote {
    let opts = ExecOptions::cost_model(*machine);
    physical::plan(&mut NullTracker, plan, &opts)
        .map_or_else(|_| quote_ops(machine, &[]), |p| p.quote(|_| None))
}

/// One elevator rider's survivors, appended chunk by chunk from the row the
/// rider attached at. A rider that attached at row 0 holds them in row
/// order; one that attached mid-pass holds the *tail* (its attach row to
/// the column's end) before the *head* (row 0 up to its attach row).
#[derive(Debug, Default)]
struct RiderList {
    oids: Vec<Oid>,
    /// Where the head begins in `oids`.
    head: usize,
}

impl RiderList {
    /// The list in row order: the head and tail of a rider that wrapped,
    /// joined once by rotating them in place.
    fn finish(mut self) -> Vec<Oid> {
        self.oids.rotate_left(self.head);
        self.oids
    }
}

/// Stream `span` of an elevator pass through its merged predicates (one per
/// rider, in rider order), appending each predicate's survivors to its
/// rider's list: a one-chunk pass over the whole column on `threads`
/// threads, a chunk of a longer pass on one.
fn stream<'r, M: MemTracker>(
    trk: &mut M,
    col: ScanCol<'_>,
    preds: &[ScanPred],
    span: RowSet<'_>,
    threads: usize,
    riders: impl IntoIterator<Item = &'r mut RiderList>,
) -> Result<(), StorageError> {
    let lo = match span {
        RowSet::Range(lo, _) => lo,
        _ => 0,
    };
    let mut riders: Vec<&mut RiderList> = riders.into_iter().collect();
    let mut lists: Vec<Vec<Oid>> = riders
        .iter_mut()
        .map(|r| {
            if lo == 0 {
                r.head = r.oids.len();
            }
            std::mem::take(&mut r.oids)
        })
        .collect();
    let streamed = match span {
        // Only a one-chunk pass streams `All`, and its riders start empty.
        RowSet::All => par_select(trk, col, preds, threads).map(|(out, _)| lists = out),
        span => select_into(trk, col, preds, span, &mut lists),
    };
    for (r, list) in riders.into_iter().zip(lists) {
        r.oids = list;
    }
    streamed
}

#[cfg(test)]
mod tests {
    use super::*;
    use engine::access::{CompressMode, PushdownMode};
    use engine::exec::{execute, AccessNote};
    use engine::plan::{Agg, PlanNode, Pred, Query};
    use monet_core::storage::{ColType, DecomposedTable, TableBuilder, Value};

    /// Test-only points where `Inner::hold` can force an interleaving.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub(super) enum Hold {
        /// A runner about to stream its claimed pass.
        Pass,
        /// A session about to re-queue after waiting out another runner's pass.
        Requeue,
        /// An elevator at a chunk boundary, before its preemption test.
        Boundary,
    }

    impl QueryService {
        /// Hold the caller at `at` while the test's predicate says so. Polls as
        /// well as waking on the condvar: not every transition notifies.
        pub(super) fn hold<'s>(
            &'s self,
            mut st: MutexGuard<'s, Inner>,
            at: Hold,
        ) -> MutexGuard<'s, Inner> {
            while st.hold.is_some_and(|holds| holds(at, &st)) {
                let tick = std::time::Duration::from_millis(1);
                st = self.cv.wait_timeout(st, tick).expect("service lock").0;
            }
            st
        }
    }

    fn item(n: usize) -> DecomposedTable {
        let mut b = TableBuilder::new("item", 0)
            .column("qty", ColType::I32)
            .column("price", ColType::F64)
            .column("shipmode", ColType::Str);
        for i in 0..n {
            b.push_row(&[
                Value::I32((i % 50) as i32),
                Value::F64(i as f64 / 7.0),
                Value::from(if i % 3 == 0 { "AIR" } else { "MAIL" }),
            ])
            .unwrap();
        }
        b.finish()
    }

    fn seq_opts() -> ExecOptions {
        ExecOptions::cost_model(memsim::profiles::origin2000()).with_threads(Threads::Fixed(1))
    }

    /// Global saved scans must equal the sum of what beneficiaries picked
    /// up and what runners covered — the books balance by construction.
    fn assert_counters_balance(svc: &QueryService) {
        let m = svc.metrics();
        let by_session: u64 =
            svc.session_metrics().iter().map(|s| s.scans_saved + s.runner_covered).sum();
        assert_eq!(m.scans_saved, by_session, "{m:?}");
        let bytes: u64 = svc.session_metrics().iter().map(|s| s.compressed_bytes_streamed).sum();
        assert_eq!(m.compressed_bytes_streamed, bytes, "{m:?}");
        let saved: u64 = svc.session_metrics().iter().map(|s| s.bytes_saved).sum();
        assert_eq!(m.bytes_saved, saved, "{m:?}");
    }

    #[test]
    fn quotes_rank_plans_by_work() {
        let t = item(50_000);
        let machine = memsim::profiles::origin2000();
        let cheap = Query::scan(&t).filter(Pred::range_i32("qty", 1, 2)).build().unwrap();
        let costly = Query::scan(&t)
            .filter(Pred::range_i32("qty", 0, 49))
            .group_by("shipmode")
            .agg(Agg::sum("price"))
            .agg(Agg::min("qty"))
            .agg(Agg::count())
            .build()
            .unwrap();
        let q1 = quote_plan(&machine, &cheap);
        let q2 = quote_plan(&machine, &costly);
        assert!(q2.seq_ns > q1.seq_ns, "{} vs {}", q2.seq_ns, q1.seq_ns);
        assert_eq!(q1.ops, 1, "one select leaf");
        // Select leaf + three gathers (key + the two aggregated columns,
        // the stream being filter-restricted) + the aggregate pass.
        assert_eq!(q2.ops, 5, "select leaf + gathers + aggregate");
        // Coverage discounts: an attach quote sits between covered and
        // fresh, on a plain f64 column and on the packed `qty` alike — the
        // wrap is priced at the width the elevator streams.
        let opts = ExecOptions::cost_model(machine).with_compress(CompressMode::On);
        for pred in [Pred::range_f64("price", 1.0, 2.0), Pred::range_i32("qty", 1, 2)] {
            let plan = Query::scan(&t).filter(pred).build().unwrap();
            let physical = physical::plan(&mut NullTracker, &plan, &opts).unwrap();
            let quote = |missed: Option<usize>| physical.quote(|_| missed).seq_ns;
            let (covered, attach, fresh) = (quote(Some(0)), quote(Some(25_000)), quote(None));
            assert!(covered < attach && attach < fresh, "{covered} {attach} {fresh}");
            assert!(quote(Some(50_000)) <= fresh, "a full wrap is at most a fresh scan");
        }
    }

    #[test]
    fn dictionary_misses_are_neither_quoted_nor_fed_to_the_drift_ledger() {
        let t = item(20_000);
        let machine = memsim::profiles::origin2000();
        let q = |pred: Pred| Query::scan(&t).filter(pred).agg(Agg::count()).build().unwrap();
        let band = || Pred::range_i32("qty", 1, 20).and(Pred::range_f64("price", 1.0, 900.0));
        let with_miss = q(band().and(Pred::eq_str("shipmode", "WALRUS")));
        // Admission: the miss leaf quotes no shape of its own, and as the
        // plan's first leaf — it keeps no row — it leaves the other two
        // nothing to stream.
        let (miss, bare) = (quote_plan(&machine, &with_miss), quote_plan(&machine, &q(band())));
        assert_eq!(miss.ops, bare.ops);
        assert!(miss.seq_ns * 100.0 < bare.seq_ns, "{miss:?} vs {bare:?}");
        assert_eq!(miss.items, 0, "{miss:?}");
        // Execution: three leaves, two of which scanned; the `Empty` leaf
        // ran nothing and contributes no shape to split the op's time over.
        for pushdown in [PushdownMode::Off, PushdownMode::On] {
            let opts = seq_opts().with_pushdown(pushdown);
            let done = execute(&mut NullTracker, &with_miss, &opts).unwrap();
            let sel = &done.report.ops[1];
            assert_eq!(sel.access.len(), 3, "{sel:?}");
            assert_eq!(sel.shapes.len(), 2, "one shape fewer than leaves: {:?}", sel.shapes);
            assert_eq!(sel.rows_out, 0);
        }
    }

    #[test]
    fn the_service_runs_the_plan_execute_runs() {
        // The needle (`supp`) sits last in predicate order behind two wide
        // bands; the planner leads with it. At the default chunk, a column
        // this long gets an elevator even with nobody else waiting, and it
        // provides that first leaf.
        let mut b = TableBuilder::new("item", 0)
            .column("batch", ColType::I32)
            .column("date1", ColType::I32)
            .column("supp", ColType::I32)
            .column("price", ColType::F64);
        for i in 0..100_000i32 {
            let row = [i / 64, 9_000 + i * 7 % 1_500, i % 1_000 + 1];
            let mut vals: Vec<Value> = row.iter().map(|&v| Value::I32(v)).collect();
            vals.push(Value::F64(f64::from(i) / 8.0));
            b.push_row(&vals).unwrap();
        }
        let t = b.finish();
        let plan = Query::scan(&t)
            .filter(
                Pred::range_i32("batch", 100, 1_400)
                    .and(Pred::range_i32("date1", 9_000, 10_000))
                    .and(Pred::range_i32("supp", 7, 7)),
            )
            .agg(Agg::sum("price"))
            .agg(Agg::count())
            .build()
            .unwrap();
        let svc = QueryService::new(ServiceConfig::new());
        assert_eq!(svc.config().chunk_rows, 64 << 10);
        let served = svc.session().run(&plan).unwrap();
        let solo = execute(&mut NullTracker, &plan, &svc.exec).unwrap();
        assert!(served.output().bitwise_eq(&solo.output));
        let select = |r: &ExecReport| r.ops[1].clone();
        let (served, solo) = (select(served.report()), select(&solo.report));
        let pushdown = |op: &engine::OpReport| {
            op.notes.iter().find(|n| matches!(n, AccessNote::Pushdown { .. })).cloned()
        };
        let Some(AccessNote::Pushdown { order, .. }) = pushdown(&solo) else {
            panic!("a pure-AND filter is ordered: {}", solo.detail)
        };
        assert_eq!(order[0], 2, "the needle leads: {}", solo.detail);
        assert_eq!(pushdown(&served), pushdown(&solo), "{}", served.detail);
        assert_eq!(served.notes[0], AccessNote::SharedLeaves { provided: 1, total: 3 });
        assert!(served.access[order[0]].shared, "the elevator provided the first leaf");
        let paths = |op: &engine::OpReport| op.access.iter().map(|d| d.path).collect::<Vec<_>>();
        assert_eq!(paths(&served), paths(&solo));
    }

    #[test]
    fn single_session_round_trip_records_metrics() {
        let t = item(10_000);
        let svc = QueryService::new(
            ServiceConfig::new().with_budget(2).with_queue_limit(4).with_starvation_bound(2),
        );
        let session = svc.session();
        let plan = Query::scan(&t)
            .filter(Pred::range_i32("qty", 10, 30))
            .group_by("shipmode")
            .agg(Agg::sum("price"))
            .agg(Agg::max("qty"))
            .build()
            .unwrap();
        let handle = session.run(&plan).expect("runs");
        // Same rows as a plain sequential execution.
        let seq = execute(
            &mut NullTracker,
            &plan,
            &ExecOptions::cost_model(memsim::profiles::origin2000()),
        )
        .unwrap();
        assert_eq!(handle.output(), &seq.output);
        assert!(handle.sched.threads >= 1 && handle.sched.threads <= 2);
        assert!(!handle.sched.queued, "an idle service admits immediately");

        let m = svc.metrics();
        assert_eq!(m.budget, 2);
        assert_eq!((m.submitted, m.completed, m.rejected), (1, 1, 0));
        assert_eq!(m.admitted_immediately, 1);
        assert!(m.high_water_threads <= m.budget);
        assert_eq!(m.latency.count, 1);
        let sm = svc.session_metrics();
        assert_eq!(sm.len(), 1);
        assert_eq!(sm[0].completed, 1);
    }

    #[test]
    fn cache_hits_skip_execution_and_are_bit_identical() {
        let t = item(5_000);
        let svc = QueryService::new(ServiceConfig::new().with_budget(2).with_cache_bytes(1 << 20));
        let session = svc.session();
        let plan = Query::scan(&t)
            .filter(Pred::range_i32("qty", 5, 20))
            .group_by("shipmode")
            .agg(Agg::sum("price"))
            .agg(Agg::count())
            .build()
            .unwrap();
        let first = session.run(&plan).expect("runs");
        assert!(!first.sched.cached);
        let second = session.run(&plan).expect("hits");
        assert!(second.sched.cached, "identical plan replays from the cache");
        assert_eq!(second.sched.threads, 0, "no lease for a cache hit");
        assert!(first.output().bitwise_eq(second.output()));

        let m = svc.metrics();
        assert_eq!((m.cache_hits, m.cache_misses), (1, 1));
        assert_eq!(m.completed, 2, "hits count as answered");
        assert_eq!(m.submitted, 2);
        assert_eq!(m.admitted_immediately, 1, "the hit never reached admission");
        assert!(m.cache_bytes > 0 && m.cache_entries == 1);
        assert_eq!(svc.session_metrics()[0].cache_hits, 1);
        // The hit contributed a latency sample but no queue-wait sample —
        // it never entered admission, and a 0.0 would skew the summary.
        assert_eq!(m.latency.count, 2);
        assert_eq!(m.queue_wait.count, 1);

        // A different constant misses; cache off never hits.
        let other = Query::scan(&t).filter(Pred::range_i32("qty", 5, 21)).build().unwrap();
        assert!(!session.run(&other).unwrap().sched.cached);
        let off = QueryService::new(ServiceConfig::new().with_cache_bytes(0));
        let s = off.session();
        s.run(&plan).unwrap();
        assert!(!s.run(&plan).unwrap().sched.cached);
        assert_eq!(off.metrics().cache_hits, 0);
        assert_eq!(off.metrics().cache_misses, 0, "a disabled cache is never consulted");
    }

    #[test]
    fn duplicate_submissions_collapse_into_one_execution() {
        let t = item(20_000);
        let svc = QueryService::new(ServiceConfig::new().with_budget(1).with_cache_bytes(1 << 20));
        let plan = Query::scan(&t)
            .filter(Pred::range_i32("qty", 3, 17))
            .agg(Agg::sum("price"))
            .agg(Agg::count())
            .build()
            .unwrap();
        // Pause admission so the storm is deterministic: the first
        // submission leads (and queues), the rest collapse onto its
        // flight before the leader can run.
        svc.pause_admission();
        let mut outputs = Vec::new();
        std::thread::scope(|s| {
            let svc = &svc;
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    let plan = &plan;
                    s.spawn(move || svc.session().run(plan).expect("runs"))
                })
                .collect();
            // All four registered under the lock (leader queued, followers
            // waiting on the flight) before admission reopens.
            while svc.session_metrics().iter().map(|s| s.submitted).sum::<u64>() < 4 {
                std::thread::yield_now();
            }
            svc.resume_admission();
            for h in handles {
                outputs.push(h.join().unwrap());
            }
        });
        for w in outputs.windows(2) {
            assert!(w[0].output().bitwise_eq(w[1].output()), "collapse is bit-identical");
        }
        assert_eq!(outputs.iter().filter(|h| h.sched.collapsed).count(), 3);
        let m = svc.metrics();
        assert_eq!(m.collapsed, 3, "{m:?}");
        assert_eq!(m.cache_misses, 1, "one leader executed");
        assert_eq!(m.cache_hits, 0, "followers collapsed before the result was cached");
        assert_eq!(m.admitted_immediately + m.queued, 1, "one execution for four submissions");
        assert_eq!((m.completed, m.submitted), (4, 4));
        assert_eq!(m.queue_wait.count, 1, "only the leader entered admission");
        assert_eq!(m.latency.count, 4, "but everyone's latency counts");
        // A fifth submission now hits the cache the leader filled.
        assert!(svc.session().run(&plan).unwrap().sched.cached);
    }

    #[test]
    fn chunked_passes_are_bit_identical_at_every_chunk_size() {
        let t = item(30_000);
        let bands: Vec<_> = (0..3)
            .map(|i| {
                Query::scan(&t)
                    .filter(Pred::range_i32("qty", 1 + i, 20 + i))
                    .agg(Agg::sum("price"))
                    .agg(Agg::count())
                    .build()
                    .unwrap()
            })
            .collect();
        let expect: Vec<_> =
            bands.iter().map(|p| execute(&mut NullTracker, p, &seq_opts()).unwrap()).collect();
        for chunk in [0usize, 1 << 10, 7_000, 1 << 20] {
            let svc = QueryService::new(
                ServiceConfig::new().with_budget(1).with_cache_bytes(0).with_chunk_rows(chunk),
            );
            svc.pause_admission();
            let mut outputs = Vec::new();
            std::thread::scope(|s| {
                let svc = &svc;
                let handles: Vec<_> = bands
                    .iter()
                    .map(|p| s.spawn(move || svc.session().run(p).expect("runs")))
                    .collect();
                while svc.metrics().queued < 3 {
                    std::thread::yield_now();
                }
                svc.resume_admission();
                for h in handles {
                    outputs.push(h.join().unwrap());
                }
            });
            for (h, e) in outputs.iter().zip(&expect) {
                assert!(h.output().bitwise_eq(&e.output), "chunk {chunk}");
            }
            let m = svc.metrics();
            assert!(m.shared_scan_batches >= 1, "chunk {chunk}: {m:?}");
            assert!(m.scans_saved >= 2, "one pass covered the other two: chunk {chunk}: {m:?}");
            assert_counters_balance(&svc);
        }
    }

    /// The pass `run_elevator` streams, with riders joining at the given
    /// boundaries: chunk after chunk from row 0, wrapping at the end, each
    /// rider attaching the first time the cursor reaches its row and
    /// delivered once it has seen every row. Returns each rider's
    /// predicate and delivered list, in delivery order.
    fn ride(
        col: ScanCol<'_>,
        chunk: usize,
        mut joining: Vec<(usize, ScanPred)>,
    ) -> Vec<(ScanPred, Vec<Oid>)> {
        let rows = col.len();
        let (mut riders, mut delivered) = (Vec::<(ScanPred, RiderList, usize)>::new(), Vec::new());
        let mut cursor = 0;
        while !(riders.is_empty() && joining.is_empty()) {
            joining.retain(|&(at, pred)| {
                let joins = at == cursor;
                if joins {
                    riders.push((pred, RiderList::default(), 0));
                }
                !joins
            });
            let hi = (cursor + chunk).min(rows);
            let preds: Vec<ScanPred> = riders.iter().map(|r| r.0).collect();
            let lists = riders.iter_mut().map(|r| &mut r.1);
            stream(&mut NullTracker, col, &preds, RowSet::Range(cursor, hi), 1, lists).unwrap();
            riders.iter_mut().for_each(|r| r.2 += hi - cursor);
            cursor = if hi == rows { 0 } else { hi };
            let (done, still) = riders.into_iter().partition(|r| r.2 >= rows);
            riders = still;
            delivered.extend(done.into_iter().map(|(pred, list, _)| (pred, list.finish())));
        }
        delivered
    }

    #[test]
    fn riders_attached_at_any_boundary_deliver_the_solo_list() {
        use monet_core::compress::{CompressedColumn, ForColumn, RleColumn};
        use monet_core::scan::select;
        use monet_core::storage::{Bat, Column};

        const ROWS: usize = 10_000;
        const SEQBASE: Oid = 70;
        // Not a divisor of the column, nor a multiple of a FOR frame.
        const CHUNK: usize = 1_536;
        let uniform: Vec<i32> = (0..ROWS as i32).map(|i| i * 7_919 % 97).collect();
        let runs: Vec<i32> = (0..ROWS as i32).map(|i| i / 300 % 11).collect();
        let plain = Bat::with_void_head(SEQBASE, Column::I32(uniform.clone()));
        let packed = CompressedColumn::For(ForColumn::encode(&uniform));
        let rle = CompressedColumn::Rle(RleColumn::encode(&runs));
        let boundaries: Vec<usize> = (0..ROWS).step_by(CHUNK).collect();
        let (middle, last) = (boundaries[boundaries.len() / 2], boundaries[boundaries.len() - 1]);
        for (what, col, top) in [
            ("plain", ScanCol::Plain(&plain), 97),
            ("FOR", ScanCol::Packed(&packed, SEQBASE), 97),
            ("RLE", ScanCol::Packed(&rle, SEQBASE), 11),
        ] {
            let band = |lo: i32| ScanPred::RangeI32 { lo, hi: lo + top / 3 };
            let joining = vec![(0, band(1)), (middle, band(top / 3)), (last, band(top / 2))];
            let delivered = ride(col, CHUNK, joining);
            assert_eq!(delivered.len(), 3, "{what}: every rider delivered");
            for (pred, list) in &delivered {
                let solo = select(&mut NullTracker, col, &[*pred], RowSet::All).unwrap().remove(0);
                assert!(!solo.is_empty(), "{what}: {pred:?} selects rows");
                assert_eq!(list, &solo, "{what}: {pred:?}");
            }
            // A one-chunk pass streams the whole column, over two threads.
            let mut lists = [RiderList::default(), RiderList::default()];
            let preds = [band(1), band(top / 2)];
            stream(&mut NullTracker, col, &preds, RowSet::All, 2, &mut lists).unwrap();
            for (pred, list) in preds.iter().zip(lists) {
                let solo = select(&mut NullTracker, col, &[*pred], RowSet::All).unwrap().remove(0);
                assert_eq!(list.finish(), solo, "{what}: one chunk, {pred:?}");
            }
        }
    }

    #[test]
    fn late_arrivals_attach_to_a_running_elevator() {
        let n = 400_000;
        let t = item(n);
        let svc = QueryService::new(
            ServiceConfig::new().with_budget(1).with_cache_bytes(0).with_chunk_rows(4 << 10),
        );
        let a = Query::scan(&t)
            .filter(Pred::range_i32("qty", 1, 20))
            .agg(Agg::count())
            .build()
            .unwrap();
        let b = Query::scan(&t)
            .filter(Pred::range_i32("qty", 5, 25))
            .agg(Agg::sum("price"))
            .build()
            .unwrap();
        let mut handles = Vec::new();
        std::thread::scope(|s| {
            let svc = &svc;
            let ta = s.spawn(|| svc.session().run(&a).expect("a runs"));
            // Wait for A's uncontended elevator to be mid-pass before B
            // arrives (best effort: A finishing first just skips the
            // gated asserts).
            loop {
                let m = svc.metrics();
                if m.scan_rows_streamed > 0 || m.completed > 0 {
                    break;
                }
                std::thread::yield_now();
            }
            let tb = s.spawn(|| svc.session().run(&b).expect("b runs"));
            handles.push(ta.join().unwrap());
            handles.push(tb.join().unwrap());
        });
        // Unconditional: attach order never changes what a query computes.
        for (h, p) in handles.iter().zip([&a, &b]) {
            let e = execute(&mut NullTracker, p, &seq_opts()).unwrap();
            assert!(h.output().bitwise_eq(&e.output));
        }
        let m = svc.metrics();
        if m.elevator_attaches >= 1 {
            // B rode A's pass: one full cycle plus a bounded wrap
            // re-stream — never two independent scans' worth of rows
            // beyond the wrap.
            assert!(m.scan_rows_streamed <= 2 * n as u64, "{m:?}");
            assert!(m.scans_saved >= 1, "{m:?}");
            assert_counters_balance(&svc);
        }
    }

    #[test]
    fn elevators_yield_between_chunks_to_cheaper_queries() {
        let t = item(400_000);
        let small = item(1_000);
        // A small chunk gives the elevator ~1500 boundary checks, so the
        // cheap query almost always queues while most of them are ahead.
        let svc = QueryService::new(
            ServiceConfig::new().with_budget(1).with_cache_bytes(0).with_chunk_rows(1 << 8),
        );
        let big = Query::scan(&t)
            .filter(Pred::range_i32("qty", 1, 40))
            .agg(Agg::count())
            .build()
            .unwrap();
        let tiny = Query::scan(&small)
            .filter(Pred::range_i32("qty", 1, 5))
            .agg(Agg::count())
            .build()
            .unwrap();
        let mut precondition = false;
        let mut handles = Vec::new();
        std::thread::scope(|s| {
            let svc = &svc;
            let tb = s.spawn(|| svc.session().run(&big).expect("big runs"));
            loop {
                let m = svc.metrics();
                if m.scan_rows_streamed > 0 || m.completed > 0 {
                    break;
                }
                std::thread::yield_now();
            }
            let tt = s.spawn(|| svc.session().run(&tiny).expect("tiny runs"));
            // The sound precondition: the cheap query was observed queued
            // while the elevator was at most halfway through the column.
            // `metrics()` holds the same lock as boundary processing, so a
            // boundary check *after* this observation must see the waiter —
            // with the pass's remaining cost still far above the tiny
            // plan's quote. (`completed == 0` alone is not enough: the big
            // query executes for a while after its last boundary check, and
            // a waiter that queues in that window is never seen by one.)
            loop {
                let m = svc.metrics();
                if m.queued >= 1 && m.completed == 0 && m.scan_rows_streamed <= 200_000 {
                    precondition = true;
                    break;
                }
                if m.queued >= 1 || m.completed > 0 {
                    break;
                }
                std::thread::yield_now();
            }
            handles.push(tb.join().unwrap());
            handles.push(tt.join().unwrap());
        });
        for (h, p) in handles.iter().zip([&big, &tiny]) {
            let e = execute(&mut NullTracker, p, &seq_opts()).unwrap();
            assert!(h.output().bitwise_eq(&e.output));
        }
        let m = svc.metrics();
        assert!(m.high_water_threads <= m.budget);
        if precondition {
            assert!(m.preemptions >= 1, "the elevator yields between chunks: {m:?}");
        }
    }

    #[test]
    fn queued_same_column_scans_merge_into_one_pass() {
        // Occupy the single-thread budget with a deliberately expensive
        // plug query, queue three same-column scans behind it, and watch
        // the first granted one cover the other two with one cooperative
        // pass. The timing precondition (all three queued before the plug
        // finishes) is verified before the strict asserts.
        let t = item(300_000);
        let svc = QueryService::new(
            ServiceConfig::new().with_budget(1).with_queue_limit(16).with_cache_bytes(0),
        );
        let plug_pred = (0..8)
            .map(|i| Pred::range_f64("price", i as f64 * 100.0, i as f64 * 100.0 + 50.0))
            .reduce(Pred::or)
            .unwrap();
        let plug = Query::scan(&t).filter(plug_pred).agg(Agg::count()).build().unwrap();
        let bands: Vec<_> = (0..3)
            .map(|i| {
                Query::scan(&t)
                    .filter(Pred::range_i32("qty", 1 + i, 20 + i))
                    .agg(Agg::sum("price"))
                    .agg(Agg::count())
                    .build()
                    .unwrap()
            })
            .collect();
        let mut all_queued_in_time = false;
        let mut outputs = Vec::new();
        std::thread::scope(|s| {
            let svc = &svc;
            let plug_h = s.spawn(|| svc.session().run(&plug).expect("plug runs"));
            // Wait for the plug to hold the budget.
            while svc.metrics().admitted_immediately == 0 {
                std::thread::yield_now();
            }
            let handles: Vec<_> = bands
                .iter()
                .map(|p| s.spawn(move || svc.session().run(p).expect("band runs")))
                .collect();
            // The precondition for the deterministic claim: all three
            // queued while the plug still ran.
            loop {
                let m = svc.metrics();
                if m.queued >= 3 {
                    all_queued_in_time = m.completed == 0;
                    break;
                }
                if m.completed > 0 {
                    break;
                }
                std::thread::yield_now();
            }
            plug_h.join().unwrap();
            for h in handles {
                outputs.push(h.join().unwrap());
            }
        });

        // Unconditional: sharing never changes what a query computes.
        for (i, handle) in outputs.iter().enumerate() {
            let expect = execute(&mut NullTracker, &bands[i], &seq_opts()).unwrap();
            assert!(handle.output().bitwise_eq(&expect.output), "band {i}");
        }
        if all_queued_in_time {
            let m = svc.metrics();
            assert!(m.shared_scan_batches >= 1, "{m:?}");
            assert!(m.scans_saved >= 2, "one pass covered the other two: {m:?}");
            // Traffic: the plug's 8 f64 leaves + one shared qty pass
            // (300k) instead of three solo scans (900k).
            let solo = (8 + 3) * 300_000;
            assert!(m.scan_rows_streamed < solo as u64, "{m:?}");
            let saved: u64 = svc.session_metrics().iter().map(|s| s.scans_saved).sum();
            assert!(saved >= 2, "beneficiaries record their saved scans");
            assert_counters_balance(&svc);
            // The cooperative qty pass streamed the packed codes.
            assert!(m.compressed_bytes_streamed > 0, "{m:?}");
            assert!(m.bytes_saved > 0, "{m:?}");
        }
    }

    #[test]
    fn packed_scans_record_compressed_byte_savings() {
        let t = item(50_000);
        let svc = QueryService::new(ServiceConfig::new().with_budget(2).with_cache_bytes(0));
        let session = svc.session();
        let plan = Query::scan(&t)
            .filter(Pred::range_i32("qty", 5, 20))
            .agg(Agg::count())
            .build()
            .unwrap();
        let handle = session.run(&plan).expect("runs");
        // Identical rows whichever representation the leaf streamed.
        let reference = ExecOptions::cost_model(memsim::profiles::origin2000())
            .with_compress(CompressMode::Off);
        let seq = execute(&mut NullTracker, &plan, &reference).unwrap();
        assert_eq!(handle.output(), &seq.output);

        let m = svc.metrics();
        assert_eq!(m.scan_rows_streamed, 50_000, "the leaf streamed the column");
        // qty spans 0..50 — a packed representation far below 32 bits/value,
        // and no index competes, so auto takes it.
        let cc = t.compressed_of("qty").expect("qty compresses");
        let cb = (50_000f64 * cc.bits_per_value() / 8.0).ceil() as u64;
        assert_eq!(m.compressed_bytes_streamed, cb, "{m:?}");
        assert_eq!(m.bytes_saved, 50_000 * 4 - cb, "4-byte column stride");
        let sm = svc.session_metrics();
        assert_eq!(sm[0].compressed_bytes_streamed, cb);
        assert_eq!(sm[0].bytes_saved, m.bytes_saved);
    }

    #[test]
    fn engine_errors_release_the_lease() {
        use obs::{validate_lifecycle, Terminal};
        let t = item(100);
        let svc =
            QueryService::new(ServiceConfig::new().with_budget(1).with_trace(obs::TraceMode::Ring));
        let session = svc.session();
        // A hand-built invalid tree: aggregation below a filter.
        let inner = Query::scan(&t).group_by("shipmode").agg(Agg::count()).build().unwrap();
        let bad = LogicalPlan {
            root: PlanNode::Filter {
                input: Box::new(inner.root),
                pred: Pred::range_i32("qty", 0, 1),
            },
        };
        assert!(matches!(session.run(&bad), Err(ServiceError::Engine(_))));
        // The planner refused it before admission, and it still ended in a
        // defined terminal: booked as submitted, traced as failed.
        let m = svc.metrics();
        let by_session: u64 = svc.session_metrics().iter().map(|s| s.submitted).sum();
        assert_eq!((m.submitted, by_session), (1, 1), "{m:?}");
        let traces = svc.traces();
        assert_eq!(traces.len(), 1);
        assert_eq!(validate_lifecycle(&traces[0]), Ok(Terminal::Failed));
        // The refused plan never leased: the next query is admitted
        // immediately.
        let ok = Query::scan(&t).agg(Agg::count()).build().unwrap();
        let handle = session.run(&ok).expect("no lease was held");
        assert!(!handle.sched.queued);
        assert_eq!(svc.metrics().threads_in_use, 0);
        // The failed leader's flight was settled, not stranded: the same
        // bad plan fails again (a stuck flight would hang this call).
        assert!(matches!(session.run(&bad), Err(ServiceError::Engine(_))));
        let m = svc.metrics();
        assert_eq!((m.submitted, m.completed, m.rejected), (3, 1, 0), "{m:?}");
    }

    #[test]
    fn tracing_records_valid_lifecycles_and_identical_results() {
        use obs::{validate_lifecycle, Terminal};
        let t = item(50_000);
        let plan = Query::scan(&t)
            .filter(Pred::range_i32("qty", 10, 30))
            .group_by("shipmode")
            .agg(Agg::sum("price"))
            .agg(Agg::count())
            .build()
            .unwrap();
        // Small chunks force the cooperative pass through the elevator.
        let cfg = ServiceConfig::new()
            .with_budget(2)
            .with_cache_bytes(1 << 20)
            .with_chunk_rows(8 << 10)
            .with_trace(obs::TraceMode::Ring);
        let plain = QueryService::new(cfg.clone().with_trace(obs::TraceMode::Off));
        let traced = QueryService::new(cfg);
        let baseline = plain.session().run(&plan).expect("untraced run");
        let ts = traced.session();
        let first = ts.run(&plan).expect("traced run");
        let hit = ts.run(&plan).expect("cache hit");
        assert!(
            first.output().bitwise_eq(baseline.output()) && hit.sched.cached,
            "tracing must not change results"
        );

        let traces = traced.traces();
        assert_eq!(traces.len(), 2);
        let terms: Vec<Terminal> =
            traces.iter().map(|t| validate_lifecycle(t).expect("DFA-valid")).collect();
        assert_eq!(terms, vec![Terminal::Delivered, Terminal::CacheHit]);
        let first_trace = &traces[0];
        let names: Vec<&str> = first_trace.events.iter().map(|e| e.event.name()).collect();
        assert!(names.contains(&"Admitted") && names.contains(&"LeaseGranted"), "{names:?}");
        assert!(names.contains(&"ChunkDone"), "elevator chunks must be traced: {names:?}");
        assert!(names.contains(&"OpDone") && names.last() == Some(&"Delivered"), "{names:?}");
        assert!(first_trace.to_jsonl().contains("\"ev\":\"ChunkDone\""));

        // The untraced service records no traces and reports no drift.
        assert!(plain.traces().is_empty());
        assert!(plain.drift().rows.is_empty());
        // The traced one fed the observatory; on the calibrated model the
        // shared-scan and operator residuals stay within a factor 2.
        let drift = traced.drift();
        assert!(!drift.rows.is_empty());
        for r in &drift.rows {
            assert!(
                r.drift.ewma > 0.5 && r.drift.ewma < 2.0,
                "{} drifted: {:?}",
                r.kind.name(),
                r.drift
            );
        }
        // Chunk latencies landed in the histogram-backed metric.
        assert!(traced.metrics().chunk_latency.count > 0);
    }

    /// Run `f` on a thread of its own and fail if it has not returned
    /// within 10 s. A session parked on the condvar cannot be unwound, so a
    /// hung run is left behind and reported instead of hanging the suite.
    fn within_deadline(f: impl FnOnce() + Send + 'static) {
        use std::sync::mpsc::{channel, RecvTimeoutError};
        let (done, finished) = channel();
        std::thread::spawn(move || {
            f();
            let _ = done.send(());
        });
        match finished.recv_timeout(std::time::Duration::from_secs(10)) {
            Ok(()) => {}
            Err(RecvTimeoutError::Timeout) => panic!("hung: no result within the 10 s deadline"),
            Err(RecvTimeoutError::Disconnected) => panic!("the run panicked (see its output)"),
        }
    }

    #[test]
    fn a_lease_handed_back_is_regranted_after_the_runner_released() {
        // Two same-plan sessions granted in one wave. The runner streams
        // its claimed pass only once its peer found the pass in flight and
        // handed its lease back; the peer re-queues only once every lease
        // is back — so the re-queue lands on an idle budget, and must
        // dispatch itself.
        within_deadline(|| {
            let t = item(5_000);
            let plan = Query::scan(&t).filter(Pred::range_i32("qty", 3, 17)).build().unwrap();
            let expect = execute(&mut NullTracker, &plan, &seq_opts()).unwrap();
            let svc = QueryService::new(
                ServiceConfig::new()
                    .with_budget(2)
                    .with_cache_bytes(0)
                    .with_chunk_rows(0)
                    .with_trace(obs::TraceMode::Ring),
            );
            svc.state.lock().unwrap().hold = Some(|at, st| match at {
                Hold::Pass => st.sched.in_use() > 1,
                Hold::Requeue => st.sched.in_use() > 0,
                Hold::Boundary => false,
            });
            svc.pause_admission();
            std::thread::scope(|s| {
                let svc = &svc;
                let runs: Vec<_> =
                    (0..2).map(|_| s.spawn(|| svc.session().run(&plan).expect("runs"))).collect();
                while svc.metrics().queued < 2 {
                    std::thread::yield_now();
                }
                svc.resume_admission();
                for r in runs {
                    assert!(r.join().unwrap().output().bitwise_eq(&expect.output));
                }
            });
            let m = svc.metrics();
            assert_eq!((m.completed, m.threads_in_use), (2, 0), "{m:?}");
            assert_counters_balance(&svc);
            let handed_back = svc
                .traces()
                .iter()
                .flat_map(|t| &t.events)
                .filter(|e| matches!(e.event, TraceEvent::Preempted { remaining_ms } if remaining_ms == 0.0))
                .count();
            assert_eq!(handed_back, 1, "one session waited out the other's pass");
        });
    }

    #[test]
    fn a_preempted_elevator_is_regranted_after_the_cheaper_query() {
        // The elevator reaches its first boundary only once a cheaper query
        // waits, so it yields exactly once: one requeue that gives its
        // thread back, and is granted again when the cheap query releases.
        within_deadline(|| {
            let t = item(50_000);
            let small = item(500);
            let big = Query::scan(&t).filter(Pred::range_i32("qty", 1, 40)).build().unwrap();
            let tiny = Query::scan(&small).filter(Pred::range_i32("qty", 1, 5)).build().unwrap();
            let svc = QueryService::new(
                ServiceConfig::new().with_budget(1).with_cache_bytes(0).with_chunk_rows(1 << 10),
            );
            svc.state.lock().unwrap().hold = Some(|at, st| {
                at == Hold::Boundary && st.preemptions == 0 && st.sched.waiting() == 0
            });
            std::thread::scope(|s| {
                let svc = &svc;
                let b = s.spawn(|| svc.session().run(&big).expect("big runs"));
                while svc.metrics().admitted_immediately == 0 {
                    std::thread::yield_now();
                }
                let c = s.spawn(|| svc.session().run(&tiny).expect("tiny runs"));
                for (h, p) in [(b, &big), (c, &tiny)] {
                    let e = execute(&mut NullTracker, p, &seq_opts()).unwrap();
                    assert!(h.join().unwrap().output().bitwise_eq(&e.output));
                }
            });
            let m = svc.metrics();
            assert_eq!((m.preemptions, m.completed, m.threads_in_use), (1, 2, 0), "{m:?}");
        });
    }

    #[test]
    fn traced_shed_and_collapse_lifecycles_validate() {
        use obs::{validate_lifecycle, Terminal};
        let t = item(2_000);
        let svc = QueryService::new(
            ServiceConfig::new()
                .with_budget(1)
                .with_queue_limit(0)
                .with_cache_bytes(0)
                .with_trace(obs::TraceMode::Ring),
        );
        let session = svc.session();
        let plan = Query::scan(&t).filter(Pred::range_i32("qty", 0, 10)).build().unwrap();
        // With admission paused and a zero-length queue, a submission is
        // shed immediately — the Shed terminal.
        svc.pause_admission();
        assert!(matches!(session.run(&plan), Err(ServiceError::Overloaded { .. })));
        svc.resume_admission();
        session.run(&plan).expect("runs after resume");
        let terms: Vec<Terminal> =
            svc.traces().iter().map(|t| validate_lifecycle(t).expect("DFA-valid")).collect();
        assert_eq!(terms, vec![Terminal::Shed, Terminal::Delivered]);
    }
}
