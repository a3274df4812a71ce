//! The blocking service front-end: sessions, the submit path (result
//! cache → single-flight collapse → quote → admission → shared-scan claim
//! → execution), and the plan-to-quote walk.
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
//! * **Chunked elevator passes** — a claimed cooperative pass with a
//!   non-zero `chunk_rows` streams its column in chunks, absorbing newly
//!   posted same-column wants at every boundary (riders wrap around for
//!   the prefix they missed) and yielding its lease between chunks when a
//!   cheaper query waits. Saved-scan accounting happens at *delivery*
//!   time, so late attaches are counted and aborted passes are not.

use std::cell::Cell;
use std::collections::HashMap;
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

use costmodel::access::AccessPath;
use costmodel::quote::{quote_ops, OpShape, QueryQuote};
use costmodel::scan::{scan_cost, Select};
use costmodel::ModelMachine;
use engine::access::{leaf_count, CompressMode};
use engine::exec::{execute_with_scans, ExecOptions, ExecReport, Executed, QueryOutput, Threads};
use engine::plan::{LogicalPlan, PlanNode};
use engine::shared::{scan_requests, ColumnId, ScanRequest, ScanTicket, ShareKey};
use memsim::{EventCounters, MachineConfig, NullTracker, SimTracker};
use monet_core::scan::{par_select, select, RowSet, ScanCol, ScanPred};
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
    /// runs under — the `MONET_ACCESS/COMPRESS/PUSHDOWN` knobs resolved
    /// once, here, so the three can never disagree and the submit path
    /// makes no environment reads.
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

/// One session's latency histograms ([`obs::LogHistogram`]): bounded
/// memory however many queries run, merged into the global distributions
/// by [`QueryService::metrics`].
#[derive(Default)]
struct SessionHists {
    /// End-to-end latency (submission to result), milliseconds.
    latency: LogHistogram,
    /// Admission-queue wait, milliseconds (executed queries only).
    queue_wait: LogHistogram,
    /// Wall time of individual elevator chunk passes, milliseconds.
    chunk: LogHistogram,
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
    /// Leases granted to queued tickets, awaiting pickup by their waiter.
    grants: HashMap<u64, usize>,
    /// Pending/in-flight/published cooperative-scan state.
    board: ScanBoard,
    /// The bounded LRU result cache.
    cache: ResultCache,
    /// Single-flight table: fingerprint → the execution in progress.
    flights: HashMap<String, Flight>,
    next_flight: u64,
    admitted_immediately: u64,
    queued: u64,
    rejected: u64,
    collapsed: u64,
    completed: u64,
    shared_scan_batches: u64,
    scans_saved: u64,
    elevator_attaches: u64,
    preemptions: u64,
    scan_rows: u64,
    compressed_bytes: u64,
    bytes_saved: u64,
    cache_hits: u64,
    cache_misses: u64,
    sessions: Vec<SessionMetrics>,
    /// Parallel to `sessions`: per-session latency histograms.
    hists: Vec<SessionHists>,
}

/// Settle a leader's flight: on success store the shared result for the
/// followers (the last one out removes the entry); on failure remove the
/// entry outright so followers retry — and maybe lead — themselves.
fn finish_flight(st: &mut Inner, fp: &str, result: Option<(Arc<Executed>, f64)>) {
    let Some(f) = st.flights.get_mut(fp) else { return };
    match result {
        Some(r) => {
            f.done = true;
            f.result = Some(r);
            if f.waiters == 0 {
                st.flights.remove(fp);
            }
        }
        None => {
            st.flights.remove(fp);
        }
    }
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
                grants: HashMap::new(),
                board: ScanBoard::default(),
                cache: ResultCache::new(cfg.cache_bytes),
                flights: HashMap::new(),
                next_flight: 0,
                admitted_immediately: 0,
                queued: 0,
                rejected: 0,
                collapsed: 0,
                completed: 0,
                shared_scan_batches: 0,
                scans_saved: 0,
                elevator_attaches: 0,
                preemptions: 0,
                scan_rows: 0,
                compressed_bytes: 0,
                bytes_saved: 0,
                cache_hits: 0,
                cache_misses: 0,
                sessions: Vec::new(),
                hists: Vec::new(),
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
        st.sessions.push(SessionMetrics { session: id, ..SessionMetrics::default() });
        st.hists.push(SessionHists::default());
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
        let mut st = self.state.lock().expect("service lock");
        for grant in st.sched.resume() {
            st.grants.insert(grant.ticket, grant.threads);
        }
        drop(st);
        self.cv.notify_all();
    }

    /// Snapshot the service-wide metrics.
    pub fn metrics(&self) -> ServiceMetrics {
        let st = self.state.lock().expect("service lock");
        // Merge the per-session histograms into global distributions —
        // exact by construction (elementwise bucket addition).
        let mut latency = LogHistogram::new();
        let mut queue_wait = LogHistogram::new();
        let mut chunk = LogHistogram::new();
        for h in &st.hists {
            latency.merge(&h.latency);
            queue_wait.merge(&h.queue_wait);
            chunk.merge(&h.chunk);
        }
        ServiceMetrics {
            budget: st.sched.budget(),
            threads_in_use: st.sched.in_use(),
            high_water_threads: st.sched.high_water(),
            submitted: st.admitted_immediately
                + st.queued
                + st.rejected
                + st.cache_hits
                + st.collapsed,
            admitted_immediately: st.admitted_immediately,
            queued: st.queued,
            rejected: st.rejected,
            collapsed: st.collapsed,
            completed: st.completed,
            shared_scan_batches: st.shared_scan_batches,
            scans_saved: st.scans_saved,
            elevator_attaches: st.elevator_attaches,
            preemptions: st.preemptions,
            scan_rows_streamed: st.scan_rows,
            compressed_bytes_streamed: st.compressed_bytes,
            bytes_saved: st.bytes_saved,
            cache_hits: st.cache_hits,
            cache_misses: st.cache_misses,
            cache_evictions: st.cache.evictions,
            cache_bytes: st.cache.bytes(),
            cache_entries: st.cache.len(),
            latency: latency.summary().into(),
            queue_wait: queue_wait.summary().into(),
            chunk_latency: chunk.summary().into(),
        }
    }

    /// Snapshot every session's accounting.
    pub fn session_metrics(&self) -> Vec<SessionMetrics> {
        self.state.lock().expect("service lock").sessions.clone()
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

    /// Fold a successful execution into the trace (per-operator `OpDone`
    /// events plus the `Delivered` terminal) and feed the drift
    /// observatory ([`DriftMonitor::record_op`]): each operator's model
    /// price against the simulated counters the tracing run attributed to
    /// it.
    fn observe_delivery(
        &self,
        tb: &mut Option<TraceBuilder>,
        executed: &Executed,
        total_ms: f64,
        queue_ms: f64,
    ) {
        let Some(o) = &self.obs else { return };
        let mut actual_total = 0.0;
        let mut drift = o.drift.lock().expect("drift lock");
        for op in &executed.report.ops {
            let sim = op.counters;
            if let Some(c) = &sim {
                actual_total += c.elapsed_ns();
            }
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
        drop(drift);
        let rows = match &executed.output {
            QueryOutput::Groups(g) => g.len(),
            QueryOutput::Aggregates(a) => a.len(),
            QueryOutput::Oids(o) => o.len(),
            QueryOutput::JoinIndex(j) => j.len(),
        };
        self.tpush(tb, TraceEvent::Delivered { total_ms, queue_ms, actual_ns: actual_total, rows });
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

    fn run_plan(
        &self,
        session: usize,
        plan: &LogicalPlan<'_>,
    ) -> Result<QueryHandle, ServiceError> {
        let submitted_at = Instant::now();
        // Every leaf with something to stream: what the quote prices.
        let leaves = scan_requests(plan, self.exec.pushdown);
        // Restricted leaves (the conjunction planner will evaluate them
        // against an earlier leaf's survivors) stay off the shared-scan
        // board: a cooperative full-column pass for them would stream bytes
        // the solo plan never touches.
        let requests: Vec<ScanRequest<'_>> = if self.cfg.shared_scans {
            leaves.iter().copied().filter(|r| !r.restricted).collect()
        } else {
            Vec::new()
        };
        let fp = (self.cfg.cache_bytes > 0).then(|| fingerprint(plan));
        let mut tb = self.obs.as_ref().map(|o| o.sink.begin(session));

        let mut st = self.state.lock().expect("service lock");
        st.sessions[session].submitted += 1;

        // Result cache and single-flight collapse. Tables are immutable
        // and execution deterministic, so a fingerprint hit — cached or
        // collapsed onto a concurrent leader — is bit-identical to
        // re-running the plan, without a lease. Neither path records a
        // queue-wait sample: those queries never enter admission, and a
        // 0.0 sample would dilute the queue-wait distribution the
        // percentiles summarize.
        if let Some(fp) = &fp {
            loop {
                if let Some((executed, cost_ms)) = st.cache.get(fp) {
                    st.cache_hits += 1;
                    st.completed += 1;
                    let total_ms = submitted_at.elapsed().as_secs_f64() * 1e3;
                    st.hists[session].latency.record(total_ms);
                    let sm = &mut st.sessions[session];
                    sm.cache_hits += 1;
                    sm.completed += 1;
                    sm.total_ms += total_ms;
                    sm.max_ms = sm.max_ms.max(total_ms);
                    self.tpush(&mut tb, TraceEvent::CacheHit);
                    drop(st);
                    self.tfinish(tb);
                    return Ok(QueryHandle {
                        executed,
                        sched: SchedInfo {
                            session,
                            queued: false,
                            cached: true,
                            collapsed: false,
                            queue_ms: 0.0,
                            total_ms,
                            cost_ms,
                            threads: 0,
                        },
                    });
                }
                if let Some(flight) = st.flights.get_mut(fp) {
                    // An identical plan is executing right now: collapse
                    // onto it instead of running a duplicate.
                    let id = flight.id;
                    flight.waiters += 1;
                    loop {
                        match st.flights.get(fp) {
                            Some(f) if f.id == id && !f.done => {}
                            _ => break,
                        }
                        st = self.cv.wait(st).expect("service lock");
                    }
                    let outcome = match st.flights.get_mut(fp) {
                        Some(f) if f.id == id => {
                            f.waiters -= 1;
                            let r = f.result.clone();
                            if f.done && f.waiters == 0 {
                                st.flights.remove(fp);
                            }
                            r
                        }
                        // The leader failed and removed the flight; retry
                        // (and maybe lead) ourselves.
                        _ => None,
                    };
                    match outcome {
                        Some((executed, cost_ms)) => {
                            st.collapsed += 1;
                            st.completed += 1;
                            let total_ms = submitted_at.elapsed().as_secs_f64() * 1e3;
                            st.hists[session].latency.record(total_ms);
                            let sm = &mut st.sessions[session];
                            sm.completed += 1;
                            sm.total_ms += total_ms;
                            sm.max_ms = sm.max_ms.max(total_ms);
                            self.tpush(&mut tb, TraceEvent::Collapsed { leader: id });
                            drop(st);
                            self.tfinish(tb);
                            return Ok(QueryHandle {
                                executed,
                                sched: SchedInfo {
                                    session,
                                    queued: false,
                                    cached: false,
                                    collapsed: true,
                                    queue_ms: 0.0,
                                    total_ms,
                                    cost_ms,
                                    threads: 0,
                                },
                            });
                        }
                        None => continue,
                    }
                }
                // No cached result and no flight: lead one.
                let id = st.next_flight;
                st.next_flight += 1;
                st.flights.insert(fp.clone(), Flight { id, done: false, result: None, waiters: 0 });
                st.cache_misses += 1;
                break;
            }
        }
        // From here on this thread owns the flight (when fp is Some): the
        // guard settles it as failed on every early exit — rejection,
        // engine error, or a panic unwinding out of execute().
        let mut flight = FlightGuard { svc: self, fp: fp.clone() };

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
        let quote =
            quote_plan_covered(&self.exec, plan, &leaves, &|leaf| covered.get(&leaf).copied());
        let desired = quote.best_threads(&self.cfg.machine, self.cfg.budget).threads;
        self.tpush(
            &mut tb,
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
            Admission::Rejected => {
                st.rejected += 1;
                st.sessions[session].rejected += 1;
                self.tpush(&mut tb, TraceEvent::Shed);
                drop(st);
                self.tfinish(tb);
                return Err(ServiceError::Overloaded { queue_limit: self.cfg.queue_limit });
            }
            Admission::Queued(ticket) => {
                st.board.post(ticket, &requests);
                st.queued += 1;
                self.tpush(&mut tb, TraceEvent::Queued { depth: st.sched.waiting() });
                loop {
                    if let Some(threads) = st.grants.remove(&ticket) {
                        break (ticket, threads, true);
                    }
                    st = self.cv.wait(st).expect("service lock");
                }
            }
        };
        self.tpush(&mut tb, TraceEvent::LeaseGranted { threads });
        // Runnable: harvest lists already published for this ticket, claim
        // cooperative passes over this plan's scan columns (absorbing every
        // queued same-column request), and note keys another runner is
        // already streaming.
        let work = if self.cfg.shared_scans {
            st.board.runnable(ticket, &requests, self.cfg.chunk_rows)
        } else {
            Runnable::default()
        };
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
        let mut provided_by_others = work.ready.len();
        for (leaf, cands) in work.ready {
            ticket_lists.provide(leaf, cands);
        }
        // Run the claimed passes (under the lease) and publish their lists
        // *before* waiting on anyone else's — every runner publishes first,
        // so waits always resolve.
        self.run_batches(session, &work.batches, &requests, &lease, &mut ticket_lists, &mut tb);
        if !work.waits.is_empty() {
            let mut st = self.state.lock().expect("service lock");
            if work.waits.iter().any(|k| st.board.in_flight(k)) {
                // Hand the lease back while blocked on another runner's
                // publication: a preempted elevator can only resume on a
                // grant, and grants only come from released threads —
                // idling ours here could deadlock the pool (and wastes
                // budget besides). Re-acquire at cost 0 once the lists
                // arrive.
                self.tpush(&mut tb, TraceEvent::Preempted { remaining_ms: 0.0 });
                let held = lease.threads.get();
                lease.threads.set(0);
                for grant in st.sched.release(held) {
                    st.grants.insert(grant.ticket, grant.threads);
                }
                self.cv.notify_all();
                while work.waits.iter().any(|k| st.board.in_flight(k)) {
                    st = self.cv.wait(st).expect("service lock");
                }
                let tkt = st.sched.requeue(0.0, held.max(1));
                self.cv.notify_all();
                let got = loop {
                    if let Some(t) = st.grants.remove(&tkt) {
                        break t;
                    }
                    st = self.cv.wait(st).expect("service lock");
                };
                lease.threads.set(got);
                self.tpush(&mut tb, TraceEvent::LeaseGranted { threads: got });
            }
            // Delivered lists land under this ticket; a leaf whose pass
            // aborted simply stays unprovided and is evaluated below.
            for (leaf, cands) in st.board.take_ready(ticket) {
                ticket_lists.provide(leaf, cands);
                provided_by_others += 1;
            }
        }

        let opts = self.exec.with_thread_cap(lease.threads.get().max(1));
        // Tracing runs the executor under the memory simulator so every
        // operator report carries deterministic counters (the executor
        // pins simulated runs to one thread; results are bit-identical).
        let result = match &self.obs {
            Some(_) => {
                let mut trk = SimTracker::for_machine(self.cfg.machine);
                execute_with_scans(&mut trk, plan, &opts, &ticket_lists)
            }
            None => execute_with_scans(&mut NullTracker, plan, &opts, &ticket_lists),
        };
        let total_ms = submitted_at.elapsed().as_secs_f64() * 1e3;
        let final_threads = lease.threads.get();
        drop(lease);

        let executed = match result {
            Ok(e) => Arc::new(e),
            Err(e) => {
                self.tpush(&mut tb, TraceEvent::Failed { error: e.to_string() });
                let mut st = self.state.lock().expect("service lock");
                // Roll deliveries this query consumed (or never will) out
                // of the global saved-scan counter: its session never
                // records them, and the books must balance on error paths
                // too.
                let dropped = st.board.forget(ticket) + provided_by_others;
                st.scans_saved = st.scans_saved.saturating_sub(dropped as u64);
                drop(st);
                self.tfinish(tb);
                return Err(ServiceError::Engine(e));
            }
        };
        if self.obs.is_some() {
            self.observe_delivery(&mut tb, &executed, total_ms, queue_ms);
        }
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
        st.completed += 1;
        st.scan_rows += self_scanned;
        st.compressed_bytes += packed_bytes;
        st.bytes_saved += packed_saved;
        st.hists[session].latency.record(total_ms);
        st.hists[session].queue_wait.record(queue_ms);
        let dropped = st.board.forget(ticket);
        st.scans_saved = st.scans_saved.saturating_sub(dropped as u64);
        if let Some(fp) = flight.fp.take() {
            // Cache the *undiscounted* quote: the coverage discount was a
            // property of this admission's shared-scan state, not of the
            // plan — future hits should report the plan's standalone cost.
            let solo_ms = if covered.is_empty() {
                quote.seq_ms()
            } else {
                quote_plan_covered(&self.exec, plan, &leaves, &|_| None).seq_ms()
            };
            st.cache.insert(fp.clone(), &executed, solo_ms);
            finish_flight(&mut st, &fp, Some((Arc::clone(&executed), solo_ms)));
        }
        let sm = &mut st.sessions[session];
        sm.completed += 1;
        sm.scans_saved += provided_by_others as u64;
        sm.compressed_bytes_streamed += packed_bytes;
        sm.bytes_saved += packed_saved;
        sm.total_ms += total_ms;
        sm.max_ms = sm.max_ms.max(total_ms);
        drop(st);
        self.cv.notify_all();
        self.tfinish(tb);

        Ok(QueryHandle {
            executed,
            sched: SchedInfo {
                session,
                queued,
                cached: false,
                collapsed: false,
                queue_ms,
                total_ms,
                cost_ms: quote.seq_ms(),
                threads: final_threads,
            },
        })
    }

    /// The compressed representation a cooperative pass over `req`'s column
    /// streams instead of the plain buffer: the column has one, the
    /// compression policy allows it, and it can evaluate every merged
    /// predicate directly.
    fn packed_for<'p>(
        &self,
        req: &ScanRequest<'p>,
        preds: &[ScanPred],
    ) -> Option<&'p monet_core::CompressedColumn> {
        if self.exec.compress == CompressMode::Off {
            return None;
        }
        req.compressed.filter(|cc| preds.iter().all(|p| cc.supports(p)))
    }

    /// Stream `rows` of a cooperative pass through the scan-select kernel:
    /// under the simulator when tracing (returning its counters), natively
    /// otherwise — sharded over `threads` when the whole column is
    /// presented.
    fn stream(
        &self,
        req: &ScanRequest<'_>,
        cc: Option<&monet_core::CompressedColumn>,
        preds: &[ScanPred],
        rows: RowSet<'_>,
        threads: usize,
    ) -> (Result<Vec<Vec<Oid>>, StorageError>, Option<EventCounters>) {
        let col = match cc {
            Some(cc) => ScanCol::Packed(cc, req.seqbase),
            None => ScanCol::Plain(req.bat),
        };
        if self.obs.is_some() {
            let mut trk = SimTracker::for_machine(self.cfg.machine);
            let lists = select(&mut trk, col, preds, rows);
            return (lists, Some(trk.counters()));
        }
        let lists = match rows {
            RowSet::All => par_select(col, preds, threads).map(|(lists, _)| lists),
            rows => select(&mut NullTracker, col, preds, rows),
        };
        (lists, None)
    }

    /// Execute claimed cooperative passes. A pass whose column fits in one
    /// chunk (or with chunking off) runs one-shot: a single [`select`]
    /// stream (sharded over the lease when it is worth forking). A longer
    /// pass under a non-zero chunk size runs as an *elevator*
    /// ([`QueryService::run_elevator`]). Either way, when the anchored
    /// column carries a compressed representation that supports every
    /// merged predicate (and the compression policy does not say off), the
    /// pass streams the compressed bytes instead — bit-identical lists,
    /// fewer bytes on the bus. Each claim is guarded: if the pass fails —
    /// or a panic unwinds out of the kernel — its keys are aborted back
    /// off the in-flight set so waiters evaluate for themselves instead
    /// of blocking forever (the board-side analogue of [`LeaseGuard`]).
    fn run_batches(
        &self,
        session: usize,
        batches: &[Batch],
        requests: &[ScanRequest<'_>],
        lease: &LeaseGuard<'_>,
        ticket_lists: &mut ScanTicket,
        tb: &mut Option<TraceBuilder>,
    ) {
        for batch in batches {
            let req = &requests[batch.anchor];
            let chunk =
                if self.cfg.chunk_rows == 0 { batch.rows.max(1) } else { self.cfg.chunk_rows };
            if chunk >= batch.rows {
                self.run_one_shot(session, batch, req, lease.threads.get(), ticket_lists, tb);
            } else {
                self.run_elevator(session, batch, req, chunk, lease, ticket_lists, tb);
            }
            self.cv.notify_all();
        }
    }

    /// One all-or-nothing cooperative pass: stream the whole column once,
    /// publish every predicate's list, and account the saved scans from
    /// what was *actually delivered* (claim-time wants plus waiters that
    /// registered while the pass ran — counting only the former is how
    /// `scans_saved` used to undercount).
    fn run_one_shot(
        &self,
        session: usize,
        batch: &Batch,
        req: &ScanRequest<'_>,
        threads: usize,
        ticket_lists: &mut ScanTicket,
        tb: &mut Option<TraceBuilder>,
    ) {
        let mut claim =
            ClaimGuard { svc: self, keys: batch.preds.iter().map(|p| p.key).collect(), col: None };
        let preds: Vec<ScanPred> = batch.preds.iter().map(|p| p.key.pred.kernel_pred()).collect();
        let cc = self.packed_for(req, &preds);
        // Tracing streams the pass under the simulator (sequentially — the
        // simulator counts a single stream) for deterministic counters;
        // the lists are bit-identical to the parallel driver's.
        let (lists, sim) = self.stream(req, cc, &preds, RowSet::All, threads);
        // Err is unreachable for validated plans (the predicate types
        // were checked against these very columns); the guard's Drop
        // aborts the claims so waiters evaluate for themselves.
        if let Ok(lists) = lists {
            if let Some(counters) = sim {
                self.observe_pass(stored(batch.rows, req.stride, cc), preds.len(), &counters);
                self.tpush(
                    tb,
                    TraceEvent::ChunkDone {
                        col: format!("{}.{}", req.table, req.column),
                        lo: 0,
                        hi: batch.rows,
                        preds: preds.len(),
                        sim: Some(counters),
                    },
                );
            }
            let lists: Vec<Cands> = lists.into_iter().map(Arc::new).collect();
            for (p, cands) in batch.preds.iter().zip(&lists) {
                for &leaf in &p.own_leaves {
                    ticket_lists.provide(leaf, cands.clone());
                }
            }
            let mut st = self.state.lock().expect("service lock");
            let delivered = st.board.publish(batch, &lists);
            let own_total: usize = batch.preds.iter().map(|p| p.own_leaves.len()).sum();
            st.shared_scan_batches += 1;
            st.scans_saved += (own_total + delivered).saturating_sub(1) as u64;
            st.scan_rows += batch.rows as u64;
            if let Some(cc) = cc {
                let cb = (batch.rows as f64 * cc.bits_per_value() / 8.0).ceil() as u64;
                let saved = (batch.rows as u64 * req.stride as u64).saturating_sub(cb);
                st.compressed_bytes += cb;
                st.bytes_saved += saved;
                let sm = &mut st.sessions[session];
                sm.compressed_bytes_streamed += cb;
                sm.bytes_saved += saved;
            }
            st.sessions[session].runner_covered += own_total.saturating_sub(1) as u64;
            drop(st);
            claim.keys.clear();
        }
    }

    /// One chunked elevator pass: stream the column chunk by chunk,
    /// absorbing newly posted same-column wants at every boundary (late
    /// riders wrap around for the prefix they missed), delivering each
    /// rider the moment it has seen every row, and yielding the lease
    /// between chunks when a cheaper query waits. Every rider's partial
    /// lists, concatenated in ascending row order, are exactly the
    /// one-shot kernel's output — chunking changes scheduling, never
    /// results.
    #[allow(clippy::too_many_arguments)] // one call site; the pass needs the whole claim context
    fn run_elevator(
        &self,
        session: usize,
        batch: &Batch,
        req: &ScanRequest<'_>,
        chunk: usize,
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
            /// Per-chunk partial lists as `(chunk first row, matches)`.
            parts: Vec<(usize, Vec<Oid>)>,
        }
        let rows = batch.rows;
        let mut riders: Vec<Rider> = batch
            .preds
            .iter()
            .map(|p| Rider {
                key: p.key,
                own_leaves: p.own_leaves.clone(),
                attach: 0,
                parts: Vec::new(),
            })
            .collect();
        let mut claim = ClaimGuard {
            svc: self,
            keys: riders.iter().map(|r| r.key).collect(),
            col: Some(req.col),
        };
        // Model price of one streamed row, for the preemption comparison.
        let ns_per_row = {
            let model = ModelMachine::new(&self.cfg.machine);
            scan_cost(&model, rows.max(1), req.stride.max(1)).total_ns() / rows.max(1) as f64
        };
        let mut cursor = 0usize;
        let mut streamed = 0usize;
        let mut charged_stream = false;
        while !riders.is_empty() {
            let lo = cursor;
            let hi = (cursor + chunk).min(rows);
            let preds: Vec<ScanPred> = riders.iter().map(|r| r.key.pred.kernel_pred()).collect();
            let cc = self.packed_for(req, &preds);
            // Stream the chunk without the service lock — under the
            // simulator when tracing, so the ChunkDone event carries
            // deterministic counters.
            let chunk_started = Instant::now();
            let (lists, sim) = self.stream(req, cc, &preds, RowSet::Range(lo, hi), 1);
            let chunk_ms = chunk_started.elapsed().as_secs_f64() * 1e3;
            // Unreachable for validated plans; the guard aborts the
            // remaining claims (delivered riders stay delivered).
            let Ok(lists) = lists else { return };
            if let Some(counters) = sim {
                self.observe_pass(stored(hi - lo, req.stride, cc), preds.len(), &counters);
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
            st.hists[session].chunk.record(chunk_ms);
            for (r, part) in riders.iter_mut().zip(lists) {
                r.parts.push((lo, part));
            }
            let n = hi - lo;
            streamed += n;
            st.scan_rows += n as u64;
            if let Some(cc) = cc {
                let cb = (n as f64 * cc.bits_per_value() / 8.0).ceil() as u64;
                let saved = (n as u64 * req.stride as u64).saturating_sub(cb);
                st.compressed_bytes += cb;
                st.bytes_saved += saved;
                let sm = &mut st.sessions[session];
                sm.compressed_bytes_streamed += cb;
                sm.bytes_saved += saved;
            }
            cursor = if hi == rows { 0 } else { hi };
            st.board.set_progress(req.col, cursor);

            // Absorb newly posted same-column wants *before* delivering:
            // a want whose predicate already rides (even one completing
            // right now) just registers for that rider's delivery — no
            // extra streaming at all.
            let mut attached = 0usize;
            for (key, wants) in st.board.take_pending_for_col(&req.col) {
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
                        parts: Vec::new(),
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

            // Deliver riders that have now seen every row: their parts,
            // sorted by chunk position, concatenate to the one-shot list
            // (each part's OIDs ascend and the parts' row ranges are
            // disjoint).
            let (mut still, mut done) = (Vec::with_capacity(riders.len()), Vec::new());
            for r in riders {
                if streamed - r.attach >= rows {
                    done.push(r);
                } else {
                    still.push(r);
                }
            }
            riders = still;
            let (mut own_done, mut delivered_done) = (0usize, 0usize);
            for mut r in done {
                r.parts.sort_by_key(|&(plo, _)| plo);
                let total: usize = r.parts.iter().map(|(_, p)| p.len()).sum();
                let mut cands = Vec::with_capacity(total);
                for (_, mut p) in r.parts {
                    cands.append(&mut p);
                }
                let cands: Cands = Arc::new(cands);
                for &leaf in &r.own_leaves {
                    ticket_lists.provide(leaf, cands.clone());
                }
                delivered_done += st.board.deliver(&r.key, &cands);
                own_done += r.own_leaves.len();
                claim.keys.retain(|k| *k != r.key);
            }
            // Saved-scan accounting at delivery time: the pass charges
            // its one real stream against the first wave (which always
            // contains the runner's own anchor leaf), and every covered
            // leaf beyond it is a scan that never ran. The runner's
            // session books its own covered leaves (`runner_covered`);
            // consumers book theirs when they pick the lists up — the two
            // sides always sum to the global counter.
            if own_done + delivered_done > 0 {
                let charge = if !charged_stream && own_done > 0 {
                    charged_stream = true;
                    st.shared_scan_batches += 1;
                    1
                } else {
                    0
                };
                st.scans_saved += (own_done + delivered_done - charge) as u64;
                st.sessions[session].runner_covered += (own_done - charge) as u64;
            }
            if riders.is_empty() {
                st.board.clear_progress(&req.col);
                claim.col = None;
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
            if !st.sched.paused()
                && st.sched.cheapest_waiting_cost().is_some_and(|c| c < remaining_ns)
            {
                st.preemptions += 1;
                self.tpush(tb, TraceEvent::Preempted { remaining_ms: remaining_ns / 1e6 });
                let give = lease.threads.get();
                let tkt = st.sched.requeue(remaining_ns, give.max(1));
                for grant in st.sched.release(give) {
                    st.grants.insert(grant.ticket, grant.threads);
                }
                self.cv.notify_all();
                let got = loop {
                    if let Some(t) = st.grants.remove(&tkt) {
                        break t;
                    }
                    st = self.cv.wait(st).expect("service lock");
                };
                lease.threads.set(got);
                self.tpush(tb, TraceEvent::LeaseGranted { threads: got });
            }
            drop(st);
        }
    }
}

/// Settles an unfinished flight as failed on drop, so a leader that
/// errors — or panics — never strands its followers (they retry, and one
/// of them leads the next attempt).
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
        finish_flight(&mut st, &fp, None);
        drop(st);
        self.svc.cv.notify_all();
    }
}

/// Aborts undelivered cooperative-scan claims on drop, so a pass that
/// errors — or panics mid-kernel — never strands its keys in flight
/// (which would block every later same-key query forever). The elevator
/// variant also clears its column cursor.
struct ClaimGuard<'s> {
    svc: &'s QueryService,
    /// Keys still owed a delivery; shrinks as riders complete.
    keys: Vec<ShareKey>,
    /// The elevator's column cursor to clear, when one is live.
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
        for grant in st.sched.release(self.threads.get()) {
            st.grants.insert(grant.ticket, grant.threads);
        }
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

/// Price a logical plan into a whole-query quote by walking its nodes into
/// [`OpShape`]s. Post-filter cardinalities are unknown at admission time;
/// the walk assumes half the rows survive each filter — crude, but the
/// scheduler only needs *relative* accuracy to rank queries.
///
/// The compression and pushdown policy the plan is priced under is the
/// environment's (`ExecOptions::cost_model`); a caller that already holds
/// its [`ExecOptions`] prices with [`quote_plan_covered`] directly.
pub fn quote_plan(machine: &MachineConfig, plan: &LogicalPlan<'_>) -> QueryQuote {
    let opts = ExecOptions::cost_model(*machine);
    quote_plan_covered(&opts, plan, &scan_requests(plan, opts.pushdown), &|_| None)
}

/// [`quote_plan`] with shared-scan coverage. `leaves` is
/// `scan_requests(plan, opts.pushdown)`, unfiltered — the submit path
/// builds it once and prices straight from it: each request is one
/// [`Select`] at the width the column is stored in (packed unless the
/// policy turns compression off), restricted to the running survivors
/// where the conjunction planner will restrict it, and — where `covered`
/// returns `Some(missed)` for its leaf index — riding a cooperative pass
/// that had streamed `missed` rows when the query could board. A leaf
/// with no request is a dictionary miss: nothing runs, nothing is quoted.
/// `opts` is the policy the plan will execute under; its machine prices
/// the shapes.
pub fn quote_plan_covered(
    opts: &ExecOptions,
    plan: &LogicalPlan<'_>,
    leaves: &[ScanRequest<'_>],
    covered: &dyn Fn(usize) -> Option<usize>,
) -> QueryQuote {
    let mut ops = Vec::new();
    let select = |r: &ScanRequest<'_>, pos: usize| {
        let cc = r.compressed.filter(|_| opts.compress != CompressMode::Off);
        let fresh = stored(r.rows, r.stride, cc);
        OpShape::Select(match covered(r.leaf) {
            Some(missed) => Select { covered: Some(missed), ..fresh },
            // Halve the candidates per prior leaf — the same prior the
            // post-filter estimate of the walk uses.
            None if r.restricted => Select { cands: Some((r.rows >> pos.min(63)).max(1)), ..fresh },
            None => fresh,
        })
    };
    shapes_of(&plan.root, &mut ops, &mut 0, &mut leaves.iter().peekable(), &select);
    quote_ops(&opts.machine, &ops)
}

/// The fresh full pass over `rows` rows of a column: at the packed width
/// when the pass streams its compressed representation `cc`, at the plain
/// `stride` otherwise.
fn stored(rows: usize, stride: usize, cc: Option<&monet_core::CompressedColumn>) -> Select {
    match cc {
        Some(cc) => Select::packed(rows, cc.bits_per_value()),
        None => Select::plain(rows, stride),
    }
}

/// Append `node`'s operator shapes to `ops`; returns the estimated output
/// cardinality feeding the parent. `leaf` numbers predicate leaves in
/// execution order (the global numbering shared with the engine), and
/// `select` shapes the request of one leaf at its in-order position within
/// its filter.
fn shapes_of<'r, 'p: 'r>(
    node: &PlanNode<'_>,
    ops: &mut Vec<OpShape>,
    leaf: &mut usize,
    leaves: &mut std::iter::Peekable<std::slice::Iter<'r, ScanRequest<'p>>>,
    select: &dyn Fn(&ScanRequest<'_>, usize) -> OpShape,
) -> usize {
    match node {
        PlanNode::Scan { table } => table.len(),
        PlanNode::Filter { input, pred } => {
            let rows = shapes_of(input, ops, leaf, leaves, select);
            let first = *leaf;
            *leaf += leaf_count(pred);
            while let Some(r) = leaves.next_if(|r| r.leaf < *leaf) {
                ops.push(select(r, r.leaf - first));
            }
            (rows / 2).max(1)
        }
        PlanNode::Join { input, right, .. } => {
            let outer = shapes_of(input, ops, leaf, leaves, select);
            let inner = shapes_of(right, ops, leaf, leaves, select);
            ops.push(OpShape::Join { outer, inner });
            // Hit-rate <= 1 against the smaller side.
            outer.min(inner).max(1)
        }
        PlanNode::GroupAgg { input, key, aggs } => {
            let rows = shapes_of(input, ops, leaf, leaves, select);
            let columns = aggs.iter().filter(|a| a.column().is_some()).count();
            // A restricted or joined stream materializes each aggregated
            // column (plus the group key, when grouping) through a
            // positional gather before the accumulation pass; an
            // unrestricted scan borrows in place.
            if !matches!(input.as_ref(), PlanNode::Scan { .. }) {
                for _ in 0..columns + usize::from(key.is_some()) {
                    ops.push(OpShape::Gather { rows });
                }
            }
            ops.push(OpShape::Aggregate { rows, columns, grouped: key.is_some() });
            rows
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use engine::access::{AccessMode, PushdownMode};
    use engine::exec::execute;
    use engine::plan::{Agg, Pred, Query};
    use monet_core::storage::{ColType, DecomposedTable, TableBuilder, Value};

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
            let leaves = scan_requests(&plan, opts.pushdown);
            let quote = |missed: Option<usize>| {
                quote_plan_covered(&opts, &plan, &leaves, &|_| missed).seq_ns
            };
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
        // Admission: the miss leaf has no scan request, so it quotes 0 ns —
        // the plan prices exactly like the plan without that leaf.
        let (miss, bare) = (quote_plan(&machine, &with_miss), quote_plan(&machine, &q(band())));
        assert_eq!(miss.seq_ns, bare.seq_ns);
        assert_eq!((miss.ops, miss.items), (bare.ops, bare.items));
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
            if svc.exec.compress != CompressMode::Off {
                // The cooperative qty pass streamed the packed codes.
                assert!(m.compressed_bytes_streamed > 0, "{m:?}");
                assert!(m.bytes_saved > 0, "{m:?}");
            }
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
        assert_eq!(m.scan_rows_streamed, 50_000, "the leaf streamed the column either way");
        // The resolved policy, not `compress` alone: scan-only access is
        // the uncompressed reference path unless compression is forced.
        let packed = match svc.exec.compress {
            CompressMode::Off => false,
            CompressMode::On => svc.exec.access != AccessMode::Scan,
            CompressMode::Force => true,
        };
        match packed {
            false => {
                assert_eq!(m.compressed_bytes_streamed, 0);
                assert_eq!(m.bytes_saved, 0);
            }
            true => {
                // qty spans 0..50 — a packed representation far below 32
                // bits/value, and no index competes, so auto takes it.
                let cc = t.compressed_of("qty").expect("qty compresses");
                let cb = (50_000f64 * cc.bits_per_value() / 8.0).ceil() as u64;
                assert_eq!(m.compressed_bytes_streamed, cb, "{m:?}");
                assert_eq!(m.bytes_saved, 50_000 * 4 - cb, "4-byte column stride");
                let sm = svc.session_metrics();
                assert_eq!(sm[0].compressed_bytes_streamed, cb);
                assert_eq!(sm[0].bytes_saved, m.bytes_saved);
            }
        }
    }

    #[test]
    fn engine_errors_release_the_lease() {
        let t = item(100);
        let svc = QueryService::new(ServiceConfig::new().with_budget(1));
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
        // The lease came back: the next query is admitted immediately.
        let ok = Query::scan(&t).agg(Agg::count()).build().unwrap();
        let handle = session.run(&ok).expect("lease was released");
        assert!(!handle.sched.queued);
        assert_eq!(svc.metrics().threads_in_use, 0);
        // The failed leader's flight was settled, not stranded: the same
        // bad plan fails again (a stuck flight would hang this call).
        assert!(matches!(session.run(&bad), Err(ServiceError::Engine(_))));
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
