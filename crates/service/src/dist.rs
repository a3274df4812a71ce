//! Cost-placed execution of sharded plans over replicated shard copies.
//!
//! The sharding layer (`engine::dist`) turns one logical plan into `S`
//! independent shard tasks plus a coordinator merge. This module decides
//! **where each task runs**: every shard has one *primary* copy and
//! optionally read *replicas*, and each copy carries its own [`memsim`]
//! latency profile — a replica on remote or contended memory is the same
//! data behind a slower memory hierarchy
//! ([`memsim::profiles::with_latency_scale`]). Because every shard plan is
//! an ordinary [`engine::plan::LogicalPlan`], the placer plans it *per
//! copy* ([`engine::physical::plan`] on the copy's machine), quotes each
//! physical plan, and routes each task to the copy with the earliest
//! model-predicted completion — steering work around the hot shard's queue
//! instead of blindly alternating ([`PlacePolicy`]). The task then runs the
//! physical plan it was placed with.
//!
//! Placement is accounted on a **virtual-time ledger**: each copy keeps a
//! `busy_until` clock advanced by the model quote of every task placed on
//! it, and a query's virtual latency is the slowest of its shard tasks
//! plus the merge. The ledger is deterministic — policy comparisons (the
//! `repro shard` figure) are exact re-runs, not wall-clock races. The
//! *real* execution runs under the service's thread-lease discipline: each
//! task submits its quote, and a request for the one thread it runs on, to
//! the same [`Scheduler`] state machine the query service uses. The
//! initially granted tasks start together, each on the thread it leased —
//! the caller's for the first grant, one scoped worker for each other —
//! and a thread that finishes hands its lease back and runs the task that
//! release dispatched. The pool-side high-water mark witnesses that the
//! sum of leases never exceeded the budget, and
//! [`ShardCluster::peak_running`] that every lease was held by a running
//! task. Outcomes are applied in shard order, so results, drift and errors
//! are the same at every budget.
//!
//! Each copy also owns a [`DriftMonitor`]: with [`ShardCluster::with_sim_drift`]
//! on, tasks run under the copy's simulated memory system and every
//! operator's simulated time is compared with its model price, flagging
//! copies whose profile has diverged from reality (the recalibration
//! signal of `obs::drift`, now per placement).

use std::sync::{Condvar, Mutex, PoisonError};

use costmodel::quote::{quote_ops, QueryQuote};
use engine::dist::{lower, merge, run_shard, ShardPartial};
use engine::exec::{ExecOptions, Executed};
use engine::physical::{self, PhysicalPlan};
use engine::plan::LogicalPlan;
use engine::EngineError;
use memsim::profiles::with_latency_scale;
use memsim::{MachineConfig, MemorySystem, NullTracker, SimTracker};
use monet_core::shard::ShardedTable;
use obs::{DriftMonitor, DriftReport};

use crate::sched::{Admission, Grant, Scheduler};
use crate::{ServiceConfig, ServiceError};

/// How the cluster picks a copy for each shard task.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlacePolicy {
    /// Alternate over a shard's copies in submission order, ignoring cost —
    /// the baseline the cost model has to beat.
    RoundRobin,
    /// Route each task to the copy with the earliest model-predicted
    /// completion: the shard plan is quoted on every copy's machine profile
    /// and queued behind that copy's ledger.
    CostPlaced,
}

/// One placement target: shard `shard`, copy `replica` (0 = primary).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CopyId {
    /// Shard index.
    pub shard: usize,
    /// Replica index within the shard (0 is the primary).
    pub replica: usize,
}

/// Per-copy load statistics from the virtual ledger.
#[derive(Debug, Clone, Copy)]
pub struct CopyStats {
    /// Which copy.
    pub id: CopyId,
    /// Tasks placed on this copy.
    pub tasks: usize,
    /// Total virtual busy time placed on this copy (ns).
    pub busy_ns: f64,
}

struct CopyState {
    id: CopyId,
    machine: MachineConfig,
    busy_until_ns: f64,
    tasks: usize,
    busy_ns: f64,
    drift: DriftMonitor,
}

/// One placed query's outcome.
pub struct PlacedRun {
    /// The merged result — bit-identical to the unsharded run.
    pub executed: Executed,
    /// The copy each shard task ran on, in shard order.
    pub placements: Vec<CopyId>,
    /// The query's virtual latency (slowest shard task + merge), ns.
    pub virtual_ns: f64,
}

/// A test hook run ahead of shard `s`'s task.
#[cfg(test)]
type TaskHook = fn(usize) -> Result<(), EngineError>;

/// A set of sharded tables with replicated, cost-placed shard copies.
///
/// Queries run one at a time (`&mut self`); a query's shard tasks run
/// concurrently, as many at once as the thread budget leases. Latencies
/// come from the deterministic virtual-time ledger, and every outcome is
/// applied in shard order, so a run reports the same at every budget.
pub struct ShardCluster<'a> {
    tables: Vec<&'a ShardedTable>,
    shards: usize,
    copies: Vec<CopyState>,
    policy: PlacePolicy,
    sched: Scheduler,
    /// The executor policy on the primary's machine: the default one
    /// [`crate::quote_plan`] prices under, one thread per operator
    /// ([`Self::on`] swaps in a copy's machine).
    exec: ExecOptions,
    drift_band: f64,
    sim_drift: bool,
    rr_cursor: usize,
    clock_ns: f64,
    latencies_ns: Vec<f64>,
    peak_running: usize,
    /// Runs ahead of each shard task; its error fails the task.
    #[cfg(test)]
    before_task: Option<TaskHook>,
}

impl<'a> ShardCluster<'a> {
    /// A cluster over `tables` (all sharded to the same shard count) with
    /// one primary copy per shard on `cfg.machine`, leasing threads from a
    /// budget of `cfg.budget`.
    ///
    /// # Panics
    ///
    /// Panics if `tables` is empty or the tables disagree on shard count.
    pub fn new(tables: Vec<&'a ShardedTable>, policy: PlacePolicy, cfg: &ServiceConfig) -> Self {
        let shards = tables.first().expect("at least one sharded table").shard_count();
        assert!(
            tables.iter().all(|t| t.shard_count() == shards),
            "all tables must be sharded to the same shard count"
        );
        let copies = (0..shards)
            .map(|s| CopyState {
                id: CopyId { shard: s, replica: 0 },
                machine: cfg.machine,
                busy_until_ns: 0.0,
                tasks: 0,
                busy_ns: 0.0,
                drift: DriftMonitor::new(cfg.drift_band),
            })
            .collect();
        Self {
            tables,
            shards,
            copies,
            policy,
            sched: Scheduler::new(cfg.budget, cfg.queue_limit, cfg.starvation_bound),
            exec: ExecOptions::cost_model(cfg.machine),
            drift_band: cfg.drift_band,
            sim_drift: false,
            rr_cursor: 0,
            clock_ns: 0.0,
            latencies_ns: Vec::new(),
            peak_running: 0,
            #[cfg(test)]
            before_task: None,
        }
    }

    /// Add a read replica of `shard` whose memory-hierarchy latencies are
    /// the primary's scaled by `latency_scale` (1.0 = an identical copy;
    /// >1 models a remote or contended placement).
    pub fn add_replica(&mut self, shard: usize, latency_scale: f64) {
        assert!(shard < self.shards, "no such shard");
        let replica = self.copies.iter().filter(|c| c.id.shard == shard).count();
        self.copies.push(CopyState {
            id: CopyId { shard, replica },
            machine: with_latency_scale(self.exec.machine, latency_scale),
            busy_until_ns: 0.0,
            tasks: 0,
            busy_ns: 0.0,
            drift: DriftMonitor::new(self.drift_band),
        });
    }

    /// Run shard tasks under each copy's simulated memory system and feed
    /// per-copy drift monitors (results stay bit-identical; execution is
    /// slower). Off by default.
    pub fn with_sim_drift(mut self, on: bool) -> Self {
        self.sim_drift = on;
        self
    }

    /// Run one plan across the cluster: lower, place every shard task by
    /// policy, execute the tasks concurrently, each on the one thread it
    /// leased, and merge. The result is bit-identical to the unsharded run
    /// regardless of policy, replicas, or budget; when tasks fail, the
    /// error is the lowest failing shard's.
    ///
    /// # Panics
    ///
    /// A panic in a shard task propagates to the caller once every other
    /// task thread has finished.
    pub fn run(&mut self, plan: &LogicalPlan<'a>) -> Result<PlacedRun, ServiceError> {
        let lowered = lower(plan, &self.tables)?;
        let arrival = self.clock_ns;

        // Place every task on a copy and advance the virtual ledger. Each
        // (shard plan, candidate copy) is planned and quoted once; the
        // chosen copy's quote is the ledger cost and the lease's priority,
        // and its physical plan is what the task runs.
        let mut placements = Vec::with_capacity(self.shards);
        let (mut chosen, mut physicals, mut costs) = (Vec::new(), Vec::new(), Vec::new());
        let mut slowest_ns = arrival;
        self.rr_cursor = self.rr_cursor.wrapping_add(1);
        for s in 0..self.shards {
            let (choice, physical, quote) = self.place(&lowered.plans[s], s, arrival)?;
            let copy = &mut self.copies[choice];
            let start = copy.busy_until_ns.max(arrival);
            copy.busy_until_ns = start + quote.seq_ns;
            copy.tasks += 1;
            copy.busy_ns += quote.seq_ns;
            slowest_ns = slowest_ns.max(copy.busy_until_ns);
            placements.push(copy.id);
            chosen.push(choice);
            physicals.push(physical.with_thread_cap(1));
            costs.push(quote.seq_ns);
        }

        // Real execution under the thread-lease budget. A task runs on one
        // thread (the cluster's policy is `Threads::Fixed(1)`), so it leases
        // one.
        let mut granted: Vec<(usize, Grant)> = Vec::new();
        let mut queued: Vec<(u64, usize)> = Vec::new();
        for (s, &cost) in costs.iter().enumerate() {
            match self.sched.submit(cost, 1) {
                Admission::Run(g) => granted.push((s, g)),
                Admission::Queued(id) => queued.push((id, s)),
                Admission::Rejected => {
                    // Shed: hand every lease back, running nothing.
                    let overloaded = ServiceError::Overloaded { queue_limit: self.sched.waiting() };
                    for (_, g) in granted {
                        self.sched.release(g.threads);
                    }
                    while let Some(g) = self.sched.next_grant() {
                        self.sched.release(g.threads);
                    }
                    return Err(overloaded);
                }
            }
        }

        // Every grant runs on its own thread: the caller's runs the first
        // (so that task's buffers stay in the main malloc arena), one
        // scoped worker each runs the others, and the initially granted
        // tasks start together. A thread that finishes a task hands its
        // lease back and runs the task that release dispatched, or exits
        // when none was. At budget 1 nothing is spawned.
        let sim_drift = self.sim_drift;
        let machines: Vec<MachineConfig> = chosen.iter().map(|&c| self.copies[c].machine).collect();
        #[cfg(test)]
        let before_task = self.before_task;
        let run_task = |s: usize| {
            #[cfg(test)]
            if let Some(hook) = before_task {
                hook(s)?;
            }
            if sim_drift {
                let mut trk = SimTracker::new(MemorySystem::new(machines[s]));
                run_shard(&mut trk, &lowered, s, &physicals[s])
            } else {
                run_shard(&mut NullTracker, &lowered, s, &physicals[s])
            }
        };
        let pool = Mutex::new(Pool {
            sched: &mut self.sched,
            queued,
            running: 0,
            peak: 0,
            gate: granted.len(),
            failed: None,
        });
        let started = Condvar::new();
        let work = |mut task: Option<(usize, Grant)>| {
            let mut done = Vec::new();
            while let Some((s, grant)) = task {
                let mut p = pool.lock().expect("pool lock");
                let go = p.start(s);
                // The gate: wait until every initially granted task has
                // started.
                if p.peak >= p.gate {
                    started.notify_all();
                }
                drop(started.wait_while(p, |p| p.peak < p.gate).expect("pool lock"));
                let result = go.then(|| run_task(s));
                let failed = matches!(result, Some(Err(_)));
                task = pool.lock().expect("pool lock").finish(s, grant, failed);
                done.push((s, result));
            }
            done
        };
        let mut granted = granted.into_iter();
        let first = granted.next();
        let mut done = std::thread::scope(|scope| {
            let _open = OpenOnDrop(&pool, &started);
            let work = &work;
            let workers: Vec<_> = granted.map(|t| scope.spawn(move || work(Some(t)))).collect();
            let mut done = work(first);
            for w in workers {
                done.extend(w.join().unwrap_or_else(|panic| std::panic::resume_unwind(panic)));
            }
            done
        });
        let pool = pool.into_inner().expect("pool lock");
        debug_assert!(pool.queued.is_empty(), "every task was dispatched");
        self.peak_running = self.peak_running.max(pool.peak);

        // Apply the outcomes in shard order, so results, drift and the
        // returned error do not depend on the order tasks finished in.
        done.sort_by_key(|&(s, _)| s);
        let mut partials = Vec::with_capacity(self.shards);
        for (s, result) in done {
            let partial = result.expect("every task up to the first failure ran")?;
            if sim_drift {
                record_drift(&mut self.copies[chosen[s]], &partial);
            }
            partials.push(partial);
        }

        let executed = merge(&lowered, partials)?;

        // The coordinator merge runs after the slowest shard task.
        let merge_ns = executed
            .report
            .ops
            .last()
            .map(|op| quote_ops(&self.exec.machine, &op.shapes).seq_ns)
            .unwrap_or(0.0);
        // Arrivals are back-to-back (the clock does not advance between
        // queries), so contention accumulates on the ledger and the
        // latency distribution reflects queueing behind hot copies.
        let virtual_ns = (slowest_ns - arrival) + merge_ns;
        self.latencies_ns.push(virtual_ns);

        Ok(PlacedRun { executed, placements, virtual_ns })
    }

    /// The cluster's executor policy on `machine`.
    fn on(&self, machine: MachineConfig) -> ExecOptions {
        ExecOptions { machine, ..self.exec }
    }

    /// Pick the copy for shard `s` by policy: an index into `self.copies`,
    /// and the plan's physical plan on that copy's machine with its quote.
    fn place<'p>(
        &self,
        plan: &'p LogicalPlan<'_>,
        s: usize,
        arrival: f64,
    ) -> Result<(usize, PhysicalPlan<'p>, QueryQuote), EngineError> {
        let planned = |i: usize| {
            let physical =
                physical::plan(&mut NullTracker, plan, &self.on(self.copies[i].machine))?;
            let quote = physical.quote(|_| None);
            Ok((i, physical, quote))
        };
        let candidates: Vec<usize> = self
            .copies
            .iter()
            .enumerate()
            .filter(|(_, c)| c.id.shard == s)
            .map(|(i, _)| i)
            .collect();
        match self.policy {
            PlacePolicy::RoundRobin => planned(candidates[self.rr_cursor % candidates.len()]),
            PlacePolicy::CostPlaced => {
                let done = |(i, _, q): &(usize, PhysicalPlan<'_>, QueryQuote)| {
                    self.copies[*i].busy_until_ns.max(arrival) + q.seq_ns
                };
                let planned: Vec<_> =
                    candidates.into_iter().map(planned).collect::<Result<_, _>>()?;
                Ok(planned
                    .into_iter()
                    .min_by(|a, b| done(a).total_cmp(&done(b)))
                    .expect("every shard has a primary copy"))
            }
        }
    }

    /// Virtual query latencies recorded so far, in submission order (ns).
    pub fn latencies_ns(&self) -> &[f64] {
        &self.latencies_ns
    }

    /// The `q`-quantile (0..=1) of recorded virtual latencies, in ms.
    pub fn virtual_quantile_ms(&self, q: f64) -> f64 {
        if self.latencies_ns.is_empty() {
            return 0.0;
        }
        let mut sorted = self.latencies_ns.clone();
        sorted.sort_by(f64::total_cmp);
        let idx = ((sorted.len() - 1) as f64 * q.clamp(0.0, 1.0)).round() as usize;
        sorted[idx] / 1e6
    }

    /// Pool-side witness that the thread budget held across every run.
    pub fn high_water(&self) -> usize {
        self.sched.high_water()
    }

    /// The most shard tasks that ran at once, across every run: each task
    /// counts from the moment its thread starts it until it finishes.
    pub fn peak_running(&self) -> usize {
        self.peak_running
    }

    /// The configured thread budget.
    pub fn budget(&self) -> usize {
        self.sched.budget()
    }

    /// Per-copy load from the virtual ledger.
    pub fn copy_stats(&self) -> Vec<CopyStats> {
        self.copies
            .iter()
            .map(|c| CopyStats { id: c.id, tasks: c.tasks, busy_ns: c.busy_ns })
            .collect()
    }

    /// Per-copy drift reports (empty unless [`Self::with_sim_drift`] is on).
    pub fn drift_reports(&self) -> Vec<(CopyId, DriftReport)> {
        self.copies.iter().map(|c| (c.id, c.drift.report())).collect()
    }
}

/// What a run's task threads share: the lease scheduler, the tasks still
/// queued for a lease, and the tasks running.
struct Pool<'s> {
    sched: &'s mut Scheduler,
    /// `(ticket, shard)` of every task waiting for a lease.
    queued: Vec<(u64, usize)>,
    running: usize,
    peak: usize,
    /// Tasks start once `peak` reaches this: the initially granted count.
    gate: usize,
    /// The lowest shard whose task failed so far.
    failed: Option<usize>,
}

impl Pool<'_> {
    /// Start shard `s`'s task on the calling thread. Returns whether it
    /// must run: a task above a failed shard only holds its lease, since
    /// the run returns the lowest failing shard's error.
    fn start(&mut self, s: usize) -> bool {
        self.running += 1;
        self.peak = self.peak.max(self.running);
        self.failed.is_none_or(|f| s < f)
    }

    /// Finish shard `s`'s task: hand its lease back and take the task the
    /// release dispatched, if any.
    fn finish(&mut self, s: usize, grant: Grant, failed: bool) -> Option<(usize, Grant)> {
        self.running -= 1;
        if failed {
            self.failed = Some(self.failed.map_or(s, |f| f.min(s)));
        }
        self.sched.release(grant.threads);
        let g = self.sched.next_grant()?;
        let pos = self
            .queued
            .iter()
            .position(|&(id, _)| id == g.ticket)
            .expect("grant for a queued task");
        Some((self.queued.remove(pos).1, g))
    }
}

/// Opens a run's start gate when dropped, so a caller that panics while
/// spawning workers does not leave the ones it spawned waiting.
struct OpenOnDrop<'p, 's>(&'p Mutex<Pool<'s>>, &'p Condvar);

impl Drop for OpenOnDrop<'_, '_> {
    fn drop(&mut self) {
        self.0.lock().unwrap_or_else(PoisonError::into_inner).gate = 0;
        self.1.notify_all();
    }
}

/// Compare each operator's simulated time with its model price on the
/// copy's machine and feed the copy's drift monitor
/// ([`DriftMonitor::record_op`]).
fn record_drift(copy: &mut CopyState, partial: &ShardPartial) {
    for op in &partial.report.ops {
        if let Some(counters) = op.counters {
            copy.drift.record_op(&copy.machine, &op.shapes, counters.elapsed_ns());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use engine::exec::execute;
    use engine::plan::{Agg, PlanError, PlanNode, Pred, Query};
    use monet_core::storage::{ColType, DecomposedTable, TableBuilder, Value};
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::time::{Duration, Instant};

    /// An item table whose `supp` keys are heavily skewed so one shard runs
    /// hot (a crude Zipf stand-in: most rows hit supplier 0).
    fn skewed_item(n: usize) -> DecomposedTable {
        let mut b = TableBuilder::new("item", 0)
            .column("supp", ColType::I32)
            .column("qty", ColType::I32)
            .column("price", ColType::F64);
        for i in 0..n {
            let supp = if i % 10 < 7 { 0 } else { (i % 40) as i32 };
            b.push_row(&[
                Value::I32(supp),
                Value::I32((i % 9) as i32),
                Value::F64(i as f64 * 0.31),
            ])
            .unwrap();
        }
        b.finish()
    }

    fn plan(item: &DecomposedTable) -> LogicalPlan<'_> {
        Query::scan(item)
            .filter(Pred::range_i32("qty", 1, 7))
            .agg(Agg::sum("price"))
            .agg(Agg::count())
            .build()
            .unwrap()
    }

    fn cluster_latency(
        policy: PlacePolicy,
        replicate_hot: bool,
        item: &DecomposedTable,
        sharded: &ShardedTable,
        queries: usize,
    ) -> (f64, usize, usize) {
        let cfg = ServiceConfig::new().with_budget(2);
        let mut cluster = ShardCluster::new(vec![sharded], policy, &cfg);
        if replicate_hot {
            cluster.add_replica(sharded.hottest(), 1.0);
        }
        let p = plan(item);
        let solo = execute(&mut NullTracker, &p, &ExecOptions::default()).unwrap();
        for _ in 0..queries {
            let run = cluster.run(&p).unwrap();
            assert!(run.executed.output.bitwise_eq(&solo.output), "placement changed results");
        }
        (cluster.virtual_quantile_ms(0.95), cluster.high_water(), cluster.budget())
    }

    #[test]
    fn cost_placed_replica_beats_no_replica_round_robin_within_budget() {
        let item = skewed_item(6000);
        let sharded = ShardedTable::partition(&item, "supp", 4).unwrap();
        let stats = sharded.stats();
        assert!(stats.skew > 1.5, "workload must produce a hot shard (skew {})", stats.skew);

        // The acceptance comparison: one cost-placed replica of the hot
        // shard vs the no-replica round-robin baseline.
        let (rr_p95, rr_hw, budget) =
            cluster_latency(PlacePolicy::RoundRobin, false, &item, &sharded, 24);
        let (cp_p95, cp_hw, _) =
            cluster_latency(PlacePolicy::CostPlaced, true, &item, &sharded, 24);
        assert!(rr_hw <= budget && cp_hw <= budget, "thread leases stayed within budget");
        assert!(
            cp_p95 < rr_p95,
            "cost-placed replica must beat no-replica round-robin: {cp_p95} vs {rr_p95}"
        );
    }

    #[test]
    fn cost_placed_routes_around_a_slow_replica() {
        let item = skewed_item(3000);
        let sharded = ShardedTable::partition(&item, "supp", 2).unwrap();
        let cfg = ServiceConfig::new().with_budget(2);
        let mut cluster = ShardCluster::new(vec![&sharded], PlacePolicy::CostPlaced, &cfg);
        // A replica 100x slower than the primary: the placer should leave it
        // idle (routing one-off queries to the fast primary every time).
        cluster.add_replica(0, 100.0);
        let p = plan(&item);
        for _ in 0..4 {
            cluster.run(&p).unwrap();
        }
        let stats = cluster.copy_stats();
        let slow = stats.iter().find(|c| c.id == CopyId { shard: 0, replica: 1 }).unwrap();
        let fast = stats.iter().find(|c| c.id == CopyId { shard: 0, replica: 0 }).unwrap();
        assert!(
            fast.tasks > slow.tasks,
            "placer must prefer the fast copy ({} vs {})",
            fast.tasks,
            slow.tasks
        );
    }

    fn supplier(n: i32) -> DecomposedTable {
        let mut b = TableBuilder::new("supplier", 0)
            .column("id", ColType::I32)
            .column("rating", ColType::F64);
        for i in 0..n {
            b.push_row(&[Value::I32(i), Value::F64(f64::from(i) / 2.0)]).unwrap();
        }
        b.finish()
    }

    /// An injected task failure that names its shard.
    fn injected(s: usize) -> EngineError {
        EngineError::Plan(PlanError::UnknownColumn {
            column: format!("shard {s}"),
            searched: vec![],
        })
    }

    #[test]
    fn a_failed_run_hands_every_lease_back() {
        let item = skewed_item(2000);
        let supp = supplier(40);
        let si = ShardedTable::partition(&item, "supp", 2).unwrap();
        let ss = ShardedTable::partition(&supp, "id", 2).unwrap();
        let si4 = ShardedTable::partition(&item, "supp", 4).unwrap();
        let idle = |c: &ShardCluster<'_>| (c.sched.in_use(), c.sched.waiting()) == (0, 0);
        let p = plan(&item);
        let solo = execute(&mut NullTracker, &p, &ExecOptions::default()).unwrap();
        let joined = Query::scan(&item).join(&supp, ("supp", "id")).build().unwrap();
        let bad = LogicalPlan {
            root: PlanNode::Filter {
                input: Box::new(joined.root),
                pred: Pred::range_i32("qty", 1, 7),
            },
        };
        let unsupported = PlanError::Unsupported("filter over a join result");
        // Shards 1 and 3 fail, lower first or (on two threads) higher first:
        // shard 1's failure waits until shard 3 has failed.
        static SHARD_3_FAILED: AtomicBool = AtomicBool::new(false);
        fn low_first(s: usize) -> Result<(), EngineError> {
            match s {
                1 | 3 => Err(injected(s)),
                _ => Ok(()),
            }
        }
        fn high_first(s: usize) -> Result<(), EngineError> {
            if s == 1 {
                let deadline = Instant::now() + Duration::from_secs(10);
                while !SHARD_3_FAILED.load(Ordering::SeqCst) {
                    assert!(Instant::now() < deadline, "shard 3 never ran beside shard 1");
                    std::thread::yield_now();
                }
            } else if s == 3 {
                SHARD_3_FAILED.store(true, Ordering::SeqCst);
            }
            low_first(s)
        }

        for budget in [1, 2] {
            // A hand-built filter over a join fails — and the next, valid
            // plan still runs, on the leases the failure gave back.
            let cfg = ServiceConfig::new().with_budget(budget);
            let mut cluster = ShardCluster::new(vec![&si, &ss], PlacePolicy::CostPlaced, &cfg);
            assert!(matches!(
                cluster.run(&bad),
                Err(ServiceError::Engine(EngineError::Plan(e))) if e == unsupported
            ));
            assert!(idle(&cluster));
            assert!(cluster.run(&p).unwrap().executed.output.bitwise_eq(&solo.output));

            // Tasks that fail while others run: the lowest failing shard's
            // error comes back, whichever finished first, with every lease.
            let mut cluster = ShardCluster::new(vec![&si4], PlacePolicy::CostPlaced, &cfg);
            let hooks: &[TaskHook] =
                if budget == 1 { &[low_first] } else { &[low_first, high_first] };
            for &hook in hooks {
                SHARD_3_FAILED.store(false, Ordering::SeqCst);
                cluster.before_task = Some(hook);
                match cluster.run(&p) {
                    Err(ServiceError::Engine(e)) => assert_eq!(e, injected(1), "budget {budget}"),
                    other => {
                        panic!("budget {budget}: expected shard 1's error, got {:?}", other.err())
                    }
                }
                assert!(idle(&cluster), "budget {budget}: a lease was kept");
                cluster.before_task = None;
                assert!(cluster.run(&p).unwrap().executed.output.bitwise_eq(&solo.output));
            }

            // No queue: the task after the budget's grants is shed, and
            // the granted tasks hand their leases back.
            let cfg = cfg.with_queue_limit(0);
            let mut cluster = ShardCluster::new(vec![&si4], PlacePolicy::CostPlaced, &cfg);
            assert!(matches!(cluster.run(&p), Err(ServiceError::Overloaded { .. })));
            assert!(idle(&cluster), "budget {budget}: the granted tasks' leases came back");
        }
    }

    #[test]
    fn the_most_tasks_running_at_once_equal_the_leases_held() {
        let item = skewed_item(4000);
        let sharded = ShardedTable::partition(&item, "supp", 4).unwrap();
        let p = plan(&item);
        for budget in [1, 2, 3] {
            let cfg = ServiceConfig::new().with_budget(budget);
            let mut cluster = ShardCluster::new(vec![&sharded], PlacePolicy::CostPlaced, &cfg);
            for _ in 0..3 {
                cluster.run(&p).unwrap();
            }
            assert_eq!(cluster.high_water(), budget, "budget {budget}");
            assert_eq!(cluster.peak_running(), cluster.high_water(), "budget {budget}");
        }
    }

    #[test]
    fn runs_report_the_same_at_every_budget() {
        let item = skewed_item(3000);
        let supp = supplier(40);
        let si = ShardedTable::partition(&item, "supp", 4).unwrap();
        let ss = ShardedTable::partition(&supp, "id", 4).unwrap();
        let plans = [
            plan(&item),
            Query::scan(&item).filter(Pred::range_i32("qty", 2, 5)).build().unwrap(),
            Query::scan(&item)
                .join(&supp, ("supp", "id"))
                .agg(Agg::sum("rating"))
                .agg(Agg::count())
                .build()
                .unwrap(),
            Query::scan(&item).join(&supp, ("supp", "id")).build().unwrap(),
        ];
        let solo: Vec<_> = plans
            .iter()
            .map(|p| execute(&mut NullTracker, p, &ExecOptions::default()).unwrap().output)
            .collect();
        for policy in [PlacePolicy::RoundRobin, PlacePolicy::CostPlaced] {
            for sim_drift in [false, true] {
                let mut first: Option<String> = None;
                for budget in 1..=4 {
                    let cfg = ServiceConfig::new().with_budget(budget);
                    let mut cluster =
                        ShardCluster::new(vec![&si, &ss], policy, &cfg).with_sim_drift(sim_drift);
                    cluster.add_replica(si.hottest(), 1.5);
                    for _ in 0..2 {
                        for (p, want) in plans.iter().zip(&solo) {
                            let run = cluster.run(p).unwrap();
                            assert!(
                                run.executed.output.bitwise_eq(want),
                                "{policy:?} sim_drift={sim_drift} budget {budget}: result changed"
                            );
                        }
                    }
                    // A drift row's simulated time moves with the heap
                    // addresses the simulator is fed, even between two runs
                    // at one budget (ROADMAP item 1); which samples were
                    // recorded, in which order, at which model price is
                    // what a run decides.
                    let drift: Vec<_> = cluster
                        .drift_reports()
                        .into_iter()
                        .map(|(id, r)| {
                            let rows: Vec<_> = r
                                .rows
                                .iter()
                                .map(|row| (row.kind, row.drift.samples, row.drift.model_ns))
                                .collect();
                            (id, r.band, rows)
                        })
                        .collect();
                    let record = format!(
                        "{drift:?}\n{:?}\n{:?}",
                        cluster.copy_stats(),
                        cluster.latencies_ns()
                    );
                    match &first {
                        None => first = Some(record),
                        Some(at_1) => assert_eq!(
                            at_1, &record,
                            "{policy:?} sim_drift={sim_drift}: budget {budget} reports differently"
                        ),
                    }
                }
            }
        }
    }

    #[test]
    fn sim_drift_populates_per_copy_monitors() {
        let item = skewed_item(2000);
        let sharded = ShardedTable::partition(&item, "supp", 2).unwrap();
        let cfg = ServiceConfig::new().with_budget(4);
        let mut cluster =
            ShardCluster::new(vec![&sharded], PlacePolicy::CostPlaced, &cfg).with_sim_drift(true);
        let p = plan(&item);
        cluster.run(&p).unwrap();
        let reports = cluster.drift_reports();
        assert_eq!(reports.len(), 2);
        assert!(
            reports.iter().any(|(_, r)| !r.rows.is_empty()),
            "simulated runs must feed the drift monitors"
        );
    }
}
