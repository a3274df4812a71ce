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
//! the same [`Scheduler`] state machine the query service uses, and the
//! pool-side high-water mark witnesses that the sum of leases never
//! exceeded the budget.
//!
//! Each copy also owns a [`DriftMonitor`]: with [`ShardCluster::with_sim_drift`]
//! on, tasks run under the copy's simulated memory system and every
//! operator's simulated time is compared with its model price, flagging
//! copies whose profile has diverged from reality (the recalibration
//! signal of `obs::drift`, now per placement).

use std::collections::VecDeque;

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

/// A set of sharded tables with replicated, cost-placed shard copies.
///
/// Queries run one at a time (`&mut self`); concurrency is modelled by the
/// deterministic virtual-time ledger while real execution is serialized
/// under the thread-lease budget, so every run is exactly reproducible.
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
    /// policy, execute each under its thread lease, merge. The result is
    /// bit-identical to the unsharded run regardless of policy, replicas,
    /// or budget.
    pub fn run(&mut self, plan: &LogicalPlan<'a>) -> Result<PlacedRun, ServiceError> {
        let lowered = lower(plan, &self.tables)?;
        let arrival = self.clock_ns;

        // Place every task on a copy and advance the virtual ledger. Each
        // (shard plan, candidate copy) is planned and quoted once; the
        // chosen copy's quote is the ledger cost and the lease's priority,
        // and its physical plan is what the task runs.
        let mut placements = Vec::with_capacity(self.shards);
        let mut planned = Vec::with_capacity(self.shards);
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
            planned.push((choice, Some(physical), quote));
        }

        // Real execution under the thread-lease budget: submit every task's
        // quote, run grants as they come, release as tasks finish. A task
        // runs on one thread (the cluster's policy is `Threads::Fixed(1)`),
        // so it leases one.
        let mut run_queue: VecDeque<(usize, Grant)> = VecDeque::new();
        let mut queued: Vec<(u64, usize)> = Vec::new();
        let mut failed = None;
        for (s, (_, _, quote)) in planned.iter().enumerate() {
            match self.sched.submit(quote.seq_ns, 1) {
                Admission::Run(g) => run_queue.push_back((s, g)),
                Admission::Queued(id) => queued.push((id, s)),
                Admission::Rejected => {
                    failed = Some(ServiceError::Overloaded { queue_limit: self.sched.waiting() });
                    break;
                }
            }
        }
        let mut partials: Vec<Option<ShardPartial>> = (0..self.shards).map(|_| None).collect();
        while let Some((s, grant)) = run_queue.pop_front() {
            // Once a task failed, the rest only hand their leases back.
            if failed.is_none() {
                let (copy_idx, physical, _) = &mut planned[s];
                let physical =
                    physical.take().expect("each task runs once").with_thread_cap(grant.threads);
                let copy = &mut self.copies[*copy_idx];
                let partial = if self.sim_drift {
                    let mut trk = SimTracker::new(MemorySystem::new(copy.machine));
                    run_shard(&mut trk, &lowered, s, &physical).inspect(|p| record_drift(copy, p))
                } else {
                    run_shard(&mut NullTracker, &lowered, s, &physical)
                };
                match partial {
                    Ok(p) => partials[s] = Some(p),
                    Err(e) => failed = Some(e.into()),
                }
            }
            self.sched.release(grant.threads);
            while let Some(g) = self.sched.next_grant() {
                let pos = queued
                    .iter()
                    .position(|&(id, _)| id == g.ticket)
                    .expect("grant for a queued task");
                let (_, shard) = queued.remove(pos);
                run_queue.push_back((shard, g));
            }
        }
        if let Some(e) = failed {
            return Err(e);
        }
        debug_assert!(queued.is_empty(), "every task was dispatched");

        let executed = merge(
            &lowered,
            partials.into_iter().map(|p| p.expect("every shard executed")).collect(),
        )?;

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
    use engine::EngineError;
    use monet_core::storage::{ColType, DecomposedTable, TableBuilder, Value};

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

    #[test]
    fn a_failed_run_hands_every_lease_back() {
        let item = skewed_item(2000);
        let mut b = TableBuilder::new("supplier", 0)
            .column("id", ColType::I32)
            .column("rating", ColType::F64);
        for i in 0..40i32 {
            b.push_row(&[Value::I32(i), Value::F64(f64::from(i) / 2.0)]).unwrap();
        }
        let supp = b.finish();
        let si = ShardedTable::partition(&item, "supp", 2).unwrap();
        let ss = ShardedTable::partition(&supp, "id", 2).unwrap();
        let idle = |c: &ShardCluster<'_>| (c.sched.in_use(), c.sched.waiting()) == (0, 0);
        let p = plan(&item);
        let solo = execute(&mut NullTracker, &p, &ExecOptions::default()).unwrap();

        // A budget of one runs the first shard task and queues the second.
        // A hand-built filter over a join result fails — and the next,
        // valid plan still runs, on the leases the failure gave back.
        let cfg = ServiceConfig::new().with_budget(1);
        let mut cluster = ShardCluster::new(vec![&si, &ss], PlacePolicy::CostPlaced, &cfg);
        let joined = Query::scan(&item).join(&supp, ("supp", "id")).build().unwrap();
        let bad = LogicalPlan {
            root: PlanNode::Filter {
                input: Box::new(joined.root),
                pred: Pred::range_i32("qty", 1, 7),
            },
        };
        let unsupported = PlanError::Unsupported("filter over a join result");
        assert!(matches!(
            cluster.run(&bad),
            Err(ServiceError::Engine(EngineError::Plan(e))) if e == unsupported
        ));
        assert!(idle(&cluster));
        assert!(cluster.run(&p).unwrap().executed.output.bitwise_eq(&solo.output));

        // No queue: the second task is shed after the first was granted.
        let cfg = ServiceConfig::new().with_budget(1).with_queue_limit(0);
        let mut cluster = ShardCluster::new(vec![&si], PlacePolicy::CostPlaced, &cfg);
        assert!(matches!(cluster.run(&p), Err(ServiceError::Overloaded { .. })));
        assert!(idle(&cluster), "the first task's grant came back");
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
