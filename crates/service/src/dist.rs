//! Cost-placed execution of sharded plans over replicated shard copies.
//!
//! The sharding layer (`engine::dist`) turns one logical plan into `S`
//! independent shard tasks plus a coordinator merge. This module decides
//! **where each task runs**: every shard has one *primary* copy and
//! optionally read *replicas*, and each copy carries its own [`memsim`]
//! latency profile — a replica on remote or contended memory is the same
//! data behind a slower memory hierarchy
//! ([`memsim::profiles::with_latency_scale`]). Because every shard plan is
//! an ordinary [`engine::plan::LogicalPlan`], [`crate::quote_plan`] prices
//! it *per copy*, and the placer routes each task to the copy with the
//! earliest model-predicted completion — steering work around the hot
//! shard's queue instead of blindly alternating ([`PlacePolicy`]).
//!
//! Placement is accounted on a **virtual-time ledger**: each copy keeps a
//! `busy_until` clock advanced by the model quote of every task placed on
//! it, and a query's virtual latency is the slowest of its shard tasks
//! plus the merge. The ledger is deterministic — policy comparisons (the
//! `repro shard` figure) are exact re-runs, not wall-clock races. The
//! *real* execution runs under the service's thread-lease discipline: each
//! task submits its quote to the same [`Scheduler`] state machine the
//! query service uses, and the pool-side high-water mark witnesses that
//! the sum of leases never exceeded the budget.
//!
//! Each copy also owns a [`DriftMonitor`]: with [`ShardCluster::with_sim_drift`]
//! on, tasks run under the copy's simulated memory system and every
//! operator's simulated time is compared with its model price, flagging
//! copies whose profile has diverged from reality (the recalibration
//! signal of `obs::drift`, now per placement).

use std::collections::VecDeque;

use costmodel::quote::{quote_ops, QueryQuote};
use engine::dist::{execute_shard, lower, merge, ShardPartial};
use engine::exec::{ExecOptions, Executed};
use engine::plan::LogicalPlan;
use engine::shared::scan_requests;
use memsim::profiles::with_latency_scale;
use memsim::{MachineConfig, MemorySystem, NullTracker, SimTracker};
use monet_core::shard::ShardedTable;
use obs::{DriftMonitor, DriftReport};

use crate::sched::{Admission, Grant, Scheduler};
use crate::{quote_plan_covered, ServiceConfig, ServiceError};

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
    /// The executor policy on the primary's machine — the
    /// `MONET_ACCESS/COMPRESS/PUSHDOWN` knobs resolved once, so every
    /// placement quote and shard task of this cluster runs under the same
    /// one ([`Self::on`] swaps in a copy's machine).
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
        // (shard plan, candidate copy) is quoted once; the chosen copy's
        // quote is both the ledger cost and the thread-lease request.
        let mut placements = Vec::with_capacity(self.shards);
        let mut quotes = Vec::with_capacity(self.shards);
        let mut slowest_ns = arrival;
        self.rr_cursor = self.rr_cursor.wrapping_add(1);
        for s in 0..self.shards {
            let (choice, quote) = self.place(&lowered.plans[s], s, arrival);
            let copy = &mut self.copies[choice];
            let start = copy.busy_until_ns.max(arrival);
            copy.busy_until_ns = start + quote.seq_ns;
            copy.tasks += 1;
            copy.busy_ns += quote.seq_ns;
            slowest_ns = slowest_ns.max(copy.busy_until_ns);
            placements.push(copy.id);
            quotes.push(quote);
        }

        // Real execution under the thread-lease budget: submit every task's
        // quote, run grants as they come, release as tasks finish.
        let mut run_queue: VecDeque<(usize, Grant)> = VecDeque::new();
        let mut queued: Vec<(u64, usize)> = Vec::new();
        for (s, quote) in quotes.iter().enumerate() {
            let desired = quote.best_threads(&self.exec.machine, self.sched.budget()).threads;
            match self.sched.submit(quote.seq_ns, desired) {
                Admission::Run(g) => run_queue.push_back((s, g)),
                Admission::Queued(id) => queued.push((id, s)),
                Admission::Rejected => {
                    return Err(ServiceError::Overloaded { queue_limit: self.sched.waiting() })
                }
            }
        }
        let mut partials: Vec<Option<ShardPartial>> = (0..self.shards).map(|_| None).collect();
        while let Some((s, grant)) = run_queue.pop_front() {
            let copy_idx = self
                .copies
                .iter()
                .position(|c| c.id == placements[s])
                .expect("placement refers to a copy");
            let opts = self.on(self.copies[copy_idx].machine).with_thread_cap(grant.threads);
            let partial = if self.sim_drift {
                let mut trk = SimTracker::new(MemorySystem::new(self.copies[copy_idx].machine));
                let p = execute_shard(&mut trk, &lowered, s, &opts)?;
                record_drift(&mut self.copies[copy_idx], &p);
                p
            } else {
                execute_shard(&mut NullTracker, &lowered, s, &opts)?
            };
            partials[s] = Some(partial);
            for g in self.sched.release(grant.threads) {
                let pos = queued
                    .iter()
                    .position(|&(id, _)| id == g.ticket)
                    .expect("grant for a queued task");
                let (_, shard) = queued.remove(pos);
                run_queue.push_back((shard, g));
            }
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
    /// and the plan's quote on that copy's machine.
    fn place(&self, plan: &LogicalPlan<'_>, s: usize, arrival: f64) -> (usize, QueryQuote) {
        let leaves = scan_requests(plan, self.exec.pushdown);
        let quote = |i: usize| {
            quote_plan_covered(&self.on(self.copies[i].machine), plan, &leaves, &|_| None)
        };
        let candidates: Vec<usize> = self
            .copies
            .iter()
            .enumerate()
            .filter(|(_, c)| c.id.shard == s)
            .map(|(i, _)| i)
            .collect();
        match self.policy {
            PlacePolicy::RoundRobin => {
                let i = candidates[self.rr_cursor % candidates.len()];
                (i, quote(i))
            }
            PlacePolicy::CostPlaced => {
                let done = |(i, q): &(usize, QueryQuote)| {
                    self.copies[*i].busy_until_ns.max(arrival) + q.seq_ns
                };
                candidates
                    .into_iter()
                    .map(|i| (i, quote(i)))
                    .min_by(|a, b| done(a).total_cmp(&done(b)))
                    .expect("every shard has a primary copy")
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
    use engine::plan::{Agg, Pred, Query};
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
