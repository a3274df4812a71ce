//! **Sharded execution** (`repro shard`) — virtual throughput and tail
//! latency of hash-sharded query execution over a sweep of shard counts,
//! under the Zipf-skewed [`workload::ShardMix`] (one hot shard), with read
//! replicas of the hot shard on vs off and the cost-model placer
//! ([`service::PlacePolicy::CostPlaced`]) against the round-robin baseline.
//!
//! Latencies come from the cluster's deterministic virtual-time ledger
//! (each copy's clock advances by the model quote of every task placed on
//! it), so policy comparisons are exact re-runs rather than wall-clock
//! races. The run asserts the subsystem's contracts:
//!
//! * every merged result is **bit-identical** to the unsharded one-thread
//!   run, at every shard count × policy × replica setting;
//! * with one replica of the hot shard, the cost-placed scheduler beats
//!   the no-replica round-robin baseline on p95 latency;
//! * the pool-side high-water mark of leased threads never exceeds the
//!   global budget, and equals the most shard tasks that ran at once —
//!   every lease held a running task;
//! * under simulated execution, every copy's cost-model drift stays
//!   within the configured band.

use engine::exec::{execute, ExecOptions, QueryOutput};
use memsim::NullTracker;
use monet_core::shard::ShardedTable;
use monet_core::storage::DecomposedTable;
use service::{PlacePolicy, ServiceConfig, ShardCluster};
use workload::{QuerySpec, ShardMix};

use crate::report::{fmt_ms, TextTable};
use crate::runner::{RunOpts, Scale};

/// Run the sharded-execution experiment.
pub fn run(opts: &RunOpts) {
    let cfg = opts.threads.service_config().with_queue_limit(1024);
    let (n, queries, shard_counts, drift_queries) = match opts.scale {
        Scale::Quick => (4_000, 24, vec![1, 2, 4], 3),
        Scale::Default => (20_000, 48, vec![1, 2, 4, 8], 6),
        Scale::Full => (100_000, 96, vec![1, 2, 4, 8, 16], 8),
    };
    let skew = 1.0;
    let mut mix = ShardMix::new(opts.seed, skew);
    let item = mix.item_table(n, opts.seed);
    let supplier = super::query_pipeline::supplier_dim(1_000);
    let specs = mix.take(queries);

    // The unsharded reference: one plan, one thread, no cluster. Every
    // cluster run below must reproduce these outputs bit for bit.
    let solo: Vec<QueryOutput> = specs
        .iter()
        .map(|spec| {
            let plan = spec.build(&item, &supplier).expect("mix plans validate");
            execute(&mut NullTracker, &plan, &ExecOptions::default()).expect("mix plans run").output
        })
        .collect();

    println!(
        "sharded execution over {n} Item rows x {} supplier rows; Zipf skew {skew} on the \
         partition key, {queries} queries, budget = {} threads, seed {}\n",
        supplier.len(),
        cfg.budget,
        opts.seed
    );

    let mut t = TextTable::new(
        "shard: cost-placed vs round-robin over replicated hash shards".to_owned(),
        &[
            "shards", "policy", "replica", "skew", "virt q/s", "p50 ms", "p95 ms", "hi-water",
            "at once",
        ],
    );
    let mut summary: Vec<(usize, f64, f64)> = Vec::new();
    for &s in &shard_counts {
        let is = ShardedTable::partition(&item, "supp", s).expect("supp is shardable");
        let ss = ShardedTable::partition(&supplier, "id", s).expect("id is shardable");
        let data_skew = is.stats().skew;
        let hot = is.hottest();

        let mut p95_of = [0.0f64; 2]; // [rr without replica, cost-placed with]
        for (policy, label, replica) in [
            (PlacePolicy::RoundRobin, "round-robin", false),
            (PlacePolicy::RoundRobin, "round-robin", true),
            (PlacePolicy::CostPlaced, "cost-placed", false),
            (PlacePolicy::CostPlaced, "cost-placed", true),
        ] {
            let r = run_cluster(
                &cfg,
                policy,
                replica.then_some(hot),
                (&item, &is),
                (&supplier, &ss),
                &specs,
                &solo,
            );
            assert!(
                r.high_water <= cfg.budget,
                "thread leases exceeded the budget: {} of {}",
                r.high_water,
                cfg.budget
            );
            assert_eq!(
                r.peak_running, r.high_water,
                "S={s} {label}: the most tasks running at once must equal the leases held"
            );
            if policy == PlacePolicy::RoundRobin && !replica {
                p95_of[0] = r.p95_ms;
            }
            if policy == PlacePolicy::CostPlaced && replica {
                p95_of[1] = r.p95_ms;
            }
            t.row(vec![
                s.to_string(),
                label.to_owned(),
                if replica { format!("shard {hot}") } else { "-".to_owned() },
                format!("{data_skew:.2}"),
                format!("{:.1}", r.virtual_qps),
                fmt_ms(r.p50_ms),
                fmt_ms(r.p95_ms),
                r.high_water.to_string(),
                r.peak_running.to_string(),
            ]);
        }
        assert!(
            p95_of[1] < p95_of[0],
            "S={s}: cost-placed with a hot-shard replica must beat no-replica round-robin \
             on p95 ({} vs {})",
            p95_of[1],
            p95_of[0]
        );
        summary.push((s, p95_of[0], p95_of[1]));
    }
    super::emit(opts, &t);

    for (s, rr, cp) in &summary {
        println!(
            "S={s}: no-replica round-robin p95 {} vs cost-placed + hot replica p95 {} \
             ({:.2}x better)",
            fmt_ms(*rr),
            fmt_ms(*cp),
            rr / cp.max(1e-12)
        );
    }

    // Drift leg: re-run a few queries at the largest shard count under each
    // copy's simulated memory system, so every copy's DriftMonitor compares
    // the simulator against the cost model that placed its tasks.
    let s = *shard_counts.last().expect("at least one shard count");
    let is = ShardedTable::partition(&item, "supp", s).expect("supp is shardable");
    let ss = ShardedTable::partition(&supplier, "id", s).expect("id is shardable");
    let mut cluster =
        ShardCluster::new(vec![&is, &ss], PlacePolicy::CostPlaced, &cfg).with_sim_drift(true);
    cluster.add_replica(is.hottest(), 1.0);
    for spec in specs.iter().take(drift_queries) {
        let plan = spec.build(&item, &supplier).expect("mix plans validate");
        cluster.run(&plan).expect("drift leg runs");
    }
    let mut tracked = 0usize;
    for (id, report) in cluster.drift_reports() {
        tracked += report.rows.len();
        assert!(
            report.flagged().is_empty(),
            "copy {}/{} drifted outside the ±{:.1}x band: {report}",
            id.shard,
            id.replica,
            report.band
        );
    }
    assert!(tracked > 0, "simulated runs must feed the per-copy drift monitors");
    println!(
        "\ndrift: {drift_queries} simulated queries at S={s} fed {tracked} per-copy shape \
         monitors; every ratio stayed within the ±{:.1}x band.",
        cfg.drift_band
    );
    println!(
        "\nEvery merged result was bit-identical to the unsharded one-thread run, and the \
         scheduler's thread high-water mark never exceeded the budget and equalled the most \
         shard tasks that ran at once.\n"
    );
}

struct ClusterResult {
    virtual_qps: f64,
    p50_ms: f64,
    p95_ms: f64,
    high_water: usize,
    peak_running: usize,
}

/// Drive every spec through one cluster configuration, asserting each
/// merged output against its unsharded reference.
fn run_cluster(
    cfg: &ServiceConfig,
    policy: PlacePolicy,
    replica_of: Option<usize>,
    (item, item_shards): (&DecomposedTable, &ShardedTable),
    (supplier, supp_shards): (&DecomposedTable, &ShardedTable),
    specs: &[QuerySpec],
    solo: &[QueryOutput],
) -> ClusterResult {
    let mut cluster = ShardCluster::new(vec![item_shards, supp_shards], policy, cfg);
    if let Some(shard) = replica_of {
        cluster.add_replica(shard, 1.0);
    }
    for (spec, reference) in specs.iter().zip(solo) {
        let plan = spec.build(item, supplier).expect("mix plans validate");
        let run = cluster.run(&plan).expect("cluster accepts the mix");
        assert!(
            run.executed.output.bitwise_eq(reference),
            "{}: sharded result diverged from the unsharded run",
            spec.label()
        );
    }
    // Arrivals are back-to-back at virtual time zero, so the virtual
    // makespan is the busiest copy's ledger and throughput is queries over
    // that span.
    let makespan_ns = cluster.copy_stats().iter().map(|c| c.busy_ns).fold(0.0f64, f64::max);
    ClusterResult {
        virtual_qps: specs.len() as f64 / (makespan_ns / 1e9).max(1e-12),
        p50_ms: cluster.virtual_quantile_ms(0.50),
        p95_ms: cluster.virtual_quantile_ms(0.95),
        high_water: cluster.high_water(),
        peak_running: cluster.peak_running(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke() {
        run(&RunOpts { scale: Scale::Quick, ..Default::default() });
    }
}
