//! **Concurrent query service** (`repro service`) — aggregate throughput
//! and latency of the multi-session service over a sweep of client counts,
//! with the cost-model-budgeted scheduler compared against naive per-query
//! `Threads::Auto` execution (each query sizing itself as if it owned the
//! machine).
//!
//! Closed-loop clients: each drives its own Zipf-skewed
//! [`workload::QueryMix`] stream, waiting for every result before
//! submitting the next query. The run asserts the two concurrency
//! invariants the service guarantees:
//!
//! * every result is **bit-identical** to executing the same plan
//!   sequentially with one thread, at every client count;
//! * the pool-side high-water mark of leased threads never exceeds the
//!   global budget.

use std::time::Instant;

use engine::exec::{execute, ExecOptions, Executed, QueryOutput, Threads};
use memsim::NullTracker;
use monet_core::index::IndexKind;
use monet_core::storage::DecomposedTable;
use service::{QueryService, ServiceConfig, ServiceError};
use workload::{item_table, QueryMix};

use crate::report::{fmt_ms, TextTable};
use crate::runner::{RunOpts, Scale};

/// Run the service throughput/latency experiment.
pub fn run(opts: &RunOpts) {
    // Budget from `--threads`, queue deep enough that the closed-loop
    // clients are never shed.
    let cfg = opts.threads.service_config().with_queue_limit(1024);
    let (n, queries_per_client) = match opts.scale {
        Scale::Quick => (60_000, 5),
        Scale::Default => (300_000, 10),
        Scale::Full => (1_000_000, 16),
    };
    let mut item = item_table(n, opts.seed);
    item.create_index("qty", IndexKind::CsBTree).expect("qty is indexable");
    item.create_index("shipmode", IndexKind::Hash).expect("shipmode is indexable");
    let item = item;
    let supplier = super::query_pipeline::supplier_dim(1_000);
    let client_counts: Vec<usize> = match opts.clients {
        Some(c) => vec![c],
        None => match opts.scale {
            Scale::Quick => vec![1, 4, 8],
            _ => vec![1, 2, 4, 8],
        },
    };

    println!(
        "query service over {n} Item rows x {} supplier rows; budget = {} threads, \
         {queries_per_client} queries/client, seed {}\n",
        supplier.len(),
        cfg.budget,
        opts.seed
    );

    let mut t = TextTable::new(
        "service: budgeted scheduler vs naive per-query Threads::Auto".to_owned(),
        &["clients", "mode", "queries", "wall ms", "q/s", "p50 ms", "p95 ms", "queued", "hi-water"],
    );
    let mut summary: Vec<(usize, f64, f64)> = Vec::new();
    for &clients in &client_counts {
        let budgeted =
            run_budgeted(&item, &supplier, cfg.clone(), clients, queries_per_client, opts.seed);
        let naive = run_naive(&item, &supplier, &cfg, clients, queries_per_client, opts.seed);
        assert!(
            budgeted.outputs.len() == naive.outputs.len()
                && budgeted.outputs.iter().zip(&naive.outputs).all(|(a, b)| {
                    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.bitwise_eq(y))
                }),
            "budgeted and naive execution must be bit-identical"
        );
        verify_sequential(&item, &supplier, clients, queries_per_client, opts.seed, &budgeted);
        for r in [&budgeted, &naive] {
            t.row(vec![
                clients.to_string(),
                r.mode.to_owned(),
                r.outputs.iter().map(Vec::len).sum::<usize>().to_string(),
                fmt_ms(r.wall_ms),
                format!("{:.1}", r.throughput_qps()),
                fmt_ms(r.p50_ms),
                fmt_ms(r.p95_ms),
                r.queued.to_string(),
                r.high_water.map_or("-".to_owned(), |h| h.to_string()),
            ]);
        }
        summary.push((clients, budgeted.throughput_qps(), naive.throughput_qps()));
    }
    super::emit(opts, &t);

    for (clients, budgeted_qps, naive_qps) in &summary {
        let gain = budgeted_qps / naive_qps.max(1e-9);
        println!(
            "{clients} clients: budgeted {budgeted_qps:.1} q/s vs naive {naive_qps:.1} q/s \
             ({gain:.2}x)"
        );
    }
    println!(
        "\nEvery result was bit-identical to a sequential one-thread run, and the \
         scheduler's thread high-water mark never exceeded the budget.\n"
    );
}

struct ModeResult {
    mode: &'static str,
    wall_ms: f64,
    p50_ms: f64,
    p95_ms: f64,
    queued: u64,
    high_water: Option<usize>,
    /// `outputs[client][query]`.
    outputs: Vec<Vec<QueryOutput>>,
}

impl ModeResult {
    fn throughput_qps(&self) -> f64 {
        let total: usize = self.outputs.iter().map(Vec::len).sum();
        total as f64 / (self.wall_ms / 1e3).max(1e-9)
    }
}

/// All clients through one shared [`QueryService`].
fn run_budgeted(
    item: &DecomposedTable,
    supplier: &DecomposedTable,
    cfg: ServiceConfig,
    clients: usize,
    queries: usize,
    seed: u64,
) -> ModeResult {
    let svc = QueryService::new(cfg);
    let started = Instant::now();
    let mut outputs: Vec<Vec<QueryOutput>> = Vec::with_capacity(clients);
    std::thread::scope(|s| {
        let svc = &svc;
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                s.spawn(move || {
                    let session = svc.session();
                    let mut mix = QueryMix::for_client(seed, c);
                    (0..queries)
                        .map(|_| {
                            let spec = mix.next_spec();
                            let plan = spec.build(item, supplier).expect("mix plans validate");
                            match session.run(&plan) {
                                Ok(handle) => handle.into_executed().output,
                                Err(ServiceError::Overloaded { .. }) => {
                                    unreachable!("queue limit exceeds total query count")
                                }
                                Err(e) => panic!("query failed: {e}"),
                            }
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        for h in handles {
            outputs.push(h.join().expect("client thread panicked"));
        }
    });
    let wall_ms = started.elapsed().as_secs_f64() * 1e3;
    let m = svc.metrics();
    assert!(
        m.high_water_threads <= m.budget,
        "budget violated: {} leased of {}",
        m.high_water_threads,
        m.budget
    );
    ModeResult {
        mode: "budgeted",
        wall_ms,
        p50_ms: m.latency.p50_ms,
        p95_ms: m.latency.p95_ms,
        queued: m.queued,
        high_water: Some(m.high_water_threads),
        outputs,
    }
}

/// The baseline the service replaces: every client executes directly with
/// `Threads::Auto`, each query sizing itself as if it owned the machine.
fn run_naive(
    item: &DecomposedTable,
    supplier: &DecomposedTable,
    cfg: &ServiceConfig,
    clients: usize,
    queries: usize,
    seed: u64,
) -> ModeResult {
    let opts = ExecOptions::cost_model(cfg.machine).with_threads(Threads::Auto);
    let started = Instant::now();
    let mut outputs: Vec<Vec<QueryOutput>> = Vec::with_capacity(clients);
    // Summarized as the service summarizes its own: one percentile
    // estimator for both columns of the figure.
    let mut latencies = obs::LogHistogram::new();
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                s.spawn(move || {
                    let mut mix = QueryMix::for_client(seed, c);
                    (0..queries)
                        .map(|_| {
                            let spec = mix.next_spec();
                            let plan = spec.build(item, supplier).expect("mix plans validate");
                            let t0 = Instant::now();
                            let out = execute(&mut NullTracker, &plan, &opts)
                                .expect("mix plans run")
                                .output;
                            (out, t0.elapsed().as_secs_f64() * 1e3)
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        for h in handles {
            let rows = h.join().expect("client thread panicked");
            let (outs, lats): (Vec<_>, Vec<_>) = rows.into_iter().unzip();
            outputs.push(outs);
            lats.into_iter().for_each(|ms| latencies.record(ms));
        }
    });
    let wall_ms = started.elapsed().as_secs_f64() * 1e3;
    let summary = latencies.summary();
    ModeResult {
        mode: "naive auto",
        wall_ms,
        p50_ms: summary.p50,
        p95_ms: summary.p95,
        queued: 0,
        high_water: None,
        outputs,
    }
}

/// The determinism contract at the driver level: replay every client's
/// stream sequentially with one thread and compare bit for bit.
fn verify_sequential(
    item: &DecomposedTable,
    supplier: &DecomposedTable,
    clients: usize,
    queries: usize,
    seed: u64,
    concurrent: &ModeResult,
) {
    let opts = ExecOptions::cost_model(memsim::profiles::origin2000());
    for c in 0..clients {
        let mut mix = QueryMix::for_client(seed, c);
        for q in 0..queries {
            let spec = mix.next_spec();
            let plan = spec.build(item, supplier).expect("mix plans validate");
            let Executed { output, .. } =
                execute(&mut NullTracker, &plan, &opts).expect("mix plans run");
            assert!(
                concurrent.outputs[c][q].bitwise_eq(&output),
                "client {c} query {q} ({}) differed from its sequential run: {:?} vs {output:?}",
                spec.label(),
                concurrent.outputs[c][q]
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke() {
        run(&RunOpts { scale: Scale::Quick, clients: Some(2), ..Default::default() });
    }

    #[test]
    fn smoke_sweep_includes_contention() {
        // A 4-client leg on the quick scale: exercises queueing against
        // the budget (when the host has fewer than 4 spare cores) and the
        // budgeted-vs-naive-vs-sequential identity assertions either way.
        run(&RunOpts { scale: Scale::Quick, clients: Some(4), seed: 7, ..Default::default() });
    }
}
