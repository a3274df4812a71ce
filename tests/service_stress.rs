//! Concurrency stress for the query service: N sessions submit a mixed
//! Zipf query batch concurrently, and every result must be **bit-identical**
//! to running the same plan sequentially with `Threads::Fixed(1)` — the
//! scheduler may change when and how wide a query runs, never what it
//! computes. Also asserts the pool-side budget invariant: the high-water
//! mark of leased threads never exceeds the global budget.
//!
//! The first test runs with cooperative scan merging on and the result
//! cache both off and on — so the determinism contract is exercised
//! *through* both mechanisms. The second test pins them on explicitly, warms the cache with one session's
//! whole stream, and asserts replica sessions hit it while everything
//! (including grouped `f64` sum bits) still replays bit-identically.

use engine::exec::{execute, ExecOptions, Executed, QueryOutput};
use memsim::{profiles, NullTracker};
use monet_core::index::IndexKind;
use monet_core::storage::{ColType, DecomposedTable, TableBuilder, Value};
use service::config::DEFAULT_CACHE_BYTES;
use service::{QueryService, ServiceConfig, ServiceError};
use workload::{item_table, QueryMix};

const SEED: u64 = 20260727;
const SESSIONS: usize = 6;
const QUERIES_PER_SESSION: usize = 8;

fn supplier(n: usize) -> DecomposedTable {
    let mut b =
        TableBuilder::new("supplier", 0).column("id", ColType::I32).column("rating", ColType::F64);
    for i in 1..=n {
        b.push_row(&[Value::I32(i as i32), Value::F64((i % 7) as f64 / 2.0)]).unwrap();
    }
    b.finish()
}

/// Bitwise output equality ([`QueryOutput::bitwise_eq`]): `f64` values must
/// match in representation, not just under `==` (which would conflate 0.0
/// and -0.0 and is not what the determinism contract promises).
fn assert_bit_identical(concurrent: &QueryOutput, sequential: &QueryOutput, context: &str) {
    assert!(
        concurrent.bitwise_eq(sequential),
        "{context}: concurrent {concurrent:?} vs sequential {sequential:?}"
    );
}

/// The tentpole assertion: concurrent mixed-batch execution through the
/// service is deterministic, query by query, against single-thread
/// sequential replays of the same per-client streams — with the result
/// cache off (every repeat re-executes) and on (Zipf-hot repeats hit the
/// fingerprint cache or collapse onto a running duplicate).
#[test]
fn concurrent_sessions_are_bit_identical_to_sequential_single_thread() {
    let mut item = item_table(20_000, SEED);
    item.create_index("qty", IndexKind::CsBTree).unwrap();
    item.create_index("shipmode", IndexKind::Hash).unwrap();
    let item = item;
    let supp = supplier(500);

    // Each client's stream, replayed sequentially, single-threaded.
    let seq_opts = ExecOptions::cost_model(profiles::origin2000())
        .with_threads(engine::exec::Threads::Fixed(1));
    let sequential: Vec<Vec<QueryOutput>> = (0..SESSIONS)
        .map(|c| {
            QueryMix::for_client(SEED, c)
                .take(QUERIES_PER_SESSION)
                .iter()
                .map(|spec| {
                    let plan = spec.build(&item, &supp).unwrap();
                    execute(&mut NullTracker, &plan, &seq_opts).unwrap().output
                })
                .collect()
        })
        .collect();

    for cache_bytes in [0, DEFAULT_CACHE_BYTES] {
        // A deliberately tight budget so sessions contend and queue; the
        // queue is deep enough that nothing is shed (rejection would make
        // the completed set depend on timing).
        let budget = 3;
        let svc = QueryService::new(
            ServiceConfig::new()
                .with_budget(budget)
                .with_queue_limit(SESSIONS * QUERIES_PER_SESSION)
                .with_starvation_bound(2)
                .with_cache_bytes(cache_bytes),
        );

        let mut outputs: Vec<Vec<QueryOutput>> = Vec::with_capacity(SESSIONS);
        let mut leases: Vec<(usize, bool)> = Vec::new();
        std::thread::scope(|s| {
            let svc = &svc;
            let (item, supp) = (&item, &supp);
            let handles: Vec<_> = (0..SESSIONS)
                .map(|c| {
                    s.spawn(move || {
                        let session = svc.session();
                        let mut outs = Vec::with_capacity(QUERIES_PER_SESSION);
                        let mut leases = Vec::with_capacity(QUERIES_PER_SESSION);
                        for spec in QueryMix::for_client(SEED, c).take(QUERIES_PER_SESSION) {
                            let plan = spec.build(item, supp).expect("mix plans validate");
                            match session.run(&plan) {
                                Ok(handle) => {
                                    // Cache hits and collapsed duplicates
                                    // both answer without a lease.
                                    let leaseless = handle.sched.cached || handle.sched.collapsed;
                                    leases.push((handle.sched.threads, leaseless));
                                    outs.push(handle.into_executed().output);
                                }
                                Err(e) => panic!("session {c}: {e}"),
                            }
                        }
                        (outs, leases)
                    })
                })
                .collect();
            for h in handles {
                let (outs, l) = h.join().expect("session thread panicked");
                outputs.push(outs);
                leases.extend(l);
            }
        });

        for (c, (concurrent, sequential)) in outputs.iter().zip(&sequential).enumerate() {
            let specs = QueryMix::for_client(SEED, c).take(QUERIES_PER_SESSION);
            for (q, ((got, want), spec)) in
                concurrent.iter().zip(sequential).zip(&specs).enumerate()
            {
                assert_bit_identical(
                    got,
                    want,
                    &format!("cache {cache_bytes} B: session {c} query {q} ({})", spec.label()),
                );
            }
        }

        // Pool-side invariants.
        let m = svc.metrics();
        assert_eq!(m.completed, (SESSIONS * QUERIES_PER_SESSION) as u64, "every query completed");
        assert_eq!(m.rejected, 0, "the deep queue sheds nothing");
        assert!(
            m.high_water_threads <= budget,
            "thread budget violated: {} leased of {budget}",
            m.high_water_threads
        );
        assert!(m.high_water_threads >= 1);
        // Executed queries lease 1..=budget threads; cache hits and
        // collapsed duplicates lease nothing at all.
        assert!(
            leases.iter().all(|&(t, leaseless)| if leaseless {
                t == 0
            } else {
                (1..=budget).contains(&t)
            }),
            "leases within budget: {leases:?}"
        );
        if cache_bytes == 0 {
            assert_eq!((m.cache_hits, m.collapsed), (0, 0), "nothing to hit or collapse onto");
        }
        assert_eq!(m.latency.count as u64, m.completed);
        // Per-session accounting adds up.
        let sm = svc.session_metrics();
        assert_eq!(sm.len(), SESSIONS);
        assert_eq!(sm.iter().map(|s| s.completed).sum::<u64>(), m.completed);
        assert!(sm.iter().all(|s| s.submitted == QUERIES_PER_SESSION as u64));
        assert_counters_balance(&m, &sm);
    }
}

/// The counter-consistency property: every globally counted saved scan is
/// attributed to exactly one session — either the beneficiary picked the
/// list up (`scans_saved`) or the runner covered it while streaming
/// (`runner_covered`) — and the compressed-byte ledgers balance the same
/// way. Every submission ends answered or rejected (these suites raise no
/// engine error). Holds at any timing and any chunk size.
fn assert_counters_balance(m: &service::ServiceMetrics, sm: &[service::SessionMetrics]) {
    for s in sm {
        assert_eq!(s.submitted, s.completed + s.rejected, "session {}: {s:?}", s.session);
    }
    let by_session: u64 = sm.iter().map(|s| s.scans_saved + s.runner_covered).sum();
    assert_eq!(m.scans_saved, by_session, "saved-scan ledger must balance: {m:?}\n{sm:?}");
    let bytes: u64 = sm.iter().map(|s| s.compressed_bytes_streamed).sum();
    assert_eq!(m.compressed_bytes_streamed, bytes, "compressed-byte ledger: {m:?}\n{sm:?}");
    let saved: u64 = sm.iter().map(|s| s.bytes_saved).sum();
    assert_eq!(m.bytes_saved, saved, "bytes-saved ledger: {m:?}\n{sm:?}");
}

/// Shared scans + result cache under concurrency: one session warms the
/// cache with its whole mixed stream, then six concurrent sessions — two
/// replaying each of three per-client streams, one of them the warmed one
/// — run under a tight budget so misses contend, queue, and merge scans.
/// Every result (grouped `f64` sums included, compared bit for bit) must
/// equal its sequential `Fixed(1)` replay, warmed-stream queries must hit
/// the cache, and the shared-scan counters must stay consistent.
#[test]
fn shared_scans_and_cache_keep_concurrent_batches_bit_identical() {
    let mut item = item_table(20_000, SEED);
    item.create_index("qty", IndexKind::CsBTree).unwrap();
    item.create_index("shipmode", IndexKind::Hash).unwrap();
    let item = item;
    let supp = supplier(500);

    let sessions = 6usize;
    let queries = 8usize;
    let budget = 2;
    let svc = QueryService::new(
        ServiceConfig::new()
            .with_budget(budget)
            .with_queue_limit(sessions * queries + 1)
            .with_starvation_bound(2)
            .with_shared_scans(true)
            .with_cache_bytes(4 << 20),
    );
    // Stream for concurrent session c: per-client mix c % 3, so each
    // stream runs twice.
    let stream = |c: usize| QueryMix::for_client(SEED, c % 3).take(queries);

    // Warm the cache with stream 0, sequentially through the service.
    let warm = svc.session();
    for spec in QueryMix::for_client(SEED, 0).take(queries) {
        let plan = spec.build(&item, &supp).unwrap();
        warm.run(&plan).expect("warmup runs");
    }
    let warmed = svc.metrics();
    assert_eq!(warmed.completed, queries as u64);

    let mut outputs: Vec<Vec<QueryOutput>> = Vec::with_capacity(sessions);
    std::thread::scope(|s| {
        let svc = &svc;
        let (item, supp) = (&item, &supp);
        let stream = &stream;
        let handles: Vec<_> = (0..sessions)
            .map(|c| {
                s.spawn(move || {
                    let session = svc.session();
                    stream(c)
                        .iter()
                        .map(|spec| {
                            let plan = spec.build(item, supp).expect("mix plans validate");
                            session.run(&plan).expect("mix plans run").into_executed().output
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        for h in handles {
            outputs.push(h.join().expect("session thread panicked"));
        }
    });

    // Bit-identity against sequential single-thread replays (grouped f64
    // sums compare by bit pattern via bitwise_eq).
    let seq_opts = ExecOptions::cost_model(profiles::origin2000())
        .with_threads(engine::exec::Threads::Fixed(1));
    for (c, outs) in outputs.iter().enumerate() {
        for (q, (spec, got)) in stream(c).iter().zip(outs).enumerate() {
            let plan = spec.build(&item, &supp).unwrap();
            let Executed { output, .. } = execute(&mut NullTracker, &plan, &seq_opts).unwrap();
            assert_bit_identical(
                got,
                &output,
                &format!("session {c} query {q} ({})", spec.label()),
            );
        }
    }

    let m = svc.metrics();
    let total = (queries * (sessions + 1)) as u64; // warmup + concurrent
    assert_eq!(m.completed, total, "every query answered");
    assert_eq!(m.rejected, 0);
    assert!(m.high_water_threads <= budget);
    // The two sessions replaying the warmed stream hit the cache on every
    // query (their fingerprints were all inserted before they started).
    assert!(m.cache_hits >= 2 * queries as u64, "warmed replicas must hit: {m:?}");
    // Every submission either consulted the cache or collapsed onto a
    // concurrent identical execution before reaching it.
    assert_eq!(m.cache_hits + m.cache_misses + m.collapsed, total, "{m:?}");
    // Shared-scan bookkeeping: a one-shot pass only forms when it covers
    // >= 2 leaves and an elevator charges its one stream against its
    // deliveries, so saved scans keep pace with batches; traffic was
    // streamed.
    assert!(m.scans_saved >= m.shared_scan_batches, "{m:?}");
    assert!(m.scan_rows_streamed > 0, "{m:?}");
    let sm = svc.session_metrics();
    assert_eq!(sm.iter().map(|s| s.completed).sum::<u64>(), total);
    assert_eq!(sm.iter().map(|s| s.cache_hits).sum::<u64>(), m.cache_hits);
    assert_counters_balance(&m, &sm);
}

/// Overload behaviour: a queue limit of zero sheds every query that cannot
/// start immediately, and shed queries never execute.
#[test]
fn zero_queue_sheds_contending_queries_deterministically() {
    let item = item_table(5_000, SEED);
    let supp = supplier(100);
    let svc = QueryService::new(
        ServiceConfig::new().with_budget(1).with_queue_limit(0).with_starvation_bound(1),
    );
    let shed = std::sync::atomic::AtomicU64::new(0);
    std::thread::scope(|s| {
        let (svc, shed) = (&svc, &shed);
        let (item, supp) = (&item, &supp);
        for c in 0..4 {
            s.spawn(move || {
                let session = svc.session();
                let mut mix = QueryMix::for_client(SEED, c);
                for _ in 0..6 {
                    let spec = mix.next_spec();
                    let plan = spec.build(item, supp).unwrap();
                    match session.run(&plan) {
                        Ok(_) => {}
                        Err(ServiceError::Overloaded { queue_limit }) => {
                            assert_eq!(queue_limit, 0);
                            shed.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        }
                        Err(e) => panic!("unexpected error: {e}"),
                    }
                }
            });
        }
    });
    let m = svc.metrics();
    assert_eq!(m.rejected, shed.load(std::sync::atomic::Ordering::Relaxed));
    assert_eq!(m.completed + m.rejected, 24, "every submission either ran or was shed");
    assert_eq!(m.queued, 0, "a zero-length queue never holds anyone");
    assert!(m.high_water_threads <= 1);
}
