//! The untraced run: set-up, oracle, timed rounds, end-to-end metrics.
//!
//! Every workload is a closed loop (`Session::run` / `ShardCluster::run`
//! block until the answer returns). A *round* builds a fresh service or
//! cluster and has each client submit its stream once; the timed window is
//! whole rounds until they add up to `--seconds`, so every window executes
//! the same op mix and every round starts from the same result cache.

use std::collections::HashMap;
use std::sync::Barrier;
use std::time::Instant;

use engine::exec::{execute, QueryOutput};
use engine::plan::LogicalPlan;
use memsim::NullTracker;
use service::{PlacePolicy, PlacedRun, QueryHandle, QueryService, ServiceMetrics, ShardCluster};

use crate::stats::{median, percentile, spread};
use crate::workloads::{
    build_tables, oracle_options, service_config, streams, trace_mode, Op, Params, Tables,
    Workload, REPLICA_LATENCY,
};

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;

/// Each client's ops with the index of the expected answer per op.
pub struct Script {
    pub ops: Vec<Vec<Op>>,
    expect: Vec<Vec<usize>>,
    answers: Vec<QueryOutput>,
}

impl Script {
    /// Compute each distinct op's expected output with the sequential
    /// one-thread reference executor on the unsharded tables.
    pub fn new(ops: Vec<Vec<Op>>, tables: &Tables) -> Self {
        let opts = oracle_options();
        let mut index: HashMap<String, usize> = HashMap::new();
        let mut answers = Vec::new();
        let expect = ops
            .iter()
            .map(|client_ops| {
                client_ops
                    .iter()
                    .map(|op| {
                        *index.entry(op.fingerprint()).or_insert_with(|| {
                            let run = execute(&mut NullTracker, &op.plan(tables), &opts)
                                .expect("oracle executes every generated op");
                            answers.push(run.output);
                            answers.len() - 1
                        })
                    })
                    .collect()
            })
            .collect();
        Self { ops, expect, answers }
    }

    pub fn expected(&self, client: usize, i: usize) -> &QueryOutput {
        &self.answers[self.expect[client][i]]
    }
}

/// What one round measured.
#[derive(Default)]
pub struct Round {
    /// Latency of every op, ms: plan build + blocking run, by the
    /// harness's own clock.
    pub lat_ms: Vec<f64>,
    /// Errors + `Overloaded` rejections + oracle mismatches.
    pub failed: usize,
    /// Wall time of the timed part (service construction to last answer).
    pub wall_s: f64,
    /// The service's own counters over the timed part (none for the
    /// cluster).
    pub metrics: Option<ServiceMetrics>,
    pub high_water: usize,
}

/// One closed-loop client: submit the first `n` ops of its stream, compare
/// each answer with the oracle after the clock stops for that op.
fn drive<'t, E>(
    script: &Script,
    client: usize,
    n: usize,
    tables: &'t Tables,
    mut submit: impl FnMut(&LogicalPlan<'t>) -> Result<Answer, E>,
) -> (Vec<f64>, usize) {
    let mut lat_ms = Vec::with_capacity(n);
    let mut failed = 0;
    for (i, op) in script.ops[client].iter().take(n).enumerate() {
        let t0 = Instant::now();
        let plan = op.plan(tables);
        let answer = submit(&plan);
        lat_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        let ok = answer.is_ok_and(|a| a.get().bitwise_eq(script.expected(client, i)));
        failed += usize::from(!ok);
    }
    (lat_ms, failed)
}

/// An answer from either entry point.
pub enum Answer {
    Handle(QueryHandle),
    Placed(PlacedRun),
}

impl Answer {
    pub fn get(&self) -> &QueryOutput {
        match self {
            Answer::Handle(h) => h.output(),
            Answer::Placed(p) => &p.executed.output,
        }
    }
}

/// The `shard_fanout` cluster: cost-placed, one slower read replica on the
/// hottest Item shard.
pub fn cluster<'a>(p: &Params, tables: &'a Tables) -> ShardCluster<'a> {
    let (item, supplier) = tables.sharded.as_ref().expect("shard_fanout partitions its tables");
    let cfg = service_config(p, trace_mode(p));
    let mut c = ShardCluster::new(vec![item, supplier], PlacePolicy::CostPlaced, &cfg);
    c.add_replica(item.hottest(), REPLICA_LATENCY);
    c
}

/// `after` with the counters the cache pre-fill moves taken back out.
fn since(mut after: ServiceMetrics, before: &ServiceMetrics) -> ServiceMetrics {
    after.submitted -= before.submitted;
    after.cache_hits -= before.cache_hits;
    after.scan_rows_streamed -= before.scan_rows_streamed;
    after.bytes_saved -= before.bytes_saved;
    after
}

/// Run one round: a fresh service (or cluster), each client submitting the
/// first `n` ops of its stream.
pub fn run_round(w: Workload, p: &Params, tables: &Tables, script: &Script, n: usize) -> Round {
    let t0 = Instant::now();
    if w == Workload::ShardFanout {
        let mut c = cluster(p, tables);
        let (lat_ms, failed) = drive(script, 0, n, tables, |plan| c.run(plan).map(Answer::Placed));
        let wall_s = t0.elapsed().as_secs_f64();
        return Round { lat_ms, failed, wall_s, metrics: None, high_water: c.high_water() };
    }
    let svc = QueryService::new(service_config(p, trace_mode(p)));
    let mut round = Round::default();
    let mut t0 = t0;
    if p.cache_bytes > 0 {
        // A long-running service has its Zipf-hot needles cached; a fresh
        // one starts cold. Put the round's distinct needles in the cache
        // before the clock starts, so every round measures the steady state
        // (needles hit, everything else executes) instead of the fill.
        let session = svc.session();
        let mut seen = std::collections::HashSet::new();
        for op in script.ops.iter().flat_map(|ops| ops.iter().take(n)) {
            let needle = matches!(op, Op::Mix(workload::QuerySpec::Needle { .. }));
            if needle && seen.insert(op.fingerprint()) {
                let _ = std::hint::black_box(session.run(&op.plan(tables)));
            }
        }
        t0 = Instant::now();
    }
    let warm = svc.metrics();
    if p.clients == 1 {
        // A lone client runs on the harness's own thread, as in the traced
        // run. From a spawned thread `join_big` measured 18 % slower (p95
        // +40 %): the allocator serves the big per-query buffers of a
        // non-main thread with fresh mappings every time.
        let session = svc.session();
        (round.lat_ms, round.failed) =
            drive(script, 0, n, tables, |plan| session.run(plan).map(Answer::Handle));
    } else {
        let start = Barrier::new(p.clients);
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..p.clients)
                .map(|c| {
                    let (svc, start) = (&svc, &start);
                    s.spawn(move || {
                        let session = svc.session();
                        start.wait();
                        drive(script, c, n, tables, |plan| session.run(plan).map(Answer::Handle))
                    })
                })
                .collect();
            for h in handles {
                let (lat, failed) = h.join().expect("client thread panicked");
                round.lat_ms.extend(lat);
                round.failed += failed;
            }
        });
    }
    round.wall_s = t0.elapsed().as_secs_f64();
    let m = since(svc.metrics(), &warm);
    round.high_water = m.high_water_threads;
    round.metrics = Some(m);
    round
}

/// The end-to-end result of one run.
pub struct RunResult {
    pub setup_s: f64,
    pub qps: f64,
    pub lat_p50_ms: f64,
    pub lat_p95_ms: f64,
    pub peak_rss_mb: f64,
    pub attempted: usize,
    pub failed: usize,
    pub rounds: usize,
    pub window_s: f64,
    /// Range of the rounds' ops/s over their median: the noise inside the
    /// window.
    pub round_qps_spread: f64,
    /// Share of the last round's submissions the result cache answered.
    pub cache_hit_ratio: f64,
}

/// Peak resident set of this process (`VmHWM`), MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

pub fn cache_hit_ratio(m: &ServiceMetrics) -> f64 {
    if m.submitted == 0 {
        0.0
    } else {
        m.cache_hits as f64 / m.submitted as f64
    }
}

/// Set up `SETUPS` times (tables, indexes, compressed columns, partitions,
/// service construction and the warm-up ops — the median is `setup_s`),
/// then time whole rounds until they add up to `seconds`.
pub fn run(w: Workload, p: &Params, seed: u64, seconds: f64) -> RunResult {
    let mut setups = Vec::with_capacity(SETUPS);
    let (mut tables, mut script) = (None, None);
    for _ in 0..SETUPS {
        // Drop the previous tables first so peak memory is one copy.
        drop(tables.take());
        let t0 = Instant::now();
        let (built, _) = build_tables(w, p, seed);
        let built_s = t0.elapsed();
        // The oracle is the harness's cost, not start-up a user pays: the
        // set-up clock is stopped while it runs (once; the tables of every
        // set-up are identical).
        let script = script.get_or_insert_with(|| Script::new(streams(w, p, seed), &built));
        let t1 = Instant::now();
        run_round(w, p, &built, script, p.warmup_ops);
        setups.push((built_s + t1.elapsed()).as_secs_f64());
        tables = Some(built);
    }
    let (tables, script) = (tables.expect("a set-up ran"), script.expect("a set-up ran"));

    // Per round: ops/s, exact p50 and p95. The run reports the best round
    // of each. Interference from the host only ever slows a round down, and
    // on a shared box it comes in bursts that drag a mean, a median or a
    // pooled tail by 10-20 %; the best of 6-25 rounds is what the system
    // does when left alone, and a change to the system moves every round.
    let (mut qps, mut p50, mut p95) = (Vec::new(), Vec::new(), Vec::new());
    let (mut attempted, mut failed, mut window_s, mut last) = (0, 0, 0.0, None);
    while window_s < seconds {
        let mut r = run_round(w, p, &tables, &script, p.round_ops);
        r.lat_ms.sort_by(f64::total_cmp);
        qps.push((r.lat_ms.len() - r.failed) as f64 / r.wall_s);
        p50.push(percentile(&r.lat_ms, 50.0));
        p95.push(percentile(&r.lat_ms, 95.0));
        attempted += r.lat_ms.len();
        failed += r.failed;
        window_s += r.wall_s;
        last = r.metrics;
    }
    let best = |v: &[f64], pick: fn(f64, f64) -> f64| v.iter().copied().reduce(pick).unwrap_or(0.0);
    RunResult {
        setup_s: median(&setups),
        qps: best(&qps, f64::max),
        lat_p50_ms: best(&p50, f64::min),
        lat_p95_ms: best(&p95, f64::min),
        peak_rss_mb: peak_rss_mb(),
        attempted,
        failed,
        rounds: qps.len(),
        window_s,
        round_qps_spread: spread(&qps),
        cache_hit_ratio: last.as_ref().map_or(0.0, cache_hit_ratio),
    }
}
