//! The traced run: per-layer metrics from spans around every call into a
//! layer, over a prefix of client 0's op stream on one harness thread.
//!
//! The end-to-end numbers come from the untraced run (`run.rs`); this run
//! pays for spans, direct re-issued kernel calls and the memory simulator,
//! and reports what that costs as `bench.trace_overhead`.

use std::collections::HashMap;
use std::time::Instant;

use costmodel::access::AccessPath;
use costmodel::plan::plan_join;
use engine::candidates::{intersect, union};
use engine::dist::{execute_shard, lower, merge};
use engine::exec::{execute, AccessNote, ExecReport, OpReport, Threads};
use engine::join::buns_of;
use engine::plan::{LogicalPlan, PlanNode, Pred};
use engine::reconstruct::reconstruct;
use engine::AccessDecision;
use memsim::{EventCounters, NullTracker, SimTracker};
use monet_core::compress::{multi_select_compressed, multi_select_compressed_cands};
use monet_core::index::{key_range_i32, IndexKind};
use monet_core::join::{
    join_clustered, radix_cluster, radix_join_clustered, simple_hash_join, sort_merge_join, FibHash,
};
use monet_core::scan::{multi_select, multi_select_cands, ScanPred};
use monet_core::storage::{DecomposedTable, Oid};
use monet_core::strategy::Algorithm;
use obs::validate_lifecycle;
use service::{quote_plan, QueryService, ServiceError, ServiceMetrics, TraceMode};

use crate::run::{cache_hit_ratio, cluster, run_round, Answer, Script};
use crate::spans::Recorder;
use crate::stats::{median, spread};
use crate::workloads::{
    build_tables, exec_options, service_config, streams, trace_mode, Params, Tables, Workload,
    SHARDS,
};

/// Rounds of the untraced service pass whose `ServiceMetrics` are reported
/// as a median: with two clients those counters vary run to run.
const COUNTER_ROUNDS: usize = 3;

/// Every per-layer metric with its unit, in the order it is printed. Each
/// traced run prints all of them; one that does not apply to the workload
/// (partitioning outside `shard_fanout`, join kernels on `scan_cold`) is 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("workload.gen_s", "s"),
    ("core.index_build_s", "s"),
    ("core.compress_build_s", "s"),
    ("core.partition_s", "s"),
    ("core.stored_bytes_ratio", "ratio"),
    ("core.scan_ms", "ms"),
    ("core.scan_ns_per_row", "ns"),
    ("core.packed_scan_ms", "ms"),
    ("core.packed_ns_per_row", "ns"),
    ("core.packed_bits_per_value", "bits"),
    ("core.cand_scan_ms", "ms"),
    ("core.cand_ns_per_cand", "ns"),
    ("core.index_probe_ms", "ms"),
    ("core.index_ns_per_match", "ns"),
    ("core.join_cluster_ms", "ms"),
    ("core.join_probe_ms", "ms"),
    ("core.join_ns_per_tuple", "ns"),
    ("costmodel.quote_us", "us"),
    ("costmodel.plan_join_us", "us"),
    ("costmodel.quote_ms", "ms"),
    ("costmodel.quote_over_sim", "ratio"),
    ("engine.plan_us", "us"),
    ("engine.exec_ms", "ms"),
    ("engine.self_ms", "ms"),
    ("engine.rows_in", "count"),
    ("engine.rows_out", "count"),
    ("engine.leaves_scan", "count"),
    ("engine.leaves_packed", "count"),
    ("engine.leaves_index", "count"),
    ("engine.leaves_pushdown", "count"),
    ("engine.lower_ms", "ms"),
    ("engine.shard_exec_ms", "ms"),
    ("engine.merge_ms", "ms"),
    ("service.run_ms", "ms"),
    ("service.overhead_ms", "ms"),
    ("service.queue_ms", "ms"),
    ("service.place_ms", "ms"),
    ("service.lat_p99_ms", "ms"),
    ("service.cache_hit_ratio", "ratio"),
    ("service.cache_evictions", "count"),
    ("service.collapsed", "count"),
    ("service.queued", "count"),
    ("service.rejected", "count"),
    ("service.scans_saved", "count"),
    ("service.scan_share_ratio", "ratio"),
    ("service.elevator_attaches", "count"),
    ("service.preemptions", "count"),
    ("service.bytes_saved", "bytes"),
    ("service.high_water_threads", "count"),
    ("memsim.sim_ms", "ms"),
    ("memsim.cpu_ms", "ms"),
    ("memsim.stall_ms", "ms"),
    ("memsim.l1_misses", "count"),
    ("memsim.l2_misses", "count"),
    ("memsim.tlb_misses", "count"),
    ("memsim.accesses", "count"),
    ("memsim.host_ms", "ms"),
    ("memsim.accesses_per_host_s", "1/s"),
    ("obs.traces", "count"),
    ("obs.events", "count"),
    ("obs.dropped", "count"),
    ("obs.dfa_violations", "count"),
    ("obs.drift_max_ratio", "ratio"),
    ("obs.trace_on_over_off", "ratio"),
    ("bench.trace_overhead", "ratio"),
    ("bench.spans", "count"),
    ("bench.fail_ratio", "ratio"),
];

/// One reported per-layer value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    /// Calls, ops or rounds the value was taken over.
    pub samples: usize,
    /// Range over the median, for values reported as a median of rounds.
    pub spread: Option<f64>,
}

pub struct TraceResult {
    pub metrics: Vec<Metric>,
    pub attempted: usize,
    pub failed: usize,
    pub recorder: Recorder,
}

/// Values by metric name; anything never set reports as 0.
#[derive(Default)]
struct Sheet(HashMap<&'static str, (f64, usize, Option<f64>)>);

impl Sheet {
    fn set(&mut self, name: &'static str, value: f64, samples: usize) {
        debug_assert!(PER_LAYER.iter().any(|(n, _)| *n == name), "{name} is not declared");
        // `+ 0.0` turns the -0.0 an empty sum yields into 0.0.
        self.0.insert(name, (if value.is_finite() { value + 0.0 } else { 0.0 }, samples, None));
    }

    /// Median over rounds, with the range as a share of it.
    fn set_rounds(&mut self, name: &'static str, values: &[f64]) {
        self.set(name, median(values), values.len());
        if let Some(e) = self.0.get_mut(name) {
            e.2 = Some(spread(values));
        }
    }

    fn into_metrics(self) -> Vec<Metric> {
        PER_LAYER
            .iter()
            .map(|&(name, unit)| {
                let (value, samples, spread) = self.0.get(name).copied().unwrap_or((0.0, 0, None));
                Metric { name, value, unit, samples, spread }
            })
            .collect()
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Exact work counts of the direct executions and the re-issued kernels.
#[derive(Default)]
struct Counts {
    rows_in: usize,
    rows_out: usize,
    leaves_scan: usize,
    leaves_packed: usize,
    leaves_index: usize,
    leaves_pushdown: usize,
    scan_rows: usize,
    packed_rows: usize,
    /// Σ stored bits per value × rows, over packed leaves.
    packed_bits: f64,
    cands: usize,
    index_matches: usize,
    join_tuples: usize,
}

impl Counts {
    fn add_report(&mut self, report: &ExecReport) {
        for op in &report.ops {
            self.rows_in += op.rows_in;
            self.rows_out += op.rows_out;
            for d in &op.access {
                match d.path {
                    AccessPath::Scan => self.leaves_scan += 1,
                    AccessPath::PackedScan => self.leaves_packed += 1,
                    _ => self.leaves_index += 1,
                }
                self.leaves_pushdown += usize::from(d.cands_in.is_some());
            }
        }
    }
}

/// Run `body` with a submit function for the workload's entry point — a
/// session of a fresh `QueryService`, or a fresh `ShardCluster` — and hand
/// back the service for its counters.
fn through<'a, R>(
    w: Workload,
    p: &Params,
    tables: &'a Tables,
    trace: TraceMode,
    body: impl FnOnce(&mut dyn FnMut(&LogicalPlan<'a>) -> Result<Answer, ServiceError>) -> R,
) -> (R, Option<QueryService>) {
    if w == Workload::ShardFanout {
        let mut c = cluster(p, tables);
        return (body(&mut |plan| c.run(plan).map(Answer::Placed)), None);
    }
    let svc = QueryService::new(service_config(p, trace));
    let out = {
        let session = svc.session();
        body(&mut |plan| session.run(plan).map(Answer::Handle))
    };
    (out, Some(svc))
}

/// The kernel-form predicate of a leaf; `None` when the string constant is
/// not in the dictionary (provably empty, nothing executes).
fn scan_pred<'p>(table: &DecomposedTable, leaf: &'p Pred) -> Option<(&'p str, ScanPred)> {
    match leaf {
        Pred::RangeI32 { col, lo, hi } => Some((col, ScanPred::RangeI32 { lo: *lo, hi: *hi })),
        Pred::RangeF64 { col, lo, hi } => Some((col, ScanPred::RangeF64 { lo: *lo, hi: *hi })),
        Pred::EqStr { col, value } => {
            let dict = &table.bat(col).ok()?.tail().as_str_col()?.dict;
            Some((col, ScanPred::EqCode { code: dict.code_of(value)? }))
        }
        Pred::And(..) | Pred::Or(..) => unreachable!("leaves only"),
    }
}

fn collect_leaves<'p>(pred: &'p Pred, out: &mut Vec<&'p Pred>) {
    match pred {
        Pred::And(a, b) | Pred::Or(a, b) => {
            collect_leaves(a, out);
            collect_leaves(b, out);
        }
        leaf => out.push(leaf),
    }
}

/// Rows flowing out of a plan node during replay.
enum Rows<'a> {
    Table { table: &'a DecomposedTable, cands: Option<Vec<Oid>> },
    Other,
}

/// Re-issues, as direct calls under their own spans, the kernels one
/// `engine::execute` ran: the call per leaf is chosen from the structured
/// `ExecReport.ops[*].access[*].{path, cands_in}` and the pushdown order
/// note, never from `detail` text. Always the sequential kernels, so where
/// the engine fanned out (budget 2) the parts need not sum to the whole.
struct Replay<'r> {
    rec: &'r mut Recorder,
    op_id: u32,
    /// The `engine.exec` span the re-issued calls are children of.
    parent: u32,
    n: &'r mut Counts,
}

impl<'a> Replay<'_> {
    fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.rec.time(self.op_id, name, Some(self.parent), f)
    }

    /// Walk the plan in execution order, consuming one report op per node.
    fn node(&mut self, node: &PlanNode<'a>, ops: &mut std::slice::Iter<'_, OpReport>) -> Rows<'a> {
        match node {
            PlanNode::Scan { table } => {
                ops.next();
                Rows::Table { table, cands: None }
            }
            PlanNode::Filter { input, pred } => {
                let upstream = self.node(input, ops);
                let op = ops.next().expect("one report op per plan node");
                let Rows::Table { table, cands } = upstream else { return Rows::Other };
                let selected = self.filter(table, pred, op);
                let merged = match cands {
                    Some(prior) => intersect(&prior, &selected),
                    None => selected,
                };
                Rows::Table { table, cands: Some(merged) }
            }
            PlanNode::Join { input, right, left_col, right_col } => {
                let l = self.node(input, ops);
                let r = self.node(right, ops);
                ops.next();
                if let (
                    Rows::Table { table: lt, cands: lc },
                    Rows::Table { table: rt, cands: rc },
                ) = (l, r)
                {
                    self.join((lt, left_col, lc), (rt, right_col, rc));
                }
                Rows::Other
            }
            PlanNode::GroupAgg { input, .. } => {
                self.node(input, ops);
                ops.next();
                Rows::Other
            }
        }
    }

    fn filter(&mut self, table: &DecomposedTable, pred: &Pred, op: &OpReport) -> Vec<Oid> {
        let order = op.notes.iter().find_map(|n| match n {
            AccessNote::Pushdown { order, .. } => Some(order),
            AccessNote::SharedLeaves { .. } => None,
        });
        let Some(order) = order else {
            return self.tree(table, pred, &op.access, &mut 0);
        };
        // Pushdown: the first leaf in the planner's order runs full, each
        // later one only over the survivors so far.
        let mut leaves = Vec::new();
        collect_leaves(pred, &mut leaves);
        let mut running: Option<Vec<Oid>> = None;
        for &i in order {
            running = Some(match running {
                None => self.leaf(table, leaves[i], &op.access[i], None),
                Some(cur) if cur.is_empty() => return cur,
                Some(cur) => self.leaf(table, leaves[i], &op.access[i], Some(&cur)),
            });
        }
        running.unwrap_or_default()
    }

    /// In-order evaluation with full-column leaves (no pushdown order).
    fn tree(
        &mut self,
        table: &DecomposedTable,
        pred: &Pred,
        access: &[AccessDecision],
        cursor: &mut usize,
    ) -> Vec<Oid> {
        match pred {
            Pred::And(a, b) => {
                let ca = self.tree(table, a, access, cursor);
                if ca.is_empty() {
                    let mut skipped = Vec::new();
                    collect_leaves(b, &mut skipped);
                    *cursor += skipped.len();
                    return ca;
                }
                let cb = self.tree(table, b, access, cursor);
                intersect(&ca, &cb)
            }
            Pred::Or(a, b) => {
                let ca = self.tree(table, a, access, cursor);
                let cb = self.tree(table, b, access, cursor);
                union(&ca, &cb)
            }
            leaf => {
                *cursor += 1;
                self.leaf(table, leaf, &access[*cursor - 1], None)
            }
        }
    }

    fn leaf(
        &mut self,
        table: &DecomposedTable,
        leaf: &Pred,
        d: &AccessDecision,
        cands: Option<&[Oid]>,
    ) -> Vec<Oid> {
        let Some((col, pred)) = scan_pred(table, leaf) else { return Vec::new() };
        let bat = table.bat(col).expect("validated plan");
        let trk = &mut NullTracker;
        let mut lists = match (d.path, cands) {
            (AccessPath::Scan, None) => {
                self.n.scan_rows += bat.len();
                self.time("core.scan", || multi_select(trk, bat, &[pred]))
            }
            (AccessPath::Scan, Some(c)) => {
                self.n.cands += c.len();
                self.time("core.cand_scan", || multi_select_cands(trk, bat, &[pred], c))
            }
            (AccessPath::PackedScan, cands) => {
                let cc = table.compressed_of(col).expect("packed leaf has a compressed column");
                let base = table.seqbase();
                match cands {
                    None => {
                        self.n.packed_rows += cc.len();
                        self.n.packed_bits += d.packed_bits * cc.len() as f64;
                        self.time("core.packed_scan", || {
                            multi_select_compressed(trk, cc, base, &[pred])
                        })
                    }
                    Some(c) => {
                        self.n.cands += c.len();
                        self.time("core.cand_scan", || {
                            multi_select_compressed_cands(trk, cc, base, &[pred], c)
                        })
                    }
                }
            }
            (path, cands) => return self.probe(table, col, pred, path, cands),
        }
        .expect("leaf type was validated by the plan");
        lists.remove(0)
    }

    fn probe(
        &mut self,
        table: &DecomposedTable,
        col: &str,
        pred: ScanPred,
        path: AccessPath,
        cands: Option<&[Oid]>,
    ) -> Vec<Oid> {
        let (lo, hi) = match pred {
            ScanPred::RangeI32 { lo, hi } => key_range_i32(lo, hi),
            ScanPred::EqCode { code } => (code, code),
            ScanPred::RangeF64 { .. } => unreachable!("F64 columns are not indexable"),
        };
        let kind = match path {
            AccessPath::HashEq => IndexKind::Hash,
            AccessPath::TTreeEq => IndexKind::TTree,
            _ => IndexKind::CsBTree,
        };
        let idx = table.index_of(col, kind).expect("planned index leaf has its index");
        let trk = &mut NullTracker;
        let mut out = Vec::new();
        self.time("core.index_probe", || match (kind, cands) {
            (IndexKind::CsBTree, None) => {
                idx.lookup_range(trk, lo, hi, |o| out.push(o));
            }
            (IndexKind::CsBTree, Some(c)) => {
                idx.lookup_range_cands(trk, lo, hi, c, |o| out.push(o));
            }
            (_, None) => idx.lookup_eq(trk, lo, |o| out.push(o)),
            (_, Some(c)) => idx.lookup_eq_cands(trk, lo, c, |o| out.push(o)),
        });
        self.n.index_matches += out.len();
        // Back to scan order, as the engine does after every probe.
        out.sort_unstable();
        out
    }

    /// Cluster both inputs, then join the clusters, with the algorithm,
    /// bits and passes `plan_join` picks for this inner cardinality.
    fn join(
        &mut self,
        (lt, left_col, lc): (&DecomposedTable, &str, Option<Vec<Oid>>),
        (rt, right_col, rc): (&DecomposedTable, &str, Option<Vec<Oid>>),
    ) {
        let buns = |t: &DecomposedTable, col: &str, cands: Option<Vec<Oid>>| {
            let bat = t.bat(col).expect("validated plan");
            match cands {
                Some(c) => buns_of(&reconstruct(&mut NullTracker, bat, &c).expect("key gather")),
                None => buns_of(bat),
            }
            .expect("join keys are I32")
        };
        let (l, r) = (buns(lt, left_col, lc), buns(rt, right_col, rc));
        self.n.join_tuples += l.len() + r.len();
        let machine = memsim::profiles::origin2000();
        let (jp, _) = self.time("costmodel.plan_join", || plan_join(&machine, r.len()));
        let (trk, h) = (&mut NullTracker, FibHash);
        match jp.algorithm {
            Algorithm::PartitionedHash | Algorithm::Radix => {
                let lc = self
                    .time("core.join_cluster", || radix_cluster(trk, h, l, jp.bits, &jp.pass_bits));
                let rc = self
                    .time("core.join_cluster", || radix_cluster(trk, h, r, jp.bits, &jp.pass_bits));
                std::hint::black_box(self.time("core.join_probe", || {
                    if jp.algorithm == Algorithm::Radix {
                        radix_join_clustered(trk, h, &lc, &rc)
                    } else {
                        join_clustered(trk, h, &lc, &rc)
                    }
                }));
            }
            Algorithm::SimpleHash => {
                std::hint::black_box(
                    self.time("core.join_probe", || simple_hash_join(trk, h, &l, &r)),
                );
            }
            Algorithm::SortMerge => {
                std::hint::black_box(self.time("core.join_probe", || sort_merge_join(trk, l, r)));
            }
        }
    }
}

/// Share of stored bytes the compressed columns keep, compressed ÷ plain.
fn stored_bytes_ratio(t: &DecomposedTable) -> f64 {
    let (mut stored, mut plain) = (0usize, 0usize);
    for c in t.columns() {
        let bytes = c.bat.stored_bytes();
        plain += bytes;
        stored += t.compressed_of(&c.name).map_or(bytes, |cc| cc.compressed_bytes());
    }
    ratio(stored as f64, plain as f64)
}

/// The `ServiceMetrics`-derived counters, as medians over `rounds`.
fn service_counters(sheet: &mut Sheet, rounds: &[(ServiceMetrics, usize)], item_rows: usize) {
    let mut col = |name: &'static str, f: &dyn Fn(&ServiceMetrics) -> f64| {
        let values: Vec<f64> = rounds.iter().map(|(m, _)| f(m)).collect();
        sheet.set_rounds(name, &values);
    };
    col("service.lat_p99_ms", &|m| m.latency.p99_ms);
    col("service.cache_hit_ratio", &cache_hit_ratio);
    col("service.cache_evictions", &|m| m.cache_evictions as f64);
    col("service.collapsed", &|m| m.collapsed as f64);
    col("service.queued", &|m| m.queued as f64);
    col("service.rejected", &|m| m.rejected as f64);
    col("service.scans_saved", &|m| m.scans_saved as f64);
    // Rows streamed ÷ rows the same leaves would stream as solo scans: each
    // saved scan is one pass over Item that did not happen.
    col("service.scan_share_ratio", &|m| {
        let streamed = m.scan_rows_streamed as f64;
        ratio(streamed, streamed + (m.scans_saved as usize * item_rows) as f64)
    });
    col("service.elevator_attaches", &|m| m.elevator_attaches as f64);
    col("service.preemptions", &|m| m.preemptions as f64);
    col("service.bytes_saved", &|m| m.bytes_saved as f64);
}

pub fn trace(w: Workload, p: &Params, seed: u64) -> TraceResult {
    let mut rec = Recorder::new();
    let mut sheet = Sheet::default();
    let machine = memsim::profiles::origin2000();

    // Set-up, one span per phase. `TableBuilder::finish` compresses inside
    // table generation, so the compressed-column build is timed by
    // re-issuing it.
    let setup = rec.open(0, "bench.setup", None);
    let (mut tables, phases) = build_tables(w, p, seed);
    for ph in &phases {
        rec.push(0, ph.name, Some(setup), ph.start, ph.end);
    }
    rec.time(0, "core.compress_build", Some(setup), || tables.item.build_compressed());
    rec.close(setup);
    let tables = tables;
    for (metric, span) in [
        ("workload.gen_s", "workload.gen"),
        ("core.index_build_s", "core.index_build"),
        ("core.compress_build_s", "core.compress_build"),
        ("core.partition_s", "core.partition"),
    ] {
        sheet.set(metric, rec.total_ms(span) / 1e3, rec.count(span));
    }
    sheet.set("core.stored_bytes_ratio", stored_bytes_ratio(&tables.item), 1);

    let script = Script::new(streams(w, p, seed), &tables);
    let ops = &script.ops[0];
    let sim_ops = &ops[..p.sim_ops];

    // The same ops through the workload's entry point, without and with
    // spans: the difference is what the harness's tracing costs.
    let (untraced, _) = through(w, p, &tables, trace_mode(p), |submit| {
        let t0 = Instant::now();
        for op in ops {
            let _ = std::hint::black_box(submit(&op.plan(&tables)));
        }
        t0.elapsed()
    });
    let mut roots = Vec::with_capacity(ops.len());
    let (mut failed, mut queue_ms) = (0usize, 0.0);
    let (traced, _) = through(w, p, &tables, trace_mode(p), |submit| {
        let t0 = Instant::now();
        for (i, op) in ops.iter().enumerate() {
            let op_id = i as u32 + 1;
            let root = rec.open(op_id, "bench.op", None);
            let plan = rec.time(op_id, "engine.plan", Some(root), || op.plan(&tables));
            let answer = rec.time(op_id, "service.run", Some(root), || submit(&plan));
            rec.close(root);
            roots.push(root);
            if let Ok(Answer::Handle(h)) = &answer {
                queue_ms += h.sched.queue_ms;
            }
            let ok = answer.is_ok_and(|a| a.get().bitwise_eq(script.expected(0, i)));
            failed += usize::from(!ok);
        }
        t0.elapsed()
    });
    sheet.set(
        "bench.trace_overhead",
        ratio(traced.as_secs_f64(), untraced.as_secs_f64()),
        ops.len(),
    );
    sheet.set("bench.fail_ratio", ratio(failed as f64, ops.len() as f64), ops.len());

    // Direct calls: quote, execute with the thread count the service
    // leases, re-issue the kernels, and for the cluster the three stages of
    // `engine::dist`.
    let opts = exec_options(Threads::Auto, Some(p.budget));
    let mut counts = Counts::default();
    let mut quote_ms = Vec::with_capacity(ops.len());
    for (i, op) in ops.iter().enumerate() {
        let (op_id, root) = (i as u32 + 1, Some(roots[i]));
        let plan = op.plan(&tables);
        let quote = rec.time(op_id, "costmodel.quote", root, || quote_plan(&machine, &plan));
        quote_ms.push(quote.seq_ms());
        let exec = rec.open(op_id, "engine.exec", root);
        let run = execute(&mut NullTracker, &plan, &opts).expect("direct execution");
        rec.close(exec);
        counts.add_report(&run.report);
        Replay { rec: &mut rec, op_id, parent: exec, n: &mut counts }
            .node(&plan.root, &mut run.report.ops.iter());
        if let Some((item, supplier)) = &tables.sharded {
            let lowered = rec
                .time(op_id, "engine.lower", root, || lower(&plan, &[item, supplier]))
                .expect("every op lowers onto co-partitioned shards");
            let partials = (0..SHARDS)
                .map(|s| {
                    rec.time(op_id, "engine.shard_exec", root, || {
                        execute_shard(&mut NullTracker, &lowered, s, &opts)
                    })
                    .expect("shard execution")
                })
                .collect();
            let merged = rec.time(op_id, "engine.merge", root, || merge(&lowered, partials));
            std::hint::black_box(merged.expect("merge"));
        }
    }

    // Under the simulated Origin2000, cold caches per op as the `Ring`
    // service runs them: exact counters, and what charging them costs the
    // host.
    let mut sim = EventCounters::default();
    let seq = exec_options(Threads::Fixed(1), None);
    for (i, op) in sim_ops.iter().enumerate() {
        let plan = op.plan(&tables);
        sim += rec.time(i as u32 + 1, "memsim.exec", Some(roots[i]), || {
            let mut trk = SimTracker::for_machine(machine);
            execute(&mut trk, &plan, &seq).expect("simulated execution");
            trk.counters()
        });
    }

    // Lifecycle tracing on vs off, same ops, same service settings.
    if w != Workload::ShardFanout {
        let timed = |trace| {
            through(w, p, &tables, trace, |submit| {
                let t0 = Instant::now();
                for op in sim_ops {
                    let _ = std::hint::black_box(submit(&op.plan(&tables)));
                }
                t0.elapsed().as_secs_f64()
            })
        };
        let (on_s, ring) = timed(TraceMode::Ring);
        let (off_s, _) = timed(TraceMode::Off);
        let ring = ring.expect("a service ran");
        let traces = ring.traces();
        let n = sim_ops.len();
        sheet.set("obs.traces", traces.len() as f64, n);
        sheet.set("obs.events", traces.iter().map(|t| t.events.len()).sum::<usize>() as f64, n);
        sheet.set("obs.dropped", n.saturating_sub(traces.len()) as f64, n);
        let bad = traces.iter().filter(|t| validate_lifecycle(t).is_err()).count();
        sheet.set("obs.dfa_violations", bad as f64, n);
        let drift = ring.drift();
        let worst =
            drift.rows.iter().map(|r| r.drift.ewma.max(1.0 / r.drift.ewma)).fold(0.0, f64::max);
        sheet.set("obs.drift_max_ratio", worst, drift.rows.len());
        sheet.set("obs.trace_on_over_off", ratio(on_s, off_s), n);
    }

    // The service's own counters, from untraced full rounds with every
    // client.
    let rounds: Vec<(ServiceMetrics, usize)> = (0..COUNTER_ROUNDS)
        .map(|_| {
            let r = run_round(w, p, &tables, &script, p.round_ops);
            failed += r.failed;
            (r.metrics.unwrap_or_default(), r.high_water)
        })
        .collect();
    service_counters(&mut sheet, &rounds, p.item_rows);
    let high_water: Vec<f64> = rounds.iter().map(|(_, hw)| *hw as f64).collect();
    sheet.set_rounds("service.high_water_threads", &high_water);

    let n = ops.len();
    let ms = |name: &str| rec.total_ms(name);
    let us_per_call = |name: &str| ratio(ms(name) * 1e3, rec.count(name) as f64);
    for (total, per_unit, span, units) in [
        ("core.scan_ms", "core.scan_ns_per_row", "core.scan", counts.scan_rows),
        ("core.packed_scan_ms", "core.packed_ns_per_row", "core.packed_scan", counts.packed_rows),
        ("core.cand_scan_ms", "core.cand_ns_per_cand", "core.cand_scan", counts.cands),
        (
            "core.index_probe_ms",
            "core.index_ns_per_match",
            "core.index_probe",
            counts.index_matches,
        ),
    ] {
        sheet.set(total, ms(span), rec.count(span));
        sheet.set(per_unit, ratio(ms(span) * 1e6, units as f64), units);
    }
    sheet.set(
        "core.packed_bits_per_value",
        ratio(counts.packed_bits, counts.packed_rows as f64),
        counts.packed_rows,
    );
    for (total, span) in [
        ("core.join_cluster_ms", "core.join_cluster"),
        ("core.join_probe_ms", "core.join_probe"),
        ("engine.lower_ms", "engine.lower"),
        ("engine.shard_exec_ms", "engine.shard_exec"),
        ("engine.merge_ms", "engine.merge"),
    ] {
        sheet.set(total, ms(span), rec.count(span));
    }
    sheet.set(
        "core.join_ns_per_tuple",
        ratio((ms("core.join_cluster") + ms("core.join_probe")) * 1e6, counts.join_tuples as f64),
        counts.join_tuples,
    );
    sheet.set("costmodel.quote_us", us_per_call("costmodel.quote"), n);
    sheet.set(
        "costmodel.plan_join_us",
        us_per_call("costmodel.plan_join"),
        rec.count("costmodel.plan_join"),
    );
    sheet.set("costmodel.quote_ms", quote_ms.iter().sum(), n);
    let quoted_sim: f64 = quote_ms[..sim_ops.len()].iter().sum();
    sheet.set("costmodel.quote_over_sim", ratio(quoted_sim, sim.elapsed_ms()), sim_ops.len());
    sheet.set("engine.plan_us", us_per_call("engine.plan"), n);
    let exec_ms = ms("engine.exec");
    sheet.set("engine.exec_ms", exec_ms, n);
    sheet.set("engine.self_ms", rec.self_ms("engine.exec"), n);
    for (name, v) in [
        ("engine.rows_in", counts.rows_in),
        ("engine.rows_out", counts.rows_out),
        ("engine.leaves_scan", counts.leaves_scan),
        ("engine.leaves_packed", counts.leaves_packed),
        ("engine.leaves_index", counts.leaves_index),
        ("engine.leaves_pushdown", counts.leaves_pushdown),
    ] {
        sheet.set(name, v as f64, n);
    }
    let dist_ms = ms("engine.lower") + ms("engine.shard_exec") + ms("engine.merge");
    let run_ms = ms("service.run");
    sheet.set("service.run_ms", run_ms, n);
    sheet.set("service.overhead_ms", run_ms - exec_ms, n);
    sheet.set("service.queue_ms", queue_ms, n);
    if w == Workload::ShardFanout {
        sheet.set("service.place_ms", run_ms - dist_ms, n);
    }
    let host_ms = ms("memsim.exec");
    let accesses = sim.reads + sim.writes;
    let stall_ns = sim.stall_l2_ns + sim.stall_mem_ns + sim.stall_tlb_ns + sim.stall_fault_ns;
    for (name, v) in [
        ("memsim.sim_ms", sim.elapsed_ms()),
        ("memsim.cpu_ms", sim.cpu_ns / 1e6),
        ("memsim.stall_ms", stall_ns / 1e6),
        ("memsim.l1_misses", sim.l1_misses as f64),
        ("memsim.l2_misses", sim.l2_misses as f64),
        ("memsim.tlb_misses", sim.tlb_misses as f64),
        ("memsim.accesses", accesses as f64),
        ("memsim.host_ms", host_ms),
        ("memsim.accesses_per_host_s", ratio(accesses as f64, host_ms / 1e3)),
    ] {
        sheet.set(name, v, sim_ops.len());
    }
    sheet.set("bench.spans", rec.spans().len() as f64, rec.spans().len());

    TraceResult {
        metrics: sheet.into_metrics(),
        attempted: n + COUNTER_ROUNDS * p.clients * p.round_ops,
        failed,
        recorder: rec,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::Scale;

    /// Counts that must repeat exactly for a seed. The simulated *miss*
    /// counts are not among them: the simulator sees the real addresses of
    /// the buffers, and where the allocator put them differs run to run.
    const EXACT: [&str; 4] = ["engine.rows_", "engine.leaves_", "memsim.accesses", "memsim.cpu_ms"];
    /// Address-dependent, but large enough at test scale to compare.
    const NEAR: [&str; 4] =
        ["memsim.sim_ms", "memsim.stall_ms", "memsim.l1_misses", "memsim.l2_misses"];

    fn pick(metrics: &[Metric], prefixes: &[&str]) -> Vec<(&'static str, f64)> {
        metrics
            .iter()
            .filter(|m| m.name != "memsim.accesses_per_host_s")
            .filter(|m| prefixes.iter().any(|p| m.name.starts_with(p)))
            .map(|m| (m.name, m.value))
            .collect()
    }

    #[test]
    fn simulated_work_and_row_counts_repeat_exactly_for_a_seed() {
        for w in [Workload::ScanCold, Workload::ServeTraced] {
            let p = w.params(Scale::Tiny);
            let (a, b) = (trace(w, &p, 11), trace(w, &p, 11));
            assert_eq!((a.failed, b.failed), (0, 0), "{}", w.name());
            let (ea, eb) = (pick(&a.metrics, &EXACT), pick(&b.metrics, &EXACT));
            assert_eq!(ea, eb, "{}", w.name());
            assert!(ea.iter().any(|(n, v)| *n == "memsim.accesses" && *v > 0.0));
            assert!(ea.iter().any(|(n, v)| *n == "engine.rows_in" && *v > 0.0));
            for ((name, x), (_, y)) in
                pick(&a.metrics, &NEAR).into_iter().zip(pick(&b.metrics, &NEAR))
            {
                assert!(x > 0.0 && (x - y).abs() <= 0.1 * x, "{} {name}: {x} vs {y}", w.name());
            }
        }
    }

    #[test]
    fn every_workload_emits_every_declared_metric_and_its_spans_share_op_ids() {
        for w in Workload::ALL {
            let p = w.params(Scale::Tiny);
            let t = trace(w, &p, 5);
            assert_eq!(t.failed, 0, "{}", w.name());
            let names: Vec<&str> = t.metrics.iter().map(|m| m.name).collect();
            let declared: Vec<&str> = PER_LAYER.iter().map(|(n, _)| *n).collect();
            assert_eq!(names, declared);
            let get = |name: &str| t.metrics.iter().find(|m| m.name == name).unwrap().value;
            assert_eq!(get("obs.dfa_violations"), 0.0);
            assert!(get("bench.trace_overhead") > 0.0);
            assert!(get("engine.exec_ms") > 0.0 && get("service.run_ms") > 0.0);
            assert_eq!(get("core.partition_s") > 0.0, w == Workload::ShardFanout);
            assert_eq!(get("core.join_probe_ms") > 0.0, w != Workload::ScanCold);
            // Every span of an op hangs, directly or through `engine.exec`,
            // off that op's `bench.op` root and carries its op_id.
            let spans = t.recorder.spans();
            for s in spans {
                if let Some(parent) = s.parent {
                    assert_eq!(s.op_id, spans[parent as usize].op_id, "{}", s.name);
                }
            }
            assert_eq!(t.recorder.count("bench.op"), p.round_ops);
        }
    }

    #[test]
    fn scan_cold_kernels_and_self_time_account_for_exec_by_construction() {
        let w = Workload::ScanCold;
        let t = trace(w, &w.params(Scale::Tiny), 9);
        let get = |name: &str| t.metrics.iter().find(|m| m.name == name).unwrap().value;
        let parts = get("core.scan_ms")
            + get("core.packed_scan_ms")
            + get("core.cand_scan_ms")
            + get("core.index_probe_ms")
            + get("engine.self_ms");
        assert!(
            (parts - get("engine.exec_ms")).abs() < 1e-6,
            "{parts} vs {}",
            get("engine.exec_ms")
        );
    }

    #[test]
    fn benchmark_json_declares_exactly_the_emitted_per_layer_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let per_layer = json.split("\"per_layer\"").nth(1).expect("per_layer section");
        for (name, unit) in PER_LAYER {
            let entry = format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(per_layer.contains(&entry), "{entry} missing");
        }
        assert_eq!(per_layer.matches("\"name\"").count(), PER_LAYER.len());
        for w in Workload::ALL {
            assert!(json.contains(&format!("{{\"name\": \"{}\"", w.name())));
        }
    }
}
