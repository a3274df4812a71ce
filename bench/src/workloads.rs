//! The five workloads: sizes, pinned configuration, tables and op streams.
//!
//! Everything here is a pure function of `(workload, scale, seed, client)`;
//! the program under test only ever sees the generated tables and plans.

use std::collections::HashSet;
use std::time::Instant;

use engine::access::{AccessMode, CompressMode, PushdownMode};
use engine::exec::{ExecOptions, Planner, Threads};
use engine::plan::{Agg, LogicalPlan, Pred, Query};
use monet_core::index::IndexKind;
use monet_core::shard::ShardedTable;
use monet_core::storage::{ColType, DecomposedTable, TableBuilder, Value};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use service::{ServiceConfig, TraceMode};
use workload::{ChurnMix, QueryMix, QuerySpec};

/// Shards of the `shard_fanout` cluster.
pub const SHARDS: usize = 4;
/// Latency scale of the read replica added on the hottest shard.
pub const REPLICA_LATENCY: f64 = 1.5;
/// Partition-key skew of `shard_fanout`'s Item table.
pub const SHARD_SKEW: f64 = 1.0;
/// Which hot suppliers end up sharing a shard depends on the data seed, and
/// moves `shard_fanout` by more than any bound; its Item table is therefore
/// the same on every `--seed`, which varies only the queries there.
pub const SHARD_DATA_SEED: u64 = 1999;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ScanCold,
    JoinBig,
    ServeShared,
    ShardFanout,
    ServeTraced,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The recorded sizes.
    Full,
    /// Tables and rounds cut to a tenth: the smoke script only.
    Quick,
    /// Unit tests.
    #[cfg_attr(not(test), allow(dead_code))]
    Tiny,
}

/// Sizes and pinned service settings of one workload at one scale.
#[derive(Debug, Clone, PartialEq)]
pub struct Params {
    pub item_rows: usize,
    /// Closed-loop clients (one thread each, never more than `nproc`).
    pub clients: usize,
    /// `ServiceConfig::budget`, pinned — never `from_env`.
    pub budget: usize,
    pub cache_bytes: usize,
    /// `TraceMode::Ring` instead of `Off`.
    pub ring: bool,
    /// Ops per client in one round; a timed window is whole rounds.
    pub round_ops: usize,
    /// Ops per client run untimed at the end of set-up.
    pub warmup_ops: usize,
    /// How many of client 0's ops the traced run also puts through the
    /// memory simulator and the `Ring` service, which cost ~100x native.
    pub sim_ops: usize,
}

impl Workload {
    pub const ALL: [Workload; 5] = [
        Workload::ScanCold,
        Workload::JoinBig,
        Workload::ServeShared,
        Workload::ShardFanout,
        Workload::ServeTraced,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ScanCold => "scan_cold",
            Workload::JoinBig => "join_big",
            Workload::ServeShared => "serve_shared",
            Workload::ShardFanout => "shard_fanout",
            Workload::ServeTraced => "serve_traced",
        }
    }

    pub fn parse(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == s)
    }

    pub fn params(self, scale: Scale) -> Params {
        // (item rows, clients, budget, cache, ring, round, sim) at full scale.
        let (rows, clients, budget, cache_bytes, ring, round, sim) = match self {
            Workload::ScanCold => (2_000_000, 1, 1, 0, false, 60, 10),
            Workload::JoinBig => (2_000_000, 1, 2, 0, false, 24, 4),
            Workload::ServeShared => (2_000_000, 2, 2, 4 << 20, false, 100, 10),
            Workload::ShardFanout => (2_000_000, 1, 2, 0, false, 44, 8),
            Workload::ServeTraced => (250_000, 1, 1, 0, true, 44, 20),
        };
        let (item_rows, round_ops, sim_ops) = match scale {
            Scale::Full => (rows, round, sim),
            Scale::Quick => (rows / 10, (round / 10).max(self.min_round()), 2),
            Scale::Tiny => (rows / 100, self.min_round(), 2),
        };
        Params {
            item_rows,
            clients,
            budget,
            cache_bytes,
            ring,
            round_ops,
            warmup_ops: round_ops.div_ceil(4).max(self.min_round().min(round_ops)),
            sim_ops: sim_ops.min(round_ops),
        }
    }

    /// The shortest round that still visits every op class once.
    fn min_round(self) -> usize {
        match self {
            Workload::ScanCold => SCAN_CLASSES,
            Workload::JoinBig => 8,
            Workload::ServeShared => 30,
            Workload::ShardFanout | Workload::ServeTraced => MIX_CYCLE.len(),
        }
    }
}

/// The service configuration of a workload, every field written out: the
/// defaults are pinned here so a changed default shows as a diff, and
/// nothing is read from the environment.
pub fn service_config(p: &Params, trace: TraceMode) -> ServiceConfig {
    ServiceConfig {
        machine: memsim::profiles::origin2000(),
        budget: p.budget,
        queue_limit: 1024,
        starvation_bound: 4,
        shared_scans: true,
        cache_bytes: p.cache_bytes,
        chunk_rows: 64 << 10,
        trace,
        drift_band: 2.0,
    }
}

pub fn trace_mode(p: &Params) -> TraceMode {
    if p.ring {
        TraceMode::Ring
    } else {
        TraceMode::Off
    }
}

/// Executor options written out field by field (`ExecOptions::cost_model`
/// would read `MONET_ACCESS/COMPRESS/PUSHDOWN`).
pub fn exec_options(threads: Threads, thread_cap: Option<usize>) -> ExecOptions {
    ExecOptions {
        machine: memsim::profiles::origin2000(),
        planner: Planner::CostModel,
        threads,
        access: AccessMode::Auto,
        thread_cap,
        compress: CompressMode::On,
        pushdown: PushdownMode::On,
    }
}

/// The oracle's options: one thread, plain uncompressed scans, no indexes,
/// no pushdown — the reference path every other path is bit-identical to.
pub fn oracle_options() -> ExecOptions {
    ExecOptions {
        access: AccessMode::Scan,
        compress: CompressMode::Off,
        pushdown: PushdownMode::Off,
        ..exec_options(Threads::Fixed(1), None)
    }
}

/// The tables of one workload run.
pub struct Tables {
    pub item: DecomposedTable,
    pub supplier: DecomposedTable,
    /// `join_big`'s 1:4 dimension.
    pub orders: Option<DecomposedTable>,
    /// `shard_fanout`'s partitions of (`item` on `supp`, `supplier` on `id`).
    pub sharded: Option<(ShardedTable, ShardedTable)>,
}

/// One timed phase of table building.
pub struct Phase {
    pub name: &'static str,
    pub start: Instant,
    pub end: Instant,
}

fn phase<T>(phases: &mut Vec<Phase>, name: &'static str, f: impl FnOnce() -> T) -> T {
    let start = Instant::now();
    let out = f();
    phases.push(Phase { name, start, end: Instant::now() });
    out
}

fn supplier_table() -> DecomposedTable {
    let mut b =
        TableBuilder::new("supplier", 0).column("id", ColType::I32).column("rating", ColType::F64);
    for i in 1..=1_000i32 {
        b.push_row(&[Value::I32(i), Value::F64(f64::from(i % 7) / 2.0)])
            .expect("schema matches row construction");
    }
    b.finish()
}

/// `orders(id, prio)`: `rows` shuffled unique ids covering Item's `order`
/// domain exactly, so the join's hit rate is one.
fn orders_table(rows: usize, seed: u64) -> DecomposedTable {
    let mut ids: Vec<i32> = (1..=rows as i32).collect();
    workload::shuffle(&mut ids, seed ^ 0x000b_de75);
    let mut b =
        TableBuilder::new("orders", 0).column("id", ColType::I32).column("prio", ColType::I32);
    for id in ids {
        b.push_row(&[Value::I32(id), Value::I32(id % 5)]).expect("schema matches row construction");
    }
    b.finish()
}

/// Generate, index and (for `shard_fanout`) partition the tables.
/// `TableBuilder::finish` builds the compressed columns, so that cost sits
/// inside the `workload.gen` phase.
pub fn build_tables(w: Workload, p: &Params, seed: u64) -> (Tables, Vec<Phase>) {
    let mut phases = Vec::new();
    let (mut item, supplier, orders) = phase(&mut phases, "workload.gen", || {
        let item = if w == Workload::ShardFanout {
            workload::item_table_skewed(p.item_rows, SHARD_DATA_SEED, SHARD_SKEW)
        } else {
            workload::item_table(p.item_rows, seed)
        };
        let orders = (w == Workload::JoinBig).then(|| orders_table(p.item_rows.div_ceil(4), seed));
        (item, supplier_table(), orders)
    });
    phase(&mut phases, "core.index_build", || {
        item.create_index("qty", IndexKind::CsBTree).expect("qty is indexable");
        item.create_index("shipmode", IndexKind::Hash).expect("shipmode is indexable");
    });
    let sharded = (w == Workload::ShardFanout).then(|| {
        phase(&mut phases, "core.partition", || {
            let i = ShardedTable::partition(&item, "supp", SHARDS).expect("supp is a shard key");
            let s = ShardedTable::partition(&supplier, "id", SHARDS).expect("id is a shard key");
            (i, s)
        })
    });
    (Tables { item, supplier, orders, sharded }, phases)
}

/// One operation of a stream.
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    /// A spec of the repo's own query mix.
    Mix(QuerySpec),
    /// `join_big`'s fact-to-dimension join over a `qty` band.
    OrdersJoin { lo: i32, hi: i32 },
}

impl Op {
    /// Build the validated plan — part of every timed op, since a caller
    /// pays for it on every query.
    pub fn plan<'a>(&self, t: &'a Tables) -> LogicalPlan<'a> {
        match self {
            Op::Mix(spec) => spec.build(&t.item, &t.supplier),
            Op::OrdersJoin { lo, hi } => Query::scan(&t.item)
                .filter(Pred::range_i32("qty", *lo, *hi))
                .join(t.orders.as_ref().expect("join_big builds orders"), ("order", "id"))
                .agg(Agg::sum("prio"))
                .agg(Agg::count())
                .build(),
        }
        .expect("generated ops validate")
    }

    /// Identity of the op's plan over fixed tables.
    pub fn fingerprint(&self) -> String {
        format!("{self:?}")
    }
}

/// Draw from `gen` until the op is new to `seen`.
fn draw_distinct(seen: &mut HashSet<String>, mut gen: impl FnMut() -> Op) -> Op {
    for _ in 0..10_000 {
        let op = gen();
        if seen.insert(op.fingerprint()) {
            return op;
        }
    }
    panic!("op class has fewer distinct constants than the round asks for");
}

fn band(col: &'static str, lo: u32, width: u32) -> Op {
    Op::Mix(QuerySpec::Band { col, lo: lo as i32, hi: (lo + width) as i32 })
}

const SCAN_CLASSES: usize = 10;

/// `batch` = row / 64 + 1, so its domain follows the table size; bands over
/// it are this wide and start in the first `batch_span` values.
fn batch_span(p: &Params) -> u32 {
    (p.item_rows / 128).max(2) as u32
}

fn selective(rng: &mut StdRng, batches: u32) -> Op {
    let batch_lo = 1 + rng.random_range(0..=batches) as i32;
    let date_lo = 9_000 + rng.random_range(0..=600);
    Op::Mix(QuerySpec::Selective {
        supp: rng.random_range(1..=1_000),
        batch_lo,
        batch_hi: batch_lo + batches as i32,
        date_lo,
        date_hi: date_lo + 1_000,
    })
}

/// A discount band `width` hundredths wide, as `(lo, hi)` fractions.
fn discnt_band(rng: &mut StdRng, width: u32) -> (f64, f64) {
    let lo: u32 = rng.random_range(0..=10 - width);
    (f64::from(lo) / 100.0, f64::from(lo + width) / 100.0)
}

/// `scan_cold`: ten op classes in rotation, no plan repeated. Only where a
/// band starts is seeded; its width is fixed per class and the columns are
/// uniform, so a class selects the same share of rows — and costs the same
/// — on every seed. Plain 8-byte scans (`price`, `discnt`, `tax`) alternate
/// with FOR-packed (`qty`, `date1`, `part`) and RLE (`batch`) ones, then
/// the grouped and conjunctive shapes.
fn scan_cold(p: &Params, seed: u64) -> Vec<Op> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5ca7_c01d);
    let mut seen = HashSet::new();
    let batches = batch_span(p);
    (0..p.round_ops)
        .map(|i| {
            draw_distinct(&mut seen, || match i % SCAN_CLASSES {
                // `price` is dense near 0: a band from under 20.00 up to
                // ~1 500 keeps its share whatever the start.
                0 => band("price", rng.random_range(10..=2_000), 150_000),
                1 => band("qty", rng.random_range(1..=36), 14),
                2 => band("discnt", rng.random_range(0..=7), 3),
                3 => band("date1", 9_000 + rng.random_range(0..=1_400u32), 600),
                4 => band("batch", 1 + rng.random_range(0..=batches), batches),
                5 => band("tax", rng.random_range(0..=6), 2),
                6 => band("part", 1 + rng.random_range(0..=14_000u32), 6_000),
                7 => {
                    let (lo, hi) = discnt_band(&mut rng, 2);
                    Op::Mix(QuerySpec::Drill { lo, hi })
                }
                8 => {
                    let (lo, hi) = discnt_band(&mut rng, 4);
                    Op::Mix(QuerySpec::Extremes { lo, hi })
                }
                _ => selective(&mut rng, batches),
            })
        })
        .collect()
}

/// Extra `qty` values an `orders` join band covers beyond its first: the
/// outer side runs from 2 % to 92 % of Item.
const JOIN_WIDTHS: [u32; 6] = [0, 4, 11, 21, 33, 45];

/// `join_big`: three joins against the 1:4 `orders` dimension (band widths
/// in rotation), then one against the 1 000-row `supplier` whose inner side
/// fits L1 — the planner should flip algorithm there.
fn join_big(p: &Params, seed: u64) -> Vec<Op> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x0b16_701e);
    let mut seen = HashSet::new();
    let mut orders_ops = 0;
    (0..p.round_ops)
        .map(|i| {
            if i % 4 == 3 {
                draw_distinct(&mut seen, || {
                    let lo = rng.random_range(1..=40);
                    Op::Mix(QuerySpec::SupplierJoin { lo, hi: lo + 10 })
                })
            } else {
                let width = JOIN_WIDTHS[orders_ops % JOIN_WIDTHS.len()];
                orders_ops += 1;
                draw_distinct(&mut seen, || {
                    let lo = rng.random_range(1..=50 - width) as i32;
                    Op::OrdersJoin { lo, hi: lo + width as i32 }
                })
            }
        })
        .collect()
}

/// The shapes of `workload::QueryMix` in its proportions (3 drill : 3 needle
/// : 2 join : 1 extremes : 1 selective : 1 sweep), as a fixed rotation.
const MIX_CYCLE: [u8; 11] = *b"DNJDNWDNJES";

/// Op `k` of the rotating mix. `QueryMix::next_spec` draws the class at
/// random, so a 40-op round of it is a different mix of 100x-apart costs on
/// every seed; here the class follows the position and only the constants
/// are seeded, with the widths `QueryMix` uses (the sweep's fixed at 75 %).
fn mix_op(rng: &mut StdRng, k: usize, batches: u32) -> Op {
    Op::Mix(match MIX_CYCLE[k % MIX_CYCLE.len()] {
        b'D' => {
            let (lo, hi) = discnt_band(rng, 2);
            QuerySpec::Drill { lo, hi }
        }
        b'N' => QuerySpec::Needle {
            qty: rng.random_range(1..=50),
            shipmode: workload::SHIPMODES[rng.random_range(0..workload::SHIPMODES.len())],
        },
        b'J' => {
            let lo = rng.random_range(1..=40);
            QuerySpec::SupplierJoin { lo, hi: lo + 10 }
        }
        b'E' => {
            let (lo, hi) = discnt_band(rng, 4);
            QuerySpec::Extremes { lo, hi }
        }
        b'S' => return selective(rng, batches),
        _ => {
            let lo = rng.random_range(1..=13);
            QuerySpec::Sweep { lo, hi: lo + 37 }
        }
    })
}

fn mix_round(p: &Params, seed: u64) -> Vec<Op> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x3a1c_e5ed);
    (0..p.round_ops).map(|k| mix_op(&mut rng, k, batch_span(p))).collect()
}

/// Op class by stream position, so both clients are in the same class
/// together: 60 % needles, 20 % wide bands, 10 % storms, 10 % mix.
const SHARED_PATTERN: [u8; 10] = *b"NNBNSNBNMN";

/// `serve_shared`, every client's stream. Needles repeat by design (Zipf);
/// nothing else does, within or across clients, so the result cache answers
/// needles only, single-flight sees storms only, and the two clients' wide
/// bands can share nothing but the scan.
fn serve_shared(p: &Params, seed: u64) -> Vec<Vec<Op>> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5e47_ed00);
    let per_client = |class: u8| {
        (0..p.round_ops).filter(|i| SHARED_PATTERN[i % SHARED_PATTERN.len()] == class).count()
    };
    // Needles first, so a later mix needle cannot land on a cached one.
    let needles: Vec<Vec<Op>> = (0..p.clients)
        .map(|c| {
            let mut mix = QueryMix::for_client(seed, c);
            (0..per_client(b'N')).map(|_| Op::Mix(mix.next_needle())).collect()
        })
        .collect();
    let mut seen: HashSet<String> = needles.iter().flatten().map(Op::fingerprint).collect();
    // Bands over half of the 50-value `qty` domain, shuffled once per seed
    // and dealt out: distinct constants, one selectivity.
    let mut wide: Vec<(i32, i32)> =
        (24..=25).flat_map(|w| (1..=50 - w).map(move |lo| (lo, lo + w))).collect();
    workload::shuffle(&mut wide, seed ^ 0x71de_ba4d);
    let mut bands = wide.into_iter();
    let mut mix_ops = 0;
    needles
        .into_iter()
        .map(|needles| {
            let mut needles = needles.into_iter();
            (0..p.round_ops)
                .map(|i| match SHARED_PATTERN[i % SHARED_PATTERN.len()] {
                    b'N' => needles.next().expect("one needle per N position"),
                    b'B' => {
                        let (lo, hi) = bands.next().expect("more wide bands asked for than exist");
                        Op::Mix(QuerySpec::Band { col: "qty", lo, hi })
                    }
                    // Identical across clients: the single-flight case.
                    b'S' => Op::Mix(ChurnMix::storm_spec(seed, i / SHARED_PATTERN.len())),
                    _ => {
                        mix_ops += 1;
                        draw_distinct(&mut seen, || mix_op(&mut rng, mix_ops - 1, batch_span(p)))
                    }
                })
                .collect()
        })
        .collect()
}

/// The ops each client submits in one round, one stream per client.
pub fn streams(w: Workload, p: &Params, seed: u64) -> Vec<Vec<Op>> {
    match w {
        Workload::ScanCold => vec![scan_cold(p, seed)],
        Workload::JoinBig => vec![join_big(p, seed)],
        Workload::ServeShared => serve_shared(p, seed),
        Workload::ShardFanout | Workload::ServeTraced => vec![mix_round(p, seed)],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_are_deterministic_per_seed_and_client() {
        for w in Workload::ALL {
            for scale in [Scale::Full, Scale::Quick] {
                let p = w.params(scale);
                let a = streams(w, &p, 42);
                assert_eq!(a, streams(w, &p, 42), "{} replays", w.name());
                assert_eq!(a.len(), p.clients);
                assert!(a.iter().all(|ops| ops.len() == p.round_ops));
                let b = streams(w, &p, 7);
                for client in 0..p.clients {
                    assert_ne!(a[client], b[client], "{}: seeds differ", w.name());
                }
            }
        }
        let w = Workload::ServeShared;
        let s = streams(w, &w.params(Scale::Full), 42);
        assert_ne!(s[0], s[1], "clients draw different streams");
        // Storms are identical across clients position by position.
        for (i, (x, y)) in s[0].iter().zip(&s[1]).enumerate() {
            if SHARED_PATTERN[i % 10] == b'S' {
                assert_eq!(x, y, "op {i}");
            }
        }
    }

    #[test]
    fn cold_streams_never_repeat_a_plan() {
        for w in [Workload::ScanCold, Workload::JoinBig] {
            for seed in [42, 7, 1, 2, 3] {
                let ops = &streams(w, &w.params(Scale::Full), seed)[0];
                let distinct: HashSet<String> = ops.iter().map(Op::fingerprint).collect();
                assert_eq!(distinct.len(), ops.len(), "{} seed {seed}", w.name());
            }
        }
    }

    #[test]
    fn shared_streams_repeat_only_needles_and_storms() {
        let w = Workload::ServeShared;
        for seed in [42, 7, 1] {
            let p = w.params(Scale::Full);
            let all: Vec<(u8, String)> = streams(w, &p, seed)
                .iter()
                .flat_map(|ops| ops.iter().enumerate())
                .map(|(i, op)| (SHARED_PATTERN[i % 10], op.fingerprint()))
                .collect();
            let mut seen = HashSet::new();
            for (class, fp) in &all {
                let fresh = seen.insert(fp);
                match class {
                    b'N' => {}
                    // The second client's copy of a storm is the only repeat.
                    b'S' => {
                        assert!(fresh || all.iter().filter(|(_, f)| f == fp).count() == p.clients)
                    }
                    _ => assert!(fresh, "seed {seed}: {fp} repeats"),
                }
            }
            assert_eq!(all.iter().filter(|(c, _)| *c == b'B').count(), p.clients * p.round_ops / 5);
        }
    }

    #[test]
    fn every_generated_op_validates() {
        for w in Workload::ALL {
            let p = w.params(Scale::Tiny);
            let (tables, phases) = build_tables(w, &p, 3);
            assert_eq!(
                phases.iter().any(|ph| ph.name == "core.partition"),
                w == Workload::ShardFanout
            );
            for op in streams(w, &p, 3).iter().flatten() {
                op.plan(&tables);
            }
        }
    }
}
