//! One oracle over one knob lattice. The physical choices of the paper —
//! scan or index (§3.2), plain, byte-encoded or packed columns (§3.1),
//! radix bits, passes and thread counts (§3.3–3.4) — may change what a
//! query costs, never what it returns. Every case draws tables, a plan and
//! the paths to run it on, and asserts each output equals the row-at-a-time
//! reference (`reference.rs`, which shares no kernel with the engine) bit
//! for bit ([`QueryOutput::bitwise_eq`]):
//!
//! * **tables** — an Item-shaped fact table whose columns compress to
//!   frame-of-reference, run-length and packed dictionary codes, with
//!   optional B+-tree, hash and T-tree indexes and a zero or non-zero
//!   seqbase, and a supplier dimension whose ids repeat;
//! * **a plan** — a filter tree of `i32`, `f64` and string leaves (ranges,
//!   points, inverted ranges, dictionary misses), an optional join, and
//!   bare, scalar or grouped aggregates, `f64` sums included;
//! * **a configuration** — `execute` under [`ExecOptions`] (access path,
//!   compression, pushdown, thread count, thread cap) with a native
//!   or a simulating tracker; `execute_sharded` at 1, 2, 4 or 7 shards of
//!   both tables co-partitioned on the join key; or two concurrent
//!   sessions of a [`QueryService`] under a [`ServiceConfig`] (shared scans,
//!   result cache, elevator chunk, tracing, thread budget).
//!
//! Each axis deals its values from a shuffled deck, so a run of at least as
//! many draws as an axis has values sees every one; [`check`] ends by
//! asserting that it did, for every axis drawn. `tests/lattice_prop.rs`
//! draws the whole lattice; the other suites check slices of it, with some
//! axes pinned ([`Lattice::pin`]) and one swept in full on every case.
//!
//! A service case runs under a watchdog: if its sessions have not returned
//! within [`SERVICE_DEADLINE`], the case's context is printed and the test
//! binary exits with a failure instead of parking forever.

// Each suite draws its own slice of the lattice.
#![allow(dead_code)]

use std::collections::BTreeMap;
use std::fmt;
use std::io::{self, Write};
use std::panic::{self, AssertUnwindSafe};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::thread;
use std::time::Duration;

use monet_mem::core::index::IndexKind;
use monet_mem::core::shard::ShardedTable;
use monet_mem::core::storage::{ColType, DecomposedTable, TableBuilder, Value};
use monet_mem::engine::access::{AccessMode, CompressMode, PushdownMode};
use monet_mem::engine::dist::execute_sharded;
use monet_mem::engine::exec::{execute, ExecOptions, Planner, QueryOutput, Threads};
use monet_mem::engine::plan::{Agg, LogicalPlan, Pred, Query};
use monet_mem::memsim::{profiles, NullTracker, SimTracker};
use monet_mem::service::{QueryService, ServiceConfig, TraceMode};
use monet_mem::workload::ZipfGenerator;
use proptest::TestRng;

use crate::reference;

/// Cases per run of a slice: each runs its plan once per value of the
/// swept axis.
pub const SLICE_CASES: usize = if cfg!(debug_assertions) { 48 } else { 384 };

/// Distinct supplier ids the fact table's join key draws from.
const SUPPLIERS: usize = 40;
const SHIPMODES: [&str; 7] = ["AIR", "MAIL", "SHIP", "TRUCK", "RAIL", "FOB", "REG AIR"];
const FLAGS: [&str; 3] = ["A", "N", "R"];
const NATIONS: [&str; 4] = ["FRANCE", "KENYA", "PERU", "CHINA"];

/// Every filter shape that has a filter.
pub const FILTERED: [&str; 6] = ["leaf", "and", "or", "and3", "and-or", "or-and"];
/// The filter shapes with a conjunction for pushdown to reorder.
pub const CONJUNCTIONS: [&str; 4] = ["and", "and3", "and-or", "or-and"];

/// One axis's deck: the value indices it may deal (all, unless pinned),
/// those still to deal this round, and which values were ever dealt.
struct Deck {
    dealt: Vec<usize>,
    left: Vec<usize>,
    seen: Vec<bool>,
}

/// The generator: a deterministic random stream, the values each pinned
/// axis is restricted to, and the decks of every axis drawn so far.
pub struct Lattice {
    pub rng: TestRng,
    pins: BTreeMap<&'static str, Vec<&'static str>>,
    decks: BTreeMap<&'static str, Deck>,
}

/// A value's name in a pin: its `Debug` text, unquoted.
fn label<T: fmt::Debug>(value: &T) -> String {
    format!("{value:?}").trim_matches('"').to_owned()
}

impl Lattice {
    /// The generator whose stream `name` seeds.
    pub fn new(name: &str) -> Self {
        Self { rng: TestRng::from_name(name), pins: BTreeMap::new(), decks: BTreeMap::new() }
    }

    /// Restrict `axis` to the values named in `labels`.
    pub fn pin(mut self, axis: &'static str, labels: &[&'static str]) -> Self {
        self.pins.insert(axis, labels.to_vec());
        self
    }

    /// A value of `axis`, dealt from its deck.
    pub fn draw<T: Clone + fmt::Debug>(&mut self, axis: &'static str, values: &[T]) -> T {
        let pin = self.pins.get(axis);
        let deck = self.decks.entry(axis).or_insert_with(|| {
            let dealt: Vec<usize> = (0..values.len())
                .filter(|&i| pin.is_none_or(|p| p.contains(&label(&values[i]).as_str())))
                .collect();
            assert!(!dealt.is_empty(), "{axis}: the pin {pin:?} names none of {values:?}");
            Deck { dealt, left: Vec::new(), seen: vec![false; values.len()] }
        });
        assert_eq!(deck.seen.len(), values.len(), "{axis} always has the same values");
        if deck.left.is_empty() {
            deck.left = deck.dealt.clone();
        }
        let i = deck.left.swap_remove((self.rng.next_u64() % deck.left.len() as u64) as usize);
        deck.seen[i] = true;
        values[i].clone()
    }

    /// A uniform integer in `lo..hi`.
    pub fn int(&mut self, lo: i64, hi: i64) -> i64 {
        lo + (self.rng.next_u64() % (hi - lo) as u64) as i64
    }

    /// One of `values`, uniformly.
    pub fn pick<T: Copy>(&mut self, values: &[T]) -> T {
        values[self.int(0, values.len() as i64) as usize]
    }

    /// True with probability one half.
    pub fn coin(&mut self) -> bool {
        self.rng.next_u64() & 1 == 1
    }

    /// The axes drawn so far, in name order.
    pub fn axes(&self) -> Vec<&'static str> {
        self.decks.keys().copied().collect()
    }

    /// Assert every pinned axis was drawn, and every axis drawn dealt all
    /// the values it may deal.
    pub fn assert_covered(&self) {
        for axis in self.pins.keys() {
            assert!(self.decks.contains_key(axis), "pinned axis {axis} was never drawn");
        }
        for (axis, deck) in &self.decks {
            let missed: Vec<usize> =
                deck.dealt.iter().copied().filter(|&i| !deck.seen[i]).collect();
            assert!(missed.is_empty(), "{axis}: values never drawn: {missed:?}");
        }
    }
}

/// How the fact table's `qty` column is laid out — and so which encoding
/// its compressed representation picks.
#[derive(Debug, Clone, Copy)]
enum QtyShape {
    /// Small values in any order: frame-of-reference.
    Uniform,
    /// Long runs of equal values: run-length.
    Runs,
    /// One value throughout: zero-bit frames, or a single run.
    Constant,
}

/// Distinct values the fact table's `part` column draws from: more than a
/// 1-byte code holds, so on "frames"-sized tables `part` has 2-byte codes
/// and a fold grouped by it runs on the 65 536-slot table.
const PARTS: i64 = 1_000;

/// The Item-shaped fact table: `supp` (the join key), `qty`, `batch`
/// (sorted runs), `price`, `discnt`, `shipmode`, `flag` and `part`.
fn item(l: &mut Lattice) -> DecomposedTable {
    let rows = match l.draw("rows", &["empty", "few", "frames", "frames"]) {
        "empty" => 0,
        "few" => l.int(1, 64),
        _ => l.int(1_000, 2_600),
    } as usize;
    let seqbase = match l.draw("seqbase", &["zero", "non-zero"]) {
        "zero" => 0,
        _ => l.int(1, 5_000) as u32,
    };
    let qty = l.draw("qty shape", &[QtyShape::Uniform, QtyShape::Runs, QtyShape::Constant]);
    let wide = l.draw("price", &["cents", "wide"]) == "wide";
    let mut last_price = 0.0;
    let mut zipf = match l.draw("key skew", &["uniform", "zipf"]) {
        "zipf" => Some(ZipfGenerator::new(SUPPLIERS, 1.0, l.rng.next_u64())),
        _ => None,
    };
    let mut b = TableBuilder::new("item", seqbase)
        .column("supp", ColType::I32)
        .column("qty", ColType::I32)
        .column("batch", ColType::I32)
        .column("price", ColType::F64)
        .column("discnt", ColType::F64)
        .column("shipmode", ColType::Str)
        .column("flag", ColType::Str)
        .column("part", ColType::Str);
    for i in 0..rows {
        let supp = match &mut zipf {
            Some(z) => z.sample() as i64,
            None => l.int(0, SUPPLIERS as i64),
        };
        let qty = match qty {
            QtyShape::Uniform => l.int(1, 51),
            QtyShape::Runs => (i / 200) as i64 * 3 % 50,
            QtyShape::Constant => 7,
        };
        let row = [
            Value::I32(supp as i32),
            Value::I32(qty as i32),
            Value::I32((i / 300) as i32),
            Value::F64(if wide {
                wide_price(l, &mut last_price)
            } else {
                l.int(0, 100_000) as f64 / 100.0
            }),
            Value::F64(l.int(0, 11) as f64 / 100.0),
            Value::from(l.pick(&SHIPMODES)),
            Value::from(l.pick(&FLAGS)),
            Value::from(format!("p{}", l.int(0, PARTS))),
        ];
        b.push_row(&row).unwrap();
    }
    let mut t = b.finish();
    if zipf.is_some() && rows >= 1_000 {
        // The skew has to reach the shards the sharded path runs on.
        let skew = ShardedTable::partition(&t, "supp", 4).unwrap().stats().skew;
        assert!(skew > 1.2, "Zipf keys skew 4 shards by {skew}");
    }
    let kinds: &[IndexKind] = l.draw(
        "indexes",
        &[
            &[][..],
            &[IndexKind::CsBTree],
            &[IndexKind::Hash],
            &[IndexKind::TTree],
            &[IndexKind::CsBTree, IndexKind::Hash, IndexKind::TTree],
        ],
    );
    for col in ["supp", "qty", "shipmode"] {
        for &kind in kinds {
            t.create_index(col, kind).unwrap();
        }
    }
    t
}

/// A `price` far from cents: either sign, magnitudes from 2^−60 to 2^60
/// (now and then 2^±600), so one block's values span more binades than
/// the sum kernel's split covers; the negation of the previous price, so
/// sums cancel; rarely a subnormal or `-0.0`.
fn wide_price(l: &mut Lattice, last: &mut f64) -> f64 {
    let sign = if l.coin() { -1.0 } else { 1.0 };
    let v = match l.int(0, 64) {
        0 => -0.0,
        1 => sign * f64::from_bits(l.rng.next_u64() & ((1 << 52) - 1)),
        2..=9 => -*last,
        10 | 11 => sign * 2f64.powi(l.int(-600, 601) as i32),
        _ => sign * (1.0 + l.rng.next_f64()) * 2f64.powi(l.int(-60, 61) as i32),
    };
    *last = v;
    v
}

/// The supplier dimension: `id` (repeating, some ids matching no item),
/// `rating` and `nation`.
fn supplier(l: &mut Lattice) -> DecomposedTable {
    let rows = l.draw("supplier rows", &[0usize, 1, 60, 60, 60]);
    let rows = if rows > 1 { l.int(2, rows as i64) as usize } else { rows };
    let mut b = TableBuilder::new("supplier", if l.coin() { 0 } else { 50_000 })
        .column("id", ColType::I32)
        .column("rating", ColType::F64)
        .column("nation", ColType::Str);
    for _ in 0..rows {
        b.push_row(&[
            Value::I32(l.int(0, SUPPLIERS as i64 + 5) as i32),
            Value::F64(l.int(0, 1_000) as f64 / 7.0),
            Value::from(l.pick(&NATIONS)),
        ])
        .unwrap();
    }
    b.finish()
}

/// One predicate leaf over the fact table.
fn leaf(l: &mut Lattice) -> Pred {
    // Ranges that match rows are dealt more often than those that cannot.
    let kind = l.draw(
        "leaf",
        &[
            "i32 range",
            "i32 range",
            "i32 point",
            "i32 inverted",
            "f64 range",
            "f64 range",
            "f64 inverted",
            "str",
            "str",
            "str miss",
        ],
    );
    // Bounds around each column's values: `supp` is a supplier id, `qty`
    // at most 50, `batch` at most 8, `price` below 1000 and `discnt` at
    // most 0.1 — 20 and 0.002 per unit of the drawn bound.
    let (int_col, top) = l.pick(&[("supp", SUPPLIERS as i64), ("qty", 51), ("batch", 9)]);
    let (a, b) = (l.int(-2, top + 2) as i32, l.int(-2, top + 2) as i32);
    let (lo, hi) = (a.min(b), a.max(b));
    let (fcol, scale) = if l.coin() { ("price", 20.0) } else { ("discnt", 0.002) };
    let (flo, fhi) = (l.int(-2, 52) as f64 * scale, l.int(-2, 52) as f64 * scale);
    match kind {
        "i32 range" => Pred::range_i32(int_col, lo, hi),
        "i32 point" => Pred::range_i32(int_col, a, a),
        // Inside the column's values, so a frame header cannot rule it out.
        "i32 inverted" => Pred::range_i32(int_col, hi + 1, lo),
        "f64 range" => Pred::range_f64(fcol, flo.min(fhi), flo.max(fhi)),
        "f64 inverted" => Pred::range_f64(fcol, flo.max(fhi) + scale, flo.min(fhi)),
        "str" if l.coin() => Pred::eq_str("shipmode", l.pick(&SHIPMODES)),
        "str" => Pred::eq_str("flag", l.pick(&FLAGS)),
        _ => Pred::eq_str("shipmode", "WALRUS"),
    }
}

/// The filter of a plan, if it has one: a leaf, or a two- or three-leaf
/// tree — pure conjunctions (what pushdown reorders) or mixed with `OR`.
fn filter(l: &mut Lattice) -> Option<Pred> {
    let shape = l.draw("filter", &["none", "leaf", "and", "or", "and3", "and-or", "or-and"]);
    if shape == "none" {
        return None;
    }
    let a = leaf(l);
    Some(match shape {
        "leaf" => a,
        "and" => a.and(leaf(l)),
        "or" => a.or(leaf(l)),
        "and3" => a.and(leaf(l)).and(leaf(l)),
        "and-or" => a.and(leaf(l).or(leaf(l))),
        _ => a.or(leaf(l).and(leaf(l))),
    })
}

/// A plan over the two tables, and its description for failure messages.
fn plan<'a>(
    l: &mut Lattice,
    item: &'a DecomposedTable,
    supplier: &'a DecomposedTable,
) -> (LogicalPlan<'a>, String) {
    let mut q = Query::scan(item);
    let mut desc = String::from("scan(item)");
    if let Some(pred) = filter(l) {
        desc += &format!(" filter[{pred}]");
        q = q.filter(pred);
    }
    let joined = l.draw("join", &[false, true]);
    if joined {
        desc += " join[supp = id]";
        q = q.join(supplier, ("supp", "id"));
    }
    let shape = l.draw("aggregate", &["none", "scalar", "grouped", "grouped by part"]);
    if shape == "none" {
        return (q.build().unwrap(), desc);
    }
    if shape != "scalar" {
        let keys: &[&str] = match shape {
            "grouped by part" => &["part"],
            _ if joined => &["shipmode", "flag", "nation"],
            _ => &["shipmode", "flag"],
        };
        let key = l.pick(keys);
        desc += &format!(" group({key})");
        q = q.group_by(key);
    }
    let mut aggs = vec![
        Agg::sum("price"),
        Agg::sum("qty"),
        Agg::min("qty"),
        Agg::max("qty"),
        Agg::sum("discnt"),
    ];
    if joined {
        aggs.extend([Agg::sum("rating"), Agg::min("id"), Agg::max("id")]);
    }
    let mut chosen: Vec<Agg> = aggs.into_iter().filter(|_| l.coin()).collect();
    if chosen.is_empty() || l.coin() {
        chosen.push(Agg::count());
    }
    for agg in chosen {
        desc += &format!(" {agg}");
        q = q.agg(agg);
    }
    (q.build().unwrap(), desc)
}

/// Executor options with every field drawn.
pub fn exec_options(l: &mut Lattice) -> ExecOptions {
    ExecOptions {
        machine: profiles::origin2000(),
        planner: Planner::CostModel,
        threads: l.draw(
            "threads",
            &[
                Threads::Fixed(1),
                Threads::Fixed(2),
                Threads::Fixed(3),
                Threads::Fixed(7),
                Threads::Auto,
            ],
        ),
        access: l.draw("access", &[AccessMode::Scan, AccessMode::Index, AccessMode::Auto]),
        thread_cap: l.draw("thread cap", &[None, Some(1), Some(2), Some(4)]),
        compress: l.draw("compress", &[CompressMode::Off, CompressMode::On, CompressMode::Force]),
        pushdown: l.draw("pushdown", &[PushdownMode::Off, PushdownMode::On]),
    }
}

/// `execute` once per value of one option, `set` writing it into executor
/// options whose other fields are drawn.
pub fn sweep<T: Copy>(
    l: &mut Lattice,
    values: &[T],
    set: impl Fn(&mut ExecOptions, T),
) -> Vec<Path> {
    let opts = exec_options(l);
    values
        .iter()
        .map(|&v| {
            let mut opts = opts;
            set(&mut opts, v);
            Path::Execute { opts, simulated: false }
        })
        .collect()
}

/// The fields of executor options that vary, for failure messages.
fn describe(o: &ExecOptions) -> String {
    format!(
        "{:?} access={} compress={} pushdown={} cap={:?}",
        o.threads,
        o.access.name(),
        o.compress.name(),
        o.pushdown.name(),
        o.thread_cap
    )
}

/// Where a case runs.
pub enum Path {
    /// `execute`, under a simulating tracker when `simulated`.
    Execute { opts: ExecOptions, simulated: bool },
    /// `execute_sharded` over `shards` shards of both tables, co-partitioned
    /// on the join key.
    Sharded { shards: usize, opts: ExecOptions, simulated: bool },
    /// Two concurrent sessions of one service.
    Service(ServiceConfig),
}

impl fmt::Display for Path {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Path::Execute { opts, simulated } => {
                write!(f, "execute, simulated={simulated}, {}", describe(opts))
            }
            Path::Sharded { shards, opts, simulated } => {
                write!(f, "{shards} shards, simulated={simulated}, {}", describe(opts))
            }
            Path::Service(c) => write!(
                f,
                "service: shared={} cache={} chunk={} trace={:?} budget={}",
                c.shared_scans, c.cache_bytes, c.chunk_rows, c.trace, c.budget
            ),
        }
    }
}

/// A path with its configuration drawn.
pub fn path(l: &mut Lattice) -> Path {
    match l.draw("path", &["execute", "sharded", "service"]) {
        "execute" => {
            Path::Execute { opts: exec_options(l), simulated: l.draw("tracker", &[false, true]) }
        }
        "sharded" => Path::Sharded {
            shards: l.draw("shards", &[1usize, 2, 4, 7]),
            opts: exec_options(l),
            simulated: l.draw("tracker", &[false, true]),
        },
        _ => Path::Service(
            ServiceConfig::new()
                .with_shared_scans(l.draw("shared scans", &[false, true]))
                .with_cache_bytes(l.draw("cache", &[0, 4 << 20]))
                .with_chunk_rows(l.draw("chunk", &[0, 1024, 64 << 10]))
                .with_trace(l.draw("trace", &[TraceMode::Off, TraceMode::Ring]))
                .with_budget(l.draw("budget", &[1, 2, 3, 4])),
        ),
    }
}

/// Run `plan` on `path`; every output it produced.
fn run(
    path: &Path,
    plan: &LogicalPlan<'_>,
    item: &DecomposedTable,
    supplier: &DecomposedTable,
) -> Vec<QueryOutput> {
    match path {
        Path::Execute { opts, simulated: true } => {
            vec![execute(&mut SimTracker::for_machine(opts.machine), plan, opts).unwrap().output]
        }
        Path::Execute { opts, simulated: false } => {
            vec![execute(&mut NullTracker, plan, opts).unwrap().output]
        }
        Path::Sharded { shards, opts, simulated } => {
            let items = ShardedTable::partition(item, "supp", *shards).unwrap();
            let suppliers = ShardedTable::partition(supplier, "id", *shards).unwrap();
            let tables = [&items, &suppliers];
            let out = if *simulated {
                execute_sharded(&mut SimTracker::for_machine(opts.machine), plan, &tables, opts)
            } else {
                execute_sharded(&mut NullTracker, plan, &tables, opts)
            };
            vec![out.unwrap().output]
        }
        Path::Service(cfg) => {
            // Both submissions reach the service before either is admitted,
            // so with the cache on the second collapses onto the first, and
            // with it off a shared pass streams their common columns once.
            let svc = QueryService::new(cfg.clone());
            svc.pause_admission();
            std::thread::scope(|s| {
                let sessions: Vec<_> = (0..2)
                    .map(|_| s.spawn(|| svc.session().run(plan).unwrap().into_executed().output))
                    .collect();
                while svc.session_metrics().iter().map(|m| m.submitted).sum::<u64>() < 2 {
                    std::thread::yield_now();
                }
                svc.resume_admission();
                sessions.into_iter().map(|h| h.join().unwrap()).collect()
            })
        }
    }
}

/// How long a service case may take before its watchdog fails the run.
pub const SERVICE_DEADLINE: Duration = Duration::from_secs(10);

/// Arm a watchdog over one service case; dropping the returned sender
/// disarms it. A session parked on the service's condvar cannot be
/// unwound — the scope that spawned it would wait on it forever — so on
/// the deadline the watchdog prints `context` and exits the process.
fn watchdog(context: String) -> mpsc::Sender<()> {
    let (disarm, armed) = mpsc::channel();
    thread::spawn(move || {
        if let Err(RecvTimeoutError::Timeout) = armed.recv_timeout(SERVICE_DEADLINE) {
            // Straight to stderr: the harness would capture `eprintln!`, and
            // its buffer is lost on exit.
            let _ =
                writeln!(io::stderr(), "{context}\n  hung: no result within {SERVICE_DEADLINE:?}");
            std::process::exit(101);
        }
    });
    disarm
}

/// Draw `cases` cases — tables, a plan, and the paths `paths` draws for
/// them — and assert every output of every path equals the reference's
/// bit for bit; then that every axis drawn dealt all its values.
pub fn check(l: &mut Lattice, cases: usize, mut paths: impl FnMut(&mut Lattice) -> Vec<Path>) {
    for case in 0..cases {
        let item = item(l);
        let supplier = supplier(l);
        let (plan, plan_desc) = plan(l, &item, &supplier);
        let expect = reference::evaluate(&plan);
        for path in paths(l) {
            let context = format!(
                "case {case}: {plan_desc}\n  {} item rows at seqbase {}, {} supplier rows\n  {path}",
                item.len(),
                item.seqbase(),
                supplier.len(),
            );
            let armed = matches!(path, Path::Service(_)).then(|| watchdog(context.clone()));
            let outs =
                panic::catch_unwind(AssertUnwindSafe(|| run(&path, &plan, &item, &supplier)))
                    .unwrap_or_else(|e| {
                        eprintln!("{context}");
                        panic::resume_unwind(e)
                    });
            drop(armed);
            for got in outs {
                assert!(
                    got.bitwise_eq(&expect),
                    "{context}\n  got:       {got:?}\n  reference: {expect:?}"
                );
            }
        }
    }
    l.assert_covered();
}
