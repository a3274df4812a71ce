//! Gather-and-fold — the aggregation of §2 ("simple aggregation (e.g. Max or
//! Sum)") and the hash-grouping of §3.2 as one operator.
//!
//! "Hash-grouping scans the relation once, keeping a temporary hash-table
//! where the GROUP-BY values are a key that give access to the aggregate
//! totals. This number of groups is often limited, such that this hash-table
//! fits the L2 cache, and probably also the L1 cache." For byte-encoded
//! group keys the hash table degenerates into a direct-indexed array of
//! ≤ 65536 slots — the best case the paper describes — and an ungrouped
//! aggregate is the same table with one slot.
//!
//! [`fold`] keeps operator-at-a-time semantics at its boundary (BATs and a
//! survivor list in, per-group totals out) but runs vector-at-a-time inside
//! it: it walks the survivors **once, in blocks of at most [`FRAME_LEN`]
//! rows**. Per block it gathers the key codes into a cache-resident buffer,
//! then folds each *distinct* source column — one column at one side of the
//! stream — once: **a column is gathered once per block, however many sinks
//! read it**. A column one sink reads goes from its gather straight into
//! that sink's table, gather, cut and scatter in one loop; a gathered column
//! several sinks read (`MIN(qty)`, `MAX(qty)`, `SUM(qty)`) is gathered into
//! a buffer each sink then reads, and ungrouped, the integer sinks of one
//! column share one walk. The group counts ride the block's first scatter.
//! No survivor-length intermediate is ever materialised. Every sink is
//! exact: integers sum in `i64`, and an `f64` sum is an [`ExactSum`],
//! rounded once when the result is read, so no result depends on the order
//! in which the rows arrive. A block of `f64` values reaches its
//! accumulator as two values, the lane sums of the [block
//! kernel](crate::exact): per group under a key, straight off the walk
//! without one.
//!
//! # Charging contract
//!
//! Under a counting [`MemTracker`] the fold charges what it does, per block:
//!
//! * **gather** — a value addressed through a candidate list or a join
//!   index costs one read of the source plus one [`Work::ScanIter`] (what
//!   `costmodel`'s `Gather` shape prices), once per distinct column
//!   (and once for the key) — the gathers [`gathers`] counts;
//! * **consume** — grouped, one [`Work::HashTuple`] per row, charged with
//!   the key (and one read of a gathered key's buffered code); ungrouped, one
//!   [`Work::ScanIter`] per value and sink (the `Aggregate` shape), a
//!   gather's own iteration being the first sink's. A sink that reads a
//!   buffered column also pays one read of the (L1-resident) buffer slot
//!   per value.
//!
//! So a value reaches a sink with one read when nothing buffers it: a
//! column one sink reads, grouped or not, and every column of an
//! ungrouped integer fold. [`Rows::All`] is read where it lies, by each
//! sink that reads it, and never buffered: there is no gather to share,
//! and the buffer would only hold a conversion (the `f64` of an `i32` a
//! sum wants is a register move, not a second column).
//!
//! # Parallel decomposition
//!
//! With `threads > 1` [`fold`] cuts the stream into contiguous **row
//! chunks**, one per worker, whatever its sinks: every sink combines
//! exactly — integer sums, extrema and counts by integer arithmetic, `f64`
//! sums by merging their accumulators — so the workers' tables, combined in
//! any order, are the sequential fold's, bit for bit. Under a counting
//! tracker each worker charges a simulated hierarchy of its own
//! ([`fan_out`]), and the fold's counters are the sum of its workers' work:
//! every value is read and consumed once, by one worker, so the reads and
//! the work are the sequential fold's at every thread count.

use memsim::{track_read, MemTracker, Work};
use monet_core::compress::FRAME_LEN;
use monet_core::join::OidPair;
use monet_core::scan::{chunks, fan_out};
use monet_core::storage::{Bat, Codes, Column, Head, Oid, StorageError};

use crate::exact::{ExactSum, Split};
use crate::EngineError;

/// The surviving rows of a stream, in stream order.
#[derive(Debug, Clone, Copy)]
pub enum Rows<'a> {
    /// Every row of the (equally long) source columns, in physical order.
    All(usize),
    /// The rows at these candidate OIDs of one table.
    Cands(&'a [Oid]),
    /// The row pairs of a join index; each column is addressed through its
    /// [`Side`] of the pair.
    Pairs(&'a [OidPair]),
}

impl Rows<'_> {
    /// Number of surviving rows.
    pub fn len(&self) -> usize {
        match self {
            Rows::All(n) => *n,
            Rows::Cands(c) => c.len(),
            Rows::Pairs(p) => p.len(),
        }
    }

    /// Whether no row survives.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Which OID of a [`Rows::Pairs`] row addresses a column (single-table
/// streams address every column from the left).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Side {
    /// The pair's left (outer) OID.
    Left,
    /// The pair's right (inner) OID.
    Right,
}

/// A source column and the side of the stream that addresses it.
#[derive(Debug, Clone, Copy)]
pub struct Input<'a> {
    /// The column; needs a void head unless the stream is [`Rows::All`].
    pub bat: &'a Bat,
    /// Which OID of a join pair is a position in `bat`.
    pub side: Side,
}

/// What [`fold`] does with one column's values.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sink {
    /// Exact `i64` sum of an `I32` column.
    SumI64,
    /// Minimum of an `I32` column.
    Min,
    /// Maximum of an `I32` column.
    Max,
    /// Exact sum of an `F64` column, rounded to `f64` once.
    SumF64,
}

impl Sink {
    /// A fresh accumulator for this sink: `width` slots holding its
    /// identity.
    pub(crate) fn table(self, width: usize) -> Acc {
        match self {
            Sink::SumI64 => Acc::Exact(vec![0; width]),
            Sink::Min => Acc::Exact(vec![i64::MAX; width]),
            Sink::Max => Acc::Exact(vec![i64::MIN; width]),
            Sink::SumF64 => Acc::F64(vec![None; width]),
        }
    }

    /// Combine two partial results of an exact sink.
    fn combine(self, a: i64, b: i64) -> i64 {
        match self {
            Sink::Min => a.min(b),
            Sink::Max => a.max(b),
            _ => a + b,
        }
    }
}

/// One column's folded values.
#[derive(Debug, Clone, PartialEq)]
pub enum Acc {
    /// An exact sink's total per group code. A group without rows holds the
    /// sink's identity (`0`, `i64::MAX` for `Min`, `i64::MIN` for `Max`).
    Exact(Vec<i64>),
    /// [`Sink::SumF64`]: the exact sum per group code, allocated at the
    /// group's first non-zero term (`None` sums to `+0.0`). An allocated
    /// sum is a boxed [`ExactSum`] of 544 bytes (67 limbs, a carry count
    /// and a flags byte), where a running `f64` sum was 8: over a `U16` key
    /// whose 65 536 codes all occur, a column holds about 36 MB per fold
    /// worker, and a shard ships as much.
    F64(Vec<Option<Box<ExactSum>>>),
}

impl Acc {
    /// An exact sink's table.
    fn exact_mut(&mut self) -> &mut [i64] {
        match self {
            Acc::Exact(t) => t,
            Acc::F64(_) => unreachable!("resolve pairs the exact sinks with I32 columns"),
        }
    }

    /// An `f64` sum's accumulators.
    fn f64_mut(&mut self) -> &mut [Option<Box<ExactSum>>] {
        match self {
            Acc::F64(sums) => sums,
            Acc::Exact(_) => unreachable!("resolve pairs the f64 sum with F64 columns"),
        }
    }

    /// The `f64` sum of group `code`, rounded once, when the column is a
    /// [`Sink::SumF64`] one.
    pub fn f64_sum(&self, code: usize) -> Option<f64> {
        match self {
            Acc::F64(sums) => Some(sums[code].as_deref().map_or(0.0, ExactSum::finish)),
            Acc::Exact(_) => None,
        }
    }
}

/// The result of one [`fold`]. Tables are indexed by group code and span the
/// key's whole code domain (256 or 65536 slots; one slot when ungrouped):
/// the occurring groups are the codes whose count is non-zero.
#[derive(Debug, Clone, PartialEq)]
pub struct Folded {
    /// Rows per group code.
    pub counts: Vec<u64>,
    /// One entry per input column, in input order.
    pub cols: Vec<Acc>,
    /// Rows each worker accumulated (one entry for a sequential fold).
    pub shards: Vec<usize>,
}

impl Folded {
    /// Take in `part`, a fold of other rows of the same stream under the
    /// same `sinks`: add its counts and combine its columns.
    pub(crate) fn absorb(&mut self, part: Folded, sinks: impl IntoIterator<Item = Sink>) {
        for (total, rows) in self.counts.iter_mut().zip(&part.counts) {
            *total += rows;
        }
        for ((acc, more), sink) in self.cols.iter_mut().zip(part.cols).zip(sinks) {
            match (acc, more) {
                (Acc::Exact(acc), Acc::Exact(more)) => {
                    for (a, b) in acc.iter_mut().zip(more) {
                        *a = sink.combine(*a, b);
                    }
                }
                (Acc::F64(acc), Acc::F64(more)) => {
                    for (a, b) in acc.iter_mut().zip(more) {
                        match (a, b) {
                            (Some(a), Some(b)) => a.merge(&b),
                            (a, b @ Some(_)) => *a = b,
                            (_, None) => {}
                        }
                    }
                }
                _ => unreachable!("both folds give a column the same sink"),
            }
        }
    }
}

/// A column slice in one of the element types the fold reads.
#[derive(Clone, Copy)]
enum Src<'a> {
    U8(&'a [u8]),
    U16(&'a [u16]),
    I32(&'a [i32]),
    F64(&'a [f64]),
}

/// How a stream row becomes a position in a column: the side of the row
/// that holds the column's OID, and the OID of the column's first tuple.
#[derive(Clone, Copy)]
struct At {
    side: Side,
    seqbase: Oid,
}

/// A type-checked input: its values and where the stream finds them.
#[derive(Clone, Copy)]
struct Col<'a> {
    src: Src<'a>,
    at: At,
}

/// Check `input` can be read at `rows` and holds what its role needs: key
/// codes for the key (`sink` is `None`), `I32` for the integer sinks, `F64`
/// for the `f64` one.
fn resolve<'a>(
    input: Input<'a>,
    rows: Rows<'_>,
    sink: Option<Sink>,
) -> Result<Col<'a>, EngineError> {
    let src = match (input.bat.tail(), sink) {
        (Column::U8(v), None) => Src::U8(v),
        (Column::Str(sc), None) => match &sc.codes {
            Codes::U8(v) => Src::U8(v),
            Codes::U16(v) => Src::U16(v),
        },
        (Column::I32(v), Some(Sink::SumI64 | Sink::Min | Sink::Max)) => Src::I32(v),
        (Column::F64(v), Some(Sink::SumF64)) => Src::F64(v),
        (other, _) => {
            let op = match sink {
                None => "group key",
                Some(Sink::Min | Sink::Max) => "min/max input",
                Some(_) => "aggregate input",
            };
            return Err(EngineError::UnsupportedType { op, ty: other.value_type() });
        }
    };
    let seqbase = match (rows, input.bat.head()) {
        (Rows::All(n), _) => {
            assert_eq!(input.bat.len(), n, "fold inputs must align with the stream");
            0
        }
        (_, Head::Void { seqbase }) => *seqbase,
        (_, Head::Oids(_)) => return Err(EngineError::Storage(StorageError::NonVoidHead)),
    };
    Ok(Col { src, at: At { side: input.side, seqbase } })
}

/// Gather `data` at the candidate OIDs of a void-headed column whose first
/// tuple is `seqbase` — the positional join of §3.1 ("effectively
/// eliminating all join cost"), for the callers that want the values as a
/// vector. Charged as a gather (see the [module docs](self)).
pub fn gather<M: MemTracker, T: Copy>(
    trk: &mut M,
    data: &[T],
    seqbase: Oid,
    cands: &[Oid],
) -> Vec<T> {
    gather_with(trk, data, seqbase, cands, |_, v| v)
}

/// [`gather`], emitting `f(oid, value)` per candidate — charged the same.
pub(crate) fn gather_with<M: MemTracker, T: Copy, U>(
    trk: &mut M,
    data: &[T],
    seqbase: Oid,
    cands: &[Oid],
    f: impl Fn(Oid, T) -> U,
) -> Vec<U> {
    if M::ENABLED {
        trk.work(Work::ScanIter, cands.len() as u64);
    }
    cands
        .iter()
        .map(|&oid| {
            let v = &data[(oid - seqbase) as usize];
            track_read(trk, v);
            f(oid, *v)
        })
        .collect()
}

/// Bind `$items`, the block's rows of the stream, and `$get`, the read of
/// the value an item addresses in a column, then evaluate `$body`: one copy
/// per kind of stream and side, so the loop in `$body` is monomorphised
/// with its addressing.
macro_rules! with_rows {
    ($blk:expr, $src:expr, |$items:ident, $get:ident| $body:expr) => {{
        let (blk, (data, at)): (&Block<'_>, (&[_], At)) = ($blk, $src);
        let (lo, hi) = blk.span;
        let pos = move |oid: Oid| (oid - at.seqbase) as usize;
        match (blk.rows, at.side) {
            (Rows::All(_), _) => {
                let ($items, $get) = (&data[lo..hi], std::convert::identity);
                $body
            }
            (Rows::Cands(c), _) => {
                let ($items, $get) = (&c[lo..hi], move |o: Oid| data[pos(o)]);
                $body
            }
            (Rows::Pairs(p), Side::Left) => {
                let ($items, $get) = (&p[lo..hi], move |p: OidPair| data[pos(p.left)]);
                $body
            }
            (Rows::Pairs(p), Side::Right) => {
                let ($items, $get) = (&p[lo..hi], move |p: OidPair| data[pos(p.right)]);
                $body
            }
        }
    }};
}

/// One block of the stream and what the folds of its columns share: the
/// stream rows `span.0..span.1` and their key codes when grouped.
struct Block<'a> {
    rows: Rows<'a>,
    span: (usize, usize),
    codes: Option<&'a [u16]>,
}

impl Block<'_> {
    /// Rows in the block.
    fn len(&self) -> usize {
        self.span.1 - self.span.0
    }

    /// The block's walk over one column: fold `data`'s value at each of the
    /// block's rows, in stream order, into `acc`.
    #[inline(always)]
    fn walk<T, A>(&self, data: &[T], at: At, acc: A, mut f: impl FnMut(A, &T) -> A) -> A {
        let (lo, hi) = self.span;
        let pos = |oid: Oid| (oid - at.seqbase) as usize;
        match (self.rows, at.side) {
            (Rows::All(_), _) => data[lo..hi].iter().fold(acc, f),
            (Rows::Cands(c), _) => c[lo..hi].iter().fold(acc, |a, &o| f(a, &data[pos(o)])),
            (Rows::Pairs(p), Side::Left) => {
                p[lo..hi].iter().fold(acc, |a, p| f(a, &data[pos(p.left)]))
            }
            (Rows::Pairs(p), Side::Right) => {
                p[lo..hi].iter().fold(acc, |a, p| f(a, &data[pos(p.right)]))
            }
        }
    }

    /// Whether the block's values are gathered (not read where they lie).
    fn gathered(&self) -> bool {
        !matches!(self.rows, Rows::All(_))
    }

    /// Whether `sinks` sinks of one column take its values from a buffer:
    /// when they are gathered and more than one sink reads them, so the
    /// column is gathered once (see the [module docs](self)).
    fn buffers(&self, sinks: usize) -> bool {
        self.gathered() && sinks > 1
    }

    /// Charge the reads of a [`walk`](Self::walk), and the gather work when
    /// the rows are addressed by OID.
    fn charge_reads<M: MemTracker, T>(&self, trk: &mut M, data: &[T], at: At) {
        if M::ENABLED {
            self.walk(data, at, (), |(), v| track_read(trk, v));
            if self.gathered() {
                trk.work(Work::ScanIter, self.len() as u64);
            }
        }
    }

    /// Charge a column `sinks` ungrouped sinks take straight off the walk:
    /// its reads, and one iteration per value and sink (a gather's
    /// iteration is the first sink's).
    fn charge_direct<M: MemTracker, T>(&self, trk: &mut M, (data, at): (&[T], At), sinks: usize) {
        self.charge_reads(trk, data, at);
        if M::ENABLED {
            let more = sinks - usize::from(self.gathered());
            trk.work(Work::ScanIter, (self.len() * more) as u64);
        }
    }

    /// Charge one sink's consumption of a buffered block: a read of each
    /// slot and, ungrouped, an iteration per value.
    fn charge_buffer<M: MemTracker, V>(&self, trk: &mut M, vals: &[V]) {
        if M::ENABLED {
            vals.iter().for_each(|v| track_read(trk, v));
            if self.codes.is_none() {
                trk.work(Work::ScanIter, vals.len() as u64);
            }
        }
    }

    /// Gather-and-convert the block's values of one column into `buf`,
    /// charging the reads. Every block loop is kept out of line, so the
    /// monomorphised copies do not compete for registers inside the
    /// dispatch; a block has at most `FRAME_LEN` rows, so the index mask is
    /// a no-op that spares the store its bounds check.
    #[inline(never)]
    fn load<'b, M: MemTracker, T: Copy, V>(
        &self,
        trk: &mut M,
        buf: &'b mut [V; FRAME_LEN],
        (data, at): (&[T], At),
        conv: impl Fn(T) -> V,
    ) -> &'b [V] {
        self.charge_reads(trk, data, at);
        let n = self.walk(data, at, 0, |n, &v| {
            buf[n & (FRAME_LEN - 1)] = conv(v);
            n + 1
        });
        &buf[..n]
    }

    /// Fold the block's values of an `I32` column into the tables of its
    /// exact `sinks` (by their index in `accs`). Grouped, the first sink
    /// to scatter takes the count owed in `tally`.
    #[inline(never)]
    fn exact<M: MemTracker>(
        &self,
        trk: &mut M,
        src: (&[i32], At),
        sinks: &[(usize, Sink)],
        accs: &mut [Acc],
        buf: &mut [i32; FRAME_LEN],
        tally: &mut &mut [u64],
    ) {
        let Some(codes) = self.codes else {
            // Ungrouped: one walk takes every sink's total.
            self.charge_direct(trk, src, sinks.len());
            let (sum, min, max) = with_rows!(self, src, |items, get| totals(items, get));
            for &(j, sink) in sinks {
                let total = &mut accs[j].exact_mut()[0];
                *total = match sink {
                    Sink::Min => (*total).min(min.into()),
                    Sink::Max => (*total).max(max.into()),
                    _ => *total + sum,
                };
            }
            return;
        };
        let vals = self.buffers(sinks.len()).then(|| self.load(trk, buf, src, |v| v));
        for &(j, sink) in sinks {
            let (table, tally) = (accs[j].exact_mut(), std::mem::take(tally));
            match vals {
                Some(vals) => {
                    self.charge_buffer(trk, vals);
                    scatter_exact(sink, table, codes, vals, |v| v, tally);
                }
                None => {
                    self.charge_reads(trk, src.0, src.1);
                    with_rows!(self, src, |items, get| scatter_exact(
                        sink, table, codes, items, get, tally
                    ));
                }
            }
        }
    }

    /// Sum the block's values of an `F64` column into the accumulators of
    /// its `sinks` (by their index in `accs` and `splits`), a block at a
    /// time through each sink's split (grouped: through the per-group
    /// partials `parts`, the first sink taking the count owed in `tally`).
    #[allow(clippy::too_many_arguments)] // one block's buffers and tables
    #[inline(never)]
    fn sums<M: MemTracker>(
        &self,
        trk: &mut M,
        src: (&[f64], At),
        sinks: &[(usize, Sink)],
        accs: &mut [Acc],
        splits: &mut [Split],
        buf: &mut [f64; FRAME_LEN],
        parts: &mut [(i64, f64)],
        tally: &mut &mut [u64],
    ) {
        let vals = self.buffers(sinks.len()).then(|| self.load(trk, buf, src, |v| v));
        for &(j, _) in sinks {
            let (split, sums) = (&mut splits[j], accs[j].f64_mut());
            match (vals, self.codes) {
                (Some(vals), codes) => {
                    self.charge_buffer(trk, vals);
                    match codes {
                        Some(codes) => {
                            split.grouped(codes, vals, |v| v, std::mem::take(tally), parts, sums)
                        }
                        None => split.block(slot0(sums), vals, |v| v),
                    }
                }
                (None, Some(codes)) => {
                    self.charge_reads(trk, src.0, src.1);
                    let tally = std::mem::take(tally);
                    with_rows!(self, src, |items, get| split
                        .grouped(codes, items, get, tally, parts, sums));
                }
                (None, None) => {
                    self.charge_direct(trk, src, 1);
                    with_rows!(self, src, |items, get| split.block(slot0(sums), items, get));
                }
            }
        }
    }
}

/// The sum, least and greatest of a block's `I32` values, in one walk.
#[inline(never)]
fn totals<I: Copy>(items: &[I], get: impl Fn(I) -> i32) -> (i64, i32, i32) {
    items.iter().fold((0, i32::MAX, i32::MIN), |(sum, min, max), &item| {
        let v = get(item);
        (sum + i64::from(v), min.min(v), max.max(v))
    })
}

/// Scatter a block's values into an exact sink's per-group `table`.
#[inline(always)]
fn scatter_exact<I: Copy>(
    sink: Sink,
    table: &mut [i64],
    codes: &[u16],
    items: &[I],
    get: impl Fn(I) -> i32,
    tally: &mut [u64],
) {
    match sink {
        Sink::SumI64 => scatter(table, codes, items, |a, i| a + i64::from(get(i)), tally),
        Sink::Min => scatter(table, codes, items, |a, i| a.min(get(i).into()), tally),
        Sink::Max => scatter(table, codes, items, |a, i| a.max(get(i).into()), tally),
        Sink::SumF64 => unreachable!("resolve pairs the f64 sum with an F64 column"),
    }
}

/// The one scatter loop of the integer sinks: `table[code] = op(table[code],
/// item)` for every row of the block (a code is below the table's width by
/// construction, and the miss is the bounds check), counting each row into
/// `tally` on the way (an empty `tally` counts nothing).
#[inline(never)]
fn scatter<I: Copy>(
    table: &mut [i64],
    codes: &[u16],
    items: &[I],
    op: impl Fn(i64, I) -> i64,
    tally: &mut [u64],
) {
    for (&c, &item) in codes.iter().zip(items) {
        let c = usize::from(c);
        if let Some(rows) = tally.get_mut(c) {
            *rows += 1;
        }
        if let Some(slot) = table.get_mut(c) {
            *slot = op(*slot, item);
        }
    }
}

/// Count each row of a block into `tally` by its code.
#[inline(never)]
fn count(tally: &mut [u64], codes: &[u16]) {
    for &c in codes {
        if let Some(rows) = tally.get_mut(usize::from(c)) {
            *rows += 1;
        }
    }
}

/// The one accumulator of an ungrouped sum.
fn slot0(sums: &mut [Option<Box<ExactSum>>]) -> &mut ExactSum {
    sums[0].get_or_insert_with(Box::default)
}

/// A distinct source column of a fold — one column at one side of the
/// stream — and the sinks that read it, by their index among the fold's
/// columns.
struct Source<'a> {
    col: Col<'a>,
    sinks: Vec<(usize, Sink)>,
}

/// Fold stream rows `lo..hi`, a block at a time: per block, the key codes,
/// then each source column once, into the tables of `sinks` (the fold's
/// columns' sinks, in input order).
fn fold_span<M: MemTracker>(
    trk: &mut M,
    rows: Rows<'_>,
    key: Option<Col<'_>>,
    sources: &[Source<'_>],
    sinks: &[Sink],
    (lo, hi): (usize, usize),
) -> Folded {
    let width = domain(key);
    let mut counts = vec![0u64; width];
    let mut accs: Vec<Acc> = sinks.iter().map(|sink| sink.table(width)).collect();
    let mut splits = vec![Split::default(); sinks.len()];
    let grouped_sum = key.is_some() && sinks.contains(&Sink::SumF64);
    let mut parts = vec![(0, 0.0); if grouped_sum { width } else { 0 }];
    let (mut kbuf, mut ibuf, mut fbuf) = ([0u16; FRAME_LEN], [0i32; FRAME_LEN], [0f64; FRAME_LEN]);

    for b in (lo..hi).step_by(FRAME_LEN) {
        let mut blk = Block { rows, span: (b, (b + FRAME_LEN).min(hi)), codes: None };
        // The block's row count per group, owed until a scatter takes it.
        let mut tally: &mut [u64] = &mut [];
        match key {
            Some(k) => {
                let codes = match k.src {
                    Src::U8(d) => blk.load(trk, &mut kbuf, (d, k.at), u16::from),
                    Src::U16(d) => blk.load(trk, &mut kbuf, (d, k.at), |c| c),
                    _ => unreachable!("resolve admits only code columns as keys"),
                };
                if M::ENABLED {
                    if blk.gathered() {
                        codes.iter().for_each(|c| track_read(trk, c));
                    }
                    trk.work(Work::HashTuple, codes.len() as u64);
                }
                blk.codes = Some(codes);
                tally = &mut counts;
            }
            None => counts[0] += blk.len() as u64,
        }
        for s in sources {
            let at = s.col.at;
            match s.col.src {
                Src::I32(d) => blk.exact(trk, (d, at), &s.sinks, &mut accs, &mut ibuf, &mut tally),
                Src::F64(d) => blk.sums(
                    trk,
                    (d, at),
                    &s.sinks,
                    &mut accs,
                    &mut splits,
                    &mut fbuf,
                    &mut parts,
                    &mut tally,
                ),
                _ => unreachable!("resolve pairs every sink with a value column"),
            }
        }
        // No sink scattered the block: count it alone.
        if let (Some(codes), false) = (blk.codes, tally.is_empty()) {
            count(tally, codes);
        }
    }
    Folded { counts, cols: accs, shards: Vec::new() }
}

/// Slots of a table indexed by the codes of `key`: the whole code domain of
/// its width, or the one slot of an ungrouped fold.
fn domain(key: Option<Col<'_>>) -> usize {
    match key.map(|k| k.src) {
        None => 1,
        Some(Src::U8(_)) => 256,
        Some(_) => 65536,
    }
}

/// The distinct source columns of `cols` (the same column at the same side
/// of the stream is one source, however many sinks read it), checked.
fn sources<'a>(rows: Rows<'_>, cols: &[(Input<'a>, Sink)]) -> Result<Vec<Source<'a>>, EngineError> {
    let mut seen: Vec<(Input<'a>, Source<'a>)> = Vec::new();
    for (j, &(input, sink)) in cols.iter().enumerate() {
        let col = resolve(input, rows, Some(sink))?;
        let same = |i: &Input<'_>| std::ptr::eq(i.bat, input.bat) && i.side == input.side;
        match seen.iter_mut().find(|(i, _)| same(i)) {
            Some((_, source)) => source.sinks.push((j, sink)),
            None => seen.push((input, Source { col, sinks: vec![(j, sink)] })),
        }
    }
    Ok(seen.into_iter().map(|(_, source)| source).collect())
}

/// How many columns a fold of `cols` over a gathered stream gathers per
/// row: each distinct source column once, and the key when `grouped` —
/// what the [`OpShape::Gather`](costmodel::quote::OpShape::Gather) shapes
/// of its report, and the parallel quote, count.
pub fn gathers(cols: &[(Input<'_>, Sink)], grouped: bool) -> usize {
    let distinct = (0..cols.len())
        .filter(|&j| {
            let (a, _) = cols[j];
            !cols[..j].iter().any(|(b, _)| std::ptr::eq(a.bat, b.bat) && a.side == b.side)
        })
        .count();
    distinct + usize::from(grouped)
}

/// Fold the columns `cols` over the surviving `rows` of a stream, grouped by
/// the codes of `key` when given: per group code the row count and, per
/// column, what its [`Sink`] accumulates. One pass, a block at a time; with
/// `threads > 1` in row chunks, bit-identical to the sequential fold at
/// every thread count — see the [module docs](self) for both contracts.
///
/// Errors with [`StorageError::NonVoidHead`] when a column with a
/// materialized head is addressed by OID, and with
/// [`EngineError::UnsupportedType`] when a column cannot feed its role.
pub fn fold<M: MemTracker>(
    trk: &mut M,
    rows: Rows<'_>,
    key: Option<Input<'_>>,
    cols: &[(Input<'_>, Sink)],
    threads: usize,
) -> Result<Folded, EngineError> {
    let key = key.map(|k| resolve(k, rows, None)).transpose()?;
    let sources = sources(rows, cols)?;
    let sinks: Vec<Sink> = cols.iter().map(|&(_, sink)| sink).collect();

    let parts = fan_out(trk, chunks(rows.len(), threads), |trk, span| {
        fold_span(trk, rows, key, &sources, &sinks, span)
    });
    let shards = parts.iter().map(|p| p.counts.iter().sum::<u64>() as usize).collect();
    let mut parts = parts.into_iter();
    let mut out = parts.next().expect("fan_out yields at least one part");
    for part in parts {
        out.absorb(part, sinks.iter().copied());
    }
    out.shards = shards;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use memsim::{profiles, NullTracker, SimTracker};
    use monet_core::storage::StrColumn;

    fn left(bat: &Bat) -> Input<'_> {
        Input { bat, side: Side::Left }
    }

    fn i32_bat(seqbase: Oid, vals: Vec<i32>) -> Bat {
        Bat::with_void_head(seqbase, Column::I32(vals))
    }

    fn exact(acc: &Acc) -> &[i64] {
        match acc {
            Acc::Exact(t) => t,
            Acc::F64(_) => panic!("exact sink expected"),
        }
    }

    /// Every slot of an `f64` sum, rounded.
    fn floats(acc: &Acc) -> Vec<f64> {
        match acc {
            Acc::F64(t) => (0..t.len()).map(|c| acc.f64_sum(c).unwrap()).collect(),
            Acc::Exact(_) => panic!("f64 sink expected"),
        }
    }

    /// `SUM`, `MIN`, `MAX` of an `I32` column and the row count, ungrouped.
    fn scalars(bat: &Bat, rows: Rows<'_>, threads: usize) -> (i64, i64, i64, u64) {
        let cols = [Sink::SumI64, Sink::Min, Sink::Max].map(|sink| (left(bat), sink));
        let f = fold(&mut NullTracker, rows, None, &cols, threads).unwrap();
        (exact(&f.cols[0])[0], exact(&f.cols[1])[0], exact(&f.cols[2])[0], f.counts[0])
    }

    #[test]
    fn ungrouped_aggregates_full_and_candidate_restricted() {
        let b = i32_bat(10, vec![4, -2, 9, 9, 1]);
        assert_eq!(scalars(&b, Rows::All(5), 1), (21, -2, 9, 5));
        // Values 4, 9, 1.
        assert_eq!(scalars(&b, Rows::Cands(&[10, 12, 14]), 1), (14, 1, 9, 3));
        // No survivors: the sinks' identities, and a zero count to tell.
        assert_eq!(scalars(&b, Rows::Cands(&[]), 1), (0, i64::MAX, i64::MIN, 0));

        let f = Bat::with_void_head(0, Column::F64(vec![1.5, 2.5]));
        let got = fold(&mut NullTracker, Rows::All(2), None, &[(left(&f), Sink::SumF64)], 1);
        assert_eq!(floats(&got.unwrap().cols[0]), [4.0]);
    }

    #[test]
    fn a_column_that_cannot_feed_its_role_is_a_type_error() {
        let f = Bat::with_void_head(0, Column::F64(vec![1.0]));
        let i = i32_bat(0, vec![1]);
        for (key, col, sink) in [
            (None, &f, Sink::SumI64),
            (None, &f, Sink::Min),
            (None, &i, Sink::SumF64),
            (Some(&i), &f, Sink::SumF64),
        ] {
            let got = fold(&mut NullTracker, Rows::All(1), key.map(left), &[(left(col), sink)], 1);
            assert!(matches!(got, Err(EngineError::UnsupportedType { .. })), "{sink:?}");
        }
    }

    #[test]
    fn oid_addressing_needs_a_void_head_but_a_full_fold_does_not() {
        let b = Bat::new(Head::Oids(vec![3, 1]), Column::I32(vec![10, 20])).unwrap();
        let cols = [(left(&b), Sink::SumI64)];
        for rows in [Rows::Cands(&[1]), Rows::Pairs(&[OidPair { left: 1, right: 1 }])] {
            assert!(matches!(
                fold(&mut NullTracker, rows, None, &cols, 1),
                Err(EngineError::Storage(StorageError::NonVoidHead))
            ));
        }
        assert_eq!(scalars(&b, Rows::All(2), 1).0, 30);
        assert_eq!(scalars(&b, Rows::All(2), 8).0, 30);
    }

    #[test]
    #[should_panic(expected = "must align")]
    fn misaligned_inputs_panic() {
        let k = Bat::with_void_head(0, Column::U8(vec![1]));
        let v = Bat::with_void_head(0, Column::F64(vec![]));
        let _ =
            fold(&mut NullTracker, Rows::All(1), Some(left(&k)), &[(left(&v), Sink::SumF64)], 1);
    }

    #[test]
    fn groups_by_code_in_one_pass_over_any_number_of_columns() {
        let k = Bat::with_void_head(
            0,
            Column::Str(StrColumn::from_strs(["AIR", "MAIL", "AIR", "SHIP", "MAIL", "AIR"])),
        );
        let v1 = Bat::with_void_head(0, Column::F64(vec![1.0, 2.0, 4.0, 8.0, 16.0, 32.0]));
        let v2 = i32_bat(0, vec![5, -2, 9, 7, 4, 1]);
        let cols = [
            (left(&v1), Sink::SumF64),
            (left(&v2), Sink::SumI64),
            (left(&v2), Sink::Min),
            (left(&v2), Sink::Max),
        ];
        let f = fold(&mut NullTracker, Rows::All(6), Some(left(&k)), &cols, 1).unwrap();
        // AIR=0, MAIL=1, SHIP=2 by insertion order; a 1-byte key spans 256.
        assert_eq!(f.counts.len(), 256);
        assert_eq!(f.counts[..4], [3, 2, 1, 0]);
        assert_eq!(floats(&f.cols[0])[..3], [37.0, 18.0, 8.0]);
        assert_eq!(exact(&f.cols[1])[..3], [15, 2, 7]);
        assert_eq!(exact(&f.cols[2])[..3], [1, -2, 7]);
        assert_eq!(exact(&f.cols[3])[..3], [9, 4, 7]);

        // No value columns: still groups and counts. Raw U8 keys work too.
        let k = Bat::with_void_head(0, Column::U8(vec![3, 3, 1]));
        let f = fold(&mut NullTracker, Rows::All(3), Some(left(&k)), &[], 1).unwrap();
        assert_eq!((f.counts[1], f.counts[3], f.counts.iter().sum::<u64>()), (1, 2, 3));
    }

    #[test]
    fn gather_is_positional_from_the_seqbase() {
        let data = [10, 20, 30, 40];
        assert_eq!(gather(&mut NullTracker, &data, 1000, &[1003, 1001]), [40, 20]);
        assert!(gather(&mut NullTracker, &data, 1000, &[]).is_empty());
    }

    /// What a row-at-a-time loop folds per group code.
    struct Naive {
        counts: Vec<u64>,
        sums: Vec<i64>,
        mins: Vec<i64>,
        maxs: Vec<i64>,
        /// `f64` sums of the values' sevenths, added exactly one value at
        /// a time and rounded once.
        fsums: Vec<f64>,
    }

    fn row_at_a_time(codes: &[u32], vals: &[i32], positions: &[usize], domain: usize) -> Naive {
        let mut t = Naive {
            counts: vec![0; domain],
            sums: vec![0; domain],
            mins: vec![i64::MAX; domain],
            maxs: vec![i64::MIN; domain],
            fsums: Vec::new(),
        };
        let mut exact = vec![ExactSum::new(); domain];
        for &p in positions {
            let (c, v) = (codes[p] as usize, vals[p]);
            t.counts[c] += 1;
            t.sums[c] += v as i64;
            t.mins[c] = t.mins[c].min(v as i64);
            t.maxs[c] = t.maxs[c].max(v as i64);
            exact[c].add(v as f64 / 7.0);
        }
        t.fsums = exact.iter().map(ExactSum::finish).collect();
        t
    }

    #[test]
    fn fold_equals_a_row_at_a_time_loop_at_block_edges_and_every_thread_count() {
        const SEQBASE: Oid = 700;
        let n = 3 * FRAME_LEN + 50;
        let vals: Vec<i32> = (0..n as i64)
            .map(|i| match i % 101 {
                0 => i32::MIN,
                1 => i32::MAX,
                _ => ((i * 2_654_435_761) % 5000) as i32 - 2500,
            })
            .collect();
        let ints = i32_bat(SEQBASE, vals.clone());
        // Not exactly representable: a sum rounded more than once, or
        // added in another order, shows in the low bits.
        let sevenths = vals.iter().map(|&v| v as f64 / 7.0).collect();
        let reals = Bat::with_void_head(SEQBASE, Column::F64(sevenths));
        let names: Vec<String> = (0..n).map(|i| format!("g{i}")).collect();
        let keys = [
            ("u8 codes", Column::U8((0..n).map(|i| (i % 23) as u8).collect())),
            ("one group", Column::U8(vec![9; n])),
            ("a group per row", Column::Str(StrColumn::from_strs(names.iter().map(|s| &**s)))),
        ];
        for (what, tail) in keys {
            let codes: Vec<u32> = match &tail {
                Column::U8(v) => v.iter().map(|&c| c.into()).collect(),
                Column::Str(sc) => (0..n).map(|i| sc.codes.get(i)).collect(),
                _ => unreachable!("key columns hold codes"),
            };
            let domain = if matches!(tail, Column::U8(_)) { 256 } else { 65536 };
            let key = Bat::with_void_head(SEQBASE, tail);
            for survivors in [0, 1, FRAME_LEN - 1, FRAME_LEN, FRAME_LEN + 1, 3 * FRAME_LEN + 5] {
                // Strided, so blocks cut the list at other rows than the
                // column's own frames.
                let positions: Vec<usize> = (0..survivors).map(|i| (i * 7) % n).collect();
                let cands: Vec<Oid> = positions.iter().map(|&p| SEQBASE + p as Oid).collect();
                let pairs: Vec<OidPair> =
                    cands.iter().map(|&o| OidPair { left: 0, right: o }).collect();
                let Naive { counts, sums, mins, maxs, fsums } =
                    row_at_a_time(&codes, &vals, &positions, domain);
                let right = |bat| Input { bat, side: Side::Right };
                for threads in [1usize, 2, 3, 7] {
                    let ctx = format!("{what}, {survivors} survivors, {threads} threads");
                    for rows in [Rows::Cands(&cands), Rows::Pairs(&pairs)] {
                        let cols = [
                            (right(&ints), Sink::SumI64),
                            (right(&ints), Sink::Min),
                            (right(&ints), Sink::Max),
                        ];
                        let f = fold(&mut NullTracker, rows, Some(right(&key)), &cols, threads)
                            .unwrap();
                        assert_eq!(f.counts, counts, "{ctx}");
                        assert_eq!(exact(&f.cols[0]), sums, "{ctx}");
                        assert_eq!(exact(&f.cols[1]), mins, "{ctx}");
                        assert_eq!(exact(&f.cols[2]), maxs, "{ctx}");
                        assert_eq!(f.shards.iter().sum::<usize>(), survivors, "{ctx}");

                        // An `f64` sum beside an exact sink, and the same sum
                        // twice: one gather feeds both from a buffer.
                        let cols = [
                            (right(&reals), Sink::SumF64),
                            (right(&ints), Sink::Max),
                            (right(&reals), Sink::SumF64),
                        ];
                        let f = fold(&mut NullTracker, rows, Some(right(&key)), &cols, threads)
                            .unwrap();
                        let bits = |t: &[f64]| t.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                        assert_eq!(bits(&floats(&f.cols[0])), bits(&fsums), "{ctx}");
                        assert_eq!(exact(&f.cols[1]), maxs, "{ctx}");
                        assert_eq!(bits(&floats(&f.cols[2])), bits(&fsums), "{ctx}");
                        assert_eq!(f.counts, counts, "{ctx}");
                        assert_eq!(f.shards.iter().sum::<usize>(), survivors, "{ctx}");
                    }
                }
            }
        }
    }

    #[test]
    fn a_full_column_fold_is_thread_count_invariant() {
        let n = 9_999usize;
        let vals: Vec<i32> = (0..n as i64).map(|i| ((i * 2_654_435_761) % 5000) as i32).collect();
        let ints = i32_bat(1000, vals.clone());
        let key = Bat::with_void_head(1000, Column::U8((0..n).map(|i| (i % 17) as u8).collect()));
        let codes: Vec<u32> = (0..n as u32).map(|i| i % 17).collect();
        let all: Vec<usize> = (0..n).collect();
        let Naive { counts, sums, mins, maxs, .. } = row_at_a_time(&codes, &vals, &all, 256);
        let seq = scalars(&ints, Rows::All(n), 1);
        for threads in [1usize, 2, 4, 7, 64] {
            assert_eq!(scalars(&ints, Rows::All(n), threads), seq, "threads={threads}");
            let cols =
                [(left(&ints), Sink::SumI64), (left(&ints), Sink::Min), (left(&ints), Sink::Max)];
            let f = fold(&mut NullTracker, Rows::All(n), Some(left(&key)), &cols, threads).unwrap();
            assert_eq!((f.counts, exact(&f.cols[0])), (counts.clone(), &sums[..]));
            assert_eq!((exact(&f.cols[1]), exact(&f.cols[2])), (&mins[..], &maxs[..]));
            assert_eq!(f.shards.len(), threads.min(n), "row chunks, one per worker");
        }
    }

    #[test]
    fn exact_columns_beside_an_ungrouped_f64_sum_fold_in_row_chunks() {
        let n = 2 * FRAME_LEN + 77;
        let vals: Vec<i32> = (0..n as i64).map(|i| ((i * 2_654_435_761) % 5000) as i32).collect();
        let ints = i32_bat(700, vals.clone());
        let sevenths = vals.iter().map(|&v| v as f64 / 7.0).collect();
        let reals = Bat::with_void_head(700, Column::F64(sevenths));
        let cands: Vec<Oid> = (0..n).rev().step_by(3).map(|p| 700 + p as Oid).collect();
        let pairs: Vec<OidPair> = cands.iter().map(|&o| OidPair { left: o, right: 0 }).collect();
        for rows in [Rows::All(n), Rows::Cands(&cands), Rows::Pairs(&pairs)] {
            let positions: Vec<usize> = match rows {
                Rows::All(n) => (0..n).collect(),
                _ => cands.iter().map(|&o| (o - 700) as usize).collect(),
            };
            let t = row_at_a_time(&vec![0; n], &vals, &positions, 1);
            // Input order interleaves the two kinds of sink; the second
            // `f64` sum shares the first one's column.
            let cols = [
                (left(&ints), Sink::Min),
                (left(&reals), Sink::SumF64),
                (left(&ints), Sink::SumI64),
                (left(&ints), Sink::Max),
                (left(&reals), Sink::SumF64),
            ];
            for threads in [1usize, 2, 3, 7] {
                let f = fold(&mut NullTracker, rows, None, &cols, threads).unwrap();
                assert_eq!(f.counts, t.counts, "threads={threads}");
                assert_eq!(exact(&f.cols[0]), t.mins, "threads={threads}");
                assert_eq!(floats(&f.cols[1])[0].to_bits(), t.fsums[0].to_bits());
                assert_eq!(exact(&f.cols[2]), t.sums, "threads={threads}");
                assert_eq!(exact(&f.cols[3]), t.maxs, "threads={threads}");
                assert_eq!(floats(&f.cols[4])[0].to_bits(), t.fsums[0].to_bits());
                assert_eq!(f.shards.len(), threads, "row chunks");
                assert_eq!(f.shards.iter().sum::<usize>(), positions.len());

                // Alone, the sum splits the same way.
                let f = fold(&mut NullTracker, rows, None, &cols[1..2], threads).unwrap();
                assert_eq!(floats(&f.cols[0])[0].to_bits(), t.fsums[0].to_bits());
                assert_eq!(f.shards.len(), threads, "threads={threads}");
            }
        }
    }

    /// Reads and CPU nanoseconds one fold charges a cold Origin2000.
    fn charged(rows: Rows<'_>, key: Option<Input<'_>>, cols: &[(Input<'_>, Sink)]) -> (u64, f64) {
        charged_on(1, rows, key, cols)
    }

    fn charged_on(
        threads: usize,
        rows: Rows<'_>,
        key: Option<Input<'_>>,
        cols: &[(Input<'_>, Sink)],
    ) -> (u64, f64) {
        let mut trk = SimTracker::for_machine(profiles::origin2000());
        fold(&mut trk, rows, key, cols, threads).unwrap();
        let c = trk.counters();
        (c.reads, c.cpu_ns)
    }

    #[test]
    fn the_fold_charges_a_gather_and_a_consumption_per_value() {
        let n = FRAME_LEN + 3;
        let work = profiles::origin2000().work;
        let (scan, hash) = (work.scan_iter_ns, work.hash_tuple_ns);
        let key = Bat::with_void_head(0, Column::U8(vec![1; n]));
        let qty = i32_bat(0, vec![1; n]);
        let price = Bat::with_void_head(0, Column::F64(vec![1.0; n]));
        let cands: Vec<Oid> = (0..n as Oid).collect();
        let pairs: Vec<OidPair> = cands.iter().map(|&o| OidPair { left: o, right: o }).collect();
        let (n64, nf) = (n as u64, n as f64);
        let sum = [(left(&price), Sink::SumF64)];

        // Grouped: a whole table is read where it lies — once per value,
        // whatever conversion the sink wants …
        assert_eq!(charged(Rows::All(n), Some(left(&key)), &sum), (2 * n64, nf * hash));
        // … and a gathered column read by one sink is scattered straight
        // off its gather; the key pays its gather and its buffer slot.
        let gathered = (3 * n64, nf * (2.0 * scan + hash));
        assert_eq!(charged(Rows::Cands(&cands), Some(left(&key)), &sum), gathered);
        assert_eq!(charged(Rows::Pairs(&pairs), Some(left(&key)), &sum), gathered);

        // Ungrouped: one read and one iteration per value, however the rows
        // are addressed.
        for rows in [Rows::All(n), Rows::Cands(&cands), Rows::Pairs(&pairs)] {
            assert_eq!(charged(rows, None, &sum), (n64, nf * scan));
        }

        // `MIN`, `MAX` and `SUM` of one column gather it once. Grouped, the
        // gather fills a buffer each sink reads: the key's gather and slot,
        // the column's gather, three slot reads per row …
        let three = [Sink::Min, Sink::Max, Sink::SumI64].map(|sink| (left(&qty), sink));
        let grouped = (6 * n64, nf * (2.0 * scan + hash));
        // … and ungrouped, one walk takes all three totals: one read, and
        // one iteration per sink.
        let ungrouped = (n64, nf * 3.0 * scan);
        for threads in [1, 2, 3] {
            for rows in [Rows::Cands(&cands), Rows::Pairs(&pairs)] {
                let keyed = charged_on(threads, rows, Some(left(&key)), &three);
                assert_eq!(keyed, grouped, "{threads} threads");
                assert_eq!(charged_on(threads, rows, None, &three), ungrouped, "{threads}");
            }
        }

        // Split over workers, row chunks charge the sequential totals,
        // whatever the sinks.
        let exact = [(left(&qty), Sink::SumI64)];
        for (rows, cols) in [
            (Rows::Cands(&cands), &exact),
            (Rows::All(n), &sum),
            (Rows::Cands(&cands), &sum),
            (Rows::Pairs(&pairs), &sum),
        ] {
            let one = charged(rows, Some(left(&key)), cols);
            for threads in [2, 3] {
                assert_eq!(charged_on(threads, rows, Some(left(&key)), cols), one, "{threads}");
            }
        }
    }
}
