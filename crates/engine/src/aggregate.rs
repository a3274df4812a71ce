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
//! it: it walks the survivors **once, in stream order, in blocks of at most
//! [`FRAME_LEN`] rows**. Per block it gathers the key codes, then per column
//! gathers-and-converts the block's values into a cache-resident buffer and
//! accumulates them into the group table — no survivor-length intermediate
//! is ever materialised. Stream order is what makes every `f64` sum keep
//! the association a row-at-a-time loop would give it.
//!
//! # Charging contract
//!
//! Under a counting [`MemTracker`] the fold charges what it does, per block:
//!
//! * **gather** — a value addressed through a candidate list or a join
//!   index costs one read of the source plus one [`Work::ScanIter`] (what
//!   `costmodel`'s `Gather` shape prices);
//! * **consume** — each buffered value the accumulation takes costs one read
//!   of its (L1-resident) buffer slot, plus one [`Work::HashTuple`] per row
//!   when grouped or one [`Work::ScanIter`] per value when not (the
//!   `Aggregate` shape). [`Sink::Collect`] copies out and consumes nothing.
//!
//! Two cases read nothing twice. [`Rows::All`] is consumed where it lies:
//! the read of the source is the value's only read (what the buffer holds is
//! a conversion — the `f64` of an `i32` a sum wants is a register move, not
//! a second column), followed by the consumption's work as above. And an
//! ungrouped fold over one table's candidate list has neither a table slot
//! to address nor a pair to project, so it takes each value from the gather
//! straight into the accumulator, with no buffer between: one read and one
//! `ScanIter` per value in all.
//!
//! # Parallel decomposition
//!
//! Which way [`fold`] may split its work follows from its sinks, because
//! results must be bit-identical at every thread count:
//!
//! * every sink exact (`i64` sums, extrema, counts) — contiguous **row
//!   chunks**, partial tables combined thread-major: integer addition and
//!   min/max are associative, so any split gives the sequential answer;
//! * an ordered `f64` sum under a key — **group-domain slices**: each worker
//!   walks the whole stream but owns a contiguous range of key codes and
//!   accumulates only those, so every group's additions still happen in
//!   stream order, and the slices concatenate into the table. A worker
//!   skips the value gathers of a block none of whose rows it owns;
//! * an ungrouped `f64` sum, or a [`Sink::Collect`] — **one thread**: a
//!   single accumulator (or output vector) admits no order-preserving
//!   split. That holds the sum alone: exact columns beside an ungrouped
//!   `f64` sum are folded apart from it, in row chunks.
//!
//! Parallel workers run untracked: the executor pins simulated runs to one
//! thread (a shared simulated hierarchy would serialise on the simulator).

use memsim::{track_read, MemTracker, NullTracker, Work};
use monet_core::compress::FRAME_LEN;
use monet_core::join::OidPair;
use monet_core::scan::fan_out;
use monet_core::storage::{Bat, Codes, Column, Head, Oid, StorageError};

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
    /// `f64` sum of an `F64` or (exactly converted) `I32` column, added in
    /// stream order.
    SumF64,
    /// No accumulation: the column's values as `f64`, one per row in stream
    /// order — what a shard ships so the coordinator can add them in global
    /// order.
    Collect,
}

impl Sink {
    /// A fresh accumulator for this sink: `width` slots holding its
    /// identity, or room for `rows` collected values.
    pub(crate) fn table(self, width: usize, rows: usize) -> Acc {
        match self {
            Sink::SumI64 => Acc::Exact(vec![0; width]),
            Sink::Min => Acc::Exact(vec![i64::MAX; width]),
            Sink::Max => Acc::Exact(vec![i64::MIN; width]),
            Sink::SumF64 => Acc::F64(vec![0.0; width]),
            Sink::Collect => Acc::F64(Vec::with_capacity(rows)),
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
    /// [`Sink::SumF64`]: the sum per group code. [`Sink::Collect`]: the
    /// value of every row, in stream order.
    F64(Vec<f64>),
}

impl Acc {
    /// The column's `f64` values, when that is what it holds.
    pub fn as_f64(&self) -> Option<&[f64]> {
        match self {
            Acc::F64(values) => Some(values),
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
    /// The group code of every row, in stream order — kept only when a
    /// [`Sink::Collect`] column is folded under a key.
    pub row_codes: Vec<u32>,
    /// Rows each worker accumulated (one entry for a sequential fold).
    pub shards: Vec<usize>,
}

impl Folded {
    /// Take in `part`, a fold of other rows of the same stream: add its
    /// counts and combine its exact columns by their `sinks` (an `f64`
    /// column is order-sensitive and left to the caller).
    pub(crate) fn absorb(&mut self, part: &Folded, sinks: impl IntoIterator<Item = Sink>) {
        for (total, rows) in self.counts.iter_mut().zip(&part.counts) {
            *total += rows;
        }
        for ((acc, more), sink) in self.cols.iter_mut().zip(&part.cols).zip(sinks) {
            if let (Acc::Exact(acc), Acc::Exact(more)) = (acc, more) {
                for (a, &b) in acc.iter_mut().zip(more) {
                    *a = sink.combine(*a, b);
                }
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
/// codes for the key (`sink` is `None`), `I32` for the exact sinks, `I32` or
/// `F64` for the `f64` ones.
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
        (Column::I32(v), Some(_)) => Src::I32(v),
        (Column::F64(v), Some(Sink::SumF64 | Sink::Collect)) => Src::F64(v),
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
    if M::ENABLED {
        trk.work(Work::ScanIter, cands.len() as u64);
    }
    cands
        .iter()
        .map(|&oid| {
            let v = &data[(oid - seqbase) as usize];
            track_read(trk, v);
            *v
        })
        .collect()
}

/// One block of the stream and what the folds of its columns share: the
/// stream rows `span.0..span.1`, their key codes when grouped, and the first
/// code `glo` of the tables' group-domain slice.
struct Block<'a> {
    rows: Rows<'a>,
    span: (usize, usize),
    codes: Option<&'a [u16]>,
    glo: usize,
}

impl Block<'_> {
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

    /// Charge the reads of a [`walk`](Self::walk), and the gather work when
    /// the rows are addressed by OID.
    fn charge_reads<M: MemTracker, T>(&self, trk: &mut M, data: &[T], at: At) {
        if M::ENABLED {
            self.walk(data, at, (), |(), v| track_read(trk, v));
            if self.gathered() {
                trk.work(Work::ScanIter, (self.span.1 - self.span.0) as u64);
            }
        }
    }

    /// Gather-and-convert the block's values of one column into `buf`.
    /// Every block loop is kept out of line, so the monomorphised copies do
    /// not compete for registers inside the dispatch; a block has at most
    /// `FRAME_LEN` rows, so the index mask is a no-op that spares the store
    /// its bounds check.
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

    /// Fold the block's values of one column straight off the walk, with no
    /// buffer between the load and the accumulator.
    #[inline(never)]
    fn reduce<M: MemTracker, T: Copy, A>(
        &self,
        trk: &mut M,
        acc: A,
        (data, at): (&[T], At),
        op: impl Fn(A, T) -> A,
    ) -> A {
        self.charge_reads(trk, data, at);
        if M::ENABLED && !self.gathered() {
            trk.work(Work::ScanIter, (self.span.1 - self.span.0) as u64);
        }
        self.walk(data, at, acc, |a, &v| op(a, v))
    }

    /// Fold the block's values of one column into `table`: through `buf`
    /// when there are codes to scatter by or a join index to project, else
    /// straight off the column (see the [module docs](self)).
    fn fold<M: MemTracker, T: Copy, V: Copy, A: Copy>(
        &self,
        trk: &mut M,
        src: (&[T], At),
        buf: &mut [V; FRAME_LEN],
        table: &mut [A],
        conv: impl Fn(T) -> V,
        op: impl Fn(A, V) -> A,
    ) {
        if self.codes.is_some() || matches!(self.rows, Rows::Pairs(_)) {
            let vals = self.load(trk, buf, src, conv);
            if M::ENABLED {
                if self.gathered() {
                    vals.iter().for_each(|v| track_read(trk, v));
                }
                if self.codes.is_none() {
                    trk.work(Work::ScanIter, vals.len() as u64);
                }
            }
            accumulate(table, self.glo, self.codes, vals, op);
        } else {
            table[0] = self.reduce(trk, table[0], src, |a, v| op(a, conv(v)));
        }
    }
}

/// The one accumulation loop: `table[code − glo] = op(table[code − glo],
/// value)` for every row of the block whose code the table owns (`glo` is
/// the first code of the worker's group-domain slice; a sequential table
/// owns every code, and the miss is the bounds check). Without codes every
/// row lands in slot 0.
#[inline(never)]
fn accumulate<A: Copy, V: Copy>(
    table: &mut [A],
    glo: usize,
    codes: Option<&[u16]>,
    vals: &[V],
    op: impl Fn(A, V) -> A,
) {
    match codes {
        Some(codes) => {
            for (&c, &v) in codes.iter().zip(vals) {
                if let Some(slot) = table.get_mut((c as usize).wrapping_sub(glo)) {
                    *slot = op(*slot, v);
                }
            }
        }
        None => table[0] = vals.iter().fold(table[0], |a, &v| op(a, v)),
    }
}

/// Fold stream rows `lo..hi` into tables over the group codes `glo..ghi`,
/// a block at a time.
fn fold_span<M: MemTracker>(
    trk: &mut M,
    rows: Rows<'_>,
    key: Option<Col<'_>>,
    cols: &[(Col<'_>, Sink)],
    (lo, hi): (usize, usize),
    (glo, ghi): (usize, usize),
) -> Folded {
    let mut counts = vec![0u64; ghi - glo];
    let mut accs: Vec<Acc> = cols.iter().map(|&(_, sink)| sink.table(ghi - glo, hi - lo)).collect();
    // A worker of a group-domain split owns only some of the codes.
    let sliced = ghi - glo < domain(key);
    let keep_codes = key.is_some() && cols.iter().any(|&(_, sink)| sink == Sink::Collect);
    let mut row_codes = Vec::with_capacity(if keep_codes { hi - lo } else { 0 });
    let (mut kbuf, mut ibuf, mut fbuf) = ([0u16; FRAME_LEN], [0i32; FRAME_LEN], [0f64; FRAME_LEN]);

    for b in (lo..hi).step_by(FRAME_LEN) {
        let mut blk = Block { rows, span: (b, (b + FRAME_LEN).min(hi)), codes: None, glo };
        let n = blk.span.1 - b;
        if let Some(k) = key {
            let codes = match k.src {
                Src::U8(d) => blk.load(trk, &mut kbuf, (d, k.at), u16::from),
                Src::U16(d) => blk.load(trk, &mut kbuf, (d, k.at), |c| c),
                _ => unreachable!("resolve admits only code columns as keys"),
            };
            if M::ENABLED {
                if blk.gathered() {
                    codes.iter().for_each(|c| track_read(trk, c));
                }
                trk.work(Work::HashTuple, n as u64);
            }
            // … and gathers no values for a block none of whose rows it
            // owns.
            if sliced && !codes.iter().any(|&c| (c as usize).wrapping_sub(glo) < ghi - glo) {
                continue;
            }
            accumulate(&mut counts, glo, Some(codes), codes, |a, _| a + 1);
            if keep_codes {
                row_codes.extend(codes.iter().map(|&c| u32::from(c)));
            }
            blk.codes = Some(codes);
        } else {
            counts[0] += n as u64;
        }
        for (&(col, sink), acc) in cols.iter().zip(&mut accs) {
            match (sink, col.src, acc) {
                (Sink::Collect, Src::F64(d), Acc::F64(out)) => {
                    out.extend_from_slice(blk.load(trk, &mut fbuf, (d, col.at), |v| v))
                }
                (Sink::Collect, Src::I32(d), Acc::F64(out)) => {
                    out.extend_from_slice(blk.load(trk, &mut fbuf, (d, col.at), f64::from))
                }
                (Sink::SumF64, Src::F64(d), Acc::F64(t)) => {
                    blk.fold(trk, (d, col.at), &mut fbuf, t, |v| v, |a, v| a + v)
                }
                (Sink::SumF64, Src::I32(d), Acc::F64(t)) => {
                    blk.fold(trk, (d, col.at), &mut fbuf, t, f64::from, |a, v| a + v)
                }
                (Sink::SumI64, Src::I32(d), Acc::Exact(t)) => {
                    blk.fold(trk, (d, col.at), &mut ibuf, t, |v| v, |a, v| a + i64::from(v))
                }
                (Sink::Min, Src::I32(d), Acc::Exact(t)) => {
                    blk.fold(trk, (d, col.at), &mut ibuf, t, |v| v, |a, v| a.min(v.into()))
                }
                (Sink::Max, Src::I32(d), Acc::Exact(t)) => {
                    blk.fold(trk, (d, col.at), &mut ibuf, t, |v| v, |a, v| a.max(v.into()))
                }
                _ => unreachable!("resolve and Sink::table pair every sink with its types"),
            }
        }
    }
    Folded { counts, cols: accs, row_codes, shards: Vec::new() }
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

/// Fold resolved columns on up to `threads` workers, split the way their
/// sinks allow (see the [module docs](self)), and put the parts together.
fn drive<M: MemTracker>(
    trk: &mut M,
    rows: Rows<'_>,
    key: Option<Col<'_>>,
    cols: &[(Col<'_>, Sink)],
    threads: usize,
) -> Folded {
    let (n, domain) = (rows.len(), domain(key));
    let has = |sink| cols.iter().any(|&(_, s)| s == sink);
    let ordered = has(Sink::SumF64);

    let parts = if threads <= 1 || has(Sink::Collect) || (ordered && key.is_none()) {
        vec![fold_span(trk, rows, key, cols, (0, n), (0, domain))]
    } else if ordered {
        fan_out(domain, threads, |glo, ghi| {
            fold_span(&mut NullTracker, rows, key, cols, (0, n), (glo, ghi))
        })
    } else {
        fan_out(n, threads, |lo, hi| {
            fold_span(&mut NullTracker, rows, key, cols, (lo, hi), (0, domain))
        })
    };

    let shards = parts.iter().map(|p| p.counts.iter().sum::<u64>() as usize).collect();
    let mut parts = parts.into_iter();
    let mut out = parts.next().expect("fan_out yields at least one part");
    for part in parts {
        if ordered {
            // Group-domain slices partition the codes in order.
            out.counts.extend(part.counts);
            for (acc, more) in out.cols.iter_mut().zip(part.cols) {
                match (acc, more) {
                    (Acc::Exact(a), Acc::Exact(b)) => a.extend(b),
                    (Acc::F64(a), Acc::F64(b)) => a.extend(b),
                    _ => unreachable!("workers fold the same sinks"),
                }
            }
        } else {
            // Row chunks: every sink is exact, so partials combine.
            out.absorb(&part, cols.iter().map(|&(_, sink)| sink));
        }
    }
    out.shards = shards;
    out
}

/// Fold the columns `cols` over the surviving `rows` of a stream, grouped by
/// the codes of `key` when given: per group code the row count and, per
/// column, what its [`Sink`] accumulates. One pass in stream order, a block
/// at a time; with `threads > 1` (untracked runs only) split as the sinks
/// allow, bit-identical to the sequential fold at every thread count — see
/// the [module docs](self) for both contracts.
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
    let cols = cols
        .iter()
        .map(|&(input, sink)| Ok((resolve(input, rows, Some(sink))?, sink)))
        .collect::<Result<Vec<_>, EngineError>>()?;
    let threads = if M::ENABLED { 1 } else { threads };

    // An ungrouped ordered sum holds only itself to one thread: the exact
    // columns beside it are a fold of their own, in row chunks, and the two
    // results go back into input order.
    let (sums, exact): (Vec<_>, Vec<_>) = cols.iter().partition(|&&(_, s)| s == Sink::SumF64);
    if threads > 1 && key.is_none() && !sums.is_empty() && !exact.is_empty() {
        let mut out = drive(trk, rows, key, &exact, threads);
        let mut exact = std::mem::take(&mut out.cols).into_iter();
        let mut sums = drive(trk, rows, key, &sums, 1).cols.into_iter();
        out.cols = cols
            .iter()
            .map(|&(_, s)| if s == Sink::SumF64 { sums.next() } else { exact.next() })
            .map(|acc| acc.expect("each column is folded by one of the two"))
            .collect();
        return Ok(out);
    }
    Ok(drive(trk, rows, key, &cols, threads))
}

#[cfg(test)]
mod tests {
    use super::*;
    use memsim::{profiles, SimTracker};
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

    fn floats(acc: &Acc) -> &[f64] {
        match acc {
            Acc::F64(t) => t,
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
        for (key, col, sink) in
            [(None, &f, Sink::SumI64), (None, &f, Sink::Min), (Some(&i), &f, Sink::SumF64)]
        {
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
            (left(&v2), Sink::SumF64),
            (left(&v2), Sink::Min),
            (left(&v2), Sink::Max),
        ];
        let f = fold(&mut NullTracker, Rows::All(6), Some(left(&k)), &cols, 1).unwrap();
        // AIR=0, MAIL=1, SHIP=2 by insertion order; a 1-byte key spans 256.
        assert_eq!(f.counts.len(), 256);
        assert_eq!(f.counts[..4], [3, 2, 1, 0]);
        assert_eq!(floats(&f.cols[0])[..3], [37.0, 18.0, 8.0]);
        assert_eq!(floats(&f.cols[1])[..3], [15.0, 2.0, 7.0]);
        assert_eq!(exact(&f.cols[2])[..3], [1, -2, 7]);
        assert_eq!(exact(&f.cols[3])[..3], [9, 4, 7]);
        assert!(f.row_codes.is_empty(), "only Collect keeps per-row codes");

        // No value columns: still groups and counts. Raw U8 keys work too.
        let k = Bat::with_void_head(0, Column::U8(vec![3, 3, 1]));
        let f = fold(&mut NullTracker, Rows::All(3), Some(left(&k)), &[], 1).unwrap();
        assert_eq!((f.counts[1], f.counts[3], f.counts.iter().sum::<u64>()), (1, 2, 3));
    }

    #[test]
    fn collect_ships_rows_and_their_codes_in_stream_order() {
        let k = Bat::with_void_head(5, Column::U8(vec![2, 0, 2, 1]));
        let v = i32_bat(5, vec![10, 20, 30, 40]);
        let cands = [5, 7, 8];
        let cols = [(left(&v), Sink::Collect), (left(&v), Sink::Max)];
        let f = fold(&mut NullTracker, Rows::Cands(&cands), Some(left(&k)), &cols, 4).unwrap();
        assert_eq!(floats(&f.cols[0]), [10.0, 30.0, 40.0]);
        assert_eq!(f.row_codes, [2, 2, 1]);
        assert_eq!(exact(&f.cols[1])[..3], [i64::MIN, 40, 30]);
        assert_eq!(f.shards, [3], "a collecting fold stays on one thread");
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
        /// `f64` sums of the values' sevenths.
        fsums: Vec<f64>,
    }

    fn row_at_a_time(codes: &[u32], vals: &[i32], positions: &[usize], domain: usize) -> Naive {
        let mut t = Naive {
            counts: vec![0; domain],
            sums: vec![0; domain],
            mins: vec![i64::MAX; domain],
            maxs: vec![i64::MIN; domain],
            fsums: vec![0.0; domain],
        };
        for &p in positions {
            let (c, v) = (codes[p] as usize, vals[p]);
            t.counts[c] += 1;
            t.sums[c] += v as i64;
            t.mins[c] = t.mins[c].min(v as i64);
            t.maxs[c] = t.maxs[c].max(v as i64);
            t.fsums[c] += v as f64 / 7.0;
        }
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
        // Not exactly representable: bit-identity must come from the order.
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

                        // An ordered sum beside an exact sink: domain slices.
                        let cols = [(right(&reals), Sink::SumF64), (right(&ints), Sink::Max)];
                        let f = fold(&mut NullTracker, rows, Some(right(&key)), &cols, threads)
                            .unwrap();
                        let bits = |t: &[f64]| t.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                        assert_eq!(bits(floats(&f.cols[0])), bits(&fsums), "{ctx}");
                        assert_eq!(exact(&f.cols[1]), maxs, "{ctx}");
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
    fn exact_columns_beside_an_ungrouped_f64_sum_still_fold_in_row_chunks() {
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
            // Input order interleaves the two kinds of sink.
            let cols = [
                (left(&ints), Sink::Min),
                (left(&reals), Sink::SumF64),
                (left(&ints), Sink::SumI64),
                (left(&ints), Sink::SumF64),
                (left(&ints), Sink::Max),
            ];
            let exact_sum = t.sums[0] as f64;
            for threads in [1usize, 2, 3, 7] {
                let f = fold(&mut NullTracker, rows, None, &cols, threads).unwrap();
                assert_eq!(f.counts, t.counts, "threads={threads}");
                assert_eq!(exact(&f.cols[0]), t.mins, "threads={threads}");
                assert_eq!(floats(&f.cols[1])[0].to_bits(), t.fsums[0].to_bits());
                assert_eq!(exact(&f.cols[2]), t.sums, "threads={threads}");
                assert_eq!(floats(&f.cols[3]), [exact_sum], "threads={threads}");
                assert_eq!(exact(&f.cols[4]), t.maxs, "threads={threads}");
                assert_eq!(f.shards.len(), threads, "the exact columns' row chunks");
                assert_eq!(f.shards.iter().sum::<usize>(), positions.len());

                // Alone, the ordered sum is one worker's.
                let f = fold(&mut NullTracker, rows, None, &cols[1..2], threads).unwrap();
                assert_eq!(floats(&f.cols[0])[0].to_bits(), t.fsums[0].to_bits());
                assert_eq!(f.shards, [positions.len()], "threads={threads}");
            }
        }
    }

    /// Reads and CPU nanoseconds one fold charges a cold Origin2000.
    fn charged(rows: Rows<'_>, key: Option<Input<'_>>, cols: &[(Input<'_>, Sink)]) -> (u64, f64) {
        let mut trk = SimTracker::for_machine(profiles::origin2000());
        fold(&mut trk, rows, key, cols, 8).unwrap();
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
        let cands: Vec<Oid> = (0..n as Oid).collect();
        let pairs: Vec<OidPair> = cands.iter().map(|&o| OidPair { left: o, right: o }).collect();
        let (n64, nf) = (n as u64, n as f64);
        let sum = [(left(&qty), Sink::SumF64)];

        // Grouped: a whole table is read where it lies — once per value,
        // whatever conversion the sink wants …
        assert_eq!(charged(Rows::All(n), Some(left(&key)), &sum), (2 * n64, nf * hash));
        // … and a gathered one pays the source and the buffer slot.
        let gathered = (4 * n64, nf * (2.0 * scan + hash));
        assert_eq!(charged(Rows::Cands(&cands), Some(left(&key)), &sum), gathered);
        assert_eq!(charged(Rows::Pairs(&pairs), Some(left(&key)), &sum), gathered);

        // Ungrouped: one read and one iteration per value off a table or its
        // candidates, gather plus consumption off a join index.
        assert_eq!(charged(Rows::All(n), None, &sum), (n64, nf * scan));
        assert_eq!(charged(Rows::Cands(&cands), None, &sum), (n64, nf * scan));
        assert_eq!(charged(Rows::Pairs(&pairs), None, &sum), (2 * n64, nf * 2.0 * scan));

        // Collected rows are gathered, not consumed.
        let ship = [(left(&qty), Sink::Collect)];
        assert_eq!(charged(Rows::Pairs(&pairs), None, &ship), (n64, nf * scan));
    }
}
