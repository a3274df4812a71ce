//! The scan-select kernel: K predicate leaves evaluated against one column
//! in a **single** stream, over any row set and either physical layout.
//!
//! The paper's thesis is that sequential scans are priced by their memory
//! traffic, not their instruction count — so when K queries each need a
//! scan-select over the *same* column, streaming the column once and
//! evaluating all K predicates per tuple pays the cache-miss bill once
//! instead of K times (the MonetDB/X100 cooperative-scan observation).
//! [`select`] is that kernel, and the only one: `col` names the physical
//! representation ([`ScanCol::Plain`] BAT tail or [`ScanCol::Packed`]
//! compressed column), `rows` the tuples presented ([`RowSet::All`], a
//! chunk [`RowSet::Range`] of an elevator pass, or the ascending
//! [`RowSet::Cands`] an earlier conjunction leaf left alive). It returns one
//! candidate list per predicate, each **bit-identical** to the solo
//! full-column scan-select of that predicate restricted to `rows` (same
//! ascending OID order, because tuples are visited in scan order either
//! way) — so consecutive ranges concatenate to the full scan, and leaf
//! results intersect to the same set in any evaluation order.
//!
//! Behind the entry point there is one row loop per physical layout: the
//! typed slice here, FOR/dict frames and RLE runs in [`crate::compress`].
//! Predicates are lowered to typed `(lo, hi)` bounds once, outside the row
//! loop, which is monomorphised per column type. Once the access pattern is
//! sequential the per-tuple instruction path is what is left to pay (§3),
//! so the loops carry no data-dependent branch and no `Vec::push`: rows are
//! presented a block of at most [`FRAME_LEN`] at a time, each predicate's
//! survivors are written with a predicated store (`compact`: `buf[n] = oid;
//! n += pass`) into a block buffer on the stack, and the buffer is flushed
//! to the candidate list once per block. The row set decides the loop and
//! nothing else does — a span streams, a candidate list reads exactly its
//! candidates' values — with no knob, threshold or fallback beside it.
//!
//! [`par_select`] is the parallel driver: `All` splits into block-aligned
//! contiguous `Range`s, each worker calls the same kernel over its chunk,
//! and per-predicate lists merge thread-major — the same determinism
//! discipline as every other parallel kernel in this workspace. It also
//! returns per-thread match totals, feeding the sharded `rows_per_thread`
//! accounting of execution reports.
//!
//! Under a counting [`MemTracker`] the kernel charges the memory system
//! once per presented tuple ([`track_read`] of the value; compressed
//! layouts charge what they touch instead: the header of every frame or run
//! a row falls in, and — only where a frame's header cannot settle some
//! predicate — the frame's packed payload for a span, or for a candidate
//! list the one payload word each candidate's value starts in, since a
//! restricted pass point-decodes its candidates rather than unpacking the
//! frames around them) and the CPU once per presented tuple *per predicate*
//! ([`Work::ScanIter`] × K) — exactly the asymmetry
//! `costmodel::scan::select_cost` prices: riders of a merged pass pay CPU
//! only, and a restricted pass over either layout is `k` touches
//! `bits/8 · rows/k` bytes apart.

use memsim::{track_read, MemTracker, NullTracker, Work};

use crate::compress::{CompressedColumn, FRAME_LEN};
use crate::storage::{Bat, Codes, Column, Head, Oid, StorageError, ValueType};

/// One predicate leaf of a scan, lowered to kernel form (string equality
/// arrives as a dictionary code; the re-map happened once, upstream).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ScanPred {
    /// `lo <= x <= hi` over an `I32` column.
    RangeI32 {
        /// Inclusive lower bound.
        lo: i32,
        /// Inclusive upper bound.
        hi: i32,
    },
    /// `lo <= x <= hi` over an `F64` column.
    RangeF64 {
        /// Inclusive lower bound.
        lo: f64,
        /// Inclusive upper bound.
        hi: f64,
    },
    /// `code(x) == code` over a dictionary-encoded string column.
    EqCode {
        /// The dictionary code of the constant.
        code: u32,
    },
}

impl ScanPred {
    /// The column type this predicate can stream over.
    pub fn value_type(&self) -> ValueType {
        match self {
            ScanPred::RangeI32 { .. } => ValueType::I32,
            ScanPred::RangeF64 { .. } => ValueType::F64,
            ScanPred::EqCode { .. } => ValueType::Str,
        }
    }
}

/// The physical representation a scan-select streams.
#[derive(Debug, Clone, Copy)]
pub enum ScanCol<'a> {
    /// An uncompressed BAT tail under a void head (what table decomposition
    /// produces); a materialized head is [`StorageError::NonVoidHead`].
    Plain(&'a Bat),
    /// A compressed column under a void head starting at the given OID.
    Packed(&'a CompressedColumn, Oid),
}

impl ScanCol<'_> {
    /// Number of tuples.
    pub fn len(&self) -> usize {
        match self {
            ScanCol::Plain(bat) => bat.len(),
            ScanCol::Packed(cc, _) => cc.len(),
        }
    }

    /// True when the column holds no tuples.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn value_type(&self) -> ValueType {
        match self {
            ScanCol::Plain(bat) => bat.tail().value_type(),
            ScanCol::Packed(cc, _) => cc.value_type(),
        }
    }

    /// Rows per indivisible block: [`par_select`] cuts chunks at multiples
    /// of this so no frame is split between two workers.
    fn block_rows(&self) -> usize {
        match self {
            ScanCol::Packed(CompressedColumn::For(_) | CompressedColumn::Dict(_), _) => FRAME_LEN,
            _ => 1,
        }
    }
}

/// Which tuples of the column a scan-select is presented with.
#[derive(Debug, Clone, Copy)]
pub enum RowSet<'a> {
    /// Every tuple.
    All,
    /// The positions `[lo, hi)`, clamped to the column.
    Range(usize, usize),
    /// An ascending OID list (e.g. the survivors of an earlier conjunction
    /// leaf); OIDs outside the column match nothing.
    Cands(&'a [Oid]),
}

/// A [`RowSet`] resolved against a column: what the row loops walk.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Rows<'a> {
    /// The positions `[lo, hi)`, within the column.
    Span(usize, usize),
    /// Ascending OIDs.
    Cands(&'a [Oid]),
}

impl<'a> Rows<'a> {
    /// Resolve `set` against a column of `len` tuples under a void head at
    /// `seqbase`. Candidates are clipped to the column here, once (the list
    /// ascends, so that is two binary searches): every row loop may index
    /// with `c - seqbase` unguarded, and all layouts honour "OIDs outside
    /// the column match nothing" identically.
    fn of(set: RowSet<'a>, seqbase: Oid, len: usize) -> Self {
        match set {
            RowSet::All => Rows::Span(0, len),
            RowSet::Range(lo, hi) => {
                let hi = hi.min(len);
                Rows::Span(lo.min(hi), hi)
            }
            RowSet::Cands(cands) => {
                debug_assert!(cands.windows(2).all(|w| w[0] < w[1]), "candidates ascend");
                let end = seqbase as u64 + len as u64;
                let inside = &cands[..cands.partition_point(|&c| (c as u64) < end)];
                Rows::Cands(&inside[inside.partition_point(|&c| c < seqbase)..])
            }
        }
    }

    /// Tuples presented — what the CPU is charged for, per predicate.
    fn len(&self) -> usize {
        match self {
            Rows::Span(lo, hi) => hi - lo,
            Rows::Cands(cands) => cands.len(),
        }
    }

    /// Position of the first presented row under a void head at `seqbase`.
    pub(crate) fn first_row(&self, seqbase: Oid) -> Option<usize> {
        match self {
            Rows::Span(lo, hi) => (lo < hi).then_some(*lo),
            Rows::Cands(cands) => cands.first().map(|&c| (c - seqbase) as usize),
        }
    }

    /// Split into the rows before position `end` and the rest.
    pub(crate) fn split_at_row(self, end: usize, seqbase: Oid) -> (Self, Self) {
        match self {
            Rows::Span(lo, hi) => {
                let mid = end.clamp(lo, hi);
                (Rows::Span(lo, mid), Rows::Span(mid, hi))
            }
            Rows::Cands(cands) => {
                // Gallop, then bisect: the split is usually near the front
                // (a frame or run holds few of a sparse list's candidates),
                // and a search of the whole remaining list per block would
                // cost more than testing the block's candidates.
                let before = |c: Oid| ((c - seqbase) as usize) < end;
                let mut reach = 1;
                while reach < cands.len() && before(cands[reach - 1]) {
                    reach *= 2;
                }
                let reach = reach.min(cands.len());
                let (head, tail) = cands.split_at(cands[..reach].partition_point(|&c| before(c)));
                (Rows::Cands(head), Rows::Cands(tail))
            }
        }
    }

    /// Append the OID of every presented row to `list`.
    pub(crate) fn emit_all(&self, seqbase: Oid, list: &mut Vec<Oid>) {
        match self {
            Rows::Span(lo, hi) => list.extend((*lo..*hi).map(|i| seqbase + i as Oid)),
            Rows::Cands(cands) => list.extend_from_slice(cands),
        }
    }
}

/// Survivors of one block, before they are flushed to a candidate list: the
/// row loops of every layout present at most [`FRAME_LEN`] rows between
/// flushes (a block of a plain column, one FOR/dict frame).
pub(crate) type Survivors = [Oid; FRAME_LEN];

/// Branch-free survivor compaction, the one store every row loop is built
/// on: each item's OID is written at `buf[n]` unconditionally and `n`
/// advances by whether the item passed, so the loop carries neither a
/// data-dependent branch nor a capacity check per row. `n` survivors are
/// already buffered; returns the new count. The items seen since the last
/// flush must number at most `FRAME_LEN` — then `n < FRAME_LEN` at every
/// store and the index mask is a no-op that spares the bounds check.
#[inline(always)]
pub(crate) fn compact(
    buf: &mut Survivors,
    mut n: usize,
    items: impl Iterator<Item = (Oid, bool)>,
) -> usize {
    for (oid, pass) in items {
        buf[n & (FRAME_LEN - 1)] = oid;
        n += pass as usize;
    }
    debug_assert!(n <= FRAME_LEN, "at most one block between flushes");
    n
}

/// A value space a row loop tests in: the element types the plain loop is
/// monomorphised over, and the packed layouts' widened `i64`.
pub(crate) trait Lane: Copy {
    /// `p`'s inclusive bounds in this lane; `p` fits the column (the type
    /// check ran).
    fn bounds(p: &ScanPred) -> (Self, Self);

    /// `lo <= self <= hi`.
    fn within(self, lo: Self, hi: Self) -> bool;
}

/// The integer lanes test a value with one unsigned compare — given
/// `lo ≤ hi`, `v ∈ [lo, hi]` ⟺ `(v − lo) mod 2ⁿ ≤ hi − lo` — whose outcome
/// the row loop adds to its survivor count instead of branching on.
macro_rules! int_within {
    ($t:ty as $u:ty) => {
        #[inline(always)]
        fn within(self, lo: $t, hi: $t) -> bool {
            (lo <= hi) & ((self.wrapping_sub(lo) as $u) <= (hi.wrapping_sub(lo) as $u))
        }
    };
}

impl Lane for i32 {
    fn bounds(p: &ScanPred) -> (i32, i32) {
        match *p {
            ScanPred::RangeI32 { lo, hi } => (lo, hi),
            _ => unreachable!("type-checked against an I32 column"),
        }
    }
    int_within!(i32 as u32);
}

impl Lane for f64 {
    fn bounds(p: &ScanPred) -> (f64, f64) {
        match *p {
            ScanPred::RangeF64 { lo, hi } => (lo, hi),
            _ => unreachable!("type-checked against an F64 column"),
        }
    }
    #[inline(always)]
    fn within(self, lo: f64, hi: f64) -> bool {
        (lo <= self) & (self <= hi)
    }
}

/// The packed value space: FOR/RLE values and dictionary codes, widened so
/// the two unify.
impl Lane for i64 {
    fn bounds(p: &ScanPred) -> (i64, i64) {
        match *p {
            ScanPred::RangeI32 { lo, hi } => (lo as i64, hi as i64),
            ScanPred::EqCode { code } => (code as i64, code as i64),
            ScanPred::RangeF64 { .. } => unreachable!("F64 columns are never compressed"),
        }
    }
    int_within!(i64 as u64);
}

/// Dictionary-code lanes: a code the width cannot hold matches nothing.
macro_rules! code_lane {
    ($t:ty) => {
        impl Lane for $t {
            fn bounds(p: &ScanPred) -> ($t, $t) {
                match *p {
                    ScanPred::EqCode { code } => <$t>::try_from(code).map_or((1, 0), |c| (c, c)),
                    _ => unreachable!("type-checked against a Str column"),
                }
            }
            int_within!($t as $t);
        }
    };
}
code_lane!(u8);
code_lane!(u16);

/// One block of a plain span: compact the rows of `block` (the first is
/// OID `first`) that fall within `[lo, hi]`. Kept out of line, like every
/// row loop: inlined into the dispatch, the monomorphised loops compete for
/// registers and the hot one spills its row counter.
#[inline(never)]
fn compact_block<T: Lane>(buf: &mut Survivors, block: &[T], first: Oid, (lo, hi): (T, T)) -> usize {
    compact(buf, 0, block.iter().enumerate().map(|(i, v)| (first + i as Oid, v.within(lo, hi))))
}

/// One block of plain candidates: compact those whose value falls within
/// `[lo, hi]`.
#[inline(never)]
fn compact_cands<T: Lane>(
    buf: &mut Survivors,
    data: &[T],
    seqbase: Oid,
    cands: &[Oid],
    (lo, hi): (T, T),
) -> usize {
    compact(buf, 0, cands.iter().map(|&c| (c, data[(c - seqbase) as usize].within(lo, hi))))
}

/// The plain layout's row loop: lower the predicates into `T`'s lane, then
/// walk `rows` a block at a time — charge one read per presented tuple, and
/// for each predicate compact the block's survivors and flush them to its
/// list. The block stays cache-resident across the K predicates, so the
/// column is still streamed from memory once whatever K is.
fn scan_plain<T: Lane, M: MemTracker>(
    trk: &mut M,
    data: &[T],
    seqbase: Oid,
    preds: &[ScanPred],
    rows: Rows<'_>,
    out: &mut [Vec<Oid>],
) {
    let bounds: Vec<(T, T)> = preds.iter().map(T::bounds).collect();
    let mut buf: Survivors = [0; FRAME_LEN];
    match rows {
        Rows::Span(lo, hi) => {
            let mut first = seqbase + lo as Oid;
            for block in data[lo..hi].chunks(FRAME_LEN) {
                if M::ENABLED {
                    block.iter().for_each(|v| track_read(trk, v));
                }
                for (&within, list) in bounds.iter().zip(out.iter_mut()) {
                    let n = compact_block(&mut buf, block, first, within);
                    list.extend_from_slice(&buf[..n]);
                }
                first += block.len() as Oid;
            }
        }
        // Candidates ascend, so the touches are a forward sweep whose
        // effective stride the cache simulation prices naturally.
        Rows::Cands(cands) => {
            for block in cands.chunks(FRAME_LEN) {
                if M::ENABLED {
                    block.iter().for_each(|&c| track_read(trk, &data[(c - seqbase) as usize]));
                }
                for (&within, list) in bounds.iter().zip(out.iter_mut()) {
                    let n = compact_cands(&mut buf, data, seqbase, block, within);
                    list.extend_from_slice(&buf[..n]);
                }
            }
        }
    }
}

/// Check `col` can be scanned and every predicate is evaluable against it,
/// so the row loops can dispatch on the column type once. Returns the OID
/// of the column's first tuple.
fn check(col: ScanCol<'_>, preds: &[ScanPred]) -> Result<Oid, StorageError> {
    let seqbase = match col {
        ScanCol::Packed(_, seqbase) => seqbase,
        ScanCol::Plain(bat) => match *bat.head() {
            Head::Void { seqbase } => seqbase,
            _ => return Err(StorageError::NonVoidHead),
        },
    };
    let got = col.value_type();
    match preds.iter().map(ScanPred::value_type).find(|&expected| expected != got) {
        Some(expected) => Err(StorageError::TypeMismatch { expected, got }),
        None => Ok(seqbase),
    }
}

/// The kernel behind [`select`] and [`par_select`], after [`check`].
fn scan<M: MemTracker>(
    trk: &mut M,
    col: ScanCol<'_>,
    seqbase: Oid,
    preds: &[ScanPred],
    rows: Rows<'_>,
) -> Vec<Vec<Oid>> {
    let mut out: Vec<Vec<Oid>> = preds.iter().map(|_| Vec::new()).collect();
    if preds.is_empty() || rows.len() == 0 {
        return out;
    }
    if M::ENABLED {
        trk.work(Work::ScanIter, (rows.len() * preds.len()) as u64);
    }
    match col {
        ScanCol::Packed(cc, _) => {
            crate::compress::scan_packed(trk, cc, seqbase, preds, rows, &mut out)
        }
        ScanCol::Plain(bat) => match bat.tail() {
            Column::I32(data) => scan_plain(trk, data, seqbase, preds, rows, &mut out),
            Column::F64(data) => scan_plain(trk, data, seqbase, preds, rows, &mut out),
            Column::Str(sc) => match &sc.codes {
                Codes::U8(data) => scan_plain(trk, data, seqbase, preds, rows, &mut out),
                Codes::U16(data) => scan_plain(trk, data, seqbase, preds, rows, &mut out),
            },
            _ => unreachable!("check rejected this column"),
        },
    }
    out
}

/// One-pass K-predicate scan-select over `rows` of `col`: one ascending
/// candidate OID list per predicate, each exactly *solo full-column result
/// ∩ `rows`*. See the [module docs](self) for the charging contract.
pub fn select<M: MemTracker>(
    trk: &mut M,
    col: ScanCol<'_>,
    preds: &[ScanPred],
    rows: RowSet<'_>,
) -> Result<Vec<Vec<Oid>>, StorageError> {
    let seqbase = check(col, preds)?;
    Ok(scan(trk, col, seqbase, preds, Rows::of(rows, seqbase, col.len())))
}

/// Parallel [`select`] over [`RowSet::All`] (native-only; no tracker):
/// block-aligned contiguous chunks, per-predicate thread-major merge —
/// bit-identical to the sequential kernel at every thread count. Also
/// returns each worker's total match count summed across the K predicates
/// (the sharded `rows_per_thread` accounting).
pub fn par_select(
    col: ScanCol<'_>,
    preds: &[ScanPred],
    threads: usize,
) -> Result<(Vec<Vec<Oid>>, Vec<usize>), StorageError> {
    let seqbase = check(col, preds)?;
    let (n, block) = (col.len(), col.block_rows());
    let parts = fan_out(n.div_ceil(block), threads, |lo, hi| {
        scan(&mut NullTracker, col, seqbase, preds, Rows::Span(lo * block, (hi * block).min(n)))
    });
    let counts = parts.iter().map(|p| p.iter().map(Vec::len).sum()).collect();
    let mut parts = parts.into_iter();
    let mut out = parts.next().expect("fan_out yields at least one chunk");
    for part in parts {
        for (list, more) in out.iter_mut().zip(part) {
            list.extend(more);
        }
    }
    Ok((out, counts))
}

/// Run `f(lo, hi)` over at most `threads` contiguous chunks of `0..n` and
/// return the per-chunk results in chunk order. Clamps so every worker gets
/// a non-empty range; `threads <= 1` (or `n <= 1`) runs inline without
/// spawning.
pub fn fan_out<R, F>(n: usize, threads: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize, usize) -> R + Sync,
{
    let threads = threads.min(n).max(1);
    if threads == 1 {
        return vec![f(0, n)];
    }
    let chunk = n.div_ceil(threads);
    let ranges: Vec<(usize, usize)> = (0..threads)
        .map(|t| (t * chunk, ((t + 1) * chunk).min(n)))
        .filter(|(a, b)| a < b)
        .collect();
    let mut parts = Vec::with_capacity(ranges.len());
    let f = &f;
    std::thread::scope(|s| {
        let handles: Vec<_> = ranges.iter().map(|&(lo, hi)| s.spawn(move || f(lo, hi))).collect();
        for h in handles {
            parts.push(h.join().expect("fan-out worker panicked"));
        }
    });
    parts
}

/// [`select`] over a whole plain BAT. Pinned by `bench/src/trace.rs`; goes
/// when a benchmark issue moves that call onto [`select`].
pub fn multi_select<M: MemTracker>(
    trk: &mut M,
    bat: &Bat,
    preds: &[ScanPred],
) -> Result<Vec<Vec<Oid>>, StorageError> {
    select(trk, ScanCol::Plain(bat), preds, RowSet::All)
}

/// [`select`] over the candidate rows of a plain BAT. Pinned by
/// `bench/src/trace.rs`; goes when a benchmark issue moves that call onto
/// [`select`].
pub fn multi_select_cands<M: MemTracker>(
    trk: &mut M,
    bat: &Bat,
    preds: &[ScanPred],
    cands: &[Oid],
) -> Result<Vec<Vec<Oid>>, StorageError> {
    select(trk, ScanCol::Plain(bat), preds, RowSet::Cands(cands))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::StrColumn;
    use memsim::{NullTracker, SimTracker};

    fn i32_bat(n: usize) -> Bat {
        Bat::with_void_head(100, Column::I32((0..n as i32).map(|i| (i * 37) % 101).collect()))
    }

    /// Solo reference: a plain single-predicate scan through the same
    /// kernel (K = 1 degenerates to exactly the solo loop).
    fn solo(bat: &Bat, p: ScanPred) -> Vec<Oid> {
        select(&mut NullTracker, ScanCol::Plain(bat), &[p], RowSet::All).unwrap().remove(0)
    }

    #[test]
    fn k_way_lists_match_solo_scans() {
        let b = i32_bat(1_000);
        let preds = [
            ScanPred::RangeI32 { lo: 10, hi: 40 },
            ScanPred::RangeI32 { lo: 0, hi: 100 }, // full selectivity
            ScanPred::RangeI32 { lo: 200, hi: 99 }, // empty
            ScanPred::RangeI32 { lo: 7, hi: 7 },
        ];
        let lists = select(&mut NullTracker, ScanCol::Plain(&b), &preds, RowSet::All).unwrap();
        assert_eq!(lists.len(), preds.len());
        for (k, p) in preds.iter().enumerate() {
            assert_eq!(lists[k], solo(&b, *p), "pred {k}");
            assert!(lists[k].windows(2).all(|w| w[0] < w[1]), "ascending");
        }
        assert_eq!(lists[1].len(), 1_000);
        assert!(lists[2].is_empty());
    }

    #[test]
    fn f64_and_str_columns() {
        let f = Bat::with_void_head(0, Column::F64((0..500).map(|i| i as f64 / 10.0).collect()));
        let lists = select(
            &mut NullTracker,
            ScanCol::Plain(&f),
            &[ScanPred::RangeF64 { lo: 1.0, hi: 2.0 }, ScanPred::RangeF64 { lo: 40.0, hi: 60.0 }],
            RowSet::All,
        )
        .unwrap();
        assert_eq!(lists[0].len(), 11);
        assert_eq!(lists[1].len(), 100, "40.0..=49.9");

        let strs: Vec<&str> = (0..300).map(|i| ["AIR", "MAIL", "SHIP"][i % 3]).collect();
        let s = Bat::with_void_head(50, Column::Str(StrColumn::from_strs(strs)));
        let code = |needle: &str| {
            s.tail().as_str_col().unwrap().dict.code_of(needle).expect("in dictionary")
        };
        let lists = select(
            &mut NullTracker,
            ScanCol::Plain(&s),
            &[ScanPred::EqCode { code: code("MAIL") }, ScanPred::EqCode { code: code("AIR") }],
            RowSet::All,
        )
        .unwrap();
        assert_eq!(lists[0].len(), 100);
        assert_eq!(lists[1][0], 50, "OIDs carry the seqbase");
    }

    #[test]
    fn parallel_variant_is_bit_identical_and_counts_shard_matches() {
        let b = i32_bat(10_007);
        let preds = [
            ScanPred::RangeI32 { lo: 0, hi: 50 },
            ScanPred::RangeI32 { lo: 50, hi: 101 },
            ScanPred::RangeI32 { lo: 13, hi: 13 },
        ];
        let seq = select(&mut NullTracker, ScanCol::Plain(&b), &preds, RowSet::All).unwrap();
        for threads in [1usize, 2, 4, 7, 64] {
            let (par, counts) = par_select(ScanCol::Plain(&b), &preds, threads).unwrap();
            assert_eq!(par, seq, "threads={threads}");
            assert_eq!(
                counts.iter().sum::<usize>(),
                seq.iter().map(Vec::len).sum::<usize>(),
                "threads={threads}"
            );
            assert!(counts.len() <= threads.max(1));
        }
    }

    #[test]
    fn chunks_cover_the_range_in_order() {
        for n in [0usize, 1, 2, 7, 100, 101] {
            for threads in [1usize, 2, 3, 7, 64] {
                let parts = fan_out(n, threads, |lo, hi| (lo..hi).collect::<Vec<_>>());
                assert!(parts.len() <= threads, "n={n} threads={threads}");
                // No worker is handed an empty range (but the one of `n == 0`).
                assert!(parts.iter().all(|p| !p.is_empty()) || n == 0, "n={n} threads={threads}");
                let got: Vec<usize> = parts.into_iter().flatten().collect();
                let expect: Vec<usize> = (0..n).collect();
                assert_eq!(got, expect, "n={n} threads={threads}");
            }
        }
    }

    #[test]
    fn single_thread_runs_inline() {
        let parts = fan_out(10, 1, |lo, hi| (lo, hi));
        assert_eq!(parts, vec![(0, 10)]);
        let parts = fan_out(0, 8, |lo, hi| (lo, hi));
        assert_eq!(parts, vec![(0, 0)], "empty input must not spawn workers");
    }

    #[test]
    fn chunked_ranges_concatenate_to_the_one_shot_kernel() {
        let b = i32_bat(10_007);
        let preds = [
            ScanPred::RangeI32 { lo: 0, hi: 50 },
            ScanPred::RangeI32 { lo: 13, hi: 13 },
            ScanPred::RangeI32 { lo: 200, hi: 99 }, // empty
        ];
        let seq = select(&mut NullTracker, ScanCol::Plain(&b), &preds, RowSet::All).unwrap();
        for chunk in [1usize, 97, 1024, 4096, 10_007, 20_000] {
            let mut acc: Vec<Vec<Oid>> = preds.iter().map(|_| Vec::new()).collect();
            let mut lo = 0;
            while lo < b.len() {
                let hi = (lo + chunk).min(b.len());
                let part =
                    select(&mut NullTracker, ScanCol::Plain(&b), &preds, RowSet::Range(lo, hi))
                        .unwrap();
                for (k, list) in part.into_iter().enumerate() {
                    acc[k].extend(list);
                }
                lo = hi;
            }
            assert_eq!(acc, seq, "chunk={chunk}");
        }
        // Out-of-range and inverted bounds clamp to empty work.
        let empty =
            select(&mut NullTracker, ScanCol::Plain(&b), &preds, RowSet::Range(20_000, 30_000))
                .unwrap();
        assert!(empty.iter().all(Vec::is_empty));
    }

    #[test]
    fn range_kernel_charges_only_its_chunk() {
        let b = i32_bat(50_000);
        let preds = [ScanPred::RangeI32 { lo: 0, hi: 50 }, ScanPred::RangeI32 { lo: 10, hi: 60 }];
        let run = |lo: usize, hi: usize| {
            let mut trk = SimTracker::for_machine(memsim::profiles::origin2000());
            select(&mut trk, ScanCol::Plain(&b), &preds, RowSet::Range(lo, hi)).unwrap();
            trk.counters()
        };
        let half = run(0, 25_000);
        let full = run(0, 50_000);
        assert_eq!(half.reads * 2, full.reads, "memory charge follows the chunk");
        assert!(half.cpu_ns < full.cpu_ns);
    }

    #[test]
    fn candidate_restricted_scan_is_full_intersect_cands() {
        let b = i32_bat(10_007);
        let preds = [
            ScanPred::RangeI32 { lo: 0, hi: 50 },
            ScanPred::RangeI32 { lo: 13, hi: 13 },
            ScanPred::RangeI32 { lo: 200, hi: 99 }, // empty
        ];
        let full = select(&mut NullTracker, ScanCol::Plain(&b), &preds, RowSet::All).unwrap();
        let shapes: Vec<Vec<Oid>> = vec![
            vec![],
            (0..10_007).map(|i| 100 + i as Oid).collect(), // all-pass
            (0..10_007).step_by(97).map(|i| 100 + i as Oid).collect(),
            vec![100, 100 + 10_006],
        ];
        for cands in &shapes {
            let got =
                select(&mut NullTracker, ScanCol::Plain(&b), &preds, RowSet::Cands(cands)).unwrap();
            for (k, list) in got.iter().enumerate() {
                let want: Vec<Oid> =
                    full[k].iter().copied().filter(|o| cands.binary_search(o).is_ok()).collect();
                assert_eq!(*list, want, "pred {k} |cands|={}", cands.len());
            }
        }
        // Str and F64 columns take the same path.
        let strs: Vec<&str> = (0..300).map(|i| ["AIR", "MAIL", "SHIP"][i % 3]).collect();
        let s = Bat::with_void_head(50, Column::Str(StrColumn::from_strs(strs)));
        let preds = [ScanPred::EqCode { code: 1 }];
        let full = select(&mut NullTracker, ScanCol::Plain(&s), &preds, RowSet::All).unwrap();
        let cands: Vec<Oid> = (0..300).step_by(2).map(|i| 50 + i as Oid).collect();
        let got =
            select(&mut NullTracker, ScanCol::Plain(&s), &preds, RowSet::Cands(&cands)).unwrap();
        let want: Vec<Oid> =
            full[0].iter().copied().filter(|o| cands.binary_search(o).is_ok()).collect();
        assert_eq!(got[0], want);
    }

    /// Runs in the release test job too: before candidates were clipped in
    /// `Rows::of`, the packed loops only `debug_assert!`ed this contract — a
    /// release build spun forever on a candidate in the last frame's slack
    /// and indexed out of bounds on one below `seqbase`.
    #[test]
    fn out_of_column_candidates_match_nothing_on_every_layout() {
        use crate::compress::{DictColumn, ForColumn, RleColumn};
        // 3000 rows at OID 700: the last FOR/dict frame holds 952 values and
        // 72 rows of slack.
        let (seqbase, n) = (700 as Oid, 3000usize);
        let values: Vec<i32> = (0..n as i32).map(|i| (i * 37) % 101).collect();
        let ints = Bat::with_void_head(seqbase, Column::I32(values.clone()));
        let strs: Vec<&str> = (0..n).map(|i| ["AIR", "MAIL", "SHIP"][i % 3]).collect();
        let strs = Bat::with_void_head(seqbase, Column::Str(StrColumn::from_strs(strs)));
        let codes = &strs.tail().as_str_col().unwrap().codes;
        let (fc, rc, dc) = (
            CompressedColumn::For(ForColumn::encode(&values)),
            CompressedColumn::Rle(RleColumn::encode(&values)),
            CompressedColumn::Dict(DictColumn::encode(codes)),
        );
        let ranges = [
            ScanPred::RangeI32 { lo: 10, hi: 40 }, // tests every frame
            ScanPred::RangeI32 { lo: 0, hi: 100 }, // takes every frame whole
            ScanPred::RangeI32 { lo: 7, hi: 7 },
        ];
        let eqs = [
            ScanPred::EqCode { code: 1 },
            ScanPred::EqCode { code: 0 },
            ScanPred::EqCode { code: 9 },
        ];
        let layouts = [
            ("plain", ScanCol::Plain(&ints), &ranges),
            ("for", ScanCol::Packed(&fc, seqbase), &ranges),
            ("rle", ScanCol::Packed(&rc, seqbase), &ranges),
            ("codes", ScanCol::Plain(&strs), &eqs),
            ("dict", ScanCol::Packed(&dc, seqbase), &eqs),
        ];
        let end = seqbase + n as Oid;
        let inside = [seqbase, seqbase + 1, seqbase + 1500, end - 1];
        // Below the column, at `len`, in the last frame's slack, at and past
        // the end of the last frame.
        let outside = [0, seqbase - 1, end, end + 50, end + 71, end + 72, end + 2000, Oid::MAX];
        let mut mixed: Vec<Oid> = inside.iter().chain(&outside).copied().collect();
        mixed.sort_unstable();
        for (name, col, preds) in layouts {
            for k in [1usize, 3] {
                let preds = &preds[..k];
                let run = |cands: &[Oid]| {
                    let mut trk = SimTracker::for_machine(memsim::profiles::origin2000());
                    let lists = select(&mut trk, col, preds, RowSet::Cands(cands)).unwrap();
                    (lists, trk.counters().reads, trk.counters().cpu_ns)
                };
                let want = run(&inside);
                assert_eq!(run(&mixed), want, "{name} K={k}: outside candidates are not there");
                let none = run(&outside);
                assert!(none.0.iter().all(Vec::is_empty), "{name} K={k}");
                assert_eq!((none.1, none.2), (0, 0.0), "{name} K={k}: and cost nothing");
                // The hang as first reproduced: the row just past the last
                // one, which the last frame's slack seemed to hold.
                assert_eq!(run(&[seqbase, end - 1, end]), run(&[seqbase, end - 1]), "{name} K={k}");
            }
        }
    }

    #[test]
    fn candidate_restricted_scan_charges_per_candidate() {
        let b = i32_bat(50_000);
        let preds = [ScanPred::RangeI32 { lo: 0, hi: 50 }];
        let full = {
            let mut trk = SimTracker::for_machine(memsim::profiles::origin2000());
            select(&mut trk, ScanCol::Plain(&b), &preds, RowSet::All).unwrap();
            trk.counters()
        };
        let cands: Vec<Oid> = (0..50_000).step_by(500).map(|i| 100 + i as Oid).collect();
        let restricted = {
            let mut trk = SimTracker::for_machine(memsim::profiles::origin2000());
            select(&mut trk, ScanCol::Plain(&b), &preds, RowSet::Cands(&cands)).unwrap();
            trk.counters()
        };
        assert_eq!(restricted.reads as usize, cands.len(), "one read per candidate");
        assert!(restricted.l2_misses * 10 <= full.l2_misses, "sparse candidates skip lines");
        assert!(restricted.cpu_ns < full.cpu_ns / 100.0, "CPU follows |cands|");
    }

    #[test]
    fn type_mismatch_is_an_error() {
        let b = i32_bat(10);
        let err = select(
            &mut NullTracker,
            ScanCol::Plain(&b),
            &[ScanPred::RangeF64 { lo: 0.0, hi: 1.0 }],
            RowSet::All,
        )
        .unwrap_err();
        assert!(matches!(err, StorageError::TypeMismatch { .. }), "{err:?}");
        let err = par_select(ScanCol::Plain(&b), &[ScanPred::EqCode { code: 0 }], 4).unwrap_err();
        assert!(matches!(err, StorageError::TypeMismatch { .. }), "{err:?}");
        // Like the gather and aggregate kernels, the scan wants a void head.
        let mat = Bat::new(Head::Oids(vec![7, 3]), Column::I32(vec![1, 2])).unwrap();
        let err = select(
            &mut NullTracker,
            ScanCol::Plain(&mat),
            &[ScanPred::RangeI32 { lo: 0, hi: 9 }],
            RowSet::All,
        )
        .unwrap_err();
        assert_eq!(err, StorageError::NonVoidHead);
    }

    #[test]
    fn merged_pass_streams_the_memory_once_but_pays_cpu_per_predicate() {
        let b = i32_bat(50_000);
        let k_pred = |k: usize| {
            (0..k).map(|i| ScanPred::RangeI32 { lo: i as i32, hi: 50 + i as i32 }).collect()
        };
        let run = |preds: Vec<ScanPred>| {
            let mut trk = SimTracker::for_machine(memsim::profiles::origin2000());
            select(&mut trk, ScanCol::Plain(&b), &preds, RowSet::All).unwrap();
            trk.counters()
        };
        let one = run(k_pred(1));
        let eight = run(k_pred(8));
        assert_eq!(eight.reads, one.reads, "the column is streamed once regardless of K");
        assert_eq!(eight.l2_misses, one.l2_misses, "no extra cache traffic from extra predicates");
        assert!(eight.cpu_ns > 7.0 * one.cpu_ns, "CPU scales with K");
    }

    #[test]
    fn zero_predicates_is_a_no_op() {
        let b = i32_bat(100);
        assert!(select(&mut NullTracker, ScanCol::Plain(&b), &[], RowSet::All).unwrap().is_empty());
        let (lists, counts) = par_select(ScanCol::Plain(&b), &[], 4).unwrap();
        assert!(lists.is_empty());
        assert_eq!(counts.iter().sum::<usize>(), 0);
    }
}
