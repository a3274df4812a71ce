//! Compressed column storage scanned *directly* — the next turn of the
//! paper's crank.
//!
//! The paper's thesis is that sequential operators are priced by the bytes
//! they stream, not the instructions they retire. Vertical decomposition
//! and byte encodings (§3.1) already shrink the stream; this module goes
//! one step further and stores columns in light-weight compressed forms the
//! scan kernels evaluate **without decompressing into a column first**:
//!
//! * **Frame-of-reference + bit-packing** ([`ForColumn`]): values are split
//!   into fixed-size frames, each stored as `value - frame_min` packed at
//!   the frame's minimal bit width. A 4-byte integer column whose frames
//!   span small ranges streams at a few *bits* per value.
//! * **Run-length encoding** ([`RleColumn`]): sorted or clustered columns
//!   collapse into `(value, start, len)` runs; a predicate touches 12 bytes
//!   per run instead of 4 bytes per tuple.
//! * **Dictionary packing** ([`DictColumn`]): the §3.1 byte-encoded string
//!   codes, re-packed at `⌈log₂ |dict|⌉` bits — the paper's `shipmode`
//!   column drops from 8 bits to 3.
//!
//! Every frame and run carries min/max metadata, so selections skip whole
//! blocks whose value range cannot intersect the predicate — and emit
//! blocks the predicate provably covers without unpacking a single word.
//!
//! The row loops here are the compressed leg of [`crate::scan::select`] and
//! honour its contract exactly: K predicate leaves per pass over any
//! [`RowSet`], one ascending candidate-OID list per leaf, **bit-identical**
//! to the uncompressed scan at every thread count. A frame the metadata
//! cannot settle is never decoded: the predicate is moved into the frame's
//! delta space once (`value − base`, clamped to the frame), a span compares
//! each packed delta as it is extracted — two-word, branch-free — and a
//! candidate list point-decodes just its candidates (`base + extract(bits,
//! row)` is O(1)). Survivors are compacted on the stack and flushed once
//! per frame, as in the plain loop. [`ForColumn::decode`] is the reference
//! the suites check this against, not part of any scan.
//!
//! Under a counting [`MemTracker`] the memory system is charged the
//! *compressed* bytes actually touched: the metadata of every touched block,
//! and — only when a block's values must be tested — its packed payload for
//! a span, or one payload word per candidate for a restricted pass (a frame
//! holding one survivor costs its header and one word, not its 1024
//! values). The CPU is conservatively charged one `Work::ScanIter` per
//! presented tuple per predicate — the same asymmetry
//! `costmodel::scan::select_cost` prices with its fractional bits-per-value
//! stride.

use memsim::{track_read, track_read_slice, MemTracker};

use crate::scan::{compact, select, Lane, RowSet, Rows, ScanCol, ScanPred, Survivors};
use crate::storage::{Codes, Column, Oid, StorageError, ValueType};

/// Values per frame-of-reference frame. Big enough that the 16-byte frame
/// header amortizes to ~0.125 bits/value, small enough that local value
/// ranges (not the global range) set the packed width.
pub const FRAME_LEN: usize = 1024;

/// Which compressed representation a column uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Encoding {
    /// Frame-of-reference + bit-packing (i32 columns).
    For,
    /// Run-length encoding (sorted/clustered i32 columns).
    Rle,
    /// Bit-packed dictionary codes (string columns).
    Dict,
}

impl Encoding {
    /// Short display name.
    pub fn name(self) -> &'static str {
        match self {
            Encoding::For => "for",
            Encoding::Rle => "rle",
            Encoding::Dict => "dict",
        }
    }
}

/// Per-frame metadata of a [`ForColumn`]: the reference (= frame minimum),
/// the frame maximum (for block skipping), the packed bit width, and the
/// frame's first word in the shared payload buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Frame {
    /// Frame reference: the smallest value in the frame.
    pub base: i32,
    /// The largest value in the frame (skip metadata).
    pub max: i32,
    /// Bits per packed value (0 for constant frames).
    pub bits: u32,
    /// First word of this frame's payload in the column's word buffer.
    pub offset: u32,
}

/// A frame-of-reference bit-packed i32 column.
#[derive(Debug, Clone, PartialEq)]
pub struct ForColumn {
    len: usize,
    frames: Vec<Frame>,
    words: Vec<u64>,
}

/// Minimal bits to represent any value in `0..=range`.
fn bits_for(range: u64) -> u32 {
    64 - range.leading_zeros()
}

impl ForColumn {
    /// Encode a value slice (frames of [`FRAME_LEN`], per-frame reference
    /// and minimal bit width).
    pub fn encode(values: &[i32]) -> ForColumn {
        let mut frames = Vec::with_capacity(values.len().div_ceil(FRAME_LEN));
        let mut words = Vec::new();
        for chunk in values.chunks(FRAME_LEN) {
            let base = *chunk.iter().min().expect("chunks are non-empty");
            let max = *chunk.iter().max().expect("chunks are non-empty");
            let bits = bits_for((max as i64 - base as i64) as u64);
            let offset = u32::try_from(words.len()).expect("packed payload fits u32 words");
            if bits > 0 {
                let mut word = 0u64;
                let mut used = 0u32;
                for &v in chunk {
                    let delta = (v as i64 - base as i64) as u64;
                    word |= delta << used;
                    if used + bits >= 64 {
                        words.push(word);
                        let spilled = used + bits - 64;
                        word = if spilled > 0 { delta >> (bits - spilled) } else { 0 };
                        used = spilled;
                    } else {
                        used += bits;
                    }
                }
                if used > 0 {
                    words.push(word);
                }
            }
            frames.push(Frame { base, max, bits, offset });
        }
        ForColumn { len: values.len(), frames, words }
    }

    /// Number of values.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the column holds no values.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The frame headers.
    pub fn frames(&self) -> &[Frame] {
        &self.frames
    }

    /// Row range `[lo, hi)` of frame `f`.
    fn frame_rows(&self, f: usize) -> (usize, usize) {
        (f * FRAME_LEN, ((f + 1) * FRAME_LEN).min(self.len))
    }

    /// The packed payload words of frame `f`.
    fn frame_words(&self, f: usize) -> &[u64] {
        let start = self.frames[f].offset as usize;
        let end = self.frames.get(f + 1).map(|fr| fr.offset as usize).unwrap_or(self.words.len());
        &self.words[start..end]
    }

    /// Append frame `f`'s decoded values to `out`.
    fn unpack_frame(&self, f: usize, out: &mut Vec<i32>) {
        let fr = self.frames[f];
        let (lo, hi) = self.frame_rows(f);
        if fr.bits == 0 {
            out.extend(std::iter::repeat_n(fr.base, hi - lo));
            return;
        }
        let mask = (1u64 << fr.bits) - 1; // bits <= 33 < 64 for i32 ranges
        let mut widx = fr.offset as usize;
        let mut used = 0u32;
        for _ in lo..hi {
            let mut raw = self.words[widx] >> used;
            if used + fr.bits > 64 {
                raw |= self.words[widx + 1] << (64 - used);
            }
            out.push((fr.base as i64 + (raw & mask) as i64) as i32);
            used += fr.bits;
            if used >= 64 {
                used -= 64;
                widx += 1;
            }
        }
    }

    /// Decode the whole column (tests and verification; not a hot path).
    pub fn decode(&self) -> Vec<i32> {
        let mut out = Vec::with_capacity(self.len);
        for f in 0..self.frames.len() {
            self.unpack_frame(f, &mut out);
        }
        out
    }

    /// Exact heap bytes of the compressed representation.
    pub fn compressed_bytes(&self) -> usize {
        self.frames.len() * std::mem::size_of::<Frame>() + self.words.len() * 8
    }

    /// Metadata-only estimate of how many values fall in `[lo, hi]`: each
    /// frame contributes its row count scaled by the overlap of `[lo, hi]`
    /// with `[base, max]` under a uniform-occupancy assumption. Touches
    /// only the frame headers — selectivity sniffing for planners, never a
    /// payload read.
    pub fn estimate_range(&self, lo: i32, hi: i32) -> usize {
        let mut est = 0.0f64;
        for (f, fr) in self.frames.iter().enumerate() {
            let olo = lo.max(fr.base) as i64;
            let ohi = hi.min(fr.max) as i64;
            if olo > ohi {
                continue;
            }
            let (a, b) = self.frame_rows(f);
            let width = (fr.max as i64 - fr.base as i64 + 1) as f64;
            est += (b - a) as f64 * (ohi - olo + 1) as f64 / width;
        }
        est.round() as usize
    }
}

/// One run of a [`RleColumn`]: `len` consecutive tuples of `value` starting
/// at row `start`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Run {
    /// The repeated value.
    pub value: i32,
    /// First row of the run.
    pub start: u32,
    /// Number of consecutive tuples.
    pub len: u32,
}

/// A run-length-encoded i32 column.
#[derive(Debug, Clone, PartialEq)]
pub struct RleColumn {
    len: usize,
    runs: Vec<Run>,
}

impl RleColumn {
    /// Encode a value slice into maximal runs.
    pub fn encode(values: &[i32]) -> RleColumn {
        let mut runs: Vec<Run> = Vec::new();
        for (i, &v) in values.iter().enumerate() {
            match runs.last_mut() {
                Some(r) if r.value == v => r.len += 1,
                _ => runs.push(Run { value: v, start: i as u32, len: 1 }),
            }
        }
        RleColumn { len: values.len(), runs }
    }

    /// Number of values.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the column holds no values.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The runs.
    pub fn runs(&self) -> &[Run] {
        &self.runs
    }

    /// Decode the whole column (tests and verification; not a hot path).
    pub fn decode(&self) -> Vec<i32> {
        let mut out = Vec::with_capacity(self.len);
        for r in &self.runs {
            out.extend(std::iter::repeat_n(r.value, r.len as usize));
        }
        out
    }

    /// Exact heap bytes of the compressed representation.
    pub fn compressed_bytes(&self) -> usize {
        self.runs.len() * std::mem::size_of::<Run>()
    }
}

/// Bit-packed dictionary codes: the §3.1 byte encoding re-packed at
/// `⌈log₂ |dict|⌉` bits per code. The dictionary itself stays with the
/// uncompressed [`crate::storage::StrColumn`]; equality constants arrive
/// here already translated to codes ([`ScanPred::EqCode`]).
#[derive(Debug, Clone, PartialEq)]
pub struct DictColumn {
    packed: ForColumn,
    code_width: usize,
}

impl DictColumn {
    /// Pack a code stream (codes fit i32: dictionaries max out at 2^16).
    pub fn encode(codes: &Codes) -> DictColumn {
        let vals: Vec<i32> = (0..codes.len()).map(|i| codes.get(i) as i32).collect();
        DictColumn { packed: ForColumn::encode(&vals), code_width: codes.width() }
    }

    /// Number of values.
    pub fn len(&self) -> usize {
        self.packed.len()
    }

    /// Whether the column holds no values.
    pub fn is_empty(&self) -> bool {
        self.packed.is_empty()
    }

    /// Bytes per code in the *uncompressed* encoding (1 or 2).
    pub fn code_width(&self) -> usize {
        self.code_width
    }

    /// Decode the code stream (tests and verification).
    pub fn decode(&self) -> Vec<i32> {
        self.packed.decode()
    }

    /// Exact heap bytes of the compressed representation.
    pub fn compressed_bytes(&self) -> usize {
        self.packed.compressed_bytes()
    }

    /// Metadata-only estimate of how many codes equal `code` (see
    /// [`ForColumn::estimate_range`]).
    pub fn estimate_eq(&self, code: u32) -> usize {
        self.packed.estimate_range(code as i32, code as i32)
    }
}

/// A column in one of the compressed representations, behind one scan
/// interface.
#[derive(Debug, Clone, PartialEq)]
pub enum CompressedColumn {
    /// Frame-of-reference + bit-packing.
    For(ForColumn),
    /// Run-length encoding.
    Rle(RleColumn),
    /// Bit-packed dictionary codes.
    Dict(DictColumn),
}

/// Cheap one-pass statistics driving [`pick_encoding`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ColumnStats {
    /// Number of values.
    pub len: usize,
    /// Smallest value (0 when empty).
    pub min: i32,
    /// Largest value (0 when empty).
    pub max: i32,
    /// Number of maximal equal-value runs (sortedness/clustering signal).
    pub runs: usize,
    /// Exact bytes a frame-of-reference encoding would occupy.
    pub for_bytes: usize,
}

impl ColumnStats {
    /// Gather statistics over an i32 slice in one pass.
    pub fn of_i32(values: &[i32]) -> ColumnStats {
        let mut min = 0i32;
        let mut max = 0i32;
        let mut runs = 0usize;
        let mut prev: Option<i32> = None;
        let mut for_bytes = 0usize;
        for chunk in values.chunks(FRAME_LEN) {
            let cmin = *chunk.iter().min().expect("chunks are non-empty");
            let cmax = *chunk.iter().max().expect("chunks are non-empty");
            if prev.is_none() {
                min = cmin;
                max = cmax;
            } else {
                min = min.min(cmin);
                max = max.max(cmax);
            }
            for &v in chunk {
                if prev != Some(v) {
                    runs += 1;
                }
                prev = Some(v);
            }
            let bits = bits_for((cmax as i64 - cmin as i64) as u64) as usize;
            for_bytes += std::mem::size_of::<Frame>() + (chunk.len() * bits).div_ceil(64) * 8;
        }
        ColumnStats { len: values.len(), min, max, runs, for_bytes }
    }

    /// Exact bytes a run-length encoding would occupy.
    pub fn rle_bytes(&self) -> usize {
        self.runs * std::mem::size_of::<Run>()
    }
}

/// Choose a compressed representation for `col` from its statistics, or
/// `None` when no encoding would save at least 1/8 of the stored bytes.
/// i32 columns weigh RLE (wins on sorted/clustered data) against
/// frame-of-reference (wins on small local ranges); string columns pack
/// their dictionary codes when the dictionary is small enough to shave
/// bits off the code width. Other types stay uncompressed.
pub fn pick_encoding(col: &Column) -> Option<Encoding> {
    match col {
        Column::I32(values) => {
            if values.is_empty() {
                return Some(Encoding::For); // trivial, but keeps kernels total
            }
            let stats = ColumnStats::of_i32(values);
            let raw = values.len() * 4;
            let (best, bytes) = if stats.rle_bytes() < stats.for_bytes {
                (Encoding::Rle, stats.rle_bytes())
            } else {
                (Encoding::For, stats.for_bytes)
            };
            (bytes * 8 <= raw * 7).then_some(best)
        }
        Column::Str(sc) => {
            if sc.is_empty() {
                return Some(Encoding::Dict);
            }
            let max_code = (0..sc.codes.len()).map(|i| sc.codes.get(i)).max().unwrap_or(0);
            let bits = bits_for(max_code as u64) as usize;
            let raw = sc.len() * sc.codes.width();
            let packed = sc.len() * bits / 8 + sc.len().div_ceil(FRAME_LEN) * 16;
            (packed * 8 <= raw * 7).then_some(Encoding::Dict)
        }
        _ => None,
    }
}

impl CompressedColumn {
    /// Encode `col` per [`pick_encoding`], or `None` when the column should
    /// stay uncompressed.
    pub fn encode(col: &Column) -> Option<CompressedColumn> {
        match (pick_encoding(col)?, col) {
            (Encoding::Rle, Column::I32(v)) => Some(CompressedColumn::Rle(RleColumn::encode(v))),
            (Encoding::For, Column::I32(v)) => Some(CompressedColumn::For(ForColumn::encode(v))),
            (Encoding::Dict, Column::Str(sc)) => {
                Some(CompressedColumn::Dict(DictColumn::encode(&sc.codes)))
            }
            _ => None,
        }
    }

    /// The representation in use.
    pub fn encoding(&self) -> Encoding {
        match self {
            CompressedColumn::For(_) => Encoding::For,
            CompressedColumn::Rle(_) => Encoding::Rle,
            CompressedColumn::Dict(_) => Encoding::Dict,
        }
    }

    /// Number of values.
    pub fn len(&self) -> usize {
        match self {
            CompressedColumn::For(c) => c.len(),
            CompressedColumn::Rle(c) => c.len(),
            CompressedColumn::Dict(c) => c.len(),
        }
    }

    /// True when the column holds no values.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Exact heap bytes of the compressed representation.
    pub fn compressed_bytes(&self) -> usize {
        match self {
            CompressedColumn::For(c) => c.compressed_bytes(),
            CompressedColumn::Rle(c) => c.compressed_bytes(),
            CompressedColumn::Dict(c) => c.compressed_bytes(),
        }
    }

    /// Bytes the values occupy uncompressed (4 per i32; the code width per
    /// dictionary code).
    pub fn uncompressed_bytes(&self) -> usize {
        match self {
            CompressedColumn::For(c) => c.len() * 4,
            CompressedColumn::Rle(c) => c.len() * 4,
            CompressedColumn::Dict(c) => c.len() * c.code_width(),
        }
    }

    /// Average stored bits per value — the stride term
    /// `costmodel::scan::select_cost` prices.
    pub fn bits_per_value(&self) -> f64 {
        self.compressed_bytes() as f64 * 8.0 / self.len().max(1) as f64
    }

    /// Decode into plain values (codes for [`CompressedColumn::Dict`]) —
    /// tests and verification only.
    pub fn decode(&self) -> Vec<i32> {
        match self {
            CompressedColumn::For(c) => c.decode(),
            CompressedColumn::Rle(c) => c.decode(),
            CompressedColumn::Dict(c) => c.decode(),
        }
    }

    /// Metadata-only estimate of how many values satisfy `pred`, reading
    /// frame headers / runs but never the payload: FOR frames scale their
    /// row count by uniform range overlap, RLE runs count exactly, dict
    /// frames likewise over the code stream. `None` when this
    /// representation cannot evaluate `pred` — the caller falls back to
    /// whatever prior it has.
    pub fn estimate_matches(&self, pred: &ScanPred) -> Option<usize> {
        match (self, pred) {
            (CompressedColumn::For(c), ScanPred::RangeI32 { lo, hi }) => {
                Some(c.estimate_range(*lo, *hi))
            }
            (CompressedColumn::Rle(c), ScanPred::RangeI32 { lo, hi }) => Some(
                c.runs()
                    .iter()
                    .filter(|r| *lo <= r.value && r.value <= *hi)
                    .map(|r| r.len as usize)
                    .sum(),
            ),
            (CompressedColumn::Dict(c), ScanPred::EqCode { code }) => Some(c.estimate_eq(*code)),
            _ => None,
        }
    }

    /// True when `pred` can be evaluated directly on this representation.
    pub fn supports(&self, pred: &ScanPred) -> bool {
        pred.value_type() == self.value_type()
    }

    /// The value type this column logically stores: range predicates run
    /// over FOR/RLE, code equality over packed dictionaries (F64 columns
    /// are never compressed).
    pub fn value_type(&self) -> ValueType {
        match self {
            CompressedColumn::For(_) | CompressedColumn::Rle(_) => ValueType::I32,
            CompressedColumn::Dict(_) => ValueType::Str,
        }
    }
}

/// How a predicate relates to a frame's `[base, max]` value range.
enum BlockFate {
    /// No value in the frame can qualify: skip without touching the payload.
    Skip,
    /// Every value in the frame qualifies: emit all OIDs, payload untouched.
    TakeAll,
    /// The ranges straddle: test each packed delta `d = value − base` as it
    /// is extracted, with one unsigned compare — `d − lo ≤ span (mod 2⁶⁴)`,
    /// the predicate clamped to the frame and moved into delta space.
    Test {
        /// The clamped lower bound, as a delta.
        lo: u64,
        /// Clamped upper bound − clamped lower bound.
        span: u64,
    },
}

/// An empty predicate (`lo > hi`) is `Skip` whatever the frame holds: in
/// delta space its span would wrap and every value would pass.
fn classify((lo, hi): (i64, i64), fr: &Frame) -> BlockFate {
    let (min, max) = (fr.base as i64, fr.max as i64);
    if lo > hi || hi < min || lo > max {
        BlockFate::Skip
    } else if lo <= min && max <= hi {
        BlockFate::TakeAll
    } else {
        let (lo, hi) = (lo.max(min), hi.min(max));
        BlockFate::Test { lo: (lo - min) as u64, span: (hi - lo) as u64 }
    }
}

/// The packed delta starting at bit `bit` of a frame's payload `words`,
/// branch-free: the word holding its first bit shifted down, or-ed with the
/// next word shifted up (in two steps, so a delta that starts a word takes
/// nothing from its successor), masked to the frame's width. `next` fetches
/// that successor — it exists for every delta but those in the payload's
/// last word.
#[inline(always)]
fn extract(words: &[u64], bit: usize, mask: u64, next: impl Fn(usize) -> u64) -> u64 {
    let (w, sh) = (bit >> 6, (bit & 63) as u32);
    ((words[w] >> sh) | ((next(w + 1) << 1) << (63 - sh))) & mask
}

/// One `Test` frame of a span: compact the rows `[a, b)` of the frame (row 0
/// is OID `first`) whose delta passes. Deltas are tested as they are
/// extracted; nothing is decoded to a buffer. All but the last few read
/// their successor word unguarded.
#[inline(never)]
fn compact_frame(
    buf: &mut Survivors,
    (words, bits): (&[u64], usize),
    (a, b): (usize, usize),
    first: Oid,
    (lo, span): (u64, u64),
) -> usize {
    let mask = (1u64 << bits) - 1;
    // Deltas starting before the payload's last word.
    let two_word = ((words.len() - 1) * 64).div_ceil(bits).clamp(a, b);
    let pass = |d: u64| d.wrapping_sub(lo) <= span;
    let oid = |i: usize| first + i as Oid;
    let n = compact(
        buf,
        0,
        (a..two_word).map(|i| (oid(i), pass(extract(words, i * bits, mask, |w| words[w])))),
    );
    let last = |w: usize| words.get(w).copied().unwrap_or(0);
    compact(buf, n, (two_word..b).map(|i| (oid(i), pass(extract(words, i * bits, mask, last)))))
}

/// One `Test` frame of a candidate list: point-decode each candidate (O(1):
/// its delta's bit offset is `row × bits`) and compact those that pass.
#[inline(never)]
fn compact_frame_cands(
    buf: &mut Survivors,
    (words, bits): (&[u64], usize),
    cands: &[Oid],
    first: Oid,
    (lo, span): (u64, u64),
) -> usize {
    let mask = (1u64 << bits) - 1;
    let last = |w: usize| words.get(w).copied().unwrap_or(0);
    compact(
        buf,
        0,
        cands.iter().map(|&c| {
            let d = extract(words, (c - first) as usize * bits, mask, last);
            (c, d.wrapping_sub(lo) <= span)
        }),
    )
}

/// The FOR/dict layout's row loop: walk the frames `rows` touches, each
/// presented with its share of the rows (a clipped span or a candidate
/// sub-slice). Every touched frame pays its header read; only frames the
/// min/max metadata cannot settle for some predicate touch their payload —
/// a span streams it, candidates read the word each one's delta starts in.
/// A `TakeAll` frame emits its rows without a payload access, a `Skip`
/// frame nothing, and frames no row falls in are never visited. Nothing is
/// allocated per call or per frame, and no frame is decoded: survivors are
/// compacted on the stack and flushed once per frame and predicate.
fn scan_frames<M: MemTracker>(
    trk: &mut M,
    fc: &ForColumn,
    seqbase: Oid,
    bounds: &[(i64, i64)],
    mut rows: Rows<'_>,
    out: &mut [Vec<Oid>],
) {
    let mut buf: Survivors = [0; FRAME_LEN];
    while let Some(row) = rows.first_row(seqbase) {
        let f = row / FRAME_LEN;
        let fr = &fc.frames[f];
        track_read(trk, fr);
        let (rlo, rhi) = fc.frame_rows(f);
        let (here, rest) = rows.split_at_row(rhi, seqbase);
        rows = rest;
        let first = seqbase + rlo as Oid;
        let (words, bits) = (fc.frame_words(f), fr.bits as usize);
        if M::ENABLED && bounds.iter().any(|&p| matches!(classify(p, fr), BlockFate::Test { .. })) {
            match here {
                Rows::Span(..) => track_read_slice(trk, words),
                Rows::Cands(cands) => cands
                    .iter()
                    .for_each(|&c| track_read(trk, &words[((c - first) as usize * bits) >> 6])),
            }
        }
        for (&pred, list) in bounds.iter().zip(out.iter_mut()) {
            match classify(pred, fr) {
                BlockFate::Skip => {}
                BlockFate::TakeAll => here.emit_all(seqbase, list),
                BlockFate::Test { lo, span } => {
                    let n = match here {
                        Rows::Span(a, b) => compact_frame(
                            &mut buf,
                            (words, bits),
                            (a - rlo, b - rlo),
                            first,
                            (lo, span),
                        ),
                        Rows::Cands(cands) => {
                            compact_frame_cands(&mut buf, (words, bits), cands, first, (lo, span))
                        }
                    };
                    list.extend_from_slice(&buf[..n]);
                }
            }
        }
    }
}

/// The RLE layout's row loop: walk the runs `rows` touches, each presented
/// with its share of the rows. The runs *are* the stream: a span reads its
/// runs as one contiguous slice, whatever K is; candidates read only the
/// runs they fall in (runs and candidates both ascend, so the two merge in
/// one pass and untouched runs are jumped over by binary search).
#[inline(never)]
fn scan_runs<M: MemTracker>(
    trk: &mut M,
    rc: &RleColumn,
    seqbase: Oid,
    bounds: &[(i64, i64)],
    mut rows: Rows<'_>,
    out: &mut [Vec<Oid>],
) {
    let end = |run: &Run| (run.start + run.len) as usize;
    let mut r = 0usize;
    if let Rows::Span(lo, hi) = rows {
        r = rc.runs.partition_point(|run| end(run) <= lo);
        let last = rc.runs.partition_point(|run| (run.start as usize) < hi);
        track_read_slice(trk, &rc.runs[r..last]);
    }
    while let Some(row) = rows.first_row(seqbase) {
        if rc.runs.get(r).is_none_or(|run| end(run) <= row) {
            r += rc.runs[r..].partition_point(|run| end(run) <= row);
        }
        let Some(run) = rc.runs.get(r) else { break };
        if matches!(rows, Rows::Cands(_)) {
            track_read(trk, run);
        }
        let (here, rest) = rows.split_at_row(end(run), seqbase);
        rows = rest;
        let v = run.value as i64;
        for (&(lo, hi), list) in bounds.iter().zip(out.iter_mut()) {
            if v.within(lo, hi) {
                here.emit_all(seqbase, list);
            }
        }
        r += 1;
    }
}

/// The compressed leg of [`crate::scan::select`] (which has type-checked
/// `preds` against `cc` and charged the CPU): dispatch to the layout's row
/// loop with the predicates lowered into the packed value space.
pub(crate) fn scan_packed<M: MemTracker>(
    trk: &mut M,
    cc: &CompressedColumn,
    seqbase: Oid,
    preds: &[ScanPred],
    rows: Rows<'_>,
    out: &mut [Vec<Oid>],
) {
    let bounds: Vec<(i64, i64)> = preds.iter().map(i64::bounds).collect();
    match cc {
        CompressedColumn::For(fc) => scan_frames(trk, fc, seqbase, &bounds, rows, out),
        CompressedColumn::Dict(dc) => scan_frames(trk, &dc.packed, seqbase, &bounds, rows, out),
        CompressedColumn::Rle(rc) => scan_runs(trk, rc, seqbase, &bounds, rows, out),
    }
}

/// [`select`] over a whole compressed column. Pinned by
/// `bench/src/trace.rs`; goes when a benchmark issue moves that call onto
/// [`select`].
pub fn multi_select_compressed<M: MemTracker>(
    trk: &mut M,
    cc: &CompressedColumn,
    seqbase: Oid,
    preds: &[ScanPred],
) -> Result<Vec<Vec<Oid>>, StorageError> {
    select(trk, ScanCol::Packed(cc, seqbase), preds, RowSet::All)
}

/// [`select`] over the candidate rows of a compressed column. Pinned by
/// `bench/src/trace.rs`; goes when a benchmark issue moves that call onto
/// [`select`].
pub fn multi_select_compressed_cands<M: MemTracker>(
    trk: &mut M,
    cc: &CompressedColumn,
    seqbase: Oid,
    preds: &[ScanPred],
    cands: &[Oid],
) -> Result<Vec<Vec<Oid>>, StorageError> {
    select(trk, ScanCol::Packed(cc, seqbase), preds, RowSet::Cands(cands))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan::par_select;
    use crate::storage::{Bat, StrColumn};
    use memsim::{NullTracker, SimTracker};

    fn uniform(n: usize, seed: u64) -> Vec<i32> {
        let mut x = seed | 1;
        (0..n)
            .map(|_| {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                ((x >> 33) % 4096) as i32
            })
            .collect()
    }

    #[test]
    fn for_roundtrip_is_lossless() {
        for values in [
            uniform(10_000, 7),
            vec![],
            vec![42; 3000],
            (0..5000).map(|i| i - 2500).collect(),
            vec![i32::MIN, i32::MAX, 0, -1, 1],
        ] {
            let fc = ForColumn::encode(&values);
            assert_eq!(fc.decode(), values);
            assert_eq!(fc.len(), values.len());
        }
    }

    #[test]
    fn rle_roundtrip_and_run_structure() {
        let values: Vec<i32> = (0..10_000).map(|i| i / 64).collect();
        let rc = RleColumn::encode(&values);
        assert_eq!(rc.decode(), values);
        assert_eq!(rc.runs().len(), 10_000usize.div_ceil(64));
        assert!(rc.compressed_bytes() * 2 < values.len() * 4);
    }

    #[test]
    fn dict_roundtrip() {
        let strs: Vec<&str> = (0..1000).map(|i| ["AIR", "MAIL", "SHIP"][i % 3]).collect();
        let sc = StrColumn::from_strs(strs);
        let dc = DictColumn::encode(&sc.codes);
        let expect: Vec<i32> = (0..sc.len()).map(|i| sc.codes.get(i) as i32).collect();
        assert_eq!(dc.decode(), expect);
        // 3 distinct values: 2 bits/code vs 8 uncompressed.
        assert!(dc.compressed_bytes() * 3 < sc.len());
    }

    #[test]
    fn pick_encoding_is_stats_driven() {
        // Small local ranges: frame-of-reference.
        assert_eq!(pick_encoding(&Column::I32(uniform(20_000, 3))), Some(Encoding::For));
        // Long runs: RLE.
        let clustered: Vec<i32> = (0..20_000).map(|i| i / 64).collect();
        assert_eq!(pick_encoding(&Column::I32(clustered)), Some(Encoding::Rle));
        // Full-entropy values: no saving, stay uncompressed.
        let wide: Vec<i32> = (0..20_000)
            .map(|i| (i as i64 * 0x9E3779B9 % (1i64 << 31)) as i32 - (1 << 30))
            .collect();
        assert_eq!(pick_encoding(&Column::I32(wide)), None);
        // Small dictionary: packed codes.
        let strs: Vec<&str> = (0..1000).map(|i| ["A", "B", "C"][i % 3]).collect();
        assert_eq!(pick_encoding(&Column::Str(StrColumn::from_strs(strs))), Some(Encoding::Dict));
        // F64 never compresses.
        assert_eq!(pick_encoding(&Column::F64(vec![1.0; 100])), None);
    }

    fn reference(values: Vec<i32>, seqbase: Oid, preds: &[ScanPred]) -> Vec<Vec<Oid>> {
        let bat = Bat::with_void_head(seqbase, Column::I32(values));
        select(&mut NullTracker, ScanCol::Plain(&bat), preds, RowSet::All).unwrap()
    }

    #[test]
    fn compressed_selects_match_uncompressed_bit_for_bit() {
        let preds = [
            ScanPred::RangeI32 { lo: 100, hi: 900 },
            ScanPred::RangeI32 { lo: 0, hi: 5000 }, // full
            ScanPred::RangeI32 { lo: 7, hi: 7 },
            ScanPred::RangeI32 { lo: 9000, hi: 9999 }, // empty
        ];
        for values in [uniform(30_000, 11), (0..30_000).map(|i| i / 64).collect::<Vec<i32>>()] {
            let cc = CompressedColumn::encode(&Column::I32(values.clone())).unwrap();
            let expect = reference(values, 500, &preds);
            let got =
                select(&mut NullTracker, ScanCol::Packed(&cc, 500), &preds, RowSet::All).unwrap();
            assert_eq!(got, expect, "{:?}", cc.encoding());
            for threads in [1usize, 2, 4, 7, 64] {
                let (par, counts) = par_select(ScanCol::Packed(&cc, 500), &preds, threads).unwrap();
                assert_eq!(par, expect, "{:?} threads={threads}", cc.encoding());
                assert_eq!(
                    counts.iter().sum::<usize>(),
                    expect.iter().map(Vec::len).sum::<usize>()
                );
            }
        }
    }

    #[test]
    fn row_ranged_chunks_concatenate_to_the_one_shot_kernel() {
        let preds = [
            ScanPred::RangeI32 { lo: 100, hi: 900 },
            ScanPred::RangeI32 { lo: 0, hi: 5000 }, // full: TakeAll frames clipped
            ScanPred::RangeI32 { lo: 7, hi: 7 },
            ScanPred::RangeI32 { lo: 9000, hi: 9999 }, // empty: Skip frames
        ];
        for values in [uniform(30_011, 11), (0..30_011).map(|i| i / 64).collect::<Vec<i32>>()] {
            let cc = CompressedColumn::encode(&Column::I32(values.clone())).unwrap();
            let expect = reference(values, 500, &preds);
            // Chunk borders deliberately misaligned with both the 1024-row
            // frames and the 64-row runs.
            for chunk in [1usize, 777, 1024, 4099, 30_011, 60_000] {
                let mut acc: Vec<Vec<Oid>> = preds.iter().map(|_| Vec::new()).collect();
                let mut lo = 0;
                while lo < cc.len() {
                    let hi = (lo + chunk).min(cc.len());
                    let part = select(
                        &mut NullTracker,
                        ScanCol::Packed(&cc, 500),
                        &preds,
                        RowSet::Range(lo, hi),
                    )
                    .unwrap();
                    for (k, list) in part.into_iter().enumerate() {
                        acc[k].extend(list);
                    }
                    lo = hi;
                }
                assert_eq!(acc, expect, "{:?} chunk={chunk}", cc.encoding());
            }
        }
    }

    #[test]
    fn row_ranged_dict_chunks_match_uncompressed() {
        let strs: Vec<&str> = (0..5003).map(|i| ["AIR", "MAIL", "SHIP", "RAIL"][i % 4]).collect();
        let sc = StrColumn::from_strs(strs);
        let cc = CompressedColumn::encode(&Column::Str(sc.clone())).unwrap();
        let bat = Bat::with_void_head(10, Column::Str(sc));
        let preds = [ScanPred::EqCode { code: 2 }, ScanPred::EqCode { code: 0 }];
        let expect = select(&mut NullTracker, ScanCol::Plain(&bat), &preds, RowSet::All).unwrap();
        let mut acc: Vec<Vec<Oid>> = preds.iter().map(|_| Vec::new()).collect();
        let mut lo = 0;
        while lo < cc.len() {
            let hi = (lo + 997).min(cc.len());
            let part =
                select(&mut NullTracker, ScanCol::Packed(&cc, 10), &preds, RowSet::Range(lo, hi))
                    .unwrap();
            for (k, list) in part.into_iter().enumerate() {
                acc[k].extend(list);
            }
            lo = hi;
        }
        assert_eq!(acc, expect);
        // Clamped and empty ranges are no-ops.
        let empty =
            select(&mut NullTracker, ScanCol::Packed(&cc, 10), &preds, RowSet::Range(9000, 9001))
                .unwrap();
        assert!(empty.iter().all(Vec::is_empty));
    }

    #[test]
    fn dict_eq_matches_uncompressed() {
        let strs: Vec<&str> = (0..5000).map(|i| ["AIR", "MAIL", "SHIP", "RAIL"][i % 4]).collect();
        let sc = StrColumn::from_strs(strs);
        let cc = CompressedColumn::encode(&Column::Str(sc.clone())).unwrap();
        let bat = Bat::with_void_head(10, Column::Str(sc));
        for code in 0..4u32 {
            let preds = [ScanPred::EqCode { code }];
            let expect =
                select(&mut NullTracker, ScanCol::Plain(&bat), &preds, RowSet::All).unwrap();
            let got =
                select(&mut NullTracker, ScanCol::Packed(&cc, 10), &preds, RowSet::All).unwrap();
            assert_eq!(got, expect, "code {code}");
            let (par, _) = par_select(ScanCol::Packed(&cc, 10), &preds, 4).unwrap();
            assert_eq!(par, expect);
        }
    }

    #[test]
    fn compressed_scan_streams_fewer_bytes() {
        let values = uniform(100_000, 5); // 12-bit range: ~8/3x fewer bytes
        let cc = CompressedColumn::encode(&Column::I32(values.clone())).unwrap();
        assert!(cc.compressed_bytes() * 2 <= cc.uncompressed_bytes(), "{}", cc.bits_per_value());
        let preds = [ScanPred::RangeI32 { lo: 2048, hi: 4095 }]; // splits every frame
        let run_unc = || {
            let bat = Bat::with_void_head(0, Column::I32(values.clone()));
            let mut trk = SimTracker::for_machine(memsim::profiles::origin2000());
            select(&mut trk, ScanCol::Plain(&bat), &preds, RowSet::All).unwrap();
            trk.counters()
        };
        let run_cmp = || {
            let mut trk = SimTracker::for_machine(memsim::profiles::origin2000());
            select(&mut trk, ScanCol::Packed(&cc, 0), &preds, RowSet::All).unwrap();
            trk.counters()
        };
        let (unc, cmp) = (run_unc(), run_cmp());
        assert!(
            cmp.l2_misses * 2 <= unc.l2_misses,
            "compressed {} vs uncompressed {} L2 misses",
            cmp.l2_misses,
            unc.l2_misses
        );
        assert!((cmp.cpu_ns - unc.cpu_ns).abs() < 1e-6, "same per-tuple CPU charge");
    }

    #[test]
    fn block_skipping_avoids_payload_reads() {
        // Sorted values: a narrow predicate touches one frame's payload.
        let values: Vec<i32> = (0..100_000).collect();
        let cc = CompressedColumn::encode(&Column::I32(values)).unwrap();
        assert_eq!(cc.encoding(), Encoding::For, "sorted uniques pack, not run");
        let narrow = [ScanPred::RangeI32 { lo: 50_000, hi: 50_010 }];
        let full = [ScanPred::RangeI32 { lo: 0, hi: 100_000 }];
        let count = |preds: &[ScanPred]| {
            let mut trk = SimTracker::for_machine(memsim::profiles::origin2000());
            let lists = select(&mut trk, ScanCol::Packed(&cc, 0), preds, RowSet::All).unwrap();
            (lists[0].len(), trk.counters())
        };
        let (n_narrow, c_narrow) = count(&narrow);
        let (n_full, c_full) = count(&full);
        assert_eq!(n_narrow, 11);
        assert_eq!(n_full, 100_000);
        // The narrow scan reads headers plus at most two frames' payloads;
        // the full scan take-alls every frame and reads *no* payload.
        assert!(c_narrow.line_accesses < 500, "{}", c_narrow.line_accesses);
        assert!(c_full.line_accesses < 200, "{}", c_full.line_accesses);
    }

    /// `full ∩ cands`, both ascending — the contract the candidate kernels
    /// must reproduce exactly.
    fn intersect_ref(full: &[Oid], cands: &[Oid]) -> Vec<Oid> {
        full.iter().copied().filter(|o| cands.binary_search(o).is_ok()).collect()
    }

    #[test]
    fn candidate_kernels_return_exactly_full_intersect_cands() {
        let preds = [
            ScanPred::RangeI32 { lo: 100, hi: 900 },
            ScanPred::RangeI32 { lo: 0, hi: 5000 }, // full: TakeAll frames
            ScanPred::RangeI32 { lo: 7, hi: 7 },
            ScanPred::RangeI32 { lo: 9000, hi: 9999 }, // empty: Skip frames
        ];
        let seqbase = 500;
        for values in [uniform(30_011, 11), (0..30_011).map(|i| i / 64).collect::<Vec<i32>>()] {
            let n = values.len();
            let cc = CompressedColumn::encode(&Column::I32(values.clone())).unwrap();
            let full = select(&mut NullTracker, ScanCol::Packed(&cc, seqbase), &preds, RowSet::All)
                .unwrap();
            let cand_shapes: Vec<Vec<Oid>> = vec![
                vec![],                                                     // empty
                (0..n).map(|i| seqbase + i as Oid).collect(),               // all-pass
                (0..n).step_by(1013).map(|i| seqbase + i as Oid).collect(), // sparse
                (2048..2300).map(|i| seqbase + i as Oid).collect(),         // one dense cluster
                vec![seqbase, seqbase + (n as Oid) - 1],                    // both ends
            ];
            for cands in &cand_shapes {
                let got = select(
                    &mut NullTracker,
                    ScanCol::Packed(&cc, seqbase),
                    &preds,
                    RowSet::Cands(cands),
                )
                .unwrap();
                for (k, list) in got.iter().enumerate() {
                    assert_eq!(
                        *list,
                        intersect_ref(&full[k], cands),
                        "{:?} pred {k} |cands|={}",
                        cc.encoding(),
                        cands.len()
                    );
                }
            }
        }
        // Dict: same contract over packed codes.
        let strs: Vec<&str> = (0..5003).map(|i| ["AIR", "MAIL", "SHIP", "RAIL"][i % 4]).collect();
        let cc = CompressedColumn::encode(&Column::Str(StrColumn::from_strs(strs))).unwrap();
        let preds = [ScanPred::EqCode { code: 2 }, ScanPred::EqCode { code: 0 }];
        let full = select(&mut NullTracker, ScanCol::Packed(&cc, 10), &preds, RowSet::All).unwrap();
        let cands: Vec<Oid> = (0..5003).step_by(7).map(|i| 10 + i as Oid).collect();
        let got = select(&mut NullTracker, ScanCol::Packed(&cc, 10), &preds, RowSet::Cands(&cands))
            .unwrap();
        for (k, list) in got.iter().enumerate() {
            assert_eq!(*list, intersect_ref(&full[k], &cands), "dict pred {k}");
        }
    }

    #[test]
    fn candidate_kernel_touches_only_candidate_blocks() {
        // 100 frames; candidates confined to two of them.
        let values = uniform(102_400, 5);
        let cc = CompressedColumn::encode(&Column::I32(values)).unwrap();
        assert_eq!(cc.encoding(), Encoding::For);
        let preds = [ScanPred::RangeI32 { lo: 2048, hi: 4095 }]; // straddles every frame
        let cands: Vec<Oid> = (3 * 1024..4 * 1024).chain(71 * 1024..72 * 1024).collect();
        let run_full = || {
            let mut trk = SimTracker::for_machine(memsim::profiles::origin2000());
            select(&mut trk, ScanCol::Packed(&cc, 0), &preds, RowSet::All).unwrap();
            trk.counters()
        };
        let run_cands = || {
            let mut trk = SimTracker::for_machine(memsim::profiles::origin2000());
            select(&mut trk, ScanCol::Packed(&cc, 0), &preds, RowSet::Cands(&cands)).unwrap();
            trk.counters()
        };
        let (full, restricted) = (run_full(), run_cands());
        assert!(
            restricted.l2_misses * 10 <= full.l2_misses,
            "2/100 frames touched must stream >=10x fewer bytes ({} vs {})",
            restricted.l2_misses,
            full.l2_misses
        );
        assert!(restricted.cpu_ns < full.cpu_ns / 10.0, "CPU follows |cands|, not rows");

        // RLE: touched runs only.
        let clustered: Vec<i32> = (0..102_400).map(|i| i / 64).collect();
        let rc = CompressedColumn::encode(&Column::I32(clustered)).unwrap();
        assert_eq!(rc.encoding(), Encoding::Rle);
        let preds = [ScanPred::RangeI32 { lo: 0, hi: 5 }];
        let run = |cands: &[Oid]| {
            let mut trk = SimTracker::for_machine(memsim::profiles::origin2000());
            let lists = select(&mut trk, ScanCol::Packed(&rc, 0), &preds, RowSet::Cands(cands));
            (lists.unwrap().remove(0), trk.counters().reads)
        };
        let sparse: Vec<Oid> = (0..102_400).step_by(6400).collect();
        assert_eq!(run(&sparse).1 as usize, sparse.len(), "one run per sparse candidate");
        let dense: Vec<Oid> = (128..192).collect(); // inside one 64-row run
        let (got, reads) = run(&dense);
        assert_eq!(reads, 1, "one run holds every dense candidate");
        assert_eq!(got, dense, "run value 2 passes, all candidates survive");
    }

    #[test]
    fn type_mismatches_are_errors() {
        let cc = CompressedColumn::encode(&Column::I32(uniform(2000, 1))).unwrap();
        let col = ScanCol::Packed(&cc, 0);
        let err = select(&mut NullTracker, col, &[ScanPred::EqCode { code: 0 }], RowSet::All)
            .unwrap_err();
        assert!(matches!(err, StorageError::TypeMismatch { .. }), "{err:?}");
        let err = par_select(col, &[ScanPred::RangeF64 { lo: 0.0, hi: 1.0 }], 2).unwrap_err();
        assert!(matches!(err, StorageError::TypeMismatch { .. }), "{err:?}");
    }

    #[test]
    fn empty_and_constant_columns() {
        let empty = CompressedColumn::encode(&Column::I32(vec![])).unwrap();
        let lists = select(
            &mut NullTracker,
            ScanCol::Packed(&empty, 0),
            &[ScanPred::RangeI32 { lo: 0, hi: 10 }],
            RowSet::All,
        )
        .unwrap();
        assert!(lists[0].is_empty());
        let constant = CompressedColumn::encode(&Column::I32(vec![7; 5000])).unwrap();
        let lists = select(
            &mut NullTracker,
            ScanCol::Packed(&constant, 100),
            &[ScanPred::RangeI32 { lo: 7, hi: 7 }, ScanPred::RangeI32 { lo: 8, hi: 9 }],
            RowSet::All,
        )
        .unwrap();
        assert_eq!(lists[0].len(), 5000);
        assert_eq!(lists[0][0], 100);
        assert!(lists[1].is_empty());
        let none = select(&mut NullTracker, ScanCol::Packed(&constant, 0), &[], RowSet::All);
        assert!(none.unwrap().is_empty());
    }
}
