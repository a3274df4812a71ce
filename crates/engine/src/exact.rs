//! Exact `f64` summation: a sum rounded once, whatever the order of its
//! terms.
//!
//! Floating-point addition does not associate, so a sum added in stream
//! order depends on the order of the stream — on the plan, the thread count
//! and the shard count that produced it. The correctly rounded sum does not.
//! [`ExactSum`] keeps a sum as an integer multiple of 2^−1074 (a Kulisch
//! long accumulator): adding a value is an exact integer add, two
//! accumulators merge by adding their limbs, and [`ExactSum::finish`]
//! rounds the total to the nearest `f64`, ties to even, once. So any split
//! of the terms, summed in any order and merged in any order, finishes to
//! the same bits.
//!
//! # The block kernel
//!
//! An integer add per value costs several times a float add. [`Split`]
//! sums a block of at most [`BLOCK`] values exactly in two lanes, and hands
//! the accumulator their two totals per block. Each value `v` is cut
//! against σ = 1.5·2^(e+12): `t = σ + v` rounds `v` to a multiple `q` of
//! 2^(e−40), the ulp of σ's binade, and `r = v − (t − σ)` is the rest. When
//! `t` stays in σ's binade, `t − σ` and `r` are exact, `q / 2^(e−40)` is
//! the difference of the bit patterns of `t` and σ, and `|r| <= 2^(e−41)`.
//! So the `q`s sum exactly as integers. The `r`s sum exactly in `f64` when
//! every non-zero `|v|` is at least 2^(e−31): each `r` is then a multiple
//! of 2^(e−83), and a block's sum of them stays below 2^(e−31), 52 bits of
//! 2^(e−83) steps.
//!
//! Both conditions are checked exactly, per value, with integer operations
//! in the loop that sums: `t`'s sign and exponent bits equal σ's, and `v`
//! is zero or not below the bound. `e` carries over from the previous
//! block; a block that fails the check (the first one, one whose
//! magnitudes moved, one holding a NaN, an infinity or a value of 2^1021 or
//! more) measures its own exponent range and is summed again at a new `e`,
//! or, when its non-zero magnitudes span more than [`SPAN`] binades, added
//! value by value.

/// Most values one [`Split::block`] call may sum: the lane sums are exact
/// for up to 2048 values; blocks are the fold's frames.
pub const BLOCK: usize = monet_core::compress::FRAME_LEN;

/// Binades a block's non-zero magnitudes may span and still be summed in
/// lanes (see the [module docs](self)): from 2^(e−31) up to 2^(e+10),
/// which keeps `t` inside σ's binade whatever the rounding.
pub const SPAN: u64 = 40;
/// Binades between σ's `e` and the least non-zero magnitude a split takes.
const BELOW: u64 = 31;

/// 32-bit digits per limb, in an `i64` with 31 bits of carry room.
const DIGIT: u32 = 32;
const DIGIT_MASK: i64 = (1 << DIGIT) - 1;
/// Limbs covering bit 0 (2^−1074) to bit 2097 (2^1023 times the top
/// mantissa bit), and one more for the carries out of the top.
const LIMBS: usize = 67;
/// Adds (in units of one digit's worth per limb) after which the limbs
/// are normalised, well before an `i64` can overflow.
const CARRY_LIMIT: u32 = 1 << 30;

const FRAC: u64 = (1 << 52) - 1;
const SIGN: u64 = 1 << 63;
/// The largest exponent field a split may sit at: σ = 1.5·2^(e+12) stays
/// finite.
const TOP_FIELD: u64 = 2034;

/// Flags for the terms no integer holds.
const NAN: u8 = 1;
const POS_INF: u8 = 2;
const NEG_INF: u8 = 4;

/// An exact sum of `f64` values, rounded once by [`finish`](Self::finish).
/// Two sums are equal when they hold the same total and the same NaN and
/// infinity terms, however their terms were added.
#[derive(Debug, Clone)]
pub struct ExactSum {
    /// The sum as `Σ limbs[i]·2^(32i)` units of 2^−1074. Normalised limbs
    /// hold one digit each, in `0..2^32`, and the top one the signed rest.
    limbs: [i64; LIMBS],
    /// A bound on every limb below the top: `|limb| < carries·2^32`.
    carries: u32,
    /// NaN and infinity terms seen.
    special: u8,
}

impl Default for ExactSum {
    fn default() -> Self {
        ExactSum { limbs: [0; LIMBS], carries: 1, special: 0 }
    }
}

impl PartialEq for ExactSum {
    fn eq(&self, other: &Self) -> bool {
        let (mut a, mut b) = (self.limbs, other.limbs);
        normalise(&mut a);
        normalise(&mut b);
        a == b && self.special == other.special
    }
}

impl Eq for ExactSum {}

impl ExactSum {
    /// The empty sum.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add `v`, exactly.
    pub fn add(&mut self, v: f64) {
        let bits = v.to_bits();
        let field = (bits >> 52) & 0x7ff;
        let frac = bits & FRAC;
        if field == 0x7ff {
            self.special |= match (frac != 0, bits & SIGN != 0) {
                (true, _) => NAN,
                (false, false) => POS_INF,
                (false, true) => NEG_INF,
            };
            return;
        }
        // `v` is `m` units of 2^(p − 1074).
        let (m, p) = if field == 0 { (frac, 0) } else { (frac | (1 << 52), field - 1) };
        self.add_units(m, p, bits & SIGN != 0);
    }

    /// Add (or, when `negative`, subtract) `m · 2^(p − 1074)`, `m < 2^63`.
    fn add_units(&mut self, m: u64, p: u64, negative: bool) {
        if m == 0 {
            return;
        }
        let wide = u128::from(m) << (p % u64::from(DIGIT));
        let i = (p / u64::from(DIGIT)) as usize;
        let digits = [wide as u32 as i64, (wide >> 32) as u32 as i64, (wide >> 64) as i64];
        let limbs = &mut self.limbs[i..i + 3];
        if negative {
            limbs.iter_mut().zip(digits).for_each(|(l, d)| *l -= d);
        } else {
            limbs.iter_mut().zip(digits).for_each(|(l, d)| *l += d);
        }
        self.carries += 1;
        if self.carries >= CARRY_LIMIT {
            normalise(&mut self.limbs);
            self.carries = 1;
        }
    }

    /// Add every term of `other`.
    pub fn merge(&mut self, other: &ExactSum) {
        self.limbs.iter_mut().zip(&other.limbs).for_each(|(l, o)| *l += o);
        self.special |= other.special;
        self.carries += other.carries;
        if self.carries >= CARRY_LIMIT {
            normalise(&mut self.limbs);
            self.carries = 1;
        }
    }

    /// The sum rounded to the nearest `f64`, ties to even: NaN when a term
    /// was NaN or both infinities occurred, the infinity when one did, an
    /// infinity when the exact sum rounds past `f64::MAX`, and `+0.0` when
    /// the sum is zero (an empty sum, or one of zeros of either sign, like
    /// a stream-order sum that starts from `+0.0`).
    pub fn finish(&self) -> f64 {
        match self.special {
            0 => {}
            s if s & NAN != 0 || s == POS_INF | NEG_INF => return f64::NAN,
            POS_INF => return f64::INFINITY,
            _ => return f64::NEG_INFINITY,
        }
        let mut limbs = self.limbs;
        normalise(&mut limbs);
        let negative = limbs[LIMBS - 1] < 0;
        if negative {
            limbs.iter_mut().for_each(|l| *l = -*l);
            normalise(&mut limbs);
        }
        // The magnitude in 32-bit digits; the top limb may hold two.
        let mut digits = [0u64; LIMBS + 1];
        for (d, &l) in digits.iter_mut().zip(&limbs) {
            *d = l as u64;
        }
        digits[LIMBS - 1] &= DIGIT_MASK as u64;
        digits[LIMBS] = limbs[LIMBS - 1] as u64 >> DIGIT;
        let Some(k) = digits.iter().rposition(|&d| d != 0) else { return 0.0 };
        let top = 32 * k + 63 - digits[k].leading_zeros() as usize;
        let magnitude = if top <= 52 {
            // Below 2^53 units of 2^−1074 the sum is exact, and its bits
            // are those of the (subnormal or least normal) `f64`.
            f64::from_bits(window(&digits, 0))
        } else {
            // The 64 bits from the top, the bits below folded into a
            // sticky bit 0: the conversion rounds once, below the guard
            // bit, and the exponent is moved by the window's position.
            let lo = top.saturating_sub(63);
            let sticky = digits[..lo / 32].iter().any(|&d| d != 0)
                || digits[lo / 32] & ((1 << (lo % 32)) - 1) != 0;
            let rounded = (window(&digits, lo) | u64::from(sticky)) as f64;
            let field = (rounded.to_bits() >> 52) as i64 + lo as i64 - 1074;
            if field >= 0x7ff {
                f64::INFINITY
            } else {
                f64::from_bits((field as u64) << 52 | rounded.to_bits() & FRAC)
            }
        };
        if negative {
            -magnitude
        } else {
            magnitude
        }
    }
}

/// Carry every limb but the top into the next, leaving each in `0..2^32`.
fn normalise(limbs: &mut [i64; LIMBS]) {
    let mut carry = 0;
    for l in &mut limbs[..LIMBS - 1] {
        let v = *l + carry;
        *l = v & DIGIT_MASK;
        carry = v >> DIGIT;
    }
    limbs[LIMBS - 1] += carry;
}

/// The 64 bits of `digits` from bit `lo` up.
fn window(digits: &[u64; LIMBS + 1], lo: usize) -> u64 {
    let digit = |i: usize| u128::from(digits.get(i).copied().unwrap_or(0));
    let i = lo / 32;
    let wide = digit(i) | digit(i + 1) << 32 | digit(i + 2) << 64;
    (wide >> (lo % 32)) as u64
}

/// Independent partial sums the block kernel keeps, so consecutive adds
/// do not wait on each other.
const LANES: usize = 4;

/// Where a run of blocks cuts its values (see the [module docs](self)):
/// the bits of σ, and of the least non-zero magnitude the split takes. The
/// default sits at the bottom binade, where only zeros and positive
/// subnormals fit, so a run's first block of other values measures its
/// own.
#[derive(Debug, Clone, Copy, Default)]
pub struct Split {
    sigma: u64,
    least: u64,
}

/// One value cut against a split: the bits of `t = σ + v`, the rest `r`,
/// and the check's two words — `t`'s bits differ from σ's at or above bit
/// 52, and bit 63 of `tiny` is set, exactly when `v` does not fit.
struct Cut {
    t: u64,
    r: f64,
    moved: u64,
    tiny: u64,
}

impl Split {
    /// The split at exponent field `field` (`e = field − 1023`).
    fn at(field: u64) -> Self {
        debug_assert!(field <= TOP_FIELD);
        Split { sigma: (field + 12) << 52 | 1 << 51, least: field.saturating_sub(BELOW) << 52 }
    }

    /// The split a block's values fit, centred in the room [`SPAN`] leaves
    /// around their non-zero magnitudes; `None` when they span more or
    /// reach 2^1021.
    fn measure(vals: &[f64]) -> Option<Self> {
        let fields = vals.iter().map(|v| v.to_bits() & !SIGN).filter(|&a| a != 0).map(|a| a >> 52);
        let (lo, hi) = fields.fold((u64::MAX, 0), |(lo, hi), f| (lo.min(f), hi.max(f)));
        let (from, to) = (hi.saturating_sub(SPAN - BELOW), lo.saturating_add(BELOW).min(TOP_FIELD));
        (from <= to).then(|| Split::at(from + (to - from) / 2))
    }

    /// Cut `v` (see [`Cut`]).
    #[inline(always)]
    fn cut(&self, v: f64) -> Cut {
        let sigma = f64::from_bits(self.sigma);
        let t = sigma + v;
        let a = v.to_bits() & !SIGN;
        Cut {
            t: t.to_bits(),
            r: v - (t - sigma),
            moved: t.to_bits() ^ self.sigma,
            // Below the least magnitude (negative), and not zero.
            tiny: a.wrapping_sub(self.least) & !a.wrapping_sub(1),
        }
    }

    /// Whether the values whose check words OR to `moved` and `tiny` fit.
    fn fit(moved: u64, tiny: u64) -> bool {
        moved >> 52 == 0 && tiny >> 63 == 0
    }

    /// Add `q` units of σ's ulp, and `r`, to `acc`.
    fn flush(&self, acc: &mut ExactSum, q: i64, r: f64) {
        acc.add_units(q.unsigned_abs(), (self.sigma >> 52).saturating_sub(1), q < 0);
        acc.add(r);
    }

    /// Sum `get(item)` over the `items` of one block (at most [`BLOCK`]),
    /// exactly, into `acc`.
    #[inline(always)]
    pub fn block<T: Copy>(&mut self, acc: &mut ExactSum, items: &[T], get: impl Fn(T) -> f64) {
        assert!(items.len() <= BLOCK, "a block holds at most {BLOCK} values");
        match self.lanes(items, &get) {
            Some((q, r)) => self.flush(acc, q, r),
            None => {
                let mut vals = [0.0; BLOCK];
                vals.iter_mut().zip(items).for_each(|(v, &item)| *v = get(item));
                self.refit(acc, &vals[..items.len()]);
            }
        }
    }

    /// The block's lane totals — the `q`s in units of σ's ulp, the `r`s —
    /// or `None` when a value does not fit.
    #[inline(always)]
    fn lanes<T: Copy>(&self, items: &[T], get: impl Fn(T) -> f64) -> Option<(i64, f64)> {
        let (mut t, mut r) = ([0u64; LANES], [0.0; LANES]);
        let (mut moved, mut tiny) = ([0u64; LANES], [0u64; LANES]);
        let chunks = items.chunks_exact(LANES);
        let rest = chunks.remainder();
        for chunk in chunks {
            let vals: [f64; LANES] = std::array::from_fn(|j| get(chunk[j]));
            for j in 0..LANES {
                let cut = self.cut(vals[j]);
                t[j] = t[j].wrapping_add(cut.t);
                r[j] += cut.r;
                moved[j] |= cut.moved;
                tiny[j] |= cut.tiny;
            }
        }
        for &item in rest {
            let cut = self.cut(get(item));
            t[0] = t[0].wrapping_add(cut.t);
            r[0] += cut.r;
            moved[0] |= cut.moved;
            tiny[0] |= cut.tiny;
        }
        let or = |words: [u64; LANES]| words.iter().fold(0, |a, w| a | w);
        Split::fit(or(moved), or(tiny)).then(|| {
            let sum = t.iter().fold(0u64, |a, &w| a.wrapping_add(w));
            // Each `t` is σ plus its `q`, in ulps: the sum less σ's, as
            // signed, is the `q`s' total (below 2^60 in magnitude).
            let q = sum.wrapping_sub((items.len() as u64).wrapping_mul(self.sigma)) as i64;
            (q, (r[0] + r[1]) + (r[2] + r[3]))
        })
    }

    /// A block that failed the check: measure it, and sum it at its own
    /// split, or value by value when it has none.
    #[cold]
    #[inline(never)]
    fn refit(&mut self, acc: &mut ExactSum, vals: &[f64]) {
        match Split::measure(vals) {
            Some(split) => {
                *self = split;
                let (q, r) = split.lanes(vals, |v| v).expect("a block fits its split");
                self.flush(acc, q, r);
            }
            None => vals.iter().for_each(|&v| acc.add(v)),
        }
    }

    /// Sum `get(item)` over the `items` of one block into the accumulators
    /// of their group `codes` (allocated at a group's first non-zero lane
    /// total): the lane totals per group in `parts` (all zero on entry and
    /// on return), flushed at the block's end. The walk that cuts the
    /// values also counts each row into `tally` by its code (an empty
    /// `tally` counts nothing), so a fold takes its row counts in the same
    /// pass.
    pub(crate) fn grouped<T: Copy>(
        &mut self,
        codes: &[u16],
        items: &[T],
        get: impl Fn(T) -> f64,
        tally: &mut [u64],
        parts: &mut [(i64, f64)],
        sums: &mut [Option<Box<ExactSum>>],
    ) {
        assert!(items.len() <= BLOCK && codes.len() == items.len(), "one code per value");
        if !self.scatter(codes, items, &get, tally, parts)
            && !self.rescatter(codes, items, get, parts, sums)
        {
            return;
        }
        // Flush the groups the block touched: found by a walk over the
        // table when it is no longer than the block, else over the codes.
        if parts.len() <= codes.len() {
            (0..parts.len()).for_each(|c| self.flush_group(c, parts, sums));
        } else {
            codes.iter().for_each(|&c| self.flush_group(c as usize, parts, sums));
        }
    }

    /// Add the block's lane totals into `parts`, each value's to its
    /// group's, checking the values in the same loop: whether they all fit.
    /// Counts each row into `tally` on the way.
    #[inline(always)]
    fn scatter<T: Copy>(
        &self,
        codes: &[u16],
        items: &[T],
        get: impl Fn(T) -> f64,
        tally: &mut [u64],
        parts: &mut [(i64, f64)],
    ) -> bool {
        let (mut moved, mut tiny) = (0, 0);
        for (&c, &item) in codes.iter().zip(items) {
            if let Some(rows) = tally.get_mut(c as usize) {
                *rows += 1;
            }
            let cut = self.cut(get(item));
            let part = &mut parts[c as usize];
            // Wrapping: a value that does not fit may move `t` anywhere,
            // and its block's totals are then thrown away.
            part.0 = part.0.wrapping_add(cut.t.wrapping_sub(self.sigma) as i64);
            part.1 += cut.r;
            moved |= cut.moved;
            tiny |= cut.tiny;
        }
        Split::fit(moved, tiny)
    }

    /// A grouped block that failed the check: clear the totals it left in
    /// `parts`, then scatter it again at its own split — `true`, its
    /// totals still to flush — or add it value by value when it has none.
    /// (Its rows were counted by the first scatter.)
    #[cold]
    #[inline(never)]
    fn rescatter<T: Copy>(
        &mut self,
        codes: &[u16],
        items: &[T],
        get: impl Fn(T) -> f64,
        parts: &mut [(i64, f64)],
        sums: &mut [Option<Box<ExactSum>>],
    ) -> bool {
        codes.iter().for_each(|&c| parts[c as usize] = (0, 0.0));
        let mut buf = [0.0; BLOCK];
        buf.iter_mut().zip(items).for_each(|(v, &item)| *v = get(item));
        let vals = &buf[..items.len()];
        match Split::measure(vals) {
            Some(split) => {
                *self = split;
                assert!(self.scatter(codes, vals, |v| v, &mut [], parts), "a block fits its split");
                true
            }
            None => {
                for (&c, &v) in codes.iter().zip(vals) {
                    sums[c as usize].get_or_insert_with(Box::default).add(v);
                }
                false
            }
        }
    }

    /// Flush group `c`'s lane totals, if any, into its accumulator.
    #[inline(always)]
    fn flush_group(&self, c: usize, parts: &mut [(i64, f64)], sums: &mut [Option<Box<ExactSum>>]) {
        if parts[c] != (0, 0.0) {
            let (q, r) = std::mem::take(&mut parts[c]);
            self.flush(sums[c].get_or_insert_with(Box::default), q, r);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sum(vals: &[f64]) -> f64 {
        let mut acc = ExactSum::new();
        vals.iter().for_each(|&v| acc.add(v));
        acc.finish()
    }

    #[test]
    fn sums_round_once() {
        assert_eq!(sum(&[]).to_bits(), 0.0f64.to_bits());
        assert_eq!(sum(&[-0.0, -0.0]).to_bits(), 0.0f64.to_bits());
        assert_eq!(sum(&[1e100, 1.0, -1e100]), 1.0);
        assert_eq!(sum(&[0.1, 0.2]), 0.30000000000000004);
        // 2^53 + 1 is a tie: it rounds to the even 2^53.
        assert_eq!(sum(&[9007199254740992.0, 1.0]), 9007199254740992.0);
        assert_eq!(sum(&[9007199254740992.0, 1.0, 1e-300]), 9007199254740994.0);
        assert_eq!(sum(&[f64::MAX, f64::MAX]), f64::INFINITY);
        assert_eq!(sum(&[-f64::MAX, -f64::MAX, f64::MAX]), -f64::MAX);
        assert_eq!(sum(&[5e-324, 5e-324, -1e-323, 5e-324]), 5e-324);
        assert!(sum(&[f64::INFINITY, f64::NEG_INFINITY]).is_nan());
        assert_eq!(sum(&[f64::NEG_INFINITY, 1.0]), f64::NEG_INFINITY);
    }

    #[test]
    fn the_block_kernel_refits_and_falls_back() {
        let vals: Vec<f64> = (0..BLOCK).map(|i| (i as f64 - 300.0) / 7.0).collect();
        // A block whose magnitudes moved (summed at a new split), and one
        // spanning more than `SPAN` binades (added value by value).
        let moved: Vec<f64> = vals.iter().map(|v| v * 1e9).collect();
        let mut wide = vals.clone();
        wide[17] = 1e300;
        wide[18] = -1e-300;
        let blocks = [&vals, &moved, &wide, &vals];
        let mut split = Split::default();
        for block in blocks {
            let mut acc = ExactSum::new();
            split.block(&mut acc, block, |v| v);
            assert_eq!(acc.finish().to_bits(), sum(block).to_bits());
        }
        // Grouped, with the slot table walked (narrower than a block) and
        // the codes walked (wider): every group's sum, and no partial left.
        let codes: Vec<u16> = (0..BLOCK).map(|i| (i * i % 5) as u16).collect();
        for width in [5, 5000] {
            let mut split = Split::default();
            let (mut parts, mut sums) = (vec![(0, 0.0); width], vec![None; width]);
            let mut each = vec![ExactSum::new(); width];
            for block in blocks {
                split.grouped(&codes, block, |v| v, &mut [], &mut parts, &mut sums);
                codes.iter().zip(block).for_each(|(&c, &v)| each[c as usize].add(v));
                assert!(parts.iter().all(|&p| p == (0, 0.0)), "partials left over");
            }
            for (c, sum) in sums.iter().enumerate() {
                let got = sum.as_deref().map_or(0.0, ExactSum::finish);
                assert_eq!(got.to_bits(), each[c].finish().to_bits(), "group {c}");
            }
        }
    }
}
