//! `engine::exact` against an oracle of its own: `reference::exact_sum`
//! adds every term into a big natural number and rounds once, and shares
//! no code with `ExactSum`. Every sum here — value by value, through the
//! block kernel, and merged from random splits in random orders — must
//! finish to the oracle's bits. The case count is a property of the build:
//! the debug run is the quick one.

// Only its `exact_sum` is used here.
#[allow(dead_code)]
#[path = "common/reference.rs"]
mod reference;

use monet_mem::engine::exact::{ExactSum, Split, BLOCK, SPAN};
use proptest::TestRng;

/// Random sums per property.
const CASES: usize = if cfg!(debug_assertions) { 192 } else { 3072 };

/// Bits of `v`, with every NaN the same.
fn bits(v: f64) -> u64 {
    if v.is_nan() {
        f64::NAN.to_bits()
    } else {
        v.to_bits()
    }
}

fn int(rng: &mut TestRng, lo: i64, hi: i64) -> i64 {
    lo + (rng.next_u64() % (hi - lo) as u64) as i64
}

/// A finite `f64` with a random sign, mantissa and exponent field in
/// `fields` (0 gives a subnormal).
fn wide(rng: &mut TestRng, fields: (i64, i64)) -> f64 {
    let field = int(rng, fields.0, fields.1) as u64;
    f64::from_bits(rng.next_u64() & ((1 << 63) | ((1 << 52) - 1)) | field << 52)
}

/// One term of the kind `kind`.
fn term(rng: &mut TestRng, kind: u64) -> f64 {
    match kind {
        // Prices: cents, a few binades.
        0 => int(rng, 0, 1_000_000) as f64 / 100.0,
        // Anything finite, subnormals and 2^±1000 included.
        1 => wide(rng, (0, 2047)),
        // Near one scale, so a run of blocks keeps its split.
        2 => wide(rng, (1020, 1030)),
        // Subnormals and the least normals.
        3 => wide(rng, (0, 2)),
        // Huge: sums overflow to infinity.
        4 => wide(rng, (2040, 2047)),
        // Zeros of either sign.
        5 => [0.0, -0.0][int(rng, 0, 2) as usize],
        // Rarely, a NaN or an infinity.
        _ => [f64::NAN, f64::INFINITY, f64::NEG_INFINITY][int(rng, 0, 3) as usize],
    }
}

/// Terms of a random mix of kinds, with cancelling pairs.
fn terms(rng: &mut TestRng, max: usize) -> Vec<f64> {
    let kinds: Vec<u64> = (0..int(rng, 1, 4)).map(|_| rng.next_u64() % 7).collect();
    let n = int(rng, 0, max as i64 + 1) as usize;
    let mut out = Vec::with_capacity(n);
    while out.len() < n {
        let kind = kinds[int(rng, 0, kinds.len() as i64) as usize];
        // Specials only seldom, or every sum would be NaN.
        let kind = if kind == 6 && !rng.next_u64().is_multiple_of(8) { 0 } else { kind };
        let v = term(rng, kind);
        out.push(v);
        if rng.next_u64().is_multiple_of(4) {
            out.push(-v);
        }
    }
    out.truncate(n);
    out
}

fn shuffle<T>(rng: &mut TestRng, vals: &mut [T]) {
    for i in (1..vals.len()).rev() {
        vals.swap(i, int(rng, 0, i as i64 + 1) as usize);
    }
}

/// `vals` added one at a time.
fn per_value(vals: &[f64]) -> ExactSum {
    let mut acc = ExactSum::new();
    vals.iter().for_each(|&v| acc.add(v));
    acc
}

/// `vals` through the block kernel, blocks of random lengths sharing one
/// split.
fn blocked(rng: &mut TestRng, vals: &[f64]) -> ExactSum {
    let (mut acc, mut split, mut at) = (ExactSum::new(), Split::default(), 0);
    while at < vals.len() {
        let len = int(rng, 1, BLOCK as i64 + 1) as usize;
        let block = &vals[at..(at + len).min(vals.len())];
        split.block(&mut acc, block, |v| v);
        at += block.len();
    }
    acc
}

/// 2^e, subnormal powers included (`powi` would round those to zero).
fn p(e: i32) -> f64 {
    if e >= -1022 {
        2f64.powi(e)
    } else {
        f64::from_bits(1 << (e + 1074))
    }
}

/// The adversarial sums, each a few terms.
fn adversarial() -> Vec<Vec<f64>> {
    let tie = p(53);
    vec![
        vec![],
        vec![0.0],
        vec![-0.0],
        vec![-0.0, -0.0],
        vec![0.0, -0.0],
        vec![1e100, 1.0, -1e100],
        vec![1e100, -1e100, 1.0],
        vec![1.0, 1e100, 1.0, -1e100],
        vec![0.1, 0.2, 0.3],
        // 2^53 + 1: a tie, to the even 2^53; one more tiny term breaks it.
        vec![tie, 1.0],
        vec![tie, 1.0, p(-1074)],
        vec![tie, 1.0, -p(-1074)],
        vec![tie, 3.0],
        vec![-tie, -1.0],
        // Subnormals, alone and cancelling into them.
        vec![p(-1074), p(-1074)],
        vec![p(-1022), -p(-1074)],
        vec![f64::MIN_POSITIVE, -f64::MIN_POSITIVE / 2.0, p(-1074)],
        // 2^±1000 mixes.
        vec![p(1000), p(-1000), -p(1000)],
        vec![p(1000), p(-1000)],
        vec![p(-1000), p(1000), p(-1000), -p(1000)],
        vec![p(1023), p(-1074), -p(1023), p(-1074)],
        // Overflow: past f64::MAX rounds to infinity, and back does not.
        vec![f64::MAX, f64::MAX],
        vec![f64::MAX, p(970)],
        vec![f64::MAX, p(969)],
        vec![f64::MAX, f64::MAX, -f64::MAX],
        vec![-f64::MAX, -f64::MAX],
        // Specials.
        vec![f64::NAN],
        vec![1.0, f64::NAN, 2.0],
        vec![f64::INFINITY, 1.0],
        vec![f64::NEG_INFINITY, -f64::MAX],
        vec![f64::INFINITY, f64::NEG_INFINITY],
        vec![f64::INFINITY, f64::INFINITY],
    ]
}

#[test]
fn value_by_value_sums_round_like_the_oracle() {
    for vals in adversarial() {
        assert_eq!(
            bits(per_value(&vals).finish()),
            bits(reference::exact_sum(vals.clone())),
            "{vals:?}"
        );
    }
    let mut rng = TestRng::from_name("exact_sum_prop::per_value");
    for case in 0..CASES {
        let vals = terms(&mut rng, 300);
        let got = per_value(&vals).finish();
        assert_eq!(bits(got), bits(reference::exact_sum(vals.clone())), "case {case}: {vals:?}");
    }
}

#[test]
fn the_block_kernel_sums_like_the_oracle() {
    let mut rng = TestRng::from_name("exact_sum_prop::block");
    for vals in adversarial() {
        let want = bits(reference::exact_sum(vals.clone()));
        assert_eq!(bits(blocked(&mut rng, &vals).finish()), want, "{vals:?}");
    }
    for case in 0..CASES {
        let vals = terms(&mut rng, 3 * BLOCK);
        let got = blocked(&mut rng, &vals).finish();
        assert_eq!(bits(got), bits(reference::exact_sum(vals.clone())), "case {case}");
    }
}

/// Blocks that pass one split and then fail it — a value too large, one too
/// small for the binades the split covers — are summed again or added value
/// by value, never rounded.
#[test]
fn blocks_that_leave_their_split_are_refit() {
    let base: Vec<f64> = (0..BLOCK).map(|i| (i as f64 - 400.0) / 7.0).collect();
    let span = SPAN as i32;
    for odd in [p(20), p(60), -p(300), p(-span + 2), p(-span - 5), p(-1074), f64::MIN_POSITIVE] {
        for at in [0, 1, BLOCK / 2, BLOCK - 1] {
            let mut block = base.clone();
            block[at] = odd;
            // A block with one odd value between two that are not.
            let vals: Vec<f64> = base.iter().chain(&block).chain(&base).copied().collect();
            let (mut acc, mut split) = (ExactSum::new(), Split::default());
            for chunk in vals.chunks(BLOCK) {
                split.block(&mut acc, chunk, |v| v);
            }
            let want = reference::exact_sum(vals.clone());
            assert_eq!(bits(acc.finish()), bits(want), "{odd:e} at {at}");
        }
    }
}

/// A block whose split was set by the block before it, holding a tie that
/// only a term far below the split's binades breaks: the kernel must not
/// sum that term in its lanes, where it would round away.
#[test]
fn a_term_below_the_split_still_breaks_a_tie() {
    let big = p(53);
    let setter: Vec<f64> = (0..BLOCK).map(|i| if i % 2 == 0 { big } else { -big }).collect();
    for tiny in [p(-1074), p(-600), p(-40)] {
        let mut tie = vec![0.0; BLOCK];
        tie[..3].copy_from_slice(&[big, 1.0, tiny]);
        let (mut acc, mut split) = (ExactSum::new(), Split::default());
        split.block(&mut acc, &setter, |v| v);
        split.block(&mut acc, &tie, |v| v);
        let want = reference::exact_sum(setter.iter().chain(&tie).copied());
        assert_eq!(want, big + 2.0, "the oracle breaks the tie up");
        assert_eq!(bits(acc.finish()), bits(want), "{tiny:e}");
    }
}

#[test]
fn merges_of_random_splits_in_random_orders_sum_like_the_oracle() {
    let mut rng = TestRng::from_name("exact_sum_prop::merge");
    let mut cases = adversarial();
    cases.extend((0..CASES).map(|_| terms(&mut rng, 2 * BLOCK)));
    for (case, vals) in cases.into_iter().enumerate() {
        let want = bits(reference::exact_sum(vals.clone()));
        let mut shuffled = vals.clone();
        shuffle(&mut rng, &mut shuffled);
        let mut cuts: Vec<usize> = (0..int(&mut rng, 0, 5))
            .map(|_| int(&mut rng, 0, vals.len() as i64 + 1) as usize)
            .collect();
        cuts.extend([0, vals.len()]);
        cuts.sort_unstable();
        let mut parts: Vec<ExactSum> = cuts
            .windows(2)
            .map(|w| {
                let part = &shuffled[w[0]..w[1]];
                if rng.next_u64().is_multiple_of(2) {
                    per_value(part)
                } else {
                    blocked(&mut rng, part)
                }
            })
            .collect();
        let mut order: Vec<usize> = (0..parts.len()).collect();
        shuffle(&mut rng, &mut order);
        let mut merged = ExactSum::new();
        for i in order {
            merged.merge(&parts[i]);
        }
        assert_eq!(bits(merged.finish()), want, "case {case}");
        assert_eq!(merged, per_value(&vals), "case {case}: the same total, however added");
        // A merged accumulator keeps taking terms.
        let extra = parts.pop().unwrap_or_default();
        merged.merge(&extra);
        let mut twice = vals.clone();
        twice.extend_from_slice(&shuffled[cuts[cuts.len() - 2]..]);
        assert_eq!(
            bits(merged.finish()),
            bits(reference::exact_sum(twice)),
            "case {case}, remerged"
        );
    }
}

/// Many terms of one sign at the top of the range carry far past one limb:
/// the sum stays exact until it rounds to infinity.
#[test]
fn long_sums_carry_exactly() {
    let big = 2f64.powi(1000);
    let mut acc = ExactSum::new();
    let mut n = 0u64;
    while n < 1 << 20 {
        acc.add(big);
        acc.add(1.0);
        n += 1;
    }
    assert_eq!(acc.finish(), big * n as f64);
    let mut many = ExactSum::new();
    (0..1u64 << 20).for_each(|_| many.merge(&acc));
    assert_eq!(many.finish(), big * (n << 20) as f64);
}
