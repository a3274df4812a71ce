//! Index-key extraction from BAT columns.
//!
//! Every index in this crate is keyed by `u32`. A column becomes indexable
//! by mapping its values onto `u32` keys **order-preservingly**, so that a
//! range predicate over the column translates into a key range over the
//! index:
//!
//! * `I32` — offset encoding ([`key_of_i32`]): flip the sign bit, so
//!   `i32::MIN ↦ 0` and ordering is preserved across the sign boundary;
//! * `Oid`/`U8` — identity (already unsigned);
//! * `Str` — the dictionary *code*. Codes are assigned in first-occurrence
//!   order, so only equality predicates are meaningful — which is exactly
//!   what the engine's string predicates are.
//!
//! `F64` columns are not indexable: their values do not map onto the 4-byte
//! key space, and the paper's §3.2 analysis only prices selections over
//! fixed-width integer BATs anyway.
//!
//! Bulk loads take their entries in `(key, oid)` order from
//! [`build_entries`], which orders them with stable radix passes over the
//! keys' significant bits — the join's radix-cluster machinery — rather
//! than a comparison sort: §3.2 rejects merge-join because it "requires
//! sorting on both relations first", and the same holds for loading an
//! index.

use memsim::NullTracker;

use crate::join::sort_by_key;
use crate::storage::{Bat, Codes, Column, Head, Oid, StorageError, ValueType};

/// Order-preserving `u32` key of an `i32` value (`i32::MIN ↦ 0`).
#[inline]
pub fn key_of_i32(v: i32) -> u32 {
    (v as u32) ^ 0x8000_0000
}

/// Map an inclusive `i32` range onto the index-key space (order-preserving,
/// so an inverted input range stays inverted).
#[inline]
pub fn key_range_i32(lo: i32, hi: i32) -> (u32, u32) {
    (key_of_i32(lo), key_of_i32(hi))
}

/// Extract `(key, oid)` entries from a BAT tail, sorted by `(key, oid)` —
/// the bulk-load input every index constructor takes. Returns
/// [`StorageError::TypeMismatch`] for tails with no `u32` key mapping
/// (`F64`, `I64`).
///
/// No comparison sort: the entries are emitted in head order and ordered by
/// the stable counting passes of [`crate::join::canonicalize`] over the
/// significant bits of `key − min(key)`, in digits of ≤ 11 bits (one pass
/// for a key span of up to 2^10, such as `qty` or a byte-coded string
/// column). Under a void or ascending head the OIDs ascend in head order,
/// so stability alone leaves each run of equal keys in OID order; any
/// other head is first put in OID order by the same passes over the OIDs.
pub fn build_entries(bat: &Bat) -> Result<Vec<(u32, Oid)>, StorageError> {
    let head = bat.head();
    Ok(match bat.tail() {
        Column::I32(v) => sorted_entries(head, v.iter().map(|&x| key_of_i32(x))),
        Column::Oid(v) => sorted_entries(head, v.iter().copied()),
        Column::U8(v) => sorted_entries(head, v.iter().map(|&x| u32::from(x))),
        Column::Str(sc) => match &sc.codes {
            Codes::U8(c) => sorted_entries(head, c.iter().map(|&x| u32::from(x))),
            Codes::U16(c) => sorted_entries(head, c.iter().map(|&x| u32::from(x))),
        },
        other => {
            return Err(StorageError::TypeMismatch {
                expected: ValueType::I32,
                got: other.value_type(),
            })
        }
    })
}

/// `keys` paired with `head`'s OIDs, in `(key, oid)` order (see
/// [`build_entries`]).
fn sorted_entries(head: &Head, keys: impl Iterator<Item = u32> + Clone) -> Vec<(u32, Oid)> {
    let (lo, hi) = keys.clone().fold((u32::MAX, 0), |(lo, hi), k| (lo.min(k), hi.max(k)));
    let entries: Vec<(u32, Oid)> = match head {
        Head::Void { seqbase } => keys.enumerate().map(|(i, k)| (k, seqbase + i as Oid)).collect(),
        Head::Oids(oids) => keys.zip(oids.iter().copied()).collect(),
    };
    if entries.len() < 2 {
        return entries;
    }
    let by_oid = match head {
        Head::Oids(oids) if oids.windows(2).any(|w| w[0] > w[1]) => {
            let (lo, hi) = oids.iter().fold((Oid::MAX, 0), |(lo, hi), &o| (lo.min(o), hi.max(o)));
            sort_by_key(&mut NullTracker, entries, |e| e.1, lo, hi, |_, _| {})
        }
        _ => entries,
    };
    if lo == hi {
        return by_oid;
    }
    sort_by_key(&mut NullTracker, by_oid, |e| e.0, lo, hi, |_, _| {})
}

/// Number of distinct keys in a `(key, oid)` entry list sorted by key.
pub fn distinct_keys(entries: &[(u32, Oid)]) -> usize {
    let mut n = 0;
    let mut last = None;
    for &(k, _) in entries {
        if last != Some(k) {
            n += 1;
            last = Some(k);
        }
    }
    n
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::StrColumn;

    #[test]
    fn i32_keys_preserve_order_across_the_sign_boundary() {
        let vals = [i32::MIN, -7, -1, 0, 1, 42, i32::MAX];
        let keys: Vec<u32> = vals.iter().map(|&v| key_of_i32(v)).collect();
        assert!(keys.windows(2).all(|w| w[0] < w[1]), "{keys:?}");
        assert_eq!(key_of_i32(i32::MIN), 0);
        assert_eq!(key_of_i32(i32::MAX), u32::MAX);
        let (lo, hi) = key_range_i32(-5, 5);
        assert!(lo < hi);
    }

    #[test]
    fn entries_sort_by_key_then_oid() {
        let bat = Bat::with_void_head(100, Column::I32(vec![3, -1, 3, 0]));
        let e = build_entries(&bat).unwrap();
        assert_eq!(
            e,
            vec![
                (key_of_i32(-1), 101),
                (key_of_i32(0), 103),
                (key_of_i32(3), 100),
                (key_of_i32(3), 102),
            ]
        );
        assert_eq!(distinct_keys(&e), 3);
    }

    #[test]
    fn string_entries_use_dictionary_codes() {
        let bat = Bat::with_void_head(0, Column::Str(StrColumn::from_strs(["B", "A", "B"])));
        let sc = bat.tail().as_str_col().unwrap();
        let e = build_entries(&bat).unwrap();
        let code_b = sc.dict.code_of("B").unwrap();
        assert_eq!(e.iter().filter(|&&(k, _)| k == code_b).count(), 2);
        assert_eq!(distinct_keys(&e), 2);
    }

    #[test]
    fn f64_tails_are_not_indexable() {
        let bat = Bat::with_void_head(0, Column::F64(vec![1.0]));
        assert!(matches!(build_entries(&bat), Err(StorageError::TypeMismatch { .. })));
    }

    mod props {
        use super::*;
        use crate::index::{ColumnIndex, IndexKind};
        use proptest::prelude::*;
        use proptest::TestRng;

        /// Key spans (`max − min`) to draw from: constant, one bit, a byte,
        /// one counting digit (11 bits) and one bit either side of it, two
        /// digits and a bit, and the whole key space.
        const SPANS: [u32; 10] = [
            0,
            1,
            255,
            (1 << 10) - 1,
            (1 << 11) - 1,
            1 << 11,
            (1 << 12) - 1,
            (1 << 22) + 1,
            u32::MAX - 1,
            u32::MAX,
        ];

        /// Uniform in `lo..=lo + span`.
        fn within(rng: &mut TestRng, lo: u32, span: u32) -> u32 {
            lo + (rng.next_u64() % (u64::from(span) + 1)) as u32
        }

        /// `n` keys in `lo..=lo + span`, both ends present when `n ≥ 2`, at
        /// random positions.
        fn keys(rng: &mut TestRng, n: usize, lo: u32, span: u32) -> Vec<u32> {
            let mut keys: Vec<u32> = (0..n).map(|_| within(rng, lo, span)).collect();
            if n >= 2 {
                keys[0] = lo;
                keys[1] = lo + span;
                keys.swap(0, rng.next_u64() as usize % n);
                keys.swap(1, rng.next_u64() as usize % n);
            }
            keys
        }

        /// A column of `kind` whose keys span at most `span`.
        fn column(rng: &mut TestRng, kind: u8, n: usize, span: u32) -> Column {
            let anywhere = |rng: &mut TestRng, span: u32| within(rng, 0, u32::MAX - span);
            match kind {
                0 => {
                    let lo = anywhere(rng, span);
                    let keys = keys(rng, n, lo, span);
                    Column::I32(keys.into_iter().map(|k| (k ^ 0x8000_0000) as i32).collect())
                }
                1 => {
                    let span = span.min(255);
                    let lo = within(rng, 0, 255 - span);
                    Column::U8(keys(rng, n, lo, span).into_iter().map(|k| k as u8).collect())
                }
                2 => {
                    let lo = anywhere(rng, span);
                    Column::Oid(keys(rng, n, lo, span))
                }
                _ => {
                    // Codes follow first occurrence, so the code span is the
                    // distinct count less one.
                    let (mut sc, span) = match kind {
                        3 => (StrColumn::new_u8(), span.min(255)),
                        _ => (StrColumn::new_u16(), span.min(u32::from(u16::MAX))),
                    };
                    for k in keys(rng, n, 0, span) {
                        sc.push(&format!("s{k}")).unwrap();
                    }
                    Column::Str(sc)
                }
            }
        }

        /// A head of `n` OIDs: void, strictly ascending, or in any order
        /// with repeats.
        fn head(rng: &mut TestRng, shape: u8, n: usize) -> Head {
            let n32 = n as u32;
            match shape {
                0 => Head::Void { seqbase: within(rng, 0, u32::MAX - n32) },
                1 => {
                    let mut oid = within(rng, 0, u32::MAX - 3 * n32);
                    let oids = (0..n).map(|_| {
                        oid += 1 + within(rng, 0, 2);
                        oid
                    });
                    Head::Oids(oids.collect())
                }
                _ => {
                    let top = if rng.next_u64() & 1 == 0 { u32::MAX } else { n32 / 2 };
                    Head::Oids((0..n).map(|_| within(rng, 0, top)).collect())
                }
            }
        }

        /// The key [`build_entries`] should give row `i`, read independently.
        fn key_at(col: &Column, i: usize) -> u32 {
            match col {
                Column::I32(v) => key_of_i32(v[i]),
                Column::U8(v) => u32::from(v[i]),
                Column::Oid(v) => v[i],
                Column::Str(sc) => sc.codes.get(i),
                _ => unreachable!("only indexable columns are drawn"),
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            /// The entries are a comparison sort of the same `(key, oid)`
            /// pairs, and the distinct-key count an index keeps is that of
            /// the sorted pairs.
            #[test]
            fn entries_equal_a_comparison_sort_of_the_same_pairs(
                kind in 0u8..5,
                span in 0usize..SPANS.len(),
                shape in 0u8..3,
                len in (0usize..5, 3usize..6_000),
                seed in any::<u64>(),
            ) {
                let n = [0, 1, 2, len.1 % 64, len.1][len.0];
                let mut rng = TestRng::from_name(&seed.to_string());
                let tail = column(&mut rng, kind, n, SPANS[span]);
                let head = head(&mut rng, shape, n);
                let bat = Bat::new(head, tail).unwrap();
                let mut expect: Vec<(u32, Oid)> =
                    (0..n).map(|i| (key_at(bat.tail(), i), bat.head_oid(i))).collect();
                expect.sort_unstable();
                let at = format!("kind={kind} n={n} span={} head={shape}", SPANS[span]);
                prop_assert_eq!(build_entries(&bat).unwrap(), expect.clone(), "{}", at);
                expect.dedup_by_key(|e| e.0);
                let idx = ColumnIndex::build(&bat, IndexKind::Hash).unwrap();
                prop_assert_eq!(idx.distinct(), expect.len(), "{}", at);
            }
        }
    }
}
