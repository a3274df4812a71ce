//! Sort-merge join — the classical baseline of Figure 13.
//!
//! §3.2: "Merge-join is not a viable alternative as it requires sorting on
//! both relations first, which would cause random access over even a larger
//! memory region." The sorting phase here is an LSB radix-sort on the full
//! 32-bit key (\[Knu68\], which the paper cites for radix-sort), and each of
//! its four 8-bit passes *is* a straightforward 8-bit cluster pass: the same
//! counting-scatter code (`join::radix`) with the key byte as its digit, so
//! the same 256-way scatter and the same simulated charges per tuple, only
//! `SortTuple` instead of `ClusterTuple` work. That is why sort-merge loses:
//! it runs four such passes over the *entire* relation.

use memsim::{MemTracker, Work};

use super::radix::Pass;
use super::{Bun, OidPair};

/// Stable LSB radix-sort by `tail`, 4 passes of 8 bits, instrumented.
pub fn radix_sort_by_tail<M: MemTracker>(trk: &mut M, input: Vec<Bun>) -> Vec<Bun> {
    let n = input.len();
    let mut src = input;
    let mut dst = vec![Bun::default(); n];
    for shift in [0, 8, 16, 24] {
        let digit = move |t: &Bun| ((t.tail >> shift) & 0xFF) as usize;
        let pass = Pass { fan: 256, digit, gap: 0, work: Work::SortTuple };
        pass.run(trk, &src, &[0, n as u32], &mut dst, 1);
        std::mem::swap(&mut src, &mut dst);
    }
    src
}

/// Merge two relations already sorted by `tail`, producing all matching
/// OID pairs (duplicate runs yield cross products).
pub fn merge_join_sorted<M: MemTracker>(trk: &mut M, left: &[Bun], right: &[Bun]) -> Vec<OidPair> {
    debug_assert!(left.windows(2).all(|w| w[0].tail <= w[1].tail), "left not sorted");
    debug_assert!(right.windows(2).all(|w| w[0].tail <= w[1].tail), "right not sorted");
    let mut out = Vec::new();
    let (mut i, mut j) = (0usize, 0usize);
    while i < left.len() && j < right.len() {
        if M::ENABLED {
            trk.read(&left[i] as *const Bun as usize, 8);
            trk.read(&right[j] as *const Bun as usize, 8);
            trk.work(Work::MergeTuple, 1);
        }
        let (lv, rv) = (left[i].tail, right[j].tail);
        if lv < rv {
            i += 1;
        } else if lv > rv {
            j += 1;
        } else {
            // Cross product of the equal-key runs.
            let i_end = left[i..].iter().position(|t| t.tail != lv).map_or(left.len(), |k| i + k);
            let j_end = right[j..].iter().position(|t| t.tail != rv).map_or(right.len(), |k| j + k);
            for lt in &left[i..i_end] {
                for rt in &right[j..j_end] {
                    if M::ENABLED {
                        let addr = out.as_ptr() as usize + out.len() * 8;
                        trk.write(addr, 8);
                        trk.work(Work::MergeTuple, 1);
                    }
                    out.push(OidPair::new(lt.head, rt.head));
                }
            }
            i = i_end;
            j = j_end;
        }
    }
    out
}

/// The complete sort-merge join: radix-sort both sides, then merge.
pub fn sort_merge_join<M: MemTracker>(
    trk: &mut M,
    left: Vec<Bun>,
    right: Vec<Bun>,
) -> Vec<OidPair> {
    let l = radix_sort_by_tail(trk, left);
    let r = radix_sort_by_tail(trk, right);
    merge_join_sorted(trk, &l, &r)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::join::nljoin::nested_loop_join;
    use crate::join::sort_pairs;
    use memsim::NullTracker;

    fn pseudo_random(n: u32, mul: u32) -> Vec<Bun> {
        (0..n).map(|i| Bun::new(i, i.wrapping_mul(mul))).collect()
    }

    #[test]
    fn radix_sort_sorts_and_permutes() {
        let input = pseudo_random(10_000, 2654435761);
        let sorted = radix_sort_by_tail(&mut NullTracker, input.clone());
        assert!(sorted.windows(2).all(|w| w[0].tail <= w[1].tail));
        let mut a: Vec<u32> = input.iter().map(|t| t.tail).collect();
        let mut b: Vec<u32> = sorted.iter().map(|t| t.tail).collect();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);
    }

    #[test]
    fn radix_sort_is_stable() {
        let input: Vec<Bun> = (0..1000).map(|i| Bun::new(i, i % 5)).collect();
        let sorted = radix_sort_by_tail(&mut NullTracker, input);
        for w in sorted.windows(2) {
            if w[0].tail == w[1].tail {
                assert!(w[0].head < w[1].head);
            }
        }
    }

    #[test]
    fn radix_sort_handles_extreme_keys() {
        let input = vec![
            Bun::new(0, u32::MAX),
            Bun::new(1, 0),
            Bun::new(2, 1 << 31),
            Bun::new(3, 0xFF),
            Bun::new(4, 0xFF00),
        ];
        let sorted = radix_sort_by_tail(&mut NullTracker, input);
        let keys: Vec<u32> = sorted.iter().map(|t| t.tail).collect();
        assert_eq!(keys, vec![0, 0xFF, 0xFF00, 1 << 31, u32::MAX]);
    }

    #[test]
    fn merge_matches_oracle_with_duplicates() {
        let l: Vec<Bun> = (0..200).map(|i| Bun::new(i, i % 13)).collect();
        let r: Vec<Bun> = (0..150).map(|i| Bun::new(i, i % 17)).collect();
        let got = sort_pairs(sort_merge_join(&mut NullTracker, l.clone(), r.clone()));
        let expect = sort_pairs(nested_loop_join(&mut NullTracker, &l, &r));
        assert_eq!(got, expect);
    }

    #[test]
    fn unique_keys_hit_rate_one() {
        let l = pseudo_random(5_000, 2654435761);
        let mut r = l.clone();
        r.reverse();
        let got = sort_merge_join(&mut NullTracker, l, r);
        assert_eq!(got.len(), 5_000);
    }

    #[test]
    fn empty_inputs() {
        assert!(sort_merge_join(&mut NullTracker, vec![], vec![Bun::new(0, 1)]).is_empty());
        assert!(sort_merge_join(&mut NullTracker, vec![Bun::new(0, 1)], vec![]).is_empty());
    }
}
