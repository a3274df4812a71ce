//! Sort-merge join — the classical baseline of Figure 13.
//!
//! §3.2: "Merge-join is not a viable alternative as it requires sorting on
//! both relations first, which would cause random access over even a larger
//! memory region." The sorting phase here is an LSB radix-sort on the full
//! 32-bit key (\[Knu68\], which the paper cites for radix-sort) — each of its
//! four 8-bit passes is exactly a 256-way scatter, i.e. the same memory
//! access pattern as a straightforward 8-bit cluster pass, which is why
//! sort-merge loses: it runs four such passes over the *entire* relation.

use memsim::{MemTracker, Work};

use super::{Bun, OidPair};

/// Stable LSB radix-sort by `tail`, 4 passes of 8 bits, instrumented.
pub fn radix_sort_by_tail<M: MemTracker>(trk: &mut M, input: Vec<Bun>) -> Vec<Bun> {
    let n = input.len();
    let mut src = input;
    let mut dst = vec![Bun::default(); n];
    for pass in 0..4u32 {
        let shift = pass * 8;
        let mut hist = [0u32; 256];
        let hist_base = hist.as_ptr() as usize;
        for t in &src {
            let b = ((t.tail >> shift) & 0xFF) as usize;
            if M::ENABLED {
                trk.read(t as *const Bun as usize, 8);
                trk.write(hist_base + b * 4, 4);
            }
            hist[b] += 1;
        }
        let mut acc = 0u32;
        for slot in hist.iter_mut() {
            let c = *slot;
            *slot = acc;
            acc += c;
        }
        let dst_base = dst.as_ptr() as usize;
        for t in &src {
            let b = ((t.tail >> shift) & 0xFF) as usize;
            let pos = hist[b] as usize;
            hist[b] += 1;
            dst[pos] = *t;
            if M::ENABLED {
                trk.read(t as *const Bun as usize, 8);
                trk.write(hist_base + b * 4, 4);
                trk.write(dst_base + pos * 8, 8);
                trk.work(Work::SortTuple, 1);
            }
        }
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

/// Tracked top-down mergesort by `tail` — the *comparison-based* sorting
/// phase a 1999 system would have used (our default [`radix_sort_by_tail`]
/// is a stronger baseline). Access pattern per level:
/// two sequential input runs, one sequential output — log2(n) full sweeps
/// instead of radix-sort's four.
pub fn merge_sort_by_tail<M: MemTracker>(trk: &mut M, input: Vec<Bun>) -> Vec<Bun> {
    let n = input.len();
    let mut src = input;
    let mut dst = vec![Bun::default(); n];
    let mut width = 1usize;
    while width < n {
        let dst_base = dst.as_ptr() as usize;
        let mut lo = 0usize;
        while lo < n {
            let mid = (lo + width).min(n);
            let hi = (lo + 2 * width).min(n);
            let (mut i, mut j, mut k) = (lo, mid, lo);
            while i < mid || j < hi {
                let take_left = if i >= mid {
                    false
                } else if j >= hi {
                    true
                } else {
                    if M::ENABLED {
                        trk.read(&src[i] as *const Bun as usize, 8);
                        trk.read(&src[j] as *const Bun as usize, 8);
                        trk.work(Work::MergeTuple, 1);
                    }
                    src[i].tail <= src[j].tail
                };
                let t = if take_left {
                    let t = src[i];
                    i += 1;
                    t
                } else {
                    let t = src[j];
                    j += 1;
                    t
                };
                dst[k] = t;
                if M::ENABLED {
                    trk.write(dst_base + k * 8, 8);
                    trk.work(Work::SortTuple, 1);
                }
                k += 1;
            }
            lo = hi;
        }
        std::mem::swap(&mut src, &mut dst);
        width *= 2;
    }
    src
}

/// Sort-merge join with the comparison-based sorting phase (the weaker,
/// more period-faithful baseline).
pub fn sort_merge_join_cmp<M: MemTracker>(
    trk: &mut M,
    left: Vec<Bun>,
    right: Vec<Bun>,
) -> Vec<OidPair> {
    let l = merge_sort_by_tail(trk, left);
    let r = merge_sort_by_tail(trk, right);
    merge_join_sorted(trk, &l, &r)
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

    #[test]
    fn merge_sort_sorts_stably_and_permutes() {
        let input: Vec<Bun> = (0..4321).map(|i| Bun::new(i, i.wrapping_mul(40503) % 97)).collect();
        let sorted = merge_sort_by_tail(&mut NullTracker, input.clone());
        assert!(sorted.windows(2).all(|w| w[0].tail <= w[1].tail));
        for w in sorted.windows(2) {
            if w[0].tail == w[1].tail {
                assert!(w[0].head < w[1].head, "mergesort must be stable");
            }
        }
        let mut a: Vec<u32> = input.iter().map(|t| t.tail).collect();
        let mut b: Vec<u32> = sorted.iter().map(|t| t.tail).collect();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);
    }

    #[test]
    fn cmp_variant_matches_radix_variant() {
        let l = pseudo_random(3_000, 2654435761);
        let r = pseudo_random(2_000, 40503);
        let a = sort_pairs(sort_merge_join(&mut NullTracker, l.clone(), r.clone()));
        let b = sort_pairs(sort_merge_join_cmp(&mut NullTracker, l, r));
        assert_eq!(a, b);
    }

    #[test]
    fn cmp_sort_costs_more_memory_traffic_at_scale() {
        // log2(n) sweeps vs 4: the comparison sort must show more simulated
        // line accesses on a large input.
        use memsim::{profiles, SimTracker};
        let input = pseudo_random(1 << 16, 2654435761);
        let mut a = SimTracker::for_machine(profiles::origin2000());
        radix_sort_by_tail(&mut a, input.clone());
        let mut b = SimTracker::for_machine(profiles::origin2000());
        merge_sort_by_tail(&mut b, input);
        assert!(
            b.counters().line_accesses > a.counters().line_accesses,
            "mergesort {} vs radix-sort {}",
            b.counters().line_accesses,
            a.counters().line_accesses
        );
    }
}
