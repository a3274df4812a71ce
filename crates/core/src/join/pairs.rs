//! The join phase of the radix family (§3.3, Figures 7–8): join every pair
//! of matching clusters with the plan's per-pair kernel.
//!
//! * The **chained-hash** kernel builds a bucket-chained table on the right
//!   cluster and probes it with the left. With `B` chosen so that the inner
//!   cluster plus its table fits a cache level (`phash L2`/`TLB`/`L1` of
//!   §3.4.4), the random access of the lookup stays within that level —
//!   the \[SKN94\] idea, made scalable by the multi-pass radix-cluster. At
//!   `B = 0` it is the simple hash-join of §3.2: one table over the whole
//!   inner relation, the baseline of Figure 13.
//! * The **nested-loop** kernel compares every tuple pair: "if the number of
//!   clusters H is high, the radix-clustering has brought the potentially
//!   matching tuples near to each other. As chunk sizes are small, a simple
//!   nested loop is then sufficient." That is radix-join; driven to `H = C`
//!   it degenerates into sort/merge-join with radix-sort as the sort.
//!
//! Empty pairs are skipped, which is the "merge step on the radix-bits" of
//! §3.3.1. Workers take contiguous blocks of clusters and their results are
//! concatenated thread-major, so the output is the one-thread cluster-major
//! order at every thread count.
//!
//! Both kernels append through one branch-free emit, which writes every
//! candidate pair and keeps it by its match flag (see the
//! [`hashtable`](super::hashtable) module docs). A worker builds every
//! cluster pair's table in one reused [`ChainedTable`]; the per-pair setup
//! cost `w'_h` of `T_h` is still charged once per pair, because the model
//! prices setting a table up over a new cluster, which the rebuild still
//! does, not the allocation it saves.

use std::ops::Range;

use memsim::{MemTracker, Work};

use super::cluster::ClusteredRel;
use super::hash::KeyHash;
use super::hashtable::{ChainedTable, DEFAULT_TUPLES_PER_BUCKET};
use super::{fan_out, Bun, OidPair};

/// A relation's tuples in radix order and its `2^B + 1` cluster bounds.
pub(super) type Clusters<'a> = (&'a [Bun], &'a [u32]);

/// The per-pair kernel of a radix-family plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum Kernel {
    /// Bucket-chained hash table on the right cluster, probed by the left.
    ChainedHash,
    /// Every left tuple against every right tuple.
    NestedLoop,
}

/// Join every non-empty cluster pair of `left` and `right` with `kernel` on
/// `threads` threads (at most one per cluster; one under an enabled
/// tracker). Returns the pairs and each worker's pair count.
///
/// # Panics
/// Panics if the operands were clustered on different bit counts.
pub(super) fn join_pairs<M: MemTracker, H: KeyHash>(
    trk: &mut M,
    h: H,
    kernel: Kernel,
    left: Clusters<'_>,
    right: Clusters<'_>,
    threads: usize,
) -> (Vec<OidPair>, Vec<usize>) {
    assert_eq!(left.1.len(), right.1.len(), "operands must share the radix bit count");
    let ncl = left.1.len() - 1;
    let threads = if M::ENABLED { 1 } else { threads.min(ncl).max(1) };
    let block = ncl.div_ceil(threads);
    let blocks = (0..threads).map(|t| (t * block).min(ncl)..((t + 1) * block).min(ncl)).collect();
    let parts = fan_out(trk, blocks, |trk, cs| join_block(trk, h, kernel, left, right, cs));
    let counts = parts.iter().map(Vec::len).collect();
    let mut parts = parts.into_iter();
    let mut out = parts.next().unwrap_or_default();
    parts.for_each(|p| out.extend(p));
    (out, counts)
}

/// Pairs a worker's output holds beyond its left clusters' length. [`emit`]
/// writes one slot past the end, so under a key–foreign-key join, where a
/// left tuple matches at most once, the output never grows.
const EMIT_SLACK: usize = 1;

/// One worker's share of [`join_pairs`]: the clusters `cs`, in order.
fn join_block<M: MemTracker, H: KeyHash>(
    trk: &mut M,
    h: H,
    kernel: Kernel,
    (l, lb): Clusters<'_>,
    (r, rb): Clusters<'_>,
    cs: Range<usize>,
) -> Vec<OidPair> {
    // Inside a cluster every key shares its low B hash bits, so the table
    // buckets on the bits above them.
    let bits = (lb.len() - 1).trailing_zeros();
    let mut out = Vec::with_capacity((lb[cs.end] - lb[cs.start]) as usize + EMIT_SLACK);
    let mut table = ChainedTable::default();
    for c in cs {
        let lc = &l[lb[c] as usize..lb[c + 1] as usize];
        let rc = &r[rb[c] as usize..rb[c + 1] as usize];
        if lc.is_empty() || rc.is_empty() {
            continue;
        }
        join_pair(trk, h, kernel, &mut table, bits, lc, rc, &mut out);
    }
    out
}

/// Join the cluster pair `lc ⋈ rc` with `kernel`, appending the pairs to
/// `out` in left-major order. The chained-hash kernel rebuilds `table`, the
/// worker's one table, over `rc`; `bits` is the clusters' radix bit count.
#[allow(clippy::too_many_arguments)]
#[inline]
fn join_pair<M: MemTracker, H: KeyHash>(
    trk: &mut M,
    h: H,
    kernel: Kernel,
    table: &mut ChainedTable,
    bits: u32,
    lc: &[Bun],
    rc: &[Bun],
    out: &mut Vec<OidPair>,
) {
    match kernel {
        Kernel::ChainedHash => {
            // Per-cluster table create/destroy — the w'_h · H term of T_h,
            // charged per pair although the allocation is reused.
            ChainedTable::charge_setup(trk);
            table.rebuild(trk, h, rc, bits, DEFAULT_TUPLES_PER_BUCKET);
            for lt in lc {
                if M::ENABLED {
                    trk.read(lt as *const Bun as usize, 8);
                    // w_h covers build + lookup + result per (outer) tuple.
                    trk.work(Work::HashTuple, 1);
                }
                table.probe(trk, h, rc, lt.tail, |trk, rt, hit| {
                    emit(trk, out, OidPair::new(lt.head, rt.head), hit);
                });
            }
        }
        Kernel::NestedLoop => {
            for lt in lc {
                if M::ENABLED {
                    trk.read(lt as *const Bun as usize, 8);
                }
                for rt in rc {
                    let hit = lt.tail == rt.tail;
                    if M::ENABLED {
                        trk.read(rt as *const Bun as usize, 8);
                        trk.work(Work::RadixCompare, 1);
                        if hit {
                            trk.work(Work::RadixResult, 1);
                        }
                    }
                    emit(trk, out, OidPair::new(lt.head, rt.head), hit);
                }
            }
        }
    }
}

/// The branch-free emit: write `pair` at the end of the join index and keep
/// it exactly when `hit`, by advancing the length by `hit as usize`. The
/// only branch is the capacity check, which almost never fails. A kept
/// pair is charged as one 8-byte write; a dropped one, overwritten by the
/// next emit, is not charged.
#[inline(always)]
fn emit<M: MemTracker>(trk: &mut M, out: &mut Vec<OidPair>, pair: OidPair, hit: bool) {
    let len = out.len();
    if len == out.capacity() {
        out.reserve(1);
    }
    if M::ENABLED && hit {
        trk.write(out.as_ptr() as usize + len * 8, 8);
    }
    // SAFETY: after the reserve, slot `len` lies inside the allocation, and
    // the new length covers only slots written so far.
    unsafe {
        out.as_mut_ptr().add(len).write(pair);
        out.set_len(len + hit as usize);
    }
}

/// The relation's clusters as [`join_pairs`] takes them.
pub(super) fn clusters(rel: &ClusteredRel) -> Clusters<'_> {
    (&rel.data, &rel.bounds)
}

/// The partitioned hash-join phase on already-clustered relations (what
/// Figure 11 measures), on one thread.
///
/// # Panics
/// Panics if the two relations were clustered on different bit counts.
pub fn join_clustered<M: MemTracker, H: KeyHash>(
    trk: &mut M,
    h: H,
    left: &ClusteredRel,
    right: &ClusteredRel,
) -> Vec<OidPair> {
    join_pairs(trk, h, Kernel::ChainedHash, clusters(left), clusters(right), 1).0
}

/// The radix-join phase on already-clustered relations (what Figure 10
/// measures), on one thread.
///
/// # Panics
/// Panics if the operands were clustered on different bit counts.
pub fn radix_join_clustered<M: MemTracker, H: KeyHash>(
    trk: &mut M,
    h: H,
    left: &ClusteredRel,
    right: &ClusteredRel,
) -> Vec<OidPair> {
    join_pairs(trk, h, Kernel::NestedLoop, clusters(left), clusters(right), 1).0
}

/// Simple hash-join: `left ⋈ right` with a single hash table built on
/// `right` — the chained-hash kernel on the one `B = 0` cluster pair.
pub fn simple_hash_join<M: MemTracker, H: KeyHash>(
    trk: &mut M,
    h: H,
    left: &[Bun],
    right: &[Bun],
) -> Vec<OidPair> {
    let (lb, rb) = ([0, left.len() as u32], [0, right.len() as u32]);
    join_pairs(trk, h, Kernel::ChainedHash, (left, &lb), (right, &rb), 1).0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::join::hash::FibHash;
    use crate::join::radix_cluster;
    use memsim::{profiles, NullTracker, SimTracker};

    fn shuffled_pair(n: usize, seed: u64) -> (Vec<Bun>, Vec<Bun>) {
        // L and R over the same key set, independently permuted: hit rate 1.
        let mut state = seed;
        let mut next = move || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let mut keys: Vec<u32> = (0..n as u32).map(|k| k.wrapping_mul(2654435761)).collect();
        for i in (1..keys.len()).rev() {
            keys.swap(i, (next() % (i as u64 + 1)) as usize);
        }
        let left: Vec<Bun> = keys.iter().enumerate().map(|(i, &k)| Bun::new(i as u32, k)).collect();
        for i in (1..keys.len()).rev() {
            keys.swap(i, (next() % (i as u64 + 1)) as usize);
        }
        let right: Vec<Bun> =
            keys.iter().enumerate().map(|(i, &k)| Bun::new(i as u32, k)).collect();
        (left, right)
    }

    /// The walk the branch-free emit replaced: push a pair on a match only.
    fn match_then_push(kernel: Kernel, bits: u32, lc: &[Bun], rc: &[Bun]) -> Vec<OidPair> {
        let mut out = Vec::new();
        match kernel {
            Kernel::ChainedHash => {
                let table = ChainedTable::build(
                    &mut NullTracker,
                    FibHash,
                    rc,
                    bits,
                    DEFAULT_TUPLES_PER_BUCKET,
                );
                for lt in lc {
                    table.probe(&mut NullTracker, FibHash, rc, lt.tail, |_, rt, hit| {
                        if hit {
                            out.push(OidPair::new(lt.head, rt.head));
                        }
                    });
                }
            }
            Kernel::NestedLoop => {
                for lt in lc {
                    for rt in rc.iter().filter(|rt| rt.tail == lt.tail) {
                        out.push(OidPair::new(lt.head, rt.head));
                    }
                }
            }
        }
        out
    }

    #[test]
    fn branch_free_emit_matches_match_then_push() {
        // Keys repeat on both sides (M:N), many left keys miss, and at 8
        // bits some clusters are empty on one side or both.
        let keys = |n: u32, m: u32, step: u32| -> Vec<Bun> {
            (0..n).map(|i| Bun::new(i, i * step % m)).collect()
        };
        let (l, r) = (keys(700, 97, 7), keys(300, 131, 11));
        fn cluster(rel: &ClusteredRel, c: usize) -> &[Bun] {
            &rel.data[rel.bounds[c] as usize..rel.bounds[c + 1] as usize]
        }
        for bits in [0u32, 3, 8] {
            let passes = crate::strategy::plan_passes(bits, 64);
            let lc = radix_cluster(&mut NullTracker, FibHash, l.clone(), bits, &passes);
            let rc = radix_cluster(&mut NullTracker, FibHash, r.clone(), bits, &passes);
            let ncl = 1usize << bits;
            if bits == 8 {
                assert!((0..ncl).any(|c| cluster(&lc, c).is_empty()), "an empty left cluster");
                assert!((0..ncl).any(|c| cluster(&rc, c).is_empty()), "an empty right cluster");
            }
            for kernel in [Kernel::ChainedHash, Kernel::NestedLoop] {
                let expect: Vec<OidPair> = (0..ncl)
                    .flat_map(|c| match_then_push(kernel, bits, cluster(&lc, c), cluster(&rc, c)))
                    .collect();
                assert!(expect.len() > l.len(), "M:N: more pairs than left tuples");
                // From no capacity (every emit may grow the output) and from
                // exactly the final length (only a trailing miss grows it).
                for capacity in [0, expect.len()] {
                    let mut out = Vec::with_capacity(capacity);
                    let mut table = ChainedTable::default();
                    for c in 0..ncl {
                        let (lcl, rcl) = (cluster(&lc, c), cluster(&rc, c));
                        join_pair(
                            &mut NullTracker,
                            FibHash,
                            kernel,
                            &mut table,
                            bits,
                            lcl,
                            rcl,
                            &mut out,
                        );
                    }
                    assert_eq!(out, expect, "{kernel:?} B={bits} capacity={capacity}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "share the radix bit count")]
    fn mismatched_bits_rejected() {
        let l = radix_cluster(&mut NullTracker, FibHash, vec![Bun::new(0, 0)], 2, &[2]);
        let r = radix_cluster(&mut NullTracker, FibHash, vec![Bun::new(0, 0)], 3, &[3]);
        join_clustered(&mut NullTracker, FibHash, &l, &r);
    }

    #[test]
    fn clustering_improves_join_phase_locality() {
        // Fig. 11's mechanism at small scale: with clusters that fit L1,
        // the join phase takes fewer L2+mem stalls per tuple than the
        // unclustered (bits=0) case on an out-of-cache relation.
        let (l, r) = shuffled_pair(1 << 16, 14); // 512 KiB per side
        let m = profiles::origin2000();

        let join_stalls = |bits: u32, passes: &[u32]| {
            let mut t = SimTracker::for_machine(m);
            let lc = radix_cluster(&mut t, FibHash, l.clone(), bits, passes);
            let rc = radix_cluster(&mut t, FibHash, r.clone(), bits, passes);
            t.system_mut().reset_counters(); // isolate the join phase
            join_clustered(&mut t, FibHash, &lc, &rc);
            let c = t.counters();
            c.stall_mem_ns + c.stall_tlb_ns
        };

        let unclustered = join_stalls(0, &[]);
        let clustered = join_stalls(8, &[8]);
        assert!(
            clustered < unclustered / 2.0,
            "clustered join stalls {clustered} vs unclustered {unclustered}"
        );
    }

    #[test]
    fn more_bits_reduce_compare_work() {
        // T_r's dominant term is C·(C/H)·w_r: doubling the bits halves the
        // nested-loop work. Verify via simulated CPU time of the join phase.
        let (l, r) = shuffled_pair(1 << 12, 15);
        let m = profiles::origin2000();
        let cpu_at = |bits: u32| {
            let mut t = SimTracker::for_machine(m);
            let lc = radix_cluster(&mut t, FibHash, l.clone(), bits, &[bits]);
            let rc = radix_cluster(&mut t, FibHash, r.clone(), bits, &[bits]);
            t.system_mut().reset_counters();
            radix_join_clustered(&mut t, FibHash, &lc, &rc);
            t.counters().cpu_ns
        };
        let c4 = cpu_at(4);
        let c8 = cpu_at(8);
        assert!(c4 > 8.0 * c8, "16x fewer comparisons expected: {c4} vs {c8}");
    }
}
