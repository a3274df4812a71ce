//! The radix family of equi-join algorithms (§3.3) and their baselines.
//!
//! All algorithms operate on arrays of [`Bun`]s — the paper's 8-byte
//! `\[OID, int\]` records (§3.4.1: "binary relations (BATs) of 8 bytes wide
//! tuples") — joining on the `tail` value and producing a *join index*
//! \[Val87\]: a list of `\[OID, OID\]` pairs ([`OidPair`]).
//!
//! Every kernel is generic over [`memsim::MemTracker`]; pass
//! [`memsim::NullTracker`] for native speed or [`memsim::SimTracker`] to
//! replay the algorithm's access pattern through the simulated Origin2000.
//!
//! **One join.** §3.3 describes one family: radix-cluster both inputs on
//! `B` bits in `P` passes, then join each pair of matching clusters.
//! [`join`] runs a [`JoinPlan`] exactly that way on any thread count: one
//! [`cluster()`] body for both inputs, then one loop over the cluster
//! pairs running the plan's per-pair kernel — chained hash for partitioned
//! hash-join (simple hash is its `B = 0` case), nested loop for
//! radix-join. Sort-merge stays its own baseline behind the same entry
//! point.
//!
//! | paper name (Fig. 8/13)   | [`Algorithm`]     | one-thread form |
//! |--------------------------|-------------------|-----------------|
//! | radix-cluster            | —                 | [`radix_cluster`] |
//! | partitioned hash-join    | `PartitionedHash` | [`partitioned_hash_join`], phase [`join_clustered`] |
//! | radix-join               | `Radix`           | [`radix_join`], phase [`radix_join_clustered`] |
//! | simple hash              | `SimpleHash`      | [`simple_hash_join`] |
//! | sort-merge               | `SortMerge`       | [`sort_merge_join`] |
//! | (correctness oracle)     | —                 | [`nested_loop_join`] |

pub mod cluster;
pub mod hash;
pub mod hashtable;
pub mod nljoin;
pub mod pairs;
pub(crate) mod radix;
pub mod smjoin;

pub use cluster::{cluster, cluster_bounds_from_data, radix_cluster, ClusteredRel};
pub use hash::{radix_of, FibHash, IdentityHash, KeyHash, MurmurHash};
pub use hashtable::ChainedTable;
pub use nljoin::nested_loop_join;
pub use pairs::{join_clustered, radix_join_clustered, simple_hash_join};
pub use smjoin::{merge_join_sorted, radix_sort_by_tail, sort_merge_join};

use memsim::{track_read_slice, track_write_slice, MemTracker, NullTracker, Work};

use crate::storage::Oid;
use crate::strategy::{Algorithm, JoinPlan};
use pairs::{clusters, join_pairs, Kernel};
use radix::Pass;

/// Join `left ⋈ right` on tail equality as `plan` says, on `threads`
/// threads: cluster both inputs on `plan.bits` bits in `plan.pass_bits`
/// passes, then join every non-empty cluster pair with the plan's kernel
/// (see the module docs). `SimpleHash` ignores the plan's bits, and so does
/// `SortMerge`, which runs [`sort_merge_join`].
///
/// The output is the same at every thread count. The simulated charges are
/// not: every worker charges a cold hierarchy of its own (see
/// [`crate::scan::fan_out`]), so they match across runs at each thread
/// count, and match those of the one-thread forms below only at
/// `threads = 1`. The second result holds each cluster-pair worker's pair
/// count (thread-major, summing to the pair count) when `threads > 1` asked
/// a partitioned algorithm to fan out, even if the clusters left it one
/// worker; otherwise `None`.
pub fn join<M: MemTracker, H: KeyHash>(
    trk: &mut M,
    h: H,
    left: Vec<Bun>,
    right: Vec<Bun>,
    plan: &JoinPlan,
    threads: usize,
) -> (Vec<OidPair>, Option<Vec<usize>>) {
    let (kernel, bits, passes) = match plan.algorithm {
        Algorithm::PartitionedHash => (Kernel::ChainedHash, plan.bits, &plan.pass_bits[..]),
        Algorithm::Radix => (Kernel::NestedLoop, plan.bits, &plan.pass_bits[..]),
        Algorithm::SimpleHash => (Kernel::ChainedHash, 0, &[][..]),
        Algorithm::SortMerge => return (sort_merge_join(trk, left, right), None),
    };
    let l = cluster(trk, h, left, bits, passes, threads);
    let r = cluster(trk, h, right, bits, passes, threads);
    let (pairs, counts) = join_pairs(trk, h, kernel, clusters(&l), clusters(&r), threads);
    let fanned = threads > 1 && plan.algorithm != Algorithm::SimpleHash;
    (pairs, fanned.then_some(counts))
}

/// The complete partitioned hash-join of Figure 8 on one thread: [`join`]
/// with `Algorithm::PartitionedHash`.
pub fn partitioned_hash_join<M: MemTracker, H: KeyHash>(
    trk: &mut M,
    h: H,
    left: Vec<Bun>,
    right: Vec<Bun>,
    bits: u32,
    pass_bits: &[u32],
) -> Vec<OidPair> {
    let plan =
        JoinPlan { algorithm: Algorithm::PartitionedHash, bits, pass_bits: pass_bits.to_vec() };
    join(trk, h, left, right, &plan, 1).0
}

/// The complete radix-join of Figure 8 on one thread: [`join`] with
/// `Algorithm::Radix`.
pub fn radix_join<M: MemTracker, H: KeyHash>(
    trk: &mut M,
    h: H,
    left: Vec<Bun>,
    right: Vec<Bun>,
    bits: u32,
    pass_bits: &[u32],
) -> Vec<OidPair> {
    let plan = JoinPlan { algorithm: Algorithm::Radix, bits, pass_bits: pass_bits.to_vec() };
    join(trk, h, left, right, &plan, 1).0
}

/// One 8-byte BUN: `\[OID, value\]`, the unit of all join experiments.
#[repr(C)]
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Hash)]
pub struct Bun {
    /// The tuple's object identifier.
    pub head: Oid,
    /// The join attribute value.
    pub tail: u32,
}

impl Bun {
    /// Construct a BUN.
    #[inline]
    pub const fn new(head: Oid, tail: u32) -> Self {
        Self { head, tail }
    }
}

/// One entry of a join index: the OIDs of a matching tuple pair.
#[repr(C)]
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct OidPair {
    /// OID from the left (outer) relation.
    pub left: Oid,
    /// OID from the right (inner) relation.
    pub right: Oid,
}

impl OidPair {
    /// Construct a pair.
    #[inline]
    pub const fn new(left: Oid, right: Oid) -> Self {
        Self { left, right }
    }
}

/// Canonicalize a join result for comparison in tests: sorted by (left,
/// right).
pub fn sort_pairs(mut pairs: Vec<OidPair>) -> Vec<OidPair> {
    pairs.sort_unstable();
    pairs
}

/// Widest digit of [`canonicalize`]'s counting passes: 2^11 four-byte
/// counters (8 KiB) stay L1-resident.
const CANON_DIGIT_BITS: u32 = 11;

/// Pairs the top-digit buckets of [`canonicalize`] hold on average, so the
/// passes over a bucket's low bits run in cache.
const CANON_BUCKET_LOG: u32 = 10;

/// Pairs of padding between top-digit buckets (one 64-byte line). Dense
/// lefts make every bucket the same power-of-two size, and unpadded, the
/// scatter's write cursors would all fall into the same few cache sets.
const CANON_PAD: usize = 8;

/// Put a join index in canonical `(left, right)` order in linear time: for
/// an index of distinct pairs (every join emits one) the result is
/// [`sort_pairs`]'s, bit for bit.
///
/// Left OIDs are dense integers, so instead of a comparison sort this runs
/// the paper's own radix-cluster over the join's output — the
/// restore-OID-order step of Manegold, Boncz, Nes & Kersten, "Cache-Conscious
/// Radix-Decluster Projections" (VLDB 2004):
///
/// 1. one compare pass returns an already strictly ascending index untouched
///    (under a key–foreign-key join, simple hash, `B = 0` and the void
///    positional join emit one);
/// 2. otherwise stable counting passes over the significant bits of
///    `left − min(left)`, in digits of ≤ 11 bits, order it by `left`: one
///    scatter on the top digit into contiguous left ranges of ~2^10 pairs,
///    then LSD passes over each range's low bits while it is cache-resident
///    (an LSD pass over the whole index would end on a top-digit scatter,
///    which on dense lefts is the slowest pass);
/// 3. each run of equal `left` is then ordered by `right` — under a
///    key–foreign-key join every such run has length 1.
///
/// Under an enabled tracker every pass is charged as sequential slice
/// accesses: the compare pass as one read; each counting pass — the top
/// digit's over the whole index, a low digit's per range — as a read for
/// its histogram, a read of its source and a write of its destination,
/// plus one [`Work::SortTuple`] per pair; the run pass, where it is not
/// fused into the per-range passes, as one read; and each pair of a run it
/// reorders one `SortTuple`.
pub fn canonicalize<M: MemTracker>(trk: &mut M, pairs: Vec<OidPair>) -> Vec<OidPair> {
    track_read_slice(trk, &pairs);
    let Some(desc) = pairs.windows(2).position(|w| w[0] >= w[1]) else { return pairs };
    // `pairs[..=desc]` ascends, so its ends bound its lefts.
    let (lo, hi) = pairs[desc + 1..]
        .iter()
        .fold((pairs[0].left, pairs[desc].left), |(lo, hi), p| (lo.min(p.left), hi.max(p.left)));
    sort_by_key(trk, pairs, |p| p.left, lo, hi, order_runs)
}

/// Order each run of equal `left` in `pairs` (sorted by `left`) by `right`.
fn order_runs<M: MemTracker>(trk: &mut M, pairs: &mut [OidPair]) {
    for run in pairs.chunk_by_mut(|a, b| a.left == b.left).filter(|run| run.len() > 1) {
        run.sort_unstable_by_key(|p| p.right);
        trk.work(Work::SortTuple, run.len() as u64);
    }
}

/// Charge one counting pass from `src` into `dst` (see [`canonicalize`]).
fn charge_pass<M: MemTracker, T>(trk: &mut M, src: &[T], dst: &[T]) {
    if M::ENABLED {
        track_read_slice(trk, src);
        track_read_slice(trk, src);
        track_write_slice(trk, dst);
        trk.work(Work::SortTuple, src.len() as u64);
    }
}

/// Steps 2 and 3 of [`canonicalize`] over any items with a `u32` key in
/// `lo..=hi`: stable counting passes over the significant bits of
/// `key − lo` order `items` by key, then `runs` is handed every range of
/// the result that holds whole runs of equal keys, to order within each
/// run (a no-op keeps each run in input order). Charged as
/// [`canonicalize`] says.
///
/// # Panics
/// Panics if `items` is empty.
pub(crate) fn sort_by_key<M, T, K>(
    trk: &mut M,
    items: Vec<T>,
    key: K,
    lo: u32,
    hi: u32,
    mut runs: impl FnMut(&mut M, &mut [T]),
) -> Vec<T>
where
    M: MemTracker,
    T: Copy + Send + Sync,
    K: Fn(&T) -> u32 + Copy + Sync,
{
    let n = items.len();
    let bits = u32::BITS - (hi - lo).leading_zeros();
    let key = move |t: &T| key(t) - lo;
    let top = bits.min(CANON_DIGIT_BITS).min(n.ilog2().saturating_sub(CANON_BUCKET_LOG).max(1));
    let low = bits - top;
    let pad = if low == 0 { 0 } else { CANON_PAD };

    // The top digit: contiguous key ranges, each bucket followed by `pad`
    // unused items. The passes run untracked; `charge_pass` charges them.
    let top_digit = move |t: &T| (key(t) >> low) as usize;
    let top_pass = Pass { fan: 1 << top, digit: top_digit, gap: pad, work: Work::SortTuple };
    let mut out = vec![items[0]; n + (1 << top) * pad];
    let bounds = top_pass.run(&mut NullTracker, &items, &[0, n as u32], &mut out, 1);
    charge_pass(trk, &items, &out[..n]);
    if low == 0 {
        track_read_slice(trk, &out[..n]);
        out.truncate(n);
        runs(trk, &mut out);
        return out;
    }

    // Each bucket's low bits, while it is in cache: the first pass reads
    // the padded bucket of `out` and writes the packed range of `scratch`,
    // later ones alternate between the packed ranges of the two (a packed
    // range never reaches a later bucket's padded one). Equal keys share
    // a bucket, so the run pass rides along.
    let passes = low.div_ceil(CANON_DIGIT_BITS);
    let width = low.div_ceil(passes);
    let mask = (1u32 << width) - 1;
    let mut scratch = items;
    for (d, w) in bounds.windows(2).enumerate() {
        let padded = w[0] as usize..w[1] as usize - pad;
        let range = padded.start - d * pad..padded.end - d * pad;
        for pass in 0..passes {
            let digit = move |t: &T| ((key(t) >> (pass * width)) & mask) as usize;
            let (src, dst) = match pass {
                0 => (&out[padded.clone()], &mut scratch[range.clone()]),
                _ if pass % 2 == 1 => (&scratch[range.clone()], &mut out[range.clone()]),
                _ => (&out[range.clone()], &mut scratch[range.clone()]),
            };
            let low_pass = Pass { fan: 1 << width, digit, gap: 0, work: Work::SortTuple };
            low_pass.run(&mut NullTracker, src, &[0, src.len() as u32], dst, 1);
            charge_pass(trk, src, dst);
        }
        let sorted = if passes % 2 == 1 { &mut scratch[range] } else { &mut out[range] };
        runs(trk, sorted);
    }
    if passes % 2 == 1 {
        scratch
    } else {
        out.truncate(n);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bun_is_exactly_8_bytes() {
        // §3.4.1: "BATs of 8 bytes wide tuples" — the layout claim the whole
        // cost model rests on.
        assert_eq!(std::mem::size_of::<Bun>(), 8);
        assert_eq!(std::mem::align_of::<Bun>(), 4);
    }

    #[test]
    fn oid_pair_is_exactly_8_bytes() {
        assert_eq!(std::mem::size_of::<OidPair>(), 8);
    }

    fn plan(algorithm: Algorithm, bits: u32) -> JoinPlan {
        JoinPlan { algorithm, bits, pass_bits: crate::strategy::plan_passes(bits, 64) }
    }

    const ALGORITHMS: [Algorithm; 4] =
        [Algorithm::PartitionedHash, Algorithm::Radix, Algorithm::SimpleHash, Algorithm::SortMerge];

    #[test]
    fn join_is_thread_count_invariant() {
        // Collision-heavy keys: duplicate cross products and empty clusters.
        let dup = |n: u32, m: u32| (0..n).map(|i| Bun::new(i, i * 7 % m)).collect::<Vec<_>>();
        // Every right key four times, and every other left key missing.
        let half_hit: Vec<Bun> = (0..600).map(|i| Bun::new(i, i % 100 + i % 2 * 1000)).collect();
        let inputs = [
            (dup(600, 37), dup(400, 41)),
            (half_hit, dup(400, 100)),
            (vec![], vec![]),
            (dup(50, 5), vec![]),
            (vec![], dup(50, 5)),
        ];
        for algorithm in ALGORITHMS {
            let partitioned = matches!(algorithm, Algorithm::PartitionedHash | Algorithm::Radix);
            for bits in [0u32, 1, 4, 8] {
                let plan = plan(algorithm, bits);
                for (l, r) in &inputs {
                    let oracle = sort_pairs(nested_loop_join(&mut memsim::NullTracker, l, r));
                    let (one, none) =
                        join(&mut memsim::NullTracker, FibHash, l.clone(), r.clone(), &plan, 1);
                    assert_eq!(none, None);
                    assert_eq!(sort_pairs(one.clone()), oracle, "{plan:?}");
                    for threads in [2usize, 3, 7] {
                        let (got, counts) = join(
                            &mut memsim::NullTracker,
                            FibHash,
                            l.clone(),
                            r.clone(),
                            &plan,
                            threads,
                        );
                        let at =
                            format!("{plan:?} threads={threads} |l|={} |r|={}", l.len(), r.len());
                        assert_eq!(got, one, "{at}");
                        if !partitioned {
                            assert_eq!(counts, None, "{at}");
                            continue;
                        }
                        // One worker per cluster at most: B = 0 clamps to one.
                        let counts = counts.expect(&at);
                        assert_eq!(counts.len(), threads.min(1 << bits), "{at}");
                        assert_eq!(counts.iter().sum::<usize>(), got.len(), "{at}");
                    }
                }
            }
        }
    }

    #[test]
    fn an_enabled_tracker_joins_on_one_thread() {
        let l: Vec<Bun> =
            (0..3000).map(|i| Bun::new(i, i.wrapping_mul(2654435761) % 4000)).collect();
        let r: Vec<Bun> = (0..2000).map(|i| Bun::new(i, i.wrapping_mul(40503) % 4000)).collect();
        for algorithm in ALGORITHMS {
            let plan = plan(algorithm, 6);
            let run = |threads| {
                let mut trk = memsim::SimTracker::for_machine(memsim::profiles::origin2000());
                let (pairs, _) = join(&mut trk, FibHash, l.clone(), r.clone(), &plan, threads);
                let c = trk.counters();
                (pairs, c.reads, c.writes, c.cpu_ns.to_bits())
            };
            assert_eq!(run(4), run(1), "{plan:?}");
        }
    }

    #[test]
    fn simple_hash_trashes_the_cache_that_partitioning_keeps() {
        // §3.2's complaint quantified: when the inner relation + table
        // exceed L1, probes miss constantly. The partitioned variant on the
        // same data stalls far less, and wins in total.
        let n = 1u32 << 17;
        let l: Vec<Bun> = (0..n).map(|i| Bun::new(i, i.wrapping_mul(2654435761) % n)).collect();
        let r: Vec<Bun> = (0..n).map(|i| Bun::new(i, i)).collect();
        let run = |algorithm, bits| {
            let mut trk = memsim::SimTracker::for_machine(memsim::profiles::origin2000());
            let pairs = join(&mut trk, FibHash, l.clone(), r.clone(), &plan(algorithm, bits), 1).0;
            (pairs.len(), trk.counters().elapsed_ms())
        };
        let (simple, simple_ms) = run(Algorithm::SimpleHash, 0);
        let (part, part_ms) = run(Algorithm::PartitionedHash, 8);
        assert_eq!(simple, part);
        assert!(part_ms < simple_ms, "partitioned {part_ms} ms should beat simple {simple_ms} ms");
    }

    #[test]
    fn sort_pairs_canonicalizes() {
        let p = vec![OidPair::new(2, 1), OidPair::new(1, 9), OidPair::new(1, 2)];
        let s = sort_pairs(p);
        assert_eq!(s, vec![OidPair::new(1, 2), OidPair::new(1, 9), OidPair::new(2, 1)]);
    }

    /// `canonicalize` must be `sort_pairs`, bit for bit.
    fn assert_canonical(pairs: Vec<OidPair>) {
        let expect = sort_pairs(pairs.clone());
        assert_eq!(canonicalize(&mut memsim::NullTracker, pairs), expect);
    }

    /// Distinct pairs over `lefts`, in a scrambled order.
    fn scrambled(lefts: impl IntoIterator<Item = Oid>) -> Vec<OidPair> {
        let mut pairs: Vec<OidPair> =
            lefts.into_iter().enumerate().map(|(i, l)| OidPair::new(l, i as Oid)).collect();
        let n = pairs.len();
        for i in 0..n {
            pairs.swap(i, (i * 7919 + 13) % n);
        }
        pairs
    }

    #[test]
    fn canonicalize_handles_empty_and_single_pairs() {
        assert_canonical(vec![]);
        assert_canonical(vec![OidPair::new(7, 3)]);
    }

    #[test]
    fn canonicalize_matches_sort_pairs_on_ordered_shapes() {
        let canonical: Vec<OidPair> = (0..5000).map(|i| OidPair::new(i / 3, i)).collect();
        assert_canonical(canonical.clone());
        assert_canonical(canonical.into_iter().rev().collect());
        // One left: no radix digit at all, only the run pass.
        assert_canonical((0..3000).map(|i| OidPair::new(42, i * 31 % 3000)).collect());
        // One left with many rights, descending.
        assert_canonical((0..3000).rev().map(|r| OidPair::new(9, r)).collect());
        // Two lefts, many pairs: the top digit is every bit, and the run
        // pass runs on its own.
        assert_canonical((0..3000).rev().map(|r| OidPair::new(5 + r % 2, r)).collect());
    }

    #[test]
    fn canonicalize_spans_the_whole_oid_range() {
        // A 32-bit left span: a one-bit top digit at shift 31, then three
        // low digits at shifts 0, 11 and 22 — no shift overflows.
        let k = 5;
        let lefts = (0..=k).map(|i| u32::MAX - i).chain([0, 1, 1 << 31, 0]);
        assert_canonical(scrambled(lefts));
    }

    #[test]
    fn canonicalize_is_exact_at_digit_boundaries() {
        // One low pass for the 2^11 spans, two for the 2^22 ones.
        for span in [(1 << 11) - 1, 1 << 11, (1 << 11) + 1, (1 << 22) - 1, 1 << 22, (1 << 22) + 1] {
            // Spread 4000 lefts (with repeats) over [100, 100 + span].
            let lefts = (0..4000u64).map(|i| 100 + (i * 2_654_435_761 % (span as u64 + 1)) as Oid);
            let mut pairs = scrambled(lefts.chain([100, 100 + span]));
            assert_canonical(pairs.clone());
            pairs.reverse();
            assert_canonical(pairs);
        }
    }

    #[test]
    fn an_already_canonical_index_is_charged_one_read_pass() {
        let mut trk = memsim::SimTracker::for_machine(memsim::profiles::origin2000());
        let pairs: Vec<OidPair> = (0..10_000).map(|i| OidPair::new(i, 2 * i)).collect();
        assert_eq!(canonicalize(&mut trk, pairs.clone()), pairs);
        let c = trk.counters();
        assert_eq!((c.reads, c.writes), (1, 0), "one sequential read");
        assert_eq!(c.cpu_ns, 0.0, "and no SortTuple");

        // Out of order, a 14-bit span: the compare pass, a 3-bit top-digit
        // pass (histogram read, read, write), then one 11-bit pass over
        // each bucket of 2^11 lefts, the five non-empty ones charged the
        // same way. No run.
        let mut trk = memsim::SimTracker::for_machine(memsim::profiles::origin2000());
        let reversed: Vec<OidPair> = pairs.iter().rev().copied().collect();
        assert_eq!(canonicalize(&mut trk, reversed), pairs);
        let c = trk.counters();
        assert_eq!((c.reads, c.writes), (1 + 2 + 5 * 2, 1 + 5));
        let sort_ns = memsim::profiles::origin2000().work.sort_tuple_ns;
        assert_eq!(c.cpu_ns, 2.0 * 10_000.0 * sort_ns, "two SortTuple per pair");
    }
}
