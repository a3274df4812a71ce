//! The multi-pass radix-cluster algorithm (§3.3.1, Figure 6).
//!
//! [`cluster`] splits a relation into `H = 2^B` clusters on the lower
//! `B` bits of the key hash, in `P` passes of `B_p` bits each
//! (`Σ B_p = B`), starting with the leftmost bits of the radix window. The
//! point (§3.4.2): each pass concurrently fills only `H_p = 2^{B_p}`
//! cluster buffers, so keeping `H_p` below the number of TLB entries (and
//! cache lines) avoids the miss explosion that a straightforward one-pass
//! cluster (`pass_bits = [B]`, Figure 5) suffers for large `H`.
//!
//! Each pass is the crate's one stable counting-scatter pass (`join::radix`)
//! on its `B_p` bits, which writes `H_p` sequential streams and whose output
//! is bit-identical at every thread count.
//!
//! The output is radix-*ordered*: cluster `r` occupies
//! `bounds[r]..bounds[r+1]` and all its tuples share radix value `r`. The
//! paper exploits exactly this to pair clusters by merging on radix values
//! without any extra boundary structure ([`cluster_bounds_from_data`]
//! demonstrates that the bounds are recomputable from the data alone).

use memsim::{MemTracker, Work};

use super::hash::{radix_of, KeyHash};
use super::radix::Pass;
use super::Bun;

/// A radix-clustered relation: the permuted tuples plus cluster boundaries.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusteredRel {
    /// Tuples in radix order.
    pub data: Vec<Bun>,
    /// Number of radix bits `B`.
    pub bits: u32,
    /// `2^B + 1` offsets; cluster `c` is `data[bounds[c]..bounds[c+1]]`.
    pub bounds: Vec<u32>,
}

impl ClusteredRel {
    /// Number of tuples.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True if the relation has no tuples.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Number of clusters (`2^B`).
    pub fn num_clusters(&self) -> usize {
        self.bounds.len() - 1
    }

    /// The tuples of cluster `c`.
    #[inline]
    pub fn cluster(&self, c: usize) -> &[Bun] {
        &self.data[self.bounds[c] as usize..self.bounds[c + 1] as usize]
    }

    /// Iterate over `(radix_value, tuples)` for non-empty clusters.
    pub fn iter_nonempty(&self) -> impl Iterator<Item = (usize, &[Bun])> + '_ {
        (0..self.num_clusters()).filter_map(|c| {
            let s = self.cluster(c);
            (!s.is_empty()).then_some((c, s))
        })
    }

    /// Check the radix-order invariant (tests / debugging).
    pub fn verify<H: KeyHash>(&self, h: H) -> bool {
        if self.bounds.len() != (1usize << self.bits) + 1 {
            return false;
        }
        if *self.bounds.last().unwrap() as usize != self.data.len() || self.bounds[0] != 0 {
            return false;
        }
        (0..self.num_clusters()).all(|c| {
            self.cluster(c).iter().all(|t| radix_of(h.hash(t.tail), self.bits) == c as u32)
        })
    }
}

/// Validate pass layout: every pass non-zero, summing to `bits`.
fn check_passes(bits: u32, pass_bits: &[u32]) {
    if bits == 0 {
        assert!(pass_bits.is_empty(), "B = 0 admits no clustering passes");
        return;
    }
    assert!(!pass_bits.is_empty(), "B > 0 requires at least one pass");
    assert!(pass_bits.iter().all(|&b| b > 0), "zero-bit pass is useless");
    let total: u32 = pass_bits.iter().sum();
    assert_eq!(total, bits, "pass bits {pass_bits:?} must sum to B = {bits}");
}

/// Multi-pass radix-cluster on `threads` threads. See module docs.
///
/// `pass_bits[p]` is `B_p`; use [`crate::strategy::plan_passes`] for the
/// paper's TLB-limited even split. With `pass_bits = [bits]` this *is* the
/// straightforward algorithm of Figure 5. Every worker gets at least two
/// tuples.
///
/// # Panics
/// Panics, at every thread count, if the pass layout is inconsistent
/// (passes must be non-zero and sum to `bits`), if `bits > 28` (guarding
/// the `2^B + 1` bounds allocation) or if the input exceeds `u32`
/// positions.
pub fn cluster<M: MemTracker, H: KeyHash>(
    trk: &mut M,
    h: H,
    input: Vec<Bun>,
    bits: u32,
    pass_bits: &[u32],
    threads: usize,
) -> ClusteredRel {
    check_passes(bits, pass_bits);
    assert!(bits <= 28, "B = {bits} would allocate 2^{bits} cluster bounds");
    let n = input.len();
    assert!(n <= u32::MAX as usize, "cardinality exceeds u32 positions");
    let mut src = input;
    let mut bounds: Vec<u32> = vec![0, n as u32];
    if bits == 0 {
        return ClusteredRel { data: src, bits, bounds };
    }

    let mut dst = vec![Bun::default(); n];
    let mut remaining = bits;
    for &bp in pass_bits {
        remaining -= bp;
        let (shift, mask) = (remaining, (1usize << bp) - 1);
        let digit = move |t: &Bun| ((h.hash(t.tail) >> shift) as usize) & mask;
        let pass = Pass { fan: 1 << bp, digit, gap: 0, work: Work::ClusterTuple };
        bounds = pass.run(trk, &src, &bounds, &mut dst, threads);
        std::mem::swap(&mut src, &mut dst);
    }
    ClusteredRel { data: src, bits, bounds }
}

/// Multi-pass radix-cluster on one thread: [`cluster`] with `threads = 1`.
///
/// # Panics
/// As [`cluster`].
pub fn radix_cluster<M: MemTracker, H: KeyHash>(
    trk: &mut M,
    h: H,
    input: Vec<Bun>,
    bits: u32,
    pass_bits: &[u32],
) -> ClusteredRel {
    cluster(trk, h, input, bits, pass_bits, 1)
}

/// Recompute cluster boundaries by scanning radix-ordered data — the §3.3.1
/// observation that "an algorithm scanning a radix-clustered relation can
/// determine the cluster boundaries by looking at these lower B radix-bits",
/// so no boundary structure ever needs to be stored.
///
/// # Panics
/// Panics (in debug) if `data` is not radix-ordered on `bits` bits.
pub fn cluster_bounds_from_data<H: KeyHash>(data: &[Bun], h: H, bits: u32) -> Vec<u32> {
    let ncl = 1usize << bits;
    let mut bounds = vec![0u32; ncl + 1];
    let mut prev = 0u32;
    for (i, t) in data.iter().enumerate() {
        let r = radix_of(h.hash(t.tail), bits);
        debug_assert!(r >= prev, "data not radix-ordered at position {i}");
        // Close all clusters in (prev, r].
        for c in prev..r {
            bounds[c as usize + 1] = i as u32;
        }
        if r > prev {
            prev = r;
        }
    }
    for c in prev as usize..ncl {
        bounds[c + 1] = data.len() as u32;
    }
    bounds
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::join::hash::{FibHash, IdentityHash, MurmurHash};
    use memsim::{profiles, NullTracker, SimTracker};

    fn keys(n: usize, seed: u64) -> Vec<Bun> {
        // Deterministic pseudo-random unique-ish keys (splitmix64 stream).
        let mut state = seed;
        (0..n)
            .map(|i| {
                state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = state;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                Bun::new(i as u32, (z ^ (z >> 31)) as u32)
            })
            .collect()
    }

    fn multiset(v: &[Bun]) -> Vec<Bun> {
        let mut s = v.to_vec();
        s.sort_unstable_by_key(|b| (b.tail, b.head));
        s
    }

    #[test]
    fn single_pass_produces_radix_order() {
        let input = keys(10_000, 1);
        let c = radix_cluster(&mut NullTracker, FibHash, input.clone(), 6, &[6]);
        assert!(c.verify(FibHash));
        assert_eq!(multiset(&c.data), multiset(&input), "clustering is a permutation");
        assert_eq!(c.num_clusters(), 64);
    }

    #[test]
    fn multi_pass_equals_single_pass() {
        let input = keys(20_000, 2);
        let one = radix_cluster(&mut NullTracker, FibHash, input.clone(), 9, &[9]);
        let two = radix_cluster(&mut NullTracker, FibHash, input.clone(), 9, &[5, 4]);
        let three = radix_cluster(&mut NullTracker, FibHash, input, 9, &[3, 3, 3]);
        // Same bounds always; same data if the scatter is stable (it is).
        assert_eq!(one.bounds, two.bounds);
        assert_eq!(one.bounds, three.bounds);
        assert_eq!(one.data, two.data);
        assert_eq!(one.data, three.data);
    }

    #[test]
    fn threaded_cluster_is_bit_identical_to_one_thread() {
        let skewed: Vec<Bun> = (0..10_000).map(|i| Bun::new(i, (i % 3) * 1000)).collect();
        for input in [keys(50_000, 1), skewed, keys(3, 2), vec![]] {
            for (bits, passes) in
                [(1u32, vec![1u32]), (6, vec![6]), (10, vec![5, 5]), (12, vec![4, 4, 4])]
            {
                let seq = radix_cluster(&mut NullTracker, FibHash, input.clone(), bits, &passes);
                for threads in [2usize, 3, 7, 64] {
                    let par =
                        cluster(&mut NullTracker, FibHash, input.clone(), bits, &passes, threads);
                    assert_eq!(par, seq, "n={} B={bits} threads={threads}", input.len());
                }
            }
        }
    }

    #[test]
    fn bounds_match_scan_derived_bounds() {
        let input = keys(5_000, 3);
        for bits in [1u32, 4, 8] {
            let c = radix_cluster(&mut NullTracker, MurmurHash, input.clone(), bits, &[bits]);
            assert_eq!(
                c.bounds,
                cluster_bounds_from_data(&c.data, MurmurHash, bits),
                "bits={bits}"
            );
        }
    }

    #[test]
    fn zero_bits_is_identity() {
        let input = keys(100, 4);
        let c = radix_cluster(&mut NullTracker, FibHash, input.clone(), 0, &[]);
        assert_eq!(c.data, input);
        assert_eq!(c.bounds, vec![0, 100]);
        assert_eq!(c.num_clusters(), 1);
    }

    #[test]
    fn empty_and_singleton_inputs() {
        let c = radix_cluster(&mut NullTracker, FibHash, vec![], 4, &[4]);
        assert!(c.is_empty());
        assert_eq!(c.num_clusters(), 16);
        assert!(c.verify(FibHash));

        let c = radix_cluster(&mut NullTracker, FibHash, vec![Bun::new(0, 42)], 4, &[2, 2]);
        assert_eq!(c.len(), 1);
        assert!(c.verify(FibHash));
    }

    #[test]
    fn duplicate_keys_stay_together_and_stable() {
        let input: Vec<Bun> = (0..1000).map(|i| Bun::new(i, i % 7)).collect();
        let c = radix_cluster(&mut NullTracker, IdentityHash, input, 3, &[2, 1]);
        assert!(c.verify(IdentityHash));
        // Stability: within a cluster, OIDs of equal keys remain ascending.
        for (_, cl) in c.iter_nonempty() {
            for w in cl.windows(2) {
                if w[0].tail == w[1].tail {
                    assert!(w[0].head < w[1].head, "scatter must be stable");
                }
            }
        }
    }

    #[test]
    fn identity_hash_low_bits_are_cluster_values() {
        let input: Vec<Bun> = (0..64).map(|i| Bun::new(i, i)).collect();
        let c = radix_cluster(&mut NullTracker, IdentityHash, input, 2, &[2]);
        // Cluster r must contain keys ≡ r (mod 4).
        for (r, cl) in c.iter_nonempty() {
            assert!(cl.iter().all(|t| (t.tail % 4) as usize == r));
            assert_eq!(cl.len(), 16);
        }
    }

    #[test]
    #[should_panic(expected = "must sum to")]
    fn inconsistent_pass_bits_rejected() {
        radix_cluster(&mut NullTracker, FibHash, vec![], 6, &[3, 2]);
    }

    #[test]
    #[should_panic(expected = "must sum to")]
    fn inconsistent_pass_bits_rejected_on_four_threads() {
        cluster(&mut NullTracker, FibHash, keys(100, 8), 6, &[3, 2], 4);
    }

    #[test]
    #[should_panic(expected = "zero-bit pass")]
    fn zero_bit_pass_rejected_on_four_threads() {
        cluster(&mut NullTracker, FibHash, keys(100, 9), 6, &[6, 0], 4);
    }

    #[test]
    #[should_panic(expected = "would allocate")]
    fn oversized_bit_count_rejected_on_four_threads() {
        cluster(&mut NullTracker, FibHash, keys(100, 10), 30, &[6; 5], 4);
    }

    #[test]
    #[should_panic(expected = "at least one pass")]
    fn missing_passes_rejected() {
        radix_cluster(&mut NullTracker, FibHash, vec![], 6, &[]);
    }

    #[test]
    fn two_pass_cluster_has_fewer_tlb_misses_than_one_pass_at_high_bits() {
        // The paper's Figure 9 effect, scaled down: TLB trashing needs the
        // concurrently-written cluster regions to live on more pages than
        // the TLB has entries. At paper scale that takes 8M tuples; here we
        // shrink the page to 1 KiB so 64k tuples (512 KiB of output = 512
        // pages) exhibit it. One pass on 10 bits writes 1024 regions
        // round-robin over those pages (trash); two passes of 5 bits keep 32
        // concurrent regions < 64 TLB entries.
        let mut machine = profiles::origin2000();
        machine.tlb = memsim::TlbConfig::new(64, 1024);
        let input = keys(1 << 16, 6);
        let bits = 10;

        let mut t1 = SimTracker::for_machine(machine);
        radix_cluster(&mut t1, FibHash, input.clone(), bits, &[bits]);
        let one = t1.counters();

        let mut t2 = SimTracker::for_machine(machine);
        radix_cluster(&mut t2, FibHash, input, bits, &[5, 5]);
        let two = t2.counters();

        assert!(
            one.tlb_misses > 4 * two.tlb_misses,
            "1-pass TLB {} should dwarf 2-pass TLB {}",
            one.tlb_misses,
            two.tlb_misses
        );
        // And the elapsed-time ranking flips accordingly.
        assert!(
            one.elapsed_ms() > two.elapsed_ms(),
            "1-pass {} ms vs 2-pass {} ms",
            one.elapsed_ms(),
            two.elapsed_ms()
        );
    }

    #[test]
    fn low_bits_prefer_one_pass() {
        // Below the TLB limit (2^6 = 64 clusters), one pass must win —
        // the left half of Figure 9.
        let input = keys(1 << 16, 7);
        let bits = 4;
        let mut t1 = SimTracker::for_machine(profiles::origin2000());
        radix_cluster(&mut t1, FibHash, input.clone(), bits, &[bits]);
        let mut t2 = SimTracker::for_machine(profiles::origin2000());
        radix_cluster(&mut t2, FibHash, input, bits, &[2, 2]);
        assert!(t1.counters().elapsed_ms() < t2.counters().elapsed_ms());
    }
}
