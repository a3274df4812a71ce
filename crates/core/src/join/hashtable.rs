//! The bucket-chained hash table used by both hash-join variants.
//!
//! Layout follows the classic main-memory design the paper assumes: an array
//! of bucket heads plus a `next` chain array indexed by tuple position — no
//! per-entry allocation, no std `HashMap`. The paper sizes buckets for a
//! chain length of ~4 ("with a bucket-chain length of 4, up to 8 memory
//! accesses per tuple are necessary", §3.4.3); [`DEFAULT_TUPLES_PER_BUCKET`]
//! mirrors that.
//!
//! **Radix-bit shifting.** Inside a cluster of a `B`-bit radix-clustered
//! relation, *every* key shares its lower `B` hash bits — using them for
//! bucket selection would chain the entire cluster into one bucket. The
//! bucket index therefore uses the bits **above** the radix bits
//! (`hash >> radix_bits`). This detail is what makes partitioned hash-join
//! correct *and* fast, and it is ablated in the bench suite.
//!
//! **A probe without a branch on the match.** With the inner cluster and
//! its table in cache (§3.4.4), what is left of a probe is CPU work (`w_h`),
//! and on chains of ~4 a branch on `tail == key` mispredicts often enough
//! to dominate it. [`ChainedTable::probe`] is the one chain walk: it hands
//! every visited build tuple to its callback with a hit flag instead of
//! calling back on matches only. The join's emit (`pairs.rs`) writes every
//! visited pair at the end of its output and advances the length by the
//! flag, so its only branches are the chain's end and a predictable
//! capacity check; `HashIndex::lookup_eq` filters on the flag.
//!
//! **The build slice.** Every position the table stores is `EMPTY` or below
//! the length of the slice it was built over, and a probe asserts that the
//! slice it walks has that length. The walk's reads keep their bounds
//! checks: they never fail, so they cost no misprediction, and unchecked
//! reads measured no faster.
//!
//! **One table per worker.** [`ChainedTable::rebuild`] builds a table in
//! the allocations of an earlier one, so a join worker builds every cluster
//! pair's table in the same two vectors. The simulated accesses are the
//! same as for a fresh [`ChainedTable::build`].

use memsim::{MemTracker, Work};

use super::hash::KeyHash;
use super::Bun;

/// Sentinel for "no entry".
const EMPTY: u32 = u32::MAX;

/// Bucket sizing matching the paper's chain length of ~4.
pub const DEFAULT_TUPLES_PER_BUCKET: usize = 4;

/// A bucket-chained hash table over a slice of [`Bun`]s.
///
/// The table borrows nothing: it stores positions into the build slice,
/// which callers pass again when probing (keeping the hot arrays minimal,
/// 4 bytes per tuple — the `12 bytes per tuple` the paper's strategy
/// formulas use are these 4 plus the 8-byte BUN).
///
/// A [`Default`] table is empty and unbuilt; [`rebuild`](Self::rebuild)
/// turns it, or any earlier table, into a table over a slice.
#[derive(Debug, Clone, Default)]
pub struct ChainedTable {
    mask: u32,
    shift: u32,
    heads: Vec<u32>,
    next: Vec<u32>,
}

impl ChainedTable {
    /// Build over `tuples`, skipping `radix_bits` low hash bits for bucket
    /// selection. `tuples_per_bucket` controls table size (power-of-two
    /// bucket count ≈ `len / tuples_per_bucket`).
    pub fn build<M: MemTracker, H: KeyHash>(
        trk: &mut M,
        h: H,
        tuples: &[Bun],
        radix_bits: u32,
        tuples_per_bucket: usize,
    ) -> Self {
        let mut table = Self::default();
        table.rebuild(trk, h, tuples, radix_bits, tuples_per_bucket);
        table
    }

    /// [`build`](Self::build) in place: the table over `tuples` replaces
    /// what this one held, in its existing allocations. Charges exactly
    /// what `build` charges.
    pub fn rebuild<M: MemTracker, H: KeyHash>(
        &mut self,
        trk: &mut M,
        h: H,
        tuples: &[Bun],
        radix_bits: u32,
        tuples_per_bucket: usize,
    ) {
        assert!(tuples_per_bucket > 0, "tuples_per_bucket must be positive");
        let nbuckets = (tuples.len() / tuples_per_bucket).next_power_of_two().max(1);
        let mask = (nbuckets - 1) as u32;
        self.mask = mask;
        self.shift = radix_bits;
        self.heads.clear();
        self.heads.resize(nbuckets, EMPTY);
        self.next.clear();
        self.next.resize(tuples.len(), EMPTY);
        let heads = &mut self.heads;
        let heads_base = heads.as_ptr() as usize;
        let next_base = self.next.as_ptr() as usize;
        for (i, (t, next)) in tuples.iter().zip(&mut self.next).enumerate() {
            let b = ((h.hash(t.tail) >> radix_bits) & mask) as usize;
            if M::ENABLED {
                trk.read(t as *const Bun as usize, 8);
                trk.write(heads_base + b * 4, 4);
                trk.write(next_base + i * 4, 4);
            }
            *next = heads[b];
            heads[b] = i as u32;
        }
    }

    /// Number of buckets.
    pub fn num_buckets(&self) -> usize {
        self.heads.len()
    }

    /// Walk the chain for `key`, invoking `visit(trk, tuple, hit)` for every
    /// build tuple on it, in chain order, where `hit` says whether the
    /// tuple's tail equals `key`. `tuples` must be the build slice. The
    /// tracker is threaded through to the callback so result construction
    /// can be instrumented too.
    ///
    /// # Panics
    /// Panics if `tuples` is not as long as the slice the table was built
    /// over.
    #[inline]
    pub fn probe<M: MemTracker, H: KeyHash>(
        &self,
        trk: &mut M,
        h: H,
        tuples: &[Bun],
        key: u32,
        mut visit: impl FnMut(&mut M, &Bun, bool),
    ) {
        assert_eq!(tuples.len(), self.next.len(), "probe with the slice the table was built over");
        let b = ((h.hash(key) >> self.shift) & self.mask) as usize;
        if M::ENABLED {
            trk.read(self.heads.as_ptr() as usize + b * 4, 4);
        }
        let mut pos = self.heads[b];
        while pos != EMPTY {
            // Read `next` before `visit`: the compiler cannot hoist a read
            // above the callback's store to the join index, and the walk's
            // next step waits on this read.
            let (t, next) = (&tuples[pos as usize], self.next[pos as usize]);
            if M::ENABLED {
                trk.read(t as *const Bun as usize, 8);
                trk.read(self.next.as_ptr() as usize + pos as usize * 4, 4);
            }
            visit(trk, t, t.tail == key);
            pos = next;
        }
    }

    /// Chain length of every bucket, in bucket order.
    #[cfg(test)]
    fn chain_histogram(&self) -> Vec<usize> {
        let mut lens = Vec::with_capacity(self.heads.len());
        for &head in &self.heads {
            let mut n = 0;
            let mut pos = head;
            while pos != EMPTY {
                n += 1;
                pos = self.next[pos as usize];
            }
            lens.push(n);
        }
        lens
    }

    /// Approximate heap footprint in bytes (heads + chain array) — the
    /// "+4 bytes per tuple" of the paper's 12-byte-per-tuple rule.
    pub fn footprint_bytes(&self) -> usize {
        4 * (self.heads.len() + self.next.len())
    }

    /// Charge the per-cluster table setup/teardown cost (`w'_h`). Kept
    /// explicit so callers control when a "cluster" boundary occurs.
    #[inline]
    pub fn charge_setup<M: MemTracker>(trk: &mut M) {
        trk.work(Work::HashClusterSetup, 1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::join::hash::{FibHash, IdentityHash};
    use memsim::NullTracker;

    fn tuples(keys: &[u32]) -> Vec<Bun> {
        keys.iter().enumerate().map(|(i, &k)| Bun::new(i as u32, k)).collect()
    }

    /// The heads (= positions) of the build tuples matching `key`.
    fn probe_all(t: &ChainedTable, data: &[Bun], key: u32) -> Vec<u32> {
        let mut hits = vec![];
        t.probe(&mut NullTracker, FibHash, data, key, |_, b, hit| {
            if hit {
                hits.push(b.head);
            }
        });
        hits.sort_unstable();
        hits
    }

    #[test]
    fn finds_all_and_only_matches() {
        let data = tuples(&[5, 9, 5, 7, 5, 1]);
        let t = ChainedTable::build(&mut NullTracker, FibHash, &data, 0, 4);
        assert_eq!(probe_all(&t, &data, 5), vec![0, 2, 4]);
        assert_eq!(probe_all(&t, &data, 7), vec![3]);
        assert!(probe_all(&t, &data, 42).is_empty());
    }

    /// Every `(head, hit)` a probe for `key` visits, in chain order.
    fn visits(t: &ChainedTable, data: &[Bun], key: u32) -> Vec<(u32, bool)> {
        let mut seen = vec![];
        t.probe(&mut NullTracker, FibHash, data, key, |_, b, hit| seen.push((b.head, hit)));
        seen
    }

    #[test]
    fn probe_visits_the_whole_bucket_newest_first_with_its_hit_flags() {
        // A chain is its bucket's tuples in reverse insertion order; the
        // flag is the key comparison.
        let data = tuples(&(0..200).map(|i| i * 7 % 23).collect::<Vec<_>>());
        let t = ChainedTable::build(&mut NullTracker, FibHash, &data, 0, 4);
        let bucket = |k: u32| FibHash.hash(k) & (t.num_buckets() as u32 - 1);
        for key in 0..30 {
            let expect: Vec<(u32, bool)> = data
                .iter()
                .rev()
                .filter(|b| bucket(b.tail) == bucket(key))
                .map(|b| (b.head, b.tail == key))
                .collect();
            assert_eq!(visits(&t, &data, key), expect, "key {key}");
        }
    }

    #[test]
    fn rebuild_equals_a_fresh_build() {
        // Shrinking and growing the reused allocations leaves nothing of
        // the previous table behind.
        let big = tuples(&(0..1000).map(|i| i * 13 % 301).collect::<Vec<_>>());
        let small = tuples(&[4, 4, 9, 1, 4]);
        let mut reused = ChainedTable::default();
        for (data, bits) in [(&big, 0), (&small, 3), (&big, 2), (&small, 0)] {
            reused.rebuild(&mut NullTracker, FibHash, data, bits, 4);
            let fresh = ChainedTable::build(&mut NullTracker, FibHash, data, bits, 4);
            assert_eq!(reused.num_buckets(), fresh.num_buckets());
            assert_eq!(reused.chain_histogram(), fresh.chain_histogram());
            for key in 0..310 {
                assert_eq!(visits(&reused, data, key), visits(&fresh, data, key));
            }
        }
    }

    #[test]
    #[should_panic(expected = "the slice the table was built over")]
    fn probing_another_slice_length_panics() {
        let data = tuples(&[1, 2, 3, 4, 5]);
        let t = ChainedTable::build(&mut NullTracker, FibHash, &data, 0, 4);
        probe_all(&t, &data[..4], 1);
    }

    #[test]
    fn empty_build_side() {
        let data: Vec<Bun> = vec![];
        let t = ChainedTable::build(&mut NullTracker, FibHash, &data, 0, 4);
        assert_eq!(t.num_buckets(), 1);
        assert!(probe_all(&t, &data, 1).is_empty());
    }

    #[test]
    fn bucket_count_scales_with_input() {
        let data = tuples(&(0..1024).collect::<Vec<_>>());
        let t = ChainedTable::build(&mut NullTracker, FibHash, &data, 0, 4);
        assert_eq!(t.num_buckets(), 256);
        let t1 = ChainedTable::build(&mut NullTracker, FibHash, &data, 0, 1);
        assert_eq!(t1.num_buckets(), 1024);
    }

    #[test]
    fn radix_bits_must_be_skipped_inside_clusters() {
        // All keys share their low 6 bits (same radix cluster). Without the
        // shift they all chain into one bucket; with it they spread.
        let keys: Vec<u32> = (0..256u32).map(|i| (i << 6) | 0x2A).collect();
        let data = tuples(&keys);

        let bad = ChainedTable::build(&mut NullTracker, IdentityHash, &data, 0, 4);
        let bad_max = bad.chain_histogram().into_iter().max().unwrap();
        assert_eq!(bad_max, 256, "low radix bits put everything in one chain");

        let good = ChainedTable::build(&mut NullTracker, IdentityHash, &data, 6, 4);
        let good_max = good.chain_histogram().into_iter().max().unwrap();
        assert!(good_max <= 8, "shifted buckets stay short, got {good_max}");
    }

    #[test]
    fn chain_histogram_sums_to_len() {
        let data = tuples(&(0..100).map(|i| i * 3).collect::<Vec<_>>());
        let t = ChainedTable::build(&mut NullTracker, FibHash, &data, 0, 4);
        assert_eq!(t.chain_histogram().iter().sum::<usize>(), 100);
    }

    #[test]
    fn footprint_matches_12_bytes_per_tuple_rule() {
        // bucket count = len/4 ⇒ heads ≈ len ⇒ heads+next ≈ 4+1 bytes/tuple?
        // With tuples_per_bucket=4: heads = len/4 u32s (1 B/tuple) + next =
        // len u32s (4 B/tuple) ⇒ table ≈ 5 B/tuple; +8 B BUN ≈ 13 B, the
        // paper rounds to 12. Assert the same ballpark.
        let data = tuples(&(0..4096).collect::<Vec<_>>());
        let t = ChainedTable::build(&mut NullTracker, FibHash, &data, 0, 4);
        let per_tuple = (t.footprint_bytes() + data.len() * 8) as f64 / data.len() as f64;
        assert!((11.0..=14.0).contains(&per_tuple), "bytes/tuple {per_tuple}");
    }
}
