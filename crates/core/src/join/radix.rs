//! The one stable counting-scatter pass (§3.3.1, Figure 6) that radix-cluster,
//! sort-merge's radix sort, `canonicalize` and shard partitioning run on: a
//! [`Pass`] counts each source range's elements per digit, prefix-sums the
//! counts into start offsets, then moves every element to its slot, range
//! `s`'s digit `d` forming bucket `s · fan + d` in source order. Both phases
//! read the source sequentially; the scatter writes `fan` streams per range.
//!
//! **Histogram rows.** Each source range has one histogram row, except a
//! single source range, which is cut into a chunk, and a row, per thread.
//! Prefix sums run thread-major: within every bucket, thread 0's chunk
//! precedes thread 1's, which is the sequential stable order. Each worker
//! takes a contiguous block of rows, so it owns disjoint histogram rows and
//! destination slots, and the output is bit-identical at every thread count.
//! One thread is one chunk and one block: the sequential loop itself.
//!
//! **Padding.** Chunk rows are counted and scattered by different workers
//! at once, element by element: 32 counters (128 bytes) of padding around
//! each keeps every worker off the cache lines of the others, and of
//! whatever the allocator placed next to the histogram. Separately, `gap`
//! unused slots after every destination bucket keep buckets of equal
//! power-of-two sizes from starting their write streams in the same sets.

use std::ops::Range;

use memsim::{MemTracker, Work};

use crate::scan::fan_out;

/// One stable counting-scatter pass; see the module docs.
#[derive(Clone, Copy)]
pub(crate) struct Pass<D> {
    /// Buckets per source range.
    pub fan: usize,
    /// An element's bucket within its source range, below `fan`. Should be a
    /// pure function: one that is not gives a wrong order or a panic, but
    /// never a write outside the slots its row counted.
    pub digit: D,
    /// Unused destination slots after every bucket.
    pub gap: usize,
    /// What an enabled tracker charges per scattered element.
    pub work: Work,
}

impl<D> Pass<D> {
    /// Scatter `src`, cut into the ranges `sources[s]..sources[s + 1]`, into
    /// `dst` on `threads` threads, and return the bucket bounds: bucket `b`
    /// occupies `dst[bounds[b]..bounds[b + 1] - gap]`. Every worker gets at
    /// least two elements.
    ///
    /// Per element, an enabled tracker is charged a read of it and a write
    /// of its counter when counting, and a read of it, a write of its
    /// counter, a write of its slot and one `work` when scattering.
    ///
    /// # Panics
    /// Panics if `sources` does not run from 0 to `src.len()`, if
    /// `dst.len()` is not `src.len()` plus a `gap` per bucket, or if either
    /// exceeds `u32` positions.
    pub(crate) fn run<M, T>(
        self,
        trk: &mut M,
        src: &[T],
        sources: &[u32],
        dst: &mut [T],
        threads: usize,
    ) -> Vec<u32>
    where
        M: MemTracker,
        T: Copy + Send + Sync,
        D: Fn(&T) -> usize + Copy + Sync,
    {
        let n = src.len();
        let ranges = sources.len() - 1;
        assert!(sources[0] == 0 && sources[ranges] as usize == n, "sources must cover src");
        assert_eq!(dst.len(), n + ranges * self.fan * self.gap, "one gap per bucket");
        assert!(dst.len() <= u32::MAX as usize, "destination exceeds u32 positions");
        let threads = threads.min(n / 2).max(1);
        let rows: Vec<Range<usize>> = if ranges == 1 {
            let chunk = n.div_ceil(threads);
            (0..threads).map(|t| (t * chunk).min(n)..((t + 1) * chunk).min(n)).collect()
        } else {
            sources.windows(2).map(|w| w[0] as usize..w[1] as usize).collect()
        };
        let per_source = rows.len() / ranges;
        let pad = if per_source > 1 { 32 } else { 0 };
        let stride = self.fan + pad;
        let block = rows.len().div_ceil(threads);
        let cut = block * stride;
        let mut hist = vec![0u32; pad + rows.len() * stride];
        let hist = &mut hist[pad..];

        // Phase 1: per-row histograms.
        let parts = rows.chunks(block).zip(hist.chunks_mut(cut)).collect();
        fan_out(trk, parts, |trk, (rows, hist)| self.count(trk, stride, src, rows, hist));

        // Prefix sums turn the counts into absolute start offsets, rows of
        // one source range thread-major within each of its buckets, and give
        // the bounds of the buckets this pass produces. `ends` keeps where
        // each row's slots of each bucket end.
        let mut ends = vec![0u32; hist.len()];
        let mut bounds = Vec::with_capacity(ranges * self.fan + 1);
        let mut acc = 0u32;
        let per_source = per_source * stride;
        for (source, ends) in hist.chunks_mut(per_source).zip(ends.chunks_mut(per_source)) {
            for d in 0..self.fan {
                bounds.push(acc);
                for (row, end) in source.chunks_mut(stride).zip(ends.chunks_mut(stride)) {
                    let cnt = row[d];
                    row[d] = acc;
                    acc += cnt;
                    end[d] = acc;
                }
                acc += self.gap as u32;
            }
        }
        bounds.push(acc);
        debug_assert_eq!(acc as usize, dst.len());

        // Phase 2: scatter. Each row writes `fan` regions of dst at once
        // (plus its sequential read), the count §3.4.2's TLB analysis is on.
        let out = Dst(dst.as_mut_ptr());
        let parts = rows.chunks(block).zip(hist.chunks_mut(cut)).zip(ends.chunks(cut)).collect();
        fan_out(trk, parts, |trk, (part, ends)| self.scatter(trk, stride, src, part, ends, out));
        bounds
    }

    /// Count each row's elements into its `fan` slots of `hist`, rows
    /// `stride` counters apart. Both phases take the pass by value: a copy
    /// the scatter's raw writes cannot alias, so its fields stay in
    /// registers.
    fn count<M: MemTracker, T>(
        self,
        trk: &mut M,
        stride: usize,
        src: &[T],
        rows: &[Range<usize>],
        hist: &mut [u32],
    ) where
        D: Fn(&T) -> usize,
    {
        let hist_base = hist.as_ptr() as usize;
        for (row, range) in rows.iter().enumerate() {
            for t in &src[range.clone()] {
                let d = (self.digit)(t);
                debug_assert!(d < self.fan, "digit {d} outside fan {}", self.fan);
                let idx = row * stride + d;
                if M::ENABLED {
                    trk.read(t as *const T as usize, size_of::<T>());
                    trk.write(hist_base + idx * 4, 4);
                }
                hist[idx] += 1;
            }
        }
    }

    /// Move each row's elements to the slots `offsets` reserves for them,
    /// which end at `ends`.
    fn scatter<M: MemTracker, T: Copy>(
        self,
        trk: &mut M,
        stride: usize,
        src: &[T],
        (rows, offsets): (&[Range<usize>], &mut [u32]),
        ends: &[u32],
        dst: Dst<T>,
    ) where
        D: Fn(&T) -> usize,
    {
        let off_base = offsets.as_ptr() as usize;
        for (row, range) in rows.iter().enumerate() {
            for t in &src[range.clone()] {
                let idx = row * stride + (self.digit)(t);
                let pos = offsets[idx] as usize;
                offsets[idx] += 1;
                dst.write(pos, ends[idx] as usize, t);
                if M::ENABLED {
                    trk.read(t as *const T as usize, size_of::<T>());
                    trk.write(off_base + idx * 4, 4);
                    trk.write(dst.0 as usize + pos * size_of::<T>(), size_of::<T>());
                    trk.work(self.work, 1);
                }
            }
        }
    }
}

/// The destination of a scatter, shared by its workers.
#[derive(Clone, Copy)]
struct Dst<T>(*mut T);

// SAFETY: the pointer is the start of the pass's destination slice. The
// prefix sums give every (row, bucket) its own slots, which end at or
// before the slice's end, a row belongs to one worker, and `write` stays
// below its slots' end, so no two workers write the same element, even if
// a digit answered differently when counting; nobody reads the slice until
// the workers' scope joins.
unsafe impl<T: Send> Send for Dst<T> {}
unsafe impl<T: Send> Sync for Dst<T> {}

impl<T: Copy> Dst<T> {
    /// Copy `t` to slot `pos` of slots that end at `end`.
    #[inline]
    fn write(self, pos: usize, end: usize, t: &T) {
        assert!(pos < end, "scatter slot out of range");
        // SAFETY: below the end of the caller's row's slots (checked above),
        // which lie inside the destination and belong to that row alone (see
        // the `Send` impl); `t` lies in the pass's source slice, which never
        // overlaps its destination.
        unsafe { self.0.add(pos).copy_from_nonoverlapping(t, 1) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use memsim::{profiles, NullTracker, SimTracker};

    /// A pseudo-random `(value, position)` stream: the position makes
    /// stability visible.
    fn items(n: usize, seed: u64) -> Vec<(u32, u32)> {
        let mut state = seed;
        (0..n as u32)
            .map(|i| {
                state = state
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                ((state >> 33) as u32, i)
            })
            .collect()
    }

    /// Source bounds cutting `n` elements at `cuts`.
    fn sources(n: usize, cuts: &[usize]) -> Vec<u32> {
        std::iter::once(0).chain(cuts.iter().map(|&c| c as u32)).chain([n as u32]).collect()
    }

    /// Run `pass` and check it against a stable sort of each source range
    /// by digit, bucket by bucket, with the gap slots left untouched.
    fn check<D: Fn(&(u32, u32)) -> usize + Copy + Sync>(
        pass: Pass<D>,
        src: &[(u32, u32)],
        sources: &[u32],
        threads: usize,
    ) {
        let buckets = (sources.len() - 1) * pass.fan;
        let fill = (u32::MAX, u32::MAX);
        let mut dst = vec![fill; src.len() + buckets * pass.gap];
        let bounds = pass.run(&mut NullTracker, src, sources, &mut dst, threads);
        let at = format!(
            "n={} fan={} gap={} sources={sources:?} threads={threads}",
            src.len(),
            pass.fan,
            pass.gap
        );
        assert_eq!(bounds.len(), buckets + 1, "{at}");
        assert_eq!(*bounds.last().unwrap() as usize, dst.len(), "{at}");
        let mut got = Vec::new();
        for (b, w) in bounds.windows(2).enumerate() {
            let (s, d) = (b / pass.fan, b % pass.fan);
            let range = sources[s] as usize..sources[s + 1] as usize;
            let count = src[range].iter().filter(|t| (pass.digit)(t) == d).count();
            assert_eq!((w[1] - w[0]) as usize, count + pass.gap, "bucket {b}: {at}");
            let (bucket, gap) = dst[w[0] as usize..w[1] as usize].split_at(count);
            assert!(gap.iter().all(|&t| t == fill), "bucket {b}'s gap was written: {at}");
            got.extend_from_slice(bucket);
        }
        let mut expect = Vec::new();
        for w in sources.windows(2) {
            let mut range = src[w[0] as usize..w[1] as usize].to_vec();
            range.sort_by_key(|t| (pass.digit)(t));
            expect.extend(range);
        }
        assert_eq!(got, expect, "{at}");
    }

    #[test]
    fn a_pass_is_a_stable_sort_by_digit() {
        let src = items(5_000, 7);
        let layouts: [&[usize]; 4] = [&[], &[1_000], &[0, 0, 2_500, 2_500, 4_999], &[5_000]];
        for fan in [1usize, 2, 7, 256, 2048] {
            let digit = move |t: &(u32, u32)| t.0 as usize % fan;
            for gap in [0, 8] {
                let pass = Pass { fan, digit, gap, work: Work::ClusterTuple };
                for cuts in layouts {
                    for threads in [1, 2, 3, 7] {
                        check(pass, &src, &sources(src.len(), cuts), threads);
                    }
                }
            }
        }
    }

    #[test]
    fn tiny_and_skewed_sources_keep_their_order() {
        let skewed: Vec<(u32, u32)> = (0..999).map(|i| (i % 3 * 1000, i)).collect();
        for src in [vec![], items(1, 1), items(3, 2), skewed] {
            for fan in [1usize, 2, 7] {
                let pass = Pass {
                    fan,
                    digit: move |t: &(u32, u32)| t.0 as usize % fan,
                    gap: 8,
                    work: Work::SortTuple,
                };
                for threads in [1, 2, 3, 7] {
                    check(pass, &src, &sources(src.len(), &[]), threads);
                }
            }
        }
    }

    #[test]
    fn one_thread_charges_two_reads_and_three_writes_per_element() {
        let n = 4_000;
        let machine = profiles::origin2000();
        for (fan, gap, sources) in
            [(256, 0, vec![0, n as u32]), (7, 8, vec![0, 1_000, 1_000, n as u32])]
        {
            let src = items(n, 3);
            let mut dst = vec![(0, 0); n + (sources.len() - 1) * fan * gap];
            let pass = Pass {
                fan,
                digit: move |t: &(u32, u32)| t.0 as usize % fan,
                gap,
                work: Work::SortTuple,
            };
            let mut trk = SimTracker::for_machine(machine);
            pass.run(&mut trk, &src, &sources, &mut dst, 4);
            let c = trk.counters();
            assert_eq!((c.reads, c.writes), (2 * n as u64, 3 * n as u64), "fan={fan}");
            let work = n as f64 * machine.work.sort_tuple_ns;
            assert!((c.cpu_ns - work).abs() < 1e-9 * work, "fan={fan}: {} ns", c.cpu_ns);
        }
    }

    #[test]
    #[should_panic(expected = "scatter slot out of range")]
    fn a_digit_that_changes_its_answer_cannot_overrun_its_slots() {
        // Counted as 0, 1, 0 but scattered as 1, 0, 1: bucket 1 has one slot.
        let calls = std::sync::atomic::AtomicUsize::new(0);
        let digit = |_: &(u32, u32)| calls.fetch_add(1, std::sync::atomic::Ordering::Relaxed) % 2;
        let mut dst = vec![(0, 0); 3];
        Pass { fan: 2, digit, gap: 0, work: Work::SortTuple }.run(
            &mut NullTracker,
            &items(3, 5),
            &[0, 3],
            &mut dst,
            1,
        );
    }

    #[test]
    #[should_panic(expected = "one gap per bucket")]
    fn a_short_destination_is_rejected() {
        let src = items(10, 4);
        let mut dst = vec![(0, 0); 10];
        Pass { fan: 2, digit: |t: &(u32, u32)| t.0 as usize % 2, gap: 1, work: Work::SortTuple }
            .run(&mut NullTracker, &src, &[0, 10], &mut dst, 1);
    }
}
