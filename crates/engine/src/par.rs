//! Chunked fan-out plumbing for the parallel operator paths.
//!
//! Every parallel operator in this crate follows the same determinism
//! discipline as [`monet_core::join::parallel`]: the input index space is
//! split into at most `threads` contiguous chunks, each worker produces its
//! chunk's result independently, and results are merged **thread-major**
//! (chunk 0's output precedes chunk 1's). Because chunks partition the index
//! space in order, the merged output is bit-identical to what the sequential
//! kernel produces — integer outputs trivially, and per-element outputs
//! (gathers) because every element is computed exactly as the sequential
//! code computes it.
//!
//! Parallel execution is native-only: none of these helpers take a
//! [`memsim::MemTracker`], because simulating one shared memory hierarchy
//! from several threads would serialize on the simulator and model a machine
//! the paper never measured. The executor pins simulated runs to one thread.

/// The contiguous-chunk fan-out every parallel operator here (and the
/// scan-select driver in `monet_core`) shares.
pub(crate) use monet_core::scan::fan_out;

/// The per-thread chunk sizes [`fan_out`] uses over `0..n` — the sharded
/// row accounting for operators whose parallel work is a uniform partition
/// of the input (gathers, aggregates). Sums to `n` by construction.
pub(crate) fn shard_sizes(n: usize, threads: usize) -> Vec<usize> {
    let threads = threads.min(n).max(1);
    if threads == 1 {
        return vec![n];
    }
    let chunk = n.div_ceil(threads);
    (0..threads)
        .map(|t| (t * chunk, ((t + 1) * chunk).min(n)))
        .filter(|(a, b)| a < b)
        .map(|(a, b)| b - a)
        .collect()
}

/// [`fan_out`] for `Vec`-producing workers, concatenated thread-major.
pub(crate) fn fan_out_concat<R, F>(n: usize, threads: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize, usize) -> Vec<R> + Sync,
{
    let parts = fan_out(n, threads, f);
    let total: usize = parts.iter().map(Vec::len).sum();
    let mut out = Vec::with_capacity(total);
    for p in parts {
        out.extend(p);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunks_cover_the_range_in_order() {
        for n in [0usize, 1, 2, 7, 100, 101] {
            for threads in [1usize, 2, 3, 7, 64] {
                let got = fan_out_concat(n, threads, |lo, hi| (lo..hi).collect::<Vec<_>>());
                let expect: Vec<usize> = (0..n).collect();
                assert_eq!(got, expect, "n={n} threads={threads}");
            }
        }
    }

    #[test]
    fn shard_sizes_match_fan_out_chunking() {
        for n in [0usize, 1, 7, 100, 101] {
            for threads in [1usize, 2, 3, 7, 64] {
                let sizes = shard_sizes(n, threads);
                let parts = fan_out(n, threads, |lo, hi| hi - lo);
                assert_eq!(sizes, parts, "n={n} threads={threads}");
                assert_eq!(sizes.iter().sum::<usize>(), n);
            }
        }
    }

    #[test]
    fn single_thread_runs_inline() {
        let parts = fan_out(10, 1, |lo, hi| (lo, hi));
        assert_eq!(parts, vec![(0, 10)]);
        let parts = fan_out(0, 8, |lo, hi| (lo, hi));
        assert_eq!(parts, vec![(0, 0)], "empty input must not spawn workers");
    }
}
