//! Parallel-speedup model — our multi-core extension of the paper's §3.4
//! methodology.
//!
//! The paper models a single-threaded machine; its successors (and the
//! "memory is the bottleneck" follow-ups in PAPERS.md) observe that radix
//! partitioning parallelizes embarrassingly: chunks of a pass and pairs of
//! clusters are independent. We model that the same way the paper models
//! everything else — by mimicking what the implementation actually does and
//! charging calibrated constants:
//!
//! ```text
//! T_par(n) = T_seq · max_share(n) + w_fork · n        (n > 1)
//! T_par(1) = T_seq                                    (exactly)
//! ```
//!
//! where `max_share(n) = ceil(I/n) / I` is the largest fraction of the `I`
//! work items any one thread receives under the executor's uniform chunking
//! (speedup = work / max(per-thread work)), and `w_fork` is the per-thread
//! fork/join overhead of a scoped OS thread, calibrated in CPU cycles so it
//! scales with the machine's clock like the paper's `w` constants do.
//!
//! [`ParallelModel::best_threads`] searches `n ∈ 1..=max_threads` for the
//! cheapest predicted time; by construction it never returns a thread count
//! the model prices slower than running sequentially.

use memsim::MachineConfig;
use monet_core::strategy::{Algorithm, JoinPlan};

use crate::plan::plan_join;

/// Per-thread fork/join overhead in CPU cycles (spawn + schedule + join of
/// one scoped thread, measured order-of-magnitude on Linux: tens of µs on a
/// late-90s clock, ~10 µs on a modern one).
pub const FORK_CYCLES: f64 = 25_000.0;

/// An upper bound on threads the auto-planner will ever consider; real
/// machines the executor targets have no more usable cores for these
/// memory-bound kernels.
pub const MAX_MODEL_THREADS: usize = 64;

/// One operator's degree-of-parallelism decision: the chosen thread count
/// and the model's sequential/parallel time quotes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ParPlan {
    /// Chosen number of threads (1 = run the sequential kernel).
    pub threads: usize,
    /// Predicted sequential time in ns (the input quote).
    pub seq_ns: f64,
    /// Predicted time at `threads` in ns; equals `seq_ns` when `threads == 1`.
    pub par_ns: f64,
}

impl ParPlan {
    /// Predicted speedup over sequential (1.0 when `threads == 1`).
    pub fn speedup(&self) -> f64 {
        if self.par_ns > 0.0 {
            self.seq_ns / self.par_ns
        } else {
            1.0
        }
    }
}

/// The calibrated parallel model for one machine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ParallelModel {
    /// Fork/join overhead per spawned thread in ns.
    pub fork_ns: f64,
    /// Largest thread count the planner may choose (the machine's usable
    /// core count).
    pub max_threads: usize,
}

impl ParallelModel {
    /// Calibrate for `cfg`: [`FORK_CYCLES`] at the machine's clock, thread
    /// counts capped at `max_threads` (clamped to `1..=`[`MAX_MODEL_THREADS`]).
    pub fn for_machine(cfg: &MachineConfig, max_threads: usize) -> Self {
        Self {
            fork_ns: FORK_CYCLES * cfg.ns_per_cycle(),
            max_threads: max_threads.clamp(1, MAX_MODEL_THREADS),
        }
    }

    /// Predicted time of running `items` uniform work items, sequentially
    /// worth `seq_ns`, on `threads` threads. `threads = 1` returns `seq_ns`
    /// *exactly* (no fork term): the executor runs the sequential kernel.
    pub fn time_ns(&self, seq_ns: f64, items: usize, threads: usize) -> f64 {
        // More threads than items would only spawn idle workers; the
        // kernels clamp the same way.
        let t = threads.max(1).min(items.max(1));
        if t == 1 {
            return seq_ns;
        }
        let max_share = items.div_ceil(t) as f64 / items as f64;
        seq_ns * max_share + self.fork_ns * t as f64
    }

    /// Predicted speedup (`seq / par`) at `threads`.
    pub fn speedup(&self, seq_ns: f64, items: usize, threads: usize) -> f64 {
        let t = self.time_ns(seq_ns, items, threads);
        if t > 0.0 {
            seq_ns / t
        } else {
            1.0
        }
    }

    /// The model-optimal thread count for this job: the `n` minimizing
    /// [`Self::time_ns`]. Because `n = 1` is always considered (and quotes
    /// `seq_ns` exactly), the result is never priced slower than sequential;
    /// ties go to fewer threads.
    pub fn best_threads(&self, seq_ns: f64, items: usize) -> ParPlan {
        let mut best = ParPlan { threads: 1, seq_ns, par_ns: seq_ns };
        for n in 2..=self.max_threads {
            let t = self.time_ns(seq_ns, items, n);
            if t < best.par_ns {
                best = ParPlan { threads: n, seq_ns, par_ns: t };
            }
        }
        best
    }
}

/// Whether a join algorithm fans out over threads in
/// [`monet_core::join::join`]: the partitioned algorithms split their
/// clustering and their cluster pairs over workers. The unpartitioned
/// baselines run sequentially: a single shared hash table or merge has no
/// disjoint partitions to fan out over.
pub fn algorithm_parallelizes(a: Algorithm) -> bool {
    matches!(a, Algorithm::PartitionedHash | Algorithm::Radix)
}

/// Executor-facing extension of [`plan_join`]: the model-optimal
/// `(algorithm, B, P)` **and** degree of parallelism for joining two
/// relations of `cardinality` tuples each on machine `cfg`, with at most
/// `max_threads` threads available.
///
/// The parallel quote prices the *chosen* plan: its items are the tuples of
/// both operands (every pass and the cluster-pair join fan out over them),
/// and its sequential time is the plan's own model cost. Plans whose
/// algorithm has no parallel kernel come back pinned to one thread.
pub fn plan_join_parallel(
    cfg: &MachineConfig,
    cardinality: usize,
    max_threads: usize,
) -> (JoinPlan, ParPlan) {
    let (plan, cost) = plan_join(cfg, cardinality);
    let seq_ns = cost.total_ns();
    let par = if algorithm_parallelizes(plan.algorithm) {
        ParallelModel::for_machine(cfg, max_threads).best_threads(seq_ns, 2 * cardinality.max(1))
    } else {
        ParPlan { threads: 1, seq_ns, par_ns: seq_ns }
    };
    (plan, par)
}

#[cfg(test)]
mod tests {
    use super::*;
    use memsim::profiles;

    fn model() -> ParallelModel {
        ParallelModel::for_machine(&profiles::origin2000(), 16)
    }

    #[test]
    fn one_thread_reproduces_the_sequential_cost_exactly() {
        let m = model();
        for seq in [0.0, 1.0, 12345.678, 9.9e12] {
            assert_eq!(m.time_ns(seq, 1_000_000, 1), seq, "no fork term at n = 1");
            assert_eq!(m.speedup(seq, 1_000_000, 1), 1.0);
        }
        // Degenerate shapes clamp to the sequential quote too.
        assert_eq!(m.time_ns(5000.0, 0, 8), 5000.0, "empty input runs sequentially");
        assert_eq!(m.time_ns(5000.0, 1, 8), 5000.0, "threads clamp to the item count");
    }

    #[test]
    fn speedup_is_monotone_until_the_overhead_term_dominates() {
        let m = model();
        // A big job: 1 s of sequential work over 8M items. The per-thread
        // share shrinks much faster than fork overhead accrues, so speedup
        // rises monotonically across every thread count the model considers.
        let mut prev = 0.0;
        for n in 1..=m.max_threads {
            let s = m.speedup(1e9, 8_000_000, n);
            assert!(s >= prev, "speedup fell from {prev} to {s} at n = {n}");
            prev = s;
        }
        assert!(prev > 4.0, "16 threads on a 1 s job must predict real speedup, got {prev}");

        // A tiny job: 50 µs of work. Fork overhead (~100 µs/thread on the
        // Origin2000 clock) dominates immediately; every n > 1 is slower.
        for n in 2..=m.max_threads {
            assert!(
                m.time_ns(50_000.0, 1000, n) > 50_000.0,
                "overhead must dominate a 50 µs job at n = {n}"
            );
        }
    }

    #[test]
    fn auto_never_picks_threads_priced_slower_than_sequential() {
        let m = model();
        for seq in [0.0, 1e3, 1e5, 1e7, 1e9] {
            for items in [0usize, 1, 7, 1000, 1 << 20] {
                let p = m.best_threads(seq, items);
                assert!(p.par_ns <= p.seq_ns, "seq {seq} items {items}: {p:?}");
                assert!(p.threads >= 1 && p.threads <= m.max_threads);
                if p.threads == 1 {
                    assert_eq!(p.par_ns, p.seq_ns, "n = 1 must quote sequential exactly");
                }
            }
        }
        // Tiny jobs stay sequential; the 1 s job does not.
        assert_eq!(m.best_threads(50_000.0, 1000).threads, 1);
        assert!(m.best_threads(1e9, 8_000_000).threads > 1);
    }

    #[test]
    fn fork_overhead_is_calibrated_to_the_machine_clock() {
        let cfg = profiles::origin2000(); // 250 MHz => 4 ns/cycle
        let m = ParallelModel::for_machine(&cfg, 8);
        assert!((m.fork_ns - FORK_CYCLES * 4.0).abs() < 1e-9);
        // Clamping of the thread cap.
        assert_eq!(ParallelModel::for_machine(&cfg, 0).max_threads, 1);
        assert_eq!(ParallelModel::for_machine(&cfg, 10_000).max_threads, MAX_MODEL_THREADS);
    }

    #[test]
    fn plan_join_parallel_extends_plan_join() {
        let cfg = profiles::origin2000();
        // Same plan as plan_join; threads chosen by the model.
        for c in [1usize, 1_000, 1_000_000] {
            let (plan, par) = plan_join_parallel(&cfg, c, 8);
            let (expect, cost) = plan_join(&cfg, c);
            assert_eq!(plan, expect, "C={c}");
            assert!((par.seq_ns - cost.total_ns()).abs() < 1e-9, "C={c}");
            assert!(par.par_ns <= par.seq_ns, "C={c}");
            if !algorithm_parallelizes(plan.algorithm) {
                assert_eq!(par.threads, 1, "C={c}: sequential algorithms pin to one thread");
            }
        }
        // A large join is both partitioned and worth parallelizing.
        let (plan, par) = plan_join_parallel(&cfg, 8_000_000, 8);
        assert!(algorithm_parallelizes(plan.algorithm));
        assert!(par.threads > 1, "8M-tuple join should fan out, got {par:?}");
        // max_threads = 1 degenerates to the sequential planner.
        let (_, seq1) = plan_join_parallel(&cfg, 8_000_000, 1);
        assert_eq!(seq1.threads, 1);
        assert_eq!(seq1.par_ns, seq1.seq_ns);
    }
}
