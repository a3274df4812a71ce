//! The [`MemTracker`] abstraction: one algorithm implementation, two modes.
//!
//! Every algorithm in the reproduction (`monet-core`) is generic over a
//! `MemTracker`. With [`NullTracker`] every hook is an empty `#[inline]`
//! function, so the monomorphized code is the plain native algorithm — this
//! is what the criterion benches time on the host CPU. With [`SimTracker`]
//! every data access is replayed through a [`MemorySystem`] and every unit of
//! algorithmic work is charged its calibrated `w` cost, reproducing the
//! paper's hardware-counter measurements on the simulated Origin2000.
//!
//! Addresses passed to the tracker are the algorithm's *real* heap addresses,
//! so cache-set conflicts and page boundaries are realistic.

use crate::config::WorkCosts;
use crate::counters::EventCounters;
use crate::system::{Access, MemorySystem};

/// Units of algorithmic work, mapped to the paper's calibrated `w` constants
/// (see [`WorkCosts`]). Algorithms report *what* they did; only the simulated
/// machine knows what it costs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Work {
    /// One tuple processed by one radix-cluster pass (`w_c`).
    ClusterTuple,
    /// One join-predicate evaluation in radix-join's nested loop (`w_r`).
    RadixCompare,
    /// One result tuple created by radix-join (`w'_r`).
    RadixResult,
    /// One tuple's worth of hash-join work: build or probe (`w_h`).
    HashTuple,
    /// One hash-table creation/destruction (`w'_h`, per cluster).
    HashClusterSetup,
    /// One iteration of the §2 scan experiment (4 cycles on the Origin2000).
    ScanIter,
    /// One tuple moved by one radix-sort pass (sort-merge baseline).
    SortTuple,
    /// One tuple advanced by the merge phase (sort-merge baseline).
    MergeTuple,
}

impl Work {
    /// The calibrated cost of this work unit on a machine, in nanoseconds.
    #[inline]
    pub fn cost_ns(self, w: &WorkCosts) -> f64 {
        match self {
            Work::ClusterTuple => w.cluster_tuple_ns,
            Work::RadixCompare => w.radix_compare_ns,
            Work::RadixResult => w.radix_result_ns,
            Work::HashTuple => w.hash_tuple_ns,
            Work::HashClusterSetup => w.hash_cluster_ns,
            Work::ScanIter => w.scan_iter_ns,
            Work::SortTuple => w.sort_tuple_ns,
            Work::MergeTuple => w.merge_tuple_ns,
        }
    }
}

/// Instrumentation hooks called by the algorithms in `monet-core`.
///
/// Implementations must be cheap: the hooks sit in the innermost loops of
/// every join. `ENABLED` lets algorithms skip *building* expensive arguments
/// (not just the call) when tracking is off.
///
/// **Parallel workers.** A kernel that fans out gives every worker but the
/// first a [`fork`](Self::fork) of its tracker and [`absorb`](Self::absorb)s
/// the forks back in worker order. The Origin2000 is a multiprocessor whose
/// CPUs each own their L1, L2 and TLB, so a worker is a CPU of its own: a
/// fork starts **cold** on the same machine. A clone of the parent's state
/// would copy a whole simulated hierarchy per worker and count the lines
/// the parent left warm as hits on every CPU; a cold fork is the
/// conservative per-CPU model.
pub trait MemTracker: Send {
    /// `false` for [`NullTracker`]; lets call sites guard costly bookkeeping.
    const ENABLED: bool;

    /// A load of `len` bytes at `addr`.
    fn read(&mut self, addr: usize, len: usize);

    /// A store of `len` bytes at `addr`.
    fn write(&mut self, addr: usize, len: usize);

    /// `count` units of algorithmic work of kind `w`.
    fn work(&mut self, w: Work, count: u64);

    /// Raw CPU-time charge (rarely needed; prefer [`work`](Self::work)).
    fn cpu_ns(&mut self, ns: f64);

    /// Event counters accumulated so far, when this tracker counts anything
    /// (`None` for [`NullTracker`]). Consumers such as the query executor use
    /// before/after snapshots to attribute simulated cost per operator.
    fn counters_snapshot(&self) -> Option<EventCounters> {
        None
    }

    /// A tracker for one more worker of a parallel kernel: a cold hierarchy
    /// on the same machine, with zero counters (see the trait docs).
    fn fork(&self) -> Self;

    /// Add the counters of `child`, a finished [`fork`](Self::fork), to this
    /// tracker's.
    fn absorb(&mut self, child: Self);
}

/// Track a read of one `T` value.
#[inline(always)]
pub fn track_read<T, M: MemTracker>(m: &mut M, r: &T) {
    if M::ENABLED {
        m.read(r as *const T as usize, core::mem::size_of::<T>());
    }
}

/// Track a write of one `T` value.
#[inline(always)]
pub fn track_write<T, M: MemTracker>(m: &mut M, r: &T) {
    if M::ENABLED {
        m.write(r as *const T as usize, core::mem::size_of::<T>());
    }
}

/// Track a sequential read of a whole slice (counts each element).
#[inline(always)]
pub fn track_read_slice<T, M: MemTracker>(m: &mut M, s: &[T]) {
    if M::ENABLED && !s.is_empty() {
        m.read(s.as_ptr() as usize, core::mem::size_of_val(s));
    }
}

/// Track a sequential write of a whole slice.
#[inline(always)]
pub fn track_write_slice<T, M: MemTracker>(m: &mut M, s: &[T]) {
    if M::ENABLED && !s.is_empty() {
        m.write(s.as_ptr() as usize, core::mem::size_of_val(s));
    }
}

/// The zero-cost tracker: all hooks are no-ops that the optimizer removes.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullTracker;

impl MemTracker for NullTracker {
    const ENABLED: bool = false;

    #[inline(always)]
    fn read(&mut self, _addr: usize, _len: usize) {}

    #[inline(always)]
    fn write(&mut self, _addr: usize, _len: usize) {}

    #[inline(always)]
    fn work(&mut self, _w: Work, _count: u64) {}

    #[inline(always)]
    fn cpu_ns(&mut self, _ns: f64) {}

    #[inline(always)]
    fn fork(&self) -> Self {
        NullTracker
    }

    #[inline(always)]
    fn absorb(&mut self, _child: Self) {}
}

/// The simulating tracker: replays every access through a [`MemorySystem`].
#[derive(Debug, Clone)]
pub struct SimTracker {
    sys: MemorySystem,
}

impl SimTracker {
    /// Wrap a memory system (usually fresh and cold).
    pub fn new(sys: MemorySystem) -> Self {
        Self { sys }
    }

    /// Build directly from a machine profile.
    pub fn for_machine(cfg: crate::config::MachineConfig) -> Self {
        Self::new(MemorySystem::new(cfg))
    }

    /// Counter snapshot.
    pub fn counters(&self) -> EventCounters {
        self.sys.counters()
    }

    /// Access the underlying system (reset, invalidate, machine info).
    pub fn system_mut(&mut self) -> &mut MemorySystem {
        &mut self.sys
    }

    /// Access the underlying system immutably.
    pub fn system(&self) -> &MemorySystem {
        &self.sys
    }
}

impl MemTracker for SimTracker {
    const ENABLED: bool = true;

    #[inline]
    fn read(&mut self, addr: usize, len: usize) {
        self.sys.touch(addr as u64, len, Access::Read);
    }

    #[inline]
    fn write(&mut self, addr: usize, len: usize) {
        self.sys.touch(addr as u64, len, Access::Write);
    }

    #[inline]
    fn work(&mut self, w: Work, count: u64) {
        let ns = w.cost_ns(&self.sys.machine().work);
        self.sys.cpu_ns(ns * count as f64);
    }

    #[inline]
    fn cpu_ns(&mut self, ns: f64) {
        self.sys.cpu_ns(ns);
    }

    fn counters_snapshot(&self) -> Option<EventCounters> {
        Some(self.sys.counters())
    }

    fn fork(&self) -> Self {
        Self::for_machine(*self.sys.machine())
    }

    fn absorb(&mut self, child: Self) {
        self.sys.add_counters(child.counters());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profiles;

    #[test]
    fn null_tracker_is_zero_sized() {
        assert_eq!(core::mem::size_of::<NullTracker>(), 0);
    }

    #[test]
    fn sim_tracker_counts_reads_and_writes() {
        let mut t = SimTracker::for_machine(profiles::origin2000());
        let data = vec![0u64; 1024];
        for v in &data {
            track_read(&mut t, v);
        }
        let c = t.counters();
        assert_eq!(c.reads, 1024);
        // 8 KiB sequential: one miss per 32-byte line, modulo the slice not
        // being line-aligned (at most one extra line).
        assert!(c.l1_misses >= 256 && c.l1_misses <= 257, "l1 {}", c.l1_misses);
    }

    #[test]
    fn work_charges_calibrated_cost() {
        let mut t = SimTracker::for_machine(profiles::origin2000());
        t.work(Work::ClusterTuple, 1000);
        assert!((t.counters().cpu_ns - 50_000.0).abs() < 1e-9);
        t.work(Work::HashClusterSetup, 2);
        assert!((t.counters().cpu_ns - 57_200.0).abs() < 1e-9);
    }

    #[test]
    fn track_slice_counts_whole_span() {
        let mut t = SimTracker::for_machine(profiles::origin2000());
        let data = vec![0u8; 4096];
        track_read_slice(&mut t, &data);
        let c = t.counters();
        assert_eq!(c.reads, 1);
        assert!(c.l1_misses >= 128 && c.l1_misses <= 129);
    }

    #[test]
    fn a_fork_starts_cold_and_its_counts_are_absorbed() {
        let mut t = SimTracker::for_machine(profiles::origin2000());
        let data = vec![0u64; 64];
        track_read_slice(&mut t, &data);
        let mut child = t.fork();
        assert!(child.counters().is_empty());
        // The parent's warm lines are not the child's.
        track_read_slice(&mut child, &data);
        assert_eq!(child.counters().l1_misses, t.counters().l1_misses);
        child.work(Work::ScanIter, 3);
        let expect = t.counters() + child.counters();
        t.absorb(child);
        assert_eq!(t.counters(), expect);
    }

    #[test]
    fn generic_helper_respects_enabled_flag() {
        // With NullTracker the helpers must not panic and do nothing
        // observable (compile-time guarantee mostly; smoke test here).
        let mut t = NullTracker;
        let v = 42u32;
        track_read(&mut t, &v);
        track_write(&mut t, &v);
        t.work(Work::ScanIter, 10);
    }
}
