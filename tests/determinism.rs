//! Reproducibility guarantees: the simulator is fully deterministic, the
//! workloads are seed-stable, and counters compose across phases. These are
//! the properties that make "exact statistics on events" (the paper's
//! hardware-counter methodology) meaningful in software.

use monet_mem::core::join::{join, partitioned_hash_join, radix_cluster, FibHash};
use monet_mem::core::strategy::{Algorithm, JoinPlan};
use monet_mem::memsim::{profiles, Access, MemorySystem, SimTracker};
use monet_mem::workload::{join_pair, unique_random_buns};

#[test]
fn identical_runs_produce_identical_counters() {
    let run = || {
        let (l, r) = join_pair(50_000, 77);
        let mut trk = SimTracker::for_machine(profiles::origin2000());
        let pairs = partitioned_hash_join(&mut trk, FibHash, l, r, 6, &[6]);
        (pairs.len(), trk.counters())
    };
    let (n1, c1) = run();
    let (n2, c2) = run();
    assert_eq!(n1, n2);
    // Note: l1/l2 misses depend on *addresses*, which differ across
    // allocations; the deterministic parts are the access counts and work.
    assert_eq!(c1.reads, c2.reads);
    assert_eq!(c1.writes, c2.writes);
    assert_eq!(c1.line_accesses, c2.line_accesses);
    assert!((c1.cpu_ns - c2.cpu_ns).abs() < 1e-9);
    // Miss counts may differ marginally through physical layout (different
    // heap addresses ⇒ different set/page conflicts), but not structurally.
    let rel = |a: u64, b: u64| (a as f64 - b as f64).abs() / (a.max(b).max(1) as f64);
    assert!(rel(c1.l1_misses, c2.l1_misses) < 0.10, "{} vs {}", c1.l1_misses, c2.l1_misses);
    assert!(rel(c1.tlb_misses, c2.tlb_misses) < 0.15, "{} vs {}", c1.tlb_misses, c2.tlb_misses);
}

/// A traced join that fans out gives every worker a hierarchy of its own:
/// at each thread count two runs charge the same accesses and work, and
/// the join index is the same at every thread count. Misses are left out:
/// the simulator sees real heap addresses, which move between runs.
#[test]
fn parallel_traced_runs_repeat_their_access_counts() {
    let plan = JoinPlan { algorithm: Algorithm::PartitionedHash, bits: 6, pass_bits: vec![3, 3] };
    let run = |threads| {
        let (l, r) = join_pair(30_000, 77);
        let mut trk = SimTracker::for_machine(profiles::origin2000());
        let (pairs, _) = join(&mut trk, FibHash, l, r, &plan, threads);
        let c = trk.counters();
        (pairs, (c.reads, c.writes, c.line_accesses, c.cpu_ns.to_bits()))
    };
    let (index, _) = run(1);
    for threads in [1, 2, 3] {
        let (p1, c1) = run(threads);
        let (p2, c2) = run(threads);
        assert_eq!(c1, c2, "threads={threads}: (reads, writes, line accesses, cpu_ns bits)");
        assert_eq!(p1, index, "threads={threads}");
        assert_eq!(p2, index, "threads={threads}");
    }
}

#[test]
fn workloads_are_seed_stable() {
    assert_eq!(unique_random_buns(10_000, 3), unique_random_buns(10_000, 3));
    let (l1, r1) = join_pair(5_000, 11);
    let (l2, r2) = join_pair(5_000, 11);
    assert_eq!(l1, l2);
    assert_eq!(r1, r2);
    assert_ne!(join_pair(5_000, 12).0, l1);
}

#[test]
fn counters_compose_across_phases() {
    let machine = profiles::origin2000();
    let input = unique_random_buns(30_000, 5);

    // One continuous run…
    let mut trk = SimTracker::for_machine(machine);
    let clustered = radix_cluster(&mut trk, FibHash, input.clone(), 8, &[4, 4]);
    let total = trk.counters();

    // …must equal the sum of per-phase deltas measured via snapshots.
    let mut trk2 = SimTracker::for_machine(machine);
    let before = trk2.counters();
    let c1 = radix_cluster(&mut trk2, FibHash, input, 8, &[4, 4]);
    let after = trk2.counters();
    let delta = after - before;
    assert_eq!(clustered.bounds, c1.bounds);
    assert_eq!(total.reads, delta.reads);
    assert_eq!(total.writes, delta.writes);
    assert!((total.cpu_ns - delta.cpu_ns).abs() < 1e-9);
}

#[test]
fn cold_caches_are_really_cold() {
    let mut sys = MemorySystem::new(profiles::origin2000());
    // Touch a fresh region: every line must miss all levels once.
    let base = 0x4000_0000u64;
    let len = 64 * 1024u64;
    for a in (base..base + len).step_by(32) {
        sys.touch(a, 1, Access::Read);
    }
    let c = sys.counters();
    assert_eq!(c.l1_misses, len / 32);
    assert_eq!(c.l2_misses, len / 128);
    assert_eq!(c.tlb_misses, len / (16 * 1024));

    // After invalidation the same pattern repeats exactly.
    sys.invalidate_caches();
    sys.reset_counters();
    for a in (base..base + len).step_by(32) {
        sys.touch(a, 1, Access::Read);
    }
    let c2 = sys.counters();
    assert_eq!(c.l1_misses, c2.l1_misses);
    assert_eq!(c.l2_misses, c2.l2_misses);
    assert_eq!(c.tlb_misses, c2.tlb_misses);
}

#[test]
fn elapsed_time_decomposition_is_internally_consistent() {
    let (l, r) = join_pair(20_000, 9);
    let mut trk = SimTracker::for_machine(profiles::origin2000());
    let _ = partitioned_hash_join(&mut trk, FibHash, l, r, 5, &[5]);
    let c = trk.counters();
    let lat = profiles::origin2000().lat;
    assert!((c.stall_l2_ns - c.l1_misses as f64 * lat.l2_ns).abs() < 1e-6);
    assert!((c.stall_mem_ns - c.l2_misses as f64 * lat.mem_ns).abs() < 1e-6);
    assert!((c.stall_tlb_ns - c.tlb_misses as f64 * lat.tlb_ns).abs() < 1e-6);
    assert!(
        (c.elapsed_ns() - (c.cpu_ns + c.stall_l2_ns + c.stall_mem_ns + c.stall_tlb_ns)).abs()
            < 1e-6
    );
}
