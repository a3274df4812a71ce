//! Native (host CPU) counterparts of the paper's experiments, plus the
//! ablation benches. Absolute numbers are not comparable to a 250 MHz
//! Origin2000; the *shapes* (stride cliffs, multi-pass crossover,
//! radix-family dominance) are what matters. Recorded wall-clock numbers
//! come from `bench/` (see `bench/README.md`), not from here.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;

use engine::reconstruct::fetch_i32;
use engine::select::{range_select_i32, select_eq_str};
use memsim::{profiles, NullTracker, SimTracker};
use monet_core::index::{binary_search_tracked, CsBTree};
use monet_core::join::{
    nested_loop_join, par_partitioned_hash_join, par_radix_cluster, partitioned_hash_join,
    radix_cluster, radix_join, simple_hash_join, sort_merge_join, sort_merge_join_cmp,
    ChainedTable, FibHash, IdentityHash, KeyHash,
};
use monet_core::storage::{Bat, Column};
use monet_core::strategy::{bits_phash_min, bits_radix8, plan_passes, Strategy};
use workload::{item_table, join_pair, unique_random_buns};

/// Figure 3 on the host: one-byte reads at growing stride.
fn bench_scan_stride(c: &mut Criterion) {
    let mut g = c.benchmark_group("scan_stride");
    let iters = 200_000usize;
    for stride in [1usize, 8, 32, 64, 128, 256] {
        let buf = vec![1u8; iters * stride];
        g.throughput(Throughput::Elements(iters as u64));
        g.bench_with_input(BenchmarkId::from_parameter(stride), &stride, |b, &s| {
            b.iter(|| {
                let mut sum = 0u64;
                let mut i = 0usize;
                for _ in 0..iters {
                    sum += unsafe { *buf.get_unchecked(i) } as u64;
                    i += s;
                }
                black_box(sum)
            })
        });
    }
    g.finish();
}

/// Figure 9 on the host: 1 vs 2 passes below/above the TLB threshold.
fn bench_radix_cluster(c: &mut Criterion) {
    let mut g = c.benchmark_group("radix_cluster");
    g.sample_size(20);
    let input = unique_random_buns(1 << 18, 1);
    for (bits, passes) in
        [(4u32, vec![4u32]), (12, vec![12]), (12, vec![6, 6]), (18, vec![6, 6, 6])]
    {
        let name = format!("B{}_P{}", bits, passes.len());
        g.throughput(Throughput::Elements(input.len() as u64));
        g.bench_function(BenchmarkId::from_parameter(name), |b| {
            b.iter(|| {
                radix_cluster(&mut NullTracker, FibHash, black_box(input.clone()), bits, &passes)
            })
        });
    }
    g.finish();
}

/// Uneven bit-split ablation (§3.4.2: "performance strongly depends on even
/// distribution of bits").
fn bench_cluster_uneven_split(c: &mut Criterion) {
    let mut g = c.benchmark_group("cluster_uneven_split");
    g.sample_size(20);
    let input = unique_random_buns(1 << 18, 2);
    for split in [vec![6u32, 6], vec![9, 3], vec![3, 9], vec![10, 2]] {
        let name = split.iter().map(u32::to_string).collect::<Vec<_>>().join("+");
        g.bench_function(BenchmarkId::from_parameter(name), |b| {
            b.iter(|| {
                radix_cluster(&mut NullTracker, FibHash, black_box(input.clone()), 12, &split)
            })
        });
    }
    g.finish();
}

/// Figure 13 on the host at one cardinality.
fn bench_joins(c: &mut Criterion) {
    let mut g = c.benchmark_group("join_overall");
    g.sample_size(10);
    let n = 1 << 17;
    let (l, r) = join_pair(n, 3);
    let tlb = profiles::origin2000().tlb.entries;

    g.throughput(Throughput::Elements(n as u64));
    g.bench_function("simple_hash", |b| {
        b.iter(|| simple_hash_join(&mut NullTracker, FibHash, black_box(&l), black_box(&r)))
    });
    let pb = bits_phash_min(n);
    let pp = plan_passes(pb, tlb);
    g.bench_function("phash_min", |b| {
        b.iter(|| {
            partitioned_hash_join(
                &mut NullTracker,
                FibHash,
                black_box(l.clone()),
                black_box(r.clone()),
                pb,
                &pp,
            )
        })
    });
    let rb = bits_radix8(n);
    let rp = plan_passes(rb, tlb);
    g.bench_function("radix_8", |b| {
        b.iter(|| {
            radix_join(
                &mut NullTracker,
                FibHash,
                black_box(l.clone()),
                black_box(r.clone()),
                rb,
                &rp,
            )
        })
    });
    g.bench_function("sort_merge", |b| {
        b.iter(|| sort_merge_join(&mut NullTracker, black_box(l.clone()), black_box(r.clone())))
    });
    g.bench_function("sort_merge_cmp", |b| {
        b.iter(|| sort_merge_join_cmp(&mut NullTracker, black_box(l.clone()), black_box(r.clone())))
    });
    g.finish();
}

/// Extension: parallel radix partitioning scalability on the host.
fn bench_parallel(c: &mut Criterion) {
    let mut g = c.benchmark_group("parallel_phash");
    g.sample_size(10);
    let n = 1 << 20;
    let (l, r) = join_pair(n, 9);
    let bits = bits_phash_min(n);
    let passes = plan_passes(bits, profiles::origin2000().tlb.entries);
    g.throughput(Throughput::Elements(n as u64));
    for threads in [1usize, 2, 4, 8] {
        g.bench_with_input(BenchmarkId::from_parameter(threads), &threads, |b, &t| {
            b.iter(|| {
                par_partitioned_hash_join(
                    FibHash,
                    black_box(l.clone()),
                    black_box(r.clone()),
                    bits,
                    &passes,
                    t,
                )
            })
        });
    }
    g.bench_function("cluster_only_4t", |b| {
        b.iter(|| par_radix_cluster(FibHash, black_box(l.clone()), bits, &passes, 4))
    });
    g.finish();
}

/// §3.2 access paths natively: line-node B-tree vs binary search vs hash.
fn bench_index_lookup(c: &mut Criterion) {
    let mut g = c.benchmark_group("index_lookup");
    g.sample_size(20);
    let n = 1 << 22;
    let entries: Vec<(u32, u32)> = (0..n as u32).map(|i| (i * 3, i)).collect();
    let keys: Vec<u32> = entries.iter().map(|e| e.0).collect();
    let tree64 = CsBTree::with_node_bytes(&entries, 64);
    let probes: Vec<u32> =
        (0..10_000u32).map(|i| (i.wrapping_mul(2_654_435_761) % n as u32) * 3).collect();
    g.throughput(Throughput::Elements(probes.len() as u64));
    g.bench_function("btree_64B_nodes", |b| {
        b.iter(|| {
            let mut found = 0u64;
            for &p in &probes {
                tree64.lookup_eq(&mut NullTracker, p, |_| found += 1);
            }
            black_box(found)
        })
    });
    g.bench_function("binary_search", |b| {
        b.iter(|| {
            let mut acc = 0usize;
            for &p in &probes {
                acc += binary_search_tracked(&mut NullTracker, &keys, p);
            }
            black_box(acc)
        })
    });
    g.finish();
}

/// Ablation: the `MemTracker` abstraction must cost nothing when off.
/// Compares the generic kernel under `NullTracker` against simulation, and
/// against a hand-specialized untracked loop.
fn bench_tracker_overhead(c: &mut Criterion) {
    let mut g = c.benchmark_group("tracker_overhead");
    g.sample_size(15);
    let input = unique_random_buns(1 << 16, 4);

    g.bench_function("null_tracker", |b| {
        b.iter(|| radix_cluster(&mut NullTracker, FibHash, black_box(input.clone()), 8, &[8]))
    });
    g.bench_function("hand_specialized", |b| {
        b.iter(|| {
            // The same histogram+scatter written directly, no generics.
            let src = black_box(input.clone());
            let n = src.len();
            let mut hist = [0u32; 256];
            for t in &src {
                hist[(FibHash.hash(t.tail) & 0xFF) as usize] += 1;
            }
            let mut offs = [0u32; 256];
            let mut acc = 0u32;
            for i in 0..256 {
                offs[i] = acc;
                acc += hist[i];
            }
            let mut dst = vec![monet_core::join::Bun::default(); n];
            for t in &src {
                let idx = (FibHash.hash(t.tail) & 0xFF) as usize;
                dst[offs[idx] as usize] = *t;
                offs[idx] += 1;
            }
            dst
        })
    });
    g.bench_function("sim_tracker", |b| {
        b.iter(|| {
            let mut trk = SimTracker::for_machine(profiles::origin2000());
            radix_cluster(&mut trk, FibHash, black_box(input.clone()), 8, &[8])
        })
    });
    g.finish();
}

/// Ablation: bucket bits above vs below the radix bits.
fn bench_hashtable_radix_bits(c: &mut Criterion) {
    let mut g = c.benchmark_group("hashtable_radix_bits");
    g.sample_size(20);
    // All keys share their low 8 bits, as inside one cluster of a B=8
    // clustering.
    let keys: Vec<monet_core::join::Bun> =
        (0..4096u32).map(|i| monet_core::join::Bun::new(i, (i << 8) | 0x5A)).collect();

    for (name, shift) in [("shifted", 8u32), ("unshifted", 0u32)] {
        g.bench_function(BenchmarkId::from_parameter(name), |b| {
            let table = ChainedTable::build(&mut NullTracker, IdentityHash, &keys, shift, 4);
            b.iter(|| {
                let mut hits = 0u64;
                for t in &keys {
                    table.probe(&mut NullTracker, IdentityHash, &keys, t.tail, |_, _| hits += 1);
                }
                black_box(hits)
            })
        });
    }
    g.finish();
}

/// Ablation: void positional reconstruction vs a hash join doing the
/// same tuple reconstruction.
fn bench_reconstruct_void_vs_hash(c: &mut Criterion) {
    let mut g = c.benchmark_group("reconstruct_void_vs_hash");
    g.sample_size(20);
    let n = 1 << 16;
    let values: Vec<i32> = (0..n).map(|i| i * 3).collect();
    let bat = Bat::with_void_head(0, Column::I32(values));
    let cands: Vec<u32> = (0..n as u32).step_by(3).collect();

    g.throughput(Throughput::Elements(cands.len() as u64));
    g.bench_function("void_positional", |b| {
        b.iter(|| fetch_i32(&mut NullTracker, black_box(&bat), black_box(&cands)).unwrap())
    });
    g.bench_function("hash_join_equivalent", |b| {
        // The reconstruction expressed as a join: cands ⋈ [oid, value].
        let left: Vec<monet_core::join::Bun> = cands
            .iter()
            .enumerate()
            .map(|(i, &o)| monet_core::join::Bun::new(i as u32, o))
            .collect();
        let right: Vec<monet_core::join::Bun> =
            (0..n as u32).map(|o| monet_core::join::Bun::new(o, o)).collect();
        b.iter(|| simple_hash_join(&mut NullTracker, FibHash, black_box(&left), black_box(&right)))
    });
    g.finish();
}

/// Ablation: selection over a byte-encoded column vs a 4-byte column.
fn bench_select_encoded(c: &mut Criterion) {
    let mut g = c.benchmark_group("select_encoded");
    g.sample_size(20);
    let t = item_table(1 << 16, 5);
    let ship = t.bat("shipmode").unwrap();
    let qty = t.bat("qty").unwrap();

    g.throughput(Throughput::Elements(t.len() as u64));
    g.bench_function("str_eq_on_u8_codes", |b| {
        b.iter(|| select_eq_str(&mut NullTracker, black_box(ship), "MAIL").unwrap())
    });
    g.bench_function("range_on_i32", |b| {
        b.iter(|| range_select_i32(&mut NullTracker, black_box(qty), 10, 20).unwrap())
    });
    g.finish();
}

/// Sanity anchor: tiny-input joins against the oracle cost (also guards the
/// kernels against quadratic regressions sneaking into the fast paths).
fn bench_small_join_baseline(c: &mut Criterion) {
    let mut g = c.benchmark_group("small_join");
    let (l, r) = join_pair(1 << 10, 6);
    g.bench_function("nested_loop_1k", |b| {
        b.iter(|| nested_loop_join(&mut NullTracker, black_box(&l), black_box(&r)))
    });
    g.bench_function("phash_1k", |b| {
        let plan = Strategy::PhashMin.plan(l.len(), &profiles::origin2000());
        b.iter(|| {
            partitioned_hash_join(
                &mut NullTracker,
                FibHash,
                black_box(l.clone()),
                black_box(r.clone()),
                plan.bits,
                &plan.pass_bits,
            )
        })
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_scan_stride,
    bench_radix_cluster,
    bench_cluster_uneven_split,
    bench_joins,
    bench_parallel,
    bench_index_lookup,
    bench_tracker_overhead,
    bench_hashtable_radix_bits,
    bench_reconstruct_void_vs_hash,
    bench_select_encoded,
    bench_small_join_baseline,
);
criterion_main!(benches);
