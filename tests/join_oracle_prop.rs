//! Property tests: every join algorithm agrees with the nested-loop oracle
//! on adversarial inputs, and radix clustering preserves its invariants.

use proptest::prelude::*;

use monet_mem::core::join::{
    canonicalize, cluster_bounds_from_data, nested_loop_join, partitioned_hash_join, radix_cluster,
    radix_join, simple_hash_join, sort_merge_join, sort_pairs, Bun, FibHash, IdentityHash,
    MurmurHash,
};
use monet_mem::core::storage::{Bat, Column};
use monet_mem::core::strategy::{plan_passes, Algorithm, JoinPlan};
use monet_mem::engine::join::par_join_bats_with_plan;
use monet_mem::memsim::NullTracker;

/// Tuples with deliberately collision-heavy keys (range 0..64) so duplicate
/// cross products and empty clusters are exercised constantly.
fn buns(max_len: usize) -> impl Strategy<Value = Vec<Bun>> {
    prop::collection::vec(0u32..64, 0..max_len)
        .prop_map(|keys| keys.into_iter().enumerate().map(|(i, k)| Bun::new(i as u32, k)).collect())
}

/// Tuples with full-range keys (mostly unique).
fn wide_buns(max_len: usize) -> impl Strategy<Value = Vec<Bun>> {
    prop::collection::vec(any::<u32>(), 0..max_len)
        .prop_map(|keys| keys.into_iter().enumerate().map(|(i, k)| Bun::new(i as u32, k)).collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn all_algorithms_match_oracle(l in buns(80), r in buns(80), bits in 0u32..8) {
        let oracle = sort_pairs(nested_loop_join(&mut NullTracker, &l, &r));
        let passes: Vec<u32> = if bits == 0 { vec![] } else { plan_passes(bits, 64) };

        let ph = sort_pairs(partitioned_hash_join(
            &mut NullTracker, FibHash, l.clone(), r.clone(), bits, &passes));
        prop_assert_eq!(&ph, &oracle);

        let rj = sort_pairs(radix_join(
            &mut NullTracker, FibHash, l.clone(), r.clone(), bits, &passes));
        prop_assert_eq!(&rj, &oracle);

        let sh = sort_pairs(simple_hash_join(&mut NullTracker, FibHash, &l, &r));
        prop_assert_eq!(&sh, &oracle);

        let sm = sort_pairs(sort_merge_join(&mut NullTracker, l.clone(), r.clone()));
        prop_assert_eq!(&sm, &oracle);
    }

    #[test]
    fn canonicalize_equals_sort_pairs_on_every_join_output(
        l in prop::collection::vec(0i32..16, 0..120),
        r in prop::collection::vec(0i32..16, 0..60),
        lbase in 0u32..1_000_000,
    ) {
        // Duplicate-heavy keys: every left meets several rights, so the
        // equal-left runs the radix pass leaves behind need their own order.
        let (lb, rb) = (Bat::with_void_head(lbase, Column::I32(l)), Bat::with_void_head(7, Column::I32(r)));
        for algorithm in [
            Algorithm::PartitionedHash,
            Algorithm::Radix,
            Algorithm::SimpleHash,
            Algorithm::SortMerge,
        ] {
            for bits in [0u32, 1, 4, 8] {
                let pass_bits = if bits == 0 { vec![] } else { plan_passes(bits, 64) };
                let plan = JoinPlan { algorithm, bits, pass_bits };
                for threads in [1usize, 2, 3, 7] {
                    let out = par_join_bats_with_plan(&lb, &rb, &plan, threads).unwrap();
                    prop_assert_eq!(
                        canonicalize(&mut NullTracker, out.clone()),
                        sort_pairs(out),
                        "{:?} threads={}", plan, threads
                    );
                }
            }
        }
    }

    #[test]
    fn joins_agree_across_hash_functions(l in wide_buns(100), r in wide_buns(100)) {
        let a = sort_pairs(partitioned_hash_join(
            &mut NullTracker, FibHash, l.clone(), r.clone(), 4, &[4]));
        let b = sort_pairs(partitioned_hash_join(
            &mut NullTracker, MurmurHash, l.clone(), r.clone(), 4, &[2, 2]));
        let c = sort_pairs(partitioned_hash_join(
            &mut NullTracker, IdentityHash, l.clone(), r.clone(), 6, &[3, 3]));
        prop_assert_eq!(&a, &b);
        prop_assert_eq!(&a, &c);
    }

    #[test]
    fn cluster_is_a_radix_ordered_permutation(input in wide_buns(300), bits in 0u32..10) {
        let passes: Vec<u32> = if bits == 0 { vec![] } else { plan_passes(bits, 64) };
        let clustered = radix_cluster(&mut NullTracker, FibHash, input.clone(), bits, &passes);

        // Permutation: same multiset of tuples.
        let mut a = input.clone();
        let mut b = clustered.data.clone();
        a.sort_unstable_by_key(|t| (t.tail, t.head));
        b.sort_unstable_by_key(|t| (t.tail, t.head));
        prop_assert_eq!(a, b);

        // Radix order + consistent bounds.
        prop_assert!(clustered.verify(FibHash));
        if bits > 0 {
            prop_assert_eq!(
                &clustered.bounds,
                &cluster_bounds_from_data(&clustered.data, FibHash, bits)
            );
        }
    }

    #[test]
    fn pass_layout_never_changes_the_result(input in wide_buns(300), bits in 2u32..9) {
        let one = radix_cluster(&mut NullTracker, FibHash, input.clone(), bits, &[bits]);
        // Any valid split of the same bits yields the identical clustering.
        let halves = vec![bits / 2, bits - bits / 2];
        let two = radix_cluster(&mut NullTracker, FibHash, input.clone(), bits, &halves);
        prop_assert_eq!(&one.data, &two.data);
        prop_assert_eq!(&one.bounds, &two.bounds);
        if bits >= 3 {
            let thirds = vec![bits - 2, 1, 1];
            let three = radix_cluster(&mut NullTracker, FibHash, input, bits, &thirds);
            prop_assert_eq!(&one.data, &three.data);
        }
    }

    #[test]
    fn join_result_size_bounds(l in buns(60), r in buns(60)) {
        // |result| ≤ |L|·|R|, and joining with self yields ≥ |L| pairs.
        let pairs = simple_hash_join(&mut NullTracker, FibHash, &l, &r);
        prop_assert!(pairs.len() <= l.len() * r.len());
        let self_pairs = simple_hash_join(&mut NullTracker, FibHash, &l, &l);
        prop_assert!(self_pairs.len() >= l.len());
    }

    #[test]
    fn hit_rate_one_workload_yields_exactly_n(n in 1usize..2000) {
        let (l, r) = monet_mem::workload::join_pair(n, 7);
        let pairs = partitioned_hash_join(&mut NullTracker, FibHash, l, r, 3, &[3]);
        prop_assert_eq!(pairs.len(), n);
    }
}
