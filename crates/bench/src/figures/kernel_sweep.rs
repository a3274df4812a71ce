//! **Join kernel sweep** (`repro kernel_sweep`) — native time of the
//! cluster-pair join.
//!
//! The paper sizes partitioned hash-join clusters so that the inner cluster
//! and its table stay in cache (§3.4.3–3.4.4); what is left of the probe is
//! then CPU work. This harness measures that work on the host: it runs
//! `monet_core::join::join` with the chained-hash kernel over radix bits
//! `B ∈ {0, 4, 6, 8, 12}` (`B = 0` is simple hash), inner relations of
//! 1 K, 64 K and 500 K rows, and three match shapes — every outer tuple
//! matching once, half of them matching once, and every one matching four
//! inner tuples (an M:N join) — and prints the best wall-clock time per
//! outer tuple on one thread, of the whole join and of its cluster-pair
//! phase alone ([`join_clustered`] on inputs clustered beforehand).
//!
//! Every run is checked: its pair count is the shape's, the phase emits the
//! join's index, the sorted index equals every other `B`'s, and on the
//! first outer tuples it equals [`nested_loop_join`] after [`sort_pairs`]
//! (the full nested loop is `O(n·m)`).

use std::time::Instant;

use memsim::NullTracker;
use monet_core::join::{
    join, join_clustered, nested_loop_join, radix_cluster, sort_pairs, Bun, FibHash, OidPair,
};
use monet_core::strategy::{plan_passes, Algorithm, JoinPlan};
use workload::{shuffle, unique_random_keys};

use crate::report::{fmt_card, fmt_ms, TextTable};
use crate::runner::{RunOpts, Scale};

/// Radix bits swept; 0 is simple hash.
const BITS: [u32; 5] = [0, 4, 6, 8, 12];

/// Inner relation sizes swept.
const INNER_ROWS: [usize; 3] = [1_000, 64_000, 500_000];

/// Outer tuples checked against the nested-loop oracle.
const ORACLE_ROWS: usize = 256;

/// How the outer relation's keys meet the inner relation's.
#[derive(Debug, Clone, Copy)]
enum Shape {
    /// Every outer tuple matches exactly one inner tuple.
    Hit,
    /// Every other outer tuple matches one inner tuple, the rest none.
    HalfHit,
    /// Every key occurs four times in the inner relation, so every outer
    /// tuple matches four inner tuples.
    ManyToMany,
}

impl Shape {
    const ALL: [Shape; 3] = [Shape::Hit, Shape::HalfHit, Shape::ManyToMany];

    fn label(self) -> &'static str {
        match self {
            Shape::Hit => "1",
            Shape::HalfHit => "1/2",
            Shape::ManyToMany => "4x M:N",
        }
    }

    /// Inner tuples per distinct inner key.
    fn dup(self) -> usize {
        match self {
            Shape::ManyToMany => 4,
            _ => 1,
        }
    }

    /// The `(outer, inner)` relations, heads dense, and the pair count
    /// their join must produce.
    fn relations(self, outer: usize, inner: usize, seed: u64) -> (Vec<Bun>, Vec<Bun>, usize) {
        let distinct = inner / self.dup();
        // The first `distinct` keys are the inner relation's, the rest
        // match nothing.
        let keys = unique_random_keys(2 * distinct, seed);
        let (hits, misses) = keys.split_at(distinct);
        let mut inner_keys: Vec<u32> =
            hits.iter().flat_map(|&k| std::iter::repeat_n(k, self.dup())).collect();
        let mut outer_keys: Vec<u32> = (0..outer)
            .map(|i| match self {
                Shape::HalfHit if i % 2 == 1 => misses[i / 2 % distinct],
                Shape::HalfHit => hits[i / 2 % distinct],
                _ => hits[i % distinct],
            })
            .collect();
        shuffle(&mut inner_keys, seed ^ 1);
        shuffle(&mut outer_keys, seed ^ 2);
        let buns = |keys: Vec<u32>| -> Vec<Bun> {
            keys.into_iter().enumerate().map(|(i, k)| Bun::new(i as u32, k)).collect()
        };
        let pairs = match self {
            Shape::Hit => outer,
            Shape::HalfHit => outer.div_ceil(2),
            Shape::ManyToMany => 4 * outer,
        };
        (buns(outer_keys), buns(inner_keys), pairs)
    }
}

/// Run the kernel sweep.
pub fn run(opts: &RunOpts) {
    let (outer, reps) = match opts.scale {
        Scale::Quick => (50_000, 3),
        Scale::Default => (500_000, 9),
        Scale::Full => (2_000_000, 9),
    };
    let mut t = TextTable::new(
        format!("chained-hash join kernel, {} outer tuples, one thread (native)", fmt_card(outer)),
        &["inner", "hit rate", "B", "pairs", "join ms", "ns/outer", "pair phase ns/outer"],
    );
    for &inner in &INNER_ROWS {
        for shape in Shape::ALL {
            let (l, r, expect) = shape.relations(outer, inner, opts.seed);
            let mut reference: Option<Vec<OidPair>> = None;
            for &bits in &BITS {
                let plan = JoinPlan {
                    algorithm: Algorithm::PartitionedHash,
                    bits,
                    pass_bits: plan_passes(bits, 64),
                };
                let (mut best, mut best_phase) = (f64::INFINITY, f64::INFINITY);
                let mut pairs = Vec::new();
                for _ in 0..reps {
                    let (l, r) = (l.clone(), r.clone());
                    let start = Instant::now();
                    pairs = join(&mut NullTracker, FibHash, l, r, &plan, 1).0;
                    best = best.min(start.elapsed().as_secs_f64() * 1e3);
                }
                let cluster = |rel: &[Bun]| {
                    radix_cluster(&mut NullTracker, FibHash, rel.to_vec(), bits, &plan.pass_bits)
                };
                let (lc, rc) = (cluster(&l), cluster(&r));
                for _ in 0..reps {
                    let start = Instant::now();
                    let phase = join_clustered(&mut NullTracker, FibHash, &lc, &rc);
                    best_phase = best_phase.min(start.elapsed().as_secs_f64() * 1e3);
                    assert!(phase == pairs, "inner={inner} B={bits}: phase differs from join");
                }
                let at = format!("inner={inner} hit={} B={bits}", shape.label());
                assert_eq!(pairs.len(), expect, "{at}: pair count");
                let sorted = sort_pairs(pairs);
                match &reference {
                    Some(reference) => assert!(sorted == *reference, "{at}: differs from B=0"),
                    None => {
                        let checked = ORACLE_ROWS.min(outer);
                        let oracle =
                            sort_pairs(nested_loop_join(&mut NullTracker, &l[..checked], &r));
                        let head = sorted.partition_point(|p| (p.left as usize) < checked);
                        assert!(sorted[..head] == oracle[..], "{at}: differs from nested loop");
                        reference = Some(sorted);
                    }
                }
                t.row(vec![
                    fmt_card(inner),
                    shape.label().to_string(),
                    bits.to_string(),
                    fmt_card(expect),
                    fmt_ms(best),
                    format!("{:.1}", best * 1e6 / outer as f64),
                    format!("{:.1}", best_phase * 1e6 / outer as f64),
                ]);
            }
        }
    }
    super::emit(opts, &t);
    println!(
        "\nEvery join index equals every other B's after sort_pairs, and the \
         nested-loop oracle's on the first {ORACLE_ROWS} outer tuples. `join ms` \
         covers clustering both sides and the cluster-pair phase.\n"
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shapes_produce_their_pair_counts() {
        for shape in Shape::ALL {
            let (l, r, expect) = shape.relations(1000, 200, 7);
            assert_eq!(r.len(), 200);
            assert_eq!(nested_loop_join(&mut NullTracker, &l, &r).len(), expect, "{shape:?}");
        }
    }
}
