//! Combined cluster+join costs, strategy evaluation, and model-driven plan
//! search — §3.4.4 and Figures 12–13.
//!
//! "Radix-cluster gets cheaper for less radix B bits, whereas both
//! radix-join and partitioned hash-join get more expensive. Putting together
//! the experimental data … we determine the optimum number of B for relation
//! cardinality and join-algorithm." [`best_plan`] performs exactly that
//! optimization over the *model* instead of experimental data, which is what
//! a query optimizer would ship.

use monet_core::strategy::{plan_passes, Algorithm, JoinPlan};

use crate::cluster::cluster_cost;
use crate::machine::{ModelCost, ModelMachine, JOIN_SEQ_STREAMS};
use crate::phash::phash_cost;
use crate::rjoin::rjoin_cost;

/// Cost of radix-clustering **both** operands on `pass_bits`.
pub fn both_cluster_cost(m: &ModelMachine, pass_bits: &[u32], c: f64) -> ModelCost {
    cluster_cost(m, pass_bits, c) + cluster_cost(m, pass_bits, c)
}

/// Total cost (cluster both + join) of a partitioned hash-join at `bits`.
pub fn phash_total(m: &ModelMachine, bits: u32, pass_bits: &[u32], c: f64) -> ModelCost {
    both_cluster_cost(m, pass_bits, c) + phash_cost(m, bits, c)
}

/// Total cost (cluster both + join) of a radix-join at `bits`.
pub fn radix_total(m: &ModelMachine, bits: u32, pass_bits: &[u32], c: f64) -> ModelCost {
    both_cluster_cost(m, pass_bits, c) + rjoin_cost(m, bits, c)
}

/// Simple (non-partitioned) hash join: no clustering, one table over C.
pub fn simple_hash_total(m: &ModelMachine, c: f64) -> ModelCost {
    phash_cost(m, 0, c)
}

/// Sort-merge join model (our extension — the paper plots it but gives no
/// formula): LSB radix-sort is four 8-bit scatter passes per relation with
/// the same access pattern as a cluster pass, followed by a sequential
/// 3-stream merge.
pub fn sort_merge_total(m: &ModelMachine, c: f64) -> ModelCost {
    let sort_one = cluster_cost(m, &[8, 8, 8, 8], c);
    let merge_cpu = 2.0 * c * m.work.merge_tuple_ns;
    let merge = ModelCost::assemble(
        merge_cpu,
        JOIN_SEQ_STREAMS * m.rel_l1_lines(c),
        JOIN_SEQ_STREAMS * m.rel_l2_lines(c),
        JOIN_SEQ_STREAMS * m.rel_pages(c),
        &m.lat,
    );
    sort_one + sort_one + merge
}

/// Evaluate a resolved [`JoinPlan`]'s total model cost.
pub fn plan_cost(m: &ModelMachine, plan: &JoinPlan, c: f64) -> ModelCost {
    match plan.algorithm {
        Algorithm::PartitionedHash => phash_total(m, plan.bits, &plan.pass_bits, c),
        Algorithm::Radix => radix_total(m, plan.bits, &plan.pass_bits, c),
        Algorithm::SimpleHash => simple_hash_total(m, c),
        Algorithm::SortMerge => sort_merge_total(m, c),
    }
}

/// The model-optimal plan: exhaustive search over algorithm and `B`
/// (with TLB-limited even pass splits), i.e. the "best" line of Figure 12.
pub fn best_plan(m: &ModelMachine, cfg: &memsim::MachineConfig, c: usize) -> (JoinPlan, ModelCost) {
    let cf = c as f64;
    let max_bits = (cf.log2().ceil() as u32).min(26);
    let mut best: Option<(JoinPlan, ModelCost)> = None;
    let mut consider = |plan: JoinPlan, cost: ModelCost| {
        if best.as_ref().is_none_or(|(_, b)| cost.total_ns() < b.total_ns()) {
            best = Some((plan, cost));
        }
    };

    consider(
        JoinPlan { algorithm: Algorithm::SimpleHash, bits: 0, pass_bits: vec![] },
        simple_hash_total(m, cf),
    );
    consider(
        JoinPlan { algorithm: Algorithm::SortMerge, bits: 0, pass_bits: vec![] },
        sort_merge_total(m, cf),
    );
    for bits in 1..=max_bits {
        let passes = plan_passes(bits, cfg.tlb.entries);
        consider(
            JoinPlan { algorithm: Algorithm::PartitionedHash, bits, pass_bits: passes.clone() },
            phash_total(m, bits, &passes, cf),
        );
        consider(
            JoinPlan { algorithm: Algorithm::Radix, bits, pass_bits: passes.clone() },
            radix_total(m, bits, &passes, cf),
        );
    }
    best.expect("at least the baselines were considered")
}

/// Executor-facing planner entry point: the model-optimal plan for joining
/// two relations of `cardinality` tuples each on machine `cfg`.
///
/// This is the seam `engine::physical` calls so that physical join choice
/// lives in the cost model rather than at call sites; the chosen plan then
/// travels with the join and is priced as it stands
/// ([`crate::quote::OpShape::Join`]). It runs the exhaustive [`best_plan`]
/// search over `cfg`'s [`ModelMachine`].
pub fn plan_join(cfg: &memsim::MachineConfig, cardinality: usize) -> (JoinPlan, ModelCost) {
    let m = ModelMachine::new(cfg);
    best_plan(&m, cfg, cardinality.max(1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use memsim::profiles;
    use monet_core::strategy::Strategy;

    fn setup() -> (ModelMachine, memsim::MachineConfig) {
        let cfg = profiles::origin2000();
        (ModelMachine::new(&cfg), cfg)
    }

    #[test]
    fn cache_conscious_beats_random_access_at_scale() {
        // Figure 13's headline: for every large cardinality, the radix
        // strategies beat simple hash and sort-merge.
        let (m, cfg) = setup();
        for c in [250_000usize, 1_000_000, 8_000_000] {
            let simple = simple_hash_total(&m, c as f64).total_ms();
            let smerge = sort_merge_total(&m, c as f64).total_ms();
            let pmin = plan_cost(&m, &Strategy::PhashMin.plan(c, &cfg), c as f64).total_ms();
            assert!(
                pmin < simple && pmin < smerge,
                "C={c}: phash min {pmin} vs simple {simple} / sort-merge {smerge}"
            );
        }
    }

    #[test]
    fn tiny_relations_need_no_partitioning() {
        // Left edge of Fig. 13: when everything fits in cache, simple hash
        // is at least as good as partitioning (clustering is pure overhead).
        let (m, cfg) = setup();
        let c = 2_000; // 24 KB inner + table: fits L1
        let simple = simple_hash_total(&m, c as f64).total_ms();
        let pl1 = plan_cost(&m, &Strategy::PhashL1.plan(c, &cfg), c as f64);
        assert!(simple <= pl1.total_ms() * 1.05);
        let (best, _) = best_plan(&m, &cfg, c);
        assert_eq!(best.algorithm, Algorithm::SimpleHash);
    }

    #[test]
    fn strategy_ordering_matches_figure12() {
        // At 8M tuples: phash TLB < phash L2 (the paper stresses the TLB
        // improvement over [SKN94]); phash min is the per-algorithm best.
        let (m, cfg) = setup();
        let c = 8_000_000;
        let t = |s: Strategy| plan_cost(&m, &s.plan(c, &cfg), c as f64).total_ms();
        assert!(t(Strategy::PhashTlb) < t(Strategy::PhashL2));
        assert!(t(Strategy::PhashMin) <= t(Strategy::PhashTlb));
        // The paper's measured data puts phash min marginally below phash
        // L1; the model prices the extra clustering pass slightly higher.
        // Same ballpark is what we assert.
        assert!(t(Strategy::PhashMin) <= t(Strategy::PhashL1) * 1.6);
        assert!(t(Strategy::RadixMin) <= t(Strategy::Radix8) * 1.05);
    }

    #[test]
    fn best_plan_picks_partitioned_variants_at_scale() {
        let (m, cfg) = setup();
        for c in [1_000_000usize, 8_000_000] {
            let (plan, cost) = best_plan(&m, &cfg, c);
            assert!(
                matches!(plan.algorithm, Algorithm::PartitionedHash | Algorithm::Radix),
                "C={c} picked {:?}",
                plan.algorithm
            );
            assert!(plan.bits > 0);
            // The chosen plan can't be worse than any named strategy.
            for s in Strategy::ALL {
                assert!(
                    cost.total_ns()
                        <= plan_cost(&m, &s.plan(c, &cfg), c as f64).total_ns() * 1.0001,
                    "best worse than {} at C={c}",
                    s.name()
                );
            }
        }
    }

    #[test]
    fn best_plan_respects_tlb_pass_limit() {
        let (m, cfg) = setup();
        let (plan, _) = best_plan(&m, &cfg, 8_000_000);
        for &bp in &plan.pass_bits {
            assert!(bp <= 6, "pass of {bp} bits exceeds the 64-entry TLB limit");
        }
        assert_eq!(plan.pass_bits.iter().sum::<u32>(), plan.bits);
    }

    #[test]
    fn plan_join_matches_best_plan_and_tolerates_degenerate_input() {
        let (m, cfg) = setup();
        for c in [1usize, 1_000, 1_000_000] {
            let (plan, cost) = plan_join(&cfg, c);
            let (expect, expect_cost) = best_plan(&m, &cfg, c.max(1));
            assert_eq!(plan, expect, "C={c}");
            assert!((cost.total_ns() - expect_cost.total_ns()).abs() < 1e-9);
        }
    }

    #[test]
    fn totals_decompose() {
        let (m, _) = setup();
        let c = 1e6;
        let passes = [5u32, 5];
        let total = phash_total(&m, 10, &passes, c);
        let parts = both_cluster_cost(&m, &passes, c) + phash_cost(&m, 10, c);
        assert!((total.total_ns() - parts.total_ns()).abs() < 1e-6);
    }
}
