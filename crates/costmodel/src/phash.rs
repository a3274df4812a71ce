//! The partitioned hash-join cost model `T_h(B, C)` — §3.4.3, Figure 11.
//!
//! ```text
//! T_h(B,C) = C·w_h + H·w'_h
//!          + M_L1,h·l_L2 + M_L2,h·l_Mem + M_TLB,h·l_TLB        (H = 2^B)
//!
//! M_Li,h(B,C)  = 3·|Re|_Li + / C · ‖Cl‖/‖Li‖             if ‖Cl‖ ≤ ‖Li‖
//!                            \ C · 10 · (1 − ‖Li‖/‖Cl‖)  if ‖Cl‖ > ‖Li‖
//! M_TLB,h(B,C) = 3·|Re|_Pg + / C · ‖Cl‖/‖TLB‖            if ‖Cl‖ ≤ ‖TLB‖
//!                            \ C · 10 · (1 − ‖TLB‖/‖Cl‖) if ‖Cl‖ > ‖TLB‖
//! ```
//!
//! with `‖Cl‖ = C·12/H` (inner cluster + hash table, §3.4.4's 12 bytes per
//! tuple). The factor 10 is the paper's own counting for the trash regime:
//! "with a bucket-chain length of 4, up to 8 memory accesses per tuple are
//! necessary while building the hash-table and doing the hash lookup, and
//! another two to access the actual tuple" ([`HASH_ACCESSES_PER_TUPLE`]).
//!
//! **Reconstruction note:** the extracted text prints the TLB trash factor
//! as `(1 − ‖Li‖/‖TLB‖)`, whose units cannot be right (it is constant in
//! `B`); we restore `(1 − ‖TLB‖/‖Cl‖)` by symmetry with the cache term.
//! The `H·w'_h` term *is* the paper's "fixed overhead by allocation of the
//! hash-table structure" that makes very fine clusterings lose (the upturn
//! at the right edge of Fig. 11, cluster size ≲ 200 tuples).

use crate::machine::{ModelCost, ModelMachine, JOIN_SEQ_STREAMS, PHASH_TUPLE_BYTES};

/// Build-side accesses per tuple of the hash join in the trash regime,
/// beyond the outer-stream accesses [`JOIN_SEQ_STREAMS`] models: the
/// paper's "up to 8 memory accesses per tuple … and another two to access
/// the actual tuple".
pub const HASH_ACCESSES_PER_TUPLE: f64 = 10.0;

/// Inner-cluster-plus-table size in bytes at `B` bits (`‖Cl‖`).
#[inline]
pub fn cluster_bytes(bits: u32, c: f64) -> f64 {
    c * PHASH_TUPLE_BYTES / (1u64 << bits) as f64
}

fn region_misses(accesses: f64, c: f64, cl_bytes: f64, region_bytes: f64) -> f64 {
    if cl_bytes <= region_bytes {
        c * cl_bytes / region_bytes
    } else {
        c * accesses * (1.0 - region_bytes / cl_bytes)
    }
}

/// Predicted cost of the partitioned hash-join *join phase* (clustering not
/// included — exactly what Figure 11 plots).
pub fn phash_cost(m: &ModelMachine, bits: u32, c: f64) -> ModelCost {
    let k = JOIN_SEQ_STREAMS;
    let acc = HASH_ACCESSES_PER_TUPLE;
    let h = (1u64 << bits) as f64;
    let cl = cluster_bytes(bits, c);

    let cpu = c * m.work.hash_tuple_ns + h * m.work.hash_cluster_ns;

    let l1 = k * m.rel_l1_lines(c) + region_misses(acc, c, cl, m.l1_bytes);
    let l2 = k * m.rel_l2_lines(c) + region_misses(acc, c, cl, m.l2_bytes);
    let tlb = k * m.rel_pages(c) + region_misses(acc, c, cl, m.tlb_span);
    ModelCost::assemble(cpu, l1, l2, tlb, &m.lat)
}

#[cfg(test)]
mod tests {
    use super::*;
    use memsim::profiles;

    fn origin() -> ModelMachine {
        ModelMachine::new(&profiles::origin2000())
    }

    #[test]
    fn performance_flattens_after_tlb_fit_and_bottoms_at_l1(/* Fig. 11 */) {
        let m = origin();
        let c = 8e6;
        // Strategy bit counts on the Origin2000 at 8M (see strategy tests).
        let t_l2 = phash_cost(&m, 5, c).total_ms();
        let t_tlb = phash_cost(&m, 7, c).total_ms();
        let t_l1 = phash_cost(&m, 12, c).total_ms();
        // "a significant improvement of the pure join performance between
        // phash L2 and phash TLB":
        assert!(t_tlb < 0.7 * t_l2, "L2 {t_l2} → TLB {t_tlb}");
        // "thereafter performance decreases only slightly until the inner
        // cluster fits the L1 cache":
        assert!(t_l1 < t_tlb);
        assert!(t_l1 > 0.3 * t_tlb, "the L1 step is modest: {t_tlb} → {t_l1}");
    }

    #[test]
    fn tiny_clusters_pay_allocation_overhead() {
        // Right edge of Fig. 11: beyond ~200-tuple clusters the H·w'_h term
        // turns the curve back up.
        let m = origin();
        let c = 1e6;
        let at_tuples = |t: f64| {
            let bits = (c / t).log2().ceil() as u32;
            phash_cost(&m, bits, c).total_ms()
        };
        let opt = at_tuples(200.0);
        let tiny = at_tuples(4.0);
        assert!(tiny > 1.5 * opt, "200-tuple {opt} ms vs 4-tuple {tiny} ms");
    }

    #[test]
    fn unpartitioned_case_is_the_simple_hash_baseline() {
        // B = 0 ⇒ one cluster of C·12 bytes: the model should show the
        // random-access catastrophe of Fig. 13's "simple hash" for large C.
        let m = origin();
        let small = phash_cost(&m, 0, 1_000.0); // 12 KB: fits everything
        let big = phash_cost(&m, 0, 8e6); // 96 MB: fits nothing
        let per_tuple_small = small.total_ns() / 1_000.0;
        let per_tuple_big = big.total_ns() / 8e6;
        assert!(per_tuple_big > 3.0 * per_tuple_small);
    }

    #[test]
    fn miss_model_continuous_at_cache_boundary() {
        let m = origin();
        let c = 1e6;
        let just_fits = region_misses(10.0, c, m.l1_bytes, m.l1_bytes);
        let just_over = region_misses(10.0, c, m.l1_bytes * 1.0001, m.l1_bytes);
        // Left branch gives C at the boundary; right branch starts at 0 and
        // ramps with factor 10 — the *measured* curves in Fig. 11 show the
        // same hinge. Check the right branch stays below the left value
        // until the factor catches up.
        assert!((just_fits - c).abs() < 1e-6);
        assert!(just_over < just_fits);
    }

    #[test]
    fn paper_scale_sanity_phash_at_8m() {
        // Fig. 11 bottom panel, 8M curve: minimum in the low-thousands of ms.
        let m = origin();
        let best = (0..=22).map(|b| phash_cost(&m, b, 8e6).total_ms()).fold(f64::MAX, f64::min);
        assert!((1_000.0..30_000.0).contains(&best), "best phash@8M = {best} ms");
    }

    #[test]
    fn optimal_cluster_size_is_near_200_tuples() {
        // §3.4.4: "partitioned hash-join performs best with cluster size of
        // approximately 200 tuples."
        let m = origin();
        let c = 4e6;
        let (mut best_bits, mut best) = (0, f64::MAX);
        for bits in 0..=22 {
            let t = phash_cost(&m, bits, c).total_ms();
            if t < best {
                best = t;
                best_bits = bits;
            }
        }
        let tuples = c / (1u64 << best_bits) as f64;
        assert!(
            (50.0..=1000.0).contains(&tuples),
            "optimum at {tuples} tuples/cluster (bits {best_bits})"
        );
    }
}
