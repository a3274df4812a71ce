//! The radix-join cost model `T_r(B, C)` — §3.4.3, Figure 10.
//!
//! ```text
//! T_r(B,C) = C·(C/H)·w_r + C·w'_r
//!          + M_L1,r·l_L2 + M_L2,r·l_Mem + M_TLB,r·l_TLB      (H = 2^B)
//!
//! M_Li,r(B,C)  = 3·|Re|_Li + C · / |Cl|_Li / |Li|   if |Cl|_Li ≤ |Li|
//!                                \ |Cl|_Li          if |Cl|_Li > |Li|
//! M_TLB,r(B,C) = 3·|Re|_Pg + C · ‖Cl‖/‖TLB‖
//! ```
//!
//! The first term is the nested-loop predicate evaluation: every outer tuple
//! scans its whole (mean `C/H`-tuple) inner cluster. The `C·|Cl|_Li` branch
//! is cache trashing — clusters larger than the cache make every inner line
//! a miss for every outer tuple, which is Fig. 10's "clustersize < L1size"
//! diagonal. For simplicity (following the paper) both operands and the
//! result are assumed to have cardinality `C`.

use crate::machine::{ModelCost, ModelMachine, BUN_BYTES, JOIN_SEQ_STREAMS};

/// Mean tuples per cluster at `B` bits.
#[inline]
pub fn cluster_tuples(bits: u32, c: f64) -> f64 {
    c / (1u64 << bits) as f64
}

fn cache_misses(join_streams: f64, rel_lines: f64, c: f64, cl_lines: f64, lines: f64) -> f64 {
    let base = join_streams * rel_lines;
    let extra = if cl_lines <= lines { c * cl_lines / lines } else { c * cl_lines };
    base + extra
}

/// Predicted cost of the radix-join *join phase* (clustering not included —
/// exactly what Figure 10 plots).
pub fn rjoin_cost(m: &ModelMachine, bits: u32, c: f64) -> ModelCost {
    let k = JOIN_SEQ_STREAMS;
    let cl_tuples = cluster_tuples(bits, c);
    let cl_bytes = cl_tuples * BUN_BYTES;

    let cpu = c * cl_tuples * m.work.radix_compare_ns + c * m.work.radix_result_ns;

    let l1 = cache_misses(k, m.rel_l1_lines(c), c, cl_bytes / m.l1_line, m.l1_lines);
    let l2 = cache_misses(k, m.rel_l2_lines(c), c, cl_bytes / m.l2_line, m.l2_lines);
    let tlb = k * m.rel_pages(c) + c * (cl_bytes / m.tlb_span);
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
    fn more_bits_always_cheaper_join_phase() {
        // Fig. 10: "the performance of radix-join improves with increasing
        // number of radix-bits" all the way to 1-tuple clusters.
        let m = origin();
        let c = 1e6;
        let mut prev = f64::MAX;
        for bits in 4..=20 {
            let t = rjoin_cost(&m, bits, c).total_ms();
            assert!(t < prev, "bits {bits}: {t} !< {prev}");
            prev = t;
        }
    }

    #[test]
    fn nested_loop_work_dominates_at_low_bits() {
        // At B with C/H = 1000 tuples/cluster, predicate work is ~1000·w_r
        // per tuple — quadratic blowup the model must show.
        let m = origin();
        let c = 1e6;
        let coarse = rjoin_cost(&m, 10, c); // 1024 clusters of ~977 tuples
        let fine = rjoin_cost(&m, 17, c); // ~8 tuples
        assert!(coarse.cpu_ns > 50.0 * fine.cpu_ns);
    }

    #[test]
    fn l1_misses_explode_when_clusters_exceed_l1() {
        // Fig. 10 top panel: the miss count has a knee at
        // clustersize = L1 size (32 KB = 4096 tuples ⇒ B = log2(C) - 12).
        let m = origin();
        let c = 8e6;
        let small = rjoin_cost(&m, 13, c).l1_misses; // ~977-tuple clusters (fit)
        let large = rjoin_cost(&m, 9, c).l1_misses; // ~15625-tuple clusters (trash)
        assert!(large > 100.0 * small, "large {large} vs small {small}");
    }

    #[test]
    fn result_creation_term_is_linear_in_c() {
        let m = origin();
        let at_8 = |c: f64| {
            // 8-tuple clusters at any C: B = log2(C/8).
            let bits = (c / 8.0).log2().round() as u32;
            rjoin_cost(&m, bits, c)
        };
        let a = at_8((1 << 17) as f64).cpu_ns;
        let b = at_8((1 << 20) as f64).cpu_ns;
        let ratio = b / a;
        assert!((7.5..=8.5).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn paper_scale_sanity_radix8_at_8m() {
        // radix 8 at C = 8M (B = 20): the join phase alone should land in
        // the single-digit-seconds regime the bottom of Fig. 10 shows
        // (≈ 2-6 × 10^3 ms for 8M).
        let m = origin();
        let t = rjoin_cost(&m, 20, 8e6).total_ms();
        assert!((500.0..20_000.0).contains(&t), "radix8@8M = {t} ms");
    }
}
