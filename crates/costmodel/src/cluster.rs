//! The radix-cluster cost model `T_c(P, B, C)` — §3.4.2, Figure 9.
//!
//! Per pass with `H_p = 2^{B_p}` clusters:
//!
//! ```text
//! M_Li,c(B_p, C)  = k·|Re|_Li + / C · H_p/|Li|              if H_p ≤ |Li|
//!                               \ C · (1 + log2(H_p/|Li|))  if H_p > |Li|
//! M_TLB,c(B_p, C) = k·|Re|_Pg + / |Re|_Pg · H_p/|TLB|       if H_p ≤ |TLB|
//!                               \ C · (1 − |TLB|/H_p)       if H_p > |TLB|
//! T_c(P, B, C)    = Σ_p [ C·w_c + M_L1,c·l_L2 + M_L2,c·l_Mem + M_TLB,c·l_TLB ]
//! ```
//!
//! where `k` is the sequential-stream count ([`CLUSTER_SEQ_STREAMS`]: 2 in
//! the paper, 3 for this repository's histogram-re-reading implementation).
//!
//! **Reconstruction notes** (PDF garbling): the branch conditions are
//! restored so both cache branches meet at `C` when `H_p = |Li|` and both
//! TLB branches meet at `|Re|_Pg` when `H_p = |TLB|` — continuous and
//! monotone, matching the measured curves' shape in Fig. 9. The log term
//! models cascaded conflict evictions under cache trashing. The term the
//! paper omits for space — "a second more moderate increase in TLB misses …
//! when the number of clusters exceeds the number of L2 cache lines" — is
//! implemented in [`tlb_l2_interaction`] with the same `1 − lines/H_p`
//! shape and added to every pass's TLB misses.

use crate::machine::{ModelCost, ModelMachine};

/// Sequential streams per cluster pass. The paper charges `2·|Re|`: read
/// the input and write the output, because Monet builds the histogram in
/// the previous pass. This repository's radix-cluster re-reads its input
/// for the histogram, so the model charges 3.
pub const CLUSTER_SEQ_STREAMS: f64 = 3.0;

/// Cache-miss count for one pass at one cache level, parameterized by the
/// level's line count. See module docs.
fn cache_misses(seq_streams: f64, rel_lines: f64, c: f64, hp: f64, lines: f64) -> f64 {
    let base = seq_streams * rel_lines;
    let extra = if hp <= lines { c * hp / lines } else { c * (1.0 + (hp / lines).log2()) };
    base + extra
}

/// TLB-miss count for one pass. See module docs.
fn tlb_misses(seq_streams: f64, rel_pages: f64, c: f64, hp: f64, tlb_entries: f64) -> f64 {
    let base = seq_streams * rel_pages;
    let extra =
        if hp <= tlb_entries { rel_pages * hp / tlb_entries } else { c * (1.0 - tlb_entries / hp) };
    base + extra
}

/// The paper's omitted-for-space refinement: when `H_p` exceeds the number
/// of L2 lines, L2 evictions start taking page translations with them,
/// adding a "second, more moderate" TLB ramp.
pub fn tlb_l2_interaction(m: &ModelMachine, c: f64, hp: f64) -> f64 {
    if hp > m.l2_lines {
        c * (1.0 - m.l2_lines / hp)
    } else {
        0.0
    }
}

/// Predicted cost of ONE clustering pass on `B_p` bits over `C` tuples.
pub fn cluster_pass_cost(m: &ModelMachine, pass_bits: u32, c: f64) -> ModelCost {
    let hp = (1u64 << pass_bits) as f64;
    let k = CLUSTER_SEQ_STREAMS;
    let l1 = cache_misses(k, m.rel_l1_lines(c), c, hp, m.l1_lines);
    let l2 = cache_misses(k, m.rel_l2_lines(c), c, hp, m.l2_lines);
    let tlb = tlb_misses(k, m.rel_pages(c), c, hp, m.tlb_entries) + tlb_l2_interaction(m, c, hp);
    ModelCost::assemble(c * m.work.cluster_tuple_ns, l1, l2, tlb, &m.lat)
}

/// Predicted total cost `T_c` of a multi-pass radix-cluster with the given
/// per-pass bit counts (use `monet_core::strategy::plan_passes` for the
/// paper's even split).
pub fn cluster_cost(m: &ModelMachine, pass_bits: &[u32], c: f64) -> ModelCost {
    pass_bits.iter().map(|&bp| cluster_pass_cost(m, bp, c)).sum()
}

/// Convenience: `T_c(P, B, C)` with `B` bits split evenly over `P` passes
/// (exactly the parameterization of Figure 9's four curves).
pub fn cluster_cost_even(m: &ModelMachine, passes: u32, bits: u32, c: f64) -> ModelCost {
    assert!(passes > 0, "at least one pass");
    assert!(bits >= passes, "cannot split {bits} bits over {passes} passes");
    let base = bits / passes;
    let extra = bits % passes;
    let pass_bits: Vec<u32> =
        (0..passes).map(|p| if p < extra { base + 1 } else { base }).collect();
    cluster_cost(m, &pass_bits, c)
}

#[cfg(test)]
mod tests {
    use super::*;
    use memsim::profiles;

    fn origin() -> ModelMachine {
        ModelMachine::new(&profiles::origin2000())
    }

    #[test]
    fn branches_are_continuous_at_boundaries() {
        let m = origin();
        let c = 1e6;
        // Cache branch boundary: hp = lines.
        let below = cache_misses(2.0, m.rel_l1_lines(c), c, m.l1_lines - 1e-9, m.l1_lines);
        let above = cache_misses(2.0, m.rel_l1_lines(c), c, m.l1_lines + 1e-9, m.l1_lines);
        assert!((below - above).abs() < 1.0);
        // TLB branch boundary: hp = entries ⇒ |Re|_Pg extra on the left,
        // C·(1-1) = wait — left gives |Re|_Pg, right gives 0 at the exact
        // boundary; the curves cross rather than coincide, but both are tiny
        // relative to C. Check the jump is < |Re|_Pg.
        let bl = tlb_misses(2.0, m.rel_pages(c), c, 64.0, 64.0);
        let br = tlb_misses(2.0, m.rel_pages(c), c, 64.0 + 1e-9, 64.0);
        assert!((bl - br).abs() <= m.rel_pages(c) + 1.0);
    }

    #[test]
    fn tlb_explosion_beyond_64_clusters() {
        // Fig. 9's driving effect: at C = 8M, going from 6 to 10 bits in one
        // pass must blow up TLB misses by orders of magnitude.
        let m = origin();
        let c = 8e6;
        let at = |bits: u32| cluster_pass_cost(&m, bits, c).tlb_misses;
        assert!(at(10) > 50.0 * at(6), "6 bits: {}, 10 bits: {}", at(6), at(10));
        // And it saturates near C.
        assert!(at(20) < 2.5 * c);
    }

    #[test]
    fn multi_pass_beats_single_pass_beyond_tlb_limit() {
        // The Figure 9 crossover: beyond 6 bits, 2 passes beat 1; beyond 12,
        // 3 beat 2; beyond 18, 4 beat 3 (at 8M tuples).
        let m = origin();
        let c = 8e6;
        let t = |p: u32, b: u32| cluster_cost_even(&m, p, b, c).total_ms();
        assert!(t(1, 5) < t(2, 5), "below the limit one pass wins");
        assert!(t(2, 8) < t(1, 8), "beyond 6 bits two passes win");
        assert!(t(3, 14) < t(2, 14), "beyond 12 bits three passes win");
        assert!(t(4, 20) < t(3, 20), "beyond 18 bits four passes win");
    }

    #[test]
    fn best_case_time_increases_with_bits() {
        // Fig. 9: "the best-case execution time increases with the number of
        // bits used" — more bits ⇒ more passes ⇒ more sequential sweeps.
        let m = origin();
        let c = 8e6;
        let best = |b: u32| {
            (1..=4)
                .map(|p| cluster_cost_even(&m, p, b.max(p), c).total_ms())
                .fold(f64::MAX, f64::min)
        };
        assert!(best(6) < best(12));
        assert!(best(12) < best(18));
        assert!(best(18) < best(24));
    }

    #[test]
    fn cost_scales_linearly_with_cardinality_in_seq_regime() {
        let m = origin();
        let a = cluster_pass_cost(&m, 4, 1e6).total_ns();
        let b = cluster_pass_cost(&m, 4, 8e6).total_ns();
        let ratio = b / a;
        assert!((7.0..=9.0).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn seq_streams_charge_three_relation_sweeps() {
        // 16 clusters fit in L1, so a pass's L1 misses are its
        // sequential streams plus the scatter term C·H_p/|L1|.
        let m = origin();
        let c = 1e6;
        let hp = 16.0;
        let scatter = c * hp / m.l1_lines;
        let l1 = cluster_pass_cost(&m, 4, c).l1_misses;
        assert!((l1 - scatter - CLUSTER_SEQ_STREAMS * m.rel_l1_lines(c)).abs() < 1.0);
        assert_eq!(CLUSTER_SEQ_STREAMS, 3.0, "input, histogram re-read, output");
    }

    #[test]
    fn tlb_l2_interaction_kicks_in_above_l2_lines() {
        let m = origin();
        let c = 8e6;
        assert_eq!(tlb_l2_interaction(&m, c, 32768.0), 0.0);
        assert!(tlb_l2_interaction(&m, c, 2.0 * 32768.0) > 0.0);
    }

    #[test]
    #[should_panic(expected = "cannot split")]
    fn even_split_rejects_more_passes_than_bits() {
        cluster_cost_even(&origin(), 4, 3, 1e6);
    }
}
