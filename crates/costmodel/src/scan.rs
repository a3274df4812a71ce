//! The §2 stride-scan model behind Figure 3:
//!
//! ```text
//! T(s) = T_CPU + T_L2(s) + T_Mem(s)
//! T_L2(s)  = M_L1(s)·l_L2,  M_L1(s) = min(s / LS_L1, 1)
//! T_Mem(s) = M_L2(s)·l_Mem, M_L2(s) = min(s / LS_L2, 1)
//! ```
//!
//! per iteration. We add the (for the paper's strides negligible) TLB term
//! `min(s/‖Pg‖, 1)·l_TLB` so that the model tracks the simulator exactly at
//! page-sized strides too.

use crate::machine::{ModelCost, ModelMachine};

/// Predicted misses per iteration at stride `s`.
pub fn misses_per_iter(m: &ModelMachine, stride: usize) -> (f64, f64, f64) {
    let s = stride as f64;
    let l1 = (s / m.l1_line).min(1.0);
    let l2 = (s / m.l2_line).min(1.0);
    let tlb = (s / m.page).min(1.0);
    (l1, l2, tlb)
}

/// Predicted cost of `iters` scan iterations at stride `s`.
pub fn scan_cost(m: &ModelMachine, iters: usize, stride: usize) -> ModelCost {
    let n = iters as f64;
    let (l1, l2, tlb) = misses_per_iter(m, stride);
    ModelCost::assemble(n * m.work.scan_iter_ns, n * l1, n * l2, n * tlb, &m.lat)
}

/// Predicted misses per iteration at a *fractional* byte stride — the §2
/// ramp below one line. A packed column streams `bits/8` bytes per value,
/// so the per-value miss rate is `(bits/8) / LS` long before it saturates.
pub fn packed_misses_per_iter(m: &ModelMachine, bytes_per_value: f64) -> (f64, f64, f64) {
    let s = bytes_per_value.max(0.0);
    let l1 = (s / m.l1_line).min(1.0);
    let l2 = (s / m.l2_line).min(1.0);
    let tlb = (s / m.page).min(1.0);
    (l1, l2, tlb)
}

/// Predicted cost of scanning `iters` values stored at `bits_per_value`
/// bits each (a `core::compress` packed column). CPU work stays one scan
/// iteration per value — compression shrinks only the memory stream, which
/// is exactly the paper's argument for why it pays: at 32 bits/value this
/// equals [`scan_cost`] at stride 4, and every saved bit moves the memory
/// terms down the §2 ramp.
pub fn packed_scan_cost(m: &ModelMachine, iters: usize, bits_per_value: f64) -> ModelCost {
    let n = iters as f64;
    let (l1, l2, tlb) = packed_misses_per_iter(m, bits_per_value / 8.0);
    ModelCost::assemble(n * m.work.scan_iter_ns, n * l1, n * l2, n * tlb, &m.lat)
}

/// Values per compressed frame — mirrors `monet_core::compress::FRAME_LEN`.
/// `costmodel` does not depend on `monet-core`, so the constant is
/// duplicated here; the engine's access-planner tests assert the two stay
/// equal.
pub const FRAME_LEN: usize = 1024;

/// Expected number of distinct blocks touched by `k` candidates spread over
/// `blocks` equal blocks (uniform occupancy): `B·(1 − (1 − 1/B)^k)`. Ramps
/// linearly (≈ k) while candidates are sparse and saturates at `B` once
/// every block holds one — the "frames touched ≈ distinct frames among
/// candidates" estimate the pushdown planner prices restricted packed
/// evaluation with.
pub fn expected_touched_blocks(blocks: usize, k: usize) -> f64 {
    if blocks == 0 || k == 0 {
        return 0.0;
    }
    let b = blocks as f64;
    b * (1.0 - (1.0 - 1.0 / b).powf(k as f64))
}

/// Candidate-restricted scan pricing: `k` surviving candidates gather-tested
/// against a `rows`-value column stored at byte `stride`
/// (`core::scan::select` over `RowSet::Cands`). Candidates ascend, so the touches are
/// one forward sweep at effective stride `stride·rows/k`; the §2 ramp then
/// prices the locality — a dense list rides the cache lines like a scan, a
/// sparse one pays a full miss per touch. CPU follows `k`, not `rows`.
pub fn cand_scan_cost(m: &ModelMachine, rows: usize, stride: usize, k: usize) -> ModelCost {
    if k == 0 {
        return ModelCost::assemble(0.0, 0.0, 0.0, 0.0, &m.lat);
    }
    let n = k as f64;
    let eff = stride as f64 * rows.max(1) as f64 / n;
    let l1 = (eff / m.l1_line).min(1.0);
    let l2 = (eff / m.l2_line).min(1.0);
    let tlb = (eff / m.page).min(1.0);
    ModelCost::assemble(n * m.work.scan_iter_ns, n * l1, n * l2, n * tlb, &m.lat)
}

/// Candidate-restricted packed-scan pricing (`core::scan::select` over a
/// packed column and `RowSet::Cands`): the kernel jumps to
/// the frames containing candidates and streams a touched frame's payload
/// once, so memory is charged for `expected_touched_blocks` frames of
/// [`FRAME_LEN`] values at the packed bit width while CPU follows `k`.
pub fn cand_packed_scan_cost(
    m: &ModelMachine,
    rows: usize,
    bits_per_value: f64,
    k: usize,
) -> ModelCost {
    if k == 0 {
        return ModelCost::assemble(0.0, 0.0, 0.0, 0.0, &m.lat);
    }
    let blocks = rows.div_ceil(FRAME_LEN).max(1);
    let streamed = (expected_touched_blocks(blocks, k) * FRAME_LEN as f64).min(rows as f64);
    let (l1, l2, tlb) = packed_misses_per_iter(m, bits_per_value / 8.0);
    ModelCost::assemble(
        k as f64 * m.work.scan_iter_ns,
        streamed * l1,
        streamed * l2,
        streamed * tlb,
        &m.lat,
    )
}

/// [`cand_packed_scan_cost`] with the touched-frame count known exactly —
/// validation against a concrete candidate list, where the caller counted
/// the frames the restricted kernel will stream (e.g.
/// `monet_core::compress::touched_blocks`). A clustered list touches far
/// fewer frames than the uniform-occupancy expectation prices.
pub fn cand_packed_scan_cost_touched(
    m: &ModelMachine,
    rows: usize,
    bits_per_value: f64,
    k: usize,
    touched: usize,
) -> ModelCost {
    if k == 0 {
        return ModelCost::assemble(0.0, 0.0, 0.0, 0.0, &m.lat);
    }
    let streamed = ((touched * FRAME_LEN) as f64).min(rows as f64);
    let (l1, l2, tlb) = packed_misses_per_iter(m, bits_per_value / 8.0);
    ModelCost::assemble(
        k as f64 * m.work.scan_iter_ns,
        streamed * l1,
        streamed * l2,
        streamed * tlb,
        &m.lat,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use memsim::profiles;

    fn origin() -> ModelMachine {
        ModelMachine::new(&profiles::origin2000())
    }

    #[test]
    fn miss_rates_ramp_and_saturate() {
        let m = origin();
        let (l1, l2, _) = misses_per_iter(&m, 8);
        assert!((l1 - 0.25).abs() < 1e-12);
        assert!((l2 - 0.0625).abs() < 1e-12);
        let (l1, l2, _) = misses_per_iter(&m, 32);
        assert_eq!(l1, 1.0);
        assert!((l2 - 0.25).abs() < 1e-12);
        let (l1, l2, _) = misses_per_iter(&m, 200);
        assert_eq!(l1, 1.0);
        assert_eq!(l2, 1.0);
    }

    #[test]
    fn model_matches_simulator_within_tolerance() {
        // The model is exact in the steady state; the simulator adds only
        // cold-start effects (first touch of each page/line).
        let cfg = profiles::origin2000();
        let m = origin();
        let iters = 100_000;
        for stride in [1usize, 8, 16, 32, 64, 128, 256] {
            let sim = memsim::stride::scan_sim(cfg, iters, stride);
            let model = scan_cost(&m, iters, stride);
            let rel = (model.total_ms() - sim.elapsed_ms).abs() / sim.elapsed_ms;
            assert!(
                rel < 0.05,
                "stride {stride}: model {} ms vs sim {} ms (rel {rel})",
                model.total_ms(),
                sim.elapsed_ms
            );
        }
    }

    #[test]
    fn stride1_vs_stride8_cycle_claim() {
        // §3.1: stride 8 ⇒ ~10 cycles/iter; stride 1 ⇒ ~4 cycles (of which
        // memory is ~6 cycles at stride 8 on the model's terms).
        let m = origin();
        let per_iter_cycles = |s: usize| scan_cost(&m, 1, s).total_ns() / 4.0; // 4 ns/cycle
        let c1 = per_iter_cycles(1);
        let c8 = per_iter_cycles(8);
        assert!((3.5..=5.5).contains(&c1), "stride-1 {c1} cycles");
        assert!((8.0..=12.0).contains(&c8), "stride-8 {c8} cycles");
    }

    #[test]
    fn packed_cost_extends_the_stride_model_below_one_byte() {
        let m = origin();
        // 32 bits/value is exactly the uncompressed 4-byte stride.
        let packed = packed_scan_cost(&m, 100_000, 32.0);
        let plain = scan_cost(&m, 100_000, 4);
        assert!((packed.total_ns() - plain.total_ns()).abs() < 1e-6);
        // Memory terms shrink monotonically with the bit width; CPU stays.
        let mut prev = plain;
        for bits in [16.0, 8.0, 3.0, 0.5] {
            let c = packed_scan_cost(&m, 100_000, bits);
            assert!(c.total_ns() < prev.total_ns(), "{bits} bits");
            assert!((c.cpu_ns - prev.cpu_ns).abs() < 1e-9, "CPU term unchanged at {bits} bits");
            prev = c;
        }
        // 12 bits/value streams 8/3x fewer bytes: the stall terms scale.
        let c12 = packed_scan_cost(&m, 100_000, 12.0);
        assert!((c12.l2_misses - plain.l2_misses * 12.0 / 32.0).abs() < 1e-6);
    }

    #[test]
    fn touched_blocks_ramp_linearly_then_saturate() {
        assert_eq!(expected_touched_blocks(0, 10), 0.0);
        assert_eq!(expected_touched_blocks(100, 0), 0.0);
        // Sparse: ~one block per candidate.
        let sparse = expected_touched_blocks(1000, 10);
        assert!((9.9..=10.0).contains(&sparse), "{sparse}");
        // Dense: saturates at the block count.
        let dense = expected_touched_blocks(10, 10_000);
        assert!((9.99..=10.0).contains(&dense), "{dense}");
    }

    #[test]
    fn cand_costs_interpolate_between_free_and_full() {
        let m = origin();
        let rows = 100_000;
        // All-pass candidates degenerate to (at least) the full scan's
        // memory bill; CPU is identical.
        let full = scan_cost(&m, rows, 4);
        let all = cand_scan_cost(&m, rows, 4, rows);
        assert!((all.cpu_ns - full.cpu_ns).abs() < 1e-6);
        assert!(all.total_ns() >= full.total_ns() - 1e-6);
        // Cost grows monotonically with |cands| and vanishes at zero.
        assert_eq!(cand_scan_cost(&m, rows, 4, 0).total_ns(), 0.0);
        let mut prev = 0.0;
        for k in [10, 100, 1000, 10_000, rows] {
            let c = cand_scan_cost(&m, rows, 4, k).total_ns();
            assert!(c > prev, "k={k}");
            prev = c;
        }
        // Packed: a selective list prices far below the full packed scan —
        // 50 candidates touch ~40 of the ~98 frames (memory) but only 50
        // values of CPU.
        let packed_full = packed_scan_cost(&m, rows, 12.0);
        let packed_few = cand_packed_scan_cost(&m, rows, 12.0, 50);
        assert!(packed_few.total_ns() * 2.0 < packed_full.total_ns());
        assert_eq!(cand_packed_scan_cost(&m, rows, 12.0, 0).total_ns(), 0.0);
    }

    #[test]
    fn flat_beyond_l2_line() {
        let m = origin();
        let a = scan_cost(&m, 1000, 128).total_ns();
        let b = scan_cost(&m, 1000, 256).total_ns();
        // Only the TLB term grows (256/16384 vs 128/16384 of 228 ns).
        assert!((b - a) < 1000.0 * 2.0 * 228.0 * (128.0 / 16384.0) + 1e-6);
    }
}
