//! Pricing cooperative (K-way merged) scans against K solo scan-selects.
//!
//! The §2 stride-scan model decomposes a scan into a CPU term and the
//! cache/TLB miss terms. A merged pass (`monet_core::scan::select` with K > 1)
//! changes only the CPU term: the column streams through the hierarchy
//! **once** whatever K is, while predicate evaluation repeats per leaf.
//!
//! ```text
//! solo(K)   = K · ( CPU(rows) + Mem(rows, stride) )
//! merged(K) =     K · CPU(rows) + Mem(rows, stride)
//! ```
//!
//! so the merged cost grows far slower than K wherever the scan is
//! memory-bound — which is the paper's whole point. The *marginal* cost of
//! admitting one more predicate into an already-running pass is the CPU
//! term alone ([`marginal_pred_cost`]); a scheduler quote for a query whose
//! scan is already covered by an in-flight or pending shared pass should
//! charge that marginal term, not a fresh scan
//! ([`crate::quote::OpShape::SharedSelect`]).

use crate::machine::{ModelCost, ModelMachine};
use crate::scan::{misses_per_iter, scan_cost};

/// Predicted cost of one K-way merged scan pass over `rows` tuples at byte
/// `stride`: the memory terms of a single scan, the CPU term K times.
/// `k == 0` prices zero work.
pub fn merged_scan_cost(m: &ModelMachine, rows: usize, stride: usize, k: usize) -> ModelCost {
    if k == 0 {
        return ModelCost::assemble(0.0, 0.0, 0.0, 0.0, &m.lat);
    }
    let n = rows as f64;
    let (l1, l2, tlb) = misses_per_iter(m, stride);
    ModelCost::assemble(n * k as f64 * m.work.scan_iter_ns, n * l1, n * l2, n * tlb, &m.lat)
}

/// Predicted cost of K independent solo scan-selects over the same column.
pub fn solo_scans_cost(m: &ModelMachine, rows: usize, stride: usize, k: usize) -> ModelCost {
    let one = scan_cost(m, rows, stride);
    ModelCost::assemble(
        one.cpu_ns * k as f64,
        one.l1_misses * k as f64,
        one.l2_misses * k as f64,
        one.tlb_misses * k as f64,
        &m.lat,
    )
}

/// The marginal cost of evaluating one more predicate inside a pass that
/// is already streaming the column: pure CPU, no new memory traffic.
pub fn marginal_pred_cost(m: &ModelMachine, rows: usize) -> ModelCost {
    ModelCost::assemble(rows as f64 * m.work.scan_iter_ns, 0.0, 0.0, 0.0, &m.lat)
}

/// The cost of *attaching* to a chunked elevator pass that has already
/// streamed part of the column. The rider evaluates its predicate over all
/// `rows` tuples (pure CPU, as every rider does), but the elevator must
/// wrap around and re-stream only the `missed_rows` it passed before the
/// rider boarded — that wrap traffic is the only new memory charge.
///
/// ```text
/// attach(rows, missed) = CPU(rows) + Mem(missed, stride)
/// ```
///
/// Boundary behavior anchors the model: attaching right at pass start
/// (`missed_rows == 0`) degenerates to [`marginal_pred_cost`], and
/// attaching at the very end (`missed_rows == rows`) prices a full fresh
/// scan — nothing of the current cycle is reusable.
pub fn attach_cost(m: &ModelMachine, rows: usize, stride: usize, missed_rows: usize) -> ModelCost {
    let missed = missed_rows.min(rows) as f64;
    let (l1, l2, tlb) = misses_per_iter(m, stride);
    ModelCost::assemble(
        rows as f64 * m.work.scan_iter_ns,
        missed * l1,
        missed * l2,
        missed * tlb,
        &m.lat,
    )
}

/// Model-predicted speedup of merging K same-column scans into one pass
/// (`solo / merged`; 1.0 when `k <= 1`).
pub fn sharing_speedup(m: &ModelMachine, rows: usize, stride: usize, k: usize) -> f64 {
    if k <= 1 {
        return 1.0;
    }
    solo_scans_cost(m, rows, stride, k).total_ns() / merged_scan_cost(m, rows, stride, k).total_ns()
}

#[cfg(test)]
mod tests {
    use super::*;
    use memsim::profiles;

    fn origin() -> ModelMachine {
        ModelMachine::new(&profiles::origin2000())
    }

    #[test]
    fn merged_cost_grows_far_slower_than_k() {
        let m = origin();
        for stride in [4usize, 8] {
            let one = merged_scan_cost(&m, 1_000_000, stride, 1).total_ns();
            let eight = merged_scan_cost(&m, 1_000_000, stride, 8).total_ns();
            assert!(eight > one, "more predicates cost more");
            assert!(
                eight < 0.75 * 8.0 * one,
                "stride {stride}: merged(8) = {eight} should be well under 8x merged(1) = {one}"
            );
        }
    }

    #[test]
    fn merged_beats_solo_for_k_of_two_or_more_and_matches_at_one() {
        let m = origin();
        let rows = 500_000;
        assert_eq!(
            merged_scan_cost(&m, rows, 8, 1).total_ns(),
            solo_scans_cost(&m, rows, 8, 1).total_ns(),
            "a 1-way merge is just a scan"
        );
        assert_eq!(
            merged_scan_cost(&m, rows, 8, 1).total_ns(),
            scan_cost(&m, rows, 8).total_ns(),
            "and prices exactly like the §2 scan model"
        );
        for k in 2..=16 {
            let merged = merged_scan_cost(&m, rows, 8, k).total_ns();
            let solo = solo_scans_cost(&m, rows, 8, k).total_ns();
            assert!(merged < solo, "k={k}: {merged} !< {solo}");
            assert!(sharing_speedup(&m, rows, 8, k) > 1.0);
        }
        // Wider strides are more memory-bound, so sharing helps more.
        assert!(sharing_speedup(&m, rows, 8, 8) > sharing_speedup(&m, rows, 1, 8));
    }

    #[test]
    fn marginal_predicate_is_cpu_only() {
        let m = origin();
        let rows = 100_000;
        let marginal = marginal_pred_cost(&m, rows);
        assert_eq!(marginal.l1_misses, 0.0);
        assert_eq!(marginal.l2_misses, 0.0);
        assert!(marginal.total_ns() < scan_cost(&m, rows, 4).total_ns());
        // Consistency: merged(k+1) - merged(k) == marginal.
        let k3 = merged_scan_cost(&m, rows, 4, 3).total_ns();
        let k4 = merged_scan_cost(&m, rows, 4, 4).total_ns();
        assert!((k4 - k3 - marginal.total_ns()).abs() < 1e-6);
    }

    #[test]
    fn attach_cost_interpolates_between_marginal_and_a_fresh_scan() {
        let m = origin();
        let (rows, stride) = (1_000_000, 4);
        // Board at pass start: pure marginal predicate.
        assert_eq!(
            attach_cost(&m, rows, stride, 0).total_ns(),
            marginal_pred_cost(&m, rows).total_ns()
        );
        // Board at the very end: a full scan equivalent.
        assert!(
            (attach_cost(&m, rows, stride, rows).total_ns()
                - scan_cost(&m, rows, stride).total_ns())
            .abs()
                < 1e-6
        );
        // Monotone in the wrap distance, and always at most a fresh scan.
        let mut prev = 0.0;
        for missed in [0usize, rows / 4, rows / 2, rows] {
            let c = attach_cost(&m, rows, stride, missed).total_ns();
            assert!(c >= prev, "missed={missed}");
            assert!(c <= scan_cost(&m, rows, stride).total_ns() + 1e-6);
            prev = c;
        }
        // Clamped: can't miss more than the column holds.
        assert_eq!(
            attach_cost(&m, rows, stride, rows * 2).total_ns(),
            attach_cost(&m, rows, stride, rows).total_ns()
        );
    }

    #[test]
    fn zero_way_merge_is_free() {
        let m = origin();
        assert_eq!(merged_scan_cost(&m, 1_000_000, 8, 0).total_ns(), 0.0);
    }
}
