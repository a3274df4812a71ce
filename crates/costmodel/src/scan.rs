//! The §2 stride-scan model — behind Figure 3 and behind every scan-select
//! price in the repository:
//!
//! ```text
//! T = n_eval·T_CPU + n_touch·( M_L1(b)·l_L2 + M_L2(b)·l_Mem + M_TLB(b)·l_TLB )
//! M_L1(b) = min(b / LS_L1, 1),  M_L2(b) = min(b / LS_L2, 1),  M_TLB(b) = min(b / ‖Pg‖, 1)
//! ```
//!
//! `n_eval` predicate evaluations, `n_touch` memory touches `b` bytes apart.
//! (The TLB term is negligible at the paper's strides; it is there so that
//! the model tracks the simulator exactly at page-sized strides too.) A
//! plain scan, a scan over a compressed column, a scan restricted to the
//! survivors of an earlier predicate and a predicate riding another query's
//! pass differ only in `(n_eval, n_touch, b)`, so all of them are one
//! [`Select`] priced by one function, [`select_cost`]; [`scan_cost`] is the
//! paper's Figure-3 entry point into it. The physical layout enters through
//! the stored width alone: a [`Select`] does not say whether its column is
//! packed, because no arm prices a packed column differently — the kernel
//! point-decodes the survivors of a restricted pass from their frames, so
//! restricted is one arm (`k` touches `bits/8 · rows/k` bytes apart), as
//! fresh and riding already were.

use crate::machine::{ModelCost, ModelMachine};

/// One scan-select, as the facts an admission controller or an executor
/// knows about it — not a pricing recipe. [`select_cost`] derives the work
/// from them.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Select {
    /// Tuples in the scanned column.
    pub rows: usize,
    /// Stored bits per value: 8 × the tail width of a plain column, the
    /// (possibly fractional) average of a compressed one.
    pub bits: f64,
    /// Survivors of earlier conjunction leaves this select is restricted to
    /// (`None` = every row is evaluated).
    pub cands: Option<usize>,
    /// Set when the select rides another query's cooperative pass: the rows
    /// that pass had already streamed when this one boarded, which the
    /// elevator must wrap around and re-stream for it (`Some(0)` = fully
    /// covered, nothing streamed on its behalf).
    pub covered: Option<usize>,
}

impl Select {
    /// A fresh full pass over a plain column of `stride`-byte values.
    pub fn plain(rows: usize, stride: usize) -> Self {
        Select { rows, bits: 8.0 * stride as f64, cands: None, covered: None }
    }

    /// A fresh full pass over a compressed column storing `bits` bits per
    /// value.
    pub fn packed(rows: usize, bits: f64) -> Self {
        Select { rows, bits, cands: None, covered: None }
    }

    /// The uniform work items this select fans out over: its rows when it
    /// streams the column itself. A covered select does no divisible
    /// scanning of its own — the covering pass owns the stream (and the
    /// wrap) — and a restricted one runs sequentially: candidate lists are
    /// small by construction, so fork overhead would dominate.
    pub fn items(&self) -> usize {
        if self.cands.is_some() || self.covered.is_some() {
            0
        } else {
            self.rows
        }
    }

    /// The §2 formula's inputs `(n_eval, n_touch, b)`: predicate
    /// evaluations, memory touches, and bytes between consecutive touches.
    ///
    /// * **Fresh pass** — every row is evaluated and streamed at the stored
    ///   width. Compression shrinks only the memory stream, which is the
    ///   paper's argument for why it pays: 32 bits/value is exactly the
    ///   plain 4-byte stride, and every saved bit moves the stall terms
    ///   down the ramp.
    /// * **Restricted to `k` survivors** — CPU follows `k`, not `rows`.
    ///   Candidates ascend and every layout reads one value per survivor (a
    ///   packed value is point-decoded from its frame, not unpacked with
    ///   it), so the pass is one forward sweep of `k` touches
    ///   `bits/8 · rows/k` bytes apart: a dense list rides the cache lines
    ///   like a scan, a sparse one pays a full miss per touch.
    /// * **Riding another pass** — the predicate is evaluated over every
    ///   row (pure CPU, as for every rider), and the only new memory
    ///   traffic is the wrap-around re-stream of the `covered` rows the
    ///   pass had already streamed, clamped to the column. Boarding at pass
    ///   start is CPU only; boarding at the very end prices a fresh scan.
    pub fn work(&self) -> (f64, f64, f64) {
        let rows = self.rows as f64;
        let value_bytes = self.bits / 8.0;
        match (self.covered, self.cands) {
            (Some(missed), _) => (rows, missed.min(self.rows) as f64, value_bytes),
            (None, Some(k)) => {
                (k as f64, k as f64, value_bytes * self.rows.max(1) as f64 / k.max(1) as f64)
            }
            (None, None) => (rows, rows, value_bytes),
        }
    }
}

/// Predicted misses per memory touch when consecutive touches are `bytes`
/// apart — the §2 ramp: below one line the miss rate is `bytes / LS`, and
/// it saturates at one miss per touch. Fractional on purpose: a packed
/// column advances `bits/8` bytes per value.
pub fn misses_per_iter(m: &ModelMachine, bytes: f64) -> (f64, f64, f64) {
    let l1 = (bytes / m.l1_line).min(1.0);
    let l2 = (bytes / m.l2_line).min(1.0);
    let tlb = (bytes / m.page).min(1.0);
    (l1, l2, tlb)
}

/// The price of one scan-select: derive `(n_eval, n_touch, b)` from the
/// facts ([`Select::work`]) and apply the §2 formula once.
pub fn select_cost(m: &ModelMachine, s: Select) -> ModelCost {
    let (evaluated, touches, bytes_per_touch) = s.work();
    let (l1, l2, tlb) = misses_per_iter(m, bytes_per_touch);
    ModelCost::assemble(
        evaluated * m.work.scan_iter_ns,
        touches * l1,
        touches * l2,
        touches * tlb,
        &m.lat,
    )
}

/// Predicted cost of `iters` scan iterations at stride `s` — Figure 3.
pub fn scan_cost(m: &ModelMachine, iters: usize, stride: usize) -> ModelCost {
    select_cost(m, Select::plain(iters, stride))
}

#[cfg(test)]
mod tests {
    use super::*;
    use memsim::profiles;

    fn origin() -> ModelMachine {
        ModelMachine::new(&profiles::origin2000())
    }

    /// The summed price of several selects (a K-way pass, K solo scans).
    fn cost(m: &ModelMachine, shapes: &[Select]) -> ModelCost {
        shapes.iter().map(|&s| select_cost(m, s)).sum()
    }

    /// One cooperative pass under `k` merged predicates: one fresh select
    /// streams the column, the other `k − 1` ride it from the start.
    fn k_way(fresh: Select, k: usize) -> Vec<Select> {
        let mut pass = vec![fresh; k.min(1)];
        pass.resize(k, Select { covered: Some(0), ..fresh });
        pass
    }

    #[test]
    fn miss_rates_ramp_and_saturate() {
        let m = origin();
        let (l1, l2, _) = misses_per_iter(&m, 8.0);
        assert!((l1 - 0.25).abs() < 1e-12);
        assert!((l2 - 0.0625).abs() < 1e-12);
        let (l1, l2, _) = misses_per_iter(&m, 32.0);
        assert_eq!(l1, 1.0);
        assert!((l2 - 0.25).abs() < 1e-12);
        let (l1, l2, _) = misses_per_iter(&m, 200.0);
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
    fn flat_beyond_l2_line() {
        let m = origin();
        let a = scan_cost(&m, 1000, 128).total_ns();
        let b = scan_cost(&m, 1000, 256).total_ns();
        // Only the TLB term grows (256/16384 vs 128/16384 of 228 ns).
        assert!((b - a) < 1000.0 * 2.0 * 228.0 * (128.0 / 16384.0) + 1e-6);
    }

    /// `(cpu_ns, stall_ns, total_ns)` of every scan-pricing function this
    /// module and the retired cooperative-scan module used to carry, recorded on
    /// `profiles::origin2000()` at the last commit that had them — the
    /// proof that folding them into [`select_cost`] moved no price. Two rows
    /// were re-recorded since, when the kernel stopped unpacking the frames
    /// around a restricted pass's survivors: "cands packed, k = 50" (was
    /// 299 122.67 ns: ~50 whole frames streamed) and "k = rows/1000" (was
    /// 3 846 260.77 ns: ~640 frames) now price one touch per survivor, as
    /// the plain rows above them always did. Dense lists price as before.
    #[test]
    fn one_function_reproduces_every_retired_formula() {
        const ROWS: usize = 1_000_000;
        let plain = Select::plain(ROWS, 4);
        let packed = Select::packed(ROWS, 12.0);
        let cands = |s: Select, k: usize| vec![Select { cands: Some(k), ..s }];
        let attach = |missed: usize| vec![Select { covered: Some(missed), ..plain }];
        // Survivors clustered in `touched` 1024-row frames: a restricted
        // pass over just that sub-column.
        let clustered = |k: usize, touched: usize| cands(Select::packed(touched * 1024, 12.0), k);
        #[rustfmt::skip]
        let golden: [(&str, Vec<Select>, f64, f64, f64); 29] = [
            ("fresh plain, stride 1", vec![Select::plain(ROWS, 1)], 16000000.0, 3982666.015625, 19982666.015625),
            ("fresh plain, stride 4", vec![plain], 16000000.0, 15930664.0625, 31930664.0625),
            ("fresh plain, stride 8", vec![Select::plain(ROWS, 8)], 16000000.0, 31861328.125, 47861328.125),
            ("fresh packed, 0.5 bits", vec![Select::packed(ROWS, 0.5)], 16000000.0, 248916.6259765625, 16248916.625976563),
            ("fresh packed, 3 bits", vec![Select::packed(ROWS, 3.0)], 16000000.0, 1493499.755859375, 17493499.755859375),
            ("fresh packed, 12 bits", vec![packed], 16000000.0, 5973999.0234375, 21973999.0234375),
            ("fresh packed, 32 bits", vec![Select::packed(ROWS, 32.0)], 16000000.0, 15930664.0625, 31930664.0625),
            ("cands plain, k = 0", cands(plain, 0), 0.0, 0.0, 0.0),
            ("cands plain, k = 50", cands(plain, 50), 800.0, 33200.0, 34000.0),
            ("cands plain, k = rows/1000", cands(plain, ROWS / 1000), 16000.0, 491664.0625, 507664.0625),
            ("cands plain, k = rows", cands(plain, ROWS), 16000000.0, 15930664.0625, 31930664.0625),
            ("cands packed, k = 0", cands(packed, 0), 0.0, 0.0, 0.0),
            ("cands packed, k = 50", cands(packed, 50), 800.0, 33200.0, 34000.0),
            ("cands packed, k = rows/1000", cands(packed, ROWS / 1000), 16000.0, 456874.0234375, 472874.0234375),
            ("cands packed, k = rows", cands(packed, ROWS), 16000000.0, 5973999.0234375, 21973999.0234375),
            ("cands packed, 512 in 1 frame", clustered(512, 1), 8192.0, 6117.375, 14309.375),
            ("cands packed, 512 in 2 frames", clustered(512, 2), 8192.0, 12234.75, 20426.75),
            ("cands packed, 5000 in 7 frames", clustered(5000, 7), 80000.0, 42821.625, 122821.625),
            ("covered (marginal predicate)", attach(0), 16000000.0, 0.0, 16000000.0),
            ("attach, missed = rows/2", attach(ROWS / 2), 16000000.0, 7965332.03125, 23965332.03125),
            ("attach, missed = rows", attach(ROWS), 16000000.0, 15930664.0625, 31930664.0625),
            ("attach, missed = 2 rows", attach(2 * ROWS), 16000000.0, 15930664.0625, 31930664.0625),
            ("merged, K = 1", k_way(plain, 1), 16000000.0, 15930664.0625, 31930664.0625),
            ("merged, K = 3", k_way(plain, 3), 48000000.0, 15930664.0625, 63930664.0625),
            ("merged, K = 8", k_way(plain, 8), 128000000.0, 15930664.0625, 143930664.0625),
            ("solo, K = 1", vec![Select::plain(ROWS, 8); 1], 16000000.0, 31861328.125, 47861328.125),
            ("solo, K = 3", vec![Select::plain(ROWS, 8); 3], 48000000.0, 95583984.375, 143583984.375),
            ("solo, K = 8", vec![Select::plain(ROWS, 8); 8], 128000000.0, 254890625.0, 382890625.0),
            ("zero-way merge", k_way(plain, 0), 0.0, 0.0, 0.0),
        ];
        let m = origin();
        let close = |got: f64, want: f64| (got - want).abs() <= 1e-9 * want.abs();
        for (name, shapes, cpu_ns, stall_ns, total_ns) in golden {
            let c = cost(&m, &shapes);
            assert!(close(c.cpu_ns, cpu_ns), "{name}: cpu {} vs {cpu_ns}", c.cpu_ns);
            assert!(close(c.stall_ns, stall_ns), "{name}: stall {} vs {stall_ns}", c.stall_ns);
            assert!(close(c.total_ns(), total_ns), "{name}: total {} vs {total_ns}", c.total_ns());
        }
    }

    #[test]
    fn stored_width_extends_the_stride_model_below_one_byte() {
        let m = origin();
        // 32 bits/value is exactly the uncompressed 4-byte stride.
        let plain = scan_cost(&m, 100_000, 4);
        let packed = select_cost(&m, Select::packed(100_000, 32.0));
        assert!((packed.total_ns() - plain.total_ns()).abs() < 1e-6);
        // Memory terms shrink monotonically with the bit width; CPU stays.
        let mut prev = plain;
        for bits in [16.0, 8.0, 3.0, 0.5] {
            let c = select_cost(&m, Select::packed(100_000, bits));
            assert!(c.total_ns() < prev.total_ns(), "{bits} bits");
            assert!((c.cpu_ns - prev.cpu_ns).abs() < 1e-9, "CPU term unchanged at {bits} bits");
            prev = c;
        }
        // 12 bits/value streams 8/3x fewer bytes: the stall terms scale.
        let c12 = select_cost(&m, Select::packed(100_000, 12.0));
        assert!((c12.l2_misses - plain.l2_misses * 12.0 / 32.0).abs() < 1e-6);
    }

    #[test]
    fn restricted_selects_interpolate_between_free_and_full() {
        let m = origin();
        let rows = 100_000;
        let plain = |k| select_cost(&m, Select { cands: Some(k), ..Select::plain(rows, 4) });
        let packed = |k| select_cost(&m, Select { cands: Some(k), ..Select::packed(rows, 12.0) });
        // All-pass candidates degenerate to (at least) the full scan's
        // memory bill; CPU is identical.
        let full = scan_cost(&m, rows, 4);
        assert!((plain(rows).cpu_ns - full.cpu_ns).abs() < 1e-6);
        assert!(plain(rows).total_ns() >= full.total_ns() - 1e-6);
        // Cost grows monotonically with |cands| and vanishes at zero.
        assert_eq!(plain(0).total_ns(), 0.0);
        assert_eq!(packed(0).total_ns(), 0.0);
        let mut prev = 0.0;
        for k in [10, 100, 1000, 10_000, rows] {
            let c = plain(k).total_ns();
            assert!(c > prev, "k={k}");
            prev = c;
        }
        // Packed: a selective list prices far below the full packed scan —
        // 50 candidates are 50 touches and 50 values of CPU, never more
        // than the same list costs on the wider plain column.
        let packed_full = select_cost(&m, Select::packed(rows, 12.0));
        assert!(packed(50).total_ns() * 50.0 < packed_full.total_ns());
        assert!(packed(50).total_ns() <= plain(50).total_ns());
    }

    #[test]
    fn riding_a_pass_interpolates_between_marginal_and_a_fresh_scan() {
        let m = origin();
        let rows = 1_000_000;
        for fresh in [Select::plain(rows, 4), Select::packed(rows, 6.0)] {
            let ride = |missed| select_cost(&m, Select { covered: Some(missed), ..fresh });
            let full = select_cost(&m, fresh);
            // Board at pass start: the marginal predicate — pure CPU.
            let marginal = ride(0);
            assert_eq!(
                (marginal.l1_misses, marginal.l2_misses, marginal.tlb_misses),
                (0.0, 0.0, 0.0)
            );
            assert_eq!(marginal.cpu_ns, full.cpu_ns);
            // Board at the very end: a full scan equivalent, at the width
            // the pass streams.
            assert!((ride(rows).total_ns() - full.total_ns()).abs() < 1e-6);
            // Monotone in the wrap distance, and always at most a fresh scan.
            let mut prev = 0.0;
            for missed in [0usize, rows / 4, rows / 2, rows] {
                let c = ride(missed).total_ns();
                assert!(c >= prev, "missed={missed}");
                assert!(c <= full.total_ns() + 1e-6);
                prev = c;
            }
            // Clamped: can't miss more than the column holds.
            assert_eq!(ride(rows * 2).total_ns(), ride(rows).total_ns());
        }
    }

    #[test]
    fn a_merged_pass_pays_the_stream_once_and_the_predicate_k_times() {
        let m = origin();
        let rows = 500_000;
        for stride in [4usize, 8] {
            let fresh = Select::plain(rows, stride);
            let merged = |k: usize| cost(&m, &k_way(fresh, k)).total_ns();
            let solo = |k: usize| cost(&m, &vec![fresh; k]).total_ns();
            assert_eq!(
                merged(1),
                scan_cost(&m, rows, stride).total_ns(),
                "a 1-way merge is a scan"
            );
            // One more rider costs exactly the marginal predicate.
            let marginal = select_cost(&m, Select { covered: Some(0), ..fresh }).total_ns();
            assert!((merged(4) - merged(3) - marginal).abs() < 1e-6);
            assert!(marginal < merged(1));
            // So the pass grows far slower than K, and beats K solo scans.
            assert!(merged(8) < 0.75 * 8.0 * merged(1), "stride {stride}");
            for k in 2..=16 {
                assert!(merged(k) < solo(k), "k={k}");
            }
        }
        // Wider strides are more memory-bound, so sharing helps more.
        let speedup = |stride: usize| {
            let fresh = Select::plain(rows, stride);
            cost(&m, &vec![fresh; 8]).total_ns() / cost(&m, &k_way(fresh, 8)).total_ns()
        };
        assert!(speedup(8) > speedup(1));
    }

    #[test]
    fn only_fresh_selects_carry_divisible_work() {
        let fresh = Select::packed(1_000, 3.0);
        assert_eq!(fresh.items(), 1_000);
        assert_eq!(Select::plain(1_000, 4).items(), 1_000);
        assert_eq!(Select { cands: Some(10), ..fresh }.items(), 0);
        assert_eq!(Select { covered: Some(0), ..fresh }.items(), 0);
        assert_eq!(Select { covered: Some(500), ..fresh }.items(), 0);
    }
}
