//! Property suite for the K-predicate one-pass scan kernel
//! (`monet_core::scan`): for random columns — uniform and Zipf-skewed —
//! and random predicate sets (always including an empty- and a
//! full-selectivity leaf), K-way shared evaluation must be **identical**
//! to filtering the column one row at a time for each predicate,
//! sequentially and at every thread count, with per-thread match counts
//! that merge to the totals. This is the contract the query service's
//! cooperative passes rely on for bit-identical shared execution.

use proptest::prelude::*;

use monet_mem::core::scan::{par_select, select, RowSet, ScanCol, ScanPred};
use monet_mem::core::storage::{Bat, Column, Oid, StrColumn};
use monet_mem::memsim::{profiles, NullTracker};
use monet_mem::workload::ZipfGenerator;

mod common;

const THREADS: [usize; 2] = [1, 4];
const MODES: [&str; 4] = ["AIR", "MAIL", "SHIP", "RAIL"];

/// Compare the K-way kernel against solo evaluations of each predicate,
/// sequentially and sharded.
fn assert_k_way_matches_solo(bat: &Bat, preds: &[ScanPred], solo: &[Vec<u32>], ctx: &str) {
    let col = ScanCol::Plain(bat);
    let shared = select(&mut NullTracker, col, preds, RowSet::All).expect("typed preds evaluate");
    assert_eq!(shared.len(), solo.len(), "{ctx}");
    for (k, want) in solo.iter().enumerate() {
        assert_eq!(&shared[k], want, "{ctx}: pred {k} (sequential)");
    }
    for threads in THREADS {
        let (par, counts) =
            par_select(&mut NullTracker, col, preds, threads).expect("typed preds evaluate");
        assert_eq!(par, shared, "{ctx}: threads={threads}");
        assert_eq!(
            counts.iter().sum::<usize>(),
            shared.iter().map(Vec::len).sum::<usize>(),
            "{ctx}: shard counts merge to the total at threads={threads}"
        );
    }
    common::assert_row_sets_agree(col, bat.head_oid(0), preds, true, ctx);
}

/// The OIDs of the rows of a column at `seqbase` whose value passes.
fn row_filter<T: Copy>(values: &[T], seqbase: Oid, pass: impl Fn(T) -> bool) -> Vec<Oid> {
    (seqbase..).zip(values).filter(|&(_, &v)| pass(v)).map(|(oid, _)| oid).collect()
}

/// Under the simulator one predicate over the whole column is charged one
/// read and one scan iteration per row.
fn assert_charges_one_pass(bat: &Bat, pred: &ScanPred) {
    let got = common::sim_counters(ScanCol::Plain(bat), std::slice::from_ref(pred), RowSet::All);
    let scan_iter_ns = profiles::origin2000().work.scan_iter_ns;
    let n = bat.len();
    assert_eq!((got.reads, got.cpu_ns), (n as u64, n as f64 * scan_iter_ns), "{pred:?}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn i32_k_way_equals_k_solo_selects(
        uniform in prop::collection::vec(-40i32..40, 0..600),
        zipf_seed in 0u64..1000,
        zipf_len in 0usize..600,
        bounds in prop::collection::vec((-50i32..50, -50i32..50), 1..6),
        seqbase in 0u32..10_000,
    ) {
        // Zipf-skewed values: a few hot keys dominate, so some predicates
        // match heavily while others match almost nothing.
        let mut z = ZipfGenerator::new(64, 1.0, zipf_seed);
        let zipf: Vec<i32> = (0..zipf_len).map(|_| z.sample() as i32 - 32).collect();
        for values in [uniform.clone(), zipf] {
            let mut preds: Vec<ScanPred> = bounds
                .iter()
                .map(|&(a, b)| ScanPred::RangeI32 { lo: a.min(b), hi: a.max(b) })
                .collect();
            // Always exercise the degenerate leaves.
            preds.extend(common::edge_preds(&values));
            preds.push(ScanPred::RangeI32 { lo: 1, hi: 0 }); // empty
            preds.push(ScanPred::RangeI32 { lo: i32::MIN, hi: i32::MAX }); // full
            let solo: Vec<Vec<u32>> = preds
                .iter()
                .map(|p| {
                    let ScanPred::RangeI32 { lo, hi } = *p else { unreachable!() };
                    row_filter(&values, seqbase, |v| lo <= v && v <= hi)
                })
                .collect();
            let bat = Bat::with_void_head(seqbase, Column::I32(values));
            assert_k_way_matches_solo(&bat, &preds, &solo, "i32");
            for p in &preds {
                assert_charges_one_pass(&bat, p);
            }
            // The full leaf selects every row; the empty leaf none.
            let n = bat.len();
            prop_assert_eq!(solo[preds.len() - 1].len(), n);
            prop_assert_eq!(solo[preds.len() - 2].len(), 0);
        }
    }

    #[test]
    fn f64_k_way_equals_k_solo_selects(
        raw in prop::collection::vec(0u32..2_000, 0..500),
        bounds in prop::collection::vec((0u32..2_100, 0u32..2_100), 1..5),
        seqbase in 0u32..1_000,
    ) {
        let values: Vec<f64> = raw.iter().map(|&v| v as f64 / 7.0).collect();
        let mut preds: Vec<ScanPred> = bounds
            .iter()
            .map(|&(a, b)| ScanPred::RangeF64 {
                lo: a.min(b) as f64 / 7.0,
                hi: a.max(b) as f64 / 7.0,
            })
            .collect();
        preds.push(ScanPred::RangeF64 { lo: 1.0, hi: 0.0 }); // empty
        preds.push(ScanPred::RangeF64 { lo: f64::MIN, hi: f64::MAX }); // full
        let solo: Vec<Vec<u32>> = preds
            .iter()
            .map(|p| {
                let ScanPred::RangeF64 { lo, hi } = *p else { unreachable!() };
                row_filter(&values, seqbase, |v| lo <= v && v <= hi)
            })
            .collect();
        let bat = Bat::with_void_head(seqbase, Column::F64(values));
        assert_k_way_matches_solo(&bat, &preds, &solo, "f64");
        for p in &preds {
            assert_charges_one_pass(&bat, p);
        }
    }

    #[test]
    fn str_k_way_equals_k_solo_selects(
        picks in prop::collection::vec(0usize..MODES.len(), 0..500),
        zipf_seed in 0u64..1000,
        seqbase in 0u32..1_000,
    ) {
        // Zipf-skew the mode choice so one code dominates.
        let mut z = ZipfGenerator::new(MODES.len(), 1.0, zipf_seed);
        let strs: Vec<&str> = picks.iter().map(|_| MODES[z.sample()]).collect();
        let bat = Bat::with_void_head(seqbase, Column::Str(StrColumn::from_strs(strs.clone())));
        let sc = bat.tail().as_str_col().unwrap();
        // One predicate per dictionary code that actually occurs (full
        // coverage), plus a code outside the dictionary (empty leaf).
        let needles: Vec<&str> =
            MODES.iter().copied().filter(|m| sc.dict.code_of(m).is_some()).collect();
        let mut preds: Vec<ScanPred> = needles
            .iter()
            .map(|m| ScanPred::EqCode { code: sc.dict.code_of(m).unwrap() })
            .collect();
        preds.push(ScanPred::EqCode { code: u32::MAX }); // never a valid code
        let mut solo: Vec<Vec<u32>> =
            needles.iter().map(|&m| row_filter(&strs, seqbase, |s| s == m)).collect();
        solo.push(Vec::new());
        assert_k_way_matches_solo(&bat, &preds, &solo, "str");
        for p in &preds[..needles.len()] {
            assert_charges_one_pass(&bat, p);
        }
        // Every row is claimed by exactly one code predicate.
        let claimed: usize = solo.iter().map(Vec::len).sum();
        prop_assert_eq!(claimed, bat.len());
    }
}
