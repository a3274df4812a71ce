//! The memory behaviour of the kernels the executor runs — the scan-select
//! (`monet_core::scan::select`) and the gather-and-fold — must match the DSM
//! theory of §3.1 on the simulated Origin2000: miss counts are determined
//! by the scanned column's stride, and positional gathers cost one miss per
//! (sparse) candidate. These tests pin the operator-level cache behaviour
//! that the figures rely on.

use monet_mem::core::scan::{select, RowSet, ScanCol, ScanPred};
use monet_mem::core::storage::{Bat, Column, Oid, StrColumn};
use monet_mem::engine::aggregate::{fold, gather, Acc, Input, Rows, Side, Sink};
use monet_mem::memsim::{profiles, SimTracker};

const N: usize = 200_000;

fn sim() -> SimTracker {
    SimTracker::for_machine(profiles::origin2000())
}

/// L1 lines are 32 B: a stride-w scan of N values incurs ~N·w/32 misses.
fn expect_l1(n: usize, width: usize) -> f64 {
    (n * width) as f64 / 32.0
}

/// One scan-select of `pred` over the whole of `bat`, charged to `trk`.
fn scan(trk: &mut SimTracker, bat: &Bat, pred: ScanPred) -> Vec<Oid> {
    select(trk, ScanCol::Plain(bat), &[pred], RowSet::All).unwrap().remove(0)
}

/// `code(needle) == code(x)` over a string column.
fn eq_str(bat: &Bat, needle: &str) -> ScanPred {
    ScanPred::EqCode { code: bat.tail().as_str_col().unwrap().dict.code_of(needle).unwrap() }
}

/// An ungrouped sum of `bat` (`SumF64` or `SumI64`, as its type asks) over
/// `rows`, charged to `trk`.
fn sum(trk: &mut SimTracker, bat: &Bat, rows: Rows<'_>) -> f64 {
    let sink = if bat.tail().as_f64().is_some() { Sink::SumF64 } else { Sink::SumI64 };
    let f = fold(trk, rows, None, &[(Input { bat, side: Side::Left }, sink)], 1).unwrap();
    match &f.cols[0] {
        Acc::Exact(s) => s[0] as f64,
        sums => sums.f64_sum(0).unwrap(),
    }
}

fn close(actual: u64, expect: f64, tol: f64) -> bool {
    (actual as f64 - expect).abs() <= tol * expect
}

#[test]
fn byte_encoded_select_misses_once_per_32_tuples() {
    let vals: Vec<&str> = (0..N).map(|i| if i % 7 == 0 { "MAIL" } else { "AIR" }).collect();
    let bat = Bat::with_void_head(0, Column::Str(StrColumn::from_strs(vals)));
    let mut trk = sim();
    let cands = scan(&mut trk, &bat, eq_str(&bat, "MAIL"));
    assert_eq!(cands.len(), N.div_ceil(7));
    let misses = trk.counters().l1_misses;
    assert!(
        close(misses, expect_l1(N, 1), 0.15),
        "stride-1 scan: {misses} misses vs ~{}",
        expect_l1(N, 1)
    );
}

#[test]
fn i32_select_misses_once_per_8_tuples() {
    let bat = Bat::with_void_head(0, Column::I32((0..N as i32).collect()));
    let mut trk = sim();
    let _ = scan(&mut trk, &bat, ScanPred::RangeI32 { lo: 0, hi: 10 });
    let misses = trk.counters().l1_misses;
    assert!(
        close(misses, expect_l1(N, 4), 0.15),
        "stride-4 scan: {misses} misses vs ~{}",
        expect_l1(N, 4)
    );
}

#[test]
fn f64_sum_misses_once_per_4_tuples() {
    let bat = Bat::with_void_head(0, Column::F64((0..N).map(|i| i as f64).collect()));
    let mut trk = sim();
    let s = sum(&mut trk, &bat, Rows::All(N));
    assert!(s > 0.0);
    let misses = trk.counters().l1_misses;
    assert!(
        close(misses, expect_l1(N, 8), 0.15),
        "stride-8 scan: {misses} misses vs ~{}",
        expect_l1(N, 8)
    );
}

#[test]
fn stride_ratios_match_figure3_shape() {
    // The three strides above, relative to each other: 1 : 4 : 8.
    let byte_bat = Bat::with_void_head(
        0,
        Column::Str(StrColumn::from_strs((0..N).map(|_| "X").collect::<Vec<_>>())),
    );
    let int_bat = Bat::with_void_head(0, Column::I32(vec![1; N]));
    let f_bat = Bat::with_void_head(0, Column::F64(vec![1.0; N]));

    let m1 = {
        let mut t = sim();
        scan(&mut t, &byte_bat, eq_str(&byte_bat, "X"));
        t.counters().l1_misses as f64
    };
    let m4 = {
        let mut t = sim();
        scan(&mut t, &int_bat, ScanPred::RangeI32 { lo: 0, hi: 2 });
        t.counters().l1_misses as f64
    };
    let m8 = {
        let mut t = sim();
        sum(&mut t, &f_bat, Rows::All(N));
        t.counters().l1_misses as f64
    };
    assert!((m4 / m1 - 4.0).abs() < 0.6, "4-byte/1-byte miss ratio {}", m4 / m1);
    assert!((m8 / m1 - 8.0).abs() < 1.0, "8-byte/1-byte miss ratio {}", m8 / m1);
}

#[test]
fn sparse_gather_misses_once_per_candidate() {
    // Candidates 16 tuples (64 B) apart: every fetch is its own line ⇒
    // ~1 L1 miss per candidate; dense candidates amortize like a scan.
    let bat = Bat::with_void_head(0, Column::I32((0..N as i32).collect()));
    let sparse: Vec<u32> = (0..N as u32).step_by(16).collect();
    let mut trk = sim();
    let _ = gather(&mut trk, bat.tail().as_i32().unwrap(), 0, &sparse);
    let sparse_misses = trk.counters().l1_misses;
    assert!(
        close(sparse_misses, sparse.len() as f64, 0.15),
        "sparse gather: {sparse_misses} misses for {} candidates",
        sparse.len()
    );

    let dense: Vec<u32> = (0..sparse.len() as u32).collect();
    let mut trk = sim();
    let _ = gather(&mut trk, bat.tail().as_i32().unwrap(), 0, &dense);
    let dense_misses = trk.counters().l1_misses;
    assert!(
        (dense_misses as f64) < sparse_misses as f64 / 4.0,
        "dense gather {dense_misses} should amortize vs sparse {sparse_misses}"
    );
}

#[test]
fn candidate_aggregate_beats_full_scan_when_selective() {
    // Summing 1% of tuples via candidates must touch far less memory than
    // the full scan (the point of producing candidate lists at all).
    let bat = Bat::with_void_head(0, Column::I32((0..N as i32).collect()));
    let cands: Vec<u32> = (0..N as u32).step_by(100).collect();

    let mut t_full = sim();
    sum(&mut t_full, &bat, Rows::All(N));
    let mut t_cand = sim();
    sum(&mut t_cand, &bat, Rows::Cands(&cands));

    assert!(
        t_cand.counters().l1_misses * 5 < t_full.counters().l1_misses,
        "candidates {} vs full {}",
        t_cand.counters().l1_misses,
        t_full.counters().l1_misses
    );
}
