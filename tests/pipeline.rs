//! Cross-crate integration: workload → storage → engine operators →
//! join kernels, validated against naive row-at-a-time computation — plus
//! the composable plan API against both.

use monet_mem::core::join::{sort_pairs, OidPair};
use monet_mem::core::storage::{Bat, Column, DecomposedTable, Value};
use monet_mem::core::strategy::{Algorithm, JoinPlan};
use monet_mem::engine::aggregate::{fold, Acc, Input, Rows, Side, Sink};
use monet_mem::engine::exec::{execute, AggValue, ExecOptions, QueryOutput};
use monet_mem::engine::join::{join_bats, join_bats_with_plan};
use monet_mem::engine::plan::{Agg, Pred, Query};
use monet_mem::engine::reconstruct::reconstruct;
use monet_mem::engine::select::{range_select_f64, range_select_i32, select_eq_str};
use monet_mem::memsim::{profiles, NullTracker};
use monet_mem::workload::{item_rows, item_table};

const N: usize = 20_000;
const SEED: u64 = 1234;

fn col<'a>(table: &'a DecomposedTable, name: &str) -> Input<'a> {
    Input { bat: table.bat(name).unwrap(), side: Side::Left }
}

/// `SUM(price)` of `table`'s `rows`, per `shipmode` when `grouped`: the
/// totals per group code, and the shipmode each occurring code decodes to.
fn price_sums(table: &DecomposedTable, rows: Rows<'_>, grouped: bool) -> Vec<(String, f64)> {
    let key = grouped.then(|| col(table, "shipmode"));
    let f = fold(&mut NullTracker, rows, key, &[(col(table, "price"), Sink::SumF64)], 1).unwrap();
    let Acc::F64(sums) = &f.cols[0] else { panic!("f64 sums") };
    let dict = &table.bat("shipmode").unwrap().tail().as_str_col().unwrap().dict;
    (0..f.counts.len())
        .filter(|&c| f.counts[c] > 0)
        .map(|c| (dict.decode(c as u32).to_owned(), sums[c]))
        .collect()
}

#[test]
fn selection_matches_row_scan() {
    let table = item_table(N, SEED);
    let rows = item_rows(N, SEED);

    let qty = table.bat("qty").unwrap();
    let got = range_select_i32(&mut NullTracker, qty, 10, 20).unwrap();
    let expect: Vec<u32> = rows
        .iter()
        .enumerate()
        .filter(|(_, r)| (10..=20).contains(&r.qty))
        .map(|(i, _)| table.seqbase() + i as u32)
        .collect();
    assert_eq!(got, expect);
    assert!(!got.is_empty());
}

#[test]
fn encoded_string_selection_matches_row_scan() {
    let table = item_table(N, SEED);
    let rows = item_rows(N, SEED);
    let ship = table.bat("shipmode").unwrap();
    let got = select_eq_str(&mut NullTracker, ship, "REG AIR").unwrap();
    let expect: Vec<u32> = rows
        .iter()
        .enumerate()
        .filter(|(_, r)| r.shipmode == "REG AIR")
        .map(|(i, _)| table.seqbase() + i as u32)
        .collect();
    assert_eq!(got, expect);
}

#[test]
fn aggregates_match_row_scan() {
    let table = item_table(N, SEED);
    let rows = item_rows(N, SEED);

    let cols = [(col(&table, "qty"), Sink::SumI64), (col(&table, "qty"), Sink::Max)];
    let f = fold(&mut NullTracker, Rows::All(N), None, &cols, 1).unwrap();
    let (Acc::Exact(qty_sum), Acc::Exact(qmax)) = (&f.cols[0], &f.cols[1]) else {
        panic!("exact sinks")
    };
    assert_eq!(qty_sum[0], rows.iter().map(|r| r.qty as i64).sum::<i64>());
    assert_eq!(Some(qmax[0]), rows.iter().map(|r| r.qty as i64).max());

    let price_sum = price_sums(&table, Rows::All(N), false)[0].1;
    let expect: f64 = rows.iter().map(|r| r.price).sum();
    assert!((price_sum - expect).abs() < 1e-6 * expect);
}

#[test]
fn filtered_aggregate_via_candidates_matches_row_scan() {
    let table = item_table(N, SEED);
    let rows = item_rows(N, SEED);

    let cands =
        range_select_f64(&mut NullTracker, table.bat("discnt").unwrap(), 0.05, 0.10).unwrap();
    let got = price_sums(&table, Rows::Cands(&cands), false)[0].1;
    let expect: f64 =
        rows.iter().filter(|r| (0.05..=0.10).contains(&r.discnt)).map(|r| r.price).sum();
    assert!((got - expect).abs() < 1e-6 * expect.max(1.0));
}

#[test]
fn grouped_query_matches_row_scan_and_group_variants_agree() {
    let table = item_table(N, SEED);
    let rows = item_rows(N, SEED);

    let plan = Query::scan(&table)
        .filter(Pred::range_f64("discnt", 0.0, 0.05))
        .group_by("shipmode")
        .agg(Agg::sum("price"))
        .build()
        .unwrap();
    let executed = execute(&mut NullTracker, &plan, &ExecOptions::default()).unwrap();
    let QueryOutput::Groups(got) = executed.output else { panic!("groups") };

    let mut expect: std::collections::BTreeMap<String, f64> = Default::default();
    for r in &rows {
        if (0.0..=0.05).contains(&r.discnt) {
            *expect.entry(r.shipmode.clone()).or_default() += r.price;
        }
    }
    assert_eq!(got.len(), expect.len());
    for g in &got {
        let (e, sum) = (expect[&g.key], g.values[0].as_f64());
        assert!((sum - e).abs() < 1e-6 * e.abs().max(1.0), "{}: {sum} vs {e}", g.key);
    }
}

#[test]
fn reconstruct_roundtrip() {
    let table = item_table(1_000, SEED);
    let cands = range_select_i32(&mut NullTracker, table.bat("qty").unwrap(), 1, 5).unwrap();
    let sub = reconstruct(&mut NullTracker, table.bat("qty").unwrap(), &cands).unwrap();
    assert_eq!(sub.len(), cands.len());
    for (i, &cand) in cands.iter().enumerate() {
        let (oid, v) = sub.bun(i);
        assert_eq!(oid, cand);
        let full = table.tuple(oid).unwrap();
        assert_eq!(v, full[4], "qty is column 4");
        if let Value::I32(q) = v {
            assert!((1..=5).contains(&q));
        } else {
            panic!("qty must be I32");
        }
    }
}

#[test]
fn engine_join_agrees_with_plans_and_machine_choice() {
    // Two foreign-key-ish columns.
    let l = Bat::with_void_head(0, Column::I32((0..5_000).map(|i| i % 997).collect()));
    let r = Bat::with_void_head(9_000, Column::I32((0..997).collect()));
    let auto = sort_pairs(join_bats(&mut NullTracker, &l, &r, &profiles::origin2000()).unwrap());
    assert_eq!(auto.len(), 5_000);

    for algorithm in
        [Algorithm::SimpleHash, Algorithm::PartitionedHash, Algorithm::Radix, Algorithm::SortMerge]
    {
        let bits =
            if matches!(algorithm, Algorithm::PartitionedHash | Algorithm::Radix) { 6 } else { 0 };
        let plan =
            JoinPlan { algorithm, bits, pass_bits: if bits == 0 { vec![] } else { vec![3, 3] } };
        let got = sort_pairs(join_bats_with_plan(&mut NullTracker, &l, &r, &plan).unwrap());
        assert_eq!(got, auto, "{algorithm:?}");
    }

    // Spot-check a pair against first principles.
    let first = auto.iter().find(|p| p.left == 0).unwrap();
    assert_eq!(*first, OidPair::new(0, 9_000), "qty 0 joins key 0 at seqbase 9000");
}

#[test]
fn builder_query_matches_wrapper_and_row_scan() {
    let table = item_table(N, SEED);
    let rows = item_rows(N, SEED);

    // Hand-composed: a scan-select feeding the gather-and-fold directly...
    let cands =
        range_select_f64(&mut NullTracker, table.bat("discnt").unwrap(), 0.02, 0.07).unwrap();
    let mut via_wrapper = price_sums(&table, Rows::Cands(&cands), true);
    via_wrapper.sort_by(|a, b| a.0.cmp(&b.0));

    // ...and the builder that composes the same, with an extra COUNT column.
    let plan = Query::scan(&table)
        .filter(Pred::range_f64("discnt", 0.02, 0.07))
        .group_by("shipmode")
        .agg(Agg::sum("price"))
        .agg(Agg::count())
        .build()
        .unwrap();
    let executed = execute(&mut NullTracker, &plan, &ExecOptions::default()).unwrap();
    let QueryOutput::Groups(mut via_builder) = executed.output else { panic!("groups") };
    via_builder.sort_by(|a, b| a.key.cmp(&b.key));

    // The executor reported every operator of the pipeline.
    assert_eq!(executed.report.ops.len(), 3, "scan, select, group");
    assert!(executed.report.ops[1].rows_out <= executed.report.ops[1].rows_in);

    // Both agree with each other and with the naive row scan.
    let mut expect: std::collections::BTreeMap<String, (f64, usize)> = Default::default();
    for r in &rows {
        if (0.02..=0.07).contains(&r.discnt) {
            let e = expect.entry(r.shipmode.clone()).or_default();
            e.0 += r.price;
            e.1 += 1;
        }
    }
    assert_eq!(via_wrapper.len(), expect.len());
    assert_eq!(via_builder.len(), expect.len());
    for ((key, sum), b) in via_wrapper.iter().zip(&via_builder) {
        assert_eq!(key, &b.key);
        let (esum, ecnt) = expect[key];
        assert!((sum - esum).abs() < 1e-6 * esum.abs().max(1.0));
        match (&b.values[0], &b.values[1]) {
            (AggValue::F64(s), AggValue::Count(c)) => {
                assert!((s - esum).abs() < 1e-6 * esum.abs().max(1.0));
                assert_eq!(*c, ecnt);
            }
            other => panic!("sum+count, got {other:?}"),
        }
    }
}

#[test]
fn builder_join_agrees_with_direct_kernel_calls() {
    // item ⋈ item on the supp key, via the API (executor-planned) and via
    // the hand-wired kernel dispatch.
    let table = item_table(3_000, SEED);
    let plan = Query::scan(&table).join(&table, ("supp", "supp")).build().unwrap();
    let executed = execute(&mut NullTracker, &plan, &ExecOptions::default()).unwrap();
    let QueryOutput::JoinIndex(got) = executed.output else { panic!("join index") };

    let supp = table.bat("supp").unwrap();
    let expect = join_bats(&mut NullTracker, supp, supp, &profiles::origin2000()).unwrap();
    assert_eq!(sort_pairs(got), sort_pairs(expect));
}

#[test]
fn dictionary_survives_decomposition_and_reconstruction() {
    let table = item_table(2_000, SEED);
    let ship = table.bat("shipmode").unwrap();
    let cands = select_eq_str(&mut NullTracker, ship, "TRUCK").unwrap();
    let sub = reconstruct(&mut NullTracker, ship, &cands).unwrap();
    for i in 0..sub.len() {
        assert_eq!(sub.tail_value(i), Value::Str("TRUCK".into()));
    }
}
