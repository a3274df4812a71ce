//! Property tests for the composable query API: plans built with
//! `Query::scan(..).filter(..).join(..).group_by(..).agg(..)` and run by the
//! cost-model-driven executor must produce *bit-identical* results to a
//! row-at-a-time oracle that shares no kernel with it
//! (`common/reference.rs`) — and planner-chosen joins must agree with the
//! nested-loop oracle — on arbitrary tables and predicates. Builder
//! validation errors are pinned below the property block.

#[path = "common/reference.rs"]
mod reference;

use proptest::prelude::*;

use monet_mem::core::join::{nested_loop_join, sort_pairs, Bun, OidPair};
use monet_mem::core::storage::{ColType, DecomposedTable, TableBuilder, Value};
use monet_mem::engine::exec::{execute, ExecOptions, QueryOutput, Threads};
use monet_mem::engine::plan::{Agg, PlanError, Pred, Query};
use monet_mem::memsim::{profiles, NullTracker, SimTracker};

const MODES: [&str; 5] = ["AIR", "MAIL", "SHIP", "RAIL", "FOB"];

/// Rows for a small fact table: (key, value, discount-code, mode index).
fn fact_rows(max_len: usize) -> impl Strategy<Value = Vec<(i32, f64, f64, usize)>> {
    prop::collection::vec(
        (0i32..64, 0u32..1000, 0u32..20, 0usize..MODES.len())
            .prop_map(|(k, v, d, m)| (k, v as f64 / 10.0, d as f64 / 100.0, m)),
        0..max_len,
    )
}

fn fact_table(rows: &[(i32, f64, f64, usize)], seqbase: u32) -> DecomposedTable {
    let mut b = TableBuilder::new("fact", seqbase)
        .column("key", ColType::I32)
        .column("value", ColType::F64)
        .column("discnt", ColType::F64)
        .column("mode", ColType::Str);
    for &(k, v, d, m) in rows {
        b.push_row(&[Value::I32(k), Value::F64(v), Value::F64(d), Value::from(MODES[m])]).unwrap();
    }
    b.finish()
}

/// A dimension for the fact table's `key`: (id, rating, bonus, tier index),
/// ids repeating so the join is many-to-many. No column name repeats one of
/// the fact table's.
fn dim_table(rows: &[(i32, i32, f64, usize)], seqbase: u32) -> DecomposedTable {
    let mut b = TableBuilder::new("dim", seqbase)
        .column("id", ColType::I32)
        .column("rating", ColType::I32)
        .column("bonus", ColType::F64)
        .column("tier", ColType::Str);
    for &(id, rating, bonus, tier) in rows {
        b.push_row(&[
            Value::I32(id),
            Value::I32(rating),
            Value::F64(bonus),
            Value::from(MODES[tier]),
        ])
        .unwrap();
    }
    b.finish()
}

/// A bare keys table for the join oracle.
fn key_table(keys: &[i32], seqbase: u32) -> DecomposedTable {
    let mut b = TableBuilder::new("keys", seqbase).column("k", ColType::I32);
    for &k in keys {
        b.push_row(&[Value::I32(k)]).unwrap();
    }
    b.finish()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn builder_pipeline_equals_hand_composed_operators(
        rows in fact_rows(200),
        dims in prop::collection::vec(
            (0i32..64, -50i32..50, 0u32..1000, 0usize..MODES.len())
                .prop_map(|(id, r, b, t)| (id, r, b as f64 / 7.0, t)),
            0..40,
        ),
        bounds in (0u32..20, 0u32..20),
    ) {
        let (a, b) = bounds;
        let (lo, hi) = ((a.min(b)) as f64 / 100.0, (a.max(b)) as f64 / 100.0);
        // Every aggregate at once, over columns of both sides when joined.
        let fact_aggs =
            [Agg::sum("value"), Agg::sum("key"), Agg::min("key"), Agg::max("key"), Agg::count()];
        let dim_aggs = [Agg::sum("bonus"), Agg::sum("rating"), Agg::min("rating"), Agg::max("rating")];
        let both_aggs = [&fact_aggs[..], &dim_aggs[..]].concat();
        for seqbase in [0u32, 700] {
            let table = fact_table(&rows, seqbase);
            let dim = dim_table(&dims, seqbase / 2);
            // {all rows, filtered, joined} × {scalar, grouped on either side}.
            let streams = [
                (Query::scan(&table), &fact_aggs[..], &[None, Some("mode")][..]),
                (
                    Query::scan(&table).filter(Pred::range_f64("discnt", lo, hi)),
                    &fact_aggs[..],
                    &[None, Some("mode")][..],
                ),
                (
                    Query::scan(&table)
                        .filter(Pred::range_f64("discnt", lo, hi))
                        .join(&dim, ("key", "id")),
                    &both_aggs[..],
                    &[None, Some("mode"), Some("tier")][..],
                ),
            ];
            for (stream, aggs, keys) in streams {
                for &key in keys {
                    let q = key.map_or(stream.clone(), |k| stream.clone().group_by(k));
                    let plan = aggs.iter().fold(q, |q, agg| q.agg(agg.clone())).build().unwrap();
                    let expect = reference::evaluate(&plan);
                    for threads in [1usize, 2, 3, 7] {
                        let opts = ExecOptions::default().with_threads(Threads::Fixed(threads));
                        let got = execute(&mut NullTracker, &plan, &opts).unwrap().output;
                        prop_assert!(
                            got.bitwise_eq(&expect),
                            "seqbase={seqbase} key={key:?} threads={threads}:\n{got:?}\nvs\n{expect:?}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn planner_chosen_joins_match_nested_loop_oracle(
        lkeys in prop::collection::vec(0i32..48, 0..120),
        rkeys in prop::collection::vec(0i32..48, 0..80),
    ) {
        let lt = key_table(&lkeys, 0);
        let rt = key_table(&rkeys, 10_000);

        for opts in [
            ExecOptions::default(),                         // cost model
            ExecOptions::heuristic(profiles::origin2000()), // cache heuristics
        ] {
            let plan = Query::scan(&lt).join(&rt, ("k", "k")).build().unwrap();
            let executed = execute(&mut NullTracker, &plan, &opts).unwrap();
            let QueryOutput::JoinIndex(got) = executed.output else { panic!("join index") };

            // Oracle: nested loop over the same [OID, key] tuples.
            let lb: Vec<Bun> =
                lkeys.iter().enumerate().map(|(i, &k)| Bun::new(i as u32, k as u32)).collect();
            let rb: Vec<Bun> = rkeys
                .iter()
                .enumerate()
                .map(|(i, &k)| Bun::new(10_000 + i as u32, k as u32))
                .collect();
            let expect = sort_pairs(nested_loop_join(&mut NullTracker, &lb, &rb));
            prop_assert_eq!(sort_pairs(got), expect);
        }
    }

    #[test]
    fn executor_is_identical_under_simulation(
        rows in fact_rows(120),
        hi in 0u32..20,
    ) {
        // The tracker must never change results, only count events.
        let table = fact_table(&rows, 0);
        let plan = Query::scan(&table)
            .filter(Pred::range_f64("discnt", 0.0, hi as f64 / 100.0))
            .group_by("mode")
            .agg(Agg::sum("value"))
            .agg(Agg::count())
            .build()
            .unwrap();
        let native = execute(&mut NullTracker, &plan, &ExecOptions::default()).unwrap();
        let mut trk = SimTracker::for_machine(profiles::origin2000());
        let simulated = execute(&mut trk, &plan, &ExecOptions::default()).unwrap();
        prop_assert_eq!(native.output, simulated.output);
    }

    #[test]
    fn composed_predicates_match_scan_filtering(
        rows in fact_rows(200),
        kr in (0i32..64, 0i32..64),
        mode in 0usize..MODES.len(),
    ) {
        let (ka, kb) = kr;
        let (klo, khi) = (ka.min(kb), ka.max(kb));
        let table = fact_table(&rows, 100);
        let pred = Pred::range_i32("key", klo, khi).and(Pred::eq_str("mode", MODES[mode]));
        let plan = Query::scan(&table).filter(pred).build().unwrap();
        let executed = execute(&mut NullTracker, &plan, &ExecOptions::default()).unwrap();
        let QueryOutput::Oids(got) = executed.output else { panic!("oids") };

        let expect: Vec<u32> = rows
            .iter()
            .enumerate()
            .filter(|(_, &(k, _, _, m))| (klo..=khi).contains(&k) && m == mode)
            .map(|(i, _)| 100 + i as u32)
            .collect();
        prop_assert_eq!(got, expect);
    }
}

#[test]
fn join_index_spot_check() {
    // Deterministic anchor alongside the property: 2 x 2 match.
    let lt = key_table(&[7, 3, 7], 0);
    let rt = key_table(&[7, 9], 100);
    let plan = Query::scan(&lt).join(&rt, ("k", "k")).build().unwrap();
    let executed = execute(&mut NullTracker, &plan, &ExecOptions::default()).unwrap();
    let QueryOutput::JoinIndex(got) = executed.output else { panic!("join index") };
    assert_eq!(sort_pairs(got), vec![OidPair::new(0, 100), OidPair::new(2, 100)]);
}

#[test]
fn builder_rejects_unknown_columns_and_type_mismatches() {
    let table = key_table(&[1, 2, 3], 0);

    let err = Query::scan(&table).filter(Pred::range_i32("missing", 0, 1)).build().unwrap_err();
    assert!(matches!(err, PlanError::UnknownColumn { ref column, .. } if column == "missing"));

    let err = Query::scan(&table).filter(Pred::eq_str("k", "AIR")).build().unwrap_err();
    assert!(matches!(err, PlanError::ColumnType { ref column, .. } if column == "k"));

    let err = Query::scan(&table).group_by("k").agg(Agg::count()).build().unwrap_err();
    assert!(matches!(err, PlanError::ColumnType { .. }), "I32 is not a groupable key: {err:?}");

    let err = Query::scan(&table).agg(Agg::min("missing")).build().unwrap_err();
    assert!(matches!(err, PlanError::UnknownColumn { .. }));
}

#[test]
fn dictionary_miss_is_empty_not_error() {
    // The executor-level contract for the ConstantNotInDictionary bugfix.
    let rows = vec![(1, 1.0, 0.0, 0), (2, 2.0, 0.0, 1)];
    let table = fact_table(&rows, 0);
    let plan = Query::scan(&table)
        .filter(Pred::eq_str("mode", "ZEPPELIN"))
        .group_by("mode")
        .agg(Agg::sum("value"))
        .build()
        .unwrap();
    let executed = execute(&mut NullTracker, &plan, &ExecOptions::default()).unwrap();
    assert_eq!(executed.output, QueryOutput::Groups(vec![]));
}
