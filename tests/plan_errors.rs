//! Exhaustive coverage of the [`PlanError`] surface: every variant the
//! builder can emit — unknown column, type mismatch, ambiguous join-side
//! column, multiple joins, unsupported shapes — plus the end-to-end
//! regression pinning the dictionary-miss → empty-result contract through
//! `execute` (sequential, simulated, and parallel), against the
//! row-at-a-time reference.

#[path = "common/reference.rs"]
mod reference;

use monet_mem::core::storage::{ColType, DecomposedTable, TableBuilder, Value, ValueType};
use monet_mem::engine::exec::{execute, ExecOptions, QueryOutput, Threads};
use monet_mem::engine::plan::{Agg, LogicalPlan, PlanError, PlanNode, Pred, Query};
use monet_mem::engine::EngineError;
use monet_mem::memsim::{profiles, NullTracker, SimTracker};

fn item() -> DecomposedTable {
    let mut b = TableBuilder::new("item", 0)
        .column("qty", ColType::I32)
        .column("price", ColType::F64)
        .column("shipmode", ColType::Str);
    for (q, p, s) in [(1, 10.5, "AIR"), (2, 20.25, "MAIL"), (3, 30.0, "AIR"), (2, 5.0, "SHIP")] {
        b.push_row(&[Value::I32(q), Value::F64(p), Value::from(s)]).unwrap();
    }
    b.finish()
}

fn modes() -> DecomposedTable {
    let mut b =
        TableBuilder::new("modes", 100).column("id", ColType::I32).column("fee", ColType::F64);
    for (i, f) in [(1, 0.5), (2, 0.7), (9, 0.9)] {
        b.push_row(&[Value::I32(i), Value::F64(f)]).unwrap();
    }
    b.finish()
}

#[test]
fn unknown_column_everywhere_it_can_occur() {
    let t = item();
    let m = modes();

    // In a filter.
    let err = Query::scan(&t).filter(Pred::range_i32("ghost", 0, 1)).build().unwrap_err();
    assert!(
        matches!(err, PlanError::UnknownColumn { ref column, ref searched }
            if column == "ghost" && searched == &vec!["item".to_owned()]),
        "{err:?}"
    );

    // As a join key (either side).
    let err = Query::scan(&t).join(&m, ("ghost", "id")).build().unwrap_err();
    assert!(matches!(err, PlanError::UnknownColumn { ref column, .. } if column == "ghost"));
    let err = Query::scan(&t).join(&m, ("qty", "ghost")).build().unwrap_err();
    assert!(matches!(err, PlanError::UnknownColumn { ref column, .. } if column == "ghost"));

    // As a group key and an aggregate input; after a join both table names
    // appear in the search list.
    let err = Query::scan(&t).group_by("ghost").agg(Agg::count()).build().unwrap_err();
    assert!(matches!(err, PlanError::UnknownColumn { ref column, .. } if column == "ghost"));
    let err = Query::scan(&t).join(&m, ("qty", "id")).agg(Agg::sum("ghost")).build().unwrap_err();
    match err {
        PlanError::UnknownColumn { column, searched } => {
            assert_eq!(column, "ghost");
            assert_eq!(searched, vec!["item".to_owned(), "modes".to_owned()]);
        }
        other => panic!("unexpected {other:?}"),
    }

    // The error displays helpfully.
    let err = Query::scan(&t).agg(Agg::min("ghost")).build().unwrap_err();
    let text = err.to_string();
    assert!(text.contains("ghost") && text.contains("item"), "{text}");
}

#[test]
fn column_type_mismatch_for_every_typed_slot() {
    let t = item();
    let m = modes();

    // Filter leaves.
    let err = Query::scan(&t).filter(Pred::range_i32("price", 0, 1)).build().unwrap_err();
    assert!(matches!(
        err,
        PlanError::ColumnType { ref column, got: ValueType::F64, .. } if column == "price"
    ));
    let err = Query::scan(&t).filter(Pred::range_f64("qty", 0.0, 1.0)).build().unwrap_err();
    assert!(matches!(err, PlanError::ColumnType { got: ValueType::I32, .. }));
    let err = Query::scan(&t).filter(Pred::eq_str("qty", "AIR")).build().unwrap_err();
    assert!(matches!(err, PlanError::ColumnType { got: ValueType::I32, .. }));

    // Join keys must be joinable (I32/Oid).
    let err = Query::scan(&t).join(&m, ("price", "id")).build().unwrap_err();
    assert!(matches!(err, PlanError::ColumnType { got: ValueType::F64, .. }));
    let err = Query::scan(&t).join(&m, ("qty", "fee")).build().unwrap_err();
    assert!(matches!(err, PlanError::ColumnType { got: ValueType::F64, .. }));

    // Group keys must be encoded (Str/U8); aggregates must be numeric.
    let err = Query::scan(&t).group_by("price").agg(Agg::count()).build().unwrap_err();
    assert!(matches!(err, PlanError::ColumnType { got: ValueType::F64, .. }));
    let err = Query::scan(&t).agg(Agg::sum("shipmode")).build().unwrap_err();
    assert!(matches!(err, PlanError::ColumnType { got: ValueType::Str, .. }));
    let err = Query::scan(&t).agg(Agg::max("price")).build().unwrap_err();
    assert!(matches!(err, PlanError::ColumnType { expected: "I32", .. }));
}

#[test]
fn ambiguous_join_side_columns_are_rejected() {
    let t = item();
    // Self-join: "shipmode" and "price" exist on both sides.
    let err = Query::scan(&t)
        .join(&t, ("qty", "qty"))
        .group_by("shipmode")
        .agg(Agg::sum("price"))
        .build()
        .unwrap_err();
    assert!(
        matches!(err, PlanError::AmbiguousColumn { ref column } if column == "shipmode"),
        "{err:?}"
    );
    let err = Query::scan(&t).join(&t, ("qty", "qty")).agg(Agg::sum("price")).build().unwrap_err();
    assert!(matches!(err, PlanError::AmbiguousColumn { ref column } if column == "price"));
    assert!(err.to_string().contains("ambiguous"), "{err}");
}

#[test]
fn multiple_joins_and_unsupported_shapes() {
    let t = item();
    let m = modes();
    let err = Query::scan(&t).join(&m, ("qty", "id")).join(&m, ("qty", "id")).build().unwrap_err();
    assert_eq!(err, PlanError::Unsupported("multiple joins in one plan"));

    // Three joins: still one clean error, nothing silently dropped.
    let err = Query::scan(&t)
        .join(&m, ("qty", "id"))
        .join(&m, ("qty", "id"))
        .join(&m, ("qty", "id"))
        .build()
        .unwrap_err();
    assert!(matches!(err, PlanError::Unsupported(_)));

    // Other Unsupported emitters: group without aggregates. (Grouped
    // min/max used to be one; it is a supported plan shape now.)
    let err = Query::scan(&t).group_by("shipmode").build().unwrap_err();
    assert!(matches!(err, PlanError::Unsupported(_)));
    assert!(Query::scan(&t).group_by("shipmode").agg(Agg::min("qty")).build().is_ok());

    // Hand-built trees the builder cannot produce surface Unsupported
    // through execute() rather than panicking.
    let inner = Query::scan(&t).group_by("shipmode").agg(Agg::count()).build().unwrap();
    let bad = LogicalPlan {
        root: PlanNode::Filter { input: Box::new(inner.root), pred: Pred::range_i32("qty", 0, 1) },
    };
    let err = execute(&mut NullTracker, &bad, &ExecOptions::default()).unwrap_err();
    assert!(matches!(err, EngineError::Plan(PlanError::Unsupported(_))), "{err:?}");
}

#[test]
fn constant_not_in_dictionary_is_an_empty_result_end_to_end() {
    // The regression contract: a selection constant missing from the
    // dictionary is a provably empty selection, NOT an error — on every
    // execution path (sequential, simulated, parallel) and in every
    // composition (bare, AND, OR, grouped, joined).
    let t = item();
    let m = modes();

    let grouped = Query::scan(&t)
        .filter(Pred::eq_str("shipmode", "ZEPPELIN"))
        .group_by("shipmode")
        .agg(Agg::sum("price"))
        .build()
        .unwrap();
    let bare = Query::scan(&t).filter(Pred::eq_str("shipmode", "ZEPPELIN")).build().unwrap();
    let ored = Query::scan(&t)
        .filter(Pred::eq_str("shipmode", "ZEPPELIN").or(Pred::eq_str("shipmode", "SHIP")))
        .build()
        .unwrap();
    let anded = Query::scan(&t)
        .filter(Pred::range_i32("qty", 0, 99).and(Pred::eq_str("shipmode", "ZEPPELIN")))
        .join(&m, ("qty", "id"))
        .agg(Agg::sum("fee"))
        .agg(Agg::count())
        .build()
        .unwrap();

    for threads in [Threads::Fixed(1), Threads::Fixed(4), Threads::Auto] {
        let opts = ExecOptions::default().with_threads(threads);
        let run = |plan| {
            let out = execute(&mut NullTracker, plan, &opts).unwrap().output;
            assert!(out.bitwise_eq(&reference::evaluate(plan)), "{threads:?}: {out:?}");
            out
        };
        assert_eq!(run(&grouped), QueryOutput::Groups(vec![]), "{threads:?}");
        assert_eq!(run(&bare), QueryOutput::Oids(vec![]), "{threads:?}");
        // The empty leaf contributes nothing to the OR; SHIP is row 3.
        assert_eq!(run(&ored), QueryOutput::Oids(vec![3]), "{threads:?}");
        // AND with the empty leaf annihilates the join input: zero rows
        // survive, so the aggregates see an empty stream.
        assert_eq!(
            run(&anded),
            QueryOutput::Aggregates(vec![
                monet_mem::engine::exec::AggValue::F64(0.0),
                monet_mem::engine::exec::AggValue::Count(0),
            ]),
            "{threads:?}"
        );
    }

    // Same under simulation.
    let mut trk = SimTracker::for_machine(profiles::origin2000());
    let r = execute(&mut trk, &grouped, &ExecOptions::default()).unwrap();
    assert_eq!(r.output, QueryOutput::Groups(vec![]));
}
