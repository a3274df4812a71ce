//! Admission prices are pinned, and priced on the plan that runs.
//!
//! The whole-query quote of every plan class of the seeded `QueryMix`
//! rotation is the quote of its physical plan: the access paths, the
//! conjunction order and the planner's cardinalities `execute` runs with.
//! The scheduler ranks by these numbers, so a change that moves one moves
//! shortest-cost-first order and must re-record it here. And the shapes
//! the quote prices are, operator by operator, the shapes execution
//! reports: the same kinds, as many of each, and the join runs and
//! reports the plan the physical plan chose, even where its inner side
//! keeps fewer rows than estimated.

use costmodel::quote::{OpShape, ShapeKind};
use engine::access::{CompressMode, PushdownMode};
use engine::exec::{execute, ExecOptions};
use engine::physical;
use engine::plan::{Agg, LogicalPlan, Pred, Query};
use memsim::{profiles, NullTracker};
use monet_core::storage::{ColType, DecomposedTable, TableBuilder, Value};
use monet_core::IndexKind;
use service::quote_plan;
use workload::{item_table, QueryMix, QuerySpec};

fn supplier(n: usize) -> DecomposedTable {
    let mut b =
        TableBuilder::new("supplier", 0).column("id", ColType::I32).column("rating", ColType::F64);
    for i in 1..=n {
        b.push_row(&[Value::I32(i as i32), Value::F64((i % 7) as f64 / 2.0)]).unwrap();
    }
    b.finish()
}

/// `(label, seq_ns, items, ops)` of the first plan of each class in the
/// rotation — the quote follows the planner's estimates, so it depends on a
/// plan's constants too — on `origin2000`, a 20 000-row Item table (seed 42)
/// and a 500-row supplier dimension.
type Golden = [(&'static str, f64, usize, usize); 6];

const COMPRESS_AND_PUSHDOWN_ON: Golden = [
    ("needle", 424031.013671875, 20114, 4),
    ("drill", 9351679.6875, 50000, 4),
    ("join", 4692339.2333984375, 33700, 4),
    ("sweep", 4688533.974609375, 74000, 4),
    ("extremes", 9670292.96875, 50000, 4),
    // The `batch` band's frame headers estimate it empty (it is: the
    // select returns 0 rows), so the planner leads with it, the later
    // leaves are restricted to no candidates and the fold takes none (with
    // pushdown off, below, every leaf keeps its full pass and only the
    // fold is empty).
    ("selective", 335054.6162109375, 20000, 5),
];

const COMPRESS_AND_PUSHDOWN_OFF: Golden = [
    ("needle", 1043722.79296875, 40114, 4),
    ("drill", 9351679.6875, 50000, 4),
    ("join", 4949938.0712890625, 33700, 4),
    ("sweep", 4946132.8125, 74000, 4),
    ("extremes", 9670292.96875, 50000, 4),
    ("selective", 1915935.56640625, 60000, 5),
];

#[test]
fn the_first_64_mix_plans_quote_their_physical_plans() {
    let machine = profiles::origin2000();
    let item = item_table(20_000, 42);
    let supp = supplier(500);
    let specs = QueryMix::for_client(42, 0).take(64);
    let mut firsts: Vec<&QuerySpec> = Vec::new();
    for spec in &specs {
        if firsts.iter().all(|f| f.label() != spec.label()) {
            firsts.push(spec);
        }
    }
    for (compress, pushdown, golden) in [
        (CompressMode::On, PushdownMode::On, COMPRESS_AND_PUSHDOWN_ON),
        (CompressMode::Off, PushdownMode::Off, COMPRESS_AND_PUSHDOWN_OFF),
    ] {
        let opts = ExecOptions::cost_model(machine).with_compress(compress).with_pushdown(pushdown);
        assert_eq!(firsts.len(), golden.len(), "the rotation covers every class");
        for spec in &firsts {
            let plan = spec.build(&item, &supp).unwrap();
            let q = physical::plan(&mut NullTracker, &plan, &opts).unwrap().quote(|_| None);
            let &(label, seq_ns, items, ops) =
                golden.iter().find(|g| g.0 == spec.label()).expect("every class has a golden");
            assert!(
                (q.seq_ns - seq_ns).abs() <= 1e-9 * seq_ns,
                "{label} (compress {}, pushdown {}): {} vs {seq_ns}",
                compress.name(),
                pushdown.name(),
                q.seq_ns
            );
            assert_eq!((q.items, q.ops), (items, ops), "{label}");
        }
    }
    // The pinned entry point is the same quote under the default policy.
    let env = ExecOptions::cost_model(machine);
    for spec in &specs {
        let plan = spec.build(&item, &supp).unwrap();
        let physical = physical::plan(&mut NullTracker, &plan, &env).unwrap();
        assert_eq!(quote_plan(&machine, &plan), physical.quote(|_| None));
    }
}

fn kinds(shapes: &[OpShape]) -> Vec<ShapeKind> {
    shapes.iter().map(|s| s.kind()).collect()
}

/// At one thread and with nothing shared, every operator the physical plan
/// quotes runs with the shapes it was quoted with — cardinalities aside.
#[test]
fn the_physical_plan_quotes_the_shapes_execution_reports() {
    let machine = profiles::origin2000();
    let item = item_table(20_000, 42);
    let supp = supplier(500);
    let mut plans: Vec<(String, LogicalPlan<'_>)> = Vec::new();
    let mut mix = QueryMix::for_client(42, 0);
    let mut seen = std::collections::BTreeSet::new();
    while seen.len() < 6 {
        let spec = mix.next_spec();
        if seen.insert(spec.label()) {
            plans.push((spec.label().to_owned(), spec.build(&item, &supp).unwrap()));
        }
    }
    let band = QuerySpec::Band { col: "date1", lo: 9_000, hi: 9_400 };
    plans.push(("band".to_owned(), band.build(&item, &supp).unwrap()));
    // A fact-to-dimension join returned as its join index.
    let join = Query::scan(&item).filter(Pred::range_i32("qty", 3, 9)).join(&supp, ("supp", "id"));
    plans.push(("join index".to_owned(), join.build().unwrap()));
    let grouped = Query::scan(&item)
        .filter(Pred::range_i32("qty", 3, 9).and(Pred::eq_str("shipmode", "AIR")))
        .join(&supp, ("supp", "id"))
        .group_by("shipmode")
        .agg(Agg::sum("rating"))
        .agg(Agg::max("qty"));
    plans.push(("grouped join".to_owned(), grouped.build().unwrap()));
    // A join whose inner side is filtered: the planner estimates the
    // unindexed `rating` band at half the dimension, and 3/7 of it runs.
    let filtered = Query::scan(&item)
        .join(&supp, ("supp", "id"))
        .filter(Pred::range_f64("rating", 1.0, 2.0))
        .agg(Agg::count());
    plans.push(("filtered inner".to_owned(), filtered.build().unwrap()));
    for (compress, pushdown) in
        [(CompressMode::On, PushdownMode::On), (CompressMode::Off, PushdownMode::Off)]
    {
        let opts = ExecOptions::cost_model(machine).with_compress(compress).with_pushdown(pushdown);
        for (label, plan) in &plans {
            let physical = physical::plan(&mut NullTracker, plan, &opts).unwrap();
            let planned = physical.shapes();
            let run = execute(&mut NullTracker, plan, &opts).unwrap();
            let ran: Vec<&[OpShape]> = run.report.ops.iter().map(|o| &o.shapes[..]).collect();
            assert_eq!(planned.len(), ran.len(), "{label}: one shape list per operator");
            for (i, (p, r)) in planned.iter().zip(&ran).enumerate() {
                assert_eq!(kinds(p), kinds(r), "{label}, op {i} ({})", run.report.ops[i].op);
            }
            // The join runs, and reports, the plan the physical plan chose —
            // at the rows it actually met.
            let join = |shapes: &[&[OpShape]]| {
                shapes.iter().flat_map(|s| s.iter()).find_map(|s| match *s {
                    OpShape::Join { inner, algorithm, bits, .. } => Some((inner, algorithm, bits)),
                    _ => None,
                })
            };
            let planned: Vec<&[OpShape]> = planned.iter().map(Vec::as_slice).collect();
            match (physical.join_plan(), join(&planned), join(&ran)) {
                (Some(jp), Some((est, pa, pb)), Some((inner, ra, rb))) => {
                    assert_eq!((pa, pb), (jp.algorithm, jp.bits), "{label}: quoted");
                    assert_eq!((ra, rb), (jp.algorithm, jp.bits), "{label}: ran");
                    if label == "filtered inner" {
                        assert_eq!((est, inner), (250, 215), "{label}: estimated vs actual");
                    }
                }
                (None, None, None) => {}
                (jp, p, r) => panic!("{label}: planned {jp:?}, quoted {p:?}, ran {r:?}"),
            }
        }
    }
}

/// A range its B+-tree counts empty is planned empty: the fold the
/// physical plan quotes takes the rows execution folds — none — and not
/// the half of the table a leaf without an estimate is guessed to keep.
#[test]
fn an_index_counted_empty_range_plans_an_empty_fold() {
    let mut item = item_table(200_000, 42);
    item.create_index("qty", IndexKind::CsBTree).unwrap();
    let plan =
        Query::scan(&item).filter(Pred::range_i32("qty", 60, 70)).agg(Agg::sum("price")).build();
    let plan = plan.unwrap();
    let opts = ExecOptions::cost_model(profiles::origin2000());
    let planned = physical::plan(&mut NullTracker, &plan, &opts).unwrap().shapes();
    let run = execute(&mut NullTracker, &plan, &opts).unwrap();
    let select = &run.report.ops[1];
    assert_eq!(select.access[0].matches_est, Some(0), "{}", select.detail);
    let fold = run.report.ops.last().unwrap();
    assert_eq!(fold.rows_in, 0);
    assert_eq!(planned.last(), Some(&fold.shapes), "the planned fold is the executed one");
}
