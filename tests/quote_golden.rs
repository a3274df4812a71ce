//! Admission prices are pinned, and priced on the plan that runs.
//!
//! The whole-query quote of every plan class of the seeded `QueryMix`
//! rotation is the quote of its physical plan: the access paths, the
//! conjunction order and the planner's cardinalities `execute` runs with.
//! The scheduler ranks by these numbers, so a change that moves one moves
//! shortest-cost-first order and must re-record it here. And the shapes
//! the quote prices are, operator by operator, the shapes execution
//! reports: the same kinds, as many of each.

use costmodel::quote::{OpShape, ShapeKind};
use engine::access::{CompressMode, PushdownMode};
use engine::exec::{execute, ExecOptions};
use engine::physical;
use engine::plan::{Agg, LogicalPlan, Pred, Query};
use memsim::{profiles, NullTracker};
use monet_core::storage::{ColType, DecomposedTable, TableBuilder, Value};
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
    ("selective", 435319.1845703125, 20010, 5),
];

const COMPRESS_AND_PUSHDOWN_OFF: Golden = [
    ("needle", 1043722.79296875, 40114, 4),
    ("drill", 9351679.6875, 50000, 4),
    ("join", 4949938.0712890625, 33700, 4),
    ("sweep", 4946132.8125, 74000, 4),
    ("extremes", 9670292.96875, 50000, 4),
    ("selective", 1916318.45703125, 60010, 5),
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
    for (compress, pushdown) in
        [(CompressMode::On, PushdownMode::On), (CompressMode::Off, PushdownMode::Off)]
    {
        let opts = ExecOptions::cost_model(machine).with_compress(compress).with_pushdown(pushdown);
        for (label, plan) in &plans {
            let planned = physical::plan(&mut NullTracker, plan, &opts).unwrap().shapes();
            let run = execute(&mut NullTracker, plan, &opts).unwrap();
            let ran: Vec<&[OpShape]> = run.report.ops.iter().map(|o| &o.shapes[..]).collect();
            assert_eq!(planned.len(), ran.len(), "{label}: one shape list per operator");
            for (i, (p, r)) in planned.iter().zip(&ran).enumerate() {
                assert_eq!(kinds(p), kinds(r), "{label}, op {i} ({})", run.report.ops[i].op);
            }
        }
    }
}
