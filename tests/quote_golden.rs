//! Admission prices are pinned: the whole-query quote of every plan class
//! of the seeded `QueryMix` rotation equals the value recorded at the last
//! commit that priced selects through six `OpShape` variants and ten
//! formulas. The scheduler ranks by these numbers, so equal quotes are the
//! proof that folding the variants into one `Select` left
//! shortest-cost-first order unchanged. (The mix contains neither a
//! dictionary miss nor a covered leaf — the two cases that commit mispriced.)

use engine::access::{CompressMode, PushdownMode};
use engine::exec::ExecOptions;
use engine::shared::scan_requests;
use memsim::profiles;
use monet_core::storage::{ColType, DecomposedTable, TableBuilder, Value};
use service::{quote_plan, quote_plan_covered};
use workload::{item_table, QueryMix};

fn supplier(n: usize) -> DecomposedTable {
    let mut b =
        TableBuilder::new("supplier", 0).column("id", ColType::I32).column("rating", ColType::F64);
    for i in 1..=n {
        b.push_row(&[Value::I32(i as i32), Value::F64((i % 7) as f64 / 2.0)]).unwrap();
    }
    b.finish()
}

/// `(label, seq_ns, items, ops)` per plan class — the quote depends on the
/// plan's shape, not on its constants — on `origin2000`, a 20 000-row Item
/// table (seed 42) and a 500-row supplier dimension.
type Golden = [(&'static str, f64, usize, usize); 6];

const COMPRESS_AND_PUSHDOWN_ON: Golden = [
    ("needle", 1529401.384765625, 40000, 4),
    ("drill", 9351679.6875, 50000, 4),
    ("join", 10311755.053710938, 31500, 4),
    ("sweep", 3252694.130859375, 60000, 5),
    ("extremes", 10148906.25, 60000, 5),
    ("selective", 1743840.2587890625, 40000, 5),
];

const COMPRESS_AND_PUSHDOWN_OFF: Golden = [
    ("needle", 1995493.1640625, 60000, 4),
    ("drill", 9351679.6875, 50000, 4),
    ("join", 10569353.891601563, 31500, 4),
    ("sweep", 3510292.96875, 60000, 5),
    ("extremes", 10148906.25, 60000, 5),
    ("selective", 2873066.40625, 80000, 5),
];

#[test]
fn the_first_64_mix_plans_quote_what_they_quoted_before_the_shapes_merged() {
    let machine = profiles::origin2000();
    let item = item_table(20_000, 42);
    let supp = supplier(500);
    let specs = QueryMix::for_client(42, 0).take(64);
    for (compress, pushdown, golden) in [
        (CompressMode::On, PushdownMode::On, COMPRESS_AND_PUSHDOWN_ON),
        (CompressMode::Off, PushdownMode::Off, COMPRESS_AND_PUSHDOWN_OFF),
    ] {
        let opts = ExecOptions::cost_model(machine).with_compress(compress).with_pushdown(pushdown);
        let mut seen = std::collections::BTreeSet::new();
        for spec in &specs {
            let plan = spec.build(&item, &supp).unwrap();
            let q = quote_plan_covered(&opts, &plan, &scan_requests(&plan, pushdown), &|_| None);
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
            seen.insert(label);
        }
        assert_eq!(seen.len(), golden.len(), "the rotation covers every class: {seen:?}");
    }
    // The pinned entry point is the same walk under the environment's policy.
    let env = ExecOptions::cost_model(machine);
    for spec in &specs {
        let plan = spec.build(&item, &supp).unwrap();
        let leaves = scan_requests(&plan, env.pushdown);
        assert_eq!(
            quote_plan(&machine, &plan),
            quote_plan_covered(&env, &plan, &leaves, &|_| None)
        );
    }
}
