//! Property suite for sharded execution (`engine::dist`): a plan lowered
//! onto hash shards and merged by the coordinator must be **bit-identical**
//! to the unsharded run — including the floating-point bits of every `f64`
//! sum — across shard counts × thread counts × uniform/Zipf-skewed data ×
//! compressed/uncompressed scans, plus the degenerate layouts (empty
//! shards, every row on one shard, empty tables).
//!
//! The CI matrix extends the shard-count axis with `MONET_SHARDS=n`.

use monet_mem::core::shard::ShardedTable;
use monet_mem::core::storage::{ColType, DecomposedTable, TableBuilder, Value};
use monet_mem::engine::access::CompressMode;
use monet_mem::engine::dist::execute_sharded;
use monet_mem::engine::exec::{execute, ExecOptions, Executed, Threads};
use monet_mem::engine::plan::{Agg, LogicalPlan, Pred, Query};
use monet_mem::memsim::NullTracker;
use monet_mem::workload::item_table_skewed;

/// The shard counts every property checks; `MONET_SHARDS=n` (the CI matrix
/// hook) adds `n` to the set.
fn shard_counts() -> Vec<usize> {
    let mut s = vec![1, 2, 4, 7];
    if let Some(n) = std::env::var("MONET_SHARDS").ok().and_then(|v| v.trim().parse::<usize>().ok())
    {
        if n > 0 && !s.contains(&n) {
            s.push(n);
        }
    }
    s
}

/// The thread counts every property checks (results must not depend on
/// parallelism on either side of the comparison).
const THREADS: [usize; 2] = [1, 4];

fn supplier(n: usize) -> DecomposedTable {
    let mut b =
        TableBuilder::new("supplier", 0).column("id", ColType::I32).column("rating", ColType::F64);
    for i in 1..=n {
        b.push_row(&[Value::I32(i as i32), Value::F64((i % 13) as f64 / 4.0)]).unwrap();
    }
    b.finish()
}

/// Run `plan` solo (1 thread, compression off) and sharded under every
/// (threads × compress) combination, asserting bitwise-identical outputs.
fn assert_bit_identical(plan: &LogicalPlan<'_>, tables: &[&ShardedTable], what: &str) {
    let reference: Executed = execute(
        &mut NullTracker,
        plan,
        &ExecOptions::default().with_threads(Threads::Fixed(1)).with_compress(CompressMode::Off),
    )
    .expect("reference run");
    for threads in THREADS {
        for compress in [CompressMode::Off, CompressMode::On] {
            let opts = ExecOptions::default()
                .with_threads(Threads::Fixed(threads))
                .with_compress(compress);
            let sharded = execute_sharded(&mut NullTracker, plan, tables, &opts)
                .unwrap_or_else(|e| panic!("{what}: sharded run failed: {e}"));
            assert!(
                reference.output.bitwise_eq(&sharded.output),
                "{what} (threads={threads}, compress={compress:?}): sharded output diverged\n\
                 solo:    {:?}\nsharded: {:?}",
                reference.output,
                sharded.output,
            );
        }
    }
}

/// Every plan shape of the suite, over Item ⋈ supplier.
fn shapes<'a>(
    item: &'a DecomposedTable,
    supp: &'a DecomposedTable,
) -> Vec<(&'static str, LogicalPlan<'a>)> {
    vec![
        ("select", Query::scan(item).filter(Pred::range_i32("qty", 5, 30)).build().unwrap()),
        (
            "join",
            Query::scan(item)
                .filter(Pred::range_i32("qty", 1, 40))
                .join(supp, ("supp", "id"))
                .build()
                .unwrap(),
        ),
        (
            "grouped-agg",
            Query::scan(item)
                .filter(Pred::range_f64("discnt", 0.01, 0.08))
                .group_by("shipmode")
                .agg(Agg::sum("price"))
                .agg(Agg::min("qty"))
                .agg(Agg::max("qty"))
                .agg(Agg::count())
                .build()
                .unwrap(),
        ),
        (
            "grouped-join",
            Query::scan(item)
                .join(supp, ("supp", "id"))
                .group_by("shipmode")
                .agg(Agg::sum("price"))
                .agg(Agg::sum("rating"))
                .agg(Agg::count())
                .build()
                .unwrap(),
        ),
        (
            "scalar-agg",
            Query::scan(item)
                .filter(Pred::eq_str("shipmode", "AIR"))
                .agg(Agg::sum("price"))
                .agg(Agg::sum("qty"))
                .agg(Agg::min("qty"))
                .agg(Agg::max("qty"))
                .agg(Agg::count())
                .build()
                .unwrap(),
        ),
        // Exact aggregates only: the shards ship no rows at all.
        (
            "grouped-extremes",
            Query::scan(item)
                .filter(Pred::range_f64("discnt", 0.02, 0.06))
                .group_by("shipmode")
                .agg(Agg::min("qty"))
                .agg(Agg::max("qty"))
                .agg(Agg::count())
                .build()
                .unwrap(),
        ),
        (
            "join-count",
            Query::scan(item)
                .filter(Pred::range_i32("qty", 1, 25))
                .join(supp, ("supp", "id"))
                .agg(Agg::count())
                .build()
                .unwrap(),
        ),
        // Two f64 sums share one key run and one cursor pass.
        (
            "scalar-two-f64-sums",
            Query::scan(item)
                .filter(Pred::range_i32("qty", 3, 45))
                .agg(Agg::sum("price"))
                .agg(Agg::sum("tax"))
                .agg(Agg::count())
                .build()
                .unwrap(),
        ),
        // Join stream: packed-pair keys, values gathered on the right side.
        (
            "join-scalar-right-f64-sum",
            Query::scan(item)
                .filter(Pred::range_i32("qty", 10, 40))
                .join(supp, ("supp", "id"))
                .agg(Agg::sum("rating"))
                .build()
                .unwrap(),
        ),
    ]
}

fn check_matrix(item: &DecomposedTable, supp: &DecomposedTable, label: &str) {
    for s in shard_counts() {
        let is = ShardedTable::partition(item, "supp", s).unwrap();
        let ss = ShardedTable::partition(supp, "id", s).unwrap();
        let tables: Vec<&ShardedTable> = vec![&is, &ss];
        for (shape, plan) in shapes(item, supp) {
            assert_bit_identical(&plan, &tables, &format!("{label}/{shape}/S={s}"));
        }
    }
}

#[test]
fn uniform_data_is_bit_identical_across_the_matrix() {
    let item = item_table_skewed(3_000, 17, 0.0);
    let supp = supplier(1_000);
    check_matrix(&item, &supp, "uniform");
}

#[test]
fn zipf_skewed_data_is_bit_identical_across_the_matrix() {
    let item = item_table_skewed(3_000, 23, 1.0);
    let supp = supplier(1_000);
    // The skew knob must actually skew the shards this suite runs on.
    let sharded = ShardedTable::partition(&item, "supp", 4).unwrap();
    assert!(sharded.stats().skew > 1.2, "skew {}", sharded.stats().skew);
    check_matrix(&item, &supp, "zipf");
}

#[test]
fn all_rows_on_one_shard_and_empty_shards_merge_correctly() {
    // A constant partition key puts every row on one shard, leaving the
    // other S-1 shards empty — both edge cases in one layout.
    let mut b = TableBuilder::new("Item", 100)
        .column("supp", ColType::I32)
        .column("qty", ColType::I32)
        .column("price", ColType::F64)
        .column("shipmode", ColType::Str);
    for i in 0..500 {
        b.push_row(&[
            Value::I32(7),
            Value::I32((i % 11) as i32),
            Value::F64(i as f64 * 0.17),
            Value::from(["AIR", "SHIP"][i % 2]),
        ])
        .unwrap();
    }
    let item = b.finish();
    for s in shard_counts() {
        let is = ShardedTable::partition(&item, "supp", s).unwrap();
        if s > 1 {
            assert!(is.shards().iter().any(|sh| sh.table.is_empty()), "S={s} has empty shards");
        }
        let tables: Vec<&ShardedTable> = vec![&is];
        let select = Query::scan(&item).filter(Pred::range_i32("qty", 2, 8)).build().unwrap();
        assert_bit_identical(&select, &tables, &format!("one-shard/select/S={s}"));
        let grouped = Query::scan(&item)
            .group_by("shipmode")
            .agg(Agg::sum("price"))
            .agg(Agg::count())
            .build()
            .unwrap();
        assert_bit_identical(&grouped, &tables, &format!("one-shard/grouped/S={s}"));
    }
}

#[test]
fn empty_tables_shard_and_merge_to_empty_results() {
    let item = item_table_skewed(0, 1, 0.0);
    let supp = supplier(0);
    for s in shard_counts() {
        let is = ShardedTable::partition(&item, "supp", s).unwrap();
        let ss = ShardedTable::partition(&supp, "id", s).unwrap();
        let tables: Vec<&ShardedTable> = vec![&is, &ss];
        let select = Query::scan(&item).filter(Pred::range_i32("qty", 1, 5)).build().unwrap();
        assert_bit_identical(&select, &tables, &format!("empty/select/S={s}"));
        let join = Query::scan(&item).join(&supp, ("supp", "id")).build().unwrap();
        assert_bit_identical(&join, &tables, &format!("empty/join/S={s}"));
    }
}

#[test]
fn f64_group_sums_match_bit_for_bit_not_just_approximately() {
    // A value distribution chosen to make floating-point addition order
    // visible: magnitudes spanning ~12 orders, so any reassociation of the
    // partial sums would change the low mantissa bits.
    let mut b = TableBuilder::new("Item", 0)
        .column("supp", ColType::I32)
        .column("price", ColType::F64)
        .column("shipmode", ColType::Str);
    for i in 0..2_000usize {
        b.push_row(&[
            Value::I32((i * 31 % 200) as i32),
            Value::F64((i as f64 + 0.1) * 10f64.powi((i % 13) as i32 - 6)),
            Value::from(["AIR", "MAIL", "SHIP"][i % 3]),
        ])
        .unwrap();
    }
    let item = b.finish();
    for s in shard_counts() {
        let is = ShardedTable::partition(&item, "supp", s).unwrap();
        let plan = Query::scan(&item).group_by("shipmode").agg(Agg::sum("price")).build().unwrap();
        assert_bit_identical(&plan, &[&is], &format!("f64-bits/S={s}"));
    }
}
