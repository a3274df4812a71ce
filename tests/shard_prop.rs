//! Sharded execution (`engine::dist`): plans lowered onto hash shards,
//! merged by the coordinator and checked bit for bit against the
//! row-at-a-time reference (`common/reference.rs`). Slices of the knob
//! lattice (`common/lattice.rs`) run drawn plans over co-partitioned
//! uniform and Zipf-skewed tables at every shard count; fixed anchors pin
//! the degenerate layouts — empty shards, every row on one shard, empty
//! tables — and `f64` sums whose low bits show any rounding but the one
//! correctly rounded sum's.

#[path = "common/lattice.rs"]
mod lattice;
#[path = "common/reference.rs"]
mod reference;

use lattice::{Lattice, Path, SLICE_CASES};
use monet_mem::core::shard::ShardedTable;
use monet_mem::core::storage::{ColType, DecomposedTable, TableBuilder, Value};
use monet_mem::engine::access::CompressMode;
use monet_mem::engine::dist::execute_sharded;
use monet_mem::engine::exec::{ExecOptions, Threads};
use monet_mem::engine::plan::{Agg, LogicalPlan, Pred, Query};
use monet_mem::memsim::NullTracker;
use monet_mem::workload::item_table_skewed;

/// The shard counts every anchor runs at.
const SHARDS: [usize; 4] = [1, 2, 4, 7];

/// `execute_sharded` at every shard count, the options drawn.
fn every_shard_count(l: &mut Lattice) -> Vec<Path> {
    let opts = lattice::exec_options(l);
    SHARDS.map(|shards| Path::Sharded { shards, opts, simulated: false }).into()
}

#[test]
fn uniform_data_is_bit_identical_across_the_matrix() {
    let mut l = Lattice::new("shard_prop::uniform").pin("key skew", &["uniform"]);
    lattice::check(&mut l, SLICE_CASES, every_shard_count);
}

#[test]
fn zipf_skewed_data_is_bit_identical_across_the_matrix() {
    // Multi-frame tables, whose Zipf keys skew the shards (the lattice's
    // table generator asserts it).
    let mut l =
        Lattice::new("shard_prop::zipf").pin("rows", &["frames"]).pin("key skew", &["zipf"]);
    lattice::check(&mut l, SLICE_CASES, every_shard_count);
}

fn supplier(n: usize) -> DecomposedTable {
    let mut b =
        TableBuilder::new("supplier", 0).column("id", ColType::I32).column("rating", ColType::F64);
    for i in 1..=n {
        b.push_row(&[Value::I32(i as i32), Value::F64((i % 13) as f64 / 4.0)]).unwrap();
    }
    b.finish()
}

/// Run `plan` sharded over `tables` at threads {1, 4} × compressed and
/// uncompressed scans, asserting each output equals the reference's bit for
/// bit.
fn assert_matches_reference(plan: &LogicalPlan<'_>, tables: &[&ShardedTable], what: &str) {
    let expect = reference::evaluate(plan);
    for threads in [1, 4] {
        for compress in [CompressMode::Off, CompressMode::On] {
            let opts = ExecOptions::default()
                .with_threads(Threads::Fixed(threads))
                .with_compress(compress);
            let sharded = execute_sharded(&mut NullTracker, plan, tables, &opts)
                .unwrap_or_else(|e| panic!("{what}: sharded run failed: {e}"));
            assert!(
                sharded.output.bitwise_eq(&expect),
                "{what} (threads={threads}, compress={compress:?}): sharded output diverged\n\
                 reference: {expect:?}\nsharded:   {:?}",
                sharded.output,
            );
        }
    }
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
    for s in SHARDS {
        let is = ShardedTable::partition(&item, "supp", s).unwrap();
        if s > 1 {
            assert!(is.shards().iter().any(|sh| sh.table.is_empty()), "S={s} has empty shards");
        }
        let tables: Vec<&ShardedTable> = vec![&is];
        let select = Query::scan(&item).filter(Pred::range_i32("qty", 2, 8)).build().unwrap();
        assert_matches_reference(&select, &tables, &format!("one-shard/select/S={s}"));
        let grouped = Query::scan(&item)
            .group_by("shipmode")
            .agg(Agg::sum("price"))
            .agg(Agg::count())
            .build()
            .unwrap();
        assert_matches_reference(&grouped, &tables, &format!("one-shard/grouped/S={s}"));
    }
}

#[test]
fn empty_tables_shard_and_merge_to_empty_results() {
    let item = item_table_skewed(0, 1, 0.0);
    let supp = supplier(0);
    for s in SHARDS {
        let is = ShardedTable::partition(&item, "supp", s).unwrap();
        let ss = ShardedTable::partition(&supp, "id", s).unwrap();
        let tables: Vec<&ShardedTable> = vec![&is, &ss];
        let select = Query::scan(&item).filter(Pred::range_i32("qty", 1, 5)).build().unwrap();
        assert_matches_reference(&select, &tables, &format!("empty/select/S={s}"));
        let join = Query::scan(&item).join(&supp, ("supp", "id")).build().unwrap();
        assert_matches_reference(&join, &tables, &format!("empty/join/S={s}"));
    }
}

#[test]
fn f64_group_sums_match_bit_for_bit_not_just_approximately() {
    // A value distribution chosen to make rounding visible: magnitudes
    // spanning ~12 orders, so a sum rounded more than once, in any order of
    // its partials, would change the low mantissa bits.
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
    for s in SHARDS {
        let is = ShardedTable::partition(&item, "supp", s).unwrap();
        let plan = Query::scan(&item).group_by("shipmode").agg(Agg::sum("price")).build().unwrap();
        assert_matches_reference(&plan, &[&is], &format!("f64-bits/S={s}"));
    }
}
