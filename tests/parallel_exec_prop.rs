//! Parallel plan execution, checked against the row-at-a-time reference
//! (`common/reference.rs`): slices of the knob lattice (`common/lattice.rs`)
//! that run each drawn plan at every thread count — grouped `f64` sums,
//! whose bits must be the correctly rounded sums whatever the row chunks,
//! join indexes, whose pair order must not move,
//! and Zipf-skewed keys, which make chunk and cluster sizes maximally
//! uneven — and two fixed anchors: a join the cost model partitions,
//! so `execute` routes it through the parallel radix kernels and says so in
//! its report, and the model-chosen thread counts of `Threads::Auto` on a
//! real Item workload.

#[path = "common/lattice.rs"]
mod lattice;
#[path = "common/reference.rs"]
mod reference;

use lattice::{Lattice, Path, SLICE_CASES};
use monet_mem::core::storage::{ColType, DecomposedTable, TableBuilder, Value};
use monet_mem::engine::exec::{execute, ExecOptions, QueryOutput, Threads};
use monet_mem::engine::plan::{Agg, Pred, Query};
use monet_mem::memsim::NullTracker;

/// The thread counts every anchor runs at.
const THREADS: [usize; 4] = [1, 2, 4, 7];

/// `execute` at every thread count and at `Threads::Auto`.
fn every_thread_count(l: &mut Lattice) -> Vec<Path> {
    let threads = THREADS.map(Threads::Fixed);
    lattice::sweep(l, &[&threads[..], &[Threads::Auto]].concat(), |o, t| o.threads = t)
}

/// A lattice slice whose thread cap never hides the thread count.
fn uncapped(name: &str) -> Lattice {
    Lattice::new(name).pin("thread cap", &["None"])
}

#[test]
fn grouped_pipeline_is_thread_count_invariant() {
    let mut l = uncapped("parallel_exec_prop::grouped")
        .pin("join", &["false"])
        .pin("aggregate", &["grouped", "grouped by part"]);
    lattice::check(&mut l, SLICE_CASES, every_thread_count);
}

#[test]
fn join_index_is_thread_count_invariant() {
    // The parallel join must reproduce the reference's pair *order*, not
    // just its pair set.
    let mut l =
        uncapped("parallel_exec_prop::join").pin("join", &["true"]).pin("aggregate", &["none"]);
    lattice::check(&mut l, SLICE_CASES, every_thread_count);
}

#[test]
fn joined_aggregates_are_thread_count_invariant() {
    let mut l = uncapped("parallel_exec_prop::joined_aggregates")
        .pin("join", &["true"])
        .pin("aggregate", &["scalar", "grouped", "grouped by part"]);
    lattice::check(&mut l, SLICE_CASES, every_thread_count);
}

#[test]
fn zipf_skewed_joins_are_thread_count_invariant() {
    let mut l = uncapped("parallel_exec_prop::zipf")
        .pin("rows", &["frames"])
        .pin("key skew", &["zipf"])
        .pin("join", &["true"]);
    lattice::check(&mut l, SLICE_CASES, every_thread_count);
}

fn key_table(name: &str, keys: &[i32], seqbase: u32) -> DecomposedTable {
    let mut b = TableBuilder::new(name, seqbase).column(&format!("{name}_k"), ColType::I32);
    for &k in keys {
        b.push_row(&[Value::I32(k)]).unwrap();
    }
    b.finish()
}

fn run_at(plan: &monet_mem::engine::plan::LogicalPlan<'_>, threads: Threads) -> QueryOutput {
    let opts = ExecOptions::default().with_threads(threads);
    execute(&mut NullTracker, plan, &opts).unwrap().output
}

#[test]
fn partitioned_parallel_join_through_the_executor() {
    // An inner side the cost model partitions on the Origin2000, so
    // execute() routes through the parallel radix kernels (small inners
    // get simple hash, which parallelism leaves sequential).
    let lkeys: Vec<i32> = (0..20_000).map(|i| (i * 7) % 15_000).collect();
    let rkeys: Vec<i32> = (0..12_000).map(|i| (i * 13) % 15_000).collect();
    let lt = key_table("l", &lkeys, 0);
    let rt = key_table("r", &rkeys, 100_000);
    let plan = Query::scan(&lt).join(&rt, ("l_k", "r_k")).build().unwrap();
    let expect = reference::evaluate(&plan);
    for n in THREADS {
        let opts = ExecOptions::default().with_threads(Threads::Fixed(n));
        let got = execute(&mut NullTracker, &plan, &opts).unwrap();
        assert!(got.output.bitwise_eq(&expect), "threads={n}");
        let jop = got.report.ops.iter().find(|o| o.op.starts_with("join")).unwrap();
        let bits = jop.detail.split_once("B=").and_then(|(_, rest)| rest.split(' ').next());
        let bits: Option<u32> = bits.and_then(|b| b.parse().ok());
        assert!(matches!(bits, Some(b) if b > 0), "partitioned: {}", jop.detail);
        if n > 1 {
            assert!(jop.detail.contains(&format!("threads={n}")), "{}", jop.detail);
        }
    }
}

#[test]
fn auto_threads_match_sequential_on_a_real_workload() {
    // The acceptance anchor behind `repro query --threads auto`: the
    // model-chosen thread counts must not change a single bit of the output.
    let item = monet_mem::workload::item_table(60_000, 42);
    let plan = Query::scan(&item)
        .filter(Pred::range_f64("discnt", 0.02, 0.08))
        .group_by("shipmode")
        .agg(Agg::sum("price"))
        .agg(Agg::count())
        .build()
        .unwrap();
    let expect = reference::evaluate(&plan);
    assert!(run_at(&plan, Threads::Auto).bitwise_eq(&expect), "auto");
    for n in THREADS {
        assert!(run_at(&plan, Threads::Fixed(n)).bitwise_eq(&expect), "threads={n}");
    }
}
