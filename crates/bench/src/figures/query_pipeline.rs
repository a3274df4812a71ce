//! **Composed query pipelines** (`repro query`) — the drill-down workload of
//! \[BRK98\] run end-to-end through the plan builder and the
//! cost-model-driven executor, on the simulated Origin2000.
//!
//! Where the per-figure harnesses isolate one kernel each, this driver shows
//! the system view the paper argues for: a *composed* query whose physical
//! strategy — join algorithm, radix bits, pass layout, scan-selects — is
//! chosen by the executor from the analytical cost model, with per-operator
//! simulated miss counts to verify where the cycles go.

use engine::access::AccessMode;
use engine::exec::{execute, ExecOptions, QueryOutput};
use engine::plan::{Agg, Pred, Query};
use memsim::{NullTracker, SimTracker};
use monet_core::index::IndexKind;
use monet_core::storage::{ColType, DecomposedTable, TableBuilder, Value};
use workload::item_table;

use crate::report::{fmt_card, fmt_count, fmt_ms, TextTable};
use crate::runner::{RunOpts, Scale, ThreadsOpt};

/// Run the composed-pipeline experiment.
pub fn run(opts: &RunOpts) {
    let n = match opts.scale {
        Scale::Quick => 100_000,
        Scale::Default => 500_000,
        Scale::Full => 2_000_000,
    };
    let machine = opts.machine();
    let mut table = item_table(n, opts.seed);
    // The fact table carries §3.2 indexes; whether the executor *uses* one
    // is a per-predicate cost-model decision (or pinned via `--access`).
    table.create_index("qty", IndexKind::CsBTree).expect("qty is indexable");
    table.create_index("shipmode", IndexKind::Hash).expect("shipmode is indexable");
    let table = table;
    let base_opts =
        |machine| crate::runner::apply_access(opts.access, ExecOptions::cost_model(machine));

    // The drill-down query, plus a fact ⋈ dimension query that exercises
    // the planner's join choice (hit rate one against the supplier table),
    // plus a needle query whose point predicates are index territory, plus
    // a fact ⋈ orders join under exact aggregates.
    let suppliers = supplier_dim(1_000);
    let drill = Query::scan(&table)
        .filter(Pred::range_f64("discnt", 0.05, 0.10))
        .group_by("shipmode")
        .agg(Agg::sum("price"))
        .agg(Agg::count())
        .build()
        .expect("drill-down plan validates");
    let join = Query::scan(&table)
        .filter(Pred::range_i32("qty", 5, 45))
        .join(&suppliers, ("supp", "id"))
        .agg(Agg::sum("rating"))
        .agg(Agg::count())
        .build()
        .expect("join plan validates");
    let needle = Query::scan(&table)
        .filter(Pred::range_i32("qty", 7, 7).and(Pred::eq_str("shipmode", "AIR")))
        .agg(Agg::sum("price"))
        .agg(Agg::count())
        .build()
        .expect("needle plan validates");
    // A 1:4 dimension large enough to partition the join. Both joins are
    // folded into aggregates, which do not observe row order: each join
    // index stays in cluster order.
    let orders = orders_dim(n.div_ceil(4), opts.seed);
    let orders_join = Query::scan(&table)
        .filter(Pred::range_i32("qty", 5, 45))
        .join(&orders, ("order", "id"))
        .agg(Agg::sum("prio"))
        .agg(Agg::count())
        .build()
        .expect("orders join plan validates");

    // (name, plan, whether its join index stays in cluster order)
    for (name, plan, cluster_order) in [
        ("drilldown", &drill, false),
        ("item x supplier", &join, true),
        ("needle", &needle, false),
        ("item x orders", &orders_join, true),
    ] {
        println!("--- {name} over {n} Item rows ---\n");
        println!("{}", plan.explain());

        let mut trk = SimTracker::for_machine(machine);
        let executed = execute(&mut trk, plan, &base_opts(machine)).expect("runs");
        println!("{}", executed.report);
        assert_eq!(
            executed.report.ops.iter().any(|op| op.cluster_order),
            cluster_order,
            "a join under an aggregate, and only that, skips the canonical pass"
        );

        // Cross-check: identical rows natively, and identical rows with
        // every access path forced to a scan (the bit-identity contract).
        let native = execute(&mut NullTracker, plan, &base_opts(machine)).unwrap();
        assert_eq!(native.output, executed.output, "tracker must not change results");
        let scan_opts = ExecOptions::cost_model(machine).with_access(AccessMode::Scan);
        let scanned = execute(&mut NullTracker, plan, &scan_opts).unwrap();
        assert_eq!(scanned.output, native.output, "access paths must not change results");

        // Parallel execution (`--threads N|auto`), native and under the
        // simulator: the per-operator thread counts land in the report, the
        // rows must be bit-identical to the sequential run, and each
        // operator's simulated work — the sum of its workers' — is printed
        // beside the one-thread figures.
        let parallel = (opts.threads != ThreadsOpt::Seq).then(|| {
            let popts = base_opts(machine).with_threads(opts.threads.exec_threads());
            let parallel = execute(&mut NullTracker, plan, &popts).unwrap();
            assert!(
                parallel.output.bitwise_eq(&native.output),
                "parallel execution must match sequential bit for bit"
            );
            println!("native parallel run ({:?}):", opts.threads);
            println!("{}", parallel.report);
            let mut trk = SimTracker::for_machine(machine);
            let traced = execute(&mut trk, plan, &popts).unwrap();
            assert!(
                traced.output.bitwise_eq(&native.output),
                "traced parallel execution must match sequential bit for bit"
            );
            assert_eq!(traced.report.ops.len(), executed.report.ops.len());
            traced
        });

        let at = match opts.threads {
            ThreadsOpt::Fixed(n) => n.to_string(),
            _ => "auto".to_owned(),
        };
        let (par_ms, par_l2) = (format!("ms @{at}"), format!("L2 miss @{at}"));
        let mut headers =
            vec!["operator", "rows in", "rows out", "ms", "L1 miss", "L2 miss", "TLB miss"];
        if parallel.is_some() {
            headers.extend([par_ms.as_str(), par_l2.as_str()]);
        }
        let mut t =
            TextTable::new(format!("{name}: per-operator simulated cost (origin2k)"), &headers);
        let cells = |c: Option<&memsim::EventCounters>| {
            c.map_or(["-".to_owned(), "-".to_owned(), "-".to_owned(), "-".to_owned()], |c| {
                [
                    fmt_ms(c.elapsed_ms()),
                    fmt_count(c.l1_misses as f64),
                    fmt_count(c.l2_misses as f64),
                    fmt_count(c.tlb_misses as f64),
                ]
            })
        };
        for (i, op) in executed.report.ops.iter().enumerate() {
            let mut row = vec![op.op.clone(), fmt_card(op.rows_in), fmt_card(op.rows_out)];
            row.extend(cells(op.counters.as_ref()));
            if let Some(p) = &parallel {
                let [ms, _, l2, _] = cells(p.report.ops[i].counters.as_ref());
                row.extend([ms, l2]);
            }
            t.row(row);
        }
        super::emit(opts, &t);

        if let QueryOutput::Groups(rows) = &executed.output {
            println!("result: {} groups", rows.len());
        } else if let QueryOutput::JoinIndex(pairs) = &executed.output {
            println!("result: {} join pairs", pairs.len());
        } else if let QueryOutput::Aggregates(vals) = &executed.output {
            let vals: Vec<String> = vals.iter().map(|v| v.to_string()).collect();
            println!("result: {}", vals.join(", "));
        }
        println!();
    }
    println!(
        "The executor asked the cost model for every physical choice; no call \
         site hard-wired an algorithm, a radix-bit count, or an access path.\n"
    );
}

/// A supplier dimension table: ids `1..=n`, a synthetic rating per supplier.
pub(crate) fn supplier_dim(n: usize) -> DecomposedTable {
    let mut b =
        TableBuilder::new("supplier", 0).column("id", ColType::I32).column("rating", ColType::F64);
    for i in 1..=n {
        let rating = (i % 7) as f64 / 2.0;
        b.push_row(&[Value::I32(i as i32), Value::F64(rating)]).unwrap();
    }
    b.finish()
}

/// An orders dimension for Item's `order` column: the ids `1..=n` shuffled
/// (Item holds four rows per order), and an `i32` priority per order.
fn orders_dim(n: usize, seed: u64) -> DecomposedTable {
    let mut ids: Vec<i32> = (1..=n as i32).collect();
    workload::shuffle(&mut ids, seed);
    let mut b =
        TableBuilder::new("orders", 0).column("id", ColType::I32).column("prio", ColType::I32);
    for id in ids {
        b.push_row(&[Value::I32(id), Value::I32(id % 5)]).unwrap();
    }
    b.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke() {
        run(&RunOpts { scale: Scale::Quick, ..Default::default() });
    }

    #[test]
    fn smoke_parallel() {
        // Exercises the bit-identity assertion inside run() for both the
        // fixed and model-chosen thread paths.
        run(&RunOpts { scale: Scale::Quick, threads: ThreadsOpt::Fixed(4), ..Default::default() });
        run(&RunOpts { scale: Scale::Quick, threads: ThreadsOpt::Auto, ..Default::default() });
    }

    #[test]
    fn smoke_access_modes() {
        // Exercises the scan-vs-index bit-identity assertion inside run()
        // with each pinned access policy.
        for access in [AccessMode::Scan, AccessMode::Index, AccessMode::Auto] {
            run(&RunOpts { scale: Scale::Quick, access: Some(access), ..Default::default() });
        }
    }
}
