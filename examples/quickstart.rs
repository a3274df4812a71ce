//! Quickstart: join two columns the Monet way — the physical plan chosen by
//! the paper's cost model, not by the caller — natively and under the
//! simulated Origin2000; then the same idea one level up, through the
//! composable query API.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use std::time::Instant;

use monet_mem::core::join::{join, FibHash};
use monet_mem::costmodel::plan::plan_join;
use monet_mem::engine::exec::{execute, ExecOptions, QueryOutput};
use monet_mem::engine::plan::{Agg, Pred, Query};
use monet_mem::memsim::{profiles, NullTracker, SimTracker};
use monet_mem::workload::{item_table, join_pair};

fn main() {
    let machine = profiles::origin2000();
    let n = 1_000_000;

    // §3.4.1 workload: two BATs over the same unique random key set.
    let (left, right) = join_pair(n, 42);
    println!("joining two BATs of {n} tuples (8-byte [OID,int] BUNs, hit rate 1)");

    // Ask the cost model — not a hand-tuned constant — for the plan: it
    // searches algorithm x radix bits x pass layout (the Figure 12 "best").
    let (plan, predicted) = plan_join(&machine, n);
    println!(
        "cost-model plan: {:?} on B={} radix bits in {} pass(es) {:?}, predicted {:.1} ms",
        plan.algorithm,
        plan.bits,
        plan.pass_bits.len(),
        plan.pass_bits,
        predicted.total_ms()
    );

    // 1) Native run: the exact same kernel, zero instrumentation overhead.
    let t0 = Instant::now();
    let (pairs, _) = join(&mut NullTracker, FibHash, left.clone(), right.clone(), &plan, 1);
    let native = t0.elapsed();
    assert_eq!(pairs.len(), n);
    println!(
        "native ({}):       {:>8.1} ms for {} result pairs",
        std::env::consts::ARCH,
        native.as_secs_f64() * 1e3,
        pairs.len()
    );

    // 2) Simulated run: replay on the paper's 250 MHz Origin2000, with the
    //    hardware-counter readings the paper reports.
    let mut trk = SimTracker::for_machine(machine);
    let (pairs, _) = join(&mut trk, FibHash, left, right, &plan, 1);
    assert_eq!(pairs.len(), n);
    let c = trk.counters();
    println!(
        "simulated origin2k: {:>8.1} ms (model predicted {:.1})",
        c.elapsed_ms(),
        predicted.total_ms()
    );
    println!(
        "  events: {} L1 misses, {} L2 misses, {} TLB misses",
        c.l1_misses, c.l2_misses, c.tlb_misses
    );
    println!(
        "  time:   {:.1} ms CPU + {:.1} ms L2 + {:.1} ms memory + {:.1} ms TLB stalls",
        c.cpu_ns / 1e6,
        c.stall_l2_ns / 1e6,
        c.stall_mem_ns / 1e6,
        c.stall_tlb_ns / 1e6
    );
    println!(
        "  {:.0}% of simulated cycles wait on the memory system — the paper's bottleneck.",
        c.stall_fraction() * 100.0
    );

    // 3) The same planning discipline, one level up: a composed query whose
    //    executor consults the cost model for you.
    let table = item_table(100_000, 42);
    let query = Query::scan(&table)
        .filter(Pred::range_i32("qty", 10, 40))
        .group_by("shipmode")
        .agg(Agg::sum("price"))
        .build()
        .expect("plan validates");
    let executed = execute(&mut NullTracker, &query, &ExecOptions::default()).unwrap();
    let groups = match executed.output {
        QueryOutput::Groups(g) => g.len(),
        _ => unreachable!("grouped query"),
    };
    println!(
        "\ncomposable API: SELECT shipmode, SUM(price) WHERE 10<=qty<=40 GROUP BY shipmode \
         -> {groups} groups\n{}",
        executed.report
    );
}
