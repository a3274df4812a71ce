//! Compare every §3.4.4 join strategy on one workload — a miniature
//! Figure 13 you can point at your own cardinality:
//!
//! ```text
//! cargo run --release --example join_strategies -- [cardinality]
//! ```

use std::time::Instant;

use monet_mem::core::join::{join, FibHash};
use monet_mem::core::strategy::Strategy;
use monet_mem::costmodel::plan::{best_plan, plan_cost};
use monet_mem::costmodel::ModelMachine;
use monet_mem::memsim::{profiles, NullTracker, SimTracker};
use monet_mem::workload::join_pair;

fn main() {
    let n: usize = std::env::args().nth(1).and_then(|a| a.parse().ok()).unwrap_or(250_000);
    let machine = profiles::origin2000();
    let model = ModelMachine::new(&machine);
    let (l, r) = join_pair(n, 1);

    println!("join of two {n}-tuple BATs, hit rate 1\n");
    println!(
        "{:<12} {:>4} {:>7} {:>12} {:>12} {:>12}",
        "strategy", "B", "passes", "sim ms", "model ms", "native ms"
    );

    for s in Strategy::ALL {
        let plan = s.plan(n, &machine);

        let mut sim = SimTracker::for_machine(machine);
        let (pairs, _) = join(&mut sim, FibHash, l.clone(), r.clone(), &plan, 1);
        assert_eq!(pairs.len(), n);

        let t0 = Instant::now();
        let (native, _) = join(&mut NullTracker, FibHash, l.clone(), r.clone(), &plan, 1);
        let native_ms = t0.elapsed().as_secs_f64() * 1e3;
        assert_eq!(native.len(), n);

        let mc = plan_cost(&model, &plan, n as f64);
        println!(
            "{:<12} {:>4} {:>7} {:>12.1} {:>12.1} {:>12.1}",
            s.name(),
            plan.bits,
            plan.pass_bits.len(),
            sim.counters().elapsed_ms(),
            mc.total_ms(),
            native_ms
        );
    }

    let (best, cost) = best_plan(&model, &machine, n);
    println!(
        "\nmodel-optimal plan: {:?} with B={} ({} passes) — predicted {:.1} ms",
        best.algorithm,
        best.bits,
        best.pass_bits.len(),
        cost.total_ms()
    );
}
