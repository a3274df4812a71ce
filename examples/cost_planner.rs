//! Model-driven join planning — using the paper's cost model the way a
//! query optimizer would: given cardinalities and the machine, search
//! `(algorithm, B, passes)` for the cheapest total plan and show how the
//! choice shifts with relation size.
//!
//! ```text
//! cargo run --release --example cost_planner
//! ```

use monet_mem::core::strategy::Algorithm;
use monet_mem::costmodel::plan::{best_plan, simple_hash_total, sort_merge_total};
use monet_mem::costmodel::ModelMachine;
use monet_mem::memsim::profiles;

fn main() {
    let machine = profiles::origin2000();
    let model = ModelMachine::new(&machine);

    println!("model-optimal join plans on the Origin2000 (paper-calibrated costs):\n");
    println!(
        "{:>10} {:>18} {:>4} {:>8} {:>12} {:>14} {:>14}",
        "C", "algorithm", "B", "passes", "best (ms)", "simple (ms)", "sortmerge (ms)"
    );
    for exp in 10..=26 {
        let c = 1usize << exp;
        let (plan, cost) = best_plan(&model, &machine, c);
        let algo = match plan.algorithm {
            Algorithm::PartitionedHash => "partitioned hash",
            Algorithm::Radix => "radix",
            Algorithm::SimpleHash => "simple hash",
            Algorithm::SortMerge => "sort-merge",
        };
        println!(
            "{:>10} {:>18} {:>4} {:>8} {:>12.1} {:>14.1} {:>14.1}",
            c,
            algo,
            plan.bits,
            plan.pass_bits.len(),
            cost.total_ms(),
            simple_hash_total(&model, c as f64).total_ms(),
            sort_merge_total(&model, c as f64).total_ms(),
        );
    }

    println!(
        "\nReading: tiny relations fit the caches, so the unpartitioned hash join wins \
         (clustering would be pure overhead); from ~100k tuples the planner switches to \
         radix-clustered execution, with B growing ~1 bit per doubling — clusters are \
         kept at a fixed byte size, exactly the paper's strategy diagonals. The speedup \
         over the random-access baselines grows with C (Figure 13's message)."
    );
}
