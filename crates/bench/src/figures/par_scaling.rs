//! **Parallel scaling** (`repro parallel`) — our multi-core extension.
//!
//! The paper ends where one core's cache hierarchy stops being the
//! bottleneck; its successors parallelize the same radix structure across
//! cores. This harness sweeps thread counts over the cost-model-chosen join
//! plan, measuring native wall-clock speedup against the
//! [`costmodel::parallel`] prediction, and reports which thread count the
//! model itself would pick. Output order is asserted bit-identical to the
//! sequential kernel at every thread count.

use std::time::Instant;

use costmodel::parallel::{plan_join_parallel, ParallelModel};
use memsim::NullTracker;
use monet_core::join::{join, FibHash};
use workload::join_pair;

use crate::report::{fmt_card, fmt_ms, TextTable};
use crate::runner::{RunOpts, Scale};

/// Thread counts swept by the harness.
const THREADS: [usize; 4] = [1, 2, 4, 8];

/// Run the parallel-scaling experiment.
pub fn run(opts: &RunOpts) {
    let cards: Vec<usize> = match opts.scale {
        Scale::Quick => vec![250_000],
        Scale::Default => vec![1_000_000, 4_000_000],
        Scale::Full => vec![1_000_000, 8_000_000],
    };
    let cfg = opts.machine();

    let mut t = TextTable::new(
        "parallel scaling of the model-chosen join plan (native wall-clock)",
        &["C", "algorithm", "threads", "wall ms", "speedup", "model", "model picks"],
    );
    for &c in &cards {
        let (plan, choice) = plan_join_parallel(&cfg, c, *THREADS.last().unwrap());
        let pm = ParallelModel::for_machine(&cfg, *THREADS.last().unwrap());
        let seq_ns = choice.seq_ns;

        let (l, r) = join_pair(c, opts.seed);
        // Sequential reference (also the bit-identity oracle).
        let run = |threads| join(&mut NullTracker, FibHash, l.clone(), r.clone(), &plan, threads).0;
        let reference = run(1);

        let mut base_ms = 0.0;
        for &n in &THREADS {
            let start = Instant::now();
            let pairs = run(n);
            let ms = start.elapsed().as_secs_f64() * 1e3;
            assert_eq!(pairs, reference, "C={c} threads={n}: parallel output must be identical");
            if n == 1 {
                base_ms = ms;
            }
            t.row(vec![
                fmt_card(c),
                format!("{:?} B={}", plan.algorithm, plan.bits),
                n.to_string(),
                fmt_ms(ms),
                format!("{:.2}x", base_ms / ms.max(1e-9)),
                format!("{:.2}x", pm.speedup(seq_ns, 2 * c, n)),
                format!("{} threads", choice.threads),
            ]);
        }
    }
    super::emit(opts, &t);
    println!(
        "\nEvery row's join index is bit-identical to the sequential kernel; \
         `model` is the speedup the parallel cost model predicts for the \
         simulated Origin2000, `model picks` what it would choose given {} \
         threads.\n",
        THREADS.last().unwrap()
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke() {
        run(&RunOpts { scale: Scale::Quick, ..Default::default() });
    }
}
