//! **Figure 9** — "Performance and Model of Radix-Cluster."
//!
//! Sweeps the number of radix bits `B` and passes `P` (bits split evenly),
//! reporting simulated milliseconds and L1/L2/TLB miss counts next to the
//! model's predictions, for one cardinality (paper: 8M tuples; the default
//! scale uses 2M, which crosses every cache/TLB threshold identically —
//! the thresholds are in *cluster counts*, not tuples).

use costmodel::cluster::cluster_cost_even;
use costmodel::ModelMachine;
use workload::unique_random_buns;

use crate::report::{fmt_count, fmt_ms, TextTable};
use crate::runner::{sim_cluster, RunOpts};

/// Run the Figure 9 reproduction.
pub fn run(opts: &RunOpts) {
    let c = opts.cluster_card();
    let max_bits = opts.cluster_max_bits();
    let machine = opts.machine();
    let model = ModelMachine::new(&machine);
    let input = unique_random_buns(c, opts.seed);

    let mut t = TextTable::new(
        format!("Figure 9: radix-cluster of {c} tuples (simulated origin2k vs model)"),
        &[
            "bits",
            "passes",
            "ms",
            "model ms",
            "L1 miss",
            "model L1",
            "L2 miss",
            "model L2",
            "TLB miss",
            "model TLB",
        ],
    );

    for bits in 1..=max_bits {
        for passes in 1..=4u32 {
            if passes > bits {
                continue;
            }
            let pass_bits = even_split(bits, passes);
            let (_, counters) = sim_cluster(machine, input.clone(), bits, &pass_bits);
            let m = cluster_cost_even(&model, passes, bits, c as f64);
            t.row(vec![
                bits.to_string(),
                passes.to_string(),
                fmt_ms(counters.elapsed_ms()),
                fmt_ms(m.total_ms()),
                fmt_count(counters.l1_misses as f64),
                fmt_count(m.l1_misses),
                fmt_count(counters.l2_misses as f64),
                fmt_count(m.l2_misses),
                fmt_count(counters.tlb_misses as f64),
                fmt_count(m.tlb_misses),
            ]);
        }
    }
    super::emit(opts, &t);

    // The figure's takeaway, stated explicitly.
    println!(
        "Paper's reading: one pass is best up to 6 bits (64 = |TLB| clusters); beyond \
         that P = ceil(B/6) passes win because each pass stays under the TLB entry count.\n"
    );
}

/// Bits split evenly over passes, larger shares first (§3.4.2's rule).
pub fn even_split(bits: u32, passes: u32) -> Vec<u32> {
    let base = bits / passes;
    let extra = bits % passes;
    (0..passes).map(|p| if p < extra { base + 1 } else { base }).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::Scale;
    use memsim::profiles;
    use workload::unique_random_buns;

    #[test]
    fn even_split_sums_and_balances() {
        for bits in 1..=24 {
            for passes in 1..=4 {
                if passes > bits {
                    continue;
                }
                let s = even_split(bits, passes);
                assert_eq!(s.iter().sum::<u32>(), bits);
                assert!(s.iter().max().unwrap() - s.iter().min().unwrap() <= 1);
            }
        }
    }

    #[test]
    fn crossover_at_six_bits_reproduces() {
        // The figure's central claim at reduced scale: at B = 10 two passes
        // beat one; at B = 4 one pass wins. (Cardinality-independent: the
        // TLB limit is a cluster count.)
        let c = 1 << 18; // 256k tuples: output spans 128 pages > 64 entries
        let input = unique_random_buns(c, 3);
        let m = profiles::origin2000();
        let t = |bits: u32, passes: u32| {
            sim_cluster(m, input.clone(), bits, &even_split(bits, passes)).1.elapsed_ms()
        };
        assert!(t(4, 1) < t(4, 2), "below the TLB limit, 1 pass wins");
        assert!(t(10, 2) < t(10, 1), "above the TLB limit, 2 passes win");
    }

    #[test]
    fn harness_smoke() {
        run(&RunOpts { scale: Scale::Quick, ..Default::default() });
    }
}
