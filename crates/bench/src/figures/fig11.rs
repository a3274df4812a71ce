//! **Figure 11** — "Performance and Model of Partitioned Hash-Join"
//! (join phase only).
//!
//! Same protocol as Fig. 10: inputs pre-clustered on `B` bits, the
//! bucket-chained per-cluster hash-join measured from cold caches,
//! model overlaid. The landmarks the paper calls out: performance improves
//! sharply until the inner cluster + hash table spans at most |TLB| pages,
//! keeps improving slightly until it fits L1, then *degrades* as clusters
//! get tiny and the per-cluster hash-table setup (`w'_h · H`) dominates.

use costmodel::phash::phash_cost;
use costmodel::ModelMachine;
use memsim::{NullTracker, SimTracker};
use monet_core::join::{join_clustered, radix_cluster, FibHash};
use monet_core::strategy::{self, plan_passes};
use workload::join_pair;

use crate::report::{fmt_card, fmt_count, fmt_ms, TextTable};
use crate::runner::RunOpts;

/// Run the Figure 11 reproduction.
pub fn run(opts: &RunOpts) {
    let machine = opts.machine();
    let model = ModelMachine::new(&machine);

    let mut t = TextTable::new(
        "Figure 11: partitioned hash-join join phase (simulated origin2k vs model)",
        &[
            "C",
            "bits",
            "strategy",
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

    for c in opts.join_cards() {
        let max_bits = strategy::bits_radix_min(c); // ~4-tuple clusters
        let (l, r) = join_pair(c, opts.seed);
        for bits in 0..=max_bits {
            let passes = plan_passes(bits, machine.tlb.entries);
            let lc = radix_cluster(&mut NullTracker, FibHash, l.clone(), bits, &passes);
            let rc = radix_cluster(&mut NullTracker, FibHash, r.clone(), bits, &passes);
            let mut trk = SimTracker::for_machine(machine);
            let pairs = join_clustered(&mut trk, FibHash, &lc, &rc);
            assert_eq!(pairs.len(), c, "hit rate 1");
            let s = trk.counters();
            let m = phash_cost(&model, bits, c as f64);
            t.row(vec![
                fmt_card(c),
                bits.to_string(),
                strategy_marker(c, bits, &machine),
                fmt_ms(s.elapsed_ms()),
                fmt_ms(m.total_ms()),
                fmt_count(s.l1_misses as f64),
                fmt_count(m.l1_misses),
                fmt_count(s.l2_misses as f64),
                fmt_count(m.l2_misses),
                fmt_count(s.tlb_misses as f64),
                fmt_count(m.tlb_misses),
            ]);
        }
    }
    super::emit(opts, &t);
    println!(
        "Strategy markers show where the §3.4.4 diagonals cross each cardinality: \
         the big step is before 'TLB' (inner cluster spans ≤ 64 pages), the minimum \
         near 'L1', and tiny clusters pay the hash-table setup overhead.\n"
    );
}

/// Label `bits` with the §3.4.4 strategy that selects it at cardinality `c`.
fn strategy_marker(c: usize, bits: u32, machine: &memsim::MachineConfig) -> String {
    let mut marks = Vec::new();
    if bits == strategy::bits_phash_l2(c, machine) {
        marks.push("L2");
    }
    if bits == strategy::bits_phash_tlb(c, machine) {
        marks.push("TLB");
    }
    if bits == strategy::bits_phash_l1(c, machine) {
        marks.push("L1");
    }
    if bits == strategy::bits_phash_min(c) {
        marks.push("min");
    }
    marks.join("+")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::Scale;

    #[test]
    fn smoke() {
        run(&RunOpts { scale: Scale::Quick, ..Default::default() });
    }

    #[test]
    fn join_phase_improves_from_l2_to_tlb_strategy() {
        // The paper: "our experiments show a significant improvement of the
        // pure join performance between phash L2 and phash TLB."
        let c = 250_000;
        let machine = memsim::profiles::origin2000();
        let (l, r) = join_pair(c, 9);
        let join_ms = |bits: u32| {
            let passes = plan_passes(bits, machine.tlb.entries);
            let lc = radix_cluster(&mut NullTracker, FibHash, l.clone(), bits, &passes);
            let rc = radix_cluster(&mut NullTracker, FibHash, r.clone(), bits, &passes);
            let mut trk = SimTracker::for_machine(machine);
            join_clustered(&mut trk, FibHash, &lc, &rc);
            trk.counters().elapsed_ms()
        };
        let b_l2 = strategy::bits_phash_l2(c, &machine);
        let b_tlb = strategy::bits_phash_tlb(c, &machine);
        assert!(b_tlb > b_l2);
        assert!(join_ms(b_tlb) < join_ms(b_l2));
    }
}
