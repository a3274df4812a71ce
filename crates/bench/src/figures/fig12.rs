//! **Figure 12** — "Overall Performance of Radix-Join (thin lines) vs
//! Partitioned Hash-Join (thick lines)": cluster cost **plus** join cost
//! across the whole bit range, with the §3.4.4 strategy diagonals marked
//! and the per-algorithm optima ("phash min", "radix min") identified.

use costmodel::plan::{phash_total, radix_total};
use costmodel::ModelMachine;
use memsim::SimTracker;
use monet_core::join::{join_clustered, radix_cluster, radix_join_clustered, FibHash};
use monet_core::strategy::{self, plan_passes};
use workload::join_pair;

use crate::report::{fmt_card, fmt_ms, TextTable};
use crate::runner::{RunOpts, Scale};

fn radix_op_budget(scale: Scale) -> u64 {
    match scale {
        Scale::Quick => 16_000_000,
        Scale::Default => 64_000_000,
        Scale::Full => 512_000_000,
    }
}

/// Run the Figure 12 reproduction.
pub fn run(opts: &RunOpts) {
    let machine = opts.machine();
    let model = ModelMachine::new(&machine);
    let budget = radix_op_budget(opts.scale);

    let mut t = TextTable::new(
        "Figure 12: cluster+join totals vs B (simulated origin2k; model in parens)",
        &["C", "bits", "passes", "strategy", "phash ms", "phash model", "radix ms", "radix model"],
    );

    for c in opts.overall_cards() {
        let max_bits = strategy::bits_radix_min(c).max(1);
        let (l, r) = join_pair(c, opts.seed);
        let mut best_phash: Option<(u32, f64)> = None;
        let mut best_radix: Option<(u32, f64)> = None;

        for bits in 1..=max_bits {
            let passes = plan_passes(bits, machine.tlb.entries);

            // Partitioned hash-join: cluster both + join, one cold machine.
            let mut trk = SimTracker::for_machine(machine);
            let lc = radix_cluster(&mut trk, FibHash, l.clone(), bits, &passes);
            let rc = radix_cluster(&mut trk, FibHash, r.clone(), bits, &passes);
            let pairs = join_clustered(&mut trk, FibHash, &lc, &rc);
            assert_eq!(pairs.len(), c);
            let phash_ms = trk.counters().elapsed_ms();
            if best_phash.is_none_or(|(_, b)| phash_ms < b) {
                best_phash = Some((bits, phash_ms));
            }

            // Radix-join: same protocol, guarded by the nested-loop budget.
            let cl_tuples = c as f64 / (1u64 << bits) as f64;
            let radix_ms = if (c as f64 * cl_tuples) as u64 <= budget {
                let mut trk = SimTracker::for_machine(machine);
                let lc = radix_cluster(&mut trk, FibHash, l.clone(), bits, &passes);
                let rc = radix_cluster(&mut trk, FibHash, r.clone(), bits, &passes);
                let pairs = radix_join_clustered(&mut trk, FibHash, &lc, &rc);
                assert_eq!(pairs.len(), c);
                let ms = trk.counters().elapsed_ms();
                if best_radix.is_none_or(|(_, b)| ms < b) {
                    best_radix = Some((bits, ms));
                }
                Some(ms)
            } else {
                None
            };

            let pm = phash_total(&model, bits, &passes, c as f64).total_ms();
            let rm = radix_total(&model, bits, &passes, c as f64).total_ms();
            t.row(vec![
                fmt_card(c),
                bits.to_string(),
                passes.len().to_string(),
                diagonal_marker(c, bits, &machine),
                fmt_ms(phash_ms),
                fmt_ms(pm),
                radix_ms.map_or("-".to_string(), fmt_ms),
                fmt_ms(rm),
            ]);
        }

        if let (Some((pb, pms)), Some((rb, rms))) = (best_phash, best_radix) {
            println!(
                "C={}: phash min at B={pb} ({} ms), radix min at B={rb} ({} ms) — {}",
                fmt_card(c),
                fmt_ms(pms),
                fmt_ms(rms),
                if pms <= rms { "phash wins" } else { "radix wins" }
            );
        }
    }
    println!();
    super::emit(opts, &t);
}

/// Mark the bits where the §3.4.4 strategies sit for this cardinality.
fn diagonal_marker(c: usize, bits: u32, machine: &memsim::MachineConfig) -> String {
    let mut m = Vec::new();
    if bits == strategy::bits_phash_l2(c, machine) {
        m.push("phash L2");
    }
    if bits == strategy::bits_phash_tlb(c, machine) {
        m.push("phash TLB");
    }
    if bits == strategy::bits_phash_l1(c, machine) {
        m.push("phash L1");
    }
    if bits == strategy::bits_radix8(c) {
        m.push("radix 8");
    }
    m.join("+")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke() {
        run(&RunOpts { scale: Scale::Quick, ..Default::default() });
    }
}
