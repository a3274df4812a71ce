//! **Model validation** — the "lines vs points" agreement the paper claims
//! ("The model shows to be very accurate", §3.4.2), made explicit: relative
//! error between the analytical model (which charges this implementation's
//! three streams per cluster pass) and the trace-driven simulator, per
//! experiment and metric.

use costmodel::cluster::cluster_cost_even;
use costmodel::phash::phash_cost;
use costmodel::rjoin::rjoin_cost;
use costmodel::scan::scan_cost;
use costmodel::ModelMachine;
use memsim::stride::scan_sim;
use memsim::{NullTracker, SimTracker};
use monet_core::join::{join_clustered, radix_cluster, radix_join_clustered, FibHash};
use monet_core::strategy::plan_passes;
use workload::{join_pair, unique_random_buns};

use crate::report::TextTable;
use crate::runner::{sim_cluster, RunOpts};

fn rel_err(model: f64, sim: f64) -> f64 {
    if sim == 0.0 {
        if model == 0.0 {
            0.0
        } else {
            f64::INFINITY
        }
    } else {
        (model - sim).abs() / sim
    }
}

fn pct(e: f64) -> String {
    format!("{:.0}%", e * 100.0)
}

/// Run the validation report.
pub fn run(opts: &RunOpts) {
    let machine = opts.machine();
    let model = ModelMachine::new(&machine);
    let mut t = TextTable::new(
        "Model vs simulator: relative error",
        &["experiment", "point", "time err", "L1 err", "L2 err", "TLB err"],
    );
    let mut time_errors: Vec<f64> = Vec::new();

    // Scan (Fig. 3): the model is near-exact by construction.
    for stride in [1usize, 8, 32, 128, 256] {
        let sim = scan_sim(machine, 100_000, stride);
        let m = scan_cost(&model, 100_000, stride);
        let e = rel_err(m.total_ms(), sim.elapsed_ms);
        time_errors.push(e);
        t.row(vec![
            "scan".into(),
            format!("stride {stride}"),
            pct(e),
            pct(rel_err(m.l1_misses, sim.counters.l1_misses as f64)),
            pct(rel_err(m.l2_misses, sim.counters.l2_misses as f64)),
            pct(rel_err(m.tlb_misses, sim.counters.tlb_misses as f64)),
        ]);
    }

    // Radix-cluster (Fig. 9).
    let c = 500_000usize;
    let input = unique_random_buns(c, opts.seed);
    for (bits, passes) in [(4u32, 1u32), (8, 1), (8, 2), (12, 2), (16, 3)] {
        let pass_bits = crate::figures::fig9::even_split(bits, passes);
        let (_, sim) = sim_cluster(machine, input.clone(), bits, &pass_bits);
        let m = cluster_cost_even(&model, passes, bits, c as f64);
        let e = rel_err(m.total_ms(), sim.elapsed_ms());
        time_errors.push(e);
        t.row(vec![
            "radix-cluster".into(),
            format!("B={bits} P={passes}"),
            pct(e),
            pct(rel_err(m.l1_misses, sim.l1_misses as f64)),
            pct(rel_err(m.l2_misses, sim.l2_misses as f64)),
            pct(rel_err(m.tlb_misses, sim.tlb_misses as f64)),
        ]);
    }

    // Join phases (Figs. 10–11).
    let cj = 250_000usize;
    let (l, r) = join_pair(cj, opts.seed);
    for bits in [12u32, 14, 16] {
        let passes = plan_passes(bits, machine.tlb.entries);
        let lc = radix_cluster(&mut NullTracker, FibHash, l.clone(), bits, &passes);
        let rc = radix_cluster(&mut NullTracker, FibHash, r.clone(), bits, &passes);
        let mut trk = SimTracker::for_machine(machine);
        radix_join_clustered(&mut trk, FibHash, &lc, &rc);
        let sim = trk.counters();
        let m = rjoin_cost(&model, bits, cj as f64);
        let e = rel_err(m.total_ms(), sim.elapsed_ms());
        time_errors.push(e);
        t.row(vec![
            "radix-join".into(),
            format!("B={bits}"),
            pct(e),
            pct(rel_err(m.l1_misses, sim.l1_misses as f64)),
            pct(rel_err(m.l2_misses, sim.l2_misses as f64)),
            pct(rel_err(m.tlb_misses, sim.tlb_misses as f64)),
        ]);
    }
    for bits in [4u32, 8, 11] {
        let passes = plan_passes(bits, machine.tlb.entries);
        let lc = radix_cluster(&mut NullTracker, FibHash, l.clone(), bits, &passes);
        let rc = radix_cluster(&mut NullTracker, FibHash, r.clone(), bits, &passes);
        let mut trk = SimTracker::for_machine(machine);
        join_clustered(&mut trk, FibHash, &lc, &rc);
        let sim = trk.counters();
        let m = phash_cost(&model, bits, cj as f64);
        let e = rel_err(m.total_ms(), sim.elapsed_ms());
        time_errors.push(e);
        t.row(vec![
            "phash-join".into(),
            format!("B={bits}"),
            pct(e),
            pct(rel_err(m.l1_misses, sim.l1_misses as f64)),
            pct(rel_err(m.l2_misses, sim.l2_misses as f64)),
            pct(rel_err(m.tlb_misses, sim.tlb_misses as f64)),
        ]);
    }

    super::emit(opts, &t);
    let mean = time_errors.iter().sum::<f64>() / time_errors.len() as f64;
    let max = time_errors.iter().copied().fold(0.0f64, f64::max);
    println!(
        "elapsed-time error: mean {:.0}%, max {:.0}% over {} points\n\
         (the paper eyeballs 'very accurate' from its figures; these are the numbers)\n",
        mean * 100.0,
        max * 100.0,
        time_errors.len()
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scan_model_is_tight() {
        let machine = memsim::profiles::origin2000();
        let model = ModelMachine::new(&machine);
        for stride in [1usize, 32, 256] {
            let sim = scan_sim(machine, 50_000, stride);
            let m = scan_cost(&model, 50_000, stride);
            assert!(rel_err(m.total_ms(), sim.elapsed_ms) < 0.05, "stride {stride}");
        }
    }

    #[test]
    fn cluster_model_tracks_simulator_within_2x_everywhere() {
        let machine = memsim::profiles::origin2000();
        let model = ModelMachine::new(&machine);
        let c = 200_000;
        let input = unique_random_buns(c, 1);
        for (bits, passes) in [(4u32, 1u32), (10, 1), (10, 2), (14, 2)] {
            let pb = crate::figures::fig9::even_split(bits, passes);
            let (_, sim) = sim_cluster(machine, input.clone(), bits, &pb);
            let m = cluster_cost_even(&model, passes, bits, c as f64);
            let e = rel_err(m.total_ms(), sim.elapsed_ms());
            assert!(e < 1.0, "B={bits} P={passes}: err {e}");
        }
    }
}
