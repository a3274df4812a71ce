//! **Model validation** — the "lines vs points" agreement the paper claims
//! ("The model shows to be very accurate", §3.4.2), made explicit: relative
//! error between the analytical model (which charges this implementation's
//! three streams per cluster pass) and the trace-driven simulator, per
//! experiment and metric, beside both sides' elapsed milliseconds — so a
//! change that moves the model shows in the figure itself.

use costmodel::cluster::cluster_cost_even;
use costmodel::phash::phash_cost;
use costmodel::rjoin::rjoin_cost;
use costmodel::scan::scan_cost;
use costmodel::{ModelCost, ModelMachine};
use memsim::stride::scan_sim;
use memsim::{EventCounters, NullTracker, SimTracker};
use monet_core::join::{join_clustered, radix_cluster, radix_join_clustered, FibHash};
use monet_core::strategy::plan_passes;
use workload::{join_pair, unique_random_buns};

use crate::report::{fmt_ms, TextTable};
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

/// One experiment point: the model's and the simulator's elapsed time side
/// by side, then the relative error of time and of each miss count. The
/// time error is also collected into `errs`.
fn row(
    t: &mut TextTable,
    errs: &mut Vec<f64>,
    (experiment, point): (&str, String),
    m: &ModelCost,
    sim_ms: f64,
    sim: &EventCounters,
) {
    let e = rel_err(m.total_ms(), sim_ms);
    errs.push(e);
    t.row(vec![
        experiment.into(),
        point,
        fmt_ms(m.total_ms()),
        fmt_ms(sim_ms),
        pct(e),
        pct(rel_err(m.l1_misses, sim.l1_misses as f64)),
        pct(rel_err(m.l2_misses, sim.l2_misses as f64)),
        pct(rel_err(m.tlb_misses, sim.tlb_misses as f64)),
    ]);
}

/// Run the validation report.
pub fn run(opts: &RunOpts) {
    let machine = opts.machine();
    let model = ModelMachine::new(&machine);
    let mut t = TextTable::new(
        "Model vs simulator: elapsed ms and relative error",
        &["experiment", "point", "model ms", "sim ms", "time err", "L1 err", "L2 err", "TLB err"],
    );
    let mut time_errors: Vec<f64> = Vec::new();

    // Scan (Fig. 3): the model is near-exact by construction.
    for stride in [1usize, 8, 32, 128, 256] {
        let sim = scan_sim(machine, 100_000, stride);
        let m = scan_cost(&model, 100_000, stride);
        let point = ("scan", format!("stride {stride}"));
        row(&mut t, &mut time_errors, point, &m, sim.elapsed_ms, &sim.counters);
    }

    // Radix-cluster (Fig. 9).
    let c = 500_000usize;
    let input = unique_random_buns(c, opts.seed);
    for (bits, passes) in [(4u32, 1u32), (8, 1), (8, 2), (12, 2), (16, 3)] {
        let pass_bits = crate::figures::fig9::even_split(bits, passes);
        let (_, sim) = sim_cluster(machine, input.clone(), bits, &pass_bits);
        let m = cluster_cost_even(&model, passes, bits, c as f64);
        let point = ("radix-cluster", format!("B={bits} P={passes}"));
        row(&mut t, &mut time_errors, point, &m, sim.elapsed_ms(), &sim);
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
        let point = ("radix-join", format!("B={bits}"));
        row(&mut t, &mut time_errors, point, &m, sim.elapsed_ms(), &sim);
    }
    for bits in [4u32, 8, 11] {
        let passes = plan_passes(bits, machine.tlb.entries);
        let lc = radix_cluster(&mut NullTracker, FibHash, l.clone(), bits, &passes);
        let rc = radix_cluster(&mut NullTracker, FibHash, r.clone(), bits, &passes);
        let mut trk = SimTracker::for_machine(machine);
        join_clustered(&mut trk, FibHash, &lc, &rc);
        let sim = trk.counters();
        let m = phash_cost(&model, bits, cj as f64);
        let point = ("phash-join", format!("B={bits}"));
        row(&mut t, &mut time_errors, point, &m, sim.elapsed_ms(), &sim);
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
