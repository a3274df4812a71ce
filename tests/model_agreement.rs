//! Model-vs-simulator agreement at integration level: the analytical model
//! (costmodel) must track the trace-driven simulator (memsim) running the
//! real algorithms (monet-core) — the paper's own validation methodology.

use monet_mem::core::join::{join_clustered, radix_cluster, radix_join_clustered, FibHash};
use monet_mem::core::strategy::plan_passes;
use monet_mem::costmodel::cluster::cluster_cost;
use monet_mem::costmodel::phash::phash_cost;
use monet_mem::costmodel::rjoin::rjoin_cost;
use monet_mem::costmodel::scan::scan_cost;
use monet_mem::costmodel::ModelMachine;
use monet_mem::memsim::stride::scan_sim;
use monet_mem::memsim::{profiles, NullTracker, SimTracker};
use monet_mem::workload::{join_pair, unique_random_buns};

fn model() -> ModelMachine {
    ModelMachine::new(&profiles::origin2000())
}

fn rel_err(model: f64, sim: f64) -> f64 {
    (model - sim).abs() / sim.max(1e-12)
}

#[test]
fn scan_model_is_exact_in_steady_state() {
    let machine = profiles::origin2000();
    let m = model();
    for stride in [1usize, 4, 8, 16, 32, 64, 128, 256] {
        let sim = scan_sim(machine, 200_000, stride);
        let pred = scan_cost(&m, 200_000, stride);
        assert!(
            rel_err(pred.total_ms(), sim.elapsed_ms) < 0.03,
            "stride {stride}: {} vs {}",
            pred.total_ms(),
            sim.elapsed_ms
        );
    }
}

#[test]
fn cluster_elapsed_time_tracks_simulator() {
    let machine = profiles::origin2000();
    let m = model();
    let c = 400_000usize;
    let input = unique_random_buns(c, 5);
    for (bits, pass_bits) in
        [(4u32, vec![4u32]), (8, vec![8]), (10, vec![5, 5]), (14, vec![7, 7]), (15, vec![5, 5, 5])]
    {
        let mut trk = SimTracker::for_machine(machine);
        radix_cluster(&mut trk, FibHash, input.clone(), bits, &pass_bits);
        let sim = trk.counters();
        let pred = cluster_cost(&m, &pass_bits, c as f64);
        let e = rel_err(pred.total_ms(), sim.elapsed_ms());
        assert!(
            e < 0.6,
            "B={bits} {pass_bits:?}: model {} vs sim {} (err {e:.2})",
            pred.total_ms(),
            sim.elapsed_ms()
        );
    }
}

#[test]
fn join_phase_models_track_simulator() {
    let machine = profiles::origin2000();
    let m = model();
    let c = 200_000usize;
    let (l, r) = join_pair(c, 6);

    for bits in [12u32, 14, 16] {
        let passes = plan_passes(bits, machine.tlb.entries);
        let lc = radix_cluster(&mut NullTracker, FibHash, l.clone(), bits, &passes);
        let rc = radix_cluster(&mut NullTracker, FibHash, r.clone(), bits, &passes);
        let mut trk = SimTracker::for_machine(machine);
        radix_join_clustered(&mut trk, FibHash, &lc, &rc);
        let e = rel_err(rjoin_cost(&m, bits, c as f64).total_ms(), trk.counters().elapsed_ms());
        assert!(e < 0.3, "radix join B={bits}: err {e:.2}");
    }

    for bits in [6u32, 9, 11] {
        let passes = plan_passes(bits, machine.tlb.entries);
        let lc = radix_cluster(&mut NullTracker, FibHash, l.clone(), bits, &passes);
        let rc = radix_cluster(&mut NullTracker, FibHash, r.clone(), bits, &passes);
        let mut trk = SimTracker::for_machine(machine);
        join_clustered(&mut trk, FibHash, &lc, &rc);
        let e = rel_err(phash_cost(&m, bits, c as f64).total_ms(), trk.counters().elapsed_ms());
        assert!(e < 0.3, "phash join B={bits}: err {e:.2}");
    }
}

#[test]
fn model_predicts_the_measured_phash_optimum_region() {
    // The model's argmin over B should land within ±2 bits of the
    // simulator's — that is what makes it usable for planning (Fig. 12).
    let machine = profiles::origin2000();
    let m = model();
    let c = 250_000usize;
    let (l, r) = join_pair(c, 8);

    let mut sim_best = (0u32, f64::MAX);
    let mut model_best = (0u32, f64::MAX);
    for bits in 0..=14u32 {
        let passes = plan_passes(bits, machine.tlb.entries);
        let mut trk = SimTracker::for_machine(machine);
        let lc = radix_cluster(&mut trk, FibHash, l.clone(), bits, &passes);
        let rc = radix_cluster(&mut trk, FibHash, r.clone(), bits, &passes);
        join_clustered(&mut trk, FibHash, &lc, &rc);
        let sim_ms = trk.counters().elapsed_ms();
        if sim_ms < sim_best.1 {
            sim_best = (bits, sim_ms);
        }
        let pred = monet_mem::costmodel::plan::phash_total(&m, bits, &passes, c as f64);
        if pred.total_ms() < model_best.1 {
            model_best = (bits, pred.total_ms());
        }
    }
    let diff = (sim_best.0 as i64 - model_best.0 as i64).abs();
    assert!(diff <= 2, "simulated optimum B={} vs model optimum B={}", sim_best.0, model_best.0);
}

#[test]
fn tlb_explosion_point_matches_model_prediction() {
    // Both simulator and model must place the one-pass TLB cliff at
    // H_p > 64 (B = 6 on the Origin2000).
    let machine = profiles::origin2000();
    let m = model();
    let c = 500_000usize;
    let input = unique_random_buns(c, 9);

    let tlb_at = |bits: u32| {
        let mut trk = SimTracker::for_machine(machine);
        radix_cluster(&mut trk, FibHash, input.clone(), bits, &[bits]);
        trk.counters().tlb_misses as f64
    };
    let sim_jump = tlb_at(9) / tlb_at(6).max(1.0);
    let model_jump =
        cluster_cost(&m, &[9], c as f64).tlb_misses / cluster_cost(&m, &[6], c as f64).tlb_misses;
    assert!(sim_jump > 10.0, "simulated TLB jump {sim_jump}");
    assert!(model_jump > 10.0, "modelled TLB jump {model_jump}");
}
