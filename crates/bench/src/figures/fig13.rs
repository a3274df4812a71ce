//! **Figure 13** — "Overall Algorithm Comparison": every strategy of §3.4.4
//! plus the random-access baselines, across cardinalities. This is the
//! paper's punchline figure: cache-conscious join algorithms beat simple
//! hash and sort-merge by growing factors as relations grow.

use costmodel::plan::{best_plan, plan_cost};
use costmodel::ModelMachine;
use memsim::SimTracker;
use monet_core::join::{join, FibHash};
use monet_core::strategy::Strategy;
use workload::join_pair;

use crate::report::{fmt_card, fmt_ms, TextTable};
use crate::runner::RunOpts;

/// Measure one strategy end-to-end on a cold simulated Origin2000.
fn measure(
    machine: memsim::MachineConfig,
    s: Strategy,
    l: &[monet_core::join::Bun],
    r: &[monet_core::join::Bun],
) -> f64 {
    let plan = s.plan(r.len(), &machine);
    let mut trk = SimTracker::for_machine(machine);
    let (pairs, _) = join(&mut trk, FibHash, l.to_vec(), r.to_vec(), &plan, 1);
    assert_eq!(pairs.len(), l.len(), "hit rate 1");
    trk.counters().elapsed_ms()
}

/// Run the Figure 13 reproduction.
pub fn run(opts: &RunOpts) {
    let machine = opts.machine();
    let model = ModelMachine::new(&machine);

    let mut headers: Vec<String> = vec!["strategy".into()];
    let cards = opts.overall_cards();
    for &c in &cards {
        headers.push(format!("{} ms", fmt_card(c)));
        headers.push(format!("{} model", fmt_card(c)));
    }
    let mut t = TextTable::new(
        "Figure 13: overall comparison, total ms (simulated origin2k)",
        &headers.iter().map(|s| s.as_str()).collect::<Vec<_>>(),
    );

    let pairs: Vec<_> = cards.iter().map(|&c| join_pair(c, opts.seed)).collect();

    for s in Strategy::ALL {
        let mut row = vec![s.name().to_string()];
        for (i, &c) in cards.iter().enumerate() {
            let (l, r) = &pairs[i];
            let ms = measure(machine, s, l, r);
            let plan = s.plan(c, &machine);
            let m = plan_cost(&model, &plan, c as f64);
            row.push(fmt_ms(ms));
            row.push(fmt_ms(m.total_ms()));
        }
        t.row(row);
    }

    // The model-optimal plan per cardinality (the "best" of Figure 12).
    let mut row = vec!["best (model plan)".to_string()];
    for (i, &c) in cards.iter().enumerate() {
        let (plan, mc) = best_plan(&model, &machine, c);
        let (l, r) = &pairs[i];
        let mut trk = SimTracker::for_machine(machine);
        let (got, _) = join(&mut trk, FibHash, l.clone(), r.clone(), &plan, 1);
        assert_eq!(got.len(), c);
        row.push(fmt_ms(trk.counters().elapsed_ms()));
        row.push(fmt_ms(mc.total_ms()));
    }
    t.row(row);

    super::emit(opts, &t);
    println!(
        "Expected shape (paper): sort-merge and simple hash degrade steeply with \
         cardinality; the phash family stays near-linear; 'cache-conscious' refers \
         to L2, L1 *and* the TLB.\n"
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::Scale;

    #[test]
    fn cache_conscious_wins_at_250k() {
        let machine = memsim::profiles::origin2000();
        let (l, r) = join_pair(250_000, 5);
        let simple = measure(machine, Strategy::SimpleHash, &l, &r);
        let smerge = measure(machine, Strategy::SortMerge, &l, &r);
        let pmin = measure(machine, Strategy::PhashMin, &l, &r);
        assert!(pmin < simple, "phash min {pmin} vs simple {simple}");
        assert!(pmin < smerge, "phash min {pmin} vs sort-merge {smerge}");
    }

    #[test]
    fn smoke() {
        run(&RunOpts { scale: Scale::Quick, ..Default::default() });
    }
}
