//! Shared measurement plumbing for the figure harness.

use std::path::PathBuf;

use memsim::{profiles, EventCounters, MachineConfig, SimTracker};
use monet_core::join::Bun;
use monet_core::join::{radix_cluster, ClusteredRel, FibHash};
use service::ServiceConfig;

/// How big to run the experiments.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Small cardinalities; everything finishes in seconds.
    Quick,
    /// The default: preserves every regime of the figures (all cache/TLB
    /// thresholds are crossed) at laptop-friendly cardinalities.
    Default,
    /// The paper's largest cardinalities (up to 64M tuples = 512 MB per
    /// BAT); needs several GB of RAM and patience.
    Full,
}

/// The `--threads` driver flag: how parallel-capable experiments execute.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ThreadsOpt {
    /// Sequential execution (the default; matches the paper's machines).
    #[default]
    Seq,
    /// A fixed thread count.
    Fixed(usize),
    /// Thread counts chosen per-operator by `costmodel::parallel`.
    Auto,
}

impl ThreadsOpt {
    /// The executor setting this flag maps to.
    pub fn exec_threads(self) -> engine::exec::Threads {
        match self {
            ThreadsOpt::Seq => engine::exec::Threads::Fixed(1),
            ThreadsOpt::Fixed(n) => engine::exec::Threads::Fixed(n.max(1)),
            ThreadsOpt::Auto => engine::exec::Threads::Auto,
        }
    }

    /// The service configuration this flag gives `service` and `shard`: a
    /// budget of `N` threads for `--threads N`, else [`ServiceConfig::new`]'s
    /// (the host's available parallelism) with no flag or `--threads auto`.
    pub fn service_config(self) -> ServiceConfig {
        match self {
            ThreadsOpt::Fixed(n) => ServiceConfig::new().with_budget(n),
            ThreadsOpt::Seq | ThreadsOpt::Auto => ServiceConfig::new(),
        }
    }
}

/// Apply the `--access` driver flag to executor options: `None` (no flag)
/// leaves the executor default, `auto`, in charge.
pub fn apply_access(
    access: Option<engine::AccessMode>,
    opts: engine::exec::ExecOptions,
) -> engine::exec::ExecOptions {
    match access {
        Some(mode) => opts.with_access(mode),
        None => opts,
    }
}

/// Options shared by all figure harnesses.
#[derive(Debug, Clone)]
pub struct RunOpts {
    /// Experiment scale.
    pub scale: Scale,
    /// Also write each table as CSV into this directory.
    pub csv_dir: Option<PathBuf>,
    /// Add host wall-clock measurements where meaningful.
    pub native: bool,
    /// RNG seed for all generated workloads.
    pub seed: u64,
    /// Degree of parallelism for the executor-driven experiments
    /// (`--threads N` / `--threads auto`).
    pub threads: ThreadsOpt,
    /// Selection access-path policy for the executor-driven experiments
    /// (`--access scan|index|auto`; `None` = executor default).
    pub access: Option<engine::AccessMode>,
    /// Pin the `service` experiment to one client count (`--clients N`;
    /// `None` = sweep the scale's default client counts).
    pub clients: Option<usize>,
    /// Run the `shared` experiment's churn variant (`--churn`): duplicate
    /// storms that collapse into one execution and staggered clients that
    /// attach to a running elevator pass.
    pub churn: bool,
    /// Add the `compress` experiment's candidate-pushdown series
    /// (`--pushdown`): a needle-AND-wide conjunction evaluated in both leaf
    /// orders, restricted later leaves vs full-column passes, with the
    /// engine planner's chosen order checked against the simulator.
    pub pushdown: bool,
}

impl Default for RunOpts {
    fn default() -> Self {
        Self {
            scale: Scale::Default,
            csv_dir: None,
            native: false,
            seed: 42,
            threads: ThreadsOpt::Seq,
            access: None,
            clients: None,
            churn: false,
            pushdown: false,
        }
    }
}

impl RunOpts {
    /// The simulated machine (always the paper's Origin2000).
    pub fn machine(&self) -> MachineConfig {
        profiles::origin2000()
    }

    /// Join-experiment cardinalities for Figures 10–11 (paper: 15625,
    /// 125000, 1M, 8M, 64M).
    pub fn join_cards(&self) -> Vec<usize> {
        match self.scale {
            Scale::Quick => vec![15_625, 125_000],
            Scale::Default => vec![15_625, 125_000, 1_000_000],
            Scale::Full => vec![15_625, 125_000, 1_000_000, 8_000_000, 64_000_000],
        }
    }

    /// Overall-comparison cardinalities for Figures 12–13 (paper: 15625 …
    /// 64M in powers of 4).
    pub fn overall_cards(&self) -> Vec<usize> {
        match self.scale {
            Scale::Quick => vec![15_625, 62_500, 250_000],
            Scale::Default => vec![15_625, 62_500, 250_000, 1_000_000],
            Scale::Full => {
                vec![15_625, 62_500, 250_000, 1_000_000, 4_000_000, 16_000_000, 64_000_000]
            }
        }
    }

    /// Cardinality for the Figure 9 cluster sweep (paper: 8M).
    pub fn cluster_card(&self) -> usize {
        match self.scale {
            Scale::Quick => 250_000,
            Scale::Default => 2_000_000,
            Scale::Full => 8_000_000,
        }
    }

    /// Maximum radix bits swept in Figure 9 (paper: 20).
    pub fn cluster_max_bits(&self) -> u32 {
        match self.scale {
            Scale::Quick => 14,
            _ => 20,
        }
    }
}

/// Simulate a radix-cluster run on a fresh, cold Origin2000.
/// Returns the clustered relation and the event counters of the clustering.
pub fn sim_cluster(
    machine: MachineConfig,
    input: Vec<Bun>,
    bits: u32,
    pass_bits: &[u32],
) -> (ClusteredRel, EventCounters) {
    let mut trk = SimTracker::for_machine(machine);
    let rel = radix_cluster(&mut trk, FibHash, input, bits, pass_bits);
    let c = trk.counters();
    (rel, c)
}

/// Simulate `f` on a fresh, cold Origin2000 and return its counters.
pub fn sim<R>(machine: MachineConfig, f: impl FnOnce(&mut SimTracker) -> R) -> (R, EventCounters) {
    let mut trk = SimTracker::for_machine(machine);
    let r = f(&mut trk);
    let c = trk.counters();
    (r, c)
}

#[cfg(test)]
mod tests {
    use super::*;
    use workload::unique_random_buns;

    #[test]
    fn defaults_are_sane() {
        let o = RunOpts::default();
        assert_eq!(o.scale, Scale::Default);
        assert!(o.join_cards().contains(&1_000_000));
        assert_eq!(o.machine().name, "origin2k");
    }

    #[test]
    fn full_scale_matches_paper_cardinalities() {
        let o = RunOpts { scale: Scale::Full, ..Default::default() };
        assert_eq!(o.join_cards(), vec![15_625, 125_000, 1_000_000, 8_000_000, 64_000_000]);
        assert_eq!(o.cluster_card(), 8_000_000);
        assert_eq!(o.overall_cards().len(), 7);
    }

    #[test]
    fn threads_flag_sets_the_service_budget() {
        let host = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
        assert_eq!(ThreadsOpt::default().service_config().budget, host, "no flag: the host's");
        assert_eq!(ThreadsOpt::Auto.service_config().budget, host, "`auto`: the host's");
        for n in [1, 2, 3, 64] {
            assert_eq!(ThreadsOpt::Fixed(n).service_config().budget, n, "`{n}`");
        }
    }

    #[test]
    fn sim_cluster_returns_consistent_counters() {
        let input = unique_random_buns(10_000, 1);
        let (rel, c) = sim_cluster(profiles::origin2000(), input, 4, &[4]);
        assert_eq!(rel.len(), 10_000);
        assert!(c.l1_misses > 0);
        assert!(c.cpu_ns > 0.0);
    }
}
