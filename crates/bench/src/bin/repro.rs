//! `repro` — regenerate the figures of Boncz, Manegold & Kersten (VLDB 1999).
//!
//! ```text
//! repro [fig3|fig4|fig9|fig10|fig11|fig12|fig13|validate|all]
//!       [--quick|--full] [--csv DIR] [--native] [--seed N]
//!       [--threads N|auto]
//! ```

use std::path::PathBuf;
use std::process::ExitCode;

use engine::AccessMode;
use monet_bench::figures;
use monet_bench::runner::{RunOpts, Scale, ThreadsOpt};

const USAGE: &str = "\
usage: repro <command> [options]

commands:
  fig3       Figure 3: stride scan on four 1990s machines
  fig4       Figure 4: storage bytes/tuple + NSM vs DSM scan
  fig9       Figure 9: radix-cluster sweep (bits x passes)
  fig10      Figure 10: radix-join join phase
  fig11      Figure 11: partitioned hash-join join phase
  fig12      Figure 12: overall radix-join vs partitioned hash-join
  fig13      Figure 13: overall strategy comparison
  validate   model-vs-simulator relative errors
  fig1       Figure 1: CPU vs DRAM trend across machine profiles
  select     selection access paths: scan / binary search / B-tree / hash
  skew       Zipf-skew ablation for the join strategies (extension)
  vm         section-4 virtual-memory experiment (extension)
  query      composed query pipelines through the cost-model-driven executor
  parallel   parallel-scaling sweep: measured vs model-predicted speedup
  kernel_sweep
             chained-hash join kernel: native ns per outer tuple over radix
             bits x inner rows x hit rate, checked against the nested loop
  access     access-path crossover: scan vs index selects, model vs simulator
  compress   compressed scans: FOR/RLE/dict selects directly on compressed
             columns, simulated bytes streamed + model vs simulator, and the
             packed-scan vs index-probe flip
  service    concurrent query service: budgeted scheduler vs naive Auto,
             throughput/latency over client counts
  shared     cooperative shared scans + hot-result cache: scan-traffic
             reduction over client count x predicate overlap, cache hit
             rate on the Zipf-hot needle mix
  trace      query lifecycle tracing + cost-model drift observatory:
             replays a churn mix against a traced service, renders the
             per-query timeline and drift table, and fails on any
             lifecycle-DFA violation or out-of-band drift ratio
  shard      hash-sharded execution: virtual throughput + tail latency
             over shard counts on the Zipf-hot-shard mix, cost-placed vs
             round-robin with replicas on/off; asserts bit-identical
             merges, placer wins, budget held, and drift in band
  all        everything above, in order

options:
  --quick       smaller cardinalities (seconds)
  --full        the paper's largest cardinalities (up to 64M tuples; slow)
  --csv DIR     also write each table as CSV under DIR
  --native      add host wall-clock columns where meaningful
  --seed N      workload RNG seed (default 42)
  --threads T   executor parallelism for `query`: a count, or `auto` to let
                the parallel cost model pick per operator (default 1); the
                thread budget of `service` and `shard`: a count, or `auto`
                for the host's parallelism (the default)
  --access P    selection access-path policy for `query`/`access`:
                scan | index | auto (default: auto)
  --clients N   pin `service`/`shared` to one client count (default: sweep
                1..8); the service thread budget comes from --threads
                (`shared` pins its budgets internally)
  --churn       run `shared` as the churn experiment instead: duplicate
                storms (every client submits the identical plan — all but
                one collapse into a single execution) and staggered
                same-column clients (late arrivals attach to the running
                chunked elevator pass), plus the sharing-off baseline
  --pushdown    add the candidate-pushdown series to `compress`: a needle
                AND wide-leaf conjunction simulated in both leaf orders,
                restricted later leaves vs full-column passes, and the
                engine planner's chosen order checked against the simulator
";

/// The commands `all` runs, in order.
const COMMANDS: [&str; 21] = [
    "fig1",
    "fig3",
    "fig4",
    "fig9",
    "fig10",
    "fig11",
    "fig12",
    "fig13",
    "validate",
    "select",
    "skew",
    "vm",
    "query",
    "parallel",
    "kernel_sweep",
    "access",
    "compress",
    "service",
    "shared",
    "trace",
    "shard",
];

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut command: Option<String> = None;
    let mut opts = RunOpts::default();

    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--quick" => opts.scale = Scale::Quick,
            "--full" => opts.scale = Scale::Full,
            "--native" => opts.native = true,
            "--csv" => {
                i += 1;
                match args.get(i) {
                    Some(dir) => opts.csv_dir = Some(PathBuf::from(dir)),
                    None => return usage_error("--csv requires a directory"),
                }
            }
            "--seed" => {
                i += 1;
                match args.get(i).and_then(|s| s.parse().ok()) {
                    Some(seed) => opts.seed = seed,
                    None => return usage_error("--seed requires an integer"),
                }
            }
            "--threads" => {
                i += 1;
                match args.get(i).map(String::as_str) {
                    Some("auto") => opts.threads = ThreadsOpt::Auto,
                    Some(n) => match n.parse::<usize>() {
                        Ok(n) if n >= 1 => opts.threads = ThreadsOpt::Fixed(n),
                        _ => return usage_error("--threads requires a count >= 1 or `auto`"),
                    },
                    None => return usage_error("--threads requires a count or `auto`"),
                }
            }
            "--access" => {
                i += 1;
                match args.get(i).and_then(|s| AccessMode::parse(s)) {
                    Some(mode) => opts.access = Some(mode),
                    None => return usage_error("--access requires scan, index, or auto"),
                }
            }
            "--clients" => {
                i += 1;
                match args.get(i).and_then(|s| s.parse::<usize>().ok()) {
                    Some(n) if n >= 1 => opts.clients = Some(n),
                    _ => return usage_error("--clients requires a count >= 1"),
                }
            }
            "--churn" => opts.churn = true,
            "--pushdown" => opts.pushdown = true,
            "-h" | "--help" => {
                print!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            cmd if !cmd.starts_with('-') && command.is_none() => {
                command = Some(cmd.to_string());
            }
            other => return usage_error(&format!("unknown argument: {other}")),
        }
        i += 1;
    }

    let Some(command) = command else {
        return usage_error("missing command");
    };

    let run_one = |name: &str| match name {
        "fig3" => figures::fig3::run(&opts),
        "fig4" => figures::fig4::run(&opts),
        "fig9" => figures::fig9::run(&opts),
        "fig10" => figures::fig10::run(&opts),
        "fig11" => figures::fig11::run(&opts),
        "fig12" => figures::fig12::run(&opts),
        "fig13" => figures::fig13::run(&opts),
        "validate" => figures::validate::run(&opts),
        "fig1" => figures::fig1::run(&opts),
        "select" => figures::select_paths::run(&opts),
        "skew" => figures::skew::run(&opts),
        "vm" => figures::vm::run(&opts),
        "query" => figures::query_pipeline::run(&opts),
        "parallel" => figures::par_scaling::run(&opts),
        "kernel_sweep" => figures::kernel_sweep::run(&opts),
        "access" => figures::access_paths::run(&opts),
        "compress" => figures::compress::run(&opts),
        "service" => figures::service::run(&opts),
        "shared" => figures::shared::run(&opts),
        "trace" => figures::trace::run(&opts),
        "shard" => figures::shard::run(&opts),
        _ => unreachable!("commands are checked against COMMANDS"),
    };

    let names = match command.as_str() {
        "all" => COMMANDS.to_vec(),
        name if COMMANDS.contains(&name) => vec![name],
        name => return usage_error(&format!("unknown command: {name}")),
    };
    for &name in &names {
        if names.len() > 1 {
            println!("\n=== {name} ===\n");
        }
        run_one(name);
    }
    ExitCode::SUCCESS
}

fn usage_error(msg: &str) -> ExitCode {
    eprintln!("error: {msg}\n\n{USAGE}");
    ExitCode::FAILURE
}
