//! `wallbench` — the repo's wall-clock benchmark (see `README.md` here).
//!
//! ```text
//! wallbench [run|trace|all] [--workload NAME] [--seed N] [--seconds S]
//!           [--trace 0|1] [--quick]
//! ```
//!
//! One process per workload run. `run` (or `--trace 0`) measures the
//! end-to-end metrics with no tracing; `trace` (or `--trace 1`) replays a
//! prefix of the same op stream with spans around every call into a layer
//! and prints the per-layer metrics. Standard output is one JSON object per
//! line: a header, one line per metric, and last the summary the driver
//! reads.

mod run;
mod spans;
mod stats;
mod trace;
mod workloads;

use std::process::ExitCode;

use workloads::{exec_options, service_config, trace_mode, Scale, Workload};

const USAGE: &str = "usage: wallbench [run|trace|all] [--workload NAME] [--seed N] \
                     [--seconds S] [--trace 0|1] [--quick]\n\
                     workloads: scan_cold join_big serve_shared shard_fanout serve_traced";

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    Run,
    Trace,
    All,
}

struct Args {
    mode: Mode,
    workload: Option<Workload>,
    seed: u64,
    seconds: Option<f64>,
    quick: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut out = Args { mode: Mode::Run, workload: None, seed: 42, seconds: None, quick: false };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| it.next().ok_or(format!("{flag} needs a value"));
        match arg.as_str() {
            "run" => out.mode = Mode::Run,
            "trace" => out.mode = Mode::Trace,
            "all" => out.mode = Mode::All,
            "--quick" => out.quick = true,
            "--workload" => {
                let name = value("--workload")?;
                out.workload =
                    Some(Workload::parse(name).ok_or(format!("unknown workload {name:?}"))?);
            }
            "--seed" => {
                out.seed = value("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                let s: f64 = value("--seconds")?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err("--seconds must be in (0, 3600]".to_owned());
                }
                out.seconds = Some(s);
            }
            "--trace" => {
                out.mode = match value("--trace")?.as_str() {
                    "0" => Mode::Run,
                    "1" => Mode::Trace,
                    other => return Err(format!("--trace takes 0 or 1, got {other:?}")),
                };
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(out)
}

/// The commit of the checkout the benchmark runs from, read from `.git`
/// without starting a process ("unknown" outside a git repository).
fn git_commit() -> String {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../.git");
    let read = |p: std::path::PathBuf| std::fs::read_to_string(p).ok();
    let head = read(root.join("HEAD")).unwrap_or_default();
    let commit = match head.trim().strip_prefix("ref: ") {
        Some(r) => read(root.join(r)).unwrap_or_default(),
        None => head,
    };
    let commit = commit.trim();
    if commit.is_empty() {
        "unknown".to_owned()
    } else {
        commit.to_owned()
    }
}

fn metric_line(
    w: Workload,
    name: &str,
    value: f64,
    unit: &str,
    samples: usize,
    spread: Option<f64>,
) {
    let spread = spread.map_or(String::new(), |s| format!(",\"spread\":{s}"));
    println!(
        "{{\"workload\":\"{}\",\"metric\":\"{name}\",\"value\":{value},\"unit\":\"{unit}\",\"samples\":{samples}{spread}}}",
        w.name()
    );
}

/// The last line: what the driver reads.
fn summary_line(attempted: usize, failed: usize, metrics: &[(&str, f64, &str)]) {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| format!("\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}"))
        .collect();
    println!(
        "{{\"correct\":{},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{}}}}}",
        failed == 0,
        body.join(",")
    );
}

fn header_line(w: Workload, mode: Mode, args: &Args, p: &workloads::Params, seconds: f64) {
    let cfg = service_config(p, trace_mode(p));
    let opts = exec_options(engine::exec::Threads::Auto, Some(p.budget));
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "{{\"header\":{{\"workload\":\"{}\",\"mode\":\"{}\",\"seed\":{},\"seconds\":{seconds},\
         \"quick\":{},\"nproc\":{nproc},\"git_commit\":\"{}\",\"item_rows\":{},\"clients\":{},\
         \"round_ops\":{},\"warmup_ops\":{},\"sim_ops\":{},\
         \"service\":{{\"machine\":\"{}\",\"budget\":{},\"queue_limit\":{},\"starvation_bound\":{},\
         \"shared_scans\":{},\"cache_bytes\":{},\"chunk_rows\":{},\"trace\":\"{:?}\",\
         \"drift_band\":{}}},\"exec\":{{\"planner\":\"{:?}\",\"threads\":\"{:?}\",\"access\":\"{}\",\
         \"compress\":\"{}\",\"pushdown\":\"{}\"}}}}}}",
        w.name(),
        if mode == Mode::Trace { "trace" } else { "run" },
        args.seed,
        args.quick,
        git_commit(),
        p.item_rows,
        p.clients,
        p.round_ops,
        p.warmup_ops,
        p.sim_ops,
        cfg.machine.name,
        cfg.budget,
        cfg.queue_limit,
        cfg.starvation_bound,
        cfg.shared_scans,
        cfg.cache_bytes,
        cfg.chunk_rows,
        cfg.trace,
        cfg.drift_band,
        opts.planner,
        opts.threads,
        opts.access.name(),
        opts.compress.name(),
        opts.pushdown.name(),
    );
}

/// Run one workload in this process; returns the number of failed ops.
fn one(w: Workload, mode: Mode, args: &Args) -> usize {
    let scale = if args.quick { Scale::Quick } else { Scale::Full };
    let p = w.params(scale);
    let seconds = args.seconds.unwrap_or(if args.quick { 1.0 } else { 10.0 });
    header_line(w, mode, args, &p, seconds);
    if mode == Mode::Trace {
        let t = trace::trace(w, &p, args.seed);
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join(format!("out/{}.spans.jsonl", w.name()));
        if let Err(e) = t.recorder.write_jsonl(&path) {
            eprintln!("wallbench: could not write {}: {e}", path.display());
        }
        for m in &t.metrics {
            metric_line(w, m.name, m.value, m.unit, m.samples, m.spread);
        }
        let metrics: Vec<_> = t.metrics.iter().map(|m| (m.name, m.value, m.unit)).collect();
        summary_line(t.attempted, t.failed, &metrics);
        return t.failed;
    }
    let r = run::run(w, &p, args.seed, seconds);
    let metrics = [
        ("setup_s", r.setup_s, "s"),
        ("qps", r.qps, "1/s"),
        ("lat_p50_ms", r.lat_p50_ms, "ms"),
        ("lat_p95_ms", r.lat_p95_ms, "ms"),
        ("peak_rss_mb", r.peak_rss_mb, "MB"),
    ];
    for (name, value, unit) in metrics {
        metric_line(w, name, value, unit, r.attempted, None);
    }
    // Reported beside the bounded metrics, not one of them: it is 0 on a
    // correct tree, and the summary's `failed`/`attempted` carry it.
    metric_line(
        w,
        "fail_ratio",
        r.failed as f64 / r.attempted.max(1) as f64,
        "ratio",
        r.attempted,
        None,
    );
    metric_line(w, "window_s", r.window_s, "s", r.rounds, Some(r.round_qps_spread));
    if w == Workload::ServeShared {
        metric_line(w, "service.cache_hit_ratio", r.cache_hit_ratio, "ratio", 1, None);
        if !(0.55..=0.90).contains(&r.cache_hit_ratio) {
            eprintln!(
                "wallbench: note: serve_shared cache hit ratio {:.3} is outside 0.55-0.90, the \
                 band in which lat_p50_ms is the hit path and lat_p95_ms the executed path",
                r.cache_hit_ratio
            );
        }
    }
    summary_line(r.attempted, r.failed, &metrics);
    r.failed
}

/// `all`: every workload, untraced then traced, one child process each so
/// peak memory and caches never carry over.
fn all(args: &Args) -> Result<usize, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut bad = 0;
    for w in Workload::ALL {
        for mode in ["run", "trace"] {
            let mut cmd = std::process::Command::new(&exe);
            cmd.args([mode, "--workload", w.name(), "--seed", &args.seed.to_string()]);
            if let Some(s) = args.seconds {
                cmd.args(["--seconds", &s.to_string()]);
            }
            if args.quick {
                cmd.arg("--quick");
            }
            let status = cmd.status().map_err(|e| format!("spawn {mode} {}: {e}", w.name()))?;
            bad += usize::from(!status.success());
        }
    }
    Ok(bad)
}

fn main() -> ExitCode {
    // `ExecOptions::cost_model`, `quote_plan_covered` and the service read
    // MONET_* knobs deep inside the call path; a stray one would silently
    // change what is measured.
    if let Some((k, _)) =
        std::env::vars_os().find(|(k, _)| k.to_string_lossy().starts_with("MONET_"))
    {
        eprintln!(
            "wallbench: refusing to start with {} set; unset every MONET_* variable",
            k.to_string_lossy()
        );
        return ExitCode::from(2);
    }
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("wallbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let failed = match (args.mode, args.workload) {
        (Mode::All, _) => match all(&args) {
            Ok(bad) => bad,
            Err(e) => {
                eprintln!("wallbench: {e}");
                return ExitCode::from(2);
            }
        },
        (mode, Some(w)) => one(w, mode, &args),
        (_, None) => {
            eprintln!("wallbench: --workload is required\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if failed > 0 {
        eprintln!("wallbench: {failed} failed");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
