//! **Query lifecycle tracing + cost-model drift observatory**
//! (`repro trace`) — the observability figure: replay a churn-style mix
//! against a traced service and render what the observability layer saw.
//!
//! The run drives every terminal state the service can produce:
//!
//! * **storm** rounds — every client submits the byte-identical plan in an
//!   admission-gated wave, so one query executes (`Delivered`) and the
//!   rest collapse onto its flight (`Collapsed`);
//! * **re-hit** — each round's storm plan is resubmitted afterwards and
//!   answered from the result cache (`CacheHit`);
//! * **stagger** — same-column clients with distinct constants ride one
//!   chunked elevator pass (`ChunkDone` / `ElevatorAttached` /
//!   `Preempted` events inside `Delivered` lifecycles);
//! * **drill** — one grouped aggregation, so the drift observatory sees
//!   gather and aggregate shapes, not just scans;
//! * **refused** — a plan the planner refuses (a filter above its
//!   aggregation) fails before admission (`Failed` straight from the
//!   start);
//! * **shed** — a zero-length admission queue rejects a query (`Shed`),
//!   with its trace exported in `TraceMode::File` (JSONL) and read back.
//!
//! The figure then **asserts** the tentpole claims: 100% of traces
//! validate against the lifecycle DFA with exactly the expected terminal
//! census, every exported line is well-formed JSON, and the drift
//! observatory's per-shape EWMA ratios of simulated-actual vs
//! model-quoted time all sit inside the ±2x band on the calibrated
//! machine — while every traced result stays bit-identical to a
//! sequential untraced replay.

use std::collections::BTreeMap;

use engine::exec::{execute, ExecOptions, Threads};
use engine::plan::{Agg, LogicalPlan, PlanNode, Pred, Query};
use memsim::NullTracker;
use obs::{validate_lifecycle, QueryTrace, Terminal, TraceEvent, TraceMode};
use service::{QueryService, ServiceConfig, ServiceError};
use workload::{item_table, ChurnMix, QuerySpec};

use crate::report::{fmt_ms, TextTable};
use crate::runner::{RunOpts, Scale};

/// Run the lifecycle-tracing + drift-observatory figure.
pub fn run(opts: &RunOpts) {
    let (n, rounds) = match opts.scale {
        Scale::Quick => (60_000, 2),
        Scale::Default => (200_000, 3),
        Scale::Full => (1_000_000, 4),
    };
    let clients = opts.clients.unwrap_or(6).max(2);
    let item = item_table(n, opts.seed);
    let supplier = super::query_pipeline::supplier_dim(100);
    let seq =
        ExecOptions::cost_model(memsim::profiles::origin2000()).with_threads(Threads::Fixed(1));
    let expect = |spec: &QuerySpec| {
        let plan = spec.build(&item, &supplier).unwrap();
        execute(&mut NullTracker, &plan, &seq).unwrap().output
    };

    println!(
        "traced service over {n} Item rows, {clients} clients x {rounds} storm rounds, \
         budget 1 thread, seed {}\n",
        opts.seed
    );

    // One traced service carries every leg except the shed (which needs a
    // zero-length queue). Chunked elevators force ChunkDone events.
    let chunk = (n / 64).max(1 << 10);
    let svc = QueryService::new(
        ServiceConfig::new()
            .with_budget(1)
            .with_queue_limit(1024)
            .with_cache_bytes(1 << 20)
            .with_chunk_rows(chunk)
            .with_trace(TraceMode::Ring),
    );

    // Leg A — duplicate storms: one execution per round, the rest collapse.
    for round in 0..rounds {
        let spec = ChurnMix::storm_spec(opts.seed, round);
        let want = expect(&spec);
        svc.pause_admission();
        std::thread::scope(|s| {
            let (svc, item, supplier, spec, want) = (&svc, &item, &supplier, &spec, &want);
            let handles: Vec<_> = (0..clients)
                .map(|_| {
                    s.spawn(move || {
                        let plan = spec.build(item, supplier).expect("storm plans validate");
                        let out = svc.session().run(&plan).expect("storm runs").into_executed();
                        assert!(
                            out.output.bitwise_eq(want),
                            "traced collapse must stay bit-identical"
                        );
                    })
                })
                .collect();
            // Hold the gate until the whole wave has led or joined the
            // round's flight, so collapse counts are deterministic.
            let target = (clients * (round + 1)) as u64;
            while svc.session_metrics().iter().map(|s| s.submitted).sum::<u64>() < target {
                std::thread::yield_now();
            }
            svc.resume_admission();
            for h in handles {
                h.join().expect("storm client panicked");
            }
        });
    }

    // Leg B — re-hits: each storm plan again, straight from the cache.
    for round in 0..rounds {
        let spec = ChurnMix::storm_spec(opts.seed, round);
        let plan = spec.build(&item, &supplier).expect("storm plans validate");
        let got = svc.session().run(&plan).expect("re-hit runs").into_executed();
        assert!(got.output.bitwise_eq(&expect(&spec)), "cache hit must stay bit-identical");
    }

    // Leg C — staggered same-column clients: client 0 opens the elevator,
    // the rest arrive mid-pass (attach counts are timing-dependent; the
    // lifecycle and bit-identity assertions are not).
    std::thread::scope(|s| {
        let (svc, item, supplier) = (&svc, &item, &supplier);
        let run_client = move |c: usize| {
            let spec = ChurnMix::stagger_spec(opts.seed, c);
            let plan = spec.build(item, supplier).expect("stagger plans validate");
            let out = svc.session().run(&plan).expect("stagger runs").into_executed();
            (c, out.output)
        };
        let streamed_before = svc.metrics().scan_rows_streamed;
        let completed_before = svc.metrics().completed;
        let first = s.spawn(move || run_client(0));
        loop {
            let m = svc.metrics();
            if m.scan_rows_streamed > streamed_before || m.completed > completed_before {
                break;
            }
            std::thread::yield_now();
        }
        let late: Vec<_> = (1..clients).map(|c| s.spawn(move || run_client(c))).collect();
        let mut outs = vec![first.join().expect("client 0 panicked")];
        for h in late {
            outs.push(h.join().expect("late client panicked"));
        }
        for (c, out) in &outs {
            let want = expect(&ChurnMix::stagger_spec(opts.seed, *c));
            assert!(out.bitwise_eq(&want), "client {c}: traced attach must stay bit-identical");
        }
    });

    // Leg D — one grouped aggregation, so drift sees gathers + grouped
    // accumulation alongside the scan shapes.
    let drill = QuerySpec::Drill { lo: 0.01, hi: 0.05 };
    let plan = drill.build(&item, &supplier).expect("drill validates");
    let got = svc.session().run(&plan).expect("drill runs").into_executed();
    assert!(got.output.bitwise_eq(&expect(&drill)), "traced drill must stay bit-identical");

    // Leg E — a plan the planner refuses: aggregation below a filter.
    let grouped = Query::scan(&item).group_by("shipmode").agg(Agg::count()).build().unwrap();
    let refused = LogicalPlan {
        root: PlanNode::Filter {
            input: Box::new(grouped.root),
            pred: Pred::range_i32("qty", 0, 1),
        },
    };
    assert!(
        matches!(svc.session().run(&refused), Err(ServiceError::Engine(_))),
        "a filter above its aggregation is refused"
    );

    // Leg F — shed, on its own zero-queue service with JSONL file export.
    let jsonl_path = std::env::temp_dir().join(format!("monet_trace_{}.jsonl", std::process::id()));
    let shed_svc = QueryService::new(
        ServiceConfig::new()
            .with_budget(1)
            .with_queue_limit(0)
            .with_cache_bytes(0)
            .with_trace(TraceMode::File(jsonl_path.display().to_string())),
    );
    shed_svc.pause_admission();
    let shed_plan = ChurnMix::storm_spec(opts.seed, 0).build(&item, &supplier).unwrap();
    assert!(
        matches!(shed_svc.session().run(&shed_plan), Err(ServiceError::Overloaded { .. })),
        "a zero-length queue under a paused gate sheds immediately"
    );
    shed_svc.resume_admission();

    // ---- The observability claims, asserted. ----
    let traces = svc.traces();
    let shed_traces = shed_svc.traces();
    let expected = (clients * rounds + rounds + clients + 2, 1usize);
    assert_eq!(
        (traces.len(), shed_traces.len()),
        expected,
        "every submission leaves exactly one trace"
    );

    let mut census: BTreeMap<&'static str, usize> = BTreeMap::new();
    let mut events: BTreeMap<&'static str, usize> = BTreeMap::new();
    let mut timeline = TextTable::new(
        "query lifecycles: every trace DFA-validated".to_owned(),
        &["query", "session", "terminal", "events", "quote ms", "queue ms", "sim ms", "rows"],
    );
    for t in traces.iter().chain(&shed_traces) {
        let term = validate_lifecycle(t)
            .unwrap_or_else(|e| panic!("lifecycle DFA violation: {e}\n{}", t.to_jsonl()));
        *census.entry(terminal_name(term)).or_default() += 1;
        for e in &t.events {
            *events.entry(e.event.name()).or_default() += 1;
        }
        assert_valid_json(&t.to_jsonl());
        timeline.row(timeline_row(t, term));
    }
    super::emit(opts, &timeline);

    assert_eq!(census.get("collapsed"), Some(&(rounds * (clients - 1))), "{census:?}");
    assert_eq!(census.get("cache-hit"), Some(&rounds), "{census:?}");
    assert_eq!(census.get("shed"), Some(&1), "{census:?}");
    assert_eq!(census.get("delivered"), Some(&(rounds + clients + 1)), "{census:?}");
    assert_eq!(census.get("failed"), Some(&1), "the refused plan: {census:?}");
    assert!(events.get("ChunkDone").copied().unwrap_or(0) > 0, "elevators must chunk: {events:?}");

    // The JSONL file export carries the same (valid) lines.
    let exported = std::fs::read_to_string(&jsonl_path).expect("trace file written");
    drop(std::fs::remove_file(&jsonl_path));
    let lines: Vec<&str> = exported.lines().collect();
    assert_eq!(lines.len(), shed_traces.len(), "one JSON line per completed trace");
    for line in &lines {
        assert_valid_json(line);
    }

    let mut tally = TextTable::new(
        "terminal census + event volume".to_owned(),
        &["terminal", "queries", "", "event", "count"],
    );
    let mut ev_rows: Vec<(&str, usize)> = events.into_iter().collect();
    ev_rows.sort_by_key(|r| std::cmp::Reverse(r.1));
    let census_rows: Vec<(&str, usize)> = census.into_iter().collect();
    for i in 0..census_rows.len().max(ev_rows.len()) {
        tally.row(vec![
            census_rows.get(i).map_or_else(String::new, |(k, _)| (*k).to_owned()),
            census_rows.get(i).map_or_else(String::new, |(_, v)| v.to_string()),
            String::new(),
            ev_rows.get(i).map_or_else(String::new, |(k, _)| (*k).to_owned()),
            ev_rows.get(i).map_or_else(String::new, |(_, v)| v.to_string()),
        ]);
    }
    super::emit(opts, &tally);

    println!("sample trace (shortest delivered lifecycle):");
    let sample = traces
        .iter()
        .filter(|t| matches!(validate_lifecycle(t), Ok(Terminal::Delivered)))
        .min_by_key(|t| t.events.len())
        .expect("at least one delivered trace");
    println!("{}\n", sample.to_jsonl());

    // The drift observatory: model-vs-simulated residuals per shape kind.
    let drift = svc.drift();
    println!("cost-model drift (EWMA of simulated-actual / model-quoted time):\n{drift}");
    assert!(!drift.rows.is_empty(), "traced execution must feed the observatory");
    assert!(
        drift.flagged().is_empty(),
        "calibrated model must stay within the ±{:.1}x band: {drift}",
        drift.band
    );
    for r in &drift.rows {
        assert!(
            r.drift.ewma > 1.0 / 2.0 && r.drift.ewma < 2.0,
            "{} drifted to {:.2}x",
            r.kind.name(),
            r.drift.ewma
        );
    }

    println!(
        "{} of {} traces DFA-complete (100%), terminals: {} delivered / {} collapsed / \
         {} cache hits / 1 refused / 1 shed; all drift ratios within ±2x.\n",
        traces.len() + shed_traces.len(),
        traces.len() + shed_traces.len(),
        rounds + clients + 1,
        rounds * (clients - 1),
        rounds,
    );
}

fn terminal_name(t: Terminal) -> &'static str {
    match t {
        Terminal::Delivered => "delivered",
        Terminal::CacheHit => "cache-hit",
        Terminal::Collapsed => "collapsed",
        Terminal::Shed => "shed",
        Terminal::Failed => "failed",
    }
}

fn timeline_row(t: &QueryTrace, term: Terminal) -> Vec<String> {
    let mut quote_ms = None;
    let mut queue_ms = None;
    let mut sim_ms = None;
    let mut rows = None;
    for e in &t.events {
        match &e.event {
            TraceEvent::Admitted { quote_ms: q, .. } => quote_ms = Some(*q),
            TraceEvent::Delivered { queue_ms: w, actual_ns, rows: r, .. } => {
                queue_ms = Some(*w);
                sim_ms = Some(actual_ns / 1e6);
                rows = Some(*r);
            }
            _ => {}
        }
    }
    let opt = |v: Option<f64>| v.map_or("-".to_owned(), fmt_ms);
    vec![
        t.query.to_string(),
        t.session.to_string(),
        terminal_name(term).to_owned(),
        t.events.len().to_string(),
        opt(quote_ms),
        opt(queue_ms),
        opt(sim_ms),
        rows.map_or("-".to_owned(), |r| r.to_string()),
    ]
}

/// A minimal JSON well-formedness check for exported trace lines — no
/// external parser in the workspace, so validity is established
/// structurally: balanced containers, legal scalars, correct punctuation.
fn assert_valid_json(line: &str) {
    let b = line.as_bytes();
    let mut i = 0usize;
    skip_value(b, &mut i, line);
    skip_ws(b, &mut i);
    assert_eq!(i, b.len(), "trailing garbage after JSON value: {line}");
}

fn skip_ws(b: &[u8], i: &mut usize) {
    while *i < b.len() && matches!(b[*i], b' ' | b'\t' | b'\n' | b'\r') {
        *i += 1;
    }
}

fn skip_value(b: &[u8], i: &mut usize, line: &str) {
    skip_ws(b, i);
    assert!(*i < b.len(), "truncated JSON: {line}");
    match b[*i] {
        b'{' => skip_container(b, i, line, b'}', true),
        b'[' => skip_container(b, i, line, b']', false),
        b'"' => skip_string(b, i, line),
        b't' | b'f' | b'n' => {
            for lit in ["true", "false", "null"] {
                if line[*i..].starts_with(lit) {
                    *i += lit.len();
                    return;
                }
            }
            panic!("bad literal at byte {i}: {line}");
        }
        b'-' | b'0'..=b'9' => {
            let start = *i;
            *i += 1;
            while *i < b.len() && matches!(b[*i], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-') {
                *i += 1;
            }
            assert!(
                line[start..*i].parse::<f64>().is_ok(),
                "bad number {:?}: {line}",
                &line[start..*i]
            );
        }
        c => panic!("unexpected byte {c:?} at {i}: {line}"),
    }
}

fn skip_container(b: &[u8], i: &mut usize, line: &str, close: u8, keyed: bool) {
    *i += 1; // opener
    skip_ws(b, i);
    if *i < b.len() && b[*i] == close {
        *i += 1;
        return;
    }
    loop {
        if keyed {
            skip_ws(b, i);
            assert!(*i < b.len() && b[*i] == b'"', "object key must be a string: {line}");
            skip_string(b, i, line);
            skip_ws(b, i);
            assert!(*i < b.len() && b[*i] == b':', "missing ':' at byte {i}: {line}");
            *i += 1;
        }
        skip_value(b, i, line);
        skip_ws(b, i);
        assert!(*i < b.len(), "unterminated container: {line}");
        match b[*i] {
            b',' => *i += 1,
            c if c == close => {
                *i += 1;
                return;
            }
            c => panic!("expected ',' or container close, got {c:?} at {i}: {line}"),
        }
    }
}

fn skip_string(b: &[u8], i: &mut usize, line: &str) {
    *i += 1; // opening quote
    while *i < b.len() {
        match b[*i] {
            b'"' => {
                *i += 1;
                return;
            }
            b'\\' => *i += 2,
            _ => *i += 1,
        }
    }
    panic!("unterminated string: {line}");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke() {
        run(&RunOpts { scale: Scale::Quick, ..Default::default() });
    }

    #[test]
    fn smoke_pinned_two_clients() {
        run(&RunOpts { scale: Scale::Quick, clients: Some(2), seed: 11, ..Default::default() });
    }

    #[test]
    fn json_checker_accepts_and_rejects() {
        assert_valid_json(r#"{"a":[1,2.5,-3e2],"b":"x\"y","c":null,"d":{"e":true}}"#);
        for bad in [
            "{",
            "[1,",
            "{\"a\"}",
            "{\"a\":}",
            "{a:1}",
            "[1 2]",
            "\"unterminated",
            "{\"a\":1}x",
            "01a",
        ] {
            assert!(
                std::panic::catch_unwind(|| assert_valid_json(bad)).is_err(),
                "accepted invalid JSON: {bad}"
            );
        }
    }
}
