//! Query lifecycle traces: logically-timestamped event lists, the legal
//! lifecycle DFA, per-session ring buffers, and JSONL export.
//!
//! Every submitted query gets a [`QueryTrace`]: an ordered list of
//! [`TraceEvent`]s stamped from one global logical clock (an atomic
//! counter — no wall time, so the *sequence* is deterministic for a given
//! schedule). Events accumulate in a stack-local [`TraceBuilder`] owned by
//! the query's thread — recording an event is a `Vec::push` plus one
//! relaxed-ish atomic increment, no lock — and the completed trace is
//! pushed into the session's bounded [`TraceRing`] (one mutex per session,
//! uncontended in the one-thread-per-session model) and optionally
//! exported as one JSON line.
//!
//! The legal lifecycle is a DFA ([`validate_lifecycle`]):
//!
//! ```text
//! Start ──CacheHit──────────────────────────────▶ done
//! Start ──Collapsed─────────────────────────────▶ done
//! Start ──Admitted──┬─Shed──────────────────────▶ done
//!                   ├─Queued─▶ LeaseGranted ─┐
//!                   └─LeaseGranted ──────────┴▶ Running
//! Running ──ElevatorAttached|ChunkDone──────────▶ Running
//! Running ──Preempted─▶ LeaseGranted────────────▶ Running
//! Running ──Failed──────────────────────────────▶ done
//! Running ──OpDone*─▶ Delivered─────────────────▶ done
//! Running ──Delivered───────────────────────────▶ done
//! ```
//!
//! `repro trace` and the `trace_props` property suite assert that 100% of
//! traces, under every terminal state the concurrent service can produce,
//! validate against this DFA.

use std::collections::VecDeque;
use std::fmt;
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use memsim::EventCounters;

/// Where completed traces go (`MONET_TRACE` / `ServiceConfig.trace`).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum TraceMode {
    /// Tracing disabled: no clock, no rings, no per-query overhead.
    #[default]
    Off,
    /// Record into per-session rings only (inspect via the service API).
    Ring,
    /// Rings plus one JSON line per completed trace on stderr.
    Stderr,
    /// Rings plus JSONL appended to the given file path.
    File(String),
}

impl TraceMode {
    /// Parse a `MONET_TRACE` value: `0`/`off`/empty → `Off`, `1`/`on`/
    /// `ring` → `Ring`, `stderr` → `Stderr`, anything else is a file path.
    pub fn parse(v: &str) -> Self {
        match v.trim() {
            "" | "0" | "off" | "false" => TraceMode::Off,
            "1" | "on" | "true" | "ring" => TraceMode::Ring,
            "stderr" => TraceMode::Stderr,
            path => TraceMode::File(path.to_owned()),
        }
    }

    /// Whether tracing is on at all.
    pub fn enabled(&self) -> bool {
        *self != TraceMode::Off
    }
}

/// One lifecycle event. Timestamps live in [`TraceEntry`]; the payloads
/// here are what each stage knew at the moment it happened.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceEvent {
    /// The query entered admission with this cost quote.
    Admitted {
        /// The whole-query model quote in milliseconds (coverage-discounted).
        quote_ms: f64,
        /// Operators priced into the quote.
        ops: usize,
        /// Predicate leaves a shared pass already covered at quote time.
        covered: usize,
    },
    /// Admission had no thread to lease; the query joined the queue.
    Queued {
        /// Queue depth at enqueue time (including this query).
        depth: usize,
    },
    /// The scheduler leased `threads` worker threads.
    LeaseGranted {
        /// Threads leased.
        threads: usize,
    },
    /// Another query's predicate attached to this query's elevator pass at
    /// a chunk boundary.
    ElevatorAttached {
        /// The streamed column, as `table.column`.
        col: String,
        /// First row of the next chunk — where the rider boards.
        chunk: usize,
        /// Predicate leaves that attached at this boundary.
        riders: usize,
    },
    /// One cooperative-scan chunk finished streaming.
    ChunkDone {
        /// The streamed column, as `table.column`.
        col: String,
        /// First row of the chunk.
        lo: usize,
        /// One past the last row of the chunk.
        hi: usize,
        /// Predicates evaluated while streaming.
        preds: usize,
        /// Simulated memory counters for the chunk (tracing runs the
        /// kernel under the simulator; `None` only if simulation was
        /// skipped).
        sim: Option<EventCounters>,
    },
    /// The pass yielded its lease between chunks to a cheaper waiter.
    Preempted {
        /// Model milliseconds of streaming still owed when it yielded.
        remaining_ms: f64,
    },
    /// The query collapsed onto a concurrent identical execution.
    Collapsed {
        /// The leader's flight id.
        leader: u64,
    },
    /// The result came straight from the result cache.
    CacheHit,
    /// The admission queue was full; the query was shed without running.
    Shed,
    /// One operator of the final execution finished (`engine`'s
    /// per-operator `ExecReport` folded into the trace).
    OpDone {
        /// Operator name, e.g. `select(Item)`.
        op: String,
        /// Rows entering the operator.
        rows_in: usize,
        /// Rows leaving the operator.
        rows_out: usize,
        /// Simulated counters attributed to the operator.
        sim: Option<EventCounters>,
    },
    /// Execution failed; the error is delivered to the submitter.
    Failed {
        /// The engine error, rendered.
        error: String,
    },
    /// The result reached the submitter.
    Delivered {
        /// End-to-end wall milliseconds (submission to result).
        total_ms: f64,
        /// Wall milliseconds spent before execution began.
        queue_ms: f64,
        /// Total simulated nanoseconds across operators.
        actual_ns: f64,
        /// Result rows delivered.
        rows: usize,
    },
}

impl TraceEvent {
    /// The event's name as exported to JSONL.
    pub fn name(&self) -> &'static str {
        match self {
            TraceEvent::Admitted { .. } => "Admitted",
            TraceEvent::Queued { .. } => "Queued",
            TraceEvent::LeaseGranted { .. } => "LeaseGranted",
            TraceEvent::ElevatorAttached { .. } => "ElevatorAttached",
            TraceEvent::ChunkDone { .. } => "ChunkDone",
            TraceEvent::Preempted { .. } => "Preempted",
            TraceEvent::Collapsed { .. } => "Collapsed",
            TraceEvent::CacheHit => "CacheHit",
            TraceEvent::Shed => "Shed",
            TraceEvent::OpDone { .. } => "OpDone",
            TraceEvent::Failed { .. } => "Failed",
            TraceEvent::Delivered { .. } => "Delivered",
        }
    }
}

/// One event with its logical timestamp.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEntry {
    /// Logical time: a global monotone counter shared by every query, so
    /// timestamps order events *across* traces too.
    pub t: u64,
    /// The event.
    pub event: TraceEvent,
}

/// The full lifecycle of one submitted query.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryTrace {
    /// Service-wide query id, in submission order.
    pub query: u64,
    /// The submitting session.
    pub session: usize,
    /// Events in the order they happened.
    pub events: Vec<TraceEntry>,
}

impl QueryTrace {
    /// The trace as one JSON line (no trailing newline).
    pub fn to_jsonl(&self) -> String {
        let mut s = String::with_capacity(128 + 96 * self.events.len());
        s.push_str(&format!(
            "{{\"query\":{},\"session\":{},\"events\":[",
            self.query, self.session
        ));
        for (i, e) in self.events.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            entry_json(e, &mut s);
        }
        s.push_str("]}");
        s
    }
}

fn json_escape(v: &str, out: &mut String) {
    for c in v.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
}

fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_owned()
    }
}

fn counters_json(c: &Option<EventCounters>, out: &mut String) {
    match c {
        None => out.push_str("null"),
        Some(c) => out.push_str(&format!(
            "{{\"reads\":{},\"writes\":{},\"l1_misses\":{},\"l2_misses\":{},\"tlb_misses\":{},\
             \"cpu_ns\":{},\"elapsed_ns\":{}}}",
            c.reads,
            c.writes,
            c.l1_misses,
            c.l2_misses,
            c.tlb_misses,
            json_f64(c.cpu_ns),
            json_f64(c.elapsed_ns()),
        )),
    }
}

fn entry_json(e: &TraceEntry, out: &mut String) {
    out.push_str(&format!("{{\"t\":{},\"ev\":\"{}\"", e.t, e.event.name()));
    match &e.event {
        TraceEvent::Admitted { quote_ms, ops, covered } => {
            out.push_str(&format!(
                ",\"quote_ms\":{},\"ops\":{ops},\"covered\":{covered}",
                json_f64(*quote_ms)
            ));
        }
        TraceEvent::Queued { depth } => out.push_str(&format!(",\"depth\":{depth}")),
        TraceEvent::LeaseGranted { threads } => out.push_str(&format!(",\"threads\":{threads}")),
        TraceEvent::ElevatorAttached { col, chunk, riders } => {
            out.push_str(",\"col\":\"");
            json_escape(col, out);
            out.push_str(&format!("\",\"chunk\":{chunk},\"riders\":{riders}"));
        }
        TraceEvent::ChunkDone { col, lo, hi, preds, sim } => {
            out.push_str(",\"col\":\"");
            json_escape(col, out);
            out.push_str(&format!("\",\"lo\":{lo},\"hi\":{hi},\"preds\":{preds},\"sim\":"));
            counters_json(sim, out);
        }
        TraceEvent::Preempted { remaining_ms } => {
            out.push_str(&format!(",\"remaining_ms\":{}", json_f64(*remaining_ms)));
        }
        TraceEvent::Collapsed { leader } => out.push_str(&format!(",\"leader\":{leader}")),
        TraceEvent::CacheHit | TraceEvent::Shed => {}
        TraceEvent::OpDone { op, rows_in, rows_out, sim } => {
            out.push_str(",\"op\":\"");
            json_escape(op, out);
            out.push_str(&format!("\",\"rows_in\":{rows_in},\"rows_out\":{rows_out},\"sim\":"));
            counters_json(sim, out);
        }
        TraceEvent::Failed { error } => {
            out.push_str(",\"error\":\"");
            json_escape(error, out);
            out.push('"');
        }
        TraceEvent::Delivered { total_ms, queue_ms, actual_ns, rows } => {
            out.push_str(&format!(
                ",\"total_ms\":{},\"queue_ms\":{},\"actual_ns\":{},\"rows\":{rows}",
                json_f64(*total_ms),
                json_f64(*queue_ms),
                json_f64(*actual_ns)
            ));
        }
    }
    out.push('}');
}

/// A query's terminal state, as decided by [`validate_lifecycle`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Terminal {
    /// Executed and delivered.
    Delivered,
    /// Answered from the result cache.
    CacheHit,
    /// Collapsed onto a concurrent identical execution.
    Collapsed,
    /// Shed at admission (queue full).
    Shed,
    /// Execution failed.
    Failed,
}

/// A lifecycle violation: where in the trace, and what rule broke.
#[derive(Debug, Clone, PartialEq)]
pub struct LifecycleError {
    /// The offending query id.
    pub query: u64,
    /// Index into `events` (== `events.len()` for a missing terminal).
    pub at: usize,
    /// Human-readable rule.
    pub message: String,
}

impl fmt::Display for LifecycleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "query {} event {}: {}", self.query, self.at, self.message)
    }
}

impl std::error::Error for LifecycleError {}

/// Check a trace against the legal lifecycle DFA (module docs) and return
/// its terminal state. Also enforces strictly increasing logical
/// timestamps.
pub fn validate_lifecycle(trace: &QueryTrace) -> Result<Terminal, LifecycleError> {
    #[derive(Debug, Clone, Copy, PartialEq)]
    enum S {
        Start,
        Admitted,
        Queued,
        Running,
        Yielded,
        Reporting,
        Done(Terminal),
    }
    let err = |at: usize, message: String| LifecycleError { query: trace.query, at, message };
    let mut state = S::Start;
    let mut last_t: Option<u64> = None;
    for (i, entry) in trace.events.iter().enumerate() {
        if let Some(prev) = last_t {
            if entry.t <= prev {
                return Err(err(i, format!("timestamp {} not after {}", entry.t, prev)));
            }
        }
        last_t = Some(entry.t);
        let ev = &entry.event;
        state = match (state, ev) {
            (S::Start, TraceEvent::CacheHit) => S::Done(Terminal::CacheHit),
            (S::Start, TraceEvent::Collapsed { .. }) => S::Done(Terminal::Collapsed),
            (S::Start, TraceEvent::Admitted { .. }) => S::Admitted,
            (S::Admitted, TraceEvent::Shed) => S::Done(Terminal::Shed),
            (S::Admitted, TraceEvent::Queued { .. }) => S::Queued,
            (S::Admitted | S::Queued | S::Yielded, TraceEvent::LeaseGranted { .. }) => S::Running,
            (S::Running, TraceEvent::ElevatorAttached { .. } | TraceEvent::ChunkDone { .. }) => {
                S::Running
            }
            (S::Running, TraceEvent::Preempted { .. }) => S::Yielded,
            (S::Running | S::Reporting, TraceEvent::OpDone { .. }) => S::Reporting,
            (S::Running, TraceEvent::Failed { .. }) => S::Done(Terminal::Failed),
            (S::Running | S::Reporting, TraceEvent::Delivered { .. }) => {
                S::Done(Terminal::Delivered)
            }
            (s, ev) => {
                return Err(err(i, format!("illegal event {} in state {s:?}", ev.name())));
            }
        };
    }
    match state {
        S::Done(t) => Ok(t),
        s => Err(err(trace.events.len(), format!("trace ends mid-lifecycle in state {s:?}"))),
    }
}

/// A bounded ring of completed traces (one per session).
#[derive(Debug, Default)]
pub struct TraceRing {
    buf: VecDeque<QueryTrace>,
    cap: usize,
    /// Traces evicted because the ring was full.
    pub dropped: u64,
}

impl TraceRing {
    /// A ring retaining the most recent `cap` traces (`cap >= 1`).
    pub fn new(cap: usize) -> Self {
        Self { buf: VecDeque::new(), cap: cap.max(1), dropped: 0 }
    }

    /// Push a completed trace, evicting the oldest when full.
    pub fn push(&mut self, trace: QueryTrace) {
        if self.buf.len() == self.cap {
            self.buf.pop_front();
            self.dropped += 1;
        }
        self.buf.push_back(trace);
    }

    /// Snapshot the retained traces, oldest first.
    pub fn snapshot(&self) -> Vec<QueryTrace> {
        self.buf.iter().cloned().collect()
    }
}

/// Accumulates one query's events on its own thread — plain pushes, no
/// lock; timestamps come from the sink's shared atomic clock.
#[derive(Debug)]
pub struct TraceBuilder {
    /// The query id this trace belongs to.
    pub query: u64,
    session: usize,
    events: Vec<TraceEntry>,
}

impl TraceBuilder {
    /// Record one event, stamping it from `sink`'s logical clock.
    pub fn push(&mut self, sink: &TraceSink, event: TraceEvent) {
        self.events.push(TraceEntry { t: sink.tick(), event });
    }
}

enum SinkOut {
    Stderr,
    File(std::fs::File),
}

/// The service-wide trace collector: the logical clock, per-session rings,
/// and the optional JSONL export stream.
pub struct TraceSink {
    clock: AtomicU64,
    next_query: AtomicU64,
    rings: Mutex<Vec<Arc<Mutex<TraceRing>>>>,
    ring_cap: usize,
    out: Option<Mutex<SinkOut>>,
}

impl TraceSink {
    /// Build a sink for `mode`; `None` when tracing is off. An unopenable
    /// file path degrades to ring-only recording (with a note on stderr)
    /// rather than failing service construction.
    pub fn new(mode: &TraceMode, ring_cap: usize) -> Option<Self> {
        let out = match mode {
            TraceMode::Off => return None,
            TraceMode::Ring => None,
            TraceMode::Stderr => Some(SinkOut::Stderr),
            TraceMode::File(path) => match std::fs::File::create(path) {
                Ok(f) => Some(SinkOut::File(f)),
                Err(e) => {
                    eprintln!("obs: cannot open trace file {path}: {e}; recording to rings only");
                    None
                }
            },
        };
        Some(Self {
            clock: AtomicU64::new(0),
            next_query: AtomicU64::new(0),
            rings: Mutex::new(Vec::new()),
            ring_cap,
            out: out.map(Mutex::new),
        })
    }

    /// Advance the logical clock and return the new timestamp (starting
    /// at 1, so 0 never appears and "strictly increasing" has headroom).
    fn tick(&self) -> u64 {
        self.clock.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Register one session's ring; call once per session, in session-id
    /// order.
    pub fn register_session(&self) {
        let mut rings = self.rings.lock().expect("trace rings lock");
        rings.push(Arc::new(Mutex::new(TraceRing::new(self.ring_cap))));
    }

    /// Start a trace for a fresh query id in `session`.
    pub fn begin(&self, session: usize) -> TraceBuilder {
        TraceBuilder {
            query: self.next_query.fetch_add(1, Ordering::Relaxed),
            session,
            events: Vec::with_capacity(8),
        }
    }

    /// Complete a trace: push it into its session's ring and export one
    /// JSON line when an output stream is configured.
    pub fn finish(&self, builder: TraceBuilder) {
        let trace =
            QueryTrace { query: builder.query, session: builder.session, events: builder.events };
        if let Some(out) = &self.out {
            let line = trace.to_jsonl();
            let mut out = out.lock().expect("trace out lock");
            let res = match &mut *out {
                SinkOut::Stderr => writeln!(std::io::stderr().lock(), "{line}"),
                SinkOut::File(f) => writeln!(f, "{line}"),
            };
            drop(res); // diagnostics must never fail a query
        }
        let ring = {
            let rings = self.rings.lock().expect("trace rings lock");
            rings.get(trace.session).cloned()
        };
        if let Some(ring) = ring {
            ring.lock().expect("trace ring lock").push(trace);
        }
    }

    /// Snapshot every session's retained traces, ordered by query id.
    pub fn traces(&self) -> Vec<QueryTrace> {
        let rings: Vec<_> = self.rings.lock().expect("trace rings lock").clone();
        let mut all: Vec<QueryTrace> =
            rings.iter().flat_map(|r| r.lock().expect("trace ring lock").snapshot()).collect();
        all.sort_by_key(|t| t.query);
        all
    }

    /// Total traces evicted from full rings.
    pub fn dropped(&self) -> u64 {
        let rings: Vec<_> = self.rings.lock().expect("trace rings lock").clone();
        rings.iter().map(|r| r.lock().expect("trace ring lock").dropped).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(t: u64, event: TraceEvent) -> TraceEntry {
        TraceEntry { t, event }
    }

    fn trace(events: Vec<TraceEntry>) -> QueryTrace {
        QueryTrace { query: 9, session: 0, events }
    }

    #[test]
    fn full_delivered_lifecycle_validates() {
        let t = trace(vec![
            entry(1, TraceEvent::Admitted { quote_ms: 1.5, ops: 2, covered: 0 }),
            entry(2, TraceEvent::Queued { depth: 1 }),
            entry(5, TraceEvent::LeaseGranted { threads: 2 }),
            entry(
                6,
                TraceEvent::ChunkDone {
                    col: "Item.qty".into(),
                    lo: 0,
                    hi: 100,
                    preds: 2,
                    sim: None,
                },
            ),
            entry(
                7,
                TraceEvent::ElevatorAttached { col: "Item.qty".into(), chunk: 100, riders: 1 },
            ),
            entry(8, TraceEvent::Preempted { remaining_ms: 0.3 }),
            entry(9, TraceEvent::LeaseGranted { threads: 1 }),
            entry(
                10,
                TraceEvent::ChunkDone {
                    col: "Item.qty".into(),
                    lo: 100,
                    hi: 200,
                    preds: 3,
                    sim: None,
                },
            ),
            entry(
                11,
                TraceEvent::OpDone {
                    op: "select(Item)".into(),
                    rows_in: 200,
                    rows_out: 10,
                    sim: None,
                },
            ),
            entry(
                12,
                TraceEvent::Delivered { total_ms: 2.0, queue_ms: 0.5, actual_ns: 1e4, rows: 10 },
            ),
        ]);
        assert_eq!(validate_lifecycle(&t), Ok(Terminal::Delivered));
    }

    #[test]
    fn short_terminals_validate() {
        for (ev, term) in [
            (TraceEvent::CacheHit, Terminal::CacheHit),
            (TraceEvent::Collapsed { leader: 3 }, Terminal::Collapsed),
        ] {
            assert_eq!(validate_lifecycle(&trace(vec![entry(4, ev)])), Ok(term));
        }
        let shed = trace(vec![
            entry(1, TraceEvent::Admitted { quote_ms: 0.1, ops: 1, covered: 0 }),
            entry(2, TraceEvent::Shed),
        ]);
        assert_eq!(validate_lifecycle(&shed), Ok(Terminal::Shed));
        let failed = trace(vec![
            entry(1, TraceEvent::Admitted { quote_ms: 0.1, ops: 1, covered: 0 }),
            entry(2, TraceEvent::LeaseGranted { threads: 1 }),
            entry(3, TraceEvent::Failed { error: "boom".into() }),
        ]);
        assert_eq!(validate_lifecycle(&failed), Ok(Terminal::Failed));
    }

    #[test]
    fn illegal_sequences_are_rejected() {
        // Delivered without ever being admitted.
        let t = trace(vec![entry(
            1,
            TraceEvent::Delivered { total_ms: 1.0, queue_ms: 0.0, actual_ns: 0.0, rows: 0 },
        )]);
        assert!(validate_lifecycle(&t).is_err());
        // Chunk work after delivery.
        let t = trace(vec![
            entry(1, TraceEvent::Admitted { quote_ms: 0.1, ops: 1, covered: 0 }),
            entry(2, TraceEvent::LeaseGranted { threads: 1 }),
            entry(
                3,
                TraceEvent::Delivered { total_ms: 1.0, queue_ms: 0.0, actual_ns: 0.0, rows: 1 },
            ),
            entry(4, TraceEvent::ChunkDone { col: "x".into(), lo: 0, hi: 1, preds: 1, sim: None }),
        ]);
        assert!(validate_lifecycle(&t).is_err());
        // Missing terminal.
        let t = trace(vec![
            entry(1, TraceEvent::Admitted { quote_ms: 0.1, ops: 1, covered: 0 }),
            entry(2, TraceEvent::LeaseGranted { threads: 1 }),
        ]);
        let e = validate_lifecycle(&t).unwrap_err();
        assert!(e.message.contains("mid-lifecycle"), "{e}");
        // Non-increasing timestamps.
        let t = trace(vec![
            entry(5, TraceEvent::Admitted { quote_ms: 0.1, ops: 1, covered: 0 }),
            entry(5, TraceEvent::LeaseGranted { threads: 1 }),
        ]);
        assert!(validate_lifecycle(&t).unwrap_err().message.contains("timestamp"));
        // A cache hit cannot follow admission.
        let t = trace(vec![
            entry(1, TraceEvent::Admitted { quote_ms: 0.1, ops: 1, covered: 0 }),
            entry(2, TraceEvent::CacheHit),
        ]);
        assert!(validate_lifecycle(&t).is_err());
    }

    #[test]
    fn jsonl_escapes_and_shapes_lines() {
        let t = trace(vec![
            entry(1, TraceEvent::Admitted { quote_ms: 0.25, ops: 1, covered: 0 }),
            entry(2, TraceEvent::LeaseGranted { threads: 1 }),
            entry(3, TraceEvent::Failed { error: "bad \"col\"\nname\t\\".into() }),
        ]);
        let line = t.to_jsonl();
        assert!(!line.contains('\n'), "one line: {line}");
        assert!(line.starts_with("{\"query\":9,\"session\":0,\"events\":["));
        assert!(line.contains("\"ev\":\"Admitted\",\"quote_ms\":0.25,\"ops\":1,\"covered\":0"));
        assert!(line.contains("bad \\\"col\\\"\\nname\\t\\\\"), "{line}");
        let sim = Some(EventCounters { reads: 3, cpu_ns: 1.5, ..EventCounters::default() });
        let t = trace(vec![entry(
            1,
            TraceEvent::ChunkDone { col: "Item.qty".into(), lo: 0, hi: 8, preds: 2, sim },
        )]);
        assert!(t.to_jsonl().contains("\"sim\":{\"reads\":3,"), "{}", t.to_jsonl());
    }

    #[test]
    fn sink_rings_collect_per_session_and_bound_memory() {
        let sink = TraceSink::new(&TraceMode::Ring, 2).expect("ring mode is on");
        assert!(TraceSink::new(&TraceMode::Off, 2).is_none());
        sink.register_session();
        sink.register_session();
        for i in 0..5 {
            let mut tb = sink.begin(i % 2);
            tb.push(&sink, TraceEvent::CacheHit);
            sink.finish(tb);
        }
        let all = sink.traces();
        assert_eq!(all.len(), 4, "session 0's ring (cap 2) evicted one of its three");
        assert_eq!(sink.dropped(), 1);
        let ids: Vec<u64> = all.iter().map(|t| t.query).collect();
        assert!(ids.windows(2).all(|w| w[0] < w[1]), "sorted by query id: {ids:?}");
        // Timestamps are globally strictly increasing.
        let ts: Vec<u64> = all.iter().flat_map(|t| &t.events).map(|e| e.t).collect();
        assert!(ts.windows(2).all(|w| w[0] < w[1]), "{ts:?}");
        for t in &all {
            validate_lifecycle(t).expect("cache-hit traces validate");
        }
    }
}
