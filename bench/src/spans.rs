//! Spans recorded by the harness around every call into a layer.
//!
//! Spans live in memory and are written out once, when the traced run ends.
//! They are recorded from this package only — spans inside the program are
//! a later change — so a span's children are the direct calls the harness
//! re-issues for it (see `trace::Replay`), linked by `parent`, not
//! necessarily nested in time.

use std::io::Write;
use std::time::Instant;

/// One timed call into a layer.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Index of this span in the recorder.
    pub id: u32,
    /// The operation this span belongs to; spans of one op share it
    /// (0 = set-up, ops count from 1).
    pub op_id: u32,
    /// `layer.name`.
    pub name: &'static str,
    /// Start, ns since the recorder's epoch.
    pub start_ns: u64,
    /// End, ns since the recorder's epoch.
    pub end_ns: u64,
    /// The span that caused this one.
    pub parent: Option<u32>,
}

impl Span {
    /// Duration in ns.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// In-memory span log.
pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Recorder {
    pub fn new() -> Self {
        Self { epoch: Instant::now(), spans: Vec::new() }
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Record an interval measured elsewhere.
    pub fn push(
        &mut self,
        op_id: u32,
        name: &'static str,
        parent: Option<u32>,
        start: Instant,
        end: Instant,
    ) -> u32 {
        let id = self.spans.len() as u32;
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.spans.push(Span { id, op_id, name, start_ns, end_ns, parent });
        id
    }

    /// Time `f` as a leaf span.
    pub fn time<T>(
        &mut self,
        op_id: u32,
        name: &'static str,
        parent: Option<u32>,
        f: impl FnOnce() -> T,
    ) -> T {
        let start = Instant::now();
        let out = f();
        self.push(op_id, name, parent, start, Instant::now());
        out
    }

    /// Open a span that other spans will nest under; close it with
    /// [`Self::close`].
    pub fn open(&mut self, op_id: u32, name: &'static str, parent: Option<u32>) -> u32 {
        let now = Instant::now();
        self.push(op_id, name, parent, now, now)
    }

    pub fn close(&mut self, id: u32) {
        self.spans[id as usize].end_ns = self.ns(Instant::now());
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total duration of every span called `name`, in ms.
    pub fn total_ms(&self, name: &str) -> f64 {
        self.spans.iter().filter(|s| s.name == name).map(|s| s.dur_ns() as f64).sum::<f64>() / 1e6
    }

    /// Number of spans called `name`.
    pub fn count(&self, name: &str) -> usize {
        self.spans.iter().filter(|s| s.name == name).count()
    }

    /// Total self time of every span called `name`, in ms.
    pub fn self_ms(&self, name: &str) -> f64 {
        let selfs = self_ns(&self.spans);
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| selfs[s.id as usize] as f64)
            .sum::<f64>()
            / 1e6
    }

    /// One JSON object per span, one per line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            writeln!(
                w,
                "{{\"id\":{},\"op_id\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{}}}",
                s.id, s.op_id, s.name, s.start_ns, s.end_ns, parent
            )?;
        }
        w.flush()
    }
}

/// Self time per span (indexed by span id): its duration minus the
/// durations of the spans it caused. Signed, because a re-issued child call
/// can run slower than it did inside its parent.
pub fn self_ns(spans: &[Span]) -> Vec<i64> {
    let mut out: Vec<i64> = spans.iter().map(|s| s.dur_ns() as i64).collect();
    for s in spans {
        if let Some(p) = s.parent {
            out[p as usize] -= s.dur_ns() as i64;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, name: &'static str, start_ns: u64, end_ns: u64, parent: Option<u32>) -> Span {
        Span { id, op_id: 1, name, start_ns, end_ns, parent }
    }

    #[test]
    fn self_time_is_duration_minus_children_on_hand_built_spans() {
        let spans = vec![
            span(0, "bench.op", 0, 1_000, None),
            span(1, "engine.exec", 100, 700, Some(0)),
            // Re-issued kernels run after their parent ended; the parent
            // link, not the interval, attributes them.
            span(2, "core.scan", 1_200, 1_500, Some(1)),
            span(3, "core.cand_scan", 1_500, 1_600, Some(1)),
            span(4, "costmodel.quote", 700, 750, Some(0)),
        ];
        assert_eq!(self_ns(&spans), vec![1_000 - 600 - 50, 600 - 300 - 100, 300, 100, 50]);
        // A child slower than its parent leaves a negative remainder
        // rather than being clamped away.
        let slow =
            vec![span(0, "engine.exec", 0, 100, None), span(1, "core.scan", 200, 350, Some(0))];
        assert_eq!(self_ns(&slow), vec![-50, 150]);
    }

    #[test]
    fn recorder_totals_and_nesting() {
        let mut rec = Recorder::new();
        let root = rec.open(1, "bench.op", None);
        let v = rec.time(1, "engine.plan", Some(root), || 41 + 1);
        rec.close(root);
        assert_eq!(v, 42);
        assert_eq!(rec.count("engine.plan"), 1);
        let (op, plan) = (&rec.spans()[0], &rec.spans()[1]);
        assert_eq!((plan.parent, plan.op_id), (Some(root), 1));
        assert!(op.start_ns <= plan.start_ns && plan.end_ns <= op.end_ns);
        assert!(
            (rec.self_ms("bench.op") - (rec.total_ms("bench.op") - rec.total_ms("engine.plan")))
                .abs()
                < 1e-9
        );
    }
}
