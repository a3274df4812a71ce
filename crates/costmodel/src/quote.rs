//! Whole-query cost quotes — composing the per-operator models into one
//! number a *scheduler* can rank queries by.
//!
//! Every other module in this crate prices a single physical decision (a
//! join plan, an access path, a degree of parallelism). A multi-query
//! service needs one more composition level: "what will this whole plan
//! cost, sequentially, and how does that cost shrink with threads?" —
//! because admission order (shortest-expected-cost-first) and per-query
//! thread allocation are both decisions *against the model*, exactly like
//! radix bits.
//!
//! The quote deliberately reuses the calibrated building blocks:
//!
//! * every selection — fresh, over a compressed column, restricted to
//!   survivors, or riding a cooperative pass — is one [`Select`] priced by
//!   the §2 stride formula ([`crate::scan::select_cost`]); gathers are
//!   8-byte stride scans ([`crate::scan::scan_cost`]);
//! * joins are priced by the Figure 12 search ([`crate::plan::best_plan`]),
//!   at the larger operand cardinality (the same convention the executor's
//!   report uses);
//! * grouped aggregation is one streaming pass over the keys plus one per
//!   aggregated column.
//!
//! Estimates, not measurements: cardinalities after a filter are unknown at
//! admission time, so callers feed the shapes with whatever selectivity
//! guess they have. Ranking only needs *relative* accuracy.

use memsim::MachineConfig;

use crate::parallel::{ParPlan, ParallelModel};
use crate::plan::{best_plan, plan_cost};
use crate::scan::{misses_per_iter, scan_cost, select_cost, Select};
use crate::{ModelCost, ModelMachine, ModelParams};

/// The shape of one operator of a logical plan, as much as an admission
/// controller can know before execution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum OpShape {
    /// A scan-select, whatever its flavour: the facts in [`Select`] say
    /// whether it streams a plain or a compressed column, evaluates every
    /// row or only the survivors of earlier leaves, and runs its own pass or
    /// rides someone else's.
    Select(Select),
    /// An equi-join of `outer` against `inner` tuples.
    Join {
        /// Outer (probe-side) cardinality.
        outer: usize,
        /// Inner (build-side) cardinality.
        inner: usize,
    },
    /// A (grouped) aggregation over `rows` tuples reading `columns` value
    /// columns plus the key column.
    Aggregate {
        /// Input tuples.
        rows: usize,
        /// Aggregated value columns.
        columns: usize,
        /// True for grouped accumulation (per-tuple direct-indexed slot
        /// update, priced at the hash-tuple work rate); false for scalar
        /// aggregates (plain scan-iteration work per tuple and column).
        grouped: bool,
    },
    /// A positional gather materializing `rows` tuples from one column.
    Gather {
        /// Tuples fetched.
        rows: usize,
    },
    /// The coordinator-side merge of `rows` shard-partial result tuples
    /// (k-way ordered interleave plus per-group combination): per-tuple
    /// merge work over an 8-byte stream.
    Merge {
        /// Shard-partial tuples merged.
        rows: usize,
    },
}

/// The kind of an [`OpShape`], with the cardinality payload erased — the
/// key a residual monitor aggregates model-vs-actual ratios under (one
/// calibration curve per kind, whatever the row counts).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ShapeKind {
    /// [`OpShape::Select`].
    Select,
    /// [`OpShape::Join`].
    Join,
    /// [`OpShape::Aggregate`].
    Aggregate,
    /// [`OpShape::Gather`].
    Gather,
    /// [`OpShape::Merge`].
    Merge,
}

impl ShapeKind {
    /// Stable lowercase name (used in reports and JSONL).
    pub fn name(self) -> &'static str {
        match self {
            ShapeKind::Select => "select",
            ShapeKind::Join => "join",
            ShapeKind::Aggregate => "aggregate",
            ShapeKind::Gather => "gather",
            ShapeKind::Merge => "merge",
        }
    }
}

impl OpShape {
    /// This shape's [`ShapeKind`].
    pub fn kind(self) -> ShapeKind {
        match self {
            OpShape::Select(_) => ShapeKind::Select,
            OpShape::Join { .. } => ShapeKind::Join,
            OpShape::Aggregate { .. } => ShapeKind::Aggregate,
            OpShape::Gather { .. } => ShapeKind::Gather,
            OpShape::Merge { .. } => ShapeKind::Merge,
        }
    }

    /// The number of uniform work items this operator fans out over.
    fn items(self) -> usize {
        match self {
            OpShape::Select(s) => s.items(),
            OpShape::Join { outer, inner } => outer + inner,
            OpShape::Aggregate { rows, .. } => rows,
            OpShape::Gather { rows } => rows,
            // The ordered interleave is inherently sequential — it exists
            // to reproduce the unsharded accumulation order.
            OpShape::Merge { .. } => 0,
        }
    }
}

/// A whole-query cost quote: the model's sequential time and the work-item
/// count the parallel model divides it over.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QueryQuote {
    /// Predicted sequential execution time in nanoseconds.
    pub seq_ns: f64,
    /// Total uniform work items across operators (drives the per-thread
    /// share in [`ParallelModel`]).
    pub items: usize,
    /// Operators priced into the quote.
    pub ops: usize,
}

impl QueryQuote {
    /// The sequential quote in milliseconds.
    pub fn seq_ms(&self) -> f64 {
        self.seq_ns / 1e6
    }

    /// The model-optimal thread count for this query on `cfg`, considering
    /// at most `max_threads` threads ([`ParallelModel::best_threads`] over
    /// the whole-query quote). Never slower than sequential; a zero-work
    /// quote pins to one thread.
    pub fn best_threads(&self, cfg: &MachineConfig, max_threads: usize) -> ParPlan {
        ParallelModel::for_machine(cfg, max_threads).best_threads(self.seq_ns, self.items.max(1))
    }
}

/// The two calibrated machines a quote prices against: the paper's
/// parameters for scans, the implementation-matched ones for joins.
fn models(cfg: &MachineConfig) -> (ModelMachine, ModelMachine) {
    (ModelMachine::new(cfg), ModelMachine::with_params(cfg, ModelParams::implementation_matched()))
}

/// Price one operator shape sequentially, given prebuilt scan and join
/// models (so a whole plan builds them once).
fn price_op(
    scan_model: &ModelMachine,
    join_model: &ModelMachine,
    cfg: &MachineConfig,
    op: OpShape,
) -> f64 {
    // `n` tuples of `cpu_ns` work in total, read as `streams` sequential
    // 8-byte streams.
    let streamed = |n: f64, streams: f64, cpu_ns: f64| {
        let (l1, l2, tlb) = misses_per_iter(scan_model, 8.0);
        let touches = n * streams;
        ModelCost::assemble(cpu_ns, touches * l1, touches * l2, touches * tlb, &scan_model.lat)
            .total_ns()
    };
    match op {
        OpShape::Select(s) => {
            select_cost(scan_model, Select { rows: s.rows.max(1), ..s }).total_ns()
        }
        OpShape::Join { outer, inner } => {
            // Same convention as the executor: the plan follows the
            // inner (build) side, the price follows the larger operand.
            let (plan, _) = best_plan(join_model, cfg, inner.max(1));
            plan_cost(join_model, &plan, outer.max(inner).max(1) as f64).total_ns()
        }
        OpShape::Aggregate { rows, columns, grouped } => {
            // One single-pass accumulation kernel: the memory side streams
            // the key column (when grouping) plus every aggregated column;
            // the CPU side is what the kernel charges per tuple — one
            // direct-indexed slot update (hash-tuple work) when grouped,
            // one scan iteration per tuple and stream when scalar.
            let n = rows.max(1) as f64;
            let streams = (columns + usize::from(grouped)).max(1) as f64;
            let cpu = if grouped {
                n * scan_model.work.hash_tuple_ns
            } else {
                n * streams * scan_model.work.scan_iter_ns
            };
            streamed(n, streams, cpu)
        }
        OpShape::Gather { rows } => scan_cost(scan_model, rows.max(1), 8).total_ns(),
        OpShape::Merge { rows } => {
            // One 8-byte stream over the shard partials, charged at the
            // calibrated merge-tuple work rate (the same constant the
            // sort-merge model uses for its interleave phase).
            let n = rows.max(1) as f64;
            streamed(n, 1.0, n * scan_model.work.merge_tuple_ns)
        }
    }
}

/// The model's sequential price of each operator shape in nanoseconds —
/// the per-operator residual API: a drift monitor compares these numbers
/// against the simulated counters execution actually charged the operator.
pub fn op_costs_ns(cfg: &MachineConfig, ops: &[OpShape]) -> Vec<f64> {
    let (scan_model, join_model) = models(cfg);
    ops.iter().map(|&op| price_op(&scan_model, &join_model, cfg, op)).collect()
}

/// Price a sequence of operator shapes on machine `cfg` into one
/// [`QueryQuote`]. An empty slice quotes zero cost.
pub fn quote_ops(cfg: &MachineConfig, ops: &[OpShape]) -> QueryQuote {
    let (scan_model, join_model) = models(cfg);
    let mut seq_ns = 0.0;
    let mut items = 0usize;
    for &op in ops {
        seq_ns += price_op(&scan_model, &join_model, cfg, op);
        items += op.items();
    }
    QueryQuote { seq_ns, items, ops: ops.len() }
}

#[cfg(test)]
mod tests {
    use super::*;
    use memsim::profiles;

    #[test]
    fn empty_plan_quotes_zero() {
        let q = quote_ops(&profiles::origin2000(), &[]);
        assert_eq!(q.seq_ns, 0.0);
        assert_eq!(q.ops, 0);
        assert_eq!(q.best_threads(&profiles::origin2000(), 8).threads, 1);
    }

    #[test]
    fn quotes_are_monotone_in_cardinality() {
        let cfg = profiles::origin2000();
        let small = quote_ops(
            &cfg,
            &[
                OpShape::Select(Select::plain(10_000, 4)),
                OpShape::Aggregate { rows: 5_000, columns: 1, grouped: true },
            ],
        );
        let big = quote_ops(
            &cfg,
            &[
                OpShape::Select(Select::plain(1_000_000, 4)),
                OpShape::Aggregate { rows: 500_000, columns: 1, grouped: true },
            ],
        );
        assert!(big.seq_ns > small.seq_ns * 10.0, "{} vs {}", big.seq_ns, small.seq_ns);
        assert_eq!(small.ops, 2);
        assert_eq!(small.items, 15_000);
    }

    #[test]
    fn join_shape_prices_the_larger_operand() {
        let cfg = profiles::origin2000();
        // Asymmetric join: quoting must not collapse to the tiny inner side.
        let a = quote_ops(&cfg, &[OpShape::Join { outer: 1_000_000, inner: 100 }]);
        let b = quote_ops(&cfg, &[OpShape::Join { outer: 100, inner: 100 }]);
        assert!(a.seq_ns > 100.0 * b.seq_ns, "{} vs {}", a.seq_ns, b.seq_ns);
    }

    #[test]
    fn every_select_flavour_quotes_at_most_its_fresh_scan() {
        let cfg = profiles::origin2000();
        let rows = 1_000_000;
        let plain = Select::plain(rows, 4);
        let quote = |s: Select| quote_ops(&cfg, &[OpShape::Select(s)]);
        let fresh = quote(plain);
        assert_eq!(fresh.items, rows);
        // Riding a pass: marginal CPU at pass start, plus the wrap's memory
        // for a late attach — and the covering pass owns the divisible work.
        let covered = quote(Select { covered: Some(0), ..plain });
        let late = quote(Select { covered: Some(rows / 2), ..plain });
        assert!(covered.seq_ns < late.seq_ns && late.seq_ns < fresh.seq_ns);
        assert_eq!((covered.items, late.items), (0, 0));
        // A compressed column: cheaper stream, still a divisible full pass.
        let packed = quote(Select::packed(rows, 3.0));
        assert!(packed.seq_ns < fresh.seq_ns, "{} !< {}", packed.seq_ns, fresh.seq_ns);
        assert_eq!(packed.items, rows);
        // Restricted to survivors: far below the full pass, and sequential.
        let cand = quote(Select { cands: Some(rows / 1000), ..plain });
        assert!(cand.seq_ns * 10.0 < fresh.seq_ns, "{} !<< {}", cand.seq_ns, fresh.seq_ns);
        let cand_packed = quote(Select { cands: Some(rows / 1000), ..Select::packed(rows, 8.0) });
        assert!(cand_packed.seq_ns * 5.0 < quote(Select::packed(rows, 8.0)).seq_ns);
        assert_eq!((cand.items, cand_packed.items), (0, 0));
    }

    #[test]
    fn per_op_prices_sum_to_the_quote_and_kinds_are_stable() {
        let cfg = profiles::origin2000();
        let ops = [
            OpShape::Select(Select::plain(100_000, 4)),
            OpShape::Join { outer: 50_000, inner: 1_000 },
            OpShape::Gather { rows: 25_000 },
            OpShape::Aggregate { rows: 25_000, columns: 2, grouped: true },
            OpShape::Select(Select { covered: Some(0), ..Select::packed(10_000, 3.0) }),
            OpShape::Merge { rows: 64 },
        ];
        let q = quote_ops(&cfg, &ops);
        let summed: f64 = op_costs_ns(&cfg, &ops).iter().sum();
        assert!((q.seq_ns - summed).abs() < 1e-6, "{} vs {summed}", q.seq_ns);
        let kinds: Vec<&str> = ops.iter().map(|o| o.kind().name()).collect();
        assert_eq!(kinds, ["select", "join", "gather", "aggregate", "select", "merge"]);
    }

    #[test]
    fn big_queries_earn_more_threads_than_tiny_ones() {
        let cfg = profiles::origin2000();
        let tiny = quote_ops(&cfg, &[OpShape::Select(Select::plain(100, 4))]);
        let huge = quote_ops(&cfg, &[OpShape::Select(Select::plain(16_000_000, 4))]);
        assert_eq!(tiny.best_threads(&cfg, 8).threads, 1, "fork overhead dominates 100 rows");
        let plan = huge.best_threads(&cfg, 8);
        assert!(plan.threads > 1, "16M-row scan should fan out, got {plan:?}");
        assert!(plan.par_ns <= plan.seq_ns);
    }
}
