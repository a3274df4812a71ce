#![warn(missing_docs)]

//! # costmodel — the paper's analytical main-memory cost model (§3.4)
//!
//! Boncz, Manegold & Kersten's methodological contribution (over \[LN96\],
//! \[WK90\]) is to model query cost not with per-procedure "magical" factors
//! but by *mimicking the memory access pattern of the algorithm* and counting
//! cache-miss events and CPU cycles:
//!
//! ```text
//! T = T_cpu + M_L1·l_L2 + M_L2·l_Mem + M_TLB·l_TLB
//! ```
//!
//! This crate implements those models:
//!
//! * [`scan`]   — the §2 stride-scan model `T(s)` behind Figure 3, and the
//!   one [`scan::Select`] shape every scan-select in the repository is
//!   priced as — fresh, compressed, candidate-restricted, or riding a
//!   cooperative pass that already streams the column;
//! * [`cluster`] — `T_c(P, B, C)` for the multi-pass radix-cluster (Fig. 9);
//! * [`rjoin`]  — `T_r(B, C)` for the radix-join phase (Fig. 10);
//! * [`phash`]  — `T_h(B, C)` for the partitioned hash-join phase (Fig. 11);
//! * [`plan`]   — combined cluster+join costs, the §3.4.4 strategy
//!   diagonals, and exhaustive `(algorithm, B, P)` optimization (the "best"
//!   line of Figure 12);
//! * [`parallel`] — the multi-core extension: a fork-overhead-aware speedup
//!   model that picks per-operator thread counts, and
//!   [`parallel::plan_join_parallel`], the `(JoinPlan, threads)` planner
//!   entry point the executor uses;
//! * [`access`] — the §3.2 selection access paths priced against each
//!   other: scan-select vs. CsBTree eq/range vs. hash probe vs. T-tree
//!   probe, so index use becomes a per-predicate cost-model decision;
//! * [`quote`] — whole-query quotes composing the per-operator models, the
//!   currency of the multi-query scheduler (admission order and per-query
//!   thread budgets in `crates/service`).
//!
//! The inequality directions in the published formulas are garbled by PDF
//! extraction; the reconstruction used here (documented per function) makes
//! every miss model continuous at its boundary and
//! monotone, and is validated against the trace-driven simulator by the
//! `repro -- validate` harness.
//!
//! Everything is pure `f64` math over a [`ModelMachine`] — no simulation, no
//! data. Costs come back as [`ModelCost`] so CPU and stall components stay
//! inspectable, exactly like the paper's stacked figures.

pub mod access;
pub mod cluster;
pub mod machine;
pub mod parallel;
pub mod phash;
pub mod plan;
pub mod quote;
pub mod rjoin;
pub mod scan;

pub use access::{AccessPath, IndexShape, SelectQuery};
pub use machine::{ModelCost, ModelMachine, ModelParams};
pub use parallel::{ParPlan, ParallelModel};
pub use quote::{quote_ops, OpShape, QueryQuote};
