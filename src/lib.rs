#![warn(missing_docs)]

//! # monet-mem — facade crate
//!
//! A from-scratch Rust reproduction of Boncz, Manegold & Kersten,
//! *Database Architecture Optimized for the New Bottleneck: Memory Access*
//! (VLDB 1999). This crate re-exports the workspace members under one roof:
//!
//! * [`memsim`] — memory-hierarchy simulator (the hardware-counter substitute).
//! * [`core`] (`monet_core`) — vertically decomposed storage (BATs) and the
//!   radix-cluster family of join algorithms with all baselines.
//! * [`costmodel`] — the paper's analytical main-memory cost model.
//! * [`workload`] — synthetic data generators from §3.4.1, plus the
//!   Zipf-skewed multi-user query mix.
//! * [`engine`] — query operators (select, aggregate, group, join,
//!   reconstruct) over BATs.
//! * [`service`] — the multi-session query service: admission control and
//!   a cost-model-budgeted scheduler over a global thread budget.
//!
//! See `README.md` for a guided tour and the per-figure reproduction
//! commands, and `bench/README.md` for the wall-clock benchmark.

pub use costmodel;
pub use engine;
pub use memsim;
pub use monet_core as core;
pub use service;
pub use workload;
