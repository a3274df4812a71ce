#![warn(missing_docs)]

//! # workload — synthetic data generators for the reproduction
//!
//! §3.4.1 fixes the experimental workload precisely: "binary relations
//! (BATs) of 8 bytes wide tuples and varying cardinalities, consisting of
//! uniformly distributed unique random numbers. In the join-experiments, the
//! join hit-rate is one, and the result of a join is a BAT that contains the
//! \[OID,OID\] combinations of matching tuples (i.e., a join-index)."
//!
//! * [`gen`] — unique uniform random keys and hit-rate-1 join pairs, fully
//!   deterministic per seed.
//! * [`zipf`] — Zipf-skewed keys (an ablation extension; the paper assumes
//!   uniqueness).
//! * [`item`] — the Figure 4 "Item" table (a lineitem-like relation) used by
//!   the storage experiments and examples. It is generated
//!   column-at-a-time: Figure 4's case for vertical decomposition applies to
//!   the loader too, so one generator fills one typed vector per attribute,
//!   encodes each string by its index in a closed domain, and hands the
//!   vectors whole to `DecomposedTable::from_columns`. No row is built
//!   unless a caller asks for [`item_rows`].
//! * [`mix`] — a closed-loop, Zipf-skewed *query* mix over the Item ⋈
//!   Supplier schema (the multi-user workload the query service
//!   schedules), deterministic per `(seed, client)`.

pub mod gen;
pub mod item;
pub mod mix;
pub mod zipf;

pub use gen::{join_pair, shuffle, unique_random_buns, unique_random_keys};
pub use item::{item_rows, item_rows_skewed, item_table, item_table_skewed, ItemRow, SHIPMODES};
pub use mix::{ChurnMix, OverlapMix, QueryMix, QuerySpec, ShardMix};
pub use zipf::ZipfGenerator;
