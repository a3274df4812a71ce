//! Selection access paths — the §3.2 discussion, implemented.
//!
//! For selections the paper weighs three access paths:
//!
//! * **scan-select** — optimal locality, best at low selectivity
//!   ([`crate::scan::select`]);
//! * **bucket-chained hash / T-tree** — the \[LC86\] recommendation, which
//!   the paper criticizes: "both … cause random memory access to the entire
//!   relation; a non cache-friendly access pattern" ([`TTree`] implements
//!   the T-tree so the criticism can be measured);
//! * **B-tree with a block size equal to the cache line** — the \[Ron98\]
//!   result the paper endorses: "Our findings about the increased impact of
//!   cache misses indeed support this claim."
//!
//! This module provides the pieces to measure that trade-off on the
//! simulator — a bulk-loaded, cache-sensitive B+-tree with configurable node
//! size ([`CsBTree`]), a tracked binary search over a sorted array
//! ([`binary_search_tracked`]) as the classic pointer-free baseline whose
//! access pattern is *also* cache-hostile (log₂ C far-apart probes), and a
//! bucket-chained [`HashIndex`] over [`crate::join::ChainedTable`] — **and**
//! the pieces to *use* it: every structure bulk-loads from a BAT column
//! ([`keys`]' order-preserving key mapping), and [`catalog::ColumnIndex`]
//! wraps the three behind one probe interface so tables can carry attached
//! indexes the executor's access-path planner consults.

pub mod btree;
pub mod catalog;
pub mod hashidx;
pub mod keys;
pub mod ttree;

pub use btree::{binary_search_tracked, range_positions_tracked, CsBTree};
pub use catalog::{ColumnIndex, IndexKind, BTREE_NODE_BYTES};
pub use hashidx::HashIndex;
pub use keys::{build_entries, key_of_i32, key_range_i32};
pub use ttree::TTree;
