#![warn(missing_docs)]

//! # monet-core — the paper's primary contribution
//!
//! This crate implements the two pillars of Boncz, Manegold & Kersten's
//! VLDB 1999 paper:
//!
//! 1. **Vertically decomposed storage** (§3.1, Figure 4): relations are
//!    stored column-wise as Binary Association Tables ([`storage::Bat`]) of
//!    fixed-width `\[OID, value\]` records (BUNs), with the paper's two space
//!    optimizations — *virtual OIDs* (dense ascending OID columns are not
//!    materialized; [`storage::Head::Void`]) and *byte encodings*
//!    (low-cardinality columns stored as 1/2-byte codes against a dictionary;
//!    [`storage::StrColumn`]). An NSM row-store ([`storage::RowTable`]) is
//!    provided as the layout baseline the paper argues against.
//!
//! 2. **Radix algorithms for equi-join** (§3.3), as the one family the paper
//!    describes: [`join::join`] runs a [`strategy::JoinPlan`] on any thread
//!    count by radix-clustering both inputs with one [`join::cluster()`] body,
//!    then joining every matching cluster pair with the plan's kernel —
//!    chained hash for partitioned hash-join (simple hash is its `B = 0`
//!    case), nested loop for radix-join. Sort-merge join
//!    ([`join::sort_merge_join`]) is the other Figure 13 baseline behind the
//!    same entry point, and [`join::nested_loop_join`] the oracle. The
//!    paper's named kernels ([`join::radix_cluster`],
//!    [`join::partitioned_hash_join`], [`join::radix_join`],
//!    [`join::simple_hash_join`]) are its one-thread forms.
//!
//! Every algorithm is generic over a [`memsim::MemTracker`], so a single
//! implementation runs both natively (zero-overhead `NullTracker`) and
//! under the simulated Origin2000 (`SimTracker`; used to regenerate the
//! paper's figures with exact miss counts).
//!
//! [`strategy`] implements §3.4.4's clustering strategies (`phash_L2`,
//! `phash_TLB`, `phash_L1`, `radix_8`, …) and the pass planning rule that
//! keeps the per-pass cluster fan-out below the TLB entry count.
//!
//! ## Quick example
//!
//! ```
//! use memsim::NullTracker;
//! use monet_core::join::{join, Bun, FibHash};
//! use monet_core::strategy::{Algorithm, JoinPlan, bits_phash_tuples, plan_passes};
//!
//! let left: Vec<Bun> = (0..10_000).map(|i| Bun::new(i, i * 7 % 10_000)).collect();
//! let right: Vec<Bun> = (0..10_000).map(|i| Bun::new(i, i)).collect();
//! let bits = bits_phash_tuples(left.len(), 200);
//! let plan = JoinPlan { algorithm: Algorithm::PartitionedHash, bits, pass_bits: plan_passes(bits, 64) };
//! let (pairs, _) = join(&mut NullTracker, FibHash, left, right, &plan, 2);
//! assert_eq!(pairs.len(), 10_000); // hit rate 1
//! ```

pub mod compress;
pub mod index;
pub mod join;
pub mod scan;
pub mod shard;
pub mod storage;
pub mod strategy;

pub use compress::{pick_encoding, CompressedColumn, Encoding};
pub use index::{ColumnIndex, CsBTree, HashIndex, IndexKind};
pub use join::{Bun, OidPair};
pub use shard::{shard_of, ShardStats, ShardedTable, TableShard};
pub use storage::{Bat, Column, Oid, Value};
