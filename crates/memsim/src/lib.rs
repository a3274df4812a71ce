#![warn(missing_docs)]

//! # memsim — a trace-driven memory-hierarchy simulator
//!
//! Boncz, Manegold & Kersten (VLDB 1999) measured their algorithms with the
//! hardware event counters of a 250 MHz MIPS R10000 (SGI Origin2000),
//! obtaining exact counts of L1 misses, L2 misses and TLB misses. This crate
//! is the substitute for that hardware: a software model of a two-level
//! set-associative cache hierarchy plus a fully associative TLB, driven by
//! the *actual* memory addresses an algorithm touches.
//!
//! The substitution preserves the paper's methodology because the paper never
//! uses the counters for anything but event counting: elapsed time is always
//! decomposed as
//!
//! ```text
//! T = T_cpu + M_L1 · l_L2 + M_L2 · l_Mem + M_TLB · l_TLB
//! ```
//!
//! (§2 and §3.4), with latencies calibrated on the Origin2000 as
//! l_TLB = 228 ns, l_L2 = 24 ns, l_Mem = 412 ns. We count the same events with
//! the same cache geometry and apply the same decomposition.
//!
//! ## Architecture
//!
//! * [`config`] — cache/TLB geometry, latencies, per-operation work costs.
//! * [`profiles`] — the four machines of the paper's Figure 3 plus a modern
//!   profile.
//! * [`cache`] — an N-way set-associative cache with true LRU replacement,
//!   each set kept in recency order.
//! * [`tlb`] — a fully associative LRU TLB.
//! * [`system`] — [`MemorySystem`]: composes TLB + L1 + L2, accumulates
//!   [`EventCounters`] and simulated nanoseconds; a repeat of the last line
//!   touched costs one counter increment.
//! * [`tracker`] — the [`MemTracker`] abstraction that lets a *single*
//!   algorithm implementation run either natively (zero overhead,
//!   [`NullTracker`]) or under simulation ([`SimTracker`]). A parallel
//!   kernel gives each worker a hierarchy of its own, as the Origin2000's
//!   CPUs each own their caches: a cold [`MemTracker::fork`] of the
//!   caller's, whose counters [`MemTracker::absorb`] adds back. A parallel
//!   operator's counters are the **sum** of its workers' work, not its wall
//!   time.
//! * [`stride`] — the paper's §2 "reality check": a scan of 200,000 one-byte
//!   reads at a configurable stride.
//!
//! ## Quick example
//!
//! ```
//! use memsim::{profiles, MemorySystem, Access};
//!
//! let mut sys = MemorySystem::new(profiles::origin2000());
//! // Sequentially touch 1 MiB: every 32-byte L1 line misses once.
//! for addr in (0..1 << 20).step_by(4) {
//!     sys.touch(addr, 4, Access::Read);
//! }
//! let c = sys.counters();
//! assert_eq!(c.l1_misses, (1 << 20) / 32);
//! assert_eq!(c.l2_misses, (1 << 20) / 128);
//! ```

pub mod cache;
pub mod config;
pub mod counters;
pub mod profiles;
pub mod stride;
pub mod system;
pub mod tlb;
pub mod tracker;

pub use cache::SetAssocCache;
pub use config::{CacheConfig, Latencies, MachineConfig, TlbConfig, VmConfig, WorkCosts};
pub use counters::EventCounters;
pub use system::{Access, MemorySystem};
pub use tlb::Tlb;
pub use tracker::{
    track_read, track_read_slice, track_write, track_write_slice, MemTracker, NullTracker,
    SimTracker, Work,
};
