//! A bucket-chained hash index for point lookups — the \[LC86\] hash path
//! of §3.2, packaged as a *secondary index* over a BAT column.
//!
//! The paper's criticism ("hash tables … cause random memory access to the
//! entire relation; a non cache-friendly access pattern") applies to the
//! probe: each lookup walks a chain whose entries are scattered over the
//! whole `(key, oid)` array. That is still the cheapest access path for a
//! *point* query on a large relation — one chain walk beats a full scan by
//! orders of magnitude — which is why the cost model prices it per probe
//! rather than per relation ([`costmodel`'s access module]).
//!
//! Built on [`crate::join::ChainedTable`], the same no-allocation
//! heads+chain layout both hash-join variants use.

use memsim::{MemTracker, Work};

use crate::join::hashtable::DEFAULT_TUPLES_PER_BUCKET;
use crate::join::{Bun, ChainedTable, FibHash};
use crate::storage::{Bat, Oid, StorageError};

use super::keys::build_entries;

/// A bucket-chained hash index over `(key, oid)` entries.
#[derive(Debug, Clone)]
pub struct HashIndex {
    /// The indexed entries as BUNs (`head` = OID payload, `tail` = key).
    buns: Vec<Bun>,
    table: ChainedTable,
}

impl HashIndex {
    /// Build from `(key, oid)` entries (any order; duplicates allowed).
    pub fn new(entries: &[(u32, Oid)]) -> Self {
        let buns: Vec<Bun> = entries.iter().map(|&(k, o)| Bun::new(o, k)).collect();
        let table = ChainedTable::build(
            &mut memsim::NullTracker,
            FibHash,
            &buns,
            0,
            DEFAULT_TUPLES_PER_BUCKET,
        );
        Self { buns, table }
    }

    /// Build over a BAT column (see [`super::keys::build_entries`] for the
    /// key mapping).
    pub fn from_column(bat: &Bat) -> Result<Self, StorageError> {
        Ok(Self::new(&build_entries(bat)?))
    }

    /// Number of indexed entries.
    pub fn len(&self) -> usize {
        self.buns.len()
    }

    /// True if the index is empty.
    pub fn is_empty(&self) -> bool {
        self.buns.is_empty()
    }

    /// Invoke `on_match(oid)` for every entry with exactly this key, in
    /// chain order (no particular OID order — callers sort). Charges one
    /// [`Work::HashTuple`] per probe; every chain access is tracked.
    pub fn lookup_eq<M: MemTracker>(&self, trk: &mut M, key: u32, mut on_match: impl FnMut(Oid)) {
        if M::ENABLED {
            trk.work(Work::HashTuple, 1);
        }
        self.table.probe(trk, FibHash, &self.buns, key, |_, b, hit| {
            if hit {
                on_match(b.head);
            }
        });
    }

    /// Heap bytes of index structure (heads + chain + BUN array) — what the
    /// access cost model treats as the randomly-accessed footprint.
    pub fn footprint_bytes(&self) -> usize {
        self.table.footprint_bytes() + self.buns.len() * std::mem::size_of::<Bun>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::keys::key_of_i32;
    use crate::storage::Column;
    use memsim::NullTracker;

    fn lookup(idx: &HashIndex, key: u32) -> Vec<Oid> {
        let mut out = vec![];
        idx.lookup_eq(&mut NullTracker, key, |o| out.push(o));
        out.sort_unstable();
        out
    }

    #[test]
    fn finds_all_duplicates_and_nothing_else() {
        let idx = HashIndex::new(&[(5, 10), (7, 11), (5, 12), (9, 13)]);
        assert_eq!(lookup(&idx, 5), vec![10, 12]);
        assert_eq!(lookup(&idx, 7), vec![11]);
        assert!(lookup(&idx, 6).is_empty());
        assert_eq!(idx.len(), 4);
    }

    #[test]
    fn from_column_maps_i32_keys() {
        let bat = Bat::with_void_head(200, Column::I32(vec![-3, 8, -3]));
        let idx = HashIndex::from_column(&bat).unwrap();
        assert_eq!(lookup(&idx, key_of_i32(-3)), vec![200, 202]);
        assert_eq!(lookup(&idx, key_of_i32(8)), vec![201]);
    }

    #[test]
    fn empty_index() {
        let idx = HashIndex::new(&[]);
        assert!(idx.is_empty());
        assert!(lookup(&idx, 1).is_empty());
        assert!(idx.footprint_bytes() < 64);
    }
}
