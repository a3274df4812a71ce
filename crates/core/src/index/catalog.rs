//! Buildable column indexes — the catalog-facing wrapper the executor
//! consults when choosing a selection access path.
//!
//! A [`ColumnIndex`] is one of the three §3.2 index structures, bulk-loaded
//! from a BAT column via the order-preserving key mapping of
//! [`super::keys`]:
//!
//! * [`IndexKind::CsBTree`] — the cache-sensitive B+-tree with
//!   L1-line-sized nodes (the \[Ron98\] recommendation the paper endorses);
//!   supports equality *and* range probes, and exact range *counting* for
//!   selectivity estimation;
//! * [`IndexKind::Hash`] — the bucket-chained hash index (point lookups
//!   only; the cheapest eq path, cache-hostile but O(chain));
//! * [`IndexKind::TTree`] — the \[LC86\] T-tree, kept buildable so the
//!   paper's criticism stays measurable *inside* the engine, not just in
//!   the figure harness.
//!
//! The index also records the number of *distinct keys* seen at build time,
//! which is the equality-selectivity estimate (`len / distinct`) the cost
//! model prices hash and T-tree probes with.

use memsim::{MemTracker, Work};

use crate::storage::{Bat, Oid, StorageError};

use super::btree::CsBTree;
use super::hashidx::HashIndex;
use super::keys::{build_entries, distinct_keys};
use super::ttree::TTree;

/// Node size of catalog-built B+-trees: the Origin2000's 32-byte L1 line,
/// the paper's endorsed block size ("a B-tree with a block-size equal to
/// the cache line size is optimal").
pub const BTREE_NODE_BYTES: usize = 32;

/// The index structures a table column can carry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IndexKind {
    /// Cache-sensitive B+-tree with L1-line-sized nodes (eq + range).
    CsBTree,
    /// Bucket-chained hash index (eq only).
    Hash,
    /// \[LC86\] T-tree (eq only).
    TTree,
}

impl IndexKind {
    /// Short display name (`btree`, `hash`, `ttree`).
    pub fn name(self) -> &'static str {
        match self {
            IndexKind::CsBTree => "btree",
            IndexKind::Hash => "hash",
            IndexKind::TTree => "ttree",
        }
    }
}

#[derive(Debug, Clone)]
enum Backend {
    Btree(CsBTree),
    Hash(HashIndex),
    TTree(TTree),
}

/// A secondary index over one BAT column. See module docs.
#[derive(Debug, Clone)]
pub struct ColumnIndex {
    backend: Backend,
    distinct: usize,
    len: usize,
}

impl ColumnIndex {
    /// Build an index of `kind` over a BAT column, bulk-loaded from
    /// [`build_entries`]: the column's `(key, oid)` pairs in key order, and
    /// in OID order within a key, put in that order by stable radix passes
    /// (no comparison sort). Fails with [`StorageError::TypeMismatch`] for
    /// unindexable tails (`F64`, `I64`).
    pub fn build(bat: &Bat, kind: IndexKind) -> Result<Self, StorageError> {
        let entries = build_entries(bat)?;
        let distinct = distinct_keys(&entries);
        let backend = match kind {
            IndexKind::CsBTree => {
                Backend::Btree(CsBTree::with_node_bytes(&entries, BTREE_NODE_BYTES))
            }
            IndexKind::Hash => Backend::Hash(HashIndex::new(&entries)),
            IndexKind::TTree => Backend::TTree(TTree::with_default_capacity(&entries)),
        };
        Ok(Self { backend, distinct, len: entries.len() })
    }

    /// Which structure backs this index.
    pub fn kind(&self) -> IndexKind {
        match &self.backend {
            Backend::Btree(_) => IndexKind::CsBTree,
            Backend::Hash(_) => IndexKind::Hash,
            Backend::TTree(_) => IndexKind::TTree,
        }
    }

    /// Number of indexed entries (the column length at build time).
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the index holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Distinct keys seen at build time (the eq-selectivity estimator's
    /// denominator).
    pub fn distinct(&self) -> usize {
        self.distinct
    }

    /// True if the index answers *range* probes (only the B+-tree does).
    pub fn supports_range(&self) -> bool {
        matches!(self.backend, Backend::Btree(_))
    }

    /// The backing B+-tree, when this is a [`IndexKind::CsBTree`] index.
    pub fn btree(&self) -> Option<&CsBTree> {
        match &self.backend {
            Backend::Btree(t) => Some(t),
            _ => None,
        }
    }

    /// The backing T-tree, when this is a [`IndexKind::TTree`] index.
    pub fn ttree(&self) -> Option<&TTree> {
        match &self.backend {
            Backend::TTree(t) => Some(t),
            _ => None,
        }
    }

    /// Invoke `on_match(oid)` for every entry with exactly this key. OID
    /// order is backend-dependent (hash chains walk in reverse insertion
    /// order) — callers needing scan order sort the result.
    pub fn lookup_eq<M: MemTracker>(&self, trk: &mut M, key: u32, on_match: impl FnMut(Oid)) {
        match &self.backend {
            Backend::Btree(t) => t.lookup_eq(trk, key, on_match),
            Backend::Hash(h) => h.lookup_eq(trk, key, on_match),
            Backend::TTree(t) => t.lookup_eq(trk, key, on_match),
        }
    }

    /// Invoke `on_match(oid)` for every entry with `lo ≤ key ≤ hi`.
    /// Returns `false` (without probing) when the backend has no range
    /// support.
    pub fn lookup_range<M: MemTracker>(
        &self,
        trk: &mut M,
        lo: u32,
        hi: u32,
        mut on_match: impl FnMut(Oid),
    ) -> bool {
        match &self.backend {
            Backend::Btree(t) => {
                t.range(trk, lo, hi, |_, o| on_match(o));
                true
            }
            _ => false,
        }
    }

    /// Exact number of entries in `[lo, hi]` — B+-tree only (two descents,
    /// no leaf walk); `None` for backends that cannot count cheaply.
    pub fn count_range<M: MemTracker>(&self, trk: &mut M, lo: u32, hi: u32) -> Option<usize> {
        match &self.backend {
            Backend::Btree(t) => Some(t.count_range(trk, lo, hi)),
            _ => None,
        }
    }

    /// Candidate-restricted [`Self::lookup_eq`] — the pushdown probe
    /// variant. Probes as usual but emits only OIDs present in `cands` (an
    /// ascending list a prior predicate leaf produced), so the caller's
    /// sort-back-to-OID-order pays for the surviving entries instead of
    /// the full match set. Each probe-emitted entry is charged one
    /// [`Work::ScanIter`] for its membership test.
    pub fn lookup_eq_cands<M: MemTracker>(
        &self,
        trk: &mut M,
        key: u32,
        cands: &[Oid],
        mut on_match: impl FnMut(Oid),
    ) {
        let mut probed = 0u64;
        self.lookup_eq(trk, key, |o| {
            probed += 1;
            if cands.binary_search(&o).is_ok() {
                on_match(o);
            }
        });
        if M::ENABLED {
            trk.work(Work::ScanIter, probed);
        }
    }

    /// Candidate-restricted [`Self::lookup_range`]: like
    /// [`Self::lookup_eq_cands`], but over `lo ≤ key ≤ hi`. Returns `false`
    /// (without probing) when the backend has no range support.
    pub fn lookup_range_cands<M: MemTracker>(
        &self,
        trk: &mut M,
        lo: u32,
        hi: u32,
        cands: &[Oid],
        mut on_match: impl FnMut(Oid),
    ) -> bool {
        let mut probed = 0u64;
        let ok = self.lookup_range(trk, lo, hi, |o| {
            probed += 1;
            if cands.binary_search(&o).is_ok() {
                on_match(o);
            }
        });
        if M::ENABLED {
            trk.work(Work::ScanIter, probed);
        }
        ok
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::keys::key_of_i32;
    use crate::storage::Column;
    use memsim::NullTracker;

    fn bat() -> Bat {
        Bat::with_void_head(10, Column::I32(vec![4, -1, 4, 9, -1, 4]))
    }

    fn eq(idx: &ColumnIndex, v: i32) -> Vec<Oid> {
        let mut out = vec![];
        idx.lookup_eq(&mut NullTracker, key_of_i32(v), |o| out.push(o));
        out.sort_unstable();
        out
    }

    #[test]
    fn all_kinds_agree_on_lookups() {
        for kind in [IndexKind::CsBTree, IndexKind::Hash, IndexKind::TTree] {
            let idx = ColumnIndex::build(&bat(), kind).unwrap();
            assert_eq!(idx.kind(), kind);
            assert_eq!(idx.len(), 6);
            assert_eq!(idx.distinct(), 3);
            assert_eq!(eq(&idx, 4), vec![10, 12, 15], "{}", kind.name());
            assert_eq!(eq(&idx, -1), vec![11, 14], "{}", kind.name());
            assert!(eq(&idx, 5).is_empty(), "{}", kind.name());
        }
    }

    #[test]
    fn only_the_btree_ranges_and_counts() {
        let b = ColumnIndex::build(&bat(), IndexKind::CsBTree).unwrap();
        assert!(b.supports_range());
        let (lo, hi) = crate::index::keys::key_range_i32(-1, 4);
        let mut out = vec![];
        assert!(b.lookup_range(&mut NullTracker, lo, hi, |o| out.push(o)));
        out.sort_unstable();
        assert_eq!(out, vec![10, 11, 12, 14, 15]);
        assert_eq!(b.count_range(&mut NullTracker, lo, hi), Some(5));

        for kind in [IndexKind::Hash, IndexKind::TTree] {
            let idx = ColumnIndex::build(&bat(), kind).unwrap();
            assert!(!idx.supports_range());
            assert!(!idx.lookup_range(&mut NullTracker, lo, hi, |_| {}));
            assert_eq!(idx.count_range(&mut NullTracker, lo, hi), None);
            assert!(idx.btree().is_none());
        }
    }

    #[test]
    fn candidate_restricted_probes_filter_to_the_list() {
        for kind in [IndexKind::CsBTree, IndexKind::Hash, IndexKind::TTree] {
            let idx = ColumnIndex::build(&bat(), kind).unwrap();
            let mut out = vec![];
            idx.lookup_eq_cands(&mut NullTracker, key_of_i32(4), &[10, 15], |o| out.push(o));
            out.sort_unstable();
            assert_eq!(out, vec![10, 15], "{}", kind.name());
            let mut none = vec![];
            idx.lookup_eq_cands(&mut NullTracker, key_of_i32(4), &[], |o| none.push(o));
            assert!(none.is_empty(), "empty candidate list restricts to nothing");
        }
        let b = ColumnIndex::build(&bat(), IndexKind::CsBTree).unwrap();
        let (lo, hi) = crate::index::keys::key_range_i32(-1, 4);
        let mut out = vec![];
        assert!(b.lookup_range_cands(&mut NullTracker, lo, hi, &[11, 12, 13], |o| out.push(o)));
        out.sort_unstable();
        assert_eq!(out, vec![11, 12], "full range hits {{10,11,12,14,15}}, cands clip it");
    }

    #[test]
    fn unindexable_tails_error() {
        let f = Bat::with_void_head(0, Column::F64(vec![1.5]));
        for kind in [IndexKind::CsBTree, IndexKind::Hash, IndexKind::TTree] {
            assert!(matches!(ColumnIndex::build(&f, kind), Err(StorageError::TypeMismatch { .. })));
        }
    }
}
