//! The Binary Association Table (BAT) — Monet's storage unit.
//!
//! A BAT is logically an array of `\[OID, value\]` BUNs. Physically the head
//! and tail are separate columns, and §3.1's *virtual-OID* optimization
//! ([`Head::Void`]) avoids materializing the head entirely when it is dense
//! and ascending — which is the case for every BAT produced by decomposing a
//! relation. Besides halving memory traffic, void heads make
//! positional lookup O(1), "effectively eliminating all join cost" for
//! tuple-reconstruction joins (§3.1).

use super::column::Column;
use super::value::Value;
use super::{Oid, StorageError};

/// The head (OID) column of a BAT.
#[derive(Debug, Clone, PartialEq)]
pub enum Head {
    /// Virtual OIDs: position `i` has OID `seqbase + i`. Nothing is stored.
    Void {
        /// OID of position 0.
        seqbase: Oid,
    },
    /// Materialized OIDs (e.g. the result of a selection).
    Oids(Vec<Oid>),
}

impl Head {
    /// OID at position `i`.
    #[inline]
    pub fn get(&self, i: usize) -> Oid {
        match self {
            Head::Void { seqbase } => seqbase + i as Oid,
            Head::Oids(v) => v[i],
        }
    }

    /// Stored bytes per BUN for this head: 0 when void, 4 otherwise —
    /// the Fig. 4 "8 bytes → 4 bytes" step.
    pub fn width(&self) -> usize {
        match self {
            Head::Void { .. } => 0,
            Head::Oids(_) => std::mem::size_of::<Oid>(),
        }
    }

    /// Length if materialized (`None` for void, which adopts the tail's).
    fn stored_len(&self) -> Option<usize> {
        match self {
            Head::Void { .. } => None,
            Head::Oids(v) => Some(v.len()),
        }
    }
}

/// Tail-column properties Monet tracks to enable algorithm shortcuts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TailProps {
    /// Values are non-decreasing in position order.
    pub sorted: bool,
    /// Values are unique ("key" property).
    pub key: bool,
}

/// A Binary Association Table. See module docs.
#[derive(Debug, Clone, PartialEq)]
pub struct Bat {
    head: Head,
    tail: Column,
    props: TailProps,
}

impl Bat {
    /// Construct from an explicit head and tail.
    pub fn new(head: Head, tail: Column) -> Result<Self, StorageError> {
        if let Some(hl) = head.stored_len() {
            if hl != tail.len() {
                return Err(StorageError::LengthMismatch { head: hl, tail: tail.len() });
            }
        }
        Ok(Self { head, tail, props: TailProps::default() })
    }

    /// The common case: a void head starting at `seqbase`.
    pub fn with_void_head(seqbase: Oid, tail: Column) -> Self {
        Self { head: Head::Void { seqbase }, tail, props: TailProps::default() }
    }

    /// Number of BUNs.
    pub fn len(&self) -> usize {
        self.tail.len()
    }

    /// True if the BAT has no BUNs.
    pub fn is_empty(&self) -> bool {
        self.tail.is_empty()
    }

    /// The head column.
    pub fn head(&self) -> &Head {
        &self.head
    }

    /// The tail column.
    pub fn tail(&self) -> &Column {
        &self.tail
    }

    /// Tail properties.
    pub fn props(&self) -> TailProps {
        self.props
    }

    /// True if the head is virtual (void).
    pub fn head_is_void(&self) -> bool {
        matches!(self.head, Head::Void { .. })
    }

    /// OID at position `i`.
    #[inline]
    pub fn head_oid(&self, i: usize) -> Oid {
        self.head.get(i)
    }

    /// Tail value at position `i` (dynamic typing; not for hot paths).
    pub fn tail_value(&self, i: usize) -> Value {
        self.tail.get(i)
    }

    /// The BUN at position `i`.
    pub fn bun(&self, i: usize) -> (Oid, Value) {
        (self.head_oid(i), self.tail_value(i))
    }

    /// Stored bytes per BUN — the Figure 4 accounting: materialized-OID int
    /// BAT = 8, void int BAT = 4, void byte-encoded string BAT = 1.
    pub fn bun_width(&self) -> usize {
        self.head.width() + self.tail.tail_width()
    }

    /// Total stored bytes of the BUN array (excludes dictionary heaps).
    pub fn stored_bytes(&self) -> usize {
        self.bun_width() * self.len()
    }

    /// Position of `oid`, using O(1) positional lookup on void heads
    /// (the §3.1 fast path) and a scan otherwise.
    pub fn find_oid(&self, oid: Oid) -> Option<usize> {
        match &self.head {
            Head::Void { seqbase } => {
                let pos = oid.checked_sub(*seqbase)? as usize;
                (pos < self.len()).then_some(pos)
            }
            Head::Oids(v) => v.iter().position(|&o| o == oid),
        }
    }

    /// Iterate over BUNs (dynamic typing; for tests and display).
    pub fn iter(&self) -> impl Iterator<Item = (Oid, Value)> + '_ {
        (0..self.len()).map(|i| self.bun(i))
    }

    /// Materialize the head as an OID column (used by `reverse`).
    pub fn materialized_head(&self) -> Vec<Oid> {
        match &self.head {
            Head::Void { seqbase } => (0..self.len() as Oid).map(|i| seqbase + i).collect(),
            Head::Oids(v) => v.clone(),
        }
    }

    /// Monet's `reverse`: swap head and tail. Only defined when the tail is
    /// an OID column (the common case in query plans: join indices and
    /// selection results).
    pub fn reverse(&self) -> Result<Bat, StorageError> {
        match &self.tail {
            Column::Oid(tail_oids) => Ok(Bat {
                head: Head::Oids(tail_oids.clone()),
                tail: Column::Oid(self.materialized_head()),
                props: TailProps::default(),
            }),
            _ => Err(StorageError::TypeMismatch {
                expected: super::ValueType::Oid,
                got: self.tail.value_type(),
            }),
        }
    }

    /// Monet's `mirror`: a BAT mapping each OID to itself.
    pub fn mirror(&self) -> Bat {
        match &self.head {
            Head::Void { seqbase } => Bat {
                head: Head::Void { seqbase: *seqbase },
                tail: Column::Oid(self.materialized_head()),
                props: TailProps { sorted: true, key: true },
            },
            Head::Oids(v) => Bat {
                head: Head::Oids(v.clone()),
                tail: Column::Oid(v.clone()),
                props: TailProps::default(),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::column::StrColumn;

    fn int_bat() -> Bat {
        Bat::with_void_head(1000, Column::I32(vec![10, 11, 13, 12]))
    }

    #[test]
    fn void_head_positional_semantics() {
        let b = int_bat();
        assert_eq!(b.len(), 4);
        assert_eq!(b.head_oid(0), 1000);
        assert_eq!(b.head_oid(3), 1003);
        assert_eq!(b.bun(2), (1002, Value::I32(13)));
        assert_eq!(b.find_oid(1002), Some(2));
        assert_eq!(b.find_oid(999), None);
        assert_eq!(b.find_oid(1004), None);
    }

    #[test]
    fn figure4_bun_widths() {
        // Materialized [oid, int] BUN: 8 bytes.
        let mat = Bat::new(Head::Oids(vec![1, 2, 3]), Column::I32(vec![7, 8, 9])).unwrap();
        assert_eq!(mat.bun_width(), 8);
        // Void head halves it.
        let void = int_bat();
        assert_eq!(void.bun_width(), 4);
        // Void + byte encoding: 1 byte per BUN (the shipmode column).
        let ship = Bat::with_void_head(
            1000,
            Column::Str(StrColumn::from_strs(["AIR", "MAIL", "AIR", "TRUCK"])),
        );
        assert_eq!(ship.bun_width(), 1);
        assert_eq!(ship.stored_bytes(), 4);
    }

    #[test]
    fn length_mismatch_rejected() {
        let err = Bat::new(Head::Oids(vec![1]), Column::I32(vec![1, 2])).unwrap_err();
        assert_eq!(err, StorageError::LengthMismatch { head: 1, tail: 2 });
    }

    #[test]
    fn reverse_swaps_columns() {
        let b = Bat::with_void_head(0, Column::Oid(vec![30, 10, 20]));
        let r = b.reverse().unwrap();
        assert_eq!(r.head_oid(0), 30);
        assert_eq!(r.tail_value(0), Value::Oid(0));
        assert!(b.reverse().unwrap().reverse().is_ok());
    }

    #[test]
    fn reverse_requires_oid_tail() {
        assert!(int_bat().reverse().is_err());
    }

    #[test]
    fn mirror_maps_oids_to_themselves() {
        let m = int_bat().mirror();
        assert_eq!(m.bun(1), (1001, Value::Oid(1001)));
        assert!(m.props().key);
    }
}
