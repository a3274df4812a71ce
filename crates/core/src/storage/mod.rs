//! Vertically decomposed storage — §3.1 / Figure 4 of the paper.
//!
//! Monet stores each column of a relational table in a separate binary table
//! (a *BAT*), represented as an array of fixed-size two-field
//! `\[OID, value\]` records (*BUNs*). The two space optimizations of §3.1 —
//! virtual OIDs and byte encodings — together shrink the 8-byte BUN of a
//! low-cardinality column like `shipmode` to a single byte, which is what
//! makes the stride-1 scan of Figure 3 reachable in practice.
//!
//! Submodules:
//! * [`value`] — dynamically typed cell values for the non-hot-path API.
//! * [`dict`] — string dictionaries (the paper's "encoding BAT").
//! * `column` — typed column storage including 1/2-byte encoded columns.
//! * [`bat`] — the BAT itself: head (void or materialized) + tail column.
//! * [`table`] — DSM decomposition of an n-ary relation into BATs.
//! * [`nsm`] — the N-ary (slotted-record) layout used as a baseline.

pub mod bat;
pub mod column;
pub mod dict;
pub mod nsm;
pub mod table;
pub mod value;

pub use bat::{Bat, Head, TailProps};
pub use column::{Codes, Column, StrColumn};
pub use dict::StrDict;
pub use nsm::{FieldType, RowSchema, RowTable};
pub use table::{AttachedIndex, ColType, DecomposedTable, NamedBat, TableBuilder};
pub use value::{Value, ValueType};

use std::fmt;

/// Object identifier. Monet's OIDs are 4-byte system-generated surrogates;
/// `u32` matches the paper's 8-byte `\[OID, int\]` BUN layout exactly.
pub type Oid = u32;

/// Errors from storage operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StorageError {
    /// Head and tail columns differ in length.
    LengthMismatch {
        /// Head length.
        head: usize,
        /// Tail length.
        tail: usize,
    },
    /// A value of the wrong type was supplied to a typed column.
    TypeMismatch {
        /// Type the column stores.
        expected: ValueType,
        /// Type that was supplied.
        got: ValueType,
    },
    /// A dictionary-encoded column exceeded the capacity of its code width
    /// (e.g. a 257th distinct string in a `u8`-coded column).
    DictOverflow {
        /// Maximum number of codes the width allows.
        capacity: usize,
    },
    /// An operation requiring a void (virtual-OID) head was applied to a
    /// BAT with a materialized head.
    NonVoidHead,
    /// Row arity does not match the table schema.
    ArityMismatch {
        /// Number of columns in the schema.
        expected: usize,
        /// Number of values supplied.
        got: usize,
    },
    /// Unknown column name.
    NoSuchColumn(String),
    /// A column handed to [`DecomposedTable::from_columns`] differs in
    /// length from the first column.
    ColumnLength {
        /// The offending column.
        column: String,
        /// Its length.
        len: usize,
        /// The first column's length.
        expected: usize,
    },
}

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StorageError::LengthMismatch { head, tail } => {
                write!(f, "head/tail length mismatch: {head} vs {tail}")
            }
            StorageError::TypeMismatch { expected, got } => {
                write!(f, "type mismatch: expected {expected:?}, got {got:?}")
            }
            StorageError::DictOverflow { capacity } => {
                write!(f, "dictionary overflow: code width allows {capacity} distinct values")
            }
            StorageError::NonVoidHead => write!(f, "operation requires a void head"),
            StorageError::ArityMismatch { expected, got } => {
                write!(f, "row arity mismatch: schema has {expected} columns, got {got}")
            }
            StorageError::NoSuchColumn(name) => write!(f, "no such column: {name}"),
            StorageError::ColumnLength { column, len, expected } => {
                write!(f, "column {column} holds {len} values, expected {expected}")
            }
        }
    }
}

impl std::error::Error for StorageError {}
