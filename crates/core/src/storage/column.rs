//! Typed column storage: the tail arrays of BATs.
//!
//! Columns are plain contiguous `Vec`s of fixed-width values — the layout
//! whose stride-1/stride-8 behaviour Figure 3 measures. String columns are
//! always dictionary-encoded ([`StrColumn`]) with a 1- or 2-byte code width
//! (§3.1's byte encodings); there is deliberately no "raw string column",
//! because the paper's design argues such a thing should not exist in the
//! hot path.

use super::dict::StrDict;
use super::value::{Value, ValueType};
use super::{Oid, StorageError};

/// Code width of an encoded string column.
#[derive(Debug, Clone, PartialEq)]
pub enum Codes {
    /// 1-byte codes (≤ 256 distinct values) — the Fig. 4 `shipmode` case.
    U8(Vec<u8>),
    /// 2-byte codes (≤ 65536 distinct values).
    U16(Vec<u16>),
}

impl Codes {
    /// Number of entries.
    pub fn len(&self) -> usize {
        match self {
            Codes::U8(v) => v.len(),
            Codes::U16(v) => v.len(),
        }
    }

    /// True if there are no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Code at position `i`.
    #[inline]
    pub fn get(&self, i: usize) -> u32 {
        match self {
            Codes::U8(v) => v[i] as u32,
            Codes::U16(v) => v[i] as u32,
        }
    }

    /// Bytes per code.
    pub fn width(&self) -> usize {
        match self {
            Codes::U8(_) => 1,
            Codes::U16(_) => 2,
        }
    }

    /// Append a code, or fail if it exceeds the width.
    pub fn push(&mut self, code: u32) -> Result<(), StorageError> {
        match self {
            Codes::U8(v) => {
                if code > u8::MAX as u32 {
                    return Err(StorageError::DictOverflow { capacity: 256 });
                }
                v.push(code as u8);
            }
            Codes::U16(v) => {
                if code > u16::MAX as u32 {
                    return Err(StorageError::DictOverflow { capacity: 65536 });
                }
                v.push(code as u16);
            }
        }
        Ok(())
    }
}

/// A dictionary-encoded string column: fixed-width codes + encoding BAT.
#[derive(Debug, Clone, PartialEq)]
pub struct StrColumn {
    /// The per-row codes.
    pub codes: Codes,
    /// The dictionary ("encoding BAT" in Fig. 4).
    pub dict: StrDict,
}

impl PartialEq for StrDict {
    fn eq(&self, other: &Self) -> bool {
        self.values() == other.values()
    }
}

impl StrColumn {
    /// Empty column with 1-byte codes (widened on demand by the builder).
    pub fn new_u8() -> Self {
        Self { codes: Codes::U8(Vec::new()), dict: StrDict::new() }
    }

    /// Empty column with 2-byte codes.
    pub fn new_u16() -> Self {
        Self { codes: Codes::U16(Vec::new()), dict: StrDict::new() }
    }

    /// Build from strings, choosing the narrowest code width that fits.
    pub fn from_strs<'a>(vals: impl IntoIterator<Item = &'a str>) -> Self {
        let vals: Vec<&str> = vals.into_iter().collect();
        let mut dict = StrDict::new();
        let raw: Vec<u32> = vals.iter().map(|s| dict.intern(s)).collect();
        let codes = if dict.len() <= 256 {
            Codes::U8(raw.iter().map(|&c| c as u8).collect())
        } else {
            Codes::U16(raw.iter().map(|&c| c as u16).collect())
        };
        Self { codes, dict }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.codes.len()
    }

    /// True if there are no rows.
    pub fn is_empty(&self) -> bool {
        self.codes.is_empty()
    }

    /// Decoded string at row `i`.
    pub fn get(&self, i: usize) -> &str {
        self.dict.decode(self.codes.get(i))
    }

    /// Append a string (interning it).
    pub fn push(&mut self, s: &str) -> Result<(), StorageError> {
        let code = self.dict.intern(s);
        self.codes.push(code)
    }
}

/// A typed column (the tail of a BAT).
#[derive(Debug, Clone, PartialEq)]
pub enum Column {
    /// 1-byte integers (and the storage for u8-encoded categorical data).
    U8(Vec<u8>),
    /// 2-byte integers.
    U16(Vec<u16>),
    /// 4-byte integers.
    I32(Vec<i32>),
    /// 8-byte integers.
    I64(Vec<i64>),
    /// 8-byte floats.
    F64(Vec<f64>),
    /// OIDs (join indices, reconstruction inputs).
    Oid(Vec<Oid>),
    /// Dictionary-encoded strings.
    Str(StrColumn),
}

impl Column {
    /// Number of rows.
    pub fn len(&self) -> usize {
        match self {
            Column::U8(v) => v.len(),
            Column::U16(v) => v.len(),
            Column::I32(v) => v.len(),
            Column::I64(v) => v.len(),
            Column::F64(v) => v.len(),
            Column::Oid(v) => v.len(),
            Column::Str(c) => c.len(),
        }
    }

    /// True if there are no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The column's value type.
    pub fn value_type(&self) -> ValueType {
        match self {
            Column::U8(_) => ValueType::U8,
            Column::U16(_) => ValueType::U16,
            Column::I32(_) => ValueType::I32,
            Column::I64(_) => ValueType::I64,
            Column::F64(_) => ValueType::F64,
            Column::Oid(_) => ValueType::Oid,
            Column::Str(_) => ValueType::Str,
        }
    }

    /// Bytes per value *as stored* — the quantity Figure 4 accounts.
    /// Encoded string columns report their code width (1 or 2), which is the
    /// paper's "1 byte per column" for `shipmode`.
    pub fn tail_width(&self) -> usize {
        match self {
            Column::U8(_) => 1,
            Column::U16(_) => 2,
            Column::I32(_) => 4,
            Column::I64(_) => 8,
            Column::F64(_) => 8,
            Column::Oid(_) => 4,
            Column::Str(c) => c.codes.width(),
        }
    }

    /// Dynamically typed value at row `i` (not for hot paths).
    pub fn get(&self, i: usize) -> Value {
        match self {
            Column::U8(v) => Value::U8(v[i]),
            Column::U16(v) => Value::U16(v[i]),
            Column::I32(v) => Value::I32(v[i]),
            Column::I64(v) => Value::I64(v[i]),
            Column::F64(v) => Value::F64(v[i]),
            Column::Oid(v) => Value::Oid(v[i]),
            Column::Str(c) => Value::Str(c.get(i).to_owned()),
        }
    }

    /// Append a dynamically typed value.
    pub fn push(&mut self, v: &Value) -> Result<(), StorageError> {
        let expected = self.value_type();
        match (self, v) {
            (Column::U8(c), Value::U8(x)) => c.push(*x),
            (Column::U16(c), Value::U16(x)) => c.push(*x),
            (Column::I32(c), Value::I32(x)) => c.push(*x),
            (Column::I64(c), Value::I64(x)) => c.push(*x),
            (Column::F64(c), Value::F64(x)) => c.push(*x),
            (Column::Oid(c), Value::Oid(x)) => c.push(*x),
            (Column::Str(c), Value::Str(x)) => return c.push(x),
            _ => return Err(StorageError::TypeMismatch { expected, got: v.value_type() }),
        }
        Ok(())
    }

    /// Shorten to the first `len` rows (no-op if already shorter).
    pub(crate) fn truncate(&mut self, len: usize) {
        match self {
            Column::U8(v) => v.truncate(len),
            Column::U16(v) => v.truncate(len),
            Column::I32(v) => v.truncate(len),
            Column::I64(v) => v.truncate(len),
            Column::F64(v) => v.truncate(len),
            Column::Oid(v) => v.truncate(len),
            Column::Str(c) => match &mut c.codes {
                Codes::U8(v) => v.truncate(len),
                Codes::U16(v) => v.truncate(len),
            },
        }
    }

    /// Typed view: `i32` data, if that is what this column stores.
    pub fn as_i32(&self) -> Option<&[i32]> {
        match self {
            Column::I32(v) => Some(v),
            _ => None,
        }
    }

    /// Typed view: `f64` data.
    pub fn as_f64(&self) -> Option<&[f64]> {
        match self {
            Column::F64(v) => Some(v),
            _ => None,
        }
    }

    /// Typed view: `u8` data (raw bytes or u8 codes).
    pub fn as_u8(&self) -> Option<&[u8]> {
        match self {
            Column::U8(v) => Some(v),
            Column::Str(c) => match &c.codes {
                Codes::U8(v) => Some(v),
                Codes::U16(_) => None,
            },
            _ => None,
        }
    }

    /// Typed view: OID data.
    pub fn as_oid(&self) -> Option<&[Oid]> {
        match self {
            Column::Oid(v) => Some(v),
            _ => None,
        }
    }

    /// The encoded string column, if this is one.
    pub fn as_str_col(&self) -> Option<&StrColumn> {
        match self {
            Column::Str(c) => Some(c),
            _ => None,
        }
    }
}

impl From<Vec<i32>> for Column {
    fn from(v: Vec<i32>) -> Self {
        Column::I32(v)
    }
}

impl From<Vec<f64>> for Column {
    fn from(v: Vec<f64>) -> Self {
        Column::F64(v)
    }
}

impl From<Vec<i64>> for Column {
    fn from(v: Vec<i64>) -> Self {
        Column::I64(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn widths_match_figure4() {
        // Fig. 4: an int column in a BAT has a 4-byte tail; an encoded
        // shipmode column has a 1-byte tail.
        assert_eq!(Column::I32(vec![1, 2]).tail_width(), 4);
        let ship = Column::Str(StrColumn::from_strs(["AIR", "MAIL", "AIR"]));
        assert_eq!(ship.tail_width(), 1);
    }

    #[test]
    fn str_column_roundtrip_and_width_choice() {
        let c = StrColumn::from_strs(["a", "b", "a", "c"]);
        assert_eq!(c.len(), 4);
        assert_eq!(c.get(2), "a");
        assert_eq!(c.codes.width(), 1);

        // >256 distinct values forces u16 codes.
        let many: Vec<String> = (0..300).map(|i| format!("v{i}")).collect();
        let c = StrColumn::from_strs(many.iter().map(|s| s.as_str()));
        assert_eq!(c.codes.width(), 2);
        assert_eq!(c.get(299), "v299");
    }

    #[test]
    fn u8_codes_overflow_is_an_error() {
        let mut c = StrColumn::new_u8();
        for i in 0..256 {
            c.push(&format!("s{i}")).unwrap();
        }
        let err = c.push("one-too-many").unwrap_err();
        assert_eq!(err, StorageError::DictOverflow { capacity: 256 });
    }

    #[test]
    fn push_type_checks() {
        let mut c = Column::I32(vec![]);
        c.push(&Value::I32(5)).unwrap();
        let err = c.push(&Value::F64(1.0)).unwrap_err();
        assert!(matches!(err, StorageError::TypeMismatch { .. }));
        assert_eq!(c.len(), 1);
        assert_eq!(c.get(0), Value::I32(5));
    }

    #[test]
    fn typed_views() {
        let c = Column::I32(vec![1, 2, 3]);
        assert_eq!(c.as_i32().unwrap(), &[1, 2, 3]);
        assert!(c.as_f64().is_none());
        let s = Column::Str(StrColumn::from_strs(["x", "y"]));
        assert_eq!(s.as_u8().unwrap(), &[0, 1]);
    }
}
