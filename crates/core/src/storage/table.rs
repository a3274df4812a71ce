//! Full vertical (DSM) decomposition of an n-ary relation — Figure 4.
//!
//! A [`DecomposedTable`] stores one void-headed BAT per attribute. All BATs
//! share the same seqbase, so a logical tuple is the set of BUNs with equal
//! OID and tuple reconstruction is positional.

use crate::compress::CompressedColumn;
use crate::index::{ColumnIndex, IndexKind};

use super::bat::Bat;
use super::column::{Codes, Column, StrColumn};
use super::nsm::{FieldType, RowSchema, RowTable};
use super::value::{Value, ValueType};
use super::{Oid, StorageError};

/// A named column of a decomposed table.
#[derive(Debug, Clone)]
pub struct NamedBat {
    /// Attribute name.
    pub name: String,
    /// The column's BAT (void head).
    pub bat: Bat,
}

/// A secondary index attached to one column of a [`DecomposedTable`].
#[derive(Debug, Clone)]
pub struct AttachedIndex {
    /// The indexed column.
    pub column: String,
    /// The built index.
    pub index: ColumnIndex,
}

/// A vertically decomposed relation: one BAT per attribute.
#[derive(Debug, Clone)]
pub struct DecomposedTable {
    name: String,
    seqbase: Oid,
    len: usize,
    cols: Vec<NamedBat>,
    indexes: Vec<AttachedIndex>,
    compressed: Vec<Option<CompressedColumn>>,
}

impl DecomposedTable {
    /// Table name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of logical tuples.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the table has no tuples.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// First OID.
    pub fn seqbase(&self) -> Oid {
        self.seqbase
    }

    /// All columns in declaration order.
    pub fn columns(&self) -> &[NamedBat] {
        &self.cols
    }

    /// The BAT for attribute `name`.
    pub fn bat(&self, name: &str) -> Result<&Bat, StorageError> {
        self.cols
            .iter()
            .find(|c| c.name == name)
            .map(|c| &c.bat)
            .ok_or_else(|| StorageError::NoSuchColumn(name.to_owned()))
    }

    /// Build and attach a secondary index of `kind` on column `col`
    /// (replacing an existing index of the same kind on that column).
    /// Fails for unknown columns and for unindexable column types.
    pub fn create_index(&mut self, col: &str, kind: IndexKind) -> Result<(), StorageError> {
        let index = ColumnIndex::build(self.bat(col)?, kind)?;
        self.indexes.retain(|a| !(a.column == col && a.index.kind() == kind));
        self.indexes.push(AttachedIndex { column: col.to_owned(), index });
        Ok(())
    }

    /// All attached indexes, in creation order.
    pub fn indexes(&self) -> &[AttachedIndex] {
        &self.indexes
    }

    /// The indexes attached to column `col`, in creation order.
    pub fn indexes_on<'a>(&'a self, col: &'a str) -> impl Iterator<Item = &'a ColumnIndex> {
        self.indexes.iter().filter(move |a| a.column == col).map(|a| &a.index)
    }

    /// The index of `kind` on column `col`, if one was created.
    pub fn index_of(&self, col: &str, kind: IndexKind) -> Option<&ColumnIndex> {
        self.indexes.iter().find(|a| a.column == col && a.index.kind() == kind).map(|a| &a.index)
    }

    /// The compressed representation of column `col`, if
    /// [`crate::compress::pick_encoding`] found one worth keeping.
    pub fn compressed_of(&self, col: &str) -> Option<&CompressedColumn> {
        let idx = self.cols.iter().position(|c| c.name == col)?;
        self.compressed.get(idx)?.as_ref()
    }

    /// (Re)build the compressed representations of every column, per
    /// [`crate::compress::pick_encoding`]. [`DecomposedTable::from_columns`]
    /// does this automatically; call it again after mutating columns in
    /// place.
    pub fn build_compressed(&mut self) {
        self.compressed =
            self.cols.iter().map(|c| CompressedColumn::encode(c.bat.tail())).collect();
    }

    /// Assemble a table from whole typed columns — the bulk load path.
    /// Every column gets a void head from `seqbase`; string columns whose
    /// dictionary holds ≤ 256 values are narrowed to 1-byte codes (the
    /// paper's byte-encoding step); compressed representations are built
    /// where [`crate::compress::pick_encoding`] finds a saving.
    ///
    /// Fails with [`StorageError::ColumnLength`] unless all columns hold
    /// the same number of values.
    pub fn from_columns(
        name: &str,
        seqbase: Oid,
        cols: Vec<(String, Column)>,
    ) -> Result<Self, StorageError> {
        let len = cols.first().map_or(0, |(_, c)| c.len());
        if let Some((name, c)) = cols.iter().find(|(_, c)| c.len() != len) {
            return Err(StorageError::ColumnLength {
                column: name.clone(),
                len: c.len(),
                expected: len,
            });
        }
        let cols = cols
            .into_iter()
            .map(|(name, col)| NamedBat { name, bat: Bat::with_void_head(seqbase, narrow(col)) })
            .collect();
        let mut t = Self {
            name: name.to_owned(),
            seqbase,
            len,
            cols,
            indexes: Vec::new(),
            compressed: Vec::new(),
        };
        t.build_compressed();
        Ok(t)
    }

    /// Reconstruct logical tuple `oid` (positional; O(columns)).
    pub fn tuple(&self, oid: Oid) -> Option<Vec<Value>> {
        let pos = oid.checked_sub(self.seqbase)? as usize;
        if pos >= self.len {
            return None;
        }
        Some(self.cols.iter().map(|c| c.bat.tail_value(pos)).collect())
    }

    /// Stored bytes per logical tuple across all BATs — the Fig. 4
    /// comparison number (≈ 80 B relational vs the sum of BUN widths here).
    pub fn bytes_per_tuple(&self) -> usize {
        self.cols.iter().map(|c| c.bat.bun_width()).sum()
    }

    /// Convert to the N-ary (row-store) layout for baseline comparisons.
    /// Encoded string columns are widened to their code width in the record
    /// (matching what a relational system would at best store inline for a
    /// dictionary-compressed column; a `varchar` would be far wider).
    pub fn to_nsm(&self) -> RowTable {
        let fields: Vec<(String, FieldType)> = self
            .cols
            .iter()
            .map(|c| {
                let ft = match c.bat.tail().value_type() {
                    ValueType::U8 => FieldType::U8,
                    ValueType::U16 => FieldType::U16,
                    ValueType::I32 => FieldType::I32,
                    ValueType::I64 => FieldType::I64,
                    ValueType::F64 => FieldType::F64,
                    ValueType::Oid => FieldType::I32,
                    ValueType::Str => match c.bat.tail().tail_width() {
                        1 => FieldType::U8,
                        _ => FieldType::U16,
                    },
                };
                (c.name.clone(), ft)
            })
            .collect();
        let schema = RowSchema::new(fields);
        let mut rt = RowTable::new(schema);
        for pos in 0..self.len {
            let row: Vec<Value> = self
                .cols
                .iter()
                .map(|c| match c.bat.tail() {
                    Column::Str(sc) => {
                        let code = sc.codes.get(pos);
                        if sc.codes.width() == 1 {
                            Value::U8(code as u8)
                        } else {
                            Value::U16(code as u16)
                        }
                    }
                    Column::Oid(v) => Value::I32(v[pos] as i32),
                    other => other.get(pos),
                })
                .collect();
            rt.push_row(&row).expect("schema derived from table");
        }
        rt
    }
}

/// Declared column type for [`TableBuilder`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ColType {
    /// 4-byte integer.
    I32,
    /// 8-byte integer.
    I64,
    /// 8-byte float.
    F64,
    /// 1-byte integer.
    U8,
    /// Dictionary-encoded string (code width chosen automatically).
    Str,
}

/// Builds a [`DecomposedTable`] row by row, through
/// [`DecomposedTable::from_columns`].
#[derive(Debug)]
pub struct TableBuilder {
    name: String,
    seqbase: Oid,
    cols: Vec<(String, Column)>,
    len: usize,
}

impl TableBuilder {
    /// Start a table named `name` with OIDs from `seqbase`.
    pub fn new(name: &str, seqbase: Oid) -> Self {
        Self { name: name.to_owned(), seqbase, cols: Vec::new(), len: 0 }
    }

    /// Declare a column.
    pub fn column(mut self, name: &str, ty: ColType) -> Self {
        let col = match ty {
            ColType::I32 => Column::I32(Vec::new()),
            ColType::I64 => Column::I64(Vec::new()),
            ColType::F64 => Column::F64(Vec::new()),
            ColType::U8 => Column::U8(Vec::new()),
            ColType::Str => Column::Str(StrColumn::new_u16()),
        };
        self.cols.push((name.to_owned(), col));
        self
    }

    /// Append one row (values in declaration order). A rejected row leaves
    /// the builder as it was, except that a full string dictionary may keep
    /// strings the row interned before the overflow.
    pub fn push_row(&mut self, row: &[Value]) -> Result<(), StorageError> {
        if row.len() != self.cols.len() {
            return Err(StorageError::ArityMismatch { expected: self.cols.len(), got: row.len() });
        }
        for ((_, col), v) in self.cols.iter().zip(row) {
            let expected = col.value_type();
            if v.value_type() != expected {
                return Err(StorageError::TypeMismatch { expected, got: v.value_type() });
            }
        }
        for (i, v) in row.iter().enumerate() {
            if let Err(e) = self.cols[i].1.push(v) {
                // Only a string column's `DictOverflow` gets here: drop the
                // cells this row already appended.
                for (_, col) in &mut self.cols[..i] {
                    col.truncate(self.len);
                }
                return Err(e);
            }
        }
        self.len += 1;
        Ok(())
    }

    /// Finish the table (see [`DecomposedTable::from_columns`]).
    pub fn finish(self) -> DecomposedTable {
        DecomposedTable::from_columns(&self.name, self.seqbase, self.cols)
            .expect("push_row appends to every column or to none")
    }
}

/// Re-encode a u16-coded string column as u8 codes when its dictionary
/// holds ≤ 256 values.
fn narrow(col: Column) -> Column {
    match col {
        Column::Str(StrColumn { codes: Codes::U16(codes), dict }) if dict.len() <= 256 => {
            let codes = Codes::U8(codes.into_iter().map(|c| c as u8).collect());
            Column::Str(StrColumn { codes, dict })
        }
        other => other,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn item_like() -> DecomposedTable {
        let mut b = TableBuilder::new("Item", 1000)
            .column("qty", ColType::I32)
            .column("price", ColType::F64)
            .column("shipmode", ColType::Str);
        let rows = [(1, 92.80, "SHIP"), (3, 37.50, "AIR"), (2, 11.50, "MAIL"), (6, 75.00, "AIR")];
        for (q, p, s) in rows {
            b.push_row(&[Value::I32(q), Value::F64(p), Value::from(s)]).unwrap();
        }
        b.finish()
    }

    #[test]
    fn decomposition_produces_void_bats() {
        let t = item_like();
        assert_eq!(t.len(), 4);
        for c in t.columns() {
            assert!(c.bat.head_is_void(), "column {} must be void", c.name);
            assert_eq!(c.bat.len(), 4);
        }
    }

    #[test]
    fn tuple_reconstruction_is_positional() {
        let t = item_like();
        let tup = t.tuple(1002).unwrap();
        assert_eq!(tup[0], Value::I32(2));
        assert_eq!(tup[2], Value::Str("MAIL".into()));
        assert!(t.tuple(999).is_none());
        assert!(t.tuple(1004).is_none());
    }

    #[test]
    fn string_columns_get_byte_codes() {
        let t = item_like();
        let ship = t.bat("shipmode").unwrap();
        assert_eq!(ship.bun_width(), 1, "void + u8 encoding = 1 byte per BUN");
        assert_eq!(t.bytes_per_tuple(), 4 + 8 + 1);
    }

    #[test]
    fn nsm_conversion_matches_values() {
        let t = item_like();
        let rt = t.to_nsm();
        assert_eq!(rt.len(), 4);
        // Row 2: qty=2, price=11.50, shipmode code for "MAIL".
        assert_eq!(rt.get(2, 0).unwrap(), Value::I32(2));
        assert_eq!(rt.get(2, 1).unwrap(), Value::F64(11.50));
        let ship = t.bat("shipmode").unwrap().tail().as_str_col().unwrap();
        let mail_code = ship.dict.code_of("MAIL").unwrap();
        assert_eq!(rt.get(2, 2).unwrap(), Value::U8(mail_code as u8));
        assert_eq!(rt.record_width(), 4 + 8 + 1);
    }

    #[test]
    fn indexes_attach_per_column_and_kind() {
        use crate::index::{key_of_i32, IndexKind};
        use memsim::NullTracker;
        let mut t = item_like();
        t.create_index("qty", IndexKind::CsBTree).unwrap();
        t.create_index("qty", IndexKind::Hash).unwrap();
        t.create_index("shipmode", IndexKind::Hash).unwrap();
        // Re-creating an existing kind replaces, not duplicates.
        t.create_index("qty", IndexKind::Hash).unwrap();
        assert_eq!(t.indexes().len(), 3);
        assert_eq!(t.indexes_on("qty").count(), 2);
        let b = t.index_of("qty", IndexKind::CsBTree).unwrap();
        let mut hits = vec![];
        b.lookup_eq(&mut NullTracker, key_of_i32(2), |o| hits.push(o));
        assert_eq!(hits, vec![1002]);
        assert!(t.index_of("qty", IndexKind::TTree).is_none());
        assert!(t.index_of("price", IndexKind::Hash).is_none());
        // Errors: unknown column, unindexable type.
        assert!(t.create_index("ghost", IndexKind::Hash).is_err());
        assert!(matches!(
            t.create_index("price", IndexKind::CsBTree),
            Err(StorageError::TypeMismatch { .. })
        ));
        // Cloning carries the catalog along.
        let c = t.clone();
        assert_eq!(c.indexes().len(), 3);
    }

    #[test]
    fn finish_builds_compressed_representations() {
        use crate::compress::Encoding;
        let mut b = TableBuilder::new("t", 0)
            .column("clustered", ColType::I32)
            .column("price", ColType::F64)
            .column("mode", ColType::Str);
        for i in 0..4000 {
            b.push_row(&[
                Value::I32(i / 64),
                Value::F64(i as f64),
                Value::from(["AIR", "SHIP", "MAIL"][i as usize % 3]),
            ])
            .unwrap();
        }
        let t = b.finish();
        assert_eq!(t.compressed_of("clustered").unwrap().encoding(), Encoding::Rle);
        assert_eq!(t.compressed_of("mode").unwrap().encoding(), Encoding::Dict);
        assert!(t.compressed_of("price").is_none(), "f64 stays uncompressed");
        assert!(t.compressed_of("ghost").is_none());
        // The compressed form decodes back to the stored column.
        let qty = t.bat("clustered").unwrap().tail().as_i32().unwrap();
        assert_eq!(t.compressed_of("clustered").unwrap().decode(), qty);
    }

    #[test]
    fn arity_and_missing_column_errors() {
        let mut b = TableBuilder::new("t", 0).column("a", ColType::I32);
        assert!(matches!(
            b.push_row(&[Value::I32(1), Value::I32(2)]),
            Err(StorageError::ArityMismatch { expected: 1, got: 2 })
        ));
        b.push_row(&[Value::I32(1)]).unwrap();
        let t = b.finish();
        assert!(matches!(t.bat("nope"), Err(StorageError::NoSuchColumn(_))));
    }

    #[test]
    fn rejected_rows_leave_the_columns_aligned() {
        let mut b = TableBuilder::new("t", 0).column("n", ColType::I32).column("s", ColType::Str);
        b.push_row(&[Value::I32(0), Value::from("x")]).unwrap();
        assert!(matches!(
            b.push_row(&[Value::I32(1), Value::I32(2)]),
            Err(StorageError::TypeMismatch { expected: ValueType::Str, got: ValueType::I32 })
        ));
        for i in 1..65_536 {
            b.push_row(&[Value::I32(i), Value::Str(format!("s{i}"))]).unwrap();
        }
        assert_eq!(
            b.push_row(&[Value::I32(-1), Value::from("one-too-many")]),
            Err(StorageError::DictOverflow { capacity: 65_536 })
        );
        b.push_row(&[Value::I32(-2), Value::from("x")]).unwrap();
        let t = b.finish();
        assert_eq!(t.len(), 65_537);
        assert_eq!(t.tuple(65_536).unwrap(), vec![Value::I32(-2), Value::from("x")]);
    }

    #[test]
    fn from_columns_rejects_unequal_lengths() {
        let cols = vec![
            ("a".to_owned(), Column::I32(vec![1, 2, 3])),
            ("b".to_owned(), Column::F64(vec![1.0, 2.0])),
        ];
        assert_eq!(
            DecomposedTable::from_columns("t", 0, cols).unwrap_err(),
            StorageError::ColumnLength { column: "b".into(), len: 2, expected: 3 }
        );
        let t = DecomposedTable::from_columns("t", 7, Vec::new()).unwrap();
        assert!(t.is_empty());
        assert_eq!(t.seqbase(), 7);
    }

    #[test]
    fn from_columns_narrows_up_to_256_distinct_strings() {
        for (distinct, width) in [(256, 1), (257, 2)] {
            let mut sc = StrColumn::new_u16();
            for i in 0..distinct + 10 {
                sc.push(&format!("v{}", i % distinct)).unwrap();
            }
            let t = DecomposedTable::from_columns("t", 5, vec![("s".to_owned(), Column::Str(sc))])
                .unwrap();
            let bat = t.bat("s").unwrap();
            assert_eq!(bat.bun_width(), width, "{distinct} distinct strings");
            assert_eq!(bat.head_oid(0), 5);
            assert_eq!(bat.tail_value(distinct + 3), Value::from("v3"));
            // Packing saves bits on 2-byte codes only: compression runs on
            // the narrowed column.
            assert_eq!(t.compressed_of("s").is_some(), width == 2);
        }
    }
}
