//! Hash partitioning of a [`DecomposedTable`] into shards.
//!
//! The paper treats layout as a function of the memory hierarchy; this
//! module climbs one rung further and makes *placement* a layout decision
//! too. A [`ShardedTable`] splits a decomposed table into `S` hash shards
//! on an `i32` partition key. Each shard is itself a full
//! [`DecomposedTable`] — per-shard columns, compressed representations and
//! a replica of the parent's index catalog — so every existing kernel runs
//! on a shard unchanged.
//!
//! Two invariants make sharded execution bit-identical to unsharded
//! execution (see `engine::dist`):
//!
//! * **Shared dictionaries.** Shard string columns *gather the parent's
//!   codes and clone the parent's dictionary* rather than re-interning.
//!   Codes are therefore globally consistent: a grouped result merged in
//!   ascending code order reproduces the unsharded group order, and a
//!   selection constant missing from the dictionary is missing from every
//!   shard alike.
//! * **Monotone OID maps.** Shard tables are rebased to seqbase 0, and each
//!   shard carries the ascending list of global OIDs its rows came from
//!   ([`TableShard::oids`]); local OID `i` is global OID `oids[i]`, so
//!   per-shard outputs map back into parent OID space order-preservingly.

use memsim::{NullTracker, Work};

use crate::join::radix::Pass;
use crate::storage::{Codes, Column, DecomposedTable, Oid, StorageError, StrColumn, ValueType};

/// The multiplicative hash assigning a partition-key value to a shard.
/// Fibonacci hashing on the key's bit pattern — the same family the
/// paper's radix algorithms use — taken from the high word so low-entropy
/// keys still spread.
#[inline]
pub fn shard_of(key: i32, shards: usize) -> usize {
    debug_assert!(shards > 0);
    let h = (key as u32 as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    ((h >> 32) as usize) % shards
}

/// One hash shard of a [`ShardedTable`].
#[derive(Debug, Clone)]
pub struct TableShard {
    /// The shard's rows as a self-contained decomposed table (seqbase 0,
    /// dictionaries shared with the parent, indexes and compressed columns
    /// rebuilt per shard).
    pub table: DecomposedTable,
    /// Ascending global (parent) OID of each local row: local OID `i` in
    /// `table` is parent OID `oids[i]`.
    pub oids: Vec<Oid>,
}

/// Per-shard row statistics — what a placement layer keys on.
#[derive(Debug, Clone)]
pub struct ShardStats {
    /// Rows per shard.
    pub rows: Vec<usize>,
    /// Largest shard's share relative to the uniform share
    /// (`max_rows * shards / total`); 1.0 = perfectly even, higher = skew.
    pub skew: f64,
}

/// A [`DecomposedTable`] hash-partitioned on one `i32` key column.
#[derive(Debug, Clone)]
pub struct ShardedTable {
    name: String,
    key: String,
    shards: Vec<TableShard>,
}

impl ShardedTable {
    /// Partition `parent` into `shards` hash shards on `key` (an `i32`
    /// column — the joinable key type). Every shard replicates the
    /// parent's index catalog and rebuilds compressed representations over
    /// its own rows.
    pub fn partition(
        parent: &DecomposedTable,
        key: &str,
        shards: usize,
    ) -> Result<Self, StorageError> {
        let shards = shards.max(1);
        let key_bat = parent.bat(key)?;
        let keys = key_bat.tail().as_i32().ok_or(StorageError::TypeMismatch {
            expected: ValueType::I32,
            got: key_bat.tail().value_type(),
        })?;

        // Rows per shard, in ascending position order — the monotone OID
        // map the merge relies on, which the stable scatter keeps. The
        // scattered positions are freed before the gathers.
        let n = u32::try_from(keys.len()).expect("a table has at most u32::MAX rows");
        let mut rows = vec![0u32; keys.len()];
        let digit = |&p: &u32| shard_of(keys[p as usize], shards);
        let pass = Pass { fan: shards, digit, gap: 0, work: Work::ClusterTuple };
        let bounds = pass.run(&mut NullTracker, &(0..n).collect::<Vec<_>>(), &[0, n], &mut rows, 1);

        let built = bounds
            .windows(2)
            .enumerate()
            .map(|(h, w)| {
                let rows = &rows[w[0] as usize..w[1] as usize];
                let cols = parent
                    .columns()
                    .iter()
                    .map(|c| (c.name.clone(), gather(c.bat.tail(), rows)))
                    .collect();
                let mut table = DecomposedTable::from_columns(
                    &format!("{}[{h}/{shards}]", parent.name()),
                    0,
                    cols,
                )?;
                // Replicate the parent's index catalog; the shard has the
                // same column types, so every build succeeds.
                for idx in parent.indexes() {
                    table.create_index(&idx.column, idx.index.kind())?;
                }
                let oids: Vec<Oid> = rows.iter().map(|&pos| parent.seqbase() + pos).collect();
                Ok(TableShard { table, oids })
            })
            .collect::<Result<Vec<_>, StorageError>>()?;

        Ok(Self { name: parent.name().to_owned(), key: key.to_owned(), shards: built })
    }

    /// The parent table's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The partition-key column.
    pub fn key(&self) -> &str {
        &self.key
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// All shards, in shard order.
    pub fn shards(&self) -> &[TableShard] {
        &self.shards
    }

    /// Shard `i`.
    pub fn shard(&self, i: usize) -> &TableShard {
        &self.shards[i]
    }

    /// Total rows across shards (the parent's row count).
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.table.len()).sum()
    }

    /// True when the parent had no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Per-shard row counts and the skew factor.
    pub fn stats(&self) -> ShardStats {
        let rows: Vec<usize> = self.shards.iter().map(|s| s.table.len()).collect();
        let total: usize = rows.iter().sum();
        let max = rows.iter().copied().max().unwrap_or(0);
        let skew = if total == 0 { 1.0 } else { max as f64 * rows.len() as f64 / total as f64 };
        ShardStats { rows, skew }
    }

    /// The shard with the most rows (ties to the lowest index).
    pub fn hottest(&self) -> usize {
        self.shards
            .iter()
            .enumerate()
            .max_by(|(ia, a), (ib, b)| a.table.len().cmp(&b.table.len()).then(ib.cmp(ia)))
            .map(|(i, _)| i)
            .unwrap_or(0)
    }
}

/// Gather `col` at `rows`. String columns keep the parent's dictionary and
/// gather codes at the parent width — the invariant that makes shard
/// results merge bit-identically (see the module docs).
fn gather(col: &Column, rows: &[u32]) -> Column {
    match col {
        Column::U8(v) => Column::U8(rows.iter().map(|&i| v[i as usize]).collect()),
        Column::U16(v) => Column::U16(rows.iter().map(|&i| v[i as usize]).collect()),
        Column::I32(v) => Column::I32(rows.iter().map(|&i| v[i as usize]).collect()),
        Column::I64(v) => Column::I64(rows.iter().map(|&i| v[i as usize]).collect()),
        Column::F64(v) => Column::F64(rows.iter().map(|&i| v[i as usize]).collect()),
        Column::Oid(v) => Column::Oid(rows.iter().map(|&i| v[i as usize]).collect()),
        Column::Str(sc) => Column::Str(StrColumn {
            codes: match &sc.codes {
                Codes::U8(v) => Codes::U8(rows.iter().map(|&i| v[i as usize]).collect()),
                Codes::U16(v) => Codes::U16(rows.iter().map(|&i| v[i as usize]).collect()),
            },
            dict: sc.dict.clone(),
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::{key_of_i32, key_range_i32, ColumnIndex, IndexKind};
    use crate::storage::{ColType, TableBuilder, Value};

    fn table(n: usize) -> DecomposedTable {
        let mut b = TableBuilder::new("t", 500)
            .column("k", ColType::I32)
            .column("price", ColType::F64)
            .column("mode", ColType::Str);
        for i in 0..n {
            b.push_row(&[
                Value::I32((i % 37) as i32),
                Value::F64(i as f64 * 0.5),
                Value::from(["AIR", "SHIP", "MAIL"][i % 3]),
            ])
            .unwrap();
        }
        b.finish()
    }

    #[test]
    fn partition_covers_every_row_exactly_once() {
        let t = table(1000);
        for s in [1, 2, 4, 7] {
            let st = ShardedTable::partition(&t, "k", s).unwrap();
            assert_eq!(st.shard_count(), s);
            assert_eq!(st.len(), 1000);
            let mut seen: Vec<Oid> = st.shards().iter().flat_map(|sh| sh.oids.clone()).collect();
            seen.sort_unstable();
            let expect: Vec<Oid> = (0..1000).map(|i| 500 + i as Oid).collect();
            assert_eq!(seen, expect);
            for sh in st.shards() {
                assert!(sh.oids.windows(2).all(|w| w[0] < w[1]), "oid maps ascend");
                assert_eq!(sh.table.seqbase(), 0);
                assert_eq!(sh.table.len(), sh.oids.len());
            }
        }
    }

    #[test]
    fn rows_land_on_their_hash_shard_with_values_intact() {
        let t = table(300);
        let st = ShardedTable::partition(&t, "k", 4).unwrap();
        for sh in st.shards() {
            let keys = sh.table.bat("k").unwrap().tail().as_i32().unwrap().to_vec();
            for (local, &global) in sh.oids.iter().enumerate() {
                assert_eq!(
                    shard_of(keys[local], 4),
                    st.shards().iter().position(|x| std::ptr::eq(x, sh)).unwrap()
                );
                assert_eq!(t.tuple(global).unwrap(), sh.table.tuple(local as Oid).unwrap());
            }
        }
    }

    #[test]
    fn shard_dictionaries_are_shared_with_the_parent() {
        let t = table(300);
        let parent_dict = t.bat("mode").unwrap().tail().as_str_col().unwrap().dict.clone();
        let st = ShardedTable::partition(&t, "k", 4).unwrap();
        for sh in st.shards() {
            let sc = sh.table.bat("mode").unwrap().tail().as_str_col().unwrap();
            assert_eq!(sc.dict, parent_dict, "codes must stay parent-compatible");
        }
    }

    /// `idx`'s eq matches of `v`, through `oid`, ascending.
    fn eq_hits(idx: &ColumnIndex, v: i32, oid: impl Fn(Oid) -> Oid) -> Vec<Oid> {
        let mut out = vec![];
        idx.lookup_eq(&mut NullTracker, key_of_i32(v), |o| out.push(oid(o)));
        out.sort_unstable();
        out
    }

    /// `idx`'s matches of `lo..=hi` through `oid`, ascending; `None` if it
    /// cannot range.
    fn range_hits(
        idx: &ColumnIndex,
        lo: i32,
        hi: i32,
        oid: impl Fn(Oid) -> Oid,
    ) -> Option<Vec<Oid>> {
        let (lo, hi) = key_range_i32(lo, hi);
        let mut out = vec![];
        let ranged = idx.lookup_range(&mut NullTracker, lo, hi, |o| out.push(oid(o)));
        out.sort_unstable();
        ranged.then_some(out)
    }

    #[test]
    fn indexes_and_compression_replicate_per_shard() {
        let kinds = [IndexKind::Hash, IndexKind::CsBTree, IndexKind::TTree];
        let mut t = table(4000);
        for kind in kinds {
            t.create_index("k", kind).unwrap();
        }
        let st = ShardedTable::partition(&t, "k", 3).unwrap();
        for (s, sh) in st.shards().iter().enumerate() {
            assert_eq!(sh.table.indexes().len(), kinds.len());
            // mode has 3 distinct values over thousands of rows: dictionary
            // compression survives sharding.
            assert!(sh.table.compressed_of("mode").is_some());
            // Every replica answers, in parent OIDs, what the parent's index
            // answers for this shard's rows.
            let mine = |hits: Vec<Oid>| -> Vec<Oid> {
                hits.into_iter().filter(|o| sh.oids.binary_search(o).is_ok()).collect()
            };
            let global = |local: Oid| sh.oids[local as usize];
            for kind in kinds {
                let parent = t.index_of("k", kind).unwrap();
                let replica = sh.table.index_of("k", kind).unwrap();
                assert_eq!(replica.len(), sh.table.len(), "shard {s} {}", kind.name());
                for v in [-1, 0, 1, 17, 36, 37] {
                    let expect = mine(eq_hits(parent, v, |o| o));
                    assert_eq!(
                        eq_hits(replica, v, global),
                        expect,
                        "shard {s} {} = {v}",
                        kind.name()
                    );
                }
                for (lo, hi) in [(-5, 2), (5, 20), (30, 40), (0, 36), (9, 8)] {
                    let expect = range_hits(parent, lo, hi, |o| o).map(mine);
                    let got = range_hits(replica, lo, hi, global);
                    assert_eq!(got, expect, "shard {s} {} in [{lo}, {hi}]", kind.name());
                }
            }
        }
    }

    #[test]
    fn empty_and_single_shard_edges() {
        let t = table(50);
        let st = ShardedTable::partition(&t, "k", 1).unwrap();
        assert_eq!(st.shard(0).table.len(), 50);
        assert_eq!(st.stats().skew, 1.0);

        // A constant key puts every row in one shard; the rest are empty.
        let mut b = TableBuilder::new("c", 0).column("k", ColType::I32);
        for _ in 0..20 {
            b.push_row(&[Value::I32(7)]).unwrap();
        }
        let c = b.finish();
        let st = ShardedTable::partition(&c, "k", 4).unwrap();
        let stats = st.stats();
        assert_eq!(stats.rows.iter().sum::<usize>(), 20);
        assert_eq!(stats.rows.iter().filter(|&&r| r == 0).count(), 3);
        assert_eq!(stats.skew, 4.0);
        assert_eq!(st.shard(st.hottest()).table.len(), 20);

        // An empty parent shards into S empty shards.
        let e = TableBuilder::new("e", 0).column("k", ColType::I32).finish();
        let st = ShardedTable::partition(&e, "k", 4).unwrap();
        assert!(st.is_empty());
        assert_eq!(st.shard_count(), 4);
    }

    #[test]
    fn non_i32_keys_are_rejected() {
        let t = table(10);
        assert!(matches!(
            ShardedTable::partition(&t, "price", 2),
            Err(StorageError::TypeMismatch { .. })
        ));
        assert!(matches!(
            ShardedTable::partition(&t, "ghost", 2),
            Err(StorageError::NoSuchColumn(_))
        ));
    }
}
