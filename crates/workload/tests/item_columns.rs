//! The Item table is generated column-at-a-time. These tests hold it to the
//! row path it replaced — `item_rows` pushed through
//! `TableBuilder::push_row` one row at a time — column for column, and pin
//! the generator's draws to fingerprints of its output.

use monet_core::storage::{ColType, DecomposedTable, Oid, TableBuilder, Value};
use workload::{item_rows, item_rows_skewed, item_table, item_table_skewed, ItemRow};

/// Rows per run of the largest size: the benchmark's 2 M under `--release`,
/// a tenth of it in debug builds.
const LARGE: usize = if cfg!(debug_assertions) { 200_000 } else { 2_000_000 };

fn values(r: ItemRow) -> Vec<Value> {
    vec![
        Value::I32(r.order),
        Value::I32(r.batch),
        Value::I32(r.supp),
        Value::I32(r.part),
        Value::I32(r.qty),
        Value::F64(r.discnt),
        Value::F64(r.tax),
        Value::F64(r.price),
        Value::Str(r.status),
        Value::Str(r.shipmode),
        Value::I32(r.date1),
        Value::I32(r.date2),
        Value::Str(r.comment),
    ]
}

/// The oracle: the Item table built a row at a time.
fn row_path(rows: Vec<ItemRow>) -> DecomposedTable {
    let mut b = TableBuilder::new("Item", 1000);
    for (name, ty) in [
        ("order", ColType::I32),
        ("batch", ColType::I32),
        ("supp", ColType::I32),
        ("part", ColType::I32),
        ("qty", ColType::I32),
        ("discnt", ColType::F64),
        ("tax", ColType::F64),
        ("price", ColType::F64),
        ("status", ColType::Str),
        ("shipmode", ColType::Str),
        ("date1", ColType::I32),
        ("date2", ColType::I32),
        ("comment", ColType::Str),
    ] {
        b = b.column(name, ty);
    }
    for r in rows {
        b.push_row(&values(r)).expect("schema matches row construction");
    }
    b.finish()
}

fn assert_same(got: &DecomposedTable, want: &DecomposedTable, what: &str) {
    assert_eq!((got.name(), got.seqbase(), got.len()), (want.name(), want.seqbase(), want.len()));
    assert_eq!(got.columns().len(), want.columns().len(), "{what}");
    for (g, w) in got.columns().iter().zip(want.columns()) {
        assert_eq!(g.name, w.name, "{what}");
        let col = format!("{what}, column {}", w.name);
        // Head, tail and props; a string tail compares its codes (width
        // included) and its dictionary in code order.
        assert_eq!(g.bat, w.bat, "{col}");
        assert_eq!(got.compressed_of(&w.name), want.compressed_of(&w.name), "{col}");
    }
}

#[test]
fn column_generator_reproduces_the_row_path() {
    for (n, seed) in [(0, 1), (200, 2), (20_000, 3), (LARGE, 42)] {
        let what = format!("item_table({n}, {seed})");
        let got = item_table(n, seed);
        assert_same(&got, &row_path(item_rows(n, seed)), &what);
        if n == 200 {
            // Fewer than 256 comments occur: the dictionary narrows to u8.
            assert_eq!(got.bat("comment").unwrap().bun_width(), 1);
        }
        drop(got);
        let what = format!("item_table_skewed({n}, {seed}, 1.0)");
        assert_same(
            &item_table_skewed(n, seed, 1.0),
            &row_path(item_rows_skewed(n, seed, 1.0)),
            &what,
        );
    }
}

#[test]
fn rows_are_the_table_tuples() {
    let (n, seed) = (20_000, 11);
    let t = item_table(n, seed);
    for (i, r) in item_rows(n, seed).into_iter().enumerate() {
        assert_eq!(t.tuple(1000 + i as Oid).unwrap(), values(r), "row {i}");
    }
    assert!(t.tuple(1000 + n as Oid).is_none());
}

/// FNV-1a over every field of every row.
fn fingerprint(rows: &[ItemRow]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    };
    for r in rows {
        for v in [r.order, r.batch, r.supp, r.part, r.qty, r.date1, r.date2] {
            eat(&v.to_le_bytes());
        }
        for v in [r.discnt, r.tax, r.price] {
            eat(&v.to_bits().to_le_bytes());
        }
        for s in [&r.status, &r.shipmode, &r.comment] {
            eat(s.as_bytes());
            eat(&[0]);
        }
    }
    h
}

#[test]
fn draws_match_the_recorded_fingerprints() {
    // Recorded from the row-at-a-time generator this one replaced.
    assert_eq!(fingerprint(&item_rows(5_000, 42)), 0xb841_76b5_6082_5211);
    assert_eq!(fingerprint(&item_rows_skewed(5_000, 42, 1.0)), 0x625e_b188_3bec_4cf7);
}
