//! The Figure 4 "Item" table — a lineitem-like relation whose NSM tuple
//! occupies ≥ 80 bytes on a relational system, used by the paper to motivate
//! vertical decomposition and byte encodings.
//!
//! The table is loaded the way it is stored. One generator draws each row's
//! values in row-major order and appends them to thirteen typed vectors. The
//! three strings come from closed domains (3 statuses, 7 shipmodes, 4096
//! comments), so each is kept as a 2-byte dictionary code and no string is
//! allocated per row. [`item_table`] hands the vectors to
//! [`DecomposedTable::from_columns`]; [`item_rows`] decodes the same vectors
//! for callers that want rows.

use monet_core::storage::{Codes, Column, DecomposedTable, StrColumn, StrDict};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// The shipmode domain of Figure 4 (low cardinality ⇒ 1-byte encoding).
pub const SHIPMODES: [&str; 7] = ["AIR", "MAIL", "SHIP", "TRUCK", "RAIL", "REG AIR", "FOB"];

const STATUS: [&str; 3] = ["N", "O", "F"];

/// One logical Item row (before decomposition).
#[derive(Debug, Clone, PartialEq)]
pub struct ItemRow {
    /// Order key.
    pub order: i32,
    /// Load batch: rows arrive in batches of 64, so the column is sorted
    /// with long constant runs — the run-length-encoding target among the
    /// Item columns (`order`'s run-4 clustering packs tighter as FOR).
    pub batch: i32,
    /// Supplier key.
    pub supp: i32,
    /// Part key.
    pub part: i32,
    /// Quantity.
    pub qty: i32,
    /// Discount fraction (0.00 / 0.10 in Fig. 4's sample).
    pub discnt: f64,
    /// Tax fraction.
    pub tax: f64,
    /// Extended price.
    pub price: f64,
    /// Line status flag.
    pub status: String,
    /// Ship mode (from [`SHIPMODES`]).
    pub shipmode: String,
    /// Ship date (days since epoch).
    pub date1: i32,
    /// Receipt date.
    pub date2: i32,
    /// Free-text comment (`char(27)` in the figure).
    pub comment: String,
}

/// Generate `n` pseudo-random Item rows (deterministic per seed).
pub fn item_rows(n: usize, seed: u64) -> Vec<ItemRow> {
    item_columns(n, seed).rows()
}

/// Build the vertically decomposed Item table of `n` rows (Fig. 4's right
/// side: one void-headed BAT per column, strings byte-encoded).
pub fn item_table(n: usize, seed: u64) -> DecomposedTable {
    item_columns(n, seed).table()
}

/// [`item_rows`] with the `supp` column re-drawn from a Zipf distribution
/// of exponent `skew` over the same `1..=1_000` supplier domain (`skew = 0`
/// is uniform, `skew ≈ 1` classic Zipf). Joins against a supplier table
/// keyed `1..=1_000` keep hit-rate one; hash-sharding the table on `supp`
/// concentrates the hot supplier's rows — and the queries that touch them —
/// on one shard, the workload the replicated shard placer is built for.
pub fn item_rows_skewed(n: usize, seed: u64, skew: f64) -> Vec<ItemRow> {
    item_columns_skewed(n, seed, skew).rows()
}

/// [`item_table`] with the `supp` column of [`item_rows_skewed`]: the
/// shard-skew knob of the sharded-execution experiments.
pub fn item_table_skewed(n: usize, seed: u64, skew: f64) -> DecomposedTable {
    item_columns_skewed(n, seed, skew).table()
}

/// The Item relation as drawn: one typed vector per attribute, the three
/// strings as first-occurrence codes of their closed domains.
struct ItemColumns {
    order: Vec<i32>,
    batch: Vec<i32>,
    supp: Vec<i32>,
    part: Vec<i32>,
    qty: Vec<i32>,
    discnt: Vec<f64>,
    tax: Vec<f64>,
    price: Vec<f64>,
    status: DomainCoder,
    shipmode: DomainCoder,
    date1: Vec<i32>,
    date2: Vec<i32>,
    comment: DomainCoder,
}

/// Comments are `note {k} priority {p}` for `k < 512`, `p < 8`: a closed
/// domain of 4096 phrases, indexed `k * 8 + p`.
const COMMENT_NOTES: usize = 512;
const COMMENT_PRIORITIES: usize = 8;

fn comment_text(d: usize) -> String {
    format!("note {} priority {}", d / COMMENT_PRIORITIES, d % COMMENT_PRIORITIES)
}

/// The one generator. Each seed's data is defined by the order of its draws
/// (row by row, field by field), so the loop keeps that order and appends
/// each value to its column.
fn item_columns(n: usize, seed: u64) -> ItemColumns {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut c = ItemColumns {
        order: Vec::with_capacity(n),
        batch: Vec::with_capacity(n),
        supp: Vec::with_capacity(n),
        part: Vec::with_capacity(n),
        qty: Vec::with_capacity(n),
        discnt: Vec::with_capacity(n),
        tax: Vec::with_capacity(n),
        price: Vec::with_capacity(n),
        status: DomainCoder::new(STATUS.len(), n),
        shipmode: DomainCoder::new(SHIPMODES.len(), n),
        date1: Vec::with_capacity(n),
        date2: Vec::with_capacity(n),
        comment: DomainCoder::new(COMMENT_NOTES * COMMENT_PRIORITIES, n),
    };
    for i in 0..n {
        let qty = rng.random_range(1..=50);
        let price = f64::from(rng.random_range(100..=10_000)) / 100.0 * qty as f64;
        c.order.push((i / 4) as i32 + 1);
        c.batch.push((i / 64) as i32 + 1);
        c.supp.push(rng.random_range(1..=1_000));
        c.part.push(rng.random_range(1..=20_000));
        c.qty.push(qty);
        c.discnt.push(f64::from(rng.random_range(0..=10)) / 100.0);
        c.tax.push(f64::from(rng.random_range(0..=8)) / 100.0);
        c.price.push(price);
        c.status.push(rng.random_range(0..STATUS.len()));
        c.shipmode.push(rng.random_range(0..SHIPMODES.len()));
        c.date1.push(rng.random_range(9_000..11_000));
        c.date2.push(rng.random_range(11_000..12_000));
        // Bounded phrase pool: comments stay dictionary-encodable
        // (≤ 4096 distinct values ⇒ u16 codes), like TPC-H's templated
        // comment text.
        let note = rng.random_range(0..COMMENT_NOTES);
        c.comment.push(note * COMMENT_PRIORITIES + i % COMMENT_PRIORITIES);
    }
    c
}

/// [`item_columns`] with `supp` overwritten by the Zipf draws of
/// [`item_rows_skewed`].
fn item_columns_skewed(n: usize, seed: u64, skew: f64) -> ItemColumns {
    let mut c = item_columns(n, seed);
    if skew > 0.0 {
        let mut zipf = crate::zipf::ZipfGenerator::new(1_000, skew, seed ^ 0x5ca1e);
        // Shuffled rank→supplier map: the hot supplier is not simply id 1.
        let mut dict: Vec<i32> = (1..=1_000).collect();
        crate::gen::shuffle(&mut dict, seed ^ 0xd1c7);
        for s in c.supp.iter_mut() {
            *s = dict[zipf.sample()];
        }
    }
    c
}

impl ItemColumns {
    fn table(self) -> DecomposedTable {
        let cols = vec![
            ("order", Column::I32(self.order)),
            ("batch", Column::I32(self.batch)),
            ("supp", Column::I32(self.supp)),
            ("part", Column::I32(self.part)),
            ("qty", Column::I32(self.qty)),
            ("discnt", Column::F64(self.discnt)),
            ("tax", Column::F64(self.tax)),
            ("price", Column::F64(self.price)),
            ("status", Column::Str(self.status.finish(|d| STATUS[d].to_owned()))),
            ("shipmode", Column::Str(self.shipmode.finish(|d| SHIPMODES[d].to_owned()))),
            ("date1", Column::I32(self.date1)),
            ("date2", Column::I32(self.date2)),
            ("comment", Column::Str(self.comment.finish(comment_text))),
        ];
        let cols = cols.into_iter().map(|(name, col)| (name.to_owned(), col)).collect();
        DecomposedTable::from_columns("Item", 1000, cols).expect("every Item column holds n values")
    }

    fn rows(&self) -> Vec<ItemRow> {
        (0..self.order.len())
            .map(|i| ItemRow {
                order: self.order[i],
                batch: self.batch[i],
                supp: self.supp[i],
                part: self.part[i],
                qty: self.qty[i],
                discnt: self.discnt[i],
                tax: self.tax[i],
                price: self.price[i],
                status: STATUS[self.status.value(i)].to_owned(),
                shipmode: SHIPMODES[self.shipmode.value(i)].to_owned(),
                date1: self.date1[i],
                date2: self.date2[i],
                comment: comment_text(self.comment.value(i)),
            })
            .collect()
    }
}

/// Dictionary-encodes draws from a closed string domain without touching a
/// string per row: a value's code is the order of its first occurrence —
/// the code [`StrDict::intern`] would hand out — kept
/// in a table indexed by the value's position in the domain.
struct DomainCoder {
    /// Domain index → code, `u16::MAX` until first seen.
    code_of: Vec<u16>,
    /// Code → domain index.
    first_seen: Vec<usize>,
    codes: Vec<u16>,
}

impl DomainCoder {
    fn new(domain: usize, rows: usize) -> Self {
        assert!(domain < u16::MAX as usize, "codes of a {domain}-value domain fit u16");
        Self {
            code_of: vec![u16::MAX; domain],
            first_seen: Vec::new(),
            codes: Vec::with_capacity(rows),
        }
    }

    fn push(&mut self, d: usize) {
        if self.code_of[d] == u16::MAX {
            self.code_of[d] = self.first_seen.len() as u16;
            self.first_seen.push(d);
        }
        self.codes.push(self.code_of[d]);
    }

    /// Domain index of row `i`.
    fn value(&self, i: usize) -> usize {
        self.first_seen[self.codes[i] as usize]
    }

    /// The column, with the dictionary spelled out by `text` in code order.
    fn finish(self, text: impl Fn(usize) -> String) -> StrColumn {
        let mut dict = StrDict::new();
        for &d in &self.first_seen {
            dict.intern(&text(d));
        }
        StrColumn { codes: Codes::U16(self.codes), dict }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_and_sized() {
        let a = item_rows(100, 1);
        let b = item_rows(100, 1);
        assert_eq!(a, b);
        assert_eq!(a.len(), 100);
    }

    #[test]
    fn table_decomposes_with_byte_encoded_shipmode() {
        let t = item_table(500, 2);
        assert_eq!(t.len(), 500);
        let ship = t.bat("shipmode").unwrap();
        assert_eq!(ship.bun_width(), 1, "Fig. 4: shipmode stored in 1 byte per tuple");
        let status = t.bat("status").unwrap();
        assert_eq!(status.bun_width(), 1);
        // All seven shipmodes appear in a 500-row sample.
        let sc = ship.tail().as_str_col().unwrap();
        assert_eq!(sc.dict.len(), SHIPMODES.len());
    }

    #[test]
    fn dsm_tuple_far_narrower_than_relational_claim() {
        // Paper: relational tuple ≥ 80 bytes; decomposed (excluding the
        // comment's dictionary heap) a scan touches 4- or 1-byte columns.
        let t = item_table(50, 3);
        let per_tuple = t.bytes_per_tuple();
        assert!(per_tuple < 60, "sum of BUN widths {per_tuple}");
        assert_eq!(t.bat("qty").unwrap().bun_width(), 4);
    }

    #[test]
    fn batch_column_is_clustered_and_run_length_encodes() {
        let t = item_table(1_000, 5);
        let tail = t.bat("batch").unwrap().tail();
        let vals = match tail {
            monet_core::storage::Column::I32(v) => v,
            other => panic!("batch is I32, got {other:?}"),
        };
        assert!(vals.windows(2).all(|w| w[0] <= w[1]), "batches are appended in order");
        assert_eq!(vals[0], 1);
        assert_eq!(vals[999], 16, "1000 rows land in 16 batches of 64");
        let cc = t.compressed_of("batch").expect("a sorted run-64 column compresses");
        assert_eq!(cc.encoding(), monet_core::compress::Encoding::Rle);
        assert!(cc.bits_per_value() < 4.0, "runs of 64 store ~1.5 bits/value");
    }

    #[test]
    fn skewed_supp_concentrates_one_shard() {
        let t = item_table_skewed(4_000, 9, 1.0);
        let sharded = monet_core::shard::ShardedTable::partition(&t, "supp", 4).unwrap();
        let skewed = sharded.stats();
        assert!(skewed.skew > 1.3, "Zipf supp must produce a hot shard (skew {})", skewed.skew);
        let u = item_table_skewed(4_000, 9, 0.0);
        let us = monet_core::shard::ShardedTable::partition(&u, "supp", 4).unwrap();
        assert!(us.stats().skew < skewed.skew, "skew knob off must be flatter");
        // The supplier domain is unchanged, so hit-rate-1 joins still hold.
        assert!(item_rows_skewed(200, 1, 1.0).iter().all(|r| (1..=1_000).contains(&r.supp)));
        // skew = 0 is exactly the uniform table.
        assert_eq!(item_rows_skewed(50, 2, 0.0), item_rows(50, 2));
    }

    #[test]
    fn shipmode_predicate_remaps_to_byte() {
        let t = item_table(200, 4);
        let sc = t.bat("shipmode").unwrap().tail().as_str_col().unwrap();
        let code = sc.dict.code_of("MAIL").expect("MAIL occurs");
        assert!(code < SHIPMODES.len() as u32);
    }
}
