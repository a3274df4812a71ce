//! A deliberately naive oracle for `engine::execute`: a row-at-a-time
//! evaluator of a `LogicalPlan` over the row-store copy of its tables
//! (`DecomposedTable::to_nsm`). It shares no kernel with the executor — no
//! candidate lists, indexes, compression, blocks or threads: filters test one
//! record at a time, the join emits `(l, r)` ascending — a nested loop's
//! order, with each left key looked up among the right records' instead of
//! compared against every one — and every `f64` sum is [`exact_sum`]: its
//! terms added exactly into a big integer of its own and the total rounded
//! once, half to even, which is the correctly rounded sum the executor
//! promises at every plan, thread count and shard count.

use std::collections::BTreeMap;

use monet_mem::core::join::OidPair;
use monet_mem::core::storage::nsm::RowTable;
use monet_mem::core::storage::{DecomposedTable, Value};
use monet_mem::engine::exec::{AggValue, GroupRow, QueryOutput};
use monet_mem::engine::plan::{Agg, LogicalPlan, PlanNode, Pred};

/// A base table and its records.
struct Rel<'a> {
    table: &'a DecomposedTable,
    records: RowTable,
}

impl<'a> Rel<'a> {
    fn of(table: &'a DecomposedTable) -> Self {
        Rel { table, records: table.to_nsm() }
    }

    fn has(&self, col: &str) -> bool {
        self.records.schema().field_index(col).is_some()
    }

    /// Field `col` of record `row` (string columns hold their code).
    fn field(&self, row: usize, col: &str) -> Value {
        let field = self.records.schema().field_index(col).expect("validated column");
        self.records.get(row, field).expect("row in range")
    }

    fn code_of(&self, col: &str, value: &str) -> Option<i64> {
        let dict = &self.table.bat(col).ok()?.tail().as_str_col()?.dict;
        dict.code_of(value).map(i64::from)
    }

    fn holds(&self, row: usize, pred: &Pred) -> bool {
        match pred {
            Pred::RangeI32 { col, lo, hi } => {
                let v = self.field(row, col).as_i32().expect("I32 column");
                *lo <= v && v <= *hi
            }
            Pred::RangeF64 { col, lo, hi } => match self.field(row, col) {
                Value::F64(v) => *lo <= v && v <= *hi,
                other => panic!("F64 column, got {other:?}"),
            },
            Pred::EqStr { col, value } => self.field(row, col).as_i64() == self.code_of(col, value),
            Pred::And(a, b) => self.holds(row, a) && self.holds(row, b),
            Pred::Or(a, b) => self.holds(row, a) || self.holds(row, b),
        }
    }
}

/// Surviving rows, as record numbers, in stream order.
enum Stream<'a> {
    Table(Rel<'a>, Vec<usize>),
    Joined(Rel<'a>, Rel<'a>, Vec<(usize, usize)>),
}

impl<'a> Stream<'a> {
    fn len(&self) -> usize {
        match self {
            Stream::Table(_, rows) => rows.len(),
            Stream::Joined(_, _, pairs) => pairs.len(),
        }
    }

    /// The table that owns `col` (left side first, as the builder resolves
    /// names) and its record number at every surviving row.
    fn owner(&self, col: &str) -> (&Rel<'a>, Vec<usize>) {
        match self {
            Stream::Table(rel, rows) => (rel, rows.clone()),
            Stream::Joined(l, _, pairs) if l.has(col) => (l, pairs.iter().map(|p| p.0).collect()),
            Stream::Joined(_, r, pairs) => (r, pairs.iter().map(|p| p.1).collect()),
        }
    }

    /// Column `col` at every surviving row.
    fn column(&self, col: &str) -> Vec<Value> {
        let (rel, rows) = self.owner(col);
        rows.iter().map(|&r| rel.field(r, col)).collect()
    }

    fn is_f64(&self, col: &str) -> bool {
        self.owner(col).0.table.bat(col).expect("validated column").tail().as_f64().is_some()
    }

    /// Decode a group code of key column `col`.
    fn decode(&self, col: &str, code: u32) -> String {
        match self.owner(col).0.table.bat(col).expect("validated column").tail().as_str_col() {
            Some(sc) => sc.dict.decode(code).to_owned(),
            None => code.to_string(),
        }
    }
}

fn stream<'a>(node: &PlanNode<'a>) -> Stream<'a> {
    match node {
        PlanNode::Scan { table } => Stream::Table(Rel::of(table), (0..table.len()).collect()),
        PlanNode::Filter { input, pred } => match stream(input) {
            Stream::Table(rel, rows) => {
                let kept = rows.into_iter().filter(|&r| rel.holds(r, pred)).collect();
                Stream::Table(rel, kept)
            }
            Stream::Joined(..) => panic!("filter over a join result"),
        },
        PlanNode::Join { input, right, left_col, right_col } => {
            let (Stream::Table(l, lrows), Stream::Table(r, rrows)) = (stream(input), stream(right))
            else {
                panic!("nested joins")
            };
            let key = |rel: &Rel, row: usize, col: &str| {
                rel.field(row, col).as_i64().expect("integer join key")
            };
            let mut right_rows: BTreeMap<i64, Vec<usize>> = BTreeMap::new();
            for &rr in &rrows {
                right_rows.entry(key(&r, rr, right_col)).or_default().push(rr);
            }
            let mut pairs = Vec::new();
            for &lr in &lrows {
                for &rr in right_rows.get(&key(&l, lr, left_col)).into_iter().flatten() {
                    pairs.push((lr, rr));
                }
            }
            Stream::Joined(l, r, pairs)
        }
        PlanNode::GroupAgg { .. } => panic!("aggregation below another operator"),
    }
}

/// One aggregate over the values `vals` of its column at a group's rows
/// (`exact`: an integer column summed outside any group, which stays `i64`).
fn aggregate(agg: &Agg, exact: bool, vals: &[&Value], rows: usize) -> AggValue {
    let ints = || vals.iter().map(|v| v.as_i32().expect("I32 column"));
    match agg {
        Agg::Count => AggValue::Count(rows),
        Agg::Min(_) => AggValue::MaybeI32(ints().min()),
        Agg::Max(_) => AggValue::MaybeI32(ints().max()),
        Agg::Sum(_) if exact => AggValue::I64(ints().map(i64::from).sum()),
        Agg::Sum(_) => AggValue::F64(exact_sum(vals.iter().map(|v| match v {
            Value::F64(x) => *x,
            other => f64::from(other.as_i32().expect("numeric column")),
        }))),
    }
}

/// Evaluate `plan` one record at a time.
pub fn evaluate(plan: &LogicalPlan<'_>) -> QueryOutput {
    let PlanNode::GroupAgg { input, key, aggs } = &plan.root else {
        return match stream(&plan.root) {
            Stream::Table(rel, rows) => {
                QueryOutput::Oids(rows.iter().map(|&r| rel.table.seqbase() + r as u32).collect())
            }
            Stream::Joined(l, r, pairs) => QueryOutput::JoinIndex(
                pairs
                    .iter()
                    .map(|&(lr, rr)| {
                        OidPair::new(l.table.seqbase() + lr as u32, r.table.seqbase() + rr as u32)
                    })
                    .collect(),
            ),
        };
    };
    let s = stream(input);
    let cols: Vec<Vec<Value>> =
        aggs.iter().map(|a| a.column().map_or(Vec::new(), |c| s.column(c))).collect();
    // Integers sum in `i64` when ungrouped and in `f64` when grouped.
    let exact = |agg: &Agg| key.is_none() && agg.column().is_some_and(|c| !s.is_f64(c));
    // The stream positions of a group's rows, in stream order.
    let values = |members: &[usize]| -> Vec<AggValue> {
        aggs.iter()
            .zip(&cols)
            .map(|(agg, col)| {
                let vals: Vec<&Value> = members.iter().filter_map(|&i| col.get(i)).collect();
                aggregate(agg, exact(agg), &vals, members.len())
            })
            .collect()
    };
    let Some(key) = key else {
        return QueryOutput::Aggregates(values(&(0..s.len()).collect::<Vec<_>>()));
    };
    let mut groups: BTreeMap<u32, Vec<usize>> = BTreeMap::new();
    for (i, code) in s.column(key).iter().enumerate() {
        groups.entry(code.as_i64().expect("key code") as u32).or_default().push(i);
    }
    QueryOutput::Groups(
        groups
            .iter()
            .map(|(&code, members)| GroupRow { key: s.decode(key, code), values: values(members) })
            .collect(),
    )
}

/// A natural number in 64-bit words, least significant first.
#[derive(Default, Clone, PartialEq, Eq)]
struct Nat(Vec<u64>);

impl Nat {
    /// Add `m * 2^shift`.
    fn add_shifted(&mut self, m: u64, shift: usize) {
        let (word, bit) = (shift / 64, shift % 64);
        let wide = u128::from(m) << bit;
        if self.0.len() < word + 3 {
            self.0.resize(word + 3, 0);
        }
        let mut carry = 0u128;
        for (i, part) in [wide as u64, (wide >> 64) as u64].into_iter().enumerate() {
            let t = u128::from(self.0[word + i]) + u128::from(part) + carry;
            self.0[word + i] = t as u64;
            carry = t >> 64;
        }
        let mut i = word + 2;
        while carry != 0 {
            if i == self.0.len() {
                self.0.push(0);
            }
            let t = u128::from(self.0[i]) + carry;
            self.0[i] = t as u64;
            carry = t >> 64;
            i += 1;
        }
    }

    fn bit(&self, i: usize) -> bool {
        self.0.get(i / 64).is_some_and(|w| w >> (i % 64) & 1 == 1)
    }

    /// The position of the highest set bit.
    fn top(&self) -> Option<usize> {
        let i = self.0.iter().rposition(|&w| w != 0)?;
        Some(64 * i + 63 - self.0[i].leading_zeros() as usize)
    }

    /// `self - other`, for `self >= other`.
    fn minus(&self, other: &Nat) -> Nat {
        let mut out = Vec::with_capacity(self.0.len());
        let mut borrow = false;
        for (i, &a) in self.0.iter().enumerate() {
            let b = other.0.get(i).copied().unwrap_or(0);
            let (d, o1) = a.overflowing_sub(b);
            let (d, o2) = d.overflowing_sub(u64::from(borrow));
            out.push(d);
            borrow = o1 || o2;
        }
        assert!(!borrow, "minus needs self >= other");
        Nat(out)
    }

    fn at_least(&self, other: &Nat) -> bool {
        let words = self.0.len().max(other.0.len());
        for i in (0..words).rev() {
            let (a, b) =
                (self.0.get(i).copied().unwrap_or(0), other.0.get(i).copied().unwrap_or(0));
            if a != b {
                return a > b;
            }
        }
        true
    }
}

/// The correctly rounded sum of `vals`: each finite term is added exactly,
/// as a whole number of 2^-1074 units, into a positive or a negative big
/// natural number; their difference is rounded to 53 significant bits once,
/// half to even. NaN when a term is NaN or both infinities occur, the
/// infinity when one does, and +0.0 for a zero sum.
pub fn exact_sum(vals: impl IntoIterator<Item = f64>) -> f64 {
    let (mut pos, mut neg) = (Nat::default(), Nat::default());
    let (mut nan, mut pos_inf, mut neg_inf) = (false, false, false);
    for v in vals {
        if v.is_nan() {
            nan = true;
        } else if v.is_infinite() {
            *if v > 0.0 { &mut pos_inf } else { &mut neg_inf } = true;
        } else {
            let bits = v.to_bits();
            let biased = ((bits >> 52) & 0x7ff) as usize;
            let frac = bits & ((1 << 52) - 1);
            // A subnormal is `frac` units; a normal has the implicit bit and
            // sits `biased - 1` places up.
            let (m, shift) = if biased == 0 { (frac, 0) } else { (frac | 1 << 52, biased - 1) };
            if v.is_sign_negative() { &mut neg } else { &mut pos }.add_shifted(m, shift);
        }
    }
    if nan || (pos_inf && neg_inf) {
        return f64::NAN;
    }
    if pos_inf || neg_inf {
        return if pos_inf { f64::INFINITY } else { f64::NEG_INFINITY };
    }
    let (mag, negative) =
        if pos.at_least(&neg) { (pos.minus(&neg), false) } else { (neg.minus(&pos), true) };
    let Some(top) = mag.top() else { return 0.0 };
    // Keep the 53 bits from the top (all of them when fewer), then look at
    // the first dropped bit and whether anything below it is set.
    let low = top.saturating_sub(52);
    let mut m: u64 = 0;
    for i in (low..=top).rev() {
        m = m << 1 | u64::from(mag.bit(i));
    }
    let mut exp = low as i32 - 1074;
    if low > 0 {
        let guard = mag.bit(low - 1);
        let sticky = (0..low - 1).any(|i| mag.bit(i));
        if guard && (sticky || m & 1 == 1) {
            m += 1;
            if m == 1 << 53 {
                m >>= 1;
                exp += 1;
            }
        }
    }
    // `m` has at most 53 bits and `exp` >= -1074: the scalings are exact
    // unless the result overflows, which they then round to infinity.
    let first = exp.clamp(-1000, 1000);
    let magnitude = m as f64 * 2f64.powi(first) * 2f64.powi(exp - first);
    if negative {
        -magnitude
    } else {
        magnitude
    }
}
