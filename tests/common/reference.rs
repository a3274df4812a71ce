//! A deliberately naive oracle for `engine::execute`: a row-at-a-time
//! evaluator of a `LogicalPlan` over the row-store copy of its tables
//! (`DecomposedTable::to_nsm`). It shares no kernel with the executor — no
//! candidate lists, indexes, compression, blocks or threads: filters test one
//! record at a time, the join is a nested loop emitting `(l, r)` ascending,
//! and every `f64` sum is added in that stream order, which is the order the
//! executor's bit-identity contract promises.

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
            let mut pairs = Vec::new();
            for &lr in &lrows {
                for &rr in &rrows {
                    if l.field(lr, left_col) == r.field(rr, right_col) {
                        pairs.push((lr, rr));
                    }
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
        Agg::Sum(_) => {
            let mut sum = 0.0f64;
            for v in vals {
                sum += match v {
                    Value::F64(x) => *x,
                    other => other.as_i32().expect("numeric column") as f64,
                };
            }
            AggValue::F64(sum)
        }
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
