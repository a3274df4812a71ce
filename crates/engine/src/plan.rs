//! The logical query layer: a composable plan builder over decomposed
//! tables.
//!
//! [`Query`] is the fluent entry point —
//!
//! ```
//! use engine::plan::{Agg, Pred, Query};
//! use monet_core::storage::{ColType, TableBuilder, Value};
//!
//! let mut b = TableBuilder::new("item", 0)
//!     .column("shipmode", ColType::Str)
//!     .column("price", ColType::F64);
//! b.push_row(&[Value::from("AIR"), Value::F64(10.0)]).unwrap();
//! let item = b.finish();
//!
//! let plan = Query::scan(&item)
//!     .filter(Pred::range_f64("price", 5.0, 50.0))
//!     .group_by("shipmode")
//!     .agg(Agg::sum("price"))
//!     .build()
//!     .unwrap();
//! println!("{}", plan.explain());
//! ```
//!
//! — producing a validated [`LogicalPlan`] tree. The builder checks column
//! existence and types once, at [`Query::build`]; the physical layer
//! ([`crate::exec`]) then lowers the tree onto the operator kernels and asks
//! the paper's cost model which join algorithm and radix-bit budget to use.
//! Call sites never hard-wire a physical strategy.

use std::fmt;

use monet_core::storage::{DecomposedTable, ValueType};

/// A typed selection predicate over one table's columns.
///
/// Leaves map 1:1 onto the scan-select kernel [`monet_core::scan::select`];
/// [`Pred::And`]/[`Pred::Or`] compose candidate OID lists with the
/// combinators of [`crate::candidates`], exactly as Monet evaluates
/// multi-predicate selections (each scan keeps its optimal stride locality).
#[derive(Debug, Clone, PartialEq)]
pub enum Pred {
    /// `lo <= col <= hi` over an `I32` column.
    RangeI32 {
        /// Column name.
        col: String,
        /// Inclusive lower bound.
        lo: i32,
        /// Inclusive upper bound.
        hi: i32,
    },
    /// `lo <= col <= hi` over an `F64` column.
    RangeF64 {
        /// Column name.
        col: String,
        /// Inclusive lower bound.
        lo: f64,
        /// Inclusive upper bound.
        hi: f64,
    },
    /// `col = value` over a dictionary-encoded string column (the §3.1 fast
    /// path: the constant re-maps to a code once, the scan compares bytes).
    EqStr {
        /// Column name.
        col: String,
        /// String constant.
        value: String,
    },
    /// Both sub-predicates hold (candidate-list intersection).
    And(Box<Pred>, Box<Pred>),
    /// Either sub-predicate holds (candidate-list union).
    Or(Box<Pred>, Box<Pred>),
}

impl Pred {
    /// `lo <= col <= hi` over an `I32` column.
    pub fn range_i32(col: &str, lo: i32, hi: i32) -> Self {
        Pred::RangeI32 { col: col.to_owned(), lo, hi }
    }

    /// `lo <= col <= hi` over an `F64` column.
    pub fn range_f64(col: &str, lo: f64, hi: f64) -> Self {
        Pred::RangeF64 { col: col.to_owned(), lo, hi }
    }

    /// `col = value` over an encoded string column.
    pub fn eq_str(col: &str, value: &str) -> Self {
        Pred::EqStr { col: col.to_owned(), value: value.to_owned() }
    }

    /// Conjunction.
    pub fn and(self, other: Pred) -> Self {
        Pred::And(Box::new(self), Box::new(other))
    }

    /// Disjunction.
    pub fn or(self, other: Pred) -> Self {
        Pred::Or(Box::new(self), Box::new(other))
    }

    fn validate(&self, table: &DecomposedTable) -> Result<(), PlanError> {
        match self {
            Pred::RangeI32 { col, .. } => expect_type(table, col, &[ValueType::I32], "I32"),
            Pred::RangeF64 { col, .. } => expect_type(table, col, &[ValueType::F64], "F64"),
            Pred::EqStr { col, .. } => expect_type(table, col, &[ValueType::Str], "Str"),
            Pred::And(a, b) | Pred::Or(a, b) => {
                a.validate(table)?;
                b.validate(table)
            }
        }
    }
}

impl fmt::Display for Pred {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Pred::RangeI32 { col, lo, hi } => write!(f, "{lo} <= {col} <= {hi}"),
            Pred::RangeF64 { col, lo, hi } => write!(f, "{lo} <= {col} <= {hi}"),
            Pred::EqStr { col, value } => write!(f, "{col} = {value:?}"),
            Pred::And(a, b) => write!(f, "({a}) AND ({b})"),
            Pred::Or(a, b) => write!(f, "({a}) OR ({b})"),
        }
    }
}

/// An aggregate function over one column (or over rows, for `Count`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Agg {
    /// `SUM(col)` — `F64` or `I32` column (integers sum in `i64` when
    /// ungrouped and in `f64` when grouped).
    Sum(String),
    /// `MIN(col)` — `I32` column.
    Min(String),
    /// `MAX(col)` — `I32` column.
    Max(String),
    /// `COUNT(*)`.
    Count,
}

impl Agg {
    /// `SUM(col)`.
    pub fn sum(col: &str) -> Self {
        Agg::Sum(col.to_owned())
    }

    /// `MIN(col)`.
    pub fn min(col: &str) -> Self {
        Agg::Min(col.to_owned())
    }

    /// `MAX(col)`.
    pub fn max(col: &str) -> Self {
        Agg::Max(col.to_owned())
    }

    /// `COUNT(*)`.
    pub fn count() -> Self {
        Agg::Count
    }

    /// The column this aggregate reads, if any.
    pub fn column(&self) -> Option<&str> {
        match self {
            Agg::Sum(c) | Agg::Min(c) | Agg::Max(c) => Some(c),
            Agg::Count => None,
        }
    }
}

impl fmt::Display for Agg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Agg::Sum(c) => write!(f, "sum({c})"),
            Agg::Min(c) => write!(f, "min({c})"),
            Agg::Max(c) => write!(f, "max({c})"),
            Agg::Count => write!(f, "count(*)"),
        }
    }
}

/// Errors detected while validating a [`Query`] into a [`LogicalPlan`].
#[derive(Debug, Clone, PartialEq)]
pub enum PlanError {
    /// A referenced column exists in none of the plan's tables.
    UnknownColumn {
        /// The missing column.
        column: String,
        /// Names of the tables that were searched.
        searched: Vec<String>,
    },
    /// A column exists but has the wrong type for its use.
    ColumnType {
        /// The offending column.
        column: String,
        /// What the operation needs.
        expected: &'static str,
        /// What the column actually stores.
        got: ValueType,
    },
    /// A referenced column exists on both sides of a join.
    AmbiguousColumn {
        /// The ambiguous column.
        column: String,
    },
    /// A plan shape the executor does not support.
    Unsupported(&'static str),
}

impl fmt::Display for PlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlanError::UnknownColumn { column, searched } => {
                write!(f, "unknown column {column:?} (searched {})", searched.join(", "))
            }
            PlanError::ColumnType { column, expected, got } => {
                write!(f, "column {column:?}: expected {expected}, found {got:?}")
            }
            PlanError::AmbiguousColumn { column } => {
                write!(f, "column {column:?} is ambiguous: it exists in both joined tables")
            }
            PlanError::Unsupported(what) => write!(f, "unsupported plan: {what}"),
        }
    }
}

impl std::error::Error for PlanError {}

fn col_type(table: &DecomposedTable, col: &str) -> Option<ValueType> {
    table.bat(col).ok().map(|b| b.tail().value_type())
}

fn expect_type(
    table: &DecomposedTable,
    col: &str,
    allowed: &[ValueType],
    expected: &'static str,
) -> Result<(), PlanError> {
    match col_type(table, col) {
        None => Err(PlanError::UnknownColumn {
            column: col.to_owned(),
            searched: vec![table.name().to_owned()],
        }),
        Some(t) if allowed.contains(&t) => Ok(()),
        Some(t) => Err(PlanError::ColumnType { column: col.to_owned(), expected, got: t }),
    }
}

/// One node of a validated [`LogicalPlan`] tree.
#[derive(Debug, Clone)]
pub enum PlanNode<'a> {
    /// Produce every row of a base table.
    Scan {
        /// The table.
        table: &'a DecomposedTable,
    },
    /// Keep rows satisfying `pred`.
    Filter {
        /// Upstream node.
        input: Box<PlanNode<'a>>,
        /// The predicate.
        pred: Pred,
    },
    /// Equi-join `input` rows with `right` rows on `left_col = right_col`.
    /// The physical algorithm and radix-bit budget are *not* part of the
    /// logical plan — the executor picks them from the cost model.
    Join {
        /// Left (outer) input.
        input: Box<PlanNode<'a>>,
        /// Right (inner) input.
        right: Box<PlanNode<'a>>,
        /// Join column on the left side.
        left_col: String,
        /// Join column on the right side.
        right_col: String,
    },
    /// Aggregate, optionally grouped by an encoded key column.
    GroupAgg {
        /// Upstream node.
        input: Box<PlanNode<'a>>,
        /// Group key column (`None` for whole-input aggregates).
        key: Option<String>,
        /// Aggregates to compute.
        aggs: Vec<Agg>,
    },
}

impl PlanNode<'_> {
    fn explain_into(&self, depth: usize, out: &mut String) {
        let indent = "  ".repeat(depth);
        match self {
            PlanNode::Scan { table } => {
                out.push_str(&format!(
                    "{indent}Scan {} ({} rows x {} BATs)\n",
                    table.name(),
                    table.len(),
                    table.columns().len()
                ));
            }
            PlanNode::Filter { input, pred } => {
                out.push_str(&format!("{indent}Filter [{pred}]\n"));
                input.explain_into(depth + 1, out);
            }
            PlanNode::Join { input, right, left_col, right_col } => {
                out.push_str(&format!(
                    "{indent}Join [{left_col} = {right_col}] (physical plan: chosen by executor)\n"
                ));
                input.explain_into(depth + 1, out);
                right.explain_into(depth + 1, out);
            }
            PlanNode::GroupAgg { input, key, aggs } => {
                let aggs: Vec<String> = aggs.iter().map(|a| a.to_string()).collect();
                match key {
                    Some(k) => {
                        out.push_str(&format!("{indent}GroupAgg key={k} [{}]\n", aggs.join(", ")))
                    }
                    None => out.push_str(&format!("{indent}Agg [{}]\n", aggs.join(", "))),
                }
                input.explain_into(depth + 1, out);
            }
        }
    }
}

/// A validated logical plan, ready for [`crate::exec::execute`].
#[derive(Debug, Clone)]
pub struct LogicalPlan<'a> {
    /// Root of the operator tree.
    pub root: PlanNode<'a>,
}

impl LogicalPlan<'_> {
    /// Human-readable plan tree (an `EXPLAIN`).
    pub fn explain(&self) -> String {
        let mut out = String::new();
        self.root.explain_into(0, &mut out);
        out
    }
}

/// Fluent builder for [`LogicalPlan`]s. See the [module docs](self) for an
/// example.
#[derive(Debug, Clone)]
pub struct Query<'a> {
    table: &'a DecomposedTable,
    filter: Option<Pred>,
    join: Option<JoinSpec<'a>>,
    extra_joins: usize,
    group: Option<String>,
    aggs: Vec<Agg>,
}

#[derive(Debug, Clone)]
struct JoinSpec<'a> {
    table: &'a DecomposedTable,
    left_col: String,
    right_col: String,
    right_filter: Option<Pred>,
}

impl<'a> Query<'a> {
    /// Start a query scanning `table`.
    pub fn scan(table: &'a DecomposedTable) -> Self {
        Self { table, filter: None, join: None, extra_joins: 0, group: None, aggs: Vec::new() }
    }

    /// Add a predicate. Repeated calls conjoin (`AND`). Before a
    /// [`join`](Self::join) the predicate applies to the scanned table; after
    /// it, to the joined table.
    pub fn filter(mut self, pred: Pred) -> Self {
        let slot = match &mut self.join {
            Some(j) => &mut j.right_filter,
            None => &mut self.filter,
        };
        *slot = Some(match slot.take() {
            Some(existing) => existing.and(pred),
            None => pred,
        });
        self
    }

    /// Equi-join with `other` on `on.0 = on.1` (left column, right column).
    /// The executor — not the caller — picks the join algorithm and radix
    /// bits from the cost model.
    pub fn join(mut self, other: &'a DecomposedTable, on: (&str, &str)) -> Self {
        if self.join.is_some() {
            // Only one join per plan is executable today; remember the
            // violation and reject it in build() rather than silently
            // dropping the earlier join spec.
            self.extra_joins += 1;
        }
        self.join = Some(JoinSpec {
            table: other,
            left_col: on.0.to_owned(),
            right_col: on.1.to_owned(),
            right_filter: None,
        });
        self
    }

    /// Group by an encoded key column.
    pub fn group_by(mut self, col: &str) -> Self {
        self.group = Some(col.to_owned());
        self
    }

    /// Add an aggregate to compute.
    pub fn agg(mut self, agg: Agg) -> Self {
        self.aggs.push(agg);
        self
    }

    /// Validate and produce the [`LogicalPlan`] tree.
    pub fn build(self) -> Result<LogicalPlan<'a>, PlanError> {
        // Validate everything first: filters against the table they scan,
        // join keys for joinability, outputs against the joined schema.
        if self.extra_joins > 0 {
            return Err(PlanError::Unsupported("multiple joins in one plan"));
        }
        if let Some(pred) = &self.filter {
            pred.validate(self.table)?;
        }
        if let Some(join) = &self.join {
            expect_type(
                self.table,
                &join.left_col,
                &[ValueType::I32, ValueType::Oid],
                "a joinable I32/Oid key",
            )?;
            expect_type(
                join.table,
                &join.right_col,
                &[ValueType::I32, ValueType::Oid],
                "a joinable I32/Oid key",
            )?;
            if let Some(pred) = &join.right_filter {
                pred.validate(join.table)?;
            }
        }
        self.validate_outputs(self.join.as_ref().map(|j| j.table))?;

        // Then assemble the tree.
        let Query { table, filter, join, group, aggs, .. } = self;
        let mut node = PlanNode::Scan { table };
        if let Some(pred) = filter {
            node = PlanNode::Filter { input: Box::new(node), pred };
        }
        if let Some(join) = join {
            let mut right: PlanNode<'a> = PlanNode::Scan { table: join.table };
            if let Some(pred) = join.right_filter {
                right = PlanNode::Filter { input: Box::new(right), pred };
            }
            node = PlanNode::Join {
                input: Box::new(node),
                right: Box::new(right),
                left_col: join.left_col,
                right_col: join.right_col,
            };
        }
        if group.is_some() || !aggs.is_empty() {
            node = PlanNode::GroupAgg { input: Box::new(node), key: group, aggs };
        }
        Ok(LogicalPlan { root: node })
    }

    /// Validate group key and aggregate columns against the output schema
    /// (base table, plus the right table after a join).
    fn validate_outputs(&self, right: Option<&DecomposedTable>) -> Result<(), PlanError> {
        let resolve = |col: &str| -> Result<ValueType, PlanError> {
            let in_left = col_type(self.table, col);
            let in_right = right.and_then(|r| col_type(r, col));
            match (in_left, in_right) {
                // The executor resolves left-first, so a name on both sides
                // would silently read the left column — reject it instead.
                (Some(_), Some(_)) => Err(PlanError::AmbiguousColumn { column: col.to_owned() }),
                (Some(t), None) | (None, Some(t)) => Ok(t),
                (None, None) => {
                    let mut searched = vec![self.table.name().to_owned()];
                    if let Some(r) = right {
                        searched.push(r.name().to_owned());
                    }
                    Err(PlanError::UnknownColumn { column: col.to_owned(), searched })
                }
            }
        };

        if let Some(key) = &self.group {
            if self.aggs.is_empty() {
                return Err(PlanError::Unsupported("group_by requires at least one aggregate"));
            }
            match resolve(key)? {
                ValueType::Str | ValueType::U8 => {}
                got => {
                    return Err(PlanError::ColumnType {
                        column: key.clone(),
                        expected: "an encoded group key (Str or U8)",
                        got,
                    })
                }
            }
        }

        for agg in &self.aggs {
            match agg {
                Agg::Sum(col) => match resolve(col)? {
                    ValueType::F64 | ValueType::I32 => {}
                    got => {
                        return Err(PlanError::ColumnType {
                            column: col.clone(),
                            expected: "a summable column (F64 or I32)",
                            got,
                        })
                    }
                },
                Agg::Min(col) | Agg::Max(col) => match resolve(col)? {
                    ValueType::I32 => {}
                    got => {
                        return Err(PlanError::ColumnType {
                            column: col.clone(),
                            expected: "I32",
                            got,
                        })
                    }
                },
                Agg::Count => {}
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use monet_core::storage::{ColType, TableBuilder, Value};

    fn item() -> DecomposedTable {
        let mut b = TableBuilder::new("item", 0)
            .column("qty", ColType::I32)
            .column("price", ColType::F64)
            .column("shipmode", ColType::Str);
        for (q, p, s) in [(1, 10.0, "AIR"), (2, 20.0, "MAIL"), (3, 30.0, "AIR")] {
            b.push_row(&[Value::I32(q), Value::F64(p), Value::from(s)]).unwrap();
        }
        b.finish()
    }

    fn modes() -> DecomposedTable {
        let mut b =
            TableBuilder::new("modes", 0).column("id", ColType::I32).column("fee", ColType::F64);
        for (i, f) in [(1, 0.5), (2, 0.7)] {
            b.push_row(&[Value::I32(i), Value::F64(f)]).unwrap();
        }
        b.finish()
    }

    #[test]
    fn builds_canonical_pipeline() {
        let t = item();
        let plan = Query::scan(&t)
            .filter(Pred::range_f64("price", 5.0, 25.0))
            .group_by("shipmode")
            .agg(Agg::sum("price"))
            .build()
            .unwrap();
        let explain = plan.explain();
        assert!(explain.contains("GroupAgg key=shipmode [sum(price)]"), "{explain}");
        assert!(explain.contains("Filter [5 <= price <= 25]"), "{explain}");
        assert!(explain.contains("Scan item (3 rows"), "{explain}");
    }

    #[test]
    fn unknown_columns_are_rejected() {
        let t = item();
        let err = Query::scan(&t).filter(Pred::range_f64("nope", 0.0, 1.0)).build().unwrap_err();
        assert!(matches!(err, PlanError::UnknownColumn { ref column, .. } if column == "nope"));

        let err = Query::scan(&t).group_by("ghost").agg(Agg::count()).build().unwrap_err();
        assert!(matches!(err, PlanError::UnknownColumn { ref column, .. } if column == "ghost"));
    }

    #[test]
    fn type_mismatches_are_rejected() {
        let t = item();
        // F64 range over an I32 column.
        let err = Query::scan(&t).filter(Pred::range_f64("qty", 0.0, 1.0)).build().unwrap_err();
        assert!(matches!(
            err,
            PlanError::ColumnType { ref column, got: ValueType::I32, .. } if column == "qty"
        ));
        // Grouping by a float column.
        let err = Query::scan(&t).group_by("price").agg(Agg::count()).build().unwrap_err();
        assert!(matches!(err, PlanError::ColumnType { got: ValueType::F64, .. }));
        // Summing a string column.
        let err = Query::scan(&t).agg(Agg::sum("shipmode")).build().unwrap_err();
        assert!(matches!(err, PlanError::ColumnType { got: ValueType::Str, .. }));
        // Joining on a float column.
        let m = modes();
        let err = Query::scan(&t).join(&m, ("price", "id")).build().unwrap_err();
        assert!(matches!(err, PlanError::ColumnType { got: ValueType::F64, .. }));
    }

    #[test]
    fn join_resolves_columns_from_both_sides() {
        let t = item();
        let m = modes();
        let plan = Query::scan(&t)
            .join(&m, ("qty", "id"))
            .group_by("shipmode")
            .agg(Agg::sum("fee"))
            .build()
            .unwrap();
        assert!(plan.explain().contains("Join [qty = id]"));

        let err =
            Query::scan(&t).join(&m, ("qty", "id")).agg(Agg::sum("absent")).build().unwrap_err();
        match err {
            PlanError::UnknownColumn { searched, .. } => {
                assert_eq!(searched, vec!["item".to_owned(), "modes".to_owned()]);
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn filter_after_join_applies_to_right_table() {
        let t = item();
        let m = modes();
        let plan = Query::scan(&t)
            .filter(Pred::range_i32("qty", 1, 2))
            .join(&m, ("qty", "id"))
            .filter(Pred::range_f64("fee", 0.0, 0.6))
            .agg(Agg::count())
            .build()
            .unwrap();
        let explain = plan.explain();
        assert!(explain.contains("Filter [0 <= fee <= 0.6]"), "{explain}");
        // Right-side filter referencing a left-only column fails validation.
        let err = Query::scan(&t)
            .join(&m, ("qty", "id"))
            .filter(Pred::range_f64("price", 0.0, 1.0))
            .build()
            .unwrap_err();
        assert!(matches!(err, PlanError::UnknownColumn { .. }));
    }

    #[test]
    fn ambiguous_output_columns_are_rejected() {
        // Self-join: every column exists on both sides.
        let t = item();
        let err = Query::scan(&t)
            .join(&t, ("qty", "qty"))
            .group_by("shipmode")
            .agg(Agg::sum("price"))
            .build()
            .unwrap_err();
        assert!(
            matches!(err, PlanError::AmbiguousColumn { ref column } if column == "shipmode"),
            "{err:?}"
        );
        // Unambiguous columns across distinct tables still resolve.
        let m = modes();
        assert!(Query::scan(&t)
            .join(&m, ("qty", "id"))
            .group_by("shipmode")
            .agg(Agg::sum("fee"))
            .build()
            .is_ok());
    }

    #[test]
    fn second_join_is_rejected_not_silently_dropped() {
        let t = item();
        let m = modes();
        let err = Query::scan(&t)
            .join(&m, ("qty", "id"))
            .filter(Pred::range_f64("fee", 0.0, 1.0))
            .join(&m, ("qty", "id"))
            .build()
            .unwrap_err();
        assert_eq!(err, PlanError::Unsupported("multiple joins in one plan"));
    }

    #[test]
    fn grouped_min_max_validate_and_empty_group_rejected() {
        let t = item();
        // Grouped min/max over I32 columns are part of the plan shapes now.
        assert!(Query::scan(&t)
            .group_by("shipmode")
            .agg(Agg::min("qty"))
            .agg(Agg::max("qty"))
            .build()
            .is_ok());
        // But only over I32 columns.
        let err = Query::scan(&t).group_by("shipmode").agg(Agg::min("price")).build().unwrap_err();
        assert!(matches!(err, PlanError::ColumnType { got: ValueType::F64, .. }));
        let err = Query::scan(&t).group_by("shipmode").build().unwrap_err();
        assert!(matches!(err, PlanError::Unsupported(_)));
    }

    #[test]
    fn predicates_compose_and_display() {
        let p = Pred::range_i32("qty", 1, 2)
            .and(Pred::eq_str("shipmode", "AIR").or(Pred::eq_str("shipmode", "MAIL")));
        let s = p.to_string();
        assert!(s.contains("AND"), "{s}");
        assert!(s.contains("OR"), "{s}");
        let t = item();
        assert!(p.validate(&t).is_ok());
    }
}
