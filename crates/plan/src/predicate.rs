//! Selection predicates over tuples.
//!
//! Tukwila's scope is select-project-join queries (§2), so predicates are
//! boolean combinations of column/column and column/literal comparisons.
//! Columns are referenced by (possibly qualified) name and resolved against
//! the input schema at operator-open time; evaluation uses SQL three-valued
//! logic (NULL comparisons are unknown, and unknown rows are filtered out).

use tukwila_common::{Bitmap, Column, ColumnarBatch, Result, Schema, Selection, Tuple, Value};

/// Comparison operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    /// `=`
    Eq,
    /// `<>`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

impl CmpOp {
    /// Plan-text symbol of each operator, read by the parser and the printer.
    pub const KEYWORDS: &[(&str, CmpOp)] = &[
        ("=", CmpOp::Eq),
        ("<>", CmpOp::Ne),
        ("<", CmpOp::Lt),
        ("<=", CmpOp::Le),
        (">", CmpOp::Gt),
        (">=", CmpOp::Ge),
    ];

    fn eval(self, ord: std::cmp::Ordering) -> bool {
        use std::cmp::Ordering::*;
        match self {
            CmpOp::Eq => ord == Equal,
            CmpOp::Ne => ord != Equal,
            CmpOp::Lt => ord == Less,
            CmpOp::Le => ord != Greater,
            CmpOp::Gt => ord == Greater,
            CmpOp::Ge => ord != Less,
        }
    }
}

/// A predicate over named columns.
#[derive(Debug, Clone, PartialEq)]
pub enum Predicate {
    /// Always true.
    True,
    /// `col ⋄ literal`
    ColLit {
        /// Column reference (possibly qualified).
        col: String,
        /// Comparison operator.
        op: CmpOp,
        /// Literal value.
        value: Value,
    },
    /// `col ⋄ col`
    ColCol {
        /// Left column reference.
        left: String,
        /// Comparison operator.
        op: CmpOp,
        /// Right column reference.
        right: String,
    },
    /// Conjunction.
    And(Vec<Predicate>),
    /// Disjunction.
    Or(Vec<Predicate>),
    /// Negation (SQL semantics: NOT unknown = unknown).
    Not(Box<Predicate>),
}

/// A predicate compiled against a concrete schema (column names resolved to
/// indices) — built once at operator open, evaluated per tuple.
#[derive(Debug, Clone)]
pub enum CompiledPredicate {
    /// Always true.
    True,
    /// Column ⋄ literal.
    ColLit(usize, CmpOp, Value),
    /// Column ⋄ column.
    ColCol(usize, CmpOp, usize),
    /// Conjunction.
    And(Vec<CompiledPredicate>),
    /// Disjunction.
    Or(Vec<CompiledPredicate>),
    /// Negation.
    Not(Box<CompiledPredicate>),
}

impl Predicate {
    /// Conjunction helper that flattens trivial cases.
    pub fn and(preds: Vec<Predicate>) -> Predicate {
        let mut flat = Vec::new();
        for p in preds {
            match p {
                Predicate::True => {}
                Predicate::And(ps) => flat.extend(ps),
                other => flat.push(other),
            }
        }
        match flat.len() {
            0 => Predicate::True,
            1 => flat.pop().unwrap(),
            _ => Predicate::And(flat),
        }
    }

    /// `col = literal` helper.
    pub fn eq_lit(col: impl Into<String>, value: impl Into<Value>) -> Predicate {
        Predicate::ColLit {
            col: col.into(),
            op: CmpOp::Eq,
            value: value.into(),
        }
    }

    /// `left = right` (column equality) helper.
    pub fn eq_cols(left: impl Into<String>, right: impl Into<String>) -> Predicate {
        Predicate::ColCol {
            left: left.into(),
            op: CmpOp::Eq,
            right: right.into(),
        }
    }

    /// Resolve column references against `schema`.
    pub fn compile(&self, schema: &Schema) -> Result<CompiledPredicate> {
        Ok(match self {
            Predicate::True => CompiledPredicate::True,
            Predicate::ColLit { col, op, value } => {
                CompiledPredicate::ColLit(schema.index_of(col)?, *op, value.clone())
            }
            Predicate::ColCol { left, op, right } => {
                CompiledPredicate::ColCol(schema.index_of(left)?, *op, schema.index_of(right)?)
            }
            Predicate::And(ps) => CompiledPredicate::And(
                ps.iter()
                    .map(|p| p.compile(schema))
                    .collect::<Result<_>>()?,
            ),
            Predicate::Or(ps) => CompiledPredicate::Or(
                ps.iter()
                    .map(|p| p.compile(schema))
                    .collect::<Result<_>>()?,
            ),
            Predicate::Not(p) => CompiledPredicate::Not(Box::new(p.compile(schema)?)),
        })
    }

    /// All column references mentioned (for pushdown analysis).
    pub fn columns(&self) -> Vec<&str> {
        let mut out = Vec::new();
        self.collect_columns(&mut out);
        out
    }

    fn collect_columns<'a>(&'a self, out: &mut Vec<&'a str>) {
        match self {
            Predicate::True => {}
            Predicate::ColLit { col, .. } => out.push(col),
            Predicate::ColCol { left, right, .. } => {
                out.push(left);
                out.push(right);
            }
            Predicate::And(ps) | Predicate::Or(ps) => {
                for p in ps {
                    p.collect_columns(out);
                }
            }
            Predicate::Not(p) => p.collect_columns(out),
        }
    }
}

impl CompiledPredicate {
    /// Three-valued evaluation: `Some(true/false)` or `None` (unknown).
    pub fn eval3(&self, t: &Tuple) -> Option<bool> {
        match self {
            CompiledPredicate::True => Some(true),
            CompiledPredicate::ColLit(i, op, v) => t.value(*i).sql_cmp(v).map(|ord| op.eval(ord)),
            CompiledPredicate::ColCol(i, op, j) => {
                t.value(*i).sql_cmp(t.value(*j)).map(|ord| op.eval(ord))
            }
            CompiledPredicate::And(ps) => {
                let mut unknown = false;
                for p in ps {
                    match p.eval3(t) {
                        Some(false) => return Some(false),
                        None => unknown = true,
                        Some(true) => {}
                    }
                }
                if unknown {
                    None
                } else {
                    Some(true)
                }
            }
            CompiledPredicate::Or(ps) => {
                let mut unknown = false;
                for p in ps {
                    match p.eval3(t) {
                        Some(true) => return Some(true),
                        None => unknown = true,
                        Some(false) => {}
                    }
                }
                if unknown {
                    None
                } else {
                    Some(false)
                }
            }
            CompiledPredicate::Not(p) => p.eval3(t).map(|b| !b),
        }
    }

    /// WHERE-clause semantics: keep only rows that evaluate to true.
    pub fn matches(&self, t: &Tuple) -> bool {
        self.eval3(t) == Some(true)
    }

    /// Vectorized three-valued evaluation over a columnar batch: one typed
    /// comparison loop per leaf, Kleene-combined as bitmaps, yielding the
    /// [`Selection`] of rows that evaluate to **true** (WHERE semantics).
    ///
    /// Statically incomparable combinations (e.g. a `Str` column against
    /// an `Int` literal) make every row unknown, exactly as `sql_cmp`
    /// reports per row.
    pub fn eval_batch(&self, batch: &ColumnarBatch) -> Selection {
        Selection::from_bitmap(self.eval_mask(batch).t)
    }

    fn eval_mask(&self, batch: &ColumnarBatch) -> TriMask {
        let n = batch.len();
        match self {
            CompiledPredicate::True => TriMask {
                t: Bitmap::all_set(n),
                u: Bitmap::all_clear(n),
            },
            CompiledPredicate::ColLit(i, op, v) => col_lit_mask(batch.col(*i), *op, v),
            CompiledPredicate::ColCol(i, op, j) => col_col_mask(batch.col(*i), *op, batch.col(*j)),
            CompiledPredicate::And(ps) => {
                let mut acc = TriMask {
                    t: Bitmap::all_set(n),
                    u: Bitmap::all_clear(n),
                };
                for p in ps {
                    acc = acc.and(&p.eval_mask(batch));
                }
                acc
            }
            CompiledPredicate::Or(ps) => {
                let mut acc = TriMask {
                    t: Bitmap::all_clear(n),
                    u: Bitmap::all_clear(n),
                };
                for p in ps {
                    acc = acc.or(&p.eval_mask(batch));
                }
                acc
            }
            CompiledPredicate::Not(p) => p.eval_mask(batch).not(),
        }
    }
}

/// A three-valued result over a batch as two disjoint bitmaps: `t` = rows
/// evaluating true, `u` = rows evaluating unknown (neither = false).
/// Combinators implement Kleene logic exactly as [`CompiledPredicate::eval3`]
/// does per row.
struct TriMask {
    t: Bitmap,
    u: Bitmap,
}

impl TriMask {
    fn all_unknown(n: usize) -> TriMask {
        TriMask {
            t: Bitmap::all_clear(n),
            u: Bitmap::all_set(n),
        }
    }

    /// NOT: true↔false, unknown stays unknown.
    fn not(self) -> TriMask {
        let mut nt = self.t.clone();
        nt.or_assign(&self.u);
        nt.not_assign();
        TriMask { t: nt, u: self.u }
    }

    /// AND: true iff both true; unknown iff neither side is false and not
    /// both are true (false dominates unknown).
    fn and(self, other: &TriMask) -> TriMask {
        let mut t = self.t.clone();
        t.and_assign(&other.t);
        // not-false on each side: t | u
        let mut nf1 = self.t;
        nf1.or_assign(&self.u);
        let mut nf2 = other.t.clone();
        nf2.or_assign(&other.u);
        nf1.and_assign(&nf2);
        let mut not_t = t.clone();
        not_t.not_assign();
        nf1.and_assign(&not_t);
        TriMask { t, u: nf1 }
    }

    /// OR: true iff either true; unknown iff some side unknown and neither
    /// true (true dominates unknown).
    fn or(self, other: &TriMask) -> TriMask {
        let mut t = self.t;
        t.or_assign(&other.t);
        let mut u = self.u;
        u.or_assign(&other.u);
        let mut not_t = t.clone();
        not_t.not_assign();
        u.and_assign(&not_t);
        TriMask { t, u }
    }
}

/// Leaf mask from a comparison loop's true-bitmap and the column validity:
/// NULL rows are unknown, everything else is true/false per the bitmap.
fn leaf_mask(mut t: Bitmap, validity: Option<&Bitmap>) -> TriMask {
    match validity {
        None => {
            let u = Bitmap::all_clear(t.len());
            TriMask { t, u }
        }
        Some(v) => {
            t.and_assign(v); // NULL slots hold type defaults: mask them out
            let mut u = v.clone();
            u.not_assign();
            TriMask { t, u }
        }
    }
}

/// Typed `column ⋄ literal` kernel.
fn col_lit_mask(col: &Column, op: CmpOp, lit: &Value) -> TriMask {
    let n = col.len();
    if lit.is_null() {
        return TriMask::all_unknown(n);
    }
    // Each arm replicates `Value::sql_cmp` for its statically-known type
    // pair; combinations sql_cmp rejects are all-unknown for every row.
    match (col, lit) {
        (Column::Int64(vals, validity), Value::Int(x)) => {
            let mut t = Bitmap::all_clear(n);
            for (i, v) in vals.iter().enumerate() {
                if op.eval(v.cmp(x)) {
                    t.set(i);
                }
            }
            leaf_mask(t, validity.as_ref())
        }
        (Column::Int64(vals, validity), Value::Double(x)) => {
            let mut t = Bitmap::all_clear(n);
            for (i, v) in vals.iter().enumerate() {
                if op.eval((*v as f64).total_cmp(x)) {
                    t.set(i);
                }
            }
            leaf_mask(t, validity.as_ref())
        }
        (Column::Float64(vals, validity), Value::Double(x)) => {
            let mut t = Bitmap::all_clear(n);
            for (i, v) in vals.iter().enumerate() {
                if op.eval(v.total_cmp(x)) {
                    t.set(i);
                }
            }
            leaf_mask(t, validity.as_ref())
        }
        (Column::Float64(vals, validity), Value::Int(x)) => {
            let rhs = *x as f64;
            let mut t = Bitmap::all_clear(n);
            for (i, v) in vals.iter().enumerate() {
                if op.eval(v.total_cmp(&rhs)) {
                    t.set(i);
                }
            }
            leaf_mask(t, validity.as_ref())
        }
        (Column::Str(vals, validity), Value::Str(x)) => {
            let rhs: &str = x;
            let mut t = Bitmap::all_clear(n);
            for (i, v) in vals.iter().enumerate() {
                if op.eval(v.as_ref().cmp(rhs)) {
                    t.set(i);
                }
            }
            leaf_mask(t, validity.as_ref())
        }
        (Column::Date(vals, validity), Value::Date(x)) => {
            let mut t = Bitmap::all_clear(n);
            for (i, v) in vals.iter().enumerate() {
                if op.eval(v.cmp(x)) {
                    t.set(i);
                }
            }
            leaf_mask(t, validity.as_ref())
        }
        _ => TriMask::all_unknown(n), // statically incomparable
    }
}

/// Typed `column ⋄ column` kernel.
fn col_col_mask(left: &Column, op: CmpOp, right: &Column) -> TriMask {
    let n = left.len();
    debug_assert_eq!(n, right.len());
    fn both_validity(a: Option<&Bitmap>, b: Option<&Bitmap>) -> Option<Bitmap> {
        match (a, b) {
            (None, None) => None,
            (Some(x), None) | (None, Some(x)) => Some(x.clone()),
            (Some(x), Some(y)) => {
                let mut v = x.clone();
                v.and_assign(y);
                Some(v)
            }
        }
    }
    macro_rules! cmp_cols {
        ($lv:expr, $lb:expr, $rv:expr, $rb:expr, $cmp:expr) => {{
            let mut t = Bitmap::all_clear(n);
            for i in 0..n {
                if op.eval($cmp(&$lv[i], &$rv[i])) {
                    t.set(i);
                }
            }
            let v = both_validity($lb.as_ref(), $rb.as_ref());
            leaf_mask(t, v.as_ref())
        }};
    }
    match (left, right) {
        (Column::Int64(lv, lb), Column::Int64(rv, rb)) => {
            cmp_cols!(lv, lb, rv, rb, |a: &i64, b: &i64| a.cmp(b))
        }
        (Column::Float64(lv, lb), Column::Float64(rv, rb)) => {
            cmp_cols!(lv, lb, rv, rb, |a: &f64, b: &f64| a.total_cmp(b))
        }
        (Column::Int64(lv, lb), Column::Float64(rv, rb)) => {
            cmp_cols!(lv, lb, rv, rb, |a: &i64, b: &f64| (*a as f64).total_cmp(b))
        }
        (Column::Float64(lv, lb), Column::Int64(rv, rb)) => {
            cmp_cols!(lv, lb, rv, rb, |a: &f64, b: &i64| a.total_cmp(&(*b as f64)))
        }
        (Column::Str(lv, lb), Column::Str(rv, rb)) => {
            cmp_cols!(
                lv,
                lb,
                rv,
                rb,
                |a: &std::sync::Arc<str>, b: &std::sync::Arc<str>| a.as_ref().cmp(b.as_ref())
            )
        }
        (Column::Date(lv, lb), Column::Date(rv, rb)) => {
            cmp_cols!(lv, lb, rv, rb, |a: &i32, b: &i32| a.cmp(b))
        }
        _ => TriMask::all_unknown(n), // statically incomparable
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tukwila_common::{tuple, DataType};

    fn schema() -> Schema {
        Schema::of(
            "r",
            &[
                ("a", DataType::Int),
                ("b", DataType::Int),
                ("s", DataType::Str),
            ],
        )
    }

    #[test]
    fn col_lit_comparisons() {
        let s = schema();
        let p = Predicate::ColLit {
            col: "a".into(),
            op: CmpOp::Gt,
            value: Value::Int(5),
        }
        .compile(&s)
        .unwrap();
        assert!(p.matches(&tuple![6, 0, "x"]));
        assert!(!p.matches(&tuple![5, 0, "x"]));
    }

    #[test]
    fn col_col_equality() {
        let s = schema();
        let p = Predicate::eq_cols("a", "b").compile(&s).unwrap();
        assert!(p.matches(&tuple![3, 3, "x"]));
        assert!(!p.matches(&tuple![3, 4, "x"]));
    }

    #[test]
    fn null_is_filtered_by_where_semantics() {
        let s = schema();
        let p = Predicate::eq_lit("a", 1i64).compile(&s).unwrap();
        let t = Tuple::new(vec![Value::Null, Value::Int(1), Value::str("x")]);
        assert_eq!(p.eval3(&t), None);
        assert!(!p.matches(&t));
        // NOT of unknown is still unknown → still filtered
        let np = Predicate::Not(Box::new(Predicate::eq_lit("a", 1i64)))
            .compile(&s)
            .unwrap();
        assert!(!np.matches(&t));
    }

    #[test]
    fn and_short_circuits_false_over_unknown() {
        let s = schema();
        let p = Predicate::And(vec![
            Predicate::eq_lit("a", 1i64),
            Predicate::eq_lit("b", 2i64),
        ])
        .compile(&s)
        .unwrap();
        // a is NULL (unknown), b=3 (false) → false, not unknown
        let t = Tuple::new(vec![Value::Null, Value::Int(3), Value::str("x")]);
        assert_eq!(p.eval3(&t), Some(false));
    }

    #[test]
    fn or_true_dominates_unknown() {
        let s = schema();
        let p = Predicate::Or(vec![
            Predicate::eq_lit("a", 1i64),
            Predicate::eq_lit("b", 2i64),
        ])
        .compile(&s)
        .unwrap();
        let t = Tuple::new(vec![Value::Null, Value::Int(2), Value::str("x")]);
        assert_eq!(p.eval3(&t), Some(true));
    }

    #[test]
    fn and_flattening() {
        let p = Predicate::and(vec![
            Predicate::True,
            Predicate::eq_lit("a", 1i64),
            Predicate::and(vec![Predicate::eq_lit("b", 2i64), Predicate::True]),
        ]);
        match &p {
            Predicate::And(ps) => assert_eq!(ps.len(), 2),
            other => panic!("expected flattened And, got {other:?}"),
        }
        assert_eq!(Predicate::and(vec![]), Predicate::True);
    }

    #[test]
    fn unknown_column_fails_compile() {
        assert!(Predicate::eq_lit("zz", 1i64).compile(&schema()).is_err());
    }

    /// Vectorized evaluation must agree with per-row `eval3` on every row
    /// — across types, NULLs, cross-numeric compares, and Kleene
    /// combinators (the `Filter` fast path's correctness contract).
    #[test]
    fn eval_batch_matches_eval3() {
        use tukwila_common::ColumnarBatch;
        let s = Schema::of(
            "r",
            &[
                ("a", DataType::Int),
                ("b", DataType::Int),
                ("d", DataType::Double),
                ("s", DataType::Str),
                ("dt", DataType::Date),
            ],
        );
        let mut rows = Vec::new();
        for i in 0..64i64 {
            let a = if i % 7 == 0 {
                Value::Null
            } else {
                Value::Int(i % 10)
            };
            let b = Value::Int((i * 3) % 10);
            let d = if i % 5 == 0 {
                Value::Null
            } else if i % 11 == 0 {
                Value::Double(-0.0)
            } else {
                Value::Double((i % 8) as f64 / 2.0)
            };
            let st = Value::str(["x", "y", "zz"][(i % 3) as usize]);
            let dt = Value::Date((i % 4) as i32);
            rows.push(Tuple::new(vec![a, b, d, st, dt]));
        }
        let batch = ColumnarBatch::from_rows(&s, &rows).unwrap();
        let preds = vec![
            Predicate::True,
            Predicate::eq_lit("a", 3i64),
            Predicate::ColLit {
                col: "a".into(),
                op: CmpOp::Gt,
                value: Value::Double(2.5),
            },
            Predicate::ColLit {
                col: "d".into(),
                op: CmpOp::Le,
                value: Value::Int(1),
            },
            Predicate::ColLit {
                col: "d".into(),
                op: CmpOp::Eq,
                value: Value::Double(0.0),
            },
            Predicate::ColLit {
                col: "s".into(),
                op: CmpOp::Ne,
                value: Value::str("y"),
            },
            Predicate::ColLit {
                col: "dt".into(),
                op: CmpOp::Ge,
                value: Value::Date(2),
            },
            // statically incomparable: all-unknown, still vectorized
            Predicate::ColLit {
                col: "s".into(),
                op: CmpOp::Eq,
                value: Value::Int(1),
            },
            // NULL literal: all-unknown
            Predicate::ColLit {
                col: "a".into(),
                op: CmpOp::Eq,
                value: Value::Null,
            },
            Predicate::eq_cols("a", "b"),
            Predicate::ColCol {
                left: "a".into(),
                op: CmpOp::Lt,
                right: "d".into(),
            },
            Predicate::Not(Box::new(Predicate::eq_lit("a", 3i64))),
            Predicate::And(vec![
                Predicate::eq_lit("s", "x"),
                Predicate::ColLit {
                    col: "a".into(),
                    op: CmpOp::Lt,
                    value: Value::Int(5),
                },
            ]),
            Predicate::Or(vec![
                Predicate::eq_lit("a", 1i64),
                Predicate::Not(Box::new(Predicate::ColCol {
                    left: "d".into(),
                    op: CmpOp::Gt,
                    right: "b".into(),
                })),
            ]),
        ];
        for p in preds {
            let c = p.compile(&s).unwrap();
            let sel = c.eval_batch(&batch);
            for (i, t) in rows.iter().enumerate() {
                assert_eq!(
                    sel.get(i),
                    c.matches(t),
                    "row {i} disagrees for {p:?} on {t}"
                );
            }
        }
    }

    #[test]
    fn columns_collected() {
        let p = Predicate::And(vec![
            Predicate::eq_cols("a", "b"),
            Predicate::eq_lit("s", "x"),
        ]);
        assert_eq!(p.columns(), vec!["a", "b", "s"]);
    }
}
