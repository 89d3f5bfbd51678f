//! In-memory relations: a schema plus a bag of tuples.
//!
//! [`Relation`] is the unit the data generator produces, the simulated
//! sources serve, and fragment materialization writes. It is a *bag*
//! (duplicates allowed), matching SQL semantics and the paper's union /
//! collector discussion (§4.1, where overlap between sources produces
//! duplicates the collector policy may or may not bother removing).
//!
//! A relation holds its data in either (or both) of two physical forms —
//! a row vector and a columnar batch — each materialized lazily from the
//! other and cached (`OnceLock`). Sources serve columnar slices without
//! ever paying a conversion inside the timed query window, while reference
//! code keeps using `tuples()` unchanged.

use std::collections::HashMap;
use std::fmt;
use std::sync::{Arc, OnceLock};

use crate::column::ColumnarBatch;
use crate::error::{Result, TukwilaError};
use crate::schema::Schema;
use crate::tuple::Tuple;
use crate::value::Value;
use crate::TupleBatch;

/// A schema-carrying bag of tuples with lazily interconvertible row-major
/// and columnar representations (at least one is always present).
#[derive(Clone)]
pub struct Relation {
    schema: Schema,
    len: usize,
    rows: OnceLock<Vec<Tuple>>,
    cols: OnceLock<Arc<ColumnarBatch>>,
}

impl Relation {
    /// Build a relation, validating that every tuple matches the schema
    /// arity (type checking is left to the planner; arity mismatches are
    /// hard corruption and rejected here).
    pub fn new(schema: Schema, tuples: Vec<Tuple>) -> Result<Self> {
        for (i, t) in tuples.iter().enumerate() {
            if t.arity() != schema.arity() {
                return Err(TukwilaError::Schema(format!(
                    "tuple {i} has arity {} but schema {} has arity {}",
                    t.arity(),
                    schema,
                    schema.arity()
                )));
            }
        }
        Ok(Relation::from_rows_unchecked(schema, tuples))
    }

    /// Build from validated rows (internal constructor).
    fn from_rows_unchecked(schema: Schema, tuples: Vec<Tuple>) -> Self {
        let len = tuples.len();
        let rows = OnceLock::new();
        let _ = rows.set(tuples);
        Relation {
            schema,
            len,
            rows,
            cols: OnceLock::new(),
        }
    }

    /// Build directly from a columnar batch (no row materialization).
    pub fn from_columnar(schema: Schema, cols: ColumnarBatch) -> Result<Self> {
        if cols.num_cols() != schema.arity() && !cols.is_empty() {
            return Err(TukwilaError::Schema(format!(
                "columnar batch has {} columns but schema {} has arity {}",
                cols.num_cols(),
                schema,
                schema.arity()
            )));
        }
        let len = cols.len();
        let cell = OnceLock::new();
        let _ = cell.set(Arc::new(cols));
        Ok(Relation {
            schema,
            len,
            rows: OnceLock::new(),
            cols: cell,
        })
    }

    /// Materialize a stream of batches into a relation — the fragment
    /// materialization sink. When every batch is columnar and the layouts
    /// agree, the result is assembled **column-wise** (typed buffer
    /// appends, no row views ever built); otherwise it falls back to row
    /// concatenation with the same arity validation as [`Relation::new`].
    pub fn from_batches(schema: Schema, batches: Vec<TupleBatch>) -> Result<Self> {
        if !batches.is_empty() && batches.iter().all(|b| b.columns().is_some()) {
            let all = batches.iter().filter_map(|b| b.columns());
            if let Some(cat) = ColumnarBatch::concat(all) {
                if cat.num_cols() == schema.arity() {
                    return Relation::from_columnar(schema, cat);
                }
            }
        }
        let mut tuples = Vec::with_capacity(batches.iter().map(TupleBatch::len).sum());
        for b in batches {
            tuples.extend(b.into_tuples());
        }
        Relation::new(schema, tuples)
    }

    /// Build an empty relation with the given schema.
    pub fn empty(schema: Schema) -> Self {
        Relation::from_rows_unchecked(schema, Vec::new())
    }

    /// The relation's schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Tuples in insertion order (materialized lazily — at most once —
    /// when the relation was built columnar).
    pub fn tuples(&self) -> &[Tuple] {
        self.rows.get_or_init(|| {
            self.cols
                .get()
                .expect("relation invariant: rows or cols present")
                .materialize_rows()
        })
    }

    /// The columnar representation, converting from rows on first call and
    /// caching. Sources call this **once, outside the timed window**, so
    /// scans serve columnar slices for free thereafter.
    pub fn columnar(&self) -> &Arc<ColumnarBatch> {
        self.cols.get_or_init(|| {
            Arc::new(ColumnarBatch::from_rows(
                self.rows
                    .get()
                    .expect("relation invariant: rows or cols present"),
            ))
        })
    }

    /// The columnar representation only if already materialized — the
    /// non-forcing probe hot paths use to decide between the columnar
    /// slice path and the row clone path.
    pub fn columnar_cached(&self) -> Option<&Arc<ColumnarBatch>> {
        self.cols.get()
    }

    /// A copy of this relation holding **only** the columnar form (forced
    /// if absent; the column `Arc`s are shared, not copied). Long-lived
    /// holders — simulated sources, caches — use this so a relation built
    /// row-by-row does not pin hundreds of thousands of per-tuple
    /// allocations whose eventual drop lands inside someone's timed query
    /// window; row views rematerialize lazily if a per-tuple consumer asks.
    pub fn columnar_only(&self) -> Relation {
        let cols = self.columnar().clone();
        let cell = OnceLock::new();
        let _ = cell.set(cols);
        Relation {
            schema: self.schema.clone(),
            len: self.len,
            rows: OnceLock::new(),
            cols: cell,
        }
    }

    /// Number of tuples (cardinality) — no materialization.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the relation holds no tuples.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Append a tuple (materializes rows; drops a stale columnar cache).
    /// Panics on arity mismatch in debug builds; callers on hot paths
    /// (materialization) have already validated the schema.
    pub fn push(&mut self, tuple: Tuple) {
        debug_assert_eq!(tuple.arity(), self.schema.arity());
        self.tuples();
        self.cols = OnceLock::new();
        self.rows.get_mut().expect("rows forced above").push(tuple);
        self.len += 1;
    }

    /// Consume into the tuple vector.
    pub fn into_tuples(self) -> Vec<Tuple> {
        match self.rows.into_inner() {
            Some(t) => t,
            None => self
                .cols
                .into_inner()
                .expect("relation invariant: rows or cols present")
                .materialize_rows(),
        }
    }

    /// Total approximate memory footprint in bytes. Computed from whichever
    /// representation is materialized (both report the identical figure).
    pub fn mem_size(&self) -> usize {
        if let Some(rows) = self.rows.get() {
            return rows.iter().map(Tuple::mem_size).sum();
        }
        self.cols.get().expect("relation invariant").mem_size()
    }

    /// Sorted copy of the tuples (total order on values) — used by tests to
    /// compare results irrespective of arrival order, which adaptive
    /// operators deliberately scramble.
    pub fn sorted_tuples(&self) -> Vec<Tuple> {
        let mut out = self.tuples().to_vec();
        out.sort_by(|a, b| a.values().cmp(b.values()));
        out
    }

    /// Bag-equality with another relation (same schema arity, same tuples
    /// with the same multiplicities, in any order).
    pub fn bag_eq(&self, other: &Relation) -> bool {
        if self.schema.arity() != other.schema.arity() || self.len() != other.len() {
            return false;
        }
        self.sorted_tuples() == other.sorted_tuples()
    }

    /// Reorder columns into a canonical order (sorted by fully qualified
    /// name). Two plans for the same query may emit columns in different
    /// orders depending on the join tree; canonicalizing both sides makes
    /// [`Relation::bag_eq`] order-insensitive in columns as well as rows.
    pub fn canonicalized(&self) -> Relation {
        let mut order: Vec<usize> = (0..self.schema.arity()).collect();
        order.sort_by_key(|&i| self.schema.field(i).qualified_name());
        Relation::from_rows_unchecked(
            self.schema.project(&order),
            self.tuples().iter().map(|t| t.project(&order)).collect(),
        )
    }

    /// Column-order-insensitive bag equality: canonicalize both sides, then
    /// compare.
    pub fn bag_eq_unordered(&self, other: &Relation) -> bool {
        self.canonicalized().bag_eq(&other.canonicalized())
    }

    /// Reference "gold" hash join used to verify every join implementation
    /// in the engine: joins `self` and `other` on equality of the given key
    /// columns, concatenating matching tuples (left then right).
    pub fn nested_join(&self, other: &Relation, left_key: usize, right_key: usize) -> Relation {
        let mut index: HashMap<&Value, Vec<&Tuple>> = HashMap::new();
        for t in other.tuples() {
            index.entry(t.value(right_key)).or_default().push(t);
        }
        let mut out = Vec::new();
        for l in self.tuples() {
            if l.value(left_key).is_null() {
                continue; // NULL keys never join
            }
            if let Some(matches) = index.get(l.value(left_key)) {
                for r in matches {
                    out.push(l.concat(r));
                }
            }
        }
        Relation::from_rows_unchecked(self.schema.concat(&other.schema), out)
    }

    /// Reference selection: keep tuples where column `col` equals `v`.
    pub fn select_eq(&self, col: usize, v: &Value) -> Relation {
        Relation::from_rows_unchecked(
            self.schema.clone(),
            self.tuples()
                .iter()
                .filter(|t| t.value(col).sql_eq(v) == Some(true))
                .cloned()
                .collect(),
        )
    }

    /// Distinct values in a column (for stats / tests).
    pub fn distinct_count(&self, col: usize) -> usize {
        let mut seen: std::collections::HashSet<&Value> = std::collections::HashSet::new();
        for t in self.tuples() {
            seen.insert(t.value(col));
        }
        seen.len()
    }
}

/// Equality is over schema and tuple content; the physical representation
/// (rows vs columns, what is cached) is an execution detail.
impl PartialEq for Relation {
    fn eq(&self, other: &Self) -> bool {
        self.schema == other.schema && self.tuples() == other.tuples()
    }
}

impl fmt::Debug for Relation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Relation")
            .field("schema", &self.schema)
            .field("len", &self.len)
            .field("columnar", &self.cols.get().is_some())
            .finish()
    }
}

impl fmt::Display for Relation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{} ({} tuples)", self.schema, self.len())?;
        for t in self.tuples().iter().take(20) {
            writeln!(f, "  {t}")?;
        }
        if self.len() > 20 {
            writeln!(f, "  … {} more", self.len() - 20)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Schema;
    use crate::tuple;
    use crate::value::DataType;

    fn rel(name: &str, rows: Vec<Tuple>) -> Relation {
        let schema = Schema::of(name, &[("k", DataType::Int), ("v", DataType::Int)]);
        Relation::new(schema, rows).unwrap()
    }

    #[test]
    fn arity_validation() {
        let schema = Schema::of("r", &[("a", DataType::Int)]);
        assert!(Relation::new(schema.clone(), vec![tuple![1, 2]]).is_err());
        assert!(Relation::new(schema, vec![tuple![1]]).is_ok());
    }

    #[test]
    fn bag_eq_ignores_order_but_counts_duplicates() {
        let a = rel("r", vec![tuple![1, 1], tuple![2, 2], tuple![1, 1]]);
        let b = rel("r", vec![tuple![2, 2], tuple![1, 1], tuple![1, 1]]);
        let c = rel("r", vec![tuple![2, 2], tuple![1, 1]]);
        assert!(a.bag_eq(&b));
        assert!(!a.bag_eq(&c));
    }

    #[test]
    fn nested_join_matches_by_key() {
        let l = rel("l", vec![tuple![1, 10], tuple![2, 20], tuple![3, 30]]);
        let r = rel("r", vec![tuple![2, 200], tuple![3, 300], tuple![3, 301]]);
        let j = l.nested_join(&r, 0, 0);
        assert_eq!(j.len(), 3);
        assert_eq!(j.schema().arity(), 4);
        let sorted = j.sorted_tuples();
        assert_eq!(sorted[0], tuple![2, 20, 2, 200]);
        assert_eq!(sorted[1], tuple![3, 30, 3, 300]);
        assert_eq!(sorted[2], tuple![3, 30, 3, 301]);
    }

    #[test]
    fn null_keys_never_join() {
        let schema = Schema::of("l", &[("k", DataType::Int)]);
        let l = Relation::new(
            schema.clone(),
            vec![Tuple::new(vec![Value::Null]), tuple![1]],
        )
        .unwrap();
        let r = Relation::new(schema, vec![Tuple::new(vec![Value::Null]), tuple![1]]).unwrap();
        let j = l.nested_join(&r, 0, 0);
        assert_eq!(j.len(), 1); // only the 1-1 match
    }

    #[test]
    fn select_eq_filters() {
        let r = rel("r", vec![tuple![1, 10], tuple![2, 20], tuple![1, 30]]);
        let s = r.select_eq(0, &Value::Int(1));
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn distinct_count_counts() {
        let r = rel("r", vec![tuple![1, 10], tuple![2, 20], tuple![1, 30]]);
        assert_eq!(r.distinct_count(0), 2);
        assert_eq!(r.distinct_count(1), 3);
    }

    #[test]
    fn mem_size_sums_tuples() {
        let r = rel("r", vec![tuple![1, 10], tuple![2, 20]]);
        assert_eq!(
            r.mem_size(),
            r.tuples()[0].mem_size() + r.tuples()[1].mem_size()
        );
    }

    #[test]
    fn columnar_round_trip_and_cache() {
        let r = rel("r", vec![tuple![1, 10], tuple![2, 20]]);
        assert!(r.columnar_cached().is_none());
        let mem = r.mem_size();
        let cols = r.columnar().clone();
        assert_eq!(cols.len(), 2);
        assert!(r.columnar_cached().is_some());
        // cached: same Arc back
        assert!(Arc::ptr_eq(&cols, r.columnar()));
        // columnar-built relation materializes identical rows and mem
        let c = Relation::from_columnar(r.schema().clone(), (*cols).clone()).unwrap();
        assert_eq!(c.mem_size(), mem);
        assert_eq!(c, r);
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn from_batches_concatenates_columnar() {
        use crate::column::ColumnarBatch;
        let schema = Schema::of("r", &[("k", DataType::Int), ("v", DataType::Int)]);
        let b1 = TupleBatch::from_columns(ColumnarBatch::from_rows(&[tuple![1, 10]]));
        let b2 =
            TupleBatch::from_columns(ColumnarBatch::from_rows(&[tuple![2, 20], tuple![3, 30]]));
        let r = Relation::from_batches(schema.clone(), vec![b1, b2]).unwrap();
        assert_eq!(r.len(), 3);
        assert!(r.columnar_cached().is_some(), "assembled column-wise");
        assert_eq!(r.tuples(), &[tuple![1, 10], tuple![2, 20], tuple![3, 30]]);
        // mixed representations fall back to rows (and still validate arity)
        let b3 = TupleBatch::from_tuples(vec![tuple![4, 40]]);
        let b4 = TupleBatch::from_columns(ColumnarBatch::from_rows(&[tuple![5, 50]]));
        let m = Relation::from_batches(schema.clone(), vec![b3, b4]).unwrap();
        assert_eq!(m.len(), 2);
        assert!(m.columnar_cached().is_none());
        // arity mismatch is rejected on the row path
        let bad = TupleBatch::from_tuples(vec![tuple![1]]);
        assert!(Relation::from_batches(schema, vec![bad]).is_err());
    }

    #[test]
    fn push_invalidates_columnar_cache() {
        let mut r = rel("r", vec![tuple![1, 10]]);
        r.columnar();
        r.push(tuple![2, 20]);
        assert!(r.columnar_cached().is_none(), "stale cache dropped");
        assert_eq!(r.len(), 2);
        assert_eq!(r.columnar().len(), 2);
    }
}
