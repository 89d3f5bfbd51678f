//! In-memory relations: a schema plus a bag of tuples.
//!
//! [`Relation`] is the unit the data generator produces, the simulated
//! sources serve, and fragment materialization writes. It is a *bag*
//! (duplicates allowed), matching SQL semantics and the paper's union /
//! collector discussion (§4.1, where overlap between sources produces
//! duplicates the collector policy may or may not bother removing).
//!
//! A relation holds one shared [`ColumnarBatch`], typed by its schema:
//! sources serve slices of it, and cloning a relation bumps one refcount.
//! Rows come only from the allocating [`Relation::to_rows`], which the
//! reference oracle ([`Relation::nested_join`], [`Relation::bag_eq`]) and
//! tests call.

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

use crate::column::ColumnarBatch;
use crate::error::{Result, TukwilaError};
use crate::schema::Schema;
use crate::tuple::Tuple;
use crate::value::{DataType, Value};
use crate::TupleBatch;

/// A schema-carrying bag of tuples, held as typed columns.
#[derive(Clone)]
pub struct Relation {
    schema: Schema,
    cols: Arc<ColumnarBatch>,
}

impl Relation {
    /// Build a relation from rows, typing each column by its schema field.
    /// A tuple of another arity, or a value of another type than its
    /// field's, is a `Schema` error.
    pub fn new(schema: Schema, tuples: Vec<Tuple>) -> Result<Self> {
        let cols = ColumnarBatch::from_rows(&schema, &tuples)?;
        Ok(Relation {
            schema,
            cols: Arc::new(cols),
        })
    }

    /// Build from a columnar batch. A batch whose columns do not match the
    /// schema's fields in number and type is a `Schema` error.
    pub fn from_columnar(schema: Schema, cols: ColumnarBatch) -> Result<Self> {
        let fits = cols.num_cols() == schema.arity()
            && (0..cols.num_cols()).all(|c| {
                let want = match schema.field(c).data_type {
                    DataType::Null => DataType::Int,
                    dt => dt,
                };
                cols.col(c).data_type() == want
            });
        if !fits {
            let types: Vec<DataType> = (0..cols.num_cols())
                .map(|c| cols.col(c).data_type())
                .collect();
            return Err(TukwilaError::Schema(format!(
                "columns {types:?} do not match schema {schema}"
            )));
        }
        Ok(Relation {
            schema,
            cols: Arc::new(cols),
        })
    }

    /// Materialize a stream of batches into a relation — the fragment
    /// materialization sink: the batches' columns appended once.
    pub fn from_batches(schema: Schema, batches: Vec<TupleBatch>) -> Result<Self> {
        match ColumnarBatch::concat(batches.iter().map(TupleBatch::columns))? {
            Some(cols) => Relation::from_columnar(schema, cols),
            None => Ok(Relation::empty(schema)),
        }
    }

    /// Build an empty relation with the given schema.
    pub fn empty(schema: Schema) -> Self {
        let cols = Arc::new(ColumnarBatch::empty(&schema));
        Relation { schema, cols }
    }

    /// The relation's schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The relation's columns, shared: sources serve slices of them.
    pub fn columnar(&self) -> &Arc<ColumnarBatch> {
        &self.cols
    }

    /// The tuples in insertion order, newly allocated.
    pub fn to_rows(&self) -> Vec<Tuple> {
        self.cols.to_rows()
    }

    /// Number of tuples (cardinality).
    pub fn len(&self) -> usize {
        self.cols.len()
    }

    /// Whether the relation holds no tuples.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total approximate memory footprint in bytes (what the rows would
    /// report as `Tuple::mem_size` in total).
    pub fn mem_size(&self) -> usize {
        self.cols.mem_size()
    }

    /// Sorted copy of the tuples (total order on values) — used by tests to
    /// compare results irrespective of arrival order, which adaptive
    /// operators deliberately scramble.
    pub fn sorted_tuples(&self) -> Vec<Tuple> {
        let mut out = self.to_rows();
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
        Relation {
            schema: self.schema.project(&order),
            cols: Arc::new(self.cols.project(&order)),
        }
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
        let rows = join_rows(&self.to_rows(), &other.to_rows(), left_key, right_key);
        let schema = self.schema.concat(&other.schema);
        let cols = ColumnarBatch::from_rows(&schema, &rows)
            .expect("a join of typed relations fits their concatenated schema");
        Relation {
            schema,
            cols: Arc::new(cols),
        }
    }

    /// Reference selection: keep tuples where column `col` equals `v`.
    pub fn select_eq(&self, col: usize, v: &Value) -> Relation {
        let keep: Vec<u32> = (0..self.len() as u32)
            .filter(|&i| self.cols.col(col).value_at(i as usize).sql_eq(v) == Some(true))
            .collect();
        Relation {
            schema: self.schema.clone(),
            cols: Arc::new(self.cols.gather(&keep)),
        }
    }

    /// Distinct values in a column (for stats / tests).
    pub fn distinct_count(&self, col: usize) -> usize {
        let column = self.cols.col(col);
        let seen: std::collections::HashSet<Value> =
            (0..self.len()).map(|i| column.value_at(i)).collect();
        seen.len()
    }
}

/// The reference equi-join over rows: every `left` tuple concatenated with
/// every `right` tuple whose `right_key` value equals its `left_key` value
/// (NULL keys never join), left rows in order.
pub fn join_rows(left: &[Tuple], right: &[Tuple], left_key: usize, right_key: usize) -> Vec<Tuple> {
    let mut index: HashMap<&Value, Vec<&Tuple>> = HashMap::new();
    for t in right {
        index.entry(t.value(right_key)).or_default().push(t);
    }
    let mut out = Vec::new();
    for l in left {
        if l.value(left_key).is_null() {
            continue; // NULL keys never join
        }
        if let Some(matches) = index.get(l.value(left_key)) {
            for r in matches {
                out.push(l.concat(r));
            }
        }
    }
    out
}

/// Equality is over schema and tuple content; which column buffers hold
/// them is an execution detail.
impl PartialEq for Relation {
    fn eq(&self, other: &Self) -> bool {
        self.schema == other.schema && self.to_rows() == other.to_rows()
    }
}

impl fmt::Debug for Relation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Relation")
            .field("schema", &self.schema)
            .field("len", &self.len())
            .finish()
    }
}

impl fmt::Display for Relation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{} ({} tuples)", self.schema, self.len())?;
        for t in self.cols.slice(0, self.len().min(20)).to_rows() {
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
        let rows = r.to_rows();
        assert_eq!(r.mem_size(), rows[0].mem_size() + rows[1].mem_size());
    }

    #[test]
    fn columnar_round_trip_shares_columns() {
        let r = rel("r", vec![tuple![1, 10], tuple![2, 20]]);
        let cols = r.columnar().clone();
        assert_eq!(cols.len(), 2);
        assert!(
            Arc::ptr_eq(&cols, r.clone().columnar()),
            "a clone shares them"
        );
        let c = Relation::from_columnar(r.schema().clone(), (*cols).clone()).unwrap();
        assert_eq!(c.mem_size(), r.mem_size());
        assert_eq!(c, r);
    }

    /// Columns that do not match the schema in number or type are a
    /// `Schema` error; so is a row value of another type than its field's.
    #[test]
    fn relations_take_types_from_the_schema() {
        let schema = Schema::of("r", &[("k", DataType::Int), ("v", DataType::Int)]);
        let strs = crate::testing::columns(&[tuple![1, "x"]]);
        let err = Relation::from_columnar(schema.clone(), strs);
        assert!(matches!(err, Err(TukwilaError::Schema(_))), "{err:?}");
        let narrow = crate::testing::columns(&[tuple![1]]);
        assert!(Relation::from_columnar(schema.clone(), narrow).is_err());
        let err = Relation::new(schema.clone(), vec![tuple![1, 2.5]]);
        assert!(matches!(err, Err(TukwilaError::Schema(_))), "{err:?}");
        let empty = Relation::empty(schema);
        assert!(empty.is_empty());
        assert_eq!(empty.columnar().num_cols(), 2);
    }

    #[test]
    fn from_batches_concatenates_columns() {
        use crate::testing::batch;
        let schema = Schema::of("r", &[("k", DataType::Int), ("v", DataType::Int)]);
        let b1 = batch(&[tuple![1, 10]]);
        let b2 = batch(&[tuple![2, 20], tuple![3, 30]]);
        let r = Relation::from_batches(schema.clone(), vec![b1, b2]).unwrap();
        assert_eq!(r.to_rows(), &[tuple![1, 10], tuple![2, 20], tuple![3, 30]]);
        assert!(Relation::from_batches(schema.clone(), vec![])
            .unwrap()
            .is_empty());
        // arity and type mismatches are rejected
        assert!(Relation::from_batches(schema.clone(), vec![batch(&[tuple![1]])]).is_err());
        let mixed = vec![batch(&[tuple![1, 10]]), batch(&[tuple![1, "x"]])];
        assert!(Relation::from_batches(schema, mixed).is_err());
    }
}
