//! Literal rows and answer bags for tests and examples.
//!
//! Engine code takes a column's type from the schema. A test that writes
//! its data as `tuple![…]` rows has no schema at hand, so these helpers
//! name one: each column's type is that of its first non-NULL value (`INT`
//! when there is none). A later value of another type panics, as a test
//! that mixes types in one column is wrong.
//!
//! Every test that compares an answer irrespective of order compares
//! [`multiset`]s.

use std::borrow::Borrow;
use std::collections::HashMap;

use crate::column::ColumnarBatch;
use crate::schema::{Field, Schema};
use crate::tuple::Tuple;
use crate::value::{DataType, Value};
use crate::TupleBatch;

/// The schema `t(c0, c1, …)` of `rows`, each field typed by its column's
/// first non-NULL value.
fn schema_of(rows: &[Tuple]) -> Schema {
    let arity = rows.first().map_or(0, Tuple::arity);
    let fields = (0..arity)
        .map(|c| {
            let dt = (rows.iter())
                .map(|t| t.value(c))
                .find(|v| !v.is_null())
                .map_or(DataType::Int, Value::data_type);
            Field::new("t", format!("c{c}"), dt)
        })
        .collect();
    Schema::new(fields)
}

/// `rows` as typed columns, each typed by its first non-NULL value.
pub fn columns(rows: &[Tuple]) -> ColumnarBatch {
    match ColumnarBatch::from_rows(&schema_of(rows), rows) {
        Ok(cols) => cols,
        Err(e) => panic!("test rows do not fit one type per column: {e}"),
    }
}

/// `rows` as one batch of typed columns (see [`columns`]).
pub fn batch(rows: &[Tuple]) -> TupleBatch {
    TupleBatch::from_columns(columns(rows))
}

/// `rows` as a bag: each distinct row with its multiplicity.
pub fn multiset<T: Borrow<Tuple>>(rows: impl IntoIterator<Item = T>) -> HashMap<Tuple, usize> {
    let mut bag = HashMap::new();
    for t in rows {
        *bag.entry(t.borrow().clone()).or_insert(0) += 1;
    }
    bag
}
