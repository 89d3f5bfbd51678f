//! Batch-level key prehashing.
//!
//! [`KeyVector`] prehashes a whole [`TupleBatch`] on its key column in one
//! pass, so downstream hash tables route and probe on the cached 64-bit
//! prehash instead of rehashing — probes compare the key **by reference**
//! into the batch's columns and never clone a `Value`.

use crate::TupleBatch;

/// Per-batch key prehashes: one entry per row, `None` when the row's key
/// contains SQL `NULL` (such rows never join and are dropped before they
/// reach a hash table). Computed once per [`TupleBatch`]; every downstream
/// consumer (bucket routing, map probe/insert, salted re-partitioning)
/// reuses the cached hash instead of rehashing the key.
#[derive(Debug, Clone)]
pub struct KeyVector {
    hashes: Vec<Option<u64>>,
}

impl KeyVector {
    /// Prehash every row of `batch` on the single key column `col`: the
    /// typed column kernel ([`crate::Column::hash_append`]), one tight loop
    /// over the native payload.
    pub fn compute(batch: &TupleBatch, col: usize) -> KeyVector {
        let cols = batch.columns();
        let mut hashes = Vec::with_capacity(cols.len());
        cols.col(col).hash_append(&mut hashes);
        KeyVector { hashes }
    }

    /// Number of rows covered.
    pub fn len(&self) -> usize {
        self.hashes.len()
    }

    /// Whether the vector covers no rows.
    pub fn is_empty(&self) -> bool {
        self.hashes.is_empty()
    }

    /// The prehash of row `i`, or `None` for a NULL key.
    #[inline]
    pub fn get(&self, i: usize) -> Option<u64> {
        self.hashes[i]
    }

    /// Iterate the per-row prehashes.
    pub fn iter(&self) -> impl Iterator<Item = Option<u64>> + '_ {
        self.hashes.iter().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hash::fx_hash;
    use crate::tuple;
    use crate::value::Value;

    #[test]
    fn key_vector_matches_per_row_hashing() {
        let batch = crate::testing::batch(&[
            tuple![1, 10],
            crate::Tuple::new(vec![Value::Null, Value::Int(11)]),
            tuple![3, 30],
        ]);
        let kv = KeyVector::compute(&batch, 0);
        assert_eq!(kv.len(), 3);
        assert_eq!(kv.get(0), Some(fx_hash(&Value::Int(1))));
        assert_eq!(kv.get(1), None);
        assert_eq!(kv.get(2), Some(fx_hash(&Value::Int(3))));
    }

    /// hash(column kernel) ≡ hash(`Value`) for every type — NULL has no
    /// hash at all, -0.0 and 0.0 hash apart (distinct bits), NaN is
    /// bit-stable — so a row routes where its key value does.
    #[test]
    fn columnar_key_vector_matches_value_hash() {
        let rows = vec![
            crate::Tuple::new(vec![
                Value::Int(1),
                Value::Double(2.5),
                Value::str("a"),
                Value::Date(3),
            ]),
            crate::Tuple::new(vec![
                Value::Int(i64::MIN),
                Value::Double(-0.0),
                Value::str(""),
                Value::Date(-1),
            ]),
            crate::Tuple::new(vec![
                Value::Null,
                Value::Double(0.0),
                Value::Null,
                Value::Date(9999),
            ]),
            crate::Tuple::new(vec![
                Value::Int(7),
                Value::Double(f64::NAN),
                Value::str("tukwila"),
                Value::Null,
            ]),
        ];
        let col_batch = crate::testing::batch(&rows);
        for c in 0..4 {
            let cv = KeyVector::compute(&col_batch, c);
            for (i, row) in rows.iter().enumerate() {
                let v = row.value(c);
                let want = (!v.is_null()).then(|| fx_hash(v));
                assert_eq!(cv.get(i), want, "col {c} row {i}");
            }
        }
        let neg = KeyVector::compute(&col_batch, 1);
        assert_ne!(neg.get(1), neg.get(2), "-0.0 and 0.0 hash differently");
    }
}
