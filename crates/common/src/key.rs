//! Join key representation and batch-level key prehashing.
//!
//! The seed extracted join keys with [`crate::Tuple::key`], which allocates
//! a `Vec<Value>` per row even for single-column keys. [`JoinKey`] stores
//! one- and two-column keys inline (no heap allocation besides the `Value`s
//! themselves, which are `Copy`-cheap or `Arc`-shared), and [`KeyVector`]
//! prehashes a whole [`TupleBatch`] in one pass so downstream hash tables
//! route and probe on the cached 64-bit prehash instead of rehashing —
//! probes compare the key **by reference** into the batch's tuples and
//! never clone a `Value`.

use crate::hash::FxHasher;
use crate::tuple::Tuple;
use crate::value::Value;
use crate::TupleBatch;
use std::hash::{Hash, Hasher};

/// An owned join key over one or more columns. One- and two-column keys
/// (the overwhelmingly common cases) are stored inline; wider keys fall
/// back to a boxed slice.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JoinKey {
    /// Single-column key.
    One(Value),
    /// Two-column composite key, inline (no `Vec`).
    Pair(Value, Value),
    /// Three-or-more-column composite key.
    Many(Box<[Value]>),
}

impl JoinKey {
    /// Extract the key of `tuple` at `cols`, cloning only the key columns
    /// (`Value` clones are refcount bumps or word copies).
    pub fn from_tuple(tuple: &Tuple, cols: &[usize]) -> JoinKey {
        match cols {
            [a] => JoinKey::One(tuple.value(*a).clone()),
            [a, b] => JoinKey::Pair(tuple.value(*a).clone(), tuple.value(*b).clone()),
            _ => JoinKey::Many(cols.iter().map(|&i| tuple.value(i).clone()).collect()),
        }
    }

    /// Number of key columns.
    pub fn width(&self) -> usize {
        match self {
            JoinKey::One(_) => 1,
            JoinKey::Pair(_, _) => 2,
            JoinKey::Many(vs) => vs.len(),
        }
    }

    /// Component accessor (panics out of range, like slice indexing).
    pub fn component(&self, i: usize) -> &Value {
        match (self, i) {
            (JoinKey::One(v), 0) => v,
            (JoinKey::Pair(a, _), 0) => a,
            (JoinKey::Pair(_, b), 1) => b,
            (JoinKey::Many(vs), i) => &vs[i],
            _ => panic!("JoinKey component {i} out of range"),
        }
    }

    /// Whether any component is SQL `NULL` (NULL keys never join).
    pub fn has_null(&self) -> bool {
        match self {
            JoinKey::One(v) => v.is_null(),
            JoinKey::Pair(a, b) => a.is_null() || b.is_null(),
            JoinKey::Many(vs) => vs.iter().any(Value::is_null),
        }
    }

    /// The Fx prehash of this key — identical to
    /// [`KeyVector::hash_tuple_key`] over the source columns, so owned and
    /// borrowed key forms interoperate in one [`crate::PrehashMap`].
    pub fn fx_hash(&self) -> u64 {
        let mut h = FxHasher::new();
        match self {
            JoinKey::One(v) => v.hash(&mut h),
            JoinKey::Pair(a, b) => {
                a.hash(&mut h);
                b.hash(&mut h);
            }
            JoinKey::Many(vs) => {
                for v in vs.iter() {
                    v.hash(&mut h);
                }
            }
        }
        h.finish()
    }

    /// Compare against the key columns of a tuple without extracting or
    /// cloning them — the probe-by-reference equality check.
    pub fn eq_tuple(&self, tuple: &Tuple, cols: &[usize]) -> bool {
        if self.width() != cols.len() {
            return false;
        }
        cols.iter()
            .enumerate()
            .all(|(i, &c)| self.component(i) == tuple.value(c))
    }
}

impl Hash for JoinKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        match self {
            JoinKey::One(v) => v.hash(state),
            JoinKey::Pair(a, b) => {
                a.hash(state);
                b.hash(state);
            }
            JoinKey::Many(vs) => {
                for v in vs.iter() {
                    v.hash(state);
                }
            }
        }
    }
}

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

    /// Prehash every row of `batch` on a (possibly composite) column set:
    /// each key column folded through per-row hasher states
    /// ([`crate::Column::hash_fold`]), column at a time.
    pub fn compute_composite(batch: &TupleBatch, cols: &[usize]) -> KeyVector {
        let cb = batch.columns();
        let mut acc: Vec<Option<FxHasher>> = vec![Some(FxHasher::new()); cb.len()];
        for &c in cols {
            cb.col(c).hash_fold(&mut acc);
        }
        KeyVector {
            hashes: acc.into_iter().map(|h| h.map(|h| h.finish())).collect(),
        }
    }

    /// Prehash one tuple's key columns (`None` if any component is NULL).
    /// Matches [`JoinKey::fx_hash`] of the extracted key exactly.
    pub fn hash_tuple_key(t: &Tuple, cols: &[usize]) -> Option<u64> {
        let mut h = FxHasher::new();
        for &c in cols {
            let v = t.value(c);
            if v.is_null() {
                return None;
            }
            v.hash(&mut h);
        }
        Some(h.finish())
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

    #[test]
    fn inline_key_forms() {
        let t = tuple![1, "x", 2.5];
        assert_eq!(JoinKey::from_tuple(&t, &[0]), JoinKey::One(Value::Int(1)));
        assert_eq!(
            JoinKey::from_tuple(&t, &[0, 1]),
            JoinKey::Pair(Value::Int(1), Value::str("x"))
        );
        let wide = JoinKey::from_tuple(&t, &[0, 1, 2]);
        assert_eq!(wide.width(), 3);
        assert_eq!(wide.component(2), &Value::Double(2.5));
    }

    #[test]
    fn owned_and_borrowed_hashes_agree() {
        let t = tuple![7, "key", 9];
        for cols in [&[0usize][..], &[1, 2][..], &[0, 1, 2][..]] {
            let owned = JoinKey::from_tuple(&t, cols);
            assert_eq!(
                Some(owned.fx_hash()),
                KeyVector::hash_tuple_key(&t, cols),
                "cols {cols:?}"
            );
            assert!(owned.eq_tuple(&t, cols));
        }
    }

    #[test]
    fn null_components_detected() {
        let t = crate::Tuple::new(vec![Value::Int(1), Value::Null]);
        assert!(!JoinKey::from_tuple(&t, &[0]).has_null());
        assert!(JoinKey::from_tuple(&t, &[0, 1]).has_null());
        assert_eq!(KeyVector::hash_tuple_key(&t, &[0, 1]), None);
        assert_eq!(KeyVector::hash_tuple_key(&t, &[1]), None);
    }

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
        let kvc = KeyVector::compute_composite(&batch, &[0]);
        for i in 0..3 {
            assert_eq!(kv.get(i), kvc.get(i));
        }
    }

    /// hash(column kernel) ≡ hash(per-tuple `JoinKey`) for every type —
    /// including NULL (no hash at all), -0.0 vs 0.0 (distinct bits), and
    /// NaN (bit-stable) — so an owned key routes where its row does.
    #[test]
    fn columnar_key_vector_matches_join_key() {
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
                let jk = JoinKey::from_tuple(row, &[c]);
                let want = if jk.has_null() {
                    None
                } else {
                    Some(jk.fx_hash())
                };
                assert_eq!(cv.get(i), want, "JoinKey parity col {c} row {i}");
            }
        }
        for cols in [
            &[0usize, 1][..],
            &[2, 3][..],
            &[0, 1, 2, 3][..],
            &[3, 0][..],
        ] {
            let cv = KeyVector::compute_composite(&col_batch, cols);
            for (i, row) in rows.iter().enumerate() {
                let jk = JoinKey::from_tuple(row, cols);
                let want = if jk.has_null() {
                    None
                } else {
                    Some(jk.fx_hash())
                };
                assert_eq!(cv.get(i), want, "JoinKey parity cols {cols:?} row {i}");
            }
        }
        // -0.0 and 0.0 must route differently (total-order bit hashing)
        let neg = KeyVector::compute(&col_batch, 1);
        assert_ne!(neg.get(1), neg.get(2), "-0.0 and 0.0 hash differently");
    }

    #[test]
    fn eq_tuple_respects_width_and_order() {
        let t = tuple![1, 2];
        let k = JoinKey::from_tuple(&t, &[0, 1]);
        assert!(k.eq_tuple(&t, &[0, 1]));
        assert!(!k.eq_tuple(&t, &[1, 0]));
        assert!(!k.eq_tuple(&t, &[0]));
    }
}
