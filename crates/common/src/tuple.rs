//! Immutable, cheaply-cloneable tuples.
//!
//! Joins in Tukwila are hash-based and produce concatenations of their input
//! tuples. A [`Tuple`] is a view into a shared `Arc<[Value]>` **block**: an
//! independently built tuple owns its whole block, while the rows of
//! [`crate::ColumnarBatch::to_rows`] are slices of one block shared by the
//! whole batch. Cloning either form costs one refcount bump. Operators
//! move columns, not tuples: rows are the reference oracle's and the
//! tests' form, and [`Tuple::mem_size`] is the accounting figure a batch's
//! columns reproduce.

use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use crate::value::Value;

/// An immutable row of [`Value`]s: a (possibly whole-block) view into a
/// shared value buffer.
///
/// The block is `Arc<[Value]>` (single indirection on every read — value
/// reads dominate the probe/hash paths, so this beats an adopt-the-Vec
/// `Arc<Vec<Value>>` representation even though sealing pays one move-copy
/// of the buffer into the `Arc` allocation).
#[derive(Clone)]
pub struct Tuple {
    block: Arc<[Value]>,
    start: u32,
    len: u32,
}

/// Per-row bookkeeping bytes charged by [`Tuple::mem_size`] on top of the
/// values (tuple struct + `Arc` header) — shared with the columnar
/// `mem_size`, so a batch reports what its rows would.
pub(crate) const TUPLE_HEADER_BYTES: usize =
    std::mem::size_of::<Tuple>() + 2 * std::mem::size_of::<usize>();

impl Tuple {
    /// Build a tuple owning its own block.
    pub fn new(values: Vec<Value>) -> Self {
        let block: Arc<[Value]> = values.into();
        let len = block.len() as u32;
        Tuple {
            block,
            start: 0,
            len,
        }
    }

    /// The empty tuple (identity for [`Tuple::concat`]).
    pub fn empty() -> Self {
        Tuple::new(Vec::new())
    }

    /// A view of `len` values of `block` starting at `start` — the rows of
    /// one [`crate::ColumnarBatch::to_rows`] share one block.
    pub(crate) fn view(block: Arc<[Value]>, start: usize, len: usize) -> Self {
        debug_assert!(start + len <= block.len());
        Tuple {
            block,
            start: start as u32,
            len: len as u32,
        }
    }

    /// Number of columns.
    pub fn arity(&self) -> usize {
        self.len as usize
    }

    /// Column accessor. Panics on out-of-range like slice indexing; use
    /// [`Tuple::get`] for the checked variant.
    #[inline]
    pub fn value(&self, idx: usize) -> &Value {
        &self.values()[idx]
    }

    /// Checked column accessor.
    pub fn get(&self, idx: usize) -> Option<&Value> {
        self.values().get(idx)
    }

    /// All values as a slice.
    #[inline]
    pub fn values(&self) -> &[Value] {
        &self.block[self.start as usize..(self.start + self.len) as usize]
    }

    /// Concatenate two tuples (join output). Allocates a fresh buffer of
    /// `self.arity() + other.arity()` values; the `Value`s themselves are
    /// cloned cheaply (strings are `Arc<str>`).
    pub fn concat(&self, other: &Tuple) -> Tuple {
        let a = self.values();
        let b = other.values();
        let mut out = Vec::with_capacity(a.len() + b.len());
        out.extend_from_slice(a);
        out.extend_from_slice(b);
        Tuple::new(out)
    }

    /// Project onto the given column indices (in the given order).
    ///
    /// Panics if an index is out of range — the planner validates indices
    /// before execution.
    pub fn project(&self, indices: &[usize]) -> Tuple {
        let vals = self.values();
        let out: Vec<Value> = indices.iter().map(|&i| vals[i].clone()).collect();
        Tuple::new(out)
    }

    /// Return a tuple owning exactly its own values. A no-op for tuples
    /// that already own their whole block; a partial view into a shared
    /// batch block is copied out. Long-term retainers whose memory
    /// accounting must track *freeable* bytes (the bucketed join tables,
    /// whose overflow flushes release their charge) detach on insert —
    /// otherwise one retained row would pin its entire batch block while
    /// the books claim only the slice.
    pub fn detach(self) -> Tuple {
        if self.len as usize == self.block.len() {
            self
        } else {
            Tuple::new(self.values().to_vec())
        }
    }

    /// Approximate resident memory footprint in bytes: the shared buffer
    /// plus the `Arc` header. Charged once per owning container by the
    /// memory manager; clones of the same tuple share the buffer, but each
    /// hash-table entry retains it, so operators charge per retained clone
    /// (a deliberate, conservative over-count matching the paper's model of
    /// "memory holds M tuples").
    pub fn mem_size(&self) -> usize {
        TUPLE_HEADER_BYTES + self.values().iter().map(Value::mem_size).sum::<usize>()
    }
}

impl PartialEq for Tuple {
    fn eq(&self, other: &Self) -> bool {
        self.values() == other.values()
    }
}

impl Eq for Tuple {}

impl Hash for Tuple {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.values().hash(state);
    }
}

impl fmt::Debug for Tuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.values().iter()).finish()
    }
}

impl fmt::Display for Tuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("(")?;
        for (i, v) in self.values().iter().enumerate() {
            if i > 0 {
                f.write_str(", ")?;
            }
            write!(f, "{v}")?;
        }
        f.write_str(")")
    }
}

impl From<Vec<Value>> for Tuple {
    fn from(values: Vec<Value>) -> Self {
        Tuple::new(values)
    }
}

/// Convenience macro for building tuples in tests and examples:
/// `tuple![1, "a", 2.5]`.
#[macro_export]
macro_rules! tuple {
    ($($v:expr),* $(,)?) => {
        $crate::Tuple::new(vec![$($crate::Value::from($v)),*])
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Value;
    use proptest::prelude::*;

    #[test]
    fn build_and_access() {
        let t = Tuple::new(vec![Value::Int(1), Value::str("x")]);
        assert_eq!(t.arity(), 2);
        assert_eq!(t.value(0), &Value::Int(1));
        assert_eq!(t.get(1), Some(&Value::str("x")));
        assert_eq!(t.get(2), None);
    }

    #[test]
    fn concat_preserves_order() {
        let a = tuple![1, 2];
        let b = tuple!["x"];
        let c = a.concat(&b);
        assert_eq!(c.arity(), 3);
        assert_eq!(c.value(0), &Value::Int(1));
        assert_eq!(c.value(2), &Value::str("x"));
    }

    #[test]
    fn concat_with_empty_is_identity() {
        let a = tuple![1, "y"];
        assert_eq!(a.concat(&Tuple::empty()), a);
        assert_eq!(Tuple::empty().concat(&a), a);
    }

    #[test]
    fn project_reorders() {
        let t = tuple![10, 20, 30];
        let p = t.project(&[2, 0]);
        assert_eq!(p, tuple![30, 10]);
    }

    #[test]
    fn detach_unshares_partial_views_only() {
        let block: Arc<[Value]> = vec![Value::Int(1), Value::Int(2), Value::Int(3)].into();
        let whole = Tuple::view(block.clone(), 0, 3);
        let part = Tuple::view(block.clone(), 1, 2);
        // whole-block view: no copy
        let whole_ptr = whole.values().as_ptr();
        assert!(std::ptr::eq(whole.detach().values().as_ptr(), whole_ptr));
        // partial view: copied into its own buffer, values preserved
        let detached = part.clone().detach();
        assert_eq!(detached, part);
        assert!(!std::ptr::eq(
            detached.values().as_ptr(),
            part.values().as_ptr()
        ));
    }

    #[test]
    fn view_tuples_share_one_block() {
        let block: Arc<[Value]> =
            vec![Value::Int(1), Value::Int(2), Value::str("x"), Value::Int(3)].into();
        let a = Tuple::view(block.clone(), 0, 2);
        let b = Tuple::view(block.clone(), 2, 2);
        assert_eq!(a, tuple![1, 2]);
        assert_eq!(b, tuple!["x", 3]);
        // same underlying buffer, disjoint ranges
        assert!(std::ptr::eq(
            a.values().as_ptr().wrapping_add(2),
            b.values().as_ptr()
        ));
    }

    #[test]
    fn clone_is_shallow() {
        let t = tuple![1, "some string payload"];
        let u = t.clone();
        // Same underlying buffer.
        assert!(std::ptr::eq(t.values().as_ptr(), u.values().as_ptr()));
    }

    #[test]
    fn mem_size_grows_with_payload() {
        let small = tuple![1];
        let big = tuple![1, 2, 3, "a long string that takes space"];
        assert!(big.mem_size() > small.mem_size());
    }

    #[test]
    fn display_formats() {
        assert_eq!(tuple![1, "a"].to_string(), "(1, a)");
        assert_eq!(Tuple::empty().to_string(), "()");
    }

    proptest! {
        #[test]
        fn prop_concat_arity(xs in proptest::collection::vec(0i64..100, 0..8),
                             ys in proptest::collection::vec(0i64..100, 0..8)) {
            let a = Tuple::new(xs.iter().copied().map(Value::Int).collect());
            let b = Tuple::new(ys.iter().copied().map(Value::Int).collect());
            let c = a.concat(&b);
            prop_assert_eq!(c.arity(), a.arity() + b.arity());
            for (i, x) in xs.iter().enumerate() {
                prop_assert_eq!(c.value(i), &Value::Int(*x));
            }
            for (j, y) in ys.iter().enumerate() {
                prop_assert_eq!(c.value(xs.len() + j), &Value::Int(*y));
            }
        }

        #[test]
        fn prop_project_identity(xs in proptest::collection::vec(0i64..100, 1..8)) {
            let t = Tuple::new(xs.iter().copied().map(Value::Int).collect());
            let all: Vec<usize> = (0..t.arity()).collect();
            prop_assert_eq!(t.project(&all), t);
        }
    }
}
