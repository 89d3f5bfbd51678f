//! Batches of tuples — the unit of data flow between operators.
//!
//! The iterator model moves one tuple per virtual call; every hot path then
//! pays dynamic dispatch, channel synchronization, and statistics updates
//! *per tuple*. A [`TupleBatch`] amortizes all three: operators exchange
//! blocks of tuples sharing one schema, sized by the engine's configured
//! batch capacity (ADQUEX-style block routing — adaptivity decides *where*
//! tuples go, batching decides *how many* move per decision).
//!
//! A batch is a [`ColumnarBatch`]: typed per-column vectors with validity
//! bitmaps, the one form in which data moves between operators, crosses
//! the wire and rests in spill files (DESIGN.md §11). Rows exist only on
//! request, through the allocating [`TupleBatch::to_rows`].
//!
//! Invariants relied on across the engine:
//! * every batch handed between operators is **non-empty** (end of stream
//!   is signalled out-of-band by `Option::None`);
//! * all tuples in a batch share the producing operator's output schema;
//! * [`TupleBatch::mem_size`] is what the rows would report as
//!   `Tuple::mem_size` in total, computed from the columns.

use std::collections::VecDeque;

use crate::column::{ColumnarBatch, Selection};
use crate::tuple::Tuple;

/// Default number of tuples per batch when the engine is not configured
/// otherwise. Large enough to amortize per-batch overhead, small enough to
/// keep time-to-first-output and rule-reaction latency low.
pub const DEFAULT_BATCH_CAPACITY: usize = 256;

/// A block of tuples sharing one schema, held as typed columns.
#[derive(Clone, Debug, Default)]
pub struct TupleBatch {
    cols: ColumnarBatch,
}

/// Equality is over the tuples: which column buffers hold them is an
/// execution detail.
impl PartialEq for TupleBatch {
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len() && self.to_rows() == other.to_rows()
    }
}

impl TupleBatch {
    /// Wrap a columnar batch.
    pub fn from_columns(cols: ColumnarBatch) -> Self {
        TupleBatch { cols }
    }

    /// The batch's columns, for the typed kernels.
    pub fn columns(&self) -> &ColumnarBatch {
        &self.cols
    }

    /// Consume the batch, yielding its columns.
    pub fn into_columns(self) -> ColumnarBatch {
        self.cols
    }

    /// Apply a predicate [`Selection`] by value: `Some(self)` untouched on
    /// all-pass, `None` on none-pass (the caller skips the empty batch),
    /// and a gathered batch otherwise. This is `Filter`'s exit.
    pub fn select(self, sel: &Selection) -> Option<TupleBatch> {
        debug_assert_eq!(sel.len(), self.len());
        if sel.is_all() {
            return Some(self);
        }
        if sel.is_none() {
            return None;
        }
        Some(TupleBatch::from_columns(self.cols.gather(&sel.indices())))
    }

    /// Keep only the first `n` tuples (quota enforcement), slicing the
    /// columns.
    pub fn truncate(&mut self, n: usize) {
        if n < self.len() {
            self.cols = self.cols.slice(0, n);
        }
    }

    /// Number of tuples in the batch.
    pub fn len(&self) -> usize {
        self.cols.len()
    }

    /// Whether the batch holds no tuples.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Approximate resident memory of all tuples in the batch (tuple
    /// headers + per-value base + string payloads), from the columns.
    pub fn mem_size(&self) -> usize {
        self.cols.mem_size()
    }

    /// The tuples, newly allocated: for the reference oracle and tests.
    pub fn to_rows(&self) -> Vec<Tuple> {
        self.cols.to_rows()
    }
}

impl From<ColumnarBatch> for TupleBatch {
    fn from(cols: ColumnarBatch) -> Self {
        TupleBatch::from_columns(cols)
    }
}

/// A FIFO of produced-but-unemitted join output: whole gathered blocks,
/// each at most the producer's batch size, handed back oldest first.
#[derive(Default)]
pub struct OutputQueue {
    ready: VecDeque<TupleBatch>,
    rows: usize,
}

impl OutputQueue {
    /// An empty queue.
    pub fn new() -> Self {
        OutputQueue::default()
    }

    /// Total rows pending.
    pub fn len(&self) -> usize {
        self.rows
    }

    /// Whether nothing is pending.
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// Append an already-gathered block (a vectorized probe's output).
    /// Callers keep blocks at or under their batch size.
    pub fn extend_block(&mut self, b: TupleBatch) {
        if b.is_empty() {
            return;
        }
        self.rows += b.len();
        self.ready.push_back(b);
    }

    /// Pop the oldest pending block. `None` when empty.
    pub fn pop_block(&mut self) -> Option<TupleBatch> {
        let b = self.ready.pop_front()?;
        self.rows -= b.len();
        Some(b)
    }

    /// Drop everything pending.
    pub fn clear(&mut self) {
        self.ready.clear();
        self.rows = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column::Bitmap;
    use crate::testing::{batch, columns};
    use crate::tuple;

    #[test]
    fn truncate_slices_columns_and_releases_memory() {
        let rows: Vec<Tuple> = (0..4i64).map(|i| tuple![i]).collect();
        let mut b = batch(&rows);
        b.truncate(2);
        assert_eq!(b.to_rows(), &rows[..2]);
        assert_eq!(b.mem_size(), 2 * rows[0].mem_size());
        b.truncate(5); // no-op past the end
        assert_eq!(b.len(), 2);
    }

    #[test]
    fn equality_ignores_provenance() {
        let rows = vec![tuple![1, "a"], tuple![2, "b"]];
        let fresh = batch(&rows);
        let gathered = TupleBatch::from_columns(
            columns(&[tuple![0, "z"], rows[0].clone(), rows[1].clone()]).gather(&[1, 2]),
        );
        assert_eq!(fresh, gathered);
        assert_ne!(fresh, batch(&rows[..1]));
    }

    #[test]
    fn select_fast_paths_and_gather() {
        let rows: Vec<Tuple> = (0..5i64).map(|i| tuple![i]).collect();
        let b = batch(&rows);
        let col_before = std::sync::Arc::as_ptr(b.columns().col_shared(0));
        let all = b.clone().select(&Selection::keep_all(5)).unwrap();
        assert_eq!(all, b);
        // all-pass leaves the column buffers shared, untouched
        assert!(std::ptr::eq(
            col_before,
            std::sync::Arc::as_ptr(all.columns().col_shared(0))
        ));
        assert!(b.clone().select(&Selection::keep_none(5)).is_none());
        let mut bits = Bitmap::all_clear(5);
        bits.set(1);
        bits.set(3);
        let some = b.select(&Selection::from_bitmap(bits)).unwrap();
        assert_eq!(some.to_rows(), &[tuple![1], tuple![3]]);
    }

    #[test]
    fn columnar_mem_size_matches_row_sum() {
        let rows = vec![tuple![1, "abcd", 2.5], tuple![2, "ef", 3.5]];
        let want: usize = rows.iter().map(Tuple::mem_size).sum();
        assert_eq!(
            batch(&rows).mem_size(),
            want,
            "columnar accounting ≡ row accounting"
        );
    }

    #[test]
    fn output_queue_blocks_and_order() {
        let mut q = OutputQueue::new();
        assert!(q.is_empty());
        for i in 0..5i64 {
            q.extend_block(batch(&[tuple![i, i * 10], tuple![i, i * 10 + 1]]));
        }
        q.extend_block(TupleBatch::default());
        assert_eq!(q.len(), 10);
        let mut all = Vec::new();
        while let Some(b) = q.pop_block() {
            assert_eq!(b.len(), 2, "blocks come back whole");
            all.extend(b.to_rows());
        }
        assert!(q.is_empty());
        let want: Vec<Tuple> = (0..5i64)
            .flat_map(|i| [tuple![i, i * 10], tuple![i, i * 10 + 1]])
            .collect();
        assert_eq!(all, want);
    }

    #[test]
    fn output_queue_clear() {
        let mut q = OutputQueue::new();
        q.extend_block(batch(&[tuple![3]]));
        q.clear();
        assert!(q.is_empty());
        assert!(q.pop_block().is_none());
    }
}
