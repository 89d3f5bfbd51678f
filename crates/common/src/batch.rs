//! Batches of tuples — the unit of data flow between operators.
//!
//! The iterator model moves one tuple per virtual call; every hot path then
//! pays dynamic dispatch, channel synchronization, and statistics updates
//! *per tuple*. A [`TupleBatch`] amortizes all three: operators exchange
//! blocks of tuples sharing one schema, sized by the engine's configured
//! batch capacity (ADQUEX-style block routing — adaptivity decides *where*
//! tuples go, batching decides *how many* move per decision).
//!
//! A batch carries one of two physical representations (DESIGN.md §11):
//!
//! * **row-major** — a `Vec<Tuple>` of views into shared value blocks, as
//!   built by the join emit paths and legacy producers;
//! * **columnar** — a [`ColumnarBatch`] of typed per-column vectors with
//!   validity bitmaps, as produced by sources, scans, and the typed emit
//!   assemblers. Columnar batches feed the vectorized kernels (predicate
//!   selection bitmaps, key prehashing, gather); the row view is
//!   materialized **lazily** — at most once, cached — so every row-oriented
//!   consumer keeps working unchanged through [`TupleBatch::tuples`].
//!
//! Invariants relied on across the engine:
//! * every batch handed between operators is **non-empty** (end of stream
//!   is signalled out-of-band by `Option::None`);
//! * all tuples in a batch share the producing operator's output schema;
//! * [`TupleBatch::mem_size`] is maintained incrementally for
//!   producer-built batches (charging a whole source batch to a memory
//!   reservation is O(1)); batches assembled by the join emit path defer
//!   accounting until someone asks. Columnar batches compute the identical
//!   figure from column payloads without materializing rows.

use std::collections::VecDeque;
use std::fmt;
use std::sync::{Arc, OnceLock};

use crate::column::{Bitmap, ColumnarBatch, Selection};
use crate::tuple::Tuple;
use crate::value::Value;

/// Default number of tuples per batch when the engine is not configured
/// otherwise. Large enough to amortize per-batch overhead, small enough to
/// keep time-to-first-output and rule-reaction latency low.
pub const DEFAULT_BATCH_CAPACITY: usize = 256;

/// Memory accounting state of a row-major [`TupleBatch`]: maintained
/// incrementally for producer-built batches, deferred for assembled output
/// blocks (whose `mem_size` is rarely read — computing it eagerly would put
/// a full value walk on every join's emit path).
#[derive(Clone, Copy, Debug)]
enum MemSize {
    /// Exact cached size, updated on `push`/`truncate`.
    Exact(usize),
    /// Not yet computed; `mem_size()` walks the tuples on demand.
    Lazy,
}

/// The physical representation behind a [`TupleBatch`].
#[derive(Clone)]
enum Repr {
    /// Row-major: tuples as views into shared value blocks.
    Rows { tuples: Vec<Tuple>, mem: MemSize },
    /// Columnar: typed vectors + validity bitmaps, with the row view
    /// materialized lazily (at most once) for row-oriented consumers.
    Columns {
        cols: ColumnarBatch,
        rows: OnceLock<Vec<Tuple>>,
    },
}

/// A block of tuples sharing one schema, with cached memory accounting and
/// an optional columnar representation feeding the vectorized kernels.
#[derive(Clone)]
pub struct TupleBatch {
    repr: Repr,
    capacity: usize,
}

/// Equality is over the tuples only: `capacity` is a producer hint,
/// `mem_size` is derived, and the physical representation (row-major vs
/// columnar) is an execution detail, so batches with the same content
/// compare equal regardless of how they were built.
impl PartialEq for TupleBatch {
    fn eq(&self, other: &Self) -> bool {
        self.tuples() == other.tuples()
    }
}

impl Eq for TupleBatch {}

impl TupleBatch {
    /// An empty batch with the default target capacity.
    pub fn new() -> Self {
        Self::with_capacity(DEFAULT_BATCH_CAPACITY)
    }

    /// An empty batch with a target capacity of `capacity` tuples.
    pub fn with_capacity(capacity: usize) -> Self {
        let cap = capacity.max(1);
        TupleBatch {
            repr: Repr::Rows {
                tuples: Vec::with_capacity(cap.min(4096)),
                mem: MemSize::Exact(0),
            },
            capacity: cap,
        }
    }

    /// Wrap an existing vector of tuples (capacity = its length).
    /// Accounting is deferred: `mem_size()` walks on demand.
    pub fn from_tuples(tuples: Vec<Tuple>) -> Self {
        let capacity = tuples.len().max(1);
        TupleBatch {
            repr: Repr::Rows {
                tuples,
                mem: MemSize::Lazy,
            },
            capacity,
        }
    }

    /// Wrap a columnar batch (capacity = its length). The row view stays
    /// unmaterialized until a consumer asks for [`TupleBatch::tuples`].
    pub fn from_columns(cols: ColumnarBatch) -> Self {
        let capacity = cols.len().max(1);
        TupleBatch {
            repr: Repr::Columns {
                cols,
                rows: OnceLock::new(),
            },
            capacity,
        }
    }

    /// Assemble from sealed parts with deferred accounting — putting a
    /// full value walk on every sealed block would tax the join emit path
    /// for a size that is rarely read.
    pub(crate) fn from_parts(tuples: Vec<Tuple>, capacity: usize) -> Self {
        TupleBatch {
            repr: Repr::Rows {
                tuples,
                mem: MemSize::Lazy,
            },
            capacity: capacity.max(1),
        }
    }

    /// The columnar representation, when this batch carries one. Kernel
    /// call sites branch here: `Some` takes the typed vectorized path,
    /// `None` falls back to the row loop.
    pub fn columns(&self) -> Option<&ColumnarBatch> {
        match &self.repr {
            Repr::Columns { cols, .. } => Some(cols),
            Repr::Rows { .. } => None,
        }
    }

    /// Force the representation to row-major (materializing at most once)
    /// and return the mutable tuple vector. Mutation invalidates exact
    /// accounting, so the result is marked lazy.
    fn rows_mut(&mut self) -> &mut Vec<Tuple> {
        if let Repr::Columns { cols, rows } = &mut self.repr {
            let tuples = match std::mem::take(rows).into_inner() {
                Some(t) => t,
                None => cols.materialize_rows(),
            };
            self.repr = Repr::Rows {
                tuples,
                mem: MemSize::Lazy,
            };
        }
        match &mut self.repr {
            Repr::Rows { tuples, mem } => {
                *mem = MemSize::Lazy;
                tuples
            }
            Repr::Columns { .. } => unreachable!("converted above"),
        }
    }

    /// Keep only tuples matching `pred`, in place — the batch-native filter
    /// primitive. Evaluates in two phases: first a keep-bitmap over the
    /// rows, then a single structural apply, so **all-pass batches are left
    /// untouched** (no buffer traffic at all) and **none-pass batches are
    /// emptied wholesale** without per-row work. Columnar batches stay
    /// columnar (the bitmap is applied by gather).
    pub fn retain(&mut self, mut pred: impl FnMut(&Tuple) -> bool) {
        let n = self.len();
        if n == 0 {
            return;
        }
        let mut keep = Bitmap::all_clear(n);
        let mut kept = 0usize;
        for (i, t) in self.tuples().iter().enumerate() {
            if pred(t) {
                keep.set(i);
                kept += 1;
            }
        }
        self.apply_keep(&keep, kept);
    }

    /// Apply a keep-bitmap (with known popcount) structurally.
    fn apply_keep(&mut self, keep: &Bitmap, kept: usize) {
        debug_assert_eq!(keep.len(), self.len());
        if kept == self.len() {
            return; // all-pass: representation untouched
        }
        if kept == 0 {
            // none-pass: drop everything in one shot
            self.repr = Repr::Rows {
                tuples: Vec::new(),
                mem: MemSize::Exact(0),
            };
            return;
        }
        match &mut self.repr {
            Repr::Rows { tuples, mem } => {
                let mut i = 0usize;
                match mem {
                    MemSize::Exact(m) => {
                        tuples.retain(|t| {
                            let k = keep.get(i);
                            i += 1;
                            if !k {
                                *m -= t.mem_size();
                            }
                            k
                        });
                    }
                    MemSize::Lazy => {
                        tuples.retain(|_| {
                            let k = keep.get(i);
                            i += 1;
                            k
                        });
                    }
                }
            }
            Repr::Columns { cols, rows } => {
                *cols = cols.gather(&keep.set_indices());
                *rows = OnceLock::new();
            }
        }
    }

    /// Apply a predicate [`Selection`] by value: `Some(self)` untouched on
    /// all-pass, `None` on none-pass (the caller skips the empty batch),
    /// and a gathered batch otherwise. This is `Filter`'s vectorized exit:
    /// no row materialization on any path when the batch is columnar.
    pub fn select(self, sel: &Selection) -> Option<TupleBatch> {
        debug_assert_eq!(sel.len(), self.len());
        if sel.is_all() {
            return Some(self);
        }
        if sel.is_none() {
            return None;
        }
        let capacity = self.capacity;
        match self.repr {
            Repr::Columns { cols, .. } => Some(TupleBatch {
                repr: Repr::Columns {
                    cols: cols.gather(&sel.indices()),
                    rows: OnceLock::new(),
                },
                capacity,
            }),
            Repr::Rows { tuples, .. } => {
                let kept: Vec<Tuple> = tuples
                    .into_iter()
                    .enumerate()
                    .filter_map(|(i, t)| sel.get(i).then_some(t))
                    .collect();
                Some(TupleBatch {
                    repr: Repr::Rows {
                        tuples: kept,
                        mem: MemSize::Lazy,
                    },
                    capacity,
                })
            }
        }
    }

    /// Append a tuple, updating the cached memory size (when exact).
    /// Converts a columnar batch to rows first — producers that grow
    /// batches incrementally build row-major.
    pub fn push(&mut self, t: Tuple) {
        match &mut self.repr {
            Repr::Rows { tuples, mem } => {
                if let MemSize::Exact(m) = mem {
                    *m += t.mem_size();
                }
                tuples.push(t);
            }
            Repr::Columns { .. } => self.rows_mut().push(t),
        }
    }

    /// Append every tuple of `iter`.
    pub fn extend<I: IntoIterator<Item = Tuple>>(&mut self, iter: I) {
        for t in iter {
            self.push(t);
        }
    }

    /// Keep only the first `n` tuples (quota enforcement), releasing the
    /// rest from the cached memory size. Columnar batches slice their
    /// columns (no row materialization).
    pub fn truncate(&mut self, n: usize) {
        if n >= self.len() {
            return;
        }
        match &mut self.repr {
            Repr::Rows { tuples, mem } => {
                if let MemSize::Exact(m) = mem {
                    *m -= tuples[n..].iter().map(Tuple::mem_size).sum::<usize>();
                }
                tuples.truncate(n);
            }
            Repr::Columns { cols, rows } => {
                *cols = cols.slice(0, n);
                *rows = OnceLock::new();
            }
        }
    }

    /// Number of tuples in the batch (no row materialization).
    pub fn len(&self) -> usize {
        match &self.repr {
            Repr::Rows { tuples, .. } => tuples.len(),
            Repr::Columns { cols, .. } => cols.len(),
        }
    }

    /// Whether the batch holds no tuples.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Target capacity (producers stop filling at this size).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Approximate resident memory of all tuples in the batch: maintained
    /// incrementally on `push`/`truncate` for producer-built row batches,
    /// computed on demand for assembled blocks. For columnar batches the
    /// identical figure (tuple headers + per-value base + string payloads)
    /// is computed from the columns without materializing rows.
    pub fn mem_size(&self) -> usize {
        match &self.repr {
            Repr::Rows { tuples, mem } => match mem {
                MemSize::Exact(m) => *m,
                MemSize::Lazy => tuples.iter().map(Tuple::mem_size).sum(),
            },
            Repr::Columns { cols, .. } => cols.mem_size(),
        }
    }

    /// The tuples as a slice. For columnar batches the row views are
    /// materialized **lazily into one shared block** on first call and
    /// cached — the compatibility adapter row-oriented operators rely on.
    pub fn tuples(&self) -> &[Tuple] {
        match &self.repr {
            Repr::Rows { tuples, .. } => tuples,
            Repr::Columns { cols, rows } => rows.get_or_init(|| cols.materialize_rows()),
        }
    }

    /// Checked tuple accessor.
    pub fn get(&self, idx: usize) -> Option<&Tuple> {
        self.tuples().get(idx)
    }

    /// Iterate the tuples by reference.
    pub fn iter(&self) -> std::slice::Iter<'_, Tuple> {
        self.tuples().iter()
    }

    /// Consume the batch, yielding its tuples (reuses the cached row
    /// materialization when present).
    pub fn into_tuples(self) -> Vec<Tuple> {
        match self.repr {
            Repr::Rows { tuples, .. } => tuples,
            Repr::Columns { cols, rows } => match rows.into_inner() {
                Some(t) => t,
                None => cols.materialize_rows(),
            },
        }
    }
}

impl Default for TupleBatch {
    fn default() -> Self {
        TupleBatch::new()
    }
}

impl fmt::Debug for TupleBatch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (repr, mem): (&str, &dyn fmt::Debug) = match &self.repr {
            Repr::Rows { mem, .. } => ("rows", mem),
            Repr::Columns { .. } => ("columns", &"FromColumns"),
        };
        f.debug_struct("TupleBatch")
            .field("len", &self.len())
            .field("repr", &repr)
            .field("mem_size", mem)
            .finish()
    }
}

impl From<Vec<Tuple>> for TupleBatch {
    fn from(tuples: Vec<Tuple>) -> Self {
        TupleBatch::from_tuples(tuples)
    }
}

impl From<ColumnarBatch> for TupleBatch {
    fn from(cols: ColumnarBatch) -> Self {
        TupleBatch::from_columns(cols)
    }
}

impl IntoIterator for TupleBatch {
    type Item = Tuple;
    type IntoIter = std::vec::IntoIter<Tuple>;
    fn into_iter(self) -> Self::IntoIter {
        self.into_tuples().into_iter()
    }
}

impl<'a> IntoIterator for &'a TupleBatch {
    type Item = &'a Tuple;
    type IntoIter = std::slice::Iter<'a, Tuple>;
    fn into_iter(self) -> Self::IntoIter {
        self.tuples().iter()
    }
}

impl FromIterator<Tuple> for TupleBatch {
    fn from_iter<I: IntoIterator<Item = Tuple>>(iter: I) -> Self {
        TupleBatch::from_tuples(iter.into_iter().collect())
    }
}

/// Allocation-free row assembly: accumulates projected output rows into
/// **one** shared value buffer and seals them into a [`TupleBatch`] whose
/// tuples are views of that block. `Project`'s row path pays one buffer +
/// one `Arc` allocation per batch instead of one `Vec` + one `Arc` per row.
pub struct BatchAssembler {
    capacity: usize,
    values: Vec<Value>,
    /// Row end offsets into `values` (row `i` spans `ends[i-1]..ends[i]`).
    ends: Vec<u32>,
}

impl BatchAssembler {
    /// An assembler sealing batches of `capacity` rows.
    pub fn new(capacity: usize) -> Self {
        BatchAssembler {
            capacity: capacity.max(1),
            values: Vec::new(),
            ends: Vec::new(),
        }
    }

    #[inline]
    fn end_row(&mut self) {
        self.ends.push(self.values.len() as u32);
        if self.ends.len() == 1 {
            // Rows in one batch share a schema, so the first row's width
            // predicts the whole block: reserve it once instead of paying
            // doubling reallocs (and their copies) across the batch.
            self.values.reserve(self.values.len() * (self.capacity - 1));
            self.ends.reserve(self.capacity - 1);
        }
    }

    /// Append `t` projected onto `indices` as one row.
    #[inline]
    pub fn push_project(&mut self, t: &Tuple, indices: &[usize]) {
        let vals = t.values();
        for &i in indices {
            self.values.push(vals[i].clone());
        }
        self.end_row();
    }

    /// Seal everything buffered into one batch sharing a single value
    /// block; `None` when empty. The assembler is reusable afterwards.
    /// Memory accounting of the sealed batch is deferred (computed if and
    /// when someone asks).
    pub fn seal(&mut self) -> Option<TupleBatch> {
        if self.ends.is_empty() {
            return None;
        }
        let block: Arc<[Value]> = std::mem::take(&mut self.values).into();
        let mut tuples = Vec::with_capacity(self.ends.len());
        let mut start = 0usize;
        for &end in &self.ends {
            tuples.push(Tuple::view(block.clone(), start, end as usize - start));
            start = end as usize;
        }
        self.ends.clear();
        Some(TupleBatch::from_parts(tuples, self.capacity))
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
    use crate::tuple;

    #[test]
    fn push_and_access() {
        let mut b = TupleBatch::with_capacity(4);
        assert!(b.is_empty());
        b.push(tuple![1, "a"]);
        b.push(tuple![2, "b"]);
        assert_eq!(b.len(), 2);
        assert_eq!(b.get(0), Some(&tuple![1, "a"]));
        assert_eq!(b.get(2), None);
        assert_eq!(b.tuples().len(), 2);
    }

    #[test]
    fn mem_size_tracks_incrementally() {
        let mut b = TupleBatch::new();
        assert_eq!(b.mem_size(), 0);
        let t = tuple![1, "payload string"];
        let expect = t.mem_size();
        b.push(t.clone());
        assert_eq!(b.mem_size(), expect);
        b.push(t);
        assert_eq!(b.mem_size(), 2 * expect);
        // matches a fresh sum over the contents
        let sum: usize = b.iter().map(Tuple::mem_size).sum();
        assert_eq!(b.mem_size(), sum);
    }

    #[test]
    fn truncate_releases_memory() {
        let mut b = TupleBatch::from_tuples(vec![tuple![1], tuple![2], tuple![3]]);
        let one = tuple![1].mem_size();
        b.truncate(1);
        assert_eq!(b.len(), 1);
        assert_eq!(b.mem_size(), one);
        b.truncate(5); // no-op past the end
        assert_eq!(b.len(), 1);
    }

    #[test]
    fn zero_capacity_clamped() {
        let b = TupleBatch::with_capacity(0);
        assert_eq!(b.capacity(), 1);
    }

    #[test]
    fn iteration_by_ref_and_value() {
        let b = TupleBatch::from_tuples(vec![tuple![1], tuple![2]]);
        let by_ref: Vec<i64> = b.iter().map(|t| t.value(0).as_int().unwrap()).collect();
        assert_eq!(by_ref, vec![1, 2]);
        let by_val: Vec<Tuple> = b.into_iter().collect();
        assert_eq!(by_val, vec![tuple![1], tuple![2]]);
    }

    #[test]
    fn from_iterator_collects() {
        let b: TupleBatch = (0..3i64).map(|i| tuple![i]).collect();
        assert_eq!(b.len(), 3);
        assert_eq!(b.capacity(), 3);
    }

    #[test]
    fn equality_ignores_capacity_and_provenance() {
        let a = TupleBatch::from_tuples(vec![tuple![1], tuple![2]]);
        let mut b = TupleBatch::with_capacity(64);
        b.push(tuple![1]);
        b.push(tuple![2]);
        assert_eq!(a, b);
        b.push(tuple![3]);
        assert_ne!(a, b);
        // columnar vs row-major with equal content compare equal
        let c = TupleBatch::from_columns(ColumnarBatch::from_rows(&[tuple![1], tuple![2]]));
        assert_eq!(a, c);
    }

    #[test]
    fn retain_updates_mem_size() {
        let mut b = TupleBatch::from_tuples(vec![tuple![1], tuple![2], tuple![3], tuple![4]]);
        b.retain(|t| t.value(0).as_int().unwrap() % 2 == 0);
        assert_eq!(b.tuples(), &[tuple![2], tuple![4]]);
        let sum: usize = b.iter().map(Tuple::mem_size).sum();
        assert_eq!(b.mem_size(), sum);
    }

    /// Satellite: all-pass retain must not touch the rows at all — the
    /// backing buffer is the same allocation before and after.
    #[test]
    fn retain_all_pass_leaves_rows_untouched() {
        let mut b = TupleBatch::from_tuples(vec![tuple![1], tuple![2], tuple![3]]);
        let before = b.tuples().as_ptr();
        let mem_before = b.mem_size();
        b.retain(|_| true);
        assert_eq!(b.len(), 3);
        assert!(std::ptr::eq(before, b.tuples().as_ptr()));
        assert_eq!(b.mem_size(), mem_before);
        // columnar all-pass keeps the columnar representation (and the
        // shared column buffers) intact
        let mut c = TupleBatch::from_columns(ColumnarBatch::from_rows(&[tuple![1], tuple![2]]));
        let col_before = std::sync::Arc::as_ptr(c.columns().unwrap().col_shared(0));
        c.retain(|_| true);
        let cols = c.columns().expect("still columnar");
        assert!(std::ptr::eq(
            col_before,
            std::sync::Arc::as_ptr(cols.col_shared(0))
        ));
    }

    /// Satellite: none-pass retain empties the batch wholesale — exact
    /// zero accounting, no per-row arithmetic.
    #[test]
    fn retain_none_pass_short_circuits() {
        let mut b = TupleBatch::from_tuples(vec![tuple![1, "abc"], tuple![2, "def"]]);
        b.retain(|_| false);
        assert!(b.is_empty());
        assert_eq!(b.mem_size(), 0);
        let mut c = TupleBatch::from_columns(ColumnarBatch::from_rows(&[tuple![1], tuple![2]]));
        c.retain(|_| false);
        assert!(c.is_empty());
        assert_eq!(c.mem_size(), 0);
    }

    #[test]
    fn retain_partial_keeps_columnar_repr() {
        let rows: Vec<Tuple> = (0..6i64).map(|i| tuple![i]).collect();
        let mut b = TupleBatch::from_columns(ColumnarBatch::from_rows(&rows));
        b.retain(|t| t.value(0).as_int().unwrap() % 2 == 0);
        assert!(b.columns().is_some(), "partial retain stays columnar");
        assert_eq!(b.tuples(), &[tuple![0], tuple![2], tuple![4]]);
        let sum: usize = b.iter().map(Tuple::mem_size).sum();
        assert_eq!(b.mem_size(), sum);
    }

    #[test]
    fn select_fast_paths_and_gather() {
        let rows: Vec<Tuple> = (0..5i64).map(|i| tuple![i]).collect();
        let b = TupleBatch::from_columns(ColumnarBatch::from_rows(&rows));
        let all = b.clone().select(&Selection::keep_all(5)).unwrap();
        assert_eq!(all, b);
        assert!(b.clone().select(&Selection::keep_none(5)).is_none());
        let mut bits = Bitmap::all_clear(5);
        bits.set(1);
        bits.set(3);
        let some = b.select(&Selection::from_bitmap(bits)).unwrap();
        assert!(some.columns().is_some());
        assert_eq!(some.tuples(), &[tuple![1], tuple![3]]);
        // row-major batches select too
        let r = TupleBatch::from_tuples(rows);
        let mut bits = Bitmap::all_clear(5);
        bits.set(0);
        let one = r.select(&Selection::from_bitmap(bits)).unwrap();
        assert_eq!(one.tuples(), &[tuple![0]]);
    }

    #[test]
    fn columnar_mem_size_matches_row_sum() {
        let rows = vec![tuple![1, "abcd", 2.5], tuple![2, "ef", 3.5]];
        let want: usize = rows.iter().map(Tuple::mem_size).sum();
        let b = TupleBatch::from_columns(ColumnarBatch::from_rows(&rows));
        assert_eq!(b.mem_size(), want, "columnar accounting ≡ row accounting");
    }

    #[test]
    fn columnar_push_converts_to_rows() {
        let mut b = TupleBatch::from_columns(ColumnarBatch::from_rows(&[tuple![1]]));
        b.push(tuple![2]);
        assert!(b.columns().is_none());
        assert_eq!(b.tuples(), &[tuple![1], tuple![2]]);
    }

    #[test]
    fn columnar_truncate_slices_columns() {
        let rows: Vec<Tuple> = (0..4i64).map(|i| tuple![i]).collect();
        let mut b = TupleBatch::from_columns(ColumnarBatch::from_rows(&rows));
        b.truncate(2);
        assert!(b.columns().is_some());
        assert_eq!(b.tuples(), &rows[..2]);
    }

    #[test]
    fn assembler_rows_share_one_block() {
        let mut asm = BatchAssembler::new(4);
        asm.push_project(&tuple![1, "x", 2.5], &[0, 1, 2]);
        asm.push_project(&tuple![10, 20, 30], &[2, 0]);
        asm.push_project(&tuple![7, 8], &[0]);
        let batch = asm.seal().unwrap();
        assert_eq!(batch.len(), 3);
        assert_eq!(batch.get(0), Some(&tuple![1, "x", 2.5]));
        assert_eq!(batch.get(1), Some(&tuple![30, 10]));
        assert_eq!(batch.get(2), Some(&tuple![7]));
        // mem accounting matches a fresh sum (from_parts debug-asserts too)
        let sum: usize = batch.iter().map(Tuple::mem_size).sum();
        assert_eq!(batch.mem_size(), sum);
        // rows share one block: consecutive rows are adjacent in memory
        let r0 = batch.get(0).unwrap().values().as_ptr();
        let r1 = batch.get(1).unwrap().values().as_ptr();
        assert!(std::ptr::eq(r0.wrapping_add(3), r1));
        // assembler reusable after seal
        assert!(asm.seal().is_none());
        asm.push_project(&tuple![9], &[0]);
        assert_eq!(asm.seal().unwrap().len(), 1);
    }

    #[test]
    fn output_queue_blocks_and_order() {
        let mut q = OutputQueue::new();
        assert!(q.is_empty());
        for i in 0..5i64 {
            q.extend_block(TupleBatch::from_tuples(vec![
                tuple![i, i * 10],
                tuple![i, i * 10 + 1],
            ]));
        }
        q.extend_block(TupleBatch::new());
        assert_eq!(q.len(), 10);
        let mut all = Vec::new();
        while let Some(b) = q.pop_block() {
            assert_eq!(b.len(), 2, "blocks come back whole");
            all.extend(b);
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
        q.extend_block(TupleBatch::from_tuples(vec![tuple![3]]));
        q.clear();
        assert!(q.is_empty());
        assert!(q.pop_block().is_none());
    }
}
