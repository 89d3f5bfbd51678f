//! Columnar batch layout: typed column vectors, validity bitmaps, and
//! type-specialized kernels.
//!
//! The row-major `Tuple` representation pays a `Value` enum discriminant
//! branch per field per row on every filter, hash, and compare. A
//! [`ColumnarBatch`] stores the same block of rows as per-column typed
//! vectors ([`Column`]): `Int64`/`Float64`/`Str`/`Date` payloads with an
//! optional validity [`Bitmap`] for NULLs, plus a [`Column::Values`]
//! fallback for heterogeneous columns. Strings are shared immutable
//! segments plus per-row references ([`StrColumn`]), so moving them costs
//! what moving integers costs. Kernels then run tight loops over native slices:
//!
//! * **predicate evaluation** produces a selection [`Bitmap`] without
//!   materializing rows (`Filter` intersects bitmaps instead of rebuilding
//!   batches);
//! * **key prehashing** ([`Column::hash_append`]) produces the per-row hash
//!   vector the joins, exchange routing, and bucketed tables consume,
//!   replicating the row path's `Value::hash` byte sequence exactly so
//!   bucket/partition routing is byte-stable across representations;
//! * **gather** ([`Column::gather`]) applies a selection by index — late
//!   materialization instead of row-wise rebuilds.
//!
//! Rows are still available everywhere: [`ColumnarBatch::materialize_rows`]
//! builds the whole block's `Tuple` views in one shared allocation, and
//! `TupleBatch` caches that lazily, so operators migrate to columnar
//! kernels incrementally.

use std::sync::Arc;

use crate::hash::FxHasher;
use crate::schema::Schema;
use crate::tuple::{Tuple, TUPLE_HEADER_BYTES};
use crate::value::{DataType, Value, VALUE_BASE_BYTES};
use std::hash::{Hash, Hasher};

/// A fixed-length bitmap (one bit per row). Used both for column validity
/// (set = non-NULL) and for predicate selections (set = row passes). Bits
/// past `len` in the last word are always zero.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Bitmap {
    words: Vec<u64>,
    len: usize,
}

impl Bitmap {
    /// A bitmap of `len` zero bits.
    pub fn all_clear(len: usize) -> Bitmap {
        Bitmap {
            words: vec![0; len.div_ceil(64)],
            len,
        }
    }

    /// A bitmap of `len` one bits.
    pub fn all_set(len: usize) -> Bitmap {
        let mut b = Bitmap {
            words: vec![!0u64; len.div_ceil(64)],
            len,
        };
        b.mask_tail();
        b
    }

    fn mask_tail(&mut self) {
        let tail = self.len % 64;
        if tail != 0 {
            if let Some(w) = self.words.last_mut() {
                *w &= (1u64 << tail) - 1;
            }
        }
    }

    /// Number of bits.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the bitmap covers zero rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Bit `i`.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        debug_assert!(i < self.len);
        (self.words[i / 64] >> (i % 64)) & 1 != 0
    }

    /// Set bit `i`.
    #[inline]
    pub fn set(&mut self, i: usize) {
        debug_assert!(i < self.len);
        self.words[i / 64] |= 1u64 << (i % 64);
    }

    /// Clear bit `i`.
    #[inline]
    pub fn clear(&mut self, i: usize) {
        debug_assert!(i < self.len);
        self.words[i / 64] &= !(1u64 << (i % 64));
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Whether every bit is set.
    pub fn is_all_set(&self) -> bool {
        self.count_ones() == self.len
    }

    /// Whether no bit is set.
    pub fn is_all_clear(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// `self &= other` (bitmap intersect). Panics if lengths differ.
    pub fn and_assign(&mut self, other: &Bitmap) {
        assert_eq!(self.len, other.len, "bitmap length mismatch");
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= b;
        }
    }

    /// `self |= other`. Panics if lengths differ.
    pub fn or_assign(&mut self, other: &Bitmap) {
        assert_eq!(self.len, other.len, "bitmap length mismatch");
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a |= b;
        }
    }

    /// `self = !self` (tail bits stay zero).
    pub fn not_assign(&mut self) {
        for w in &mut self.words {
            *w = !*w;
        }
        self.mask_tail();
    }

    /// Indices of the set bits, ascending.
    pub fn set_indices(&self) -> Vec<u32> {
        let mut out = Vec::with_capacity(self.count_ones());
        for (wi, &w) in self.words.iter().enumerate() {
            let mut bits = w;
            while bits != 0 {
                let b = bits.trailing_zeros();
                out.push((wi * 64) as u32 + b);
                bits &= bits - 1;
            }
        }
        out
    }
}

/// A selection over a batch: the rows a predicate kept. Wraps a [`Bitmap`]
/// with a cached population count so the all-pass / none-pass fast paths
/// are O(1) checks at every consumer.
#[derive(Debug, Clone)]
pub struct Selection {
    bits: Bitmap,
    count: usize,
}

impl Selection {
    /// Wrap a bitmap (counts the set bits once).
    pub fn from_bitmap(bits: Bitmap) -> Selection {
        let count = bits.count_ones();
        Selection { bits, count }
    }

    /// A selection keeping every one of `len` rows.
    pub fn keep_all(len: usize) -> Selection {
        Selection {
            bits: Bitmap::all_set(len),
            count: len,
        }
    }

    /// A selection keeping none of `len` rows.
    pub fn keep_none(len: usize) -> Selection {
        Selection {
            bits: Bitmap::all_clear(len),
            count: 0,
        }
    }

    /// Rows covered.
    pub fn len(&self) -> usize {
        self.bits.len()
    }

    /// Whether the selection covers zero rows.
    pub fn is_empty(&self) -> bool {
        self.bits.len() == 0
    }

    /// Rows kept.
    pub fn count(&self) -> usize {
        self.count
    }

    /// Whether every row is kept (the pass-through fast path).
    pub fn is_all(&self) -> bool {
        self.count == self.bits.len()
    }

    /// Whether no row is kept (the drop fast path).
    pub fn is_none(&self) -> bool {
        self.count == 0
    }

    /// Whether row `i` is kept.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        self.bits.get(i)
    }

    /// The underlying bitmap.
    pub fn bitmap(&self) -> &Bitmap {
        &self.bits
    }

    /// Indices of the kept rows, ascending.
    pub fn indices(&self) -> Vec<u32> {
        self.bits.set_indices()
    }

    /// Intersect with another selection (`retain` becomes a bitmap AND).
    pub fn intersect(&mut self, other: &Selection) {
        self.bits.and_assign(&other.bits);
        self.count = self.bits.count_ones();
    }
}

// ---------------------------------------------------------------------------
// Typed hash kernels
// ---------------------------------------------------------------------------
//
// Each kernel replicates `Value::hash` through `FxHasher` *by construction*:
// it performs the identical `Hash` calls (type-tag byte, then payload), so
// hash(column kernel) ≡ hash(per-tuple `JoinKey`) for every type — bucket
// and partition routing are byte-stable across the row/columnar refactor.
// Pinned by `hash_kernel_matches_value_hash` below and the exec-side
// equivalence suite.

#[inline]
fn hash_int_into(h: &mut FxHasher, v: i64) {
    0u8.hash(h);
    v.hash(h);
}

#[inline]
fn hash_double_into(h: &mut FxHasher, v: f64) {
    1u8.hash(h);
    v.to_bits().hash(h);
}

#[inline]
fn hash_str_into(h: &mut FxHasher, v: &str) {
    2u8.hash(h);
    v.hash(h);
}

#[inline]
fn hash_date_into(h: &mut FxHasher, v: i32) {
    3u8.hash(h);
    v.hash(h);
}

#[inline]
fn finish_one(f: impl FnOnce(&mut FxHasher)) -> u64 {
    let mut h = FxHasher::new();
    f(&mut h);
    h.finish()
}

// ---------------------------------------------------------------------------
// StrColumn
// ---------------------------------------------------------------------------

/// An immutable run of strings. Columns share segments and never copy or
/// grow them.
type Segment = Arc<[Arc<str>]>;

/// The payload of a [`Column::Str`]: shared immutable **segments** of
/// strings plus one reference per row (segment number in the high half,
/// offset within the segment in the low half).
///
/// `slice`, `gather`, `append`, `clone` and drop copy integers and touch
/// one refcount per *segment* instead of one per string, so a string column
/// moves through scans, joins and concatenation at the cost of an integer
/// column. A column built from strings (a table, a builder, a decoded
/// frame) is one segment; appending a column with other segments adds them
/// to the list, whoever else holds them — nothing already stored is copied
/// or moved, so a column can keep growing while derived columns are alive.
/// A derived column *pins* the segments its rows reference (the source
/// table's strings stay alive while any slice of them does) but is
/// *accounted* logically: [`Column::payload_bytes`] counts only the strings
/// its rows reference. Row access still hands out the same `Arc<str>` for
/// one refcount bump ([`Column::value_at`]).
#[derive(Clone, Default)]
pub struct StrColumn {
    /// At most one entry per run of rows from one source segment, so no
    /// more than there are rows (an empty column may still list one); a
    /// segment may be listed more than once.
    segs: Vec<Segment>,
    rows: Vec<u64>,
}

const OFFSET_BITS: u32 = 32;
const OFFSET_MASK: u64 = (1 << OFFSET_BITS) - 1;

impl StrColumn {
    /// Rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the column holds no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    #[inline]
    fn get(&self, row_ref: u64) -> &Arc<str> {
        &self.segs[(row_ref >> OFFSET_BITS) as usize][(row_ref & OFFSET_MASK) as usize]
    }

    /// The rows' strings, in row order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = &Arc<str>> + '_ {
        self.rows.iter().map(|&r| self.get(r))
    }

    /// A column of the given rows of `self`, listing only the segments they
    /// reference: one entry (one refcount bump) per run of rows from the
    /// same segment, the run's references renumbered to it.
    fn pick(&self, mut rows: Vec<u64>) -> StrColumn {
        if let [only] = self.segs.as_slice() {
            // One segment (anything derived from one table): every reference
            // is already numbered to it. Skipping the run scan below is 5 %
            // of `cpu_join`'s p50.
            return StrColumn {
                segs: vec![only.clone()],
                rows,
            };
        }
        let mut segs: Vec<Segment> = Vec::new();
        for run in rows.chunk_by_mut(|a, b| a >> OFFSET_BITS == b >> OFFSET_BITS) {
            let to = (segs.len() as u64) << OFFSET_BITS;
            segs.push(self.segs[(run[0] >> OFFSET_BITS) as usize].clone());
            for r in run {
                *r = to | (*r & OFFSET_MASK);
            }
        }
        StrColumn { segs, rows }
    }

    fn slice(&self, start: usize, end: usize) -> StrColumn {
        self.pick(self.rows[start..end].to_vec())
    }

    fn gather(&self, rows: &[u32]) -> StrColumn {
        self.pick(rows.iter().map(|&r| self.rows[r as usize]).collect())
    }

    /// Append `other`'s rows: references only when both list the same
    /// segments, otherwise `other`'s segments join the list (one refcount
    /// bump each) and its references are renumbered past the existing ones.
    fn append(&mut self, other: &StrColumn) {
        if other.is_empty() {
            return;
        }
        if self.is_empty() {
            self.segs.clear();
        }
        let same = self.segs.len() == other.segs.len()
            && self
                .segs
                .iter()
                .zip(&other.segs)
                .all(|(a, b)| Arc::ptr_eq(a, b));
        if same {
            self.rows.extend_from_slice(&other.rows);
        } else {
            let shift = (self.segs.len() as u64) << OFFSET_BITS;
            self.segs.extend(other.segs.iter().cloned());
            self.rows.extend(other.rows.iter().map(|r| r + shift));
        }
    }
}

impl From<Vec<Arc<str>>> for StrColumn {
    /// A column over one new segment, one entry per row.
    fn from(strings: Vec<Arc<str>>) -> StrColumn {
        debug_assert!(strings.len() as u64 <= OFFSET_MASK);
        StrColumn {
            rows: (0..strings.len() as u64).collect(),
            segs: vec![strings.into()],
        }
    }
}

/// The string at row `i`.
impl std::ops::Index<usize> for StrColumn {
    type Output = Arc<str>;
    #[inline]
    fn index(&self, i: usize) -> &Arc<str> {
        self.get(self.rows[i])
    }
}

/// Equality is over the rows' strings; which segments hold them is an
/// execution detail.
impl PartialEq for StrColumn {
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len() && self.iter().eq(other.iter())
    }
}

impl std::fmt::Debug for StrColumn {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

// ---------------------------------------------------------------------------
// Column
// ---------------------------------------------------------------------------

/// One column of a [`ColumnarBatch`]: a typed vector plus an optional
/// validity bitmap (`None` = no NULLs; a clear bit marks SQL NULL, with the
/// payload slot holding a type default). Columns whose values do not fit
/// one type degrade to the [`Column::Values`] fallback.
#[derive(Debug, Clone, PartialEq)]
pub enum Column {
    /// 64-bit integers.
    Int64(Vec<i64>, Option<Bitmap>),
    /// 64-bit floats (bit-stable: NaN and -0.0 round-trip exactly).
    Float64(Vec<f64>, Option<Bitmap>),
    /// Strings: shared segments plus per-row references ([`StrColumn`]).
    Str(StrColumn, Option<Bitmap>),
    /// Days since the epoch.
    Date(Vec<i32>, Option<Bitmap>),
    /// Heterogeneous fallback: a plain value vector.
    Values(Vec<Value>),
}

impl Column {
    /// Number of rows.
    pub fn len(&self) -> usize {
        match self {
            Column::Int64(v, _) => v.len(),
            Column::Float64(v, _) => v.len(),
            Column::Str(v, _) => v.len(),
            Column::Date(v, _) => v.len(),
            Column::Values(v) => v.len(),
        }
    }

    /// Whether the column holds no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The validity bitmap, when the column is typed and has NULLs.
    pub fn validity(&self) -> Option<&Bitmap> {
        match self {
            Column::Int64(_, v)
            | Column::Float64(_, v)
            | Column::Str(_, v)
            | Column::Date(_, v) => v.as_ref(),
            Column::Values(_) => None,
        }
    }

    /// Typed accessor: `(payload, validity)` for an `Int64` column.
    pub fn as_int64(&self) -> Option<(&[i64], Option<&Bitmap>)> {
        match self {
            Column::Int64(v, b) => Some((v, b.as_ref())),
            _ => None,
        }
    }

    /// Typed accessor for a `Float64` column.
    pub fn as_float64(&self) -> Option<(&[f64], Option<&Bitmap>)> {
        match self {
            Column::Float64(v, b) => Some((v, b.as_ref())),
            _ => None,
        }
    }

    /// Typed accessor for a `Str` column.
    pub fn as_str_col(&self) -> Option<(&StrColumn, Option<&Bitmap>)> {
        match self {
            Column::Str(v, b) => Some((v, b.as_ref())),
            _ => None,
        }
    }

    /// Typed accessor for a `Date` column.
    pub fn as_date(&self) -> Option<(&[i32], Option<&Bitmap>)> {
        match self {
            Column::Date(v, b) => Some((v, b.as_ref())),
            _ => None,
        }
    }

    #[inline]
    fn valid(validity: &Option<Bitmap>, i: usize) -> bool {
        validity.as_ref().is_none_or(|b| b.get(i))
    }

    /// The value at row `i` as an owned [`Value`] (string rows cost one
    /// refcount bump).
    pub fn value_at(&self, i: usize) -> Value {
        match self {
            Column::Int64(v, b) => {
                if Self::valid(b, i) {
                    Value::Int(v[i])
                } else {
                    Value::Null
                }
            }
            Column::Float64(v, b) => {
                if Self::valid(b, i) {
                    Value::Double(v[i])
                } else {
                    Value::Null
                }
            }
            Column::Str(v, b) => {
                if Self::valid(b, i) {
                    Value::Str(v[i].clone())
                } else {
                    Value::Null
                }
            }
            Column::Date(v, b) => {
                if Self::valid(b, i) {
                    Value::Date(v[i])
                } else {
                    Value::Null
                }
            }
            Column::Values(v) => v[i].clone(),
        }
    }

    /// Bytes of payload beyond the per-value base charge (string bytes) —
    /// the columnar `mem_size` formula's variable part, matching what the
    /// materialized rows would report.
    pub fn payload_bytes(&self) -> usize {
        match self {
            Column::Str(v, b) => v
                .iter()
                .enumerate()
                .filter(|(i, _)| Self::valid(b, *i))
                .map(|(_, s)| s.len())
                .sum(),
            Column::Values(v) => v
                .iter()
                .map(|x| x.mem_size() - crate::value::VALUE_BASE_BYTES)
                .sum(),
            _ => 0,
        }
    }

    /// Copy rows `start..end` into a new column.
    pub fn slice(&self, start: usize, end: usize) -> Column {
        fn slice_validity(b: &Option<Bitmap>, start: usize, end: usize) -> Option<Bitmap> {
            b.as_ref().map(|bm| {
                let mut out = Bitmap::all_clear(end - start);
                for i in start..end {
                    if bm.get(i) {
                        out.set(i - start);
                    }
                }
                out
            })
        }
        match self {
            Column::Int64(v, b) => {
                Column::Int64(v[start..end].to_vec(), slice_validity(b, start, end))
            }
            Column::Float64(v, b) => {
                Column::Float64(v[start..end].to_vec(), slice_validity(b, start, end))
            }
            Column::Str(v, b) => Column::Str(v.slice(start, end), slice_validity(b, start, end)),
            Column::Date(v, b) => {
                Column::Date(v[start..end].to_vec(), slice_validity(b, start, end))
            }
            Column::Values(v) => Column::Values(v[start..end].to_vec()),
        }
    }

    /// Gather rows by index into a new column (late materialization).
    pub fn gather(&self, idx: &[u32]) -> Column {
        fn gather_validity(b: &Option<Bitmap>, idx: &[u32]) -> Option<Bitmap> {
            b.as_ref().map(|bm| {
                let mut out = Bitmap::all_clear(idx.len());
                for (o, &i) in idx.iter().enumerate() {
                    if bm.get(i as usize) {
                        out.set(o);
                    }
                }
                out
            })
        }
        match self {
            Column::Int64(v, b) => Column::Int64(
                idx.iter().map(|&i| v[i as usize]).collect(),
                gather_validity(b, idx),
            ),
            Column::Float64(v, b) => Column::Float64(
                idx.iter().map(|&i| v[i as usize]).collect(),
                gather_validity(b, idx),
            ),
            Column::Str(v, b) => Column::Str(v.gather(idx), gather_validity(b, idx)),
            Column::Date(v, b) => Column::Date(
                idx.iter().map(|&i| v[i as usize]).collect(),
                gather_validity(b, idx),
            ),
            Column::Values(v) => {
                Column::Values(idx.iter().map(|&i| v[i as usize].clone()).collect())
            }
        }
    }

    /// Reserve capacity for at least `additional` more rows in the value
    /// buffer (bulk append paths size their destination once up front).
    pub fn reserve(&mut self, additional: usize) {
        match self {
            Column::Int64(v, _) => v.reserve(additional),
            Column::Float64(v, _) => v.reserve(additional),
            Column::Str(v, _) => v.rows.reserve(additional),
            Column::Date(v, _) => v.reserve(additional),
            Column::Values(v) => v.reserve(additional),
        }
    }

    /// Append `other`'s rows onto `self`. Returns `false` (leaving `self`
    /// untouched) when the variants differ — the caller falls back to rows.
    pub fn append(&mut self, other: &Column) -> bool {
        fn merge_validity(
            dst: &mut Option<Bitmap>,
            dst_len: usize,
            src: &Option<Bitmap>,
            src_len: usize,
        ) {
            if dst.is_none() && src.is_none() {
                return;
            }
            let mut out = Bitmap::all_clear(dst_len + src_len);
            for i in 0..dst_len {
                if dst.as_ref().is_none_or(|b| b.get(i)) {
                    out.set(i);
                }
            }
            for i in 0..src_len {
                if src.as_ref().is_none_or(|b| b.get(i)) {
                    out.set(dst_len + i);
                }
            }
            *dst = Some(out);
        }
        match (self, other) {
            (Column::Int64(a, ab), Column::Int64(b, bb)) => {
                merge_validity(ab, a.len(), bb, b.len());
                a.extend_from_slice(b);
                true
            }
            (Column::Float64(a, ab), Column::Float64(b, bb)) => {
                merge_validity(ab, a.len(), bb, b.len());
                a.extend_from_slice(b);
                true
            }
            (Column::Str(a, ab), Column::Str(b, bb)) => {
                merge_validity(ab, a.len(), bb, b.len());
                a.append(b);
                true
            }
            (Column::Date(a, ab), Column::Date(b, bb)) => {
                merge_validity(ab, a.len(), bb, b.len());
                a.extend_from_slice(b);
                true
            }
            (Column::Values(a), Column::Values(b)) => {
                a.extend_from_slice(b);
                true
            }
            _ => false,
        }
    }

    /// Whether `other` is the same variant, i.e. [`Column::append`] would
    /// accept it.
    fn same_kind(&self, other: &Column) -> bool {
        std::mem::discriminant(self) == std::mem::discriminant(other)
    }

    /// [`Column::append`] that never refuses: when the variants differ,
    /// `self` is widened in place to [`Column::Values`] (once — a column
    /// already widened stays so) and `other`'s rows join it as values.
    fn append_widening(&mut self, other: &Column) {
        if self.append(other) {
            return;
        }
        let values = |c: &Column| (0..c.len()).map(|i| c.value_at(i)).collect::<Vec<_>>();
        if !matches!(self, Column::Values(_)) {
            *self = Column::Values(values(self));
        }
        if let Column::Values(v) = self {
            v.extend(values(other));
        }
    }

    /// Whether row `i` equals row `j` of `other` under `Value` equality
    /// (doubles by bits, no cross-type numeric equality), for rows that
    /// are not NULL — join key confirmation after a prehash match, typed
    /// so no `Value` is built when the variants agree.
    pub fn eq_at(&self, i: usize, other: &Column, j: usize) -> bool {
        match (self, other) {
            (Column::Int64(a, _), Column::Int64(b, _)) => a[i] == b[j],
            (Column::Float64(a, _), Column::Float64(b, _)) => a[i].to_bits() == b[j].to_bits(),
            (Column::Str(a, _), Column::Str(b, _)) => a[i] == b[j],
            (Column::Date(a, _), Column::Date(b, _)) => a[i] == b[j],
            _ => self.value_at(i) == other.value_at(j),
        }
    }

    /// Write this column's rows into a row-major block at stride `ncols`,
    /// offset `c` (the materialization inner loop). Slots for NULL rows are
    /// left untouched (the caller pre-fills with `Value::Null`).
    fn write_strided(&self, block: &mut [Value], c: usize, ncols: usize) {
        match self {
            Column::Int64(v, b) => {
                for (i, &x) in v.iter().enumerate() {
                    if Self::valid(b, i) {
                        block[i * ncols + c] = Value::Int(x);
                    }
                }
            }
            Column::Float64(v, b) => {
                for (i, &x) in v.iter().enumerate() {
                    if Self::valid(b, i) {
                        block[i * ncols + c] = Value::Double(x);
                    }
                }
            }
            Column::Str(v, b) => {
                for (i, x) in v.iter().enumerate() {
                    if Self::valid(b, i) {
                        block[i * ncols + c] = Value::Str(x.clone());
                    }
                }
            }
            Column::Date(v, b) => {
                for (i, &x) in v.iter().enumerate() {
                    if Self::valid(b, i) {
                        block[i * ncols + c] = Value::Date(x);
                    }
                }
            }
            Column::Values(v) => {
                for (i, x) in v.iter().enumerate() {
                    block[i * ncols + c] = x.clone();
                }
            }
        }
    }

    /// Single-column key prehash kernel: append one `Option<u64>` per row
    /// (`None` = NULL key; such rows never join). Produces exactly the
    /// per-tuple `fx_hash(Value)` of the row path.
    pub fn hash_append(&self, out: &mut Vec<Option<u64>>) {
        match self {
            Column::Int64(v, b) => match b {
                None => out.extend(v.iter().map(|&x| Some(finish_one(|h| hash_int_into(h, x))))),
                Some(bm) => out.extend(
                    v.iter()
                        .enumerate()
                        .map(|(i, &x)| bm.get(i).then(|| finish_one(|h| hash_int_into(h, x)))),
                ),
            },
            Column::Float64(v, b) => match b {
                None => out.extend(
                    v.iter()
                        .map(|&x| Some(finish_one(|h| hash_double_into(h, x)))),
                ),
                Some(bm) => out.extend(
                    v.iter()
                        .enumerate()
                        .map(|(i, &x)| bm.get(i).then(|| finish_one(|h| hash_double_into(h, x)))),
                ),
            },
            Column::Str(v, b) => match b {
                None => out.extend(v.iter().map(|x| Some(finish_one(|h| hash_str_into(h, x))))),
                Some(bm) => out.extend(
                    v.iter()
                        .enumerate()
                        .map(|(i, x)| bm.get(i).then(|| finish_one(|h| hash_str_into(h, x)))),
                ),
            },
            Column::Date(v, b) => match b {
                None => out.extend(
                    v.iter()
                        .map(|&x| Some(finish_one(|h| hash_date_into(h, x)))),
                ),
                Some(bm) => out.extend(
                    v.iter()
                        .enumerate()
                        .map(|(i, &x)| bm.get(i).then(|| finish_one(|h| hash_date_into(h, x)))),
                ),
            },
            Column::Values(v) => out.extend(v.iter().map(|x| {
                if x.is_null() {
                    None
                } else {
                    Some(crate::hash::fx_hash(x))
                }
            })),
        }
    }

    /// Composite-key kernel step: fold this column's values into the per-row
    /// hasher states (`None` = a NULL component was seen; the row's key
    /// never joins). Feeding the columns of a composite key left-to-right
    /// reproduces `KeyVector::hash_tuple_key` exactly.
    pub fn hash_fold(&self, acc: &mut [Option<FxHasher>]) {
        debug_assert_eq!(acc.len(), self.len());
        match self {
            Column::Int64(v, b) => {
                for (i, &x) in v.iter().enumerate() {
                    match &mut acc[i] {
                        Some(h) if Self::valid(b, i) => hash_int_into(h, x),
                        slot => *slot = if Self::valid(b, i) { slot.take() } else { None },
                    }
                }
            }
            Column::Float64(v, b) => {
                for (i, &x) in v.iter().enumerate() {
                    match &mut acc[i] {
                        Some(h) if Self::valid(b, i) => hash_double_into(h, x),
                        slot => *slot = if Self::valid(b, i) { slot.take() } else { None },
                    }
                }
            }
            Column::Str(v, b) => {
                for (i, x) in v.iter().enumerate() {
                    match &mut acc[i] {
                        Some(h) if Self::valid(b, i) => hash_str_into(h, x),
                        slot => *slot = if Self::valid(b, i) { slot.take() } else { None },
                    }
                }
            }
            Column::Date(v, b) => {
                for (i, &x) in v.iter().enumerate() {
                    match &mut acc[i] {
                        Some(h) if Self::valid(b, i) => hash_date_into(h, x),
                        slot => *slot = if Self::valid(b, i) { slot.take() } else { None },
                    }
                }
            }
            Column::Values(v) => {
                for (i, x) in v.iter().enumerate() {
                    match (&mut acc[i], x.is_null()) {
                        (Some(h), false) => x.hash(h),
                        (slot, true) => *slot = None,
                        _ => {}
                    }
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// ColumnBuilder
// ---------------------------------------------------------------------------

/// Incrementally builds one [`Column`] from values. Starts typed (by schema
/// hint or first non-NULL value) and degrades to [`Column::Values`] if a
/// mismatched value arrives — schema lies cost performance, never
/// correctness.
#[derive(Debug)]
pub enum ColumnBuilder {
    /// Only NULLs seen so far (type not yet decided).
    Pending(usize),
    /// Building an `Int64` column; `nulls` holds NULL row indices.
    Int64(Vec<i64>, Vec<u32>),
    /// Building a `Float64` column.
    Float64(Vec<f64>, Vec<u32>),
    /// Building a `Str` column.
    Str(Vec<Arc<str>>, Vec<u32>),
    /// Building a `Date` column.
    Date(Vec<i32>, Vec<u32>),
    /// Heterogeneous fallback.
    Values(Vec<Value>),
}

fn nulls_to_validity(len: usize, nulls: &[u32]) -> Option<Bitmap> {
    if nulls.is_empty() {
        return None;
    }
    let mut b = Bitmap::all_set(len);
    for &i in nulls {
        b.clear(i as usize);
    }
    Some(b)
}

impl ColumnBuilder {
    /// An empty builder typed by a schema [`DataType`] hint.
    pub fn for_type(dt: DataType) -> ColumnBuilder {
        match dt {
            DataType::Int => ColumnBuilder::Int64(Vec::new(), Vec::new()),
            DataType::Double => ColumnBuilder::Float64(Vec::new(), Vec::new()),
            DataType::Str => ColumnBuilder::Str(Vec::new(), Vec::new()),
            DataType::Date => ColumnBuilder::Date(Vec::new(), Vec::new()),
            DataType::Null => ColumnBuilder::Values(Vec::new()),
        }
    }

    /// An empty builder that decides its type from the first non-NULL value.
    pub fn auto() -> ColumnBuilder {
        ColumnBuilder::Pending(0)
    }

    /// Rows pushed so far.
    pub fn len(&self) -> usize {
        match self {
            ColumnBuilder::Pending(n) => *n,
            ColumnBuilder::Int64(v, _) => v.len(),
            ColumnBuilder::Float64(v, _) => v.len(),
            ColumnBuilder::Str(v, _) => v.len(),
            ColumnBuilder::Date(v, _) => v.len(),
            ColumnBuilder::Values(v) => v.len(),
        }
    }

    /// Whether no rows have been pushed.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn degrade(&mut self) {
        let values = match std::mem::replace(self, ColumnBuilder::Values(Vec::new())) {
            ColumnBuilder::Pending(n) => vec![Value::Null; n],
            ColumnBuilder::Int64(v, nulls) => rebuild(v, &nulls, Value::Int),
            ColumnBuilder::Float64(v, nulls) => rebuild(v, &nulls, Value::Double),
            ColumnBuilder::Str(v, nulls) => rebuild(v, &nulls, Value::Str),
            ColumnBuilder::Date(v, nulls) => rebuild(v, &nulls, Value::Date),
            ColumnBuilder::Values(v) => v,
        };
        *self = ColumnBuilder::Values(values);

        fn rebuild<T>(vals: Vec<T>, nulls: &[u32], wrap: impl Fn(T) -> Value) -> Vec<Value> {
            let mut ni = 0usize;
            vals.into_iter()
                .enumerate()
                .map(|(i, x)| {
                    if ni < nulls.len() && nulls[ni] as usize == i {
                        ni += 1;
                        Value::Null
                    } else {
                        wrap(x)
                    }
                })
                .collect()
        }
    }

    /// Append one value.
    #[inline]
    pub fn push(&mut self, v: &Value) {
        match (&mut *self, v) {
            (ColumnBuilder::Int64(vals, _), Value::Int(x)) => vals.push(*x),
            (ColumnBuilder::Float64(vals, _), Value::Double(x)) => vals.push(*x),
            (ColumnBuilder::Str(vals, _), Value::Str(x)) => vals.push(x.clone()),
            (ColumnBuilder::Date(vals, _), Value::Date(x)) => vals.push(*x),
            (ColumnBuilder::Values(vals), v) => vals.push(v.clone()),
            (ColumnBuilder::Pending(n), Value::Null) => *n += 1,
            (ColumnBuilder::Pending(n), v) => {
                let nulls: Vec<u32> = (0..*n as u32).collect();
                let pending = *n;
                *self = match v {
                    Value::Int(x) => {
                        let mut vals = vec![0i64; pending];
                        vals.push(*x);
                        ColumnBuilder::Int64(vals, nulls)
                    }
                    Value::Double(x) => {
                        let mut vals = vec![0f64; pending];
                        vals.push(*x);
                        ColumnBuilder::Float64(vals, nulls)
                    }
                    Value::Str(x) => {
                        let empty: Arc<str> = Arc::from("");
                        let mut vals = vec![empty; pending];
                        vals.push(x.clone());
                        ColumnBuilder::Str(vals, nulls)
                    }
                    Value::Date(x) => {
                        let mut vals = vec![0i32; pending];
                        vals.push(*x);
                        ColumnBuilder::Date(vals, nulls)
                    }
                    Value::Null => unreachable!("handled above"),
                };
            }
            (ColumnBuilder::Int64(vals, nulls), Value::Null) => {
                nulls.push(vals.len() as u32);
                vals.push(0);
            }
            (ColumnBuilder::Float64(vals, nulls), Value::Null) => {
                nulls.push(vals.len() as u32);
                vals.push(0.0);
            }
            (ColumnBuilder::Str(vals, nulls), Value::Null) => {
                nulls.push(vals.len() as u32);
                vals.push(Arc::from(""));
            }
            (ColumnBuilder::Date(vals, nulls), Value::Null) => {
                nulls.push(vals.len() as u32);
                vals.push(0);
            }
            // Type mismatch: degrade to the fallback and retry.
            _ => {
                self.degrade();
                self.push(v);
            }
        }
    }

    /// Finish into a [`Column`].
    pub fn finish(self) -> Column {
        match self {
            ColumnBuilder::Pending(n) => Column::Values(vec![Value::Null; n]),
            ColumnBuilder::Int64(v, nulls) => {
                let validity = nulls_to_validity(v.len(), &nulls);
                Column::Int64(v, validity)
            }
            ColumnBuilder::Float64(v, nulls) => {
                let validity = nulls_to_validity(v.len(), &nulls);
                Column::Float64(v, validity)
            }
            ColumnBuilder::Str(v, nulls) => {
                let validity = nulls_to_validity(v.len(), &nulls);
                Column::Str(v.into(), validity)
            }
            ColumnBuilder::Date(v, nulls) => {
                let validity = nulls_to_validity(v.len(), &nulls);
                Column::Date(v, validity)
            }
            ColumnBuilder::Values(v) => Column::Values(v),
        }
    }
}

// ---------------------------------------------------------------------------
// ColumnarBatch
// ---------------------------------------------------------------------------

/// A block of rows stored column-major: `cols[c]` holds row values for
/// column `c`, every column the same length. Columns are `Arc`-shared so
/// projection and batch slicing by whole columns are refcount bumps.
#[derive(Debug, Clone, Default)]
pub struct ColumnarBatch {
    len: usize,
    cols: Vec<Arc<Column>>,
}

impl ColumnarBatch {
    /// Assemble from columns (all must share `len` rows).
    pub fn new(len: usize, cols: Vec<Column>) -> ColumnarBatch {
        debug_assert!(cols.iter().all(|c| c.len() == len));
        ColumnarBatch {
            len,
            cols: cols.into_iter().map(Arc::new).collect(),
        }
    }

    /// Assemble from already-shared columns.
    pub fn from_shared(len: usize, cols: Vec<Arc<Column>>) -> ColumnarBatch {
        debug_assert!(cols.iter().all(|c| c.len() == len));
        ColumnarBatch { len, cols }
    }

    /// Convert a slice of rows (type inferred per column from the data).
    pub fn from_rows(rows: &[Tuple]) -> ColumnarBatch {
        let ncols = rows.first().map_or(0, Tuple::arity);
        let mut builders: Vec<ColumnBuilder> = (0..ncols).map(|_| ColumnBuilder::auto()).collect();
        for t in rows {
            debug_assert_eq!(t.arity(), ncols, "ragged rows in columnar conversion");
            for (b, v) in builders.iter_mut().zip(t.values()) {
                b.push(v);
            }
        }
        ColumnarBatch::new(
            rows.len(),
            builders.into_iter().map(ColumnBuilder::finish).collect(),
        )
    }

    /// Rows.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the batch holds no rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Columns.
    pub fn num_cols(&self) -> usize {
        self.cols.len()
    }

    /// Column `c`.
    pub fn col(&self, c: usize) -> &Column {
        &self.cols[c]
    }

    /// Shared handle to column `c`.
    pub fn col_shared(&self, c: usize) -> &Arc<Column> {
        &self.cols[c]
    }

    /// Project onto `indices` — shares the column buffers (refcount bumps,
    /// no data copy): the columnar late-materialization win for `Project`.
    pub fn project(&self, indices: &[usize]) -> ColumnarBatch {
        ColumnarBatch {
            len: self.len,
            cols: indices.iter().map(|&i| self.cols[i].clone()).collect(),
        }
    }

    /// Copy rows `start..end` into a new batch.
    pub fn slice(&self, start: usize, end: usize) -> ColumnarBatch {
        debug_assert!(start <= end && end <= self.len);
        ColumnarBatch {
            len: end - start,
            cols: self
                .cols
                .iter()
                .map(|c| Arc::new(c.slice(start, end)))
                .collect(),
        }
    }

    /// Gather rows by index into a new batch (apply a selection).
    pub fn gather(&self, idx: &[u32]) -> ColumnarBatch {
        ColumnarBatch {
            len: idx.len(),
            cols: self.cols.iter().map(|c| Arc::new(c.gather(idx))).collect(),
        }
    }

    /// Append `other`'s rows in place, growing this batch's own column
    /// buffers (an empty batch adopts `other`'s columns, shared). Returns
    /// `false`, leaving `self` untouched, when the layouts disagree
    /// (column count or a column's variant).
    pub fn append(&mut self, other: &ColumnarBatch) -> bool {
        if self.len == 0 && self.cols.is_empty() {
            *self = other.clone();
            return true;
        }
        if self.cols.len() != other.cols.len()
            || !self
                .cols
                .iter()
                .zip(&other.cols)
                .all(|(a, b)| a.same_kind(b))
        {
            return false;
        }
        for (dst, src) in self.cols.iter_mut().zip(&other.cols) {
            Arc::make_mut(dst).append(src);
        }
        self.len += other.len;
        true
    }

    /// Append `other`'s rows in place whatever the column variants: a
    /// column whose variant differs from `other`'s is widened to
    /// [`Column::Values`] (see [`ColumnarBatch::append`] for the strict
    /// form). The column counts must agree.
    pub fn append_widening(&mut self, other: &ColumnarBatch) {
        if self.append(other) {
            return;
        }
        debug_assert_eq!(self.cols.len(), other.cols.len(), "batch widths differ");
        for (dst, src) in self.cols.iter_mut().zip(&other.cols) {
            Arc::make_mut(dst).append_widening(src);
        }
        self.len += other.len;
    }

    /// Concatenate many batches column-wise. Returns `None` when layouts
    /// disagree (column count or a column's type) — the caller falls back
    /// to row concatenation. A single input batch shares its column `Arc`s
    /// (no copy); otherwise every destination buffer is reserved to the
    /// total row count up front so appending never reallocates mid-stream.
    pub fn concat<'a>(batches: impl Iterator<Item = &'a ColumnarBatch>) -> Option<ColumnarBatch> {
        let batches: Vec<&ColumnarBatch> = batches.collect();
        let (first, rest) = batches.split_first()?;
        let mut out = (*first).clone();
        if rest.is_empty() {
            return Some(out);
        }
        let more: usize = rest.iter().map(|b| b.len).sum();
        for c in &mut out.cols {
            Arc::make_mut(c).reserve(more);
        }
        rest.iter().all(|b| out.append(b)).then_some(out)
    }

    /// Concatenate two batches **horizontally**: the rows of `left` and
    /// `right` (same length) side by side, sharing both inputs' column
    /// buffers. The join emit path stitches a gathered probe half onto a
    /// rebuilt match half with this.
    pub fn hstack(left: ColumnarBatch, right: ColumnarBatch) -> ColumnarBatch {
        debug_assert_eq!(left.len, right.len, "hstack row counts must agree");
        let mut cols = left.cols;
        cols.extend(right.cols);
        ColumnarBatch {
            len: left.len,
            cols,
        }
    }

    /// Total payload bytes beyond the per-value base charge (string bytes).
    pub fn payload_bytes(&self) -> usize {
        self.cols.iter().map(|c| c.payload_bytes()).sum()
    }

    /// What the rows would report as `Tuple::mem_size` in total (tuple
    /// headers + per-value base + string payloads), computed from the
    /// columns — the one accounting figure for a block in either form.
    pub fn mem_size(&self) -> usize {
        self.len * (TUPLE_HEADER_BYTES + self.cols.len() * VALUE_BASE_BYTES) + self.payload_bytes()
    }

    /// Row `i`'s share of [`ColumnarBatch::mem_size`]: what that row alone
    /// would report as `Tuple::mem_size`.
    pub fn row_mem_size(&self, i: usize) -> usize {
        let value = |col: &Column| match col {
            Column::Str(v, b) if Column::valid(b, i) => VALUE_BASE_BYTES + v[i].len(),
            Column::Values(v) => v[i].mem_size(),
            _ => VALUE_BASE_BYTES,
        };
        TUPLE_HEADER_BYTES + self.cols.iter().map(|c| value(c)).sum::<usize>()
    }

    /// Build every row's `Tuple` view in **one** shared block allocation
    /// (the lazy compatibility adapter `TupleBatch` caches).
    pub fn materialize_rows(&self) -> Vec<Tuple> {
        let ncols = self.cols.len();
        let mut block: Vec<Value> = vec![Value::Null; self.len * ncols];
        for (c, col) in self.cols.iter().enumerate() {
            col.write_strided(&mut block, c, ncols);
        }
        let block: Arc<[Value]> = block.into();
        (0..self.len)
            .map(|i| Tuple::view(block.clone(), i * ncols, ncols))
            .collect()
    }

    /// The row at `i` as owned values (cold paths only).
    pub fn row_values(&self, i: usize) -> Vec<Value> {
        self.cols.iter().map(|c| c.value_at(i)).collect()
    }
}

// ---------------------------------------------------------------------------
// ColumnarAssembler
// ---------------------------------------------------------------------------

/// Typed columnar row assembly: the join emit path's replacement for
/// value-vector concatenation. Output columns are typed straight from the
/// operator's output schema; each appended row pushes native payloads (one
/// branch per value) instead of cloning `Value`s into a row block, and the
/// sealed batch is already columnar for every downstream consumer.
pub struct ColumnarAssembler {
    capacity: usize,
    kinds: Vec<DataType>,
    builders: Vec<ColumnBuilder>,
    rows: usize,
}

impl ColumnarAssembler {
    /// An assembler sealing batches of `capacity` rows with the given
    /// column types.
    pub fn new(capacity: usize, kinds: Vec<DataType>) -> ColumnarAssembler {
        let builders = kinds
            .iter()
            .map(|&dt| ColumnBuilder::for_type(dt))
            .collect();
        ColumnarAssembler {
            capacity: capacity.max(1),
            kinds,
            builders,
            rows: 0,
        }
    }

    /// An assembler typed by an output schema.
    pub fn from_schema(capacity: usize, schema: &Schema) -> ColumnarAssembler {
        ColumnarAssembler::new(
            capacity,
            schema.fields().iter().map(|f| f.data_type).collect(),
        )
    }

    /// An empty assembler with the same capacity and column types.
    pub fn fresh(&self) -> ColumnarAssembler {
        ColumnarAssembler::new(self.capacity, self.kinds.clone())
    }

    /// Rows currently buffered (unsealed).
    pub fn row_count(&self) -> usize {
        self.rows
    }

    /// Whether the assembler holds no rows.
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// Whether a sealed batch is due.
    pub fn is_full(&self) -> bool {
        self.rows >= self.capacity
    }

    /// Append the concatenation `a ++ b` as one row (join emit).
    #[inline]
    pub fn push_concat(&mut self, a: &Tuple, b: &Tuple) {
        debug_assert_eq!(a.arity() + b.arity(), self.builders.len());
        for (builder, v) in self
            .builders
            .iter_mut()
            .zip(a.values().iter().chain(b.values()))
        {
            builder.push(v);
        }
        self.rows += 1;
    }

    /// Append a copy of `t` as one row.
    #[inline]
    pub fn push_tuple(&mut self, t: &Tuple) {
        debug_assert_eq!(t.arity(), self.builders.len());
        for (builder, v) in self.builders.iter_mut().zip(t.values()) {
            builder.push(v);
        }
        self.rows += 1;
    }

    /// Append `t` projected onto `indices` as one row.
    #[inline]
    pub fn push_project(&mut self, t: &Tuple, indices: &[usize]) {
        debug_assert_eq!(indices.len(), self.builders.len());
        let vals = t.values();
        for (builder, &i) in self.builders.iter_mut().zip(indices) {
            builder.push(&vals[i]);
        }
        self.rows += 1;
    }

    /// Seal everything buffered into one columnar batch; `None` when empty.
    /// The assembler is reusable afterwards.
    pub fn seal(&mut self) -> Option<ColumnarBatch> {
        if self.rows == 0 {
            return None;
        }
        let fresh: Vec<ColumnBuilder> = self
            .kinds
            .iter()
            .map(|&dt| ColumnBuilder::for_type(dt))
            .collect();
        let built = std::mem::replace(&mut self.builders, fresh);
        let rows = self.rows;
        self.rows = 0;
        Some(ColumnarBatch::new(
            rows,
            built.into_iter().map(ColumnBuilder::finish).collect(),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hash::fx_hash;
    use crate::tuple;

    #[test]
    fn bitmap_basics() {
        let mut b = Bitmap::all_clear(70);
        assert!(b.is_all_clear());
        b.set(0);
        b.set(69);
        assert!(b.get(0) && b.get(69) && !b.get(35));
        assert_eq!(b.count_ones(), 2);
        assert_eq!(b.set_indices(), vec![0, 69]);
        b.not_assign();
        assert_eq!(b.count_ones(), 68);
        let all = Bitmap::all_set(70);
        assert!(all.is_all_set());
        assert_eq!(all.count_ones(), 70);
    }

    #[test]
    fn bitmap_ops_mask_tail() {
        let mut a = Bitmap::all_set(3);
        let b = Bitmap::all_clear(3);
        a.or_assign(&b);
        assert_eq!(a.count_ones(), 3);
        a.and_assign(&b);
        assert!(a.is_all_clear());
        a.not_assign();
        assert_eq!(a.count_ones(), 3); // tail bits beyond len stay clear
    }

    #[test]
    fn selection_fast_path_flags() {
        let all = Selection::keep_all(5);
        assert!(all.is_all() && !all.is_none());
        let none = Selection::keep_none(5);
        assert!(none.is_none() && !none.is_all());
        let mut bits = Bitmap::all_clear(5);
        bits.set(2);
        let sel = Selection::from_bitmap(bits);
        assert_eq!(sel.count(), 1);
        assert_eq!(sel.indices(), vec![2]);
    }

    /// The typed kernels must reproduce `Value::hash` through `FxHasher`
    /// exactly — including NULL (no hash), -0.0 vs 0.0 (distinct bits),
    /// and NaN (bit-stable).
    #[test]
    fn hash_kernel_matches_value_hash() {
        let values = vec![
            Value::Int(42),
            Value::Int(i64::MIN),
            Value::Double(2.5),
            Value::Double(-0.0),
            Value::Double(0.0),
            Value::Double(f64::NAN),
            Value::str(""),
            Value::str("tukwila"),
            Value::Date(0),
            Value::Date(-9999),
            Value::Null,
        ];
        for v in &values {
            let col = ColumnarBatch::from_rows(&[Tuple::new(vec![v.clone()])]);
            let mut hashes = Vec::new();
            col.col(0).hash_append(&mut hashes);
            let want = if v.is_null() { None } else { Some(fx_hash(v)) };
            assert_eq!(hashes[0], want, "kernel hash mismatch for {v:?}");
        }
        // A whole mixed-type column (Values fallback) also agrees.
        let rows: Vec<Tuple> = values.iter().map(|v| Tuple::new(vec![v.clone()])).collect();
        let mixed = ColumnarBatch::from_rows(&rows);
        let mut hashes = Vec::new();
        mixed.col(0).hash_append(&mut hashes);
        for (h, v) in hashes.iter().zip(&values) {
            let want = if v.is_null() { None } else { Some(fx_hash(v)) };
            assert_eq!(*h, want);
        }
    }

    #[test]
    fn from_rows_infers_types_and_validity() {
        let rows = vec![
            Tuple::new(vec![Value::Null, Value::str("a")]),
            Tuple::new(vec![Value::Int(7), Value::str("b")]),
            Tuple::new(vec![Value::Null, Value::str("c")]),
        ];
        let cb = ColumnarBatch::from_rows(&rows);
        let (ints, validity) = cb.col(0).as_int64().expect("int column");
        assert_eq!(ints[1], 7);
        let validity = validity.expect("has NULLs");
        assert!(!validity.get(0) && validity.get(1) && !validity.get(2));
        assert!(cb.col(1).validity().is_none());
        assert_eq!(cb.col(0).value_at(0), Value::Null);
        assert_eq!(cb.col(0).value_at(1), Value::Int(7));
    }

    #[test]
    fn mixed_types_degrade_to_values() {
        let rows = vec![tuple![1], tuple!["x"]];
        let cb = ColumnarBatch::from_rows(&rows);
        match cb.col(0) {
            Column::Values(v) => assert_eq!(v, &vec![Value::Int(1), Value::str("x")]),
            other => panic!("expected Values fallback, got {other:?}"),
        }
    }

    #[test]
    fn materialize_round_trips_rows() {
        let rows = vec![
            Tuple::new(vec![Value::Int(1), Value::Double(-0.0), Value::Null]),
            Tuple::new(vec![
                Value::Int(2),
                Value::Double(f64::NAN),
                Value::str("s"),
            ]),
        ];
        let cb = ColumnarBatch::from_rows(&rows);
        let back = cb.materialize_rows();
        assert_eq!(back, rows);
        // one shared block: consecutive rows are adjacent
        assert!(std::ptr::eq(
            back[0].values().as_ptr().wrapping_add(3),
            back[1].values().as_ptr()
        ));
    }

    #[test]
    fn slice_gather_concat() {
        let rows: Vec<Tuple> = (0..10i64).map(|i| tuple![i, i * 2]).collect();
        let cb = ColumnarBatch::from_rows(&rows);
        let s = cb.slice(3, 6);
        assert_eq!(s.materialize_rows(), rows[3..6].to_vec());
        let g = cb.gather(&[0, 9, 4]);
        assert_eq!(
            g.materialize_rows(),
            vec![rows[0].clone(), rows[9].clone(), rows[4].clone()]
        );
        let cat = ColumnarBatch::concat([&s, &g].into_iter()).unwrap();
        assert_eq!(cat.len(), 6);
        assert_eq!(cat.materialize_rows()[3], rows[0]);
    }

    #[test]
    fn concat_type_mismatch_bails() {
        let a = ColumnarBatch::from_rows(&[tuple![1]]);
        let b = ColumnarBatch::from_rows(&[tuple!["x"]]);
        assert!(ColumnarBatch::concat([&a, &b].into_iter()).is_none());
    }

    #[test]
    fn validity_survives_slice_gather_concat() {
        let rows = vec![
            Tuple::new(vec![Value::Int(1)]),
            Tuple::new(vec![Value::Null]),
            Tuple::new(vec![Value::Int(3)]),
        ];
        let cb = ColumnarBatch::from_rows(&rows);
        assert_eq!(cb.slice(1, 3).materialize_rows(), rows[1..].to_vec());
        assert_eq!(
            cb.gather(&[1, 0]).materialize_rows(),
            vec![rows[1].clone(), rows[0].clone()]
        );
        let cat = ColumnarBatch::concat([&cb, &cb].into_iter()).unwrap();
        assert_eq!(cat.materialize_rows()[4], rows[1]);
    }

    #[test]
    fn assembler_typed_emit() {
        let kinds = vec![
            DataType::Int,
            DataType::Str,
            DataType::Int,
            DataType::Double,
        ];
        let mut asm = ColumnarAssembler::new(4, kinds);
        asm.push_concat(&tuple![1, "x"], &tuple![2, 2.5]);
        asm.push_concat(
            &Tuple::new(vec![Value::Int(3), Value::Null]),
            &tuple![4, 4.5],
        );
        assert_eq!(asm.row_count(), 2);
        let cb = asm.seal().unwrap();
        assert!(asm.seal().is_none(), "assembler drained");
        let rows = cb.materialize_rows();
        assert_eq!(rows[0], tuple![1, "x", 2, 2.5]);
        assert_eq!(
            rows[1],
            Tuple::new(vec![
                Value::Int(3),
                Value::Null,
                Value::Int(4),
                Value::Double(4.5)
            ])
        );
    }

    #[test]
    fn assembler_degrades_on_schema_lie() {
        // schema says Int but a string shows up: correctness over speed
        let mut asm = ColumnarAssembler::new(4, vec![DataType::Int]);
        asm.push_tuple(&tuple![1]);
        asm.push_tuple(&tuple!["surprise"]);
        let rows = asm.seal().unwrap().materialize_rows();
        assert_eq!(rows, vec![tuple![1], tuple!["surprise"]]);
    }

    #[test]
    fn composite_hash_fold_matches_row_path() {
        let rows = vec![
            tuple![1, "a", 2.5],
            Tuple::new(vec![Value::Int(2), Value::Null, Value::Double(0.5)]),
        ];
        let cb = ColumnarBatch::from_rows(&rows);
        let cols = [0usize, 1, 2];
        let mut acc: Vec<Option<FxHasher>> = vec![Some(FxHasher::new()); rows.len()];
        for &c in &cols {
            cb.col(c).hash_fold(&mut acc);
        }
        for (i, t) in rows.iter().enumerate() {
            let want = crate::KeyVector::hash_tuple_key(t, &cols);
            assert_eq!(acc[i].map(|h| h.finish()), want, "row {i}");
        }
    }

    #[test]
    fn payload_bytes_counts_strings() {
        let cb = ColumnarBatch::from_rows(&[tuple![1, "abcd"], tuple![2, "ef"]]);
        assert_eq!(cb.payload_bytes(), 6);
    }

    fn refcounts(strings: &[Arc<str>]) -> Vec<usize> {
        strings.iter().map(Arc::strong_count).collect()
    }

    /// The property shared segments exist for: gathering, slicing,
    /// appending and dropping a string column touches no string's refcount.
    #[test]
    fn shared_segment_ops_leave_string_refcounts_untouched() {
        let strings: Vec<Arc<str>> = ["a", "bb", "ccc"].into_iter().map(Arc::from).collect();
        let col = Column::Str(strings.clone().into(), None);
        let before = refcounts(&strings);
        let gathered = col.gather(&[2, 2, 0, 1, 0]);
        let sliced = gathered.slice(1, 4);
        let mut grown = col.clone();
        assert!(grown.append(&gathered) && grown.append(&sliced));
        assert_eq!(
            refcounts(&strings),
            before,
            "derived columns share the segment"
        );
        assert_eq!(grown.len(), 11);
        assert_eq!(grown.value_at(3), Value::str("ccc"));
        drop((gathered, sliced, grown));
        assert_eq!(
            refcounts(&strings),
            before,
            "and dropping them releases only it"
        );
    }

    /// A column grows by batches that each bring their own segment while
    /// every gather taken from it so far is still held (a join's build side
    /// whose outputs the consumer keeps): growth copies no string — each
    /// refcount stays where it was however many gathers are alive — and
    /// what a gather pins is the segments its rows reference, not the
    /// column's whole list.
    #[test]
    fn growing_while_gathers_are_held_copies_nothing() {
        let (batches, per_batch) = (200usize, 16usize);
        let strings: Vec<Arc<str>> = (0..batches * per_batch)
            .map(|i| Arc::from(format!("s{i}")))
            .collect();
        let before = refcounts(&strings);
        let mut grown = ColumnarBatch::default();
        let mut held = Vec::new();
        for chunk in strings.chunks(per_batch) {
            let own = Column::Str(chunk.to_vec().into(), None);
            assert!(grown.append(&ColumnarBatch::new(per_batch, vec![own])));
            // The newest row, one from the middle, the oldest.
            let n = grown.len() as u32;
            held.push(grown.gather(&[n - 1, n / 2, 0]));
        }
        let expected: Vec<usize> = before.iter().map(|c| c + 1).collect();
        assert_eq!(
            refcounts(&strings),
            expected,
            "one holder per string (its segment) with every gather alive"
        );
        for (b, g) in held.iter().enumerate() {
            let (col, _) = g.col(0).as_str_col().expect("a string column");
            assert!(col.segs.len() <= 3, "a gather lists what its rows use");
            let n = (b + 1) * per_batch;
            let want = [&strings[n - 1], &strings[n / 2], &strings[0]];
            assert!(col.iter().zip(want).all(|(a, b)| Arc::ptr_eq(a, b)));
        }
        let (col, _) = grown.col(0).as_str_col().expect("a string column");
        assert_eq!(col.segs.len(), batches, "one entry per arriving segment");
        drop((grown, held));
        assert_eq!(refcounts(&strings), before);
    }

    mod str_column_model {
        use super::*;
        use proptest::prelude::*;

        type Model = Vec<Option<String>>;

        fn table(rows: &Model) -> Column {
            let mut b = ColumnBuilder::for_type(DataType::Str);
            for s in rows {
                b.push(&s.as_deref().map_or(Value::Null, Value::str));
            }
            b.finish()
        }

        fn arb_table(max: usize) -> impl Strategy<Value = Model> {
            proptest::collection::vec(
                prop_oneof![4 => "\\PC{0,6}".prop_map(Some), 1 => Just(None)],
                1..max,
            )
        }

        /// Everything a consumer can observe of `col` equals what a plain
        /// string-per-row column (`table(model)`) shows.
        fn check(col: &Column, model: &Model) -> std::result::Result<(), TestCaseError> {
            let plain = table(model);
            prop_assert_eq!(col.len(), model.len());
            let (strs, validity) = col.as_str_col().expect("a string column");
            prop_assert_eq!(strs.len(), model.len());
            for (i, want) in model.iter().enumerate() {
                prop_assert_eq!(col.value_at(i), plain.value_at(i));
                prop_assert_eq!(validity.is_none_or(|v| v.get(i)), want.is_some());
                if let Some(s) = want {
                    prop_assert_eq!(&*strs[i], s.as_str());
                }
            }
            let (plain_strs, _) = plain.as_str_col().expect("a string column");
            prop_assert!(
                strs == plain_strs,
                "equality is over the strings, not the segments"
            );
            prop_assert_eq!(col.payload_bytes(), plain.payload_bytes());
            prop_assert_eq!(
                col.payload_bytes(),
                model.iter().flatten().map(String::len).sum::<usize>()
            );
            let (mut got, mut want) = (Vec::new(), Vec::new());
            col.hash_append(&mut got);
            plain.hash_append(&mut want);
            prop_assert_eq!(got, want);
            let fold = |c: &Column| {
                let mut acc = vec![Some(FxHasher::new()); c.len()];
                c.hash_fold(&mut acc);
                acc.into_iter()
                    .map(|h| h.map(|h| h.finish()))
                    .collect::<Vec<_>>()
            };
            prop_assert_eq!(fold(col), fold(&plain));
            // write_strided, through the row materialization it serves.
            let rows = |c: &Column| ColumnarBatch::new(c.len(), vec![c.clone()]).materialize_rows();
            prop_assert_eq!(rows(col), rows(&plain));
            Ok(())
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(48))]

            /// A column grown by a random program of appends — slices and
            /// gathers of three tables (pieces of one table share its
            /// segment), fresh columns, and pieces of itself — then sliced
            /// and gathered, always agrees with the plain model.
            #[test]
            fn prop_str_column_agrees_with_plain_model(
                tables in proptest::collection::vec(arb_table(12), 3..4),
                steps in proptest::collection::vec((0usize..5, 0usize..64, 0usize..64, 0usize..64), 1..14),
            ) {
                let cols: Vec<Column> = tables.iter().map(table).collect();
                let (mut acc, mut model) = (table(&Model::new()), Model::new());
                for (what, a, b, c) in steps {
                    let (src, src_model) = match what {
                        0..=2 => (cols[what].clone(), tables[what].clone()),
                        3 => {
                            // A fresh column: its own segment, nobody else's.
                            let m: Model = tables[a % 3].iter().rev().cloned().collect();
                            (table(&m), m)
                        }
                        _ => (acc.clone(), model.clone()),
                    };
                    if src_model.is_empty() {
                        continue;
                    }
                    let n = src_model.len();
                    let (piece, piece_model) = if a % 2 == 0 {
                        let (lo, hi) = ((b % n).min(c % n), (b % n).max(c % n) + 1);
                        (src.slice(lo, hi), src_model[lo..hi].to_vec())
                    } else {
                        // Repeats and reorders: more rows than strings.
                        let idx: Vec<u32> = (0..(b % 20)).map(|k| ((a + k * (c + 1)) % n) as u32).collect();
                        let m = idx.iter().map(|&i| src_model[i as usize].clone()).collect();
                        (src.gather(&idx), m)
                    };
                    check(&piece, &piece_model)?;
                    prop_assert!(acc.append(&piece));
                    model.extend(piece_model);
                    check(&acc, &model)?;
                }
                let n = model.len();
                if n > 0 {
                    check(&acc.slice(n / 3, n), &model[n / 3..].to_vec())?;
                    let idx: Vec<u32> = (0..n as u32).rev().step_by(2).collect();
                    let picked: Model = idx.iter().map(|&i| model[i as usize].clone()).collect();
                    check(&acc.gather(&idx), &picked)?;
                }
            }
        }
    }

    #[test]
    fn project_shares_columns() {
        let cb = ColumnarBatch::from_rows(&[tuple![1, "a", 2]]);
        let p = cb.project(&[2, 0]);
        assert!(Arc::ptr_eq(p.col_shared(1), cb.col_shared(0)));
        assert_eq!(p.materialize_rows(), vec![tuple![2, 1]]);
    }
}
