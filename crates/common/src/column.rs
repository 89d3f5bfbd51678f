//! Columnar batch layout: typed column vectors, validity bitmaps, and
//! type-specialized kernels.
//!
//! The row-major `Tuple` representation pays a `Value` enum discriminant
//! branch per field per row on every filter, hash, and compare. A
//! [`ColumnarBatch`] stores the same block of rows as per-column typed
//! vectors ([`Column`]): `Int64`/`Float64`/`Str`/`Date` payloads with an
//! optional validity [`Bitmap`] for NULLs. Every column takes its type
//! from the schema (DESIGN.md §11): there is no dynamic column, so every
//! kernel has one typed path. Strings are shared immutable segments plus
//! per-row references ([`StrColumn`]), so moving them costs what moving
//! integers costs. Kernels then run tight loops over native slices:
//!
//! * **predicate evaluation** produces a selection [`Bitmap`] without
//!   materializing rows (`Filter` intersects bitmaps instead of rebuilding
//!   batches);
//! * **key prehashing** ([`Column::hash_append`]) produces the per-row hash
//!   vector the joins, exchange routing, and bucketed tables consume,
//!   replicating `Value::hash`'s byte sequence exactly, so a key hashes
//!   alike from a column and from its `Value`;
//! * **gather** ([`Column::gather`]) applies a selection by index — late
//!   materialization instead of row-wise rebuilds.
//!
//! Rows exist only on request: [`ColumnarBatch::to_rows`] allocates the
//! whole block's `Tuple` views for the reference oracle and tests.

use std::sync::Arc;

use crate::error::{Result, TukwilaError};
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

/// Appends one bit per item in place, so a column grown batch by batch
/// pays for each bit once.
impl Extend<bool> for Bitmap {
    fn extend<I: IntoIterator<Item = bool>>(&mut self, bits: I) {
        for bit in bits {
            if self.len.is_multiple_of(64) {
                self.words.push(0);
            }
            self.words[self.len / 64] |= (bit as u64) << (self.len % 64);
            self.len += 1;
        }
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
// hash(column kernel) ≡ hash(`Value`) for every type — bucket and
// partition routing are byte-stable across the row/columnar refactor.
// Pinned by `hash_kernel_matches_value_hash` below.

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

    /// Append rows `idx` of `other`: each run of them from one of
    /// `other`'s segments is numbered to this column's last segment when
    /// that is the same one, else joins the list as a new entry.
    fn extend_gather(&mut self, other: &StrColumn, idx: &[u32]) {
        if self.is_empty() {
            self.segs.clear();
        }
        let seg_of = |i: u32| (other.rows[i as usize] >> OFFSET_BITS) as usize;
        let one = other.segs.len() == 1;
        for run in idx.chunk_by(|&a, &b| one || seg_of(a) == seg_of(b)) {
            let seg = &other.segs[seg_of(run[0])];
            if !self.segs.last().is_some_and(|last| Arc::ptr_eq(last, seg)) {
                self.segs.push(seg.clone());
            }
            let to = ((self.segs.len() - 1) as u64) << OFFSET_BITS;
            let refs = run
                .iter()
                .map(|&i| to | (other.rows[i as usize] & OFFSET_MASK));
            self.rows.extend(refs);
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

/// Extend the validity `dst` of a column of `dst_len` rows by the validity
/// of rows `rows` of a column whose validity is `src`, in place. A column
/// with no NULLs on either side stays without a bitmap; one gains it,
/// all set, the first time a bitmap meets it.
fn extend_validity(
    dst: &mut Option<Bitmap>,
    dst_len: usize,
    src: &Option<Bitmap>,
    rows: impl Iterator<Item = u32>,
) {
    if dst.is_none() && src.is_none() {
        return;
    }
    let bits = dst.get_or_insert_with(|| Bitmap::all_set(dst_len));
    match src {
        Some(s) => bits.extend(rows.map(|i| s.get(i as usize))),
        None => bits.extend(rows.map(|_| true)),
    }
}

/// One column of a [`ColumnarBatch`]: a typed vector plus an optional
/// validity bitmap (`None` = no NULLs; a clear bit marks SQL NULL, with the
/// payload slot holding a type default). The type is the schema field's.
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
}

impl Column {
    /// Number of rows.
    pub fn len(&self) -> usize {
        match self {
            Column::Int64(v, _) => v.len(),
            Column::Float64(v, _) => v.len(),
            Column::Str(v, _) => v.len(),
            Column::Date(v, _) => v.len(),
        }
    }

    /// Whether the column holds no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The validity bitmap, when the column has NULLs.
    pub fn validity(&self) -> Option<&Bitmap> {
        match self {
            Column::Int64(_, v)
            | Column::Float64(_, v)
            | Column::Str(_, v)
            | Column::Date(_, v) => v.as_ref(),
        }
    }

    /// The type of the column's values.
    pub fn data_type(&self) -> DataType {
        match self {
            Column::Int64(..) => DataType::Int,
            Column::Float64(..) => DataType::Double,
            Column::Str(..) => DataType::Str,
            Column::Date(..) => DataType::Date,
        }
    }

    /// Typed accessor: `(payload, validity)` for an `Int64` column.
    pub fn as_int64(&self) -> Option<(&[i64], Option<&Bitmap>)> {
        match self {
            Column::Int64(v, b) => Some((v, b.as_ref())),
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
        }
    }

    /// An empty column of the same variant with room for `capacity` rows.
    fn empty_like(&self, capacity: usize) -> Column {
        match self {
            Column::Int64(..) => Column::Int64(Vec::with_capacity(capacity), None),
            Column::Float64(..) => Column::Float64(Vec::with_capacity(capacity), None),
            Column::Str(..) => {
                let rows = Vec::with_capacity(capacity);
                Column::Str(StrColumn { segs: vec![], rows }, None)
            }
            Column::Date(..) => Column::Date(Vec::with_capacity(capacity), None),
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
        }
    }

    /// Append `other`'s rows onto `self`. The caller has checked that the
    /// variants agree ([`Column::same_kind`]); a mismatch appends nothing.
    fn append(&mut self, other: &Column) {
        let rows = 0..other.len() as u32;
        match (self, other) {
            (Column::Int64(a, ab), Column::Int64(b, bb)) => {
                extend_validity(ab, a.len(), bb, rows);
                a.extend_from_slice(b);
            }
            (Column::Float64(a, ab), Column::Float64(b, bb)) => {
                extend_validity(ab, a.len(), bb, rows);
                a.extend_from_slice(b);
            }
            (Column::Str(a, ab), Column::Str(b, bb)) => {
                extend_validity(ab, a.len(), bb, rows);
                a.append(b);
            }
            (Column::Date(a, ab), Column::Date(b, bb)) => {
                extend_validity(ab, a.len(), bb, rows);
                a.extend_from_slice(b);
            }
            _ => debug_assert!(false, "append across column types"),
        }
    }

    /// Append rows `idx` of `src` in place: what appending
    /// `src.gather(idx)` gives, without building the gathered column. The
    /// caller has checked that the variants agree.
    fn extend_gather(&mut self, src: &Column, idx: &[u32]) {
        fn pick<T: Copy>(dst: &mut Vec<T>, src: &[T], idx: &[u32]) {
            dst.extend(idx.iter().map(|&i| src[i as usize]));
        }
        let rows = idx.iter().copied();
        match (self, src) {
            (Column::Int64(a, ab), Column::Int64(b, bb)) => {
                extend_validity(ab, a.len(), bb, rows);
                pick(a, b, idx);
            }
            (Column::Float64(a, ab), Column::Float64(b, bb)) => {
                extend_validity(ab, a.len(), bb, rows);
                pick(a, b, idx);
            }
            (Column::Str(a, ab), Column::Str(b, bb)) => {
                extend_validity(ab, a.len(), bb, rows);
                a.extend_gather(b, idx);
            }
            (Column::Date(a, ab), Column::Date(b, bb)) => {
                extend_validity(ab, a.len(), bb, rows);
                pick(a, b, idx);
            }
            _ => debug_assert!(false, "extend_gather across column types"),
        }
    }

    /// Whether `other` is the same variant, i.e. appending it is defined.
    fn same_kind(&self, other: &Column) -> bool {
        std::mem::discriminant(self) == std::mem::discriminant(other)
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
            _ => false, // values of different types are never equal
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
        }
    }
}

// ---------------------------------------------------------------------------
// ColumnBuilder
// ---------------------------------------------------------------------------

/// Incrementally builds one [`Column`] of a schema type from values. A NULL
/// takes a type-default payload slot and a clear validity bit; a value of
/// another type is refused.
#[derive(Debug)]
pub enum ColumnBuilder {
    /// Building an `Int64` column; `nulls` holds NULL row indices.
    Int64(Vec<i64>, Vec<u32>),
    /// Building a `Float64` column.
    Float64(Vec<f64>, Vec<u32>),
    /// Building a `Str` column.
    Str(Vec<Arc<str>>, Vec<u32>),
    /// Building a `Date` column.
    Date(Vec<i32>, Vec<u32>),
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
    /// An empty builder for values of type `dt`. A `Null` field (one that
    /// only ever holds NULLs) builds an `Int64` column.
    pub fn for_type(dt: DataType) -> ColumnBuilder {
        match dt {
            DataType::Int | DataType::Null => ColumnBuilder::Int64(Vec::new(), Vec::new()),
            DataType::Double => ColumnBuilder::Float64(Vec::new(), Vec::new()),
            DataType::Str => ColumnBuilder::Str(Vec::new(), Vec::new()),
            DataType::Date => ColumnBuilder::Date(Vec::new(), Vec::new()),
        }
    }

    /// Rows pushed so far.
    pub fn len(&self) -> usize {
        match self {
            ColumnBuilder::Int64(v, _) => v.len(),
            ColumnBuilder::Float64(v, _) => v.len(),
            ColumnBuilder::Str(v, _) => v.len(),
            ColumnBuilder::Date(v, _) => v.len(),
        }
    }

    /// Whether no rows have been pushed.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The type of the values the builder takes.
    fn data_type(&self) -> DataType {
        match self {
            ColumnBuilder::Int64(..) => DataType::Int,
            ColumnBuilder::Float64(..) => DataType::Double,
            ColumnBuilder::Str(..) => DataType::Str,
            ColumnBuilder::Date(..) => DataType::Date,
        }
    }

    /// Append one value: NULL or a value of the builder's type. Any other
    /// value is a `Schema` error and appends nothing.
    #[inline]
    pub fn push(&mut self, v: &Value) -> Result<()> {
        match (&mut *self, v) {
            (ColumnBuilder::Int64(vals, _), Value::Int(x)) => vals.push(*x),
            (ColumnBuilder::Float64(vals, _), Value::Double(x)) => vals.push(*x),
            (ColumnBuilder::Str(vals, _), Value::Str(x)) => vals.push(x.clone()),
            (ColumnBuilder::Date(vals, _), Value::Date(x)) => vals.push(*x),
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
            _ => {
                return Err(TukwilaError::Schema(format!(
                    "a {} value in a {} column",
                    v.data_type(),
                    self.data_type()
                )))
            }
        }
        Ok(())
    }

    /// Finish into a [`Column`].
    pub fn finish(self) -> Column {
        match self {
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

    /// Convert a slice of rows into columns typed by `schema`. A row of
    /// another arity, or a value of another type than its field's, is a
    /// `Schema` error.
    pub fn from_rows(schema: &Schema, rows: &[Tuple]) -> Result<ColumnarBatch> {
        let mut builders: Vec<ColumnBuilder> = (schema.fields().iter())
            .map(|f| ColumnBuilder::for_type(f.data_type))
            .collect();
        for (i, t) in rows.iter().enumerate() {
            if t.arity() != schema.arity() {
                return Err(TukwilaError::Schema(format!(
                    "tuple {i} has arity {} but schema {schema} has arity {}",
                    t.arity(),
                    schema.arity()
                )));
            }
            for (b, v) in builders.iter_mut().zip(t.values()) {
                b.push(v)?;
            }
        }
        Ok(ColumnarBatch::new(
            rows.len(),
            builders.into_iter().map(ColumnBuilder::finish).collect(),
        ))
    }

    /// No rows, in columns typed by `schema`.
    pub fn empty(schema: &Schema) -> ColumnarBatch {
        let cols = (schema.fields().iter())
            .map(|f| ColumnBuilder::for_type(f.data_type).finish())
            .collect();
        ColumnarBatch::new(0, cols)
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

    /// Rows `start..end` as a new batch: copied, or the columns shared
    /// when the range is the whole batch.
    pub fn slice(&self, start: usize, end: usize) -> ColumnarBatch {
        debug_assert!(start <= end && end <= self.len);
        if start == 0 && end == self.len {
            return self.clone();
        }
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

    /// A `Schema` error unless `other` has this batch's layout: as many
    /// columns, each of the same type.
    fn check_layout(&self, other: &ColumnarBatch) -> Result<()> {
        let same = self.cols.len() == other.cols.len()
            && (self.cols.iter())
                .zip(&other.cols)
                .all(|(a, b)| a.same_kind(b));
        if same {
            return Ok(());
        }
        let types =
            |b: &ColumnarBatch| -> Vec<DataType> { b.cols.iter().map(|c| c.data_type()).collect() };
        Err(TukwilaError::Schema(format!(
            "batch columns {:?} do not match {:?}",
            types(other),
            types(self)
        )))
    }

    /// Append `other`'s rows in place, growing this batch's own column
    /// buffers (an empty batch without columns adopts `other`'s, shared).
    /// A `Schema` error, leaving `self` untouched, when the layouts
    /// disagree (column count or a column's type).
    pub fn append(&mut self, other: &ColumnarBatch) -> Result<()> {
        if self.len == 0 && self.cols.is_empty() {
            *self = other.clone();
            return Ok(());
        }
        self.check_layout(other)?;
        for (dst, src) in self.cols.iter_mut().zip(&other.cols) {
            Arc::make_mut(dst).append(src);
        }
        self.len += other.len;
        Ok(())
    }

    /// Append rows `idx` of `src` in place, growing this batch's own column
    /// buffers: [`ColumnarBatch::append`] of `src.gather(idx)` without
    /// building the gathered batch (an empty batch becomes it).
    pub fn extend_gather(&mut self, src: &ColumnarBatch, idx: &[u32]) -> Result<()> {
        if self.len == 0 && self.cols.is_empty() {
            *self = src.gather(idx);
            return Ok(());
        }
        self.check_layout(src)?;
        for (dst, col) in self.cols.iter_mut().zip(&src.cols) {
            Arc::make_mut(dst).extend_gather(col, idx);
        }
        self.len += idx.len();
        Ok(())
    }

    /// An empty batch of this one's column variants with room for `rows`
    /// rows: a buffer to [`ColumnarBatch::extend_gather`] into.
    pub fn empty_like(&self, rows: usize) -> ColumnarBatch {
        ColumnarBatch {
            len: 0,
            cols: (self.cols.iter())
                .map(|c| Arc::new(c.empty_like(rows)))
                .collect(),
        }
    }

    /// Concatenate many batches column-wise: `None` for no batches, a
    /// `Schema` error when layouts disagree (column count or a column's
    /// type). A single input batch shares its column `Arc`s (no copy);
    /// otherwise every destination buffer is reserved to the total row
    /// count up front so appending never reallocates mid-stream.
    pub fn concat<'a>(
        batches: impl Iterator<Item = &'a ColumnarBatch>,
    ) -> Result<Option<ColumnarBatch>> {
        let batches: Vec<&ColumnarBatch> = batches.collect();
        let Some((first, rest)) = batches.split_first() else {
            return Ok(None);
        };
        let mut out = (*first).clone();
        if !rest.is_empty() {
            let more: usize = rest.iter().map(|b| b.len).sum();
            for c in &mut out.cols {
                Arc::make_mut(c).reserve(more);
            }
            for b in rest {
                out.append(b)?;
            }
        }
        Ok(Some(out))
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
            _ => VALUE_BASE_BYTES,
        };
        TUPLE_HEADER_BYTES + self.cols.iter().map(|c| value(c)).sum::<usize>()
    }

    /// Every row as a `Tuple`, all views into **one** newly allocated value
    /// block: for the reference oracle, tests and display, never an
    /// operator.
    pub fn to_rows(&self) -> Vec<Tuple> {
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hash::fx_hash;
    use crate::testing::columns;
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
            let col = columns(&[Tuple::new(vec![v.clone()])]);
            let mut hashes = Vec::new();
            col.col(0).hash_append(&mut hashes);
            let want = if v.is_null() { None } else { Some(fx_hash(v)) };
            assert_eq!(hashes[0], want, "kernel hash mismatch for {v:?}");
        }
    }

    #[test]
    fn from_rows_types_columns_with_validity() {
        let rows = vec![
            Tuple::new(vec![Value::Null, Value::str("a")]),
            Tuple::new(vec![Value::Int(7), Value::str("b")]),
            Tuple::new(vec![Value::Null, Value::str("c")]),
        ];
        let cb = columns(&rows);
        let (ints, validity) = cb.col(0).as_int64().expect("int column");
        assert_eq!(ints[1], 7);
        let validity = validity.expect("has NULLs");
        assert!(!validity.get(0) && validity.get(1) && !validity.get(2));
        assert!(cb.col(1).validity().is_none());
        assert_eq!(cb.col(0).value_at(0), Value::Null);
        assert_eq!(cb.col(0).value_at(1), Value::Int(7));
    }

    /// A column takes its type from the schema: a value of another type
    /// is a `Schema` error, as is a row of another arity, and a column
    /// of NULLs only is a typed column with every validity bit clear.
    #[test]
    fn from_rows_takes_types_from_the_schema() {
        let schema = Schema::of("r", &[("a", DataType::Int), ("b", DataType::Str)]);
        let err = ColumnarBatch::from_rows(&schema, &[tuple![1, "x"], tuple!["y", "z"]]);
        assert!(matches!(err, Err(TukwilaError::Schema(_))), "{err:?}");
        let err = ColumnarBatch::from_rows(&schema, &[tuple![1]]);
        assert!(matches!(err, Err(TukwilaError::Schema(_))), "{err:?}");
        let nulls = Tuple::new(vec![Value::Null, Value::Null]);
        let cb = ColumnarBatch::from_rows(&schema, &[nulls.clone(), nulls.clone()]).unwrap();
        assert!(cb.col(0).as_int64().is_some() && cb.col(1).as_str_col().is_some());
        assert!(cb.col(1).validity().is_some_and(Bitmap::is_all_clear));
        assert_eq!(cb.to_rows(), vec![nulls.clone(), nulls]);
        let empty = ColumnarBatch::empty(&schema);
        assert_eq!((empty.len(), empty.num_cols()), (0, 2));
        assert_eq!(empty.col(1).data_type(), DataType::Str);
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
        let cb = columns(&rows);
        let back = cb.to_rows();
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
        let cb = columns(&rows);
        let s = cb.slice(3, 6);
        assert_eq!(s.to_rows(), rows[3..6].to_vec());
        let g = cb.gather(&[0, 9, 4]);
        assert_eq!(
            g.to_rows(),
            vec![rows[0].clone(), rows[9].clone(), rows[4].clone()]
        );
        let cat = ColumnarBatch::concat([&s, &g].into_iter())
            .unwrap()
            .unwrap();
        assert_eq!(cat.len(), 6);
        assert_eq!(cat.to_rows()[3], rows[0]);
        // The whole batch as a slice shares its columns.
        let all = cb.slice(0, 10);
        assert_eq!(all.to_rows(), rows);
        assert!(Arc::ptr_eq(all.col_shared(1), cb.col_shared(1)));
    }

    #[test]
    fn concat_type_mismatch_is_an_error() {
        let a = columns(&[tuple![1]]);
        let b = columns(&[tuple!["x"]]);
        let err = ColumnarBatch::concat([&a, &b].into_iter());
        assert!(matches!(err, Err(TukwilaError::Schema(_))), "{err:?}");
        let mut grown = a.clone();
        assert!(grown.append(&b).is_err() && grown.extend_gather(&b, &[0]).is_err());
        assert_eq!(
            grown.to_rows(),
            vec![tuple![1]],
            "a refused append changes nothing"
        );
        assert!(ColumnarBatch::concat(std::iter::empty()).unwrap().is_none());
    }

    #[test]
    fn validity_survives_slice_gather_concat() {
        let rows = vec![
            Tuple::new(vec![Value::Int(1)]),
            Tuple::new(vec![Value::Null]),
            Tuple::new(vec![Value::Int(3)]),
        ];
        let cb = columns(&rows);
        assert_eq!(cb.slice(1, 3).to_rows(), rows[1..].to_vec());
        assert_eq!(
            cb.gather(&[1, 0]).to_rows(),
            vec![rows[1].clone(), rows[0].clone()]
        );
        let cat = ColumnarBatch::concat([&cb, &cb].into_iter())
            .unwrap()
            .unwrap();
        assert_eq!(cat.to_rows()[4], rows[1]);
    }

    #[test]
    fn typed_builder_refuses_a_schema_lie() {
        // schema says Int but a string shows up: a typed error
        let mut b = ColumnBuilder::for_type(DataType::Int);
        b.push(&Value::Int(1)).unwrap();
        let err = b.push(&Value::str("surprise"));
        assert!(matches!(err, Err(TukwilaError::Schema(_))), "{err:?}");
        let cb = ColumnarBatch::new(1, vec![b.finish()]);
        assert_eq!(cb.to_rows(), vec![tuple![1]]);
    }

    #[test]
    fn payload_bytes_counts_strings() {
        let cb = columns(&[tuple![1, "abcd"], tuple![2, "ef"]]);
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
        grown.append(&gathered);
        grown.append(&sliced);
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
            grown
                .append(&ColumnarBatch::new(per_batch, vec![own]))
                .unwrap();
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
                b.push(&s.as_deref().map_or(Value::Null, Value::str))
                    .unwrap();
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
            // write_strided, through the row materialization it serves.
            let rows = |c: &Column| ColumnarBatch::new(c.len(), vec![c.clone()]).to_rows();
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
                    acc.append(&piece);
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

    /// Appends alternate sources with and without a validity bitmap, across
    /// word boundaries; every bit of the grown bitmap is checked against
    /// the rows' own NULLs.
    #[test]
    fn appends_mixing_bitmaps_keep_every_bit() {
        let column = |n: usize, nulls: bool| {
            let mut b = ColumnBuilder::for_type(DataType::Int);
            for i in 0..n {
                let null = nulls && i % 3 == 0;
                b.push(&if null {
                    Value::Null
                } else {
                    Value::Int(i as i64)
                })
                .unwrap();
            }
            b.finish()
        };
        let mut grown = column(5, false);
        let mut want = vec![true; 5];
        for (n, nulls) in [(3, true), (70, false), (1, true), (130, true), (64, false)] {
            let src = column(n, nulls);
            assert_eq!(src.validity().is_some(), nulls);
            grown.append(&src);
            want.extend((0..n).map(|i| !(nulls && i % 3 == 0)));
            let bits = grown.validity().expect("a bitmap once one is appended");
            assert_eq!(bits.len(), want.len());
            for (i, &valid) in want.iter().enumerate() {
                assert_eq!(bits.get(i), valid, "bit {i} after appending {n} rows");
            }
            assert_eq!(bits.count_ones(), want.iter().filter(|&&v| v).count());
        }
        let mut bits = Bitmap::all_clear(0);
        bits.extend([true, false, true]);
        assert_eq!(bits.set_indices(), vec![0, 2]);
    }

    mod extend_gather_model {
        use super::*;
        use proptest::prelude::*;

        /// `(value seed, NULL roll)` per row.
        type Rows = Vec<(i64, u8)>;

        /// A one-column batch of `kind`: Int64, Float64, Date, Str over one
        /// segment, or Str over several. With `nulls`, about a quarter of
        /// the rows are NULL (a validity bitmap).
        fn batch(kind: usize, rows: &Rows, nulls: bool) -> ColumnarBatch {
            let value = |&(v, roll): &(i64, u8)| match kind {
                _ if nulls && roll == 0 => Value::Null,
                0 => Value::Int(v),
                1 => Value::Double(v as f64 / 8.0),
                2 => Value::Date(v as i32),
                _ => Value::str(format!("s{}", v % 32)),
            };
            let build = |rows: &[(i64, u8)]| {
                let mut b = match kind {
                    0 => ColumnBuilder::for_type(DataType::Int),
                    1 => ColumnBuilder::for_type(DataType::Double),
                    2 => ColumnBuilder::for_type(DataType::Date),
                    _ => ColumnBuilder::for_type(DataType::Str),
                };
                rows.iter().for_each(|r| b.push(&value(r)).unwrap());
                b.finish()
            };
            let col = if kind == 4 {
                // One segment per third of the rows.
                let mut col = build(&[]);
                for part in rows.chunks(rows.len().div_ceil(3).max(1)) {
                    col.append(&build(part));
                }
                col
            } else {
                build(rows)
            };
            ColumnarBatch::new(rows.len(), vec![col])
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(96))]

            /// `extend_gather` is `append` of the gather, row for row and
            /// bit for bit: with and without validity on either side, into
            /// an empty batch with or without columns, with repeated and
            /// reordered indices; and both refuse another column type,
            /// changing nothing.
            #[test]
            fn prop_extend_gather_is_append_of_the_gather(
                kinds in (0usize..5, 0usize..5, 0usize..4),
                dst in proptest::collection::vec((-40i64..40, 0u8..4), 0..12),
                src in proptest::collection::vec((-40i64..40, 0u8..4), 1..40),
                picks in proptest::collection::vec(0usize..64, 0..24),
                nulls in (any::<bool>(), any::<bool>()),
            ) {
                let (dst_kind, src_kind, same) = kinds;
                // Half the cases keep one variant: the typed, in-place path.
                let dst_kind = if same < 2 { src_kind } else { dst_kind };
                let src = batch(src_kind, &src, nulls.1);
                let idx: Vec<u32> = picks.iter().map(|&p| (p % src.len()) as u32).collect();
                let targets = [
                    batch(dst_kind, &dst, nulls.0),
                    ColumnarBatch::default(),
                    src.empty_like(4),
                ];
                for target in targets {
                    let mut want = target.clone();
                    let appended = want.append(&src.gather(&idx));
                    let mut got = target.clone();
                    let extended = got.extend_gather(&src, &idx);
                    prop_assert_eq!(appended.is_ok(), extended.is_ok());
                    if extended.is_err() {
                        prop_assert_eq!(got.to_rows(), target.to_rows());
                        continue;
                    }
                    prop_assert_eq!(got.len(), want.len());
                    prop_assert_eq!(got.col(0), want.col(0));
                    prop_assert_eq!(got.to_rows(), want.to_rows());
                    prop_assert_eq!(got.mem_size(), want.mem_size());
                }
            }
        }
    }

    #[test]
    fn project_shares_columns() {
        let cb = columns(&[tuple![1, "a", 2]]);
        let p = cb.project(&[2, 0]);
        assert!(Arc::ptr_eq(p.col_shared(1), cb.col_shared(0)));
        assert_eq!(p.to_rows(), vec![tuple![2, 1]]);
    }
}
