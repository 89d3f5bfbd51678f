//! Compact binary tuple codec for the file-backed spill store.
//!
//! Length-prefixed, little-endian, self-describing per value. Only needs to
//! round-trip within one process lifetime (spill files never outlive a
//! query), so there is no versioning; there *is* strict validation because a
//! decode error means engine corruption and must not pass silently.
//!
//! Spill files are written and read at **batch** granularity: each write
//! appends one [`encode_batch`] frame (a tuple-count header followed by the
//! tuples), so a bucket read-back decodes whole batches instead of paying
//! per-tuple framing on the hot overflow path.

use std::sync::Arc;

use tukwila_common::{
    Bitmap, Column, ColumnarBatch, Result, TukwilaError, Tuple, TupleBatch, Value,
};

const TAG_INT: u8 = 0;
const TAG_DOUBLE: u8 = 1;
const TAG_STR: u8 = 2;
const TAG_DATE: u8 = 3;
const TAG_NULL: u8 = 4;

/// High bit of the batch-frame count word: set for columnar frames, clear
/// for row frames. Both frame kinds coexist in one spill file.
const COLS_FLAG: u32 = 1 << 31;

const COL_INT64: u8 = 0;
const COL_FLOAT64: u8 = 1;
const COL_STR: u8 = 2;
const COL_DATE: u8 = 3;
const COL_VALUES: u8 = 4;

/// Append the encoding of `v` to `out`.
pub fn encode_value(v: &Value, out: &mut Vec<u8>) {
    match v {
        Value::Int(i) => {
            out.push(TAG_INT);
            out.extend_from_slice(&i.to_le_bytes());
        }
        Value::Double(d) => {
            out.push(TAG_DOUBLE);
            out.extend_from_slice(&d.to_le_bytes());
        }
        Value::Str(s) => {
            out.push(TAG_STR);
            out.extend_from_slice(&(s.len() as u32).to_le_bytes());
            out.extend_from_slice(s.as_bytes());
        }
        Value::Date(d) => {
            out.push(TAG_DATE);
            out.extend_from_slice(&d.to_le_bytes());
        }
        Value::Null => out.push(TAG_NULL),
    }
}

fn take<'a>(buf: &'a [u8], pos: &mut usize, n: usize) -> Result<&'a [u8]> {
    let end = *pos + n;
    let slice = buf
        .get(*pos..end)
        .ok_or_else(|| TukwilaError::Io(format!("spill codec: truncated at byte {pos}")))?;
    *pos = end;
    Ok(slice)
}

/// Decode one value starting at `pos`, advancing `pos`.
pub fn decode_value(buf: &[u8], pos: &mut usize) -> Result<Value> {
    let tag = take(buf, pos, 1)?[0];
    match tag {
        TAG_INT => Ok(Value::Int(i64::from_le_bytes(
            take(buf, pos, 8)?.try_into().unwrap(),
        ))),
        TAG_DOUBLE => Ok(Value::Double(f64::from_le_bytes(
            take(buf, pos, 8)?.try_into().unwrap(),
        ))),
        TAG_STR => {
            let len = u32::from_le_bytes(take(buf, pos, 4)?.try_into().unwrap()) as usize;
            let bytes = take(buf, pos, len)?;
            let s = std::str::from_utf8(bytes)
                .map_err(|e| TukwilaError::Io(format!("spill codec: bad utf8: {e}")))?;
            Ok(Value::str(s))
        }
        TAG_DATE => Ok(Value::Date(i32::from_le_bytes(
            take(buf, pos, 4)?.try_into().unwrap(),
        ))),
        TAG_NULL => Ok(Value::Null),
        other => Err(TukwilaError::Io(format!(
            "spill codec: unknown value tag {other}"
        ))),
    }
}

/// Append the encoding of `t` (arity-prefixed) to `out`.
pub fn encode_tuple(t: &Tuple, out: &mut Vec<u8>) {
    out.extend_from_slice(&(t.arity() as u32).to_le_bytes());
    for v in t.values() {
        encode_value(v, out);
    }
}

/// Decode one tuple starting at `pos`, advancing `pos`.
pub fn decode_tuple(buf: &[u8], pos: &mut usize) -> Result<Tuple> {
    let arity = u32::from_le_bytes(take(buf, pos, 4)?.try_into().unwrap()) as usize;
    if arity > 1 << 20 {
        return Err(TukwilaError::Io(format!(
            "spill codec: implausible arity {arity}"
        )));
    }
    let mut values = Vec::with_capacity(arity);
    for _ in 0..arity {
        values.push(decode_value(buf, pos)?);
    }
    Ok(Tuple::new(values))
}

/// Decode a whole buffer of concatenated tuples.
pub fn decode_all(buf: &[u8]) -> Result<Vec<Tuple>> {
    let mut pos = 0;
    let mut out = Vec::new();
    while pos < buf.len() {
        out.push(decode_tuple(buf, &mut pos)?);
    }
    Ok(out)
}

/// Append the encoding of a whole batch frame (tuple-count prefix + tuples)
/// to `out`.
pub fn encode_batch(tuples: &[Tuple], out: &mut Vec<u8>) {
    out.extend_from_slice(&(tuples.len() as u32).to_le_bytes());
    for t in tuples {
        encode_tuple(t, out);
    }
}

/// Append the encoding of `batch` in its natural representation: columnar
/// batches write a column-major frame (typed payload vectors, no per-value
/// tags); row batches write the row frame of [`encode_batch`].
pub fn encode_batch_frame(batch: &TupleBatch, out: &mut Vec<u8>) {
    match batch.columns() {
        Some(cols) => encode_columns(cols, out),
        None => encode_batch(batch.tuples(), out),
    }
}

fn encode_validity(validity: Option<&Bitmap>, len: usize, out: &mut Vec<u8>) {
    match validity {
        None => out.push(0),
        Some(b) => {
            out.push(1);
            let mut byte = 0u8;
            for i in 0..len {
                if b.get(i) {
                    byte |= 1 << (i % 8);
                }
                if i % 8 == 7 {
                    out.push(byte);
                    byte = 0;
                }
            }
            if !len.is_multiple_of(8) {
                out.push(byte);
            }
        }
    }
}

fn decode_validity(buf: &[u8], pos: &mut usize, len: usize) -> Result<Option<Bitmap>> {
    match take(buf, pos, 1)?[0] {
        0 => Ok(None),
        1 => {
            let bytes = take(buf, pos, len.div_ceil(8))?;
            let mut b = Bitmap::all_clear(len);
            for i in 0..len {
                if bytes[i / 8] & (1 << (i % 8)) != 0 {
                    b.set(i);
                }
            }
            Ok(Some(b))
        }
        other => Err(TukwilaError::Io(format!(
            "spill codec: bad validity flag {other}"
        ))),
    }
}

fn encode_column(col: &Column, out: &mut Vec<u8>) {
    match col {
        Column::Int64(v, b) => {
            out.push(COL_INT64);
            encode_validity(b.as_ref(), v.len(), out);
            for x in v {
                out.extend_from_slice(&x.to_le_bytes());
            }
        }
        Column::Float64(v, b) => {
            out.push(COL_FLOAT64);
            encode_validity(b.as_ref(), v.len(), out);
            // Bit-exact: NaN payloads and -0.0 survive the round trip.
            for x in v {
                out.extend_from_slice(&x.to_bits().to_le_bytes());
            }
        }
        Column::Str(v, b) => {
            out.push(COL_STR);
            encode_validity(b.as_ref(), v.len(), out);
            for s in v.iter() {
                out.extend_from_slice(&(s.len() as u32).to_le_bytes());
                out.extend_from_slice(s.as_bytes());
            }
        }
        Column::Date(v, b) => {
            out.push(COL_DATE);
            encode_validity(b.as_ref(), v.len(), out);
            for x in v {
                out.extend_from_slice(&x.to_le_bytes());
            }
        }
        Column::Values(v) => {
            out.push(COL_VALUES);
            for x in v {
                encode_value(x, out);
            }
        }
    }
}

fn decode_column(buf: &[u8], pos: &mut usize, len: usize) -> Result<Column> {
    let kind = take(buf, pos, 1)?[0];
    if kind == COL_VALUES {
        let mut v = Vec::with_capacity(len);
        for _ in 0..len {
            v.push(decode_value(buf, pos)?);
        }
        return Ok(Column::Values(v));
    }
    let validity = decode_validity(buf, pos, len)?;
    match kind {
        COL_INT64 => {
            let mut v = Vec::with_capacity(len);
            for _ in 0..len {
                v.push(i64::from_le_bytes(take(buf, pos, 8)?.try_into().unwrap()));
            }
            Ok(Column::Int64(v, validity))
        }
        COL_FLOAT64 => {
            let mut v = Vec::with_capacity(len);
            for _ in 0..len {
                v.push(f64::from_bits(u64::from_le_bytes(
                    take(buf, pos, 8)?.try_into().unwrap(),
                )));
            }
            Ok(Column::Float64(v, validity))
        }
        COL_STR => {
            let mut v: Vec<Arc<str>> = Vec::with_capacity(len);
            for _ in 0..len {
                let n = u32::from_le_bytes(take(buf, pos, 4)?.try_into().unwrap()) as usize;
                let s = std::str::from_utf8(take(buf, pos, n)?)
                    .map_err(|e| TukwilaError::Io(format!("spill codec: bad utf8: {e}")))?;
                v.push(Arc::from(s));
            }
            Ok(Column::Str(v.into(), validity))
        }
        COL_DATE => {
            let mut v = Vec::with_capacity(len);
            for _ in 0..len {
                v.push(i32::from_le_bytes(take(buf, pos, 4)?.try_into().unwrap()));
            }
            Ok(Column::Date(v, validity))
        }
        other => Err(TukwilaError::Io(format!(
            "spill codec: unknown column kind {other}"
        ))),
    }
}

/// Exact on-wire size of one encoded column (kind tag + validity section +
/// typed payload), except `Values` columns where the per-value tags make an
/// exact count as expensive as encoding — those report a lower bound.
fn column_encoded_size(col: &Column) -> usize {
    fn validity_bytes(b: Option<&Bitmap>, len: usize) -> usize {
        match b {
            Some(_) => 1 + len.div_ceil(8),
            None => 1,
        }
    }
    match col {
        Column::Int64(v, b) => 1 + validity_bytes(b.as_ref(), v.len()) + v.len() * 8,
        Column::Float64(v, b) => 1 + validity_bytes(b.as_ref(), v.len()) + v.len() * 8,
        Column::Str(v, b) => {
            1 + validity_bytes(b.as_ref(), v.len()) + v.iter().map(|s| 4 + s.len()).sum::<usize>()
        }
        Column::Date(v, b) => 1 + validity_bytes(b.as_ref(), v.len()) + v.len() * 4,
        Column::Values(v) => 1 + v.len(),
    }
}

/// Size the write path should reserve before encoding `batch` as one frame
/// — exact for columnar batches of typed columns, a lower bound otherwise.
/// One up-front `reserve` replaces the doubling-reallocation chain that a
/// cold output buffer would go through while a frame streams in (the wire
/// and spill write paths encode thousands of frames per query).
pub fn batch_frame_size_hint(batch: &TupleBatch) -> usize {
    match batch.columns() {
        Some(cols) => {
            8 + (0..cols.num_cols())
                .map(|c| column_encoded_size(cols.col(c)))
                .sum::<usize>()
        }
        None => 4 + batch.len(),
    }
}

/// Append a column-major batch frame: count word with [`COLS_FLAG`] set,
/// column count, then each column (kind tag, validity bits, typed payload).
pub fn encode_columns(cols: &ColumnarBatch, out: &mut Vec<u8>) {
    let payload: usize = (0..cols.num_cols())
        .map(|c| column_encoded_size(cols.col(c)))
        .sum();
    out.reserve(8 + payload);
    out.extend_from_slice(&(cols.len() as u32 | COLS_FLAG).to_le_bytes());
    out.extend_from_slice(&(cols.num_cols() as u32).to_le_bytes());
    for c in 0..cols.num_cols() {
        encode_column(cols.col(c), out);
    }
}

/// Decode one batch frame starting at `pos`, advancing `pos`. Dispatches on
/// the count word's high bit: columnar frames decode straight into a
/// columnar [`TupleBatch`] (no row materialization), row frames as before.
pub fn decode_batch(buf: &[u8], pos: &mut usize) -> Result<TupleBatch> {
    let word = u32::from_le_bytes(take(buf, pos, 4)?.try_into().unwrap());
    let count = (word & !COLS_FLAG) as usize;
    if count > 1 << 26 {
        return Err(TukwilaError::Io(format!(
            "spill codec: implausible batch count {count}"
        )));
    }
    if word & COLS_FLAG != 0 {
        let ncols = u32::from_le_bytes(take(buf, pos, 4)?.try_into().unwrap()) as usize;
        if ncols > 1 << 20 {
            return Err(TukwilaError::Io(format!(
                "spill codec: implausible column count {ncols}"
            )));
        }
        let mut cols = Vec::with_capacity(ncols);
        for _ in 0..ncols {
            cols.push(decode_column(buf, pos, count)?);
        }
        return Ok(TupleBatch::from_columns(ColumnarBatch::new(count, cols)));
    }
    let mut batch = TupleBatch::with_capacity(count.max(1));
    for _ in 0..count {
        batch.push(decode_tuple(buf, pos)?);
    }
    Ok(batch)
}

/// Decode a whole buffer of concatenated batch frames.
pub fn decode_all_batches(buf: &[u8]) -> Result<Vec<TupleBatch>> {
    let mut pos = 0;
    let mut out = Vec::new();
    while pos < buf.len() {
        out.push(decode_batch(buf, &mut pos)?);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use tukwila_common::tuple;

    fn round_trip(t: &Tuple) -> Tuple {
        let mut buf = Vec::new();
        encode_tuple(t, &mut buf);
        let mut pos = 0;
        let back = decode_tuple(&buf, &mut pos).unwrap();
        assert_eq!(pos, buf.len());
        back
    }

    #[test]
    fn round_trips_all_types() {
        let t = Tuple::new(vec![
            Value::Int(-5),
            Value::Double(2.75),
            Value::str("tukwila"),
            Value::Date(9_000),
            Value::Null,
        ]);
        assert_eq!(round_trip(&t), t);
    }

    #[test]
    fn empty_tuple() {
        assert_eq!(round_trip(&Tuple::empty()), Tuple::empty());
    }

    #[test]
    fn decode_all_concatenated() {
        let mut buf = Vec::new();
        encode_tuple(&tuple![1, "a"], &mut buf);
        encode_tuple(&tuple![2, "b"], &mut buf);
        let ts = decode_all(&buf).unwrap();
        assert_eq!(ts, vec![tuple![1, "a"], tuple![2, "b"]]);
    }

    #[test]
    fn truncation_is_error_not_garbage() {
        let mut buf = Vec::new();
        encode_tuple(&tuple![1, "hello"], &mut buf);
        buf.truncate(buf.len() - 2);
        assert!(decode_all(&buf).is_err());
    }

    #[test]
    fn unknown_tag_rejected() {
        let buf = [1u32.to_le_bytes().to_vec(), vec![99u8]].concat();
        assert!(decode_all(&buf).is_err());
    }

    #[test]
    fn batch_frames_round_trip() {
        let mut buf = Vec::new();
        encode_batch(&[tuple![1, "a"], tuple![2, "b"]], &mut buf);
        encode_batch(&[], &mut buf);
        encode_batch(&[tuple![3]], &mut buf);
        let batches = decode_all_batches(&buf).unwrap();
        assert_eq!(batches.len(), 3);
        assert_eq!(batches[0].tuples(), &[tuple![1, "a"], tuple![2, "b"]]);
        assert!(batches[1].is_empty());
        assert_eq!(batches[2].tuples(), &[tuple![3]]);
    }

    #[test]
    fn batch_decode_rejects_truncation() {
        let mut buf = Vec::new();
        encode_batch(&[tuple![1, "hello"], tuple![2, "world"]], &mut buf);
        buf.truncate(buf.len() - 3);
        assert!(decode_all_batches(&buf).is_err());
    }

    #[test]
    fn batch_decode_rejects_implausible_count() {
        let buf = (1u32 << 27).to_le_bytes().to_vec();
        assert!(decode_all_batches(&buf).is_err());
    }

    #[test]
    fn columnar_frame_round_trips_all_types() {
        let rows = vec![
            Tuple::new(vec![
                Value::Int(i64::MIN),
                Value::Double(-0.0),
                Value::str("a"),
                Value::Date(-1),
            ]),
            Tuple::new(vec![
                Value::Null,
                Value::Double(f64::NAN),
                Value::Null,
                Value::Null,
            ]),
            Tuple::new(vec![
                Value::Int(7),
                Value::Null,
                Value::str(""),
                Value::Date(9_000),
            ]),
        ];
        let cols = ColumnarBatch::from_rows(&rows);
        let mut buf = Vec::new();
        encode_columns(&cols, &mut buf);
        let mut pos = 0;
        let back = decode_batch(&buf, &mut pos).unwrap();
        assert_eq!(pos, buf.len());
        assert!(back.columns().is_some(), "decoded frame stays columnar");
        // NaN breaks Value equality; compare via bit-stable debug strings.
        assert_eq!(format!("{:?}", back.tuples()), format!("{rows:?}"));
    }

    #[test]
    fn columnar_and_row_frames_coexist_in_one_buffer() {
        let rows = vec![tuple![1, "a"], tuple![2, "b"]];
        let mut buf = Vec::new();
        encode_batch(&rows, &mut buf);
        encode_columns(&ColumnarBatch::from_rows(&rows), &mut buf);
        let batches = decode_all_batches(&buf).unwrap();
        assert_eq!(batches.len(), 2);
        assert_eq!(batches[0].tuples(), batches[1].tuples());
    }

    #[test]
    fn columnar_frame_rejects_truncation() {
        let mut buf = Vec::new();
        encode_columns(&ColumnarBatch::from_rows(&[tuple![1, "hello"]]), &mut buf);
        buf.truncate(buf.len() - 2);
        assert!(decode_all_batches(&buf).is_err());
    }

    #[test]
    fn batch_frame_dispatches_on_representation() {
        let row_batch = TupleBatch::from_tuples(vec![tuple![1]]);
        let col_batch = TupleBatch::from_columns(ColumnarBatch::from_rows(&[tuple![1]]));
        let (mut a, mut b) = (Vec::new(), Vec::new());
        encode_batch_frame(&row_batch, &mut a);
        encode_batch_frame(&col_batch, &mut b);
        let word_a = u32::from_le_bytes(a[..4].try_into().unwrap());
        let word_b = u32::from_le_bytes(b[..4].try_into().unwrap());
        assert_eq!(word_a & COLS_FLAG, 0);
        assert_ne!(word_b & COLS_FLAG, 0);
        let mut pos = 0;
        assert_eq!(decode_batch(&b, &mut pos).unwrap().tuples(), &[tuple![1]]);
    }

    proptest! {
        #[test]
        fn prop_columnar_round_trip(
            ints in proptest::collection::vec(
                prop_oneof![3 => any::<i64>().prop_map(Some), 1 => Just(None)], 1..40),
            strs in proptest::collection::vec(
                prop_oneof![3 => "\\PC{0,12}".prop_map(Some), 1 => Just(None)], 1..40),
        ) {
            let n = ints.len().min(strs.len());
            let rows: Vec<Tuple> = (0..n)
                .map(|i| {
                    Tuple::new(vec![
                        ints[i].map_or(Value::Null, Value::Int),
                        strs[i].as_deref().map_or(Value::Null, Value::str),
                    ])
                })
                .collect();
            let cols = ColumnarBatch::from_rows(&rows);
            let mut buf = Vec::new();
            encode_columns(&cols, &mut buf);
            let mut pos = 0;
            let back = decode_batch(&buf, &mut pos).unwrap();
            prop_assert_eq!(pos, buf.len());
            prop_assert_eq!(back.tuples(), &rows[..]);
        }
    }

    proptest! {
        /// A string column's frame does not depend on how its segments are
        /// laid out: a gather of one table grown by a slice of another encodes
        /// to the bytes of the same strings held one per row, and decodes
        /// back to them.
        #[test]
        fn prop_shared_segment_strings_encode_like_plain_ones(
            a in proptest::collection::vec(
                prop_oneof![3 => "\\PC{0,12}".prop_map(Some), 1 => Just(None)], 1..24),
            b in proptest::collection::vec(
                prop_oneof![3 => "\\PC{0,12}".prop_map(Some), 1 => Just(None)], 1..24),
            picks in proptest::collection::vec(0usize..24, 0..40),
            cut in 0usize..24,
        ) {
            let rows = |strs: &[Option<String>]| -> Vec<Tuple> {
                strs.iter()
                    .map(|s| Tuple::new(vec![s.as_deref().map_or(Value::Null, Value::str)]))
                    .collect()
            };
            let idx: Vec<u32> = picks.iter().map(|p| (p % a.len()) as u32).collect();
            let cut = cut % b.len();
            let shared = ColumnarBatch::concat(
                [
                    &ColumnarBatch::from_rows(&rows(&a)).gather(&idx),
                    &ColumnarBatch::from_rows(&rows(&b)).slice(cut, b.len()),
                ]
                .into_iter(),
            );
            let want: Vec<Option<String>> = idx
                .iter()
                .map(|&i| a[i as usize].clone())
                .chain(b[cut..].iter().cloned())
                .collect();
            // An all-NULL table infers a `Values` column, which cannot be
            // appended to a typed one; nothing to compare then.
            if let Some(shared) = shared {
                let plain = ColumnarBatch::from_rows(&rows(&want));
                let (mut got, mut expect) = (Vec::new(), Vec::new());
                encode_columns(&shared, &mut got);
                encode_columns(&plain, &mut expect);
                if plain.col(0).validity().is_some() == shared.col(0).validity().is_some() {
                    prop_assert_eq!(&got, &expect);
                }
                prop_assert_eq!(got.len(), batch_frame_size_hint(&TupleBatch::from_columns(shared)));
                let mut pos = 0;
                let back = decode_batch(&got, &mut pos).unwrap();
                prop_assert_eq!(pos, got.len());
                prop_assert_eq!(back.tuples(), &rows(&want)[..]);
            }
        }
    }

    proptest! {
        #[test]
        fn prop_round_trip(ints in proptest::collection::vec(any::<i64>(), 0..6),
                           s in "\\PC{0,24}") {
            let mut vals: Vec<Value> = ints.into_iter().map(Value::Int).collect();
            vals.push(Value::str(&s));
            vals.push(Value::Double(0.5));
            let t = Tuple::new(vals);
            prop_assert_eq!(round_trip(&t), t);
        }
    }
}
