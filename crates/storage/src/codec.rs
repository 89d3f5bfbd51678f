//! Compact binary batch codec for the file-backed spill store and the wire.
//!
//! Length-prefixed, little-endian. Only needs to round-trip within one
//! process lifetime (spill files never outlive a query), so there is no
//! versioning; there *is* strict validation because a decode error means
//! engine corruption or a hostile peer and must not pass silently.
//!
//! There is one frame: column-major ([`encode_columns`]: a row-count word
//! with its high bit set, the column count, then each column's type tag,
//! validity bits and typed payload). Spill appends write one frame per
//! batch, a bucket read-back decodes whole batches
//! ([`decode_all_columns`]), and the wire carries batches and dispatch
//! tables in it. A frame without the flag (the row frame of earlier
//! versions) or a column tag outside the four types is an `Io` error.

use std::sync::Arc;

use tukwila_common::{Bitmap, Column, ColumnarBatch, Result, TukwilaError, TupleBatch};

/// High bit of the batch-frame count word. Every frame sets it; a clear
/// bit marks a row frame, which no version of this codec still reads.
const COLS_FLAG: u32 = 1 << 31;

const COL_INT64: u8 = 0;
const COL_FLOAT64: u8 = 1;
const COL_STR: u8 = 2;
const COL_DATE: u8 = 3;

fn take<'a>(buf: &'a [u8], pos: &mut usize, n: usize) -> Result<&'a [u8]> {
    let end = *pos + n;
    let slice = buf
        .get(*pos..end)
        .ok_or_else(|| TukwilaError::Io(format!("spill codec: truncated at byte {pos}")))?;
    *pos = end;
    Ok(slice)
}

/// Read a fixed-width field of `N` bytes starting at `pos`, advancing
/// `pos` — the one way every integer and float field is decoded.
fn take_array<const N: usize>(buf: &[u8], pos: &mut usize) -> Result<[u8; N]> {
    let mut out = [0u8; N];
    out.copy_from_slice(take(buf, pos, N)?);
    Ok(out)
}

/// Fail unless `count` items of at least `min_width` encoded bytes each fit
/// in what is left of `buf` after `pos`. Every decoder checks this before
/// sizing an allocation from a header field, so a short hostile frame
/// cannot ask for a vector larger than itself.
pub fn ensure_room(
    buf: &[u8],
    pos: usize,
    count: usize,
    min_width: usize,
    what: &str,
) -> Result<()> {
    let left = buf.len().saturating_sub(pos);
    if count.saturating_mul(min_width) > left {
        return Err(TukwilaError::Io(format!(
            "codec: {count} {what} of at least {min_width} byte(s) each cannot fit in the {left} bytes left"
        )));
    }
    Ok(())
}

/// Append the encoding of `batch`: one column-major frame.
pub fn encode_batch_frame(batch: &TupleBatch, out: &mut Vec<u8>) {
    encode_columns(batch.columns(), out);
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
    }
}

fn decode_column(buf: &[u8], pos: &mut usize, len: usize) -> Result<Column> {
    let kind = take(buf, pos, 1)?[0];
    if kind > COL_DATE {
        return Err(TukwilaError::Io(format!(
            "spill codec: unknown column kind {kind}"
        )));
    }
    let validity = decode_validity(buf, pos, len)?;
    let width = if kind == COL_STR || kind == COL_DATE {
        4
    } else {
        8
    };
    ensure_room(buf, *pos, len, width, "column values")?;
    Ok(match kind {
        COL_INT64 => {
            let mut v = Vec::with_capacity(len);
            for _ in 0..len {
                v.push(i64::from_le_bytes(take_array(buf, pos)?));
            }
            Column::Int64(v, validity)
        }
        COL_FLOAT64 => {
            let mut v = Vec::with_capacity(len);
            for _ in 0..len {
                v.push(f64::from_bits(u64::from_le_bytes(take_array(buf, pos)?)));
            }
            Column::Float64(v, validity)
        }
        COL_STR => {
            let mut v: Vec<Arc<str>> = Vec::with_capacity(len);
            for _ in 0..len {
                let n = u32::from_le_bytes(take_array(buf, pos)?) as usize;
                let s = std::str::from_utf8(take(buf, pos, n)?)
                    .map_err(|e| TukwilaError::Io(format!("spill codec: bad utf8: {e}")))?;
                v.push(Arc::from(s));
            }
            Column::Str(v.into(), validity)
        }
        _ => {
            let mut v = Vec::with_capacity(len);
            for _ in 0..len {
                v.push(i32::from_le_bytes(take_array(buf, pos)?));
            }
            Column::Date(v, validity)
        }
    })
}

/// Exact on-wire size of one encoded column (kind tag + validity section +
/// typed payload).
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
    }
}

/// Exact size of `batch` encoded as one frame. One up-front `reserve`
/// replaces the doubling-reallocation chain that a cold output buffer
/// would go through while a frame streams in (the wire and spill write
/// paths encode thousands of frames per query).
pub fn batch_frame_size_hint(batch: &TupleBatch) -> usize {
    let cols = batch.columns();
    8 + (0..cols.num_cols())
        .map(|c| column_encoded_size(cols.col(c)))
        .sum::<usize>()
}

/// Append a column-major batch frame: count word with `COLS_FLAG` set,
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

/// Decode one batch frame starting at `pos`, advancing `pos`.
pub fn decode_batch(buf: &[u8], pos: &mut usize) -> Result<TupleBatch> {
    let word = u32::from_le_bytes(take_array(buf, pos)?);
    if word & COLS_FLAG == 0 {
        return Err(TukwilaError::Io(
            "spill codec: a row frame (only column frames are read)".into(),
        ));
    }
    let count = (word & !COLS_FLAG) as usize;
    if count > 1 << 26 {
        return Err(TukwilaError::Io(format!(
            "spill codec: implausible batch count {count}"
        )));
    }
    let ncols = u32::from_le_bytes(take_array(buf, pos)?) as usize;
    if ncols > 1 << 20 {
        return Err(TukwilaError::Io(format!(
            "spill codec: implausible column count {ncols}"
        )));
    }
    ensure_room(buf, *pos, ncols, 1, "columns")?;
    let mut cols = Vec::with_capacity(ncols);
    for _ in 0..ncols {
        cols.push(decode_column(buf, pos, count)?);
    }
    Ok(TupleBatch::from_columns(ColumnarBatch::new(count, cols)))
}

/// Decode a whole buffer of concatenated frames — a spill file.
pub fn decode_all_columns(buf: &[u8]) -> Result<Vec<ColumnarBatch>> {
    let mut pos = 0;
    let mut out = Vec::new();
    while pos < buf.len() {
        out.push(decode_batch(buf, &mut pos)?.into_columns());
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use tukwila_common::testing::columns;
    use tukwila_common::{tuple, DataType, Schema, Tuple, Value};

    /// Every frame of `buf`.
    fn decode_all_batches(buf: &[u8]) -> Result<Vec<TupleBatch>> {
        let mut pos = 0;
        let mut out = Vec::new();
        while pos < buf.len() {
            out.push(decode_batch(buf, &mut pos)?);
        }
        Ok(out)
    }

    #[test]
    fn batch_decode_rejects_implausible_count() {
        let buf = ((1u32 << 27) | COLS_FLAG).to_le_bytes().to_vec();
        assert!(decode_all_batches(&buf).is_err());
    }

    #[test]
    fn short_frame_cannot_demand_a_huge_column() {
        // 13 bytes claiming 2^26 rows of one Int64 column with no validity:
        // sized from the header alone this would reserve 512 MiB.
        let mut buf = ((1u32 << 26) | COLS_FLAG).to_le_bytes().to_vec();
        buf.extend_from_slice(&1u32.to_le_bytes());
        buf.extend_from_slice(&[COL_INT64, 0, 0, 0, 0]);
        assert_eq!(buf.len(), 13);
        let err = decode_batch(&buf, &mut 0).unwrap_err();
        assert!(matches!(err, TukwilaError::Io(_)), "{err:?}");
    }

    /// The frames this codec no longer reads — a row frame (count word
    /// without `COLS_FLAG`: row count, then per tuple its arity and tagged
    /// values) and a column tagged 4 (the dynamic `Values` column of
    /// earlier versions) — are typed `Io` errors from a batch decode and
    /// from a spill file's, never a panic.
    #[test]
    fn row_frames_and_dynamic_columns_are_io_errors() {
        let mut row_frame = 1u32.to_le_bytes().to_vec();
        row_frame.extend_from_slice(&1u32.to_le_bytes());
        row_frame.push(0); // INT tag
        row_frame.extend_from_slice(&7i64.to_le_bytes());
        let mut values_column = (1u32 | COLS_FLAG).to_le_bytes().to_vec();
        values_column.extend_from_slice(&1u32.to_le_bytes());
        values_column.push(4);
        values_column.push(0); // INT tag
        values_column.extend_from_slice(&7i64.to_le_bytes());
        for frame in [row_frame, values_column] {
            let err = decode_batch(&frame, &mut 0).unwrap_err();
            assert!(matches!(err, TukwilaError::Io(_)), "{err:?}");
            let mut file = Vec::new();
            encode_columns(&columns(&[tuple![1]]), &mut file);
            file.extend_from_slice(&frame);
            let err = decode_all_columns(&file).unwrap_err();
            assert!(matches!(err, TukwilaError::Io(_)), "{err:?}");
        }
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
        let cols = columns(&rows);
        let mut buf = Vec::new();
        encode_columns(&cols, &mut buf);
        let mut pos = 0;
        let back = decode_batch(&buf, &mut pos).unwrap();
        assert_eq!(pos, buf.len());
        // NaN breaks Value equality; compare via bit-stable debug strings.
        assert_eq!(format!("{:?}", back.to_rows()), format!("{rows:?}"));
    }

    #[test]
    fn spill_files_decode_every_frame() {
        let cols = columns(&[tuple![1, "a"], tuple![2, "b"]]);
        let mut buf = Vec::new();
        encode_columns(&cols, &mut buf);
        encode_columns(&cols.slice(1, 2), &mut buf);
        let back = decode_all_columns(&buf).unwrap();
        assert_eq!(
            back.iter().map(ColumnarBatch::len).collect::<Vec<_>>(),
            [2, 1]
        );
    }

    #[test]
    fn columnar_frame_rejects_truncation() {
        let mut buf = Vec::new();
        encode_columns(&columns(&[tuple![1, "hello"]]), &mut buf);
        buf.truncate(buf.len() - 2);
        assert!(decode_all_batches(&buf).is_err());
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
            let schema = Schema::of("t", &[("i", DataType::Int), ("s", DataType::Str)]);
            let cols = ColumnarBatch::from_rows(&schema, &rows).unwrap();
            let mut buf = Vec::new();
            encode_columns(&cols, &mut buf);
            let mut pos = 0;
            let back = decode_batch(&buf, &mut pos).unwrap();
            prop_assert_eq!(pos, buf.len());
            prop_assert_eq!(back.to_rows(), rows);
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
            let schema = Schema::of("t", &[("s", DataType::Str)]);
            let cols = |strs: &[Option<String>]| -> ColumnarBatch {
                let rows: Vec<Tuple> = strs.iter()
                    .map(|s| Tuple::new(vec![s.as_deref().map_or(Value::Null, Value::str)]))
                    .collect();
                ColumnarBatch::from_rows(&schema, &rows).unwrap()
            };
            let idx: Vec<u32> = picks.iter().map(|p| (p % a.len()) as u32).collect();
            let cut = cut % b.len();
            let shared = ColumnarBatch::concat(
                [&cols(&a).gather(&idx), &cols(&b).slice(cut, b.len())].into_iter(),
            )
            .unwrap()
            .unwrap();
            let want: Vec<Option<String>> = idx
                .iter()
                .map(|&i| a[i as usize].clone())
                .chain(b[cut..].iter().cloned())
                .collect();
            let plain = cols(&want);
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
            prop_assert_eq!(back.to_rows(), plain.to_rows());
        }
    }
}
