//! The coordinator/worker wire protocol (DESIGN.md §12).
//!
//! Every message is one length-prefixed frame — `[kind: u8][len: u32 LE]
//! [payload]` — whose payload reuses the spill codec's encodings wherever
//! tuples cross the wire: batch frames travel as
//! [`tukwila_storage::codec::encode_batch_frame`] bytes (bitmap-packed
//! columnar frames for columnar batches), so a batch that was encoded for
//! spilling and one encoded for the network are byte-identical.
//!
//! Conversation, coordinator side first:
//!
//! ```text
//! -> Hello{magic, version}            handshake
//! <- HelloAck{version}
//! -> Dispatch{shard, plan, tables,    one shard of one query
//!             budget, deadline, credits}
//! <- Started{schema}                  fragment opened
//! <- Batch* / -> Credit*              credit-windowed batch stream
//! <- Done{stats} | Error{kind, msg}   terminal
//! -> Cancel                           (any time) stop the shard
//! ```
//!
//! Backpressure: the worker may have at most `initial_credits` batches in
//! flight; each `Credit` from the coordinator (sent as it consumes a
//! batch) refills one send permit. A worker out of permits blocks — and
//! counts the episode in its completion stats as a backpressure stall.
//!
//! Both ends write through a [`FrameWriter`] that reuses one encode buffer
//! per connection (a fresh `Vec` per frame was measurably slower — see
//! EXPERIMENTS.md) and read through a resumable [`FrameReader`] that
//! tolerates socket read timeouts mid-frame, so blocked reads can poll
//! cancellation flags without corrupting frame alignment.

use std::io::{Read, Write};
use std::sync::Arc;
use std::time::Duration;

use tukwila_common::{DataType, Field, Relation, Result, Schema, TukwilaError, TupleBatch};
use tukwila_exec::ShardStats;
use tukwila_storage::codec;

/// Sanity word opening every `Hello`, so a stray client talking to a
/// worker port fails the handshake instead of confusing the framer.
pub const NET_MAGIC: u32 = 0x54_4B_57_4C; // "TKWL"
/// Protocol version; bumped on any frame-layout change.
pub const NET_VERSION: u32 = 1;
/// Upper bound on a single frame's payload, mirroring the spill codec's
/// implausible-count guards.
pub const MAX_FRAME_LEN: usize = 1 << 30;
/// Initial credit window granted in `Dispatch`: how many batches a worker
/// may send before the first `Credit` arrives back.
pub const CREDIT_WINDOW: u32 = 8;

const K_HELLO: u8 = 1;
const K_HELLO_ACK: u8 = 2;
const K_DISPATCH: u8 = 3;
const K_STARTED: u8 = 4;
const K_BATCH: u8 = 5;
const K_CREDIT: u8 = 6;
const K_DONE: u8 = 7;
const K_ERROR: u8 = 8;
const K_CANCEL: u8 = 9;

/// Deadline sentinel in `Dispatch` for "no deadline".
const NO_DEADLINE: u64 = u64::MAX;

/// One shard-dispatch payload: everything a worker needs to execute one
/// shard of a scattered exchange.
#[derive(Debug, Clone)]
pub struct Dispatch {
    /// Which shard of `shard_count` this worker runs.
    pub shard_index: u32,
    /// The exchange's partition degree.
    pub shard_count: u32,
    /// Operator batch size for the worker's engine.
    pub batch_size: u32,
    /// Per-shard memory budget in bytes (0 = unbounded).
    pub shard_budget: u64,
    /// Remaining query deadline, forwarded from the coordinator.
    pub deadline: Option<Duration>,
    /// Initial send-credit window.
    pub initial_credits: u32,
    /// The fragment as parseable plan text.
    pub plan_text: String,
    /// Coordinator-local tables the fragment scans.
    pub tables: Vec<(String, Arc<Relation>)>,
}

/// A decoded inbound message.
#[derive(Debug)]
pub enum Msg {
    /// Handshake open (magic + version checked during decode).
    Hello { version: u32 },
    /// Handshake reply.
    HelloAck { version: u32 },
    /// Shard dispatch.
    Dispatch(Box<Dispatch>),
    /// Worker opened the fragment; batches follow.
    Started { schema: Schema },
    /// One batch of shard output.
    Batch(TupleBatch),
    /// Send-credit refill.
    Credit { n: u32 },
    /// Shard completed with statistics.
    Done(ShardStats),
    /// Shard failed; `kind` is the stable `TukwilaError::kind` tag.
    Error { kind: String, message: String },
    /// Stop executing the shard.
    Cancel,
}

fn closed(what: &str) -> TukwilaError {
    TukwilaError::Io(format!("net: {what}: connection closed"))
}

fn is_timeout(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
    )
}

// ---- primitive cursor helpers -------------------------------------------

fn take<'a>(buf: &'a [u8], pos: &mut usize, n: usize) -> Result<&'a [u8]> {
    if *pos + n > buf.len() {
        return Err(TukwilaError::Io(format!(
            "net codec: truncated frame (need {n} bytes at {pos}, have {})",
            buf.len()
        )));
    }
    let s = &buf[*pos..*pos + n];
    *pos += n;
    Ok(s)
}

fn get_u8(buf: &[u8], pos: &mut usize) -> Result<u8> {
    Ok(take(buf, pos, 1)?[0])
}

fn get_u32(buf: &[u8], pos: &mut usize) -> Result<u32> {
    let b = take(buf, pos, 4)?;
    Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
}

fn get_u64(buf: &[u8], pos: &mut usize) -> Result<u64> {
    let b = take(buf, pos, 8)?;
    let mut a = [0u8; 8];
    a.copy_from_slice(b);
    Ok(u64::from_le_bytes(a))
}

fn put_str(s: &str, out: &mut Vec<u8>) {
    out.extend_from_slice(&(s.len() as u32).to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

fn get_str(buf: &[u8], pos: &mut usize) -> Result<String> {
    let n = get_u32(buf, pos)? as usize;
    if n > MAX_FRAME_LEN {
        return Err(TukwilaError::Io(format!(
            "net codec: implausible string length {n}"
        )));
    }
    let bytes = take(buf, pos, n)?;
    String::from_utf8(bytes.to_vec())
        .map_err(|e| TukwilaError::Io(format!("net codec: bad utf8: {e}")))
}

// ---- schema / relation payloads -----------------------------------------

fn dtype_tag(t: DataType) -> u8 {
    match t {
        DataType::Int => 0,
        DataType::Double => 1,
        DataType::Str => 2,
        DataType::Date => 3,
        DataType::Null => 4,
    }
}

fn dtype_of(tag: u8) -> Result<DataType> {
    Ok(match tag {
        0 => DataType::Int,
        1 => DataType::Double,
        2 => DataType::Str,
        3 => DataType::Date,
        4 => DataType::Null,
        other => {
            return Err(TukwilaError::Io(format!(
                "net codec: unknown data type tag {other}"
            )))
        }
    })
}

fn encode_schema(schema: &Schema, out: &mut Vec<u8>) {
    out.extend_from_slice(&(schema.arity() as u32).to_le_bytes());
    for f in schema.fields() {
        put_str(&f.qualifier, out);
        put_str(&f.name, out);
        out.push(dtype_tag(f.data_type));
    }
}

fn decode_schema(buf: &[u8], pos: &mut usize) -> Result<Schema> {
    let n = get_u32(buf, pos)? as usize;
    if n > 1 << 20 {
        return Err(TukwilaError::Io(format!(
            "net codec: implausible arity {n}"
        )));
    }
    // A field is at least two string lengths and a type tag.
    codec::ensure_room(buf, *pos, n, 9, "schema fields")?;
    let mut fields = Vec::with_capacity(n);
    for _ in 0..n {
        let qualifier = get_str(buf, pos)?;
        let name = get_str(buf, pos)?;
        let data_type = dtype_of(get_u8(buf, pos)?)?;
        fields.push(Field::new(qualifier, name, data_type));
    }
    Ok(Schema::new(fields))
}

/// Tuples per batch frame when a whole relation ships in a dispatch.
const TABLE_CHUNK: usize = 4096;

fn encode_relation(rel: &Relation, out: &mut Vec<u8>) {
    encode_schema(rel.schema(), out);
    let tuples = rel.tuples();
    let chunks = tuples.len().div_ceil(TABLE_CHUNK).max(1);
    out.extend_from_slice(&(chunks as u32).to_le_bytes());
    if tuples.is_empty() {
        codec::encode_batch(&[], out);
        return;
    }
    for chunk in tuples.chunks(TABLE_CHUNK) {
        codec::encode_batch(chunk, out);
    }
}

fn decode_relation(buf: &[u8], pos: &mut usize) -> Result<Relation> {
    let schema = decode_schema(buf, pos)?;
    let chunks = get_u32(buf, pos)? as usize;
    if chunks > 1 << 20 {
        return Err(TukwilaError::Io(format!(
            "net codec: implausible chunk count {chunks}"
        )));
    }
    codec::ensure_room(buf, *pos, chunks, 4, "batch frames")?;
    let mut batches = Vec::with_capacity(chunks);
    for _ in 0..chunks {
        batches.push(codec::decode_batch(buf, pos)?);
    }
    Relation::from_batches(schema, batches)
}

// ---- writer --------------------------------------------------------------

/// Frame writer with a reused per-connection encode buffer: each frame is
/// encoded into the same `Vec` (cleared, capacity kept) and flushed with
/// exactly two `write_all` calls — header then payload — instead of
/// allocating a fresh buffer per frame.
pub struct FrameWriter<W: Write> {
    w: W,
    buf: Vec<u8>,
    bytes_sent: u64,
}

impl<W: Write> FrameWriter<W> {
    /// Wrap a write half.
    pub fn new(w: W) -> Self {
        FrameWriter {
            w,
            buf: Vec::with_capacity(64 * 1024),
            bytes_sent: 0,
        }
    }

    /// The wrapped write half (a socket's owner shuts it down through
    /// this at the end of a stream).
    pub fn get_ref(&self) -> &W {
        &self.w
    }

    /// Total bytes written including frame headers.
    pub fn bytes_sent(&self) -> u64 {
        self.bytes_sent
    }

    /// Flush the buffered payload as one frame; returns its on-wire size.
    fn send_frame(&mut self, kind: u8) -> Result<u64> {
        if self.buf.len() > MAX_FRAME_LEN {
            return Err(TukwilaError::Io(format!(
                "net: frame too large ({} bytes)",
                self.buf.len()
            )));
        }
        let mut header = [0u8; 5];
        header[0] = kind;
        header[1..5].copy_from_slice(&(self.buf.len() as u32).to_le_bytes());
        self.w.write_all(&header)?;
        self.w.write_all(&self.buf)?;
        self.w.flush()?;
        let n = 5 + self.buf.len() as u64;
        self.bytes_sent += n;
        Ok(n)
    }

    /// Handshake open.
    pub fn send_hello(&mut self) -> Result<u64> {
        self.buf.clear();
        self.buf.extend_from_slice(&NET_MAGIC.to_le_bytes());
        self.buf.extend_from_slice(&NET_VERSION.to_le_bytes());
        self.send_frame(K_HELLO)
    }

    /// Handshake reply.
    pub fn send_hello_ack(&mut self) -> Result<u64> {
        self.buf.clear();
        self.buf.extend_from_slice(&NET_VERSION.to_le_bytes());
        self.send_frame(K_HELLO_ACK)
    }

    /// Shard dispatch.
    pub fn send_dispatch(&mut self, d: &Dispatch) -> Result<u64> {
        self.buf.clear();
        self.buf.extend_from_slice(&d.shard_index.to_le_bytes());
        self.buf.extend_from_slice(&d.shard_count.to_le_bytes());
        self.buf.extend_from_slice(&d.batch_size.to_le_bytes());
        self.buf.extend_from_slice(&d.shard_budget.to_le_bytes());
        let deadline_ms = d
            .deadline
            .map(|t| (t.as_millis() as u64).min(NO_DEADLINE - 1))
            .unwrap_or(NO_DEADLINE);
        self.buf.extend_from_slice(&deadline_ms.to_le_bytes());
        self.buf.extend_from_slice(&d.initial_credits.to_le_bytes());
        put_str(&d.plan_text, &mut self.buf);
        self.buf
            .extend_from_slice(&(d.tables.len() as u32).to_le_bytes());
        for (name, rel) in &d.tables {
            put_str(name, &mut self.buf);
            encode_relation(rel, &mut self.buf);
        }
        self.send_frame(K_DISPATCH)
    }

    /// Worker opened the fragment.
    pub fn send_started(&mut self, schema: &Schema) -> Result<u64> {
        self.buf.clear();
        encode_schema(schema, &mut self.buf);
        self.send_frame(K_STARTED)
    }

    /// One output batch, as a spill-codec frame.
    pub fn send_batch(&mut self, batch: &TupleBatch) -> Result<u64> {
        self.buf.clear();
        self.buf.reserve(codec::batch_frame_size_hint(batch));
        codec::encode_batch_frame(batch, &mut self.buf);
        self.send_frame(K_BATCH)
    }

    /// Credit refill.
    pub fn send_credit(&mut self, n: u32) -> Result<u64> {
        self.buf.clear();
        self.buf.extend_from_slice(&n.to_le_bytes());
        self.send_frame(K_CREDIT)
    }

    /// Shard completion.
    pub fn send_done(&mut self, stats: &ShardStats) -> Result<u64> {
        self.buf.clear();
        self.buf.extend_from_slice(&stats.rows.to_le_bytes());
        self.buf.extend_from_slice(&stats.batches.to_le_bytes());
        self.buf
            .extend_from_slice(&stats.backpressure_stalls.to_le_bytes());
        self.buf
            .extend_from_slice(&stats.spill_tuples.to_le_bytes());
        self.send_frame(K_DONE)
    }

    /// Shard failure.
    pub fn send_error(&mut self, e: &TukwilaError) -> Result<u64> {
        self.buf.clear();
        put_str(e.kind(), &mut self.buf);
        put_str(&e.to_string(), &mut self.buf);
        self.send_frame(K_ERROR)
    }

    /// Stop the shard.
    pub fn send_cancel(&mut self) -> Result<u64> {
        self.buf.clear();
        self.send_frame(K_CANCEL)
    }
}

// ---- reader --------------------------------------------------------------

/// Resumable frame reader: a read timeout mid-frame parks the partial
/// header/payload and [`FrameReader::read_frame`] returns `Ok(None)`; the
/// next call resumes exactly where the socket ran dry. EOF and transport
/// errors surface as [`TukwilaError::Io`].
pub struct FrameReader<R: Read> {
    r: R,
    header: [u8; 5],
    header_filled: usize,
    payload: Vec<u8>,
    payload_filled: usize,
    in_payload: bool,
    bytes_received: u64,
}

impl<R: Read> FrameReader<R> {
    /// Wrap a read half.
    pub fn new(r: R) -> Self {
        FrameReader {
            r,
            header: [0; 5],
            header_filled: 0,
            payload: Vec::new(),
            payload_filled: 0,
            in_payload: false,
            bytes_received: 0,
        }
    }

    /// Total bytes consumed including frame headers.
    pub fn bytes_received(&self) -> u64 {
        self.bytes_received
    }

    /// Read one complete frame: `Ok(Some((kind, payload)))`, or `Ok(None)`
    /// if the underlying read timed out (call again after checking cancel
    /// flags).
    pub fn read_frame(&mut self) -> Result<Option<(u8, &[u8])>> {
        if !self.in_payload {
            while self.header_filled < 5 {
                match self.r.read(&mut self.header[self.header_filled..]) {
                    Ok(0) => return Err(closed("reading frame header")),
                    Ok(n) => self.header_filled += n,
                    Err(e) if is_timeout(&e) => return Ok(None),
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                    Err(e) => return Err(TukwilaError::Io(format!("net read: {e}"))),
                }
            }
            let len = u32::from_le_bytes([
                self.header[1],
                self.header[2],
                self.header[3],
                self.header[4],
            ]) as usize;
            if len > MAX_FRAME_LEN {
                return Err(TukwilaError::Io(format!(
                    "net: implausible frame length {len}"
                )));
            }
            self.payload.clear();
            self.payload.resize(len, 0);
            self.payload_filled = 0;
            self.in_payload = true;
        }
        while self.payload_filled < self.payload.len() {
            let fill = &mut self.payload[self.payload_filled..];
            match self.r.read(fill) {
                Ok(0) => return Err(closed("reading frame payload")),
                Ok(n) => self.payload_filled += n,
                Err(e) if is_timeout(&e) => return Ok(None),
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(TukwilaError::Io(format!("net read: {e}"))),
            }
        }
        self.in_payload = false;
        self.header_filled = 0;
        self.bytes_received += 5 + self.payload.len() as u64;
        Ok(Some((self.header[0], &self.payload)))
    }
}

/// Decode a frame into a [`Msg`]. `Hello` frames also validate the magic
/// word.
pub fn decode_msg(kind: u8, payload: &[u8]) -> Result<Msg> {
    let buf = payload;
    let mut pos = 0;
    let msg = match kind {
        K_HELLO => {
            let magic = get_u32(buf, &mut pos)?;
            if magic != NET_MAGIC {
                return Err(TukwilaError::Io(format!(
                    "net: bad handshake magic {magic:#x}"
                )));
            }
            Msg::Hello {
                version: get_u32(buf, &mut pos)?,
            }
        }
        K_HELLO_ACK => Msg::HelloAck {
            version: get_u32(buf, &mut pos)?,
        },
        K_DISPATCH => {
            let shard_index = get_u32(buf, &mut pos)?;
            let shard_count = get_u32(buf, &mut pos)?;
            let batch_size = get_u32(buf, &mut pos)?;
            let shard_budget = get_u64(buf, &mut pos)?;
            let deadline_ms = get_u64(buf, &mut pos)?;
            let initial_credits = get_u32(buf, &mut pos)?;
            let plan_text = get_str(buf, &mut pos)?;
            let ntables = get_u32(buf, &mut pos)? as usize;
            if ntables > 1 << 16 {
                return Err(TukwilaError::Io(format!(
                    "net codec: implausible table count {ntables}"
                )));
            }
            // A table is at least a name length, an arity and a chunk count.
            codec::ensure_room(buf, pos, ntables, 12, "tables")?;
            let mut tables = Vec::with_capacity(ntables);
            for _ in 0..ntables {
                let name = get_str(buf, &mut pos)?;
                let rel = decode_relation(buf, &mut pos)?;
                tables.push((name, Arc::new(rel)));
            }
            Msg::Dispatch(Box::new(Dispatch {
                shard_index,
                shard_count,
                batch_size,
                shard_budget,
                deadline: (deadline_ms != NO_DEADLINE).then(|| Duration::from_millis(deadline_ms)),
                initial_credits,
                plan_text,
                tables,
            }))
        }
        K_STARTED => Msg::Started {
            schema: decode_schema(buf, &mut pos)?,
        },
        K_BATCH => Msg::Batch(codec::decode_batch(buf, &mut pos)?),
        K_CREDIT => Msg::Credit {
            n: get_u32(buf, &mut pos)?,
        },
        K_DONE => Msg::Done(ShardStats {
            rows: get_u64(buf, &mut pos)?,
            batches: get_u64(buf, &mut pos)?,
            backpressure_stalls: get_u64(buf, &mut pos)?,
            spill_tuples: get_u64(buf, &mut pos)?,
        }),
        K_ERROR => Msg::Error {
            kind: get_str(buf, &mut pos)?,
            message: get_str(buf, &mut pos)?,
        },
        K_CANCEL => Msg::Cancel,
        other => return Err(TukwilaError::Io(format!("net: unknown frame kind {other}"))),
    };
    Ok(msg)
}

/// Rebuild a worker-reported error at the coordinator: cancellation and
/// deadline keep their variant (so service-level outcome classification
/// still works); everything else arrives as `Internal` tagged with the
/// worker's identity and the original kind.
pub fn error_from_wire(worker: &str, kind: &str, message: &str) -> TukwilaError {
    match kind {
        "cancelled" => TukwilaError::Cancelled(format!("worker {worker}: {message}")),
        "deadline_exceeded" => TukwilaError::DeadlineExceeded { elapsed_ms: 0 },
        _ => TukwilaError::Internal(format!("worker {worker} [{kind}]: {message}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;
    use tukwila_common::{Tuple, Value};

    fn field(q: &str, n: &str, t: DataType) -> Field {
        Field::new(q, n, t)
    }

    fn sample_schema() -> Schema {
        Schema::new(vec![
            field("L", "k", DataType::Int),
            field("L", "name", DataType::Str),
            field("R", "score", DataType::Double),
            field("R", "when", DataType::Date),
        ])
    }

    /// Write frames into a buffer, then read them all back.
    fn roundtrip(write: impl FnOnce(&mut FrameWriter<&mut Vec<u8>>)) -> Vec<Msg> {
        let mut wire = Vec::new();
        let mut w = FrameWriter::new(&mut wire);
        write(&mut w);
        let sent = w.bytes_sent();
        assert_eq!(sent as usize, wire.len(), "bytes_sent must match the wire");
        let mut out = Vec::new();
        let mut r = FrameReader::new(Cursor::new(wire));
        loop {
            match r.read_frame() {
                Ok(Some((kind, payload))) => out.push(decode_msg(kind, payload).expect("decode")),
                Ok(None) => unreachable!("cursor reads never time out"),
                Err(_) => break, // EOF
            }
        }
        assert_eq!(r.bytes_received(), sent);
        out
    }

    #[test]
    fn control_frames_round_trip() {
        let stats = ShardStats {
            rows: 7,
            batches: 2,
            backpressure_stalls: 1,
            spill_tuples: 40,
        };
        let msgs = roundtrip(|w| {
            w.send_hello().expect("hello");
            w.send_hello_ack().expect("ack");
            w.send_credit(3).expect("credit");
            w.send_done(&stats).expect("done");
            w.send_error(&TukwilaError::Cancelled("stop".into()))
                .expect("error");
            w.send_cancel().expect("cancel");
        });
        assert_eq!(msgs.len(), 6);
        assert!(matches!(
            msgs[0],
            Msg::Hello {
                version: NET_VERSION
            }
        ));
        assert!(matches!(
            msgs[1],
            Msg::HelloAck {
                version: NET_VERSION
            }
        ));
        assert!(matches!(msgs[2], Msg::Credit { n: 3 }));
        match &msgs[3] {
            Msg::Done(s) => assert_eq!(*s, stats),
            other => panic!("expected Done, got {other:?}"),
        }
        match &msgs[4] {
            Msg::Error { kind, message } => {
                assert_eq!(kind, "cancelled");
                assert!(message.contains("stop"));
            }
            other => panic!("expected Error, got {other:?}"),
        }
        assert!(matches!(msgs[5], Msg::Cancel));
    }

    #[test]
    fn started_and_batch_round_trip() {
        let schema = sample_schema();
        let batch = TupleBatch::from_tuples(vec![
            Tuple::new(vec![
                Value::Int(1),
                Value::Str("a".into()),
                Value::Double(0.5),
                Value::Date(11111),
            ]),
            Tuple::new(vec![
                Value::Null,
                Value::Str("".into()),
                Value::Null,
                Value::Date(0),
            ]),
        ]);
        let msgs = roundtrip(|w| {
            w.send_started(&schema).expect("started");
            w.send_batch(&batch).expect("batch");
        });
        match &msgs[0] {
            Msg::Started { schema: s } => assert_eq!(*s, schema),
            other => panic!("expected Started, got {other:?}"),
        }
        match &msgs[1] {
            Msg::Batch(b) => assert_eq!(b.tuples(), batch.tuples()),
            other => panic!("expected Batch, got {other:?}"),
        }
    }

    #[test]
    fn dispatch_round_trips_with_tables() {
        let schema = sample_schema();
        let rel = Relation::new(
            schema,
            vec![Tuple::new(vec![
                Value::Int(9),
                Value::Str("x".into()),
                Value::Double(2.0),
                Value::Date(77),
            ])],
        )
        .expect("relation");
        let d = Dispatch {
            shard_index: 1,
            shard_count: 4,
            batch_size: 512,
            shard_budget: 1 << 20,
            deadline: Some(Duration::from_millis(1_500)),
            initial_credits: CREDIT_WINDOW,
            plan_text: "(fragment f0 (wrapper L))\n(output f0)".into(),
            tables: vec![("t".into(), Arc::new(rel.clone()))],
        };
        let msgs = roundtrip(|w| {
            w.send_dispatch(&d).expect("dispatch");
        });
        match &msgs[0] {
            Msg::Dispatch(back) => {
                assert_eq!(back.shard_index, d.shard_index);
                assert_eq!(back.shard_count, d.shard_count);
                assert_eq!(back.batch_size, d.batch_size);
                assert_eq!(back.shard_budget, d.shard_budget);
                assert_eq!(back.deadline, d.deadline);
                assert_eq!(back.initial_credits, d.initial_credits);
                assert_eq!(back.plan_text, d.plan_text);
                assert_eq!(back.tables.len(), 1);
                assert_eq!(back.tables[0].0, "t");
                assert_eq!(back.tables[0].1.tuples(), rel.tuples());
            }
            other => panic!("expected Dispatch, got {other:?}"),
        }
    }

    #[test]
    fn empty_relation_round_trips() {
        let rel = Relation::empty(sample_schema());
        let d = Dispatch {
            shard_index: 0,
            shard_count: 1,
            batch_size: 64,
            shard_budget: 0,
            deadline: None,
            initial_credits: 1,
            plan_text: String::new(),
            tables: vec![("empty".into(), Arc::new(rel))],
        };
        let msgs = roundtrip(|w| {
            w.send_dispatch(&d).expect("dispatch");
        });
        match &msgs[0] {
            Msg::Dispatch(back) => {
                assert!(back.deadline.is_none());
                assert!(back.tables[0].1.is_empty());
            }
            other => panic!("expected Dispatch, got {other:?}"),
        }
    }

    /// A reader fed one byte at a time — with reads that "time out" in
    /// between — must reassemble frames without corruption.
    struct Trickle {
        data: Vec<u8>,
        pos: usize,
        starve: bool,
    }

    impl std::io::Read for Trickle {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            if self.pos >= self.data.len() {
                return Ok(0);
            }
            self.starve = !self.starve;
            if self.starve {
                return Err(std::io::Error::from(std::io::ErrorKind::WouldBlock));
            }
            buf[0] = self.data[self.pos];
            self.pos += 1;
            Ok(1)
        }
    }

    #[test]
    fn reader_resumes_across_timeouts_mid_frame() {
        let mut wire = Vec::new();
        let mut w = FrameWriter::new(&mut wire);
        w.send_credit(41).expect("credit");
        w.send_hello().expect("hello");
        let mut r = FrameReader::new(Trickle {
            data: wire,
            pos: 0,
            starve: false,
        });
        let mut got = Vec::new();
        loop {
            match r.read_frame() {
                Ok(Some((kind, payload))) => got.push(decode_msg(kind, payload).expect("decode")),
                Ok(None) => continue, // simulated timeout, possibly mid-frame
                Err(_) => break,      // EOF
            }
        }
        assert!(matches!(got[0], Msg::Credit { n: 41 }));
        assert!(matches!(
            got[1],
            Msg::Hello {
                version: NET_VERSION
            }
        ));
    }

    /// The payload of the one frame `write` sends.
    fn payload_of(write: impl FnOnce(&mut FrameWriter<&mut Vec<u8>>)) -> (u8, Vec<u8>) {
        let mut wire = Vec::new();
        write(&mut FrameWriter::new(&mut wire));
        (wire[0], wire[5..].to_vec())
    }

    /// Every truncation and every byte flip of valid row, columnar and
    /// shared-segment string frames decodes to `Ok` or `Err`: no panic, and
    /// no allocation sized from a corrupted header.
    #[test]
    fn truncated_and_flipped_frames_never_panic() {
        use tukwila_common::ColumnarBatch;
        let rows: Vec<Tuple> = (0..5)
            .map(|i| {
                Tuple::new(vec![
                    if i == 2 { Value::Null } else { Value::Int(i) },
                    Value::Str(format!("s{i}").into()),
                    Value::Double(i as f64 / 2.0),
                    Value::Date(i as i32),
                ])
            })
            .collect();
        let columnar = ColumnarBatch::from_rows(&rows);
        let shared = ColumnarBatch::concat(
            [&columnar.gather(&[4, 0, 4]), &columnar.slice(1, 3)].into_iter(),
        )
        .expect("same layout");
        let frames = [
            TupleBatch::from_tuples(rows.clone()),
            TupleBatch::from_columns(columnar),
            TupleBatch::from_columns(shared),
        ]
        .map(|b| payload_of(|w| drop(w.send_batch(&b))));
        let dispatch = payload_of(|w| {
            let rel = Relation::new(sample_schema(), rows).expect("relation");
            drop(w.send_dispatch(&Dispatch {
                shard_index: 0,
                shard_count: 2,
                batch_size: 2,
                shard_budget: 0,
                deadline: None,
                initial_credits: 1,
                plan_text: "p".into(),
                tables: vec![("t".into(), Arc::new(rel))],
            }))
        });
        let started = payload_of(|w| drop(w.send_started(&sample_schema())));
        let check = |kind: u8, bytes: &[u8]| {
            if let Ok(b) = codec::decode_batch(bytes, &mut 0) {
                assert_eq!(b.tuples().len(), b.len());
            }
            let _ = decode_msg(kind, bytes);
        };
        for (kind, payload) in frames.iter().chain([&dispatch, &started]) {
            for cut in 0..payload.len() {
                check(*kind, &payload[..cut]);
            }
            for i in 0..payload.len() {
                for mask in [0x01, 0x80, 0xFF] {
                    let mut flipped = payload.clone();
                    flipped[i] ^= mask;
                    check(*kind, &flipped);
                }
            }
        }
    }

    #[test]
    fn oversized_and_unknown_frames_are_rejected() {
        // Unknown kind.
        assert!(decode_msg(200, &[]).is_err());
        // Bad magic.
        let mut bad = Vec::new();
        bad.extend_from_slice(&0xDEAD_BEEFu32.to_le_bytes());
        bad.extend_from_slice(&NET_VERSION.to_le_bytes());
        assert!(decode_msg(1, &bad).is_err());
        // Implausible frame length in the header.
        let mut header = vec![5u8];
        header.extend_from_slice(&(u32::MAX).to_le_bytes());
        let mut r = FrameReader::new(Cursor::new(header));
        assert!(r.read_frame().is_err());
    }
}
