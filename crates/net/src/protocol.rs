//! The coordinator/worker wire protocol (DESIGN.md §12).
//!
//! Every message is one length-prefixed frame — `[kind: u8][len: u32 LE]
//! [payload]` — whose payload reuses the spill codec's column frame
//! wherever rows cross the wire: batches and dispatch tables travel as
//! [`tukwila_storage::codec::encode_columns`] bytes (bitmap-packed typed
//! columns), so a batch that was encoded for spilling and one encoded for
//! the network are byte-identical.
//!
//! Conversation, coordinator side first:
//!
//! ```text
//! -> Hello{magic, version}            handshake
//! <- HelloAck{version}
//! -> Dispatch{shard, plan, tables,    one shard of one query (a shard
//!             budget, deadline,       index at or past the count fails
//!             credits}                to decode)
//! <- Started{schema}                  fragment opened
//! <- Batch* / -> Credit*              credit-windowed batch stream
//! <- Done{stats} | Error{kind, ..}   terminal
//! -> Cancel                           (any time) stop the shard
//! -> Dispatch ...                     the next shard, same connection
//! ```
//!
//! A connection serves dispatches one after another: after `Done` the
//! coordinator may send the next `Dispatch` on it. TCP ordering puts any
//! late `Credit` for a finished stream ahead of the next `Dispatch`, so no
//! end-of-stream frame is needed.
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
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use tukwila_common::{DataType, Field, Relation, Result, Schema, TukwilaError, TupleBatch};
use tukwila_exec::{ShardSpec, ShardStats};
use tukwila_storage::codec;

/// Sanity word opening every `Hello`, so a stray client talking to a
/// worker port fails the handshake instead of confusing the framer.
pub const NET_MAGIC: u32 = 0x54_4B_57_4C; // "TKWL"
/// Protocol version; bumped on any frame-layout change.
pub const NET_VERSION: u32 = 3;
/// Upper bound on a single frame's payload, mirroring the spill codec's
/// implausible-count guards. Only `Dispatch` and `Batch` frames may be this
/// large; every other kind is held to [`MAX_CONTROL_FRAME_LEN`].
pub const MAX_FRAME_LEN: usize = 1 << 30;
/// Upper bound on the payload of a frame that carries no rows. It is also
/// the most a [`FrameReader`] allocates ahead of the bytes that arrived.
pub const MAX_CONTROL_FRAME_LEN: usize = 1 << 20;
/// Initial credit window granted in `Dispatch`: how many batches a worker
/// may send before the first `Credit` arrives back.
pub const CREDIT_WINDOW: u32 = 8;
/// How long either end waits for the other's handshake frame: the
/// coordinator for `HelloAck`, the worker for `Hello`.
pub const HANDSHAKE_TIMEOUT: Duration = Duration::from_secs(5);

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

/// One shard-dispatch payload: the exchange's shard description and which
/// shard of it this worker runs. A decoded dispatch names a shard that
/// exists: `shard_index < spec.shard_count`.
#[derive(Debug, Clone)]
pub struct Dispatch {
    /// Which shard of `spec.shard_count` this worker runs.
    pub shard_index: u32,
    /// Initial send-credit window.
    pub initial_credits: u32,
    /// What every shard of the exchange runs.
    pub spec: ShardSpec,
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
    /// Shard failed, with the worker's error variant and its fields.
    Error(TukwilaError),
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

/// Rows per batch frame when a whole relation ships in a dispatch.
const TABLE_CHUNK: usize = 4096;

/// A relation as its schema, a frame count and that many column frames
/// (one frame of no rows for an empty relation).
fn encode_relation(rel: &Relation, out: &mut Vec<u8>) {
    encode_schema(rel.schema(), out);
    let cols = rel.columnar();
    let chunks = cols.len().div_ceil(TABLE_CHUNK).max(1);
    out.extend_from_slice(&(chunks as u32).to_le_bytes());
    for c in 0..chunks {
        let end = (c * TABLE_CHUNK + TABLE_CHUNK).min(cols.len());
        codec::encode_columns(&cols.slice(c * TABLE_CHUNK, end), out);
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
    // Frames that do not fit the shipped schema are a corrupt table.
    Relation::from_batches(schema, batches)
        .map_err(|e| TukwilaError::Io(format!("net codec: dispatch table: {e}")))
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
        let (spec, buf) = (&d.spec, &mut self.buf);
        buf.clear();
        buf.extend_from_slice(&d.shard_index.to_le_bytes());
        buf.extend_from_slice(&(spec.shard_count as u32).to_le_bytes());
        buf.extend_from_slice(&(spec.batch_size as u32).to_le_bytes());
        buf.extend_from_slice(&(spec.shard_budget as u64).to_le_bytes());
        let deadline_ms = (spec.deadline)
            .map(|t| (t.as_millis() as u64).min(NO_DEADLINE - 1))
            .unwrap_or(NO_DEADLINE);
        buf.extend_from_slice(&deadline_ms.to_le_bytes());
        buf.extend_from_slice(&d.initial_credits.to_le_bytes());
        put_str(&spec.plan_text, buf);
        buf.extend_from_slice(&(spec.tables.len() as u32).to_le_bytes());
        for (name, rel) in &spec.tables {
            put_str(name, buf);
            encode_relation(rel, buf);
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

    /// Shard failure: the variant's [`TukwilaError::kind`] tag, then its
    /// fields, so the coordinator rebuilds the same variant.
    pub fn send_error(&mut self, e: &TukwilaError) -> Result<u64> {
        self.buf.clear();
        put_str(e.kind(), &mut self.buf);
        match e {
            TukwilaError::SourceUnavailable { source, reason } => {
                put_str(source, &mut self.buf);
                put_str(reason, &mut self.buf);
            }
            TukwilaError::SourceTimeout { source, timeout_ms } => {
                put_str(source, &mut self.buf);
                self.buf.extend_from_slice(&timeout_ms.to_le_bytes());
            }
            TukwilaError::OutOfMemory { operator, budget } => {
                put_str(operator, &mut self.buf);
                self.buf.extend_from_slice(&(*budget as u64).to_le_bytes());
            }
            TukwilaError::DeadlineExceeded { elapsed_ms } => {
                self.buf.extend_from_slice(&elapsed_ms.to_le_bytes());
            }
            TukwilaError::Schema(m)
            | TukwilaError::Plan(m)
            | TukwilaError::Optimizer(m)
            | TukwilaError::Reformulation(m)
            | TukwilaError::Rule(m)
            | TukwilaError::Cancelled(m)
            | TukwilaError::Admission(m)
            | TukwilaError::Io(m)
            | TukwilaError::Internal(m) => put_str(m, &mut self.buf),
        }
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
/// errors surface as [`TukwilaError::Io`]. The payload buffer grows with the
/// bytes that arrive (at most [`MAX_CONTROL_FRAME_LEN`] ahead of them), so a
/// header alone cannot make the reader allocate what it claims.
pub struct FrameReader<R: Read> {
    r: R,
    header: [u8; 5],
    header_filled: usize,
    payload: Vec<u8>,
    payload_len: usize,
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
            payload_len: 0,
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
            let limit = match self.header[0] {
                K_DISPATCH | K_BATCH => MAX_FRAME_LEN,
                _ => MAX_CONTROL_FRAME_LEN,
            };
            if len > limit {
                return Err(TukwilaError::Io(format!(
                    "net: implausible length {len} for a frame of kind {}",
                    self.header[0]
                )));
            }
            self.payload.clear();
            self.payload_len = len;
            self.payload_filled = 0;
            self.in_payload = true;
        }
        while self.payload_filled < self.payload_len {
            if self.payload_filled == self.payload.len() {
                // Room for the next bytes only: a frame up to the control
                // ceiling in one step, a larger one doubling as it arrives.
                let step = self.payload.len().max(MAX_CONTROL_FRAME_LEN);
                let grown = self.payload_len.min(self.payload.len() + step);
                self.payload.resize(grown, 0);
            }
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

/// The coordinator's half of the handshake on a fresh connection to
/// `worker`: `Hello`, then the worker's `HelloAck` within
/// [`HANDSHAKE_TIMEOUT`]. Leaves the socket's read timeout at `tick`.
pub(crate) fn offer_hello(
    reader: &mut FrameReader<TcpStream>,
    writer: &mut FrameWriter<TcpStream>,
    worker: &str,
    tick: Duration,
) -> Result<()> {
    writer.send_hello()?;
    let peer = format!("worker {worker}");
    match read_handshake(reader, &peer, HANDSHAKE_TIMEOUT, Some(tick))? {
        Msg::HelloAck { version } if version == NET_VERSION => Ok(()),
        Msg::HelloAck { version } => Err(TukwilaError::Io(format!(
            "net: worker {worker} speaks protocol v{version}, expected v{NET_VERSION}"
        ))),
        Msg::Error(e) => Err(error_from_wire(worker, e)),
        other => Err(TukwilaError::Io(format!(
            "net: worker {worker}: expected HelloAck, got {other:?}"
        ))),
    }
}

/// The worker's half: the coordinator's `Hello` within `timeout`, answered
/// with `HelloAck` — or, from another protocol version, with an `Error`.
/// Leaves the socket without a read timeout.
pub(crate) fn accept_hello(
    reader: &mut FrameReader<TcpStream>,
    writer: &mut FrameWriter<TcpStream>,
    timeout: Duration,
) -> Result<()> {
    let e = match read_handshake(reader, "coordinator", timeout, None)? {
        Msg::Hello { version } if version == NET_VERSION => {
            return writer.send_hello_ack().map(drop)
        }
        Msg::Hello { version } => TukwilaError::Io(format!(
            "net: protocol version mismatch (worker {NET_VERSION}, coordinator {version})"
        )),
        other => {
            return Err(TukwilaError::Io(format!(
                "net: expected Hello, got {other:?}"
            )))
        }
    };
    let _ = writer.send_error(&e);
    Err(e)
}

/// Read the handshake frame `peer` sends first, waiting at most `timeout`;
/// a peer silent that long is an `Io` error. The socket's read timeout is
/// left at `then`.
fn read_handshake(
    reader: &mut FrameReader<TcpStream>,
    peer: &str,
    timeout: Duration,
    then: Option<Duration>,
) -> Result<Msg> {
    let until = Instant::now() + timeout;
    loop {
        let left = until.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return Err(TukwilaError::Io(format!(
                "net: {peer}: no handshake within {timeout:?}"
            )));
        }
        reader.r.set_read_timeout(Some(left))?;
        if let Some((kind, payload)) = reader.read_frame()? {
            let msg = decode_msg(kind, payload);
            reader.r.set_read_timeout(then)?;
            return msg;
        }
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
            if shard_index >= shard_count {
                return Err(TukwilaError::Io(format!(
                    "net: dispatch of shard {shard_index} of {shard_count}"
                )));
            }
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
                initial_credits,
                spec: ShardSpec {
                    plan_text,
                    tables,
                    shard_count: shard_count as usize,
                    batch_size: batch_size as usize,
                    shard_budget: shard_budget as usize,
                    deadline: (deadline_ms != NO_DEADLINE)
                        .then(|| Duration::from_millis(deadline_ms)),
                },
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
        K_ERROR => Msg::Error(decode_error(buf, &mut pos)?),
        K_CANCEL => Msg::Cancel,
        other => return Err(TukwilaError::Io(format!("net: unknown frame kind {other}"))),
    };
    Ok(msg)
}

/// The fields [`FrameWriter::send_error`] wrote after the kind tag.
fn decode_error(buf: &[u8], pos: &mut usize) -> Result<TukwilaError> {
    let kind = get_str(buf, pos)?;
    Ok(match kind.as_str() {
        "source_unavailable" => TukwilaError::SourceUnavailable {
            source: get_str(buf, pos)?,
            reason: get_str(buf, pos)?,
        },
        "source_timeout" => TukwilaError::SourceTimeout {
            source: get_str(buf, pos)?,
            timeout_ms: get_u64(buf, pos)?,
        },
        "out_of_memory" => TukwilaError::OutOfMemory {
            operator: get_str(buf, pos)?,
            budget: get_u64(buf, pos)? as usize,
        },
        "deadline_exceeded" => TukwilaError::DeadlineExceeded {
            elapsed_ms: get_u64(buf, pos)?,
        },
        "schema" => TukwilaError::Schema(get_str(buf, pos)?),
        "plan" => TukwilaError::Plan(get_str(buf, pos)?),
        "optimizer" => TukwilaError::Optimizer(get_str(buf, pos)?),
        "reformulation" => TukwilaError::Reformulation(get_str(buf, pos)?),
        "rule" => TukwilaError::Rule(get_str(buf, pos)?),
        "cancelled" => TukwilaError::Cancelled(get_str(buf, pos)?),
        "admission" => TukwilaError::Admission(get_str(buf, pos)?),
        "io" => TukwilaError::Io(get_str(buf, pos)?),
        "internal" => TukwilaError::Internal(get_str(buf, pos)?),
        other => {
            return Err(TukwilaError::Io(format!(
                "net codec: unknown error kind {other:?}"
            )))
        }
    })
}

/// Rebuild a worker-reported error at the coordinator: the same variant,
/// with `worker`'s address added to its free text (a message, or a failed
/// source's reason). Names and numbers (a timed-out source, an operator, a
/// budget, a deadline's elapsed time) arrive as the worker sent them, so
/// rules that match a source by name still do.
pub fn error_from_wire(worker: &str, e: TukwilaError) -> TukwilaError {
    let at = |m: String| format!("worker {worker}: {m}");
    match e {
        TukwilaError::SourceUnavailable { source, reason } => TukwilaError::SourceUnavailable {
            source,
            reason: at(reason),
        },
        TukwilaError::Schema(m) => TukwilaError::Schema(at(m)),
        TukwilaError::Plan(m) => TukwilaError::Plan(at(m)),
        TukwilaError::Optimizer(m) => TukwilaError::Optimizer(at(m)),
        TukwilaError::Reformulation(m) => TukwilaError::Reformulation(at(m)),
        TukwilaError::Rule(m) => TukwilaError::Rule(at(m)),
        TukwilaError::Cancelled(m) => TukwilaError::Cancelled(at(m)),
        TukwilaError::Admission(m) => TukwilaError::Admission(at(m)),
        TukwilaError::Io(m) => TukwilaError::Io(at(m)),
        TukwilaError::Internal(m) => TukwilaError::Internal(at(m)),
        named @ (TukwilaError::SourceTimeout { .. }
        | TukwilaError::OutOfMemory { .. }
        | TukwilaError::DeadlineExceeded { .. }) => named,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;
    use tukwila_common::{ColumnarBatch, Tuple, Value};

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
    fn a_frame_header_cannot_make_the_reader_allocate_its_claim() {
        // A batch header claiming the maximum, 16 payload bytes, then EOF.
        let mut wire = vec![K_BATCH];
        wire.extend_from_slice(&(MAX_FRAME_LEN as u32).to_le_bytes());
        wire.extend_from_slice(&[7; 16]);
        let mut r = FrameReader::new(Cursor::new(wire));
        assert!(r.read_frame().is_err(), "a truncated frame is an error");
        assert!(
            r.payload.capacity() <= MAX_CONTROL_FRAME_LEN,
            "allocated {} bytes for 16 that arrived",
            r.payload.capacity()
        );

        // A control frame over its ceiling is refused at the header.
        let mut wire = vec![K_CREDIT];
        wire.extend_from_slice(&(MAX_CONTROL_FRAME_LEN as u32 + 1).to_le_bytes());
        let mut r = FrameReader::new(Cursor::new(wire));
        let err = r.read_frame().expect_err("oversized control frame");
        assert_eq!(err.kind(), "io");
        assert_eq!(r.payload.capacity(), 0);

        // A frame larger than the ceiling still reads back whole.
        let big: Vec<u8> = (0..(5 * MAX_CONTROL_FRAME_LEN / 2))
            .map(|i| i as u8)
            .collect();
        let mut wire = vec![K_BATCH];
        wire.extend_from_slice(&(big.len() as u32).to_le_bytes());
        wire.extend_from_slice(&big);
        let mut r = FrameReader::new(Cursor::new(wire));
        let (kind, payload) = r.read_frame().expect("read").expect("no timeout");
        assert_eq!(kind, K_BATCH);
        assert!(payload == big.as_slice());
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
            Msg::Error(TukwilaError::Cancelled(m)) => assert_eq!(m, "stop"),
            other => panic!("expected Error, got {other:?}"),
        }
        assert!(matches!(msgs[5], Msg::Cancel));
    }

    /// Every error variant crosses the wire as itself, fields intact; the
    /// coordinator adds the worker's address to free text only.
    #[test]
    fn every_error_variant_round_trips_typed() {
        let errors = [
            TukwilaError::Schema("s".into()),
            TukwilaError::Plan("p".into()),
            TukwilaError::SourceUnavailable {
                source: "L".into(),
                reason: "link down".into(),
            },
            TukwilaError::SourceTimeout {
                source: "R".into(),
                timeout_ms: 20,
            },
            TukwilaError::OutOfMemory {
                operator: "j1".into(),
                budget: 4096,
            },
            TukwilaError::Optimizer("o".into()),
            TukwilaError::Reformulation("r".into()),
            TukwilaError::Rule("u".into()),
            TukwilaError::Cancelled("c".into()),
            TukwilaError::DeadlineExceeded { elapsed_ms: 7 },
            TukwilaError::Admission("a".into()),
            TukwilaError::Io("i".into()),
            TukwilaError::Internal("b".into()),
        ];
        let msgs = roundtrip(|w| {
            for e in &errors {
                w.send_error(e).expect("error");
            }
        });
        for (sent, got) in errors.iter().zip(msgs) {
            let Msg::Error(got) = got else {
                panic!("expected Error, got {got:?}")
            };
            assert_eq!(got.to_string(), sent.to_string());
            let rebuilt = error_from_wire("10.0.0.1:7", got);
            assert_eq!(rebuilt.kind(), sent.kind());
            assert_eq!(rebuilt.is_recoverable(), sent.is_recoverable());
            let text = rebuilt.to_string();
            match sent {
                TukwilaError::SourceTimeout { .. }
                | TukwilaError::OutOfMemory { .. }
                | TukwilaError::DeadlineExceeded { .. } => assert_eq!(text, sent.to_string()),
                _ => assert!(text.contains("worker 10.0.0.1:7: "), "{text}"),
            }
        }
        assert!(decode_msg(K_ERROR, &payload_of(|w| drop(w.send_hello())).1).is_err());
    }

    #[test]
    fn started_and_batch_round_trip() {
        let schema = sample_schema();
        let rows = [
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
        ];
        let batch =
            TupleBatch::from_columns(ColumnarBatch::from_rows(&schema, &rows).expect("typed rows"));
        let msgs = roundtrip(|w| {
            w.send_started(&schema).expect("started");
            w.send_batch(&batch).expect("batch");
        });
        match &msgs[0] {
            Msg::Started { schema: s } => assert_eq!(*s, schema),
            other => panic!("expected Started, got {other:?}"),
        }
        match &msgs[1] {
            Msg::Batch(b) => assert_eq!(b.to_rows(), rows),
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
            initial_credits: CREDIT_WINDOW,
            spec: ShardSpec {
                plan_text: "(fragment f0 (wrapper L))\n(output f0)".into(),
                tables: vec![("t".into(), Arc::new(rel.clone()))],
                shard_count: 4,
                batch_size: 512,
                shard_budget: 1 << 20,
                deadline: Some(Duration::from_millis(1_500)),
            },
        };
        let msgs = roundtrip(|w| {
            w.send_dispatch(&d).expect("dispatch");
        });
        match &msgs[0] {
            Msg::Dispatch(back) => {
                let (spec, sent) = (&back.spec, &d.spec);
                assert_eq!(back.shard_index, d.shard_index);
                assert_eq!(spec.shard_count, sent.shard_count);
                assert_eq!(spec.batch_size, sent.batch_size);
                assert_eq!(spec.shard_budget, sent.shard_budget);
                assert_eq!(spec.deadline, sent.deadline);
                assert_eq!(back.initial_credits, d.initial_credits);
                assert_eq!(spec.plan_text, sent.plan_text);
                assert_eq!(spec.tables.len(), 1);
                assert_eq!(spec.tables[0].0, "t");
                assert_eq!(spec.tables[0].1.to_rows(), rel.to_rows());
            }
            other => panic!("expected Dispatch, got {other:?}"),
        }
    }

    /// A fixed dispatch, as one shard description carries it. The same
    /// inputs encoded to these bytes when the shard fields sat flat in
    /// `Dispatch`, so nesting them changed nothing on the wire.
    fn fixed_dispatch() -> Dispatch {
        let schema = Schema::new(vec![
            field("T", "k", DataType::Int),
            field("T", "s", DataType::Str),
        ]);
        let rel = Relation::new(
            schema,
            vec![
                Tuple::new(vec![Value::Int(5), Value::Str("ab".into())]),
                Tuple::new(vec![Value::Null, Value::Str("c".into())]),
            ],
        )
        .expect("relation");
        Dispatch {
            shard_index: 1,
            initial_credits: 8,
            spec: ShardSpec {
                plan_text: "(fragment f0 (wrapper L))\n(output f0)".into(),
                tables: vec![("t".into(), Arc::new(rel))],
                shard_count: 3,
                batch_size: 256,
                shard_budget: 1 << 20,
                deadline: Some(Duration::from_millis(2_500)),
            },
        }
    }

    #[test]
    fn dispatch_bytes_are_pinned() {
        const PINNED: &str = "\
            03980000000100000003000000000100000000100000000000c40900000000\
            0000080000002500000028667261676d656e74206630202877726170706572\
            204c29290a286f757470757420663029010000000100000074020000000100\
            000054010000006b0001000000540100000073020100000002000080020000\
            000001010500000000000000000000000000000002000200000061620100000063";
        let mut wire = Vec::new();
        (FrameWriter::new(&mut wire).send_dispatch(&fixed_dispatch())).expect("dispatch");
        let hex: String = wire.iter().map(|b| format!("{b:02x}")).collect();
        assert_eq!(hex, PINNED);
    }

    #[test]
    fn a_dispatch_of_a_shard_that_does_not_exist_is_refused() {
        for (index, count) in [(0, 0), (3, 3), (7, 2)] {
            let mut d = fixed_dispatch();
            d.shard_index = index;
            d.spec.shard_count = count as usize;
            let (kind, payload) = payload_of(|w| drop(w.send_dispatch(&d)));
            let err = decode_msg(kind, &payload).expect_err("impossible shard");
            assert_eq!(err.kind(), "io", "{err}");
        }
        let (kind, payload) = payload_of(|w| drop(w.send_dispatch(&fixed_dispatch())));
        assert!(matches!(decode_msg(kind, &payload), Ok(Msg::Dispatch(_))));
    }

    #[test]
    fn empty_relation_round_trips() {
        let rel = Relation::empty(sample_schema());
        let d = Dispatch {
            shard_index: 0,
            initial_credits: 1,
            spec: ShardSpec {
                plan_text: String::new(),
                tables: vec![("empty".into(), Arc::new(rel))],
                shard_count: 1,
                batch_size: 64,
                shard_budget: 0,
                deadline: None,
            },
        };
        let msgs = roundtrip(|w| {
            w.send_dispatch(&d).expect("dispatch");
        });
        match &msgs[0] {
            Msg::Dispatch(back) => {
                assert!(back.spec.deadline.is_none());
                assert!(back.spec.tables[0].1.is_empty());
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

    /// A dispatch table in a row frame, in a column tagged 4 (the dynamic
    /// `Values` column of earlier versions), or in columns of other types
    /// than its schema's is a typed `Io` error, never a panic.
    #[test]
    fn dispatch_tables_in_row_frames_or_other_types_are_io_errors() {
        let schema = Schema::new(vec![field("L", "k", DataType::Int)]);
        let with_frame = |frame: &[u8]| {
            let mut buf = Vec::new();
            encode_schema(&schema, &mut buf);
            buf.extend_from_slice(&1u32.to_le_bytes());
            buf.extend_from_slice(frame);
            buf
        };
        let mut row_frame = 1u32.to_le_bytes().to_vec();
        row_frame.extend_from_slice(&1u32.to_le_bytes());
        row_frame.push(0);
        row_frame.extend_from_slice(&7i64.to_le_bytes());
        let mut values_column = ((1u32 << 31) | 1).to_le_bytes().to_vec();
        values_column.extend_from_slice(&1u32.to_le_bytes());
        values_column.extend_from_slice(&[4, 0]);
        values_column.extend_from_slice(&7i64.to_le_bytes());
        let mut str_column = Vec::new();
        let strs = Schema::new(vec![field("L", "k", DataType::Str)]);
        let rows = [Tuple::new(vec![Value::str("seven")])];
        codec::encode_columns(
            &ColumnarBatch::from_rows(&strs, &rows).expect("typed rows"),
            &mut str_column,
        );
        for frame in [row_frame, values_column, str_column] {
            let err = decode_relation(&with_frame(&frame), &mut 0).unwrap_err();
            assert!(matches!(err, TukwilaError::Io(_)), "{err:?}");
        }
    }

    /// Every truncation and every byte flip of valid columnar and
    /// shared-segment string frames, and of control frames, decodes to `Ok`
    /// or `Err`: no panic, and no allocation sized from a corrupted header.
    #[test]
    fn truncated_and_flipped_frames_never_panic() {
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
        let columnar = ColumnarBatch::from_rows(&sample_schema(), &rows).expect("typed rows");
        let shared = ColumnarBatch::concat(
            [&columnar.gather(&[4, 0, 4]), &columnar.slice(1, 3)].into_iter(),
        )
        .expect("same layout")
        .expect("two batches");
        let frames = [
            TupleBatch::from_columns(columnar),
            TupleBatch::from_columns(shared),
        ]
        .map(|b| payload_of(|w| drop(w.send_batch(&b))));
        let dispatch = payload_of(|w| {
            let rel = Relation::new(sample_schema(), rows).expect("relation");
            drop(w.send_dispatch(&Dispatch {
                shard_index: 0,
                initial_credits: 1,
                spec: ShardSpec {
                    plan_text: "p".into(),
                    tables: vec![("t".into(), Arc::new(rel))],
                    shard_count: 2,
                    batch_size: 2,
                    shard_budget: 0,
                    deadline: None,
                },
            }))
        });
        let started = payload_of(|w| drop(w.send_started(&sample_schema())));
        let error = payload_of(|w| {
            drop(w.send_error(&TukwilaError::SourceUnavailable {
                source: "L".into(),
                reason: "gone".into(),
            }))
        });
        let check = |kind: u8, bytes: &[u8]| {
            if let Ok(b) = codec::decode_batch(bytes, &mut 0) {
                assert_eq!(b.to_rows().len(), b.len());
            }
            let _ = decode_msg(kind, bytes);
        };
        for (kind, payload) in frames.iter().chain([&dispatch, &started, &error]) {
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
