//! The coordinator half of distributed exchange: a [`Cluster`] holds a
//! list of worker addresses and is a
//! [`tukwila_exec::PartitionTransport`]: one shard dispatch per partition
//! (round-robin across workers), one TCP-backed
//! [`tukwila_exec::PartitionStream`] per shard, each obeying the stream
//! lifecycle written down beside that trait.
//!
//! Connections outlive streams. The cluster keeps an idle pool of
//! handshaken connections per worker address; a shard's dispatch goes out
//! on an idle connection when there is one and on a fresh dial otherwise,
//! and a stream that read its worker's `Done` hands the connection back on
//! `close`. A stream that ended any other way — aborted, failed, lost —
//! shuts its connection down. A pooled connection whose worker has since
//! closed it (the worker stopped or restarted) fails before its first
//! reply; the stream then sends the dispatch again on a fresh dial, so a
//! stale connection never fails a query.
//!
//! Failure semantics: a worker dying mid-query surfaces on its stream as
//! an `Io` error (the frame reader sees EOF, never a hang — reads tick
//! every 50ms to observe cancel flags) and emits a `worker-lost` trace
//! event; the exchange then fails the query, and the stream's lease on
//! the join's memory reservation is released as it closes. An error the
//! worker reports arrives as the variant the worker raised.

use std::collections::HashMap;
use std::net::{Shutdown, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;

use tukwila_common::{Result, Schema, TukwilaError, TupleBatch};
use tukwila_exec::{
    Feeders, OpHarness, Operator, PartitionStream, PartitionTransport, QueryControl, ShardLease,
    ShardSpec,
};
use tukwila_plan::OperatorNode;
use tukwila_trace::{QueryTrace, TraceEvent};

use crate::protocol::{
    decode_msg, error_from_wire, offer_hello, Dispatch, FrameReader, FrameWriter, Msg,
    CREDIT_WINDOW,
};

/// Steady-state read tick: how long a blocked batch read waits before
/// re-checking abort/cancel flags.
const STREAM_TICK: Duration = Duration::from_millis(50);

/// A pool of worker addresses acting as the coordinator's partition
/// transport, with the idle connections to them.
/// Shards are dealt round-robin: shard `i` runs on worker `i % workers`,
/// so partition degrees above the worker count multiplex cleanly.
pub struct Cluster {
    addrs: Vec<String>,
    idle: Arc<IdlePool>,
}

impl Cluster {
    /// A pool over `addrs` without probing — workers may come up later;
    /// dial errors surface when a query's exchange opens. The service tier
    /// uses this so constructing a coordinator never blocks on workers.
    pub fn new<S: AsRef<str>>(addrs: &[S]) -> Cluster {
        Cluster {
            addrs: addrs.iter().map(|a| a.as_ref().to_string()).collect(),
            idle: Arc::default(),
        }
    }

    /// Probe every address with a handshake and return the pool, the
    /// probing connections idle in it.
    /// Fail-fast: an unreachable or protocol-mismatched worker is an error
    /// here, not mid-query.
    pub fn connect<S: AsRef<str>>(addrs: &[S]) -> Result<Cluster> {
        if addrs.is_empty() {
            return Err(TukwilaError::Io("net: empty worker address list".into()));
        }
        let cluster = Cluster::new(addrs);
        for addr in &cluster.addrs {
            cluster.idle.put(addr, dial(addr)?);
        }
        Ok(cluster)
    }

    /// The pool's worker addresses, in dispatch order.
    pub fn addrs(&self) -> &[String] {
        &self.addrs
    }
}

/// A handshaken connection to one worker.
struct Conn {
    reader: FrameReader<TcpStream>,
    writer: FrameWriter<TcpStream>,
}

/// Connections no stream is using, by worker address.
#[derive(Default)]
struct IdlePool(Mutex<HashMap<String, Vec<Conn>>>);

impl IdlePool {
    fn take(&self, addr: &str) -> Option<Conn> {
        self.0.lock().get_mut(addr)?.pop()
    }

    /// The pool holds at most as many connections per worker as the
    /// coordinator once ran shards on it at the same time.
    fn put(&self, addr: &str, conn: Conn) {
        self.0
            .lock()
            .entry(addr.to_string())
            .or_default()
            .push(conn);
    }
}

/// Dial `addr` and complete the version handshake; returns the framed
/// connection with the steady-state read tick installed.
fn dial(addr: &str) -> Result<Conn> {
    let conn = TcpStream::connect(addr)
        .map_err(|e| TukwilaError::Io(format!("net: connect {addr}: {e}")))?;
    conn.set_nodelay(true)?;
    let mut reader = FrameReader::new(conn.try_clone()?);
    let mut writer = FrameWriter::new(conn);
    offer_hello(&mut reader, &mut writer, addr, STREAM_TICK)?;
    Ok(Conn { reader, writer })
}

/// Dial `addr` and send it `dispatch`, tracing both.
fn dial_and_send(addr: &str, dispatch: &Dispatch, trace: &QueryTrace) -> Result<Conn> {
    let mut conn = dial(addr)?;
    trace.emit(TraceEvent::WorkerConnected {
        worker: addr.to_string(),
    });
    let bytes = conn.writer.send_dispatch(dispatch)?;
    trace.emit(TraceEvent::NetBatchSent {
        worker: addr.to_string(),
        bytes,
    });
    Ok(conn)
}

impl PartitionTransport for Cluster {
    /// Even a single shard runs on a worker: the data is there.
    fn splits(&self, _partitions: usize) -> bool {
        true
    }

    fn start(
        &self,
        join: &OperatorNode,
        shards: usize,
        harness: &OpHarness,
        _feeders: &mut Feeders,
    ) -> Result<Vec<Box<dyn PartitionStream>>> {
        let spec = ShardSpec::for_join(join, shards, harness)?;
        let rt = harness.runtime();
        let mut streams: Vec<Box<dyn PartitionStream>> = Vec::with_capacity(shards);
        for shard in 0..shards {
            let addr = &self.addrs[shard % self.addrs.len()];
            let dispatch = Dispatch {
                shard_index: shard as u32,
                initial_credits: CREDIT_WINDOW,
                spec: spec.clone(),
            };
            // An idle connection whose write fails is stale; one whose
            // worker closed it unseen fails at the first read instead, and
            // the stream keeps the dispatch to send again (`next_msg`).
            let pooled = self.idle.take(addr).and_then(|mut conn| {
                let bytes = conn.writer.send_dispatch(&dispatch).ok()?;
                rt.trace().emit(TraceEvent::NetBatchSent {
                    worker: addr.clone(),
                    bytes,
                });
                Some(conn)
            });
            let (conn, resend) = match pooled {
                Some(conn) => (conn, Some(dispatch)),
                None => (dial_and_send(addr, &dispatch, rt.trace())?, None),
            };
            streams.push(Box::new(TcpShardStream {
                worker: addr.clone(),
                conn: Some(conn),
                resend,
                idle: self.idle.clone(),
                done: false,
                control: rt.control().clone(),
                trace: rt.trace().clone(),
                abort: Arc::new(AtomicBool::new(false)),
                lease: ShardLease::take(harness, shard, shards),
                schema: Schema::empty(),
                spill_tuples: 0,
                finished: false,
            }));
        }
        Ok(streams)
    }
}

/// One shard's TCP-backed result stream at the coordinator.
struct TcpShardStream {
    worker: String,
    /// `None` only after `close`.
    conn: Option<Conn>,
    /// The dispatch, kept while it went out on a pooled connection that
    /// has not replied yet: if that connection turns out stale, it goes
    /// out again on a fresh dial.
    resend: Option<Dispatch>,
    idle: Arc<IdlePool>,
    /// The worker's `Done` was read: the connection is clean and goes back
    /// to the pool on `close`.
    done: bool,
    control: Arc<QueryControl>,
    trace: Arc<QueryTrace>,
    abort: Arc<AtomicBool>,
    /// Held until `close`, however the stream ended.
    lease: Option<ShardLease>,
    schema: Schema,
    spill_tuples: u64,
    finished: bool,
}

impl TcpShardStream {
    fn conn(&mut self) -> Result<&mut Conn> {
        (self.conn.as_mut())
            .ok_or_else(|| TukwilaError::Internal("net: shard stream read after close".into()))
    }

    /// Bail out of a blocked read: tell the worker to stop, then surface
    /// the cancellation to the exchange.
    fn aborted(&mut self) -> TukwilaError {
        if let Some(conn) = &mut self.conn {
            let _ = conn.writer.send_cancel();
        }
        match self.control.check() {
            Err(e) => e,
            Ok(()) => TukwilaError::Cancelled(format!("shard stream to {} aborted", self.worker)),
        }
    }

    fn lost(&mut self, e: TukwilaError) -> TukwilaError {
        self.finished = true;
        self.trace.emit(TraceEvent::WorkerLost {
            worker: self.worker.clone(),
            reason: e.to_string(),
        });
        TukwilaError::Io(format!("net: worker {} died mid-query: {e}", self.worker))
    }

    /// Wait for the next frame, observing abort/cancel on every tick. A
    /// worker-reported error ends the stream here.
    fn next_msg(&mut self) -> Result<(Msg, u64)> {
        loop {
            if self.abort.load(Ordering::Relaxed) {
                return Err(self.aborted());
            }
            let reader = &mut self.conn()?.reader;
            let before = reader.bytes_received();
            match reader.read_frame() {
                Ok(None) => continue,
                Ok(Some((kind, payload))) => {
                    let msg = decode_msg(kind, payload)?;
                    let bytes = reader.bytes_received() - before;
                    self.resend = None;
                    if let Msg::Error(e) = msg {
                        self.finished = true;
                        return Err(error_from_wire(&self.worker, e));
                    }
                    return Ok((msg, bytes));
                }
                Err(e) => match self.resend.take() {
                    // The pooled connection this dispatch went out on was
                    // closed by its worker before any reply: send it again.
                    Some(dispatch) => match dial_and_send(&self.worker, &dispatch, &self.trace) {
                        Ok(conn) => self.conn = Some(conn),
                        Err(e) => return Err(self.lost(e)),
                    },
                    None => return Err(self.lost(e)),
                },
            }
        }
    }
}

impl Operator for TcpShardStream {
    /// Block until the worker opened the shard; it streams ahead against
    /// its initial credits meanwhile.
    fn open(&mut self) -> Result<()> {
        match self.next_msg()? {
            (Msg::Started { schema }, _) => {
                self.schema = schema;
                Ok(())
            }
            (other, _) => Err(TukwilaError::Io(format!(
                "net: worker {}: expected Started, got {other:?}",
                self.worker
            ))),
        }
    }

    fn next_batch(&mut self) -> Result<Option<TupleBatch>> {
        if self.finished {
            return Ok(None);
        }
        match self.next_msg()? {
            (Msg::Batch(batch), bytes) => {
                self.trace.emit(TraceEvent::NetBatchReceived {
                    worker: self.worker.clone(),
                    bytes,
                });
                // Credits are advisory flow control: a dead worker is
                // detected by the read path, never the credit path. None
                // is issued after `Done`, so the next dispatch on this
                // connection starts from its own window.
                let _ = self.conn()?.writer.send_credit(1);
                Ok(Some(batch))
            }
            (Msg::Done(stats), _) => {
                self.finished = true;
                self.done = true;
                self.spill_tuples = stats.spill_tuples;
                if stats.backpressure_stalls > 0 {
                    self.trace.emit(TraceEvent::BackpressureStall {
                        worker: self.worker.clone(),
                        stalls: stats.backpressure_stalls,
                    });
                }
                Ok(None)
            }
            (other, _) => Err(TukwilaError::Io(format!(
                "net: worker {}: unexpected frame {other:?}",
                self.worker
            ))),
        }
    }

    /// The consumer closes first. After `Done` the stream has ended and
    /// the connection stays: it goes back to the idle pool, and the
    /// worker's reader waits for the next dispatch on it. Before `Done`,
    /// closing the connection is the worker's cancel.
    fn close(&mut self) -> Result<()> {
        self.finished = true;
        self.lease = None;
        if let Some(conn) = self.conn.take() {
            if self.done {
                self.idle.put(&self.worker, conn);
            } else {
                let _ = conn.writer.get_ref().shutdown(Shutdown::Both);
            }
        }
        Ok(())
    }

    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn name(&self) -> &'static str {
        "shard-stream"
    }
}

impl PartitionStream for TcpShardStream {
    fn abort_handle(&self) -> Option<Arc<AtomicBool>> {
        Some(self.abort.clone())
    }

    fn spill_tuples(&self) -> u64 {
        self.spill_tuples
    }
}
