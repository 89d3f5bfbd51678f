//! The coordinator half of distributed exchange: a [`Cluster`] dials a
//! pool of worker addresses and is a
//! [`tukwila_exec::PartitionTransport`]: one shard dispatch per partition
//! (round-robin across workers), one TCP-backed
//! [`tukwila_exec::PartitionStream`] per shard, each obeying the stream
//! lifecycle written down beside that trait.
//!
//! Failure semantics: a worker dying mid-query surfaces on its stream as
//! an `Io` error (the frame reader sees EOF, never a hang — reads tick
//! every 50ms to observe cancel flags) and emits a `worker-lost` trace
//! event; the exchange then fails the query, and the stream's lease on
//! the join's memory reservation is released as it closes.

use std::net::{Shutdown, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use tukwila_common::{Result, Schema, TukwilaError, TupleBatch};
use tukwila_exec::{
    Feeders, OpHarness, Operator, PartitionStream, PartitionTransport, QueryControl, ShardLease,
    ShardSpec,
};
use tukwila_plan::OperatorNode;
use tukwila_trace::{QueryTrace, TraceEvent};

use crate::protocol::{
    decode_msg, error_from_wire, Dispatch, FrameReader, FrameWriter, Msg, CREDIT_WINDOW,
    NET_VERSION,
};

/// Handshake must complete within this long.
const HANDSHAKE_TIMEOUT: Duration = Duration::from_secs(5);
/// Steady-state read tick: how long a blocked batch read waits before
/// re-checking abort/cancel flags.
const STREAM_TICK: Duration = Duration::from_millis(50);

/// A pool of worker addresses acting as the coordinator's partition
/// transport.
/// Shards are dealt round-robin: shard `i` runs on worker `i % workers`,
/// so partition degrees above the worker count multiplex cleanly.
pub struct Cluster {
    addrs: Vec<String>,
}

impl Cluster {
    /// A pool over `addrs` without probing — workers may come up later;
    /// dial errors surface when a query's exchange opens. The service tier
    /// uses this so constructing a coordinator never blocks on workers.
    pub fn new<S: AsRef<str>>(addrs: &[S]) -> Cluster {
        Cluster {
            addrs: addrs.iter().map(|a| a.as_ref().to_string()).collect(),
        }
    }

    /// Probe every address with a handshake and return the pool.
    /// Fail-fast: an unreachable or protocol-mismatched worker is an error
    /// here, not mid-query.
    pub fn connect<S: AsRef<str>>(addrs: &[S]) -> Result<Cluster> {
        if addrs.is_empty() {
            return Err(TukwilaError::Io("net: empty worker address list".into()));
        }
        let cluster = Cluster::new(addrs);
        for addr in &cluster.addrs {
            dial(addr)?;
        }
        Ok(cluster)
    }

    /// The pool's worker addresses, in dispatch order.
    pub fn addrs(&self) -> &[String] {
        &self.addrs
    }
}

/// Dial `addr` and complete the version handshake; returns the framed
/// connection with the steady-state read tick installed.
fn dial(addr: &str) -> Result<(FrameReader<TcpStream>, FrameWriter<TcpStream>)> {
    let conn = TcpStream::connect(addr)
        .map_err(|e| TukwilaError::Io(format!("net: connect {addr}: {e}")))?;
    conn.set_nodelay(true)?;
    conn.set_read_timeout(Some(STREAM_TICK))?;
    let mut reader = FrameReader::new(conn.try_clone()?);
    let mut writer = FrameWriter::new(conn);
    writer.send_hello()?;
    let started = Instant::now();
    loop {
        if let Some((kind, payload)) = reader.read_frame()? {
            match decode_msg(kind, payload)? {
                Msg::HelloAck { version } if version == NET_VERSION => break,
                Msg::HelloAck { version } => {
                    return Err(TukwilaError::Io(format!(
                        "net: worker {addr} speaks protocol v{version}, expected v{NET_VERSION}"
                    )))
                }
                Msg::Error { kind, message } => return Err(error_from_wire(addr, &kind, &message)),
                other => {
                    return Err(TukwilaError::Io(format!(
                        "net: worker {addr}: expected HelloAck, got {other:?}"
                    )))
                }
            }
        }
        if started.elapsed() > HANDSHAKE_TIMEOUT {
            return Err(TukwilaError::Io(format!(
                "net: worker {addr}: handshake timed out"
            )));
        }
    }
    Ok((reader, writer))
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
            let (reader, mut writer) = dial(addr)?;
            rt.trace().emit(TraceEvent::WorkerConnected {
                worker: addr.clone(),
            });
            let dispatch = Dispatch {
                shard_index: shard as u32,
                shard_count: shards as u32,
                batch_size: spec.batch_size as u32,
                shard_budget: spec.shard_budget as u64,
                deadline: spec.deadline,
                initial_credits: CREDIT_WINDOW,
                plan_text: spec.plan_text.clone(),
                tables: spec.tables.clone(),
            };
            let bytes = writer.send_dispatch(&dispatch)?;
            rt.trace().emit(TraceEvent::NetBatchSent {
                worker: addr.clone(),
                bytes,
            });
            streams.push(Box::new(TcpShardStream {
                worker: addr.clone(),
                reader,
                writer,
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
    reader: FrameReader<TcpStream>,
    writer: FrameWriter<TcpStream>,
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
    /// Bail out of a blocked read: tell the worker to stop, then surface
    /// the cancellation to the exchange.
    fn aborted(&mut self) -> TukwilaError {
        let _ = self.writer.send_cancel();
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
            let before = self.reader.bytes_received();
            match self.reader.read_frame() {
                Ok(None) => continue,
                Ok(Some((kind, payload))) => match decode_msg(kind, payload)? {
                    Msg::Error { kind, message } => {
                        self.finished = true;
                        return Err(error_from_wire(&self.worker, &kind, &message));
                    }
                    msg => return Ok((msg, self.reader.bytes_received() - before)),
                },
                Err(e) => return Err(self.lost(e)),
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
                // is issued after `Done` — the worker reads until our EOF.
                let _ = self.writer.send_credit(1);
                Ok(Some(batch))
            }
            (Msg::Done(stats), _) => {
                self.finished = true;
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

    /// The consumer closes first: after `Done` the worker is reading for
    /// exactly this EOF; before it, the EOF is the worker's cancel.
    fn close(&mut self) -> Result<()> {
        self.finished = true;
        self.lease = None;
        let _ = self.writer.get_ref().shutdown(Shutdown::Both);
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
