//! The worker half of distributed exchange: a TCP server that accepts one
//! shard dispatch per connection, executes it against its own sources, and
//! streams the shard's output back under credit-based backpressure.
//!
//! Shared-nothing: a worker rebuilds the dispatched fragment's input
//! subtrees from its own [`SourceRegistry`] (plus any coordinator-shipped
//! tables) and keeps only its shard via
//! [`tukwila_exec::ShardFilter`] — input tuples never transit the
//! coordinator.
//!
//! Concurrency per connection: the serving thread executes the fragment
//! and writes `Batch` frames; a companion reader thread drains inbound
//! `Credit` and `Cancel` frames so backpressure refills and cancellation
//! land even while the serving thread is deep inside a join build.

use std::io::Write;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicI64, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use tukwila_common::{Result, TukwilaError};
use tukwila_exec::runtime::{ExecEnv, PlanRuntime};
use tukwila_exec::{build_shard_root, CancelKind, QueryControl, ShardStats};
use tukwila_plan::parse_plan;
use tukwila_source::SourceRegistry;
use tukwila_storage::MemoryManager;

use crate::protocol::{decode_msg, Dispatch, FrameReader, FrameWriter, Msg, NET_VERSION};

/// How long a blocked socket read waits before re-checking stop/cancel
/// flags.
const READ_TICK: Duration = Duration::from_millis(100);
/// Accept-loop poll interval while idle.
const ACCEPT_TICK: Duration = Duration::from_millis(5);
/// Sleep while blocked on send credit.
const CREDIT_TICK: Duration = Duration::from_micros(200);

/// A worker process's server: binds a listener and serves shard dispatches
/// until stopped. Each accepted connection runs one handshake + one
/// dispatch on its own thread.
pub struct WorkerServer {
    listener: TcpListener,
    sources: SourceRegistry,
}

impl WorkerServer {
    /// Bind to `addr` (use port 0 for an ephemeral port) serving shards
    /// against `sources`.
    pub fn bind(addr: &str, sources: SourceRegistry) -> Result<WorkerServer> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        Ok(WorkerServer { listener, sources })
    }

    /// The bound address (reports the ephemeral port after a `:0` bind).
    pub fn local_addr(&self) -> Result<SocketAddr> {
        Ok(self.listener.local_addr()?)
    }

    /// Serve until `stop` is set. Connection threads are detached; they
    /// exit on their own when their coordinator hangs up.
    pub fn run(&self, stop: &AtomicBool) {
        while !stop.load(Ordering::Relaxed) {
            match self.listener.accept() {
                Ok((conn, _peer)) => {
                    let sources = self.sources.clone();
                    thread::spawn(move || {
                        // A failed connection is the coordinator's problem
                        // to report (probe connections also land here when
                        // they hang up after the handshake); the worker
                        // just serves the next one.
                        let _ = serve_conn(conn, sources);
                    });
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    thread::sleep(ACCEPT_TICK);
                }
                Err(_) => thread::sleep(ACCEPT_TICK),
            }
        }
    }

    /// Run the server on a background thread; the returned handle stops it
    /// on [`WorkerHandle::shutdown`] or drop. Used by in-process tests and
    /// the loopback harness.
    pub fn spawn(self) -> Result<WorkerHandle> {
        let addr = self.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = stop.clone();
        let thread = thread::spawn(move || self.run(&stop2));
        Ok(WorkerHandle {
            addr,
            stop,
            thread: Some(thread),
        })
    }
}

/// Handle on a background [`WorkerServer`]; stops the server when shut
/// down or dropped.
pub struct WorkerHandle {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    thread: Option<thread::JoinHandle<()>>,
}

impl WorkerHandle {
    /// The worker's listen address, as a dialable string.
    pub fn addr(&self) -> String {
        self.addr.to_string()
    }

    /// Stop the accept loop and join the server thread.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for WorkerHandle {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

/// Wait for one complete frame, ticking through read timeouts.
fn read_msg<R: std::io::Read>(reader: &mut FrameReader<R>) -> Result<Msg> {
    loop {
        if let Some((kind, payload)) = reader.read_frame()? {
            return decode_msg(kind, payload);
        }
    }
}

/// Serve one connection: handshake, one dispatch, stream the shard.
fn serve_conn(conn: TcpStream, sources: SourceRegistry) -> Result<()> {
    conn.set_nodelay(true)?;
    conn.set_read_timeout(Some(READ_TICK))?;
    let mut reader = FrameReader::new(conn.try_clone()?);
    let mut writer = FrameWriter::new(conn);

    match read_msg(&mut reader)? {
        Msg::Hello { version } if version == NET_VERSION => {
            writer.send_hello_ack()?;
        }
        Msg::Hello { version } => {
            let e = TukwilaError::Io(format!(
                "net: protocol version mismatch (worker {NET_VERSION}, coordinator {version})"
            ));
            let _ = writer.send_error(&e);
            return Err(e);
        }
        other => {
            return Err(TukwilaError::Io(format!(
                "net: expected Hello, got {other:?}"
            )))
        }
    }

    let dispatch = match read_msg(&mut reader)? {
        Msg::Dispatch(d) => *d,
        other => {
            return Err(TukwilaError::Io(format!(
                "net: expected Dispatch, got {other:?}"
            )))
        }
    };

    // Send-credit pool, refilled by the reader thread as Credit frames
    // arrive. i64 so the transient fetch_sub below-zero undo is benign.
    let credits = Arc::new(AtomicI64::new(dispatch.initial_credits.max(1) as i64));
    let control = match dispatch.deadline {
        Some(budget) => QueryControl::with_deadline(budget),
        None => QueryControl::unbounded(),
    };

    // Runs until the coordinator closes (EOF) or cancels — past the end of
    // the shard, so the socket is never dropped with frames unread.
    let reader_thread = {
        let credits = credits.clone();
        let control = control.clone();
        thread::spawn(move || loop {
            match reader.read_frame() {
                Ok(None) => {}
                Ok(Some((kind, payload))) => match decode_msg(kind, payload) {
                    Ok(Msg::Credit { n }) => {
                        credits.fetch_add(n as i64, Ordering::AcqRel);
                    }
                    // Cancel — or anything else out of protocol — stops
                    // the shard.
                    Ok(_) => {
                        control.cancel(CancelKind::User);
                        break;
                    }
                    Err(_) => {
                        control.cancel(CancelKind::User);
                        break;
                    }
                },
                // EOF or transport error: the coordinator is gone; kill
                // the shard (if still running) rather than stream into
                // the void.
                Err(_) => {
                    control.cancel(CancelKind::User);
                    break;
                }
            }
        })
    };

    let outcome = run_dispatch(&dispatch, sources, &mut writer, &credits, &control);
    match &outcome {
        Ok(stats) => {
            let _ = writer.send_done(stats);
        }
        Err(e) => {
            let _ = writer.send_error(e);
        }
    }
    // End of stream (see `tukwila_exec::PartitionTransport`): the final
    // frame is out, so half-close and read until the coordinator's EOF.
    // Dropping the socket with its late `Credit` frames unread would reset
    // the connection and discard batches the coordinator has yet to read.
    let _ = writer.get_ref().shutdown(Shutdown::Write);
    let _ = reader_thread.join();
    outcome.map(|_| ())
}

/// Block until a send credit is available; counts one stall episode per
/// dry spell and aborts promptly on cancellation.
fn acquire_credit(
    credits: &AtomicI64,
    control: &Arc<QueryControl>,
    stalls: &mut u64,
) -> Result<()> {
    if credits.fetch_sub(1, Ordering::AcqRel) > 0 {
        return Ok(());
    }
    credits.fetch_add(1, Ordering::AcqRel);
    *stalls += 1;
    loop {
        control.check()?;
        thread::sleep(CREDIT_TICK);
        if credits.fetch_sub(1, Ordering::AcqRel) > 0 {
            return Ok(());
        }
        credits.fetch_add(1, Ordering::AcqRel);
    }
}

/// Execute one shard dispatch and stream its batches.
fn run_dispatch<W: Write>(
    d: &Dispatch,
    sources: SourceRegistry,
    writer: &mut FrameWriter<W>,
    credits: &AtomicI64,
    control: &Arc<QueryControl>,
) -> Result<ShardStats> {
    let mut env = ExecEnv::new(sources).with_batch_size(d.batch_size.max(1) as usize);
    if d.shard_budget > 0 {
        env.memory = MemoryManager::new().with_budget(d.shard_budget as usize);
    }
    for (name, rel) in &d.tables {
        env.local.put(name.clone(), (**rel).clone());
    }

    let plan = parse_plan(&d.plan_text)?;
    let rt = PlanRuntime::for_plan_controlled(&plan, env, control.clone());
    let frag = plan
        .fragment(plan.output)
        .ok_or_else(|| TukwilaError::Plan("net: dispatched plan has no output fragment".into()))?;
    let mut op = build_shard_root(
        &frag.root,
        &rt,
        d.shard_index as usize,
        d.shard_count as usize,
    )?;

    op.open()?;
    writer.send_started(op.schema())?;

    let mut stats = ShardStats::default();
    let result = loop {
        if let Err(e) = control.check() {
            break Err(e);
        }
        let batch = match op.next_batch() {
            Ok(Some(b)) => b,
            Ok(None) => break Ok(()),
            Err(e) => break Err(e),
        };
        if batch.is_empty() {
            continue;
        }
        if let Err(e) = acquire_credit(credits, control, &mut stats.backpressure_stalls) {
            break Err(e);
        }
        stats.rows += batch.len() as u64;
        stats.batches += 1;
        if let Err(e) = writer.send_batch(&batch) {
            break Err(e);
        }
    };
    let closed = op.close();
    result?;
    closed?;
    stats.spill_tuples = rt.env().spill.stats().tuples_written() as u64;
    Ok(stats)
}
