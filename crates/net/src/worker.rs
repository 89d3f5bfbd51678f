//! The worker half of distributed exchange: a TCP server whose connections
//! each serve shard dispatches one after another, executing each against
//! the worker's own sources and streaming the shard's output back under
//! credit-based backpressure.
//!
//! Shared-nothing: a worker rebuilds the dispatched fragment's input
//! subtrees from its own [`SourceRegistry`] (plus any coordinator-shipped
//! tables) and keeps only its shard via
//! [`tukwila_exec::ShardFilter`] — input tuples never transit the
//! coordinator.
//!
//! A dispatch is a fragment like any other: its [`tukwila_exec::ShardSpec`]
//! builds the shard's root, [`tukwila_exec::run_fragment`] drives it into
//! the wire (one send credit and one `Batch` frame per batch), and the
//! outcome goes back as `Done` or as the typed error the coordinator's
//! scheduler raises for it — a panic included, as `Internal`.
//!
//! A worker serves at most `MAX_CONNECTIONS` (64) connections at once; one
//! over the cap is closed at accept, before any thread starts for it.
//!
//! Concurrency per connection: a peer has [`HANDSHAKE_TIMEOUT`] to say
//! `Hello`. After the handshake, a serving thread runs one dispatch at a
//! time and writes its frames; a reader thread, alive as long as the
//! connection, hands each `Dispatch` to the serving thread, applies
//! `Credit` frames to the running dispatch, and turns `Cancel` or the
//! coordinator's EOF into a cancel — so backpressure refills and
//! cancellation land even while the serving thread is deep inside a join
//! build. Both threads block: in `accept`, in a socket read, or on the
//! running dispatch's credit condvar. Nothing polls on a timer. However the
//! serving thread ends, it shuts the socket down, which ends the reader
//! too.

use std::io::Write;
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use crossbeam_channel::{bounded, Sender};
use parking_lot::{Condvar, Mutex};

use tukwila_common::{Result, Schema, TupleBatch};
use tukwila_exec::{catch_panic, run_fragment, CancelKind, FragmentSink, QueryControl, ShardStats};
use tukwila_source::SourceRegistry;

use crate::protocol::{
    accept_hello, decode_msg, Dispatch, FrameReader, FrameWriter, Msg, HANDSHAKE_TIMEOUT,
};

/// Name prefix of every thread a worker server starts: `net-accept` (a
/// spawned server's accept loop), `net-serve` and `net-read` (one pair per
/// open connection).
pub const THREAD_PREFIX: &str = "net-";

/// How often a bare [`WorkerServer::run`] looks at its caller's stop flag,
/// off the accept path: no query waits on it.
const STOP_TICK: Duration = Duration::from_millis(50);

/// The most connections a worker serves at once. One accepted over it is
/// closed at once and starts no thread; its coordinator's handshake fails
/// with a typed `Io` error.
const MAX_CONNECTIONS: usize = 64;

/// A worker process's server: binds a listener and serves shard dispatches
/// until stopped. Each accepted connection handshakes once and then serves
/// dispatches until the coordinator hangs up.
pub struct WorkerServer {
    listener: TcpListener,
    sources: SourceRegistry,
}

impl WorkerServer {
    /// Bind to `addr` (use port 0 for an ephemeral port) serving shards
    /// against `sources`.
    pub fn bind(addr: &str, sources: SourceRegistry) -> Result<WorkerServer> {
        Ok(WorkerServer {
            listener: TcpListener::bind(addr)?,
            sources,
        })
    }

    /// The bound address (reports the ephemeral port after a `:0` bind).
    pub fn local_addr(&self) -> Result<SocketAddr> {
        Ok(self.listener.local_addr()?)
    }

    /// Serve until `stop` is set, then close every connection and return.
    /// A watcher thread looks at `stop` every `STOP_TICK` (50 ms) and,
    /// once it is set, unblocks the accept with a connection of its own.
    pub fn run(&self, stop: &AtomicBool) {
        let Ok(addr) = self.local_addr() else {
            return;
        };
        thread::scope(|s| {
            s.spawn(|| {
                while !stop.load(Ordering::Acquire) {
                    thread::park_timeout(STOP_TICK);
                }
                wake(addr);
            });
            self.serve(stop, MAX_CONNECTIONS);
        });
    }

    /// The accept loop: blocks in `accept`, closes a connection beyond the
    /// `max_conns` still open, and leaves at the first connection after
    /// `stop` is set (the wake-up). Then it shuts every connection down —
    /// an idle one closes at once, a running shard sees its coordinator's
    /// EOF and cancels — and joins their threads.
    fn serve(&self, stop: &AtomicBool, max_conns: usize) {
        let mut conns: Vec<(TcpStream, thread::JoinHandle<()>)> = Vec::new();
        loop {
            let accepted = self.listener.accept();
            if stop.load(Ordering::Acquire) {
                break;
            }
            let Ok((conn, _peer)) = accepted else {
                continue;
            };
            conns.retain(|(_, serving)| !serving.is_finished());
            if conns.len() >= max_conns {
                continue; // dropped: closed, and no thread started
            }
            let Ok(handle) = conn.try_clone() else {
                continue;
            };
            let sources = self.sources.clone();
            // A failed connection is the coordinator's problem to report
            // (probe connections also end here when they hang up); the
            // worker just serves the next one.
            let serving = thread::Builder::new()
                .name(format!("{THREAD_PREFIX}serve"))
                .spawn(move || drop(serve_conn(conn, sources, HANDSHAKE_TIMEOUT)));
            if let Ok(serving) = serving {
                conns.push((handle, serving));
            }
        }
        for (conn, _) in &conns {
            let _ = conn.shutdown(Shutdown::Both);
        }
        for (_, serving) in conns {
            let _ = serving.join();
        }
    }

    /// Run the server on a background thread; the returned handle stops it
    /// on [`WorkerHandle::shutdown`] or drop. Used by in-process tests and
    /// the loopback harness.
    pub fn spawn(self) -> Result<WorkerHandle> {
        let addr = self.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = stop.clone();
        let thread = thread::Builder::new()
            .name(format!("{THREAD_PREFIX}accept"))
            .spawn(move || self.serve(&stop2, MAX_CONNECTIONS))?;
        Ok(WorkerHandle {
            addr,
            stop,
            thread: Some(thread),
        })
    }
}

/// Unblock a listener's `accept` with a connection to its own address (a
/// wildcard bind is reached through loopback).
fn wake(mut addr: SocketAddr) {
    if addr.ip().is_unspecified() {
        addr.set_ip(match addr.ip() {
            IpAddr::V4(_) => IpAddr::V4(Ipv4Addr::LOCALHOST),
            IpAddr::V6(_) => IpAddr::V6(Ipv6Addr::LOCALHOST),
        });
    }
    let _ = TcpStream::connect(addr);
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

    /// Stop the server: close every connection it holds (a shard in
    /// flight ends in an error at its coordinator) and join its threads.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        if let Some(t) = self.thread.take() {
            self.stop.store(true, Ordering::Release);
            wake(self.addr);
            let _ = t.join();
        }
    }
}

impl Drop for WorkerHandle {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

/// Wait for one complete frame.
fn read_msg<R: std::io::Read>(reader: &mut FrameReader<R>) -> Result<Msg> {
    loop {
        if let Some((kind, payload)) = reader.read_frame()? {
            return decode_msg(kind, payload);
        }
    }
}

/// One dispatch as its serving thread and the connection's reader share
/// it: the shard's query control and its send credits. Whatever a credit
/// waiter waits for — a `Credit`, a cancel, the coordinator's EOF —
/// notifies `changed`.
struct Flight {
    control: Arc<QueryControl>,
    credits: Mutex<u64>,
    changed: Condvar,
    /// Set before the terminal frame goes out, so the reader can tell the
    /// coordinator's next `Dispatch` from one sent out of turn.
    finished: AtomicBool,
}

impl Flight {
    fn new(d: &Dispatch) -> Arc<Flight> {
        Arc::new(Flight {
            control: d.spec.control(),
            credits: Mutex::new(u64::from(d.initial_credits.max(1))),
            changed: Condvar::new(),
            finished: AtomicBool::new(false),
        })
    }

    fn grant(&self, n: u32) {
        *self.credits.lock() += u64::from(n);
        self.changed.notify_one();
    }

    /// Cancel the shard and wake it if it waits for credit. Taking the
    /// lock orders the notify after the waiter's own check of the control.
    fn cancel(&self) {
        self.control.cancel(CancelKind::User);
        let _credits = self.credits.lock();
        self.changed.notify_one();
    }

    /// Take one send credit, blocking until one arrives. Counts one stall
    /// per dry spell; a cancel ends the wait, and so does the dispatch's
    /// deadline, which trips the control.
    fn acquire(&self, stalls: &mut u64) -> Result<()> {
        let mut credits = self.credits.lock();
        if *credits == 0 {
            *stalls += 1;
        }
        while *credits == 0 {
            self.control.check()?;
            match self.control.deadline() {
                Some(at) => (self.changed)
                    .wait_for(&mut credits, at.saturating_duration_since(Instant::now())),
                None => self.changed.wait(&mut credits),
            }
        }
        *credits -= 1;
        Ok(())
    }
}

/// Serve one connection: handshake within `handshake_timeout`, then
/// dispatches one after another until the coordinator hangs up.
fn serve_conn(conn: TcpStream, sources: SourceRegistry, handshake_timeout: Duration) -> Result<()> {
    conn.set_nodelay(true)?;
    let mut reader = FrameReader::new(conn.try_clone()?);
    let mut writer = FrameWriter::new(conn);
    accept_hello(&mut reader, &mut writer, handshake_timeout)?;

    let (dispatches, next) = bounded(1);
    let _hangup = Hangup {
        socket: writer.get_ref().try_clone()?,
        reader: Some(
            thread::Builder::new()
                .name(format!("{THREAD_PREFIX}read"))
                .spawn(move || read_conn(reader, dispatches))?,
        ),
    };
    while let Ok((dispatch, flight)) = next.recv() {
        let result = run_dispatch(&dispatch, sources.clone(), &mut writer, &flight);
        flight.finished.store(true, Ordering::Release);
        match &result {
            Ok(stats) => writer.send_done(stats),
            Err(e) => writer.send_error(e),
        }?;
    }
    // The reader saw the coordinator's EOF, so nothing it sent is left
    // unread — or the coordinator can no longer be written to. Either way
    // the connection is over.
    Ok(())
}

/// Shuts a connection down however its serving thread leaves
/// `serve_conn` after the handshake, then joins the reader the shutdown
/// ends: a reader left holding the socket would keep the coordinator
/// waiting for its EOF.
struct Hangup {
    socket: TcpStream,
    reader: Option<thread::JoinHandle<()>>,
}

impl Drop for Hangup {
    fn drop(&mut self) {
        let _ = self.socket.shutdown(Shutdown::Both);
        if let Some(reader) = self.reader.take() {
            let _ = reader.join();
        }
    }
}

/// The connection's reader: hands each `Dispatch` to the serving thread
/// and applies `Credit` and `Cancel` to the dispatch it started last. A
/// finished dispatch's late credits arrive before the next `Dispatch`
/// (TCP keeps their order), so they never reach the wrong one.
fn read_conn(mut reader: FrameReader<TcpStream>, dispatches: Sender<(Box<Dispatch>, Arc<Flight>)>) {
    let mut current: Option<Arc<Flight>> = None;
    loop {
        match read_msg(&mut reader) {
            Ok(Msg::Credit { n }) => {
                if let Some(flight) = &current {
                    flight.grant(n);
                }
            }
            Ok(Msg::Cancel) => {
                if let Some(flight) = &current {
                    flight.cancel();
                }
            }
            Ok(Msg::Dispatch(d))
                if (current.as_ref()).is_none_or(|f| f.finished.load(Ordering::Acquire)) =>
            {
                let flight = Flight::new(&d);
                current = Some(flight.clone());
                if dispatches.send((d, flight)).is_err() {
                    break;
                }
            }
            // EOF or a transport error — the coordinator is gone — or a
            // frame out of protocol: stop the running shard rather than
            // stream into the void, and end the connection.
            _ => {
                if let Some(flight) = &current {
                    flight.cancel();
                }
                break;
            }
        }
    }
}

/// Execute one shard dispatch: build the shard's root under the same
/// panic guard the run has, run it into the wire, and turn the fragment's
/// outcome into the shard's completion statistics or its error.
fn run_dispatch<W: Write>(
    d: &Dispatch,
    sources: SourceRegistry,
    writer: &mut FrameWriter<W>,
    flight: &Flight,
) -> Result<ShardStats> {
    let shard = d.shard_index as usize;
    let (rt, frag, root) = catch_panic(format_args!("shard {shard}"), || {
        d.spec.build(shard, sources, flight.control.clone())
    })?;
    let mut wire = Wire {
        writer,
        flight,
        stats: ShardStats::default(),
    };
    let report = run_fragment(frag, root, &rt, &mut wire);
    match report.outcome.into_error(frag) {
        Some(e) => Err(e),
        None => Ok(ShardStats {
            rows: report.produced,
            spill_tuples: rt.env().spill.stats().tuples_written() as u64,
            ..wire.stats
        }),
    }
}

/// The worker's fragment sink: `Started` once the shard's root opened,
/// then one send credit and one `Batch` frame per batch.
struct Wire<'a, W: Write> {
    writer: &'a mut FrameWriter<W>,
    flight: &'a Flight,
    /// Batches sent and credit stalls.
    stats: ShardStats,
}

impl<W: Write> FragmentSink for Wire<'_, W> {
    fn open(&mut self, schema: &Schema) -> Result<()> {
        self.writer.send_started(schema).map(drop)
    }

    fn batch(&mut self, batch: TupleBatch, _rows: u64, _elapsed: Duration) -> Result<()> {
        self.flight.acquire(&mut self.stats.backpressure_stalls)?;
        self.stats.batches += 1;
        self.writer.send_batch(&batch).map(drop)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Read;
    use tukwila_common::TukwilaError;

    /// A peer that connects and never says `Hello` is hung up on once the
    /// handshake deadline passes, instead of holding a serving thread.
    #[test]
    fn a_silent_peer_is_hung_up_on_at_the_handshake_deadline() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let mut peer = TcpStream::connect(listener.local_addr().expect("addr")).expect("dial");
        let (conn, _) = listener.accept().expect("accept");
        let started = Instant::now();
        let err = serve_conn(conn, SourceRegistry::new(), Duration::from_millis(50))
            .expect_err("no Hello");
        assert_eq!(err.kind(), "io", "{err}");
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "waited past the deadline"
        );
        peer.set_read_timeout(Some(Duration::from_secs(5)))
            .expect("timeout");
        let n = peer.read(&mut [0u8; 16]).expect("EOF, not a timeout");
        assert_eq!(n, 0, "the worker closed the connection");
    }

    /// How many of this process's live threads carry worker role `role`.
    /// (A new thread carries its creator's name until it names itself, so
    /// a `net-read` thread may briefly count as `net-serve`.)
    #[cfg(target_os = "linux")]
    fn threads(role: &str) -> usize {
        let name = format!("{THREAD_PREFIX}{role}");
        let tasks = std::fs::read_dir("/proc/self/task").expect("list /proc/self/task");
        (tasks.filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok()))
            .filter(|comm| comm.trim() == name)
            .count()
    }

    /// Over the cap, a connection is closed at accept and starts no
    /// thread: with room for two, four dials admit two, which settle at
    /// one serving and one reading thread each, and the other two fail
    /// their handshake with a typed `Io` error. (No other test in this
    /// binary starts worker threads.)
    #[cfg(target_os = "linux")]
    #[test]
    fn connections_over_the_cap_are_closed_at_accept() {
        let server = WorkerServer::bind("127.0.0.1:0", SourceRegistry::new()).expect("bind");
        let addr = server.local_addr().expect("addr");
        let stop = AtomicBool::new(false);
        let (handshakes, settled) = thread::scope(|s| {
            s.spawn(|| server.serve(&stop, 2));
            let mut conns = Vec::new();
            let handshakes: Vec<Result<()>> = (0..4)
                .map(|_| {
                    let conn = TcpStream::connect(addr)?;
                    let mut reader = FrameReader::new(conn.try_clone()?);
                    let mut writer = FrameWriter::new(conn);
                    let tick = Duration::from_secs(5);
                    crate::protocol::offer_hello(&mut reader, &mut writer, "w", tick)?;
                    conns.push((reader, writer));
                    Ok(())
                })
                .collect();
            let deadline = Instant::now() + Duration::from_secs(5);
            let mut settled = (threads("serve"), threads("read"));
            while settled != (2, 2) && Instant::now() < deadline {
                thread::sleep(Duration::from_millis(5));
                settled = (threads("serve"), threads("read"));
            }
            stop.store(true, Ordering::Release);
            wake(addr);
            (handshakes, settled)
        });
        let kinds: Vec<&str> = (handshakes.iter())
            .map(|h| h.as_ref().map_or_else(TukwilaError::kind, |_| "ok"))
            .collect();
        assert_eq!(kinds, ["ok", "ok", "io", "io"], "{handshakes:?}");
        assert_eq!(settled, (2, 2), "(serving, reading) threads of two dials");
        assert_eq!(
            threads("serve") + threads("read"),
            0,
            "the server joined its threads"
        );
    }
}
