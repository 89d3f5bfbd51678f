//! Feeders: the one place an operator's child runs on a thread of its own —
//! the DPJ's two inputs (§4.2.2), the collector's sources (§4.1), the
//! exchange's partition pipelines and repartitioned inputs.
//!
//! **Message contract.** A feeder runs one child on a named thread
//! ([`THREAD_PREFIX`]): it opens the child and sends `Feed::Schema`, then
//! one `Feed::Batch` per batch, then closes and drops the child and sends
//! exactly one final `Feed::End` or `Feed::Err` (a child that fails to
//! open sends only the `Err`). Whatever the child held is released before
//! the consumer hears how it ended. Once the consumer stops listening, the
//! feeder closes the child and sends nothing more.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crossbeam_channel::{bounded, Receiver, RecvTimeoutError, Select, Sender};

use tukwila_common::{Result, Schema, TukwilaError, TupleBatch};
use tukwila_plan::{OpState, QuantityProvider, SubjectRef};
use tukwila_trace::OpMetrics;

use crate::operator::Operator;
use crate::runtime::PlanRuntime;

/// Every feeder thread's name starts with this.
pub const THREAD_PREFIX: &str = "feed-";

/// One message from a feeder (see the message contract).
#[derive(Clone)]
pub(crate) enum Feed {
    Schema(Schema),
    Batch(TupleBatch),
    End,
    Err(TukwilaError),
}

impl Feed {
    /// A feeder's first message as its child's schema, or the child's open
    /// failure.
    pub(crate) fn into_schema(self) -> Result<Schema> {
        match self {
            Feed::Schema(s) => Ok(s),
            Feed::Err(e) => Err(e),
            _ => Err(TukwilaError::Internal(
                "feeder sent data before its schema".into(),
            )),
        }
    }
}

/// A feeder message tagged with the sending child's index.
pub(crate) type Tagged = (usize, Feed);

/// A queue whose senders all went away without a final message: a feeder
/// thread died.
pub(crate) fn cut_off() -> TukwilaError {
    TukwilaError::Internal("feeder ended without a final message".into())
}

/// Where a feeder's messages go.
pub(crate) trait Outlet: Send + 'static {
    /// Deliver `msg`; `false` once nobody listens any more.
    fn put(&mut self, msg: Feed) -> bool;
}

/// A [`Feeders`] queue, every message tagged with the child's index.
impl Outlet for (usize, Sender<Tagged>) {
    fn put(&mut self, msg: Feed) -> bool {
        self.1.send((self.0, msg)).is_ok()
    }
}

/// One operator's feeder threads, their queues, and what stops them. No
/// feeder outlives its group: the operator's `close`, its error path or the
/// group's drop shuts it down.
pub struct Feeders {
    rt: Arc<PlanRuntime>,
    threads: Vec<JoinHandle<()>>,
    queues: Vec<Receiver<Tagged>>,
    /// Set at shutdown.
    pub(crate) aborts: Vec<Arc<AtomicBool>>,
    /// Deactivated at shutdown, those still open.
    pub(crate) deactivate: Vec<SubjectRef>,
    /// The consumer's metrics: the blocking part of a receive is its stall.
    pub(crate) stall: Option<Arc<OpMetrics>>,
}

impl Feeders {
    /// An empty group for an operator of `rt`'s plan.
    pub(crate) fn new(rt: &Arc<PlanRuntime>) -> Feeders {
        Feeders {
            rt: rt.clone(),
            threads: Vec::new(),
            queues: Vec::new(),
            aborts: Vec::new(),
            deactivate: Vec::new(),
            stall: None,
        }
    }

    /// A sender into a new bounded queue of `cap` messages. Queues are
    /// numbered from 0 in the order they are made.
    pub(crate) fn queue(&mut self, cap: usize) -> Sender<Tagged> {
        let (tx, rx) = bounded(cap);
        self.queues.push(rx);
        tx
    }

    /// Run `child` on a new feeder thread (`feed-{role}`) into `out`.
    /// `after_close` sees the closed child just before it is dropped.
    pub(crate) fn spawn<C: Operator + ?Sized + 'static>(
        &mut self,
        role: &str,
        mut child: Box<C>,
        mut out: impl Outlet,
        after_close: impl FnOnce(&C) + Send + 'static,
    ) -> Result<()> {
        let feeder = move || {
            // `Ok(false)`: the consumer stopped listening.
            let streamed = (|| -> Result<bool> {
                child.open()?;
                let mut listening = out.put(Feed::Schema(child.schema().clone()));
                while listening {
                    match child.next_batch()? {
                        Some(batch) => listening = out.put(Feed::Batch(batch)),
                        None => break,
                    }
                }
                Ok(listening)
            })();
            let _ = child.close();
            after_close(&*child);
            drop(child);
            match streamed {
                Ok(false) => {}
                Ok(true) => _ = out.put(Feed::End),
                Err(e) => _ = out.put(Feed::Err(e)),
            }
        };
        let thread = std::thread::Builder::new()
            .name(format!("{THREAD_PREFIX}{role}"))
            .spawn(feeder)
            .map_err(|e| TukwilaError::Internal(format!("cannot start a feeder thread: {e}")))?;
        self.threads.push(thread);
        Ok(())
    }

    fn queue_at(&self, q: usize) -> Result<&Receiver<Tagged>> {
        (self.queues.get(q))
            .ok_or_else(|| TukwilaError::Internal(format!("feeder queue {q} is not open")))
    }

    /// Add the time `wait` takes to the consumer's queue stall.
    fn timed<T>(&self, wait: impl FnOnce() -> T) -> T {
        let started = self.stall.as_ref().map(|_| Instant::now());
        let out = wait();
        if let (Some(m), Some(t0)) = (&self.stall, started) {
            m.add_queue_stall_ns(t0.elapsed().as_nanos() as u64);
        }
        out
    }

    /// The next message from queues `from`: the first of them (in the
    /// order given) with one waiting, else whichever delivers first. Only
    /// the wait counts as queue stall.
    pub(crate) fn recv(&self, from: &[usize]) -> Result<Tagged> {
        for &q in from {
            if let Ok(msg) = self.queue_at(q)?.try_recv() {
                return Ok(msg);
            }
        }
        // Every index in `from` was checked by the loop above.
        self.timed(|| match *from {
            [q] => self.queues[q].recv(),
            _ => {
                let mut sel = Select::new();
                for &q in from {
                    sel.recv(&self.queues[q]);
                }
                let op = sel.select();
                let q = from[op.index()];
                op.recv(&self.queues[q])
            }
        })
        .map_err(|_| cut_off())
    }

    /// The next message from queue `q`, or `None` after `timeout`; the
    /// wait counts as queue stall.
    pub(crate) fn recv_timeout(&self, q: usize, timeout: Duration) -> Result<Option<Tagged>> {
        let queue = self.queue_at(q)?;
        if let Ok(msg) = queue.try_recv() {
            return Ok(Some(msg));
        }
        match self.timed(|| queue.recv_timeout(timeout)) {
            Ok(msg) => Ok(Some(msg)),
            Err(RecvTimeoutError::Timeout) => Ok(None),
            Err(RecvTimeoutError::Disconnected) => Err(cut_off()),
        }
    }

    /// Set the abort flags, deactivate the subjects (waking children asleep
    /// in link models), drop the queues (failing blocked sends) and join
    /// every feeder. Idempotent.
    pub(crate) fn shutdown(&mut self) {
        for flag in self.aborts.drain(..) {
            flag.store(true, Ordering::Relaxed);
        }
        for s in self.deactivate.drain(..) {
            if self.rt.state(s) == OpState::Open {
                self.rt.deactivate(s);
            }
        }
        self.queues.clear();
        // A feeder that panicked sent no final message, which its consumer
        // has reported as an error.
        for thread in self.threads.drain(..) {
            let _ = thread.join();
        }
    }
}

impl Drop for Feeders {
    fn drop(&mut self) {
        self.shutdown();
    }
}
