//! The exchange operator — intra-query parallelism for equi-joins — and
//! the partition transport that says where its pipelines run.
//!
//! One [`Exchange`] runs N **partition pipelines** of the join beneath it,
//! each pumped by one thread into one bounded channel, and merges their
//! output in arrival order: an order-insensitive union, multiset-equal to
//! the sequential join, because tuples with equal keys hash identically —
//! every matching pair meets in exactly one partition and none meets twice.
//! Routing is the join key's Fx prehash folded with a dedicated salt (so it
//! does not correlate with the joins' internal bucket routing); NULL-keyed
//! rows are dropped at the split, exactly as the joins would drop them.
//!
//! *Where* a pipeline runs is a property of the [`PartitionTransport`]
//! installed on [`crate::runtime::ExecEnv`], not of the operator:
//!
//! * [`InProcess`] (the default): two **repartition drivers** pull the
//!   join's real inputs once and shuffle every batch into per-partition
//!   bounded channels; each pipeline is a private instance of the join
//!   over `PartitionSource` leaves, under shared subject statistics and
//!   overflow method but its own slice of the join's memory reservation
//!   ([`partition_reservation`]) and a scoped spill store.
//! * `tukwila_net::Cluster`: each pipeline is a worker process that
//!   rebuilds the join from plan text and keeps its shard of the inputs
//!   ([`crate::shard`]); its stream is a socket.
//!
//! # Stream lifecycle
//!
//! Both transports obey one contract, in the order the exchange's pump
//! drives it:
//!
//! 1. **start** — the transport returns N unopened streams. Nothing a
//!    stream does from here on may wait for a sibling to be *consumed*.
//! 2. **open** — each pump opens its stream (a join's blocking build
//!    happens here, in parallel). The exchange's own `open` returns as
//!    soon as the first stream is open; it never withholds consumption of
//!    one stream until another has opened.
//! 3. **batches** — the producer sends only against **credit**: a full
//!    bounded channel in process; on the wire an initial window the
//!    consumer refills by one per batch received.
//! 4. **end** — the *producer* speaks last: end-of-stream (`Done`) or an
//!    error is its final message, after which it sends nothing (a remote
//!    worker half-closes its socket) but keeps **reading until the
//!    consumer's EOF**, so no late credit is left unread. The consumer
//!    issues no credit after the final message.
//! 5. **close** — the *consumer* closes first, always: after the final
//!    message, or early as an **abort** (the exchange sets the stream's
//!    abort flag and deactivates the join's input subjects so nothing stays
//!    blocked; a remote consumer's close is the worker's cancel). Whatever
//!    a stream held on the consumer's side — a remote shard's memory lease
//!    — is released when it closes, however it ended.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

use crossbeam_channel::{bounded, Receiver, Sender};

use tukwila_common::{fold_hash, KeyVector, Result, Schema, TukwilaError, TupleBatch};
use tukwila_plan::{JoinKind, OpState, OperatorNode, OperatorSpec, QuantityProvider};
use tukwila_storage::{MemoryManager, MemoryReservation, ScopedSpillStore, SpillStore};
use tukwila_trace::{OpMetrics, TraceEvent};

use crate::build::{build_join, build_operator, join_descendants};
use crate::operator::{Operator, OperatorBox};
use crate::runtime::OpHarness;

/// Salt for partition routing — distinct from the joins' bucket salt (0)
/// and the `PrehashMap` slot salt, so the three layers of the same prehash
/// stay uncorrelated.
pub(crate) const EXCHANGE_SALT: u64 = 0x5851_F42D_4C95_7F2D;

/// Bounded per-partition channel capacity, in batches. Large enough that a
/// hybrid join's probe side can run ahead while the build side drains,
/// small enough to bound buffered memory.
const PARTITION_QUEUE_CAP: usize = 8;

/// One partition pipeline as the exchange sees it: an [`Operator`] (`open`
/// → `schema` / `next_batch` → `close`, see the module's lifecycle) plus
/// the two things an operator lacks.
pub trait PartitionStream: Operator {
    /// Flag that makes a blocked `open`/`next_batch` return promptly. The
    /// exchange registers it with the query control and sets it on early
    /// close. `None` when the stream blocks only on this plan's own
    /// subjects, which the exchange deactivates itself.
    fn abort_handle(&self) -> Option<Arc<AtomicBool>> {
        None
    }

    /// Tuples the pipeline spilled; read once, after `close`.
    fn spill_tuples(&self) -> u64;
}

/// What [`PartitionTransport::start`] hands the exchange.
pub struct Pipelines {
    /// The N streams, in partition order, not yet opened.
    pub streams: Vec<Box<dyn PartitionStream>>,
    /// Threads already feeding the streams (the in-process repartition
    /// drivers); the exchange joins them at shutdown.
    pub feeders: Vec<JoinHandle<()>>,
}

/// Supplies an [`Exchange`] with its partition pipelines. Implementations
/// obey the stream lifecycle in the module docs.
pub trait PartitionTransport: Send + Sync {
    /// Whether an exchange of `partitions` over a `kind` join runs as
    /// separate pipelines on this transport. Otherwise the exchange node
    /// is a transparent passthrough and the join runs in place.
    fn splits(&self, kind: JoinKind, partitions: usize) -> bool;

    /// Start `partitions` pipelines of `join` (an `OperatorSpec::Join`
    /// node); `harness` is that node's.
    fn start(
        &self,
        join: &OperatorNode,
        partitions: usize,
        harness: &OpHarness,
    ) -> Result<Pipelines>;
}

/// Partition `i` of `n`'s slice of the join's memory reservation: budget/N,
/// parent-chained so every charge rolls up into the plan operator's
/// reservation (and from there into the query and fleet pools) and
/// `under_pressure` on a partition sees overage at any layer.
pub fn partition_reservation(join: &OpHarness, i: usize, n: usize) -> Option<MemoryReservation> {
    join.reservation().map(|p| {
        let budget = partition_budget(p.budget(), n);
        MemoryManager::with_parent(p.clone()).register(format!("{}p{i}", p.name()), budget)
    })
}

/// One of `n` partitions' share of a `total`-byte join budget.
pub(crate) fn partition_budget(total: usize, n: usize) -> usize {
    (total / n.max(1)).max(1)
}

/// The rows of `batch` at `rows`, in the batch's own representation, so
/// partition streams stay typed end to end.
pub(crate) fn take_rows(batch: &TupleBatch, rows: &[u32]) -> TupleBatch {
    match batch.columns() {
        Some(cols) => TupleBatch::from_columns(cols.gather(rows)),
        None => {
            let tuples = batch.tuples();
            TupleBatch::from_tuples(rows.iter().map(|&i| tuples[i as usize].clone()).collect())
        }
    }
}

enum Msg {
    /// A pump's first message: its stream opened, with this schema.
    Opened(Schema),
    Batch(TupleBatch),
    End,
    Err(TukwilaError),
}

// ---- the in-process transport ---------------------------------------------

/// The default transport: partitions are threads of this process, fed by
/// shuffling the join's inputs (see module docs). Splits only the
/// hash-based join kinds, at a degree above one — the policy the
/// optimizer's lowering and plan analysis (TA030/TA034) share.
pub struct InProcess;

impl PartitionTransport for InProcess {
    fn splits(&self, kind: JoinKind, partitions: usize) -> bool {
        partitions > 1 && kind.is_hash_partitionable()
    }

    fn start(&self, join: &OperatorNode, n: usize, harness: &OpHarness) -> Result<Pipelines> {
        let OperatorSpec::Join {
            left,
            right,
            left_key,
            right_key,
            kind,
            overflow: _,
        } = &join.spec
        else {
            return Err(TukwilaError::Plan("exchange input must be a join".into()));
        };
        let rt = harness.runtime();
        let mut l = build_operator(left, rt)?;
        let mut r = build_operator(right, rt)?;
        l.open()?;
        if let Err(e) = r.open() {
            let _ = l.close();
            return Err(e);
        }
        let keys = (l.schema().index_of(left_key))
            .and_then(|lk| Ok((lk, r.schema().index_of(right_key)?)));
        let (lkey, rkey) = match keys {
            Ok(k) => k,
            Err(e) => {
                let _ = l.close();
                let _ = r.close();
                return Err(e);
            }
        };

        let (mut ltxs, mut rtxs) = (Vec::with_capacity(n), Vec::with_capacity(n));
        let mut streams: Vec<Box<dyn PartitionStream>> = Vec::with_capacity(n);
        for i in 0..n {
            let (ltx, lrx) = bounded::<Msg>(PARTITION_QUEUE_CAP);
            let (rtx, rrx) = bounded::<Msg>(PARTITION_QUEUE_CAP);
            ltxs.push(ltx);
            rtxs.push(rtx);
            let spill = Arc::new(ScopedSpillStore::new(rt.env().spill.clone()));
            let instance = build_join(
                *kind,
                Box::new(PartitionSource::new(lrx, l.schema().clone())),
                Box::new(PartitionSource::new(rrx, r.schema().clone())),
                left_key.clone(),
                right_key.clone(),
                harness.for_partition(i, partition_reservation(harness, i, n), spill.clone()),
                Vec::new(),
            );
            streams.push(Box::new(LocalPartition { instance, spill }));
        }
        let feeders = vec![
            std::thread::spawn(move || drive_side(l, lkey, ltxs)),
            std::thread::spawn(move || drive_side(r, rkey, rtxs)),
        ];
        Ok(Pipelines { streams, feeders })
    }
}

/// An in-process pipeline: one private instance of the join, plus the
/// scoped spill store that attributes its overflow I/O.
struct LocalPartition {
    instance: OperatorBox,
    spill: Arc<ScopedSpillStore>,
}

impl Operator for LocalPartition {
    fn open(&mut self) -> Result<()> {
        self.instance.open()
    }

    fn next_batch(&mut self) -> Result<Option<TupleBatch>> {
        self.instance.next_batch()
    }

    fn close(&mut self) -> Result<()> {
        self.instance.close()
    }

    fn schema(&self) -> &Schema {
        self.instance.schema()
    }

    fn name(&self) -> &'static str {
        "partition"
    }
}

impl PartitionStream for LocalPartition {
    fn spill_tuples(&self) -> u64 {
        self.spill.stats().tuples_written() as u64
    }
}

/// Consumer end of one repartitioned stream — the leaf each partition
/// instance's join pulls from.
struct PartitionSource {
    rx: Option<Receiver<Msg>>,
    schema: Schema,
}

impl PartitionSource {
    fn new(rx: Receiver<Msg>, schema: Schema) -> Self {
        PartitionSource {
            rx: Some(rx),
            schema,
        }
    }
}

impl Operator for PartitionSource {
    fn open(&mut self) -> Result<()> {
        Ok(())
    }

    fn next_batch(&mut self) -> Result<Option<TupleBatch>> {
        let Some(rx) = &self.rx else {
            return Ok(None);
        };
        let msg = rx.recv();
        if let Ok(Msg::Batch(b)) = msg {
            return Ok(Some(b));
        }
        self.rx = None;
        match msg {
            Ok(Msg::End) => Ok(None),
            Ok(Msg::Err(e)) => Err(e),
            // A driver never exits without sending End or Err to every
            // partition; a bare disconnect means it died abnormally.
            _ => Err(TukwilaError::Internal(
                "exchange repartition stream disconnected".into(),
            )),
        }
    }

    fn close(&mut self) -> Result<()> {
        self.rx = None;
        Ok(())
    }

    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn name(&self) -> &'static str {
        "partition_source"
    }
}

/// Repartition driver: drain `child`, split every batch across `txs` by
/// key prehash, drop NULL keys, propagate end/error to every partition.
fn drive_side(mut child: OperatorBox, key_idx: usize, txs: Vec<Sender<Msg>>) {
    let n = txs.len();
    let last = loop {
        match child.next_batch() {
            Ok(Some(batch)) => {
                // One column-kernel hash pass routes the whole batch.
                let kv = KeyVector::compute(&batch, key_idx);
                let mut rows: Vec<Vec<u32>> = vec![Vec::new(); n];
                for (i, h) in kv.iter().enumerate() {
                    if let Some(h) = h {
                        rows[fold_hash(h, n, EXCHANGE_SALT)].push(i as u32);
                    }
                }
                let sent = rows
                    .iter()
                    .zip(&txs)
                    .filter(|(rows, _)| !rows.is_empty())
                    .try_for_each(|(rows, tx)| tx.send(Msg::Batch(take_rows(&batch, rows))));
                if sent.is_err() {
                    // Consumer went away (early close): stop driving.
                    let _ = child.close();
                    return;
                }
            }
            Ok(None) => break Ok(()),
            Err(e) => break Err(e),
        }
    };
    for tx in &txs {
        let _ = tx.send(match &last {
            Ok(()) => Msg::End,
            Err(e) => Msg::Err(e.clone()),
        });
    }
    let _ = child.close();
}

// ---- the operator -----------------------------------------------------------

/// Drive one stream through its lifecycle into the exchange's merge
/// channel — the one place a partition gets a thread. Returns the
/// partition's output rows and spilled tuples.
fn pump(mut stream: Box<dyn PartitionStream>, out: Sender<Msg>) -> (u64, u64) {
    let mut rows = 0u64;
    let result = (|| -> Result<()> {
        stream.open()?;
        if out.send(Msg::Opened(stream.schema().clone())).is_err() {
            return Ok(()); // consumer gone (early close)
        }
        while let Some(batch) = stream.next_batch()? {
            rows += batch.len() as u64;
            if out.send(Msg::Batch(batch)).is_err() {
                break;
            }
        }
        Ok(())
    })();
    let _ = stream.close();
    let spilled = stream.spill_tuples();
    // Whatever the stream held (a remote shard's lease, its socket) is gone
    // before the exchange hears how it ended.
    drop(stream);
    let _ = out.send(match result {
        Ok(()) => Msg::End,
        Err(e) => Msg::Err(e),
    });
    (rows, spilled)
}

/// The exchange operator (see module docs).
pub struct Exchange {
    /// The join to run partitioned — kept as a plan node and handed to the
    /// transport at open, so rule-driven annotation changes up to that
    /// point apply.
    join: OperatorNode,
    partitions: usize,
    /// Harness of the exchange plan node (merge-side statistics).
    harness: OpHarness,
    /// Plain harness of the join node: lifecycle + reservation parent;
    /// pipelines derive theirs from it.
    join_harness: OpHarness,
    // -- runtime state (after open) --
    schema: Schema,
    rx: Option<Receiver<Msg>>,
    pumps: Vec<JoinHandle<(u64, u64)>>,
    feeders: Vec<JoinHandle<()>>,
    live: usize,
    aborts: Vec<Arc<AtomicBool>>,
    /// Output rows and spilled tuples per partition, once its pump ended.
    part_stats: Vec<(u64, u64)>,
    metrics: Option<Arc<OpMetrics>>,
    opened: bool,
}

impl Exchange {
    /// An exchange running `partitions` pipelines of `join` over the
    /// environment's transport. `harness` is the exchange node's,
    /// `join_harness` the join node's.
    pub fn new(
        join: OperatorNode,
        partitions: usize,
        harness: OpHarness,
        join_harness: OpHarness,
    ) -> Self {
        Exchange {
            join,
            partitions: partitions.max(1),
            harness,
            join_harness,
            schema: Schema::empty(),
            rx: None,
            pumps: Vec::new(),
            feeders: Vec::new(),
            live: 0,
            aborts: Vec::new(),
            part_stats: Vec::new(),
            metrics: None,
            opened: false,
        }
    }

    /// Abort whatever still runs (lifecycle step 5) and join every thread.
    fn shutdown(&mut self) {
        self.rx = None;
        for flag in &self.aborts {
            flag.store(true, Ordering::Relaxed);
        }
        // Wake repartition drivers blocked inside link-model sleeps.
        if let OperatorSpec::Join { left, right, .. } = &self.join.spec {
            let rt = self.harness.runtime();
            for d in join_descendants(left, right) {
                if rt.state(d) == OpState::Open {
                    rt.deactivate(d);
                }
            }
        }
        for h in self.pumps.drain(..) {
            self.part_stats.push(h.join().unwrap_or_default());
        }
        for h in self.feeders.drain(..) {
            let _ = h.join();
        }
    }
}

impl Operator for Exchange {
    fn open(&mut self) -> Result<()> {
        if self.opened {
            return Err(TukwilaError::Internal("Exchange opened twice".into()));
        }
        let transport = &self.harness.runtime().env().transport;
        let Pipelines { streams, feeders } =
            transport.start(&self.join, self.partitions, &self.join_harness)?;
        self.feeders = feeders;
        self.live = streams.len();
        let (out_tx, out_rx) = bounded::<Msg>(self.live.max(2) * 2);
        for stream in streams {
            if let Some(flag) = stream.abort_handle() {
                self.harness.register_cancel(flag.clone());
                self.aborts.push(flag);
            }
            let out = out_tx.clone();
            self.pumps
                .push(std::thread::spawn(move || pump(stream, out)));
        }
        drop(out_tx);

        // The first message on the merge channel is some pump's `Opened` or
        // `Err`: a batch cannot overtake its own stream's `Opened`.
        match out_rx.recv() {
            Ok(Msg::Opened(schema)) => self.schema = schema,
            Ok(Msg::Err(e)) => {
                self.shutdown();
                return Err(e);
            }
            _ => {
                self.shutdown();
                return Err(TukwilaError::Internal(
                    "exchange pipeline ended before it opened".into(),
                ));
            }
        }
        self.rx = Some(out_rx);
        self.metrics = self.harness.metrics("exchange");
        // Lifecycle: the exchange owns the shared join subject's state.
        self.join_harness.opened();
        self.harness.opened();
        self.opened = true;
        Ok(())
    }

    fn next_batch(&mut self) -> Result<Option<TupleBatch>> {
        loop {
            if self.live == 0 {
                return Ok(None);
            }
            let Some(rx) = &self.rx else {
                return Ok(None);
            };
            let waited = self.metrics.as_ref().map(|_| Instant::now());
            let msg = rx.recv();
            if let (Some(m), Some(t0)) = (&self.metrics, waited) {
                m.add_queue_stall_ns(t0.elapsed().as_nanos() as u64);
            }
            match msg {
                Ok(Msg::Batch(b)) => {
                    if let Some(m) = &self.metrics {
                        m.add_output(b.len() as u64);
                    }
                    self.harness.produced(b.len() as u64);
                    return Ok(Some(b));
                }
                Ok(Msg::Opened(_)) => {}
                Ok(Msg::End) => self.live -= 1,
                Ok(Msg::Err(e)) => {
                    self.harness.failed();
                    self.shutdown();
                    return Err(e);
                }
                Err(_) => {
                    return Err(TukwilaError::Internal(
                        "exchange output channel disconnected".into(),
                    ))
                }
            }
        }
    }

    fn close(&mut self) -> Result<()> {
        self.shutdown();
        if self.opened {
            self.opened = false;
            // Per-partition spill attribution and skew, once per run.
            let rt = self.harness.runtime();
            let op = self.join_harness.op_id().unwrap_or(u32::MAX);
            let spills: Vec<u64> = self.part_stats.iter().map(|s| s.1).collect();
            rt.note_exchange(op, &spills);
            if rt.trace().events_enabled() {
                let rows = self.part_stats.iter().map(|s| s.0).collect();
                rt.trace().emit(TraceEvent::PartitionSkew { op, rows });
            }
            self.join_harness.closed();
            self.harness.closed();
        }
        Ok(())
    }

    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn name(&self) -> &'static str {
        "exchange"
    }
}
