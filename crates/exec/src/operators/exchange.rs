//! The exchange operator — intra-query parallelism for equi-joins — and
//! the partition transport that says where its pipelines run.
//!
//! One [`Exchange`] runs N **partition pipelines** of the join beneath it,
//! each pumped by one feeder ([`crate::feeder`]) into one bounded merge
//! queue, and merges their output in arrival order: an order-insensitive
//! union, multiset-equal to the sequential join, because tuples with equal
//! keys hash identically — every matching pair meets in exactly one
//! partition and none meets twice. Routing is the join key's Fx prehash
//! folded with a dedicated salt (so it does not correlate with the joins'
//! internal bucket routing); NULL-keyed rows are dropped at the split,
//! exactly as the joins would drop them.
//!
//! *Where* a pipeline runs is a property of the [`PartitionTransport`]
//! installed on [`crate::runtime::ExecEnv`], not of the operator:
//!
//! * [`InProcess`] (the default): two **repartition feeders** pull the
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
//! Both transports obey one contract, in the order the exchange's pumps —
//! feeders, whose message contract this is — drive it:
//!
//! 1. **start** — the transport returns N unopened streams. Nothing a
//!    stream does from here on may wait for a sibling to be *consumed*.
//! 2. **open** — each pump opens its stream (a join's blocking build
//!    happens here, in parallel) and sends its schema. The exchange's own
//!    `open` returns as soon as the first stream is open; it never
//!    withholds consumption of one stream until another has opened.
//! 3. **batches** — the producer sends only against **credit**: a full
//!    bounded channel in process; on the wire an initial window the
//!    consumer refills by one per batch received.
//! 4. **end** — the *producer* speaks last: end-of-stream (`Done`) or an
//!    error is its final message, after which it sends nothing more for
//!    this stream. The consumer issues no credit after the final message.
//!    On the wire the **stream has ended but the connection stays**: the
//!    worker keeps reading it, so a late credit is read rather than left
//!    to reset the socket, and TCP delivers it ahead of the connection's
//!    next dispatch.
//! 5. **close** — the *consumer* closes first, always: after the final
//!    message, or early as an **abort** (the exchange's feeder shutdown
//!    sets the stream's abort flag and deactivates the join's input
//!    subjects so nothing stays blocked). A remote stream that read `Done`
//!    hands its connection back to the transport's idle pool for a later
//!    dispatch; one that ended any other way shuts its connection down,
//!    which is the worker's cancel. Whatever a stream held on the
//!    consumer's side — a remote shard's memory lease — is released when
//!    it closes, however it ended.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use crossbeam_channel::{bounded, Receiver, Sender};

use tukwila_common::{fold_hash, KeyVector, Result, Schema, TukwilaError, TupleBatch};
use tukwila_plan::{OperatorNode, OperatorSpec};
use tukwila_storage::{MemoryManager, MemoryReservation, ScopedSpillStore, SpillStore};
use tukwila_trace::{OpMetrics, TraceEvent};

use crate::build::{build_join, build_operator, join_descendants};
use crate::feeder::{cut_off, Feed, Feeders, Outlet};
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

/// Supplies an [`Exchange`] with its partition pipelines. Implementations
/// obey the stream lifecycle in the module docs.
pub trait PartitionTransport: Send + Sync {
    /// Whether an exchange of `partitions` over a join runs as separate
    /// pipelines on this transport. Otherwise the exchange node is a
    /// transparent passthrough and the join runs in place.
    fn splits(&self, partitions: usize) -> bool;

    /// Start `partitions` pipelines of `join` (an `OperatorSpec::Join`
    /// node; `harness` is that node's) and return their streams, in
    /// partition order, not yet opened. A thread the streams need (the
    /// in-process repartition feeders) goes into `feeders`, the exchange's
    /// group, which stops and joins it with the exchange's own pumps.
    fn start(
        &self,
        join: &OperatorNode,
        partitions: usize,
        harness: &OpHarness,
        feeders: &mut Feeders,
    ) -> Result<Vec<Box<dyn PartitionStream>>>;
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

/// The rows of `batch` at `rows`, gathered column by column.
pub(crate) fn take_rows(batch: &TupleBatch, rows: &[u32]) -> TupleBatch {
    TupleBatch::from_columns(batch.columns().gather(rows))
}

// ---- the in-process transport ---------------------------------------------

/// The default transport: partitions are threads of this process, fed by
/// shuffling the join's inputs (see module docs). Splits at a degree
/// above one — plan analysis reports a single partition as TA034.
pub struct InProcess;

impl PartitionTransport for InProcess {
    fn splits(&self, partitions: usize) -> bool {
        partitions > 1
    }

    fn start(
        &self,
        join: &OperatorNode,
        n: usize,
        harness: &OpHarness,
        feeders: &mut Feeders,
    ) -> Result<Vec<Box<dyn PartitionStream>>> {
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
        // Wake repartition feeders blocked inside link-model sleeps. A DPJ
        // instance does the same when it fails or closes early: its own
        // feeders may be waiting on a repartition feeder that sleeps.
        let inputs = join_descendants(left, right);
        feeders.deactivate.extend(inputs.iter().copied());
        let mut shuffle = |input: &OperatorNode, key: &String| -> Result<Vec<PartitionSource>> {
            let (txs, rxs): (Vec<_>, Vec<_>) = (0..n).map(|_| bounded(PARTITION_QUEUE_CAP)).unzip();
            let route = Repartition {
                key: key.clone(),
                key_idx: 0,
                txs,
            };
            feeders.spawn("shuffle", build_operator(input, rt)?, route, |_| {})?;
            Ok(rxs
                .into_iter()
                .map(|rx| PartitionSource {
                    rx,
                    schema: Schema::empty(),
                })
                .collect())
        };
        let lefts = shuffle(left, left_key)?;
        let rights = shuffle(right, right_key)?;
        let streams = lefts
            .into_iter()
            .zip(rights)
            .enumerate()
            .map(|(i, (l, r))| {
                let spill = Arc::new(ScopedSpillStore::new(rt.env().spill.clone()));
                let instance = build_join(
                    *kind,
                    Box::new(l),
                    Box::new(r),
                    left_key.clone(),
                    right_key.clone(),
                    harness.for_partition(partition_reservation(harness, i, n), spill.clone()),
                    inputs.clone(),
                );
                Box::new(LocalPartition { instance, spill }) as Box<dyn PartitionStream>
            })
            .collect();
        Ok(streams)
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

/// A repartition feeder's outlet: each batch is split across the
/// partitions by key prehash (NULL keys dropped); the schema, the end or
/// the error goes to every partition.
struct Repartition {
    key: String,
    /// Resolved from the schema, the feeder's first message.
    key_idx: usize,
    txs: Vec<Sender<Feed>>,
}

impl Repartition {
    /// Send `msg` to every partition; `false` if any has gone away.
    fn broadcast(&self, msg: Feed) -> bool {
        let sent = self.txs.iter().filter(|tx| tx.send(msg.clone()).is_ok());
        sent.count() == self.txs.len()
    }
}

impl Outlet for Repartition {
    fn put(&mut self, msg: Feed) -> bool {
        let batch = match msg {
            Feed::Batch(batch) => batch,
            Feed::Schema(schema) => match schema.index_of(&self.key) {
                Ok(k) => {
                    self.key_idx = k;
                    return self.broadcast(Feed::Schema(schema));
                }
                Err(e) => {
                    self.broadcast(Feed::Err(e));
                    return false;
                }
            },
            end => return self.broadcast(end),
        };
        // One column-kernel hash pass routes the whole batch.
        let n = self.txs.len();
        let kv = KeyVector::compute(&batch, self.key_idx);
        let mut rows: Vec<Vec<u32>> = vec![Vec::new(); n];
        for (i, h) in kv.iter().enumerate() {
            if let Some(h) = h {
                rows[fold_hash(h, n, EXCHANGE_SALT)].push(i as u32);
            }
        }
        // A partition gone away means an early close: stop routing.
        rows.iter()
            .zip(&self.txs)
            .filter(|(rows, _)| !rows.is_empty())
            .all(|(rows, tx)| tx.send(Feed::Batch(take_rows(&batch, rows))).is_ok())
    }
}

/// Consumer end of one repartitioned stream — the leaf each partition
/// instance's join pulls from. Its schema is the repartition feeder's first
/// message.
struct PartitionSource {
    rx: Receiver<Feed>,
    schema: Schema,
}

impl Operator for PartitionSource {
    fn open(&mut self) -> Result<()> {
        self.schema = self.rx.recv().map_err(|_| cut_off())?.into_schema()?;
        Ok(())
    }

    fn next_batch(&mut self) -> Result<Option<TupleBatch>> {
        match self.rx.recv().map_err(|_| cut_off())? {
            Feed::Batch(b) => Ok(Some(b)),
            Feed::End => Ok(None),
            Feed::Err(e) => Err(e),
            Feed::Schema(_) => Err(TukwilaError::Internal(
                "repartition stream sent a second schema".into(),
            )),
        }
    }

    fn close(&mut self) -> Result<()> {
        Ok(())
    }

    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn name(&self) -> &'static str {
        "partition_source"
    }
}

// ---- the operator -----------------------------------------------------------

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
    /// The transport's feeders plus one pump per stream, each tagged with
    /// its partition, into queue 0.
    feeders: Feeders,
    live: usize,
    /// Output rows received and tuples spilled (set once its pump closed
    /// the stream), per partition.
    part_rows: Vec<u64>,
    part_spills: Vec<Arc<AtomicU64>>,
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
            feeders: Feeders::new(harness.runtime()),
            harness,
            join_harness,
            schema: Schema::empty(),
            live: 0,
            part_rows: Vec::new(),
            part_spills: Vec::new(),
            metrics: None,
            opened: false,
        }
    }
}

impl Operator for Exchange {
    fn open(&mut self) -> Result<()> {
        if self.opened {
            return Err(TukwilaError::Internal("Exchange opened twice".into()));
        }
        self.metrics = self.harness.metrics("exchange");
        self.feeders.stall = self.metrics.clone();
        let out = self.feeders.queue(self.partitions.max(2) * 2);
        let transport = &self.harness.runtime().env().transport;
        let streams = transport.start(
            &self.join,
            self.partitions,
            &self.join_harness,
            &mut self.feeders,
        )?;
        // Lifecycle steps 2–4: one pump per stream.
        self.live = streams.len();
        self.part_rows = vec![0; self.live];
        for (i, stream) in streams.into_iter().enumerate() {
            if let Some(flag) = stream.abort_handle() {
                self.harness.register_cancel(flag.clone());
                self.feeders.aborts.push(flag);
            }
            let spilled = Arc::new(AtomicU64::new(0));
            self.part_spills.push(spilled.clone());
            self.feeders
                .spawn("pump", stream, (i, out.clone()), move |s| {
                    spilled.store(s.spill_tuples(), Ordering::Relaxed)
                })?;
        }
        // The first message on the merge queue is some pump's schema or
        // open failure: a batch cannot overtake its own stream's schema.
        self.schema = self.feeders.recv(&[0])?.1.into_schema()?;
        // Lifecycle: the exchange owns the shared join subject's state.
        self.join_harness.opened();
        self.harness.opened();
        self.opened = true;
        Ok(())
    }

    fn next_batch(&mut self) -> Result<Option<TupleBatch>> {
        while self.live > 0 {
            match self.feeders.recv(&[0])? {
                (i, Feed::Batch(b)) => {
                    self.part_rows[i] += b.len() as u64;
                    if let Some(m) = &self.metrics {
                        m.add_output(b.len() as u64);
                    }
                    self.harness.produced(b.len() as u64);
                    return Ok(Some(b));
                }
                (_, Feed::Schema(_)) => {}
                (_, Feed::End) => self.live -= 1,
                (_, Feed::Err(e)) => {
                    self.harness.failed();
                    self.feeders.shutdown();
                    return Err(e);
                }
            }
        }
        Ok(None)
    }

    fn close(&mut self) -> Result<()> {
        self.feeders.shutdown();
        if self.opened {
            self.opened = false;
            // Per-partition spill attribution and skew, once per run.
            let rt = self.harness.runtime();
            let op = self.join_harness.op_id().unwrap_or(u32::MAX);
            let spills: Vec<u64> = (self.part_spills.iter())
                .map(|s| s.load(Ordering::Relaxed))
                .collect();
            rt.note_exchange(op, &spills);
            if rt.trace().events_enabled() {
                let rows = self.part_rows.clone();
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
