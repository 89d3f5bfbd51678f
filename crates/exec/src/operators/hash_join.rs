//! Hybrid and Grace (recursive) hash joins (§4.2.1) — the conventional
//! baselines the double pipelined join is measured against.
//!
//! The **right child is the inner (build) relation**: it is drained into a
//! [`JoinSide`] at `open` (the non-pipelined phase whose cost the paper's
//! Figure 3 exposes) — the same columnar side the double pipelined join
//! stores, flushes and cleans up. Hybrid hashing is lazy: buckets spill
//! only when memory runs out; whatever remains in memory streams matches
//! immediately during the probe phase, one columnar probe per left batch.
//! Grace hashing partitions everything to disk up front.

use std::sync::Arc;
use std::time::Instant;

use tukwila_common::{OutputQueue, Result, Schema, TukwilaError, TupleBatch};
use tukwila_storage::SpillBucket;
use tukwila_trace::{OpMetrics, TraceEvent};

use crate::operator::{Operator, OperatorBox};
use crate::operators::join_side::{spill_by_bucket, BucketJoin, JoinSide, Keyed, Matches};
use crate::runtime::OpHarness;

/// Number of hash buckets ("can be set by an optimizer"; fixed default
/// here, overridable via [`HashJoinOp::with_buckets`]).
const DEFAULT_BUCKETS: usize = 16;

enum Phase {
    Build,
    Probe,
    Cleanup(usize),
    Done,
}

/// Hybrid (or Grace) hash join.
pub struct HashJoinOp {
    left: OperatorBox,
    right: OperatorBox,
    left_key: String,
    right_key: String,
    grace: bool,
    num_buckets: usize,
    harness: OpHarness,
    // after open:
    schema: Schema,
    lkey: usize,
    rkey: usize,
    build: Option<JoinSide>,
    /// Probe rows of flushed build buckets, one spill bucket per bucket.
    probe_spill: Vec<Option<SpillBucket>>,
    pending: OutputQueue,
    matches: Matches,
    phase: Phase,
    raised_oom: bool,
    /// Cached at open: `OpHarness::reservation` is a subject-map lookup +
    /// `Arc` clone, far too expensive for the per-batch overflow check.
    reservation: Option<tukwila_storage::MemoryReservation>,
    /// Metrics handle (Some only at `TraceLevel::Metrics`).
    metrics: Option<Arc<OpMetrics>>,
    /// Tuples this run diverted to spill storage.
    spilled_tuples: u64,
    /// The overflow-resolved event was emitted (once per run).
    resolved_emitted: bool,
}

fn before_open() -> TukwilaError {
    TukwilaError::Internal("hash join used before open".into())
}

impl HashJoinOp {
    /// Build a hybrid hash join (right child = inner/build side).
    pub fn hybrid(
        left: OperatorBox,
        right: OperatorBox,
        left_key: String,
        right_key: String,
        harness: OpHarness,
    ) -> Self {
        Self::new(left, right, left_key, right_key, false, harness)
    }

    /// Build a Grace hash join (partitions both inputs fully before
    /// joining).
    pub fn grace(
        left: OperatorBox,
        right: OperatorBox,
        left_key: String,
        right_key: String,
        harness: OpHarness,
    ) -> Self {
        Self::new(left, right, left_key, right_key, true, harness)
    }

    fn new(
        left: OperatorBox,
        right: OperatorBox,
        left_key: String,
        right_key: String,
        grace: bool,
        harness: OpHarness,
    ) -> Self {
        HashJoinOp {
            left,
            right,
            left_key,
            right_key,
            grace,
            num_buckets: DEFAULT_BUCKETS,
            harness,
            schema: Schema::empty(),
            lkey: 0,
            rkey: 0,
            build: None,
            probe_spill: Vec::new(),
            pending: OutputQueue::new(tukwila_common::DEFAULT_BATCH_CAPACITY),
            matches: Matches::default(),
            phase: Phase::Build,
            raised_oom: false,
            reservation: None,
            metrics: None,
            spilled_tuples: 0,
            resolved_emitted: false,
        }
    }

    /// Override the bucket count.
    pub fn with_buckets(mut self, n: usize) -> Self {
        self.num_buckets = n.max(1);
        self
    }

    fn resolve_overflow(&mut self) -> Result<()> {
        let Some(res) = self.reservation.as_ref() else {
            return Ok(());
        };
        // `under_pressure` folds in query- and fleet-level budgets from the
        // memory governor, not just this operator's own reservation.
        while res.under_pressure() {
            if !self.raised_oom {
                self.raised_oom = true;
                self.harness.out_of_memory();
                let trace = self.harness.trace();
                if trace.events_enabled() {
                    trace.emit(TraceEvent::OverflowOnset {
                        op: self.harness.op_id().unwrap_or(u32::MAX),
                        method: if self.grace {
                            "GracePartition".into()
                        } else {
                            "HybridLazyFlush".into()
                        },
                    });
                }
            }
            let build = self.build.as_mut().ok_or_else(before_open)?;
            // Everything flushed and still over budget: the budget is
            // smaller than the bucket bookkeeping itself; nothing more to
            // free.
            let Some(b) = build.largest_unflushed() else {
                break;
            };
            let n = build.flush(b)? as u64;
            self.spilled_tuples += n;
            let trace = self.harness.trace();
            if n > 0 && trace.events_enabled() {
                trace.emit(TraceEvent::SpillWrite {
                    op: self.harness.op_id().unwrap_or(u32::MAX),
                    tuples: n,
                });
            }
        }
        Ok(())
    }

    fn build_phase(&mut self) -> Result<()> {
        if self.grace {
            // Grace: partition everything to disk from the start.
            let build = self.build.as_mut().ok_or_else(before_open)?;
            for b in 0..self.num_buckets {
                build.flush(b)?;
            }
        }
        while let Some(batch) = self.right.next_batch()? {
            let arrived = Keyed::arrived(&batch, self.rkey);
            let mut start = 0;
            while start < arrived.len() {
                let build = self.build.as_mut().ok_or_else(before_open)?;
                let mut routed = build.route(None, true, &arrived, start);
                self.spilled_tuples += build.settle(&arrived, &mut routed)?;
                if routed.tripped {
                    self.resolve_overflow()?;
                }
                start = routed.end;
            }
        }
        Ok(())
    }

    /// Probe one left batch: rows of flushed build buckets go to their
    /// probe spill, the rest probe the build side's index, and the matches
    /// are emitted as typed gathers. The time counts as `exec.probe_ms`.
    fn probe_batch(&mut self, batch: TupleBatch) -> Result<()> {
        let started = self.metrics.as_ref().map(|_| Instant::now());
        let arrived = Keyed::arrived(&batch, self.lkey);
        let build = self.build.as_ref().ok_or_else(before_open)?;
        let mut routed = build.route(None, false, &arrived, 0);
        let spill = self.harness.spill();
        spill_by_bucket(
            &*spill,
            "hj-probe",
            &mut self.probe_spill,
            &arrived,
            &mut routed.spill,
        )?;
        self.spilled_tuples += routed.spill.len() as u64;
        self.matches
            .find(build.resident(), &arrived, self.lkey, routed.probe);
        let block = self.harness.batch_size().max(1);
        self.matches.emit(
            &arrived.rows,
            build.resident(),
            true,
            block,
            &mut self.pending,
        );
        if let (Some(m), Some(t0)) = (&self.metrics, started) {
            m.add_probe_ns(t0.elapsed().as_nanos() as u64);
        }
        Ok(())
    }

    fn cleanup_bucket(&mut self, b: usize) -> Result<()> {
        let build = self.build.as_ref().ok_or_else(before_open)?;
        if !build.is_flushed(b) {
            return Ok(());
        }
        let mut build_set = build.old_rows(b)?;
        build_set.append(&build.new_rows(b)?);
        let spill = self.harness.spill();
        let probe_set = Keyed::read(&*spill, self.probe_spill[b], self.lkey)?;
        let read_back = (build_set.len() + probe_set.len()) as u64;
        let trace = self.harness.trace();
        if read_back > 0 && trace.events_enabled() {
            trace.emit(TraceEvent::SpillRead {
                op: self.harness.op_id().unwrap_or(u32::MAX),
                tuples: read_back,
            });
        }
        if build_set.is_empty() || probe_set.is_empty() {
            return Ok(());
        }
        let join = BucketJoin {
            build_key: self.rkey,
            probe_key: self.lkey,
            budget: self.reservation.as_ref().map(|r| r.budget()),
            spill: &*spill,
            block: self.harness.batch_size().max(1),
        };
        join.run(build_set, &probe_set, 0, &mut self.pending)
    }
}

impl Operator for HashJoinOp {
    fn open(&mut self) -> Result<()> {
        self.left.open()?;
        self.right.open()?;
        self.lkey = self.left.schema().index_of(&self.left_key)?;
        self.rkey = self.right.schema().index_of(&self.right_key)?;
        self.schema = self.left.schema().concat(self.right.schema());
        self.reservation = self.harness.reservation();
        self.build = Some(JoinSide::new(
            format!("hj-build-{}", self.harness.subject()),
            self.num_buckets,
            self.rkey,
            self.reservation.clone(),
            self.harness.spill(),
        ));
        self.probe_spill = vec![None; self.num_buckets];
        self.pending = OutputQueue::new(self.harness.batch_size());
        self.metrics = self.harness.metrics(self.name());
        self.spilled_tuples = 0;
        self.resolved_emitted = false;
        self.harness.opened();
        // The blocking build phase happens at open: this is precisely the
        // "time to first tuple is extended by the hash join's non-pipelined
        // behavior when it is reading the inner relation" of §4.2.1.
        let t0 = self.metrics.as_ref().map(|_| Instant::now());
        self.build_phase()?;
        if let (Some(m), Some(t0)) = (&self.metrics, t0) {
            m.add_build_ns(t0.elapsed().as_nanos() as u64);
        }
        self.phase = Phase::Probe;
        Ok(())
    }

    fn next_batch(&mut self) -> Result<Option<TupleBatch>> {
        let max = self.harness.batch_size();
        loop {
            // Emit once a full block exists, or when output is pending and
            // the next step would pull (possibly blocking) probe input.
            let block_ready = self.pending.len() >= max
                || (!self.pending.is_empty() && matches!(self.phase, Phase::Probe | Phase::Done));
            if block_ready {
                let out = self.pending.pop_block().unwrap_or_default();
                if let Some(m) = &self.metrics {
                    m.add_output(out.len() as u64);
                }
                self.harness.produced(out.len() as u64);
                return Ok(Some(out));
            }
            match self.phase {
                Phase::Build => {
                    return Err(TukwilaError::Internal(
                        "HashJoin::next_batch before open".into(),
                    ))
                }
                Phase::Probe => match self.left.next_batch()? {
                    Some(batch) => {
                        if let Some(m) = &self.metrics {
                            m.add_input(batch.len() as u64);
                        }
                        self.probe_batch(batch)?;
                    }
                    None => self.phase = Phase::Cleanup(0),
                },
                Phase::Cleanup(b) => {
                    if b >= self.num_buckets {
                        if self.raised_oom && !self.resolved_emitted {
                            self.resolved_emitted = true;
                            let trace = self.harness.trace();
                            if trace.events_enabled() {
                                trace.emit(TraceEvent::OverflowResolved {
                                    op: self.harness.op_id().unwrap_or(u32::MAX),
                                    tuples_spilled: self.spilled_tuples,
                                });
                            }
                        }
                        self.phase = Phase::Done;
                    } else {
                        self.cleanup_bucket(b)?;
                        self.phase = Phase::Cleanup(b + 1);
                    }
                }
                Phase::Done => return Ok(None),
            }
        }
    }

    fn close(&mut self) -> Result<()> {
        self.left.close()?;
        self.right.close()?;
        if let Some(mut b) = self.build.take() {
            b.clear();
            self.pending.clear();
            self.harness.closed();
        }
        Ok(())
    }

    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn name(&self) -> &'static str {
        if self.grace {
            "grace_hash_join"
        } else {
            "hybrid_hash_join"
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::operator::drain;
    use crate::runtime::{ExecEnv, OpHarness, PlanRuntime};
    use std::sync::Arc;
    use tukwila_common::{tuple, DataType, Relation, Tuple};
    use tukwila_plan::{JoinKind, PlanBuilder, SubjectRef};
    use tukwila_source::{LinkModel, SimulatedSource, SourceRegistry};

    fn rel(name: &str, n: i64, dup: i64) -> Relation {
        let schema =
            tukwila_common::Schema::of(name, &[("k", DataType::Int), ("v", DataType::Int)]);
        let mut r = Relation::empty(schema);
        for i in 0..n {
            r.push(tuple![i % dup, i]);
        }
        r
    }

    /// Build a hash join over two registered sources with optional memory
    /// budget; returns (op, runtime, gold result).
    fn setup(
        l: Relation,
        r: Relation,
        budget: Option<usize>,
        grace: bool,
    ) -> (HashJoinOp, Arc<PlanRuntime>, Relation) {
        let gold = l.nested_join(&r, 0, 0);
        let registry = SourceRegistry::new();
        registry.register(SimulatedSource::new("L", l, LinkModel::instant()));
        registry.register(SimulatedSource::new("R", r, LinkModel::instant()));

        let mut b = PlanBuilder::new();
        let ls = b.wrapper_scan("L");
        let rs = b.wrapper_scan("R");
        let mut j = b.join(JoinKind::HybridHash, ls, rs, "k", "k");
        if let Some(bytes) = budget {
            j = j.with_memory(bytes);
        }
        let jid = j.id;
        let (l_id, r_id) = (tukwila_plan::OpId(0), tukwila_plan::OpId(1));
        let f = b.fragment(j, "out");
        let plan = b.build(f);
        let rt = PlanRuntime::for_plan(&plan, ExecEnv::new(registry));

        let mk = |id| OpHarness::new(rt.clone(), SubjectRef::Op(id));
        let left = Box::new(crate::operators::WrapperScan::new(
            "L".into(),
            None,
            None,
            mk(l_id),
        ));
        let right = Box::new(crate::operators::WrapperScan::new(
            "R".into(),
            None,
            None,
            mk(r_id),
        ));
        let op = if grace {
            HashJoinOp::grace(left, right, "k".into(), "k".into(), mk(jid))
        } else {
            HashJoinOp::hybrid(left, right, "k".into(), "k".into(), mk(jid))
        }
        .with_buckets(8);
        (op, rt, gold)
    }

    fn assert_matches_gold(out: Vec<Tuple>, gold: &Relation) {
        let got = Relation::new(gold.schema().clone(), out).unwrap();
        assert!(
            got.bag_eq(gold),
            "result mismatch: got {} tuples, want {}",
            got.len(),
            gold.len()
        );
    }

    #[test]
    fn hybrid_in_memory_matches_gold() {
        let (mut op, _, gold) = setup(rel("l", 100, 10), rel("r", 50, 10), None, false);
        let out = drain(&mut op).unwrap();
        assert_matches_gold(out, &gold);
    }

    #[test]
    fn hybrid_with_overflow_matches_gold_and_spills() {
        let (mut op, rt, gold) = setup(
            rel("l", 200, 20),
            rel("r", 200, 20),
            Some(2_000), // far below the build side's footprint
            false,
        );
        let out = drain(&mut op).unwrap();
        assert_matches_gold(out, &gold);
        let stats = rt.env().spill.stats();
        assert!(stats.tuples_written() > 0, "must have spilled");
        assert!(rt
            .event_log()
            .iter()
            .any(|e| e.kind == tukwila_plan::EventKind::OutOfMemory));
    }

    #[test]
    fn grace_matches_gold_and_spills_everything() {
        let (mut op, rt, gold) = setup(rel("l", 120, 12), rel("r", 60, 12), None, true);
        let out = drain(&mut op).unwrap();
        assert_matches_gold(out, &gold);
        // Grace partitions the full build side to disk.
        assert!(rt.env().spill.stats().tuples_written() >= 60);
    }

    #[test]
    fn empty_inputs() {
        let (mut op, _, gold) = setup(rel("l", 0, 1), rel("r", 10, 2), None, false);
        let out = drain(&mut op).unwrap();
        assert_eq!(gold.len(), 0);
        assert!(out.is_empty());
    }

    #[test]
    fn null_keys_skipped() {
        let schema = tukwila_common::Schema::of("l", &[("k", DataType::Int), ("v", DataType::Int)]);
        let mut l = Relation::empty(schema.clone());
        l.push(Tuple::new(vec![tukwila_common::Value::Null, 1i64.into()]));
        l.push(tuple![1, 2]);
        let mut r = Relation::empty(schema);
        r.push(Tuple::new(vec![tukwila_common::Value::Null, 3i64.into()]));
        r.push(tuple![1, 4]);
        let (mut op, _, gold) = setup(l, r, None, false);
        let out = drain(&mut op).unwrap();
        assert_eq!(gold.len(), 1);
        assert_matches_gold(out, &gold);
    }

    #[test]
    fn skewed_duplicate_keys_with_tiny_budget() {
        // all tuples share one key: one giant bucket; recursion in cleanup
        let (mut op, _, gold) = setup(rel("l", 40, 1), rel("r", 40, 1), Some(500), false);
        let out = drain(&mut op).unwrap();
        assert_eq!(gold.len(), 1600);
        assert_matches_gold(out, &gold);
    }
}
