//! The double pipelined hash join (§4.2.2–§4.2.3) — Tukwila's flagship
//! adaptive operator.
//!
//! Symmetric and incremental: each input streams through its own thread
//! into a small **tuple transfer queue**; the output side takes a batch from
//! whichever queue has data, probes the *opposite* side's table, and stores
//! it in its own. At any point in time all data seen so far has been joined
//! and emitted — which is what minimizes time-to-first-tuple and masks slow
//! sources.
//!
//! This is the paper's "iterator-based adaptation" (§4.2.2): the bottom-up,
//! data-driven join is wrapped in the top-down iterator model using
//! "separate threads for output, left child, and right child" — one
//! [`crate::feeder`] per child, which also opens it — with child threads
//! blocking when their transfer queue fills — that backpressure is also how
//! Incremental Left Flush "pauses" the left input.
//!
//! Each side's in-memory partition is **columnar from arrival through
//! overflow** ([`JoinSide`]): an arriving batch (converted to columns once
//! if it comes in row form) is prehashed once, appended to its side's
//! growing typed columns and chained into a row-id index, probed against
//! the opposite side's index, and emitted as two typed gathers — no row is
//! ever built. Memory pressure changes where rows go, not what they are:
//! from the first flush on, each row is routed by its cached prehash to a
//! bucket, flushed buckets spill as columnar batches, and the cleanup is the
//! same resident join run on one bucket pair at a time.
//!
//! The transfer queues are **batched**: each channel message carries a
//! whole [`TupleBatch`] from the child's batched pull, so fast sources pay
//! one send/receive per block instead of per tuple, while slow sources
//! still deliver singleton batches with unchanged latency (the queue
//! capacity bounds in-flight *batches*).
//!
//! Memory overflow resolution (§4.2.3) implements both published
//! strategies plus the naive baseline:
//!
//! * **Incremental Left Flush** — pause the left input; flush left-side
//!   buckets as needed while draining the right input; flush right buckets
//!   only once the left table is fully flushed; resume the left when the
//!   right is exhausted (tuples in flushed buckets divert to disk, others
//!   probe the now-complete right table and need no storage at all).
//! * **Incremental Symmetric Flush** — pick the fattest bucket and flush it
//!   from *both* tables; both inputs keep streaming, with arrivals for
//!   flushed buckets marked `new` and diverted to disk.
//! * **FlushAllLeft** — the rejected "convert to hybrid hash" design, as an
//!   ablation baseline.
//!
//! Overflow onset is exact to the row: the batch whose charge first puts
//! the join under memory pressure is split just past that row, and the
//! resolution runs before the rest of the batch is routed. Duplicate
//! avoidance follows the paper's marking rule: cleanup joins old×new,
//! new×old and new×new — never old×old, which was emitted online.

use std::sync::Arc;
use std::time::Instant;

use tukwila_common::{OutputQueue, Result, Schema, TukwilaError, TupleBatch};
use tukwila_plan::{OverflowMethod, SubjectRef};
use tukwila_trace::{OpMetrics, TraceEvent};

use crate::feeder::{Feed, Feeders};
use crate::operator::{Operator, OperatorBox};
use crate::operators::join_side::{BucketJoin, JoinSide, Keyed, Matches};
use crate::runtime::OpHarness;

const LEFT: usize = 0;
const RIGHT: usize = 1;

/// Both sides, `(left, right)`, or an error before open.
fn pair(sides: &mut [JoinSide]) -> Result<(&mut JoinSide, &mut JoinSide)> {
    match sides {
        [left, right] => Ok((left, right)),
        _ => Err(TukwilaError::Internal("DPJ used before open".into())),
    }
}

/// Default number of hash buckets per side.
const DEFAULT_BUCKETS: usize = 16;
/// Default transfer queue capacity, in batches ("small tuple transfer
/// queue", §4.2.2 — one queue slot now holds one arrival burst).
const DEFAULT_QUEUE_CAP: usize = 16;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ReadMode {
    /// Pull from whichever side has data (normal data-driven operation).
    Both,
    /// Left input paused (Incremental Left Flush in progress).
    RightOnly,
}

/// The double pipelined join operator.
pub struct DoublePipelinedJoin {
    children: Option<(OperatorBox, OperatorBox)>,
    left_key: String,
    right_key: String,
    num_buckets: usize,
    harness: OpHarness,
    /// One feeder per input into queue `LEFT` / `RIGHT`, tagged by side.
    feeders: Feeders,
    // -- runtime state (after open) --
    schema: Schema,
    key_idx: [usize; 2],
    /// Each input's partition, `[left, right]` (built at open).
    sides: Vec<JoinSide>,
    done: [bool; 2],
    mode: ReadMode,
    pending: OutputQueue,
    matches: Matches,
    cleanup_next: usize,
    cleanup_active: bool,
    raised_oom: bool,
    /// Alternates the try_recv probe order in `receive` (fairness).
    recv_flip: bool,
    engaged_method: Option<OverflowMethod>,
    /// Cached at open: `OpHarness::reservation` is a subject-map lookup +
    /// `Arc` clone, far too expensive for the per-batch overflow check.
    reservation: Option<tukwila_storage::MemoryReservation>,
    /// Metrics handle (Some only at `TraceLevel::Metrics`).
    metrics: Option<Arc<OpMetrics>>,
    /// Tuples this run diverted to spill storage (overflow accounting).
    spilled_tuples: u64,
    /// The overflow-resolved event was emitted (once per run).
    resolved_emitted: bool,
}

impl DoublePipelinedJoin {
    /// Build a double pipelined join.
    pub fn new(
        left: OperatorBox,
        right: OperatorBox,
        left_key: String,
        right_key: String,
        harness: OpHarness,
    ) -> Self {
        DoublePipelinedJoin {
            children: Some((left, right)),
            left_key,
            right_key,
            num_buckets: DEFAULT_BUCKETS,
            feeders: Feeders::new(harness.runtime()),
            harness,
            schema: Schema::empty(),
            key_idx: [0, 0],
            sides: Vec::new(),
            done: [false, false],
            mode: ReadMode::Both,
            pending: OutputQueue::new(tukwila_common::DEFAULT_BATCH_CAPACITY),
            matches: Matches::default(),
            cleanup_next: 0,
            cleanup_active: false,
            raised_oom: false,
            recv_flip: false,
            engaged_method: None,
            reservation: None,
            metrics: None,
            spilled_tuples: 0,
            resolved_emitted: false,
        }
    }

    /// Override bucket count.
    pub fn with_buckets(mut self, n: usize) -> Self {
        self.num_buckets = n.max(1);
        self
    }

    /// Record descendant subjects, deactivated on early close so children
    /// blocked inside link-model sleeps wake up.
    pub fn with_descendants(mut self, subjects: Vec<SubjectRef>) -> Self {
        self.feeders.deactivate = subjects;
        self
    }

    /// Move the oldest pending output block into a batch and account it.
    fn emit_pending(&mut self) -> TupleBatch {
        let out = self.pending.pop_block().unwrap_or_default();
        if let Some(m) = &self.metrics {
            m.add_output(out.len() as u64);
        }
        self.harness.produced(out.len() as u64);
        out
    }

    /// Flush bucket `b` of `side` to spill storage, tracing the write.
    fn flush_traced(&mut self, side: usize, b: usize) -> Result<()> {
        let n = self.sides[side].flush(b)? as u64;
        self.spilled_tuples += n;
        let trace = self.harness.trace();
        if n > 0 && trace.events_enabled() {
            trace.emit(TraceEvent::SpillWrite {
                op: self.harness.op_id().unwrap_or(u32::MAX),
                tuples: n,
            });
        }
        Ok(())
    }

    /// Join one arriving batch, run by run: route its rows (store them
    /// unless the opposite input is complete — footnote 3 —, mark or spill
    /// them), probe the opposite side and emit the matches as two typed
    /// gathers. A run ends just past a row whose charge puts the join under
    /// memory pressure; overflow resolution then runs before the next.
    fn join_batch(&mut self, side: usize, batch: TupleBatch) -> Result<()> {
        let opp = 1 - side;
        let arrived = Keyed::arrived(&batch, self.key_idx[side]);
        let (keep, block) = (!self.done[opp], self.harness.batch_size().max(1));
        let mut start = 0;
        while start < arrived.len() {
            let (left, right) = pair(&mut self.sides)?;
            let (own, other) = if side == LEFT {
                (left, right)
            } else {
                (right, left)
            };
            let mut routed = own.route(Some(other), keep, &arrived, start);
            self.spilled_tuples += own.settle(&arrived, &mut routed)?;
            let probe = routed.probe.iter().copied();
            self.matches
                .find(other.resident(), &arrived, self.key_idx[side], probe);
            self.matches.emit(
                &arrived.rows,
                other.resident(),
                side == LEFT,
                block,
                &mut self.pending,
            );
            if routed.tripped {
                self.check_overflow()?;
            }
            start = routed.end;
        }
        Ok(())
    }

    fn check_overflow(&mut self) -> Result<()> {
        let Some(res) = self.reservation.as_ref() else {
            return Ok(());
        };
        // `under_pressure` folds in query- and fleet-level budgets from the
        // memory governor, not just this operator's own reservation.
        if !res.under_pressure() {
            return Ok(());
        }
        let first_onset = !self.raised_oom;
        if first_onset {
            self.raised_oom = true;
            // Raise `out_of_memory`; a rule may install/adjust the overflow
            // method before we read it (processed synchronously).
            self.harness.out_of_memory();
        }
        let method = *self
            .engaged_method
            .get_or_insert_with(|| self.harness.overflow_method());
        if first_onset && self.harness.trace().events_enabled() {
            self.harness.trace().emit(TraceEvent::OverflowOnset {
                op: self.harness.op_id().unwrap_or(u32::MAX),
                method: format!("{method:?}"),
            });
        }
        match method {
            OverflowMethod::Fail => Err(TukwilaError::OutOfMemory {
                operator: format!("{}", self.harness.subject()),
                budget: res.budget(),
            }),
            OverflowMethod::IncrementalLeftFlush => self.resolve_left_flush(false),
            OverflowMethod::FlushAllLeft => self.resolve_left_flush(true),
            OverflowMethod::IncrementalSymmetricFlush => self.resolve_symmetric(),
        }
    }

    fn resolve_left_flush(&mut self, flush_all: bool) -> Result<()> {
        let Some(res) = self.reservation.clone() else {
            return Ok(());
        };
        if flush_all {
            for b in 0..self.num_buckets {
                if !pair(&mut self.sides)?.0.is_flushed(b) {
                    self.flush_traced(LEFT, b)?;
                }
            }
        }
        // Pause the left input while the right drains (backpressure does
        // the actual pausing: we stop receiving from the left queue).
        // Pointless once the right side is already exhausted.
        if !self.done[LEFT] && !self.done[RIGHT] && !flush_all {
            self.mode = ReadMode::RightOnly;
        }
        while res.under_pressure() {
            let (left, right) = pair(&mut self.sides)?;
            if let Some(b) = left.largest_unflushed() {
                self.flush_traced(LEFT, b)?;
            } else if let Some(b) = right.largest_unflushed() {
                // Step (4): only once A's table has been flushed completely.
                debug_assert!(left.fully_flushed());
                self.flush_traced(RIGHT, b)?;
            } else {
                break; // nothing left to free
            }
        }
        Ok(())
    }

    fn resolve_symmetric(&mut self) -> Result<()> {
        let Some(res) = self.reservation.clone() else {
            return Ok(());
        };
        while res.under_pressure() {
            // Fattest bucket by combined residency across both tables.
            let (left, right) = pair(&mut self.sides)?;
            let bytes: Vec<usize> = (left.bucket_bytes().iter())
                .zip(right.bucket_bytes())
                .map(|(l, r)| l + r)
                .collect();
            let candidate = (0..self.num_buckets)
                .filter(|&b| !left.is_flushed(b) || !right.is_flushed(b))
                .max_by_key(|&b| bytes[b]);
            let Some(b) = candidate else { break };
            if bytes[b] == 0 {
                break; // only empty buckets remain; flushing frees nothing
            }
            let (left_flushed, right_flushed) = (left.is_flushed(b), right.is_flushed(b));
            if !left_flushed {
                self.flush_traced(LEFT, b)?;
            }
            if !right_flushed {
                self.flush_traced(RIGHT, b)?;
            }
        }
        Ok(())
    }

    fn receive(&mut self) -> Result<(usize, Feed)> {
        let want_left = !self.done[LEFT] && self.mode == ReadMode::Both;
        let want_right = !self.done[RIGHT];
        let from: &[usize] = match (want_left, want_right) {
            (true, true) => {
                // Alternate which side is tried first so neither input is
                // systematically favored when both are ready.
                self.recv_flip = !self.recv_flip;
                if self.recv_flip {
                    &[LEFT, RIGHT]
                } else {
                    &[RIGHT, LEFT]
                }
            }
            (true, false) => &[LEFT],
            // Both done is handled before any receive.
            (false, _) => &[RIGHT],
        };
        self.feeders.recv(from)
    }

    /// Produce the deferred matches for flushed buckets, one bucket per
    /// call, into `pending`. Returns false once all buckets are processed.
    fn cleanup_step(&mut self) -> Result<bool> {
        if self.cleanup_next >= self.num_buckets {
            return Ok(false);
        }
        let b = self.cleanup_next;
        self.cleanup_next += 1;
        let (left, right) = pair(&mut self.sides)?;
        let (lf, rf) = (left.is_flushed(b), right.is_flushed(b));
        if !lf && !rf {
            return Ok(true); // fully in-memory bucket: everything was online
        }
        let (a_old, a_new) = (left.old_rows(b)?, left.new_rows(b)?);
        let (b_old, b_new) = (right.old_rows(b)?, right.new_rows(b)?);
        let trace = self.harness.trace();
        if trace.events_enabled() {
            // Tuples read back from the flushed side(s) of this bucket for
            // the cleanup join.
            let read_back = (if lf { a_old.len() + a_new.len() } else { 0 }
                + if rf { b_old.len() + b_new.len() } else { 0 })
                as u64;
            if read_back > 0 {
                trace.emit(TraceEvent::SpillRead {
                    op: self.harness.op_id().unwrap_or(u32::MAX),
                    tuples: read_back,
                });
            }
        }
        let spill = self.harness.spill();
        let join = BucketJoin {
            build_key: self.key_idx[RIGHT],
            probe_key: self.key_idx[LEFT],
            budget: self.reservation.as_ref().map(|r| r.budget()),
            spill: &*spill,
            block: self.harness.batch_size().max(1),
        };
        // old×old was emitted online; produce the three remaining quadrants.
        join.run(b_new.clone(), &a_old, 0, &mut self.pending)?;
        join.run(b_old, &a_new, 0, &mut self.pending)?;
        join.run(b_new, &a_new, 0, &mut self.pending)?;
        Ok(true)
    }

    /// Run one piece of join work on transferred data and add its duration
    /// to `exec.probe_ms`. Only the work is timed, not whatever the parent
    /// does between `next_batch` calls.
    fn timed_probe<T>(&mut self, work: impl FnOnce(&mut Self) -> T) -> T {
        let started = self.metrics.as_ref().map(|_| Instant::now());
        let out = work(self);
        if let (Some(m), Some(t0)) = (&self.metrics, started) {
            m.add_probe_ns(t0.elapsed().as_nanos() as u64);
        }
        out
    }
}

impl Operator for DoublePipelinedJoin {
    fn open(&mut self) -> Result<()> {
        let (left, right) = self
            .children
            .take()
            .ok_or_else(|| TukwilaError::Internal("DPJ opened twice".into()))?;
        self.metrics = self.harness.metrics("dpj");
        self.feeders.stall = self.metrics.clone();
        for (side, child) in [(LEFT, left), (RIGHT, right)] {
            let tx = self.feeders.queue(DEFAULT_QUEUE_CAP);
            self.feeders.spawn("dpj", child, (side, tx), |_| {})?;
        }
        // Each child opens on its own feeder, so a slow open does not hold
        // up the other side; wait for both schemas in whichever order.
        let mut schemas = [Schema::empty(), Schema::empty()];
        let (first, msg) = self.feeders.recv(&[LEFT, RIGHT])?;
        schemas[first] = msg.into_schema()?;
        let (second, msg) = self.feeders.recv(&[1 - first])?;
        schemas[second] = msg.into_schema()?;
        let [left, right] = schemas;
        self.key_idx = [
            left.index_of(&self.left_key)?,
            right.index_of(&self.right_key)?,
        ];
        self.schema = left.concat(&right);
        self.pending = OutputQueue::new(self.harness.batch_size());
        self.spilled_tuples = 0;
        self.resolved_emitted = false;
        self.reservation = self.harness.reservation();
        let spill = self.harness.spill();
        self.sides = [(LEFT, "L"), (RIGHT, "R")]
            .map(|(side, tag)| {
                JoinSide::new(
                    format!("dpj-{}-{tag}", self.harness.subject()),
                    self.num_buckets,
                    self.key_idx[side],
                    self.reservation.clone(),
                    spill.clone(),
                )
            })
            .into();
        self.harness.opened();
        Ok(())
    }

    fn next_batch(&mut self) -> Result<Option<TupleBatch>> {
        let max = self.harness.batch_size();
        loop {
            if self.pending.len() >= max {
                return Ok(Some(self.emit_pending()));
            }
            if self.done[LEFT] && self.done[RIGHT] {
                if !self.cleanup_active {
                    self.cleanup_active = true;
                    self.cleanup_next = 0;
                }
                if self.cleanup_step()? {
                    continue; // may have filled `pending`
                }
                if self.raised_oom
                    && !self.resolved_emitted
                    && self.harness.trace().events_enabled()
                {
                    self.resolved_emitted = true;
                    self.harness.trace().emit(TraceEvent::OverflowResolved {
                        op: self.harness.op_id().unwrap_or(u32::MAX),
                        tuples_spilled: self.spilled_tuples,
                    });
                }
                if self.pending.is_empty() {
                    return Ok(None);
                }
                return Ok(Some(self.emit_pending()));
            }
            // The next step blocks in receive — never hold output for it.
            if !self.pending.is_empty() {
                return Ok(Some(self.emit_pending()));
            }
            let (side, msg) = self.receive()?;
            match msg {
                Feed::Batch(b) => {
                    if let Some(m) = &self.metrics {
                        m.add_input(b.len() as u64);
                    }
                    self.timed_probe(|join| join.join_batch(side, b))?;
                }
                Feed::End => {
                    self.done[side] = true;
                    if side == RIGHT && self.mode == ReadMode::RightOnly {
                        // Step (5): right exhausted — resume the left input.
                        self.mode = ReadMode::Both;
                    }
                }
                Feed::Err(e) => {
                    self.harness.failed();
                    self.feeders.shutdown();
                    return Err(e);
                }
                Feed::Schema(_) => {} // consumed at open
            }
        }
    }

    fn close(&mut self) -> Result<()> {
        self.feeders.shutdown();
        for side in &mut self.sides {
            side.clear();
        }
        self.sides.clear();
        self.pending.clear();
        self.harness.closed();
        Ok(())
    }

    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn name(&self) -> &'static str {
        "double_pipelined_join"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::operator::drain;
    use crate::test_support::{keyed_relation, JoinFixture};
    use std::time::{Duration, Instant};
    use tukwila_common::Relation;
    use tukwila_plan::{
        Action, Condition, EventKind, EventPattern, JoinKind, QuantityProvider, Rule,
    };
    use tukwila_source::LinkModel;

    fn dpj_for(fx: &JoinFixture) -> DoublePipelinedJoin {
        DoublePipelinedJoin::new(
            fx.left_scan(),
            fx.right_scan(),
            "k".into(),
            "k".into(),
            fx.harness(fx.join_id),
        )
        .with_buckets(8)
        .with_descendants(vec![
            SubjectRef::Op(fx.left_id),
            SubjectRef::Op(fx.right_id),
        ])
    }

    fn fixture(
        n_left: i64,
        n_right: i64,
        dup: i64,
        overflow: OverflowMethod,
        budget: Option<usize>,
    ) -> JoinFixture {
        JoinFixture::build(
            keyed_relation("l", n_left, dup),
            keyed_relation("r", n_right, dup),
            LinkModel::instant(),
            LinkModel::instant(),
            JoinKind::DoublePipelined,
            overflow,
            budget,
        )
    }

    #[test]
    fn in_memory_matches_gold() {
        let fx = fixture(200, 100, 10, OverflowMethod::IncrementalLeftFlush, None);
        let mut op = dpj_for(&fx);
        let out = drain(&mut op).unwrap();
        assert_eq!(out.len(), fx.gold.len());
        fx.assert_gold(out);
    }

    #[test]
    fn left_flush_overflow_matches_gold() {
        let fx = fixture(
            300,
            300,
            30,
            OverflowMethod::IncrementalLeftFlush,
            Some(4_000),
        );
        let mut op = dpj_for(&fx);
        let out = drain(&mut op).unwrap();
        fx.assert_gold(out);
        let stats = fx.rt.env().spill.stats();
        assert!(stats.tuples_written() > 0, "must have spilled");
        assert!(fx
            .rt
            .event_log()
            .iter()
            .any(|e| e.kind == EventKind::OutOfMemory));
    }

    #[test]
    fn symmetric_flush_overflow_matches_gold() {
        let fx = fixture(
            300,
            300,
            30,
            OverflowMethod::IncrementalSymmetricFlush,
            Some(4_000),
        );
        let mut op = dpj_for(&fx);
        let out = drain(&mut op).unwrap();
        fx.assert_gold(out);
        assert!(fx.rt.env().spill.stats().tuples_written() > 0);
    }

    #[test]
    fn flush_all_left_overflow_matches_gold() {
        let fx = fixture(300, 300, 30, OverflowMethod::FlushAllLeft, Some(4_000));
        let mut op = dpj_for(&fx);
        let out = drain(&mut op).unwrap();
        fx.assert_gold(out);
    }

    #[test]
    fn fail_method_raises_out_of_memory_error() {
        let fx = fixture(300, 300, 30, OverflowMethod::Fail, Some(1_000));
        let mut op = dpj_for(&fx);
        op.open().unwrap();
        let err = loop {
            match op.next_batch() {
                Ok(Some(_)) => {}
                Ok(None) => panic!("expected OOM"),
                Err(e) => break e,
            }
        };
        assert_eq!(err.kind(), "out_of_memory");
        op.close().unwrap();
    }

    #[test]
    fn rule_installs_overflow_method_on_oom_event() {
        // Plan says Fail, but a rule reacts to out_of_memory by installing
        // symmetric flush — §3.1.2 "the policy for memory overflow
        // resolution in the double pipelined join is guided by a rule".
        let mut fx = fixture(300, 300, 30, OverflowMethod::Fail, Some(4_000));
        let join = fx.join_id;
        fx.plan.global_rules.push(Rule::overflow_method(
            join,
            OverflowMethod::IncrementalSymmetricFlush,
        ));
        // rebuild runtime with the extra rule
        fx.rt = crate::runtime::PlanRuntime::for_plan(
            &fx.plan,
            crate::runtime::ExecEnv::new(fx.rt.env().sources.clone()),
        );
        let mut op = dpj_for(&fx);
        let out = drain(&mut op).unwrap();
        fx.assert_gold(out);
        assert!(fx.rt.env().spill.stats().tuples_written() > 0);
    }

    #[test]
    fn left_flush_does_fewer_ios_than_symmetric() {
        // §4.2.3: "incremental left-flush will perform fewer disk I/Os than
        // the symmetric strategy". The analysis assumes equal transfer
        // rates, so pace both sources identically (with instant links one
        // side can race ahead and footnote 3 changes the memory profile —
        // the full analytical reproduction lives in
        // tests/overflow_analysis.rs).
        let paced = LinkModel {
            per_tuple: Duration::from_micros(60),
            ..LinkModel::instant()
        };
        let budget = 6_000;
        let run = |method| {
            let fx = JoinFixture::build(
                keyed_relation("l", 400, 40),
                keyed_relation("r", 400, 40),
                paced.clone(),
                paced.clone(),
                JoinKind::DoublePipelined,
                method,
                Some(budget),
            );
            let mut op = dpj_for(&fx);
            let out = drain(&mut op).unwrap();
            fx.assert_gold(out);
            fx.rt.env().spill.stats().total_tuple_io()
        };
        let left = run(OverflowMethod::IncrementalLeftFlush);
        let symmetric = run(OverflowMethod::IncrementalSymmetricFlush);
        assert!(
            left as f64 <= symmetric as f64 * 1.05 + 32.0,
            "left flush ({left} IOs) should not exceed symmetric ({symmetric} IOs)"
        );
    }

    #[test]
    fn first_tuple_beats_hybrid_hash_on_slow_sources() {
        // Figure 3's headline: the DPJ produces output while data is still
        // arriving; hybrid hash waits for the whole inner relation first.
        let slow = LinkModel {
            per_tuple: Duration::from_micros(400),
            initial_delay: Duration::from_millis(5),
            ..LinkModel::instant()
        };
        let build_fx = |kind| {
            JoinFixture::build(
                keyed_relation("l", 400, 40),
                keyed_relation("r", 400, 40),
                slow.clone(),
                slow.clone(),
                kind,
                OverflowMethod::IncrementalLeftFlush,
                None,
            )
        };
        let time_to_first = |op: &mut dyn Operator| {
            let start = Instant::now();
            op.open().unwrap();
            let first = op.next_batch().unwrap();
            assert!(first.is_some());
            let elapsed = start.elapsed();
            while op.next_batch().unwrap().is_some() {}
            op.close().unwrap();
            elapsed
        };

        let fx = build_fx(JoinKind::DoublePipelined);
        let mut dpj = dpj_for(&fx);
        let dpj_first = time_to_first(&mut dpj);

        let fx2 = build_fx(JoinKind::HybridHash);
        let mut hybrid = crate::operators::HashJoinOp::hybrid(
            fx2.left_scan(),
            fx2.right_scan(),
            "k".into(),
            "k".into(),
            fx2.harness(fx2.join_id),
        );
        let hybrid_first = time_to_first(&mut hybrid);

        assert!(
            dpj_first < hybrid_first,
            "DPJ first tuple {dpj_first:?} should beat hybrid {hybrid_first:?}"
        );
    }

    #[test]
    fn child_error_propagates() {
        let fx = JoinFixture::build(
            keyed_relation("l", 50, 5),
            keyed_relation("r", 50, 5),
            LinkModel::failing(10),
            LinkModel::instant(),
            JoinKind::DoublePipelined,
            OverflowMethod::IncrementalLeftFlush,
            None,
        );
        let mut op = dpj_for(&fx);
        op.open().unwrap();
        let err = loop {
            match op.next_batch() {
                Ok(Some(_)) => {}
                Ok(None) => panic!("expected error"),
                Err(e) => break e,
            }
        };
        assert_eq!(err.kind(), "source_unavailable");
        op.close().unwrap();
    }

    #[test]
    fn empty_inputs_produce_nothing() {
        let fx = fixture(0, 0, 1, OverflowMethod::IncrementalLeftFlush, None);
        let mut op = dpj_for(&fx);
        assert!(drain(&mut op).unwrap().is_empty());
    }

    #[test]
    fn one_empty_side() {
        let fx = fixture(100, 0, 10, OverflowMethod::IncrementalLeftFlush, None);
        let mut op = dpj_for(&fx);
        assert!(drain(&mut op).unwrap().is_empty());
    }

    #[test]
    fn skewed_single_key_overflow() {
        // Everything hashes to one bucket; overflow must still be exact.
        let fx = fixture(80, 80, 1, OverflowMethod::IncrementalLeftFlush, Some(1_500));
        let mut op = dpj_for(&fx);
        let out = drain(&mut op).unwrap();
        assert_eq!(out.len(), 80 * 80);
        fx.assert_gold(out);
    }

    #[test]
    fn symmetric_skewed_single_key_overflow() {
        let fx = fixture(
            80,
            80,
            1,
            OverflowMethod::IncrementalSymmetricFlush,
            Some(1_500),
        );
        let mut op = dpj_for(&fx);
        let out = drain(&mut op).unwrap();
        assert_eq!(out.len(), 80 * 80);
    }

    #[test]
    fn close_without_drain_does_not_hang() {
        let slow = LinkModel {
            per_tuple: Duration::from_millis(2),
            ..LinkModel::instant()
        };
        let fx = JoinFixture::build(
            keyed_relation("l", 10_000, 10),
            keyed_relation("r", 10_000, 10),
            slow.clone(),
            slow,
            JoinKind::DoublePipelined,
            OverflowMethod::IncrementalLeftFlush,
            None,
        );
        let mut op = dpj_for(&fx);
        op.open().unwrap();
        let _ = op.next_batch().unwrap();
        let start = Instant::now();
        op.close().unwrap();
        assert!(
            start.elapsed() < Duration::from_secs(10),
            "close must cancel blocked children"
        );
    }

    #[test]
    fn threshold_rule_on_dpj_output() {
        let mut fx = fixture(100, 100, 10, OverflowMethod::IncrementalLeftFlush, None);
        let join = fx.join_id;
        // contrived rule: when the join has produced 50 tuples, alter the
        // memory allotment (observable, harmless action)
        fx.plan.global_rules.push(Rule::new(
            "bump-mem",
            SubjectRef::Op(join),
            EventPattern::with_value(EventKind::Threshold, SubjectRef::Op(join), 50),
            Condition::True,
            vec![Action::AlterMemory {
                op: join,
                bytes: 123_456,
            }],
        ));
        fx.plan.fragments[0].root.memory_budget = Some(1_000_000);
        fx.rt = crate::runtime::PlanRuntime::for_plan(
            &fx.plan,
            crate::runtime::ExecEnv::new(fx.rt.env().sources.clone()),
        );
        let mut op = dpj_for(&fx);
        let out = drain(&mut op).unwrap();
        fx.assert_gold(out);
        assert_eq!(fx.rt.memory_budget(SubjectRef::Op(join)), Some(123_456.0));
    }

    /// Check gold equality under every overflow method and several budgets
    /// — the overflow matrix.
    #[test]
    fn overflow_matrix() {
        for method in [
            OverflowMethod::IncrementalLeftFlush,
            OverflowMethod::IncrementalSymmetricFlush,
            OverflowMethod::FlushAllLeft,
        ] {
            for budget in [2_000usize, 8_000, 64_000] {
                let fx = fixture(250, 200, 25, method, Some(budget));
                let mut op = dpj_for(&fx);
                let out = drain(&mut op).unwrap();
                let got = Relation::new(fx.gold.schema().clone(), out).unwrap();
                assert!(
                    got.bag_eq(&fx.gold),
                    "mismatch for {method:?} at budget {budget}: got {}, want {}",
                    got.len(),
                    fx.gold.len()
                );
            }
        }
    }
}
