//! The hash join (§4.2): one operator for the double pipelined join
//! (§4.2.2–§4.2.3) and the hybrid and Grace hash joins it generalises
//! (§4.2.1), set by a [`Schedule`] and a [`FlushPolicy`] over two columnar
//! join sides. An arriving batch is routed (stored only while the opposite
//! input is still arriving, footnote 3), probed against the opposite side
//! and emitted as two typed gathers.
//!
//! **Schedules.** The symmetric schedule is the paper's "iterator-based
//! adaptation" (§4.2.2): each child runs on its own [`crate::feeder`] into
//! a small **tuple transfer queue** of whole batches, and the output side
//! joins a batch from whichever queue has data — so at any point all data
//! seen so far has been joined and emitted, which minimizes time to first
//! tuple and masks slow sources. A feeder blocks when its queue fills; that
//! backpressure is also how Incremental Left Flush "pauses" the left input.
//! The build-first schedule starts no thread: it drains the right input
//! inline at `open` — the non-pipelined phase Figure 3 exposes — and then
//! pulls the left inline, probing a complete right side.
//!
//! **Flush policies.** Overflow onset is exact to the row: the batch whose
//! charge first puts the join under memory pressure is split just past
//! that row, and the policy runs before the rest of the batch is routed.
//!
//! * **Incremental Left Flush** — pause the left input; flush left buckets
//!   as needed while draining the right input; flush right buckets only
//!   once the left table is fully flushed; resume the left when the right
//!   is exhausted.
//! * **Incremental Symmetric Flush** — flush the fattest bucket from *both*
//!   tables; both inputs keep streaming.
//! * **FlushAllLeft** — the rejected "convert to hybrid hash" design, as an
//!   ablation baseline: flush the whole left table, then as Left Flush
//!   without the pause.
//! * **Fail** — raise `out_of_memory` and fail the query.
//! * **Hybrid** — flush the build side's largest bucket, lazily.
//! * **Grace** — flush every build bucket at `open`, before any row.
//!
//! The symmetric schedule reads its policy from the harness at first onset,
//! so a rule reacting to `out_of_memory` can install it (§3.1.2). Its
//! cleanup joins old×new, new×old and new×new per flushed bucket — never
//! old×old, which was emitted online. Under the build-first schedule the
//! left is never stored: its rows of a flushed build bucket spill, and the
//! cleanup joins the build bucket's rows against them in one run.

use std::sync::Arc;
use std::time::Instant;

use tukwila_common::{OutputQueue, Result, Schema, TukwilaError, TupleBatch};
use tukwila_plan::{JoinKind, OverflowMethod, SubjectRef};
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
        _ => Err(TukwilaError::Internal("hash join used before open".into())),
    }
}

/// Default number of hash buckets per side.
const DEFAULT_BUCKETS: usize = 16;
/// Default transfer queue capacity, in batches ("small tuple transfer
/// queue", §4.2.2 — one queue slot now holds one arrival burst).
const DEFAULT_QUEUE_CAP: usize = 16;

/// When each input is read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Schedule {
    /// The double pipelined join: both inputs on feeders, each batch
    /// joined as it arrives from either side.
    Symmetric,
    /// Hybrid and Grace hashing: the right input drained inline at open,
    /// then the left pulled inline.
    BuildFirst,
}

/// How the join frees memory under pressure (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlushPolicy {
    /// A double pipelined join's overflow method (§4.2.3).
    Dpj(OverflowMethod),
    Hybrid,
    Grace,
}

/// The hash join operator.
pub struct HashJoin {
    /// Fixed by the join kind for hybrid and Grace, which run build-first;
    /// read from the harness at first onset under the symmetric schedule.
    policy: Option<FlushPolicy>,
    /// The inputs: moved onto feeders at a symmetric open, pulled inline
    /// under the build-first schedule.
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
    /// The left input is paused (Incremental Left Flush in progress).
    paused: bool,
    pending: OutputQueue,
    matches: Matches,
    cleanup_next: usize,
    /// Overflow onset was raised, and its resolution not yet reported.
    raised_oom: bool,
    /// Alternates the try_recv probe order in `receive` (fairness).
    recv_flip: bool,
    /// Cached at open: `OpHarness::reservation` is a subject-map lookup +
    /// `Arc` clone, far too expensive for the per-batch overflow check.
    reservation: Option<tukwila_storage::MemoryReservation>,
    /// Metrics handle (Some only at `TraceLevel::Metrics`).
    metrics: Option<Arc<OpMetrics>>,
    /// Tuples this run diverted to spill storage (overflow accounting).
    spilled_tuples: u64,
}

impl HashJoin {
    /// The hash join of plan kind `kind`: `HybridHash` and `GraceHash` run
    /// build-first with their own policy, any other kind is the double
    /// pipelined join.
    pub fn new(
        kind: JoinKind,
        left: OperatorBox,
        right: OperatorBox,
        left_key: String,
        right_key: String,
        harness: OpHarness,
    ) -> Self {
        let policy = match kind {
            JoinKind::HybridHash => Some(FlushPolicy::Hybrid),
            JoinKind::GraceHash => Some(FlushPolicy::Grace),
            _ => None,
        };
        HashJoin {
            policy,
            children: Some((left, right)),
            left_key,
            right_key,
            num_buckets: DEFAULT_BUCKETS,
            pending: OutputQueue::new(harness.batch_size()),
            feeders: Feeders::new(harness.runtime()),
            harness,
            schema: Schema::empty(),
            key_idx: [0, 0],
            sides: Vec::new(),
            done: [false, false],
            paused: false,
            matches: Matches::default(),
            cleanup_next: 0,
            raised_oom: false,
            recv_flip: false,
            reservation: None,
            metrics: None,
            spilled_tuples: 0,
        }
    }

    /// Override bucket count.
    pub fn with_buckets(mut self, n: usize) -> Self {
        self.num_buckets = n.max(1);
        self
    }

    /// When each input is read: build-first exactly for hybrid and Grace.
    pub fn schedule(&self) -> Schedule {
        match self.policy {
            Some(FlushPolicy::Hybrid | FlushPolicy::Grace) => Schedule::BuildFirst,
            _ => Schedule::Symmetric,
        }
    }

    /// Record descendant subjects, deactivated on early close so children
    /// blocked inside link-model sleeps on a feeder wake up. A build-first
    /// join has no feeder, so it deactivates nothing.
    pub fn with_descendants(mut self, subjects: Vec<SubjectRef>) -> Self {
        if self.schedule() == Schedule::Symmetric {
            self.feeders.deactivate = subjects;
        }
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

    /// Emit the event `event` makes of this operator's id, if the trace
    /// records events.
    fn trace(&self, event: impl FnOnce(u32) -> TraceEvent) {
        let trace = self.harness.trace();
        if trace.events_enabled() {
            trace.emit(event(self.harness.op_id().unwrap_or(u32::MAX)));
        }
    }

    /// Flush bucket `b` of `side` to spill storage, tracing the write.
    fn flush_traced(&mut self, side: usize, b: usize) -> Result<()> {
        let tuples = self.sides[side].flush(b)? as u64;
        self.spilled_tuples += tuples;
        if tuples > 0 {
            self.trace(|op| TraceEvent::SpillWrite { op, tuples });
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
            let mut routed = own.route(other, keep, &arrived, start);
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
        let Some(res) = self.reservation.clone() else {
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
        let policy = *self
            .policy
            .get_or_insert_with(|| FlushPolicy::Dpj(self.harness.overflow_method()));
        if first_onset {
            let method = match policy {
                FlushPolicy::Dpj(method) => format!("{method:?}"),
                FlushPolicy::Hybrid => "HybridLazyFlush".into(),
                FlushPolicy::Grace => "GracePartition".into(),
            };
            self.trace(|op| TraceEvent::OverflowOnset { op, method });
        }
        match policy {
            FlushPolicy::Dpj(OverflowMethod::Fail) => {
                return Err(TukwilaError::OutOfMemory {
                    operator: format!("{}", self.harness.subject()),
                    budget: res.budget(),
                })
            }
            // Pause the left input while the right drains (backpressure
            // does the actual pausing: we stop receiving from the left
            // queue). Pointless once either input is exhausted.
            FlushPolicy::Dpj(OverflowMethod::IncrementalLeftFlush) => {
                self.paused = !self.done[LEFT] && !self.done[RIGHT]
            }
            _ => {}
        }
        while res.under_pressure() {
            let victims = self.victims(policy)?;
            if victims.is_empty() {
                break; // flushing frees nothing more
            }
            for (side, b) in victims {
                self.flush_traced(side, b)?;
            }
        }
        Ok(())
    }

    /// The buckets `policy` flushes next, as `(side, bucket)`.
    fn victims(&mut self, policy: FlushPolicy) -> Result<Vec<(usize, usize)>> {
        let (left, right) = pair(&mut self.sides)?;
        let largest = |side: &mut JoinSide, s| side.largest_unflushed().map(|b| vec![(s, b)]);
        let unflushed_left: Vec<_> = (0..self.num_buckets)
            .filter(|&b| !left.is_flushed(b))
            .map(|b| (LEFT, b))
            .collect();
        let victims = match policy {
            FlushPolicy::Hybrid | FlushPolicy::Grace => largest(right, RIGHT),
            FlushPolicy::Dpj(OverflowMethod::FlushAllLeft) if !unflushed_left.is_empty() => {
                Some(unflushed_left)
            }
            FlushPolicy::Dpj(OverflowMethod::IncrementalSymmetricFlush) => {
                // Fattest bucket by combined residency across both tables;
                // none once only empty buckets remain.
                let bytes: Vec<usize> = (left.bucket_bytes().iter())
                    .zip(right.bucket_bytes())
                    .map(|(l, r)| l + r)
                    .collect();
                (0..self.num_buckets)
                    .filter(|&b| !left.is_flushed(b) || !right.is_flushed(b))
                    .max_by_key(|&b| bytes[b])
                    .filter(|&b| bytes[b] > 0)
                    .map(|b| {
                        let flushed = [left.is_flushed(b), right.is_flushed(b)];
                        let unflushed = [LEFT, RIGHT].into_iter().filter(|&s| !flushed[s]);
                        unflushed.map(|s| (s, b)).collect()
                    })
            }
            // Step (4) of Left Flush: right buckets only once the left
            // table has been flushed completely.
            _ => largest(left, LEFT).or_else(|| largest(right, RIGHT)),
        };
        Ok(victims.unwrap_or_default())
    }

    /// The next message from an input: the left pulled inline under the
    /// build-first schedule, else whichever feeder delivers.
    fn receive(&mut self) -> Result<(usize, Feed)> {
        if self.schedule() == Schedule::BuildFirst {
            let feed = match self.pull(LEFT) {
                Ok(Some(batch)) => Feed::Batch(batch),
                Ok(None) => Feed::End,
                Err(e) => Feed::Err(e),
            };
            return Ok((LEFT, feed));
        }
        let want_left = !self.done[LEFT] && !self.paused;
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

    /// The next batch of input `side`, pulled inline.
    fn pull(&mut self, side: usize) -> Result<Option<TupleBatch>> {
        let (left, right) = (self.children.as_mut())
            .ok_or_else(|| TukwilaError::Internal("hash join input already taken".into()))?;
        match side {
            LEFT => left.next_batch(),
            _ => right.next_batch(),
        }
    }

    /// The build-first schedule's blocking build phase: drain the right
    /// input into its side (under Grace, with every bucket flushed first),
    /// the "time to first tuple is extended by the hash join's
    /// non-pipelined behavior when it is reading the inner relation" of
    /// §4.2.1. Only the store and flush work counts as `exec.build_ms`, not
    /// the wait for the right input. The left side then mirrors the build
    /// side's flushed buckets, so its rows for them spill.
    fn build(&mut self) -> Result<()> {
        if self.policy == Some(FlushPolicy::Grace) {
            self.timed(OpMetrics::add_build_ns, |join| {
                (0..join.num_buckets).try_for_each(|b| join.flush_traced(RIGHT, b))
            })?;
        }
        while let Some(batch) = self.pull(RIGHT)? {
            self.timed(OpMetrics::add_build_ns, |join| {
                join.join_batch(RIGHT, batch)
            })?;
        }
        self.done[RIGHT] = true;
        let (left, right) = pair(&mut self.sides)?;
        left.mirror(right);
        Ok(())
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
        let (mut b_old, b_new) = (right.old_rows(b)?, right.new_rows(b)?);
        // Tuples read back from the flushed side(s) of this bucket for the
        // cleanup join.
        let tuples = (if lf { a_old.len() + a_new.len() } else { 0 }
            + if rf { b_old.len() + b_new.len() } else { 0 }) as u64;
        if tuples > 0 {
            self.trace(|op| TraceEvent::SpillRead { op, tuples });
        }
        let spill = self.harness.spill();
        let join = BucketJoin {
            build_key: self.key_idx[RIGHT],
            probe_key: self.key_idx[LEFT],
            budget: self.reservation.as_ref().map(|r| r.budget()),
            spill: &*spill,
            block: self.harness.batch_size().max(1),
        };
        if self.schedule() == Schedule::BuildFirst {
            // The left was never stored, so it has no old rows: the build
            // bucket's rows meet the spilled probe rows in one run.
            b_old.append(&b_new);
            if b_old.is_empty() || a_new.is_empty() {
                return Ok(true);
            }
            return join.run(b_old, &a_new, 0, &mut self.pending).map(|()| true);
        }
        // old×old was emitted online; produce the three remaining quadrants.
        join.run(b_new.clone(), &a_old, 0, &mut self.pending)?;
        join.run(b_old, &a_new, 0, &mut self.pending)?;
        join.run(b_new, &a_new, 0, &mut self.pending)?;
        Ok(true)
    }

    /// Run one piece of join work and add its duration to the metric `add`
    /// records. Only the work is timed, never the wait for an input or
    /// whatever the parent does between `next_batch` calls.
    fn timed<T>(&mut self, add: fn(&OpMetrics, u64), work: impl FnOnce(&mut Self) -> T) -> T {
        let started = self.metrics.as_ref().map(|_| Instant::now());
        let out = work(self);
        if let (Some(m), Some(t0)) = (&self.metrics, started) {
            add(m, t0.elapsed().as_nanos() as u64);
        }
        out
    }

    /// Start one feeder per input and wait for both schemas.
    fn start_feeders(&mut self) -> Result<[Schema; 2]> {
        let (left, right) = (self.children.take())
            .ok_or_else(|| TukwilaError::Internal("hash join opened twice".into()))?;
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
        Ok(schemas)
    }
}

impl Operator for HashJoin {
    fn open(&mut self) -> Result<()> {
        let name = match self.schedule() {
            Schedule::Symmetric => "dpj",
            Schedule::BuildFirst => self.name(),
        };
        self.metrics = self.harness.metrics(name);
        let [left, right] = match self.schedule() {
            Schedule::Symmetric => self.start_feeders()?,
            Schedule::BuildFirst => {
                let (left, right) = (self.children.as_mut())
                    .ok_or_else(|| TukwilaError::Internal("hash join has no inputs".into()))?;
                left.open()?;
                right.open()?;
                [left.schema().clone(), right.schema().clone()]
            }
        };
        self.key_idx = [
            left.index_of(&self.left_key)?,
            right.index_of(&self.right_key)?,
        ];
        self.schema = left.concat(&right);
        self.reservation = self.harness.reservation();
        let spill = self.harness.spill();
        self.sides = [(LEFT, "L"), (RIGHT, "R")]
            .map(|(side, tag)| {
                JoinSide::new(
                    format!("join-{}-{tag}", self.harness.subject()),
                    self.num_buckets,
                    self.key_idx[side],
                    self.reservation.clone(),
                    spill.clone(),
                )
            })
            .into();
        self.harness.opened();
        match self.schedule() {
            Schedule::Symmetric => Ok(()),
            Schedule::BuildFirst => self.build(),
        }
    }

    fn next_batch(&mut self) -> Result<Option<TupleBatch>> {
        let max = self.harness.batch_size();
        loop {
            if self.pending.len() >= max {
                return Ok(Some(self.emit_pending()));
            }
            if self.done[LEFT] && self.done[RIGHT] {
                if self.cleanup_step()? {
                    continue; // may have filled `pending`
                }
                if self.raised_oom {
                    self.raised_oom = false; // resolved, reported once
                    let tuples_spilled = self.spilled_tuples;
                    self.trace(|op| TraceEvent::OverflowResolved { op, tuples_spilled });
                }
                return Ok((!self.pending.is_empty()).then(|| self.emit_pending()));
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
                    self.timed(OpMetrics::add_probe_ns, |join| join.join_batch(side, b))?;
                }
                Feed::End => {
                    self.done[side] = true;
                    if side == RIGHT {
                        // Step (5): right exhausted — resume the left input.
                        self.paused = false;
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
        let closed = match (self.schedule(), &mut self.children) {
            (Schedule::BuildFirst, Some((left, right))) => left.close().and(right.close()),
            _ => Ok(()),
        };
        for side in &mut self.sides {
            side.clear();
        }
        self.sides.clear();
        self.pending.clear();
        self.harness.closed();
        closed
    }

    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn name(&self) -> &'static str {
        match self.policy {
            Some(FlushPolicy::Hybrid) => "hybrid_hash_join",
            Some(FlushPolicy::Grace) => "grace_hash_join",
            _ => "double_pipelined_join",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::operator::drain;
    use crate::test_support::{keyed_relation, JoinFixture};
    use std::time::{Duration, Instant};
    use tukwila_common::{tuple, DataType, Relation, Tuple, Value};
    use tukwila_plan::{Action, Condition, EventKind, EventPattern, QuantityProvider, Rule};
    use tukwila_source::LinkModel;
    use tukwila_trace::TraceLevel;

    /// A `kind` join of 8 buckets over `fx`'s two scans.
    fn join_for(fx: &JoinFixture, kind: JoinKind) -> HashJoin {
        HashJoin::new(
            kind,
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

    fn dpj_for(fx: &JoinFixture) -> HashJoin {
        join_for(fx, JoinKind::DoublePipelined)
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
    fn symmetric_first_tuple_beats_build_first_on_slow_sources() {
        // Figure 3's headline: the symmetric schedule produces output while
        // data is still arriving; build-first waits for the whole inner
        // relation first.
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
        let mut hybrid = join_for(&fx2, JoinKind::HybridHash);
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

    /// The build-first schedule under both of its policies: the answer is
    /// the nested-loop reference's in memory, through overflow (with the
    /// `out_of_memory` event), with Grace's up-front partitioning, with an
    /// empty input, with NULL keys, and with one skewed key under a tiny
    /// budget (recursion in the cleanup).
    #[test]
    fn build_first_matches_gold_under_both_policies() {
        let nulls = |name: &str| {
            let schema =
                tukwila_common::Schema::of(name, &[("k", DataType::Int), ("v", DataType::Int)]);
            let rows = vec![Tuple::new(vec![Value::Null, 1i64.into()]), tuple![1, 2]];
            Relation::new(schema, rows).unwrap()
        };
        let rel = keyed_relation;
        let cases = [
            (
                "in memory",
                JoinKind::HybridHash,
                rel("l", 100, 10),
                rel("r", 50, 10),
                None,
            ),
            (
                "overflow",
                JoinKind::HybridHash,
                rel("l", 200, 20),
                rel("r", 200, 20),
                Some(2_000),
            ),
            (
                "grace",
                JoinKind::GraceHash,
                rel("l", 120, 12),
                rel("r", 60, 12),
                None,
            ),
            (
                "empty input",
                JoinKind::HybridHash,
                rel("l", 0, 1),
                rel("r", 10, 2),
                None,
            ),
            (
                "null keys",
                JoinKind::HybridHash,
                nulls("l"),
                nulls("r"),
                None,
            ),
            (
                "skewed",
                JoinKind::HybridHash,
                rel("l", 40, 1),
                rel("r", 40, 1),
                Some(500),
            ),
        ];
        for (case, kind, l, r, budget) in cases {
            let (n_l, n_r) = (l.len(), r.len());
            let fx = JoinFixture::build(
                l,
                r,
                LinkModel::instant(),
                LinkModel::instant(),
                kind,
                OverflowMethod::IncrementalLeftFlush,
                budget,
            );
            let mut op = join_for(&fx, kind);
            assert_eq!(op.schedule(), Schedule::BuildFirst, "{case}");
            let out = drain(&mut op).unwrap();
            let want = match case {
                "empty input" => 0,
                "null keys" => 1,
                "skewed" => 1_600,
                _ => fx.gold.len(),
            };
            assert_eq!(out.len(), want, "{case}");
            fx.assert_gold(out);
            let written = fx.rt.env().spill.stats().tuples_written();
            let oom = (fx.rt.event_log().iter()).any(|e| e.kind == EventKind::OutOfMemory);
            match case {
                "overflow" | "skewed" => assert!(written > 0 && oom, "{case}: must overflow"),
                // Grace partitions the full build side to disk.
                "grace" => assert!(written >= n_r && n_l > 0, "{case}: {written} written"),
                _ => assert_eq!(written, 0, "{case}"),
            }
        }
    }

    /// Closing a build-first join early deactivates none of its inputs:
    /// it has no feeder to wake.
    #[test]
    fn build_first_close_deactivates_no_input() {
        for kind in [JoinKind::HybridHash, JoinKind::GraceHash] {
            let fx = JoinFixture::build(
                keyed_relation("l", 100, 10),
                keyed_relation("r", 100, 10),
                LinkModel::instant(),
                LinkModel::instant(),
                kind,
                OverflowMethod::IncrementalLeftFlush,
                None,
            );
            let mut op = join_for(&fx, kind);
            op.open().unwrap();
            assert!(op.next_batch().unwrap().is_some());
            op.close().unwrap();
            for input in [fx.left_id, fx.right_id].map(SubjectRef::Op) {
                assert!(fx.rt.is_active(input), "{kind:?}: {input} deactivated");
            }
        }
    }

    /// `exec.build_ms` is the build-first join's own store and flush work:
    /// a slow build input's link wait does not count as build time.
    #[test]
    fn build_time_excludes_the_build_inputs_wait() {
        let slow = LinkModel::lan(1.0).slowed(10.0);
        let wait = slow.estimated_transfer(400);
        assert!(wait >= Duration::from_millis(100), "{wait:?}");
        let mut fx = JoinFixture::build(
            keyed_relation("l", 400, 40),
            keyed_relation("r", 400, 40),
            LinkModel::instant(),
            slow,
            JoinKind::HybridHash,
            OverflowMethod::IncrementalLeftFlush,
            None,
        );
        let env = crate::runtime::ExecEnv::new(fx.rt.env().sources.clone())
            .with_trace_level(TraceLevel::Metrics);
        fx.rt = crate::runtime::PlanRuntime::for_plan(&fx.plan, env);
        let mut op = join_for(&fx, JoinKind::HybridHash);
        let started = Instant::now();
        op.open().unwrap();
        let opened = started.elapsed();
        let mut out = Vec::new();
        while let Some(batch) = op.next_batch().unwrap() {
            out.extend(batch);
        }
        op.close().unwrap();
        fx.assert_gold(out);
        let metrics = fx.harness(fx.join_id).metrics("hybrid_hash_join").unwrap();
        let build = Duration::from_nanos(metrics.snapshot().build_ns);
        assert!(opened >= wait, "open drains the build input: {opened:?}");
        assert!(
            build > Duration::ZERO && build < wait / 10,
            "build time {build:?} against a link wait of {wait:?}"
        );
    }
}
