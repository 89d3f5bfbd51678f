//! The batched iterator-model operator interface.
//!
//! Control flows top-down from the root (§3.2): `open` prepares the
//! operator (resolving schemas, spawning helper threads for the adaptive
//! operators), `next_batch` pulls one **block** of tuples, `close` releases
//! resources. All operators are `Send` so the double pipelined join and the
//! collector can move their children into worker threads.
//!
//! The interface is batch-first: operators exchange [`TupleBatch`]es sized
//! by the engine's configured batch capacity ([`crate::runtime::ExecEnv`]),
//! which amortizes virtual dispatch, channel synchronization, and
//! statistics updates over whole blocks while keeping the paper's
//! adaptivity — a batch is handed downstream as soon as it exists, never
//! held back to fill, so time-to-first-output matches the tuple-at-a-time
//! engine. Consumers that genuinely need single tuples (tests comparing
//! the per-tuple view with the batched one) pull through a [`TupleCursor`].
//!
//! Contract:
//! * `next_batch` returns `Ok(Some(batch))` with a **non-empty** batch, or
//!   `Ok(None)` at end of stream;
//! * all tuples in a batch conform to [`Operator::schema`].

use tukwila_common::{Result, Schema, Tuple, TupleBatch};

/// A physical operator in the batched iterator model.
pub trait Operator: Send {
    /// Prepare for execution. Must be called exactly once before
    /// `next_batch`.
    fn open(&mut self) -> Result<()>;

    /// Produce the next non-empty batch of output tuples, or `None` at end
    /// of stream.
    fn next_batch(&mut self) -> Result<Option<TupleBatch>>;

    /// Release resources (idempotent).
    fn close(&mut self) -> Result<()>;

    /// Output schema. Only valid after `open` succeeded.
    fn schema(&self) -> &Schema;

    /// Short name for diagnostics.
    fn name(&self) -> &'static str;
}

/// Boxed operator (the tree edge type).
pub type OperatorBox = Box<dyn Operator>;

/// Single-tuple adapter over a batched operator: holds the current batch's
/// rows and yields one tuple per call, for tests that need tuple
/// granularity; the operators themselves are all natively batched.
#[derive(Default)]
pub struct TupleCursor {
    rows: std::vec::IntoIter<Tuple>,
}

impl TupleCursor {
    /// Fresh cursor with no buffered batch.
    pub fn new() -> Self {
        TupleCursor::default()
    }

    /// Next tuple from `op`, pulling a new batch when the buffer runs dry.
    pub fn next(&mut self, op: &mut dyn Operator) -> Result<Option<Tuple>> {
        loop {
            if let Some(t) = self.rows.next() {
                return Ok(Some(t));
            }
            match op.next_batch()? {
                Some(batch) => self.rows = batch.to_rows().into_iter(),
                None => return Ok(None),
            }
        }
    }
}

/// Drain an operator to completion (open → next_batch* → close),
/// collecting output tuples. Test/bench helper — goes through the batch
/// path, so every drain-based test exercises the batched contract.
pub fn drain(op: &mut dyn Operator) -> Result<Vec<Tuple>> {
    op.open()?;
    let mut out = Vec::new();
    while let Some(batch) = op.next_batch()? {
        debug_assert!(!batch.is_empty(), "operators must not emit empty batches");
        out.extend(batch.to_rows());
    }
    op.close()?;
    Ok(out)
}

/// Drain an operator to completion, keeping batch boundaries. Test/bench
/// helper for asserting batching behaviour itself.
pub fn drain_batches(op: &mut dyn Operator) -> Result<Vec<TupleBatch>> {
    op.open()?;
    let mut out = Vec::new();
    while let Some(batch) = op.next_batch()? {
        debug_assert!(!batch.is_empty(), "operators must not emit empty batches");
        out.push(batch);
    }
    op.close()?;
    Ok(out)
}

/// Drain an operator through the single-tuple adapter (open → cursor pulls
/// → close). Used by equivalence tests to compare the per-tuple view with
/// the batched view of the same stream.
pub fn drain_tuples(op: &mut dyn Operator) -> Result<Vec<Tuple>> {
    op.open()?;
    let mut cursor = TupleCursor::new();
    let mut out = Vec::new();
    while let Some(t) = cursor.next(op)? {
        out.push(t);
    }
    op.close()?;
    Ok(out)
}
