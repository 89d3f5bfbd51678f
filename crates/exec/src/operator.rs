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
//! engine.
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
