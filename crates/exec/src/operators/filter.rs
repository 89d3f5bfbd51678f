//! Selection operator.

use tukwila_common::{Result, Schema, TupleBatch};
use tukwila_plan::Predicate;

use crate::operator::{Operator, OperatorBox};
use crate::runtime::OpHarness;

use tukwila_plan::predicate::CompiledPredicate;

/// Filters tuples by a predicate (compiled against the input schema at
/// open).
pub struct Filter {
    input: OperatorBox,
    predicate: Predicate,
    compiled: Option<CompiledPredicate>,
    harness: OpHarness,
}

impl Filter {
    /// Build a filter.
    pub fn new(input: OperatorBox, predicate: Predicate, harness: OpHarness) -> Self {
        Filter {
            input,
            predicate,
            compiled: None,
            harness,
        }
    }
}

impl Operator for Filter {
    fn open(&mut self) -> Result<()> {
        self.input.open()?;
        self.compiled = Some(self.predicate.compile(self.input.schema())?);
        self.harness.opened();
        Ok(())
    }

    fn next_batch(&mut self) -> Result<Option<TupleBatch>> {
        let compiled = self
            .compiled
            .as_ref()
            .ok_or_else(|| tukwila_common::TukwilaError::Internal("Filter before open".into()))?;
        // One typed comparison loop per predicate leaf produces a selection
        // bitmap, applied by gather: all-pass batches flow through
        // untouched, and none-pass batches are skipped (the contract
        // forbids emitting empty batches).
        while let Some(batch) = self.input.next_batch()? {
            let sel = compiled.eval_batch(batch.columns());
            if let Some(kept) = batch.select(&sel) {
                self.harness.produced(kept.len() as u64);
                return Ok(Some(kept));
            }
        }
        Ok(None)
    }

    fn close(&mut self) -> Result<()> {
        self.input.close()?;
        if self.compiled.take().is_some() {
            self.harness.closed();
        }
        Ok(())
    }

    fn schema(&self) -> &Schema {
        self.input.schema()
    }

    fn name(&self) -> &'static str {
        "filter"
    }
}
