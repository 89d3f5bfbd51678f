//! Projection operator.

use tukwila_common::{Result, Schema, TukwilaError, TupleBatch};

use crate::operator::{Operator, OperatorBox};
use crate::runtime::OpHarness;

/// Projects the input onto a list of named columns (resolved at open).
pub struct Project {
    input: OperatorBox,
    columns: Vec<String>,
    indices: Vec<usize>,
    /// True when the projection keeps every column in input order — the
    /// batch passes through untouched (no per-row rebuild).
    identity: bool,
    schema: Schema,
    harness: OpHarness,
    opened: bool,
}

impl Project {
    /// Build a projection.
    pub fn new(input: OperatorBox, columns: Vec<String>, harness: OpHarness) -> Self {
        Project {
            input,
            columns,
            indices: Vec::new(),
            identity: false,
            schema: Schema::empty(),
            harness,
            opened: false,
        }
    }
}

impl Operator for Project {
    fn open(&mut self) -> Result<()> {
        self.input.open()?;
        let in_schema = self.input.schema();
        self.indices = self
            .columns
            .iter()
            .map(|c| in_schema.index_of(c))
            .collect::<Result<Vec<_>>>()?;
        self.schema = in_schema.project(&self.indices);
        self.identity = self.indices.len() == in_schema.arity()
            && self.indices.iter().enumerate().all(|(i, &c)| i == c);
        self.opened = true;
        self.harness.opened();
        Ok(())
    }

    fn next_batch(&mut self) -> Result<Option<TupleBatch>> {
        if !self.opened {
            return Err(TukwilaError::Internal("Project before open".into()));
        }
        match self.input.next_batch()? {
            Some(batch) => {
                // Identity projection: hand the batch through untouched.
                if self.identity {
                    self.harness.produced(batch.len() as u64);
                    return Ok(Some(batch));
                }
                // Project by sharing whole column buffers — O(columns)
                // refcount bumps, zero per-row work.
                let out = TupleBatch::from_columns(batch.columns().project(&self.indices));
                self.harness.produced(out.len() as u64);
                Ok(Some(out))
            }
            None => Ok(None),
        }
    }

    fn close(&mut self) -> Result<()> {
        self.input.close()?;
        if self.opened {
            self.opened = false;
            self.harness.closed();
        }
        Ok(())
    }

    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn name(&self) -> &'static str {
        "project"
    }
}
