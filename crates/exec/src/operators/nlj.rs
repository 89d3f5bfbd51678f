//! Nested loops join (baseline).
//!
//! §4.2: "for a nested loops join, each tuple from the outer relation is
//! probed against the entire inner relation; we must wait for the entire
//! inner table to be transmitted initially before pipelining begins." That
//! blocking behaviour is exactly what we measure against.

use tukwila_common::{BatchAssembler, Result, Schema, TukwilaError, Tuple, TupleBatch};

use crate::operator::{Operator, OperatorBox, TupleCursor};
use crate::runtime::OpHarness;

/// Equi-join by scanning the fully buffered inner relation per outer tuple.
pub struct NestedLoopsJoin {
    left: OperatorBox,
    right: OperatorBox,
    left_key: String,
    right_key: String,
    harness: OpHarness,
    // after open:
    schema: Schema,
    left_key_idx: usize,
    right_key_idx: usize,
    inner: Vec<Tuple>,
    left_cursor: TupleCursor,
    current_left: Option<Tuple>,
    inner_pos: usize,
    opened: bool,
}

impl NestedLoopsJoin {
    /// Build a nested loops join (right child = inner).
    pub fn new(
        left: OperatorBox,
        right: OperatorBox,
        left_key: String,
        right_key: String,
        harness: OpHarness,
    ) -> Self {
        NestedLoopsJoin {
            left,
            right,
            left_key,
            right_key,
            harness,
            schema: Schema::empty(),
            left_key_idx: 0,
            right_key_idx: 0,
            inner: Vec::new(),
            left_cursor: TupleCursor::new(),
            current_left: None,
            inner_pos: 0,
            opened: false,
        }
    }

    /// Advance the join by one result. With `may_pull == false`, refuses to
    /// pull a fresh outer batch (which can block on a slow source) and
    /// reports `WouldBlock` instead; scanning the in-memory inner and
    /// cursor-buffered outer tuples is always free.
    fn step(&mut self, may_pull: bool) -> Result<Step> {
        loop {
            let Some(l) = &self.current_left else {
                if !may_pull && !self.left_cursor.has_buffered() {
                    return Ok(Step::WouldBlock);
                }
                self.current_left = self.left_cursor.next(self.left.as_mut())?;
                self.inner_pos = 0;
                if self.current_left.is_none() {
                    return Ok(Step::End);
                }
                continue;
            };
            let lk = l.value(self.left_key_idx);
            while self.inner_pos < self.inner.len() {
                let r = &self.inner[self.inner_pos];
                self.inner_pos += 1;
                if lk.sql_eq(r.value(self.right_key_idx)) == Some(true) {
                    // Report the match by inner index; the caller assembles
                    // `current_left ++ inner[idx]` into the output block.
                    return Ok(Step::Match(self.inner_pos - 1));
                }
            }
            self.current_left = None;
        }
    }
}

enum Step {
    Match(usize),
    WouldBlock,
    End,
}

impl Operator for NestedLoopsJoin {
    fn open(&mut self) -> Result<()> {
        self.left.open()?;
        self.right.open()?;
        self.left_key_idx = self.left.schema().index_of(&self.left_key)?;
        self.right_key_idx = self.right.schema().index_of(&self.right_key)?;
        self.schema = self.left.schema().concat(self.right.schema());
        // Block: buffer the entire inner relation, batch by batch.
        self.inner.clear();
        while let Some(batch) = self.right.next_batch()? {
            if let Some(r) = self.harness.reservation() {
                r.charge(batch.mem_size());
            }
            self.inner.extend(batch);
        }
        self.opened = true;
        self.harness.opened();
        Ok(())
    }

    fn next_batch(&mut self) -> Result<Option<TupleBatch>> {
        if !self.opened {
            return Err(TukwilaError::Internal("NLJ before open".into()));
        }
        // Assemble output rows into one shared value block per batch — no
        // per-row `Vec`/`Arc` allocation in the emit loop.
        let mut asm = BatchAssembler::new(self.harness.batch_size());
        while !asm.is_full() {
            // Once output exists, a batch is never held back to fill: only
            // free work (inner scan, cursor-buffered outer tuples) may
            // extend it; a blocking pull ends the batch instead.
            match self.step(asm.is_empty())? {
                Step::Match(idx) => {
                    let Some(l) = &self.current_left else {
                        return Err(TukwilaError::Internal(
                            "NLJ match without an outer row".into(),
                        ));
                    };
                    asm.push_concat(l, &self.inner[idx]);
                }
                Step::WouldBlock | Step::End => break,
            }
        }
        match asm.seal() {
            None => Ok(None),
            Some(out) => {
                self.harness.produced(out.len() as u64);
                Ok(Some(out))
            }
        }
    }

    fn close(&mut self) -> Result<()> {
        self.left.close()?;
        self.right.close()?;
        if self.opened {
            if let Some(r) = self.harness.reservation() {
                r.release(self.inner.iter().map(Tuple::mem_size).sum());
            }
            self.inner.clear();
            self.opened = false;
            self.harness.closed();
        }
        Ok(())
    }

    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn name(&self) -> &'static str {
        "nested_loops_join"
    }
}
