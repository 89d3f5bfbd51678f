//! Scripted join inputs for tests: an operator that plays back prepared
//! batches in an arrival order the test chooses, so a test of the hash
//! join's overflow counts does not rest on how threads are scheduled.

use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Duration;

use tukwila_common::{ColumnarBatch, Relation, Result, Schema, TupleBatch};
use tukwila_storage::SpillStore;
use tukwila_trace::OpMetrics;

use crate::operator::Operator;

/// When a scripted input hands over its next batch.
pub enum Pace {
    /// Sleep once before the first batch (the other input goes first).
    After(Duration),
    /// Hand over batch `i` once the join has received `at[i]` rows in
    /// total, and end once it has received `at[len]`: with at most one
    /// message in flight the join sees exactly the scripted order.
    Ordered(Arc<OpMetrics>, Vec<u64>),
    /// As `Ordered` until the store records its first flush, then without
    /// waiting: the right input of an Incremental Left Flush, which streams
    /// alone while the paused left waits (an ordered left would stall it).
    OrderedUntilFlush(Arc<OpMetrics>, Vec<u64>, Arc<dyn SpillStore>),
}

/// An operator that plays back prepared batches at its [`Pace`].
pub struct Scripted {
    schema: Schema,
    /// The batches still to hand over, in order.
    pub batches: VecDeque<TupleBatch>,
    pace: Pace,
    served: usize,
}

impl Scripted {
    /// `rel` cut into batches of `size` rows, each built from its rows
    /// with its own string segment (what another join, a builder or the
    /// wire hands over).
    pub fn new(rel: &Relation, size: usize, pace: Pace) -> Scripted {
        let batches = (rel.to_rows().chunks(size))
            .map(|rows| {
                let cols = ColumnarBatch::from_rows(rel.schema(), rows);
                TupleBatch::from_columns(cols.expect("a relation's rows fit its schema"))
            })
            .collect();
        Scripted {
            schema: rel.schema().clone(),
            batches,
            pace,
            served: 0,
        }
    }
}

impl Operator for Scripted {
    fn open(&mut self) -> Result<()> {
        Ok(())
    }

    fn next_batch(&mut self) -> Result<Option<TupleBatch>> {
        match &self.pace {
            Pace::After(delay) if self.served == 0 => std::thread::sleep(*delay),
            Pace::After(_) => {}
            Pace::Ordered(received, at) => {
                while received.snapshot().rows_in < at[self.served] {
                    std::thread::yield_now();
                }
            }
            Pace::OrderedUntilFlush(received, at, store) => {
                while received.snapshot().rows_in < at[self.served]
                    && store.stats().flush_events() == 0
                {
                    std::thread::yield_now();
                }
            }
        }
        self.served += 1;
        Ok(self.batches.pop_front())
    }

    fn close(&mut self) -> Result<()> {
        Ok(())
    }

    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn name(&self) -> &'static str {
        "scripted"
    }
}

/// The `at` vectors of [`Pace::Ordered`] for inputs of batch sizes `left`
/// and `right`: batches alternate, left first, and both inputs end last;
/// or, with `lead`, that many left batches come first, then the whole
/// right input and its end, then the rest of the left.
pub fn ordered_arrival(left: &[u64], right: &[u64], lead: Option<usize>) -> [Vec<u64>; 2] {
    let order: Vec<usize> = match lead {
        Some(n) => std::iter::repeat_n(0, n)
            .chain(std::iter::repeat_n(1, right.len()))
            .chain(std::iter::repeat_n(0, left.len() - n))
            .collect(),
        None => (0..left.len().max(right.len()))
            .flat_map(|i| {
                [
                    (i < left.len()).then_some(0),
                    (i < right.len()).then_some(1),
                ]
            })
            .flatten()
            .collect(),
    };
    let (mut at, mut next, mut sent) = ([Vec::new(), Vec::new()], [0, 0], 0u64);
    for side in order {
        at[side].push(sent);
        sent += [left, right][side][next[side]];
        next[side] += 1;
        if lead.is_some() && side == 1 && next[1] == right.len() {
            at[1].push(sent);
        }
    }
    at[0].push(sent);
    if lead.is_none() {
        at[1].push(sent);
    }
    at
}
