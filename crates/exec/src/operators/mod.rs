//! Physical operator implementations.
//!
//! Standard relational operators (§4: "join (including dependent join),
//! selection, projection, union and table scan") plus Tukwila's adaptive
//! operators: the hash join ([`join`]), whose symmetric schedule is the
//! double pipelined join, and the dynamic collector ([`collector`]). Every
//! equi-join is the one hash join; a dependent join is a build-first one
//! over the probed source's wrapper scan, built as such by the plan.

pub mod collector;
#[cfg(test)]
mod dpj_resident_tests;
pub mod exchange;
pub mod filter;
pub mod join;
mod join_side;
#[cfg(test)]
mod op_tests;
pub mod project;
pub mod scan;
pub mod union_op;
pub mod wrapper_scan;

use std::sync::atomic::AtomicBool;
use std::sync::Arc;

use tukwila_common::{Result, Schema, TukwilaError, TupleBatch};
use tukwila_plan::SubjectRef;
use tukwila_source::{FetchVia, SourceBatchEvent, Wrapper, WrapperStream};
use tukwila_trace::CacheOutcome;

use crate::operator::Operator;
use crate::runtime::PlanRuntime;

/// Open a wrapper stream for `subject`, going through the shared
/// source-result cache when one is installed (cache hit → replay; cold key
/// → teeing single-flight leader; in-flight key → coalesced wait keyed by
/// the query's flight id), and register its cancel handle for `subject`.
/// The coalesced wait is interruptible: its cancel flag is registered like
/// any other blocking pull, so rule-driven deactivation and query-level
/// cancellation both end it. Returns `Ok(None)` when the wait was cancelled
/// by a rule (quiet end); a query-level cancellation surfaces as the
/// control's error.
pub(crate) fn open_source_stream(
    rt: &Arc<PlanRuntime>,
    subject: SubjectRef,
    wrapper: &Wrapper,
) -> Result<Option<WrapperStream>> {
    let stream = match rt.env().sources.cache() {
        Some(cache) => {
            let wait_cancel = Arc::new(AtomicBool::new(false));
            rt.register_cancel(subject, wait_cancel.clone());
            let flight = rt.control().flight_id();
            match wrapper.fetch_through_cache(&cache, flight, Some(&wait_cancel)) {
                Some((stream, via)) => {
                    let outcome = match via {
                        FetchVia::Hit => CacheOutcome::Hit,
                        FetchVia::Lead => CacheOutcome::Miss,
                        FetchVia::Coalesced => CacheOutcome::Coalesced,
                        FetchVia::Bypass => CacheOutcome::Bypass,
                    };
                    rt.note_cache_outcome(wrapper.source_name(), outcome);
                    stream
                }
                None => {
                    rt.control().check()?;
                    return Ok(None);
                }
            }
        }
        None => wrapper.fetch(),
    };
    rt.register_cancel(subject, stream.cancel_handle());
    Ok(Some(stream))
}

/// A source's stream as an operator, for a feeder to run: a collector
/// child, or a wrapper scan that reads with a timeout or ahead. A child
/// built without a stream opens one through [`open_source_stream`] on its
/// feeder, so a coalesced wait never blocks the consumer; a handle
/// registered after a deactivation is flipped at once, so a rule firing
/// before the stream exists still cancels it. A cancelled stream ends like
/// a drained one; a failed one fails with `SourceUnavailable`.
pub(crate) struct SourceChild {
    pub(crate) rt: Arc<PlanRuntime>,
    pub(crate) subject: SubjectRef,
    pub(crate) wrapper: Wrapper,
    pub(crate) stream: Option<WrapperStream>,
}

impl Operator for SourceChild {
    fn open(&mut self) -> Result<()> {
        // A cancelled wait — or query — ends the child quietly like any
        // other cancelled child (query-level cancellation is reported by
        // the consumer).
        if self.stream.is_none() {
            let opened = open_source_stream(&self.rt, self.subject, &self.wrapper);
            self.stream = opened.ok().flatten();
        }
        Ok(())
    }

    fn next_batch(&mut self) -> Result<Option<TupleBatch>> {
        let Some(stream) = &mut self.stream else {
            return Ok(None);
        };
        match stream.next_batch_event(self.rt.env().batch_size) {
            SourceBatchEvent::Batch(b) => Ok(Some(b)),
            SourceBatchEvent::End | SourceBatchEvent::Cancelled => Ok(None),
            SourceBatchEvent::Error(reason) => Err(TukwilaError::SourceUnavailable {
                source: self.wrapper.source_name().to_string(),
                reason,
            }),
        }
    }

    fn close(&mut self) -> Result<()> {
        self.stream = None;
        Ok(())
    }

    fn schema(&self) -> &Schema {
        self.wrapper.schema()
    }

    fn name(&self) -> &'static str {
        "source_child"
    }
}

pub use collector::Collector;
pub use exchange::{Exchange, InProcess, PartitionStream, PartitionTransport};
pub use filter::Filter;
pub use join::HashJoin;
pub use project::Project;
pub use scan::TableScan;
pub use union_op::UnionAll;
pub use wrapper_scan::WrapperScan;
