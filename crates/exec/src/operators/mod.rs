//! Physical operator implementations.
//!
//! Standard relational operators (§4: "join (including dependent join),
//! selection, projection, union and table scan") plus Tukwila's adaptive
//! operators: the hash join ([`join`]), whose symmetric schedule is the
//! double pipelined join, and the dynamic collector ([`collector`]).

#[cfg(test)]
mod batch_tests;
pub mod collector;
#[cfg(test)]
mod columnar_equiv_tests;
pub mod dependent_join;
#[cfg(test)]
mod dpj_resident_tests;
pub mod exchange;
pub mod filter;
pub mod join;
mod join_side;
pub mod nlj;
#[cfg(test)]
mod op_tests;
#[cfg(test)]
mod prehash_tests;
pub mod project;
pub mod scan;
pub mod smj;
pub mod union_op;
pub mod wrapper_scan;

use std::sync::atomic::AtomicBool;
use std::sync::Arc;

use tukwila_common::Result;
use tukwila_plan::SubjectRef;
use tukwila_source::{FetchVia, Wrapper, WrapperStream};
use tukwila_trace::CacheOutcome;

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
    base: impl FnOnce(&Wrapper) -> WrapperStream,
) -> Result<Option<WrapperStream>> {
    let stream = match rt.env().sources.cache() {
        Some(cache) => {
            let wait_cancel = Arc::new(AtomicBool::new(false));
            rt.register_cancel(subject, wait_cancel.clone());
            let flight = rt.control().flight_id();
            match wrapper.fetch_through_cache_observed(&cache, flight, Some(&wait_cancel), base) {
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
        None => base(wrapper),
    };
    rt.register_cancel(subject, stream.cancel_handle());
    Ok(Some(stream))
}

pub use collector::Collector;
pub use dependent_join::DependentJoin;
pub use exchange::{Exchange, InProcess, PartitionStream, PartitionTransport};
pub use filter::Filter;
pub use join::HashJoin;
pub use nlj::NestedLoopsJoin;
pub use project::Project;
pub use scan::TableScan;
pub use smj::SortMergeJoin;
pub use union_op::UnionAll;
pub use wrapper_scan::WrapperScan;
