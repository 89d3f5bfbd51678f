//! # tukwila-exec
//!
//! The Tukwila query execution engine (§3.2–§4): a top-down, batched
//! iterator-model engine whose adaptive behaviour is driven by
//! event-condition-action rules.
//!
//! Layers, bottom-up:
//!
//! * [`operator::Operator`] — the open/next_batch/close interface every
//!   physical operator implements (§3.2's top-down iterator model, moving
//!   [`tukwila_common::TupleBatch`]es instead of single tuples so hot
//!   paths amortize dispatch and channel overhead; see DESIGN.md §2).
//! * [`runtime`] — the per-plan runtime shared by all operators: statistics
//!   registry (the [`tukwila_plan::Quantity`] provider), activation /
//!   overflow-method control cells, the event bus with the rule engine, and
//!   engine-level signals (replan / reschedule / abort).
//! * [`feeder`] — the one loop that runs an operator's child on a thread of
//!   its own into a bounded queue, used by every operator that has one.
//! * [`operators`] — scans, wrapper scans, selection, projection, the one
//!   hash join (the **double pipelined join** with its overflow strategies,
//!   and the build-first hybrid/Grace schedule that also runs the
//!   dependent join), union, the **dynamic collector**, and the
//!   **partitioned exchange** that runs N parallel instances of the join
//!   over key-partitioned inputs (DESIGN.md §8).
//! * [`fragment`] — executes one pipelined fragment to completion into a
//!   sink (the local store at the coordinator, the wire at a worker) and
//!   reports statistics; interleaved planning/execution (crate
//!   `tukwila-core`) loops over this.
//! * [`testing`] — scripted join inputs with a chosen arrival order, for
//!   tests of the overflow counts here and in the root crate.

pub mod build;
pub mod control;
pub mod feeder;
pub mod fragment;
pub mod operator;
pub mod operators;
pub mod runtime;
pub mod shard;
pub mod testing;

#[cfg(test)]
pub(crate) mod test_support;

pub use build::build_operator;
pub use control::{CancelKind, QueryControl};
pub use feeder::Feeders;
pub use fragment::{
    catch_panic, run_fragment, FragmentOutcome, FragmentReport, FragmentSink, Materialize,
};
pub use operator::{drain, drain_batches, Operator, OperatorBox};
pub use operators::{PartitionStream, PartitionTransport};
pub use runtime::{
    CacheCounts, EngineSignal, ExchangeSpill, ExecEnv, OpHarness, ParallelStats, PlanRuntime,
};
pub use shard::{ShardFilter, ShardLease, ShardSpec, ShardStats};
