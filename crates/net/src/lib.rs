//! `tukwila-net`: distributed exchange — shared-nothing coordinator/worker
//! shard execution over a columnar wire protocol (DESIGN.md §12).
//!
//! The optimizer-lowered `Exchange` over a join
//! (`tukwila_exec::operators::Exchange`) runs its partition pipelines
//! wherever the engine's [`tukwila_exec::PartitionTransport`] puts them:
//! by default threads of the same process. With a [`Cluster`] installed,
//! the same operator runs them in worker *processes* over TCP and merges
//! their union. Each worker runs a [`WorkerServer`], rebuilds the join's
//! inputs from its own sources, keeps its shard with the exact hash
//! routing the in-process transport uses, and streams result batches back
//! in the spill codec's columnar frame format under credit-based
//! backpressure.
//!
//! `std::net` only — no external networking dependencies.

pub mod cluster;
pub mod protocol;
pub mod worker;

pub use cluster::Cluster;
pub use protocol::{
    decode_msg, error_from_wire, Dispatch, FrameReader, FrameWriter, Msg, CREDIT_WINDOW,
    MAX_FRAME_LEN, NET_MAGIC, NET_VERSION,
};
pub use worker::{WorkerHandle, WorkerServer};
