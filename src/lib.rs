//! # Tukwila
//!
//! A comprehensive Rust reproduction of **"An Adaptive Query Execution
//! System for Data Integration"** (Ives, Florescu, Friedman, Levy, Weld —
//! SIGMOD 1999): the *Tukwila* data integration system.
//!
//! Tukwila answers select-project-join queries over a mediated schema whose
//! relations live in autonomous, network-bound, possibly mirrored data
//! sources — and adapts at runtime to missing statistics, bursty transfer
//! rates, memory pressure, and failing sources. Adaptivity comes in two
//! layers:
//!
//! * **Interleaved planning and execution** — partial plans, pipelined
//!   fragments that materialize and report statistics, incremental
//!   re-optimization from saved optimizer state (with usage pointers), and
//!   query-scrambling-style rescheduling, all coordinated by
//!   event-condition-action rules.
//! * **Adaptive operators** — the double pipelined hash join (with the
//!   Incremental Left Flush and Incremental Symmetric Flush overflow
//!   strategies) and the dynamic collector for overlapping/mirrored
//!   sources.
//!
//! ## Quickstart
//!
//! ```
//! use tukwila::prelude::*;
//!
//! // Deploy a tiny TPC-D-style scenario: generated data served through
//! // simulated network sources, catalog with exact statistics.
//! let deployment = TpchDeployment::builder(0.002, 42)
//!     .tables(&[TpchTable::Region, TpchTable::Nation, TpchTable::Supplier])
//!     .build();
//!
//! // Ask for suppliers with their nations and regions.
//! let query = deployment.query_for(
//!     "suppliers",
//!     &[TpchTable::Region, TpchTable::Nation, TpchTable::Supplier],
//! );
//!
//! let system = deployment.system(OptimizerConfig::default());
//! let result = system.execute(&query).unwrap();
//! assert_eq!(
//!     result.cardinality(),
//!     deployment.db.table(TpchTable::Supplier).len()
//! );
//! ```
//!
//! The crates re-exported here form the full system; see `DESIGN.md` for
//! the architecture map and `EXPERIMENTS.md` for the reproduction of every
//! figure and table in the paper's evaluation.

pub use tukwila_analyze as analyze;
pub use tukwila_catalog as catalog;
pub use tukwila_common as common;
pub use tukwila_core as core;
pub use tukwila_exec as exec;
pub use tukwila_net as net;
pub use tukwila_opt as opt;
pub use tukwila_plan as plan;
pub use tukwila_query as query;
pub use tukwila_service as service;
pub use tukwila_source as source;
pub use tukwila_storage as storage;
pub use tukwila_tpchgen as tpchgen;
pub use tukwila_trace as trace;

/// The most common imports for building and running queries.
pub mod prelude {
    pub use tukwila_analyze::Analyzer;
    pub use tukwila_catalog::{AccessCost, Catalog, OverlapInfo, SourceDesc, TableStats};
    pub use tukwila_common::{DataType, Relation, Schema, TukwilaError, Tuple, TupleBatch, Value};
    pub use tukwila_core::{
        ExecutionStats, QueryResult, StatsQuality, TpchDeployment, TukwilaSystem,
    };
    pub use tukwila_exec::{CancelKind, ExecEnv, QueryControl};
    pub use tukwila_net::{Cluster, WorkerServer};
    pub use tukwila_opt::{Optimizer, OptimizerConfig, PipelinePolicy};
    pub use tukwila_plan::{JoinKind, OverflowMethod, Predicate};
    pub use tukwila_query::{ConjunctiveQuery, MediatedSchema, Reformulator};
    pub use tukwila_service::{
        MemoryGovernor, QueryOptions, QueryResponse, QueryService, QueryServiceConfig, QueryTicket,
        ServiceStats,
    };
    pub use tukwila_source::{
        CacheStats, LinkModel, SimulatedSource, SourceRegistry, SourceResultCache,
    };
    pub use tukwila_tpchgen::{TpchDb, TpchGenerator, TpchTable};
    pub use tukwila_trace::{QueryTrace, TraceEvent, TraceLevel, TraceSnapshot};
}
