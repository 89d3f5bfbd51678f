//! # tukwila-core
//!
//! The Tukwila data integration system (Ives, Florescu, Friedman, Levy,
//! Weld — SIGMOD 1999): a query processor with **adaptivity designed into
//! its core**.
//!
//! This crate ties the subsystems together into the architecture of the
//! paper's Figure 2:
//!
//! ```text
//!  query ──▶ reformulator ──▶ optimizer ⇄ execution engine ──▶ answer
//!                 ▲               ▲  ▲          │
//!            mediated schema   catalog └─ statistics, events
//!                                           (replan / reschedule)
//! ```
//!
//! [`TukwilaSystem::execute`] runs the **interleaved planning and
//! execution** loop (§3): plans may be partial; fragments execute on the
//! [`scheduler`]'s dependency DAG (sequentially under a thread budget of
//! one — the paper's model — or concurrently over independent fragments
//! otherwise); rules raised during execution can reschedule blocked
//! fragments (query scrambling — under the DAG, "deprioritize while
//! siblings make progress") or terminate the plan and re-invoke the
//! optimizer with corrected statistics, which replans incrementally from
//! its saved search space.
//!
//! The [`tpch`] module provides a deployable TPC-D-style scenario — data
//! generation, simulated network sources, catalog with (optionally
//! deliberately wrong) statistics — used by the examples, the integration
//! tests, and the benchmark harness that regenerates the paper's figures.

pub mod scheduler;
pub mod stats;
pub mod system;
pub mod tpch;

pub use scheduler::SchedOutcome;
pub use stats::{ExecutionStats, QueryResult};
pub use system::{execute_plan, PreparedQuery, TukwilaSystem};
pub use tpch::{StatsQuality, TpchDeployment, TpchDeploymentBuilder};
