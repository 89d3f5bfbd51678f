//! # tukwila-opt
//!
//! The Tukwila query optimizer (§3): a System-R style dynamic-programming
//! join enumerator extended with the paper's non-traditional features:
//!
//! * **Partial plans** — when essential statistics are missing, plan only
//!   the first steps and defer the rest until sources have been contacted
//!   (§3: "generate a partial plan with only the first steps specified").
//! * **Rule generation** — every emitted plan carries the
//!   event-condition-action rules that define its adaptive behaviour:
//!   re-optimization at materialization points (`card ≥ 2 × est_card ⇒
//!   replan`), rescheduling on source timeouts, overflow methods for double
//!   pipelined joins, and collector policies derived from catalog overlap
//!   information.
//! * **Saved optimizer state** (§6.5) — the dynamic program (the [`memo`])
//!   survives across re-optimizations, augmented with **usage pointers**
//!   from each subquery to the larger subqueries that use it, so corrected
//!   cardinalities invalidate only the affected part of the search space.
//!   [`Optimizer::replan`] follows the usage pointers; the [`Memo`] also
//!   keeps the other two strategies the paper compares (replanning from
//!   scratch, and revisiting every entry without pointers) for exp65.

pub mod config;
pub mod cost;
pub mod lower;
pub mod memo;
pub mod optimizer;

pub use config::{OptimizerConfig, PipelinePolicy};
pub use cost::{CostModel, Estimate};
pub use memo::{JoinTree, Memo, RelMask};
pub use optimizer::{Observation, Optimizer, PlannedQuery};
