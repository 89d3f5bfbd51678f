//! # tukwila-bench
//!
//! The scenarios that regenerate **every table and figure** in the Tukwila
//! paper's evaluation (§6). Each module of [`scenarios`] has one runner
//! (`run`) and one function that turns its measurements into the paper's
//! claims (`claims`). Two callers share them:
//!
//! * `tests/paper_claims.rs` at the workspace root asserts every claim, so
//!   plain `cargo test` fails when a claim does;
//! * the `paper <scenario> [scale]` bin prints the rows/series the paper
//!   reports plus each claim's margin, and exits non-zero on a failed one.
//!
//! | experiment | paper artifact | scenario |
//! |------------|----------------|----------|
//! | F3A  | Figure 3a — DPJ vs hybrid, 3-way LAN join      | `fig3a` |
//! | F3B  | Figure 3b — DPJ vs hybrid over a WAN           | `fig3b` |
//! | T62  | §6.2 — all 2/3-way joins, DPJ vs hybrid        | `table62` |
//! | F4   | Figure 4 — overflow strategies under memory limits | `fig4` |
//! | A423 | §4.2.3 — analytical I/O cost comparison        | `overflow_io` |
//! | F5   | Figure 5 — interleaved planning strategies     | `fig5` |
//! | E65  | §6.5 — optimizer state saving / usage pointers | `exp65` |

pub mod dist;
pub mod runner;
pub mod scenarios;

pub use runner::{print_series_csv, run_single_fragment, Claim, JoinRunResult};
