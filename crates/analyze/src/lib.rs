//! # tukwila-analyze
//!
//! Multi-pass static analyzer over [`QueryPlan`]s and their ECA rule sets.
//!
//! Tukwila's adaptivity means one logical query passes through many plan
//! shapes — optimizer lowerings, rule-driven re-plans, hand-written
//! experiment plans — and the invariants those shapes must satisfy (schemas
//! agree bottom-up, exchange wraps only partitionable joins, memory budgets
//! are parented under the governor, rules resolve to live plan elements)
//! were historically enforced only dynamically, by whichever query tripped
//! them at runtime. This crate checks them *statically*, before execution,
//! reporting **all** findings through the lint-style diagnostics engine in
//! [`tukwila_plan::diag`] instead of bailing on the first.
//!
//! Five passes run in order (the first two live in `tukwila-plan` because
//! `validate_plan` needs them; this crate adds the rest and composes all
//! five):
//!
//! 1. **structure** ([`tukwila_plan::analyze_structure`]) — ids,
//!    dependency DAG, orphan fragments (`TA00x`);
//! 2. **rules** ([`tukwila_plan::analyze_rules`]) — subject resolution,
//!    conflicts, shadowing, dead timeout rules (`TA01x`);
//! 3. **schema** ([`schema`]) — bottom-up schema/type inference with
//!    column resolution and predicate type checking (`TA02x`);
//! 4. **exchange** ([`exchange`]) — parallelism discipline (`TA03x`);
//! 5. **memory** ([`memory`]) — memory-reservation discipline (`TA04x`).
//!
//! The analyzer is consulted in three places: the optimizer runs it on
//! every lowered plan (Error findings abort before execution), the service
//! tier surfaces per-query diagnostic counts in its statistics, and the
//! `plan-lint` binary checks plan-text files in CI.
//!
//! ```
//! use tukwila_analyze::Analyzer;
//! use tukwila_plan::parse_plan_unchecked;
//!
//! let plan = parse_plan_unchecked(
//!     "(fragment f (exchange 2 (wrapper A))) (output f)",
//! ).unwrap();
//! let report = Analyzer::new().analyze(&plan);
//! assert!(report.has("TA030")); // only a join partitions
//! assert!(report.is_executable()); // …but that is a Warn, not an Error
//! ```

pub mod exchange;
pub mod memory;
pub mod schema;

use tukwila_catalog::Catalog;
use tukwila_plan::diag::Report;
use tukwila_plan::QueryPlan;

pub use tukwila_plan::diag::{codes, Diagnostic, Severity, Span};
pub use typed::{Cols, Resolution, TCol};

/// The composed multi-pass analyzer.
///
/// Without a catalog, source schemas are opaque: column references through
/// wrappers resolve to untyped, nullable columns and type checks are
/// skipped (resolution checks still run wherever a `project` fixes the
/// column set). Without a `max_parallelism`, the partition-count bound
/// (TA031) is skipped.
#[derive(Debug, Clone, Copy, Default)]
pub struct Analyzer<'a> {
    catalog: Option<&'a Catalog>,
    max_parallelism: Option<usize>,
}

impl<'a> Analyzer<'a> {
    /// Oracle-less analyzer (used by `plan-lint` on bare plan files).
    pub fn new() -> Self {
        Analyzer::default()
    }

    /// Resolve wrapper-scan schemas against a source catalog, enabling the
    /// full type-checking half of the schema pass.
    pub fn with_catalog(mut self, catalog: &'a Catalog) -> Self {
        self.catalog = Some(catalog);
        self
    }

    /// Bound exchange partition counts (TA031) by the optimizer's
    /// configured maximum parallelism.
    pub fn with_max_parallelism(mut self, n: usize) -> Self {
        self.max_parallelism = Some(n);
        self
    }

    /// Run every pass and return the accumulated report.
    pub fn analyze(&self, plan: &QueryPlan) -> Report {
        let mut report = Report::new();
        report.extend(tukwila_plan::analyze_structure(plan));
        report.extend(tukwila_plan::analyze_rules(plan));
        let (diags, schemas) = schema::check(plan, self.catalog);
        report.extend(diags);
        report.extend(exchange::check(plan, self.max_parallelism, &schemas));
        report.extend(memory::check(plan));
        report
    }
}

/// One-shot oracle-less analysis.
pub fn analyze_plan(plan: &QueryPlan) -> Report {
    Analyzer::new().analyze(plan)
}

mod typed {
    use std::rc::Rc;
    use tukwila_common::DataType;

    /// One inferred column: a [`tukwila_common::Field`] whose type may be
    /// unknown (no oracle behind it) plus a nullability bit the engine's
    /// schemas do not carry — catalog-backed sources never emit NULL, a
    /// comparison filter proves its column non-NULL downstream (3VL drops
    /// unknown rows), everything else is assumed nullable.
    ///
    /// Name parts are `Rc<str>`: inferred schemas are cloned at every
    /// operator (the per-op [`SchemaMap`](crate::schema::SchemaMap) entry,
    /// join concatenation), and the schema pass dominates analyzer time
    /// when those clones re-allocate strings.
    #[derive(Debug, Clone, PartialEq)]
    pub struct TCol {
        /// Originating relation; empty for unqualified columns.
        pub qualifier: Rc<str>,
        /// Column name.
        pub name: Rc<str>,
        /// Inferred type, when an oracle or a literal pinned one down.
        pub dtype: Option<DataType>,
        /// Whether the column may hold NULL.
        pub nullable: bool,
    }

    impl TCol {
        /// Untyped, nullable column from a `name` / `qualifier.name`
        /// reference pattern.
        pub fn from_pattern(pattern: &str) -> TCol {
            let (qualifier, name) = match pattern.split_once('.') {
                Some((q, n)) => (Rc::from(q), Rc::from(n)),
                None => (Rc::from(""), Rc::from(pattern)),
            };
            TCol {
                qualifier,
                name,
                dtype: None,
                nullable: true,
            }
        }

        /// Same resolution contract as `Field::matches`.
        pub fn matches(&self, pattern: &str) -> bool {
            match pattern.split_once('.') {
                Some((q, n)) => &*self.qualifier == q && &*self.name == n,
                None => &*self.name == pattern,
            }
        }

        /// `qualifier.name`, or just `name` when unqualified.
        pub fn qualified_name(&self) -> String {
            if self.qualifier.is_empty() {
                self.name.to_string()
            } else {
                format!("{}.{}", self.qualifier, self.name)
            }
        }
    }

    /// An operator's inferred output schema. `Opaque` means the analyzer
    /// cannot know the column set (wrapper without a catalog, scan of an
    /// unknown materialization) and resolution checks are skipped below it
    /// until a `project` re-fixes the columns.
    #[derive(Debug, Clone, PartialEq)]
    pub enum Cols {
        /// Known column list (types may still be individually unknown).
        Known(Vec<TCol>),
        /// Unknown column set.
        Opaque,
    }

    /// How a column reference resolves against an inferred schema.
    #[derive(Debug, Clone, Copy, PartialEq)]
    pub enum Resolution {
        /// Exactly one match, at this index.
        Found(usize),
        /// More than one match.
        Ambiguous,
        /// No match.
        Unknown,
        /// The schema is opaque — no verdict.
        Opaque,
    }

    impl Cols {
        /// Resolve `pattern` with the engine's `Schema::index_of` contract.
        pub fn resolve(&self, pattern: &str) -> Resolution {
            let cols = match self {
                Cols::Known(cols) => cols,
                Cols::Opaque => return Resolution::Opaque,
            };
            let mut found = None;
            for (i, c) in cols.iter().enumerate() {
                if c.matches(pattern) {
                    if found.is_some() {
                        return Resolution::Ambiguous;
                    }
                    found = Some(i);
                }
            }
            match found {
                Some(i) => Resolution::Found(i),
                None => Resolution::Unknown,
            }
        }

        /// The available column names, for diagnostics.
        pub fn describe(&self) -> String {
            match self {
                Cols::Known(cols) => cols
                    .iter()
                    .map(TCol::qualified_name)
                    .collect::<Vec<_>>()
                    .join(", "),
                Cols::Opaque => "<opaque>".to_string(),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tukwila_catalog::SourceDesc;
    use tukwila_common::{DataType, Schema};
    use tukwila_plan::parse_plan_unchecked;

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        c.add_source(SourceDesc::new(
            "orders",
            "orders",
            Schema::of(
                "orders",
                &[("okey", DataType::Int), ("cust", DataType::Str)],
            ),
        ));
        c.add_source(SourceDesc::new(
            "customer",
            "customer",
            Schema::of(
                "customer",
                &[("ckey", DataType::Int), ("name", DataType::Str)],
            ),
        ));
        c
    }

    #[test]
    fn clean_plan_is_clean() {
        let plan = parse_plan_unchecked(
            r#"
            (fragment f (join dpj okey = ckey :mem 65536
                (wrapper orders)
                (wrapper customer)))
            (output f)
            "#,
        )
        .unwrap();
        let report = Analyzer::new().with_catalog(&catalog()).analyze(&plan);
        assert_eq!(report.error_count(), 0, "{}", report.render(&plan));
    }

    #[test]
    fn every_pass_contributes() {
        // One plan tripping at least one code from each pass family.
        let plan = parse_plan_unchecked(
            r#"
            (fragment f (exchange 4 (exchange 2 (join hybrid ghost = ckey
                (wrapper orders)
                (wrapper customer)))))
            (fragment dead (wrapper orders))
            (rule "r" :owner op99 :when timeout op0 :do replan)
            (output f)
            "#,
        )
        .unwrap();
        let report = Analyzer::new().with_catalog(&catalog()).analyze(&plan);
        assert!(report.has("TA007"), "structure: {}", report.render(&plan));
        assert!(report.has("TA010"), "rules: {}", report.render(&plan));
        assert!(report.has("TA020"), "schema: {}", report.render(&plan));
        assert!(report.has("TA032"), "exchange: {}", report.render(&plan));
        assert!(report.has("TA040"), "memory: {}", report.render(&plan));
        assert!(!report.is_executable());
    }
}
