//! # tukwila-plan
//!
//! Query execution plans as the Tukwila optimizer produces and the execution
//! engine consumes (§3.1):
//!
//! * a plan is a **partially-ordered set of [`Fragment`]s** plus a set of
//!   global [`Rule`]s;
//! * a fragment is a **fully pipelined tree of physical operators** plus
//!   local rules; at its end, results materialize and the rest of the plan
//!   can be re-optimized or rescheduled;
//! * every operator node records the five annotations of §3.1.1: algebraic
//!   operator, physical implementation, children, memory allocation, and
//!   estimated result cardinality;
//! * rules are the quintuple of §3.1.2 — *(name, event, condition, actions,
//!   owner)* — with the paper's semantics: triggering requires an active
//!   rule with an active owner; firing once deactivates the rule; all of a
//!   rule's actions execute before the next event is processed.
//!
//! Plans have one text form, the human-writable plan language of §5:
//! [`parse::parse_plan`] reads it and [`text::print_plan`] writes it, from
//! the same keyword tables, so a printed plan reparses to an equal plan.
//!
//! The crate also provides the static rule-conflict check the paper requires
//! ("no two rules may ever be active such that one rule negates the effect
//! of the other and both can be fired simultaneously") in
//! [`validate::validate_plan`].

pub mod builder;
pub mod diag;
pub mod ids;
pub mod ops;
pub mod parse;
pub mod plan;
pub mod predicate;
pub mod rules;
pub mod text;
pub mod validate;

pub use builder::PlanBuilder;
pub use diag::{Diagnostic, Report, Severity, Span};
pub use ids::{FragmentId, OpId};
pub use ops::{CollectorChildSpec, JoinKind, OperatorNode, OperatorSpec, OverflowMethod};
pub use parse::{parse_plan, parse_plan_unchecked};
pub use plan::{Fragment, QueryPlan};
pub use predicate::{CmpOp, Predicate};
pub use rules::{
    Action, Condition, Event, EventKind, EventPattern, OpState, Quantity, QuantityProvider, Rule,
    SubjectRef,
};
pub use text::print_plan;
pub use validate::{analyze_rules, analyze_structure, validate_plan};
