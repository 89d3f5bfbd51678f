//! Tests for the standard relational operators (selection, projection,
//! union, the Grace and dependent joins) — each against gold semantics and
//! the lifecycle/statistics contract.

use crate::build::build_operator;
use crate::operator::drain;
use crate::runtime::{ExecEnv, PlanRuntime};
use crate::test_support::keyed_relation;

use std::sync::Arc;

use tukwila_common::{tuple, DataType, Relation, Schema, Tuple, Value};
use tukwila_plan::{CmpOp, JoinKind, OperatorNode, PlanBuilder, Predicate, QueryPlan, SubjectRef};
use tukwila_source::{LinkModel, SimulatedSource, SourceRegistry};

/// Build a one-fragment plan from a closure, returning plan + runtime.
fn plan_runtime(
    registry: SourceRegistry,
    build: impl FnOnce(&mut PlanBuilder) -> OperatorNode,
) -> (QueryPlan, Arc<PlanRuntime>) {
    let mut b = PlanBuilder::new();
    let root = build(&mut b);
    let f = b.fragment(root, "out");
    let plan = b.build(f);
    let rt = PlanRuntime::for_plan(&plan, ExecEnv::new(registry));
    (plan, rt)
}

fn run_root(plan: &QueryPlan, rt: &Arc<PlanRuntime>) -> Vec<Tuple> {
    let mut op = build_operator(&plan.fragments[0].root, rt).unwrap();
    drain(op.as_mut()).unwrap()
}

fn registry_with(entries: &[(&str, Relation)]) -> SourceRegistry {
    let reg = SourceRegistry::new();
    for (name, rel) in entries {
        reg.register(SimulatedSource::new(
            *name,
            rel.clone(),
            LinkModel::instant(),
        ));
    }
    reg
}

#[test]
fn filter_keeps_matching_rows_only() {
    let reg = registry_with(&[("S", keyed_relation("s", 100, 10))]);
    let (plan, rt) = plan_runtime(reg, |b| {
        let s = b.wrapper_scan("S");
        b.select(
            s,
            Predicate::ColLit {
                col: "k".into(),
                op: CmpOp::Lt,
                value: Value::Int(3),
            },
        )
    });
    let out = run_root(&plan, &rt);
    assert_eq!(out.len(), 30); // keys 0,1,2 × 10 occurrences
    assert!(out.iter().all(|t| t.value(0).as_int().unwrap() < 3));
}

#[test]
fn filter_with_always_false_predicate_is_empty() {
    let reg = registry_with(&[("S", keyed_relation("s", 50, 5))]);
    let (plan, rt) = plan_runtime(reg, |b| {
        let s = b.wrapper_scan("S");
        b.select(s, Predicate::eq_lit("k", 999i64))
    });
    assert!(run_root(&plan, &rt).is_empty());
}

#[test]
fn project_reorders_and_narrows() {
    let reg = registry_with(&[("S", keyed_relation("s", 10, 10))]);
    let (plan, rt) = plan_runtime(reg, |b| {
        let s = b.wrapper_scan("S");
        b.project(s, &["v", "k"])
    });
    let out = run_root(&plan, &rt);
    assert_eq!(out.len(), 10);
    assert_eq!(out[0].arity(), 2);
    // v column (original index 1) now first
    for t in &out {
        assert_eq!(t.value(1), &Value::Int(t.value(0).as_int().unwrap() % 10));
    }
}

#[test]
fn project_unknown_column_fails_open() {
    let reg = registry_with(&[("S", keyed_relation("s", 5, 5))]);
    let (plan, rt) = plan_runtime(reg, |b| {
        let s = b.wrapper_scan("S");
        b.project(s, &["nope"])
    });
    let mut op = build_operator(&plan.fragments[0].root, &rt).unwrap();
    assert_eq!(op.open().unwrap_err().kind(), "schema");
}

#[test]
fn union_concatenates_in_order() {
    let reg = registry_with(&[
        ("A", keyed_relation("a", 4, 4)),
        ("B", keyed_relation("b", 3, 3)),
    ]);
    let (plan, rt) = plan_runtime(reg, |b| {
        let a = b.wrapper_scan("A");
        let bb = b.wrapper_scan("B");
        b.union(vec![a, bb])
    });
    let out = run_root(&plan, &rt);
    assert_eq!(out.len(), 7);
}

#[test]
fn union_arity_mismatch_rejected() {
    let wide = Relation::new(Schema::of("w", &[("a", DataType::Int)]), vec![tuple![1]]).unwrap();
    let reg = registry_with(&[("A", keyed_relation("a", 2, 2)), ("W", wide)]);
    let (plan, rt) = plan_runtime(reg, |b| {
        let a = b.wrapper_scan("A");
        let w = b.wrapper_scan("W");
        b.union(vec![a, w])
    });
    let mut op = build_operator(&plan.fragments[0].root, &rt).unwrap();
    assert_eq!(op.open().unwrap_err().kind(), "schema");
}

#[test]
fn grace_join_via_builder_matches_gold() {
    let l = keyed_relation("l", 80, 8);
    let r = keyed_relation("r", 40, 8);
    let gold = l.nested_join(&r, 0, 0);
    let reg = registry_with(&[("L", l), ("R", r)]);
    let (plan, rt) = plan_runtime(reg, |b| {
        let ls = b.wrapper_scan("L");
        let rs = b.wrapper_scan("R");
        b.join(JoinKind::GraceHash, ls, rs, "k", "k")
    });
    let out = run_root(&plan, &rt);
    let got = Relation::new(gold.schema().clone(), out).unwrap();
    assert!(got.bag_eq(&gold));
    // grace partitions the build side to disk up front
    assert!(rt.env().spill.stats().tuples_written() > 0);
}

#[test]
fn dependent_join_probes_bound_source() {
    let left = keyed_relation("l", 20, 10);
    let probe = keyed_relation("p", 10, 10); // one row per key 0..10
    let gold = left.nested_join(&probe, 0, 0);
    let reg = registry_with(&[("L", left), ("P", probe)]);
    let (plan, rt) = plan_runtime(reg, |b| {
        let ls = b.wrapper_scan("L");
        b.dependent_join(ls, "P", "k", "k")
    });
    let out = run_root(&plan, &rt);
    assert_eq!(out.len(), gold.len());
    let got = Relation::new(gold.schema().clone(), out).unwrap();
    assert!(got.bag_eq(&gold));
}

#[test]
fn dependent_join_against_dead_source_fails() {
    let reg = registry_with(&[("L", keyed_relation("l", 5, 5))]);
    reg.register(SimulatedSource::new(
        "DEAD",
        keyed_relation("d", 5, 5),
        LinkModel::down(),
    ));
    let (plan, rt) = plan_runtime(reg, |b| {
        let ls = b.wrapper_scan("L");
        b.dependent_join(ls, "DEAD", "k", "k")
    });
    let mut op = build_operator(&plan.fragments[0].root, &rt).unwrap();
    assert_eq!(op.open().unwrap_err().kind(), "source_unavailable");
}

#[test]
fn operator_stats_track_produced_counts() {
    let reg = registry_with(&[("S", keyed_relation("s", 25, 5))]);
    let (plan, rt) = plan_runtime(reg, |b| {
        let s = b.wrapper_scan("S");
        b.select(s, Predicate::eq_lit("k", 2i64))
    });
    let out = run_root(&plan, &rt);
    assert_eq!(out.len(), 5);
    // scan produced 25, filter produced 5
    assert_eq!(rt.produced(SubjectRef::Op(tukwila_plan::OpId(0))), 25);
    assert_eq!(rt.produced(SubjectRef::Op(tukwila_plan::OpId(1))), 5);
}

#[test]
fn deep_composed_pipeline() {
    // filter(project(join(scan, scan))) — exercise operator composition
    let l = keyed_relation("l", 100, 10);
    let r = keyed_relation("r", 50, 10);
    let reg = registry_with(&[("L", l), ("R", r)]);
    let (plan, rt) = plan_runtime(reg, |b| {
        let ls = b.wrapper_scan("L");
        let rs = b.wrapper_scan("R");
        let j = b.join(JoinKind::DoublePipelined, ls, rs, "k", "k");
        let p = b.project(j, &["l.k", "l.v", "r.v"]);
        b.select(
            p,
            Predicate::ColLit {
                col: "l.k".into(),
                op: CmpOp::Ge,
                value: Value::Int(5),
            },
        )
    });
    let out = run_root(&plan, &rt);
    assert!(!out.is_empty());
    assert!(out.iter().all(|t| t.arity() == 3));
    assert!(out.iter().all(|t| t.value(0).as_int().unwrap() >= 5));
}
