//! Behaviour of the standard operators beyond their answers: typed errors
//! at open, spill and statistics accounting, batch shapes and latency.
//! Every operator's answer is checked against the one reference by the
//! generated plans of `tests/oracle.rs`.

use crate::build::build_operator;
use crate::operator::{drain, drain_batches, Operator};
use crate::runtime::{ExecEnv, PlanRuntime};
use crate::test_support::{keyed_relation, JoinFixture};

use std::sync::Arc;
use std::time::{Duration, Instant};

use tukwila_common::{tuple, DataType, Relation, Schema, Tuple};
use tukwila_plan::{
    JoinKind, OperatorNode, OverflowMethod, PlanBuilder, Predicate, QueryPlan, SubjectRef,
};
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

/// Batch sizing is respected on a plain pipeline: every non-final batch of
/// a scan carries exactly the configured number of tuples.
#[test]
fn batch_size_shapes_scan_output() {
    let reg = registry_with(&[("L", keyed_relation("l", 100, 10))]);
    let (plan, _) = plan_runtime(reg.clone(), |b| b.wrapper_scan("L"));
    let rt = PlanRuntime::for_plan(&plan, ExecEnv::new(reg).with_batch_size(32));
    let mut op = build_operator(&plan.fragments[0].root, &rt).unwrap();
    let batches = drain_batches(op.as_mut()).unwrap();
    let sizes: Vec<usize> = batches.iter().map(|b| b.len()).collect();
    assert_eq!(sizes, vec![32, 32, 32, 4]);
}

/// A batch is never held back to fill: with a slow probe (left) source —
/// the driving side of a dependent join — the build-first join must emit
/// its first (short) batch as soon as the first match exists instead of
/// blocking until `batch_size` results accumulate.
#[test]
fn build_first_join_does_not_hold_output_to_fill_batch() {
    let paced = LinkModel {
        per_tuple: Duration::from_millis(4),
        ..LinkModel::instant()
    };
    let fx = JoinFixture::build(
        keyed_relation("l", 100, 10),
        keyed_relation("r", 20, 10),
        paced,
        LinkModel::instant(),
        JoinKind::HybridHash,
        OverflowMethod::Fail,
        None,
    );
    let mut op = crate::operators::HashJoin::new(
        JoinKind::HybridHash,
        fx.left_scan(),
        fx.right_scan(),
        "k".into(),
        "k".into(),
        fx.harness(fx.join_id),
    );
    op.open().unwrap();
    let start = Instant::now();
    let first = op.next_batch().unwrap().expect("some output");
    let elapsed = start.elapsed();
    // The full outer stream takes ~400ms (100 × 4ms); filling the default
    // 256-tuple batch before emitting would need nearly all of it.
    assert!(
        elapsed < Duration::from_millis(150),
        "first join batch held back {elapsed:?} to fill ({} tuples)",
        first.len()
    );
    let mut total = first.len();
    while let Some(b) = op.next_batch().unwrap() {
        total += b.len();
    }
    op.close().unwrap();
    assert_eq!(total, fx.gold.len());
}
