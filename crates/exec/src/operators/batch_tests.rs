//! Batched-vs-single-tuple equivalence: draining any operator tree through
//! the batch path must yield exactly the same multiset of tuples as
//! draining it tuple-at-a-time (batch size 1 and/or the [`TupleCursor`]
//! adapter). This is the contract that lets batching be a pure throughput
//! optimization with no semantic surface.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use proptest::prelude::*;

use tukwila_common::{Relation, Tuple};
use tukwila_plan::{JoinKind, OperatorNode, OverflowMethod, PlanBuilder, QueryPlan};
use tukwila_source::{LinkModel, SimulatedSource, SourceRegistry};

use crate::build::build_operator;
use crate::operator::{drain, drain_batches, drain_tuples, Operator};
use crate::runtime::{ExecEnv, PlanRuntime};
use crate::test_support::{keyed_relation, JoinFixture};

fn multiset(tuples: &[Tuple]) -> HashMap<Tuple, usize> {
    let mut m = HashMap::new();
    for t in tuples {
        *m.entry(t.clone()).or_insert(0) += 1;
    }
    m
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

/// Drain the root of `plan` at the given batch size through the batch path.
fn run_at_batch_size(plan: &QueryPlan, registry: &SourceRegistry, batch_size: usize) -> Vec<Tuple> {
    let env = ExecEnv::new(registry.clone()).with_batch_size(batch_size);
    let rt = PlanRuntime::for_plan(plan, env);
    let mut op = build_operator(&plan.fragments[0].root, &rt).unwrap();
    drain(op.as_mut()).unwrap()
}

/// Drain the root tuple-at-a-time through the `TupleCursor` adapter.
fn run_cursor(plan: &QueryPlan, registry: &SourceRegistry, batch_size: usize) -> Vec<Tuple> {
    let env = ExecEnv::new(registry.clone()).with_batch_size(batch_size);
    let rt = PlanRuntime::for_plan(plan, env);
    let mut op = build_operator(&plan.fragments[0].root, &rt).unwrap();
    drain_tuples(op.as_mut()).unwrap()
}

fn plan_of(build: impl FnOnce(&mut PlanBuilder) -> OperatorNode) -> QueryPlan {
    let mut b = PlanBuilder::new();
    let root = build(&mut b);
    let f = b.fragment(root, "out");
    b.build(f)
}

/// Every in-tree operator kind, drained batched (size 64) vs single-tuple
/// (size 1) vs through the cursor adapter — identical multisets each way.
#[test]
fn all_operators_batched_equals_single_tuple() {
    let l = keyed_relation("l", 90, 9);
    let r = keyed_relation("r", 45, 9);
    let cases: Vec<(&str, QueryPlan)> = vec![
        (
            "filter",
            plan_of(|b| {
                let s = b.wrapper_scan("L");
                b.select(s, tukwila_plan::Predicate::eq_lit("k", 3i64))
            }),
        ),
        (
            "project",
            plan_of(|b| {
                let s = b.wrapper_scan("L");
                b.project(s, &["v", "k"])
            }),
        ),
        (
            "union",
            plan_of(|b| {
                let a = b.wrapper_scan("L");
                let c = b.wrapper_scan("R");
                b.union(vec![a, c])
            }),
        ),
        (
            "hybrid_hash",
            plan_of(|b| {
                let ls = b.wrapper_scan("L");
                let rs = b.wrapper_scan("R");
                b.join(JoinKind::HybridHash, ls, rs, "k", "k")
            }),
        ),
        (
            "grace_hash",
            plan_of(|b| {
                let ls = b.wrapper_scan("L");
                let rs = b.wrapper_scan("R");
                b.join(JoinKind::GraceHash, ls, rs, "k", "k")
            }),
        ),
        (
            "dpj",
            plan_of(|b| {
                let ls = b.wrapper_scan("L");
                let rs = b.wrapper_scan("R");
                b.dpj(ls, rs, "k", "k", OverflowMethod::IncrementalLeftFlush)
            }),
        ),
        (
            "dependent_join",
            plan_of(|b| {
                let ls = b.wrapper_scan("L");
                b.dependent_join(ls, "R", "k", "k")
            }),
        ),
        (
            "table_scan+deep",
            plan_of(|b| {
                let ls = b.wrapper_scan("L");
                let rs = b.wrapper_scan("R");
                let j = b.join(JoinKind::DoublePipelined, ls, rs, "k", "k");
                let p = b.project(j, &["l.k", "l.v", "r.v"]);
                b.select(p, tukwila_plan::Predicate::eq_lit("l.k", 2i64))
            }),
        ),
    ];
    for (name, plan) in cases {
        let registry = registry_with(&[("L", l.clone()), ("R", r.clone())]);
        let batched = run_at_batch_size(&plan, &registry, 64);
        let single = run_at_batch_size(&plan, &registry, 1);
        let cursor = run_cursor(&plan, &registry, 64);
        assert_eq!(
            multiset(&batched),
            multiset(&single),
            "{name}: batch=64 vs batch=1 multisets differ \
             ({} vs {} tuples)",
            batched.len(),
            single.len()
        );
        assert_eq!(
            multiset(&batched),
            multiset(&cursor),
            "{name}: batch drain vs cursor drain multisets differ"
        );
    }
}

/// Collector output is batch-size-invariant too (its children are threads,
/// so only the multiset — not the order — is defined).
#[test]
fn collector_batched_equals_single_tuple() {
    let plan = {
        let mut b = PlanBuilder::new();
        let (node, _) = b.collector(&[("L", true), ("R", true)], None);
        let f = b.fragment(node, "out");
        b.build(f)
    };
    let l = keyed_relation("l", 40, 4);
    let r = keyed_relation("r", 25, 4);
    let registry = registry_with(&[("L", l), ("R", r)]);
    let batched = run_at_batch_size(&plan, &registry, 64);
    let single = run_at_batch_size(&plan, &registry, 1);
    assert_eq!(multiset(&batched), multiset(&single));
    assert_eq!(batched.len(), 65);
}

/// Batch sizing is respected on a plain pipeline: every non-final batch of
/// a scan carries exactly the configured number of tuples.
#[test]
fn batch_size_shapes_scan_output() {
    let plan = plan_of(|b| b.wrapper_scan("L"));
    let registry = registry_with(&[("L", keyed_relation("l", 100, 10))]);
    let env = ExecEnv::new(registry).with_batch_size(32);
    let rt = PlanRuntime::for_plan(&plan, env);
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The core equivalence property: for random relation sizes, key
    /// duplication, and batch sizes, a batched drain and a single-tuple
    /// drain of the same DPJ tree produce identical multisets — and both
    /// match the gold nested-loops result.
    #[test]
    fn prop_dpj_batched_equals_single_tuple(
        n_l in 0usize..120,
        n_r in 0usize..80,
        dup in 1i64..10,
        bs in 1usize..65,
    ) {
        let build = |batch: usize| {
            JoinFixture::build(
                keyed_relation("l", n_l as i64, dup),
                keyed_relation("r", n_r as i64, dup),
                LinkModel::instant(),
                LinkModel::instant(),
                JoinKind::DoublePipelined,
                OverflowMethod::IncrementalLeftFlush,
                None,
            )
            .with_batch_size(batch)
        };
        let run = |fx: &JoinFixture| {
            let mut op = crate::operators::HashJoin::new(
                JoinKind::DoublePipelined,
                fx.left_scan(),
                fx.right_scan(),
                "k".into(),
                "k".into(),
                fx.harness(fx.join_id),
            )
            .with_buckets(8);
            drain(&mut op).unwrap()
        };
        let fx_batched = build(bs);
        let fx_single = build(1);
        let batched = run(&fx_batched);
        let single = run(&fx_single);
        prop_assert_eq!(multiset(&batched), multiset(&single));
        prop_assert_eq!(batched.len(), fx_batched.gold.len());
    }
}
