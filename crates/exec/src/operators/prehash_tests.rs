//! Prehashed-path equivalence: the batch-level key prehashing introduced by
//! the hot-path overhaul (one Fx hash per tuple, reused for bucket routing,
//! map lookup, and salted re-partitioning) must be a pure optimization.
//! Every join's output is compared, as a multiset, against the naive
//! nested-loop reference (`Relation::nested_join`, SQL equality semantics)
//! — including NULL keys, duplicate-heavy key distributions, and memory
//! budgets small enough to force overflow flushing and the salted
//! recursive re-partitioning of the cleanup's bucket join.
//!
//! Composite keys have no operator surface (all in-tree joins key on one
//! column), so they are pinned at the machinery level: `PrehashMap` keyed
//! by [`JoinKey`] must group identically to a `HashMap<Vec<Value>, _>`.

use std::collections::HashMap;

use proptest::prelude::*;

use tukwila_common::{
    ColumnarBatch, DataType, JoinKey, KeyVector, OutputQueue, PrehashMap, Relation, Schema, Tuple,
    Value,
};
use tukwila_plan::{JoinKind, OperatorNode, OverflowMethod, PlanBuilder, QueryPlan};
use tukwila_source::{LinkModel, SimulatedSource, SourceRegistry};

use crate::build::build_operator;
use crate::operator::drain;
use crate::operators::join_side::{BucketJoin, Keyed};
use crate::runtime::{ExecEnv, PlanRuntime};

fn multiset(tuples: &[Tuple]) -> HashMap<Tuple, usize> {
    let mut m = HashMap::new();
    for t in tuples {
        *m.entry(t.clone()).or_insert(0) += 1;
    }
    m
}

/// Build a `(k, v)` relation from `(key, value)` pairs; `None` keys are
/// SQL NULL.
fn rel_of(name: &str, rows: &[(Option<i64>, i64)]) -> Relation {
    let schema = Schema::of(name, &[("k", DataType::Int), ("v", DataType::Int)]);
    let mut r = Relation::empty(schema);
    for (k, v) in rows {
        let key = match k {
            Some(k) => Value::Int(*k),
            None => Value::Null,
        };
        r.push(Tuple::new(vec![key, Value::Int(*v)]));
    }
    r
}

fn plan_of(build: impl FnOnce(&mut PlanBuilder) -> OperatorNode) -> QueryPlan {
    let mut b = PlanBuilder::new();
    let root = build(&mut b);
    let f = b.fragment(root, "out");
    b.build(f)
}

/// Run a one-fragment plan against `L`/`R` sources and drain the root.
fn run_join(l: &Relation, r: &Relation, plan: &QueryPlan, batch_size: usize) -> Vec<Tuple> {
    let reg = SourceRegistry::new();
    reg.register(SimulatedSource::new("L", l.clone(), LinkModel::instant()));
    reg.register(SimulatedSource::new("R", r.clone(), LinkModel::instant()));
    let env = ExecEnv::new(reg).with_batch_size(batch_size);
    let rt = PlanRuntime::for_plan(plan, env);
    let mut op = build_operator(&plan.fragments[0].root, &rt).unwrap();
    drain(op.as_mut()).unwrap()
}

fn arb_rows(max: usize) -> impl Strategy<Value = Vec<(Option<i64>, i64)>> {
    proptest::collection::vec(
        (
            prop_oneof![3 => (0i64..6).prop_map(Some), 1 => Just(None)],
            0i64..1000,
        ),
        0..max,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Hybrid hash, Grace hash, and the double pipelined join (under a
    /// budget small enough to overflow — exercising flushes, marked
    /// partitions, and salted recursive re-partitioning in cleanup) all
    /// match the naive reference, NULL keys included.
    #[test]
    fn prop_joins_match_reference(
        l_rows in arb_rows(40),
        r_rows in arb_rows(40),
        budget in prop_oneof![Just(None), Just(Some(1_500usize)), Just(Some(6_000usize))],
        batch_size in prop_oneof![Just(1usize), Just(7), Just(64)],
    ) {
        let l = rel_of("l", &l_rows);
        let r = rel_of("r", &r_rows);
        let gold = multiset(l.nested_join(&r, 0, 0).tuples());

        for kind in [JoinKind::HybridHash, JoinKind::GraceHash, JoinKind::DoublePipelined] {
            let plan = plan_of(|b| {
                let ls = b.wrapper_scan("L");
                let rs = b.wrapper_scan("R");
                let mut j = match kind {
                    JoinKind::DoublePipelined => {
                        b.dpj(ls, rs, "k", "k", OverflowMethod::IncrementalSymmetricFlush)
                    }
                    other => b.join(other, ls, rs, "k", "k"),
                };
                if let Some(bytes) = budget {
                    j = j.with_memory(bytes);
                }
                j
            });
            let out = run_join(&l, &r, &plan, batch_size);
            let got = multiset(&out);
            prop_assert!(
                got == gold,
                "{kind:?} diverged from reference (budget {budget:?}, batch {batch_size}): got {} rows, want {}",
                got.values().sum::<usize>(),
                gold.values().sum::<usize>()
            );
        }
    }

    /// The dependent join (prehash-indexed source, prehashed driving
    /// batches) matches the naive reference, NULL bind keys included.
    #[test]
    fn prop_dependent_join_matches_reference(
        l_rows in arb_rows(30),
        r_rows in arb_rows(30),
        batch_size in prop_oneof![Just(1usize), Just(5), Just(64)],
    ) {
        let l = rel_of("l", &l_rows);
        let r = rel_of("r", &r_rows);
        let gold = multiset(l.nested_join(&r, 0, 0).tuples());
        let plan = plan_of(|b| {
            let ls = b.wrapper_scan("L");
            b.dependent_join(ls, "R", "k", "k")
        });
        let out = run_join(&l, &r, &plan, batch_size);
        prop_assert_eq!(multiset(&out), gold);
    }

    /// The cleanup's bucket join under a budget that forces salted
    /// recursive re-partitioning produces exactly the in-memory result,
    /// and every re-partitioned row is read back.
    #[test]
    fn prop_bucket_join_repartition_equivalence(
        build_rows in arb_rows(48),
        probe_rows in arb_rows(48),
    ) {
        use tukwila_storage::{InMemorySpillStore, SpillStore};
        let keyed = |name, rows: &[(Option<i64>, i64)]| {
            Keyed::of(ColumnarBatch::from_rows(rel_of(name, rows).tuples()), 0)
        };
        let (build, probe) = (keyed("b", &build_rows), keyed("p", &probe_rows));
        let spill = InMemorySpillStore::new();
        let run = |budget| {
            let join = BucketJoin { build_key: 0, probe_key: 0, budget, spill: &spill, block: 7 };
            let mut out = OutputQueue::new(7);
            join.run(build.clone(), &probe, 0, &mut out).unwrap();
            std::iter::from_fn(|| out.pop_block()).flatten().collect::<Vec<Tuple>>()
        };
        let in_mem = run(None);
        prop_assert_eq!(spill.stats().total_tuple_io(), 0);
        // 64-byte budget: any non-trivial build side recurses with fresh
        // salts down to the maximum depth.
        let repartitioned = run(Some(64));
        prop_assert_eq!(multiset(&in_mem), multiset(&repartitioned));
        prop_assert_eq!(spill.stats().tuples_written(), spill.stats().tuples_read());
    }

    /// Composite keys: grouping rows by a two-column [`JoinKey`] through
    /// [`PrehashMap`] (prehash + probe-by-reference) is identical to
    /// grouping by an owned `Vec<Value>` key in a std `HashMap`, with
    /// NULL-keyed rows excluded by `has_null` exactly as the reference
    /// excludes them.
    #[test]
    fn prop_prehash_map_composite_groups_match_hashmap(
        rows in proptest::collection::vec(
            (
                prop_oneof![4 => (0i64..4).prop_map(Some), 1 => Just(None)],
                prop_oneof![4 => (0i64..3).prop_map(Some), 1 => Just(None)],
                0i64..100,
            ),
            0..60,
        ),
    ) {
        let cols = [0usize, 1usize];
        let tuples: Vec<Tuple> = rows
            .iter()
            .map(|(a, b, v)| {
                let f = |x: &Option<i64>| x.map(Value::Int).unwrap_or(Value::Null);
                Tuple::new(vec![f(a), f(b), Value::Int(*v)])
            })
            .collect();

        let mut reference: HashMap<Vec<Value>, Vec<i64>> = HashMap::new();
        for t in &tuples {
            if t.value(0).is_null() || t.value(1).is_null() {
                continue;
            }
            reference
                .entry(vec![t.value(0).clone(), t.value(1).clone()])
                .or_default()
                .push(t.value(2).as_int().unwrap());
        }

        let mut map: PrehashMap<JoinKey, Vec<i64>> = PrehashMap::new();
        for t in &tuples {
            let Some(hash) = KeyVector::hash_tuple_key(t, &cols) else {
                continue; // NULL component
            };
            map.entry_hashed(hash, |k| k.eq_tuple(t, &cols), || JoinKey::from_tuple(t, &cols))
                .push(t.value(2).as_int().unwrap());
        }

        prop_assert_eq!(map.len(), reference.len());
        for (_h, key, vals) in map.iter() {
            let ref_key: Vec<Value> = (0..key.width()).map(|i| key.component(i).clone()).collect();
            prop_assert_eq!(reference.get(&ref_key), Some(vals));
            // owned-key hash must match the borrowed-probe hash used above
            prop_assert!(!key.has_null());
        }
    }

}

/// Fixed-scenario regression: all four joins over a dataset with NULL keys
/// on both sides and heavy duplication, at batch sizes 1 and 64.
#[test]
fn four_joins_with_null_keys_match_reference() {
    let rows_l: Vec<(Option<i64>, i64)> = (0..30)
        .map(|i| (if i % 5 == 0 { None } else { Some(i % 3) }, i))
        .collect();
    let rows_r: Vec<(Option<i64>, i64)> = (0..20)
        .map(|i| (if i % 4 == 0 { None } else { Some(i % 3) }, 100 + i))
        .collect();
    let l = rel_of("l", &rows_l);
    let r = rel_of("r", &rows_r);
    let gold = multiset(l.nested_join(&r, 0, 0).tuples());

    let plans: Vec<(&str, QueryPlan)> = vec![
        (
            "hybrid",
            plan_of(|b| {
                let (ls, rs) = (b.wrapper_scan("L"), b.wrapper_scan("R"));
                b.join(JoinKind::HybridHash, ls, rs, "k", "k")
            }),
        ),
        (
            "grace",
            plan_of(|b| {
                let (ls, rs) = (b.wrapper_scan("L"), b.wrapper_scan("R"));
                b.join(JoinKind::GraceHash, ls, rs, "k", "k")
            }),
        ),
        (
            "dpj",
            plan_of(|b| {
                let (ls, rs) = (b.wrapper_scan("L"), b.wrapper_scan("R"));
                b.dpj(ls, rs, "k", "k", OverflowMethod::IncrementalLeftFlush)
            }),
        ),
        (
            "dependent",
            plan_of(|b| {
                let ls = b.wrapper_scan("L");
                b.dependent_join(ls, "R", "k", "k")
            }),
        ),
    ];
    for (name, plan) in &plans {
        for bs in [1usize, 64] {
            let out = run_join(&l, &r, plan, bs);
            assert_eq!(
                multiset(&out),
                gold,
                "{name} at batch {bs} diverged from reference"
            );
        }
    }
}
