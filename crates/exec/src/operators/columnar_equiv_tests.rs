//! Scan equivalence: the typed kernels (prehash, selection bitmaps,
//! gather-based routing, column-sharing projection) answer what the
//! row-at-a-time reference does, whichever scan feeds them.
//!
//! Wrapper sources deliver batches paced by their link model, table scans
//! over local relations deliver fixed-size slices — so running the same
//! join once over each scan kind drives two arrival patterns through the
//! full operator pipeline. Both runs are compared, as multisets, against
//! each other and against the naive nested-loop reference
//! (`Relation::nested_join`, over rows), across all three join kinds, batch
//! sizes {1, 7, 64, 1024}, and memory budgets small enough to force
//! overflow resolution — mixed Int/Str/Double/Date payload columns with
//! NULLs exercise every column kind's slice/gather/materialize path.

use std::collections::HashMap;

use proptest::prelude::*;

use tukwila_common::{DataType, Relation, Schema, Tuple, Value};
use tukwila_plan::{JoinKind, OperatorNode, OverflowMethod, PlanBuilder, QueryPlan};
use tukwila_source::{LinkModel, SimulatedSource, SourceRegistry};

use crate::build::build_operator;
use crate::operator::drain;
use crate::runtime::{ExecEnv, PlanRuntime};

type Row = (Option<i64>, i64, Option<String>, Option<f64>, Option<i32>);

fn multiset(tuples: &[Tuple]) -> HashMap<Tuple, usize> {
    let mut m = HashMap::new();
    for t in tuples {
        *m.entry(t.clone()).or_insert(0) += 1;
    }
    m
}

/// Build a mixed-type relation: Int key plus Int/Str/Double/Date payload
/// columns, each nullable.
fn rel_of(name: &str, rows: &[Row]) -> Relation {
    let schema = Schema::of(
        name,
        &[
            ("k", DataType::Int),
            ("v", DataType::Int),
            ("s", DataType::Str),
            ("d", DataType::Double),
            ("t", DataType::Date),
        ],
    );
    let mut r = Vec::new();
    for (k, v, s, d, t) in rows {
        r.push(Tuple::new(vec![
            k.map_or(Value::Null, Value::Int),
            Value::Int(*v),
            s.as_deref().map_or(Value::Null, Value::str),
            d.map_or(Value::Null, Value::Double),
            t.map_or(Value::Null, Value::Date),
        ]));
    }
    Relation::new(schema, r).unwrap()
}

fn plan_of(build: impl FnOnce(&mut PlanBuilder) -> OperatorNode) -> QueryPlan {
    let mut b = PlanBuilder::new();
    let root = build(&mut b);
    let f = b.fragment(root, "out");
    b.build(f)
}

/// Environment with `L`/`R` as both wrapper sources and local tables.
fn env_of(l: &Relation, r: &Relation, batch_size: usize) -> ExecEnv {
    let reg = SourceRegistry::new();
    reg.register(SimulatedSource::new("L", l.clone(), LinkModel::instant()));
    reg.register(SimulatedSource::new("R", r.clone(), LinkModel::instant()));
    let env = ExecEnv::new(reg).with_batch_size(batch_size);
    env.local.put("L", l.clone());
    env.local.put("R", r.clone());
    env
}

fn run_plan(env: ExecEnv, plan: &QueryPlan) -> Vec<Tuple> {
    let rt = PlanRuntime::for_plan(plan, env);
    let mut op = build_operator(&plan.fragments[0].root, &rt).unwrap();
    drain(op.as_mut()).unwrap()
}

/// One join plan per scan kind: `wrapper` scans the wrapper sources,
/// otherwise the local tables.
fn join_plan(kind: JoinKind, budget: Option<usize>, wrapper: bool) -> QueryPlan {
    plan_of(|b| {
        let (ls, rs) = if wrapper {
            (b.wrapper_scan("L"), b.wrapper_scan("R"))
        } else {
            (b.table_scan("L"), b.table_scan("R"))
        };
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
    })
}

fn arb_rows(max: usize) -> impl Strategy<Value = Vec<Row>> {
    proptest::collection::vec(
        (
            prop_oneof![3 => (0i64..6).prop_map(Some), 1 => Just(None)],
            0i64..1000,
            prop_oneof![2 => "\\PC{0,8}".prop_map(Some), 1 => Just(None)],
            prop_oneof![2 => (0i64..100).prop_map(|x| Some(x as f64 / 4.0)), 1 => Just(None)],
            prop_oneof![2 => (-500i32..500).prop_map(Some), 1 => Just(None)],
        ),
        0..max,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Hybrid hash, Grace hash, and the double pipelined join produce the
    /// same multiset whether their inputs arrive through wrapper or table
    /// scans, and both match the nested-loop reference — across batch
    /// sizes 1/7/64/1024 and budgets forcing overflow flushes.
    #[test]
    fn prop_joins_match_reference_over_both_scans(
        l_rows in arb_rows(40),
        r_rows in arb_rows(40),
        budget in prop_oneof![Just(None), Just(Some(1_500usize)), Just(Some(6_000usize))],
        batch_size in prop_oneof![Just(1usize), Just(7), Just(64), Just(1024)],
    ) {
        let l = rel_of("l", &l_rows);
        let r = rel_of("r", &r_rows);
        let gold = multiset(&l.nested_join(&r, 0, 0).to_rows());

        for kind in [JoinKind::HybridHash, JoinKind::GraceHash, JoinKind::DoublePipelined] {
            let wrapped = multiset(&run_plan(
                env_of(&l, &r, batch_size),
                &join_plan(kind, budget, true),
            ));
            let tables = multiset(&run_plan(
                env_of(&l, &r, batch_size),
                &join_plan(kind, budget, false),
            ));
            prop_assert!(
                wrapped == gold,
                "{kind:?} over wrappers diverged from reference (budget {budget:?}, batch {batch_size}): got {} rows, want {}",
                wrapped.values().sum::<usize>(),
                gold.values().sum::<usize>()
            );
            prop_assert!(
                tables == gold,
                "{kind:?} over tables diverged from reference (budget {budget:?}, batch {batch_size})"
            );
        }
    }

    /// The dependent join's driving side behaves identically over a
    /// wrapper scan and a table scan; the probe index is built from the
    /// source's batches in both runs.
    #[test]
    fn prop_dependent_join_matches_reference_over_both_scans(
        l_rows in arb_rows(30),
        r_rows in arb_rows(30),
        batch_size in prop_oneof![Just(1usize), Just(7), Just(64), Just(1024)],
    ) {
        let l = rel_of("l", &l_rows);
        let r = rel_of("r", &r_rows);
        let gold = multiset(&l.nested_join(&r, 0, 0).to_rows());
        let dep_plan = |wrapper: bool| {
            plan_of(|b| {
                let ls = if wrapper {
                    b.wrapper_scan("L")
                } else {
                    b.table_scan("L")
                };
                b.dependent_join(ls, "R", "k", "k")
            })
        };
        let wrapped = multiset(&run_plan(env_of(&l, &r, batch_size), &dep_plan(true)));
        let tables = multiset(&run_plan(env_of(&l, &r, batch_size), &dep_plan(false)));
        prop_assert_eq!(&wrapped, &gold);
        prop_assert_eq!(&tables, &gold);
    }
}

/// Fixed regression: a filter + projection stack over a wrapper source
/// equals the same plan over a local table at every batch size — pinning
/// the vectorized predicate (selection bitmap + gather) and the
/// column-sharing projection across scan kinds.
#[test]
fn filter_project_matches_over_both_scans() {
    use tukwila_plan::{CmpOp, Predicate};
    let rows: Vec<Row> = (0..200)
        .map(|i| {
            (
                if i % 7 == 0 { None } else { Some(i % 5) },
                i,
                if i % 3 == 0 {
                    None
                } else {
                    Some(format!("s{}", i % 11))
                },
                if i % 4 == 0 {
                    None
                } else {
                    Some(i as f64 / 3.0)
                },
                Some(i as i32 - 100),
            )
        })
        .collect();
    let l = rel_of("l", &rows);
    let plan = |wrapper: bool| {
        plan_of(|b| {
            let scan = if wrapper {
                b.wrapper_scan("L")
            } else {
                b.table_scan("L")
            };
            let f = b.select(
                scan,
                Predicate::and(vec![
                    Predicate::ColLit {
                        col: "k".into(),
                        op: CmpOp::Gt,
                        value: Value::Int(0),
                    },
                    Predicate::ColLit {
                        col: "v".into(),
                        op: CmpOp::Lt,
                        value: Value::Int(150),
                    },
                ]),
            );
            b.project(f, &["v", "s", "d"])
        })
    };
    for bs in [1usize, 7, 64, 1024] {
        let cols = run_plan(env_of(&l, &l, bs), &plan(true));
        let rows_out = run_plan(env_of(&l, &l, bs), &plan(false));
        assert_eq!(
            multiset(&cols),
            multiset(&rows_out),
            "filter+project diverged at batch {bs}"
        );
        assert!(!cols.is_empty());
    }
}
