//! Integration tests for the adaptive machinery across crates: rule-driven
//! collector policies, query scrambling, contingent planning (choose
//! nodes), and re-optimization — the behaviours §1.2 promises.

use std::time::Duration;

use tukwila::exec::{
    build_operator, run_fragment, ExecEnv, FragmentOutcome, FragmentReport, Materialize,
    PlanRuntime,
};
use tukwila::plan::{
    Action, Condition, EventKind, EventPattern, FragmentId, JoinKind, PlanBuilder, QueryPlan, Rule,
    SubjectRef,
};
use tukwila::prelude::*;

/// Build fragment `f` of `plan` and run it into the local store.
fn run(plan: &QueryPlan, f: FragmentId, rt: &std::sync::Arc<PlanRuntime>) -> FragmentReport {
    let frag = plan.fragment(f).unwrap();
    let root = build_operator(&frag.root, rt).unwrap();
    run_fragment(f, root, rt, &mut Materialize::new(&frag.materialize_as))
}

fn keyed(name: &str, n: i64) -> Relation {
    let schema = Schema::of(name, &[("k", DataType::Int), ("v", DataType::Int)]);
    let mut r = Vec::new();
    for i in 0..n {
        r.push(Tuple::new(vec![Value::Int(i % 10), Value::Int(i)]));
    }
    Relation::new(schema, r).unwrap()
}

/// The paper's §1.3 "rescheduling" narrative: if source A times out, the
/// independent join D⋈E executes preemptively; A's fragment is retried
/// afterwards and succeeds once the source recovers.
#[test]
fn query_scrambling_runs_independent_fragment_first() {
    let registry = SourceRegistry::new();
    let stall = LinkModel {
        stall_after: Some(3),
        stall_duration: Duration::from_millis(250),
        ..LinkModel::instant()
    };
    registry.register(SimulatedSource::new("A", keyed("a", 40), stall));
    registry.register(SimulatedSource::new(
        "B",
        keyed("b", 40),
        LinkModel::instant(),
    ));
    registry.register(SimulatedSource::new(
        "D",
        keyed("d", 40),
        LinkModel::instant(),
    ));
    registry.register(SimulatedSource::new(
        "E",
        keyed("e", 40),
        LinkModel::instant(),
    ));

    let mut b = PlanBuilder::new();
    let a = b.wrapper_scan_opts("A", Some(40), None);
    let a_id = a.id;
    let bs = b.wrapper_scan("B");
    let ab = b.join(JoinKind::DoublePipelined, a, bs, "k", "k");
    let f_ab = b.fragment(ab, "mat_ab");
    b.add_local_rule(f_ab, Rule::reschedule_on_timeout(f_ab, a_id));

    let d = b.wrapper_scan("D");
    let e = b.wrapper_scan("E");
    let de = b.join(JoinKind::DoublePipelined, d, e, "k", "k");
    let f_de = b.fragment(de, "mat_de");

    let ab_scan = b.table_scan("mat_ab");
    let de_scan = b.table_scan("mat_de");
    let top = b.join(JoinKind::DoublePipelined, ab_scan, de_scan, "a.k", "d.k");
    let f_top = b.fragment(top, "result");
    b.depends(f_ab, f_top);
    b.depends(f_de, f_top);
    let plan = b.build(f_top);

    let env = ExecEnv::new(registry);
    let rt = PlanRuntime::for_plan(&plan, env.clone());

    // First attempt at AB stalls and is rescheduled by its rule.
    let r1 = run(&plan, f_ab, &rt);
    assert_eq!(r1.outcome, FragmentOutcome::Rescheduled);

    // Scrambling: run the independent DE fragment while A recovers.
    let r2 = run(&plan, f_de, &rt);
    assert!(matches!(r2.outcome, FragmentOutcome::Completed { .. }));

    // Retry AB — the stall has passed. (Reset restores plan-default
    // activation undone by the aborted run's cancellation.)
    rt.reset_fragment(plan.fragment(f_ab).unwrap());
    let r3 = run(&plan, f_ab, &rt);
    assert!(
        matches!(r3.outcome, FragmentOutcome::Completed { .. }),
        "retry after scrambling should succeed: {:?}",
        r3.outcome
    );

    let r4 = run(&plan, f_top, &rt);
    assert!(matches!(r4.outcome, FragmentOutcome::Completed { .. }));
    assert!(env.local.cardinality("result").unwrap() > 0);
}

/// Contingent planning (choose nodes, §3.1.2): a rule at a fragment's close
/// selects which alternative fragment runs next based on the observed
/// result cardinality.
#[test]
fn choose_node_selects_fragment_by_observed_cardinality() {
    let registry = SourceRegistry::new();
    registry.register(SimulatedSource::new(
        "S",
        keyed("s", 50),
        LinkModel::instant(),
    ));
    registry.register(SimulatedSource::new(
        "ALT1",
        keyed("x", 5),
        LinkModel::instant(),
    ));
    registry.register(SimulatedSource::new(
        "ALT2",
        keyed("y", 7),
        LinkModel::instant(),
    ));

    let mut b = PlanBuilder::new();
    let s = b.wrapper_scan("S");
    let s_id = s.id;
    let f0 = b.fragment(s, "mat_s");
    let alt1 = b.wrapper_scan("ALT1");
    let f1 = b.contingent_fragment(alt1, "result");
    let alt2 = b.wrapper_scan("ALT2");
    let f2 = b.contingent_fragment(alt2, "result");
    b.depends(f0, f1);
    b.depends(f0, f2);

    // when closed(f0): if card(scan) ≥ 30 activate f1 else activate f2
    let big = Condition::Cmp {
        lhs: tukwila::plan::Quantity::Card(SubjectRef::Op(s_id)),
        op: tukwila::plan::CmpOp::Ge,
        rhs: tukwila::plan::Quantity::Const(30.0),
    };
    b.add_local_rule(
        f0,
        Rule::new(
            "choose-big",
            SubjectRef::Fragment(f0),
            EventPattern::new(EventKind::Closed, SubjectRef::Fragment(f0)),
            big.clone(),
            vec![Action::Activate(SubjectRef::Fragment(f1))],
        ),
    );
    b.add_local_rule(
        f0,
        Rule::new(
            "choose-small",
            SubjectRef::Fragment(f0),
            EventPattern::new(EventKind::Closed, SubjectRef::Fragment(f0)),
            Condition::Not(Box::new(big)),
            vec![Action::Activate(SubjectRef::Fragment(f2))],
        ),
    );
    let plan = b.build(f1);

    let env = ExecEnv::new(registry);
    let rt = PlanRuntime::for_plan(&plan, env.clone());
    assert!(!rt.is_active(SubjectRef::Fragment(f1)));
    assert!(!rt.is_active(SubjectRef::Fragment(f2)));

    let r = run(&plan, f0, &rt);
    assert!(matches!(r.outcome, FragmentOutcome::Completed { .. }));
    // 50 tuples ≥ 30 → the "big" branch activates
    assert!(rt.is_active(SubjectRef::Fragment(f1)));
    assert!(!rt.is_active(SubjectRef::Fragment(f2)));

    let r = run(&plan, f1, &rt);
    assert!(matches!(r.outcome, FragmentOutcome::Completed { .. }));
    assert_eq!(env.local.cardinality("result"), Some(5));
}

/// The paper's full collector example policy (§4.1): contact A and B;
/// whichever delivers 10 tuples first kills the other; if A times out
/// before B reaches 10 tuples, C is activated and both others are killed.
#[test]
fn paper_collector_policy_timeout_path() {
    let registry = SourceRegistry::new();
    // A stalls immediately; B trickles slowly; C is fast.
    registry.register(SimulatedSource::new(
        "A",
        keyed("a", 100),
        LinkModel {
            stall_after: Some(0),
            stall_duration: Duration::from_secs(3600),
            ..LinkModel::instant()
        },
    ));
    registry.register(SimulatedSource::new(
        "B",
        keyed("b", 100),
        LinkModel {
            per_tuple: Duration::from_millis(15),
            ..LinkModel::instant()
        },
    ));
    registry.register(SimulatedSource::new(
        "C",
        keyed("c", 100),
        LinkModel::instant(),
    ));

    let mut b = PlanBuilder::new();
    let (coll, ids) =
        b.collector_with_timeout(&[("A", true), ("B", true), ("C", false)], None, Some(60));
    let coll_id = coll.id;
    let (a, bb, c) = (
        SubjectRef::Op(ids[0]),
        SubjectRef::Op(ids[1]),
        SubjectRef::Op(ids[2]),
    );
    let f = b.fragment(coll, "result");
    let owner = SubjectRef::Op(coll_id);
    b.add_local_rule(
        f,
        Rule::new(
            "a-wins",
            owner,
            EventPattern::with_value(EventKind::Threshold, a, 10),
            Condition::True,
            vec![Action::Deactivate(bb)],
        ),
    );
    b.add_local_rule(
        f,
        Rule::new(
            "b-wins",
            owner,
            EventPattern::with_value(EventKind::Threshold, bb, 10),
            Condition::True,
            vec![Action::Deactivate(a)],
        ),
    );
    b.add_local_rule(
        f,
        Rule::new(
            "a-timeout",
            owner,
            EventPattern::new(EventKind::Timeout, a),
            Condition::True,
            vec![
                Action::Activate(c),
                Action::Deactivate(bb),
                Action::Deactivate(a),
            ],
        ),
    );
    let plan = b.build(f);
    tukwila::plan::validate_plan(&plan).unwrap();

    let env = ExecEnv::new(registry);
    let rt = PlanRuntime::for_plan(&plan, env.clone());
    let r = run(&plan, f, &rt);
    assert!(matches!(r.outcome, FragmentOutcome::Completed { .. }));
    let result = env.local.get("result").unwrap();
    // C delivered everything; A was stuck at 0; B was killed before 10.
    assert!(result.len() >= 100, "C must deliver its full 100");
    assert!(result.len() < 120, "B must have been killed early");
}

/// Re-optimization produces a different join order after a misestimate —
/// the §1.3 "re-optimization" narrative (Figure 1b → 1c).
#[test]
fn replanning_changes_join_order_after_misestimate() {
    let tables = [
        TpchTable::Nation,
        TpchTable::Supplier,
        TpchTable::Partsupp,
        TpchTable::Part,
    ];
    // Selectivities 100× too high make the first plan start from the wrong
    // end; the first materialization exposes the error.
    let deployment = TpchDeployment::builder(0.004, 301)
        .tables(&tables)
        .stats(StatsQuality::MisestimatedSelectivities(100.0))
        .build();
    let query = deployment.query_for("reorder", &tables);
    let config = OptimizerConfig {
        policy: PipelinePolicy::MaterializeAndReplan,
        ..OptimizerConfig::default()
    };
    let system = deployment.system(config);
    let result = system.execute(&query).unwrap();
    assert!(result.stats.replans >= 1);
    let gold = deployment.gold(&query).unwrap();
    assert!(result.relation.bag_eq_unordered(&gold));
}
