//! Workspace integration tests: full-system queries across every crate
//! (generator → sources → reformulator → optimizer → engine → result),
//! verified against the trusted gold evaluator.

use tukwila::prelude::*;

const SF: f64 = 0.003;

fn check(deployment: &TpchDeployment, query: &ConjunctiveQuery, config: OptimizerConfig) {
    let system = deployment.system(config);
    let result = system
        .execute(query)
        .unwrap_or_else(|e| panic!("query `{}` failed: {e}", query.name));
    let gold = deployment.gold(query).expect("gold evaluation");
    assert!(
        result.relation.bag_eq_unordered(&gold),
        "query `{}`: got {}, want {}",
        query.name,
        result.relation.len(),
        gold.len()
    );
}

#[test]
fn every_two_table_fk_join_matches_gold() {
    let deployment = TpchDeployment::builder(SF, 101).build();
    for (tables, _) in tukwila::tpchgen::all_k_table_joins(2, &[]) {
        let query = deployment.query_for(
            &format!("j2-{}-{}", tables[0].name(), tables[1].name()),
            &tables,
        );
        check(&deployment, &query, OptimizerConfig::default());
    }
}

#[test]
fn three_table_joins_without_lineitem_match_gold() {
    let deployment = TpchDeployment::builder(SF, 103).build();
    for (tables, _) in tukwila::tpchgen::all_k_table_joins(3, &[TpchTable::Lineitem]) {
        let name = tables
            .iter()
            .map(|t| t.name())
            .collect::<Vec<_>>()
            .join("-");
        let query = deployment.query_for(&format!("j3-{name}"), &tables);
        check(&deployment, &query, OptimizerConfig::default());
    }
}

#[test]
fn fig5_workload_all_policies_match_gold() {
    let deployment = TpchDeployment::builder(0.002, 105)
        .stats(StatsQuality::MisestimatedSelectivities(25.0))
        .build();
    for (tables, _) in tukwila::tpchgen::fig5_queries() {
        let name = tables
            .iter()
            .map(|t| t.name())
            .collect::<Vec<_>>()
            .join("-");
        for policy in [
            PipelinePolicy::MaterializeEachJoin,
            PipelinePolicy::MaterializeAndReplan,
            PipelinePolicy::FullyPipelined,
        ] {
            let config = OptimizerConfig {
                policy,
                ..OptimizerConfig::default()
            };
            let query = deployment.query_for(&format!("fig5-{name}"), &tables);
            check(&deployment, &query, config);
        }
    }
}

#[test]
fn tight_memory_still_correct_with_both_overflow_strategies() {
    let deployment = TpchDeployment::builder(0.004, 107)
        .tables(&[TpchTable::Part, TpchTable::Partsupp])
        .build();
    let query = deployment.query_for("overflow", &[TpchTable::Part, TpchTable::Partsupp]);
    // budget far below the ~both-tables-resident demand of the DPJ
    for budget in [32 << 10, 128 << 10] {
        let config = OptimizerConfig {
            policy: PipelinePolicy::FullyPipelined,
            join_memory_budget: budget,
            ..OptimizerConfig::default()
        };
        check(&deployment, &query, config);
    }
}

/// The benchmark's `spill_join` query (Supplier ⋈ Partsupp ⋈ Part at
/// SF 0.01, seed 23, 256 KiB per join, sequential plan) moves exactly
/// these tuples and bytes through spill storage: overflow resolution is
/// deterministic, and a change to how it stores rows must not move them.
#[test]
fn spill_join_overflow_io_is_pinned() {
    let tables = [TpchTable::Supplier, TpchTable::Partsupp, TpchTable::Part];
    let deployment = TpchDeployment::builder(0.01, 23).tables(&tables).build();
    let query = deployment.query_for("sup_ps_part", &tables);
    let system = deployment.system(OptimizerConfig {
        join_memory_budget: 256 << 10,
        max_parallelism: 1,
        ..OptimizerConfig::default()
    });
    let result = system.execute(&query).expect("spill_join query");
    let gold = deployment.gold(&query).unwrap();
    assert!(result.relation.bag_eq_unordered(&gold));
    let s = &result.stats;
    assert_eq!(
        (
            s.spill_tuples_written,
            s.spill_tuples_read,
            s.spill_bytes_written,
            s.spill_bytes_read
        ),
        (8_548, 8_548, 2_597_067, 2_597_067),
        "(tuples written, tuples read, bytes written, bytes read)"
    );
}

#[test]
fn lineitem_query_at_scale_matches_gold() {
    // the paper's Figure 3a join: lineitem ⋈ supplier ⋈ orders
    let tables = [TpchTable::Lineitem, TpchTable::Supplier, TpchTable::Orders];
    let deployment = TpchDeployment::builder(0.001, 109).tables(&tables).build();
    let query = deployment.query_for("fig3a", &tables);
    check(&deployment, &query, OptimizerConfig::default());
}

#[test]
fn filters_and_projection_apply() {
    let deployment = TpchDeployment::builder(SF, 111)
        .tables(&[TpchTable::Nation, TpchTable::Supplier])
        .build();
    let query = deployment
        .query_for("filtered", &[TpchTable::Supplier, TpchTable::Nation])
        .filter(Predicate::eq_lit("nation.n_name", "FRANCE"))
        .project(vec!["supplier.s_name".into(), "nation.n_name".into()]);
    let system = deployment.system(OptimizerConfig::default());
    let result = system.execute(&query).expect("filtered query");
    assert_eq!(result.relation.schema().arity(), 2);
    for t in result.relation.to_rows() {
        assert_eq!(t.value(1), &Value::str("FRANCE"));
    }
    // cross-check cardinality against gold + manual filter
    let gold = deployment
        .gold(&deployment.query_for("g", &[TpchTable::Supplier, TpchTable::Nation]))
        .unwrap();
    let idx = gold.schema().index_of("nation.n_name").unwrap();
    let expected = gold
        .to_rows()
        .iter()
        .filter(|t| t.value(idx) == &Value::str("FRANCE"))
        .count();
    assert_eq!(result.relation.len(), expected);
}

#[test]
fn partial_planning_converges_on_multi_join_query() {
    let tables = [
        TpchTable::Region,
        TpchTable::Nation,
        TpchTable::Customer,
        TpchTable::Orders,
    ];
    let deployment = TpchDeployment::builder(SF, 113)
        .tables(&tables)
        .stats(StatsQuality::Unknown)
        .build();
    let query = deployment.query_for("partial", &tables);
    let system = deployment.system(OptimizerConfig::default());
    let result = system.execute(&query).expect("interleaved planning");
    let gold = deployment.gold(&query).unwrap();
    assert!(result.relation.bag_eq_unordered(&gold));
    assert!(result.stats.replans >= 1);
}

#[test]
fn file_backed_spill_store_round_trips() {
    use std::sync::Arc;
    use tukwila::exec::ExecEnv;
    use tukwila::storage::FileSpillStore;

    let deployment = TpchDeployment::builder(0.004, 115)
        .tables(&[TpchTable::Part, TpchTable::Partsupp])
        .build();
    let query = deployment.query_for("file-spill", &[TpchTable::Part, TpchTable::Partsupp]);

    // assemble a system manually so we can swap the spill store
    let reformulator = Reformulator::new(deployment.mediated.clone());
    let config = OptimizerConfig {
        policy: PipelinePolicy::FullyPipelined,
        join_memory_budget: 64 << 10,
        ..OptimizerConfig::default()
    };
    let optimizer = Optimizer::new(deployment.catalog.clone(), config);
    let env = ExecEnv::new(deployment.registry.clone())
        .with_spill(Arc::new(FileSpillStore::new().unwrap()));
    let spill = env.spill.clone();
    let system = TukwilaSystem::new(reformulator, optimizer, env);

    let result = system.execute(&query).expect("file-spill query");
    let gold = deployment.gold(&query).unwrap();
    assert!(result.relation.bag_eq_unordered(&gold));
    assert!(
        spill.stats().tuples_written() > 0,
        "the tight budget must force real file spills"
    );
}
