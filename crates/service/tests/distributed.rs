//! Coordinator role at the service tier: a `QueryService` configured with
//! `remote_workers` scatters its exchanges to worker processes (loopback
//! harness here) and must return exactly the single-node reference result,
//! with the distributed trace events present in the query's timeline.

use std::sync::Arc;

use tukwila_core::TpchDeployment;
use tukwila_net::WorkerServer;
use tukwila_opt::OptimizerConfig;
use tukwila_service::{QueryService, QueryServiceConfig};
use tukwila_tpchgen::TpchTable;
use tukwila_trace::TraceLevel;

const SF: f64 = 0.005;

fn deployment() -> TpchDeployment {
    TpchDeployment::builder(SF, 17)
        .tables(&[TpchTable::Region, TpchTable::Nation, TpchTable::Supplier])
        .build()
}

/// Exchanges on every join, degree 2, regardless of estimates.
fn parallel_config() -> OptimizerConfig {
    OptimizerConfig {
        max_parallelism: 2,
        parallel_min_rows: 1,
        ..OptimizerConfig::default()
    }
}

#[test]
fn service_with_remote_workers_matches_reference() {
    let d = deployment();
    let system = d.system(parallel_config());
    let sources = system.env().sources.clone();

    // Two loopback workers sharing the coordinator's source registry.
    let w1 = WorkerServer::bind("127.0.0.1:0", sources.clone())
        .expect("bind w1")
        .spawn()
        .expect("spawn w1");
    let w2 = WorkerServer::bind("127.0.0.1:0", sources)
        .expect("bind w2")
        .spawn()
        .expect("spawn w2");

    let svc = Arc::new(QueryService::new(
        system,
        QueryServiceConfig {
            workers: 2,
            remote_workers: vec![w1.addr(), w2.addr()],
            trace_level: TraceLevel::Events,
            ..QueryServiceConfig::default()
        },
    ));

    let q = d.query_for(
        "dist",
        &[TpchTable::Region, TpchTable::Nation, TpchTable::Supplier],
    );
    let gold = d.gold(&q).expect("reference result");

    let resp = svc.submit(&q).expect("submit").wait();
    let result = resp
        .outcome
        .as_ref()
        .unwrap_or_else(|e| panic!("distributed query failed: {e}"));
    assert!(
        result.relation.bag_eq_unordered(&gold),
        "distributed service result diverged: got {} tuples, want {}",
        result.relation.len(),
        gold.len()
    );

    // The distributed taxonomy shows up in the query's own trace.
    let trace = result.trace.as_ref().expect("trace snapshot");
    let kinds: Vec<&str> = trace.events.iter().map(|r| r.event.kind()).collect();
    assert!(
        kinds.contains(&"worker-connected"),
        "missing worker-connected in {kinds:?}"
    );
    assert!(
        kinds.contains(&"net-batch-sent"),
        "missing net-batch-sent in {kinds:?}"
    );
    assert!(
        kinds.contains(&"net-batch-received"),
        "missing net-batch-received in {kinds:?}"
    );

    drop(svc);
    w1.shutdown();
    w2.shutdown();
}

/// A remote stream has a specified end: the worker half-closes after `Done`
/// and reads to the coordinator's EOF. Before that, any result above about
/// five batches per shard died with "connection closed" — every time at
/// these sizes (ROADMAP item 1a).
#[test]
fn remote_join_past_toy_size_matches_gold() {
    for sf in [0.003, 0.01] {
        let tables = [TpchTable::Supplier, TpchTable::Partsupp];
        let d = TpchDeployment::builder(sf, 23).tables(&tables).build();
        let system = d.system(parallel_config());
        let worker = WorkerServer::bind("127.0.0.1:0", system.env().sources.clone())
            .expect("bind worker")
            .spawn()
            .expect("spawn worker");
        let svc = QueryService::new(
            system,
            QueryServiceConfig {
                workers: 1,
                remote_workers: vec![worker.addr()],
                cache_memory: None,
                ..QueryServiceConfig::default()
            },
        );
        let q = d.query_for("dist", &tables);
        let gold = d.gold(&q).expect("reference result");
        let resp = svc.submit(&q).expect("submit").wait();
        let result = resp
            .outcome
            .as_ref()
            .unwrap_or_else(|e| panic!("SF {sf}: two-shard remote join failed: {e}"));
        assert!(
            result.relation.bag_eq_unordered(&gold),
            "SF {sf}: got {} tuples, want {}",
            result.relation.len(),
            gold.len()
        );
        assert!(
            result.stats.partitions >= 2,
            "SF {sf}: the join must have run as two shards"
        );
        drop(svc);
        worker.shutdown();
    }
}

#[test]
fn service_without_remote_workers_is_unchanged() {
    let d = deployment();
    let svc = QueryService::new(d.system(parallel_config()), QueryServiceConfig::default());
    let q = d.query_for("local", &[TpchTable::Nation, TpchTable::Supplier]);
    let gold = d.gold(&q).expect("reference result");
    let resp = svc.submit(&q).expect("submit").wait();
    let result = resp
        .outcome
        .as_ref()
        .unwrap_or_else(|e| panic!("local query failed: {e}"));
    assert!(result.relation.bag_eq_unordered(&gold));
}
