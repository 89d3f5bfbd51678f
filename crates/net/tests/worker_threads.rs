//! No worker thread outlives `WorkerHandle::shutdown`.
//!
//! One test in its own binary, so no other test's workers are alive in the
//! process: `/proc/self/task/*/comm` must list no thread whose name
//! carries the worker's prefix once the worker is shut down, though the
//! coordinator still holds idle pooled connections to it.
#![cfg(target_os = "linux")]

use std::sync::Arc;

use tukwila_common::{DataType, Relation, Schema, Tuple, Value};
use tukwila_exec::build_operator;
use tukwila_exec::runtime::{ExecEnv, PlanRuntime};
use tukwila_net::worker::THREAD_PREFIX;
use tukwila_net::{Cluster, WorkerServer};
use tukwila_plan::{JoinKind, PlanBuilder};
use tukwila_source::{LinkModel, SimulatedSource, SourceRegistry};

/// Names of this process's live worker threads, sorted.
fn worker_threads() -> Vec<String> {
    let tasks = std::fs::read_dir("/proc/self/task").expect("list /proc/self/task");
    let mut names: Vec<String> = tasks
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .map(|comm| comm.trim().to_string())
        .filter(|name| name.starts_with(THREAD_PREFIX))
        .collect();
    names.sort();
    names
}

fn source(name: &str, rows: i64) -> SimulatedSource {
    let schema = Schema::of(name, &[("k", DataType::Int), ("v", DataType::Int)]);
    let mut rel = Vec::new();
    for i in 0..rows {
        rel.push(Tuple::new(vec![Value::Int(i % 10), Value::Int(i)]));
    }
    SimulatedSource::new(
        name,
        Relation::new(schema, rel).unwrap(),
        LinkModel::instant(),
    )
}

#[test]
fn shutdown_closes_idle_pooled_connections_and_joins_their_threads() {
    let reg = SourceRegistry::new();
    reg.register(source("L", 100));
    reg.register(source("R", 50));
    let worker = WorkerServer::bind("127.0.0.1:0", reg.clone())
        .expect("bind worker")
        .spawn()
        .expect("spawn worker");
    let cluster = Cluster::connect(&[worker.addr()]).expect("dial");
    let env = ExecEnv::new(reg).with_transport(Arc::new(cluster));

    let mut b = PlanBuilder::new();
    let (l, r) = (b.wrapper_scan("L"), b.wrapper_scan("R"));
    let j = b.join(JoinKind::HybridHash, l, r, "k", "k");
    let x = b.exchange(j, 2);
    let f = b.fragment(x, "out");
    let plan = b.build(f);
    for _ in 0..2 {
        let rt = PlanRuntime::for_plan(&plan, env.clone());
        let mut op = build_operator(&plan.fragments[0].root, &rt).expect("build");
        let rows = tukwila_exec::drain(op.as_mut()).expect("run").len();
        assert_eq!(rows, 100 * 5);
    }

    let conn = |role: &str| format!("{THREAD_PREFIX}{role}");
    assert_eq!(
        worker_threads(),
        [
            conn("accept"),
            conn("read"),
            conn("read"),
            conn("serve"),
            conn("serve")
        ],
        "two queries of two shards hold two idle connections"
    );
    worker.shutdown();
    assert_eq!(
        worker_threads(),
        Vec::<String>::new(),
        "worker threads outlived the shutdown"
    );
}
