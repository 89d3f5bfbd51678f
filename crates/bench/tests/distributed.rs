//! Distributed execution against workers that hold their own data: a
//! coordinator with an empty source registry scatters an exchange to two
//! `WorkerServer`s, each serving the workload from a registry of its own.
//!
//! Two guarantees are pinned here, beyond what the shared-registry
//! loopback tests in `tukwila-net` cover:
//!
//! * the gathered union is multiset-equal to the local join, though no
//!   input row is at the coordinator;
//! * a worker stopped mid-query surfaces as a `TukwilaError` at the
//!   coordinator — not a hang — and the dead shard's lease on the
//!   coordinator's memory governor is released.

use std::sync::Arc;
use std::time::{Duration, Instant};

use tukwila_common::testing::multiset;
use tukwila_common::{tuple, DataType, Relation, Result, Schema, Tuple};
use tukwila_exec::runtime::PlanRuntime;
use tukwila_exec::{build_operator, drain, ExecEnv};
use tukwila_net::{Cluster, WorkerHandle, WorkerServer};
use tukwila_plan::{JoinKind, PlanBuilder, QueryPlan};
use tukwila_source::{LinkModel, SimulatedSource, SourceRegistry};

/// `n` tuples `(i % dup, i)` under schema `name(k, v)`.
fn relation(name: &str, n: i64, dup: i64) -> Relation {
    let schema = Schema::of(name, &[("k", DataType::Int), ("v", DataType::Int)]);
    let mut r = Vec::new();
    for i in 0..n {
        r.push(tuple![i % dup.max(1), i]);
    }
    Relation::new(schema, r).unwrap()
}

/// The workload's two sources, `L` and `R`, each `n` rows over `dup`
/// distinct keys. `pace` throttles the simulated link per tuple — non-zero
/// to stretch a query long enough to stop a worker mid-flight.
fn registry(n: i64, dup: i64, pace: Duration) -> SourceRegistry {
    let link = LinkModel {
        per_tuple: pace,
        ..LinkModel::instant()
    };
    let reg = SourceRegistry::new();
    reg.register(SimulatedSource::new(
        "L",
        relation("l", n, dup),
        link.clone(),
    ));
    reg.register(SimulatedSource::new("R", relation("r", n, dup), link));
    reg
}

/// A worker serving the `(n, dup, pace)` workload from its own registry.
fn worker(n: i64, dup: i64, pace: Duration) -> WorkerHandle {
    WorkerServer::bind("127.0.0.1:0", registry(n, dup, pace))
        .expect("bind a worker")
        .spawn()
        .expect("spawn a worker")
}

/// `L ⋈ R on k` under an exchange of `partitions` shards. A `budget`
/// yields a join memory reservation, which the exchange slices into
/// per-shard leases on the coordinator's governor.
fn plan(partitions: usize, budget: Option<usize>) -> QueryPlan {
    let mut b = PlanBuilder::new();
    let l = b.wrapper_scan("L");
    let r = b.wrapper_scan("R");
    let mut j = b.join(JoinKind::HybridHash, l, r, "k", "k");
    if let Some(bytes) = budget {
        j = j.with_memory(bytes);
    }
    let x = b.exchange(j, partitions);
    let f = b.fragment(x, "out");
    b.build(f)
}

/// Coordinator environment: an empty registry, and the cluster over
/// `workers` installed as the partition transport.
fn coordinator_env(workers: &[&WorkerHandle], batch: usize) -> ExecEnv {
    let addrs: Vec<String> = workers.iter().map(|w| w.addr()).collect();
    let cluster = Cluster::connect(&addrs).expect("dial the cluster");
    ExecEnv::new(SourceRegistry::new())
        .with_batch_size(batch)
        .with_transport(Arc::new(cluster))
}

/// Build and drain the plan's single fragment in `env`.
fn run_plan(env: ExecEnv, plan: &QueryPlan) -> Result<Vec<Tuple>> {
    let rt = PlanRuntime::for_plan(plan, env);
    let mut op = build_operator(&plan.fragments[0].root, &rt)?;
    drain(op.as_mut())
}

#[test]
fn workers_with_their_own_data_match_local_reference() {
    let (rows, dup, batch) = (2_000i64, 200i64, 256usize);
    let w1 = worker(rows, dup, Duration::ZERO);
    let w2 = worker(rows, dup, Duration::ZERO);

    let plan = plan(2, None);
    let got = run_plan(coordinator_env(&[&w1, &w2], batch), &plan).expect("distributed run");
    let local = ExecEnv::new(registry(rows, dup, Duration::ZERO)).with_batch_size(batch);
    let gold = run_plan(local, &plan).expect("local reference run");
    assert_eq!(
        multiset(&got),
        multiset(&gold),
        "distributed result diverged from local ({} vs {} tuples)",
        got.len(),
        gold.len()
    );
}

#[test]
fn stopped_worker_surfaces_error_and_frees_governor_memory() {
    // Paced sources stretch each shard to many seconds, so the stop lands
    // mid-query with certainty.
    let (rows, pace, batch) = (20_000i64, Duration::from_micros(300), 64usize);
    let w1 = worker(rows, rows, pace);
    let w2 = worker(rows, rows, pace);

    // The join budget gives every shard a lease on the coordinator's
    // governor; the dead shard's lease must come back.
    let plan = plan(2, Some(64 * 1024));
    let env = coordinator_env(&[&w1, &w2], batch);
    let mem = env.memory.clone();

    let query = std::thread::spawn(move || run_plan(env, &plan));
    std::thread::sleep(Duration::from_millis(400));
    w2.shutdown();

    // The coordinator must notice the loss promptly — a hang here is the
    // exact failure mode this test exists to catch.
    let deadline = Instant::now() + Duration::from_secs(30);
    while !query.is_finished() {
        assert!(
            Instant::now() < deadline,
            "coordinator still blocked 30s after the worker stopped"
        );
        std::thread::sleep(Duration::from_millis(50));
    }
    let err = query
        .join()
        .expect("query thread panicked")
        .expect_err("worker loss must surface as an error, not a result");
    let msg = err.to_string();
    assert!(
        msg.contains("died mid-query") || msg.contains("net:"),
        "unexpected error for a stopped worker: {msg}"
    );
    assert_eq!(
        mem.total_used(),
        0,
        "dead shard's governor lease was not released"
    );
}
