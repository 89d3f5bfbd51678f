//! Shared harness for the distributed-exchange benchmark and e2e tests.
//!
//! Both the `perf_smoke` `dist_speedup` scenario and the process-level
//! tests in `tests/distributed.rs` need the same deterministic workload on
//! both sides of the wire: the coordinator builds the exchange plan, and
//! each `dist_worker` process rebuilds the *identical* source registry
//! from its command line (`--rows/--dup/--pace-us`), so the cluster
//! agrees on the data without shipping it out of band.
//!
//! The coordinator's own registry stays empty — the scatter ships only the
//! plan text plus materialized `table_scan` dependencies, and this
//! workload has none: its wrapper scans are served from each worker's
//! registry.

use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::Arc;
use std::time::Duration;

use tukwila_common::{tuple, DataType, Relation, Result, Schema, TukwilaError, Tuple};
use tukwila_exec::runtime::PlanRuntime;
use tukwila_exec::{build_operator, drain, ExecEnv};
use tukwila_net::Cluster;
use tukwila_plan::{JoinKind, PlanBuilder, QueryPlan};
use tukwila_source::{LinkModel, SimulatedSource, SourceRegistry};

/// `n` tuples `(i % dup, i)` under schema `name(k, v)` — the same keyed
/// shape the rest of the bench suite uses.
pub fn dist_relation(name: &str, n: i64, dup: i64) -> Relation {
    let schema = Schema::of(name, &[("k", DataType::Int), ("v", DataType::Int)]);
    let mut r = Relation::empty(schema);
    for i in 0..n {
        r.push(tuple![i % dup.max(1), i]);
    }
    r
}

/// The workload's two sources, `L` and `R`, each `n` rows over `dup`
/// distinct keys. `pace` throttles the simulated link per tuple — zero for
/// CPU-bound speedup runs, non-zero to stretch a query long enough to kill
/// a worker mid-flight.
pub fn dist_registry(n: i64, dup: i64, pace: Duration) -> SourceRegistry {
    let link = LinkModel {
        per_tuple: pace,
        ..LinkModel::instant()
    };
    let reg = SourceRegistry::new();
    reg.register(SimulatedSource::new(
        "L",
        dist_relation("l", n, dup),
        link.clone(),
    ));
    reg.register(SimulatedSource::new("R", dist_relation("r", n, dup), link));
    reg
}

/// `L ⋈ R on k` under an exchange of `partitions` shards. A `budget`
/// yields a join memory reservation, which the exchange slices into
/// per-shard leases on the coordinator's governor.
pub fn dist_plan(partitions: usize, budget: Option<usize>) -> QueryPlan {
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

/// Coordinator environment: empty local registry, cluster dialed from
/// `addrs` installed as the partition transport.
pub fn coordinator_env(addrs: &[String], batch: usize) -> Result<ExecEnv> {
    let cluster = Cluster::connect(addrs)?;
    Ok(ExecEnv::new(SourceRegistry::new())
        .with_batch_size(batch)
        .with_transport(Arc::new(cluster)))
}

/// Build and drain the plan's single fragment in `env`.
pub fn run_plan(env: ExecEnv, plan: &QueryPlan) -> Result<Vec<Tuple>> {
    let rt = PlanRuntime::for_plan(plan, env);
    let mut op = build_operator(&plan.fragments[0].root, &rt)?;
    drain(op.as_mut())
}

/// Reference run: the same plan against a local registry, in process.
pub fn run_local(n: i64, dup: i64, plan: &QueryPlan, batch: usize) -> Result<Vec<Tuple>> {
    let env = ExecEnv::new(dist_registry(n, dup, Duration::ZERO)).with_batch_size(batch);
    run_plan(env, plan)
}

/// A `dist_worker` child process; killed (and reaped) on drop.
pub struct WorkerProc {
    child: Child,
    addr: String,
}

impl WorkerProc {
    /// `host:port` the worker is listening on.
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// Kill the worker now — the "worker dies mid-query" fault injection.
    pub fn kill(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for WorkerProc {
    fn drop(&mut self) {
        self.kill();
    }
}

/// Spawn `exe` as a worker serving the `(n, dup, pace)` workload and wait
/// for it to report its port (`PORT <n>` on stdout).
pub fn spawn_worker_process(exe: &Path, n: i64, dup: i64, pace: Duration) -> Result<WorkerProc> {
    let mut child = Command::new(exe)
        .arg("--rows")
        .arg(n.to_string())
        .arg("--dup")
        .arg(dup.to_string())
        .arg("--pace-us")
        .arg(pace.as_micros().to_string())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .map_err(|e| TukwilaError::Io(format!("spawn {}: {e}", exe.display())))?;
    let stdout = child.stdout.take().expect("piped stdout");
    let mut line = String::new();
    BufReader::new(stdout)
        .read_line(&mut line)
        .map_err(|e| TukwilaError::Io(format!("read worker port: {e}")))?;
    let port = line
        .trim()
        .strip_prefix("PORT ")
        .and_then(|p| p.parse::<u16>().ok())
        .ok_or_else(|| {
            let _ = child.kill();
            TukwilaError::Io(format!("worker printed {line:?}, expected `PORT <n>`"))
        })?;
    Ok(WorkerProc {
        child,
        addr: format!("127.0.0.1:{port}"),
    })
}

/// Path of the `dist_worker` binary next to the currently running one
/// (cargo puts all of a profile's binaries in the same directory), if it
/// has been built.
pub fn sibling_worker_exe() -> Option<PathBuf> {
    let mut p = std::env::current_exe().ok()?;
    p.set_file_name(format!("dist_worker{}", std::env::consts::EXE_SUFFIX));
    p.exists().then_some(p)
}
