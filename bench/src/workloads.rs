//! The five workloads: what each deploys, asks, and how it is served.
//!
//! Everything a workload needs is generated from `--seed` by
//! `TpchDeployment::builder(sf, seed)`; the engine sees only the generated
//! tables. All five are closed loops (a client sends its next query only
//! after the previous answer arrived) driven from this one process.

use std::io::{BufRead, BufReader};
use std::process::{Child, ChildStdin, Command, Stdio};
use std::time::Duration;

use tukwila_common::Relation;
use tukwila_core::TpchDeployment;
use tukwila_opt::OptimizerConfig;
use tukwila_query::ConjunctiveQuery;
use tukwila_service::{QueryService, QueryServiceConfig};
use tukwila_source::LinkModel;
use tukwila_tpchgen::TpchTable::{self, Nation, Part, Partsupp, Region, Supplier};
use tukwila_trace::TraceLevel;

/// Workload names, in the order `run.sh` runs them.
pub const WORKLOADS: [&str; 5] = [
    "cpu_join",
    "spill_join",
    "small_queries",
    "wan_mix",
    "dist_join",
];

/// One workload's fixed shape.
pub struct Spec {
    pub name: &'static str,
    /// TPC-H scale factor. 0.01 for the CPU-bound workloads: at 0.02 and
    /// above the working set leaves cache and back-to-back runs on the
    /// 2-core box swing 18-30 % (README, "Sizing").
    pub sf: f64,
    pub tables: &'static [TpchTable],
    pub default_link: LinkModel,
    pub links: Vec<(TpchTable, LinkModel)>,
    /// The query mix, run round-robin: `(name, tables joined)`.
    pub queries: &'static [(&'static str, &'static [TpchTable])],
    pub optimizer: OptimizerConfig,
    pub service: QueryServiceConfig,
    /// Serve exchanges from one `bench_worker` child process.
    pub remote: bool,
    /// Closed-loop client threads (never more than the box's 2 cores).
    pub clients: usize,
    /// Confine the whole process to one core. For `small_queries` only:
    /// its 0.1 ms queries are a chain of thread hand-offs, and on this VM a
    /// cross-core wake-up costs more than the query (0.09 ms confined,
    /// 0.25 ms free, flipping between the two as the scheduler moves
    /// threads), so unconfined it measures the hypervisor, not the engine.
    pub one_core: bool,
    /// Measured queries, all clients together, per second of `--seconds`.
    /// Calibrated on the 2-core box so the measured phase lasts about
    /// `--seconds`; the count is fixed by this constant, never by a clock,
    /// so two commits run with the same `--seconds` do identical work.
    pub queries_per_second: f64,
}

/// Sequential planning whatever `TUKWILA_THREADS` says.
fn sequential() -> OptimizerConfig {
    OptimizerConfig {
        max_parallelism: 1,
        ..OptimizerConfig::default()
    }
}

/// A service that adds as little as it can: no cache, no trace, one
/// thread per query.
fn quiet_service(workers: usize) -> QueryServiceConfig {
    QueryServiceConfig {
        workers,
        intra_query_threads: 1,
        cache_memory: None,
        trace_level: TraceLevel::Off,
        ..QueryServiceConfig::default()
    }
}

const JOIN3: &[(&str, &[TpchTable])] = &[("sup_ps_part", &[Supplier, Partsupp, Part])];

/// Look a workload up by name.
pub fn spec(name: &str) -> Option<Spec> {
    let instant = LinkModel::instant;
    Some(match name {
        "cpu_join" => Spec {
            name: "cpu_join",
            sf: 0.01,
            tables: &[Supplier, Partsupp, Part],
            default_link: instant(),
            links: vec![],
            queries: JOIN3,
            optimizer: sequential(),
            service: quiet_service(1),
            remote: false,
            clients: 1,
            one_core: false,
            queries_per_second: 220.0,
        },
        "spill_join" => Spec {
            name: "spill_join",
            sf: 0.01,
            tables: &[Supplier, Partsupp, Part],
            default_link: instant(),
            links: vec![],
            queries: JOIN3,
            optimizer: OptimizerConfig {
                join_memory_budget: 256 << 10,
                ..sequential()
            },
            service: quiet_service(1),
            remote: false,
            clients: 1,
            one_core: false,
            queries_per_second: 155.0,
        },
        "small_queries" => Spec {
            name: "small_queries",
            sf: 0.01,
            tables: &[Region, Nation, Supplier],
            default_link: instant(),
            links: vec![],
            queries: &[
                ("reg_nat", &[Region, Nation]),
                ("nat_sup", &[Nation, Supplier]),
                ("reg_nat_sup", &[Region, Nation, Supplier]),
            ],
            optimizer: sequential(),
            // the service as shipped: cache on, trace at Events
            service: QueryServiceConfig {
                workers: 1,
                ..QueryServiceConfig::default()
            },
            remote: false,
            clients: 1,
            one_core: true,
            queries_per_second: 9000.0,
        },
        "wan_mix" => {
            let wan = LinkModel {
                initial_delay: Duration::from_millis(20),
                ..instant()
            };
            let bursty = LinkModel {
                burst_size: 200,
                burst_gap: Duration::from_millis(2),
                ..wan.clone()
            };
            Spec {
                name: "wan_mix",
                sf: 0.01,
                tables: &[Region, Nation, Supplier, Partsupp, Part],
                default_link: wan,
                links: vec![(Partsupp, bursty.clone()), (Part, bursty)],
                queries: &[
                    ("small", &[Supplier, Nation]),
                    ("medium", &[Region, Nation, Supplier]),
                    ("large", &[Nation, Supplier, Partsupp, Part]),
                ],
                optimizer: sequential(),
                service: quiet_service(2),
                remote: false,
                clients: 2,
                one_core: false,
                queries_per_second: 43.0,
            }
        }
        "dist_join" => Spec {
            name: "dist_join",
            // Kept small on purpose: above ~5 batches per shard the remote
            // path fails every time (README, "Defects found while sizing").
            sf: 0.001,
            tables: &[Supplier, Partsupp],
            default_link: instant(),
            links: vec![],
            queries: &[("sup_ps", &[Supplier, Partsupp])],
            optimizer: OptimizerConfig {
                max_parallelism: 2,
                parallel_min_rows: 1,
                ..OptimizerConfig::default()
            },
            service: quiet_service(1),
            remote: true,
            clients: 1,
            one_core: false,
            queries_per_second: 95.0,
        },
        _ => return None,
    })
}

impl Spec {
    /// Generate the deployment. The worker child calls this with the same
    /// seed, so both sides of the wire hold identical tables.
    pub fn deployment(&self, seed: u64) -> TpchDeployment {
        let mut b = TpchDeployment::builder(self.sf, seed)
            .tables(self.tables)
            .default_link(self.default_link.clone());
        for (table, link) in &self.links {
            b = b.link(*table, link.clone());
        }
        b.build()
    }

    /// Measured queries for a run of `seconds`, all clients together.
    pub fn measured_queries(&self, seconds: f64) -> usize {
        (self.queries_per_second * seconds).round() as usize
    }
}

/// A generated workload: data, gold answers and, for `dist_join`, the
/// worker child. The service under test comes from [`Ctx::service`]; its
/// owner drops it before this, so no query is in flight when the worker
/// goes.
pub struct Ctx {
    pub worker: Option<WorkerChild>,
    pub deployment: TpchDeployment,
    pub queries: Vec<ConjunctiveQuery>,
    pub gold: Vec<Relation>,
}

impl Ctx {
    /// Generate data and gold answers (and start the worker).
    pub fn start(spec: &Spec, seed: u64) -> Ctx {
        let deployment = spec.deployment(seed);
        let queries: Vec<ConjunctiveQuery> = spec
            .queries
            .iter()
            .map(|(name, tables)| deployment.query_for(name, tables))
            .collect();
        let gold = queries
            .iter()
            .map(|q| deployment.gold(q).expect("gold answer"))
            .collect();
        Ctx {
            worker: spec.remote.then(|| WorkerChild::spawn(spec.name, seed)),
            deployment,
            queries,
            gold,
        }
    }

    /// This process and, when there is one, the worker child.
    pub fn pids(&self) -> impl Iterator<Item = u32> + '_ {
        std::iter::once(std::process::id()).chain(self.worker.iter().map(|w| w.child.id()))
    }

    /// Start the workload's service, recording at `trace_level`. One at a
    /// time: a service owns the cache it installs in the deployment's
    /// shared source registry.
    pub fn service(&self, spec: &Spec, trace_level: TraceLevel) -> QueryService {
        QueryService::new(
            self.deployment.system(spec.optimizer.clone()),
            QueryServiceConfig {
                trace_level,
                remote_workers: self.worker.iter().map(|w| w.addr.clone()).collect(),
                ..spec.service.clone()
            },
        )
    }
}

/// The `bench_worker` child process, killed and reaped on drop. The worker
/// also exits when its stdin closes, so it cannot outlive this process
/// however that dies.
pub struct WorkerChild {
    child: Child,
    _stdin: Option<ChildStdin>,
    pub addr: String,
}

impl WorkerChild {
    fn spawn(workload: &str, seed: u64) -> WorkerChild {
        let mut exe = std::env::current_exe().expect("own executable path");
        exe.set_file_name("bench_worker");
        let mut child = Command::new(&exe)
            .args(["--workload", workload, "--seed", &seed.to_string()])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .unwrap_or_else(|e| panic!("spawn {}: {e}", exe.display()));
        let mut line = String::new();
        BufReader::new(child.stdout.take().expect("piped stdout"))
            .read_line(&mut line)
            .expect("read the worker's port line");
        let port: u16 = line
            .trim()
            .strip_prefix("PORT ")
            .and_then(|p| p.parse().ok())
            .unwrap_or_else(|| panic!("worker printed {line:?}, expected `PORT <n>`"));
        WorkerChild {
            _stdin: child.stdin.take(),
            child,
            addr: format!("127.0.0.1:{port}"),
        }
    }
}

impl Drop for WorkerChild {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}
