//! The multi-query service front door.
//!
//! [`QueryService`] turns the single-query [`TukwilaSystem`] library into a
//! concurrent service:
//!
//! * **admission control** — at most `workers` queries execute at once; up
//!   to `queue_capacity` more wait in FIFO order; beyond that submissions
//!   are rejected immediately with an `admission` error (backpressure, not
//!   unbounded queueing);
//! * a **worker pool** — each worker drains one query's full reformulate →
//!   optimize → execute → re-optimize loop through the shared
//!   [`TukwilaSystem`] (planning takes a short lock; no global lock is
//!   held across fragment execution);
//! * **per-query deadlines and cancellation** — a wall-clock deadline set
//!   at submission (or [`QueryServiceConfig::default_deadline`]) cancels
//!   cleanly mid-fragment; the control's own timer trips the deadline even
//!   while a worker is blocked inside a slow source's link model;
//! * the **memory governor** — each query executes under a per-query
//!   budget granted from the fleet pool (see [`crate::MemoryGovernor`]);
//! * the optional **shared source-result cache** — installed into the
//!   system's source registry so concurrent queries over the same
//!   mediated relations fetch each slow wrapper result once.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crossbeam_channel::{bounded, Receiver, Sender};
use parking_lot::Mutex;

use tukwila_common::{Result, TukwilaError};
use tukwila_core::{ExecutionStats, QueryResult, TukwilaSystem};
use tukwila_exec::{CancelKind, QueryControl};
use tukwila_query::ConjunctiveQuery;
use tukwila_source::{CacheStats, SourceResultCache};
use tukwila_trace::{TraceEvent, TraceLevel};

use crate::governor::MemoryGovernor;

/// Service configuration.
#[derive(Debug, Clone)]
pub struct QueryServiceConfig {
    /// Worker threads — the bound on concurrently *executing* queries.
    pub workers: usize,
    /// Queries allowed to wait for a worker; submissions beyond
    /// `workers + queue_capacity` in flight are rejected (backpressure).
    pub queue_capacity: usize,
    /// Deadline applied to queries submitted without an explicit timeout.
    pub default_deadline: Option<Duration>,
    /// Fleet-wide memory budget in bytes (0 = unlimited).
    pub total_memory: usize,
    /// Per-query memory budget in bytes granted from the fleet pool.
    pub query_memory: usize,
    /// Install a shared source-result cache with this byte budget
    /// (`None` = no cross-query caching).
    pub cache_memory: Option<usize>,
    /// Intra-query thread budget granted to each executing query's
    /// fragment scheduler and exchange operators. `0` = auto: available
    /// cores divided by the worker count (the active-query estimate),
    /// minimum 1 — so a 16-client run does not oversubscribe the box.
    pub intra_query_threads: usize,
    /// Trace level installed on every admitted query's control: `Off`
    /// disables recording, `Events` (default) records the structured
    /// event timeline, `Metrics` adds per-operator counters.
    pub trace_level: TraceLevel,
    /// Worker process addresses (`host:port`) for distributed execution.
    /// Non-empty makes this service a coordinator: exchanges over joins
    /// scatter their partition pipelines to these workers over TCP
    /// instead of local threads, each shard budgeted with its slice of
    /// the query's memory grant. Workers are dialed lazily per query, so
    /// the service starts even while workers are still coming up.
    pub remote_workers: Vec<String>,
}

impl Default for QueryServiceConfig {
    fn default() -> Self {
        QueryServiceConfig {
            workers: 4,
            queue_capacity: 16,
            default_deadline: None,
            total_memory: 256 << 20,
            query_memory: 32 << 20,
            cache_memory: Some(32 << 20),
            intra_query_threads: 0,
            trace_level: TraceLevel::Events,
            remote_workers: Vec::new(),
        }
    }
}

/// Resolve the effective per-query thread budget for a service
/// configuration: the explicit setting, or cores / workers (min 1).
fn resolve_intra_query_threads(config: &QueryServiceConfig) -> usize {
    if config.intra_query_threads > 0 {
        return config.intra_query_threads;
    }
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    (cores / config.workers.max(1)).max(1)
}

/// Per-submission options.
#[derive(Debug, Clone, Default)]
pub struct QueryOptions {
    /// Wall-clock budget from submission; overrides the config default.
    /// The deadline covers queue wait *and* execution.
    pub timeout: Option<Duration>,
}

impl QueryOptions {
    /// Options with a `timeout(n)`-style wall-clock deadline.
    pub fn with_timeout(timeout: Duration) -> Self {
        QueryOptions {
            timeout: Some(timeout),
        }
    }
}

/// What came back for one submitted query.
#[derive(Debug)]
pub struct QueryResponse {
    /// Submission id.
    pub id: u64,
    /// The result, or why there is none.
    pub outcome: Result<QueryResult>,
    /// Execution statistics — populated (partially) even when the query
    /// failed, timed out, or was cancelled.
    pub stats: ExecutionStats,
}

impl QueryResponse {
    /// Whether the query produced a result.
    pub fn is_ok(&self) -> bool {
        self.outcome.is_ok()
    }
}

/// Handle to one admitted query.
pub struct QueryTicket {
    id: u64,
    control: Arc<QueryControl>,
    rx: Receiver<QueryResponse>,
}

impl QueryTicket {
    /// Submission id.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Cancel the query (no-op if it already finished).
    pub fn cancel(&self) {
        self.control.cancel(CancelKind::User);
    }

    /// Block until the query finishes and take its response.
    pub fn wait(self) -> QueryResponse {
        let id = self.id;
        self.rx.recv().unwrap_or_else(|_| QueryResponse {
            id,
            outcome: Err(TukwilaError::Internal(
                "service dropped before responding".into(),
            )),
            stats: ExecutionStats::default(),
        })
    }
}

/// Service-level counters (monotonic since service start).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServiceStats {
    /// Queries accepted by admission control.
    pub submitted: u64,
    /// Submissions rejected at the front door (queue full).
    pub rejected: u64,
    /// Queries that returned a result.
    pub completed: u64,
    /// Queries that failed with an engine error (including rule aborts).
    pub failed: u64,
    /// Queries cancelled by the client or service shutdown.
    pub cancelled: u64,
    /// Queries that hit their submission deadline.
    pub timed_out: u64,
    /// Currently waiting for a worker.
    pub queued: usize,
    /// Currently executing.
    pub running: usize,
    /// Effective intra-query thread budget each executing query runs with
    /// (resolved from config or the cores/workers estimate).
    pub intra_query_threads: usize,
    /// Warn-severity static-analysis findings summed over every plan the
    /// service ran (per-query counts are on each response's
    /// [`ExecutionStats::plan_diag_warnings`]). Error findings never
    /// execute, so they surface as failed queries, not here.
    pub plan_diag_warnings: u64,
    /// Info-severity static-analysis findings summed over every plan run.
    pub plan_diag_infos: u64,
    /// Deepest the admission queue has ever been (queued high-water).
    pub queue_depth_high_water: usize,
    /// Trace events recorded across every query the service ran (0 when
    /// the configured [`QueryServiceConfig::trace_level`] is `Off`).
    pub trace_events: u64,
}

#[derive(Default)]
struct Counters {
    submitted: AtomicU64,
    rejected: AtomicU64,
    completed: AtomicU64,
    failed: AtomicU64,
    cancelled: AtomicU64,
    timed_out: AtomicU64,
    plan_diag_warnings: AtomicU64,
    plan_diag_infos: AtomicU64,
    trace_events: AtomicU64,
}

struct Job {
    id: u64,
    query: ConjunctiveQuery,
    control: Arc<QueryControl>,
    submitted: Instant,
    reply: Sender<QueryResponse>,
}

struct Inner {
    system: TukwilaSystem,
    governor: MemoryGovernor,
    cache: Option<SourceResultCache>,
    config: QueryServiceConfig,
    /// Resolved per-query thread budget (config or cores/workers).
    intra_query_threads: usize,
    queued: AtomicUsize,
    /// Deepest `queued` has ever been.
    queue_high_water: AtomicUsize,
    running: AtomicUsize,
    /// Admitted and not yet responded (queued + running + handoff gaps);
    /// the quantity admission control bounds.
    in_flight: AtomicUsize,
    next_id: AtomicU64,
    /// Controls of admitted-but-unfinished queries, cancelled in bulk on
    /// shutdown.
    active: Mutex<HashMap<u64, Arc<QueryControl>>>,
    counters: Counters,
}

/// A concurrent multi-query service over one [`TukwilaSystem`].
pub struct QueryService {
    inner: Arc<Inner>,
    tx: Option<Sender<Job>>,
    workers: Vec<JoinHandle<()>>,
}

impl QueryService {
    /// Start the service over `system`: spawns the worker pool, wires the
    /// governor, and (if configured) installs the shared source-result
    /// cache into the system's source registry.
    pub fn new(mut system: TukwilaSystem, config: QueryServiceConfig) -> Self {
        let config = QueryServiceConfig {
            workers: config.workers.max(1),
            ..config
        };
        if !config.remote_workers.is_empty() {
            system.install_transport(Arc::new(tukwila_net::Cluster::new(&config.remote_workers)));
        }
        let governor = MemoryGovernor::new(config.total_memory);
        let cache = match config.cache_memory {
            Some(budget) => {
                let cache =
                    SourceResultCache::with_reservation(governor.grant("source_cache", budget));
                system.env().sources.set_cache(cache.clone());
                Some(cache)
            }
            // cache_memory: None installs nothing and leaves any cache a
            // *live* co-owner installed on this shared registry alone —
            // a dropped owner uninstalls its own cache (see Drop), so no
            // stale cache can linger either way.
            None => None,
        };

        let intra_query_threads = resolve_intra_query_threads(&config);
        let inner = Arc::new(Inner {
            system,
            governor,
            cache,
            config: config.clone(),
            intra_query_threads,
            queued: AtomicUsize::new(0),
            queue_high_water: AtomicUsize::new(0),
            running: AtomicUsize::new(0),
            in_flight: AtomicUsize::new(0),
            next_id: AtomicU64::new(1),
            active: Mutex::new(HashMap::new()),
            counters: Counters::default(),
        });

        // Capacity covers everything admission lets through, so `send`
        // never blocks a submitting client.
        let (tx, rx) = bounded::<Job>(config.workers + config.queue_capacity + 1);
        let workers = (0..config.workers)
            .map(|_| {
                let inner = inner.clone();
                let rx = rx.clone();
                std::thread::spawn(move || worker_loop(inner, rx))
            })
            .collect();
        QueryService {
            inner,
            tx: Some(tx),
            workers,
        }
    }

    /// Submit with default options.
    pub fn submit(&self, query: &ConjunctiveQuery) -> Result<QueryTicket> {
        self.submit_with(query, QueryOptions::default())
    }

    /// Submit a query. Admission control applies immediately: at most
    /// `workers + queue_capacity` queries may be in flight (executing or
    /// waiting); beyond that the submission is rejected with an
    /// `admission` error rather than queued unboundedly.
    pub fn submit_with(
        &self,
        query: &ConjunctiveQuery,
        options: QueryOptions,
    ) -> Result<QueryTicket> {
        let inner = &self.inner;
        let cap = inner.config.workers + inner.config.queue_capacity;
        if inner
            .in_flight
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| {
                (n < cap).then_some(n + 1)
            })
            .is_err()
        {
            inner.counters.rejected.fetch_add(1, Ordering::Relaxed);
            return Err(TukwilaError::Admission(format!(
                "in-flight bound reached ({} queued, {} running, cap {cap})",
                inner.queued.load(Ordering::Relaxed),
                inner.running.load(Ordering::Relaxed)
            )));
        }
        let depth = inner.queued.fetch_add(1, Ordering::Relaxed) + 1;
        inner.queue_high_water.fetch_max(depth, Ordering::Relaxed);

        let id = inner.next_id.fetch_add(1, Ordering::Relaxed);
        let deadline = options.timeout.or(inner.config.default_deadline);
        let level = inner.config.trace_level;
        let control = match deadline {
            Some(d) => QueryControl::with_deadline_traced(d, level),
            None => QueryControl::unbounded_traced(level),
        };
        let trace = control.trace();
        if trace.events_enabled() {
            trace.emit(TraceEvent::AdmissionEnqueued {
                queued: depth as u64,
            });
        }
        inner.active.lock().insert(id, control.clone());
        inner.counters.submitted.fetch_add(1, Ordering::Relaxed);

        let (reply, rx) = bounded(1);
        let job = Job {
            id,
            query: query.clone(),
            control: control.clone(),
            submitted: Instant::now(),
            reply,
        };
        let tx = self
            .tx
            .as_ref()
            .expect("sender lives as long as the service");
        if tx.send(job).is_err() {
            inner.queued.fetch_sub(1, Ordering::Relaxed);
            inner.in_flight.fetch_sub(1, Ordering::Relaxed);
            inner.active.lock().remove(&id);
            return Err(TukwilaError::Internal("service worker pool is down".into()));
        }
        Ok(QueryTicket { id, control, rx })
    }

    /// Submit and block for the response (convenience for tests/tools).
    pub fn execute(&self, query: &ConjunctiveQuery) -> QueryResponse {
        match self.submit(query) {
            Ok(t) => t.wait(),
            Err(e) => QueryResponse {
                id: 0,
                outcome: Err(e),
                stats: ExecutionStats::default(),
            },
        }
    }

    /// Service counters.
    pub fn stats(&self) -> ServiceStats {
        let c = &self.inner.counters;
        ServiceStats {
            submitted: c.submitted.load(Ordering::Relaxed),
            rejected: c.rejected.load(Ordering::Relaxed),
            completed: c.completed.load(Ordering::Relaxed),
            failed: c.failed.load(Ordering::Relaxed),
            cancelled: c.cancelled.load(Ordering::Relaxed),
            timed_out: c.timed_out.load(Ordering::Relaxed),
            queued: self.inner.queued.load(Ordering::Relaxed),
            running: self.inner.running.load(Ordering::Relaxed),
            intra_query_threads: self.inner.intra_query_threads,
            plan_diag_warnings: c.plan_diag_warnings.load(Ordering::Relaxed),
            plan_diag_infos: c.plan_diag_infos.load(Ordering::Relaxed),
            queue_depth_high_water: self.inner.queue_high_water.load(Ordering::Relaxed),
            trace_events: c.trace_events.load(Ordering::Relaxed),
        }
    }

    /// The memory governor.
    pub fn governor(&self) -> &MemoryGovernor {
        &self.inner.governor
    }

    /// Shared source-result cache counters, if a cache is installed.
    pub fn cache_stats(&self) -> Option<CacheStats> {
        self.inner.cache.as_ref().map(|c| c.stats())
    }

    /// The shared [`TukwilaSystem`] (catalog inspection etc.).
    pub fn system(&self) -> &TukwilaSystem {
        &self.inner.system
    }

    /// Stop accepting work, cancel in-flight queries, and join the worker
    /// pool. Equivalent to dropping the service.
    pub fn shutdown(self) {}
}

impl Drop for QueryService {
    fn drop(&mut self) {
        // Cancel whatever is still running so workers unblock promptly.
        for control in self.inner.active.lock().values() {
            control.cancel(CancelKind::Shutdown);
        }
        // Closing the channel ends every worker's recv loop.
        self.tx.take();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
        // Uninstall the cache this service owns (identity-guarded: never
        // clobbers a cache another service installed since): its entries
        // are charged to this service's governor, and a later service
        // over the same registry must start from a clean slate.
        if let Some(cache) = &self.inner.cache {
            self.inner.system.env().sources.uninstall_cache(cache);
        }
    }
}

fn worker_loop(inner: Arc<Inner>, rx: Receiver<Job>) {
    while let Ok(job) = rx.recv() {
        inner.queued.fetch_sub(1, Ordering::Relaxed);
        inner.running.fetch_add(1, Ordering::Relaxed);

        let mut stats = ExecutionStats {
            queue_wait: job.submitted.elapsed(),
            ..ExecutionStats::default()
        };
        let outcome = match job.control.check() {
            // Deadline passed (or cancelled) while still queued.
            Err(e) => {
                match e.kind() {
                    "deadline_exceeded" => stats.deadline_exceeded = true,
                    "cancelled" => stats.cancelled = true,
                    _ => {}
                }
                Err(e)
            }
            Ok(()) => {
                let trace = job.control.trace();
                if trace.events_enabled() {
                    trace.emit(TraceEvent::AdmissionDequeued {
                        waited_ms: stats.queue_wait.as_millis() as u64,
                    });
                }
                let pool = inner
                    .governor
                    .query_pool(format!("q{}", job.id), inner.config.query_memory);
                if trace.events_enabled() {
                    // Grants are soft (reservation budgets clamp via
                    // pressure, not refusal): record whether the fleet pool
                    // actually had this query's share left.
                    let snap = inner.governor.snapshot();
                    let ask = inner.config.query_memory;
                    let fits = snap.total_budget == 0 || snap.total_used + ask <= snap.total_budget;
                    trace.emit(if fits {
                        TraceEvent::ReservationGranted { bytes: ask as u64 }
                    } else {
                        TraceEvent::ReservationDenied { bytes: ask as u64 }
                    });
                    if snap.total_budget > 0 && snap.total_used > snap.total_budget {
                        trace.emit(TraceEvent::GovernorPressure {
                            used: snap.total_used as u64,
                            budget: snap.total_budget as u64,
                        });
                    }
                }
                let env = inner
                    .system
                    .env()
                    .for_query_with_memory(pool)
                    .with_threads(inner.intra_query_threads);
                inner
                    .system
                    .execute_in_env(&job.query, &job.control, env, &mut stats)
            }
        };
        inner
            .counters
            .trace_events
            .fetch_add(job.control.trace().recorded(), Ordering::Relaxed);

        let c = &inner.counters;
        c.plan_diag_warnings
            .fetch_add(stats.plan_diag_warnings as u64, Ordering::Relaxed);
        c.plan_diag_infos
            .fetch_add(stats.plan_diag_infos as u64, Ordering::Relaxed);
        match &outcome {
            Ok(_) => c.completed.fetch_add(1, Ordering::Relaxed),
            Err(_) if stats.deadline_exceeded => c.timed_out.fetch_add(1, Ordering::Relaxed),
            Err(_) if stats.cancelled => c.cancelled.fetch_add(1, Ordering::Relaxed),
            Err(_) => c.failed.fetch_add(1, Ordering::Relaxed),
        };

        inner.active.lock().remove(&job.id);
        inner.running.fetch_sub(1, Ordering::Relaxed);
        inner.in_flight.fetch_sub(1, Ordering::Relaxed);
        let _ = job.reply.send(QueryResponse {
            id: job.id,
            outcome,
            stats,
        });
    }
}
