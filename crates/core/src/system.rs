//! The interleaved planning and execution loop (§3).
//!
//! `TukwilaSystem::execute` is the paper's architecture in motion:
//!
//! 1. **Reformulate** the mediated-schema query into source-level leaves
//!    with disjunction (§2).
//! 2. **Optimize** — possibly into a *partial* plan when statistics are
//!    missing.
//! 3. **Execute fragments** one pipelined unit at a time, materializing
//!    results and collecting statistics.
//! 4. React to rule outcomes: **reschedule** blocked fragments behind
//!    runnable ones (query scrambling, §3.1.2), or **re-invoke the
//!    optimizer** with observed cardinalities — which replans incrementally
//!    from its saved search space (§6.5) and emits a corrected plan whose
//!    remaining work reuses the materializations already computed.
//!
//! The loop terminates when a complete plan's output fragment finishes, a
//! rule aborts the query, or the replan/retry budgets are exhausted.
//!
//! **Concurrency.** The system is shareable: every execution path takes
//! `&self`, the optimizer sits behind a mutex that is held only while
//! planning/replanning (never across fragment execution), and
//! [`TukwilaSystem::execute_in_env`] runs a query in a caller-provided
//! [`ExecEnv`] (fresh materialization namespace and memory pool, shared
//! sources/spill) so a service can drive many queries through one system
//! from many threads. The lifecycle is exposed as reusable stages —
//! [`TukwilaSystem::prepare`] (reformulate + optimize) and
//! [`TukwilaSystem::run_prepared`] (the fragment/replan loop) — which
//! `execute` merely composes.

use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::{Mutex, MutexGuard};

use tukwila_common::{Relation, Result, TukwilaError};
use tukwila_exec::{CancelKind, ExecEnv, PlanRuntime, QueryControl};
use tukwila_opt::{Observation, Optimizer, PlannedQuery};
use tukwila_plan::{OpState, OperatorSpec, QuantityProvider, QueryPlan, SubjectRef};
use tukwila_query::{ConjunctiveQuery, ReformulatedQuery, Reformulator};
use tukwila_trace::TraceEvent;

use crate::scheduler::{run_fragments, SchedOutcome};
use crate::stats::{ExecutionStats, QueryResult};

/// Maximum optimizer re-invocations per query.
const MAX_REPLANS: usize = 16;
/// Default maximum runs of a single fragment (rescheduling retries).
const MAX_FRAGMENT_RETRIES: usize = 3;

/// How one run of a plan ended.
enum PlanRun {
    /// The output fragment's materialization.
    Finished(Arc<Relation>),
    /// Re-optimize with these observations.
    Replan(Vec<Observation>),
}

/// A query after the reformulation and initial optimization stages: ready
/// for (repeated) fragment execution via [`TukwilaSystem::run_prepared`].
pub struct PreparedQuery {
    rq: ReformulatedQuery,
    planned: PlannedQuery,
}

impl PreparedQuery {
    /// The current plan (replaced on each replan).
    pub fn planned(&self) -> &PlannedQuery {
        &self.planned
    }
}

/// The Tukwila data integration system.
pub struct TukwilaSystem {
    reformulator: Reformulator,
    optimizer: Mutex<Optimizer>,
    env: ExecEnv,
    /// Maximum runs of a single fragment (rescheduling retries).
    pub max_fragment_retries: usize,
}

impl TukwilaSystem {
    /// Assemble a system from its components.
    pub fn new(reformulator: Reformulator, optimizer: Optimizer, env: ExecEnv) -> Self {
        TukwilaSystem {
            reformulator,
            optimizer: Mutex::new(optimizer),
            env,
            max_fragment_retries: MAX_FRAGMENT_RETRIES,
        }
    }

    /// The engine environment (local store, memory pool, spill store).
    pub fn env(&self) -> &ExecEnv {
        &self.env
    }

    /// Make this system a distributed coordinator: exchanges in every
    /// subsequent query (including per-query derived environments) run
    /// their partition pipelines on `transport` instead of local threads.
    pub fn install_transport(
        &mut self,
        transport: std::sync::Arc<dyn tukwila_exec::PartitionTransport>,
    ) {
        self.env.transport = transport;
    }

    /// The optimizer (for inspecting the catalog after observations).
    /// Holds the planning lock while the guard lives — do not keep it
    /// across fragment execution.
    pub fn optimizer(&self) -> MutexGuard<'_, Optimizer> {
        self.optimizer.lock()
    }

    /// Execute a conjunctive query over the mediated schema.
    pub fn execute(&self, query: &ConjunctiveQuery) -> Result<QueryResult> {
        let mut stats = ExecutionStats::default();
        let control = QueryControl::unbounded_traced(self.env.trace_level);
        self.execute_controlled(query, &control, &mut stats)
    }

    /// [`TukwilaSystem::execute`] under a caller-owned [`QueryControl`]
    /// (cancellation, deadline), accumulating into caller-owned stats so
    /// partial statistics survive a cancelled or failed run. Each call
    /// derives a per-query environment ([`ExecEnv::for_query`]), so
    /// concurrent calls on one shared system cannot collide on
    /// materialization names or pollute each other's memory/spill
    /// accounting.
    pub fn execute_controlled(
        &self,
        query: &ConjunctiveQuery,
        control: &Arc<QueryControl>,
        stats: &mut ExecutionStats,
    ) -> Result<QueryResult> {
        self.execute_in_env(query, control, self.env.for_query(), stats)
    }

    /// Execute in a caller-provided environment — the service path: each
    /// concurrent query gets a derived environment
    /// ([`ExecEnv::for_query`]) so materializations and memory accounting
    /// stay per-query while sources and spill storage are shared.
    pub fn execute_in_env(
        &self,
        query: &ConjunctiveQuery,
        control: &Arc<QueryControl>,
        env: ExecEnv,
        stats: &mut ExecutionStats,
    ) -> Result<QueryResult> {
        run_query(control, &env, stats, |stats, series| {
            control.check()?;
            let mut prepared = self.prepare(query)?;
            self.run_prepared(&mut prepared, control, &env, stats, series)
        })
    }

    /// Stage 1 of the lifecycle: reformulate the mediated-schema query and
    /// run the initial optimization. Holds the planning lock only for the
    /// duration of this call.
    pub fn prepare(&self, query: &ConjunctiveQuery) -> Result<PreparedQuery> {
        let mut opt = self.optimizer.lock();
        let rq = self.reformulator.reformulate(query, opt.catalog())?;
        let planned = opt.plan(&rq)?;
        Ok(PreparedQuery { rq, planned })
    }

    /// Stage 2 of the lifecycle: drive the prepared query's execute →
    /// observe → replan loop to a final relation. Re-invocations of the
    /// optimizer take the planning lock briefly; no lock is held across
    /// fragment execution.
    pub fn run_prepared(
        &self,
        prepared: &mut PreparedQuery,
        control: &Arc<QueryControl>,
        env: &ExecEnv,
        stats: &mut ExecutionStats,
        series: &mut Vec<(u64, Duration)>,
    ) -> Result<Arc<Relation>> {
        loop {
            series.clear();
            let analysis = &prepared.planned.lowered.analysis;
            stats.plan_diag_warnings += analysis.warn_count();
            stats.plan_diag_infos += analysis.count(tukwila_plan::diag::Severity::Info);
            let plan = &prepared.planned.lowered.plan;
            let run = run_plan(plan, control, env, self.max_fragment_retries, stats, series)?;
            match run {
                PlanRun::Finished(relation) => return Ok(relation),
                PlanRun::Replan(observations) => {
                    control.check()?;
                    if stats.replans >= MAX_REPLANS {
                        return Err(TukwilaError::Optimizer(format!(
                            "replan budget ({MAX_REPLANS}) exhausted"
                        )));
                    }
                    stats.replans += 1;
                    let fragments_before = prepared.planned.lowered.plan.fragments.len() as u32;
                    prepared.planned = self.optimizer.lock().replan(
                        &prepared.rq,
                        prepared.planned.memo.take(),
                        &observations,
                    )?;
                    if control.trace().events_enabled() {
                        control.trace().emit(TraceEvent::ReplanInstalled {
                            fragments_before,
                            fragments_after: prepared.planned.lowered.plan.fragments.len() as u32,
                        });
                    }
                }
            }
        }
    }
}

/// Execute a standalone, complete [`QueryPlan`] (no reformulation or
/// optimizer involvement) under `env`: the plan's dependency DAG runs on
/// the environment's intra-query thread budget, with the same stats, series
/// and trace as a query through [`TukwilaSystem`]. A plan whose rules
/// request re-optimization is a `Plan` error — there is no optimizer to
/// return to.
pub fn execute_plan(plan: &QueryPlan, env: ExecEnv) -> Result<QueryResult> {
    let control = QueryControl::unbounded_traced(env.trace_level);
    let mut stats = ExecutionStats::default();
    run_query(&control, &env, &mut stats, |stats, series| match run_plan(
        plan,
        &control,
        &env,
        MAX_FRAGMENT_RETRIES,
        stats,
        series,
    )? {
        PlanRun::Finished(relation) => Ok(relation),
        PlanRun::Replan(_) => Err(TukwilaError::Plan(
            "standalone plan requested re-optimization".into(),
        )),
    })
}

/// Run `body` as one query under `control` in `env`, then close its books:
/// spill I/O (as a delta, so a shared store counts only this query's
/// traffic), peak memory, duration, time to first, the cancellation flags,
/// the `query-completed` event and the trace snapshot.
fn run_query(
    control: &Arc<QueryControl>,
    env: &ExecEnv,
    stats: &mut ExecutionStats,
    body: impl FnOnce(&mut ExecutionStats, &mut Vec<(u64, Duration)>) -> Result<Arc<Relation>>,
) -> Result<QueryResult> {
    let started = Instant::now();
    let spill_base = env.spill.stats().snapshot();
    let mut series = Vec::new();
    let outcome = body(stats, &mut series);

    let io = env.spill.stats().snapshot().since(&spill_base);
    stats.spill_tuples_written = io.tuples_written;
    stats.spill_tuples_read = io.tuples_read;
    stats.spill_bytes_written = io.bytes_written;
    stats.spill_bytes_read = io.bytes_read;
    stats.peak_memory = env.memory.peak_used();
    stats.duration = started.elapsed();
    stats.time_to_first = stats.fragment_reports.last().and_then(|r| r.time_to_first);

    let trace = control.trace();
    match outcome {
        Ok(relation) => {
            if trace.events_enabled() {
                trace.emit(TraceEvent::QueryCompleted {
                    outcome: "ok".into(),
                });
            }
            let snapshot =
                (trace.events_enabled() || trace.metrics_enabled()).then(|| trace.snapshot());
            Ok(QueryResult {
                relation,
                stats: stats.clone(),
                series,
                trace: snapshot,
            })
        }
        Err(e) => {
            match (&e, control.cancelled()) {
                (TukwilaError::DeadlineExceeded { .. }, _) => {
                    stats.deadline_exceeded = true;
                }
                // A client/shutdown cancellation — distinct from a
                // rule-driven abort, which also surfaces as `Cancelled` but
                // without a tripped control.
                (TukwilaError::Cancelled(_), Some(kind)) if kind != CancelKind::Deadline => {
                    stats.cancelled = true;
                }
                _ => {}
            }
            if trace.events_enabled() {
                let outcome = if stats.deadline_exceeded {
                    "deadline"
                } else if stats.cancelled {
                    "cancelled"
                } else {
                    "error"
                };
                trace.emit(TraceEvent::QueryCompleted {
                    outcome: outcome.into(),
                });
            }
            Err(e)
        }
    }
}

/// Run one plan on the [`crate::scheduler`] to its output relation or to a
/// replan request.
fn run_plan(
    plan: &QueryPlan,
    control: &Arc<QueryControl>,
    env: &ExecEnv,
    max_retries: usize,
    stats: &mut ExecutionStats,
    series: &mut Vec<(u64, Duration)>,
) -> Result<PlanRun> {
    let rt = PlanRuntime::for_plan_controlled(plan, env.clone(), control.clone());
    let threads = env.intra_query_threads;
    match run_fragments(plan, &rt, threads, max_retries, stats, series)? {
        SchedOutcome::Finished if plan.complete => {
            let name = plan
                .fragment(plan.output)
                .map(|f| f.materialize_as.as_str())
                .ok_or_else(|| TukwilaError::Plan("plan has no output fragment".into()))?;
            Ok(PlanRun::Finished(env.local.get(name)?))
        }
        // A mid-plan replan request, or a partial plan that ran out of
        // planned work: hand observations back to the optimizer for the
        // next planning step (§3).
        _ => Ok(PlanRun::Replan(gather_observations(plan, &rt, env))),
    }
}

/// Collect the statistics the engine ships back to the optimizer (§3.2):
/// cardinalities of materialized fragments and of every source that was
/// read to completion.
fn gather_observations(plan: &QueryPlan, rt: &PlanRuntime, env: &ExecEnv) -> Vec<Observation> {
    let mut out = Vec::new();
    for f in &plan.fragments {
        let closed = rt.state(SubjectRef::Fragment(f.id)) == OpState::Closed;
        if closed && f.materialize_as.starts_with("mat_") {
            if let Some(card) = env.local.cardinality(&f.materialize_as) {
                out.push(Observation {
                    name: f.materialize_as.clone(),
                    cardinality: card,
                });
            }
        }
    }
    for f in &plan.fragments {
        f.root.walk(&mut |node| {
            let mut record = |source: &str, subject: SubjectRef| {
                if rt.state(subject) == OpState::Closed {
                    out.push(Observation {
                        name: source.to_string(),
                        cardinality: rt.produced(subject) as usize,
                    });
                }
            };
            match &node.spec {
                OperatorSpec::WrapperScan { source, .. } => {
                    record(source, SubjectRef::Op(node.id));
                }
                OperatorSpec::Collector { children, .. } => {
                    for c in children {
                        record(&c.source, SubjectRef::Op(c.id));
                    }
                }
                _ => {}
            }
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tpch::{StatsQuality, TpchDeployment};
    use std::time::Duration;
    use tukwila_opt::{OptimizerConfig, PipelinePolicy};
    use tukwila_source::LinkModel;
    use tukwila_tpchgen::TpchTable;

    const SF: f64 = 0.003;

    fn assert_gold(d: &TpchDeployment, q: &ConjunctiveQuery, result: &crate::QueryResult) {
        let gold = d.gold(q).unwrap();
        assert!(
            result.relation.bag_eq_unordered(&gold),
            "query `{}`: got {} tuples, want {}",
            q.name,
            result.relation.len(),
            gold.len()
        );
    }

    fn config(policy: PipelinePolicy) -> OptimizerConfig {
        OptimizerConfig {
            policy,
            ..OptimizerConfig::default()
        }
    }

    #[test]
    fn two_table_join_end_to_end() {
        let d = TpchDeployment::builder(SF, 3)
            .tables(&[TpchTable::Nation, TpchTable::Supplier])
            .build();
        let q = d.query_for("q2", &[TpchTable::Supplier, TpchTable::Nation]);
        let sys = d.system(config(PipelinePolicy::Adaptive));
        let result = sys.execute(&q).unwrap();
        assert_gold(&d, &q, &result);
        assert_eq!(result.stats.replans, 0);
        assert!(!result.series.is_empty());
    }

    #[test]
    fn four_table_join_all_policies_agree_with_gold() {
        let d = TpchDeployment::builder(SF, 5)
            .tables(&[
                TpchTable::Region,
                TpchTable::Nation,
                TpchTable::Supplier,
                TpchTable::Partsupp,
            ])
            .build();
        let q = d.query_for(
            "q4",
            &[
                TpchTable::Region,
                TpchTable::Nation,
                TpchTable::Supplier,
                TpchTable::Partsupp,
            ],
        );
        for policy in [
            PipelinePolicy::FullyPipelined,
            PipelinePolicy::MaterializeEachJoin,
            PipelinePolicy::MaterializeAndReplan,
            PipelinePolicy::Adaptive,
        ] {
            let sys = d.system(config(policy));
            let result = sys.execute(&q).unwrap();
            assert_gold(&d, &q, &result);
        }
    }

    #[test]
    fn misestimates_trigger_replanning_and_stay_correct() {
        let d = TpchDeployment::builder(SF, 7)
            .tables(&[
                TpchTable::Nation,
                TpchTable::Supplier,
                TpchTable::Partsupp,
                TpchTable::Part,
            ])
            .stats(StatsQuality::MisestimatedSelectivities(40.0))
            .build();
        let q = d.query_for(
            "q-mis",
            &[
                TpchTable::Nation,
                TpchTable::Supplier,
                TpchTable::Partsupp,
                TpchTable::Part,
            ],
        );
        let sys = d.system(config(PipelinePolicy::MaterializeAndReplan));
        let result = sys.execute(&q).unwrap();
        assert!(
            result.stats.replans >= 1,
            "40x misestimate must trigger re-optimization"
        );
        assert_gold(&d, &q, &result);
    }

    #[test]
    fn unknown_statistics_drive_interleaved_partial_planning() {
        let d = TpchDeployment::builder(SF, 9)
            .tables(&[TpchTable::Region, TpchTable::Nation, TpchTable::Supplier])
            .stats(StatsQuality::Unknown)
            .build();
        let q = d.query_for(
            "q-unknown",
            &[TpchTable::Region, TpchTable::Nation, TpchTable::Supplier],
        );
        let sys = d.system(config(PipelinePolicy::Adaptive));
        let result = sys.execute(&q).unwrap();
        assert!(
            result.stats.replans >= 1,
            "partial plans must return to the optimizer"
        );
        assert_gold(&d, &q, &result);
        // the optimizer learned true cardinalities along the way
        assert!(sys.optimizer().catalog().is_observed("supplier"));
    }

    #[test]
    fn transient_stall_is_rescheduled_and_recovers() {
        // nation's source stalls 300ms after 5 tuples; with a 50ms timeout
        // and rescheduling rules, execution puts the blocked fragment aside,
        // runs other work, then retries and succeeds.
        let stalling = LinkModel {
            stall_after: Some(5),
            stall_duration: Duration::from_millis(300),
            ..LinkModel::instant()
        };
        let d = TpchDeployment::builder(SF, 13)
            .tables(&[TpchTable::Region, TpchTable::Nation, TpchTable::Supplier])
            .link(TpchTable::Nation, stalling)
            .build();
        let q = d.query_for(
            "q-stall",
            &[TpchTable::Region, TpchTable::Nation, TpchTable::Supplier],
        );
        let mut cfg = config(PipelinePolicy::MaterializeEachJoin);
        cfg.source_timeout_ms = Some(50);
        cfg.reschedule_on_timeout = true;
        let mut sys = d.system(cfg);
        sys.max_fragment_retries = 5;
        let result = sys.execute(&q).unwrap();
        assert!(
            result.stats.reschedules >= 1,
            "the stalled fragment must have been rescheduled"
        );
        assert_gold(&d, &q, &result);
    }

    #[test]
    fn dead_primary_with_mirror_still_answers() {
        let d = TpchDeployment::builder(SF, 17)
            .tables(&[TpchTable::Nation, TpchTable::Supplier])
            .link(TpchTable::Supplier, LinkModel::down())
            .mirror(TpchTable::Supplier, "supplier_mirror", LinkModel::instant())
            .build();
        let q = d.query_for("q-mirror", &[TpchTable::Supplier, TpchTable::Nation]);
        let sys = d.system(config(PipelinePolicy::Adaptive));
        let result = sys.execute(&q).unwrap();
        assert_gold(&d, &q, &result);
    }

    #[test]
    fn unreachable_single_source_fails_cleanly() {
        let d = TpchDeployment::builder(SF, 19)
            .tables(&[TpchTable::Nation, TpchTable::Supplier])
            .link(TpchTable::Supplier, LinkModel::down())
            .build();
        let q = d.query_for("q-dead", &[TpchTable::Supplier, TpchTable::Nation]);
        let sys = d.system(config(PipelinePolicy::Adaptive));
        let err = sys.execute(&q).unwrap_err();
        assert_eq!(err.kind(), "source_unavailable");
    }

    #[test]
    fn seven_table_join_completes() {
        let tables = [
            TpchTable::Region,
            TpchTable::Nation,
            TpchTable::Supplier,
            TpchTable::Customer,
            TpchTable::Orders,
            TpchTable::Partsupp,
            TpchTable::Part,
        ];
        let d = TpchDeployment::builder(0.002, 23).tables(&tables).build();
        let q = d.query_for("q7", &tables);
        let sys = d.system(config(PipelinePolicy::Adaptive));
        let result = sys.execute(&q).unwrap();
        assert_gold(&d, &q, &result);
    }

    #[test]
    fn deadline_cancels_mid_fragment_and_is_reported_in_stats() {
        // supplier stalls 10s after 5 tuples; a 100ms deadline must cancel
        // the run long before the stall ends and flag the stats —
        // distinctly from a rule-driven abort.
        let stalling = LinkModel {
            stall_after: Some(5),
            stall_duration: Duration::from_secs(10),
            ..LinkModel::instant()
        };
        let d = TpchDeployment::builder(SF, 29)
            .tables(&[TpchTable::Nation, TpchTable::Supplier])
            .link(TpchTable::Supplier, stalling)
            .build();
        let q = d.query_for("q-deadline", &[TpchTable::Supplier, TpchTable::Nation]);
        let sys = d.system(config(PipelinePolicy::Adaptive));
        let control = tukwila_exec::QueryControl::with_deadline(Duration::from_millis(100));
        let mut stats = ExecutionStats::default();
        let started = Instant::now();
        let err = sys
            .execute_controlled(&q, &control, &mut stats)
            .unwrap_err();
        assert_eq!(err.kind(), "deadline_exceeded");
        assert!(stats.deadline_exceeded, "deadline must be flagged in stats");
        assert!(!stats.cancelled, "a deadline is not a client cancel");
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "cancellation must interrupt the stalled source promptly"
        );
        assert!(stats.duration > Duration::ZERO);
    }

    #[test]
    fn client_cancel_is_reported_in_stats() {
        let stalling = LinkModel {
            stall_after: Some(5),
            stall_duration: Duration::from_secs(10),
            ..LinkModel::instant()
        };
        let d = TpchDeployment::builder(SF, 37)
            .tables(&[TpchTable::Nation, TpchTable::Supplier])
            .link(TpchTable::Supplier, stalling)
            .build();
        let q = d.query_for("q-cancel", &[TpchTable::Supplier, TpchTable::Nation]);
        let sys = d.system(config(PipelinePolicy::Adaptive));
        let control = tukwila_exec::QueryControl::unbounded();
        let canceller = {
            let control = control.clone();
            std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(60));
                control.cancel(tukwila_exec::CancelKind::User);
            })
        };
        let mut stats = ExecutionStats::default();
        let started = Instant::now();
        let err = sys
            .execute_controlled(&q, &control, &mut stats)
            .unwrap_err();
        canceller.join().unwrap();
        assert_eq!(err.kind(), "cancelled");
        assert!(stats.cancelled);
        assert!(!stats.deadline_exceeded);
        assert!(started.elapsed() < Duration::from_secs(5));
    }

    #[test]
    fn concurrent_direct_executes_on_one_system_stay_isolated() {
        // Even without the service tier, `execute(&self)` must be safe to
        // call from several threads: each call derives a per-query env, so
        // materialization names cannot collide across queries.
        let d = TpchDeployment::builder(SF, 43)
            .tables(&[TpchTable::Region, TpchTable::Nation, TpchTable::Supplier])
            .build();
        let q2 = d.query_for("q2", &[TpchTable::Supplier, TpchTable::Nation]);
        let q3 = d.query_for(
            "q3",
            &[TpchTable::Region, TpchTable::Nation, TpchTable::Supplier],
        );
        let sys = d.system(config(PipelinePolicy::MaterializeEachJoin));
        let gold2 = d.gold(&q2).unwrap();
        let gold3 = d.gold(&q3).unwrap();
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..6)
                .map(|i| {
                    let (q, gold) = if i % 2 == 0 {
                        (&q2, &gold2)
                    } else {
                        (&q3, &gold3)
                    };
                    let sys = &sys;
                    s.spawn(move || {
                        let result = sys.execute(q).unwrap();
                        assert!(
                            result.relation.bag_eq_unordered(gold),
                            "concurrent direct execute diverged"
                        );
                    })
                })
                .collect();
            for h in handles {
                h.join().unwrap();
            }
        });
    }

    #[test]
    fn prepare_and_run_prepared_compose_like_execute() {
        let d = TpchDeployment::builder(SF, 41)
            .tables(&[TpchTable::Nation, TpchTable::Supplier])
            .build();
        let q = d.query_for("q-stages", &[TpchTable::Supplier, TpchTable::Nation]);
        let sys = d.system(config(PipelinePolicy::Adaptive));
        let mut prepared = sys.prepare(&q).unwrap();
        let control = tukwila_exec::QueryControl::unbounded();
        let env = sys.env().for_query();
        let mut stats = ExecutionStats::default();
        let mut series = Vec::new();
        let relation = sys
            .run_prepared(&mut prepared, &control, &env, &mut stats, &mut series)
            .unwrap();
        let gold = d.gold(&q).unwrap();
        assert!(relation.bag_eq_unordered(&gold));
        assert!(!series.is_empty());
    }
}
