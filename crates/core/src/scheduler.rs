//! The DAG fragment scheduler.
//!
//! The paper executes "each plan fragment in turn, as a single, pipelined
//! execution unit"; this module generalizes that loop into a dependency-DAG
//! scheduler. Fragments whose predecessors have completed are *runnable*;
//! with an intra-query thread budget above one, runnable fragments execute
//! concurrently on scoped worker threads, so a fragment blocked on a slow
//! source simply overlaps with runnable siblings instead of serializing
//! behind them.
//!
//! Query scrambling (§3.1.2) changes meaning under the DAG: `Rescheduled`
//! is no longer "abandon and retry after everything else" but
//! "deprioritize" — a rescheduled fragment is retried only when no
//! fresh fragment can be dispatched and nothing else is in flight, while
//! its siblings keep making progress in the meantime. ECA rule events stay
//! serialized through the [`PlanRuntime`] event bus (any worker thread may
//! emit; processing holds one lock), and reschedule signals are
//! fragment-scoped so a stalled fragment's timeout rule cannot abort a
//! healthy sibling.
//!
//! With a budget of one thread the scheduler reproduces the sequential
//! engine exactly — same dispatch order, same retry/deferral behaviour.

use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;
use std::time::Duration;

use tukwila_common::{Relation, Result, TukwilaError};
use tukwila_exec::{run_fragment_observed, ExecEnv, FragmentOutcome, PlanRuntime};
use tukwila_plan::{FragmentId, QueryPlan, SubjectRef};
use tukwila_trace::TraceEvent;

use crate::stats::ExecutionStats;

/// How a full pass over a plan's fragments ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedOutcome {
    /// All planned work completed (the output fragment materialized).
    Finished,
    /// A rule requested re-optimization; the completed fragments'
    /// materializations are ready for reuse.
    Replan,
}

/// Execute a plan's fragment DAG under `rt`, running up to `threads`
/// fragments concurrently. Accumulates fragment reports, reschedule
/// counters, and overlap counters into `stats`; `series` receives the
/// output fragment's `(tuples, elapsed)` samples.
pub fn run_fragments(
    plan: &QueryPlan,
    rt: &Arc<PlanRuntime>,
    threads: usize,
    max_retries: usize,
    stats: &mut ExecutionStats,
    series: &mut Vec<(u64, Duration)>,
) -> Result<SchedOutcome> {
    let outcome = if threads.max(1) == 1 || plan.fragments.len() == 1 {
        run_sequential(plan, rt, max_retries, stats, series)
    } else {
        run_parallel(plan, rt, threads, max_retries, stats, series)
    };
    // Fold this run's exchange counters into the query stats, merging
    // entries for the same join operator (a replan re-running the same
    // join accumulates; distinct joins stay separate).
    let ps = rt.parallel_stats();
    stats.partitions = stats.partitions.max(ps.max_partitions);
    for e in &ps.partition_spills {
        match stats.partition_spills.iter_mut().find(|s| s.op == e.op) {
            Some(s) => {
                if s.tuples.len() < e.tuples.len() {
                    s.tuples.resize(e.tuples.len(), 0);
                }
                for (acc, n) in s.tuples.iter_mut().zip(&e.tuples) {
                    *acc += n;
                }
            }
            None => stats.partition_spills.push(e.clone()),
        }
    }
    // And the per-query source-cache attribution.
    let cc = rt.cache_counts();
    stats.cache_hits += cc.hits;
    stats.cache_misses += cc.misses;
    stats.cache_coalesced += cc.coalesced;
    stats.cache_bypass += cc.bypass;
    outcome
}

/// The paper's sequential loop: one fragment at a time, rescheduled
/// fragments preferentially retried after other runnable work.
fn run_sequential(
    plan: &QueryPlan,
    rt: &Arc<PlanRuntime>,
    max_retries: usize,
    stats: &mut ExecutionStats,
    series: &mut Vec<(u64, Duration)>,
) -> Result<SchedOutcome> {
    let mut completed: BTreeSet<FragmentId> = BTreeSet::new();
    let mut retries: HashMap<FragmentId, usize> = HashMap::new();
    let mut deferred: BTreeSet<FragmentId> = BTreeSet::new();

    loop {
        let active = |id: FragmentId| rt.is_active(SubjectRef::Fragment(id));
        let ready = plan.ready_fragments(&completed, &active);
        if ready.is_empty() {
            // Done if the output fragment completed; otherwise the plan
            // is stuck (contingent fragments never activated).
            if completed.contains(&plan.output) {
                break;
            }
            if plan
                .fragments
                .iter()
                .all(|f| completed.contains(&f.id) || !active(f.id))
            {
                return Err(TukwilaError::Plan(
                    "no runnable fragments but output incomplete".into(),
                ));
            }
            return Err(TukwilaError::Internal(
                "scheduler stalled with ready set empty".into(),
            ));
        }
        // Prefer fragments that were not just rescheduled (query
        // scrambling runs other work first).
        let frag = *ready
            .iter()
            .find(|f| !deferred.contains(f))
            .unwrap_or(&ready[0]);
        let is_output = frag == plan.output;

        if rt.trace().events_enabled() {
            rt.trace().emit(TraceEvent::FragmentDispatched {
                fragment: frag.0,
                overlapped: false,
            });
        }
        let mut observer = |n: u64, d: Duration| {
            if is_output {
                series.push((n, d));
            }
        };
        let report = run_fragment_observed(plan, frag, rt, &mut observer)?;
        stats.fragments_run += 1;
        let outcome = report.outcome.clone();
        let produced = report.produced;
        stats.fragment_reports.push(report);

        match outcome {
            FragmentOutcome::Completed {
                replan_requested, ..
            } => {
                if rt.trace().events_enabled() {
                    rt.trace().emit(TraceEvent::FragmentCompleted {
                        fragment: frag.0,
                        tuples: produced,
                    });
                }
                completed.insert(frag);
                deferred.clear(); // conditions changed; retry blocked work
                let work_remains = plan
                    .fragments
                    .iter()
                    .any(|f| !completed.contains(&f.id) && active(f.id));
                if replan_requested && (work_remains || !plan.complete) {
                    return Ok(SchedOutcome::Replan);
                }
                if completed.contains(&plan.output) && !work_remains {
                    break;
                }
            }
            FragmentOutcome::Rescheduled => {
                if rt.trace().events_enabled() {
                    rt.trace()
                        .emit(TraceEvent::FragmentRescheduled { fragment: frag.0 });
                }
                stats.reschedules += 1;
                let r = retries.entry(frag).or_insert(0);
                *r += 1;
                if *r > max_retries {
                    return Err(TukwilaError::Plan(format!(
                        "fragment {frag} exceeded its retry budget"
                    )));
                }
                if let Some(f) = plan.fragment(frag) {
                    rt.reset_fragment(f);
                }
                deferred.insert(frag);
                // If nothing else is runnable, fall through and retry it
                // immediately on the next iteration (deferral is only a
                // preference).
            }
            FragmentOutcome::Aborted(m) => return Err(TukwilaError::Cancelled(m)),
            FragmentOutcome::Failed(e) => {
                if !e.is_recoverable() {
                    return Err(e);
                }
                let r = retries.entry(frag).or_insert(0);
                *r += 1;
                if *r > max_retries {
                    return Err(e);
                }
                if let Some(f) = plan.fragment(frag) {
                    rt.reset_fragment(f);
                }
                deferred.insert(frag);
            }
        }
    }
    Ok(SchedOutcome::Finished)
}

/// The concurrent DAG scheduler: a dispatcher thread hands runnable
/// fragments to scoped workers, bounded by the thread budget, and
/// processes completions as they arrive.
fn run_parallel(
    plan: &QueryPlan,
    rt: &Arc<PlanRuntime>,
    threads: usize,
    max_retries: usize,
    stats: &mut ExecutionStats,
    series: &mut Vec<(u64, Duration)>,
) -> Result<SchedOutcome> {
    type WorkerResult = (
        FragmentId,
        Result<tukwila_exec::FragmentReport>,
        Vec<(u64, Duration)>,
    );

    let mut completed: BTreeSet<FragmentId> = BTreeSet::new();
    let mut retries: HashMap<FragmentId, usize> = HashMap::new();
    let mut deferred: BTreeSet<FragmentId> = BTreeSet::new();
    let mut in_flight: BTreeSet<FragmentId> = BTreeSet::new();
    // A terminal condition observed while siblings are still running: stop
    // dispatching, let the in-flight fragments drain, then surface it.
    let mut pending_error: Option<TukwilaError> = None;
    let mut replan_pending = false;

    // At most `threads` fragments are in flight and each sends one result,
    // so no send ever waits for room.
    let (tx, rx) = crossbeam_channel::bounded::<WorkerResult>(threads.max(1));

    std::thread::scope(|scope| -> Result<SchedOutcome> {
        loop {
            let active = |id: FragmentId| rt.is_active(SubjectRef::Fragment(id));
            if pending_error.is_none() && !replan_pending {
                while in_flight.len() < threads {
                    let ready = plan.ready_fragments(&completed, &active);
                    let candidates: Vec<FragmentId> = ready
                        .into_iter()
                        .filter(|f| !in_flight.contains(f))
                        .collect();
                    // Deprioritization: a rescheduled fragment is retried
                    // only when nothing fresh is dispatchable and nothing
                    // is in flight — its siblings get the budget first.
                    let next = candidates
                        .iter()
                        .find(|f| !deferred.contains(f))
                        .copied()
                        .or_else(|| {
                            if in_flight.is_empty() {
                                candidates.first().copied()
                            } else {
                                None
                            }
                        });
                    let Some(frag) = next else { break };
                    let overlapped = !in_flight.is_empty();
                    if overlapped {
                        stats.fragments_overlapped += 1;
                    }
                    if rt.trace().events_enabled() {
                        rt.trace().emit(TraceEvent::FragmentDispatched {
                            fragment: frag.0,
                            overlapped,
                        });
                    }
                    in_flight.insert(frag);
                    let tx = tx.clone();
                    let rt = rt.clone();
                    let is_output = frag == plan.output;
                    scope.spawn(move || {
                        // A panicking fragment must still report back:
                        // the dispatcher holds its own Sender, so a
                        // vanished worker would otherwise leave recv()
                        // blocked forever with the slot marked in-flight.
                        let outcome =
                            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                                let mut local: Vec<(u64, Duration)> = Vec::new();
                                let report = run_fragment_observed(plan, frag, &rt, &mut |n, d| {
                                    if is_output {
                                        local.push((n, d));
                                    }
                                });
                                (report, local)
                            }));
                        let (report, local) = outcome.unwrap_or_else(|payload| {
                            let msg = payload
                                .downcast_ref::<&str>()
                                .map(|s| (*s).to_string())
                                .or_else(|| payload.downcast_ref::<String>().cloned())
                                .unwrap_or_else(|| "unknown panic".to_string());
                            (
                                Err(TukwilaError::Internal(format!(
                                    "fragment {frag} worker panicked: {msg}"
                                ))),
                                Vec::new(),
                            )
                        });
                        let _ = tx.send((frag, report, local));
                    });
                }
            }

            if in_flight.is_empty() {
                if let Some(e) = pending_error.take() {
                    return Err(e);
                }
                if replan_pending {
                    return Ok(SchedOutcome::Replan);
                }
                let work_remains = plan
                    .fragments
                    .iter()
                    .any(|f| !completed.contains(&f.id) && active(f.id));
                if completed.contains(&plan.output) && !work_remains {
                    return Ok(SchedOutcome::Finished);
                }
                let ready = plan.ready_fragments(&completed, &active);
                if ready.is_empty() {
                    if completed.contains(&plan.output) {
                        return Ok(SchedOutcome::Finished);
                    }
                    if plan
                        .fragments
                        .iter()
                        .all(|f| completed.contains(&f.id) || !active(f.id))
                    {
                        return Err(TukwilaError::Plan(
                            "no runnable fragments but output incomplete".into(),
                        ));
                    }
                }
                return Err(TukwilaError::Internal(
                    "scheduler stalled with ready set empty".into(),
                ));
            }

            let (frag, report, local_series) = rx
                .recv()
                .map_err(|_| TukwilaError::Internal("scheduler worker channel closed".into()))?;
            in_flight.remove(&frag);
            let report = match report {
                Ok(r) => r,
                Err(e) => {
                    pending_error.get_or_insert(e);
                    continue;
                }
            };
            if frag == plan.output {
                *series = local_series;
            }
            stats.fragments_run += 1;
            let outcome = report.outcome.clone();
            let produced = report.produced;
            stats.fragment_reports.push(report);

            match outcome {
                FragmentOutcome::Completed {
                    replan_requested, ..
                } => {
                    if rt.trace().events_enabled() {
                        rt.trace().emit(TraceEvent::FragmentCompleted {
                            fragment: frag.0,
                            tuples: produced,
                        });
                    }
                    completed.insert(frag);
                    deferred.clear();
                    let work_remains = plan
                        .fragments
                        .iter()
                        .any(|f| !completed.contains(&f.id) && active(f.id));
                    if replan_requested && (work_remains || !plan.complete) {
                        replan_pending = true;
                    }
                }
                FragmentOutcome::Rescheduled => {
                    if rt.trace().events_enabled() {
                        rt.trace()
                            .emit(TraceEvent::FragmentRescheduled { fragment: frag.0 });
                    }
                    stats.reschedules += 1;
                    let r = retries.entry(frag).or_insert(0);
                    *r += 1;
                    if *r > max_retries {
                        pending_error.get_or_insert_with(|| {
                            TukwilaError::Plan(format!("fragment {frag} exceeded its retry budget"))
                        });
                    } else {
                        if let Some(f) = plan.fragment(frag) {
                            rt.reset_fragment(f);
                        }
                        deferred.insert(frag);
                    }
                }
                FragmentOutcome::Aborted(m) => {
                    pending_error.get_or_insert(TukwilaError::Cancelled(m));
                }
                FragmentOutcome::Failed(e) => {
                    let retryable = e.is_recoverable();
                    if retryable {
                        let r = retries.entry(frag).or_insert(0);
                        *r += 1;
                        if *r > max_retries {
                            pending_error.get_or_insert(e);
                        } else {
                            if let Some(f) = plan.fragment(frag) {
                                rt.reset_fragment(f);
                            }
                            deferred.insert(frag);
                        }
                    } else {
                        pending_error.get_or_insert(e);
                    }
                }
            }
        }
    })
}

/// Execute a standalone, complete [`QueryPlan`] (no reformulation or
/// optimizer involvement) under `env`, returning the output relation and
/// the execution statistics. The plan's dependency DAG runs on the
/// environment's intra-query thread budget — the entry point the
/// benchmarks and parallelism tests use with hand-built plans.
pub fn execute_plan(plan: &QueryPlan, env: ExecEnv) -> Result<(Arc<Relation>, ExecutionStats)> {
    let (relation, stats, _) = execute_plan_traced(plan, env)?;
    Ok((relation, stats))
}

/// [`execute_plan`] returning the query's trace snapshot as well (`None`
/// when the environment's trace level is `Off`).
pub fn execute_plan_traced(
    plan: &QueryPlan,
    env: ExecEnv,
) -> Result<(
    Arc<Relation>,
    ExecutionStats,
    Option<tukwila_trace::TraceSnapshot>,
)> {
    let threads = env.intra_query_threads;
    let rt = PlanRuntime::for_plan(plan, env.clone());
    let mut stats = ExecutionStats::default();
    let mut series = Vec::new();
    match run_fragments(plan, &rt, threads, 3, &mut stats, &mut series)? {
        SchedOutcome::Finished => {
            let name = plan
                .fragment(plan.output)
                .map(|f| f.materialize_as.clone())
                .ok_or_else(|| TukwilaError::Plan("plan has no output fragment".into()))?;
            stats.peak_memory = env.memory.peak_used();
            let io = env.spill.stats().snapshot();
            stats.spill_tuples_written = io.tuples_written;
            stats.spill_tuples_read = io.tuples_read;
            stats.spill_bytes_written = io.bytes_written;
            stats.spill_bytes_read = io.bytes_read;
            let trace = if rt.trace().events_enabled() || rt.trace().metrics_enabled() {
                Some(rt.trace().snapshot())
            } else {
                None
            };
            Ok((env.local.get(&name)?, stats, trace))
        }
        SchedOutcome::Replan => Err(TukwilaError::Plan(
            "standalone plan requested re-optimization".into(),
        )),
    }
}
