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
//! There is one dispatcher loop. With a budget of one thread, or a plan of
//! one fragment, it runs each fragment inline on the calling thread — the
//! sequential engine, with no thread spawned; otherwise each fragment runs
//! on a scoped thread. Either way the result comes back through the same
//! channel and is handled by the same code.

use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;
use std::time::Duration;

use tukwila_common::{Result, TukwilaError};
use tukwila_exec::{
    build_operator, catch_panic, run_fragment, FragmentOutcome, FragmentReport, Materialize,
    PlanRuntime,
};
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

/// What one fragment run sends back to the dispatcher: its report and, for
/// the output fragment, that attempt's `(tuples, elapsed)` samples.
type Finished = (FragmentId, Result<FragmentReport>, Vec<(u64, Duration)>);

/// Execute a plan's fragment DAG under `rt`, running up to `threads`
/// fragments concurrently. Accumulates fragment reports, reschedule
/// counters, and overlap counters into `stats`; `series` receives the
/// output fragment's `(tuples, elapsed)` samples from the attempt that
/// completed it.
pub fn run_fragments(
    plan: &QueryPlan,
    rt: &Arc<PlanRuntime>,
    threads: usize,
    max_retries: usize,
    stats: &mut ExecutionStats,
    series: &mut Vec<(u64, Duration)>,
) -> Result<SchedOutcome> {
    let inline = threads <= 1 || plan.fragments.len() == 1;
    let budget = if inline { 1 } else { threads };
    let mut completed: BTreeSet<FragmentId> = BTreeSet::new();
    let mut retries: HashMap<FragmentId, usize> = HashMap::new();
    let mut deferred: BTreeSet<FragmentId> = BTreeSet::new();
    let mut in_flight: BTreeSet<FragmentId> = BTreeSet::new();
    // A terminal condition observed while siblings are still running: stop
    // dispatching, let the in-flight fragments drain, then surface it.
    let mut pending_error: Option<TukwilaError> = None;
    let mut replan_pending = false;

    // At most `budget` fragments are in flight and each sends one result,
    // so no send ever waits for room.
    let (tx, rx) = crossbeam_channel::bounded::<Finished>(budget);

    let outcome = std::thread::scope(|scope| -> Result<SchedOutcome> {
        loop {
            let active = |id: FragmentId| rt.is_active(SubjectRef::Fragment(id));
            if pending_error.is_none() && !replan_pending {
                while in_flight.len() < budget {
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
                    if inline {
                        let _ = tx.send(run_one(plan, frag, rt));
                    } else {
                        let tx = tx.clone();
                        scope.spawn(move || {
                            let _ = tx.send(run_one(plan, frag, rt));
                        });
                    }
                }
            }

            if in_flight.is_empty() {
                if let Some(e) = pending_error.take() {
                    return Err(e);
                }
                if replan_pending {
                    return Ok(SchedOutcome::Replan);
                }
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
                return Err(TukwilaError::Internal(
                    "scheduler stalled with ready set empty".into(),
                ));
            }

            let (frag, report, attempt_series) = rx
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
                *series = attempt_series;
            }
            stats.fragments_run += 1;
            let outcome = report.outcome.clone();
            let produced = report.produced;
            stats.fragment_reports.push(report);

            // A reschedule or a recoverable failure spends one retry.
            let retry = match &outcome {
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
                    // Conditions changed: blocked work may run again.
                    deferred.clear();
                    // A replan request counts while work remains.
                    replan_pending |= *replan_requested
                        && (!plan.complete
                            || plan
                                .fragments
                                .iter()
                                .any(|f| !completed.contains(&f.id) && active(f.id)));
                    false
                }
                FragmentOutcome::Rescheduled => {
                    if rt.trace().events_enabled() {
                        rt.trace()
                            .emit(TraceEvent::FragmentRescheduled { fragment: frag.0 });
                    }
                    stats.reschedules += 1;
                    true
                }
                FragmentOutcome::Failed(e) => e.is_recoverable(),
                FragmentOutcome::Aborted(_) => false,
            };
            // The error to surface once no retry is left.
            if let Some(e) = outcome.into_error(frag) {
                let r = retries.entry(frag).or_insert(0);
                if retry && *r < max_retries {
                    *r += 1;
                    if let Some(f) = plan.fragment(frag) {
                        rt.reset_fragment(f);
                    }
                    // Deferral is only a preference: with nothing else
                    // runnable the fragment is retried at once.
                    deferred.insert(frag);
                } else {
                    pending_error.get_or_insert(e);
                }
            }
        }
    });
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

/// Build one fragment and materialize it for the dispatcher. A panic in
/// the build or the run becomes a typed `Internal` error: the dispatcher
/// holds its own sender, so a fragment that never reported back would
/// leave it waiting forever with the slot in flight.
fn run_one(plan: &QueryPlan, frag: FragmentId, rt: &Arc<PlanRuntime>) -> Finished {
    let Some(fragment) = plan.fragment(frag) else {
        let e = TukwilaError::Plan(format!("unknown fragment {frag}"));
        return (frag, Err(e), Vec::new());
    };
    let mut sink = Materialize::new(&fragment.materialize_as);
    let report = catch_panic(format_args!("fragment {frag}"), || {
        build_operator(&fragment.root, rt)
    })
    .map(|root| run_fragment(frag, root, rt, &mut sink));
    (frag, report, sink.into_series())
}
