//! Fragment execution (§3.2).
//!
//! "Each plan fragment is processed in turn, as a single, pipelined
//! execution unit." The fragment executor drives the root operator with the
//! iterator model, materializes the result in the local store, gathers the
//! cardinality statistics the optimizer needs, and watches for the engine
//! signals that rules raise (reschedule mid-fragment, replan at the
//! materialization point, abort).

use std::time::{Duration, Instant};

use tukwila_common::{Relation, Result, TukwilaError};
use tukwila_plan::{OpState, QueryPlan, SubjectRef};

use crate::build::build_operator;
use crate::runtime::{EngineSignal, PlanRuntime};

/// How a fragment run ended.
#[derive(Debug, Clone, PartialEq)]
pub enum FragmentOutcome {
    /// Ran to completion; result materialized.
    Completed {
        /// Result cardinality.
        cardinality: usize,
        /// A rule requested re-optimization at the materialization point
        /// (the §3.1.2 `replan` action).
        replan_requested: bool,
    },
    /// A rule requested rescheduling mid-fragment (query scrambling); the
    /// fragment was abandoned and should be retried after other fragments.
    Rescheduled,
    /// A rule aborted the query with an error for the user.
    Aborted(String),
    /// The fragment failed with an unhandled error.
    Failed(TukwilaError),
}

/// Statistics from one fragment run (shipped back to the optimizer, §3.2).
#[derive(Debug, Clone)]
pub struct FragmentReport {
    /// The fragment.
    pub fragment: tukwila_plan::FragmentId,
    /// Outcome.
    pub outcome: FragmentOutcome,
    /// Wall-clock duration of the run.
    pub duration: Duration,
    /// Time until the first output tuple, if any was produced.
    pub time_to_first: Option<Duration>,
    /// Tuples produced.
    pub produced: u64,
}

/// Execute one fragment, materializing its result under the fragment's
/// `materialize_as` name. `observer` is called with `(tuples_so_far,
/// elapsed)` per output **batch** — the probe used to regenerate the
/// paper's tuples-vs-time figures (with batched execution one sample
/// covers one arrival burst; slow sources still sample near-per-tuple).
pub fn run_fragment(
    plan: &QueryPlan,
    frag_id: tukwila_plan::FragmentId,
    rt: &std::sync::Arc<PlanRuntime>,
    observer: &mut dyn FnMut(u64, Duration),
) -> Result<FragmentReport> {
    let start = Instant::now();
    let frag = plan
        .fragment(frag_id)
        .ok_or_else(|| TukwilaError::Plan(format!("unknown fragment {frag_id}")))?;
    let subject = SubjectRef::Fragment(frag_id);

    let finish = |outcome: FragmentOutcome, produced: u64, ttf: Option<Duration>| {
        Ok(FragmentReport {
            fragment: frag_id,
            outcome,
            duration: start.elapsed(),
            time_to_first: ttf,
            produced,
        })
    };

    // Refuse to start under a cancelled/expired control.
    if let Err(e) = rt.control().check() {
        rt.set_state(subject, OpState::Failed);
        return finish(FragmentOutcome::Failed(e), 0, None);
    }

    let mut root = build_operator(&frag.root, rt)?;
    rt.set_state(subject, OpState::Open);
    if let Err(e) = root.open() {
        let _ = root.close();
        rt.set_state(subject, OpState::Failed);
        return finish(classify_error(rt, frag_id, e), 0, None);
    }

    // Batches are collected whole (not flattened to rows): when every batch
    // is columnar, materialization below assembles the relation column-wise
    // with typed buffer appends and never builds a row view.
    let mut batches: Vec<tukwila_common::TupleBatch> = Vec::new();
    let mut rows = 0usize;
    let mut time_to_first = None;
    loop {
        match root.next_batch() {
            Ok(Some(batch)) => {
                if rows == 0 {
                    time_to_first = Some(start.elapsed());
                }
                rt.add_produced(subject, batch.len() as u64);
                rows += batch.len();
                batches.push(batch);
                observer(rows as u64, start.elapsed());
                // Cooperative cancellation: the query control is checked at
                // every batch boundary (deadlines self-trip here).
                if let Err(e) = rt.control().check() {
                    let _ = root.close();
                    rt.set_state(subject, OpState::Failed);
                    return finish(FragmentOutcome::Failed(e), rows as u64, time_to_first);
                }
                // Mid-fragment signals: reschedule and abort take effect
                // immediately; replan waits for the materialization point.
                // Reschedule is fragment-scoped: a request raised for a
                // concurrent sibling stays queued for that sibling.
                if rt.signal_pending() {
                    if let Some(sig) = peek_interrupting_signal(rt, frag_id) {
                        let _ = root.close();
                        return finish(sig, rows as u64, time_to_first);
                    }
                }
            }
            Ok(None) => break,
            Err(e) => {
                let _ = root.close();
                rt.set_state(subject, OpState::Failed);
                return finish(classify_error(rt, frag_id, e), rows as u64, time_to_first);
            }
        }
    }
    // A cancellation that interrupted a source mid-stream makes operators
    // end quietly; re-check the control before materializing so a truncated
    // stream can never masquerade as a completed fragment.
    if let Err(e) = rt.control().check() {
        let _ = root.close();
        rt.set_state(subject, OpState::Failed);
        return finish(FragmentOutcome::Failed(e), rows as u64, time_to_first);
    }
    let produced = rows as u64;
    let schema = root.schema().clone();
    root.close()?;
    let relation = Relation::from_batches(schema, batches)?;
    rt.env().local.put(&frag.materialize_as, relation);

    // Materialization point: emit closed(frag); replan rules fire here.
    rt.set_state(subject, OpState::Closed);
    let outcome = match rt.take_signal_for(frag_id) {
        Some(EngineSignal::Abort(m)) => FragmentOutcome::Aborted(m),
        Some(EngineSignal::Replan) => FragmentOutcome::Completed {
            cardinality: produced as usize,
            replan_requested: true,
        },
        Some(EngineSignal::Reschedule) | None => FragmentOutcome::Completed {
            cardinality: produced as usize,
            replan_requested: false,
        },
    };
    finish(outcome, produced, time_to_first)
}

fn peek_interrupting_signal(
    rt: &PlanRuntime,
    frag_id: tukwila_plan::FragmentId,
) -> Option<FragmentOutcome> {
    match rt.take_signal_for(frag_id) {
        Some(EngineSignal::Abort(m)) => Some(FragmentOutcome::Aborted(m)),
        Some(EngineSignal::Reschedule) => Some(FragmentOutcome::Rescheduled),
        Some(EngineSignal::Replan) => {
            // Replan only takes effect at a materialization point; re-raise
            // by... treating it as an immediate stop is wrong, so we simply
            // remember it via a fresh emit-less path: the fragment keeps
            // running and the signal is re-checked at close. To preserve
            // it, re-apply.
            rt.emit_replan_signal();
            None
        }
        None => None,
    }
}

fn classify_error(
    rt: &PlanRuntime,
    frag_id: tukwila_plan::FragmentId,
    e: TukwilaError,
) -> FragmentOutcome {
    // A recoverable error accompanied by a pending signal becomes that
    // signal's outcome (e.g. timeout + reschedule rule ⇒ Rescheduled).
    match rt.take_signal_for(frag_id) {
        Some(EngineSignal::Abort(m)) => FragmentOutcome::Aborted(m),
        Some(EngineSignal::Reschedule) => FragmentOutcome::Rescheduled,
        Some(EngineSignal::Replan) => {
            rt.emit_replan_signal();
            FragmentOutcome::Failed(e)
        }
        None => FragmentOutcome::Failed(e),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::ExecEnv;
    use crate::test_support::keyed_relation;
    use tukwila_plan::{JoinKind, PlanBuilder, Rule};
    use tukwila_source::{LinkModel, SimulatedSource, SourceRegistry};

    fn registry(n: i64) -> SourceRegistry {
        let reg = SourceRegistry::new();
        reg.register(SimulatedSource::new(
            "L",
            keyed_relation("l", n, 10),
            LinkModel::instant(),
        ));
        reg.register(SimulatedSource::new(
            "R",
            keyed_relation("r", n / 2, 10),
            LinkModel::instant(),
        ));
        reg
    }

    #[test]
    fn completes_and_materializes() {
        let mut b = PlanBuilder::new();
        let l = b.wrapper_scan("L");
        let r = b.wrapper_scan("R");
        let j = b.join(JoinKind::DoublePipelined, l, r, "k", "k");
        let f = b.fragment(j, "result");
        let plan = b.build(f);
        let rt = crate::runtime::PlanRuntime::for_plan(&plan, ExecEnv::new(registry(100)));
        let report = run_fragment(&plan, f, &rt, &mut |_, _| {}).unwrap();
        match report.outcome {
            FragmentOutcome::Completed {
                cardinality,
                replan_requested,
            } => {
                assert!(cardinality > 0);
                assert!(!replan_requested);
                assert_eq!(rt.env().local.cardinality("result"), Some(cardinality));
            }
            other => panic!("unexpected outcome {other:?}"),
        }
        assert!(report.time_to_first.is_some());
        assert!(report.produced > 0);
    }

    #[test]
    fn replan_rule_fires_at_materialization() {
        let mut b = PlanBuilder::new();
        let l = b.wrapper_scan("L");
        let r = b.wrapper_scan("R");
        // estimate is wildly wrong: est 1, actual = 500 (100×50 via 10 keys)
        let j = b
            .join(JoinKind::DoublePipelined, l, r, "k", "k")
            .with_est_cardinality(1.0);
        let jid = j.id;
        let f = b.fragment(j, "result");
        b.add_local_rule(f, Rule::replan_on_misestimate(f, jid, 2.0));
        let plan = b.build(f);
        let rt = crate::runtime::PlanRuntime::for_plan(&plan, ExecEnv::new(registry(100)));
        let report = run_fragment(&plan, f, &rt, &mut |_, _| {}).unwrap();
        match report.outcome {
            FragmentOutcome::Completed {
                replan_requested, ..
            } => assert!(replan_requested, "2x misestimate must request replan"),
            other => panic!("unexpected outcome {other:?}"),
        }
    }

    #[test]
    fn accurate_estimate_does_not_replan() {
        let mut b = PlanBuilder::new();
        let l = b.wrapper_scan("L");
        let r = b.wrapper_scan("R");
        let j = b
            .join(JoinKind::DoublePipelined, l, r, "k", "k")
            .with_est_cardinality(500.0); // exactly right
        let jid = j.id;
        let f = b.fragment(j, "result");
        b.add_local_rule(f, Rule::replan_on_misestimate(f, jid, 2.0));
        let plan = b.build(f);
        let rt = crate::runtime::PlanRuntime::for_plan(&plan, ExecEnv::new(registry(100)));
        let report = run_fragment(&plan, f, &rt, &mut |_, _| {}).unwrap();
        match report.outcome {
            FragmentOutcome::Completed {
                replan_requested, ..
            } => assert!(!replan_requested),
            other => panic!("unexpected outcome {other:?}"),
        }
    }

    #[test]
    fn timeout_with_reschedule_rule_returns_rescheduled() {
        let reg = SourceRegistry::new();
        reg.register(SimulatedSource::new(
            "stall",
            keyed_relation("s", 100, 10),
            LinkModel::stalling(5),
        ));
        let mut b = PlanBuilder::new();
        let s = b.wrapper_scan_opts("stall", Some(25), None);
        let sid = s.id;
        let f = b.fragment(s, "out");
        b.add_local_rule(f, Rule::reschedule_on_timeout(f, sid));
        let plan = b.build(f);
        let rt = crate::runtime::PlanRuntime::for_plan(&plan, ExecEnv::new(reg));
        let report = run_fragment(&plan, f, &rt, &mut |_, _| {}).unwrap();
        assert_eq!(report.outcome, FragmentOutcome::Rescheduled);
        assert_eq!(report.produced, 5);
    }

    #[test]
    fn unhandled_source_failure_is_failed() {
        let reg = SourceRegistry::new();
        reg.register(SimulatedSource::new(
            "flaky",
            keyed_relation("s", 100, 10),
            LinkModel::failing(5),
        ));
        let mut b = PlanBuilder::new();
        let s = b.wrapper_scan("flaky");
        let f = b.fragment(s, "out");
        let plan = b.build(f);
        let rt = crate::runtime::PlanRuntime::for_plan(&plan, ExecEnv::new(reg));
        let report = run_fragment(&plan, f, &rt, &mut |_, _| {}).unwrap();
        match report.outcome {
            FragmentOutcome::Failed(e) => assert_eq!(e.kind(), "source_unavailable"),
            other => panic!("unexpected outcome {other:?}"),
        }
    }

    #[test]
    fn observer_sees_monotone_series() {
        let mut b = PlanBuilder::new();
        let l = b.wrapper_scan("L");
        let f = b.fragment(l, "out");
        let plan = b.build(f);
        // batch size 10 → one observation per batch, five in total
        let env = ExecEnv::new(registry(50)).with_batch_size(10);
        let rt = crate::runtime::PlanRuntime::for_plan(&plan, env);
        let mut series = Vec::new();
        run_fragment(&plan, f, &rt, &mut |n, d| series.push((n, d))).unwrap();
        assert_eq!(series.len(), 5);
        assert_eq!(series.last().unwrap().0, 50);
        assert!(series
            .windows(2)
            .all(|w| w[0].0 < w[1].0 && w[0].1 <= w[1].1));
    }
}
