//! Fragment execution (§3.2).
//!
//! "Each plan fragment is processed in turn, as a single, pipelined
//! execution unit." [`run_fragment`] is that unit for a coordinator's
//! fragments and a worker's shards alike (DESIGN.md §8, §12): it drives a
//! built root with the iterator model into a [`FragmentSink`], gathers the
//! statistics the optimizer needs, and watches for the engine signals that
//! rules raise (reschedule mid-fragment, replan at the materialization
//! point, abort). A panic below the root is a typed `Internal` outcome.

use std::fmt::Display;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use tukwila_common::{Relation, Result, Schema, TukwilaError, TupleBatch};
use tukwila_plan::{FragmentId, OpState, SubjectRef};

use crate::operator::{Operator, OperatorBox};
use crate::runtime::{EngineSignal, PlanRuntime};

/// How a fragment run ended.
#[derive(Debug, Clone, PartialEq)]
pub enum FragmentOutcome {
    /// Ran to completion; the sink took the whole result.
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

impl FragmentOutcome {
    /// The error a query ends with when this outcome of fragment `frag` is
    /// final — no retry is left for it: `None` for a completed run.
    pub fn into_error(self, frag: FragmentId) -> Option<TukwilaError> {
        match self {
            FragmentOutcome::Completed { .. } => None,
            FragmentOutcome::Rescheduled => Some(TukwilaError::Plan(format!(
                "fragment {frag} exceeded its retry budget"
            ))),
            FragmentOutcome::Aborted(m) => Some(TukwilaError::Cancelled(m)),
            FragmentOutcome::Failed(e) => Some(e),
        }
    }
}

/// Statistics from one fragment run (shipped back to the optimizer, §3.2).
#[derive(Debug, Clone)]
pub struct FragmentReport {
    /// The fragment.
    pub fragment: FragmentId,
    /// Outcome.
    pub outcome: FragmentOutcome,
    /// Wall-clock duration of the run.
    pub duration: Duration,
    /// Time until the first output tuple, if any was produced.
    pub time_to_first: Option<Duration>,
    /// Tuples produced.
    pub produced: u64,
}

/// Where [`run_fragment`] puts a fragment's output. An error from any call
/// fails the fragment with that error.
pub trait FragmentSink {
    /// The root opened with `schema`; batches follow.
    fn open(&mut self, _schema: &Schema) -> Result<()> {
        Ok(())
    }

    /// One output batch, with the fragment's output rows so far
    /// (this batch included) and the time since the fragment started.
    fn batch(&mut self, batch: TupleBatch, rows: u64, elapsed: Duration) -> Result<()>;

    /// The stream of `schema` ended complete and the root closed;
    /// `closed(frag)` fires next.
    fn finish(&mut self, _schema: Schema, _rt: &PlanRuntime) -> Result<()> {
        Ok(())
    }
}

/// The coordinator's sink: puts the fragment's batches in the local store
/// as one relation named `name`, and keeps one `(rows, elapsed)` sample
/// per batch — the probe the paper's tuples-vs-time figures are drawn
/// from (one sample covers one arrival burst; slow sources still sample
/// near-per-tuple).
#[derive(Default)]
pub struct Materialize {
    name: String,
    // Whole batches: the relation is assembled column-wise.
    batches: Vec<TupleBatch>,
    series: Vec<(u64, Duration)>,
}

impl Materialize {
    /// A sink that materializes its fragment as `name`.
    pub fn new(name: &str) -> Materialize {
        Materialize {
            name: name.to_string(),
            ..Materialize::default()
        }
    }

    /// The `(rows, elapsed)` samples, one per batch.
    pub fn into_series(self) -> Vec<(u64, Duration)> {
        self.series
    }
}

impl FragmentSink for Materialize {
    fn batch(&mut self, batch: TupleBatch, rows: u64, elapsed: Duration) -> Result<()> {
        self.batches.push(batch);
        self.series.push((rows, elapsed));
        Ok(())
    }

    fn finish(&mut self, schema: Schema, rt: &PlanRuntime) -> Result<()> {
        let relation = Relation::from_batches(schema, std::mem::take(&mut self.batches))?;
        rt.env().local.put(&self.name, relation);
        Ok(())
    }
}

/// Run `f`, turning a panic in it into a typed `Internal` error that names
/// `what`.
pub fn catch_panic<T>(what: impl Display, f: impl FnOnce() -> Result<T>) -> Result<T> {
    catch_unwind(AssertUnwindSafe(f)).unwrap_or_else(|payload| {
        let msg = (payload.downcast_ref::<&str>().map(|s| (*s).to_string()))
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "unknown panic".to_string());
        Err(TukwilaError::Internal(format!("{what} panicked: {msg}")))
    })
}

/// Run fragment `frag` from its built `root` into `sink`. The query
/// control is checked before the root opens, at every batch, and again at
/// the end of the stream: a cancellation that cut a source short makes
/// operators end quietly, and a truncated stream must never pass for a
/// complete one. A rule's reschedule or abort ends the run at the batch it
/// arrives; a replan waits for the materialization point, after the sink
/// finished and `closed(frag)` fired.
pub fn run_fragment(
    frag: FragmentId,
    mut root: OperatorBox,
    rt: &PlanRuntime,
    sink: &mut dyn FragmentSink,
) -> FragmentReport {
    let start = Instant::now();
    let mut progress = Progress::default();
    let outcome = catch_panic(format_args!("fragment {frag}"), || {
        Ok(drive(frag, root.as_mut(), rt, sink, start, &mut progress))
    })
    .unwrap_or_else(FragmentOutcome::Failed);
    FragmentReport {
        fragment: frag,
        outcome,
        duration: start.elapsed(),
        time_to_first: progress.time_to_first,
        produced: progress.produced,
    }
}

/// What a run produced so far; it outlives a panic in the run.
#[derive(Default)]
struct Progress {
    produced: u64,
    time_to_first: Option<Duration>,
}

fn drive(
    frag: FragmentId,
    root: &mut dyn Operator,
    rt: &PlanRuntime,
    sink: &mut dyn FragmentSink,
    start: Instant,
    progress: &mut Progress,
) -> FragmentOutcome {
    let subject = SubjectRef::Fragment(frag);
    let fail = |outcome| {
        rt.set_state(subject, OpState::Failed);
        outcome
    };
    // Refuse to start under a cancelled/expired control.
    if let Err(e) = rt.control().check() {
        return fail(FragmentOutcome::Failed(e));
    }
    rt.set_state(subject, OpState::Open);
    let pumped = pump(frag, root, rt, sink, start, progress);
    let schema = root.schema().clone();
    let closed = root.close();
    match pumped {
        Ok(Some(signalled)) => return signalled,
        Err(failure) => return fail(failure),
        Ok(None) => {}
    }
    if let Err(e) = closed.and_then(|()| sink.finish(schema, rt)) {
        return fail(FragmentOutcome::Failed(e));
    }
    // Materialization point: emit closed(frag); replan rules fire here.
    rt.set_state(subject, OpState::Closed);
    match rt.take_signal_for(frag) {
        Some(EngineSignal::Abort(m)) => FragmentOutcome::Aborted(m),
        signal => FragmentOutcome::Completed {
            cardinality: progress.produced as usize,
            replan_requested: matches!(signal, Some(EngineSignal::Replan)),
        },
    }
}

/// Open the root and move its batches into the sink. Ends with `Ok(None)`
/// at the end of a complete stream, `Ok(Some(outcome))` at a rule's
/// reschedule or abort, and `Err(outcome)` at an error.
fn pump(
    frag: FragmentId,
    root: &mut dyn Operator,
    rt: &PlanRuntime,
    sink: &mut dyn FragmentSink,
    start: Instant,
    progress: &mut Progress,
) -> std::result::Result<Option<FragmentOutcome>, FragmentOutcome> {
    // An operator error with a pending signal becomes that signal's
    // outcome (e.g. timeout + reschedule rule ⇒ Rescheduled).
    let op_failed = |e| interrupting_signal(rt, frag).unwrap_or(FragmentOutcome::Failed(e));
    let failed = FragmentOutcome::Failed;
    root.open().map_err(op_failed)?;
    sink.open(root.schema()).map_err(failed)?;
    while let Some(batch) = root.next_batch().map_err(op_failed)? {
        let elapsed = start.elapsed();
        let n = batch.len() as u64;
        progress.time_to_first.get_or_insert(elapsed);
        progress.produced += n;
        rt.add_produced(SubjectRef::Fragment(frag), n);
        sink.batch(batch, progress.produced, elapsed)
            .map_err(failed)?;
        // Cooperative cancellation: deadlines self-trip here.
        rt.control().check().map_err(failed)?;
        // Reschedule is fragment-scoped: a request raised for a concurrent
        // sibling stays queued for that sibling.
        if rt.signal_pending() {
            if let Some(outcome) = interrupting_signal(rt, frag) {
                return Ok(Some(outcome));
            }
        }
    }
    rt.control().check().map(|()| None).map_err(failed)
}

/// The outcome a pending reschedule or abort for `frag` makes. A pending
/// replan is put back: it waits for the materialization point.
fn interrupting_signal(rt: &PlanRuntime, frag: FragmentId) -> Option<FragmentOutcome> {
    match rt.take_signal_for(frag)? {
        EngineSignal::Abort(m) => Some(FragmentOutcome::Aborted(m)),
        EngineSignal::Reschedule => Some(FragmentOutcome::Rescheduled),
        EngineSignal::Replan => {
            rt.emit_replan_signal();
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::build_operator;
    use crate::runtime::ExecEnv;
    use crate::test_support::keyed_relation;
    use std::sync::Arc;
    use tukwila_plan::{JoinKind, PlanBuilder, QueryPlan, Rule};
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

    /// Build fragment `f` of `plan` and materialize it, as the scheduler
    /// does; returns the report and the per-batch samples.
    fn run(
        plan: &QueryPlan,
        f: FragmentId,
        rt: &Arc<PlanRuntime>,
    ) -> (FragmentReport, Vec<(u64, Duration)>) {
        let frag = plan.fragment(f).expect("fragment");
        let root = build_operator(&frag.root, rt).expect("build");
        let mut sink = Materialize::new(&frag.materialize_as);
        let report = run_fragment(f, root, rt, &mut sink);
        (report, sink.into_series())
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
        let report = run(&plan, f, &rt).0;
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
        let report = run(&plan, f, &rt).0;
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
        let report = run(&plan, f, &rt).0;
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
        let report = run(&plan, f, &rt).0;
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
        let report = run(&plan, f, &rt).0;
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
        let (_, series) = run(&plan, f, &rt);
        assert_eq!(series.len(), 5);
        assert_eq!(series.last().unwrap().0, 50);
        assert!(series
            .windows(2)
            .all(|w| w[0].0 < w[1].0 && w[0].1 <= w[1].1));
    }

    /// A root that panics at its first batch.
    struct Panics(Schema);

    impl Operator for Panics {
        fn open(&mut self) -> Result<()> {
            Ok(())
        }

        fn next_batch(&mut self) -> Result<Option<TupleBatch>> {
            panic!("boom")
        }

        fn close(&mut self) -> Result<()> {
            Ok(())
        }

        fn schema(&self) -> &Schema {
            &self.0
        }

        fn name(&self) -> &'static str {
            "panics"
        }
    }

    #[test]
    fn a_panicking_root_is_an_internal_failure() {
        let mut b = PlanBuilder::new();
        let l = b.wrapper_scan("L");
        let f = b.fragment(l, "out");
        let plan = b.build(f);
        let rt = crate::runtime::PlanRuntime::for_plan(&plan, ExecEnv::new(registry(10)));
        let root = Box::new(Panics(Schema::empty()));
        let report = run_fragment(f, root, &rt, &mut Materialize::new("out"));
        match report.outcome {
            FragmentOutcome::Failed(e) => {
                assert_eq!(e.kind(), "internal");
                assert!(e.to_string().contains("boom"), "{e}");
            }
            other => panic!("unexpected outcome {other:?}"),
        }
        assert!(!rt.env().local.contains("out"), "nothing materialized");
    }
}
