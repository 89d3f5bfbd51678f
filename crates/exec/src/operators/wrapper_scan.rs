//! Wrapper scan: fetch a source relation through its wrapper.
//!
//! The leaves of a Tukwila plan are "file scans or requests for data from
//! wrappers" (§3.2). The wrapper scan is where the engine meets the
//! unpredictable network: it raises `timeout(n)` events when the source
//! stops responding (feeding the rescheduling rules of query scrambling)
//! and `error` events when the connection fails (feeding collector
//! fallback policies).
//!
//! Delivery is batched: the wrapper hands over each arrival *burst* as one
//! [`TupleBatch`] (blocking only for the first tuple of a burst), so a fast
//! source costs one handoff per block while a slow source still delivers
//! its first tuple as early as the tuple-at-a-time engine did. A scan with
//! neither a timeout nor a prefetch pulls its stream inline. A scan with
//! either runs the stream on a `feed-source` feeder and reads the feeder's
//! queue — with the timeout as the read's deadline (the paper's
//! `timeout(n)` detector, §3.1.2), and with `:prefetch N` reading about
//! `N` tuples ahead.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use tukwila_common::{Result, Schema, TukwilaError, TupleBatch};
use tukwila_source::{SourceBatchEvent, Wrapper, WrapperStream};
use tukwila_trace::{OpMetrics, TraceEvent};

use crate::feeder::{Feed, Feeders};
use crate::operator::Operator;
use crate::operators::{open_source_stream, SourceChild};
use crate::runtime::OpHarness;

/// Where an open scan's batches come from.
enum Input {
    /// Pulled on the scan's own thread.
    Inline(WrapperStream),
    /// Read off a `feed-source` feeder's queue. The flag is the stream's
    /// cancel handle: it tells a cancelled end from a drained one.
    Fed(Feeders, Arc<AtomicBool>),
}

impl Input {
    /// The stream's next event, or `None` when a read with a deadline of
    /// `timeout_ms` saw nothing. An error is the feeder child's
    /// `SourceUnavailable`, or a feeder that died.
    fn next(&mut self, max: usize, timeout_ms: Option<u64>) -> Result<Option<SourceBatchEvent>> {
        let (feeders, cancel) = match self {
            Input::Inline(stream) => return Ok(Some(stream.next_batch_event(max))),
            Input::Fed(feeders, cancel) => (feeders, cancel),
        };
        loop {
            let (_, feed) = match timeout_ms {
                None => feeders.recv(&[0])?,
                Some(ms) => match feeders.recv_timeout(0, Duration::from_millis(ms))? {
                    Some(msg) => msg,
                    None => return Ok(None),
                },
            };
            let event = match feed {
                Feed::Schema(_) => continue,
                Feed::Batch(batch) => SourceBatchEvent::Batch(batch),
                // A cancelled stream ends its feeder like a drained one.
                Feed::End if cancel.load(Ordering::Relaxed) => SourceBatchEvent::Cancelled,
                Feed::End => SourceBatchEvent::End,
                Feed::Err(e) => return Err(e),
            };
            return Ok(Some(event));
        }
    }
}

/// Streams a source's relation, with optional timeout detection and
/// prefetch buffering.
pub struct WrapperScan {
    source: String,
    timeout_ms: Option<u64>,
    prefetch: Option<usize>,
    harness: OpHarness,
    /// `None` until open, and again once closed.
    input: Option<Input>,
    schema: Schema,
    finished: bool,
    opened_at: Option<Instant>,
    /// First tuple already seen (first-tuple latency event emitted).
    saw_first: bool,
    /// A stall (timeout) was observed since the last delivered batch; the
    /// next arrival is traced as the post-stall burst.
    stalled: bool,
    metrics: Option<Arc<OpMetrics>>,
}

impl WrapperScan {
    /// Build a wrapper scan of `source`.
    pub fn new(
        source: String,
        timeout_ms: Option<u64>,
        prefetch: Option<usize>,
        harness: OpHarness,
    ) -> Self {
        WrapperScan {
            source,
            timeout_ms,
            prefetch,
            harness,
            input: None,
            schema: Schema::empty(),
            finished: false,
            opened_at: None,
            saw_first: false,
            stalled: false,
            metrics: None,
        }
    }

    /// Run `stream` on a feeder whose queue holds `:prefetch` tuples'
    /// worth of batches, rounded up, and at least one batch.
    fn feed(&self, wrapper: Wrapper, stream: WrapperStream) -> Result<Input> {
        let rt = self.harness.runtime();
        let batch = self.harness.batch_size().max(1);
        let cap = self.prefetch.map_or(1, |n| n.div_ceil(batch)).max(1);
        let mut feeders = Feeders::new(rt);
        feeders.stall = self.metrics.clone();
        let cancel = stream.cancel_handle();
        // Closing the scan early wakes a source asleep in its link model.
        feeders.aborts.push(cancel.clone());
        let child = SourceChild {
            rt: rt.clone(),
            subject: self.harness.subject(),
            wrapper,
            stream: Some(stream),
        };
        let out = (0, feeders.queue(cap));
        feeders.spawn("source", Box::new(child), out, |_| {})?;
        Ok(Input::Fed(feeders, cancel))
    }

    /// The source has not responded in `ms` msec: raise the event; rules
    /// run synchronously inside emit. If a rule requested an engine-level
    /// response, surface a recoverable error so the fragment loop can act.
    fn timed_out(&mut self, ms: u64) -> Result<()> {
        let trace = self.harness.trace();
        if trace.events_enabled() {
            trace.emit(TraceEvent::SourceStall {
                source: self.source.clone(),
                waited_ms: ms,
            });
        }
        self.stalled = true;
        self.harness.timeout(ms);
        if self.harness.signal_pending() {
            return Err(TukwilaError::SourceTimeout {
                source: self.source.clone(),
                timeout_ms: ms,
            });
        }
        Ok(())
    }
}

impl Operator for WrapperScan {
    fn open(&mut self) -> Result<()> {
        let rt = self.harness.runtime().clone();
        let wrapper = rt.env().sources.wrapper(&self.source)?;
        self.schema = wrapper.schema().clone();
        let Some(stream) = open_source_stream(&rt, self.harness.subject(), &wrapper)? else {
            // Wait cancelled by a rule: end quietly (the rule that
            // cancelled us decides what happens next).
            self.finished = true;
            self.harness.opened();
            return Ok(());
        };
        self.metrics = self.harness.metrics("wrapper_scan");
        self.input = Some(match (self.timeout_ms, self.prefetch) {
            (None, None) => Input::Inline(stream),
            _ => self.feed(wrapper, stream)?,
        });
        self.finished = false;
        self.opened_at = Some(Instant::now());
        self.saw_first = false;
        self.stalled = false;
        self.harness.opened();
        Ok(())
    }

    fn next_batch(&mut self) -> Result<Option<TupleBatch>> {
        if self.finished {
            return Ok(None);
        }
        let max = self.harness.batch_size();
        loop {
            if !self.harness.is_active() {
                self.finished = true;
                return Ok(None);
            }
            let Some(input) = &mut self.input else {
                return Err(TukwilaError::Internal(
                    "WrapperScan::next_batch before open".into(),
                ));
            };
            let event = match input.next(max, self.timeout_ms) {
                Ok(Some(event)) => event,
                Ok(None) => {
                    // Only a read with a deadline comes back empty.
                    if let Some(ms) = self.timeout_ms {
                        self.timed_out(ms)?;
                    }
                    continue; // deactivated? checked at loop head
                }
                Err(e) => {
                    self.finished = true;
                    self.harness.failed();
                    return Err(e);
                }
            };
            match event {
                SourceBatchEvent::Batch(batch) => {
                    let trace = self.harness.trace();
                    if trace.events_enabled() {
                        if !self.saw_first {
                            self.saw_first = true;
                            let elapsed_ms = self
                                .opened_at
                                .map(|t| t.elapsed().as_millis() as u64)
                                .unwrap_or(0);
                            trace.emit(TraceEvent::SourceFirstTuple {
                                source: self.source.clone(),
                                elapsed_ms,
                            });
                        }
                        if self.stalled {
                            self.stalled = false;
                            trace.emit(TraceEvent::SourceBurst {
                                source: self.source.clone(),
                                tuples: batch.len() as u64,
                            });
                        }
                    }
                    if let Some(m) = &self.metrics {
                        m.add_output(batch.len() as u64);
                    }
                    self.harness.produced(batch.len() as u64);
                    return Ok(Some(batch));
                }
                SourceBatchEvent::End => {
                    self.finished = true;
                    self.harness.closed();
                    return Ok(None);
                }
                SourceBatchEvent::Cancelled => {
                    self.finished = true;
                    // Query-level cancellation (client cancel, deadline)
                    // surfaces as an error so the fragment fails cleanly;
                    // rule-driven deactivation ends quietly (the rule that
                    // cancelled us decides what happens next).
                    self.harness.runtime().control().check()?;
                    return Ok(None);
                }
                SourceBatchEvent::Error(reason) => {
                    self.finished = true;
                    self.harness.failed();
                    return Err(TukwilaError::SourceUnavailable {
                        source: self.source.clone(),
                        reason,
                    });
                }
            }
        }
    }

    fn close(&mut self) -> Result<()> {
        // A dropped feeder group wakes its source and joins its thread.
        self.input = None;
        Ok(())
    }

    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn name(&self) -> &'static str {
        "wrapper_scan"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::operator::drain;
    use crate::runtime::{ExecEnv, PlanRuntime};
    use std::sync::Arc;
    use tukwila_common::{tuple, DataType, Relation};
    use tukwila_plan::{Action, Condition, EventKind, EventPattern, PlanBuilder, Rule, SubjectRef};
    use tukwila_source::{LinkModel, SimulatedSource, SourceRegistry};

    fn rel(n: i64) -> Relation {
        let schema = Schema::of("s", &[("a", DataType::Int)]);
        let mut r = Vec::new();
        for i in 0..n {
            r.push(tuple![i]);
        }
        Relation::new(schema, r).unwrap()
    }

    fn setup(
        link: LinkModel,
        timeout_ms: Option<u64>,
        extra_rule: Option<Rule>,
    ) -> (WrapperScan, Arc<PlanRuntime>, tukwila_plan::OpId) {
        setup_opts(20, link, timeout_ms, None, extra_rule)
    }

    /// A scan of `rows` rows with every option of `(wrapper src …)`.
    fn setup_opts(
        rows: i64,
        link: LinkModel,
        timeout_ms: Option<u64>,
        prefetch: Option<usize>,
        extra_rule: Option<Rule>,
    ) -> (WrapperScan, Arc<PlanRuntime>, tukwila_plan::OpId) {
        let mut b = PlanBuilder::new();
        let scan = b.wrapper_scan_opts("src", timeout_ms, prefetch);
        let id = scan.id;
        let f = b.fragment(scan, "out");
        let mut plan = b.build(f);
        if let Some(r) = extra_rule {
            plan.global_rules.push(r);
        }
        let registry = SourceRegistry::new();
        registry.register(SimulatedSource::new("src", rel(rows), link));
        let rt = PlanRuntime::for_plan(&plan, ExecEnv::new(registry));
        let h = OpHarness::new(rt.clone(), SubjectRef::Op(id));
        (
            WrapperScan::new("src".into(), timeout_ms, prefetch, h),
            rt,
            id,
        )
    }

    /// Open `op` and pull it to its end or its first error: the rows it
    /// gave on the way, and how it ended.
    fn rows_then(op: &mut WrapperScan) -> (usize, Result<()>) {
        let mut rows = 0;
        let end = op.open().and_then(|()| loop {
            match op.next_batch() {
                Ok(Some(batch)) => rows += batch.len(),
                Ok(None) => break Ok(()),
                Err(e) => break Err(e),
            }
        });
        (rows, end)
    }

    /// A scan of `rows` rows over `link` reading `prefetch` tuples ahead.
    fn prefetching(rows: i64, link: LinkModel, prefetch: Option<usize>) -> WrapperScan {
        setup_opts(rows, link, None, prefetch, None).0
    }

    #[test]
    fn streams_source() {
        let (mut op, rt, id) = setup(LinkModel::instant(), None, None);
        let out = drain(&mut op).unwrap();
        assert_eq!(out.len(), 20);
        assert_eq!(rt.produced(SubjectRef::Op(id)), 20);
    }

    #[test]
    fn source_error_fails_scan_and_emits_event() {
        let (mut op, rt, id) = setup(LinkModel::failing(3), None, None);
        let (n, end) = rows_then(&mut op);
        let err = end.unwrap_err();
        assert_eq!(n, 3);
        assert_eq!(err.kind(), "source_unavailable");
        assert!(rt
            .event_log()
            .iter()
            .any(|e| e.kind == EventKind::Error && e.subject == SubjectRef::Op(id)));
    }

    #[test]
    fn timeout_emits_event_and_reschedule_rule_aborts() {
        let rule_frag = tukwila_plan::FragmentId(0);
        let rule = Rule::reschedule_on_timeout(rule_frag, tukwila_plan::OpId(0));
        let (mut op, rt, id) = setup(LinkModel::stalling(2), Some(30), Some(rule));
        // Two tuples, then a stall: after ~30ms the timeout fires, the
        // reschedule rule raises the signal, and the scan errors out.
        let (n, end) = rows_then(&mut op);
        let err = end.unwrap_err();
        assert_eq!(n, 2);
        assert_eq!(err.kind(), "source_timeout");
        assert!(rt
            .event_log()
            .iter()
            .any(|e| e.kind == EventKind::Timeout && e.subject == SubjectRef::Op(id)));
        assert!(rt.signal_pending());
    }

    #[test]
    fn timeout_with_deactivation_rule_ends_quietly() {
        let id = tukwila_plan::OpId(0);
        let rule = Rule::new(
            "kill-on-timeout",
            SubjectRef::Fragment(tukwila_plan::FragmentId(0)),
            EventPattern::new(EventKind::Timeout, SubjectRef::Op(id)),
            Condition::True,
            vec![Action::Deactivate(SubjectRef::Op(id))],
        );
        let (mut op, rt, _) = setup(LinkModel::stalling(1), Some(25), Some(rule));
        // stall → timeout → deactivate → scan ends after one tuple, no error
        assert_eq!(drain(&mut op).unwrap().len(), 1);
        assert!(!rt.signal_pending());
    }

    #[test]
    fn unknown_source_fails_open() {
        let mut b = PlanBuilder::new();
        let scan = b.wrapper_scan("ghost");
        let id = scan.id;
        let f = b.fragment(scan, "out");
        let plan = b.build(f);
        let rt = PlanRuntime::for_plan(&plan, ExecEnv::new(SourceRegistry::new()));
        let h = OpHarness::new(rt, SubjectRef::Op(id));
        let mut op = WrapperScan::new("ghost".into(), None, None, h);
        assert_eq!(op.open().unwrap_err().kind(), "source_unavailable");
    }

    #[test]
    fn prefetching_overlaps_waiting() {
        // Source delivers a tuple every 2ms; consumer takes 2ms per tuple.
        // Inline: ~4ms/tuple. Prefetching: ~2ms/tuple once warmed up.
        let link = LinkModel {
            per_tuple: Duration::from_millis(2),
            ..LinkModel::instant()
        };
        let n = 25;
        let consume = |mut op: WrapperScan| {
            op.open().unwrap();
            let start = Instant::now();
            while let Some(batch) = op.next_batch().unwrap() {
                std::thread::sleep(Duration::from_millis(2) * batch.len() as u32);
            }
            let took = start.elapsed();
            op.close().unwrap();
            took
        };
        let direct = consume(prefetching(n, link.clone(), None));
        let prefetched = consume(prefetching(n, link, Some(64)));
        assert!(
            prefetched < direct,
            "prefetching ({prefetched:?}) should beat direct ({direct:?})"
        );
    }

    #[test]
    fn error_propagates_through_prefetch() {
        let mut op = prefetching(10, LinkModel::failing(3), Some(4));
        op.open().unwrap();
        let mut n = 0;
        let err = loop {
            match op.next_batch() {
                Ok(Some(batch)) => n += batch.len(),
                Ok(None) => panic!("expected error"),
                Err(e) => break e,
            }
        };
        assert_eq!(n, 3, "all pre-failure tuples delivered before the error");
        assert_eq!(err.kind(), "source_unavailable");
        assert!(err.to_string().contains("src"), "{err}");
    }

    #[test]
    fn stream_end_is_sticky_when_prefetching() {
        let mut op = prefetching(1, LinkModel::instant(), Some(2));
        op.open().unwrap();
        assert_eq!(op.next_batch().unwrap().map(|b| b.len()), Some(1));
        assert!(op.next_batch().unwrap().is_none());
        assert!(op.next_batch().unwrap().is_none());
        op.close().unwrap();
    }

    #[test]
    fn prefetched_batches_are_whole_bursts() {
        let (mut op, rt, _) = setup_opts(100, LinkModel::instant(), None, Some(64), None);
        let max = rt.env().batch_size;
        op.open().unwrap();
        let (mut total, mut batches) = (0, 0);
        while let Some(batch) = op.next_batch().unwrap() {
            assert!(batch.len() <= max);
            total += batch.len();
            batches += 1;
        }
        assert_eq!(total, 100);
        assert!(
            max == 1 || batches < 100,
            "buffered tuples must coalesce into bursts"
        );
        op.close().unwrap();
    }
}
