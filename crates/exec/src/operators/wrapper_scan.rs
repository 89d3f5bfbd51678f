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
//! its first tuple as early as the tuple-at-a-time engine did.

use std::sync::Arc;
use std::time::{Duration, Instant};

use tukwila_common::{Result, Schema, TukwilaError, TupleBatch};
use tukwila_source::{SourceBatchEvent, WrapperStream};
use tukwila_trace::{OpMetrics, TraceEvent};

use crate::operator::Operator;
use crate::runtime::OpHarness;

/// Streams a source's relation, with optional timeout detection and
/// prefetch buffering.
pub struct WrapperScan {
    source: String,
    timeout_ms: Option<u64>,
    prefetch: Option<usize>,
    harness: OpHarness,
    stream: Option<WrapperStream>,
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
            stream: None,
            schema: Schema::empty(),
            finished: false,
            opened_at: None,
            saw_first: false,
            stalled: false,
            metrics: None,
        }
    }
}

impl Operator for WrapperScan {
    fn open(&mut self) -> Result<()> {
        let rt = self.harness.runtime().clone();
        let wrapper = rt.env().sources.wrapper(&self.source)?;
        self.schema = wrapper.schema().clone();
        // Timeout detection requires the buffered fetch (a direct pull
        // blocks inside the link model and cannot observe a deadline).
        let base = |w: &tukwila_source::Wrapper| match (self.timeout_ms, self.prefetch) {
            (None, None) => w.fetch(),
            (_, Some(buf)) => w.fetch_prefetching(buf),
            (Some(_), None) => w.fetch_prefetching(1),
        };
        let stream = match crate::operators::open_source_stream(
            &rt,
            self.harness.subject(),
            &wrapper,
            base,
        )? {
            Some(s) => s,
            None => {
                // Wait cancelled by a rule: end quietly (the rule that
                // cancelled us decides what happens next).
                self.finished = true;
                self.harness.opened();
                return Ok(());
            }
        };
        self.stream = Some(stream);
        self.finished = false;
        self.opened_at = Some(Instant::now());
        self.saw_first = false;
        self.stalled = false;
        self.metrics = self.harness.metrics("wrapper_scan");
        self.harness.opened();
        Ok(())
    }

    fn next_batch(&mut self) -> Result<Option<TupleBatch>> {
        if self.finished {
            return Ok(None);
        }
        let max = self.harness.batch_size();
        let stream = self
            .stream
            .as_mut()
            .ok_or_else(|| TukwilaError::Internal("WrapperScan::next_batch before open".into()))?;
        loop {
            if !self.harness.is_active() {
                self.finished = true;
                return Ok(None);
            }
            let event = match self.timeout_ms {
                Some(ms) => {
                    match stream.next_batch_event_timeout(max, Duration::from_millis(ms)) {
                        Some(ev) => ev,
                        None => {
                            // Source has not responded in `ms` msec: raise the
                            // event; rules run synchronously inside emit. If a
                            // rule requested an engine-level response, surface
                            // a recoverable error so the fragment loop can act.
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
                            continue; // deactivated? checked at loop head
                        }
                    }
                }
                None => stream.next_batch_event(max),
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
        self.stream = None; // drops prefetch thread if any
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
    use crate::operator::{drain, TupleCursor};
    use crate::runtime::{ExecEnv, PlanRuntime};
    use std::sync::Arc;
    use tukwila_common::{tuple, DataType, Relation};
    use tukwila_plan::{Action, Condition, EventKind, EventPattern, PlanBuilder, Rule, SubjectRef};
    use tukwila_source::{LinkModel, SimulatedSource, SourceRegistry};

    fn rel(n: i64) -> Relation {
        let schema = Schema::of("s", &[("a", DataType::Int)]);
        let mut r = Relation::empty(schema);
        for i in 0..n {
            r.push(tuple![i]);
        }
        r
    }

    fn setup(
        link: LinkModel,
        timeout_ms: Option<u64>,
        extra_rule: Option<Rule>,
    ) -> (WrapperScan, Arc<PlanRuntime>, tukwila_plan::OpId) {
        let mut b = PlanBuilder::new();
        let scan = b.wrapper_scan_opts("src", timeout_ms, None);
        let id = scan.id;
        let f = b.fragment(scan, "out");
        let mut plan = b.build(f);
        if let Some(r) = extra_rule {
            plan.global_rules.push(r);
        }
        let registry = SourceRegistry::new();
        registry.register(SimulatedSource::new("src", rel(20), link));
        let rt = PlanRuntime::for_plan(&plan, ExecEnv::new(registry));
        let h = OpHarness::new(rt.clone(), SubjectRef::Op(id));
        (WrapperScan::new("src".into(), timeout_ms, None, h), rt, id)
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
        op.open().unwrap();
        let mut cursor = TupleCursor::new();
        let mut n = 0;
        let err = loop {
            match cursor.next(&mut op) {
                Ok(Some(_)) => n += 1,
                Ok(None) => panic!("expected error"),
                Err(e) => break e,
            }
        };
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
        op.open().unwrap();
        let mut cursor = TupleCursor::new();
        assert!(cursor.next(&mut op).unwrap().is_some());
        assert!(cursor.next(&mut op).unwrap().is_some());
        // Third tuple stalls forever; after ~30ms the timeout fires, the
        // reschedule rule raises the signal, and the scan errors out.
        let err = cursor.next(&mut op).unwrap_err();
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
        op.open().unwrap();
        let mut cursor = TupleCursor::new();
        assert!(cursor.next(&mut op).unwrap().is_some());
        // stall → timeout → deactivate → scan ends with None, no error
        assert!(cursor.next(&mut op).unwrap().is_none());
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
}
