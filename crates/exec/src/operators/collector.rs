//! The dynamic collector (§4.1): a policy-driven union over a large set of
//! possibly overlapping or redundant sources.
//!
//! "The query execution engine implements the policy by contacting data
//! sources in parallel, monitoring the state of each connection, and adding
//! or dropping connections as required by error and latency conditions. A
//! key aspect distinguishing the collector operator from a standard union
//! is flexibility to contact only some of the sources."
//!
//! The policy itself is a set of event-condition-action rules in the
//! enclosing plan (the paper's example: race two mirrors, kill the loser at
//! a tuple threshold, activate a third source on timeout). The collector's
//! job here is mechanics: one feeder per active child streaming into a
//! shared queue; `opened`/`closed`/`error`/`timeout`/`threshold` events per
//! child; children activated by rules are picked up mid-flight, children
//! deactivated by rules are cancelled and their buffered tuples dropped.
//! Every rule-visible effect happens on the collector's own thread.

use std::time::{Duration, Instant};

use crossbeam_channel::Sender;

use tukwila_common::{Result, Schema, TukwilaError, TupleBatch};
use tukwila_plan::{CollectorChildSpec, OpState, QuantityProvider, SubjectRef};

use crate::feeder::{Feed, Feeders, Tagged};
use crate::operator::Operator;
use crate::operators::SourceChild;
use crate::runtime::OpHarness;

struct ChildState {
    spec: CollectorChildSpec,
    spawned: bool,
    done: bool,
    failed: bool,
    last_activity: Instant,
    timeout_raised: bool,
}

/// The dynamic collector operator.
pub struct Collector {
    children: Vec<ChildState>,
    quota: Option<usize>,
    child_timeout: Option<Duration>,
    harness: OpHarness,
    schema: Schema,
    /// One feeder per started child, all into one queue, tagged by child.
    feeders: Feeders,
    /// The queue's sender, cloned for each child started.
    tx: Sender<Tagged>,
    emitted: usize,
    opened: bool,
}

impl Collector {
    /// Build a collector from its child specs.
    pub fn new(
        children: Vec<CollectorChildSpec>,
        quota: Option<usize>,
        child_timeout_ms: Option<u64>,
        harness: OpHarness,
    ) -> Self {
        let mut feeders = Feeders::new(harness.runtime());
        // Children still streaming at close are cancelled, then reaped.
        feeders.deactivate = children.iter().map(|c| SubjectRef::Op(c.id)).collect();
        // Capacity is in *batches* (each message carries a whole arrival
        // burst), so the in-flight bound scales with the batch size; 16
        // batches keeps backpressure comparable to the tuple-era queue.
        let tx = feeders.queue(16);
        Collector {
            children: children
                .into_iter()
                .map(|spec| ChildState {
                    spec,
                    spawned: false,
                    done: false,
                    failed: false,
                    last_activity: Instant::now(),
                    timeout_raised: false,
                })
                .collect(),
            quota,
            child_timeout: child_timeout_ms.map(Duration::from_millis),
            feeders,
            harness,
            schema: Schema::empty(),
            tx,
            emitted: 0,
            opened: false,
        }
    }

    /// Start any children that rules have activated since the last poll.
    /// Each hands its arrival bursts over as whole batches — one queue
    /// message per burst rather than per tuple.
    fn spawn_activated(&mut self) -> Result<()> {
        let rt = self.harness.runtime().clone();
        for (idx, c) in self.children.iter_mut().enumerate() {
            let subject = SubjectRef::Op(c.spec.id);
            if c.spawned || c.done || !rt.is_active(subject) {
                continue;
            }
            let wrapper = rt.env().sources.wrapper(&c.spec.source)?;
            rt.set_state(subject, OpState::Open);
            c.spawned = true;
            c.last_activity = Instant::now();
            let child = SourceChild {
                rt: rt.clone(),
                subject,
                wrapper,
                stream: None,
            };
            let out = (idx, self.tx.clone());
            self.feeders
                .spawn("collector", Box::new(child), out, |_| {})?;
        }
        Ok(())
    }

    fn live_children(&self) -> usize {
        let rt = self.harness.runtime();
        self.children
            .iter()
            .filter(|c| c.spawned && !c.done && rt.is_active(SubjectRef::Op(c.spec.id)))
            .count()
    }

    fn pending_activation_possible(&self) -> bool {
        // Called after `spawn_activated`, so any child a rule has already
        // activated is spawned. Once every spawned child is done, no
        // further event can originate from this collector, hence no
        // self-contained policy rule can activate a standby anymore — the
        // stream is over. (A rule triggered by an event *outside* the
        // collector could in principle still fire; such policies must keep
        // the collector alive via an active child instead.)
        self.children.iter().any(|c| {
            !c.spawned && !c.done && self.harness.runtime().is_active(SubjectRef::Op(c.spec.id))
        })
    }

    fn check_child_timeouts(&mut self) {
        let Some(to) = self.child_timeout else { return };
        let rt = self.harness.runtime().clone();
        for c in &mut self.children {
            let subject = SubjectRef::Op(c.spec.id);
            if c.spawned
                && !c.done
                && !c.timeout_raised
                && rt.is_active(subject)
                && c.last_activity.elapsed() >= to
            {
                c.timeout_raised = true;
                rt.emit(tukwila_plan::Event::with_value(
                    tukwila_plan::EventKind::Timeout,
                    subject,
                    to.as_millis() as u64,
                ));
            }
        }
    }
}

impl Operator for Collector {
    fn open(&mut self) -> Result<()> {
        if self.children.is_empty() {
            return Err(TukwilaError::Plan("collector with no children".into()));
        }
        // Schema comes from the first child's source (all children serve
        // the same mediated relation).
        let rt = self.harness.runtime().clone();
        let first = rt.env().sources.wrapper(&self.children[0].spec.source)?;
        self.schema = first.schema().clone();
        for c in &self.children {
            let w = rt.env().sources.wrapper(&c.spec.source)?;
            if w.schema().arity() != self.schema.arity() {
                return Err(TukwilaError::Schema(format!(
                    "collector child `{}` arity {} != {}",
                    c.spec.source,
                    w.schema().arity(),
                    self.schema.arity()
                )));
            }
        }
        self.feeders.stall = self.harness.metrics("collector");
        self.emitted = 0;
        self.opened = true;
        self.harness.opened();
        self.spawn_activated()?;
        Ok(())
    }

    fn next_batch(&mut self) -> Result<Option<TupleBatch>> {
        if !self.opened {
            return Err(TukwilaError::Internal("Collector before open".into()));
        }
        let rt = self.harness.runtime().clone();
        loop {
            if let Some(q) = self.quota {
                if self.emitted >= q {
                    return Ok(None);
                }
            }
            // Timeout checks may fire rules that activate standby children;
            // spawn *after* them so a fallback activated by a rule is seen
            // before the end-of-stream check below.
            self.check_child_timeouts();
            self.spawn_activated()?;
            if self.live_children() == 0 && !self.pending_activation_possible() {
                // No data can arrive anymore. Total failure with zero
                // output is surfaced as an error; partial delivery is a
                // policy outcome, not an error.
                let all_failed = self.children.iter().filter(|c| c.spawned).all(|c| c.failed)
                    && self.children.iter().any(|c| c.spawned);
                if all_failed && self.emitted == 0 {
                    return Err(TukwilaError::SourceUnavailable {
                        source: self
                            .children
                            .iter()
                            .map(|c| c.spec.source.as_str())
                            .collect::<Vec<_>>()
                            .join("|"),
                        reason: "all collector children failed".into(),
                    });
                }
                return Ok(None);
            }
            let Some((idx, msg)) = self.feeders.recv_timeout(0, Duration::from_millis(2))? else {
                continue; // poll activations
            };
            match msg {
                Feed::Batch(mut batch) => {
                    let subject = SubjectRef::Op(self.children[idx].spec.id);
                    if !rt.is_active(subject) {
                        continue; // killed child: drop buffered batches
                    }
                    if let Some(q) = self.quota {
                        batch.truncate(q.saturating_sub(self.emitted));
                        if batch.is_empty() {
                            continue;
                        }
                    }
                    let n = batch.len();
                    self.children[idx].last_activity = Instant::now();
                    rt.add_produced(subject, n as u64); // drives threshold(child, n)
                    self.emitted += n;
                    self.harness.produced(n as u64);
                    return Ok(Some(batch));
                }
                Feed::Schema(_) => {}
                Feed::End => {
                    self.children[idx].done = true;
                    let subject = SubjectRef::Op(self.children[idx].spec.id);
                    if rt.state(subject) == OpState::Open {
                        rt.set_state(subject, OpState::Closed);
                    }
                }
                Feed::Err(_) => {
                    self.children[idx].done = true;
                    self.children[idx].failed = true;
                    let subject = SubjectRef::Op(self.children[idx].spec.id);
                    // Emits the `error` event; fallback rules fire here.
                    rt.set_state(subject, OpState::Failed);
                }
            }
        }
    }

    fn close(&mut self) -> Result<()> {
        self.feeders.shutdown();
        if self.opened {
            self.opened = false;
            self.harness.closed();
        }
        Ok(())
    }

    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn name(&self) -> &'static str {
        "collector"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::operator::drain;
    use crate::runtime::{ExecEnv, PlanRuntime};
    use std::sync::Arc;
    use tukwila_common::{tuple, DataType, Relation};
    use tukwila_plan::{
        Action, Condition, EventKind, EventPattern, OpId, PlanBuilder, QueryPlan, Rule,
    };
    use tukwila_source::{LinkModel, SimulatedSource, SourceRegistry};

    fn rel(tag: i64, n: i64) -> Relation {
        let schema = Schema::of("bib", &[("id", DataType::Int), ("src", DataType::Int)]);
        let mut r = Vec::new();
        for i in 0..n {
            r.push(tuple![i, tag]);
        }
        Relation::new(schema, r).unwrap()
    }

    struct Fixture {
        rt: Arc<PlanRuntime>,
        plan: QueryPlan,
        child_ids: Vec<OpId>,
        coll_id: OpId,
    }

    fn fixture(
        sources: &[(&str, Relation, LinkModel, bool)],
        quota: Option<usize>,
        timeout_ms: Option<u64>,
        rules: Vec<Rule>,
    ) -> Fixture {
        let registry = SourceRegistry::new();
        for (name, rel, link, _) in sources {
            registry.register(SimulatedSource::new(*name, rel.clone(), link.clone()));
        }
        let mut b = PlanBuilder::new();
        let specs: Vec<(&str, bool)> = sources.iter().map(|(n, _, _, a)| (*n, *a)).collect();
        let (node, child_ids) = b.collector_with_timeout(&specs, quota, timeout_ms);
        let coll_id = node.id;
        let f = b.fragment(node, "out");
        let mut plan = b.build(f);
        plan.global_rules.extend(rules);
        let rt = PlanRuntime::for_plan(&plan, ExecEnv::new(registry));
        Fixture {
            rt,
            plan,
            child_ids,
            coll_id,
        }
    }

    fn collector_of(fx: &Fixture) -> Collector {
        let frag = fx.plan.fragment(tukwila_plan::FragmentId(0)).unwrap();
        let tukwila_plan::OperatorSpec::Collector {
            children,
            quota,
            child_timeout_ms,
        } = &frag.root.spec
        else {
            panic!("not a collector");
        };
        Collector::new(
            children.clone(),
            *quota,
            *child_timeout_ms,
            OpHarness::new(fx.rt.clone(), SubjectRef::Op(fx.coll_id)),
        )
    }

    #[test]
    fn unions_all_active_children() {
        let fx = fixture(
            &[
                ("s1", rel(1, 10), LinkModel::instant(), true),
                ("s2", rel(2, 5), LinkModel::instant(), true),
            ],
            None,
            None,
            vec![],
        );
        let mut c = collector_of(&fx);
        let out = drain(&mut c).unwrap();
        assert_eq!(out.len(), 15);
    }

    #[test]
    fn standby_children_not_contacted() {
        // "flexibility to contact only some of the sources"
        let fx = fixture(
            &[
                ("s1", rel(1, 10), LinkModel::instant(), true),
                ("backup", rel(2, 10), LinkModel::instant(), false),
            ],
            None,
            None,
            vec![],
        );
        let mut c = collector_of(&fx);
        let out = drain(&mut c).unwrap();
        assert_eq!(out.len(), 10, "standby child must not be contacted");
    }

    #[test]
    fn error_activates_fallback_rule() {
        // Paper example: source A fails → activate C.
        let mut fx = fixture(
            &[
                ("primary", rel(1, 100), LinkModel::failing(3), true),
                ("fallback", rel(2, 20), LinkModel::instant(), false),
            ],
            None,
            None,
            vec![],
        );
        let primary = SubjectRef::Op(fx.child_ids[0]);
        let fallback = SubjectRef::Op(fx.child_ids[1]);
        fx.plan.global_rules.push(Rule::new(
            "fallback-on-error",
            SubjectRef::Op(fx.coll_id),
            EventPattern::new(EventKind::Error, primary),
            Condition::True,
            vec![Action::Activate(fallback)],
        ));
        fx.rt = PlanRuntime::for_plan(&fx.plan, ExecEnv::new(fx.rt.env().sources.clone()));
        let mut c = collector_of(&fx);
        let out = drain(&mut c).unwrap();
        // 3 tuples from the failing primary + all 20 from the fallback
        assert_eq!(out.len(), 23);
    }

    #[test]
    fn timeout_activates_fallback_and_kills_stalled() {
        let mut fx = fixture(
            &[
                ("staller", rel(1, 100), LinkModel::stalling(5), true),
                ("backup", rel(2, 30), LinkModel::instant(), false),
            ],
            None,
            Some(30),
            vec![],
        );
        let staller = SubjectRef::Op(fx.child_ids[0]);
        let backup = SubjectRef::Op(fx.child_ids[1]);
        fx.plan.global_rules.push(Rule::new(
            "scramble",
            SubjectRef::Op(fx.coll_id),
            EventPattern::new(EventKind::Timeout, staller),
            Condition::True,
            vec![Action::Activate(backup), Action::Deactivate(staller)],
        ));
        fx.rt = PlanRuntime::for_plan(&fx.plan, ExecEnv::new(fx.rt.env().sources.clone()));
        let mut c = collector_of(&fx);
        let out = drain(&mut c).unwrap();
        // 5 from the stalled source before the stall + 30 from the backup
        assert_eq!(out.len(), 35);
    }

    #[test]
    fn paper_mirror_race_policy() {
        // The paper's example: contact A and B; whichever sends 10 tuples
        // first wins and kills the other.
        let fast = LinkModel::instant();
        let slow = LinkModel {
            per_tuple: Duration::from_millis(2),
            ..LinkModel::instant()
        };
        let mut fx = fixture(
            &[
                ("mirror-fast", rel(1, 50), fast, true),
                ("mirror-slow", rel(2, 50), slow, true),
            ],
            None,
            None,
            vec![],
        );
        let a = SubjectRef::Op(fx.child_ids[0]);
        let b = SubjectRef::Op(fx.child_ids[1]);
        let owner = SubjectRef::Op(fx.coll_id);
        fx.plan.global_rules.push(Rule::new(
            "a-wins",
            owner,
            EventPattern::with_value(EventKind::Threshold, a, 10),
            Condition::True,
            vec![Action::Deactivate(b)],
        ));
        fx.plan.global_rules.push(Rule::new(
            "b-wins",
            owner,
            EventPattern::with_value(EventKind::Threshold, b, 10),
            Condition::True,
            vec![Action::Deactivate(a)],
        ));
        fx.rt = PlanRuntime::for_plan(&fx.plan, ExecEnv::new(fx.rt.env().sources.clone()));
        let mut c = collector_of(&fx);
        let out = drain(&mut c).unwrap();
        // The fast mirror delivers all 50; the slow one contributes < 50.
        let fast_count = out
            .iter()
            .filter(|t| t.value(1) == &tukwila_common::Value::Int(1))
            .count();
        assert_eq!(fast_count, 50, "winner must deliver its full data set");
        assert!(
            out.len() < 100,
            "loser should have been killed before finishing ({} tuples)",
            out.len()
        );
    }

    #[test]
    fn quota_stops_early() {
        let fx = fixture(
            &[("s1", rel(1, 1000), LinkModel::instant(), true)],
            Some(25),
            None,
            vec![],
        );
        let mut c = collector_of(&fx);
        let out = drain(&mut c).unwrap();
        assert_eq!(out.len(), 25);
    }

    #[test]
    fn all_children_failing_is_an_error() {
        let fx = fixture(
            &[
                ("dead1", rel(1, 10), LinkModel::down(), true),
                ("dead2", rel(2, 10), LinkModel::down(), true),
            ],
            None,
            None,
            vec![],
        );
        let mut c = collector_of(&fx);
        c.open().unwrap();
        let err = match c.next_batch() {
            Ok(Some(_)) => panic!("no tuples expected"),
            Ok(None) => panic!("expected error"),
            Err(e) => e,
        };
        assert_eq!(err.kind(), "source_unavailable");
        c.close().unwrap();
    }

    #[test]
    fn partial_failure_is_not_an_error() {
        let fx = fixture(
            &[
                ("dead", rel(1, 10), LinkModel::down(), true),
                ("alive", rel(2, 10), LinkModel::instant(), true),
            ],
            None,
            None,
            vec![],
        );
        let mut c = collector_of(&fx);
        let out = drain(&mut c).unwrap();
        assert_eq!(out.len(), 10);
    }

    #[test]
    fn close_without_drain_does_not_hang() {
        let slow = LinkModel {
            per_tuple: Duration::from_millis(2),
            ..LinkModel::instant()
        };
        let fx = fixture(
            &[
                ("staller", rel(1, 100), LinkModel::stalling(5), true),
                ("slow", rel(2, 10_000), slow, true),
            ],
            None,
            None,
            vec![],
        );
        let mut c = collector_of(&fx);
        c.open().unwrap();
        assert!(c.next_batch().unwrap().is_some());
        let start = Instant::now();
        c.close().unwrap();
        assert!(
            start.elapsed() < Duration::from_secs(10),
            "close must cancel stalled and streaming children"
        );
    }
}
