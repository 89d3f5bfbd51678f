//! The per-plan execution runtime.
//!
//! Holds everything rules and adaptive operators observe and manipulate at
//! runtime:
//!
//! * [`ExecEnv`] — the engine environment (memory pool, spill store, local
//!   store, source registry), shared across plan runs;
//! * per-subject **statistics** (tuples produced, activity timestamps,
//!   state) — the engine's side of [`QuantityProvider`];
//! * **control cells** — activation flags, overflow methods, cancel
//!   handles — the state rule actions mutate;
//! * the **event bus**: events are queued and processed in order under a
//!   single lock, so "all of a rule's actions are executed before another
//!   event is processed" (§3.1.2 restriction 1) holds by construction;
//! * **engine signals** (replan / reschedule / abort) that rule actions
//!   raise and the fragment loop observes.

use std::collections::HashMap;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::Arc;
use std::time::Instant;

use parking_lot::Mutex;

use tukwila_common::{Result, TukwilaError};
use tukwila_plan::{
    Action, Event, EventKind, OpState, OperatorSpec, OverflowMethod, QuantityProvider, QueryPlan,
    Rule, SubjectRef,
};
use tukwila_source::SourceRegistry;
use tukwila_storage::{
    InMemorySpillStore, LocalStore, MemoryManager, MemoryReservation, ScopedSpillStore, SpillStore,
};
use tukwila_trace::{CacheOutcome, OpMetrics, QueryTrace, TraceEvent, TraceLevel};

use crate::control::QueryControl;
use crate::operators::{InProcess, PartitionTransport};

/// Engine environment shared across plan runs.
#[derive(Clone)]
pub struct ExecEnv {
    /// Memory pool.
    pub memory: MemoryManager,
    /// Spill storage for overflow resolution.
    pub spill: Arc<dyn SpillStore>,
    /// Materialized fragment results and cached tables.
    pub local: LocalStore,
    /// Live data sources.
    pub sources: SourceRegistry,
    /// Target tuples per [`tukwila_common::TupleBatch`] exchanged between
    /// operators and across the wrapper boundary. Defaults to the
    /// `TUKWILA_BATCH` environment variable via
    /// [`tukwila_common::env_batch_size`].
    pub batch_size: usize,
    /// Intra-query thread budget: how many plan fragments the DAG
    /// scheduler may run concurrently for one query (1 = the paper's
    /// sequential "each fragment in turn" model). Defaults to the
    /// `TUKWILA_THREADS` environment variable via
    /// [`tukwila_common::env_parallelism`].
    pub intra_query_threads: usize,
    /// Trace level installed on query controls this environment creates
    /// (an externally owned control keeps whatever its creator set).
    pub trace_level: TraceLevel,
    /// Where an [`crate::operators::Exchange`]'s partition pipelines run:
    /// threads of this process ([`InProcess`], the default) or a worker
    /// pool (`tukwila_net::Cluster`, the coordinator role).
    pub transport: Arc<dyn PartitionTransport>,
}

impl ExecEnv {
    /// Environment with in-memory spill storage and the default batch size.
    pub fn new(sources: SourceRegistry) -> Self {
        ExecEnv {
            memory: MemoryManager::new(),
            spill: Arc::new(InMemorySpillStore::new()),
            local: LocalStore::new(),
            sources,
            batch_size: tukwila_common::env_batch_size(),
            intra_query_threads: tukwila_common::env_parallelism(),
            trace_level: TraceLevel::default(),
            transport: Arc::new(InProcess),
        }
    }

    /// Replace the spill store (e.g. with a file-backed one).
    pub fn with_spill(mut self, spill: Arc<dyn SpillStore>) -> Self {
        self.spill = spill;
        self
    }

    /// Override the operator batch size (1 = tuple-at-a-time execution).
    pub fn with_batch_size(mut self, batch_size: usize) -> Self {
        self.batch_size = batch_size.max(1);
        self
    }

    /// Override the intra-query thread budget (1 = sequential fragments).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.intra_query_threads = threads.max(1);
        self
    }

    /// Override the trace level for controls created in this environment
    /// (`Off` for benchmarks measuring raw engine throughput).
    pub fn with_trace_level(mut self, level: TraceLevel) -> Self {
        self.trace_level = level;
        self
    }

    /// Replace the partition transport: exchanges then run their
    /// pipelines wherever `transport` puts them.
    pub fn with_transport(mut self, transport: Arc<dyn PartitionTransport>) -> Self {
        self.transport = transport;
        self
    }

    /// Derive an environment for one query run in a concurrent service:
    /// sources and the backing spill store are shared with this base
    /// environment, but the local store (materialization namespace) and
    /// the memory pool are fresh — concurrent queries cannot collide on
    /// materialization names or each other's memory accounting — and the
    /// spill store is wrapped in a [`ScopedSpillStore`] so this query's
    /// spill I/O counters include only its own traffic.
    pub fn for_query(&self) -> ExecEnv {
        self.for_query_with_memory(MemoryManager::new())
    }

    /// [`ExecEnv::for_query`] with a caller-built memory pool — the memory
    /// governor passes a pool parented to the query's grant on the fleet
    /// pool (see `tukwila_storage::MemoryManager::with_parent`).
    pub fn for_query_with_memory(&self, memory: MemoryManager) -> ExecEnv {
        ExecEnv {
            memory,
            spill: Arc::new(ScopedSpillStore::new(self.spill.clone())),
            local: LocalStore::new(),
            sources: self.sources.clone(),
            batch_size: self.batch_size,
            intra_query_threads: self.intra_query_threads,
            trace_level: self.trace_level,
            transport: self.transport.clone(),
        }
    }
}

fn encode_state(s: OpState) -> u8 {
    match s {
        OpState::NotStarted => 0,
        OpState::Open => 1,
        OpState::Closed => 2,
        OpState::Failed => 3,
        OpState::Deactivated => 4,
    }
}

fn decode_state(v: u8) -> OpState {
    match v {
        0 => OpState::NotStarted,
        1 => OpState::Open,
        2 => OpState::Closed,
        3 => OpState::Failed,
        _ => OpState::Deactivated,
    }
}

/// Per-subject runtime record.
struct SubjectRecord {
    produced: AtomicU64,
    state: AtomicU8,
    last_activity_ms: AtomicU64,
    est_card: Option<f64>,
    reservation: Option<MemoryReservation>,
    active: AtomicBool,
    /// Activation state at plan load (restored on fragment retry).
    default_active: bool,
    overflow: Mutex<OverflowMethod>,
    cancel_handles: Mutex<Vec<Arc<AtomicBool>>>,
    /// Threshold milestones (sorted) harvested from the plan's rules.
    milestones: Vec<u64>,
}

impl SubjectRecord {
    fn new(
        est_card: Option<f64>,
        reservation: Option<MemoryReservation>,
        initially_active: bool,
        overflow: OverflowMethod,
        milestones: Vec<u64>,
    ) -> Self {
        SubjectRecord {
            produced: AtomicU64::new(0),
            state: AtomicU8::new(encode_state(OpState::NotStarted)),
            last_activity_ms: AtomicU64::new(0),
            est_card,
            reservation,
            active: AtomicBool::new(initially_active),
            default_active: initially_active,
            overflow: Mutex::new(overflow),
            cancel_handles: Mutex::new(Vec::new()),
            milestones,
        }
    }
}

struct RuleSlot {
    rule: Rule,
    active: bool,
}

/// Engine-level outcome a rule action requested.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineSignal {
    /// Terminate the current plan and re-invoke the optimizer.
    Replan,
    /// Reschedule remaining fragments (query scrambling).
    Reschedule,
    /// Abort with an error to the user.
    Abort(String),
}

#[derive(Default)]
struct Signals {
    replan: AtomicBool,
    /// Pending reschedule requests, keyed by the fragment that owns the
    /// rule which raised them (`None` = not attributable to a fragment —
    /// delivered to whichever fragment asks first). Per-fragment scoping
    /// matters once fragments run concurrently: a timeout rule of a
    /// stalled fragment must not abort a healthy sibling mid-run.
    reschedule: Mutex<std::collections::BTreeSet<Option<tukwila_plan::FragmentId>>>,
    abort: Mutex<Option<String>>,
}

/// Per-partition spill-tuple totals of one exchange instance, labeled by
/// the plan operator id of the partitioned join — so two 4-way joins stay
/// distinguishable from one 8-way in the query stats.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ExchangeSpill {
    /// Plan operator id of the partitioned join.
    pub op: u32,
    /// Spill tuples written per partition index.
    pub tuples: Vec<u64>,
}

impl ExchangeSpill {
    /// Total spill tuples across this exchange's partitions.
    pub fn total(&self) -> u64 {
        self.tuples.iter().sum()
    }
}

/// Intra-query parallelism counters recorded by exchange operators over
/// one plan run.
#[derive(Debug, Clone, Default)]
pub struct ParallelStats {
    /// Largest partition degree any exchange ran with (0 = no exchange).
    pub max_partitions: usize,
    /// Per-exchange spill totals, labeled by join operator id (a fragment
    /// retry folds into the same entry).
    pub partition_spills: Vec<ExchangeSpill>,
}

/// Per-query source-cache lookup counts (satellite of the source-result
/// cache's global [`tukwila_source`] counters: these attribute outcomes to
/// *this* query's flight).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheCounts {
    /// Lookups served from a completed cache entry.
    pub hits: u64,
    /// Lookups this query led (cache misses it then populated).
    pub misses: u64,
    /// Lookups coalesced onto another query's in-flight fetch.
    pub coalesced: u64,
    /// Lookups the cache declined (uncacheable, over budget, lease held).
    pub bypass: u64,
}

#[derive(Default)]
struct CacheCounters {
    hits: AtomicU64,
    misses: AtomicU64,
    coalesced: AtomicU64,
    bypass: AtomicU64,
}

/// The per-plan runtime: statistics, controls, events, rules, signals.
pub struct PlanRuntime {
    env: ExecEnv,
    epoch: Instant,
    control: Arc<QueryControl>,
    /// The query's trace (shared with the control; cached here because
    /// emit checks sit on operator paths).
    trace: Arc<QueryTrace>,
    /// Per-query source-cache outcome counters for this plan run.
    cache: CacheCounters,
    /// Fx-keyed: `record()` sits on the per-batch accounting path of every
    /// operator (`produced`, `is_active`), so SipHash lookups add up.
    subjects: tukwila_common::FxHashMap<SubjectRef, SubjectRecord>,
    /// Which fragment each subject belongs to — the attribution map for
    /// fragment-scoped reschedule signals.
    frag_of: tukwila_common::FxHashMap<SubjectRef, tukwila_plan::FragmentId>,
    /// Exchange-operator parallelism counters for this plan run.
    parallel: Mutex<ParallelStats>,
    rules: Mutex<Vec<RuleSlot>>,
    event_queue: Mutex<VecDeque<Event>>,
    /// Serializes rule processing; also records processed events for tests
    /// and the statistics report.
    event_log: Mutex<Vec<Event>>,
    processing: Mutex<()>,
    signals: Signals,
}

impl PlanRuntime {
    /// Build the runtime for a plan: registers every fragment and operator
    /// (including collector children), creates memory reservations for
    /// budgeted operators, loads all rules, and harvests threshold
    /// milestones.
    pub fn for_plan(plan: &QueryPlan, env: ExecEnv) -> Arc<PlanRuntime> {
        let control = QueryControl::unbounded_traced(env.trace_level);
        Self::for_plan_controlled(plan, env, control)
    }

    /// [`PlanRuntime::for_plan`] under an externally owned [`QueryControl`]
    /// — the service threads one control through every plan a query runs so
    /// cancellation and deadlines reach all of them.
    pub fn for_plan_controlled(
        plan: &QueryPlan,
        env: ExecEnv,
        control: Arc<QueryControl>,
    ) -> Arc<PlanRuntime> {
        let mut milestones: HashMap<SubjectRef, Vec<u64>> = HashMap::new();
        for rule in plan.all_rules() {
            if rule.event.kind == EventKind::Threshold {
                if let Some(v) = rule.event.value {
                    milestones.entry(rule.event.subject).or_default().push(v);
                }
            }
        }
        for ms in milestones.values_mut() {
            ms.sort_unstable();
            ms.dedup();
        }

        let mut subjects = tukwila_common::FxHashMap::default();
        for frag in &plan.fragments {
            subjects.insert(
                SubjectRef::Fragment(frag.id),
                SubjectRecord::new(
                    frag.root.est_cardinality,
                    None,
                    frag.initially_active,
                    OverflowMethod::Fail,
                    milestones
                        .remove(&SubjectRef::Fragment(frag.id))
                        .unwrap_or_default(),
                ),
            );
            frag.root.walk(&mut |node| {
                let overflow = match &node.spec {
                    OperatorSpec::Join { overflow, .. } => *overflow,
                    _ => OverflowMethod::Fail,
                };
                let reservation = node
                    .memory_budget
                    .map(|b| env.memory.register(format!("{}", node.id), b));
                subjects.insert(
                    SubjectRef::Op(node.id),
                    SubjectRecord::new(
                        node.est_cardinality,
                        reservation,
                        true,
                        overflow,
                        milestones
                            .remove(&SubjectRef::Op(node.id))
                            .unwrap_or_default(),
                    ),
                );
                if let OperatorSpec::Collector { children, .. } = &node.spec {
                    for c in children {
                        subjects.insert(
                            SubjectRef::Op(c.id),
                            SubjectRecord::new(
                                None,
                                None,
                                c.initially_active,
                                OverflowMethod::Fail,
                                milestones.remove(&SubjectRef::Op(c.id)).unwrap_or_default(),
                            ),
                        );
                    }
                }
            });
        }

        let mut frag_of = tukwila_common::FxHashMap::default();
        for frag in &plan.fragments {
            frag_of.insert(SubjectRef::Fragment(frag.id), frag.id);
            for id in frag.op_ids() {
                frag_of.insert(SubjectRef::Op(id), frag.id);
            }
        }

        let rules = plan
            .all_rules()
            .into_iter()
            .map(|r| RuleSlot {
                rule: r.clone(),
                active: true,
            })
            .collect();

        Arc::new(PlanRuntime {
            env,
            epoch: Instant::now(),
            trace: control.trace().clone(),
            cache: CacheCounters::default(),
            control,
            subjects,
            frag_of,
            parallel: Mutex::new(ParallelStats::default()),
            rules: Mutex::new(rules),
            event_queue: Mutex::new(VecDeque::new()),
            event_log: Mutex::new(Vec::new()),
            processing: Mutex::new(()),
            signals: Signals::default(),
        })
    }

    /// The engine environment.
    pub fn env(&self) -> &ExecEnv {
        &self.env
    }

    /// The query-level control this plan runs under.
    pub fn control(&self) -> &Arc<QueryControl> {
        &self.control
    }

    /// The query's execution trace.
    pub fn trace(&self) -> &Arc<QueryTrace> {
        &self.trace
    }

    /// Record a per-query source-cache lookup outcome (and trace it).
    pub fn note_cache_outcome(&self, source: &str, outcome: CacheOutcome) {
        let counter = match outcome {
            CacheOutcome::Hit => &self.cache.hits,
            CacheOutcome::Miss => &self.cache.misses,
            CacheOutcome::Coalesced => &self.cache.coalesced,
            CacheOutcome::Bypass => &self.cache.bypass,
        };
        counter.fetch_add(1, Ordering::Relaxed);
        if self.trace.events_enabled() {
            self.trace.emit(TraceEvent::CacheLookup {
                source: source.to_string(),
                outcome,
            });
        }
    }

    /// Source-cache outcome counts recorded so far in this plan run.
    pub fn cache_counts(&self) -> CacheCounts {
        CacheCounts {
            hits: self.cache.hits.load(Ordering::Relaxed),
            misses: self.cache.misses.load(Ordering::Relaxed),
            coalesced: self.cache.coalesced.load(Ordering::Relaxed),
            bypass: self.cache.bypass.load(Ordering::Relaxed),
        }
    }

    fn record(&self, s: SubjectRef) -> Result<&SubjectRecord> {
        self.subjects
            .get(&s)
            .ok_or_else(|| TukwilaError::Internal(format!("unregistered subject {s}")))
    }

    fn now_ms(&self) -> u64 {
        self.epoch.elapsed().as_millis() as u64
    }

    // ---- statistics ----

    /// Record `n` more tuples produced by `subject`; emits threshold events
    /// for crossed milestones.
    pub fn add_produced(&self, subject: SubjectRef, n: u64) {
        let Ok(rec) = self.record(subject) else {
            return;
        };
        let prev = rec.produced.fetch_add(n, Ordering::Relaxed);
        let now = prev + n;
        rec.last_activity_ms.store(self.now_ms(), Ordering::Relaxed);
        // milestone crossings
        for &m in &rec.milestones {
            if prev < m && m <= now {
                self.emit(Event::with_value(EventKind::Threshold, subject, m));
            }
        }
    }

    /// Tuples produced so far.
    pub fn produced(&self, subject: SubjectRef) -> u64 {
        self.record(subject)
            .map(|r| r.produced.load(Ordering::Relaxed))
            .unwrap_or(0)
    }

    /// Set lifecycle state and emit the corresponding event.
    pub fn set_state(&self, subject: SubjectRef, state: OpState) {
        if let Ok(rec) = self.record(subject) {
            rec.state.store(encode_state(state), Ordering::Relaxed);
            rec.last_activity_ms.store(self.now_ms(), Ordering::Relaxed);
        }
        match state {
            OpState::Open => self.emit(Event::new(EventKind::Opened, subject)),
            OpState::Closed => self.emit(Event::new(EventKind::Closed, subject)),
            OpState::Failed => self.emit(Event::new(EventKind::Error, subject)),
            _ => {}
        }
    }

    /// Prepare a fragment for a retry (rescheduling): reset counters and
    /// lifecycle state of the fragment and every operator in it, restore
    /// plan-default activation (undoing engine-internal cancellations from
    /// the aborted run), and clear stale cancel handles. Rules that already
    /// fired stay fired — "firing a rule once makes it become inactive"
    /// applies across retries.
    pub fn reset_fragment(&self, fragment: &tukwila_plan::Fragment) {
        let mut subjects = vec![SubjectRef::Fragment(fragment.id)];
        subjects.extend(fragment.op_ids().into_iter().map(SubjectRef::Op));
        for s in subjects {
            if let Ok(rec) = self.record(s) {
                rec.produced.store(0, Ordering::Relaxed);
                rec.state
                    .store(encode_state(OpState::NotStarted), Ordering::Relaxed);
                let default = if s == SubjectRef::Fragment(fragment.id) {
                    true // it is being retried, so it must be runnable
                } else {
                    rec.default_active
                };
                rec.active.store(default, Ordering::Relaxed);
                rec.cancel_handles.lock().clear();
            }
        }
    }

    // ---- controls ----

    /// Whether a subject is active (deactivated operators stop; inactive
    /// fragments are not scheduled).
    pub fn is_active(&self, subject: SubjectRef) -> bool {
        self.record(subject)
            .map(|r| r.active.load(Ordering::Relaxed))
            .unwrap_or(false)
    }

    /// Activate a subject.
    pub fn activate(&self, subject: SubjectRef) {
        if let Ok(rec) = self.record(subject) {
            rec.active.store(true, Ordering::Relaxed);
        }
    }

    /// Deactivate a subject: stops its execution (cancels registered
    /// streams). Its rules become inert because owner-activity is checked
    /// at trigger time.
    pub fn deactivate(&self, subject: SubjectRef) {
        if let Ok(rec) = self.record(subject) {
            rec.active.store(false, Ordering::Relaxed);
            rec.state
                .store(encode_state(OpState::Deactivated), Ordering::Relaxed);
            for h in rec.cancel_handles.lock().iter() {
                h.store(true, Ordering::Relaxed);
            }
        }
    }

    /// Register a cancellation handle to be flipped if `subject` is
    /// deactivated — or if the whole query is cancelled or times out (the
    /// handle is also registered with the query control). A handle
    /// registered *after* the subject was deactivated is flipped
    /// immediately: streams created on worker threads (collector
    /// children) may register after a rule has already fired, and the
    /// cancellation must not be lost in that window.
    pub fn register_cancel(&self, subject: SubjectRef, handle: Arc<AtomicBool>) {
        self.control.register_handle(handle.clone());
        if let Ok(rec) = self.record(subject) {
            rec.cancel_handles.lock().push(handle.clone());
            if !rec.active.load(Ordering::Relaxed) {
                handle.store(true, Ordering::Relaxed);
            }
        }
    }

    /// Current overflow method for an operator.
    pub fn overflow_method(&self, subject: SubjectRef) -> OverflowMethod {
        self.record(subject)
            .map(|r| *r.overflow.lock())
            .unwrap_or(OverflowMethod::Fail)
    }

    /// Install an overflow method (rule action).
    pub fn set_overflow_method(&self, subject: SubjectRef, method: OverflowMethod) {
        if let Ok(rec) = self.record(subject) {
            *rec.overflow.lock() = method;
        }
    }

    /// The memory reservation of an operator, if it has a budget.
    pub fn reservation(&self, subject: SubjectRef) -> Option<MemoryReservation> {
        self.record(subject).ok()?.reservation.clone()
    }

    // ---- events & rules ----

    /// Emit an event and synchronously process the queue (the event handler
    /// of §3.3). Any thread may call this; processing is serialized.
    pub fn emit(&self, event: Event) {
        self.event_queue.lock().push_back(event);
        self.process_events();
    }

    fn process_events(&self) {
        // Only one thread processes at a time; others enqueue and return —
        // the processor drains everything, preserving the global order.
        let Some(_guard) = self.processing.try_lock() else {
            return;
        };
        loop {
            let Some(event) = self.event_queue.lock().pop_front() else {
                return;
            };
            self.event_log.lock().push(event.clone());
            // Find matching active rules with active owners; fire them.
            let mut to_fire: Vec<Rule> = Vec::new();
            {
                let mut rules = self.rules.lock();
                for slot in rules.iter_mut() {
                    if slot.active
                        && slot.rule.event.matches(&event)
                        && self.is_active(slot.rule.owner)
                        && slot.rule.condition.eval(self)
                    {
                        slot.active = false; // firing once deactivates
                        to_fire.push(slot.rule.clone());
                    }
                }
            }
            for rule in to_fire {
                if self.trace.events_enabled() {
                    self.trace.emit(TraceEvent::RuleFired {
                        rule: rule.name.clone(),
                        trigger: describe_event(&event),
                    });
                }
                for action in &rule.actions {
                    self.apply_action_for(action, Some(rule.owner));
                }
            }
        }
    }

    #[cfg(test)]
    fn apply_action(&self, action: &Action) {
        self.apply_action_for(action, None);
    }

    fn apply_action_for(&self, action: &Action, owner: Option<SubjectRef>) {
        match action {
            Action::SetOverflowMethod { op, method } => {
                self.set_overflow_method(SubjectRef::Op(*op), *method);
            }
            Action::AlterMemory { op, bytes } => {
                if let Some(r) = self.reservation(SubjectRef::Op(*op)) {
                    r.set_budget(*bytes);
                }
            }
            Action::Activate(s) => self.activate(*s),
            Action::Deactivate(s) => self.deactivate(*s),
            Action::Reschedule => {
                // Attribute the request to the owning rule's fragment so a
                // concurrent sibling does not pick it up.
                let frag = owner.and_then(|s| self.frag_of.get(&s).copied());
                self.signals.reschedule.lock().insert(frag);
            }
            Action::Replan => {
                if self.trace.events_enabled() {
                    let reason = match owner {
                        Some(s) => format!("rule action ({s})"),
                        None => "rule action".to_string(),
                    };
                    self.trace.emit(TraceEvent::ReplanRequested { reason });
                }
                self.signals.replan.store(true, Ordering::Relaxed);
            }
            Action::ReturnError(m) => {
                *self.signals.abort.lock() = Some(m.clone());
            }
        }
    }

    /// Take the highest-priority engine signal pending for one running
    /// fragment, clearing it. Priority: abort > replan > reschedule. Abort
    /// and replan are plan-global, but a reschedule request is delivered
    /// only to the fragment whose rule raised it (un-attributed requests go
    /// to whichever fragment asks first). With concurrent fragments this
    /// is what keeps "deprioritize the stalled fragment" from abandoning a
    /// healthy sibling.
    pub fn take_signal_for(&self, frag: tukwila_plan::FragmentId) -> Option<EngineSignal> {
        if let Some(m) = self.signals.abort.lock().take() {
            return Some(EngineSignal::Abort(m));
        }
        if self.signals.replan.swap(false, Ordering::Relaxed) {
            return Some(EngineSignal::Replan);
        }
        let mut resched = self.signals.reschedule.lock();
        if resched.remove(&Some(frag)) || resched.remove(&None) {
            return Some(EngineSignal::Reschedule);
        }
        None
    }

    /// Record one exchange run's parallelism counters: the partition
    /// degree and per-partition spill-tuple totals, labeled by the
    /// partitioned join's operator id. A retry of the same exchange folds
    /// into its existing entry element-wise.
    pub fn note_exchange(&self, op: u32, partition_spill_tuples: &[u64]) {
        let mut p = self.parallel.lock();
        p.max_partitions = p.max_partitions.max(partition_spill_tuples.len());
        let entry = match p.partition_spills.iter_mut().find(|e| e.op == op) {
            Some(e) => e,
            None => {
                p.partition_spills.push(ExchangeSpill {
                    op,
                    tuples: Vec::new(),
                });
                p.partition_spills.last_mut().expect("just pushed")
            }
        };
        if entry.tuples.len() < partition_spill_tuples.len() {
            entry.tuples.resize(partition_spill_tuples.len(), 0);
        }
        for (acc, n) in entry.tuples.iter_mut().zip(partition_spill_tuples) {
            *acc += n;
        }
    }

    /// Parallelism counters recorded so far in this plan run.
    pub fn parallel_stats(&self) -> ParallelStats {
        self.parallel.lock().clone()
    }

    /// Re-raise the replan signal (used when a mid-fragment replan request
    /// must be deferred to the materialization point).
    pub fn emit_replan_signal(&self) {
        self.signals.replan.store(true, Ordering::Relaxed);
    }

    /// Peek whether any signal is pending (without clearing).
    pub fn signal_pending(&self) -> bool {
        self.signals.abort.lock().is_some()
            || self.signals.replan.load(Ordering::Relaxed)
            || !self.signals.reschedule.lock().is_empty()
    }

    /// Events processed so far (diagnostics, tests).
    pub fn event_log(&self) -> Vec<Event> {
        self.event_log.lock().clone()
    }

    /// Number of rules still active.
    pub fn active_rule_count(&self) -> usize {
        self.rules.lock().iter().filter(|s| s.active).count()
    }
}

/// Render an engine event for the `trigger` field of a rule-fired trace
/// record with the plan text's keyword, e.g. `timeout(op0, 50)`.
fn describe_event(e: &Event) -> String {
    let kind = EventKind::KEYWORDS
        .iter()
        .find(|(_, k)| *k == e.kind)
        .map_or("?", |&(word, _)| word);
    match e.value {
        Some(v) => format!("{kind}({}, {v})", e.subject),
        None => format!("{kind}({})", e.subject),
    }
}

impl QuantityProvider for PlanRuntime {
    fn card(&self, subject: SubjectRef) -> Option<f64> {
        self.record(subject)
            .ok()
            .map(|r| r.produced.load(Ordering::Relaxed) as f64)
    }

    fn est_card(&self, subject: SubjectRef) -> Option<f64> {
        self.record(subject).ok().and_then(|r| r.est_card)
    }

    fn time_waiting_ms(&self, subject: SubjectRef) -> Option<f64> {
        let rec = self.record(subject).ok()?;
        let last = rec.last_activity_ms.load(Ordering::Relaxed);
        Some((self.now_ms().saturating_sub(last)) as f64)
    }

    fn memory_used(&self, subject: SubjectRef) -> Option<f64> {
        Some(
            self.record(subject)
                .ok()?
                .reservation
                .as_ref()?
                .usage()
                .used as f64,
        )
    }

    fn memory_budget(&self, subject: SubjectRef) -> Option<f64> {
        Some(self.record(subject).ok()?.reservation.as_ref()?.budget() as f64)
    }

    fn state(&self, subject: SubjectRef) -> OpState {
        self.record(subject)
            .map(|r| decode_state(r.state.load(Ordering::Relaxed)))
            .unwrap_or(OpState::NotStarted)
    }
}

/// Per-partition overrides for an operator instance running inside a
/// partitioned exchange: a split memory reservation parented to the plan
/// operator's own reservation, and a scoped spill store for per-partition
/// I/O attribution.
struct PartitionCtx {
    reservation: Option<MemoryReservation>,
    spill: Arc<dyn SpillStore>,
}

/// Handle tying one operator instance to the runtime: the operator's view
/// of statistics, events, and controls.
#[derive(Clone)]
pub struct OpHarness {
    rt: Arc<PlanRuntime>,
    subject: SubjectRef,
    /// Set for partition instances inside an exchange. Such instances
    /// share the plan operator's subject for statistics and rules but must
    /// not flip its lifecycle state (the exchange operator owns that), and
    /// they see a partition-split reservation and spill store.
    partition: Option<Arc<PartitionCtx>>,
}

impl OpHarness {
    /// Build a harness for `subject`.
    pub fn new(rt: Arc<PlanRuntime>, subject: SubjectRef) -> Self {
        OpHarness {
            rt,
            subject,
            partition: None,
        }
    }

    /// Derive the harness one partition instance of an exchange runs
    /// under: same subject (shared statistics, rules, overflow method) but
    /// lifecycle-state transitions suppressed and reservation/spill
    /// overridden with the partition's split.
    pub fn for_partition(
        &self,
        reservation: Option<MemoryReservation>,
        spill: Arc<dyn SpillStore>,
    ) -> OpHarness {
        OpHarness {
            rt: self.rt.clone(),
            subject: self.subject,
            partition: Some(Arc::new(PartitionCtx { reservation, spill })),
        }
    }

    /// The spill store this operator instance should overflow into: the
    /// partition's scoped store inside an exchange, the engine's store
    /// otherwise.
    pub fn spill(&self) -> Arc<dyn SpillStore> {
        match &self.partition {
            Some(p) => p.spill.clone(),
            None => self.rt.env().spill.clone(),
        }
    }

    /// The runtime.
    pub fn runtime(&self) -> &Arc<PlanRuntime> {
        &self.rt
    }

    /// This operator's subject reference.
    pub fn subject(&self) -> SubjectRef {
        self.subject
    }

    /// The query's execution trace.
    pub fn trace(&self) -> &Arc<QueryTrace> {
        self.rt.trace()
    }

    /// Plan operator id, when this harness is for an operator subject.
    pub fn op_id(&self) -> Option<u32> {
        match self.subject {
            SubjectRef::Op(id) => Some(id.0),
            SubjectRef::Fragment(_) => None,
        }
    }

    /// This operator's metrics handle at `TraceLevel::Metrics` (`None`
    /// below it — operators cache the result at open so the per-batch
    /// path stays a plain `Option` check). Partition instances of an
    /// exchange resolve to the same handle, aggregating per plan operator.
    pub fn metrics(&self, name: &str) -> Option<Arc<OpMetrics>> {
        if !self.rt.trace().metrics_enabled() {
            return None;
        }
        self.op_id()
            .map(|id| self.rt.trace().metrics().register(id, name))
    }

    /// Mark opened (emits `opened`). A partition instance must not flip
    /// the shared subject's lifecycle — the exchange emits it once.
    pub fn opened(&self) {
        if self.partition.is_none() {
            self.rt.set_state(self.subject, OpState::Open);
        }
    }

    /// Mark closed (emits `closed`).
    pub fn closed(&self) {
        if self.partition.is_none() {
            self.rt.set_state(self.subject, OpState::Closed);
        }
    }

    /// Mark failed (emits `error`).
    pub fn failed(&self) {
        self.rt.set_state(self.subject, OpState::Failed);
    }

    /// Record produced tuples (emits threshold events at milestones).
    /// Batched operators call this once per emitted batch.
    pub fn produced(&self, n: u64) {
        self.rt.add_produced(self.subject, n);
    }

    /// The engine's configured batch capacity — how many tuples this
    /// operator should aim to put in each output batch.
    pub fn batch_size(&self) -> usize {
        self.rt.env().batch_size
    }

    /// Emit a timeout event (`value` = configured timeout in ms).
    pub fn timeout(&self, timeout_ms: u64) {
        self.rt.emit(Event::with_value(
            EventKind::Timeout,
            self.subject,
            timeout_ms,
        ));
    }

    /// Emit an out-of-memory event.
    pub fn out_of_memory(&self) {
        self.rt
            .emit(Event::new(EventKind::OutOfMemory, self.subject));
    }

    /// Whether this operator is still active.
    pub fn is_active(&self) -> bool {
        self.rt.is_active(self.subject)
    }

    /// Current overflow method for this operator.
    pub fn overflow_method(&self) -> OverflowMethod {
        self.rt.overflow_method(self.subject)
    }

    /// This operator's memory reservation, if budgeted — for a partition
    /// instance, its split of the plan operator's reservation.
    pub fn reservation(&self) -> Option<MemoryReservation> {
        match &self.partition {
            Some(p) => p.reservation.clone(),
            None => self.rt.reservation(self.subject),
        }
    }

    /// Register a cancel handle flipped on deactivation.
    pub fn register_cancel(&self, handle: Arc<AtomicBool>) {
        self.rt.register_cancel(self.subject, handle);
    }

    /// Whether an engine-level signal is pending (operators should yield).
    pub fn signal_pending(&self) -> bool {
        self.rt.signal_pending()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tukwila_plan::{Condition, EventPattern, JoinKind, PlanBuilder, Rule};

    fn simple_plan() -> QueryPlan {
        let mut b = PlanBuilder::new();
        let l = b.wrapper_scan("A");
        let r = b.wrapper_scan("B");
        let j = b
            .join(JoinKind::DoublePipelined, l, r, "k", "k")
            .with_memory(1000)
            .with_est_cardinality(50.0);
        let f = b.fragment(j, "out");
        b.build(f)
    }

    fn runtime(plan: &QueryPlan) -> Arc<PlanRuntime> {
        PlanRuntime::for_plan(plan, ExecEnv::new(SourceRegistry::new()))
    }

    #[test]
    fn subjects_registered_with_annotations() {
        let plan = simple_plan();
        let rt = runtime(&plan);
        let join = SubjectRef::Op(tukwila_plan::OpId(2));
        assert_eq!(rt.est_card(join), Some(50.0));
        assert_eq!(rt.memory_budget(join), Some(1000.0));
        assert_eq!(rt.state(join), OpState::NotStarted);
        assert!(rt.is_active(join));
    }

    #[test]
    fn produced_updates_card() {
        let plan = simple_plan();
        let rt = runtime(&plan);
        let s = SubjectRef::Op(tukwila_plan::OpId(0));
        rt.add_produced(s, 7);
        rt.add_produced(s, 3);
        assert_eq!(rt.card(s), Some(10.0));
    }

    #[test]
    fn threshold_rule_fires_once() {
        let mut plan = simple_plan();
        let scan_a = SubjectRef::Op(tukwila_plan::OpId(0));
        let scan_b = SubjectRef::Op(tukwila_plan::OpId(1));
        plan.global_rules.push(Rule::new(
            "kill-b-when-a-10",
            SubjectRef::Fragment(tukwila_plan::FragmentId(0)),
            EventPattern::with_value(EventKind::Threshold, scan_a, 10),
            Condition::True,
            vec![Action::Deactivate(scan_b)],
        ));
        let rt = runtime(&plan);
        assert!(rt.is_active(scan_b));
        rt.add_produced(scan_a, 5);
        assert!(rt.is_active(scan_b));
        rt.add_produced(scan_a, 6); // crosses 10
        assert!(!rt.is_active(scan_b));
        assert_eq!(rt.active_rule_count(), 0);
        // reactivating and crossing again does not re-fire (rule spent)
        rt.activate(scan_b);
        rt.add_produced(scan_a, 100);
        assert!(rt.is_active(scan_b));
    }

    #[test]
    fn rules_with_inactive_owner_do_not_fire() {
        let mut plan = simple_plan();
        let frag = SubjectRef::Fragment(tukwila_plan::FragmentId(0));
        let scan_b = SubjectRef::Op(tukwila_plan::OpId(1));
        plan.global_rules.push(Rule::new(
            "owner-test",
            scan_b, // owned by scan B
            EventPattern::new(EventKind::Closed, frag),
            Condition::True,
            vec![Action::Replan],
        ));
        let rt = runtime(&plan);
        rt.deactivate(scan_b);
        rt.set_state(frag, OpState::Closed);
        assert_eq!(rt.take_signal_for(tukwila_plan::FragmentId(0)), None);
    }

    #[test]
    fn rule_fired_trigger_reads_as_plan_text() {
        use tukwila_plan::OpId;
        let oom = Event::new(EventKind::OutOfMemory, SubjectRef::Op(OpId(3)));
        assert_eq!(describe_event(&oom), "oom(op3)");
        let timeout = Event::with_value(EventKind::Timeout, SubjectRef::Op(OpId(0)), 50);
        assert_eq!(describe_event(&timeout), "timeout(op0, 50)");
        for &(word, kind) in EventKind::KEYWORDS {
            let e = Event::new(kind, SubjectRef::Op(OpId(1)));
            assert_eq!(describe_event(&e), format!("{word}(op1)"));
        }
    }

    #[test]
    fn replan_signal_priority() {
        let plan = simple_plan();
        let rt = runtime(&plan);
        rt.apply_action(&Action::Reschedule);
        rt.apply_action(&Action::Replan);
        let f0 = tukwila_plan::FragmentId(0);
        assert_eq!(rt.take_signal_for(f0), Some(EngineSignal::Replan));
        assert_eq!(rt.take_signal_for(f0), Some(EngineSignal::Reschedule));
        assert_eq!(rt.take_signal_for(f0), None);
    }

    #[test]
    fn reschedule_signal_is_fragment_scoped() {
        use tukwila_plan::{FragmentId, OpId};
        // Two independent fragments; a timeout rule owned by fragment 0.
        let mut b = PlanBuilder::new();
        let a = b.wrapper_scan("A");
        let f0 = b.fragment(a, "m0");
        let c = b.wrapper_scan("B");
        let f1 = b.fragment(c, "m1");
        let mut plan = b.build(f1);
        plan.global_rules
            .push(Rule::reschedule_on_timeout(f0, OpId(0)));
        let rt = runtime(&plan);
        rt.emit(Event::with_value(
            EventKind::Timeout,
            SubjectRef::Op(OpId(0)),
            5,
        ));
        assert!(rt.signal_pending());
        // A concurrent sibling must not consume fragment 0's reschedule.
        assert_eq!(rt.take_signal_for(FragmentId(1)), None);
        assert_eq!(
            rt.take_signal_for(FragmentId(0)),
            Some(EngineSignal::Reschedule)
        );
        assert!(!rt.signal_pending());
    }

    #[test]
    fn abort_signal_carries_message() {
        let plan = simple_plan();
        let rt = runtime(&plan);
        rt.apply_action(&Action::ReturnError("boom".into()));
        assert!(rt.signal_pending());
        assert_eq!(
            rt.take_signal_for(tukwila_plan::FragmentId(0)),
            Some(EngineSignal::Abort("boom".into()))
        );
    }

    #[test]
    fn deactivate_flips_cancel_handles() {
        let plan = simple_plan();
        let rt = runtime(&plan);
        let s = SubjectRef::Op(tukwila_plan::OpId(0));
        let h = Arc::new(AtomicBool::new(false));
        rt.register_cancel(s, h.clone());
        rt.deactivate(s);
        assert!(h.load(Ordering::Relaxed));
        assert_eq!(rt.state(s), OpState::Deactivated);
    }

    #[test]
    fn alter_memory_action_applies() {
        let plan = simple_plan();
        let rt = runtime(&plan);
        let join = tukwila_plan::OpId(2);
        rt.apply_action(&Action::AlterMemory {
            op: join,
            bytes: 9999,
        });
        assert_eq!(rt.memory_budget(SubjectRef::Op(join)), Some(9999.0));
    }

    #[test]
    fn overflow_method_cell() {
        let plan = simple_plan();
        let rt = runtime(&plan);
        let join = SubjectRef::Op(tukwila_plan::OpId(2));
        assert_eq!(
            rt.overflow_method(join),
            OverflowMethod::IncrementalLeftFlush
        );
        rt.set_overflow_method(join, OverflowMethod::IncrementalSymmetricFlush);
        assert_eq!(
            rt.overflow_method(join),
            OverflowMethod::IncrementalSymmetricFlush
        );
    }

    #[test]
    fn event_log_records_order() {
        let plan = simple_plan();
        let rt = runtime(&plan);
        let s = SubjectRef::Op(tukwila_plan::OpId(0));
        rt.set_state(s, OpState::Open);
        rt.set_state(s, OpState::Closed);
        let log = rt.event_log();
        assert_eq!(log[0].kind, EventKind::Opened);
        assert_eq!(log[1].kind, EventKind::Closed);
    }
}
