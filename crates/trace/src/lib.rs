//! Structured per-query execution traces and operator metrics.
//!
//! Tukwila's thesis is *adaptivity*: rules fire on source timeouts, joins
//! switch overflow methods under memory pressure, the scheduler reroutes
//! around stalled fragments. End-of-query counters cannot show any of
//! that — this crate records *when* each adaptive decision happened.
//!
//! A [`QueryTrace`] is attached to every query control and shared by all
//! layers the query passes through (admission, scheduler, rule engine,
//! operators, source cache, spill store). It holds:
//!
//! * a bounded ring of timestamped [`TraceEvent`]s (the event taxonomy of
//!   DESIGN.md §10) — oldest entries are dropped, never blocking the
//!   engine;
//! * a [`MetricsRegistry`] of per-operator counters (rows in/out, batches,
//!   build/probe time, output-queue stalls) sampled at batch boundaries.
//!
//! Tracing is gated at runtime by [`TraceLevel`]: `Off` reduces every
//! emit to one relaxed atomic load, `Events` (default) records the event
//! ring only, `Metrics` adds the per-operator counters. A [`TraceSnapshot`]
//! taken at query completion travels with the result and renders as JSON,
//! CSV, or a human-readable timeline (see `render`).

mod metrics;
mod render;

pub use metrics::{MetricsRegistry, OpMetrics, OpMetricsSnapshot};
use tukwila_common::JsonValue;

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::Arc;
use std::time::Instant;

use parking_lot::Mutex;

/// How much a query records. Ordered: each level includes the previous.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub enum TraceLevel {
    /// Record nothing; every emit point is one relaxed atomic load.
    Off,
    /// Record the timestamped event ring (adaptivity decisions).
    #[default]
    Events,
    /// Events plus per-operator counters sampled at batch boundaries.
    Metrics,
}

impl TraceLevel {
    /// Stable lowercase name (used in JSON and `TUKWILA_TRACE`).
    pub fn as_str(self) -> &'static str {
        match self {
            TraceLevel::Off => "off",
            TraceLevel::Events => "events",
            TraceLevel::Metrics => "metrics",
        }
    }

    /// Parse a level name (inverse of [`TraceLevel::as_str`]).
    pub fn parse(s: &str) -> Option<TraceLevel> {
        match s {
            "off" => Some(TraceLevel::Off),
            "events" => Some(TraceLevel::Events),
            "metrics" => Some(TraceLevel::Metrics),
            _ => None,
        }
    }
}

/// Outcome of a per-query source-cache lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheOutcome {
    /// Served from a completed cache entry.
    Hit,
    /// This query led the fetch (cache miss).
    Miss,
    /// Coalesced onto another query's in-flight fetch of the same key.
    Coalesced,
    /// The cache declined (uncacheable, over budget, or lease held).
    Bypass,
}

impl CacheOutcome {
    /// Stable lowercase name.
    pub fn as_str(self) -> &'static str {
        match self {
            CacheOutcome::Hit => "hit",
            CacheOutcome::Miss => "miss",
            CacheOutcome::Coalesced => "coalesced",
            CacheOutcome::Bypass => "bypass",
        }
    }

    /// Parse an outcome name (inverse of [`CacheOutcome::as_str`]).
    pub fn parse(s: &str) -> Option<CacheOutcome> {
        match s {
            "hit" => Some(CacheOutcome::Hit),
            "miss" => Some(CacheOutcome::Miss),
            "coalesced" => Some(CacheOutcome::Coalesced),
            "bypass" => Some(CacheOutcome::Bypass),
            _ => None,
        }
    }
}

/// One structured execution event. Variants carry the identifiers needed
/// to line the timeline up with the plan (fragment ids, operator ids,
/// source and rule names); timestamps live on the enclosing
/// [`TraceRecord`].
#[derive(Debug, Clone, PartialEq)]
pub enum TraceEvent {
    /// The scheduler handed a fragment to a worker. `overlapped` marks
    /// dispatches made while a sibling fragment was already in flight.
    FragmentDispatched { fragment: u32, overlapped: bool },
    /// A fragment finished, producing `tuples`.
    FragmentCompleted { fragment: u32, tuples: u64 },
    /// A fragment was aborted and deferred for retry (query scrambling).
    FragmentRescheduled { fragment: u32 },
    /// An ECA rule fired: `trigger` describes the event that matched.
    RuleFired { rule: String, trigger: String },
    /// A rule requested mid-query re-optimization.
    ReplanRequested { reason: String },
    /// The optimizer's replacement plan was installed.
    ReplanInstalled {
        fragments_before: u32,
        fragments_after: u32,
    },
    /// A join ran out of memory and began overflow resolution.
    OverflowOnset { op: u32, method: String },
    /// Overflow resolution for one memory-pressure episode finished.
    OverflowResolved { op: u32, tuples_spilled: u64 },
    /// Tuples written to spill storage by an operator.
    SpillWrite { op: u32, tuples: u64 },
    /// Tuples read back from spill storage by an operator.
    SpillRead { op: u32, tuples: u64 },
    /// First tuple arrived from a wrapped source.
    SourceFirstTuple { source: String, elapsed_ms: u64 },
    /// A source produced nothing for its configured timeout.
    SourceStall { source: String, waited_ms: u64 },
    /// Data resumed from a source after a stall.
    SourceBurst { source: String, tuples: u64 },
    /// Per-query source-cache lookup outcome.
    CacheLookup {
        source: String,
        outcome: CacheOutcome,
    },
    /// Per-partition output row counts of one exchange at close — the skew
    /// snapshot (`rows[i]` = rows routed through partition `i`).
    PartitionSkew { op: u32, rows: Vec<u64> },
    /// The memory governor granted this query a reservation.
    ReservationGranted { bytes: u64 },
    /// The memory governor denied (clamped) a reservation request.
    ReservationDenied { bytes: u64 },
    /// An operator observed memory pressure against its budget.
    GovernorPressure { used: u64, budget: u64 },
    /// The query entered the service's admission queue.
    AdmissionEnqueued { queued: u64 },
    /// A worker picked the query up after `waited_ms` in the queue.
    AdmissionDequeued { waited_ms: u64 },
    /// Terminal event: how the query ended (`ok`, `deadline`, `cancelled`,
    /// `error`).
    QueryCompleted { outcome: String },
    /// The coordinator sent a frame to a worker (dispatch payload or
    /// shipped table): `bytes` is the encoded frame size on the wire.
    NetBatchSent { worker: String, bytes: u64 },
    /// The coordinator received one batch frame from a worker.
    NetBatchReceived { worker: String, bytes: u64 },
    /// A shard finished having blocked `stalls` times waiting for send
    /// credit — the wire-level backpressure summary.
    BackpressureStall { worker: String, stalls: u64 },
    /// A worker connection was established and handshaken for a shard.
    WorkerConnected { worker: String },
    /// A worker connection died mid-query (process death, network error).
    WorkerLost { worker: String, reason: String },
}

impl TraceEvent {
    /// Stable kebab-case kind name (the JSON/CSV discriminant).
    pub fn kind(&self) -> &'static str {
        match self {
            TraceEvent::FragmentDispatched { .. } => "fragment-dispatched",
            TraceEvent::FragmentCompleted { .. } => "fragment-completed",
            TraceEvent::FragmentRescheduled { .. } => "fragment-rescheduled",
            TraceEvent::RuleFired { .. } => "rule-fired",
            TraceEvent::ReplanRequested { .. } => "replan-requested",
            TraceEvent::ReplanInstalled { .. } => "replan-installed",
            TraceEvent::OverflowOnset { .. } => "overflow-onset",
            TraceEvent::OverflowResolved { .. } => "overflow-resolved",
            TraceEvent::SpillWrite { .. } => "spill-write",
            TraceEvent::SpillRead { .. } => "spill-read",
            TraceEvent::SourceFirstTuple { .. } => "source-first-tuple",
            TraceEvent::SourceStall { .. } => "source-stall",
            TraceEvent::SourceBurst { .. } => "source-burst",
            TraceEvent::CacheLookup { .. } => "cache-lookup",
            TraceEvent::PartitionSkew { .. } => "partition-skew",
            TraceEvent::ReservationGranted { .. } => "reservation-granted",
            TraceEvent::ReservationDenied { .. } => "reservation-denied",
            TraceEvent::GovernorPressure { .. } => "governor-pressure",
            TraceEvent::AdmissionEnqueued { .. } => "admission-enqueued",
            TraceEvent::AdmissionDequeued { .. } => "admission-dequeued",
            TraceEvent::QueryCompleted { .. } => "query-completed",
            TraceEvent::NetBatchSent { .. } => "net-batch-sent",
            TraceEvent::NetBatchReceived { .. } => "net-batch-received",
            TraceEvent::BackpressureStall { .. } => "backpressure-stall",
            TraceEvent::WorkerConnected { .. } => "worker-connected",
            TraceEvent::WorkerLost { .. } => "worker-lost",
        }
    }

    /// Payload as `(field, value)` pairs in declaration order — the single
    /// source of truth for the JSON, CSV, and timeline renderers.
    pub fn fields(&self) -> Vec<(&'static str, JsonValue)> {
        use JsonValue as J;
        match self {
            TraceEvent::FragmentDispatched {
                fragment,
                overlapped,
            } => vec![
                ("fragment", J::UInt(*fragment as u64)),
                ("overlapped", J::Bool(*overlapped)),
            ],
            TraceEvent::FragmentCompleted { fragment, tuples } => vec![
                ("fragment", J::UInt(*fragment as u64)),
                ("tuples", J::UInt(*tuples)),
            ],
            TraceEvent::FragmentRescheduled { fragment } => {
                vec![("fragment", J::UInt(*fragment as u64))]
            }
            TraceEvent::RuleFired { rule, trigger } => vec![
                ("rule", J::Str(rule.clone())),
                ("trigger", J::Str(trigger.clone())),
            ],
            TraceEvent::ReplanRequested { reason } => vec![("reason", J::Str(reason.clone()))],
            TraceEvent::ReplanInstalled {
                fragments_before,
                fragments_after,
            } => vec![
                ("fragments_before", J::UInt(*fragments_before as u64)),
                ("fragments_after", J::UInt(*fragments_after as u64)),
            ],
            TraceEvent::OverflowOnset { op, method } => vec![
                ("op", J::UInt(*op as u64)),
                ("method", J::Str(method.clone())),
            ],
            TraceEvent::OverflowResolved { op, tuples_spilled } => vec![
                ("op", J::UInt(*op as u64)),
                ("tuples_spilled", J::UInt(*tuples_spilled)),
            ],
            TraceEvent::SpillWrite { op, tuples } => {
                vec![("op", J::UInt(*op as u64)), ("tuples", J::UInt(*tuples))]
            }
            TraceEvent::SpillRead { op, tuples } => {
                vec![("op", J::UInt(*op as u64)), ("tuples", J::UInt(*tuples))]
            }
            TraceEvent::SourceFirstTuple { source, elapsed_ms } => vec![
                ("source", J::Str(source.clone())),
                ("elapsed_ms", J::UInt(*elapsed_ms)),
            ],
            TraceEvent::SourceStall { source, waited_ms } => vec![
                ("source", J::Str(source.clone())),
                ("waited_ms", J::UInt(*waited_ms)),
            ],
            TraceEvent::SourceBurst { source, tuples } => vec![
                ("source", J::Str(source.clone())),
                ("tuples", J::UInt(*tuples)),
            ],
            TraceEvent::CacheLookup { source, outcome } => vec![
                ("source", J::Str(source.clone())),
                ("outcome", J::Str(outcome.as_str().to_string())),
            ],
            TraceEvent::PartitionSkew { op, rows } => vec![
                ("op", J::UInt(*op as u64)),
                ("rows", J::Arr(rows.iter().map(|r| J::UInt(*r)).collect())),
            ],
            TraceEvent::ReservationGranted { bytes } => vec![("bytes", J::UInt(*bytes))],
            TraceEvent::ReservationDenied { bytes } => vec![("bytes", J::UInt(*bytes))],
            TraceEvent::GovernorPressure { used, budget } => {
                vec![("used", J::UInt(*used)), ("budget", J::UInt(*budget))]
            }
            TraceEvent::AdmissionEnqueued { queued } => vec![("queued", J::UInt(*queued))],
            TraceEvent::AdmissionDequeued { waited_ms } => {
                vec![("waited_ms", J::UInt(*waited_ms))]
            }
            TraceEvent::QueryCompleted { outcome } => vec![("outcome", J::Str(outcome.clone()))],
            TraceEvent::NetBatchSent { worker, bytes } => vec![
                ("worker", J::Str(worker.clone())),
                ("bytes", J::UInt(*bytes)),
            ],
            TraceEvent::NetBatchReceived { worker, bytes } => vec![
                ("worker", J::Str(worker.clone())),
                ("bytes", J::UInt(*bytes)),
            ],
            TraceEvent::BackpressureStall { worker, stalls } => vec![
                ("worker", J::Str(worker.clone())),
                ("stalls", J::UInt(*stalls)),
            ],
            TraceEvent::WorkerConnected { worker } => vec![("worker", J::Str(worker.clone()))],
            TraceEvent::WorkerLost { worker, reason } => vec![
                ("worker", J::Str(worker.clone())),
                ("reason", J::Str(reason.clone())),
            ],
        }
    }

    /// Rebuild an event from its kind name and JSON payload (inverse of
    /// [`TraceEvent::kind`] + [`TraceEvent::fields`]).
    pub fn from_kind_fields(kind: &str, obj: &JsonValue) -> Result<TraceEvent, String> {
        let u64_of = |f: &str| -> Result<u64, String> {
            obj.get(f)
                .and_then(JsonValue::as_u64)
                .ok_or_else(|| format!("event {kind}: missing u64 field {f}"))
        };
        let u32_of = |f: &str| -> Result<u32, String> { Ok(u64_of(f)? as u32) };
        let str_of = |f: &str| -> Result<String, String> {
            obj.get(f)
                .and_then(JsonValue::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("event {kind}: missing string field {f}"))
        };
        let bool_of = |f: &str| -> Result<bool, String> {
            obj.get(f)
                .and_then(JsonValue::as_bool)
                .ok_or_else(|| format!("event {kind}: missing bool field {f}"))
        };
        Ok(match kind {
            "fragment-dispatched" => TraceEvent::FragmentDispatched {
                fragment: u32_of("fragment")?,
                overlapped: bool_of("overlapped")?,
            },
            "fragment-completed" => TraceEvent::FragmentCompleted {
                fragment: u32_of("fragment")?,
                tuples: u64_of("tuples")?,
            },
            "fragment-rescheduled" => TraceEvent::FragmentRescheduled {
                fragment: u32_of("fragment")?,
            },
            "rule-fired" => TraceEvent::RuleFired {
                rule: str_of("rule")?,
                trigger: str_of("trigger")?,
            },
            "replan-requested" => TraceEvent::ReplanRequested {
                reason: str_of("reason")?,
            },
            "replan-installed" => TraceEvent::ReplanInstalled {
                fragments_before: u32_of("fragments_before")?,
                fragments_after: u32_of("fragments_after")?,
            },
            "overflow-onset" => TraceEvent::OverflowOnset {
                op: u32_of("op")?,
                method: str_of("method")?,
            },
            "overflow-resolved" => TraceEvent::OverflowResolved {
                op: u32_of("op")?,
                tuples_spilled: u64_of("tuples_spilled")?,
            },
            "spill-write" => TraceEvent::SpillWrite {
                op: u32_of("op")?,
                tuples: u64_of("tuples")?,
            },
            "spill-read" => TraceEvent::SpillRead {
                op: u32_of("op")?,
                tuples: u64_of("tuples")?,
            },
            "source-first-tuple" => TraceEvent::SourceFirstTuple {
                source: str_of("source")?,
                elapsed_ms: u64_of("elapsed_ms")?,
            },
            "source-stall" => TraceEvent::SourceStall {
                source: str_of("source")?,
                waited_ms: u64_of("waited_ms")?,
            },
            "source-burst" => TraceEvent::SourceBurst {
                source: str_of("source")?,
                tuples: u64_of("tuples")?,
            },
            "cache-lookup" => TraceEvent::CacheLookup {
                source: str_of("source")?,
                outcome: CacheOutcome::parse(&str_of("outcome")?)
                    .ok_or_else(|| "cache-lookup: bad outcome".to_string())?,
            },
            "partition-skew" => TraceEvent::PartitionSkew {
                op: u32_of("op")?,
                rows: obj
                    .get("rows")
                    .and_then(JsonValue::as_arr)
                    .ok_or_else(|| "partition-skew: missing rows".to_string())?
                    .iter()
                    .map(|v| {
                        v.as_u64()
                            .ok_or_else(|| "partition-skew: bad row".to_string())
                    })
                    .collect::<Result<Vec<u64>, String>>()?,
            },
            "reservation-granted" => TraceEvent::ReservationGranted {
                bytes: u64_of("bytes")?,
            },
            "reservation-denied" => TraceEvent::ReservationDenied {
                bytes: u64_of("bytes")?,
            },
            "governor-pressure" => TraceEvent::GovernorPressure {
                used: u64_of("used")?,
                budget: u64_of("budget")?,
            },
            "admission-enqueued" => TraceEvent::AdmissionEnqueued {
                queued: u64_of("queued")?,
            },
            "admission-dequeued" => TraceEvent::AdmissionDequeued {
                waited_ms: u64_of("waited_ms")?,
            },
            "query-completed" => TraceEvent::QueryCompleted {
                outcome: str_of("outcome")?,
            },
            "net-batch-sent" => TraceEvent::NetBatchSent {
                worker: str_of("worker")?,
                bytes: u64_of("bytes")?,
            },
            "net-batch-received" => TraceEvent::NetBatchReceived {
                worker: str_of("worker")?,
                bytes: u64_of("bytes")?,
            },
            "backpressure-stall" => TraceEvent::BackpressureStall {
                worker: str_of("worker")?,
                stalls: u64_of("stalls")?,
            },
            "worker-connected" => TraceEvent::WorkerConnected {
                worker: str_of("worker")?,
            },
            "worker-lost" => TraceEvent::WorkerLost {
                worker: str_of("worker")?,
                reason: str_of("reason")?,
            },
            other => return Err(format!("unknown event kind {other:?}")),
        })
    }
}

/// A [`TraceEvent`] stamped with its ring sequence number and microseconds
/// since the trace epoch (query submission).
#[derive(Debug, Clone, PartialEq)]
pub struct TraceRecord {
    /// Monotonic per-trace sequence number (gaps mean dropped events).
    pub seq: u64,
    /// Microseconds since the trace epoch.
    pub at_us: u64,
    /// The event.
    pub event: TraceEvent,
}

/// Default event-ring capacity; oldest events are dropped beyond it.
pub const DEFAULT_RING_CAPACITY: usize = 4096;

struct Ring {
    buf: VecDeque<TraceRecord>,
    cap: usize,
    next_seq: u64,
    dropped: u64,
}

/// The per-query trace: a bounded event ring plus the operator-metrics
/// registry, shared (via `Arc`) by every layer a query passes through.
pub struct QueryTrace {
    level: AtomicU8,
    epoch: Instant,
    ring: Mutex<Ring>,
    metrics: MetricsRegistry,
}

fn encode_level(l: TraceLevel) -> u8 {
    match l {
        TraceLevel::Off => 0,
        TraceLevel::Events => 1,
        TraceLevel::Metrics => 2,
    }
}

fn decode_level(v: u8) -> TraceLevel {
    match v {
        0 => TraceLevel::Off,
        1 => TraceLevel::Events,
        _ => TraceLevel::Metrics,
    }
}

impl QueryTrace {
    /// A trace recording at `level` with the default ring capacity.
    pub fn new(level: TraceLevel) -> Arc<QueryTrace> {
        Self::with_capacity(level, DEFAULT_RING_CAPACITY)
    }

    /// A trace with an explicit ring capacity (min 1).
    pub fn with_capacity(level: TraceLevel, cap: usize) -> Arc<QueryTrace> {
        Arc::new(QueryTrace {
            level: AtomicU8::new(encode_level(level)),
            epoch: Instant::now(),
            ring: Mutex::new(Ring {
                buf: VecDeque::new(),
                cap: cap.max(1),
                next_seq: 0,
                dropped: 0,
            }),
            metrics: MetricsRegistry::new(),
        })
    }

    /// Current level.
    pub fn level(&self) -> TraceLevel {
        decode_level(self.level.load(Ordering::Relaxed))
    }

    /// Change the level (e.g. the service installing its configured level
    /// on a control created elsewhere).
    pub fn set_level(&self, level: TraceLevel) {
        self.level.store(encode_level(level), Ordering::Relaxed);
    }

    /// Whether event emission is on — one relaxed load; emit points check
    /// this before building an event so `Off` pays nothing else.
    #[inline]
    pub fn events_enabled(&self) -> bool {
        self.level.load(Ordering::Relaxed) >= encode_level(TraceLevel::Events)
    }

    /// Whether per-operator metric sampling is on.
    #[inline]
    pub fn metrics_enabled(&self) -> bool {
        self.level.load(Ordering::Relaxed) >= encode_level(TraceLevel::Metrics)
    }

    /// Microseconds since the trace epoch.
    pub fn now_us(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }

    /// Record an event (no-op below `Events`). The ring is bounded: when
    /// full the oldest record is dropped and the drop counter advances.
    pub fn emit(&self, event: TraceEvent) {
        if !self.events_enabled() {
            return;
        }
        let at_us = self.now_us();
        let mut ring = self.ring.lock();
        let seq = ring.next_seq;
        ring.next_seq += 1;
        if ring.buf.len() == ring.cap {
            ring.buf.pop_front();
            ring.dropped += 1;
        }
        ring.buf.push_back(TraceRecord { seq, at_us, event });
    }

    /// The operator-metrics registry (register handles via
    /// [`MetricsRegistry::register`] only when [`Self::metrics_enabled`]).
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// Events dropped so far to the ring bound.
    pub fn dropped(&self) -> u64 {
        self.ring.lock().dropped
    }

    /// Total events recorded over the trace's lifetime, including any
    /// since dropped to the ring bound (service-level rollups).
    pub fn recorded(&self) -> u64 {
        self.ring.lock().next_seq
    }

    /// Copy out everything recorded so far.
    pub fn snapshot(&self) -> TraceSnapshot {
        let ring = self.ring.lock();
        TraceSnapshot {
            level: self.level(),
            dropped: ring.dropped,
            events: ring.buf.iter().cloned().collect(),
            ops: self.metrics.snapshot(),
        }
    }
}

impl std::fmt::Debug for QueryTrace {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QueryTrace")
            .field("level", &self.level())
            .field("events", &self.ring.lock().buf.len())
            .field("dropped", &self.ring.lock().dropped)
            .finish()
    }
}

/// A point-in-time copy of a [`QueryTrace`] — what travels with the query
/// result and feeds the JSON/CSV/timeline renderers.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TraceSnapshot {
    /// Level the trace was recording at when snapshotted.
    pub level: TraceLevel,
    /// Events lost to the ring bound before this snapshot.
    pub dropped: u64,
    /// Recorded events, oldest first.
    pub events: Vec<TraceRecord>,
    /// Per-operator metric snapshots (empty below `Metrics`).
    pub ops: Vec<OpMetricsSnapshot>,
}

impl TraceSnapshot {
    /// First recorded event matching `pred`, if any.
    pub fn find<F: Fn(&TraceEvent) -> bool>(&self, pred: F) -> Option<&TraceRecord> {
        self.events.iter().find(|r| pred(&r.event))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn level_gating() {
        let t = QueryTrace::new(TraceLevel::Off);
        assert!(!t.events_enabled());
        assert!(!t.metrics_enabled());
        t.emit(TraceEvent::ReplanRequested { reason: "x".into() });
        assert!(t.snapshot().events.is_empty());
        t.set_level(TraceLevel::Events);
        assert!(t.events_enabled());
        assert!(!t.metrics_enabled());
        t.emit(TraceEvent::ReplanRequested { reason: "x".into() });
        assert_eq!(t.snapshot().events.len(), 1);
        t.set_level(TraceLevel::Metrics);
        assert!(t.metrics_enabled());
    }

    #[test]
    fn ring_bounds_and_counts_drops() {
        let t = QueryTrace::with_capacity(TraceLevel::Events, 3);
        for i in 0..5u64 {
            t.emit(TraceEvent::AdmissionEnqueued { queued: i });
        }
        let snap = t.snapshot();
        assert_eq!(snap.events.len(), 3);
        assert_eq!(snap.dropped, 2);
        // Oldest two dropped; sequence numbers expose the gap.
        assert_eq!(snap.events[0].seq, 2);
        assert_eq!(snap.events[2].seq, 4);
    }

    #[test]
    fn timestamps_monotonic() {
        let t = QueryTrace::new(TraceLevel::Events);
        for _ in 0..10 {
            t.emit(TraceEvent::ReplanRequested {
                reason: "tick".into(),
            });
        }
        let snap = t.snapshot();
        for w in snap.events.windows(2) {
            assert!(w[0].at_us <= w[1].at_us);
            assert!(w[0].seq < w[1].seq);
        }
    }

    #[test]
    fn trace_level_parse_round_trip() {
        for l in [TraceLevel::Off, TraceLevel::Events, TraceLevel::Metrics] {
            assert_eq!(TraceLevel::parse(l.as_str()), Some(l));
        }
        assert_eq!(TraceLevel::parse("verbose"), None);
    }
}
