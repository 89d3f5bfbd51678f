//! Query-level results and execution statistics.

use std::sync::Arc;
use std::time::Duration;

use tukwila_common::Relation;
use tukwila_exec::{ExchangeSpill, FragmentReport};
use tukwila_trace::TraceSnapshot;

/// Statistics accumulated over one query's interleaved execution.
#[derive(Debug, Clone, Default)]
pub struct ExecutionStats {
    /// Times the optimizer was re-invoked mid-query (§3.1.2 `replan`).
    pub replans: usize,
    /// Times execution was rescheduled around a blocked source (§3.1.2
    /// `reschedule`, query scrambling).
    pub reschedules: usize,
    /// Fragment runs (including retries).
    pub fragments_run: usize,
    /// Fragment runs dispatched while at least one sibling was already in
    /// flight — the DAG scheduler's intra-query overlap counter (always 0
    /// under a thread budget of one).
    pub fragments_overlapped: usize,
    /// Largest exchange partition degree any join ran with (0 = fully
    /// sequential pipelines).
    pub partitions: usize,
    /// Per-exchange spill totals, labeled by join operator id with one
    /// per-partition vector each — two 4-way joins stay distinguishable
    /// from one 8-way join.
    pub partition_spills: Vec<ExchangeSpill>,
    /// Source-cache lookups served from a completed entry (this query's
    /// own attribution, not the fleet-wide cache counters).
    pub cache_hits: u64,
    /// Source-cache lookups this query led and then populated.
    pub cache_misses: u64,
    /// Source-cache lookups coalesced onto another flight's fetch.
    pub cache_coalesced: u64,
    /// Source-cache lookups the cache declined to serve or lead.
    pub cache_bypass: u64,
    /// Per-fragment reports in completion order.
    pub fragment_reports: Vec<FragmentReport>,
    /// Tuples written to spill storage (overflow resolution).
    pub spill_tuples_written: usize,
    /// Tuples read back from spill storage.
    pub spill_tuples_read: usize,
    /// Bytes written to spill storage (this query's own I/O, by snapshot
    /// delta when the store is shared across a fleet).
    pub spill_bytes_written: usize,
    /// Bytes read back from spill storage.
    pub spill_bytes_read: usize,
    /// Memory high-water mark of this query's pool across the run, bytes.
    pub peak_memory: usize,
    /// Total wall-clock duration.
    pub duration: Duration,
    /// Time until the first tuple of the *final* fragment appeared.
    pub time_to_first: Option<Duration>,
    /// The submission deadline tripped and cancelled the query mid-run
    /// (distinct from rule-driven aborts, which leave this false).
    pub deadline_exceeded: bool,
    /// The client (or service shutdown) cancelled the query mid-run.
    pub cancelled: bool,
    /// Time spent waiting in the service's admission queue before a worker
    /// picked the query up (zero outside the service).
    pub queue_wait: Duration,
    /// Warn-severity static-analysis findings over every plan this query
    /// actually ran (the initial lowering plus each replan). Error
    /// findings never reach execution — lowering fails instead.
    pub plan_diag_warnings: usize,
    /// Info-severity static-analysis findings over every plan run.
    pub plan_diag_infos: usize,
}

impl ExecutionStats {
    /// Total spill I/O in tuples (the unit of §4.2.3's analysis).
    pub fn spill_tuple_io(&self) -> usize {
        self.spill_tuples_written + self.spill_tuples_read
    }
}

/// The answer to a query plus how it was computed.
#[derive(Debug, Clone)]
pub struct QueryResult {
    /// The result relation.
    pub relation: Arc<Relation>,
    /// Execution statistics.
    pub stats: ExecutionStats,
    /// `(tuples, elapsed)` samples of the output fragment — the series
    /// behind the paper's tuples-vs-time figures.
    pub series: Vec<(u64, Duration)>,
    /// Structured execution trace (`None` when tracing is `Off`): the
    /// timestamped event timeline plus per-operator metrics, ready for
    /// the JSON/CSV/timeline renderers in `tukwila_trace`.
    pub trace: Option<TraceSnapshot>,
}

impl QueryResult {
    /// Result cardinality.
    pub fn cardinality(&self) -> usize {
        self.relation.len()
    }
}
