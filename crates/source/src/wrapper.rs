//! The wrapper layer.
//!
//! Tukwila's execution engine "communicates with the data sources through a
//! set of wrapper programs" (§2) that accept *atomic fetch queries*
//! (footnote 2: relational operators are applied inside the engine, not at
//! the wrapper). [`Wrapper::fetch`] returns a stream straight off a
//! connection; [`Wrapper::fetch_through_cache`] serves it through the
//! shared source-result cache. Every stream yields arrival bursts as
//! batches. Figure 2's "wrappers w/ buffering" are the engine's side of
//! this: a wrapper scan with a timeout or a prefetch reads its stream off a
//! feeder queue (DESIGN.md §6), so the wrapper layer starts no thread.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use tukwila_common::{Relation, Schema, TupleBatch};

use crate::cache::{CacheLookup, FetchLease, SourceQueryKey, SourceResultCache};
use crate::source::{SimulatedSource, SourceBatchEvent, SourceConnection};

/// How a cache-mediated fetch was served — the per-query attribution
/// companion to the cache's global hit/miss/coalesced counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FetchVia {
    /// Served from a completed cache entry without waiting.
    Hit,
    /// Served from a completed entry after waiting on another flight's
    /// in-progress fetch (single-flight coalescing).
    Coalesced,
    /// This caller became the fetching leader (a cache miss it will
    /// populate on clean end-of-stream).
    Lead,
    /// The cache declined to serve or lead (self-flight lease held).
    Bypass,
}

/// A wrapper bound to one data source.
#[derive(Clone)]
pub struct Wrapper {
    source: Arc<SimulatedSource>,
    conn_counter: Arc<std::sync::atomic::AtomicU64>,
}

impl std::fmt::Debug for Wrapper {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Wrapper")
            .field("source", &self.source.name())
            .finish()
    }
}

impl Wrapper {
    /// Wrap a source.
    pub fn new(source: SimulatedSource) -> Self {
        Wrapper {
            source: Arc::new(source),
            conn_counter: Arc::new(std::sync::atomic::AtomicU64::new(0)),
        }
    }

    /// Name of the wrapped source.
    pub fn source_name(&self) -> &str {
        self.source.name()
    }

    /// Schema of fetch results.
    pub fn schema(&self) -> &Schema {
        self.source.schema()
    }

    /// True cardinality of the source (the engine reports it to the
    /// optimizer after a full read; the catalog may only have an estimate).
    pub fn cardinality(&self) -> usize {
        self.source.cardinality()
    }

    /// Issue an atomic fetch query: stream the source's relation.
    pub fn fetch(&self) -> WrapperStream {
        WrapperStream::Direct(self.connect())
    }

    fn connect(&self) -> SourceConnection {
        let ordinal = self.conn_counter.fetch_add(1, Ordering::Relaxed);
        self.source.connect(ordinal)
    }

    /// Fetch through the shared source-result cache, reporting *how* the
    /// fetch was served (per-query cache attribution). A cached result
    /// replays from memory (no network); a cold key makes this caller the
    /// single-flight leader, whose stream tees every batch and installs the
    /// complete result on clean end-of-stream; a fetch already in flight
    /// blocks until that leader completes — unless the leader is this
    /// caller's own `flight` (a self-join on one thread), in which case the
    /// fetch bypasses the cache to avoid self-deadlock. `cancel` aborts a
    /// coalesced wait. Returns `None` if cancelled while waiting.
    pub fn fetch_through_cache(
        &self,
        cache: &SourceResultCache,
        flight: u64,
        cancel: Option<&AtomicBool>,
    ) -> Option<(WrapperStream, FetchVia)> {
        let key = SourceQueryKey::full_scan(self.source_name());
        match cache.lookup_or_lead(&key, flight, cancel) {
            (CacheLookup::Hit(rel), true) => {
                Some((WrapperStream::replay(rel), FetchVia::Coalesced))
            }
            (CacheLookup::Hit(rel), false) => Some((WrapperStream::replay(rel), FetchVia::Hit)),
            (CacheLookup::Lead(lease), _) => Some((
                WrapperStream::Tee {
                    inner: self.connect(),
                    tee: TeeState::new(self.schema().clone(), lease),
                },
                FetchVia::Lead,
            )),
            (CacheLookup::Bypass, _) => Some((self.fetch(), FetchVia::Bypass)),
            (CacheLookup::Cancelled, _) => None,
        }
    }
}

/// A stream of arrival bursts from a wrapper fetch.
pub enum WrapperStream {
    /// Pull directly from the connection (each pull may block on the
    /// network).
    Direct(SourceConnection),
    /// Replay a cached complete result from memory (cache hit).
    Replay {
        /// The cached relation.
        relation: Arc<Relation>,
        /// Next tuple to deliver.
        pos: usize,
        /// Cancels the replay (rule-driven deactivation).
        cancel: Arc<AtomicBool>,
    },
    /// Stream through the connection while collecting every batch; on a
    /// clean end-of-stream the complete result is installed in the cache
    /// via the lease (cache-miss leader). Errors, cancellation, or being
    /// dropped early abandon the lease so a waiter takes over — as does
    /// the collected copy outgrowing the cache budget (a result that can
    /// never be retained is not worth buffering).
    Tee {
        /// The real fetch.
        inner: SourceConnection,
        /// The collected batches plus the single-flight lease.
        tee: TeeState,
    },
}

/// Buffered-copy state of a cache-miss leader's stream.
pub struct TeeState {
    /// Schema of the fetched relation (for building the cached copy).
    schema: Schema,
    collected: Vec<TupleBatch>,
    collected_bytes: usize,
    /// `None` once fulfilled or abandoned.
    lease: Option<FetchLease>,
}

impl TeeState {
    fn new(schema: Schema, lease: FetchLease) -> Self {
        TeeState {
            schema,
            collected: Vec::new(),
            collected_bytes: 0,
            lease: Some(lease),
        }
    }

    /// Fulfil the lease with the collected batches (clean end-of-stream); a
    /// second call is a no-op because the lease is taken.
    fn finish(&mut self) {
        if let Some(lease) = self.lease.take() {
            let batches = std::mem::take(&mut self.collected);
            match Relation::from_batches(self.schema.clone(), batches) {
                Ok(rel) => lease.fulfill(Arc::new(rel)),
                Err(_) => drop(lease), // schema mismatch: abandon, don't poison
            }
        }
    }

    /// Stop leading and free the buffered copy (error, cancellation, or a
    /// result too large for the cache).
    fn abandon(&mut self) {
        self.lease.take(); // dropped → abandoned, waiters promoted
        self.collected = Vec::new();
        self.collected_bytes = 0;
    }

    /// Record one observed event: collect batches, fulfil on end, abandon
    /// on error/cancel.
    fn observe(&mut self, ev: &SourceBatchEvent) {
        match ev {
            // Once abandoned, stream through without buffering.
            SourceBatchEvent::Batch(b) if self.lease.is_some() => {
                self.collected_bytes += b.mem_size();
                self.collected.push(b.clone());
                // A result bigger than the whole cache budget would be
                // evicted the moment it was inserted — abandon instead of
                // buffering it all.
                if (self.lease.as_ref()).is_some_and(|l| self.collected_bytes > l.budget_bytes()) {
                    self.abandon();
                }
            }
            SourceBatchEvent::Batch(_) => {}
            SourceBatchEvent::End => self.finish(),
            SourceBatchEvent::Error(_) | SourceBatchEvent::Cancelled => self.abandon(),
        }
    }
}

impl WrapperStream {
    /// A stream that replays a complete cached relation from memory.
    pub fn replay(relation: Arc<Relation>) -> WrapperStream {
        WrapperStream::Replay {
            relation,
            pos: 0,
            cancel: Arc::new(AtomicBool::new(false)),
        }
    }

    /// Next arrival burst of up to `max` tuples: off the connection under
    /// its link model (direct, tee), or the next columnar slice of the
    /// cached result (replay). The engine pays one handoff per burst, while
    /// a slow source still delivers its first tuple as early as it arrives.
    pub fn next_batch_event(&mut self, max: usize) -> SourceBatchEvent {
        match self {
            WrapperStream::Direct(conn) => conn.next_batch_event(max),
            WrapperStream::Replay {
                relation,
                pos,
                cancel,
            } => {
                if cancel.load(Ordering::Relaxed) {
                    return SourceBatchEvent::Cancelled;
                }
                if *pos >= relation.len() {
                    return SourceBatchEvent::End;
                }
                let end = (*pos + max.max(1)).min(relation.len());
                let batch = TupleBatch::from_columns(relation.columnar().slice(*pos, end));
                *pos = end;
                SourceBatchEvent::Batch(batch)
            }
            WrapperStream::Tee { inner, tee } => {
                let ev = inner.next_batch_event(max);
                tee.observe(&ev);
                ev
            }
        }
    }

    /// A cancel handle that aborts the stream from another thread.
    pub fn cancel_handle(&self) -> Arc<AtomicBool> {
        match self {
            WrapperStream::Direct(conn) | WrapperStream::Tee { inner: conn, .. } => {
                conn.cancel_handle()
            }
            WrapperStream::Replay { cancel, .. } => cancel.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::LinkModel;
    use crate::tests::drain;
    use std::time::{Duration, Instant};
    use tukwila_common::{tuple, DataType, Relation, Schema};

    fn rel(n: i64) -> Relation {
        let schema = Schema::of("s", &[("a", DataType::Int)]);
        let mut r = Vec::new();
        for i in 0..n {
            r.push(tuple![i]);
        }
        Relation::new(schema, r).unwrap()
    }

    /// Fetch through `cache` as flight 1.
    fn cached(w: &Wrapper, cache: &SourceResultCache) -> (WrapperStream, FetchVia) {
        w.fetch_through_cache(cache, 1, None).unwrap()
    }

    #[test]
    fn direct_fetch_streams_everything() {
        let w = Wrapper::new(SimulatedSource::new("s", rel(50), LinkModel::instant()));
        let mut s = w.fetch();
        let got = drain(|max| s.next_batch_event(max)).unwrap();
        assert_eq!(got.len(), 50);
        assert_eq!(w.cardinality(), 50);
        assert_eq!(w.source_name(), "s");
    }

    #[test]
    fn cached_fetch_tees_then_replays() {
        let link = LinkModel {
            per_tuple: Duration::from_micros(300),
            ..LinkModel::instant()
        };
        let w = Wrapper::new(SimulatedSource::new("s", rel(30), link));
        let cache = SourceResultCache::new(1 << 20);
        // Cold: this fetch leads and tees into the cache.
        let (mut s, via) = cached(&w, &cache);
        assert_eq!(via, FetchVia::Lead);
        let got = drain(|max| s.next_batch_event(max)).unwrap();
        assert_eq!(got.len(), 30);
        assert_eq!(cache.stats().misses, 1);
        assert_eq!(cache.stats().entries, 1);
        // Warm: replays from memory, never touching the paced source.
        let start = Instant::now();
        let (mut s, via) = cached(&w, &cache);
        assert_eq!(via, FetchVia::Hit);
        let replayed = drain(|max| s.next_batch_event(max)).unwrap();
        assert_eq!(replayed, got);
        assert!(
            start.elapsed() < Duration::from_millis(5),
            "replay is instant"
        );
        assert_eq!(cache.stats().hits, 1);
    }

    #[test]
    fn cached_replay_delivers_batches() {
        let w = Wrapper::new(SimulatedSource::new("s", rel(100), LinkModel::instant()));
        let cache = SourceResultCache::new(1 << 20);
        let (mut s, _) = cached(&w, &cache);
        drain(|max| s.next_batch_event(max)).unwrap();
        let (mut s, _) = cached(&w, &cache);
        let mut total = 0;
        loop {
            match s.next_batch_event(32) {
                SourceBatchEvent::Batch(b) => {
                    assert!(b.len() <= 32);
                    total += b.len();
                }
                SourceBatchEvent::End => break,
                other => panic!("unexpected {other:?}"),
            }
        }
        assert_eq!(total, 100);
        assert_eq!(s.next_batch_event(32), SourceBatchEvent::End);
    }

    #[test]
    fn cache_hit_replays_columnar_batches() {
        let w = Wrapper::new(SimulatedSource::new("s", rel(100), LinkModel::instant()));
        let cache = SourceResultCache::new(1 << 20);
        let (mut s, _) = cached(&w, &cache);
        drain(|max| s.next_batch_event(max)).unwrap();
        let (mut s, via) = cached(&w, &cache);
        assert_eq!(via, FetchVia::Hit);
        let mut total = 0;
        while let SourceBatchEvent::Batch(b) = s.next_batch_event(32) {
            total += b.len();
        }
        assert_eq!(total, 100);
    }

    #[test]
    fn failed_tee_caches_nothing() {
        let w = Wrapper::new(SimulatedSource::new("f", rel(10), LinkModel::failing(3)));
        let cache = SourceResultCache::new(1 << 20);
        let (mut s, _) = cached(&w, &cache);
        let err = drain(|max| s.next_batch_event(max)).unwrap_err();
        assert!(err.contains('f'), "{err}");
        assert_eq!(cache.stats().entries, 0, "partial streams are not cached");
        // The abandoned lease lets the next fetch lead again.
        assert_eq!(cache.stats().misses, 1);
        let (mut s, _) = cached(&w, &cache);
        let err2 = drain(|max| s.next_batch_event(max)).unwrap_err();
        assert!(err2.contains('f'));
        assert_eq!(cache.stats().misses, 2);
    }

    #[test]
    fn tee_abandons_results_larger_than_the_cache_budget() {
        let w = Wrapper::new(SimulatedSource::new("big", rel(200), LinkModel::instant()));
        let budget = rel(200).mem_size() / 4; // result can never fit
        let cache = SourceResultCache::new(budget);
        let (mut s, _) = cached(&w, &cache);
        let got = drain(|max| s.next_batch_event(max)).unwrap();
        assert_eq!(got.len(), 200, "the stream itself is unaffected");
        let s = cache.stats();
        assert_eq!(s.entries, 0);
        assert_eq!(
            s.evictions, 0,
            "abandoned mid-stream, never buffered in full or inserted"
        );
        // The abandoned lease lets the next fetch lead (and abandon) again.
        assert_eq!(s.misses, 1);
    }

    #[test]
    fn dropped_tee_mid_stream_abandons_lease() {
        let w = Wrapper::new(SimulatedSource::new("s", rel(50), LinkModel::instant()));
        let cache = SourceResultCache::new(1 << 20);
        {
            let (mut s, _) = cached(&w, &cache);
            let _ = s.next_batch_event(8); // partial read, then drop
        }
        assert_eq!(cache.stats().entries, 0);
        // Next fetch becomes the new leader and completes the entry.
        let (mut s, _) = cached(&w, &cache);
        drain(|max| s.next_batch_event(max)).unwrap();
        assert_eq!(cache.stats().entries, 1);
    }
}
