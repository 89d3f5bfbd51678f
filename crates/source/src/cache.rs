//! Shared source-result cache.
//!
//! For a data-integration engine whose dominant cost is slow autonomous
//! sources, the highest-leverage cross-query optimization is fetching each
//! (source, pushed-down source query) result **once** and sharing it among
//! concurrent queries. The cache is:
//!
//! * **keyed** by [`SourceQueryKey`] — today's wrappers accept only atomic
//!   fetch queries (footnote 2 of the paper), so the key's `query`
//!   component is the full scan `"*"`, but the key shape is ready for
//!   predicate pushdown;
//! * **single-flight** — the first query to miss a key becomes the
//!   *leader* and streams through a teeing wrapper stream; racing queries
//!   wait and are served from the completed result (one wrapper fetch
//!   total). A leader that fails or is cancelled mid-stream abandons its
//!   lease and a waiter is promoted to leader;
//! * **memory-bounded** — insertions charge a budget (a plain byte cap, or
//!   a [`MemoryReservation`] handed out by the service's memory governor so
//!   fleet-level memory pressure also shrinks the cache) and evict least
//!   recently used entries until back under;
//! * **observable** — hit/miss/eviction/coalesced-wait counters via
//!   [`SourceResultCache::stats`].

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::{Condvar, Mutex};
use tukwila_common::Relation;
use tukwila_storage::MemoryReservation;

/// Cache key: a source plus the query pushed down to it.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SourceQueryKey {
    /// Source name as registered in the [`crate::SourceRegistry`].
    pub source: String,
    /// Pushed-down source query; `"*"` is the atomic full scan.
    pub query: String,
}

impl SourceQueryKey {
    /// The full-scan key for `source` (the only fetch today's wrappers
    /// accept).
    pub fn full_scan(source: impl Into<String>) -> Self {
        SourceQueryKey {
            source: source.into(),
            query: "*".to_string(),
        }
    }
}

/// Counter snapshot.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups served from a completed entry (including coalesced waiters
    /// served by another query's fetch).
    pub hits: u64,
    /// Lookups that found nothing and became the fetching leader.
    pub misses: u64,
    /// Entries evicted to stay within the memory budget.
    pub evictions: u64,
    /// Hits that waited for an in-flight leader instead of finding a
    /// completed entry immediately (the single-flight savings).
    pub coalesced: u64,
    /// Entries currently cached.
    pub entries: usize,
    /// Bytes currently cached.
    pub bytes: usize,
}

/// How the cache bounds its memory.
enum Budget {
    /// Plain byte cap.
    Fixed(usize),
    /// Reservation on a governor pool: the budget is the reservation's,
    /// and fleet-level pressure (pool over budget) also forces eviction.
    Governed(MemoryReservation),
}

struct Entry {
    rel: Arc<Relation>,
    bytes: usize,
    last_used: u64,
}

#[derive(Default)]
struct Inner {
    ready: HashMap<SourceQueryKey, Entry>,
    /// Keys currently being fetched, with the flight (query) leading each.
    pending: HashMap<SourceQueryKey, u64>,
    /// Pending leases held per flight. A flight that holds a lease never
    /// *waits* on another flight (it bypasses instead): sequential-open
    /// operators create their streams before draining any, so two queries
    /// leading each other's next key would otherwise deadlock AB-BA.
    held: HashMap<u64, usize>,
    cached_bytes: usize,
    clock: u64,
}

struct Shared {
    inner: Mutex<Inner>,
    cv: Condvar,
    budget: Budget,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    coalesced: AtomicU64,
}

impl Shared {
    fn over_budget(&self, inner: &Inner) -> bool {
        match &self.budget {
            Budget::Fixed(cap) => inner.cached_bytes > *cap,
            Budget::Governed(res) => res.under_pressure(),
        }
    }

    fn budget_bytes(&self) -> usize {
        match &self.budget {
            Budget::Fixed(cap) => *cap,
            Budget::Governed(res) => res.budget(),
        }
    }

    fn charge(&self, bytes: usize) {
        if let Budget::Governed(res) = &self.budget {
            res.charge(bytes);
        }
    }

    fn release(&self, bytes: usize) {
        if let Budget::Governed(res) = &self.budget {
            res.release(bytes);
        }
    }

    /// Evict LRU entries until within budget. `protect` (the entry just
    /// inserted) goes last: it is only evicted if it alone exceeds the
    /// budget.
    fn evict_until_within(&self, inner: &mut Inner, protect: Option<&SourceQueryKey>) {
        while self.over_budget(inner) {
            let victim = inner
                .ready
                .iter()
                .filter(|(k, _)| Some(*k) != protect)
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k.clone())
                .or_else(|| protect.filter(|p| inner.ready.contains_key(*p)).cloned());
            let Some(key) = victim else { break };
            if let Some(e) = inner.ready.remove(&key) {
                inner.cached_bytes -= e.bytes;
                self.release(e.bytes);
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
}

/// Result of a cache lookup.
pub enum CacheLookup {
    /// The complete result is cached (or a racing leader just completed
    /// it); stream it from memory.
    Hit(Arc<Relation>),
    /// Nothing cached and no fetch in flight: the caller is the leader and
    /// must fetch, teeing into the lease.
    Lead(FetchLease),
    /// A fetch led by the caller's *own* flight is in progress (e.g. a
    /// self-join whose two scans open sequentially on one thread): the
    /// caller must fetch directly, uncached — waiting would deadlock on
    /// its own undrained stream.
    Bypass,
    /// The caller's cancel flag flipped while waiting for a leader.
    Cancelled,
}

/// Shared, cloneable handle to one cache.
#[derive(Clone)]
pub struct SourceResultCache {
    shared: Arc<Shared>,
}

impl std::fmt::Debug for SourceResultCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.stats();
        f.debug_struct("SourceResultCache")
            .field("entries", &s.entries)
            .field("bytes", &s.bytes)
            .finish()
    }
}

impl SourceResultCache {
    /// Cache bounded by a plain byte cap.
    pub fn new(budget_bytes: usize) -> Self {
        Self::with_budget(Budget::Fixed(budget_bytes))
    }

    /// Cache whose memory is governed by `reservation` (typically handed
    /// out by the service's memory governor): insertions charge it, the
    /// effective budget is its budget, and pool-level pressure forces
    /// eviction too.
    pub fn with_reservation(reservation: MemoryReservation) -> Self {
        Self::with_budget(Budget::Governed(reservation))
    }

    fn with_budget(budget: Budget) -> Self {
        SourceResultCache {
            shared: Arc::new(Shared {
                inner: Mutex::new(Inner::default()),
                cv: Condvar::new(),
                budget,
                hits: AtomicU64::new(0),
                misses: AtomicU64::new(0),
                evictions: AtomicU64::new(0),
                coalesced: AtomicU64::new(0),
            }),
        }
    }

    /// Look `key` up for `flight` (an id shared by all scans of one query
    /// — cheap and stable, e.g. the address of the query's control). On a
    /// hit the complete relation is returned; on a cold key the caller
    /// becomes the fetching leader; if *another* flight is already
    /// fetching, block until it completes (or abandons, in which case the
    /// caller is promoted to leader). If the in-flight leader belongs to
    /// the caller's own flight, return [`CacheLookup::Bypass`] instead of
    /// waiting — the leader's stream is drained by the caller's own
    /// thread, so waiting would self-deadlock (self-joins). `cancel`
    /// aborts the wait when flipped from another thread.
    pub fn lookup_or_lead(
        &self,
        key: &SourceQueryKey,
        flight: u64,
        cancel: Option<&AtomicBool>,
    ) -> CacheLookup {
        self.lookup_or_lead_observed(key, flight, cancel).0
    }

    /// [`SourceResultCache::lookup_or_lead`] additionally reporting whether
    /// the caller waited on another flight's in-progress fetch — the bit
    /// that distinguishes a *coalesced* hit from a plain one in per-query
    /// attribution.
    pub fn lookup_or_lead_observed(
        &self,
        key: &SourceQueryKey,
        flight: u64,
        cancel: Option<&AtomicBool>,
    ) -> (CacheLookup, bool) {
        let s = &self.shared;
        let mut inner = s.inner.lock();
        let mut waited = false;
        loop {
            if inner.ready.contains_key(key) {
                inner.clock += 1;
                let now = inner.clock;
                let e = inner.ready.get_mut(key).unwrap();
                e.last_used = now;
                let rel = e.rel.clone();
                s.hits.fetch_add(1, Ordering::Relaxed);
                if waited {
                    s.coalesced.fetch_add(1, Ordering::Relaxed);
                }
                return (CacheLookup::Hit(rel), waited);
            }
            if let Some(&leader) = inner.pending.get(key) {
                // Never wait while leading: a flight that holds any
                // undrained lease (its operator opened the stream but has
                // not pulled it yet) must bypass, or two queries leading
                // each other's next key deadlock.
                if leader == flight || inner.held.get(&flight).copied().unwrap_or(0) > 0 {
                    return (CacheLookup::Bypass, waited);
                }
                waited = true;
                match cancel {
                    // Timed slices so a flipped cancel flag is noticed
                    // even if the leader streams for a long time.
                    Some(c) => {
                        if c.load(Ordering::Relaxed) {
                            return (CacheLookup::Cancelled, waited);
                        }
                        s.cv.wait_for(&mut inner, Duration::from_millis(5));
                    }
                    // No cancel flag to poll: sleep until the leader
                    // fulfils or abandons (both notify_all).
                    None => s.cv.wait(&mut inner),
                }
                continue;
            }
            inner.pending.insert(key.clone(), flight);
            *inner.held.entry(flight).or_insert(0) += 1;
            s.misses.fetch_add(1, Ordering::Relaxed);
            return (
                CacheLookup::Lead(FetchLease {
                    shared: s.clone(),
                    key: key.clone(),
                    flight,
                    done: false,
                }),
                waited,
            );
        }
    }

    /// Whether `other` is a handle to this same cache (identity, not
    /// contents) — used by owners to uninstall only their own cache.
    pub fn same_instance(&self, other: &SourceResultCache) -> bool {
        Arc::ptr_eq(&self.shared, &other.shared)
    }

    /// Complete result already cached? (Non-blocking peek; counts nothing.)
    pub fn peek(&self, key: &SourceQueryKey) -> Option<Arc<Relation>> {
        let inner = self.shared.inner.lock();
        inner.ready.get(key).map(|e| e.rel.clone())
    }

    /// Counter snapshot.
    pub fn stats(&self) -> CacheStats {
        let inner = self.shared.inner.lock();
        CacheStats {
            hits: self.shared.hits.load(Ordering::Relaxed),
            misses: self.shared.misses.load(Ordering::Relaxed),
            evictions: self.shared.evictions.load(Ordering::Relaxed),
            coalesced: self.shared.coalesced.load(Ordering::Relaxed),
            entries: inner.ready.len(),
            bytes: inner.cached_bytes,
        }
    }

    /// Drop every completed entry (in-flight leaders are unaffected).
    pub fn clear(&self) {
        let mut inner = self.shared.inner.lock();
        let bytes = inner.cached_bytes;
        inner.ready.clear();
        inner.cached_bytes = 0;
        self.shared.release(bytes);
    }
}

/// The leader's obligation for one in-flight key: fulfil it with the
/// complete result, or drop it (abandon) so a waiter takes over. Held by
/// the teeing wrapper stream.
pub struct FetchLease {
    shared: Arc<Shared>,
    key: SourceQueryKey,
    flight: u64,
    done: bool,
}

impl FetchLease {
    /// Drop this flight's hold on the lease count (called exactly once,
    /// from `fulfill` or `Drop`).
    fn release_hold(inner: &mut Inner, flight: u64) {
        if let Some(n) = inner.held.get_mut(&flight) {
            *n = n.saturating_sub(1);
            if *n == 0 {
                inner.held.remove(&flight);
            }
        }
    }
}

impl std::fmt::Debug for FetchLease {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FetchLease")
            .field("key", &self.key)
            .finish()
    }
}

impl FetchLease {
    /// The key this lease covers.
    pub fn key(&self) -> &SourceQueryKey {
        &self.key
    }

    /// The cache's byte budget — a result larger than this can never be
    /// retained, so a teeing leader should abandon (and stop buffering)
    /// once its collected bytes pass it.
    pub fn budget_bytes(&self) -> usize {
        self.shared.budget_bytes()
    }

    /// Install the complete result, waking every waiter; evicts LRU
    /// entries to stay within budget.
    pub fn fulfill(mut self, rel: Arc<Relation>) {
        self.done = true;
        let bytes = rel.mem_size();
        let s = self.shared.clone();
        let mut inner = s.inner.lock();
        inner.pending.remove(&self.key);
        Self::release_hold(&mut inner, self.flight);
        inner.clock += 1;
        let now = inner.clock;
        inner.cached_bytes += bytes;
        s.charge(bytes);
        inner.ready.insert(
            self.key.clone(),
            Entry {
                rel,
                bytes,
                last_used: now,
            },
        );
        s.evict_until_within(&mut inner, Some(&self.key));
        drop(inner);
        s.cv.notify_all();
    }
}

impl Drop for FetchLease {
    fn drop(&mut self) {
        if self.done {
            return;
        }
        // Abandon: wake the waiters so one of them is promoted to leader.
        let mut inner = self.shared.inner.lock();
        inner.pending.remove(&self.key);
        Self::release_hold(&mut inner, self.flight);
        drop(inner);
        self.shared.cv.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;
    use tukwila_common::{tuple, DataType, Schema};
    use tukwila_storage::MemoryManager;

    fn rel(n: i64) -> Arc<Relation> {
        let schema = Schema::of("s", &[("a", DataType::Int)]);
        let mut r = Relation::empty(schema);
        for i in 0..n {
            r.push(tuple![i]);
        }
        Arc::new(r)
    }

    fn fulfill(cache: &SourceResultCache, key: &SourceQueryKey, r: Arc<Relation>) {
        match cache.lookup_or_lead(key, 1, None) {
            CacheLookup::Lead(lease) => lease.fulfill(r),
            _ => panic!("expected to lead"),
        }
    }

    #[test]
    fn miss_then_hit_accounting() {
        let cache = SourceResultCache::new(1 << 20);
        let key = SourceQueryKey::full_scan("supplier");
        fulfill(&cache, &key, rel(10));
        match cache.lookup_or_lead(&key, 2, None) {
            CacheLookup::Hit(r) => assert_eq!(r.len(), 10),
            _ => panic!("expected hit"),
        }
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.entries), (1, 1, 1));
        assert!(s.bytes > 0);
    }

    #[test]
    fn distinct_keys_do_not_collide() {
        let cache = SourceResultCache::new(1 << 20);
        fulfill(&cache, &SourceQueryKey::full_scan("a"), rel(3));
        fulfill(&cache, &SourceQueryKey::full_scan("b"), rel(7));
        match cache.lookup_or_lead(&SourceQueryKey::full_scan("a"), 1, None) {
            CacheLookup::Hit(r) => assert_eq!(r.len(), 3),
            _ => panic!("expected hit"),
        }
    }

    #[test]
    fn lru_eviction_under_tight_budget() {
        let one = rel(50);
        let budget = one.mem_size() * 2 + one.mem_size() / 2; // fits 2 of 3
        let cache = SourceResultCache::new(budget);
        for name in ["a", "b", "c"] {
            fulfill(&cache, &SourceQueryKey::full_scan(name), rel(50));
        }
        let s = cache.stats();
        assert_eq!(s.evictions, 1);
        assert_eq!(s.entries, 2);
        assert!(s.bytes <= budget);
        // "a" was least recently used → evicted; "b" and "c" remain.
        assert!(cache.peek(&SourceQueryKey::full_scan("a")).is_none());
        assert!(cache.peek(&SourceQueryKey::full_scan("b")).is_some());
        assert!(cache.peek(&SourceQueryKey::full_scan("c")).is_some());
    }

    #[test]
    fn touch_on_hit_updates_lru_order() {
        let one = rel(50);
        let budget = one.mem_size() * 2 + one.mem_size() / 2;
        let cache = SourceResultCache::new(budget);
        fulfill(&cache, &SourceQueryKey::full_scan("a"), rel(50));
        fulfill(&cache, &SourceQueryKey::full_scan("b"), rel(50));
        // touch "a" so "b" becomes the LRU victim
        assert!(matches!(
            cache.lookup_or_lead(&SourceQueryKey::full_scan("a"), 1, None),
            CacheLookup::Hit(_)
        ));
        fulfill(&cache, &SourceQueryKey::full_scan("c"), rel(50));
        assert!(cache.peek(&SourceQueryKey::full_scan("a")).is_some());
        assert!(cache.peek(&SourceQueryKey::full_scan("b")).is_none());
    }

    #[test]
    fn oversized_entry_is_evicted_itself() {
        let cache = SourceResultCache::new(8); // smaller than any relation
        fulfill(&cache, &SourceQueryKey::full_scan("big"), rel(100));
        let s = cache.stats();
        assert_eq!(s.entries, 0);
        assert_eq!(s.bytes, 0);
        assert_eq!(s.evictions, 1);
    }

    #[test]
    fn racing_cold_lookups_coalesce_to_one_fetch() {
        let cache = SourceResultCache::new(1 << 20);
        let key = SourceQueryKey::full_scan("slow");
        // Leader takes the lease, then fulfils after a delay.
        let lease = match cache.lookup_or_lead(&key, 1, None) {
            CacheLookup::Lead(l) => l,
            _ => panic!("expected lead"),
        };
        let mut handles = Vec::new();
        for i in 0..4u64 {
            let cache = cache.clone();
            let key = key.clone();
            handles.push(thread::spawn(move || {
                match cache.lookup_or_lead(&key, 100 + i, None) {
                    CacheLookup::Hit(r) => r.len(),
                    _ => panic!("waiter must be served by the leader"),
                }
            }));
        }
        thread::sleep(Duration::from_millis(30));
        lease.fulfill(rel(42));
        for h in handles {
            assert_eq!(h.join().unwrap(), 42);
        }
        let s = cache.stats();
        assert_eq!(s.misses, 1, "single fetch for 5 racing queries");
        assert_eq!(s.hits, 4);
        assert_eq!(s.coalesced, 4);
    }

    #[test]
    fn same_flight_bypasses_its_own_pending_fetch() {
        // A self-join's second scan (same query, same source, same thread)
        // must not wait on the lease its own thread holds — that would
        // deadlock. It bypasses and fetches directly instead.
        let cache = SourceResultCache::new(1 << 20);
        let key = SourceQueryKey::full_scan("s");
        let lease = match cache.lookup_or_lead(&key, 7, None) {
            CacheLookup::Lead(l) => l,
            _ => panic!("expected lead"),
        };
        assert!(
            matches!(cache.lookup_or_lead(&key, 7, None), CacheLookup::Bypass),
            "same flight must bypass, not wait"
        );
        lease.fulfill(rel(3));
        // Once the entry is ready the same flight hits like anyone else.
        assert!(matches!(
            cache.lookup_or_lead(&key, 7, None),
            CacheLookup::Hit(_)
        ));
    }

    #[test]
    fn lease_holder_bypasses_other_flights_pending_keys() {
        // AB-BA shape: flight 1 leads X then looks up Y (led by flight 2);
        // flight 2 leads Y then looks up X. Sequential-open operators hold
        // their leases undrained at this point, so *waiting* on either
        // side would deadlock. Both sides must bypass instead.
        let cache = SourceResultCache::new(1 << 20);
        let x = SourceQueryKey::full_scan("x");
        let y = SourceQueryKey::full_scan("y");
        let lease_x = match cache.lookup_or_lead(&x, 1, None) {
            CacheLookup::Lead(l) => l,
            _ => panic!("expected lead"),
        };
        let lease_y = match cache.lookup_or_lead(&y, 2, None) {
            CacheLookup::Lead(l) => l,
            _ => panic!("expected lead"),
        };
        assert!(
            matches!(cache.lookup_or_lead(&y, 1, None), CacheLookup::Bypass),
            "flight 1 holds X's lease; it must not wait on Y"
        );
        assert!(
            matches!(cache.lookup_or_lead(&x, 2, None), CacheLookup::Bypass),
            "flight 2 holds Y's lease; it must not wait on X"
        );
        // Once a flight's leases resolve, it waits/coalesces normally again.
        lease_x.fulfill(rel(1));
        lease_y.fulfill(rel(2));
        assert!(matches!(
            cache.lookup_or_lead(&y, 1, None),
            CacheLookup::Hit(_)
        ));
    }

    #[test]
    fn abandoned_lease_promotes_a_waiter() {
        let cache = SourceResultCache::new(1 << 20);
        let key = SourceQueryKey::full_scan("flaky");
        let lease = match cache.lookup_or_lead(&key, 1, None) {
            CacheLookup::Lead(l) => l,
            _ => panic!("expected lead"),
        };
        let waiter = {
            let cache = cache.clone();
            let key = key.clone();
            thread::spawn(move || match cache.lookup_or_lead(&key, 2, None) {
                CacheLookup::Lead(l) => {
                    l.fulfill(rel(7));
                    "promoted"
                }
                CacheLookup::Hit(_) => "hit",
                CacheLookup::Bypass => "bypass",
                CacheLookup::Cancelled => "cancelled",
            })
        };
        thread::sleep(Duration::from_millis(20));
        drop(lease); // leader fails → abandon
        assert_eq!(waiter.join().unwrap(), "promoted");
        assert_eq!(cache.stats().misses, 2);
    }

    #[test]
    fn cancelled_waiter_returns_promptly() {
        let cache = SourceResultCache::new(1 << 20);
        let key = SourceQueryKey::full_scan("stuck");
        let _lease = match cache.lookup_or_lead(&key, 1, None) {
            CacheLookup::Lead(l) => l,
            _ => panic!("expected lead"),
        };
        let cancel = Arc::new(AtomicBool::new(false));
        let waiter = {
            let cache = cache.clone();
            let key = key.clone();
            let cancel = cancel.clone();
            thread::spawn(move || {
                matches!(
                    cache.lookup_or_lead(&key, 2, Some(&cancel)),
                    CacheLookup::Cancelled
                )
            })
        };
        thread::sleep(Duration::from_millis(10));
        cancel.store(true, Ordering::Relaxed);
        assert!(waiter.join().unwrap(), "wait must observe the cancel flag");
    }

    #[test]
    fn governed_budget_charges_reservation() {
        let mm = MemoryManager::new();
        let res = mm.register("cache", 1 << 20);
        let cache = SourceResultCache::with_reservation(res.clone());
        fulfill(&cache, &SourceQueryKey::full_scan("a"), rel(20));
        assert_eq!(res.usage().used, cache.stats().bytes);
        cache.clear();
        assert_eq!(res.usage().used, 0);
    }

    #[test]
    fn governed_pressure_forces_eviction() {
        let one = rel(50);
        let mm = MemoryManager::new();
        let res = mm.register("cache", one.mem_size() * 2 + one.mem_size() / 2);
        let cache = SourceResultCache::with_reservation(res);
        for name in ["a", "b", "c"] {
            fulfill(&cache, &SourceQueryKey::full_scan(name), rel(50));
        }
        assert_eq!(cache.stats().entries, 2);
        assert_eq!(cache.stats().evictions, 1);
    }
}
