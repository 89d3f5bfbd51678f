//! Per-operator memory budgets.
//!
//! Tukwila plans annotate every operator with a memory allocation (§3.1.1)
//! and the engine raises an `out_of_memory` event when a join exhausts it
//! (§3.3). The [`MemoryManager`] tracks a global pool; operators hold
//! [`MemoryReservation`]s that charge and release bytes against both their
//! own budget and the pool.
//!
//! Charging never blocks and never fails: operators *ask* whether they are
//! over budget and then run their overflow strategy — mirroring the paper's
//! lazy overflow resolution ("waiting until memory runs out before breaking
//! down the relations", §4.2.1).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

/// Snapshot of a reservation's accounting, for stats reporting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemoryUsage {
    /// Bytes currently charged.
    pub used: usize,
    /// Budget in bytes.
    pub budget: usize,
    /// High-water mark.
    pub peak: usize,
}

#[derive(Debug)]
struct ReservationInner {
    name: String,
    used: AtomicUsize,
    peak: AtomicUsize,
    budget: AtomicUsize,
    pool: Arc<PoolInner>,
}

#[derive(Debug, Default)]
struct PoolInner {
    used: AtomicUsize,
    peak: AtomicUsize,
    /// Pool-level budget in bytes; 0 means unlimited. Exceeding it puts
    /// every reservation in the pool [`MemoryReservation::under_pressure`].
    budget: AtomicUsize,
    /// Reservation in an enclosing pool that mirrors this pool's usage —
    /// the governor layering: a per-query pool parented to a per-query
    /// reservation on the fleet pool.
    parent: Option<MemoryReservation>,
    /// Weak handles so short-lived reservations (per-query grants in a
    /// long-running service) are reclaimed when their last clone drops;
    /// dead entries are pruned on the next registry access.
    registry: Mutex<Vec<std::sync::Weak<ReservationInner>>>,
}

/// A per-operator memory budget. Cloneable handle; all clones share the
/// accounting (the double pipelined join's child threads charge the same
/// reservation).
#[derive(Debug, Clone)]
pub struct MemoryReservation {
    inner: Arc<ReservationInner>,
}

impl MemoryReservation {
    /// Operator name this reservation belongs to.
    pub fn name(&self) -> &str {
        &self.inner.name
    }

    /// Charge `bytes` to this reservation (and the global pool).
    pub fn charge(&self, bytes: usize) {
        let used = self.inner.used.fetch_add(bytes, Ordering::Relaxed) + bytes;
        self.inner.peak.fetch_max(used, Ordering::Relaxed);
        let pool_used = self.inner.pool.used.fetch_add(bytes, Ordering::Relaxed) + bytes;
        self.inner.pool.peak.fetch_max(pool_used, Ordering::Relaxed);
        if let Some(parent) = &self.inner.pool.parent {
            parent.charge(bytes);
        }
    }

    /// Release `bytes` previously charged. Saturates at zero (releasing
    /// more than charged is an accounting bug surfaced by `debug_assert`),
    /// and only the amount actually held propagates to the pool and the
    /// parent chain — an over-release must not deflate a shared pool that
    /// still holds *other* reservations' live charges.
    pub fn release(&self, bytes: usize) {
        let prev = self.inner.used.fetch_sub(bytes, Ordering::Relaxed);
        debug_assert!(prev >= bytes, "memory accounting underflow");
        let actual = if prev < bytes {
            self.inner.used.store(0, Ordering::Relaxed);
            prev
        } else {
            bytes
        };
        let pool_prev = self.inner.pool.used.fetch_sub(actual, Ordering::Relaxed);
        if pool_prev < actual {
            self.inner.pool.used.store(0, Ordering::Relaxed);
        }
        if let Some(parent) = &self.inner.pool.parent {
            parent.release(actual);
        }
    }

    /// Whether the reservation is over its budget — the trigger for the
    /// `out_of_memory` event.
    pub fn over_budget(&self) -> bool {
        self.inner.used.load(Ordering::Relaxed) > self.inner.budget.load(Ordering::Relaxed)
    }

    /// Whether this reservation should shed memory *now*: it is over its
    /// own budget, its pool is over the pool budget, or an enclosing pool
    /// up the parent chain is — the memory governor's enforcement hook.
    /// Operators use this instead of [`MemoryReservation::over_budget`] so
    /// query-level and fleet-level pressure trigger the same overflow
    /// resolution as an operator-level overage.
    pub fn under_pressure(&self) -> bool {
        if self.over_budget() || self.inner.pool.over_budget() {
            return true;
        }
        match &self.inner.pool.parent {
            Some(parent) => parent.under_pressure(),
            None => false,
        }
    }

    /// How many more bytes can be charged before this reservation is
    /// [`MemoryReservation::under_pressure`] — asked **without charging**,
    /// against the same levels (own budget, pool, parent chain); `None`
    /// when it already is. An operator that stores rows tests its charges
    /// against this first, so it can split a block where it stops fitting.
    pub fn headroom(&self) -> Option<usize> {
        let left =
            |used: &AtomicUsize, budget: usize| budget.checked_sub(used.load(Ordering::Relaxed));
        let pool = &self.inner.pool;
        let pool_budget = pool.budget.load(Ordering::Relaxed);
        let mut room = left(&self.inner.used, self.inner.budget.load(Ordering::Relaxed))?;
        if pool_budget != 0 {
            room = room.min(left(&pool.used, pool_budget)?);
        }
        if let Some(parent) = &pool.parent {
            room = room.min(parent.headroom()?);
        }
        Some(room)
    }

    /// Bytes that must be freed to get back under budget (0 if under).
    pub fn overage(&self) -> usize {
        self.inner
            .used
            .load(Ordering::Relaxed)
            .saturating_sub(self.inner.budget.load(Ordering::Relaxed))
    }

    /// Current usage snapshot.
    pub fn usage(&self) -> MemoryUsage {
        MemoryUsage {
            used: self.inner.used.load(Ordering::Relaxed),
            budget: self.inner.budget.load(Ordering::Relaxed),
            peak: self.inner.peak.load(Ordering::Relaxed),
        }
    }

    /// Adjust the budget at runtime — the `alter a memory allotment` rule
    /// action (§3.1.2).
    pub fn set_budget(&self, budget: usize) {
        self.inner.budget.store(budget, Ordering::Relaxed);
    }

    /// Budget in bytes.
    pub fn budget(&self) -> usize {
        self.inner.budget.load(Ordering::Relaxed)
    }
}

impl PoolInner {
    fn over_budget(&self) -> bool {
        let budget = self.budget.load(Ordering::Relaxed);
        budget != 0 && self.used.load(Ordering::Relaxed) > budget
    }
}

/// The engine-wide memory pool from which operators reserve budgets.
#[derive(Debug, Clone, Default)]
pub struct MemoryManager {
    pool: Arc<PoolInner>,
}

impl MemoryManager {
    /// Fresh pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// Fresh pool whose usage is mirrored into `parent` — a reservation in
    /// an enclosing pool. This is how the service's memory governor layers
    /// per-query budgets over per-operator reservations: every charge in
    /// the query's pool also charges the query's grant on the fleet pool.
    pub fn with_parent(parent: MemoryReservation) -> Self {
        MemoryManager {
            pool: Arc::new(PoolInner {
                parent: Some(parent),
                ..Default::default()
            }),
        }
    }

    /// Set the pool-level budget in bytes (0 = unlimited). Exceeding it
    /// makes every reservation in this pool report
    /// [`MemoryReservation::under_pressure`].
    pub fn set_budget(&self, budget: usize) {
        self.pool.budget.store(budget, Ordering::Relaxed);
    }

    /// Builder-style [`MemoryManager::set_budget`].
    pub fn with_budget(self, budget: usize) -> Self {
        self.set_budget(budget);
        self
    }

    /// Pool-level budget (0 = unlimited).
    pub fn budget(&self) -> usize {
        self.pool.budget.load(Ordering::Relaxed)
    }

    /// Whether the pool as a whole exceeds its budget.
    pub fn over_budget(&self) -> bool {
        self.pool.over_budget()
    }

    /// Register an operator with a budget (bytes). The budget is advisory —
    /// the engine reacts to overflow adaptively rather than rejecting the
    /// charge, per the paper's model.
    pub fn register(&self, name: impl Into<String>, budget: usize) -> MemoryReservation {
        let inner = Arc::new(ReservationInner {
            name: name.into(),
            used: AtomicUsize::new(0),
            peak: AtomicUsize::new(0),
            budget: AtomicUsize::new(budget),
            pool: self.pool.clone(),
        });
        let mut registry = self.pool.registry.lock();
        registry.retain(|w| w.strong_count() > 0);
        registry.push(Arc::downgrade(&inner));
        drop(registry);
        MemoryReservation { inner }
    }

    /// Total bytes currently charged across operators.
    pub fn total_used(&self) -> usize {
        self.pool.used.load(Ordering::Relaxed)
    }

    /// Pool high-water mark.
    pub fn peak_used(&self) -> usize {
        self.pool.peak.load(Ordering::Relaxed)
    }

    /// Usage of every registered reservation (name, usage), for the
    /// statistics the engine ships back to the optimizer (§3.2).
    pub fn per_operator(&self) -> Vec<(String, MemoryUsage)> {
        let mut registry = self.pool.registry.lock();
        registry.retain(|w| w.strong_count() > 0);
        registry
            .iter()
            .filter_map(std::sync::Weak::upgrade)
            .map(|r| {
                (
                    r.name.clone(),
                    MemoryUsage {
                        used: r.used.load(Ordering::Relaxed),
                        budget: r.budget.load(Ordering::Relaxed),
                        peak: r.peak.load(Ordering::Relaxed),
                    },
                )
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn charge_release_cycle() {
        let mm = MemoryManager::new();
        let r = mm.register("join1", 100);
        r.charge(60);
        assert!(!r.over_budget());
        r.charge(60);
        assert!(r.over_budget());
        assert_eq!(r.overage(), 20);
        r.release(30);
        assert!(!r.over_budget());
        assert_eq!(r.usage().peak, 120);
        assert_eq!(mm.total_used(), 90);
    }

    #[test]
    fn pool_aggregates_reservations() {
        let mm = MemoryManager::new();
        let a = mm.register("a", 10);
        let b = mm.register("b", 10);
        a.charge(5);
        b.charge(7);
        assert_eq!(mm.total_used(), 12);
        assert_eq!(mm.peak_used(), 12);
        let per = mm.per_operator();
        assert_eq!(per.len(), 2);
        assert_eq!(per[0].0, "a");
        assert_eq!(per[0].1.used, 5);
    }

    #[test]
    fn set_budget_rule_action() {
        let mm = MemoryManager::new();
        let r = mm.register("dpj", 10);
        r.charge(15);
        assert!(r.over_budget());
        r.set_budget(20); // rule: alter memory allotment
        assert!(!r.over_budget());
        assert_eq!(r.budget(), 20);
    }

    #[test]
    fn concurrent_charges_are_consistent() {
        let mm = MemoryManager::new();
        let r = mm.register("dpj", 1_000_000);
        let mut handles = Vec::new();
        for _ in 0..8 {
            let r = r.clone();
            handles.push(thread::spawn(move || {
                for _ in 0..1000 {
                    r.charge(3);
                    r.release(1);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(r.usage().used, 8 * 1000 * 2);
        assert_eq!(mm.total_used(), 8 * 1000 * 2);
    }

    #[test]
    fn dropped_reservations_leave_the_registry() {
        let mm = MemoryManager::new();
        for i in 0..100 {
            let r = mm.register(format!("q{i}"), 10);
            r.charge(1);
            r.release(1);
        }
        // A service registering one grant per query must not accumulate
        // dead entries.
        assert!(mm.per_operator().is_empty());
        let live = mm.register("live", 10);
        assert_eq!(mm.per_operator().len(), 1);
        drop(live);
        assert!(mm.per_operator().is_empty());
    }

    #[cfg(not(debug_assertions))] // over-release debug_asserts; release-mode clamps
    #[test]
    fn over_release_does_not_deflate_shared_pools() {
        let fleet = MemoryManager::new();
        let other = fleet.register("other", 1000);
        other.charge(500);
        let grant = fleet.register("q", 400);
        let pool = MemoryManager::with_parent(grant.clone());
        let op = pool.register("op", 1000);
        op.charge(100);
        assert_eq!(fleet.total_used(), 600);
        op.release(150); // buggy over-release: only the 100 held may leave
        assert_eq!(op.usage().used, 0);
        assert_eq!(grant.usage().used, 0);
        assert_eq!(
            fleet.total_used(),
            500,
            "other reservations' charges must survive an over-release"
        );
    }

    #[test]
    fn pool_budget_creates_pressure() {
        let mm = MemoryManager::new().with_budget(100);
        let a = mm.register("a", 1_000); // generous operator budget
        let b = mm.register("b", 1_000);
        a.charge(60);
        b.charge(30);
        assert!(!a.under_pressure() && !b.under_pressure());
        b.charge(20); // pool total 110 > 100
        assert!(mm.over_budget());
        assert!(
            a.under_pressure(),
            "pool pressure reaches every reservation"
        );
        assert!(b.under_pressure());
        assert!(!a.over_budget(), "operator budgets themselves are fine");
        b.release(20);
        assert!(!a.under_pressure());
    }

    #[test]
    fn unlimited_pool_never_pressures() {
        let mm = MemoryManager::new();
        let r = mm.register("r", 10);
        r.charge(1_000_000);
        assert!(r.over_budget());
        assert!(!mm.over_budget(), "budget 0 means unlimited");
        r.release(1_000_000);
        assert!(!r.under_pressure());
    }

    #[test]
    fn parent_chain_mirrors_usage_and_pressure() {
        // fleet pool (total 100) ← query grant (budget 50) ← query pool
        let fleet = MemoryManager::new().with_budget(100);
        let grant = fleet.register("q1", 50);
        let query_pool = MemoryManager::with_parent(grant.clone()).with_budget(50);
        let op = query_pool.register("join", 1_000);

        op.charge(40);
        assert_eq!(fleet.total_used(), 40, "usage propagates to the fleet pool");
        assert_eq!(grant.usage().used, 40);
        assert!(!op.under_pressure());

        op.charge(20); // query pool 60 > 50
        assert!(op.under_pressure(), "query budget exceeded");
        op.release(60);
        assert_eq!(fleet.total_used(), 0);

        // fleet-level pressure reaches operators of an under-budget query
        let hog = fleet.register("q2", 200);
        hog.charge(150); // fleet 150 > 100
        op.charge(10);
        assert!(!op.over_budget() && !query_pool.over_budget());
        assert!(op.under_pressure(), "fleet pressure reaches every query");
        hog.release(150);
        assert!(!op.under_pressure());
    }

    /// `n <= headroom()` answers what `charge(n); under_pressure()` would,
    /// at every level `under_pressure` folds in, and charges nothing.
    #[test]
    fn headroom_matches_pressure_after_charge_at_every_level() {
        let agrees = |r: &MemoryReservation, n: usize| {
            let before = r.usage();
            let predicted = r.headroom().is_some_and(|room| n <= room);
            assert_eq!(
                r.usage(),
                before,
                "the query must not charge or move the peak"
            );
            r.charge(n);
            let fits = !r.under_pressure();
            r.release(n);
            assert_eq!(predicted, fits, "headroom({n})");
            predicted
        };
        // Reservation level, in an unlimited pool (budget 0).
        let mm = MemoryManager::new();
        let r = mm.register("r", 100);
        r.charge(60);
        assert!(agrees(&r, 40), "exactly at budget is not over it");
        assert!(!agrees(&r, 41));
        r.charge(50);
        assert_eq!(r.headroom(), None, "already over: no room at all");
        assert!(!agrees(&r, 0));
        r.release(50);
        mm.register("other", 10).charge(1_000_000);
        assert!(agrees(&r, 40), "pool budget 0 means unlimited");
        // Pool level: a neighbour's charge uses up the shared budget.
        let mm = MemoryManager::new().with_budget(100);
        let a = mm.register("a", 1_000);
        let b = mm.register("b", 1_000);
        b.charge(70);
        assert!(agrees(&a, 30));
        assert!(!agrees(&a, 31));
        // Parent level: fleet pool <- query grant <- query pool <- operator.
        let fleet = MemoryManager::new().with_budget(100);
        let grant = fleet.register("q1", 50);
        let op = MemoryManager::with_parent(grant).register("join", 1_000);
        assert!(agrees(&op, 50));
        assert!(!agrees(&op, 51), "the query's grant is the limit");
        let hog = fleet.register("q2", 1_000);
        hog.charge(80);
        assert!(agrees(&op, 20));
        assert!(!agrees(&op, 21), "the fleet pool is the limit");
    }

    #[test]
    fn clones_share_accounting() {
        let mm = MemoryManager::new();
        let r = mm.register("x", 10);
        let r2 = r.clone();
        r.charge(4);
        r2.charge(4);
        assert_eq!(r.usage().used, 8);
    }
}
