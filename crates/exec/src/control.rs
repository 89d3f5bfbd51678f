//! Per-query cooperative cancellation and wall-clock deadlines.
//!
//! A [`QueryControl`] is created when a query is submitted and threaded
//! through the whole run: the fragment loop checks it at every batch
//! boundary, and every blocking source stream registers its cancel handle
//! with it so `cancel()` interrupts even a scan sleeping inside a link
//! model. Deadlines are *self-tripping*: any check after the deadline
//! passes flips the control into the cancelled state (kind
//! [`CancelKind::Deadline`]) and fires the registered handles — the
//! service's watchdog merely guarantees a check happens while every worker
//! thread is blocked on a slow source.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use tukwila_common::{Result, TukwilaError};
use tukwila_trace::{QueryTrace, TraceLevel};

/// Why a query was cancelled — distinct from rule-driven aborts
/// (`TukwilaError::Cancelled` raised by a `return error to user` action).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CancelKind {
    /// The client (or the service on its behalf) cancelled the query.
    User,
    /// The wall-clock deadline given at submission passed.
    Deadline,
    /// The service is shutting down.
    Shutdown,
}

const STATE_LIVE: u8 = 0;
const STATE_USER: u8 = 1;
const STATE_DEADLINE: u8 = 2;
const STATE_SHUTDOWN: u8 = 3;

fn encode(kind: CancelKind) -> u8 {
    match kind {
        CancelKind::User => STATE_USER,
        CancelKind::Deadline => STATE_DEADLINE,
        CancelKind::Shutdown => STATE_SHUTDOWN,
    }
}

fn decode(state: u8) -> Option<CancelKind> {
    match state {
        STATE_USER => Some(CancelKind::User),
        STATE_DEADLINE => Some(CancelKind::Deadline),
        STATE_SHUTDOWN => Some(CancelKind::Shutdown),
        _ => None,
    }
}

/// Process-unique flight ids (never reused, unlike addresses).
static NEXT_FLIGHT: AtomicU64 = AtomicU64::new(1);

/// Shared cancellation/deadline state for one query run.
#[derive(Debug)]
pub struct QueryControl {
    state: AtomicU8,
    started: Instant,
    deadline: Option<Instant>,
    /// Process-unique id for this query — the *flight* its scans share in
    /// the source-result cache's single-flight protocol.
    flight: u64,
    /// Cancel flags of blocking streams opened by this query; flipped on
    /// cancellation so sleeps inside link models end promptly.
    handles: Mutex<Vec<Arc<AtomicBool>>>,
    /// The query's execution trace. Created with the control so every
    /// layer the control already reaches (admission, scheduler, rule
    /// engine, operators, source cache) can emit without new plumbing.
    trace: Arc<QueryTrace>,
}

impl QueryControl {
    /// A control with no deadline (cancellable only).
    pub fn unbounded() -> Arc<Self> {
        Self::unbounded_traced(TraceLevel::default())
    }

    /// [`QueryControl::unbounded`] recording at an explicit trace level.
    pub fn unbounded_traced(level: TraceLevel) -> Arc<Self> {
        Arc::new(QueryControl {
            state: AtomicU8::new(STATE_LIVE),
            started: Instant::now(),
            deadline: None,
            flight: NEXT_FLIGHT.fetch_add(1, Ordering::Relaxed),
            handles: Mutex::new(Vec::new()),
            trace: QueryTrace::new(level),
        })
    }

    /// This query's flight id (see the source-result cache).
    pub fn flight_id(&self) -> u64 {
        self.flight
    }

    /// This query's execution trace.
    pub fn trace(&self) -> &Arc<QueryTrace> {
        &self.trace
    }

    /// A control whose query must finish within `budget` of *now*. The
    /// process-wide deadline enforcer cancels the control at the deadline
    /// even while the query's thread is blocked inside a source's link
    /// model — cancellation fires every registered stream cancel handle
    /// and interrupts the sleep. (Checks at batch boundaries trip the
    /// deadline too; the enforcer covers the blocked case.)
    pub fn with_deadline(budget: Duration) -> Arc<Self> {
        Self::with_deadline_traced(budget, TraceLevel::default())
    }

    /// [`QueryControl::with_deadline`] recording at an explicit trace
    /// level.
    pub fn with_deadline_traced(budget: Duration, level: TraceLevel) -> Arc<Self> {
        let now = Instant::now();
        let deadline = now + budget;
        let control = Arc::new(QueryControl {
            state: AtomicU8::new(STATE_LIVE),
            started: now,
            deadline: Some(deadline),
            flight: NEXT_FLIGHT.fetch_add(1, Ordering::Relaxed),
            handles: Mutex::new(Vec::new()),
            trace: QueryTrace::new(level),
        });
        enforcer::watch(deadline, Arc::downgrade(&control));
        control
    }

    /// When the control was created (query submission time).
    pub fn started(&self) -> Instant {
        self.started
    }

    /// The absolute deadline, if one was set.
    pub fn deadline(&self) -> Option<Instant> {
        self.deadline
    }

    /// Cancel the query. The first cancellation wins; later calls (and the
    /// deadline) cannot overwrite its kind. All registered stream handles
    /// are flipped so blocked pulls return promptly.
    pub fn cancel(&self, kind: CancelKind) {
        if self
            .state
            .compare_exchange(
                STATE_LIVE,
                encode(kind),
                Ordering::Relaxed,
                Ordering::Relaxed,
            )
            .is_ok()
        {
            self.fire_handles();
        }
    }

    /// Register a stream's cancel flag; flipped immediately if the control
    /// is already cancelled (a stream opened after the deadline tripped
    /// must not block). Push-then-check: a cancellation racing this call
    /// either sees the handle in the list (fired by `cancel`) or is seen
    /// by the post-push check — either way the flag flips.
    pub fn register_handle(&self, handle: Arc<AtomicBool>) {
        self.handles.lock().push(handle.clone());
        if self.cancelled().is_some() {
            handle.store(true, Ordering::Relaxed);
        }
    }

    fn fire_handles(&self) {
        for h in self.handles.lock().iter() {
            h.store(true, Ordering::Relaxed);
        }
    }

    /// Current cancellation state. Checking *trips* an elapsed deadline:
    /// the state flips to [`CancelKind::Deadline`] and the handles fire.
    pub fn cancelled(&self) -> Option<CancelKind> {
        if let Some(kind) = decode(self.state.load(Ordering::Relaxed)) {
            return Some(kind);
        }
        if let Some(d) = self.deadline {
            if Instant::now() >= d
                && self
                    .state
                    .compare_exchange(
                        STATE_LIVE,
                        STATE_DEADLINE,
                        Ordering::Relaxed,
                        Ordering::Relaxed,
                    )
                    .is_ok()
            {
                self.fire_handles();
            }
            return decode(self.state.load(Ordering::Relaxed));
        }
        None
    }

    /// [`QueryControl::cancelled`] as a `Result`, with the error the engine
    /// reports: `DeadlineExceeded` for a tripped deadline, `Cancelled` for
    /// an explicit cancellation.
    pub fn check(&self) -> Result<()> {
        match self.cancelled() {
            None => Ok(()),
            Some(CancelKind::Deadline) => Err(TukwilaError::DeadlineExceeded {
                elapsed_ms: self.started.elapsed().as_millis() as u64,
            }),
            Some(CancelKind::User) => Err(TukwilaError::Cancelled("cancelled by client".into())),
            Some(CancelKind::Shutdown) => {
                Err(TukwilaError::Cancelled("service shutting down".into()))
            }
        }
    }
}

/// The process-wide deadline enforcer: one lazily spawned thread holding a
/// min-heap of `(deadline, control)` entries. Scales to any number of
/// in-flight deadline-bearing queries without a thread each; a finished
/// query's entry expires harmlessly (the weak upgrade fails, or the cancel
/// no-ops because the first cancellation won).
mod enforcer {
    use super::{CancelKind, QueryControl};
    use parking_lot::{Condvar, Mutex};
    use std::cmp::Ordering as CmpOrdering;
    use std::collections::BinaryHeap;
    use std::sync::{OnceLock, Weak};
    use std::time::Instant;

    struct Entry {
        at: Instant,
        seq: u64,
        control: Weak<QueryControl>,
    }

    // Inverted ordering: BinaryHeap is a max-heap, we want earliest first.
    impl Ord for Entry {
        fn cmp(&self, other: &Self) -> CmpOrdering {
            other.at.cmp(&self.at).then(other.seq.cmp(&self.seq))
        }
    }
    impl PartialOrd for Entry {
        fn partial_cmp(&self, other: &Self) -> Option<CmpOrdering> {
            Some(self.cmp(other))
        }
    }
    impl PartialEq for Entry {
        fn eq(&self, other: &Self) -> bool {
            self.at == other.at && self.seq == other.seq
        }
    }
    impl Eq for Entry {}

    struct Enforcer {
        heap: Mutex<(BinaryHeap<Entry>, u64)>,
        cv: Condvar,
    }

    fn instance() -> &'static Enforcer {
        static INSTANCE: OnceLock<Enforcer> = OnceLock::new();
        INSTANCE.get_or_init(|| {
            std::thread::spawn(run);
            Enforcer {
                heap: Mutex::new((BinaryHeap::new(), 0)),
                cv: Condvar::new(),
            }
        })
    }

    /// Register `control` for cancellation at `at`.
    pub(super) fn watch(at: Instant, control: Weak<QueryControl>) {
        let e = instance();
        let mut guard = e.heap.lock();
        let seq = guard.1;
        guard.1 += 1;
        guard.0.push(Entry { at, seq, control });
        drop(guard);
        e.cv.notify_one();
    }

    fn run() {
        let e = instance();
        let mut guard = e.heap.lock();
        loop {
            let now = Instant::now();
            match guard.0.peek() {
                None => e.cv.wait(&mut guard),
                Some(entry) if entry.at <= now => {
                    let entry = guard.0.pop().unwrap();
                    drop(guard); // cancel outside the heap lock
                    if let Some(control) = entry.control.upgrade() {
                        control.cancel(CancelKind::Deadline);
                    }
                    guard = e.heap.lock();
                }
                Some(entry) => {
                    let wait = entry.at - now;
                    e.cv.wait_for(&mut guard, wait);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unbounded_never_trips() {
        let c = QueryControl::unbounded();
        assert_eq!(c.cancelled(), None);
        assert!(c.check().is_ok());
    }

    #[test]
    fn explicit_cancel_flips_registered_handles() {
        let c = QueryControl::unbounded();
        let h = Arc::new(AtomicBool::new(false));
        c.register_handle(h.clone());
        c.cancel(CancelKind::User);
        assert!(h.load(Ordering::Relaxed));
        assert_eq!(c.cancelled(), Some(CancelKind::User));
        assert_eq!(c.check().unwrap_err().kind(), "cancelled");
    }

    #[test]
    fn deadline_self_trips_and_fires_handles() {
        let c = QueryControl::with_deadline(Duration::from_millis(5));
        let h = Arc::new(AtomicBool::new(false));
        c.register_handle(h.clone());
        assert_eq!(c.cancelled(), None);
        std::thread::sleep(Duration::from_millis(10));
        assert_eq!(c.cancelled(), Some(CancelKind::Deadline));
        assert!(h.load(Ordering::Relaxed));
        assert_eq!(c.check().unwrap_err().kind(), "deadline_exceeded");
    }

    #[test]
    fn enforcer_fires_handles_without_any_check() {
        // No thread ever calls cancelled()/check(): the process-wide
        // enforcer alone must flip the handles (the blocked-worker case).
        let c = QueryControl::with_deadline(Duration::from_millis(20));
        let h = Arc::new(AtomicBool::new(false));
        c.register_handle(h.clone());
        let deadline = Instant::now() + Duration::from_secs(5);
        while !h.load(Ordering::Relaxed) {
            assert!(Instant::now() < deadline, "enforcer never fired");
            std::thread::sleep(Duration::from_millis(5));
        }
        // Several controls at once: each fires independently.
        let c2 = QueryControl::with_deadline(Duration::from_millis(10));
        let c3 = QueryControl::with_deadline(Duration::from_millis(30));
        std::thread::sleep(Duration::from_millis(120));
        assert_eq!(c2.cancelled(), Some(CancelKind::Deadline));
        assert_eq!(c3.cancelled(), Some(CancelKind::Deadline));
        drop(c);
    }

    #[test]
    fn first_cancellation_wins() {
        let c = QueryControl::with_deadline(Duration::from_millis(2));
        c.cancel(CancelKind::User);
        std::thread::sleep(Duration::from_millis(5));
        assert_eq!(c.cancelled(), Some(CancelKind::User));
    }

    #[test]
    fn late_registration_fires_immediately() {
        let c = QueryControl::unbounded();
        c.cancel(CancelKind::Shutdown);
        let h = Arc::new(AtomicBool::new(false));
        c.register_handle(h.clone());
        assert!(h.load(Ordering::Relaxed));
    }
}
