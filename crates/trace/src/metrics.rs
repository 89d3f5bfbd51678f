//! Per-operator counters sampled at batch boundaries.
//!
//! An operator's harness registers one [`OpMetrics`] handle per plan
//! operator (partition instances of an exchange share the handle, so a
//! partitioned join's counters aggregate across its instances) and bumps
//! plain relaxed atomics — no locks on the batch path. Everything here is
//! only touched at `TraceLevel::Metrics`.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

/// Registry of the per-operator metric handles one query created.
pub struct MetricsRegistry {
    ops: Mutex<Vec<Arc<OpMetrics>>>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry {
            ops: Mutex::new(Vec::new()),
        }
    }

    /// The metrics handle for plan operator `op`, creating it on first
    /// call. Re-registration (a fragment retry, a partition instance)
    /// returns the existing handle so counts aggregate per plan operator.
    pub fn register(&self, op: u32, name: &str) -> Arc<OpMetrics> {
        let mut ops = self.ops.lock();
        if let Some(existing) = ops.iter().find(|m| m.op == op) {
            return existing.clone();
        }
        let m = Arc::new(OpMetrics {
            op,
            name: name.to_string(),
            rows_in: AtomicU64::new(0),
            rows_out: AtomicU64::new(0),
            batches_in: AtomicU64::new(0),
            batches_out: AtomicU64::new(0),
            build_ns: AtomicU64::new(0),
            probe_ns: AtomicU64::new(0),
            queue_stall_ns: AtomicU64::new(0),
        });
        ops.push(m.clone());
        m
    }

    /// Snapshot every registered operator, in operator-id order.
    pub fn snapshot(&self) -> Vec<OpMetricsSnapshot> {
        let mut out: Vec<OpMetricsSnapshot> =
            self.ops.lock().iter().map(|m| m.snapshot()).collect();
        out.sort_by_key(|m| m.op);
        out
    }
}

impl Default for MetricsRegistry {
    fn default() -> Self {
        Self::new()
    }
}

/// Counters for one plan operator. All methods are relaxed atomic adds.
pub struct OpMetrics {
    op: u32,
    name: String,
    rows_in: AtomicU64,
    rows_out: AtomicU64,
    batches_in: AtomicU64,
    batches_out: AtomicU64,
    build_ns: AtomicU64,
    probe_ns: AtomicU64,
    queue_stall_ns: AtomicU64,
}

impl OpMetrics {
    /// Record one input batch of `rows` tuples.
    pub fn add_input(&self, rows: u64) {
        self.rows_in.fetch_add(rows, Ordering::Relaxed);
        self.batches_in.fetch_add(1, Ordering::Relaxed);
    }

    /// Record one output batch of `rows` tuples.
    pub fn add_output(&self, rows: u64) {
        self.rows_out.fetch_add(rows, Ordering::Relaxed);
        self.batches_out.fetch_add(1, Ordering::Relaxed);
    }

    /// Add time spent building (inserting into hash tables).
    pub fn add_build_ns(&self, ns: u64) {
        self.build_ns.fetch_add(ns, Ordering::Relaxed);
    }

    /// Add time spent probing.
    pub fn add_probe_ns(&self, ns: u64) {
        self.probe_ns.fetch_add(ns, Ordering::Relaxed);
    }

    /// Add time this operator spent waiting on its feeders' queues.
    pub fn add_queue_stall_ns(&self, ns: u64) {
        self.queue_stall_ns.fetch_add(ns, Ordering::Relaxed);
    }

    /// Point-in-time copy.
    pub fn snapshot(&self) -> OpMetricsSnapshot {
        OpMetricsSnapshot {
            op: self.op,
            name: self.name.clone(),
            rows_in: self.rows_in.load(Ordering::Relaxed),
            rows_out: self.rows_out.load(Ordering::Relaxed),
            batches_in: self.batches_in.load(Ordering::Relaxed),
            batches_out: self.batches_out.load(Ordering::Relaxed),
            build_ns: self.build_ns.load(Ordering::Relaxed),
            probe_ns: self.probe_ns.load(Ordering::Relaxed),
            queue_stall_ns: self.queue_stall_ns.load(Ordering::Relaxed),
        }
    }
}

/// Point-in-time copy of one operator's counters.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct OpMetricsSnapshot {
    /// Plan operator id.
    pub op: u32,
    /// Operator display name (e.g. `dpj`, `wrapper-scan(A)`).
    pub name: String,
    /// Tuples consumed.
    pub rows_in: u64,
    /// Tuples produced.
    pub rows_out: u64,
    /// Input batches.
    pub batches_in: u64,
    /// Output batches.
    pub batches_out: u64,
    /// Nanoseconds spent building.
    pub build_ns: u64,
    /// Nanoseconds spent probing.
    pub probe_ns: u64,
    /// Nanoseconds spent waiting on feeder queues (the consumer's wait).
    pub queue_stall_ns: u64,
}

impl OpMetricsSnapshot {
    /// Output rows per input row, when any input was seen.
    pub fn selectivity(&self) -> Option<f64> {
        if self.rows_in == 0 {
            None
        } else {
            Some(self.rows_out as f64 / self.rows_in as f64)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_dedups_by_op_id() {
        let reg = MetricsRegistry::new();
        let a = reg.register(3, "dpj");
        let b = reg.register(3, "dpj");
        assert!(Arc::ptr_eq(&a, &b));
        a.add_input(10);
        b.add_input(5);
        b.add_output(6);
        let snap = reg.snapshot();
        assert_eq!(snap.len(), 1);
        assert_eq!(snap[0].rows_in, 15);
        assert_eq!(snap[0].batches_in, 2);
        assert_eq!(snap[0].rows_out, 6);
        assert_eq!(snap[0].selectivity(), Some(0.4));
    }

    #[test]
    fn snapshot_sorted_by_op() {
        let reg = MetricsRegistry::new();
        reg.register(7, "b");
        reg.register(2, "a");
        let snap = reg.snapshot();
        assert_eq!(snap[0].op, 2);
        assert_eq!(snap[1].op, 7);
    }

    #[test]
    fn selectivity_none_without_input() {
        let reg = MetricsRegistry::new();
        let m = reg.register(1, "scan");
        m.add_output(100);
        assert_eq!(m.snapshot().selectivity(), None);
    }
}
