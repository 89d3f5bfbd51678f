//! The engine's local store: named materialized tables.
//!
//! Fragment execution ends by materializing its result (§3.1); subsequent
//! fragments read those results with ordinary table scans, and the optimizer
//! treats them as base relations with *known* cardinality — that knowledge
//! is exactly what triggers re-optimization when it contradicts the
//! estimate.

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::RwLock;

use tukwila_common::{Relation, Result, TukwilaError};

/// Thread-safe named table store (cheap to clone; clones share state).
#[derive(Debug, Clone, Default)]
pub struct LocalStore {
    tables: Arc<RwLock<HashMap<String, Arc<Relation>>>>,
}

impl LocalStore {
    /// Fresh, empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Materialize `rel` under `name`, replacing any previous table of that
    /// name (re-optimization may re-run a fragment after rescheduling).
    pub fn put(&self, name: impl Into<String>, rel: Relation) -> Arc<Relation> {
        let rel = Arc::new(rel);
        self.tables.write().insert(name.into(), rel.clone());
        rel
    }

    /// Fetch a table by name.
    pub fn get(&self, name: &str) -> Result<Arc<Relation>> {
        self.tables.read().get(name).cloned().ok_or_else(|| {
            TukwilaError::Plan(format!("local store: no materialized table `{name}`"))
        })
    }

    /// Whether a table exists.
    pub fn contains(&self, name: &str) -> bool {
        self.tables.read().contains_key(name)
    }

    /// Cardinality of a stored table, if present — the statistic shipped
    /// back to the optimizer at fragment completion (§3.2).
    pub fn cardinality(&self, name: &str) -> Option<usize> {
        self.tables.read().get(name).map(|r| r.len())
    }

    /// Remove a table (fragment results are dropped once consumed if the
    /// plan says so).
    pub fn remove(&self, name: &str) -> Option<Arc<Relation>> {
        self.tables.write().remove(name)
    }

    /// Names of all stored tables (sorted, for determinism).
    pub fn names(&self) -> Vec<String> {
        let mut v: Vec<String> = self.tables.read().keys().cloned().collect();
        v.sort();
        v
    }

    /// Total bytes held.
    pub fn total_bytes(&self) -> usize {
        self.tables.read().values().map(|r| r.mem_size()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tukwila_common::{tuple, DataType, Schema};

    fn rel(n: i64) -> Relation {
        let schema = Schema::of("t", &[("a", DataType::Int)]);
        Relation::new(schema, (0..n).map(|i| tuple![i]).collect()).unwrap()
    }

    #[test]
    fn put_get_round_trip() {
        let store = LocalStore::new();
        store.put("frag1", rel(3));
        assert_eq!(store.get("frag1").unwrap().len(), 3);
        assert!(store.contains("frag1"));
        assert_eq!(store.cardinality("frag1"), Some(3));
    }

    #[test]
    fn missing_table_is_plan_error() {
        let store = LocalStore::new();
        assert_eq!(store.get("nope").unwrap_err().kind(), "plan");
        assert_eq!(store.cardinality("nope"), None);
    }

    #[test]
    fn replace_on_rerun() {
        let store = LocalStore::new();
        store.put("frag1", rel(3));
        store.put("frag1", rel(5));
        assert_eq!(store.get("frag1").unwrap().len(), 5);
    }

    #[test]
    fn clones_share_state() {
        let a = LocalStore::new();
        let b = a.clone();
        a.put("x", rel(1));
        assert!(b.contains("x"));
        b.remove("x");
        assert!(!a.contains("x"));
    }

    #[test]
    fn names_sorted() {
        let store = LocalStore::new();
        store.put("b", rel(1));
        store.put("a", rel(1));
        assert_eq!(store.names(), vec!["a".to_string(), "b".to_string()]);
        assert!(store.total_bytes() > 0);
    }
}
