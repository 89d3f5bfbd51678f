//! Registry of live data sources.
//!
//! The execution engine's wrapper-scan operators look sources up by name;
//! experiment setups register simulated sources (with their link models)
//! here. Mirrors are simply two registered sources serving the same
//! relation under different names with different link models.

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::RwLock;

use tukwila_common::{Result, TukwilaError};

use crate::cache::SourceResultCache;
use crate::source::SimulatedSource;
use crate::wrapper::Wrapper;

/// Thread-safe name → wrapper registry (cheap to clone; clones share state).
///
/// The registry is also where the engine finds the optional shared
/// [`SourceResultCache`]: installing one makes every wrapper scan over
/// these sources fetch through it.
#[derive(Clone, Default)]
pub struct SourceRegistry {
    sources: Arc<RwLock<HashMap<String, Wrapper>>>,
    cache: Arc<RwLock<Option<SourceResultCache>>>,
}

impl SourceRegistry {
    /// Empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a source, replacing any existing one of the same name.
    pub fn register(&self, source: SimulatedSource) -> Wrapper {
        let w = Wrapper::new(source);
        self.sources
            .write()
            .insert(w.source_name().to_string(), w.clone());
        w
    }

    /// Look up a wrapper by source name.
    pub fn wrapper(&self, name: &str) -> Result<Wrapper> {
        self.sources
            .read()
            .get(name)
            .cloned()
            .ok_or_else(|| TukwilaError::SourceUnavailable {
                source: name.to_string(),
                reason: "not registered".to_string(),
            })
    }

    /// Whether a source is registered.
    pub fn contains(&self, name: &str) -> bool {
        self.sources.read().contains_key(name)
    }

    /// Registered source names (sorted).
    pub fn names(&self) -> Vec<String> {
        let mut v: Vec<String> = self.sources.read().keys().cloned().collect();
        v.sort();
        v
    }

    /// Install a shared source-result cache; subsequent wrapper scans
    /// fetch through it. All registry clones see the cache.
    pub fn set_cache(&self, cache: SourceResultCache) {
        *self.cache.write() = Some(cache);
    }

    /// Remove the cache only if it is `cache` itself — owners (e.g. a
    /// dropping `QueryService`) use this so they cannot clobber a cache a
    /// different owner installed on this shared registry afterwards.
    pub fn uninstall_cache(&self, cache: &SourceResultCache) {
        let mut slot = self.cache.write();
        if slot.as_ref().is_some_and(|c| c.same_instance(cache)) {
            *slot = None;
        }
    }

    /// The installed cache, if any.
    pub fn cache(&self) -> Option<SourceResultCache> {
        self.cache.read().clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::LinkModel;
    use crate::tests::drain;
    use tukwila_common::{tuple, DataType, Relation, Schema};

    fn rel() -> Relation {
        let schema = Schema::of("s", &[("a", DataType::Int)]);
        Relation::new(schema, vec![tuple![1]]).unwrap()
    }

    #[test]
    fn register_and_fetch() {
        let reg = SourceRegistry::new();
        reg.register(SimulatedSource::new("bib1", rel(), LinkModel::instant()));
        let w = reg.wrapper("bib1").unwrap();
        let mut s = w.fetch();
        assert_eq!(drain(|max| s.next_batch_event(max)).unwrap().len(), 1);
        assert!(reg.contains("bib1"));
        assert_eq!(reg.names(), vec!["bib1".to_string()]);
    }

    #[test]
    fn missing_source_is_unavailable_error() {
        let reg = SourceRegistry::new();
        let err = reg.wrapper("ghost").unwrap_err();
        assert_eq!(err.kind(), "source_unavailable");
    }

    #[test]
    fn clones_share_registrations() {
        let a = SourceRegistry::new();
        let b = a.clone();
        a.register(SimulatedSource::new("s", rel(), LinkModel::instant()));
        assert!(b.contains("s"));
    }
}
