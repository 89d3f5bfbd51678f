//! The catalog proper: source descriptions, overlap matrix, selectivities.

use std::collections::{BTreeMap, HashMap};

use tukwila_common::{Result, Schema, TukwilaError};

use crate::stats::{AccessCost, TableStats};

/// Description of one registered data source.
#[derive(Debug, Clone, PartialEq)]
pub struct SourceDesc {
    /// Source name (matches the source registry).
    pub name: String,
    /// Mediated-schema relation this source serves (semantic description;
    /// this paper's scope is "a single query with disjunction at the
    /// leaves", so coverage is per-relation).
    pub mediated_relation: String,
    /// Schema of the data the source returns.
    pub schema: Schema,
    /// Believed statistics (may be absent or wrong).
    pub stats: TableStats,
    /// Believed access cost.
    pub cost: AccessCost,
}

impl SourceDesc {
    /// Convenience constructor.
    pub fn new(
        name: impl Into<String>,
        mediated_relation: impl Into<String>,
        schema: Schema,
    ) -> Self {
        SourceDesc {
            name: name.into(),
            mediated_relation: mediated_relation.into(),
            schema,
            stats: TableStats::unknown(),
            cost: AccessCost::default(),
        }
    }

    /// Attach stats.
    pub fn with_stats(mut self, stats: TableStats) -> Self {
        self.stats = stats;
        self
    }

    /// Attach an access cost.
    pub fn with_cost(mut self, cost: AccessCost) -> Self {
        self.cost = cost;
        self
    }
}

/// Pairwise overlap: `p_b_given_a` = probability a value in source A also
/// appears in source B (as in Florescu/Koller/Levy, cited in §2/§4.1).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OverlapInfo {
    /// P(value ∈ B | value ∈ A).
    pub p_b_given_a: f64,
    /// P(value ∈ A | value ∈ B).
    pub p_a_given_b: f64,
}

impl OverlapInfo {
    /// Symmetric overlap.
    pub fn symmetric(p: f64) -> Self {
        OverlapInfo {
            p_b_given_a: p,
            p_a_given_b: p,
        }
    }

    /// Whether the pair are full mirrors of each other.
    pub fn is_mirror(&self) -> bool {
        self.p_b_given_a >= 1.0 && self.p_a_given_b >= 1.0
    }
}

/// The data source catalog (§2).
#[derive(Debug, Clone, Default)]
pub struct Catalog {
    sources: BTreeMap<String, SourceDesc>,
    /// mediated relation → source names (insertion order preserved via sort
    /// on read for determinism).
    overlap: HashMap<(String, String), OverlapInfo>,
    /// Join selectivity estimates keyed by (qualified column, qualified
    /// column), order-normalized. These are *estimates* the experiments
    /// deliberately corrupt (§6.4: "it had to base its intermediate result
    /// cardinalities on estimates of join selectivities").
    selectivities: HashMap<(String, String), f64>,
    /// Cardinalities observed at runtime (fragment materializations, full
    /// source reads) — authoritative, overriding `stats`.
    observed: HashMap<String, usize>,
}

impl Catalog {
    /// Empty catalog.
    pub fn new() -> Self {
        Catalog::default()
    }

    /// Register (or replace) a source description.
    pub fn add_source(&mut self, desc: SourceDesc) {
        self.sources.insert(desc.name.clone(), desc);
    }

    /// Look up a source.
    pub fn source(&self, name: &str) -> Result<&SourceDesc> {
        self.sources
            .get(name)
            .ok_or_else(|| TukwilaError::Reformulation(format!("unknown source `{name}`")))
    }

    /// All sources serving a mediated relation, sorted by name (overlap
    /// policies then pick the order).
    pub fn sources_for(&self, mediated_relation: &str) -> Vec<&SourceDesc> {
        let mut v: Vec<&SourceDesc> = self
            .sources
            .values()
            .filter(|s| s.mediated_relation == mediated_relation)
            .collect();
        v.sort_by(|a, b| a.name.cmp(&b.name));
        v
    }

    /// Record pairwise overlap information.
    pub fn set_overlap(&mut self, a: &str, b: &str, info: OverlapInfo) {
        self.overlap.insert((a.to_string(), b.to_string()), info);
        // store the flipped view too so lookups are direction-free
        self.overlap.insert(
            (b.to_string(), a.to_string()),
            OverlapInfo {
                p_b_given_a: info.p_a_given_b,
                p_a_given_b: info.p_b_given_a,
            },
        );
    }

    /// Overlap between two sources, if recorded.
    pub fn overlap(&self, a: &str, b: &str) -> Option<OverlapInfo> {
        self.overlap.get(&(a.to_string(), b.to_string())).copied()
    }

    /// Whether two sources are mirrors.
    pub fn are_mirrors(&self, a: &str, b: &str) -> bool {
        self.overlap(a, b).map(|o| o.is_mirror()).unwrap_or(false)
    }

    /// Record a join selectivity estimate between two qualified columns
    /// (e.g. `"lineitem.l_orderkey"`, `"orders.o_orderkey"`).
    pub fn set_join_selectivity(&mut self, col_a: &str, col_b: &str, selectivity: f64) {
        let key = normalize(col_a, col_b);
        self.selectivities.insert(key, selectivity);
    }

    /// Join selectivity estimate for a column pair, if present.
    pub fn join_selectivity(&self, col_a: &str, col_b: &str) -> Option<f64> {
        self.selectivities.get(&normalize(col_a, col_b)).copied()
    }

    /// Record a cardinality observed at runtime (authoritative).
    pub fn record_observed_cardinality(&mut self, name: &str, cardinality: usize) {
        self.observed.insert(name.to_string(), cardinality);
    }

    /// Best-known cardinality: observed if available, else the catalog
    /// estimate.
    pub fn cardinality(&self, name: &str) -> Option<usize> {
        self.observed
            .get(name)
            .copied()
            .or_else(|| self.sources.get(name).and_then(|s| s.stats.cardinality))
    }

    /// Whether the cardinality comes from runtime observation.
    pub fn is_observed(&self, name: &str) -> bool {
        self.observed.contains_key(name)
    }
}

fn normalize(a: &str, b: &str) -> (String, String) {
    if a <= b {
        (a.to_string(), b.to_string())
    } else {
        (b.to_string(), a.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tukwila_common::DataType;

    fn schema() -> Schema {
        Schema::of("bib", &[("title", DataType::Str)])
    }

    fn catalog_with_two_mirrors() -> Catalog {
        let mut c = Catalog::new();
        c.add_source(
            SourceDesc::new("bib-eu", "bib", schema())
                .with_stats(TableStats::with_cardinality(1_000)),
        );
        c.add_source(SourceDesc::new("bib-us", "bib", schema()));
        c.set_overlap("bib-eu", "bib-us", OverlapInfo::symmetric(1.0));
        c
    }

    #[test]
    fn sources_for_relation_sorted() {
        let c = catalog_with_two_mirrors();
        let names: Vec<&str> = c
            .sources_for("bib")
            .iter()
            .map(|s| s.name.as_str())
            .collect();
        assert_eq!(names, vec!["bib-eu", "bib-us"]);
        assert!(c.sources_for("movies").is_empty());
    }

    #[test]
    fn mirror_detection() {
        let c = catalog_with_two_mirrors();
        assert!(c.are_mirrors("bib-eu", "bib-us"));
        assert!(c.are_mirrors("bib-us", "bib-eu")); // direction-free
        assert!(!c.are_mirrors("bib-eu", "nope"));
    }

    #[test]
    fn asymmetric_overlap_flips() {
        let mut c = Catalog::new();
        c.set_overlap(
            "a",
            "b",
            OverlapInfo {
                p_b_given_a: 0.9,
                p_a_given_b: 0.3,
            },
        );
        let flipped = c.overlap("b", "a").unwrap();
        assert_eq!(flipped.p_b_given_a, 0.3);
        assert_eq!(flipped.p_a_given_b, 0.9);
    }

    #[test]
    fn selectivity_is_order_insensitive() {
        let mut c = Catalog::new();
        c.set_join_selectivity("l.k", "o.k", 0.001);
        assert_eq!(c.join_selectivity("o.k", "l.k"), Some(0.001));
        assert_eq!(c.join_selectivity("o.k", "x.k"), None);
    }

    #[test]
    fn observed_cardinality_overrides_estimate() {
        let mut c = catalog_with_two_mirrors();
        assert_eq!(c.cardinality("bib-eu"), Some(1_000));
        assert!(!c.is_observed("bib-eu"));
        c.record_observed_cardinality("bib-eu", 2_345);
        assert_eq!(c.cardinality("bib-eu"), Some(2_345));
        assert!(c.is_observed("bib-eu"));
        // unknown stats stay unknown until observed
        assert_eq!(c.cardinality("bib-us"), None);
    }

    #[test]
    fn unknown_source_is_reformulation_error() {
        let c = Catalog::new();
        assert_eq!(c.source("ghost").unwrap_err().kind(), "reformulation");
    }
}
