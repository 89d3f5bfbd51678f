//! The query reformulator (§2).
//!
//! Converts a user's query over the mediated schema into a source-level
//! query: each mediated relation becomes a **leaf with alternatives** — the
//! list of registered sources serving it, annotated with mirror/overlap
//! information from the catalog. A leaf with one alternative lowers to a
//! wrapper scan; a leaf with several lowers to a dynamic collector whose
//! policy the optimizer generates from the overlap data (§4.1).

use tukwila_catalog::Catalog;
use tukwila_common::{Result, TukwilaError};

use crate::ast::{ConjunctiveQuery, MediatedSchema};

/// The disjunction of sources serving one mediated relation.
#[derive(Debug, Clone, PartialEq)]
pub struct LeafAlternatives {
    /// The mediated relation this leaf instantiates.
    pub mediated_relation: String,
    /// Source names, in catalog order (the optimizer reorders by policy).
    pub sources: Vec<String>,
    /// Whether all the sources are pairwise mirrors (collector may stop
    /// after the first one that delivers everything).
    pub all_mirrors: bool,
}

impl LeafAlternatives {
    /// Whether the leaf needs a collector (more than one source).
    pub fn is_disjunctive(&self) -> bool {
        self.sources.len() > 1
    }
}

/// A reformulated query: the original conjunctive structure with each
/// relation bound to its source alternatives.
#[derive(Debug, Clone)]
pub struct ReformulatedQuery {
    /// The original user query.
    pub query: ConjunctiveQuery,
    /// One entry per relation in `query.relations`, same order.
    pub leaves: Vec<LeafAlternatives>,
}

impl ReformulatedQuery {
    /// The leaf for a given mediated relation.
    pub fn leaf(&self, relation: &str) -> Option<&LeafAlternatives> {
        self.leaves.iter().find(|l| l.mediated_relation == relation)
    }

    /// Total number of sources mentioned.
    pub fn source_count(&self) -> usize {
        self.leaves.iter().map(|l| l.sources.len()).sum()
    }
}

/// The reformulation engine: mediated schema + catalog.
#[derive(Debug, Clone)]
pub struct Reformulator {
    schema: MediatedSchema,
}

impl Reformulator {
    /// Build a reformulator for a mediated schema.
    pub fn new(schema: MediatedSchema) -> Self {
        Reformulator { schema }
    }

    /// The mediated schema.
    pub fn schema(&self) -> &MediatedSchema {
        &self.schema
    }

    /// Reformulate `query` against `catalog`. Fails if the query is
    /// malformed or a relation has no covering source.
    pub fn reformulate(
        &self,
        query: &ConjunctiveQuery,
        catalog: &Catalog,
    ) -> Result<ReformulatedQuery> {
        query.validate(&self.schema)?;
        let mut leaves = Vec::with_capacity(query.relations.len());
        for rel in &query.relations {
            let descs = catalog.sources_for(rel);
            if descs.is_empty() {
                return Err(TukwilaError::Reformulation(format!(
                    "no data source covers mediated relation `{rel}`"
                )));
            }
            let sources: Vec<String> = descs.iter().map(|d| d.name.clone()).collect();
            let all_mirrors = sources.len() > 1
                && sources.iter().enumerate().all(|(i, a)| {
                    sources
                        .iter()
                        .skip(i + 1)
                        .all(|b| catalog.are_mirrors(a, b))
                });
            leaves.push(LeafAlternatives {
                mediated_relation: rel.clone(),
                sources,
                all_mirrors,
            });
        }
        Ok(ReformulatedQuery {
            query: query.clone(),
            leaves,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tukwila_catalog::{OverlapInfo, SourceDesc};
    use tukwila_common::{DataType, Schema};

    fn setup() -> (Reformulator, Catalog) {
        let mut m = MediatedSchema::new();
        let book = Schema::of("book", &[("isbn", DataType::Str)]);
        let review = Schema::of("review", &[("isbn", DataType::Str)]);
        m.add_relation("book", book.clone());
        m.add_relation("review", review.clone());

        let mut c = Catalog::new();
        c.add_source(SourceDesc::new("books-eu", "book", book.clone()));
        c.add_source(SourceDesc::new("books-us", "book", book));
        c.add_source(SourceDesc::new("reviews-1", "review", review));
        c.set_overlap("books-eu", "books-us", OverlapInfo::symmetric(1.0));
        (Reformulator::new(m), c)
    }

    #[test]
    fn reformulates_to_leaf_alternatives() {
        let (r, c) = setup();
        let q = ConjunctiveQuery::new("q", vec!["book".into(), "review".into()])
            .join("book.isbn", "review.isbn");
        let rq = r.reformulate(&q, &c).unwrap();
        assert_eq!(rq.leaves.len(), 2);
        let book = rq.leaf("book").unwrap();
        assert_eq!(book.sources, vec!["books-eu", "books-us"]);
        assert!(book.is_disjunctive());
        assert!(book.all_mirrors);
        let review = rq.leaf("review").unwrap();
        assert!(!review.is_disjunctive());
        assert_eq!(rq.source_count(), 3);
    }

    #[test]
    fn uncovered_relation_is_error() {
        let (_r, c) = setup();
        let mut m2 = MediatedSchema::new();
        m2.add_relation("movie", Schema::of("movie", &[("id", DataType::Int)]));
        let r2 = Reformulator::new(m2);
        let q = ConjunctiveQuery::new("q", vec!["movie".into()]);
        let err = r2.reformulate(&q, &c).unwrap_err();
        assert!(err.to_string().contains("movie"));
    }

    #[test]
    fn partial_overlap_is_not_mirror() {
        let (r, mut c) = setup();
        c.set_overlap("books-eu", "books-us", OverlapInfo::symmetric(0.6));
        let q = ConjunctiveQuery::new("q", vec!["book".into()]);
        let rq = r.reformulate(&q, &c).unwrap();
        assert!(!rq.leaf("book").unwrap().all_mirrors);
    }

    #[test]
    fn invalid_query_rejected_before_source_lookup() {
        let (r, c) = setup();
        let q = ConjunctiveQuery::new("q", vec!["book".into(), "review".into()]);
        // no join predicates → cross product → reformulation error
        assert!(r.reformulate(&q, &c).is_err());
    }
}
