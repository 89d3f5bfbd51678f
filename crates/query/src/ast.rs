//! Query AST: mediated schemas and conjunctive queries.

use std::collections::BTreeMap;

use tukwila_common::{Result, Schema, TukwilaError};
use tukwila_plan::Predicate;

/// The mediated (virtual) schema users query against (§2).
#[derive(Debug, Clone, Default)]
pub struct MediatedSchema {
    relations: BTreeMap<String, Schema>,
}

impl MediatedSchema {
    /// Empty schema.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a mediated relation.
    pub fn add_relation(&mut self, name: impl Into<String>, schema: Schema) {
        self.relations.insert(name.into(), schema);
    }

    /// Look up a relation's schema.
    pub fn relation(&self, name: &str) -> Result<&Schema> {
        self.relations.get(name).ok_or_else(|| {
            TukwilaError::Reformulation(format!("unknown mediated relation `{name}`"))
        })
    }

    /// Whether a relation exists.
    pub fn contains(&self, name: &str) -> bool {
        self.relations.contains_key(name)
    }
}

/// An equi-join predicate between two (qualified) mediated columns.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JoinPredicate {
    /// Left column, qualified (`relation.column`).
    pub left: String,
    /// Right column, qualified.
    pub right: String,
}

impl JoinPredicate {
    /// Build a join predicate.
    pub fn new(left: impl Into<String>, right: impl Into<String>) -> Self {
        JoinPredicate {
            left: left.into(),
            right: right.into(),
        }
    }

    /// The relation qualifier of the left column.
    pub fn left_relation(&self) -> &str {
        self.left.split('.').next().unwrap_or("")
    }

    /// The relation qualifier of the right column.
    pub fn right_relation(&self) -> &str {
        self.right.split('.').next().unwrap_or("")
    }
}

/// A conjunctive (select-project-join) query over the mediated schema.
#[derive(Debug, Clone)]
pub struct ConjunctiveQuery {
    /// Query name (diagnostics, bench labels).
    pub name: String,
    /// Mediated relations joined (the FROM list).
    pub relations: Vec<String>,
    /// Equi-join predicates.
    pub joins: Vec<JoinPredicate>,
    /// Additional selection predicates (over qualified mediated columns).
    pub filters: Vec<Predicate>,
    /// Output columns; `None` = select *.
    pub projection: Option<Vec<String>>,
}

impl ConjunctiveQuery {
    /// Build a `select *` query.
    pub fn new(name: impl Into<String>, relations: Vec<String>) -> Self {
        ConjunctiveQuery {
            name: name.into(),
            relations,
            joins: Vec::new(),
            filters: Vec::new(),
            projection: None,
        }
    }

    /// Add an equi-join predicate.
    pub fn join(mut self, left: &str, right: &str) -> Self {
        self.joins.push(JoinPredicate::new(left, right));
        self
    }

    /// Add a selection predicate.
    pub fn filter(mut self, p: Predicate) -> Self {
        self.filters.push(p);
        self
    }

    /// Set the projection.
    pub fn project(mut self, cols: Vec<String>) -> Self {
        self.projection = Some(cols);
        self
    }

    /// Check the query is well-formed against a mediated schema: relations
    /// exist, join columns resolve, the join graph is connected (no
    /// unintended cross products).
    pub fn validate(&self, schema: &MediatedSchema) -> Result<()> {
        if self.relations.is_empty() {
            return Err(TukwilaError::Reformulation(format!(
                "query `{}` has no relations",
                self.name
            )));
        }
        for r in &self.relations {
            schema.relation(r)?;
        }
        for j in &self.joins {
            for (col, rel) in [(&j.left, j.left_relation()), (&j.right, j.right_relation())] {
                if !self.relations.iter().any(|r| r == rel) {
                    return Err(TukwilaError::Reformulation(format!(
                        "join column `{col}` references relation `{rel}` not in query `{}`",
                        self.name
                    )));
                }
                let rel_schema = schema.relation(rel)?;
                let bare = col.split('.').nth(1).unwrap_or(col);
                rel_schema.index_of(bare).map_err(|_| {
                    TukwilaError::Reformulation(format!(
                        "join column `{col}` not found in relation `{rel}`"
                    ))
                })?;
            }
        }
        if !self.is_join_connected() {
            return Err(TukwilaError::Reformulation(format!(
                "query `{}` has a disconnected join graph (cross product)",
                self.name
            )));
        }
        Ok(())
    }

    /// Whether the join predicates connect all relations.
    pub fn is_join_connected(&self) -> bool {
        if self.relations.len() <= 1 {
            return true;
        }
        let mut reached = vec![false; self.relations.len()];
        reached[0] = true;
        let idx = |name: &str| self.relations.iter().position(|r| r == name);
        let mut changed = true;
        while changed {
            changed = false;
            for j in &self.joins {
                if let (Some(a), Some(b)) = (idx(j.left_relation()), idx(j.right_relation())) {
                    if reached[a] != reached[b] {
                        reached[a] = true;
                        reached[b] = true;
                        changed = true;
                    }
                }
            }
        }
        reached.iter().all(|&r| r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tukwila_common::DataType;

    fn mediated() -> MediatedSchema {
        let mut m = MediatedSchema::new();
        m.add_relation(
            "book",
            Schema::of("book", &[("isbn", DataType::Str), ("title", DataType::Str)]),
        );
        m.add_relation(
            "review",
            Schema::of(
                "review",
                &[("isbn", DataType::Str), ("score", DataType::Int)],
            ),
        );
        m
    }

    #[test]
    fn valid_query_passes() {
        let q = ConjunctiveQuery::new("q", vec!["book".into(), "review".into()])
            .join("book.isbn", "review.isbn");
        assert!(q.validate(&mediated()).is_ok());
    }

    #[test]
    fn unknown_relation_rejected() {
        let q = ConjunctiveQuery::new("q", vec!["movie".into()]);
        assert_eq!(q.validate(&mediated()).unwrap_err().kind(), "reformulation");
    }

    #[test]
    fn unknown_join_column_rejected() {
        let q = ConjunctiveQuery::new("q", vec!["book".into(), "review".into()])
            .join("book.nope", "review.isbn");
        assert!(q.validate(&mediated()).is_err());
    }

    #[test]
    fn join_column_on_foreign_relation_rejected() {
        let q = ConjunctiveQuery::new("q", vec!["book".into()]).join("book.isbn", "review.isbn");
        assert!(q.validate(&mediated()).is_err());
    }

    #[test]
    fn cross_product_rejected() {
        let q = ConjunctiveQuery::new("q", vec!["book".into(), "review".into()]);
        let err = q.validate(&mediated()).unwrap_err();
        assert!(err.to_string().contains("disconnected"));
    }

    #[test]
    fn single_relation_is_connected() {
        let q = ConjunctiveQuery::new("q", vec!["book".into()]);
        assert!(q.validate(&mediated()).is_ok());
    }

    #[test]
    fn join_predicate_relation_extraction() {
        let j = JoinPredicate::new("a.x", "b.y");
        assert_eq!(j.left_relation(), "a");
        assert_eq!(j.right_relation(), "b");
    }
}
