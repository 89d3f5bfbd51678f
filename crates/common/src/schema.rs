//! Relation schemas.
//!
//! A [`Schema`] names and types the columns of a stream of tuples. Columns
//! carry an optional *qualifier* (the relation they came from) because joins
//! concatenate schemas and downstream operators resolve columns like
//! `lineitem.orderkey` against the concatenation — the same resolution a
//! mediated-schema query goes through after reformulation (§2 of the paper).

use std::fmt;
use std::sync::Arc;

use crate::error::{Result, TukwilaError};
use crate::value::DataType;

/// A single column: `qualifier.name : data_type`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Field {
    /// Originating relation (e.g. `"lineitem"`); empty for computed columns.
    pub qualifier: String,
    /// Column name (e.g. `"orderkey"`).
    pub name: String,
    /// Column type.
    pub data_type: DataType,
}

impl Field {
    /// Build a qualified field.
    pub fn new(qualifier: impl Into<String>, name: impl Into<String>, data_type: DataType) -> Self {
        Field {
            qualifier: qualifier.into(),
            name: name.into(),
            data_type,
        }
    }

    /// Build an unqualified field.
    pub fn unqualified(name: impl Into<String>, data_type: DataType) -> Self {
        Field::new("", name, data_type)
    }

    /// Fully qualified display name.
    pub fn qualified_name(&self) -> String {
        if self.qualifier.is_empty() {
            self.name.clone()
        } else {
            format!("{}.{}", self.qualifier, self.name)
        }
    }

    /// Whether `pattern` (either `name` or `qualifier.name`) refers to this
    /// field.
    pub fn matches(&self, pattern: &str) -> bool {
        match pattern.split_once('.') {
            Some((q, n)) => self.qualifier == q && self.name == n,
            None => self.name == pattern,
        }
    }
}

impl fmt::Display for Field {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.qualified_name(), self.data_type)
    }
}

/// An ordered list of [`Field`]s describing a tuple stream. Cheap to clone
/// (shared buffer).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schema {
    fields: Arc<Vec<Field>>,
}

impl Schema {
    /// Build a schema from fields.
    pub fn new(fields: Vec<Field>) -> Self {
        Schema {
            fields: Arc::new(fields),
        }
    }

    /// The empty schema.
    pub fn empty() -> Self {
        Schema::new(Vec::new())
    }

    /// Convenience constructor: `Schema::of("rel", &[("a", Int), ("b", Str)])`.
    pub fn of(qualifier: &str, cols: &[(&str, DataType)]) -> Self {
        Schema::new(
            cols.iter()
                .map(|(n, t)| Field::new(qualifier, *n, *t))
                .collect(),
        )
    }

    /// Number of columns.
    pub fn arity(&self) -> usize {
        self.fields.len()
    }

    /// Whether the schema has no columns.
    pub fn is_empty(&self) -> bool {
        self.fields.is_empty()
    }

    /// All fields.
    pub fn fields(&self) -> &[Field] {
        &self.fields
    }

    /// Field at position `idx`.
    pub fn field(&self, idx: usize) -> &Field {
        &self.fields[idx]
    }

    /// Resolve a column reference (`name` or `qualifier.name`) to its index.
    ///
    /// Errors if the reference is ambiguous (matches more than one column)
    /// or unknown — both are planner bugs that should surface loudly.
    pub fn index_of(&self, pattern: &str) -> Result<usize> {
        let mut found: Option<usize> = None;
        for (i, f) in self.fields.iter().enumerate() {
            if f.matches(pattern) {
                if found.is_some() {
                    return Err(TukwilaError::Schema(format!(
                        "ambiguous column reference `{pattern}`"
                    )));
                }
                found = Some(i);
            }
        }
        found.ok_or_else(|| {
            TukwilaError::Schema(format!(
                "unknown column `{pattern}` (have: {})",
                self.fields
                    .iter()
                    .map(Field::qualified_name)
                    .collect::<Vec<_>>()
                    .join(", ")
            ))
        })
    }

    /// Concatenate two schemas (join output schema).
    pub fn concat(&self, other: &Schema) -> Schema {
        let mut fields = Vec::with_capacity(self.arity() + other.arity());
        fields.extend_from_slice(&self.fields);
        fields.extend_from_slice(&other.fields);
        Schema::new(fields)
    }

    /// Project onto the given column indices.
    pub fn project(&self, indices: &[usize]) -> Schema {
        Schema::new(indices.iter().map(|&i| self.fields[i].clone()).collect())
    }

    /// Re-qualify every field (used when materializing a fragment result
    /// under a fresh temp-table name).
    pub fn requalify(&self, qualifier: &str) -> Schema {
        Schema::new(
            self.fields
                .iter()
                .map(|f| Field::new(qualifier, f.name.clone(), f.data_type))
                .collect(),
        )
    }

    /// Column indices shared by name with `other` (for natural-join style
    /// key inference in the reformulator).
    pub fn common_columns(&self, other: &Schema) -> Vec<(usize, usize)> {
        let mut out = Vec::new();
        for (i, f) in self.fields.iter().enumerate() {
            for (j, g) in other.fields.iter().enumerate() {
                if f.name == g.name {
                    out.push((i, j));
                }
            }
        }
        out
    }
}

impl fmt::Display for Schema {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("[")?;
        for (i, field) in self.fields.iter().enumerate() {
            if i > 0 {
                f.write_str(", ")?;
            }
            write!(f, "{field}")?;
        }
        f.write_str("]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn abc() -> Schema {
        Schema::of(
            "r",
            &[
                ("a", DataType::Int),
                ("b", DataType::Str),
                ("c", DataType::Double),
            ],
        )
    }

    #[test]
    fn resolve_unqualified() {
        let s = abc();
        assert_eq!(s.index_of("b").unwrap(), 1);
    }

    #[test]
    fn resolve_qualified() {
        let s = abc();
        assert_eq!(s.index_of("r.c").unwrap(), 2);
        assert!(s.index_of("x.c").is_err());
    }

    #[test]
    fn unknown_column_is_error() {
        let err = abc().index_of("zz").unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("zz"), "message should name the column: {msg}");
    }

    #[test]
    fn ambiguity_detected_after_concat() {
        let s = abc().concat(&Schema::of("s", &[("a", DataType::Int)]));
        assert!(s.index_of("a").is_err());
        assert_eq!(s.index_of("r.a").unwrap(), 0);
        assert_eq!(s.index_of("s.a").unwrap(), 3);
    }

    #[test]
    fn concat_arity() {
        let s = abc().concat(&abc());
        assert_eq!(s.arity(), 6);
    }

    #[test]
    fn project_keeps_field_metadata() {
        let s = abc().project(&[2, 0]);
        assert_eq!(s.arity(), 2);
        assert_eq!(s.field(0).name, "c");
        assert_eq!(s.field(1).name, "a");
    }

    #[test]
    fn requalify_renames_all() {
        let s = abc().requalify("tmp1");
        assert!(s.fields().iter().all(|f| f.qualifier == "tmp1"));
        assert_eq!(s.index_of("tmp1.b").unwrap(), 1);
    }

    #[test]
    fn common_columns_by_name() {
        let r = Schema::of("r", &[("k", DataType::Int), ("x", DataType::Int)]);
        let s = Schema::of("s", &[("y", DataType::Int), ("k", DataType::Int)]);
        assert_eq!(r.common_columns(&s), vec![(0, 1)]);
    }

    #[test]
    fn display_is_readable() {
        let s = Schema::of("r", &[("a", DataType::Int)]);
        assert_eq!(s.to_string(), "[r.a:INT]");
    }
}
