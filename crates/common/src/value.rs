//! Scalar values and data types.
//!
//! Tukwila integrates data from heterogeneous sources, so the value model is
//! deliberately small and self-describing: 64-bit integers, doubles, UTF-8
//! strings, dates (days since the common epoch, as TPC-D stores them), and
//! SQL `NULL`. Values hash and compare so they can key the hash join's
//! tables and be sorted.

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// The type of a column in a [`crate::Schema`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataType {
    /// 64-bit signed integer (keys, counts, quantities).
    Int,
    /// 64-bit IEEE float (prices, discounts). Compared via total order.
    Double,
    /// UTF-8 string (names, comments, flags).
    Str,
    /// Days since 1970-01-01 (TPC-D date columns).
    Date,
    /// The type of `NULL` when no better type is known.
    Null,
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DataType::Int => "INT",
            DataType::Double => "DOUBLE",
            DataType::Str => "STR",
            DataType::Date => "DATE",
            DataType::Null => "NULL",
        };
        f.write_str(s)
    }
}

/// A scalar value flowing through the engine.
///
/// Strings are reference-counted so that cloning a tuple (which join
/// operators do constantly) never copies string payloads.
#[derive(Debug, Clone)]
pub enum Value {
    /// 64-bit signed integer.
    Int(i64),
    /// 64-bit float; ordered and hashed by total-order bits.
    Double(f64),
    /// Shared immutable UTF-8 string.
    Str(Arc<str>),
    /// Days since the epoch.
    Date(i32),
    /// SQL NULL. Never equal to anything under SQL semantics; *is* equal to
    /// itself under `Eq` so values can key hash tables (grouping semantics).
    Null,
}

/// Bytes charged per value before string payloads (enum discriminant +
/// payload words) — shared with the batch assembler's fused copy/accounting
/// loop.
pub(crate) const VALUE_BASE_BYTES: usize = std::mem::size_of::<Value>();

impl Value {
    /// Build a string value.
    pub fn str(s: impl AsRef<str>) -> Self {
        Value::Str(Arc::from(s.as_ref()))
    }

    /// The [`DataType`] of this value.
    pub fn data_type(&self) -> DataType {
        match self {
            Value::Int(_) => DataType::Int,
            Value::Double(_) => DataType::Double,
            Value::Str(_) => DataType::Str,
            Value::Date(_) => DataType::Date,
            Value::Null => DataType::Null,
        }
    }

    /// Whether this is SQL `NULL`.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Approximate resident memory footprint in bytes, used by the memory
    /// manager to charge operators (Figure 4 experiments depend on this
    /// being stable and deterministic).
    pub fn mem_size(&self) -> usize {
        match self {
            Value::Str(s) => VALUE_BASE_BYTES + s.len(),
            _ => VALUE_BASE_BYTES,
        }
    }

    /// Integer payload, if this is an [`Value::Int`].
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// String payload, if this is a [`Value::Str`].
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Date payload, if this is a [`Value::Date`].
    pub fn as_date(&self) -> Option<i32> {
        match self {
            Value::Date(d) => Some(*d),
            _ => None,
        }
    }

    /// SQL three-valued-logic equality: `NULL = x` is unknown (`None`).
    pub fn sql_eq(&self, other: &Value) -> Option<bool> {
        if self.is_null() || other.is_null() {
            None
        } else {
            Some(self == other)
        }
    }

    /// SQL comparison: `None` when either side is NULL or the types are
    /// incomparable.
    pub fn sql_cmp(&self, other: &Value) -> Option<Ordering> {
        use Value::*;
        match (self, other) {
            (Null, _) | (_, Null) => None,
            (Int(a), Int(b)) => Some(a.cmp(b)),
            (Double(a), Double(b)) => Some(a.total_cmp(b)),
            (Int(a), Double(b)) => Some((*a as f64).total_cmp(b)),
            (Double(a), Int(b)) => Some(a.total_cmp(&(*b as f64))),
            (Str(a), Str(b)) => Some(a.cmp(b)),
            (Date(a), Date(b)) => Some(a.cmp(b)),
            _ => None,
        }
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        use Value::*;
        match (self, other) {
            (Int(a), Int(b)) => a == b,
            (Double(a), Double(b)) => a.to_bits() == b.to_bits(),
            (Str(a), Str(b)) => a == b,
            (Date(a), Date(b)) => a == b,
            (Null, Null) => true,
            // Cross-type numeric equality is intentionally *not* structural
            // equality; use `sql_eq` for query semantics.
            _ => false,
        }
    }
}

impl Eq for Value {}

impl Hash for Value {
    fn hash<H: Hasher>(&self, state: &mut H) {
        match self {
            Value::Int(i) => {
                0u8.hash(state);
                i.hash(state);
            }
            Value::Double(d) => {
                1u8.hash(state);
                d.to_bits().hash(state);
            }
            Value::Str(s) => {
                2u8.hash(state);
                s.hash(state);
            }
            Value::Date(d) => {
                3u8.hash(state);
                d.hash(state);
            }
            Value::Null => 4u8.hash(state),
        }
    }
}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Value {
    /// Total order for sorting and deterministic test assertions: NULLs
    /// sort first, then by type tag, then payload.
    fn cmp(&self, other: &Self) -> Ordering {
        use Value::*;
        fn tag(v: &Value) -> u8 {
            match v {
                Null => 0,
                Int(_) => 1,
                Double(_) => 1, // numerics compare cross-type
                Date(_) => 2,
                Str(_) => 3,
            }
        }
        match (self, other) {
            (Int(a), Int(b)) => a.cmp(b),
            (Double(a), Double(b)) => a.total_cmp(b),
            (Int(a), Double(b)) => (*a as f64).total_cmp(b),
            (Double(a), Int(b)) => a.total_cmp(&(*b as f64)),
            (Str(a), Str(b)) => a.cmp(b),
            (Date(a), Date(b)) => a.cmp(b),
            (a, b) => tag(a).cmp(&tag(b)),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(i) => write!(f, "{i}"),
            Value::Double(d) => write!(f, "{d}"),
            Value::Str(s) => write!(f, "{s}"),
            Value::Date(d) => write!(f, "@{d}"),
            Value::Null => f.write_str("NULL"),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

impl From<i32> for Value {
    fn from(v: i32) -> Self {
        Value::Int(v as i64)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Double(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::str(v)
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(Arc::from(v.as_str()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;

    fn hash_of(v: &Value) -> u64 {
        let mut h = DefaultHasher::new();
        v.hash(&mut h);
        h.finish()
    }

    #[test]
    fn type_tags() {
        assert_eq!(Value::Int(1).data_type(), DataType::Int);
        assert_eq!(Value::Double(1.0).data_type(), DataType::Double);
        assert_eq!(Value::str("x").data_type(), DataType::Str);
        assert_eq!(Value::Date(10).data_type(), DataType::Date);
        assert_eq!(Value::Null.data_type(), DataType::Null);
    }

    #[test]
    fn eq_and_hash_agree_for_ints() {
        let a = Value::Int(42);
        let b = Value::Int(42);
        assert_eq!(a, b);
        assert_eq!(hash_of(&a), hash_of(&b));
    }

    #[test]
    fn eq_and_hash_agree_for_strings() {
        let a = Value::str("seattle");
        let b = Value::str("seattle");
        assert_eq!(a, b);
        assert_eq!(hash_of(&a), hash_of(&b));
        assert_ne!(a, Value::str("tukwila"));
    }

    #[test]
    fn doubles_hash_by_bits() {
        let a = Value::Double(1.5);
        let b = Value::Double(1.5);
        assert_eq!(a, b);
        assert_eq!(hash_of(&a), hash_of(&b));
        // -0.0 and 0.0 differ bitwise; structural equality distinguishes them.
        assert_ne!(Value::Double(0.0), Value::Double(-0.0));
    }

    #[test]
    fn null_semantics() {
        assert!(Value::Null.is_null());
        // structural: NULL == NULL (for grouping)
        assert_eq!(Value::Null, Value::Null);
        // SQL: NULL = NULL is unknown
        assert_eq!(Value::Null.sql_eq(&Value::Null), None);
        assert_eq!(Value::Int(1).sql_eq(&Value::Null), None);
        assert_eq!(Value::Int(1).sql_eq(&Value::Int(1)), Some(true));
        assert_eq!(Value::Int(1).sql_eq(&Value::Int(2)), Some(false));
    }

    #[test]
    fn sql_cmp_cross_numeric() {
        assert_eq!(
            Value::Int(2).sql_cmp(&Value::Double(2.5)),
            Some(Ordering::Less)
        );
        assert_eq!(
            Value::Double(3.0).sql_cmp(&Value::Int(2)),
            Some(Ordering::Greater)
        );
        assert_eq!(Value::Int(2).sql_cmp(&Value::Null), None);
        assert_eq!(Value::Int(2).sql_cmp(&Value::str("2")), None);
    }

    #[test]
    fn total_order_sorts_nulls_first() {
        let mut vs = [Value::Int(3), Value::Null, Value::Int(1)];
        vs.sort();
        assert_eq!(vs[0], Value::Null);
        assert_eq!(vs[1], Value::Int(1));
    }

    #[test]
    fn mem_size_counts_string_payload() {
        let short = Value::str("ab");
        let long = Value::str("abcdefghijklmnop");
        assert!(long.mem_size() > short.mem_size());
        assert_eq!(
            long.mem_size() - short.mem_size(),
            "abcdefghijklmnop".len() - "ab".len()
        );
    }

    #[test]
    fn display_round_trips_reasonably() {
        assert_eq!(Value::Int(7).to_string(), "7");
        assert_eq!(Value::str("x").to_string(), "x");
        assert_eq!(Value::Null.to_string(), "NULL");
        assert_eq!(Value::Date(5).to_string(), "@5");
    }

    #[test]
    fn conversions() {
        assert_eq!(Value::from(5i64), Value::Int(5));
        assert_eq!(Value::from(5i32), Value::Int(5));
        assert_eq!(Value::from("hi"), Value::str("hi"));
        assert_eq!(Value::from(2.5f64), Value::Double(2.5));
    }
}
