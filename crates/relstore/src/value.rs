//! Scalar values and row identifiers.

use std::fmt;
use std::sync::Arc;

/// Index of a row within one table. Rows are append-only, so a `RowId` is
/// stable for the lifetime of the [`crate::Database`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RowId(pub u32);

impl RowId {
    /// The row index as a `usize`, for direct indexing into row storage.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// The type of an attribute (column).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ValueType {
    /// 64-bit integers; used for keys and numeric attributes (e.g. year).
    Int,
    /// UTF-8 text; the only type the inverted index covers.
    Text,
}

impl fmt::Display for ValueType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ValueType::Int => f.write_str("INT"),
            ValueType::Text => f.write_str("TEXT"),
        }
    }
}

/// A scalar cell value.
///
/// Text payloads are shared [`Arc<str>`] handles rather than owned `String`s:
/// the [`crate::Database`] interns every text cell into a per-database string
/// arena, so cloning a row — or the whole database, as the ingest path does
/// once per accepted batch — bumps reference counts instead of deep-copying
/// every string. Equality and hashing compare string *contents*, exactly as before.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Value {
    Int(i64),
    Text(Arc<str>),
    Null,
}

impl Value {
    /// Convenience constructor for text values.
    pub fn text(s: impl Into<Arc<str>>) -> Self {
        Value::Text(s.into())
    }

    /// Whether this value conforms to `ty` (`Null` conforms to every type).
    pub fn conforms_to(&self, ty: ValueType) -> bool {
        matches!(
            (self, ty),
            (Value::Int(_), ValueType::Int) | (Value::Text(_), ValueType::Text) | (Value::Null, _)
        )
    }

    /// The integer payload, if any.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// The text payload, if any.
    pub fn as_text(&self) -> Option<&str> {
        match self {
            Value::Text(s) => Some(&**s),
            _ => None,
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(i) => write!(f, "{i}"),
            Value::Text(s) => f.write_str(s),
            Value::Null => f.write_str("NULL"),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Text(Arc::from(v))
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Text(Arc::from(v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conformance() {
        assert!(Value::Int(3).conforms_to(ValueType::Int));
        assert!(!Value::Int(3).conforms_to(ValueType::Text));
        assert!(Value::text("x").conforms_to(ValueType::Text));
        assert!(!Value::text("x").conforms_to(ValueType::Int));
        assert!(Value::Null.conforms_to(ValueType::Int));
        assert!(Value::Null.conforms_to(ValueType::Text));
    }

    #[test]
    fn accessors() {
        assert_eq!(Value::Int(7).as_int(), Some(7));
        assert_eq!(Value::Int(7).as_text(), None);
        assert_eq!(Value::text("a").as_text(), Some("a"));
    }

    #[test]
    fn display() {
        assert_eq!(Value::Int(-4).to_string(), "-4");
        assert_eq!(Value::text("abc").to_string(), "abc");
        assert_eq!(Value::Null.to_string(), "NULL");
        assert_eq!(ValueType::Int.to_string(), "INT");
        assert_eq!(ValueType::Text.to_string(), "TEXT");
    }

    #[test]
    fn conversions() {
        assert_eq!(Value::from(5i64), Value::Int(5));
        assert_eq!(Value::from("s"), Value::text("s"));
        assert_eq!(Value::from(String::from("t")), Value::text("t"));
    }

    #[test]
    fn row_id_index() {
        assert_eq!(RowId(9).index(), 9);
    }

    #[test]
    fn text_clone_shares_allocation() {
        let v = Value::text("shared payload");
        let w = v.clone();
        let (Value::Text(a), Value::Text(b)) = (&v, &w) else {
            panic!("text values")
        };
        assert!(Arc::ptr_eq(a, b));
        assert_eq!(v.as_text(), Some("shared payload"));
    }
}
