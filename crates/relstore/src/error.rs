//! Error type shared by the relational engine.

use crate::schema::{AttrRef, TableId};
use std::fmt;

/// Result alias used across the crate.
pub type RelResult<T> = Result<T, RelError>;

/// Errors raised by schema construction, data loading, and execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RelError {
    /// A table name was declared twice.
    DuplicateTable(String),
    /// An attribute name was declared twice within one table.
    DuplicateAttribute { table: String, attr: String },
    /// A named table does not exist.
    UnknownTable(String),
    /// A named attribute does not exist on the given table.
    UnknownAttribute { table: String, attr: String },
    /// A table was declared without a primary key.
    MissingPrimaryKey(String),
    /// A foreign key references a non-integer column.
    NonIntegerKey { table: String, attr: String },
    /// Row arity does not match the table definition.
    ArityMismatch {
        table: TableId,
        expected: usize,
        got: usize,
    },
    /// A value does not conform to the declared attribute type.
    TypeMismatch { attr: AttrRef },
    /// The primary key of an inserted row is null or duplicated.
    BadPrimaryKey { table: TableId },
    /// A foreign key points at a missing parent row (reported by `validate`).
    BrokenForeignKey { table: TableId, row: u32 },
    /// A join tree handed to the executor is malformed.
    MalformedJoinTree(String),
    /// An execution of a well-formed join tree was abandoned because one
    /// step produced more partial bindings than `ExecOptions::max_intermediate`
    /// (`limit`) allows.
    IntermediateLimitExceeded { limit: usize },
    /// A row is not covered by a shard assignment (partitioning).
    UnassignedRow { table: String, key: i64 },
    /// The table is at its `u32` row-id capacity; inserting one more row
    /// would wrap ids and corrupt the store.
    TableFull { table: TableId },
}

impl fmt::Display for RelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RelError::DuplicateTable(name) => write!(f, "duplicate table `{name}`"),
            RelError::DuplicateAttribute { table, attr } => {
                write!(f, "duplicate attribute `{attr}` on table `{table}`")
            }
            RelError::UnknownTable(name) => write!(f, "unknown table `{name}`"),
            RelError::UnknownAttribute { table, attr } => {
                write!(f, "unknown attribute `{table}.{attr}`")
            }
            RelError::MissingPrimaryKey(name) => {
                write!(f, "table `{name}` has no primary key")
            }
            RelError::NonIntegerKey { table, attr } => {
                write!(f, "key column `{table}.{attr}` must be INT")
            }
            RelError::ArityMismatch {
                table,
                expected,
                got,
            } => write!(
                f,
                "row arity mismatch on table #{}: expected {expected}, got {got}",
                table.0
            ),
            RelError::TypeMismatch { attr } => {
                write!(
                    f,
                    "type mismatch for attribute {}.{}",
                    attr.table.0, attr.attr.0
                )
            }
            RelError::BadPrimaryKey { table } => {
                write!(f, "null or duplicate primary key on table #{}", table.0)
            }
            RelError::BrokenForeignKey { table, row } => {
                write!(f, "broken foreign key at table #{} row {row}", table.0)
            }
            RelError::MalformedJoinTree(msg) => write!(f, "malformed join tree: {msg}"),
            RelError::IntermediateLimitExceeded { limit } => {
                write!(f, "intermediate result exceeds max_intermediate ({limit})")
            }
            RelError::UnassignedRow { table, key } => {
                write!(f, "row `{table}`:{key} not covered by shard assignment")
            }
            RelError::TableFull { table } => {
                write!(f, "table #{} is at row-id capacity", table.0)
            }
        }
    }
}

impl std::error::Error for RelError {}

/// Why [`crate::Database::insert_batch`] rejected a batch. Unlike the
/// engine-internal [`RelError`] shape errors, every variant carries the
/// *table name* and the offending row's position within the batch, so an
/// ingest client can see exactly which row of its submission was bad —
/// and the durability layer can log a precise rejection without ever
/// touching storage.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BatchError {
    /// Row arity does not match the table definition.
    Arity {
        table: String,
        batch_row: usize,
        expected: usize,
        got: usize,
    },
    /// A value does not conform to the declared attribute type.
    Type {
        table: String,
        attr: String,
        batch_row: usize,
    },
    /// The row's primary key is null (or otherwise not an integer).
    NullPrimaryKey { table: String, batch_row: usize },
    /// The row's primary key collides with a stored row or an earlier row
    /// of the same batch.
    DuplicatePrimaryKey {
        table: String,
        key: i64,
        batch_row: usize,
    },
    /// A foreign-key value references a parent that exists neither in the
    /// database nor anywhere in the batch.
    DanglingForeignKey {
        table: String,
        attr: String,
        key: i64,
        batch_row: usize,
    },
    /// Applying the batch would push the table past its `u32` row-id
    /// capacity. Reported during validation, so nothing is inserted.
    TableFull { table: String, batch_row: usize },
}

impl fmt::Display for BatchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BatchError::Arity {
                table,
                batch_row,
                expected,
                got,
            } => write!(
                f,
                "batch row {batch_row}: arity mismatch on table `{table}`: \
                 expected {expected}, got {got}"
            ),
            BatchError::Type {
                table,
                attr,
                batch_row,
            } => write!(
                f,
                "batch row {batch_row}: type mismatch for `{table}.{attr}`"
            ),
            BatchError::NullPrimaryKey { table, batch_row } => write!(
                f,
                "batch row {batch_row}: null primary key on table `{table}`"
            ),
            BatchError::DuplicatePrimaryKey {
                table,
                key,
                batch_row,
            } => write!(
                f,
                "batch row {batch_row}: duplicate primary key {key} on table `{table}`"
            ),
            BatchError::DanglingForeignKey {
                table,
                attr,
                key,
                batch_row,
            } => write!(
                f,
                "batch row {batch_row}: foreign key `{table}.{attr}` = {key} \
                 references no parent row"
            ),
            BatchError::TableFull { table, batch_row } => write!(
                f,
                "batch row {batch_row}: table `{table}` is at row-id capacity"
            ),
        }
    }
}

impl std::error::Error for BatchError {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::AttrId;

    #[test]
    fn display_covers_variants() {
        let attr = AttrRef {
            table: TableId(1),
            attr: AttrId(2),
        };
        let samples: Vec<RelError> = vec![
            RelError::DuplicateTable("t".into()),
            RelError::DuplicateAttribute {
                table: "t".into(),
                attr: "a".into(),
            },
            RelError::UnknownTable("t".into()),
            RelError::UnknownAttribute {
                table: "t".into(),
                attr: "a".into(),
            },
            RelError::MissingPrimaryKey("t".into()),
            RelError::NonIntegerKey {
                table: "t".into(),
                attr: "a".into(),
            },
            RelError::ArityMismatch {
                table: TableId(0),
                expected: 3,
                got: 2,
            },
            RelError::TypeMismatch { attr },
            RelError::BadPrimaryKey { table: TableId(0) },
            RelError::BrokenForeignKey {
                table: TableId(0),
                row: 5,
            },
            RelError::MalformedJoinTree("cycle".into()),
            RelError::IntermediateLimitExceeded { limit: 7 },
            RelError::TableFull { table: TableId(0) },
        ];
        for e in samples {
            assert!(!e.to_string().is_empty());
        }
    }

    #[test]
    fn batch_error_display_carries_context() {
        let samples: Vec<(BatchError, &[&str])> = vec![
            (
                BatchError::Arity {
                    table: "acts".into(),
                    batch_row: 3,
                    expected: 4,
                    got: 2,
                },
                &["acts", "row 3", "expected 4", "got 2"],
            ),
            (
                BatchError::Type {
                    table: "movie".into(),
                    attr: "title".into(),
                    batch_row: 0,
                },
                &["movie.title", "row 0"],
            ),
            (
                BatchError::NullPrimaryKey {
                    table: "actor".into(),
                    batch_row: 1,
                },
                &["actor", "null primary key"],
            ),
            (
                BatchError::DuplicatePrimaryKey {
                    table: "actor".into(),
                    key: 7,
                    batch_row: 2,
                },
                &["duplicate primary key 7", "actor"],
            ),
            (
                BatchError::DanglingForeignKey {
                    table: "acts".into(),
                    attr: "actor_id".into(),
                    key: 99,
                    batch_row: 5,
                },
                &["acts.actor_id", "99", "no parent"],
            ),
            (
                BatchError::TableFull {
                    table: "acts".into(),
                    batch_row: 4,
                },
                &["acts", "row 4", "capacity"],
            ),
        ];
        for (e, needles) in samples {
            let text = e.to_string();
            for n in needles {
                assert!(text.contains(n), "`{text}` should contain `{n}`");
            }
        }
    }
}
