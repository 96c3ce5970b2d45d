//! # keybridge-relstore
//!
//! A small, self-contained, in-memory relational engine. It provides exactly
//! the substrate that schema-based database keyword search needs:
//!
//! * a typed catalog ([`Schema`]) with primary keys and foreign keys,
//! * row storage with primary-key and foreign-key hash indexes ([`Database`]),
//! * an undirected join graph over the schema ([`SchemaGraph`]),
//! * an executor for *join trees* — the relational-algebra shape of candidate
//!   networks / query interpretations — given per-node candidate row sets
//!   ([`execute_join_tree_with_stats_in`]), and
//! * a compact, versioned on-disk snapshot of schema + rows with
//!   length-prefixed, checksummed sections ([`Database::snapshot_bytes`]),
//!   plus the binary framing toolkit ([`snapshot`]) the index snapshot and
//!   the service's write-ahead log are built from.
//!
//! The engine is deliberately single-threaded and deterministic: the paper's
//! measurements are single-session latencies, and reproducibility matters more
//! than parallel throughput here.
//!
//! ```
//! use keybridge_relstore::{SchemaBuilder, TableKind, Database, Value};
//!
//! let mut b = SchemaBuilder::new();
//! b.table("actor", TableKind::Entity).pk("id").text_attr("name");
//! b.table("movie", TableKind::Entity).pk("id").text_attr("title");
//! b.table("acts", TableKind::Relation)
//!     .pk("id")
//!     .int_attr("actor_id")
//!     .int_attr("movie_id");
//! b.foreign_key("acts", "actor_id", "actor").unwrap();
//! b.foreign_key("acts", "movie_id", "movie").unwrap();
//! let schema = b.finish().unwrap();
//!
//! let mut db = Database::new(schema);
//! let actor = db.schema().table_id("actor").unwrap();
//! db.insert(actor, vec![Value::Int(1), Value::text("Tom Hanks")]).unwrap();
//! assert_eq!(db.table(actor).len(), 1);
//! ```

mod database;
mod error;
mod exec;
mod graph;
mod partition;
mod schema;
pub mod snapshot;
mod value;

pub use database::{Database, RowBatch, TableStore, MAX_TABLE_ROWS};
pub use error::{BatchError, RelError, RelResult};
pub use exec::{
    execute_join_tree_naive, execute_join_tree_with_stats_in, execute_reduced_in, plan_join_order,
    reduce_join_tree, BatchArena, Candidates, ExecOptions, ExecOutcome, ExecStats, JoinPlan,
    JoinTree, JoinTreeEdge, JoinedRow, ReducedTree,
};
pub use graph::{GraphEdge, SchemaGraph};
pub use partition::{
    assign_shards, fk_parents, hash_shard, split_database, ShardAssignment, ShardSplit,
};
pub use schema::{
    AttrId, AttrRef, AttributeDef, FkId, ForeignKey, Schema, SchemaBuilder, TableBuilder, TableDef,
    TableId, TableKind,
};
pub use snapshot::SnapshotError;
pub use value::{RowId, Value, ValueType};
