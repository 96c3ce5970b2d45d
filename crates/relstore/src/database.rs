//! Row storage with primary-key and foreign-key hash indexes.

use crate::error::{BatchError, RelError, RelResult};
use crate::schema::{AttrRef, FkId, Schema, TableId};
use crate::value::{RowId, Value};
use std::collections::HashMap;
use std::sync::Arc;

/// Hard per-table row capacity: `RowId` is a `u32` and its last value is
/// reserved (the foreign-key parent column's "no parent" mark), so a table
/// can hold at most `u32::MAX` rows.
pub const MAX_TABLE_ROWS: usize = u32::MAX as usize;

/// The parent column's mark for "null foreign key, or parent not loaded
/// yet". Never a row id: see [`MAX_TABLE_ROWS`].
pub(crate) const NO_PARENT: u32 = u32::MAX;

/// Per-database string dictionary. Every text cell is canonicalized to one
/// shared [`Arc<str>`] per distinct string, identified by a dense `u32`
/// symbol id. Duplicated values (names, titles, roles — the bulk of any
/// fixture's text) are stored once, and cloning rows or the whole database
/// only bumps reference counts.
#[derive(Debug, Clone, Default)]
struct StringArena {
    syms: Vec<Arc<str>>,
    ids: HashMap<Arc<str>, u32>,
}

impl StringArena {
    /// Canonicalize `s`: returns the arena's shared handle for its contents,
    /// registering it under the next symbol id on first sight.
    fn intern(&mut self, s: Arc<str>) -> Arc<str> {
        if let Some(&id) = self.ids.get(&*s) {
            return self.syms[id as usize].clone();
        }
        let id = u32::try_from(self.syms.len()).expect("string arena exhausted u32 symbol space");
        self.syms.push(s.clone());
        self.ids.insert(s.clone(), id);
        s
    }

    #[cfg(test)]
    fn lookup(&self, s: &str) -> Option<u32> {
        self.ids.get(s).copied()
    }
}

/// One batch of rows to insert, in application order. The unit of the live
/// ingestion path: [`Database::insert_batch`] validates the whole batch —
/// including foreign keys that resolve to *other rows of the same batch* —
/// before touching storage, so a rejected batch leaves the database
/// untouched.
pub type RowBatch = Vec<(TableId, Vec<Value>)>;

/// Storage for one table: a row-major `Vec` of rows plus a primary-key index.
#[derive(Debug, Clone, Default)]
pub struct TableStore {
    rows: Vec<Vec<Value>>,
    pk_index: HashMap<i64, RowId>,
}

impl TableStore {
    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table holds no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The row at `id`. Panics if out of bounds (row ids come from this
    /// database, so an out-of-bounds id is a logic error).
    pub fn row(&self, id: RowId) -> &[Value] {
        &self.rows[id.index()]
    }

    /// Iterate over `(RowId, &row)`.
    pub fn rows(&self) -> impl Iterator<Item = (RowId, &[Value])> {
        self.rows
            .iter()
            .enumerate()
            .map(|(i, r)| (RowId(i as u32), r.as_slice()))
    }

    /// Find a row by primary-key value.
    pub fn by_pk(&self, key: i64) -> Option<RowId> {
        self.pk_index.get(&key).copied()
    }
}

/// An in-memory database: a [`Schema`] plus per-table storage and, for every
/// foreign key, a hash index from referenced key value to referencing rows.
#[derive(Debug, Clone)]
pub struct Database {
    schema: Schema,
    tables: Vec<TableStore>,
    /// `fk_index[fk][key]` = rows of the *referencing* table whose fk column
    /// holds `key`. This supports joins in the pk -> fk direction.
    fk_index: Vec<HashMap<i64, Vec<RowId>>>,
    /// `fk_parent[fk][child row]` = row id of the referenced parent, or
    /// [`NO_PARENT`]: the pk -> row resolution of every fk cell, done once
    /// at insert, so joins along a foreign key run on dense row ids instead
    /// of key lookups. Derived from the rows and never serialized.
    fk_parent: Vec<Vec<u32>>,
    /// Per table: the `(fk index, column, referenced table)` triples of
    /// foreign keys that originate in that table. Precomputed so inserts
    /// stay allocation-free.
    table_fk_cols: Vec<Vec<(usize, usize, usize)>>,
    /// Per table: the indexes of the foreign keys that reference it.
    table_fk_in: Vec<Vec<usize>>,
    /// Interned text values shared by every row.
    arena: StringArena,
    /// Per-table row capacity. Always [`MAX_TABLE_ROWS`] in production;
    /// tests lower it to exercise the `TableFull` boundary.
    max_rows: usize,
}

impl Database {
    /// Create an empty database over `schema`.
    pub fn new(schema: Schema) -> Self {
        let tables = vec![TableStore::default(); schema.table_count()];
        let fk_index = vec![HashMap::new(); schema.fk_count()];
        let fk_parent = vec![Vec::new(); schema.fk_count()];
        let mut table_fk_cols = vec![Vec::new(); schema.table_count()];
        let mut table_fk_in = vec![Vec::new(); schema.table_count()];
        for (id, fk) in schema.fks() {
            let to = fk.to.table.0 as usize;
            table_fk_cols[fk.from.table.0 as usize].push((
                id.0 as usize,
                fk.from.attr.0 as usize,
                to,
            ));
            table_fk_in[to].push(id.0 as usize);
        }
        Database {
            schema,
            tables,
            fk_index,
            fk_parent,
            table_fk_cols,
            table_fk_in,
            arena: StringArena::default(),
            max_rows: MAX_TABLE_ROWS,
        }
    }

    /// The catalog.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Storage for table `id`.
    pub fn table(&self, id: TableId) -> &TableStore {
        &self.tables[id.0 as usize]
    }

    /// Total number of rows across all tables.
    pub fn total_rows(&self) -> usize {
        self.tables.iter().map(TableStore::len).sum()
    }

    /// The value of one cell.
    pub fn cell(&self, table: TableId, row: RowId, attr: AttrRef) -> &Value {
        debug_assert_eq!(table, attr.table);
        &self.tables[table.0 as usize].row(row)[attr.attr.0 as usize]
    }

    /// Primary-key value of a row.
    pub fn pk_value(&self, table: TableId, row: RowId) -> i64 {
        let pk = self.schema.table(table).pk;
        self.tables[table.0 as usize].row(row)[pk.0 as usize]
            .as_int()
            .expect("primary keys are validated at insert")
    }

    /// Rows of the referencing table whose foreign-key column equals `key`.
    pub fn fk_referrers(&self, fk: FkId, key: i64) -> &[RowId] {
        self.fk_index[fk.0 as usize]
            .get(&key)
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// The parent row that `child`'s cell of foreign key `fk` references:
    /// `by_pk` of that cell on the referenced table, resolved at insert.
    /// `None` for a null cell and for a parent that is not loaded (yet).
    pub fn fk_parent_row(&self, fk: FkId, child: RowId) -> Option<RowId> {
        let parent = self.fk_parent[fk.0 as usize][child.index()];
        (parent != NO_PARENT).then_some(RowId(parent))
    }

    /// The whole parent column of `fk`, one entry per row of the
    /// referencing table, [`NO_PARENT`] where [`Self::fk_parent_row`] says
    /// `None`. For loops that cannot afford an `Option` per row.
    pub(crate) fn fk_parent_col(&self, fk: FkId) -> &[u32] {
        &self.fk_parent[fk.0 as usize]
    }

    /// Insert a row. Checks arity, types, primary-key integrity, and table
    /// capacity (a `RowId` is a `u32`; a table at capacity reports
    /// [`RelError::TableFull`] instead of silently wrapping ids), interns
    /// every text cell into the database's string arena, and maintains the
    /// pk and fk hash indexes and the parent columns — the only place any
    /// of them is written. Returns the new row's id.
    pub fn insert(&mut self, table: TableId, mut row: Vec<Value>) -> RelResult<RowId> {
        let pk_val = self.schema.check_shape(table, &row)?;
        let store = &self.tables[table.0 as usize];
        let len = store.rows.len();
        if len >= self.max_rows {
            return Err(RelError::TableFull { table });
        }
        let id = RowId(len as u32);
        if store.pk_index.contains_key(&pk_val) {
            return Err(RelError::BadPrimaryKey { table });
        }
        // Checks passed: canonicalize text cells through the arena (rejected
        // rows never touch it) and commit to the indexes and row storage.
        for v in &mut row {
            if let Value::Text(s) = v {
                *s = self.arena.intern(s.clone());
            }
        }
        self.tables[table.0 as usize].pk_index.insert(pk_val, id);

        // Every fk whose referencing side is `table`: index the cell and
        // resolve it to its parent's row (which may be this very row).
        for &(fk_idx, col, to) in &self.table_fk_cols[table.0 as usize] {
            let parent = row[col].as_int().and_then(|key| {
                self.fk_index[fk_idx].entry(key).or_default().push(id);
                self.tables[to].by_pk(key)
            });
            self.fk_parent[fk_idx].push(parent.map_or(NO_PARENT, |p| p.0));
        }
        // Every fk that references `table`: loaders insert in arbitrary
        // order, so children of this row may already be stored.
        for &fk_idx in &self.table_fk_in[table.0 as usize] {
            if let Some(children) = self.fk_index[fk_idx].get(&pk_val) {
                for child in children {
                    self.fk_parent[fk_idx][child.index()] = id.0;
                }
            }
        }

        self.tables[table.0 as usize].rows.push(row);
        Ok(id)
    }

    /// Whether [`Self::insert_batch`] would accept `batch`, without touching
    /// the database: [`Schema::validate_batch`] with this database's pk
    /// indexes and table lengths as the store. O(batch).
    pub fn validate_batch(&self, batch: &RowBatch) -> Result<(), BatchError> {
        let exists = |table: TableId, pk| self.table(table).by_pk(pk).is_some();
        self.schema
            .validate_batch(batch, self.max_rows, exists, |t| self.table(t).len())
            .map(drop)
    }

    /// Insert a batch of rows atomically: the whole batch is validated —
    /// arity, types, primary-key uniqueness (against the database *and*
    /// within the batch), table capacity, and referential integrity, where a
    /// foreign key may resolve to a parent anywhere in the same batch —
    /// before any row is stored. On error nothing is inserted and the
    /// returned [`BatchError`] names the table and batch row that failed; on
    /// success the returned ids are in batch order.
    pub fn insert_batch(&mut self, batch: &RowBatch) -> Result<Vec<RowId>, BatchError> {
        self.validate_batch(batch)?;
        // `insert` cannot fail on a validated batch; index maintenance
        // happens per row.
        Ok(batch
            .iter()
            .map(|(table, row)| {
                self.insert(*table, row.clone())
                    .expect("batch validated before apply")
            })
            .collect())
    }

    /// Check referential integrity of every foreign key (non-null fk values
    /// must have a parent row). Inserts do not enforce this — loaders insert
    /// in arbitrary order — so call this once after loading. A walk of the
    /// parent columns: a cell is broken when it is non-null and unresolved.
    pub fn validate(&self) -> RelResult<()> {
        for (id, fk) in self.schema.fks() {
            let child = &self.tables[fk.from.table.0 as usize];
            for (rid, row) in child.rows() {
                let unresolved = self.fk_parent_row(id, rid).is_none();
                if unresolved && row[fk.from.attr.0 as usize].as_int().is_some() {
                    return Err(RelError::BrokenForeignKey {
                        table: fk.from.table,
                        row: rid.0,
                    });
                }
            }
        }
        Ok(())
    }

    /// Number of distinct interned strings in the arena.
    #[cfg(test)]
    pub(crate) fn symbol_count(&self) -> usize {
        self.arena.syms.len()
    }

    /// The dense `u32` symbol id the arena assigned to `s`, if `s` occurs in
    /// any stored text cell. Ids reflect first-insertion order of this
    /// database instance and are *not* serialized — snapshots derive their
    /// own canonical dictionary from row order.
    #[cfg(test)]
    pub(crate) fn symbol_id(&self, s: &str) -> Option<u32> {
        self.arena.lookup(s)
    }

    /// Total bytes of distinct interned string payloads.
    #[cfg(test)]
    pub(crate) fn symbol_bytes(&self) -> u64 {
        self.arena.syms.iter().map(|s| s.len() as u64).sum()
    }

    /// Deterministic approximation of row-storage heap bytes. Counts logical
    /// content — per-row and per-cell struct sizes, one copy of each interned
    /// string, pk/fk index entries, parent-column entries — not allocator
    /// capacities, so the result is a pure function of database content
    /// (identical across machines and runs) and can be regression-gated like
    /// any other counter.
    pub fn approx_heap_bytes(&self) -> u64 {
        // Struct-size constants for the accounting model (64-bit targets):
        // a row's `Vec<Value>` header, the `Value` enum (discriminant + the
        // 16-byte `Arc<str>` fat pointer), a pk-index entry, an fk posting,
        // a parent-column entry per fk cell, and an `Arc` strong/weak
        // refcount header per interned string.
        const ROW_VEC: u64 = 24;
        const CELL: u64 = 24;
        const PK_ENTRY: u64 = 16;
        const FK_ENTRY: u64 = 12;
        const FK_PARENT: u64 = 4;
        const ARC_HEADER: u64 = 16;
        let mut bytes = 0u64;
        for t in &self.tables {
            bytes += t.rows.len() as u64 * (ROW_VEC + PK_ENTRY);
            for r in &t.rows {
                bytes += r.len() as u64 * CELL;
            }
        }
        for s in &self.arena.syms {
            bytes += s.len() as u64 + ARC_HEADER;
        }
        for idx in &self.fk_index {
            for rows in idx.values() {
                bytes += rows.len() as u64 * FK_ENTRY;
            }
        }
        for col in &self.fk_parent {
            bytes += col.len() as u64 * FK_PARENT;
        }
        bytes
    }

    /// Lower the per-table row capacity. Testing seam for the
    /// [`RelError::TableFull`] boundary — the real `u32::MAX + 1` limit is
    /// not reachable in a test.
    #[cfg(test)]
    pub(crate) fn set_max_rows_for_test(&mut self, n: usize) {
        self.max_rows = n;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{SchemaBuilder, TableKind};

    fn db() -> Database {
        let mut b = SchemaBuilder::new();
        b.table("actor", TableKind::Entity)
            .pk("id")
            .text_attr("name");
        b.table("movie", TableKind::Entity)
            .pk("id")
            .text_attr("title")
            .int_attr("year");
        b.table("acts", TableKind::Relation)
            .pk("id")
            .int_attr("actor_id")
            .int_attr("movie_id");
        b.foreign_key("acts", "actor_id", "actor").unwrap();
        b.foreign_key("acts", "movie_id", "movie").unwrap();
        Database::new(b.finish().unwrap())
    }

    #[test]
    fn insert_and_lookup() {
        let mut db = db();
        let actor = db.schema().table_id("actor").unwrap();
        let r = db
            .insert(actor, vec![Value::Int(7), Value::text("Tom Hanks")])
            .unwrap();
        assert_eq!(db.table(actor).len(), 1);
        assert_eq!(db.table(actor).by_pk(7), Some(r));
        assert_eq!(db.pk_value(actor, r), 7);
        assert_eq!(db.total_rows(), 1);
    }

    #[test]
    fn arity_checked() {
        let mut db = db();
        let actor = db.schema().table_id("actor").unwrap();
        let err = db.insert(actor, vec![Value::Int(1)]).unwrap_err();
        assert!(matches!(err, RelError::ArityMismatch { .. }));
    }

    #[test]
    fn types_checked() {
        let mut db = db();
        let actor = db.schema().table_id("actor").unwrap();
        let err = db
            .insert(actor, vec![Value::text("oops"), Value::text("x")])
            .unwrap_err();
        assert!(matches!(err, RelError::TypeMismatch { .. }));
    }

    #[test]
    fn duplicate_pk_rejected() {
        let mut db = db();
        let actor = db.schema().table_id("actor").unwrap();
        db.insert(actor, vec![Value::Int(1), Value::text("a")])
            .unwrap();
        let err = db
            .insert(actor, vec![Value::Int(1), Value::text("b")])
            .unwrap_err();
        assert!(matches!(err, RelError::BadPrimaryKey { .. }));
        assert_eq!(db.table(actor).len(), 1);
    }

    #[test]
    fn null_pk_rejected() {
        let mut db = db();
        let actor = db.schema().table_id("actor").unwrap();
        let err = db
            .insert(actor, vec![Value::Null, Value::text("a")])
            .unwrap_err();
        assert!(matches!(err, RelError::BadPrimaryKey { .. }));
    }

    #[test]
    fn fk_index_maintained() {
        let mut db = db();
        let s = db.schema().clone();
        let actor = s.table_id("actor").unwrap();
        let movie = s.table_id("movie").unwrap();
        let acts = s.table_id("acts").unwrap();
        db.insert(actor, vec![Value::Int(1), Value::text("Hanks")])
            .unwrap();
        db.insert(
            movie,
            vec![Value::Int(10), Value::text("Terminal"), Value::Int(2004)],
        )
        .unwrap();
        let a1 = db
            .insert(acts, vec![Value::Int(100), Value::Int(1), Value::Int(10)])
            .unwrap();
        let a2 = db
            .insert(acts, vec![Value::Int(101), Value::Int(1), Value::Int(10)])
            .unwrap();

        let (fk_actor, _) = s
            .fks()
            .find(|(_, fk)| fk.to.table == actor)
            .expect("fk to actor exists");
        assert_eq!(db.fk_referrers(fk_actor, 1), &[a1, a2]);
        assert!(db.fk_referrers(fk_actor, 99).is_empty());
        db.validate().unwrap();
    }

    #[test]
    fn validate_detects_orphans() {
        let mut db = db();
        let acts = db.schema().table_id("acts").unwrap();
        db.insert(acts, vec![Value::Int(1), Value::Int(5), Value::Int(6)])
            .unwrap();
        assert!(matches!(
            db.validate().unwrap_err(),
            RelError::BrokenForeignKey { .. }
        ));
    }

    #[test]
    fn null_fk_is_legal() {
        let mut db = db();
        let acts = db.schema().table_id("acts").unwrap();
        db.insert(acts, vec![Value::Int(1), Value::Null, Value::Null])
            .unwrap();
        db.validate().unwrap();
    }

    #[test]
    fn insert_batch_is_atomic() {
        let mut db = db();
        let actor = db.schema().table_id("actor").unwrap();
        let acts = db.schema().table_id("acts").unwrap();
        // Last row is an orphan: the whole batch must be rejected, and the
        // error names the table, column, key, and batch position.
        let bad: RowBatch = vec![
            (actor, vec![Value::Int(1), Value::text("a")]),
            (acts, vec![Value::Int(10), Value::Int(1), Value::Int(999)]),
        ];
        assert_eq!(
            db.insert_batch(&bad).unwrap_err(),
            BatchError::DanglingForeignKey {
                table: "acts".into(),
                attr: "movie_id".into(),
                key: 999,
                batch_row: 1,
            }
        );
        assert_eq!(db.total_rows(), 0, "failed batch must insert nothing");
        // Intra-batch pk collision also rejects atomically.
        let dup: RowBatch = vec![
            (actor, vec![Value::Int(1), Value::text("a")]),
            (actor, vec![Value::Int(1), Value::text("b")]),
        ];
        assert_eq!(
            db.insert_batch(&dup).unwrap_err(),
            BatchError::DuplicatePrimaryKey {
                table: "actor".into(),
                key: 1,
                batch_row: 1,
            }
        );
        assert_eq!(db.total_rows(), 0);
    }

    #[test]
    fn insert_batch_shape_errors_carry_batch_context() {
        let mut db = db();
        let actor = db.schema().table_id("actor").unwrap();
        let short: RowBatch = vec![
            (actor, vec![Value::Int(1), Value::text("a")]),
            (actor, vec![Value::Int(2)]),
        ];
        assert_eq!(
            db.insert_batch(&short).unwrap_err(),
            BatchError::Arity {
                table: "actor".into(),
                batch_row: 1,
                expected: 2,
                got: 1,
            }
        );
        let typed: RowBatch = vec![(actor, vec![Value::Int(1), Value::Int(2)])];
        assert_eq!(
            db.insert_batch(&typed).unwrap_err(),
            BatchError::Type {
                table: "actor".into(),
                attr: "name".into(),
                batch_row: 0,
            }
        );
        let null_pk: RowBatch = vec![(actor, vec![Value::Null, Value::text("a")])];
        assert_eq!(
            db.insert_batch(&null_pk).unwrap_err(),
            BatchError::NullPrimaryKey {
                table: "actor".into(),
                batch_row: 0,
            }
        );
        assert_eq!(db.total_rows(), 0);
    }

    #[test]
    fn insert_batch_resolves_intra_batch_parents() {
        let mut db = db();
        let s = db.schema().clone();
        let actor = s.table_id("actor").unwrap();
        let movie = s.table_id("movie").unwrap();
        let acts = s.table_id("acts").unwrap();
        // The child precedes its parents in the batch: still legal, the
        // batch is validated as one unit.
        let batch: RowBatch = vec![
            (acts, vec![Value::Int(100), Value::Int(1), Value::Int(10)]),
            (actor, vec![Value::Int(1), Value::text("Hanks")]),
            (
                movie,
                vec![Value::Int(10), Value::text("Terminal"), Value::Int(2004)],
            ),
        ];
        let ids = db.insert_batch(&batch).unwrap();
        assert_eq!(ids.len(), 3);
        db.validate().unwrap();
        // FK indexes were maintained through the batch path.
        let (fk_actor, _) = s.fks().find(|(_, fk)| fk.to.table == actor).unwrap();
        assert_eq!(db.fk_referrers(fk_actor, 1), &[ids[0]]);
        // A follow-up batch may reference rows from the earlier one.
        let more: RowBatch = vec![(acts, vec![Value::Int(101), Value::Int(1), Value::Int(10)])];
        db.insert_batch(&more).unwrap();
        db.validate().unwrap();
        assert_eq!(db.table(acts).len(), 2);
    }

    #[test]
    fn rows_iterator_order() {
        let mut db = db();
        let actor = db.schema().table_id("actor").unwrap();
        for i in 0..5 {
            db.insert(actor, vec![Value::Int(i), Value::text(format!("a{i}"))])
                .unwrap();
        }
        let ids: Vec<u32> = db.table(actor).rows().map(|(r, _)| r.0).collect();
        assert_eq!(ids, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn insert_reports_table_full_at_capacity() {
        let mut db = db();
        let actor = db.schema().table_id("actor").unwrap();
        db.set_max_rows_for_test(2);
        db.insert(actor, vec![Value::Int(1), Value::text("a")])
            .unwrap();
        db.insert(actor, vec![Value::Int(2), Value::text("b")])
            .unwrap();
        let err = db
            .insert(actor, vec![Value::Int(3), Value::text("c")])
            .unwrap_err();
        assert_eq!(err, RelError::TableFull { table: actor });
        // The rejected row left no trace: not in storage, pk not indexed,
        // its strings not interned.
        assert_eq!(db.table(actor).len(), 2);
        assert_eq!(db.table(actor).by_pk(3), None);
        assert_eq!(db.symbol_id("c"), None);
    }

    #[test]
    fn insert_batch_reports_table_full_atomically() {
        let mut db = db();
        let actor = db.schema().table_id("actor").unwrap();
        db.set_max_rows_for_test(2);
        db.insert(actor, vec![Value::Int(1), Value::text("a")])
            .unwrap();
        // Second batch row crosses capacity: whole batch rejected, error
        // pins the offending row.
        let batch: RowBatch = vec![
            (actor, vec![Value::Int(2), Value::text("b")]),
            (actor, vec![Value::Int(3), Value::text("c")]),
        ];
        assert_eq!(
            db.insert_batch(&batch).unwrap_err(),
            BatchError::TableFull {
                table: "actor".into(),
                batch_row: 1,
            }
        );
        assert_eq!(db.table(actor).len(), 1, "failed batch must insert nothing");
        // A batch that exactly fills the table is fine.
        let ok: RowBatch = vec![(actor, vec![Value::Int(2), Value::text("b")])];
        db.insert_batch(&ok).unwrap();
        assert_eq!(db.table(actor).len(), 2);
    }

    #[test]
    fn validate_batch_reports_table_full_through_lookups() {
        // A store seen only through the two lookups, the way the sharded
        // ingest path sees its shard directory: one actor row (pk 1), room
        // for two.
        let db = db();
        let actor = db.schema().table_id("actor").unwrap();
        let exists = |t: TableId, pk: i64| t == actor && pk == 1;
        let rows = |t: TableId| usize::from(t == actor);
        let batch: RowBatch = vec![
            (actor, vec![Value::Int(2), Value::text("b")]),
            (actor, vec![Value::Int(3), Value::text("c")]),
        ];
        assert_eq!(
            db.schema().validate_batch(&batch, 2, exists, rows),
            Err(BatchError::TableFull {
                table: "actor".into(),
                batch_row: 1,
            })
        );
        // Exactly filling the table is fine, and the pks come back in order.
        assert_eq!(
            db.schema().validate_batch(&batch[..1], 2, exists, rows),
            Ok(vec![2])
        );
        assert_eq!(
            db.schema().validate_batch(&batch, 3, exists, rows),
            Ok(vec![2, 3])
        );
        // A duplicate outranks capacity on the same row, as in `insert_batch`.
        let dup: RowBatch = vec![(actor, vec![Value::Int(1), Value::text("a")])];
        assert_eq!(
            db.schema().validate_batch(&dup, 1, exists, rows),
            Err(BatchError::DuplicatePrimaryKey {
                table: "actor".into(),
                key: 1,
                batch_row: 0,
            })
        );
    }

    #[test]
    fn text_cells_are_interned() {
        let mut db = db();
        let actor = db.schema().table_id("actor").unwrap();
        let movie = db.schema().table_id("movie").unwrap();
        db.insert(actor, vec![Value::Int(1), Value::text("terminal")])
            .unwrap();
        db.insert(
            movie,
            vec![Value::Int(1), Value::text("terminal"), Value::Int(2004)],
        )
        .unwrap();
        db.insert(actor, vec![Value::Int(2), Value::text("volcano")])
            .unwrap();
        // Two distinct strings across three text cells.
        assert_eq!(db.symbol_count(), 2);
        assert_eq!(db.symbol_bytes(), "terminal".len() as u64 + 7);
        assert_eq!(db.symbol_id("terminal"), Some(0));
        assert_eq!(db.symbol_id("volcano"), Some(1));
        // Both "terminal" cells share one allocation.
        let a = db.cell(
            actor,
            RowId(0),
            crate::schema::AttrRef {
                table: actor,
                attr: crate::schema::AttrId(1),
            },
        );
        let m = db.cell(
            movie,
            RowId(0),
            crate::schema::AttrRef {
                table: movie,
                attr: crate::schema::AttrId(1),
            },
        );
        match (a, m) {
            (Value::Text(x), Value::Text(y)) => assert!(std::sync::Arc::ptr_eq(x, y)),
            other => panic!("expected text cells, got {other:?}"),
        }
        // The accounting model sees the dedup: 100 more "terminal" cells
        // cost their row, cell and pk-index entries, and no string bytes.
        let before = db.approx_heap_bytes();
        for i in 10..110 {
            db.insert(actor, vec![Value::Int(i), Value::text("terminal")])
                .unwrap();
        }
        assert_eq!(db.approx_heap_bytes() - before, 100 * (24 + 16 + 2 * 24));
        // A row with fk cells also pays, per non-null cell, an fk-index
        // posting, and per cell, null or not, a parent-column entry.
        let acts = db.schema().table_id("acts").unwrap();
        let before = db.approx_heap_bytes();
        db.insert(acts, vec![Value::Int(1), Value::Int(1), Value::Null])
            .unwrap();
        assert_eq!(
            db.approx_heap_bytes() - before,
            (24 + 16 + 3 * 24) + 12 + 2 * 4
        );
    }

    #[test]
    fn parent_column_resolves_in_any_load_order() {
        let mut db = db();
        let s = db.schema().clone();
        let actor = s.table_id("actor").unwrap();
        let acts = s.table_id("acts").unwrap();
        let (fk_actor, _) = s.fks().find(|(_, fk)| fk.to.table == actor).unwrap();
        let (fk_movie, _) = s.fks().find(|(_, fk)| fk.to.table != actor).unwrap();
        // The child first: its actor is not loaded yet, its movie is null.
        let child = db
            .insert(acts, vec![Value::Int(100), Value::Int(1), Value::Null])
            .unwrap();
        assert_eq!(db.fk_parent_row(fk_actor, child), None);
        assert_eq!(db.fk_parent_row(fk_movie, child), None);
        assert!(db.validate().is_err());
        // The parent patches the child that was waiting for it.
        let parent = db
            .insert(actor, vec![Value::Int(1), Value::text("Hanks")])
            .unwrap();
        assert_eq!(db.fk_parent_row(fk_actor, child), Some(parent));
        assert_eq!(db.fk_parent_row(fk_movie, child), None);
        db.validate().unwrap();
        // A child loaded after its parent resolves on the spot.
        let late = db
            .insert(acts, vec![Value::Int(101), Value::Int(1), Value::Null])
            .unwrap();
        assert_eq!(db.fk_parent_row(fk_actor, late), Some(parent));
    }
}
