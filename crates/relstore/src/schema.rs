//! Catalog: tables, attributes, primary keys, and foreign keys.

use crate::error::{BatchError, RelError, RelResult};
use crate::value::{Value, ValueType};
use std::collections::{HashMap, HashSet};
use std::fmt;

/// Identifier of a table within one [`Schema`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TableId(pub u32);

/// Identifier of an attribute within one table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct AttrId(pub u32);

/// Identifier of a foreign key within one [`Schema`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FkId(pub u32);

/// A fully qualified attribute reference.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct AttrRef {
    pub table: TableId,
    pub attr: AttrId,
}

/// Whether a table models entities or an m:n relationship. Keyword search
/// treats them identically; the distinction matters for data generation and
/// for rendering query interpretations in natural language.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TableKind {
    Entity,
    Relation,
}

/// An attribute (column) definition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AttributeDef {
    pub name: String,
    pub ty: ValueType,
}

/// A table definition. The primary key is always the attribute at index
/// `pk` and must have type [`ValueType::Int`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TableDef {
    pub name: String,
    pub kind: TableKind,
    pub attrs: Vec<AttributeDef>,
    pub pk: AttrId,
}

impl TableDef {
    /// Look up an attribute by name.
    pub fn attr_id(&self, name: &str) -> Option<AttrId> {
        self.attrs
            .iter()
            .position(|a| a.name == name)
            .map(|i| AttrId(i as u32))
    }

    /// The definition of the given attribute.
    pub fn attr(&self, id: AttrId) -> &AttributeDef {
        &self.attrs[id.0 as usize]
    }

    /// Iterate over `(AttrId, &AttributeDef)` pairs.
    pub fn attrs_with_ids(&self) -> impl Iterator<Item = (AttrId, &AttributeDef)> {
        self.attrs
            .iter()
            .enumerate()
            .map(|(i, a)| (AttrId(i as u32), a))
    }

    /// Iterate over the text attributes of the table.
    pub fn text_attrs(&self) -> impl Iterator<Item = (AttrId, &AttributeDef)> {
        self.attrs_with_ids()
            .filter(|(_, a)| a.ty == ValueType::Text)
    }
}

/// A foreign key: `from` (the referencing column) points at the primary key
/// of `to.table`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ForeignKey {
    pub from: AttrRef,
    pub to: AttrRef,
}

/// An immutable catalog of tables and foreign keys.
#[derive(Debug, Clone)]
pub struct Schema {
    tables: Vec<TableDef>,
    fks: Vec<ForeignKey>,
    by_name: HashMap<String, TableId>,
}

impl Schema {
    /// Number of tables.
    pub fn table_count(&self) -> usize {
        self.tables.len()
    }

    /// Number of foreign keys.
    pub fn fk_count(&self) -> usize {
        self.fks.len()
    }

    /// Look up a table by name.
    pub fn table_id(&self, name: &str) -> Option<TableId> {
        self.by_name.get(name).copied()
    }

    /// The definition of `id`.
    pub fn table(&self, id: TableId) -> &TableDef {
        &self.tables[id.0 as usize]
    }

    /// Iterate over `(TableId, &TableDef)`.
    pub fn tables(&self) -> impl Iterator<Item = (TableId, &TableDef)> {
        self.tables
            .iter()
            .enumerate()
            .map(|(i, t)| (TableId(i as u32), t))
    }

    /// The foreign key `id`.
    pub fn fk(&self, id: FkId) -> &ForeignKey {
        &self.fks[id.0 as usize]
    }

    /// Iterate over `(FkId, &ForeignKey)`.
    pub fn fks(&self) -> impl Iterator<Item = (FkId, &ForeignKey)> {
        self.fks
            .iter()
            .enumerate()
            .map(|(i, k)| (FkId(i as u32), k))
    }

    /// Resolve `"table.attr"`-style references.
    pub fn resolve(&self, table: &str, attr: &str) -> RelResult<AttrRef> {
        let tid = self
            .table_id(table)
            .ok_or_else(|| RelError::UnknownTable(table.to_owned()))?;
        let aid = self
            .table(tid)
            .attr_id(attr)
            .ok_or_else(|| RelError::UnknownAttribute {
                table: table.to_owned(),
                attr: attr.to_owned(),
            })?;
        Ok(AttrRef {
            table: tid,
            attr: aid,
        })
    }

    /// Human-readable `"table.attr"` label for an attribute reference.
    pub fn attr_label(&self, r: AttrRef) -> String {
        let t = self.table(r.table);
        format!("{}.{}", t.name, t.attr(r.attr).name)
    }

    /// Arity, type, and primary-key *shape* checks shared by every insert
    /// path. Returns the row's primary-key value (uniqueness is checked by
    /// the callers, whose notion of "already present" differs: a batch also
    /// sees its own earlier rows).
    pub fn check_shape(&self, table: TableId, row: &[Value]) -> RelResult<i64> {
        let def = self.table(table);
        if row.len() != def.attrs.len() {
            return Err(RelError::ArityMismatch {
                table,
                expected: def.attrs.len(),
                got: row.len(),
            });
        }
        for (i, (v, a)) in row.iter().zip(&def.attrs).enumerate() {
            if !v.conforms_to(a.ty) {
                return Err(RelError::TypeMismatch {
                    attr: AttrRef {
                        table,
                        attr: AttrId(i as u32),
                    },
                });
            }
        }
        row[def.pk.0 as usize]
            .as_int()
            .ok_or(RelError::BadPrimaryKey { table })
    }

    /// Validate `batch` as one atomic unit against a store described by two
    /// lookups — `exists(table, pk)`: is that primary key already stored;
    /// `rows(table)`: how many rows the table holds — without touching it.
    /// Checks, in this order: every row's shape, primary-key uniqueness
    /// against the store *and* within the batch, and that no table would
    /// grow past `max_rows` (the `RowId` space); then referential integrity,
    /// where a foreign key may resolve to a parent anywhere in the store or
    /// in the batch. The first failure is returned, naming the table and
    /// pinning the batch row. On success returns the primary key of every
    /// batch row, in batch order.
    ///
    /// This is the only batch validator: [`crate::Database::insert_batch`]
    /// and the sharded ingest path (whose "store" is a shard directory) both
    /// call it, so they reject the same batches with the same errors.
    pub fn validate_batch(
        &self,
        batch: &[(TableId, Vec<Value>)],
        max_rows: usize,
        exists: impl Fn(TableId, i64) -> bool,
        rows: impl Fn(TableId) -> usize,
    ) -> Result<Vec<i64>, BatchError> {
        // `new_pks[t]` collects primary keys the batch itself introduces, so
        // intra-batch parents (in any position) and collisions are seen.
        let mut new_pks: Vec<HashSet<i64>> = vec![HashSet::new(); self.table_count()];
        let mut pks = Vec::with_capacity(batch.len());
        for (i, (table, row)) in batch.iter().enumerate() {
            let pk = self
                .check_shape(*table, row)
                .map_err(|e| self.shape_batch_error(e, i))?;
            let added = &mut new_pks[table.0 as usize];
            if exists(*table, pk) || !added.insert(pk) {
                return Err(BatchError::DuplicatePrimaryKey {
                    table: self.table(*table).name.clone(),
                    key: pk,
                    batch_row: i,
                });
            }
            // Every batch row carries a distinct pk, so `added.len()` is the
            // number of rows this batch adds to the table so far. Rejecting
            // here is what lets the apply step mint row ids unchecked.
            if rows(*table) + added.len() > max_rows {
                return Err(BatchError::TableFull {
                    table: self.table(*table).name.clone(),
                    batch_row: i,
                });
            }
            pks.push(pk);
        }
        for (i, (table, row)) in batch.iter().enumerate() {
            for (_, fk) in self.fks().filter(|(_, fk)| fk.from.table == *table) {
                let Some(key) = row[fk.from.attr.0 as usize].as_int() else {
                    continue;
                };
                let parent = fk.to.table;
                if !exists(parent, key) && !new_pks[parent.0 as usize].contains(&key) {
                    let t = self.table(*table);
                    return Err(BatchError::DanglingForeignKey {
                        table: t.name.clone(),
                        attr: t.attr(fk.from.attr).name.clone(),
                        key,
                        batch_row: i,
                    });
                }
            }
        }
        Ok(pks)
    }

    /// Translate a [`Self::check_shape`] failure into a [`BatchError`] that
    /// names the table (and attribute) and pins the offending batch row.
    fn shape_batch_error(&self, e: RelError, batch_row: usize) -> BatchError {
        match e {
            RelError::ArityMismatch {
                table,
                expected,
                got,
            } => BatchError::Arity {
                table: self.table(table).name.clone(),
                batch_row,
                expected,
                got,
            },
            RelError::TypeMismatch { attr } => {
                let t = self.table(attr.table);
                BatchError::Type {
                    table: t.name.clone(),
                    attr: t.attr(attr.attr).name.clone(),
                    batch_row,
                }
            }
            RelError::BadPrimaryKey { table } => BatchError::NullPrimaryKey {
                table: self.table(table).name.clone(),
                batch_row,
            },
            other => unreachable!("check_shape only returns shape errors, got {other}"),
        }
    }
}

impl fmt::Display for Schema {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (tid, t) in self.tables() {
            write!(f, "{} (", t.name)?;
            for (i, a) in t.attrs.iter().enumerate() {
                if i > 0 {
                    f.write_str(", ")?;
                }
                write!(f, "{} {}", a.name, a.ty)?;
                if AttrId(i as u32) == t.pk {
                    f.write_str(" PK")?;
                }
            }
            writeln!(f, ")")?;
            for (_, fk) in self.fks().filter(|(_, fk)| fk.from.table == tid) {
                writeln!(
                    f,
                    "  FK {} -> {}",
                    self.attr_label(fk.from),
                    self.attr_label(fk.to)
                )?;
            }
        }
        Ok(())
    }
}

/// Incremental builder for one table inside a [`SchemaBuilder`].
pub struct TableBuilder<'a> {
    def: &'a mut TableDef,
    seen_pk: &'a mut bool,
}

impl TableBuilder<'_> {
    /// Declare the integer primary-key attribute (conventionally first).
    pub fn pk(self, name: &str) -> Self {
        let id = AttrId(self.def.attrs.len() as u32);
        self.def.attrs.push(AttributeDef {
            name: name.to_owned(),
            ty: ValueType::Int,
        });
        self.def.pk = id;
        *self.seen_pk = true;
        self
    }

    /// Declare a text attribute.
    pub fn text_attr(self, name: &str) -> Self {
        self.def.attrs.push(AttributeDef {
            name: name.to_owned(),
            ty: ValueType::Text,
        });
        self
    }

    /// Declare an integer attribute (e.g. a foreign-key column or a year).
    pub fn int_attr(self, name: &str) -> Self {
        self.def.attrs.push(AttributeDef {
            name: name.to_owned(),
            ty: ValueType::Int,
        });
        self
    }
}

/// Builder for [`Schema`]. Tables are declared first, then foreign keys;
/// `finish` validates the result.
#[derive(Default)]
pub struct SchemaBuilder {
    tables: Vec<TableDef>,
    pk_seen: Vec<bool>,
    fks: Vec<(String, String, String)>,
}

impl SchemaBuilder {
    pub fn new() -> Self {
        Self::default()
    }

    /// Begin a new table. Attributes are added through the returned builder.
    pub fn table(&mut self, name: &str, kind: TableKind) -> TableBuilder<'_> {
        self.tables.push(TableDef {
            name: name.to_owned(),
            kind,
            attrs: Vec::new(),
            pk: AttrId(0),
        });
        self.pk_seen.push(false);
        let def = self.tables.last_mut().expect("just pushed");
        let seen = self.pk_seen.last_mut().expect("just pushed");
        TableBuilder { def, seen_pk: seen }
    }

    /// Declare a foreign key from `from_table.from_attr` to the primary key
    /// of `to_table`. Name resolution is deferred to [`Self::finish`], but a
    /// cheap existence check runs eagerly so mistakes fail close to the call.
    pub fn foreign_key(
        &mut self,
        from_table: &str,
        from_attr: &str,
        to_table: &str,
    ) -> RelResult<()> {
        let ft = self
            .tables
            .iter()
            .find(|t| t.name == from_table)
            .ok_or_else(|| RelError::UnknownTable(from_table.to_owned()))?;
        if ft.attr_id(from_attr).is_none() {
            return Err(RelError::UnknownAttribute {
                table: from_table.to_owned(),
                attr: from_attr.to_owned(),
            });
        }
        if !self.tables.iter().any(|t| t.name == to_table) {
            return Err(RelError::UnknownTable(to_table.to_owned()));
        }
        self.fks.push((
            from_table.to_owned(),
            from_attr.to_owned(),
            to_table.to_owned(),
        ));
        Ok(())
    }

    /// Validate and freeze the schema.
    pub fn finish(self) -> RelResult<Schema> {
        let mut by_name = HashMap::with_capacity(self.tables.len());
        for (i, t) in self.tables.iter().enumerate() {
            if by_name.insert(t.name.clone(), TableId(i as u32)).is_some() {
                return Err(RelError::DuplicateTable(t.name.clone()));
            }
            if !self.pk_seen[i] {
                return Err(RelError::MissingPrimaryKey(t.name.clone()));
            }
            let mut seen = HashMap::new();
            for a in &t.attrs {
                if seen.insert(a.name.as_str(), ()).is_some() {
                    return Err(RelError::DuplicateAttribute {
                        table: t.name.clone(),
                        attr: a.name.clone(),
                    });
                }
            }
        }
        let mut fks = Vec::with_capacity(self.fks.len());
        for (ft, fa, tt) in &self.fks {
            let from_tid = by_name[ft.as_str()];
            let from_def = &self.tables[from_tid.0 as usize];
            let from_aid = from_def.attr_id(fa).expect("checked in foreign_key");
            if from_def.attr(from_aid).ty != ValueType::Int {
                return Err(RelError::NonIntegerKey {
                    table: ft.clone(),
                    attr: fa.clone(),
                });
            }
            let to_tid = by_name[tt.as_str()];
            let to_pk = self.tables[to_tid.0 as usize].pk;
            fks.push(ForeignKey {
                from: AttrRef {
                    table: from_tid,
                    attr: from_aid,
                },
                to: AttrRef {
                    table: to_tid,
                    attr: to_pk,
                },
            });
        }
        Ok(Schema {
            tables: self.tables,
            fks,
            by_name,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn movie_schema() -> Schema {
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
            .int_attr("movie_id")
            .text_attr("role");
        b.foreign_key("acts", "actor_id", "actor").unwrap();
        b.foreign_key("acts", "movie_id", "movie").unwrap();
        b.finish().unwrap()
    }

    #[test]
    fn builds_and_resolves() {
        let s = movie_schema();
        assert_eq!(s.table_count(), 3);
        assert_eq!(s.fk_count(), 2);
        let actor = s.table_id("actor").unwrap();
        assert_eq!(s.table(actor).name, "actor");
        let r = s.resolve("movie", "title").unwrap();
        assert_eq!(s.attr_label(r), "movie.title");
        assert!(s.table_id("nope").is_none());
    }

    #[test]
    fn fk_targets_pk() {
        let s = movie_schema();
        for (_, fk) in s.fks() {
            assert_eq!(fk.to.attr, s.table(fk.to.table).pk);
        }
    }

    #[test]
    fn duplicate_table_rejected() {
        let mut b = SchemaBuilder::new();
        b.table("t", TableKind::Entity).pk("id");
        b.table("t", TableKind::Entity).pk("id");
        assert_eq!(
            b.finish().unwrap_err(),
            RelError::DuplicateTable("t".into())
        );
    }

    #[test]
    fn duplicate_attr_rejected() {
        let mut b = SchemaBuilder::new();
        b.table("t", TableKind::Entity)
            .pk("id")
            .text_attr("x")
            .text_attr("x");
        assert!(matches!(
            b.finish().unwrap_err(),
            RelError::DuplicateAttribute { .. }
        ));
    }

    #[test]
    fn missing_pk_rejected() {
        let mut b = SchemaBuilder::new();
        b.table("t", TableKind::Entity).text_attr("x");
        assert_eq!(
            b.finish().unwrap_err(),
            RelError::MissingPrimaryKey("t".into())
        );
    }

    #[test]
    fn fk_from_text_rejected() {
        let mut b = SchemaBuilder::new();
        b.table("a", TableKind::Entity).pk("id").text_attr("ref");
        b.table("b", TableKind::Entity).pk("id");
        b.foreign_key("a", "ref", "b").unwrap();
        assert!(matches!(
            b.finish().unwrap_err(),
            RelError::NonIntegerKey { .. }
        ));
    }

    #[test]
    fn fk_unknown_names_rejected_eagerly() {
        let mut b = SchemaBuilder::new();
        b.table("a", TableKind::Entity).pk("id");
        assert!(b.foreign_key("zzz", "id", "a").is_err());
        assert!(b.foreign_key("a", "zzz", "a").is_err());
        assert!(b.foreign_key("a", "id", "zzz").is_err());
    }

    #[test]
    fn resolve_unknown() {
        let s = movie_schema();
        assert!(s.resolve("nope", "x").is_err());
        assert!(s.resolve("actor", "nope").is_err());
    }

    #[test]
    fn display_lists_tables_and_fks() {
        let s = movie_schema();
        let text = s.to_string();
        assert!(text.contains("actor"));
        assert!(text.contains("FK acts.actor_id -> actor.id"));
        assert!(text.contains("id INT PK"));
    }

    #[test]
    fn text_attr_iterator() {
        let s = movie_schema();
        let acts = s.table_id("acts").unwrap();
        let names: Vec<_> = s
            .table(acts)
            .text_attrs()
            .map(|(_, a)| a.name.as_str())
            .collect();
        assert_eq!(names, vec!["role"]);
    }
}
