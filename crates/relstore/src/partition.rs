//! FK-closed partitioning of a database across K shards.
//!
//! A join tree can only be executed inside one store, so a horizontal
//! partition is *correct* exactly when every foreign-key edge stays within a
//! shard: rows connected (transitively) by foreign keys must be co-located.
//! This module computes those row-level connected components with a
//! union-find over the FK edges, balances whole components across shards
//! with a deterministic longest-processing-time (LPT) assignment, and splits
//! a database into per-shard stores whose per-table row order is the
//! restriction of the global row order (so merged per-shard results can be
//! put back into global order by a stable k-way merge).
//!
//! The [`ShardAssignment`] is keyed by `(table, primary key)` rather than
//! [`RowId`] so a live service can route rows that do not exist yet: a
//! pre-computed assignment over a full dataset keeps rows that a later
//! ingest will connect on the same shard from the start.

use crate::database::Database;
use crate::error::{RelError, RelResult};
use crate::schema::TableId;
use crate::value::RowId;
use std::collections::HashMap;

/// Which shard owns each `(table, primary key)`. Produced by
/// [`assign_shards`]; extended at runtime as new rows are routed.
#[derive(Debug, Clone)]
pub struct ShardAssignment {
    shards: usize,
    map: Vec<HashMap<i64, usize>>,
}

impl ShardAssignment {
    /// An empty assignment over `shards` shards for a database with
    /// `table_count` tables.
    pub fn empty(shards: usize, table_count: usize) -> Self {
        assert!(shards > 0, "at least one shard");
        ShardAssignment {
            shards,
            map: vec![HashMap::new(); table_count],
        }
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// The shard owning `(table, pk)`, if assigned.
    pub fn shard_of(&self, table: TableId, pk: i64) -> Option<usize> {
        self.map[table.0 as usize].get(&pk).copied()
    }

    /// Record that `(table, pk)` lives on `shard`.
    pub fn record(&mut self, table: TableId, pk: i64, shard: usize) {
        debug_assert!(shard < self.shards);
        self.map[table.0 as usize].insert(pk, shard);
    }

    /// Total number of assigned rows.
    pub fn len(&self) -> usize {
        self.map.iter().map(HashMap::len).sum()
    }

    /// Whether no row is assigned.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Deterministic FNV-1a shard hash for rows with no FK context at all —
/// the routing fallback of last resort for brand-new rootless rows.
pub fn hash_shard(table: TableId, pk: i64, shards: usize) -> usize {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in table.0.to_le_bytes().into_iter().chain(pk.to_le_bytes()) {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    (h % shards as u64) as usize
}

/// The FK parents of one row: for every non-null foreign-key column
/// originating in `table`, the referenced `(parent table, parent row)`.
/// Parents missing from `db` are skipped (bulk-loaded stores may be
/// temporarily inconsistent).
pub fn fk_parents(db: &Database, table: TableId, row: RowId) -> Vec<(TableId, RowId)> {
    db.schema()
        .fks()
        .filter(|(_, fk)| fk.from.table == table)
        .filter_map(|(id, fk)| Some((fk.to.table, db.fk_parent_row(id, row)?)))
        .collect()
}

/// Union-find over row ordinals.
struct UnionFind {
    parent: Vec<u32>,
}

impl UnionFind {
    fn new(n: usize) -> Self {
        UnionFind {
            parent: (0..n as u32).collect(),
        }
    }

    fn find(&mut self, x: u32) -> u32 {
        let mut root = x;
        while self.parent[root as usize] != root {
            root = self.parent[root as usize];
        }
        let mut cur = x;
        while self.parent[cur as usize] != root {
            let next = self.parent[cur as usize];
            self.parent[cur as usize] = root;
            cur = next;
        }
        root
    }

    fn union(&mut self, a: u32, b: u32) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra != rb {
            // Attach the larger ordinal under the smaller so component
            // representatives are stable, deterministic minima.
            let (lo, hi) = if ra < rb { (ra, rb) } else { (rb, ra) };
            self.parent[hi as usize] = lo;
        }
    }
}

/// Compute the FK-connected row components of `db` and balance them across
/// `shards` shards: components are sorted by (size descending, smallest row
/// ordinal ascending) and each is placed on the currently least-loaded shard
/// (ties to the lowest shard index) — deterministic LPT.
pub fn assign_shards(db: &Database, shards: usize) -> ShardAssignment {
    assert!(shards > 0, "at least one shard");
    let table_count = db.schema().table_count();
    // Global ordinal of (table, row) = table offset + row index.
    let mut offset = vec![0usize; table_count + 1];
    for t in 0..table_count {
        offset[t + 1] = offset[t] + db.table(TableId(t as u32)).len();
    }
    let total = offset[table_count];
    let mut uf = UnionFind::new(total);
    for t in 0..table_count {
        let table = TableId(t as u32);
        for (row, _) in db.table(table).rows() {
            let me = (offset[t] + row.index()) as u32;
            for (pt, prow) in fk_parents(db, table, row) {
                let parent = (offset[pt.0 as usize] + prow.index()) as u32;
                uf.union(me, parent);
            }
        }
    }
    // Group ordinals by component representative, preserving ordinal order
    // within each component.
    let mut members: HashMap<u32, Vec<usize>> = HashMap::new();
    for ord in 0..total {
        members.entry(uf.find(ord as u32)).or_default().push(ord);
    }
    let mut components: Vec<Vec<usize>> = members.into_values().collect();
    components.sort_by_key(|c| (usize::MAX - c.len(), c[0]));

    let mut assignment = ShardAssignment::empty(shards, table_count);
    let mut load = vec![0usize; shards];
    for comp in components {
        let target = (0..shards)
            .min_by_key(|&s| load[s])
            .expect("at least one shard");
        load[target] += comp.len();
        for ord in comp {
            let t = match offset.binary_search(&ord) {
                Ok(mut i) => {
                    // Exact offset hit: skip empty tables sharing the offset.
                    while offset[i + 1] == ord {
                        i += 1;
                    }
                    i
                }
                Err(i) => i - 1,
            };
            let table = TableId(t as u32);
            let row = RowId((ord - offset[t]) as u32);
            assignment.record(table, db.pk_value(table, row), target);
        }
    }
    assignment
}

/// A database split into per-shard stores plus, per shard and table, the
/// map from local [`RowId`] back to the global one. Local row order is the
/// restriction of global row order, so every `row_maps[s][t]` is strictly
/// increasing.
#[derive(Debug, Clone)]
pub struct ShardSplit {
    pub dbs: Vec<Database>,
    pub row_maps: Vec<Vec<Vec<RowId>>>,
}

/// Split `db` into one store per shard according to `assignment`. Rows not
/// covered by the assignment are an error (the assignment is expected to
/// come from [`assign_shards`] over this database or a superset of it).
pub fn split_database(db: &Database, assignment: &ShardAssignment) -> RelResult<ShardSplit> {
    let shards = assignment.shards();
    let table_count = db.schema().table_count();
    let mut dbs: Vec<Database> = (0..shards)
        .map(|_| Database::new(db.schema().clone()))
        .collect();
    let mut row_maps = vec![vec![Vec::new(); table_count]; shards];
    for (table, _) in db.schema().tables() {
        let t = table.0 as usize;
        for (row, values) in db.table(table).rows() {
            let pk = db.pk_value(table, row);
            let shard = assignment
                .shard_of(table, pk)
                .ok_or_else(|| RelError::UnassignedRow {
                    table: db.schema().table(table).name.clone(),
                    key: pk,
                })?;
            dbs[shard].insert(table, values.to_vec())?;
            row_maps[shard][t].push(row);
        }
    }
    for d in &dbs {
        d.validate()?;
    }
    Ok(ShardSplit { dbs, row_maps })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{SchemaBuilder, TableKind};
    use crate::value::Value;

    /// actor <- acts -> movie with two disjoint FK components plus one
    /// rootless actor.
    fn db() -> Database {
        let mut b = SchemaBuilder::new();
        b.table("actor", TableKind::Entity)
            .pk("id")
            .text_attr("name");
        b.table("movie", TableKind::Entity)
            .pk("id")
            .text_attr("title");
        b.table("acts", TableKind::Relation)
            .pk("id")
            .int_attr("actor_id")
            .int_attr("movie_id");
        b.foreign_key("acts", "actor_id", "actor").unwrap();
        b.foreign_key("acts", "movie_id", "movie").unwrap();
        let mut db = Database::new(b.finish().unwrap());
        let actor = db.schema().table_id("actor").unwrap();
        let movie = db.schema().table_id("movie").unwrap();
        let acts = db.schema().table_id("acts").unwrap();
        for (id, name) in [(1, "Hanks"), (2, "Cruise"), (3, "Loner")] {
            db.insert(actor, vec![Value::Int(id), Value::text(name)])
                .unwrap();
        }
        for (id, title) in [(10, "Terminal"), (11, "Top Gun")] {
            db.insert(movie, vec![Value::Int(id), Value::text(title)])
                .unwrap();
        }
        // Component A: actor 1 - acts 100 - movie 10.
        // Component B: actor 2 - acts 101 - movie 11.
        // Component C: actor 3 alone.
        for (id, a, m) in [(100, 1, 10), (101, 2, 11)] {
            db.insert(acts, vec![Value::Int(id), Value::Int(a), Value::Int(m)])
                .unwrap();
        }
        db.validate().unwrap();
        db
    }

    #[test]
    fn components_stay_whole() {
        let db = db();
        let actor = db.schema().table_id("actor").unwrap();
        let movie = db.schema().table_id("movie").unwrap();
        let acts = db.schema().table_id("acts").unwrap();
        let a = assign_shards(&db, 2);
        assert_eq!(a.len(), 7);
        // Every FK edge is intra-shard.
        for (acts_pk, actor_pk, movie_pk) in [(100, 1, 10), (101, 2, 11)] {
            let s = a.shard_of(acts, acts_pk).unwrap();
            assert_eq!(a.shard_of(actor, actor_pk), Some(s));
            assert_eq!(a.shard_of(movie, movie_pk), Some(s));
        }
        // LPT balances the two 3-row components onto different shards.
        assert_ne!(a.shard_of(acts, 100), a.shard_of(acts, 101));
    }

    #[test]
    fn assignment_is_deterministic() {
        let db = db();
        let acts = db.schema().table_id("acts").unwrap();
        let a1 = assign_shards(&db, 3);
        let a2 = assign_shards(&db, 3);
        for pk in [100, 101] {
            assert_eq!(a1.shard_of(acts, pk), a2.shard_of(acts, pk));
        }
    }

    #[test]
    fn split_preserves_row_order_and_validates() {
        let db = db();
        let split = split_database(&db, &assign_shards(&db, 2)).unwrap();
        assert_eq!(split.dbs.len(), 2);
        let total: usize = split.dbs.iter().map(Database::total_rows).sum();
        assert_eq!(total, db.total_rows());
        for maps in &split.row_maps {
            for m in maps {
                assert!(m.windows(2).all(|w| w[0] < w[1]), "strictly increasing");
            }
        }
        // Local rows carry the same values as their global counterparts.
        let actor = db.schema().table_id("actor").unwrap();
        for (s, shard_db) in split.dbs.iter().enumerate() {
            for (local, _) in shard_db.table(actor).rows() {
                let global = split.row_maps[s][actor.0 as usize][local.index()];
                assert_eq!(
                    shard_db.table(actor).row(local),
                    db.table(actor).row(global)
                );
            }
        }
    }

    #[test]
    fn hash_shard_is_stable() {
        let t = TableId(1);
        assert_eq!(hash_shard(t, 42, 4), hash_shard(t, 42, 4));
        assert!(hash_shard(t, 42, 4) < 4);
    }
}
