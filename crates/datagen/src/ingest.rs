//! Seeded mixed read/write workloads for the live-ingestion path.
//!
//! The update-equivalence suites and the `smoke --serve` ingest driver all
//! need the same thing: a database split into a **preload** (the cold-start
//! state a service boots from) and a stream of **insert batches** that grow
//! it back to the full fixture, interleaved with keyword queries. The split
//! is *schema-generic* — it works on any [`Database`], IMDB or Freebase
//! alike — and every batch is referentially safe by construction:
//!
//! 1. each row is held out with probability `holdout` (seeded), then the
//!    held-out set is **closed under children**: if a parent row is held
//!    out, every row referencing it is held out too, transitively, so the
//!    preload database is internally consistent;
//! 2. held-out rows are emitted in a **randomized topological order** of
//!    the row-level foreign-key dependency graph (parents before children),
//!    so every batch prefix — and therefore every published snapshot epoch —
//!    passes `Database::insert_batch`'s integrity validation.
//!
//! Replaying the preload plus batches `0..n` through *any* insert path
//! reproduces the same row ids, which is what lets the differential suite
//! compare a live-updated service byte-for-byte against a cold rebuild.

use keybridge_relstore::{assign_shards, Database, RowBatch, RowId, ShardAssignment, TableId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{HashMap, HashSet};

/// Sizing knobs of the holdout split.
#[derive(Debug, Clone, Copy)]
pub struct IngestConfig {
    pub seed: u64,
    /// Per-row probability of being held out for live insertion (before the
    /// child-closure pass, which only grows the set).
    pub holdout: f64,
    /// Number of insert batches the held-out rows are scheduled into.
    pub batches: usize,
}

impl Default for IngestConfig {
    fn default() -> Self {
        IngestConfig {
            seed: 17,
            holdout: 0.25,
            batches: 4,
        }
    }
}

/// A database split into a consistent preload plus FK-safe insert batches.
#[derive(Debug, Clone)]
pub struct IngestPlan {
    /// The cold-start database (full fixture minus the held-out rows).
    pub initial: Database,
    /// Insert batches in application order; every prefix is referentially
    /// consistent on top of `initial`.
    pub batches: Vec<RowBatch>,
}

impl IngestPlan {
    /// Total rows scheduled for live insertion.
    pub fn total_rows(&self) -> usize {
        self.batches.iter().map(Vec::len).sum()
    }
}

/// Split `db` into a preload plus insert batches. See the module docs for
/// the closure + ordering guarantees. Deterministic per seed.
pub fn holdout_plan(db: &Database, cfg: IngestConfig) -> IngestPlan {
    let schema = db.schema();
    let mut rng = StdRng::seed_from_u64(cfg.seed);

    // Pass 1: independent per-row holdout draws, in (table, row) order so
    // the draw sequence is deterministic.
    let mut held: HashSet<(TableId, RowId)> = HashSet::new();
    let mut worklist: Vec<(TableId, RowId)> = Vec::new();
    for (tid, _) in schema.tables() {
        for (rid, _) in db.table(tid).rows() {
            if rng.gen_bool(cfg.holdout) && held.insert((tid, rid)) {
                worklist.push((tid, rid));
            }
        }
    }

    // Pass 2: close under children — a preloaded row must never reference a
    // held-out parent. `fk_children` gives the children of a parent row
    // directly off the database's own child maps.
    while let Some((tid, rid)) = worklist.pop() {
        for (fk_id, fk) in schema.fks() {
            if fk.to.table != tid {
                continue;
            }
            for &child in db.fk_children(fk_id, rid) {
                if held.insert((fk.from.table, child)) {
                    worklist.push((fk.from.table, child));
                }
            }
        }
    }

    // Preload: everything not held out, in original order, so preload row
    // ids are a deterministic function of the split alone.
    let mut initial = Database::new(schema.clone());
    for (tid, _) in schema.tables() {
        for (rid, row) in db.table(tid).rows() {
            if !held.contains(&(tid, rid)) {
                initial
                    .insert(tid, row.to_vec())
                    .expect("rows of a valid database re-insert");
            }
        }
    }

    // Schedule: randomized Kahn topological order over the held-out rows'
    // dependency graph (held-out parents only; preloaded parents are
    // already present). Random ready-pick gives a different interleaving
    // per seed while keeping every prefix consistent.
    let held_rows: Vec<(TableId, RowId)> = {
        let mut v: Vec<(TableId, RowId)> = held.iter().copied().collect();
        v.sort();
        v
    };
    let index_of: HashMap<(TableId, RowId), usize> = held_rows
        .iter()
        .enumerate()
        .map(|(i, &key)| (key, i))
        .collect();
    let mut indegree = vec![0usize; held_rows.len()];
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); held_rows.len()];
    for (i, &(tid, rid)) in held_rows.iter().enumerate() {
        let row = db.table(tid).row(rid);
        for (_, fk) in schema.fks() {
            if fk.from.table != tid {
                continue;
            }
            let Some(key) = row[fk.from.attr.0 as usize].as_int() else {
                continue;
            };
            let Some(parent) = db.table(fk.to.table).by_pk(key) else {
                continue;
            };
            if let Some(&p) = index_of.get(&(fk.to.table, parent)) {
                indegree[i] += 1;
                children[p].push(i);
            }
        }
    }
    let mut ready: Vec<usize> = (0..held_rows.len()).filter(|&i| indegree[i] == 0).collect();
    let mut order: Vec<usize> = Vec::with_capacity(held_rows.len());
    while !ready.is_empty() {
        let pick = rng.gen_range(0..ready.len());
        let i = ready.swap_remove(pick);
        order.push(i);
        for &c in &children[i] {
            indegree[c] -= 1;
            if indegree[c] == 0 {
                ready.push(c);
            }
        }
    }
    assert_eq!(
        order.len(),
        held_rows.len(),
        "row-level foreign-key dependencies must be acyclic"
    );

    // Chunk into near-equal batches (empty plan => zero batches).
    let n_batches = cfg.batches.max(1);
    let per = order.len().div_ceil(n_batches).max(1);
    let batches: Vec<RowBatch> = order
        .chunks(per)
        .map(|chunk| {
            chunk
                .iter()
                .map(|&i| {
                    let (tid, rid) = held_rows[i];
                    (tid, db.table(tid).row(rid).to_vec())
                })
                .collect()
        })
        .collect();

    IngestPlan { initial, batches }
}

/// A holdout split plus the shard directory of the **full** fixture: the
/// placement every row — preloaded *and* held out — gets when the complete
/// database is partitioned into `shards` FK-closed shards. Booting a
/// sharded service from `plan.initial` with this assignment and replaying
/// `plan.batches` lands every row exactly where a cold partitioning of the
/// full fixture would put it, so the differential suites can compare the
/// live-updated sharded service against a cold full-corpus rebuild.
#[derive(Debug, Clone)]
pub struct ShardedIngestPlan {
    pub plan: IngestPlan,
    pub assignment: ShardAssignment,
}

/// [`holdout_plan`] plus a shard directory computed over the full `db`
/// *before* the holdout split. Deterministic per seed and shard count.
pub fn sharded_holdout_plan(db: &Database, cfg: IngestConfig, shards: usize) -> ShardedIngestPlan {
    ShardedIngestPlan {
        assignment: assign_shards(db, shards),
        plan: holdout_plan(db, cfg),
    }
}

/// One operation of a mixed read/write workload.
#[derive(Debug, Clone)]
pub enum MixedOp {
    /// A keyword query (bag of lowercase terms).
    Query(Vec<String>),
    /// An insert batch to feed `SearchService::ingest`.
    Insert(RowBatch),
}

/// A seeded mixed read/write workload: the cold-start database plus an
/// operation stream of keyword queries with insert batches spread through
/// it. Batches keep their schedule order (prefix consistency!); only their
/// positions among the queries are randomized.
#[derive(Debug, Clone)]
pub struct MixedWorkload {
    pub initial: Database,
    pub ops: Vec<MixedOp>,
}

impl MixedWorkload {
    /// Interleave `queries` with the plan's batches. Deterministic per seed.
    pub fn interleave(plan: IngestPlan, queries: &[Vec<String>], seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        // Draw one slot (a query index at which the batch fires) per batch,
        // then walk the query stream emitting batches at their slots —
        // sorting keeps batch order stable regardless of the draws.
        let mut slots: Vec<usize> = plan
            .batches
            .iter()
            .map(|_| rng.gen_range(0..=queries.len()))
            .collect();
        slots.sort_unstable();
        let mut ops = Vec::with_capacity(queries.len() + plan.batches.len());
        let mut batches = plan.batches.into_iter();
        let mut slot_iter = slots.into_iter().peekable();
        for (qi, q) in queries.iter().enumerate() {
            while slot_iter.peek() == Some(&qi) {
                slot_iter.next();
                ops.push(MixedOp::Insert(batches.next().expect("one batch per slot")));
            }
            ops.push(MixedOp::Query(q.clone()));
        }
        for batch in batches {
            ops.push(MixedOp::Insert(batch));
        }
        MixedWorkload {
            initial: plan.initial,
            ops,
        }
    }

    /// Operations of each kind: `(queries, inserts)`.
    pub fn counts(&self) -> (usize, usize) {
        let q = self
            .ops
            .iter()
            .filter(|op| matches!(op, MixedOp::Query(_)))
            .count();
        (q, self.ops.len() - q)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::imdb::{ImdbConfig, ImdbDataset};
    use crate::querylog::{Workload, WorkloadConfig};

    fn full_db() -> Database {
        ImdbDataset::generate(ImdbConfig::tiny(11)).unwrap().db
    }

    #[test]
    fn preload_is_consistent_and_batches_restore_everything() {
        let db = full_db();
        let plan = holdout_plan(&db, IngestConfig::default());
        plan.initial.validate().unwrap();
        assert!(plan.total_rows() > 0, "nothing held out");
        assert_eq!(
            plan.initial.total_rows() + plan.total_rows(),
            db.total_rows()
        );

        // Every batch prefix passes full integrity validation.
        let mut grown = plan.initial.clone();
        for batch in &plan.batches {
            grown.insert_batch(batch).unwrap();
            grown.validate().unwrap();
        }
        // The grown database holds exactly the original rows (as multisets
        // per table — row ids may differ from the original).
        for (tid, _) in db.schema().tables() {
            let mut a: Vec<Vec<String>> = db
                .table(tid)
                .rows()
                .map(|(_, r)| r.iter().map(|v| v.to_string()).collect())
                .collect();
            let mut b: Vec<Vec<String>> = grown
                .table(tid)
                .rows()
                .map(|(_, r)| r.iter().map(|v| v.to_string()).collect())
                .collect();
            a.sort();
            b.sort();
            assert_eq!(a, b, "table {tid:?} content diverged");
        }
    }

    #[test]
    fn plan_is_deterministic_per_seed_and_varies_across_seeds() {
        let db = full_db();
        let render = |plan: &IngestPlan| -> Vec<Vec<String>> {
            plan.batches
                .iter()
                .map(|b| {
                    b.iter()
                        .map(|(t, row)| format!("{}:{:?}", t.0, row))
                        .collect()
                })
                .collect()
        };
        let cfg = IngestConfig {
            seed: 3,
            ..Default::default()
        };
        let a = holdout_plan(&db, cfg);
        let b = holdout_plan(&db, cfg);
        assert_eq!(render(&a), render(&b));
        let c = holdout_plan(
            &db,
            IngestConfig {
                seed: 4,
                ..Default::default()
            },
        );
        assert_ne!(render(&a), render(&c), "different seeds, same schedule");
    }

    #[test]
    fn mixed_workload_interleaves_and_keeps_batch_order() {
        let data = ImdbDataset::generate(ImdbConfig::tiny(11)).unwrap();
        let queries: Vec<Vec<String>> = Workload::imdb(
            &data,
            WorkloadConfig {
                seed: 5,
                n_queries: 12,
                mc_fraction: 0.5,
            },
        )
        .queries
        .iter()
        .map(|q| q.keywords.clone())
        .collect();
        let plan = holdout_plan(&data.db, IngestConfig::default());
        let expected: Vec<usize> = plan.batches.iter().map(Vec::len).collect();
        let w = MixedWorkload::interleave(plan, &queries, 9);
        let (q, ins) = w.counts();
        assert_eq!(q, 12);
        assert_eq!(ins, expected.len());
        // Batch order within the stream matches the schedule order.
        let seen: Vec<usize> = w
            .ops
            .iter()
            .filter_map(|op| match op {
                MixedOp::Insert(b) => Some(b.len()),
                MixedOp::Query(_) => None,
            })
            .collect();
        assert_eq!(seen, expected);
        // And the full stream still applies cleanly in emitted order.
        let mut db = w.initial.clone();
        for op in &w.ops {
            if let MixedOp::Insert(b) = op {
                db.insert_batch(b).unwrap();
            }
        }
        db.validate().unwrap();
    }
}
