//! The partitioned store — **Hot path 8**: K FK-closed partitions of the
//! rows, the second store a [`crate::SearchService`] can serve, executed
//! through a scatter-gather coordinator.
//!
//! [`crate::SearchService::start_with_assignment`] (or
//! `ServiceBuilder::new().shards(k)` for `k > 1`) serves a
//! [`Partition`] instead of one [`SearchSnapshot`]. Everything that is not
//! the store — the worker pool, the request dispatcher, the session
//! registry, the writer lock, the counters, the publish step — is the
//! service's, written once in `core/service.rs`. This module owns what is
//! genuinely different: how the partition is cut, how a batch is validated,
//! routed and applied to it, and how one interpretation executes across it.
//! `examples/quickstart.rs` step 9 walks it end to end.
//!
//! ## Architecture
//!
//! Rows are partitioned across K shards by
//! [`assign_shards`](keybridge_relstore::assign_shards), which walks
//! the FK DAG parents-first and places each row on the hash shard of its
//! root ancestor's pk: whole foreign-key components land on one shard, so
//! every join tree an interpretation can execute stays *within* a shard and
//! the global result set is the disjoint union of the per-shard result
//! sets. A shard is nothing but rows: its own [`Database`], the map from
//! its local row ids back to global ones, and its own [`SnapshotEpoch`]
//! chain. An ingest touching shards {i, j} republishes only those two
//! shards; every other shard keeps its `Arc`'d rows. Replies carry the
//! per-shard epoch vector (`SearchReply::shard_epochs`).
//! `datagen::sharded_holdout_plan` fixes the assignment over the full
//! pre-holdout corpus so replayed batches always route cleanly.
//!
//! Everything textual lives once, in the partition, as in one store:
//!
//! - the **inverted index** of the whole store: generation ranks on its
//!   global term statistics, and execution harvests each predicate's rows
//!   from it once,
//! - the **placement table**: per table, global `RowId` → primary key,
//!   shard and local row id. The pk mints [`crate::ResultKey`]s without a
//!   global database; the other two split candidate rows across shards.
//!
//! The cache generation (one [`crate::SharedNonemptyCache`] and one
//! [`crate::SharedExecCache`], predicate rows in global row ids) is the
//! service's, swapped on every ingest whatever the store.
//!
//! ## Ingest
//!
//! The service's write path runs the partition's arm at two steps:
//! [`Partition::route`] validates (relstore's one validator, its lookups
//! answered by the shard directory and placement table, so the
//! [`BatchError`](keybridge_relstore::BatchError) is the one store's) and
//! routes every row to the one shard its parents pin, before the WAL step;
//! [`Partition::apply`] clones only the touched shards, the index and the
//! placement table, and returns the next partition.
//!
//! ## Execution: the pipeline over a scatter-gather executor
//!
//! There is no sharded wave loop. A request is served by the same
//! `serve_request` → [`crate::QueryPipeline`] code as on one store —
//! generation over the global index, waves, post-processing stages, result
//! memoization, reply assembly, session windows — with the [`Coordinator`]
//! plugged into the pipeline's crate-private `Executor` seam for the two
//! things that are genuinely different here:
//!
//! - **Key minting** from the placement table (`Executor::pk`), the
//!   stand-in for `db.pk_value` where no global database exists.
//! - **Executing one interpretation** (`Executor::execute`), memoized
//!   through the request's [`ExecCache`] as on one store and otherwise
//!   scattered over the shards, all on the worker already serving the
//!   request:
//!   1. **Harvest + split**: harvest the candidate rows once, over the
//!      global index through the request's cache, then split each
//!      restricted node's sorted global rows into one sorted local list per
//!      shard in a single pass over the placement table. Free nodes stay
//!      free on every shard.
//!   2. **Reduce**: for each shard in shard order, run the full Yannakakis
//!      semi-join reduction over its lists and add its per-node `given` and
//!      reduced-set cardinalities to the sums.
//!   3. **Plan forcing + bounded merge**: under FK-closed partitioning the
//!      sums equal the single-store values, so one [`JoinPlan`] computed
//!      from them is the oracle's. Every shard enumerates its
//!      (limit-capped) result prefix under that plan and translates local
//!      row ids to global through its monotone row map; a k-way merge by
//!      the plan's visit-order row tuple stops at the limit. Because the
//!      executor enumerates lexicographically in visit order and each
//!      shard's output is the order-preserved restriction of the global
//!      enumeration, the merged prefix is **byte-identical** to the
//!      single-store oracle.
//!
//! A panic anywhere in a scatter unwinds into `serve_request`'s per-arm
//! containment. The shards run one after another: on IMDB the partition
//! puts nearly every row on one shard (kbench's `relstore.partition.skew`
//! reads 3.87 of 4 at K=4), so there is no parallel work to win yet.
//!
//! The one deliberate divergence: the `max_intermediate` abort guard fires
//! per shard, so a query that aborts on one big store may succeed sharded
//! (each shard's intermediate stays under the bound). The differential
//! fixtures never trigger the guard; byte-identity there is exact.
//!
//! **Why one store is not a one-shard partition.** A K=1 partition answers
//! as one store does (`one_shard_equals_the_single_service`) but copies the
//! database into its shard, clones the index, builds the placement table
//! and shard directory, and splits candidates on every execution. On kbench
//! `scale_search` (2 cores, 20 s runs) it cost +64% `setup_s`, −20%
//! `sat_ops_s` and +32% `rss_peak_mb` against one store, so the service
//! picks the arm from K.
//!
//! ## Correctness spine
//!
//! `tests/serving`: K=4 answers byte-identical to the single-store oracle
//! on all four fixtures under concurrent mixed-mode clients, every reply's
//! shard epoch vector checked (`sharded_identical_*`); seeded histories on
//! the K=4 target draw every request arm, construction sessions included,
//! against the same cold oracles as one store (`seeded_histories_sharded`);
//! each batch advances exactly the owning shards' epochs
//! (`ingest_bumps_only_touched_shard_epochs`); an 8-client race against a
//! writer swapping shard epochs, every reply matching the unsharded oracle
//! of exactly the epoch it reports (`sharded_writer_swaps_epochs_mid_replay`);
//! K=4 and single-store per-request wave-loop counters equal on cold
//! transcripts (`wave_counters_agree_across_topologies`); K=1 equal to one
//! store (`one_shard_equals_the_single_service`). `smoke --serve` replays a
//! seeded query/insert interleave through 4 shards with one worker and
//! holds `shard_epoch_swaps`, `shards_touched`, `shard_rows_skipped` and
//! `sharded_stale_evictions` to the golden; sharded latency is kbench's
//! `sharded_mixed` workload.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use keybridge_index::InvertedIndex;
use keybridge_relstore::{
    execute_reduced_in, hash_shard, plan_join_order, reduce_join_tree, split_database, Candidates,
    Database, ExecOptions, ExecStats, JoinPlan, JoinTree, JoinedRow, RelResult, RowBatch, RowId,
    Schema, ShardAssignment, TableId, MAX_TABLE_ROWS,
};

use crate::exec::{bound_nodes, collect_result_keys, harvest_candidates, with_result_cache};
use crate::exec::{ExecCache, ExecutedResult, Executor};
use crate::generate::Interpreter;
use crate::interp::QueryInterpretation;
use crate::service::{IngestError, SearchSnapshot, SnapshotEpoch};
use crate::template::TemplateCatalog;

// ---------------------------------------------------------------------------
// The partition.
// ---------------------------------------------------------------------------

/// One shard's immutable rows. Untouched shards keep their `Arc` across
/// ingests.
struct ShardState {
    /// This shard's own epoch chain: bumped only when an ingest routes rows
    /// *here*.
    epoch: SnapshotEpoch,
    db: Arc<Database>,
    /// Per table: local row index → global [`RowId`]. Strictly increasing,
    /// because a shard's rows are inserted in global order.
    row_map: Arc<Vec<Vec<RowId>>>,
}

/// Where one global row lives.
#[derive(Clone, Copy)]
struct Placement {
    pk: i64,
    shard: u32,
    /// The row's id in its shard's [`Database`].
    local: RowId,
}

/// One published version of a partitioned store: the shard vector plus
/// everything global. The service publishes it inside its serving state, so
/// a request pins every shard at once (snapshot isolation across shards).
pub(crate) struct Partition {
    shards: Vec<Arc<ShardState>>,
    /// The inverted index of the whole store, identical to the oracle's.
    index: Arc<InvertedIndex>,
    /// Per table: global row index → its [`Placement`]. Global row ids are
    /// minted off its lengths.
    placements: Arc<Vec<Vec<Placement>>>,
    /// The snapshot the partition was cut from: catalog, interpreter
    /// configuration and schema, which no ingest changes.
    base: Arc<SearchSnapshot>,
    /// Empty database over the schema — the generation side only reads
    /// schema names from it (verified: `tpl.signature(db)`), never rows.
    schema_db: Arc<Database>,
}

/// A validated batch's destination: per batch row, its primary key and the
/// shard it lands on.
pub(crate) struct Route {
    pks: Vec<i64>,
    shards: Vec<usize>,
}

impl Partition {
    /// Cut `snapshot`'s rows along `assignment` (see
    /// [`crate::SearchService::start_with_assignment`]).
    pub(crate) fn new(snapshot: Arc<SearchSnapshot>, assignment: &ShardAssignment) -> Partition {
        let split = split_database(&snapshot.db, assignment)
            .expect("shard assignment covers every snapshot row");
        let table_count = snapshot.db.schema().table_count();
        let mut placements: Vec<Vec<Placement>> = (0..table_count)
            .map(|t| {
                let table = TableId(t as u32);
                snapshot
                    .db
                    .table(table)
                    .rows()
                    .map(|(r, _)| Placement {
                        pk: snapshot.db.pk_value(table, r),
                        shard: 0,
                        local: RowId(0),
                    })
                    .collect()
            })
            .collect();
        for (shard, row_map) in split.row_maps.iter().enumerate() {
            for (table, globals) in placements.iter_mut().zip(row_map) {
                for (local, global) in globals.iter().enumerate() {
                    let p = &mut table[global.index()];
                    p.shard = shard as u32;
                    p.local = RowId(local as u32);
                }
            }
        }
        let shards = split
            .dbs
            .into_iter()
            .zip(split.row_maps)
            .map(|(db, row_map)| {
                Arc::new(ShardState {
                    epoch: SnapshotEpoch::default(),
                    db: Arc::new(db),
                    row_map: Arc::new(row_map),
                })
            })
            .collect();
        Partition {
            shards,
            index: Arc::new(snapshot.index.clone()),
            placements: Arc::new(placements),
            schema_db: Arc::new(Database::new(snapshot.db.schema().clone())),
            base: snapshot,
        }
    }

    pub(crate) fn shard_epochs(&self) -> Vec<SnapshotEpoch> {
        self.shards.iter().map(|s| s.epoch).collect()
    }

    /// Distinct shards ever touched by ingest: a shard's epoch chain starts
    /// at 0 and only ingest bumps it.
    pub(crate) fn shards_touched(&self) -> usize {
        self.shards.iter().filter(|s| s.epoch.0 > 0).count()
    }

    pub(crate) fn catalog(&self) -> &TemplateCatalog {
        &self.base.catalog
    }

    /// The generation-side interpreter: global index (oracle-identical term
    /// statistics), schema-only database (generation reads only schema
    /// names).
    pub(crate) fn interpreter(&self) -> Interpreter<'_> {
        Interpreter::new(
            &self.schema_db,
            &self.index,
            &self.base.catalog,
            self.base.config.clone(),
        )
    }

    /// The scatter-gather executor over this partition, counting the rows
    /// its bounded merges leave unread into `skipped`.
    pub(crate) fn coordinator<'a>(&'a self, skipped: &'a AtomicUsize) -> Coordinator<'a> {
        Coordinator {
            part: self,
            skipped,
        }
    }

    /// Steps 1–2 of the partition's ingest arm (module docs): validate
    /// `batch` against the published partition and route every row to one
    /// shard. `directory` is the writer's shard directory: `(table, pk) →
    /// shard` for every row ever placed — committed rows and (when started
    /// with a pre-computed plan) rows scheduled for future ingest. Routing
    /// honors scheduled placements so a replayed holdout lands exactly where
    /// the full-corpus partitioning put it.
    pub(crate) fn route(
        &self,
        batch: &RowBatch,
        directory: &ShardAssignment,
    ) -> Result<Route, IngestError> {
        let schema = self.base.db.schema();
        // Does (table, pk) exist in the *store*? The directory also holds
        // planned (not yet ingested) placements, so hint presence alone is
        // not existence — probe the hinted shard.
        let in_store = |table: TableId, pk: i64| -> Option<usize> {
            directory
                .shard_of(table, pk)
                .filter(|&s| self.shards[s].db.table(table).by_pk(pk).is_some())
        };
        // Global row ids are minted off the placement table, so its lengths
        // are the table sizes the capacity check must see.
        let pks = schema.validate_batch(
            batch,
            MAX_TABLE_ROWS,
            |table, pk| in_store(table, pk).is_some(),
            |table| self.placements[table.0 as usize].len(),
        )?;
        let batch_pos: HashMap<(u32, i64), usize> = batch
            .iter()
            .zip(&pks)
            .enumerate()
            .map(|(i, ((table, _), &pk))| ((table.0, pk), i))
            .collect();

        // Multi-pass so intra-batch parents may appear in any order; when a
        // pass settles nothing (an intra-batch fk cycle), the first pending
        // row is pinned from whatever constraints are already resolved.
        let resolve = |route: &[Option<usize>], i: usize, forced: bool| {
            let (table, row) = &batch[i];
            resolve_route(
                schema, directory, self, &batch_pos, route, *table, row, pks[i], forced,
            )
        };
        let mut route: Vec<Option<usize>> = vec![None; batch.len()];
        while let Some(first) = route.iter().position(Option::is_none) {
            let mut progressed = false;
            for i in first..batch.len() {
                if route[i].is_none() {
                    route[i] = resolve(&route, i, false)?;
                    progressed |= route[i].is_some();
                }
            }
            if !progressed {
                route[first] = resolve(&route, first, true)?;
            }
        }
        let shards: Vec<usize> = route.into_iter().map(|r| r.expect("routed")).collect();
        // Every fk edge must be intra-shard, else a shard-local join would
        // drop results the oracle finds. Forced cycle resolution can in
        // principle split an edge; refuse such batches atomically.
        for (i, (table, row)) in batch.iter().enumerate() {
            for (_, fk) in schema.fks().filter(|(_, fk)| fk.from.table == *table) {
                if let Some(key) = row[fk.from.attr.0 as usize].as_int() {
                    let parent_shard = in_store(fk.to.table, key)
                        .or_else(|| batch_pos.get(&(fk.to.table.0, key)).map(|&j| shards[j]))
                        .expect("parent validated above");
                    if parent_shard != shards[i] {
                        return Err(IngestError::Unroutable {
                            table: schema.table(*table).name.clone(),
                            key: pks[i],
                        });
                    }
                }
            }
        }
        Ok(Route { pks, shards })
    }

    /// Step 3 of the partition's ingest arm: the next partition, with
    /// `batch` inserted along `route` (which [`Self::route`] computed against
    /// this partition) and recorded in `directory`. Clones only the touched
    /// shards' published rows (store, row map), plus the global index and
    /// placement table; every other shard keeps its `Arc`. Returns the
    /// partition and the number of shards touched.
    pub(crate) fn apply(
        &self,
        batch: &RowBatch,
        route: Route,
        directory: &mut ShardAssignment,
    ) -> (Partition, usize) {
        let schema = self.base.db.schema();
        let mut forks: BTreeMap<usize, (Database, Vec<Vec<RowId>>)> = BTreeMap::new();
        for &s in &route.shards {
            forks.entry(s).or_insert_with(|| {
                let old = &self.shards[s];
                ((*old.db).clone(), (*old.row_map).clone())
            });
        }
        let mut placements = (*self.placements).clone();
        let mut index = (*self.index).clone();
        for (i, (table, row)) in batch.iter().enumerate() {
            let (s, t) = (route.shards[i], table.0 as usize);
            let (db, row_map) = forks.get_mut(&s).expect("touched shard");
            let local = db
                .insert(*table, row.clone())
                .expect("batch validated before apply");
            let global =
                RowId(u32::try_from(placements[t].len()).expect("capacity validated before apply"));
            row_map[t].push(global);
            index.index_row_values(schema, *table, global, row);
            placements[t].push(Placement {
                pk: route.pks[i],
                shard: s as u32,
                local,
            });
            directory.record(*table, route.pks[i], s);
        }
        let touched = forks.len();
        let mut shards = self.shards.clone();
        for (s, (db, row_map)) in forks {
            shards[s] = Arc::new(ShardState {
                epoch: SnapshotEpoch(self.shards[s].epoch.0 + 1),
                db: Arc::new(db),
                row_map: Arc::new(row_map),
            });
        }
        let next = Partition {
            shards,
            index: Arc::new(index),
            placements: Arc::new(placements),
            base: Arc::clone(&self.base),
            schema_db: Arc::clone(&self.schema_db),
        };
        (next, touched)
    }
}

// ---------------------------------------------------------------------------
// Ingest helpers.
// ---------------------------------------------------------------------------

/// The shard one batch row must land on: the one its planned placement in
/// the directory and every foreign-key parent's shard agree on, or the hash
/// of its key when nothing constrains it. `Ok(None)` means an intra-batch
/// parent is not routed yet — try again next pass; `forced` skips such
/// parents instead, so it always settles. Constraints that name different
/// shards make the row unroutable.
#[allow(clippy::too_many_arguments)]
fn resolve_route(
    schema: &Schema,
    directory: &ShardAssignment,
    part: &Partition,
    batch_pos: &HashMap<(u32, i64), usize>,
    route: &[Option<usize>],
    table: TableId,
    row: &[keybridge_relstore::Value],
    pk: i64,
    forced: bool,
) -> Result<Option<usize>, IngestError> {
    let mut req = directory.shard_of(table, pk);
    for (_, fk) in schema.fks().filter(|(_, fk)| fk.from.table == table) {
        let Some(key) = row[fk.from.attr.0 as usize].as_int() else {
            continue;
        };
        let parent = fk.to.table;
        let planned = directory.shard_of(parent, key);
        let parent_shard =
            match planned.filter(|&s| part.shards[s].db.table(parent).by_pk(key).is_some()) {
                Some(s) => Some(s),
                None => match batch_pos.get(&(parent.0, key)) {
                    Some(&j) if route[j].is_none() && !forced => return Ok(None),
                    Some(&j) => route[j],
                    // Validated, so the parent is in the store or the batch
                    // (both handled above); fall back to its planned shard.
                    None => planned,
                },
            };
        if parent_shard.is_some_and(|s| *req.get_or_insert(s) != s) {
            return Err(IngestError::Unroutable {
                table: schema.table(table).name.clone(),
                key: pk,
            });
        }
    }
    Ok(Some(req.unwrap_or_else(|| {
        hash_shard(table, pk, directory.shards())
    })))
}

// ---------------------------------------------------------------------------
// Scatter-gather execution.
// ---------------------------------------------------------------------------

/// The scatter-gather [`Executor`] a partitioned service plugs into the
/// shared pipeline for one request: one pinned partition and the service's
/// skipped-rows counter.
#[derive(Clone, Copy)]
pub(crate) struct Coordinator<'a> {
    part: &'a Partition,
    skipped: &'a AtomicUsize,
}

impl Executor for Coordinator<'_> {
    fn execute(
        &self,
        interp: &QueryInterpretation,
        opts: ExecOptions,
        cache: &mut ExecCache,
    ) -> RelResult<Arc<ExecutedResult>> {
        with_result_cache(cache, interp, opts, |cache| {
            scatter_execute(self, interp, opts, cache)
        })
    }

    fn pk(&self, table: TableId, row: RowId) -> i64 {
        self.part.placements[table.0 as usize][row.index()].pk
    }
}

/// Execute one interpretation across every shard and merge the prefixes
/// into the oracle's result (see the module docs for why the merge is
/// byte-identical). Runs on the calling worker, harvesting and joining
/// through `cache`. Returns global row ids.
fn scatter_execute(
    coordinator: &Coordinator<'_>,
    interp: &QueryInterpretation,
    opts: ExecOptions,
    cache: &mut ExecCache,
) -> RelResult<ExecutedResult> {
    let Coordinator { part, skipped } = *coordinator;
    let tree = &part.base.catalog.get(interp.template).tree;
    let n = tree.nodes.len();

    // Harvest once over the global index, then split each restricted node's
    // sorted global rows into per-shard local lists in one pass over the
    // placement table. A shard's local ids follow global order, so every
    // list comes out sorted.
    let global = harvest_candidates(cache, &part.index, interp, &tree.nodes);
    let mut local = vec![Candidates::free(n); part.shards.len()];
    for (node, rows) in global.per_node.iter().enumerate() {
        let Some(rows) = rows else { continue };
        let placements = &part.placements[tree.nodes[node].0 as usize];
        let mut split = vec![Vec::new(); part.shards.len()];
        for row in rows {
            let p = placements[row.index()];
            split[p.shard as usize].push(p.local);
        }
        for (candidates, rows) in local.iter_mut().zip(split) {
            candidates.per_node[node] = Some(rows);
        }
    }

    // Every shard reduces its lists. Under FK-closed partitioning the global
    // reduced set per node is the disjoint union of the per-shard sets, so
    // the summed cardinalities equal the oracle's values. Reduction errors
    // are schema-level (tree validation): every shard fails identically,
    // exactly as the oracle would.
    let mut given_sum = vec![0usize; n];
    let mut size_sum = vec![0usize; n];
    let mut stats = ExecStats::default();
    let mut reduced = Vec::with_capacity(part.shards.len());
    for (shard, candidates) in part.shards.iter().zip(&local) {
        let red = reduce_join_tree(&shard.db, tree, candidates)?;
        for i in 0..n {
            given_sum[i] += red.given[i];
            size_sum[i] += red.sets[i].len();
        }
        stats.absorb(&red.stats);
        reduced.push((shard, red.sets));
    }
    // Oracle mirror: `execute_join_tree_with_stats_in` returns empty
    // (reduction stats only) when any *global* reduced set is empty.
    if size_sum.contains(&0) {
        return Ok(ExecutedResult {
            jtts: Vec::new(),
            keys: BTreeSet::new(),
            all_keys: BTreeSet::new(),
            stats,
        });
    }

    // Force the oracle's plan (computed from the summed cardinalities) on
    // every shard, translating each limit-capped prefix to global row ids
    // through the shard's row map.
    let plan = plan_join_order(tree, &given_sum, &size_sum);
    let mut shard_rows: Vec<Vec<JoinedRow>> = Vec::with_capacity(reduced.len());
    for (shard, sets) in reduced {
        let out = execute_reduced_in(&shard.db, tree, sets, &plan, opts, &mut cache.arena)?;
        stats.absorb(&out.stats);
        shard_rows.push(
            out.rows
                .into_iter()
                .map(|jtt| {
                    jtt.iter()
                        .enumerate()
                        .map(|(node, local)| {
                            shard.row_map[tree.nodes[node].0 as usize][local.index()]
                        })
                        .collect()
                })
                .collect(),
        );
    }

    // Bounded merge: the executor enumerates lexicographically by the plan's
    // visit-order row tuple, and shard row maps are monotone, so each shard's
    // prefix arrives already sorted by the *global* visit tuple. Cross-shard
    // tuples never compare equal (row ownership is disjoint), so a k-way
    // streaming min-merge that stops at `opts.limit` yields byte-for-byte the
    // same prefix as concatenate + sort + truncate — without ever looking at
    // the rows the merge leaves behind.
    let visit = visit_order(tree, &plan);
    fn key<'a>(visit: &'a [usize], row: &'a JoinedRow) -> impl Iterator<Item = RowId> + 'a {
        visit.iter().map(move |&v| row[v])
    }
    let total: usize = shard_rows.iter().map(Vec::len).sum();
    let mut idx = vec![0usize; shard_rows.len()];
    let mut merged: Vec<JoinedRow> = Vec::with_capacity(opts.limit.min(total));
    while merged.len() < opts.limit {
        let mut best: Option<usize> = None;
        for (s, rows) in shard_rows.iter().enumerate() {
            if idx[s] < rows.len()
                && best.is_none_or(|b| {
                    key(&visit, &rows[idx[s]])
                        .cmp(key(&visit, &shard_rows[b][idx[b]]))
                        .is_lt()
                })
            {
                best = Some(s);
            }
        }
        let Some(s) = best else { break };
        merged.push(std::mem::take(&mut shard_rows[s][idx[s]]));
        idx[s] += 1;
    }
    let consumed: usize = idx.iter().sum();
    skipped.fetch_add(total - consumed, Ordering::Relaxed);
    stats.result_count = merged.len();
    let bound = bound_nodes(interp, n);
    let (keys, all_keys) = collect_result_keys(coordinator, &tree.nodes, &bound, &merged);
    Ok(ExecutedResult {
        jtts: merged,
        keys,
        all_keys,
        stats,
    })
}

/// Node visit order of a plan: the seed, then each attached edge's new
/// node — the column order the executor's enumeration is lexicographic in.
fn visit_order(tree: &JoinTree, plan: &JoinPlan) -> Vec<usize> {
    let mut joined = vec![false; tree.nodes.len()];
    joined[plan.seed] = true;
    let mut visit = Vec::with_capacity(tree.nodes.len());
    visit.push(plan.seed);
    for &ei in &plan.attach {
        let e = &tree.edges[ei];
        let new = if joined[e.a] { e.b } else { e.a };
        joined[new] = true;
        visit.push(new);
    }
    visit
}

#[cfg(test)]
mod tests {
    use crate::generate::InterpreterConfig;
    use crate::service::{SearchService, SearchSnapshot, ServeRequests};
    use keybridge_datagen::{ImdbConfig, ImdbDataset};
    use keybridge_relstore::assign_shards;
    use std::sync::mpsc::channel;
    use std::sync::Arc;
    use std::time::Duration;

    #[test]
    fn service_stats_does_not_wait_for_an_in_flight_ingest() {
        let data = ImdbDataset::generate(ImdbConfig::tiny(1)).unwrap();
        let snapshot =
            SearchSnapshot::build(data.db, InterpreterConfig::default(), 4, 50_000).unwrap();
        let assignment = assign_shards(&snapshot.db, 2);
        let service = Arc::new(SearchService::start_with_assignment(
            Arc::new(snapshot),
            assignment,
            1,
        ));
        // `ingest` holds the writer lock across its O(shard) clones; hold it
        // here and read the stats from another thread.
        let in_flight_ingest = service.writer.lock().unwrap();
        let (tx, rx) = channel();
        let reader = Arc::clone(&service);
        let probe = std::thread::spawn(move || {
            let _ = tx.send(reader.service_stats());
        });
        let stats = rx
            .recv_timeout(Duration::from_secs(30))
            .expect("service_stats blocked behind the writer lock");
        assert_eq!(stats.shards_touched, 0);
        drop(in_flight_ingest);
        probe.join().unwrap();
    }
}
