//! Sharded scatter-gather serving — **Hot path 8**: the same
//! [`ServeRequests`] surface as the single-shard [`crate::SearchService`],
//! over K FK-closed partitions.
//!
//! Both services implement one typed seam, `submit_request(Request) ->
//! Ticket<Reply>`, plus the one blocking [`ServeRequests::search`]
//! convenience; `ServiceBuilder::new().workers(w).shards(k).start(snapshot)`
//! picks the deployment (`shards(1)` is the single service; durable +
//! sharded is refused as `Unsupported`). `examples/quickstart.rs` step 9
//! walks it end to end.
//!
//! ## Architecture
//!
//! Rows are partitioned across K shards by [`assign_shards`], which walks
//! the FK DAG parents-first and places each row on the hash shard of its
//! root ancestor's pk: whole foreign-key components land on one shard, so
//! every join tree an interpretation can execute stays *within* a shard and
//! the global result set is the disjoint union of the per-shard result
//! sets. A shard is nothing but rows: its own [`Database`], the map from
//! its local row ids back to global ones, and its own [`SnapshotEpoch`]
//! chain. An ingest touching shards {i, j} republishes only those two
//! shards; every other shard keeps its `Arc`'d rows. Replies carry the
//! per-shard epoch vector (`SearchReply::shard_epochs`). Ingest is the
//! single service's write shape plus a routing step
//! ([`ShardedService::ingest`]); `datagen::sharded_holdout_plan` fixes the
//! assignment over the full pre-holdout corpus so replayed batches always
//! route cleanly.
//!
//! Everything textual lives once, at the coordinator, as on the single
//! service:
//!
//! - the **inverted index** of the whole store: generation ranks on its
//!   global term statistics, and execution harvests each predicate's rows
//!   from it once,
//! - the **placement table**: per table, global `RowId` → primary key,
//!   shard and local row id. The pk mints [`crate::ResultKey`]s without a
//!   global database; the other two split candidate rows across shards,
//! - one [`SharedNonemptyCache`] and one [`SharedExecCache`] generation
//!   (predicate rows in global row ids, memoized results), swapped on every
//!   ingest like the single service's.
//!
//! ## Execution: the pipeline over a scatter-gather executor
//!
//! There is no sharded wave loop. A request is served by the same
//! `serve_request` → [`crate::QueryPipeline`] code as on a single store —
//! generation over the global index, waves, post-processing stages, result
//! memoization, reply assembly — with the coordinator plugged into the
//! pipeline's crate-private `Executor` seam for the two things that are
//! genuinely different here:
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
//! A sharded service therefore owns one `WorkerPool` of `workers`
//! threads, like the single service, and a panic anywhere in a scatter
//! unwinds into `serve_request`'s per-arm containment. The shards run one
//! after another: on IMDB the partition puts nearly every row on one shard
//! (kbench's `relstore.partition.skew` reads 3.87 of 4 at K=4), so there
//! is no parallel work to win yet.
//!
//! The one deliberate divergence: the `max_intermediate` abort guard fires
//! per shard, so a query that aborts on one big store may succeed sharded
//! (each shard's intermediate stays under the bound). The differential
//! fixtures never trigger the guard; byte-identity there is exact.
//!
//! ## Correctness spine
//!
//! `tests/serving`: K=4 answers byte-identical to the single-shard oracle
//! on all four fixtures under concurrent mixed-mode clients, every reply's
//! shard epoch vector checked (`sharded_identical_*`); each batch advances
//! exactly the owning shards' epochs
//! (`ingest_bumps_only_touched_shard_epochs`); an 8-client race against a
//! writer swapping shard epochs, every reply matching the unsharded oracle
//! of exactly the epoch it reports (`sharded_writer_swaps_epochs_mid_replay`);
//! K=4 and single-shard per-request wave-loop counters equal on cold
//! transcripts (`wave_counters_agree_across_topologies`); K=1 equal to the
//! single service (`one_shard_equals_the_single_service`). `smoke --serve`
//! replays a seeded query/insert interleave through 4 shards with one
//! worker and holds `shard_epoch_swaps`, `shards_touched`,
//! `shard_rows_skipped` and `sharded_stale_evictions` to the golden;
//! sharded latency is kbench's `sharded_mixed` workload.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use keybridge_index::InvertedIndex;
use keybridge_relstore::{
    assign_shards, execute_reduced_in, hash_shard, plan_join_order, reduce_join_tree,
    split_database, Candidates, Database, ExecOptions, ExecStats, JoinPlan, JoinTree, JoinedRow,
    RelResult, RowBatch, RowId, Schema, ShardAssignment, TableId, MAX_TABLE_ROWS,
};

use crate::exec::{bound_nodes, collect_result_keys, harvest_candidates, with_result_cache};
use crate::exec::{ExecCache, ExecutedResult, Executor, SharedExecCache};
use crate::generate::{Interpreter, SharedNonemptyCache};
use crate::interp::QueryInterpretation;
use crate::service::{
    serve_request, IngestError, IngestReceipt, Pinned, Reply, Request, SearchSnapshot,
    ServeRequests, ServiceError, ServiceStats, SnapshotEpoch, Ticket, WorkerPool,
};

// ---------------------------------------------------------------------------
// Published state.
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

/// One published generation of the whole sharded store: the shard vector
/// plus everything global. Swapped atomically under the writer lock, pinned
/// per request by the coordinator — the same snapshot-isolation discipline
/// as the single-shard `ServingState`.
struct ShardSet {
    /// Global epoch: one bump per accepted ingest (matches the single-shard
    /// oracle's epoch for the same replay).
    generation: SnapshotEpoch,
    shards: Vec<Arc<ShardState>>,
    /// The inverted index of the whole store, identical to the oracle's.
    index: Arc<InvertedIndex>,
    /// Per table: global row index → its [`Placement`]. Global row ids are
    /// minted off its lengths.
    placements: Arc<Vec<Vec<Placement>>>,
    /// Generation-side verdict cache (swapped every ingest).
    nonempty: Arc<SharedNonemptyCache>,
    /// Execution cache: predicate rows in global row ids and memoized
    /// results (swapped every ingest).
    exec: Arc<SharedExecCache>,
}

impl ShardSet {
    fn shard_epochs(&self) -> Vec<SnapshotEpoch> {
        self.shards.iter().map(|s| s.epoch).collect()
    }
}

/// Everything a request needs beside its pinned [`ShardSet`], cloneable
/// into the job closure.
#[derive(Clone)]
struct ServeCtx {
    base: Arc<SearchSnapshot>,
    /// Empty database over the schema — the generation side only reads
    /// schema names from it (verified: `tpl.signature(db)`), never rows.
    schema_db: Arc<Database>,
    /// Gathered-but-never-merged rows: what the bounded top-k merge left
    /// unconsumed once the global prefix was provably complete.
    shard_rows_skipped: Arc<AtomicUsize>,
}

// ---------------------------------------------------------------------------
// The service.
// ---------------------------------------------------------------------------

/// K-shard scatter-gather server behind the unified [`ServeRequests`]
/// seam. Answers are byte-identical (answer content: interpretations,
/// JTTs in global row ids, scores, keys) to a [`crate::SearchService`]
/// over the unsharded store; see the module docs for the argument.
///
/// Construct through [`crate::ServiceBuilder::shards`].
pub struct ShardedService {
    // Dropped first: joins the workers before anything they serve from.
    pool: WorkerPool,
    ctx: ServeCtx,
    current: Arc<Mutex<Arc<ShardSet>>>,
    served: Arc<AtomicUsize>,
    /// The writer lock, holding the global shard directory: `(table, pk) →
    /// shard` for every row ever placed — committed rows and (when started
    /// with a pre-computed plan) rows scheduled for future ingest. Routing
    /// honors scheduled placements so a replayed holdout lands exactly
    /// where the full-corpus partitioning put it.
    writer: Mutex<ShardAssignment>,
    epoch_swaps: AtomicUsize,
    shard_epoch_swaps: AtomicUsize,
    stale_evictions: AtomicUsize,
    rows_ingested: AtomicUsize,
}

impl ShardedService {
    /// Partition `snapshot`'s database into `shards` FK-closed shards (a
    /// deterministic LPT over the foreign-key components) and start serving
    /// on `workers` threads. Each request runs every shard's part of its
    /// executions on the one worker that serves it.
    pub fn start(snapshot: Arc<SearchSnapshot>, shards: usize, workers: usize) -> ShardedService {
        let assignment = assign_shards(&snapshot.db, shards.max(1));
        Self::start_with_assignment(snapshot, assignment, workers)
    }

    /// [`Self::start`] with an explicit shard directory. The assignment may
    /// cover *more* rows than the snapshot holds (a plan computed over a
    /// full corpus before rows were held out for replay); ingest then
    /// routes each held-out row to its planned shard. Every row the
    /// snapshot *does* hold must be assigned.
    pub fn start_with_assignment(
        snapshot: Arc<SearchSnapshot>,
        assignment: ShardAssignment,
        workers: usize,
    ) -> ShardedService {
        let split = split_database(&snapshot.db, &assignment)
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
        let shard_states: Vec<Arc<ShardState>> = split
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
        let set = Arc::new(ShardSet {
            generation: SnapshotEpoch::default(),
            shards: shard_states,
            index: Arc::new(snapshot.index.clone()),
            placements: Arc::new(placements),
            nonempty: Arc::new(SharedNonemptyCache::new()),
            exec: Arc::new(SharedExecCache::new()),
        });
        let schema_db = Arc::new(Database::new(snapshot.db.schema().clone()));
        ShardedService {
            pool: WorkerPool::start("kb-coord", workers),
            ctx: ServeCtx {
                base: snapshot,
                schema_db,
                shard_rows_skipped: Arc::new(AtomicUsize::new(0)),
            },
            current: Arc::new(Mutex::new(set)),
            served: Arc::new(AtomicUsize::new(0)),
            writer: Mutex::new(assignment),
            epoch_swaps: AtomicUsize::new(0),
            shard_epoch_swaps: AtomicUsize::new(0),
            stale_evictions: AtomicUsize::new(0),
            rows_ingested: AtomicUsize::new(0),
        }
    }

    /// The per-shard epoch vector of the currently published generation.
    pub fn shard_epochs(&self) -> Vec<SnapshotEpoch> {
        self.current.lock().unwrap().shard_epochs()
    }

    /// Apply one insert batch — the same write shape as
    /// [`crate::SearchService::ingest`] (see "The write path" in
    /// `core/service.rs`), with the whole sharded store standing in for "the
    /// database":
    ///
    /// 1. **Validate** with relstore's one batch validator
    ///    ([`Schema::validate_batch`]), its two lookups answered by the shard
    ///    directory and the placement table — so a batch is rejected here with
    ///    exactly the [`BatchError`](keybridge_relstore::BatchError) the
    ///    single service returns, before anything is cloned.
    /// 2. **Route** every row to the single shard its foreign-key parents
    ///    pin (planned placement honored, rootless rows hashed); a row whose
    ///    constraints disagree is [`IngestError::Unroutable`], still before
    ///    any clone.
    /// 3. **Clone from published**: only the touched shards' stores and row
    ///    maps, plus the global index and placement table.
    /// 4. **Apply** in batch order, then **swap** in a generation with fresh
    ///    caches in which only the touched shards carry a new epoch.
    pub fn ingest(&self, batch: &RowBatch) -> Result<IngestReceipt, IngestError> {
        let mut directory = self.writer.lock().unwrap();
        let set = Arc::clone(&self.current.lock().unwrap());
        let schema = self.ctx.base.db.schema();

        // Does (table, pk) exist in the *store*? The directory also holds
        // planned (not yet ingested) placements, so hint presence alone is
        // not existence — probe the hinted shard.
        let in_store = |table: TableId, pk: i64| -> Option<usize> {
            directory
                .shard_of(table, pk)
                .filter(|&s| set.shards[s].db.table(table).by_pk(pk).is_some())
        };
        // Global row ids are minted off the placement table, so its lengths
        // are the table sizes the capacity check must see.
        let row_pks = schema.validate_batch(
            batch,
            MAX_TABLE_ROWS,
            |table, pk| in_store(table, pk).is_some(),
            |table| set.placements[table.0 as usize].len(),
        )?;
        let batch_pos: HashMap<(u32, i64), usize> = batch
            .iter()
            .zip(&row_pks)
            .enumerate()
            .map(|(i, ((table, _), &pk))| ((table.0, pk), i))
            .collect();

        // Route every row to one shard. Multi-pass so intra-batch parents
        // may appear in any order; when a pass settles nothing (an
        // intra-batch fk cycle), the first pending row is pinned from
        // whatever constraints are already resolved.
        let resolve = |route: &[Option<usize>], i: usize, forced: bool| {
            let (table, row) = &batch[i];
            let pk = row_pks[i];
            resolve_route(
                schema, &directory, &set, &batch_pos, route, *table, row, pk, forced,
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
        // Every fk edge must be intra-shard, else a shard-local join would
        // drop results the oracle finds. Forced cycle resolution can in
        // principle split an edge; refuse such batches atomically.
        for (i, (table, row)) in batch.iter().enumerate() {
            let my_shard = route[i].expect("routed above");
            for (_, fk) in schema.fks().filter(|(_, fk)| fk.from.table == *table) {
                if let Some(key) = row[fk.from.attr.0 as usize].as_int() {
                    let parent_shard = in_store(fk.to.table, key)
                        .or_else(|| batch_pos.get(&(fk.to.table.0, key)).and_then(|&j| route[j]))
                        .expect("parent validated above");
                    if parent_shard != my_shard {
                        return Err(IngestError::Unroutable {
                            table: schema.table(*table).name.clone(),
                            key: row_pks[i],
                        });
                    }
                }
            }
        }

        // Clone only the touched shards' published rows (store, row map),
        // then apply in full batch order: insert locally, maintain the row
        // map, the global index, the placement table, and the directory.
        let mut forks: BTreeMap<usize, (Database, Vec<Vec<RowId>>)> = BTreeMap::new();
        for s in route.iter().map(|r| r.expect("routed")) {
            forks.entry(s).or_insert_with(|| {
                let old = &set.shards[s];
                ((*old.db).clone(), (*old.row_map).clone())
            });
        }
        let mut placements = (*set.placements).clone();
        let mut index = (*set.index).clone();
        for (i, (table, row)) in batch.iter().enumerate() {
            let s = route[i].expect("routed");
            let t = table.0 as usize;
            let (db, row_map) = forks.get_mut(&s).expect("touched shard");
            let local = db
                .insert(*table, row.clone())
                .expect("batch validated before apply");
            let global =
                RowId(u32::try_from(placements[t].len()).expect("capacity validated before apply"));
            row_map[t].push(global);
            index.index_row_values(schema, *table, global, row);
            placements[t].push(Placement {
                pk: row_pks[i],
                shard: s as u32,
                local,
            });
            directory.record(*table, row_pks[i], s);
        }

        // Publish: the generation and its caches are replaced, touched
        // shards bump their own epoch chain, every other shard keeps its Arc.
        let stale = set.nonempty.len() + set.exec.predicate_count() + set.exec.result_count();
        let mut shards = set.shards.clone();
        let touched = forks.len();
        for (s, (db, row_map)) in forks {
            shards[s] = Arc::new(ShardState {
                epoch: SnapshotEpoch(set.shards[s].epoch.0 + 1),
                db: Arc::new(db),
                row_map: Arc::new(row_map),
            });
        }
        let generation = SnapshotEpoch(set.generation.0 + 1);
        let next = Arc::new(ShardSet {
            generation,
            shards,
            index: Arc::new(index),
            placements: Arc::new(placements),
            nonempty: Arc::new(SharedNonemptyCache::new()),
            exec: Arc::new(SharedExecCache::new()),
        });
        *self.current.lock().unwrap() = next;
        self.epoch_swaps.fetch_add(1, Ordering::Relaxed);
        self.shard_epoch_swaps.fetch_add(touched, Ordering::Relaxed);
        self.stale_evictions.fetch_add(stale, Ordering::Relaxed);
        self.rows_ingested.fetch_add(batch.len(), Ordering::Relaxed);
        Ok(IngestReceipt {
            epoch: generation,
            rows: batch.len(),
        })
    }
}

impl ServeRequests for ShardedService {
    fn submit_request(&self, request: Request) -> Ticket<Reply> {
        let ctx = self.ctx.clone();
        // One generation pinned for the whole request: snapshot isolation
        // across every shard at once.
        self.pool
            .submit_pinned(&self.current, &self.served, move |set: &ShardSet| {
                let interpreter = coordinator_interpreter(&ctx, set);
                let pinned = Pinned {
                    interpreter: &interpreter,
                    executor: Coordinator { ctx: &ctx, set },
                    nonempty: &set.nonempty,
                    exec: &set.exec,
                    epoch: set.generation,
                    shard_epochs: set.shard_epochs(),
                };
                serve_request(&pinned, request)
            })
    }

    fn ingest_batch(&self, batch: &RowBatch) -> Result<IngestReceipt, ServiceError> {
        self.ingest(batch).map_err(ServiceError::from)
    }

    fn service_stats(&self) -> ServiceStats {
        let set = Arc::clone(&self.current.lock().unwrap());
        ServiceStats {
            served: self.served.load(Ordering::Relaxed),
            epoch: set.generation.0,
            epoch_swaps: self.epoch_swaps.load(Ordering::Relaxed),
            stale_evictions: self.stale_evictions.load(Ordering::Relaxed),
            rows_ingested: self.rows_ingested.load(Ordering::Relaxed),
            nonempty_entries: set.nonempty.len(),
            nonempty_hits: set.nonempty.hits(),
            predicate_entries: set.exec.predicate_count(),
            predicate_hits: set.exec.predicate_hits(),
            result_entries: set.exec.result_count(),
            result_hits: set.exec.result_hits(),
            shard_epoch_swaps: self.shard_epoch_swaps.load(Ordering::Relaxed),
            shard_rows_skipped: self.ctx.shard_rows_skipped.load(Ordering::Relaxed),
            // A shard's epoch chain starts at 0 and only ingest bumps it.
            shards_touched: set.shards.iter().filter(|s| s.epoch.0 > 0).count(),
            ..Default::default()
        }
    }

    fn serving_epoch(&self) -> SnapshotEpoch {
        self.current.lock().unwrap().generation
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
    set: &ShardSet,
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
            match planned.filter(|&s| set.shards[s].db.table(parent).by_pk(key).is_some()) {
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

/// The generation-side interpreter: global index (oracle-identical term
/// statistics), schema-only database (generation reads only schema names).
fn coordinator_interpreter<'a>(ctx: &'a ServeCtx, set: &'a ShardSet) -> Interpreter<'a> {
    Interpreter::new(
        &ctx.schema_db,
        &set.index,
        &ctx.base.catalog,
        ctx.base.config.clone(),
    )
}

/// The scatter-gather [`Executor`] the coordinator plugs into the shared
/// pipeline for one request: the service's context and one pinned
/// generation.
#[derive(Clone, Copy)]
struct Coordinator<'a> {
    ctx: &'a ServeCtx,
    set: &'a ShardSet,
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
        self.set.placements[table.0 as usize][row.index()].pk
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
    let Coordinator { ctx, set } = *coordinator;
    let tree = &ctx.base.catalog.get(interp.template).tree;
    let n = tree.nodes.len();

    // Harvest once over the global index, then split each restricted node's
    // sorted global rows into per-shard local lists in one pass over the
    // placement table. A shard's local ids follow global order, so every
    // list comes out sorted.
    let global = harvest_candidates(cache, &set.index, interp, &tree.nodes);
    let mut local = vec![Candidates::free(n); set.shards.len()];
    for (node, rows) in global.per_node.iter().enumerate() {
        let Some(rows) = rows else { continue };
        let placements = &set.placements[tree.nodes[node].0 as usize];
        let mut split = vec![Vec::new(); set.shards.len()];
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
    let mut reduced = Vec::with_capacity(set.shards.len());
    for (shard, candidates) in set.shards.iter().zip(&local) {
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
    ctx.shard_rows_skipped
        .fetch_add(total - consumed, Ordering::Relaxed);
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

// Everything a serving job touches crosses threads.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<ShardedService>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::InterpreterConfig;
    use keybridge_datagen::{ImdbConfig, ImdbDataset};
    use std::sync::mpsc::channel;
    use std::time::Duration;

    #[test]
    fn service_stats_does_not_wait_for_an_in_flight_ingest() {
        let data = ImdbDataset::generate(ImdbConfig::tiny(1)).unwrap();
        let snapshot =
            SearchSnapshot::build(data.db, InterpreterConfig::default(), 4, 50_000).unwrap();
        let service = Arc::new(ShardedService::start(Arc::new(snapshot), 2, 1));
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
