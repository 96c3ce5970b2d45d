//! Concurrent query serving — **Hot path 3** (snapshot serving), **Hot
//! path 4** (live ingestion) and **Hot path 8** (the Request/Reply seam).
//!
//! There is one service type, [`SearchService`]. It serves one of two
//! stores: **one store**, a [`SearchSnapshot`] (database, index, catalog and
//! interpreter configuration behind one `Arc`) run by the local executor
//! ([`SearchService::start`], [`SearchService::start_durable`],
//! [`SearchService::open`]); or a **K-shard partition** of the same rows
//! run by a scatter-gather coordinator (`core/sharded.rs`;
//! [`SearchService::start_with_assignment`], any K). Everything else is
//! written once: one `WorkerPool`, one `serve_request` dispatcher over the
//! [`QueryPipeline`], one session registry, one write path, one publish
//! step, one set of counters. The store is matched only where it differs —
//! the interpreter and executor of a request, the validate and apply steps
//! of a write. [`ServiceBuilder`] picks the store from `shards(k)`; why K=1
//! stays one store is measured in `core/sharded.rs`.
//!
//! ## Serving: shared caches per epoch
//!
//! The pipeline is read-only over the published store. What needs
//! coordination is the derived state queries build as they run:
//! non-emptiness verdicts, predicate row sets and complete results. The
//! service keeps those in process-wide, lock-striped maps
//! ([`SharedNonemptyCache`], [`SharedExecCache`]) handed to every request as
//! the backing tier of its per-query caches — one user's pruning work prunes
//! every other user's search (the Mragyati/EMBANKS observation). Sharing is
//! *result-invariant by construction*: verdicts and predicate row sets are
//! pure facts about the indexed database, and only complete execution
//! results are shared, so a warm, contended service returns exactly what a
//! cold single-threaded [`Interpreter`] returns — on all four fixtures and
//! both stores (`tests/serving`: `concurrent_identical_*`,
//! `sharded_identical_*`, eight clients in
//! `stress_overlapping_logs_warm_caches`). Outside a service the same seam
//! is `Interpreter::answers_top_k_with_caches` over caches built by
//! [`NonemptyCache::with_shared`] / [`ExecCache::with_shared`]. Throughput
//! and latency are kbench's (`hot_interactive`, `scale_search`); `smoke
//! --serve` keeps one closed-loop replay as the multi-core check (on ≥ 4
//! cores, 4 workers under 1.3x the 1-worker QPS fails; printed, never
//! written).
//!
//! Every serving mode is a [`Request`] value; [`ServeRequests::submit_request`]
//! returns a [`Ticket`] resolving to the matching [`Reply`] arm, and that
//! (plus [`ServeRequests::search`]) is the whole request surface every
//! harness drives. A `WorkerPool` thread pins the current serving state and
//! `serve_request` runs the pipeline over its interpreter, cache generation
//! and executor — panic containment per arm and completion stamps live
//! there, once. Construction sessions (ch. 3) are served by the registry
//! ([`SearchService::open_session`] and friends) on either store.
//!
//! ## Live ingestion: epochs and the write path
//!
//! The store a reader sees never changes; a write publishes a whole new
//! **epoch** — rebuild-and-swap behind a `Mutex<Arc<..>>`, the std-only
//! `ArcSwap` idiom. The writer *is* the latest published epoch, and the
//! writer lock guards only the right to replace it (and, on a partition,
//! the shard directory that routes new rows). [`SearchService::ingest`]
//! takes a [`RowBatch`] through these steps under that lock:
//!
//! 1. **Poison check** — a durable service whose log failed refuses writes.
//! 2. **Validate** the batch *as a unit* with relstore's one batch validator
//!    (`Schema::validate_batch`: arity, types, pk uniqueness against store +
//!    batch, table capacity, referential integrity with intra-batch parents
//!    allowed) — through [`Database::validate_batch`] on one store; on a
//!    partition through the shard directory and placement table, followed
//!    by **routing** each row to the one shard its parents pin (else
//!    [`IngestError::Unroutable`]). A rejection is a typed error naming the
//!    table and batch row, has cost O(batch) and touched neither memory nor
//!    disk, and is the same [`BatchError`] from either store
//!    (`rejections_are_identical_across_topologies`).
//! 3. **Log** — durable services only: append one CRC-framed WAL record and
//!    fsync it. A failed append poisons the service and returns with
//!    **nothing in memory** to roll back.
//! 4. **Apply** to copies of the published store. One store clones its
//!    [`Database`] and [`InvertedIndex`] — the one O(database) step of a
//!    write, outside the lock readers pin through (making it O(batch) is
//!    ROADMAP Open item 3) — and runs `apply_batch`: `insert_batch`, then an
//!    `index_batch` posting splice whose online stats keep ATF/IDF
//!    *bit-identical* to a rebuild (`textindex/tests/incremental.rs`);
//!    recovery replays through the same helper. A partition clones only the
//!    touched shards' rows plus its index and placement table.
//! 5. **Publish** the next [`SnapshotEpoch`] under one fresh cache
//!    generation and count it once (`epoch_swaps`, `stale_evictions`,
//!    `rows_ingested`, `shard_epoch_swaps`). The catalog transfers
//!    unchanged. Readers never block beyond this pointer store; every reply
//!    carries its epoch ([`SearchReply::epoch`]) and, on a partition, the
//!    per-shard epoch vector.
//! 6. **Auto-checkpoint** once a durable service's `checkpoint_every` is
//!    reached.
//!
//! **Cache generations.** Each epoch's shared caches are bundled with its
//! store in one `ServingState` `Arc` that workers load atomically per
//! request, so state computed against epoch *n* is structurally unreachable
//! from epoch *n + 1* — no tagging, no invalidation sweep. The displaced
//! generation's entries are counted in [`ServiceStats::stale_evictions`] and
//! freed when the last request or session pinning that epoch lets go
//! (snapshot isolation).
//!
//! Correctness spine (`tests/serving`): after every batch of an FK-safe
//! randomized schedule (`datagen::holdout_plan`), the live-updated warm
//! service answers byte-identically (score bits included) to a cold
//! [`Interpreter`] over a rebuilt store, on all four fixtures × 3 seeds;
//! writer-race histories match every racing reply to the oracle of the
//! epoch it reports and require every epoch observed. `smoke --check` holds
//! `ingest_rows` / `ingest_batches` / `epoch_swaps` / `stale_evictions` to
//! the golden.
//!
//! ## Durability: WAL + checkpoints — **Hot path 6**
//!
//! A service started with [`SearchService::start_durable`] (or recovered
//! with [`SearchService::open`]) survives process death; it serves one store
//! (a durable partition needs a checkpoint format for K stores). Every
//! accepted batch is fsynced to the WAL *before* its epoch is published;
//! [`SearchService::checkpoint`] folds the log into an atomic `snapshot.kb`
//! and truncates it. Recovery loads the snapshot, replays the WAL tail
//! (discarding a torn final record), rebuilds the catalog under the
//! [`DurableOptions`] the store was started with (`start_durable` refuses a
//! snapshot built under others), and serves the newest durable epoch — the
//! kill-matrix histories kill the service at every [`FaultPoint`] and hold
//! recovered answers to a never-crashed oracle.

use crate::construct::{ConstructionOption, ConstructionSession, SessionConfig};
use crate::exec::{ExecCache, ExecutedResult, Executor, SharedExecCache};
use crate::generate::{
    AnswerStats, GenerationStats, Interpreter, InterpreterConfig, NonemptyCache, RankedAnswer,
    ScoredInterpretation, SharedNonemptyCache,
};
use crate::keyword::KeywordQuery;
use crate::pipeline::{DiversifiedAnswer, DiversifyOptions, QueryPipeline};
use crate::sharded::Partition;
use crate::template::TemplateCatalog;
use crate::wal::{
    read_snapshot_file, scan_wal, write_snapshot_file, DurabilityError, FaultPlan, FaultPoint, Wal,
    SNAPSHOT_FILE,
};
use keybridge_index::InvertedIndex;
use keybridge_relstore::{
    assign_shards, BatchError, Database, ExecOptions, RelResult, RowBatch, RowId, ShardAssignment,
    TableId,
};
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

/// An immutable, `Arc`-shared view of everything a query needs: database,
/// inverted index, template catalog, and the interpreter configuration.
/// Building one up front and sharing it is what lets N workers serve
/// without any per-query setup cost or data duplication.
#[derive(Debug)]
pub struct SearchSnapshot {
    pub db: Database,
    pub index: InvertedIndex,
    pub catalog: TemplateCatalog,
    pub config: InterpreterConfig,
}

impl SearchSnapshot {
    /// Bundle prebuilt parts into a snapshot.
    pub fn new(
        db: Database,
        index: InvertedIndex,
        catalog: TemplateCatalog,
        config: InterpreterConfig,
    ) -> Self {
        SearchSnapshot {
            db,
            index,
            catalog,
            config,
        }
    }

    /// Build index and catalog from a database — the one-stop constructor
    /// the examples use. `max_joins` / `max_templates` bound the catalog
    /// enumeration exactly like [`TemplateCatalog::enumerate`].
    pub fn build(
        db: Database,
        config: InterpreterConfig,
        max_joins: usize,
        max_templates: usize,
    ) -> RelResult<Self> {
        let index = InvertedIndex::build(&db);
        let catalog = TemplateCatalog::enumerate(&db, max_joins, max_templates)?;
        Ok(SearchSnapshot::new(db, index, catalog, config))
    }

    /// A borrowing interpreter over this snapshot.
    pub fn interpreter(&self) -> Interpreter<'_> {
        Interpreter::new(&self.db, &self.index, &self.catalog, self.config.clone())
    }
}

/// The version of the database a snapshot was built from. Starts at 0 for
/// the snapshot the service was started with and increments once per
/// successful [`SearchService::ingest`]. Replies report the epoch that
/// served them, so clients (and the differential suites) can match a racing
/// reply against the exact database state it saw.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SnapshotEpoch(pub u64);

impl std::fmt::Display for SnapshotEpoch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "e{}", self.0)
    }
}

/// What a service serves: one store, or a K-shard partition of one (see
/// the module docs).
enum Store {
    One(Arc<SearchSnapshot>),
    Sharded(Partition),
}

impl Store {
    /// The generation-side interpreter over this store.
    fn interpreter(&self) -> Interpreter<'_> {
        match self {
            Store::One(snapshot) => snapshot.interpreter(),
            Store::Sharded(part) => part.interpreter(),
        }
    }

    fn catalog(&self) -> &TemplateCatalog {
        match self {
            Store::One(snapshot) => &snapshot.catalog,
            Store::Sharded(part) => part.catalog(),
        }
    }

    fn one(&self) -> Option<&Arc<SearchSnapshot>> {
        match self {
            Store::One(snapshot) => Some(snapshot),
            Store::Sharded(_) => None,
        }
    }

    /// Per-shard epochs; empty on one store.
    fn shard_epochs(&self) -> Vec<SnapshotEpoch> {
        match self {
            Store::One(_) => Vec::new(),
            Store::Sharded(part) => part.shard_epochs(),
        }
    }
}

/// One served generation: a store plus the shared-cache generation that
/// belongs to it. Workers load the whole bundle atomically per request, so
/// cached derived state can never outlive (or predate) the data it
/// describes — the generation tag *is* the `Arc` identity.
struct ServingState {
    epoch: SnapshotEpoch,
    store: Store,
    nonempty: Arc<SharedNonemptyCache>,
    exec: Arc<SharedExecCache>,
}

impl ServingState {
    fn fresh(epoch: SnapshotEpoch, store: Store) -> Arc<Self> {
        Arc::new(ServingState {
            epoch,
            store,
            nonempty: Arc::new(SharedNonemptyCache::new()),
            exec: Arc::new(SharedExecCache::new()),
        })
    }

    /// Entries held by this generation's shared caches (the count retired
    /// as `stale_evictions` when the generation is displaced).
    fn cache_entries(&self) -> usize {
        self.nonempty.len() + self.exec.predicate_count() + self.exec.result_count()
    }
}

/// The apply step of the write path: insert `batch` into `db` (atomically —
/// [`Database::insert_batch`] validates before it stores) and splice the new
/// rows into `index`. Live ingest runs it on a clone of the published store,
/// recovery on the store it is rebuilding, so replay and ingest cannot
/// diverge. Returns the number of rows inserted.
fn apply_batch(
    db: &mut Database,
    index: &mut InvertedIndex,
    batch: &RowBatch,
) -> Result<usize, BatchError> {
    let ids = db.insert_batch(batch)?;
    let inserted: Vec<(TableId, RowId)> = batch.iter().map(|(table, _)| *table).zip(ids).collect();
    index.index_batch(db, &inserted);
    Ok(inserted.len())
}

/// Why an [`SearchService::ingest`] was refused.
#[derive(Debug)]
pub enum IngestError {
    /// The batch failed validation (arity, type, primary key, referential
    /// integrity). Nothing changed: neither store, nor WAL, nor epoch.
    Batch(BatchError),
    /// The WAL append failed (or an armed [`FaultPoint`] fired). The batch
    /// was *not* published and the service is now poisoned; reopen with
    /// [`SearchService::open`] to recover the durable prefix.
    Durability(DurabilityError),
    /// An earlier durability failure poisoned the service. Reads still
    /// work; writes are refused until the store is reopened.
    Poisoned,
    /// A partitioned service could not place a batch row on a single shard: its foreign-key parents live on two or more
    /// different shards, so inserting it anywhere would leave a dangling
    /// cross-shard edge. Nothing changed.
    Unroutable {
        /// Table of the unroutable row.
        table: String,
        /// Primary key of the unroutable row.
        key: i64,
    },
}

impl std::fmt::Display for IngestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IngestError::Batch(e) => write!(f, "batch rejected: {e}"),
            IngestError::Durability(e) => write!(f, "ingest not durable: {e}"),
            IngestError::Poisoned => {
                f.write_str("service poisoned by an earlier durability failure; reopen to recover")
            }
            IngestError::Unroutable { table, key } => write!(
                f,
                "row {table}:{key} is unroutable: its foreign-key parents span multiple shards"
            ),
        }
    }
}

impl std::error::Error for IngestError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            IngestError::Batch(e) => Some(e),
            IngestError::Durability(e) => Some(e),
            IngestError::Poisoned | IngestError::Unroutable { .. } => None,
        }
    }
}

impl From<BatchError> for IngestError {
    fn from(e: BatchError) -> Self {
        IngestError::Batch(e)
    }
}

impl From<DurabilityError> for IngestError {
    fn from(e: DurabilityError) -> Self {
        IngestError::Durability(e)
    }
}

/// Why a submitted request produced no reply value. Carried *inside* the
/// [`Ticket`] payload so a worker that panics mid-query can still answer
/// with a typed error instead of silently hanging up the channel.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RequestError {
    /// The serving worker panicked while computing this reply. The panic is
    /// contained: the worker survives and keeps serving other requests.
    WorkerPanicked {
        /// The panic payload's message, when it was a string.
        message: String,
    },
}

impl std::fmt::Display for RequestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RequestError::WorkerPanicked { message } => {
                write!(f, "serving worker panicked: {message}")
            }
        }
    }
}

impl std::error::Error for RequestError {}

/// The one top-level error of the service layer: everything
/// [`ServiceBuilder`] and the [`ServeRequests`] seam can fail with, wrapping
/// the focused per-subsystem errors.
#[derive(Debug)]
pub enum ServiceError {
    /// An ingest was refused (validation, durability, or poisoning).
    Ingest(IngestError),
    /// A durable open/start/checkpoint failed.
    Durability(DurabilityError),
    /// A served request failed (worker panic).
    Request(RequestError),
    /// The requested configuration is not supported (for example, a durable
    /// sharded service).
    Unsupported(String),
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceError::Ingest(e) => write!(f, "{e}"),
            ServiceError::Durability(e) => write!(f, "{e}"),
            ServiceError::Request(e) => write!(f, "{e}"),
            ServiceError::Unsupported(what) => write!(f, "unsupported configuration: {what}"),
        }
    }
}

impl std::error::Error for ServiceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServiceError::Ingest(e) => Some(e),
            ServiceError::Durability(e) => Some(e),
            ServiceError::Request(e) => Some(e),
            ServiceError::Unsupported(_) => None,
        }
    }
}

impl From<IngestError> for ServiceError {
    fn from(e: IngestError) -> Self {
        ServiceError::Ingest(e)
    }
}

impl From<DurabilityError> for ServiceError {
    fn from(e: DurabilityError) -> Self {
        ServiceError::Durability(e)
    }
}

impl From<RequestError> for ServiceError {
    fn from(e: RequestError) -> Self {
        ServiceError::Request(e)
    }
}

impl From<BatchError> for ServiceError {
    fn from(e: BatchError) -> Self {
        ServiceError::Ingest(IngestError::Batch(e))
    }
}

/// Configuration of a durable service directory. The same options passed to
/// [`SearchService::start_durable`] must be passed to every later
/// [`SearchService::open`] of that directory: the snapshot file persists
/// database and index, but the template catalog and interpreter
/// configuration are derived state rebuilt at open time, and recovered
/// answers are only byte-identical to the original's under the same bounds.
/// `start_durable` therefore refuses a snapshot whose catalog or
/// configuration these options would not rebuild.
#[derive(Debug, Clone)]
pub struct DurableOptions {
    /// Checkpoint automatically after this many ingested batches
    /// (0 = manual [`SearchService::checkpoint`] only).
    pub checkpoint_every: usize,
    /// Interpreter configuration of the serving snapshot.
    pub config: InterpreterConfig,
    /// Catalog enumeration bound: maximum joins per template.
    pub max_joins: usize,
    /// Catalog enumeration bound: maximum number of templates.
    pub max_templates: usize,
}

impl Default for DurableOptions {
    fn default() -> Self {
        DurableOptions {
            checkpoint_every: 0,
            config: InterpreterConfig::default(),
            max_joins: 3,
            max_templates: 50_000,
        }
    }
}

/// Receipt of one completed [`SearchService::checkpoint`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckpointReceipt {
    /// The epoch the snapshot file now holds.
    pub epoch: SnapshotEpoch,
    /// Size of the written snapshot file in bytes.
    pub snapshot_bytes: u64,
}

/// The durable half of a service: the directory, the open WAL the ingest
/// path appends to before every epoch swap, and the fault-injection plan
/// threaded through both.
struct Durability {
    dir: PathBuf,
    wal: Mutex<Wal>,
    faults: Arc<FaultPlan>,
    /// Set when a WAL append, checkpoint, or injected fault failed: the
    /// on-disk state may no longer match the served state, exactly as after
    /// a crash. A poisoned service keeps serving reads but refuses ingests
    /// and checkpoints; recovery is a fresh [`SearchService::open`].
    poisoned: AtomicBool,
    /// Auto-checkpoint threshold in batches (0 disables the trigger).
    checkpoint_every: usize,
    batches_since_checkpoint: AtomicUsize,
    wal_batches: AtomicUsize,
    wal_bytes: AtomicU64,
    checkpoints: AtomicUsize,
    /// Batches replayed from the WAL tail by the [`SearchService::open`]
    /// that built this service (0 for [`SearchService::start_durable`]).
    recovery_replayed: usize,
}

impl Durability {
    fn fresh(dir: PathBuf, wal: Wal, faults: Arc<FaultPlan>, checkpoint_every: usize) -> Self {
        Durability {
            dir,
            wal: Mutex::new(wal),
            faults,
            poisoned: AtomicBool::new(false),
            checkpoint_every,
            batches_since_checkpoint: AtomicUsize::new(0),
            wal_batches: AtomicUsize::new(0),
            wal_bytes: AtomicU64::new(0),
            checkpoints: AtomicUsize::new(0),
            recovery_replayed: 0,
        }
    }

    /// Append `batch` as the record producing `seq`, fsync it, then pass
    /// the post-append kill point. Called with the writer lock held.
    fn append(&self, seq: u64, batch: &RowBatch) -> Result<(), DurabilityError> {
        let bytes = self.wal.lock().unwrap().append(seq, batch, &self.faults)?;
        self.wal_batches.fetch_add(1, Ordering::Relaxed);
        self.wal_bytes.fetch_add(bytes, Ordering::Relaxed);
        if self.faults.fire(FaultPoint::PostWalAppendPreSwap) {
            // The record is durable but the epoch will never be published
            // by this process — recovery must surface the batch.
            return Err(DurabilityError::FaultInjected(
                FaultPoint::PostWalAppendPreSwap,
            ));
        }
        Ok(())
    }

    /// Write `snapshot.kb` at `state`'s epoch, pass the pre-truncate kill
    /// point, then truncate the WAL. Called with the writer lock held.
    fn checkpoint(&self, state: &ServingState) -> Result<u64, DurabilityError> {
        let snap = state
            .store
            .one()
            .expect("a durable service serves one store");
        let bytes = write_snapshot_file(
            &self.dir,
            state.epoch.0,
            &snap.db,
            &snap.index,
            &self.faults,
        )?;
        if self.faults.fire(FaultPoint::PostCheckpointPreTruncate) {
            // The snapshot landed but the log still holds its records —
            // recovery must skip them instead of applying them twice.
            return Err(DurabilityError::FaultInjected(
                FaultPoint::PostCheckpointPreTruncate,
            ));
        }
        self.wal.lock().unwrap().truncate()?;
        self.checkpoints.fetch_add(1, Ordering::Relaxed);
        self.batches_since_checkpoint.store(0, Ordering::Relaxed);
        Ok(bytes)
    }

    fn poison(&self) {
        self.poisoned.store(true, Ordering::Release);
    }

    fn is_poisoned(&self) -> bool {
        self.poisoned.load(Ordering::Acquire)
    }
}

/// Cache/serving counters of a running service, for benches and logs.
/// Cache counters describe the *current* epoch's generation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServiceStats {
    /// Requests completed (all kinds).
    pub served: usize,
    /// The epoch currently being served.
    pub epoch: u64,
    /// Snapshots published by `ingest` since the service started.
    pub epoch_swaps: usize,
    /// Shared-cache entries retired with displaced epochs: verdicts,
    /// predicate row sets, and memoized results that became unreachable
    /// (and uncountable as hits) the moment their epoch was swapped out.
    pub stale_evictions: usize,
    /// Rows accepted by `ingest` since the service started.
    pub rows_ingested: usize,
    /// Distinct non-emptiness verdicts in the shared cache.
    pub nonempty_entries: usize,
    /// Cross-query non-emptiness hits.
    pub nonempty_hits: usize,
    /// Distinct predicate row sets in the shared cache.
    pub predicate_entries: usize,
    /// Cross-query predicate hits.
    pub predicate_hits: usize,
    /// Complete executions in the shared cache.
    pub result_entries: usize,
    /// Cross-query whole-result hits.
    pub result_hits: usize,
    /// Construction sessions currently open in the registry.
    pub sessions_open: usize,
    /// Oldest sessions displaced by the registry bound (abandoned-session
    /// protection; a `close_session` is never counted here).
    pub sessions_evicted: usize,
    /// WAL records appended by this instance (0 for a non-durable service).
    pub wal_batches: usize,
    /// WAL bytes appended by this instance, frames included.
    pub wal_bytes: u64,
    /// Checkpoints completed by this instance (snapshot written *and* log
    /// truncated).
    pub checkpoints: usize,
    /// Batches replayed from the WAL tail by the `open` that built this
    /// instance (0 for `start` / `start_durable`).
    pub recovery_replayed_batches: usize,
    /// Per-shard epoch bumps published by ingest on a partition (an ingest
    /// touching two shards counts 2). Always 0 on one store, where
    /// `epoch_swaps` is the whole story.
    pub shard_epoch_swaps: usize,
    /// Distinct shards ever touched by ingest on a partition. Always 0 on
    /// one store.
    pub shards_touched: usize,
    /// Rows gathered from shards but never examined by the coordinator's
    /// bounded top-k merge (it stops once the global prefix is provably
    /// complete). Always 0 on one store.
    pub shard_rows_skipped: usize,
}

/// Receipt of one accepted ingest batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IngestReceipt {
    /// The epoch the batch became visible at.
    pub epoch: SnapshotEpoch,
    /// Rows inserted by the batch.
    pub rows: usize,
}

/// One complete reply to an answers request: the epoch that served it, the
/// ranked answers, and the per-request counters.
#[derive(Debug, Clone)]
pub struct SearchReply {
    /// The snapshot version this reply was computed against.
    pub epoch: SnapshotEpoch,
    /// Per-shard epochs the reply was computed against — one entry per
    /// shard on a sharded service, empty on a single-shard service. The
    /// differential suites use this to prove an ingest touching shard *i*
    /// left every other shard's epoch unchanged.
    pub shard_epochs: Vec<SnapshotEpoch>,
    pub answers: Vec<RankedAnswer>,
    pub stats: AnswerStats,
}

/// One complete reply to a diversified top-k request (Alg. 4.1 over the
/// streamed pipeline).
#[derive(Debug, Clone)]
pub struct DiversifiedReply {
    /// The snapshot version this reply was computed against.
    pub epoch: SnapshotEpoch,
    /// Per-shard epochs (see [`SearchReply::shard_epochs`]); empty on a
    /// single-shard service.
    pub shard_epochs: Vec<SnapshotEpoch>,
    /// Selected interpretations in selection order.
    pub answers: Vec<DiversifiedAnswer>,
    /// Surviving executed pool size the selection drew from — deterministic
    /// per query and epoch, warm or cold.
    pub pool: usize,
    /// Pipeline counters of the pool build.
    pub stats: AnswerStats,
}

/// Handle of one open construction session in the service registry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SessionId(pub u64);

/// A snapshot of one session's interaction state, returned by every
/// registry call so clients never need a second round-trip for the next
/// proposed option.
#[derive(Debug, Clone)]
pub struct SessionView {
    pub id: SessionId,
    /// The epoch the session is pinned to (fixed at `open_session`).
    pub epoch: SnapshotEpoch,
    /// Candidates left in the query window.
    pub remaining: usize,
    /// Options evaluated so far (the interaction cost).
    pub steps: usize,
    /// Whether construction should stop (window small enough, or no
    /// discriminating option left).
    pub finished: bool,
    /// The maximum-information-gain option to present next, if any.
    pub next_option: Option<ConstructionOption>,
}

/// One window refresh of a service-managed session: the pinned epoch and
/// the non-empty candidates' executed results in window order.
#[derive(Debug, Clone)]
pub struct SessionAnswers {
    /// The epoch the answers were computed against — the session's pinned
    /// epoch, regardless of any ingest since it was opened.
    pub epoch: SnapshotEpoch,
    /// `(window index, result)` pairs, at most `limit` JTTs each.
    pub answers: Vec<(usize, Arc<ExecutedResult>)>,
}

/// One registered session: the construction state plus the serving state it
/// pinned at open time. The pinned `Arc` keeps the whole epoch alive —
/// snapshot *and* cache generation — so a session keeps answering from the
/// database version its user has been winnowing, across any number of
/// concurrent ingests (snapshot isolation at session granularity). The
/// per-session [`ExecCache`] persists across window refreshes and falls
/// through to the pinned epoch's shared tier.
struct SessionSlot {
    state: Arc<ServingState>,
    session: ConstructionSession,
    exec_cache: ExecCache,
}

/// Registry bound — the registry's only abandonment policy. Every slot pins
/// a whole epoch (snapshot + cache generation), so sessions abandoned by
/// clients that never `close_session` would otherwise leak O(database)
/// memory each across ingest swaps. Like the shared cache tiers the
/// registry is bounded — but it *evicts* the oldest session (lowest id)
/// instead of refusing admission, because a construction session is
/// per-user interaction state and the newest user must win. Evictions are
/// counted in [`ServiceStats::sessions_evicted`]; an evicted id simply
/// answers `None` everywhere, like a closed one, and its pinned epoch is
/// freed once no in-flight call still holds the slot.
const MAX_OPEN_SESSIONS: usize = 1024;

/// A reply stamped with its completion instant by the serving worker.
///
/// Open-loop load drivers measure latency from the request's *scheduled*
/// arrival time to `completed_at`. Stamping completion inside the worker
/// lets the driver submit at the schedule and collect tickets afterwards,
/// without parking one client thread per in-flight request — which would
/// cap concurrency and reintroduce exactly the coordinated omission an
/// open-loop driver exists to eliminate.
#[derive(Debug)]
pub struct TimedReply<T> {
    /// When the serving worker finished computing this reply.
    pub completed_at: Instant,
    pub result: Result<T, RequestError>,
}

/// One serving request, as a value. Every mode the service can serve is a
/// variant here; [`ServeRequests::submit_request`] is the single seam every
/// deployment of [`SearchService`] implements.
#[derive(Debug, Clone)]
pub enum Request {
    /// Top-k *answers* (the end-to-end hot path). Resolves to
    /// [`Reply::Answers`].
    Answers { query: KeywordQuery, k: usize },
    /// Top-k *interpretations*, no execution. Resolves to
    /// [`Reply::Interpretations`].
    Interpretations { query: KeywordQuery, k: usize },
    /// Diversified top-k (Alg. 4.1 over the streamed pool). Resolves to
    /// [`Reply::Diversified`].
    Diversified {
        query: KeywordQuery,
        opts: DiversifyOptions,
    },
    /// [`Request::Answers`] with a worker-stamped completion instant, for
    /// open-loop latency measurement. Resolves to [`Reply::AnswersTimed`].
    AnswersTimed { query: KeywordQuery, k: usize },
    /// [`Request::Diversified`] with a worker-stamped completion instant.
    /// Resolves to [`Reply::DiversifiedTimed`].
    DiversifiedTimed {
        query: KeywordQuery,
        opts: DiversifyOptions,
    },
}

/// Payload of a served interpretations request: the ranked interpretations
/// plus the generation counters.
pub type InterpretationsReply = (Vec<ScoredInterpretation>, GenerationStats);

/// One served reply; the variant always matches the submitted [`Request`]
/// variant.
#[derive(Debug)]
pub enum Reply {
    Answers(Result<SearchReply, RequestError>),
    Interpretations(Result<InterpretationsReply, RequestError>),
    Diversified(Result<DiversifiedReply, RequestError>),
    AnswersTimed(TimedReply<SearchReply>),
    DiversifiedTimed(TimedReply<DiversifiedReply>),
}

/// A pending reply. `wait` blocks until the serving worker finishes;
/// `None` means the service shut down (or a worker died) before replying.
pub struct Ticket<T> {
    rx: Receiver<T>,
}

impl<T> Ticket<T> {
    pub fn wait(self) -> Option<T> {
        self.rx.recv().ok()
    }
}

type PoolJob = Box<dyn FnOnce() + Send + 'static>;

/// A fixed set of named threads draining one job queue — the one place this
/// crate spawns threads: each service owns exactly one.
/// Jobs run under `catch_unwind` so a panicking job never takes its thread
/// down; the submitter observes the failure through the job's dropped
/// reply channel. Dropping the pool hangs up the queue and joins every
/// thread.
struct WorkerPool {
    tx: Option<Sender<PoolJob>>,
    threads: Vec<JoinHandle<()>>,
}

impl WorkerPool {
    /// Spawn `threads` workers (at least one) named `{name}-{i}`.
    fn start(name: &str, threads: usize) -> Self {
        let (tx, rx) = channel::<PoolJob>();
        let rx = Arc::new(Mutex::new(rx));
        let threads = (0..threads.max(1))
            .map(|i| {
                let rx = Arc::clone(&rx);
                std::thread::Builder::new()
                    .name(format!("{name}-{i}"))
                    .spawn(move || loop {
                        // Hold the receiver lock only for the pop, never
                        // while serving.
                        let job = match rx.lock() {
                            Ok(guard) => guard.recv(),
                            Err(_) => return, // a sibling panicked mid-pop
                        };
                        let Ok(job) = job else { return }; // hung up + drained
                        let _ = catch_unwind(AssertUnwindSafe(job));
                    })
                    .expect("spawn worker thread")
            })
            .collect();
        WorkerPool {
            tx: Some(tx),
            threads,
        }
    }

    /// Enqueue one request-shaped job. The worker pins the generation
    /// `current` holds when the job *starts* — one pointer load, after which
    /// a swap mid-request cannot affect it (snapshot isolation) and it can
    /// never mix generations — runs `serve` against it, and counts the
    /// request before replying, so a client that just got its answer never
    /// observes a stale total.
    fn submit_pinned(
        &self,
        current: &Arc<Mutex<Arc<ServingState>>>,
        served: &Arc<AtomicUsize>,
        serve: impl FnOnce(&ServingState) -> Reply + Send + 'static,
    ) -> Ticket<Reply> {
        let (reply, rx) = channel();
        let current = Arc::clone(current);
        let served = Arc::clone(served);
        let job: PoolJob = Box::new(move || {
            let state = match current.lock() {
                Ok(guard) => Arc::clone(&guard),
                Err(_) => return, // writer panicked mid-swap: hang up
            };
            let out = serve(&state);
            served.fetch_add(1, Ordering::Relaxed);
            let _ = reply.send(out); // client may have given up: fine
        });
        if let Some(tx) = &self.tx {
            // A send only fails when every thread is gone; the client then
            // observes the hang-up through its ticket.
            let _ = tx.send(job);
        }
        Ticket { rx }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.tx.take(); // hang up: threads drain the queue, then exit
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

/// A multi-user keyword-search server over a **live** store: one store or a
/// K-shard partition (module docs), epoch-versioned and served by N OS
/// threads pulling jobs off a shared channel, with all cross-query derived
/// state in per-epoch shared caches. Requests can be issued from any number
/// of client threads; replies arrive on per-request [`Ticket`]s. Writers
/// feed [`SearchService::ingest`]; readers never block on them beyond the
/// one-pointer state load. Dropping the service hangs up the job channel
/// and joins the workers.
pub struct SearchService {
    // Dropped first: joins the workers before anything they serve from.
    pool: WorkerPool,
    current: Arc<Mutex<Arc<ServingState>>>,
    /// The writer lock: serializes every path that replaces `current`
    /// (ingest, checkpoint). It holds the shard directory — `(table, pk) →
    /// shard` for every row a partition ever placed or was planned to —
    /// which is empty on one store; the store itself *is* the latest
    /// published epoch.
    pub(crate) writer: Mutex<ShardAssignment>,
    /// WAL + checkpoint state for durable services; `None` otherwise.
    durability: Option<Durability>,
    served: Arc<AtomicUsize>,
    epoch_swaps: AtomicUsize,
    stale_evictions: AtomicUsize,
    rows_ingested: AtomicUsize,
    shard_epoch_swaps: AtomicUsize,
    /// Gathered-but-never-merged rows: what a partition's bounded top-k
    /// merges left unconsumed once the global prefix was provably complete.
    shard_rows_skipped: Arc<AtomicUsize>,
    /// Open construction sessions, each pinning the serving state of the
    /// epoch it was opened on. Sessions are independently locked so a slow
    /// window refresh never blocks another session (or the registry).
    sessions: Mutex<HashMap<u64, Arc<Mutex<SessionSlot>>>>,
    next_session: AtomicU64,
    sessions_evicted: AtomicUsize,
}

impl SearchService {
    /// Start `workers` threads serving `snapshot` (at least one) as epoch 0,
    /// with no durability: ingested batches live only in memory.
    ///
    /// Prefer [`ServiceBuilder`], which configures this and every other
    /// start mode (durable, sharded) behind one entry point.
    pub fn start(snapshot: Arc<SearchSnapshot>, workers: usize) -> Self {
        Self::start_inner(Store::One(snapshot), None, workers, SnapshotEpoch(0), None)
    }

    /// Start `workers` threads serving `snapshot`'s rows partitioned along
    /// `assignment` (any number of shards, one included) as epoch 0, with no
    /// durability; answers are byte-identical to [`Self::start`]'s
    /// (`core/sharded.rs`). The assignment may cover *more* rows than the
    /// snapshot holds (a plan computed over a full corpus before rows were
    /// held out for replay); ingest then routes each held-out row to its
    /// planned shard. Every row the snapshot *does* hold must be assigned.
    pub fn start_with_assignment(
        snapshot: Arc<SearchSnapshot>,
        assignment: ShardAssignment,
        workers: usize,
    ) -> Self {
        let store = Store::Sharded(Partition::new(snapshot, &assignment));
        Self::start_inner(store, Some(assignment), workers, SnapshotEpoch(0), None)
    }

    /// Start a **durable** service over a fresh directory: write `snapshot`
    /// as the epoch-0 checkpoint (`snapshot.kb`), create an empty write-ahead
    /// log (`wal.kb`), and serve. Every subsequent [`Self::ingest`] is
    /// WAL-logged and fsynced before its epoch is published, so the served
    /// state survives process death — reopen with [`Self::open`] and the
    /// same `opts`. Refuses, before writing anything, a directory that
    /// already holds a store and a snapshot whose catalog or interpreter
    /// configuration `opts` would not rebuild at reopen
    /// ([`DurabilityError::Corrupt`] naming the mismatch).
    ///
    /// Prefer [`ServiceBuilder`] with [`ServiceBuilder::durable`].
    pub fn start_durable(
        snapshot: Arc<SearchSnapshot>,
        workers: usize,
        dir: &Path,
        opts: &DurableOptions,
    ) -> Result<Self, DurabilityError> {
        let rebuilt = TemplateCatalog::enumerate(&snapshot.db, opts.max_joins, opts.max_templates)
            .map_err(|e| DurabilityError::Corrupt(format!("catalog enumeration failed: {e}")))?;
        let trees = rebuilt.iter().map(|t| &t.tree);
        if !snapshot.catalog.iter().map(|t| &t.tree).eq(trees) {
            return Err(DurabilityError::Corrupt(format!(
                "the snapshot's catalog ({} templates) is not the one max_joins = {}, \
                 max_templates = {} rebuild at reopen ({} templates)",
                snapshot.catalog.len(),
                opts.max_joins,
                opts.max_templates,
                rebuilt.len()
            )));
        }
        if snapshot.config != opts.config {
            return Err(DurabilityError::Corrupt(
                "the snapshot's interpreter config differs from DurableOptions::config, \
                 which reopen serves under"
                    .into(),
            ));
        }
        std::fs::create_dir_all(dir)
            .map_err(|e| DurabilityError::Io(format!("create {}: {e}", dir.display())))?;
        if dir.join(SNAPSHOT_FILE).exists() {
            return Err(DurabilityError::Corrupt(format!(
                "{} already holds a store; use SearchService::open to recover it",
                dir.display()
            )));
        }
        let faults = Arc::new(FaultPlan::new());
        write_snapshot_file(dir, 0, &snapshot.db, &snapshot.index, &faults)?;
        let wal = Wal::create(dir)?;
        let durability = Durability::fresh(dir.to_path_buf(), wal, faults, opts.checkpoint_every);
        let store = Store::One(snapshot);
        Ok(Self::start_inner(
            store,
            None,
            workers,
            SnapshotEpoch(0),
            Some(durability),
        ))
    }

    /// Recover a durable service from `dir`: load the latest checkpoint,
    /// replay the WAL tail past the checkpoint's epoch (a torn final record
    /// is discarded, never partially applied — [`Database::insert_batch`]
    /// atomicity is the replay unit), rebuild the catalog under `opts`, and
    /// serve the newest durable epoch. Records at or below the checkpoint
    /// epoch are skipped, so the post-checkpoint / pre-truncate crash window
    /// never double-applies a batch.
    ///
    /// Prefer [`ServiceBuilder`] with [`ServiceBuilder::durable`] and
    /// [`ServiceBuilder::open`].
    pub fn open(
        dir: &Path,
        workers: usize,
        opts: &DurableOptions,
    ) -> Result<Self, DurabilityError> {
        let (snap_epoch, mut db, mut index) = read_snapshot_file(dir)?;
        let scan = scan_wal(dir)?;
        let mut epoch = snap_epoch;
        let mut replayed = 0usize;
        for (seq, batch) in &scan.records {
            if *seq <= snap_epoch {
                continue; // already folded into the checkpoint
            }
            if *seq != epoch + 1 {
                return Err(DurabilityError::Corrupt(format!(
                    "WAL sequence gap: expected epoch {}, found {seq}",
                    epoch + 1
                )));
            }
            // A logged batch was validated before it was appended, so a
            // rejection here means the snapshot and log disagree.
            apply_batch(&mut db, &mut index, batch).map_err(|e| {
                DurabilityError::Corrupt(format!("WAL batch for epoch {seq} rejected: {e}"))
            })?;
            epoch = *seq;
            replayed += 1;
        }
        let catalog = TemplateCatalog::enumerate(&db, opts.max_joins, opts.max_templates)
            .map_err(|e| DurabilityError::Corrupt(format!("catalog enumeration failed: {e}")))?;
        let snapshot = Arc::new(SearchSnapshot::new(db, index, catalog, opts.config.clone()));
        let wal = if scan.header_valid {
            Wal::open_at(dir, scan.good_len)?
        } else {
            Wal::create(dir)?
        };
        let faults = Arc::new(FaultPlan::new());
        let mut durability =
            Durability::fresh(dir.to_path_buf(), wal, faults, opts.checkpoint_every);
        durability.recovery_replayed = replayed;
        let store = Store::One(snapshot);
        Ok(Self::start_inner(
            store,
            None,
            workers,
            SnapshotEpoch(epoch),
            Some(durability),
        ))
    }

    /// `directory` is the partition's shard directory (`None` on one store).
    fn start_inner(
        store: Store,
        directory: Option<ShardAssignment>,
        workers: usize,
        epoch: SnapshotEpoch,
        durability: Option<Durability>,
    ) -> Self {
        SearchService {
            pool: WorkerPool::start("keybridge-worker", workers),
            current: Arc::new(Mutex::new(ServingState::fresh(epoch, store))),
            writer: Mutex::new(directory.unwrap_or_else(|| ShardAssignment::empty(1, 0))),
            durability,
            served: Arc::new(AtomicUsize::new(0)),
            epoch_swaps: AtomicUsize::new(0),
            stale_evictions: AtomicUsize::new(0),
            rows_ingested: AtomicUsize::new(0),
            shard_epoch_swaps: AtomicUsize::new(0),
            shard_rows_skipped: Arc::new(AtomicUsize::new(0)),
            sessions: Mutex::new(HashMap::new()),
            next_session: AtomicU64::new(0),
            sessions_evicted: AtomicUsize::new(0),
        }
    }

    /// The snapshot currently being served (requests already in flight may
    /// still be completing against an earlier epoch); `None` on a partition,
    /// which holds no one database.
    pub fn snapshot(&self) -> Option<Arc<SearchSnapshot>> {
        self.current.lock().unwrap().store.one().cloned()
    }

    /// The per-shard epoch vector of the currently published partition;
    /// empty on one store.
    pub fn shard_epochs(&self) -> Vec<SnapshotEpoch> {
        self.current.lock().unwrap().store.shard_epochs()
    }

    /// Apply one insert batch to the live store and publish the result as
    /// the next epoch: poison check → validate (+ route, on a partition) →
    /// WAL append (durable) → apply to copies → publish → auto-checkpoint,
    /// the module docs' write path. A rejected batch changes nothing: no
    /// clone, no WAL byte, no epoch. A failed auto-checkpoint poisons
    /// future writes but does not un-accept the already WAL-durable batch.
    /// Concurrent ingests serialize on the writer lock; readers are never
    /// blocked beyond the single pointer swap.
    pub fn ingest(&self, batch: &RowBatch) -> Result<IngestReceipt, IngestError> {
        // `prev` cannot go stale below: the held writer lock serializes
        // every path that replaces `current`. Poisoning happens under it
        // too, so a write queued behind a failing one sees the poison.
        let mut directory = self.writer.lock().unwrap();
        if self.is_poisoned() {
            return Err(IngestError::Poisoned);
        }
        let prev = Arc::clone(&self.current.lock().unwrap());
        let route = match &prev.store {
            Store::One(snap) => {
                snap.db.validate_batch(batch)?;
                None
            }
            Store::Sharded(part) => Some(part.route(batch, &directory)?),
        };
        let epoch = SnapshotEpoch(prev.epoch.0 + 1);
        if let Some(d) = &self.durability {
            // WAL before swap: the record producing the next epoch must be
            // durable before any client can observe that epoch.
            if let Err(e) = d.append(epoch.0, batch) {
                d.poison();
                return Err(IngestError::Durability(e));
            }
        }
        // The O(database) clones happen *outside* the `current` lock —
        // workers pin their state through that lock per request, so it may
        // only be held for pointer reads and the final swap. The catalog is
        // schema-derived and the schema is immutable, so it transfers.
        let (store, touched) = match &prev.store {
            Store::One(snap) => {
                let mut db = snap.db.clone();
                let mut index = snap.index.clone();
                apply_batch(&mut db, &mut index, batch)
                    .expect("batch validated against the store it is applied to");
                let next =
                    SearchSnapshot::new(db, index, snap.catalog.clone(), snap.config.clone());
                (Store::One(Arc::new(next)), 0)
            }
            Store::Sharded(part) => {
                let route = route.expect("a partition routes every batch it validates");
                let (next, touched) = part.apply(batch, route, &mut directory);
                (Store::Sharded(next), touched)
            }
        };
        let next = ServingState::fresh(epoch, store);
        *self.current.lock().unwrap() = Arc::clone(&next);
        self.epoch_swaps.fetch_add(1, Ordering::Relaxed);
        self.shard_epoch_swaps.fetch_add(touched, Ordering::Relaxed);
        self.stale_evictions
            .fetch_add(prev.cache_entries(), Ordering::Relaxed);
        self.rows_ingested.fetch_add(batch.len(), Ordering::Relaxed);
        if let Some(d) = &self.durability {
            let since = d.batches_since_checkpoint.fetch_add(1, Ordering::Relaxed) + 1;
            // Under the still-held writer lock. The batch is already
            // WAL-durable, so a checkpoint failure poisons future writes
            // but does not un-accept it.
            if d.checkpoint_every > 0 && since >= d.checkpoint_every && d.checkpoint(&next).is_err()
            {
                d.poison();
            }
        }
        Ok(IngestReceipt {
            epoch,
            rows: batch.len(),
        })
    }

    /// Fold the log into a fresh `snapshot.kb` (written atomically) and
    /// truncate it. Serialized against `ingest` on the writer lock; readers
    /// are unaffected. Any failure — IO or an armed [`FaultPoint`] —
    /// poisons the service exactly as a crash at that instant would.
    pub fn checkpoint(&self) -> Result<CheckpointReceipt, DurabilityError> {
        let d = self
            .durability
            .as_ref()
            .ok_or(DurabilityError::NotDurable)?;
        let _writer = self.writer.lock().unwrap();
        if d.is_poisoned() {
            return Err(DurabilityError::Poisoned);
        }
        let state = self.current.lock().unwrap().clone();
        match d.checkpoint(&state) {
            Ok(snapshot_bytes) => Ok(CheckpointReceipt {
                epoch: state.epoch,
                snapshot_bytes,
            }),
            Err(e) => {
                d.poison();
                Err(e)
            }
        }
    }

    /// The fault-injection plan of a durable service (the recovery suite
    /// arms kill points through this). `None` on a non-durable service.
    pub fn fault_plan(&self) -> Option<Arc<FaultPlan>> {
        self.durability.as_ref().map(|d| Arc::clone(&d.faults))
    }

    /// Whether an earlier durability failure poisoned this service (reads
    /// keep working; writes are refused). Always `false` on a non-durable
    /// service.
    pub fn is_poisoned(&self) -> bool {
        self.durability
            .as_ref()
            .is_some_and(Durability::is_poisoned)
    }

    /// Testing seam for the panic-containment path: a request whose serving
    /// code panics. The reply must arrive as [`Reply::Answers`] carrying
    /// [`RequestError::WorkerPanicked`], and the worker must survive.
    #[cfg(test)]
    fn submit_panicking(&self) -> Ticket<Reply> {
        self.pool.submit_pinned(&self.current, &self.served, |_| {
            let out = catch_unwind(|| -> SearchReply {
                panic!("injected worker panic (testing seam)");
            });
            Reply::Answers(out.map_err(panic_to_error))
        })
    }

    // -----------------------------------------------------------------
    // The construction-session registry.
    // -----------------------------------------------------------------

    /// Open a construction session over the *current* epoch: generate the
    /// top-`window` complete interpretations best-first (through this
    /// epoch's shared non-emptiness cache) and register the session. The
    /// session pins the serving state it was opened on — store *and* cache
    /// generation — so its window, options, and answers keep referring to
    /// the same database version even while concurrent [`Self::ingest`]s
    /// swap epochs underneath.
    pub fn open_session(
        &self,
        query: &KeywordQuery,
        window: usize,
        config: SessionConfig,
    ) -> SessionView {
        let state = self.current.lock().unwrap().clone();
        let mut gen_cache = NonemptyCache::with_shared(Arc::clone(&state.nonempty));
        let interpreter = state.store.interpreter();
        let (ranked, _) = interpreter.top_k_with_cache(query, window, false, &mut gen_cache);
        let session = ConstructionSession::new(state.store.catalog(), &ranked, config);
        let exec_cache = ExecCache::with_shared(Arc::clone(&state.exec));
        let id = self.next_session.fetch_add(1, Ordering::Relaxed);
        let view = Self::view_of(id, &state, &session);
        let mut sessions = self.sessions.lock().unwrap();
        while sessions.len() >= MAX_OPEN_SESSIONS {
            let oldest = *sessions.keys().min().expect("registry non-empty");
            sessions.remove(&oldest);
            self.sessions_evicted.fetch_add(1, Ordering::Relaxed);
        }
        sessions.insert(
            id,
            Arc::new(Mutex::new(SessionSlot {
                state,
                session,
                exec_cache,
            })),
        );
        view
    }

    /// Apply one user verdict to a session: accepting keeps the candidates
    /// subsuming `option`, rejecting keeps the complement. Returns the
    /// updated view (with the next proposed option), or `None` for an
    /// unknown/closed session.
    pub fn advance_session(
        &self,
        id: SessionId,
        option: &ConstructionOption,
        accepted: bool,
    ) -> Option<SessionView> {
        let slot = self.session(id)?;
        let mut slot = slot.lock().unwrap();
        let SessionSlot { state, session, .. } = &mut *slot;
        session.apply(state.store.catalog(), option.clone(), accepted);
        Some(Self::view_of(id.0, state, session))
    }

    /// The current view of a session without advancing it (the registry
    /// tests' probe).
    #[cfg(test)]
    fn session_view(&self, id: SessionId) -> Option<SessionView> {
        let slot = self.session(id)?;
        let slot = slot.lock().unwrap();
        Some(Self::view_of(id.0, &slot.state, &slot.session))
    }

    /// Materialize the session's current query window (at most `limit` JTTs
    /// per candidate) against its *pinned* epoch, through the store's
    /// executor and the session's persistent execution cache (predicates
    /// intersected once across refreshes; local misses fall through to the
    /// pinned epoch's shared tier). Byte-identical to the cold offline
    /// [`ConstructionSession::window_answers`] over the pinned rows.
    pub fn session_answers(&self, id: SessionId, limit: usize) -> Option<SessionAnswers> {
        let slot = self.session(id)?;
        let mut slot = slot.lock().unwrap();
        let SessionSlot {
            state,
            session,
            exec_cache,
        } = &mut *slot;
        let interpreter = state.store.interpreter();
        let (gen_cache, base) = (&mut NonemptyCache::new(), ExecOptions::default());
        let window = session.remaining();
        let answers = match &state.store {
            Store::One(_) => {
                let executor = interpreter.local_executor();
                QueryPipeline::with_executor(&interpreter, executor, base, gen_cache, exec_cache)
                    .window(window, limit)
            }
            Store::Sharded(part) => {
                let executor = part.coordinator(&self.shard_rows_skipped);
                QueryPipeline::with_executor(&interpreter, executor, base, gen_cache, exec_cache)
                    .window(window, limit)
            }
        };
        Some(SessionAnswers {
            epoch: state.epoch,
            answers,
        })
    }

    /// Drop a session from the registry (releasing its pinned epoch).
    /// Returns whether it existed.
    pub fn close_session(&self, id: SessionId) -> bool {
        self.sessions.lock().unwrap().remove(&id.0).is_some()
    }

    /// Look up an open session.
    fn session(&self, id: SessionId) -> Option<Arc<Mutex<SessionSlot>>> {
        self.sessions.lock().unwrap().get(&id.0).cloned()
    }

    fn view_of(id: u64, state: &ServingState, session: &ConstructionSession) -> SessionView {
        let next_option = session.next_option(state.store.catalog());
        SessionView {
            id: SessionId(id),
            epoch: state.epoch,
            remaining: session.remaining().len(),
            steps: session.steps(),
            finished: session.finished_given(next_option.as_ref()),
            next_option,
        }
    }
}

/// The unified serving seam — **Hot path 8**. One typed [`Request`] enum in,
/// one [`Ticket`] resolving to the matching [`Reply`] arm out, plus the
/// ingest/stats/epoch surface a load driver needs. [`SearchService`]
/// implements it over either store, and [`KeywordService`] by delegation,
/// so harnesses, differential suites, and examples drive any deployment
/// interchangeably.
pub trait ServeRequests {
    /// Enqueue one request; the ticket resolves to the matching reply arm.
    fn submit_request(&self, request: Request) -> Ticket<Reply>;

    /// Apply one insert batch and publish it as the next epoch.
    fn ingest_batch(&self, batch: &RowBatch) -> Result<IngestReceipt, ServiceError>;

    /// Current serving/cache counters.
    fn service_stats(&self) -> ServiceStats;

    /// The epoch currently being served.
    fn serving_epoch(&self) -> SnapshotEpoch;

    /// Blocking convenience: submit a [`Request::Answers`] and wait.
    ///
    /// # Panics
    ///
    /// Panics if the request failed ([`RequestError`]) or the service shut
    /// down before replying — a failed request must never masquerade as a
    /// zero-result query. Callers that need to observe failure as a value
    /// use [`Self::submit_request`] + [`Ticket::wait`].
    fn search(&self, query: &KeywordQuery, k: usize) -> SearchReply {
        let query = query.clone();
        match self.submit_request(Request::Answers { query, k }).wait() {
            Some(Reply::Answers(Ok(reply))) => reply,
            Some(Reply::Answers(Err(e))) => panic!("{e}"),
            _ => panic!("service shut down before replying"),
        }
    }
}

impl ServeRequests for SearchService {
    /// The worker pins the serving state once, and the store chooses the
    /// interpreter and executor the one dispatcher runs on.
    fn submit_request(&self, request: Request) -> Ticket<Reply> {
        let skipped = Arc::clone(&self.shard_rows_skipped);
        self.pool
            .submit_pinned(&self.current, &self.served, move |state| {
                let interpreter = state.store.interpreter();
                match &state.store {
                    Store::One(_) => {
                        let executor = interpreter.local_executor();
                        serve_request(state, &interpreter, executor, request)
                    }
                    Store::Sharded(part) => {
                        let executor = part.coordinator(&skipped);
                        serve_request(state, &interpreter, executor, request)
                    }
                }
            })
    }

    fn ingest_batch(&self, batch: &RowBatch) -> Result<IngestReceipt, ServiceError> {
        self.ingest(batch).map_err(ServiceError::from)
    }

    fn service_stats(&self) -> ServiceStats {
        let state = self.current.lock().unwrap().clone();
        let durable = self.durability.as_ref();
        ServiceStats {
            served: self.served.load(Ordering::Relaxed),
            epoch: state.epoch.0,
            epoch_swaps: self.epoch_swaps.load(Ordering::Relaxed),
            stale_evictions: self.stale_evictions.load(Ordering::Relaxed),
            rows_ingested: self.rows_ingested.load(Ordering::Relaxed),
            nonempty_entries: state.nonempty.len(),
            nonempty_hits: state.nonempty.hits(),
            predicate_entries: state.exec.predicate_count(),
            predicate_hits: state.exec.predicate_hits(),
            result_entries: state.exec.result_count(),
            result_hits: state.exec.result_hits(),
            sessions_open: self.sessions.lock().unwrap().len(),
            sessions_evicted: self.sessions_evicted.load(Ordering::Relaxed),
            wal_batches: durable.map_or(0, |d| d.wal_batches.load(Ordering::Relaxed)),
            wal_bytes: durable.map_or(0, |d| d.wal_bytes.load(Ordering::Relaxed)),
            checkpoints: durable.map_or(0, |d| d.checkpoints.load(Ordering::Relaxed)),
            recovery_replayed_batches: durable.map_or(0, |d| d.recovery_replayed),
            shard_epoch_swaps: self.shard_epoch_swaps.load(Ordering::Relaxed),
            shards_touched: match &state.store {
                Store::One(_) => 0,
                Store::Sharded(part) => part.shards_touched(),
            },
            shard_rows_skipped: self.shard_rows_skipped.load(Ordering::Relaxed),
        }
    }

    fn serving_epoch(&self) -> SnapshotEpoch {
        self.current.lock().unwrap().epoch
    }
}

/// One entry point for every way to start a service — **the** constructor
/// the examples and harnesses use. Consolidates [`SearchService::start`] /
/// [`SearchService::start_durable`] / [`SearchService::open`] and the
/// partitioned start behind a single configured builder:
///
/// ```ignore
/// let svc = ServiceBuilder::new().workers(4).start(snapshot)?;          // in-memory
/// let svc = ServiceBuilder::new().durable(dir).start(snapshot)?;       // durable
/// let svc = ServiceBuilder::new().durable(dir).open()?;                // recover
/// let svc = ServiceBuilder::new().shards(4).start(snapshot)?;          // sharded
/// ```
#[derive(Debug, Clone)]
pub struct ServiceBuilder {
    workers: usize,
    shards: usize,
    durable_dir: Option<PathBuf>,
    checkpoint_every: usize,
}

impl Default for ServiceBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl ServiceBuilder {
    pub fn new() -> Self {
        ServiceBuilder {
            workers: 2,
            shards: 1,
            durable_dir: None,
            checkpoint_every: DurableOptions::default().checkpoint_every,
        }
    }

    /// Serving worker threads (at least 1). A partitioned service runs every
    /// shard's part of a request on the worker serving it.
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Number of shards. `1` (the default) serves one store; anything larger
    /// partitions the snapshot's rows with [`assign_shards`] and serves them
    /// through [`SearchService::start_with_assignment`]. K=1 is not served
    /// as a one-shard partition because that costs setup time, throughput
    /// and memory one store does not pay (measured in `core/sharded.rs`).
    /// A partition cannot be durable yet: [`Self::start`] refuses `shards(k
    /// > 1)` with [`Self::durable`] as [`ServiceError::Unsupported`].
    pub fn shards(mut self, shards: usize) -> Self {
        self.shards = shards.max(1);
        self
    }

    /// Make the service durable over `dir` (WAL + checkpoints).
    pub fn durable(mut self, dir: impl Into<PathBuf>) -> Self {
        self.durable_dir = Some(dir.into());
        self
    }

    /// Auto-checkpoint threshold in batches
    /// ([`DurableOptions::checkpoint_every`]; the other durable options keep
    /// their defaults).
    pub fn checkpoint_every(mut self, batches: usize) -> Self {
        self.checkpoint_every = batches;
        self
    }

    fn durable_opts(&self) -> DurableOptions {
        DurableOptions {
            checkpoint_every: self.checkpoint_every,
            ..Default::default()
        }
    }

    /// Start a fresh service over `snapshot` with this configuration.
    pub fn start(&self, snapshot: Arc<SearchSnapshot>) -> Result<KeywordService, ServiceError> {
        if self.shards > 1 {
            if self.durable_dir.is_some() {
                return Err(ServiceError::Unsupported(
                    "a sharded service cannot be durable yet; drop shards() or durable()".into(),
                ));
            }
            let assignment = assign_shards(&snapshot.db, self.shards);
            let service = SearchService::start_with_assignment(snapshot, assignment, self.workers);
            return Ok(KeywordService::Sharded(service));
        }
        let service = match &self.durable_dir {
            Some(dir) => {
                SearchService::start_durable(snapshot, self.workers, dir, &self.durable_opts())?
            }
            None => SearchService::start(snapshot, self.workers),
        };
        Ok(KeywordService::Single(service))
    }

    /// Recover a durable service from the configured directory.
    pub fn open(&self) -> Result<KeywordService, ServiceError> {
        if self.shards > 1 {
            return Err(ServiceError::Unsupported(
                "a sharded service cannot be durable yet; drop shards() or durable()".into(),
            ));
        }
        let dir = self.durable_dir.as_ref().ok_or_else(|| {
            ServiceError::Unsupported("open() requires durable(dir) to be configured".into())
        })?;
        let service = SearchService::open(dir, self.workers, &self.durable_opts())?;
        Ok(KeywordService::Single(service))
    }
}

/// What [`ServiceBuilder`] returns: one [`SearchService`], tagged with the
/// store it was started over. Both variants hold the same type, so
/// [`Self::as_single`] always answers and [`ServeRequests`] delegates
/// without caring which. The enum, its two variants and `as_single` remain
/// only because the benchmark package (`crates/bench/src/bin/kbench`) names
/// them; in-repo code uses [`SearchService`] directly.
pub enum KeywordService {
    Single(SearchService),
    Sharded(SearchService),
}

impl KeywordService {
    /// The service, whichever store it serves (never `None`).
    pub fn as_single(&self) -> Option<&SearchService> {
        Some(self.service())
    }

    fn service(&self) -> &SearchService {
        let (KeywordService::Single(s) | KeywordService::Sharded(s)) = self;
        s
    }
}

/// Another name for [`SearchService`], which serves partitions too; it
/// remains only because the benchmark package names
/// `ShardedService::start_with_assignment`.
pub type ShardedService = SearchService;

impl ServeRequests for KeywordService {
    fn submit_request(&self, request: Request) -> Ticket<Reply> {
        self.service().submit_request(request)
    }

    fn ingest_batch(&self, batch: &RowBatch) -> Result<IngestReceipt, ServiceError> {
        self.service().ingest_batch(batch)
    }

    fn service_stats(&self) -> ServiceStats {
        self.service().service_stats()
    }

    fn serving_epoch(&self) -> SnapshotEpoch {
        self.service().serving_epoch()
    }
}

/// Serve one [`Request`] against a pinned serving state with the
/// interpreter and executor its store chose, always producing the matching
/// [`Reply`] arm — the one request dispatcher. Serving code runs under
/// `catch_unwind`: a panicking query must come back to its client as a
/// typed [`RequestError`], not as a hung-up channel — and the worker must
/// survive to take the next job. `AssertUnwindSafe` is sound here because
/// the shared caches only ever admit *complete* entries (a panic mid-query
/// cannot have published partial derived state), and everything else the
/// closure touches dies with the request. Timed arms stamp completion after
/// the reply is computed, still on the worker.
fn serve_request<E: Executor>(
    state: &ServingState,
    interpreter: &Interpreter<'_>,
    executor: E,
    request: Request,
) -> Reply {
    let answers = |query: &KeywordQuery, k: usize| {
        catch_unwind(AssertUnwindSafe(|| {
            let (answers, stats) = run(state, interpreter, executor, |p| p.answers(query, k));
            let (epoch, shard_epochs) = (state.epoch, state.store.shard_epochs());
            SearchReply {
                epoch,
                shard_epochs,
                answers,
                stats,
            }
        }))
        .map_err(panic_to_error)
    };
    let diversified = |query: &KeywordQuery, opts: DiversifyOptions| {
        catch_unwind(AssertUnwindSafe(|| {
            let out = run(state, interpreter, executor, |p| p.diversified(query, opts));
            DiversifiedReply {
                epoch: state.epoch,
                shard_epochs: state.store.shard_epochs(),
                answers: out.answers,
                pool: out.pool,
                stats: out.stats,
            }
        }))
        .map_err(panic_to_error)
    };
    match request {
        Request::Answers { query, k } => Reply::Answers(answers(&query, k)),
        Request::Interpretations { query, k } => Reply::Interpretations(
            catch_unwind(AssertUnwindSafe(|| {
                let mut gen_cache = NonemptyCache::with_shared(Arc::clone(&state.nonempty));
                interpreter.top_k_with_cache(&query, k, true, &mut gen_cache)
            }))
            .map_err(panic_to_error),
        ),
        Request::Diversified { query, opts } => Reply::Diversified(diversified(&query, opts)),
        Request::AnswersTimed { query, k } => {
            let result = answers(&query, k);
            Reply::AnswersTimed(TimedReply {
                completed_at: Instant::now(),
                result,
            })
        }
        Request::DiversifiedTimed { query, opts } => {
            let result = diversified(&query, opts);
            Reply::DiversifiedTimed(TimedReply {
                completed_at: Instant::now(),
                result,
            })
        }
    }
}

/// Run `mode` on a fresh pipeline over `executor` whose per-request caches
/// fall through to `state`'s shared tier.
fn run<E: Executor, T>(
    state: &ServingState,
    interpreter: &Interpreter<'_>,
    executor: E,
    mode: impl FnOnce(&mut QueryPipeline<'_, '_, E>) -> T,
) -> T {
    let mut gen_cache = NonemptyCache::with_shared(Arc::clone(&state.nonempty));
    let mut exec_cache = ExecCache::with_shared(Arc::clone(&state.exec));
    mode(&mut QueryPipeline::with_executor(
        interpreter,
        executor,
        ExecOptions::default(),
        &mut gen_cache,
        &mut exec_cache,
    ))
}

/// Render a caught panic payload as the typed reply error. Panics raised by
/// `panic!("…")` carry `&str` or `String`; anything else gets a fixed tag.
fn panic_to_error(payload: Box<dyn std::any::Any + Send>) -> RequestError {
    let message = if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    };
    RequestError::WorkerPanicked { message }
}

// The whole point of the snapshot/service split: everything a worker
// touches must cross threads. These bounds are checked at compile time, so
// any future interior-mutability seam (an `Rc`, a `RefCell`) in relstore,
// textindex, or core breaks the build here instead of a user's deploy.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<SearchSnapshot>();
    assert_send_sync::<ServingState>();
    assert_send_sync::<SharedNonemptyCache>();
    assert_send_sync::<SharedExecCache>();
    assert_send_sync::<SearchService>();
    assert_send_sync::<Database>();
    assert_send_sync::<InvertedIndex>();
    assert_send_sync::<TemplateCatalog>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use keybridge_datagen::{ImdbConfig, ImdbDataset};
    use keybridge_relstore::Value;

    fn snapshot() -> Arc<SearchSnapshot> {
        let data = ImdbDataset::generate(ImdbConfig::tiny(1)).unwrap();
        Arc::new(SearchSnapshot::build(data.db, InterpreterConfig::default(), 4, 50_000).unwrap())
    }

    fn diversified(
        service: &SearchService,
        query: &KeywordQuery,
        opts: DiversifyOptions,
    ) -> DiversifiedReply {
        let query = query.clone();
        match service
            .submit_request(Request::Diversified { query, opts })
            .wait()
        {
            Some(Reply::Diversified(Ok(reply))) => reply,
            other => panic!("diversified request not served: {other:?}"),
        }
    }

    #[test]
    fn service_matches_direct_interpreter() {
        let snap = snapshot();
        let service = SearchService::start(Arc::clone(&snap), 2);
        let q = KeywordQuery::from_terms(vec!["tom".into()]);
        let direct = snap.interpreter().answers_top_k(&q, 5);
        let served = service.search(&q, 5).answers;
        assert_eq!(direct.len(), served.len());
        for (a, b) in direct.iter().zip(&served) {
            assert_eq!(a.interpretation, b.interpretation);
            assert_eq!(a.jtt, b.jtt);
            assert_eq!(a.keys, b.keys);
            assert!((a.log_score - b.log_score).abs() < 1e-12);
        }
        assert_eq!(service.service_stats().served, 1);
    }

    #[test]
    fn shared_caches_fill_and_hit_across_requests() {
        let snap = snapshot();
        let service = SearchService::start(snap, 1);
        let q = KeywordQuery::from_terms(vec!["tom".into(), "hanks".into()]);
        let first = service.search(&q, 5).answers;
        let stats = service.service_stats();
        assert!(
            stats.nonempty_entries > 0,
            "no shared verdicts after a query"
        );
        assert!(
            stats.predicate_entries > 0,
            "no shared predicates after a query"
        );
        // Replay: the second request's generation must be served from the
        // shared tier (zero fresh probes) and return identical answers.
        let SearchReply {
            answers: second,
            stats: astats,
            ..
        } = service.search(&q, 5);
        assert_eq!(first.len(), second.len());
        for (a, b) in first.iter().zip(&second) {
            assert_eq!(a.interpretation, b.interpretation);
            assert_eq!(a.jtt, b.jtt);
        }
        assert_eq!(astats.gen.nonempty_probes, 0, "replay re-probed the index");
        let stats = service.service_stats();
        assert!(stats.nonempty_hits > 0);
        assert!(stats.result_hits + stats.predicate_hits > 0);
    }

    #[test]
    fn interpretations_requests_served() {
        let snap = snapshot();
        let service = SearchService::start(Arc::clone(&snap), 2);
        let q = KeywordQuery::from_terms(vec!["tom".into()]);
        let direct = snap.interpreter().top_k(&q, 7);
        let Some(Reply::Interpretations(Ok((served, _)))) = service
            .submit_request(Request::Interpretations { query: q, k: 7 })
            .wait()
        else {
            panic!("interpretations request not served");
        };
        assert_eq!(direct.len(), served.len());
        for (a, b) in direct.iter().zip(&served) {
            assert_eq!(a.interpretation, b.interpretation);
            assert!((a.log_score - b.log_score).abs() < 1e-12);
        }
    }

    #[test]
    fn many_tickets_in_flight() {
        let snap = snapshot();
        let service = SearchService::start(snap, 4);
        let queries = ["tom", "day", "moore", "mary"];
        let tickets: Vec<_> = (0..16)
            .map(|i| {
                let query = KeywordQuery::from_terms(vec![queries[i % queries.len()].into()]);
                (i, service.submit_request(Request::Answers { query, k: 3 }))
            })
            .collect();
        for (i, t) in tickets {
            let Some(Reply::Answers(Ok(reply))) = t.wait() else {
                panic!("request {i} not served");
            };
            assert!(reply.answers.len() <= 3, "request {i} overflowed k");
            assert_eq!(reply.epoch, SnapshotEpoch(0));
        }
        assert_eq!(service.service_stats().served, 16);
    }

    #[test]
    fn drop_joins_workers() {
        let snap = snapshot();
        let service = SearchService::start(snap, 3);
        let q = KeywordQuery::from_terms(vec!["tom".into()]);
        let _ = service.search(&q, 2);
        drop(service); // must not hang or leak threads
    }

    #[test]
    fn ingest_swaps_epoch_and_retires_cache_generation() {
        let snap = snapshot();
        let actor = snap.db.schema().table_id("actor").unwrap();
        let next_pk = snap.db.table(actor).len() as i64 + 1000;
        let service = SearchService::start(snap, 2);
        assert_eq!(service.serving_epoch(), SnapshotEpoch(0));

        // Warm the epoch-0 cache generation, then swap.
        let q = KeywordQuery::from_terms(vec!["tom".into()]);
        let before = service.search(&q, 5);
        assert_eq!(before.epoch, SnapshotEpoch(0));
        let warm = service.service_stats();
        assert!(warm.nonempty_entries > 0, "epoch-0 generation never filled");
        assert_eq!(warm.epoch_swaps, 0);
        assert_eq!(warm.stale_evictions, 0);

        let batch: RowBatch = vec![(actor, vec![Value::Int(next_pk), Value::text("tom newman")])];
        let receipt = service.ingest(&batch).unwrap();
        assert_eq!(
            receipt,
            IngestReceipt {
                epoch: SnapshotEpoch(1),
                rows: 1
            }
        );
        assert_eq!(service.serving_epoch(), SnapshotEpoch(1));

        let stats = service.service_stats();
        assert_eq!(stats.epoch, 1);
        assert_eq!(stats.epoch_swaps, 1);
        assert_eq!(stats.rows_ingested, 1);
        assert_eq!(
            stats.stale_evictions,
            warm.nonempty_entries + warm.predicate_entries + warm.result_entries,
            "displaced generation's entries must all be counted stale"
        );
        // The new generation starts cold: nothing from epoch 0 leaked in.
        assert_eq!(stats.nonempty_entries, 0);
        assert_eq!(stats.predicate_entries, 0);
        assert_eq!(stats.result_entries, 0);

        // Post-swap replies report the new epoch and see the new row.
        let after = service.search(&q, 50);
        assert_eq!(after.epoch, SnapshotEpoch(1));
        assert!(
            after.answers.len() >= before.answers.len(),
            "the inserted 'tom newman' row can only add matches"
        );
    }

    #[test]
    fn diversified_matches_cold_pipeline() {
        use crate::pipeline::{DiversifyConfig, DiversifyOptions};
        let snap = snapshot();
        let service = SearchService::start(Arc::clone(&snap), 2);
        let q = KeywordQuery::from_terms(vec!["tom".into()]);
        let opts = DiversifyOptions {
            config: DiversifyConfig { lambda: 0.1, k: 4 },
            pool: 12,
            cap: 5,
        };
        // Cold oracle: a fresh interpreter with plain (unshared) caches.
        let interpreter = snap.interpreter();
        let mut gen_cache = NonemptyCache::new();
        let mut exec_cache = ExecCache::new();
        let cold = QueryPipeline::new(
            &interpreter,
            ExecOptions::default(),
            &mut gen_cache,
            &mut exec_cache,
        )
        .diversified(&q, opts);
        // Twice through the warm service: second run is cache-served.
        for pass in 0..2 {
            let reply = diversified(&service, &q, opts);
            assert_eq!(reply.epoch, SnapshotEpoch(0));
            assert_eq!(reply.pool, cold.pool, "pass {pass}");
            assert_eq!(reply.answers.len(), cold.answers.len(), "pass {pass}");
            for (a, b) in reply.answers.iter().zip(&cold.answers) {
                assert_eq!(a.interpretation, b.interpretation, "pass {pass}");
                assert_eq!(a.relevance.to_bits(), b.relevance.to_bits(), "pass {pass}");
                assert_eq!(a.atoms, b.atoms, "pass {pass}");
                assert_eq!(a.keys, b.keys, "pass {pass}");
                assert_eq!(a.pool_rank, b.pool_rank, "pass {pass}");
            }
        }
        assert_eq!(service.service_stats().served, 2);
    }

    #[test]
    fn session_lifecycle_and_pinned_epoch_across_ingest() {
        let snap = snapshot();
        let actor = snap.db.schema().table_id("actor").unwrap();
        let next_pk = snap.db.table(actor).len() as i64 + 5000;
        let service = SearchService::start(Arc::clone(&snap), 2);
        let q = KeywordQuery::from_terms(vec!["tom".into()]);

        let opened = service.open_session(&q, 10, SessionConfig::default());
        assert_eq!(opened.epoch, SnapshotEpoch(0));
        assert_eq!(opened.steps, 0);
        assert!(opened.remaining > 0);
        assert_eq!(service.service_stats().sessions_open, 1);
        let epoch0 = Arc::downgrade(&*service.current.lock().unwrap());

        // The pinned-epoch oracle: a cold offline session over the same
        // snapshot must propose the same option and yield byte-identical
        // window answers.
        let interpreter = snap.interpreter();
        let mut oracle =
            ConstructionSession::for_query(&interpreter, &q, 10, SessionConfig::default());
        assert_eq!(oracle.remaining().len(), opened.remaining);
        assert_eq!(oracle.next_option(&snap.catalog), opened.next_option);

        // Ingest swaps the epoch; the session keeps answering from epoch 0.
        let batch: RowBatch = vec![(
            actor,
            vec![Value::Int(next_pk), Value::text("tom sessions")],
        )];
        let receipt = service.ingest(&batch).unwrap();
        assert_eq!(receipt.epoch, SnapshotEpoch(1));
        // Ingest displaced epoch 0; only the session's pin keeps it alive.
        assert!(epoch0.upgrade().is_some(), "the pin must hold epoch 0");

        let answers = service.session_answers(opened.id, 3).expect("session open");
        assert_eq!(answers.epoch, SnapshotEpoch(0), "session must stay pinned");
        let cold = oracle.window_answers(&snap.db, &snap.index, &snap.catalog, 3);
        assert_eq!(answers.answers.len(), cold.len());
        for ((si, sr), (ci, cr)) in answers.answers.iter().zip(&cold) {
            assert_eq!(si, ci);
            assert_eq!(sr.jtts, cr.jtts);
            assert_eq!(sr.keys, cr.keys);
        }

        // Advance both with the same verdict; the views stay in lockstep.
        if let Some(option) = opened.next_option.clone() {
            let view = service
                .advance_session(opened.id, &option, true)
                .expect("session open");
            oracle.apply(&snap.catalog, option, true);
            assert_eq!(view.remaining, oracle.remaining().len());
            assert_eq!(view.steps, 1);
            assert_eq!(view.epoch, SnapshotEpoch(0));
            assert_eq!(view.next_option, oracle.next_option(&snap.catalog));
        }

        // A session opened *now* pins the new epoch.
        let fresh = service.open_session(&q, 10, SessionConfig::default());
        assert_eq!(fresh.epoch, SnapshotEpoch(1));
        assert_eq!(service.service_stats().sessions_open, 2);

        // Closing frees the whole pinned epoch: snapshot plus cache
        // generation.
        assert!(service.close_session(opened.id));
        assert!(epoch0.upgrade().is_none(), "closed session leaked epoch 0");
        assert!(!service.close_session(opened.id), "double close");
        assert!(service.session_answers(opened.id, 3).is_none());
        assert_eq!(service.service_stats().sessions_open, 1);
        assert!(service.close_session(fresh.id));
    }

    #[test]
    fn session_registry_evicts_oldest_at_the_bound() {
        let snap = snapshot();
        let service = SearchService::start(snap, 1);
        // Empty queries open cheap (zero-candidate) sessions — enough to
        // exercise the bound without generation cost.
        let q = KeywordQuery::from_terms(vec![]);
        let overflow = 6;
        let ids: Vec<SessionId> = (0..MAX_OPEN_SESSIONS + overflow)
            .map(|_| service.open_session(&q, 5, SessionConfig::default()).id)
            .collect();
        let stats = service.service_stats();
        assert_eq!(stats.sessions_open, MAX_OPEN_SESSIONS);
        assert_eq!(stats.sessions_evicted, overflow);
        // The oldest ids were displaced; the newest still answer.
        for id in &ids[..overflow] {
            assert!(service.session_view(*id).is_none(), "{id:?} survived");
        }
        for id in &ids[ids.len() - 2..] {
            assert!(service.session_view(*id).is_some(), "{id:?} evicted");
        }
        // Explicit closes are not evictions.
        assert!(service.close_session(*ids.last().unwrap()));
        assert_eq!(service.service_stats().sessions_evicted, overflow);
    }

    #[test]
    fn timed_submits_stamp_completion_and_match_untimed() {
        let snap = snapshot();
        let service = SearchService::start(Arc::clone(&snap), 2);
        let q = KeywordQuery::from_terms(vec!["tom".into()]);
        let before = Instant::now();
        let plain = service.search(&q, 5).answers;
        let Some(Reply::AnswersTimed(timed)) = service
            .submit_request(Request::AnswersTimed {
                query: q.clone(),
                k: 5,
            })
            .wait()
        else {
            panic!("timed answers request not served");
        };
        assert!(timed.completed_at >= before);
        assert!(timed.completed_at <= Instant::now());
        let reply = timed.result.expect("request served");
        assert_eq!(reply.epoch, SnapshotEpoch(0));
        assert_eq!(reply.answers.len(), plain.len());
        for (a, b) in plain.iter().zip(&reply.answers) {
            assert_eq!(a.interpretation, b.interpretation);
            assert_eq!(a.jtt, b.jtt);
        }

        let opts = DiversifyOptions::default();
        let div_plain = diversified(&service, &q, opts);
        let Some(Reply::DiversifiedTimed(div_timed)) = service
            .submit_request(Request::DiversifiedTimed { query: q, opts })
            .wait()
        else {
            panic!("timed diversified request not served");
        };
        let div_reply = div_timed.result.expect("request served");
        assert_eq!(div_reply.pool, div_plain.pool);
        assert_eq!(div_reply.answers.len(), div_plain.answers.len());
    }

    #[test]
    fn panic_is_contained_and_worker_survives() {
        let snap = snapshot();
        // One worker: if the panic killed it, nothing could serve afterward.
        let service = SearchService::start(snap, 1);
        let q = KeywordQuery::from_terms(vec!["tom".into()]);
        let before = service.search(&q, 3).answers;

        // Channel alive: a contained panic still replies, as an error.
        let Some(Reply::Answers(Err(err))) = service.submit_panicking().wait() else {
            panic!("injected panic must surface as an error reply");
        };
        let RequestError::WorkerPanicked { message } = &err;
        assert!(message.contains("injected worker panic"), "{message}");
        assert_eq!(
            err.to_string(),
            format!("serving worker panicked: {message}")
        );

        // The same (sole) worker keeps serving identical answers.
        let after = service.search(&q, 3).answers;
        assert_eq!(before.len(), after.len());
        for (a, b) in before.iter().zip(&after) {
            assert_eq!(a.interpretation, b.interpretation);
            assert_eq!(a.log_score.to_bits(), b.log_score.to_bits());
        }
        assert_eq!(
            service.service_stats().served,
            3,
            "panicked request still counted"
        );
    }

    #[test]
    fn durable_service_checkpoints_and_reopens() {
        let dir =
            std::env::temp_dir().join(format!("keybridge-service-durable-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let snap = snapshot();
        let actor = snap.db.schema().table_id("actor").unwrap();
        let base_pk = snap.db.table(actor).len() as i64 + 7000;
        let opts = DurableOptions {
            max_joins: 4,
            ..DurableOptions::default()
        };
        let q = KeywordQuery::from_terms(vec!["tom".into()]);

        let service = SearchService::start_durable(Arc::clone(&snap), 2, &dir, &opts).unwrap();
        assert!(service.fault_plan().is_some());
        assert!(!service.is_poisoned());
        // A second start on the same directory must refuse, not clobber.
        assert!(matches!(
            SearchService::start_durable(Arc::clone(&snap), 1, &dir, &opts),
            Err(DurabilityError::Corrupt(_))
        ));

        for i in 0..2 {
            let batch: RowBatch = vec![(
                actor,
                vec![
                    Value::Int(base_pk + i),
                    Value::text(format!("tom durable{i}")),
                ],
            )];
            service.ingest(&batch).unwrap();
        }
        let receipt = service.checkpoint().unwrap();
        assert_eq!(receipt.epoch, SnapshotEpoch(2));
        assert!(receipt.snapshot_bytes > 0);
        // One more batch after the checkpoint: recovery must replay it.
        let batch: RowBatch = vec![(
            actor,
            vec![Value::Int(base_pk + 2), Value::text("tom durable2")],
        )];
        service.ingest(&batch).unwrap();
        let stats = service.service_stats();
        assert_eq!(stats.wal_batches, 3);
        assert!(stats.wal_bytes > 0);
        assert_eq!(stats.checkpoints, 1);
        assert_eq!(stats.recovery_replayed_batches, 0);
        let expected = service.search(&q, 10);
        drop(service);

        let recovered = SearchService::open(&dir, 2, &opts).unwrap();
        assert_eq!(recovered.serving_epoch(), SnapshotEpoch(3));
        assert_eq!(recovered.service_stats().recovery_replayed_batches, 1);
        let got = recovered.search(&q, 10);
        assert_eq!(got.epoch, expected.epoch);
        assert_eq!(got.answers.len(), expected.answers.len());
        for (a, b) in got.answers.iter().zip(&expected.answers) {
            assert_eq!(a.interpretation, b.interpretation);
            assert_eq!(a.jtt, b.jtt);
            assert_eq!(a.keys, b.keys);
            assert_eq!(a.log_score.to_bits(), b.log_score.to_bits());
        }
        drop(recovered);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn rejected_batch_on_a_durable_service_writes_nothing() {
        let dir =
            std::env::temp_dir().join(format!("keybridge-service-reject-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let snap = snapshot();
        let actor = snap.db.schema().table_id("actor").unwrap();
        let acts = snap.db.schema().table_id("acts").unwrap();
        let base_pk = snap.db.table(actor).len() as i64 + 8000;
        let opts = DurableOptions {
            max_joins: 4,
            ..DurableOptions::default()
        };
        let good = |i: i64| -> RowBatch {
            vec![(
                actor,
                vec![Value::Int(base_pk + i), Value::text(format!("tom wal{i}"))],
            )]
        };
        let service = SearchService::start_durable(Arc::clone(&snap), 1, &dir, &opts).unwrap();
        service.ingest(&good(0)).unwrap();
        let before = service.service_stats();
        assert_eq!(before.wal_batches, 1);
        assert_eq!(scan_wal(&dir).unwrap().records.len(), 1);

        // A good first row followed by an orphan: refused as a unit, before
        // the log sees a byte.
        let mut bad = good(1);
        bad.push((
            acts,
            vec![
                Value::Int(999_999),
                Value::Int(777_777),
                Value::Int(888_888),
                Value::text("ghost role"),
            ],
        ));
        assert!(matches!(
            service.ingest(&bad),
            Err(IngestError::Batch(BatchError::DanglingForeignKey {
                batch_row: 1,
                ..
            }))
        ));
        let after = service.service_stats();
        assert_eq!(after.wal_batches, before.wal_batches);
        assert_eq!(after.wal_bytes, before.wal_bytes);
        assert_eq!(after.epoch_swaps, 1);
        assert_eq!(scan_wal(&dir).unwrap().records.len(), 1);
        assert!(!service.is_poisoned(), "a rejection is not a fault");
        drop(service);

        // Recovery finds the pre-rejection epoch, and the batch whose first
        // row rode in the rejected one is still acceptable.
        let recovered = SearchService::open(&dir, 1, &opts).unwrap();
        assert_eq!(recovered.serving_epoch(), SnapshotEpoch(1));
        assert_eq!(recovered.service_stats().recovery_replayed_batches, 1);
        let receipt = recovered.ingest(&good(1)).unwrap();
        assert_eq!(receipt.epoch, SnapshotEpoch(2));
        drop(recovered);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn ingest_queued_behind_a_poisoning_write_is_refused() {
        let dir =
            std::env::temp_dir().join(format!("keybridge-service-queued-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let snap = snapshot();
        let actor = snap.db.schema().table_id("actor").unwrap();
        let batch: RowBatch = vec![(
            actor,
            vec![
                Value::Int(snap.db.table(actor).len() as i64 + 9000),
                Value::text("tom queued"),
            ],
        )];
        let opts = DurableOptions {
            max_joins: 4,
            ..DurableOptions::default()
        };
        let service = Arc::new(SearchService::start_durable(snap, 1, &dir, &opts).unwrap());
        // Stand in for a write that holds the lock and then fails: the
        // racer queues on the lock, the failure poisons, the lock drops.
        let failing_write = service.writer.lock().unwrap();
        let racer = {
            let service = Arc::clone(&service);
            std::thread::spawn(move || service.ingest(&batch))
        };
        // Lets the racer reach the lock; the outcome does not depend on it.
        std::thread::sleep(std::time::Duration::from_millis(50));
        service.durability.as_ref().unwrap().poison();
        drop(failing_write);
        assert!(matches!(racer.join().unwrap(), Err(IngestError::Poisoned)));
        assert_eq!(service.service_stats().wal_batches, 0);
        drop(service);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn start_durable_refuses_a_snapshot_its_options_would_not_rebuild() {
        // Reopen rebuilds the catalog and config from the options, so a
        // snapshot built under others would come back as a different
        // interpretation space. Refused before a byte is written.
        let dir =
            std::env::temp_dir().join(format!("keybridge-service-opts-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let data = ImdbDataset::generate(ImdbConfig::tiny(1)).unwrap();
        let one_join = SearchSnapshot::build(data.db, InterpreterConfig::default(), 1, 50_000);
        let one_join = Arc::new(one_join.unwrap());
        let start = |snap: &Arc<SearchSnapshot>, opts: &DurableOptions| {
            SearchService::start_durable(Arc::clone(snap), 1, &dir, opts).map(drop)
        };
        let defaults = DurableOptions::default();
        match start(&one_join, &defaults) {
            Err(DurabilityError::Corrupt(msg)) => assert!(msg.contains("catalog"), "{msg}"),
            other => panic!("a max_joins = 1 catalog under max_joins = 3: {other:?}"),
        }
        let matching = DurableOptions {
            max_joins: 1,
            ..DurableOptions::default()
        };
        let other_config = DurableOptions {
            config: InterpreterConfig {
                max_interpretations: 7,
                ..InterpreterConfig::default()
            },
            ..matching.clone()
        };
        match start(&one_join, &other_config) {
            Err(DurabilityError::Corrupt(msg)) => assert!(msg.contains("config"), "{msg}"),
            other => panic!("a default config under max_interpretations = 7: {other:?}"),
        }
        assert!(!dir.exists(), "a refused start wrote to its directory");
        start(&one_join, &matching).expect("matching options start");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn sessions_are_served_on_a_partition() {
        let snap = snapshot();
        let assignment = assign_shards(&snap.db, 2);
        let service = SearchService::start_with_assignment(Arc::clone(&snap), assignment, 1);
        assert!(
            service.snapshot().is_none(),
            "a partition has no one database"
        );
        let q = KeywordQuery::from_terms(vec!["tom".into()]);
        let opened = service.open_session(&q, 10, SessionConfig::default());
        let interpreter = snap.interpreter();
        let mut oracle =
            ConstructionSession::for_query(&interpreter, &q, 10, SessionConfig::default());
        assert_eq!(opened.remaining, oracle.remaining().len());
        assert_eq!(opened.next_option, oracle.next_option(&snap.catalog));
        let option = opened.next_option.clone().expect("tom has options");
        let view = service.advance_session(opened.id, &option, true).unwrap();
        oracle.apply(&snap.catalog, option, true);
        assert_eq!(view.remaining, oracle.remaining().len());
        let answers = service.session_answers(opened.id, 3).expect("session open");
        let cold = oracle.window_answers(&snap.db, &snap.index, &snap.catalog, 3);
        assert_eq!(answers.answers.len(), cold.len());
        for ((si, sr), (ci, cr)) in answers.answers.iter().zip(&cold) {
            assert_eq!(si, ci);
            assert_eq!(sr.jtts, cr.jtts);
            assert_eq!(sr.keys, cr.keys);
            assert_eq!(sr.all_keys, cr.all_keys);
        }
        assert!(service.close_session(opened.id));
    }

    #[test]
    fn non_durable_service_refuses_checkpoint() {
        let service = SearchService::start(snapshot(), 1);
        assert!(matches!(
            service.checkpoint(),
            Err(DurabilityError::NotDurable)
        ));
        assert!(service.fault_plan().is_none());
        let stats = service.service_stats();
        assert_eq!(stats.wal_batches, 0);
        assert_eq!(stats.recovery_replayed_batches, 0);
    }

    #[test]
    fn session_view_reports_without_advancing() {
        let snap = snapshot();
        let service = SearchService::start(snap, 1);
        let q = KeywordQuery::from_terms(vec!["tom".into()]);
        let opened = service.open_session(&q, 8, SessionConfig::default());
        let view = service.session_view(opened.id).expect("open");
        assert_eq!(view.remaining, opened.remaining);
        assert_eq!(view.steps, 0);
        assert_eq!(view.next_option, opened.next_option);
        assert!(service.session_view(SessionId(999)).is_none());
    }

    #[test]
    fn ingest_rejects_bad_batch_without_swapping() {
        let snap = snapshot();
        let acts = snap.db.schema().table_id("acts").unwrap();
        let service = SearchService::start(snap, 1);
        // Orphan foreign key: rejected atomically, epoch unchanged.
        let batch: RowBatch = vec![(
            acts,
            vec![
                Value::Int(999_999),
                Value::Int(777_777),
                Value::Int(888_888),
                Value::text("ghost role"),
            ],
        )];
        assert!(service.ingest(&batch).is_err());
        assert_eq!(service.serving_epoch(), SnapshotEpoch(0));
        let stats = service.service_stats();
        assert_eq!(stats.epoch_swaps, 0);
        assert_eq!(stats.rows_ingested, 0);
    }

    #[test]
    fn successive_ingests_accumulate() {
        let snap = snapshot();
        let actor = snap.db.schema().table_id("actor").unwrap();
        let base_pk = snap.db.table(actor).len() as i64 + 2000;
        let service = SearchService::start(snap, 2);
        for i in 0..3 {
            let batch: RowBatch = vec![(
                actor,
                vec![
                    Value::Int(base_pk + i),
                    Value::text(format!("fresh name{i}")),
                ],
            )];
            let receipt = service.ingest(&batch).unwrap();
            assert_eq!(receipt.epoch, SnapshotEpoch(i as u64 + 1));
        }
        let stats = service.service_stats();
        assert_eq!(stats.epoch, 3);
        assert_eq!(stats.epoch_swaps, 3);
        assert_eq!(stats.rows_ingested, 3);
        // All three rows are visible to the served snapshot.
        let snap_now = service.snapshot().unwrap();
        for i in 0..3 {
            assert!(snap_now.db.table(actor).by_pk(base_pk + i).is_some());
        }
        snap_now.db.validate().unwrap();
    }
}
