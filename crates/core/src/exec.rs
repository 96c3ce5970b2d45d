//! Materializing the results of a query interpretation (§2.2.6): translate
//! the interpretation's value predicates into candidate row sets via the
//! inverted index, run the template's join tree, and collect joining tuple
//! trees with their primary keys (the "information nuggets" of Chapter 4).
//!
//! [`ExecCache`] makes repeated execution cheap across a candidate list:
//! predicate row sets are computed once per distinct `(keyword bag, attr)`
//! pair — the same bag the generator's non-emptiness count covers — and
//! whole [`ExecutedResult`]s are memoized per interpretation, so a session
//! window refreshed through one cache, or a request served beside others
//! through the shared tier, executes each interpretation once. (A single
//! [`crate::Interpreter::answers_top_k`] request walks each ranked
//! interpretation once whatever its waves, so it never hits its own
//! results.)
//!
//! An `ExecCache` can additionally be backed by a process-wide
//! [`SharedExecCache`] (see [`crate::SearchService`]): predicate row sets
//! and finished results, each under the limit it ran at, then outlive the
//! query that computed them, so one user's intersections prune every other
//! user's executions. Shared hits, whole results and predicate row sets
//! alike, are `Arc`s handed out without an entry in the request's own map.
//! A whole-result hit costs no copying on any thread; a predicate hit skips
//! the index intersection but still copies its row list out of the `Arc`
//! when an execution consumes it (the join-tree `Candidates` API takes
//! owned vectors).

use crate::interp::BindingTarget;
use crate::striped::StripedMap;
use crate::template::TemplateCatalog;
use crate::QueryInterpretation;
use keybridge_index::InvertedIndex;
use keybridge_relstore::{
    execute_join_tree_naive, execute_join_tree_with_stats_in, AttrRef, BatchArena, Candidates,
    Database, ExecOptions, ExecOutcome, ExecStats, JoinTree, JoinedRow, RelResult, RowId, TableId,
};
use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;

/// A tuple identifier: table plus primary-key value. The unit of result
/// overlap in DivQ's metrics (one `ResultKey` = one information nugget).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ResultKey {
    pub table: TableId,
    pub pk: i64,
}

/// Materialized results of one interpretation.
#[derive(Debug, Clone)]
pub struct ExecutedResult {
    /// Joining tuple trees: one row per template node, aligned with the
    /// template's node order.
    pub jtts: Vec<JoinedRow>,
    /// The distinct *answer* tuples: rows of the non-free nodes (those
    /// carrying a keyword predicate). These are the information nuggets /
    /// subtopics of Chapter 4 — connector rows of free tables join the
    /// answer together but do not identify it. Shared with the
    /// diversification pools and replies that cite the whole result.
    pub keys: Arc<BTreeSet<ResultKey>>,
    /// All distinct tuples appearing in any JTT, free nodes included.
    pub all_keys: BTreeSet<ResultKey>,
    /// Executor counters of this run (batches, probes, semi-join reduction).
    pub stats: ExecStats,
}

impl ExecutedResult {
    /// Number of JTTs.
    pub fn len(&self) -> usize {
        self.jtts.len()
    }

    /// Whether the interpretation returned no results.
    pub fn is_empty(&self) -> bool {
        self.jtts.is_empty()
    }
}

/// One memoized execution: the limits it ran under plus its result.
#[derive(Debug, Clone)]
struct CachedExecution {
    limit: usize,
    max_intermediate: usize,
    result: Arc<ExecutedResult>,
}

impl CachedExecution {
    /// Whether this cached run can stand in for a request under `opts`: the
    /// cached run was at least as strict about `max_intermediate` and its
    /// limit was not the binding constraint (it either completed below its
    /// limit or had at least the requested one).
    fn satisfies(&self, opts: &ExecOptions) -> bool {
        self.max_intermediate <= opts.max_intermediate
            && (self.is_complete() || self.limit >= opts.limit)
    }

    /// Whether the run finished below its limit, i.e. holds the *full*
    /// result set. A complete run serves any limit; a run that stopped at
    /// its limit serves limits up to its own. Both may be shared: a prefix
    /// of a run at limit `L` is byte-identical to a fresh run at any
    /// `L' <= L` (post-reduction truncation preserves enumeration order),
    /// so serving it cross-query cannot change what any caller observes.
    fn is_complete(&self) -> bool {
        self.result.jtts.len() < self.limit
    }

    /// Whether this run serves every request `other` serves under
    /// [`CachedExecution::satisfies`].
    fn covers(&self, other: &CachedExecution) -> bool {
        self.max_intermediate <= other.max_intermediate
            && (self.is_complete() || (!other.is_complete() && self.limit >= other.limit))
    }

    /// Whether this run may replace `held` in the shared tier: it serves
    /// every request `held` serves, and more — no looser `max_intermediate`,
    /// and complete where `held` is limited, or limited at a larger limit.
    fn supersedes(&self, held: &CachedExecution) -> bool {
        self.covers(held) && !held.covers(self)
    }
}

/// Per-stripe admission caps of the shared tiers (see [`StripedMap`]).
const PREDICATE_STRIPE_CAP: usize = 4096;
const RESULT_STRIPE_CAP: usize = 1024;

/// A predicate's cache identity: sorted keyword bag + attribute.
type PredicateKey = (Vec<String>, AttrRef);

/// Process-wide execution cache shared by every worker of a service:
/// lock-striped maps of predicate row sets and memoized results, keyed
/// exactly like [`ExecCache`]. A result entry is the best finished run of
/// its interpretation so far, held under the limit it ran at: it serves a
/// request exactly when a local entry would (`satisfies`: complete, or run
/// at a limit no smaller, with `max_intermediate` no looser), and it is
/// replaced only by a run that serves every request it serves, and more.
/// Row ids are the whole store's, on a sharded service too. All maps are
/// valid only for the snapshot (database + index + catalog) they were
/// populated against — the service owns both, so the pairing is structural.
#[derive(Debug)]
pub struct SharedExecCache {
    predicates: StripedMap<PredicateKey, Arc<Vec<RowId>>>,
    results: StripedMap<Arc<QueryInterpretation>, CachedExecution>,
}

impl Default for SharedExecCache {
    fn default() -> Self {
        SharedExecCache {
            predicates: StripedMap::new(PREDICATE_STRIPE_CAP),
            results: StripedMap::new(RESULT_STRIPE_CAP),
        }
    }
}

impl SharedExecCache {
    pub fn new() -> Self {
        Self::default()
    }

    /// Distinct predicate row sets currently shared.
    pub fn predicate_count(&self) -> usize {
        self.predicates.len()
    }

    /// Executions currently shared, complete or stopped at their limit.
    pub fn result_count(&self) -> usize {
        self.results.len()
    }

    /// Cross-query predicate hits served so far.
    pub fn predicate_hits(&self) -> usize {
        self.predicates.hits()
    }

    /// Cross-query result hits served so far.
    pub fn result_hits(&self) -> usize {
        self.results.hits()
    }
}

/// Shared execution state across many interpretations of one query:
/// predicate row sets keyed by attribute, then by sorted keyword bag, and
/// memoized per-interpretation results. Optionally backed by a
/// [`SharedExecCache`], in which case local misses consult (and local
/// fills feed) the process-wide maps.
#[derive(Debug, Default)]
pub struct ExecCache {
    predicate_rows: HashMap<AttrRef, HashMap<Vec<String>, Arc<Vec<RowId>>>>,
    results: HashMap<Arc<QueryInterpretation>, CachedExecution>,
    shared: Option<Arc<SharedExecCache>>,
    /// Columnar batch arena reused by every execution routed through this
    /// cache: one query's capacity growth pays for the whole candidate
    /// list's joins (the `batch_allocs` counter measures exactly this).
    pub(crate) arena: BatchArena,
    /// Predicate row sets served from the cache (local or shared).
    pub predicate_hits: usize,
    /// Whole executions served from the cache (local or shared).
    pub result_hits: usize,
}

impl ExecCache {
    pub fn new() -> Self {
        Self::default()
    }

    /// A per-query cache whose misses fall through to `shared`.
    pub fn with_shared(shared: Arc<SharedExecCache>) -> Self {
        ExecCache {
            shared: Some(shared),
            ..Default::default()
        }
    }

    /// Number of distinct predicates materialized so far.
    pub fn predicate_count(&self) -> usize {
        self.predicate_rows.values().map(HashMap::len).sum()
    }

    /// Number of memoized executions.
    pub fn result_count(&self) -> usize {
        self.results.len()
    }

    /// Rows of `attr` containing all of `keywords`, from the local cache,
    /// the shared cache, or freshly intersected (and then cached in both).
    /// Both tiers are probed with the borrowed bag, and a shared hit is
    /// returned as it is, not copied into the local map (the shared tier
    /// never drops a key within its epoch), so only a fresh intersection
    /// builds an owned key. Binding keywords arrive sorted
    /// ([`QueryInterpretation::new`]), which is how the tiers key a bag; an
    /// interpretation built around that constructor with an unsorted bag
    /// still gets its rows, under a key of its own.
    pub(crate) fn rows(
        &mut self,
        index: &InvertedIndex,
        keywords: &[String],
        attr: AttrRef,
    ) -> Arc<Vec<RowId>> {
        if let Some(rows) = self
            .predicate_rows
            .get(&attr)
            .and_then(|bags| bags.get(keywords))
        {
            self.predicate_hits += 1;
            return Arc::clone(rows);
        }
        if let Some(shared) = &self.shared {
            let is = |(bag, a): &PredicateKey| *a == attr && bag[..] == *keywords;
            if let Some(rows) = shared.predicates.get_by(&(keywords, attr), is, |_| true) {
                self.predicate_hits += 1;
                return rows;
            }
        }
        let rows = Arc::new(index.rows_with_all(keywords, attr));
        if let Some(shared) = &self.shared {
            let key = (keywords.to_vec(), attr);
            shared
                .predicates
                .admit(key, Arc::clone(&rows), |_, _| false);
        }
        self.predicate_rows
            .entry(attr)
            .or_default()
            .insert(keywords.to_vec(), Arc::clone(&rows));
        rows
    }
}

/// Intersect two sorted row lists in place (`prev ∩= other`), two-pointer
/// merge — the sorted-merge path replacing the old per-binding `HashSet`.
fn intersect_sorted(prev: &mut Vec<RowId>, other: &[RowId]) {
    let mut out_i = 0;
    let mut j = 0;
    for i in 0..prev.len() {
        let r = prev[i];
        while j < other.len() && other[j] < r {
            j += 1;
        }
        if j < other.len() && other[j] == r {
            prev[out_i] = r;
            out_i += 1;
            j += 1;
        }
    }
    prev.truncate(out_i);
}

/// Node indexes of `interp` carrying a value predicate (the "bound" nodes
/// whose rows identify an answer).
pub fn bound_nodes(interp: &QueryInterpretation, node_count: usize) -> Vec<bool> {
    let mut bound = vec![false; node_count];
    for b in &interp.bindings {
        if matches!(b.target, BindingTarget::Value { .. }) {
            bound[b.target.node()] = true;
        }
    }
    bound
}

/// The pipeline's execution seam: the two things serving a query needs from
/// a store — run one interpretation to a limit through an [`ExecCache`], and
/// name a bound result row by its primary key. [`LocalExecutor`] answers
/// both from one database; the sharded coordinator scatters the first over
/// its shards and answers the second from its placement table.
/// Implementations are bundles of borrows into a pinned serving state, hence
/// `Copy`.
pub(crate) trait Executor: Copy {
    /// Execute `interp` under `opts`, memoized through `cache` by the
    /// [`with_result_cache`] rules (which key by the shared `interp`).
    fn execute(
        &self,
        interp: &Arc<QueryInterpretation>,
        opts: ExecOptions,
        cache: &mut ExecCache,
    ) -> RelResult<Arc<ExecutedResult>>;

    /// Primary-key value of `row` of `table`.
    fn pk(&self, table: TableId, row: RowId) -> i64;
}

/// The single-store [`Executor`]: index harvest, join-tree execution and
/// key minting over one database.
#[derive(Clone, Copy)]
pub struct LocalExecutor<'a> {
    pub(crate) db: &'a Database,
    pub(crate) index: &'a InvertedIndex,
    pub(crate) catalog: &'a TemplateCatalog,
}

impl Executor for LocalExecutor<'_> {
    fn execute(
        &self,
        interp: &Arc<QueryInterpretation>,
        opts: ExecOptions,
        cache: &mut ExecCache,
    ) -> RelResult<Arc<ExecutedResult>> {
        let key = || Arc::clone(interp);
        with_result_cache(cache, interp, key, opts, |c| {
            execute_inner(self, interp, opts, c)
        })
    }

    fn pk(&self, table: TableId, row: RowId) -> i64 {
        self.db.pk_value(table, row)
    }
}

/// Execute `interp` over `db`, one-shot: nothing outlives the call.
pub fn execute_interpretation(
    db: &Database,
    index: &InvertedIndex,
    catalog: &TemplateCatalog,
    interp: &QueryInterpretation,
    opts: ExecOptions,
) -> RelResult<ExecutedResult> {
    let local = LocalExecutor { db, index, catalog };
    execute_inner(&local, interp, opts, &mut ExecCache::new())
}

/// Execute `interp`, sharing predicate row sets and memoized results through
/// `cache`. A cached result is reused only when the cached run was at least
/// as strict about `max_intermediate` and its limit was not the binding
/// constraint (it either completed below its limit or had at least the
/// requested one).
/// When `cache` is backed by a [`SharedExecCache`], local result misses fall
/// through to the runs other queries have shared under the same rule, and
/// every fresh run is published back.
///
/// Results are shared (`Arc`) so cache hits cost no copying. Note a cache
/// hit may carry more than `opts.limit` JTTs (a complete run, or one at a
/// larger limit); callers that need an exact cap must truncate themselves
/// (the streaming answer loop takes only what it still needs).
pub fn execute_interpretation_cached(
    db: &Database,
    index: &InvertedIndex,
    catalog: &TemplateCatalog,
    interp: &QueryInterpretation,
    opts: ExecOptions,
    cache: &mut ExecCache,
) -> RelResult<Arc<ExecutedResult>> {
    let local = LocalExecutor { db, index, catalog };
    let key = || Arc::new(interp.clone());
    with_result_cache(cache, interp, key, opts, |c| {
        execute_inner(&local, interp, opts, c)
    })
}

/// The result-memoization spine of [`execute_interpretation_cached`] with the
/// actual execution abstracted out: check the local then shared caches under
/// the `satisfies` rule, otherwise run `compute` and publish its result to
/// both tiers — to the shared one unless the entry there already serves
/// every request the new run does (`supersedes`). A shared hit is returned
/// as it is and not copied into the local map: a later lookup through the
/// same cache finds it in the shared tier again, which never drops a key
/// within an epoch and only replaces an entry by one that serves more.
/// Fresh runs do enter the local map, because a full shared stripe may
/// refuse them. Every
/// [`Executor`] routes its executions through this path, so single-shard
/// and sharded serving share one caching semantics. `key` makes the owned
/// key a fresh run is filed under; lookups borrow `interp`.
pub(crate) fn with_result_cache(
    cache: &mut ExecCache,
    interp: &QueryInterpretation,
    key: impl FnOnce() -> Arc<QueryInterpretation>,
    opts: ExecOptions,
    compute: impl FnOnce(&mut ExecCache) -> RelResult<ExecutedResult>,
) -> RelResult<Arc<ExecutedResult>> {
    if let Some(c) = cache.results.get(interp) {
        if c.satisfies(&opts) {
            cache.result_hits += 1;
            return Ok(Arc::clone(&c.result));
        }
    }
    if let Some(shared) = &cache.shared {
        let is = |held: &Arc<QueryInterpretation>| **held == *interp;
        if let Some(hit) = shared.results.get_by(interp, is, |c| c.satisfies(&opts)) {
            cache.result_hits += 1;
            return Ok(hit.result);
        }
    }
    let result = Arc::new(compute(cache)?);
    let cached = CachedExecution {
        limit: opts.limit,
        max_intermediate: opts.max_intermediate,
        result: Arc::clone(&result),
    };
    let key = key();
    if let Some(shared) = &cache.shared {
        shared.results.admit(
            Arc::clone(&key),
            cached.clone(),
            CachedExecution::supersedes,
        );
    }
    cache.results.insert(key, cached);
    Ok(result)
}

/// The answer/all keys of a JTT slice under one interpretation's bound-node
/// projection — the single definition both fresh executions and prefix
/// truncations use, so the two can never drift apart.
pub(crate) fn collect_result_keys(
    executor: &impl Executor,
    nodes: &[TableId],
    bound: &[bool],
    jtts: &[JoinedRow],
) -> (BTreeSet<ResultKey>, BTreeSet<ResultKey>) {
    let mut keys = BTreeSet::new();
    let mut all_keys = BTreeSet::new();
    for jtt in jtts {
        for (node, row) in jtt.iter().enumerate() {
            let table = nodes[node];
            let key = ResultKey {
                table,
                pk: executor.pk(table, *row),
            };
            all_keys.insert(key);
            if bound[node] {
                keys.insert(key);
            }
        }
    }
    (keys, all_keys)
}

/// `res` truncated to at most `cap` JTTs, keys recomputed over the prefix —
/// the *answer content* (`jtts`, `keys`, `all_keys`) is byte-identical to a
/// fresh run under `limit = cap`. A cached result — complete, or run at a
/// larger limit — may carry more JTTs than a limited request asked for;
/// since post-reduction truncation preserves enumeration order, its prefix
/// is exactly what the fresh limited run would have returned, which is what
/// lets warm shared-cache hits serve limit-sensitive callers (session
/// windows, diversification pools) without breaking oracle equality. The
/// `stats` field is the one deliberate exception: it keeps the cached run's
/// counters (`result_count` etc. describe the cached execution, not a
/// hypothetical re-run) — cache hits cost no executor work, so fabricating
/// fresh-run counters would misreport what actually happened.
pub(crate) fn truncate_result(
    executor: &impl Executor,
    catalog: &TemplateCatalog,
    interp: &QueryInterpretation,
    res: &Arc<ExecutedResult>,
    cap: usize,
) -> Arc<ExecutedResult> {
    if res.jtts.len() <= cap {
        return Arc::clone(res);
    }
    let tpl = catalog.get(interp.template);
    let bound = bound_nodes(interp, tpl.tree.nodes.len());
    let jtts: Vec<JoinedRow> = res.jtts[..cap].to_vec();
    let (keys, all_keys) = collect_result_keys(executor, &tpl.tree.nodes, &bound, &jtts);
    Arc::new(ExecutedResult {
        jtts,
        keys: Arc::new(keys),
        all_keys,
        stats: res.stats,
    })
}

/// The answer keys of `res`'s first `cap` JTTs — [`truncate_result`]'s
/// keys-only fast path for stages that never look at the tuple trees. A
/// result within the cap shares its own key set.
pub(crate) fn prefix_keys(
    executor: &impl Executor,
    catalog: &TemplateCatalog,
    interp: &QueryInterpretation,
    res: &ExecutedResult,
    cap: usize,
) -> Arc<BTreeSet<ResultKey>> {
    if res.jtts.len() <= cap {
        return Arc::clone(&res.keys);
    }
    let tpl = catalog.get(interp.template);
    let bound = bound_nodes(interp, tpl.tree.nodes.len());
    Arc::new(collect_result_keys(executor, &tpl.tree.nodes, &bound, &res.jtts[..cap]).0)
}

/// The candidate row sets of `interp`'s value predicates, one per join-tree
/// node (`nodes[i]` is node `i`'s table): each predicate's rows come through
/// `cache` (local tier, shared tier, or a fresh `index` intersection), and
/// several predicates on one node intersect by sorted merge — both lists come
/// out of the index sorted. The one harvest of both topologies: `index` is
/// always the whole store's, and the sharded coordinator splits the rows
/// across its shards afterwards.
pub(crate) fn harvest_candidates(
    cache: &mut ExecCache,
    index: &InvertedIndex,
    interp: &QueryInterpretation,
    nodes: &[TableId],
) -> Candidates {
    let mut per_node: Vec<Option<Vec<RowId>>> = vec![None; nodes.len()];
    for b in &interp.bindings {
        if let BindingTarget::Value { node, attr } = b.target {
            let aref = AttrRef {
                table: nodes[node],
                attr,
            };
            let rows = cache.rows(index, &b.keywords, aref);
            match &mut per_node[node] {
                Some(prev) => intersect_sorted(prev, &rows),
                slot => *slot = Some((*rows).clone()),
            }
        }
    }
    Candidates { per_node }
}

fn execute_inner(
    local: &LocalExecutor<'_>,
    interp: &QueryInterpretation,
    opts: ExecOptions,
    cache: &mut ExecCache,
) -> RelResult<ExecutedResult> {
    let tree = &local.catalog.get(interp.template).tree;
    let candidates = harvest_candidates(cache, local.index, interp, &tree.nodes);
    let outcome =
        execute_join_tree_with_stats_in(local.db, tree, &candidates, opts, &mut cache.arena)?;
    Ok(executed_result(local, interp, tree, outcome))
}

/// [`execute_interpretation`] on the reference executor
/// ([`execute_join_tree_naive`]): the same candidate harvest, the per-binding
/// nested-loop join. Exists to be compared against; nothing on the serving
/// path calls it.
pub fn execute_interpretation_naive(
    db: &Database,
    index: &InvertedIndex,
    catalog: &TemplateCatalog,
    interp: &QueryInterpretation,
    opts: ExecOptions,
) -> RelResult<ExecutedResult> {
    let local = LocalExecutor { db, index, catalog };
    let tree = &catalog.get(interp.template).tree;
    let candidates = harvest_candidates(&mut ExecCache::new(), index, interp, &tree.nodes);
    let outcome = execute_join_tree_naive(db, tree, &candidates, opts)?;
    Ok(executed_result(&local, interp, tree, outcome))
}

/// An executor outcome with its answer/all keys collected.
fn executed_result(
    local: &LocalExecutor<'_>,
    interp: &QueryInterpretation,
    tree: &JoinTree,
    outcome: ExecOutcome,
) -> ExecutedResult {
    let bound = bound_nodes(interp, tree.nodes.len());
    let (keys, all_keys) = collect_result_keys(local, &tree.nodes, &bound, &outcome.rows);
    ExecutedResult {
        jtts: outcome.rows,
        keys: Arc::new(keys),
        all_keys,
        stats: outcome.stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interp::KeywordBinding;
    use crate::template::TemplateCatalog;
    use keybridge_relstore::{SchemaBuilder, TableKind, Value};

    fn setup() -> (Database, InvertedIndex, TemplateCatalog) {
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
        for (id, n) in [(1, "tom hanks"), (2, "tom cruise")] {
            db.insert(actor, vec![Value::Int(id), Value::text(n)])
                .unwrap();
        }
        for (id, t) in [(10, "the terminal"), (11, "top gun")] {
            db.insert(movie, vec![Value::Int(id), Value::text(t)])
                .unwrap();
        }
        for (id, a, m) in [(100, 1, 10), (101, 2, 11)] {
            db.insert(acts, vec![Value::Int(id), Value::Int(a), Value::Int(m)])
                .unwrap();
        }
        let idx = InvertedIndex::build(&db);
        let catalog = TemplateCatalog::enumerate(&db, 2, 100).unwrap();
        (db, idx, catalog)
    }

    fn hanks_terminal(db: &Database, catalog: &TemplateCatalog) -> QueryInterpretation {
        let sig = vec!["actor".to_owned(), "acts".to_owned(), "movie".to_owned()];
        let tpl = catalog.iter().find(|t| t.signature(db) == sig).unwrap();
        let actor = db.schema().table_id("actor").unwrap();
        let movie = db.schema().table_id("movie").unwrap();
        let actor_node = tpl.nodes_of_table(actor)[0];
        let movie_node = tpl.nodes_of_table(movie)[0];
        QueryInterpretation::new(
            tpl.id,
            vec![
                KeywordBinding {
                    keywords: vec!["hanks".into()],
                    target: BindingTarget::Value {
                        node: actor_node,
                        attr: db.schema().resolve("actor", "name").unwrap().attr,
                    },
                },
                KeywordBinding {
                    keywords: vec!["terminal".into()],
                    target: BindingTarget::Value {
                        node: movie_node,
                        attr: db.schema().resolve("movie", "title").unwrap().attr,
                    },
                },
            ],
        )
    }

    #[test]
    fn executes_and_collects_keys() {
        let (db, idx, catalog) = setup();
        let interp = hanks_terminal(&db, &catalog);
        let res =
            execute_interpretation(&db, &idx, &catalog, &interp, ExecOptions::default()).unwrap();
        assert_eq!(res.len(), 1);
        assert!(!res.is_empty());
        let actor = db.schema().table_id("actor").unwrap();
        let movie = db.schema().table_id("movie").unwrap();
        assert!(res.keys.contains(&ResultKey {
            table: actor,
            pk: 1
        }));
        assert!(res.keys.contains(&ResultKey {
            table: movie,
            pk: 10
        }));
        assert_eq!(res.keys.len(), 2); // the bound actor + movie tuples
        assert_eq!(res.all_keys.len(), 3); // plus the free acts tuple
        assert!(res.stats.probes > 0);
    }

    #[test]
    fn mismatched_predicates_yield_empty() {
        let (db, idx, catalog) = setup();
        // "cruise" + "terminal" never join.
        let sig = vec!["actor".to_owned(), "acts".to_owned(), "movie".to_owned()];
        let tpl = catalog.iter().find(|t| t.signature(&db) == sig).unwrap();
        let actor = db.schema().table_id("actor").unwrap();
        let movie = db.schema().table_id("movie").unwrap();
        let interp = QueryInterpretation::new(
            tpl.id,
            vec![
                KeywordBinding {
                    keywords: vec!["cruise".into()],
                    target: BindingTarget::Value {
                        node: tpl.nodes_of_table(actor)[0],
                        attr: db.schema().resolve("actor", "name").unwrap().attr,
                    },
                },
                KeywordBinding {
                    keywords: vec!["terminal".into()],
                    target: BindingTarget::Value {
                        node: tpl.nodes_of_table(movie)[0],
                        attr: db.schema().resolve("movie", "title").unwrap().attr,
                    },
                },
            ],
        );
        let res =
            execute_interpretation(&db, &idx, &catalog, &interp, ExecOptions::default()).unwrap();
        assert!(res.is_empty());
    }

    #[test]
    fn single_table_execution() {
        let (db, idx, catalog) = setup();
        let actor = db.schema().table_id("actor").unwrap();
        let tpl = catalog
            .iter()
            .find(|t| t.tree.nodes == vec![actor])
            .unwrap();
        let interp = QueryInterpretation::new(
            tpl.id,
            vec![KeywordBinding {
                keywords: vec!["tom".into()],
                target: BindingTarget::Value {
                    node: 0,
                    attr: db.schema().resolve("actor", "name").unwrap().attr,
                },
            }],
        );
        let res =
            execute_interpretation(&db, &idx, &catalog, &interp, ExecOptions::default()).unwrap();
        assert_eq!(res.len(), 2); // both toms
        assert_eq!(res.keys.len(), 2);
    }

    #[test]
    fn same_node_predicates_intersect_by_merge() {
        let (db, idx, catalog) = setup();
        let actor = db.schema().table_id("actor").unwrap();
        let tpl = catalog
            .iter()
            .find(|t| t.tree.nodes == vec![actor])
            .unwrap();
        let name = db.schema().resolve("actor", "name").unwrap().attr;
        // Two separate predicates on the same node: "tom" ∩ "hanks".
        let interp = QueryInterpretation::new(
            tpl.id,
            vec![
                KeywordBinding {
                    keywords: vec!["tom".into()],
                    target: BindingTarget::Value {
                        node: 0,
                        attr: name,
                    },
                },
                KeywordBinding {
                    keywords: vec!["hanks".into()],
                    target: BindingTarget::Value {
                        node: 0,
                        attr: name,
                    },
                },
            ],
        );
        for (name, execute) in [
            (
                "hash join",
                execute_interpretation as fn(_, _, _, _, _) -> _,
            ),
            ("naive", execute_interpretation_naive),
        ] {
            let res = execute(&db, &idx, &catalog, &interp, ExecOptions::default()).unwrap();
            assert_eq!(res.len(), 1, "{name}");
            assert!(res.keys.contains(&ResultKey {
                table: actor,
                pk: 1
            }));
        }
    }

    #[test]
    fn cache_reuses_predicates_and_results() {
        let (db, idx, catalog) = setup();
        let interp = hanks_terminal(&db, &catalog);
        let mut cache = ExecCache::new();
        let a = execute_interpretation_cached(
            &db,
            &idx,
            &catalog,
            &interp,
            ExecOptions::default(),
            &mut cache,
        )
        .unwrap();
        assert_eq!(cache.result_hits, 0);
        assert_eq!(cache.predicate_count(), 2);
        let b = execute_interpretation_cached(
            &db,
            &idx,
            &catalog,
            &interp,
            ExecOptions::default(),
            &mut cache,
        )
        .unwrap();
        assert_eq!(cache.result_hits, 1);
        assert_eq!(a.jtts, b.jtts);
        assert_eq!(a.keys, b.keys);
    }

    #[test]
    fn cached_result_not_reused_when_limit_grows() {
        let (db, idx, catalog) = setup();
        let actor = db.schema().table_id("actor").unwrap();
        let tpl = catalog
            .iter()
            .find(|t| t.tree.nodes == vec![actor])
            .unwrap();
        let interp = QueryInterpretation::new(
            tpl.id,
            vec![KeywordBinding {
                keywords: vec!["tom".into()],
                target: BindingTarget::Value {
                    node: 0,
                    attr: db.schema().resolve("actor", "name").unwrap().attr,
                },
            }],
        );
        let mut cache = ExecCache::new();
        let small = ExecOptions {
            limit: 1,
            ..Default::default()
        };
        let r1 =
            execute_interpretation_cached(&db, &idx, &catalog, &interp, small, &mut cache).unwrap();
        assert_eq!(r1.len(), 1); // truncated: cached entry hit its limit
        let big = ExecOptions {
            limit: 10,
            ..Default::default()
        };
        let r2 =
            execute_interpretation_cached(&db, &idx, &catalog, &interp, big, &mut cache).unwrap();
        assert_eq!(
            cache.result_hits, 0,
            "limited result must not satisfy a larger limit"
        );
        assert_eq!(r2.len(), 2);
        // And now the bigger (complete) result satisfies smaller requests.
        let r3 =
            execute_interpretation_cached(&db, &idx, &catalog, &interp, small, &mut cache).unwrap();
        assert_eq!(cache.result_hits, 1);
        assert_eq!(r3.len(), 2); // cached complete result, caller sees ≥ limit
    }

    /// The tiny IMDB fixture and one interpretation of it whose complete
    /// run has more than 10 JTTs.
    fn imdb_with_wide_interpretation() -> (
        Database,
        InvertedIndex,
        TemplateCatalog,
        Arc<QueryInterpretation>,
    ) {
        use crate::generate::{Interpreter, InterpreterConfig};
        use crate::keyword::KeywordQuery;
        use keybridge_datagen::{ImdbConfig, ImdbDataset};
        let db = ImdbDataset::generate(ImdbConfig::tiny(1)).unwrap().db;
        let idx = InvertedIndex::build(&db);
        let catalog = TemplateCatalog::enumerate(&db, 4, 50_000).unwrap();
        let wide = {
            let it = Interpreter::new(&db, &idx, &catalog, InterpreterConfig::default());
            ["drama", "comedy", "tom", "john"]
                .iter()
                .flat_map(|t| it.top_k(&KeywordQuery::from_terms(vec![t.to_string()]), 10))
                .map(|s| s.interpretation)
                .find(|i| {
                    let all = ExecOptions {
                        limit: usize::MAX,
                        ..Default::default()
                    };
                    execute_interpretation(&db, &idx, &catalog, i, all)
                        .unwrap()
                        .len()
                        > 10
                })
                .expect("fixture has an interpretation with > 10 JTTs")
        };
        (db, idx, catalog, wide)
    }

    fn at(limit: usize) -> ExecOptions {
        ExecOptions {
            limit,
            ..Default::default()
        }
    }

    /// The shared entry of `interp`: (limit it ran at, result).
    fn shared_entry(
        shared: &SharedExecCache,
        interp: &Arc<QueryInterpretation>,
    ) -> (usize, Arc<ExecutedResult>) {
        let held = shared.results.get(interp, |_| true).expect("entry shared");
        (held.limit, held.result)
    }

    #[test]
    fn limited_runs_are_shared_under_their_limit() {
        let (db, idx, catalog, interp) = imdb_with_wide_interpretation();
        let local = LocalExecutor {
            db: &db,
            index: &idx,
            catalog: &catalog,
        };
        let shared = Arc::new(SharedExecCache::new());
        // Each call is one request: a fresh local cache over the shared tier.
        let request = |opts: ExecOptions| {
            let mut cache = ExecCache::with_shared(Arc::clone(&shared));
            let res = local.execute(&interp, opts, &mut cache).unwrap();
            (res, cache.result_hits)
        };

        // A run that stopped at limit 3 is published ...
        let (r3, hits) = request(at(3));
        assert_eq!((r3.len(), hits), (3, 0));
        assert_eq!(shared.result_count(), 1);
        // ... and serves limit 2 from the shared tier, its prefix equal to a
        // fresh limit-2 run.
        let (r, hits) = request(at(2));
        assert_eq!(hits, 1, "limit 2 must hit the limit-3 entry");
        assert!(Arc::ptr_eq(&r, &r3));
        let fresh2 = execute_interpretation(&db, &idx, &catalog, &interp, at(2)).unwrap();
        let cut = truncate_result(&local, &catalog, &interp, &r, 2);
        assert_eq!(cut.jtts, fresh2.jtts);
        assert_eq!(cut.keys, fresh2.keys);
        assert_eq!(cut.all_keys, fresh2.all_keys);

        // Limit 10 is more than the entry can answer: it executes and
        // replaces the entry, which then serves limit 3.
        let (r10, hits) = request(at(10));
        assert_eq!((r10.len(), hits), (10, 0));
        let (limit, held) = shared_entry(&shared, &interp);
        assert_eq!(limit, 10);
        assert!(Arc::ptr_eq(&held, &r10));
        let (r, hits) = request(at(3));
        assert_eq!(hits, 1);
        assert!(Arc::ptr_eq(&r, &r10));
        assert_eq!(shared.result_count(), 1);

        // A complete run replaces the limited one; then no request executes
        // again and nothing replaces it — not a limited run, not a second
        // complete one.
        let (all, hits) = request(at(10_000));
        assert_eq!(hits, 0);
        assert!(all.len() > 10 && all.len() < 10_000);
        for limit in [1, 10, 10_000, usize::MAX] {
            let (r, hits) = request(at(limit));
            assert_eq!(hits, 1, "limit {limit} must hit the complete entry");
            assert!(Arc::ptr_eq(&r, &all));
        }
        for limit in [5, 20_000] {
            let run = CachedExecution {
                limit,
                max_intermediate: ExecOptions::default().max_intermediate,
                result: Arc::new(
                    execute_interpretation(&db, &idx, &catalog, &interp, at(limit)).unwrap(),
                ),
            };
            shared
                .results
                .admit(interp.clone(), run, CachedExecution::supersedes);
            assert!(Arc::ptr_eq(&shared_entry(&shared, &interp).1, &all));
        }
    }

    #[test]
    fn a_limited_shared_hit_does_not_answer_a_larger_limit() {
        let (db, idx, catalog, interp) = imdb_with_wide_interpretation();
        let local = LocalExecutor {
            db: &db,
            index: &idx,
            catalog: &catalog,
        };
        let shared = Arc::new(SharedExecCache::new());
        let mut earlier = ExecCache::with_shared(Arc::clone(&shared));
        local.execute(&interp, at(3), &mut earlier).unwrap();
        // One request takes the limit-3 entry as a shared hit, then asks for
        // more of the same interpretation: it must execute.
        let mut cache = ExecCache::with_shared(Arc::clone(&shared));
        let small = local.execute(&interp, at(3), &mut cache).unwrap();
        assert_eq!((small.len(), cache.result_hits), (3, 1));
        let large = local.execute(&interp, at(10), &mut cache).unwrap();
        assert_eq!(cache.result_hits, 1, "limit 10 was served from limit 3");
        assert_eq!(large.len(), 10);
    }

    #[test]
    fn intersect_sorted_basics() {
        let mut a = vec![RowId(1), RowId(3), RowId(5), RowId(9)];
        intersect_sorted(&mut a, &[RowId(0), RowId(3), RowId(4), RowId(9), RowId(11)]);
        assert_eq!(a, vec![RowId(3), RowId(9)]);
        let mut b: Vec<RowId> = vec![];
        intersect_sorted(&mut b, &[RowId(1)]);
        assert!(b.is_empty());
        let mut c = vec![RowId(2)];
        intersect_sorted(&mut c, &[]);
        assert!(c.is_empty());
    }
}
