//! Interpretation generation (§3.5.2): compose keyword interpretations with
//! query templates into complete, minimal query interpretations.

use crate::exec::{bound_nodes, ExecCache, ExecutedResult, Executor, LocalExecutor, ResultKey};
use crate::interp::{BindingTarget, KeywordBinding, QueryInterpretation};
use crate::keyword::KeywordQuery;
use crate::prob::{IncrementalScorer, ProbabilityConfig, ProbabilityModel, TemplatePrior};
use crate::striped::StripedMap;
use crate::template::TemplateCatalog;
use keybridge_index::{InvertedIndex, SchemaTarget};
use keybridge_relstore::{AttrRef, Database, ExecOptions, ExecStats, JoinedRow, TableId};
use std::cmp::Ordering;
use std::collections::{BinaryHeap, HashMap, HashSet};
use std::sync::Arc;

/// Generation and scoring knobs.
///
/// The paper's model is fixed, not configured: every value predicate must
/// match at least one row (the DivQ non-empty-result necessary condition,
/// §4.4.1), and a keyword may bind to a table or attribute *name* as well
/// as to a value (Def. 3.5.4). What callers do choose is the size cap, the
/// probability model and the template prior.
#[derive(Debug, Clone)]
pub struct InterpreterConfig {
    /// Hard cap on generated interpretations per query (the interpretation
    /// space grows polynomially with schema size and exponentially with
    /// query length; §3.8.5).
    pub max_interpretations: usize,
    /// Probability model knobs.
    pub prob: ProbabilityConfig,
    /// Template prior.
    pub prior: TemplatePrior,
}

impl Default for InterpreterConfig {
    fn default() -> Self {
        InterpreterConfig {
            max_interpretations: 20_000,
            prob: ProbabilityConfig::default(),
            prior: TemplatePrior::Uniform,
        }
    }
}

/// Counters describing one generation run, for benches and regression
/// assertions (the exhaustive pipeline materializes the whole candidate
/// space; best-first should materialize barely more than `k`).
///
/// A pull of a resumed search ([`crate::BestFirstSource`]) reports the work
/// *it* added; [`Self::absorb`] folds the pulls of one request into the
/// counters a single fresh `top_k` at the last pull's `k` reports.
#[derive(Debug, Clone, Copy, Default)]
pub struct GenerationStats {
    /// Complete interpretations actually constructed (grouped, hashed).
    pub materialized: usize,
    /// Search states expanded (popped with unassigned occurrences left).
    pub expanded: usize,
    /// Search states pushed onto the frontier.
    pub pushed: usize,
    /// Children cut before being pushed — by the k-th-best bound or by
    /// minimality infeasibility — and still cut when the pull returned (a
    /// larger pull lowers the bound and may admit some after all).
    pub pruned: usize,
    /// Non-emptiness probes issued against the index.
    pub nonempty_probes: usize,
    /// Probes answered by the memo cache.
    pub nonempty_cache_hits: usize,
    /// Probes answered by the process-wide shared cache (another query's
    /// work, possibly on another thread).
    pub nonempty_shared_hits: usize,
    /// Interpretations returned.
    pub emitted: usize,
}

impl GenerationStats {
    /// Fold a later pull of the same source into this running total. Work
    /// counters add. `pruned` and `emitted` describe what a pull ended
    /// with — the cuts in force, the interpretations returned — so the
    /// later pull's values stand.
    pub fn absorb(&mut self, later: &GenerationStats) {
        self.materialized += later.materialized;
        self.expanded += later.expanded;
        self.pushed += later.pushed;
        self.pruned = later.pruned;
        self.nonempty_probes += later.nonempty_probes;
        self.nonempty_cache_hits += later.nonempty_cache_hits;
        self.nonempty_shared_hits += later.nonempty_shared_hits;
        self.emitted = later.emitted;
    }
}

/// An interpretation with its score under the probability model.
#[derive(Debug, Clone)]
pub struct ScoredInterpretation {
    pub interpretation: QueryInterpretation,
    /// `ln P(Q|K)` up to the per-query constant.
    pub log_score: f64,
    /// Probability normalized over the generated candidate set.
    pub probability: f64,
}

/// The generator's memoized non-emptiness probes, keyed by keyword
/// occurrence bitmask and attribute, extracted so it can persist across
/// repeated `top_k` calls for the *same* keyword query (occurrence masks are
/// positional — the cache remembers its term sequence and self-clears when
/// handed a different query, so stale verdicts can never leak).
/// [`Interpreter::answers_top_k`] hands one cache to every pull of its
/// generation session.
///
/// A cache can additionally be backed by a [`SharedNonemptyCache`], whose
/// verdicts are keyed by the *sorted keyword bag* instead of the positional
/// mask and therefore survive across queries (and threads): local misses
/// consult the shared map before probing the index, and fresh verdicts are
/// published back.
#[derive(Debug, Default)]
pub struct NonemptyCache {
    map: HashMap<(u64, AttrRef), bool>,
    terms: Vec<String>,
    shared: Option<Arc<SharedNonemptyCache>>,
}

impl NonemptyCache {
    pub fn new() -> Self {
        Self::default()
    }

    /// A per-query cache whose misses fall through to `shared`.
    pub fn with_shared(shared: Arc<SharedNonemptyCache>) -> Self {
        NonemptyCache {
            shared: Some(shared),
            ..Default::default()
        }
    }

    /// Number of memoized probes.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

/// Process-wide non-emptiness verdicts shared by every worker of a
/// [`crate::SearchService`]: a lock-striped map of `(sorted keyword bag,
/// attribute) → bool`. Verdicts are pure facts about the indexed database,
/// so concurrent readers never observe anything stale; striping keeps
/// writer contention away from the read-mostly fast path. Valid only for
/// the index it was populated against.
#[derive(Debug)]
pub struct SharedNonemptyCache {
    /// Keyed by *sorted* keyword bag + attribute.
    verdicts: StripedMap<(Vec<String>, AttrRef), bool>,
}

/// Per-stripe admission cap of the shared verdict map (see [`StripedMap`]).
const VERDICT_STRIPE_CAP: usize = 65_536;

impl Default for SharedNonemptyCache {
    fn default() -> Self {
        SharedNonemptyCache {
            verdicts: StripedMap::new(VERDICT_STRIPE_CAP),
        }
    }
}

impl SharedNonemptyCache {
    pub fn new() -> Self {
        Self::default()
    }

    /// Verdicts currently shared.
    pub fn len(&self) -> usize {
        self.verdicts.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Cross-query hits served so far.
    pub fn hits(&self) -> usize {
        self.verdicts.hits()
    }
}

/// One ranked end-to-end answer: a joining tuple tree of the interpretation
/// it came from, ordered best-interpretation-first.
#[derive(Debug, Clone)]
pub struct RankedAnswer {
    /// The interpretation this answer instantiates.
    pub interpretation: QueryInterpretation,
    /// The interpretation's `ln P(Q|K)` (answers inherit their
    /// interpretation's score; JTTs of one interpretation tie).
    pub log_score: f64,
    /// One row id per template node.
    pub jtt: JoinedRow,
    /// The answer's identifying tuples: `ResultKey`s of the value-bound
    /// nodes, sorted and deduplicated.
    pub keys: Vec<ResultKey>,
}

/// Counters describing one [`Interpreter::answers_top_k`] run.
#[derive(Debug, Clone, Default)]
pub struct AnswerStats {
    /// Interpretations pulled from the generator in the final wave.
    pub generated: usize,
    /// Distinct interpretations actually executed (cache misses).
    pub executed: usize,
    /// Executed interpretations with at least one JTT.
    pub nonempty: usize,
    /// Executions that errored (e.g. intermediate-blowup guard) and were
    /// skipped.
    pub exec_errors: usize,
    /// Generation waves run (k grows geometrically until enough answers).
    pub waves: usize,
    /// Answers returned.
    pub answers: usize,
    /// Predicate row sets served from the execution cache.
    pub predicate_cache_hits: usize,
    /// Whole executions served from the cache (wave replays).
    pub result_cache_hits: usize,
    /// The request's generation work over all waves: what one fresh
    /// `top_k` at the final wave's `k` counts.
    pub gen: GenerationStats,
    /// Executor counters aggregated over all fresh executions.
    pub exec: ExecStats,
}

/// One candidate target for a single keyword, before template localization.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum TermCandidate {
    Value(AttrRef),
    TableName(keybridge_relstore::TableId),
    AttrName(AttrRef),
}

/// The interpretation generator over one database, its inverted index and
/// its template catalog. (A sharded coordinator runs the same generator over
/// its *global* index and a schema-only database.)
pub struct Interpreter<'a> {
    db: &'a Database,
    index: &'a InvertedIndex,
    catalog: &'a TemplateCatalog,
    config: InterpreterConfig,
}

impl<'a> Interpreter<'a> {
    pub fn new(
        db: &'a Database,
        index: &'a InvertedIndex,
        catalog: &'a TemplateCatalog,
        config: InterpreterConfig,
    ) -> Self {
        Interpreter {
            db,
            index,
            catalog,
            config,
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &InterpreterConfig {
        &self.config
    }

    /// The template catalog in use (borrowed for the catalog's own
    /// lifetime, so results can outlive the interpreter).
    pub fn catalog(&self) -> &'a TemplateCatalog {
        self.catalog
    }

    /// The database being interpreted over.
    pub fn db(&self) -> &'a Database {
        self.db
    }

    /// The inverted index in use.
    pub fn index(&self) -> &'a InvertedIndex {
        self.index
    }

    /// Candidate interpretations of each distinct term, schema-level.
    fn term_candidates(&self, query: &KeywordQuery) -> HashMap<String, Vec<TermCandidate>> {
        let mut out = HashMap::new();
        for term in query.distinct_terms() {
            let mut cands = Vec::new();
            for attr in self.index.attrs_containing(term) {
                cands.push(TermCandidate::Value(*attr));
            }
            for m in self.index.schema_matches(term) {
                match m {
                    SchemaTarget::Table(t) => cands.push(TermCandidate::TableName(*t)),
                    SchemaTarget::Attribute(a) => cands.push(TermCandidate::AttrName(*a)),
                }
            }
            // Deterministic order.
            cands.sort_by_key(|c| match c {
                TermCandidate::Value(a) => (0u8, a.table.0, a.attr.0),
                TermCandidate::AttrName(a) => (1, a.table.0, a.attr.0),
                TermCandidate::TableName(t) => (2, t.0, 0),
            });
            cands.dedup();
            out.insert(term.to_owned(), cands);
        }
        out
    }

    /// Enumerate complete, minimal interpretations of `query` (Def. 3.5.4),
    /// capped at `max_interpretations`.
    pub fn enumerate_interpretations(&self, query: &KeywordQuery) -> Vec<QueryInterpretation> {
        if query.is_empty() {
            return Vec::new();
        }
        let candidates = self.term_candidates(query);
        let terms = query.terms();
        let mut results: HashSet<QueryInterpretation> = HashSet::new();

        'template: for tpl in self.catalog.iter() {
            // Localize candidates to template nodes.
            let mut local: Vec<Vec<BindingTarget>> = Vec::with_capacity(terms.len());
            for term in terms {
                let targets = localize_candidates(&candidates[term.as_str()], tpl);
                if targets.is_empty() {
                    continue 'template; // term uninterpretable here
                }
                local.push(targets);
            }

            // DFS over per-term targets.
            let mut assignment: Vec<BindingTarget> = Vec::with_capacity(terms.len());
            self.dfs(tpl, terms, &local, &mut assignment, &mut results);
            if results.len() >= self.config.max_interpretations {
                break;
            }
        }

        let mut v: Vec<QueryInterpretation> = results.into_iter().collect();
        // Deterministic output order (callers re-rank anyway).
        v.sort_by(|a, b| {
            a.template
                .cmp(&b.template)
                .then_with(|| a.bindings.cmp(&b.bindings))
        });
        v.truncate(self.config.max_interpretations);
        v
    }

    fn dfs(
        &self,
        tpl: &crate::template::QueryTemplate,
        terms: &[String],
        local: &[Vec<BindingTarget>],
        assignment: &mut Vec<BindingTarget>,
        results: &mut HashSet<QueryInterpretation>,
    ) {
        if results.len() >= self.config.max_interpretations {
            return;
        }
        let i = assignment.len();
        if i == terms.len() {
            // Group terms by target into bindings.
            let mut groups: HashMap<BindingTarget, Vec<String>> = HashMap::new();
            for (t, target) in terms.iter().zip(assignment.iter()) {
                groups.entry(*target).or_default().push(t.clone());
            }
            let bindings: Vec<KeywordBinding> = groups
                .into_iter()
                .map(|(target, keywords)| KeywordBinding { keywords, target })
                .collect();
            let interp = QueryInterpretation::new(tpl.id, bindings);
            if !interp.is_minimal(self.catalog) {
                return;
            }
            if !self.predicates_nonempty(tpl, &interp) {
                return;
            }
            results.insert(interp);
            return;
        }
        for target in &local[i] {
            assignment.push(*target);
            self.dfs(tpl, terms, local, assignment, results);
            assignment.pop();
            if results.len() >= self.config.max_interpretations {
                return;
            }
        }
    }

    /// Necessary non-emptiness condition: each value-bag predicate matches
    /// at least one row of its attribute.
    fn predicates_nonempty(
        &self,
        tpl: &crate::template::QueryTemplate,
        interp: &QueryInterpretation,
    ) -> bool {
        for b in &interp.bindings {
            if let BindingTarget::Value { node, attr } = b.target {
                let aref = AttrRef {
                    table: tpl.tree.nodes[node],
                    attr,
                };
                if !self.index.has_row_with_all(&b.keywords, aref) {
                    return false;
                }
            }
        }
        true
    }

    /// Enumerate, score, normalize, and sort interpretations, best first.
    /// Ties break on canonical interpretation order for determinism.
    pub fn ranked_interpretations(&self, query: &KeywordQuery) -> Vec<ScoredInterpretation> {
        let interps = self.enumerate_interpretations(query);
        self.rank(query, interps)
    }

    /// Like [`Self::ranked_interpretations`], but the candidate space also
    /// contains *partial* interpretations — interpretations of every
    /// non-empty keyword subset, charged `P_u` per unmapped keyword
    /// (Eq. 3.6 / §4.4.2). This is the DivQ candidate pool: partial
    /// interpretations interleave with complete ones and their results
    /// overlap, which is exactly the redundancy diversification removes
    /// (Table 4.1's "A director CHRISTOPHER GUEST" at rank 2).
    ///
    /// Queries longer than 12 keywords fall back to complete-only ranking
    /// (the subset lattice would explode).
    pub fn ranked_with_partials(&self, query: &KeywordQuery) -> Vec<ScoredInterpretation> {
        let n = query.len();
        if n == 0 || n > 12 {
            return self.ranked_interpretations(query);
        }
        let terms = query.terms();
        let mut all: HashSet<QueryInterpretation> = HashSet::new();
        for mask in 1u32..(1u32 << n) {
            let subset: Vec<String> = (0..n)
                .filter(|i| mask & (1 << i) != 0)
                .map(|i| terms[i].clone())
                .collect();
            let sub = KeywordQuery::from_terms(subset);
            all.extend(self.enumerate_interpretations(&sub));
            if all.len() >= self.config.max_interpretations {
                break;
            }
        }
        let mut v: Vec<QueryInterpretation> = all.into_iter().collect();
        v.sort_by(|a, b| {
            a.template
                .cmp(&b.template)
                .then_with(|| a.bindings.cmp(&b.bindings))
        });
        v.truncate(self.config.max_interpretations);
        self.rank(query, v)
    }

    /// Score and sort a pre-enumerated interpretation list.
    pub fn rank(
        &self,
        query: &KeywordQuery,
        interps: Vec<QueryInterpretation>,
    ) -> Vec<ScoredInterpretation> {
        let model = ProbabilityModel::new(
            self.db,
            self.index,
            self.catalog,
            self.config.prior.clone(),
            self.config.prob,
        );
        let logs: Vec<f64> = interps
            .iter()
            .map(|i| model.log_score(i, query.len()))
            .collect();
        let probs = ProbabilityModel::normalize(&logs);
        let mut scored: Vec<ScoredInterpretation> = interps
            .into_iter()
            .zip(logs)
            .zip(probs)
            .map(
                |((interpretation, log_score), probability)| ScoredInterpretation {
                    interpretation,
                    log_score,
                    probability,
                },
            )
            .collect();
        scored.sort_by(|a, b| {
            b.log_score
                .partial_cmp(&a.log_score)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| a.interpretation.template.cmp(&b.interpretation.template))
                .then_with(|| a.interpretation.bindings.cmp(&b.interpretation.bindings))
        });
        scored
    }

    // -----------------------------------------------------------------
    // Score-guided top-k generation.
    // -----------------------------------------------------------------

    /// The top `k` interpretations of `query` — complete *and* partial, the
    /// DivQ candidate pool — identical in content, score, and order to the
    /// first `k` of [`Self::ranked_with_partials`], but produced by
    /// best-first search over partial keyword assignments instead of
    /// enumerate-all-then-sort. Probabilities are normalized over the
    /// returned list (the exhaustive paths normalize over the whole
    /// candidate space, which `top_k` never materializes).
    ///
    /// Unlike `ranked_with_partials`, there is no query-length ceiling: the
    /// partials lattice is folded into the search as an extra "unmapped
    /// (charged `P_u`)" branch per keyword, not a `2^n` subset sweep.
    pub fn top_k(&self, query: &KeywordQuery, k: usize) -> Vec<ScoredInterpretation> {
        self.top_k_with_stats(query, k, true).0
    }

    /// The top `k` *complete* interpretations — the first `k` of
    /// [`Self::ranked_interpretations`], best-first.
    pub fn top_k_complete(&self, query: &KeywordQuery, k: usize) -> Vec<ScoredInterpretation> {
        self.top_k_with_stats(query, k, false).0
    }

    /// [`Self::top_k`] / [`Self::top_k_complete`] with search counters.
    pub fn top_k_with_stats(
        &self,
        query: &KeywordQuery,
        k: usize,
        include_partials: bool,
    ) -> (Vec<ScoredInterpretation>, GenerationStats) {
        self.top_k_with_cache(query, k, include_partials, &mut NonemptyCache::new())
    }

    /// Like [`Self::top_k_with_stats`], but the non-emptiness memo lives in
    /// `cache`, so it outlasts the call (and falls through to the shared
    /// tier when built with [`NonemptyCache::with_shared`]). Occurrence
    /// masks are positional, so a cache handed a different keyword sequence
    /// resets itself first.
    ///
    /// Every `top_k*` entry point is this: open a generation session, pull
    /// once. A caller that will come back for a larger `k` keeps the
    /// session instead ([`crate::BestFirstSource`]).
    pub fn top_k_with_cache(
        &self,
        query: &KeywordQuery,
        k: usize,
        include_partials: bool,
        cache: &mut NonemptyCache,
    ) -> (Vec<ScoredInterpretation>, GenerationStats) {
        self.open_search(query, include_partials).pull(k, cache)
    }

    /// Truncate a ranked list to `k` and renormalize probabilities over the
    /// survivors, the distribution shape the best-first search reports.
    fn renormalized_prefix(
        mut ranked: Vec<ScoredInterpretation>,
        k: usize,
    ) -> Vec<ScoredInterpretation> {
        ranked.truncate(k);
        let logs: Vec<f64> = ranked.iter().map(|s| s.log_score).collect();
        let probs = ProbabilityModel::normalize(&logs);
        for (s, p) in ranked.iter_mut().zip(probs) {
            s.probability = p;
        }
        ranked
    }

    /// Open the generation session of `query`: resolve every keyword
    /// against the index, derive the scorer's bound tables, and seed one
    /// root state per viable template. Nothing is searched until the first
    /// [`BestFirstSearch::pull`].
    pub(crate) fn open_search<'q>(
        &'q self,
        query: &'q KeywordQuery,
        include_partials: bool,
    ) -> BestFirstSearch<'q, 'a> {
        let terms = query.terms();
        // Occurrence bitmasks are u64; queries longer than 63 keywords are
        // beyond any workload in the paper and take the exhaustive pipeline.
        let exhaustive = (terms.len() > 63).then(|| self.ranked_interpretations(query));
        let by_term = if exhaustive.is_some() {
            HashMap::new()
        } else {
            self.term_candidates(query)
        };
        let candidates: Vec<Vec<TermCandidate>> = terms
            .iter()
            .map(|t| by_term.get(t.as_str()).cloned().unwrap_or_default())
            .collect();
        // Per-occurrence candidate views for the incremental scorer.
        let value_attrs: Vec<Vec<AttrRef>> = candidates
            .iter()
            .map(|cands| {
                cands
                    .iter()
                    .filter_map(|c| match c {
                        TermCandidate::Value(a) => Some(*a),
                        _ => None,
                    })
                    .collect()
            })
            .collect();
        let name_tables: Vec<Vec<TableId>> = candidates
            .iter()
            .map(|cands| {
                cands
                    .iter()
                    .filter_map(|c| match c {
                        TermCandidate::TableName(t) => Some(*t),
                        TermCandidate::AttrName(a) => Some(a.table),
                        TermCandidate::Value(_) => None,
                    })
                    .collect()
            })
            .collect();
        let scorer = IncrementalScorer::new(
            self.index,
            self.config.prob,
            self.db.schema().table_count(),
            terms,
            &value_attrs,
            &name_tables,
            include_partials,
        );
        let mut search = BestFirstSearch {
            interpreter: self,
            terms,
            candidates,
            scorer,
            exhaustive,
            tpls: (0..self.catalog.len()).map(|_| None).collect(),
            heap: BinaryHeap::new(),
            deferred: Vec::new(),
            buffer: Vec::new(),
            // `by_term` is keyed by distinct term.
            repeated_terms: by_term.len() < terms.len(),
            emitted: HashSet::new(),
            k: 0,
            top_scores: BinaryHeap::new(),
            stats: GenerationStats::default(),
        };
        search.seed_roots();
        search
    }

    // -----------------------------------------------------------------
    // End-to-end streaming answers.
    // -----------------------------------------------------------------

    /// The top `k` *answers* of `query`: joining tuple trees, ordered by
    /// their interpretation's rank (the §2.2.6 results the user actually
    /// wants, not query forms). Generation and execution interleave:
    /// interpretations are pulled best-first in geometrically growing waves
    /// from one generation session — a larger wave continues the search
    /// where the previous one stopped — and executed lazily with `limit` set
    /// to the answers still missing (the batched executor then streams
    /// instead of materializing full joins); empty interpretations are
    /// skipped, and the prefix a wave re-walks is served from the execution
    /// cache.
    pub fn answers_top_k(&self, query: &KeywordQuery, k: usize) -> Vec<RankedAnswer> {
        self.answers_top_k_with_stats(query, k).0
    }

    /// [`Self::answers_top_k`] with counters.
    pub fn answers_top_k_with_stats(
        &self,
        query: &KeywordQuery,
        k: usize,
    ) -> (Vec<RankedAnswer>, AnswerStats) {
        let mut exec_cache = ExecCache::new();
        let mut gen_cache = NonemptyCache::new();
        self.answers_top_k_with_caches(
            query,
            k,
            ExecOptions::default(),
            &mut gen_cache,
            &mut exec_cache,
        )
    }

    /// [`Self::answers_top_k_with_stats`] with *explicit cache handles* — the
    /// seam the concurrent [`crate::SearchService`] drives. The caller owns
    /// both per-query caches (usually constructed with
    /// [`NonemptyCache::with_shared`] / [`ExecCache::with_shared`] so misses
    /// fall through to the process-wide maps). Of `base`, `max_intermediate`
    /// is honored; `limit` is managed by the streaming loop. Cache-hit
    /// counters in the returned stats are cumulative over the handed-in
    /// caches' lifetimes.
    ///
    /// This is the plain top-k mode of the [`crate::QueryPipeline`]; the
    /// diversified and session-window modes compose the same stages
    /// differently.
    pub fn answers_top_k_with_caches(
        &self,
        query: &KeywordQuery,
        k: usize,
        base: ExecOptions,
        gen_cache: &mut NonemptyCache,
        exec_cache: &mut ExecCache,
    ) -> (Vec<RankedAnswer>, AnswerStats) {
        crate::pipeline::QueryPipeline::new(self, base, gen_cache, exec_cache).answers(query, k)
    }

    /// The single-store executor over this interpreter's database and index.
    pub(crate) fn local_executor(&self) -> LocalExecutor<'a> {
        LocalExecutor {
            db: self.db,
            index: self.index,
            catalog: self.catalog,
        }
    }

    /// Turn up to `remaining` JTTs of one executed interpretation into
    /// [`RankedAnswer`]s, keys minted through `executor`.
    pub(crate) fn collect_answers(
        &self,
        executor: &impl Executor,
        s: &ScoredInterpretation,
        res: &ExecutedResult,
        remaining: usize,
        answers: &mut Vec<RankedAnswer>,
    ) {
        let tpl = self.catalog.get(s.interpretation.template);
        let bound = bound_nodes(&s.interpretation, tpl.tree.nodes.len());
        for jtt in res.jtts.iter().take(remaining) {
            let mut keys: Vec<ResultKey> = jtt
                .iter()
                .enumerate()
                .filter(|(node, _)| bound[*node])
                .map(|(node, row)| {
                    let table = tpl.tree.nodes[node];
                    ResultKey {
                        table,
                        pk: executor.pk(table, *row),
                    }
                })
                .collect();
            keys.sort();
            keys.dedup();
            answers.push(RankedAnswer {
                interpretation: s.interpretation.clone(),
                log_score: s.log_score,
                jtt: jtt.clone(),
                keys,
            });
        }
    }
}

/// Localize schema-level term candidates to the node occurrences of one
/// template — the single definition of binding semantics, shared by the
/// exhaustive enumerator and the best-first search so the two cannot drift
/// apart.
fn localize_candidates(
    candidates: &[TermCandidate],
    tpl: &crate::template::QueryTemplate,
) -> Vec<BindingTarget> {
    let mut targets = Vec::with_capacity(candidates.len());
    for cand in candidates {
        match cand {
            TermCandidate::Value(a) => {
                for &node in tpl.nodes_of_table(a.table) {
                    targets.push(BindingTarget::Value { node, attr: a.attr });
                }
            }
            TermCandidate::TableName(t) => {
                for &node in tpl.nodes_of_table(*t) {
                    targets.push(BindingTarget::TableName { node });
                }
            }
            TermCandidate::AttrName(a) => {
                for &node in tpl.nodes_of_table(a.table) {
                    targets.push(BindingTarget::AttrName { node, attr: a.attr });
                }
            }
        }
    }
    targets
}

/// Float-tolerance margin absorbing associativity drift between the
/// incrementally maintained prefix score and the exact score of an emitted
/// interpretation.
const SCORE_EPS: f64 = 1e-9;

/// The targets assigned so far, one slot per keyword occurrence: `UNMAPPED`
/// or an index into the template's per-occurrence target list. Stored inline
/// for queries of up to [`Assign::INLINE`] keywords, so expanding a state
/// allocates nothing; longer queries (up to the 63 the occurrence masks
/// allow) spill to the heap.
#[derive(Clone)]
enum Assign {
    Inline([i16; Assign::INLINE]),
    Spilled(Box<[i16]>),
}

const UNMAPPED: i16 = -1;

impl Assign {
    const INLINE: usize = 8;

    fn new(n: usize) -> Self {
        if n <= Self::INLINE {
            Assign::Inline([UNMAPPED; Self::INLINE])
        } else {
            Assign::Spilled(vec![UNMAPPED; n].into_boxed_slice())
        }
    }

    fn slots(&self) -> &[i16] {
        match self {
            Assign::Inline(a) => a,
            Assign::Spilled(b) => b,
        }
    }

    fn set(&mut self, i: usize, choice: i16) {
        match self {
            Assign::Inline(a) => a[i] = choice,
            Assign::Spilled(b) => b[i] = choice,
        }
    }
}

/// A frontier state: template, the targets assigned to the first `depth`
/// keyword occurrences, the exact prefix log-score of that assignment, and
/// the admissible upper bound `ub` on any completion.
struct SearchNode {
    ub: f64,
    prefix: f64,
    tpl: crate::template::TemplateId,
    depth: u8,
    slots: Assign,
}

impl SearchNode {
    fn assign(&self) -> &[i16] {
        &self.slots.slots()[..self.depth as usize]
    }
}

impl PartialEq for SearchNode {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for SearchNode {}
impl PartialOrd for SearchNode {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for SearchNode {
    fn cmp(&self, other: &Self) -> Ordering {
        // Max-heap on the bound; ties break deterministically, preferring
        // deeper states (drives completions out early) then canonical ids.
        self.ub
            .total_cmp(&other.ub)
            .then_with(|| self.depth.cmp(&other.depth))
            .then_with(|| other.tpl.cmp(&self.tpl))
            .then_with(|| other.assign().cmp(self.assign()))
    }
}

/// What the session knows about one viable template: its prior, the suffix
/// sums of its per-occurrence bounds (entry `i` bounds the total remaining
/// contribution once occurrences `0..i` are assigned; entry `n` is 0), and
/// the per-occurrence binding targets, each localized when a state of the
/// template first assigns that occurrence (so a state at depth `d` finds
/// occurrences `0..d` localized by its ancestors).
struct TplData {
    ln_prior: f64,
    suffix: Vec<f64>,
    /// Bit per leaf node, for the minimality-feasibility prune. Template
    /// trees are tiny in practice; the rare > 64-node template skips the
    /// prune (sound — it is only an optimization, minimality is checked at
    /// emission).
    leaf_mask: Option<u64>,
    targets: Vec<Vec<BindingTarget>>,
    /// Bit per occurrence whose `targets` entry is filled.
    localized: u64,
}

/// `f64` with total order, for the k-th-best min-heap.
#[derive(PartialEq)]
struct Score(f64);
impl Eq for Score {}
impl PartialOrd for Score {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Score {
    fn cmp(&self, other: &Self) -> Ordering {
        self.0.total_cmp(&other.0)
    }
}

/// One query's generation session: everything best-first search derives
/// from the query — term candidates, the scorer's bound tables and group
/// memo, per-template priors, targets and suffix bounds — and everything it
/// has found so far — the frontier, the exactly scored interpretations, the
/// children the k-th-best threshold cut. All of it is paid for once:
/// [`Self::pull`] at a larger `k` *continues* the search instead of
/// restarting it.
///
/// The invariant that makes resumption exact: after `pull(k)`, the frontier,
/// the cut list, the buffer and every counter are what a fresh search at `k`
/// holds at the same point of the (k-independent) pop sequence. A cut child
/// has a bound below the threshold of its day and thresholds only rise, so a
/// fresh search would have stopped before popping it; re-judging the cut
/// list against the new, lower threshold is therefore all a larger `k`
/// needs.
pub(crate) struct BestFirstSearch<'q, 'a> {
    interpreter: &'q Interpreter<'a>,
    terms: &'q [String],
    /// Per occurrence: the schema-level candidates of its term.
    candidates: Vec<Vec<TermCandidate>>,
    scorer: IncrementalScorer<'q>,
    /// The whole ranking, for a query too long for occurrence masks.
    exhaustive: Option<Vec<ScoredInterpretation>>,
    /// Indexed by `TemplateId`; `None` for templates that cannot interpret
    /// the query.
    tpls: Vec<Option<TplData>>,
    heap: BinaryHeap<SearchNode>,
    /// Children cut by the k-th-best threshold, each with the number of
    /// interpretations buffered when it was cut, in cut order.
    deferred: Vec<(usize, SearchNode)>,
    /// Emitted interpretations with their exact scores, in emission order.
    buffer: Vec<(QueryInterpretation, f64)>,
    /// Whether some keyword occurs twice — the only way two assignments can
    /// spell the same interpretation, so the only time `emitted` is needed.
    repeated_terms: bool,
    emitted: HashSet<QueryInterpretation>,
    /// The `k` of the current pull.
    k: usize,
    /// Min-heap of the `k` best exact scores seen so far.
    top_scores: BinaryHeap<std::cmp::Reverse<Score>>,
    /// Counters since the session opened; `pull` reports what it added.
    stats: GenerationStats,
}

impl BestFirstSearch<'_, '_> {
    /// The best `k` interpretations found by searching until the `k`-th
    /// best is proven, with the work this pull added (see
    /// [`GenerationStats::absorb`]). Non-emptiness verdicts are read from
    /// and written to `cache`, which resets itself when it last served a
    /// different keyword sequence.
    pub(crate) fn pull(
        &mut self,
        k: usize,
        cache: &mut NonemptyCache,
    ) -> (Vec<ScoredInterpretation>, GenerationStats) {
        if k == 0 || self.terms.is_empty() {
            return (Vec::new(), GenerationStats::default());
        }
        if let Some(ranked) = &self.exhaustive {
            let stats = GenerationStats {
                materialized: ranked.len(),
                emitted: ranked.len().min(k),
                ..Default::default()
            };
            return (Interpreter::renormalized_prefix(ranked.clone(), k), stats);
        }
        if cache.terms.as_slice() != self.terms {
            cache.map.clear();
            cache.terms = self.terms.to_vec();
        }
        let before = self.stats;
        self.retarget(k);
        self.run(cache);
        let reply = self.reply();
        let stats = GenerationStats {
            materialized: self.stats.materialized - before.materialized,
            expanded: self.stats.expanded - before.expanded,
            pushed: self.stats.pushed - before.pushed,
            pruned: self.stats.pruned,
            nonempty_probes: self.stats.nonempty_probes - before.nonempty_probes,
            nonempty_cache_hits: self.stats.nonempty_cache_hits - before.nonempty_cache_hits,
            nonempty_shared_hits: self.stats.nonempty_shared_hits - before.nonempty_shared_hits,
            emitted: reply.len(),
        };
        (reply, stats)
    }

    /// The k-th best exact score buffered so far (`-inf` until `k` found):
    /// the prune threshold.
    fn threshold(&self) -> f64 {
        if self.top_scores.len() >= self.k {
            self.top_scores
                .peek()
                .map(|r| r.0 .0)
                .unwrap_or(f64::NEG_INFINITY)
        } else {
            f64::NEG_INFINITY
        }
    }

    /// Whether the k-th-best threshold rules out a state bounded by `ub`.
    fn cut(&self, ub: f64) -> bool {
        ub < self.threshold() - SCORE_EPS
    }

    /// Record an emitted interpretation's exact score in the top-`k` heap.
    fn note_score(&mut self, exact: f64) {
        self.top_scores.push(std::cmp::Reverse(Score(exact)));
        if self.top_scores.len() > self.k {
            self.top_scores.pop();
        }
    }

    /// Aim the session at `k`: rebuild the top-`k` scores from the buffer
    /// and re-judge every cut child against the threshold a fresh search at
    /// `k` would have held when it was cut — the k-th best of the
    /// interpretations buffered at that moment. Children that now survive
    /// rejoin the frontier (and the counters move from `pruned` to
    /// `pushed`, as that search would have counted them).
    fn retarget(&mut self, k: usize) {
        if k == self.k {
            return;
        }
        self.k = k;
        self.top_scores.clear();
        let mut deferred = std::mem::take(&mut self.deferred).into_iter().peekable();
        for buffered in 0..=self.buffer.len() {
            while let Some((_, node)) = deferred.next_if(|(at, _)| *at == buffered) {
                if self.cut(node.ub) {
                    self.deferred.push((buffered, node));
                } else {
                    self.stats.pruned -= 1;
                    self.stats.pushed += 1;
                    self.heap.push(node);
                }
            }
            if let Some(&(_, exact)) = self.buffer.get(buffered) {
                self.note_score(exact);
            }
        }
    }

    /// Push one root state per template that can interpret the query.
    fn seed_roots(&mut self) {
        let n = self.terms.len();
        let partials = self.scorer.allows_unmapped();
        let interpreter = self.interpreter;
        let mut bounds = vec![0.0; n];
        for tpl in interpreter.catalog.iter() {
            // More leaves than keywords can never satisfy minimality
            // (every leaf needs a binding; each keyword binds one node).
            if tpl.leaves().len() > n {
                continue;
            }
            let mut bound_sum = 0.0;
            let mut targetable = 0usize;
            for (i, bound) in bounds.iter_mut().enumerate() {
                *bound = self.scorer.term_bound(tpl, i);
                bound_sum += *bound;
                if self.scorer.has_target_in(tpl, i) {
                    targetable += 1;
                }
            }
            // A template is viable when every occurrence has a route and at
            // least one can actually bind (all-unmapped emits nothing).
            if !bound_sum.is_finite() || targetable == 0 {
                continue;
            }
            if !partials && targetable < n {
                continue;
            }
            let mut suffix = vec![0.0; n + 1];
            for i in (0..n).rev() {
                suffix[i] = bounds[i] + suffix[i + 1];
            }
            let ln_prior = interpreter.config.prior.ln_prob(
                tpl.signature_names(interpreter.db),
                interpreter.catalog.len(),
            );
            let leaf_mask = (tpl.tree.nodes.len() <= 64)
                .then(|| tpl.leaves().iter().fold(0u64, |m, &l| m | 1 << l));
            self.tpls[tpl.id.0 as usize] = Some(TplData {
                ln_prior,
                suffix,
                leaf_mask,
                targets: Vec::new(),
                localized: 0,
            });
            self.stats.pushed += 1;
            self.heap.push(SearchNode {
                ub: ln_prior + bound_sum,
                prefix: ln_prior,
                tpl: tpl.id,
                depth: 0,
                slots: Assign::new(n),
            });
        }
    }

    /// Pop-expand until the k-th best is provably found. The state that
    /// proves it goes back on the frontier: a later, larger pull starts
    /// from it.
    fn run(&mut self, cache: &mut NonemptyCache) {
        let n = self.terms.len();
        let cap = self.interpreter.config.max_interpretations;
        while let Some(node) = self.heap.pop() {
            if (self.buffer.len() >= self.k && self.cut(node.ub)) || self.buffer.len() >= cap {
                self.heap.push(node);
                break;
            }
            if node.depth as usize == n {
                self.materialize(&node);
            } else {
                self.expand(node, cache);
            }
        }
    }

    /// Expand one frontier state over every option for the next occurrence.
    fn expand(&mut self, node: SearchNode, cache: &mut NonemptyCache) {
        self.stats.expanded += 1;
        let i = node.depth as usize;
        let interpreter = self.interpreter;
        let tpl = interpreter.catalog.get(node.tpl);
        // Held by value while the children are built (they need `&mut self`
        // for the memos and the frontier), put back below.
        let mut data = self.tpls[node.tpl.0 as usize]
            .take()
            .expect("a frontier state's template was seeded");
        if data.localized & 1 << i == 0 {
            data.targets.resize_with(self.terms.len(), Vec::new);
            data.targets[i] = localize_candidates(&self.candidates[i], tpl);
            data.localized |= 1 << i;
        }
        let assign = node.assign();
        // Template nodes already carrying a binding.
        let bound_nodes = assign
            .iter()
            .enumerate()
            .filter(|&(_, &t)| t != UNMAPPED)
            .fold(0u64, |m, (p, &t)| {
                m | 1u64 << (data.targets[p][t as usize].node() & 63)
            });
        // A child is viable only if the leaves still unbound after it can
        // all be covered by the occurrences that remain.
        let remaining_after = self.terms.len() - i - 1;
        let leaf_mask = data.leaf_mask;
        let feasible = |nodes_mask: u64| {
            leaf_mask.is_none_or(|leaves| {
                (leaves & !nodes_mask).count_ones() as usize <= remaining_after
            })
        };
        let suffix = data.suffix[i + 1];
        for (ti, target) in data.targets[i].iter().enumerate() {
            if !feasible(bound_nodes | 1u64 << (target.node() & 63)) {
                self.stats.pruned += 1;
                continue;
            }
            let delta = match *target {
                BindingTarget::Value { node: tnode, attr } => {
                    let aref = AttrRef {
                        table: tpl.tree.nodes[tnode],
                        attr,
                    };
                    // Earlier occurrences already bound to the same target.
                    let old_mask = assign
                        .iter()
                        .enumerate()
                        .filter(|&(p, &t)| t != UNMAPPED && data.targets[p][t as usize] == *target)
                        .fold(0u64, |m, (p, _)| m | 1u64 << p);
                    let new_mask = old_mask | 1u64 << i;
                    // Prune empty value groups: every extension keeps the
                    // group, so no descendant can satisfy the non-emptiness
                    // condition.
                    if !self.group_nonempty(new_mask, aref, cache) {
                        continue;
                    }
                    let old_ln = if old_mask == 0 {
                        0.0
                    } else {
                        self.scorer.value_group_ln(old_mask, aref)
                    };
                    self.scorer.value_group_ln(new_mask, aref) - old_ln
                }
                BindingTarget::TableName { .. } | BindingTarget::AttrName { .. } => {
                    self.scorer.name_ln()
                }
            };
            let choice = i16::try_from(ti).expect("fewer than 2^15 targets per occurrence");
            self.offer(&node, choice, delta, suffix);
        }
        if self.scorer.allows_unmapped() && feasible(bound_nodes) {
            self.offer(&node, UNMAPPED, self.scorer.unmapped_ln(), suffix);
        }
        self.tpls[node.tpl.0 as usize] = Some(data);
    }

    /// Put the child of `parent` that assigns `choice` to the next
    /// occurrence on the frontier — or, when the k-th-best threshold cuts
    /// it, on the cut list a larger pull re-judges.
    fn offer(&mut self, parent: &SearchNode, choice: i16, delta: f64, suffix: f64) {
        let prefix = parent.prefix + delta;
        let mut child = SearchNode {
            ub: prefix + suffix,
            prefix,
            tpl: parent.tpl,
            depth: parent.depth + 1,
            slots: parent.slots.clone(),
        };
        child.slots.set(parent.depth as usize, choice);
        if self.buffer.len() >= self.k && self.cut(child.ub) {
            self.stats.pruned += 1;
            self.deferred.push((self.buffer.len(), child));
        } else {
            self.stats.pushed += 1;
            self.heap.push(child);
        }
    }

    /// Memoized non-emptiness of a value group (keyword bag ⊂ attr), the
    /// bag encoded as its occurrence bitmask (fixed per query), so cache
    /// hits are allocation-free; duplicate keywords at different positions
    /// probe the index once each, which is the only sharing the mask
    /// encoding gives up. Misses consult the cross-query shared cache
    /// (bag-keyed) before probing the index; fresh verdicts are published
    /// back so every other query — on any thread — skips the probe.
    fn group_nonempty(&mut self, mask: u64, aref: AttrRef, cache: &mut NonemptyCache) -> bool {
        if let Some(&hit) = cache.map.get(&(mask, aref)) {
            self.stats.nonempty_cache_hits += 1;
            return hit;
        }
        // Sorted, which is how the shared tier keys a bag.
        let bag = self.scorer.bag(mask);
        let index = self.interpreter.index;
        let ok = match &cache.shared {
            Some(shared) => {
                let key = (bag, aref);
                match shared.verdicts.get(&key, |_| true) {
                    Some(ok) => {
                        self.stats.nonempty_shared_hits += 1;
                        ok
                    }
                    None => {
                        self.stats.nonempty_probes += 1;
                        let ok = index.has_row_with_all(&key.0, aref);
                        shared.verdicts.insert(key, ok);
                        ok
                    }
                }
            }
            None => {
                self.stats.nonempty_probes += 1;
                index.has_row_with_all(&bag, aref)
            }
        };
        cache.map.insert((mask, aref), ok);
        ok
    }

    /// Turn a fully assigned state into a `QueryInterpretation`, apply the
    /// emission filters (some binding, minimality, novelty), and buffer it
    /// with its exact model score. Keywords stay occurrence masks until the
    /// filters have passed; the score is assembled, in the interpretation's
    /// binding order, from the template's prior and the scorer's memo —
    /// the terms `ProbabilityModel::log_score` adds, without its postings
    /// walks.
    fn materialize(&mut self, node: &SearchNode) {
        let data = self.tpls[node.tpl.0 as usize]
            .as_ref()
            .expect("a frontier state's template was seeded");
        let mut groups: Vec<(BindingTarget, u64)> = Vec::with_capacity(node.depth as usize);
        for (p, &t) in node.assign().iter().enumerate() {
            if t == UNMAPPED {
                continue;
            }
            let target = data.targets[p][t as usize];
            match groups.iter_mut().find(|g| g.0 == target) {
                Some(group) => group.1 |= 1 << p,
                None => groups.push((target, 1 << p)),
            }
        }
        if groups.is_empty() {
            return; // all-unmapped: not an interpretation of any subset
        }
        self.stats.materialized += 1;
        let tpl = self.interpreter.catalog.get(node.tpl);
        // Minimality (Def. 3.5.4(2)): every leaf carries a binding.
        let bound = |leaf: &usize| groups.iter().any(|(target, _)| target.node() == *leaf);
        if !tpl.leaves().iter().all(bound) {
            return;
        }
        let bindings: Vec<KeywordBinding> = groups
            .iter()
            .map(|&(target, mask)| KeywordBinding {
                keywords: self.scorer.bag(mask),
                target,
            })
            .collect();
        let interp = QueryInterpretation::new(node.tpl, bindings);
        if self.repeated_terms && !self.emitted.insert(interp.clone()) {
            return; // duplicate via permuted identical keywords
        }
        let mut exact = data.ln_prior;
        for b in &interp.bindings {
            let &(_, mask) = groups
                .iter()
                .find(|(target, _)| *target == b.target)
                .expect("every binding came from a group");
            exact += self
                .scorer
                .binding_ln(b.target, mask, tpl.tree.nodes[b.target.node()]);
        }
        let unmapped = node.assign().iter().filter(|&&t| t == UNMAPPED).count();
        if unmapped > 0 {
            exact += unmapped as f64 * self.scorer.unmapped_ln();
        }
        debug_assert_eq!(
            exact.to_bits(),
            ProbabilityModel::new(
                self.interpreter.db,
                self.interpreter.index,
                self.interpreter.catalog,
                self.interpreter.config.prior.clone(),
                self.interpreter.config.prob,
            )
            .log_score(&interp, self.terms.len())
            .to_bits(),
            "memo score differs from the oracle for {interp:?}"
        );
        self.buffer.push((interp, exact));
        self.note_score(exact);
    }

    /// The canonical sort of the buffer (the oracle's comparator),
    /// truncated to `k`, probabilities normalized over the survivors.
    fn reply(&self) -> Vec<ScoredInterpretation> {
        let mut order: Vec<&(QueryInterpretation, f64)> = self.buffer.iter().collect();
        order.sort_by(|a, b| {
            b.1.partial_cmp(&a.1)
                .unwrap_or(Ordering::Equal)
                .then_with(|| a.0.template.cmp(&b.0.template))
                .then_with(|| a.0.bindings.cmp(&b.0.bindings))
        });
        order.truncate(self.k);
        let logs: Vec<f64> = order.iter().map(|(_, l)| *l).collect();
        let probs = ProbabilityModel::normalize(&logs);
        order
            .into_iter()
            .zip(probs)
            .map(
                |((interpretation, log_score), probability)| ScoredInterpretation {
                    interpretation: interpretation.clone(),
                    log_score: *log_score,
                    probability,
                },
            )
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use keybridge_datagen::{ImdbConfig, ImdbDataset};
    use keybridge_index::Tokenizer;

    struct Fixture {
        data: ImdbDataset,
        index: InvertedIndex,
        catalog: TemplateCatalog,
    }

    fn fixture() -> Fixture {
        let data = ImdbDataset::generate(ImdbConfig::tiny(1)).unwrap();
        let index = InvertedIndex::build(&data.db);
        let catalog = TemplateCatalog::enumerate(&data.db, 4, 50_000).unwrap();
        Fixture {
            data,
            index,
            catalog,
        }
    }

    fn first_actor_tokens(f: &Fixture) -> (String, String) {
        let row = f
            .data
            .db
            .table(f.data.actor)
            .row(keybridge_relstore::RowId(0));
        let name = row[1].as_text().unwrap();
        let toks = Tokenizer::new().tokenize(name);
        (toks[0].clone(), toks[1].clone())
    }

    #[test]
    fn generates_complete_minimal_interpretations() {
        let f = fixture();
        let (first, last) = first_actor_tokens(&f);
        let q = KeywordQuery::from_terms(vec![first, last]);
        let interp = Interpreter::new(
            &f.data.db,
            &f.index,
            &f.catalog,
            InterpreterConfig::default(),
        );
        let all = interp.enumerate_interpretations(&q);
        assert!(!all.is_empty());
        for i in &all {
            assert!(i.is_complete(&q), "incomplete: {i:?}");
            assert!(i.is_minimal(&f.catalog), "non-minimal: {i:?}");
        }
    }

    #[test]
    fn ranked_prefers_cooccurring_name() {
        let f = fixture();
        let (first, last) = first_actor_tokens(&f);
        let q = KeywordQuery::from_terms(vec![first.clone(), last.clone()]);
        let interp = Interpreter::new(
            &f.data.db,
            &f.index,
            &f.catalog,
            InterpreterConfig::default(),
        );
        let ranked = interp.ranked_interpretations(&q);
        assert!(!ranked.is_empty());
        // The top interpretation should put both tokens in one person-name
        // attribute (actor or director), thanks to the joint-ATF boost.
        let top = &ranked[0];
        let tpl = f.catalog.get(top.interpretation.template);
        let together = top.interpretation.bindings.iter().any(|b| {
            b.keywords.len() == 2
                && matches!(b.target, BindingTarget::Value { node, attr }
                    if f.data.db.schema().table(tpl.tree.nodes[node]).attr(attr).name == "name")
        });
        assert!(together, "top: {:?}", top.interpretation);
        // Probabilities normalized.
        let sum: f64 = ranked.iter().map(|s| s.probability).sum();
        assert!((sum - 1.0).abs() < 1e-9);
        // Sorted descending.
        for w in ranked.windows(2) {
            assert!(w[0].log_score >= w[1].log_score);
        }
    }

    #[test]
    fn empty_query_yields_nothing() {
        let f = fixture();
        let interp = Interpreter::new(
            &f.data.db,
            &f.index,
            &f.catalog,
            InterpreterConfig::default(),
        );
        assert!(interp
            .enumerate_interpretations(&KeywordQuery::from_terms(vec![]))
            .is_empty());
    }

    #[test]
    fn unknown_keyword_yields_nothing() {
        let f = fixture();
        let interp = Interpreter::new(
            &f.data.db,
            &f.index,
            &f.catalog,
            InterpreterConfig::default(),
        );
        let q = KeywordQuery::from_terms(vec!["zzzzqqqq".into()]);
        assert!(interp.enumerate_interpretations(&q).is_empty());
    }

    #[test]
    fn schema_keyword_binds_table_name() {
        let f = fixture();
        let (_, last) = first_actor_tokens(&f);
        let q = KeywordQuery::from_terms(vec!["actor".into(), last]);
        let interp = Interpreter::new(
            &f.data.db,
            &f.index,
            &f.catalog,
            InterpreterConfig::default(),
        );
        let all = interp.enumerate_interpretations(&q);
        assert!(all.iter().any(|i| i
            .bindings
            .iter()
            .any(|b| matches!(b.target, BindingTarget::TableName { .. }))));
    }

    #[test]
    fn cap_respected() {
        let f = fixture();
        let (first, last) = first_actor_tokens(&f);
        let q = KeywordQuery::from_terms(vec![first, last]);
        let cfg = InterpreterConfig {
            max_interpretations: 3,
            ..Default::default()
        };
        let interp = Interpreter::new(&f.data.db, &f.index, &f.catalog, cfg);
        assert!(interp.enumerate_interpretations(&q).len() <= 3);
    }

    #[test]
    fn partials_extend_the_complete_space() {
        let f = fixture();
        let (first, last) = first_actor_tokens(&f);
        let q = KeywordQuery::from_terms(vec![first, last]);
        let cfg = InterpreterConfig {
            prob: keybridge_core_test_unmapped(),
            ..Default::default()
        };
        let interp = Interpreter::new(&f.data.db, &f.index, &f.catalog, cfg);
        let complete = interp.ranked_interpretations(&q);
        let with_partials = interp.ranked_with_partials(&q);
        assert!(with_partials.len() > complete.len());
        // Partials are incomplete; completes still present and minimal.
        let n_complete = with_partials
            .iter()
            .filter(|s| s.interpretation.is_complete(&q))
            .count();
        assert_eq!(n_complete, complete.len());
        // Probabilities remain a distribution.
        let sum: f64 = with_partials.iter().map(|s| s.probability).sum();
        assert!((sum - 1.0).abs() < 1e-9);
    }

    /// A `P_u` large enough for partials to be visible in rankings.
    fn keybridge_core_test_unmapped() -> crate::ProbabilityConfig {
        crate::ProbabilityConfig {
            unmapped_prob: 1e-4,
            ..Default::default()
        }
    }

    /// Compare a top-k result against the first `k` of an exhaustive
    /// ranking: same interpretations, same order, same log-scores.
    fn assert_matches_oracle(
        got: &[ScoredInterpretation],
        oracle: &[ScoredInterpretation],
        k: usize,
        context: &str,
    ) {
        let want: Vec<_> = oracle.iter().take(k).collect();
        assert_eq!(got.len(), want.len(), "{context}: length");
        for (i, (g, w)) in got.iter().zip(&want).enumerate() {
            assert_eq!(
                g.interpretation, w.interpretation,
                "{context}: interpretation at rank {i}"
            );
            assert!(
                (g.log_score - w.log_score).abs() < 1e-12,
                "{context}: score at rank {i}: {} vs {}",
                g.log_score,
                w.log_score
            );
        }
    }

    #[test]
    fn top_k_matches_exhaustive_with_partials() {
        let f = fixture();
        let (first, last) = first_actor_tokens(&f);
        let q = KeywordQuery::from_terms(vec![first, last]);
        let cfg = InterpreterConfig {
            prob: keybridge_core_test_unmapped(),
            ..Default::default()
        };
        let interp = Interpreter::new(&f.data.db, &f.index, &f.catalog, cfg);
        let oracle = interp.ranked_with_partials(&q);
        assert!(!oracle.is_empty());
        for k in [1, 3, 10, oracle.len(), oracle.len() + 50] {
            let got = interp.top_k(&q, k);
            assert_matches_oracle(&got, &oracle, k, &format!("partials k={k}"));
        }
    }

    #[test]
    fn top_k_complete_matches_exhaustive() {
        let f = fixture();
        let (first, last) = first_actor_tokens(&f);
        let q = KeywordQuery::from_terms(vec![first, last]);
        let interp = Interpreter::new(
            &f.data.db,
            &f.index,
            &f.catalog,
            InterpreterConfig::default(),
        );
        let oracle = interp.ranked_interpretations(&q);
        assert!(!oracle.is_empty());
        for k in [1, 5, oracle.len()] {
            let got = interp.top_k_complete(&q, k);
            assert_matches_oracle(&got, &oracle, k, &format!("complete k={k}"));
        }
    }

    #[test]
    fn top_k_matches_oracle_with_schema_bindings_and_duplicates() {
        let f = fixture();
        let (_, last) = first_actor_tokens(&f);
        // "actor" binds as a table name; duplicated keyword exercises the
        // permutation dedup in the lattice.
        let q = KeywordQuery::from_terms(vec!["actor".into(), last.clone(), last]);
        let cfg = InterpreterConfig {
            prob: keybridge_core_test_unmapped(),
            ..Default::default()
        };
        let interp = Interpreter::new(&f.data.db, &f.index, &f.catalog, cfg);
        let oracle = interp.ranked_with_partials(&q);
        let got = interp.top_k(&q, 15);
        assert_matches_oracle(&got, &oracle, 15, "schema+dup");
    }

    #[test]
    fn top_k_materializes_far_fewer_than_exhaustive() {
        let f = fixture();
        let (first, last) = first_actor_tokens(&f);
        // Four keywords: the partials lattice is 2^4 subsets for the
        // oracle but a single pass for the search.
        let q = KeywordQuery::from_terms(vec![first, last, "actor".into(), "movie".into()]);
        let cfg = InterpreterConfig {
            prob: keybridge_core_test_unmapped(),
            ..Default::default()
        };
        let interp = Interpreter::new(&f.data.db, &f.index, &f.catalog, cfg);
        let exhaustive = interp.ranked_with_partials(&q);
        let (got, stats) = interp.top_k_with_stats(&q, 10, true);
        assert_matches_oracle(&got, &exhaustive, 10, "4-keyword partials");
        assert!(
            stats.materialized * 5 <= exhaustive.len(),
            "best-first materialized {} of {} exhaustive candidates",
            stats.materialized,
            exhaustive.len()
        );
        assert!(stats.nonempty_cache_hits > 0, "memo cache never hit");
        assert!(stats.pruned > 0, "bound never pruned");
    }

    #[test]
    fn top_k_edge_cases() {
        let f = fixture();
        let interp = Interpreter::new(
            &f.data.db,
            &f.index,
            &f.catalog,
            InterpreterConfig::default(),
        );
        assert!(interp
            .top_k(&KeywordQuery::from_terms(vec![]), 5)
            .is_empty());
        let (_, last) = first_actor_tokens(&f);
        let q = KeywordQuery::from_terms(vec![last]);
        assert!(interp.top_k(&q, 0).is_empty());
        assert!(interp
            .top_k(&KeywordQuery::from_terms(vec!["zzzzqqqq".into()]), 5)
            .is_empty());
        // Probabilities over the returned list form a distribution.
        let got = interp.top_k(&q, 5);
        if !got.is_empty() {
            let sum: f64 = got.iter().map(|s| s.probability).sum();
            assert!((sum - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn answers_top_k_streams_ranked_results() {
        let f = fixture();
        let (first, last) = first_actor_tokens(&f);
        let q = KeywordQuery::from_terms(vec![first, last]);
        let interp = Interpreter::new(
            &f.data.db,
            &f.index,
            &f.catalog,
            InterpreterConfig::default(),
        );
        let k = 12;
        let (answers, stats) = interp.answers_top_k_with_stats(&q, k);
        assert!(!answers.is_empty());
        assert!(answers.len() <= k);
        assert_eq!(stats.answers, answers.len());
        // Ordered by interpretation score, best first.
        for w in answers.windows(2) {
            assert!(w[0].log_score >= w[1].log_score);
        }
        for a in &answers {
            assert!(!a.keys.is_empty(), "answer without identifying keys");
            assert!(a.keys.windows(2).all(|w| w[0] < w[1]), "keys sorted+dedup");
            let tpl = f.catalog.get(a.interpretation.template);
            assert_eq!(a.jtt.len(), tpl.tree.nodes.len());
        }
        assert!(stats.executed > 0);
        assert!(stats.nonempty > 0);
        assert!(stats.exec.probes > 0 || stats.exec.intermediate_bindings > 0);
    }

    #[test]
    fn answers_agree_across_strategies() {
        // BestFirst generation + hash-join execution must produce the same
        // answer keys and scores as exhaustive generation + naive execution:
        // walk the oracle ranking, take JTTs until `k` answers exist.
        let f = fixture();
        let (first, last) = first_actor_tokens(&f);
        let q = KeywordQuery::from_terms(vec![first, last]);
        let interp = Interpreter::new(
            &f.data.db,
            &f.index,
            &f.catalog,
            InterpreterConfig::default(),
        );
        let k = 10;
        let a = interp.answers_top_k(&q, k);
        let mut b: Vec<RankedAnswer> = Vec::new();
        for s in interp.ranked_with_partials(&q) {
            if b.len() >= k {
                break;
            }
            let opts = ExecOptions {
                limit: k - b.len(),
                ..Default::default()
            };
            let res = crate::exec::execute_interpretation_naive(
                &f.data.db,
                &f.index,
                &f.catalog,
                &s.interpretation,
                opts,
            )
            .unwrap();
            interp.collect_answers(&interp.local_executor(), &s, &res, opts.limit, &mut b);
        }
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.interpretation, y.interpretation);
            assert!((x.log_score - y.log_score).abs() < 1e-12);
            // JTT order within one interpretation is executor-defined; keys
            // of the multiset must still agree pairwise after sorting.
        }
        let mut ka: Vec<_> = a.iter().map(|x| x.keys.clone()).collect();
        let mut kb: Vec<_> = b.iter().map(|x| x.keys.clone()).collect();
        ka.sort();
        kb.sort();
        assert_eq!(ka, kb);
    }

    #[test]
    fn nonempty_cache_resets_across_queries() {
        // Reusing one cache for a *different* query must not leak positional
        // verdicts: results equal a fresh top_k run.
        let f = fixture();
        let (first, last) = first_actor_tokens(&f);
        let interp = Interpreter::new(
            &f.data.db,
            &f.index,
            &f.catalog,
            InterpreterConfig::default(),
        );
        let q1 = KeywordQuery::from_terms(vec![first.clone(), last.clone()]);
        let q2 = KeywordQuery::from_terms(vec![last, "actor".into()]);
        let mut cache = NonemptyCache::new();
        let _ = interp.top_k_with_cache(&q1, 5, true, &mut cache);
        let (reused, _) = interp.top_k_with_cache(&q2, 5, true, &mut cache);
        let fresh = interp.top_k(&q2, 5);
        assert_eq!(reused.len(), fresh.len());
        for (a, b) in reused.iter().zip(&fresh) {
            assert_eq!(a.interpretation, b.interpretation);
            assert!((a.log_score - b.log_score).abs() < 1e-12);
        }
    }

    #[test]
    fn answers_top_k_edge_cases() {
        let f = fixture();
        let interp = Interpreter::new(
            &f.data.db,
            &f.index,
            &f.catalog,
            InterpreterConfig::default(),
        );
        assert!(interp
            .answers_top_k(&KeywordQuery::from_terms(vec![]), 5)
            .is_empty());
        let (_, last) = first_actor_tokens(&f);
        let q = KeywordQuery::from_terms(vec![last]);
        assert!(interp.answers_top_k(&q, 0).is_empty());
        assert!(interp
            .answers_top_k(&KeywordQuery::from_terms(vec!["zzzzqqqq".into()]), 5)
            .is_empty());
        // Some answers delivered, never more than k.
        let answers = interp.answers_top_k(&q, 3);
        assert!(!answers.is_empty() && answers.len() <= 3);
    }
}
