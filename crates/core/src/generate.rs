//! Interpretation generation (§3.5.2): compose keyword interpretations with
//! query templates into complete, minimal query interpretations, best
//! first (§3.6).
//!
//! ## The generation session
//!
//! [`Interpreter::top_k`] opens a **generation session** (`BestFirstSearch`,
//! opened by `Interpreter::open_search`) and pulls it once; every `top_k*`
//! entry point is "open a session, pull once" — unless the epoch's
//! [`SharedNonemptyCache`] already holds the query's ranking. A query's
//! ranking is a pure function of the epoch, its terms in order and whether
//! partials rank, and a pull's reply is a prefix of any larger pull's. So
//! the tier keeps, per `(terms, include_partials)`, the reply of the
//! longest proven pull so far (and whether that search ran dry), and a
//! pull at `k` that it covers is served from it: the first `k` pairs,
//! probabilities renormalized over them, which is bit for bit what a
//! fresh session returns. No session is opened for it — no term
//! candidates, no scorer, no roots, no search — and its stats count only
//! `emitted`. Every other pull's proven reply is admitted, superseding a
//! shorter ranking; a pull the interpretation cap stopped is not proven
//! and never admitted. Opening a session resolves the query:
//!
//! * term candidates — one `attrs_containing` slice lookup per distinct
//!   term, all terms' candidates in one flat `Vec`;
//! * the `IncrementalScorer` (`core/prob.rs`) — a dense per-(occurrence,
//!   table) bound table, and the session's one memo of value groups;
//! * one root per **viable** template, with its `ln P(T)` in a `Vec`
//!   indexed by `TemplateId` (template signatures are resolved once per
//!   template and kept on it). Viable means the template's leaves can be
//!   matched to distinct occurrences that reach each leaf's table
//!   (`leaves_coverable`: augmenting paths over `u64` occurrence masks;
//!   minimality needs a binding on every leaf and one occurrence binds one
//!   node), and every occurrence has a route. The rule is exact:
//!   `unseeded_templates_carry_no_oracle_interpretation` checks over
//!   randomized schemas that no template it rejects carries an oracle
//!   interpretation.
//!
//! The session is flat: one `Vec` of suffix bounds, one of per-(template,
//! occurrence) target ranges and one of every localized `BindingTarget`,
//! offsets in `TplData`, plus two scratch vectors (the state's value
//! groups, the group's keyword bag) reused by every emission and lookup.
//!
//! Below the roots, best-first search pops partial assignments (slots
//! inline in the state; targets localized per (template, occurrence) on
//! first use through the template's table → nodes index). A count-based
//! `feasible` check prunes children whose unbound leaves outnumber the
//! occurrences left (the matching there measured slower). A value binding
//! forms a **value group** — the occurrences bound to one attribute — and
//! the group's joint occurrence count (rows holding the whole bag, each
//! contributing its smallest term frequency; 0 when empty) answers both
//! questions the search asks of it: the non-emptiness verdict
//! (`count > 0`, §4.4.1) and the joint ATF `(count + α) / denom`. The
//! count is taken once per group per session: the scorer memoizes the
//! group's `ln P(A : bag)` (or its emptiness) by occurrence mask and
//! attribute, and only a group the session has not met goes past it — to
//! the epoch's [`SharedNonemptyCache`] (the request's [`NonemptyCache`]
//! handle names it; probed with the bag borrowed from the query's terms)
//! and then to a postings walk, published back to the tier. So a group
//! costs one walk per epoch, and only a fresh walk builds an owned key.
//!
//! Each emitted interpretation is scored exactly from the template's prior
//! and the memo, in binding order — the terms
//! [`ProbabilityModel::log_score`] adds, bit for bit, without its postings
//! walks (`debug_assert`ed against it at the emission site;
//! `tests/pipeline.rs` holds the bits equal in release on all four
//! fixtures). It is built once, into an `Arc<QueryInterpretation>`: the
//! buffer, every pull's reply, the execution caches' keys, the answers and
//! a session window share it. What is still copied per emitted
//! interpretation is its own content — the bindings `Vec`, each binding's
//! keyword `Vec` and strings — because kbench reads `b.keywords` as a
//! `Vec<String>`.
//!
//! `pull(k)` searches until the k-th best is proven; `pull(4k)`
//! **continues**: the state that ended the previous pull and every child
//! the k-th-best threshold cut were kept, the top-`k` scores are rebuilt
//! from the buffer, cut children are re-judged against the threshold a
//! fresh search at `4k` would have held when they were cut, and the reply
//! is the canonical sort of the buffer. A resumed pull therefore returns
//! what a fresh `top_k` returns (interpretations, order, score and
//! probability bits), its first `k` entries are the previous pull's reply,
//! and the pulls' counters add up to the fresh call's
//! (`tests/properties.rs::resumed_pulls_equal_fresh_top_k`, on randomized
//! schemas and on the tiny IMDB fixture's log at 10 → 40 → 160). The
//! exhaustive pipeline ([`Interpreter::ranked_with_partials`], scored by
//! `log_score`) is the correctness oracle, called by name;
//! `tests/properties.rs` asserts equality on randomized schemas.

use crate::exec::{bound_nodes, ExecCache, ExecutedResult, Executor, LocalExecutor, ResultKey};
use crate::interp::{BindingTarget, KeywordBinding, QueryInterpretation};
use crate::keyword::KeywordQuery;
use crate::pipeline::{BestFirstSource, InterpretationSource};
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
#[derive(Debug, Clone, PartialEq)]
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
/// counters a single fresh `top_k` at the last pull's `k` reports. A pull
/// the shared tier's rankings served (see [`SharedNonemptyCache`]) did no
/// generation work: it counts only `emitted`.
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
    /// Non-emptiness probes issued against the index: value groups counted
    /// by a postings walk (or, for one keyword, read off its entry).
    pub nonempty_probes: usize,
    /// Value groups answered by the session's memo (met before in this
    /// session).
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

/// An interpretation with its score under the probability model. The
/// interpretation is immutable once generated and shared: the search's
/// buffer, every reply that ranks it, the execution caches that key by it,
/// the answers it yields and a session window that holds it all point at
/// one allocation.
#[derive(Debug, Clone)]
pub struct ScoredInterpretation {
    pub interpretation: Arc<QueryInterpretation>,
    /// `ln P(Q|K)` up to the per-query constant.
    pub log_score: f64,
    /// Probability normalized over the generated candidate set.
    pub probability: f64,
}

/// A request's handle on the epoch's [`SharedNonemptyCache`], or on
/// nothing. Generation asks two questions of a value group — whether some
/// row holds its whole keyword bag, and under joint ATF how often — and
/// one joint occurrence count answers both, so a group is counted once per
/// generation session: the session memoizes it by occurrence mask
/// (positions in its own query, so the memo dies with the session). A
/// group the session has not met is looked up in the shared tier, by its
/// sorted keyword bag, before the index is walked, and a fresh walk is
/// published back, so across queries and threads a group costs one walk
/// per epoch. The same tier holds the proven rankings of whole queries, so
/// a pull the tier already answers opens no session at all. A plain cache
/// ([`Self::new`]) has no tier: every pull searches, and every session
/// walks the groups it meets once.
#[derive(Debug, Default)]
pub struct NonemptyCache {
    shared: Option<Arc<SharedNonemptyCache>>,
}

impl NonemptyCache {
    pub fn new() -> Self {
        Self::default()
    }

    /// A handle whose sessions fall through to `shared`.
    pub fn with_shared(shared: Arc<SharedNonemptyCache>) -> Self {
        NonemptyCache {
            shared: Some(shared),
        }
    }

    /// The shared tier's answer to a pull at `k` over `terms`, if it holds
    /// one: what a fresh pull returns, bit for bit. Probed with the
    /// borrowed terms, so a hit builds no key.
    pub(crate) fn ranked(
        &self,
        terms: &[String],
        partials: bool,
        k: usize,
    ) -> Option<Vec<ScoredInterpretation>> {
        let shared = self.shared.as_ref()?;
        let is = |(held, p): &(Vec<String>, bool)| *p == partials && held[..] == *terms;
        let ranking = shared
            .rankings
            .get_by(&(terms, partials), is, |r| r.serves(k))?;
        Some(ranking.reply(k))
    }
}

/// The generation's process-wide tier, shared by every worker of a
/// [`crate::SearchService`] and retired with its epoch. Two lock-striped,
/// admission-capped maps (striping keeps writer contention away from the
/// read-mostly fast path):
///
/// * **group counts**, `(sorted keyword bag, attribute) → joint occurrence
///   count` (see [`NonemptyCache`]; `0` is the empty verdict): a group
///   costs one postings walk per epoch however many queries meet it;
/// * **rankings**, `(the query's terms in order, include_partials) →` the
///   canonical ranking a proven pull returned, as `(interpretation,
///   log_score)` pairs, plus whether the search ran dry. A pull's reply is
///   a prefix of any larger pull's, so an entry of `n` pairs serves every
///   pull at `k ≤ n` — its first `k` pairs, probabilities normalized over
///   them, bit for bit what a fresh search returns — and a dry entry
///   serves every `k`. A repeated query then skips generation altogether:
///   no term candidates, no scorer, no roots, no search.
///
/// Both are pure functions of the indexed database and the interpreter's
/// configuration, so concurrent readers never observe anything stale. Valid
/// only for the index it was populated against, under one
/// [`InterpreterConfig`].
#[derive(Debug)]
pub struct SharedNonemptyCache {
    /// Keyed by *sorted* keyword bag + attribute.
    counts: StripedMap<(Vec<String>, AttrRef), u64>,
    /// Keyed by the query's terms in input order + whether partials rank.
    rankings: StripedMap<(Vec<String>, bool), Arc<Ranking>>,
}

/// Per-stripe admission cap of the shared count map (see [`StripedMap`]).
const COUNT_STRIPE_CAP: usize = 65_536;

/// Per-stripe admission cap of the shared rankings: 16 stripes hold at most
/// 2,048 rankings. An entry keeps its interpretations alive: on the x10
/// IMDB log's 365 distinct queries, their answers (k 10), diversified
/// (pool 25) and session (window 20) rankings hold 15.9 pairs and 4.5 KB
/// per entry on average (179 KB the largest, a many-wave answers
/// request), so the tier holds ~9 MB at cap. `hot_interactive`'s 108
/// queries fill a tenth of it.
const RANKING_STRIPE_CAP: usize = 128;

impl Default for SharedNonemptyCache {
    fn default() -> Self {
        SharedNonemptyCache {
            counts: StripedMap::new(COUNT_STRIPE_CAP),
            rankings: StripedMap::new(RANKING_STRIPE_CAP),
        }
    }
}

impl SharedNonemptyCache {
    pub fn new() -> Self {
        Self::default()
    }

    /// Group counts currently shared.
    pub fn len(&self) -> usize {
        self.counts.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Cross-query hits served so far.
    pub fn hits(&self) -> usize {
        self.counts.hits()
    }

    /// Rankings currently shared.
    pub fn ranking_count(&self) -> usize {
        self.rankings.len()
    }

    /// Pulls served from a shared ranking so far.
    pub fn ranking_hits(&self) -> usize {
        self.rankings.hits()
    }
}

/// A proven ranking in the shared tier (see [`SharedNonemptyCache`]).
#[derive(Debug)]
struct Ranking {
    /// A proven pull's reply, best first, without its probabilities.
    pairs: Vec<(Arc<QueryInterpretation>, f64)>,
    /// Whether the search ran dry: `pairs` is the whole ranking.
    dry: bool,
}

impl Ranking {
    /// Whether this ranking answers a pull at `k`.
    fn serves(&self, k: usize) -> bool {
        self.dry || self.pairs.len() >= k
    }

    /// The admission rule: a dry ranking, or a longer one, supersedes a
    /// shorter one that did not run dry.
    fn supersedes(&self, held: &Self) -> bool {
        !held.dry && (self.dry || self.pairs.len() > held.pairs.len())
    }

    /// What a fresh pull at `k` returns: the first `k` pairs, probabilities
    /// normalized over them.
    fn reply(&self, k: usize) -> Vec<ScoredInterpretation> {
        reply_of(self.pairs.iter().take(k))
    }
}

/// One ranked end-to-end answer: a joining tuple tree of the interpretation
/// it came from, ordered best-interpretation-first.
#[derive(Debug, Clone)]
pub struct RankedAnswer {
    /// The interpretation this answer instantiates (shared with its
    /// siblings and the generation session that ranked it).
    pub interpretation: Arc<QueryInterpretation>,
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
    /// Whole executions served from the cache: runs another request
    /// shared through the tier, or earlier runs of a reused cache. A
    /// request walks each ranked interpretation once, so on a fresh plain
    /// cache this is 0.
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

impl TermCandidate {
    /// The attribute of a value route.
    fn value_attr(&self) -> Option<AttrRef> {
        match self {
            TermCandidate::Value(a) => Some(*a),
            _ => None,
        }
    }

    /// The table a schema-name route lands on.
    fn name_table(&self) -> Option<TableId> {
        match self {
            TermCandidate::TableName(t) => Some(*t),
            TermCandidate::AttrName(a) => Some(a.table),
            TermCandidate::Value(_) => None,
        }
    }
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
            self.push_term_candidates(term, &mut cands);
            out.insert(term.to_owned(), cands);
        }
        out
    }

    /// Append the schema-level candidates of `term` to `out`, in a
    /// deterministic order and without repeats.
    fn push_term_candidates(&self, term: &str, out: &mut Vec<TermCandidate>) {
        let start = out.len();
        for attr in self.index.attrs_containing(term) {
            out.push(TermCandidate::Value(*attr));
        }
        for m in self.index.schema_matches(term) {
            match m {
                SchemaTarget::Table(t) => out.push(TermCandidate::TableName(*t)),
                SchemaTarget::Attribute(a) => out.push(TermCandidate::AttrName(*a)),
            }
        }
        out[start..].sort_by_key(|c| match c {
            TermCandidate::Value(a) => (0u8, a.table.0, a.attr.0),
            TermCandidate::AttrName(a) => (1, a.table.0, a.attr.0),
            TermCandidate::TableName(t) => (2, t.0, 0),
        });
        let mut kept = start;
        for i in start..out.len() {
            if kept == start || out[i] != out[kept - 1] {
                out[kept] = out[i];
                kept += 1;
            }
        }
        out.truncate(kept);
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
                let mut targets = Vec::new();
                localize_candidates(&candidates[term.as_str()], tpl, &mut targets);
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
    fn rank(
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
                    interpretation: Arc::new(interpretation),
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
    /// Query length is bounded in two places. `ranked_with_partials` falls
    /// back to complete-only ranking past 12 keywords; the search instead
    /// folds the partials lattice in as an extra "unmapped (charged `P_u`)"
    /// branch per keyword, not a `2^n` subset sweep, so it keeps partials up
    /// to 63 keywords, the width of its occurrence masks. A longer query is
    /// ranked by [`Self::ranked_interpretations`]: complete interpretations
    /// only, so partials are dropped without notice, and its work is
    /// unbounded. Below 63 the search's work also grows steeply with
    /// length (seconds per query at a few dozen distinct keywords). Nothing
    /// refuses a long query yet.
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

    /// Like [`Self::top_k_with_stats`], through `cache`'s shared tier (see
    /// [`SharedNonemptyCache`]): a ranking the tier holds answers the pull
    /// without a search (the stats then count only `emitted`); otherwise
    /// value groups the session has not met are looked up there before the
    /// index, and the proven reply is admitted.
    ///
    /// Every `top_k*` entry point is this: one pull of a fresh
    /// [`crate::BestFirstSource`]. A caller that will come back for a
    /// larger `k` keeps the source instead: a new session meets every group
    /// again.
    pub fn top_k_with_cache(
        &self,
        query: &KeywordQuery,
        k: usize,
        include_partials: bool,
        cache: &mut NonemptyCache,
    ) -> (Vec<ScoredInterpretation>, GenerationStats) {
        BestFirstSource::new(self, query, include_partials).pull(k, cache)
    }

    /// Truncate a ranked list to `k` and renormalize probabilities over the
    /// survivors, the distribution shape the best-first search reports.
    fn renormalized_prefix(
        mut ranked: Vec<ScoredInterpretation>,
        k: usize,
    ) -> Vec<ScoredInterpretation> {
        ranked.truncate(k);
        normalize_in_place(&mut ranked);
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
        // beyond any workload in the paper and take the exhaustive pipeline,
        // complete interpretations only (see `top_k`).
        let exhaustive = (terms.len() > 63).then(|| self.ranked_interpretations(query));
        // Each term is resolved once; a repeated term's occurrences share
        // the first one's candidates.
        let mut candidates = Vec::new();
        let mut cand_spans: Vec<(u32, u32)> = Vec::with_capacity(terms.len());
        let mut repeated_terms = false;
        for (i, term) in terms.iter().enumerate() {
            if let Some(first) = terms[..i].iter().position(|t| t == term) {
                repeated_terms = true;
                cand_spans.push(cand_spans[first]);
                continue;
            }
            let start = candidates.len();
            if exhaustive.is_none() {
                self.push_term_candidates(term, &mut candidates);
            }
            cand_spans.push((start as u32, candidates.len() as u32));
        }
        let of = |i: usize| {
            let (start, end) = cand_spans[i];
            &candidates[start as usize..end as usize]
        };
        let scorer = IncrementalScorer::new(
            self.index,
            self.config.prob,
            self.db.schema().table_count(),
            terms,
            |i| of(i).iter().filter_map(TermCandidate::value_attr),
            |i| of(i).iter().filter_map(TermCandidate::name_table),
            include_partials,
        );
        let mut search = BestFirstSearch {
            interpreter: self,
            terms,
            candidates,
            cand_spans,
            scorer,
            exhaustive,
            tpls: vec![None; self.catalog.len()],
            suffix: Vec::new(),
            spans: Vec::new(),
            targets: Vec::new(),
            heap: BinaryHeap::new(),
            deferred: Vec::new(),
            buffer: Vec::new(),
            repeated_terms,
            emitted: HashSet::new(),
            k: 0,
            top_scores: BinaryHeap::new(),
            stats: GenerationStats::default(),
            groups: Vec::new(),
            bag: Vec::new(),
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
    /// skipped, and a wave executes only the ranks past those the previous
    /// wave walked.
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
                interpretation: Arc::clone(&s.interpretation),
                log_score: s.log_score,
                jtt: jtt.clone(),
                keys,
            });
        }
    }
}

/// The reply over ranked `(interpretation, log_score)` pairs, best first:
/// the pairs shared, probabilities normalized over them.
fn reply_of<'p>(
    pairs: impl Iterator<Item = &'p (Arc<QueryInterpretation>, f64)>,
) -> Vec<ScoredInterpretation> {
    let mut reply: Vec<ScoredInterpretation> = pairs
        .map(|(interpretation, log_score)| ScoredInterpretation {
            interpretation: Arc::clone(interpretation),
            log_score: *log_score,
            probability: 0.0,
        })
        .collect();
    normalize_in_place(&mut reply);
    reply
}

/// Set every entry's probability to its share of the list's mass:
/// [`ProbabilityModel::normalize`] over the `log_score`s, operation for
/// operation, written in place.
fn normalize_in_place(ranked: &mut [ScoredInterpretation]) {
    let m = ranked
        .iter()
        .map(|s| s.log_score)
        .fold(f64::NEG_INFINITY, f64::max);
    for s in ranked.iter_mut() {
        s.probability = (s.log_score - m).exp();
    }
    let sum: f64 = ranked.iter().map(|s| s.probability).sum();
    for s in ranked.iter_mut() {
        s.probability /= sum;
    }
}

/// Localize schema-level term candidates to the node occurrences of one
/// template, appending them to `targets` — the single definition of binding
/// semantics, shared by the exhaustive enumerator and the best-first search
/// so the two cannot drift apart.
fn localize_candidates(
    candidates: &[TermCandidate],
    tpl: &crate::template::QueryTemplate,
    targets: &mut Vec<BindingTarget>,
) {
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
}

/// Whether every template leaf can be bound by an occurrence of its own:
/// a matching of leaves to distinct occurrences, `reach[l]` holding the
/// occurrences that can bind leaf `l` (bit per occurrence, so at most 63).
/// Minimality (Def. 3.5.4(2)) needs a binding on every leaf and one
/// occurrence binds one node, so a template without such a matching emits
/// no interpretation, complete or partial. Augmenting paths (Kuhn); more
/// leaves than reaching occurrences fails at once.
fn leaves_coverable(reach: &[u64]) -> bool {
    let reaching = reach.iter().fold(0u64, |m, r| m | r);
    if reach.len() > reaching.count_ones() as usize {
        return false;
    }
    /// Find `leaf` an occurrence, displacing earlier leaves along an
    /// augmenting path; `seen` marks the occurrences this search visited.
    fn augment(leaf: usize, reach: &[u64], owner: &mut [usize; 64], seen: &mut u64) -> bool {
        loop {
            let free = reach[leaf] & !*seen;
            if free == 0 {
                return false;
            }
            let i = free.trailing_zeros() as usize;
            *seen |= 1 << i;
            if owner[i] == usize::MAX || augment(owner[i], reach, owner, seen) {
                owner[i] = leaf;
                return true;
            }
        }
    }
    // The leaf each occurrence is matched to.
    let mut owner = [usize::MAX; 64];
    (0..reach.len()).all(|leaf| augment(leaf, reach, &mut owner, &mut 0))
}

/// The joint occurrence count of `bag` in `attr` ([`NonemptyCache`]): what
/// [`InvertedIndex::joint_occurrences`] counts, `0` when some keyword does
/// not occur there. One keyword's count is its postings entry's occurrence
/// total, which needs no walk.
fn joint_count(index: &InvertedIndex, bag: &[String], attr: AttrRef) -> u64 {
    match bag {
        [term] => index.postings(term, attr).map_or(0, |e| e.occurrences),
        _ => index.joint_occurrences(bag, attr).unwrap_or(0),
    }
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

/// What the session knows about one viable template: its prior, and where
/// its rows of the session's flat tables start — its suffix bounds in
/// [`BestFirstSearch::suffix`] and its per-occurrence target ranges in
/// [`BestFirstSearch::spans`].
#[derive(Clone, Copy)]
struct TplData {
    ln_prior: f64,
    /// Ordinal among the seeded templates: its suffix bounds start at
    /// `at · (n + 1)`, its target ranges at `at · n`.
    at: usize,
    /// Bit per leaf node, for the minimality-feasibility prune. Template
    /// trees are tiny in practice; the rare > 64-node template skips the
    /// prune (sound — it is only an optimization, minimality is checked at
    /// emission).
    leaf_mask: Option<u64>,
    /// Bit per occurrence whose target range is filled.
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
/// from the query — term candidates, the scorer's bound tables and value
/// group memo, per-template priors, targets and suffix bounds — and
/// everything it has found so far — the frontier, the exactly scored
/// interpretations, the children the k-th-best threshold cut. All of it is paid for once:
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
    /// The schema-level candidates of every term, flat: occurrence `i`'s
    /// are the range `cand_spans[i]` (shared by repeated terms).
    candidates: Vec<TermCandidate>,
    cand_spans: Vec<(u32, u32)>,
    scorer: IncrementalScorer<'q>,
    /// The whole ranking, for a query too long for occurrence masks.
    exhaustive: Option<Vec<ScoredInterpretation>>,
    /// Indexed by `TemplateId`; `None` for templates that cannot interpret
    /// the query.
    tpls: Vec<Option<TplData>>,
    /// `n + 1` entries per seeded template: the suffix sums of its
    /// per-occurrence bounds (entry `i` bounds the total remaining
    /// contribution once occurrences `0..i` are assigned; entry `n` is 0).
    suffix: Vec<f64>,
    /// `n` entries per seeded template: the range of `targets` holding
    /// occurrence `i`'s binding targets on it, filled when a state of the
    /// template first assigns that occurrence (so a state at depth `d` finds
    /// occurrences `0..d` localized by its ancestors).
    spans: Vec<(u32, u32)>,
    /// Every binding target the session has localized.
    targets: Vec<BindingTarget>,
    heap: BinaryHeap<SearchNode>,
    /// Children cut by the k-th-best threshold, each with the number of
    /// interpretations buffered when it was cut, in cut order.
    deferred: Vec<(usize, SearchNode)>,
    /// Emitted interpretations with their exact scores, in emission order.
    /// Each is built once; replies share it.
    buffer: Vec<(Arc<QueryInterpretation>, f64)>,
    /// Whether some keyword occurs twice — the only way two assignments can
    /// spell the same interpretation, so the only time `emitted` is needed.
    repeated_terms: bool,
    emitted: HashSet<Arc<QueryInterpretation>>,
    /// The `k` of the current pull.
    k: usize,
    /// Min-heap of the `k` best exact scores seen so far.
    top_scores: BinaryHeap<std::cmp::Reverse<Score>>,
    /// Counters since the session opened; `pull` reports what it added.
    stats: GenerationStats,
    /// [`Self::materialize`]'s scratch: the state's value groups.
    groups: Vec<(BindingTarget, u64)>,
    /// [`Self::value_group`]'s scratch: the group's sorted keyword bag.
    bag: Vec<&'q str>,
}

impl<'q> BestFirstSearch<'q, '_> {
    /// The best `k` interpretations found by searching until the `k`-th
    /// best is proven, with the work this pull added (see
    /// [`GenerationStats::absorb`]). Value groups the session has not met
    /// are looked up in `cache`'s shared tier before the index.
    pub(crate) fn pull(
        &mut self,
        k: usize,
        cache: &NonemptyCache,
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
        let before = self.stats;
        self.retarget(k);
        self.run(cache);
        let reply = self.reply();
        self.publish(&reply, cache);
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

    /// Admit `reply`, this pull's, to the shared tier's rankings (see
    /// [`SharedNonemptyCache`]) — unless the interpretation cap stopped the
    /// search, which leaves the reply unproven. The search ran dry when no
    /// state is left open or cut and the reply holds every interpretation
    /// buffered.
    fn publish(&self, reply: &[ScoredInterpretation], cache: &NonemptyCache) {
        let Some(shared) = &cache.shared else { return };
        if self.buffer.len() >= self.interpreter.config.max_interpretations {
            return;
        }
        let ranking = Ranking {
            pairs: reply
                .iter()
                .map(|s| (Arc::clone(&s.interpretation), s.log_score))
                .collect(),
            dry: self.heap.is_empty()
                && self.deferred.is_empty()
                && reply.len() == self.buffer.len(),
        };
        let key = (self.terms.to_vec(), self.scorer.allows_unmapped());
        shared
            .rankings
            .admit(key, Arc::new(ranking), |new, held| new.supersedes(held));
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

    /// Push one root state per template that can interpret the query: its
    /// leaves can be bound by distinct occurrences ([`leaves_coverable`])
    /// and every occurrence has a route (a binding target, or the unmapped
    /// branch when partials are on).
    fn seed_roots(&mut self) {
        let n = self.terms.len();
        let interpreter = self.interpreter;
        let reach: Vec<u64> = (0..interpreter.db.schema().table_count())
            .map(|t| self.scorer.reach(TableId(t as u32)))
            .collect();
        // First the templates whose leaves the query can cover, so the
        // flat tables are sized once.
        let mut leaf_reach = Vec::new();
        let mut seeded = 0;
        for tpl in interpreter.catalog.iter() {
            leaf_reach.clear();
            leaf_reach.extend(
                tpl.leaves()
                    .iter()
                    .map(|&leaf| reach[tpl.tree.nodes[leaf].0 as usize]),
            );
            if leaves_coverable(&leaf_reach) {
                self.tpls[tpl.id.0 as usize] = Some(TplData {
                    ln_prior: 0.0,
                    at: seeded,
                    leaf_mask: (tpl.tree.nodes.len() <= 64)
                        .then(|| tpl.leaves().iter().fold(0u64, |m, &l| m | 1 << l)),
                    localized: 0,
                });
                seeded += 1;
            }
        }
        self.suffix = vec![0.0; seeded * (n + 1)];
        self.spans = vec![(0, 0); seeded * n];
        self.targets.reserve(seeded * n);
        let mut bounds = vec![0.0; n];
        for tpl in interpreter.catalog.iter() {
            let slot = &mut self.tpls[tpl.id.0 as usize];
            let Some(data) = slot else { continue };
            let mut bound_sum = 0.0;
            for (i, bound) in bounds.iter_mut().enumerate() {
                *bound = self.scorer.term_bound(tpl, i);
                bound_sum += *bound;
            }
            if !bound_sum.is_finite() {
                *slot = None;
                continue;
            }
            let row = &mut self.suffix[data.at * (n + 1)..(data.at + 1) * (n + 1)];
            for i in (0..n).rev() {
                row[i] = bounds[i] + row[i + 1];
            }
            data.ln_prior = interpreter.config.prior.ln_prob(
                tpl.signature_names(interpreter.db),
                interpreter.catalog.len(),
            );
            self.stats.pushed += 1;
            self.heap.push(SearchNode {
                ub: data.ln_prior + bound_sum,
                prefix: data.ln_prior,
                tpl: tpl.id,
                depth: 0,
                slots: Assign::new(n),
            });
        }
    }

    /// Pop-expand until the k-th best is provably found. The state that
    /// proves it goes back on the frontier: a later, larger pull starts
    /// from it.
    fn run(&mut self, cache: &NonemptyCache) {
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

    /// Occurrence `p`'s binding target `choice` on the template whose
    /// tables start at `at` (the occurrence must be localized there).
    fn target(&self, at: usize, p: usize, choice: i16) -> BindingTarget {
        let (start, _) = self.spans[at * self.terms.len() + p];
        self.targets[start as usize + choice as usize]
    }

    /// Expand one frontier state over every option for the next occurrence.
    fn expand(&mut self, node: SearchNode, cache: &NonemptyCache) {
        self.stats.expanded += 1;
        let i = node.depth as usize;
        let n = self.terms.len();
        let interpreter = self.interpreter;
        let tpl = interpreter.catalog.get(node.tpl);
        let data = self.tpls[node.tpl.0 as usize]
            .as_mut()
            .expect("a frontier state's template was seeded");
        if data.localized & 1 << i == 0 {
            data.localized |= 1 << i;
            let start = self.targets.len();
            let (from, to) = self.cand_spans[i];
            let candidates = &self.candidates[from as usize..to as usize];
            localize_candidates(candidates, tpl, &mut self.targets);
            self.spans[data.at * n + i] = (start as u32, self.targets.len() as u32);
        }
        let at = data.at;
        let leaf_mask = data.leaf_mask;
        let assign = node.assign();
        // Template nodes already carrying a binding.
        let bound_nodes = assign
            .iter()
            .enumerate()
            .filter(|&(_, &t)| t != UNMAPPED)
            .fold(0u64, |m, (p, &t)| {
                m | 1u64 << (self.target(at, p, t).node() & 63)
            });
        // A child is viable only if the leaves still unbound after it can
        // all be covered by the occurrences that remain.
        let remaining_after = n - i - 1;
        let feasible = |nodes_mask: u64| {
            leaf_mask.is_none_or(|leaves| {
                (leaves & !nodes_mask).count_ones() as usize <= remaining_after
            })
        };
        let suffix = self.suffix[at * (n + 1) + i + 1];
        let (start, end) = self.spans[at * n + i];
        for (ti, t) in (start as usize..end as usize).enumerate() {
            let target = self.targets[t];
            if !feasible(bound_nodes | 1u64 << (target.node() & 63)) {
                self.stats.pruned += 1;
                continue;
            }
            let delta = match target {
                BindingTarget::Value { node: tnode, attr } => {
                    let aref = AttrRef {
                        table: tpl.tree.nodes[tnode],
                        attr,
                    };
                    // Earlier occurrences already bound to the same target.
                    let old_mask = assign
                        .iter()
                        .enumerate()
                        .filter(|&(p, &t)| t != UNMAPPED && self.target(at, p, t) == target)
                        .fold(0u64, |m, (p, _)| m | 1u64 << p);
                    // Prune empty value groups: every extension keeps the
                    // group, so no descendant can satisfy the non-emptiness
                    // condition.
                    let Some(ln) = self.value_group(old_mask | 1u64 << i, aref, cache) else {
                        continue;
                    };
                    let old_ln = if old_mask == 0 {
                        0.0
                    } else {
                        self.scorer.value_group_ln(old_mask, aref)
                    };
                    ln - old_ln
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

    /// `ln P(A : bag)` of a value group (keyword bag ⊂ attr; see
    /// [`NonemptyCache`]), `None` when no row holds the bag. The session's
    /// memo answers a group it has met, by occurrence bitmask, so a hit is
    /// allocation-free (duplicate keywords at different positions count
    /// once each, the only sharing the mask encoding gives up). A group met
    /// for the first time is looked up in the cross-query shared tier
    /// (bag-keyed, probed with the bag borrowed from the query's terms)
    /// before the index is walked; a fresh count is published back so
    /// every other query — on any thread — skips the walk.
    fn value_group(&mut self, mask: u64, aref: AttrRef, cache: &NonemptyCache) -> Option<f64> {
        if let Some(ln) = self.scorer.memo(mask, aref) {
            self.stats.nonempty_cache_hits += 1;
            return ln;
        }
        // Sorted, which is how the shared tier keys a bag.
        self.bag.clear();
        self.bag.extend(self.scorer.bag(mask));
        let bag = &self.bag[..];
        let shared = cache.shared.as_ref().and_then(|shared| {
            let is = |(held, attr): &(Vec<String>, AttrRef)| {
                *attr == aref && held.iter().map(String::as_str).eq(bag.iter().copied())
            };
            shared.counts.get_by(&(bag, aref), is, |_| true)
        });
        let count = match shared {
            Some(count) => {
                self.stats.nonempty_shared_hits += 1;
                count
            }
            None => {
                self.stats.nonempty_probes += 1;
                let owned: Vec<String> = bag.iter().map(|&t| t.to_owned()).collect();
                let count = joint_count(self.interpreter.index, &owned, aref);
                if let Some(shared) = &cache.shared {
                    shared.counts.admit((owned, aref), count, |_, _| false);
                }
                count
            }
        };
        self.scorer.form_group(mask, aref, count)
    }

    /// Turn a fully assigned state into a `QueryInterpretation`, apply the
    /// emission filters (some binding, minimality, novelty), and buffer it
    /// with its exact model score. Keywords stay occurrence masks until the
    /// filters have passed; the score is assembled, in the interpretation's
    /// binding order, from the template's prior and the scorer's memo —
    /// the terms `ProbabilityModel::log_score` adds, without its postings
    /// walks.
    fn materialize(&mut self, node: &SearchNode) {
        let data = self.tpls[node.tpl.0 as usize].expect("a frontier state's template was seeded");
        let mut groups = std::mem::take(&mut self.groups);
        groups.clear();
        for (p, &t) in node.assign().iter().enumerate() {
            if t == UNMAPPED {
                continue;
            }
            let target = self.target(data.at, p, t);
            match groups.iter_mut().find(|g| g.0 == target) {
                Some(group) => group.1 |= 1 << p,
                None => groups.push((target, 1 << p)),
            }
        }
        self.emit(node, data.ln_prior, &groups);
        self.groups = groups;
    }

    /// [`Self::materialize`] past grouping: `groups` are the state's
    /// `(target, occurrence mask)` bindings in assignment order.
    fn emit(&mut self, node: &SearchNode, ln_prior: f64, groups: &[(BindingTarget, u64)]) {
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
            .map(|&(target, mask)| {
                let mut keywords = Vec::with_capacity(mask.count_ones() as usize);
                keywords.extend(self.scorer.bag(mask).map(str::to_owned));
                KeywordBinding { keywords, target }
            })
            .collect();
        let interp = Arc::new(QueryInterpretation::new(node.tpl, bindings));
        if self.repeated_terms && !self.emitted.insert(Arc::clone(&interp)) {
            return; // duplicate via permuted identical keywords
        }
        let mut exact = ln_prior;
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
    /// truncated to `k`, probabilities normalized over the survivors. The
    /// reply shares the buffered interpretations.
    fn reply(&self) -> Vec<ScoredInterpretation> {
        let mut order: Vec<&(Arc<QueryInterpretation>, f64)> = self.buffer.iter().collect();
        order.sort_by(|a, b| {
            b.1.partial_cmp(&a.1)
                .unwrap_or(Ordering::Equal)
                .then_with(|| a.0.template.cmp(&b.0.template))
                .then_with(|| a.0.bindings.cmp(&b.0.bindings))
        });
        reply_of(order.into_iter().take(self.k))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use keybridge_datagen::{ImdbConfig, ImdbDataset};
    use keybridge_index::Tokenizer;
    use keybridge_relstore::{SchemaBuilder, TableKind, Value};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

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

    /// The rankings tier is bounded: more distinct queries than its cap
    /// leave at most the cap admitted, and the rankings it holds keep
    /// serving repeats without a search, bit for bit.
    #[test]
    fn rankings_tier_admits_at_most_its_cap() {
        let f = fixture();
        let interp = Interpreter::new(
            &f.data.db,
            &f.index,
            &f.catalog,
            InterpreterConfig::default(),
        );
        let stripe_cap = 2;
        let cap = crate::striped::STRIPES * stripe_cap;
        let shared = Arc::new(SharedNonemptyCache {
            counts: StripedMap::new(COUNT_STRIPE_CAP),
            rankings: StripedMap::new(stripe_cap),
        });
        let mut cache = NonemptyCache::with_shared(Arc::clone(&shared));
        // Distinct queries: actor-name tokens, alone and in pairs.
        let mut words: Vec<String> = (0..40)
            .flat_map(|r| {
                let row = f
                    .data
                    .db
                    .table(f.data.actor)
                    .row(keybridge_relstore::RowId(r));
                Tokenizer::new().tokenize(row[1].as_text().unwrap())
            })
            .collect();
        words.sort();
        words.dedup();
        let queries: Vec<KeywordQuery> = words
            .iter()
            .flat_map(|a| {
                std::iter::once(vec![a.clone()])
                    .chain(words.iter().map(move |b| vec![a.clone(), b.clone()]))
            })
            .take(16 * cap)
            .map(KeywordQuery::from_terms)
            .collect();
        // Far more queries than slots: every stripe fills.
        assert_eq!(queries.len(), 16 * cap, "vocabulary too small");
        for q in &queries {
            interp.top_k_with_cache(q, 5, true, &mut cache);
        }
        let held = shared.ranking_count();
        assert_eq!(held, cap, "{held} rankings admitted, cap {cap}");
        let mut served = 0;
        for q in &queries {
            let hits = shared.ranking_hits();
            let (reply, stats) = interp.top_k_with_cache(q, 5, true, &mut cache);
            if shared.ranking_hits() == hits {
                continue;
            }
            served += 1;
            assert_eq!((stats.expanded, stats.materialized), (0, 0), "{q}");
            assert_eq!(stats.emitted, reply.len());
            let fresh = interp.top_k(q, 5);
            assert_eq!(reply.len(), fresh.len(), "{q}");
            for (a, b) in reply.iter().zip(&fresh) {
                assert_eq!(a.interpretation, b.interpretation, "{q}");
                assert_eq!(a.log_score.to_bits(), b.log_score.to_bits(), "{q}");
                assert_eq!(a.probability.to_bits(), b.probability.to_bits(), "{q}");
            }
        }
        assert_eq!(served, held, "every admitted ranking serves its query");
        assert_eq!(shared.ranking_count(), held, "a full tier admits nothing");
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
        // Reusing one cache for a *different* query must not leak verdicts
        // (occurrence masks are positional): results equal a fresh top_k run.
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
    fn leaves_coverable_is_a_matching() {
        // An augmenting path: leaf 0 first takes occurrence 0, then moves
        // to occurrence 1 so leaf 1 can have 0.
        assert!(leaves_coverable(&[0b11, 0b01]));
        assert!(leaves_coverable(&[0b111, 0b011, 0b011]));
        // More leaves than reaching occurrences fails at once ...
        assert!(!leaves_coverable(&[0b11, 0b11, 0b11]));
        // ... and a Hall violation inside a large enough union fails too.
        assert!(!leaves_coverable(&[0b001, 0b001, 0b110]));
        assert!(!leaves_coverable(&[0b1, 0]));
    }

    /// The three-table schema of `tests/properties.rs`: random row counts,
    /// names and titles over a seven-word vocabulary (heavy sharing between
    /// the two, which is what makes interpretations ambiguous), and a
    /// random, possibly empty, relation between them.
    fn random_db(rng: &mut StdRng) -> Database {
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
        let [actor, movie, acts] =
            ["actor", "movie", "acts"].map(|t| db.schema().table_id(t).unwrap());
        const VOCAB: &[&str] = &["tom", "meg", "stone", "london", "terminal", "guest", "fire"];
        let words = |rng: &mut StdRng, n: usize| {
            (0..n)
                .map(|_| VOCAB[rng.gen_range(0..VOCAB.len())])
                .collect::<Vec<_>>()
                .join(" ")
        };
        let n_actor = rng.gen_range(2..7usize);
        let n_movie = rng.gen_range(2..7usize);
        for i in 0..n_actor {
            let name = words(rng, 2);
            db.insert(actor, vec![Value::Int(i as i64), Value::text(name)])
                .unwrap();
        }
        for i in 0..n_movie {
            let n = rng.gen_range(1..=2usize);
            let title = words(rng, n);
            db.insert(movie, vec![Value::Int(i as i64), Value::text(title)])
                .unwrap();
        }
        for i in 0..rng.gen_range(0..8usize) {
            let pair = [
                rng.gen_range(0..n_actor as i64),
                rng.gen_range(0..n_movie as i64),
            ];
            db.insert(
                acts,
                vec![
                    Value::Int(i as i64),
                    Value::Int(pair[0]),
                    Value::Int(pair[1]),
                ],
            )
            .unwrap();
        }
        db
    }

    /// A random 1–4 keyword query over the vocabulary, schema words and an
    /// unknown token; a third of them repeat one of their keywords.
    fn random_query(rng: &mut StdRng) -> KeywordQuery {
        const POOL: &[&str] = &[
            "tom", "meg", "stone", "london", "terminal", "guest", "fire", "actor", "movie",
            "title", "name", "zzzz",
        ];
        let n = rng.gen_range(1..=4usize);
        let mut terms: Vec<String> = (0..n)
            .map(|_| POOL[rng.gen_range(0..POOL.len())].to_owned())
            .collect();
        if rng.gen_bool(0.33) {
            terms.push(terms[rng.gen_range(0..n)].clone());
        }
        KeywordQuery::from_terms(terms)
    }

    /// The leaf-cover rule is exact: every template `seed_roots` passes
    /// over carries no interpretation of the exhaustive oracle, partials on
    /// and off. The rule must also reject templates the two checks it
    /// replaced (more leaves than keywords, no occurrence with a target)
    /// let through, or it would prove nothing.
    #[test]
    fn unseeded_templates_carry_no_oracle_interpretation() {
        let mut rng = StdRng::seed_from_u64(3737);
        let (mut unseeded, mut beyond_old_checks) = (0usize, 0usize);
        for case in 0..80 {
            let db = random_db(&mut rng);
            let index = InvertedIndex::build(&db);
            let catalog = TemplateCatalog::enumerate(&db, 3, 10_000).unwrap();
            let cfg = InterpreterConfig {
                prob: keybridge_core_test_unmapped(),
                ..Default::default()
            };
            let interp = Interpreter::new(&db, &index, &catalog, cfg);
            let query = random_query(&mut rng);
            let n = query.len();
            for partials in [true, false] {
                let oracle = if partials {
                    interp.ranked_with_partials(&query)
                } else {
                    interp.ranked_interpretations(&query)
                };
                let search = interp.open_search(&query, partials);
                for tpl in catalog.iter() {
                    if search.tpls[tpl.id.0 as usize].is_some() {
                        continue;
                    }
                    unseeded += 1;
                    assert!(
                        !oracle.iter().any(|s| s.interpretation.template == tpl.id),
                        "case {case} query \"{query}\" partials {partials}: \
                         template {:?} was not seeded but the oracle interprets on it",
                        tpl.id
                    );
                    let leaf_reach: Vec<u64> = tpl
                        .leaves()
                        .iter()
                        .map(|&leaf| search.scorer.reach(tpl.tree.nodes[leaf]))
                        .collect();
                    let targetable = tpl.distinct_tables().any(|t| search.scorer.reach(t) != 0);
                    if tpl.leaves().len() <= n && targetable && !leaves_coverable(&leaf_reach) {
                        beyond_old_checks += 1;
                    }
                }
            }
        }
        assert!(
            unseeded > 0 && beyond_old_checks > 0,
            "{unseeded} unseeded, {beyond_old_checks} by the cover rule alone"
        );
    }

    /// Terms that live in one table seed only the templates whose leaves
    /// all sit on that table (each leaf needs an occurrence of its own that
    /// reaches it), and the search still materializes exactly what it did
    /// when any template some occurrence reached was seeded.
    #[test]
    fn one_table_query_seeds_only_that_tables_templates() {
        let f = fixture();
        // The first actor whose name tokens occur nowhere else.
        let actor_only = |term: &String| {
            f.index
                .attrs_containing(term)
                .iter()
                .all(|a| a.table == f.data.actor)
                && f.index.schema_matches(term).is_empty()
        };
        let terms = (f.data.db.table(f.data.actor).rows())
            .map(|(_, row)| Tokenizer::new().tokenize(row[1].as_text().unwrap()))
            .find(|toks| toks.len() == 2 && toks.iter().all(actor_only))
            .expect("some actor name lives only in the actor table");
        let q = KeywordQuery::from_terms(terms);
        let interp = Interpreter::new(
            &f.data.db,
            &f.index,
            &f.catalog,
            InterpreterConfig::default(),
        );
        for partials in [true, false] {
            let search = interp.open_search(&q, partials);
            let seeded: Vec<_> = f
                .catalog
                .iter()
                .filter(|tpl| search.tpls[tpl.id.0 as usize].is_some())
                .collect();
            assert!(!seeded.is_empty());
            for tpl in seeded {
                assert!(
                    tpl.leaves()
                        .iter()
                        .all(|&leaf| tpl.tree.nodes[leaf] == f.data.actor),
                    "seeded {:?} has a leaf off the actor table",
                    tpl.id
                );
            }
        }
        let (_, stats) = interp.top_k_with_stats(&q, 10, true);
        // Measured with every template some occurrence reached seeded.
        assert_eq!(stats.materialized, 5);
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
