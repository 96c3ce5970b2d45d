//! The composable query pipeline: generation → execution → post-processing.
//!
//! Every end-to-end serving mode in this workspace, on every topology, is
//! the same three stages wired differently: an [`InterpretationSource`]
//! produces ranked candidate interpretations (best-first over a keyword
//! query, or a fixed pre-ranked window), an executor materializes them
//! through one [`ExecCache`] (optionally backed by the process-wide shared
//! tier), and a pluggable [`PostProcess`] stage consumes the streamed
//! [`ExecutedResult`]s:
//!
//! * **plain top-k answers** (Hot path 2) — collect JTTs best-first until
//!   `k` answers exist, growing the generation wave geometrically;
//! * **diversified top-k** (Alg. 4.1, §4.4) — build the relevance/novelty
//!   pool from streamed executions (empty interpretations drop out, result
//!   keys are capped per interpretation) and greedily select relevant *and*
//!   structurally novel interpretations;
//! * **construction-session windows** (Alg. 3.2) — execute the remaining
//!   candidate window of an interactive session, candidates sharing one
//!   cache across refreshes.
//!
//! ## The executor seam
//!
//! The wave loop ([`QueryPipeline`]'s `drive`) exists once. What differs
//! between a single store and K shards is confined to the crate-private
//! `Executor` trait, which has exactly two duties: *execute one
//! interpretation to a limit through an [`ExecCache`]*, and *return the
//! primary key of a bound `(table, row)`* so stages can mint
//! [`ResultKey`]s. [`QueryPipeline::new`] plugs in the local executor
//! (index harvest + join-tree execution + `db.pk_value` over the
//! interpreter's database); a [`crate::SearchService`] serving a K-shard
//! partition plugs in its scatter-gather coordinator (one harvest split across the shards,
//! per-shard reduction, one forced plan, bounded merge, pks from its
//! placement table). Dispatch is static — the loop is monomorphized per
//! executor — and nothing in it asks which one it got.
//!
//! [`crate::Interpreter::answers_top_k`] and every [`crate::SearchService`]
//! request mode, on either store, run on this pipeline,
//! which is what keeps a warm, concurrent, possibly sharded service
//! byte-identical to the cold offline oracles: the only cross-query state is
//! the result-invariant shared cache tier, and complete cached results are
//! truncated back to the request's limit before a stage observes them.

use crate::exec::{
    prefix_keys, truncate_result, ExecCache, ExecutedResult, Executor, LocalExecutor, ResultKey,
};
use crate::generate::{
    AnswerStats, BestFirstSearch, GenerationStats, Interpreter, NonemptyCache, RankedAnswer,
    ScoredInterpretation,
};
use crate::interp::BindingAtom;
use crate::keyword::KeywordQuery;
use crate::template::TemplateCatalog;
use crate::QueryInterpretation;
use keybridge_relstore::ExecOptions;
use std::collections::{BTreeSet, HashSet};
use std::sync::Arc;

// ---------------------------------------------------------------------------
// Stage 1: interpretation sources.
// ---------------------------------------------------------------------------

/// A source of ranked candidate interpretations. `pull(k)` returns the best
/// `k`, best-first; the pipeline driver grows `k` geometrically (up to
/// [`InterpretationSource::cap`]) when the post-processing stage still
/// demands answers after a wave.
pub trait InterpretationSource {
    /// The best `k` candidates, best-first, with the generation work this
    /// pull added (see [`GenerationStats::absorb`]). A later, larger pull
    /// returns a superset whose first entries are the earlier pull's, in
    /// the same order; a source may keep state between pulls so that the
    /// larger one costs only the difference.
    fn pull(
        &mut self,
        k: usize,
        gen_cache: &mut NonemptyCache,
    ) -> (Vec<ScoredInterpretation>, GenerationStats);

    /// Hard ceiling on the candidate space; wave growth stops here.
    fn cap(&self) -> usize;
}

/// Best-first generation over a keyword query: one generation session
/// (the [`Interpreter::top_k_with_cache`] search, kept open), so a wave at
/// `4k` continues from the frontier the wave at `k` stopped on instead of
/// searching again from the roots. The non-emptiness memo is the caller's
/// `gen_cache` (falling through to the shared tier when it was built with
/// [`NonemptyCache::with_shared`]).
pub struct BestFirstSource<'q, 'a> {
    search: BestFirstSearch<'q, 'a>,
    cap: usize,
}

impl<'q, 'a> BestFirstSource<'q, 'a> {
    pub fn new(interpreter: &'q Interpreter<'a>, query: &'q KeywordQuery, partials: bool) -> Self {
        BestFirstSource {
            search: interpreter.open_search(query, partials),
            cap: interpreter.config().max_interpretations,
        }
    }
}

impl InterpretationSource for BestFirstSource<'_, '_> {
    fn pull(
        &mut self,
        k: usize,
        gen_cache: &mut NonemptyCache,
    ) -> (Vec<ScoredInterpretation>, GenerationStats) {
        self.search.pull(k, gen_cache)
    }

    fn cap(&self) -> usize {
        self.cap
    }
}

/// A fixed, pre-ranked candidate list — a diversification pool handed in by
/// a caller, or the remaining window of a construction session.
pub(crate) struct FixedSource {
    ranked: Vec<ScoredInterpretation>,
}

impl FixedSource {
    pub fn new(ranked: Vec<ScoredInterpretation>) -> Self {
        FixedSource { ranked }
    }

    /// Wrap a construction-session window: `(interpretation, weight)` pairs
    /// in window order. Weights become probabilities; the window carries no
    /// log-scores.
    pub fn from_window(window: &[(QueryInterpretation, f64)]) -> Self {
        FixedSource {
            ranked: window
                .iter()
                .map(|(c, p)| ScoredInterpretation {
                    interpretation: c.clone(),
                    log_score: 0.0,
                    probability: *p,
                })
                .collect(),
        }
    }
}

impl InterpretationSource for FixedSource {
    fn pull(
        &mut self,
        k: usize,
        _gen_cache: &mut NonemptyCache,
    ) -> (Vec<ScoredInterpretation>, GenerationStats) {
        let out: Vec<ScoredInterpretation> = self.ranked.iter().take(k).cloned().collect();
        let stats = GenerationStats {
            emitted: out.len(),
            ..Default::default()
        };
        (out, stats)
    }

    fn cap(&self) -> usize {
        self.ranked.len().max(1)
    }
}

// ---------------------------------------------------------------------------
// Stage 3: post-processing.
// ---------------------------------------------------------------------------

/// A stage consuming the pipeline's stream of non-empty executed
/// interpretations, in rank order.
pub(crate) trait PostProcess {
    /// Raw answers (JTTs) the stage still wants. Drives the executor's
    /// per-interpretation `limit` and stops the wave at `0`. Stages that
    /// must see *every* candidate (diversification pools, session windows)
    /// return their per-candidate cap and never reach `0`.
    fn demand(&self) -> usize;

    /// Start of a (re)play: the driver re-walks the ranked prefix each
    /// wave (the source only extends it; re-executions are execution-cache
    /// hits), so accumulated output resets here.
    fn begin_wave(&mut self);

    /// One non-empty executed candidate. `rank` is its position in the
    /// current wave's ranked list. The result may carry more JTTs than
    /// [`PostProcess::demand`] asked for when it was served complete from a
    /// cache; stages cap what they consume.
    fn ingest(&mut self, rank: usize, scored: &ScoredInterpretation, result: &Arc<ExecutedResult>);
}

/// Plain streamed top-k answers: take JTTs best-first until `k` exist.
struct TopKAnswers<'q, 'a, E> {
    interpreter: &'q Interpreter<'a>,
    executor: E,
    k: usize,
    answers: Vec<RankedAnswer>,
}

impl<E: Executor> PostProcess for TopKAnswers<'_, '_, E> {
    fn demand(&self) -> usize {
        self.k - self.answers.len().min(self.k)
    }

    fn begin_wave(&mut self) {
        self.answers.clear();
    }

    fn ingest(&mut self, _rank: usize, s: &ScoredInterpretation, res: &Arc<ExecutedResult>) {
        let remaining = self.demand();
        self.interpreter
            .collect_answers(&self.executor, s, res, remaining, &mut self.answers);
    }
}

/// The diversification pool (§4.4.2): every non-empty candidate survives
/// with its relevance, structural atoms, and result keys capped at `cap`
/// JTTs per interpretation — the pool Alg. 4.1 then selects from.
struct DivPoolStage<'q, 'a, E> {
    interpreter: &'q Interpreter<'a>,
    executor: E,
    cap: usize,
    items: Vec<DivItem>,
    keys: Vec<BTreeSet<ResultKey>>,
    picks: Vec<ScoredInterpretation>,
}

impl<'q, 'a, E: Executor> DivPoolStage<'q, 'a, E> {
    fn new(interpreter: &'q Interpreter<'a>, executor: E, cap: usize) -> Self {
        DivPoolStage {
            interpreter,
            executor,
            cap,
            items: Vec::new(),
            keys: Vec::new(),
            picks: Vec::new(),
        }
    }
}

impl<E: Executor> PostProcess for DivPoolStage<'_, '_, E> {
    fn demand(&self) -> usize {
        self.cap
    }

    fn begin_wave(&mut self) {
        self.items.clear();
        self.keys.clear();
        self.picks.clear();
    }

    fn ingest(&mut self, _rank: usize, s: &ScoredInterpretation, res: &Arc<ExecutedResult>) {
        self.items.push(DivItem {
            relevance: s.probability,
            atoms: s
                .interpretation
                .atoms(self.interpreter.catalog())
                .into_iter()
                .collect(),
        });
        self.keys.push(prefix_keys(
            &self.executor,
            self.interpreter.catalog(),
            &s.interpretation,
            res,
            self.cap,
        ));
        self.picks.push(s.clone());
    }
}

/// A construction session's window refresh: every candidate executed (at
/// most `limit` JTTs each), non-empty ones collected with their window
/// index, complete cache hits truncated back to `limit`.
struct WindowStage<'q, 'a, E> {
    interpreter: &'q Interpreter<'a>,
    executor: E,
    limit: usize,
    out: Vec<(usize, Arc<ExecutedResult>)>,
}

impl<E: Executor> PostProcess for WindowStage<'_, '_, E> {
    fn demand(&self) -> usize {
        self.limit
    }

    fn begin_wave(&mut self) {
        self.out.clear();
    }

    fn ingest(&mut self, rank: usize, s: &ScoredInterpretation, res: &Arc<ExecutedResult>) {
        self.out.push((
            rank,
            truncate_result(
                &self.executor,
                self.interpreter.catalog(),
                &s.interpretation,
                res,
                self.limit,
            ),
        ));
    }
}

// ---------------------------------------------------------------------------
// The pipeline.
// ---------------------------------------------------------------------------

/// Generation → cached execution → post-processing over explicit cache
/// handles. Construct the caches with [`NonemptyCache::with_shared`] /
/// [`ExecCache::with_shared`] to fall through to a service's process-wide
/// tier; plain caches give the cold offline behavior. `E` is the executor
/// the candidates run on (see the module docs); outside this crate it is
/// always the local one [`QueryPipeline::new`] builds.
pub struct QueryPipeline<'s, 'a, E = LocalExecutor<'a>> {
    interpreter: &'s Interpreter<'a>,
    executor: E,
    base: ExecOptions,
    gen_cache: &'s mut NonemptyCache,
    exec_cache: &'s mut ExecCache,
}

impl<'s, 'a> QueryPipeline<'s, 'a> {
    /// A pipeline executing over the interpreter's own database and index.
    pub fn new(
        interpreter: &'s Interpreter<'a>,
        base: ExecOptions,
        gen_cache: &'s mut NonemptyCache,
        exec_cache: &'s mut ExecCache,
    ) -> Self {
        let executor = interpreter.local_executor();
        Self::with_executor(interpreter, executor, base, gen_cache, exec_cache)
    }
}

// The executor seam is sealed on purpose: the trait stays crate-private so
// the set of executors (local, scatter-gather) is closed.
#[allow(private_bounds)]
impl<'s, 'a, E: Executor> QueryPipeline<'s, 'a, E> {
    /// A pipeline whose candidates execute on `executor`; `interpreter`
    /// then only generates (and names the catalog).
    pub(crate) fn with_executor(
        interpreter: &'s Interpreter<'a>,
        executor: E,
        base: ExecOptions,
        gen_cache: &'s mut NonemptyCache,
        exec_cache: &'s mut ExecCache,
    ) -> Self {
        QueryPipeline {
            interpreter,
            executor,
            base,
            gen_cache,
            exec_cache,
        }
    }

    /// The shared driver: pull a ranked wave from `source`, execute each
    /// candidate through the executor with `limit` set to
    /// the stage's remaining demand, and feed non-empty results to `post`.
    /// With `grow`, waves expand geometrically until the stage is satisfied
    /// or the source is exhausted; executions that error are tombstoned so
    /// replays skip them.
    fn drive<S: InterpretationSource, P: PostProcess>(
        &mut self,
        source: &mut S,
        post: &mut P,
        start_k: usize,
        grow: bool,
        stats: &mut AnswerStats,
    ) {
        let mut failed: HashSet<QueryInterpretation> = HashSet::new();
        let mut gen_k = start_k;
        loop {
            stats.waves += 1;
            let (ranked, gstats) = source.pull(gen_k, self.gen_cache);
            stats.gen.absorb(&gstats);
            stats.generated = ranked.len();
            post.begin_wave();
            for (rank, s) in ranked.iter().enumerate() {
                let remaining = post.demand();
                if remaining == 0 {
                    break;
                }
                let opts = ExecOptions {
                    limit: remaining,
                    ..self.base
                };
                if failed.contains(&s.interpretation) {
                    continue;
                }
                let hits_before = self.exec_cache.result_hits;
                let res = match self
                    .executor
                    .execute(&s.interpretation, opts, self.exec_cache)
                {
                    Ok(r) => r,
                    Err(_) => {
                        stats.exec_errors += 1;
                        failed.insert(s.interpretation.clone());
                        continue;
                    }
                };
                if self.exec_cache.result_hits == hits_before {
                    // Fresh execution: count it once.
                    stats.executed += 1;
                    stats.exec.absorb(&res.stats);
                    if !res.is_empty() {
                        stats.nonempty += 1;
                    }
                }
                if res.is_empty() {
                    continue;
                }
                post.ingest(rank, s, &res);
            }
            let exhausted = ranked.len() < gen_k || gen_k >= source.cap();
            if post.demand() == 0 || !grow || exhausted {
                break;
            }
            gen_k = gen_k.saturating_mul(4).min(source.cap());
        }
        stats.predicate_cache_hits = self.exec_cache.predicate_hits;
        stats.result_cache_hits = self.exec_cache.result_hits;
    }

    /// Streamed top-k answers (Hot path 2): best-first generation in
    /// geometrically growing waves, lazy limited execution, answers in
    /// interpretation-rank order. This *is*
    /// [`Interpreter::answers_top_k_with_caches`].
    pub fn answers(&mut self, query: &KeywordQuery, k: usize) -> (Vec<RankedAnswer>, AnswerStats) {
        let mut stats = AnswerStats::default();
        if k == 0 || query.is_empty() {
            return (Vec::new(), stats);
        }
        let interpreter = self.interpreter;
        let mut source = BestFirstSource::new(interpreter, query, true);
        let mut post = TopKAnswers {
            interpreter,
            executor: self.executor,
            k,
            answers: Vec::new(),
        };
        let start = k.max(8).min(interpreter.config().max_interpretations);
        self.drive(&mut source, &mut post, start, true, &mut stats);
        stats.answers = post.answers.len();
        (post.answers, stats)
    }

    /// Execute a pre-ranked candidate list into a diversification pool:
    /// every non-empty interpretation survives with its relevance, atoms,
    /// and result keys capped at `cap` JTTs (the §4.4.1 zero-probability
    /// condition drops empty ones). The offline
    /// `keybridge_divq::executed_div_pool` oracle is this call over plain
    /// (unshared) caches.
    pub fn executed_pool(&mut self, ranked: &[ScoredInterpretation], cap: usize) -> ExecutedPool {
        let mut stats = AnswerStats::default();
        let interpreter = self.interpreter;
        let mut post = DivPoolStage::new(interpreter, self.executor, cap);
        let mut source = FixedSource::new(ranked.to_vec());
        let start = ranked.len().max(1);
        self.drive(&mut source, &mut post, start, false, &mut stats);
        ExecutedPool {
            items: post.items,
            keys: post.keys,
            interps: post.picks,
            generated: ranked.len(),
            stats,
        }
    }

    /// Diversified top-k (Alg. 4.1) end to end: pull the best `opts.pool`
    /// interpretations (complete *and* partial — the DivQ candidate pool),
    /// stream them through the cached executor (at most `opts.cap` JTTs
    /// each, empty ones dropped), then greedily select
    /// relevance-and-novelty winners.
    pub fn diversified(
        &mut self,
        query: &KeywordQuery,
        opts: DiversifyOptions,
    ) -> DiversifiedAnswers {
        let mut stats = AnswerStats::default();
        let interpreter = self.interpreter;
        let mut post = DivPoolStage::new(interpreter, self.executor, opts.cap);
        if opts.pool > 0 && !query.is_empty() {
            let mut source = BestFirstSource::new(interpreter, query, true);
            let start = opts
                .pool
                .min(interpreter.config().max_interpretations.max(1));
            self.drive(&mut source, &mut post, start, false, &mut stats);
        }
        let selected = diversify(&post.items, opts.config);
        let answers: Vec<DiversifiedAnswer> = selected
            .into_iter()
            .map(|i| DiversifiedAnswer {
                interpretation: post.picks[i].interpretation.clone(),
                log_score: post.picks[i].log_score,
                relevance: post.items[i].relevance,
                atoms: post.items[i].atoms.clone(),
                keys: post.keys[i].clone(),
                pool_rank: i,
            })
            .collect();
        stats.answers = answers.len();
        DiversifiedAnswers {
            answers,
            pool: post.items.len(),
            stats,
        }
    }

    /// Execute a construction session's candidate window: every candidate
    /// runs through the cached executor (at most `limit` JTTs each), and
    /// the non-empty ones come back as `(window index, result)` in window
    /// order — byte-identical to a cold per-candidate execution even when
    /// served from a warm shared cache (complete hits are truncated back to
    /// `limit`).
    pub fn window(
        &mut self,
        candidates: &[(QueryInterpretation, f64)],
        limit: usize,
    ) -> Vec<(usize, Arc<ExecutedResult>)> {
        let mut stats = AnswerStats::default();
        let interpreter = self.interpreter;
        let mut post = WindowStage {
            interpreter,
            executor: self.executor,
            limit,
            out: Vec::new(),
        };
        let mut source = FixedSource::from_window(candidates);
        let start = candidates.len().max(1);
        self.drive(&mut source, &mut post, start, false, &mut stats);
        post.out
    }
}

/// A materialized diversification pool: the surviving (non-empty) items in
/// rank order, their capped result-key sets, the interpretations they came
/// from, and the run counters.
#[derive(Debug, Clone)]
pub struct ExecutedPool {
    /// Relevance + atoms per surviving interpretation (the Alg. 4.1 input).
    pub items: Vec<DivItem>,
    /// Result keys per surviving interpretation, capped at the pool's
    /// per-interpretation JTT limit (the Chapter 4 subtopics).
    pub keys: Vec<BTreeSet<ResultKey>>,
    /// The surviving interpretations, parallel to `items`.
    pub interps: Vec<ScoredInterpretation>,
    /// Candidates handed to the executor (pool size before the empty-result
    /// drop).
    pub generated: usize,
    /// Pipeline counters of the pool build.
    pub stats: AnswerStats,
}

/// Knobs of the diversified serving mode.
#[derive(Debug, Clone, Copy)]
pub struct DiversifyOptions {
    /// Selection size and λ trade-off (Alg. 4.1 / Eq. 4.4).
    pub config: DiversifyConfig,
    /// Ranked interpretations pulled best-first into the candidate pool
    /// (the paper's experiments use the top 25).
    pub pool: usize,
    /// Materialization cap: JTTs executed per pool interpretation.
    pub cap: usize,
}

impl Default for DiversifyOptions {
    fn default() -> Self {
        DiversifyOptions {
            config: DiversifyConfig::default(),
            pool: 25,
            cap: 500,
        }
    }
}

/// One selected answer of the diversified mode.
#[derive(Debug, Clone)]
pub struct DiversifiedAnswer {
    /// The selected interpretation.
    pub interpretation: QueryInterpretation,
    /// Its `ln P(Q|K)` (up to the per-query constant).
    pub log_score: f64,
    /// Its relevance: the probability normalized over the generated pool.
    pub relevance: f64,
    /// Its keyword-interpretation set `I` (Eq. 4.3).
    pub atoms: BTreeSet<BindingAtom>,
    /// Its capped result keys (the subtopics it covers).
    pub keys: BTreeSet<ResultKey>,
    /// Position in the executed pool (relevance rank).
    pub pool_rank: usize,
}

/// Outcome of one diversified pipeline run.
#[derive(Debug, Clone)]
pub struct DiversifiedAnswers {
    /// Selected interpretations in selection order (most relevant first).
    pub answers: Vec<DiversifiedAnswer>,
    /// Surviving executed pool size the selection drew from.
    pub pool: usize,
    /// Pipeline counters.
    pub stats: AnswerStats,
}

// ---------------------------------------------------------------------------
// Alg. 4.1: Jaccard similarity and the greedy relevance/novelty selection.
// (The algorithmic core of DivQ lives here so the serving layer can run it;
// `keybridge_divq` re-exports it.)
// ---------------------------------------------------------------------------

/// One candidate for diversification: an interpretation's relevance score
/// and its set of keyword interpretations (schema-level atoms).
#[derive(Debug, Clone)]
pub struct DivItem {
    /// Relevance = `P(Q|K)` from the disambiguation model (§4.4.2).
    pub relevance: f64,
    /// The keyword-interpretation set `I` of Eq. 4.3.
    pub atoms: BTreeSet<BindingAtom>,
}

/// Build the diversification pool from ranked interpretations — typically
/// the interpreter's `top_k(query, k)` output, which is exactly the DivQ
/// candidate pool (§4.4.2: complete and partial interpretations, best
/// first). Relevance is the ranked probability; atoms are the schema-level
/// keyword interpretations.
pub fn div_pool(ranked: &[ScoredInterpretation], catalog: &TemplateCatalog) -> Vec<DivItem> {
    ranked
        .iter()
        .map(|s| DivItem {
            relevance: s.probability,
            atoms: s.interpretation.atoms(catalog).into_iter().collect(),
        })
        .collect()
}

/// Jaccard coefficient between two atom sets (Eq. 4.3). Two empty sets are
/// defined maximally similar (they describe the same — empty — query).
pub fn jaccard(a: &BTreeSet<BindingAtom>, b: &BTreeSet<BindingAtom>) -> f64 {
    if a.is_empty() && b.is_empty() {
        return 1.0;
    }
    let inter = a.intersection(b).count();
    let union = a.len() + b.len() - inter;
    inter as f64 / union as f64
}

/// Diversification knobs.
#[derive(Debug, Clone, Copy)]
pub struct DiversifyConfig {
    /// Trade-off: 1.0 = pure relevance, 0.5 = balanced, < 0.5 emphasizes
    /// novelty (Eq. 4.4). The Chapter 4 experiments use λ = 0.1.
    pub lambda: f64,
    /// Number of interpretations to select.
    pub k: usize,
}

impl Default for DiversifyConfig {
    fn default() -> Self {
        DiversifyConfig { lambda: 0.1, k: 10 }
    }
}

/// Alg. 4.1: select `cfg.k` relevant-and-diverse items from `items`, which
/// must be sorted by relevance descending (the top-k of the ranker).
/// Returns indexes into `items` in selection order.
///
/// Relevance and similarity are normalized to equal means before the
/// λ-weighting (the note under Eq. 4.4), and the scan for each next element
/// stops early once `best_score > λ · relevance(L[j])` can no longer be
/// beaten — the upper-bound pruning of the paper's pseudo-code.
pub fn diversify(items: &[DivItem], cfg: DiversifyConfig) -> Vec<usize> {
    let n = items.len();
    if n == 0 || cfg.k == 0 {
        return Vec::new();
    }
    debug_assert!(
        items.windows(2).all(|w| w[0].relevance >= w[1].relevance),
        "items must be sorted by relevance descending"
    );

    // Normalization to equal means. Mean similarity is estimated over all
    // pairs of the candidate list (the population the selection draws from).
    let mean_rel = items.iter().map(|i| i.relevance).sum::<f64>() / n as f64;
    let mut sim_sum = 0.0;
    let mut sim_cnt = 0usize;
    for i in 0..n {
        for j in (i + 1)..n {
            sim_sum += jaccard(&items[i].atoms, &items[j].atoms);
            sim_cnt += 1;
        }
    }
    let mean_sim = if sim_cnt > 0 {
        sim_sum / sim_cnt as f64
    } else {
        0.0
    };
    let rel_scale = if mean_rel > 0.0 { 1.0 / mean_rel } else { 1.0 };
    let sim_scale = if mean_sim > 0.0 { 1.0 / mean_sim } else { 1.0 };

    let lambda = cfg.lambda;
    let mut selected: Vec<usize> = vec![0]; // most relevant always first
    let mut available: Vec<usize> = (1..n).collect();

    while selected.len() < cfg.k.min(n) {
        let mut best_score = f64::NEG_INFINITY;
        let mut best_pos = 0usize;
        for (pos, &j) in available.iter().enumerate() {
            let rel = items[j].relevance * rel_scale;
            // Upper bound: diversity penalty is ≥ 0, so score(j) ≤ λ·rel(j).
            // `available` is relevance-sorted, so once the bound falls below
            // the incumbent nothing later can win.
            if best_score > lambda * rel {
                break;
            }
            let avg_sim = selected
                .iter()
                .map(|&s| jaccard(&items[s].atoms, &items[j].atoms))
                .sum::<f64>()
                / selected.len() as f64;
            let score = lambda * rel - (1.0 - lambda) * avg_sim * sim_scale;
            if score > best_score {
                best_score = score;
                best_pos = pos;
            }
        }
        let chosen = available.remove(best_pos);
        selected.push(chosen);
    }
    selected
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::InterpreterConfig;
    use keybridge_datagen::{ImdbConfig, ImdbDataset};
    use keybridge_index::InvertedIndex;
    use keybridge_relstore::Database;

    struct Fixture {
        db: Database,
        index: InvertedIndex,
        catalog: TemplateCatalog,
    }

    fn fixture() -> Fixture {
        let data = ImdbDataset::generate(ImdbConfig::tiny(1)).unwrap();
        let index = InvertedIndex::build(&data.db);
        let catalog = TemplateCatalog::enumerate(&data.db, 4, 50_000).unwrap();
        Fixture {
            db: data.db,
            index,
            catalog,
        }
    }

    fn interp(f: &Fixture) -> Interpreter<'_> {
        Interpreter::new(&f.db, &f.index, &f.catalog, InterpreterConfig::default())
    }

    #[test]
    fn pipeline_answers_equals_interpreter_entry_point() {
        let f = fixture();
        let it = interp(&f);
        let q = KeywordQuery::from_terms(vec!["tom".into(), "hanks".into()]);
        let direct = it.answers_top_k(&q, 7);
        let mut gen_cache = NonemptyCache::new();
        let mut exec_cache = ExecCache::new();
        let (piped, stats) =
            QueryPipeline::new(&it, ExecOptions::default(), &mut gen_cache, &mut exec_cache)
                .answers(&q, 7);
        assert_eq!(direct.len(), piped.len());
        for (a, b) in direct.iter().zip(&piped) {
            assert_eq!(a.interpretation, b.interpretation);
            assert_eq!(a.log_score.to_bits(), b.log_score.to_bits());
            assert_eq!(a.jtt, b.jtt);
            assert_eq!(a.keys, b.keys);
        }
        assert_eq!(stats.answers, piped.len());
    }

    #[test]
    fn multi_wave_generation_counters_are_the_request_total() {
        // A request that needs a second wave resumes the first wave's
        // search; its `gen` counters must still be what one fresh search at
        // the final wave's `k` reports — not the last pull's share.
        let f = fixture();
        let it = interp(&f);
        let k = 10;
        for (terms, waves) in [
            (&["robert", "cruise"][..], 2),
            (&["robert", "cruise", "dream"], 3),
        ] {
            let q = KeywordQuery::from_terms(terms.iter().map(|t| t.to_string()).collect());
            let mut gen_cache = NonemptyCache::new();
            let mut exec_cache = ExecCache::new();
            let (_, stats) =
                QueryPipeline::new(&it, ExecOptions::default(), &mut gen_cache, &mut exec_cache)
                    .answers(&q, k);
            assert_eq!(stats.waves, waves, "{terms:?}: fixture drifted");
            let final_k = (1..waves).fold(k, |gen_k, _| gen_k * 4);
            let (fresh, want) = it.top_k_with_cache(&q, final_k, true, &mut NonemptyCache::new());
            assert_eq!(stats.generated, fresh.len(), "{terms:?}");
            let got = stats.gen;
            assert_eq!(
                (got.materialized, got.expanded, got.pushed, got.pruned),
                (want.materialized, want.expanded, want.pushed, want.pruned),
                "{terms:?}: search counters"
            );
            assert_eq!(
                (
                    got.nonempty_probes,
                    got.nonempty_cache_hits,
                    got.nonempty_shared_hits,
                    got.emitted
                ),
                (
                    want.nonempty_probes,
                    want.nonempty_cache_hits,
                    want.nonempty_shared_hits,
                    want.emitted
                ),
                "{terms:?}: probe counters"
            );
        }
    }

    #[test]
    fn executed_pool_drops_empty_and_caps_keys() {
        let f = fixture();
        let it = interp(&f);
        let q = KeywordQuery::from_terms(vec!["tom".into()]);
        let ranked = it.top_k(&q, 10);
        assert!(!ranked.is_empty());
        let mut gen_cache = NonemptyCache::new();
        let mut exec_cache = ExecCache::new();
        let pool = QueryPipeline::new(&it, ExecOptions::default(), &mut gen_cache, &mut exec_cache)
            .executed_pool(&ranked, 3);
        assert_eq!(pool.generated, ranked.len());
        assert_eq!(pool.items.len(), pool.keys.len());
        assert_eq!(pool.items.len(), pool.interps.len());
        assert!(!pool.items.is_empty(), "every candidate executed empty");
        // Capped: no key set can exceed what 3 JTTs of its template carry.
        for (keys, s) in pool.keys.iter().zip(&pool.interps) {
            let nodes = f.catalog.get(s.interpretation.template).tree.nodes.len();
            assert!(keys.len() <= 3 * nodes, "keys overflow the cap");
        }
        // Pool items keep the ranked relevance, bit-exact.
        for (item, s) in pool.items.iter().zip(&pool.interps) {
            assert_eq!(item.relevance.to_bits(), s.probability.to_bits());
        }
    }

    #[test]
    fn diversified_selection_matches_manual_pool_plus_alg41() {
        let f = fixture();
        let it = interp(&f);
        let q = KeywordQuery::from_terms(vec!["tom".into()]);
        let opts = DiversifyOptions {
            config: DiversifyConfig { lambda: 0.1, k: 4 },
            pool: 12,
            cap: 5,
        };
        // Manual composition of the same stages.
        let ranked = it.top_k(&q, opts.pool);
        let mut g1 = NonemptyCache::new();
        let mut e1 = ExecCache::new();
        let manual = QueryPipeline::new(&it, ExecOptions::default(), &mut g1, &mut e1)
            .executed_pool(&ranked, opts.cap);
        let sel = diversify(&manual.items, opts.config);

        let mut g2 = NonemptyCache::new();
        let mut e2 = ExecCache::new();
        let got =
            QueryPipeline::new(&it, ExecOptions::default(), &mut g2, &mut e2).diversified(&q, opts);
        assert_eq!(got.pool, manual.items.len());
        assert_eq!(got.answers.len(), sel.len());
        for (a, &i) in got.answers.iter().zip(&sel) {
            assert_eq!(a.pool_rank, i);
            assert_eq!(a.relevance.to_bits(), manual.items[i].relevance.to_bits());
            assert_eq!(a.atoms, manual.items[i].atoms);
            assert_eq!(a.keys, manual.keys[i]);
            assert_eq!(a.interpretation, manual.interps[i].interpretation);
        }
    }

    #[test]
    fn window_truncates_warm_complete_hits_to_the_request_limit() {
        let f = fixture();
        let it = interp(&f);
        let q = KeywordQuery::from_terms(vec!["tom".into()]);
        let ranked = it.top_k_complete(&q, 6);
        let window: Vec<(QueryInterpretation, f64)> = ranked
            .iter()
            .map(|s| (s.interpretation.clone(), s.probability))
            .collect();
        // Cold oracle: fresh cache, limit 1.
        let mut g1 = NonemptyCache::new();
        let mut e1 = ExecCache::new();
        let cold =
            QueryPipeline::new(&it, ExecOptions::default(), &mut g1, &mut e1).window(&window, 1);
        // Warm path: a big-limit pass first populates the cache with
        // *complete* results, then the limit-1 refresh must truncate them.
        let mut g2 = NonemptyCache::new();
        let mut e2 = ExecCache::new();
        let mut warm_pipe = QueryPipeline::new(&it, ExecOptions::default(), &mut g2, &mut e2);
        let big = warm_pipe.window(&window, 10_000);
        assert!(big.iter().any(|(_, r)| r.len() > 1), "fixture too small");
        let warm = warm_pipe.window(&window, 1);
        assert_eq!(cold.len(), warm.len());
        for ((ci, cr), (wi, wr)) in cold.iter().zip(&warm) {
            assert_eq!(ci, wi);
            assert_eq!(cr.jtts, wr.jtts);
            assert_eq!(cr.keys, wr.keys);
            assert_eq!(cr.all_keys, wr.all_keys);
            assert!(wr.len() <= 1);
        }
    }

    #[test]
    fn diversified_empty_query_yields_nothing() {
        let f = fixture();
        let it = interp(&f);
        let mut g = NonemptyCache::new();
        let mut e = ExecCache::new();
        let got = QueryPipeline::new(&it, ExecOptions::default(), &mut g, &mut e).diversified(
            &KeywordQuery::from_terms(vec![]),
            DiversifyOptions::default(),
        );
        assert!(got.answers.is_empty());
        assert_eq!(got.pool, 0);
    }
}
