//! Incremental query construction (Alg. 3.2): construction options, their
//! subsumption semantics (Defs. 3.5.7–3.5.8), and the information-gain
//! session over a materialized candidate window.
//!
//! This machinery historically lived in `keybridge-iqp`; it moved into the
//! core so the concurrent [`crate::SearchService`] can manage construction
//! sessions as a first-class request mode (each session pinned to the
//! [`crate::SnapshotEpoch`] it was opened on). `keybridge-iqp` re-exports
//! everything here and keeps the evaluation harness (simulated users,
//! construction plans, the §3.8.5 scalability simulation) on top of it.
//!
//! The session is deliberately catalog-free state: methods that need
//! template structure take the [`TemplateCatalog`] as an argument, so a
//! session can outlive any particular borrow of the snapshot that created
//! it — exactly what a service-held session registry requires.

use crate::exec::{ExecCache, ExecutedResult};
use crate::generate::{Interpreter, InterpreterConfig, NonemptyCache, ScoredInterpretation};
use crate::interp::{BindingAtom, BindingAtomKind, QueryInterpretation};
use crate::keyword::KeywordQuery;
use crate::pipeline::QueryPipeline;
use crate::template::{TemplateCatalog, TemplateId};
use keybridge_index::InvertedIndex;
use keybridge_relstore::{Database, ExecOptions, TableId};
use std::sync::Arc;

/// A query construction option (an item of Fig. 3.1's construction panel).
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ConstructionOption {
    /// "Keyword `k` is a value of / names attribute A" — the workhorse
    /// option ("Is London a person?").
    Atom(BindingAtom),
    /// "The result involves table X" (e.g. "Are you looking for a movie?").
    UsesTable(TableId),
    /// "The query has exactly this structure" — the most specific option;
    /// corresponds to showing a full structured query in the query window.
    Template(TemplateId),
}

impl ConstructionOption {
    /// The option as the information-gain scan compares it.
    fn as_ref(&self) -> OptionRef<'_> {
        match self {
            ConstructionOption::Atom(a) => OptionRef::Atom(a),
            ConstructionOption::UsesTable(t) => OptionRef::UsesTable(*t),
            ConstructionOption::Template(t) => OptionRef::Template(*t),
        }
    }

    /// Whether `interp` subsumes this option.
    pub fn subsumed_by(&self, interp: &QueryInterpretation, catalog: &TemplateCatalog) -> bool {
        match self {
            ConstructionOption::Atom(atom) => interp.contains_atom(catalog, atom),
            ConstructionOption::UsesTable(t) => catalog.get(interp.template).tree.nodes.contains(t),
            ConstructionOption::Template(t) => interp.template == *t,
        }
    }

    /// Human-readable rendering (the text shown in the construction panel).
    pub fn describe(&self, db: &Database, catalog: &TemplateCatalog) -> String {
        match self {
            ConstructionOption::Atom(a) => {
                let table = db.schema().table(a.attr.table);
                match a.kind {
                    BindingAtomKind::Value => format!(
                        "\"{}\" is a value of {}.{}",
                        a.keyword,
                        table.name,
                        table.attr(a.attr.attr).name
                    ),
                    BindingAtomKind::TableName => {
                        format!("\"{}\" names the table {}", a.keyword, table.name)
                    }
                    BindingAtomKind::AttrName => format!(
                        "\"{}\" names the attribute {}.{}",
                        a.keyword,
                        table.name,
                        table.attr(a.attr.attr).name
                    ),
                }
            }
            ConstructionOption::UsesTable(t) => {
                format!("the result involves {}", db.schema().table(*t).name)
            }
            ConstructionOption::Template(t) => {
                let sig = catalog.get(*t).signature(db);
                format!("the query joins exactly: {}", sig.join(" ⋈ "))
            }
        }
    }

    /// All options derivable from a candidate set: every distinct binding
    /// atom, every table used by some candidate, and every candidate
    /// template. Options subsumed by *all* candidates carry no information
    /// and are omitted.
    pub fn derive(
        candidates: &[QueryInterpretation],
        catalog: &TemplateCatalog,
    ) -> Vec<ConstructionOption> {
        use std::collections::BTreeSet;
        let mut atoms: BTreeSet<BindingAtom> = BTreeSet::new();
        let mut tables: BTreeSet<TableId> = BTreeSet::new();
        let mut templates: BTreeSet<TemplateId> = BTreeSet::new();
        for c in candidates {
            for a in c.atoms(catalog) {
                atoms.insert(a);
            }
            for t in &catalog.get(c.template).tree.nodes {
                tables.insert(*t);
            }
            templates.insert(c.template);
        }
        let mut out: Vec<ConstructionOption> = atoms
            .into_iter()
            .map(ConstructionOption::Atom)
            .chain(tables.into_iter().map(ConstructionOption::UsesTable))
            .chain(templates.into_iter().map(ConstructionOption::Template))
            .collect();
        out.retain(|o| {
            let n = candidates
                .iter()
                .filter(|c| o.subsumed_by(c, catalog))
                .count();
            n > 0 && n < candidates.len()
        });
        out
    }
}

/// A [`ConstructionOption`] borrowed from a session's atom cache, so the
/// information-gain scan copies only the option it proposes. Variants and
/// fields are in [`ConstructionOption`]'s order, so the two sort alike.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum OptionRef<'s> {
    Atom(&'s BindingAtom),
    UsesTable(TableId),
    Template(TemplateId),
}

impl OptionRef<'_> {
    fn to_owned(self) -> ConstructionOption {
        match self {
            OptionRef::Atom(a) => ConstructionOption::Atom(a.clone()),
            OptionRef::UsesTable(t) => ConstructionOption::UsesTable(t),
            OptionRef::Template(t) => ConstructionOption::Template(t),
        }
    }
}

/// Session tuning knobs.
#[derive(Debug, Clone, Copy)]
pub struct SessionConfig {
    /// Stop when at most this many candidates remain ("the process of query
    /// construction stops when less than five complete query interpretations
    /// are left in the query window", §3.8.2).
    pub stop_at: usize,
}

impl Default for SessionConfig {
    fn default() -> Self {
        SessionConfig { stop_at: 5 }
    }
}

/// Shannon entropy of a normalized distribution (Eq. 3.12 shape).
fn entropy(probs: impl Iterator<Item = f64>) -> f64 {
    let mut h = 0.0;
    for p in probs {
        if p > 0.0 {
            h -= p * p.log2();
        }
    }
    h
}

/// Entropy of a weight vector after normalization; zero-sum yields 0.
fn entropy_of_weights(weights: &[f64]) -> f64 {
    let sum: f64 = weights.iter().sum();
    if sum <= 0.0 {
        return 0.0;
    }
    entropy(weights.iter().map(|w| w / sum))
}

/// An in-progress construction session over a materialized candidate set.
///
/// Atom sets are cached per candidate so the per-step information-gain scan
/// is `O(#options · #candidates)` set lookups rather than repeated atom
/// extraction. The session holds no catalog borrow — methods that consult
/// template structure take it as an argument — so it can be stored (e.g. in
/// a [`crate::SearchService`] session registry) independently of the
/// snapshot that created it.
pub struct ConstructionSession {
    /// The window, shared with the ranking it was opened from.
    candidates: Vec<(Arc<QueryInterpretation>, f64)>,
    /// Sorted atom list per candidate (parallel to `candidates`).
    atom_cache: Vec<Vec<BindingAtom>>,
    asked: Vec<ConstructionOption>,
    steps: usize,
    config: SessionConfig,
}

impl ConstructionSession {
    /// Start a session from ranked interpretations (probabilities are reused
    /// as plan weights).
    pub fn new(
        catalog: &TemplateCatalog,
        ranked: &[ScoredInterpretation],
        config: SessionConfig,
    ) -> Self {
        let candidates: Vec<(Arc<QueryInterpretation>, f64)> = ranked
            .iter()
            .map(|s| (Arc::clone(&s.interpretation), s.probability.max(1e-12)))
            .collect();
        let atom_cache = candidates.iter().map(|(c, _)| c.atoms(catalog)).collect();
        ConstructionSession {
            candidates,
            atom_cache,
            asked: Vec::new(),
            steps: 0,
            config,
        }
    }

    /// Start a session directly from a keyword query: the candidate window
    /// is the interpreter's best-first `top_k_complete` — construction
    /// never needs the exhaustive space, only the window the user will
    /// actually winnow (probabilities are normalized within it).
    pub fn for_query(
        interpreter: &Interpreter<'_>,
        query: &KeywordQuery,
        window: usize,
        config: SessionConfig,
    ) -> Self {
        let ranked = interpreter.top_k_complete(query, window);
        Self::new(interpreter.catalog(), &ranked, config)
    }

    /// Remaining candidates, best first.
    pub fn remaining(&self) -> &[(Arc<QueryInterpretation>, f64)] {
        &self.candidates
    }

    /// Options evaluated so far (the interaction cost).
    pub fn steps(&self) -> usize {
        self.steps
    }

    /// The session's tuning knobs.
    pub fn config(&self) -> SessionConfig {
        self.config
    }

    /// Whether the session should stop (few enough candidates, or no further
    /// discriminating option exists).
    pub fn finished(&self, catalog: &TemplateCatalog) -> bool {
        self.finished_given(self.next_option(catalog).as_ref())
    }

    /// [`Self::finished`] against an already-computed next option — the one
    /// definition of the stop rule, shared with callers (like the service's
    /// session views) that have the option in hand and must not pay a
    /// second information-gain scan.
    pub fn finished_given(&self, next_option: Option<&ConstructionOption>) -> bool {
        self.candidates.len() <= self.config.stop_at || next_option.is_none()
    }

    /// Subsumption against the cached atoms of candidate `i`.
    fn subsumes_cached(&self, catalog: &TemplateCatalog, i: usize, o: OptionRef<'_>) -> bool {
        match o {
            OptionRef::Atom(a) => self.atom_cache[i].binary_search(a).is_ok(),
            OptionRef::UsesTable(t) => catalog
                .get(self.candidates[i].0.template)
                .tree
                .nodes
                .contains(&t),
            OptionRef::Template(t) => self.candidates[i].0.template == t,
        }
    }

    /// The next option to present: the one maximizing information gain
    /// `IG(I|O) = H(I) − [P(O)·H(I|accept) + P(¬O)·H(I|reject)]`.
    ///
    /// (Eq. 3.13 computes `H(I|O)` over the subsumed side only; we use the
    /// standard expectation over both sides, which is what "maximize the
    /// information revealed" requires and what makes the baseline degrade to
    /// binary splitting under uniform probabilities.)
    pub fn next_option(&self, catalog: &TemplateCatalog) -> Option<ConstructionOption> {
        // Derive candidate options from the cached atoms, borrowed, in
        // option order.
        let nodes = |c: &QueryInterpretation| &catalog.get(c.template).tree.nodes;
        let mut opts: Vec<OptionRef<'_>> = Vec::with_capacity(
            self.atom_cache.iter().map(Vec::len).sum::<usize>()
                + self
                    .candidates
                    .iter()
                    .map(|(c, _)| nodes(c).len() + 1)
                    .sum::<usize>(),
        );
        for (i, (c, _)) in self.candidates.iter().enumerate() {
            opts.extend(self.atom_cache[i].iter().map(OptionRef::Atom));
            opts.extend(nodes(c).iter().map(|&t| OptionRef::UsesTable(t)));
            opts.push(OptionRef::Template(c.template));
        }
        opts.sort_unstable();
        opts.dedup();
        let mut acc: Vec<f64> = Vec::with_capacity(self.candidates.len());
        let mut rej: Vec<f64> = Vec::with_capacity(self.candidates.len());
        acc.extend(self.candidates.iter().map(|(_, p)| *p));
        let h = entropy_of_weights(&acc);
        let total: f64 = acc.iter().sum();
        let mut best: Option<(f64, OptionRef<'_>)> = None;
        for o in opts {
            if self.asked.iter().any(|asked| asked.as_ref() == o) {
                continue;
            }
            acc.clear();
            rej.clear();
            for (i, (_, p)) in self.candidates.iter().enumerate() {
                if self.subsumes_cached(catalog, i, o) {
                    acc.push(*p);
                } else {
                    rej.push(*p);
                }
            }
            if acc.is_empty() || rej.is_empty() {
                continue; // non-discriminating
            }
            let p_acc: f64 = acc.iter().sum::<f64>() / total;
            let cond = p_acc * entropy_of_weights(&acc) + (1.0 - p_acc) * entropy_of_weights(&rej);
            let ig = h - cond;
            let better = match &best {
                None => true,
                Some((b, bo)) => ig > *b + 1e-12 || (ig > *b - 1e-12 && o < *bo),
            };
            if better {
                best = Some((ig, o));
            }
        }
        best.map(|(_, o)| o.to_owned())
    }

    /// Materialize the answers of the current query window through the
    /// [`QueryPipeline`]: every remaining candidate is executed by the
    /// batched hash-join engine (at most `limit` JTTs each) over a fresh
    /// [`ExecCache`]. Returns `(candidate index, result)` pairs for the
    /// non-empty candidates, in window (probability) order — the "results,
    /// not query forms" the user is ultimately after.
    pub fn window_answers(
        &self,
        db: &Database,
        index: &InvertedIndex,
        catalog: &TemplateCatalog,
        limit: usize,
    ) -> Vec<(usize, Arc<ExecutedResult>)> {
        let mut cache = ExecCache::new();
        self.window_answers_with_cache(db, index, catalog, limit, &mut cache)
    }

    /// [`Self::window_answers`] over an explicit [`ExecCache`] — the cached
    /// executor seam. Repeated window refreshes through one cache stop
    /// recomputing predicate row sets (and replay memoized executions), and
    /// a cache built with [`ExecCache::with_shared`] falls through to a
    /// service's process-wide tier while staying byte-identical to the cold
    /// path (shared hits at a larger limit are truncated back to `limit`).
    pub fn window_answers_with_cache(
        &self,
        db: &Database,
        index: &InvertedIndex,
        catalog: &TemplateCatalog,
        limit: usize,
        exec_cache: &mut ExecCache,
    ) -> Vec<(usize, Arc<ExecutedResult>)> {
        let interpreter = Interpreter::new(db, index, catalog, InterpreterConfig::default());
        let mut gen_cache = NonemptyCache::new();
        QueryPipeline::new(
            &interpreter,
            ExecOptions::default(),
            &mut gen_cache,
            exec_cache,
        )
        .window(&self.candidates, limit)
    }

    /// Apply the user's verdict on `option`, shrinking the candidate set.
    pub fn apply(&mut self, catalog: &TemplateCatalog, option: ConstructionOption, accepted: bool) {
        self.steps += 1;
        let keep: Vec<bool> = (0..self.candidates.len())
            .map(|i| self.subsumes_cached(catalog, i, option.as_ref()) == accepted)
            .collect();
        let mut it = keep.iter();
        self.candidates.retain(|_| *it.next().expect("parallel"));
        let mut it = keep.iter();
        self.atom_cache.retain(|_| *it.next().expect("parallel"));
        self.asked.push(option);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn entropy_basics() {
        assert_eq!(entropy_of_weights(&[]), 0.0);
        assert_eq!(entropy_of_weights(&[1.0]), 0.0);
        assert!((entropy_of_weights(&[0.5, 0.5]) - 1.0).abs() < 1e-12);
        assert!(entropy_of_weights(&[0.9, 0.1]) < 1.0);
    }
}
